//! A stateful database façade over HLU.
//!
//! [`Database`] holds a current state in some BLU implementation and runs
//! HLU programs against it. Two backends are provided:
//!
//! * [`ClausalDatabase`] — state is a clause set, operators are the
//!   resolution algorithms of **BLU-C** (the practicable representation);
//! * [`InstanceDatabase`] — state is an explicit set of possible worlds
//!   (**BLU-I**), the semantic reference.
//!
//! Queries follow the standard incomplete-information readings: a wff is
//! *certain* if it holds in every possible world and *possible* if it
//! holds in some. Integrity constraints, when enabled, are enforced the
//! way §1.3.3's discussion prescribes for incomplete databases: after an
//! update, illegal worlds are eliminated (clausally: the constraints are
//! asserted).

use std::collections::BTreeSet;

use pwdb_blu::{run_program, BluClausal, BluInstance, BluSemantics, Value};
use pwdb_logic::{cnf_of, governor, AtomId, ClauseSet, ExecError, Limits, LogicError, Wff};
use pwdb_metrics::counter;
use pwdb_worlds::{Schema, WorldSet};

use crate::ast::HluProgram;
use crate::compile::{compile, ArgValue};

/// A BLU implementation that can additionally lower HLU's
/// representation-free arguments into its own domains and answer queries.
pub trait HluBackend: BluSemantics {
    /// Lowers a wff parameter to a state.
    fn lower_state(&self, wff: &Wff) -> Self::State;
    /// Lowers a letter-set parameter to a mask.
    fn lower_mask(&self, atoms: &BTreeSet<AtomId>) -> Self::Mask;
    /// The no-information initial state (all legal worlds possible).
    fn top(&self) -> Self::State;
    /// Whether `wff` holds in every possible world of `state`.
    fn certain(&self, state: &Self::State, wff: &Wff) -> bool;
    /// Whether the state has at least one possible world.
    fn consistent(&self, state: &Self::State) -> bool;
    /// Number of possible worlds of the state over a universe of
    /// `n_atoms` atoms. Panics when the count does not fit a `u64`
    /// (an unconstrained 64-atom universe); [`HluBackend::try_world_count`]
    /// is the checked form.
    fn world_count(&self, state: &Self::State, n_atoms: usize) -> u64;
    /// Checked world count: `u128` so the full `2^64` of an empty
    /// 64-atom state is representable, `TooManyAtoms` past the packed-
    /// assignment limit instead of a panic.
    fn try_world_count(&self, state: &Self::State, n_atoms: usize) -> Result<u128, LogicError>;
}

impl HluBackend for BluClausal {
    fn lower_state(&self, wff: &Wff) -> ClauseSet {
        cnf_of(wff)
    }

    fn lower_mask(&self, atoms: &BTreeSet<AtomId>) -> BTreeSet<AtomId> {
        atoms.clone()
    }

    fn top(&self) -> ClauseSet {
        ClauseSet::new()
    }

    fn certain(&self, state: &ClauseSet, wff: &Wff) -> bool {
        pwdb_logic::entails(state, wff)
    }

    fn consistent(&self, state: &ClauseSet) -> bool {
        pwdb_logic::is_satisfiable(state)
    }

    fn world_count(&self, state: &ClauseSet, n_atoms: usize) -> u64 {
        pwdb_logic::count_models(state, n_atoms)
    }

    fn try_world_count(&self, state: &ClauseSet, n_atoms: usize) -> Result<u128, LogicError> {
        pwdb_logic::try_count_models(state, n_atoms)
    }
}

impl HluBackend for BluInstance {
    fn lower_state(&self, wff: &Wff) -> WorldSet {
        WorldSet::from_wff(self.n_atoms(), wff)
    }

    fn lower_mask(&self, atoms: &BTreeSet<AtomId>) -> BTreeSet<AtomId> {
        atoms.clone()
    }

    fn top(&self) -> WorldSet {
        self.universe().clone()
    }

    fn certain(&self, state: &WorldSet, wff: &Wff) -> bool {
        state.iter().all(|w| wff.eval(&w))
    }

    fn consistent(&self, state: &WorldSet) -> bool {
        !state.is_empty()
    }

    fn world_count(&self, state: &WorldSet, n_atoms: usize) -> u64 {
        assert_eq!(n_atoms, state.n_atoms(), "universe mismatch");
        state.len() as u64
    }

    fn try_world_count(&self, state: &WorldSet, n_atoms: usize) -> Result<u128, LogicError> {
        if n_atoms != state.n_atoms() {
            return Err(LogicError::TooManyAtoms {
                requested: n_atoms,
                max: state.n_atoms(),
            });
        }
        Ok(state.len() as u128)
    }
}

/// An incomplete-information database driven by HLU programs.
#[derive(Debug, Clone)]
pub struct Database<B: HluBackend> {
    backend: B,
    state: B::State,
    /// The integrity constraints, lowered once by
    /// [`Database::with_constraints`] and asserted after every update.
    constraints: Option<B::State>,
    updates_run: usize,
    history: Vec<HluProgram>,
}

/// The clausal-backend database (the paper's practicable implementation).
pub type ClausalDatabase = Database<BluClausal>;
/// The possible-worlds-backend database (the semantic reference).
pub type InstanceDatabase = Database<BluInstance>;

impl ClausalDatabase {
    /// A clausal database with no information and no constraints,
    /// running the paper-exact algorithms.
    pub fn new() -> Self {
        Database::with_backend(BluClausal::new())
    }

    /// A clausal database whose operators apply subsumption reduction —
    /// the "correctness-preserving optimizations" of §4. Same semantics
    /// (emulation checked), smaller states after `where`-style combines.
    pub fn new_reduced() -> Self {
        Database::with_backend(BluClausal::new().with_reduction(true))
    }

    /// Rewrites the state into its prime-implicate canonical form
    /// (Tison): semantically equal states normalize to the *same* clause
    /// set, and every clause is a strongest consequence — the fully
    /// "cleaned up" knowledge base of the §3.3.1 discussion. Worst-case
    /// exponential, like every canonicalization of this kind.
    pub fn normalize(&mut self) {
        let canonical = pwdb_logic::prime_implicates(self.state());
        self.set_state(canonical);
    }
}

impl Default for ClausalDatabase {
    fn default() -> Self {
        Self::new()
    }
}

impl InstanceDatabase {
    /// An instance database over `n` atoms with no information.
    pub fn with_atoms(n: usize) -> Self {
        Database::with_backend(BluInstance::new(n))
    }

    /// An instance database over a schema; the initial state is
    /// `LDB[D]` and complementation is relative to it.
    pub fn for_schema(schema: &Schema) -> Self {
        Database::with_backend(BluInstance::for_schema(schema))
    }
}

impl<B: HluBackend> Database<B> {
    /// Builds over an explicit backend, starting at the no-information
    /// state.
    pub fn with_backend(backend: B) -> Self {
        let state = backend.top();
        Database {
            backend,
            state,
            constraints: None,
            updates_run: 0,
            history: Vec::new(),
        }
    }

    /// Installs integrity constraints enforced after every update.
    pub fn with_constraints(mut self, constraints: Wff) -> Self {
        let lowered = self.backend.lower_state(&constraints);
        self.state = self.backend.op_assert(&self.state, &lowered);
        self.constraints = Some(lowered);
        self
    }

    /// The backend algebra.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The current state.
    pub fn state(&self) -> &B::State {
        &self.state
    }

    /// Replaces the state wholesale (e.g. to seed a benchmark). The
    /// statement history no longer derives the new state, so it is
    /// cleared.
    pub fn set_state(&mut self, state: B::State) {
        self.state = state;
        self.history.clear();
    }

    /// Number of HLU programs run so far.
    pub fn updates_run(&self) -> usize {
        self.updates_run
    }

    /// Every program applied so far, in order — the database's statement
    /// history. Failed [`Database::run_governed`] statements and updates
    /// undone by [`Database::rollback_to`] are excised, so the history
    /// always *derives* the current state from the initial one (replaying
    /// it on a fresh database reproduces `state()` exactly). [`Database::set_state`]
    /// breaks that derivation and clears the history.
    pub fn history(&self) -> &[HluProgram] {
        &self.history
    }

    /// Seeds the history wholesale (recovery replays use this to restore
    /// the audit trail for statements already baked into a snapshot).
    pub fn restore_history(&mut self, history: Vec<HluProgram>, updates_run: usize) {
        self.history = history;
        self.updates_run = updates_run;
    }

    /// Runs one HLU program against the current state — the paper's
    /// morphism, applied as is: ungoverned, and committed even when it
    /// leaves no possible world (an inconsistent `assert`). Replay and the
    /// oracles use it; [`Database::run_governed`] is the transactional
    /// path.
    pub fn run(&mut self, prog: &HluProgram) {
        let _sp = stmt_span(prog);
        let compiled = compile(prog);
        let mut args: Vec<Value<B::State, B::Mask>> = Vec::with_capacity(compiled.args.len() + 1);
        args.push(Value::State(self.state.clone()));
        for a in &compiled.args {
            args.push(match a {
                ArgValue::State(w) => Value::State(self.backend.lower_state(w)),
                ArgValue::Mask(m) => Value::Mask(self.backend.lower_mask(m)),
            });
        }
        let mut next = run_program(&self.backend, &compiled.program, args)
            .expect("compiled programs bind all parameters");
        if let Some(con) = &self.constraints {
            let _sp = pwdb_trace::span!("hlu.constraints", timer = "hlu.constraints.wall");
            next = self.backend.op_assert(&next, con);
        }
        self.state = next;
        self.updates_run += 1;
        self.history.push(prog.clone());
    }

    /// Convenience: `(assert W)`.
    pub fn assert_wff(&mut self, wff: Wff) {
        self.run(&HluProgram::Assert(wff));
    }

    /// Convenience: `(insert W)`.
    pub fn insert(&mut self, wff: Wff) {
        self.run(&HluProgram::Insert(wff));
    }

    /// Convenience: `(delete W)`.
    pub fn delete(&mut self, wff: Wff) {
        self.run(&HluProgram::Delete(wff));
    }

    /// Convenience: `(modify W V)`.
    pub fn modify(&mut self, from: Wff, to: Wff) {
        self.run(&HluProgram::Modify(from, to));
    }

    /// Convenience: `(clear M)`.
    pub fn clear(&mut self, atoms: impl IntoIterator<Item = AtomId>) {
        self.run(&HluProgram::Clear(atoms.into_iter().collect()));
    }

    /// Whether `wff` holds in every possible world.
    pub fn is_certain(&self, wff: &Wff) -> bool {
        let _sp = pwdb_trace::span!("hlu.query.certain", timer = "hlu.query.certain.wall");
        self.backend.certain(&self.state, wff)
    }

    /// Whether `wff` holds in at least one possible world.
    ///
    /// One refutation answers it: `¬wff` is certain exactly when no
    /// possible world satisfies `wff`. An inconsistent state has no
    /// world, so it makes `¬wff` (vacuously) certain and the answer is
    /// `false` without a separate consistency check.
    pub fn is_possible(&self, wff: &Wff) -> bool {
        let _sp = pwdb_trace::span!("hlu.query.possible", timer = "hlu.query.possible.wall");
        !self.backend.certain(&self.state, &wff.clone().not())
    }

    /// Whether any possible world remains.
    pub fn is_consistent(&self) -> bool {
        self.backend.consistent(&self.state)
    }

    /// The number of possible worlds over a universe of `n_atoms` atoms —
    /// the "amount of incompleteness" left in the database. Exact #SAT on
    /// the clausal backend; a popcount on the instance backend.
    pub fn world_count(&self, n_atoms: usize) -> u64 {
        self.backend.world_count(&self.state, n_atoms)
    }

    /// A savepoint capturing the current state (states are values; this
    /// is a cheap clone of the representation).
    pub fn savepoint(&self) -> Savepoint<B::State> {
        Savepoint {
            state: self.state.clone(),
            updates_run: self.updates_run,
            history_len: self.history.len(),
        }
    }

    /// Restores a previously taken savepoint. Statements run since the
    /// savepoint are dropped from the history.
    pub fn rollback_to(&mut self, savepoint: Savepoint<B::State>) {
        self.state = savepoint.state;
        self.updates_run = savepoint.updates_run;
        self.history.truncate(savepoint.history_len);
    }

    /// Checked [`Database::world_count`]: `u128`, and a typed
    /// [`LogicError::TooManyAtoms`] past the 64-atom packed-assignment
    /// limit instead of a panic.
    pub fn try_world_count(&self, n_atoms: usize) -> Result<u128, LogicError> {
        self.backend.try_world_count(&self.state, n_atoms)
    }

    /// Runs one statement under resource `limits`, transactionally.
    ///
    /// The statement executes with the execution governor installed: every
    /// unbounded worklist in the clausal engine (saturation, Tison's
    /// closure, DPLL, subsumption merges, genmask's truth table) charges
    /// steps against the budget and aborts by unwinding when it is
    /// exhausted, when the attached [`CancelToken`](pwdb_logic::CancelToken)
    /// fires, or when the engine panics. On **any** failure — budget,
    /// cancellation, engine panic, or the §1.3.3 consistency rejection —
    /// the database rolls back to its pre-statement savepoint
    /// bit-identically: state, update count, and history are exactly as
    /// before the call.
    ///
    /// Under [`Limits::unlimited()`] this is exactly the rejection
    /// discipline of §1.3.3: "the updated database is computed, and then
    /// checked for compliance with the integrity constraints. If those
    /// constraints are not satisfied, the update is rejected." In the
    /// incomplete-information reading, an update whose result has **no**
    /// possible world left is rejected.
    pub fn run_governed(
        &mut self,
        prog: &HluProgram,
        limits: &Limits,
    ) -> Result<(), GovernedError> {
        counter!("governor.stmt.total").inc();
        let sp = pwdb_trace::span!("governor.stmt");
        let saved = self.savepoint();
        let result = {
            let this = &mut *self;
            pwdb_logic::govern(limits, move || {
                this.run(prog);
                this.backend.consistent(&this.state)
            })
        };
        sp.attr("steps", governor::last_spent());
        match result {
            Ok(true) => {
                counter!("governor.stmt.committed").inc();
                sp.attr("outcome", "committed");
                Ok(())
            }
            Ok(false) => {
                self.rollback_to(saved);
                counter!("governor.stmt.rejected").inc();
                sp.attr("outcome", "rejected");
                Err(GovernedError::Rejected)
            }
            Err(e) => {
                self.rollback_to(saved);
                match &e {
                    ExecError::BudgetExceeded { .. } => {
                        counter!("governor.stmt.budget_exceeded").inc()
                    }
                    ExecError::Cancelled => counter!("governor.stmt.cancelled").inc(),
                    ExecError::EnginePanic { .. } => counter!("governor.stmt.panicked").inc(),
                }
                sp.attr("outcome", governed_outcome(&e));
                Err(GovernedError::Exec(e))
            }
        }
    }
}

/// The static span-attribute label for a governed failure.
fn governed_outcome(e: &ExecError) -> &'static str {
    match e {
        ExecError::BudgetExceeded { .. } => "budget-exceeded",
        ExecError::Cancelled => "cancelled",
        ExecError::EnginePanic { .. } => "engine-panic",
    }
}

/// The `hlu.stmt.<kind>` span for [`Database::run`], timed by the timer
/// of the same name: its count is the statement mix, its total the time
/// per kind.
fn stmt_span(prog: &HluProgram) -> pwdb_trace::SpanGuard {
    macro_rules! timed {
        ($name:literal) => {
            pwdb_trace::span!($name, timer = $name)
        };
    }
    match prog {
        HluProgram::Identity => timed!("hlu.stmt.identity"),
        HluProgram::Assert(_) => timed!("hlu.stmt.assert"),
        HluProgram::Clear(_) => timed!("hlu.stmt.clear"),
        HluProgram::Insert(_) => timed!("hlu.stmt.insert"),
        HluProgram::Delete(_) => timed!("hlu.stmt.delete"),
        HluProgram::Modify(_, _) => timed!("hlu.stmt.modify"),
        HluProgram::Where(_, _, _) => timed!("hlu.stmt.where"),
    }
}

/// The result of `EXPLAIN` ([`Explanation::capture`]): the statement, its
/// BLU compilation, the parameter bindings, and the recorded execution
/// trace.
#[derive(Debug, Clone)]
pub struct Explanation {
    /// The HLU statement as written.
    pub statement: String,
    /// The compiled BLU lambda (Definitions 3.1.2, 3.2.3/3.2.4).
    pub compiled: String,
    /// Rendered parameter bindings `s1 = …`, in order.
    pub args: Vec<String>,
    /// The recorded span tree.
    pub trace: pwdb_trace::Trace,
    /// Governed runs record what happened — `"committed"` or the error
    /// rendering (budget exceeded, cancelled, rejected, engine panic, a
    /// failed durable commit); see [`Explanation::with_outcome`]. `None`
    /// for an ungoverned run.
    pub outcome: Option<String>,
}

impl Explanation {
    /// `EXPLAIN`: calls `run` — whatever update of `prog` the caller makes:
    /// [`Database::run`], [`Database::run_governed`], or a durable commit —
    /// while recording its full execution trace: the HLU→BLU translation
    /// tree, every BLU primitive invoked (with clause counts and the
    /// theorem's dominant cost term), and the logic-layer work underneath.
    /// The update is applied exactly as `run` applies it; only the
    /// observation differs. Returns the explanation together with what
    /// `run` returned.
    pub fn capture<R>(prog: &HluProgram, run: impl FnOnce() -> R) -> (Explanation, R) {
        let compiled = compile(prog);
        let (result, trace) = pwdb_trace::capture(run);
        let args = compiled
            .args
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let value = match a {
                    ArgValue::State(w) => w.to_string(),
                    ArgValue::Mask(m) => {
                        let names: Vec<String> =
                            m.iter().map(|a| format!("A{}", a.index() + 1)).collect();
                        format!("[{}]", names.join(" "))
                    }
                };
                format!("s{} = {value}", i + 1)
            })
            .collect();
        let explanation = Explanation {
            statement: prog.to_string(),
            compiled: compiled.program.to_string(),
            args,
            trace,
            outcome: None,
        };
        (explanation, result)
    }

    /// Records how a governed run ended: `"committed"`, or the error — so
    /// a budget-exceeded `EXPLAIN` still shows how far execution got and
    /// why it stopped.
    pub fn with_outcome<E: std::fmt::Display>(mut self, result: &Result<(), E>) -> Explanation {
        self.outcome = Some(match result {
            Ok(()) => "committed".to_owned(),
            Err(e) => e.to_string(),
        });
        self
    }

    /// Renders the full explanation as the HLU shell prints it.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("statement: {}\n", self.statement));
        out.push_str(&format!("compiled:  {}\n", self.compiled));
        for a in &self.args {
            out.push_str(&format!("  with {a}\n"));
        }
        if let Some(outcome) = &self.outcome {
            out.push_str(&format!("outcome:   {outcome}\n"));
        }
        out.push_str("trace:\n");
        out.push_str(&self.trace.render_tree());
        out
    }
}

impl std::fmt::Display for Explanation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

/// Why a [`Database::run_governed`] statement did not commit. In every
/// case the database was rolled back to its pre-statement savepoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernedError {
    /// The governor aborted execution: budget exhausted, cancel token
    /// fired, or the engine panicked (isolated by `catch_unwind`).
    Exec(ExecError),
    /// The §1.3.3 consistency check rejected the result.
    Rejected,
}

impl std::fmt::Display for GovernedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GovernedError::Exec(e) => e.fmt(f),
            GovernedError::Rejected => write!(
                f,
                "update rejected: no possible world satisfies the constraints"
            ),
        }
    }
}

impl std::error::Error for GovernedError {}

impl From<ExecError> for GovernedError {
    fn from(e: ExecError) -> Self {
        GovernedError::Exec(e)
    }
}

/// A captured database state for [`Database::rollback_to`].
#[derive(Debug, Clone)]
pub struct Savepoint<S> {
    state: S,
    updates_run: usize,
    history_len: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::{parse_wff, AtomTable};

    fn wff(n: usize, text: &str) -> Wff {
        let mut t = AtomTable::with_indexed_atoms(n);
        parse_wff(text, &mut t).unwrap()
    }

    #[test]
    fn clausal_insert_then_query() {
        let mut db = ClausalDatabase::new();
        db.insert(wff(2, "A1 | A2"));
        assert!(db.is_certain(&wff(2, "A1 | A2")));
        assert!(!db.is_certain(&wff(2, "A1")));
        assert!(db.is_possible(&wff(2, "A1")));
        assert!(db.is_consistent());
    }

    #[test]
    fn instance_matches_clausal_on_script() {
        let script = [
            HluProgram::Insert(wff(3, "A1 | A2")),
            HluProgram::Assert(wff(3, "A3")),
            HluProgram::Delete(wff(3, "A2")),
            HluProgram::where1(wff(3, "A3"), HluProgram::Insert(wff(3, "A1"))),
        ];
        let mut cdb = ClausalDatabase::new();
        let mut idb = InstanceDatabase::with_atoms(3);
        for p in &script {
            cdb.run(p);
            idb.run(p);
        }
        // The possible worlds must agree.
        let from_clauses = WorldSet::from_clauses(3, cdb.state());
        assert_eq!(&from_clauses, idb.state());
        for q in ["A1", "A2", "A3", "A1 & A3", "A1 | !A2"] {
            let q = wff(3, q);
            assert_eq!(cdb.is_certain(&q), idb.is_certain(&q), "query {q}");
        }
    }

    #[test]
    fn insert_overwrites_prior_knowledge_of_dependent_atoms() {
        // The mask–assert paradigm: inserting ¬A1 after A1 must not be
        // inconsistent — the mask first forgets A1.
        let mut db = ClausalDatabase::new();
        db.insert(wff(1, "A1"));
        assert!(db.is_certain(&wff(1, "A1")));
        db.insert(wff(1, "!A1"));
        assert!(db.is_consistent());
        assert!(db.is_certain(&wff(1, "!A1")));
    }

    #[test]
    fn assert_can_create_inconsistency() {
        // assert is raw intersection: no masking, so contradiction empties
        // the world set.
        let mut db = InstanceDatabase::with_atoms(1);
        db.assert_wff(wff(1, "A1"));
        db.assert_wff(wff(1, "!A1"));
        assert!(!db.is_consistent());
        assert!(!db.is_possible(&wff(1, "A1")));
    }

    #[test]
    fn delete_makes_formula_false() {
        let mut db = ClausalDatabase::new();
        db.insert(wff(2, "A1 & A2"));
        db.delete(wff(2, "A1"));
        assert!(db.is_certain(&wff(2, "!A1")));
        // A2 is untouched by the delete of A1.
        assert!(db.is_certain(&wff(2, "A2")));
    }

    #[test]
    fn clear_forgets() {
        let mut db = ClausalDatabase::new();
        db.insert(wff(2, "A1 & A2"));
        db.clear([AtomId(0)]);
        assert!(!db.is_certain(&wff(2, "A1")));
        assert!(db.is_possible(&wff(2, "A1")));
        assert!(db.is_certain(&wff(2, "A2")));
    }

    #[test]
    fn modify_moves_conditionally() {
        let mut db = InstanceDatabase::with_atoms(2);
        db.insert(wff(2, "A1"));
        db.delete(wff(2, "A2"));
        db.modify(wff(2, "A1"), wff(2, "A2"));
        assert!(db.is_certain(&wff(2, "!A1 & A2")));
    }

    #[test]
    fn modify_when_condition_unknown_splits() {
        let mut db = InstanceDatabase::with_atoms(2);
        db.delete(wff(2, "A2"));
        // A1 unknown: modify must leave both alternatives.
        db.modify(wff(2, "A1"), wff(2, "A2"));
        assert!(db.is_possible(&wff(2, "A2")));
        assert!(db.is_possible(&wff(2, "!A2 & !A1")));
        // In every world where A2 ended up true, A1 is now false.
        assert!(db.is_certain(&wff(2, "A2 -> !A1")));
    }

    #[test]
    fn where_splits_and_combines() {
        // Example 3.2.5's program shape: (where {A5} (insert {A1 ∨ A2})).
        let mut db = InstanceDatabase::with_atoms(3);
        db.run(&HluProgram::where1(
            wff(3, "A3"),
            HluProgram::Insert(wff(3, "A1 | A2")),
        ));
        // Worlds with A3 got the insertion; worlds without A3 kept
        // everything.
        assert!(db.is_certain(&wff(3, "A3 -> (A1 | A2)")));
        assert!(db.is_possible(&wff(3, "!A3 & !A1 & !A2")));
    }

    #[test]
    fn constraints_enforced_after_updates() {
        let mut db = InstanceDatabase::with_atoms(2).with_constraints(wff(2, "A1 -> A2"));
        db.insert(wff(2, "A1"));
        assert!(db.is_certain(&wff(2, "A2")));
        assert_eq!(db.updates_run(), 1);
    }

    #[test]
    fn inconsistent_state_has_nothing_possible() {
        let mut db = ClausalDatabase::new();
        db.assert_wff(wff(1, "A1"));
        db.assert_wff(wff(1, "!A1"));
        assert!(!db.is_consistent());
        assert!(!db.is_possible(&wff(1, "A1 | !A1")));
        // But everything is (vacuously) certain.
        assert!(db.is_certain(&wff(1, "A1 & !A1")));
    }

    #[test]
    fn world_count_matches_across_backends() {
        let script = [
            HluProgram::Insert(wff(3, "A1 | A2")),
            HluProgram::Delete(wff(3, "A3")),
            HluProgram::where1(wff(3, "A1"), HluProgram::Insert(wff(3, "A3"))),
        ];
        let mut cdb = ClausalDatabase::new();
        let mut idb = InstanceDatabase::with_atoms(3);
        for p in &script {
            cdb.run(p);
            idb.run(p);
            assert_eq!(cdb.world_count(3), idb.world_count(3));
        }
        assert!(cdb.world_count(3) > 0);
    }

    #[test]
    fn reduced_backend_agrees_and_shrinks() {
        let script = [
            HluProgram::Insert(wff(3, "A1 | A2")),
            HluProgram::where1(wff(3, "A3"), HluProgram::Insert(wff(3, "A1"))),
            HluProgram::Delete(wff(3, "A2")),
        ];
        let mut plain = ClausalDatabase::new();
        let mut reduced = ClausalDatabase::new_reduced();
        for p in &script {
            plain.run(p);
            reduced.run(p);
            assert_eq!(
                WorldSet::from_clauses(3, plain.state()),
                WorldSet::from_clauses(3, reduced.state())
            );
        }
        assert!(reduced.state().len() <= plain.state().len());
    }

    #[test]
    fn world_count_of_fresh_database_is_full() {
        let db = ClausalDatabase::new();
        assert_eq!(db.world_count(5), 32);
        let idb = InstanceDatabase::with_atoms(4);
        assert_eq!(idb.world_count(4), 16);
    }

    #[test]
    fn unlimited_run_governed_rejects_and_restores_on_inconsistency() {
        let mut db = InstanceDatabase::with_atoms(2).with_constraints(wff(2, "A1 -> A2"));
        db.insert(wff(2, "A1"));
        let before = db.state().clone();
        let n = db.updates_run();
        // assert ¬A2 contradicts A1→A2 ∧ A1: every world dies → rejected.
        let err = db
            .run_governed(&HluProgram::Assert(wff(2, "!A2")), &Limits::unlimited())
            .unwrap_err();
        assert_eq!(err, GovernedError::Rejected);
        assert_eq!(
            err.to_string(),
            "update rejected: no possible world satisfies the constraints"
        );
        assert_eq!(db.state(), &before);
        assert_eq!(db.updates_run(), n);
        // A compatible update goes through.
        db.run_governed(&HluProgram::Assert(wff(2, "A2")), &Limits::unlimited())
            .unwrap();
    }

    #[test]
    fn savepoint_rollback() {
        let mut db = ClausalDatabase::new();
        db.insert(wff(2, "A1"));
        let sp = db.savepoint();
        db.insert(wff(2, "!A1"));
        assert!(db.is_certain(&wff(2, "!A1")));
        db.rollback_to(sp);
        assert!(db.is_certain(&wff(2, "A1")));
        assert_eq!(db.updates_run(), 1);
    }

    #[test]
    fn normalize_canonicalizes_equivalent_states() {
        // Two different scripts reaching the same possible worlds
        // normalize to identical clause sets.
        let mut a = ClausalDatabase::new();
        a.insert(wff(3, "A1 | A2"));
        a.assert_wff(wff(3, "!A2 | A1"));
        let mut b = ClausalDatabase::new();
        b.insert(wff(3, "A1"));
        assert_ne!(a.state(), b.state());
        assert_eq!(
            WorldSet::from_clauses(3, a.state()),
            WorldSet::from_clauses(3, b.state())
        );
        a.normalize();
        b.normalize();
        assert_eq!(a.state(), b.state());
        // Normalization preserves the worlds.
        assert_eq!(
            WorldSet::from_clauses(3, a.state()),
            WorldSet::from_wff(3, &wff(3, "A1"))
        );
    }

    #[test]
    fn history_derives_the_state() {
        let mut db = ClausalDatabase::new();
        db.insert(wff(3, "A1 | A2"));
        db.delete(wff(3, "A3"));
        db.run(&HluProgram::where1(
            wff(3, "A1"),
            HluProgram::Insert(wff(3, "A3")),
        ));
        assert_eq!(db.history().len(), 3);
        assert_eq!(db.history().len(), db.updates_run());

        // Replaying the history on a fresh database reproduces the state.
        let mut replay = ClausalDatabase::new();
        for p in db.history().to_vec() {
            replay.run(&p);
        }
        assert_eq!(replay.state(), db.state());
    }

    #[test]
    fn history_excises_rejections_and_rollbacks() {
        let mut db = InstanceDatabase::with_atoms(2).with_constraints(wff(2, "A1 -> A2"));
        db.insert(wff(2, "A1"));
        db.run_governed(&HluProgram::Assert(wff(2, "!A2")), &Limits::unlimited())
            .unwrap_err();
        assert_eq!(db.history().len(), 1);

        // A caller-side bundle: two statements undone together.
        let sp = db.savepoint();
        db.insert(wff(2, "!A1"));
        db.delete(wff(2, "A2"));
        assert_eq!(db.history().len(), 3);
        db.rollback_to(sp);
        assert_eq!(db.history().len(), 1);
        assert_eq!(db.history()[0], HluProgram::Insert(wff(2, "A1")));
    }

    #[test]
    fn set_state_clears_history() {
        let mut db = ClausalDatabase::new();
        db.insert(wff(2, "A1"));
        db.set_state(pwdb_logic::ClauseSet::new());
        assert!(db.history().is_empty());
    }

    #[test]
    fn set_state_replaces() {
        let mut db = ClausalDatabase::new();
        db.set_state(pwdb_logic::ClauseSet::contradiction());
        assert!(!db.is_consistent());
    }

    #[test]
    fn run_governed_commits_within_budget() {
        let mut db = ClausalDatabase::new();
        let limits = Limits::budget(pwdb_logic::Budget::steps(1_000_000));
        db.run_governed(&HluProgram::Insert(wff(2, "A1 | A2")), &limits)
            .unwrap();
        assert!(db.is_certain(&wff(2, "A1 | A2")));
        assert_eq!(db.updates_run(), 1);
        assert_eq!(db.history().len(), 1);
    }

    #[test]
    fn run_governed_rolls_back_on_budget_exhaustion() {
        let mut db = ClausalDatabase::new();
        db.insert(wff(3, "A1 | A2"));
        let before_state = db.state().clone();
        let before_hist = db.history().to_vec();
        // A budget of one step cannot even insert the parameter.
        let limits = Limits::budget(pwdb_logic::Budget::steps(1));
        let err = db
            .run_governed(&HluProgram::Insert(wff(3, "A2 | A3")), &limits)
            .unwrap_err();
        assert!(matches!(
            err,
            GovernedError::Exec(ExecError::BudgetExceeded {
                resource: pwdb_logic::Resource::Steps,
                ..
            })
        ));
        assert_eq!(db.state(), &before_state);
        assert_eq!(db.history(), &before_hist[..]);
        assert_eq!(db.updates_run(), 1);
    }

    #[test]
    fn run_governed_rejects_inconsistency_transactionally() {
        let mut db = ClausalDatabase::new();
        db.insert(wff(1, "A1"));
        let before = db.state().clone();
        let limits = Limits::budget(pwdb_logic::Budget::steps(1_000_000));
        let err = db
            .run_governed(&HluProgram::Assert(wff(1, "!A1")), &limits)
            .unwrap_err();
        assert_eq!(err, GovernedError::Rejected);
        assert_eq!(db.state(), &before);
        assert_eq!(db.updates_run(), 1);
    }

    #[test]
    fn run_governed_cancelled_token_short_circuits() {
        let mut db = ClausalDatabase::new();
        let token = pwdb_logic::CancelToken::new();
        token.cancel();
        let limits = Limits::unlimited().with_cancel(token);
        let err = db
            .run_governed(&HluProgram::Insert(wff(1, "A1")), &limits)
            .unwrap_err();
        assert_eq!(err, GovernedError::Exec(ExecError::Cancelled));
        assert_eq!(db.updates_run(), 0);
    }

    #[test]
    fn explanation_records_outcome_both_ways() {
        let mut db = ClausalDatabase::new();
        let ok_limits = Limits::budget(pwdb_logic::Budget::steps(1_000_000));
        let insert = HluProgram::Insert(wff(2, "A1"));
        let (exp, result) = Explanation::capture(&insert, || db.run_governed(&insert, &ok_limits));
        assert!(result.is_ok());
        assert_eq!(
            exp.with_outcome(&result).outcome.as_deref(),
            Some("committed")
        );

        let tight = Limits::budget(pwdb_logic::Budget::steps(1));
        let before = db.state().clone();
        let insert = HluProgram::Insert(wff(2, "A2"));
        let (exp, result) = Explanation::capture(&insert, || db.run_governed(&insert, &tight));
        assert!(result.is_err());
        let exp = exp.with_outcome(&result);
        assert!(exp.render().contains("outcome:"), "render shows outcome");
        let outcome = exp.outcome.unwrap();
        assert!(outcome.contains("budget exceeded"), "{outcome}");
        assert_eq!(db.state(), &before);

        // An ungoverned run records no outcome.
        let insert = HluProgram::Insert(wff(2, "A2"));
        let (exp, ()) = Explanation::capture(&insert, || db.run(&insert));
        assert_eq!(exp.outcome, None);
        assert!(!exp.render().contains("outcome:"));
        assert_eq!(exp.statement, "(insert {A2})");
        assert_eq!(db.updates_run(), 2);
    }

    #[test]
    fn try_world_count_boundary() {
        let db = ClausalDatabase::new();
        assert_eq!(db.try_world_count(64).unwrap(), 1u128 << 64);
        assert!(matches!(
            db.try_world_count(65),
            Err(LogicError::TooManyAtoms {
                requested: 65,
                max: 64
            })
        ));
        let idb = InstanceDatabase::with_atoms(4);
        assert_eq!(idb.try_world_count(4).unwrap(), 16);
        assert!(idb.try_world_count(5).is_err());
    }
}
