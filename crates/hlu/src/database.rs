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
//!
//! The clausal database remembers what has been proven about its current
//! state — literals shown certain and models found by earlier solves,
//! starting with the model of the commit's own consistency check — and
//! answers a conjunction or disjunction of literals from that memo when it
//! decides the query (see [`Database::is_certain`]).

use std::cell::Cell;
use std::collections::BTreeSet;

use pwdb_blu::{run_program, BluClausal, BluInstance, BluSemantics, Value};
use pwdb_logic::dpll::SatResult;
use pwdb_logic::{
    cnf_of, engine_mode, governor, Assignment, AtomId, Clause, ClauseSet, EngineMode, ExecError,
    Limits, Literal, LogicError, Solver, Wff, MAX_ATOMS,
};
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
    /// `n_atoms` atoms: `u128` so the full `2^64` of an empty 64-atom
    /// state is representable, `TooManyAtoms` past the packed-assignment
    /// limit instead of a panic.
    fn try_world_count(&self, state: &Self::State, n_atoms: usize) -> Result<u128, LogicError>;
    /// The state as a clause set, when the backend keeps it as one. Only
    /// such a state gets the database's per-state query memo.
    fn clauses(_state: &Self::State) -> Option<&ClauseSet> {
        None
    }
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

    fn try_world_count(&self, state: &ClauseSet, n_atoms: usize) -> Result<u128, LogicError> {
        pwdb_logic::try_count_models(state, n_atoms)
    }

    fn clauses(state: &ClauseSet) -> Option<&ClauseSet> {
        Some(state)
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
    /// What has been proven about `state`; replaced with it, by
    /// [`Database::assign`] only.
    memo: Cell<Memo>,
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
            memo: Cell::new(Self::unproven(&state)),
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
        let state = self.backend.op_assert(&self.state, &lowered);
        self.assign(state, None);
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
        self.assign(state, None);
        self.history.clear();
    }

    /// The one place the state changes: `state` becomes current together
    /// with `memo`, what its computation proved about it (an empty memo
    /// when `None`), so no memo outlives its state.
    fn assign(&mut self, state: B::State, memo: Option<Memo>) {
        self.memo
            .set(memo.unwrap_or_else(|| Self::unproven(&state)));
        self.state = state;
    }

    /// The empty memo of `state`: nothing proven about it yet.
    fn unproven(state: &B::State) -> Memo {
        Memo::empty(B::clauses(state).map_or(usize::MAX, ClauseSet::atom_bound))
    }

    /// Number of HLU programs run so far.
    pub fn updates_run(&self) -> usize {
        self.updates_run
    }

    /// Every program applied so far, in order — the database's statement
    /// history. Failed [`Database::run_governed`] statements never enter
    /// it, so the history always *derives* the current state from the
    /// initial one (replaying it on a fresh database reproduces `state()`
    /// exactly). [`Database::set_state`] breaks that derivation and clears
    /// the history.
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
    /// morphism, applied as is: ungoverned, and installed even when it
    /// leaves no possible world (an inconsistent `assert`). Replay and the
    /// oracles use it; [`Database::run_governed`] is the checked path.
    pub fn run(&mut self, prog: &HluProgram) {
        let next = self.next_state(prog);
        self.install(prog, next, None);
    }

    /// The state `prog` maps the current state to, with the constraints
    /// asserted. The database itself is untouched.
    pub(crate) fn next_state(&self, prog: &HluProgram) -> B::State {
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
        let next = run_program(&self.backend, &compiled.program, args)
            .expect("compiled programs bind all parameters");
        match &self.constraints {
            Some(con) => {
                let _sp = pwdb_trace::span!("hlu.constraints", timer = "hlu.constraints.wall");
                self.backend.op_assert(&next, con)
            }
            None => next,
        }
    }

    /// Makes `next`, computed by [`Database::next_state`] from the current
    /// state, the current state with `memo` (what its check proved, if it
    /// was checked), and records `prog` as its cause.
    pub(crate) fn install(&mut self, prog: &HluProgram, next: B::State, memo: Option<Memo>) {
        self.assign(next, memo);
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
    ///
    /// On the clausal backend a literal, a conjunction of literals or a
    /// disjunction of literals (negations pushed inward) over atoms below
    /// 64 is answered from the state's memo when it decides the query:
    /// a remembered model falsifying a conjunct (or every disjunct) makes
    /// the answer `false`, conjuncts (or a disjunct) already proven certain
    /// make it `true`. Otherwise one assumption-based solve answers it, and
    /// its model or its proven literals go back into the memo. The memo
    /// starts with the model the §1.3.3 check of
    /// [`Database::run_governed`] found. Every other query, a state over
    /// more than 64 atoms, and every query under [`EngineMode::Naive`]
    /// take one refutation of `state ∧ ¬wff`, without the memo.
    pub fn is_certain(&self, wff: &Wff) -> bool {
        let _sp = pwdb_trace::span!("hlu.query.certain", timer = "hlu.query.certain.wall");
        self.certain(wff, false)
    }

    /// Whether `wff` holds in at least one possible world.
    ///
    /// It is `¬certain(¬wff)`: `¬wff` is certain exactly when no possible
    /// world satisfies `wff`, answered as [`Database::is_certain`] answers
    /// it, memo included. An inconsistent state has no world, so it makes
    /// `¬wff` (vacuously) certain and the answer is `false` without a
    /// separate consistency check.
    pub fn is_possible(&self, wff: &Wff) -> bool {
        let _sp = pwdb_trace::span!("hlu.query.possible", timer = "hlu.query.possible.wall");
        !self.certain(wff, true)
    }

    /// Whether `wff` (`¬wff` when `negate`) holds in every possible world:
    /// from the memo when the query's shape allows, else by refutation.
    fn certain(&self, wff: &Wff, negate: bool) -> bool {
        if let (Some((clauses, mut memo)), Some(query)) =
            (self.usable_memo(), LiteralQuery::of(wff, negate))
        {
            let answer = memo.certain(clauses, query);
            self.memo.set(memo);
            return answer;
        }
        if negate {
            self.backend.certain(&self.state, &wff.clone().not())
        } else {
            self.backend.certain(&self.state, wff)
        }
    }

    /// Whether any possible world remains: `true` without a solve when the
    /// memo holds a model, otherwise one solve whose model is remembered.
    pub fn is_consistent(&self) -> bool {
        let Some((clauses, mut memo)) = self.usable_memo() else {
            return self.backend.consistent(&self.state);
        };
        if memo.len > 0 {
            counter!("hlu.query.memo.hits").inc();
            return true;
        }
        let SatResult::Sat(model) = Solver::new(clauses, 0).solve() else {
            return false;
        };
        memo.record(model);
        self.memo.set(memo);
        true
    }

    /// The state's clauses and memo, when the memo may be read and
    /// written: a clausal state over at most 64 atoms, outside
    /// [`EngineMode::Naive`] (so the naive engine's answers stay an
    /// independent oracle).
    fn usable_memo(&self) -> Option<(&ClauseSet, Memo)> {
        let clauses = B::clauses(&self.state)?;
        let memo = self.memo.get();
        (memo.bound <= MAX_ATOMS && engine_mode() != EngineMode::Naive).then_some((clauses, memo))
    }

    /// The number of possible worlds over a universe of `n_atoms` atoms —
    /// the "amount of incompleteness" left in the database. Exact #SAT on
    /// the clausal backend; a popcount on the instance backend. A `u128`,
    /// and a typed [`LogicError::TooManyAtoms`] past the 64-atom
    /// packed-assignment limit instead of a panic.
    pub fn try_world_count(&self, n_atoms: usize) -> Result<u128, LogicError> {
        self.backend.try_world_count(&self.state, n_atoms)
    }

    /// Runs one statement under resource `limits`, and installs its result
    /// only if it is consistent.
    ///
    /// The next state is computed with the execution governor installed:
    /// every unbounded worklist in the clausal engine (saturation, Tison's
    /// closure, DPLL, subsumption merges, genmask's truth table) charges
    /// steps against the budget and aborts by unwinding when it is
    /// exhausted or when the engine panics. Nothing is assigned until the
    /// computation has finished and passed the check, so on **any** failure
    /// — budget, engine panic, or the §1.3.3 consistency rejection — state,
    /// update count, and history are exactly as before the call.
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
        let (next, memo) = self.checked_next_state(prog, limits)?;
        self.install(prog, next, Some(memo));
        Ok(())
    }

    /// [`Database::next_state`] under `limits`, followed by the §1.3.3
    /// consistency check: the result [`Database::run_governed`] installs,
    /// with its memo seeded by the model the check found.
    pub(crate) fn checked_next_state(
        &self,
        prog: &HluProgram,
        limits: &Limits,
    ) -> Result<(B::State, Memo), GovernedError> {
        counter!("governor.stmt.total").inc();
        let sp = pwdb_trace::span!("governor.stmt");
        let result = pwdb_logic::govern(limits, || {
            let next = self.next_state(prog);
            let memo = self.consistency_check(&next);
            (next, memo)
        });
        sp.attr("steps", governor::last_spent());
        let (outcome, result) = match result {
            Ok((next, Some(memo))) => {
                counter!("governor.stmt.committed").inc();
                ("committed", Ok((next, memo)))
            }
            Ok((_, None)) => {
                counter!("governor.stmt.rejected").inc();
                ("rejected", Err(GovernedError::Rejected))
            }
            Err(e @ ExecError::BudgetExceeded { .. }) => {
                counter!("governor.stmt.budget_exceeded").inc();
                ("budget-exceeded", Err(GovernedError::Exec(e)))
            }
            Err(e @ ExecError::EnginePanic { .. }) => {
                counter!("governor.stmt.panicked").inc();
                ("engine-panic", Err(GovernedError::Exec(e)))
            }
        };
        sp.attr("outcome", outcome);
        result
    }

    /// §1.3.3's check: `None` when `state` has no possible world, else its
    /// memo, holding the model the check's solve found.
    fn consistency_check(&self, state: &B::State) -> Option<Memo> {
        let Some(clauses) = B::clauses(state) else {
            return self
                .backend
                .consistent(state)
                .then(|| Self::unproven(state));
        };
        let solver = Solver::new(clauses, 0);
        let SatResult::Sat(model) = solver.solve() else {
            return None;
        };
        let mut memo = Memo::empty(solver.n_atoms());
        if memo.bound <= MAX_ATOMS && engine_mode() != EngineMode::Naive {
            memo.record(model);
        }
        Some(memo)
    }
}

/// Models a [`Memo`] keeps; a new one overwrites the oldest.
const MEMO_MODELS: usize = 16;

/// What has been proven about one clausal state: the literals shown
/// certain and up to [`MEMO_MODELS`] of its models. Inline and `Copy`, so
/// replacing it with the state allocates nothing.
///
/// Literal sets are `u128` bitsets over atoms below 64: bit `a` stands for
/// the literal `A(a+1)`, bit `64 + a` for its negation. A model is packed
/// as [`Assignment::bits`]; an atom it leaves out is false, which is a
/// valid completion, since DPLL reports a model only once every clause is
/// satisfied and the state does not mention atoms past its bound.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Memo {
    /// The state's atom bound; past 64 a model does not fit a word and the
    /// memo is not used.
    bound: usize,
    /// Literals true in every model of the state.
    certain: u128,
    /// A ring of models of the state: the first `len` slots are filled,
    /// and `next` is the slot the next model overwrites.
    models: [u64; MEMO_MODELS],
    len: u8,
    next: u8,
}

impl Memo {
    /// Nothing proven yet about a state of atom bound `bound`.
    fn empty(bound: usize) -> Memo {
        Memo {
            bound,
            certain: 0,
            models: [0; MEMO_MODELS],
            len: 0,
            next: 0,
        }
    }

    /// Remembers `model`, overwriting the oldest when the ring is full.
    fn record(&mut self, model: Assignment) {
        self.models[self.next as usize] = model.bits();
        self.next = (self.next + 1) % MEMO_MODELS as u8;
        self.len = (self.len + 1).min(MEMO_MODELS as u8);
    }

    /// The literals each remembered model makes true.
    fn model_literals(&self) -> impl Iterator<Item = u128> + '_ {
        self.models[..self.len as usize]
            .iter()
            .map(|&m| m as u128 | (!m as u128) << 64)
    }

    /// Whether `query` holds in every model of `clauses`, the state: from
    /// the memo when it decides the query (counted in
    /// `hlu.query.memo.hits`), else by one solve whose result is
    /// remembered.
    fn certain(&mut self, clauses: &ClauseSet, query: LiteralQuery) -> bool {
        let lits = query.lits;
        let decided = if query.conj {
            if self.model_literals().any(|t| lits & !t != 0) {
                Some(false)
            } else {
                (lits & !self.certain == 0).then_some(true)
            }
        } else if lits & self.certain != 0 {
            Some(true)
        } else {
            self.model_literals()
                .any(|t| lits & t == 0)
                .then_some(false)
        };
        if let Some(answer) = decided {
            counter!("hlu.query.memo.hits").inc();
            return answer;
        }
        // A conjunction refutes `state ∧ (¬l₁ ∨ …)` over the conjuncts not
        // yet proven, which is unsatisfiable exactly when each of them is
        // certain; a disjunction solves under the assumptions `¬lᵢ`.
        let (result, proven) = if query.conj {
            let open = lits & !self.certain;
            let refutation: Clause = literals(open).map(Literal::negated).collect();
            let mut solver = Solver::new(clauses, 0);
            solver.add_clause(&refutation);
            (solver.solve(), open)
        } else {
            let assumptions: Vec<Literal> = literals(lits).map(Literal::negated).collect();
            (Solver::new(clauses, 0).solve_with(&assumptions), 0)
        };
        match result {
            SatResult::Sat(model) => {
                self.record(model);
                false
            }
            SatResult::Unsat => {
                self.certain |= proven;
                true
            }
        }
    }
}

/// The literals of a memo literal set (see [`Memo`]).
fn literals(set: u128) -> impl Iterator<Item = Literal> {
    let mut rest = set;
    std::iter::from_fn(move || {
        (rest != 0).then(|| {
            let bit = rest.trailing_zeros();
            rest &= rest - 1;
            Literal::new(AtomId(bit % 64), bit < 64)
        })
    })
}

/// A query the memo can answer: a conjunction (`conj`) or a disjunction
/// of the literal set `lits` (see [`Memo`]). A single literal counts as a
/// conjunction.
#[derive(Debug, Clone, Copy)]
struct LiteralQuery {
    lits: u128,
    conj: bool,
}

impl LiteralQuery {
    /// `wff`, negated when `negate`, with negations pushed inward, when it
    /// is a literal or an `∧`-tree or `∨`-tree of literals over atoms
    /// below 64; `None` for any other shape.
    fn of(wff: &Wff, negate: bool) -> Option<LiteralQuery> {
        fn walk(w: &Wff, neg: bool, conj: &mut Option<bool>, lits: &mut u128) -> bool {
            match w {
                Wff::Atom(a) if a.index() < MAX_ATOMS => {
                    *lits |= 1 << (a.index() + if neg { 64 } else { 0 });
                    true
                }
                Wff::Not(inner) => walk(inner, !neg, conj, lits),
                Wff::And(l, r) | Wff::Or(l, r) => {
                    let is_conj = matches!(w, Wff::And(..)) != neg;
                    *conj.get_or_insert(is_conj) == is_conj
                        && walk(l, neg, conj, lits)
                        && walk(r, neg, conj, lits)
                }
                _ => false,
            }
        }
        let (mut conj, mut lits) = (None, 0);
        walk(wff, negate, &mut conj, &mut lits).then(|| LiteralQuery {
            lits,
            conj: conj.unwrap_or(true),
        })
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
    /// rendering (budget exceeded, rejected, engine panic, a
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
/// case nothing was installed: the database is as it was before the call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GovernedError {
    /// The governor aborted execution: the step budget ran out, or the
    /// engine panicked (isolated by `catch_unwind`).
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

#[cfg(test)]
mod tests {
    use super::*;
    use pwdb_logic::{parse_wff, with_engine, AtomTable};

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
            assert_eq!(cdb.try_world_count(3), idb.try_world_count(3));
        }
        assert!(cdb.try_world_count(3).unwrap() > 0);
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
        assert_eq!(db.try_world_count(5), Ok(32));
        let idb = InstanceDatabase::with_atoms(4);
        assert_eq!(idb.try_world_count(4), Ok(16));
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
        let before = db.clone();
        db.insert(wff(2, "!A1"));
        assert!(db.is_certain(&wff(2, "!A1")));
        db = before;
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

        // A caller-side bundle: two statements undone together by
        // restoring a clone taken before them.
        let before = db.clone();
        db.insert(wff(2, "!A1"));
        db.delete(wff(2, "A2"));
        assert_eq!(db.history().len(), 3);
        db = before;
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
            GovernedError::Exec(ExecError::BudgetExceeded { .. })
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

    /// The memo of `db`'s current state.
    fn memo(db: &ClausalDatabase) -> Memo {
        db.memo.get()
    }

    #[test]
    fn literal_query_shapes() {
        let q = |text: &str, negate: bool| {
            LiteralQuery::of(&wff(66, text), negate).map(|q| (q.lits, q.conj))
        };
        let (a1, a2, a3) = (1u128, 2u128, 4u128);
        let neg = |bits: u128| bits << 64;
        assert_eq!(q("A1", false), Some((a1, true)));
        assert_eq!(q("A1", true), Some((neg(a1), true)));
        assert_eq!(q("A1 & !A2 & A3", false), Some((a1 | neg(a2) | a3, true)));
        assert_eq!(
            q("A1 | (!A2 | A3)", false),
            Some((a1 | neg(a2) | a3, false))
        );
        // `is_possible`'s negation, and any inner one, is pushed inward.
        assert_eq!(q("A1 & !A2", true), Some((neg(a1) | a2, false)));
        assert_eq!(
            q("!(A1 | A2) & !A3", false),
            Some((neg(a1 | a2 | a3), true))
        );
        assert_eq!(q("A64", false), Some((1 << 63, true)));
        for other in [
            "A1 & (A2 | A3)",
            "A1 -> A2",
            "A1 <-> A2",
            "1",
            "A1 & 0",
            "A65",
        ] {
            assert_eq!(q(other, false), None, "{other}");
        }
    }

    #[test]
    fn governed_commit_seeds_the_memo_and_every_other_assignment_empties_it() {
        with_engine(EngineMode::Indexed, || {
            let mut db = ClausalDatabase::new();
            let limits = Limits::unlimited();
            db.run_governed(&HluProgram::Insert(wff(3, "A1 | A2")), &limits)
                .unwrap();
            let seeded = memo(&db);
            assert_eq!((seeded.len, seeded.bound), (1, 2));
            let model = Assignment::from_bits(seeded.models[0], 3);
            assert!(db.state().eval(&model), "the seed is a model of the state");

            // A rejected statement leaves state and memo as they were.
            let rejected = HluProgram::Assert(wff(3, "!A1 & !A2"));
            assert_eq!(
                db.run_governed(&rejected, &limits),
                Err(GovernedError::Rejected)
            );
            assert_eq!(memo(&db).models, seeded.models);

            db.run(&HluProgram::Insert(wff(3, "A3")));
            assert_eq!((memo(&db).len, memo(&db).bound), (0, 3));
            assert!(db.is_certain(&wff(3, "A3")));
            assert_ne!(memo(&db).certain, 0);
            db.set_state(ClauseSet::new());
            assert_eq!((memo(&db).len, memo(&db).certain), (0, 0));
            assert!(db.is_consistent());
            assert_eq!(memo(&db).len, 1, "a consistency solve leaves its model");
            let db = db.with_constraints(wff(3, "A1"));
            assert_eq!((memo(&db).len, memo(&db).bound), (0, 1));
        });
    }

    #[test]
    fn memo_rules_answer_and_record() {
        with_engine(EngineMode::Indexed, || {
            let mut db = ClausalDatabase::new();
            db.run_governed(
                &HluProgram::Insert(wff(4, "A1 & A2 & (A3 | A4)")),
                &Limits::unlimited(),
            )
            .unwrap();
            // A conjunction proven by one solve records each conjunct.
            assert!(db.is_certain(&wff(4, "A1 & A2")));
            assert_eq!(memo(&db).certain, 0b11);
            // Then each conjunct, and any disjunction holding one, is certain
            // from the memo, without a model being added.
            let len = memo(&db).len;
            assert!(db.is_certain(&wff(4, "A2")));
            assert!(db.is_certain(&wff(4, "!A4 | A1")));
            assert!(!db.is_possible(&wff(4, "!A1")));
            assert_eq!(memo(&db).len, len);
            // A failed refutation leaves its model: `A3` is not certain,
            // and the model falsifying it refutes `A3 & A1` and `A3 | A3`.
            assert!(!db.is_certain(&wff(4, "A3")));
            assert_eq!(memo(&db).len, len + 1);
            assert!(!db.is_certain(&wff(4, "A3 & A1")));
            assert!(!db.is_certain(&wff(4, "A3 | A3")));
            assert_eq!(memo(&db).len, len + 1);
            assert!(db.is_certain(&wff(4, "A3 | A4")));
        });
    }

    #[test]
    fn the_ring_keeps_the_newest_models() {
        let mut memo = Memo::empty(8);
        for bits in 0..(MEMO_MODELS as u64 + 3) {
            memo.record(Assignment::from_bits(bits, 8));
        }
        assert_eq!(memo.len as usize, MEMO_MODELS);
        let mut kept = memo.models.to_vec();
        kept.sort_unstable();
        assert_eq!(kept, (3..MEMO_MODELS as u64 + 3).collect::<Vec<_>>());
    }

    #[test]
    fn naive_engine_neither_reads_nor_writes_the_memo() {
        let mut db = ClausalDatabase::new();
        let seeded = with_engine(EngineMode::Indexed, || {
            db.run_governed(&HluProgram::Insert(wff(2, "A1")), &Limits::unlimited())
                .unwrap();
            memo(&db)
        });
        with_engine(EngineMode::Naive, || {
            assert!(db.is_certain(&wff(2, "A1")));
            assert!(!db.is_certain(&wff(2, "A2")));
            assert!(db.is_consistent());
            let after = memo(&db);
            assert_eq!((after.len, after.certain), (seeded.len, seeded.certain));
            // A commit under the naive engine installs an empty memo.
            db.run_governed(&HluProgram::Insert(wff(2, "A2")), &Limits::unlimited())
                .unwrap();
            assert_eq!(memo(&db).len, 0);
        });
    }

    #[test]
    fn a_state_past_64_atoms_is_answered_without_the_memo() {
        with_engine(EngineMode::Indexed, || {
            let mut db = ClausalDatabase::new();
            db.run_governed(
                &HluProgram::Insert(wff(65, "A65 & !A1")),
                &Limits::unlimited(),
            )
            .unwrap();
            assert_eq!((memo(&db).bound, memo(&db).len), (65, 0));
            assert!(db.is_certain(&wff(65, "A65 & !A1")));
            assert!(!db.is_possible(&wff(65, "A1")));
            assert!(db.is_possible(&wff(65, "A2")) && !db.is_certain(&wff(65, "A2")));
            assert!(db.is_consistent());
            assert_eq!((memo(&db).len, memo(&db).certain), (0, 0));
        });
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
