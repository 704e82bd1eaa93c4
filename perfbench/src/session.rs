//! The database under test and the client's life cycle around it: set-up,
//! requests, episodes, and recovery with its output checks.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use pwdb_hlu::{
    parse_hlu_statement, ClausalDatabase, DurableDatabase, DurableError, GovernedError, HluProgram,
    HluStatement,
};
use pwdb_logic::{parse_wff, AtomTable, Budget, ExecError, Limits, Wff};

use crate::gen::{self, Generator, Request};
use crate::spans::Recorder;
use crate::Workload;

/// The step budget every update runs under: an interactive budget that
/// the adversarial `delete`s cannot finish within, and that only the
/// rarest benign statements exceed.
const STEP_BUDGET: u64 = 500_000;
/// `durable_ingest` checkpoints after this many commits.
const CHECKPOINT_EVERY: u64 = 250;
/// Commits after the last checkpoint when a store is reopened, so every
/// recovery replays the same suffix length.
pub const RECOVERY_SUFFIX: u64 = CHECKPOINT_EVERY / 2;

/// What one request came to.
#[derive(Debug, PartialEq, Eq)]
pub enum Outcome {
    Committed,
    Answered(bool),
    /// Refused by the §1.3.3 consistency check.
    Rejected,
    /// Aborted by the governor's step budget.
    Aborted,
    /// Anything else: a failure of the program, never expected.
    Error(String),
}

impl Outcome {
    fn of_governed(r: Result<(), GovernedError>) -> Outcome {
        match r {
            Ok(()) => Outcome::Committed,
            Err(GovernedError::Rejected) => Outcome::Rejected,
            Err(GovernedError::Exec(ExecError::BudgetExceeded { .. })) => Outcome::Aborted,
            Err(e) => Outcome::Error(e.to_string()),
        }
    }

    fn of_durable(r: Result<(), DurableError>) -> Outcome {
        match r {
            Ok(()) => Outcome::Committed,
            Err(DurableError::Rejected) => Outcome::Rejected,
            Err(DurableError::Exec(ExecError::BudgetExceeded { .. })) => Outcome::Aborted,
            Err(e) => Outcome::Error(e.to_string()),
        }
    }
}

/// The database under test.
pub enum Target {
    Memory {
        db: ClausalDatabase,
        atoms: AtomTable,
    },
    /// In traced runs `shadow`, an in-memory database, applies every
    /// durable statement too, so the store's share of an update can be
    /// separated from the in-memory work.
    Durable {
        db: Box<DurableDatabase>,
        shadow: Option<ClausalDatabase>,
    },
}

impl Target {
    pub fn db(&self) -> &ClausalDatabase {
        match self {
            Target::Memory { db, .. } => db,
            Target::Durable { db, .. } => db.db(),
        }
    }
}

/// A fresh database with the workload's configuration (the §4 reduced
/// algebra throughout).
fn fresh_db(workload: Workload) -> ClausalDatabase {
    let db = ClausalDatabase::new_reduced();
    match workload {
        Workload::ReadHeavy => db.with_constraints(Wff::conj(constraint_clauses())),
        _ => db,
    }
}

/// `read_heavy`'s constraint clauses, each a wff. (Checked one by one:
/// entailment of the whole conjunction would negate it into CNF, which is
/// exponential.)
fn constraint_clauses() -> Vec<Wff> {
    let mut atoms = AtomTable::with_indexed_atoms(gen::ATOMS);
    gen::exactly_one_clauses()
        .iter()
        .map(|c| parse_wff(c, &mut atoms).expect("generated constraints parse"))
        .collect()
}

/// Program counters reported per layer, with the benchmark's own extra
/// work subtracted.
pub const COUNTERS: [&str; 20] = [
    "governor.steps",
    "governor.stmt.rejected",
    "governor.stmt.budget_exceeded",
    "blu.mask.steps",
    "blu.combine.products",
    "blu.genmask.assignments",
    "blu.cache.genmask.hits",
    "blu.cache.genmask.misses",
    "logic.resolution.pairs_tried",
    "logic.resolution.resolvents",
    "logic.subsumption.comparisons",
    "logic.index.sig_prunes",
    "logic.dpll.solves",
    "logic.dpll.decisions",
    "logic.dpll.propagations",
    "logic.dpll.conflicts",
    "store.wal.fsyncs",
    "store.wal.bytes",
    "store.snapshot.bytes",
    "store.snapshot.writes",
];

/// Program timers reported per layer.
pub const TIMERS: [&str; 6] = [
    "blu.mask.wall",
    "blu.genmask.wall",
    "blu.combine.wall",
    "blu.complement.wall",
    "blu.assert.wall",
    "hlu.constraints.wall",
];

/// The genmask memo, whose wholesale flushes `cache::all_stats()` counts.
pub const GENMASK_CACHE: &str = "blu.cache.genmask";

/// [`COUNTERS`], [`TIMERS`], then the genmask memo's flushes.
pub fn watched_names() -> impl Iterator<Item = &'static str> {
    COUNTERS
        .into_iter()
        .chain(TIMERS)
        .chain(["blu.cache.genmask.flushes"])
}

/// Flushes of the genmask memo so far.
pub fn genmask_flushes() -> u64 {
    pwdb_logic::cache::all_stats()
        .iter()
        .find(|c| c.name == GENMASK_CACHE)
        .map_or(0, |c| c.invalidations)
}

/// Current values of [`watched_names`] (timers in nanoseconds).
pub fn watched() -> Vec<u64> {
    COUNTERS
        .iter()
        .map(|n| pwdb_metrics::counter(n).get())
        .chain(TIMERS.iter().map(|n| pwdb_metrics::timer(n).total_ns()))
        .chain([genmask_flushes()])
        .collect()
}

/// Adds to `excess` what the [`watched`] metrics gained since `before`.
pub fn add_since(excess: &mut [u64], before: &[u64]) {
    for ((acc, now), then) in excess.iter_mut().zip(watched()).zip(before) {
        *acc += now - then;
    }
}

fn parsed_program(r: pwdb_logic::Result<HluStatement>) -> Result<HluProgram, Outcome> {
    match r {
        Ok(HluStatement::Run(p)) => Ok(p),
        Ok(HluStatement::Explain(_)) => Err(Outcome::Error("unexpected EXPLAIN".into())),
        Err(e) => Err(Outcome::Error(e.to_string())),
    }
}

/// Sends one request to the program, with spans around each call. What
/// the shadow database adds to the [`watched`] program metrics is
/// accumulated in `excess`.
fn exec(
    target: &mut Target,
    req: &Request,
    rec: &mut Recorder,
    op: u64,
    limits: &Limits,
    excess: &mut [u64],
) -> Outcome {
    match (target, req) {
        (Target::Memory { db, atoms }, Request::Update { text, .. }) => {
            let parsed = rec.span("hlu.parse", op, || parse_hlu_statement(text, atoms));
            let prog = match parsed_program(parsed) {
                Ok(p) => p,
                Err(o) => return o,
            };
            let r = rec.span("hlu.run_governed", op, || db.run_governed(&prog, limits));
            Outcome::of_governed(r)
        }
        // The workload sends durable statements as text through
        // `run_statement_governed`, which is `parse_hlu_statement` then
        // `run_governed`. The traced run (the one with a shadow) makes
        // those two calls itself, to time the parser apart.
        (Target::Durable { db, shadow: None }, Request::Update { text, .. }) => {
            Outcome::of_durable(db.run_statement_governed(text, limits).1)
        }
        (Target::Durable { db, shadow }, Request::Update { text, .. }) => {
            let parsed = rec.span("hlu.parse", op, || {
                parse_hlu_statement(text, db.atoms_mut())
            });
            let prog = match parsed_program(parsed) {
                Ok(p) => p,
                Err(o) => return o,
            };
            let r = rec.span("store.run_governed", op, || db.run_governed(&prog, limits));
            let out = Outcome::of_durable(r);
            if let Some(shadow) = shadow {
                let before = watched();
                let r = rec.span("hlu.shadow.run_governed", op, || {
                    shadow.run_governed(&prog, limits)
                });
                add_since(excess, &before);
                let shadow_out = Outcome::of_governed(r);
                if shadow_out != out {
                    return Outcome::Error(format!("shadow {shadow_out:?} but durable {out:?}"));
                }
            }
            out
        }
        (target, Request::Query { certain, text }) => {
            let parsed = match target {
                Target::Memory { atoms, .. } => {
                    rec.span("hlu.parse", op, || parse_wff(text, atoms))
                }
                Target::Durable { db, .. } => {
                    rec.span("hlu.parse", op, || parse_wff(text, db.atoms_mut()))
                }
            };
            let wff = match parsed {
                Ok(w) => w,
                Err(e) => return Outcome::Error(e.to_string()),
            };
            let db = target.db();
            Outcome::Answered(if *certain {
                rec.span("hlu.is_certain", op, || db.is_certain(&wff))
            } else {
                rec.span("hlu.is_possible", op, || db.is_possible(&wff))
            })
        }
    }
}

/// One request's result as the run loop sees it.
pub struct Step {
    pub is_update: bool,
    pub outcome: Outcome,
    pub latency: Duration,
    /// The latency plus the checkpoint the request triggered, if any.
    pub busy: Duration,
    /// A check that failed on this request.
    pub violation: Option<String>,
}

/// One client: its database, its request stream, and what recovery
/// measured and found.
pub struct Session {
    workload: Workload,
    pub target: Target,
    gen: Generator,
    limits: Limits,
    /// `durable_ingest`: the directory holding one store per episode.
    dir: PathBuf,
    traced: bool,
    /// Requests sent so far (the request id of spans).
    pub op: u64,
    episode: u64,
    /// Requests sent to the current database.
    in_episode: u64,
    /// What the benchmark's own extra work (the shadow database, the
    /// naive-engine checks, recovery and restart between episodes) added
    /// to the [`watched`] program metrics, to be subtracted from the
    /// per-layer figures.
    pub excess: Vec<u64>,
    since_checkpoint: u64,
    committed_text_bytes: u64,
    snapshot_bytes: u64,
    /// Seconds per recovery.
    pub recovery_s: Vec<f64>,
    /// Statements replayed by all recoveries.
    pub replayed: u64,
    /// `durable_ingest`: bytes logged over bytes of committed statement
    /// text, per recovered store.
    pub write_amp: Vec<f64>,
    /// Failed output checks.
    pub violations: Vec<String>,
}

impl Session {
    /// Builds the database (opening the store on a fresh directory) and
    /// runs one untimed warm-up episode.
    pub fn setup(workload: Workload, seed: u64, dir: &Path, traced: bool) -> Result<Self, String> {
        pwdb_logic::cache::clear_all();
        remove_dir(dir);
        let mut s = Session {
            workload,
            target: Target::Memory {
                db: fresh_db(workload),
                atoms: AtomTable::with_indexed_atoms(gen::ATOMS),
            },
            gen: Generator::new(workload, seed),
            limits: Limits::budget(Budget::steps(STEP_BUDGET)),
            dir: dir.to_owned(),
            traced,
            op: 0,
            episode: 0,
            in_episode: 0,
            excess: vec![0; COUNTERS.len() + TIMERS.len() + 1],
            since_checkpoint: 0,
            committed_text_bytes: 0,
            snapshot_bytes: 0,
            recovery_s: Vec::new(),
            replayed: 0,
            write_amp: Vec::new(),
            violations: Vec::new(),
        };
        if workload == Workload::DurableIngest {
            s.target = s.open_store()?;
        }
        let mut off = Recorder::new(false);
        for _ in 0..workload.episode() {
            let req = s.next_request(&mut off)?;
            let step = s.step(req, &mut off);
            if let Outcome::Error(e) = step.outcome {
                return Err(format!("warm-up request failed: {e}"));
            }
            if let Some(v) = step.violation {
                return Err(format!("warm-up check failed: {v}"));
            }
        }
        Ok(s)
    }

    /// The current episode's store directory.
    fn store_dir(&self) -> PathBuf {
        self.dir.join(format!("e{}", self.episode))
    }

    fn open_store(&self) -> Result<Target, String> {
        let dir = self.store_dir();
        let mut db = DurableDatabase::open_with(ClausalDatabase::new_reduced(), &dir)
            .map_err(|e| format!("open {}: {e}", dir.display()))?;
        for i in 1..=gen::DURABLE_ATOMS {
            db.atoms_mut().intern(&format!("A{i}"));
        }
        let shadow = self.traced.then(ClausalDatabase::new_reduced);
        Ok(Target::Durable {
            db: Box::new(db),
            shadow,
        })
    }

    /// The next request. After every episode the client starts over on a
    /// fresh database (a fresh store directory on `durable_ingest`),
    /// recovering the finished one first when its turn has come. All the
    /// program work in between goes to `excess`, once: the shadow's share
    /// of the extra commits before a reopen is not counted twice.
    pub fn next_request(&mut self, rec: &mut Recorder) -> Result<Request, String> {
        if self.in_episode == self.workload.episode() {
            let (kept, before) = (self.excess.clone(), watched());
            if self.episode.is_multiple_of(self.workload.recover_every()) {
                self.recover(rec)?;
            }
            self.restart()?;
            self.excess = kept;
            add_since(&mut self.excess, &before);
        }
        self.in_episode += 1;
        Ok(self.gen.next_request())
    }

    fn restart(&mut self) -> Result<(), String> {
        let old = self.store_dir();
        self.episode += 1;
        self.in_episode = 0;
        match &mut self.target {
            Target::Memory { db, .. } => *db = fresh_db(self.workload),
            Target::Durable { .. } => {
                self.target = self.open_store()?;
                remove_dir(&old);
                self.since_checkpoint = 0;
                self.committed_text_bytes = 0;
                self.snapshot_bytes = 0;
            }
        }
        Ok(())
    }

    /// Sends one request and checks what the workload promises about it.
    pub fn step(&mut self, req: Request, rec: &mut Recorder) -> Step {
        self.op += 1;
        let op = self.op;
        let adversarial = matches!(
            req,
            Request::Update {
                adversarial: true,
                ..
            }
        );
        let before = adversarial.then(|| {
            let db = self.target.db();
            (db.state().clone(), db.history().len())
        });
        let span = rec.open(crate::spans::REQUEST, op);
        let start = Instant::now();
        let outcome = exec(
            &mut self.target,
            &req,
            rec,
            op,
            &self.limits,
            &mut self.excess,
        );
        let latency = start.elapsed();
        rec.close(span);

        let mut busy = latency;
        let mut violation = None;
        if let Some((state, history)) = before {
            let db = self.target.db();
            if outcome != Outcome::Aborted {
                violation = Some(format!(
                    "adversarial request {op} ended {outcome:?}, not BudgetExceeded"
                ));
            } else if db.state() != &state || db.history().len() != history {
                violation = Some(format!("adversarial request {op} changed the state"));
            }
        }
        if let (Request::Update { text, .. }, Outcome::Committed) = (&req, &outcome) {
            self.committed_text_bytes += text.len() as u64;
            if let Target::Durable { db, .. } = &mut self.target {
                self.since_checkpoint += 1;
                if self.since_checkpoint == CHECKPOINT_EVERY {
                    self.since_checkpoint = 0;
                    let start = Instant::now();
                    let r = rec.span("store.checkpoint", op, || db.checkpoint());
                    busy += start.elapsed();
                    match r {
                        Ok((_, bytes)) => self.snapshot_bytes += bytes,
                        Err(e) => violation = Some(format!("checkpoint failed: {e}")),
                    }
                }
            }
        }
        Step {
            is_update: matches!(req, Request::Update { .. }),
            outcome,
            latency,
            busy,
            violation,
        }
    }

    /// Recovers the current database the way a restarted process would,
    /// times it, and checks the result. In memory that is a replay of
    /// `history()` on a fresh database. A durable store first gets commits
    /// until [`RECOVERY_SUFFIX`] statements follow its last checkpoint;
    /// then it is dropped and reopened, and the reopened database carries
    /// on.
    pub fn recover(&mut self, rec: &mut Recorder) -> Result<(), String> {
        let op = self.op;
        if let Target::Memory { db, .. } = &self.target {
            let start = Instant::now();
            let replica = rec.span("hlu.replay", op, || {
                let mut replica = fresh_db(self.workload);
                for prog in db.history() {
                    replica.run(prog);
                }
                replica
            });
            self.recovery_s.push(start.elapsed().as_secs_f64());
            self.replayed += db.history().len() as u64;
            if replica.state() != db.state() {
                self.violations
                    .push("replaying history() does not reproduce state()".into());
            }
            if self.workload == Workload::ReadHeavy
                && !constraint_clauses().iter().all(|c| db.is_certain(c))
            {
                self.violations
                    .push("the constraints are not certain after the episode".into());
            }
            return Ok(());
        }

        let mut off = Recorder::new(false);
        while self.since_checkpoint != RECOVERY_SUFFIX {
            let req = self.gen.next_update();
            if let Outcome::Error(e) = self.step(req, &mut off).outcome {
                return Err(format!("request before recovery failed: {e}"));
            }
        }
        let placeholder = Target::Memory {
            db: ClausalDatabase::new_reduced(),
            atoms: AtomTable::new(),
        };
        let Target::Durable { db, shadow } = std::mem::replace(&mut self.target, placeholder)
        else {
            unreachable!("only durable sessions reach here")
        };
        let state = db.state().clone();
        let history = db.history().to_vec();
        if shadow.as_ref().is_some_and(|sh| sh.state() != &state) {
            self.violations
                .push("shadow state differs from the durable state".into());
        }
        let logged = db.store_stats().wal_bytes + self.snapshot_bytes;
        self.write_amp
            .push(logged as f64 / self.committed_text_bytes.max(1) as f64);
        drop(db);

        let dir = self.store_dir();
        let start = Instant::now();
        let reopened = rec
            .span("store.open", op, || {
                DurableDatabase::open_with(ClausalDatabase::new_reduced(), &dir)
            })
            .map_err(|e| format!("reopen {}: {e}", dir.display()))?;
        self.recovery_s.push(start.elapsed().as_secs_f64());
        let replayed = reopened.recovery_report().replayed as u64;
        self.replayed += replayed;
        if reopened.state() != &state || reopened.history() != history.as_slice() {
            self.violations
                .push("reopened state or history differs".into());
        }
        if replayed != RECOVERY_SUFFIX {
            self.violations.push(format!(
                "recovery replayed {replayed}, expected {RECOVERY_SUFFIX}"
            ));
        }
        self.target = Target::Durable {
            db: Box::new(reopened),
            shadow,
        };
        Ok(())
    }

    /// Ends a run: if no episode was recovered yet (a short run), completes
    /// the current one and recovers it; checks the final state.
    pub fn finish(&mut self, rec: &mut Recorder) -> Result<(), String> {
        if self.recovery_s.is_empty() {
            let mut off = Recorder::new(false);
            while self.in_episode < self.workload.episode() {
                self.in_episode += 1;
                let req = self.gen.next_request();
                if let Outcome::Error(e) = self.step(req, &mut off).outcome {
                    return Err(format!("request before recovery failed: {e}"));
                }
            }
            self.recover(rec)?;
        }
        if self.workload == Workload::ReadHeavy {
            let db = self.target.db();
            if !constraint_clauses().iter().all(|c| db.is_certain(c)) {
                self.violations
                    .push("the constraints are not certain after the run".into());
            }
        }
        Ok(())
    }
}

pub fn remove_dir(dir: &Path) {
    if dir.exists() {
        let _ = std::fs::remove_dir_all(dir);
    }
}
