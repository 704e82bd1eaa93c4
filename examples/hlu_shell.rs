//! An interactive HLU shell over the clausal database.
//!
//! Run with `cargo run --example hlu_shell` and type commands, or pipe a
//! script: `echo '(insert {a | b})\n?certain a | b' | cargo run --example
//! hlu_shell`. With no piped input and no commands, a short demo session
//! is replayed.
//!
//! Commands:
//!
//! ```text
//! (insert {...}) / (delete {...}) / (assert {...}) / (modify {..} {..})
//! (clear [a b]) / (where {...} (..) (..))      any HLU program
//! EXPLAIN <program>     run the program and print its execution trace
//! ?certain <wff>        is the wff true in every possible world?
//! ?possible <wff>       in some world?
//! ?count                number of possible worlds
//! :explain <program>    same as EXPLAIN
//! :trace on|off         print a span tree after every command
//! :metrics              metric deltas since the previous :metrics
//! :state                print the clause-set state
//! :atoms                print the interned vocabulary
//! :history              print every statement applied so far, in order
//! :open <dir>           switch to a durable database stored in <dir>
//!                       (recovers WAL + snapshots; every statement is
//!                       fsync'd before the shell replies)
//! :checkpoint           write a snapshot of the durable database
//! :wal                   log / snapshot statistics of the open store
//! :budget <steps>       govern every following statement: on budget
//!                       exhaustion it aborts with a typed error and the
//!                       state stays as it was before the statement
//! :budget off           run ungoverned again (:budget alone shows status)
//! :governor             governor status: active budget, cumulative
//!                       governor counters, store degradation
//! :quit
//! ```

use std::io::{BufRead, IsTerminal, Write};

use pwdb::logic::{Budget, Limits};
use pwdb::prelude::*;
use pwdb_metrics::MetricsSnapshot;

fn main() {
    let stdin = std::io::stdin();
    let interactive = stdin.is_terminal();

    let mut backend = Backend::Memory {
        db: Box::default(),
        atoms: AtomTable::new(),
    };
    let mut shell = Shell::new();

    let demo = [
        "(insert {rain | snow})",
        "?certain rain | snow",
        "?possible rain",
        "(insert {!rain})",
        "?certain snow",
        "?count",
        "(where {snow} (insert {plows}))",
        "?certain snow -> plows",
        "EXPLAIN (modify {snow} {sleet})",
        ":metrics",
        ":state",
    ];

    let mut lines: Box<dyn Iterator<Item = String>> = if interactive {
        println!("pwdb HLU shell — :quit to exit, ?certain/?possible/<hlu program>");
        Box::new(stdin.lock().lines().map_while(Result::ok))
    } else {
        let piped: Vec<String> = stdin.lock().lines().map_while(Result::ok).collect();
        if piped.is_empty() || piped.iter().all(|l| l.trim().is_empty()) {
            println!("(no input; replaying the demo script)");
            Box::new(demo.iter().map(|s| s.to_string()))
        } else {
            Box::new(piped.into_iter())
        }
    };

    loop {
        if interactive {
            print!("pwdb> ");
            std::io::stdout().flush().ok();
        }
        let Some(line) = lines.next() else { break };
        let line = line.trim().to_owned();
        if line.is_empty() {
            continue;
        }
        if !interactive {
            println!("pwdb> {line}");
        }
        match execute(&line, &mut backend, &mut shell) {
            Ok(Reply::Quit) => break,
            Ok(Reply::Text(t)) => println!("{t}"),
            Err(e) => println!("error: {e}"),
        }
        // With `:trace on`, show the spans each command produced.
        if shell.trace_on {
            let trace = pwdb_trace::take();
            if !trace.is_empty() {
                print!("{}", trace.render_tree());
            }
        }
    }
}

enum Reply {
    Text(String),
    Quit,
}

/// The database the shell is talking to: a plain in-memory one, or a
/// durable one that logs every statement it applies.
enum Backend {
    Memory {
        db: Box<ClausalDatabase>,
        atoms: AtomTable,
    },
    Durable(Box<DurableDatabase>),
}

impl Backend {
    /// Read-only view of the underlying clausal database.
    fn db(&self) -> &ClausalDatabase {
        match self {
            Backend::Memory { db, .. } => db,
            Backend::Durable(d) => d,
        }
    }

    fn atoms(&self) -> &AtomTable {
        match self {
            Backend::Memory { atoms, .. } => atoms,
            Backend::Durable(d) => d.atoms(),
        }
    }

    /// The session vocabulary, for parsing.
    fn atoms_mut(&mut self) -> &mut AtomTable {
        match self {
            Backend::Memory { atoms, .. } => atoms,
            Backend::Durable(d) => d.atoms_mut(),
        }
    }

    /// Runs one parsed statement. With `limits` set (`:budget`), it runs
    /// governed: on budget exhaustion or rejection nothing is installed and
    /// the error is reported alongside any explanation.
    fn run_statement(
        &mut self,
        stmt: HluStatement,
        limits: Option<&Limits>,
    ) -> (Option<Explanation>, Result<(), String>) {
        let (prog, explain) = match stmt {
            HluStatement::Run(prog) => (prog, false),
            HluStatement::Explain(prog) => (prog, true),
        };
        let run = || match (self, limits) {
            (Backend::Memory { db, .. }, None) => {
                db.run(&prog);
                Ok(())
            }
            (Backend::Memory { db, .. }, Some(l)) => {
                db.run_governed(&prog, l).map_err(|e| e.to_string())
            }
            (Backend::Durable(d), None) => d.run(&prog).map_err(|e| e.to_string()),
            (Backend::Durable(d), Some(l)) => d.run_governed(&prog, l).map_err(|e| e.to_string()),
        };
        if !explain {
            return (None, run());
        }
        let (exp, result) = Explanation::capture(&prog, run);
        let exp = if limits.is_some() {
            exp.with_outcome(&result)
        } else {
            exp
        };
        (Some(exp), result)
    }

    /// Parses a wff against the session vocabulary.
    fn parse_wff(&mut self, text: &str) -> Result<Wff, String> {
        parse_wff(text, self.atoms_mut()).map_err(|e| e.to_string())
    }
}

/// Shell-session state beyond the database itself.
struct Shell {
    /// Snapshot at the previous `:metrics` call (deltas are printed).
    last_metrics: MetricsSnapshot,
    /// Whether to print a span tree after every command.
    trace_on: bool,
    /// Active execution limits (`:budget`), with a rendered description.
    limits: Option<(Limits, String)>,
}

impl Shell {
    fn new() -> Self {
        Shell {
            last_metrics: pwdb_metrics::snapshot(),
            trace_on: false,
            limits: None,
        }
    }
}

/// Parses `:budget` arguments: `<steps>`.
fn parse_budget(rest: &str) -> Result<(Limits, String), String> {
    let steps: u64 = rest
        .parse()
        .map_err(|_| "usage: :budget <steps> | off".to_owned())?;
    Ok((
        Limits::budget(Budget::steps(steps)),
        format!("{steps} step(s)"),
    ))
}

fn execute(line: &str, backend: &mut Backend, shell: &mut Shell) -> Result<Reply, String> {
    if line == ":quit" || line == ":q" {
        return Ok(Reply::Quit);
    }
    if line == ":state" {
        let state = backend.db().state();
        return Ok(Reply::Text(format!(
            "{} clause(s): {}",
            state.len(),
            state.display(backend.atoms())
        )));
    }
    if line == ":atoms" {
        let names: Vec<&str> = backend.atoms().iter().map(|(_, n)| n).collect();
        return Ok(Reply::Text(format!("{names:?}")));
    }
    if line == ":history" {
        let history = backend.db().history();
        if history.is_empty() {
            return Ok(Reply::Text("(no statements applied yet)".to_owned()));
        }
        let out: Vec<String> = history
            .iter()
            .enumerate()
            .map(|(i, p)| format!("{:>4}  {}", i + 1, p.display(backend.atoms())))
            .collect();
        return Ok(Reply::Text(out.join("\n")));
    }
    if let Some(dir) = line.strip_prefix(":open ") {
        let dir = dir.trim();
        if dir.is_empty() {
            return Err("usage: :open <directory>".to_owned());
        }
        if backend.db().updates_run() > 0 {
            println!("(note: the in-memory session is discarded; :open starts from the store)");
        }
        let db = ClausalDatabase::open(std::path::Path::new(dir)).map_err(|e| e.to_string())?;
        let r = db.recovery_report().clone();
        *backend = Backend::Durable(Box::new(db));
        return Ok(Reply::Text(format!(
            "opened {dir}: {} statement(s) recovered ({} replayed from the log, \
             {} from the snapshot), {} torn byte(s) truncated, {} snapshot(s) skipped",
            r.replayed + r.from_snapshot,
            r.replayed,
            r.from_snapshot,
            r.truncated_bytes,
            r.snapshots_skipped
        )));
    }
    if line == ":checkpoint" {
        let Backend::Durable(d) = backend else {
            return Err("no store open (use `:open <dir>` first)".to_owned());
        };
        let (path, bytes) = d.checkpoint().map_err(|e| e.to_string())?;
        return Ok(Reply::Text(format!(
            "snapshot written: {} ({bytes} byte(s))",
            path.display()
        )));
    }
    if line == ":wal" {
        let Backend::Durable(d) = backend else {
            return Err("no store open (use `:open <dir>` first)".to_owned());
        };
        let s = d.store_stats();
        let snap = match (s.snapshot_records, s.snapshot_bytes) {
            (Some(r), Some(b)) => format!("newest snapshot covers {r} record(s), {b} byte(s)"),
            _ => "no snapshot yet".to_owned(),
        };
        return Ok(Reply::Text(format!(
            "{} in {}\nlog: {} record(s), {} byte(s); {snap}",
            "durable store",
            d.dir().display(),
            s.wal_records,
            s.wal_bytes
        )));
    }
    if line == ":metrics" {
        let now = pwdb_metrics::snapshot();
        let delta = now.delta(&shell.last_metrics);
        shell.last_metrics = now;
        return Ok(Reply::Text(render_metrics(&delta)));
    }
    if let Some(arg) = line.strip_prefix(":trace") {
        match arg.trim() {
            "on" => {
                pwdb_trace::set_enabled(true);
                shell.trace_on = true;
                return Ok(Reply::Text("tracing on".to_owned()));
            }
            "off" => {
                shell.trace_on = false;
                pwdb_trace::set_enabled(false);
                let _ = pwdb_trace::take(); // discard unprinted spans
                return Ok(Reply::Text("tracing off".to_owned()));
            }
            other => return Err(format!("usage: :trace on|off (got '{other}')")),
        }
    }
    if let Some(rest) = line.strip_prefix(":budget") {
        let rest = rest.trim();
        if rest == "off" {
            shell.limits = None;
            return Ok(Reply::Text(
                "budget off — statements run ungoverned".to_owned(),
            ));
        }
        if rest.is_empty() {
            return Ok(Reply::Text(match &shell.limits {
                Some((_, desc)) => format!("budget: {desc}"),
                None => "budget: off (statements run ungoverned)".to_owned(),
            }));
        }
        let (limits, desc) = parse_budget(rest)?;
        let text = format!("budget set: {desc} — over-budget statements change nothing");
        shell.limits = Some((limits, desc));
        return Ok(Reply::Text(text));
    }
    if line == ":governor" {
        let mut out = String::new();
        out.push_str(&match &shell.limits {
            Some((_, desc)) => format!("budget:   {desc}"),
            None => "budget:   off (statements run ungoverned)".to_owned(),
        });
        if let Backend::Durable(d) = backend {
            out.push_str(&match d.degraded_reason() {
                Some(reason) => format!("\nstore:    DEGRADED (read-only): {reason}"),
                None => "\nstore:    healthy".to_owned(),
            });
        }
        let snapshot = pwdb_metrics::snapshot();
        let governor: Vec<_> = snapshot
            .counters
            .iter()
            .filter(|(name, &v)| name.starts_with("governor.") && v > 0)
            .collect();
        if governor.is_empty() {
            out.push_str("\n(no governed statements run yet)");
        } else {
            out.push_str("\ncumulative counters");
            for (name, v) in governor {
                out.push_str(&format!("\n  {name:<40} {v}"));
            }
        }
        return Ok(Reply::Text(out));
    }
    if let Some(q) = line.strip_prefix("?certain ") {
        let w = backend.parse_wff(q)?;
        return Ok(Reply::Text(format!("{}", backend.db().is_certain(&w))));
    }
    if let Some(q) = line.strip_prefix("?possible ") {
        let w = backend.parse_wff(q)?;
        return Ok(Reply::Text(format!("{}", backend.db().is_possible(&w))));
    }
    if line == "?count" {
        let n = backend.atoms().len();
        let count = backend.db().try_world_count(n).map_err(|e| e.to_string())?;
        return Ok(Reply::Text(format!(
            "{count} possible world(s) over {n} atom(s)"
        )));
    }
    let is_explain = line.len() >= 7 && line.as_bytes()[..7].eq_ignore_ascii_case(b"explain");
    let stmt = if let Some(rest) = line.strip_prefix(":explain ") {
        parse_hlu(rest, backend.atoms_mut()).map(HluStatement::Explain)
    } else if line.starts_with('(') || is_explain {
        parse_hlu_statement(line, backend.atoms_mut())
    } else {
        return Err(format!("unrecognized command: {line}"));
    };
    let stmt = stmt.map_err(|e| e.to_string())?;
    let limits = shell.limits.as_ref().map(|(l, _)| l);
    match backend.run_statement(stmt, limits) {
        (Some(explanation), Ok(())) => Ok(Reply::Text(explanation.render())),
        (Some(explanation), Err(e)) => {
            Ok(Reply::Text(format!("{}\nerror: {e}", explanation.render())))
        }
        (None, Ok(())) => Ok(Reply::Text(format!(
            "ok ({} update(s) run)",
            backend.db().updates_run()
        ))),
        (None, Err(e)) => Err(e),
    }
}

/// Renders a metrics delta: non-zero counters, then timers with call
/// counts and total wall time.
fn render_metrics(delta: &MetricsSnapshot) -> String {
    let mut out = String::new();
    let counters: Vec<_> = delta.counters.iter().filter(|(_, &v)| v > 0).collect();
    let timers: Vec<_> = delta.timers.iter().filter(|(_, t)| t.count > 0).collect();
    if counters.is_empty() && timers.is_empty() {
        return "(no metric activity since the last :metrics)".to_owned();
    }
    out.push_str("counters since last :metrics\n");
    for (name, v) in counters {
        out.push_str(&format!("  {name:<40} {v}\n"));
    }
    if !timers.is_empty() {
        out.push_str("timers\n");
        for (name, t) in timers {
            out.push_str(&format!(
                "  {name:<40} {} call(s), {:.3} ms total\n",
                t.count,
                t.total_ns as f64 / 1e6
            ));
        }
    }
    out.pop(); // trailing newline
    out
}
