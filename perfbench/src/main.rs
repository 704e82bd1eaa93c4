//! The repository benchmark. One process runs one workload from a single
//! client thread in a closed loop (the next request is sent when the
//! previous one returns), checks the program's outputs, and prints its
//! metrics; the last line of standard output is the JSON result.
//!
//! ```text
//! perfbench --workload <update_heavy|read_heavy|durable_ingest>
//!           --seed <n> --seconds <n> --trace <0|1> [--ops <n>]
//! ```
//!
//! `--trace 0` runs for `--seconds` and reports the end-to-end metrics.
//! `--trace 1` runs a fixed amount of work (so the program's counters
//! repeat exactly for a seed), records spans around every call into the
//! program, and reports the per-layer metrics; it also runs the same work
//! untraced in a child process to report the tracing overhead. `--ops`
//! replaces the time limit by a request count. See `README.md`.

mod calib;
mod gen;
mod session;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use pwdb_logic::{parse_wff, with_engine, AtomTable, EngineMode};
use pwdb_metrics::MetricsSnapshot;

use gen::Request;
use session::{add_since, genmask_flushes, remove_dir, watched, watched_names, Outcome, Session};
use spans::Recorder;
use stats::{median, Samples};

/// Spans the client opens between episodes, not in a request.
const OUTSIDE_REQUESTS: [&str; 2] = ["hlu.replay", "store.open"];

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Probes timed after each set-up, to calibrate it (see `calib`).
const SETUP_PROBES: usize = 10;
/// Every this-many-th answered query is asked again under the naive
/// engine, untimed.
const CHECK_EVERY_QUERY: u64 = 20;
/// Where runs write spans, metric snapshots and the durable stores.
const OUT_DIR: &str = ".perfbench";

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    UpdateHeavy,
    ReadHeavy,
    DurableIngest,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        match s {
            "update_heavy" => Some(Workload::UpdateHeavy),
            "read_heavy" => Some(Workload::ReadHeavy),
            "durable_ingest" => Some(Workload::DurableIngest),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::UpdateHeavy => "update_heavy",
            Workload::ReadHeavy => "read_heavy",
            Workload::DurableIngest => "durable_ingest",
        }
    }

    /// Mixed into the seed so the workloads draw different streams.
    fn salt(self) -> u64 {
        match self {
            Workload::UpdateHeavy => 0x5550_4441_5445,
            Workload::ReadHeavy => 0x5245_4144,
            Workload::DurableIngest => 0x0044_5552_4142_4C45,
        }
    }

    /// Requests per episode. The client starts over on a fresh database
    /// after this many, so a run averages many independent state
    /// trajectories. Each is long enough for the mean state size to come
    /// within 5% of a single long trajectory's (see `README.md`). The
    /// untimed warm-up is one episode too.
    fn episode(self) -> u64 {
        match self {
            Workload::UpdateHeavy => 1_000,
            Workload::ReadHeavy => 60_000,
            Workload::DurableIngest => 4_000,
        }
    }

    /// Every this-many-th finished episode is recovered (and checked), so
    /// recoveries are spread over the whole run.
    fn recover_every(self) -> u64 {
        match self {
            Workload::UpdateHeavy => 5,
            Workload::ReadHeavy => 2,
            Workload::DurableIngest => 1,
        }
    }

    /// Requests per second of `--seconds` in the fixed-work traced run:
    /// at most half of what one core of the reference machine completes
    /// untraced, as the same work also runs untraced. (`read_heavy`'s is
    /// lower still, to bound the memory its many spans take.)
    fn traced_ops_per_second(self) -> u64 {
        match self {
            Workload::UpdateHeavy => 1_250,
            Workload::ReadHeavy => 5_000,
            Workload::DurableIngest => 3_000,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    ops: Option<u64>,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = BTreeMap::new();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        flags.insert(flag.as_str(), value.as_str());
    }
    if let Some(unknown) = flags
        .keys()
        .find(|k| !["--workload", "--seed", "--seconds", "--trace", "--ops"].contains(k))
    {
        return Err(format!("unknown flag {unknown}"));
    }
    let get = |k: &str| flags.get(k).copied().ok_or(format!("missing {k}"));
    let num = |k: &str| -> Result<u64, String> {
        get(k)?
            .parse()
            .map_err(|_| format!("{k} must be a whole number"))
    };
    let workload = get("--workload")?;
    Ok(Args {
        workload: Workload::parse(workload).ok_or(format!("unknown workload {workload}"))?,
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
        ops: flags.get("--ops").map(|_| num("--ops")).transpose()?,
    })
}

/// Everything one run measured.
#[derive(Default)]
struct Measured {
    attempted: u64,
    completed: u64,
    refused: u64,
    errors: u64,
    aborted: u64,
    violations: Vec<String>,
    /// Wall time of the timed phase, recoveries and checks included.
    elapsed: Duration,
    /// Request time: the sum of the requests' latencies and of the
    /// checkpoints they triggered.
    busy: Duration,
    update_us: Samples,
    query_us: Samples,
    abort_us: Vec<f64>,
    clauses_sum: u64,
    clauses_n: u64,
    setup_s: Vec<f64>,
    recovery_s: Vec<f64>,
    replayed: u64,
    write_amp: Vec<f64>,
    delta: MetricsSnapshot,
    /// Flushes of the genmask memo in the timed phase.
    flushes: u64,
    /// The machine's slowdown over the timed phase's requests, and the
    /// CPU's alone (see `calib`): timings of updates are reported divided
    /// by the first, those of queries and recoveries by the second.
    slowdown: f64,
    cpu_slowdown: f64,
    /// The CPU probe's mean and the disk probe's median.
    probe_us: (f64, f64),
    /// Program metrics added by the benchmark's own extra work, to
    /// subtract.
    excess: BTreeMap<&'static str, u64>,
    truncated: bool,
}

enum Limit {
    Time(Duration),
    Ops { count: u64, deadline: Duration },
}

/// Sets up `SETUPS` times, runs the timed phase, then checks.
fn run(args: &Args, rec: &mut Recorder) -> Result<Measured, String> {
    let out_dir = Path::new(OUT_DIR);
    std::fs::create_dir_all(out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    let dir = out_dir.join(format!(
        "store-{}-{}",
        args.workload.name(),
        std::process::id()
    ));
    let disk_probe = dir.with_extension("fsync-probe");
    let result = run_in(args, rec, &dir, &disk_probe);
    remove_dir(&dir);
    let _ = std::fs::remove_file(&disk_probe);
    result
}

/// WAL commits so far.
fn fsyncs() -> u64 {
    pwdb_metrics::counter("store.wal.fsyncs").get()
}

fn run_in(
    args: &Args,
    rec: &mut Recorder,
    dir: &Path,
    disk_probe: &Path,
) -> Result<Measured, String> {
    let disk_probe = (args.workload == Workload::DurableIngest).then_some(disk_probe);
    let probe_err = |e: std::io::Error| format!("disk probe: {e}");
    let mut m = Measured::default();
    let mut session = None;
    for _ in 0..SETUPS {
        drop(session.take());
        let (start, fsyncs_before) = (Instant::now(), fsyncs());
        session = Some(Session::setup(
            args.workload,
            args.seed,
            dir,
            rec.enabled(),
        )?);
        let took = start.elapsed();
        let mut probe = calib::Probe::new(disk_probe).map_err(probe_err)?;
        for _ in 0..SETUP_PROBES {
            probe.run().map_err(probe_err)?;
        }
        let k = probe.slowdown(took, fsyncs() - fsyncs_before);
        m.setup_s.push(took.as_secs_f64() / k);
    }
    let mut s = session.expect("at least one set-up");

    let limit = match args.ops {
        Some(count) => Limit::Ops {
            count,
            deadline: Duration::from_secs(args.seconds * 6),
        },
        None => Limit::Time(Duration::from_secs(args.seconds)),
    };
    let traced = rec.enabled();
    let mut queries = 0u64;
    let mut atoms = AtomTable::with_indexed_atoms(gen::ATOMS);
    let excess_before = s.excess.clone();
    let flushes_before = genmask_flushes();
    let before = pwdb_metrics::snapshot();
    let mut probe = calib::Probe::new(disk_probe).map_err(probe_err)?;
    let start = Instant::now();
    loop {
        probe.tick().map_err(probe_err)?;
        match limit {
            Limit::Time(d) if start.elapsed() >= d => break,
            Limit::Ops { count, .. } if m.attempted >= count => break,
            Limit::Ops { deadline, .. } if start.elapsed() >= deadline => {
                m.truncated = true;
                break;
            }
            _ => {}
        }
        let req = s.next_request(rec)?;
        let query = match &req {
            Request::Query { certain, text } => Some((*certain, text.clone())),
            Request::Update { .. } => None,
        };
        let step = s.step(req, rec);
        m.attempted += 1;
        m.busy += step.busy;
        let us = step.latency.as_secs_f64() * 1e6;
        if step.is_update {
            m.update_us.push(us);
        } else {
            m.query_us.push(us);
        }
        match &step.outcome {
            Outcome::Committed | Outcome::Answered(_) => m.completed += 1,
            Outcome::Rejected => m.refused += 1,
            Outcome::Aborted => {
                m.refused += 1;
                m.aborted += 1;
                m.abort_us.push(us);
            }
            Outcome::Error(e) => {
                m.errors += 1;
                if m.violations.len() < 10 {
                    m.violations.push(format!("request {} failed: {e}", s.op));
                }
            }
        }
        m.violations.extend(step.violation);
        if traced && step.outcome == Outcome::Committed {
            m.clauses_sum += s.target.db().state().len() as u64;
            m.clauses_n += 1;
        }
        if let (Some((certain, text)), Outcome::Answered(answer)) = (query, &step.outcome) {
            queries += 1;
            if queries.is_multiple_of(CHECK_EVERY_QUERY) {
                let work_before = watched();
                let wff = parse_wff(&text, &mut atoms).expect("generated query parses");
                let db = s.target.db();
                let naive = with_engine(EngineMode::Naive, || {
                    if certain {
                        db.is_certain(&wff)
                    } else {
                        db.is_possible(&wff)
                    }
                });
                if naive != *answer {
                    m.violations.push(format!(
                        "query {text} answered {answer} but the naive engine says {naive}"
                    ));
                }
                add_since(&mut s.excess, &work_before);
            }
        }
    }
    m.elapsed = start.elapsed();
    m.delta = pwdb_metrics::snapshot().delta(&before);
    m.flushes = genmask_flushes() - flushes_before;
    for ((name, now), then) in watched_names().zip(&s.excess).zip(&excess_before) {
        m.excess.insert(name, now - then);
    }
    let wal_commits = m.delta.counter("store.wal.fsyncs") - m.excess["store.wal.fsyncs"];
    m.slowdown = probe.slowdown(m.busy, wal_commits);
    m.cpu_slowdown = probe.cpu_slowdown();
    m.probe_us = probe.probes_us();

    if queries < CHECK_EVERY_QUERY {
        m.violations
            .push("no query was checked against the naive engine".into());
    }
    s.finish(rec)?;
    m.recovery_s = s.recovery_s;
    m.replayed = s.replayed;
    m.write_amp = s.write_amp;
    m.violations.extend(s.violations);
    Ok(m)
}

/// `VmHWM` of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Completed (committed or answered) requests per second of request
/// time, calibrated.
fn ops_per_s(m: &Measured) -> f64 {
    m.completed as f64 / m.busy.as_secs_f64() * m.slowdown
}

fn end_to_end(m: &Measured, notes: &mut Vec<String>) -> Vec<Metric> {
    let (update_tail_how, update_tail) = m.update_us.tail();
    let (query_tail_how, query_tail) = m.query_us.tail();
    notes.push(format!(
        "updates n={} (update_p99_us: {update_tail_how}), queries n={} (query_p99_us: {query_tail_how})",
        m.update_us.count(),
        m.query_us.count()
    ));
    notes.push(format!(
        "refused {} of {} (aborted {}), errors {}, {} recoveries replayed {}, write_amp {:.3}",
        m.refused,
        m.attempted,
        m.aborted,
        m.errors,
        m.recovery_s.len(),
        m.replayed,
        median(&m.write_amp)
    ));
    let (k, k_cpu) = (m.slowdown, m.cpu_slowdown);
    notes.push(format!(
        "machine slowdown {k:.4}, CPU alone {k_cpu:.4} (CPU probe mean {:.1} us, \
         disk probe median {:.1} us): update timings below are measured ones divided \
         by the first, query and recovery timings by the second",
        m.probe_us.0, m.probe_us.1
    ));
    vec![
        metric("ops_per_s", ops_per_s(m), "1/s"),
        metric("update_p50_us", m.update_us.median() / k, "us"),
        metric("update_p99_us", update_tail / k, "us"),
        metric("query_p50_us", m.query_us.median() / k_cpu, "us"),
        metric("query_p99_us", query_tail / k_cpu, "us"),
        metric(
            "failed_frac",
            (m.refused + m.errors) as f64 / m.attempted.max(1) as f64,
            "ratio",
        ),
        metric("setup_s", median(&m.setup_s), "s"),
        metric("recovery_s", median(&m.recovery_s) / k_cpu, "s"),
        metric("peak_rss_mb", peak_rss_mb(), "MiB"),
    ]
}

fn per_layer(m: &Measured, rec: &Recorder, overhead: f64) -> Vec<Metric> {
    let rows = rec.self_times();
    let self_s = |names: &[&str]| -> f64 {
        names
            .iter()
            .filter_map(|n| rows.get(n))
            .map(|r| r.2)
            .sum::<u64>() as f64
            / 1e9
    };
    let excess = |name: &str| m.excess.get(name).copied().unwrap_or(0);
    let count = |name: &str| m.delta.counter(name).saturating_sub(excess(name)) as f64;
    let wall_s = |name: &str| {
        let ns = m.delta.timers.get(name).map_or(0, |t| t.total_ns);
        ns.saturating_sub(excess(name)) as f64 / 1e9
    };
    let (hits, misses) = (
        count("blu.cache.genmask.hits"),
        count("blu.cache.genmask.misses"),
    );
    let lookups = hits + misses;
    let durable_ns = rec.total_ns("store.run_governed");
    let shadow_ns = rec.total_ns("hlu.shadow.run_governed");
    let mut out = vec![
        metric("bench.busy_s", self_s(&[spans::REQUEST]), "s"),
        metric("hlu.parser.busy_s", self_s(&["hlu.parse"]), "s"),
        metric(
            "hlu.update.busy_s",
            self_s(&["hlu.run_governed", "hlu.shadow.run_governed"]),
            "s",
        ),
        metric(
            "hlu.query.busy_s",
            self_s(&["hlu.is_certain", "hlu.is_possible"]),
            "s",
        ),
        metric(
            "hlu.constraints.wall_s",
            wall_s("hlu.constraints.wall"),
            "s",
        ),
        metric(
            "hlu.state.clauses_mean",
            m.clauses_sum as f64 / m.clauses_n.max(1) as f64,
            "count",
        ),
        metric("governor.steps", count("governor.steps"), "count"),
        metric("governor.abort_p50_us", median(&m.abort_us), "us"),
        metric(
            "governor.stmt.rejected",
            count("governor.stmt.rejected"),
            "count",
        ),
        metric(
            "governor.stmt.budget_exceeded",
            count("governor.stmt.budget_exceeded"),
            "count",
        ),
    ];
    for (name, timer) in [
        ("blu.mask.wall_s", "blu.mask.wall"),
        ("blu.genmask.wall_s", "blu.genmask.wall"),
        ("blu.combine.wall_s", "blu.combine.wall"),
        ("blu.complement.wall_s", "blu.complement.wall"),
        ("blu.assert.wall_s", "blu.assert.wall"),
    ] {
        out.push(metric(name, wall_s(timer), "s"));
    }
    for name in [
        "blu.mask.steps",
        "blu.combine.products",
        "blu.genmask.assignments",
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
    ] {
        let unit = if name.ends_with(".bytes") {
            "B"
        } else {
            "count"
        };
        out.push(metric(name, count(name), unit));
    }
    out.extend([
        metric(
            "blu.cache.genmask.hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
            "ratio",
        ),
        metric("blu.cache.genmask.lookups", lookups, "count"),
        metric(
            "blu.cache.genmask.flushes",
            m.flushes
                .saturating_sub(excess("blu.cache.genmask.flushes")) as f64,
            "count",
        ),
        metric(
            "store.commit.busy_s",
            durable_ns.saturating_sub(shadow_ns) as f64 / 1e9,
            "s",
        ),
        metric(
            "store.checkpoint.busy_s",
            rec.total_ns("store.checkpoint") as f64 / 1e9,
            "s",
        ),
        metric(
            "store.recover.replayed",
            m.replayed as f64 / m.recovery_s.len().max(1) as f64,
            "count",
        ),
        metric("store.write_amp", median(&m.write_amp), "ratio"),
        metric("trace.overhead_frac", overhead, "ratio"),
    ]);
    out
}

/// Prints the traced run's self time per layer, with each layer's share
/// of request time (the `op` spans).
fn print_self_times(workload: Workload, rec: &Recorder) {
    let rows = rec.self_times();
    let total = rec.total_ns(spans::REQUEST);
    println!("self time by layer, {} (traced):", workload.name());
    println!(
        "  {:<26} {:>9} {:>11} {:>11} {:>7}",
        "layer", "calls", "total_s", "self_s", "share"
    );
    for (name, (calls, total_ns, self_ns)) in &rows {
        let share = if OUTSIDE_REQUESTS.contains(name) {
            "-".to_string()
        } else {
            format!("{:.2}%", 100.0 * *self_ns as f64 / total.max(1) as f64)
        };
        println!(
            "  {:<26} {:>9} {:>11.6} {:>11.6} {:>7}",
            name,
            calls,
            *total_ns as f64 / 1e9,
            *self_ns as f64 / 1e9,
            share
        );
    }
    if rows.contains_key("hlu.shadow.run_governed") {
        println!("  (hlu.shadow.run_governed is work the trace adds: the in-memory twin of each durable update)");
    }
}

/// Runs the same fixed work untraced in a child process and returns its
/// `ops_per_s`.
fn untraced_ops_per_s(args: &Args, count: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = Command::new(exe)
        .args([
            "--workload",
            args.workload.name(),
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
            "--trace",
            "0",
            "--ops",
            &count.to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn untraced run: {e}"))?;
    if !out.status.success() {
        return Err(format!("untraced run failed: {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let key = "\"ops_per_s\": {\"value\": ";
    stdout
        .lines()
        .last()
        .and_then(|l| l.split_once(key))
        .and_then(|(_, rest)| rest.split(',').next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| "untraced run printed no ops_per_s".to_string())
}

fn json_line(correct: bool, m: &Measured, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|x| {
            let value = if x.value.is_finite() { x.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                x.name, value, x.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        m.attempted,
        m.errors,
        fields.join(", ")
    )
}

/// Runs the workload and prints its report; returns whether every check
/// passed.
fn report(args: &Args) -> Result<bool, String> {
    let mut notes = Vec::new();
    let (m, metrics) = if args.trace {
        let count = args
            .ops
            .unwrap_or(args.workload.traced_ops_per_second() * args.seconds);
        let untraced = untraced_ops_per_s(args, count)?;
        let fixed = Args {
            ops: Some(count),
            ..*args
        };
        let mut rec = Recorder::new(true);
        let m = run(&fixed, &mut rec)?;
        let traced = ops_per_s(&m);
        let overhead = untraced / traced - 1.0;
        print_self_times(args.workload, &rec);
        notes.push(format!(
            "tracing overhead: {untraced:.1} ops/s untraced, {traced:.1} traced ({:+.2}%)",
            overhead * 100.0
        ));
        let stem = format!("{OUT_DIR}/{}-seed{}", args.workload.name(), args.seed);
        rec.write_csv(Path::new(&format!("{stem}-spans.csv")))
            .map_err(|e| format!("write spans: {e}"))?;
        std::fs::write(format!("{stem}-metrics.json"), m.delta.to_json())
            .map_err(|e| format!("write metrics: {e}"))?;
        notes.push(format!("spans and metric deltas written to {stem}-*"));
        let metrics = per_layer(&m, &rec, overhead);
        (m, metrics)
    } else {
        let mut rec = Recorder::new(false);
        let m = run(args, &mut rec)?;
        let metrics = end_to_end(&m, &mut notes);
        (m, metrics)
    };
    if m.truncated {
        notes.push("fixed work cut short by the deadline: counts will not repeat".into());
    }
    println!(
        "{} seed {}: {} requests in {:.3} s, {:.3} s of it request time",
        args.workload.name(),
        args.seed,
        m.attempted,
        m.elapsed.as_secs_f64(),
        m.busy.as_secs_f64()
    );
    for n in &notes {
        println!("  {n}");
    }
    for x in &metrics {
        println!("  {:<32} {:>16.6} {}", x.name, x.value, x.unit);
    }
    for v in &m.violations {
        eprintln!("check failed: {v}");
    }
    let correct = m.violations.is_empty() && m.errors == 0;
    println!("{}", json_line(correct, &m, &metrics));
    Ok(correct)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "perfbench: {e}\nusage: perfbench --workload <update_heavy|read_heavy|durable_ingest> \
                 --seed <n> --seconds <n> --trace <0|1> [--ops <n>]"
            );
            return ExitCode::from(2);
        }
    };
    match report(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
