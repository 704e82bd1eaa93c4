//! Validates the JSON artifacts the report binaries emit.
//!
//! ```text
//! validate_json BENCH_index.json BENCH_store.json BENCH_governor.json
//! ```
//!
//! Each file must parse through `pwdb_metrics::json` (the same
//! hand-written parser the writers round-trip through), and is then
//! structurally checked by shape:
//!
//! - an `index_comparison` document (from `report_index`) must have a
//!   `naive` and an `indexed` snapshot per section, and a `summary` whose
//!   every counter carries both engine totals;
//! - a `store_bench` document (from `report_store`) must have a numeric
//!   `wall_ns` and a decodable `metrics` snapshot per section, and a
//!   `summary` of numeric headline values;
//! - a `governor_bench` document (from `report_governor`) is checked like
//!   `store_bench`, and its summary must carry the governor headline
//!   values (`adversarial_steps_at_abort`, `budget_exceeded_statements`,
//!   `degraded_reads_served`).
//!
//! Exits non-zero with the byte offset on the first failure, so CI can
//! gate on it.

use std::process::ExitCode;

use pwdb_metrics::json::Json;
use pwdb_metrics::MetricsSnapshot;

fn validate(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| e.to_string())?;

    if let Some(comparison) = doc.get("index_comparison") {
        let Json::Obj(sections) = comparison else {
            return Err("index_comparison is not an object".to_owned());
        };
        if sections.is_empty() {
            return Err("index_comparison is empty".to_owned());
        }
        for (name, section) in sections {
            for side in ["naive", "indexed"] {
                let snap = section
                    .get(side)
                    .ok_or_else(|| format!("section '{name}' is missing '{side}'"))?;
                MetricsSnapshot::from_json_value(snap)
                    .map_err(|e| format!("section '{name}' side '{side}': {e}"))?;
            }
        }
        let summary = doc
            .get("summary")
            .ok_or_else(|| "missing 'summary'".to_owned())?;
        let Json::Obj(counters) = summary else {
            return Err("summary is not an object".to_owned());
        };
        for (name, entry) in counters {
            for side in ["naive", "indexed"] {
                if entry.get(side).and_then(Json::as_u64).is_none() {
                    return Err(format!("summary '{name}' is missing a numeric '{side}'"));
                }
            }
        }
        return Ok(format!(
            "{} comparison section(s), {} summary counter(s)",
            sections.len(),
            counters.len()
        ));
    }

    if let Some(bench) = doc.get("store_bench") {
        let Json::Obj(sections) = bench else {
            return Err("store_bench is not an object".to_owned());
        };
        if sections.is_empty() {
            return Err("store_bench is empty".to_owned());
        }
        for (name, section) in sections {
            if section.get("wall_ns").and_then(Json::as_u64).is_none() {
                return Err(format!("section '{name}' is missing a numeric 'wall_ns'"));
            }
            let metrics = section
                .get("metrics")
                .ok_or_else(|| format!("section '{name}' is missing 'metrics'"))?;
            MetricsSnapshot::from_json_value(metrics)
                .map_err(|e| format!("section '{name}' metrics: {e}"))?;
        }
        let summary = doc
            .get("summary")
            .ok_or_else(|| "missing 'summary'".to_owned())?;
        let Json::Obj(values) = summary else {
            return Err("summary is not an object".to_owned());
        };
        if values.is_empty() {
            return Err("summary is empty".to_owned());
        }
        for (name, v) in values {
            if v.as_u64().is_none() {
                return Err(format!("summary '{name}' is not numeric"));
            }
        }
        return Ok(format!(
            "{} store section(s), {} summary value(s)",
            sections.len(),
            values.len()
        ));
    }

    if let Some(bench) = doc.get("governor_bench") {
        let Json::Obj(sections) = bench else {
            return Err("governor_bench is not an object".to_owned());
        };
        if sections.is_empty() {
            return Err("governor_bench is empty".to_owned());
        }
        for (name, section) in sections {
            if section.get("wall_ns").and_then(Json::as_u64).is_none() {
                return Err(format!("section '{name}' is missing a numeric 'wall_ns'"));
            }
            let metrics = section
                .get("metrics")
                .ok_or_else(|| format!("section '{name}' is missing 'metrics'"))?;
            MetricsSnapshot::from_json_value(metrics)
                .map_err(|e| format!("section '{name}' metrics: {e}"))?;
        }
        let summary = doc
            .get("summary")
            .ok_or_else(|| "missing 'summary'".to_owned())?;
        let Json::Obj(values) = summary else {
            return Err("summary is not an object".to_owned());
        };
        for key in [
            "adversarial_steps_at_abort",
            "budget_exceeded_statements",
            "degraded_reads_served",
        ] {
            if summary.get(key).and_then(Json::as_u64).is_none() {
                return Err(format!("summary is missing a numeric '{key}'"));
            }
        }
        for (name, v) in values {
            if v.as_u64().is_none() {
                return Err(format!("summary '{name}' is not numeric"));
            }
        }
        return Ok(format!(
            "{} governor section(s), {} summary value(s)",
            sections.len(),
            values.len()
        ));
    }

    Err("unrecognized document (no index_comparison, store_bench, or governor_bench)".to_owned())
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    if paths.is_empty() {
        eprintln!("usage: validate_json <file.json>...");
        return ExitCode::FAILURE;
    }
    let mut failed = false;
    for path in &paths {
        match validate(path) {
            Ok(detail) => println!("{path}: ok ({detail})"),
            Err(e) => {
                eprintln!("{path}: FAILED: {e}");
                failed = true;
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
