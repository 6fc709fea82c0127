//! The metric tables `BENCHMARK.json` is written from, the result line
//! a run prints, the file a complete set of runs is saved as, and the
//! comparison of two such files.

use crate::workloads::WORKLOADS;
use spfactor::trace::json::{self, Value};
use std::fmt::Write as _;

/// How long one run measures; `BENCHMARK.json`'s `run_seconds`.
pub const RUN_SECONDS: u64 = 20;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
}

/// Reported by every workload from its untraced run; `README.md` says
/// what the operation is on each.
pub const END_TO_END: [EndToEnd; 3] = [
    EndToEnd {
        name: "op_ms",
        unit: "ms",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_heap_mb",
        unit: "MB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// A count or ratio the program computes without a clock: two runs
    /// of one commit on one seed must agree on it digit for digit.
    pub exact: bool,
}

const fn timed(name: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit: "ms",
        better: "lower",
        exact: false,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: "lower",
        exact: true,
    }
}

const fn gauge(name: &'static str, unit: &'static str, better: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better,
        exact: false,
    }
}

/// Reported by every workload from its traced run, in layer order.
pub const PER_LAYER: [PerLayer; 62] = [
    timed("matrix.permute_ms"),
    timed("matrix.permute_values_ms"),
    timed("order.ms"),
    timed("order.direct_ms"),
    exact("order.factor_entries", "count"),
    timed("symbolic.ms"),
    exact("symbolic.entries", "count"),
    exact("symbolic.supernodes", "count"),
    timed("partition.ms"),
    timed("partition.columns_ms"),
    exact("partition.units", "count"),
    exact("partition.clusters", "count"),
    gauge("partition.peak_heap_mb", "MB", "lower"),
    timed("deps.ms"),
    timed("deps.serial_ms"),
    exact("deps.edges", "count"),
    gauge("deps.peak_heap_mb", "MB", "lower"),
    timed("sched.ms"),
    exact("sched.imbalance", "ratio"),
    timed("sched.artifact_write_ms"),
    exact("sched.artifact_bytes", "count"),
    timed("sched.artifact_rebuild_ms"),
    timed("simulate.ms"),
    timed("simulate.serial_ms"),
    exact("simulate.traffic_total", "count"),
    exact("simulate.work_max", "count"),
    timed("core.plan_ms"),
    timed("core.analyze_ms"),
    timed("core.glue_ms"),
    gauge("core.glue_frac", "ratio", "lower"),
    timed("numeric.cholesky_ms"),
    timed("numeric.supernodal_ms"),
    timed("numeric.solve_ms"),
    timed("numeric.block_parallel_ms"),
    exact("numeric.flops", "count"),
    gauge("numeric.flops_per_s", "1/s", "higher"),
    gauge("numeric.block_over_seq", "ratio", "lower"),
    exact("numeric.residual_max", "ratio"),
    timed("mp.execute_ms"),
    exact("mp.msgs", "count"),
    exact("mp.bytes", "count"),
    exact("mp.traffic_total", "count"),
    exact("mp.cache_hits", "count"),
    gauge("mp.idle_frac", "ratio", "lower"),
    timed("serve.cold_ms"),
    timed("serve.warm_ms"),
    timed("serve.cache_hit_ms"),
    timed("serve.dispatch_overhead_ms"),
    timed("serve.store_spill_ms"),
    timed("serve.store_load_ms"),
    gauge("serve.rps", "1/s", "higher"),
    timed("serve.p50_ms"),
    timed("serve.p99_ms"),
    gauge("serve.hit_rate", "ratio", "higher"),
    gauge("serve.cold_builds", "count", "lower"),
    gauge("serve.rejected", "count", "lower"),
    gauge("serve.degraded", "count", "lower"),
    gauge("serve.failed", "count", "lower"),
    gauge("trace.recorder_overhead_frac", "ratio", "lower"),
    timed("trace.op_ms"),
    // How long the traced run's blocks took in all: the budget check.
    gauge("trace.profile_s", "s", "lower"),
    gauge("threads", "count", "higher"),
];

/// `BENCHMARK.json`, written from the tables above.
pub fn contract() -> String {
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").unwrap();
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}",
            w.name, w.why
        )
        .unwrap();
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, e) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}",
            e.name, e.unit, e.better, e.bound
        )
        .unwrap();
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, p) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}",
            p.name, p.unit, p.better
        )
        .unwrap();
    }
    s.push_str("  ]\n}\n");
    s
}

fn all_of(s: &str, allowed: &str) -> bool {
    s.chars()
        .all(|c| c.is_ascii_alphanumeric() || allowed.contains(c))
}

/// Checks the tables against the limits of the benchmark contract and
/// `committed` (the text of `BENCHMARK.json`) against the tables.
pub fn check_contract(committed: &str) -> Vec<String> {
    let mut problems = Vec::new();
    let mut names: Vec<&str> = Vec::new();
    let mut name = |n: &'static str, problems: &mut Vec<String>| {
        let first_ok = n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric());
        if !first_ok || n.len() > 64 || !all_of(n, "_.-") {
            problems.push(format!("bad name {n:?}"));
        }
        if names.contains(&n) {
            problems.push(format!("name {n:?} is used twice"));
        }
        names.push(n);
    };
    let unit = |u: &str, problems: &mut Vec<String>| {
        if u.is_empty() || u.len() > 16 || !all_of(u, "_/%.-") {
            problems.push(format!("bad unit {u:?}"));
        }
    };
    if !(2..=8).contains(&WORKLOADS.len()) {
        problems.push(format!("{} workloads, allowed 2 to 8", WORKLOADS.len()));
    }
    for w in &WORKLOADS {
        name(w.name, &mut problems);
        if w.why.len() > 200 || w.why.contains('\n') {
            problems.push(format!("{}: why is not one line of at most 200", w.name));
        }
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        problems.push(format!(
            "{} end-to-end metrics, allowed 1 to 16",
            END_TO_END.len()
        ));
    }
    for e in &END_TO_END {
        name(e.name, &mut problems);
        unit(e.unit, &mut problems);
        if !(e.bound > 0.0 && e.bound <= 0.25) {
            problems.push(format!(
                "{}: bound {} is outside (0, 0.25]",
                e.name, e.bound
            ));
        }
    }
    if !END_TO_END
        .iter()
        .any(|e| e.name == "setup_s" && e.unit == "s" && e.better == "lower")
    {
        problems.push("no setup_s in seconds, lower is better".to_string());
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        problems.push(format!(
            "{} per-layer metrics, allowed 1 to 128",
            PER_LAYER.len()
        ));
    }
    for p in &PER_LAYER {
        name(p.name, &mut problems);
        unit(p.unit, &mut problems);
    }
    if !(1..=60).contains(&RUN_SECONDS) {
        problems.push(format!("run_seconds {RUN_SECONDS} is outside 1 to 60"));
    }
    if committed.len() > 64 * 1024 {
        problems.push("BENCHMARK.json is larger than 64 KiB".to_string());
    }
    if committed != contract() {
        problems.push(
            "BENCHMARK.json differs from the benchmark's tables; rewrite it with \
             `benchmark/run.sh --emit-contract > BENCHMARK.json`"
                .to_string(),
        );
    }
    problems
}

/// A number with all its digits; JSON has no NaN or infinity.
fn number(v: f64) -> String {
    assert!(v.is_finite(), "a metric must be a finite number");
    format!("{v}")
}

/// `{"name": {"value": .., "unit": ".."}, ..}`.
pub fn metrics_object(metrics: &[(&str, f64, &str)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// The one JSON object a run prints as its last line.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, f64, &str)],
) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        metrics_object(metrics)
    )
}

fn value_of(run: &Value, section: &str, metric: &str) -> Option<f64> {
    run.get(section)?
        .get("metrics")?
        .get(metric)?
        .get("value")?
        .as_f64()
}

/// Compares two files written by a complete set of runs. Prints, per
/// workload and end-to-end metric, both values, how much worse `b` is as
/// a share of `a`, and the bound; then every exact metric that differs.
/// Returns the number of breaches and mismatches.
pub fn compare(a_text: &str, b_text: &str) -> Result<usize, String> {
    let a = json::parse(a_text).map_err(|e| format!("first file: {e}"))?;
    let b = json::parse(b_text).map_err(|e| format!("second file: {e}"))?;
    let workloads = |doc: &Value| doc.get("workloads").cloned().ok_or("no \"workloads\"");
    let (wa, wb) = (workloads(&a)?, workloads(&b)?);
    let mut bad = 0;
    println!(
        "{:<12} {:<13} {:>14} {:>14} {:>8} {:>6}",
        "workload", "metric", "a", "b", "worse", "bound"
    );
    for w in &WORKLOADS {
        let (Some(ra), Some(rb)) = (wa.get(w.name), wb.get(w.name)) else {
            println!("{:<12} missing from one file", w.name);
            bad += 1;
            continue;
        };
        for e in &END_TO_END {
            let (Some(va), Some(vb)) = (
                value_of(ra, "untraced", e.name),
                value_of(rb, "untraced", e.name),
            ) else {
                println!("{:<12} {:<13} missing from one file", w.name, e.name);
                bad += 1;
                continue;
            };
            let worse = match e.better {
                "lower" => (vb - va) / va,
                _ => (va - vb) / va,
            };
            let breach = worse > e.bound;
            bad += breach as usize;
            println!(
                "{:<12} {:<13} {:>14.4} {:>14.4} {:>+7.1}% {:>5.0}%{}",
                w.name,
                e.name,
                va,
                vb,
                100.0 * worse,
                100.0 * e.bound,
                if breach { "  BREACH" } else { "" }
            );
        }
        for p in PER_LAYER.iter().filter(|p| p.exact) {
            let (va, vb) = (
                value_of(ra, "traced", p.name),
                value_of(rb, "traced", p.name),
            );
            if va != vb || va.is_none() {
                println!(
                    "{:<12} {:<13} exact metric differs: {va:?} vs {vb:?}",
                    w.name, p.name
                );
                bad += 1;
            }
        }
    }
    Ok(bad)
}
