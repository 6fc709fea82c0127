//! Million-column scale baseline — memory and time across grid sizes.
//!
//! Runs the full analytic pipeline on `lap_grid` problems from 10^4 up
//! to 10^6 columns under the production engine configuration
//! ([`OrderEngine::Compressed`], [`DepsEngine::SweepParallel`],
//! [`SimulateEngine::BlockParallel`], grain 25, 16 processors) and
//! writes `BENCH_scale.json`: per size, the column count, factor
//! entries, end-to-end wall time, per-phase milliseconds, the
//! `deps.engine.*` / `simulate.engine.*` cost counters, the heap-owner
//! gauges (`heap_owners`: what the symbolic factor keeps, what the
//! partition keeps and the segmentation
//! table its work tally walked, the kept predecessor lists and the most
//! the raw lists held) and — because
//! this binary installs [`spfactor::trace::alloc::TrackingAllocator`]
//! as its global allocator — the per-phase heap high-water marks the
//! pipeline publishes as `phase.*.peak_bytes` gauges; over the sizes,
//! the fitted log-log slope of every phase against `n`.
//!
//! No oracle reaches these sizes, so before a size is recorded the cheap
//! global identities are asserted on its result ([`check_identities`]).
//!
//! ```text
//! cargo run --release -p spfactor-bench --bin bench_scale
//! cargo run --release -p spfactor-bench --bin bench_scale -- --smoke
//! cargo run --release -p spfactor-bench --bin bench_scale -- --sides 100,300
//! cargo run --release -p spfactor-bench --bin bench_scale -- --out /tmp/s.json
//! ```
//!
//! `--smoke` runs one tiny grid so CI can validate the JSON schema in a
//! fraction of a second; the schema is identical to the full run, and
//! both modes fail if any phase's peak-bytes gauge comes back
//! unpopulated — a committed baseline always witnesses that the
//! allocator plumbing works.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

use spfactor::partition::{DepCategory, UnitShape};
use spfactor::trace::alloc::TrackingAllocator;
use spfactor::{DepsEngine, OrderEngine, Pipeline, PipelineResult, Recorder, SimulateEngine};

#[global_allocator]
static ALLOC: TrackingAllocator = TrackingAllocator::new();

/// Schema identifier validated by `scripts/verify.sh`.
const SCHEMA: &str = "spfactor-bench-scale/3";

/// The spans the pipeline brackets with `phase.*.peak_bytes` gauges.
const PHASES: [&str; 6] = [
    "order",
    "symbolic",
    "partition",
    "deps",
    "sched",
    "simulate",
];

/// The engine cost counters recorded per size (`docs/METRICS.md`).
const COUNTERS: [&str; 7] = [
    "deps.engine.columns",
    "deps.engine.pairs",
    "deps.engine.segments",
    "deps.engine.walked_segments",
    "simulate.engine.columns",
    "simulate.engine.unit_visits",
    "simulate.engine.interval_pieces",
];

/// The heap-owner gauges recorded per size: what the symbolic, partition
/// and deps peaks are made of (`docs/METRICS.md`).
const OWNERS: [&str; 5] = [
    "heap.symbolic.kept.bytes",
    "heap.partition.kept.bytes",
    "heap.partition.segmentation.bytes",
    "heap.deps.preds.bytes",
    "heap.deps.pending.bytes",
];

/// Grid sides for the full sweep: n = side^2 columns, 10^4 → 10^6.
const FULL_SIDES: [usize; 5] = [100, 200, 400, 700, 1000];

/// Production-style configuration (the repository benchmark's
/// `plan_grid` grain and processor count).
const GRAIN: usize = 25;
const NPROCS: usize = 16;

struct SizeResult {
    side: usize,
    n: usize,
    factor_entries: usize,
    total_ms: f64,
    phases_ms: Vec<(&'static str, f64)>,
    peak_bytes: Vec<(&'static str, u64)>,
    counters: Vec<(&'static str, u64)>,
    heap_owners: Vec<(&'static str, u64)>,
}

/// Asserts what must hold of any correct result and costs next to
/// nothing to check, then hands back the factor's size:
///
/// * the unit work sums to the factor's closed-form operation total;
/// * every operation is either in one of the ten categories or internal
///   to a unit, and without zero relaxation the internal ones have a
///   closed form — a dense triangle of width `m` keeps `m(m²−1)/6`
///   updates and `m(m−1)/2` scalings to itself, a single column its
///   scalings, a rectangle nothing.
fn check_identities(result: PipelineResult) -> (usize, usize) {
    let (factor, partition, deps) = (
        result.plan.factor(),
        result.plan.partition(),
        result.plan.deps(),
    );
    assert_eq!(partition.params.relax_zeros, 0);
    assert_eq!(partition.total_work(), factor.paper_work(), "unit work");
    let counts = (0..factor.n()).map(|k| factor.col_count(k));
    let operations: usize = counts.map(|c| c * (c + 1) / 2 + c).sum();
    let internal: usize = partition
        .units
        .iter()
        .map(|u| match u.shape {
            UnitShape::Column { col } => factor.col_count(col),
            UnitShape::Triangle { extent } => {
                let m = extent.len();
                m * (m * m - 1) / 6 + m * (m - 1) / 2
            }
            UnitShape::Rectangle { .. } => 0,
        })
        .sum();
    let ops: usize = DepCategory::all()
        .iter()
        .map(|&c| deps.ops_in_category(c))
        .sum();
    assert_eq!(ops + internal, operations, "category ops");
    (factor.n(), factor.num_entries())
}

fn bench_side(side: usize) -> SizeResult {
    let m = spfactor::matrix::gen::paper::lap_grid(side);
    let rec = Arc::new(Recorder::new());
    let pipeline = Pipeline::new(m.pattern)
        .grain(GRAIN)
        .processors(NPROCS)
        .order_engine(OrderEngine::Compressed)
        .deps_engine(DepsEngine::SweepParallel)
        .engine(SimulateEngine::BlockParallel)
        .with_recorder(rec.clone());
    let t = Instant::now();
    let result = pipeline.run();
    let total_ms = t.elapsed().as_secs_f64() * 1e3;

    let mut phases_ms = Vec::new();
    let mut peak_bytes = Vec::new();
    for phase in PHASES {
        let stats = rec
            .span_stats(&format!("phase.{phase}"))
            .unwrap_or_else(|| panic!("phase.{phase} span missing"));
        phases_ms.push((phase, stats.total_ns as f64 / 1e6));
        let peak = rec
            .gauge_value(&format!("phase.{phase}.peak_bytes"))
            .unwrap_or_else(|| panic!("phase.{phase}.peak_bytes gauge missing"));
        assert!(peak > 0.0, "phase.{phase}.peak_bytes not populated");
        peak_bytes.push((phase, peak as u64));
    }
    let counters = COUNTERS.map(|name| (name, rec.counter(name))).to_vec();
    let heap_owners = OWNERS
        .map(|name| {
            let bytes = rec
                .gauge_value(name)
                .unwrap_or_else(|| panic!("{name} gauge missing"));
            (name, bytes as u64)
        })
        .to_vec();
    let (n, factor_entries) = check_identities(result);
    SizeResult {
        side,
        n,
        factor_entries,
        total_ms,
        phases_ms,
        peak_bytes,
        counters,
        heap_owners,
    }
}

/// Least-squares slope of `ln y` against `ln n` over the sizes; `None`
/// with fewer than two of them.
fn loglog_slope(results: &[SizeResult], y: impl Fn(&SizeResult) -> f64) -> Option<f64> {
    if results.len() < 2 {
        return None;
    }
    let pts: Vec<(f64, f64)> = results
        .iter()
        .map(|r| ((r.n as f64).ln(), y(r).max(1e-9).ln()))
        .collect();
    let k = pts.len() as f64;
    let (mx, my) = (
        pts.iter().map(|p| p.0).sum::<f64>() / k,
        pts.iter().map(|p| p.1).sum::<f64>() / k,
    );
    let sxy: f64 = pts.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    let sxx: f64 = pts.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    Some(sxy / sxx)
}

fn json_document(mode: &str, results: &[SizeResult]) -> String {
    let max_n = results.iter().map(|r| r.n).max().unwrap_or(0);
    let max_peak = results
        .iter()
        .flat_map(|r| r.peak_bytes.iter().map(|&(_, b)| b))
        .max()
        .unwrap_or(0);
    let mut s = String::new();
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"schema\": \"{SCHEMA}\",").unwrap();
    writeln!(s, "  \"mode\": \"{mode}\",").unwrap();
    writeln!(s, "  \"order_engine\": \"compressed\",").unwrap();
    writeln!(s, "  \"deps_engine\": \"sweep_parallel\",").unwrap();
    writeln!(s, "  \"simulate_engine\": \"block_parallel\",").unwrap();
    writeln!(s, "  \"grain\": {GRAIN},").unwrap();
    writeln!(s, "  \"nprocs\": {NPROCS},").unwrap();
    writeln!(s, "  \"max_n\": {max_n},").unwrap();
    writeln!(s, "  \"max_peak_bytes\": {max_peak},").unwrap();
    // Fitted exponents against n: every phase's time, the total, the
    // factor's own growth and the deps heap peak.
    let mut slopes: Vec<(String, Option<f64>)> = (0..PHASES.len())
        .map(|p| {
            let slope = loglog_slope(results, |r| r.phases_ms[p].1);
            (PHASES[p].to_string(), slope)
        })
        .collect();
    slopes.push(("total".into(), loglog_slope(results, |r| r.total_ms)));
    slopes.push((
        "factor_entries".into(),
        loglog_slope(results, |r| r.factor_entries as f64),
    ));
    let deps = PHASES
        .iter()
        .position(|&p| p == "deps")
        .expect("deps phase");
    slopes.push((
        "deps_peak_bytes".into(),
        loglog_slope(results, |r| r.peak_bytes[deps].1 as f64),
    ));
    writeln!(s, "  \"slopes\": {{").unwrap();
    for (j, (name, slope)) in slopes.iter().enumerate() {
        let comma = if j + 1 < slopes.len() { "," } else { "" };
        match slope {
            Some(v) => writeln!(s, "    \"{name}\": {v:.3}{comma}").unwrap(),
            None => writeln!(s, "    \"{name}\": null{comma}").unwrap(),
        }
    }
    writeln!(s, "  }},").unwrap();
    writeln!(s, "  \"sizes\": [").unwrap();
    for (i, r) in results.iter().enumerate() {
        writeln!(s, "    {{").unwrap();
        writeln!(s, "      \"side\": {},", r.side).unwrap();
        writeln!(s, "      \"n\": {},", r.n).unwrap();
        writeln!(s, "      \"factor_entries\": {},", r.factor_entries).unwrap();
        writeln!(s, "      \"total_ms\": {:.3},", r.total_ms).unwrap();
        writeln!(s, "      \"phases_ms\": {{").unwrap();
        for (j, (name, ms)) in r.phases_ms.iter().enumerate() {
            let comma = if j + 1 < r.phases_ms.len() { "," } else { "" };
            writeln!(s, "        \"{name}\": {ms:.3}{comma}").unwrap();
        }
        writeln!(s, "      }},").unwrap();
        writeln!(s, "      \"peak_bytes\": {{").unwrap();
        for (j, (name, b)) in r.peak_bytes.iter().enumerate() {
            let comma = if j + 1 < r.peak_bytes.len() { "," } else { "" };
            writeln!(s, "        \"{name}\": {b}{comma}").unwrap();
        }
        writeln!(s, "      }},").unwrap();
        writeln!(s, "      \"counters\": {{").unwrap();
        for (j, (name, v)) in r.counters.iter().enumerate() {
            let comma = if j + 1 < r.counters.len() { "," } else { "" };
            writeln!(s, "        \"{name}\": {v}{comma}").unwrap();
        }
        writeln!(s, "      }},").unwrap();
        writeln!(s, "      \"heap_owners\": {{").unwrap();
        for (j, (name, b)) in r.heap_owners.iter().enumerate() {
            let comma = if j + 1 < r.heap_owners.len() { "," } else { "" };
            writeln!(s, "        \"{name}\": {b}{comma}").unwrap();
        }
        writeln!(s, "      }}").unwrap();
        let comma = if i + 1 < results.len() { "," } else { "" };
        writeln!(s, "    }}{comma}").unwrap();
    }
    writeln!(s, "  ]").unwrap();
    writeln!(s, "}}").unwrap();
    s
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_scale.json".to_string());
    let sides: Vec<usize> = if smoke {
        vec![40]
    } else if let Some(list) = args
        .iter()
        .position(|a| a == "--sides")
        .and_then(|i| args.get(i + 1))
    {
        list.split(',')
            .map(|t| t.trim().parse().expect("--sides takes e.g. 100,300,1000"))
            .collect()
    } else {
        FULL_SIDES.to_vec()
    };

    let mut results = Vec::new();
    for &side in &sides {
        eprintln!("benchmarking lap_grid({side}) (n = {})...", side * side);
        let r = bench_side(side);
        eprintln!(
            "  n={:<8} total {:.0} ms, phases: {}",
            r.n,
            r.total_ms,
            r.phases_ms
                .iter()
                .map(|(p, ms)| format!("{p} {ms:.0}ms"))
                .collect::<Vec<_>>()
                .join(", ")
        );
        eprintln!(
            "  peak heap: {}; owners: {}",
            r.peak_bytes
                .iter()
                .map(|(p, b)| format!("{p} {:.1}MB", *b as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(", "),
            r.heap_owners
                .iter()
                .map(|(o, b)| format!("{o} {:.1}MB", *b as f64 / 1e6))
                .collect::<Vec<_>>()
                .join(", ")
        );
        results.push(r);
    }

    let mode = if smoke { "smoke" } else { "full" };
    let doc = json_document(mode, &results);
    std::fs::write(&out_path, &doc).expect("write bench JSON");
    println!("wrote {out_path}");
}
