//! Pipeline phase benchmark — the repo's tracked perf baseline.
//!
//! Times the six pipeline phases (order, symbolic, partition, deps,
//! sched, simulate) on the five paper matrices (grain 4, the paper's
//! Tables 2–3 configuration), the largest of them (CANN1072) again at
//! the production grain 25, and a large generated
//! 9-point grid, running the simulate phase under all three
//! [`SimulateEngine`]s, the deps phase under all three
//! [`DepsEngine`]s and the order phase under the `mmd` oracle and both
//! [`OrderEngine`]s, and writes the results as `BENCH_pipeline.json`.
//! The headline numbers are the large-grid speedups of the closed-form
//! engines over their per-element/per-operation oracles.
//!
//! ```text
//! cargo run --release -p spfactor-bench --bin bench_pipeline
//! cargo run --release -p spfactor-bench --bin bench_pipeline -- --smoke
//! cargo run --release -p spfactor-bench --bin bench_pipeline -- --out /tmp/b.json
//! ```
//!
//! `--smoke` replaces the matrix set with one tiny grid so CI can
//! validate the JSON schema in a fraction of a second; the schema is
//! identical to the full run. Every run also cross-checks that the
//! simulate engines return bit-identical reports and the deps engines
//! bit-identical graphs, aborting if they do not — a committed baseline
//! is always an equivalence witness too; likewise `OrderEngine::Direct`
//! must return the oracle's permutation.

use std::fmt::Write as _;
use std::time::Instant;

use spfactor::matrix::gen::paper::{self, TestMatrix};
use spfactor::partition::{build_dependencies, DepsEngine};
use spfactor::sched::block_allocation;
use spfactor::simulate::{simulate, SimulateEngine};
use spfactor::{OrderEngine, Ordering, Partition, PartitionParams, SymbolicFactor};

/// Schema identifier validated by `scripts/bench.sh --smoke`.
const SCHEMA: &str = "spfactor-bench-pipeline/5";

const ORDER_ENGINES: [OrderEngine; 2] = [OrderEngine::Direct, OrderEngine::Compressed];

const ENGINES: [SimulateEngine; 3] = [
    SimulateEngine::Element,
    SimulateEngine::Block,
    SimulateEngine::BlockParallel,
];

const DEPS_ENGINES: [DepsEngine; 3] = [
    DepsEngine::Element,
    DepsEngine::Sweep,
    DepsEngine::SweepParallel,
];

struct MatrixResult {
    name: String,
    n: usize,
    factor_entries: usize,
    nprocs: usize,
    phases_ms: [(&'static str, f64); 5],
    order_ms: Vec<(&'static str, f64)>,
    deps_ms: Vec<(&'static str, f64)>,
    simulate_ms: Vec<(&'static str, f64)>,
    traffic_total: usize,
    work_total: usize,
    speedup_block_parallel: f64,
    speedup_deps_sweep_parallel: f64,
    speedup_order_compressed: f64,
}

fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let v = f();
    (v, t.elapsed().as_secs_f64() * 1e3)
}

/// Best-of-`reps` timing; returns the last computed value.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut best = f64::INFINITY;
    let mut out = None;
    for _ in 0..reps {
        let (v, ms) = time_ms(&mut f);
        best = best.min(ms);
        out = Some(v);
    }
    (out.expect("at least one rep"), best)
}

/// Benchmarks one matrix end to end on the block scheme. `label` names
/// the result row (distinct labels keep same-matrix, different-grain
/// entries apart in the JSON).
fn bench_matrix(m: &TestMatrix, label: &str, nprocs: usize, grain: usize) -> MatrixResult {
    let reps = if m.pattern.n() <= 2_000 { 3 } else { 1 };

    // MMD on the oracle, then under both ordering engines (one driver,
    // without and with up-front compression). Direct must reproduce the
    // oracle; the compressed engine must stay within 5% of the direct
    // factor size (it is bit-identical on incompressible graphs, and at
    // worst regime-equivalent elsewhere).
    let (oracle_perm, oracle_ms) = best_of(reps, || {
        spfactor::order::mmd::multiple_minimum_degree(&m.pattern, 0)
    });
    let mut order_ms = vec![("oracle", oracle_ms)];
    let mut perms = Vec::new();
    for engine in ORDER_ENGINES {
        let (p, best) = best_of(reps, || {
            spfactor::order::order_with_engine(&m.pattern, Ordering::paper_default(), engine)
        });
        order_ms.push((engine.name(), best));
        perms.push(p);
    }
    let compressed_perm = perms.pop().expect("two permutations");
    let perm = perms.pop().expect("two permutations");
    assert_eq!(perm, oracle_perm, "{label}: Direct left the oracle");
    let (direct_ms, compressed_ms) = (order_ms[1].1, order_ms[2].1);
    let permuted = m.pattern.permute(&perm);
    let (factor, symbolic_ms) = time_ms(|| SymbolicFactor::from_pattern(&permuted));
    let compressed_entries =
        SymbolicFactor::from_pattern(&m.pattern.permute(&compressed_perm)).num_entries();
    let delta = (compressed_entries as f64 - factor.num_entries() as f64).abs()
        / factor.num_entries() as f64;
    assert!(
        delta <= 0.05,
        "{label}: compressed-engine factor entries {compressed_entries} deviate {:.1}% \
         from direct {}",
        delta * 100.0,
        factor.num_entries()
    );

    let params = PartitionParams::with_grain(grain);
    let (partition, partition_ms) = time_ms(|| Partition::build(&factor, &params));

    // Deps under each engine; cross-check the graphs agree bit for bit.
    let mut deps_ms = Vec::new();
    let mut graphs = Vec::new();
    for engine in DEPS_ENGINES {
        let (g, best) = best_of(reps, || build_dependencies(engine, &factor, &partition));
        deps_ms.push((engine.name(), best));
        graphs.push(g);
    }
    let deps = graphs.pop().expect("three graphs");
    for (engine, g) in DEPS_ENGINES.iter().zip(&graphs).skip(1) {
        assert_eq!(g, &graphs[0], "{label}: {engine:?} deps != element");
    }
    assert_eq!(deps, graphs[0], "{label}: SweepParallel deps != element");

    let (assignment, sched_ms) = time_ms(|| block_allocation(&partition, &deps, nprocs));

    // Simulate under each engine; keep the best of `reps` runs and check
    // the engines agree bit for bit.
    let mut simulate_ms = Vec::new();
    let mut reports = Vec::new();
    for engine in ENGINES {
        let (r, best) = best_of(reps, || simulate(engine, &factor, &partition, &assignment));
        simulate_ms.push((engine.name(), best));
        reports.push(r);
    }
    let (traffic, work) = &reports[0];
    for (engine, (t, w)) in ENGINES.iter().zip(&reports).skip(1) {
        assert_eq!(t, traffic, "{label}: {engine:?} traffic != element");
        assert_eq!(w, work, "{label}: {engine:?} work != element");
    }

    let speedup = |num: f64, den: f64| if den > 0.0 { num / den } else { f64::INFINITY };
    MatrixResult {
        name: label.to_string(),
        n: factor.n(),
        factor_entries: factor.num_entries(),
        nprocs,
        phases_ms: [
            // The phase column is the default engine (Direct); oracle
            // and per-engine timings live in order_ms.
            ("order", direct_ms),
            ("symbolic", symbolic_ms),
            ("partition", partition_ms),
            // Continuity with schema /1: the phase column stays the
            // element oracle; the per-engine timings live in deps_ms.
            ("deps", deps_ms[0].1),
            ("sched", sched_ms),
        ],
        speedup_deps_sweep_parallel: speedup(deps_ms[0].1, deps_ms[2].1),
        speedup_order_compressed: speedup(oracle_ms, compressed_ms),
        order_ms,
        deps_ms,
        traffic_total: traffic.total,
        work_total: work.total,
        speedup_block_parallel: speedup(simulate_ms[0].1, simulate_ms[2].1),
        simulate_ms,
    }
}

fn write_ms_object(s: &mut String, key: &str, entries: &[(&'static str, f64)]) {
    writeln!(s, "      \"{key}\": {{").unwrap();
    for (j, (name, ms)) in entries.iter().enumerate() {
        let comma = if j + 1 < entries.len() { "," } else { "" };
        writeln!(s, "        \"{name}\": {ms:.3}{comma}").unwrap();
    }
    writeln!(s, "      }},").unwrap();
}

fn json_document(mode: &str, large_grid: &str, results: &[MatrixResult]) -> String {
    let mut s = String::new();
    let large = results.iter().find(|r| r.name == large_grid);
    let large_speedup = large.map(|r| r.speedup_block_parallel).unwrap_or(0.0);
    let large_deps_speedup = large.map(|r| r.speedup_deps_sweep_parallel).unwrap_or(0.0);
    let large_order_speedup = large.map(|r| r.speedup_order_compressed).unwrap_or(0.0);
    writeln!(s, "{{").unwrap();
    writeln!(s, "  \"schema\": \"{SCHEMA}\",").unwrap();
    writeln!(s, "  \"mode\": \"{mode}\",").unwrap();
    writeln!(s, "  \"large_grid\": \"{large_grid}\",").unwrap();
    writeln!(s, "  \"large_grid_speedup\": {large_speedup:.2},").unwrap();
    writeln!(s, "  \"large_grid_deps_speedup\": {large_deps_speedup:.2},").unwrap();
    writeln!(
        s,
        "  \"large_grid_order_speedup\": {large_order_speedup:.2},"
    )
    .unwrap();
    writeln!(s, "  \"matrices\": [").unwrap();
    for (i, r) in results.iter().enumerate() {
        writeln!(s, "    {{").unwrap();
        writeln!(s, "      \"name\": \"{}\",", r.name).unwrap();
        writeln!(s, "      \"n\": {},", r.n).unwrap();
        writeln!(s, "      \"factor_entries\": {},", r.factor_entries).unwrap();
        writeln!(s, "      \"scheme\": \"block\",").unwrap();
        writeln!(s, "      \"nprocs\": {},", r.nprocs).unwrap();
        writeln!(s, "      \"phases_ms\": {{").unwrap();
        for (j, (name, ms)) in r.phases_ms.iter().enumerate() {
            let comma = if j + 1 < r.phases_ms.len() { "," } else { "" };
            writeln!(s, "        \"{name}\": {ms:.3}{comma}").unwrap();
        }
        writeln!(s, "      }},").unwrap();
        write_ms_object(&mut s, "order_ms", &r.order_ms);
        write_ms_object(&mut s, "deps_ms", &r.deps_ms);
        write_ms_object(&mut s, "simulate_ms", &r.simulate_ms);
        writeln!(s, "      \"traffic_total\": {},", r.traffic_total).unwrap();
        writeln!(s, "      \"work_total\": {},", r.work_total).unwrap();
        writeln!(
            s,
            "      \"speedup_order_compressed_over_oracle\": {:.2},",
            r.speedup_order_compressed
        )
        .unwrap();
        writeln!(
            s,
            "      \"speedup_deps_sweep_parallel_over_element\": {:.2},",
            r.speedup_deps_sweep_parallel
        )
        .unwrap();
        writeln!(
            s,
            "      \"speedup_block_parallel_over_element\": {:.2}",
            r.speedup_block_parallel
        )
        .unwrap();
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
        .unwrap_or_else(|| "BENCH_pipeline.json".to_string());

    let flag = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .and_then(|v| v.parse::<usize>().ok())
    };
    // The large grid runs at a production-style grain: with tiny grain-4
    // units the analytic engine degenerates to near-element granularity.
    let large_grain = flag("--grain").unwrap_or(25);

    // Each entry: (matrix, grain, result-row label).
    let (entries, large_grid, nprocs) = if smoke {
        // One tiny grid: fast enough for CI schema validation.
        let g = paper::lap_grid(12);
        let name = g.name.to_string();
        (vec![(g, 4, name.clone())], name, 4)
    } else if let Some(side) = flag("--side") {
        // Single-grid exploration mode.
        let big = paper::lap_grid(side);
        let name = big.name.to_string();
        (vec![(big, large_grain, name.clone())], name, 16)
    } else {
        let mut es: Vec<(TestMatrix, usize, String)> = paper::all()
            .into_iter()
            .map(|m| {
                let name = m.name.to_string();
                (m, 4, name)
            })
            .collect();
        // The largest paper matrix again at the production grain: the
        // closed-form engines' collapse is grain-sensitive, so this row
        // shows what they do on an irregular problem at the grain the
        // large grid runs at (the grain-4 rows keep the paper's Tables
        // 2-3 configuration).
        let cann = paper::cann1072();
        let cann_label = format!("{}-g{large_grain}", cann.name);
        es.push((cann, large_grain, cann_label));
        // The large-grid stressor: 9-point Laplacian on a 200x200 grid
        // (40 000 columns), far beyond the paper's <=1138-column inputs.
        let big = paper::lap_grid(200);
        let big_name = big.name.to_string();
        es.push((big, large_grain, big_name.clone()));
        (es, big_name, 16)
    };

    let mut results = Vec::new();
    for (m, grain, label) in &entries {
        eprintln!(
            "benchmarking {label} (n = {}, grain {grain})...",
            m.pattern.n()
        );
        results.push(bench_matrix(m, label, nprocs, *grain));
    }

    let mode = if smoke { "smoke" } else { "full" };
    let doc = json_document(mode, &large_grid, &results);
    std::fs::write(&out_path, &doc).expect("write bench JSON");

    for r in &results {
        let ord: String = r
            .order_ms
            .iter()
            .map(|(n, ms)| format!("{n} {ms:.2}ms"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{:>10}  n={:<7} order: {}  (speedup {:.1}x)",
            r.name, r.n, ord, r.speedup_order_compressed
        );
        let sim: String = r
            .simulate_ms
            .iter()
            .map(|(n, ms)| format!("{n} {ms:.2}ms"))
            .collect::<Vec<_>>()
            .join(", ");
        let dep: String = r
            .deps_ms
            .iter()
            .map(|(n, ms)| format!("{n} {ms:.2}ms"))
            .collect::<Vec<_>>()
            .join(", ");
        println!(
            "{:>10}  {:<9} deps: {}  (speedup {:.1}x)",
            "", "", dep, r.speedup_deps_sweep_parallel
        );
        println!(
            "{:>10}  {:<9} simulate: {}  (speedup {:.1}x)",
            "", "", sim, r.speedup_block_parallel
        );
    }
    println!("wrote {out_path}");
}
