//! The table/figure regenerators (the source of `EXPERIMENTS.md`'s
//! measured columns): Tables 1–5 and Figures 2–3 of the paper, printed
//! side by side with the published values, and the four studies behind
//! the "beyond the paper" entries — `ablation`, `orderings`, `hotspot`,
//! `mp`.
//!
//! ```text
//! cargo run --release -p spfactor-bench --bin all_tables                  # all eleven
//! cargo run --release -p spfactor-bench --bin all_tables -- table2 fig3   # the named ones
//! cargo run --release -p spfactor-bench --bin all_tables -- hotspot:LAP30:8
//! ```
//!
//! `ablation` and `hotspot` take `:MATRIX:P` (defaults LAP30 and 16).

use spfactor::matrix::gen::paper::TestMatrix;
use spfactor::matrix::plot::ascii_lower_exact;
use spfactor::matrix::stats::structure_stats;
use spfactor::partition::{identify_clusters, ClusterKind, Partition, PartitionParams, UnitShape};
use spfactor::sched::{
    alt, block_allocation, proportional::proportional_allocation, wrap_allocation,
};
use spfactor::simulate::timed::{simulate_timed, OrderPolicy};
use spfactor::{
    ExecutionBackend, NetworkModel, Ordering, Pipeline, Scheme, SymbolicFactor, SymmetricPattern,
    TrafficReport,
};
use spfactor_bench::{paper, rel, run_block, run_wrap};
use std::time::Instant;

/// A section and the `:`-separated arguments its name was given.
type Section = fn(&[&str]);

const SECTIONS: [(&str, Section); 11] = [
    ("table1", |_| table1()),
    ("table2", |_| table2()),
    ("table3", |_| table3()),
    ("table4", |_| table4()),
    ("table5", |_| table5()),
    ("fig2", |_| fig2()),
    ("fig3", |_| fig3()),
    ("ablation", ablation),
    ("orderings", |_| orderings()),
    ("hotspot", hotspot),
    ("mp", |_| mp()),
];

fn main() {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let named: Vec<Vec<&str>> = words.iter().map(|w| w.split(':').collect()).collect();
    if let Some(unknown) = named
        .iter()
        .find(|n| SECTIONS.iter().all(|(s, _)| *s != n[0]))
    {
        eprintln!(
            "unknown section {}; the sections are {}",
            unknown[0],
            SECTIONS.map(|(s, _)| s).join(", ")
        );
        std::process::exit(2);
    }
    for (name, section) in SECTIONS {
        if named.is_empty() {
            run(name, section, &[]);
        }
        for n in named.iter().filter(|n| n[0] == name) {
            run(name, section, &n[1..]);
        }
    }
}

fn run(name: &str, section: Section, args: &[&str]) {
    println!("==================== {name} ====================");
    section(args);
    println!();
}

/// The `[MATRIX] [P]` arguments of a study: a paper matrix by name
/// (default LAP30) and a processor count (default 16).
fn matrix_and_procs(args: &[&str]) -> (TestMatrix, usize) {
    let name = args.first().copied().unwrap_or("LAP30");
    let m = spfactor::matrix::gen::paper::all()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .unwrap_or_else(|| {
            eprintln!("unknown matrix {name:?}");
            std::process::exit(2);
        });
    let nprocs = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(16);
    (m, nprocs)
}

/// Table 1: the test matrices and their factor sizes under the paper's
/// ordering.
fn table1() {
    println!("Table 1: Selected test matrices (paper / measured)");
    println!(
        "{:>9} | {:>5} {:>5} | {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6}",
        "matrix", "n(p)", "n", "nnzA(p)", "nnzA", "dev", "nnzL(p)", "nnzL", "dev"
    );
    for (m, row) in spfactor::matrix::gen::paper::all()
        .iter()
        .zip(&paper::TABLE1)
    {
        assert_eq!(m.name, row.matrix);
        let s = structure_stats(&m.pattern);
        let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&m.pattern.permute(&perm));
        println!(
            "{:>9} | {:>5} {:>5} | {:>7} {:>7} {:>6} | {:>7} {:>7} {:>6}",
            m.name,
            row.n,
            s.n,
            row.nnz_a,
            s.nnz_lower,
            rel(s.nnz_lower as f64, row.nnz_a as f64),
            row.nnz_l,
            f.nnz_lower(),
            rel(f.nnz_lower() as f64, row.nnz_l as f64),
        );
    }
    println!();
    println!("(p) columns are the paper's values. LAP30 is exact by construction;");
    println!("the other four are structure-equivalent substitutes (DESIGN.md), and");
    println!("nnz(L) additionally differs through MMD tie-breaking.");
}

/// Table 2: block-mapping communication (total and mean data traffic)
/// for grain sizes 4 and 25 at P = 4, 16, 32.
fn table2() {
    println!("Table 2: Block mapping communication (paper / measured)");
    println!(
        "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} | {:>7} {:>7}",
        "matrix",
        "P",
        "tot g4p",
        "tot g4",
        "dev",
        "tot g25p",
        "tot g25",
        "dev",
        "mean g4",
        "mean g25"
    );
    let matrices = spfactor::matrix::gen::paper::all();
    for row in &paper::TABLE2 {
        let m = matrices.iter().find(|m| m.name == row.matrix).unwrap();
        let g4 = run_block(m, 4, 4, row.nprocs);
        let g25 = run_block(m, 25, 4, row.nprocs);
        println!(
            "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>8} {:>8} {:>6} | {:>7.1} {:>7.1}",
            row.matrix,
            row.nprocs,
            row.total_g4,
            g4.traffic.total,
            rel(g4.traffic.total as f64, row.total_g4 as f64),
            row.total_g25,
            g25.traffic.total,
            rel(g25.traffic.total as f64, row.total_g25 as f64),
            g4.traffic.mean_f64(),
            g25.traffic.mean_f64(),
        );
    }
    println!();
    println!("Shape checks the paper draws from this table:");
    println!("  * total communication increases with P for every matrix;");
    println!("  * raising the grain from 4 to 25 reduces communication substantially.");
}

/// Table 3: block-mapping work distribution (mean work and load
/// imbalance factor Δ) for grain sizes 4 and 25 at P = 4, 16, 32.
fn table3() {
    println!("Table 3: Block mapping work distribution (paper / measured)");
    println!(
        "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7} | {:>7} {:>7}",
        "matrix", "P", "mean(p)", "mean", "dev", "Δg4(p)", "Δg4", "Δg25(p)", "Δg25"
    );
    let matrices = spfactor::matrix::gen::paper::all();
    for row in &paper::TABLE3 {
        let m = matrices.iter().find(|m| m.name == row.matrix).unwrap();
        let g4 = run_block(m, 4, 4, row.nprocs);
        let g25 = run_block(m, 25, 4, row.nprocs);
        println!(
            "{:>9} {:>3} | {:>8} {:>8.0} {:>6} | {:>7.2} {:>7.2} | {:>7.2} {:>7.2}",
            row.matrix,
            row.nprocs,
            row.mean_work,
            g4.work.mean(),
            rel(g4.work.mean(), row.mean_work as f64),
            row.delta_g4,
            g4.work.imbalance(),
            row.delta_g25,
            g25.work.imbalance(),
        );
    }
    println!();
    println!("Shape checks: Δ grows with the grain size and with P — blocking");
    println!("trades balance for locality.");
}

/// Table 4: variation with minimum cluster width on LAP30 (g = 4). The
/// paper sweeps widths 2, 4, 8; we extend to 12, 16 and 24 because our
/// MMD's supernode distribution shifts the crossover.
fn table4() {
    let m = spfactor::matrix::gen::paper::lap30();
    println!("Table 4: Variation with minimum cluster width, LAP30, g = 4");
    println!(
        "{:>5} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7} | {:>7} {:>7}",
        "width", "P", "tot(p)", "tot", "dev", "mean(p)", "mean", "Δ(p)", "Δ"
    );
    for row in &paper::TABLE4 {
        let r = run_block(&m, 4, row.width, row.nprocs);
        println!(
            "{:>5} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7.1} | {:>7.2} {:>7.2}",
            row.width,
            row.nprocs,
            row.total,
            r.traffic.total,
            rel(r.traffic.total as f64, row.total as f64),
            row.mean,
            r.traffic.mean_f64(),
            row.delta,
            r.work.imbalance(),
        );
    }
    println!();
    println!("Extended sweep (no paper values; shows where our crossover falls):");
    println!("{:>5} {:>3} | {:>8} | {:>7}", "width", "P", "total", "Δ");
    for width in [12usize, 16, 24] {
        for nprocs in [4usize, 16, 32] {
            let r = run_block(&m, 4, width, nprocs);
            println!(
                "{:>5} {:>3} | {:>8} | {:>7.2}",
                width,
                nprocs,
                r.traffic.total,
                r.work.imbalance()
            );
        }
    }
    println!();
    println!("Shape: widening the acceptable cluster eventually cuts traffic and");
    println!("raises Δ — communication and balance move complementarily.");
}

/// Table 5: the wrap-mapped column baseline at P = 1, 4, 16, 32 on all
/// five matrices.
fn table5() {
    println!("Table 5: Wrap mapping (paper / measured)");
    println!(
        "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7} | {:>8} {:>8} | {:>6} {:>6}",
        "matrix", "P", "tot(p)", "tot", "dev", "mean(p)", "mean", "Wmean(p)", "Wmean", "Δ(p)", "Δ"
    );
    let matrices = spfactor::matrix::gen::paper::all();
    for row in &paper::TABLE5 {
        let m = matrices.iter().find(|m| m.name == row.matrix).unwrap();
        let r = run_wrap(m, row.nprocs);
        println!(
            "{:>9} {:>3} | {:>8} {:>8} {:>6} | {:>7} {:>7.1} | {:>8} {:>8.0} | {:>6.2} {:>6.2}",
            row.matrix,
            row.nprocs,
            row.total,
            r.traffic.total,
            rel(r.traffic.total as f64, row.total as f64),
            row.mean,
            r.traffic.mean_f64(),
            row.mean_work,
            r.work.mean(),
            row.delta,
            r.work.imbalance(),
        );
    }
    println!();
    println!("Shape checks: P = 1 communicates nothing; traffic grows with P;");
    println!("Δ stays small — wrap's uniform column distribution balances well.");
}

/// Figure 2: the filled 41×41 matrix of the 5-point finite-element 5×5
/// grid under MMD, rendered in ASCII, plus the cluster decomposition the
/// paper describes in §3.1.
fn fig2() {
    let m = spfactor::matrix::gen::paper::fig2_grid();
    let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
    let factor = SymbolicFactor::from_pattern(&m.pattern.permute(&perm));
    println!(
        "Figure 2: {} — n = {}, nnz(L) = {} (fill {})",
        m.description,
        m.pattern.n(),
        factor.nnz_lower(),
        factor.fill_in()
    );
    println!("{}", ascii_lower_exact(&factor.to_pattern()));

    let mut params = PartitionParams::with_grain(4);
    params.min_cluster_width = 2;
    let clusters = identify_clusters(&factor, &params);
    let strips = clusters.iter().filter(|c| !c.is_single()).count();
    println!(
        "{} clusters ({} strips, {} single columns):",
        clusters.len(),
        strips,
        clusters.len() - strips
    );
    for c in &clusters {
        match &c.kind {
            ClusterKind::SingleColumn => println!("  cluster {:2}: column {}", c.id + 1, c.cols.lo),
            ClusterKind::Strip { rect_rows } => println!(
                "  cluster {:2}: columns {}, triangle width {}, {} rectangle(s)",
                c.id + 1,
                c.cols,
                c.width(),
                rect_rows.len()
            ),
        }
    }
}

/// Figure 3: how a multi-column cluster is partitioned into unit blocks
/// — the triangle into sub-triangles and interior rectangles, each
/// below-rectangle into a grid — and the §3.4 allocation order.
fn fig3() {
    // A dense 8-column cluster with two below-rectangles, mimicking the
    // figure: columns 0..8 dense; rows 10..14 and 16..18 dense below.
    let mut edges = Vec::new();
    for a in 0..8usize {
        for b in (a + 1)..8 {
            edges.push((b, a));
        }
        for r in 10..14 {
            edges.push((r, a));
        }
        for r in 16..18 {
            edges.push((r, a));
        }
    }
    // Make the tail rows reach each other so the factor keeps them dense.
    for a in 10..19usize {
        for b in (a + 1)..19 {
            edges.push((b, a));
        }
    }
    let p = SymmetricPattern::from_edges(19, edges);
    let f = SymbolicFactor::from_pattern(&p);
    let mut params = PartitionParams::with_grain(4);
    params.min_cluster_width = 2;
    let part = Partition::build(&f, &params);

    println!("Figure 3: partitioning a cluster into unit blocks (grain 4)");
    for cl in &part.clusters {
        println!(
            "cluster {}: columns {} ({})",
            cl.id,
            cl.cols,
            if cl.is_single() { "single" } else { "strip" }
        );
    }
    println!();
    println!("unit blocks in allocation order:");
    for u in &part.units {
        match &u.shape {
            UnitShape::Column { col } => {
                println!(
                    "  unit {:2}: column {col} ({} elems, work {})",
                    u.id, u.elements, u.work
                )
            }
            UnitShape::Triangle { extent } => println!(
                "  unit {:2}: triangle {extent} ({} elems, work {})",
                u.id, u.elements, u.work
            ),
            UnitShape::Rectangle { cols, rows } => println!(
                "  unit {:2}: rectangle cols {cols} x rows {rows} ({} elems, work {})",
                u.id, u.elements, u.work
            ),
        }
    }
}

/// Allocation-strategy ablation: the paper's block heuristic against
/// wrap mapping and the alternative allocators, measured on traffic,
/// load imbalance, and timed makespan (both intra-processor ordering
/// policies). Quantifies the design choices `DESIGN.md` calls out and
/// the paper's "more sophisticated strategies" remark.
fn ablation(args: &[&str]) {
    let (m, nprocs) = matrix_and_procs(args);
    let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
    let f = SymbolicFactor::from_pattern(&m.pattern.permute(&perm));
    let part = Partition::build(&f, &PartitionParams::with_grain(4));
    let deps = spfactor::partition::dependencies(&f, &part);
    let cols = Partition::columns(&f);
    let col_deps = spfactor::partition::dependencies(&f, &cols);
    let model = NetworkModel::default();

    println!(
        "{} — P = {nprocs}, grain 4, comm model (latency {}, per-element {}, per-work {})",
        m.name, model.latency, model.per_element, model.per_work
    );
    println!(
        "{:>16} | {:>8} | {:>6} | {:>10} | {:>10}",
        "allocator", "traffic", "Δ", "T scan", "T cp-first"
    );

    let rows: Vec<(&str, &Partition, &spfactor::DepGraph, spfactor::Assignment)> = vec![
        (
            "block (paper)",
            &part,
            &deps,
            block_allocation(&part, &deps, nprocs),
        ),
        (
            "wrap columns",
            &cols,
            &col_deps,
            wrap_allocation(&cols, nprocs),
        ),
        (
            "round-robin",
            &part,
            &deps,
            alt::round_robin_allocation(&part, nprocs),
        ),
        (
            "greedy work",
            &part,
            &deps,
            alt::greedy_work_allocation(&part, nprocs),
        ),
        (
            "locality-first",
            &part,
            &deps,
            alt::locality_first_allocation(&part, &deps, nprocs),
        ),
        (
            "proportional",
            &part,
            &deps,
            proportional_allocation(&f, &part, nprocs),
        ),
    ];

    for (label, p, d, a) in rows {
        let traffic = spfactor::simulate::data_traffic(&f, p, &a);
        let work = spfactor::simulate::work_distribution(p, &a);
        let scan = simulate_timed(&f, p, d, &a, &model, OrderPolicy::ScanOrder, None);
        let cp = simulate_timed(&f, p, d, &a, &model, OrderPolicy::CriticalPathFirst, None);
        println!(
            "{:>16} | {:>8} | {:>6.2} | {:>10.0} | {:>10.0}",
            label,
            traffic.total,
            work.imbalance(),
            scan.makespan,
            cp.makespan,
        );
    }
    println!();
    println!("Traffic and Δ are the paper's metrics; T columns add dependency");
    println!("delays (timed DAG simulation) under the two intra-processor");
    println!("ordering policies — the half of scheduling the paper leaves open.");
}

/// Ordering ablation: factor size, operation count, and etree height of
/// every ordering on the paper's test set. Table 1's factor sizes are
/// ordering-dependent; this quantifies how much.
fn orderings() {
    let methods: [(&str, Ordering); 5] = [
        ("natural", Ordering::Natural),
        ("rcm", Ordering::ReverseCuthillMcKee),
        ("mmd (paper)", Ordering::MultipleMinimumDegree { delta: 0 }),
        ("nested diss.", Ordering::NestedDissection),
        ("min fill", Ordering::MinimumFill),
    ];
    println!(
        "{:>9} | {:>13} | {:>8} {:>8} {:>10} {:>7}",
        "matrix", "ordering", "nnz(L)", "fill", "work", "height"
    );
    for m in spfactor::matrix::gen::paper::all() {
        for (label, method) in methods {
            let perm = spfactor::order::order(&m.pattern, method);
            let f = SymbolicFactor::from_pattern(&m.pattern.permute(&perm));
            println!(
                "{:>9} | {:>13} | {:>8} {:>8} {:>10} {:>7}",
                m.name,
                label,
                f.nnz_lower(),
                f.fill_in(),
                f.paper_work(),
                f.etree().height(),
            );
        }
        println!();
    }
    println!("'height' is the elimination-tree height — the column-level");
    println!("critical path; 'work' uses the paper's 2-per-pair cost model.");
}

fn heat(t: &TrafficReport) -> String {
    let p = t.nprocs;
    let max = t.max_pair().max(1);
    let glyphs = [' ', '.', ':', '+', '*', '#', '@'];
    let mut out = String::new();
    out.push_str("     ");
    for dst in 0..p {
        out.push_str(&format!("{:>2}", dst % 100 / 10));
    }
    out.push('\n');
    for src in 0..p {
        out.push_str(&format!("{src:>4} "));
        for dst in 0..p {
            let v = t.pair_matrix[src * p + dst];
            let k = if v == 0 {
                0
            } else {
                1 + (v * (glyphs.len() - 2)) / max
            };
            out.push(' ');
            out.push(glyphs[k.min(glyphs.len() - 1)]);
        }
        out.push('\n');
    }
    out
}

/// Hot-spot analysis: the processor-pair transfer matrices of the block
/// and wrap schemes, visualized as ASCII heat maps. Substantiates §5's
/// remark that "wrap-mappings usually lead to processors communicating
/// with a large number of other processors ... and possibly to
/// hot-spots", while block schemes confine communication to small groups.
fn hotspot(args: &[&str]) {
    let (m, nprocs) = matrix_and_procs(args);
    let block = Pipeline::new(m.pattern.clone())
        .grain(25)
        .processors(nprocs)
        .run();
    let wrap = Pipeline::new(m.pattern)
        .scheme(Scheme::Wrap)
        .processors(nprocs)
        .run();
    for (label, t) in [("block (g=25)", &block.traffic), ("wrap", &wrap.traffic)] {
        let partners: Vec<usize> = (0..nprocs).map(|p| t.partners(p)).collect();
        let mean_partners = partners.iter().sum::<usize>() as f64 / nprocs.max(1) as f64;
        println!(
            "{} — {label}: total {} | hottest pair {} | mean partners {:.1}",
            m.name,
            t.total,
            t.max_pair(),
            mean_partners
        );
        println!("{}", heat(t));
    }
    println!("rows = owners (senders), cols = fetchers; darker = more elements.");
}

/// Message-passing runtime study: executes the schedule on the virtual
/// machine for every paper matrix at several processor counts and
/// reports the observed communication, the `simulate_timed` makespan of
/// the same schedule, and the wall time of the (threaded) execution
/// itself — the two wall-clock columns are the only output here that
/// varies by run. `msgs` is the paper's step 5 ("consolidate the
/// non-local memory access information for each processor"), block
/// against wrap: the executor batches one request per (fetching unit,
/// owner processor).
fn mp() {
    let model = NetworkModel::default();
    println!("Message-passing execution (grain 25 for block mapping)");
    println!(
        "{:>9} {:>5} {:>3} | {:>9} {:>8} {:>10} {:>9} | {:>9} {:>9}",
        "matrix", "map", "P", "traffic", "msgs", "bytes", "idle ms", "makespan", "wall ms"
    );
    for m in spfactor::matrix::gen::paper::all() {
        for scheme in [Scheme::Block, Scheme::Wrap] {
            for nprocs in [4usize, 16] {
                let mut pipe = Pipeline::new(m.pattern.clone())
                    .scheme(scheme)
                    .processors(nprocs)
                    .backend(ExecutionBackend::MessagePassing);
                if scheme == Scheme::Block {
                    pipe = pipe.grain(25);
                }
                let wall = Instant::now();
                let r = pipe.run();
                let wall_ms = wall.elapsed().as_secs_f64() * 1e3;
                let exec = r.execution.as_ref().expect("backend ran");
                let idle_ms: f64 =
                    exec.per_proc.iter().map(|s| s.idle_ns).sum::<u64>() as f64 / 1e6;
                let plan = &r.plan;
                let (f, part, deps, assign) = (
                    plan.factor(),
                    plan.partition(),
                    plan.deps(),
                    plan.assignment(),
                );
                let timed =
                    simulate_timed(f, part, deps, assign, &model, OrderPolicy::ScanOrder, None);
                println!(
                    "{:>9} {:>5} {:>3} | {:>9} {:>8} {:>10} {:>9.1} | {:>9.1} {:>9.1}",
                    m.name,
                    scheme.name(),
                    nprocs,
                    exec.traffic_report().total,
                    exec.msgs_total(),
                    exec.bytes_total(),
                    idle_ms,
                    timed.makespan,
                    wall_ms,
                );
                assert_eq!(
                    exec.traffic_report(),
                    r.traffic,
                    "observed traffic diverged from the analytic prediction"
                );
                assert_eq!(
                    exec.message_counts(),
                    spfactor::simulate::messages(f, part, deps, assign),
                    "observed messages diverged from the analytic prediction"
                );
            }
        }
    }
    println!();
    println!("\"makespan\" is simulate_timed under the default NetworkModel (latency");
    println!(
        "{}, per-element {}, per-work {}; dependency stalls included);",
        model.latency, model.per_element, model.per_work
    );
    println!("\"wall ms\" is the host wall time of the whole pipeline including the");
    println!("threaded virtual execution.");
}
