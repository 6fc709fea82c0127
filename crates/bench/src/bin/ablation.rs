//! Allocation-strategy ablation: the paper's block heuristic against
//! wrap mapping and the alternative allocators, measured on traffic,
//! load imbalance, and timed makespan (both intra-processor ordering
//! policies). Quantifies the design choices `DESIGN.md` calls out and
//! the paper's "more sophisticated strategies" remark.
//!
//! ```text
//! cargo run --release -p spfactor-bench --bin ablation [MATRIX] [P]
//! ```

use spfactor::sched::{
    alt, block_allocation, proportional::proportional_allocation, wrap_allocation,
};
use spfactor::simulate::timed::{simulate_timed, CommModel, OrderPolicy};
use spfactor::{Ordering, Partition, PartitionParams, SymbolicFactor};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "LAP30".into());
    let nprocs: usize = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(16);
    let m = spfactor::matrix::gen::paper::all()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(&name))
        .unwrap_or_else(|| {
            eprintln!("unknown matrix {name:?}");
            std::process::exit(2);
        });
    let perm = spfactor::order::order(&m.pattern, Ordering::paper_default());
    let f = SymbolicFactor::from_pattern(&m.pattern.permute(&perm));
    let part = Partition::build(&f, &PartitionParams::with_grain(4));
    let deps = spfactor::partition::dependencies(&f, &part);
    let cols = Partition::columns(&f);
    let col_deps = spfactor::partition::dependencies(&f, &cols);
    let model = CommModel::default();

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
