//! Sweeps the grain size and processor count on one matrix and prints the
//! communication / load-balance trade-off curve — the parameter study
//! behind the paper's Tables 2 and 3.
//!
//! ```text
//! cargo run --release --example tradeoff_sweep [MATRIX]
//! ```
//!
//! `MATRIX` is one of `BUS1138 | CANN1072 | DWT512 | LAP30 | LSHP1009`
//! (default `LAP30`).

use spfactor::Pipeline;

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "LAP30".into());
    let m = spfactor::matrix::gen::paper::all()
        .into_iter()
        .find(|m| m.name.eq_ignore_ascii_case(&name))
        .unwrap_or_else(|| {
            eprintln!("unknown matrix {name:?}; expected BUS1138/CANN1072/DWT512/LAP30/LSHP1009");
            std::process::exit(2);
        });
    println!("{} ({})", m.name, m.description);
    println!(
        "{:>6} {:>4} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "grain", "P", "traffic", "mean", "Wmean", "Δ", "units"
    );
    for grain in [1, 2, 4, 8, 16, 25, 50, 100] {
        for nprocs in [4, 16, 32] {
            let r = Pipeline::new(m.pattern.clone())
                .grain(grain)
                .processors(nprocs)
                .run();
            println!(
                "{:>6} {:>4} {:>8} {:>8.1} {:>8.0} {:>8.2} {:>8}",
                grain,
                nprocs,
                r.traffic.total,
                r.traffic.mean_f64(),
                r.work.mean(),
                r.work.imbalance(),
                r.plan.partition().num_units()
            );
        }
    }
    println!();
    println!("Reading the curve: larger grains cut traffic (more data re-use per");
    println!("block) and raise Δ (fewer schedulable units) — the paper's trade-off.");
}
