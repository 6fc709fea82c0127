//! Runs the full pipeline on a user-supplied matrix file — the path for
//! anyone holding the original Harwell-Boeing test set (or any symmetric
//! MatrixMarket file).
//!
//! ```text
//! cargo run --release --example custom_matrix -- path/to/matrix.mtx [P] [grain]
//! cargo run --release --example custom_matrix -- path/to/1138bus.psa 16 25
//! ```
//!
//! Files ending in `.mtx` are parsed as MatrixMarket; anything else is
//! tried as Harwell-Boeing.

use spfactor::{Pipeline, Scheme};

fn main() {
    let mut args = std::env::args().skip(1);
    let Some(path) = args.next() else {
        eprintln!("usage: custom_matrix <file> [nprocs] [grain]");
        std::process::exit(2);
    };
    let nprocs: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(16);
    let grain: usize = args.next().and_then(|s| s.parse().ok()).unwrap_or(4);

    let coo = if path.ends_with(".mtx") {
        spfactor::matrix::io::read_matrix_market_file(&path)
    } else {
        spfactor::matrix::io::read_hb_file(&path)
    };
    let coo = coo.unwrap_or_else(|e| {
        eprintln!("failed to read {path}: {e}");
        std::process::exit(1);
    });
    let pattern = coo.to_pattern();
    let stats = spfactor::matrix::stats::structure_stats(&pattern);
    println!(
        "{path}: n = {}, nnz(lower) = {}, components = {}, bandwidth = {}",
        stats.n, stats.nnz_lower, stats.components, stats.bandwidth
    );

    let block = Pipeline::new(pattern.clone())
        .grain(grain)
        .processors(nprocs)
        .run();
    let wrap = Pipeline::new(pattern)
        .scheme(Scheme::Wrap)
        .processors(nprocs)
        .run();
    println!(
        "factor: nnz(L) = {} (fill {}), {} clusters, {} unit blocks",
        block.plan.factor().nnz_lower(),
        block.plan.factor().fill_in(),
        block.plan.partition().clusters.len(),
        block.plan.partition().num_units()
    );
    println!(
        "block  (g = {grain}): traffic {:>8} (mean {:>6.1}), Δ = {:.2}",
        block.traffic.total,
        block.traffic.mean_f64(),
        block.work.imbalance()
    );
    println!(
        "wrap           : traffic {:>8} (mean {:>6.1}), Δ = {:.2}",
        wrap.traffic.total,
        wrap.traffic.mean_f64(),
        wrap.work.imbalance()
    );
}
