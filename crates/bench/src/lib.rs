//! Benchmark and table-regeneration harness.
//!
//! One binary regenerates every table/figure of the paper and the
//! studies beyond it (one section with e.g. `cargo run --release -p
//! spfactor-bench --bin all_tables -- table2`), plus Criterion benches
//! for the pipeline stages. The [`paper`] module embeds the
//! published numbers so every regenerated table prints *paper vs measured*
//! side by side — `EXPERIMENTS.md` is written from these outputs.

pub mod paper;

use spfactor::{Pipeline, PipelineResult, Scheme};

/// The three processor counts of Tables 2–4.
pub const PROCS: [usize; 3] = [4, 16, 32];

/// The two grain sizes of Tables 2–3.
pub const GRAINS: [usize; 2] = [4, 25];

/// Runs the block scheme.
pub fn run_block(
    m: &spfactor::matrix::gen::paper::TestMatrix,
    grain: usize,
    width: usize,
    nprocs: usize,
) -> PipelineResult {
    Pipeline::new(m.pattern.clone())
        .grain(grain)
        .min_cluster_width(width)
        .processors(nprocs)
        .run()
}

/// Runs the wrap-mapped baseline.
pub fn run_wrap(m: &spfactor::matrix::gen::paper::TestMatrix, nprocs: usize) -> PipelineResult {
    Pipeline::new(m.pattern.clone())
        .scheme(Scheme::Wrap)
        .processors(nprocs)
        .run()
}

/// Formats a relative deviation "ours vs paper" as e.g. `+12%`.
pub fn rel(ours: f64, paper: f64) -> String {
    if paper == 0.0 {
        if ours == 0.0 {
            "=".to_string()
        } else {
            "n/a".to_string()
        }
    } else {
        format!("{:+.0}%", 100.0 * (ours - paper) / paper)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rel_formatting() {
        assert_eq!(rel(110.0, 100.0), "+10%");
        assert_eq!(rel(90.0, 100.0), "-10%");
        assert_eq!(rel(0.0, 0.0), "=");
        assert_eq!(rel(5.0, 0.0), "n/a");
    }

    #[test]
    fn paper_tables_are_consistent() {
        // Table 3's mean work times P must equal Table 5's P = 1 total.
        for (name, wtot) in paper::TABLE5_WTOT {
            let rows: Vec<_> = paper::TABLE3.iter().filter(|r| r.matrix == name).collect();
            for r in rows {
                // The paper rounds the mean, so allow one unit per proc.
                let prod = r.mean_work * r.nprocs;
                assert!(
                    prod.abs_diff(wtot) <= r.nprocs,
                    "{name} P = {}: {} vs {}",
                    r.nprocs,
                    prod,
                    wtot
                );
            }
        }
    }
}
