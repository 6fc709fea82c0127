//! Emits the full metrics surface of one pipeline run as a single JSON
//! document — every span, counter and gauge documented in
//! `docs/METRICS.md`, covering all six phases (order, symbolic,
//! partition, sched, simulate, numeric) on the paper's LAP30 problem.
//!
//! ```text
//! cargo run -p spfactor-bench --bin metrics
//! ```

use std::sync::Arc;

use spfactor::simulate::timed::{simulate_timed, NetworkModel, OrderPolicy};
use spfactor::{numeric, trace, Pipeline, Recorder};

fn main() {
    // One recorder in scope for everything below: the pipeline and the
    // two extra calls find it there.
    let rec = Arc::new(Recorder::new());
    let _scope = trace::scope(&rec);

    // Phases 1–5 (order → symbolic → partition → sched → simulate) on
    // the paper's primary configuration: LAP30, grain 4, 16 processors.
    let m = spfactor::matrix::gen::paper::lap30();
    let result = Pipeline::new(m.pattern.clone())
        .grain(4)
        .processors(16)
        .run();

    // Timed simulation (idle-time breakdown of the same schedule).
    simulate_timed(
        result.plan.factor(),
        result.plan.partition(),
        result.plan.deps(),
        result.plan.assignment(),
        &NetworkModel::default(),
        OrderPolicy::ScanOrder,
        None,
    );

    // Phase 6: numeric factorization by the schedule executor.
    {
        let _phase = rec.span("phase.numeric");
        let permuted = m.pattern.permute(result.plan.permutation());
        let a = spfactor::matrix::gen::spd_from_pattern(&permuted, 42);
        numeric::cholesky_block_parallel(
            &a,
            result.plan.factor(),
            result.plan.partition(),
            result.plan.deps(),
            result.plan.assignment(),
        )
        .expect("LAP30 block-parallel factorization");
    }

    println!("{}", rec.to_json());
}
