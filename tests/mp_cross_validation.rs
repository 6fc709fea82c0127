//! Cross-validation of the message-passing runtime against the analytic
//! simulator and the sequential factorization, on the paper's LAP30
//! problem (9-point Laplacian on a 30×30 grid) for both mapping schemes,
//! and on all five paper matrices for the message counters.
//!
//! This is the acceptance test of the `spfactor-mp` subsystem: the
//! executed factor must match `spfactor_numeric::cholesky` to 1e-10 (it
//! is in fact bit-identical), the *observed* per-processor traffic must
//! equal `data_traffic`'s prediction exactly — totals, per processor,
//! and per processor pair — and every processor's message and byte
//! counters must equal `simulate::messages`' prediction.

use spfactor::{
    matrix::{gen, SymmetricPattern},
    mp, numeric, partition, sched, simulate, ExecutionBackend, NetworkModel, Ordering, Partition,
    PartitionParams, Pipeline, Scheme, SymbolicFactor,
};

struct Case {
    name: String,
    a: spfactor::matrix::SymmetricCsc,
    factor: SymbolicFactor,
    partition: Partition,
    deps: spfactor::DepGraph,
    assignment: spfactor::Assignment,
}

fn case(matrix: &str, pattern: &SymmetricPattern, scheme: Scheme, nprocs: usize) -> Case {
    let perm = spfactor::order::order(pattern, Ordering::paper_default());
    let permuted = pattern.permute(&perm);
    let a = gen::spd_from_pattern(&permuted, 7);
    let factor = SymbolicFactor::from_pattern(&permuted);
    let (partition, assignment);
    let deps;
    match scheme {
        Scheme::Block => {
            partition = Partition::build(&factor, &PartitionParams::with_grain(4));
            deps = partition::dependencies(&factor, &partition);
            assignment = sched::block_allocation(&partition, &deps, nprocs);
        }
        Scheme::Wrap => {
            partition = Partition::columns(&factor);
            deps = partition::dependencies(&factor, &partition);
            assignment = sched::wrap_allocation(&partition, nprocs);
        }
    }
    Case {
        name: format!("{matrix} {} P = {nprocs}", scheme.name()),
        a,
        factor,
        partition,
        deps,
        assignment,
    }
}

fn execute(c: &Case) -> mp::MpReport {
    mp::execute(
        &c.a,
        &c.factor,
        &c.partition,
        &c.deps,
        &c.assignment,
        &NetworkModel::free(),
    )
    .unwrap_or_else(|e| panic!("{} mapping failed to execute: {e}", c.name))
}

/// Every processor's observed message counters equal the prediction.
fn check_messages(c: &Case, report: &mp::MpReport) {
    assert_eq!(
        report.message_counts(),
        simulate::messages(&c.factor, &c.partition, &c.deps, &c.assignment),
        "{}: message counters",
        c.name
    );
}

fn check_case(c: &Case) {
    let report = execute(c);

    // (a) Numeric correctness: within 1e-10 of the sequential factor —
    // and actually bit-identical, which implies it.
    let seq = numeric::cholesky(&c.a, &c.factor).expect("sequential factorization");
    for j in 0..seq.n() {
        assert!(
            (report.factor.diag(j) - seq.diag(j)).abs() <= 1e-10,
            "{}: diagonal {j} deviates",
            c.name
        );
        for (e, (&i, m)) in seq
            .col_rows(j)
            .iter()
            .zip(report.factor.col_vals(j))
            .enumerate()
        {
            let s = seq.col_vals(j)[e];
            assert!(
                (m - s).abs() <= 1e-10,
                "{}: L({i},{j}) deviates: {m} vs {s}",
                c.name
            );
        }
    }
    assert_eq!(report.factor, seq, "{}: factor not bit-identical", c.name);

    // (b) Observed traffic equals the analytic prediction exactly:
    // total, per processor, and per processor pair.
    let predicted = simulate::data_traffic(&c.factor, &c.partition, &c.assignment);
    let observed = report.traffic_report();
    assert_eq!(observed.total, predicted.total, "{}: total", c.name);
    assert_eq!(
        observed.per_proc, predicted.per_proc,
        "{}: per-proc",
        c.name
    );
    assert_eq!(
        observed.pair_matrix, predicted.pair_matrix,
        "{}: pair matrix",
        c.name
    );
    assert_eq!(observed, predicted);

    // Observed work equals the analytic work distribution.
    assert_eq!(
        report.work_report(),
        simulate::work_distribution(&c.partition, &c.assignment),
        "{}: work",
        c.name
    );

    // (c) Every message counter is the plan's prediction.
    check_messages(c, &report);
}

#[test]
fn lap30_block_mapping_cross_validates() {
    check_case(&case(
        "LAP30",
        &gen::paper::lap30().pattern,
        Scheme::Block,
        16,
    ));
}

#[test]
fn lap30_wrap_mapping_cross_validates() {
    check_case(&case(
        "LAP30",
        &gen::paper::lap30().pattern,
        Scheme::Wrap,
        16,
    ));
}

#[test]
fn paper_matrices_message_counters_are_predicted() {
    for m in gen::paper::all() {
        for scheme in [Scheme::Block, Scheme::Wrap] {
            for nprocs in [4, 16] {
                let c = case(m.name, &m.pattern, scheme, nprocs);
                check_messages(&c, &execute(&c));
            }
        }
    }
}

#[test]
fn pipeline_backend_reports_match_analytic_phase() {
    // The same cross-validation through the Pipeline wiring: the
    // execution report's observed traffic/work must equal the analytic
    // phase's reports carried in the same result.
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let r = Pipeline::new(gen::paper::lap30().pattern)
            .scheme(scheme)
            .processors(16)
            .backend(ExecutionBackend::MessagePassing)
            .run();
        let exec = r.execution.as_ref().expect("message-passing backend ran");
        assert_eq!(exec.traffic_report(), r.traffic, "{scheme:?}");
        assert_eq!(exec.work_report(), r.work, "{scheme:?}");
    }
}
