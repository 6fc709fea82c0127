//! Timeline/report reconciliation: the event timeline captured by the
//! virtual-clock simulator must agree with the `TimedReport` it was
//! recorded alongside, the critical path must attribute the makespan,
//! every track must be overlap-free, and every export must validate as
//! a Chrome trace — on the paper's LAP30 under both mapping schemes and
//! both engines (timed simulator and mp runtime), and on arbitrary
//! random SPD structures and LAP grids.

use proptest::prelude::*;
use spfactor::trace::timeline::validate_chrome_trace;
use spfactor::trace::{json, EventKind, Timeline};
use spfactor::{ExecutionBackend, Pipeline, Scheme, TimelineCapture};

/// Runs LAP30 with timeline capture and the mp backend under `scheme`.
fn run_lap30(scheme: Scheme, nprocs: usize) -> (spfactor::PipelineResult, TimelineCapture) {
    let m = spfactor::matrix::gen::paper::lap30();
    let result = Pipeline::new(m.pattern)
        .scheme(scheme)
        .grain(4)
        .processors(nprocs)
        .backend(ExecutionBackend::MessagePassing)
        .timeline(true)
        .run();
    let tl = result.timeline.clone().expect("timeline captured");
    (result, tl)
}

/// Unit slices per processor, as (start, end) sorted by start.
fn unit_slices(tl: &Timeline) -> Vec<Vec<(f64, f64)>> {
    let mut per_proc = vec![Vec::new(); tl.nprocs()];
    for ev in &tl.events {
        if let EventKind::UnitEnd {
            compute, transfer, ..
        } = ev.kind
        {
            per_proc[ev.proc as usize].push((ev.t - compute - transfer, ev.t));
        }
    }
    for track in &mut per_proc {
        track.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
    per_proc
}

/// Every unit must start and end exactly once.
fn assert_units_covered(tl: &Timeline, num_units: usize, label: &str) {
    let mut starts = vec![0usize; num_units];
    let mut ends = vec![0usize; num_units];
    for ev in &tl.events {
        match ev.kind {
            EventKind::UnitStart { unit, .. } => starts[unit as usize] += 1,
            EventKind::UnitEnd { unit, .. } => ends[unit as usize] += 1,
            _ => {}
        }
    }
    for u in 0..num_units {
        assert_eq!(
            starts[u], 1,
            "{label}: unit {u} started {} times",
            starts[u]
        );
        assert_eq!(ends[u], 1, "{label}: unit {u} ended {} times", ends[u]);
    }
}

/// Unit slices on one processor never overlap (beyond rounding).
fn assert_no_overlap(tl: &Timeline, label: &str) {
    for (p, track) in unit_slices(tl).iter().enumerate() {
        for w in track.windows(2) {
            assert!(
                w[1].0 >= w[0].1 - 1e-9 * (1.0 + w[0].1.abs()),
                "{label}: p{p} slices overlap: {:?} then {:?}",
                w[0],
                w[1]
            );
        }
    }
}

/// Parse + schema-validate an exported trace, returning the slice count.
fn assert_valid_chrome(trace: &str, label: &str) -> usize {
    let doc = json::parse(trace).unwrap_or_else(|e| panic!("{label}: invalid JSON: {e}"));
    let stats =
        validate_chrome_trace(&doc).unwrap_or_else(|e| panic!("{label}: invalid trace: {e}"));
    stats.slices
}

#[test]
fn lap30_virtual_clock_reconciles_exactly_under_both_schemes() {
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let (result, tl) = run_lap30(scheme, 16);
        let label = format!("lap30 {scheme:?}");

        // Per-proc event durations sum to TimedReport.busy and the
        // latest event lands on the makespan (reconcile also rejects
        // overlapping unit slices per track).
        tl.simulated
            .reconcile(&tl.timed.busy, tl.timed.makespan, 1e-9)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let busy = tl.simulated.busy_per_proc();
        assert_eq!(busy.len(), tl.timed.busy.len(), "{label}: proc count");
        for (p, (got, want)) in busy.iter().zip(&tl.timed.busy).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9 * (1.0 + want.abs()),
                "{label}: p{p} busy {got} != {want}"
            );
        }

        // Critical-path attribution telescopes to the makespan.
        let cp = &tl.critical_path;
        let makespan = tl.timed.makespan;
        assert!(
            (cp.attributed() - makespan).abs() <= 1e-9 * (1.0 + makespan.abs()),
            "{label}: attributed {} vs makespan {makespan}",
            cp.attributed()
        );
        // Hops are causally ordered and stay within the schedule.
        for w in cp.hops.windows(2) {
            assert!(w[0].end <= w[1].end + 1e-12, "{label}: hops out of order");
        }
        for hop in &cp.hops {
            assert!(
                hop.end <= makespan * (1.0 + 1e-12),
                "{label}: hop past makespan"
            );
            assert!(hop.compute >= 0.0 && hop.transfer >= 0.0 && hop.wait >= 0.0);
        }
        // Per-processor usage partitions the makespan.
        for u in &cp.per_proc {
            let total = u.busy + u.blocked + u.idle;
            assert!(
                (total - makespan).abs() <= 1e-9 * (1.0 + makespan.abs()),
                "{label}: p{} usage {total} != makespan {makespan}",
                u.proc
            );
        }

        assert_units_covered(&tl.simulated, result.plan.partition().num_units(), &label);
        assert_no_overlap(&tl.simulated, &label);
    }
}

#[test]
fn lap30_exports_validate_from_both_engines_under_both_schemes() {
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let (result, tl) = run_lap30(scheme, 16);
        let num_units = result.plan.partition().num_units();
        let label = format!("lap30 {scheme:?}");

        let sim_slices = assert_valid_chrome(&tl.simulated.to_chrome_trace(), &label);
        assert!(sim_slices >= num_units, "{label}: sim export lost slices");

        // The executed (mp runtime, wall clock) timeline exports too.
        let executed = tl.executed.as_ref().expect("mp timeline captured");
        let mp_slices = assert_valid_chrome(&executed.to_chrome_trace_scaled(1e6), &label);
        assert!(mp_slices >= num_units, "{label}: mp export lost slices");

        assert_units_covered(executed, num_units, &label);
        // Wall-clock attribution telescopes to the mp makespan as well.
        let cp = executed.critical_path(10);
        let makespan = executed.makespan();
        assert!(
            (cp.attributed() - makespan).abs() <= 1e-9 * (1.0 + makespan.abs()),
            "{label}: mp attributed {} vs makespan {makespan}",
            cp.attributed()
        );
    }
}

/// Random connected-ish symmetric pattern: a random geometric graph of
/// `n` points with mean degree `deg` (the repo's standard generator).
fn arb_pattern() -> impl Strategy<Value = spfactor::SymmetricPattern> {
    (5usize..100, 2.0f64..8.0, any::<u64>()).prop_map(|(n, deg, seed)| {
        let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
        spfactor::matrix::gen::random_geometric(n, r, seed)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Virtual-clock capture reconciles on arbitrary SPD structures
    /// under both schemes and arbitrary grains/processor counts.
    #[test]
    fn prop_random_spd_timeline_reconciles(
        pattern in arb_pattern(),
        grain in 1usize..30,
        nprocs in 1usize..12,
        wrap in any::<bool>(),
    ) {
        let scheme = if wrap { Scheme::Wrap } else { Scheme::Block };
        let r = Pipeline::new(pattern)
            .scheme(scheme)
            .grain(grain)
            .processors(nprocs)
            .timeline(true)
            .run();
        let tl = r.timeline.as_ref().expect("timeline captured");
        prop_assert!(tl.executed.is_none(), "analytic backend has no mp timeline");
        tl.simulated
            .reconcile(&tl.timed.busy, tl.timed.makespan, 1e-9)
            .map_err(|e| TestCaseError(format!("{scheme:?}: {e}")))?;
        let makespan = tl.timed.makespan;
        let attributed = tl.critical_path.attributed();
        prop_assert!(
            (attributed - makespan).abs() <= 1e-9 * (1.0 + makespan.abs()),
            "{:?}: attributed {} vs makespan {}", scheme, attributed, makespan
        );
        let doc = json::parse(&tl.simulated.to_chrome_trace())
            .map_err(|e| TestCaseError(format!("bad JSON: {e}")))?;
        prop_assert!(validate_chrome_trace(&doc).is_ok());
    }

    /// The mp runtime's wall-clock capture holds its invariants on LAP
    /// grids: full unit coverage, overlap-free unit tracks, balanced
    /// transfer pairs, and makespan-telescoping attribution.
    #[test]
    fn prop_lap_grid_mp_timeline_invariants(
        rows in 2usize..9,
        cols in 2usize..9,
        grain in 1usize..6,
        nprocs in 1usize..6,
        wrap in any::<bool>(),
    ) {
        let scheme = if wrap { Scheme::Wrap } else { Scheme::Block };
        let r = Pipeline::new(spfactor::matrix::gen::lap9(rows, cols))
            .scheme(scheme)
            .grain(grain)
            .processors(nprocs)
            .backend(ExecutionBackend::MessagePassing)
            .timeline(true)
            .run();
        let tl = r.timeline.as_ref().expect("timeline captured");
        let executed = tl.executed.as_ref().expect("mp timeline captured");
        let label = format!("lap {rows}x{cols} {scheme:?} g{grain} p{nprocs}");
        assert_units_covered(executed, r.plan.partition().num_units(), &label);
        assert_no_overlap(executed, &label);
        // Transfers open and close in matched pairs per (proc, peer).
        let mut open = std::collections::HashMap::new();
        for ev in &executed.events {
            match ev.kind {
                EventKind::TransferStart { peer, .. } => {
                    *open.entry((ev.proc, peer)).or_insert(0i64) += 1;
                }
                EventKind::TransferEnd { peer, .. } => {
                    *open.entry((ev.proc, peer)).or_insert(0i64) -= 1;
                }
                _ => {}
            }
        }
        for (pair, balance) in open {
            prop_assert_eq!(balance, 0, "{}: unbalanced transfers {:?}", label, pair);
        }
        let cp = executed.critical_path(5);
        let makespan = executed.makespan();
        prop_assert!(
            (cp.attributed() - makespan).abs() <= 1e-9 * (1.0 + makespan.abs()),
            "{}: attributed {} vs makespan {}", label, cp.attributed(), makespan
        );
    }
}
