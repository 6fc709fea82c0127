//! Chaos testing of the message-passing runtime through the full
//! pipeline: random fault schedules (drops, duplicates, delays,
//! reorderings, stalls, crashes) against small paper-style problems.
//!
//! The contract under test, for *every* fault schedule:
//!
//! * a run that completes is **correct** — its factor is bit-identical to
//!   the fault-free execution (hence to the sequential Cholesky) and its
//!   observed traffic and work equal the analytic simulator's predictions
//!   exactly;
//! * a run that fails does so with a **typed error**, and only when a
//!   crash was injected;
//! * the suite terminates — no fault schedule can hang the runtime
//!   (bounded retry plus the run watchdog), and no schedule panics.

use proptest::prelude::*;
use spfactor::mp::{CrashPlan, StallPlan};
use spfactor::{
    matrix::gen, numeric, ExecutionBackend, FaultPlan, MpError, NetworkModel, Pipeline, Scheme,
    SpfactorError,
};
use std::time::Duration;

fn pipeline(scheme: Scheme, nprocs: usize) -> Pipeline {
    Pipeline::new(gen::lap9(5, 5))
        .grain(3)
        .processors(nprocs)
        .scheme(scheme)
        .backend(ExecutionBackend::MessagePassing(NetworkModel::default()))
}

/// Fault-free reference run with the same parameters.
fn clean(scheme: Scheme, nprocs: usize) -> spfactor::PipelineResult {
    pipeline(scheme, nprocs).run()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Network-level chaos only (no crashes): the run must always
    /// complete, and completing means exact agreement with the clean run
    /// and the analytic simulator.
    #[test]
    fn network_chaos_always_completes_correctly(
        seed in any::<u64>(),
        drop in 0.0f64..0.9,
        duplicate in 0.0f64..0.5,
        delay in 0.0f64..0.5,
        reorder in 0.0f64..0.5,
        wrap in any::<bool>(),
        nprocs in 1usize..5,
    ) {
        let scheme = if wrap { Scheme::Wrap } else { Scheme::Block };
        let plan = FaultPlan {
            seed,
            drop,
            duplicate,
            delay,
            reorder,
            ..FaultPlan::chaos(seed)
        };
        let r = pipeline(scheme, nprocs)
            .fault_plan(plan)
            .try_run()
            .expect("network faults alone must never fail a run");
        let exec = r.execution.as_ref().expect("message-passing backend");

        // Exact agreement with the analytic simulator.
        prop_assert_eq!(&exec.traffic_report(), &r.traffic);
        prop_assert_eq!(&exec.work_report(), &r.work);

        // Bit-identical factor versus the fault-free run.
        let reference = clean(scheme, nprocs);
        let ref_exec = reference.execution.as_ref().unwrap();
        prop_assert_eq!(&exec.factor, &ref_exec.factor);
        prop_assert_eq!(&r.traffic, &reference.traffic);
        prop_assert_eq!(&r.work, &reference.work);
    }

    /// Full chaos including stalls and announced crashes: every outcome is
    /// either a correct completion or a typed execution error, errors
    /// occur only when a crash was injected, and a failed plan fails again
    /// under the next seed.
    #[test]
    fn any_fault_schedule_yields_correctness_or_typed_error(
        seed in any::<u64>(),
        drop in 0.0f64..0.8,
        crash_proc in 0usize..4,
        after_units in 0usize..40,
        inject_crash in any::<bool>(),
        stall_every in 1usize..8,
        wrap in any::<bool>(),
        nprocs in 2usize..5,
    ) {
        let scheme = if wrap { Scheme::Wrap } else { Scheme::Block };
        let plan = FaultPlan {
            drop,
            stall: Some(StallPlan {
                proc: crash_proc % nprocs,
                every_units: stall_every,
                pause: Duration::from_micros(200),
            }),
            crash: inject_crash.then(|| CrashPlan {
                proc: crash_proc % nprocs,
                after_units,
                announce: true,
            }),
            ..FaultPlan::chaos(seed)
        };
        match pipeline(scheme, nprocs).fault_plan(plan.clone()).try_run() {
            Ok(r) => {
                let exec = r.execution.as_ref().expect("message-passing backend");
                prop_assert_eq!(&exec.traffic_report(), &r.traffic);
                prop_assert_eq!(&exec.work_report(), &r.work);
                let reference = clean(scheme, nprocs);
                prop_assert_eq!(
                    &exec.factor,
                    &reference.execution.as_ref().unwrap().factor
                );
            }
            Err(SpfactorError::Execution(e)) => {
                // Only a crash can fail a run, and an announced crash
                // surfaces as exactly ProcessorCrashed with the crashed
                // processor in the fault trace.
                prop_assert!(inject_crash, "error without a crash injected: {e}");
                match &e {
                    MpError::ProcessorCrashed { proc, trace } => {
                        prop_assert_eq!(*proc, crash_proc % nprocs);
                        prop_assert_eq!(&trace.crashed, &vec![crash_proc % nprocs]);
                    }
                    other => prop_assert!(false, "unexpected error shape: {other}"),
                }
                // A crash fires at a fixed unit of the victim's program,
                // whatever the seed: a reseeded rerun fails the same way.
                let reseeded = FaultPlan { seed: plan.seed.wrapping_add(1), ..plan };
                match pipeline(scheme, nprocs).fault_plan(reseeded).try_run() {
                    Err(SpfactorError::Execution(MpError::ProcessorCrashed { proc, .. })) => {
                        prop_assert_eq!(proc, crash_proc % nprocs);
                    }
                    Err(other) => prop_assert!(false, "reseeded rerun failed otherwise: {other}"),
                    Ok(_) => prop_assert!(false, "a reseeded rerun rescued a crashed run"),
                }
            }
            Err(other) => prop_assert!(false, "non-execution error: {other}"),
        }
    }
}

/// Fixed-seed smoke case for `scripts/verify.sh`: one heavy chaos plan on
/// both mapping schemes, checked against the sequential factorization.
#[test]
fn chaos_smoke() {
    for (scheme, nprocs) in [(Scheme::Block, 4), (Scheme::Wrap, 3)] {
        let r = pipeline(scheme, nprocs)
            .fault_plan(FaultPlan::chaos(0xC0FFEE))
            .try_run()
            .expect("chaos smoke run must complete");
        let exec = r.execution.as_ref().unwrap();
        assert!(!exec.faults.is_quiet(), "chaos plan injected nothing");
        assert_eq!(exec.traffic_report(), r.traffic);
        assert_eq!(exec.work_report(), r.work);

        // The executed factor matches a sequential factorization of the
        // same synthesized SPD matrix (the pipeline's fixed value seed),
        // bit for bit.
        let permuted = gen::lap9(5, 5).permute(r.plan.permutation());
        let a = gen::spd_from_pattern(&permuted, 42);
        let seq = numeric::cholesky(&a, r.plan.factor()).expect("sequential factorization");
        assert_eq!(exec.factor, seq, "{scheme:?}: factor deviates under chaos");
    }
}

/// A crash scheduled beyond the end of the victim's program never fires:
/// the run completes cleanly even with the crash armed.
#[test]
fn crash_beyond_program_end_is_harmless() {
    let r = pipeline(Scheme::Block, 3)
        .fault_plan(FaultPlan {
            crash: Some(CrashPlan {
                proc: 1,
                after_units: 100_000,
                announce: true,
            }),
            ..FaultPlan::none()
        })
        .try_run()
        .expect("unfired crash must not fail the run");
    let exec = r.execution.as_ref().unwrap();
    assert!(exec.faults.crashed.is_empty());
    assert_eq!(exec.traffic_report(), r.traffic);
}
