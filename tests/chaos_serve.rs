//! Chaos testing of the solver service's resilience layer: seeded fault
//! plans and concurrent load against `SolverService`, plus
//! kill-and-restart drills for the warm-restart artifact store.
//!
//! The contract under test, for *every* drill:
//!
//! * a request that completes is **correct** — its factor is
//!   bit-identical to a fresh from-scratch `Pipeline` plan factored
//!   sequentially, whether the requested kernel, a failover, or a store
//!   reload produced it (resilience costs performance, never bits);
//! * a request that fails does so with a **typed** `ServeError` carrying
//!   the structured backend diagnostics (the full `MpError`, fault trace
//!   included), never a flattened string and never a panic;
//! * the suite terminates — deadlines, the runtime's bounded retry and
//!   its watchdog mean no fault schedule can hang the service;
//! * a killed-and-restarted service reloads its artifact store and
//!   serves previously-seen patterns with **zero cold rebuilds**.

use spfactor::matrix::gen;
use spfactor::matrix::SymmetricCsc;
use spfactor::mp::CrashPlan;
use spfactor::{numeric, FaultPlan, MpError, Pipeline, Recorder};
use spfactor_serve::{
    KernelKind, ResilienceConfig, ServeConfig, ServeError, SolveRequest, SolverService, Ticket,
    ValueBatch,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const NPROCS: usize = 3;

/// A small paper-style request on the message-passing kernel.
fn mp_request(cols: usize, rows: usize, seed: u64) -> SolveRequest {
    let pattern = gen::lap9(cols, rows);
    let n = pattern.n();
    let values = gen::spd_from_pattern(&pattern, seed);
    let rhs: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
    SolveRequest::new(pattern)
        .processors(NPROCS)
        .kernel(KernelKind::MessagePassing)
        .batch(ValueBatch::new(values).with_rhs(rhs))
}

/// The ground truth for a request: a fresh from-scratch `Pipeline` plan
/// (same front-end parameters) factored by the sequential reference
/// kernel.
fn reference_factor(req: &SolveRequest) -> numeric::NumericFactor {
    let plan = Pipeline::new(req.pattern.clone())
        .processors(req.nprocs)
        .try_plan()
        .expect("reference plan");
    let permuted = req.batches[0].values.permute(plan.permutation());
    numeric::cholesky(&permuted, plan.factor()).expect("reference factorization")
}

/// A crash plan that fires on every run: processor 0 dies before
/// running a single unit and announces it, so the runtime fails fast
/// with `ProcessorCrashed` under every seed.
fn always_crash() -> FaultPlan {
    FaultPlan {
        crash: Some(CrashPlan {
            proc: 0,
            after_units: 0,
            announce: true,
        }),
        ..FaultPlan::none()
    }
}

/// The same values with every sign flipped: negative definite, so each
/// kernel stops at the first pivot with a numeric error.
fn negated(a: &SymmetricCsc) -> SymmetricCsc {
    let (mut colptr, mut rowidx, mut values) = (vec![0], Vec::new(), Vec::new());
    for j in 0..a.n() {
        rowidx.extend_from_slice(a.col_rows(j));
        values.extend(a.col_values(j).iter().map(|v| -v));
        colptr.push(rowidx.len());
    }
    SymmetricCsc::from_parts(a.n(), colptr, rowidx, values).expect("same valid pattern")
}

/// A unique, pre-cleaned scratch directory for store drills.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("spfactor-chaos-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn network_chaos_under_concurrent_load_serves_identical_bits() {
    // Network-level faults only (drops, duplicates, delays, reorders —
    // no crashes): the runtime's own retry absorbs them, so every
    // request must complete on the requested kernel, and completing
    // means bit-identical factors under every seed.
    let service = SolverService::start(ServeConfig {
        workers: 4,
        queue_depth: 64,
        ..ServeConfig::default()
    });
    let base = mp_request(5, 5, 11);
    let reference = reference_factor(&base);

    let tickets: Vec<Ticket> = (0..8)
        .map(|k| {
            let plan = FaultPlan {
                crash: None,
                stall: None,
                ..FaultPlan::chaos(0xFACADE + k)
            };
            service.submit(base.clone().fault_plan(plan)).unwrap()
        })
        .collect();
    for t in tickets {
        let resp = t.wait().expect("network faults alone must never fail");
        assert_eq!(resp.served_by, KernelKind::MessagePassing);
        assert!(!resp.degraded(), "no crash, no degradation");
        assert_eq!(
            resp.batches[0].factor, reference,
            "bits drifted under chaos"
        );
    }
    assert_eq!(service.completed(), 8);
    assert_eq!(service.degraded(), 0);
}

#[test]
fn announced_crash_degrades_down_the_chain_bit_identically() {
    let rec = Arc::new(Recorder::new());
    let service = SolverService::start(ServeConfig {
        recorder: Some(rec.clone()),
        ..ServeConfig::default()
    });
    let req = mp_request(5, 5, 7).fault_plan(always_crash());
    let reference = reference_factor(&req);

    let resp = service
        .solve(req)
        .expect("failover must rescue the request");
    // Degraded one step: mp ran once, was abandoned, block-parallel
    // answered. A rerun would crash at the same unit, so there is none.
    assert!(resp.degraded());
    assert_eq!(resp.served_by, KernelKind::BlockParallel);
    assert_eq!(rec.span_stats("mp.execute").map(|s| s.count), Some(1));
    // The abandoning error is the structured backend error, fault trace
    // included — not a flattened string.
    let abandoned = resp
        .failover
        .as_ref()
        .expect("a degraded response says why");
    match abandoned {
        ServeError::Kernel { kernel, error } => {
            assert_eq!(*kernel, KernelKind::MessagePassing);
            match error.as_ref() {
                MpError::ProcessorCrashed { proc, trace } => {
                    assert_eq!(*proc, 0);
                    assert_eq!(trace.crashed, vec![0]);
                }
                other => panic!("unexpected backend error shape: {other}"),
            }
        }
        other => panic!("expected ServeError::Kernel, got {other}"),
    }
    // Degradation cost performance, not bits.
    assert_eq!(resp.batches[0].factor, reference);
    assert_eq!(service.degraded(), 1);
}

#[test]
fn failover_disabled_surfaces_the_typed_kernel_error() {
    let service = SolverService::start(ServeConfig {
        resilience: ResilienceConfig {
            failover: false,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    });
    let err = service
        .solve(mp_request(5, 4, 3).fault_plan(always_crash()))
        .expect_err("with failover off the crash must surface");
    match err {
        ServeError::Kernel { kernel, error } => {
            assert_eq!(kernel, KernelKind::MessagePassing);
            assert!(matches!(
                error.as_ref(),
                MpError::ProcessorCrashed { proc: 0, .. }
            ));
        }
        other => panic!("expected ServeError::Kernel, got {other}"),
    }
    assert_eq!(service.completed(), 0);
}

#[test]
fn breaker_opens_after_consecutive_failures_and_skips_the_kernel() {
    let service = SolverService::start(ServeConfig {
        resilience: ResilienceConfig {
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(3600),
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    });
    let crashing = mp_request(5, 5, 9).fault_plan(always_crash());

    // Two consecutive mp failures trip the breaker (both requests are
    // still rescued by failover).
    for _ in 0..2 {
        let resp = service.solve(crashing.clone()).unwrap();
        assert!(matches!(resp.failover, Some(ServeError::Kernel { .. })));
    }
    assert_eq!(service.breaker_state(), 1.0, "breaker must be open");

    // The third request — even a healthy one — is denied mp without an
    // attempt (the hour-long cooldown has not elapsed) and degrades with
    // a typed BreakerOpen error.
    let resp = service.solve(mp_request(5, 5, 9)).unwrap();
    assert!(resp.degraded());
    assert_eq!(resp.served_by, KernelKind::BlockParallel);
    assert!(matches!(
        resp.failover,
        Some(ServeError::BreakerOpen {
            kernel: KernelKind::MessagePassing
        })
    ));
}

/// A service whose mp breaker opens on one failure and probes at once,
/// already tripped by one crashing request.
fn tripped_service() -> SolverService {
    let service = SolverService::start(ServeConfig {
        resilience: ResilienceConfig {
            breaker_threshold: 1,
            breaker_cooldown: Duration::ZERO,
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    });
    let resp = service
        .solve(mp_request(5, 5, 13).fault_plan(always_crash()))
        .unwrap();
    assert!(resp.degraded());
    assert_eq!(service.breaker_state(), 1.0);
    service
}

#[test]
fn half_open_probe_success_closes_the_breaker() {
    let service = tripped_service();
    // Zero cooldown: the next request is the half-open probe. It is
    // healthy, so it runs on mp and its success closes the breaker.
    let resp = service.solve(mp_request(5, 5, 13)).unwrap();
    assert!(!resp.degraded());
    assert_eq!(resp.served_by, KernelKind::MessagePassing);
    assert_eq!(service.breaker_state(), 0.0);
}

#[test]
fn half_open_probe_ending_in_a_numeric_error_closes_the_breaker() {
    let service = tripped_service();
    // The probe's batch is not SPD: mp reaches the matrix's verdict, the
    // request fails with it, and the probe counts as the kernel working.
    let mut probe = mp_request(5, 5, 13);
    probe.batches[0].values = negated(&probe.batches[0].values);
    assert!(matches!(service.solve(probe), Err(ServeError::Solve(_))));
    assert_eq!(service.breaker_state(), 0.0, "the probe reported");

    // So the breaker admits the next request instead of staying
    // half-open and denying mp for good.
    let resp = service.solve(mp_request(5, 5, 13)).unwrap();
    assert_eq!(resp.served_by, KernelKind::MessagePassing);
    assert!(!resp.degraded());
}

#[test]
fn zero_deadline_fails_typed_at_the_queue_stage() {
    let service = SolverService::start(ServeConfig::default());
    let err = service
        .solve(mp_request(5, 5, 1).deadline(Duration::ZERO))
        .expect_err("a zero budget is blown at admission");
    match err {
        ServeError::DeadlineExceeded {
            stage,
            budget_ms,
            spent,
        } => {
            assert_eq!(stage.name(), "queue");
            assert_eq!(budget_ms, 0.0);
            assert!(spent.build_ms == 0.0 && spent.solve_ms == 0.0);
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // The blown request never touched the cache.
    assert_eq!(service.cache_stats().misses, 0);
}

#[test]
fn default_deadline_from_config_applies_to_bare_requests() {
    let service = SolverService::start(ServeConfig {
        resilience: ResilienceConfig {
            default_deadline: Some(Duration::ZERO),
            ..ResilienceConfig::default()
        },
        ..ServeConfig::default()
    });
    assert!(matches!(
        service.solve(mp_request(5, 4, 2)),
        Err(ServeError::DeadlineExceeded { .. })
    ));
}

#[test]
fn killed_and_restarted_service_reloads_the_store_with_zero_cold_rebuilds() {
    let dir = scratch_dir("warm-restart");
    let reqs = [mp_request(5, 5, 21), mp_request(6, 4, 22)];
    let first_factors: Vec<numeric::NumericFactor> = {
        // First life: cold-builds both patterns and spills them.
        let service = SolverService::start(ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let factors = reqs
            .iter()
            .map(|r| {
                let resp = service.solve(r.clone()).unwrap();
                assert!(!resp.warm_start);
                resp.batches[0].factor.clone()
            })
            .collect();
        assert_eq!(service.cold_builds(), 2);
        let stats = service.store_stats().unwrap();
        assert_eq!((stats.loaded, stats.spilled), (0, 2));
        factors
        // The service is dropped here — the "kill".
    };

    // Second life over the same directory: both patterns come back from
    // disk, verified, with zero cold rebuilds and identical bits.
    let service = SolverService::start(ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    for (req, expected) in reqs.iter().zip(&first_factors) {
        let resp = service.solve(req.clone()).unwrap();
        assert!(resp.warm_start, "first serve per pattern loads from disk");
        assert!(!resp.cache_hit);
        assert_eq!(&resp.batches[0].factor, expected, "reload changed bits");
        // Once resident, the cache serves it without touching the store.
        let again = service.solve(req.clone()).unwrap();
        assert!(again.cache_hit && !again.warm_start);
    }
    assert_eq!(service.cold_builds(), 0, "warm restart must not rebuild");
    let stats = service.store_stats().unwrap();
    assert_eq!((stats.loaded, stats.hits, stats.rejected), (2, 2, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_store_file_degrades_to_a_rebuild_never_a_wrong_answer() {
    let dir = scratch_dir("corrupt-spill");
    let req = mp_request(5, 5, 31);
    let reference = {
        let service = SolverService::start(ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        service.solve(req.clone()).unwrap().batches[0]
            .factor
            .clone()
    };

    // Truncate the spilled artifact mid-file: the restart's startup scan
    // must reject it (typed, counted) and the request must fall back to
    // a cold build that still produces the same bits.
    let spill = std::fs::read_dir(&dir)
        .unwrap()
        .flatten()
        .map(|e| e.path())
        .find(|p| p.extension().and_then(|e| e.to_str()) == Some("spfa"))
        .expect("one spilled artifact");
    let bytes = std::fs::read(&spill).unwrap();
    std::fs::write(&spill, &bytes[..bytes.len() / 2]).unwrap();

    let service = SolverService::start(ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let resp = service.solve(req).unwrap();
    assert!(!resp.warm_start, "corrupt file must not warm-start");
    assert_eq!(resp.batches[0].factor, reference);
    assert_eq!(service.cold_builds(), 1);
    assert!(service.store_stats().unwrap().rejected >= 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Fixed-seed smoke case for `scripts/verify.sh`: one crash-failover
/// drill and one warm-restart drill, end to end.
#[test]
fn chaos_serve_smoke() {
    let dir = scratch_dir("smoke");
    let req = mp_request(5, 5, 41).fault_plan(always_crash());
    let reference = reference_factor(&req);
    {
        let service = SolverService::start(ServeConfig {
            store_dir: Some(dir.clone()),
            ..ServeConfig::default()
        });
        let resp = service.solve(req.clone()).unwrap();
        assert!(resp.degraded());
        assert_eq!(resp.batches[0].factor, reference);
    }
    let service = SolverService::start(ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });
    let resp = service.solve(req).unwrap();
    assert!(resp.warm_start);
    assert_eq!(resp.batches[0].factor, reference);
    assert_eq!(service.cold_builds(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
