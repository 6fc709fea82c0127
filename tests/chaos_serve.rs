//! Chaos testing of the solver service's resilience layer: seeded fault
//! plans and concurrent load against `SolverService`, plus
//! kill-and-restart drills for the warm-restart artifact store.
//!
//! The contract under test, for *every* drill:
//!
//! * a request that completes is **correct** — its factor is
//!   bit-identical to a fresh from-scratch `Pipeline` plan factored
//!   sequentially, no matter how many retries, failovers, or store
//!   reloads produced it (resilience costs performance, never bits);
//! * a request that fails does so with a **typed** `ServeError` carrying
//!   the structured backend diagnostics (the full `MpError`, fault trace
//!   included), never a flattened string and never a panic;
//! * the suite terminates — deadlines, bounded retry, and the runtime's
//!   watchdog mean no fault schedule can hang the service;
//! * a killed-and-restarted service reloads its artifact store and
//!   serves previously-seen patterns with **zero cold rebuilds**.

use spfactor::matrix::gen;
use spfactor::mp::CrashPlan;
use spfactor::{numeric, FaultPlan, MpError, Pipeline};
use spfactor_serve::{
    KernelKind, ResilienceConfig, ServeConfig, ServeError, SolveRequest, SolverService, Ticket,
    ValueBatch,
};
use std::path::PathBuf;
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

/// A crash plan that fires on every attempt: processor 0 dies before
/// running a single unit and announces it, so the runtime fails fast
/// with `ProcessorCrashed` no matter how the retry reseeds the plan.
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

/// Fast-failing retry/backoff knobs so drills spend time asserting, not
/// sleeping.
fn fast_resilience() -> ResilienceConfig {
    ResilienceConfig {
        max_retries: 1,
        backoff_base: Duration::from_micros(100),
        backoff_max: Duration::from_millis(1),
        ..ResilienceConfig::default()
    }
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
        resilience: fast_resilience(),
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
    let service = SolverService::start(ServeConfig {
        resilience: fast_resilience(),
        ..ServeConfig::default()
    });
    let req = mp_request(5, 5, 7).fault_plan(always_crash());
    let reference = reference_factor(&req);

    let resp = service
        .solve(req)
        .expect("failover must rescue the request");
    // Degraded exactly one step: mp was retried, then abandoned.
    assert!(resp.degraded());
    assert_eq!(resp.served_by, KernelKind::BlockParallel);
    assert_eq!(resp.failover.len(), 1);
    let step = &resp.failover[0];
    assert_eq!(step.kernel, KernelKind::MessagePassing);
    assert_eq!(step.attempts, 2, "one attempt + max_retries retries");
    // The abandoned step carries the structured backend error, fault
    // trace included — not a flattened string.
    match &step.error {
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
            ..fast_resilience()
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
            max_retries: 0,
            breaker_threshold: 2,
            breaker_cooldown: Duration::from_secs(3600),
            ..fast_resilience()
        },
        ..ServeConfig::default()
    });
    let crashing = mp_request(5, 5, 9).fault_plan(always_crash());

    // Two consecutive mp failures trip the breaker (both requests are
    // still rescued by failover).
    for _ in 0..2 {
        let resp = service.solve(crashing.clone()).unwrap();
        assert!(resp.degraded());
        assert_eq!(resp.failover[0].attempts, 1, "max_retries 0: one attempt");
    }
    assert_eq!(
        service.breaker_state(KernelKind::MessagePassing),
        1.0,
        "breaker must be open"
    );

    // The third request — even a healthy one — is denied mp without an
    // attempt (the hour-long cooldown has not elapsed) and degrades with
    // a typed BreakerOpen step.
    let resp = service.solve(mp_request(5, 5, 9)).unwrap();
    assert!(resp.degraded());
    assert_eq!(resp.served_by, KernelKind::BlockParallel);
    assert_eq!(resp.failover[0].attempts, 0, "denied without an attempt");
    assert!(matches!(
        resp.failover[0].error,
        ServeError::BreakerOpen {
            kernel: KernelKind::MessagePassing
        }
    ));
}

#[test]
fn half_open_probe_success_closes_the_breaker() {
    let service = SolverService::start(ServeConfig {
        resilience: ResilienceConfig {
            max_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown: Duration::ZERO,
            ..fast_resilience()
        },
        ..ServeConfig::default()
    });
    // Trip the breaker with one crashing request.
    let resp = service
        .solve(mp_request(5, 5, 13).fault_plan(always_crash()))
        .unwrap();
    assert!(resp.degraded());
    assert_eq!(service.breaker_state(KernelKind::MessagePassing), 1.0);

    // Zero cooldown: the next request is the half-open probe. It is
    // healthy, so it runs on mp and its success closes the breaker.
    let resp = service.solve(mp_request(5, 5, 13)).unwrap();
    assert!(!resp.degraded());
    assert_eq!(resp.served_by, KernelKind::MessagePassing);
    assert_eq!(service.breaker_state(KernelKind::MessagePassing), 0.0);
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
            resilience: fast_resilience(),
            ..ServeConfig::default()
        });
        let resp = service.solve(req.clone()).unwrap();
        assert!(resp.degraded());
        assert_eq!(resp.batches[0].factor, reference);
    }
    let service = SolverService::start(ServeConfig {
        store_dir: Some(dir.clone()),
        resilience: fast_resilience(),
        ..ServeConfig::default()
    });
    let resp = service.solve(req).unwrap();
    assert!(resp.warm_start);
    assert_eq!(resp.batches[0].factor, reference);
    assert_eq!(service.cold_builds(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
