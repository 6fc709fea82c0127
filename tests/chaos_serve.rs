//! Drills for the solver service under load, blown deadlines, bad
//! matrices, and kill-and-restart of the warm-restart artifact store.
//!
//! The contract under test, for *every* drill:
//!
//! * a request that completes is **correct** — its factor is
//!   bit-identical to a fresh from-scratch `Pipeline` plan factored
//!   sequentially, whether the artifact was built, waited on, or
//!   reloaded from the store;
//! * a request that fails does so with a **typed** `ServeError` — a blown
//!   deadline says at which stage, a matrix that is not positive definite
//!   names the pivot `numeric::cholesky` names — never a panic, and the
//!   service keeps serving;
//! * a killed-and-restarted service reloads its artifact store and
//!   serves previously-seen patterns with **zero cold rebuilds**.

use spfactor::matrix::gen;
use spfactor::matrix::SymmetricCsc;
use spfactor::{numeric, NumericError, Pipeline, PipelineError};
use spfactor_serve::{ServeConfig, ServeError, SolveRequest, SolverService, Ticket, ValueBatch};
use std::path::PathBuf;
use std::time::Duration;

const NPROCS: usize = 3;

/// A small paper-style request.
fn request(cols: usize, rows: usize, seed: u64) -> SolveRequest {
    let pattern = gen::lap9(cols, rows);
    let n = pattern.n();
    let values = gen::spd_from_pattern(&pattern, seed);
    let rhs: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.37).sin()).collect();
    SolveRequest::new(pattern)
        .processors(NPROCS)
        .batch(ValueBatch::new(values).with_rhs(rhs))
}

/// A fresh from-scratch `Pipeline` plan (same front-end parameters)
/// factored by the sequential reference kernel: the ground truth for a
/// request, or the matrix's numeric error.
fn reference(req: &SolveRequest) -> Result<numeric::NumericFactor, NumericError> {
    let plan = Pipeline::new(req.pattern.clone())
        .processors(req.nprocs)
        .try_plan()
        .expect("reference plan");
    let permuted = req.batches[0].values.permute(plan.permutation());
    numeric::cholesky(&permuted, plan.factor())
}

fn reference_factor(req: &SolveRequest) -> numeric::NumericFactor {
    reference(req).expect("reference factorization")
}

/// The same values with every sign flipped: negative definite, so the
/// factorization stops at a pivot with a numeric error.
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
fn concurrent_load_serves_identical_bits() {
    // Four workers, one pattern: every response is the sequential
    // reference's factor, bit for bit.
    let service = SolverService::start(ServeConfig {
        workers: 4,
        queue_depth: 64,
        ..ServeConfig::default()
    });
    let base = request(5, 5, 11);
    let reference = reference_factor(&base);

    let tickets: Vec<Ticket> = (0..8)
        .map(|_| service.submit(base.clone()).unwrap())
        .collect();
    for t in tickets {
        let resp = t.wait().expect("a healthy request must complete");
        assert_eq!(resp.batches[0].factor, reference, "bits drifted under load");
    }
    assert_eq!(service.completed(), 8);
}

#[test]
fn a_non_spd_batch_fails_typed_with_the_sequential_pivot() {
    let service = SolverService::start(ServeConfig::default());
    let healthy = request(5, 5, 13);
    let mut bad = healthy.clone();
    bad.batches[0].values = negated(&bad.batches[0].values);
    let pivot = match reference(&bad) {
        Err(NumericError::NotPositiveDefinite(j)) => j,
        other => panic!("the negated matrix must fail the reference: {other:?}"),
    };
    match service.solve(bad) {
        Err(ServeError::Solve(e)) => assert!(
            matches!(
                e.as_ref(),
                PipelineError::Numeric(NumericError::NotPositiveDefinite(j)) if *j == pivot
            ),
            "{e}"
        ),
        other => panic!("expected ServeError::Solve, got {other:?}"),
    }
    // The matrix failed, not the service: the next request is served.
    let resp = service.solve(healthy.clone()).unwrap();
    assert_eq!(resp.batches[0].factor, reference_factor(&healthy));
    assert_eq!(service.completed(), 1);
}

#[test]
fn zero_deadline_fails_typed_at_the_queue_stage() {
    let service = SolverService::start(ServeConfig::default());
    let err = service
        .solve(request(5, 5, 1).deadline(Duration::ZERO))
        .expect_err("a zero budget is blown at admission");
    match err {
        ServeError::DeadlineExceeded {
            stage,
            budget_ms,
            spent,
        } => {
            assert_eq!(stage.name(), "queue");
            assert_eq!(budget_ms, 0.0);
            assert_eq!(spent.build_ms, 0.0);
        }
        other => panic!("expected DeadlineExceeded, got {other}"),
    }
    // The blown request never touched the cache.
    assert_eq!(service.cache_stats().misses, 0);
}

#[test]
fn default_deadline_from_config_applies_to_bare_requests() {
    let service = SolverService::start(ServeConfig {
        default_deadline: Some(Duration::ZERO),
        ..ServeConfig::default()
    });
    assert!(matches!(
        service.solve(request(5, 4, 2)),
        Err(ServeError::DeadlineExceeded { .. })
    ));
}

#[test]
fn killed_and_restarted_service_reloads_the_store_with_zero_cold_rebuilds() {
    let dir = scratch_dir("warm-restart");
    let reqs = [request(5, 5, 21), request(6, 4, 22)];
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
    let req = request(5, 5, 31);
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

/// Fixed-seed smoke case for `scripts/verify.sh`: one warm-restart
/// drill and one zero-deadline request, end to end.
#[test]
fn chaos_serve_smoke() {
    let dir = scratch_dir("smoke");
    let req = request(5, 5, 41);
    let reference = reference_factor(&req);
    let config = ServeConfig {
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    {
        let service = SolverService::start(config.clone());
        let resp = service.solve(req.clone()).unwrap();
        assert_eq!(resp.batches[0].factor, reference);
    }
    let service = SolverService::start(config);
    assert!(matches!(
        service.solve(req.clone().deadline(Duration::ZERO)),
        Err(ServeError::DeadlineExceeded { .. })
    ));
    let resp = service.solve(req).unwrap();
    assert!(resp.warm_start);
    assert_eq!(resp.batches[0].factor, reference);
    assert_eq!(service.cold_builds(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}
