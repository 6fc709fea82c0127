//! Integration suite for the `spfactor-serve` layer: the schedule
//! cache's concurrency contract (hit/miss accounting, single-flight
//! build deduplication, LRU eviction order), the service's admission
//! control, and — the load-bearing guarantee — that everything served
//! out of the cache is **bit-identical** to a fresh, from-scratch
//! `Pipeline` run on the same inputs. The cache is an amortization, not
//! an approximation. The same holds one tier down: a schedule re-planned
//! from a permutation the cache remembered past an eviction is the schedule
//! a fresh `Pipeline::try_plan` builds.

use spfactor::matrix::gen;
use spfactor::matrix::Permutation;
use spfactor::numeric::solve::SpdSolver;
use spfactor::{
    DepGraph, ExecutionBackend, Ordering, Pipeline, Recorder, ScheduleArtifact, Scheme,
    SymbolicFactor,
};
use spfactor_serve::{
    ScheduleCache, ServeConfig, ServeError, SolveRequest, SolverService, ValueBatch,
};
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, Barrier, Mutex};

/// Seed the core pipeline synthesizes execution values from; mirrored
/// here to cross-validate the serve path against `Pipeline::run()`'s
/// executed factor.
const EXECUTION_VALUES_SEED: u64 = 42;

fn grid_request(cols: usize, rows: usize, seed: u64) -> SolveRequest {
    let pattern = gen::lap9(cols, rows);
    let n = pattern.n();
    let values = gen::spd_from_pattern(&pattern, seed);
    let rhs: Vec<f64> = (0..n).map(|i| ((i as f64) * 0.61).cos()).collect();
    SolveRequest::new(pattern)
        .processors(4)
        .batch(ValueBatch::new(values).with_rhs(rhs))
}

/// The plan a from-scratch `Pipeline` makes for `request`.
fn fresh_plan(request: &SolveRequest) -> ScheduleArtifact {
    Pipeline::new(request.pattern.clone())
        .ordering(request.ordering)
        .order_engine(request.order_engine)
        .params(request.params)
        .scheme(request.scheme)
        .processors(request.nprocs)
        .plan()
}

/// A service recording into a recorder of its own, and that recorder.
fn recorded_service(config: ServeConfig) -> (SolverService, Arc<Recorder>) {
    let rec = Arc::new(Recorder::new());
    let service = SolverService::start(ServeConfig {
        recorder: Some(rec.clone()),
        ..config
    });
    (service, rec)
}

/// How often `phase.{phase}` has run under `rec`.
fn phase_runs(rec: &Recorder, phase: &str) -> u64 {
    rec.span_stats(&format!("phase.{phase}"))
        .map_or(0, |s| s.count)
}

/// The phases that derive an artifact's schedule half.
const SCHEDULE_PHASES: [&str; 3] = ["partition", "deps", "sched"];

#[test]
fn hits_and_misses_are_counted_per_key() {
    let service = SolverService::start(ServeConfig::default());
    // Two distinct patterns and a parameter variant of the first: three
    // keys, three misses, then a hit on each.
    let a = grid_request(6, 6, 1);
    let b = grid_request(7, 5, 2);
    let c = a.clone().scheme(Scheme::Wrap);
    for req in [&a, &b, &c] {
        let resp = service.solve(req.clone()).unwrap();
        assert!(!resp.cache_hit, "first request per key must miss");
    }
    for req in [&a, &b, &c] {
        let resp = service.solve(req.clone()).unwrap();
        assert!(resp.cache_hit, "second request per key must hit");
    }
    let stats = service.cache_stats();
    assert_eq!((stats.misses, stats.hits, stats.waits), (3, 3, 0));
    assert_eq!(stats.hit_rate(), 0.5);
    assert_eq!(service.cache().len(), 3);
}

#[test]
fn values_mismatch_reports_both_structural_hashes() {
    // Validation compares the CSC arrays directly; the error must still
    // carry the two hashes it always carried, and a matching request must
    // still resolve under the key `SolveRequest::key` computes.
    let service = SolverService::start(ServeConfig::default());
    let good = grid_request(6, 6, 1);
    let resp = service.solve(good.clone()).unwrap();
    assert_eq!(resp.key, good.key());
    assert_eq!(resp.key.structural_hash, gen::lap9(6, 6).structural_hash());

    // Same dimension, one edge fewer; then a different dimension.
    let mut thinner = gen::lap9(6, 6).iter_entries().collect::<Vec<_>>();
    thinner.pop();
    let thinner = spfactor::SymmetricPattern::from_edges(36, thinner);
    for other in [thinner, gen::lap9(7, 5)] {
        let mut bad = good.clone();
        bad.batches[0].values = gen::spd_from_pattern(&other, 1);
        match service.solve(bad).unwrap_err() {
            ServeError::ValuesMismatch { expected, got } => {
                assert_eq!(expected, gen::lap9(6, 6).structural_hash());
                assert_eq!(got, other.structural_hash());
            }
            e => panic!("expected ValuesMismatch, got {e:?}"),
        }
    }
    // Rejected before the cache: one miss, from the good request alone.
    assert_eq!(service.cache_stats().misses, 1);
}

#[test]
fn ordering_engine_is_pinned_in_the_cache_key() {
    // A schedule planned under one ordering engine must never be served
    // to a request for another: the engine is part of the ScheduleKey,
    // so an engine variant of an otherwise identical request is a new
    // key (miss), while re-asking with the same engine hits.
    let service = SolverService::start(ServeConfig::default());
    let direct = grid_request(6, 6, 1);
    let compressed = direct
        .clone()
        .order_engine(spfactor::OrderEngine::Compressed);
    assert_ne!(direct.key(), compressed.key());

    let first = service.solve(direct.clone()).unwrap();
    assert!(!first.cache_hit);
    let cross = service.solve(compressed.clone()).unwrap();
    assert!(
        !cross.cache_hit,
        "engine variant must not reuse the artifact"
    );
    let again = service.solve(compressed).unwrap();
    assert!(again.cache_hit);
    assert_eq!(service.cache().len(), 2);
    // Each artifact carries the key it was planned under.
    assert_eq!(first.artifact.key(), &direct.key());
    // lap9 grids do not compress, so the engines plan the identical
    // schedule even though they cache under different keys.
    assert_eq!(
        first.artifact.permutation().as_slice(),
        again.artifact.permutation().as_slice()
    );
    assert_eq!(
        service.cache_stats().misses,
        2,
        "one build per engine variant"
    );
}

#[test]
fn concurrent_misses_on_one_pattern_build_exactly_once() {
    const THREADS: usize = 8;
    let cache = Arc::new(ScheduleCache::new(4));
    let pipeline = Arc::new(Pipeline::new(gen::lap9(10, 10)).processors(4));
    let builds = Arc::new(AtomicUsize::new(0));
    let barrier = Arc::new(Barrier::new(THREADS));
    let fingerprints: Vec<u64> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let cache = cache.clone();
                let pipeline = pipeline.clone();
                let builds = builds.clone();
                let barrier = barrier.clone();
                s.spawn(move || {
                    // Line every thread up on the same instant so the
                    // misses genuinely race.
                    barrier.wait();
                    cache
                        .get_or_build(pipeline.key(), || {
                            builds.fetch_add(1, AtomicOrdering::SeqCst);
                            pipeline
                                .try_plan()
                                .map_err(|e| ServeError::Build(Arc::new(e)))
                        })
                        .unwrap()
                        .fingerprint()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(
        builds.load(AtomicOrdering::SeqCst),
        1,
        "single-flight: racing misses must coalesce onto one build"
    );
    assert!(
        fingerprints.iter().all(|&f| f == fingerprints[0]),
        "every thread must observe the same artifact"
    );
    let stats = cache.stats();
    assert_eq!(stats.misses, 1);
    assert_eq!(
        stats.hits + stats.waits,
        (THREADS - 1) as u64,
        "the other lookups were hits or coalesced waits"
    );
}

#[test]
fn lru_evicts_least_recently_used_first() {
    let cache = ScheduleCache::new(2);
    let a = Pipeline::new(gen::lap9(5, 4)).processors(2);
    let b = Pipeline::new(gen::lap9(6, 4)).processors(2);
    let c = Pipeline::new(gen::lap9(7, 4)).processors(2);
    let build = |p: &Pipeline| {
        let artifact = p.try_plan().map_err(|e| ServeError::Build(Arc::new(e)));
        move || artifact
    };
    cache.get_or_build(a.key(), build(&a)).unwrap();
    cache.get_or_build(b.key(), build(&b)).unwrap();
    // Touch `a`: recency order is now [a, b] with `b` coldest.
    cache.get_or_build(a.key(), || unreachable!("hit")).unwrap();
    cache.get_or_build(c.key(), build(&c)).unwrap();
    assert!(cache.contains(&a.key()), "recently-touched entry survives");
    assert!(!cache.contains(&b.key()), "coldest entry is evicted");
    assert!(cache.contains(&c.key()), "new entry is resident");
    // Overflow again: now `a` (older than `c`) goes.
    let d = Pipeline::new(gen::lap9(8, 4)).processors(2);
    cache.get_or_build(d.key(), build(&d)).unwrap();
    assert!(!cache.contains(&a.key()));
    assert_eq!(cache.stats().evictions, 2);
    assert_eq!(cache.snapshot().keys, vec![d.key(), c.key()]);
}

#[test]
fn cached_artifact_factors_are_bit_identical_to_fresh_runs() {
    // The acceptance pin: a factor served through the cache equals a
    // from-scratch front end + factorization on the same inputs, bit
    // for bit — and repeated served solves keep returning those bits.
    let pattern = gen::lap9(9, 9);
    let a = gen::spd_from_pattern(&pattern, 17);
    let rhs: Vec<f64> = (0..pattern.n()).map(|i| (i as f64).sin()).collect();

    // Fresh path, no serve involvement: order, symbolic, factor.
    let perm = spfactor::order::order(&pattern, Ordering::paper_default());
    let permuted_a = a.permute(&perm);
    let symbolic = SymbolicFactor::from_pattern(&permuted_a.pattern());
    let fresh_factor = spfactor::numeric::cholesky(&permuted_a, &symbolic).unwrap();
    let fresh_solver = SpdSolver::new(&a, Ordering::paper_default()).unwrap();
    let fresh_x = fresh_solver.solve(&rhs);

    let service = SolverService::start(ServeConfig::default());
    let request = SolveRequest::new(pattern)
        .processors(4)
        .batch(ValueBatch::new(a).with_rhs(rhs));
    let mut served: Option<spfactor::ScheduleArtifact> = None;
    for round in 0..3 {
        let resp = service.solve(request.clone()).unwrap();
        assert_eq!(resp.cache_hit, round > 0);
        // Every response holds the cache's one entry, not a copy of it.
        let first = served.get_or_insert_with(|| resp.artifact.clone());
        assert!(resp.artifact.ptr_eq(first));
        assert_eq!(
            resp.batches[0].factor, fresh_factor,
            "served factor diverged from the fresh factorization"
        );
        assert_eq!(
            resp.batches[0].solutions[0], fresh_x,
            "served solution diverged from the fresh solver"
        );
    }
}

#[test]
fn a_sequential_solve_derives_no_schedule() {
    // The sequential kernel reads the permutation and the symbolic factor
    // alone, so no served request derives the schedule half: not a miss on
    // the caller's thread, not a hit, not a miss on a worker, and not a
    // re-miss re-planned from a remembered permutation.
    let (service, rec) = recorded_service(ServeConfig {
        cache_capacity: 1,
        ..ServeConfig::default()
    });
    let no_schedule = |case: &str| {
        for phase in SCHEDULE_PHASES {
            assert_eq!(phase_runs(&rec, phase), 0, "{case} ran {phase}");
        }
    };
    let a = grid_request(9, 9, 2);
    let b = grid_request(7, 6, 4);
    let first = service.solve(a.clone()).unwrap();
    assert!(!first.cache_hit);
    no_schedule("a miss");
    let hit = service.solve(a.clone()).unwrap();
    assert!(hit.cache_hit && hit.artifact.ptr_eq(&first.artifact));
    no_schedule("a hit");

    // Through the queue: a miss on a worker, which evicts `a`.
    let queued = service.submit(b).unwrap().wait().unwrap();
    assert!(!queued.cache_hit);
    assert!(!service.cache().contains(&a.key()) && service.cache().remembers(&a.key()));
    no_schedule("a submitted miss");

    let again = service.solve(a.clone()).unwrap();
    assert!(!again.cache_hit && !again.warm_start);
    assert_eq!(service.cache_stats().replans, 1);
    assert_eq!(again.batches[0].factor, first.batches[0].factor);
    no_schedule("a re-miss");
    assert_eq!(phase_runs(&rec, "order"), 2);
    assert_eq!(phase_runs(&rec, "symbolic"), 3);
    // Outside the service's scope: the artifact is the fresh plan.
    assert_eq!(again.artifact.fingerprint(), fresh_plan(&a).fingerprint());
}

#[test]
fn concurrent_first_reads_derive_the_schedule_once() {
    const THREADS: usize = 8;
    let artifact = Pipeline::new(gen::lap9(12, 12)).processors(4).plan();
    let rec = Arc::new(Recorder::new());
    let barrier = Barrier::new(THREADS);
    let graphs: Vec<&DepGraph> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                s.spawn(|| {
                    let _scope = spfactor::trace::scope(&rec);
                    barrier.wait();
                    artifact.deps()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for phase in SCHEDULE_PHASES {
        assert_eq!(phase_runs(&rec, phase), 1, "{phase}");
    }
    assert!(graphs.iter().all(|g| std::ptr::eq(*g, graphs[0])));
}

#[test]
fn cold_built_artifact_equals_an_element_planned_one() {
    // Cold builds plan their dependencies with the serial sweep engine
    // (as the store-load path does); the deps engine is not part of the
    // key, so the artifact must be the one the element oracle plans.
    for scheme in [Scheme::Block, Scheme::Wrap] {
        let request = grid_request(9, 8, 5).scheme(scheme);
        let service = SolverService::start(ServeConfig::default());
        let resp = service.solve(request.clone()).unwrap();
        assert!(!resp.cache_hit);
        let served = &resp.artifact;
        let oracle = spfactor::partition::build_dependencies(
            spfactor::DepsEngine::Element,
            served.factor(),
            served.partition(),
        );
        assert_eq!(served.deps(), &oracle, "{scheme:?}: cold-built deps");
        let planned = Pipeline::new(request.pattern.clone())
            .scheme(scheme)
            .processors(4)
            .deps_engine(spfactor::DepsEngine::Element)
            .plan();
        assert_eq!(served.key(), planned.key());
        assert_eq!(served.fingerprint(), planned.fingerprint(), "{scheme:?}");
        // And the one a store load re-derives from the served text.
        let dump = spfactor::sched::read_artifact_text(served.to_text().as_bytes()).unwrap();
        let rebuilt = spfactor::sched::rebuild_artifact(&request.pattern, &dump).unwrap();
        assert_eq!(rebuilt.to_text(), planned.to_text(), "{scheme:?}");
    }
}

#[test]
fn served_factor_matches_pipeline_run_executed_factor() {
    // Sharper still: `Pipeline::run()` under the message-passing
    // backend factors values synthesized (seed 42) from the *permuted*
    // pattern. Feeding the serve layer those same values, expressed in
    // original coordinates via the inverse permutation, must reproduce
    // the executed factor bit for bit: serve's kernels and the mp
    // runtime agree, though mp is not one of serve's kernels.
    let pattern = gen::lap9(8, 8);
    let pipeline = Pipeline::new(pattern.clone())
        .processors(4)
        .backend(ExecutionBackend::MessagePassing);
    let fresh = pipeline.clone().run();
    let executed = fresh.execution.as_ref().expect("mp backend ran");

    let perm = spfactor::order::order(&pattern, Ordering::paper_default());
    let synthesized = gen::spd_from_pattern(&pattern.permute(&perm), EXECUTION_VALUES_SEED);
    let inverse = Permutation::from_vec(perm.inverse_slice().to_vec()).unwrap();
    let values = synthesized.permute(&inverse);

    let service = SolverService::start(ServeConfig::default());
    let resp = service
        .solve(
            SolveRequest::new(pattern)
                .processors(4)
                .batch(ValueBatch::new(values)),
        )
        .unwrap();
    assert_eq!(
        resp.batches[0].factor, executed.factor,
        "served factor diverged from Pipeline::run()'s mp-executed factor"
    );
}

#[test]
fn queue_overflow_is_rejected_as_overloaded() {
    // One worker wedged on a slow request, a queue of depth 2: the
    // third submit beyond the in-flight one must be refused with the
    // typed overload error, not blocked or dropped.
    let service = SolverService::start(ServeConfig {
        cache_capacity: 8,
        queue_depth: 2,
        workers: 1,
        ..ServeConfig::default()
    });
    // Big enough that the worker is still busy while we flood.
    let slow = grid_request(40, 40, 1);
    let mut tickets = vec![service.submit(slow).unwrap()];
    let mut overloaded = 0;
    // Fill the queue and then some; admission control must kick in.
    for _ in 0..8 {
        match service.submit(grid_request(5, 4, 2)) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded { capacity }) => {
                assert_eq!(capacity, 2);
                overloaded += 1;
            }
            Err(e) => panic!("unexpected error: {e}"),
        }
    }
    assert!(overloaded > 0, "flooding a depth-2 queue must overload");
    assert_eq!(service.rejected(), overloaded);
    // Everything that was admitted completes once the worker drains.
    for t in tickets {
        t.wait().unwrap();
    }
    assert_eq!(service.queue_depth(), 0);
}

#[test]
fn coalesced_concurrent_requests_serve_identical_bits() {
    // End-to-end single-flight: many clients race the same cold
    // pattern through the queue; the artifact is built once and every
    // response carries the same factor bits.
    const CLIENTS: usize = 6;
    let service = Arc::new(SolverService::start(ServeConfig {
        cache_capacity: 4,
        queue_depth: 64,
        workers: 4,
        ..ServeConfig::default()
    }));
    let request = grid_request(12, 12, 3);
    let factors = Mutex::new(Vec::new());
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let service = service.clone();
            let request = request.clone();
            let factors = &factors;
            s.spawn(move || {
                let resp = service.submit(request).unwrap().wait().unwrap();
                factors.lock().unwrap().push(resp.batches[0].factor.clone());
            });
        }
    });
    let factors = factors.into_inner().unwrap();
    assert_eq!(factors.len(), CLIENTS);
    assert!(
        factors.iter().all(|f| f == &factors[0]),
        "racing clients observed different factors"
    );
    let stats = service.cache_stats();
    assert_eq!(stats.misses, 1, "the cold pattern must build exactly once");
    assert_eq!(stats.hits + stats.waits, (CLIENTS - 1) as u64);
}

#[test]
fn build_failures_surface_typed_and_do_not_poison_the_key() {
    let service = SolverService::start(ServeConfig::default());
    // Zero processors is rejected by pipeline validation inside the
    // cached build; the error must come back as ServeError::Build.
    let bad = grid_request(5, 5, 1).processors(0);
    match service.solve(bad).unwrap_err() {
        ServeError::Build(e) => {
            assert!(matches!(
                *e,
                spfactor::SpfactorError::InvalidParameter {
                    param: "processors",
                    ..
                }
            ));
        }
        other => panic!("expected Build error, got {other}"),
    }
    // The healthy variant of the same pattern still builds fine.
    service.solve(grid_request(5, 5, 1)).unwrap();
}

#[test]
fn a_panicking_build_does_not_wedge_its_key() {
    // `get_or_build` takes any closure, and one may panic. The panic
    // unwinds through its own caller; a lookup coalesced onto that flight
    // must not wait for it forever, but build the key itself, after which
    // the key is an ordinary hit.
    let cache = Arc::new(ScheduleCache::new(2));
    let pipeline = Arc::new(Pipeline::new(gen::lap9(6, 6)).processors(2));
    let key = pipeline.key();
    let (done, finished) = std::sync::mpsc::channel();
    let scenario = {
        let cache = cache.clone();
        move || {
            let builder = {
                let cache = cache.clone();
                std::thread::spawn(move || {
                    cache.get_or_build(key, || {
                        while cache.stats().waits == 0 {
                            std::thread::yield_now();
                        }
                        panic!("a build that panics once a lookup waits on it")
                    })
                })
            };
            while cache.stats().misses == 0 {
                std::thread::yield_now();
            }
            let waited = cache
                .get_or_build(key, || {
                    pipeline
                        .try_plan()
                        .map_err(|e| ServeError::Build(Arc::new(e)))
                })
                .map(|a| a.fingerprint());
            let hit = cache
                .get_or_build(key, || panic!("must hit"))
                .map(|a| a.fingerprint());
            let _ = done.send((builder.join().is_err(), waited, hit));
        }
    };
    // Detached, so that a wedged key fails the test instead of hanging it.
    std::thread::spawn(scenario);
    let (builder_panicked, waited, hit) = finished
        .recv_timeout(std::time::Duration::from_secs(30))
        .expect("a lookup is still waiting on the panicked build");
    assert!(builder_panicked, "the panic unwinds through its own caller");
    let fingerprint = waited.expect("the waiter builds the key itself");
    assert_eq!(hit.expect("then it is cached"), fingerprint);
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.waits, stats.hits), (2, 1, 1));
}

#[test]
fn a_re_miss_replans_from_the_remembered_permutation() {
    // Capacity 1: the second pattern evicts the first, whose permutation
    // stays. The re-miss must rebuild the very artifact a fresh plan gives,
    // serve the bits it served before, and not run the ordering phase.
    let (service, rec) = recorded_service(ServeConfig {
        cache_capacity: 1,
        ..ServeConfig::default()
    });
    let a = grid_request(9, 8, 3);
    let b = grid_request(7, 6, 4);
    let first = service.solve(a.clone()).unwrap();
    service.solve(b).unwrap();
    assert!(!service.cache().contains(&a.key()), "evicted");
    assert!(service.cache().remembers(&a.key()), "permutation kept");
    assert_eq!(phase_runs(&rec, "order"), 2);

    let again = service.solve(a.clone()).unwrap();
    assert!(!again.cache_hit && !again.warm_start);
    assert!(!again.artifact.ptr_eq(&first.artifact), "a rebuild");
    assert_eq!(again.artifact.fingerprint(), fresh_plan(&a).fingerprint());
    assert_eq!(again.artifact.to_text(), first.artifact.to_text());
    assert_eq!(again.batches[0].factor, first.batches[0].factor);
    assert_eq!(again.batches[0].solutions, first.batches[0].solutions);
    assert_eq!(phase_runs(&rec, "order"), 2, "the rebuild ordered nothing");
    assert_eq!(rec.span_stats("phase.symbolic").unwrap().count, 3);

    let stats = service.cache_stats();
    assert_eq!((stats.misses, stats.replans), (3, 1));
    assert_eq!(rec.counter("serve.cache.replan"), 1);
    assert_eq!(service.cold_builds(), 3, "a replan is still a build");
}

#[test]
fn one_pattern_is_ordered_once_across_scheme_and_processor_count() {
    let (service, rec) = recorded_service(ServeConfig::default());
    let block = grid_request(8, 8, 1);
    let wrap = block.clone().scheme(Scheme::Wrap);
    let wider = block.clone().processors(7);
    for request in [&block, &wrap, &wider] {
        let resp = service.solve(request.clone()).unwrap();
        assert!(!resp.cache_hit, "three keys, three misses");
        assert_eq!(
            resp.artifact.fingerprint(),
            fresh_plan(request).fingerprint()
        );
    }
    assert_eq!(phase_runs(&rec, "order"), 1);
    assert_eq!(service.cache_stats().replans, 2);
    assert_eq!((service.cache().len(), service.cache().orderings()), (3, 1));
    // Another ordering of the same pattern is another permutation.
    let rcm = block.clone().ordering(Ordering::ReverseCuthillMcKee);
    let resp = service.solve(rcm.clone()).unwrap();
    assert_eq!(resp.artifact.fingerprint(), fresh_plan(&rcm).fingerprint());
    assert_eq!(phase_runs(&rec, "order"), 2);
    assert_eq!(service.cache().orderings(), 2);
}

#[test]
fn a_failed_replan_leaves_the_permutation_for_the_retry() {
    let (service, rec) = recorded_service(ServeConfig::default());
    let good = grid_request(6, 5, 1);
    service.solve(good.clone()).unwrap();
    // Same pattern, so the build starts from the remembered permutation —
    // and still goes through the pipeline's validation.
    match service.solve(good.clone().processors(0)).unwrap_err() {
        ServeError::Build(e) => assert!(matches!(
            *e,
            spfactor::SpfactorError::InvalidParameter {
                param: "processors",
                ..
            }
        )),
        other => panic!("expected Build error, got {other}"),
    }
    assert!(service.cache().remembers(&good.key()));
    assert_eq!(service.cache_stats().replans, 0, "a failure is no replan");
    let retry = good.clone().processors(3);
    let resp = service.solve(retry.clone()).unwrap();
    assert_eq!(
        resp.artifact.fingerprint(),
        fresh_plan(&retry).fingerprint()
    );
    assert_eq!(service.cache_stats().replans, 1);
    assert_eq!(phase_runs(&rec, "order"), 1);

    // The cache's own contract, with a builder that fails on its own terms.
    let cache = ScheduleCache::new(1);
    let p = Pipeline::new(gen::lap9(5, 4)).processors(2);
    cache.get_or_build(p.key(), || Ok(p.plan())).unwrap();
    let other = p.clone().processors(3);
    let boom = || {
        ServeError::Build(Arc::new(spfactor::SpfactorError::InvalidParameter {
            param: "test",
            message: "boom".into(),
        }))
    };
    let err = cache.get_or_plan(other.key(), |remembered| {
        assert!(remembered.is_some());
        Err(boom())
    });
    assert!(matches!(err, Err(ServeError::Build(_))));
    assert!(!cache.contains(&other.key()) && cache.remembers(&other.key()));
    let rebuilt = cache
        .get_or_plan(other.key(), |remembered| {
            Ok(other
                .try_plan_ordered(remembered.expect("still there"))
                .unwrap())
        })
        .unwrap();
    assert_eq!(rebuilt.fingerprint(), other.plan().fingerprint());
    assert_eq!(cache.stats().replans, 1);
}

#[test]
fn the_ordering_tier_is_bounded_and_evicts_least_recently_used() {
    // One artifact slot, so the tier holds ORDERINGS_PER_SLOT permutations.
    let cache = ScheduleCache::new(1);
    let bound = cache.ordering_capacity();
    assert_eq!(bound, spfactor_serve::cache::ORDERINGS_PER_SLOT);
    // 100 patterns of 100 dimensions: 100 ordering keys.
    let pipelines: Vec<Pipeline> = (0..100)
        .map(|k| Pipeline::new(gen::lap9(k + 2, 2)).processors(2))
        .collect();
    let plan = |p: &Pipeline, remembered: Option<Permutation>| {
        match remembered {
            Some(permutation) => p.try_plan_ordered(permutation),
            None => p.try_plan(),
        }
        .map_err(|e| ServeError::Build(Arc::new(e)))
    };
    for (k, p) in pipelines.iter().enumerate() {
        if k == bound {
            // The tier is full and 0 is its oldest entry; re-missing on it
            // (its artifact went with the one slot) makes 1 the oldest.
            let mut handed = false;
            cache
                .get_or_plan(pipelines[0].key(), |remembered| {
                    handed = remembered.is_some();
                    plan(&pipelines[0], remembered)
                })
                .unwrap();
            assert!(handed, "0 was still remembered");
        }
        cache.get_or_plan(p.key(), |r| plan(p, r)).unwrap();
        assert_eq!(cache.orderings(), (k + 1).min(bound));
        assert_eq!(cache.len(), 1);
        if k == bound {
            assert!(cache.remembers(&pipelines[0].key()), "touched, so kept");
            assert!(!cache.remembers(&pipelines[1].key()), "the oldest goes");
        }
    }
    let kept: Vec<usize> = (0..100)
        .filter(|&k| cache.remembers(&pipelines[k].key()))
        .collect();
    assert_eq!(kept, (100 - bound..100).collect::<Vec<_>>());
    assert_eq!(cache.stats().replans, 1);
}

#[test]
fn concurrent_misses_on_two_keys_of_one_pattern_agree_on_the_permutation() {
    // Block and wrap of one cold pattern, both builders inside their build
    // before either finishes: neither finds a permutation, both order, the
    // second deposit finds the first's. One entry, equal permutations.
    let cache = ScheduleCache::new(4);
    let block = Pipeline::new(gen::lap9(9, 9)).processors(4);
    let wrap = block.clone().scheme(Scheme::Wrap);
    let both_building = Barrier::new(2);
    let build = |p: &Pipeline| {
        cache
            .get_or_plan(p.key(), |remembered| {
                assert!(remembered.is_none(), "nothing deposited yet");
                both_building.wait();
                p.try_plan().map_err(|e| ServeError::Build(Arc::new(e)))
            })
            .unwrap()
    };
    let (b, w) = std::thread::scope(|s| {
        let b = s.spawn(|| build(&block));
        let w = s.spawn(|| build(&wrap));
        (b.join().unwrap(), w.join().unwrap())
    });
    assert_eq!(b.permutation().as_slice(), w.permutation().as_slice());
    assert_eq!(b.fingerprint(), block.plan().fingerprint());
    assert_eq!(w.fingerprint(), wrap.plan().fingerprint());
    assert_eq!((cache.len(), cache.orderings()), (2, 1));
    assert_eq!(cache.stats().replans, 0);
    // A third key of the pattern now plans from that one entry.
    let wider = block.clone().processors(6);
    let a = cache
        .get_or_plan(wider.key(), |remembered| {
            Ok(wider
                .try_plan_ordered(remembered.expect("deposited"))
                .unwrap())
        })
        .unwrap();
    assert_eq!(a.fingerprint(), wider.plan().fingerprint());
}

#[test]
fn a_remembered_permutation_is_tried_before_the_store() {
    let dir = std::env::temp_dir().join(format!("spfactor-serve-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let config = ServeConfig {
        cache_capacity: 1,
        store_dir: Some(dir.clone()),
        ..ServeConfig::default()
    };
    let a = grid_request(8, 7, 2);
    let b = grid_request(6, 6, 3);
    {
        let service = SolverService::start(config.clone());
        let first = service.solve(a.clone()).unwrap();
        service.solve(b.clone()).unwrap();
        // Evicted, on disk and remembered: memory wins, nothing is read
        // back and nothing is written twice.
        let again = service.solve(a.clone()).unwrap();
        assert!(!again.cache_hit && !again.warm_start);
        assert_eq!(again.artifact.fingerprint(), first.artifact.fingerprint());
        let store = service.store_stats().unwrap();
        assert_eq!((store.hits, store.spilled), (0, 2));
        assert_eq!(service.cache_stats().replans, 1);
    }
    // A restarted service remembers nothing: the store serves the miss,
    // and what it loaded leaves its permutation behind like any build.
    let service = SolverService::start(config);
    assert!(service.solve(a.clone()).unwrap().warm_start);
    assert!(service.solve(b).unwrap().warm_start);
    let again = service.solve(a.clone()).unwrap();
    assert!(!again.cache_hit && !again.warm_start);
    assert_eq!(again.artifact.fingerprint(), fresh_plan(&a).fingerprint());
    let store = service.store_stats().unwrap();
    assert_eq!((store.hits, store.spilled), (2, 0));
    assert_eq!(service.cache_stats().replans, 1);
    assert_eq!(service.cold_builds(), 1);
    drop(service);
    let _ = std::fs::remove_dir_all(&dir);
}
