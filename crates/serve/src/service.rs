//! The batched solver service: admission-controlled queue in front of a
//! schedule cache and the sequential numeric kernel.
//!
//! A [`SolveRequest`] carries the [`Pipeline`] whose front end it is
//! served from (a sparsity pattern plus front-end parameters: the
//! [`ScheduleKey`] identity) and any number of
//! [`ValueBatch`]es — value matrices sharing that pattern, each with any
//! number of right-hand sides. The service:
//!
//! 1. resolves the frozen [`ScheduleArtifact`] through the
//!    [`ScheduleCache`] (building it once per key, single-flight);
//! 2. factors every value batch against the cached symbolic factor with
//!    the sequential `numeric::cholesky`, which reads nothing of the
//!    artifact's schedule half;
//! 3. solves every right-hand side through [`spfactor::numeric::batch`],
//!    returning solutions of the *original* system (the fill-reducing
//!    permutation is applied around each solve).
//!
//! Two entry points share that path: [`SolverService::solve`] runs it
//! synchronously on the caller's thread, and [`SolverService::submit`]
//! enqueues onto a bounded queue drained by worker threads — full queue
//! means [`ServeError::Overloaded`] at admission time, so overload sheds
//! load instead of stretching every caller's latency.

use crate::cache::{CacheStats, ScheduleCache};
use crate::resilience::{lock_unpoisoned, BudgetBreakdown, DeadlineClock, DeadlineStage};
use crate::store::{ArtifactStore, StoreStats};
use crate::ServeError;
use spfactor::matrix::{SymmetricCsc, SymmetricPattern};
use spfactor::numeric::NumericFactor;
use spfactor::sched::{ScheduleArtifact, ScheduleKey, Scheme};
use spfactor::{
    numeric, trace, DepsEngine, OrderEngine, Ordering, PartitionParams, Pipeline, Recorder,
};
use std::collections::VecDeque;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Sliding window of per-request solve latencies kept for the
/// `serve.latency.*` percentile gauges.
const LATENCY_WINDOW: usize = 4096;

/// Service construction parameters.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Ready artifacts the schedule cache retains (LRU beyond this). It
    /// also remembers the permutations of
    /// [`ORDERINGS_PER_SLOT`](crate::cache::ORDERINGS_PER_SLOT) times as
    /// many patterns, so that a re-miss does not order again.
    pub cache_capacity: usize,
    /// Bounded queue depth for [`SolverService::submit`]; a full queue
    /// rejects with [`ServeError::Overloaded`]. Clamped to at least 1.
    pub queue_depth: usize,
    /// Worker threads draining the queue. Clamped to at least 1.
    pub workers: usize,
    /// Optional metrics recorder; receives the whole `serve.*` surface
    /// (see `docs/METRICS.md`) and the pipeline's `phase.*` spans for
    /// cache-miss builds. The service puts it in scope
    /// ([`spfactor::trace::scope`]) on its workers and around each call
    /// on the handle; nothing below holds it.
    pub recorder: Option<Arc<Recorder>>,
    /// Deadline applied to requests that do not carry their own,
    /// measured from admission (see `docs/SERVING.md`). `None` (the
    /// default) means no implicit deadline.
    pub default_deadline: Option<Duration>,
    /// Warm-restart artifact store directory. When set, every built
    /// artifact is spilled there and a (re)started service reloads the
    /// directory's index, so previously-seen patterns skip the cold
    /// build. `None` (the default) disables persistence.
    pub store_dir: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            cache_capacity: 8,
            queue_depth: 64,
            workers: 2,
            recorder: None,
            default_deadline: None,
            store_dir: None,
        }
    }
}

/// One value matrix (sharing the request's pattern) and its right-hand
/// sides.
#[derive(Clone, Debug)]
pub struct ValueBatch {
    /// Numeric values on the request's sparsity pattern, in original
    /// (unpermuted) coordinates.
    pub values: SymmetricCsc,
    /// Right-hand sides of `A x = b`, original coordinates.
    pub rhs: Vec<Vec<f64>>,
}

impl ValueBatch {
    /// A batch with no right-hand sides yet (factor-only).
    pub fn new(values: SymmetricCsc) -> Self {
        ValueBatch {
            values,
            rhs: Vec::new(),
        }
    }

    /// Adds a right-hand side.
    pub fn with_rhs(mut self, b: Vec<f64>) -> Self {
        self.rhs.push(b);
        self
    }
}

/// A batched solve request: one schedule identity, many value sets,
/// many right-hand sides. The identity is the request's [`Pipeline`]: a
/// cache miss plans with it, and its [`Pipeline::key`] is the cache key.
#[derive(Clone, Debug)]
pub struct SolveRequest {
    /// The pattern every batch's values must share, and the front-end
    /// parameters a miss plans with.
    pipeline: Pipeline,
    /// Per-request deadline measured from admission; overrides the
    /// service's [`ServeConfig::default_deadline`]. Not part of the
    /// cache key.
    pub deadline: Option<Duration>,
    /// The value sets to factor and their right-hand sides.
    pub batches: Vec<ValueBatch>,
}

impl SolveRequest {
    /// A request with the pipeline's paper defaults and no batches, whose
    /// misses build dependencies by the serial sweep: the engine of
    /// `sched::rebuild_artifact`, so one key has one origin.
    pub fn new(pattern: SymmetricPattern) -> Self {
        SolveRequest {
            pipeline: Pipeline::new(pattern).deps_engine(DepsEngine::Sweep),
            deadline: None,
            batches: Vec::new(),
        }
    }

    /// Sets the ordering algorithm.
    pub fn ordering(mut self, o: Ordering) -> Self {
        self.pipeline = self.pipeline.ordering(o);
        self
    }

    /// Sets the ordering engine.
    pub fn order_engine(mut self, e: OrderEngine) -> Self {
        self.pipeline = self.pipeline.order_engine(e);
        self
    }

    /// Sets the partitioning parameters.
    pub fn params(mut self, p: PartitionParams) -> Self {
        self.pipeline = self.pipeline.params(p);
        self
    }

    /// Sets block or wrap mapping.
    pub fn scheme(mut self, s: Scheme) -> Self {
        self.pipeline = self.pipeline.scheme(s);
        self
    }

    /// Sets the processor count.
    pub fn processors(mut self, n: usize) -> Self {
        self.pipeline = self.pipeline.processors(n);
        self
    }

    /// Sets the per-request deadline (measured from admission).
    pub fn deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// Adds a value batch.
    pub fn batch(mut self, b: ValueBatch) -> Self {
        self.batches.push(b);
        self
    }

    /// The pipeline a cache miss plans with.
    pub fn pipeline(&self) -> &Pipeline {
        &self.pipeline
    }

    /// The [`ScheduleKey`] this request resolves through the cache.
    pub fn key(&self) -> ScheduleKey {
        self.pipeline.key()
    }
}

/// The numeric outcome for one [`ValueBatch`].
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// The Cholesky factor of the batch's (permuted) value matrix —
    /// bit-identical to a fresh `Pipeline` run.
    pub factor: NumericFactor,
    /// One solution per right-hand side, original coordinates.
    pub solutions: Vec<Vec<f64>>,
}

/// The outcome of a [`SolveRequest`].
#[derive(Clone, Debug)]
pub struct SolveResponse {
    /// The cache key the request resolved under.
    pub key: ScheduleKey,
    /// The schedule artifact used: a handle on the cache's own entry.
    pub artifact: ScheduleArtifact,
    /// Whether the artifact was already resident (`true`) or this
    /// request triggered / waited on the build or store load (`false`).
    pub cache_hit: bool,
    /// Whether this request's artifact came from the warm-restart store
    /// (a verified disk reconstruction) rather than a fresh build.
    pub warm_start: bool,
    /// Results, one per request batch in order.
    pub batches: Vec<BatchResult>,
}

/// Receipt for a queued request; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Result<SolveResponse, ServeError>>,
}

impl Ticket {
    /// Blocks until the worker finishes the request. Returns
    /// [`ServeError::ShuttingDown`] if the service was dropped first.
    pub fn wait(self) -> Result<SolveResponse, ServeError> {
        self.rx.recv().unwrap_or(Err(ServeError::ShuttingDown))
    }
}

struct Job {
    request: SolveRequest,
    admitted: Instant,
    reply: mpsc::Sender<Result<SolveResponse, ServeError>>,
}

/// State shared between the handle and the workers.
struct Shared {
    cache: ScheduleCache,
    store: Option<ArtifactStore>,
    default_deadline: Option<Duration>,
    queue_depth: usize,
    depth: AtomicUsize,
    rejected: AtomicU64,
    completed: AtomicU64,
    cold_builds: AtomicU64,
    latencies_ms: Mutex<VecDeque<f64>>,
}

impl Shared {
    fn publish_queue_depth(&self) {
        trace::current().gauge(
            "serve.queue.depth",
            self.depth.load(AtomicOrdering::Relaxed) as f64,
        );
    }

    /// Records one request latency and republishes the percentile
    /// gauges over the sliding window.
    fn record_latency(&self, ms: f64) {
        let mut window = lock_unpoisoned(&self.latencies_ms);
        if window.len() == LATENCY_WINDOW {
            window.pop_front();
        }
        window.push_back(ms);
        let rec = trace::current();
        if rec.is_recording() {
            let mut sorted: Vec<f64> = window.iter().copied().collect();
            drop(window);
            sorted.sort_by(f64::total_cmp);
            rec.gauge("serve.latency.p50_ms", percentile(&sorted, 0.50));
            rec.gauge("serve.latency.p90_ms", percentile(&sorted, 0.90));
            rec.gauge("serve.latency.p99_ms", percentile(&sorted, 0.99));
        }
    }

    /// The whole request path: validate, enforce the queue-stage
    /// deadline, resolve the artifact (cache, remembered permutation,
    /// store, then a full build), enforce the build-stage deadline, then
    /// factor and solve every batch.
    /// Called from workers (with the job's admission instant) and from the
    /// synchronous entry point (admitted = now) alike, both under the
    /// service's recorder scope.
    fn process(
        &self,
        request: &SolveRequest,
        admitted: Instant,
    ) -> Result<SolveResponse, ServeError> {
        let rec = trace::current();
        let started = Instant::now();
        let clock = DeadlineClock::new(admitted, request.deadline.or(self.default_deadline));
        let mut spent = BudgetBreakdown {
            queue_ms: started.duration_since(admitted).as_secs_f64() * 1e3,
            ..BudgetBreakdown::default()
        };
        clock.check(DeadlineStage::Queue, spent)?;

        let pattern = request.pipeline().pattern();
        let n = pattern.n();
        // The one hash of the request: the cache key, and `expected` below.
        let key = request.pipeline().key();
        for batch in &request.batches {
            // Compared array against array; only a mismatch pays for the
            // pattern and hash its error reports.
            if !batch.values.has_pattern(pattern) {
                return Err(ServeError::ValuesMismatch {
                    expected: key.structural_hash,
                    got: batch.values.pattern().structural_hash(),
                });
            }
            for b in &batch.rhs {
                if b.len() != n {
                    return Err(ServeError::RhsLength {
                        expected: n,
                        got: b.len(),
                    });
                }
            }
        }

        let mut built_here = false;
        let mut warm_start = false;
        let build_started = Instant::now();
        let artifact = self.cache.get_or_plan(key, |remembered| {
            // Memory before disk: a permutation the cache still holds for
            // this pattern spares the ordering phase, which is all a store
            // load spares, without reading and re-verifying a file. Only
            // then the warm-restart store; any store failure (missing,
            // corrupt, key mismatch) degrades to a build.
            if let (None, Some(store)) = (&remembered, &self.store) {
                if let Ok(Some(a)) = store.load(&key, pattern) {
                    warm_start = true;
                    return Ok(a);
                }
            }
            built_here = true;
            self.cold_builds.fetch_add(1, AtomicOrdering::Relaxed);
            let artifact = match remembered {
                Some(permutation) => request.pipeline().try_plan_ordered(permutation),
                None => request.pipeline().try_plan(),
            }
            .map_err(|e| ServeError::Build(Arc::new(e)))?;
            // What the store already holds is this artifact: one key, one
            // schedule. A spill failure must not fail the request either:
            // the answer is correct, only persistence is lost.
            if let Some(store) = self.store.as_ref().filter(|s| !s.contains(&key)) {
                let _ = store.spill(&artifact);
            }
            Ok(artifact)
        })?;
        // Waiters coalesced onto someone else's in-flight build count as
        // hits here: they got the artifact without building or loading
        // it. The cache's own stats keep the finer hit/wait distinction.
        let cache_hit = !built_here && !warm_start;
        spent.build_ms = build_started.elapsed().as_secs_f64() * 1e3;
        // The last boundary: a factor that has been computed is returned,
        // not thrown away.
        clock.check(DeadlineStage::Build, spent)?;

        let solve_started = Instant::now();
        let results = run_kernel(request, &artifact)?;
        rec.record_span_ns("serve.solve", solve_started.elapsed().as_nanos() as u64);
        rec.incr("serve.requests", 1);
        self.completed.fetch_add(1, AtomicOrdering::Relaxed);
        self.record_latency(clock.elapsed_ms());

        Ok(SolveResponse {
            key,
            artifact,
            cache_hit,
            warm_start,
            batches: results,
        })
    }
}

/// Factors and solves every batch of `request`. An error is the
/// matrix's: [`ServeError::Solve`].
fn run_kernel(
    request: &SolveRequest,
    artifact: &ScheduleArtifact,
) -> Result<Vec<BatchResult>, ServeError> {
    let mut results = Vec::with_capacity(request.batches.len());
    for batch in &request.batches {
        let permuted = batch.values.permute(artifact.permutation());
        let factor =
            numeric::cholesky(&permuted, artifact.factor()).map_err(ServeError::solve_numeric)?;
        let solutions =
            numeric::batch::solve_many_permuted(&factor, artifact.permutation(), &batch.rhs);
        results.push(BatchResult { factor, solutions });
    }
    Ok(results)
}

/// Nearest-rank percentile of an ascending-sorted slice.
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A long-lived batched solver: a [`ScheduleCache`] fronted by a
/// bounded request queue and worker threads. See the module docs for
/// the request path and [`ServeConfig`] for the knobs. Dropping the
/// service stops the workers; queued requests observe
/// [`ServeError::ShuttingDown`].
pub struct SolverService {
    shared: Arc<Shared>,
    recorder: Option<Arc<Recorder>>,
    queue: Option<mpsc::SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for SolverService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolverService")
            .field("queue_depth", &self.shared.queue_depth)
            .field("workers", &self.workers.len())
            .field("cache", &self.shared.cache)
            .finish()
    }
}

impl SolverService {
    /// Starts the service: builds the cache, opens the warm-restart
    /// store (when configured — an unopenable store directory degrades
    /// to running without persistence), and spawns the workers.
    pub fn start(config: ServeConfig) -> Self {
        let _scope = config.recorder.as_ref().map(trace::scope);
        let store = config
            .store_dir
            .as_ref()
            .and_then(|dir| ArtifactStore::open(dir).ok());
        let shared = Arc::new(Shared {
            cache: ScheduleCache::new(config.cache_capacity),
            store,
            default_deadline: config.default_deadline,
            queue_depth: config.queue_depth.max(1),
            depth: AtomicUsize::new(0),
            rejected: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            cold_builds: AtomicU64::new(0),
            latencies_ms: Mutex::new(VecDeque::new()),
        });
        let (tx, rx) = mpsc::sync_channel::<Job>(shared.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers.max(1))
            .map(|i| {
                let shared = shared.clone();
                let rx = rx.clone();
                let recorder = config.recorder.clone();
                let spawned = std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || {
                        let _scope = recorder.as_ref().map(trace::scope);
                        loop {
                            let job = match lock_unpoisoned(&rx).recv() {
                                Ok(job) => job,
                                Err(_) => break, // service dropped
                            };
                            shared.depth.fetch_sub(1, AtomicOrdering::Relaxed);
                            shared.publish_queue_depth();
                            let outcome = shared.process(&job.request, job.admitted);
                            // A dropped ticket is fine; the work still
                            // warmed the cache.
                            let _ = job.reply.send(outcome);
                        }
                    });
                match spawned {
                    Ok(handle) => handle,
                    Err(e) => panic!("spawn serve worker: {e}"),
                }
            })
            .collect();
        SolverService {
            shared,
            recorder: config.recorder,
            queue: Some(tx),
            workers,
        }
    }

    /// Solves synchronously on the caller's thread (no queue, no
    /// admission control — the caller provides the backpressure). The
    /// request's deadline starts now.
    pub fn solve(&self, request: SolveRequest) -> Result<SolveResponse, ServeError> {
        let _scope = self.recorder.as_ref().map(trace::scope);
        self.shared.process(&request, Instant::now())
    }

    /// Enqueues a request for the worker pool. Admission-controlled:
    /// a full queue rejects immediately with [`ServeError::Overloaded`]
    /// instead of blocking, so callers can shed or retry with backoff.
    pub fn submit(&self, request: SolveRequest) -> Result<Ticket, ServeError> {
        let queue = self.queue.as_ref().ok_or(ServeError::ShuttingDown)?;
        let _scope = self.recorder.as_ref().map(trace::scope);
        let shared = &self.shared;
        let overloaded = || {
            shared.rejected.fetch_add(1, AtomicOrdering::Relaxed);
            trace::current().incr("serve.queue.rejected", 1);
            Err(ServeError::Overloaded {
                capacity: shared.queue_depth,
            })
        };
        // The slot is taken before the job can reach a worker, which gives
        // it back on receipt: counted after the send, a fast worker got
        // there first and wrapped the gauge below zero.
        let relaxed = AtomicOrdering::Relaxed;
        let reserve = |d: usize| (d < shared.queue_depth).then_some(d + 1);
        if shared
            .depth
            .fetch_update(relaxed, relaxed, reserve)
            .is_err()
        {
            return overloaded();
        }
        shared.publish_queue_depth();
        let (reply, rx) = mpsc::channel();
        match queue.try_send(Job {
            request,
            admitted: Instant::now(),
            reply,
        }) {
            Ok(()) => Ok(Ticket { rx }),
            Err(refused) => {
                shared.depth.fetch_sub(1, relaxed);
                shared.publish_queue_depth();
                match refused {
                    mpsc::TrySendError::Full(_) => overloaded(),
                    mpsc::TrySendError::Disconnected(_) => Err(ServeError::ShuttingDown),
                }
            }
        }
    }

    /// The schedule cache's behaviour counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.shared.cache.stats()
    }

    /// Direct access to the schedule cache (inspection, warm-up).
    pub fn cache(&self) -> &ScheduleCache {
        &self.shared.cache
    }

    /// Requests currently admitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> usize {
        self.shared.depth.load(AtomicOrdering::Relaxed)
    }

    /// Requests rejected with [`ServeError::Overloaded`] so far.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.load(AtomicOrdering::Relaxed)
    }

    /// Requests completed (successfully) so far, both entry points.
    pub fn completed(&self) -> u64 {
        self.shared.completed.load(AtomicOrdering::Relaxed)
    }

    /// Artifacts planned on a cache miss (cold builds) so far, whether
    /// from a fresh ordering or from a permutation the cache remembered
    /// ([`CacheStats::replans`] tells those apart) — a restarted service
    /// whose warm-restart store covers the workload keeps this at zero.
    pub fn cold_builds(&self) -> u64 {
        self.shared.cold_builds.load(AtomicOrdering::Relaxed)
    }

    /// Always 0: there is one kernel, so no request is served below the
    /// one it asked for. Kept only because the frozen `benchmark/` crate
    /// reports it as `serve.degraded`; it goes when that crate is
    /// re-baselined.
    pub fn degraded(&self) -> u64 {
        0
    }

    /// The warm-restart store's behaviour counters; `None` when the
    /// service runs without a store.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.shared.store.as_ref().map(|s| s.stats())
    }
}

impl Drop for SolverService {
    fn drop(&mut self) {
        // Closing the channel stops the workers after the backlog
        // drains; tickets for requests a worker never reached observe
        // `ShuttingDown` when their reply sender drops.
        self.queue = None;
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor::matrix::gen;
    use spfactor::numeric::solve::residual_norm;

    fn request(cols: usize, seed: u64, nrhs: usize) -> SolveRequest {
        let pattern = gen::lap9(cols, 4);
        let values = gen::spd_from_pattern(&pattern, seed);
        let n = pattern.n();
        let mut batch = ValueBatch::new(values);
        for k in 0..nrhs {
            batch = batch.with_rhs((0..n).map(|i| ((i + k) as f64).cos()).collect());
        }
        SolveRequest::new(pattern).processors(2).batch(batch)
    }

    #[test]
    fn sync_solve_produces_real_solutions() {
        let service = SolverService::start(ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        });
        let req = request(6, 3, 2);
        let a = req.batches[0].values.clone();
        let resp = service.solve(req).unwrap();
        assert!(!resp.cache_hit);
        let batch = &resp.batches[0];
        assert_eq!(batch.solutions.len(), 2);
        for (k, x) in batch.solutions.iter().enumerate() {
            let b: Vec<f64> = (0..a.n()).map(|i| ((i + k) as f64).cos()).collect();
            assert!(residual_norm(&a, x, &b) < 1e-9);
        }
        assert_eq!(service.completed(), 1);
    }

    #[test]
    fn submit_round_trips_through_the_queue() {
        let service = SolverService::start(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        });
        let tickets: Vec<Ticket> = (0..4)
            .map(|s| service.submit(request(5, s as u64, 1)).unwrap())
            .collect();
        for t in tickets {
            let resp = t.wait().unwrap();
            assert_eq!(resp.batches.len(), 1);
        }
        assert_eq!(service.completed(), 4);
        assert_eq!(service.queue_depth(), 0);
    }

    #[test]
    fn queue_depth_stays_within_its_bound_under_a_fast_worker() {
        // One worker on warm, tiny requests picks a job up about as fast
        // as `submit` returns: the interleaving in which a count taken
        // after the send was decremented first and wrapped below zero.
        let config = ServeConfig {
            workers: 1,
            queue_depth: 2,
            ..ServeConfig::default()
        };
        let bound = config.queue_depth;
        let service = SolverService::start(config);
        let req = request(4, 1, 0);
        service.solve(req.clone()).unwrap();
        // Nothing in the scope may panic before `done` is set: the watcher
        // would spin on, and the scope would wait for it.
        let done = std::sync::atomic::AtomicBool::new(false);
        let deepest = |sofar: usize| sofar.max(service.queue_depth());
        let (watched, submitted, failures) = std::thread::scope(|s| {
            let watcher = s.spawn(|| {
                let mut seen = 0;
                while !done.load(AtomicOrdering::Relaxed) {
                    seen = deepest(seen);
                }
                seen
            });
            // One request at a time: the worker is back in `recv`, still
            // spinning, when the next job lands, and can have it before
            // `submit` has returned.
            let (mut seen, mut failures) = (0, Vec::new());
            for _ in 0..20_000 {
                let outcome = service.submit(req.clone());
                seen = deepest(seen);
                failures.extend(outcome.and_then(Ticket::wait).err());
            }
            done.store(true, AtomicOrdering::Relaxed);
            (watcher.join(), seen, failures)
        });
        let watched = watched.expect("the watcher only reads");
        assert!(
            watched.max(submitted) <= bound,
            "depth reached {watched} (watcher), {submitted} (submitter)"
        );
        assert!(failures.is_empty(), "{failures:?}");
        assert_eq!(service.queue_depth(), 0);
    }

    #[test]
    fn mismatched_values_and_rhs_are_rejected_before_building() {
        let service = SolverService::start(ServeConfig::default());
        let mut req = request(5, 1, 1);
        // Values with a different pattern.
        let other = gen::spd_from_pattern(&gen::lap9(6, 4), 1);
        req.batches[0].values = other;
        assert!(matches!(
            service.solve(req).unwrap_err(),
            ServeError::ValuesMismatch { .. }
        ));
        let mut req = request(5, 1, 1);
        req.batches[0].rhs[0].pop();
        assert!(matches!(
            service.solve(req).unwrap_err(),
            ServeError::RhsLength { .. }
        ));
        // Neither malformed request touched the cache.
        assert_eq!(service.cache_stats().misses, 0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&xs, 0.50), 2.0);
        assert_eq!(percentile(&xs, 0.99), 4.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }
}
