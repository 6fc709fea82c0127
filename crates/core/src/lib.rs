//! # spfactor
//!
//! A reproduction of *Effects of Partitioning and Scheduling Sparse Matrix
//! Factorization on Communication and Load Balance* (Sesh Venugopal &
//! Vijay K. Naik, ICASE Report 91-80, Supercomputing 1991): a block-based,
//! automatic partitioning and scheduling system for sparse Cholesky
//! factorization on distributed-memory machines, with a machine model
//! that measures the communication / load-balance trade-off the paper
//! studies.
//!
//! The subsystems are separate crates, re-exported here as modules:
//!
//! * [`matrix`] — sparse structures, formats (MatrixMarket,
//!   Harwell-Boeing), generators for the paper's test matrices;
//! * [`order`] — multiple minimum degree (the paper's ordering), RCM,
//!   nested dissection, elimination trees;
//! * [`symbolic`] — symbolic factorization, supernodes, update-operation
//!   enumeration;
//! * [`interval`] — closed integer intervals: the extents that describe
//!   unit blocks;
//! * [`partition`] — clusters, unit blocks, the ten dependency categories;
//! * [`sched`] — the paper's block allocation, the wrap-mapped baseline,
//!   ablation allocators;
//! * [`simulate`] — data traffic, load imbalance, hot-spots, timed
//!   simulation;
//! * [`numeric`] — real Cholesky factorization, triangular solves, and
//!   the executor of the unit-block schedule on threads;
//! * [`mp`] — a virtual message-passing machine that *executes* the
//!   schedule (threads + mailboxes, no shared values) and cross-validates
//!   the analytic simulator.
//!
//! # Quickstart
//!
//! ```
//! use spfactor::{Pipeline, Scheme};
//!
//! // The paper's LAP30 test problem: 9-point Laplacian, 30x30 grid.
//! let matrix = spfactor::matrix::gen::paper::lap30();
//!
//! // Block scheme with grain size 4 on 16 processors (Tables 2-3).
//! let block = Pipeline::new(matrix.pattern.clone())
//!     .grain(4)
//!     .processors(16)
//!     .run();
//! // Wrap-mapped baseline (Table 5).
//! let wrap = Pipeline::new(matrix.pattern.clone())
//!     .scheme(Scheme::Wrap)
//!     .processors(16)
//!     .run();
//!
//! // The paper's trade-off: block communicates less, wrap balances better.
//! assert!(block.traffic.total < wrap.traffic.total);
//! assert!(wrap.work.imbalance() <= block.work.imbalance());
//! ```

pub use spfactor_interval as interval;
pub use spfactor_matrix as matrix;
pub use spfactor_mp as mp;
pub use spfactor_numeric as numeric;
pub use spfactor_order as order;
pub use spfactor_partition as partition;
pub use spfactor_sched as sched;
pub use spfactor_simulate as simulate;
pub use spfactor_symbolic as symbolic;
pub use spfactor_trace as trace;

pub use spfactor_trace::Recorder;

use std::sync::{Arc, OnceLock};

pub use spfactor_matrix::{MatrixError, Permutation, SymmetricPattern};
pub use spfactor_mp::{MpError, MpReport};
pub use spfactor_numeric::NumericError;
pub use spfactor_order::{OrderEngine, Ordering};
pub use spfactor_partition::{DepGraph, DepsEngine, Partition, PartitionParams};
pub use spfactor_sched::{Assignment, ScheduleArtifact, ScheduleKey};
pub use spfactor_simulate::{NetworkModel, SimulateEngine, TrafficReport, WorkReport};
pub use spfactor_symbolic::SymbolicFactor;
pub use spfactor_trace::{CriticalPathReport, Timeline, TimelineSink};

use spfactor_simulate::timed::{simulate_timed, OrderPolicy, TimedReport};

/// Workspace-wide error taxonomy: every way the stack can fail, as a
/// value. Matrix construction and IO failures, numeric factorization
/// failures, message-passing execution faults, and invalid pipeline
/// parameters all funnel into this one enum, so callers match on a
/// single type regardless of which layer failed.
#[derive(Debug)]
pub enum SpfactorError {
    /// A pipeline parameter is invalid (zero columns, zero processors,
    /// zero grain, zero minimum cluster width, …).
    InvalidParameter {
        /// Which builder parameter was rejected.
        param: &'static str,
        /// Why it was rejected.
        message: String,
    },
    /// A failure in the matrix substrate (construction, format IO).
    Matrix(MatrixError),
    /// A numeric factorization failure (non-positive-definite input,
    /// structure mismatch).
    Numeric(NumericError),
    /// A message-passing execution failure that is not numeric: the
    /// stall watchdog or a panicked worker.
    Execution(MpError),
}

impl std::fmt::Display for SpfactorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SpfactorError::InvalidParameter { param, message } => {
                write!(f, "invalid parameter `{param}`: {message}")
            }
            SpfactorError::Matrix(e) => write!(f, "matrix error: {e}"),
            SpfactorError::Numeric(e) => write!(f, "numeric error: {e}"),
            SpfactorError::Execution(e) => write!(f, "execution error: {e}"),
        }
    }
}

impl std::error::Error for SpfactorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SpfactorError::InvalidParameter { .. } => None,
            SpfactorError::Matrix(e) => Some(e),
            SpfactorError::Numeric(e) => Some(e),
            SpfactorError::Execution(e) => Some(e),
        }
    }
}

impl From<MatrixError> for SpfactorError {
    fn from(e: MatrixError) -> Self {
        SpfactorError::Matrix(e)
    }
}

impl From<NumericError> for SpfactorError {
    fn from(e: NumericError) -> Self {
        SpfactorError::Numeric(e)
    }
}

impl From<MpError> for SpfactorError {
    fn from(e: MpError) -> Self {
        // A numeric failure inside the mp runtime is still a numeric
        // failure; unwrap it so callers match one variant either way.
        match e {
            MpError::Numeric(n) => SpfactorError::Numeric(n),
            other => SpfactorError::Execution(other),
        }
    }
}

/// Error returned by [`Pipeline::try_run`] — the workspace taxonomy.
pub type PipelineError = SpfactorError;

/// Which mapping scheme the pipeline runs. Defined in [`sched`] (it is
/// part of the [`ScheduleKey`] cache identity) and re-exported here
/// unchanged.
pub use spfactor_sched::Scheme;

/// How (and whether) the pipeline *executes* the schedule after the
/// analytic simulation. See the README's "Choosing the execution
/// backend" section for guidance.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ExecutionBackend {
    /// Analytic predictions only (the default): the pipeline stops at
    /// [`simulate::data_traffic`] / [`simulate::work_distribution`] and
    /// [`PipelineResult::execution`] is `None`.
    Analytic,
    /// Additionally run the schedule on the [`mp`] virtual
    /// distributed-memory machine — one thread per processor exchanging
    /// explicit messages — on SPD values synthesized deterministically
    /// from the permuted pattern. Yields the executed factor and the
    /// observed traffic, work and message statistics, which
    /// cross-validate the analytic reports and
    /// [`simulate::messages()`]. What the run costs is
    /// [`simulate::timed::simulate_timed`] under a [`NetworkModel`].
    MessagePassing,
}

/// Seed for the SPD values the message-passing backend synthesizes from
/// the pipeline's (pattern-only) input.
const EXECUTION_VALUES_SEED: u64 = 42;

/// Bottleneck units kept in the pipeline's critical-path report.
const TIMELINE_TOP_K: usize = 10;

/// Timelines captured when the pipeline runs with
/// [`Pipeline::timeline`]`(true)`.
#[derive(Clone, Debug)]
pub struct TimelineCapture {
    /// Virtual-clock event timeline from the timed simulator.
    pub simulated: Timeline,
    /// The timed report the simulated timeline reconciles against
    /// exactly (same makespan, bitwise-equal per-processor busy).
    pub timed: TimedReport,
    /// Critical-path attribution of the simulated timeline: the longest
    /// chain's compute/transfer/wait breakdown sums to the makespan.
    pub critical_path: CriticalPathReport,
    /// Wall-clock event timeline observed by the message-passing
    /// runtime; `None` under [`ExecutionBackend::Analytic`].
    pub executed: Option<Timeline>,
}

/// End-to-end driver: ordering → symbolic factorization → partitioning →
/// scheduling → simulation, with the paper's defaults.
#[derive(Clone, Debug)]
pub struct Pipeline {
    pattern: SymmetricPattern,
    /// The pattern's structural hash, taken by the first [`Pipeline::key`]:
    /// no builder method changes the pattern.
    hash: OnceLock<u64>,
    ordering: Ordering,
    order_engine: OrderEngine,
    params: PartitionParams,
    scheme: Scheme,
    nprocs: usize,
    execution: ExecutionBackend,
    engine: SimulateEngine,
    deps_engine: DepsEngine,
    recorder: Option<Arc<Recorder>>,
    timeline: bool,
}

/// Whether a pattern of `n` columns and `nnz` strict-lower entries fits
/// the 32-bit indices `ordering` runs on: every ordering needs its
/// columns to fit the symbolic factor's `u32` row indices, and the
/// minimum-degree driver (also nested dissection's leaf ordering) needs
/// its edge offsets to fit too. A pattern beyond them is refused here
/// rather than truncated downstream.
fn check_pattern_range(ordering: Ordering, n: usize, nnz: usize) -> Result<(), String> {
    match ordering {
        Ordering::MultipleMinimumDegree { .. } | Ordering::NestedDissection => {
            order::compress::check_index_range(n, nnz)
        }
        Ordering::Natural | Ordering::ReverseCuthillMcKee | Ordering::MinimumFill => {
            order::compress::check_column_range(n)
        }
    }
}

impl Pipeline {
    /// Starts a pipeline on a symmetric sparsity structure with the
    /// paper's defaults: MMD ordering, grain 4, minimum cluster width 4,
    /// block scheme, 4 processors.
    pub fn new(pattern: SymmetricPattern) -> Self {
        Pipeline {
            pattern,
            hash: OnceLock::new(),
            ordering: Ordering::paper_default(),
            order_engine: OrderEngine::Direct,
            params: PartitionParams::default(),
            scheme: Scheme::Block,
            nprocs: 4,
            execution: ExecutionBackend::Analytic,
            engine: SimulateEngine::Element,
            deps_engine: DepsEngine::Element,
            recorder: None,
            timeline: false,
        }
    }

    /// Attaches a metrics [`Recorder`]: every phase then records its
    /// timings, counters and gauges into it (the full name inventory is
    /// documented in `docs/METRICS.md`). The same recorder is carried
    /// into the [`PipelineResult`] and is available through
    /// [`PipelineResult::metrics`].
    ///
    /// ```
    /// use std::sync::Arc;
    /// use spfactor::{Pipeline, Recorder};
    ///
    /// let rec = Arc::new(Recorder::new());
    /// let result = Pipeline::new(spfactor::matrix::gen::lap9(6, 6))
    ///     .with_recorder(rec.clone())
    ///     .run();
    /// // The symbolic phase reported its fill-in as a gauge.
    /// assert_eq!(
    ///     rec.gauge_value("symbolic.fill_in"),
    ///     Some(result.plan.factor().fill_in() as f64),
    /// );
    /// assert!(result.metrics().unwrap().span_stats("phase.order").is_some());
    /// ```
    ///
    /// The pipeline puts the recorder in scope ([`trace::scope`]) on the
    /// calling thread for the length of each run, over whatever scope the
    /// caller may have open; without one, a run records into the caller's
    /// scope if there is one and nowhere otherwise.
    pub fn with_recorder(mut self, recorder: Arc<Recorder>) -> Self {
        self.recorder = Some(recorder);
        self
    }

    /// Selects the ordering algorithm.
    pub fn ordering(mut self, o: Ordering) -> Self {
        self.ordering = o;
        self
    }

    /// Sets the grain size (minimum elements per unit block).
    pub fn grain(mut self, g: usize) -> Self {
        self.params.grain = g;
        self
    }

    /// Sets the minimum cluster width (Table 4's parameter).
    pub fn min_cluster_width(mut self, w: usize) -> Self {
        self.params.min_cluster_width = w;
        self
    }

    /// Sets the full partitioning parameter set.
    pub fn params(mut self, p: PartitionParams) -> Self {
        self.params = p;
        self
    }

    /// Selects block or wrap mapping.
    pub fn scheme(mut self, s: Scheme) -> Self {
        self.scheme = s;
        self
    }

    /// Sets the processor count. Zero is rejected by
    /// [`Pipeline::try_run`] with a typed error (and therefore panics in
    /// [`Pipeline::run`]).
    pub fn processors(mut self, n: usize) -> Self {
        self.nprocs = n;
        self
    }

    /// Selects the execution backend (default:
    /// [`ExecutionBackend::Analytic`]).
    ///
    /// ```
    /// use spfactor::{ExecutionBackend, Pipeline};
    ///
    /// let r = Pipeline::new(spfactor::matrix::gen::lap9(6, 6))
    ///     .processors(4)
    ///     .backend(ExecutionBackend::MessagePassing)
    ///     .run();
    /// let exec = r.execution.as_ref().unwrap();
    /// // The runtime's observed traffic is the analytic prediction.
    /// assert_eq!(exec.traffic_report(), r.traffic);
    /// ```
    pub fn backend(mut self, b: ExecutionBackend) -> Self {
        self.execution = b;
        self
    }

    /// Selects the simulation engine (default:
    /// [`SimulateEngine::Element`], the per-element oracle). All engines
    /// return bit-identical reports; `Block` (also selected as
    /// `BlockParallel`) computes them analytically from unit-block
    /// geometry and is orders of magnitude faster on large problems — see
    /// `docs/PERFORMANCE.md`.
    ///
    /// ```
    /// use spfactor::{Pipeline, SimulateEngine};
    ///
    /// let p = spfactor::matrix::gen::lap9(8, 8);
    /// let slow = Pipeline::new(p.clone()).processors(4).run();
    /// let fast = Pipeline::new(p)
    ///     .processors(4)
    ///     .engine(SimulateEngine::BlockParallel)
    ///     .run();
    /// assert_eq!(slow.traffic, fast.traffic);
    /// assert_eq!(slow.work, fast.work);
    /// ```
    pub fn engine(mut self, e: SimulateEngine) -> Self {
        self.engine = e;
        self
    }

    /// Selects the dependency-analysis engine (default:
    /// [`DepsEngine::Element`], the per-operation oracle). All engines
    /// return bit-identical dependency graphs — same edge sets, same
    /// per-category operation counts; `Sweep` builds them by a sweep over
    /// unit-block geometry and is the fast choice on large problems
    /// (`SweepParallel` is the same build under another span name) — see
    /// `docs/PERFORMANCE.md`.
    ///
    /// ```
    /// use spfactor::{DepsEngine, Pipeline};
    ///
    /// let p = spfactor::matrix::gen::lap9(8, 8);
    /// let slow = Pipeline::new(p.clone()).processors(4).run();
    /// let fast = Pipeline::new(p)
    ///     .processors(4)
    ///     .deps_engine(DepsEngine::Sweep)
    ///     .run();
    /// assert_eq!(slow.plan.deps(), fast.plan.deps());
    /// assert_eq!(slow.traffic, fast.traffic);
    /// ```
    pub fn deps_engine(mut self, e: DepsEngine) -> Self {
        self.deps_engine = e;
        self
    }

    /// Selects the ordering engine (default: [`OrderEngine::Direct`],
    /// the minimum-degree driver on the original graph).
    /// [`OrderEngine::Compressed`] first merges indistinguishable
    /// columns into supervariables and runs the same driver, weighted,
    /// on the compressed quotient graph — smaller where the pattern
    /// compresses, and bit-identical to `Direct` when nothing does —
    /// see `docs/PERFORMANCE.md`. The engine is part of the schedule
    /// cache identity ([`ScheduleKey`]).
    ///
    /// ```
    /// use spfactor::{OrderEngine, Pipeline};
    ///
    /// let p = spfactor::matrix::gen::lap9(8, 8);
    /// let slow = Pipeline::new(p.clone()).processors(4).run();
    /// let fast = Pipeline::new(p)
    ///     .processors(4)
    ///     .order_engine(OrderEngine::Compressed)
    ///     .run();
    /// // lap9 grids have no indistinguishable columns, so the engines
    /// // produce the same permutation and identical reports.
    /// assert_eq!(slow.traffic, fast.traffic);
    /// assert_eq!(slow.work, fast.work);
    /// ```
    pub fn order_engine(mut self, e: OrderEngine) -> Self {
        self.order_engine = e;
        self
    }

    /// Enables event-timeline capture (default: off). The pipeline then
    /// additionally runs the event-driven timed simulator
    /// ([`simulate::timed`], default [`NetworkModel`],
    /// scan-order policy) with a [`TimelineSink`] attached and stores a
    /// [`TimelineCapture`] in [`PipelineResult::timeline`]: the
    /// virtual-clock [`Timeline`], its [`TimedReport`], and the
    /// critical-path attribution. Under
    /// [`ExecutionBackend::MessagePassing`] the runtime records a
    /// wall-clock timeline too ([`TimelineCapture::executed`]). Export
    /// either with [`Timeline::to_chrome_trace`] /
    /// [`Timeline::to_chrome_trace_scaled`] — see
    /// `docs/OBSERVABILITY.md`.
    ///
    /// ```
    /// use spfactor::Pipeline;
    ///
    /// let r = Pipeline::new(spfactor::matrix::gen::lap9(6, 6))
    ///     .processors(4)
    ///     .timeline(true)
    ///     .run();
    /// let tl = r.timeline.as_ref().unwrap();
    /// // The timeline reconciles exactly with the timed report, and the
    /// // critical path attributes the whole makespan.
    /// tl.simulated
    ///     .reconcile(&tl.timed.busy, tl.timed.makespan, 1e-9)
    ///     .unwrap();
    /// assert!(!tl.critical_path.hops.is_empty());
    /// ```
    pub fn timeline(mut self, on: bool) -> Self {
        self.timeline = on;
        self
    }

    /// Checks the builder parameters, returning the first violation as a
    /// typed error instead of a downstream panic.
    fn validate(&self) -> Result<(), PipelineError> {
        if self.pattern.n() == 0 {
            return Err(SpfactorError::InvalidParameter {
                param: "pattern",
                message: "matrix has zero columns".into(),
            });
        }
        let (n, nnz) = (self.pattern.n(), self.pattern.nnz_strict_lower());
        check_pattern_range(self.ordering, n, nnz).map_err(|message| {
            SpfactorError::InvalidParameter {
                param: "pattern",
                message,
            }
        })?;
        if self.nprocs == 0 {
            return Err(SpfactorError::InvalidParameter {
                param: "processors",
                message: "need at least one processor".into(),
            });
        }
        if self.params.grain == 0 {
            return Err(SpfactorError::InvalidParameter {
                param: "grain",
                message: "the grain size must be at least 1".into(),
            });
        }
        if self.params.min_cluster_width == 0 {
            return Err(SpfactorError::InvalidParameter {
                param: "min_cluster_width",
                message: "minimum cluster width must be at least 1".into(),
            });
        }
        Ok(())
    }

    /// Runs all stages and returns the full set of artifacts and metrics,
    /// panicking on failure. This is a thin wrapper over
    /// [`Pipeline::try_run`] kept for ergonomic callers (examples,
    /// benches, tests on known-good inputs); code that handles failures
    /// should call `try_run` and match the [`PipelineError`].
    pub fn run(&self) -> PipelineResult {
        self.try_run()
            .unwrap_or_else(|e| panic!("pipeline failed: {e}"))
    }

    /// Runs all stages and returns the full set of artifacts and
    /// metrics, or a typed [`PipelineError`]: invalid parameters are
    /// rejected up front, and a failed message-passing execution
    /// (non-SPD values, watchdog) surfaces as a value.
    ///
    /// With a recorder attached (see [`Pipeline::with_recorder`]) the run
    /// happens under that recorder's scope: each stage opens its
    /// `phase.*` guard (span and heap peak) and the phase entry points
    /// record into the scope they find, so the recorder ends up with the
    /// complete metrics surface of the run.
    ///
    /// The builder is borrowed, so one configured pipeline can be run
    /// many times; each run re-plans (see [`Pipeline::try_plan`] /
    /// [`Pipeline::try_run_planned`] to amortize the front end instead).
    pub fn try_run(&self) -> Result<PipelineResult, PipelineError> {
        let artifact = self.try_plan()?;
        self.run_planned_unchecked(&artifact)
    }

    /// Runs the pattern-only front end — ordering, symbolic
    /// factorization, partitioning, dependency analysis, processor
    /// allocation — and freezes the result as an immutable, hashable
    /// [`ScheduleArtifact`]. The artifact depends only on the sparsity
    /// pattern and the front-end parameters (its [`ScheduleKey`]), so it
    /// can be cached and reused across many numeric factorizations and
    /// solves: that is exactly what the `spfactor-serve` schedule cache
    /// does.
    ///
    /// The schedule is derived on first use: this call orders and
    /// factors symbolically, and the partition, dependency graph and
    /// allocation are built by the first read of any of them (as
    /// [`Pipeline::try_run_planned`] does, under this pipeline's recorder),
    /// once per artifact. A sequential factorization never pays for them.
    ///
    /// ```
    /// use spfactor::Pipeline;
    ///
    /// let pipeline = Pipeline::new(spfactor::matrix::gen::lap9(8, 8)).processors(4);
    /// let artifact = pipeline.try_plan().unwrap();
    /// // Re-running against the artifact skips the whole front end and
    /// // produces the identical result.
    /// let cached = pipeline.try_run_planned(&artifact).unwrap();
    /// let fresh = pipeline.try_run().unwrap();
    /// assert_eq!(cached.traffic, fresh.traffic);
    /// assert_eq!(cached.work, fresh.work);
    /// ```
    pub fn try_plan(&self) -> Result<ScheduleArtifact, PipelineError> {
        self.plan_from(None)
    }

    /// [`Pipeline::try_plan`] without its ordering phase: the front end
    /// from symbolic factorization on, over a `permutation` the caller
    /// already holds for this pattern, ordering and engine. Given the
    /// permutation `try_plan` would compute, the artifact is the one
    /// `try_plan` returns, fingerprint and all — the ordering is a
    /// property of the pattern, not of grain, scheme or processor count,
    /// which is what lets the `spfactor-serve` cache keep permutations
    /// past the eviction of the schedules built from them. Any other
    /// permutation of the right length yields a correct schedule with
    /// whatever fill that ordering gives. As there, the schedule is derived
    /// on first use.
    pub fn try_plan_ordered(
        &self,
        permutation: Permutation,
    ) -> Result<ScheduleArtifact, PipelineError> {
        if permutation.len() != self.pattern.n() {
            return Err(SpfactorError::InvalidParameter {
                param: "permutation",
                message: format!(
                    "permutation covers {} columns, the pattern has {}",
                    permutation.len(),
                    self.pattern.n()
                ),
            });
        }
        self.plan_from(Some(permutation))
    }

    fn plan_from(
        &self,
        permutation: Option<Permutation>,
    ) -> Result<ScheduleArtifact, PipelineError> {
        self.validate()?;
        let _scope = self.recorder.as_ref().map(trace::scope);
        Ok(sched::plan(
            &self.pattern,
            self.key(),
            permutation,
            self.deps_engine,
        ))
    }

    /// Panicking form of [`Pipeline::try_plan`].
    pub fn plan(&self) -> ScheduleArtifact {
        self.try_plan()
            .unwrap_or_else(|e| panic!("pipeline plan failed: {e}"))
    }

    /// The sparsity pattern the pipeline plans.
    pub fn pattern(&self) -> &SymmetricPattern {
        &self.pattern
    }

    /// The [`ScheduleKey`] this pipeline's front end would be cached
    /// under: the structural hash of the input pattern plus the
    /// ordering/grain/scheme/processor parameters. The pattern is hashed
    /// once per pipeline, by the first call.
    pub fn key(&self) -> ScheduleKey {
        ScheduleKey {
            structural_hash: *self.hash.get_or_init(|| self.pattern.structural_hash()),
            n: self.pattern.n(),
            ordering: self.ordering,
            order_engine: self.order_engine,
            params: self.params,
            scheme: self.scheme,
            nprocs: self.nprocs,
        }
    }

    /// Runs only the back end — simulation, optional timeline capture,
    /// optional message-passing execution — against a previously planned
    /// [`ScheduleArtifact`], skipping the entire front end. The artifact
    /// must have been planned under this pipeline's [`Pipeline::key`]
    /// (same pattern, same parameters); a mismatch is rejected as
    /// [`SpfactorError::InvalidParameter`] rather than producing a
    /// schedule that silently disagrees with the configuration.
    ///
    /// Results are bit-identical to a fresh [`Pipeline::try_run`]: the
    /// artifact *is* the front half of the run, frozen.
    pub fn try_run_planned(
        &self,
        artifact: &ScheduleArtifact,
    ) -> Result<PipelineResult, PipelineError> {
        self.validate()?;
        let expected = self.key();
        if artifact.key() != &expected {
            return Err(SpfactorError::InvalidParameter {
                param: "artifact",
                message: format!(
                    "schedule artifact key {:?} does not match the pipeline key {:?}",
                    artifact.key(),
                    expected
                ),
            });
        }
        self.run_planned_unchecked(artifact)
    }

    /// Panicking form of [`Pipeline::try_run_planned`].
    pub fn run_planned(&self, artifact: &ScheduleArtifact) -> PipelineResult {
        self.try_run_planned(artifact)
            .unwrap_or_else(|e| panic!("pipeline failed: {e}"))
    }

    /// Back-end phases against a trusted artifact (key already checked,
    /// or freshly planned by this very pipeline).
    fn run_planned_unchecked(
        &self,
        artifact: &ScheduleArtifact,
    ) -> Result<PipelineResult, PipelineError> {
        let _scope = self.recorder.as_ref().map(trace::scope);
        let rec = trace::current();
        let (factor, partition, deps, assignment) = (
            artifact.factor(),
            artifact.partition(),
            artifact.deps(),
            artifact.assignment(),
        );

        let (traffic, work) = {
            let _phase = rec.phase("simulate");
            simulate::simulate(self.engine, factor, partition, assignment)
        };

        // Virtual-clock timeline: re-run the schedule through the timed
        // simulator with a sink attached and analyze the event DAG.
        let simulated = self.timeline.then(|| {
            let _phase = rec.phase("timeline");
            let sink = TimelineSink::new();
            let timed = simulate_timed(
                factor,
                partition,
                deps,
                assignment,
                &NetworkModel::default(),
                OrderPolicy::ScanOrder,
                Some(&sink),
            );
            let timeline = sink.finish();
            let critical_path = timeline.critical_path(TIMELINE_TOP_K);
            rec.gauge("timeline.events", timeline.events.len() as f64);
            rec.gauge("timeline.makespan", timed.makespan);
            rec.gauge("timeline.critical.hops", critical_path.hops.len() as f64);
            rec.gauge("timeline.critical.compute", critical_path.compute);
            rec.gauge("timeline.critical.transfer", critical_path.transfer);
            rec.gauge("timeline.critical.wait", critical_path.wait);
            (timeline, timed, critical_path)
        });

        let mp_sink = self.timeline.then(TimelineSink::new);
        let execution = match self.execution {
            ExecutionBackend::Analytic => None,
            ExecutionBackend::MessagePassing => {
                let _phase = rec.phase("execute");
                let permuted = self.pattern.permute(artifact.permutation());
                let a = matrix::gen::spd_from_pattern(&permuted, EXECUTION_VALUES_SEED);
                let report = mp::execute_with_timeline(
                    &a,
                    factor,
                    partition,
                    deps,
                    assignment,
                    mp_sink.as_ref(),
                )?;
                Some(report)
            }
        };

        let timeline = simulated.map(|(simulated, timed, critical_path)| {
            let executed = mp_sink.map(|s| s.finish()).filter(|t| !t.events.is_empty());
            if let (true, Some(t)) = (rec.is_recording(), &executed) {
                rec.gauge("timeline.mp.events", t.events.len() as f64);
                rec.gauge("timeline.mp.makespan", t.makespan());
            }
            TimelineCapture {
                simulated,
                timed,
                critical_path,
                executed,
            }
        });

        Ok(PipelineResult {
            plan: artifact.clone(),
            traffic,
            work,
            execution,
            timeline,
            recorder: self.recorder.clone(),
        })
    }
}

/// Everything a pipeline run produces.
#[derive(Clone, Debug)]
pub struct PipelineResult {
    /// The front half of the run — permutation, symbolic factor,
    /// partition, dependency graph, assignment — as a handle on the very
    /// artifact the run was given or planned: nothing is copied out of it.
    pub plan: ScheduleArtifact,
    /// Data-traffic metrics (paper's communication tables).
    pub traffic: TrafficReport,
    /// Work-distribution metrics (paper's Δ columns).
    pub work: WorkReport,
    /// The message-passing execution report, when the pipeline ran with
    /// [`ExecutionBackend::MessagePassing`]; `None` under
    /// [`ExecutionBackend::Analytic`].
    pub execution: Option<MpReport>,
    /// Event timelines and critical-path attribution, when the pipeline
    /// ran with [`Pipeline::timeline`]`(true)`.
    pub timeline: Option<TimelineCapture>,
    /// The recorder attached via [`Pipeline::with_recorder`], if any.
    recorder: Option<Arc<Recorder>>,
}

impl PipelineResult {
    /// The metrics recorder the pipeline wrote into, if one was attached
    /// with [`Pipeline::with_recorder`]. Use [`Recorder::to_json`] or
    /// [`Recorder::to_table`] to export it; the metric names are
    /// documented in `docs/METRICS.md`.
    pub fn metrics(&self) -> Option<&'_ Recorder> {
        self.recorder.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::gen;

    #[test]
    fn pipeline_runs_block_and_wrap() {
        let p = gen::lap9(10, 10);
        let block = Pipeline::new(p.clone()).grain(4).processors(8).run();
        assert_eq!(block.plan.factor().n(), 100);
        assert!(block.plan.partition().num_units() > 0);
        assert_eq!(block.work.total, block.plan.factor().paper_work());

        let wrap = Pipeline::new(p).scheme(Scheme::Wrap).processors(8).run();
        assert_eq!(wrap.plan.partition().num_units(), 100);
        assert_eq!(wrap.work.total, block.work.total);
    }

    #[test]
    fn pipeline_is_deterministic() {
        let p = gen::lap9(8, 8);
        let a = Pipeline::new(p.clone()).processors(4).run();
        let b = Pipeline::new(p).processors(4).run();
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn message_passing_backend_cross_validates() {
        let p = gen::lap9(8, 8);
        let r = Pipeline::new(p)
            .processors(4)
            .backend(ExecutionBackend::MessagePassing)
            .run();
        let exec = r.execution.as_ref().expect("backend ran");
        assert_eq!(exec.traffic_report(), r.traffic);
        assert_eq!(exec.work_report(), r.work);
        assert_eq!(exec.factor.n(), r.plan.factor().n());
    }

    #[test]
    fn engine_selector_changes_nothing_observable() {
        let p = gen::lap9(9, 9);
        let base = Pipeline::new(p.clone()).processors(6).run();
        for e in [SimulateEngine::Block, SimulateEngine::BlockParallel] {
            let r = Pipeline::new(p.clone()).processors(6).engine(e).run();
            assert_eq!(r.traffic, base.traffic, "engine {e:?} traffic diverged");
            assert_eq!(r.work, base.work, "engine {e:?} work diverged");
        }
    }

    #[test]
    fn deps_engine_selector_changes_nothing_observable() {
        let p = gen::lap9(9, 9);
        let base = Pipeline::new(p.clone()).processors(6).run();
        for e in [DepsEngine::Sweep, DepsEngine::SweepParallel] {
            let r = Pipeline::new(p.clone()).processors(6).deps_engine(e).run();
            assert_eq!(
                r.plan.deps(),
                base.plan.deps(),
                "deps engine {e:?} graph diverged"
            );
            assert_eq!(
                r.traffic, base.traffic,
                "deps engine {e:?} traffic diverged"
            );
            assert_eq!(r.work, base.work, "deps engine {e:?} work diverged");
        }
    }

    #[test]
    fn analytic_backend_skips_execution() {
        let r = Pipeline::new(gen::lap9(5, 5)).run();
        assert!(r.execution.is_none());
    }

    #[test]
    fn try_run_rejects_invalid_parameters_with_typed_errors() {
        let p = gen::lap9(5, 5);
        let cases: [(&str, Pipeline); 4] = [
            (
                "pattern",
                Pipeline::new(SymmetricPattern::from_edges(0, [])),
            ),
            ("processors", Pipeline::new(p.clone()).processors(0)),
            ("grain", Pipeline::new(p.clone()).grain(0)),
            (
                "min_cluster_width",
                Pipeline::new(p.clone()).min_cluster_width(0),
            ),
        ];
        for (want, pipeline) in cases {
            match pipeline.try_run() {
                Err(SpfactorError::InvalidParameter { param, .. }) => {
                    assert_eq!(param, want);
                }
                other => panic!("expected InvalidParameter({want}), got {other:?}"),
            }
        }
    }

    #[test]
    fn every_ordering_checks_the_column_range() {
        // The bound is tested through the pure check: a pattern with
        // 2^32 columns would take tens of gigabytes to build.
        let big = u32::MAX as usize;
        let edges = (u32::MAX / 2) as usize + 1;
        for ordering in [
            Ordering::Natural,
            Ordering::ReverseCuthillMcKee,
            Ordering::MultipleMinimumDegree { delta: 0 },
            Ordering::NestedDissection,
            Ordering::MinimumFill,
        ] {
            assert!(
                check_pattern_range(ordering, big - 1, 0).is_ok(),
                "{ordering:?}"
            );
            let err = check_pattern_range(ordering, big, 0).unwrap_err();
            assert!(err.contains("32-bit column ids"), "{ordering:?}: {err}");
            let driver = matches!(
                ordering,
                Ordering::MultipleMinimumDegree { .. } | Ordering::NestedDissection
            );
            assert_eq!(check_pattern_range(ordering, 10, edges).is_err(), driver);
        }
    }

    #[test]
    fn try_run_matches_run_on_valid_input() {
        let p = gen::lap9(8, 8);
        let a = Pipeline::new(p.clone()).processors(4).run();
        let b = Pipeline::new(p).processors(4).try_run().expect("valid");
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn timeline_capture_reconciles_and_attributes_makespan() {
        let p = gen::lap9(8, 8);
        let r = Pipeline::new(p.clone()).processors(4).timeline(true).run();
        let tl = r.timeline.as_ref().expect("timeline captured");
        tl.simulated
            .reconcile(&tl.timed.busy, tl.timed.makespan, 1e-9)
            .expect("simulated timeline reconciles");
        let attributed =
            tl.critical_path.compute + tl.critical_path.transfer + tl.critical_path.wait;
        assert!((attributed - tl.timed.makespan).abs() <= 1e-9);
        assert!(tl.executed.is_none(), "analytic backend records no mp run");
        // Off by default.
        let plain = Pipeline::new(p).processors(4).run();
        assert!(plain.timeline.is_none());
    }

    #[test]
    fn timeline_capture_includes_mp_run_under_message_passing() {
        let r = Pipeline::new(gen::lap9(8, 8))
            .processors(4)
            .backend(ExecutionBackend::MessagePassing)
            .timeline(true)
            .run();
        let tl = r.timeline.as_ref().expect("timeline captured");
        let executed = tl.executed.as_ref().expect("mp timeline captured");
        assert_eq!(executed.nprocs(), 4);
        assert!(executed.makespan() > 0.0);
        // Both timelines cover every unit.
        let units = r.plan.partition().num_units();
        let count_ends = |t: &Timeline| {
            t.events
                .iter()
                .filter(|e| matches!(e.kind, trace::EventKind::UnitEnd { .. }))
                .count()
        };
        assert_eq!(count_ends(&tl.simulated), units);
        assert_eq!(count_ends(executed), units);
    }

    #[test]
    fn timeline_gauges_are_recorded() {
        let rec = Arc::new(Recorder::new());
        let r = Pipeline::new(gen::lap9(6, 6))
            .processors(4)
            .timeline(true)
            .with_recorder(rec.clone())
            .run();
        let tl = r.timeline.as_ref().unwrap();
        assert_eq!(
            rec.gauge_value("timeline.events"),
            Some(tl.simulated.events.len() as f64)
        );
        assert_eq!(
            rec.gauge_value("timeline.makespan"),
            Some(tl.timed.makespan)
        );
        assert_eq!(
            rec.gauge_value("timeline.critical.hops"),
            Some(tl.critical_path.hops.len() as f64)
        );
        assert!(rec.span_stats("phase.timeline").is_some());
    }

    #[test]
    fn attached_recorder_takes_precedence_over_the_callers_scope() {
        let (a, b) = (Arc::new(Recorder::new()), Arc::new(Recorder::new()));
        let _scope = trace::scope(&a);
        let p = gen::lap9(6, 6);
        Pipeline::new(p.clone()).with_recorder(b.clone()).run();
        assert!(b.span_stats("phase.order").is_some());
        assert!(a.span_names().is_empty() && a.counter_names().is_empty());
        // Without one of its own the run records into the scope it is in.
        let r = Pipeline::new(p).run();
        assert!(a.span_stats("phase.order").is_some());
        assert!(r.metrics().is_none());
        assert_eq!(b.span_stats("phase.order").unwrap().count, 1);
    }

    #[test]
    fn planned_run_matches_fresh_run_exactly() {
        let p = gen::lap9(9, 9);
        let pipeline = Pipeline::new(p).processors(6);
        let artifact = pipeline.try_plan().expect("plans");
        let planned = pipeline.try_run_planned(&artifact).expect("runs");
        let fresh = pipeline.try_run().expect("runs");
        assert_eq!(planned.traffic, fresh.traffic);
        assert_eq!(planned.work, fresh.work);
        assert!(
            planned.plan.ptr_eq(&artifact),
            "the run holds the plan it was given"
        );
        assert_eq!(planned.plan.to_text(), fresh.plan.to_text());
        // Planning twice freezes the identical artifact.
        assert_eq!(
            artifact.fingerprint(),
            pipeline.try_plan().unwrap().fingerprint()
        );
    }

    #[test]
    fn planned_run_drives_the_mp_backend() {
        let p = gen::lap9(8, 8);
        let pipeline = Pipeline::new(p)
            .processors(4)
            .backend(ExecutionBackend::MessagePassing);
        let artifact = pipeline.try_plan().expect("plans");
        let a = pipeline.try_run_planned(&artifact).expect("runs");
        let b = pipeline.try_run_planned(&artifact).expect("runs again");
        let (ea, eb) = (a.execution.as_ref().unwrap(), b.execution.as_ref().unwrap());
        // Bit-identical executed factors across reuses of one artifact.
        assert_eq!(ea.factor, eb.factor);
        assert_eq!(ea.traffic_report(), a.traffic);
    }

    #[test]
    fn run_planned_rejects_foreign_artifacts() {
        let p = gen::lap9(8, 8);
        let artifact = Pipeline::new(p.clone()).processors(4).plan();
        // Same pattern, different processor count: different key.
        let err = Pipeline::new(p)
            .processors(8)
            .try_run_planned(&artifact)
            .unwrap_err();
        assert!(matches!(
            err,
            SpfactorError::InvalidParameter {
                param: "artifact",
                ..
            }
        ));
    }

    #[test]
    fn pipeline_key_tracks_configuration() {
        let p = gen::lap9(6, 6);
        let a = Pipeline::new(p.clone()).processors(4).key();
        assert_eq!(a, Pipeline::new(p.clone()).processors(4).key());
        assert_ne!(a, Pipeline::new(p.clone()).processors(5).key());
        assert_ne!(a, Pipeline::new(p.clone()).grain(25).processors(4).key());
        assert_ne!(a, Pipeline::new(p).scheme(Scheme::Wrap).processors(4).key());
    }

    #[test]
    fn a_key_taken_before_the_builder_changes_is_a_fresh_pipelines_key() {
        let p = gen::lap9(6, 6);
        let early = Pipeline::new(p.clone());
        assert_eq!(early.key().structural_hash, p.structural_hash());
        let late = early.grain(25).scheme(Scheme::Wrap).processors(7);
        let fresh = Pipeline::new(p)
            .grain(25)
            .scheme(Scheme::Wrap)
            .processors(7);
        assert_eq!(late.key(), fresh.key());
    }

    #[test]
    fn builder_setters_apply() {
        let p = gen::grid5(5, 5);
        let r = Pipeline::new(p)
            .ordering(Ordering::ReverseCuthillMcKee)
            .grain(25)
            .min_cluster_width(8)
            .processors(2)
            .run();
        assert_eq!(r.plan.partition().params.grain, 25);
        assert_eq!(r.plan.partition().params.min_cluster_width, 8);
        assert_eq!(r.plan.assignment().nprocs, 2);
    }
}
