//! # spfactor-serve
//!
//! A long-lived solver service over the `spfactor` pipeline, built for
//! the repeated-solve workloads the paper's partitioning targets
//! (circuit simulation, power-grid, FEM time stepping): millions of
//! numeric solves over a handful of sparsity patterns.
//!
//! Everything the pipeline computes before numeric values enter depends
//! only on the sparsity pattern, so this crate pays that front-end cost
//! — ordering, symbolic factorization, partitioning, dependency
//! analysis, scheduling — **once per pattern** and amortizes it:
//!
//! * [`ScheduleCache`] — a concurrent, pattern-keyed cache of frozen
//!   [`ScheduleArtifact`](spfactor::sched::ScheduleArtifact)s (keyed by
//!   [`ScheduleKey`](spfactor::sched::ScheduleKey): structural hash of
//!   the CSC pattern plus every
//!   front-end parameter) with LRU eviction and **single-flight**
//!   deduplication: concurrent misses on one pattern build it exactly
//!   once, everyone else waits for that build; under the artifacts it
//!   remembers their permutations past eviction, so a re-miss plans from
//!   the permutation instead of ordering the pattern again;
//! * [`SolverService`] — a batched solver: each [`SolveRequest`] carries
//!   many value sets and many right-hand sides, all executed against the
//!   one cached artifact through the existing numeric kernels
//!   (sequential, schedule-driven block-parallel, or the full
//!   message-passing runtime);
//! * an **admission-controlled request queue** — [`SolverService::submit`]
//!   enqueues onto a bounded queue drained by worker threads and rejects
//!   with [`ServeError::Overloaded`] when the queue is full, so overload
//!   sheds load instead of growing latency without bound;
//! * a **resilience layer** ([`ResilienceConfig`]) — per-request
//!   deadlines enforced at the queue/build/solve stage boundaries
//!   ([`ServeError::DeadlineExceeded`] carries a per-stage budget
//!   breakdown), one **failover** step from the message-passing kernel
//!   to block-parallel (bit-identical answers, the abandoning error on
//!   `SolveResponse::failover`; no retry — a failed mp run fails the
//!   same way again), and a **circuit breaker** on the message-passing
//!   kernel that skips it while it keeps failing, until a half-open
//!   probe reaches a verdict;
//! * a **warm-restart artifact store** ([`ArtifactStore`], enabled by
//!   `ServeConfig::store_dir`) — built schedules spill to disk and a
//!   restarted service reloads them with fingerprint verification,
//!   serving previously-seen patterns with zero cold rebuilds while
//!   rejecting corrupt files with typed errors;
//! * `serve.*` metrics on the existing `spfactor-trace` surface — cache
//!   hit/miss/wait/evict counters, queue depth, build/solve latency
//!   percentiles, and the deadline / failover / breaker / store
//!   counters (see `docs/METRICS.md` and `docs/SERVING.md`).
//!
//! Factors produced through the cache are **bit-identical** to a fresh
//! one-shot `Pipeline` run on the same inputs — `tests/serve_cache.rs`
//! pins this — because the artifact *is* the pipeline front end, frozen.
//!
//! ```
//! use spfactor_serve::{ServeConfig, SolveRequest, SolverService, ValueBatch};
//!
//! let pattern = spfactor::matrix::gen::lap9(8, 8);
//! let values = spfactor::matrix::gen::spd_from_pattern(&pattern, 7);
//! let b = vec![1.0; pattern.n()];
//!
//! let service = SolverService::start(ServeConfig::default());
//! let mut request = SolveRequest::new(pattern).processors(4);
//! request.batches.push(ValueBatch::new(values).with_rhs(b.clone()));
//! // Async path: bounded admission + worker threads.
//! let ticket = service.submit(request.clone()).unwrap();
//! let response = ticket.wait().unwrap();
//! assert_eq!(response.batches[0].solutions.len(), 1);
//! // Second solve of the same pattern hits the schedule cache.
//! service.solve(request).unwrap();
//! assert_eq!(service.cache_stats().hits, 1);
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod resilience;
pub mod service;
pub mod store;

pub use cache::{CacheSnapshot, CacheStats, ScheduleCache};
pub use resilience::{BudgetBreakdown, DeadlineStage, KernelKind, ResilienceConfig};
pub use service::{
    BatchResult, ServeConfig, SolveRequest, SolveResponse, SolverService, Ticket, ValueBatch,
};
pub use store::{ArtifactStore, StoreError, StoreStats};

use spfactor::mp::MpError;
use spfactor::{NumericError, PipelineError};
use std::sync::Arc;

/// Everything the serve layer can fail with, as a value. Cloneable so
/// single-flight waiters and queue tickets can all observe one failure.
#[derive(Clone, Debug)]
pub enum ServeError {
    /// The bounded request queue is full: the request was rejected at
    /// admission. Back off and retry; the capacity is the configured
    /// [`ServeConfig::queue_depth`].
    Overloaded {
        /// The queue capacity that was exhausted.
        capacity: usize,
    },
    /// Planning the schedule artifact (the pattern-only front end)
    /// failed. Shared by every request that was coalesced onto the
    /// failed build.
    Build(Arc<PipelineError>),
    /// A numeric factorization or execution failure while solving
    /// against a (successfully built) artifact.
    Solve(Arc<PipelineError>),
    /// A batch's value matrix does not have the pattern the request was
    /// keyed under.
    ValuesMismatch {
        /// Structural hash of the request's pattern.
        expected: u64,
        /// Structural hash of the offending value matrix's pattern.
        got: u64,
    },
    /// A right-hand side has the wrong length for the system.
    RhsLength {
        /// The matrix dimension.
        expected: usize,
        /// The offending right-hand side's length.
        got: usize,
    },
    /// A backend kernel execution failed, with the full structured
    /// [`MpError`] preserved — including its
    /// [`FaultTrace`](spfactor::mp::FaultTrace) and, for watchdog
    /// aborts, the per-processor last-event diagnostics — so callers
    /// and tests can match on the failure class instead of parsing a
    /// flattened string.
    Kernel {
        /// The kernel class that failed.
        kernel: KernelKind,
        /// The structured backend error.
        error: Arc<MpError>,
    },
    /// The request's deadline was exceeded; the payload says at which
    /// stage boundary and where the budget went.
    DeadlineExceeded {
        /// Stage boundary at which the blown budget was discovered.
        stage: DeadlineStage,
        /// The request's budget in milliseconds.
        budget_ms: f64,
        /// Per-stage spend at failure time.
        spent: BudgetBreakdown,
    },
    /// The message-passing kernel's circuit breaker is open and failover
    /// is disabled (with failover on, an open breaker sends the request
    /// to block-parallel instead of failing it).
    BreakerOpen {
        /// The denied kernel class.
        kernel: KernelKind,
    },
    /// The service is shutting down; the request was dropped.
    ShuttingDown,
}

impl ServeError {
    fn solve_numeric(e: NumericError) -> Self {
        ServeError::Solve(Arc::new(PipelineError::from(e)))
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Overloaded { capacity } => {
                write!(f, "request queue full (capacity {capacity})")
            }
            ServeError::Build(e) => write!(f, "schedule build failed: {e}"),
            ServeError::Solve(e) => write!(f, "solve failed: {e}"),
            ServeError::ValuesMismatch { expected, got } => write!(
                f,
                "value matrix pattern {got:016x} does not match request pattern {expected:016x}"
            ),
            ServeError::RhsLength { expected, got } => {
                write!(f, "right-hand side has length {got}, system is {expected}")
            }
            ServeError::Kernel { kernel, error } => {
                write!(f, "{} kernel failed: {error}", kernel.name())
            }
            ServeError::DeadlineExceeded {
                stage,
                budget_ms,
                spent,
            } => write!(
                f,
                "deadline of {budget_ms:.1}ms exceeded at the {} stage \
                 (queue {:.1}ms, build {:.1}ms, solve {:.1}ms)",
                stage.name(),
                spent.queue_ms,
                spent.build_ms,
                spent.solve_ms
            ),
            ServeError::BreakerOpen { kernel } => {
                write!(f, "{} kernel circuit breaker is open", kernel.name())
            }
            ServeError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Build(e) | ServeError::Solve(e) => Some(e.as_ref()),
            ServeError::Kernel { error, .. } => Some(error.as_ref()),
            _ => None,
        }
    }
}
