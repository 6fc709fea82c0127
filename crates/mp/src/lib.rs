//! Message-passing execution runtime for the paper's block schedule.
//!
//! The paper evaluates its partitioner with a *counted* simulation of a
//! message-passing machine (§4): [`spfactor_simulate::data_traffic`]
//! predicts communication and [`spfactor_simulate::work_distribution`]
//! predicts load balance, but nothing executes the factorization under a
//! message-passing discipline — the predictions are unfalsifiable. This
//! crate closes that loop: [`execute`] runs the numeric Cholesky
//! factorization on a **virtual distributed-memory machine** in which
//!
//! * every processor of the [`Assignment`]
//!   is an OS thread with a typed mailbox (a channel of [`runtime`]
//!   messages) and a private value store — there is **no shared value
//!   memory**; every remote element moves through an explicit message;
//! * each processor owns exactly the factor entries of its assigned unit
//!   blocks, seeded with the corresponding entries of `A`;
//! * units execute in the deterministic topological program of
//!   [`spfactor_sched::processor_queues`]; before a unit runs, the
//!   distinct remote source elements it needs are gathered with one
//!   *block request* per owning processor (fan-out) and answered with a
//!   *block reply* carrying the values, which are **cached locally** —
//!   exactly the paper's traffic rule ("once a data element is fetched,
//!   that element is stored locally and subsequent usage … does not add
//!   to the data traffic");
//! * completions fan out as `Done` notifications that drive the
//!   dependency counters of the receiving processor's queue.
//!
//! Because the runtime performs each element update in the same
//! per-target order as the sequential left-looking factorization, the
//! computed factor is **bit-identical** to [`spfactor_numeric::cholesky`]
//! — and because its cache discipline is the simulator's, the *observed*
//! per-processor traffic equals [`spfactor_simulate::data_traffic`]'s
//! prediction **exactly**
//! (asserted element-for-element in `tests/mp_cross_validation.rs` and by
//! property tests here), as do its message and byte counters and
//! [`spfactor_simulate::messages()`]. The two models validate each other: a
//! missed dependency edge deadlocks or corrupts the runtime, a miscounted
//! traffic rule breaks the equality. The runtime prices nothing: what a
//! run of the schedule costs is [`spfactor_simulate::timed::simulate_timed`]
//! under the one [`NetworkModel`], dependency stalls included.
//!
//! ## Checking, not surviving
//!
//! The mailboxes are in-process channels, which neither lose, duplicate
//! nor reorder messages, so the protocol sends every message exactly
//! once and waits with plain blocking receives (see [`runtime`]). What
//! the runtime does guard against is misuse and its own bugs: schedule
//! inputs that do not belong together are refused before any thread
//! spawns, a failing pivot ends the run with the sequential kernel's
//! error, and a stall watchdog turns a wedged or panicked machine into a
//! typed [`MpError`] instead of a hang (`docs/ROBUSTNESS.md`).
//!
//! ```
//! use spfactor_matrix::gen;
//! use spfactor_order::{order, Ordering};
//! use spfactor_partition::{dependencies, Partition, PartitionParams};
//! use spfactor_sched::block_allocation;
//! use spfactor_symbolic::SymbolicFactor;
//!
//! let p = gen::lap9(8, 8);
//! let perm = order(&p, Ordering::paper_default());
//! let a = gen::spd_from_pattern(&p.permute(&perm), 42);
//! let f = SymbolicFactor::from_pattern(&a.pattern());
//! let part = Partition::build(&f, &PartitionParams::with_grain(4));
//! let deps = dependencies(&f, &part);
//! let assign = block_allocation(&part, &deps, 4);
//!
//! let report = spfactor_mp::execute(
//!     &a, &f, &part, &deps, &assign, &spfactor_simulate::NetworkModel::free(),
//! ).unwrap();
//! // The executed factor is the sequential factor, bit for bit.
//! assert_eq!(report.factor, spfactor_numeric::cholesky(&a, &f).unwrap());
//! // Observed traffic is the analytic prediction, element for element,
//! // and so is every message counter, processor by processor.
//! assert_eq!(
//!     report.traffic_report(),
//!     spfactor_simulate::data_traffic(&f, &part, &assign),
//! );
//! assert_eq!(
//!     report.message_counts(),
//!     spfactor_simulate::messages(&f, &part, &deps, &assign),
//! );
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod error;
pub mod runtime;

pub use error::{MpError, ProcLastEvent};
pub use runtime::execute_with_timeline;

use spfactor_matrix::SymmetricCsc;
use spfactor_numeric::NumericFactor;
use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::Assignment;
use spfactor_simulate::{MessageCounts, NetworkModel, TrafficReport, WorkReport};
use spfactor_symbolic::SymbolicFactor;
use spfactor_trace::Current;

/// What one virtual processor observably did during an execution.
///
/// All fields except the two wall-clock ones are deterministic: they
/// depend only on the schedule, never on thread interleaving.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProcStats {
    /// Unit blocks executed.
    pub units: usize,
    /// Paper work units executed (2 per update pair, 1 per scaling).
    pub work: usize,
    /// Distinct remote elements fetched — the paper's data traffic.
    pub traffic: usize,
    /// Remote source accesses served from the local element cache.
    pub cache_hits: usize,
    /// Source accesses that were local to this processor.
    pub local_accesses: usize,
    /// Messages originated (requests + replies + notifications).
    pub msgs_sent: usize,
    /// Modeled payload bytes of those messages.
    pub bytes_sent: usize,
    /// Block-request messages sent while gathering remote elements.
    pub requests_sent: usize,
    /// Block-reply messages served to other processors.
    pub replies_served: usize,
    /// Payload elements carried by those replies.
    pub elements_served: usize,
    /// Wall-clock nanoseconds blocked on the mailbox (non-deterministic).
    pub idle_ns: u64,
    /// Wall-clock nanoseconds executing unit blocks (non-deterministic).
    pub busy_ns: u64,
}

/// Result of a message-passing execution: the numeric factor plus the
/// observed communication, work and message statistics.
#[derive(Clone, Debug)]
pub struct MpReport {
    /// The computed Cholesky factor (bit-identical to the sequential
    /// factorization).
    pub factor: NumericFactor,
    /// Number of virtual processors.
    pub nprocs: usize,
    /// Per-processor observations.
    pub per_proc: Vec<ProcStats>,
    /// `pair_matrix[src * nprocs + dst]` — distinct elements owned by
    /// `src` fetched by `dst`, same layout as [`TrafficReport`].
    pub pair_matrix: Vec<usize>,
}

impl MpReport {
    /// The observed traffic, shaped as the analytic simulator's
    /// [`TrafficReport`] so the two can be compared with `==`.
    pub fn traffic_report(&self) -> TrafficReport {
        let per_proc: Vec<usize> = self.per_proc.iter().map(|s| s.traffic).collect();
        TrafficReport {
            total: per_proc.iter().sum(),
            per_proc,
            pair_matrix: self.pair_matrix.clone(),
            nprocs: self.nprocs,
        }
    }

    /// The observed work distribution, shaped as the analytic
    /// [`WorkReport`].
    pub fn work_report(&self) -> WorkReport {
        let per_proc: Vec<usize> = self.per_proc.iter().map(|s| s.work).collect();
        WorkReport {
            total: per_proc.iter().sum(),
            per_proc,
        }
    }

    /// The observed message counters, shaped as
    /// [`spfactor_simulate::messages()`]' prediction.
    pub fn message_counts(&self) -> Vec<MessageCounts> {
        self.per_proc
            .iter()
            .map(|s| MessageCounts {
                requests_sent: s.requests_sent,
                replies_served: s.replies_served,
                elements_served: s.elements_served,
                msgs_sent: s.msgs_sent,
                bytes_sent: s.bytes_sent,
            })
            .collect()
    }

    /// Total messages sent across all processors.
    pub fn msgs_total(&self) -> usize {
        self.per_proc.iter().map(|s| s.msgs_sent).sum()
    }

    /// Total modeled payload bytes across all processors.
    pub fn bytes_total(&self) -> usize {
        self.per_proc.iter().map(|s| s.bytes_sent).sum()
    }

    /// Total cache hits across all processors.
    pub fn cache_hits_total(&self) -> usize {
        self.per_proc.iter().map(|s| s.cache_hits).sum()
    }
}

/// Executes the schedule on the virtual message-passing machine.
///
/// `a` must be symmetric positive definite with the structure the
/// symbolic factor was computed from; `partition`, `deps` and
/// `assignment` are the artifacts of the structural pipeline. Returns
/// the factor and the observed statistics, or a typed [`MpError`] (a
/// numeric failure is the error [`spfactor_numeric::cholesky`] returns
/// for `a`, whichever processor met a failing pivot first; schedule
/// inputs built for different partitions are a
/// [`spfactor_numeric::NumericError::StructureMismatch`]).
/// [`execute_with_timeline`] is the same run with an optional timeline
/// sink; both record the same `mp.*` metrics under a recorder scope.
///
/// `_network` is ignored: the run is priced by
/// [`spfactor_simulate::timed::simulate_timed`]. The argument stays only
/// because the harness under `benchmark/` still passes it.
pub fn execute(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
    partition: &Partition,
    deps: &DepGraph,
    assignment: &Assignment,
    _network: &NetworkModel,
) -> Result<MpReport, MpError> {
    execute_with_timeline(a, symbolic, partition, deps, assignment, None)
}

/// Bumps the `mp.*` counters and gauges for a completed run (the metric
/// surface documented on [`execute_with_timeline`]).
pub(crate) fn record_mp_metrics(rec: &Current, report: &MpReport) {
    if !rec.is_recording() {
        return;
    }
    let sum = |f: fn(&ProcStats) -> usize| report.per_proc.iter().map(f).sum::<usize>() as u64;
    rec.incr("mp.msgs_sent", sum(|s| s.msgs_sent));
    rec.incr("mp.bytes", sum(|s| s.bytes_sent));
    rec.incr("mp.cache_hits", sum(|s| s.cache_hits));
    rec.incr("mp.remote_fetches", sum(|s| s.traffic));
    rec.incr("mp.local_accesses", sum(|s| s.local_accesses));
    rec.incr("mp.units_run", sum(|s| s.units));
    rec.incr(
        "mp.idle_ns",
        report.per_proc.iter().map(|s| s.idle_ns).sum(),
    );
    rec.incr(
        "mp.busy_ns",
        report.per_proc.iter().map(|s| s.busy_ns).sum(),
    );
    rec.gauge("mp.traffic.total", sum(|s| s.traffic) as f64);
    rec.gauge(
        "mp.work.max",
        report.per_proc.iter().map(|s| s.work).max().unwrap_or(0) as f64,
    );
    for (p, s) in report.per_proc.iter().enumerate() {
        rec.gauge(&format!("mp.proc.{p}.traffic"), s.traffic as f64);
        rec.gauge(&format!("mp.proc.{p}.work"), s.work as f64);
        rec.gauge(&format!("mp.proc.{p}.msgs_sent"), s.msgs_sent as f64);
    }
}
