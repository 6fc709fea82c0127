//! The virtual distributed-memory machine.
//!
//! One OS thread per processor of the [`Assignment`], each with a typed
//! mailbox (an unbounded channel of [`Msg`]) and a **private** value
//! store seeded with the entries of `A` it owns — no shared mutable
//! memory anywhere; every remote value travels through a message.
//!
//! ## Protocol
//!
//! Each processor runs its [`spfactor_sched::processor_queues`] program
//! strictly in order. Per unit block:
//!
//! 1. **wait** until all dependency predecessors are complete, counting
//!    down on [`Msg::Done`] notifications (local predecessors count down
//!    directly on completion);
//! 2. **prefetch**: scan the unit's update and scaling operations in
//!    execution order (the same [`UnitKernel::walk`] that step 3
//!    executes), classify every source access as local / cache hit
//!    / new remote fetch, and send one [`Msg::Request`] per owning
//!    processor batching all newly needed element ids (fan-out); block
//!    until the matching [`Msg::Reply`]s arrive and install the values
//!    in the local cache — elements are fetched **once** and reused from
//!    the cache thereafter, the paper's traffic rule;
//! 3. **execute** the unit on the private store with the kernel
//!    [`spfactor_numeric::cholesky_block_parallel`] runs on shared memory
//!    ([`UnitKernel::run`]: per owned column the updates in ascending
//!    source-column order, then the diagonal square root and the scaling
//!    of the owned off-diagonals) — so the factor is bit-identical to the
//!    sequential one;
//! 4. **notify**: count down local successors and send one [`Msg::Done`]
//!    to every other processor owning a successor.
//!
//! While blocked in steps 1–2 a processor keeps serving incoming
//! requests, so two processors can always satisfy each other's fetches.
//!
//! ## Resilience
//!
//! Every data-plane message (`Done`, `Request`, `Reply`, `Query`) passes
//! through the sender's `FaultInjector`, which may drop, duplicate,
//! delay, or reorder it according to the run's [`FaultPlan`]; processors
//! may also stall or crash. The runtime survives this:
//!
//! * **Timeouts + bounded retry.** Blocked waits receive with a timeout
//!   that backs off exponentially ([`RetryPolicy`]). Under a *lossy* plan
//!   (drops or a crash possible) a timed-out fetch retransmits its
//!   outstanding [`Msg::Request`]s and a timed-out dependency wait sends
//!   a [`Msg::Query`] to each missing predecessor's owner, who re-sends
//!   `Done` if the unit is complete. After
//!   [`RetryPolicy::max_attempts`] fruitless rounds the processor
//!   reports itself stuck and the run aborts with a typed
//!   [`MpError::FetchTimeout`] / [`MpError::DependencyTimeout`].
//! * **Idempotent receivers.** A replayed `Done` is ignored after the
//!   first sighting (`done_global`); a replayed `Reply` element is
//!   ignored once installed (`inflight`). Factor values are final when
//!   first sent, so duplicates can never corrupt the computation — the
//!   factor stays bit-identical to sequential Cholesky under any
//!   completing fault schedule.
//! * **Control plane.** Workers report `Progress` / `Finished` /
//!   `Aborted` / `Crashed` / `Stuck` events to a run controller over a
//!   reliable (never faulted) channel; the controller broadcasts the
//!   reliable [`Msg::Shutdown`] verdict when the run completes or must
//!   abort. Termination therefore never depends on lossy peer-to-peer
//!   terminals (the two-generals trap); a **stall watchdog** in the
//!   controller aborts the run with [`MpError::WatchdogTimeout`] if no
//!   processor makes progress for the whole [`MpConfig::watchdog`]
//!   budget, so no fault schedule can hang the caller.
//! * **Crashes.** A crashed processor goes silent mid-program. If the
//!   crash is announced the controller aborts immediately with
//!   [`MpError::ProcessorCrashed`]; a silent crash is discovered by
//!   peers exhausting their retry budgets or by the watchdog. Every
//!   fault-related error carries the machine-wide
//!   [`crate::FaultTrace`].
//!
//! Observed traffic and work are classified during prefetch, before any
//! fault can strike, and retransmissions are tallied separately — so
//! whenever a run completes, its traffic and work reports equal the
//! analytic simulator's predictions exactly, faults or not.
//!
//! ## Observation
//!
//! Given a sink, [`execute_config`] additionally streams a wall-clock
//! event timeline into the [`TimelineSink`]: each worker buffers typed
//! [`TimelineEvent`]s locally (ready/wait/start/end/transfer, stamped
//! in seconds since a shared run epoch) and flushes the buffer once at
//! join, so the hot path never touches the shared sink. The resulting
//! [`spfactor_trace::Timeline`] feeds the same Chrome-trace exporter
//! and critical-path analyzer as the virtual-clock simulator (see
//! `docs/OBSERVABILITY.md`). Independently of capture, every worker
//! notes the protocol step it is entering in a per-processor slot; when
//! the stall watchdog fires, the controller snapshots those slots into
//! [`MpError::WatchdogTimeout`]'s `last_events` so a wedge diagnosis
//! says where each processor was stuck.
//!
//! ## Modeled message sizes
//!
//! The byte accounting charges 4 bytes per id or header word and 8 per
//! value: a [`Msg::Done`] is 4 bytes, a [`Msg::Query`] 8, a request
//! `4 + 4·k` for `k` ids, a reply `12·k` (id + value per element). These
//! feed the `mp.bytes` counter; the [`crate::NetworkModel`] charges per
//! *element* and per *message*, so the estimate is independent of this
//! convention.

use crate::error::ProcLastEvent;
use crate::fault::{FaultInjector, FaultPlan, FaultStats, FaultTrace, MpConfig, RetryPolicy};
use crate::{MpError, MpReport, ProcStats};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use spfactor_matrix::SymmetricCsc;
use spfactor_numeric::unit::{Step, UnitKernel};
use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::{processor_queues, Assignment};
use spfactor_symbolic::SymbolicFactor;
use spfactor_trace::{EventKind, StartEdge, TimelineEvent, TimelineSink};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sentinel unit id for "no unit yet" in timeline bookkeeping.
const NO_UNIT: u32 = u32::MAX;

/// One processor's watchdog slot: the protocol step it last entered,
/// the unit concerned, and seconds since the run epoch.
type LastSeen = (&'static str, u32, f64);

/// Modeled wire size of a [`Msg::Done`] notification (one unit id).
pub const DONE_BYTES: usize = 4;
/// Modeled wire size of a [`Msg::Query`] re-solicitation (two id words).
pub const QUERY_BYTES: usize = 8;

/// Modeled wire size of a block request carrying `k` element ids.
pub fn request_bytes(k: usize) -> usize {
    4 + 4 * k
}

/// Modeled wire size of a block reply carrying `k` (id, value) pairs.
pub fn reply_bytes(k: usize) -> usize {
    12 * k
}

/// The typed mailbox protocol of the virtual machine.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Fan-out completion notification: `unit` has executed; the
    /// receiver counts down its successors it owns (idempotently — a
    /// replayed `Done` is discarded).
    Done {
        /// The completed unit block.
        unit: u32,
    },
    /// Block request: `from` asks for the final values of `ids`, all
    /// owned by the receiver.
    Request {
        /// Requesting processor (where the reply goes).
        from: u32,
        /// Entry ids to fetch, each owned by the receiving processor.
        ids: Box<[u32]>,
    },
    /// Block reply: the values of `ids`, parallel arrays. The requester
    /// installs them in its local element cache (idempotently — an
    /// element already installed is discarded).
    Reply {
        /// Entry ids, echoed from the request.
        ids: Box<[u32]>,
        /// The corresponding final factor values.
        vals: Box<[f64]>,
    },
    /// Re-solicitation: `from` timed out waiting for `unit` to complete
    /// and asks its owner to re-send [`Msg::Done`] if it already has.
    Query {
        /// The querying processor (where the re-sent `Done` goes).
        from: u32,
        /// The unit block being waited for.
        unit: u32,
    },
    /// Run-controller verdict, broadcast on the reliable control plane
    /// (never faulted): stop everything. `ok` is true on a completed
    /// run, false on an abort.
    Shutdown {
        /// Whether the run completed successfully.
        ok: bool,
    },
}

/// Worker-to-controller report, carried on a reliable channel the fault
/// injector never touches.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A unit block was executed.
    Progress,
    /// The whole program of `from` has executed.
    Finished { from: usize },
    /// `from` hit a numeric error (details travel in its outcome).
    Aborted,
    /// `from` crashed and announced it.
    Crashed { from: usize },
    /// `from` exhausted its retry budget.
    Stuck { from: usize, kind: StuckKind },
}

/// What a stuck processor was waiting for.
#[derive(Clone, Copy, Debug)]
enum StuckKind {
    Fetch { owner: usize, attempts: u32 },
    Dependency { unit: usize, attempts: u32 },
}

/// Why the controller stopped the run.
enum StopCause {
    Numeric,
    Crashed(usize),
    Stuck(usize, StuckKind),
    Watchdog(usize),
}

/// What one virtual processor hands back when its thread ends.
struct Outcome {
    stats: ProcStats,
    /// Distinct elements fetched per owning processor (a pair-matrix
    /// column).
    fetched_from: Vec<usize>,
    vals: Vec<f64>,
    /// Column of a pivot that was not positive, if one was met.
    error: Option<usize>,
    fault: FaultStats,
    crashed: bool,
    /// Timeline events buffered during the run (empty when no sink was
    /// supplied); flushed into the caller's sink after the join.
    timeline: Vec<TimelineEvent>,
}

/// How a blocked wait ended.
enum Flow {
    /// The awaited condition holds; continue the program.
    Continue,
    /// Shutdown (or a stuck report) — abandon the program.
    Stop,
}

enum Received {
    Got,
    TimedOut,
    Closed,
}

struct Worker<'a> {
    me: usize,
    nprocs: usize,
    rx: Receiver<Msg>,
    txs: &'a [Sender<Msg>],
    events: &'a Sender<Event>,
    queue: &'a [u32],
    deps: &'a DepGraph,
    assignment: &'a Assignment,
    kernel: &'a UnitKernel<'a>,
    proc_of_entry: &'a [u32],
    unit_of_entry: &'a [u32],
    plan: &'a FaultPlan,
    retry: &'a RetryPolicy,
    /// Whether messages can be lost outright (drops or a crash in the
    /// plan) — gates retransmission so fault-free runs stay
    /// deterministic message-for-message.
    lossy: bool,
    injector: FaultInjector,
    /// Private value store: owned entries seeded with `A`, remote
    /// entries installed by replies (zero until then).
    vals: Vec<f64>,
    /// Remote entries present locally — the paper's element cache.
    cached: Vec<bool>,
    /// Unresolved predecessors per unit (only own units consulted).
    remaining: Vec<usize>,
    /// Own units that have executed (requests must only touch these).
    done_units: Vec<bool>,
    /// Units known complete machine-wide (first-sighting dedup for
    /// replayed [`Msg::Done`]s).
    done_global: Vec<bool>,
    /// Per-owner batch of newly needed ids, built during prefetch.
    want: Vec<Vec<u32>>,
    /// Entry ids requested but not yet installed (reply dedup).
    inflight: Vec<bool>,
    /// Ids awaited per owner, for retransmission under lossy plans.
    outstanding: Vec<Vec<u32>>,
    /// Reply elements still in flight.
    pending: usize,
    /// Scratch: which processors to notify after a completion.
    notify: Vec<bool>,
    /// Set once [`Msg::Shutdown`] arrives; all loops bail.
    shutdown: Option<bool>,
    stats: ProcStats,
    fetched_from: Vec<usize>,
    /// Run epoch shared by every processor — timeline timestamps are
    /// seconds since this instant, one clock machine-wide.
    epoch: Instant,
    /// Whether a [`TimelineSink`] was supplied for this run.
    capture: bool,
    /// Locally buffered timeline events, flushed to the sink at join so
    /// the hot path never takes the shared lock.
    timeline: Vec<TimelineEvent>,
    /// Last predecessor whose completion released each own unit — the
    /// timeline's data-ready start-edge attribution ([`NO_UNIT`] until
    /// the unit's final dependency lands).
    last_pred: Vec<u32>,
    /// Previously executed unit on this processor ([`NO_UNIT`] before
    /// the first), for the processor-busy start edge.
    prev_unit: u32,
    /// Unit currently being gathered/executed, for attributing transfer
    /// events arriving in `dispatch`.
    current_unit: u32,
    /// Reply elements still in flight per owning processor (timeline
    /// bookkeeping only; protocol-level blocking uses `pending`).
    pending_from: Vec<usize>,
    /// Modeled bytes of the open transfer per owner, echoed into the
    /// matching [`EventKind::TransferEnd`].
    xfer_bytes: Vec<u64>,
    /// This processor's watchdog slot, snapshotted by the controller on
    /// a stall-watchdog abort.
    last_seen: &'a Mutex<LastSeen>,
}

impl Worker<'_> {
    /// Seconds since the shared run epoch (the timeline clock).
    fn now(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64()
    }

    /// Records the protocol step this processor is entering, for
    /// watchdog diagnostics. Never called after the shutdown verdict is
    /// seen, so an aborted run's slot keeps the last *productive* step.
    fn note(&self, step: &'static str, unit: u32) {
        let mut slot = self.last_seen.lock().unwrap_or_else(|e| e.into_inner());
        *slot = (step, unit, self.now());
    }

    /// Buffers one timeline event on this processor's track.
    fn emit(&mut self, t: f64, kind: EventKind) {
        self.timeline.push(TimelineEvent {
            t,
            proc: self.me as u32,
            kind,
        });
    }

    /// Sends one data-plane message through the fault injector, which
    /// may drop, hold, or duplicate it (and may release other held
    /// messages that came due).
    fn send(&mut self, to: usize, msg: Msg, bytes: usize) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        for (dst, m) in self.injector.on_send(to, msg) {
            let _ = self.txs[dst].send(m);
        }
    }

    /// Receives with a timeout; a timeout advances the injector clock so
    /// held messages cannot be starved by a quiet sender.
    fn recv_for(&mut self, timeout: Duration) -> Received {
        let wait = Instant::now();
        match self.rx.recv_timeout(timeout) {
            Ok(msg) => {
                self.stats.idle_ns += wait.elapsed().as_nanos() as u64;
                self.dispatch(msg);
                Received::Got
            }
            Err(RecvTimeoutError::Timeout) => {
                self.stats.idle_ns += wait.elapsed().as_nanos() as u64;
                for (dst, m) in self.injector.tick() {
                    let _ = self.txs[dst].send(m);
                }
                Received::TimedOut
            }
            Err(RecvTimeoutError::Disconnected) => Received::Closed,
        }
    }

    fn dispatch(&mut self, msg: Msg) {
        match msg {
            Msg::Done { unit } => {
                if self.done_global[unit as usize] {
                    self.stats.stale += 1;
                    return;
                }
                self.done_global[unit as usize] = true;
                for &s in self.deps.succs(unit as usize) {
                    if self.assignment.proc_of(s as usize) == self.me {
                        self.remaining[s as usize] -= 1;
                        if self.remaining[s as usize] == 0 {
                            self.last_pred[s as usize] = unit;
                            if self.capture {
                                let t = self.now();
                                self.emit(t, EventKind::Ready { unit: s });
                            }
                        }
                    }
                }
            }
            Msg::Request { from, ids } => {
                // A replayed request is re-served: the values are final,
                // so the requester's dedup makes the second reply inert.
                let vals: Box<[f64]> = ids
                    .iter()
                    .map(|&id| {
                        debug_assert_eq!(
                            self.proc_of_entry[id as usize] as usize, self.me,
                            "request for an element not owned here"
                        );
                        debug_assert!(
                            self.done_units[self.unit_of_entry[id as usize] as usize],
                            "request for an element that is not final yet"
                        );
                        self.vals[id as usize]
                    })
                    .collect();
                let bytes = reply_bytes(ids.len());
                self.stats.replies_served += 1;
                self.stats.elements_served += ids.len();
                self.send(from as usize, Msg::Reply { ids, vals }, bytes);
            }
            Msg::Reply { ids, vals } => {
                for (&id, &v) in ids.iter().zip(vals.iter()) {
                    if self.inflight[id as usize] {
                        self.inflight[id as usize] = false;
                        self.vals[id as usize] = v;
                        self.pending -= 1;
                        if self.capture {
                            // The owner's batch is fully installed:
                            // close the transfer opened at prefetch.
                            let sp = self.proc_of_entry[id as usize] as usize;
                            self.pending_from[sp] -= 1;
                            if self.pending_from[sp] == 0 {
                                let t = self.now();
                                self.emit(
                                    t,
                                    EventKind::TransferEnd {
                                        unit: self.current_unit,
                                        peer: sp as u32,
                                        bytes: self.xfer_bytes[sp],
                                    },
                                );
                            }
                        }
                    } else {
                        self.stats.stale += 1;
                    }
                }
            }
            Msg::Query { from, unit } => {
                // Re-send the (possibly lost) completion notice if the
                // unit really is done; otherwise the real Done is still
                // coming and the querier keeps waiting.
                if self.done_units[unit as usize] {
                    self.send(from as usize, Msg::Done { unit }, DONE_BYTES);
                }
            }
            Msg::Shutdown { ok } => self.shutdown = Some(ok),
        }
    }

    /// Blocks until every predecessor of `u` is complete, serving the
    /// mailbox meanwhile. Lossy plans re-solicit missing predecessors on
    /// timeout and give up (reporting `Stuck`) after the retry budget.
    fn await_deps(&mut self, u: usize) -> Flow {
        let mut backoff = self.retry.base;
        let mut attempts = 0u32;
        while self.remaining[u] > 0 {
            if self.shutdown.is_some() {
                return Flow::Stop;
            }
            match self.recv_for(backoff) {
                // Any incoming message is evidence the machine is alive:
                // reset the give-up counter, not just the backoff.
                Received::Got => {
                    backoff = self.retry.base;
                    attempts = 0;
                }
                Received::Closed => return Flow::Stop,
                Received::TimedOut => {
                    if self.lossy {
                        attempts += 1;
                        if attempts > self.retry.max_attempts {
                            let unit = self
                                .deps
                                .preds(u)
                                .iter()
                                .find(|&&p| !self.done_global[p as usize])
                                .map(|&p| p as usize)
                                .unwrap_or(u);
                            let _ = self.events.send(Event::Stuck {
                                from: self.me,
                                kind: StuckKind::Dependency {
                                    unit,
                                    attempts: attempts - 1,
                                },
                            });
                            return self.park();
                        }
                        self.resolicit(u);
                    }
                    backoff = (backoff * 2).min(self.retry.max_backoff);
                }
            }
        }
        if self.shutdown.is_some() {
            Flow::Stop
        } else {
            Flow::Continue
        }
    }

    /// Sends a [`Msg::Query`] for the *first* still-missing remote
    /// predecessor of `u`. One query per round keeps the retransmission
    /// pattern aperiodic: under a deterministic drop budget, a fixed
    /// batch of re-sends per round can resonate with the drop parity so
    /// the same message is dropped every round, while a single message
    /// per round advances the parity on every attempt.
    fn resolicit(&mut self, u: usize) {
        let missing = self.deps.preds(u).iter().copied().find(|&p| {
            !self.done_global[p as usize] && self.assignment.proc_of(p as usize) != self.me
        });
        if let Some(p) = missing {
            let owner = self.assignment.proc_of(p as usize);
            self.stats.queries_sent += 1;
            self.send(
                owner,
                Msg::Query {
                    from: self.me as u32,
                    unit: p,
                },
                QUERY_BYTES,
            );
        }
    }

    /// Blocks until every requested element has been installed. Lossy
    /// plans retransmit outstanding requests on timeout and give up
    /// (reporting `Stuck`) after the retry budget.
    fn await_replies(&mut self) -> Flow {
        let mut backoff = self.retry.base;
        let mut attempts = 0u32;
        while self.pending > 0 {
            if self.shutdown.is_some() {
                return Flow::Stop;
            }
            match self.recv_for(backoff) {
                Received::Got => {
                    backoff = self.retry.base;
                    attempts = 0;
                }
                Received::Closed => return Flow::Stop,
                Received::TimedOut => {
                    if self.lossy {
                        attempts += 1;
                        if attempts > self.retry.max_attempts {
                            let owner = (0..self.nprocs)
                                .find(|&sp| {
                                    self.outstanding[sp]
                                        .iter()
                                        .any(|&id| self.inflight[id as usize])
                                })
                                .unwrap_or(self.me);
                            let _ = self.events.send(Event::Stuck {
                                from: self.me,
                                kind: StuckKind::Fetch {
                                    owner,
                                    attempts: attempts - 1,
                                },
                            });
                            return self.park();
                        }
                        self.retransmit();
                    }
                    backoff = (backoff * 2).min(self.retry.max_backoff);
                }
            }
        }
        for o in &mut self.outstanding {
            o.clear();
        }
        if self.shutdown.is_some() {
            Flow::Stop
        } else {
            Flow::Continue
        }
    }

    /// Re-sends a [`Msg::Request`] for every element still in flight,
    /// batched per owner as in the original fan-out.
    fn retransmit(&mut self) {
        for sp in 0..self.nprocs {
            let still: Vec<u32> = self.outstanding[sp]
                .iter()
                .copied()
                .filter(|&id| self.inflight[id as usize])
                .collect();
            if still.is_empty() {
                continue;
            }
            self.stats.retries += 1;
            let bytes = request_bytes(still.len());
            self.send(
                sp,
                Msg::Request {
                    from: self.me as u32,
                    ids: still.into_boxed_slice(),
                },
                bytes,
            );
        }
    }

    /// After reporting itself stuck: keep serving peers until the
    /// controller's shutdown verdict arrives, then stop.
    fn park(&mut self) -> Flow {
        while self.shutdown.is_none() {
            if let Received::Closed = self.recv_for(self.retry.base) {
                break;
            }
        }
        Flow::Stop
    }

    /// Classifies one source access the way `data_traffic` does: local,
    /// cache hit, or a new remote fetch queued for the owner's batch.
    /// Classification happens before any fault can strike, so traffic is
    /// schedule-determined even on faulty runs.
    fn touch(&mut self, src: usize) {
        let sp = self.proc_of_entry[src] as usize;
        if sp == self.me {
            self.stats.local_accesses += 1;
        } else if self.cached[src] {
            self.stats.cache_hits += 1;
        } else {
            self.cached[src] = true;
            self.stats.traffic += 1;
            self.fetched_from[sp] += 1;
            self.want[sp].push(src as u32);
        }
    }

    /// Scans unit `u`'s operations in execution order and requests every
    /// remote source element not yet cached — one batched message per
    /// owning processor.
    fn prefetch(&mut self, u: usize) {
        let kernel = self.kernel;
        let _ = kernel.walk(u, |step| {
            match step {
                Step::Update { s1, s2, .. } => {
                    self.touch(s1);
                    if s2 != s1 {
                        self.touch(s2);
                    }
                }
                Step::Pivot(_) => {}
                // Scaling reads the final diagonal of the entry's column.
                Step::Scale { diag, .. } => self.touch(diag),
            }
            Ok::<(), std::convert::Infallible>(())
        });
        for sp in 0..self.nprocs {
            if self.want[sp].is_empty() {
                continue;
            }
            let ids: Box<[u32]> = std::mem::take(&mut self.want[sp]).into_boxed_slice();
            for &id in ids.iter() {
                self.inflight[id as usize] = true;
            }
            self.outstanding[sp] = ids.to_vec();
            self.pending += ids.len();
            if self.capture {
                let reply = reply_bytes(ids.len()) as u64;
                self.pending_from[sp] = ids.len();
                self.xfer_bytes[sp] = reply;
                let t = self.now();
                self.emit(
                    t,
                    EventKind::TransferStart {
                        unit: self.current_unit,
                        peer: sp as u32,
                        bytes: reply,
                    },
                );
            }
            self.stats.requests_sent += 1;
            let bytes = request_bytes(ids.len());
            self.send(
                sp,
                Msg::Request {
                    from: self.me as u32,
                    ids,
                },
                bytes,
            );
        }
    }

    /// Runs unit `u` on the private value store. Returns the failing
    /// column on a non-positive (or NaN) pivot.
    fn execute_unit(&mut self, u: usize) -> Result<(), usize> {
        self.stats.work += self.kernel.run(u, &mut self.vals)?;
        Ok(())
    }

    fn run(mut self) -> Outcome {
        let crash_at = self
            .plan
            .crash
            .as_ref()
            .filter(|c| c.proc == self.me)
            .map(|c| (c.after_units, c.announce));
        let stall = self.plan.stall.as_ref().filter(|s| s.proc == self.me);
        let stall = stall.map(|s| (s.every_units, s.pause));
        let mut error: Option<usize> = None;
        let mut crashed = false;
        if self.capture {
            // Units with no dependencies are ready the moment the
            // machine starts.
            for qi in 0..self.queue.len() {
                let u = self.queue[qi];
                if self.remaining[u as usize] == 0 {
                    let t = self.now();
                    self.emit(t, EventKind::Ready { unit: u });
                }
            }
        }
        'program: for qi in 0..self.queue.len() {
            if let Some((after, announce)) = crash_at {
                if qi == after {
                    // Dead: no flush, no serving — messages held in this
                    // processor's network interface die with it.
                    self.note("crashed", self.queue[qi]);
                    crashed = true;
                    if announce {
                        let _ = self.events.send(Event::Crashed { from: self.me });
                    }
                    break 'program;
                }
            }
            let u = self.queue[qi] as usize;
            self.current_unit = u as u32;
            self.note("await_deps", u as u32);
            let waited = self.remaining[u] > 0;
            let t_wait = if self.capture { self.now() } else { 0.0 };
            if let Flow::Stop = self.await_deps(u) {
                break 'program;
            }
            if self.capture && waited {
                let dur = self.now() - t_wait;
                self.emit(
                    t_wait,
                    EventKind::Wait {
                        unit: u as u32,
                        pred: self.last_pred[u],
                        dur,
                    },
                );
            }
            self.note("prefetch", u as u32);
            self.prefetch(u);
            self.note("await_replies", u as u32);
            if let Flow::Stop = self.await_replies() {
                break 'program;
            }
            if let Some((every, pause)) = stall {
                if (qi + 1) % every == 0 {
                    self.note("stall", u as u32);
                    self.injector.stats.stalls += 1;
                    std::thread::sleep(pause);
                }
            }
            self.note("execute", u as u32);
            let t_start = if self.capture { self.now() } else { 0.0 };
            let work = Instant::now();
            let result = self.execute_unit(u);
            let elapsed = work.elapsed();
            self.stats.busy_ns += elapsed.as_nanos() as u64;
            if self.capture {
                // `compute` comes from the same measured Duration as
                // `busy_ns`, so the timeline reconciles with ProcStats.
                let compute = elapsed.as_secs_f64();
                let edge = if waited && self.last_pred[u] != NO_UNIT {
                    let pred = self.last_pred[u];
                    StartEdge::DataReady {
                        pred,
                        remote: self.assignment.proc_of(pred as usize) != self.me,
                    }
                } else if self.prev_unit != NO_UNIT {
                    StartEdge::ProcBusy {
                        prev: self.prev_unit,
                    }
                } else {
                    StartEdge::Free
                };
                self.emit(
                    t_start,
                    EventKind::UnitStart {
                        unit: u as u32,
                        edge,
                    },
                );
                self.emit(
                    t_start + compute,
                    EventKind::UnitEnd {
                        unit: u as u32,
                        compute,
                        transfer: 0.0,
                    },
                );
                self.prev_unit = u as u32;
            }
            if let Err(col) = result {
                error = Some(col);
                break 'program;
            }
            self.stats.units += 1;
            self.done_units[u] = true;
            self.done_global[u] = true;
            self.notify.iter_mut().for_each(|f| *f = false);
            for &s in self.deps.succs(u) {
                let p = self.assignment.proc_of(s as usize);
                if p == self.me {
                    self.remaining[s as usize] -= 1;
                    if self.remaining[s as usize] == 0 {
                        self.last_pred[s as usize] = u as u32;
                        if self.capture {
                            let t = self.now();
                            self.emit(t, EventKind::Ready { unit: s });
                        }
                    }
                } else {
                    self.notify[p] = true;
                }
            }
            for p in 0..self.nprocs {
                if self.notify[p] {
                    self.send(p, Msg::Done { unit: u as u32 }, DONE_BYTES);
                }
            }
            let _ = self.events.send(Event::Progress);
        }
        if !crashed && self.shutdown.is_none() {
            if error.is_some() {
                let _ = self.events.send(Event::Aborted);
            } else {
                // Program complete: release anything still held in the
                // injector, then report in. Peers may still need replies,
                // so keep serving until the controller's verdict.
                for (dst, m) in self.injector.flush_all() {
                    let _ = self.txs[dst].send(m);
                }
                self.note("finished", NO_UNIT);
                let _ = self.events.send(Event::Finished { from: self.me });
            }
        }
        if !crashed {
            let _ = self.park();
        }
        Outcome {
            fault: self.injector.stats,
            stats: self.stats,
            fetched_from: self.fetched_from,
            vals: self.vals,
            error,
            crashed,
            timeline: self.timeline,
        }
    }
}

/// Runs the schedule on the virtual machine under an explicit
/// [`MpConfig`] — cost model, fault plan, retry policy and watchdog.
/// See [`crate::execute`] for the protocol contract.
///
/// Under a recorder scope: times the run under the span `mp.execute`,
/// bumps the `mp.*` counters (`mp.msgs_sent`, `mp.bytes`,
/// `mp.cache_hits`, `mp.remote_fetches`, `mp.local_accesses`,
/// `mp.idle_ns`, `mp.busy_ns`, `mp.units_run`, plus the resilience
/// counters `mp.fault.dropped`, `mp.fault.duplicated`,
/// `mp.fault.delayed`, `mp.fault.reordered`, `mp.fault.stalls`,
/// `mp.retry.requests`, `mp.retry.queries`, `mp.retry.stale` — always
/// present, all zero on a reliable network) and records the headline
/// gauges `mp.traffic.total`, `mp.work.max`, `mp.estimated_time` plus
/// per-processor gauges `mp.proc.<p>.traffic`, `mp.proc.<p>.work` and
/// `mp.proc.<p>.msgs_sent` (see `docs/METRICS.md`).
///
/// When `sink` is supplied, every worker records [`TimelineEvent`]s
/// (seconds since a shared run epoch) and flushes them into the sink
/// after the join — including on aborted runs, so a failure still leaves
/// a trace to inspect. Capture costs one local `Vec` push per event;
/// without a sink the run is byte-for-byte the uninstrumented one.
pub fn execute_config(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
    partition: &Partition,
    deps: &DepGraph,
    assignment: &Assignment,
    config: &MpConfig,
    sink: Option<&TimelineSink>,
) -> Result<MpReport, MpError> {
    let rec = spfactor_trace::current();
    let report = rec.time("mp.execute", || {
        run(a, symbolic, partition, deps, assignment, config, sink)
    })?;
    crate::record_mp_metrics(&rec, &report);
    Ok(report)
}

fn run(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
    partition: &Partition,
    deps: &DepGraph,
    assignment: &Assignment,
    config: &MpConfig,
    sink: Option<&TimelineSink>,
) -> Result<MpReport, MpError> {
    let nprocs = assignment.nprocs;
    config.validate(nprocs).map_err(MpError::InvalidConfig)?;
    let kernel = UnitKernel::new(symbolic, partition).map_err(MpError::Numeric)?;
    let seed = kernel.seed(a).map_err(MpError::Numeric)?;
    let nu = partition.num_units();
    let entries = seed.len();
    let owner = partition.owner_map();

    let proc_of_entry: Vec<u32> = owner
        .iter()
        .map(|&u| assignment.proc_of(u as usize) as u32)
        .collect();
    let queues = processor_queues(deps, assignment);
    let preds_len: Vec<usize> = (0..nu).map(|u| deps.preds(u).len()).collect();

    let (txs, rxs): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| channel::unbounded::<Msg>()).unzip();
    let (event_tx, event_rx) = channel::unbounded::<Event>();
    let lossy = config.fault.lossy();
    let epoch = Instant::now();
    let last_seen: Vec<Mutex<LastSeen>> = (0..nprocs)
        .map(|_| Mutex::new(("spawn", NO_UNIT, 0.0)))
        .collect();

    let scope_result = crossbeam::scope(|scope| {
        let txs = &txs;
        let event_tx = &event_tx;
        let last_seen = &last_seen;
        let handles: Vec<_> = rxs
            .into_iter()
            .enumerate()
            .map(|(p, rx)| {
                // Each processor owns exactly its assigned entries: the
                // private store holds A's values there and zeros
                // elsewhere, so an un-fetched remote read cannot go
                // unnoticed by the bit-identical cross-check.
                let vals: Vec<f64> = seed
                    .iter()
                    .enumerate()
                    .map(|(e, &v)| if proc_of_entry[e] == p as u32 { v } else { 0.0 })
                    .collect();
                let worker = Worker {
                    me: p,
                    nprocs,
                    rx,
                    txs,
                    events: event_tx,
                    queue: &queues[p],
                    deps,
                    assignment,
                    kernel: &kernel,
                    proc_of_entry: &proc_of_entry,
                    unit_of_entry: owner,
                    plan: &config.fault,
                    retry: &config.retry,
                    lossy,
                    injector: FaultInjector::new(&config.fault, p, nprocs),
                    vals,
                    cached: vec![false; entries],
                    remaining: preds_len.clone(),
                    done_units: vec![false; nu],
                    done_global: vec![false; nu],
                    want: vec![Vec::new(); nprocs],
                    inflight: vec![false; entries],
                    outstanding: vec![Vec::new(); nprocs],
                    pending: 0,
                    notify: vec![false; nprocs],
                    shutdown: None,
                    stats: ProcStats::default(),
                    fetched_from: vec![0; nprocs],
                    epoch,
                    capture: sink.is_some(),
                    timeline: Vec::new(),
                    last_pred: vec![NO_UNIT; nu],
                    prev_unit: NO_UNIT,
                    current_unit: NO_UNIT,
                    pending_from: vec![0; nprocs],
                    xfer_bytes: vec![0; nprocs],
                    last_seen: &last_seen[p],
                };
                scope.spawn(move |_| worker.run())
            })
            .collect();

        // Run controller: collect worker events on the reliable control
        // plane, arbitrate the verdict, broadcast the shutdown. The
        // watchdog fires when *nothing* reports progress for the whole
        // budget — the machine is wedged.
        let mut finished = vec![false; nprocs];
        let mut nfinished = 0usize;
        let cause: Option<StopCause> = loop {
            match event_rx.recv_timeout(config.watchdog) {
                Ok(Event::Progress) => {}
                Ok(Event::Finished { from }) => {
                    if !finished[from] {
                        finished[from] = true;
                        nfinished += 1;
                    }
                    if nfinished == nprocs {
                        break None;
                    }
                }
                Ok(Event::Aborted) => break Some(StopCause::Numeric),
                Ok(Event::Crashed { from }) => break Some(StopCause::Crashed(from)),
                Ok(Event::Stuck { from, kind }) => break Some(StopCause::Stuck(from, kind)),
                // Disconnected means every worker thread has returned
                // without the run completing — same diagnosis as a
                // silent wedge, reached without waiting out the budget.
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    break Some(StopCause::Watchdog(nfinished))
                }
            }
        };
        for tx in txs.iter() {
            let _ = tx.send(Msg::Shutdown {
                ok: cause.is_none(),
            });
        }
        let outcomes: Vec<Result<Outcome, usize>> = handles
            .into_iter()
            .enumerate()
            .map(|(p, h)| h.join().map_err(|_| p))
            .collect();
        (cause, outcomes)
    });
    let (cause, joined) = match scope_result {
        Ok(pair) => pair,
        // The scope closure itself cannot panic past the joins above;
        // treat the impossible as a runtime bug surfaced as a value.
        Err(_) => return Err(MpError::WorkerPanic { proc: 0 }),
    };
    let mut outcomes = Vec::with_capacity(nprocs);
    for o in joined {
        match o {
            Ok(o) => outcomes.push(o),
            Err(p) => return Err(MpError::WorkerPanic { proc: p }),
        }
    }

    // Flush every worker's buffered timeline before the error triage so
    // aborted runs still leave their events behind for inspection.
    if let Some(sink) = sink {
        for o in &mut outcomes {
            sink.record_all(std::mem::take(&mut o.timeline));
        }
    }
    let snapshot_last = || -> Box<[ProcLastEvent]> {
        last_seen
            .iter()
            .enumerate()
            .map(|(p, m)| {
                let (step, unit, at) = *m.lock().unwrap_or_else(|e| e.into_inner());
                ProcLastEvent {
                    proc: p,
                    step,
                    unit,
                    at,
                }
            })
            .collect()
    };

    // Machine-wide fault trace, attached to the report or the error.
    let mut trace = FaultTrace::default();
    for (p, o) in outcomes.iter().enumerate() {
        trace.absorb_injector(&o.fault);
        trace.retries += o.stats.retries;
        trace.queries += o.stats.queries_sent;
        trace.stale += o.stats.stale;
        if o.crashed {
            trace.crashed.push(p);
        }
    }

    // Which failing pivot a processor reached first depends on timing;
    // the error reported is the sequential kernel's, which does not.
    if let Some(col) = outcomes.iter().find_map(|o| o.error) {
        return Err(MpError::Numeric(kernel.pivot_error(a, col)));
    }
    match cause {
        None => {}
        Some(StopCause::Crashed(proc)) => return Err(MpError::ProcessorCrashed { proc, trace }),
        Some(StopCause::Stuck(proc, StuckKind::Fetch { owner, attempts })) => {
            return Err(MpError::FetchTimeout {
                proc,
                owner,
                attempts,
                trace,
            })
        }
        Some(StopCause::Stuck(proc, StuckKind::Dependency { unit, attempts })) => {
            return Err(MpError::DependencyTimeout {
                proc,
                unit,
                attempts,
                trace,
            })
        }
        Some(StopCause::Watchdog(finished)) => {
            return Err(MpError::WatchdogTimeout {
                finished,
                nprocs,
                last_events: snapshot_last(),
                trace,
            })
        }
        // An abort event with no numeric error in any outcome cannot
        // happen; if it somehow did, report the wedge.
        Some(StopCause::Numeric) => {
            return Err(MpError::WatchdogTimeout {
                finished: 0,
                nprocs,
                last_events: snapshot_last(),
                trace,
            })
        }
    }

    // Gather each entry's final value from its owner.
    let values: Vec<f64> = (0..entries)
        .map(|e| outcomes[proc_of_entry[e] as usize].vals[e])
        .collect();
    let factor = kernel.into_factor(values);

    let mut pair_matrix = vec![0usize; nprocs * nprocs];
    for (dst, o) in outcomes.iter().enumerate() {
        for (src, &count) in o.fetched_from.iter().enumerate() {
            pair_matrix[src * nprocs + dst] = count;
        }
    }
    let per_proc: Vec<ProcStats> = outcomes.into_iter().map(|o| o.stats).collect();
    let estimated_time = per_proc
        .iter()
        .map(|s| config.network.proc_time(s))
        .fold(0.0, f64::max);

    Ok(MpReport {
        factor,
        nprocs,
        per_proc,
        pair_matrix,
        network: config.network,
        estimated_time,
        faults: trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{CrashPlan, StallPlan};
    use crate::{execute, NetworkModel};
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_numeric::NumericError;
    use spfactor_order::{order, Ordering};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_sched::{block_allocation, wrap_allocation};
    use spfactor_simulate::{data_traffic, work_distribution};

    fn setup_block(
        p: &SymmetricPattern,
        grain: usize,
        nprocs: usize,
        seed: u64,
    ) -> (
        SymmetricCsc,
        SymbolicFactor,
        Partition,
        DepGraph,
        Assignment,
    ) {
        let perm = order(p, Ordering::paper_default());
        let a = gen::spd_from_pattern(&p.permute(&perm), seed);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::build(&f, &PartitionParams::with_grain(grain));
        let deps = dependencies(&f, &part);
        let assign = block_allocation(&part, &deps, nprocs);
        (a, f, part, deps, assign)
    }

    fn setup_wrap(
        p: &SymmetricPattern,
        nprocs: usize,
        seed: u64,
    ) -> (
        SymmetricCsc,
        SymbolicFactor,
        Partition,
        DepGraph,
        Assignment,
    ) {
        let perm = order(p, Ordering::paper_default());
        let a = gen::spd_from_pattern(&p.permute(&perm), seed);
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::columns(&f);
        let deps = dependencies(&f, &part);
        let assign = wrap_allocation(&part, nprocs);
        (a, f, part, deps, assign)
    }

    fn check(
        a: &SymmetricCsc,
        f: &SymbolicFactor,
        part: &Partition,
        deps: &DepGraph,
        assign: &Assignment,
    ) -> MpReport {
        let report =
            execute(a, f, part, deps, assign, &NetworkModel::default()).expect("mp execute");
        // Factor is the sequential factor, bit for bit (stronger than
        // the 1e-10 acceptance bound).
        let seq = spfactor_numeric::cholesky(a, f).unwrap();
        assert_eq!(report.factor, seq);
        // Observed traffic and work match the analytic simulator exactly.
        assert_eq!(report.traffic_report(), data_traffic(f, part, assign));
        assert_eq!(report.work_report(), work_distribution(part, assign));
        assert!(report.faults.is_quiet(), "fault-free run must be quiet");
        report
    }

    /// Like [`check`] but under an explicit fault config: the run must
    /// still complete with the sequential factor and analytic traffic.
    fn check_config(
        a: &SymmetricCsc,
        f: &SymbolicFactor,
        part: &Partition,
        deps: &DepGraph,
        assign: &Assignment,
        config: &MpConfig,
    ) -> MpReport {
        let report = execute_config(a, f, part, deps, assign, config, None)
            .expect("mp execute under faults");
        let seq = spfactor_numeric::cholesky(a, f).unwrap();
        assert_eq!(report.factor, seq, "factor must survive the fault plan");
        assert_eq!(report.traffic_report(), data_traffic(f, part, assign));
        assert_eq!(report.work_report(), work_distribution(part, assign));
        report
    }

    fn short_watchdog(fault: FaultPlan) -> MpConfig {
        MpConfig::with_fault(fault).watchdog(Duration::from_secs(5))
    }

    #[test]
    fn block_mapping_matches_simulator_and_sequential_factor() {
        for (p, grain, nprocs) in [
            (gen::lap9(8, 8), 4usize, 4usize),
            (gen::lap9(10, 10), 25, 8),
            (gen::grid5(7, 7), 4, 3),
            (gen::frame_shell(4, 10), 4, 5),
        ] {
            let (a, f, part, deps, assign) = setup_block(&p, grain, nprocs, 11);
            check(&a, &f, &part, &deps, &assign);
        }
    }

    #[test]
    fn wrap_mapping_matches_simulator_and_sequential_factor() {
        for (p, nprocs) in [(gen::lap9(8, 8), 4usize), (gen::grid5(9, 9), 7)] {
            let (a, f, part, deps, assign) = setup_wrap(&p, nprocs, 23);
            check(&a, &f, &part, &deps, &assign);
        }
    }

    #[test]
    fn single_processor_sends_no_messages() {
        let (a, f, part, deps, assign) = setup_block(&gen::lap9(7, 7), 4, 1, 3);
        let report = check(&a, &f, &part, &deps, &assign);
        assert_eq!(report.msgs_total(), 0);
        assert_eq!(report.bytes_total(), 0);
        assert_eq!(report.traffic_report().total, 0);
        assert!(report.per_proc[0].local_accesses > 0);
    }

    #[test]
    fn observed_statistics_are_deterministic() {
        let (a, f, part, deps, assign) = setup_block(&gen::lap9(9, 9), 4, 16, 7);
        let first = check(&a, &f, &part, &deps, &assign);
        for _ in 0..3 {
            let again = check(&a, &f, &part, &deps, &assign);
            assert_eq!(again.factor, first.factor);
            assert_eq!(again.pair_matrix, first.pair_matrix);
            for (s, t) in again.per_proc.iter().zip(&first.per_proc) {
                // Everything except wall-clock time is schedule-determined.
                let scrub = |x: &ProcStats| ProcStats {
                    idle_ns: 0,
                    busy_ns: 0,
                    ..x.clone()
                };
                assert_eq!(scrub(s), scrub(t));
            }
        }
    }

    #[test]
    fn cache_discipline_fetches_each_element_once() {
        let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(10, 10), 4, 9);
        let report = check(&a, &f, &part, &deps, &assign);
        assert!(
            report.cache_hits_total() > 0,
            "expected repeated remote use"
        );
        // Reply payloads across the machine carry exactly the distinct
        // fetched elements: one reply element per unit of traffic.
        let served: usize = report.per_proc.iter().map(|s| s.elements_served).sum();
        assert_eq!(served, report.traffic_report().total);
    }

    #[test]
    fn estimated_time_responds_to_the_network_model() {
        let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(8, 8), 4, 9);
        let report = check(&a, &f, &part, &deps, &assign);
        let slow = NetworkModel::new(1.0, 0.1, 1e-9);
        let fast = NetworkModel::new(1e-9, 1e-10, 1e-9);
        assert!(report.estimate(&slow) > report.estimate(&fast));
        // Free network reduces to the work bottleneck.
        let wmax = report.work_report().max();
        assert_eq!(report.estimate(&NetworkModel::free()), wmax as f64);
    }

    #[test]
    fn indefinite_matrix_aborts_cleanly_across_processors() {
        use spfactor_matrix::Coo;
        let mut coo = Coo::new(3);
        coo.push(0, 0, 1.0).unwrap();
        coo.push(1, 0, 5.0).unwrap();
        coo.push(1, 1, 1.0).unwrap();
        coo.push(2, 2, 1.0).unwrap();
        let a = coo.to_csc();
        let f = SymbolicFactor::from_pattern(&a.pattern());
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let assign = block_allocation(&part, &deps, 2);
        assert_eq!(
            execute(&a, &f, &part, &deps, &assign, &NetworkModel::default()).unwrap_err(),
            MpError::Numeric(NumericError::NotPositiveDefinite(1))
        );
    }

    #[test]
    fn structure_mismatch_is_reported() {
        let p = gen::lap9(4, 4);
        let (a, _, part, deps, assign) = setup_block(&p, 4, 2, 1);
        let other = SymbolicFactor::from_pattern(&gen::lap9(3, 3));
        assert!(matches!(
            execute(&a, &other, &part, &deps, &assign, &NetworkModel::default()),
            Err(MpError::Numeric(NumericError::StructureMismatch(_)))
        ));
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let (a, f, part, deps, assign) = setup_block(&gen::lap9(4, 4), 4, 2, 1);
        let mut bad = FaultPlan::none();
        bad.drop = 2.0;
        assert!(matches!(
            execute_config(
                &a,
                &f,
                &part,
                &deps,
                &assign,
                &MpConfig::with_fault(bad),
                None
            ),
            Err(MpError::InvalidConfig(_))
        ));
    }

    #[test]
    fn dropped_then_retried_fetches_yield_identical_traffic() {
        // Every message is dropped up to the consecutive-drop budget, so
        // every fetch needs retransmission — yet the observed traffic
        // and the factor are exactly the fault-free ones.
        let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(8, 8), 4, 9);
        let clean = check(&a, &f, &part, &deps, &assign);
        let plan = FaultPlan {
            seed: 7,
            drop: 1.0,
            max_consecutive_drops: 1,
            ..FaultPlan::none()
        };
        let faulty = check_config(&a, &f, &part, &deps, &assign, &short_watchdog(plan));
        assert_eq!(faulty.traffic_report(), clean.traffic_report());
        assert_eq!(faulty.work_report(), clean.work_report());
        assert!(faulty.faults.dropped > 0, "drops must have been injected");
        assert!(
            faulty.faults.retries > 0 || faulty.faults.queries > 0,
            "recovery must have retransmitted something"
        );
    }

    #[test]
    fn duplicate_and_reorder_only_plans_complete_idempotently() {
        let (a, f, part, deps, assign) = setup_block(&gen::lap9(8, 8), 4, 4, 11);
        let plan = FaultPlan {
            seed: 3,
            duplicate: 0.5,
            delay: 0.3,
            reorder: 0.3,
            ..FaultPlan::none()
        };
        let report = check_config(&a, &f, &part, &deps, &assign, &short_watchdog(plan));
        assert!(report.faults.duplicated + report.faults.delayed + report.faults.reordered > 0);
        // Non-lossy plans never retransmit — patience and dedup suffice.
        assert_eq!(report.faults.retries, 0);
        assert_eq!(report.faults.queries, 0);
    }

    #[test]
    fn announced_crash_aborts_with_typed_error_within_budget() {
        let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(8, 8), 4, 9);
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashPlan {
            proc: 1,
            after_units: 2,
            announce: true,
        });
        let budget = Duration::from_secs(5);
        let started = Instant::now();
        let err = execute_config(
            &a,
            &f,
            &part,
            &deps,
            &assign,
            &MpConfig::with_fault(plan).watchdog(budget),
            None,
        )
        .unwrap_err();
        assert!(started.elapsed() < budget, "announced crash must not wait");
        match err {
            MpError::ProcessorCrashed { proc, trace } => {
                assert_eq!(proc, 1);
                assert_eq!(trace.crashed, vec![1]);
            }
            other => panic!("expected ProcessorCrashed, got {other:?}"),
        }
    }

    #[test]
    fn silent_crash_is_discovered_within_the_timeout_budget() {
        let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(8, 8), 4, 9);
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashPlan {
            proc: 0,
            after_units: 1,
            announce: false,
        });
        let watchdog = Duration::from_secs(5);
        let config = MpConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(1),
                max_backoff: Duration::from_millis(8),
                max_attempts: 6,
            },
            ..MpConfig::with_fault(plan)
        }
        .watchdog(watchdog);
        let started = Instant::now();
        let err = execute_config(&a, &f, &part, &deps, &assign, &config, None).unwrap_err();
        // Peers must discover the dead processor via their retry budgets
        // (or, at the latest, the watchdog) — never hang.
        assert!(started.elapsed() < 2 * watchdog);
        match err {
            MpError::FetchTimeout { trace, .. }
            | MpError::DependencyTimeout { trace, .. }
            | MpError::WatchdogTimeout { trace, .. } => {
                assert_eq!(trace.crashed, vec![0]);
            }
            other => panic!("expected a timeout-family error, got {other:?}"),
        }
    }

    #[test]
    fn stalls_slow_the_run_but_do_not_change_results() {
        let (a, f, part, deps, assign) = setup_block(&gen::lap9(7, 7), 4, 3, 5);
        let mut plan = FaultPlan::none();
        plan.stall = Some(StallPlan {
            proc: 0,
            every_units: 2,
            pause: Duration::from_millis(2),
        });
        let report = check_config(&a, &f, &part, &deps, &assign, &short_watchdog(plan));
        assert!(report.faults.stalls > 0, "stalls must have been injected");
    }

    #[test]
    fn timeline_capture_reconciles_with_proc_stats() {
        use spfactor_trace::TimelineSink;
        let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(8, 8), 4, 9);
        let sink = TimelineSink::new();
        let config = MpConfig::reliable(NetworkModel::default());
        let report = execute_config(&a, &f, &part, &deps, &assign, &config, Some(&sink))
            .expect("observed mp execute");
        // Capture must not perturb the computation.
        assert_eq!(report.factor, spfactor_numeric::cholesky(&a, &f).unwrap());
        assert_eq!(report.traffic_report(), data_traffic(&f, &part, &assign));

        let tl = sink.finish();
        assert_eq!(tl.nprocs(), 4);
        // Every unit starts and ends exactly once.
        let mut started = vec![0usize; part.num_units()];
        let mut ended = vec![0usize; part.num_units()];
        for e in &tl.events {
            match e.kind {
                spfactor_trace::EventKind::UnitStart { unit, .. } => started[unit as usize] += 1,
                spfactor_trace::EventKind::UnitEnd { unit, .. } => ended[unit as usize] += 1,
                _ => {}
            }
        }
        assert!(started.iter().all(|&c| c == 1), "every unit starts once");
        assert!(ended.iter().all(|&c| c == 1), "every unit ends once");
        // Timeline busy is the same measurement as ProcStats::busy_ns
        // (both derive from one Duration per unit), up to f64 rounding.
        let busy = tl.busy_per_proc();
        for (p, s) in report.per_proc.iter().enumerate() {
            let ns = s.busy_ns as f64 / 1e9;
            assert!(
                (busy[p] - ns).abs() <= 1e-9 + 1e-9 * ns,
                "proc {p}: timeline busy {} vs busy_ns {}",
                busy[p],
                ns
            );
        }
        // Transfer events pair up per (proc, peer) and the critical
        // path attributes the full wall-clock makespan.
        let mut open: std::collections::HashMap<(u32, u32), usize> =
            std::collections::HashMap::new();
        for e in &tl.events {
            match e.kind {
                spfactor_trace::EventKind::TransferStart { peer, .. } => {
                    *open.entry((e.proc, peer)).or_insert(0) += 1;
                }
                spfactor_trace::EventKind::TransferEnd { peer, .. } => {
                    let slot = open.get_mut(&(e.proc, peer)).expect("end without start");
                    assert!(*slot > 0, "end without start");
                    *slot -= 1;
                }
                _ => {}
            }
        }
        assert!(open.values().all(|&c| c == 0), "unmatched transfer starts");
        let cp = tl.critical_path(5);
        let makespan = tl.makespan();
        assert!(makespan > 0.0);
        assert!(
            (cp.attributed() - makespan).abs() <= 1e-9 + 1e-9 * makespan,
            "attribution {} vs makespan {makespan}",
            cp.attributed()
        );
        // The export is valid Chrome-trace JSON (1e6 us per second).
        let doc = spfactor_trace::json::parse(&tl.to_chrome_trace_scaled(1e6))
            .expect("chrome trace parses");
        let stats =
            spfactor_trace::timeline::validate_chrome_trace(&doc).expect("chrome trace valid");
        assert!(stats.slices >= part.num_units());
    }

    #[test]
    fn unobserved_run_records_no_events() {
        let (a, f, part, deps, assign) = setup_block(&gen::lap9(6, 6), 4, 2, 5);
        let config = MpConfig::reliable(NetworkModel::default());
        let report =
            execute_config(&a, &f, &part, &deps, &assign, &config, None).expect("mp execute");
        assert_eq!(report.factor, spfactor_numeric::cholesky(&a, &f).unwrap());
    }

    #[test]
    fn watchdog_error_carries_last_seen_steps() {
        // Processor 0 dies silently before its first unit; peers retry
        // forever (unbounded budget), so only the watchdog can end the
        // run — and its diagnosis must say where everyone was stuck.
        let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(6, 6), 4, 9);
        let mut plan = FaultPlan::none();
        plan.crash = Some(CrashPlan {
            proc: 0,
            after_units: 0,
            announce: false,
        });
        let config = MpConfig {
            retry: RetryPolicy {
                base: Duration::from_millis(5),
                max_backoff: Duration::from_millis(20),
                max_attempts: u32::MAX,
            },
            ..MpConfig::with_fault(plan)
        }
        .watchdog(Duration::from_millis(300));
        let err = execute_config(&a, &f, &part, &deps, &assign, &config, None).unwrap_err();
        match err {
            MpError::WatchdogTimeout {
                nprocs,
                last_events,
                ..
            } => {
                assert_eq!(nprocs, 4);
                assert_eq!(last_events.len(), 4);
                assert_eq!(last_events[0].proc, 0);
                assert_eq!(last_events[0].step, "crashed");
                assert!(
                    last_events
                        .iter()
                        .any(|e| e.step == "await_deps" || e.step == "await_replies"),
                    "someone must have been blocked: {last_events:?}"
                );
            }
            other => panic!("expected WatchdogTimeout, got {other:?}"),
        }
    }

    #[test]
    fn chaos_plan_preserves_factor_and_traffic() {
        for seed in [1u64, 2, 3] {
            let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(8, 8), 4, 9);
            let report = check_config(
                &a,
                &f,
                &part,
                &deps,
                &assign,
                &short_watchdog(FaultPlan::chaos(seed)),
            );
            assert!(!report.faults.is_quiet(), "chaos must inject something");
        }
    }
}
