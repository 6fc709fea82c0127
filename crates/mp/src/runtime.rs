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
//! The mailboxes are in-process channels: nothing is lost, duplicated or
//! reordered between one sender and one receiver, so every wait is a
//! plain blocking receive and every message is sent exactly once.
//!
//! ## Termination
//!
//! Workers report `Progress` / `Finished` / `Aborted` events to a run
//! controller on a separate channel; the controller broadcasts the
//! [`Msg::Shutdown`] verdict when every processor has finished or one
//! has met a failing pivot, and each worker keeps serving its peers'
//! requests until the verdict arrives. A **stall watchdog** in the
//! controller aborts the run with [`MpError::WatchdogTimeout`] if no
//! processor reports anything for 10 s — a panicked worker or a protocol
//! bug ends as a typed error and never hangs the caller. Schedule inputs
//! that do not belong together are refused before any thread spawns
//! ([`UnitKernel::check_schedule`]).
//!
//! ## Observation
//!
//! Given a sink, [`execute_with_timeline`] additionally streams a
//! wall-clock event timeline into the [`TimelineSink`]: each worker
//! buffers typed [`TimelineEvent`]s locally (ready/wait/start/end/transfer,
//! stamped in seconds since a shared run epoch) and flushes the buffer
//! once at join, so the hot path never touches the shared sink. The
//! resulting [`spfactor_trace::Timeline`] feeds the same Chrome-trace
//! exporter and critical-path analyzer as the virtual-clock simulator
//! (see `docs/OBSERVABILITY.md`). Independently of capture, every worker
//! notes the protocol step it is entering in a per-processor slot; when
//! the stall watchdog fires, the controller snapshots those slots into
//! [`MpError::WatchdogTimeout`]'s `last_events` so a wedge diagnosis
//! says where each processor was stuck.
//!
//! ## Modeled message sizes
//!
//! A [`Msg::Done`] is [`DONE_BYTES`], a request of `k` ids
//! [`request_bytes`]`(k)` and a reply of `k` elements [`reply_bytes`]`(k)`
//! — the one definition [`spfactor_simulate::messages()`] predicts the
//! `mp.msgs_sent` and `mp.bytes` counters with.

use crate::error::ProcLastEvent;
use crate::{MpError, MpReport, ProcStats};
use crossbeam::channel::{self, Receiver, RecvTimeoutError, Sender};
use spfactor_matrix::SymmetricCsc;
use spfactor_numeric::unit::{Step, UnitKernel};
use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::{processor_queues, Assignment};
use spfactor_simulate::{reply_bytes, request_bytes, DONE_BYTES};
use spfactor_symbolic::SymbolicFactor;
use spfactor_trace::{EventKind, StartEdge, TimelineEvent, TimelineSink};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Sentinel unit id for "no unit yet" in timeline bookkeeping.
const NO_UNIT: u32 = u32::MAX;

/// How long the controller waits without hearing from any processor
/// before it declares the machine wedged.
const WATCHDOG: Duration = Duration::from_secs(10);

/// One processor's watchdog slot: the protocol step it last entered,
/// the unit concerned, and seconds since the run epoch.
type LastSeen = (&'static str, u32, f64);

/// The typed mailbox protocol of the virtual machine.
#[derive(Clone, Debug)]
pub enum Msg {
    /// Fan-out completion notification: `unit` has executed; the
    /// receiver counts down its successors it owns.
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
    /// installs them in its local element cache.
    Reply {
        /// Entry ids, echoed from the request.
        ids: Box<[u32]>,
        /// The corresponding final factor values.
        vals: Box<[f64]>,
    },
    /// Run-controller verdict: stop everything (the run completed or
    /// was aborted; the controller knows which).
    Shutdown,
}

/// Worker-to-controller report.
#[derive(Clone, Copy, Debug)]
enum Event {
    /// A unit block was executed.
    Progress,
    /// A processor's whole program has executed.
    Finished,
    /// A processor hit a numeric error (details travel in its outcome).
    Aborted,
}

/// Why the controller stopped the run.
enum StopCause {
    Numeric,
    /// The watchdog fired with this many processors finished.
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
    /// Timeline events buffered during the run (empty when no sink was
    /// supplied); flushed into the caller's sink after the join.
    timeline: Vec<TimelineEvent>,
}

/// How a blocked wait ended.
enum Flow {
    /// The awaited condition holds; continue the program.
    Continue,
    /// The shutdown verdict arrived — abandon the program.
    Stop,
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
    /// Private value store: owned entries seeded with `A`, remote
    /// entries installed by replies (zero until then).
    vals: Vec<f64>,
    /// Remote entries present locally — the paper's element cache.
    cached: Vec<bool>,
    /// Unresolved predecessors per unit (only own units consulted).
    remaining: Vec<usize>,
    /// Own units that have executed (requests must only touch these).
    done_units: Vec<bool>,
    /// Per-owner batch of newly needed ids, built during prefetch.
    want: Vec<Vec<u32>>,
    /// Replies still in flight for the unit being gathered.
    pending: usize,
    /// Scratch: which processors to notify after a completion.
    notify: Vec<bool>,
    /// Set once [`Msg::Shutdown`] arrives; all loops bail.
    shutdown: bool,
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

    /// Sends one message to processor `to`. A send to a processor whose
    /// thread has already ended can only happen on an aborted run, where
    /// nobody waits for it.
    fn send(&mut self, to: usize, msg: Msg, bytes: usize) {
        self.stats.msgs_sent += 1;
        self.stats.bytes_sent += bytes;
        let _ = self.txs[to].send(msg);
    }

    /// Counts down `pred`'s successors owned here, emitting `Ready` for
    /// each that has no predecessor left.
    fn release_succs(&mut self, pred: u32) {
        for &s in self.deps.succs(pred as usize) {
            if self.assignment.proc_of(s as usize) == self.me {
                self.remaining[s as usize] -= 1;
                if self.remaining[s as usize] == 0 {
                    self.last_pred[s as usize] = pred;
                    if self.capture {
                        let t = self.now();
                        self.emit(t, EventKind::Ready { unit: s });
                    }
                }
            }
        }
    }

    fn dispatch(&mut self, msg: Msg) {
        match msg {
            Msg::Done { unit } => self.release_succs(unit),
            Msg::Request { from, ids } => {
                let vals: Box<[f64]> = ids
                    .iter()
                    .map(|&id| {
                        debug_assert_eq!(
                            self.proc_of_entry[id as usize] as usize, self.me,
                            "request for an element not owned here"
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
                    self.vals[id as usize] = v;
                }
                self.pending -= 1;
                if self.capture {
                    // The owner's batch is installed: close the transfer
                    // opened at prefetch.
                    let t = self.now();
                    self.emit(
                        t,
                        EventKind::TransferEnd {
                            unit: self.current_unit,
                            peer: self.proc_of_entry[ids[0] as usize],
                            bytes: reply_bytes(ids.len()) as u64,
                        },
                    );
                }
            }
            Msg::Shutdown => self.shutdown = true,
        }
    }

    /// Serves the mailbox until `done` holds, or until the shutdown
    /// verdict arrives ([`Flow::Stop`]). Time blocked in the receive is
    /// idle time.
    fn serve_until(&mut self, done: impl Fn(&Self) -> bool) -> Flow {
        while !self.shutdown && !done(self) {
            let wait = Instant::now();
            let Ok(msg) = self.rx.recv() else {
                return Flow::Stop;
            };
            self.stats.idle_ns += wait.elapsed().as_nanos() as u64;
            self.dispatch(msg);
        }
        if self.shutdown {
            Flow::Stop
        } else {
            Flow::Continue
        }
    }

    /// Classifies one source access the way `data_traffic` does: local,
    /// cache hit, or a new remote fetch queued for the owner's batch.
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
            self.pending += 1;
            if self.capture {
                let t = self.now();
                self.emit(
                    t,
                    EventKind::TransferStart {
                        unit: self.current_unit,
                        peer: sp as u32,
                        bytes: reply_bytes(ids.len()) as u64,
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

    fn run(mut self) -> Outcome {
        let mut error: Option<usize> = None;
        let queue = self.queue;
        if self.capture {
            // Units with no dependencies are ready the moment the
            // machine starts.
            for &u in queue {
                if self.remaining[u as usize] == 0 {
                    let t = self.now();
                    self.emit(t, EventKind::Ready { unit: u });
                }
            }
        }
        for &unit in queue {
            let u = unit as usize;
            self.current_unit = unit;
            self.note("await_deps", unit);
            let waited = self.remaining[u] > 0;
            let t_wait = if self.capture { self.now() } else { 0.0 };
            if let Flow::Stop = self.serve_until(|w| w.remaining[u] == 0) {
                break;
            }
            if self.capture && waited {
                let dur = self.now() - t_wait;
                self.emit(
                    t_wait,
                    EventKind::Wait {
                        unit,
                        pred: self.last_pred[u],
                        dur,
                    },
                );
            }
            self.note("prefetch", unit);
            self.prefetch(u);
            self.note("await_replies", unit);
            if let Flow::Stop = self.serve_until(|w| w.pending == 0) {
                break;
            }
            self.note("execute", unit);
            let t_start = if self.capture { self.now() } else { 0.0 };
            let work = Instant::now();
            let result = self.kernel.run(u, &mut self.vals);
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
                self.emit(t_start, EventKind::UnitStart { unit, edge });
                self.emit(
                    t_start + compute,
                    EventKind::UnitEnd {
                        unit,
                        compute,
                        transfer: 0.0,
                    },
                );
                self.prev_unit = unit;
            }
            match result {
                Ok(work) => self.stats.work += work,
                Err(col) => {
                    error = Some(col);
                    break;
                }
            }
            self.stats.units += 1;
            self.done_units[u] = true;
            self.release_succs(unit);
            self.notify.iter_mut().for_each(|f| *f = false);
            for &s in self.deps.succs(u) {
                self.notify[self.assignment.proc_of(s as usize)] = true;
            }
            for p in 0..self.nprocs {
                if self.notify[p] && p != self.me {
                    self.send(p, Msg::Done { unit }, DONE_BYTES);
                }
            }
            let _ = self.events.send(Event::Progress);
        }
        if !self.shutdown {
            if error.is_some() {
                let _ = self.events.send(Event::Aborted);
            } else {
                self.note("finished", NO_UNIT);
                let _ = self.events.send(Event::Finished);
            }
        }
        // Peers may still need replies: keep serving until the verdict.
        let _ = self.serve_until(|_| false);
        Outcome {
            stats: self.stats,
            fetched_from: self.fetched_from,
            vals: self.vals,
            error,
            timeline: self.timeline,
        }
    }
}

/// Runs the schedule on the virtual machine, optionally capturing its
/// wall-clock timeline. See [`crate::execute`] for the protocol contract.
///
/// Under a recorder scope: times the run under the span `mp.execute`,
/// bumps the `mp.*` counters (`mp.msgs_sent`, `mp.bytes`,
/// `mp.cache_hits`, `mp.remote_fetches`, `mp.local_accesses`,
/// `mp.idle_ns`, `mp.busy_ns`, `mp.units_run`) and records the headline
/// gauges `mp.traffic.total`, `mp.work.max` plus per-processor gauges `mp.proc.<p>.traffic`, `mp.proc.<p>.work` and
/// `mp.proc.<p>.msgs_sent` (see `docs/METRICS.md`).
///
/// When `sink` is supplied, every worker records [`TimelineEvent`]s
/// (seconds since a shared run epoch) and flushes them into the sink
/// after the join — including on aborted runs, so a failure still leaves
/// a trace to inspect. Capture costs one local `Vec` push per event;
/// without a sink the run is byte-for-byte the uninstrumented one.
pub fn execute_with_timeline(
    a: &SymmetricCsc,
    symbolic: &SymbolicFactor,
    partition: &Partition,
    deps: &DepGraph,
    assignment: &Assignment,
    sink: Option<&TimelineSink>,
) -> Result<MpReport, MpError> {
    let rec = spfactor_trace::current();
    let report = rec.time("mp.execute", || {
        run(a, symbolic, partition, deps, assignment, sink)
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
    sink: Option<&TimelineSink>,
) -> Result<MpReport, MpError> {
    let nprocs = assignment.nprocs;
    let kernel = UnitKernel::new(symbolic, partition)?;
    UnitKernel::check_schedule(partition, deps, assignment)?;
    let seed = kernel.seed(a)?;
    let nu = partition.num_units();
    let entries = seed.len();
    // The processor of every entry, from the kernel's per-unit lists.
    let mut proc_of_entry = vec![0u32; entries];
    for u in 0..nu {
        let p = assignment.proc_of(u) as u32;
        for &id in kernel.entries_of(u) {
            proc_of_entry[id as usize] = p;
        }
    }
    let queues = processor_queues(deps, assignment);
    let preds_len: Vec<usize> = (0..nu).map(|u| deps.preds(u).len()).collect();

    let (txs, rxs): (Vec<_>, Vec<_>) = (0..nprocs).map(|_| channel::unbounded::<Msg>()).unzip();
    let (event_tx, event_rx) = channel::unbounded::<Event>();
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
                    vals,
                    cached: vec![false; entries],
                    remaining: preds_len.clone(),
                    done_units: vec![false; nu],
                    want: vec![Vec::new(); nprocs],
                    pending: 0,
                    notify: vec![false; nprocs],
                    shutdown: false,
                    stats: ProcStats::default(),
                    fetched_from: vec![0; nprocs],
                    epoch,
                    capture: sink.is_some(),
                    timeline: Vec::new(),
                    last_pred: vec![NO_UNIT; nu],
                    prev_unit: NO_UNIT,
                    current_unit: NO_UNIT,
                    last_seen: &last_seen[p],
                };
                scope.spawn(move |_| worker.run())
            })
            .collect();

        // Run controller: collect worker events, arbitrate the verdict,
        // broadcast the shutdown. The watchdog fires when *nothing*
        // reports progress for the whole budget — the machine is wedged.
        let mut nfinished = 0usize;
        let cause: Option<StopCause> = loop {
            match event_rx.recv_timeout(WATCHDOG) {
                Ok(Event::Progress) => {}
                Ok(Event::Finished) => {
                    nfinished += 1;
                    if nfinished == nprocs {
                        break None;
                    }
                }
                Ok(Event::Aborted) => break Some(StopCause::Numeric),
                Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => {
                    break Some(StopCause::Watchdog(nfinished))
                }
            }
        };
        for tx in txs.iter() {
            let _ = tx.send(Msg::Shutdown);
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

    // Which failing pivot a processor reached first depends on timing;
    // the error reported is the sequential kernel's, which does not.
    if let Some(col) = outcomes.iter().find_map(|o| o.error) {
        return Err(MpError::Numeric(kernel.pivot_error(a, col)));
    }
    if let Some(cause) = cause {
        // An abort event with no numeric error in any outcome cannot
        // happen; if it somehow did, report the wedge.
        let finished = match cause {
            StopCause::Watchdog(finished) => finished,
            StopCause::Numeric => 0,
        };
        let last_events = last_seen
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
            .collect();
        return Err(MpError::WatchdogTimeout {
            finished,
            nprocs,
            last_events,
        });
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
    Ok(MpReport {
        factor,
        nprocs,
        per_proc: outcomes.into_iter().map(|o| o.stats).collect(),
        pair_matrix,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::execute;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_numeric::NumericError;
    use spfactor_order::{order, Ordering};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_sched::{block_allocation, wrap_allocation};
    use spfactor_simulate::{data_traffic, messages, work_distribution, NetworkModel};

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
        let report = execute(a, f, part, deps, assign, &NetworkModel::free()).expect("mp execute");
        // Factor is the sequential factor, bit for bit (stronger than
        // the 1e-10 acceptance bound).
        let seq = spfactor_numeric::cholesky(a, f).unwrap();
        assert_eq!(report.factor, seq);
        // Observed traffic and work match the analytic simulator exactly.
        assert_eq!(report.traffic_report(), data_traffic(f, part, assign));
        assert_eq!(report.work_report(), work_distribution(part, assign));
        assert_eq!(report.message_counts(), messages(f, part, deps, assign));
        report
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
            execute(&a, &f, &part, &deps, &assign, &NetworkModel::free()).unwrap_err(),
            MpError::Numeric(NumericError::NotPositiveDefinite(1))
        );
    }

    #[test]
    fn structure_mismatch_is_reported() {
        let p = gen::lap9(4, 4);
        let (a, _, part, deps, assign) = setup_block(&p, 4, 2, 1);
        let other = SymbolicFactor::from_pattern(&gen::lap9(3, 3));
        assert!(matches!(
            execute(&a, &other, &part, &deps, &assign, &NetworkModel::free()),
            Err(MpError::Numeric(NumericError::StructureMismatch(_)))
        ));
    }

    #[test]
    fn timeline_capture_reconciles_with_proc_stats() {
        let (a, f, part, deps, assign) = setup_wrap(&gen::lap9(8, 8), 4, 9);
        let sink = TimelineSink::new();
        let report = execute_with_timeline(&a, &f, &part, &deps, &assign, Some(&sink))
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
                EventKind::UnitStart { unit, .. } => started[unit as usize] += 1,
                EventKind::UnitEnd { unit, .. } => ended[unit as usize] += 1,
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
                EventKind::TransferStart { peer, .. } => {
                    *open.entry((e.proc, peer)).or_insert(0) += 1;
                }
                EventKind::TransferEnd { peer, .. } => {
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
        let report =
            execute_with_timeline(&a, &f, &part, &deps, &assign, None).expect("mp execute");
        assert_eq!(report.factor, spfactor_numeric::cholesky(&a, &f).unwrap());
    }
}
