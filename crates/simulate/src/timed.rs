//! Event-driven timed simulation with dependency delays.
//!
//! The paper's metrics deliberately ignore dependency delays; it argues
//! that "if the number of processors is relatively small compared to the
//! number of schedulable units, then the allocation scheme ... provides
//! enough parallelism to keep the idle time to a minimum". This module
//! checks that claim: it executes the unit-block DAG on a machine model
//! with per-message latency and per-element transfer cost and reports the
//! makespan and idle fractions.

use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::Assignment;
use spfactor_symbolic::SymbolicFactor;
use spfactor_trace::timeline::{EventKind, StartEdge, TimelineEvent, TimelineSink};
use std::collections::BinaryHeap;

/// Bytes transferred per remote factor element (one `f64`).
const BYTES_PER_ELEMENT: u64 = 8;

/// How each processor orders the ready units assigned to it — the
/// "ordering the computational work within each processor" half of the
/// scheduling problem, which the paper leaves open (§3.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum OrderPolicy {
    /// Lowest unit id first (the partitioner's left-to-right scan order).
    #[default]
    ScanOrder,
    /// Highest critical-path priority first: units on long dependency
    /// chains run as early as possible.
    CriticalPathFirst,
}

/// Work-weighted longest path from each unit to any sink — the classic
/// list-scheduling priority.
pub fn critical_path_priorities(partition: &Partition, deps: &DepGraph) -> Vec<f64> {
    let n = partition.num_units();
    // Reverse topological order via Kahn on successors.
    let mut outdeg: Vec<usize> = (0..n).map(|u| deps.succs(u).len()).collect();
    let mut prio: Vec<f64> = partition.units.iter().map(|u| u.work as f64).collect();
    let mut queue: std::collections::VecDeque<usize> = (0..n).filter(|&u| outdeg[u] == 0).collect();
    while let Some(u) = queue.pop_front() {
        for &p in deps.preds(u) {
            let p = p as usize;
            let cand = partition.units[p].work as f64 + prio[u];
            if cand > prio[p] {
                prio[p] = cand;
            }
            outdeg[p] -= 1;
            if outdeg[p] == 0 {
                queue.push_back(p);
            }
        }
    }
    prio
}

/// Ready-queue entry: higher priority first, ties to the lower unit id.
#[derive(PartialEq)]
struct Rdy {
    prio: f64,
    id: usize,
}
impl Eq for Rdy {}
impl PartialOrd for Rdy {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Rdy {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.prio
            .total_cmp(&other.prio)
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// The one machine cost model (arbitrary time units): what a run of a
/// schedule costs is [`simulate_timed`] under it, dependency stalls
/// included.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NetworkModel {
    /// Fixed latency per remote predecessor message.
    pub latency: f64,
    /// Transfer time per remote element fetched.
    pub per_element: f64,
    /// Compute time per unit of work (paper cost model).
    pub per_work: f64,
}

impl NetworkModel {
    /// Free communication: only compute counts (1 per work unit), which
    /// isolates the load-balance and dependency components of a run.
    pub fn free() -> Self {
        NetworkModel {
            latency: 0.0,
            per_element: 0.0,
            per_work: 1.0,
        }
    }
}

impl Default for NetworkModel {
    /// Communication an order of magnitude more expensive than compute —
    /// the "systems such as message passing architectures, where
    /// communication overhead is much more expensive than computation"
    /// regime the paper targets.
    fn default() -> Self {
        NetworkModel {
            latency: 10.0,
            per_element: 1.0,
            per_work: 0.1,
        }
    }
}

/// Result of the timed simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct TimedReport {
    /// Completion time of the last unit.
    pub makespan: f64,
    /// Busy (computing) time per processor.
    pub busy: Vec<f64>,
    /// Speedup vs. the same machine with one processor and no
    /// communication: `Wtot · per_work / makespan`.
    pub speedup: f64,
    /// Mean processor utilization: busy time / makespan.
    pub utilization: f64,
}

/// Executes the unit DAG under `model`, ordering each processor's ready
/// units by `policy`. Units become ready when all predecessors have
/// finished (plus message latency and transfer time for remote ones);
/// each processor runs one ready unit at a time.
///
/// Under a recorder scope the run is timed as the span `simulate.timed`
/// and its idle-time breakdown recorded as `simulate.timed.*` gauges: the
/// makespan, the aggregate busy time split into compute vs. communication
/// (transfer) components, and the idle fraction that the paper's untimed
/// metrics assume is negligible.
///
/// With a `sink` the full event timeline — `UnitStart`/`UnitEnd` with
/// start edges, per-peer `TransferStart`/`TransferEnd`, `Wait`, trailing
/// `Idle` and `Ready` events, all on the virtual clock — is emitted into
/// it. The timeline reconciles exactly with the returned [`TimedReport`]:
/// per-processor event durations sum to `busy` (bitwise: same additions
/// in the same order) and the latest `UnitEnd` is the makespan.
///
/// Panics if `deps` or `assignment` was built for a partition with
/// another unit count, or `assignment` names a processor at or above its
/// `nprocs`.
pub fn simulate_timed(
    factor: &SymbolicFactor,
    partition: &Partition,
    deps: &DepGraph,
    assignment: &Assignment,
    model: &NetworkModel,
    policy: OrderPolicy,
    sink: Option<&TimelineSink>,
) -> TimedReport {
    crate::check_assignment(partition, assignment);
    crate::check_deps(partition, deps);
    let rec = spfactor_trace::current();
    let _span = rec.span("simulate.timed");
    let nu = partition.num_units();
    let nprocs = assignment.nprocs;
    let capture = sink.is_some();

    // Remote elements fetched per unit (first fetch per processor counts,
    // attributed to the unit that triggers it — consistent with the
    // traffic model's local caching). When capturing a timeline the same
    // pass also splits each unit's count by source processor, so the
    // transfer events carry real peer/byte payloads.
    let mut remote_elems = vec![0usize; nu];
    let mut peer_elems: Vec<Vec<(u32, u32)>> = vec![Vec::new(); if capture { nu } else { 0 }];
    crate::replay_fetches(factor, partition, assignment, |src_unit, tgt_unit| {
        remote_elems[tgt_unit] += 1;
        if capture {
            let sp = assignment.proc_of(src_unit) as u32;
            let list = &mut peer_elems[tgt_unit];
            match list.iter_mut().find(|(p, _)| *p == sp) {
                Some((_, n)) => *n += 1,
                None => list.push((sp, 1)),
            }
        }
    });

    // Intra-processor ordering priorities.
    let prio: Vec<f64> = match policy {
        OrderPolicy::ScanOrder => vec![0.0; nu],
        OrderPolicy::CriticalPathFirst => critical_path_priorities(partition, deps),
    };

    // Event-driven list scheduling.
    let mut remaining: Vec<usize> = (0..nu).map(|u| deps.preds(u).len()).collect();
    let mut data_ready = vec![0.0f64; nu]; // max over pred arrival times
    let mut finish = vec![0.0f64; nu];
    let mut proc_free = vec![0.0f64; nprocs];
    let mut busy = vec![0.0f64; nprocs];
    // Timeline capture state: event buffer (flushed to the sink once at
    // the end), the predecessor whose arrival set each unit's
    // data_ready, and the previous unit run on each processor.
    let mut events: Vec<TimelineEvent> = Vec::new();
    const NO_UNIT: u32 = u32::MAX;
    let mut binding_pred = vec![NO_UNIT; nu];
    let mut prev_on_proc = vec![NO_UNIT; nprocs];
    // Ready queue per processor, ordered by the policy.
    let mut ready: Vec<BinaryHeap<Rdy>> = (0..nprocs).map(|_| BinaryHeap::new()).collect();
    for u in 0..nu {
        if remaining[u] == 0 {
            let p = assignment.proc_of(u);
            ready[p].push(Rdy {
                prio: prio[u],
                id: u,
            });
            if capture {
                events.push(TimelineEvent {
                    t: 0.0,
                    proc: p as u32,
                    kind: EventKind::Ready { unit: u as u32 },
                });
            }
        }
    }
    let mut done = 0usize;
    let mut makespan = 0.0f64;
    // Idle-breakdown tallies, recorded once at the end when tracing.
    let mut compute_time = 0.0f64;
    let mut transfer_time = 0.0f64;
    let mut remote_messages = 0u64;
    // A global event heap keyed by candidate start times keeps the
    // greedy "run the best ready unit as early as possible" exact.
    #[derive(PartialEq)]
    struct Ev(f64, usize); // (start candidate, unit)
    impl Eq for Ev {}
    impl PartialOrd for Ev {
        fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Ev {
        fn cmp(&self, other: &Self) -> std::cmp::Ordering {
            other
                .0
                .total_cmp(&self.0)
                .then_with(|| other.1.cmp(&self.1))
        }
    }
    let mut heap: BinaryHeap<Ev> = BinaryHeap::new();
    let push_candidates = |p: usize,
                           ready: &mut Vec<BinaryHeap<Rdy>>,
                           heap: &mut BinaryHeap<Ev>,
                           proc_free: &[f64],
                           data_ready: &[f64]| {
        if let Some(top) = ready[p].peek() {
            heap.push(Ev(proc_free[p].max(data_ready[top.id]), top.id));
        }
    };
    for p in 0..nprocs {
        push_candidates(p, &mut ready, &mut heap, &proc_free, &data_ready);
    }
    while done < nu {
        let Ev(start, u) = heap.pop().expect("DAG must be acyclic; no deadlock");
        let p = assignment.proc_of(u);
        // Stale candidate? (unit already run, or a better one exists)
        if finish[u] > 0.0 || ready[p].peek().map(|t| t.id) != Some(u) {
            push_candidates(p, &mut ready, &mut heap, &proc_free, &data_ready);
            continue;
        }
        let start = start.max(proc_free[p]).max(data_ready[u]);
        let compute = partition.units[u].work as f64 * model.per_work;
        let transfer = remote_elems[u] as f64 * model.per_element;
        compute_time += compute;
        transfer_time += transfer;
        let duration = compute + transfer;
        let end = start + duration;
        if capture {
            // The binding constraint on the start edge: the data
            // arrival when it lands after the processor freed up,
            // otherwise the previous unit on this processor (or
            // nothing at all).
            let edge = if data_ready[u] > proc_free[p] && binding_pred[u] != NO_UNIT {
                let pred = binding_pred[u];
                events.push(TimelineEvent {
                    t: proc_free[p],
                    proc: p as u32,
                    kind: EventKind::Wait {
                        unit: u as u32,
                        pred,
                        dur: start - proc_free[p],
                    },
                });
                StartEdge::DataReady {
                    pred,
                    remote: assignment.proc_of(pred as usize) != p,
                }
            } else if prev_on_proc[p] != NO_UNIT {
                StartEdge::ProcBusy {
                    prev: prev_on_proc[p],
                }
            } else {
                StartEdge::Free
            };
            events.push(TimelineEvent {
                t: start,
                proc: p as u32,
                kind: EventKind::UnitStart {
                    unit: u as u32,
                    edge,
                },
            });
            // Transfers laid out back-to-back from the start edge; their
            // durations sum to the unit's transfer component exactly.
            let mut t0 = start;
            for &(peer, count) in &peer_elems[u] {
                let dur = count as f64 * model.per_element;
                let bytes = count as u64 * BYTES_PER_ELEMENT;
                events.push(TimelineEvent {
                    t: t0,
                    proc: p as u32,
                    kind: EventKind::TransferStart {
                        unit: u as u32,
                        peer,
                        bytes,
                    },
                });
                t0 += dur;
                events.push(TimelineEvent {
                    t: t0,
                    proc: p as u32,
                    kind: EventKind::TransferEnd {
                        unit: u as u32,
                        peer,
                        bytes,
                    },
                });
            }
            events.push(TimelineEvent {
                t: end,
                proc: p as u32,
                kind: EventKind::UnitEnd {
                    unit: u as u32,
                    compute,
                    transfer,
                },
            });
            prev_on_proc[p] = u as u32;
        }
        ready[p].pop();
        finish[u] = end.max(f64::MIN_POSITIVE);
        proc_free[p] = end;
        busy[p] += duration;
        makespan = makespan.max(end);
        done += 1;
        // Release successors.
        for &s in deps.succs(u) {
            let s = s as usize;
            let sp = assignment.proc_of(s);
            let arrival = if sp == p {
                end
            } else {
                remote_messages += 1;
                end + model.latency
            };
            if arrival > data_ready[s] {
                data_ready[s] = arrival;
                binding_pred[s] = u as u32;
            }
            remaining[s] -= 1;
            if remaining[s] == 0 {
                ready[sp].push(Rdy {
                    prio: prio[s],
                    id: s,
                });
                if capture {
                    events.push(TimelineEvent {
                        t: data_ready[s],
                        proc: sp as u32,
                        kind: EventKind::Ready { unit: s as u32 },
                    });
                }
                push_candidates(sp, &mut ready, &mut heap, &proc_free, &data_ready);
            }
        }
        push_candidates(p, &mut ready, &mut heap, &proc_free, &data_ready);
    }

    if let Some(s) = sink {
        // Trailing idle: each processor from its last finish to the
        // makespan. (Gaps between units are already covered by Wait
        // events, so busy + blocked + trailing idle spans each track.)
        for (p, &free) in proc_free.iter().enumerate() {
            if free < makespan {
                events.push(TimelineEvent {
                    t: free,
                    proc: p as u32,
                    kind: EventKind::Idle {
                        dur: makespan - free,
                    },
                });
            }
        }
        s.record_all(events);
    }

    let total_work: f64 = partition.units.iter().map(|u| u.work as f64).sum();
    let seq = total_work * model.per_work;
    if rec.is_recording() {
        let busy_total: f64 = busy.iter().sum();
        let capacity = makespan * nprocs as f64;
        let idle_total = (capacity - busy_total).max(0.0);
        let max_idle = busy
            .iter()
            .map(|&b| (makespan - b).max(0.0))
            .fold(0.0f64, f64::max);
        rec.gauge("simulate.timed.makespan", makespan);
        rec.gauge("simulate.timed.busy.compute", compute_time);
        rec.gauge("simulate.timed.busy.transfer", transfer_time);
        rec.gauge("simulate.timed.idle.total", idle_total);
        rec.gauge(
            "simulate.timed.idle.frac",
            if capacity > 0.0 {
                idle_total / capacity
            } else {
                0.0
            },
        );
        rec.gauge("simulate.timed.idle.max_proc", max_idle);
        rec.incr("simulate.timed.remote_messages", remote_messages);
    }
    TimedReport {
        makespan,
        speedup: if makespan > 0.0 { seq / makespan } else { 1.0 },
        utilization: if makespan > 0.0 && nprocs > 0 {
            busy.iter().sum::<f64>() / (makespan * nprocs as f64)
        } else {
            1.0
        },
        busy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_sched::block_allocation;

    fn setup(nx: usize) -> (SymbolicFactor, Partition, DepGraph) {
        let p = gen::lap9(nx, nx);
        let perm = order(&p, Ordering::paper_default());
        let f = SymbolicFactor::from_pattern(&p.permute(&perm));
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        (f, part, deps)
    }

    fn scan(
        f: &SymbolicFactor,
        part: &Partition,
        deps: &DepGraph,
        a: &Assignment,
        model: &NetworkModel,
    ) -> TimedReport {
        simulate_timed(f, part, deps, a, model, OrderPolicy::ScanOrder, None)
    }

    #[test]
    fn one_processor_makespan_is_sequential_time() {
        let (f, part, deps) = setup(8);
        let a = block_allocation(&part, &deps, 1);
        let model = NetworkModel {
            latency: 5.0,
            per_element: 1.0,
            per_work: 0.5,
        };
        let r = scan(&f, &part, &deps, &a, &model);
        let seq = f.paper_work() as f64 * model.per_work;
        assert!((r.makespan - seq).abs() < 1e-9, "{} vs {}", r.makespan, seq);
        assert!((r.speedup - 1.0).abs() < 1e-9);
    }

    #[test]
    fn more_processors_do_not_slow_down_with_free_comm() {
        let (f, part, deps) = setup(10);
        let free = NetworkModel::free();
        let m1 = scan(&f, &part, &deps, &block_allocation(&part, &deps, 1), &free);
        let m8 = scan(&f, &part, &deps, &block_allocation(&part, &deps, 8), &free);
        assert!(
            m8.makespan <= m1.makespan + 1e-9,
            "8 procs {} slower than 1 proc {}",
            m8.makespan,
            m1.makespan
        );
        assert!(m8.speedup > 1.5, "speedup {}", m8.speedup);
    }

    #[test]
    fn makespan_at_least_critical_and_work_bounds() {
        let (f, part, deps) = setup(9);
        let a = block_allocation(&part, &deps, 4);
        let model = NetworkModel::default();
        let r = scan(&f, &part, &deps, &a, &model);
        // Lower bound: busiest processor's compute time.
        let wmax = a.work_per_proc(&part).into_iter().max().unwrap() as f64 * model.per_work;
        assert!(r.makespan >= wmax - 1e-9);
        assert!(r.utilization > 0.0 && r.utilization <= 1.0 + 1e-9);
        let _ = f;
    }

    #[test]
    fn expensive_communication_hurts_makespan() {
        let (f, part, deps) = setup(8);
        let a = block_allocation(&part, &deps, 8);
        let cheap = NetworkModel::free();
        let pricey = NetworkModel {
            latency: 50.0,
            per_element: 5.0,
            per_work: 1.0,
        };
        let rc = scan(&f, &part, &deps, &a, &cheap);
        let rp = scan(&f, &part, &deps, &a, &pricey);
        assert!(rp.makespan > rc.makespan);
    }

    #[test]
    fn critical_path_priorities_are_monotone_along_edges() {
        let (_f, part, deps) = setup(8);
        let prio = critical_path_priorities(&part, &deps);
        for u in 0..part.num_units() {
            for &s in deps.preds(u) {
                assert!(
                    prio[s as usize] >= prio[u] + part.units[s as usize].work as f64 - 1e-9
                        || prio[s as usize] >= prio[u],
                    "priority must not increase along edges"
                );
            }
        }
        // Sinks carry exactly their own work.
        for (u, p) in prio.iter().enumerate() {
            if deps.succs(u).is_empty() {
                assert_eq!(*p, part.units[u].work as f64);
            }
        }
    }

    #[test]
    fn cp_first_policy_is_valid_and_competitive() {
        let (f, part, deps) = setup(10);
        let a = block_allocation(&part, &deps, 8);
        let model = NetworkModel::free();
        let by_scan = scan(&f, &part, &deps, &a, &model);
        let cp = simulate_timed(
            &f,
            &part,
            &deps,
            &a,
            &model,
            OrderPolicy::CriticalPathFirst,
            None,
        );
        let wmax = a.work_per_proc(&part).into_iter().max().unwrap() as f64;
        for r in [&by_scan, &cp] {
            assert!(r.makespan >= wmax - 1e-9);
            assert!(r.makespan <= part.total_work() as f64 + 1e-9);
        }
        // List-scheduling anomalies exist, but CP-first should not be
        // drastically worse than scan order.
        assert!(cp.makespan <= by_scan.makespan * 1.25);
    }

    #[test]
    fn timeline_reconciles_with_report() {
        let (f, part, deps) = setup(10);
        for nprocs in [1, 4, 8] {
            let a = block_allocation(&part, &deps, nprocs);
            let model = NetworkModel::default();
            let sink = TimelineSink::new();
            let r = simulate_timed(
                &f,
                &part,
                &deps,
                &a,
                &model,
                OrderPolicy::ScanOrder,
                Some(&sink),
            );
            let plain = scan(&f, &part, &deps, &a, &model);
            assert_eq!(r, plain, "capture must not perturb the simulation");
            let tl = sink.finish();
            // Busy sums are bitwise identical (same additions, same order).
            assert_eq!(tl.busy_per_proc(), r.busy, "nprocs={nprocs}");
            assert_eq!(tl.makespan(), r.makespan);
            tl.reconcile(&r.busy, r.makespan, 1e-9)
                .unwrap_or_else(|e| panic!("nprocs={nprocs}: {e}"));
        }
    }

    #[test]
    fn timeline_transfer_events_sum_to_transfer_time() {
        let (f, part, deps) = setup(9);
        let a = block_allocation(&part, &deps, 4);
        let model = NetworkModel::default();
        let sink = TimelineSink::new();
        simulate_timed(
            &f,
            &part,
            &deps,
            &a,
            &model,
            OrderPolicy::ScanOrder,
            Some(&sink),
        );
        let tl = sink.finish();
        let mut transfer_events = 0.0f64;
        let mut open: std::collections::HashMap<(u32, u32), f64> = std::collections::HashMap::new();
        for e in &tl.events {
            match e.kind {
                EventKind::TransferStart { peer, .. } => {
                    open.insert((e.proc, peer), e.t);
                }
                EventKind::TransferEnd { peer, .. } => {
                    let start = open.remove(&(e.proc, peer)).expect("matched start");
                    transfer_events += e.t - start;
                }
                _ => {}
            }
        }
        let transfer_units: f64 = tl
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::UnitEnd { transfer, .. } => Some(transfer),
                _ => None,
            })
            .sum();
        assert!(
            (transfer_events - transfer_units).abs() < 1e-9,
            "{transfer_events} vs {transfer_units}"
        );
        assert!(transfer_units > 0.0, "block/4-proc run must communicate");
    }

    #[test]
    fn tiny_matrix_terminates() {
        let p = SymmetricPattern::from_edges(2, [(1, 0)]);
        let f = SymbolicFactor::from_pattern(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 2);
        let r = scan(&f, &part, &deps, &a, &NetworkModel::default());
        assert!(r.makespan >= 0.0);
    }
}
