//! Message-passing machine model (§4).
//!
//! The paper evaluates its partitioner by *simulation*: given the
//! partition and the unit-block → processor assignment, it measures
//!
//! * **data traffic** — "a count of all the non-local data accesses.
//!   Accessing a single non-local element constitutes a unit data traffic
//!   irrespective of the location from where it is fetched. Once a data
//!   element is fetched, that element is stored locally and subsequent
//!   usage ... does not add to the data traffic" — see [`data_traffic`];
//! * **work distribution** — 2 units per update by a pair of off-diagonal
//!   elements, 1 unit per update by a diagonal element, summarized by the
//!   load imbalance factor `Δ = (Wmax − Wavg) · N / Wtot` — see
//!   [`work_distribution`].
//!
//! Beyond the paper's metrics this crate adds processor-pair hot-spot
//! analysis ([`TrafficReport::pair_matrix`]), an event-driven *timed*
//! simulation with dependency delays ([`timed`]), which the paper
//! explicitly scopes out ("we ... do not take into account data
//! dependency delays") — useful to check that the allocation provides
//! enough parallelism to keep idle time low — under the one machine cost
//! model, [`NetworkModel`], and the message counts the message-passing
//! executor sends ([`messages()`]).

mod bitset;
pub mod engine;
pub mod messages;
pub mod timed;

pub use engine::{simulate, SimulateEngine};
pub use messages::{messages, reply_bytes, request_bytes, MessageCounts, DONE_BYTES};
pub use timed::NetworkModel;

use bitset::BitSet;
use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::Assignment;
use spfactor_symbolic::{ops, SymbolicFactor};
use spfactor_trace::Current;

/// Result of the data-traffic simulation.
#[derive(Clone, Debug, PartialEq)]
pub struct TrafficReport {
    /// Total data traffic: Σ over processors of distinct remote elements
    /// fetched.
    pub total: usize,
    /// Distinct remote elements fetched per processor.
    pub per_proc: Vec<usize>,
    /// `pair_matrix[src * nprocs + dst]` — distinct elements owned by
    /// `src` fetched by `dst` (hot-spot analysis).
    pub pair_matrix: Vec<usize>,
    /// Number of processors.
    pub nprocs: usize,
}

impl TrafficReport {
    /// Mean traffic per processor (the paper's "Mean" column), truncated
    /// to an integer. Kept for table-compatible output; prefer
    /// [`mean_f64`](Self::mean_f64) where rounding down matters.
    pub fn mean(&self) -> usize {
        self.total.checked_div(self.nprocs).unwrap_or(0)
    }

    /// Exact mean traffic per processor (no integer truncation).
    pub fn mean_f64(&self) -> f64 {
        if self.nprocs == 0 {
            0.0
        } else {
            self.total as f64 / self.nprocs as f64
        }
    }

    /// Number of distinct communication partners of `p` (processors it
    /// fetches from or sends to).
    pub fn partners(&self, p: usize) -> usize {
        (0..self.nprocs)
            .filter(|&q| {
                q != p
                    && (self.pair_matrix[p * self.nprocs + q] > 0
                        || self.pair_matrix[q * self.nprocs + p] > 0)
            })
            .count()
    }

    /// The heaviest directed pair volume — a hot-spot indicator.
    pub fn max_pair(&self) -> usize {
        self.pair_matrix.iter().copied().max().unwrap_or(0)
    }
}

/// Runs the data-traffic simulation for a partition and assignment.
///
/// Every update (and diagonal scaling) operation makes the target
/// element's processor read the source elements; the first read of a
/// remote element counts one unit of traffic (local caching thereafter).
///
/// Under a recorder scope: times the simulation under the span
/// `simulate.data_traffic`, counts every source-element access by
/// outcome — `simulate.traffic.remote_fetches` (first remote read, the
/// unit of paper traffic), `simulate.traffic.cache_hits` (remote element
/// already fetched) and `simulate.traffic.local_accesses` — and records
/// the report's totals as `simulate.traffic.*` gauges (see
/// `docs/METRICS.md`).
///
/// Panics if `assignment` does not cover `partition` or names a
/// processor at or above its `nprocs`.
pub fn data_traffic(
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
) -> TrafficReport {
    check_assignment(partition, assignment);
    let rec = spfactor_trace::current();
    let (report, accesses) = rec.time("simulate.data_traffic", || {
        element_traffic(factor, partition, assignment)
    });
    rec.incr("simulate.traffic.remote_fetches", accesses[0]);
    rec.incr("simulate.traffic.cache_hits", accesses[1]);
    rec.incr("simulate.traffic.local_accesses", accesses[2]);
    record_traffic(&rec, &report);
    report
}

/// Panics unless `assignment` maps exactly the units of `partition`, each
/// to a processor below its `nprocs`: the reports of another partition's
/// assignment would be wrong, not merely slow.
pub(crate) fn check_assignment(partition: &Partition, assignment: &Assignment) {
    assert_eq!(
        assignment.proc_of_unit.len(),
        partition.num_units(),
        "the assignment maps {} units, the partition has {}",
        assignment.proc_of_unit.len(),
        partition.num_units()
    );
    let nprocs = assignment.nprocs;
    if let Some(&p) = assignment
        .proc_of_unit
        .iter()
        .find(|&&p| p as usize >= nprocs)
    {
        panic!("the assignment names processor {p}, but has {nprocs} processors");
    }
}

/// Panics unless `deps` was built for `partition` (same unit count).
pub(crate) fn check_deps(partition: &Partition, deps: &DepGraph) {
    assert_eq!(
        deps.num_units(),
        partition.num_units(),
        "the dependency graph has {} units, the partition has {}",
        deps.num_units(),
        partition.num_units()
    );
}

/// The `simulate.traffic.*` gauges every engine records.
pub(crate) fn record_traffic(rec: &Current, report: &TrafficReport) {
    if rec.is_recording() {
        rec.gauge("simulate.traffic.total", report.total as f64);
        rec.gauge("simulate.traffic.mean", report.mean_f64());
        rec.gauge("simulate.traffic.max_pair", report.max_pair() as f64);
    }
}

/// The element oracle's traffic report and the access tallies
/// `[remote fetch, cache hit, local]` of the replay behind it.
fn element_traffic(
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
) -> (TrafficReport, [u64; 3]) {
    let nprocs = assignment.nprocs;
    let mut per_proc = vec![0usize; nprocs];
    let mut pair_matrix = vec![0usize; nprocs * nprocs];
    let accesses = replay_fetches(factor, partition, assignment, |src_unit, tgt_unit| {
        let (sp, tp) = (assignment.proc_of(src_unit), assignment.proc_of(tgt_unit));
        per_proc[tp] += 1;
        pair_matrix[sp * nprocs + tp] += 1;
    });
    let report = TrafficReport {
        total: per_proc.iter().sum(),
        per_proc,
        pair_matrix,
        nprocs,
    };
    (report, accesses)
}

/// Every read of the §4 traffic rule: each update and diagonal scaling
/// makes the target element's processor read its source elements, in
/// the oracle's enumeration order ([`ops::for_each_update`], then
/// [`ops::for_each_scaling`]). `owner` is the partition's entry → unit
/// map ([`Partition::ownership`]). Each read is handed to
/// `on_read(src_entry, (tgt_unit, tgt_proc))`.
pub(crate) fn replay_reads(
    factor: &SymbolicFactor,
    owner: &[u32],
    assignment: &Assignment,
    mut on_read: impl FnMut(usize, (usize, usize)),
) {
    let eid = |i: usize, j: usize| factor.entry_id(i, j).expect("factor entry");
    // A target element as (its unit, that unit's processor).
    let target = |i: usize, j: usize| {
        let unit = owner[eid(i, j)] as usize;
        (unit, assignment.proc_of(unit))
    };
    ops::for_each_update(factor, |op| {
        let t = target(op.i, op.j);
        on_read(eid(op.i, op.k), t);
        if op.i != op.j {
            on_read(eid(op.j, op.k), t);
        }
    });
    ops::for_each_scaling(factor, |i, j| on_read(eid(j, j), target(i, j)));
}

/// The one replay of the §4 traffic rule over [`replay_reads`]: the
/// first read of a remote element is a fetch, later ones hit the
/// processor's cache. Each first fetch is handed to
/// `on_first_fetch(src_unit, tgt_unit)` — the traffic report and the
/// timed simulation's per-unit transfers differ only in what they tally
/// there. Returns the access counts
/// `[remote fetch, cache hit, local]`.
pub(crate) fn replay_fetches(
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
    mut on_first_fetch: impl FnMut(usize, usize),
) -> [u64; 3] {
    let owner = partition.ownership(factor);
    let mut seen: Vec<BitSet> = (0..assignment.nprocs)
        .map(|_| BitSet::new(factor.num_entries()))
        .collect();
    let mut accesses = [0u64; 3];
    replay_reads(factor, &owner, assignment, |src, (tgt_unit, tp)| {
        let src_unit = owner[src] as usize;
        if assignment.proc_of(src_unit) == tp {
            accesses[2] += 1;
        } else if seen[tp].insert(src) {
            accesses[0] += 1;
            on_first_fetch(src_unit, tgt_unit);
        } else {
            accesses[1] += 1;
        }
    });
    accesses
}

/// Result of the work-distribution analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkReport {
    /// Work per processor (paper cost model).
    pub per_proc: Vec<usize>,
    /// Total work `Wtot`.
    pub total: usize,
}

impl WorkReport {
    /// Mean work `Wavg = Wtot / N`.
    pub fn mean(&self) -> f64 {
        if self.per_proc.is_empty() {
            0.0
        } else {
            self.total as f64 / self.per_proc.len() as f64
        }
    }

    /// Maximum work `Wmax`.
    pub fn max(&self) -> usize {
        self.per_proc.iter().copied().max().unwrap_or(0)
    }

    /// The paper's load imbalance factor
    /// `Δ = (Wmax − Wavg) · N / Wtot = 1/e − 1`.
    pub fn imbalance(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let n = self.per_proc.len() as f64;
        (self.max() as f64 - self.mean()) * n / self.total as f64
    }

    /// Efficiency `e = Wtot / (Wmax · N) = 1 / (1 + Δ)`.
    pub fn efficiency(&self) -> f64 {
        let wmax = self.max();
        if wmax == 0 {
            return 1.0;
        }
        self.total as f64 / (wmax as f64 * self.per_proc.len() as f64)
    }
}

/// Computes the work distribution of an assignment.
///
/// Under a recorder scope: the span `simulate.work_distribution` and the
/// report's headline numbers — `simulate.work.total`, `.max`,
/// `.imbalance` (the paper's Δ) and `.efficiency` — as gauges (see
/// `docs/METRICS.md`).
///
/// Panics if `assignment` does not cover `partition` or names a
/// processor at or above its `nprocs`.
pub fn work_distribution(partition: &Partition, assignment: &Assignment) -> WorkReport {
    check_assignment(partition, assignment);
    let rec = spfactor_trace::current();
    let report = rec.time("simulate.work_distribution", || {
        work_report(partition, assignment)
    });
    record_work(&rec, &report);
    report
}

pub(crate) fn work_report(partition: &Partition, assignment: &Assignment) -> WorkReport {
    let per_proc = assignment.work_per_proc(partition);
    WorkReport {
        total: per_proc.iter().sum(),
        per_proc,
    }
}

/// The `simulate.work.*` gauges every engine records.
pub(crate) fn record_work(rec: &Current, report: &WorkReport) {
    if rec.is_recording() {
        rec.gauge("simulate.work.total", report.total as f64);
        rec.gauge("simulate.work.max", report.max() as f64);
        rec.gauge("simulate.work.imbalance", report.imbalance());
        rec.gauge("simulate.work.efficiency", report.efficiency());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_sched::{block_allocation, wrap_allocation};

    fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
        let perm = order(p, Ordering::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    }

    #[test]
    fn one_processor_generates_no_traffic() {
        // Matches Table 5's P = 1 rows: total communication 0.
        let p = gen::lap9(8, 8);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        let a = wrap_allocation(&part, 1);
        let t = data_traffic(&f, &part, &a);
        assert_eq!(t.total, 0);
        assert_eq!(t.per_proc, vec![0]);
        assert_eq!(t.max_pair(), 0);
    }

    #[test]
    fn traffic_counts_distinct_elements_once() {
        // Two columns on different procs, second column's updates read
        // the first column's elements once each despite repeated use.
        // A: dense 3x3 -> L dense. Wrap over 3 procs: col j -> proc j.
        let mut e = Vec::new();
        for a in 0..3 {
            for b in (a + 1)..3 {
                e.push((b, a));
            }
        }
        let p = SymmetricPattern::from_edges(3, e);
        let f = SymbolicFactor::from_pattern(&p);
        let part = Partition::columns(&f);
        let a = wrap_allocation(&part, 3);
        let t = data_traffic(&f, &part, &a);
        // Proc 1 (col 1): updates (1,1),(2,1) need L(1,0), L(2,0): 2 remote.
        // Scaling (2,1) by (1,1): local.
        // Proc 2 (col 2): update (2,2) from col 0 needs L(2,0): 1 remote;
        // update (2,2) from col 1 needs L(2,1): 1 remote; scaling (2,2)...
        // diagonal scaling of (2,2) is by itself - no strict-lower op.
        assert_eq!(t.per_proc, vec![0, 2, 2]);
        assert_eq!(t.total, 4);
    }

    #[test]
    fn pair_matrix_row_sums_match_fetches() {
        let p = gen::lap9(9, 9);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        let a = wrap_allocation(&part, 4);
        let t = data_traffic(&f, &part, &a);
        for dst in 0..4 {
            let col_sum: usize = (0..4).map(|src| t.pair_matrix[src * 4 + dst]).sum();
            assert_eq!(col_sum, t.per_proc[dst]);
        }
        assert_eq!(t.total, t.per_proc.iter().sum::<usize>());
    }

    #[test]
    fn block_scheme_traffic_lower_than_wrap_on_grid() {
        // The paper's headline claim (Tables 2 vs 5): block mapping
        // communicates less than wrap mapping at the same P.
        let p = gen::lap9(15, 15);
        let f = factor_of(&p);
        let block_part = Partition::build(&f, &PartitionParams::with_grain(25));
        let deps = dependencies(&f, &block_part);
        let block = data_traffic(&f, &block_part, &block_allocation(&block_part, &deps, 8));
        let col_part = Partition::columns(&f);
        let wrap = data_traffic(&f, &col_part, &wrap_allocation(&col_part, 8));
        assert!(
            block.total < wrap.total,
            "block {} !< wrap {}",
            block.total,
            wrap.total
        );
    }

    #[test]
    fn traffic_grows_with_processors() {
        // Both tables show totals increasing with P.
        let p = gen::lap9(12, 12);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        let t4 = data_traffic(&f, &part, &wrap_allocation(&part, 4)).total;
        let t16 = data_traffic(&f, &part, &wrap_allocation(&part, 16)).total;
        assert!(t4 < t16, "{t4} !< {t16}");
    }

    #[test]
    fn work_report_formulas() {
        let w = WorkReport {
            per_proc: vec![10, 20, 30, 40],
            total: 100,
        };
        assert_eq!(w.mean(), 25.0);
        assert_eq!(w.max(), 40);
        // Δ = (40 - 25) * 4 / 100 = 0.6; e = 100 / (40*4) = 0.625 = 1/(1+0.6).
        assert!((w.imbalance() - 0.6).abs() < 1e-12);
        assert!((w.efficiency() - 0.625).abs() < 1e-12);
        assert!((w.efficiency() - 1.0 / (1.0 + w.imbalance())).abs() < 1e-12);
    }

    #[test]
    fn perfect_balance_has_zero_imbalance() {
        let w = WorkReport {
            per_proc: vec![25; 4],
            total: 100,
        };
        assert_eq!(w.imbalance(), 0.0);
        assert_eq!(w.efficiency(), 1.0);
    }

    #[test]
    fn wrap_balances_better_than_block_at_scale() {
        // The paper's other headline (Table 3 vs 5): wrap mapping has the
        // consistently lower imbalance factor.
        let p = gen::lap9(20, 20);
        let f = factor_of(&p);
        let block_part = Partition::build(&f, &PartitionParams::with_grain(25));
        let deps = dependencies(&f, &block_part);
        let wb = work_distribution(&block_part, &block_allocation(&block_part, &deps, 16));
        let col_part = Partition::columns(&f);
        let ww = work_distribution(&col_part, &wrap_allocation(&col_part, 16));
        assert!(
            ww.imbalance() <= wb.imbalance(),
            "wrap Δ {} !<= block Δ {}",
            ww.imbalance(),
            wb.imbalance()
        );
    }

    #[test]
    fn work_total_is_assignment_independent() {
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let w4 = work_distribution(&part, &block_allocation(&part, &deps, 4));
        let w16 = work_distribution(&part, &block_allocation(&part, &deps, 16));
        assert_eq!(w4.total, w16.total);
        assert_eq!(w4.total, f.paper_work());
    }

    /// The panic message of `f`, which must panic.
    fn panic_message(f: impl FnOnce()) -> String {
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
            .expect_err("an assignment of another partition must be refused");
        match err.downcast::<String>() {
            Ok(s) => *s,
            Err(e) => e
                .downcast::<&str>()
                .map(|s| s.to_string())
                .unwrap_or_default(),
        }
    }

    #[test]
    fn another_partitions_assignment_is_refused() {
        // The grain-4 partition of lap9 12² has 220 units, the grain-25
        // one 130: every entry point must name both counts rather than
        // answer (or index out of bounds), and the two that read a
        // dependency graph must refuse another partition's graph too.
        let f = factor_of(&gen::lap9(12, 12));
        let fine = Partition::build(&f, &PartitionParams::with_grain(4));
        let coarse = Partition::build(&f, &PartitionParams::with_grain(25));
        let (nf, nc) = (fine.num_units(), coarse.num_units());
        assert_ne!(nf, nc);
        let (fine_deps, coarse_deps) = (dependencies(&f, &fine), dependencies(&f, &coarse));
        let longer = block_allocation(&fine, &fine_deps, 16);
        let shorter = block_allocation(&coarse, &coarse_deps, 16);
        let timed = |part, deps, a| {
            let model = timed::NetworkModel::default();
            drop(timed::simulate_timed(
                &f,
                part,
                deps,
                a,
                &model,
                timed::OrderPolicy::ScanOrder,
                None,
            ))
        };
        for (part, deps, own, a, other_deps) in [
            (&coarse, &coarse_deps, &shorter, &longer, &fine_deps),
            (&fine, &fine_deps, &longer, &shorter, &coarse_deps),
        ] {
            let counts = [nf.to_string(), nc.to_string()];
            let mut refusals = vec![
                panic_message(|| drop(data_traffic(&f, part, a))),
                panic_message(|| drop(work_distribution(part, a))),
                panic_message(|| timed(part, deps, a)),
                panic_message(|| drop(messages(&f, part, deps, a))),
                panic_message(|| timed(part, other_deps, own)),
                panic_message(|| drop(messages(&f, part, other_deps, own))),
            ];
            for engine in [
                SimulateEngine::Element,
                SimulateEngine::Block,
                SimulateEngine::BlockParallel,
            ] {
                refusals.push(panic_message(|| drop(simulate(engine, &f, part, a))));
            }
            for m in refusals {
                assert!(counts.iter().all(|c| m.contains(c.as_str())), "{m}");
            }
        }
    }

    #[test]
    fn a_processor_id_past_nprocs_is_refused() {
        let f = factor_of(&gen::lap9(8, 8));
        let part = Partition::columns(&f);
        let mut a = wrap_allocation(&part, 4);
        a.proc_of_unit[3] = 4;
        for engine in [SimulateEngine::Element, SimulateEngine::Block] {
            let m = panic_message(|| drop(simulate(engine, &f, &part, &a)));
            assert!(
                m.contains("processor 4") && m.contains("4 processors"),
                "{m}"
            );
        }
        let m = panic_message(|| drop(work_distribution(&part, &a)));
        assert!(m.contains("processor 4"), "{m}");
    }

    #[test]
    fn mean_f64_is_exact_where_mean_truncates() {
        let t = TrafficReport {
            total: 10,
            per_proc: vec![3, 3, 4],
            pair_matrix: vec![0; 9],
            nprocs: 3,
        };
        assert_eq!(t.mean(), 3); // truncates
        assert!((t.mean_f64() - 10.0 / 3.0).abs() < 1e-12);
        let empty = TrafficReport {
            total: 0,
            per_proc: vec![],
            pair_matrix: vec![],
            nprocs: 0,
        };
        assert_eq!(empty.mean(), 0);
        assert_eq!(empty.mean_f64(), 0.0);
    }
}
