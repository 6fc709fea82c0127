//! The message counts of the message-passing executor, predicted from
//! the plan.
//!
//! `spfactor-mp` runs each processor's [`processor_queues`] program in
//! order. Before a unit runs, its processor sends one block request to
//! every processor that owns a remote source element the unit reads and
//! the processor has not fetched yet; the owner answers with one reply
//! carrying those elements. After the unit runs, one `Done` goes to every
//! other processor owning a successor. Which unit fetches an element is
//! therefore fixed by the queues: the first unit, in its processor's
//! queue order, that reads it. So [`messages()`] counts every message and
//! byte without running anything, and the executor's counters must equal
//! it exactly (`tests/mp_cross_validation.rs`).
//!
//! The byte accounting charges 4 bytes per id or header word and 8 per
//! value; both sides use the one definition here.

use spfactor_partition::{DepGraph, Partition};
use spfactor_sched::{processor_queues, Assignment};
use spfactor_symbolic::SymbolicFactor;

/// Modeled wire size of a `Done` notification (one unit id).
pub const DONE_BYTES: usize = 4;

/// Modeled wire size of a block request carrying `k` element ids.
pub fn request_bytes(k: usize) -> usize {
    4 + 4 * k
}

/// Modeled wire size of a block reply carrying `k` (id, value) pairs.
pub fn reply_bytes(k: usize) -> usize {
    12 * k
}

/// The messages one processor of the executor sends and serves.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MessageCounts {
    /// Block requests sent while gathering remote elements.
    pub requests_sent: usize,
    /// Block replies served to other processors.
    pub replies_served: usize,
    /// Elements carried by those replies.
    pub elements_served: usize,
    /// Messages originated: requests, replies and `Done` notifications.
    pub msgs_sent: usize,
    /// Modeled bytes of those messages.
    pub bytes_sent: usize,
}

/// Predicts the executor's message counts, per processor.
///
/// Costs one replay of the traffic rule and a table of one `u32` per
/// processor and factor entry.
///
/// Panics if `deps` or `assignment` was built for a partition with
/// another unit count, or `assignment` names a processor at or above its
/// `nprocs`.
pub fn messages(
    factor: &SymbolicFactor,
    partition: &Partition,
    deps: &DepGraph,
    assignment: &Assignment,
) -> Vec<MessageCounts> {
    crate::check_assignment(partition, assignment);
    crate::check_deps(partition, deps);
    let nprocs = assignment.nprocs;
    let entries = factor.num_entries();
    let owner = partition.ownership(factor);
    let owner_proc = |e: usize| assignment.proc_of(owner[e] as usize);

    let mut pos = vec![0u32; partition.num_units()];
    for queue in processor_queues(deps, assignment) {
        for (k, &u) in queue.iter().enumerate() {
            pos[u as usize] = k as u32;
        }
    }
    // `first[p * entries + e]`: the queue position of the first unit on
    // processor `p` that reads remote element `e` — the unit that fetches it.
    let mut first = vec![u32::MAX; nprocs * entries];
    crate::replay_reads(factor, &owner, assignment, |src, (tgt_unit, tp)| {
        if owner_proc(src) != tp {
            let slot = &mut first[tp * entries + src];
            *slot = (*slot).min(pos[tgt_unit]);
        }
    });

    let mut counts = vec![MessageCounts::default(); nprocs];
    let mut fetches: Vec<(u32, usize)> = Vec::new();
    for (tp, row) in first.chunks_exact(entries.max(1)).enumerate() {
        // One request and one reply per (fetching unit, owner) pair.
        fetches.clear();
        fetches.extend(
            row.iter()
                .enumerate()
                .filter(|&(_, &k)| k != u32::MAX)
                .map(|(src, &k)| (k, owner_proc(src))),
        );
        fetches.sort_unstable();
        for batch in fetches.chunk_by(|a, b| a == b) {
            let (k, sp) = (batch.len(), batch[0].1);
            counts[tp].requests_sent += 1;
            counts[tp].bytes_sent += request_bytes(k);
            counts[sp].replies_served += 1;
            counts[sp].elements_served += k;
            counts[sp].bytes_sent += reply_bytes(k);
        }
    }
    // One `Done` per (unit, other processor owning a successor).
    let mut notified = vec![usize::MAX; nprocs];
    for u in 0..partition.num_units() {
        let p = assignment.proc_of(u);
        for &s in deps.succs(u) {
            let sp = assignment.proc_of(s as usize);
            if sp != p && notified[sp] != u {
                notified[sp] = u;
                counts[p].msgs_sent += 1;
                counts[p].bytes_sent += DONE_BYTES;
            }
        }
    }
    for c in &mut counts {
        c.msgs_sent += c.requests_sent + c.replies_served;
    }
    counts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_traffic;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};
    use spfactor_partition::{dependencies, PartitionParams};
    use spfactor_sched::{block_allocation, wrap_allocation};

    fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
        let perm = order(p, Ordering::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    }

    /// Requests, elements served and all messages, summed over processors.
    fn totals(f: &SymbolicFactor, part: &Partition, a: &Assignment) -> [usize; 3] {
        let counts = messages(f, part, &dependencies(f, part), a);
        let sum = |g: fn(&MessageCounts) -> usize| counts.iter().map(g).sum();
        [
            sum(|c| c.requests_sent),
            sum(|c| c.elements_served),
            sum(|c| c.msgs_sent),
        ]
    }

    #[test]
    fn elements_served_are_the_data_traffic() {
        let f = factor_of(&gen::lap9(10, 10));
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let a = block_allocation(&part, &dependencies(&f, &part), 8);
        assert_eq!(totals(&f, &part, &a)[1], data_traffic(&f, &part, &a).total);
    }

    #[test]
    fn a_request_carries_many_elements() {
        let f = factor_of(&gen::lap9(12, 12));
        let part = Partition::build(&f, &PartitionParams::with_grain(25));
        let a = block_allocation(&part, &dependencies(&f, &part), 8);
        let [requests, elements, _] = totals(&f, &part, &a);
        assert!(
            elements as f64 > 1.5 * requests as f64,
            "{elements} elements in {requests} requests"
        );
    }

    #[test]
    fn block_sends_fewer_messages_than_wrap() {
        // Large source blocks mean fewer, bigger messages — the paper's
        // motivation for step 5.
        let f = factor_of(&gen::lap9(15, 15));
        let part = Partition::build(&f, &PartitionParams::with_grain(25));
        let [br, be, bm] = totals(
            &f,
            &part,
            &block_allocation(&part, &dependencies(&f, &part), 8),
        );
        let cols = Partition::columns(&f);
        let [wr, we, wm] = totals(&f, &cols, &wrap_allocation(&cols, 8));
        assert!(bm < wm, "block msgs {bm} !< wrap msgs {wm}");
        assert!(be * wr > we * br, "block requests are not the larger ones");
    }

    #[test]
    fn one_processor_sends_nothing() {
        let f = factor_of(&gen::lap9(6, 6));
        let part = Partition::columns(&f);
        assert_eq!(totals(&f, &part, &wrap_allocation(&part, 1)), [0, 0, 0]);
    }
}
