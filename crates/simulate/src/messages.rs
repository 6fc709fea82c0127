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
