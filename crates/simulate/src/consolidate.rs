//! Message consolidation (the paper's step 5).
//!
//! The last step of the paper's §3 pipeline: "consolidate the non-local
//! memory access information for each processor so as to minimize
//! communication overhead". Element-granular fetches that originate from
//! the same source unit block and land on the same processor can travel
//! in one message. This module quantifies the effect: it counts
//!
//! * **volume** — total elements moved (identical to
//!   [`crate::data_traffic`]'s total by construction), and
//! * **messages** — distinct `(source unit, destination processor)`
//!   pairs, i.e. the message count after perfect per-block consolidation
//!   (unconsolidated, every element is a message of its own: `volume`).

use crate::BitSet;
use spfactor_partition::Partition;
use spfactor_sched::Assignment;
use spfactor_symbolic::SymbolicFactor;

/// Result of the consolidation analysis.
#[derive(Clone, Debug, PartialEq)]
pub struct ConsolidationReport {
    /// Elements moved (the paper's data-traffic total).
    pub volume: usize,
    /// Messages after consolidating per (source unit, destination
    /// processor).
    pub messages: usize,
}

impl ConsolidationReport {
    /// Mean elements per consolidated message.
    pub fn mean_message_size(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.volume as f64 / self.messages as f64
        }
    }
}

/// Computes the consolidation report for a partition/assignment.
///
/// Panics if `assignment` does not cover `partition` or names a
/// processor at or above its `nprocs`.
pub fn consolidated_traffic(
    factor: &SymbolicFactor,
    partition: &Partition,
    assignment: &Assignment,
) -> ConsolidationReport {
    crate::check_assignment(partition, assignment);
    // Per destination processor, the source units that messaged it. A
    // pair's first touch is always some element's first fetch, so the
    // first-fetch events reach every pair.
    let mut seen_unit: Vec<BitSet> = (0..assignment.nprocs)
        .map(|_| BitSet::new(partition.num_units()))
        .collect();
    let mut volume = 0usize;
    let mut messages = 0usize;
    crate::replay_fetches(factor, partition, assignment, |src_unit, tgt_unit| {
        volume += 1;
        if seen_unit[assignment.proc_of(tgt_unit)].insert(src_unit) {
            messages += 1;
        }
    });

    ConsolidationReport { volume, messages }
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

    #[test]
    fn volume_matches_data_traffic() {
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(4));
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 8);
        let c = consolidated_traffic(&f, &part, &a);
        let t = data_traffic(&f, &part, &a);
        assert_eq!(c.volume, t.total);
    }

    #[test]
    fn consolidation_reduces_message_count() {
        let p = gen::lap9(12, 12);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(25));
        let deps = dependencies(&f, &part);
        let a = block_allocation(&part, &deps, 8);
        let c = consolidated_traffic(&f, &part, &a);
        assert!(
            c.messages < c.volume,
            "block consolidation must merge element fetches: {} !< {}",
            c.messages,
            c.volume
        );
        assert!(c.mean_message_size() > 1.5);
    }

    #[test]
    fn block_messages_fewer_than_wrap_messages() {
        // Large source blocks mean fewer, bigger messages — the paper's
        // motivation for step 5.
        let p = gen::lap9(15, 15);
        let f = factor_of(&p);
        let part = Partition::build(&f, &PartitionParams::with_grain(25));
        let deps = dependencies(&f, &part);
        let cb = consolidated_traffic(&f, &part, &block_allocation(&part, &deps, 8));
        let cols = Partition::columns(&f);
        let cw = consolidated_traffic(&f, &cols, &wrap_allocation(&cols, 8));
        assert!(
            cb.messages < cw.messages,
            "block msgs {} !< wrap msgs {}",
            cb.messages,
            cw.messages
        );
        assert!(cb.mean_message_size() > cw.mean_message_size());
    }

    #[test]
    fn one_processor_sends_nothing() {
        let p = gen::lap9(6, 6);
        let f = factor_of(&p);
        let part = Partition::columns(&f);
        let a = wrap_allocation(&part, 1);
        let c = consolidated_traffic(&f, &part, &a);
        assert_eq!(c.volume, 0);
        assert_eq!(c.messages, 0);
        assert_eq!(c.mean_message_size(), 0.0);
    }
}
