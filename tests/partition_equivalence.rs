//! Pinned equivalence: the partitioner's closed-form ownership and work
//! tally must equal a per-entry, per-update replay.
//!
//! `Partition` fills its ownership map, element counts and unit work from
//! the per-column ownership segmentation, grouped by fundamental
//! supernode, without enumerating a single update pair. The oracle here
//! does the opposite: it resolves each stored entry to the one unit whose
//! *shape* contains it, then replays every update and scaling operation
//! of the factorization with one `entry_id` lookup each — the tally the
//! partitioner used to run, kept as the specification of the paper's cost
//! model (2 units per update pair on the target element, 1 per diagonal
//! scaling of a strict-lower element).

use proptest::prelude::*;
use spfactor::order::{order, Ordering};
use spfactor::partition::UnitShape;
use spfactor::symbolic::ops;
use spfactor::trace::scope;
use spfactor::{Partition, PartitionParams, Recorder, SymbolicFactor, SymmetricPattern};
use std::sync::Arc;

fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
    let perm = order(p, Ordering::paper_default());
    SymbolicFactor::from_pattern(&p.permute(&perm))
}

/// Ownership from unit geometry alone: every unit claims the stored
/// entries inside its shape; claims must be disjoint and cover the factor.
fn oracle_owner(factor: &SymbolicFactor, part: &Partition) -> Vec<u32> {
    let mut owner = vec![u32::MAX; factor.num_entries()];
    let mut claim = |i: usize, j: usize, unit: usize| {
        let e = factor.entry_id(i, j).expect("stored entry");
        assert_eq!(owner[e], u32::MAX, "({i},{j}) claimed twice");
        owner[e] = unit as u32;
    };
    for u in &part.units {
        match u.shape {
            UnitShape::Column { col } => {
                claim(col, col, u.id);
                for &i in factor.col(col) {
                    claim(i, col, u.id);
                }
            }
            UnitShape::Triangle { extent } => {
                for j in extent.lo..=extent.hi {
                    claim(j, j, u.id);
                    for &i in factor.col(j).iter().filter(|&&i| extent.contains(i)) {
                        claim(i, j, u.id);
                    }
                }
            }
            UnitShape::Rectangle { cols, rows } => {
                for j in cols.lo..=cols.hi {
                    for &i in factor.col(j).iter().filter(|&&i| rows.contains(i)) {
                        claim(i, j, u.id);
                    }
                }
            }
        }
    }
    assert!(owner.iter().all(|&u| u != u32::MAX), "unowned entry");
    owner
}

/// The per-update work tally: one `entry_id` binary search per update
/// pair and per scaling, `Θ(Σ_k c_k² · log c)`.
fn oracle_work(factor: &SymbolicFactor, owner: &[u32], units: usize) -> Vec<usize> {
    let mut work = vec![0usize; units];
    ops::for_each_update(factor, |op| {
        let t = owner[factor.entry_id(op.i, op.j).unwrap()];
        work[t as usize] += 2;
    });
    ops::for_each_scaling(factor, |i, j| {
        let t = owner[factor.entry_id(i, j).unwrap()];
        work[t as usize] += 1;
    });
    work
}

fn assert_matches_oracle(factor: &SymbolicFactor, part: &Partition, what: &str) {
    let owner = oracle_owner(factor, part);
    assert_eq!(part.ownership(factor), owner, "{what}: owner map");
    let mut elements = vec![0usize; part.num_units()];
    for &u in &owner {
        elements[u as usize] += 1;
    }
    let work = oracle_work(factor, &owner, part.num_units());
    for u in &part.units {
        assert_eq!(u.elements, elements[u.id], "{what}: unit {} elements", u.id);
        assert_eq!(u.work, work[u.id], "{what}: unit {} work", u.id);
    }
    assert_eq!(part.total_work(), factor.paper_work(), "{what}: total");
}

#[test]
fn partition_matches_oracle_on_all_paper_matrices() {
    for m in spfactor::matrix::gen::paper::all() {
        let f = factor_of(&m.pattern);
        for grain in [1usize, 4, 25] {
            for width in [1usize, 2, 4, 8] {
                for relax in [0usize, 2] {
                    let mut params = PartitionParams::with_grain(grain);
                    params.min_cluster_width = width;
                    params.relax_zeros = relax;
                    let part = Partition::build(&f, &params);
                    let what = format!("{} g={grain} w={width} z={relax}", m.name);
                    assert_matches_oracle(&f, &part, &what);
                }
            }
        }
    }
}

#[test]
fn column_partition_matches_oracle_on_all_paper_matrices() {
    for m in spfactor::matrix::gen::paper::all() {
        let f = factor_of(&m.pattern);
        let part = Partition::columns(&f);
        assert_matches_oracle(&f, &part, &format!("{} columns", m.name));
    }
}

/// The complexity guard, in counts: the tally splits at most one scaling
/// run per column and one update tail per stored entry, however many
/// update pairs those tails stand for.
#[test]
fn work_tally_walks_tails_not_update_pairs() {
    let f = factor_of(&spfactor::matrix::gen::lap9(40, 40));
    let rec = Arc::new(Recorder::new());
    let part = {
        let _scope = scope(&rec);
        Partition::build(&f, &PartitionParams::with_grain(25))
    };
    assert_matches_oracle(&f, &part, "lap9 40x40 g=25");
    let pairs = rec.counter("partition.work.pairs");
    let segments = rec.counter("partition.work.segments");
    let mut updates = 0u64;
    ops::for_each_update(&f, |_| updates += 1);
    assert!(
        pairs > 0 && segments >= pairs,
        "{pairs} pairs, {segments} segments"
    );
    assert!(
        pairs <= f.num_entries() as u64,
        "{pairs} tails for {} entries",
        f.num_entries()
    );
    assert!(
        updates >= 10 * f.num_entries() as u64,
        "guard is vacuous: {updates} updates, {} entries",
        f.num_entries()
    );
}

fn arb_factor() -> impl Strategy<Value = SymbolicFactor> {
    (5usize..100, 2.0f64..8.0, any::<u64>()).prop_map(|(n, deg, seed)| {
        let r = (deg / (std::f64::consts::PI * n as f64)).sqrt();
        factor_of(&spfactor::matrix::gen::random_geometric(n, r, seed))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn prop_partition_matches_oracle(
        f in arb_factor(),
        grain in 1usize..30,
        width in 1usize..8,
        relax in 0usize..3,
    ) {
        let mut params = PartitionParams::with_grain(grain);
        params.min_cluster_width = width;
        params.relax_zeros = relax;
        assert_matches_oracle(&f, &Partition::build(&f, &params), "random geometric");
        assert_matches_oracle(&f, &Partition::columns(&f), "random geometric columns");
    }
}
