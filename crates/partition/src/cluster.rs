//! Cluster identification (§3.1).
//!
//! Clusters are detected as (relaxed) supernodes of the symbolic factor —
//! maximal column strips whose filled structure is a dense diagonal
//! triangle plus dense off-diagonal rectangles. A strip narrower than the
//! *minimum cluster width* is "not acceptable as a cluster — it is broken
//! up into individual columns" (§4, Table 4 discussion).

use crate::block::{Cluster, ClusterKind};
use crate::PartitionParams;
use spfactor_interval::{runs_of_sorted, Interval};
use spfactor_symbolic::supernode::{below_rows, relaxed_supernodes};
use spfactor_symbolic::SymbolicFactor;

/// Identifies the clusters of `factor` under `params`
/// (`min_cluster_width`, `relax_zeros`). Clusters are returned left to
/// right and partition the columns exactly.
pub fn identify_clusters(factor: &SymbolicFactor, params: &PartitionParams) -> Vec<Cluster> {
    let sns = relaxed_supernodes(factor, params.relax_zeros);
    let mut out = Vec::new();
    for sn in sns {
        let width = sn.end - sn.start;
        if width == 1 || width < params.min_cluster_width {
            // Break the strip into single-column clusters.
            for col in sn.clone() {
                out.push(Cluster {
                    id: out.len(),
                    cols: Interval::point(col),
                    kind: ClusterKind::SingleColumn,
                });
            }
        } else {
            let rows = below_rows(factor, &sn);
            out.push(Cluster {
                id: out.len(),
                cols: Interval::new(sn.start, sn.end - 1),
                kind: ClusterKind::Strip {
                    rect_rows: runs_of_sorted(&rows),
                },
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};

    fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
        let perm = order(p, Ordering::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    }

    fn check_clusters_partition_columns(clusters: &[Cluster], n: usize) {
        let mut next = 0usize;
        for c in clusters {
            assert_eq!(c.cols.lo, next, "clusters must tile the columns");
            next = c.cols.hi + 1;
        }
        assert_eq!(next, n);
    }

    #[test]
    fn clusters_tile_all_columns() {
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        for width in [1, 2, 4, 8] {
            let mut params = PartitionParams::with_grain(4);
            params.min_cluster_width = width;
            let cs = identify_clusters(&f, &params);
            check_clusters_partition_columns(&cs, 100);
        }
    }

    #[test]
    fn min_width_splits_narrow_strips() {
        let p = gen::lap9(10, 10);
        let f = factor_of(&p);
        let mut small = PartitionParams::with_grain(4);
        small.min_cluster_width = 2;
        let mut large = PartitionParams::with_grain(4);
        large.min_cluster_width = 6;
        let cs_small = identify_clusters(&f, &small);
        let cs_large = identify_clusters(&f, &large);
        // A larger minimum width can only convert strips to singles, so
        // the count of multi-column clusters must not increase.
        let strips = |cs: &[Cluster]| cs.iter().filter(|c| !c.is_single()).count();
        assert!(strips(&cs_large) <= strips(&cs_small));
        // And every remaining strip respects the width.
        for c in &cs_large {
            if !c.is_single() {
                assert!(c.width() >= 6);
            }
        }
    }

    #[test]
    fn dense_tail_cluster_has_no_rectangles() {
        // The last supernode of any factor touches the matrix end; its
        // below-row set is empty, so a strip cluster there has no rects —
        // "this cluster has one dense triangle and no rectangles below it"
        // (paper on its Figure 2 example).
        let p = gen::lap9(8, 8);
        let f = factor_of(&p);
        let params = PartitionParams::with_grain(4);
        let cs = identify_clusters(&f, &params);
        let last = cs.last().unwrap();
        if let ClusterKind::Strip { rect_rows } = &last.kind {
            assert!(rect_rows.is_empty());
        } else {
            panic!("dense tail of an MMD-ordered grid factor should be a strip");
        }
    }

    #[test]
    fn rect_rows_are_disjoint_sorted_and_below_strip() {
        let p = gen::lap9(12, 12);
        let f = factor_of(&p);
        let cs = identify_clusters(&f, &PartitionParams::with_grain(4));
        for c in &cs {
            if let ClusterKind::Strip { rect_rows } = &c.kind {
                for w in rect_rows.windows(2) {
                    assert!(w[0].hi + 1 < w[1].lo, "runs must be maximal and disjoint");
                }
                for r in rect_rows {
                    assert!(r.lo > c.cols.hi, "rectangles lie below the triangle");
                }
            }
        }
    }

    #[test]
    fn rect_rows_cover_exactly_the_below_structure() {
        let p = gen::lap9(9, 9);
        let f = factor_of(&p);
        let cs = identify_clusters(&f, &PartitionParams::with_grain(4));
        for c in &cs {
            if let ClusterKind::Strip { rect_rows } = &c.kind {
                let covered: std::collections::BTreeSet<usize> =
                    rect_rows.iter().flat_map(|iv| iv.lo..=iv.hi).collect();
                let mut expected = std::collections::BTreeSet::new();
                for j in c.cols.lo..=c.cols.hi {
                    expected.extend(f.col(j).iter().copied().filter(|&i| i > c.cols.hi));
                }
                assert_eq!(covered, expected, "cluster {}", c.id);
            }
        }
    }

    #[test]
    fn width_one_supernodes_are_single_columns() {
        // A path graph: every fundamental supernode is narrow, so all
        // clusters are single columns at width >= 2.
        let p = SymmetricPattern::from_edges(6, (1..6).map(|i| (i, i - 1)));
        let f = SymbolicFactor::from_pattern(&p);
        let cs = identify_clusters(&f, &PartitionParams::with_grain(4));
        assert!(cs.iter().all(|c| c.is_single()));
        check_clusters_partition_columns(&cs, 6);
    }

    #[test]
    fn fig2_example_has_multi_column_clusters() {
        // The paper's Figure 2 discussion: the 41x41 5-point FE matrix
        // under MMD has several multi-column clusters, including a dense
        // tail. With min width 2 we must find strips.
        let m = gen::paper::fig2_grid();
        let f = factor_of(&m.pattern);
        let mut params = PartitionParams::with_grain(4);
        params.min_cluster_width = 2;
        let cs = identify_clusters(&f, &params);
        assert!(
            cs.iter().any(|c| !c.is_single()),
            "expected strips in the Fig 2 example, got {cs:?}"
        );
        // The last cluster is the dense tail.
        let last = cs.last().unwrap();
        assert!(last.width() >= 2, "dense tail should be a strip");
    }
}
