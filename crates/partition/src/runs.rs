//! Source runs: the columns the geometry engines handle as one.
//!
//! A source run is a maximal set of consecutive columns `ka..=kb` of one
//! fundamental supernode with one ownership segmentation (one diagonal
//! chunk of a strip that also shares a column chunk in every
//! below-rectangle; a single-column cluster is a run of its own). Its
//! columns store the same rows `S` below `kb` (`struct(L_{k+1}) =
//! struct(L_k) \ {k+1}`), owned alike, so everything they do to the
//! columns right of the run is one computation taken `kb − ka + 1` times.
//!
//! One level up, when a supernode of several columns ends its cluster,
//! its runs share the rows `B` below the cluster: each run sweeps only up
//! to the cluster's last column, and the clique of `B` is swept once for
//! the supernode. The deps sweep ([`build_dependencies`]) and the
//! simulator's block engine both walk these runs.
//!
//! [`build_dependencies`]: crate::build_dependencies

use crate::units::{advance, split_at, Partition, Segmentation, TaggedRun};
use spfactor_interval::Interval;
use spfactor_symbolic::{fundamental_supernodes, SymbolicFactor};
use std::ops::Range;

/// A maximal set of consecutive columns of one fundamental supernode
/// (they store the same rows below the last of them) with one ownership
/// segmentation, and how far right it sweeps by itself.
#[derive(Clone, Debug)]
pub struct SourceRun {
    /// The run's columns.
    pub cols: Range<usize>,
    /// The last column the run sweeps into: its cluster's last when the
    /// rows below the cluster are swept once for the whole supernode,
    /// else `usize::MAX` (no limit).
    pub last_col: usize,
    /// For the last run of such a supernode with rows below its cluster,
    /// how many runs the supernode has (they end with this one);
    /// otherwise 0.
    pub closes: usize,
}

/// The source runs of `partition`, ascending; `segs` is its
/// [`segmentation`](Partition::segmentation). They cover every column.
pub fn source_runs(
    factor: &SymbolicFactor,
    partition: &Partition,
    segs: &Segmentation,
) -> Vec<SourceRun> {
    // When a supernode of several columns ends its cluster, the rows
    // below it are below the cluster and every run owns them through the
    // same trailing segments: swept once, by the last run.
    let mut runs = Vec::new();
    let mut cluster = 0;
    for sn in fundamental_supernodes(factor) {
        let last = sn.end - 1;
        cluster += partition.clusters[cluster..].partition_point(|c| c.cols.hi < last);
        let shared = sn.len() > 1 && partition.clusters[cluster].cols.hi == last;
        let first_run = runs.len();
        let mut k = sn.start;
        while k < sn.end {
            let end = (k + 1..sn.end)
                .find(|&c| segs.col(c) != segs.col(k))
                .unwrap_or(sn.end);
            runs.push(SourceRun {
                cols: k..end,
                last_col: if shared { last } else { usize::MAX },
                closes: 0,
            });
            k = end;
        }
        if shared && factor.col_count(last) > 0 {
            let count = runs.len() - first_run;
            runs[first_run + count - 1].closes = count;
        }
    }
    runs
}

/// Cuts the ascending `rows` into maximal pieces of consecutive rows
/// inside one segment of `segs` (which must cover them), each labelled
/// with the segment's index.
pub fn label_rows(rows: &[usize], segs: &[(Interval, u32)], pieces: &mut Vec<TaggedRun>) {
    pieces.clear();
    let mut si = 0;
    let mut idx = 0;
    while idx < rows.len() {
        si = advance(segs, si, rows[idx]);
        let end = split_at(rows, idx, rows.len(), segs[si].0.hi);
        while idx < end {
            // Dense blocks make the whole stretch one piece; otherwise
            // find the gap.
            let mut last = end - 1;
            if rows[last] - rows[idx] != last - idx {
                last = idx;
                while rows[last + 1] == rows[last] + 1 {
                    last += 1;
                }
            }
            let piece = Interval {
                lo: rows[idx],
                hi: rows[last],
            };
            pieces.push((piece, si as u32));
            idx = last + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PartitionParams;
    use spfactor_matrix::{gen, SymmetricPattern};
    use spfactor_order::{order, Ordering};

    fn factor_of(p: &SymmetricPattern) -> SymbolicFactor {
        let perm = order(p, Ordering::paper_default());
        SymbolicFactor::from_pattern(&p.permute(&perm))
    }

    #[test]
    fn runs_tile_the_columns_with_one_segmentation_each() {
        let f = factor_of(&gen::lap9(12, 12));
        for part in [
            Partition::build(&f, &PartitionParams::with_grain(4)),
            Partition::build(&f, &PartitionParams::with_grain(25)),
            Partition::columns(&f),
        ] {
            let segs = part.segmentation();
            let runs = source_runs(&f, &part, &segs);
            let mut next = 0;
            for (idx, run) in runs.iter().enumerate() {
                assert_eq!(run.cols.start, next);
                next = run.cols.end;
                for k in run.cols.clone() {
                    assert_eq!(segs.col(k), segs.col(run.cols.start));
                }
                if run.closes > 0 {
                    let group = &runs[idx + 1 - run.closes..=idx];
                    assert!(group.iter().all(|r| r.last_col == run.cols.end - 1));
                }
            }
            assert_eq!(next, f.n());
        }
    }
}
