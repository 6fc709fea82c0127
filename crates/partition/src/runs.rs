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
//! simulator's block engine both walk these runs ([`source_runs`]): a
//! column's ownership segmentation is derived when the walk reaches it
//! (`Partition::ownership_of`), into scratch the walk reuses, and no
//! table of every column or every run is built.
//!
//! [`build_dependencies`]: crate::build_dependencies

use crate::units::{advance, split_at, Partition, TaggedRun};
use spfactor_interval::Interval;
use spfactor_symbolic::{fundamental_supernode_at, SymbolicFactor};
use std::ops::Range;

/// One source run: a maximal set of consecutive columns of one
/// fundamental supernode (they store the same rows below the last of
/// them) with one ownership segmentation, and how far right it sweeps by
/// itself.
#[derive(Clone, Debug)]
pub struct SourceRun<'a> {
    /// The run's columns.
    pub cols: Range<usize>,
    /// The ownership segmentation every column of the run has
    /// (`Partition::ownership_of`).
    pub segs: &'a [(Interval, u32)],
    /// The last column the run sweeps into: its cluster's last when the
    /// rows below the cluster are swept once for the whole supernode,
    /// else `usize::MAX` (no limit).
    pub last_col: usize,
    /// For the last run of such a supernode with rows below its cluster,
    /// how many runs the supernode has (they end with this one);
    /// otherwise 0.
    pub closes: usize,
}

/// A walk over the source runs of a partition in column order
/// ([`source_runs`]). It holds two columns' segmentations — the run's
/// and the next column's, derived to find where the run ends — and
/// nothing per column or per run walked.
pub struct SourceRuns<'a> {
    factor: &'a SymbolicFactor,
    partition: &'a Partition,
    /// The supernode being walked, and the first column of the next run.
    supernode: Range<usize>,
    next: usize,
    /// The cluster holding the last column whose segmentation was
    /// derived: the walk moves right, so it only moves right.
    cluster: usize,
    /// The supernode's runs so far, and the limit they sweep to.
    runs: usize,
    last_col: usize,
    /// The current run's segmentation, and the next column's once
    /// derived (`ahead`).
    segs: Vec<(Interval, u32)>,
    lookahead: Vec<(Interval, u32)>,
    ahead: bool,
}

impl SourceRuns<'_> {
    /// The next run, or `None` once every column is walked.
    pub fn next_run(&mut self) -> Option<SourceRun<'_>> {
        let (factor, partition) = (self.factor, self.partition);
        let start = self.next;
        if start >= factor.n() {
            return None;
        }
        let clusters = &partition.clusters;
        if start == self.supernode.end {
            let sn = fundamental_supernode_at(factor, start);
            let last = sn.end - 1;
            let cluster =
                self.cluster + clusters[self.cluster..].partition_point(|c| c.cols.hi < last);
            // When a supernode of several columns ends its cluster, the
            // rows below it are below the cluster and every run owns them
            // through the same trailing segments: swept once, by the last
            // run.
            let shared = sn.len() > 1 && clusters[cluster].cols.hi == last;
            self.last_col = if shared { last } else { usize::MAX };
            self.runs = 0;
            self.supernode = sn;
        }
        // Column `k`'s segmentation into `out`, its cluster found by
        // moving the cursor right.
        let mut derive = |k: usize, out: &mut Vec<(Interval, u32)>| {
            while clusters[self.cluster].cols.hi < k {
                self.cluster += 1;
            }
            out.clear();
            partition.ownership_in(self.cluster, k, out);
        };
        if self.ahead {
            std::mem::swap(&mut self.segs, &mut self.lookahead);
        } else {
            derive(start, &mut self.segs);
        }
        let sn_end = self.supernode.end;
        let mut end = start + 1;
        self.ahead = false;
        while end < sn_end {
            derive(end, &mut self.lookahead);
            if self.lookahead != self.segs {
                self.ahead = true;
                break;
            }
            end += 1;
        }
        self.next = end;
        self.runs += 1;
        let closes =
            end == sn_end && self.last_col != usize::MAX && factor.col_count(sn_end - 1) > 0;
        Some(SourceRun {
            cols: start..end,
            segs: &self.segs,
            last_col: self.last_col,
            closes: if closes { self.runs } else { 0 },
        })
    }
}

/// The source runs of `partition`, walked in column order; together they
/// cover every column.
pub fn source_runs<'a>(factor: &'a SymbolicFactor, partition: &'a Partition) -> SourceRuns<'a> {
    SourceRuns {
        factor,
        partition,
        supernode: 0..0,
        next: 0,
        cluster: 0,
        runs: 0,
        last_col: usize::MAX,
        segs: Vec::new(),
        lookahead: Vec::new(),
        ahead: false,
    }
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
    use spfactor_symbolic::fundamental_supernodes;

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
            let mut walk = source_runs(&f, &part);
            let mut next = 0;
            let mut in_supernode = 0;
            for sn in fundamental_supernodes(&f) {
                while next < sn.end {
                    let run = walk.next_run().expect("a run per column stretch");
                    assert_eq!(run.cols.start, next);
                    assert!(run.cols.end <= sn.end, "a run crosses a supernode");
                    next = run.cols.end;
                    in_supernode += 1;
                    for k in run.cols.clone() {
                        assert_eq!(segs.col(k), run.segs);
                    }
                    // Runs are maximal: the next column is owned otherwise.
                    if next < sn.end {
                        assert_ne!(segs.col(next), run.segs);
                    }
                    if run.closes > 0 {
                        assert_eq!(next, sn.end);
                        assert_eq!(run.closes, in_supernode);
                        assert_eq!(run.last_col, sn.end - 1);
                    }
                }
                in_supernode = 0;
            }
            assert!(walk.next_run().is_none());
            assert_eq!(next, f.n());
        }
    }
}
