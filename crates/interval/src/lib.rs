//! Intervals: the extent vocabulary of the partitioner.
//!
//! Blocks are described by row and column *extents* — closed integer
//! intervals — and every one of the paper's ten dependency categories
//! (§3.3) reduces to extent-intersection tests. This crate provides:
//!
//! * [`Interval`] — a closed integer interval with its intersection;
//! * [`runs_of_sorted`] — the maximal runs of an ascending index list,
//!   e.g. the rows below a supernode as row extents.

/// A closed integer interval `[lo, hi]` (`lo <= hi`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    /// Inclusive lower end.
    pub lo: usize,
    /// Inclusive upper end.
    pub hi: usize,
}

impl Interval {
    /// Creates `[lo, hi]`; panics if `lo > hi`.
    #[inline]
    pub fn new(lo: usize, hi: usize) -> Self {
        assert!(lo <= hi, "interval [{lo}, {hi}] is empty");
        Interval { lo, hi }
    }

    /// The single-point interval `[p, p]`.
    #[inline]
    pub fn point(p: usize) -> Self {
        Interval { lo: p, hi: p }
    }

    /// Number of integers covered.
    #[inline]
    pub fn len(&self) -> usize {
        self.hi - self.lo + 1
    }

    /// Closed intervals are never empty; kept for API symmetry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// `true` if `p` lies inside.
    #[inline]
    pub fn contains(&self, p: usize) -> bool {
        self.lo <= p && p <= self.hi
    }

    /// The intersection, if non-empty.
    #[inline]
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

/// The maximal runs of consecutive integers in `points`, which must be
/// strictly ascending — e.g. the row indices of a factor column.
pub fn runs_of_sorted(points: &[usize]) -> Vec<Interval> {
    debug_assert!(points.windows(2).all(|w| w[0] < w[1]), "points not sorted");
    let mut runs: Vec<Interval> = Vec::new();
    for &p in points {
        match runs.last_mut() {
            Some(run) if run.hi + 1 == p => run.hi = p,
            _ => runs.push(Interval::point(p)),
        }
    }
    // Callers keep the runs (a cluster's row extents live as long as its
    // partition): hand back no spare capacity.
    runs.shrink_to_fit();
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_predicates() {
        let a = Interval::new(2, 5);
        assert_eq!(a.len(), 4);
        assert!(a.contains(2) && a.contains(5) && !a.contains(6));
    }

    #[test]
    fn intersection_values() {
        let a = Interval::new(2, 8);
        assert_eq!(
            a.intersection(&Interval::new(5, 12)),
            Some(Interval::new(5, 8))
        );
        assert_eq!(a.intersection(&Interval::new(9, 12)), None);
        assert_eq!(a.intersection(&a), Some(a));
    }

    #[test]
    fn runs_of_sorted_coalesces_runs() {
        assert_eq!(
            runs_of_sorted(&[1, 2, 3, 7, 9, 10]),
            [
                Interval::new(1, 3),
                Interval::new(7, 7),
                Interval::new(9, 10)
            ]
        );
        assert_eq!(runs_of_sorted(&[]), []);
    }

    #[test]
    fn point_interval() {
        let p = Interval::point(7);
        assert_eq!(p.len(), 1);
        assert!(p.contains(7));
        assert!(!p.contains(6));
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn reversed_bounds_panic() {
        Interval::new(5, 4);
    }
}
