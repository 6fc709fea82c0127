//! Intervals and interval sets: the extent vocabulary of the partitioner.
//!
//! Blocks are described by row and column *extents* — closed integer
//! intervals — and every one of the paper's ten dependency categories
//! (§3.3) reduces to extent-intersection tests. This crate provides:
//!
//! * [`Interval`] — a closed integer interval with intersection tests;
//! * [`IntervalSet`] — a sorted set of disjoint intervals with union /
//!   intersection, used for row-coverage bookkeeping.

mod set;

pub use set::IntervalSet;

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

    /// `true` if the two intervals share at least one integer.
    #[inline]
    pub fn intersects(&self, other: &Interval) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }

    /// The intersection, if non-empty.
    #[inline]
    pub fn intersection(&self, other: &Interval) -> Option<Interval> {
        let lo = self.lo.max(other.lo);
        let hi = self.hi.min(other.hi);
        (lo <= hi).then_some(Interval { lo, hi })
    }

    /// `true` if `self` fully contains `other`.
    #[inline]
    pub fn contains_interval(&self, other: &Interval) -> bool {
        self.lo <= other.lo && other.hi <= self.hi
    }
}

impl std::fmt::Display for Interval {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_predicates() {
        let a = Interval::new(2, 5);
        assert_eq!(a.len(), 4);
        assert!(a.contains(2) && a.contains(5) && !a.contains(6));
        assert!(a.intersects(&Interval::new(5, 9)));
        assert!(a.intersects(&Interval::new(0, 2)));
        assert!(!a.intersects(&Interval::new(6, 9)));
        assert!(a.contains_interval(&Interval::new(3, 4)));
        assert!(!a.contains_interval(&Interval::new(3, 6)));
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
