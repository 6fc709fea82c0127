//! Permutations of matrix rows/columns.
//!
//! A [`Permutation`] represents a symmetric reordering `P A Pᵀ` of a matrix.
//! Throughout the workspace the convention is:
//!
//! * `perm[new] = old` — the node eliminated at position `new` of the new
//!   ordering is node `old` of the original matrix;
//! * `inv[old] = new` — where an original node ended up.
//!
//! This matches the usual sparse-direct-solver convention (George & Liu).

use crate::MatrixError;

/// A permutation of `0..n` together with its inverse.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Permutation {
    perm: Vec<usize>,
    inv: Vec<usize>,
}

impl Permutation {
    /// The identity permutation on `0..n`.
    pub fn identity(n: usize) -> Self {
        let perm: Vec<usize> = (0..n).collect();
        Permutation {
            inv: perm.clone(),
            perm,
        }
    }

    /// Builds a permutation from `perm[new] = old`, validating that it is a
    /// bijection on `0..perm.len()`.
    pub fn from_vec(perm: Vec<usize>) -> Result<Self, MatrixError> {
        let n = perm.len();
        let mut inv = vec![usize::MAX; n];
        for (new, &old) in perm.iter().enumerate() {
            if old >= n {
                return Err(MatrixError::InvalidPermutation(format!(
                    "entry {old} out of range for n = {n}"
                )));
            }
            if inv[old] != usize::MAX {
                return Err(MatrixError::InvalidPermutation(format!(
                    "value {old} appears more than once"
                )));
            }
            inv[old] = new;
        }
        Ok(Permutation { perm, inv })
    }

    /// Number of elements permuted.
    pub fn len(&self) -> usize {
        self.perm.len()
    }

    /// `true` if the permutation is over an empty index set.
    pub fn is_empty(&self) -> bool {
        self.perm.is_empty()
    }

    /// `perm[new] = old`: the original index eliminated at `new`.
    #[inline]
    pub fn old_of(&self, new: usize) -> usize {
        self.perm[new]
    }

    /// `inv[old] = new`: the new position of original index `old`.
    #[inline]
    pub fn new_of(&self, old: usize) -> usize {
        self.inv[old]
    }

    /// The forward permutation vector (`perm[new] = old`).
    pub fn as_slice(&self) -> &[usize] {
        &self.perm
    }

    /// The inverse permutation vector (`inv[old] = new`).
    pub fn inverse_slice(&self) -> &[usize] {
        &self.inv
    }

    /// Returns the inverse permutation as its own [`Permutation`].
    pub fn inverted(&self) -> Self {
        Permutation {
            perm: self.inv.clone(),
            inv: self.perm.clone(),
        }
    }

    /// `true` if this is the identity permutation.
    pub fn is_identity(&self) -> bool {
        self.perm.iter().enumerate().all(|(i, &p)| i == p)
    }

    /// Applies the permutation to a dense vector: `out[new] = v[old]`.
    pub fn apply<T: Copy>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.len());
        self.perm.iter().map(|&old| v[old]).collect()
    }

    /// Applies the inverse permutation to a dense vector: `out[old] = v[new]`.
    pub fn apply_inverse<T: Copy>(&self, v: &[T]) -> Vec<T> {
        assert_eq!(v.len(), self.len());
        self.inv.iter().map(|&new| v[new]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identity_round_trip() {
        let p = Permutation::identity(5);
        assert!(p.is_identity());
        assert_eq!(p.len(), 5);
        for i in 0..5 {
            assert_eq!(p.old_of(i), i);
            assert_eq!(p.new_of(i), i);
        }
    }

    #[test]
    fn from_vec_rejects_out_of_range() {
        assert!(Permutation::from_vec(vec![0, 5, 1]).is_err());
    }

    #[test]
    fn from_vec_rejects_duplicates() {
        assert!(Permutation::from_vec(vec![0, 1, 1]).is_err());
    }

    #[test]
    fn inverse_is_consistent() {
        let p = Permutation::from_vec(vec![2, 0, 3, 1]).unwrap();
        for new in 0..4 {
            assert_eq!(p.new_of(p.old_of(new)), new);
        }
        for old in 0..4 {
            assert_eq!(p.old_of(p.new_of(old)), old);
        }
    }

    #[test]
    fn apply_moves_values() {
        let p = Permutation::from_vec(vec![2, 0, 1]).unwrap();
        let v = [10, 20, 30];
        // out[new] = v[old]; perm = [2,0,1] so out = [30, 10, 20].
        assert_eq!(p.apply(&v), vec![30, 10, 20]);
        assert_eq!(p.apply_inverse(&p.apply(&v)), v.to_vec());
    }

    #[test]
    fn compose_with_inverse_is_identity() {
        let p = Permutation::from_vec(vec![3, 1, 0, 2]).unwrap();
        let q = p.inverted();
        for i in 0..4 {
            assert_eq!(q.old_of(p.old_of(i)), i);
            assert_eq!(p.old_of(q.old_of(i)), i);
        }
    }

    #[test]
    fn empty_permutation() {
        let p = Permutation::identity(0);
        assert!(p.is_empty());
        assert!(p.is_identity());
    }

    proptest! {
        #[test]
        fn prop_shuffled_vec_is_valid(n in 1usize..200, seed in any::<u64>()) {
            use rand::{seq::SliceRandom, SeedableRng};
            let mut v: Vec<usize> = (0..n).collect();
            let mut rng = rand::rngs::SmallRng::seed_from_u64(seed);
            v.shuffle(&mut rng);
            let p = Permutation::from_vec(v).unwrap();
            // inverse really inverts
            for i in 0..n {
                prop_assert_eq!(p.new_of(p.old_of(i)), i);
            }
            // double inversion is identity
            prop_assert_eq!(p.inverted().inverted(), p.clone());
            // apply then apply_inverse round-trips
            let data: Vec<usize> = (0..n).map(|i| i * 7 + 1).collect();
            prop_assert_eq!(p.apply_inverse(&p.apply(&data)), data);
        }
    }
}
