//! FNV-1a, the workspace's one stable 64-bit hash.
//!
//! Structural hashes, symbolic and artifact fingerprints and the store's
//! spill-file names all fold their fields through [`Fnv1a`]: byte-wise
//! FNV-1a over each value's little-endian bytes, deterministic across
//! runs, processes and platforms.
//!
//! Folding a zero byte is `h ^ 0 = h` followed by one multiplication by
//! the prime, so the zero high bytes of a value collapse into a single
//! multiplication by a power of the prime (multiplication mod 2⁶⁴ is
//! associative). Most folded values are ids and offsets far below 2¹⁶,
//! which then cost two byte steps and one multiplication instead of eight
//! byte steps — and the hash is the byte-wise one, bit for bit.

const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const PRIME: u64 = 0x0000_0100_0000_01b3;

/// `PRIME^k` for `k = 0..=8`.
const PRIME_POW: [u64; 9] = {
    let mut pow = [1u64; 9];
    let mut k = 1;
    while k < 9 {
        pow[k] = pow[k - 1].wrapping_mul(PRIME);
        k += 1;
    }
    pow
};

/// Folds the low `BYTES` bytes of `x` into `h`, then the zero bytes
/// above them (`x` must have no higher byte set).
#[inline(always)]
fn fold<const BYTES: usize>(mut h: u64, x: u64) -> u64 {
    for b in 0..BYTES {
        h = (h ^ ((x >> (8 * b)) & 0xff)).wrapping_mul(PRIME);
    }
    h.wrapping_mul(PRIME_POW[8 - BYTES])
}

/// An FNV-1a hash state.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Self::new()
    }
}

impl Fnv1a {
    /// The empty hash (the FNV offset basis).
    pub const fn new() -> Self {
        Fnv1a(OFFSET)
    }

    /// Folds the eight little-endian bytes of `x`.
    #[inline]
    pub fn write_u64(&mut self, x: u64) {
        // Fold the bytes up to the bucket holding the highest set one;
        // the zero bytes above it are one multiplication.
        self.0 = if x < 1 << 16 {
            fold::<2>(self.0, x)
        } else if x < 1 << 32 {
            fold::<4>(self.0, x)
        } else {
            fold::<8>(self.0, x)
        };
    }

    /// Folds `bytes` one at a time.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(PRIME);
        }
    }

    /// The hash of everything folded so far.
    pub const fn finish(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The byte-wise fold every caller used before, kept as the oracle.
    fn reference(values: &[u64]) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for x in values {
            for byte in x.to_le_bytes() {
                h ^= byte as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    fn folded(values: &[u64]) -> u64 {
        let mut h = Fnv1a::new();
        for &x in values {
            h.write_u64(x);
        }
        h.finish()
    }

    #[test]
    fn matches_the_bytewise_fold_at_every_byte_boundary() {
        let mut values = vec![0, 1, u64::MAX];
        for k in 1..8 {
            let b = 1u64 << (8 * k);
            values.extend([b - 1, b, b + 1]);
        }
        for &x in &values {
            assert_eq!(folded(&[x]), reference(&[x]), "{x:#x}");
        }
        assert_eq!(folded(&values), reference(&values));
        assert_eq!(folded(&[]), reference(&[]));
    }

    #[test]
    fn matches_the_bytewise_fold_on_random_values() {
        // xorshift64*, spread over every magnitude.
        let mut s = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            s.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        let values: Vec<u64> = (0..4000).map(|_| next() >> (next() % 64)).collect();
        for chunk in values.chunks(7) {
            assert_eq!(folded(chunk), reference(chunk));
        }
        assert_eq!(folded(&values), reference(&values));
    }

    #[test]
    fn byte_strings_fold_bytewise() {
        for bytes in [&b""[..], b"a", b"block", b"Compressed", &[0u8, 0, 255, 1]] {
            let mut h = Fnv1a::new();
            h.write_bytes(bytes);
            let mut r = 0xcbf2_9ce4_8422_2325u64;
            for &b in bytes {
                r = (r ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
            }
            assert_eq!(h.finish(), r);
        }
        // A u64 folds exactly as its eight little-endian bytes.
        let mut a = Fnv1a::new();
        a.write_u64(0x0123_4567_89ab_cdef);
        let mut b = Fnv1a::new();
        b.write_bytes(&0x0123_4567_89ab_cdefu64.to_le_bytes());
        assert_eq!(a, b);
    }
}
