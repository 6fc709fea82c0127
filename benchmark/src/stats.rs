//! Sample statistics, the seeded generator behind every input, and the
//! time-budgeted sampling loop every measured block uses.

use std::time::{Duration, Instant};

/// SplitMix64: the benchmark's own generator, so the inputs drawn from
/// `--seed` do not change when a crate under test changes its `rand`.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// A request cycle of `len` indices in `0..n` in which index `r` appears
/// in proportion to `1 / (r + 1)^s` (largest remainders, every index at
/// least once), each index's turns spread evenly over the cycle (smooth
/// weighted round-robin). The order is the same for every seed, because
/// which requests miss a small cache depends on it: a seeded order made
/// the work of a pass differ by a factor of two between seeds. `start`
/// rotates the cycle.
pub fn zipf_cycle(n: usize, len: usize, s: f64, start: usize) -> Vec<usize> {
    let weights: Vec<f64> = (0..n).map(|r| 1.0 / ((r + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let exact: Vec<f64> = weights.iter().map(|w| len as f64 * w / total).collect();
    let mut counts: Vec<i64> = exact.iter().map(|e| (e.floor() as i64).max(1)).collect();
    let spare = len as i64 - counts.iter().sum::<i64>();
    assert!(spare >= 0, "the cycle is too short to name every index");
    let mut by_remainder: Vec<usize> = (0..n).collect();
    by_remainder.sort_by(|&a, &b| {
        exact[b]
            .fract()
            .total_cmp(&exact[a].fract())
            .then(a.cmp(&b))
    });
    for &r in by_remainder.iter().cycle().take(spare as usize) {
        counts[r] += 1;
    }
    let mut credit = vec![0i64; n];
    let mut cycle: Vec<usize> = (0..len)
        .map(|_| {
            for (c, w) in credit.iter_mut().zip(&counts) {
                *c += w;
            }
            let pick = (0..n).rev().max_by_key(|&r| credit[r]).expect("n > 0");
            credit[pick] -= len as i64;
            pick
        })
        .collect();
    cycle.rotate_left(start % len);
    cycle
}

/// Timings of one measured block, in milliseconds.
#[derive(Clone, Debug, Default)]
pub struct Samples(pub Vec<f64>);

impl Samples {
    fn sorted(&self) -> Vec<f64> {
        let mut v = self.0.clone();
        v.sort_by(f64::total_cmp);
        v
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Nearest-rank percentile, `q` in `(0, 1]`.
    pub fn percentile(&self, q: f64) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "percentile of an empty block");
        let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
        v[rank - 1]
    }

    /// Median, the mean of the two middle samples for an even count.
    pub fn median(&self) -> f64 {
        let v = self.sorted();
        assert!(!v.is_empty(), "median of an empty block");
        let mid = v.len() / 2;
        if v.len() % 2 == 1 {
            v[mid]
        } else {
            (v[mid - 1] + v[mid]) / 2.0
        }
    }

    /// The fastest sample: what a time is reported as when every sample
    /// repeats the same work. The box the baseline was taken on drifts,
    /// for seconds to minutes at a time, between a quiet state and ones
    /// in which the same kernel takes up to 1.7 times as long.
    /// Interference only ever adds time, so the fastest of many short
    /// repetitions is what the code costs, and it repeats between runs
    /// where the median does not (`README.md` has the measured spreads).
    pub fn fastest(&self) -> f64 {
        self.0.iter().copied().fold(f64::INFINITY, f64::min)
    }

    pub fn mean(&self) -> f64 {
        self.0.iter().sum::<f64>() / self.0.len() as f64
    }

    /// `median [q1, q3] n=..` for the human-readable listing.
    pub fn describe(&self) -> String {
        format!(
            "{:.3} [{:.3}, {:.3}] n={}",
            self.median(),
            self.percentile(0.25),
            self.percentile(0.75),
            self.len()
        )
    }
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Runs `f` back to back for `budget` and returns what each call
/// returned, without the first: that call is the untimed warm-up. A
/// call that alone outlasts the budget is the only sample, measured
/// cold. One block measures one operation, so a kernel is never timed
/// right after a different one evicted its working set.
pub fn sample_for<T>(budget: Duration, mut f: impl FnMut() -> T) -> Vec<T> {
    let started = Instant::now();
    let first = f();
    if started.elapsed() >= budget {
        return vec![first];
    }
    let started = Instant::now();
    let mut out = vec![f()];
    while started.elapsed() < budget {
        out.push(f());
    }
    out
}
