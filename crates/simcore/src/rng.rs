//! Deterministic, splittable random number generation.
//!
//! The suite never calls the OS entropy source: every experiment takes
//! a single `u64` seed and derives per-component generators with
//! [`SimRng::split`], so adding a component to one part of a
//! simulation does not perturb the random streams of another.
//!
//! The generator is **xoshiro256++**, seeded through SplitMix64, both
//! implemented here so the suite has no behavioural dependency on an
//! external crate's stream stability.

use std::fmt;

/// A deterministic pseudo-random generator (xoshiro256++).
///
/// ```
/// use gridvm_simcore::rng::SimRng;
/// let mut a = SimRng::seed_from(42);
/// let mut b = SimRng::seed_from(42);
/// assert_eq!(a.next_u64(), b.next_u64()); // same seed, same stream
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SimRng {
    s: [u64; 4],
}

impl fmt::Debug for SimRng {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimRng").field("state", &self.s).finish()
    }
}

/// Multiplier of [`SimRng::split`]'s label fold. The fold has FNV-1a's
/// shape (offset basis, xor, multiply) but not its prime: FNV's 64-bit
/// prime is `0x100_0000_01b3` (the one `fault::Fnv` uses), and this
/// value has one zero more. It is odd, so each step stays a bijection
/// of the hash state, and SplitMix64 mixes the result afterwards. It
/// stays as it is because every label-derived seed, and with them
/// every pinned digest and golden, depends on it.
const SPLIT_LABEL_MULTIPLIER: u64 = 0x1000_0000_01b3;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Creates a generator from a 64-bit seed.
    ///
    /// Any seed is valid; the internal state is expanded through
    /// SplitMix64 so even seed `0` yields a well-mixed stream.
    pub fn seed_from(seed: u64) -> Self {
        let mut sm = seed;
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// Derives an independent generator for a named subcomponent.
    ///
    /// The derived stream is a deterministic function of this
    /// generator's *seed lineage* and `label`, and drawing from the
    /// child does not advance the parent.
    pub fn split(&self, label: &str) -> SimRng {
        // FNV-1a's offset basis, folded with `SPLIT_LABEL_MULTIPLIER`.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(SPLIT_LABEL_MULTIPLIER);
        }
        // Mix the label hash with the current state without advancing it.
        let mut sm = h ^ self.s[0].rotate_left(17) ^ self.s[2];
        let s = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        SimRng { s }
    }

    /// The next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// A float uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high bits give a uniform double in [0,1).
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform integer in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn next_below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "next_below: zero bound");
        // Lemire-style rejection to avoid modulo bias. The rejection
        // threshold is `2^64 mod bound`, which is < bound — so a low
        // word at or above `bound` is accepted without ever computing
        // the threshold, keeping the 64-bit division off the common
        // path. The accepted draw sequence is identical to always
        // computing it.
        let r = self.next_u64();
        let wide = u128::from(r) * u128::from(bound);
        let (hi, lo) = ((wide >> 64) as u64, wide as u64);
        if lo >= bound {
            return hi;
        }
        let threshold = bound.wrapping_neg() % bound;
        if lo >= threshold {
            return hi;
        }
        loop {
            let r = self.next_u64();
            let (hi, lo) = {
                let wide = u128::from(r) * u128::from(bound);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi;
            }
        }
    }

    /// A uniform integer in the inclusive range `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn next_in(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "next_in: empty range {lo}..={hi}");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.next_below(hi - lo + 1)
    }

    /// Bernoulli draw: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics unless `p` is in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "chance: p={p} out of [0,1]");
        self.next_f64() < p
    }

    /// An exponential variate with the given mean.
    ///
    /// # Panics
    ///
    /// Panics unless `mean` is strictly positive.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential: non-positive mean {mean}");
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        -mean * u.ln()
    }

    /// A standard normal variate (Box–Muller, one value per call).
    pub fn standard_normal(&mut self) -> f64 {
        let u1 = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        let u2 = self.next_f64();
        (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
    }

    /// A normal variate with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `std_dev` is negative.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0, "normal: negative std dev {std_dev}");
        mean + std_dev * self.standard_normal()
    }

    /// A Pareto variate with scale `x_min > 0` and shape `alpha > 0`.
    ///
    /// Heavy-tailed; used for file sizes and load-burst durations.
    ///
    /// # Panics
    ///
    /// Panics on non-positive parameters.
    pub fn pareto(&mut self, x_min: f64, alpha: f64) -> f64 {
        assert!(x_min > 0.0 && alpha > 0.0, "pareto: bad parameters");
        let u = loop {
            let u = self.next_f64();
            if u > 0.0 {
                break u;
            }
        };
        x_min / u.powf(1.0 / alpha)
    }

    /// Fisher–Yates shuffle of a slice.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.next_below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }

    /// Picks a uniformly random element of a non-empty slice.
    ///
    /// # Panics
    ///
    /// Panics on an empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        assert!(!items.is_empty(), "pick: empty slice");
        &items[self.next_below(items.len() as u64) as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::seed_from(7);
        let mut b = SimRng::seed_from(7);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = SimRng::seed_from(1);
        let mut b = SimRng::seed_from(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 2, "streams should differ, {same} collisions");
    }

    #[test]
    fn split_is_deterministic_and_independent() {
        let root = SimRng::seed_from(99);
        let mut c1 = root.split("disk");
        let mut c2 = root.split("disk");
        assert_eq!(c1.next_u64(), c2.next_u64());
        let mut other = root.split("net");
        assert_ne!(c1.next_u64(), other.next_u64());
    }

    #[test]
    fn split_does_not_advance_parent() {
        let mut a = SimRng::seed_from(5);
        let mut b = SimRng::seed_from(5);
        let _ = b.split("child");
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_f64_in_unit_interval() {
        let mut r = SimRng::seed_from(3);
        for _ in 0..10_000 {
            let x = r.next_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn next_below_is_unbiased_enough() {
        let mut r = SimRng::seed_from(11);
        let mut counts = [0u32; 5];
        for _ in 0..50_000 {
            counts[r.next_below(5) as usize] += 1;
        }
        for c in counts {
            assert!((9_000..11_000).contains(&c), "bucket count {c}");
        }
    }

    #[test]
    fn next_in_full_range_and_point() {
        let mut r = SimRng::seed_from(13);
        assert_eq!(r.next_in(42, 42), 42);
        let x = r.next_in(10, 20);
        assert!((10..=20).contains(&x));
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = SimRng::seed_from(17);
        let n = 20_000;
        let sum: f64 = (0..n).map(|_| r.exponential(3.0)).sum();
        let mean = sum / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
    }

    #[test]
    fn normal_moments_converge() {
        let mut r = SimRng::seed_from(19);
        let n = 40_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal(5.0, 2.0)).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 5.0).abs() < 0.05, "mean {mean}");
        assert!((var - 4.0).abs() < 0.2, "var {var}");
    }

    #[test]
    fn pareto_respects_scale() {
        let mut r = SimRng::seed_from(23);
        for _ in 0..1_000 {
            assert!(r.pareto(2.0, 1.5) >= 2.0);
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut r = SimRng::seed_from(37);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(
            v, sorted,
            "shuffle left input in order (astronomically unlikely)"
        );
    }

    #[test]
    fn chance_extremes() {
        let mut r = SimRng::seed_from(41);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }
}
