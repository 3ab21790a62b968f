//! Fixed-bucket log-scale histograms for streaming, mergeable
//! distribution summaries.
//!
//! The name-keyed [`Metrics`](crate::metrics::Metrics) registry's
//! counters give *totals*; macro-scale experiments (the
//! `ext_vo_scale` virtual-organization run) need *tails* — p99
//! and p999 session slowdown over 10⁵–10⁶ sessions — without keeping
//! a sample per session. A [`Histogram`] is the standard answer:
//! HDR-style logarithmic buckets with a fixed sub-bucket resolution,
//! so memory is a constant ~11 KiB per named series regardless of how
//! many values are recorded, relative quantile error is bounded by
//! the sub-bucket width (~3% at 5 sub-bucket bits), and —
//! because every field is an integer — merging two histograms is an
//! element-wise `u64` add: exactly associative and commutative, hence
//! bit-identical however the sharded simulator packs sites into
//! shards and shards onto threads.
//!
//! ```
//! use gridvm_simcore::hist::Histogram;
//!
//! let mut h = Histogram::default();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! assert_eq!(h.count(), 1000);
//! assert_eq!(h.max(), 1000);
//! // Bounded relative error: p50 lands within one sub-bucket of 500.
//! let p50 = h.p50();
//! assert!((468..=532).contains(&p50), "p50 = {p50}");
//! ```

use std::fmt;

/// Sub-bucket resolution bits: 32 sub-buckets per power of two,
/// ≈3.1% worst-case relative quantile error.
const SUB_BITS: u32 = 5;

/// Top exponent: values up to `2^48 - 1` (≈3.2 simulated days in
/// nanoseconds) are representable.
pub const MAX_EXP: u32 = 48;

/// Bucket count: `2^SUB_BITS` exact buckets below `2^SUB_BITS`, then
/// `2^SUB_BITS` sub-buckets for each power of two up to `2^MAX_EXP`.
const BUCKETS: usize = ((MAX_EXP - SUB_BITS + 1) << SUB_BITS) as usize;

/// A streaming log-scale histogram over `u64` values.
///
/// Every histogram has the one layout: each power-of-two decade
/// splits into `2^5` equal-width sub-buckets, and values must be
/// below `2^`[`MAX_EXP`]. All state is integral, so merge is exactly
/// associative and commutative and merged results are bit-identical
/// for any grouping order — the property the sharded metrics roll-up
/// relies on.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    total: u128,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            total: 0,
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    /// Bucket index of a value. Values below `2^SUB_BITS` map exactly
    /// (one value per bucket); larger values map into the
    /// `2^SUB_BITS` equal-width sub-buckets of their power-of-two
    /// decade.
    fn index(v: u64) -> usize {
        let b = SUB_BITS;
        if v < (1 << b) {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        ((((msb - b + 1) << b) | ((v >> (msb - b)) as u32 - (1 << b))) as usize).min(BUCKETS - 1)
    }

    /// The largest value a bucket covers — the representative
    /// returned by quantile queries, so quantiles never understate.
    fn representative(index: usize) -> u64 {
        let b = SUB_BITS;
        let decade = (index as u32) >> b;
        if decade == 0 {
            return index as u64;
        }
        let offset = (index as u64) & ((1 << b) - 1);
        let msb = decade + b - 1;
        (1u64 << msb) + ((offset + 1) << (msb - b)) - 1
    }

    /// Records one value.
    ///
    /// # Panics
    ///
    /// Panics when `v >= 2^MAX_EXP` — a value above the top bucket
    /// means the quantity was mis-scaled for the layout, and silently
    /// clamping it would corrupt the tail quantiles the histogram
    /// exists to report.
    pub fn record(&mut self, v: u64) {
        assert!(
            v < (1u64 << MAX_EXP),
            "histogram value {v} above top bucket (max_exp={MAX_EXP}); \
             scale the quantity instead of clamping the tail"
        );
        self.buckets[Self::index(v)] += 1;
        self.count += 1;
        self.total += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn min(&self) -> u64 {
        assert!(self.count > 0, "min of empty Histogram");
        self.min
    }

    /// Exact maximum recorded value.
    ///
    /// # Panics
    ///
    /// Panics when empty.
    pub fn max(&self) -> u64 {
        assert!(self.count > 0, "max of empty Histogram");
        self.max
    }

    /// Mean of recorded values (exact: integers are summed in a
    /// `u128` and divided once, so the mean does not drift with
    /// record or merge order).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        (self.total as f64) / (self.count as f64)
    }

    /// The value at quantile `q` (in `[0, 1]`): the representative of
    /// the bucket holding the `ceil(q · count)`-th smallest recorded
    /// value, clamped to the exact observed `[min, max]`. Monotone in
    /// `q`; relative error is bounded by one sub-bucket width.
    ///
    /// # Panics
    ///
    /// Panics when empty or when `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> u64 {
        assert!(self.count > 0, "quantile of empty Histogram");
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= target {
                return Self::representative(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Median ([`quantile`](Self::quantile) at 0.5).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// 99.9th percentile.
    pub fn p999(&self) -> u64 {
        self.quantile(0.999)
    }

    /// Folds another histogram into this one: element-wise bucket
    /// add, count/total add, min/max fold. Pure integer arithmetic,
    /// so the result is bit-identical for any merge grouping or order
    /// — the property that lets a sharded run record each site into
    /// whichever thread runs it and merge the threads in any order,
    /// and that the shard/thread invariance tests pin.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.total += other.total;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.count == 0 {
            return write!(f, "n=0");
        }
        write!(
            f,
            "n={} min={} p50={} p99={} p999={} max={}",
            self.count,
            self.min,
            self.p50(),
            self.p99(),
            self.p999(),
            self.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_are_exact() {
        let mut h = Histogram::default();
        for v in 0..32u64 {
            h.record(v);
        }
        // The linear region holds one value per bucket.
        for q in [0.1, 0.5, 0.9] {
            let got = h.quantile(q);
            let want = ((q * 32.0).ceil() as u64).max(1) - 1;
            assert_eq!(got, want, "q={q}");
        }
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 31);
    }

    #[test]
    fn relative_error_is_bounded() {
        let mut h = Histogram::default();
        h.record(1_000_000);
        let q = h.quantile(0.5);
        // Representative is the bucket upper bound clamped to max.
        assert_eq!(q, 1_000_000);
        let mut h = Histogram::default();
        h.record(1_000_000);
        h.record(1_000_001);
        let q = h.p50();
        assert!(q >= 1_000_000 && q as f64 <= 1_000_001.0 * 1.033, "q={q}");
    }

    #[test]
    fn quantiles_are_monotone() {
        let mut h = Histogram::default();
        let mut x = 1u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x >> 20);
        }
        let mut prev = 0;
        for i in 0..=100 {
            let q = h.quantile(i as f64 / 100.0);
            assert!(q >= prev, "quantile({i}%) = {q} < {prev}");
            prev = q;
        }
        assert_eq!(h.quantile(1.0), h.max());
    }

    #[test]
    fn merge_equals_single_stream() {
        let mut all = Histogram::default();
        let mut parts = [Histogram::default(), Histogram::default()];
        for v in 1..2000u64 {
            all.record(v * 37);
            parts[(v % 2) as usize].record(v * 37);
        }
        let mut merged = Histogram::default();
        merged.merge(&parts[0]);
        merged.merge(&parts[1]);
        assert_eq!(merged, all);
    }

    #[test]
    fn display_summarizes() {
        let mut h = Histogram::default();
        assert_eq!(h.to_string(), "n=0");
        h.record(10);
        h.record(1000);
        let s = h.to_string();
        assert!(s.contains("n=2") && s.contains("min=10"), "{s}");
    }

    #[test]
    #[should_panic(expected = "above top bucket")]
    fn value_above_top_bucket_panics() {
        // Values past the top bucket would alias into the clamped
        // last bucket and quietly corrupt the tail quantiles;
        // recording one is a caller bug and must panic loudly.
        let mut h = Histogram::default();
        h.record(1 << MAX_EXP);
    }

    #[test]
    #[should_panic(expected = "quantile of empty")]
    fn empty_quantile_panics() {
        Histogram::default().quantile(0.5);
    }

    #[test]
    fn boundary_values_file_correctly() {
        for v in [0u64, 1, 31, 32, 33, 63, 64, 1 << 20, (1 << 48) - 1] {
            let mut h = Histogram::default();
            h.record(v);
            assert_eq!(h.count(), 1);
            assert_eq!(h.quantile(1.0), v, "single value is its own max");
        }
    }
}
