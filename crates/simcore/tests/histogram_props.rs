//! Property tests for the log-scale streaming [`Histogram`]
//! (DESIGN.md §14): the merge is an exact element-wise integer add,
//! so it must behave like a commutative, associative monoid over
//! arbitrary value streams, and quantiles must be order-independent,
//! monotone, and within the layout's relative-error bound. These are
//! the algebraic facts the sharded simulator leans on when it rolls
//! per-site registries into one VO summary in site order — any
//! grouping of sites into shards has to produce bit-identical state.

use gridvm_simcore::hist::{Histogram, MAX_EXP};
use proptest::prelude::*;

/// Values that fit the layout (below `2^MAX_EXP`).
fn values() -> impl Strategy<Value = Vec<u64>> {
    proptest::collection::vec(0u64..(1u64 << MAX_EXP), 0..256)
}

fn hist_of(values: &[u64]) -> Histogram {
    let mut h = Histogram::default();
    for &v in values {
        h.record(v);
    }
    h
}

proptest! {
    /// `merge` is commutative on the full struct state (buckets,
    /// count, total, min, max) — not just on derived quantiles.
    #[test]
    fn merge_is_commutative(a in values(), b in values()) {
        let (ha, hb) = (hist_of(&a), hist_of(&b));
        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb;
        ba.merge(&ha);
        prop_assert_eq!(ab, ba);
    }

    /// `merge` is associative: any shard tree produces the same
    /// bits as a flat left fold.
    #[test]
    fn merge_is_associative(a in values(), b in values(), c in values()) {
        let (ha, hb, hc) = (hist_of(&a), hist_of(&b), hist_of(&c));
        let mut left = ha.clone();
        left.merge(&hb);
        left.merge(&hc);
        let mut right_tail = hb;
        right_tail.merge(&hc);
        let mut right = ha;
        right.merge(&right_tail);
        prop_assert_eq!(left, right);
    }

    /// Splitting one stream across any shard count and merging the
    /// per-shard histograms is bit-identical to recording the whole
    /// stream into one histogram — the invariant behind
    /// shard/thread-count invariance of merged metrics.
    #[test]
    fn sharded_merge_matches_single_recorder(vs in values(), shards in 1usize..9) {
        let whole = hist_of(&vs);
        let mut parts: Vec<Histogram> = (0..shards).map(|_| Histogram::default()).collect();
        for (i, &v) in vs.iter().enumerate() {
            parts[i % shards].record(v);
        }
        let mut merged = Histogram::default();
        for p in &parts {
            merged.merge(p);
        }
        prop_assert_eq!(merged, whole);
    }

    /// Quantiles are monotone in `q`, pinned to exact `min`/`max` at
    /// the extremes, and bracket the mean.
    #[test]
    fn quantiles_are_monotone_and_clamped(vs in proptest::collection::vec(0u64..(1u64 << MAX_EXP), 1..256)) {
        let h = hist_of(&vs);
        let qs = [0.0, 0.1, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];
        let mut prev = h.quantile(0.0);
        for &q in &qs {
            let cur = h.quantile(q);
            prop_assert!(cur >= prev, "quantile({q}) regressed: {cur} < {prev}");
            prev = cur;
        }
        // The bottom estimate sits in min's bucket (upper-bound
        // representative, so within the layout's relative error of
        // the exact min); the top clamps to the exact max.
        let bottom = h.quantile(0.0);
        prop_assert!(bottom >= h.min() && bottom <= h.min() + h.min() / 32 + 1);
        prop_assert_eq!(h.quantile(1.0), h.max());
        prop_assert!(h.mean() >= h.min() as f64 && h.mean() <= h.max() as f64);
    }

    /// Every quantile is within the layout's relative-error bound of
    /// the exact order statistic: the bucket representative is the
    /// bucket's upper bound, so the estimate never undershoots and
    /// overshoots by at most one part in 32 (the layout's sub-buckets
    /// per power of two), saturated by the exact-max clamp.
    #[test]
    fn quantiles_track_exact_order_statistics(
        vs in proptest::collection::vec(0u64..(1u64 << MAX_EXP), 1..256),
        q in 0.0f64..=1.0,
    ) {
        let h = hist_of(&vs);
        let mut sorted = vs.clone();
        sorted.sort_unstable();
        let target = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        let exact = sorted[target - 1];
        let est = h.quantile(q);
        prop_assert!(est >= exact, "estimate {est} under exact {exact}");
        prop_assert!(
            est <= exact + exact / 32 + 1,
            "estimate {est} beyond error bound of exact {exact}"
        );
    }
}
