//! Log-linear latency histograms (HDR-style).
//!
//! Values (nanoseconds, bytes, depths — any `u64`) are bucketed with 16
//! linear sub-buckets per power of two, giving a constant ~6% relative error
//! across the full `u64` range with a fixed 976-slot table. Histograms are
//! cheap to record into (a shift and two adds), mergeable, and support
//! percentile queries by bucket walk.

use std::cell::RefCell;
use std::rc::Rc;

const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS; // 16 sub-buckets per power of two
                                  // Max index is (63 - SUB_BITS + 1) * SUB + (SUB - 1) = 975 for u64::MAX.
const BUCKETS: usize = (64 - SUB_BITS as usize + 1) * SUB;

/// Maps a value to its bucket index. Values below 16 get exact buckets;
/// larger values share a bucket with ~2^(msb-4) of their neighbours.
fn bucket_index(v: u64) -> usize {
    if v < SUB as u64 {
        return v as usize;
    }
    let msb = 63 - v.leading_zeros(); // >= SUB_BITS
    let shift = msb - SUB_BITS;
    let sub = ((v >> shift) & (SUB as u64 - 1)) as usize;
    (shift as usize + 1) * SUB + sub
}

/// Highest value that maps to bucket `i` — percentile queries report this, so
/// they never under-state a latency.
fn bucket_high(i: usize) -> u64 {
    if i < SUB {
        return i as u64;
    }
    let shift = (i / SUB - 1) as u32;
    let sub = (i % SUB) as u64;
    let low = (SUB as u64 + sub) << shift;
    low + ((1u64 << shift) - 1)
}

/// A shareable, mergeable log-linear histogram handle: one bucket array
/// ([`HistSnapshot`]) plus the true min and max, which the buckets only
/// bound. Clones share the cell; the registry keeps one per
/// `(component, name)` and hands out clones of it.
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    inner: Rc<RefCell<Live>>,
}

#[derive(Debug)]
struct Live {
    data: HistSnapshot,
    min: u64,
    max: u64,
}

impl Default for Live {
    fn default() -> Self {
        Live {
            data: HistSnapshot::empty(),
            min: u64::MAX,
            max: 0,
        }
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, v: u64) {
        let mut h = self.inner.borrow_mut();
        let i = bucket_index(v);
        let d = &mut h.data;
        d.counts[i] += 1;
        d.hi = d.hi.max(i + 1);
        d.count += 1;
        d.sum = d.sum.saturating_add(v);
        h.min = h.min.min(v);
        h.max = h.max.max(v);
    }

    /// Records elapsed virtual time since `start` (no-op outside a runtime).
    pub fn record_since(&self, start: sim::SimTime) {
        if let Some(now) = sim::try_now() {
            self.record(now.saturating_since(start).as_nanos() as u64);
        }
    }

    /// Folds another histogram's samples into this one.
    pub fn merge_from(&self, other: &Histogram) {
        if Rc::ptr_eq(&self.inner, &other.inner) {
            return;
        }
        let o = other.inner.borrow();
        let mut h = self.inner.borrow_mut();
        h.data.merge_from(&o.data);
        h.min = h.min.min(o.min);
        h.max = h.max.max(o.max);
    }

    pub fn count(&self) -> u64 {
        self.inner.borrow().data.count
    }

    /// Value at quantile `q` in `[0, 1]`: the highest value of the bucket
    /// holding the `ceil(q * count)`-th sample, capped by the true max so
    /// sparse tails stay tight. `0` when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        let h = self.inner.borrow();
        h.data.quantile(q).min(h.max)
    }

    /// Immutable summary for reports: true min and max, capped quantiles.
    pub fn stats(&self) -> HistStats {
        let h = self.inner.borrow();
        let min = if h.data.count == 0 { 0 } else { h.min };
        h.data.stats_within(min, h.max)
    }

    /// The bucket array as it is now.
    pub(crate) fn snapshot(&self) -> HistSnapshot {
        self.inner.borrow().data.clone()
    }

    /// Runs `f` on the bucket array without copying it.
    pub(crate) fn with_data<R>(&self, f: impl FnOnce(&HistSnapshot) -> R) -> R {
        f(&self.inner.borrow().data)
    }
}

/// An owned, bucket-level copy of a histogram's state at one instant.
///
/// Snapshots taken from a monotonically-growing histogram support exact
/// interval arithmetic: `later.delta_since(&earlier)` is the histogram of
/// samples recorded strictly between the two snapshots, and summing every
/// interval delta with [`HistSnapshot::merge_from`] reconstructs the
/// full-run histogram bucket for bucket.
#[derive(Debug, Clone)]
pub struct HistSnapshot {
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    /// One past the highest possibly-populated bucket (an upper bound, not
    /// exact after deltas): scans stop here, so walks cost O(populated
    /// range) instead of O(976). Excluded from equality.
    hi: usize,
}

/// Equality is over logical content (buckets and totals); the `hi` scan
/// watermark is an over-approximation and deliberately ignored.
impl PartialEq for HistSnapshot {
    fn eq(&self, other: &Self) -> bool {
        self.count == other.count && self.sum == other.sum && self.counts == other.counts
    }
}

impl Default for HistSnapshot {
    fn default() -> Self {
        Self::empty()
    }
}

/// The baseline of a whole-run quantile: no buckets, so nothing to subtract.
const NOTHING: HistSnapshot = HistSnapshot {
    counts: Vec::new(),
    count: 0,
    sum: 0,
    hi: 0,
};

impl HistSnapshot {
    /// A snapshot with no samples — the identity for
    /// [`merge_from`](HistSnapshot::merge_from) and the baseline for a
    /// sampler's first interval.
    pub fn empty() -> HistSnapshot {
        HistSnapshot {
            counts: vec![0; BUCKETS],
            ..NOTHING
        }
    }

    /// Resets to empty in place, keeping the bucket allocation (the sampler
    /// reuses one baseline per histogram).
    pub(crate) fn clear(&mut self) {
        self.counts[..self.hi].fill(0);
        self.count = 0;
        self.sum = 0;
        self.hi = 0;
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Per-bucket difference `self - earlier`, saturating at zero so a
    /// snapshot pair from mismatched histograms (or a saturated `sum`)
    /// degrades to an under-count instead of wrapping.
    pub fn delta_since(&self, earlier: &HistSnapshot) -> HistSnapshot {
        HistSnapshot {
            counts: self
                .counts
                .iter()
                .zip(&earlier.counts)
                .map(|(a, b)| a.saturating_sub(*b))
                .collect(),
            count: self.count.saturating_sub(earlier.count),
            sum: self.sum.saturating_sub(earlier.sum),
            hi: self.hi.max(earlier.hi),
        }
    }

    /// Quantile of the interval histogram `self - earlier`, computed bucket
    /// by bucket without materialising the delta — the sampler calls this
    /// twice per histogram per tick, so it must not allocate. This is the
    /// one bucket walk: [`quantile`](HistSnapshot::quantile) is it against
    /// an empty baseline.
    pub fn delta_quantile(&self, earlier: &HistSnapshot, q: f64) -> u64 {
        let count = self.count.saturating_sub(earlier.count);
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let hi = self.hi.max(earlier.hi);
        let before = earlier.counts.iter().chain(std::iter::repeat(&0));
        let mut seen = 0u64;
        for (i, (&a, &b)) in self.counts[..hi].iter().zip(before).enumerate() {
            seen += a.saturating_sub(b);
            if seen >= rank {
                return bucket_high(i);
            }
        }
        0
    }

    /// Value at quantile `q` in `[0, 1]` over the snapshot's buckets. Unlike
    /// the live histogram there is no true max, so the bucket high value is
    /// reported as-is (~6% overstatement worst case).
    pub fn quantile(&self, q: f64) -> u64 {
        self.delta_quantile(&NOTHING, q)
    }

    /// Adds another snapshot's buckets into this one (interval re-summing).
    pub fn merge_from(&mut self, other: &HistSnapshot) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts[..other.hi]) {
            *a = a.saturating_add(*b);
        }
        self.hi = self.hi.max(other.hi);
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Summary stats over the snapshot's buckets; min and max are the high
    /// values of the lowest and highest populated buckets.
    pub fn stats(&self) -> HistStats {
        let counts = &self.counts[..self.hi];
        let min = counts.iter().position(|&c| c > 0).map_or(0, bucket_high);
        let max = counts.iter().rposition(|&c| c > 0).map_or(0, bucket_high);
        self.stats_within(min, max)
    }

    /// Summary stats with the given min and max; quantiles are capped by
    /// `max`.
    fn stats_within(&self, min: u64, max: u64) -> HistStats {
        HistStats {
            count: self.count,
            sum: self.sum,
            min,
            max,
            mean: if self.count == 0 {
                0.0
            } else {
                self.sum as f64 / self.count as f64
            },
            p50: self.quantile(0.50).min(max),
            p90: self.quantile(0.90).min(max),
            p99: self.quantile(0.99).min(max),
        }
    }
}

/// Point-in-time histogram summary (all values in the recorded unit,
/// nanoseconds for latency histograms).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistStats {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_values_get_exact_buckets() {
        for v in 0..16u64 {
            assert_eq!(bucket_index(v), v as usize);
            assert_eq!(bucket_high(v as usize), v);
        }
    }

    #[test]
    fn bucket_boundaries_are_contiguous_and_monotone() {
        // Every bucket's high value + 1 must land in the next bucket.
        for i in 0..BUCKETS - 1 {
            let high = bucket_high(i);
            assert_eq!(bucket_index(high), i, "high of bucket {i}");
            if high < u64::MAX {
                assert_eq!(bucket_index(high + 1), i + 1, "after bucket {i}");
            }
        }
        assert_eq!(bucket_index(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn relative_error_bounded() {
        // Bucket width at value v is 2^(msb-4), so the reported high value
        // overstates by < 1/16 of the value.
        for &v in &[17u64, 100, 1_000, 123_456, 7_890_123, u64::MAX / 3] {
            let high = bucket_high(bucket_index(v));
            assert!(high >= v);
            assert!(
                (high - v) as f64 <= v as f64 / 16.0 + 1.0,
                "v={v} high={high}"
            );
        }
    }

    #[test]
    fn percentiles_on_known_distribution() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        // p50 of 1..=1000 is 500; log-linear error at 500 is < 500/16 = 32.
        let p50 = h.quantile(0.50);
        assert!((500..=532).contains(&p50), "p50={p50}");
        let p99 = h.quantile(0.99);
        assert!((990..=1000 + 63).contains(&p99), "p99={p99}");
        assert_eq!(h.stats().max, 1000);
        assert_eq!(h.stats().min, 1);
        assert_eq!(h.quantile(0.0), 1);
        // quantile(1.0) is the max's bucket, capped at max.
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn single_value_percentiles() {
        let h = Histogram::new();
        h.record(777);
        assert_eq!(h.quantile(0.50), 777.min(bucket_high(bucket_index(777))));
        assert_eq!(h.quantile(0.99), h.quantile(0.50));
        assert_eq!(h.stats().mean, 777.0);
    }

    #[test]
    fn empty_histogram_is_zeroes() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.50), 0);
        assert_eq!(h.quantile(0.99), 0);
        assert_eq!(h.stats().max, 0);
        assert_eq!(h.stats().min, 0);
        assert_eq!(h.stats().mean, 0.0);
    }

    #[test]
    fn empty_histogram_stats_are_all_zero() {
        let s = Histogram::new().stats();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50, s.p90, s.p99),
            (0, 0, 0, 0, 0, 0, 0)
        );
        assert_eq!(s.mean, 0.0);
    }

    #[test]
    fn single_sample_quantiles_all_report_that_sample() {
        for &v in &[0u64, 1, 15, 16, 777, 1 << 40] {
            let h = Histogram::new();
            h.record(v);
            for q in [0.0, 0.25, 0.5, 0.9, 0.99, 1.0] {
                assert_eq!(
                    h.quantile(q),
                    v.min(bucket_high(bucket_index(v))),
                    "v={v} q={q}"
                );
            }
            let s = h.stats();
            assert_eq!((s.min, s.max, s.count), (v, v, 1));
        }
    }

    #[test]
    fn merge_from_with_overlapping_buckets_sums_counts() {
        let a = Histogram::new();
        let b = Histogram::new();
        // Same values into both: every populated bucket overlaps.
        for v in [5u64, 5, 100, 100, 4_096] {
            a.record(v);
            b.record(v);
        }
        b.record(9_999); // plus one bucket only b has
        a.merge_from(&b);
        let s = a.stats();
        assert_eq!(s.count, 11);
        assert_eq!(s.sum, 2 * (5 + 5 + 100 + 100 + 4_096) + 9_999);
        assert_eq!(s.min, 5);
        assert_eq!(s.max, 9_999);
        // The doubled overlapping buckets keep quantiles consistent: the
        // median must still land in value 100's bucket.
        let p50 = a.quantile(0.5);
        assert_eq!(bucket_index(p50), bucket_index(100), "p50={p50}");
    }

    #[test]
    fn quantiles_are_monotone_in_q() {
        let h = Histogram::new();
        let mut x = 42u64;
        for _ in 0..500 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            h.record(x >> 44);
        }
        let qs = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0];
        let vals: Vec<u64> = qs.iter().map(|&q| h.quantile(q)).collect();
        for w in vals.windows(2) {
            assert!(w[0] <= w[1], "quantiles not monotone: {vals:?}");
        }
        assert!(h.quantile(0.0) <= h.quantile(0.5));
        assert!(h.quantile(0.5) <= h.quantile(1.0));
    }

    #[test]
    fn merge_is_associative_and_commutative() {
        let mk = |seed: u64, n: u64| {
            let h = Histogram::new();
            let mut x = seed;
            for _ in 0..n {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                h.record(x >> 40);
            }
            h
        };
        let stats_of = |hs: &[&Histogram]| {
            let acc = Histogram::new();
            for h in hs {
                acc.merge_from(h);
            }
            acc.stats()
        };
        let (a, b, c) = (mk(1, 500), mk(2, 300), mk(3, 700));
        // (a+b)+c == a+(b+c) == c+b+a
        let abc = stats_of(&[&a, &b, &c]);
        let bca = stats_of(&[&b, &c, &a]);
        let cab = stats_of(&[&c, &a, &b]);
        assert_eq!(abc, bca);
        assert_eq!(bca, cab);
        assert_eq!(abc.count, 1500);
    }

    #[test]
    fn merge_with_self_is_noop() {
        let h = Histogram::new();
        h.record(5);
        h.merge_from(&h.clone());
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn clones_share_state() {
        let h = Histogram::new();
        let h2 = h.clone();
        h2.record(42);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn snapshot_deltas_resum_to_full_run() {
        // Satellite: delta-since-last-sample summed over intervals must be
        // bucket-identical to the full-run histogram, empty intervals
        // included.
        let h = Histogram::new();
        let mut last = HistSnapshot::empty();
        let mut resummed = HistSnapshot::empty();
        let mut x = 7u64;
        for interval in 0..10 {
            if interval != 3 && interval != 7 {
                // Intervals 3 and 7 record nothing — empty-delta edge case.
                for _ in 0..50 {
                    x = x
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    h.record(x >> 40);
                }
            }
            let now = h.snapshot();
            let delta = now.delta_since(&last);
            if interval == 3 || interval == 7 {
                assert_eq!(delta.count(), 0, "empty interval must yield empty delta");
                assert_eq!(delta.stats().p99, 0);
            }
            resummed.merge_from(&delta);
            last = now;
        }
        assert_eq!(resummed, h.snapshot(), "interval re-sum diverged");
        assert_eq!(resummed.count(), 400);
        assert_eq!(resummed.sum(), h.stats().sum);
    }

    #[test]
    fn snapshot_delta_saturates_instead_of_wrapping() {
        let a = Histogram::new();
        a.record(100);
        let early = a.snapshot();
        // A snapshot pair taken in the wrong order (or across a reset)
        // saturates to the empty delta.
        let wrong = HistSnapshot::empty().delta_since(&early);
        assert_eq!(wrong.count(), 0);
        assert_eq!(wrong.sum(), 0);
        assert_eq!(wrong, HistSnapshot::empty());
        // Saturated sums stay saturated through delta arithmetic.
        let h = Histogram::new();
        h.record(u64::MAX);
        h.record(u64::MAX); // sum saturates at u64::MAX
        let snap = h.snapshot();
        assert_eq!(snap.sum(), u64::MAX);
        let d = snap.delta_since(&HistSnapshot::empty());
        assert_eq!(d.count(), 2);
        assert_eq!(d.sum(), u64::MAX);
    }

    #[test]
    fn snapshot_quantiles_track_live_histogram() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let s = h.snapshot().stats();
        assert_eq!(s.count, 1000);
        // Snapshot p50 has no true-max cap but the same bucket resolution.
        assert!((500..=532).contains(&s.p50), "p50={}", s.p50);
        assert!(s.max >= 1000 && s.max <= 1000 + 63, "max={}", s.max);
        assert_eq!(s.min, 1);
        let empty = HistSnapshot::empty().stats();
        assert_eq!((empty.count, empty.p50, empty.max), (0, 0, 0));
    }
}
