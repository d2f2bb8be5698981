//! Measurement primitives: counters, counter blocks and log-scaled
//! histograms. Reports read them through [`MetricSet`](crate::MetricSet).

use std::fmt;

/// A monotonically increasing event counter.
///
/// # Example
///
/// ```
/// use shrimp_sim::Counter;
///
/// let mut tlb_misses = Counter::new();
/// tlb_misses.add(3);
/// tlb_misses.incr();
/// assert_eq!(tlb_misses.get(), 4);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Counter::default()
    }

    /// Adds one.
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub fn get(self) -> u64 {
        self.0
    }

    /// Adds `n`, clamping at `u64::MAX` instead of overflowing (the merge
    /// path, where two near-saturated counters may meet).
    pub fn saturating_add(&mut self, n: u64) {
        self.0 = self.0.saturating_add(n);
    }

    /// Resets to zero, returning the previous value.
    pub fn take(&mut self) -> u64 {
        std::mem::take(&mut self.0)
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Number of power-of-two histogram buckets (`2^0` through `2^64`).
const HIST_BUCKETS: usize = 65;

/// A power-of-two bucketed histogram of `u64` samples.
///
/// Bucket `i` holds samples whose value `v` satisfies `2^(i-1) < v <= 2^i`
/// (bucket 0 holds `v == 0` and `v == 1`). Tracks count, sum, min and max
/// exactly, so means are not subject to bucketing error.
///
/// Storage is a fixed inline array, so `record` is allocation-free — the
/// flight recorder keeps these on the data-plane hot path.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u64,
    min: Option<u64>,
    max: Option<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram { buckets: [0; HIST_BUCKETS], count: 0, sum: 0, min: None, max: None }
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one sample. Never allocates.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.record_n(value, 1);
    }

    /// Records `n` samples of one `value` in O(1), exactly as `n` calls
    /// of [`Histogram::record`] would. Never allocates.
    #[inline]
    pub fn record_n(&mut self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        let bucket = if value <= 1 { 0 } else { 64 - (value - 1).leading_zeros() };
        self.buckets[bucket as usize] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(value.saturating_mul(n));
        self.min = Some(self.min.map_or(value, |m| m.min(value)));
        self.max = Some(self.max.map_or(value, |m| m.max(value)));
    }

    /// Folds `other` into `self`: bucketwise saturating sum, combined
    /// count/sum/min/max. The union of two histograms of the same metric
    /// is exactly the histogram of the combined sample stream.
    pub fn merge(&mut self, other: &Histogram) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.saturating_add(*theirs);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum = self.sum.saturating_add(other.sum);
        self.min = match (self.min, other.min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.max = match (self.max, other.max) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact mean of all samples, or `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Smallest recorded sample.
    pub fn min(&self) -> Option<u64> {
        self.min
    }

    /// Largest recorded sample.
    pub fn max(&self) -> Option<u64> {
        self.max
    }

    /// The value at quantile `q` (`0.0..=1.0`), resolved by walking the
    /// log-scaled buckets: the reported value is the upper bound of the
    /// bucket where the cumulative count first reaches `ceil(q·count)`,
    /// clamped into the exact `[min, max]` range — so `quantile(0.0)` is
    /// the true minimum and `quantile(1.0)` the true maximum, and every
    /// other quantile is correct to within one power-of-two bucket.
    /// `None` when the histogram is empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let (min, max) = (self.min?, self.max?);
        // INVARIANT: count > 0 whenever min is Some.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = 1u64.checked_shl(b as u32).unwrap_or(u64::MAX);
                return Some(bound.clamp(min, max));
            }
        }
        Some(max)
    }

    /// The bucketwise difference `self − base` (saturating), for interval
    /// reports over two cumulative snapshots of the same metric: bucket
    /// counts, total count and sum subtract; min/max keep `self`'s
    /// lifetime extremes (exact interval extremes are not recoverable
    /// from cumulative snapshots). Subtracting a snapshot from itself
    /// yields an empty-count histogram.
    pub fn subtract(&self, base: &Histogram) -> Histogram {
        let mut out = self.clone();
        for (mine, theirs) in out.buckets.iter_mut().zip(base.buckets.iter()) {
            *mine = mine.saturating_sub(*theirs);
        }
        out.count = self.count.saturating_sub(base.count);
        out.sum = self.sum.saturating_sub(base.sum);
        if out.count == 0 {
            out.min = None;
            out.max = None;
        }
        out
    }

    /// Iterates `(bucket_upper_bound, count)` over non-empty buckets.
    /// The last bucket's bound (`2^64`) is reported as `u64::MAX`.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(b, &c)| (1u64.checked_shl(b as u32).unwrap_or(u64::MAX), c))
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.mean() {
            Some(mean) => write!(
                f,
                "n={} mean={:.1} min={} max={}",
                self.count,
                mean,
                self.min.unwrap_or(0),
                self.max.unwrap_or(0)
            ),
            None => write!(f, "n=0"),
        }
    }
}

/// Declares a component's counter block: a `Copy` struct of named public
/// [`Counter`] fields, plus `merge` (fieldwise saturating sum, for folding
/// per-shard copies) and `harvest` (registers every field in a
/// [`MetricSet`](crate::MetricSet) under the field's own name).
///
/// Components bump the fields directly — one inlined increment on the hot
/// path — and reports read them through the one registry, `MetricSet`
/// (see `DESIGN.md` §10).
///
/// # Example
///
/// ```
/// use shrimp_sim::MetricSet;
///
/// shrimp_sim::counters! {
///     /// Disk access counts.
///     pub struct DiskCounters {
///         /// Blocks read.
///         reads,
///         /// Blocks written.
///         writes,
///     }
/// }
///
/// let mut c = DiskCounters::default();
/// c.reads.incr();
/// let mut set = MetricSet::default();
/// c.harvest(&mut set, "disk", None);
/// assert_eq!(set.get("disk", "reads", None), Some(1));
/// assert_eq!(set.get("disk", "writes", None), Some(0));
/// ```
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $($(#[$field_meta:meta])* $field:ident),+ $(,)?
        }
    ) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        $vis struct $name {
            $($(#[$field_meta])* pub $field: $crate::Counter,)+
        }

        impl $name {
            /// Adds every counter of `other` into `self` (saturating).
            pub fn merge(&mut self, other: &Self) {
                $(self.$field.saturating_add(other.$field.get());)+
            }

            /// Registers every counter in `set` as `subsystem/<field>`,
            /// at `index` (a node or link number) when given.
            pub fn harvest(
                &self,
                set: &mut $crate::MetricSet,
                subsystem: &'static str,
                index: Option<u32>,
            ) {
                $(set.counter(
                    $crate::MetricId { subsystem, name: stringify!($field), index },
                    self.$field.get(),
                );)+
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_tracks_exact_moments() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 106);
        assert_eq!(h.mean(), Some(26.5));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.max(), Some(100));
    }

    #[test]
    fn histogram_empty() {
        let h = Histogram::new();
        assert_eq!(h.mean(), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.to_string(), "n=0");
    }

    #[test]
    fn histogram_buckets_are_power_of_two() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(1);
        h.record(2);
        h.record(3);
        h.record(4);
        let buckets: Vec<_> = h.iter().collect();
        // 0 and 1 in bucket <=1; 2 in <=2; 3,4 in <=4.
        assert_eq!(buckets, vec![(1, 2), (2, 1), (4, 2)]);
    }

    #[test]
    fn histogram_quantiles_walk_buckets_and_clamp_to_exact_extremes() {
        let mut h = Histogram::new();
        for v in 1u64..=100 {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1), "p0 is the exact minimum");
        assert_eq!(h.quantile(1.0), Some(100), "p100 is the exact maximum");
        // p50: rank 50 lands in the 33..=64 bucket, upper bound 64.
        assert_eq!(h.quantile(0.5), Some(64));
        // p99: rank 99 lands in the 65..=128 bucket, clamped to max=100.
        assert_eq!(h.quantile(0.99), Some(100));

        // One-sample histogram: every quantile is that sample.
        let mut one = Histogram::new();
        one.record(42);
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(one.quantile(q), Some(42));
        }
        assert_eq!(Histogram::new().quantile(0.5), None, "empty has no quantiles");
    }

    #[test]
    fn histogram_merge_is_the_union_of_sample_streams() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for v in [1u64, 2, 3] {
            a.record(v);
            both.record(v);
        }
        for v in [0u64, 100, 7] {
            b.record(v);
            both.record(v);
        }
        a.merge(&b);
        assert_eq!(a, both);
        // Merging an empty histogram is the identity.
        a.merge(&Histogram::new());
        assert_eq!(a, both);
    }

    #[test]
    fn histogram_merge_saturates() {
        let mut a = Histogram::new();
        a.record(u64::MAX);
        let b = a.clone();
        a.merge(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.sum(), u64::MAX);
        assert_eq!(a.max(), Some(u64::MAX));
    }

    counters! {
        /// Test block.
        struct Probe {
            /// First.
            hits,
            /// Second.
            misses,
        }
    }

    #[test]
    fn counter_blocks_merge_and_harvest_by_field_name() {
        let mut a = Probe::default();
        a.hits.incr();
        let mut b = Probe::default();
        b.hits.add(2);
        b.misses.add(u64::MAX);
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.hits.get(), 5);
        assert_eq!(a.misses.get(), u64::MAX, "merge saturates instead of overflowing");
        let mut set = crate::MetricSet::default();
        a.harvest(&mut set, "probe", Some(3));
        assert_eq!(set.get("probe", "hits", Some(3)), Some(5));
        assert_eq!(set.get("probe", "misses", Some(3)), Some(u64::MAX));
        assert_eq!(set.len(), 2);
    }
}
