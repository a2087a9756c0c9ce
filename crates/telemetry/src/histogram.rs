//! Log-linear-bucket histograms with quantile estimation.
//!
//! Values are `u64` (the workspace records microseconds, byte counts and
//! plain tallies). Buckets follow the HdrHistogram shape: values below 16
//! get exact unit buckets; above that, each power of two is split into 16
//! linear sub-buckets, bounding the relative bucket width at 1/16
//! (6.25 %). Because bucketing is monotone, the quantile estimate is
//! *rank-exact at bucket granularity*: the true sample at the requested
//! rank is guaranteed to lie inside the bucket whose bounds
//! [`Histogram::quantile_bounds`] returns — the property test in
//! `tests/prop_telemetry.rs` checks exactly that against a sorted-sample
//! reference.
//!
//! Storage holds only the octaves a histogram has used: a dense window
//! of bucket counts, aligned to whole octaves of 16 buckets, that grows
//! down or up when a value lands outside it. A histogram whose values
//! span one or two octaves — one subscriber's delivery latency — keeps
//! 16 or 32 counts, not all 976. The bucket math does not depend on the
//! window, so quantiles are the same as over the dense array; the same
//! test file checks that against a dense reference.

use bistro_base::sync::Mutex;

/// Sub-buckets per power of two (as a shift: 2^4 = 16).
const SUB_BITS: u32 = 4;
/// Number of exact unit buckets at the bottom (`0..FIRST`).
const FIRST: u64 = 1 << SUB_BITS;
/// Buckets per octave: the storage window's unit of growth.
const OCTAVE: usize = FIRST as usize;

/// The bucket index for a value.
fn bucket_index(v: u64) -> usize {
    if v < FIRST {
        v as usize
    } else {
        // msb ≥ 4; the top 5 mantissa bits select octave + sub-bucket
        let msb = 63 - v.leading_zeros();
        let octave = (msb - SUB_BITS) as usize;
        let sub = ((v >> (msb - SUB_BITS)) - FIRST) as usize;
        FIRST as usize + octave * FIRST as usize + sub
    }
}

/// Inclusive `(lo, hi)` value bounds of a bucket.
fn bucket_bounds(index: usize) -> (u64, u64) {
    if index < FIRST as usize {
        (index as u64, index as u64)
    } else {
        let rel = index - FIRST as usize;
        let octave = (rel / FIRST as usize) as u32;
        let sub = (rel % FIRST as usize) as u64;
        let width = 1u64 << octave;
        let lo = (FIRST + sub) << octave;
        // `lo + (width - 1)`, not `lo + width - 1`: the top bucket's hi is
        // exactly u64::MAX and `lo + width` would wrap.
        (lo, lo + (width - 1))
    }
}

struct HistInner {
    /// Counts of buckets `base..base + buckets.len()`: whole octaves,
    /// empty before the first record.
    buckets: Vec<u64>,
    /// Index of the window's first bucket (a multiple of [`OCTAVE`]).
    base: usize,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl HistInner {
    /// The count of bucket `index`, first widening the window to the
    /// whole octave holding it.
    fn bucket(&mut self, index: usize) -> &mut u64 {
        let lo = index - index % OCTAVE;
        if self.buckets.is_empty() {
            self.base = lo;
            self.buckets = vec![0; OCTAVE];
        } else if lo < self.base {
            let mut grown = vec![0; self.base - lo + self.buckets.len()];
            grown[self.base - lo..].copy_from_slice(&self.buckets);
            self.buckets = grown;
            self.base = lo;
        } else if index >= self.base + self.buckets.len() {
            let len = lo + OCTAVE - self.base;
            self.buckets.reserve_exact(len - self.buckets.len());
            self.buckets.resize(len, 0);
        }
        &mut self.buckets[index - self.base]
    }
}

/// A concurrent log-linear histogram. Obtain via
/// [`crate::Registry::histogram`]; a handle from a disabled registry
/// drops every record.
pub struct Histogram {
    enabled: bool,
    inner: Mutex<HistInner>,
}

impl Histogram {
    pub(crate) fn new(enabled: bool) -> Histogram {
        Histogram {
            enabled,
            inner: Mutex::new(HistInner {
                buckets: Vec::new(),
                base: 0,
                count: 0,
                sum: 0,
                min: u64::MAX,
                max: 0,
            }),
        }
    }

    /// A standalone enabled histogram (not attached to any registry).
    pub fn detached() -> Histogram {
        Histogram::new(true)
    }

    /// Record one value.
    pub fn record(&self, v: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.inner.lock();
        *inner.bucket(bucket_index(v)) += 1;
        inner.count += 1;
        inner.sum = inner.sum.saturating_add(v);
        inner.min = inner.min.min(v);
        inner.max = inner.max.max(v);
    }

    /// Record the same value `n` times in one lock acquisition — the
    /// group-commit case, where one measured flush covers `n` records
    /// and each record's sample is the amortized cost. Equivalent to
    /// calling [`Histogram::record`] `n` times.
    pub fn record_n(&self, v: u64, n: u64) {
        if !self.enabled || n == 0 {
            return;
        }
        let mut inner = self.inner.lock();
        *inner.bucket(bucket_index(v)) += n;
        inner.count += n;
        inner.sum = inner.sum.saturating_add(v.saturating_mul(n));
        inner.min = inner.min.min(v);
        inner.max = inner.max.max(v);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.inner.lock().count
    }

    /// Sum of recorded values (saturating).
    pub fn sum(&self) -> u64 {
        self.inner.lock().sum
    }

    /// Smallest recorded value (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        let inner = self.inner.lock();
        (inner.count > 0).then_some(inner.min)
    }

    /// Largest recorded value (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        let inner = self.inner.lock();
        (inner.count > 0).then_some(inner.max)
    }

    /// Inclusive value bounds of the bucket holding the `q`-quantile
    /// sample (`q` clamped to `[0, 1]`; rank = `ceil(q · count)`, at
    /// least 1). `None` when empty. The exact sorted-sample quantile is
    /// guaranteed to lie within these bounds.
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        let inner = self.inner.lock();
        if inner.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * inner.count as f64).ceil() as u64).clamp(1, inner.count);
        let mut cum = 0u64;
        for (i, &n) in inner.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let (lo, hi) = bucket_bounds(inner.base + i);
                // tighten by the recorded extremes
                return Some((lo.max(inner.min.min(hi)), hi.min(inner.max)));
            }
        }
        None // unreachable: cum == count >= rank by the loop end
    }

    /// Point estimate for the `q`-quantile: the upper bound of the bucket
    /// holding that rank (conservative for alarm thresholds). `None` when
    /// empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.quantile_bounds(q).map(|(_, hi)| hi)
    }

    /// `(count, sum, min, max, p50, p90, p99)` in one lock acquisition
    /// family — the snapshot exporter's view.
    pub fn summary(&self) -> Option<HistogramSummary> {
        if self.count() == 0 {
            return None;
        }
        Some(HistogramSummary {
            count: self.count(),
            sum: self.sum(),
            min: self.min().unwrap(),
            max: self.max().unwrap(),
            p50: self.quantile(0.50).unwrap(),
            p90: self.quantile(0.90).unwrap(),
            p99: self.quantile(0.99).unwrap(),
        })
    }
}

/// Exported histogram digest.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct HistogramSummary {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total bucket count: 16 unit buckets + 16 per octave for octaves 4..=63.
    const BUCKETS: usize = (FIRST as usize) + (64 - SUB_BITS as usize) * (FIRST as usize);

    #[test]
    fn bucket_index_is_monotone_and_bounded() {
        let probes = [
            0u64,
            1,
            15,
            16,
            17,
            31,
            32,
            100,
            1_000,
            65_535,
            65_536,
            u64::MAX / 2,
            u64::MAX,
        ];
        let mut last = 0usize;
        for &v in &probes {
            let i = bucket_index(v);
            assert!(i < BUCKETS, "index {i} out of range for {v}");
            assert!(i >= last, "bucket index not monotone at {v}");
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v <= hi, "{v} outside its bucket [{lo}, {hi}]");
            last = i;
        }
    }

    #[test]
    fn small_values_are_exact() {
        let h = Histogram::detached();
        for v in [0u64, 1, 2, 3, 15] {
            h.record(v);
        }
        assert_eq!(h.quantile_bounds(0.0), Some((0, 0)));
        assert_eq!(h.quantile_bounds(1.0), Some((15, 15)));
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(15));
        assert_eq!(h.sum(), 21);
    }

    #[test]
    fn median_of_known_stream() {
        let h = Histogram::detached();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let (lo, hi) = h.quantile_bounds(0.5).unwrap();
        assert!(lo <= 500 && 500 <= hi, "median bucket [{lo}, {hi}]");
        // bucket relative width ≤ 1/16
        assert!(hi - lo <= 500 / 16 + 1, "bucket too wide: [{lo}, {hi}]");
    }

    #[test]
    fn record_n_equals_n_records() {
        let a = Histogram::detached();
        let b = Histogram::detached();
        a.record_n(37, 5);
        a.record_n(1000, 2);
        a.record_n(9, 0); // no-op
        for _ in 0..5 {
            b.record(37);
        }
        for _ in 0..2 {
            b.record(1000);
        }
        assert_eq!(a.count(), b.count());
        assert_eq!(a.sum(), b.sum());
        assert_eq!(a.min(), b.min());
        assert_eq!(a.max(), b.max());
        assert_eq!(a.quantile_bounds(0.5), b.quantile_bounds(0.5));
        assert_eq!(a.quantile_bounds(0.99), b.quantile_bounds(0.99));
    }

    #[test]
    fn storage_holds_only_the_octaves_used() {
        let h = Histogram::detached();
        let window = |h: &Histogram| {
            let inner = h.inner.lock();
            (inner.base, inner.buckets.len())
        };
        assert_eq!(window(&h), (0, 0));
        h.record(700); // bucket 101, in the octave of buckets 96..112
        assert_eq!(window(&h), (96, 16));
        h.record(1_000); // bucket 111: same octave
        assert_eq!(window(&h), (96, 16));
        h.record(3); // grows down to the unit buckets
        assert_eq!(window(&h), (0, 112));
        h.record_n(u64::MAX, 2); // grows up to the top bucket
        assert_eq!(window(&h), (0, BUCKETS));
        assert_eq!(h.quantile_bounds(0.0), Some((3, 3)));
        assert_eq!(h.quantile_bounds(0.5), Some((992, 1_023)));
        assert_eq!(h.quantile_bounds(1.0), Some((31 << 59, u64::MAX)));
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let h = Histogram::new(false);
        h.record(42);
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.summary(), None);
    }

    #[test]
    fn empty_quantile_is_none() {
        let h = Histogram::detached();
        assert_eq!(h.quantile_bounds(0.5), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }
}
