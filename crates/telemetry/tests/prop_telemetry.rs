//! Property test: histogram quantile bounds against an exact
//! sorted-sample reference.
//!
//! For any stream of values, the bucket that
//! [`Histogram::quantile_bounds`] returns for a quantile `q` must
//! contain the exact order statistic at rank `ceil(q * n)` of the sorted
//! stream — the "rank-exact at bucket granularity" contract the
//! histogram documents. Counterexamples shrink through `Vec<u64>`'s
//! structural shrinker, so a failure reports a minimal stream.
//!
//! Replay a failure with `BISTRO_PROP_SEED=<seed>` as printed.

use bistro_base::prop::{self, Runner};
use bistro_base::prop_assert;
use bistro_telemetry::Histogram;

const QUANTILES: &[f64] = &[0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0];

fn exact_rank_value(sorted: &[u64], q: f64) -> u64 {
    let n = sorted.len() as u64;
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    sorted[(rank - 1) as usize]
}

#[test]
fn quantile_bounds_contain_exact_order_statistics() {
    Runner::new("hist_quantile_bounds_vs_sorted_reference")
        .cases(256)
        .run(
            |rng| {
                // Mixed-magnitude stream: mostly small latencies with an
                // occasional huge outlier, the shape that stresses log-linear
                // bucketing the hardest.
                prop::vec_of(rng, 1..=200, |r| {
                    let bits = r.gen_range(0u32..63);
                    r.gen_range(0u64..=(1u64 << bits))
                })
            },
            |values| {
                let hist = Histogram::detached();
                for &v in values {
                    hist.record(v);
                }
                let mut sorted = values.clone();
                sorted.sort_unstable();

                prop_assert!(hist.count() == values.len() as u64, "count mismatch");
                prop_assert!(hist.min() == sorted.first().copied(), "min mismatch");
                prop_assert!(hist.max() == sorted.last().copied(), "max mismatch");

                for &q in QUANTILES {
                    let exact = exact_rank_value(&sorted, q);
                    let (lo, hi) = hist
                        .quantile_bounds(q)
                        .ok_or_else(|| "empty bounds on non-empty histogram".to_string())?;
                    prop_assert!(
                        lo <= exact && exact <= hi,
                        "q={q}: exact {exact} outside bucket [{lo}, {hi}] for {values:?}"
                    );
                    prop_assert!(lo <= hi, "q={q}: inverted bounds [{lo}, {hi}]");
                    // relative width contract: hi/lo <= 17/16 once past the
                    // unit buckets (bounds tightening can only narrow this)
                    if lo >= 16 {
                        prop_assert!(
                            hi - lo <= lo / 16,
                            "q={q}: bucket [{lo}, {hi}] wider than 1/16 relative"
                        );
                    }
                }
                Ok(())
            },
        );
}

#[test]
fn quantiles_are_monotone_in_q() {
    Runner::new("hist_quantiles_monotone").cases(128).run(
        |rng| prop::vec_of(rng, 1..=100, |r| r.gen_range(0u64..1_000_000)),
        |values| {
            let hist = Histogram::detached();
            for &v in values {
                hist.record(v);
            }
            let mut last = 0u64;
            for &q in QUANTILES {
                let v = hist
                    .quantile(q)
                    .ok_or_else(|| "empty quantile".to_string())?;
                prop_assert!(
                    v >= last,
                    "quantile not monotone at q={q}: {v} < {last} for {values:?}"
                );
                last = v;
            }
            Ok(())
        },
    );
}

/// The dense reference for [`Histogram`]'s windowed storage: every one of
/// the 976 log-linear buckets held from the start, with the documented
/// bucket scheme (16 unit buckets, then 16 linear sub-buckets per power
/// of two) written out again here, apart from the crate's own.
struct DenseHistogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl DenseHistogram {
    const BUCKETS: usize = 16 + 60 * 16;

    fn new() -> DenseHistogram {
        DenseHistogram {
            buckets: vec![0; Self::BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn index(v: u64) -> usize {
        if v < 16 {
            return v as usize;
        }
        let msb = 63 - v.leading_zeros();
        let octave = (msb - 4) as usize;
        16 + octave * 16 + ((v >> (msb - 4)) - 16) as usize
    }

    fn bounds(index: usize) -> (u64, u64) {
        if index < 16 {
            return (index as u64, index as u64);
        }
        let octave = ((index - 16) / 16) as u32;
        let lo = (16 + ((index - 16) % 16) as u64) << octave;
        (lo, lo + ((1u64 << octave) - 1))
    }

    fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.buckets[Self::index(v)] += n;
        self.count += n;
        self.sum = self.sum.saturating_add(v.saturating_mul(n));
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cum = 0;
        for (i, &n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= rank {
                let (lo, hi) = Self::bounds(i);
                return Some((lo.max(self.min.min(hi)), hi.min(self.max)));
            }
        }
        None
    }
}

#[test]
fn windowed_storage_equals_the_dense_reference() {
    const GRID: &[f64] = &[
        0.0, 0.001, 0.01, 0.1, 0.25, 0.333, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0,
    ];
    Runner::new("hist_windowed_storage_vs_dense_reference")
        .cases(256)
        .run(
            |rng| {
                // (value, n): n = 0 records once through `record`, n > 0
                // through `record_n`. Magnitudes wander from a random
                // starting octave, so the window grows down and up; the
                // extremes 0 and u64::MAX come up every few cases.
                let mut bits = rng.gen_range(0u32..64);
                prop::vec_of(rng, 1..=120, |r| {
                    bits = (bits as i64 + r.gen_range(-6i64..=6)).clamp(0, 64) as u32;
                    let v = match r.gen_range(0u32..40) {
                        0 => 0,
                        1 => u64::MAX,
                        _ if bits == 64 => r.gen_range(1u64 << 63..=u64::MAX),
                        _ => r.gen_range(0u64..=(1u64 << bits) - 1),
                    };
                    let n = match r.gen_range(0u32..4) {
                        0 => r.gen_range(0u64..=1_000),
                        _ => 0,
                    };
                    (v, n)
                })
            },
            |stream| {
                let (hist, mut dense) = (Histogram::detached(), DenseHistogram::new());
                for &(v, n) in stream {
                    if n == 0 {
                        hist.record(v);
                        dense.record_n(v, 1);
                    } else {
                        hist.record_n(v, n);
                        dense.record_n(v, n);
                    }
                }
                prop_assert!(hist.count() == dense.count, "count mismatch");
                prop_assert!(hist.sum() == dense.sum, "sum mismatch");
                let seen = dense.count > 0;
                prop_assert!(hist.min() == seen.then_some(dense.min), "min mismatch");
                prop_assert!(hist.max() == seen.then_some(dense.max), "max mismatch");
                for &q in GRID {
                    let (got, want) = (hist.quantile_bounds(q), dense.quantile_bounds(q));
                    prop_assert!(
                        got == want,
                        "q={q}: windowed {got:?} != dense {want:?} for {stream:?}"
                    );
                }
                Ok(())
            },
        );
}
