//! The arithmetic every reported number goes through: nearest-rank
//! percentiles, the window median behind `files_per_s`, the coefficient
//! of variation behind `driver.windows_cv`, and span self time.

/// Nearest-rank percentile of `samples` (`q` in `0.0..=1.0`); sorts in
/// place. `None` on an empty slice. With `n` samples the p99 is the
/// value at rank `ceil(0.99·n)`, so `n − ceil(0.99·n)` samples lie
/// beyond it — the reason every workload collects ≥1 000 of them.
pub fn percentile(samples: &mut [u64], q: f64) -> Option<u64> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = (q.clamp(0.0, 1.0) * samples.len() as f64).ceil() as usize;
    Some(samples[rank.clamp(1, samples.len()) - 1])
}

/// A p99 that one slow stretch of the machine cannot decide: the
/// samples, in the order they were taken, are cut into `parts` equal
/// consecutive parts; the result is the median of the parts' nearest-rank
/// p99s. `None` with fewer samples than parts.
pub fn p99_median_of_parts(samples: &mut [u64], parts: usize) -> Option<f64> {
    let size = samples.len() / parts.max(1);
    if size == 0 {
        return None;
    }
    let p99s: Vec<f64> = samples
        .chunks_exact_mut(size)
        .filter_map(|part| percentile(part, 0.99))
        .map(|v| v as f64)
        .collect();
    median(&p99s)
}

/// Median of floats (mean of the middle pair on an even count).
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    Some(if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    })
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (exclusive method); `None` with fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let cut = |k: usize| {
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((cut(1), cut(3)))
}

/// One equal-count window of a timed phase: how much completed in how
/// much wall time, housekeeping included.
#[derive(Clone, Copy, Debug, Default)]
pub struct Window {
    pub files: u64,
    pub deliveries: u64,
    pub wall_ns: u64,
}

/// Median over windows of `count / wall second`, where `count` picks
/// the numerator out of each window.
pub fn window_rate_median(windows: &[Window], count: impl Fn(&Window) -> u64) -> Option<f64> {
    median(&window_rates(windows, count))
}

fn window_rates(windows: &[Window], count: impl Fn(&Window) -> u64) -> Vec<f64> {
    windows
        .iter()
        .filter(|w| w.wall_ns > 0)
        .map(|w| count(w) as f64 * 1e9 / w.wall_ns as f64)
        .collect()
}

/// Coefficient of variation (population σ ÷ mean) of the per-window
/// file rates; 0 with fewer than two windows.
pub fn window_cv(windows: &[Window]) -> f64 {
    let rates = window_rates(windows, |w| w.files);
    if rates.len() < 2 {
        return 0.0;
    }
    let mean = rates.iter().sum::<f64>() / rates.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = rates.iter().map(|r| (r - mean).powi(2)).sum::<f64>() / rates.len() as f64;
    var.sqrt() / mean
}

/// Self time of a span: its duration minus the part of its interval
/// that child spans cover. Children may overlap each other or stick
/// out of the parent; the covered part is the union of their intervals
/// clipped to the parent's.
pub fn self_time(parent: (u64, u64), children: &[(u64, u64)]) -> u64 {
    let (ps, pe) = parent;
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(ps), e.min(pe)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0u64;
    let mut cursor = ps;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    pe.saturating_sub(ps).saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut v: Vec<u64> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut v, 0.5), Some(50));
        assert_eq!(percentile(&mut v, 0.99), Some(99));
        assert_eq!(percentile(&mut v, 1.0), Some(100));
        assert_eq!(percentile(&mut v, 0.0), Some(1));
        let mut one = vec![7];
        assert_eq!(percentile(&mut one, 0.99), Some(7));
        assert_eq!(percentile(&mut [], 0.5), None);
        // 1 500 samples leave 15 beyond the p99
        let mut many: Vec<u64> = (1..=1500).collect();
        let p99 = percentile(&mut many, 0.99).unwrap();
        assert_eq!(many.iter().filter(|&&x| x > p99).count(), 15);
    }

    #[test]
    fn p99_of_parts_ignores_one_bad_stretch() {
        // five parts of 100 samples; the nearest-rank p99 of part k is 100·k + 98
        let mut v: Vec<u64> = (0..500).collect();
        assert_eq!(p99_median_of_parts(&mut v, 5), Some(298.0));
        // one part full of outliers does not move the median
        let mut v: Vec<u64> = (0..500)
            .map(|i| if i < 100 { 1_000_000 } else { i % 100 })
            .collect();
        assert_eq!(p99_median_of_parts(&mut v, 5), Some(98.0));
        // a remainder shorter than a part is left out; too few samples is None
        let mut v: Vec<u64> = (0..503).collect();
        assert_eq!(p99_median_of_parts(&mut v, 5), Some(298.0));
        assert_eq!(p99_median_of_parts(&mut [1, 2, 3], 5), None);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn window_median_ignores_one_slow_window() {
        let fast = Window {
            files: 1000,
            deliveries: 2000,
            wall_ns: 1_000_000_000,
        };
        let slow = Window {
            wall_ns: 4_000_000_000,
            ..fast
        };
        let ws = [fast, fast, slow];
        assert_eq!(window_rate_median(&ws, |w| w.files), Some(1000.0));
        assert_eq!(window_rate_median(&ws, |w| w.deliveries), Some(2000.0));
        assert_eq!(window_rate_median(&[], |w| w.files), None);
        assert_eq!(window_cv(&[fast, fast]), 0.0);
        assert!(window_cv(&ws) > 0.3);
        assert_eq!(window_cv(&[fast]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // disjoint children
        assert_eq!(self_time((0, 100), &[(10, 20), (30, 50)]), 70);
        // overlapping children count once
        assert_eq!(self_time((0, 100), &[(10, 40), (30, 50)]), 60);
        // a child sticking out is clipped to the parent
        assert_eq!(self_time((10, 100), &[(0, 20), (90, 120)]), 70);
        // nested child inside another child
        assert_eq!(self_time((0, 100), &[(10, 90), (20, 30)]), 20);
        assert_eq!(self_time((0, 100), &[]), 100);
        assert_eq!(self_time((0, 100), &[(0, 100)]), 0);
    }
}
