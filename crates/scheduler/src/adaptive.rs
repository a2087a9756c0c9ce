//! Dynamic subscriber partitioning (paper §4.3, future work).
//!
//! "Current implementation of Bistro feed manager only supports fixed
//! small number of scheduling groups and does not support dynamic
//! migration of subscriber from one group to another based on observed
//! runtime behavior. Incorporating dynamic subscriber partitioning into
//! Bistro scheduling algorithm is a research direction we are planning
//! to explore in the future."
//!
//! This module implements that direction: [`classify_subscribers`]
//! derives responsiveness classes from *observed* per-subscriber service
//! rates (bytes transferred / service time, from a [`SimReport`]) by
//! splitting the subscribers at the largest gaps in log-throughput.
//! E6's "auto-partitioned" arm calibrates with a short global run, then
//! re-runs partitioned with the derived classes — no hand labelling.

use crate::report::SimReport;
use bistro_base::SubscriberId;
use std::collections::HashMap;

/// Observed per-subscriber throughput from a calibration run:
/// total bytes over total service time, in bytes/second.
pub fn observed_throughput(
    report: &SimReport,
    sizes: &HashMap<u64, u64>,
) -> HashMap<SubscriberId, f64> {
    let mut bytes: HashMap<SubscriberId, u64> = HashMap::new();
    let mut service_us: HashMap<SubscriberId, u64> = HashMap::new();
    for o in &report.outcomes {
        let (Some(service), Some(size)) = (o.service, sizes.get(&o.job)) else {
            continue;
        };
        *bytes.entry(o.subscriber).or_default() += size;
        *service_us.entry(o.subscriber).or_default() += service.as_micros();
    }
    bytes
        .into_iter()
        .filter_map(|(sub, b)| {
            let us = *service_us.get(&sub)?;
            if us == 0 {
                return None;
            }
            Some((sub, b as f64 * 1e6 / us as f64))
        })
        .collect()
}

/// Partition subscribers into `classes` responsiveness classes from
/// observed throughputs. Class 0 is the most responsive. Splitting is
/// done at the `classes - 1` largest gaps between consecutive
/// subscribers in descending log-throughput order — a 1-D clustering
/// that needs no tuning and is scale-free.
pub fn classify_subscribers(
    throughput: &HashMap<SubscriberId, f64>,
    classes: usize,
) -> HashMap<SubscriberId, usize> {
    let classes = classes.max(1);
    let mut ranked: Vec<(SubscriberId, f64)> = throughput
        .iter()
        .map(|(&s, &t)| (s, t.max(f64::MIN_POSITIVE)))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap()
            .then(a.0.raw().cmp(&b.0.raw()))
    });
    if ranked.is_empty() {
        return HashMap::new();
    }
    if classes == 1 || ranked.len() <= classes {
        // trivial: one class, or one subscriber per class in rank order
        return ranked
            .into_iter()
            .enumerate()
            .map(|(i, (s, _))| (s, i.min(classes - 1)))
            .collect();
    }

    // gaps in log space between consecutive ranked subscribers
    let mut gaps: Vec<(f64, usize)> = ranked
        .windows(2)
        .enumerate()
        .map(|(i, w)| ((w[0].1.ln() - w[1].1.ln()).abs(), i + 1))
        .collect();
    gaps.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
    let mut cut_points: Vec<usize> = gaps.iter().take(classes - 1).map(|&(_, i)| i).collect();
    cut_points.sort_unstable();

    let mut out = HashMap::new();
    let mut class = 0usize;
    for (i, (sub, _)) in ranked.into_iter().enumerate() {
        while cut_points.get(class).map(|&c| i >= c).unwrap_or(false) {
            class += 1;
        }
        out.insert(sub, class.min(classes - 1));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tp(pairs: &[(u32, f64)]) -> HashMap<SubscriberId, f64> {
        pairs.iter().map(|&(s, t)| (SubscriberId(s), t)).collect()
    }

    #[test]
    fn splits_bimodal_population() {
        // 4 fast (~100 MB/s), 2 slow (~0.2 MB/s)
        let t = tp(&[
            (1, 99e6),
            (2, 101e6),
            (3, 100e6),
            (4, 98e6),
            (5, 0.21e6),
            (6, 0.19e6),
        ]);
        let classes = classify_subscribers(&t, 2);
        for s in 1..=4 {
            assert_eq!(classes[&SubscriberId(s)], 0, "sub {s}");
        }
        for s in 5..=6 {
            assert_eq!(classes[&SubscriberId(s)], 1, "sub {s}");
        }
    }

    #[test]
    fn three_way_split() {
        let t = tp(&[
            (1, 100e6),
            (2, 90e6),
            (3, 1e6),
            (4, 1.2e6),
            (5, 1e3),
            (6, 2e3),
        ]);
        let classes = classify_subscribers(&t, 3);
        assert_eq!(classes[&SubscriberId(1)], 0);
        assert_eq!(classes[&SubscriberId(2)], 0);
        assert_eq!(classes[&SubscriberId(3)], 1);
        assert_eq!(classes[&SubscriberId(4)], 1);
        assert_eq!(classes[&SubscriberId(5)], 2);
        assert_eq!(classes[&SubscriberId(6)], 2);
    }

    #[test]
    fn degenerate_inputs() {
        assert!(classify_subscribers(&HashMap::new(), 3).is_empty());
        let one = tp(&[(1, 5e6)]);
        assert_eq!(classify_subscribers(&one, 3)[&SubscriberId(1)], 0);
        // uniform population: everyone lands in some class, none out of range
        let uniform = tp(&[(1, 1e6), (2, 1e6), (3, 1e6), (4, 1e6)]);
        for (_, c) in classify_subscribers(&uniform, 2) {
            assert!(c < 2);
        }
    }

    #[test]
    fn single_class_maps_everyone_to_zero() {
        let t = tp(&[(1, 100e6), (2, 1e3)]);
        let classes = classify_subscribers(&t, 1);
        assert!(classes.values().all(|&c| c == 0));
    }

    #[test]
    fn observed_throughput_from_report() {
        use crate::report::JobOutcome;
        use bistro_base::{TimePoint, TimeSpan};
        let report = SimReport {
            outcomes: vec![JobOutcome {
                job: 0,
                subscriber: SubscriberId(1),
                class: 0,
                release: TimePoint::EPOCH,
                deadline: TimePoint::from_secs(10),
                completed: Some(TimePoint::from_secs(2)),
                tardiness: Some(TimeSpan::ZERO),
                attempts: 1,
                service: Some(TimeSpan::from_secs(2)),
                backfill: false,
            }],
            ..Default::default()
        };
        let mut sizes = HashMap::new();
        sizes.insert(0u64, 10_000_000u64);
        let t = observed_throughput(&report, &sizes);
        let rate = t[&SubscriberId(1)];
        assert!((rate - 5_000_000.0).abs() < 1.0, "{rate}");
    }
}
