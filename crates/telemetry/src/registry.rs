//! The metric registry: named counters, gauges and histograms.
//!
//! Handles are `Arc`s; hot paths hold the handle and record through an
//! atomic (or the histogram's lock) without re-resolving names. Names are
//! `component.metric` by convention (`delivery.receipts`,
//! `wal.fsync_us`). Iteration is sorted (`BTreeMap`), so snapshots are
//! byte-identical across identical runs.

use crate::histogram::Histogram;
use crate::json::Json;
use bistro_base::sync::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;

/// A monotone (or bridged-absolute) counter.
pub struct Counter {
    enabled: bool,
    v: AtomicU64,
}

impl Counter {
    fn new(enabled: bool) -> Counter {
        Counter {
            enabled,
            v: AtomicU64::new(0),
        }
    }

    /// A standalone enabled counter (not attached to any registry).
    pub fn detached() -> Counter {
        Counter::new(true)
    }

    /// Add `n`.
    pub fn add(&self, n: u64) {
        if self.enabled {
            self.v.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Add 1.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Overwrite with an absolute total — for bridging an externally
    /// maintained monotone tally (e.g. `vfs::MetaStats`) into a snapshot.
    pub fn set(&self, total: u64) {
        if self.enabled {
            self.v.store(total, Ordering::Relaxed);
        }
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A point-in-time signed level (queue depth, unacked sends, …).
pub struct Gauge {
    enabled: bool,
    v: AtomicI64,
}

impl Gauge {
    fn new(enabled: bool) -> Gauge {
        Gauge {
            enabled,
            v: AtomicI64::new(0),
        }
    }

    /// A standalone enabled gauge (not attached to any registry).
    pub fn detached() -> Gauge {
        Gauge::new(true)
    }

    /// Set the level.
    pub fn set(&self, v: i64) {
        if self.enabled {
            self.v.store(v, Ordering::Relaxed);
        }
    }

    /// Shift the level by `delta` (delta-tracking gauges: live index
    /// postings, queue occupancy maintained at enqueue/dequeue).
    pub fn add(&self, delta: i64) {
        if self.enabled {
            self.v.fetch_add(delta, Ordering::Relaxed);
        }
    }

    /// Raise the level to at least `v` (running-maximum gauges).
    pub fn set_max(&self, v: i64) {
        if self.enabled {
            self.v.fetch_max(v, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.v.load(Ordering::Relaxed)
    }
}

enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Shared handle to a registry.
pub type SharedRegistry = Arc<Registry>;

/// A registry of named metrics. Get-or-create by name; handles stay
/// valid for the registry's lifetime.
pub struct Registry {
    enabled: bool,
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// An enabled registry.
    pub fn new() -> SharedRegistry {
        Arc::new(Registry {
            enabled: true,
            metrics: Mutex::new(BTreeMap::new()),
        })
    }

    /// A registry whose handles drop every record — the no-op baseline
    /// for overhead measurement.
    pub fn disabled() -> SharedRegistry {
        Arc::new(Registry {
            enabled: false,
            metrics: Mutex::new(BTreeMap::new()),
        })
    }

    /// Get or create the counter `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind
    /// (a naming bug worth failing loudly on).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new(self.enabled))))
        {
            Metric::Counter(c) => c.clone(),
            _ => panic!("metric {name} is not a counter"),
        }
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new(self.enabled))))
        {
            Metric::Gauge(g) => g.clone(),
            _ => panic!("metric {name} is not a gauge"),
        }
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut metrics = self.metrics.lock();
        match metrics
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(self.enabled))))
        {
            Metric::Histogram(h) => h.clone(),
            _ => panic!("metric {name} is not a histogram"),
        }
    }

    /// Value of a registered counter (`None` if absent or not a counter).
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Level of a registered gauge.
    pub fn gauge_value(&self, name: &str) -> Option<i64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Gauge(g)) => Some(g.get()),
            _ => None,
        }
    }

    /// Quantile point estimate of a registered histogram (empty
    /// histograms and absent names yield `None`).
    pub fn histogram_quantile(&self, name: &str, q: f64) -> Option<u64> {
        match self.metrics.lock().get(name) {
            Some(Metric::Histogram(h)) => h.quantile(q),
            _ => None,
        }
    }

    /// Render every metric, sorted by name, as a JSON object:
    /// `{"counters": {..}, "gauges": {..}, "histograms": {..}}`.
    /// Histograms export `{count, sum, min, max, p50, p90, p99}`; empty
    /// histograms export `{"count": 0}`.
    pub fn snapshot_json(&self) -> Json {
        let metrics = self.metrics.lock();
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in metrics.iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), Json::Num(c.get() as f64))),
                Metric::Gauge(g) => gauges.push((name.clone(), Json::Num(g.get() as f64))),
                Metric::Histogram(h) => {
                    let body = match h.summary() {
                        Some(s) => Json::Obj(vec![
                            ("count".into(), Json::Num(s.count as f64)),
                            ("sum".into(), Json::Num(s.sum as f64)),
                            ("min".into(), Json::Num(s.min as f64)),
                            ("max".into(), Json::Num(s.max as f64)),
                            ("p50".into(), Json::Num(s.p50 as f64)),
                            ("p90".into(), Json::Num(s.p90 as f64)),
                            ("p99".into(), Json::Num(s.p99 as f64)),
                        ]),
                        None => Json::Obj(vec![("count".into(), Json::Num(0.0))]),
                    };
                    histograms.push((name.clone(), body));
                }
            }
        }
        Json::Obj(vec![
            ("counters".into(), Json::Obj(counters)),
            ("gauges".into(), Json::Obj(gauges)),
            ("histograms".into(), Json::Obj(histograms)),
        ])
    }

    /// `(name, value)` of every counter, sorted — for text reports.
    pub fn counters_sorted(&self) -> Vec<(String, u64)> {
        self.metrics
            .lock()
            .iter()
            .filter_map(|(n, m)| match m {
                Metric::Counter(c) => Some((n.clone(), c.get())),
                _ => None,
            })
            .collect()
    }

    /// `(name, level)` of every gauge, sorted.
    pub fn gauges_sorted(&self) -> Vec<(String, i64)> {
        self.metrics
            .lock()
            .iter()
            .filter_map(|(n, m)| match m {
                Metric::Gauge(g) => Some((n.clone(), g.get())),
                _ => None,
            })
            .collect()
    }

    /// `(name, summary)` of every non-empty histogram, sorted.
    pub fn histograms_sorted(&self) -> Vec<(String, crate::histogram::HistogramSummary)> {
        self.metrics
            .lock()
            .iter()
            .filter_map(|(n, m)| match m {
                Metric::Histogram(h) => h.summary().map(|s| (n.clone(), s)),
                _ => None,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_roundtrip_and_reuse() {
        let reg = Registry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        assert_eq!(reg.counter_value("x.hits"), Some(3));
        assert_eq!(reg.counter_value("x.other"), None);
    }

    #[test]
    fn gauge_set_and_max() {
        let reg = Registry::new();
        let g = reg.gauge("q.depth");
        g.set(5);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(reg.gauge_value("q.depth"), Some(9));
    }

    #[test]
    fn disabled_registry_is_noop() {
        let reg = Registry::disabled();
        let c = reg.counter("x");
        let g = reg.gauge("y");
        let h = reg.histogram("z");
        c.inc();
        g.set(7);
        h.record(100);
        assert_eq!(c.get(), 0);
        assert_eq!(g.get(), 0);
        assert_eq!(h.count(), 0);
    }

    #[test]
    #[should_panic(expected = "is not a counter")]
    fn kind_collision_panics() {
        let reg = Registry::new();
        reg.gauge("dual");
        reg.counter("dual");
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = Registry::new();
        reg.counter("z.last").add(1);
        reg.counter("a.first").add(2);
        reg.gauge("m.mid").set(-3);
        reg.histogram("h.lat").record(100);
        let a = reg.snapshot_json().render();
        let b = reg.snapshot_json().render();
        assert_eq!(a, b);
        let idx_a = a.find("a.first").unwrap();
        let idx_z = a.find("z.last").unwrap();
        assert!(idx_a < idx_z, "counters not sorted: {a}");
        assert!(a.contains("\"m.mid\":-3"), "{a}");
        assert!(a.contains("\"p99\""), "{a}");
    }
}
