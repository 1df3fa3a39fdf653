//! Lock-cheap metrics registry.
//!
//! Handles ([`Counter`], [`Gauge`], [`Histogram`]) are `Arc`s over
//! atomics: the registry's mutex is taken only to register or enumerate,
//! never on the hot update path. Histogram sums are accumulated in
//! integer micro-units so concurrent updates stay exactly associative —
//! no float-addition ordering can leak scheduling into the exported
//! bytes.
//!
//! Determinism contract: metric *updates* must carry values that are a
//! pure function of `(seed, plan)` — counts, cycles, simulated voltages.
//! Enumeration ([`Registry::samples`]) is sorted by `(name, labels)`, so
//! registration order (which may depend on scheduling) never shows.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds `n` to the counter.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments the counter by one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge holding an `f64` (stored as bits).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Sets the gauge.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value (0.0 if never set).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Scale used to accumulate histogram sums in integer micro-units.
const SUM_SCALE: f64 = 1e6;

/// A fixed-bin histogram with cumulative-friendly bucket upper bounds.
///
/// `bounds` are the finite upper bounds (`le`); an implicit `+Inf` bucket
/// catches everything above the last bound. Bucket counts are
/// *per-bucket* (not cumulative); the Prometheus exporter cumulates.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<f64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    /// Sum of observations in micro-units, so concurrent adds commute
    /// exactly (integer addition is associative; float addition is not).
    sum_micros: AtomicU64,
}

impl Histogram {
    /// A histogram with the given finite upper bounds (must be strictly
    /// increasing; an `+Inf` bucket is implicit).
    pub fn new(bounds: &[f64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, v: f64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        let micros = (v.max(0.0) * SUM_SCALE).round() as u64;
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    /// The finite upper bounds.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (one per finite bound, plus the `+Inf` bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of observations (reconstructed from the micro-unit
    /// accumulator, so it is exactly reproducible across schedules).
    pub fn sum(&self) -> f64 {
        self.sum_micros.load(Ordering::Relaxed) as f64 / SUM_SCALE
    }
}

/// Identity of a metric: name plus sorted label pairs.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct MetricId {
    /// Metric name (Prometheus-style, e.g. `redvolt_bus_retries_total`).
    pub name: String,
    /// Label pairs, sorted by key.
    pub labels: Vec<(String, String)>,
}

impl MetricId {
    /// Builds an id, sorting the labels.
    pub fn new(name: &str, labels: &[(&str, &str)]) -> Self {
        let mut labels: Vec<(String, String)> = labels
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect();
        labels.sort();
        MetricId {
            name: name.to_string(),
            labels,
        }
    }
}

/// One registered metric.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// A point-in-time reading of one metric, for exporters.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric identity.
    pub id: MetricId,
    /// The reading.
    pub value: SampleValue,
}

/// The value part of a [`Sample`].
#[derive(Debug, Clone, PartialEq)]
pub enum SampleValue {
    /// Counter reading.
    Counter(u64),
    /// Gauge reading.
    Gauge(f64),
    /// Histogram reading: finite bounds, per-bucket counts (`bounds.len()
    /// + 1` entries, last is `+Inf`), total count, and sum.
    Histogram {
        /// Finite upper bounds.
        bounds: Vec<f64>,
        /// Per-bucket (non-cumulative) counts.
        buckets: Vec<u64>,
        /// Total observations.
        count: u64,
        /// Sum of observations.
        sum: f64,
    },
}

/// Registry of named metrics. Cloneable handles do the hot-path updates;
/// the internal mutex guards only registration and enumeration.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<MetricId, Metric>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Returns (registering on first use) the counter `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered as a different kind.
    pub fn counter(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Counter> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::default())))
        {
            Metric::Counter(c) => Arc::clone(c),
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Returns (registering on first use) the gauge `name{labels}`.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered as a different kind.
    pub fn gauge(&self, name: &str, labels: &[(&str, &str)]) -> Arc<Gauge> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::default())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Returns (registering on first use) the histogram `name{labels}`
    /// with the given finite bucket bounds.
    ///
    /// # Panics
    ///
    /// Panics if the id is already registered as a different kind or with
    /// different bounds.
    pub fn histogram(&self, name: &str, labels: &[(&str, &str)], bounds: &[f64]) -> Arc<Histogram> {
        let id = MetricId::new(name, labels);
        let mut metrics = self.metrics.lock().expect("registry lock");
        match metrics
            .entry(id)
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new(bounds))))
        {
            Metric::Histogram(h) => {
                assert_eq!(h.bounds(), bounds, "{name} re-registered with new bounds");
                Arc::clone(h)
            }
            other => panic!("{name} already registered as {other:?}"),
        }
    }

    /// Snapshot of every metric, sorted by `(name, labels)` — the
    /// deterministic enumeration the exporters render.
    pub fn samples(&self) -> Vec<Sample> {
        let metrics = self.metrics.lock().expect("registry lock");
        metrics
            .iter()
            .map(|(id, metric)| Sample {
                id: id.clone(),
                value: match metric {
                    Metric::Counter(c) => SampleValue::Counter(c.get()),
                    Metric::Gauge(g) => SampleValue::Gauge(g.get()),
                    Metric::Histogram(h) => SampleValue::Histogram {
                        bounds: h.bounds().to_vec(),
                        buckets: h.bucket_counts(),
                        count: h.count(),
                        sum: h.sum(),
                    },
                },
            })
            .collect()
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.metrics.lock().expect("registry lock").len()
    }

    /// Whether no metric is registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("hits_total", &[]);
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same id returns the same underlying counter.
        reg.counter("hits_total", &[]).inc();
        assert_eq!(c.get(), 6);

        let g = reg.gauge("vccint_mv", &[("cell", "vgg/b0")]);
        g.set(602.5);
        assert_eq!(g.get(), 602.5);
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn histogram_buckets_count_and_sum() {
        let h = Histogram::new(&[1.0, 10.0, 100.0]);
        for v in [0.5, 1.0, 5.0, 50.0, 500.0, 5000.0] {
            h.observe(v);
        }
        assert_eq!(h.bucket_counts(), vec![2, 1, 1, 2]);
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5556.5);
    }

    #[test]
    fn samples_are_sorted_regardless_of_registration_order() {
        let reg = Registry::new();
        reg.counter("z_total", &[]).inc();
        reg.gauge("a_mv", &[("cell", "b")]).set(1.0);
        reg.gauge("a_mv", &[("cell", "a")]).set(2.0);
        let names: Vec<String> = reg
            .samples()
            .iter()
            .map(|s| format!("{}{:?}", s.id.name, s.id.labels))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted);
    }

    #[test]
    fn labels_are_order_insensitive() {
        let a = MetricId::new("m", &[("x", "1"), ("y", "2")]);
        let b = MetricId::new("m", &[("y", "2"), ("x", "1")]);
        assert_eq!(a, b);
    }

    #[test]
    fn concurrent_updates_are_exact() {
        let reg = Registry::new();
        let c = reg.counter("n_total", &[]);
        let h = reg.histogram("v", &[], &[10.0]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let c = Arc::clone(&c);
                let h = Arc::clone(&h);
                scope.spawn(move || {
                    for i in 0..1000 {
                        c.inc();
                        h.observe(f64::from(i % 20));
                    }
                });
            }
        });
        assert_eq!(c.get(), 4000);
        assert_eq!(h.count(), 4000);
        // 0..=10 land in the first bucket: 11 of every 20 values.
        assert_eq!(h.bucket_counts(), vec![4 * 50 * 11, 4 * 50 * 9]);
        // Integer micro-unit accumulation: the sum is exact.
        let per_thread: f64 = (0..1000).map(|i| f64::from(i % 20)).sum();
        assert_eq!(h.sum(), 4.0 * per_thread);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_conflicts_are_rejected() {
        let reg = Registry::new();
        reg.counter("m", &[]);
        reg.gauge("m", &[]);
    }
}
