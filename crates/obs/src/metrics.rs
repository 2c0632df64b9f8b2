//! A lightweight metrics registry: typed counters, gauges and
//! fixed-bucket histograms keyed by `&'static str`.
//!
//! The registry is deliberately dependency-free and allocation-light:
//! metric sets in a simulator are tiny (tens of keys), so storage is a
//! `Vec` scanned linearly and keys keep their insertion order, which
//! makes every snapshot deterministic without sorting at update time.
//! Snapshots serialize to JSON or CSV with the same fixed field order
//! every run — artifact diffs are meaningful.

use crate::json::{Json, Value};

/// Default histogram bucket upper bounds: powers of two from 1 to
/// 65 536 cycles, spanning zero-load latencies (~15 cycles, §4.1) to
/// deep-saturation queuing. Values above the last bound land in an
/// overflow bucket.
pub const DEFAULT_BOUNDS: [u64; 17] = [
    1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536,
];

/// A fixed-bucket histogram over `u64` samples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    /// Inclusive upper bounds, strictly increasing.
    bounds: Vec<u64>,
    /// `counts[i]` = samples `<= bounds[i]`; the final extra slot is the
    /// overflow bucket.
    counts: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Histogram {
    /// Creates an empty histogram with the given inclusive upper
    /// bounds.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` is empty or not strictly increasing.
    pub fn new(bounds: &[u64]) -> Histogram {
        assert!(!bounds.is_empty(), "histogram needs at least one bucket");
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds must be strictly increasing"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one sample.
    pub fn observe(&mut self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.counts[idx] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample, if any was recorded.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, if any was recorded.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Mean sample; `None` when empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Approximate `p`-th quantile (0..=100): the upper bound of the
    /// bucket containing the quantile rank (exact `max` for the
    /// overflow bucket). `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..=100`.
    pub fn quantile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "quantile outside 0..=100");
        if self.count == 0 {
            return None;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(if i < self.bounds.len() {
                    self.bounds[i]
                } else {
                    self.max
                });
            }
        }
        Some(self.max)
    }

    /// `(upper_bound, count)` pairs, the overflow bucket reported with
    /// `u64::MAX` as its bound.
    pub fn buckets(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.bounds
            .iter()
            .copied()
            .chain(std::iter::once(u64::MAX))
            .zip(self.counts.iter().copied())
    }
}

/// The registry: named counters, gauges and histograms.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    counters: Vec<(&'static str, u64)>,
    gauges: Vec<(&'static str, f64)>,
    histograms: Vec<(&'static str, Histogram)>,
}

impl MetricsRegistry {
    /// Creates an empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Adds `n` to the counter `key`, creating it at zero on first use.
    pub fn add(&mut self, key: &'static str, n: u64) {
        match self.counters.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v += n,
            None => self.counters.push((key, n)),
        }
    }

    /// Increments the counter `key` by one.
    pub fn inc(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of counter `key` (0 if never touched).
    pub fn counter(&self, key: &str) -> u64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    }

    /// Sets the gauge `key` to `value`.
    pub fn set_gauge(&mut self, key: &'static str, value: f64) {
        match self.gauges.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => self.gauges.push((key, value)),
        }
    }

    /// Current value of gauge `key`, if ever set.
    pub fn gauge(&self, key: &str) -> Option<f64> {
        self.gauges.iter().find(|(k, _)| *k == key).map(|(_, v)| *v)
    }

    /// Records `value` into histogram `key`, creating it with
    /// [`DEFAULT_BOUNDS`] on first use.
    pub fn observe(&mut self, key: &'static str, value: u64) {
        match self.histograms.iter_mut().find(|(k, _)| *k == key) {
            Some((_, h)) => h.observe(value),
            None => {
                let mut h = Histogram::new(&DEFAULT_BOUNDS);
                h.observe(value);
                self.histograms.push((key, h));
            }
        }
    }

    /// The histogram registered under `key`, if any.
    pub fn histogram(&self, key: &str) -> Option<&Histogram> {
        self.histograms
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, h)| h)
    }

    /// An immutable, name-sorted snapshot for serialization.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut counters: Vec<(String, u64)> = self
            .counters
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        counters.sort();
        let mut gauges: Vec<(String, f64)> = self
            .gauges
            .iter()
            .map(|(k, v)| (k.to_string(), *v))
            .collect();
        gauges.sort_by(|a, b| a.0.cmp(&b.0));
        let mut histograms: Vec<(String, Histogram)> = self
            .histograms
            .iter()
            .map(|(k, h)| (k.to_string(), h.clone()))
            .collect();
        histograms.sort_by(|a, b| a.0.cmp(&b.0));
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// Schema version stamped on every [`MetricsSnapshot::to_json`]
/// document. Bump when the layout changes incompatibly.
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// A frozen, name-sorted view of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` gauges, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// `(name, histogram)` pairs, sorted by name.
    pub histograms: Vec<(String, Histogram)>,
}

impl MetricsSnapshot {
    /// Serializes the snapshot as a single JSON object with fixed field
    /// order (`schema_version`, `counters`, `gauges`, `histograms`).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut doc = Json::compact(&mut out);
        doc.key("schema_version").num(METRICS_SCHEMA_VERSION);
        let mut counters = doc.key("counters").object();
        for (k, v) in &self.counters {
            counters.key(k).num(v);
        }
        counters.end();
        let mut gauges = doc.key("gauges").object();
        for (k, v) in &self.gauges {
            gauges.key(k).f64(*v);
        }
        gauges.end();
        let mut histograms = doc.key("histograms").object();
        for (k, h) in &self.histograms {
            let mut hist = histograms.key(k).object();
            hist.key("count").num(h.count());
            hist.key("sum").num(h.sum());
            hist.key("min").opt(h.min(), Value::num);
            hist.key("max").opt(h.max(), Value::num);
            let mut buckets = hist.key("buckets").array();
            for (bound, count) in h.buckets() {
                let mut pair = buckets.item().array();
                // The overflow bucket has no upper bound.
                pair.item()
                    .opt((bound != u64::MAX).then_some(bound), Value::num);
                pair.item().num(count);
                pair.end();
            }
            buckets.end();
            hist.end();
        }
        histograms.end();
        doc.end();
        out
    }

    /// Serializes the snapshot as CSV rows `kind,name,field,value`
    /// (counters and gauges use field `value`; histograms emit one row
    /// per summary statistic).
    pub fn to_csv(&self) -> String {
        let mut out = String::from("kind,name,field,value\n");
        for (k, v) in &self.counters {
            out.push_str(&format!("counter,{k},value,{v}\n"));
        }
        for (k, v) in &self.gauges {
            out.push_str(&format!("gauge,{k},value,{v}\n"));
        }
        for (k, h) in &self.histograms {
            out.push_str(&format!("histogram,{k},count,{}\n", h.count()));
            out.push_str(&format!("histogram,{k},sum,{}\n", h.sum()));
            if let (Some(mn), Some(mx)) = (h.min(), h.max()) {
                out.push_str(&format!("histogram,{k},min,{mn}\n"));
                out.push_str(&format!("histogram,{k},max,{mx}\n"));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_default_to_zero() {
        let mut m = MetricsRegistry::new();
        m.inc("a");
        m.add("a", 4);
        assert_eq!(m.counter("a"), 5);
        assert_eq!(m.counter("never"), 0);
    }

    #[test]
    fn gauges_overwrite() {
        let mut m = MetricsRegistry::new();
        m.set_gauge("g", 1.5);
        m.set_gauge("g", 2.5);
        assert_eq!(m.gauge("g"), Some(2.5));
        assert_eq!(m.gauge("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_stats() {
        let mut h = Histogram::new(&[10, 100]);
        for v in [5, 7, 50, 1000] {
            h.observe(v);
        }
        assert_eq!(h.count(), 4);
        assert_eq!(h.sum(), 1062);
        assert_eq!(h.min(), Some(5));
        assert_eq!(h.max(), Some(1000));
        let buckets: Vec<(u64, u64)> = h.buckets().collect();
        assert_eq!(buckets, vec![(10, 2), (100, 1), (u64::MAX, 1)]);
    }

    #[test]
    fn quantiles_on_empty_histogram_are_none_not_panic() {
        let h = Histogram::new(&DEFAULT_BOUNDS);
        assert_eq!(h.quantile(0.0), None);
        assert_eq!(h.quantile(50.0), None);
        assert_eq!(h.quantile(100.0), None);
        assert_eq!(h.min(), None);
        assert_eq!(h.mean(), None);
    }

    #[test]
    fn quantiles_walk_buckets() {
        let mut h = Histogram::new(&[10, 100]);
        for _ in 0..9 {
            h.observe(5);
        }
        h.observe(5000);
        assert_eq!(h.quantile(50.0), Some(10), "bucket bound, not sample");
        assert_eq!(h.quantile(100.0), Some(5000), "overflow reports exact max");
    }

    #[test]
    fn snapshot_is_sorted_and_serializes() {
        let mut m = MetricsRegistry::new();
        m.inc("zeta");
        m.inc("alpha");
        m.set_gauge("mid", f64::NAN);
        m.set_gauge("load", 0.25);
        m.observe("lat", 12);
        m.observe("lat", 100_000);
        let snap = m.snapshot();
        assert_eq!(snap.counters[0].0, "alpha");
        let json = snap.to_json();
        assert!(json.starts_with("{\"schema_version\":1,"));
        assert!(json.contains("\"alpha\":1"));
        assert!(json.contains("\"mid\":null"), "NaN gauges become null");
        assert!(json.contains("\"lat\":{\"count\":2"));
        // Exact bytes, generated at `f3a1fbd` (note the `[null,count]`
        // overflow bucket).
        assert_eq!(json, GOLDEN_JSON);
        let csv = snap.to_csv();
        assert!(csv.starts_with("kind,name,field,value\n"));
        assert!(csv.contains("counter,zeta,value,1\n"));
        assert!(csv.contains("histogram,lat,count,2\n"));
        assert_eq!(
            MetricsSnapshot::default().to_json(),
            "{\"schema_version\":1,\"counters\":{},\"gauges\":{},\"histograms\":{}}"
        );
    }

    const GOLDEN_JSON: &str = r#"{"schema_version":1,"counters":{"alpha":1,"zeta":1},"gauges":{"load":0.25,"mid":null},"histograms":{"lat":{"count":2,"sum":100012,"min":12,"max":100000,"buckets":[[1,0],[2,0],[4,0],[8,0],[16,1],[32,0],[64,0],[128,0],[256,0],[512,0],[1024,0],[2048,0],[4096,0],[8192,0],[16384,0],[32768,0],[65536,0],[null,1]]}}}"#;
}
