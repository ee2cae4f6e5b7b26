//! Metrics registry: counters, gauges and fixed-bucket histograms.
//!
//! Names are dotted paths (`subsystem.object.metric`, e.g.
//! `cache.hist.hits`, `transfer.link.0.bytes`) stored in a `BTreeMap` so
//! every export iterates in a deterministic order. Each metric carries a
//! [`MetricClass`] mirroring the repo's two kinds of numbers (see
//! `fgnn_memsim::stage`): `Exact` values are simulated/deterministic and
//! participate in equivalence tests; `Measured` values are wall-clock or
//! scheduling-dependent and are excluded from deterministic exports.

use std::collections::BTreeMap;

/// Determinism class of a metric.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricClass {
    /// Simulated / exact: identical across reruns of a seeded workload.
    Exact,
    /// Wall-clock or scheduling-dependent: varies between runs.
    Measured,
}

impl MetricClass {
    /// Lower-case name used in exports.
    pub fn name(self) -> &'static str {
        match self {
            MetricClass::Exact => "exact",
            MetricClass::Measured => "measured",
        }
    }
}

/// Fixed-bucket histogram: `bounds` are inclusive upper edges, with one
/// implicit overflow bucket, so `counts.len() == bounds.len() + 1`.
///
/// `Exact`-class histograms must only observe integer-valued quantities
/// (ages in iterations, depths): then `sum` stays exactly representable
/// and [`Histogram::subtract`] is exact, which the differential
/// checkpoint test relies on.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Histogram {
    bounds: Vec<f64>,
    counts: Vec<u64>,
    count: u64,
    sum: f64,
}

impl Histogram {
    /// New histogram over ascending `bounds`.
    pub fn new(bounds: &[f64]) -> Self {
        debug_assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "bounds not ascending"
        );
        Histogram {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
            count: 0,
            sum: 0.0,
        }
    }

    /// Rebuild from externally-accumulated bucket `counts` (e.g. atomics
    /// shared with worker threads). `counts` must be one longer than
    /// `bounds` (the overflow bucket); `sum` is the sum of raw values.
    pub fn from_parts(bounds: &[f64], counts: &[u64], sum: f64) -> Self {
        assert_eq!(counts.len(), bounds.len() + 1, "counts/bounds mismatch");
        Histogram {
            bounds: bounds.to_vec(),
            counts: counts.to_vec(),
            count: counts.iter().sum(),
            sum,
        }
    }

    /// Record one observation.
    pub fn observe(&mut self, v: f64) {
        let i = self
            .bounds
            .iter()
            .position(|&b| v <= b)
            .unwrap_or(self.bounds.len());
        self.counts[i] += 1;
        self.count += 1;
        self.sum += v;
    }

    /// Inclusive upper bucket edges.
    pub fn bounds(&self) -> &[f64] {
        &self.bounds
    }

    /// Per-bucket counts (last entry is the overflow bucket).
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observed values.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Upper bucket edge containing the `q`-quantile (`0 < q <= 1`) of the
    /// observations, or `None` for an empty histogram.
    ///
    /// Quantiles over fixed buckets are conservative: the returned value is
    /// the inclusive upper edge of the bucket the quantile observation
    /// landed in, so it never under-reports. The overflow bucket
    /// extrapolates to twice the last edge, and a histogram with no finite
    /// edges reports `f64::INFINITY`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 {
            return None;
        }
        let target = (((self.count as f64) * q).ceil() as u64).clamp(1, self.count);
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return Some(
                    self.bounds
                        .get(i)
                        .copied()
                        .unwrap_or_else(|| self.bounds.last().map_or(f64::INFINITY, |&b| b * 2.0)),
                );
            }
        }
        unreachable!("cumulative bucket counts always reach `count`")
    }

    /// Add another histogram with identical bounds into this one.
    pub fn merge(&mut self, other: &Histogram) {
        if self.count == 0 && self.bounds.is_empty() {
            *self = other.clone();
            return;
        }
        assert_eq!(self.bounds, other.bounds, "merging mismatched histograms");
        for (c, o) in self.counts.iter_mut().zip(&other.counts) {
            *c += o;
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Subtract an earlier snapshot of this histogram (per-epoch deltas).
    pub fn subtract(&mut self, earlier: &Histogram) {
        assert_eq!(
            self.bounds, earlier.bounds,
            "subtracting mismatched histograms"
        );
        for (c, e) in self.counts.iter_mut().zip(&earlier.counts) {
            *c -= e;
        }
        self.count -= earlier.count;
        self.sum -= earlier.sum;
    }
}

/// A metric's current value.
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    /// Monotone unsigned counter.
    Counter(u64),
    /// Last-write-wins level.
    Gauge(f64),
    /// Fixed-bucket histogram.
    Histogram(Histogram),
}

/// The registry: a flat, deterministically-ordered name → value map.
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    map: BTreeMap<String, (MetricClass, MetricValue)>,
}

impl Metrics {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when no metric has been recorded.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Add `v` to the counter `name`, creating it at zero.
    pub fn counter_add(&mut self, name: &str, class: MetricClass, v: u64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert((class, MetricValue::Counter(0)))
        {
            (_, MetricValue::Counter(c)) => *c += v,
            slot => *slot = (class, MetricValue::Counter(v)),
        }
    }

    /// Overwrite the counter `name` with an externally-accumulated total.
    pub fn counter_set(&mut self, name: &str, class: MetricClass, v: u64) {
        self.map
            .insert(name.to_string(), (class, MetricValue::Counter(v)));
    }

    /// Set the gauge `name`.
    pub fn gauge_set(&mut self, name: &str, class: MetricClass, v: f64) {
        self.map
            .insert(name.to_string(), (class, MetricValue::Gauge(v)));
    }

    /// Record one observation into the histogram `name`, creating it over
    /// `bounds` on first use.
    pub fn hist_observe(&mut self, name: &str, class: MetricClass, bounds: &[f64], v: f64) {
        match self
            .map
            .entry(name.to_string())
            .or_insert_with(|| (class, MetricValue::Histogram(Histogram::new(bounds))))
        {
            (_, MetricValue::Histogram(h)) => h.observe(v),
            slot => {
                let mut h = Histogram::new(bounds);
                h.observe(v);
                *slot = (class, MetricValue::Histogram(h));
            }
        }
    }

    /// Overwrite the histogram `name` with an externally-accumulated one.
    pub fn hist_set(&mut self, name: &str, class: MetricClass, h: Histogram) {
        self.map
            .insert(name.to_string(), (class, MetricValue::Histogram(h)));
    }

    /// Add an externally-accumulated histogram into `name`, creating it on
    /// first use. An empty `h` records nothing, so a name nobody observed
    /// stays absent — what per-observation [`Metrics::hist_observe`] calls
    /// would have left.
    pub fn hist_merge(&mut self, name: &str, class: MetricClass, h: Histogram) {
        if h.count() == 0 {
            return;
        }
        match self.map.get_mut(name) {
            Some((_, MetricValue::Histogram(into))) => into.merge(&h),
            _ => self.hist_set(name, class, h),
        }
    }

    /// Current value of the counter `name`.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.map.get(name) {
            Some((_, MetricValue::Counter(c))) => Some(*c),
            _ => None,
        }
    }

    /// Current value of the gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        match self.map.get(name) {
            Some((_, MetricValue::Gauge(g))) => Some(*g),
            _ => None,
        }
    }

    /// The histogram `name`, if recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        match self.map.get(name) {
            Some((_, MetricValue::Histogram(h))) => Some(h),
            _ => None,
        }
    }

    /// Iterate all metrics in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, MetricClass, &MetricValue)> {
        self.map.iter().map(|(k, (c, v))| (k.as_str(), *c, v))
    }

    /// Clone the current state (a baseline for [`Metrics::delta_since`]).
    pub fn snapshot(&self) -> Metrics {
        self.clone()
    }

    /// The change since `earlier`: counters and histograms are subtracted
    /// (a name absent from `earlier` contributes its full value), gauges
    /// report their current level.
    pub fn delta_since(&self, earlier: &Metrics) -> Metrics {
        let mut out = Metrics::new();
        for (name, (class, value)) in &self.map {
            let delta = match (value, earlier.map.get(name)) {
                (MetricValue::Counter(c), Some((_, MetricValue::Counter(e)))) => {
                    MetricValue::Counter(c - e)
                }
                (MetricValue::Histogram(h), Some((_, MetricValue::Histogram(e)))) => {
                    let mut d = h.clone();
                    d.subtract(e);
                    MetricValue::Histogram(d)
                }
                (v, _) => v.clone(),
            };
            out.map.insert(name.clone(), (*class, delta));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_read_back() {
        let mut m = Metrics::new();
        m.counter_add("a.b", MetricClass::Exact, 3);
        m.counter_add("a.b", MetricClass::Exact, 4);
        assert_eq!(m.counter("a.b"), Some(7));
        assert_eq!(m.counter("missing"), None);
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let mut h = Histogram::new(&[1.0, 4.0]);
        for v in [0.5, 1.0, 2.0, 100.0] {
            h.observe(v);
        }
        assert_eq!(h.counts(), &[2, 1, 1]);
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 103.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_walks_buckets_conservatively() {
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        assert_eq!(h.percentile(0.5), None, "empty histogram has no quantile");
        for v in [0.5, 0.7, 1.5, 3.0] {
            h.observe(v);
        }
        // target = ceil(4 * 0.5) = 2 → second observation, first bucket.
        assert_eq!(h.percentile(0.5), Some(1.0));
        assert_eq!(h.percentile(0.75), Some(2.0));
        assert_eq!(h.percentile(1.0), Some(4.0));
        // Tiny q still selects at least the first observation.
        assert_eq!(h.percentile(1e-12), Some(1.0));
    }

    #[test]
    fn percentile_edge_cases() {
        // Empty histogram: every quantile is None, including the extremes.
        let empty = Histogram::new(&[1.0, 2.0]);
        assert_eq!(empty.percentile(0.0), None);
        assert_eq!(empty.percentile(1.0), None);

        // q = 0.0: the target clamps up to the first observation, so the
        // lowest occupied bucket's edge comes back (never a panic or an
        // out-of-range index).
        let mut h = Histogram::new(&[1.0, 2.0, 4.0]);
        h.observe(1.5);
        h.observe(3.0);
        assert_eq!(h.percentile(0.0), Some(2.0));

        // q = 1.0: exactly the last observation's bucket — not overflow.
        assert_eq!(h.percentile(1.0), Some(4.0));

        // Single-bucket saturation: all mass in one bucket means every
        // quantile answers with that bucket's edge.
        let mut sat = Histogram::new(&[8.0, 16.0]);
        for _ in 0..1000 {
            sat.observe(10.0);
        }
        assert_eq!(sat.percentile(0.0), Some(16.0));
        assert_eq!(sat.percentile(0.5), Some(16.0));
        assert_eq!(sat.percentile(0.999), Some(16.0));
        assert_eq!(sat.percentile(1.0), Some(16.0));
    }

    #[test]
    fn percentile_extrapolates_overflow_bucket() {
        let mut h = Histogram::new(&[1.0, 2.0]);
        h.observe(50.0);
        assert_eq!(h.percentile(0.95), Some(4.0), "2× last edge");
        let mut edgeless = Histogram::new(&[]);
        edgeless.observe(1.0);
        assert_eq!(edgeless.percentile(0.5), Some(f64::INFINITY));
    }

    #[test]
    fn delta_subtracts_counters_and_histograms() {
        let mut m = Metrics::new();
        m.counter_add("c", MetricClass::Exact, 5);
        m.hist_observe("h", MetricClass::Exact, &[1.0], 0.0);
        m.gauge_set("g", MetricClass::Exact, 1.0);
        let snap = m.snapshot();
        m.counter_add("c", MetricClass::Exact, 2);
        m.hist_observe("h", MetricClass::Exact, &[1.0], 5.0);
        m.gauge_set("g", MetricClass::Exact, 9.0);
        m.counter_add("new", MetricClass::Exact, 1);
        let d = m.delta_since(&snap);
        assert_eq!(d.counter("c"), Some(2));
        assert_eq!(d.counter("new"), Some(1));
        assert_eq!(d.gauge("g"), Some(9.0));
        let h = d.histogram("h").unwrap();
        assert_eq!(h.counts(), &[0, 1]);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn hist_merge_equals_observing_one_by_one() {
        let (mut merged, mut observed) = (Metrics::new(), Metrics::new());
        merged.hist_merge("h", MetricClass::Exact, Histogram::new(&[1.0, 4.0]));
        assert!(merged.is_empty(), "an empty histogram creates no name");
        for round in [[0.0, 2.0], [3.0, 9.0]] {
            let mut local = Histogram::new(&[1.0, 4.0]);
            for v in round {
                local.observe(v);
                observed.hist_observe("h", MetricClass::Exact, &[1.0, 4.0], v);
            }
            merged.hist_merge("h", MetricClass::Exact, local);
        }
        assert_eq!(merged.histogram("h"), observed.histogram("h"));
        assert_eq!(merged.histogram("h").unwrap().counts(), &[1, 2, 1]);
    }

    #[test]
    fn iteration_is_name_ordered() {
        let mut m = Metrics::new();
        m.counter_add("z", MetricClass::Exact, 1);
        m.counter_add("a", MetricClass::Measured, 1);
        let names: Vec<&str> = m.iter().map(|(n, _, _)| n).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
