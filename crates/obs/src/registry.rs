//! Metrics registry: counters, gauges, and quantile-sketch summaries.
//!
//! Handles (`Counter`, `Gauge`, `Summary`) are cheap `Arc`-backed clones;
//! counters and gauges write with relaxed atomics and summaries take a
//! short uncontended lock around their sketch. The registry itself is a
//! name → metric map behind a mutex that is only locked on registration and
//! on export. Snapshots render as Prometheus text exposition format or as
//! JSON.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use crate::json::Json;
use crate::names;
use crate::sketch::QuantileSketch;

/// A monotonically increasing counter.
#[derive(Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl std::fmt::Debug for Counter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Counter").field(&self.get()).finish()
    }
}

impl Counter {
    /// Increments the counter by one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increments the counter by `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge holding the latest `f64` value set on it.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl std::fmt::Debug for Gauge {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Gauge").field(&self.get()).finish()
    }
}

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0.0_f64.to_bits())))
    }
}

impl Gauge {
    /// Replaces the gauge value.
    pub fn set(&self, value: f64) {
        self.0.store(value.to_bits(), Ordering::Relaxed);
    }

    /// Returns the current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A streaming quantile summary backed by a deterministic P² sketch
/// ([`QuantileSketch`]); exported as Prometheus `summary` lines with
/// p50/p95/p99 `quantile` labels.
#[derive(Clone, Default)]
pub struct Summary(Arc<Mutex<QuantileSketch>>);

impl std::fmt::Debug for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Summary")
            .field("count", &self.count())
            .field("sum", &self.sum())
            .finish()
    }
}

impl Summary {
    fn lock(&self) -> std::sync::MutexGuard<'_, QuantileSketch> {
        // A poisoned sketch only means a panic elsewhere mid-observe; the
        // marker state is always structurally valid.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Records one observation (non-finite values are ignored).
    pub fn observe(&self, value: f64) {
        self.lock().observe(value);
    }

    /// Total number of observations.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.lock().count()
    }

    /// Sum of all observations.
    #[must_use]
    pub fn sum(&self) -> f64 {
        self.lock().sum()
    }

    /// Estimate for the tracked quantile nearest to `q`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.lock().quantile(q)
    }

    /// All tracked `(q, estimate)` pairs, ascending by q.
    #[must_use]
    pub fn quantiles(&self) -> [(f64, f64); 3] {
        self.lock().quantiles()
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Summary(Summary),
}

/// A named collection of metrics.
#[derive(Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Registry {
        Registry::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Metric>> {
        // A poisoned registry only means a panic elsewhere; the metric map
        // itself is always structurally valid.
        self.metrics.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Returns the counter registered under `name`, creating it on first use.
    /// If `name` is already a different metric kind, a detached handle is
    /// returned so callers never panic.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Counter::default()))
        {
            Metric::Counter(c) => c.clone(),
            _ => Counter::default(),
        }
    }

    /// Returns the gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Gauge::default()))
        {
            Metric::Gauge(g) => g.clone(),
            _ => Gauge::default(),
        }
    }

    /// Returns the summary registered under `name`, creating it on first
    /// use. Summaries estimate p50/p95/p99 with a deterministic fixed-size
    /// P² sketch (see [`crate::sketch`]).
    pub fn summary(&self, name: &str) -> Summary {
        let mut map = self.lock();
        match map
            .entry(name.to_string())
            .or_insert_with(|| Metric::Summary(Summary::default()))
        {
            Metric::Summary(s) => s.clone(),
            _ => Summary::default(),
        }
    }

    /// Zeroes every registered metric in place. Existing handles stay
    /// attached, so cached `Lazy*` instrumentation sites keep reporting into
    /// the registry after a reset (used between benchmark rounds).
    pub fn reset(&self) {
        let map = self.lock();
        for metric in map.values() {
            match metric {
                Metric::Counter(c) => c.0.store(0, Ordering::Relaxed),
                Metric::Gauge(g) => g.0.store(0.0_f64.to_bits(), Ordering::Relaxed),
                Metric::Summary(s) => s.lock().reset(),
            }
        }
    }

    /// Names of all registered metrics, sorted.
    pub fn names(&self) -> Vec<String> {
        self.lock().keys().cloned().collect()
    }

    /// Renders every metric in Prometheus text exposition format.
    ///
    /// Families (metrics sharing a base name, e.g. per-server labelled
    /// gauges) are grouped under a single `# HELP`/`# TYPE` header pair;
    /// summaries emit their full triplet (the `quantile` series, then
    /// `_sum` and `_count`) with any embedded labels preserved on every
    /// line.
    pub fn to_prometheus(&self) -> String {
        let map = self.lock();
        // Group by family so `# TYPE` appears exactly once per base name
        // even when labelled instances interleave with other families in
        // the sorted key order.
        let mut families: BTreeMap<&str, Vec<(&String, &Metric)>> = BTreeMap::new();
        for (name, metric) in map.iter() {
            families
                .entry(base_name(name))
                .or_default()
                .push((name, metric));
        }
        let mut out = String::new();
        for (base, members) in families {
            if let Some(help) = names::help(base) {
                out.push_str(&format!("# HELP {base} {}\n", escape_help(help)));
            }
            let kind = match members[0].1 {
                Metric::Counter(_) => "counter",
                Metric::Gauge(_) => "gauge",
                Metric::Summary(_) => "summary",
            };
            out.push_str(&format!("# TYPE {base} {kind}\n"));
            for (name, metric) in members {
                let labels = label_body(name);
                match metric {
                    Metric::Counter(c) => {
                        out.push_str(&format!("{name} {}\n", c.get()));
                    }
                    Metric::Gauge(g) => {
                        out.push_str(&format!("{name} {}\n", g.get()));
                    }
                    Metric::Summary(s) => {
                        for (q, est) in s.quantiles() {
                            let series = with_label(base, "", labels, "quantile", &format!("{q}"));
                            out.push_str(&format!("{series} {est}\n"));
                        }
                        out.push_str(&format!("{} {}\n", suffixed(base, "_sum", labels), s.sum()));
                        out.push_str(&format!(
                            "{} {}\n",
                            suffixed(base, "_count", labels),
                            s.count()
                        ));
                    }
                }
            }
        }
        out
    }

    /// Numeric snapshot of every metric whose family base name is `base`,
    /// as `(full key, value)` pairs in sorted key order. Counters and
    /// gauges yield their value; summaries yield the `q`-quantile
    /// (default p99). This is the read API the alert engine
    /// evaluates rules against.
    pub fn family_values(&self, base: &str, q: Option<f64>) -> Vec<(String, f64)> {
        let q = q.unwrap_or(0.99);
        let map = self.lock();
        map.iter()
            .filter(|(name, _)| base_name(name) == base)
            .map(|(name, metric)| {
                let value = match metric {
                    Metric::Counter(c) => c.get() as f64,
                    Metric::Gauge(g) => g.get(),
                    Metric::Summary(s) => s.quantile(q),
                };
                (name.clone(), value)
            })
            .collect()
    }

    /// Renders every metric as a JSON object keyed by metric name.
    pub fn to_json(&self) -> Json {
        let map = self.lock();
        let mut pairs = Vec::with_capacity(map.len());
        for (name, metric) in map.iter() {
            let value = match metric {
                Metric::Counter(c) => Json::obj(vec![
                    ("type", Json::str("counter")),
                    ("value", Json::Num(c.get() as f64)),
                ]),
                Metric::Gauge(g) => Json::obj(vec![
                    ("type", Json::str("gauge")),
                    ("value", Json::Num(g.get())),
                ]),
                Metric::Summary(s) => {
                    let [(_, p50), (_, p95), (_, p99)] = s.quantiles();
                    Json::obj(vec![
                        ("type", Json::str("summary")),
                        ("count", Json::Num(s.count() as f64)),
                        ("sum", Json::Num(s.sum())),
                        ("p50", Json::Num(p50)),
                        ("p95", Json::Num(p95)),
                        ("p99", Json::Num(p99)),
                    ])
                }
            };
            pairs.push((name.clone(), value));
        }
        Json::Obj(pairs)
    }
}

/// Strips an embedded `{label="..."}` suffix so TYPE lines use the family name.
fn base_name(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// The label body of a full metric key: `a{x="1"}` → `x="1"`, else `""`.
fn label_body(name: &str) -> &str {
    match (name.find('{'), name.rfind('}')) {
        (Some(open), Some(close)) if close > open => &name[open + 1..close],
        _ => "",
    }
}

/// `base` + `suffix`, re-attaching any label body: `a_sum{x="1"}`.
fn suffixed(base: &str, suffix: &str, labels: &str) -> String {
    if labels.is_empty() {
        format!("{base}{suffix}")
    } else {
        format!("{base}{suffix}{{{labels}}}")
    }
}

/// `base` + `suffix` with `extra="value"` merged into the label body.
fn with_label(base: &str, suffix: &str, labels: &str, extra: &str, value: &str) -> String {
    let value = escape_label_value(value);
    if labels.is_empty() {
        format!("{base}{suffix}{{{extra}=\"{value}\"}}")
    } else {
        format!("{base}{suffix}{{{labels},{extra}=\"{value}\"}}")
    }
}

/// Escapes a label value per the Prometheus text exposition format:
/// backslash, double quote, and newline become `\\`, `\"`, and `\n`.
#[must_use]
pub fn escape_label_value(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Escapes `# HELP` text per the Prometheus text exposition format:
/// backslash and newline become `\\` and `\n` (quotes stay literal).
#[must_use]
pub fn escape_help(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let c = reg.counter("hits_total");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("hits_total").get(), 5);
        let g = reg.gauge("temp");
        g.set(42.5);
        assert_eq!(reg.gauge("temp").get(), 42.5);
    }

    /// Every quantile a registry exports for the summary `name`: the
    /// Prometheus `quantile` lines, the JSON p50/p95/p99 fields and
    /// `family_values` at each tracked q.
    fn exported_quantiles(reg: &Registry, name: &str) -> Vec<f64> {
        let mut out = Vec::new();
        let text = reg.to_prometheus();
        for line in text.lines() {
            if line.starts_with(&format!("{name}{{quantile=")) {
                let value = line.rsplit(' ').next().expect("sample value");
                out.push(value.parse::<f64>().expect("numeric sample"));
            }
        }
        assert_eq!(out.len(), 3, "{text}");
        let json = reg.to_json();
        let entry = json.get(name).expect("summary in JSON");
        for field in ["p50", "p95", "p99"] {
            out.push(entry.get(field).and_then(Json::as_num).expect(field));
        }
        for q in crate::sketch::TRACKED_QUANTILES {
            out.push(reg.family_values(name, Some(q))[0].1);
        }
        out
    }

    #[test]
    fn summary_quantiles_stay_within_observed_range() {
        let reg = Registry::new();
        // One 649 µs call: every quantile is that call.
        reg.summary("single_ns").observe(649_000.0);
        for est in exported_quantiles(&reg, "single_ns") {
            assert_eq!(est, 649_000.0);
        }
        // One 13.82 s call, the length of a traced grid-search training.
        reg.summary("long_ns").observe(13.82e9);
        for est in exported_quantiles(&reg, "long_ns") {
            assert_eq!(est, 13.82e9);
        }
        // A skewed latency stream: mostly ~3 µs, a few ms-scale outliers.
        let skewed = reg.summary("skewed_ns");
        let mut values = Vec::new();
        for i in 0..500_u32 {
            let v = if i % 97 == 0 {
                9.0e6 + f64::from(i) * 1e3
            } else {
                3_000.0 + f64::from(i % 13) * 10.0
            };
            values.push(v);
            skewed.observe(v);
        }
        values.push(120.0);
        skewed.observe(120.0);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(skewed.count(), 501);
        for est in exported_quantiles(&reg, "skewed_ns") {
            assert!((min..=max).contains(&est), "{est} outside [{min}, {max}]");
        }
    }

    #[test]
    fn prometheus_text_includes_all_families() {
        let reg = Registry::new();
        reg.counter("a_total").inc();
        reg.gauge("b{server=\"0\"}").set(1.5);
        reg.summary("c_ns").observe(300.0);
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE a_total counter"));
        assert!(text.contains("a_total 1"));
        assert!(text.contains("# TYPE b gauge"));
        assert!(text.contains("b{server=\"0\"} 1.5"));
        assert!(text.contains("# TYPE c_ns summary"));
        assert!(text.contains("c_ns{quantile=\"0.99\"} 300"));
        assert!(text.contains("c_ns_count 1"));
    }

    #[test]
    fn json_snapshot_has_quantiles() {
        let reg = Registry::new();
        reg.summary("s").observe(1.5);
        let json = reg.to_json();
        let entry = json.get("s").expect("s present");
        assert_eq!(entry.get("type").and_then(Json::as_str), Some("summary"));
        assert_eq!(entry.get("count").and_then(Json::as_num), Some(1.0));
        assert_eq!(entry.get("p99").and_then(Json::as_num), Some(1.5));
    }

    #[test]
    fn kind_mismatch_returns_detached_handle() {
        let reg = Registry::new();
        reg.counter("x").inc();
        // Asking for the same name as a gauge must not panic.
        reg.gauge("x").set(1.0);
        assert_eq!(reg.counter("x").get(), 1);
        reg.summary("x").observe(1.0);
        assert_eq!(reg.counter("x").get(), 1);
    }

    #[test]
    fn summary_exposes_quantile_series_and_triplet() {
        let reg = Registry::new();
        let s = reg.summary("lat_ns");
        for i in 1..=100 {
            s.observe(i as f64);
        }
        let text = reg.to_prometheus();
        assert!(text.contains("# TYPE lat_ns summary"), "{text}");
        assert!(text.contains("lat_ns{quantile=\"0.5\"}"), "{text}");
        assert!(text.contains("lat_ns{quantile=\"0.95\"}"), "{text}");
        assert!(text.contains("lat_ns{quantile=\"0.99\"}"), "{text}");
        assert!(text.contains("lat_ns_sum 5050"), "{text}");
        assert!(text.contains("lat_ns_count 100"), "{text}");
        let json = reg.to_json();
        let entry = json.get("lat_ns").expect("lat_ns present");
        assert_eq!(entry.get("type").and_then(Json::as_str), Some("summary"));
        let p50 = entry.get("p50").and_then(Json::as_num).expect("p50");
        assert!((p50 - 50.0).abs() < 3.0, "p50 = {p50}");
    }

    #[test]
    fn labelled_summaries_keep_labels_on_every_line() {
        let reg = Registry::new();
        reg.summary("s_c{server=\"3\"}").observe(1.0);
        reg.summary("s_c{server=\"4\"}").observe(5.0);
        let text = reg.to_prometheus();
        assert_eq!(text.matches("# TYPE s_c summary").count(), 1, "{text}");
        for (server, v) in [(3, 1), (4, 5)] {
            for q in ["0.5", "0.95", "0.99"] {
                let line = format!("s_c{{server=\"{server}\",quantile=\"{q}\"}} {v}");
                assert!(text.contains(&line), "{text}");
            }
            assert!(
                text.contains(&format!("s_c_sum{{server=\"{server}\"}} {v}")),
                "{text}"
            );
            assert!(
                text.contains(&format!("s_c_count{{server=\"{server}\"}} 1")),
                "{text}"
            );
        }
    }

    #[test]
    fn type_header_appears_once_per_family() {
        let reg = Registry::new();
        reg.gauge("fleet{server=\"0\"}").set(1.0);
        reg.gauge("fleet{server=\"1\"}").set(2.0);
        reg.counter("fleet2_total").inc();
        let text = reg.to_prometheus();
        assert_eq!(text.matches("# TYPE fleet gauge").count(), 1, "{text}");
        assert_eq!(text.matches("# TYPE fleet2_total counter").count(), 1);
    }

    #[test]
    fn pathological_label_values_are_escaped() {
        let reg = Registry::new();
        let key = format!(
            "weird{{name=\"{}\"}}",
            escape_label_value("a\\b \"quoted\"\nnewline")
        );
        reg.gauge(&key).set(1.0);
        let text = reg.to_prometheus();
        // One line per metric: the raw newline must have been escaped away.
        assert!(
            text.contains("weird{name=\"a\\\\b \\\"quoted\\\"\\nnewline\"} 1"),
            "{text}"
        );
        for line in text.lines() {
            assert!(!line.is_empty(), "blank line in exposition:\n{text}");
        }
    }

    #[test]
    fn help_lines_are_emitted_and_escaped() {
        assert_eq!(escape_help("plain"), "plain");
        assert_eq!(escape_help("a\\b\nc"), "a\\\\b\\nc");
        let reg = Registry::new();
        reg.counter(crate::names::METRIC_ENGINE_STEPS).inc();
        let text = reg.to_prometheus();
        assert!(
            text.contains(&format!("# HELP {} ", crate::names::METRIC_ENGINE_STEPS)),
            "{text}"
        );
    }

    #[test]
    fn family_values_reads_every_kind() {
        let reg = Registry::new();
        reg.counter("fv_total").add(3);
        reg.gauge("fv_g{server=\"0\"}").set(1.5);
        reg.gauge("fv_g{server=\"1\"}").set(2.5);
        let s = reg.summary("fv_s");
        for i in 1..=100 {
            s.observe(i as f64);
        }
        assert_eq!(
            reg.family_values("fv_total", None),
            vec![("fv_total".to_string(), 3.0)]
        );
        let gauges = reg.family_values("fv_g", None);
        assert_eq!(gauges.len(), 2);
        assert_eq!(gauges[0].1, 1.5);
        assert_eq!(gauges[1].1, 2.5);
        let p50 = reg.family_values("fv_s", Some(0.5))[0].1;
        assert!((p50 - 50.0).abs() < 3.0, "p50 = {p50}");
        assert!(reg.family_values("missing", None).is_empty());
    }
}
