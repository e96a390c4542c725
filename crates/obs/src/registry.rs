//! Name-keyed metric registry with JSON and Prometheus text renderings.
//!
//! Registration (name → instrument) goes through a mutex-guarded `BTreeMap`,
//! but that happens once per series at attach time: callers hold on to the
//! returned `Arc<Counter>` / `Arc<Gauge>` / `Arc<Histogram>` and update it
//! lock-free afterwards. Series names follow the Prometheus convention and
//! may carry inline labels, e.g. `scored_requests_total{verb="place"}` —
//! the renderer groups series into families by stripping the label block.

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Gauge, Histogram, HistogramSnapshot};

/// One registered instrument.
#[derive(Debug, Clone)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// Metric registry. Cheap to share (`Arc<Registry>` lives inside
/// [`crate::ObsHandle`]); all methods take `&self`.
#[derive(Debug, Default)]
pub struct Registry {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Registry {
    /// New empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter registered under `series`.
    ///
    /// Panics if `series` is already registered as a different instrument
    /// kind — metric names are a global namespace and a kind clash is a
    /// programming error, not a runtime condition.
    pub fn counter(&self, series: &str) -> Arc<Counter> {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(series.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("series {series:?} already registered as a non-counter"),
        }
    }

    /// Get or create the gauge registered under `series`.
    pub fn gauge(&self, series: &str) -> Arc<Gauge> {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(series.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("series {series:?} already registered as a non-gauge"),
        }
    }

    /// Get or create the histogram registered under `series`.
    pub fn histogram(&self, series: &str) -> Arc<Histogram> {
        let mut map = self.metrics.lock().unwrap();
        match map
            .entry(series.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("series {series:?} already registered as a non-histogram"),
        }
    }

    /// Point-in-time copy of every registered series, name-sorted.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let map = self.metrics.lock().unwrap();
        let mut snap = MetricsSnapshot::default();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => snap.counters.push((name.clone(), c.get())),
                Metric::Gauge(g) => snap.gauges.push((name.clone(), g.get())),
                Metric::Histogram(h) => snap.histograms.push((name.clone(), h.snapshot())),
            }
        }
        snap
    }
}

/// Name-sorted copy of a [`Registry`]'s contents.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Counter series and their values.
    pub counters: Vec<(String, u64)>,
    /// Gauge series and their values.
    pub gauges: Vec<(String, f64)>,
    /// Histogram series and their snapshots.
    pub histograms: Vec<(String, HistogramSnapshot)>,
}

/// Split `series` into `(family, labels)`: `a_total{k="v"}` → `("a_total",
/// Some("k=\"v\""))`.
fn split_series(series: &str) -> (&str, Option<&str>) {
    match series.find('{') {
        Some(open) if series.ends_with('}') => {
            (&series[..open], Some(&series[open + 1..series.len() - 1]))
        }
        _ => (series, None),
    }
}

/// Escape a string for embedding in a JSON document.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no Inf/NaN; null keeps the document well-formed.
        "null".to_string()
    }
}

impl MetricsSnapshot {
    /// Render as a JSON object:
    /// `{"counters":{..},"gauges":{..},"histograms":{name:{count,sum,mean,p50,p95,p99,max}}}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{v}", json_escape(name)));
        }
        out.push_str("},\"gauges\":{");
        for (i, (name, v)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\"{}\":{}", json_escape(name), json_f64(*v)));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\"{}\":{{\"count\":{},\"sum\":{},\"mean\":{},\"p50\":{},\"p95\":{},\"p99\":{},\"max\":{}}}",
                json_escape(name),
                h.count,
                h.sum,
                json_f64(h.mean()),
                h.p50(),
                h.p95(),
                h.p99(),
                h.max_bound(),
            ));
        }
        out.push_str("}}");
        out
    }

    /// Render in the Prometheus text exposition format (version 0.0.4).
    ///
    /// Histograms emit cumulative `_bucket{le=..}` series over the non-empty
    /// buckets plus `+Inf`, and `_sum` / `_count` series, merging any inline
    /// labels the series name carries.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: BTreeMap<String, &str> = BTreeMap::new();
        let mut type_line = |out: &mut String, family: &str, kind: &'static str| {
            if typed.insert(family.to_string(), kind).is_none() {
                out.push_str(&format!("# TYPE {family} {kind}\n"));
            }
        };
        for (series, v) in &self.counters {
            let (family, _) = split_series(series);
            type_line(&mut out, family, "counter");
            out.push_str(&format!("{series} {v}\n"));
        }
        for (series, v) in &self.gauges {
            let (family, _) = split_series(series);
            type_line(&mut out, family, "gauge");
            out.push_str(&format!("{series} {v}\n"));
        }
        for (series, h) in &self.histograms {
            let (family, labels) = split_series(series);
            type_line(&mut out, family, "histogram");
            let with_le = |le: &str| match labels {
                Some(l) => format!("{family}_bucket{{{l},le=\"{le}\"}}"),
                None => format!("{family}_bucket{{le=\"{le}\"}}"),
            };
            let mut cum = 0u64;
            for (idx, &n) in h.buckets.iter().enumerate() {
                if n == 0 {
                    continue;
                }
                cum += n;
                let le = HistogramSnapshot::bucket_bound(idx).to_string();
                out.push_str(&format!("{} {cum}\n", with_le(&le)));
            }
            out.push_str(&format!("{} {}\n", with_le("+Inf"), h.count));
            let suffixed = |suffix: &str| match labels {
                Some(l) => format!("{family}_{suffix}{{{l}}}"),
                None => format!("{family}_{suffix}"),
            };
            out.push_str(&format!("{} {}\n", suffixed("sum"), h.sum));
            out.push_str(&format!("{} {}\n", suffixed("count"), h.count));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_or_create_returns_same_instrument() {
        let r = Registry::new();
        r.counter("a_total").add(3);
        r.counter("a_total").add(4);
        assert_eq!(r.counter("a_total").get(), 7);
    }

    #[test]
    #[should_panic(expected = "non-counter")]
    fn kind_clash_panics() {
        let r = Registry::new();
        r.gauge("x");
        r.counter("x");
    }

    #[test]
    fn json_snapshot_is_sorted_and_escaped() {
        let r = Registry::new();
        r.counter("b_total").inc();
        r.counter("a_total{verb=\"place\"}").add(2);
        r.gauge("g").set(1.5);
        r.histogram("h_ns").record(100);
        let json = r.snapshot().to_json();
        let a = json.find("a_total").unwrap();
        let b = json.find("b_total").unwrap();
        assert!(a < b, "names not sorted: {json}");
        assert!(json.contains("a_total{verb=\\\"place\\\"}"), "{json}");
        assert!(json.contains("\"g\":1.5"), "{json}");
        assert!(json.contains("\"count\":1"), "{json}");
    }

    #[test]
    fn prometheus_rendering_groups_families() {
        let r = Registry::new();
        r.counter("req_total{verb=\"place\"}").add(2);
        r.counter("req_total{verb=\"stats\"}").add(1);
        r.histogram("lat_ns{verb=\"place\"}").record(1000);
        let text = r.snapshot().to_prometheus();
        assert_eq!(text.matches("# TYPE req_total counter").count(), 1);
        assert!(text.contains("req_total{verb=\"place\"} 2\n"), "{text}");
        assert!(text.contains("# TYPE lat_ns histogram"), "{text}");
        assert!(
            text.contains("lat_ns_bucket{verb=\"place\",le=\"+Inf\"} 1"),
            "{text}"
        );
        assert!(text.contains("lat_ns_sum{verb=\"place\"} 1000"), "{text}");
        assert!(text.ends_with('\n'));
        // The `+Inf` bucket and `_count` are the same number, always.
        let series_value = |prefix: &str| -> u64 {
            let line = text
                .lines()
                .find(|l| l.starts_with(prefix))
                .unwrap_or_else(|| panic!("no {prefix} line in {text}"));
            line.rsplit(' ').next().unwrap().parse().unwrap()
        };
        assert_eq!(
            series_value("lat_ns_bucket{verb=\"place\",le=\"+Inf\"}"),
            series_value("lat_ns_count{verb=\"place\"}")
        );
    }
}
