//! Small measurement helpers: percentiles, medians, peak RSS, a span
//! accumulator for the traced runs, and the result line.

use std::collections::BTreeMap;
use std::time::Instant;

/// Nearest-rank percentile of `samples` (sorted in place), `q` in `[0, 1]`.
pub fn percentile(samples: &mut [f64], q: f64) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    samples.sort_by(f64::total_cmp);
    let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
    samples[rank - 1]
}

pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kib| kib / 1024.0)
}

/// Busy time and call count of one traced span name.
#[derive(Debug, Default, Clone, Copy)]
pub struct Span {
    pub ns: u128,
    pub calls: u64,
}

impl Span {
    pub fn add(&mut self, since: Instant) {
        self.ns += since.elapsed().as_nanos();
        self.calls += 1;
    }

    /// Mean nanoseconds per call (0 when never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns as f64 / self.calls as f64
        }
    }
}

/// Named spans and counters of a traced run, kept in memory and turned
/// into metrics when the run ends.
#[derive(Debug, Default)]
pub struct Profile {
    pub spans: BTreeMap<&'static str, Span>,
    pub counts: BTreeMap<&'static str, f64>,
}

impl Profile {
    pub fn span(&mut self, name: &'static str, since: Instant) {
        self.spans.entry(name).or_default().add(since);
    }

    pub fn add_ns(&mut self, name: &'static str, ns: u128) {
        let s = self.spans.entry(name).or_default();
        s.ns += ns;
        s.calls += 1;
    }

    pub fn count(&mut self, name: &'static str, by: f64) {
        *self.counts.entry(name).or_default() += by;
    }

    pub fn get(&self, name: &str) -> Span {
        self.spans.get(name).copied().unwrap_or_default()
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }
}

/// One metric of the result line.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// The final outcome of a run, printed as the last stdout line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

fn json_number(x: f64) -> String {
    if x.is_finite() {
        // `{:?}` prints the shortest string that round-trips: all digits.
        format!("{x:?}")
    } else {
        "null".to_string()
    }
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Exact nanosecond latencies in bounded memory: a count per nanosecond
/// below `DENSE_NS`, the rare longer ones kept as they are. Holding
/// millions of samples in a `Vec` made the benchmark's own buffers set the
/// process's peak RSS.
#[derive(Debug, Default)]
pub struct Latencies {
    dense: Vec<u32>,
    sparse: Vec<f64>,
    count: u64,
    total_ns: f64,
}

const DENSE_NS: usize = 100_000;

impl Latencies {
    pub fn push(&mut self, ns: f64) {
        self.count += 1;
        self.total_ns += ns;
        if ns < DENSE_NS as f64 {
            if self.dense.is_empty() {
                self.dense = vec![0; DENSE_NS];
            }
            self.dense[ns as usize] += 1;
        } else {
            self.sparse.push(ns);
        }
    }

    pub fn len(&self) -> usize {
        self.count as usize
    }

    pub fn sum(&self) -> f64 {
        self.total_ns
    }

    pub fn span(&self) -> Span {
        Span {
            ns: self.total_ns as u128,
            calls: self.count,
        }
    }

    /// Nearest-rank percentile, `q` in `[0, 1]` (NaN when empty).
    pub fn percentile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return f64::NAN;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (ns, &c) in self.dense.iter().enumerate() {
            seen += u64::from(c);
            if seen >= rank {
                return ns as f64;
            }
        }
        let mut rest = self.sparse.clone();
        rest.sort_by(f64::total_cmp);
        rest[(rank - seen - 1) as usize]
    }
}
