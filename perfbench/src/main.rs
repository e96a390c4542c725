//! `perfbench`: one benchmark for the S-CORE reproduction.
//!
//! ```text
//! perfbench --workload <paper_static|trace_mega|serve_mixed|serve_observed>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced runs (`--trace 0`) measure the end-to-end metrics; traced runs
//! (`--trace 1`) time each layer's public functions from here, on a replica
//! built beside the session, and report the per-layer metrics. Every run
//! checks the program's outputs; a run that fails a check reports failure
//! instead of numbers. The last stdout line is the JSON result. See
//! `DESIGN.md` for the workloads, metrics and predictions.

mod inputs;
mod replica;
mod serve;
mod sim;
mod stats;

use stats::{Metric, Outcome, Profile};

/// Output checks of one run.
#[derive(Default)]
pub struct Checks {
    failures: Vec<String>,
}

impl Checks {
    pub fn fail(&mut self, what: &str) {
        if self.failures.len() < 20 {
            self.failures.push(what.to_string());
        }
    }

    pub fn require(&mut self, ok: bool, what: &str) {
        if !ok {
            self.fail(what);
        }
    }

    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

/// The end-to-end figures every workload reports (see `DESIGN.md` for
/// what the operation and its throughput are on each workload).
pub struct Summary {
    pub setup_s: f64,
    pub op_p50_us: f64,
    pub op_tail_us: f64,
    pub ops_per_s: f64,
    pub cost_ratio: f64,
    pub migrated_gb: f64,
    pub peak_rss_mb: f64,
    /// Workload-specific figures printed beside the metrics (not part of
    /// the result line).
    pub extra: Vec<(&'static str, f64, &'static str)>,
}

/// The traced run's spans and counts.
#[derive(Default)]
pub struct Layers {
    pub prof: Profile,
    /// Traced minus untraced run time of the workload's measured phase.
    pub overhead_s: f64,
}

impl Layers {
    pub fn absorb(&mut self, other: Profile) {
        for (name, s) in other.spans {
            let e = self.prof.spans.entry(name).or_default();
            e.ns += s.ns;
            e.calls += s.calls;
        }
        for (name, c) in other.counts {
            *self.prof.counts.entry(name).or_default() += c;
        }
    }
}

pub struct Run {
    pub checks: Checks,
    pub attempted: u64,
    pub failed: u64,
    pub summary: Summary,
    pub layers: Layers,
}

const WORKLOADS: [&str; 4] = [
    "paper_static",
    "trace_mega",
    "serve_mixed",
    "serve_observed",
];

fn end_to_end(s: &Summary) -> Vec<Metric> {
    vec![
        Metric {
            name: "setup_s",
            value: s.setup_s,
            unit: "s",
        },
        Metric {
            name: "op_p50_us",
            value: s.op_p50_us,
            unit: "us",
        },
        Metric {
            name: "op_tail_us",
            value: s.op_tail_us,
            unit: "us",
        },
        Metric {
            name: "ops_per_s",
            value: s.ops_per_s,
            unit: "1/s",
        },
        Metric {
            name: "cost_ratio",
            value: s.cost_ratio,
            unit: "1",
        },
        Metric {
            name: "migrated_gb",
            value: s.migrated_gb,
            unit: "GB",
        },
        Metric {
            name: "peak_rss_mb",
            value: s.peak_rss_mb,
            unit: "MiB",
        },
    ]
}

/// Derives the per-layer metrics from the traced run's spans. Layers a
/// workload does not exercise report 0.
fn per_layer(l: &Layers) -> (Vec<Metric>, Vec<String>) {
    let p = &l.prof;
    let units = p.counted("units").max(1.0);
    let mean = |name: &str| p.get(name).mean_ns();
    let total = |name: &str| p.get(name).ns as f64;
    // Replica-side spans are per replica hold (one ring step each).
    let holds = p.get("core.ring.step").calls as f64;
    let per_hold = |name: &str| {
        if holds > 0.0 {
            total(name) / holds
        } else {
            0.0
        }
    };
    let step = mean("sim.step");
    let ring = mean("core.ring.step");
    let cold_parts = per_hold("core.view.observe")
        + per_hold("core.outlook.predict")
        + per_hold("core.engine.decide");
    let warm_parts = per_hold("core.view.observe.warm")
        + per_hold("core.outlook.predict.warm")
        + per_hold("core.engine.decide.warm");
    // The replica's ring step follows the read-only calls on warm data,
    // so its self time subtracts the warm pass; the session's own step
    // meets the data cold, so the hold adds the cold pass back.
    let ring_self = ring - warm_parts;
    let step_parts = cold_parts + ring_self + per_hold("xen.precopy");
    let sparse_layers = [
        "traffic.apply_updates",
        "core.cluster.patch",
        "core.ledger.reprice",
        "traffic.forecast.observe",
        "trace.recorder.record",
        "core.cluster.fail_host",
    ];
    let sparse_events = [
        "sim.event.set_rate",
        "sim.event.place",
        "sim.event.remove",
        "sim.event.fault",
    ];
    let ratio = |parts: f64, whole: f64| if whole > 0.0 { parts / whole } else { 0.0 };
    let scale_layers = [
        "traffic.scale_all",
        "core.cluster.scale",
        "core.ledger.scale",
    ];
    // Session-level event spans come from the untraced episodes, layer
    // spans from the traced ones; both cover the same stream per episode.
    let untraced = p.counted("units.untraced").max(1.0);
    let event_cover = ratio(
        sparse_layers
            .iter()
            .chain(&scale_layers)
            .map(|n| total(n))
            .sum::<f64>()
            / units,
        sparse_events
            .iter()
            .chain(&["sim.event.scale_all"])
            .map(|n| total(n))
            .sum::<f64>()
            / untraced,
    );
    let hold_cover = ratio(step_parts, step);
    let ring_cover = ratio(warm_parts, ring);
    let mut failures = Vec::new();
    for (name, cover) in [
        ("hold", hold_cover),
        ("ring", ring_cover),
        ("event", event_cover),
    ] {
        if cover > 1.0 + sim::RECONCILE_TOLERANCE {
            failures.push(format!(
                "layer spans cover {cover:.3} of the {name} span (tolerance {})",
                sim::RECONCILE_TOLERANCE
            ));
        }
    }
    let m = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let metrics = vec![
        m("setup.topology_ms", mean("setup.topology") / 1e6, "ms"),
        m("setup.cluster_ms", mean("setup.cluster") / 1e6, "ms"),
        m("setup.ledger_ms", mean("setup.ledger") / 1e6, "ms"),
        m("setup.ring_ms", mean("setup.ring") / 1e6, "ms"),
        m("setup.session_ms", mean("setup.session") / 1e6, "ms"),
        m("sim.step_ns", step, "ns"),
        m("core.ring.step_ns", ring, "ns"),
        m("core.view.observe_ns", mean("core.view.observe"), "ns"),
        m(
            "core.outlook.predict_ns",
            mean("core.outlook.predict"),
            "ns",
        ),
        m("core.engine.decide_ns", mean("core.engine.decide"), "ns"),
        m("core.ring.self_ns", ring_self, "ns"),
        m("sim.step_self_ns", step - step_parts, "ns"),
        m("xen.precopy_ns", mean("xen.precopy"), "ns"),
        m(
            "core.engine.candidates",
            ratio(p.counted("core.engine.candidates"), holds),
            "count",
        ),
        m(
            "core.engine.rejected_capacity",
            ratio(p.counted("core.engine.rejected_capacity"), holds),
            "count",
        ),
        m(
            "core.engine.accept_ratio",
            ratio(p.counted("core.engine.accepted"), holds),
            "1",
        ),
        m("sim.event.set_rate_ns", mean("sim.event.set_rate"), "ns"),
        m(
            "sim.event.scale_all_ms",
            mean("sim.event.scale_all") / 1e6,
            "ms",
        ),
        m("sim.event.place_us", mean("sim.event.place") / 1e3, "us"),
        m("sim.event.remove_us", mean("sim.event.remove") / 1e3, "us"),
        m("sim.event.fault_us", mean("sim.event.fault") / 1e3, "us"),
        m(
            "traffic.apply_updates_ns",
            mean("traffic.apply_updates"),
            "ns",
        ),
        m("core.cluster.patch_ns", mean("core.cluster.patch"), "ns"),
        m("core.ledger.reprice_ns", mean("core.ledger.reprice"), "ns"),
        m(
            "traffic.scale_all_ms",
            mean("traffic.scale_all") / 1e6,
            "ms",
        ),
        m(
            "core.cluster.scale_ms",
            mean("core.cluster.scale") / 1e6,
            "ms",
        ),
        m(
            "core.ledger.scale_ms",
            mean("core.ledger.scale") / 1e6,
            "ms",
        ),
        m(
            "traffic.forecast.observe_ns",
            mean("traffic.forecast.observe"),
            "ns",
        ),
        m(
            "trace.recorder.record_ns",
            mean("trace.recorder.record"),
            "ns",
        ),
        m(
            "core.cluster.fail_host_us",
            mean("core.cluster.fail_host") / 1e3,
            "us",
        ),
        m(
            "core.ledger.pairs_repriced",
            p.counted("core.ledger.pairs_repriced") / units,
            "count",
        ),
        m(
            "core.ledger.resyncs",
            p.counted("core.ledger.resyncs"),
            "count",
        ),
        m(
            "sim.evacuations",
            p.counted("sim.evacuations") / units,
            "count",
        ),
        m(
            "sim.unplaceable",
            p.counted("sim.unplaceable") / units,
            "count",
        ),
        m("sim.report_ms", mean("sim.report") / 1e6, "ms"),
        m("sim.report_json_ms", mean("sim.report_json") / 1e6, "ms"),
        m(
            "sim.report_bytes",
            p.counted("sim.report_bytes") / units,
            "bytes",
        ),
        m(
            "scored.engine.report_json_ms",
            mean("scored.engine.report_json") / 1e6,
            "ms",
        ),
        m(
            "scored.engine.trace_lines_us",
            mean("scored.engine.trace_lines") / 1e3,
            "us",
        ),
        m(
            "scored.broadcast_bytes",
            ratio(
                p.counted("scored.broadcast_bytes"),
                p.counted("scored.writes"),
            ),
            "bytes",
        ),
        m("scored.proto.parse_ns", mean("scored.proto.parse"), "ns"),
        m(
            "scored.proto.serialize_ns",
            mean("scored.proto.serialize"),
            "ns",
        ),
        m(
            "scored.engine.place_us",
            mean("scored.engine.place") / 1e3,
            "us",
        ),
        m(
            "scored.engine.remove_us",
            mean("scored.engine.remove") / 1e3,
            "us",
        ),
        m(
            "scored.engine.traffic_us",
            mean("scored.engine.traffic") / 1e3,
            "us",
        ),
        m(
            "scored.engine.fault_us",
            mean("scored.engine.fault") / 1e3,
            "us",
        ),
        m(
            "scored.engine.pump_us",
            mean("scored.engine.pump") / 1e3,
            "us",
        ),
        m("obs.snapshot_us", mean("obs.snapshot") / 1e3, "us"),
        m(
            "scored.daemon.wait_us",
            p.counted("scored.daemon.wait_ns") / 1e3 / p.counted("scored.requests").max(1.0),
            "us",
        ),
        m(
            "loadgen.lag_p99_us",
            ratio(p.counted("loadgen.lag_p99_us"), p.counted("loadgen.phases")),
            "us",
        ),
        m("reconcile.hold_cover", hold_cover, "1"),
        m("reconcile.ring_cover", ring_cover, "1"),
        m("reconcile.event_cover", event_cover, "1"),
        m("trace.overhead_s", l.overhead_s, "s"),
    ];
    (metrics, failures)
}

fn parse_args() -> Result<(String, u64, f64, bool), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; expected one of {WORKLOADS:?}"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err(format!("--seconds must be positive, got {seconds}"));
    }
    Ok((workload, seed.unwrap_or(1), seconds, trace.unwrap_or(false)))
}

fn main() {
    let (workload, seed, seconds, traced) = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let run = match workload.as_str() {
        "paper_static" => sim::paper_static(seed, seconds, traced),
        "trace_mega" => sim::trace_mega(seed, seconds, traced),
        "serve_mixed" => serve::serve_mixed(seed, seconds, traced),
        "serve_observed" => serve::serve_observed(seed, seconds, traced),
        _ => unreachable!("validated above"),
    };
    let mut checks = run.checks;
    let metrics = if traced {
        let (metrics, failures) = per_layer(&run.layers);
        for f in failures {
            checks.fail(&f);
        }
        metrics
    } else {
        end_to_end(&run.summary)
    };
    println!(
        "# perfbench {workload} seed={seed} seconds={seconds} trace={} cores={}",
        u8::from(traced),
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    if !traced {
        for (name, value, unit) in &run.summary.extra {
            println!("{workload}.{name} = {value} {unit}");
        }
        println!(
            "{workload}.failed_frac = {} 1",
            run.failed as f64 / run.attempted.max(1) as f64
        );
    }
    for m in &metrics {
        println!("{workload}.{} = {} {}", m.name, m.value, m.unit);
    }
    for f in &checks.failures {
        println!("CHECK FAILED: {f}");
    }
    let correct = checks.passed();
    let outcome = Outcome {
        correct,
        attempted: run.attempted.max(1),
        failed: run.failed,
        // A run that fails a check reports failure, not numbers.
        metrics: if correct { metrics } else { Vec::new() },
    };
    println!("{}", outcome.to_json());
}
