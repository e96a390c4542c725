//! Forecast-aware decision benchmark: what does looking ahead cost per
//! decision, and what does it buy on a flash-crowd trace?
//!
//! Two measurements, recorded in `BENCH_forecast.json` at the workspace
//! root:
//!
//! 1. **Per-decision latency** at the paper's 2560-host scale (5120
//!    VMs): one full token-holder decision on the ring's kernel path —
//!    observe the local view into reused buffers, re-rate it to the
//!    peak-demand envelope (`OutlookContext::decision_view_into`), run
//!    `ScoreEngine::decide_scored_with` — with the outlook off
//!    (reactive), EWMA-forecasted, and oracle-forecasted. The outlook
//!    layer must stay cheap enough that forecasting is a policy
//!    question, not a throughput one.
//! 2. **C_A trajectory deltas** on a flash-crowd trace (CI scale, fast
//!    token timing so lookahead spans iterations): the same scenario
//!    run reactive, EWMA and oracle, comparing the time-averaged cost
//!    over the whole run and over the spike-active windows. The oracle
//!    pre-empts spikes — migrating hot VMs together *before* the surge
//!    lands — which is exactly the post-spike cost reduction the
//!    ROADMAP's "trace-aware policies" item asks for.
//!
//! Run with `cargo bench --bench forecast_decisions`.

use criterion::{black_box, Criterion};
use score_core::{
    Cluster, KernelScratch, LocalView, MigrationDecision, OutlookContext, ScoreEngine,
};
use score_sim::{ForecastSpec, RunReport, Scenario, TimingSpec, TopologySpec, TraceSpec};
use score_topology::VmId;
use score_trace::{FlashCrowdShape, OracleForecaster, Trace, TraceEvent};
use score_traffic::{EwmaForecaster, PairTraffic, RateForecaster, TrafficIntensity};
use std::fmt::Write as _;
use std::time::Instant;

const FLASH_SHAPE: FlashCrowdShape = FlashCrowdShape {
    spikes: 6,
    fanout: 4,
    surge_bps: 2e8,
    hold_s: 20.0,
    horizon_s: 120.0,
};
const FLASH_VMS: u32 = 64;
const FLASH_SEED: u64 = 51;
const ORACLE_HORIZON_S: f64 = 30.0;

/// Per-decision latency for one outlook mode at 2560 hosts.
struct LatencyPoint {
    mode: &'static str,
    hosts: usize,
    vms: u32,
    decision_ns: f64,
}

/// Whole-run cost outcome for one forecast mode on the flash trace.
struct TrajectoryPoint {
    mode: &'static str,
    mean_cost: f64,
    spike_window_cost: f64,
    final_cost: f64,
    migrations: usize,
    preempted: u64,
}

/// The reusable buffers of one decision on the ring's kernel path.
#[derive(Default)]
struct DecisionBuffers {
    view: LocalView,
    decision_view: LocalView,
    predicted: Vec<f64>,
    kernel: KernelScratch,
}

/// One full token-holder decision for `vm`, taken the way
/// `TokenRing::step_outlook` takes it: observe into reused buffers,
/// re-rate to the peak envelope when `ctx` forecasts, run the kernel.
fn decide(
    engine: &ScoreEngine,
    ctx: &OutlookContext<'_>,
    vm: VmId,
    cluster: &Cluster,
    traffic: &PairTraffic,
    buf: &mut DecisionBuffers,
) -> MigrationDecision {
    buf.view
        .observe_into(vm, cluster.allocation(), traffic, cluster.topo());
    if ctx.decision_view_into(&buf.view, &mut buf.predicted, &mut buf.decision_view) {
        engine.decide_scored_with(
            &buf.decision_view,
            Some(&buf.view),
            cluster,
            &mut buf.kernel,
        )
    } else {
        engine.decide_scored_with(&buf.view, None, cluster, &mut buf.kernel)
    }
}

/// Measures ns per full decision (observe → envelope → kernel) over the
/// first `reps` token holders of the paper-scale canonical tree.
fn measure_latency(mode: &'static str, forecaster: Option<&dyn RateForecaster>) -> LatencyPoint {
    let scenario = Scenario::builder()
        .topology(TopologySpec::paper_canonical())
        .sparse_traffic(11)
        .build();
    let session = scenario.session().expect("paper-scale scenario builds");
    let cluster = session.cluster();
    let traffic = session.traffic();
    let engine = ScoreEngine::paper_default();
    let ctx = match forecaster {
        Some(f) => OutlookContext::forecast(f, 0.0, ORACLE_HORIZON_S),
        None => OutlookContext::reactive(),
    };
    let reps = 2000u32;
    let mut buf = DecisionBuffers::default();
    let start = Instant::now();
    for i in 0..reps {
        let vm = black_box(VmId::new(i % traffic.num_vms()));
        black_box(decide(&engine, &ctx, vm, cluster, traffic, &mut buf));
    }
    LatencyPoint {
        mode,
        hosts: session.topo().num_servers(),
        vms: traffic.num_vms(),
        decision_ns: start.elapsed().as_nanos() as f64 / f64::from(reps),
    }
}

fn latency_points() -> Vec<LatencyPoint> {
    let scenario = Scenario::builder()
        .topology(TopologySpec::paper_canonical())
        .sparse_traffic(11)
        .build();
    let session = scenario.session().expect("paper-scale scenario builds");
    let traffic = session.traffic().clone();

    let mut ewma = EwmaForecaster::new(0.3);
    ewma.prime(&traffic, 0.0);

    // The oracle indexes a paper-scale flash-crowd future.
    let oracle_trace = score_trace::flash_crowd_trace(
        &traffic,
        &FlashCrowdShape {
            spikes: 18,
            fanout: 8,
            surge_bps: 2e8,
            hold_s: 60.0,
            horizon_s: 700.0,
        },
        11,
    )
    .expect("paper-scale flash trace generates");
    let mut oracle = OracleForecaster::new();
    oracle.load_segment(&oracle_trace.compile().segments[0]);

    vec![
        measure_latency("off", None),
        measure_latency("ewma", Some(&ewma)),
        measure_latency("oracle", Some(&oracle)),
    ]
}

/// The flash-crowd scenario every trajectory mode shares.
fn flash_scenario(forecast: ForecastSpec) -> Scenario {
    let mut s = Scenario::builder()
        .trace(TraceSpec::FlashCrowd {
            num_vms: FLASH_VMS,
            intensity: TrafficIntensity::Sparse,
            seed: FLASH_SEED,
            shape: FLASH_SHAPE,
        })
        .forecast(forecast)
        .seed(FLASH_SEED)
        .build();
    s.timing = TimingSpec {
        t_end_s: FLASH_SHAPE.horizon_s,
        sample_interval_s: 2.0,
        token_hold_s: 0.05,
        token_pass_s: 0.01,
    };
    s
}

/// Spike-active windows `[start, start + hold]`, read from the trace
/// itself (surge re-rates are orders of magnitude above the base TM).
fn spike_windows(trace: &Trace) -> Vec<(f64, f64)> {
    let mut windows: Vec<(f64, f64)> = Vec::new();
    for ev in trace.events() {
        if let TraceEvent::SetRate { rate, .. } = ev.event {
            if rate >= FLASH_SHAPE.surge_bps {
                let w = (ev.time_s, ev.time_s + FLASH_SHAPE.hold_s);
                if windows.last() != Some(&w) {
                    windows.push(w);
                }
            }
        }
    }
    windows
}

fn mean(series: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0usize);
    for x in series {
        sum += x;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn run_trajectory(
    mode: &'static str,
    forecast: ForecastSpec,
    windows: &[(f64, f64)],
) -> TrajectoryPoint {
    let mut session = flash_scenario(forecast)
        .session()
        .expect("flash scenario builds");
    session.run_to_horizon();
    let report: RunReport = session.report();
    let in_window = |t: f64| windows.iter().any(|&(a, b)| t >= a && t <= b);
    TrajectoryPoint {
        mode,
        mean_cost: mean(report.cost_series.iter().map(|&(_, c)| c)),
        spike_window_cost: mean(
            report
                .cost_series
                .iter()
                .filter(|&&(t, _)| in_window(t))
                .map(|&(_, c)| c),
        ),
        final_cost: report.final_cost,
        migrations: report.migrations.len(),
        preempted: report.forecast.preempted,
    }
}

fn trajectory_points() -> Vec<TrajectoryPoint> {
    let trace = flash_scenario(ForecastSpec::None)
        .workload
        .build_trace()
        .expect("trace workload");
    let windows = spike_windows(&trace);
    assert!(!windows.is_empty(), "the flash trace must contain spikes");
    vec![
        run_trajectory("off", ForecastSpec::None, &windows),
        run_trajectory(
            "ewma",
            ForecastSpec::Ewma {
                alpha: 0.5,
                horizon_s: ORACLE_HORIZON_S,
            },
            &windows,
        ),
        run_trajectory(
            "oracle",
            ForecastSpec::TraceOracle {
                horizon_s: ORACLE_HORIZON_S,
            },
            &windows,
        ),
    ]
}

fn bench_forecast(c: &mut Criterion) {
    let mut group = c.benchmark_group("forecast_decisions");
    group.sample_size(10);
    let scenario = Scenario::builder()
        .topology(TopologySpec::small_fattree())
        .sparse_traffic(11)
        .build();
    let session = scenario.session().expect("bench scenario builds");
    let cluster = session.cluster();
    let traffic = session.traffic();
    let engine = ScoreEngine::paper_default();
    let mut ewma = EwmaForecaster::new(0.3);
    ewma.prime(traffic, 0.0);
    group.bench_function("decide/reactive", |b| {
        let ctx = OutlookContext::reactive();
        let mut buf = DecisionBuffers::default();
        b.iter(|| decide(&engine, &ctx, VmId::new(0), cluster, traffic, &mut buf))
    });
    group.bench_function("decide/ewma", |b| {
        let ctx = OutlookContext::forecast(&ewma, 0.0, ORACLE_HORIZON_S);
        let mut buf = DecisionBuffers::default();
        b.iter(|| decide(&engine, &ctx, VmId::new(0), cluster, traffic, &mut buf))
    });
    group.finish();
}

/// Writes `BENCH_forecast.json` at the workspace root.
fn record(latency: &[LatencyPoint], trajectory: &[TrajectoryPoint]) {
    let spike_of = |mode: &str| {
        trajectory
            .iter()
            .find(|p| p.mode == mode)
            .expect("all modes ran")
            .spike_window_cost
    };
    let mut json = String::from(
        "{\n  \"bench\": \"forecast_decisions\",\n  \
         \"note\": \"decision_ns is one full token-holder decision on the ring's kernel path \
         (observe -> peak-envelope re-rate -> decide_scored_with, reused buffers) at 2560 hosts; the trajectory section replays one flash-crowd trace \
         reactive vs EWMA vs oracle-forecasted and averages the sampled C_A over the \
         whole run and over the spike-active windows. \
         oracle_spike_cost_vs_reactive < 1 means the oracle's pre-emptive migrations \
         left less cost on the table while spikes held.\",\n  \"decision_latency\": [\n",
    );
    for (i, p) in latency.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"outlook\": \"{}\", \"hosts\": {}, \"vms\": {}, \"decision_ns\": {:.1}}}",
            p.mode, p.hosts, p.vms, p.decision_ns
        );
        json.push_str(if i + 1 < latency.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"flash_crowd_trajectory\": [\n");
    for (i, p) in trajectory.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"forecast\": \"{}\", \"mean_cost\": {:.6e}, \"spike_window_cost\": {:.6e}, \
             \"final_cost\": {:.6e}, \"migrations\": {}, \"preempted\": {}}}",
            p.mode, p.mean_cost, p.spike_window_cost, p.final_cost, p.migrations, p.preempted
        );
        json.push_str(if i + 1 < trajectory.len() {
            ",\n"
        } else {
            "\n"
        });
    }
    let _ = write!(
        json,
        "  ],\n  \"oracle_spike_cost_vs_reactive\": {:.4},\n  \
         \"ewma_spike_cost_vs_reactive\": {:.4}\n}}\n",
        spike_of("oracle") / spike_of("off"),
        spike_of("ewma") / spike_of("off"),
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|p| p.join("Cargo.toml").exists() && p.join("crates").exists())
        .map(|p| p.join("BENCH_forecast.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_forecast.json"));
    std::fs::write(&path, json).expect("write bench record");
    println!("bench record written to {}", path.display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_forecast(&mut criterion);
    let latency = latency_points();
    for p in &latency {
        println!(
            "decision latency [{:>6}] {} hosts / {} VMs: {:>8.1} ns",
            p.mode, p.hosts, p.vms, p.decision_ns
        );
    }
    let trajectory = trajectory_points();
    for p in &trajectory {
        println!(
            "flash trajectory [{:>6}] mean C_A {:.4e} | spike-window C_A {:.4e} | \
             {} migrations ({} pre-empted)",
            p.mode, p.mean_cost, p.spike_window_cost, p.migrations, p.preempted
        );
    }
    record(&latency, &trajectory);
}
