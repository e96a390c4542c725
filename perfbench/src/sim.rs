//! The two batch workloads: `paper_static` (closed-loop fresh paper-scale
//! sessions run through convergence) and `trace_mega` (a seeded event
//! stream replayed against a 27,648-host fat-tree session).

use crate::inputs::{self, StreamShape, TmShape};
use crate::replica::Replica;
use crate::stats::{median, peak_rss_mib, Latencies};
use crate::{Checks, Layers, Run, Summary};
use score_core::{CostModel, ServerSpec};
use score_sim::{
    ForecastSpec, PlacementSpec, PolicyKind, RunReport, Scenario, Session, TimingSpec, TopologySpec,
};
use score_topology::RackId;
use score_trace::{TimedEvent, TraceEvent};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Distinct session inputs per `paper_static` run; later sessions repeat
/// them and must reproduce their results bit for bit.
const PAPER_DISTINCT: u64 = 12;
/// Iterations of |V| holds each `paper_static` session runs.
const PAPER_ITERATIONS: u32 = 5;
/// Share by which derived self-times may go negative before the layer
/// sums count as not reconciling with the session-level span.
pub const RECONCILE_TOLERANCE: f64 = 0.15;

fn paper_scenario(seed: u64) -> Scenario {
    let shape = TmShape::paper_dense();
    let pairs = shape.generate(inputs::derive(seed, 1));
    let (hold, pass) = (0.08, 0.02);
    let holds = f64::from(PAPER_ITERATIONS * shape.num_vms);
    Scenario::builder()
        .topology(TopologySpec::paper_canonical())
        .workload_seed(inputs::derive(seed, 2))
        .explicit_pairs(shape.num_vms, pairs)
        .placement(PlacementSpec::random())
        .policy(PolicyKind::HighestLevelFirst)
        .timing(TimingSpec {
            // The horizon falls half a hold interval after hold number
            // `holds`, so every session runs exactly that many holds.
            t_end_s: hold + (holds - 0.5) * (hold + pass),
            sample_interval_s: 5.0,
            token_hold_s: hold,
            token_pass_s: pass,
        })
        .seed(seed)
        .build()
}

/// The scenario `serve_*` tenants run: the paper tree and matrix, with a
/// horizon of the workload's choosing and one cost sample per 1,000
/// simulated seconds (a fast-paced tenant's report stays the same size).
pub fn serve_scenario(seed: u64, t_end_s: f64) -> Scenario {
    let mut s = paper_scenario(seed);
    s.timing.t_end_s = t_end_s;
    s.timing.sample_interval_s = 1_000.0;
    s
}

const MEGA_K: u32 = 48;
const MEGA_HORIZON_S: f64 = 1_000.0;

fn mega_shape() -> StreamShape {
    StreamShape {
        horizon_s: MEGA_HORIZON_S,
        sparse: 100_000,
        scale_all: 12,
        churn: 1_000,
        host_crashes: 8,
        rack_fails: 2,
    }
}

fn mega_scenario(seed: u64) -> Scenario {
    let shape = TmShape::mega_sparse();
    let pairs = shape.generate(inputs::derive(seed, 1));
    Scenario::builder()
        .topology(TopologySpec::FatTree {
            k: MEGA_K,
            capacities: None,
        })
        .workload_seed(inputs::derive(seed, 2))
        .explicit_pairs(shape.num_vms, pairs)
        .placement(PlacementSpec::Striped)
        // Twice the paper's slots per host: room for a placement even on a
        // host where two applications and a newcomer's peer gathered.
        .server_spec(ServerSpec {
            vm_slots: 32,
            ram_mb: 32 * 256,
            ..ServerSpec::paper_default()
        })
        .policy(PolicyKind::HighestLevelFirst)
        .forecast(ForecastSpec::Ewma {
            alpha: 0.3,
            horizon_s: 5.0,
        })
        .timing(TimingSpec {
            t_end_s: MEGA_HORIZON_S,
            sample_interval_s: 10.0,
            token_hold_s: 0.008,
            token_pass_s: 0.002,
        })
        .seed(seed)
        .build()
}

fn mega_stream(seed: u64, scenario: &Scenario) -> Vec<TimedEvent> {
    let topo = scenario.topology.build().expect("fat-tree builds");
    let racks: Vec<Vec<u32>> = (0..topo.num_racks() as u32)
        .map(|r| topo.servers_in_rack(RackId::new(r)).collect())
        .collect();
    let score_sim::WorkloadSpec::ExplicitPairs { num_vms, pairs, .. } = &scenario.workload else {
        unreachable!("mega scenarios carry explicit pairs")
    };
    inputs::mega_stream(
        inputs::derive(seed, 3),
        pairs,
        *num_vms,
        topo.num_servers() as u32,
        &racks,
        &mega_shape(),
    )
}

fn pairs_of(scenario: &Scenario) -> &[(u32, u32, f64)] {
    match &scenario.workload {
        score_sim::WorkloadSpec::ExplicitPairs { pairs, .. } => pairs,
        _ => unreachable!("benchmark scenarios carry explicit pairs"),
    }
}

/// Checks a different seed gives different inputs.
fn check_seed_sensitivity(checks: &mut Checks, seed: u64, make: fn(u64) -> Scenario) {
    let a = inputs::fingerprint(pairs_of(&make(seed)));
    let b = inputs::fingerprint(pairs_of(&make(seed.wrapping_add(1))));
    checks.require(a != b, "seeds n and n+1 generated identical inputs");
}

/// The output checks shared by both batch workloads: the incremental
/// ledger equals a full Eq.-(2) recompute and never resynced.
fn check_ledger(checks: &mut Checks, session: &Session) {
    let model = CostModel::new(session.scenario().engine.weights());
    let full = model.total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    let ledger = session.current_cost();
    checks.require(
        (ledger - full).abs() <= 1e-9 * full.abs().max(1.0),
        &format!("ledger C_A {ledger} differs from the Eq.-(2) recompute {full}"),
    );
    checks.require(
        session.ledger_resyncs() == 0,
        &format!("ledger resynced {} times", session.ledger_resyncs()),
    );
}

/// Compares the replica's final state with the session's.
fn check_replica(checks: &mut Checks, session: &Session, report: &RunReport, replica: &Replica) {
    checks.require(
        replica.migrations as usize == report.migrations.len(),
        &format!(
            "replica made {} migrations, session {}",
            replica.migrations,
            report.migrations.len()
        ),
    );
    checks.require(
        replica.cluster().allocation() == session.cluster().allocation(),
        "replica allocation differs from the session's",
    );
    let (a, b) = (replica.ledger_total(), session.current_cost());
    checks.require(
        (a - b).abs() <= 1e-9 * b.abs().max(1.0),
        &format!("replica ledger {a} differs from session ledger {b}"),
    );
    let bytes: f64 = report.migrations.iter().map(|m| m.bytes).sum();
    checks.require(
        (replica.migrated_bytes - bytes).abs() <= 1e-9 * bytes.max(1.0),
        "replica pre-copy bytes differ from the session's",
    );
}

fn migrated_gb(report: &RunReport) -> f64 {
    report.migrations.iter().map(|m| m.bytes).sum::<f64>() / 1e9
}

fn ns(d: Duration) -> f64 {
    d.as_nanos() as f64
}

/// Steps `session` once, timing the hold; `None` at the horizon.
fn timed_step(session: &mut Session, holds: &mut Latencies) -> bool {
    let t = Instant::now();
    let stepped = session.step().is_some();
    if stepped {
        holds.push(ns(t.elapsed()));
    }
    stepped
}

pub fn paper_static(seed: u64, seconds: f64, traced: bool) -> Run {
    let mut checks = Checks::default();
    check_seed_sensitivity(&mut checks, seed, paper_scenario);
    let scenarios: Vec<Scenario> = (0..PAPER_DISTINCT)
        .map(|i| paper_scenario(inputs::derive(seed, 100 + i)))
        .collect();
    let mut setup = Vec::new();
    let mut run = Vec::new();
    let mut holds = Latencies::default();
    let mut first: Vec<Option<(u64, u64)>> = vec![None; scenarios.len()];
    let mut ratios = Vec::new();
    let mut gbs = Vec::new();
    let mut sessions = 0u64;
    let mut layers = Layers::default();
    let mut traced_run = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    while i < 2 * scenarios.len() || start.elapsed().as_secs_f64() < seconds {
        // Traced runs alternate an untraced and a traced session on the
        // same input, so the tracing overhead compares like with like.
        let trace_this = traced && i % 2 == 1;
        let idx = if traced {
            (i / 2) % scenarios.len()
        } else {
            i % scenarios.len()
        };
        i += 1;
        let scenario = &scenarios[idx];
        let t = Instant::now();
        let mut session = scenario.session().expect("paper scenario materializes");
        setup.push(t.elapsed().as_secs_f64());
        let mut replica = trace_this.then(|| {
            layers.prof.span("setup.session", t);
            Replica::build(scenario, false)
        });
        let t_run = Instant::now();
        if let Some(rep) = replica.as_mut() {
            while session.step().is_some() {
                rep.hold(session.now_s());
            }
        } else {
            while timed_step(&mut session, &mut holds) {}
        }
        let elapsed = t_run.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = session.report();
        let report_ns = t.elapsed();
        sessions += 1;

        let v = scenario.workload.num_vms(session.topo().as_ref());
        checks.require(
            report.token_holds as u64 == u64::from(PAPER_ITERATIONS * v),
            &format!(
                "session ran {} holds, not {}",
                report.token_holds,
                PAPER_ITERATIONS * v
            ),
        );
        for w in report.cost_series.windows(2) {
            if w[1].1 > w[0].1 * (1.0 + 1e-12) {
                checks.fail(&format!(
                    "C_A rose from {} to {} under static traffic",
                    w[0].1, w[1].1
                ));
                break;
            }
        }
        check_ledger(&mut checks, &session);
        let ratio = report.final_cost / report.initial_cost;
        let gb = migrated_gb(&report);
        match first[idx] {
            None => {
                first[idx] = Some((ratio.to_bits(), gb.to_bits()));
                ratios.push(ratio);
                gbs.push(gb);
            }
            Some(prev) => checks.require(
                prev == (ratio.to_bits(), gb.to_bits()),
                "the same session seed gave a different cost_ratio or migrated_gb",
            ),
        }
        match replica {
            Some(rep) => {
                check_replica(&mut checks, &session, &report, &rep);
                layers.prof.add_ns("sim.report", report_ns.as_nanos());
                let t = Instant::now();
                let json = report.to_json();
                layers.prof.span("sim.report_json", t);
                layers.prof.count("sim.report_bytes", json.len() as f64);
                layers.prof.count("units", 1.0);
                layers.absorb(rep.prof);
                traced_run.push(elapsed);
            }
            None => run.push(elapsed),
        }
    }
    let holds_per_s = holds.len() as f64 / run.iter().sum::<f64>();
    if traced {
        // Session-level spans come from the untraced sessions, whose
        // caches the replica does not share.
        layers.prof.spans.insert("sim.step", holds.span());
        layers.overhead_s = median(&traced_run) - median(&run);
    }
    let summary = Summary {
        setup_s: median(&setup),
        op_p50_us: holds.percentile(0.50) / 1e3,
        op_tail_us: holds.percentile(0.99) / 1e3,
        ops_per_s: holds_per_s,
        cost_ratio: ratios.iter().sum::<f64>() / ratios.len() as f64,
        migrated_gb: gbs.iter().sum::<f64>() / gbs.len() as f64,
        peak_rss_mb: peak_rss_mib(),
        extra: vec![
            ("sessions", sessions as f64, "count"),
            ("run_s", median(&run), "s"),
            ("hold_p50_us", holds.percentile(0.50) / 1e3, "us"),
            ("hold_p99_us", holds.percentile(0.99) / 1e3, "us"),
            ("hold_samples", holds.len() as f64, "count"),
        ],
    };
    Run {
        checks,
        attempted: sessions,
        failed: 0,
        summary,
        layers,
    }
}

/// Which session-level event span an event's latency lands in.
fn event_span(event: &TraceEvent) -> &'static str {
    match event {
        TraceEvent::SetRate { .. } | TraceEvent::ScalePair { .. } => "sim.event.set_rate",
        TraceEvent::ScaleAll { .. } => "sim.event.scale_all",
        TraceEvent::PlaceVm { .. } => "sim.event.place",
        TraceEvent::RemoveVm { .. } => "sim.event.remove",
        TraceEvent::Marker { .. } => "sim.event.marker",
        TraceEvent::HostCrash { .. }
        | TraceEvent::RackFail { .. }
        | TraceEvent::LinkDegrade { .. }
        | TraceEvent::LinkRestore { .. } => "sim.event.fault",
    }
}

pub fn trace_mega(seed: u64, seconds: f64, traced: bool) -> Run {
    let mut checks = Checks::default();
    check_seed_sensitivity(&mut checks, seed, mega_scenario);
    let scenario = mega_scenario(seed);
    let events = mega_stream(seed, &scenario);
    let mut setup = Vec::new();
    let mut run = Vec::new();
    let mut traced_run = Vec::new();
    let mut holds = Latencies::default();
    let mut event_lat = Latencies::default();
    let mut kind_ns: BTreeMap<&'static str, Latencies> = BTreeMap::new();
    let mut firsts: Option<(u64, u64)> = None;
    let (mut ratio, mut gb) = (f64::NAN, f64::NAN);
    let mut layers = Layers::default();
    let mut episodes = 0u64;
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let start = Instant::now();
    let mut longest = [0.0f64; 2];
    loop {
        // Traced runs alternate untraced and traced episodes: the former
        // give the session-level spans, the latter the replica's layers.
        let trace_this = traced && episodes % 2 == 1;
        let began = Instant::now();
        let t = Instant::now();
        let mut session = scenario.session().expect("mega scenario materializes");
        session.start_trace_recording();
        setup.push(t.elapsed().as_secs_f64());
        let mut replica = trace_this.then(|| {
            layers.prof.span("setup.session", t);
            Replica::build(&scenario, true)
        });
        let mut step = |session: &mut Session, replica: &mut Option<Replica>| match replica {
            Some(rep) => {
                let stepped = session.step().is_some();
                if stepped {
                    rep.hold(session.now_s());
                }
                stepped
            }
            None => timed_step(session, &mut holds),
        };
        let t_run = Instant::now();
        for ev in &events {
            while session.next_event_time().is_some_and(|t| t <= ev.time_s) {
                if !step(&mut session, &mut replica) {
                    break;
                }
            }
            attempted += 1;
            let t = Instant::now();
            let applied = session.apply_trace_event(&ev.event);
            let d = ns(t.elapsed());
            if let Err(e) = applied {
                failed += 1;
                checks.fail(&format!("event {:?} failed: {e}", ev.event));
                continue;
            }
            match replica.as_mut() {
                Some(rep) => rep.apply(&ev.event, session.now_s()),
                None => {
                    event_lat.push(d);
                    kind_ns.entry(event_span(&ev.event)).or_default().push(d);
                }
            }
        }
        while step(&mut session, &mut replica) {}
        let elapsed = t_run.elapsed().as_secs_f64();
        let t = Instant::now();
        let report = session.report();
        let report_ns = t.elapsed();
        episodes += 1;
        check_ledger(&mut checks, &session);
        let r = report.final_cost / report.initial_cost;
        let g = migrated_gb(&report);
        match firsts {
            None => {
                firsts = Some((r.to_bits(), g.to_bits()));
                (ratio, gb) = (r, g);
            }
            Some(prev) => checks.require(
                prev == (r.to_bits(), g.to_bits()),
                "replaying the same seed gave a different cost_ratio or migrated_gb",
            ),
        }
        match replica {
            Some(rep) => {
                check_replica(&mut checks, &session, &report, &rep);
                let recovery = session.recovery_stats();
                checks.require(
                    rep.prof.counted("sim.evacuations") == recovery.evacuations as f64
                        && rep.prof.counted("sim.unplaceable") == recovery.unplaceable_vms as f64,
                    "replica evacuations differ from the session's recovery stats",
                );
                layers.prof.add_ns("sim.report", report_ns.as_nanos());
                let t = Instant::now();
                let json = report.to_json();
                layers.prof.span("sim.report_json", t);
                layers.prof.count("sim.report_bytes", json.len() as f64);
                layers
                    .prof
                    .count("core.ledger.resyncs", session.ledger_resyncs() as f64);
                layers.prof.count("units", 1.0);
                layers.absorb(rep.prof);
                traced_run.push(elapsed);
            }
            None => run.push(elapsed),
        }
        drop(session);
        let kind = usize::from(trace_this);
        longest[kind] = longest[kind].max(began.elapsed().as_secs_f64());
        // Enough episodes for medians and the repeat check, then stop
        // before the next one would overrun the measuring window.
        let next = usize::from(traced && episodes % 2 == 1);
        let enough = if traced {
            episodes >= 2 && episodes.is_multiple_of(2)
        } else {
            episodes >= 2
        };
        if enough && start.elapsed().as_secs_f64() + longest[next].max(longest[0]) > seconds {
            break;
        }
    }
    if traced {
        layers.prof.spans.insert("sim.step", holds.span());
        for (name, lat) in &kind_ns {
            layers.prof.spans.insert(name, lat.span());
        }
        layers.prof.count("units.untraced", run.len() as f64);
        layers.overhead_s = median(&traced_run) - median(&run);
    }
    let hold_total = holds.sum();
    let total = kind_ns.values().map(Latencies::sum).sum::<f64>() + hold_total;
    let mut extra = vec![
        ("episodes", episodes as f64, "count"),
        ("run_s", median(&run), "s"),
        ("hold_p50_us", holds.percentile(0.50) / 1e3, "us"),
        ("hold_p99_us", holds.percentile(0.99) / 1e3, "us"),
        ("event_p50_us", event_lat.percentile(0.50) / 1e3, "us"),
        ("event_p99_us", event_lat.percentile(0.99) / 1e3, "us"),
        ("event_samples", event_lat.len() as f64, "count"),
        ("share.holds", 100.0 * hold_total / total, "%"),
    ];
    for (name, lat) in &kind_ns {
        extra.push((share_name(name), 100.0 * lat.sum() / total, "%"));
    }
    let run_s = median(&run);
    let summary = Summary {
        setup_s: median(&setup),
        op_p50_us: event_lat.percentile(0.50) / 1e3,
        op_tail_us: event_lat.percentile(0.99) / 1e3,
        ops_per_s: events.len() as f64 / run_s,
        cost_ratio: ratio,
        migrated_gb: gb,
        peak_rss_mb: peak_rss_mib(),
        extra,
    };
    Run {
        checks,
        attempted,
        failed,
        summary,
        layers,
    }
}

fn share_name(span: &str) -> &'static str {
    match span {
        "sim.event.set_rate" => "share.set_rate",
        "sim.event.scale_all" => "share.scale_all",
        "sim.event.place" => "share.place",
        "sim.event.remove" => "share.remove",
        "sim.event.fault" => "share.fault",
        _ => "share.other",
    }
}
