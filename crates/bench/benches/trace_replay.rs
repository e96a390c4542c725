//! Trace-replay microbenchmark: mid-run traffic deltas applied in place
//! through `Session::apply_traffic_deltas`, from 128 up to 101,306
//! hosts.
//!
//! Each delta patches the cluster's traffic copy and re-prices the cost
//! ledger over the changed pairs only — this bench pins the events/sec
//! the sparse path sustains (single-pair deltas and whole-TM `ScaleAll`
//! batches, both the expanded per-pair form a compiled trace emits and
//! the dense sweep a `ScaleAll` event takes through
//! `Session::apply_trace_event`) and records it in
//! `BENCH_trace_replay.json` at the workspace root.
//!
//! The 27,648- and 101,306-host fat-tree points (k = 48 / 74) are only
//! measured by the JSON recorder, not the interactive criterion groups,
//! so `cargo bench --bench trace_replay` stays minutes, not hours.
//!
//! Run with `cargo bench --bench trace_replay`.

use criterion::{black_box, Criterion};
use score_sim::{Scenario, Session, TopologySpec};
use score_topology::VmId;
use score_trace::TraceEvent;
use std::fmt::Write as _;
use std::time::Instant;

/// Measured timings for one fabric size.
struct ReplayPoint {
    label: &'static str,
    hosts: usize,
    vms: u32,
    pairs: usize,
    sparse_delta_ns: f64,
    sparse_events_per_sec: f64,
    /// Whole-TM scale expanded to per-pair deltas (the compiled-trace
    /// path).
    scale_all_ns: f64,
    scale_all_events_per_sec: f64,
    /// The dense `ScaleAll` sweep (three contiguous passes,
    /// no per-pair lookups).
    dense_scale_ns: f64,
    dense_scale_events_per_sec: f64,
}

fn session_for(topology: TopologySpec) -> Session {
    Scenario::builder()
        .topology(topology)
        .sparse_traffic(11)
        .build()
        .session()
        .expect("bench scenario is feasible")
}

/// Alternating single-pair re-rates: the sparsest possible delta.
fn sparse_updates(session: &Session) -> [Vec<(VmId, VmId, f64)>; 2] {
    let &(u, v, rate) = session
        .traffic()
        .pairs()
        .first()
        .expect("workload has pairs");
    [vec![(u, v, rate * 1.5)], vec![(u, v, rate)]]
}

/// Alternating whole-TM scale batches: every pair changes.
fn scale_all_updates(session: &Session, factor: f64) -> [Vec<(VmId, VmId, f64)>; 2] {
    let up: Vec<(VmId, VmId, f64)> = session
        .traffic()
        .pairs()
        .iter()
        .map(|&(u, v, r)| (u, v, r * factor))
        .collect();
    let down: Vec<(VmId, VmId, f64)> = session
        .traffic()
        .pairs()
        .iter()
        .map(|&(u, v, r)| (u, v, r))
        .collect();
    [up, down]
}

fn measure(label: &'static str, topology: TopologySpec) -> ReplayPoint {
    let mut session = session_for(topology);
    let hosts = session.topo().num_servers();
    let vms = session.traffic().num_vms();
    let pairs = session.traffic().num_pairs();

    let sparse = sparse_updates(&session);
    let sparse_reps = 2_000u32;
    let start = Instant::now();
    for i in 0..sparse_reps {
        let batch = &sparse[(i % 2) as usize];
        black_box(session.apply_traffic_deltas(black_box(batch)).unwrap());
    }
    let sparse_delta_ns = start.elapsed().as_nanos() as f64 / f64::from(sparse_reps);

    let scale = scale_all_updates(&session, 1.02);
    // The expanded batch re-prices every pair; cap the wall budget on
    // the 100k-host fabrics.
    let scale_reps = if pairs > 100_000 { 16u32 } else { 64u32 };
    let start = Instant::now();
    for i in 0..scale_reps {
        let batch = &scale[(i % 2) as usize];
        black_box(session.apply_traffic_deltas(black_box(batch)).unwrap());
    }
    let scale_all_ns = start.elapsed().as_nanos() as f64 / f64::from(scale_reps);

    // Dense fast path: three contiguous sweeps, no per-pair lookups.
    let dense_reps = 256u32;
    let factor = 1.02f64;
    let start = Instant::now();
    for i in 0..dense_reps {
        let f = if i % 2 == 0 { factor } else { 1.0 / factor };
        let event = TraceEvent::ScaleAll {
            factor: black_box(f),
        };
        black_box(session.apply_trace_event(&event).unwrap());
    }
    let dense_scale_ns = start.elapsed().as_nanos() as f64 / f64::from(dense_reps);

    ReplayPoint {
        label,
        hosts,
        vms,
        pairs,
        sparse_delta_ns,
        sparse_events_per_sec: 1e9 / sparse_delta_ns.max(f64::MIN_POSITIVE),
        scale_all_ns,
        scale_all_events_per_sec: 1e9 / scale_all_ns.max(f64::MIN_POSITIVE),
        dense_scale_ns,
        dense_scale_events_per_sec: 1e9 / dense_scale_ns.max(f64::MIN_POSITIVE),
    }
}

/// Instrumentation cost at the 2,560-host bench point: sparse-delta
/// latency with a fully live `ObsHandle` attached versus bare. The
/// per-delta path publishes no atomics (session/ledger counters update
/// per batch and at sample cadence), so the two must stay within a few
/// percent; the acceptance bar is 5%.
struct OverheadPoint {
    label: &'static str,
    bare_sparse_delta_ns: f64,
    obs_sparse_delta_ns: f64,
    overhead_pct: f64,
}

fn measure_metrics_overhead() -> OverheadPoint {
    let run = |attach: bool| -> f64 {
        let mut session = session_for(TopologySpec::paper_canonical());
        if attach {
            session.attach_obs(&score_obs::ObsHandle::new());
        }
        let sparse = sparse_updates(&session);
        for i in 0..500u32 {
            black_box(
                session
                    .apply_traffic_deltas(&sparse[(i % 2) as usize])
                    .unwrap(),
            );
        }
        let reps = 20_000u32;
        let start = Instant::now();
        for i in 0..reps {
            let batch = &sparse[(i % 2) as usize];
            black_box(session.apply_traffic_deltas(black_box(batch)).unwrap());
        }
        start.elapsed().as_nanos() as f64 / f64::from(reps)
    };
    // Best-of-three per variant, interleaved, to shrug off scheduler
    // noise — this point gates a 5% bound, not a trend line.
    let mut bare = f64::INFINITY;
    let mut obs = f64::INFINITY;
    for _ in 0..3 {
        bare = bare.min(run(false));
        obs = obs.min(run(true));
    }
    OverheadPoint {
        label: "canonical-2560",
        bare_sparse_delta_ns: bare,
        obs_sparse_delta_ns: obs,
        overhead_pct: (obs - bare) / bare * 100.0,
    }
}

/// Sizes the interactive criterion groups run (kept small).
fn sizes() -> [(&'static str, TopologySpec); 3] {
    [
        ("fat-tree-128", TopologySpec::small_fattree()),
        ("fat-tree-1024", TopologySpec::paper_fattree()),
        ("canonical-2560", TopologySpec::paper_canonical()),
    ]
}

/// Sizes the JSON recorder measures — the criterion trio plus the
/// mega-scale fat-trees (k = 48: 27,648 hosts; k = 74: 101,306 hosts).
fn record_sizes() -> [(&'static str, TopologySpec); 5] {
    [
        ("fat-tree-128", TopologySpec::small_fattree()),
        ("fat-tree-1024", TopologySpec::paper_fattree()),
        ("canonical-2560", TopologySpec::paper_canonical()),
        (
            "fat-tree-27648",
            TopologySpec::FatTree {
                k: 48,
                capacities: None,
            },
        ),
        (
            "fat-tree-101306",
            TopologySpec::FatTree {
                k: 74,
                capacities: None,
            },
        ),
    ]
}

fn bench_trace_replay(c: &mut Criterion) {
    let mut group = c.benchmark_group("trace_replay");
    group.sample_size(10);
    for (label, topology) in sizes() {
        let mut session = session_for(topology);
        let sparse = sparse_updates(&session);
        let mut flip = 0usize;
        group.bench_function(format!("sparse_delta/{label}"), |b| {
            b.iter(|| {
                flip ^= 1;
                session.apply_traffic_deltas(&sparse[flip]).unwrap()
            })
        });
        let scale = scale_all_updates(&session, 1.02);
        let mut flip = 0usize;
        group.bench_function(format!("scale_all/{label}"), |b| {
            b.iter(|| {
                flip ^= 1;
                session.apply_traffic_deltas(&scale[flip]).unwrap()
            })
        });
        let mut flip = 0usize;
        group.bench_function(format!("dense_scale/{label}"), |b| {
            b.iter(|| {
                flip ^= 1;
                let factor = if flip == 0 { 1.02 } else { 1.0 / 1.02 };
                session
                    .apply_trace_event(&TraceEvent::ScaleAll { factor })
                    .unwrap()
            })
        });
    }
    group.finish();
}

/// Writes `BENCH_trace_replay.json` at the workspace root.
fn record(points: &[ReplayPoint], overhead: &OverheadPoint) {
    let mut json = String::from(
        "{\n  \"bench\": \"trace_replay\",\n  \"unit\": \"ns per applied delta\",\n  \"points\": [\n",
    );
    for (i, p) in points.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"label\": \"{}\", \"hosts\": {}, \"vms\": {}, \"pairs\": {}, \
             \"sparse_delta_ns\": {:.1}, \"sparse_events_per_sec\": {:.0}, \
             \"scale_all_ns\": {:.1}, \"scale_all_events_per_sec\": {:.1}, \
             \"dense_scale_ns\": {:.1}, \"dense_scale_events_per_sec\": {:.0}}}",
            p.label,
            p.hosts,
            p.vms,
            p.pairs,
            p.sparse_delta_ns,
            p.sparse_events_per_sec,
            p.scale_all_ns,
            p.scale_all_events_per_sec,
            p.dense_scale_ns,
            p.dense_scale_events_per_sec,
        );
        json.push_str(if i + 1 < points.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n");
    let _ = writeln!(
        json,
        "  \"metrics_overhead\": {{\"label\": \"{}\", \"bare_sparse_delta_ns\": {:.1}, \
         \"obs_sparse_delta_ns\": {:.1}, \"overhead_pct\": {:.2}}}",
        overhead.label,
        overhead.bare_sparse_delta_ns,
        overhead.obs_sparse_delta_ns,
        overhead.overhead_pct,
    );
    json.push_str("}\n");
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .find(|p| p.join("Cargo.toml").exists() && p.join("crates").exists())
        .map(|p| p.join("BENCH_trace_replay.json"))
        .unwrap_or_else(|| std::path::PathBuf::from("BENCH_trace_replay.json"));
    std::fs::write(&path, json).expect("write bench record");
    println!("bench record written to {}", path.display());
}

fn main() {
    let mut criterion = Criterion::default();
    bench_trace_replay(&mut criterion);
    let points: Vec<ReplayPoint> = record_sizes()
        .into_iter()
        .map(|(label, topology)| measure(label, topology))
        .collect();
    for p in &points {
        println!(
            "trace_replay: {:<16} {:>6} hosts {:>6} pairs  sparse {:>8.1} ns ({:>9.0} events/s)  \
             scale-all {:>12.1} ns  dense {:>11.1} ns",
            p.label,
            p.hosts,
            p.pairs,
            p.sparse_delta_ns,
            p.sparse_events_per_sec,
            p.scale_all_ns,
            p.dense_scale_ns,
        );
        // Regression tripwire: a dense batch re-prices `pairs` pairs;
        // its per-pair cost should sit well below one sparse event's
        // fixed cost. 10× above it means the dense path degenerated.
        let per_pair_ns = p.scale_all_ns / (p.pairs.max(1) as f64);
        if per_pair_ns > 10.0 * p.sparse_delta_ns {
            eprintln!(
                "warning: {}: dense ScaleAll throughput degenerated — {:.1} ns/pair is more \
                 than 10x the sparse per-event cost of {:.1} ns",
                p.label, per_pair_ns, p.sparse_delta_ns
            );
        }
    }
    let overhead = measure_metrics_overhead();
    println!(
        "trace_replay: metrics overhead @ {}: bare {:.1} ns vs obs {:.1} ns ({:+.2}%)",
        overhead.label,
        overhead.bare_sparse_delta_ns,
        overhead.obs_sparse_delta_ns,
        overhead.overhead_pct,
    );
    // Acceptance tripwire: instrumented sparse-delta throughput must
    // stay within 5% of bare — more means an atomic or a lock crept
    // onto the per-delta path.
    if overhead.overhead_pct > 5.0 {
        eprintln!(
            "warning: metrics overhead degenerated — an obs-attached session pays {:.2}% \
             on the sparse-delta path (bound: 5%)",
            overhead.overhead_pct
        );
    }
    record(&points, &overhead);
}
