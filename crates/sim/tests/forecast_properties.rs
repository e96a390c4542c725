//! Property-based pins for the forecast-aware decision pipeline.
//!
//! Two contracts hold the refactor together:
//!
//! 1. **Zero-horizon compatibility** — `ForecastSpec::None` and every
//!    zero-horizon variant run the reactive paper pipeline bit for bit:
//!    the `RunReport` JSON of a no-forecast run is **byte-identical**
//!    to a zero-horizon EWMA run (and to a zero-horizon oracle run on
//!    trace workloads), across random tree/fat-tree scenarios, every
//!    policy and random workloads.
//! 2. **Forecaster determinism** — an *active* forecaster stays
//!    deterministic under the work-stealing `MatrixRunner`: the same
//!    sweep produces the same report at 1, 2 and 8 threads (modulo the
//!    documented wall-clock `apply_ns_*` carve-out for trace
//!    workloads), because each cell builds its own session-owned
//!    forecaster fed a deterministic delta stream.

use proptest::prelude::*;
use score_sim::{
    ForecastSpec, MatrixReport, PolicyKind, RunReport, Scenario, ScenarioMatrix, TimingSpec,
    TopologySpec, TraceSpec, WorkloadSpec,
};
use score_trace::{DiurnalShape, FlashCrowdShape};
use score_traffic::TrafficIntensity;

fn policy_pool() -> [PolicyKind; 5] {
    PolicyKind::all()
}

fn intensity_pool() -> [TrafficIntensity; 3] {
    [
        TrafficIntensity::Sparse,
        TrafficIntensity::Medium,
        TrafficIntensity::Dense,
    ]
}

/// A CI-sized scenario on a real hierarchy (the bit-equality claim is
/// about decision pipelines, so it must run where levels matter: tree
/// and fat-tree, not just stars).
fn quick_scenario(
    tree: bool,
    policy: PolicyKind,
    intensity: TrafficIntensity,
    seed: u64,
) -> Scenario {
    let topology = if tree {
        TopologySpec::CanonicalTree {
            racks: 4,
            hosts_per_rack: 4,
            racks_per_agg: 2,
            cores: 1,
            capacities: None,
        }
    } else {
        TopologySpec::FatTree {
            k: 4,
            capacities: None,
        }
    };
    let mut s = Scenario::builder()
        .topology(topology)
        .num_vms(24)
        .intensity(intensity)
        .workload_seed(seed)
        .policy(policy)
        .seed(seed)
        .build();
    s.timing = TimingSpec {
        t_end_s: 40.0,
        sample_interval_s: 5.0,
        token_hold_s: 0.05,
        token_pass_s: 0.01,
    };
    s
}

/// Runs a scenario to the horizon and serializes its report with the
/// wall-clock rebind diagnostics normalized.
fn report_json(scenario: &Scenario) -> String {
    let mut session = scenario.session().expect("scenario materializes");
    session.run_to_horizon();
    let mut report: RunReport = session.report();
    report.trace.apply_ns_total = 0;
    report.trace.apply_ns_max = 0;
    report.to_json()
}

/// Swaps in a diurnal trace workload over the same population.
fn with_diurnal_trace(mut scenario: Scenario, seed: u64) -> Scenario {
    scenario.workload = WorkloadSpec::Trace {
        spec: TraceSpec::Diurnal {
            num_vms: 24,
            intensity: TrafficIntensity::Sparse,
            seed,
            shape: DiurnalShape {
                period_s: 20.0,
                amplitude: 0.5,
                step_s: 1.0,
                horizon_s: 40.0,
            },
        },
    };
    scenario
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// `ForecastSpec::None` ≡ zero-horizon EWMA, byte for byte, over
    /// random static scenarios on tree and fat-tree fabrics.
    #[test]
    fn zero_horizon_reproduces_baseline_policies(
        tree_pick in 0u8..2,
        policy_pick in 0usize..5,
        intensity_pick in 0usize..3,
        seed in 0u64..10_000,
        alpha_pct in 1u32..=100,
    ) {
        let tree = tree_pick == 1;
        let policy = policy_pool()[policy_pick];
        let intensity = intensity_pool()[intensity_pick];
        let mut reactive = quick_scenario(tree, policy, intensity, seed);
        reactive.forecast = ForecastSpec::None;
        let mut zero = reactive.clone();
        zero.forecast = ForecastSpec::Ewma {
            alpha: f64::from(alpha_pct) / 100.0,
            horizon_s: 0.0,
        };
        prop_assert_eq!(
            report_json(&reactive),
            report_json(&zero),
            "zero-horizon EWMA diverged from the reactive pipeline \
             (tree={}, policy={:?}, seed={})",
            tree, policy, seed
        );
    }

    /// The same claim on trace workloads, for the oracle as well: a
    /// zero-horizon oracle reads nothing ahead and must reproduce the
    /// reactive run byte for byte.
    #[test]
    fn zero_horizon_oracle_reproduces_baseline_on_traces(
        tree_pick in 0u8..2,
        policy_pick in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let tree = tree_pick == 1;
        let policy = policy_pool()[policy_pick];
        let base = with_diurnal_trace(
            quick_scenario(tree, policy, TrafficIntensity::Sparse, seed),
            seed,
        );
        let mut reactive = base.clone();
        reactive.forecast = ForecastSpec::None;
        let mut zero_oracle = base.clone();
        zero_oracle.forecast = ForecastSpec::TraceOracle { horizon_s: 0.0 };
        let mut zero_ewma = base;
        zero_ewma.forecast = ForecastSpec::Ewma { alpha: 0.3, horizon_s: 0.0 };
        let reference = report_json(&reactive);
        prop_assert_eq!(&report_json(&zero_oracle), &reference);
        prop_assert_eq!(&report_json(&zero_ewma), &reference);
    }

    /// Old scenario JSON (no `forecast` key) still loads, defaults to
    /// the reactive pipeline, and runs identically to an explicit
    /// `ForecastSpec::None`.
    #[test]
    fn pre_forecast_scenario_json_still_loads(
        tree_pick in 0u8..2,
        policy_pick in 0usize..5,
        seed in 0u64..10_000,
    ) {
        let tree = tree_pick == 1;
        let scenario = quick_scenario(tree, policy_pool()[policy_pick], TrafficIntensity::Sparse, seed);
        let json = scenario.to_json();
        prop_assert!(json.contains("\"forecast\""));
        // Strip the forecast field the way a pre-refactor writer would
        // never have emitted it.
        let legacy = json.replace("\"forecast\":\"None\",", "");
        prop_assert!(!legacy.contains("forecast"));
        let loaded = Scenario::from_json(&legacy).expect("legacy JSON loads");
        prop_assert_eq!(&loaded, &scenario);
        prop_assert_eq!(loaded.forecast, ForecastSpec::None);
    }
}

/// Strips the wall-clock rebind diagnostics so matrix reports compare
/// on simulated state only.
fn normalize_trace_timings(report: &mut MatrixReport) {
    for cell in &mut report.cells {
        cell.report.trace.apply_ns_total = 0;
        cell.report.trace.apply_ns_max = 0;
    }
}

/// Active forecasters are deterministic across `MatrixRunner` thread
/// counts {1, 2, 8}: per-cell forecaster state is rebuilt from the
/// cell's own deterministic delta stream, so parallelism stays
/// unobservable.
#[test]
fn forecasting_sweeps_are_thread_count_invariant() {
    for forecast in [
        ForecastSpec::Ewma {
            alpha: 0.4,
            horizon_s: 8.0,
        },
        ForecastSpec::TraceOracle { horizon_s: 8.0 },
    ] {
        let mut base = with_diurnal_trace(
            quick_scenario(
                true,
                PolicyKind::HighestLevelFirst,
                TrafficIntensity::Sparse,
                7,
            ),
            7,
        );
        base.forecast = forecast;
        let matrix = ScenarioMatrix::new(base).policies(PolicyKind::all());
        let mut serial = matrix.clone().run().unwrap();
        normalize_trace_timings(&mut serial);
        let reference = serial.to_json();
        for threads in [1usize, 2, 8] {
            let mut parallel = matrix.clone().runner().threads(threads).run().unwrap();
            normalize_trace_timings(&mut parallel);
            assert_eq!(
                parallel.to_json(),
                reference,
                "{threads}-thread {} sweep diverged from serial",
                forecast.name()
            );
        }
    }
}

/// An active flash-crowd oracle run pre-empts spikes without ever
/// paying a full ledger resync — the outlook path reads ahead, it
/// never mutates (regression guard: the cluster must never be handed
/// out mutably by forecasting).
#[test]
fn forecasting_never_dirties_the_ledger() {
    let mut scenario = quick_scenario(
        true,
        PolicyKind::HighestLevelFirst,
        TrafficIntensity::Sparse,
        3,
    );
    scenario.workload = WorkloadSpec::Trace {
        spec: TraceSpec::FlashCrowd {
            num_vms: 24,
            intensity: TrafficIntensity::Sparse,
            seed: 3,
            shape: FlashCrowdShape {
                spikes: 4,
                fanout: 4,
                surge_bps: 2e8,
                hold_s: 8.0,
                horizon_s: 40.0,
            },
        },
    };
    scenario.forecast = ForecastSpec::TraceOracle { horizon_s: 12.0 };
    let mut session = scenario.session().unwrap();
    session.run_to_horizon();
    assert!(session.report().trace.events_applied > 0);
    assert_eq!(
        session.ledger_resyncs(),
        0,
        "reading ahead must never dirty the cost ledger"
    );
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    assert!((session.current_cost() - fresh).abs() <= 1e-9 * fresh.max(1.0));
}
