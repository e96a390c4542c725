//! Equivalence suite for the single-pass level-bucketed decision kernel.
//!
//! [`reference_decision`] below is the test-only oracle: the §V-B5
//! procedure spelled out on public API (ranked
//! `LocalView::candidate_servers`, a `Cluster::can_host` probe and a
//! `LocalView::delta_for` sweep per candidate). The hot path
//! [`ScoreEngine::decide_scored_with`] and the forced-bucketed variant
//! must produce **bit-identical** `MigrationDecision`s — same target,
//! same gain bits, same candidate accounting — on every topology shape,
//! with forecast views on or off, with hosts down, and under
//! `max_candidates` caps. The scratch is reused across all cases, so the
//! epoch-stamped accumulators are exercised against stale state too.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use score_core::{
    Allocation, Cluster, KernelScratch, LocalView, MigrationDecision, ScoreConfig, ScoreEngine,
    ServerSpec, VmSpec,
};
use score_topology::{
    CanonicalTreeBuilder, FatTreeBuilder, ServerId, StarTopology, Topology, VmId,
};
use score_traffic::{PairTraffic, WorkloadConfig};
use std::cell::RefCell;
use std::sync::Arc;

thread_local! {
    /// Reused across every proptest case on purpose: a kernel that only
    /// works on a zeroed scratch would pass a per-case-fresh test but
    /// corrupt real rings, which thread one scratch through all holds.
    static SCRATCH: RefCell<KernelScratch> = RefCell::new(KernelScratch::new());
}

fn random_topo(kind: u8, size: u8) -> Arc<dyn Topology> {
    match kind % 3 {
        0 => {
            let racks = 2 + u32::from(size % 6) * 2; // 2..12, even
            Arc::new(
                CanonicalTreeBuilder::new()
                    .racks(racks)
                    .hosts_per_rack(2 + u32::from(size % 4))
                    .racks_per_agg(2)
                    .cores(2)
                    .build()
                    .expect("valid tree"),
            )
        }
        1 => {
            let k = if size.is_multiple_of(2) { 4 } else { 6 };
            Arc::new(FatTreeBuilder::new().k(k).build().expect("valid fat-tree"))
        }
        _ => Arc::new(StarTopology::new(4 + u32::from(size % 12), 1e9)),
    }
}

fn balanced_alloc(num_vms: u32, num_servers: u32, seed: u64) -> Allocation {
    // Balanced spread over a seeded server permutation: never overcommits
    // (≤ ceil(n/ns) per server) while still randomizing locality.
    let mut rng = StdRng::seed_from_u64(seed);
    let mut perm: Vec<u32> = (0..num_servers).collect();
    for i in (1..perm.len()).rev() {
        perm.swap(i, rng.gen_range(0..=i));
    }
    Allocation::from_fn(num_vms, num_servers, |vm| {
        ServerId::new(perm[vm.index() % perm.len()])
    })
}

/// The reference decision: allocate the ranked candidate list, then
/// capacity-probe and `delta_for`-score each candidate in turn. With
/// `current` set, `decision_view` carries forecast rates and `current`
/// supplies the landed-TM gain and the pre-emptive flag.
fn reference_decision(
    engine: &ScoreEngine,
    decision_view: &LocalView,
    current: Option<&LocalView>,
    cluster: &Cluster,
) -> MigrationDecision {
    let config = engine.config();
    let weights = engine.cost_model().weights();
    let mut candidates = decision_view.candidate_servers();
    if let Some(cap) = config.max_candidates {
        candidates.truncate(cap);
    }
    let mut best: Option<(ServerId, f64)> = None;
    let (mut evaluated, mut rejected) = (0, 0);
    for target in candidates {
        evaluated += 1;
        if cluster
            .can_host(target, decision_view.vm, config.bandwidth_threshold)
            .is_err()
        {
            rejected += 1;
            continue;
        }
        let delta = decision_view.delta_for(target, weights, cluster.topo());
        if delta > config.migration_cost && best.is_none_or(|(_, b)| delta > b) {
            best = Some((target, delta));
        }
    }
    let (gain, preemptive) = match (best, current) {
        (Some((target, _)), Some(view)) => {
            let actual = view.delta_for(target, weights, cluster.topo());
            (actual, actual <= config.migration_cost)
        }
        (Some((_, predicted)), None) => (predicted, false),
        (None, _) => (0.0, false),
    };
    MigrationDecision {
        vm: decision_view.vm,
        target: best.map(|(s, _)| s),
        gain,
        predicted_gain: best.map_or(0.0, |(_, g)| g),
        preemptive,
        evaluated,
        rejected_capacity: rejected,
    }
}

fn assert_bit_identical(a: &MigrationDecision, b: &MigrationDecision, what: &str) {
    assert_eq!(a.vm, b.vm, "{what}: vm");
    assert_eq!(a.target, b.target, "{what}: target");
    assert_eq!(a.gain.to_bits(), b.gain.to_bits(), "{what}: gain bits");
    assert_eq!(
        a.predicted_gain.to_bits(),
        b.predicted_gain.to_bits(),
        "{what}: predicted_gain bits"
    );
    assert_eq!(a.preemptive, b.preemptive, "{what}: preemptive");
    assert_eq!(a.evaluated, b.evaluated, "{what}: evaluated");
    assert_eq!(
        a.rejected_capacity, b.rejected_capacity,
        "{what}: rejected_capacity"
    );
}

#[allow(clippy::too_many_arguments)]
fn check_case(
    kind: u8,
    size: u8,
    seed: u64,
    vm_pick: u32,
    forecast: bool,
    hosts_down: u8,
    cap: u8,
) {
    let topo = random_topo(kind, size);
    let num_servers = topo.num_servers() as u32;
    let num_vms = (num_servers * 2).clamp(4, 96);
    let traffic: PairTraffic = WorkloadConfig::new(num_vms, seed).generate();
    let alloc = balanced_alloc(num_vms, num_servers, seed ^ 0x5eed);
    let mut cluster = Cluster::new(
        Arc::clone(&topo),
        ServerSpec::paper_default(),
        VmSpec::paper_default(),
        &traffic,
        alloc,
    )
    .expect("balanced allocation is feasible");

    let vm = VmId::new(vm_pick % num_vms);
    // Knock out up to `hosts_down` servers (never the holder's own) so
    // can_host rejections flow through both paths identically.
    let own = cluster.allocation().server_of(vm);
    let mut rng = StdRng::seed_from_u64(seed ^ 0xd0d0);
    for _ in 0..hosts_down {
        let s = ServerId::new(rng.gen_range(0..num_servers));
        if s != own {
            cluster.fail_host(s);
        }
    }

    let config = ScoreConfig {
        max_candidates: match cap % 4 {
            0 => None,
            c => Some(c as usize * 2 - 1), // 1, 3, 5
        },
        ..ScoreConfig::paper_default()
    };
    let engine = ScoreEngine::new(Default::default(), config);

    let observed = LocalView::observe(vm, cluster.allocation(), &traffic, cluster.topo());
    // Forecast decisions score a predicted view against the landed one;
    // emulate the outlook by scaling peer rates (some up, some down).
    let (decision_view, current) = if forecast {
        let mut predicted = observed.clone();
        for (i, p) in predicted.peers.iter_mut().enumerate() {
            p.rate *= if i % 2 == 0 { 1.75 } else { 0.4 };
        }
        (predicted, Some(&observed))
    } else {
        (observed.clone(), None)
    };

    let reference = reference_decision(&engine, &decision_view, current, &cluster);
    SCRATCH.with(|s| {
        let scratch = &mut *s.borrow_mut();
        let hot = engine.decide_scored_with(&decision_view, current, &cluster, scratch);
        assert_bit_identical(&reference, &hot, "decide_scored_with");
        let forced = engine.decide_scored_bucketed(&decision_view, current, &cluster, scratch);
        assert_bit_identical(&reference, &forced, "decide_scored_bucketed");
    });
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reactive decisions: kernel == reference on every topology family.
    #[test]
    fn kernel_matches_reference_reactive(
        kind in 0u8..3, size in 0u8..12, seed in 0u64..10_000, vm in 0u32..96,
        hosts_down in 0u8..3, cap in 0u8..4,
    ) {
        check_case(kind, size, seed, vm, false, hosts_down, cap);
    }

    /// Forecast-envelope decisions (predicted view scored against the
    /// landed one, pre-emptive accounting active): still bit-identical.
    #[test]
    fn kernel_matches_reference_forecast(
        kind in 0u8..3, size in 0u8..12, seed in 0u64..10_000, vm in 0u32..96,
        hosts_down in 0u8..3, cap in 0u8..4,
    ) {
        check_case(kind, size, seed, vm, true, hosts_down, cap);
    }
}

/// The scratch must be reusable across *different* topologies without a
/// reset call in between — the session layer swaps probe clusters under
/// one ring during fault drills.
#[test]
fn scratch_survives_topology_swaps() {
    for (kind, size, seed) in [
        (0u8, 3u8, 7u64),
        (1, 1, 8),
        (2, 9, 9),
        (0, 11, 10),
        (1, 0, 11),
    ] {
        check_case(kind, size, seed, 5, false, 1, 0);
        check_case(kind, size, seed, 5, true, 0, 2);
    }
}
