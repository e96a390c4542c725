//! Churn-at-scale equivalence: the struct-of-arrays pair store behind
//! `PairTraffic` (slot arrays + free-list recycling + per-VM adjacency)
//! must be observationally identical to the obvious reference — a
//! sorted map of canonical `(u, v) → rate` entries — under arbitrary
//! interleavings of `PlaceVm` / `RemoveVm` events and traffic patches,
//! on both topology families.
//!
//! Checked after every operation:
//!
//! * every canonical pair rate matches the reference map exactly;
//! * the pair count and the canonical `pairs()` ordering match;
//! * every live host's external NIC load (the view bandwidth admission
//!   reads, memoized per host by the cluster) matches a recomputation
//!   from the reference map to ≤ 1e-9 relative;
//! * the incremental cost ledger stays within 1e-9 relative of a full
//!   Eq.-(2) pass over the reference-rebuilt matrix, with zero resyncs.

use proptest::prelude::*;
use score_sim::{EventOutcome, PolicyKind, Scenario, Session};
use score_topology::VmId;
use score_trace::TraceEvent;
use std::collections::BTreeMap;

fn scenario(fat_tree: bool, seed: u64) -> Scenario {
    let mut s = if fat_tree {
        Scenario::builder()
            .fat_tree(8)
            .sparse_traffic(seed)
            .policy(PolicyKind::RoundRobin)
            .build()
    } else {
        Scenario::builder()
            .canonical_tree(16, 4)
            .sparse_traffic(seed)
            .policy(PolicyKind::RoundRobin)
            .build()
    };
    s.seed = seed;
    s.timing.t_end_s = 600.0;
    s
}

/// One step of the interleaving, drawn by proptest.
#[derive(Debug, Clone)]
enum Op {
    Place,
    Remove { pick: usize },
    Patch { pick: usize, peer: usize, rate: f64 },
    Run { steps: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The shim's `prop_oneof!` is uniform; patches are listed twice to
    // keep the interleavings traffic-heavy.
    prop_oneof![
        Just(Op::Place),
        (0usize..64).prop_map(|pick| Op::Remove { pick }),
        (0usize..64, 0usize..64, 0.0f64..5e6).prop_map(|(pick, peer, rate)| Op::Patch {
            pick,
            peer,
            rate
        }),
        (0usize..64, 0usize..64, 0.0f64..5e6).prop_map(|(pick, peer, rate)| Op::Patch {
            pick,
            peer,
            rate
        }),
        (1usize..8).prop_map(|steps| Op::Run { steps }),
    ]
}

/// The reference rate map after canonicalization: `u < v`, no zeros.
fn reference_rates(session: &Session) -> BTreeMap<(u32, u32), f64> {
    session
        .traffic()
        .pairs()
        .iter()
        .map(|&(u, v, r)| ((u.get(), v.get()), r))
        .collect()
}

fn check_equivalence(session: &Session, reference: &BTreeMap<(u32, u32), f64>, live: &[u32]) {
    // Rates and canonical ordering match the reference map exactly.
    let pairs = session.traffic().pairs();
    assert_eq!(pairs.len(), reference.len(), "pair population diverged");
    for (&(u, v), &rate) in reference.iter() {
        assert_eq!(
            session.traffic().rate(VmId::new(u), VmId::new(v)),
            rate,
            "rate of ({u}, {v}) diverged from the reference"
        );
    }
    let canonical: Vec<(u32, u32)> = reference.keys().copied().collect();
    let observed: Vec<(u32, u32)> = pairs.iter().map(|&(u, v, _)| (u.get(), v.get())).collect();
    assert_eq!(observed, canonical, "pairs() lost canonical order");
    // Memoized host NIC loads match a recomputation from the reference.
    let cluster = session.cluster();
    let alloc = cluster.allocation();
    let mut expect = vec![0.0f64; cluster.topo().num_servers()];
    for (&(u, v), &r) in reference {
        let (su, sv) = (alloc.server_of(VmId::new(u)), alloc.server_of(VmId::new(v)));
        if su != sv {
            expect[su.index()] += r;
            expect[sv.index()] += r;
        }
    }
    for &vm in live {
        let host = alloc.server_of(VmId::new(vm));
        let (got, want) = (cluster.host_external_load(host), expect[host.index()]);
        assert!(
            (got - want).abs() <= 1e-9 * want.max(1.0),
            "{host} NIC load {got} diverged from reference {want}"
        );
    }
    // The incremental ledger matches a full Eq.-(2) pass, resync-free.
    let fresh = session.cost_model().total_cost(
        session.cluster().allocation(),
        session.traffic(),
        session.cluster().topo(),
    );
    let ledgered = session.current_cost();
    assert!(
        (ledgered - fresh).abs() <= 1e-9 * fresh.abs().max(1.0),
        "ledger {ledgered} diverged from full recomputation {fresh}"
    );
    assert_eq!(session.ledger_resyncs(), 0, "a full-pass resync was paid");
    let drift = session.shard_drift();
    assert!(
        drift <= 1e-9 * fresh.abs().max(1.0),
        "shard partials drifted by {drift}"
    );
}

fn drive(fat_tree: bool, seed: u64, ops: &[Op]) {
    let mut session = scenario(fat_tree, seed).session().unwrap();
    let mut reference = reference_rates(&session);
    let mut live: Vec<u32> = (0..session.traffic().num_vms()).collect();
    for op in ops {
        match *op {
            Op::Place => {
                let vm_spec = session.scenario().resources.vm;
                if let Ok(server) = session.cluster().choose_server(&vm_spec) {
                    let event = TraceEvent::PlaceVm {
                        vm: session.traffic().num_vms(),
                        server: server.get(),
                    };
                    let EventOutcome::Placed { vm, .. } =
                        session.apply_trace_event(&event).unwrap()
                    else {
                        panic!("PlaceVm must place");
                    };
                    live.push(vm.get());
                }
            }
            Op::Remove { pick } => {
                if live.len() > 2 {
                    let vm = live.remove(pick % live.len());
                    session
                        .apply_trace_event(&TraceEvent::RemoveVm { vm })
                        .unwrap();
                    reference.retain(|&(u, v), _| u != vm && v != vm);
                }
            }
            Op::Patch { pick, peer, rate } => {
                let (u, v) = (live[pick % live.len()], live[peer % live.len()]);
                if u == v {
                    continue;
                }
                let key = if u < v { (u, v) } else { (v, u) };
                session
                    .apply_traffic_deltas(&[(VmId::new(u), VmId::new(v), rate)])
                    .unwrap();
                if rate == 0.0 {
                    reference.remove(&key);
                } else {
                    reference.insert(key, rate);
                }
            }
            Op::Run { steps } => {
                for _ in 0..steps {
                    if session.step().is_none() {
                        break;
                    }
                }
            }
        }
        check_equivalence(&session, &reference, &live);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Canonical tree: interleaved churn, patches, and token steps keep
    /// the handle store equivalent to the reference map.
    #[test]
    fn canonical_tree_churn_matches_reference(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        drive(false, seed, &ops);
    }

    /// Fat-tree: same contract on the multipath family.
    #[test]
    fn fat_tree_churn_matches_reference(
        seed in 0u64..1_000,
        ops in prop::collection::vec(op_strategy(), 1..40),
    ) {
        drive(true, seed, &ops);
    }
}
