//! The token-holder decision procedure (paper §IV, §V-B5, §V-C).
//!
//! When dom0 receives the token for a hosted VM it:
//!
//! 1. aggregates the VM's per-peer traffic (flow table, §V-B3);
//! 2. resolves peer locations and communication levels (§V-B4);
//! 3. ranks the peers' servers "from highest to lowest communication
//!    levels" and probes each for capacity (§V-B5);
//! 4. migrates iff Theorem 1 holds: `ΔC_{u→x̂} > c_m`, preferring the
//!    feasible target with the largest gain.
//!
//! [`ScoreEngine`] implements steps 3–4 over a [`LocalView`] (steps 1–2).

use score_topology::ServerId;
use score_topology::VmId;
use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::cost::CostModel;
use crate::scratch::KernelScratch;
use crate::view::{combine_bucketed, LocalView};

/// Tunables of the S-CORE migration decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScoreConfig {
    /// Migration (overhead) cost `c_m` that a move's gain must exceed
    /// (Theorem 1). The paper's headline comparison uses 0.
    pub migration_cost: f64,
    /// Fraction of a host NIC that hosted traffic may occupy; candidate
    /// targets above this are skipped ("the next best choice with adequate
    /// bandwidth will be considered", §V-C).
    pub bandwidth_threshold: f64,
    /// Optional cap on how many candidate servers to probe per decision
    /// (capacity-probe budget). `None` probes every peer server.
    pub max_candidates: Option<usize>,
}

impl ScoreConfig {
    /// The paper's evaluation defaults: `c_m = 0`, no bandwidth headroom
    /// reserved, probe all peers.
    pub fn paper_default() -> Self {
        ScoreConfig {
            migration_cost: 0.0,
            bandwidth_threshold: 1.0,
            max_candidates: None,
        }
    }

    /// Returns a copy with the given migration cost.
    pub fn with_migration_cost(mut self, cm: f64) -> Self {
        self.migration_cost = cm;
        self
    }

    /// Returns a copy with the given bandwidth threshold.
    pub fn with_bandwidth_threshold(mut self, threshold: f64) -> Self {
        self.bandwidth_threshold = threshold;
        self
    }
}

impl Default for ScoreConfig {
    fn default() -> Self {
        ScoreConfig::paper_default()
    }
}

/// Outcome of one token-holder decision.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MigrationDecision {
    /// The deciding VM.
    pub vm: VmId,
    /// Chosen target server, if the Theorem-1 condition was met.
    pub target: Option<ServerId>,
    /// `ΔC` of the chosen target under the *current* TM (0.0 when no
    /// move). This is the quantity the cost ledger absorbs — for a
    /// pre-emptive move it can be at or below `c_m` (even negative):
    /// the payoff is expected at the horizon, not now.
    pub gain: f64,
    /// `ΔC` of the chosen target under the outlook's *expected* rates —
    /// what the decision was actually ranked on. Equals `gain` for
    /// reactive (no-forecast) decisions.
    pub predicted_gain: f64,
    /// True when the move was accepted on forecasted rates alone, i.e.
    /// the current-TM gain would not have cleared Theorem 1 — the
    /// migration pre-empts a predicted shift instead of reacting to a
    /// landed one.
    pub preemptive: bool,
    /// Candidate servers evaluated.
    pub evaluated: usize,
    /// Candidates rejected by the capacity/bandwidth probe.
    pub rejected_capacity: usize,
}

impl MigrationDecision {
    /// True if the decision is to migrate.
    pub fn migrates(&self) -> bool {
        self.target.is_some()
    }

    /// The signed change this decision applied to the network-wide cost
    /// `C_A`: `−gain` for an accepted migration, `0.0` for a declined
    /// one. This is the quantity an incremental cost accumulator (e.g.
    /// [`crate::CostLedger`]) folds in instead of recomputing Eq. (2).
    pub fn applied_delta(&self) -> f64 {
        -self.gain
    }
}

/// The S-CORE decision engine: stateless combination of a cost model and a
/// configuration, applied to one token holder at a time.
#[derive(Debug, Clone, Default)]
pub struct ScoreEngine {
    cost: CostModel,
    config: ScoreConfig,
}

impl ScoreEngine {
    /// Creates an engine.
    pub fn new(cost: CostModel, config: ScoreConfig) -> Self {
        ScoreEngine { cost, config }
    }

    /// Engine with the paper's cost weights and defaults.
    pub fn paper_default() -> Self {
        ScoreEngine::new(CostModel::paper_default(), ScoreConfig::paper_default())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ScoreConfig {
        &self.config
    }

    /// The engine's cost model.
    pub fn cost_model(&self) -> &CostModel {
        &self.cost
    }

    /// Makes the migration decision for one token holder without
    /// mutating anything — the one decision procedure (§V-B5).
    ///
    /// Candidates are the servers hosting the peers of `decision_view`,
    /// ranked "from highest to lowest communication levels" with ties
    /// towards heavier pairs; each is capacity-probed against the live
    /// cluster, and among the feasible ones the largest `ΔC` wins,
    /// provided it exceeds `c_m` (Theorem 1).
    ///
    /// `current` is `None` on the reactive path: `decision_view` *is*
    /// the current view. With a forecast, `decision_view` carries the
    /// peak-envelope rates ([`crate::OutlookContext::decision_view_into`])
    /// and `current` the landed ones: selection and acceptance run on
    /// expected rates, while [`MigrationDecision::gain`] reports the
    /// current-TM delta of the chosen move (what the cost ledger must
    /// absorb) and `preemptive` flags moves only the forecast justified.
    ///
    /// The kernel is single-pass and level-bucketed. The Lemma-3 delta
    /// decomposes as `2·(before − after(x̂))`:
    /// `before = Σ_z λ(z,u)·prefix(ℓ(z,u))` is candidate-independent,
    /// and on topologies exposing [`score_topology::LevelBuckets`] the
    /// `after` term only depends on how much peer rate sits on the
    /// candidate's host, rack and zone. So one pass over the peers
    /// accumulates `before` plus per-host/rack/zone rate sums into the
    /// epoch-stamped [`KernelScratch`], and each candidate is then
    /// scored from ≤ L bucket reads — O(peers + candidates·L) instead
    /// of O(peers·candidates) — with zero heap allocations.
    ///
    /// Per-bucket sums accumulate the same peer subsequences in the
    /// same order as the decomposed `delta_for`, and both paths share
    /// `combine_bucketed`, so the scores (and therefore the decision)
    /// are bit-identical to a per-candidate [`LocalView::delta_for`]
    /// sweep over [`LocalView::candidate_servers`] — the reference the
    /// `decision_kernel` proptests pin this against. Topologies without
    /// buckets take that sweep directly, still allocation-free.
    pub fn decide_scored_with(
        &self,
        decision_view: &LocalView,
        current: Option<&LocalView>,
        cluster: &Cluster,
        scratch: &mut KernelScratch,
    ) -> MigrationDecision {
        self.decide_scored_inner(decision_view, current, cluster, scratch, false)
    }

    /// [`ScoreEngine::decide_scored_with`] with the bucketed path forced
    /// on (when the topology has buckets at all), bypassing the
    /// candidate-count heuristic — for equivalence tests and benches.
    #[doc(hidden)]
    pub fn decide_scored_bucketed(
        &self,
        decision_view: &LocalView,
        current: Option<&LocalView>,
        cluster: &Cluster,
        scratch: &mut KernelScratch,
    ) -> MigrationDecision {
        self.decide_scored_inner(decision_view, current, cluster, scratch, true)
    }

    fn decide_scored_inner(
        &self,
        decision_view: &LocalView,
        current: Option<&LocalView>,
        cluster: &Cluster,
        scratch: &mut KernelScratch,
        force_bucketed: bool,
    ) -> MigrationDecision {
        /// Minimum candidate count for the bucketed path. Below it the
        /// per-candidate `delta_for` sweep is faster: accumulating into
        /// the (large, mostly cold) per-host/rack/zone arrays costs a
        /// cache miss or two per peer, which only amortizes once enough
        /// candidates reuse the sums. The two paths score bit-identically,
        /// so the cutoff is a pure latency knob — it can never change a
        /// decision.
        const KERNEL_MIN_CANDIDATES: usize = 12;
        let topo = cluster.topo();
        let mut candidates = std::mem::take(&mut scratch.candidates);
        decision_view.rank_candidates_into(&mut candidates);
        if let Some(cap) = self.config.max_candidates {
            candidates.truncate(cap);
        }
        let weights = self.cost.weights();
        let mut best: Option<(ServerId, f64)> = None;
        let mut evaluated = 0;
        let mut rejected = 0;
        let buckets = topo
            .level_buckets()
            .filter(|_| force_bucketed || candidates.len() >= KERNEL_MIN_CANDIDATES);
        if let Some(buckets) = buckets {
            scratch.ensure_topology(topo);
            scratch.begin();
            let mut before = 0.0;
            let mut total = 0.0;
            for p in &decision_view.peers {
                before += p.rate * weights.prefix(p.level);
                let pc = topo.coords_of(p.server);
                scratch.add_host(p.server, p.rate);
                scratch.add_rack(pc.rack, p.rate);
                scratch.add_zone(pc.zone, p.rate);
                total += p.rate;
            }
            let max_level = topo.max_level();
            for &(target, ..) in &candidates {
                evaluated += 1;
                if cluster
                    .can_host(target, decision_view.vm, self.config.bandwidth_threshold)
                    .is_err()
                {
                    rejected += 1;
                    continue;
                }
                let tc = topo.coords_of(target);
                let delta = combine_bucketed(
                    before,
                    scratch.host_sum(target),
                    scratch.rack_sum(tc.rack),
                    scratch.zone_sum(tc.zone),
                    total,
                    weights,
                    buckets,
                    max_level,
                );
                if delta > self.config.migration_cost && best.is_none_or(|(_, b)| delta > b) {
                    best = Some((target, delta));
                }
            }
        } else {
            for &(target, ..) in &candidates {
                evaluated += 1;
                if cluster
                    .can_host(target, decision_view.vm, self.config.bandwidth_threshold)
                    .is_err()
                {
                    rejected += 1;
                    continue;
                }
                let delta = decision_view.delta_for(target, weights, topo);
                if delta > self.config.migration_cost && best.is_none_or(|(_, b)| delta > b) {
                    best = Some((target, delta));
                }
            }
        }
        scratch.candidates = candidates;
        let (gain, preemptive) = match (best, current) {
            (Some((target, _)), Some(view)) => {
                // The ledger needs the *actual* delta of the accepted
                // move; whether the current TM alone would have
                // justified it decides pre-emptive vs reactive.
                let actual = view.delta_for(target, weights, topo);
                (actual, actual <= self.config.migration_cost)
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocation::Allocation;
    use crate::resources::{ServerSpec, VmSpec};
    use score_topology::CanonicalTree;
    use score_traffic::{PairTraffic, PairTrafficBuilder};
    use std::sync::Arc;

    /// vm0@srv0 with peers vm1@srv1 (L1, heavy) and vm2@srv8 (L3, light).
    fn fixture() -> (Cluster, PairTraffic) {
        let topo = Arc::new(CanonicalTree::small());
        let mut b = PairTrafficBuilder::new(3);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 1.0);
        let traffic = b.build();
        let servers = [0u32, 1, 8];
        let alloc = Allocation::from_fn(3, 16, |vm| ServerId::new(servers[vm.index()]));
        let cluster = Cluster::new(
            topo,
            ServerSpec::paper_default(),
            VmSpec::paper_default(),
            &traffic,
            alloc,
        )
        .unwrap();
        (cluster, traffic)
    }

    /// Reactive decision for `vm` from its freshly observed view.
    fn decide(
        engine: &ScoreEngine,
        vm: VmId,
        cluster: &Cluster,
        traffic: &PairTraffic,
    ) -> MigrationDecision {
        let view = LocalView::observe(vm, cluster.allocation(), traffic, cluster.topo());
        engine.decide_scored_with(&view, None, cluster, &mut KernelScratch::new())
    }

    /// Decides for `vm` and applies the migration, as a ring hold does.
    fn step(
        engine: &ScoreEngine,
        vm: VmId,
        cluster: &mut Cluster,
        traffic: &PairTraffic,
    ) -> MigrationDecision {
        let decision = decide(engine, vm, cluster, traffic);
        if let Some(target) = decision.target {
            cluster
                .migrate(vm, target, engine.config().bandwidth_threshold)
                .expect("the kernel validated admission");
        }
        decision
    }

    #[test]
    fn migrates_to_best_gain_target() {
        let (mut cluster, traffic) = fixture();
        let engine = ScoreEngine::paper_default();
        let decision = step(&engine, VmId::new(0), &mut cluster, &traffic);
        // Moving next to the heavy rack-mate (srv1) collapses the 10-unit
        // pair to level 0 and only raises the light pair — best move.
        assert_eq!(decision.target, Some(ServerId::new(1)));
        assert!(decision.gain > 0.0);
        assert_eq!(
            cluster.allocation().server_of(VmId::new(0)),
            ServerId::new(1)
        );
    }

    #[test]
    fn decision_counts_candidates() {
        let (cluster, traffic) = fixture();
        let engine = ScoreEngine::paper_default();
        let d = decide(&engine, VmId::new(0), &cluster, &traffic);
        assert_eq!(d.evaluated, 2);
        assert_eq!(d.rejected_capacity, 0);
        assert!(d.migrates());
    }

    #[test]
    fn migration_cost_gates_moves() {
        let (cluster, traffic) = fixture();
        let free = ScoreEngine::paper_default();
        let gain = decide(&free, VmId::new(0), &cluster, &traffic).gain;
        let expensive = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig::paper_default().with_migration_cost(gain + 1.0),
        );
        let d = decide(&expensive, VmId::new(0), &cluster, &traffic);
        assert!(!d.migrates(), "cm above the best gain must block migration");
        assert_eq!(d.gain, 0.0);
    }

    #[test]
    fn full_target_fails_over_to_next_best() {
        let topo = Arc::new(CanonicalTree::small());
        // vm0@srv0 talks to vm1@srv1 (heavy) and vm2@srv2 (light), all in
        // rack 0. Collocating with vm1 is best but srv1 is full, so the
        // engine falls over to srv2 (collocating with the light peer while
        // keeping the heavy one at rack level).
        let mut b = PairTrafficBuilder::new(4);
        b.add(VmId::new(0), VmId::new(1), 10.0);
        b.add(VmId::new(0), VmId::new(2), 1.0);
        b.add(VmId::new(1), VmId::new(3), 1.0);
        let traffic = b.build();
        let servers = [0u32, 1, 2, 1]; // vm3 fills srv1's second slot
        let alloc = Allocation::from_fn(4, 16, |vm| ServerId::new(servers[vm.index()]));
        let spec = ServerSpec {
            vm_slots: 2,
            ..ServerSpec::paper_default()
        };
        let mut cluster =
            Cluster::new(topo, spec, VmSpec::paper_default(), &traffic, alloc).unwrap();
        let engine = ScoreEngine::paper_default();
        let decision = step(&engine, VmId::new(0), &mut cluster, &traffic);
        assert_eq!(decision.rejected_capacity, 1);
        assert_eq!(decision.target, Some(ServerId::new(2)));
    }

    #[test]
    fn no_move_when_already_optimal() {
        let (mut cluster, traffic) = fixture();
        let engine = ScoreEngine::paper_default();
        // First step moves vm0 to srv1; a second decision for vm0 must not
        // bounce it back and forth.
        step(&engine, VmId::new(0), &mut cluster, &traffic);
        let second = step(&engine, VmId::new(0), &mut cluster, &traffic);
        assert!(!second.migrates(), "stable allocation must not oscillate");
    }

    #[test]
    fn accepted_move_reduces_total_cost() {
        let (mut cluster, traffic) = fixture();
        let engine = ScoreEngine::paper_default();
        let before = engine
            .cost_model()
            .total_cost(cluster.allocation(), &traffic, cluster.topo());
        let decision = step(&engine, VmId::new(0), &mut cluster, &traffic);
        let after = engine
            .cost_model()
            .total_cost(cluster.allocation(), &traffic, cluster.topo());
        assert!(decision.migrates());
        assert!(
            (before - after - decision.gain).abs() < 1e-9,
            "Lemma 3 consistency"
        );
        assert!(after < before);
    }

    #[test]
    fn candidate_budget_respected() {
        let (cluster, traffic) = fixture();
        let engine = ScoreEngine::new(
            CostModel::paper_default(),
            ScoreConfig {
                max_candidates: Some(1),
                ..ScoreConfig::paper_default()
            },
        );
        let d = decide(&engine, VmId::new(0), &cluster, &traffic);
        assert_eq!(d.evaluated, 1);
    }

    #[test]
    fn config_builders() {
        let c = ScoreConfig::paper_default()
            .with_migration_cost(5.0)
            .with_bandwidth_threshold(0.8);
        assert_eq!(c.migration_cost, 5.0);
        assert_eq!(c.bandwidth_threshold, 0.8);
        assert_eq!(ScoreConfig::default(), ScoreConfig::paper_default());
    }
}
