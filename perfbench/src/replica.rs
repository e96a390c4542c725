//! The traced runs' replica: the layers a `Session` is made of, built from
//! the same `Scenario` through the public builders and driven through the
//! same holds and events, so each layer's public function can be timed
//! from outside the program. The replica follows `Session`'s documented
//! order of operations; at the end of a traced run its state is compared
//! with the session's, and its numbers count only when they agree.

use crate::stats::Profile;
use rand::rngs::StdRng;
use rand::SeedableRng;
use score_core::{
    Cluster, CostLedger, CostModel, KernelScratch, LocalView, OutlookContext, ScoreEngine,
    TokenRing,
};
use score_sim::{ForecastSpec, Scenario};
use score_topology::{RackId, ServerId, Topology, VmId};
use score_trace::{TraceEvent, TraceRecorder};
use score_traffic::{CbrLoad, EwmaForecaster, PairTraffic, RateForecaster};
use score_xen::PreCopyModel;
use std::sync::Arc;
use std::time::Instant;

/// Which span family the traffic-layer calls of the current event land in.
#[derive(Clone, Copy, PartialEq)]
enum Path {
    Sparse,
    ScaleAll,
}

pub struct Replica {
    vm_spec: score_core::VmSpec,
    traffic: PairTraffic,
    cluster: Cluster,
    model: CostModel,
    ring: TokenRing,
    ledger: CostLedger,
    precopy: PreCopyModel,
    background: CbrLoad,
    rng: StdRng,
    forecaster: Option<EwmaForecaster>,
    horizon_s: f64,
    recorder: Option<TraceRecorder>,
    view: LocalView,
    decision_view: LocalView,
    predicted: Vec<f64>,
    kernel: KernelScratch,
    path: Path,
    pub migrations: u64,
    pub migrated_bytes: f64,
    pub prof: Profile,
}

impl Replica {
    /// Builds the replica, timing each builder into the `setup.*` spans.
    /// `record` mirrors `Session::start_trace_recording`.
    pub fn build(scenario: &Scenario, record: bool) -> Replica {
        let mut prof = Profile::default();
        let t = Instant::now();
        let topo: Arc<dyn Topology> = scenario.topology.build().expect("topology builds");
        prof.span("setup.topology", t);
        let traffic = scenario.workload.generate(topo.as_ref());
        let server = scenario.resources.server;
        let t = Instant::now();
        let alloc = scenario.placement.build(
            traffic.num_vms(),
            topo.num_servers() as u32,
            server.vm_slots,
            scenario.workload.seed(),
        );
        let cluster = Cluster::new(
            Arc::clone(&topo),
            server,
            scenario.resources.vm,
            &traffic,
            alloc,
        )
        .expect("cluster builds");
        prof.span("setup.cluster", t);
        let model = CostModel::new(scenario.engine.weights());
        let t = Instant::now();
        let mut ledger =
            CostLedger::new(model.clone(), cluster.allocation(), &traffic, topo.as_ref());
        ledger.enable_sharding(cluster.allocation(), &traffic, topo.as_ref());
        prof.span("setup.ledger", t);
        let t = Instant::now();
        let ring = TokenRing::with_boxed(
            ScoreEngine::new(model.clone(), scenario.engine.score()),
            scenario.policy.build(scenario.seed),
            traffic.num_vms(),
        );
        prof.span("setup.ring", t);
        let (forecaster, horizon_s) = match scenario.forecast {
            ForecastSpec::Ewma { alpha, horizon_s } if scenario.forecast.is_active() => {
                let mut f = EwmaForecaster::new(alpha);
                f.prime(&traffic, 0.0);
                (Some(f), horizon_s)
            }
            ForecastSpec::None => (None, 0.0),
            other => panic!("the replica mirrors reactive and EWMA sessions only, not {other:?}"),
        };
        let recorder = record.then(|| TraceRecorder::new(&traffic));
        Replica {
            vm_spec: scenario.resources.vm,
            traffic,
            cluster,
            model,
            ring,
            ledger,
            precopy: PreCopyModel::new(scenario.engine.precopy()),
            background: scenario.engine.background(),
            rng: StdRng::seed_from_u64(scenario.seed),
            forecaster,
            horizon_s,
            recorder,
            view: LocalView::default(),
            decision_view: LocalView::default(),
            predicted: Vec::new(),
            kernel: KernelScratch::new(),
            path: Path::Sparse,
            migrations: 0,
            migrated_bytes: 0.0,
            prof,
        }
    }

    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    pub fn ledger_total(&self) -> f64 {
        self.ledger.current()
    }

    /// One token hold at event time `t_s`: the read-only observe /
    /// predict / decide calls for the current holder, then the ring step
    /// itself, then the pre-copy sample of an accepted migration.
    pub fn hold(&mut self, t_s: f64) {
        let Some(holder) = self.ring.holder() else {
            return;
        };
        let ctx = match &self.forecaster {
            Some(f) => OutlookContext::forecast(f as &dyn RateForecaster, t_s, self.horizon_s),
            None => OutlookContext::reactive(),
        };
        // The read-only calls run twice: the first pass meets the data as
        // cold as the session's own ring step does; the second, warm pass
        // is what the ring step that follows (on now-warm data) contains,
        // so `core.ring.self_ns` subtracts that one.
        let mut decision = None;
        for pass in ["", ".warm"] {
            let t = Instant::now();
            self.view.observe_into(
                holder,
                self.cluster.allocation(),
                &self.traffic,
                self.cluster.topo(),
            );
            self.prof.span(span_name("core.view.observe", pass), t);
            let t = Instant::now();
            let forecasting = ctx.predict_into(&self.view, &mut self.predicted);
            if forecasting {
                for (slot, p) in self.predicted.iter_mut().zip(&self.view.peers) {
                    *slot = slot.max(p.rate);
                }
                self.decision_view
                    .assign_with_rates(&self.view, &self.predicted);
                self.prof.span(span_name("core.outlook.predict", pass), t);
            }
            let engine = self.ring.engine();
            let t = Instant::now();
            decision = Some(if forecasting {
                engine.decide_scored_with(
                    &self.decision_view,
                    Some(&self.view),
                    &self.cluster,
                    &mut self.kernel,
                )
            } else {
                engine.decide_scored_with(&self.view, None, &self.cluster, &mut self.kernel)
            });
            self.prof.span(span_name("core.engine.decide", pass), t);
        }
        let decision = decision.expect("two passes ran");
        self.prof
            .count("core.engine.candidates", decision.evaluated as f64);
        self.prof.count(
            "core.engine.rejected_capacity",
            decision.rejected_capacity as f64,
        );

        let t = Instant::now();
        let outcome = self
            .ring
            .step_ledgered_outlook(&mut self.cluster, &self.traffic, &mut self.ledger, &ctx)
            .expect("the ring had a holder");
        self.prof.span("core.ring.step", t);
        assert_eq!(
            outcome.decision, decision,
            "the read-only decision must be the one the ring took"
        );
        if outcome.decision.migrates() {
            self.prof.count("core.engine.accepted", 1.0);
            let t = Instant::now();
            let sample = self.precopy.migrate(self.background, &mut self.rng);
            self.prof.span("xen.precopy", t);
            self.migrations += 1;
            self.migrated_bytes += sample.migrated_bytes;
        }
    }

    /// `Session::apply_trace_event`, layer by layer, at event time `now_s`.
    pub fn apply(&mut self, event: &TraceEvent, now_s: f64) {
        self.path = Path::Sparse;
        match *event {
            TraceEvent::SetRate { u, v, rate } => {
                self.deltas(&[(VmId::new(u), VmId::new(v), rate)], now_s);
            }
            TraceEvent::ScalePair { u, v, factor } => {
                let n = self.traffic.num_vms();
                if u >= n || v >= n {
                    return;
                }
                let (u, v) = (VmId::new(u), VmId::new(v));
                if !self.cluster.is_active(u) || !self.cluster.is_active(v) {
                    return;
                }
                let old = self.traffic.rate(u, v);
                if old != 0.0 {
                    self.deltas(&[(u, v, (old * factor).min(f64::MAX))], now_s);
                }
            }
            TraceEvent::ScaleAll { factor } => {
                // `Session::apply_traffic_scale` expands to per-pair
                // re-rates whenever a recorder or forecaster must see them,
                // as on the one workload that sends events; so does the
                // replica.
                assert!(
                    self.recorder.is_some() || self.forecaster.is_some(),
                    "the replica mirrors only the expanded ScaleAll path"
                );
                self.path = Path::ScaleAll;
                let updates: Vec<(VmId, VmId, f64)> = self
                    .traffic
                    .pairs()
                    .iter()
                    .map(|&(u, v, r)| (u, v, (r * factor).min(f64::MAX)))
                    .collect();
                self.deltas(&updates, now_s);
            }
            TraceEvent::Marker { .. } => {}
            TraceEvent::PlaceVm { server, .. } => {
                let (vm, host) = self
                    .cluster
                    .place_vm(self.vm_spec, Some(ServerId::new(server)))
                    .expect("the session admitted this placement");
                self.traffic.push_vm();
                self.ring.add_vm(vm);
                if let Some(rec) = &mut self.recorder {
                    rec.record_place(now_s, vm.get(), host.get());
                }
            }
            TraceEvent::RemoveVm { vm } => {
                let vm = VmId::new(vm);
                let peers: Vec<VmId> = self.traffic.peers(vm).iter().map(|&(p, _)| p).collect();
                for peer in peers {
                    self.deltas(&[(vm, peer, 0.0)], now_s);
                }
                self.cluster
                    .remove_vm(vm)
                    .expect("the session removed this VM");
                self.ring.remove_vm(vm);
                if let Some(rec) = &mut self.recorder {
                    rec.record_remove(now_s, vm.get());
                }
            }
            TraceEvent::HostCrash { server } => {
                self.crash(&[ServerId::new(server)], now_s);
                self.record_fault(event, now_s);
            }
            TraceEvent::RackFail { rack } => {
                let servers: Vec<ServerId> = self
                    .cluster
                    .topo()
                    .servers_in_rack(RackId::new(rack))
                    .map(ServerId::new)
                    .collect();
                self.crash(&servers, now_s);
                self.record_fault(event, now_s);
            }
            TraceEvent::LinkDegrade { tier, factor } => {
                if tier == 0 {
                    self.cluster.set_nic_capacity_factor(factor);
                }
                self.record_fault(event, now_s);
            }
            TraceEvent::LinkRestore { tier } => {
                if tier == 0 {
                    self.cluster.set_nic_capacity_factor(1.0);
                }
                self.record_fault(event, now_s);
            }
        }
    }

    fn record_fault(&mut self, event: &TraceEvent, now_s: f64) {
        if let Some(rec) = &mut self.recorder {
            rec.record_fault(now_s, event.clone());
        }
    }

    /// The sparse re-pricing path of `Session::apply_traffic_deltas`.
    fn deltas(&mut self, updates: &[(VmId, VmId, f64)], now_s: f64) {
        let scale = self.path == Path::ScaleAll;
        let mut canon: Vec<(VmId, VmId, f64)> = updates
            .iter()
            .map(|&(u, v, r)| if u < v { (u, v, r) } else { (v, u, r) })
            .collect();
        canon.sort_by_key(|&(u, v, _)| (u, v));
        canon.dedup_by(|later, earlier| {
            let dup = (later.0, later.1) == (earlier.0, earlier.1);
            if dup {
                earlier.2 = later.2;
            }
            dup
        });
        let changes: Vec<(VmId, VmId, f64, f64)> = canon
            .iter()
            .filter_map(|&(u, v, new)| {
                let old = self.traffic.rate(u, v);
                (old != new).then_some((u, v, old, new))
            })
            .collect();
        if changes.is_empty() {
            return;
        }
        let t = Instant::now();
        self.cluster.patch_traffic(&changes);
        self.prof.span(
            if scale {
                "core.cluster.scale"
            } else {
                "core.cluster.patch"
            },
            t,
        );
        let t = Instant::now();
        self.ledger
            .apply_rate_changes(self.cluster.allocation(), &changes, self.cluster.topo());
        self.prof.span(
            if scale {
                "core.ledger.scale"
            } else {
                "core.ledger.reprice"
            },
            t,
        );
        self.prof
            .count("core.ledger.pairs_repriced", changes.len() as f64);
        let t = Instant::now();
        self.traffic.apply_updates(&canon);
        self.prof.span(
            if scale {
                "traffic.scale_all"
            } else {
                "traffic.apply_updates"
            },
            t,
        );
        if let Some(f) = &mut self.forecaster {
            let observed: Vec<(VmId, VmId, f64)> =
                changes.iter().map(|&(u, v, _, new)| (u, v, new)).collect();
            let t = Instant::now();
            f.observe_updates(&observed, now_s);
            self.prof.span("traffic.forecast.observe", t);
        }
        if let Some(rec) = &mut self.recorder {
            let recorded: Vec<(u32, u32, f64)> = changes
                .iter()
                .map(|&(u, v, _, new)| (u.get(), v.get(), new))
                .collect();
            let t = Instant::now();
            rec.record_updates(now_s, &recorded);
            self.prof.span("trace.recorder.record", t);
        }
    }

    /// `Session`'s host-crash re-planning: evacuate each victim to the
    /// deterministic pick through the Lemma-3 delta path, or retire it.
    fn crash(&mut self, servers: &[ServerId], now_s: f64) {
        let mut unplaceable = Vec::new();
        for &server in servers {
            if !self.cluster.host_is_up(server) {
                continue;
            }
            let t = Instant::now();
            let victims = self.cluster.fail_host(server);
            self.prof.span("core.cluster.fail_host", t);
            for vm in victims {
                match self.cluster.choose_server(self.cluster.vm_spec(vm)) {
                    Ok(target) => {
                        let from = self.cluster.allocation().server_of(vm);
                        let gain = self.model.migration_delta(
                            vm,
                            target,
                            self.cluster.allocation(),
                            &self.traffic,
                            self.cluster.topo(),
                        );
                        self.cluster
                            .migrate(vm, target, f64::INFINITY)
                            .expect("the session evacuated this VM");
                        self.ledger.apply_migration_shards(
                            vm,
                            from,
                            target,
                            self.cluster.allocation(),
                            &self.traffic,
                            self.cluster.topo(),
                        );
                        self.ledger.apply_gain(gain);
                        self.prof.count("sim.evacuations", 1.0);
                    }
                    Err(_) => {
                        let changes = self.cluster.remove_vm(vm).expect("victim is live");
                        self.ledger.apply_rate_changes(
                            self.cluster.allocation(),
                            &changes,
                            self.cluster.topo(),
                        );
                        let updates: Vec<(VmId, VmId, f64)> =
                            changes.iter().map(|&(u, v, _, new)| (u, v, new)).collect();
                        self.traffic.apply_updates(&updates);
                        if let Some(f) = &mut self.forecaster {
                            f.observe_updates(&updates, now_s);
                        }
                        self.prof.count("sim.unplaceable", 1.0);
                        unplaceable.push(vm);
                    }
                }
            }
        }
        if !unplaceable.is_empty() {
            self.ring.fail_vms(&unplaceable);
        }
    }
}

fn span_name(base: &'static str, pass: &str) -> &'static str {
    match (base, pass) {
        (b, "") => b,
        ("core.view.observe", _) => "core.view.observe.warm",
        ("core.outlook.predict", _) => "core.outlook.predict.warm",
        ("core.engine.decide", _) => "core.engine.decide.warm",
        _ => unreachable!("only the read-only calls run warm"),
    }
}
