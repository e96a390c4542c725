//! Seeded input generation. Every input the benchmark feeds the program —
//! base traffic matrices, trace event streams, request lines — is made
//! here from the `--seed` argument with the benchmark's own generator, so
//! a change to the program's generators or RNG shims cannot change what is
//! measured.

use score_trace::{TimedEvent, TraceEvent};

/// SplitMix64: tiny, fast, and fully specified here.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x5eed_5eed_5eed_5eed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Log-normal with the given median and shape.
    pub fn lognormal(&mut self, median: f64, sigma: f64) -> f64 {
        let u1 = self.unit().max(1e-300);
        let u2 = self.unit();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        median * (sigma * z).exp()
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// Derives an independent seed for sub-stream `index` of `seed`.
pub fn derive(seed: u64, index: u64) -> u64 {
    Rng::new(seed ^ index.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Shape of a clustered communication graph (applications of a few VMs
/// talking mostly among themselves, plus light cross-application chatter).
pub struct TmShape {
    pub num_vms: u32,
    pub cluster_min: u32,
    pub cluster_max: u32,
    /// Intra-cluster peers drawn per VM.
    pub intra_degree: u32,
    pub intra_median_bps: f64,
    /// Cross-cluster pairs per VM, as an expected count.
    pub cross_per_vm: f64,
    pub cross_median_bps: f64,
    pub sigma: f64,
    pub cap_bps: f64,
}

impl TmShape {
    /// The dense paper-scale matrix (5,120 VMs).
    pub fn paper_dense() -> Self {
        TmShape {
            num_vms: 5_120,
            cluster_min: 4,
            cluster_max: 28,
            intra_degree: 8,
            intra_median_bps: 1e7,
            cross_per_vm: 1.0,
            cross_median_bps: 2e6,
            sigma: 1.0,
            cap_bps: 2.5e8,
        }
    }

    /// The sparse mega-scale matrix (55,296 VMs): small applications
    /// (≤ 6 VMs) that never talk to each other, so consolidation gathers at
    /// most a few applications on one host and every explicit `PlaceVm`
    /// target keeps a free slot (with cross-application pairs, chains of
    /// applications piled up and filled hosts).
    pub fn mega_sparse() -> Self {
        TmShape {
            num_vms: 55_296,
            cluster_min: 2,
            cluster_max: 6,
            intra_degree: 2,
            intra_median_bps: 1e6,
            cross_per_vm: 0.0,
            cross_median_bps: 2e5,
            sigma: 1.0,
            cap_bps: 2.5e8,
        }
    }

    /// Generates `(u, v, rate)` entries with `u < v`, no duplicates.
    pub fn generate(&self, seed: u64) -> Vec<(u32, u32, f64)> {
        let mut rng = Rng::new(seed);
        let mut ids: Vec<u32> = (0..self.num_vms).collect();
        rng.shuffle(&mut ids);
        let mut pairs = std::collections::BTreeMap::new();
        let mut start = 0usize;
        let span = u64::from(self.cluster_max - self.cluster_min + 1);
        while start < ids.len() {
            let size = (self.cluster_min as u64 + rng.below(span)) as usize;
            let end = (start + size).min(ids.len());
            let group = &ids[start..end];
            if group.len() > 1 {
                for &u in group {
                    for _ in 0..self.intra_degree {
                        let v = group[rng.below(group.len() as u64) as usize];
                        if u != v {
                            let rate = rng
                                .lognormal(self.intra_median_bps, self.sigma)
                                .min(self.cap_bps);
                            pairs.insert((u.min(v), u.max(v)), rate);
                        }
                    }
                }
            }
            start = end;
        }
        let cross = (self.cross_per_vm * f64::from(self.num_vms)) as u64;
        for _ in 0..cross {
            let u = rng.below(u64::from(self.num_vms)) as u32;
            let v = rng.below(u64::from(self.num_vms)) as u32;
            if u != v {
                let rate = rng
                    .lognormal(self.cross_median_bps, self.sigma)
                    .min(self.cap_bps);
                pairs.entry((u.min(v), u.max(v))).or_insert(rate);
            }
        }
        pairs.into_iter().map(|((u, v), r)| (u, v, r)).collect()
    }
}

/// Order-sensitive fingerprint of generated inputs (FNV-1a over the bits).
pub fn fingerprint(pairs: &[(u32, u32, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &(u, v, r) in pairs {
        for x in [u64::from(u), u64::from(v), r.to_bits()] {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Event counts of one `trace_mega` stream.
pub struct StreamShape {
    pub horizon_s: f64,
    pub sparse: usize,
    pub scale_all: usize,
    pub churn: usize,
    pub host_crashes: usize,
    pub rack_fails: usize,
}

/// Generates the `trace_mega` event stream over `base` (the initial pairs)
/// on a fabric of `hosts` servers grouped into `racks` (server ids). The
/// generator tracks which VMs are alive and which hosts are up, so every
/// event is valid when it fires: re-rates only name live pairs, placements
/// only name live hosts, removals only name live VMs.
pub fn mega_stream(
    seed: u64,
    base: &[(u32, u32, f64)],
    num_vms: u32,
    hosts: u32,
    racks: &[Vec<u32>],
    shape: &StreamShape,
) -> Vec<TimedEvent> {
    #[derive(Clone, Copy)]
    enum Kind {
        Sparse,
        ScaleAll,
        Place,
        Remove,
        Crash,
        Rack,
        Degrade,
        Restore,
    }
    let mut rng = Rng::new(seed);
    let mut kinds = Vec::new();
    kinds.extend(std::iter::repeat_n(Kind::Sparse, shape.sparse));
    kinds.extend(std::iter::repeat_n(Kind::ScaleAll, shape.scale_all));
    kinds.extend(std::iter::repeat_n(Kind::Place, shape.churn));
    kinds.extend(std::iter::repeat_n(Kind::Remove, shape.churn));
    kinds.extend(std::iter::repeat_n(Kind::Crash, shape.host_crashes));
    kinds.extend(std::iter::repeat_n(Kind::Rack, shape.rack_fails));
    kinds.push(Kind::Degrade);
    kinds.push(Kind::Restore);
    let mut times: Vec<f64> = (0..kinds.len())
        .map(|_| rng.unit() * shape.horizon_s * 0.95)
        .collect();
    times.sort_by(f64::total_cmp);
    rng.shuffle(&mut kinds);
    // The degradation must precede its restore.
    let d = kinds
        .iter()
        .position(|k| matches!(k, Kind::Degrade))
        .unwrap();
    let r = kinds
        .iter()
        .position(|k| matches!(k, Kind::Restore))
        .unwrap();
    if r < d {
        kinds.swap(r, d);
    }

    let mut alive = vec![true; num_vms as usize];
    let mut live_vms: Vec<u32> = (0..num_vms).collect();
    let mut host_up = vec![true; hosts as usize];
    // Live pairs (both endpoints alive) with their current rate; pairs of
    // departed VMs are dropped lazily when drawn.
    let mut live_pairs: Vec<(u32, u32)> = base.iter().map(|&(u, v, _)| (u, v)).collect();
    let mut next_vm = num_vms;
    let mut pending_inverse: Option<f64> = None;
    let mut events = Vec::with_capacity(kinds.len());
    for (kind, time_s) in kinds.into_iter().zip(times) {
        let event = match kind {
            Kind::Sparse => loop {
                let i = rng.below(live_pairs.len() as u64) as usize;
                let (u, v) = live_pairs[i];
                if !(alive[u as usize] && alive[v as usize]) {
                    live_pairs.swap_remove(i);
                    continue;
                }
                break if rng.unit() < 0.6 {
                    TraceEvent::SetRate {
                        u,
                        v,
                        rate: rng.lognormal(1e6, 1.0).min(2.5e8),
                    }
                } else {
                    TraceEvent::ScalePair {
                        u,
                        v,
                        factor: (0.8 * rng.unit() - 0.4).exp(),
                    }
                };
            },
            // Drifts come in reciprocal pairs, so the stream's net scale is
            // one and `C_A`'s end-to-end ratio reflects the decisions.
            Kind::ScaleAll => TraceEvent::ScaleAll {
                factor: match pending_inverse.take() {
                    Some(f) => 1.0 / f,
                    None => {
                        let f = 0.8 + 0.4 * rng.unit();
                        pending_inverse = Some(f);
                        f
                    }
                },
            },
            Kind::Place => {
                let server = loop {
                    let h = rng.below(u64::from(hosts)) as u32;
                    if host_up[h as usize] {
                        break h;
                    }
                };
                let vm = next_vm;
                next_vm += 1;
                alive.push(true);
                live_vms.push(vm);
                // The newcomer starts quiet; give it a peer so later
                // re-rates can reach it.
                let peer = live_vms[rng.below(live_vms.len() as u64 - 1) as usize];
                if alive[peer as usize] && peer != vm {
                    live_pairs.push((peer.min(vm), peer.max(vm)));
                }
                TraceEvent::PlaceVm { vm, server }
            }
            Kind::Remove => loop {
                let i = rng.below(live_vms.len() as u64) as usize;
                let vm = live_vms.swap_remove(i);
                if alive[vm as usize] {
                    alive[vm as usize] = false;
                    break TraceEvent::RemoveVm { vm };
                }
            },
            Kind::Crash => loop {
                let h = rng.below(u64::from(hosts)) as u32;
                if host_up[h as usize] {
                    host_up[h as usize] = false;
                    break TraceEvent::HostCrash { server: h };
                }
            },
            Kind::Rack => {
                let rack = rng.below(racks.len() as u64) as usize;
                for &h in &racks[rack] {
                    host_up[h as usize] = false;
                }
                TraceEvent::RackFail { rack: rack as u32 }
            }
            Kind::Degrade => TraceEvent::LinkDegrade {
                tier: 0,
                factor: 0.5,
            },
            Kind::Restore => TraceEvent::LinkRestore { tier: 0 },
        };
        events.push(TimedEvent { time_s, event });
    }
    // Re-rates of pairs created for newcomers must follow the placement;
    // pairs are only ever appended after their `PlaceVm`, so a re-rate
    // drawn later always fires later.
    events
}
