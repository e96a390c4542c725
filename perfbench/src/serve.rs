//! The two serving workloads: an in-process `scored` daemon at paper
//! scale, loaded over its Unix socket from one connection (plus one
//! subscriber connection on `serve_observed`).
//!
//! Each run serves three kinds of phase, each against a fresh daemon: the
//! reference rate (open loop; the latency metrics), a fixed rate ladder
//! (open loop; `max_rps`), and saturation (a closed window of outstanding
//! requests; the sustained throughput). The load generator
//! uses two threads: the sender (which also drains the subscriber socket)
//! and a response reader. In the open loop, requests go out on a fixed
//! schedule and each latency runs from the request's due time to its
//! response, so a stall is charged to every request queued behind it.

use crate::inputs::{self, Rng};
use crate::sim::serve_scenario;
use crate::stats::{median, peak_rss_mib, percentile, Profile};
use crate::{Checks, Layers, Run, Summary};
use score_obs::ObsHandle;
use score_scored::{
    parse_request, response_line, Daemon, DaemonConfig, Request, Response, TenantEngine,
};
use score_sim::{RunReport, Scenario};
use score_trace::TraceEvent;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Where the daemon's Unix socket lives, relative to the working directory.
const SOCKET_DIR: &str = ".bench_build";
/// Requests kept outstanding in the saturation phase.
const WINDOW: usize = 128;

/// One workload's serving plan.
struct Plan {
    /// Simulated seconds the pacer advances per wall second.
    pace: f64,
    /// Tenant horizon: far beyond the run on `serve_mixed`; on
    /// `serve_observed` the warm-up end, where the clock stops so every
    /// broadcast carries a same-size report.
    t_end_s: f64,
    /// Simulated seconds the tenant runs before the load starts.
    warm_up_s: f64,
    /// One subscriber attached, and the clock frozen after the warm-up.
    observed: bool,
    mix: Mix,
    /// The reference rate (req/s) and how long it is offered.
    reference_rps: f64,
    reference_s: f64,
    /// The ladder's rates; each rung sends `rung_n` requests.
    ladder: Vec<f64>,
    rung_n: usize,
    /// Seconds of the saturation phase.
    saturation_s: f64,
    /// Repeats the reference and saturation phases are split into.
    segments: usize,
    /// Latency limit on the tail percentile for a rung to count.
    limit_us: f64,
    /// The tail percentile reported: the highest with at least ten
    /// samples beyond it at the reference rate.
    tail_q: f64,
}

/// One planned request.
struct Planned {
    line: String,
    verb: Verb,
}

#[derive(Clone, Copy, PartialEq, Debug)]
enum Verb {
    Traffic,
    Place,
    Remove,
    Fault,
    Report,
    Stats,
}

/// What came back for one request.
struct Reply {
    due: Instant,
    sent: Instant,
    received: Instant,
    line: String,
}

/// A serving workload's request mix.
struct Mix {
    /// Cumulative shares over one uniform draw for a write slot: `SetRate`
    /// below `traffic`, `Place` below `place`, `Remove` below `remove`,
    /// and a `HostCrash` fault above it.
    traffic: f64,
    place: f64,
    remove: f64,
    /// Reads come at a fixed spacing, like a dashboard polling: the slots
    /// of every 50 requests that are a `Report` and a `Stats`. Randomly
    /// spaced reads cluster differently in every repeat, and the tail then
    /// follows the clustering rather than the program.
    report_slot: Option<usize>,
    stats_slot: Option<usize>,
}

/// Generates `n` request lines of `mix`, tracking which VMs and hosts are
/// alive so every request is valid.
fn mix_requests(
    seed: u64,
    mix: &Mix,
    base: &[(u32, u32, f64)],
    num_vms: u32,
    hosts: u32,
    n: usize,
) -> Vec<Planned> {
    let mut rng = Rng::new(seed);
    let mut alive = vec![true; num_vms as usize];
    let mut live: Vec<u32> = (0..num_vms).collect();
    let mut host_up = vec![true; hosts as usize];
    let mut out = Vec::with_capacity(n);
    while out.len() < n {
        let slot = Some(out.len() % 50);
        let (req, verb) = if slot == mix.report_slot {
            (Request::Report, Verb::Report)
        } else if slot == mix.stats_slot {
            (Request::Stats, Verb::Stats)
        } else {
            let roll = rng.unit();
            if roll < mix.traffic {
                let (u, v) = loop {
                    let (u, v, _) = base[rng.below(base.len() as u64) as usize];
                    if alive[u as usize] && alive[v as usize] {
                        break (u, v);
                    }
                };
                let rate = rng.lognormal(1e7, 1.0).min(2.5e8);
                let events = vec![TraceEvent::SetRate { u, v, rate }];
                (Request::Traffic { events }, Verb::Traffic)
            } else if roll < mix.place {
                alive.push(true);
                live.push(alive.len() as u32 - 1);
                (Request::Place { server: None }, Verb::Place)
            } else if roll < mix.remove {
                let vm = loop {
                    let vm = live.swap_remove(rng.below(live.len() as u64) as usize);
                    if alive[vm as usize] {
                        break vm;
                    }
                };
                alive[vm as usize] = false;
                (Request::Remove { vm }, Verb::Remove)
            } else {
                let server = loop {
                    let h = rng.below(u64::from(hosts)) as u32;
                    if host_up[h as usize] {
                        host_up[h as usize] = false;
                        break h;
                    }
                };
                let events = vec![TraceEvent::HostCrash { server }];
                (Request::Fault { events }, Verb::Fault)
            }
        };
        out.push(Planned {
            line: request_line(&req),
            verb,
        });
    }
    out
}

fn request_line(req: &Request) -> String {
    serde_json::to_string(req).expect("requests serialize")
}

struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
}

impl Conn {
    fn open(addr: &Path) -> Conn {
        let stream = UnixStream::connect(addr).expect("connect to the daemon");
        Conn {
            writer: stream.try_clone().expect("clone the socket"),
            reader: BufReader::with_capacity(1 << 20, stream),
        }
    }

    fn send(&mut self, line: &str) {
        let mut buf = String::with_capacity(line.len() + 1);
        buf.push_str(line);
        buf.push('\n');
        self.writer
            .write_all(buf.as_bytes())
            .expect("write a request");
    }

    fn recv(&mut self) -> String {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read a response");
        assert!(n > 0, "the daemon closed the connection");
        line.truncate(line.trim_end().len());
        line
    }

    fn call(&mut self, req: &Request) -> Response {
        self.send(&request_line(req));
        let line = self.recv();
        serde_json::from_str(&line).unwrap_or_else(|e| panic!("bad response {line}: {e}"))
    }
}

/// Reads whatever the subscriber socket holds, returning the byte count.
fn drain(sub: &mut Option<UnixStream>, buf: &mut [u8]) -> usize {
    let Some(s) = sub.as_mut() else { return 0 };
    let mut total = 0;
    loop {
        match s.read(buf) {
            Ok(0) => return total,
            Ok(n) => total += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return total,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => panic!("subscriber read failed: {e}"),
        }
    }
}

/// How a phase offers its requests.
#[derive(Clone, Copy)]
enum Load {
    /// Open loop at a fixed rate (req/s).
    Open(f64),
    /// Closed loop keeping `WINDOW` requests outstanding for this long.
    Window(Duration),
}

/// One phase's raw measurements.
struct Phase {
    open_loop: bool,
    planned: Vec<Planned>,
    replies: Vec<Reply>,
    setup_s: f64,
    closing: String,
    elapsed_s: f64,
}

impl Phase {
    /// Latencies from due time, in µs, in request order.
    fn latencies(&self) -> Vec<f64> {
        self.replies
            .iter()
            .map(|r| (r.received - r.due).as_secs_f64() * 1e6)
            .collect()
    }

    fn lag_p99_us(&self) -> f64 {
        let mut lag: Vec<f64> = self
            .replies
            .iter()
            .map(|r| (r.sent - r.due).as_secs_f64() * 1e6)
            .collect();
        percentile(&mut lag, 0.99)
    }
}

/// Serves one phase against a fresh daemon: bind, attach (the timed
/// set-up), the optional warm-up, the load, a closing `Report`, shutdown.
/// Only as many of `planned` are sent as the load calls for.
fn serve_phase(scenario: &Scenario, plan: &Plan, load: Load, mut planned: Vec<Planned>) -> Phase {
    // A relative path keeps the socket inside the working directory and
    // under the platform's socket-path length limit.
    std::fs::create_dir_all(SOCKET_DIR).expect("create the socket directory");
    let addr = PathBuf::from(format!(
        "{SOCKET_DIR}/perfbench-{}.sock",
        std::process::id()
    ));
    let t = Instant::now();
    let daemon = Daemon::bind(DaemonConfig {
        scenario: scenario.clone(),
        unix_socket: Some(addr.clone()),
        tcp_addr: None,
        rate: plan.pace,
        record_dir: None,
    })
    .expect("bind the daemon's socket");
    let daemon = std::thread::spawn(move || daemon.run());
    let mut client = Conn::open(&addr);
    let attached = client.call(&Request::Attach {
        tenant: "bench".into(),
    });
    assert!(
        matches!(attached, Response::Attached { .. }),
        "attach failed: {attached:?}"
    );
    let setup_s = t.elapsed().as_secs_f64();
    let mut subscriber = plan.observed.then(|| {
        let mut sub = Conn::open(&addr);
        sub.call(&Request::Attach {
            tenant: "bench".into(),
        });
        let ok = sub.call(&Request::Subscribe);
        assert!(
            matches!(ok, Response::Subscribed { .. }),
            "subscribe failed: {ok:?}"
        );
        sub.writer
            .set_nonblocking(true)
            .expect("nonblocking subscriber");
        sub.writer
    });
    let mut buf = vec![0u8; 1 << 16];
    // Warm-up: let the pacer carry the tenant to `warm_up_s` simulated
    // seconds, so every phase starts from the same converged state. An
    // observed tenant stays frozen there; a mixed one resumes pacing.
    loop {
        let r = client.call(&Request::Pause);
        drain(&mut subscriber, &mut buf);
        match r {
            Response::Paused { at_s } if at_s >= plan.warm_up_s => break,
            Response::Paused { .. } => {
                client.call(&Request::Resume);
                std::thread::sleep(Duration::from_millis(20));
            }
            other => panic!("pause failed: {other:?}"),
        }
    }
    if !plan.observed {
        client.call(&Request::Resume);
    }
    // The sender polls the subscriber this often while it waits.
    let poll = Duration::from_micros(100);
    let n = planned.len();
    let received = AtomicUsize::new(0);
    let mut sent = Vec::with_capacity(n);
    let mut due = Vec::with_capacity(n);
    let Conn { mut writer, reader } = client;
    let t0 = Instant::now() + Duration::from_millis(2);
    let (replies_in, reader) = std::thread::scope(|scope| {
        let received = &received;
        let reader_thread = scope.spawn(move || {
            let mut reader = reader;
            let mut out = Vec::with_capacity(n);
            loop {
                let mut line = String::new();
                let got = reader.read_line(&mut line).expect("read a response");
                assert!(got > 0, "the daemon closed the connection");
                let at = Instant::now();
                line.truncate(line.trim_end().len());
                let done = line.contains("ShuttingDown");
                if !done {
                    out.push((at, line));
                    received.store(out.len(), Ordering::Release);
                }
                if done {
                    return (out, reader);
                }
            }
        });
        let wait_until =
            |deadline: Instant, subscriber: &mut Option<UnixStream>, buf: &mut [u8]| loop {
                drain(subscriber, buf);
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let left = deadline - now;
                std::thread::sleep(if subscriber.is_some() {
                    left.min(poll)
                } else {
                    left
                });
            };
        for (i, p) in planned.iter().enumerate() {
            let d = match load {
                Load::Open(rate) => {
                    let d = t0 + Duration::from_secs_f64(i as f64 / rate);
                    wait_until(d, &mut subscriber, &mut buf);
                    d
                }
                Load::Window(length) => {
                    if Instant::now() >= t0 + length {
                        break;
                    }
                    while i - received.load(Ordering::Acquire) >= WINDOW {
                        drain(&mut subscriber, &mut buf);
                        std::thread::sleep(Duration::from_micros(100));
                    }
                    Instant::now()
                }
            };
            let at = Instant::now();
            let mut line = String::with_capacity(p.line.len() + 1);
            line.push_str(&p.line);
            line.push('\n');
            writer.write_all(line.as_bytes()).expect("write a request");
            sent.push(at);
            due.push(d);
        }
        // Wait for every response, keeping observers drained.
        while received.load(Ordering::Acquire) < sent.len() {
            drain(&mut subscriber, &mut buf);
            std::thread::sleep(poll);
        }
        let elapsed_s = t0.elapsed().as_secs_f64();
        // The closing report, then shutdown; the reader hands back both.
        writer
            .write_all(b"\"Report\"\n\"Shutdown\"\n")
            .expect("write closing requests");
        while !reader_thread.is_finished() {
            drain(&mut subscriber, &mut buf);
            std::thread::sleep(poll);
        }
        let (mut out, reader) = reader_thread.join().expect("reader thread");
        let closing = out.pop().expect("the closing report").1;
        ((out, closing, elapsed_s), reader)
    });
    drop(reader);
    drop(writer);
    drop(subscriber);
    daemon.join().expect("daemon thread");
    let (replies_in, closing, elapsed_s) = replies_in;
    planned.truncate(sent.len());
    let replies = replies_in
        .into_iter()
        .zip(sent.into_iter().zip(due))
        .map(|((received, line), (sent, due))| Reply {
            due,
            sent,
            received,
            line,
        })
        .collect();
    Phase {
        open_loop: matches!(load, Load::Open(_)),
        planned,
        replies,
        setup_s,
        closing,
        elapsed_s,
    }
}

/// Checks every reply and the closing report; returns the parsed report.
fn check_phase(checks: &mut Checks, failed: &mut u64, p: &Phase) -> Option<RunReport> {
    for rep in &p.replies {
        match serde_json::from_str::<Response>(&rep.line) {
            Ok(Response::Error { code, message }) => {
                *failed += 1;
                checks.fail(&format!("request failed: {code}: {message}"));
            }
            Ok(_) => {}
            Err(e) => {
                *failed += 1;
                checks.fail(&format!("unparseable response {}: {e}", rep.line));
            }
        }
    }
    match serde_json::from_str::<Response>(&p.closing) {
        Ok(Response::Report { json }) => match RunReport::from_json(&json) {
            Ok(report) => Some(report),
            Err(e) => {
                checks.fail(&format!(
                    "closing report does not parse as a RunReport: {e}"
                ));
                None
            }
        },
        other => {
            checks.fail(&format!("closing Report answered {other:?}"));
            None
        }
    }
}

/// The boundary time a mutation's response reports.
fn at_s(resp: &Response) -> Option<f64> {
    match *resp {
        Response::Applied { at_s, .. }
        | Response::Placed { at_s, .. }
        | Response::Removed { at_s, .. }
        | Response::Faulted { at_s, .. } => Some(at_s),
        _ => None,
    }
}

/// Replays a phase against an in-process `TenantEngine` replica, timing
/// each layer call, and checks the replica ends byte-identical to the
/// daemon's closing report. The replica paces by explicit single-hold
/// `pump(1)` calls up to each response's drained boundary, exactly as
/// crash recovery re-derives a tenant.
fn replay_phase(
    checks: &mut Checks,
    prof: &mut Profile,
    scenario: &Scenario,
    phase: &Phase,
    closing: &RunReport,
    observed: bool,
) {
    let t = Instant::now();
    let mut engine =
        TenantEngine::new("bench", scenario.clone(), 1e12, None).expect("replica tenant");
    prof.span("setup.session", t);
    let obs = ObsHandle::new();
    engine.attach_obs(&obs.with_label("tenant", "bench"));
    let pump_to = |engine: &mut TenantEngine, prof: &mut Profile, at: f64| {
        while !engine.session().horizon_reached()
            && engine.session().next_event_time().is_some_and(|t| t <= at)
        {
            let t = Instant::now();
            engine.pump(1);
            prof.span("scored.engine.pump", t);
        }
    };
    let mut boundary = 0.0f64;
    for (p, rep) in phase.planned.iter().zip(&phase.replies) {
        let t = Instant::now();
        let req = parse_request(&p.line).expect("planned requests parse");
        let parse = t.elapsed();
        prof.add_ns("scored.proto.parse", parse.as_nanos());
        let resp: Response = serde_json::from_str(&rep.line).expect("checked before");
        let t = Instant::now();
        std::hint::black_box(response_line(&resp));
        let serialize = t.elapsed();
        prof.add_ns("scored.proto.serialize", serialize.as_nanos());
        if let Some(at) = at_s(&resp) {
            boundary = at;
        }
        pump_to(&mut engine, prof, boundary);
        let t = Instant::now();
        let span = match req {
            Request::Traffic { events } => {
                engine.traffic(&events).expect("the daemon applied it");
                "scored.engine.traffic"
            }
            Request::Place { server } => {
                let (vm, host, _) = engine.place(server).expect("the daemon placed it");
                if let Response::Placed {
                    vm: dvm,
                    server: dhost,
                    ..
                } = resp
                {
                    checks.require(vm == dvm && host == dhost, "replica placed a VM elsewhere");
                }
                "scored.engine.place"
            }
            Request::Remove { vm } => {
                engine.remove(vm).expect("the daemon removed it");
                "scored.engine.remove"
            }
            Request::Fault { events } => {
                engine.fault(&events).expect("the daemon applied it");
                "scored.engine.fault"
            }
            Request::Report => {
                std::hint::black_box(engine.report_json());
                "scored.engine.report_json"
            }
            Request::Stats => {
                std::hint::black_box(obs.snapshot_json());
                "obs.snapshot"
            }
            other => unreachable!("not in any plan: {other:?}"),
        };
        let mut engine_time = t.elapsed();
        prof.add_ns(span, engine_time.as_nanos());
        if observed && p.verb == Verb::Traffic {
            // Every observed write also serializes the fresh trace lines
            // and a full report for the broadcast.
            let t = Instant::now();
            let lines = engine.fresh_trace_lines();
            prof.span("scored.engine.trace_lines", t);
            let t2 = Instant::now();
            let report = engine.report_json();
            prof.span("scored.engine.report_json", t2);
            engine_time += t.elapsed();
            let bytes: usize = lines.iter().map(|l| l.len() + 20).sum::<usize>()
                + rep.line.len()
                + report.len()
                + 20;
            prof.count("scored.broadcast_bytes", bytes as f64);
            prof.count("scored.writes", 1.0);
        }
        // The saturation phase queues its window on purpose; waits count
        // in the open-loop phases only.
        if phase.open_loop {
            let rtt = rep.received - rep.sent;
            let wait = rtt.saturating_sub(parse + serialize + engine_time);
            prof.count("scored.daemon.wait_ns", wait.as_nanos() as f64);
            prof.count("scored.requests", 1.0);
        }
    }
    // Catch up with the holds the daemon ran after the last mutation.
    let mut holds = engine.session().report().token_holds;
    while holds < closing.token_holds && !engine.session().horizon_reached() {
        let t = Instant::now();
        engine.pump(1);
        prof.span("scored.engine.pump", t);
        holds += 1;
    }
    checks.require(
        engine.report_json() == score_scored::canonical_report_json(closing),
        "the replica tenant's report differs from the daemon's closing report",
    );
}

fn serve(seed: u64, seconds: f64, traced: bool, plan: Plan) -> Run {
    let mut checks = Checks::default();
    let scenario = serve_scenario(inputs::derive(seed, 10), plan.t_end_s);
    let other = serve_scenario(inputs::derive(seed.wrapping_add(1), 10), plan.t_end_s);
    let pairs = |s: &Scenario| match &s.workload {
        score_sim::WorkloadSpec::ExplicitPairs { pairs, num_vms, .. } => (pairs.clone(), *num_vms),
        _ => unreachable!("serve scenarios carry explicit pairs"),
    };
    let (base, num_vms) = pairs(&scenario);
    checks.require(
        inputs::fingerprint(&base) != inputs::fingerprint(&pairs(&other).0),
        "seeds n and n+1 generated identical inputs",
    );
    let scale = (seconds / 20.0).max(0.05);
    let hosts = scenario
        .topology
        .build()
        .expect("tree builds")
        .num_servers() as u32;
    let requests = |index: u64, n: usize| {
        let rseed = inputs::derive(seed, 20 + index);
        mix_requests(rseed, &plan.mix, &base, num_vms, hosts, n)
    };
    let mut failed = 0u64;
    let mut attempted = 0u64;
    let mut layers = Layers::default();
    let mut setups = Vec::new();
    if traced {
        // The tenant's builders, timed once through the public specs.
        layers.absorb(crate::replica::Replica::build(&scenario, false).prof);
    }
    let mut measure = |load: Load, planned: Vec<Planned>, layers: &mut Layers| {
        let phase = serve_phase(&scenario, &plan, load, planned);
        attempted += phase.replies.len() as u64;
        setups.push(phase.setup_s);
        let report = check_phase(&mut checks, &mut failed, &phase);
        if traced {
            if let Some(report) = &report {
                replay_phase(
                    &mut checks,
                    &mut layers.prof,
                    &scenario,
                    &phase,
                    report,
                    plan.observed,
                );
            }
            if phase.open_loop {
                layers.prof.count("loadgen.lag_p99_us", phase.lag_p99_us());
                layers.prof.count("loadgen.phases", 1.0);
            }
            layers.prof.count("units", 1.0);
        }
        (phase, report)
    };

    // The reference and saturation phases run in `segments` short repeats,
    // spread between the ladder's rungs; latencies and throughput pool
    // the repeats, so a burst of interference on the shared host is one
    // share of the sample rather than a whole phase.
    let mut pooled = Vec::new();
    let mut ref_lag = Vec::new();
    let mut ratios = Vec::new();
    let mut gbs = Vec::new();
    let (mut saturated_n, mut saturated_s) = (0usize, 0.0f64);
    let mut samples = 0usize;
    let mut max_rps = f64::NAN;
    let mut counting = true;
    let per_gap = plan.ladder.len().div_ceil(plan.segments);
    // An untimed first phase pays the process's one-time costs (thread
    // and arena creation, first page faults) before anything is measured.
    let warm = Duration::from_secs_f64(0.25 * scale);
    serve_phase(&scenario, &plan, Load::Window(warm), requests(1_000, 2_000));
    for seg in 0..plan.segments {
        // Reference rate: the latency metrics and the closing report.
        let secs = plan.reference_s * scale / plan.segments as f64;
        let n = ((plan.reference_rps * secs) as usize).max(20);
        let (reference, report) = measure(
            Load::Open(plan.reference_rps),
            requests(seg as u64, n),
            &mut layers,
        );
        let mut lat = reference.latencies();
        samples += lat.len();
        pooled.extend_from_slice(&lat);
        ref_lag.push(reference.lag_p99_us());
        println!(
            "# reference repeat {seg}: p50={:.0}us p{:.0}={:.0}us",
            percentile(&mut lat, 0.50),
            plan.tail_q * 100.0,
            percentile(&mut lat, plan.tail_q),
        );
        if let Some(r) = report {
            ratios.push(r.final_cost / r.initial_cost);
            gbs.push(r.migrations.iter().map(|m| m.bytes).sum::<f64>() / 1e9);
        }

        // Saturation: the sustained rate with a window of requests in
        // flight. Writes only: the rate is then not set by the size of
        // the reports the tenant happens to have grown by then.
        let secs = plan.saturation_s * scale / plan.segments as f64;
        let top = plan.ladder.last().copied().unwrap_or(1e3);
        let n = ((top * 4.0 * secs) as usize).max(100);
        let writes = requests(100 + seg as u64, n)
            .into_iter()
            .filter(|p| !matches!(p.verb, Verb::Report | Verb::Stats))
            .collect();
        let window = Duration::from_secs_f64(secs);
        let (saturation, _) = measure(Load::Window(window), writes, &mut layers);
        saturated_n += saturation.replies.len();
        saturated_s += saturation.elapsed_s;
        println!(
            "# saturation repeat {seg}: {:.0} req/s",
            saturation.replies.len() as f64 / saturation.elapsed_s
        );

        // The ladder: a rung counts toward `max_rps` when its tail meets
        // the limit, its backlog does not grow, and the generator kept
        // up; the first rung that fails ends the count (later rungs still
        // run, so every run does the same work).
        for (i, &rate) in plan
            .ladder
            .iter()
            .enumerate()
            .skip(seg * per_gap)
            .take(per_gap)
        {
            let n = ((plan.rung_n as f64 * scale) as usize).max(20);
            let (rung, _) = measure(Load::Open(rate), requests(10 + i as u64, n), &mut layers);
            let ordered = rung.latencies();
            let mut sorted = ordered.clone();
            let tail = percentile(&mut sorted, plan.tail_q);
            // The backlog grows when the last fifth of the rung waits
            // markedly longer than the first fifth.
            let fifth = (ordered.len() / 5).max(1);
            let first = median(&ordered[..fifth]);
            let last = median(&ordered[ordered.len() - fifth..]);
            let growing = last > 2.0 * first + 1_000.0;
            let lag = rung.lag_p99_us();
            let behind = lag > plan.limit_us / 4.0;
            let passes = tail <= plan.limit_us && !growing && !behind;
            println!(
                "# rung {rate} req/s: n={} p{:.0}={tail:.0}us lag_p99={lag:.0}us{}{}{}",
                ordered.len(),
                plan.tail_q * 100.0,
                if growing { " BACKLOG-GROWS" } else { "" },
                if behind { " GENERATOR-BEHIND" } else { "" },
                if passes { "" } else { " FAILS" },
            );
            counting &= passes;
            if counting {
                max_rps = rate;
            }
        }
    }

    let tail_name = if plan.tail_q >= 0.99 {
        "req_p99_us"
    } else {
        "req_p90_us"
    };
    let summary = Summary {
        setup_s: median(&setups),
        op_p50_us: percentile(&mut pooled, 0.50),
        op_tail_us: percentile(&mut pooled, plan.tail_q),
        ops_per_s: saturated_n as f64 / saturated_s,
        cost_ratio: median(&ratios),
        migrated_gb: median(&gbs),
        peak_rss_mb: peak_rss_mib(),
        extra: vec![
            ("reference_rps", plan.reference_rps, "req/s"),
            ("req_p50_us", percentile(&mut pooled, 0.50), "us"),
            (tail_name, percentile(&mut pooled, plan.tail_q), "us"),
            ("req_samples", samples as f64, "count"),
            ("max_rps", max_rps, "req/s"),
            ("sustained_rps", saturated_n as f64 / saturated_s, "req/s"),
            ("loadgen.lag_p99_us", median(&ref_lag), "us"),
        ],
    };
    Run {
        checks,
        attempted,
        failed,
        summary,
        layers,
    }
}

pub fn serve_mixed(seed: u64, seconds: f64, traced: bool) -> Run {
    let plan = Plan {
        pace: 10.0,
        t_end_s: 1e7,
        warm_up_s: 0.0,
        observed: false,
        mix: Mix {
            traffic: 0.89,
            place: 0.945,
            remove: 0.998,
            report_slot: Some(0),
            stats_slot: Some(25),
        },
        reference_rps: 400.0,
        reference_s: 12.5,
        ladder: vec![1_000.0, 1_400.0, 2_000.0, 2_800.0],
        rung_n: 1_500,
        saturation_s: 4.5,
        segments: 5,
        limit_us: 50_000.0,
        tail_q: 0.99,
    };
    serve(seed, seconds, traced, plan)
}

pub fn serve_observed(seed: u64, seconds: f64, traced: bool) -> Run {
    let plan = Plan {
        pace: 1_000.0,
        t_end_s: 100.0,
        warm_up_s: 100.0,
        observed: true,
        // Every write broadcasts a full report, so no `Report` reads.
        mix: Mix {
            traffic: 0.989,
            place: 0.994,
            remove: 0.999,
            report_slot: None,
            stats_slot: Some(25),
        },
        reference_rps: 20.0,
        reference_s: 15.0,
        ladder: vec![60.0, 80.0, 100.0],
        rung_n: 100,
        saturation_s: 3.0,
        segments: 3,
        limit_us: 50_000.0,
        tail_q: 0.90,
    };
    serve(seed, seconds, traced, plan)
}
