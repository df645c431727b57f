//! The serving benchmark.
//!
//! ```text
//! cargo run --release --manifest-path serving_bench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (`METRICS.md` beside this package says why each exists and
//! which metric each layer figure should move):
//!
//! * `inmem_ring_burst` — ring/4 skeleton sessions submitted in memory as
//!   fast as `submit` returns, then drained, in bursts;
//! * `tcp_open_loop` — ring/4 `Open`s over one loopback connection: rounds
//!   of an open loop at 20k/s from a writer thread, read by a reader
//!   thread that hands out each frame at once, each followed by a closed
//!   loop on the same connection (the traced run adds 2k/s and the ladder);
//! * `catalog_mixed` — a certification-heavy catalog serving, in memory, a
//!   mix of long `pipeline` sessions, batch-eligible case studies and
//!   byzantine casts;
//! * `netclient_window` — two threads, each a `NetClient` with 256 sessions
//!   in flight.
//!
//! With `--trace 0` the last line of standard output is the result with
//! the end-to-end metrics (`setup_s`, `sessions_per_s`, `actions_per_s`,
//! `lat_p50_ms`). With `--trace 1`, spans are recorded around the
//! benchmark's calls into each layer, layer probes run on the workload's
//! inputs, side probes on ring/4 cover the layers the workload does not
//! reach (named in the record's `off_workload`), and the result carries the
//! per-layer metrics. Every session's outcome is checked; any breach makes
//! the run exit with code 1.
//! Each run also writes its full record (seed, work counters, phases,
//! drift reference) to `out/`.

mod drive;
mod inputs;
mod probes;
mod trace;
mod util;

use std::net::SocketAddr;
use std::time::{Duration, Instant};

use zooid_server::{
    NetClient, NetServer, NetServerConfig, NetServerReport, ServerConfig, ServerReport,
    SessionServer,
};

use drive::{Driver, InMem, Learned, Mix, Phase, Stop, Wire, GENERATOR_BOUND_MS, WINDOW};
use inputs::{Catalog, Kind};
use util::{calibration_s, median, middle_mean, Json};

/// Worker shards of every server.
const SHARDS: usize = 2;
/// Client connections of `netclient_window`.
const CONNS: usize = 2;
/// Sessions per burst of `inmem_ring_burst`.
const BURST: usize = 10_000;
/// Window of the in-memory closed loop of `catalog_mixed`.
const MIXED_WINDOW: usize = 64;
/// Sessions of the counted block of `catalog_mixed` (submitted at once)
/// and of the networked workloads (through their window).
const COUNTED_MIXED: usize = 2048;
const COUNTED_NET: usize = 4000;
/// Length of each side probe's closed loop in the traced run.
const PROBE_SECS: Duration = Duration::from_millis(500);
/// `tcp_open_loop`'s untraced run alternates, round after round for the
/// whole run, an open loop at 20k/s and a closed loop, so that each of its
/// figures samples the machine over the whole run and not over one stretch
/// of it. Length of a round, and the share of it spent at 20k/s.
const TCP_ROUND_S: f64 = 1.0;
const TCP_R20K_SHARE: f64 = 0.5;
/// Shares of `--seconds` the traced run spends at 2k/s, at 20k/s (then
/// the ladder runs) and in the main loop.
const R2K_SHARE: f64 = 0.3;
const R20K_SHARE: f64 = 0.2;
const MAIN_SHARE: f64 = 0.5;
/// Latency limit of the rate ladder, ms at p99.
const LADDER_P99_MS: f64 = 5.0;
/// Length of one ladder step.
const LADDER_SECS: f64 = 0.4;
/// `setup_s` is the median of the set-ups made in this much time, and of
/// at least `MIN_SETUPS`. A ring/4 set-up takes well under a millisecond
/// and its time moves with thread start-up and with the machine's load from
/// moment to moment, so its median is taken over a thousand or more spread
/// over the budget; the catalog of `catalog_mixed` takes seconds and is
/// built three times.
const SETUP_BUDGET: Duration = Duration::from_secs(4);
const MIN_SETUPS: usize = 3;
/// Seed reserved for confirming claims; it is never used while tuning.
const HELD_OUT_SEED: u64 = 1_000_003;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    InmemRingBurst,
    TcpOpenLoop,
    CatalogMixed,
    NetclientWindow,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        Some(match s {
            "inmem_ring_burst" => Workload::InmemRingBurst,
            "tcp_open_loop" => Workload::TcpOpenLoop,
            "catalog_mixed" => Workload::CatalogMixed,
            "netclient_window" => Workload::NetclientWindow,
            _ => return None,
        })
    }

    fn name(self) -> &'static str {
        match self {
            Workload::InmemRingBurst => "inmem_ring_burst",
            Workload::TcpOpenLoop => "tcp_open_loop",
            Workload::CatalogMixed => "catalog_mixed",
            Workload::NetclientWindow => "netclient_window",
        }
    }

    fn catalog(self, seed: u64) -> Catalog {
        match self {
            Workload::CatalogMixed => inputs::mixed(seed),
            _ => inputs::ring4(),
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A started server and the client side the workload drives it through.
enum Door<'k> {
    InMem(Driver<'k, InMem>),
    Wire(NetServer, Driver<'k, Wire>),
    Clients(NetServer, Vec<NetClient>, Learned, &'k [Kind]),
}

/// What set-up hands over: the catalog (its registry now owned by the
/// server) and the started server with its clients.
struct Started {
    catalog: Catalog,
    server: Server,
}

enum Server {
    InMem(SessionServer),
    Wire(NetServer, Wire),
    Clients(NetServer, Vec<NetClient>),
}

fn start_net(catalog: &mut Catalog) -> NetServer {
    let services = catalog.services();
    let registry = std::mem::take(&mut catalog.registry);
    let config = NetServerConfig {
        server: ServerConfig::with_shards(SHARDS),
        ..NetServerConfig::default()
    };
    NetServer::start(registry, services, config).expect("loopback listener binds")
}

/// Builds the workload's inputs and starts its server and clients: what
/// `setup_s` times.
fn setup(w: Workload, seed: u64) -> Started {
    let span = trace::start("bench.setup", 0);
    let mut catalog = w.catalog(seed);
    let server = match w {
        Workload::InmemRingBurst | Workload::CatalogMixed => {
            let registry = std::mem::take(&mut catalog.registry);
            Server::InMem(SessionServer::start(
                registry,
                ServerConfig::with_shards(SHARDS),
            ))
        }
        Workload::TcpOpenLoop => {
            let net = start_net(&mut catalog);
            let wire = Wire::connect(net.local_addr()).expect("loopback connect");
            Server::Wire(net, wire)
        }
        Workload::NetclientWindow => {
            let net = start_net(&mut catalog);
            let clients = (0..CONNS)
                .map(|_| NetClient::connect(net.local_addr()).expect("loopback connect"))
                .collect();
            Server::Clients(net, clients)
        }
    };
    drop(span);
    Started { catalog, server }
}

/// A ring/4 server of its own with tracing off during its set-up: the
/// side probes of the traced run use it for the layers their workload does
/// not reach.
fn side_ring4(w: Workload) -> Started {
    let was = trace::enabled();
    trace::set_enabled(false);
    let started = setup(w, 0);
    trace::set_enabled(was);
    started
}

impl Server {
    fn door(self, kinds: &[Kind]) -> Door<'_> {
        match self {
            Server::InMem(s) => Door::InMem(Driver::new(InMem(s), kinds)),
            Server::Wire(net, wire) => Door::Wire(net, Driver::new(wire, kinds)),
            Server::Clients(net, clients) => {
                Door::Clients(net, clients, Learned::new(kinds.len()), kinds)
            }
        }
    }
}

/// Final reports of a front door.
struct Closed {
    shards: ServerReport,
    net: Option<zooid_server::NetReport>,
}

/// The shard report of a networked server so far, fetched over the wire.
fn fetch_shards(addr: SocketAddr) -> ServerReport {
    let mut client = NetClient::connect(addr).expect("stats connection");
    client
        .fetch_stats(Duration::from_secs(10))
        .expect("stats reply")
        .expect("the server answers a stats request")
        .shards
}

impl Door<'_> {
    /// Keeps `window` sessions in flight until `stop`, then drains.
    fn closed(&mut self, name: &str, mix: &mut Mix, window: usize, stop: Stop) -> Phase {
        match self {
            Door::InMem(d) => d.closed(name, mix, window, stop),
            Door::Wire(_, d) => d.closed(name, mix, window, stop),
            Door::Clients(_, clients, learned, kinds) => {
                drive::netclients(clients, kinds, learned, mix, name, window, stop)
            }
        }
    }

    /// The workload's own loop: bursts, or a closed loop at its window.
    fn main(&mut self, w: Workload, mix: &mut Mix, secs: f64) -> Vec<Phase> {
        let stop = Stop::After(Duration::from_secs_f64(secs));
        match w {
            Workload::InmemRingBurst => {
                let end = Instant::now() + Duration::from_secs_f64(secs);
                let mut bursts = Vec::new();
                while bursts.is_empty() || Instant::now() < end {
                    bursts.push(self.closed("burst", mix, BURST, Stop::Sessions(BURST)));
                }
                bursts
            }
            Workload::CatalogMixed => vec![self.closed("window", mix, MIXED_WINDOW, stop)],
            Workload::TcpOpenLoop | Workload::NetclientWindow => {
                vec![self.closed("window", mix, WINDOW, stop)]
            }
        }
    }

    /// The fixed block of sessions whose work is counted.
    fn counted(&mut self, w: Workload, mix: &mut Mix) -> Phase {
        let (window, n) = match w {
            Workload::InmemRingBurst => (BURST, BURST),
            Workload::CatalogMixed => (COUNTED_MIXED, COUNTED_MIXED),
            Workload::TcpOpenLoop | Workload::NetclientWindow => (WINDOW, COUNTED_NET),
        };
        self.closed("counted", mix, window, Stop::Sessions(n))
    }

    /// The shard report so far.
    fn shard_report(&self) -> ServerReport {
        match self {
            Door::InMem(d) => d.client.0.report(),
            Door::Wire(net, _) | Door::Clients(net, ..) => fetch_shards(net.local_addr()),
        }
    }

    fn close(self) -> Closed {
        match self {
            Door::InMem(d) => Closed {
                shards: d.client.0.shutdown(),
                net: None,
            },
            Door::Wire(net, _) | Door::Clients(net, ..) => {
                let NetServerReport { net, shards } = net.shutdown();
                Closed {
                    shards,
                    net: Some(net),
                }
            }
        }
    }
}

/// Run-wide correctness bookkeeping.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    breaches: Vec<String>,
}

impl Checks {
    fn phase(&mut self, p: &Phase) {
        self.attempted += p.attempted;
        self.failed += p.failed;
        let ok = p.lat_ns.len() as u64;
        if ok + p.failed != p.attempted {
            self.breach(format!(
                "{}: {} attempted but {} ended as expected and {} failed",
                p.name, p.attempted, ok, p.failed
            ));
        }
        for f in &p.failures {
            self.breach(format!("{}: {f}", p.name));
        }
    }

    /// The phase behind the gated latency must have had its generator on
    /// time; otherwise its latency would describe the generator.
    fn on_time(&mut self, p: &Phase, q: f64) {
        if !p.generator_valid(q) {
            let (_, (kept, n)) = p.slices(q);
            self.breach(format!(
                "{}: the generator ran late (over {GENERATOR_BOUND_MS} ms at quantile {q}) in {} \
                 of {n} slices, so the phase is invalid and its latency is not reported",
                p.name,
                n - kept
            ));
        }
    }

    fn breach(&mut self, what: String) {
        if self.breaches.len() < 20 {
            self.breaches.push(what);
        }
    }

    /// Conservation on the server side: every admitted session ended once.
    fn closed(&mut self, what: &str, c: &Closed) {
        let started = c.shards.sessions_started();
        let completed = c.shards.sessions_completed() + c.shards.sessions_stalled();
        if started != completed {
            self.breach(format!(
                "{what}: {started} sessions started, {completed} ended"
            ));
        }
        if let Some(net) = &c.net {
            if net.sessions_opened != net.sessions_done {
                self.breach(format!(
                    "{what}: {} sessions opened, {} Done frames",
                    net.sessions_opened, net.sessions_done
                ));
            }
            if net.bad_frames != 0 {
                self.breach(format!("{what}: {} bad frames", net.bad_frames));
            }
        }
    }
}

/// Deterministic work counters of one fixed block of sessions.
type Counters = Vec<(&'static str, u64)>;

/// Serves the first sessions of the seeded sequence on a freshly set-up
/// server and counts the work done. Two set-ups per run serve one block
/// each; the two counts must be identical.
fn counted_block(w: Workload, started: Started, checks: &mut Checks) -> Counters {
    let was = trace::enabled();
    trace::set_enabled(false);
    let Started { catalog, server } = started;
    let mut mix = Mix {
        mix: &catalog.mix,
        pos: 0,
    };
    let mut door = server.door(&catalog.kinds);
    let phase = door.counted(w, &mut mix);
    checks.phase(&phase);
    let closed = door.close();
    checks.closed("counted block", &closed);
    trace::set_enabled(was);
    let r = &closed.shards;
    let net = closed.net.unwrap_or_default();
    vec![
        ("protocols_registered", catalog.protocols),
        ("endpoints_certified", catalog.certified),
        ("sessions", phase.attempted),
        ("sessions_ok", phase.lat_ns.len() as u64),
        ("visible_actions", phase.actions),
        ("server_actions", r.actions_executed()),
        ("messages_routed", r.messages_routed()),
        ("sessions_batched", r.sessions_batched()),
        ("sessions_slab", r.sessions_slab()),
        ("sessions_demoted", r.sessions_demoted()),
        ("sessions_quarantined", r.sessions_quarantined()),
        ("net_frames_read", net.frames_read),
        ("net_frames_written", net.frames_written),
        ("client_frames_sent", phase.frames_sent),
        ("client_frames_received", phase.frames_recv),
        ("client_bytes_sent", phase.bytes_sent),
        ("client_bytes_received", phase.bytes_recv),
    ]
}

struct Metric {
    name: String,
    value: f64,
    unit: &'static str,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.to_owned(),
        value,
        unit,
    }
}

fn phase_json(p: &Phase) -> Json {
    let on_time = |q: f64| {
        let (_, (kept, n)) = p.slices(q);
        Json::Str(format!("{kept}/{n}"))
    };
    Json::obj(vec![
        ("name", Json::str(&p.name)),
        ("rate", Json::Num(p.rate)),
        ("attempted", Json::Int(p.attempted)),
        ("failed", Json::Int(p.failed)),
        ("completed", Json::Int(p.lat_ns.len() as u64)),
        ("elapsed_s", Json::Num(p.elapsed_s)),
        ("lat_p50_ms", Json::Num(p.lat_ms(0.5))),
        ("lat_p99_ms", Json::Num(p.lat_ms(0.99))),
        ("generator_late_p50_ms", Json::Num(p.late_ms(0.5))),
        ("generator_late_p99_ms", Json::Num(p.late_ms(0.99))),
        ("generator_valid_p50", Json::Bool(p.generator_valid(0.5))),
        ("generator_valid_p99", Json::Bool(p.generator_valid(0.99))),
        ("slices_on_time_p50", on_time(0.5)),
        ("slices_on_time_p99", on_time(0.99)),
        ("inflight_at_schedule_end", Json::Int(p.inflight_end)),
    ])
}

/// sessions/s and actions/s of the main loop: the mean of the middle half
/// of its bursts, or of the time bins of one closed-loop phase.
fn main_throughput(main: &[Phase]) -> (f64, f64) {
    if main.len() == 1 {
        return main[0].throughput();
    }
    let per = |f: fn(&Phase) -> f64| {
        middle_mean(
            &main
                .iter()
                .map(|p| f(p) / p.elapsed_s.max(1e-9))
                .collect::<Vec<_>>(),
        )
    };
    (per(|p| p.lat_ns.len() as f64), per(|p| p.actions as f64))
}

struct Report {
    metrics: Vec<Metric>,
    extra: Vec<(&'static str, Json)>,
    checks: Checks,
}

fn run(args: &Args) -> Report {
    let w = args.workload;
    let secs = args.seconds;
    let mut checks = Checks::default();
    let mut extra: Vec<(&'static str, Json)> = Vec::new();
    trace::set_enabled(args.trace);

    // Set-up, again and again for SETUP_BUDGET: the first two serve the
    // counted blocks, the last one serves the workload.
    let mut times = Vec::new();
    let mut counters = Vec::new();
    let budget = Instant::now();
    let Started { catalog, server } = loop {
        let t0 = Instant::now();
        let started = setup(w, args.seed);
        times.push(t0.elapsed().as_secs_f64());
        if times.len() >= MIN_SETUPS && budget.elapsed() >= SETUP_BUDGET {
            break started;
        }
        if times.len() <= 2 {
            counters.push(counted_block(w, started, &mut checks));
        } else {
            let Started { catalog, server } = started;
            server.door(&catalog.kinds).close();
        }
    };
    trace::flush_thread();
    let setup_s = median(&times);
    extra.push(("setup_reps", Json::Int(times.len() as u64)));
    if counters[0] != counters[1] {
        checks.breach(format!(
            "work counters differ between two runs of the same block: {:?} vs {:?}",
            counters[0], counters[1]
        ));
    }

    let door = server.door(&catalog.kinds);
    let mut mix = Mix {
        mix: &catalog.mix,
        pos: 0,
    };
    let mut phases_json = Vec::new();

    let metrics = if args.trace {
        let (metrics, off, late) = traced(
            w,
            secs,
            &catalog,
            door,
            &mut mix,
            &mut phases_json,
            &mut checks,
        );
        let names = |v: Vec<&str>| Json::Arr(v.into_iter().map(Json::str).collect());
        extra.push(("off_workload", names(off)));
        extra.push(("generator_late", names(late)));
        metrics
    } else {
        untraced(
            w,
            secs,
            setup_s,
            door,
            &mut mix,
            &mut phases_json,
            &mut checks,
        )
    };

    extra.push((
        "counters",
        Json::Obj(
            counters[0]
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Json::Int(*v)))
                .collect(),
        ),
    ));
    extra.push(("phases", Json::Arr(phases_json)));
    Report {
        metrics,
        extra,
        checks,
    }
}

/// The untraced run: the workload's own loop; its result is the
/// end-to-end metrics.
fn untraced(
    w: Workload,
    secs: f64,
    setup_s: f64,
    mut door: Door,
    mix: &mut Mix,
    phases_json: &mut Vec<Json>,
    checks: &mut Checks,
) -> Vec<Metric> {
    // tcp_open_loop's latency is its open loop at 20k/s and its throughput
    // the closed loop, in alternating rounds; every other workload's
    // figures are its main loop.
    let (paced, main, (sps, aps)) = match &mut door {
        Door::Wire(_, d) => {
            // The first round warms the connection and the shards up; it
            // is checked but not measured.
            let rounds = (secs / TCP_ROUND_S).round().max(2.0) as usize;
            let (mut paced, mut main) = (Vec::new(), Vec::new());
            for _ in 0..rounds {
                paced.push(d.paced("r20k", mix, 20_000.0, TCP_R20K_SHARE * TCP_ROUND_S));
                let closed = Stop::After(Duration::from_secs_f64(
                    (1.0 - TCP_R20K_SHARE) * TCP_ROUND_S,
                ));
                main.push(d.closed("window", mix, WINDOW, closed));
            }
            let warm_up = Phase::concat("warm-up", vec![paced.remove(0), main.remove(0)]);
            checks.phase(&warm_up);
            let mut paced = Phase::concat("r20k", paced);
            paced.rate = 20_000.0;
            checks.on_time(&paced, 0.5);
            let throughput = drive::binned_throughput(&main);
            (Some(paced), main, throughput)
        }
        _ => {
            let main = door.main(w, mix, secs);
            let throughput = main_throughput(&main);
            (None, main, throughput)
        }
    };
    let main = Phase::concat("main", main);
    let headline = paced.as_ref().unwrap_or(&main);
    let metrics = vec![
        metric("setup_s", setup_s, "s"),
        metric("sessions_per_s", sps, "1/s"),
        metric("actions_per_s", aps, "1/s"),
        metric("lat_p50_ms", headline.lat_ms(0.5), "ms"),
    ];
    for p in paced.iter().chain([&main]) {
        checks.phase(p);
        phases_json.push(phase_json(p));
    }
    let closed = door.close();
    checks.closed("run", &closed);
    metrics
}

/// `tcp_open_loop`'s open loops on one raw-wire connection.
struct OpenLoops {
    r20k: Phase,
    r2k: Phase,
    ladder: Vec<Phase>,
    /// The highest ladder rate that met its conditions; 0 if 20k/s missed.
    max_rate: f64,
    /// The shard report read right after the 20k/s phase.
    snap: ServerReport,
}

/// 20k/s (the shard histograms are read right after it), 2k/s, then the
/// ×1.25 rate ladder from 20k/s, which stops at the first miss.
fn open_loops(net: &NetServer, d: &mut Driver<Wire>, mix: &mut Mix, secs: f64) -> OpenLoops {
    let r20k = d.paced("r20k", mix, 20_000.0, R20K_SHARE * secs);
    let snap = fetch_shards(net.local_addr());
    let r2k = d.paced("r2k", mix, 2_000.0, R2K_SHARE * secs);
    let mut max_rate = 0.0;
    let mut ladder = Vec::new();
    let mut rate = 20_000.0;
    for _ in 0..12 {
        let p = d.paced(&format!("ladder.{}", rate as u64), mix, rate, LADDER_SECS);
        let met = p.failed == 0
            && p.generator_valid(0.99)
            && p.lat_ms(0.99) <= LADDER_P99_MS
            && (p.inflight_end as f64) <= rate * LADDER_P99_MS / 1e3 + 8.0;
        ladder.push(p);
        if !met {
            break;
        }
        max_rate = rate;
        rate *= 1.25;
    }
    OpenLoops {
        r20k,
        r2k,
        ladder,
        max_rate,
        snap,
    }
}

/// Metrics of the open loops, measured on a side ring/4 server unless the
/// workload is `tcp_open_loop`.
const OPEN_LOOP_METRICS: &[&str] = &[
    "lat_p50_ms.r2k",
    "lat_p99_ms.r2k",
    "lat_p50_ms.r20k",
    "lat_p99_ms.r20k",
    "max_rate_sps",
    "gen.late_p50_ms.r2k",
    "gen.late_p99_ms.r2k",
    "gen.late_p50_ms.r20k",
    "gen.late_p99_ms.r20k",
    "gen.inflight_end.r2k",
    "gen.inflight_end.r20k",
    "server.net.server_share",
    "runtime.wire_encode_ns",
    "runtime.wire_decode_ns",
];

/// The traced run: the workload's main loop with spans on and off in turn,
/// the layer probes on its inputs, and side probes on ring/4 for the layers
/// the workload does not reach. Returns the per-layer metrics, the names
/// of those measured off the workload, and the names of the rate-phase
/// latencies whose generator ran late.
fn traced(
    w: Workload,
    secs: f64,
    catalog: &Catalog,
    mut door: Door,
    mix: &mut Mix,
    phases_json: &mut Vec<Json>,
    checks: &mut Checks,
) -> (Vec<Metric>, Vec<&'static str>, Vec<&'static str>) {
    let own_loops = match &mut door {
        Door::Wire(net, d) => Some(open_loops(net, d, mix, secs)),
        _ => None,
    };

    // The main loop in four slices, tracing off and on in turn: the
    // difference is the tracing overhead, measured in the same run.
    let mut off_slices = Vec::new();
    let mut on_slices = Vec::new();
    for slice in 0..4 {
        let traced = slice % 2 == 1;
        trace::set_enabled(traced);
        let phases = door.main(w, mix, MAIN_SHARE * secs / 4.0);
        let (sps, _) = main_throughput(&phases);
        let name = if traced {
            "main.traced"
        } else {
            "main.untraced"
        };
        let into = if traced {
            &mut on_slices
        } else {
            &mut off_slices
        };
        into.push((sps, Phase::concat(name, phases)));
    }
    trace::set_enabled(true);
    let split = |slices: Vec<(f64, Phase)>, name: &str| {
        let sps = median(&slices.iter().map(|s| s.0).collect::<Vec<_>>());
        (
            sps,
            Phase::concat(name, slices.into_iter().map(|s| s.1).collect()),
        )
    };
    let (sps_on, main_on) = split(on_slices, "main.traced");
    let (sps_off, main_off) = split(off_slices, "main.untraced");

    // Layer probes on the workload's own inputs. An in-memory server lends
    // its registry; a networked one keeps it, so ring/4 is rebuilt.
    let configs = probes::cfsm(&catalog.globals);
    let width = door.shard_report().mean_cohort_width().round().max(1.0) as usize;
    let rebuilt;
    let (registry, kinds, mix_slots) = match &door {
        Door::InMem(d) => (d.client.0.registry(), &catalog.kinds[..], &catalog.mix[..]),
        _ => {
            trace::set_enabled(false);
            rebuilt = inputs::ring4();
            trace::set_enabled(true);
            (&rebuilt.registry, &rebuilt.kinds[..], &rebuilt.mix[..])
        }
    };
    probes::endpoint_program(registry, kinds, mix_slots);
    probes::batch_step(registry, kinds, mix_slots, width);
    probes::slab_and_monitor(registry, kinds, mix_slots);
    let wire_bytes = probes::wire_bytes(kinds, mix_slots);
    trace::flush_thread();

    let main_server = door.close();
    checks.closed("run", &main_server);
    let mut phases = vec![main_off, main_on];

    // Side probes on ring/4 for what the workload does not reach: the open
    // loops, the in-memory server, and NetClient.
    let mut off = Vec::new();
    let loops = match own_loops {
        Some(loops) => loops,
        None => {
            off.extend(OPEN_LOOP_METRICS);
            let Started {
                catalog: cat,
                server,
            } = side_ring4(Workload::TcpOpenLoop);
            let mut side = server.door(&cat.kinds);
            let Door::Wire(net, d) = &mut side else {
                unreachable!("tcp_open_loop's set-up is a raw-wire connection")
            };
            let mut m = Mix {
                mix: &cat.mix,
                pos: 0,
            };
            let loops = open_loops(net, d, &mut m, secs);
            checks.closed("open-loop probe", &side.close());
            loops
        }
    };
    let mut probe_net = None;
    if w == Workload::TcpOpenLoop || w == Workload::NetclientWindow {
        off.extend(["server.submit_ns", "server.outcome_wait_ns"]);
        phases.push(side_closed_loop(Workload::InmemRingBurst, checks).0);
    }
    if w != Workload::NetclientWindow {
        off.extend([
            "server.net.client_poll_wait_ns",
            "server.net.client_open_ns",
        ]);
        let (p, closed) = side_closed_loop(Workload::NetclientWindow, checks);
        phases.push(p);
        probe_net = closed.net;
    }
    trace::flush_thread();
    let net = match main_server.net.clone() {
        Some(net) => net,
        None => {
            off.extend(NET_SERVER_METRICS);
            probe_net.unwrap_or_default()
        }
    };

    for p in phases
        .iter()
        .chain([&loops.r20k, &loops.r2k])
        .chain(loops.ladder.iter())
    {
        checks.phase(p);
        phases_json.push(phase_json(p));
    }

    let st = trace::stats();
    let get = |name: &str| st.get(name).copied().unwrap_or_default();
    let r = &main_server.shards;
    // tcp_open_loop's shard histograms describe its 20k/s phase; every
    // other workload's describe its own main loop.
    let hist = if w == Workload::TcpOpenLoop {
        &loops.snap.obs
    } else {
        &r.obs
    };
    let batch_ns = get("runtime.batch_step").self_per_unit();
    let main_on = &phases[1];
    let actions_per_session = main_on.actions as f64 / main_on.lat_ns.len().max(1) as f64;
    let shard_ns_per_session = SHARDS as f64 * 1e9 / sps_on.max(1e-9);
    let (r2k, r20k) = (&loops.r2k, &loops.r20k);
    // A rate phase's latency comes from the slices whose generator ran on
    // time. Where fewer than half did, the figure (over every session) is
    // still printed, since every per-layer metric has a value, but it is
    // named in the record's `generator_late` list: it describes the
    // generator too.
    let mut late = Vec::new();
    let mut lat = |p: &Phase, q: f64, name: &'static str| {
        if !p.generator_valid(q) {
            late.push(name);
        }
        let v = p.lat_ms(q);
        let v = if v.is_nan() { p.lat_all_ms(q) } else { v };
        metric(name, v, "ms")
    };
    let lat_metrics = [
        lat(r2k, 0.5, "lat_p50_ms.r2k"),
        lat(r2k, 0.99, "lat_p99_ms.r2k"),
        lat(r20k, 0.5, "lat_p50_ms.r20k"),
        lat(r20k, 0.99, "lat_p99_ms.r20k"),
    ];
    let server_share =
        loops.snap.obs.session_wall_ns.p50() as f64 / (lat_metrics[2].value * 1e6).max(1.0);

    let m = metric;
    let mut metrics = vec![
        m("dsl.certify_ns", get("dsl.certify").self_per_call(), "ns"),
        m("mpst.project_ns", get("mpst.project").self_per_call(), "ns"),
        m("cfsm.compile_ns", get("cfsm.compile").self_per_call(), "ns"),
        m("cfsm.explore_ns", get("cfsm.explore").self_per_call(), "ns"),
        m("cfsm.configs_visited", configs as f64, "count"),
        m(
            "server.registry.register_ns",
            get("server.registry.register").self_per_call(),
            "ns",
        ),
        m(
            "server.registry.endpoint_program_ns",
            get("server.registry.endpoint_program").self_per_call(),
            "ns",
        ),
        m(
            "server.submit_ns",
            get("server.submit").self_per_call(),
            "ns",
        ),
        m(
            "server.outcome_wait_ns",
            get("server.outcome_wait").self_per_unit(),
            "ns",
        ),
        m(
            "server.session_wall_p50_ns",
            hist.session_wall_ns.p50() as f64,
            "ns",
        ),
        m(
            "server.session_wall_p99_ns",
            hist.session_wall_ns.p99() as f64,
            "ns",
        ),
        m(
            "server.action_cost_p50_ns",
            hist.action_cost_ns.p50() as f64,
            "ns",
        ),
        m(
            "server.batched_share",
            r.sessions_batched() as f64 / (r.sessions_batched() + r.sessions_slab()).max(1) as f64,
            "ratio",
        ),
        m("server.demoted", r.sessions_demoted() as f64, "count"),
        m(
            "server.mean_cohort_width",
            r.mean_cohort_width(),
            "sessions",
        ),
        m(
            "server.peak_queue_depth",
            r.shards
                .iter()
                .map(|s| s.peak_queue_depth)
                .max()
                .unwrap_or(0) as f64,
            "count",
        ),
        m(
            "server.quanta",
            r.shards.iter().map(|s| s.quanta).sum::<u64>() as f64,
            "count",
        ),
        m("runtime.batch_step_ns_per_action", batch_ns, "ns"),
        m(
            "runtime.slab_step_ns_per_action",
            get("runtime.slab_step").self_per_unit(),
            "ns",
        ),
        m(
            "runtime.monitor_ns_per_action",
            get("runtime.monitor").self_per_unit(),
            "ns",
        ),
        m(
            "runtime.wire_encode_ns",
            get("runtime.wire_encode").self_per_unit(),
            "ns",
        ),
        m(
            "runtime.wire_decode_ns",
            get("runtime.wire_decode").self_per_unit(),
            "ns",
        ),
        m("runtime.wire_bytes_per_session", wire_bytes, "bytes"),
        m(
            "server.net.io_pass_p50_ns",
            net.io_pass_ns.p50() as f64,
            "ns",
        ),
        m(
            "server.net.io_pass_p99_ns",
            net.io_pass_ns.p99() as f64,
            "ns",
        ),
        m("server.net.frames_read", net.frames_read as f64, "count"),
        m(
            "server.net.frames_written",
            net.frames_written as f64,
            "count",
        ),
        m(
            "server.net.sessions_shed",
            net.sessions_shed as f64,
            "count",
        ),
        m("server.net.server_share", server_share, "ratio"),
        m(
            "server.net.client_poll_wait_ns",
            {
                let s = get("server.net.client_poll_wait");
                s.total_ns as f64 / s.count.max(1) as f64
            },
            "ns",
        ),
        m(
            "server.net.client_open_ns",
            get("server.net.client_open").self_per_call(),
            "ns",
        ),
        m(
            "server.overhead_ns_per_session",
            shard_ns_per_session - actions_per_session * batch_ns,
            "ns",
        ),
        m("lat_p99_ms", phases[0].lat_ms(0.99), "ms"),
        m("max_rate_sps", loops.max_rate, "1/s"),
        m(
            "failed_frac",
            checks.failed as f64 / checks.attempted.max(1) as f64,
            "ratio",
        ),
        m(
            "trace.overhead_frac",
            1.0 - sps_on / sps_off.max(1e-9),
            "ratio",
        ),
        m("gen.late_p50_ms.r2k", r2k.late_ms(0.5), "ms"),
        m("gen.late_p99_ms.r2k", r2k.late_ms(0.99), "ms"),
        m("gen.late_p50_ms.r20k", r20k.late_ms(0.5), "ms"),
        m("gen.late_p99_ms.r20k", r20k.late_ms(0.99), "ms"),
        m("gen.inflight_end.r2k", r2k.inflight_end as f64, "count"),
        m("gen.inflight_end.r20k", r20k.inflight_end as f64, "count"),
    ];
    metrics.extend(lat_metrics);
    (metrics, off, late)
}

/// A closed loop through the front door of `side` on a ring/4 server of its
/// own, for [`PROBE_SECS`].
fn side_closed_loop(side: Workload, checks: &mut Checks) -> (Phase, Closed) {
    let Started { catalog, server } = side_ring4(side);
    let mut door = server.door(&catalog.kinds);
    let mut mix = Mix {
        mix: &catalog.mix,
        pos: 0,
    };
    let name = format!("probe.{}", side.name());
    let phase = door.closed(&name, &mut mix, WINDOW, Stop::After(PROBE_SECS));
    let closed = door.close();
    checks.closed(&name, &closed);
    (phase, closed)
}

/// Metrics of the `NetServer` report, read from the NetClient probe when
/// the workload is served in memory.
const NET_SERVER_METRICS: &[&str] = &[
    "server.net.io_pass_p50_ns",
    "server.net.io_pass_p99_ns",
    "server.net.frames_read",
    "server.net.frames_written",
    "server.net.sessions_shed",
];

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <inmem_ring_burst|tcp_open_loop|catalog_mixed|netclient_window> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    let calibration = calibration_s();
    let report = run(&args);
    let correct = report.checks.failed == 0 && report.checks.breaches.is_empty();

    println!(
        "workload {} seed {} seconds {} trace {} (held-out seed: {HELD_OUT_SEED})",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "drift reference: fixed CPU loop {calibration:.4} s (not used to normalise any metric)"
    );
    for m in &report.metrics {
        println!("  {:<40} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (k, v) in &report.extra {
        println!("  {k}: {}", v.render());
    }
    for b in &report.checks.breaches {
        println!("CHECK FAILED: {b}");
    }

    let metrics_json = Json::Obj(
        report
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::obj(vec![
                        ("value", Json::Num(m.value)),
                        ("unit", Json::str(m.unit)),
                    ]),
                )
            })
            .collect(),
    );
    let mut record = vec![
        ("workload", Json::str(args.workload.name())),
        ("seed", Json::Int(args.seed)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("calibration_s", Json::Num(calibration)),
        (
            "cpus",
            Json::Int(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("correct", Json::Bool(correct)),
        ("metrics", metrics_json.clone()),
        (
            "breaches",
            Json::Arr(report.checks.breaches.iter().map(Json::str).collect()),
        ),
    ];
    record.extend(report.extra);
    write_outputs(&args, &Json::obj(record));

    let result = Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Int(report.checks.attempted.max(1))),
        ("failed", Json::Int(report.checks.failed)),
        ("metrics", metrics_json),
    ]);
    println!("{}", result.render());
    std::process::exit(if correct { 0 } else { 1 });
}

/// Writes the run's full record (and, when traced, its spans) under the
/// package's `out/` directory.
fn write_outputs(args: &Args, record: &Json) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if std::fs::create_dir_all(&dir).is_err() {
        eprintln!("warning: cannot create {}", dir.display());
        return;
    }
    let w = args.workload.name();
    let t = u8::from(args.trace);
    let _ = std::fs::write(
        dir.join(format!("{w}-seed{}-trace{t}.json", args.seed)),
        record.render() + "\n",
    );
    if args.trace {
        let header = Json::obj(vec![
            ("workload", Json::str(w)),
            ("seed", Json::Int(args.seed)),
        ]);
        let _ = std::fs::write(
            dir.join(format!("spans-{w}.jsonl")),
            header.render() + "\n" + &trace::spans_jsonl(),
        );
    }
}
