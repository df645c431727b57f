//! The three front doors a client can use — in-memory `SessionServer`
//! submission, the raw multiplexed wire, and the public `NetClient`.
//!
//! Every door is driven as a closed loop with a window of sessions in
//! flight ([`Driver::closed`], [`netclients`]); the raw wire is also driven
//! as an open loop on a fixed schedule ([`Driver::paced`]). One
//! [`Tracker`] per phase does the bookkeeping for every door: it registers
//! each opened session with the instant its latency is timed from, checks
//! each outcome against its kind's expectation as it ends, and writes off
//! every session that never got one as failed.

use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use bytes::BytesMut;
use zooid_runtime::wire::{decode_mux, encode_mux, put_frame, DEFAULT_MAX_FRAME_BYTES};
use zooid_runtime::{FrameReader, MuxFrame};
use zooid_server::{NetClient, SessionServer};

use crate::inputs::{check_done, check_outcome, Kind};
use crate::trace;
use crate::util::{middle_mean, ns, quantile, sliced_quantile};

/// Sessions a connection keeps in flight at most (the server's default
/// per-connection cap): a generator that reaches it waits, and runs late,
/// instead of being shed.
pub const WINDOW: usize = 256;
/// A time slice of a paced phase whose generator ran later than this at a
/// latency quantile measured the generator, not the server, at that
/// quantile: the slice is left out of it, and a phase with fewer on-time
/// slices than late ones is invalid for it.
pub const GENERATOR_BOUND_MS: f64 = 1.0;
/// How long a phase waits for its last outcomes before writing the rest off
/// as missing.
const DRAIN_LIMIT: Duration = Duration::from_secs(20);
/// How long one poll of a closed loop waits for an outcome.
const POLL: Duration = Duration::from_millis(50);
/// Latency quantiles are taken per slice of at least this many sessions
/// (so a p99 has ten samples beyond it) and reported as the slice median.
const MIN_SLICE: usize = 1000;
/// At most this many slices per phase.
const MAX_SLICES: usize = 15;

/// What one phase of a workload did.
#[derive(Debug, Default)]
pub struct Phase {
    pub name: String,
    /// Offered rate in sessions/s (0 for a closed loop).
    pub rate: f64,
    /// Sessions opened; each ends as expected or counts as failed.
    pub attempted: u64,
    pub failed: u64,
    /// Why sessions failed, and any other breach (a stray frame, a lost
    /// connection); the first few.
    pub failures: Vec<String>,
    /// (when the session was due or sent, since the phase started; its
    /// latency) for each completed session.
    pub lat_ns: Vec<(u64, u64)>,
    /// (when the session was due, since the phase started; how late the
    /// generator sent it) for each session of a paced phase.
    pub late_ns: Vec<(u64, u64)>,
    /// (completion time since the phase started, visible actions).
    pub done_at: Vec<(u64, u64)>,
    pub elapsed_s: f64,
    /// Sessions in flight when the schedule ended.
    pub inflight_end: u64,
    pub actions: u64,
    /// Wire traffic seen by the client.
    pub frames_sent: u64,
    pub frames_recv: u64,
    pub bytes_sent: u64,
    pub bytes_recv: u64,
}

impl Phase {
    pub fn new(name: &str, rate: f64) -> Self {
        Phase {
            name: name.to_owned(),
            rate,
            ..Phase::default()
        }
    }

    /// Records a breach that is not a failed session.
    fn error(&mut self, reason: String) {
        if self.failures.len() < 5 {
            self.failures.push(reason);
        }
    }

    fn fail(&mut self, reason: String) {
        self.failed += 1;
        self.error(reason);
    }

    /// Adds `other`, which started `offset_s` seconds after this phase (0
    /// for a phase that ran beside it), onto this phase's time axis.
    pub fn absorb(&mut self, other: Phase, offset_s: f64) {
        let offset = (offset_s * 1e9) as u64;
        let shift = |v: Vec<(u64, u64)>| v.into_iter().map(move |(at, x)| (at + offset, x));
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            self.error(f);
        }
        self.lat_ns.extend(shift(other.lat_ns));
        self.late_ns.extend(shift(other.late_ns));
        self.done_at.extend(shift(other.done_at));
        self.elapsed_s = self.elapsed_s.max(offset_s + other.elapsed_s);
        self.inflight_end += other.inflight_end;
        self.actions += other.actions;
        self.frames_sent += other.frames_sent;
        self.frames_recv += other.frames_recv;
        self.bytes_sent += other.bytes_sent;
        self.bytes_recv += other.bytes_recv;
    }

    /// Lays `phases` end to end as one phase named `name`.
    pub fn concat(name: &str, phases: Vec<Phase>) -> Phase {
        let mut all = Phase::new(name, 0.0);
        for p in phases {
            let offset = all.elapsed_s;
            all.absorb(p, offset);
        }
        all
    }

    /// The `q` latency quantile in ms, taken per time slice of the schedule
    /// and reported as the median over the slices in which the generator
    /// ran on time at that quantile. NaN when no slice did.
    pub fn lat_ms(&self, q: f64) -> f64 {
        let (slices, _) = self.slices(q);
        if slices.is_empty() {
            return f64::NAN;
        }
        sliced_quantile(&slices, q) / 1e6
    }

    /// The `q` latency quantile in ms over every completed session,
    /// whether its generator ran on time or not.
    pub fn lat_all_ms(&self, q: f64) -> f64 {
        let mut lat: Vec<u64> = self.lat_ns.iter().map(|l| l.1).collect();
        lat.sort_unstable();
        quantile(&lat, q) as f64 / 1e6
    }

    /// Latency samples of the slices in which the generator's lateness at
    /// quantile `q` stayed within [`GENERATOR_BOUND_MS`] (the sessions it
    /// sent late are the ones whose latency it inflated), and how many
    /// slices that is out of how many.
    pub fn slices(&self, q: f64) -> (Vec<Vec<u64>>, (usize, usize)) {
        let n = (self.lat_ns.len() / MIN_SLICE).clamp(1, MAX_SLICES);
        let span = self.lat_ns.iter().map(|s| s.0).max().unwrap_or(0) + 1;
        let slice_of = |key: u64| ((key as u128 * n as u128 / span as u128) as usize).min(n - 1);
        let mut lat = vec![Vec::new(); n];
        for &(key, l) in &self.lat_ns {
            lat[slice_of(key)].push(l);
        }
        let mut late = vec![Vec::new(); n];
        for &(key, l) in &self.late_ns {
            late[slice_of(key)].push(l);
        }
        let kept: Vec<Vec<u64>> = lat
            .into_iter()
            .zip(late)
            .filter_map(|(l, mut g)| {
                g.sort_unstable();
                (quantile(&g, q) as f64 / 1e6 <= GENERATOR_BOUND_MS).then_some(l)
            })
            .collect();
        let k = kept.len();
        (kept, (k, n))
    }

    pub fn late_ms(&self, q: f64) -> f64 {
        let mut late: Vec<u64> = self.late_ns.iter().map(|l| l.1).collect();
        late.sort_unstable();
        quantile(&late, q) as f64 / 1e6
    }

    /// Whether the generator ran on time at quantile `q` in at least half
    /// of the phase's slices (always, for a closed loop). The `q` latency
    /// of an invalid phase describes the generator, not the server.
    pub fn generator_valid(&self, q: f64) -> bool {
        let (_, (kept, n)) = self.slices(q);
        kept * 2 >= n
    }

    /// Completed sessions/s and actions/s in each of ten time bins, leaving
    /// out the first bin (ramp-up) and the last (drain).
    pub fn bin_rates(&self) -> Vec<(f64, f64)> {
        let bins = 10usize;
        let span = self.done_at.iter().map(|d| d.0).max().unwrap_or(0).max(1);
        let width = span as f64 / bins as f64;
        let mut rates = vec![(0.0, 0.0); bins];
        for &(at, a) in &self.done_at {
            let b = ((at as f64 / width) as usize).min(bins - 1);
            rates[b].0 += 1.0;
            rates[b].1 += a as f64;
        }
        let secs = width / 1e9;
        rates[1..bins - 1]
            .iter()
            .map(|&(s, a)| (s / secs, a / secs))
            .collect()
    }

    /// Completed sessions/s and actions/s: the mean of the middle half of
    /// the time bins.
    pub fn throughput(&self) -> (f64, f64) {
        binned_throughput(std::slice::from_ref(self))
    }
}

/// Completed sessions/s and actions/s over the time bins of every phase in
/// `phases`: the mean of the middle half of the bins.
pub fn binned_throughput(phases: &[Phase]) -> (f64, f64) {
    let rates: Vec<(f64, f64)> = phases.iter().flat_map(Phase::bin_rates).collect();
    let column = |f: fn(&(f64, f64)) -> f64| middle_mean(&rates.iter().map(f).collect::<Vec<_>>());
    (column(|r| r.0), column(|r| r.1))
}

/// Expected visible actions per kind, learned from the first completion
/// and checked on every later one (the sessions are deterministic).
#[derive(Debug, Clone)]
pub struct Learned(Vec<Option<u64>>);

impl Learned {
    pub fn new(kinds: usize) -> Self {
        Learned(vec![None; kinds])
    }

    fn check(&mut self, kind: usize, label: &str, actions: u64) -> Result<(), String> {
        match self.0[kind] {
            None => {
                self.0[kind] = Some(actions);
                Ok(())
            }
            Some(a) if a == actions => Ok(()),
            Some(a) => Err(format!("{label}: {actions} actions, expected {a}")),
        }
    }
}

/// A cursor over the seeded session sequence.
#[derive(Debug, Clone)]
pub struct Mix<'a> {
    pub mix: &'a [u32],
    pub pos: usize,
}

impl Mix<'_> {
    fn at(&self, i: usize) -> usize {
        self.mix[(self.pos + i) % self.mix.len()] as usize
    }

    fn advance(&mut self, n: usize) {
        self.pos = (self.pos + n) % self.mix.len();
    }
}

/// The sessions of one phase between their opening and their outcome.
pub struct Tracker<'a> {
    pub phase: Phase,
    kinds: &'a [Kind],
    learned: &'a mut Learned,
    start: Instant,
    /// session id -> (kind, the instant its latency is timed from)
    pending: HashMap<u64, (usize, Instant)>,
}

impl<'a> Tracker<'a> {
    pub fn new(name: &str, rate: f64, kinds: &'a [Kind], learned: &'a mut Learned) -> Self {
        Tracker {
            phase: Phase::new(name, rate),
            kinds,
            learned,
            start: Instant::now(),
            pending: HashMap::new(),
        }
    }

    /// Registers an opened session, timed from `t0`.
    fn open(&mut self, session: u64, kind: usize, t0: Instant) {
        self.phase.attempted += 1;
        self.pending.insert(session, (kind, t0));
    }

    /// Counts a session the door refused to open as failed.
    fn refused(&mut self, kind: usize, why: String) {
        self.phase.attempted += 1;
        let label = &self.kinds[kind].label;
        self.phase.fail(format!("{label}: {why}"));
    }

    fn inflight(&self) -> usize {
        self.pending.len()
    }

    /// Settles a session that ended at `t`: `check` says whether it ended
    /// as its kind expects and returns its visible actions.
    fn settle(
        &mut self,
        session: u64,
        t: Instant,
        check: impl FnOnce(&Kind) -> Result<u64, String>,
    ) {
        let Some((kind, t0)) = self.pending.remove(&session) else {
            self.phase
                .error(format!("stray outcome for session {session}"));
            return;
        };
        let k = &self.kinds[kind];
        let checked = check(k).and_then(|a| self.learned.check(kind, &k.label, a).map(|()| a));
        match checked {
            Ok(actions) => {
                let since = |i: Instant| ns(i.saturating_duration_since(self.start));
                self.phase
                    .lat_ns
                    .push((since(t0), ns(t.saturating_duration_since(t0))));
                self.phase.done_at.push((since(t), actions));
                self.phase.actions += actions;
            }
            Err(e) => self.phase.fail(e),
        }
    }

    /// Writes off every session still in flight as failed.
    fn finish(mut self) -> Phase {
        for (kind, _) in self.pending.into_values() {
            let label = &self.kinds[kind].label;
            self.phase.fail(format!("{label}: no outcome"));
        }
        self.phase.elapsed_s = self.start.elapsed().as_secs_f64();
        self.phase
    }
}

/// One client-side connection to a server, as a closed loop drives it.
pub trait Client {
    /// Opens the sessions of mix slots `from..from + n`, each timed from
    /// when it was opened. `Err` when the connection is lost.
    fn open(&mut self, t: &mut Tracker, mix: &Mix, from: usize, n: usize) -> Result<(), String>;
    /// Waits up to `timeout` for outcomes and settles them. `Err` when the
    /// connection is lost.
    fn poll(&mut self, t: &mut Tracker, timeout: Duration) -> Result<(), String>;
}

/// When a closed loop stops opening sessions.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    After(Duration),
    Sessions(usize),
}

/// Keeps up to `window` sessions in flight until `stop`, then drains.
fn run_closed(
    c: &mut impl Client,
    mut t: Tracker,
    mix: &mut Mix,
    window: usize,
    stop: Stop,
) -> Phase {
    let mut opened = 0usize;
    let mut drain_until = None;
    loop {
        let left = match stop {
            Stop::After(d) if t.start.elapsed() < d => usize::MAX,
            Stop::After(_) => 0,
            Stop::Sessions(n) => n - opened,
        };
        if left > 0 {
            let n = window.saturating_sub(t.inflight()).min(left);
            if n > 0 {
                if let Err(e) = c.open(&mut t, mix, opened, n) {
                    t.phase.error(e);
                    break;
                }
                opened += n;
            }
        } else {
            let until = *drain_until.get_or_insert_with(|| {
                t.phase.inflight_end = t.inflight() as u64;
                Instant::now() + DRAIN_LIMIT
            });
            if t.inflight() == 0 || Instant::now() > until {
                break;
            }
        }
        if let Err(e) = c.poll(&mut t, POLL) {
            t.phase.error(e);
            break;
        }
    }
    mix.advance(opened);
    t.finish()
}

/// A client of one kind with the expectations it has learned.
pub struct Driver<'k, C> {
    pub client: C,
    kinds: &'k [Kind],
    learned: Learned,
}

impl<'k, C: Client> Driver<'k, C> {
    pub fn new(client: C, kinds: &'k [Kind]) -> Self {
        Driver {
            client,
            kinds,
            learned: Learned::new(kinds.len()),
        }
    }

    /// Keeps `window` sessions in flight until `stop`, then drains.
    pub fn closed(&mut self, name: &str, mix: &mut Mix, window: usize, stop: Stop) -> Phase {
        let t = Tracker::new(name, 0.0, self.kinds, &mut self.learned);
        run_closed(&mut self.client, t, mix, window, stop)
    }
}

// ---------------------------------------------------------------------
// In memory
// ---------------------------------------------------------------------

/// A single client thread submitting to an in-memory `SessionServer`.
pub struct InMem(pub SessionServer);

impl Client for InMem {
    fn open(&mut self, t: &mut Tracker, mix: &Mix, from: usize, n: usize) -> Result<(), String> {
        for i in from..from + n {
            let kind = mix.at(i);
            let t0 = Instant::now();
            let span = trace::start("server.submit", 0);
            match self.0.submit(t.kinds[kind].spec.clone()) {
                Ok(id) => {
                    span.session(id.0);
                    drop(span);
                    t.open(id.0, kind, t0);
                }
                Err(e) => {
                    drop(span);
                    t.refused(kind, format!("submit refused: {e}"));
                }
            }
        }
        Ok(())
    }

    /// Waits for one outcome: a closed loop always has sessions in flight,
    /// so the span times blocking under load.
    fn poll(&mut self, t: &mut Tracker, timeout: Duration) -> Result<(), String> {
        let span = trace::start("server.outcome_wait", 0);
        let Some(outcome) = self.0.next_outcome(timeout) else {
            return Ok(());
        };
        span.session(outcome.id.0);
        span.count(1);
        drop(span);
        let actions = outcome.global_trace.len() as u64;
        t.settle(outcome.id.0, Instant::now(), |k| {
            check_outcome(k, &outcome).map(|()| actions)
        });
        Ok(())
    }
}

// ---------------------------------------------------------------------
// The raw wire
// ---------------------------------------------------------------------

/// One connection speaking the multiplexed wire protocol directly:
/// `encode_mux` + `put_frame` out, `FrameReader` + `decode_mux` in. Reads
/// return as soon as any bytes are readable and every complete frame is
/// handed out at once — never `FrameReader::fill`'s wait for 64 KiB or a
/// quiet line.
pub struct Wire {
    stream: TcpStream,
    reader: WireReader,
    next_session: u64,
}

struct WireReader {
    frames: FrameReader,
    buf: Vec<u8>,
}

impl WireReader {
    /// One read (returns on any readable bytes or the socket's timeout),
    /// then settles every complete frame. `Err` when the connection is lost.
    fn read(&mut self, stream: &mut TcpStream, t: &mut Tracker) -> Result<(), String> {
        let r = match stream.read(&mut self.buf) {
            Ok(0) => Err("server closed the connection".to_owned()),
            Ok(n) => {
                t.phase.bytes_recv += n as u64;
                self.frames.extend(&self.buf[..n]);
                Ok(())
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) =>
            {
                Ok(())
            }
            Err(e) => Err(format!("read failed: {e}")),
        };
        let now = Instant::now();
        while let Some(payload) = self.frames.next_frame().map_err(|e| e.to_string())? {
            t.phase.frames_recv += 1;
            let frame = {
                let span = trace::start("runtime.wire_decode", 0);
                let frame = decode_mux(&payload).map_err(|e| e.to_string())?;
                span.count(1);
                frame
            };
            match frame {
                MuxFrame::Done {
                    session,
                    compliant,
                    complete,
                    stalled,
                    violations,
                    actions,
                } => t.settle(session, now, |k| {
                    check_done(k, compliant, complete, stalled, violations).map(|()| actions)
                }),
                MuxFrame::Rejected {
                    session,
                    code,
                    reason,
                } => t.settle(session, now, |k| {
                    Err(format!("{}: rejected ({code}): {reason}", k.label))
                }),
                _ => {}
            }
        }
        r
    }
}

fn encode_open(out: &mut BytesMut, session: u64, kind: &Kind) {
    let span = trace::start("runtime.wire_encode", session);
    let payload = encode_mux(&MuxFrame::Open {
        session,
        protocol: kind.service.clone(),
    });
    put_frame(out, &payload, DEFAULT_MAX_FRAME_BYTES).expect("an Open frame fits the cap");
    span.count(1);
}

fn due(start: Instant, i: usize, rate: f64) -> Instant {
    start + Duration::from_secs_f64(i as f64 / rate)
}

impl Wire {
    /// Connects a client socket: no Nagle delay, and reads that give up
    /// after 50 ms of silence so a reader can check for its phase's end.
    pub fn connect(addr: std::net::SocketAddr) -> std::io::Result<Wire> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(POLL))?;
        Ok(Wire {
            stream,
            reader: WireReader {
                frames: FrameReader::new(DEFAULT_MAX_FRAME_BYTES),
                buf: vec![0u8; 64 * 1024],
            },
            next_session: 1,
        })
    }
}

impl Client for Wire {
    /// Encodes the `Open`s and sends them in one write.
    fn open(&mut self, t: &mut Tracker, mix: &Mix, from: usize, n: usize) -> Result<(), String> {
        let now = Instant::now();
        let mut out = BytesMut::new();
        for i in from..from + n {
            let kind = mix.at(i);
            encode_open(&mut out, self.next_session, &t.kinds[kind]);
            t.open(self.next_session, kind, now);
            self.next_session += 1;
        }
        t.phase.frames_sent += n as u64;
        t.phase.bytes_sent += out.len() as u64;
        self.stream
            .write_all(&out)
            .map_err(|e| format!("write failed: {e}"))
    }

    /// One read: the socket's read timeout ([`POLL`]) bounds the wait.
    fn poll(&mut self, t: &mut Tracker, _timeout: Duration) -> Result<(), String> {
        self.reader.read(&mut self.stream, t)
    }
}

impl Driver<'_, Wire> {
    /// Opens on a fixed schedule at `rate`/s for `secs` from a writer
    /// thread, while a reader thread settles the `Done`s; each session is
    /// timed from when it was due. The writer keeps at most [`WINDOW`]
    /// sessions in flight: when it reaches the window it waits, and runs
    /// late, and its lateness is recorded against the schedule.
    pub fn paced(&mut self, name: &str, mix: &mut Mix, rate: f64, secs: f64) -> Phase {
        let n = (rate * secs).round().max(1.0) as usize;
        let first = self.client.next_session;
        self.client.next_session += n as u64;
        let mut t = Tracker::new(name, rate, self.kinds, &mut self.learned);
        let start = Instant::now() + Duration::from_millis(1);
        // Every session of the schedule is registered up front, timed from
        // when it is due; one the writer never sent is written off.
        for i in 0..n {
            t.open(first + i as u64, mix.at(i), due(start, i, rate));
        }
        t.start = start;
        let resolved = AtomicU64::new(0);
        let writer_done = AtomicBool::new(false);
        let mut reader_stream = self
            .client
            .stream
            .try_clone()
            .expect("clone the client socket");
        let reader = &mut self.client.reader;
        let mut stream = &self.client.stream;
        let kinds = self.kinds;
        let mut writer = Phase::new(name, rate);

        let mut t = std::thread::scope(|scope| {
            let read = scope.spawn(|| {
                let mut limit = None;
                while t.inflight() > 0 {
                    if writer_done.load(Ordering::Acquire) {
                        let l = *limit.get_or_insert_with(|| Instant::now() + DRAIN_LIMIT);
                        if Instant::now() > l {
                            break;
                        }
                    }
                    let r = reader.read(&mut reader_stream, &mut t);
                    resolved.store((n - t.inflight()) as u64, Ordering::Release);
                    if let Err(e) = r {
                        t.phase.error(e);
                        break;
                    }
                }
                trace::flush_thread();
                t
            });

            let mut i = 0usize;
            while i < n {
                let now = Instant::now();
                let d = due(start, i, rate);
                if d > now {
                    std::thread::sleep(d - now);
                    continue;
                }
                let inflight = i as u64 - resolved.load(Ordering::Acquire);
                if inflight >= WINDOW as u64 {
                    std::thread::sleep(Duration::from_micros(50));
                    continue;
                }
                // Everything due now (within the window) leaves in one write.
                let mut out = BytesMut::new();
                let batch_start = i;
                while i < n
                    && due(start, i, rate) <= now
                    && inflight + ((i - batch_start) as u64) < WINDOW as u64
                {
                    let d = due(start, i, rate);
                    writer.late_ns.push((ns(d - start), ns(now - d)));
                    encode_open(&mut out, first + i as u64, &kinds[mix.at(i)]);
                    i += 1;
                }
                writer.frames_sent += (i - batch_start) as u64;
                writer.bytes_sent += out.len() as u64;
                if let Err(e) = stream.write_all(&out) {
                    writer.error(format!("write failed: {e}"));
                    break;
                }
            }
            writer.inflight_end = i as u64 - resolved.load(Ordering::Acquire);
            writer_done.store(true, Ordering::Release);
            read.join().expect("wire reader thread")
        });
        trace::flush_thread();
        t.phase.absorb(writer, 0.0);
        mix.advance(n);
        t.finish()
    }
}

// ---------------------------------------------------------------------
// The public NetClient
// ---------------------------------------------------------------------

impl Client for NetClient {
    fn open(&mut self, t: &mut Tracker, mix: &Mix, from: usize, n: usize) -> Result<(), String> {
        for i in from..from + n {
            let kind = mix.at(i);
            let t0 = Instant::now();
            let span = trace::start("server.net.client_open", 0);
            match NetClient::open(self, &t.kinds[kind].service) {
                Ok(id) => {
                    span.session(id);
                    span.count(1);
                    drop(span);
                    t.open(id, kind, t0);
                }
                Err(e) => {
                    drop(span);
                    t.refused(kind, format!("open failed: {e}"));
                }
            }
        }
        Ok(())
    }

    /// One `poll_event`, as a `NetClient` user waits for a reply: the span
    /// includes its wait for 64 KiB or a quiet line. A closed loop always
    /// has sessions in flight, so the wait is for the server's replies.
    fn poll(&mut self, t: &mut Tracker, timeout: Duration) -> Result<(), String> {
        let span = trace::start("server.net.client_poll_wait", 0);
        let event = self
            .poll_event(timeout)
            .map_err(|e| format!("connection lost: {e}"))?;
        let now = Instant::now();
        match event {
            Some(MuxFrame::Done {
                session,
                compliant,
                complete,
                stalled,
                violations,
                actions,
            }) => {
                span.session(session);
                span.count(1);
                drop(span);
                t.settle(session, now, |k| {
                    check_done(k, compliant, complete, stalled, violations).map(|()| actions)
                });
            }
            Some(MuxFrame::Rejected {
                session,
                code,
                reason,
            }) => {
                drop(span);
                t.settle(session, now, |k| {
                    Err(format!("{}: rejected ({code}): {reason}", k.label))
                });
            }
            _ => {}
        }
        Ok(())
    }
}

/// Runs one closed loop per `NetClient` connection, each on its own thread
/// with its own stretch of the seeded sequence and a window of `window`,
/// and merges their phases.
pub fn netclients(
    clients: &mut [NetClient],
    kinds: &[Kind],
    learned: &mut Learned,
    mix: &mut Mix,
    name: &str,
    window: usize,
    stop: Stop,
) -> Phase {
    let conns = clients.len();
    let stride = mix.mix.len() / conns;
    let results: Vec<(Phase, Learned)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let mut own = mix.clone();
                own.advance(c * stride);
                let mut learned = learned.clone();
                let stop = match stop {
                    Stop::Sessions(n) => Stop::Sessions(n / conns),
                    after => after,
                };
                scope.spawn(move || {
                    let t = Tracker::new(name, 0.0, kinds, &mut learned);
                    let phase = run_closed(client, t, &mut own, window, stop);
                    trace::flush_thread();
                    (phase, learned)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("NetClient thread"))
            .collect()
    });
    let mut merged = Phase::new(name, 0.0);
    for (phase, l) in results {
        merged.absorb(phase, 0.0);
        *learned = l;
    }
    mix.advance(1);
    merged
}
