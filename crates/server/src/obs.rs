//! The observability plane: latency histograms, a flight recorder, and
//! replayable incident records.
//!
//! The paper's runtime monitor turns protocol violations into a verdict
//! bit; this module turns the *serving stack around that monitor* into
//! something diagnosable. Three hermetic, allocation-light substrates:
//!
//! * [`Histogram`] — a fixed log2-bucket atomic histogram (no deps, no
//!   unsafe, no locks) with lossless [`HistogramSnapshot::merge`] and
//!   `p50/p90/p99/max` accessors. Shards record session wall-time,
//!   per-action step cost and batch cohort widths into it; the networked
//!   plane records IO-loop pass durations.
//! * [`FlightRecorder`] — a bounded ring of dense structured events
//!   ([`FlightEvent`], packed to one `u64` each, interned-id style), written
//!   lock-free by the owning worker and snapshottable at any time without
//!   stopping it.
//! * [`Incident`] — the structured record of one [`MonitorViolation`]: the
//!   protocol, session, offending role and action, the monitor cursor at
//!   violation time, and a bounded *replayable* prefix of the compliant
//!   trace. [`Incident::replays_violation`] re-certifies the violation
//!   against the [`CompiledSystem`] — detection produces an auditable
//!   counterexample, not just a boolean. A capped [`IncidentStore`] retains
//!   the most recent records per shard.
//!
//! [`StatsSnapshot`] bundles the aggregated reports, histogram snapshots
//! and recent incident summaries into a codec [`Value`] so a live
//! [`crate::NetServer`] can answer `MuxFrame::Stats` introspection frames
//! over the wire (see [`crate::NetClient::fetch_stats`]).

use std::collections::VecDeque;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use zooid_cfsm::{CompiledSystem, MonitorCursor};
use zooid_mpst::{Action, Role, Trace};
use zooid_proc::Value;
use zooid_runtime::monitor::MonitorViolation;
use zooid_runtime::wire::RejectCode;

use crate::metrics::{NetReport, RejectCounts, ServerReport, ShardReport};
use crate::registry::ProtocolId;
use crate::session::SessionId;

/// Number of log2 buckets: bucket 0 holds the value 0, bucket `k ≥ 1`
/// holds `[2^(k-1), 2^k - 1]`, and the last bucket absorbs everything up to
/// `u64::MAX`.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Default capacity of a shard's [`FlightRecorder`] ring.
pub const FLIGHT_CAPACITY: usize = 1024;

/// Default cap on retained [`Incident`]s per shard.
pub const INCIDENT_CAPACITY: usize = 64;

/// Default bound on an incident's replayable trace prefix.
pub const INCIDENT_PREFIX_CAP: usize = 256;

/// Index of the log2 bucket holding `value`.
#[inline]
pub fn bucket_of(value: u64) -> usize {
    if value == 0 {
        0
    } else {
        ((64 - value.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }
}

/// Inclusive `(lower, upper)` bounds of a bucket.
pub fn bucket_bounds(bucket: usize) -> (u64, u64) {
    match bucket {
        0 => (0, 0),
        b if b >= HISTOGRAM_BUCKETS - 1 => (1 << (HISTOGRAM_BUCKETS - 2), u64::MAX),
        b => (1 << (b - 1), (1 << b) - 1),
    }
}

/// A fixed log2-bucket histogram updated lock-free.
///
/// Writers call [`Histogram::record`] (one relaxed `fetch_add` plus a
/// `fetch_max` for the exact maximum); readers take a [`HistogramSnapshot`]
/// at any time. No allocation after construction, no locks, no unsafe —
/// cheap enough to sit on the serving data path.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            max: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    /// Merges `n` observations that were already bucketed elsewhere (the
    /// batch executor aggregates cohort widths into a small local array per
    /// quantum; the shard folds it in here with the same bucket mapping).
    #[inline]
    pub fn add_count(&self, bucket: usize, n: u64) {
        if n > 0 {
            let b = bucket.min(HISTOGRAM_BUCKETS - 1);
            self.buckets[b].fetch_add(n, Ordering::Relaxed);
            // The exact value is gone; the bucket's upper bound keeps `max`
            // an upper bound of every recorded observation.
            self.max.fetch_max(bucket_bounds(b).1, Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the counters.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|b| self.buckets[b].load(Ordering::Relaxed)),
            max: self.max.load(Ordering::Relaxed),
        }
    }
}

/// A plain copy of a [`Histogram`]'s counters: mergeable, comparable, and
/// the unit the reports carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    buckets: [u64; HISTOGRAM_BUCKETS],
    max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded observations.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// The largest recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// The per-bucket counts.
    pub fn buckets(&self) -> &[u64; HISTOGRAM_BUCKETS] {
        &self.buckets
    }

    /// Folds another snapshot in, losslessly: bucket counts add, the
    /// maximum is the larger of the two. Merging is commutative and
    /// associative (checked by the property suite).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine += theirs;
        }
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` (`0 < q ≤ 1`): the upper bound of the
    /// bucket containing the `ceil(q·count)`-th smallest observation,
    /// capped at the exact recorded maximum. Returns 0 for an empty
    /// snapshot.
    pub fn quantile(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
        let mut seen = 0u64;
        for (b, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return bucket_bounds(b).1.min(self.max);
            }
        }
        self.max
    }

    /// The median (bucket-resolution, see [`HistogramSnapshot::quantile`]).
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// The 90th percentile.
    pub fn p90(&self) -> u64 {
        self.quantile(0.90)
    }

    /// The 99th percentile.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }
}

impl fmt::Display for HistogramSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "p50={} p90={} p99={} max={} (n={})",
            self.p50(),
            self.p90(),
            self.p99(),
            self.max(),
            self.count()
        )
    }
}

/// Why the networked plane closed a connection (flight-recorder vocabulary).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum CloseReason {
    /// The peer closed its write side with no session left in flight.
    PeerClosed = 1,
    /// Hostile or malformed framing; the connection was cut.
    BadFrame = 2,
    /// The peer stopped reading and its write buffer hit the cap.
    WriteStalled = 3,
    /// The server shut down while the connection was live.
    Shutdown = 4,
    /// A rejected connection's linger window expired.
    LingerExpired = 5,
    /// The connection never sent a decodable frame within the idle timeout.
    Idle = 6,
    /// A session hosted on the connection was quarantined and the server's
    /// policy tears the owning connection down.
    Quarantined = 7,
}

impl CloseReason {
    fn from_u8(v: u8) -> Option<Self> {
        Some(match v {
            1 => CloseReason::PeerClosed,
            2 => CloseReason::BadFrame,
            3 => CloseReason::WriteStalled,
            4 => CloseReason::Shutdown,
            5 => CloseReason::LingerExpired,
            6 => CloseReason::Idle,
            7 => CloseReason::Quarantined,
            _ => return None,
        })
    }
}

impl fmt::Display for CloseReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CloseReason::PeerClosed => "peer-closed",
            CloseReason::BadFrame => "bad-frame",
            CloseReason::WriteStalled => "write-stalled",
            CloseReason::Shutdown => "shutdown",
            CloseReason::LingerExpired => "linger-expired",
            CloseReason::Idle => "idle",
            CloseReason::Quarantined => "quarantined",
        })
    }
}

const EV_ADMITTED: u8 = 1;
const EV_BATCH_DEMOTED: u8 = 2;
const EV_STALLED: u8 = 3;
const EV_VIOLATION: u8 = 4;
const EV_REJECTED: u8 = 5;
const EV_CONN_CLOSED: u8 = 6;
const EV_QUARANTINED: u8 = 7;
const EV_RESTARTED: u8 = 8;

const PAYLOAD_MASK: u64 = (1 << 48) - 1;

fn reject_code_from_u8(v: u8) -> Option<RejectCode> {
    Some(match v {
        1 => RejectCode::UnknownProtocol,
        2 => RejectCode::ConnectionLimit,
        3 => RejectCode::SessionLimit,
        4 => RejectCode::Overloaded,
        5 => RejectCode::BadFrame,
        6 => RejectCode::ShuttingDown,
        7 => RejectCode::Quarantined,
        8 => RejectCode::Banned,
        _ => return None,
    })
}

/// One structured flight-recorder event.
///
/// Events pack to a single `u64` — `kind:8 | code:8 | payload:48` — in the
/// dense-id style of the compiled skeleton/payload tables: session and
/// client ids are dense counters, so 48 bits never truncate in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlightEvent {
    /// A session entered the shard (`batched` = columnar executor).
    Admitted {
        /// The session's dense id (low 48 bits).
        session: u64,
        /// Whether it joined a columnar batch (vs. the slab).
        batched: bool,
    },
    /// A session was pulled out of its batch mid-flight for the slab.
    BatchDemoted {
        /// The session's dense id.
        session: u64,
    },
    /// A session was closed as stalled.
    Stalled {
        /// The session's dense id.
        session: u64,
    },
    /// A session finished with at least one monitor violation (an
    /// [`Incident`] was captured alongside).
    Violation {
        /// The session's dense id.
        session: u64,
    },
    /// The networked plane refused an `Open` (or a whole connection).
    Rejected {
        /// The client-chosen session id of the refused `Open` (0 for
        /// connection-level rejections).
        session: u64,
        /// The machine-readable reason sent to the client.
        code: RejectCode,
    },
    /// The networked plane closed a connection.
    ConnClosed {
        /// The connection's dense client id.
        client: u64,
        /// Why it was closed.
        reason: CloseReason,
    },
    /// The quarantine policy halted a session at its first rejected action.
    Quarantined {
        /// The session's dense id.
        session: u64,
    },
    /// A quarantined session was re-admitted from its last certified
    /// checkpoint ([`crate::QuarantinePolicy::RestartFromCheckpoint`]).
    Restarted {
        /// The session's dense id.
        session: u64,
        /// Which retry this was (1-based, saturating at 255).
        retry: u8,
    },
}

impl FlightEvent {
    fn pack(self) -> u64 {
        let (kind, code, payload) = match self {
            FlightEvent::Admitted { session, batched } => (EV_ADMITTED, batched as u8, session),
            FlightEvent::BatchDemoted { session } => (EV_BATCH_DEMOTED, 0, session),
            FlightEvent::Stalled { session } => (EV_STALLED, 0, session),
            FlightEvent::Violation { session } => (EV_VIOLATION, 0, session),
            FlightEvent::Rejected { session, code } => (EV_REJECTED, code as u8, session),
            FlightEvent::ConnClosed { client, reason } => (EV_CONN_CLOSED, reason as u8, client),
            FlightEvent::Quarantined { session } => (EV_QUARANTINED, 0, session),
            FlightEvent::Restarted { session, retry } => (EV_RESTARTED, retry, session),
        };
        (u64::from(kind) << 56) | (u64::from(code) << 48) | (payload & PAYLOAD_MASK)
    }

    fn unpack(raw: u64) -> Option<FlightEvent> {
        let kind = (raw >> 56) as u8;
        let code = (raw >> 48) as u8;
        let payload = raw & PAYLOAD_MASK;
        Some(match kind {
            EV_ADMITTED => FlightEvent::Admitted {
                session: payload,
                batched: code != 0,
            },
            EV_BATCH_DEMOTED => FlightEvent::BatchDemoted { session: payload },
            EV_STALLED => FlightEvent::Stalled { session: payload },
            EV_VIOLATION => FlightEvent::Violation { session: payload },
            EV_REJECTED => FlightEvent::Rejected {
                session: payload,
                code: reject_code_from_u8(code)?,
            },
            EV_CONN_CLOSED => FlightEvent::ConnClosed {
                client: payload,
                reason: CloseReason::from_u8(code)?,
            },
            EV_QUARANTINED => FlightEvent::Quarantined { session: payload },
            EV_RESTARTED => FlightEvent::Restarted {
                session: payload,
                retry: code,
            },
            _ => return None,
        })
    }
}

/// A bounded lock-free ring of [`FlightEvent`]s.
///
/// The owning worker records with one relaxed counter bump and one release
/// store; any thread can [`FlightRecorder::snapshot`] without stopping it.
/// A snapshot racing a concurrent write may miss the slot being overwritten
/// at that instant — the recorder trades that last-event fuzziness for a
/// data path with no locks and no allocation.
#[derive(Debug)]
pub struct FlightRecorder {
    slots: Vec<AtomicU64>,
    next: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` events (at least 1).
    pub fn new(capacity: usize) -> Self {
        let cap = capacity.max(1);
        let mut slots = Vec::with_capacity(cap);
        slots.resize_with(cap, || AtomicU64::new(0));
        FlightRecorder {
            slots,
            next: AtomicU64::new(0),
        }
    }

    /// Number of ring slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Total events ever recorded (recorded − capacity have been
    /// overwritten).
    pub fn recorded(&self) -> u64 {
        self.next.load(Ordering::Acquire)
    }

    /// Appends one event, overwriting the oldest once the ring is full.
    #[inline]
    pub fn record(&self, event: FlightEvent) {
        let seq = self.next.fetch_add(1, Ordering::Relaxed);
        let slot = (seq % self.slots.len() as u64) as usize;
        self.slots[slot].store(event.pack(), Ordering::Release);
    }

    /// The retained events, oldest first.
    pub fn snapshot(&self) -> Vec<FlightEvent> {
        let end = self.next.load(Ordering::Acquire);
        let cap = self.slots.len() as u64;
        let start = end.saturating_sub(cap);
        let mut out = Vec::with_capacity((end - start) as usize);
        for seq in start..end {
            let raw = self.slots[(seq % cap) as usize].load(Ordering::Acquire);
            // 0 = never written (a racing writer claimed the sequence number
            // but has not stored yet); unknown kinds are skipped the same way.
            if let Some(event) = FlightEvent::unpack(raw) {
                out.push(event);
            }
        }
        out
    }
}

/// The structured record of one monitor violation: who, what, where, and a
/// bounded replayable counterexample prefix.
#[derive(Debug, Clone)]
pub struct Incident {
    /// The protocol the session ran.
    pub protocol: ProtocolId,
    /// The violating session.
    pub session: SessionId,
    /// The participant that performed the violating action (its subject).
    pub role: Role,
    /// The action the protocol does not allow.
    pub action: Action,
    /// Zero-based index of the action in the session's observation stream.
    pub position: usize,
    /// Compliant actions accepted before the violation.
    pub trace_len: usize,
    /// The monitor cursor reached by replaying [`Incident::trace_prefix`]
    /// from the initial cursor — the violation-time cursor when the prefix
    /// is complete (`truncated == false`).
    pub cursor: MonitorCursor,
    /// The replayable prefix of the compliant trace leading to the
    /// violation (bounded; see [`Incident::truncated`]).
    pub trace_prefix: Trace,
    /// `true` when the prefix is incomplete: the compliant trace was longer
    /// than the bound, or trace recording was off for the session.
    pub truncated: bool,
}

impl Incident {
    /// Captures an incident from a finished session's violation: clips the
    /// compliant trace to the violation point (bounded by `prefix_cap`) and
    /// replays it through `system` to reconstruct the violation-time
    /// monitor cursor.
    pub fn capture(
        protocol: ProtocolId,
        session: SessionId,
        system: &CompiledSystem,
        violation: &MonitorViolation,
        global_trace: &Trace,
        prefix_cap: usize,
    ) -> Incident {
        let take = violation
            .trace_len
            .min(global_trace.len())
            .min(prefix_cap);
        let mut cursor = system.monitor_cursor();
        let mut prefix = Trace::empty();
        for action in &global_trace.actions()[..take] {
            let accepted = system.observe(&mut cursor, action);
            debug_assert!(accepted, "the compliant trace must replay: {action}");
            prefix.push(action.clone());
        }
        Incident {
            protocol,
            session,
            role: violation.action.subject().clone(),
            action: violation.action.clone(),
            position: violation.position,
            trace_len: violation.trace_len,
            cursor,
            trace_prefix: prefix,
            truncated: take < violation.trace_len,
        }
    }

    /// Re-certifies the violation: replays the recorded prefix through
    /// `system` from the initial cursor and checks that every prefix action
    /// is accepted, the cursor lands exactly on [`Incident::cursor`], and
    /// the recorded action is then rejected. Returns `false` for truncated
    /// prefixes (the counterexample is not fully replayable).
    pub fn replays_violation(&self, system: &CompiledSystem) -> bool {
        if self.truncated {
            return false;
        }
        let mut cursor = system.monitor_cursor();
        for action in self.trace_prefix.actions() {
            if !system.observe(&mut cursor, action) {
                return false;
            }
        }
        cursor == self.cursor && !system.observe(&mut cursor, &self.action)
    }

    /// The wire-portable summary of this incident.
    pub fn summary(&self) -> IncidentSummary {
        IncidentSummary {
            protocol: self.protocol.index() as u32,
            session: self.session.0,
            role: self.role.to_string(),
            action: self.action.to_string(),
            position: self.position as u64,
            trace_len: self.trace_len as u64,
            prefix_len: self.trace_prefix.len() as u64,
            truncated: self.truncated,
        }
    }
}

/// A capped store of the most recent [`Incident`]s.
///
/// Violations are exceptional, so a mutex-guarded deque is fine here: the
/// hot path never touches it. The total-recorded counter keeps counting
/// past the cap.
#[derive(Debug)]
pub struct IncidentStore {
    cap: usize,
    recorded: AtomicU64,
    inner: Mutex<VecDeque<Incident>>,
}

impl IncidentStore {
    /// A store retaining the `cap` most recent incidents (at least 1).
    pub fn new(cap: usize) -> Self {
        IncidentStore {
            cap: cap.max(1),
            recorded: AtomicU64::new(0),
            inner: Mutex::new(VecDeque::new()),
        }
    }

    /// Appends an incident, evicting the oldest beyond the cap.
    pub fn record(&self, incident: Incident) {
        self.recorded.fetch_add(1, Ordering::Relaxed);
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        if inner.len() == self.cap {
            inner.pop_front();
        }
        inner.push_back(incident);
    }

    /// Total incidents ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Ordering::Relaxed)
    }

    /// The retained incidents, oldest first.
    pub fn snapshot(&self) -> Vec<Incident> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// One shard's observability state: histograms, flight recorder, incident
/// store, and per-protocol wall-time histograms.
#[derive(Debug)]
pub struct ShardObs {
    /// Session wall time, admission → outcome, in nanoseconds.
    pub session_wall: Histogram,
    /// Per-action step cost in nanoseconds (quantum elapsed ÷ actions).
    pub action_cost: Histogram,
    /// Batch cohort widths (sessions per `(role, pc)` cohort).
    pub cohort_width: Histogram,
    /// The shard's event ring.
    pub recorder: FlightRecorder,
    /// The shard's retained incidents.
    pub incidents: IncidentStore,
    per_protocol: Mutex<Vec<(ProtocolId, Arc<Histogram>)>>,
    quarantined: Mutex<Vec<(ProtocolId, u64)>>,
}

impl Default for ShardObs {
    fn default() -> Self {
        ShardObs::new()
    }
}

impl ShardObs {
    /// Fresh observability state with the default capacities.
    pub fn new() -> Self {
        ShardObs {
            session_wall: Histogram::new(),
            action_cost: Histogram::new(),
            cohort_width: Histogram::new(),
            recorder: FlightRecorder::new(FLIGHT_CAPACITY),
            incidents: IncidentStore::new(INCIDENT_CAPACITY),
            per_protocol: Mutex::new(Vec::new()),
            quarantined: Mutex::new(Vec::new()),
        }
    }

    /// The session wall-time histogram of one protocol (created on first
    /// sighting; workers cache the `Arc`, so the lock is off the steady
    /// path).
    pub fn protocol_wall(&self, protocol: ProtocolId) -> Arc<Histogram> {
        let mut map = self.per_protocol.lock().unwrap_or_else(|e| e.into_inner());
        if let Some((_, h)) = map.iter().find(|(p, _)| *p == protocol) {
            return Arc::clone(h);
        }
        let h = Arc::new(Histogram::new());
        map.push((protocol, Arc::clone(&h)));
        h
    }

    /// Bumps the quarantine counter of one protocol (created on first
    /// sighting). Quarantines are rare, so this takes the lock every time
    /// rather than handing out cached handles.
    pub fn quarantined_for(&self, protocol: ProtocolId) {
        let mut map = self.quarantined.lock().unwrap_or_else(|e| e.into_inner());
        match map.iter_mut().find(|(p, _)| *p == protocol) {
            Some((_, n)) => *n += 1,
            None => map.push((protocol, 1)),
        }
    }

    /// Folds this shard's state into an aggregated [`ObsReport`].
    pub fn merge_into(&self, report: &mut ObsReport) {
        report.session_wall_ns.merge(&self.session_wall.snapshot());
        report.action_cost_ns.merge(&self.action_cost.snapshot());
        report.cohort_width.merge(&self.cohort_width.snapshot());
        report.incidents_recorded += self.incidents.recorded();
        report.incidents_held += self.incidents.snapshot().len() as u64;
        report.flight_events += self.recorder.recorded();
        let map = self.per_protocol.lock().unwrap_or_else(|e| e.into_inner());
        for (protocol, hist) in map.iter() {
            let snap = hist.snapshot();
            let id = protocol.index() as u32;
            match report.per_protocol_wall_ns.iter_mut().find(|(p, _)| *p == id) {
                Some((_, existing)) => existing.merge(&snap),
                None => report.per_protocol_wall_ns.push((id, snap)),
            }
        }
        report.per_protocol_wall_ns.sort_by_key(|(p, _)| *p);
        let quarantined = self.quarantined.lock().unwrap_or_else(|e| e.into_inner());
        for (protocol, count) in quarantined.iter() {
            let id = protocol.index() as u32;
            match report
                .per_protocol_quarantined
                .iter_mut()
                .find(|(p, _)| *p == id)
            {
                Some((_, existing)) => *existing += count,
                None => report.per_protocol_quarantined.push((id, *count)),
            }
        }
        report.per_protocol_quarantined.sort_by_key(|(p, _)| *p);
    }
}

/// Aggregated observability figures, carried inside [`ServerReport`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ObsReport {
    /// Session wall time admission → outcome, ns, merged across shards.
    pub session_wall_ns: HistogramSnapshot,
    /// Per-action step cost, ns, merged across shards.
    pub action_cost_ns: HistogramSnapshot,
    /// Batch cohort widths, merged across shards.
    pub cohort_width: HistogramSnapshot,
    /// Session wall time per protocol (dense registry index order).
    pub per_protocol_wall_ns: Vec<(u32, HistogramSnapshot)>,
    /// Sessions quarantined per protocol (dense registry index order);
    /// empty when no session was ever quarantined.
    pub per_protocol_quarantined: Vec<(u32, u64)>,
    /// Incidents captured across all shards (including evicted ones).
    pub incidents_recorded: u64,
    /// Incidents currently retained and fetchable.
    pub incidents_held: u64,
    /// Flight-recorder events ever recorded across all shards.
    pub flight_events: u64,
}

impl fmt::Display for ObsReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  latency: session wall ns {}", self.session_wall_ns)?;
        writeln!(f, "  latency: per-action ns {}", self.action_cost_ns)?;
        writeln!(f, "  batching: cohort width {}", self.cohort_width)?;
        writeln!(
            f,
            "  incidents: {} recorded, {} held; {} flight events",
            self.incidents_recorded, self.incidents_held, self.flight_events
        )?;
        for (protocol, count) in &self.per_protocol_quarantined {
            writeln!(f, "  quarantine: protocol #{protocol} x{count}")?;
        }
        Ok(())
    }
}

/// The wire-portable summary of an [`Incident`]: interned ids flattened to
/// integers and display strings — everything an operator needs to locate
/// the full record, nothing that drags [`Action`]/[`MonitorCursor`]
/// encodings onto the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IncidentSummary {
    /// Dense registry index of the protocol.
    pub protocol: u32,
    /// The violating session's id.
    pub session: u64,
    /// Display form of the offending role.
    pub role: String,
    /// Display form of the violating action.
    pub action: String,
    /// Zero-based observation index of the violation.
    pub position: u64,
    /// Compliant actions accepted before the violation.
    pub trace_len: u64,
    /// Length of the retained replayable prefix.
    pub prefix_len: u64,
    /// Whether the retained prefix is incomplete.
    pub truncated: bool,
}

/// Everything a live server hands back for one `MuxFrame::Stats` request.
#[derive(Debug, Clone, PartialEq)]
pub struct StatsSnapshot {
    /// The IO event loop's counters.
    pub net: NetReport,
    /// The shard scheduler's report (with the aggregated [`ObsReport`]).
    pub shards: ServerReport,
    /// Summaries of the retained incidents, oldest first.
    pub incidents: Vec<IncidentSummary>,
}

// --- Value encoding -------------------------------------------------------
//
// The stats reply rides on the codec's self-describing `Value`: a record is
// a `Seq` of `(Str key, value)` pairs, so the encoding is versionable (new
// fields are simply new keys) and needs no schema beyond the codec itself.

fn record(fields: Vec<(&str, Value)>) -> Value {
    Value::Seq(
        fields
            .into_iter()
            .map(|(k, v)| Value::pair(Value::Str(k.to_owned()), v))
            .collect(),
    )
}

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    let Value::Seq(fields) = value else {
        return None;
    };
    fields.iter().find_map(|f| match f {
        Value::Pair(k, v) if matches!(&**k, Value::Str(s) if s == key) => Some(&**v),
        _ => None,
    })
}

fn nat_field(value: &Value, key: &str) -> Option<u64> {
    match field(value, key)? {
        Value::Nat(n) => Some(*n),
        _ => None,
    }
}

fn bool_field(value: &Value, key: &str) -> Option<bool> {
    match field(value, key)? {
        Value::Bool(b) => Some(*b),
        _ => None,
    }
}

fn str_field(value: &Value, key: &str) -> Option<String> {
    match field(value, key)? {
        Value::Str(s) => Some(s.clone()),
        _ => None,
    }
}

fn hist_to_value(h: &HistogramSnapshot) -> Value {
    // Sparse: one (bucket, count) pair per non-empty bucket.
    let buckets = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &n)| n > 0)
        .map(|(b, &n)| Value::pair(Value::Nat(b as u64), Value::Nat(n)))
        .collect();
    record(vec![
        ("max", Value::Nat(h.max())),
        ("buckets", Value::Seq(buckets)),
    ])
}

fn hist_from_value(value: &Value) -> Option<HistogramSnapshot> {
    let mut snap = HistogramSnapshot {
        max: nat_field(value, "max")?,
        ..HistogramSnapshot::default()
    };
    let Some(Value::Seq(buckets)) = field(value, "buckets") else {
        return None;
    };
    for entry in buckets {
        let Value::Pair(b, n) = entry else {
            return None;
        };
        let (Value::Nat(b), Value::Nat(n)) = (&**b, &**n) else {
            return None;
        };
        if *b as usize >= HISTOGRAM_BUCKETS {
            return None;
        }
        snap.buckets[*b as usize] = *n;
    }
    Some(snap)
}

fn shard_to_value(s: &ShardReport) -> Value {
    record(vec![
        ("shard", Value::Nat(s.shard as u64)),
        ("started", Value::Nat(s.sessions_started)),
        ("completed", Value::Nat(s.sessions_completed)),
        ("violated", Value::Nat(s.sessions_violated)),
        ("quarantined", Value::Nat(s.sessions_quarantined)),
        ("restarted", Value::Nat(s.sessions_restarted)),
        ("stalled", Value::Nat(s.sessions_stalled)),
        ("routed", Value::Nat(s.messages_routed)),
        ("actions", Value::Nat(s.actions_executed)),
        ("quanta", Value::Nat(s.quanta)),
        ("peak_queue", Value::Nat(s.peak_queue_depth)),
        ("batched", Value::Nat(s.sessions_batched)),
        ("slab", Value::Nat(s.sessions_slab)),
        ("demoted", Value::Nat(s.sessions_demoted)),
        ("cohorts", Value::Nat(s.batch_cohorts)),
        ("cohort_sessions", Value::Nat(s.batch_cohort_sessions)),
    ])
}

fn shard_from_value(value: &Value) -> Option<ShardReport> {
    Some(ShardReport {
        shard: nat_field(value, "shard")? as usize,
        sessions_started: nat_field(value, "started")?,
        sessions_completed: nat_field(value, "completed")?,
        sessions_violated: nat_field(value, "violated")?,
        sessions_quarantined: nat_field(value, "quarantined")?,
        sessions_restarted: nat_field(value, "restarted")?,
        sessions_stalled: nat_field(value, "stalled")?,
        messages_routed: nat_field(value, "routed")?,
        actions_executed: nat_field(value, "actions")?,
        quanta: nat_field(value, "quanta")?,
        peak_queue_depth: nat_field(value, "peak_queue")?,
        sessions_batched: nat_field(value, "batched")?,
        sessions_slab: nat_field(value, "slab")?,
        sessions_demoted: nat_field(value, "demoted")?,
        batch_cohorts: nat_field(value, "cohorts")?,
        batch_cohort_sessions: nat_field(value, "cohort_sessions")?,
    })
}

fn obs_to_value(o: &ObsReport) -> Value {
    record(vec![
        ("session_wall_ns", hist_to_value(&o.session_wall_ns)),
        ("action_cost_ns", hist_to_value(&o.action_cost_ns)),
        ("cohort_width", hist_to_value(&o.cohort_width)),
        (
            "per_protocol_wall_ns",
            Value::Seq(
                o.per_protocol_wall_ns
                    .iter()
                    .map(|(p, h)| Value::pair(Value::Nat(u64::from(*p)), hist_to_value(h)))
                    .collect(),
            ),
        ),
        (
            "per_protocol_quarantined",
            Value::Seq(
                o.per_protocol_quarantined
                    .iter()
                    .map(|(p, n)| Value::pair(Value::Nat(u64::from(*p)), Value::Nat(*n)))
                    .collect(),
            ),
        ),
        ("incidents_recorded", Value::Nat(o.incidents_recorded)),
        ("incidents_held", Value::Nat(o.incidents_held)),
        ("flight_events", Value::Nat(o.flight_events)),
    ])
}

fn obs_from_value(value: &Value) -> Option<ObsReport> {
    let mut per_protocol = Vec::new();
    if let Some(Value::Seq(entries)) = field(value, "per_protocol_wall_ns") {
        for entry in entries {
            let Value::Pair(p, h) = entry else {
                return None;
            };
            let Value::Nat(p) = &**p else {
                return None;
            };
            per_protocol.push((*p as u32, hist_from_value(h)?));
        }
    } else {
        return None;
    }
    let mut quarantined = Vec::new();
    if let Some(Value::Seq(entries)) = field(value, "per_protocol_quarantined") {
        for entry in entries {
            let Value::Pair(p, n) = entry else {
                return None;
            };
            let (Value::Nat(p), Value::Nat(n)) = (&**p, &**n) else {
                return None;
            };
            quarantined.push((*p as u32, *n));
        }
    } else {
        return None;
    }
    Some(ObsReport {
        session_wall_ns: hist_from_value(field(value, "session_wall_ns")?)?,
        action_cost_ns: hist_from_value(field(value, "action_cost_ns")?)?,
        cohort_width: hist_from_value(field(value, "cohort_width")?)?,
        per_protocol_wall_ns: per_protocol,
        per_protocol_quarantined: quarantined,
        incidents_recorded: nat_field(value, "incidents_recorded")?,
        incidents_held: nat_field(value, "incidents_held")?,
        flight_events: nat_field(value, "flight_events")?,
    })
}

fn net_to_value(n: &NetReport) -> Value {
    record(vec![
        ("conns_accepted", Value::Nat(n.connections_accepted)),
        ("conns_rejected", Value::Nat(n.connections_rejected)),
        ("conns_closed", Value::Nat(n.connections_closed)),
        ("sessions_opened", Value::Nat(n.sessions_opened)),
        ("sessions_rejected", Value::Nat(n.sessions_rejected)),
        ("sessions_shed", Value::Nat(n.sessions_shed)),
        ("sessions_done", Value::Nat(n.sessions_done)),
        ("frames_read", Value::Nat(n.frames_read)),
        ("frames_written", Value::Nat(n.frames_written)),
        ("bad_frames", Value::Nat(n.bad_frames)),
        ("rej_unknown_protocol", Value::Nat(n.rejects.unknown_protocol)),
        ("rej_connection_limit", Value::Nat(n.rejects.connection_limit)),
        ("rej_session_limit", Value::Nat(n.rejects.session_limit)),
        ("rej_overloaded", Value::Nat(n.rejects.overloaded)),
        ("rej_bad_frame", Value::Nat(n.rejects.bad_frame)),
        ("rej_shutting_down", Value::Nat(n.rejects.shutting_down)),
        ("rej_quarantined", Value::Nat(n.rejects.quarantined)),
        ("rej_banned", Value::Nat(n.rejects.banned)),
        ("io_pass_ns", hist_to_value(&n.io_pass_ns)),
    ])
}

fn net_from_value(value: &Value) -> Option<NetReport> {
    Some(NetReport {
        connections_accepted: nat_field(value, "conns_accepted")?,
        connections_rejected: nat_field(value, "conns_rejected")?,
        connections_closed: nat_field(value, "conns_closed")?,
        sessions_opened: nat_field(value, "sessions_opened")?,
        sessions_rejected: nat_field(value, "sessions_rejected")?,
        sessions_shed: nat_field(value, "sessions_shed")?,
        sessions_done: nat_field(value, "sessions_done")?,
        frames_read: nat_field(value, "frames_read")?,
        frames_written: nat_field(value, "frames_written")?,
        bad_frames: nat_field(value, "bad_frames")?,
        rejects: RejectCounts {
            unknown_protocol: nat_field(value, "rej_unknown_protocol")?,
            connection_limit: nat_field(value, "rej_connection_limit")?,
            session_limit: nat_field(value, "rej_session_limit")?,
            overloaded: nat_field(value, "rej_overloaded")?,
            bad_frame: nat_field(value, "rej_bad_frame")?,
            shutting_down: nat_field(value, "rej_shutting_down")?,
            quarantined: nat_field(value, "rej_quarantined")?,
            banned: nat_field(value, "rej_banned")?,
        },
        io_pass_ns: hist_from_value(field(value, "io_pass_ns")?)?,
    })
}

fn incident_to_value(i: &IncidentSummary) -> Value {
    record(vec![
        ("protocol", Value::Nat(u64::from(i.protocol))),
        ("session", Value::Nat(i.session)),
        ("role", Value::Str(i.role.clone())),
        ("action", Value::Str(i.action.clone())),
        ("position", Value::Nat(i.position)),
        ("trace_len", Value::Nat(i.trace_len)),
        ("prefix_len", Value::Nat(i.prefix_len)),
        ("truncated", Value::Bool(i.truncated)),
    ])
}

fn incident_from_value(value: &Value) -> Option<IncidentSummary> {
    Some(IncidentSummary {
        protocol: nat_field(value, "protocol")? as u32,
        session: nat_field(value, "session")?,
        role: str_field(value, "role")?,
        action: str_field(value, "action")?,
        position: nat_field(value, "position")?,
        trace_len: nat_field(value, "trace_len")?,
        prefix_len: nat_field(value, "prefix_len")?,
        truncated: bool_field(value, "truncated")?,
    })
}

impl StatsSnapshot {
    /// Serializes the snapshot into a codec [`Value`] (the `StatsReply`
    /// payload).
    pub fn to_value(&self) -> Value {
        record(vec![
            ("net", net_to_value(&self.net)),
            (
                "shards",
                record(vec![
                    (
                        "per_shard",
                        Value::Seq(self.shards.shards.iter().map(shard_to_value).collect()),
                    ),
                    ("obs", obs_to_value(&self.shards.obs)),
                ]),
            ),
            (
                "incidents",
                Value::Seq(self.incidents.iter().map(incident_to_value).collect()),
            ),
        ])
    }

    /// Deserializes a snapshot from a codec [`Value`]; `None` when the
    /// value does not carry the expected record shape.
    pub fn from_value(value: &Value) -> Option<StatsSnapshot> {
        let shards_rec = field(value, "shards")?;
        let Some(Value::Seq(per_shard)) = field(shards_rec, "per_shard") else {
            return None;
        };
        let shards = per_shard
            .iter()
            .map(shard_from_value)
            .collect::<Option<Vec<_>>>()?;
        let Some(Value::Seq(incidents)) = field(value, "incidents") else {
            return None;
        };
        let incidents = incidents
            .iter()
            .map(incident_from_value)
            .collect::<Option<Vec<_>>>()?;
        Some(StatsSnapshot {
            net: net_from_value(field(value, "net")?)?,
            shards: ServerReport {
                shards,
                obs: obs_from_value(field(shards_rec, "obs")?)?,
            },
            incidents,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_cfsm::System;
    use zooid_mpst::{generators, Label, Sort};

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    #[test]
    fn buckets_partition_the_u64_range() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), HISTOGRAM_BUCKETS - 1);
        for v in [0u64, 1, 2, 3, 7, 8, 1000, u64::MAX / 2, u64::MAX] {
            let (lo, hi) = bucket_bounds(bucket_of(v));
            assert!(lo <= v && v <= hi, "{v} outside [{lo}, {hi}]");
        }
        // Bounds tile without gaps or overlaps.
        for b in 1..HISTOGRAM_BUCKETS {
            assert_eq!(bucket_bounds(b).0, bucket_bounds(b - 1).1 + 1);
        }
    }

    #[test]
    fn percentiles_track_recorded_values_at_bucket_resolution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count(), 100);
        assert_eq!(snap.max(), 100);
        // p50 falls in the bucket of 50 ([32, 63]); capped upper bound.
        assert_eq!(snap.p50(), 63);
        assert_eq!(snap.p99(), 100, "top bucket percentile caps at max");
        assert!(snap.p50() <= snap.p90() && snap.p90() <= snap.p99());
        assert!(snap.p99() <= snap.max());
    }

    #[test]
    fn empty_snapshots_report_zeroes() {
        let snap = HistogramSnapshot::default();
        assert_eq!(snap.count(), 0);
        assert_eq!(snap.p50(), 0);
        assert_eq!(snap.p99(), 0);
        assert_eq!(snap.max(), 0);
    }

    #[test]
    fn merge_is_lossless() {
        let a = Histogram::new();
        let b = Histogram::new();
        let all = Histogram::new();
        for v in [1u64, 5, 9, 120, 7000] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 2, 64, 1 << 40] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged, all.snapshot());
    }

    #[test]
    fn add_count_agrees_with_individual_records_up_to_the_bucket() {
        let direct = Histogram::new();
        let bucketed = Histogram::new();
        for v in [3u64, 3, 3, 17] {
            direct.record(v);
        }
        bucketed.add_count(bucket_of(3), 3);
        bucketed.add_count(bucket_of(17), 1);
        assert_eq!(direct.snapshot().buckets(), bucketed.snapshot().buckets());
        // add_count's max is the bucket upper bound (conservative).
        assert!(bucketed.snapshot().max() >= direct.snapshot().max());
    }

    #[test]
    fn flight_recorder_keeps_the_last_events_in_order() {
        let rec = FlightRecorder::new(4);
        for i in 0..10u64 {
            rec.record(FlightEvent::Admitted {
                session: i,
                batched: i % 2 == 0,
            });
        }
        assert_eq!(rec.recorded(), 10);
        let events = rec.snapshot();
        assert_eq!(events.len(), 4);
        let sessions: Vec<u64> = events
            .iter()
            .map(|e| match e {
                FlightEvent::Admitted { session, .. } => *session,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(sessions, vec![6, 7, 8, 9]);
    }

    #[test]
    fn flight_events_pack_and_unpack_every_variant() {
        let cases = [
            FlightEvent::Admitted {
                session: 1,
                batched: true,
            },
            FlightEvent::Admitted {
                session: 2,
                batched: false,
            },
            FlightEvent::BatchDemoted { session: 77 },
            FlightEvent::Stalled { session: (1 << 48) - 1 },
            FlightEvent::Violation { session: 3 },
            FlightEvent::Rejected {
                session: 9,
                code: RejectCode::Overloaded,
            },
            FlightEvent::ConnClosed {
                client: 5,
                reason: CloseReason::WriteStalled,
            },
            FlightEvent::ConnClosed {
                client: 6,
                reason: CloseReason::Idle,
            },
            FlightEvent::ConnClosed {
                client: 7,
                reason: CloseReason::Quarantined,
            },
            FlightEvent::Rejected {
                session: 10,
                code: RejectCode::Quarantined,
            },
            FlightEvent::Quarantined { session: 11 },
            FlightEvent::Restarted {
                session: 12,
                retry: 1,
            },
            FlightEvent::Restarted {
                session: 13,
                retry: 255,
            },
        ];
        for case in cases {
            assert_eq!(FlightEvent::unpack(case.pack()), Some(case), "{case:?}");
        }
        assert_eq!(FlightEvent::unpack(0), None, "empty slots decode to nothing");
    }

    #[test]
    fn incidents_capture_and_replay_their_violation() {
        let system = Arc::new(System::from_global(&generators::ring_n(3)).unwrap().compile());
        // Accept the first exchange, then observe a premature action.
        let roles = [r("w0"), r("w1"), r("w2")];
        let send = Action::send(roles[0].clone(), roles[1].clone(), Label::new("l"), Sort::Nat);
        let mut cursor = system.monitor_cursor();
        let mut trace = Trace::empty();
        for action in [send.clone(), send.dual()] {
            assert!(system.observe(&mut cursor, &action));
            trace.push(action);
        }
        let premature = Action::send(roles[2].clone(), roles[0].clone(), Label::new("l"), Sort::Nat);
        assert!(!system.observe(&mut cursor, &premature));
        let violation = MonitorViolation {
            action: premature.clone(),
            position: 2,
            trace_len: 2,
        };
        let incident = Incident::capture(
            ProtocolId(0),
            SessionId(42),
            &system,
            &violation,
            &trace,
            INCIDENT_PREFIX_CAP,
        );
        assert_eq!(incident.role, roles[2]);
        assert!(!incident.truncated);
        assert_eq!(incident.trace_prefix.len(), 2);
        assert_eq!(incident.cursor, cursor);
        assert!(incident.replays_violation(&system));
        let summary = incident.summary();
        assert_eq!(summary.session, 42);
        assert_eq!(summary.prefix_len, 2);
        assert!(!summary.truncated);
    }

    #[test]
    fn truncated_incidents_say_so_and_refuse_replay() {
        let system = Arc::new(System::from_global(&generators::ring_n(3)).unwrap().compile());
        let send = Action::send(r("w0"), r("w1"), Label::new("l"), Sort::Nat);
        let violation = MonitorViolation {
            action: send.clone(),
            position: 5,
            trace_len: 4,
        };
        // Trace recording was off: no prefix available.
        let incident = Incident::capture(
            ProtocolId(0),
            SessionId(1),
            &system,
            &violation,
            &Trace::empty(),
            INCIDENT_PREFIX_CAP,
        );
        assert!(incident.truncated);
        assert_eq!(incident.trace_prefix.len(), 0);
        assert!(!incident.replays_violation(&system));
    }

    #[test]
    fn the_incident_store_caps_retention_but_counts_everything() {
        let system = Arc::new(System::from_global(&generators::ring_n(3)).unwrap().compile());
        let store = IncidentStore::new(2);
        let violation = MonitorViolation {
            action: Action::send(r("w1"), r("w2"), Label::new("l"), Sort::Nat),
            position: 0,
            trace_len: 0,
        };
        for i in 0..5 {
            store.record(Incident::capture(
                ProtocolId(0),
                SessionId(i),
                &system,
                &violation,
                &Trace::empty(),
                INCIDENT_PREFIX_CAP,
            ));
        }
        assert_eq!(store.recorded(), 5);
        let held = store.snapshot();
        assert_eq!(held.len(), 2);
        assert_eq!(held[0].session, SessionId(3));
        assert_eq!(held[1].session, SessionId(4));
    }

    #[test]
    fn shard_obs_merges_per_protocol_histograms() {
        let a = ShardObs::new();
        let b = ShardObs::new();
        a.protocol_wall(ProtocolId(0)).record(10);
        a.protocol_wall(ProtocolId(1)).record(20);
        b.protocol_wall(ProtocolId(0)).record(30);
        a.session_wall.record(10);
        b.session_wall.record(30);
        let mut report = ObsReport::default();
        a.merge_into(&mut report);
        b.merge_into(&mut report);
        assert_eq!(report.session_wall_ns.count(), 2);
        assert_eq!(report.per_protocol_wall_ns.len(), 2);
        assert_eq!(report.per_protocol_wall_ns[0].0, 0);
        assert_eq!(report.per_protocol_wall_ns[0].1.count(), 2);
        assert_eq!(report.per_protocol_wall_ns[1].1.count(), 1);
    }

    #[test]
    fn stats_snapshots_round_trip_through_values() {
        let mut session_wall = HistogramSnapshot::default();
        let h = Histogram::new();
        h.record(100);
        h.record(90_000);
        session_wall.merge(&h.snapshot());
        let snapshot = StatsSnapshot {
            net: NetReport {
                connections_accepted: 3,
                sessions_opened: 7,
                frames_read: 21,
                rejects: RejectCounts {
                    overloaded: 2,
                    bad_frame: 1,
                    ..RejectCounts::default()
                },
                io_pass_ns: h.snapshot(),
                ..NetReport::default()
            },
            shards: ServerReport {
                shards: vec![ShardReport {
                    shard: 0,
                    sessions_started: 7,
                    sessions_completed: 6,
                    sessions_violated: 1,
                    sessions_quarantined: 1,
                    sessions_restarted: 1,
                    sessions_stalled: 0,
                    messages_routed: 21,
                    actions_executed: 42,
                    quanta: 9,
                    peak_queue_depth: 4,
                    sessions_batched: 5,
                    sessions_slab: 2,
                    sessions_demoted: 1,
                    batch_cohorts: 3,
                    batch_cohort_sessions: 12,
                }],
                obs: ObsReport {
                    session_wall_ns: session_wall,
                    per_protocol_wall_ns: vec![(0, session_wall)],
                    per_protocol_quarantined: vec![(0, 1)],
                    incidents_recorded: 1,
                    incidents_held: 1,
                    flight_events: 17,
                    ..ObsReport::default()
                },
            },
            incidents: vec![IncidentSummary {
                protocol: 0,
                session: 4,
                role: "w1".into(),
                action: "!w1w2(l, nat)".into(),
                position: 2,
                trace_len: 2,
                prefix_len: 2,
                truncated: false,
            }],
        };
        let value = snapshot.to_value();
        let back = StatsSnapshot::from_value(&value).expect("round trip");
        assert_eq!(back, snapshot);
        // Malformed values decode to None, not a panic.
        assert_eq!(StatsSnapshot::from_value(&Value::Nat(3)), None);
        assert_eq!(StatsSnapshot::from_value(&Value::Seq(vec![])), None);
    }
}
