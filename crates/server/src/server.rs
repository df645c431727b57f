//! The sharded session server: a bounded pool of worker shards hosting
//! thousands of concurrent sessions.
//!
//! Each worker shard owns a crossbeam run queue of [`ActiveSession`]s and
//! steps them in bounded quanta ([`ServerConfig::quantum`] visible actions),
//! so a long-running session cannot starve its neighbours and the number of
//! OS threads is fixed by [`ServerConfig::shards`] — never by the number of
//! live sessions. Sessions are assigned to shards by hashing their
//! [`SessionId`], all endpoints of one session live on the same shard (so
//! intra-session message arrival wakes the receiving endpoint on the very
//! next stepping pass, with no cross-thread signalling), and finished
//! sessions stream their [`SessionOutcome`] back to the submitter.
//!
//! **Who builds the traces.** A session that ends on the slab (or is
//! quarantined, or closed at shutdown outside a batch) has its full
//! outcome built by its shard. Sessions that conclude inside a columnar
//! batch travel as the batch's compact [`OutcomeBlock`] — one summary per
//! session plus the quantum's action log — and their per-endpoint value
//! traces and global trace are rebuilt from that log by the thread that
//! asks for the outcome: [`SessionServer::next_outcome`],
//! [`SessionServer::try_next_outcome`] and [`SessionServer::drain`] build
//! them on the caller's thread, while the networked IO loop's summary poll
//! never builds them at all.

use std::collections::VecDeque;
use std::hash::Hasher;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Receiver, Sender};
use zooid_cfsm::CompiledSystem;
use zooid_mpst::common::intern::{FxHashMap, FxHasher};
use zooid_runtime::cbatch::{
    BatchLayout, BatchOutcome, BlockOutcomes, DemotedSession, FinishedSession, OutcomeBlock,
    SessionBatch,
};
use zooid_runtime::cexec::EndpointProgram;
use zooid_runtime::checkpoint::{initial_demoted, SessionCheckpoint};

use crate::error::{Result, ServerError};
use crate::metrics::{ServerReport, ShardMetrics};
use crate::obs::{FlightEvent, Histogram, Incident, ObsReport, ShardObs, INCIDENT_PREFIX_CAP};
use crate::registry::{ProtocolArtifacts, ProtocolRegistry, ProtocolId};
use crate::session::{ActiveSession, OutcomeSummary, SessionId, SessionOutcome, SessionSpec};

/// What a worker shard does with a session whose monitor rejected an
/// action.
///
/// Detection alone (PR 8's incidents) still lets a byzantine endpoint keep
/// talking — burning shard budget and spraying messages at honest peers —
/// for as long as the session takes to finish on its own. Quarantine is the
/// policy beyond recording: the shard stops stepping the session the moment
/// the monitor says no.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantinePolicy {
    /// Record the violation (metrics, incident capture) but keep stepping
    /// the session to its natural end.
    Observe,
    /// Halt the session at the first rejected action: zero further steps on
    /// either execution path (a batch-demoted violator is closed instead of
    /// re-admitted to the slab), endpoints still mid-protocol reported
    /// stalled, the outcome flagged `quarantined`, and a `Quarantined`
    /// flight-recorder event emitted. The default.
    Halt,
    /// Halt the violating run, then re-admit the session from its **last
    /// certified checkpoint** — the encoded [`SessionCheckpoint`] the shard
    /// took the last time the session was rescheduled while still compliant
    /// (or, if it violated before its first reschedule, a fresh session at
    /// the protocol's initial states). Each restart re-validates the
    /// checkpoint against the compiled tables before anything resumes. A
    /// session that keeps violating is restarted at most `max_retries`
    /// times, then closed exactly as under [`QuarantinePolicy::Halt`].
    RestartFromCheckpoint {
        /// Restart budget per session; `0` behaves like `Halt`.
        max_retries: u32,
    },
}

/// Configuration of a [`SessionServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Number of worker shards (and therefore worker threads).
    pub shards: usize,
    /// Maximum visible communications a session may perform per scheduling
    /// quantum before it is re-queued behind its shard neighbours.
    pub quantum: usize,
    /// What to do with a session the monitor rejects.
    pub quarantine: QuarantinePolicy,
    /// Per-protocol violation thresholds: a session of a listed protocol is
    /// only quarantined once its monitor has rejected that many actions
    /// (the adaptive knob for lenient protocols whose occasional stray
    /// message is tolerable); unlisted protocols quarantine at the first
    /// rejection. Ignored under [`QuarantinePolicy::Observe`].
    pub violation_thresholds: Vec<(ProtocolId, u32)>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            shards: 4,
            quantum: 64,
            quarantine: QuarantinePolicy::Halt,
            violation_thresholds: Vec::new(),
        }
    }
}

impl ServerConfig {
    /// A config with the given shard count and the default quantum.
    pub fn with_shards(shards: usize) -> Self {
        ServerConfig {
            shards: shards.max(1),
            ..ServerConfig::default()
        }
    }

    /// Tolerates up to `threshold - 1` monitor rejections for sessions of
    /// `protocol` before quarantining (a threshold of `0` is treated as 1).
    pub fn with_violation_threshold(mut self, protocol: ProtocolId, threshold: u32) -> Self {
        self.violation_thresholds.push((protocol, threshold.max(1)));
        self
    }
}

/// The worker-side view of the quarantine configuration: the policy plus
/// the per-protocol violation thresholds resolved into a map.
#[derive(Debug, Clone)]
struct QuarantineConfig {
    policy: QuarantinePolicy,
    thresholds: FxHashMap<ProtocolId, u32>,
}

impl QuarantineConfig {
    fn new(config: &ServerConfig) -> Self {
        let mut thresholds = FxHashMap::default();
        for &(protocol, threshold) in &config.violation_thresholds {
            thresholds.insert(protocol, threshold.max(1));
        }
        QuarantineConfig {
            policy: config.quarantine,
            thresholds,
        }
    }

    /// How many monitor rejections a session of `protocol` may accumulate
    /// before the shard stops stepping it; `None` means never (observe).
    fn threshold_for(&self, protocol: ProtocolId) -> Option<u32> {
        match self.policy {
            QuarantinePolicy::Observe => None,
            _ => Some(self.thresholds.get(&protocol).copied().unwrap_or(1)),
        }
    }

    /// The per-session restart budget (zero unless the policy is
    /// [`QuarantinePolicy::RestartFromCheckpoint`]).
    fn max_retries(&self) -> u32 {
        match self.policy {
            QuarantinePolicy::RestartFromCheckpoint { max_retries } => max_retries,
            _ => 0,
        }
    }
}

enum ShardMsg {
    /// A validated spec to build and run. Construction (channels, compiled
    /// task binding, monitor cursor) happens on the worker shard so a
    /// single submitter thread never serialises the whole batch's setup.
    Run {
        id: SessionId,
        spec: SessionSpec,
        artifacts: Arc<crate::registry::ProtocolArtifacts>,
    },
    /// Checkpoint every queued session and hand the encoded checkpoints
    /// back — the evacuation half of a session migration.
    Drain {
        reply: Sender<Vec<MigratedSession>>,
    },
    /// Re-admit a session restored from a checkpoint (already decoded and
    /// re-certified on the submitter thread) — the arrival half.
    Restore {
        id: SessionId,
        protocol: ProtocolId,
        demoted: DemotedSession,
        artifacts: Arc<crate::registry::ProtocolArtifacts>,
    },
    Shutdown,
}

/// A live session evacuated from a shard as an encoded, re-certifiable
/// checkpoint (see [`SessionServer::drain_shard`]). The bytes are the
/// [`SessionCheckpoint`] wire encoding — opaque but inspectable, so tests
/// can tamper with them and watch [`SessionServer::migrate_session`] refuse
/// the damage with a structured error instead of admitting it.
#[derive(Debug)]
pub struct MigratedSession {
    /// The session's id (stable across the migration).
    pub id: SessionId,
    /// The protocol the session runs.
    pub protocol: ProtocolId,
    /// The encoded [`SessionCheckpoint`].
    pub bytes: Vec<u8>,
    /// The compiled per-role programs the checkpoint's indices refer to,
    /// in the checkpoint's endpoint order.
    programs: Vec<Arc<EndpointProgram>>,
}

struct Shard {
    tx: Sender<ShardMsg>,
    handle: std::thread::JoinHandle<()>,
}

/// A multi-session server hosting sessions of registered protocols on a
/// bounded worker pool.
///
/// # Examples
///
/// ```
/// use zooid_dsl::Protocol;
/// use zooid_mpst::generators;
/// use zooid_server::{ProtocolRegistry, ServerConfig, SessionServer, SessionSpec};
///
/// let mut registry = ProtocolRegistry::new();
/// let ring = registry.register(Protocol::new("ring", generators::ring3()).unwrap()).unwrap();
/// let endpoints = zooid_server::synth::skeleton_endpoints(
///     registry.get(ring).unwrap().protocol(),
/// ).unwrap();
///
/// let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
/// for _ in 0..10 {
///     server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
/// }
/// let outcomes = server.drain();
/// assert_eq!(outcomes.len(), 10);
/// assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
/// let report = server.shutdown();
/// assert_eq!(report.sessions_completed(), 10);
/// ```
#[derive(Debug)]
pub struct SessionServer {
    registry: Arc<ProtocolRegistry>,
    shards: Vec<Shard>,
    metrics: Vec<Arc<ShardMetrics>>,
    obs: Vec<Arc<ShardObs>>,
    results_rx: Receiver<Vec<Done>>,
    /// Finished work received from a shard's flush but not yet handed to
    /// the caller (shards flush finished sessions in batches to keep
    /// channel traffic off the per-session path), in completion order.
    ready: VecDeque<Done>,
    next_session: u64,
    in_flight: usize,
    /// Set when a shard worker died and its sessions were written off: the
    /// results stream can no longer be attributed reliably, so the server
    /// refuses further submissions.
    degraded: bool,
}

impl std::fmt::Debug for Shard {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Shard").finish_non_exhaustive()
    }
}

impl SessionServer {
    /// Starts the worker shards over a (now frozen) protocol registry.
    pub fn start(registry: ProtocolRegistry, config: ServerConfig) -> Self {
        let registry = Arc::new(registry);
        let shard_count = config.shards.max(1);
        let (results_tx, results_rx) = unbounded();
        let mut shards = Vec::with_capacity(shard_count);
        let mut metrics = Vec::with_capacity(shard_count);
        let mut obs = Vec::with_capacity(shard_count);
        for _ in 0..shard_count {
            let (tx, rx) = unbounded();
            let shard_metrics = Arc::new(ShardMetrics::default());
            let shard_obs = Arc::new(ShardObs::new());
            let worker_metrics = Arc::clone(&shard_metrics);
            let worker_obs = Arc::clone(&shard_obs);
            let worker_results = results_tx.clone();
            let quantum = config.quantum.max(1);
            let quarantine = QuarantineConfig::new(&config);
            let handle = std::thread::spawn(move || {
                shard_worker(
                    rx,
                    worker_results,
                    worker_metrics,
                    worker_obs,
                    quantum,
                    quarantine,
                );
            });
            shards.push(Shard { tx, handle });
            metrics.push(shard_metrics);
            obs.push(shard_obs);
        }
        SessionServer {
            registry,
            shards,
            metrics,
            obs,
            results_rx,
            ready: VecDeque::new(),
            next_session: 0,
            in_flight: 0,
            degraded: false,
        }
    }

    /// The registry the server serves.
    pub fn registry(&self) -> &ProtocolRegistry {
        &self.registry
    }

    /// Number of worker shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Convenience: registry lookup by name.
    pub fn protocol(&self, name: &str) -> Option<ProtocolId> {
        self.registry.lookup(name)
    }

    /// Submits a session for execution, returning its id immediately.
    ///
    /// # Errors
    ///
    /// Fails if the spec references an unknown protocol, does not cover the
    /// participants exactly, or the server is shut down.
    pub fn submit(&mut self, spec: SessionSpec) -> Result<SessionId> {
        if self.degraded {
            // A worker died and its sessions were written off: outcomes in
            // the results stream can no longer be matched to submissions.
            return Err(ServerError::Shutdown);
        }
        let artifacts = self
            .registry
            .get(spec.protocol)
            .ok_or(ServerError::UnknownProtocol)?;
        crate::session::validate_spec(&spec, artifacts)?;
        let id = SessionId(self.next_session);
        let shard = shard_of(id, self.shards.len());
        self.shards[shard]
            .tx
            .send(ShardMsg::Run {
                id,
                spec,
                artifacts: Arc::clone(artifacts),
            })
            .map_err(|_| ServerError::Shutdown)?;
        self.metrics[shard]
            .sessions_started
            .fetch_add(1, Ordering::Relaxed);
        self.next_session += 1;
        self.in_flight += 1;
        Ok(id)
    }

    /// Receives the next finished session, waiting up to `timeout`. A
    /// session that concluded inside a columnar batch has its traces
    /// rebuilt here, on the caller's thread.
    pub fn next_outcome(&mut self, timeout: Duration) -> Option<SessionOutcome> {
        self.next_done(Some(timeout), pop_outcome)
    }

    /// Receives the next finished session if one is already available,
    /// without blocking (traces rebuilt on the caller's thread, as in
    /// [`SessionServer::next_outcome`]).
    pub fn try_next_outcome(&mut self) -> Option<SessionOutcome> {
        self.next_done(None, pop_outcome)
    }

    /// Receives the next finished session's [`OutcomeSummary`] if one is
    /// already available, without blocking and without rebuilding the
    /// traces of a batched session.
    ///
    /// This is the poll the networked serving plane's IO event loop uses
    /// between socket sweeps: sockets and session outcomes are multiplexed
    /// on one thread, so neither side may park waiting for the other, and a
    /// `Done` frame needs nothing but the summary.
    pub(crate) fn try_next_summary(&mut self) -> Option<OutcomeSummary> {
        self.next_done(None, pop_summary)
    }

    /// Takes the next finished session with `pop`, receiving one flush from
    /// the shards first (waiting up to `wait`, or not at all) when nothing
    /// is ready.
    fn next_done<T>(
        &mut self,
        wait: Option<Duration>,
        pop: fn(&mut VecDeque<Done>) -> Option<T>,
    ) -> Option<T> {
        if self.in_flight == 0 {
            return None;
        }
        if self.ready.is_empty() {
            let flushed = match wait {
                Some(timeout) => self.results_rx.recv_timeout(timeout).ok()?,
                None => self.results_rx.try_recv().ok()?,
            };
            self.ready.extend(flushed);
        }
        let item = pop(&mut self.ready)?;
        self.in_flight -= 1;
        Some(item)
    }

    /// Collects every in-flight session's outcome, blocking until all
    /// submitted sessions have finished. A session whose endpoints all block
    /// is detected as stalled by its shard and closed, so every *bounded*
    /// session finishes; a session of a looping protocol submitted without
    /// [`SessionSpec::with_max_steps`] never does, and `drain` will wait on
    /// it indefinitely — bound such sessions or stop them with
    /// [`SessionServer::shutdown`].
    ///
    /// If a shard worker dies (a panic inside session code), its assigned
    /// sessions can never report: once a quiet period passes with some
    /// worker thread gone, the missing outcomes are written off, the
    /// outcomes received so far are returned, and the server turns
    /// *degraded* — further [`SessionServer::submit`]s are refused, since
    /// outcomes could no longer be attributed to submissions reliably.
    /// Callers can detect the loss by comparing the returned length against
    /// their submission count.
    pub fn drain(&mut self) -> Vec<SessionOutcome> {
        let mut outcomes = Vec::with_capacity(self.in_flight);
        while self.in_flight > 0 {
            match self.next_outcome(Duration::from_secs(10)) {
                Some(outcome) => outcomes.push(outcome),
                None if self.shards.iter().any(|s| s.handle.is_finished()) => {
                    // A dead worker never reports again; leaving `in_flight`
                    // nonzero would make every later collect wait for
                    // outcomes that cannot come.
                    self.in_flight = 0;
                    self.degraded = true;
                    break;
                }
                // All workers alive: a long-running session, keep waiting.
                None => {}
            }
        }
        outcomes
    }

    /// Snapshots the per-shard metrics and the merged observability
    /// figures.
    pub fn report(&self) -> ServerReport {
        let mut obs = ObsReport::default();
        for shard_obs in &self.obs {
            shard_obs.merge_into(&mut obs);
        }
        ServerReport {
            shards: self
                .metrics
                .iter()
                .enumerate()
                .map(|(i, m)| m.snapshot(i))
                .collect(),
            obs,
        }
    }

    /// The retained [`Incident`]s across all shards (each one a replayable
    /// counterexample for one monitor violation), oldest first per shard.
    pub fn incidents(&self) -> Vec<Incident> {
        self.obs
            .iter()
            .flat_map(|o| o.incidents.snapshot())
            .collect()
    }

    /// The retained flight-recorder events across all shards, oldest first
    /// per shard.
    pub fn flight_events(&self) -> Vec<FlightEvent> {
        self.obs
            .iter()
            .flat_map(|o| o.recorder.snapshot())
            .collect()
    }

    /// Evacuates every session queued on one shard: each is checkpointed
    /// (per-role pc, value slots, monitor cursor, in-flight frames), encoded
    /// through the wire codec, and returned as a [`MigratedSession`] ready
    /// for [`SessionServer::migrate_session`]. Sessions a checkpoint cannot
    /// carry (tree-walking endpoints) are closed as stalled and report
    /// through the normal outcome stream instead.
    ///
    /// # Errors
    ///
    /// Fails if the shard index is out of range or the worker is gone.
    pub fn drain_shard(&mut self, shard: usize) -> Result<Vec<MigratedSession>> {
        if shard >= self.shards.len() {
            return Err(ServerError::Unsupported {
                reason: format!("shard index {shard} out of range (server has {})", self.shards.len()),
            });
        }
        let (reply_tx, reply_rx) = unbounded();
        self.shards[shard]
            .tx
            .send(ShardMsg::Drain { reply: reply_tx })
            .map_err(|_| ServerError::Shutdown)?;
        let migrated = reply_rx.recv().map_err(|_| ServerError::Shutdown)?;
        // Evacuated sessions will not report outcomes until re-admitted.
        self.in_flight = self.in_flight.saturating_sub(migrated.len());
        Ok(migrated)
    }

    /// Re-admits an evacuated session on the given shard. The checkpoint is
    /// decoded and re-certified against the protocol's compiled tables
    /// *before* the shard sees it: a corrupted or tampered checkpoint is
    /// refused here with the runtime's structured recovery error, and the
    /// target shard never hosts unvalidated state.
    ///
    /// # Errors
    ///
    /// Fails on a bad shard index, an unregistered protocol, a server
    /// already degraded or shut down, or a checkpoint that does not decode
    /// and re-validate ([`ServerError::Runtime`]).
    pub fn migrate_session(&mut self, migrated: MigratedSession, to_shard: usize) -> Result<SessionId> {
        if self.degraded {
            return Err(ServerError::Shutdown);
        }
        if to_shard >= self.shards.len() {
            return Err(ServerError::Unsupported {
                reason: format!(
                    "shard index {to_shard} out of range (server has {})",
                    self.shards.len()
                ),
            });
        }
        let artifacts = self
            .registry
            .get(migrated.protocol)
            .ok_or(ServerError::UnknownProtocol)?;
        let checkpoint = SessionCheckpoint::decode(&migrated.bytes)?;
        if checkpoint.token() != migrated.id.0 {
            return Err(zooid_runtime::RuntimeError::Recovery {
                reason: format!(
                    "checkpoint token {} does not match migrated session id {}",
                    checkpoint.token(),
                    migrated.id.0
                ),
            }
            .into());
        }
        let demoted = checkpoint.into_demoted(&migrated.programs, artifacts.compiled())?;
        self.shards[to_shard]
            .tx
            .send(ShardMsg::Restore {
                id: migrated.id,
                protocol: migrated.protocol,
                demoted,
                artifacts: Arc::clone(artifacts),
            })
            .map_err(|_| ServerError::Shutdown)?;
        self.in_flight += 1;
        Ok(migrated.id)
    }

    /// Stops the worker pool and returns the final metrics. Sessions still
    /// running or queued are closed as stalled (so `shutdown` returns even
    /// when an unbounded session would loop forever); outcomes not collected
    /// with [`SessionServer::drain`] beforehand are discarded.
    pub fn shutdown(mut self) -> ServerReport {
        for shard in &self.shards {
            let _ = shard.tx.send(ShardMsg::Shutdown);
        }
        for shard in self.shards.drain(..) {
            let _ = shard.handle.join();
        }
        self.report()
    }
}

/// Deterministic shard assignment by hashed session id.
fn shard_of(id: SessionId, shards: usize) -> usize {
    let mut hasher = FxHasher::default();
    hasher.write_u64(id.0);
    (hasher.finish() as usize) % shards.max(1)
}

/// Maximum sessions one [`SessionBatch`] holds before the next eligible
/// session opens a new batch.
const BATCH_CAPACITY: usize = 512;
/// Tag bit distinguishing batch indices from slab slots in the run queue.
const BATCH_BIT: u32 = 1 << 31;
/// Cap on the number of distinct batches a shard keeps alive; eligible
/// sessions beyond it fall back to the slab.
const MAX_BATCHES: usize = 64;

/// One columnar batch hosted by a shard, plus the key that decides which
/// sessions may coalesce into it: same protocol, same compiled per-role
/// programs (the layout is cached per program set, so pointer equality is
/// the comparison) and same execution options.
struct ShardBatch {
    protocol: ProtocolId,
    artifacts: Arc<ProtocolArtifacts>,
    layout: Arc<BatchLayout>,
    max_steps: Option<usize>,
    record: bool,
    batch: SessionBatch,
    /// Whether the batch currently has an entry in the run queue (batches
    /// are queued once, not once per member session).
    queued: bool,
}

/// Worker-local observability state: the shard's shared [`ShardObs`] plus
/// the maps only the owning worker touches — admission timestamps for
/// session wall time, the compiled system per protocol for incident
/// capture, and cached per-protocol histogram handles (so the steady path
/// never takes the `ShardObs` per-protocol lock).
struct WorkerObs {
    shared: Arc<ShardObs>,
    admitted: FxHashMap<u64, Instant>,
    systems: FxHashMap<ProtocolId, Arc<CompiledSystem>>,
    proto_wall: FxHashMap<ProtocolId, Arc<Histogram>>,
}

impl WorkerObs {
    fn new(shared: Arc<ShardObs>) -> Self {
        WorkerObs {
            shared,
            admitted: FxHashMap::default(),
            systems: FxHashMap::default(),
            proto_wall: FxHashMap::default(),
        }
    }

    /// Stamps a session's admission: wall-clock start, the compiled system
    /// to replay its incidents against, and the flight-recorder event. The
    /// caller supplies the stamp so one clock read covers a whole admission
    /// sweep.
    fn on_admit(
        &mut self,
        id: SessionId,
        protocol: ProtocolId,
        artifacts: &ProtocolArtifacts,
        batched: bool,
        at: Instant,
    ) {
        self.admitted.insert(id.0, at);
        self.systems
            .entry(protocol)
            .or_insert_with(|| Arc::clone(artifacts.compiled()));
        self.shared.recorder.record(FlightEvent::Admitted {
            session: id.0,
            batched,
        });
    }

    /// Folds a finished session into the wall-time histograms and, when it
    /// stalled, the flight recorder. The caller supplies `now` so one clock
    /// read covers every outcome of a quantum.
    fn on_finished(&mut self, id: SessionId, protocol: ProtocolId, stalled: bool, now: Instant) {
        if let Some(start) = self.admitted.remove(&id.0) {
            let ns =
                u64::try_from(now.saturating_duration_since(start).as_nanos()).unwrap_or(u64::MAX);
            self.shared.session_wall.record(ns);
            let hist = match self.proto_wall.get(&protocol) {
                Some(h) => Arc::clone(h),
                None => {
                    let h = self.shared.protocol_wall(protocol);
                    self.proto_wall.insert(protocol, Arc::clone(&h));
                    h
                }
            };
            hist.record(ns);
        }
        if stalled {
            self.shared.recorder.record(FlightEvent::Stalled { session: id.0 });
        }
    }

    /// [`WorkerObs::on_finished`] plus, when the session's monitor rejected
    /// anything, the flight recorder's violation event and the incident
    /// store.
    fn on_outcome(&mut self, outcome: &SessionOutcome, now: Instant) {
        self.on_finished(outcome.id, outcome.protocol, outcome.stalled, now);
        if !outcome.violations.is_empty() {
            self.shared.recorder.record(FlightEvent::Violation {
                session: outcome.id.0,
            });
            if let Some(system) = self.systems.get(&outcome.protocol) {
                for violation in &outcome.violations {
                    self.shared.incidents.record(Incident::capture(
                        outcome.protocol,
                        outcome.id,
                        system,
                        violation,
                        &outcome.global_trace,
                        INCIDENT_PREFIX_CAP,
                    ));
                }
            }
        }
    }

    /// Records one quantum's per-action cost (elapsed time amortised over
    /// the actions it performed). Quantum granularity keeps the recorder
    /// off the stepping loop: two clock reads per quantum, not per action.
    fn on_quantum(&self, elapsed: Duration, actions: usize) {
        if actions > 0 {
            let ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX) / actions as u64;
            self.shared.action_cost.record(ns);
        }
    }
}

/// Places a validated session on its shard: into a matching columnar batch
/// when the spec's endpoints compile to a batch-eligible layout, into the
/// per-session slab otherwise.
#[allow(clippy::too_many_arguments)]
fn admit_session(
    id: SessionId,
    spec: SessionSpec,
    artifacts: Arc<ProtocolArtifacts>,
    slab: &mut Vec<Option<ActiveSession>>,
    free: &mut Vec<u32>,
    run_queue: &mut VecDeque<u32>,
    batches: &mut Vec<ShardBatch>,
    metrics: &ShardMetrics,
    wobs: &mut WorkerObs,
    at: Instant,
) {
    if let Some(layout) = artifacts.batch_layout(&spec.endpoints) {
        let max_steps = spec.options.max_steps;
        let record = spec.options.record_actions;
        let existing = batches.iter().position(|b| {
            b.protocol == spec.protocol
                && Arc::ptr_eq(&b.layout, &layout)
                && b.max_steps == max_steps
                && b.record == record
                && !b.batch.is_full()
        });
        let bi = match existing {
            Some(bi) => Some(bi),
            None if batches.len() < MAX_BATCHES => {
                let batch =
                    SessionBatch::new(Arc::clone(&layout), spec.options.clone(), BATCH_CAPACITY);
                batches.push(ShardBatch {
                    protocol: spec.protocol,
                    artifacts: Arc::clone(&artifacts),
                    layout,
                    max_steps,
                    record,
                    batch,
                    queued: false,
                });
                Some(batches.len() - 1)
            }
            None => None,
        };
        if let Some(bi) = bi {
            let sb = &mut batches[bi];
            let admitted = sb.batch.admit(id.0);
            debug_assert!(admitted, "batch was checked for room");
            metrics.sessions_batched.fetch_add(1, Ordering::Relaxed);
            wobs.on_admit(id, spec.protocol, &artifacts, true, at);
            if !sb.queued {
                sb.queued = true;
                run_queue.push_back(BATCH_BIT | u32::try_from(bi).expect("batch index fits"));
            }
            return;
        }
    }
    // The spec was validated at submission; construction is the shard's
    // job so N shards build N sessions concurrently.
    metrics.sessions_slab.fetch_add(1, Ordering::Relaxed);
    wobs.on_admit(id, spec.protocol, &artifacts, false, at);
    let session = ActiveSession::new(id, spec, &artifacts).expect("spec validated at submission");
    let slot = slab_admit(slab, free, session);
    run_queue.push_back(slot);
}

/// Stores a session in a free slab slot (growing the slab if none is free)
/// and returns the slot index.
fn slab_admit(
    slab: &mut Vec<Option<ActiveSession>>,
    free: &mut Vec<u32>,
    session: ActiveSession,
) -> u32 {
    let slot = match free.pop() {
        Some(slot) => slot,
        None => {
            slab.push(None);
            u32::try_from(slab.len() - 1).expect("slab overflow")
        }
    };
    debug_assert!(slot & BATCH_BIT == 0, "slab slot collides with batch tag");
    slab[slot as usize] = Some(session);
    slot
}

/// Finished work on its way from a shard to the consumer.
#[derive(Debug)]
enum Done {
    /// A session whose outcome the shard built: it ended on the slab, was
    /// quarantined, or was closed outside a batch.
    Outcome(SessionOutcome),
    /// Sessions of one protocol that concluded inside a columnar batch, as
    /// the batch's compact block: the consumer rebuilds each outcome (or
    /// reads only its summary).
    Batch(ProtocolId, BlockOutcomes),
}

/// Takes the next finished session's outcome off the front of `ready`,
/// rebuilding it from its batch's log when it comes from one.
fn pop_outcome(ready: &mut VecDeque<Done>) -> Option<SessionOutcome> {
    match ready.front_mut()? {
        Done::Outcome(_) => match ready.pop_front() {
            Some(Done::Outcome(outcome)) => Some(outcome),
            _ => unreachable!("the front is an outcome"),
        },
        Done::Batch(protocol, outcomes) => {
            let protocol = *protocol;
            let outcome = outcomes.next().expect("shards flush no empty blocks");
            if outcomes.len() == 0 {
                ready.pop_front();
            }
            Some(batch_session_outcome(protocol, outcome))
        }
    }
}

/// The summary of the next finished session in `ready`.
fn front_summary(ready: &VecDeque<Done>) -> Option<OutcomeSummary> {
    match ready.front()? {
        Done::Outcome(outcome) => Some(outcome.summary()),
        Done::Batch(_, outcomes) => outcomes.peek().map(batch_summary),
    }
}

/// Takes the next finished session's summary off the front of `ready`; a
/// batched session's traces are dropped unbuilt.
fn pop_summary(ready: &mut VecDeque<Done>) -> Option<OutcomeSummary> {
    let summary = front_summary(ready)?;
    if let Some(Done::Batch(_, outcomes)) = ready.front_mut() {
        outcomes.skip_one();
        if outcomes.len() > 0 {
            return Some(summary);
        }
    }
    ready.pop_front();
    Some(summary)
}

/// The summary of a batch-finished session, as its rebuilt
/// [`SessionOutcome::summary`] would read.
fn batch_summary(session: &FinishedSession) -> OutcomeSummary {
    OutcomeSummary {
        id: SessionId(session.token),
        compliant: session.compliant,
        complete: session.complete,
        stalled: session.stalled,
        quarantined: false,
        violations: session.violations,
        actions: session.actions,
    }
}

/// Converts a batch-finished session into the server's [`SessionOutcome`].
fn batch_session_outcome(protocol: ProtocolId, outcome: BatchOutcome) -> SessionOutcome {
    SessionOutcome {
        id: SessionId(outcome.token),
        protocol,
        endpoints: outcome
            .endpoints
            .into_iter()
            .map(|report| (report.role.clone(), report))
            .collect(),
        global_trace: outcome.global_trace,
        compliant: outcome.compliant,
        complete: outcome.complete,
        violations: outcome.violations,
        stalled: outcome.stalled,
        quarantined: false,
    }
}

/// Per-session restart bookkeeping under
/// [`QuarantinePolicy::RestartFromCheckpoint`].
#[derive(Default)]
struct RestartState {
    /// The last certified checkpoint: its wire encoding plus the compiled
    /// programs its dense indices refer to (in checkpoint endpoint order).
    /// `None` until the session's first compliant reschedule.
    bytes: Option<(Vec<u8>, Vec<Arc<EndpointProgram>>)>,
    /// Restarts already burned.
    retries: u32,
}

/// Decides whether a quarantined session gets another run, and builds the
/// state it restarts from: the stored last-certified checkpoint when there
/// is one (decoded and re-certified — a checkpoint that fails validation
/// forfeits the restart), else `fallback`'s fresh initial state. Returns
/// `None` when the policy grants no (further) restart.
fn try_restart(
    quarantine: &QuarantineConfig,
    restarts: &mut FxHashMap<u64, RestartState>,
    token: u64,
    fallback: Option<(&zooid_runtime::ExecOptions, &[Arc<EndpointProgram>])>,
    artifacts: &ProtocolArtifacts,
    metrics: &ShardMetrics,
    wobs: &mut WorkerObs,
) -> Option<DemotedSession> {
    let max_retries = quarantine.max_retries();
    if max_retries == 0 {
        return None;
    }
    let state = restarts.entry(token).or_default();
    if state.retries >= max_retries {
        return None;
    }
    let fresh = match &state.bytes {
        Some((bytes, programs)) => SessionCheckpoint::decode(bytes)
            .and_then(|c| c.into_demoted(programs, artifacts.compiled()))
            .ok()?,
        None => {
            let (options, programs) = fallback?;
            let fresh = initial_demoted(token, options.clone(), programs, artifacts.compiled());
            // The initial state becomes the stored restart point, so a
            // session that violates again before its first certified
            // snapshot still gets its remaining retries.
            state.bytes = Some((
                SessionCheckpoint::from_demoted(&fresh).encode().to_vec(),
                programs.to_vec(),
            ));
            fresh
        }
    };
    state.retries += 1;
    metrics.sessions_restarted.fetch_add(1, Ordering::Relaxed);
    wobs.shared.recorder.record(FlightEvent::Restarted {
        session: token,
        retry: state.retries.min(255) as u8,
    });
    Some(fresh)
}

/// Stores a session's freshly taken checkpoint as its restart point. Only
/// called for compliant sessions under `RestartFromCheckpoint`.
fn store_checkpoint(
    restarts: &mut FxHashMap<u64, RestartState>,
    token: u64,
    demoted: &DemotedSession,
) {
    let bytes = SessionCheckpoint::from_demoted(demoted).encode().to_vec();
    let programs = demoted
        .endpoints
        .iter()
        .map(|e| Arc::clone(&e.program))
        .collect();
    restarts.entry(token).or_default().bytes = Some((bytes, programs));
}

/// Evacuates every session in the run queue as an encoded checkpoint:
/// batch members are demoted in place and serialized, slab sessions are
/// checkpointed live (non-destructively, then dropped). Sessions a
/// checkpoint cannot carry — tree-walking endpoints — close as stalled and
/// report through the ordinary outcome stream.
#[allow(clippy::too_many_arguments)]
fn drain_for_migration(
    run_queue: &mut VecDeque<u32>,
    batches: &mut [ShardBatch],
    slab: &mut [Option<ActiveSession>],
    free: &mut Vec<u32>,
    restarts: &mut FxHashMap<u64, RestartState>,
    metrics: &ShardMetrics,
    wobs: &mut WorkerObs,
    pending: &mut Outbox,
) -> Vec<MigratedSession> {
    let now = Instant::now();
    let mut migrated = Vec::new();
    let push = |migrated: &mut Vec<MigratedSession>,
                    restarts: &mut FxHashMap<u64, RestartState>,
                    wobs: &mut WorkerObs,
                    protocol: ProtocolId,
                    demoted: &DemotedSession| {
        restarts.remove(&demoted.token);
        wobs.admitted.remove(&demoted.token);
        migrated.push(MigratedSession {
            id: SessionId(demoted.token),
            protocol,
            bytes: SessionCheckpoint::from_demoted(demoted).encode().to_vec(),
            programs: demoted
                .endpoints
                .iter()
                .map(|e| Arc::clone(&e.program))
                .collect(),
        });
    };
    for entry in run_queue.drain(..) {
        if entry & BATCH_BIT != 0 {
            let sb = &mut batches[(entry & !BATCH_BIT) as usize];
            sb.queued = false;
            let protocol = sb.protocol;
            for demoted in sb.batch.demote_all() {
                push(&mut migrated, restarts, wobs, protocol, &demoted);
            }
        } else {
            let mut session = slab[entry as usize].take().expect("queued slot is occupied");
            free.push(entry);
            match session.checkpoint() {
                Ok(demoted) => push(&mut migrated, restarts, wobs, session.protocol(), &demoted),
                // Tree-walking endpoints have no checkpoint form: close the
                // session as stalled instead of migrating it.
                Err(_) => record_outcome(metrics, wobs, pending, session.close_stalled(), now),
            }
        }
    }
    migrated
}

/// One worker shard: drains its inbox, steps the front of its run queue for
/// one quantum, re-queues or finishes the work item, repeats. On shutdown
/// the sessions still in the run queue are closed as stalled — a session of
/// an unbounded looping protocol would otherwise keep the worker (and the
/// server's `shutdown` join) alive forever.
///
/// A run-queue entry is either a **slab slot** (one heterogeneous or
/// demoted session, stepped by [`ActiveSession::run_quantum`]) or, tagged
/// with [`BATCH_BIT`], a **batch index**: up to [`BATCH_CAPACITY`]
/// homogeneous sessions of one protocol stepped together in `(role, pc)`
/// cohorts over columnar state by [`SessionBatch::run_quantum`]. A batch is
/// one queue entry however many sessions it holds; its quantum budget
/// scales with its live population so batched sessions get the same action
/// budget per pass through the queue as slab sessions do. Sessions the
/// batch cannot carry further (stall, violation, runtime sort mismatch)
/// are demoted: rebuilt as slab sessions mid-flight with their traces,
/// monitor cursor and in-flight frames intact.
///
/// Slab sessions live in a flat `Vec` of slots with a free list, so the run
/// queue is a deque of `u32` indices instead of boxed sessions shuffling
/// through it, a finished session's slot (and the deque capacity) is reused
/// by the next submission, and a quantum touches the session in place — the
/// steady state of a loaded shard allocates nothing per reschedule.
fn shard_worker(
    rx: Receiver<ShardMsg>,
    results: Sender<Vec<Done>>,
    metrics: Arc<ShardMetrics>,
    obs: Arc<ShardObs>,
    quantum: usize,
    quarantine: QuarantineConfig,
) {
    let mut wobs = WorkerObs::new(obs);
    let mut slab: Vec<Option<ActiveSession>> = Vec::new();
    let mut free: Vec<u32> = Vec::new();
    let mut batches: Vec<ShardBatch> = Vec::new();
    let mut run_queue: VecDeque<u32> = VecDeque::new();
    // Restart bookkeeping for `RestartFromCheckpoint`: per session, the
    // last certified checkpoint (encoded) with the programs its indices
    // refer to, and how many restarts it has burned. Empty under any other
    // policy (`try_restart` bails before touching it).
    let mut restarts: FxHashMap<u64, RestartState> = FxHashMap::default();
    // Protocol artifacts seen by this shard, for rebuilding restarted slab
    // sessions whose outcome no longer carries an artifacts handle.
    let mut artifacts_by_protocol: FxHashMap<ProtocolId, Arc<ProtocolArtifacts>> =
        FxHashMap::default();
    // Finished sessions are reported in batches: one channel operation per
    // FLUSH_AT outcomes while the shard is loaded, with a freshness bound
    // (FLUSH_EVERY_ITERS main-loop iterations) so outcomes of short
    // sessions are never parked behind a long-running neighbour.
    const FLUSH_AT: usize = 64;
    const FLUSH_EVERY_ITERS: usize = 16;
    let mut pending = Outbox::default();
    let mut iters_since_flush = 0usize;
    loop {
        // Pull new sessions without blocking while there is work. One clock
        // read stamps the whole sweep's admissions.
        let mut shutting_down = false;
        let mut sweep_stamp: Option<Instant> = None;
        loop {
            match rx.try_recv() {
                Ok(ShardMsg::Run {
                    id,
                    spec,
                    artifacts,
                }) => {
                    artifacts_by_protocol
                        .entry(spec.protocol)
                        .or_insert_with(|| Arc::clone(&artifacts));
                    admit_session(
                        id,
                        spec,
                        artifacts,
                        &mut slab,
                        &mut free,
                        &mut run_queue,
                        &mut batches,
                        &metrics,
                        &mut wobs,
                        *sweep_stamp.get_or_insert_with(Instant::now),
                    );
                }
                Ok(ShardMsg::Drain { reply }) => {
                    let migrated = drain_for_migration(
                        &mut run_queue,
                        &mut batches,
                        &mut slab,
                        &mut free,
                        &mut restarts,
                        &metrics,
                        &mut wobs,
                        &mut pending,
                    );
                    let _ = reply.send(migrated);
                }
                Ok(ShardMsg::Restore {
                    id,
                    protocol,
                    demoted,
                    artifacts,
                }) => {
                    metrics.sessions_slab.fetch_add(1, Ordering::Relaxed);
                    wobs.on_admit(
                        id,
                        protocol,
                        &artifacts,
                        false,
                        *sweep_stamp.get_or_insert_with(Instant::now),
                    );
                    artifacts_by_protocol
                        .entry(protocol)
                        .or_insert_with(|| Arc::clone(&artifacts));
                    if quarantine.max_retries() > 0 && demoted.monitor.is_compliant() {
                        store_checkpoint(&mut restarts, id.0, &demoted);
                    }
                    let session = ActiveSession::from_demoted(id, protocol, demoted, &artifacts);
                    let slot = slab_admit(&mut slab, &mut free, session);
                    run_queue.push_back(slot);
                }
                Ok(ShardMsg::Shutdown) => shutting_down = true,
                Err(_) => break,
            }
        }
        if shutting_down {
            let now = Instant::now();
            for entry in run_queue.drain(..) {
                if entry & BATCH_BIT != 0 {
                    let sb = &mut batches[(entry & !BATCH_BIT) as usize];
                    sb.queued = false;
                    let block = sb.batch.close_all();
                    record_block(&metrics, &mut wobs, &mut pending, sb.protocol, block, now);
                } else {
                    let session = slab[entry as usize].take().expect("queued slot is occupied");
                    record_outcome(&metrics, &mut wobs, &mut pending, session.close_stalled(), now);
                }
            }
            // A send failure means the server is gone too: nothing left to
            // report to.
            let _ = pending.flush(&results);
            return;
        }
        metrics.record_queue_depth(run_queue.len());
        iters_since_flush += 1;
        if pending.sessions > 0
            && (run_queue.is_empty()
                || pending.sessions >= FLUSH_AT
                || iters_since_flush >= FLUSH_EVERY_ITERS)
        {
            iters_since_flush = 0;
            if pending.flush(&results).is_err() {
                // The server (and with it every submitter) is gone.
                return;
            }
        }
        let Some(entry) = run_queue.pop_front() else {
            // Idle: park on the inbox. Shutdown arrives as a message on this
            // same channel (and a dropped server disconnects it), so a
            // blocking receive cannot miss it and the worker burns no wakeups.
            match rx.recv() {
                Ok(ShardMsg::Run {
                    id,
                    spec,
                    artifacts,
                }) => {
                    artifacts_by_protocol
                        .entry(spec.protocol)
                        .or_insert_with(|| Arc::clone(&artifacts));
                    admit_session(
                        id,
                        spec,
                        artifacts,
                        &mut slab,
                        &mut free,
                        &mut run_queue,
                        &mut batches,
                        &metrics,
                        &mut wobs,
                        Instant::now(),
                    );
                }
                // The queue is empty: a drain carries nothing away.
                Ok(ShardMsg::Drain { reply }) => {
                    let _ = reply.send(Vec::new());
                }
                Ok(ShardMsg::Restore {
                    id,
                    protocol,
                    demoted,
                    artifacts,
                }) => {
                    metrics.sessions_slab.fetch_add(1, Ordering::Relaxed);
                    wobs.on_admit(id, protocol, &artifacts, false, Instant::now());
                    artifacts_by_protocol
                        .entry(protocol)
                        .or_insert_with(|| Arc::clone(&artifacts));
                    if quarantine.max_retries() > 0 && demoted.monitor.is_compliant() {
                        store_checkpoint(&mut restarts, id.0, &demoted);
                    }
                    let session = ActiveSession::from_demoted(id, protocol, demoted, &artifacts);
                    let slot = slab_admit(&mut slab, &mut free, session);
                    run_queue.push_back(slot);
                }
                Ok(ShardMsg::Shutdown) => {
                    // The queue is empty: nothing to close.
                    return;
                }
                Err(_) => return,
            }
            continue;
        };
        if entry & BATCH_BIT != 0 {
            let bi = (entry & !BATCH_BIT) as usize;
            let sb = &mut batches[bi];
            // The batch is one queue entry standing for its whole live
            // population, so it gets the quantum each member would have
            // gotten on the slab.
            let budget = quantum.saturating_mul(sb.batch.live_count().max(1));
            let started = Instant::now();
            let result = sb.batch.run_quantum(budget);
            let ended = Instant::now();
            wobs.on_quantum(ended.saturating_duration_since(started), result.actions);
            metrics.quanta.fetch_add(1, Ordering::Relaxed);
            metrics
                .actions_executed
                .fetch_add(result.actions as u64, Ordering::Relaxed);
            metrics
                .messages_routed
                .fetch_add(result.sends as u64, Ordering::Relaxed);
            metrics
                .batch_cohorts
                .fetch_add(result.cohorts as u64, Ordering::Relaxed);
            metrics
                .batch_cohort_sessions
                .fetch_add(result.cohort_sessions as u64, Ordering::Relaxed);
            for (bucket, &n) in result.cohort_widths.iter().enumerate() {
                wobs.shared.cohort_width.add_count(bucket, n);
            }
            let protocol = sb.protocol;
            let artifacts = Arc::clone(&sb.artifacts);
            record_block(&metrics, &mut wobs, &mut pending, protocol, result.finished, ended);
            for demoted in result.demoted {
                metrics.sessions_demoted.fetch_add(1, Ordering::Relaxed);
                wobs.shared.recorder.record(FlightEvent::BatchDemoted {
                    session: demoted.token,
                });
                let token = demoted.token;
                let violations = demoted.monitor.violations().len();
                // Quarantine on the batch path: a session demoted with its
                // violation budget spent is not re-admitted to the slab —
                // it either restarts from its last certified checkpoint
                // (policy permitting) or closes having taken zero further
                // steps.
                let over = quarantine
                    .threshold_for(protocol)
                    .is_some_and(|n| violations >= n as usize);
                if over {
                    let programs: Vec<Arc<EndpointProgram>> = demoted
                        .endpoints
                        .iter()
                        .map(|e| Arc::clone(&e.program))
                        .collect();
                    if let Some(fresh) = try_restart(
                        &quarantine,
                        &mut restarts,
                        token,
                        Some((&demoted.options, &programs)),
                        &artifacts,
                        &metrics,
                        &mut wobs,
                    ) {
                        let session =
                            ActiveSession::from_demoted(SessionId(token), protocol, fresh, &artifacts);
                        let slot = slab_admit(&mut slab, &mut free, session);
                        run_queue.push_back(slot);
                    } else {
                        restarts.remove(&token);
                        let session = ActiveSession::from_demoted(
                            SessionId(token),
                            protocol,
                            demoted,
                            &artifacts,
                        );
                        record_outcome(
                            &metrics,
                            &mut wobs,
                            &mut pending,
                            session.close_quarantined(),
                            ended,
                        );
                    }
                    continue;
                }
                // Checkpoint-on-demote: a compliant session crossing from
                // the batch plane to the slab is a natural restart point.
                if quarantine.max_retries() > 0 && demoted.monitor.is_compliant() {
                    store_checkpoint(&mut restarts, token, &demoted);
                }
                let session =
                    ActiveSession::from_demoted(SessionId(token), protocol, demoted, &artifacts);
                let slot = slab_admit(&mut slab, &mut free, session);
                run_queue.push_back(slot);
            }
            let sb = &mut batches[bi];
            if sb.batch.is_empty() {
                sb.queued = false;
            } else {
                run_queue.push_back(entry);
            }
            continue;
        }
        let session = slab[entry as usize]
            .as_mut()
            .expect("queued slot is occupied");
        let threshold = quarantine.threshold_for(session.protocol());
        let started = Instant::now();
        let result = session.run_quantum(quantum, threshold);
        let ended = Instant::now();
        wobs.on_quantum(ended.saturating_duration_since(started), result.actions);
        metrics.quanta.fetch_add(1, Ordering::Relaxed);
        metrics
            .actions_executed
            .fetch_add(result.actions as u64, Ordering::Relaxed);
        metrics
            .messages_routed
            .fetch_add(result.sends as u64, Ordering::Relaxed);
        match result.outcome {
            Some(outcome) => {
                if outcome.quarantined {
                    // A restart re-uses the session's slab slot; only when
                    // the policy grants none does the outcome report out.
                    let restarted = artifacts_by_protocol
                        .get(&outcome.protocol)
                        .map(Arc::clone)
                        .and_then(|artifacts| {
                            let fresh = try_restart(
                                &quarantine,
                                &mut restarts,
                                outcome.id.0,
                                None,
                                &artifacts,
                                &metrics,
                                &mut wobs,
                            )?;
                            Some(ActiveSession::from_demoted(
                                outcome.id,
                                outcome.protocol,
                                fresh,
                                &artifacts,
                            ))
                        });
                    if let Some(session) = restarted {
                        slab[entry as usize] = Some(session);
                        run_queue.push_back(entry);
                        continue;
                    }
                }
                restarts.remove(&outcome.id.0);
                slab[entry as usize] = None;
                free.push(entry);
                record_outcome(&metrics, &mut wobs, &mut pending, outcome, ended);
            }
            None => {
                // Group commit of the restart point: once per reschedule,
                // not per action — and only while the monitor still
                // certifies the state being saved.
                if quarantine.max_retries() > 0 && !session.is_violating() {
                    let token = session.id().0;
                    if let Ok(demoted) = session.checkpoint() {
                        store_checkpoint(&mut restarts, token, &demoted);
                    }
                }
                run_queue.push_back(entry);
            }
        }
    }
}

/// Counts a finished session's conclusion in the shard metrics.
fn count_finished(metrics: &ShardMetrics, stalled: bool, compliant: bool) {
    if stalled {
        metrics.sessions_stalled.fetch_add(1, Ordering::Relaxed);
    } else {
        metrics.sessions_completed.fetch_add(1, Ordering::Relaxed);
    }
    if !compliant {
        metrics.sessions_violated.fetch_add(1, Ordering::Relaxed);
    }
}

/// Counts a finished session in the shard metrics, folds it into the
/// observability plane (wall time, flight events, incident capture) and
/// buffers its outcome for the next batched flush. Every execution path
/// funnels through here or through [`record_block`]: slab,
/// demoted-then-slab, quarantine and shutdown close here, sessions
/// concluded inside a batch there.
fn record_outcome(
    metrics: &ShardMetrics,
    wobs: &mut WorkerObs,
    pending: &mut Outbox,
    outcome: SessionOutcome,
    now: Instant,
) {
    count_finished(metrics, outcome.stalled, outcome.compliant);
    if outcome.quarantined {
        metrics.sessions_quarantined.fetch_add(1, Ordering::Relaxed);
        wobs.shared.recorder.record(FlightEvent::Quarantined {
            session: outcome.id.0,
        });
        wobs.shared.quarantined_for(outcome.protocol);
    }
    wobs.on_outcome(&outcome, now);
    pending.done.push(Done::Outcome(outcome));
    pending.sessions += 1;
}

/// [`record_outcome`] for the sessions a batch concluded: each is counted
/// and folded into the wall-time histograms and flight recorder from its
/// summary, and the block itself is buffered, so the traces are rebuilt by
/// the consumer, not here. A session concludes inside a batch only while
/// compliant — a rejected action demotes it at the end of its pass — so a
/// block never needs incident capture.
fn record_block(
    metrics: &ShardMetrics,
    wobs: &mut WorkerObs,
    pending: &mut Outbox,
    protocol: ProtocolId,
    block: OutcomeBlock,
    now: Instant,
) {
    if block.is_empty() {
        return;
    }
    for session in &block {
        debug_assert!(session.compliant, "violators demote out of the batch");
        count_finished(metrics, session.stalled, session.compliant);
        wobs.on_finished(SessionId(session.token), protocol, session.stalled, now);
    }
    pending.sessions += block.len();
    pending.done.push(Done::Batch(protocol, block.into_iter()));
}

/// A shard's finished work awaiting the next flush, in completion order,
/// with the number of sessions it holds.
#[derive(Default)]
struct Outbox {
    done: Vec<Done>,
    sessions: usize,
}

impl Outbox {
    /// Sends the buffered work as one message. An error means the server
    /// side of the channel is gone.
    fn flush(&mut self, results: &Sender<Vec<Done>>) -> std::result::Result<(), ()> {
        if self.done.is_empty() {
            return Ok(());
        }
        self.sessions = 0;
        results.send(std::mem::take(&mut self.done)).map_err(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::skeleton_endpoints;
    use zooid_dsl::Protocol;
    use zooid_mpst::generators;
    use zooid_runtime::EndpointStatus;

    fn ring_registry() -> (ProtocolRegistry, ProtocolId) {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        (registry, id)
    }

    #[test]
    fn a_thousand_sessions_complete_on_two_shards() {
        let (registry, ring) = ring_registry();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
        for _ in 0..1_000 {
            server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 1_000);
        assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
        let report = server.shutdown();
        assert_eq!(report.sessions_started(), 1_000);
        assert_eq!(report.sessions_completed(), 1_000);
        assert_eq!(report.sessions_violated(), 0);
        assert_eq!(report.sessions_stalled(), 0);
        // The ring exchanges 3 messages per session.
        assert_eq!(report.messages_routed(), 3_000);
        assert_eq!(report.actions_executed(), 6_000);
        // Work is spread over both shards.
        assert!(report.shards.iter().all(|s| s.sessions_started > 0));
    }

    #[test]
    fn tiny_quanta_interleave_sessions_instead_of_running_them_to_death() {
        let (registry, ring) = ring_registry();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let config = ServerConfig {
            shards: 1,
            quantum: 1,
            ..ServerConfig::default()
        };
        let mut server = SessionServer::start(registry, config);
        for _ in 0..50 {
            server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 50);
        assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
        let report = server.shutdown();
        // The 50 homogeneous ring sessions coalesce into one columnar batch
        // (one run-queue entry), whose budget scales with its population:
        // quantum 1 × 50 live sessions. A ring session takes 6 actions, so
        // the batch needs several bounded quanta rather than one
        // run-to-death pass.
        assert_eq!(report.sessions_batched(), 50, "{report}");
        assert_eq!(report.sessions_slab(), 0, "{report}");
        assert!(report.shards[0].quanta >= 2, "{report}");
        // Cohort stepping amortises per-instruction work over the lockstep
        // population: cohorts span many sessions.
        assert!(report.mean_cohort_width() > 8.0, "{report}");
    }

    #[test]
    fn homogeneous_sessions_batch_and_agree_with_slab_accounting() {
        let (registry, ring) = ring_registry();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        for _ in 0..200 {
            server.submit(SessionSpec::new(ring, endpoints.clone())).unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 200);
        assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
        // Every session carries its full global trace out of the batch.
        assert!(outcomes.iter().all(|o| o.messages_exchanged() == 3));
        let report = server.shutdown();
        assert_eq!(report.sessions_batched(), 200, "{report}");
        assert_eq!(report.sessions_slab(), 0, "{report}");
        assert_eq!(report.sessions_demoted(), 0, "{report}");
        // Action accounting matches the slab's: 3 sends + 3 receives each.
        assert_eq!(report.messages_routed(), 600);
        assert_eq!(report.actions_executed(), 1_200);
        assert!(report.mean_cohort_width() > 1.0, "{report}");
    }

    #[test]
    fn blocked_batch_sessions_demote_to_slab_and_close_as_stalled() {
        // Pipeline with a step limit: the upstream endpoints hit their
        // limits inside the batch, the tail receiver then blocks forever,
        // and the batch's no-progress pass demotes the session to the slab,
        // which closes it as stalled — same verdicts the slab produces when
        // it runs the session from the start.
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        for _ in 0..8 {
            server
                .submit(SessionSpec::new(id, endpoints.clone()).with_max_steps(10))
                .unwrap();
        }
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 8);
        for outcome in &outcomes {
            assert!(outcome.compliant, "{:?}", outcome.violations);
            assert!(!outcome.complete);
            assert!(outcome
                .endpoints
                .values()
                .any(|r| r.status == EndpointStatus::StepLimitReached));
        }
        let report = server.shutdown();
        assert_eq!(report.sessions_batched(), 8, "{report}");
        assert_eq!(report.sessions_demoted(), 8, "{report}");
        assert_eq!(report.sessions_stalled(), 8, "{report}");
    }

    #[test]
    fn step_limited_recursive_sessions_finish_with_step_limit_status() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(2));
        server
            .submit(SessionSpec::new(id, endpoints).with_max_steps(10))
            .unwrap();
        let outcomes = server.drain();
        assert_eq!(outcomes.len(), 1);
        let outcome = &outcomes[0];
        assert!(outcome.compliant, "{:?}", outcome.violations);
        assert!(!outcome.complete);
        // Alice (the sender) certainly hits her limit; the others either hit
        // theirs or stall waiting for the eleventh message.
        assert!(outcome.endpoints.values().any(|r| r.status == EndpointStatus::StepLimitReached));
        server.shutdown();
    }

    #[test]
    fn shutdown_closes_unbounded_sessions_as_stalled_instead_of_hanging() {
        let mut registry = ProtocolRegistry::new();
        let id = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(id).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        // No step limit: the session loops forever and is re-queued after
        // every quantum. Shutdown must still return, closing it as stalled.
        server.submit(SessionSpec::new(id, endpoints)).unwrap();
        std::thread::sleep(Duration::from_millis(20));
        let report = server.shutdown();
        assert_eq!(report.sessions_started(), 1);
        assert_eq!(report.sessions_stalled(), 1, "{report}");
        assert_eq!(report.sessions_completed(), 0, "{report}");
        assert!(report.actions_executed() > 0, "the session did run");
    }

    #[test]
    fn bad_specs_are_rejected_at_submission() {
        let (registry, ring) = ring_registry();
        let endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        // Missing one endpoint.
        let missing = SessionSpec::new(ring, endpoints[..2].to_vec());
        assert!(matches!(
            server.submit(missing),
            Err(ServerError::MissingEndpoint { .. })
        ));
        // Duplicated endpoint.
        let mut doubled = endpoints.clone();
        doubled.push(endpoints[0].clone());
        assert!(matches!(
            server.submit(SessionSpec::new(ring, doubled)),
            Err(ServerError::UnexpectedEndpoint { .. })
        ));
        // Unknown protocol id.
        assert!(matches!(
            server.submit(SessionSpec::new(ProtocolId(99), endpoints)),
            Err(ServerError::UnknownProtocol)
        ));
        server.shutdown();
    }

    /// Takes the next `count` finished sessions straight off the results
    /// channel: for each, the summary the networked IO loop would read
    /// from the queued item, the outcome the caller-thread path rebuilds
    /// from the same item, and whether it came from a batch's block.
    fn summaries_and_outcomes(
        server: &mut SessionServer,
        count: usize,
    ) -> Vec<(OutcomeSummary, SessionOutcome, bool)> {
        let mut taken = Vec::with_capacity(count);
        while taken.len() < count {
            if server.ready.is_empty() {
                let flushed = server
                    .results_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("the shards report");
                server.ready.extend(flushed);
            }
            let from_block = matches!(server.ready.front(), Some(Done::Batch(..)));
            let summary = front_summary(&server.ready).expect("a session is ready");
            let outcome = pop_outcome(&mut server.ready).expect("a session is ready");
            taken.push((summary, outcome, from_block));
        }
        server.in_flight -= count;
        taken
    }

    fn assert_summaries_agree(taken: &[(OutcomeSummary, SessionOutcome, bool)]) {
        for (summary, outcome, _) in taken {
            assert_eq!(*summary, outcome.summary(), "{outcome:?}");
        }
    }

    #[test]
    fn summaries_agree_with_rebuilt_outcomes_on_finish_demotion_and_quarantine() {
        let mut registry = ProtocolRegistry::new();
        let ring = registry
            .register(Protocol::new("ring", generators::ring3()).unwrap())
            .unwrap();
        let pipeline = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let byz = registry
            .register(Protocol::new("byz_ring", generators::ring3()).unwrap())
            .unwrap();
        let lenient = registry
            .register(Protocol::new("lenient_ring", generators::ring3()).unwrap())
            .unwrap();
        let ring_endpoints = skeleton_endpoints(registry.get(ring).unwrap().protocol()).unwrap();
        let pipeline_endpoints =
            skeleton_endpoints(registry.get(pipeline).unwrap().protocol()).unwrap();
        let driver = |name: &str| {
            crate::synth::byzantine_driver(
                &Protocol::new(name, generators::ring3()).unwrap(),
                crate::synth::ByzantineMutation::WrongLabel,
            )
            .unwrap()
            .expect("wrong-label applies to the ring")
        };
        // Halt at the first violation, except for `lenient_ring`, whose
        // violators run on under observation.
        let config = ServerConfig::with_shards(1).with_violation_threshold(lenient, 100);
        let mut server = SessionServer::start(registry, config);
        for _ in 0..20 {
            server.submit(SessionSpec::new(ring, ring_endpoints.clone())).unwrap();
        }
        for _ in 0..5 {
            let mut spec = SessionSpec::new(ring, ring_endpoints.clone());
            spec.options.record_actions = false;
            server.submit(spec).unwrap();
        }
        for _ in 0..4 {
            let spec = SessionSpec::new(pipeline, pipeline_endpoints.clone()).with_max_steps(10);
            server.submit(spec).unwrap();
        }
        for (protocol, name) in [(byz, "byz_ring"), (lenient, "lenient_ring")] {
            let endpoints = driver(name).endpoints;
            for _ in 0..3 {
                server.submit(SessionSpec::new(protocol, endpoints.clone())).unwrap();
            }
        }
        let taken = summaries_and_outcomes(&mut server, 35);
        assert_summaries_agree(&taken);
        let batched = taken.iter().filter(|(_, _, from_block)| *from_block);
        assert_eq!(batched.count(), 25, "every ring session concludes in its batch");
        assert!(taken.iter().any(|(s, _, b)| *b && s.actions == 0), "recording off");
        assert!(taken.iter().any(|(s, _, b)| *b && s.actions == 6), "ring/3 records 6");
        let demoted_stalled = taken.iter().filter(|(s, _, _)| s.stalled && s.compliant);
        assert_eq!(demoted_stalled.count(), 4, "step-limited pipelines stall on the slab");
        assert_eq!(taken.iter().filter(|(s, _, _)| s.quarantined).count(), 3);
        assert_eq!(
            taken
                .iter()
                .filter(|(s, _, _)| !s.quarantined && s.violations > 0)
                .count(),
            3,
            "observed violators"
        );
        server.shutdown();
    }

    #[test]
    fn summaries_agree_with_rebuilt_outcomes_on_drain_and_shutdown() {
        let mut registry = ProtocolRegistry::new();
        let pipeline = registry
            .register(Protocol::new("pipeline", generators::pipeline()).unwrap())
            .unwrap();
        let endpoints = skeleton_endpoints(registry.get(pipeline).unwrap().protocol()).unwrap();
        let mut server = SessionServer::start(registry, ServerConfig::with_shards(1));
        // Unbounded sessions: they loop until drained or shut down.
        for _ in 0..3 {
            server.submit(SessionSpec::new(pipeline, endpoints.clone())).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        let migrated = server.drain_shard(0).unwrap();
        assert_eq!(migrated.len(), 3, "the batch is evacuated");
        let restored = migrated.into_iter().next().unwrap();
        server.migrate_session(restored, 0).unwrap();
        for _ in 0..3 {
            server.submit(SessionSpec::new(pipeline, endpoints.clone())).unwrap();
        }
        std::thread::sleep(Duration::from_millis(20));
        // Shut the shards down but keep the outcome stream: the batch's
        // members close through `close_all`, the restored slab session
        // through `close_stalled`.
        for shard in &server.shards {
            shard.tx.send(ShardMsg::Shutdown).unwrap();
        }
        for shard in server.shards.drain(..) {
            shard.handle.join().unwrap();
        }
        let taken = summaries_and_outcomes(&mut server, 4);
        assert_summaries_agree(&taken);
        assert!(taken.iter().all(|(s, _, _)| s.stalled && s.compliant && s.actions > 0));
        assert_eq!(taken.iter().filter(|(_, _, from_block)| *from_block).count(), 3);
    }

    #[test]
    fn sessions_hash_to_stable_shards() {
        assert_eq!(shard_of(SessionId(7), 4), shard_of(SessionId(7), 4));
        assert_eq!(shard_of(SessionId(7), 1), 0);
        // Ids spread over shards (not all in one bucket).
        let buckets: std::collections::BTreeSet<usize> =
            (0..64).map(|i| shard_of(SessionId(i), 4)).collect();
        assert!(buckets.len() > 1);
    }
}
