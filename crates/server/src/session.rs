//! One hosted session: a set of resumable endpoint tasks over an in-memory
//! network, stepped in bounded quanta with a live compiled monitor.
//!
//! Endpoints run on the **compiled data plane** by default: each submitted
//! process is lowered once per `(protocol, role, process)` (cached in
//! [`ProtocolArtifacts`]) and executed as a
//! [`CompiledEndpointTask`] — program counter plus slot array, with the
//! monitor fed pre-interned actions. A process that does not lower (jumps
//! without loops and similar pathologies the tree executor only detects at
//! run time) falls back to the tree-walking [`EndpointTask`]; both produce
//! identical traces, statuses and verdicts (the differential suites hold
//! one against the other).

use std::collections::BTreeMap;
use std::sync::Arc;

use zooid_dsl::CertifiedProcess;
use zooid_mpst::{Role, Trace};
use zooid_proc::{erase, Externals};
use zooid_runtime::cbatch::{DemotedEndpoint, DemotedSession};
use zooid_runtime::cexec::CompiledEndpointTask;
use zooid_runtime::checkpoint::checkpoint_task;
use zooid_runtime::error::RuntimeError;
use zooid_runtime::exec::{EndpointReport, EndpointTask, ExecOptions, StepOutcome};
use zooid_runtime::monitor::{CompiledMonitor, MonitorViolation};
use zooid_runtime::transport::{InMemoryNetwork, InMemoryTransport, Transport};

use crate::error::{Result, ServerError};
use crate::registry::{ProtocolArtifacts, ProtocolId};

/// Server-wide id of a hosted session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(pub u64);

/// Everything needed to start one session: the protocol and a certified
/// implementation (plus externals) for every participant.
///
/// The endpoint list is behind an `Arc`: a load generator (or any client
/// starting many sessions of the same implementations) builds it once and
/// submits clones of the *handle* — the certified processes themselves are
/// shared, never re-cloned per session, and on the worker shard the
/// compiled-program cache means session construction only reads them.
#[derive(Debug, Clone)]
pub struct SessionSpec {
    /// The registered protocol the session runs.
    pub protocol: ProtocolId,
    /// One certified endpoint per participant, in any order (shared).
    pub endpoints: Arc<[(CertifiedProcess, Externals)]>,
    /// Execution options applied to every endpoint (step limits for
    /// non-terminating protocols).
    pub options: ExecOptions,
}

impl SessionSpec {
    /// A spec with default options. Accepts a `Vec` (converted once) or an
    /// already shared `Arc` slice.
    pub fn new(
        protocol: ProtocolId,
        endpoints: impl Into<Arc<[(CertifiedProcess, Externals)]>>,
    ) -> Self {
        SessionSpec {
            protocol,
            endpoints: endpoints.into(),
            options: ExecOptions::default(),
        }
    }

    /// Limits every endpoint to at most `max_steps` visible communications.
    pub fn with_max_steps(mut self, max_steps: usize) -> Self {
        self.options = ExecOptions::with_max_steps(max_steps);
        self
    }
}

/// The outcome of one hosted session (the server-side counterpart of
/// [`zooid_runtime::SessionReport`]).
#[derive(Debug, Clone)]
pub struct SessionOutcome {
    /// The session's id.
    pub id: SessionId,
    /// The protocol it ran.
    pub protocol: ProtocolId,
    /// Per-endpoint reports (trace with values, final status).
    pub endpoints: BTreeMap<Role, EndpointReport>,
    /// The global interleaving accepted by the monitor (erased actions).
    pub global_trace: Trace,
    /// Whether every observed action was allowed by the protocol.
    pub compliant: bool,
    /// Whether the protocol ran to completion.
    pub complete: bool,
    /// Every observed violation.
    pub violations: Vec<MonitorViolation>,
    /// Whether the scheduler gave up because no endpoint could progress.
    pub stalled: bool,
    /// Whether the quarantine policy halted the session on its first
    /// monitor rejection (the session took zero steps after the violating
    /// action).
    pub quarantined: bool,
}

impl SessionOutcome {
    /// Returns `true` if every endpoint finished and the observed trace is
    /// compliant and complete.
    pub fn all_finished_and_compliant(&self) -> bool {
        self.compliant
            && self.complete
            && self.endpoints.values().all(|r| r.status.is_finished())
    }

    /// Total number of messages exchanged (sends accepted by the monitor).
    pub fn messages_exchanged(&self) -> usize {
        self.global_trace.iter().filter(|a| a.is_send()).count()
    }

    /// The outcome's verdicts and counts without its traces.
    pub(crate) fn summary(&self) -> OutcomeSummary {
        OutcomeSummary {
            id: self.id,
            compliant: self.compliant,
            complete: self.complete,
            stalled: self.stalled,
            quarantined: self.quarantined,
            violations: self.violations.len(),
            actions: self.endpoints.values().map(|r| r.actions.len()).sum(),
        }
    }
}

/// What a [`SessionOutcome`] says without its traces: the verdicts, the
/// number of violations and the number of recorded actions — everything a
/// networked `Done` frame carries.
/// [`SessionServer::try_next_summary`](crate::SessionServer::try_next_summary)
/// hands these out without rebuilding a batched session's traces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct OutcomeSummary {
    /// The session's id.
    pub id: SessionId,
    /// Whether every observed action was allowed by the protocol.
    pub compliant: bool,
    /// Whether the protocol ran to completion.
    pub complete: bool,
    /// Whether the session was closed without finishing.
    pub stalled: bool,
    /// Whether the quarantine policy halted the session.
    pub quarantined: bool,
    /// The number of observed violations.
    pub violations: usize,
    /// Visible actions recorded across the endpoints' value traces (zero
    /// when recording was off).
    pub actions: usize,
}

/// What one scheduling quantum did to a session.
#[derive(Debug)]
pub(crate) struct QuantumResult {
    /// Visible communications performed during the quantum.
    pub(crate) actions: usize,
    /// Messages handed to the in-session network (sends).
    pub(crate) sends: usize,
    /// `Some` when the session is over (finished or stalled) — the session
    /// must not be re-queued.
    pub(crate) outcome: Option<SessionOutcome>,
}

/// One endpoint of a hosted session: compiled when the process lowers (the
/// normal case), tree-walking otherwise.
#[derive(Debug)]
pub(crate) enum Endpoint {
    /// The compiled data plane: dense program, slot array, pre-interned
    /// monitor actions.
    Compiled(CompiledEndpointTask),
    /// The tree-walking oracle, kept for processes that do not lower.
    Tree(EndpointTask),
}

impl Endpoint {
    fn is_done(&self) -> bool {
        match self {
            Endpoint::Compiled(task) => task.is_done(),
            Endpoint::Tree(task) => task.is_done(),
        }
    }

    fn mark_stalled(&mut self) {
        match self {
            Endpoint::Compiled(task) => task.mark_stalled(),
            Endpoint::Tree(task) => task.mark_stalled(),
        }
    }

    fn into_report(self) -> EndpointReport {
        match self {
            Endpoint::Compiled(task) => task.into_report(),
            Endpoint::Tree(task) => task.into_report(),
        }
    }

    /// One visible step, feeding the monitor: the compiled path hands over
    /// the pre-interned action so the observation is hash-free; the tree
    /// path (and compiled sites whose template did not resolve) goes through
    /// the monitor's own lookups.
    fn step(
        &mut self,
        transport: &mut InMemoryTransport,
        monitor: &mut CompiledMonitor,
        sends: &mut usize,
    ) -> StepOutcome {
        match self {
            Endpoint::Compiled(task) => task.step_mem(transport, &mut |va, interned| {
                if va.is_send {
                    *sends += 1;
                }
                match interned {
                    Some(interned) => {
                        // The erased action is only built if the monitor
                        // records it (trace on, or a violation).
                        monitor.observe_interned(interned, || erase(va));
                    }
                    None => {
                        monitor.observe(&erase(va));
                    }
                }
            }),
            Endpoint::Tree(task) => task.step(transport, &mut |va| {
                if va.is_send {
                    *sends += 1;
                }
                monitor.observe(&erase(va));
            }),
        }
    }
}

/// A session hosted by a worker shard: one endpoint task per role, the
/// session's in-memory channels, and a [`CompiledMonitor`] observing every
/// communication.
#[derive(Debug)]
pub(crate) struct ActiveSession {
    id: SessionId,
    protocol: ProtocolId,
    monitor: CompiledMonitor,
    tasks: Vec<(Endpoint, InMemoryTransport)>,
    /// Set when the quarantine policy halts the session: endpoints still
    /// mid-protocol are closed as stalled and the outcome is flagged.
    quarantined: bool,
}

/// Checks that a spec's endpoints cover the protocol's participants exactly
/// once each (and belong to the protocol at all). Split out of
/// [`ActiveSession::new`] so submission can validate cheaply on the caller's
/// thread while the *construction* — channels, compiled tasks, monitor —
/// happens on the worker shard, in parallel across shards.
pub(crate) fn validate_spec(spec: &SessionSpec, artifacts: &ProtocolArtifacts) -> Result<()> {
    let mut remaining: Vec<&Role> = artifacts.roles().collect();
    for (cert, _) in spec.endpoints.iter() {
        if cert.protocol_name() != artifacts.name() {
            return Err(ServerError::WrongProtocol {
                expected: artifacts.name().to_owned(),
                found: cert.protocol_name().to_owned(),
            });
        }
        let Some(pos) = remaining.iter().position(|r| *r == cert.role()) else {
            return Err(ServerError::UnexpectedEndpoint {
                role: cert.role().clone(),
            });
        };
        remaining.swap_remove(pos);
    }
    if let Some(role) = remaining.first() {
        return Err(ServerError::MissingEndpoint { role: (*role).clone() });
    }
    Ok(())
}

impl ActiveSession {
    /// The session's id.
    pub(crate) fn id(&self) -> SessionId {
        self.id
    }

    /// The protocol the session runs.
    pub(crate) fn protocol(&self) -> ProtocolId {
        self.protocol
    }

    /// Builds the session. The spec must already have passed
    /// [`validate_spec`] for these artifacts — the server validates at
    /// submission, then ships the spec to a worker shard which constructs
    /// the session; re-walking the role coverage here would just double the
    /// per-session cost the split exists to avoid.
    pub(crate) fn new(
        id: SessionId,
        spec: SessionSpec,
        artifacts: &Arc<ProtocolArtifacts>,
    ) -> Result<Self> {
        debug_assert!(validate_spec(&spec, artifacts).is_ok());

        let mut network = InMemoryNetwork::from_sorted(Arc::clone(artifacts.sorted_roles()));
        let options = spec.options;
        let options_record = options.record_actions;
        let tasks = spec
            .endpoints
            .iter()
            .map(|(cert, externals)| {
                let transport = network
                    .take_endpoint(cert.role())
                    .expect("coverage was validated above");
                // The compiled data plane is the default; a process that
                // does not lower runs on the tree-walking oracle instead
                // (and fails at run time exactly where it always did). The
                // endpoints are shared (`Arc`), so on the usual cache-hit
                // path nothing of the process is cloned here.
                let task = match artifacts.endpoint_program(cert.role(), cert.proc(), externals) {
                    Some(program) => Endpoint::Compiled(CompiledEndpointTask::new(
                        program,
                        externals.clone(),
                        options.clone(),
                    )),
                    None => Endpoint::Tree(EndpointTask::new(
                        cert.proc().clone(),
                        cert.role().clone(),
                        externals.clone(),
                        options.clone(),
                    )),
                };
                (task, transport)
            })
            .collect();
        let mut monitor = CompiledMonitor::new(Arc::clone(artifacts.compiled()));
        // Fire-and-forget sessions (`record_actions` off) skip the global
        // trace too: the outcome then carries the verdicts alone.
        monitor.set_record_trace(options_record);
        Ok(ActiveSession {
            id,
            protocol: spec.protocol,
            monitor,
            tasks,
            quarantined: false,
        })
    }

    /// Rebuilds a session from the state a [`SessionBatch`] extracted when
    /// it demoted the session mid-flight: every endpoint resumes as a
    /// compiled task at its exact program counter with its slot values,
    /// recorded actions and step count; the monitor resumes mid-stream; and
    /// the frames that were still in flight in the batch arena are
    /// re-injected through the senders' transports, preserving per-channel
    /// FIFO order. Nothing of the session's observable history is lost.
    ///
    /// [`SessionBatch`]: zooid_runtime::cbatch::SessionBatch
    pub(crate) fn from_demoted(
        id: SessionId,
        protocol: ProtocolId,
        demoted: DemotedSession,
        artifacts: &Arc<ProtocolArtifacts>,
    ) -> Self {
        let DemotedSession {
            options,
            endpoints,
            monitor,
            frames,
            ..
        } = demoted;
        let mut network = InMemoryNetwork::from_sorted(Arc::clone(artifacts.sorted_roles()));
        let roles: Vec<Role> = endpoints.iter().map(|ep| ep.role.clone()).collect();
        let mut tasks: Vec<(Endpoint, InMemoryTransport)> = endpoints
            .into_iter()
            .map(|ep| {
                let transport = network
                    .take_endpoint(&ep.role)
                    .expect("batch role order is the sorted role table");
                // Batch-eligible programs call no externals, so resuming
                // with an empty set is exact.
                let task = CompiledEndpointTask::resume(
                    ep.program,
                    Externals::new(),
                    options.clone(),
                    ep.pc,
                    ep.slots,
                    ep.actions,
                    ep.steps,
                    ep.status,
                );
                (Endpoint::Compiled(task), transport)
            })
            .collect();
        for (from, to, label, value) in frames {
            let (_, transport) = &mut tasks[from as usize];
            transport
                .send(&roles[to as usize], &label, &value)
                .expect("co-batched roles are network peers");
        }
        ActiveSession {
            id,
            protocol,
            monitor,
            tasks,
            quarantined: false,
        }
    }

    /// Whether the session's monitor has already rejected an action.
    pub(crate) fn is_violating(&self) -> bool {
        !self.monitor.is_compliant()
    }

    /// Extracts a restorable snapshot of the live session without
    /// disturbing it: per-role task state (pc, slots, recorded actions,
    /// step counts), the monitor mid-stream, and every in-flight frame in
    /// per-channel FIFO order. Endpoints are emitted in **sorted role
    /// order** — the batch role order, which is also what
    /// [`zooid_runtime::SessionCheckpoint::into_demoted`] validates its
    /// programs against.
    ///
    /// In-flight frames are captured by draining each receiver's channels
    /// and immediately re-injecting every frame through its sender's
    /// transport, so the session is byte-for-byte unchanged afterwards.
    ///
    /// Sessions with a tree-walking endpoint cannot checkpoint — their
    /// state is a process tree mid-substitution, not a pc plus slots — and
    /// are refused with [`RuntimeError::Recovery`].
    pub(crate) fn checkpoint(&mut self) -> std::result::Result<DemotedSession, RuntimeError> {
        let mut roles = Vec::with_capacity(self.tasks.len());
        for (task, _) in &self.tasks {
            match task {
                Endpoint::Compiled(t) => roles.push(t.role().clone()),
                Endpoint::Tree(_) => {
                    return Err(RuntimeError::Recovery {
                        reason: "session has a tree-walking endpoint; only compiled \
                                 sessions can checkpoint"
                            .into(),
                    })
                }
            }
        }
        let mut order: Vec<usize> = (0..self.tasks.len()).collect();
        order.sort_by(|&a, &b| roles[a].cmp(&roles[b]));
        let endpoints: Vec<DemotedEndpoint> = order
            .iter()
            .map(|&i| match &self.tasks[i].0 {
                Endpoint::Compiled(t) => checkpoint_task(t),
                Endpoint::Tree(_) => unreachable!("tree endpoints were refused above"),
            })
            .collect();
        let options = match &self.tasks[order[0]].0 {
            Endpoint::Compiled(t) => t.options().clone(),
            Endpoint::Tree(_) => unreachable!("tree endpoints were refused above"),
        };
        // Capture in-flight frames: drain every (sender, receiver) channel
        // in FIFO order, then re-inject each frame through its sender so
        // the live session keeps running as if nothing happened. Frame
        // indices are positions in the sorted endpoint order above.
        let mut frames: Vec<(u32, u32, zooid_mpst::Label, zooid_proc::Value)> = Vec::new();
        for (to_pos, &ti) in order.iter().enumerate() {
            for (from_pos, &fi) in order.iter().enumerate() {
                if fi == ti {
                    continue;
                }
                let (_, transport) = &mut self.tasks[ti];
                let Some(peer) = transport.peer_index(&roles[fi]) else {
                    continue;
                };
                while let Some((label, value)) = transport.try_recv_indexed(peer)? {
                    frames.push((from_pos as u32, to_pos as u32, label, value));
                }
            }
        }
        for (from_pos, to_pos, label, value) in &frames {
            let sender = order[*from_pos as usize];
            let receiver_role = &roles[order[*to_pos as usize]];
            let (_, transport) = &mut self.tasks[sender];
            transport.send(receiver_role, label, value)?;
        }
        Ok(DemotedSession {
            token: self.id.0,
            options,
            endpoints,
            monitor: self.monitor.clone(),
            frames,
        })
    }

    /// Runs the session for at most `budget` visible communications.
    ///
    /// Endpoints are stepped round-robin, each until it blocks; the quantum
    /// ends when the budget is exhausted (session re-queued by the caller),
    /// when every endpoint is done, or when a full round-robin pass makes no
    /// progress while tasks are still pending — which, for a self-contained
    /// in-memory session, means no message can ever arrive again: the
    /// remaining endpoints are marked [`EndpointStatus::Stalled`] and the
    /// session is closed.
    ///
    /// With a `violation_threshold` of `Some(n)`, the session is closed as
    /// soon as the monitor has rejected `n` actions — at the default
    /// threshold of 1 the violating session takes **zero** further steps —
    /// every endpoint still mid-protocol is reported stalled, and the
    /// outcome carries `quarantined = true`. `None` never quarantines
    /// (violations are recorded and the session runs on).
    ///
    /// [`EndpointStatus::Stalled`]: zooid_runtime::EndpointStatus::Stalled
    pub(crate) fn run_quantum(
        &mut self,
        budget: usize,
        violation_threshold: Option<u32>,
    ) -> QuantumResult {
        let mut actions = 0usize;
        let mut sends = 0usize;
        let ActiveSession { monitor, tasks, .. } = self;
        'quantum: loop {
            let mut progressed = false;
            for (task, transport) in tasks.iter_mut() {
                if task.is_done() {
                    continue;
                }
                loop {
                    if actions >= budget {
                        break 'quantum;
                    }
                    match task.step(transport, monitor, &mut sends) {
                        StepOutcome::Progress => {
                            progressed = true;
                            actions += 1;
                            if violation_threshold
                                .is_some_and(|n| monitor.violations().len() >= n as usize)
                            {
                                self.quarantined = true;
                                return QuantumResult {
                                    actions,
                                    sends,
                                    outcome: Some(self.finish(false)),
                                };
                            }
                        }
                        StepOutcome::WouldBlock { .. } | StepOutcome::Done(_) => break,
                    }
                }
            }
            if tasks.iter().all(|(task, _)| task.is_done()) {
                return QuantumResult {
                    actions,
                    sends,
                    outcome: Some(self.finish(false)),
                };
            }
            if !progressed {
                // Self-contained session with every endpoint blocked: no
                // message will ever arrive again.
                return QuantumResult {
                    actions,
                    sends,
                    outcome: Some(self.finish(true)),
                };
            }
        }
        // Budget exhausted mid-protocol (the task in hand had just made
        // progress, so it cannot be done): the session stays live and the
        // next quantum picks it up where it stopped.
        QuantumResult {
            actions,
            sends,
            outcome: None,
        }
    }

    /// Force-closes a session its scheduler will not run again (server
    /// shutdown): every endpoint still mid-protocol is marked stalled.
    pub(crate) fn close_stalled(mut self) -> SessionOutcome {
        self.finish(true)
    }

    /// Closes a session the quarantine policy refuses to keep stepping (a
    /// batch-demoted session whose monitor already rejected an action):
    /// endpoints still mid-protocol are reported stalled, and the outcome
    /// carries `quarantined = true`.
    pub(crate) fn close_quarantined(mut self) -> SessionOutcome {
        self.quarantined = true;
        self.finish(false)
    }

    fn finish(&mut self, stalled: bool) -> SessionOutcome {
        let mut endpoints = BTreeMap::new();
        for (mut task, transport) in std::mem::take(&mut self.tasks) {
            if stalled || self.quarantined {
                task.mark_stalled();
            }
            let report = task.into_report();
            endpoints.insert(report.role.clone(), report);
            drop(transport);
        }
        // The monitor is done observing: move its trace and violations into
        // the outcome instead of cloning them (verdicts are read first).
        let compliant = self.monitor.is_compliant();
        let complete = self.monitor.is_complete();
        SessionOutcome {
            id: self.id,
            protocol: self.protocol,
            endpoints,
            global_trace: self.monitor.take_trace(),
            compliant,
            complete,
            violations: self.monitor.take_violations(),
            stalled,
            quarantined: self.quarantined,
        }
    }
}
