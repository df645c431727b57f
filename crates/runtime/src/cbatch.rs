//! Columnar batch execution: struct-of-arrays stepping for homogeneous
//! sessions.
//!
//! The slab executor in `zooid-server` steps each session through its own
//! [`CompiledEndpointTask`](crate::cexec::CompiledEndpointTask): one pointer
//! chase into the session's slot array, one `RefCell` borrow of its channel
//! core and one virtual port dispatch per action — per session. At serving
//! scale most live sessions run the *same* protocol and sit at the *same*
//! handful of program counters, so almost all of that per-session state is
//! redundant. This module splits a session population the other way:
//!
//! * the **skeleton** — the compiled per-role programs
//!   ([`EndpointProgram`]) with their per-site action templates, the
//!   protocol's compiled transition tables and the derived routing tables
//!   ([`BatchLayout`]: dense peer indices and a batch-wide wire-label
//!   table) — is shared once per batch;
//! * the **variables** — program counters, step counts, value slots,
//!   monitor cursors and a compact action log — live in struct-of-arrays
//!   *columns* indexed by session slot ([`SessionBatch`]). Value slots are
//!   laid out per-slot across sessions (`slots[slot * capacity + session]`),
//!   so a cohort of sessions executing the same instruction reads and
//!   writes contiguous memory.
//!
//! Each scheduling pass groups live endpoints by `(role, pc)` and steps
//! every cohort with a tight loop: the instruction, its
//! [`ActionTemplate`](crate::cexec::ActionTemplate), the peer index and the
//! wire label are resolved **once per cohort**, and sends between
//! co-batched endpoints are index writes into a shared frame arena — no
//! per-channel `VecDeque` behind a `RefCell`, no role or label comparison,
//! and zero-hash monitoring via the pre-interned actions
//! ([`zooid_cfsm::CompiledSystem::observe_interned`]).
//!
//! **Traces are a compact log.** The stepping loop builds no [`Action`],
//! [`ValueAction`], [`Role`] or [`Label`]: each visible action appends one
//! `(role, event, position, direction, verdict, value)` entry to its
//! session's log, where `event` indexes the role's templates and
//! `position` counts the monitor's observations. The log *is* the
//! session's monitored history — the per-endpoint value traces, the
//! accepted global trace and the monitor's violations are all functions of
//! it — and one function, `rebuild`, turns it back into those traces from
//! the shared templates. With recording off
//! ([`ExecOptions::record_actions`]) only the rejected actions are logged:
//! the violations are all that is left to rebuild. A concluded session leaves as a compact entry of
//! an [`OutcomeBlock`] (its log and statuses moved into the quantum's flat
//! buffers), and the traces are rebuilt only when an [`OutcomeBlock`] is
//! iterated into [`BatchOutcome`]s — on whichever thread asks for them. A
//! demoted session's traces are rebuilt at demotion by the same function.
//!
//! A session is **batch-eligible** when every role's program avoids
//! external actions (`read`/`write`/`interact` run arbitrary host closures)
//! and every communication site has a statically known sort with a
//! pre-interned action ([`BatchLayout::new`] checks this once per program
//! set). Sessions that diverge from their cohort mid-flight — a monitor
//! violation, a payload whose runtime sort differs from the static one, or
//! a full pass without progress — are **demoted**: their columns are
//! gathered into a [`DemotedSession`] carrying the program counters, slot
//! values, action traces, in-flight frames and the monitor state, which the
//! slab executor resumes without losing a single observation
//! ([`CompiledEndpointTask::resume`](crate::cexec::CompiledEndpointTask::resume),
//! [`CompiledMonitor::resume`]).
//!
//! The slab and tree executors remain the behavioural oracles: the
//! differential suite (`tests/batch_exec.rs`) checks statuses, per-endpoint
//! value traces and monitor verdicts agree in lockstep on case studies and
//! randomized projectable protocols.

use std::mem;
use std::sync::Arc;

use zooid_cfsm::{CompiledSystem, MonitorCursor};
use zooid_mpst::{Action, Label, Role, Trace};
use zooid_proc::compile::{Arm, CExpr, Instr};
use zooid_proc::{Value, ValueAction};

use crate::cexec::{ActionTemplate, EndpointProgram, ADMIN_FUEL};
use crate::error::RuntimeError;
use crate::exec::{sort_of_value, EndpointReport, EndpointStatus, ExecOptions};
use crate::faults::{ArenaFaults, FaultKind, FaultPlan, InjectedFault};
use crate::monitor::{CompiledMonitor, MonitorViolation};

/// The wire id an arena [`FaultKind::Truncate`] injection writes in place
/// of the real one. Deliberately out of range for every layout (`u32::MAX`
/// doubles as `BatchLayout::label_wire`'s "no site" sentinel), so the
/// receiver surfaces it as a codec failure rather than a mis-delivery.
const CORRUPT_WIRE: u32 = u32::MAX;

/// The shared skeleton of a batch: the per-role compiled programs plus the
/// routing tables derived from them once — dense peer indices
/// (`role × RoleId → batch role index`) and a batch-wide wire-label table
/// (`role × LabelId → wire id`), so the stepping loop never compares a role
/// or label string.
#[derive(Debug)]
pub struct BatchLayout {
    roles: Arc<[Role]>,
    programs: Vec<Arc<EndpointProgram>>,
    system: Arc<CompiledSystem>,
    /// The deduplicated labels of every communication site across all
    /// programs; frames in the arena carry an index into this table.
    labels: Vec<Label>,
    /// `label_wire[r][LabelId::index()]` — the wire id of that role's
    /// interned label (`u32::MAX` for label ids without a communication
    /// site).
    label_wire: Vec<Vec<u32>>,
    /// `peer_map[r][RoleId::index()]` — the batch role index of that role's
    /// interned peer.
    peer_map: Vec<Vec<u32>>,
    /// Per-role slot counts (the per-role column heights).
    slot_counts: Vec<usize>,
}

impl BatchLayout {
    /// Derives the shared layout for one program per role, or `None` when
    /// the combination is not batch-eligible: `roles` must be sorted and
    /// match the programs' roles positionally, no program may call external
    /// actions, and every communication site must carry a statically known
    /// sort with a pre-interned action (compile the programs with
    /// [`EndpointProgram::with_system`] against the same `system`).
    pub fn new(
        roles: Arc<[Role]>,
        programs: Vec<Arc<EndpointProgram>>,
        system: Arc<CompiledSystem>,
    ) -> Option<Arc<BatchLayout>> {
        if programs.len() != roles.len() || roles.windows(2).any(|w| w[0] >= w[1]) {
            return None;
        }
        let mut labels: Vec<Label> = Vec::new();
        let mut label_wire = Vec::with_capacity(programs.len());
        let mut peer_map = Vec::with_capacity(programs.len());
        let mut slot_counts = Vec::with_capacity(programs.len());
        for (r, program) in programs.iter().enumerate() {
            let compiled = program.program();
            if compiled.role() != &roles[r] || compiled.calls_externals() {
                return None;
            }
            if program
                .templates()
                .iter()
                .any(|t| t.static_sort.is_none() || t.interned.is_none())
            {
                return None;
            }
            let snapshot = compiled.snapshot();
            let mut map = Vec::with_capacity(snapshot.roles().len());
            for role in snapshot.roles() {
                let pos = roles.binary_search(role).ok()?;
                map.push(pos as u32);
            }
            peer_map.push(map);
            let mut wires: Vec<u32> = Vec::new();
            let mut assign = |wires: &mut Vec<u32>, lid: zooid_mpst::common::intern::LabelId| {
                let i = lid.index();
                if wires.len() <= i {
                    wires.resize(i + 1, u32::MAX);
                }
                if wires[i] == u32::MAX {
                    let label = snapshot.label(lid);
                    let wire = labels.iter().position(|l| l == label).unwrap_or_else(|| {
                        labels.push(label.clone());
                        labels.len() - 1
                    });
                    wires[i] = wire as u32;
                }
            };
            for instr in compiled.instrs() {
                match instr {
                    Instr::Send { label, .. } => assign(&mut wires, *label),
                    Instr::Recv { arms, .. } => {
                        for arm in arms.iter() {
                            assign(&mut wires, arm.label);
                        }
                    }
                    _ => {}
                }
            }
            label_wire.push(wires);
            slot_counts.push(compiled.slot_count());
        }
        Some(Arc::new(BatchLayout {
            roles,
            programs,
            system,
            labels,
            label_wire,
            peer_map,
            slot_counts,
        }))
    }

    /// The sorted session roles, in batch role-index order.
    pub fn roles(&self) -> &Arc<[Role]> {
        &self.roles
    }

    /// The per-role compiled programs, in batch role-index order.
    pub fn programs(&self) -> &[Arc<EndpointProgram>] {
        &self.programs
    }

    /// The protocol's compiled transition tables.
    pub fn system(&self) -> &Arc<CompiledSystem> {
        &self.system
    }
}

/// One session-indexed cell of the frame arena: an append-only buffer with
/// a read head — push is a `Vec` push, pop swaps the value out and bumps
/// the head, and the buffer resets once drained so capacity is reused.
#[derive(Debug, Default)]
struct FrameQueue {
    buf: Vec<(u32, Value)>,
    head: usize,
}

impl FrameQueue {
    fn push(&mut self, wire: u32, value: Value) {
        self.buf.push((wire, value));
    }

    fn pop(&mut self) -> Option<(u32, Value)> {
        if self.head < self.buf.len() {
            let frame = mem::replace(&mut self.buf[self.head], (0, Value::Unit));
            self.head += 1;
            if self.head == self.buf.len() {
                self.buf.clear();
                self.head = 0;
            }
            Some(frame)
        } else {
            None
        }
    }

    fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }
}

/// What one [`SessionBatch::run_quantum`] call did: action counts for
/// metrics, the sessions that concluded, the sessions that demoted to the
/// slab executor, and cohort statistics (a cohort is one `(role, pc)` run
/// of a scheduling pass).
#[derive(Debug)]
pub struct BatchQuantum {
    /// Visible communications performed (sends + receives).
    pub actions: usize,
    /// Sends among them (message-routing metric).
    pub sends: usize,
    /// Sessions that ran to a conclusion inside the batch, in compact form.
    pub finished: OutcomeBlock,
    /// Sessions pulled out mid-flight for the slab executor.
    pub demoted: Vec<DemotedSession>,
    /// Number of `(role, pc)` cohorts stepped.
    pub cohorts: usize,
    /// Total sessions across those cohorts (mean cohort width =
    /// `cohort_sessions / cohorts`).
    pub cohort_sessions: usize,
    /// Cohort-width distribution: `cohort_widths[b]` counts cohorts whose
    /// width fell in log2 bucket `b` (bucket 0 is unused — a cohort has at
    /// least one session; widths ≥ 2^15 land in the last bucket). The
    /// server folds this into its width histogram without touching the
    /// stepping loop.
    pub cohort_widths: [u64; 16],
}

/// One action of a batched session as its log keeps it: which role
/// performed which of its program's communication sites (`event` indexes
/// the role's [`EndpointProgram::templates`]), its position among the
/// monitor's observations, in which direction, whether the monitor
/// accepted it, and the payload (`Value::Unit` when recording is off).
/// Everything else an [`Action`] or [`ValueAction`] holds comes from the
/// shared template.
#[derive(Debug)]
struct LogEntry {
    role: u32,
    event: u32,
    position: u32,
    send: bool,
    accepted: bool,
    value: Value,
}

/// A session's log turned back into what it stands for.
struct Rebuilt {
    /// Per-endpoint value traces, in batch role order (empty when
    /// recording is off).
    actions: Vec<Vec<ValueAction>>,
    /// The monitor-accepted global trace (empty when recording is off).
    trace: Trace,
    /// Every rejected action, with its position among the observed ones.
    violations: Vec<MonitorViolation>,
}

/// Rebuilds a session's traces from its log: the one place a batched
/// session's [`ValueAction`]s, accepted [`Trace`] and [`MonitorViolation`]s
/// are made, whether the session concluded in the batch
/// ([`OutcomeBlock`]'s iterator) or was demoted. Each entry's role, peer,
/// label and sort come from `layout`'s templates; the value is moved out
/// of the log.
fn rebuild(
    layout: &BatchLayout,
    record: bool,
    log: impl ExactSizeIterator<Item = LogEntry>,
) -> Rebuilt {
    let mut actions: Vec<Vec<ValueAction>> = layout.roles.iter().map(|_| Vec::new()).collect();
    let mut trace = Vec::with_capacity(log.len());
    let mut violations: Vec<MonitorViolation> = Vec::new();
    for entry in log {
        let r = entry.role as usize;
        let role = &layout.roles[r];
        let template = &layout.programs[r].templates()[entry.event as usize];
        let sort = template
            .static_sort
            .as_ref()
            .expect("batch-eligible templates have static sorts");
        let action = || {
            let (peer, label) = (template.peer.clone(), template.label.clone());
            if entry.send {
                Action::send(role.clone(), peer, label, sort.clone())
            } else {
                Action::recv(role.clone(), peer, label, sort.clone())
            }
        };
        if entry.accepted {
            // Accepted actions are logged only while recording.
            trace.push(action());
        } else {
            // Every rejection is logged, so the accepted actions before
            // this one are the observations before it minus the rejections.
            let position = entry.position as usize;
            violations.push(MonitorViolation {
                action: action(),
                position,
                trace_len: position - violations.len(),
            });
        }
        if record {
            let (peer, label, sort) = (template.peer.clone(), template.label.clone(), sort.clone());
            actions[r].push(if entry.send {
                ValueAction::send(role.clone(), peer, label, sort, entry.value)
            } else {
                ValueAction::recv(role.clone(), peer, label, sort, entry.value)
            });
        }
    }
    Rebuilt {
        actions,
        trace: Trace::from(trace),
        violations,
    }
}

/// The compact summary of one session in an [`OutcomeBlock`]: what its
/// outcome says without its traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishedSession {
    /// The caller-supplied session token (see [`SessionBatch::admit`]).
    pub token: u64,
    /// `true` if the monitor observed no violation.
    pub compliant: bool,
    /// `true` if the protocol ran to completion.
    pub complete: bool,
    /// `true` if the session was closed without finishing (shutdown).
    pub stalled: bool,
    /// The number of actions the monitor rejected.
    pub violations: usize,
    /// The number of actions the endpoints recorded, summed over endpoints
    /// (zero when recording is off).
    pub actions: usize,
    /// Entries of the block's log that belong to this session.
    logged: usize,
}

/// The sessions one quantum (or [`SessionBatch::close_all`]) concluded,
/// kept compact: a [`FinishedSession`] summary each, plus every session's
/// log and endpoint statuses moved into two flat buffers — three heap
/// blocks per quantum, whatever its population. [`OutcomeBlock::iter`]
/// reads the summaries; iterating the block by value rebuilds each
/// session's full [`BatchOutcome`] on the iterating thread.
#[derive(Debug)]
pub struct OutcomeBlock {
    layout: Arc<BatchLayout>,
    record: bool,
    sessions: Vec<FinishedSession>,
    log: Vec<LogEntry>,
    statuses: Vec<EndpointStatus>,
}

impl OutcomeBlock {
    fn new(layout: Arc<BatchLayout>, record: bool) -> Self {
        OutcomeBlock {
            layout,
            record,
            sessions: Vec::new(),
            log: Vec::new(),
            statuses: Vec::new(),
        }
    }

    /// The concluded sessions' summaries, in conclusion order.
    pub fn iter(&self) -> std::slice::Iter<'_, FinishedSession> {
        self.sessions.iter()
    }

    /// The number of concluded sessions.
    pub fn len(&self) -> usize {
        self.sessions.len()
    }

    /// Returns `true` if no session concluded.
    pub fn is_empty(&self) -> bool {
        self.sessions.is_empty()
    }
}

impl<'a> IntoIterator for &'a OutcomeBlock {
    type Item = &'a FinishedSession;
    type IntoIter = std::slice::Iter<'a, FinishedSession>;

    fn into_iter(self) -> Self::IntoIter {
        self.sessions.iter()
    }
}

impl IntoIterator for OutcomeBlock {
    type Item = BatchOutcome;
    type IntoIter = BlockOutcomes;

    fn into_iter(self) -> BlockOutcomes {
        BlockOutcomes {
            layout: self.layout,
            record: self.record,
            sessions: self.sessions.into_iter(),
            log: self.log.into_iter(),
            statuses: self.statuses.into_iter(),
        }
    }
}

/// An [`OutcomeBlock`] being consumed: each step rebuilds one session's
/// [`BatchOutcome`] from the block's log ([`Iterator::next`]) or passes
/// over it with its summary only ([`BlockOutcomes::skip_one`]).
#[derive(Debug)]
pub struct BlockOutcomes {
    layout: Arc<BatchLayout>,
    record: bool,
    sessions: std::vec::IntoIter<FinishedSession>,
    log: std::vec::IntoIter<LogEntry>,
    statuses: std::vec::IntoIter<EndpointStatus>,
}

impl BlockOutcomes {
    /// The summary of the session the next step yields.
    pub fn peek(&self) -> Option<&FinishedSession> {
        self.sessions.as_slice().first()
    }

    /// Passes over the next session without rebuilding its traces,
    /// returning its summary.
    pub fn skip_one(&mut self) -> Option<FinishedSession> {
        let session = self.sessions.next()?;
        let endpoints = self.layout.roles.len();
        self.log.by_ref().take(session.logged).for_each(drop);
        self.statuses.by_ref().take(endpoints).for_each(drop);
        Some(session)
    }
}

impl Iterator for BlockOutcomes {
    type Item = BatchOutcome;

    fn next(&mut self) -> Option<BatchOutcome> {
        let session = self.sessions.next()?;
        let log = self.log.by_ref().take(session.logged);
        let rebuilt = rebuild(&self.layout, self.record, log);
        let endpoints = rebuilt
            .actions
            .into_iter()
            .zip(self.layout.roles.iter())
            .map(|(actions, role)| EndpointReport {
                role: role.clone(),
                actions,
                status: self.statuses.next().expect("one status per endpoint"),
            })
            .collect();
        Some(BatchOutcome {
            token: session.token,
            endpoints,
            global_trace: rebuilt.trace,
            compliant: session.compliant,
            complete: session.complete,
            violations: rebuilt.violations,
            stalled: session.stalled,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.sessions.size_hint()
    }
}

impl ExactSizeIterator for BlockOutcomes {}

/// The conclusion of one batched session, in the same terms as a slab
/// session outcome: per-endpoint reports (in batch role order), the
/// monitor's verdicts and — when recording was on — the compliant global
/// trace. Rebuilt from an [`OutcomeBlock`] by iterating it.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The caller-supplied session token (see [`SessionBatch::admit`]).
    pub token: u64,
    /// Per-endpoint reports, in batch role-index order.
    pub endpoints: Vec<EndpointReport>,
    /// The compliant global trace (empty when recording was off).
    pub global_trace: Trace,
    /// `true` if the monitor observed no violation.
    pub compliant: bool,
    /// `true` if the protocol ran to completion.
    pub complete: bool,
    /// The violations observed.
    pub violations: Vec<MonitorViolation>,
    /// `true` if the session was closed without finishing (shutdown).
    pub stalled: bool,
}

/// One endpoint's extracted execution state, ready for
/// [`CompiledEndpointTask::resume`](crate::cexec::CompiledEndpointTask::resume).
#[derive(Debug)]
pub struct DemotedEndpoint {
    /// The endpoint's role.
    pub role: Role,
    /// The shared compiled program the endpoint was running.
    pub program: Arc<EndpointProgram>,
    /// The program counter to resume at.
    pub pc: u32,
    /// The endpoint's slot values, in slot-id order.
    pub slots: Vec<Value>,
    /// The recorded actions so far (empty when recording was off).
    pub actions: Vec<ValueAction>,
    /// Visible communications performed so far.
    pub steps: usize,
    /// The endpoint's status, when it already concluded inside the batch.
    pub status: Option<EndpointStatus>,
}

/// A session pulled out of a batch mid-flight: everything the slab executor
/// needs to continue it exactly where its columns left off — per-endpoint
/// state, the resumed monitor, and the frames that were still in flight in
/// the batch arena (per-channel FIFO order preserved).
#[derive(Debug)]
pub struct DemotedSession {
    /// The caller-supplied session token.
    pub token: u64,
    /// The execution options the batch ran with.
    pub options: ExecOptions,
    /// Per-endpoint state, in batch role-index order.
    pub endpoints: Vec<DemotedEndpoint>,
    /// The monitor, resumed mid-stream (cursor, trace, verdicts intact).
    pub monitor: CompiledMonitor,
    /// Undelivered frames as `(from, to, label, value)` with `from`/`to`
    /// batch role indices; per-channel order is the delivery order.
    pub frames: Vec<(u32, u32, Label, Value)>,
}

/// A fixed-capacity population of homogeneous sessions stepped in columns.
///
/// All sessions share one [`BatchLayout`] and one [`ExecOptions`]; their
/// mutable state lives in struct-of-arrays columns indexed by session slot.
/// [`SessionBatch::admit`] claims a slot, [`SessionBatch::run_quantum`]
/// steps the whole population in `(role, pc)` cohorts, and sessions leave
/// in an [`OutcomeBlock`] (concluded) or as [`DemotedSession`]s (stragglers
/// for the slab executor).
#[derive(Debug)]
pub struct SessionBatch {
    layout: Arc<BatchLayout>,
    options: ExecOptions,
    record: bool,
    cap: usize,
    // Session columns (one entry per slot).
    tokens: Vec<u64>,
    live: Vec<bool>,
    free: Vec<u32>,
    live_count: usize,
    cursors: Vec<MonitorCursor>,
    // Actions the monitor observed.
    observed: Vec<u32>,
    // The session's action log (only the rejected actions when recording
    // is off); it keeps its capacity across sessions.
    logs: Vec<Vec<LogEntry>>,
    demote: Vec<bool>,
    progress: Vec<bool>,
    // Endpoint columns, indexed `role * cap + slot`.
    pcs: Vec<u32>,
    steps: Vec<u32>,
    statuses: Vec<Option<EndpointStatus>>,
    // Value columns, per role, laid out per-slot across sessions:
    // `slots[role][slot_id * cap + slot]`.
    slots: Vec<Vec<Value>>,
    // Frame arena, indexed `(from * n + to) * cap + slot`.
    queues: Vec<FrameQueue>,
    // (pc, session) scratch for cohort grouping, reused across passes.
    scratch: Vec<(u32, u32)>,
    // Fault evaluator for the arena write path (hostile-world suite);
    // `None` outside fault campaigns, costing one branch per send.
    arena_faults: Option<ArenaFaults>,
}

impl SessionBatch {
    /// Creates an empty batch of the given capacity (at least 1).
    pub fn new(layout: Arc<BatchLayout>, options: ExecOptions, capacity: usize) -> Self {
        let cap = capacity.max(1);
        let n = layout.roles.len();
        let record = options.record_actions;
        let cursor = layout.system.monitor_cursor();
        let slots = layout
            .slot_counts
            .iter()
            .map(|&count| vec![Value::Unit; count * cap])
            .collect();
        let mut queues = Vec::with_capacity(n * n * cap);
        queues.resize_with(n * n * cap, FrameQueue::default);
        SessionBatch {
            layout,
            options,
            record,
            cap,
            tokens: vec![0; cap],
            live: vec![false; cap],
            free: (0..cap as u32).rev().collect(),
            live_count: 0,
            cursors: vec![cursor; cap],
            observed: vec![0; cap],
            logs: (0..cap).map(|_| Vec::new()).collect(),
            demote: vec![false; cap],
            progress: vec![false; cap],
            pcs: vec![0; n * cap],
            steps: vec![0; n * cap],
            statuses: vec![None; n * cap],
            slots,
            queues,
            scratch: Vec::new(),
            arena_faults: None,
        }
    }

    /// Arms deterministic fault injection on the arena write path. In-batch
    /// sends never cross a [`Transport`](crate::transport::Transport), so
    /// [`crate::faults::FaultyTransport`] cannot reach them; this is the
    /// batch plane's counterpart. See [`ArenaFaults`] for which
    /// [`FaultKind`]s are meaningful at this seam.
    pub fn set_arena_faults(&mut self, plan: &FaultPlan) {
        self.arena_faults = Some(ArenaFaults::new(plan));
    }

    /// The deterministic log of arena faults injected so far (empty when
    /// no plan is armed).
    pub fn arena_fault_schedule(&self) -> &[InjectedFault] {
        self.arena_faults.as_ref().map_or(&[], ArenaFaults::schedule)
    }

    /// The shared layout the batch runs.
    pub fn layout(&self) -> &Arc<BatchLayout> {
        &self.layout
    }

    /// Number of session slots.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Number of live sessions.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Returns `true` if no slot is free.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Returns `true` if no session is live.
    pub fn is_empty(&self) -> bool {
        self.live_count == 0
    }

    /// Admits a new session under the caller's `token` (any identifier;
    /// outcomes and demotions carry it back). Returns `false` when the
    /// batch is full.
    pub fn admit(&mut self, token: u64) -> bool {
        let Some(s) = self.free.pop() else {
            return false;
        };
        let s = s as usize;
        let cap = self.cap;
        self.tokens[s] = token;
        self.live[s] = true;
        self.live_count += 1;
        self.demote[s] = false;
        self.progress[s] = false;
        self.cursors[s] = self.layout.system.monitor_cursor();
        self.observed[s] = 0;
        for (r, program) in self.layout.programs.iter().enumerate() {
            let idx = r * cap + s;
            self.pcs[idx] = program.program().entry();
            self.steps[idx] = 0;
            self.statuses[idx] = None;
        }
        true
    }

    /// Steps the whole population in full passes until `budget` visible
    /// actions were performed (the last pass may overshoot) or no session
    /// is left. Each pass groups live endpoints by `(role, pc)` and steps
    /// every cohort once; a session whose endpoints all conclude leaves in
    /// the quantum's [`OutcomeBlock`], one that diverges (violation,
    /// runtime sort mismatch, or a full pass without progress — which in a
    /// batch of self-contained sessions proves it can never progress again)
    /// leaves as a [`DemotedSession`].
    pub fn run_quantum(&mut self, budget: usize) -> BatchQuantum {
        let layout = Arc::clone(&self.layout);
        let mut out = BatchQuantum {
            actions: 0,
            sends: 0,
            finished: OutcomeBlock::new(Arc::clone(&layout), self.record),
            demoted: Vec::new(),
            cohorts: 0,
            cohort_sessions: 0,
            cohort_widths: [0; 16],
        };
        while self.live_count > 0 && out.actions < budget {
            self.run_pass(&layout, &mut out);
            self.settle(&mut out);
        }
        out
    }

    /// Closes every live session (server shutdown): endpoints that had not
    /// concluded are marked stalled, and the outcome is flagged as such.
    pub fn close_all(&mut self) -> OutcomeBlock {
        let cap = self.cap;
        let n = self.layout.roles.len();
        let mut block = OutcomeBlock::new(Arc::clone(&self.layout), self.record);
        for s in 0..cap {
            if !self.live[s] {
                continue;
            }
            let undone = (0..n).any(|r| self.statuses[r * cap + s].is_none());
            self.conclude(s, undone, &mut block);
        }
        block
    }

    /// Pulls one live session out of the batch by token (straggler-demotion
    /// handle, used by the handoff tests). Returns `None` for unknown
    /// tokens.
    pub fn demote_now(&mut self, token: u64) -> Option<DemotedSession> {
        let s = (0..self.cap).find(|&s| self.live[s] && self.tokens[s] == token)?;
        Some(self.extract_demoted(s))
    }

    /// Demotes **every** live session out of the batch (shard drain /
    /// migration): each leaves with its full resumable state, exactly as a
    /// mid-flight straggler demotion would, and the batch ends empty.
    pub fn demote_all(&mut self) -> Vec<DemotedSession> {
        let live: Vec<usize> = (0..self.cap).filter(|&s| self.live[s]).collect();
        live.into_iter().map(|s| self.extract_demoted(s)).collect()
    }

    fn run_pass(&mut self, layout: &BatchLayout, out: &mut BatchQuantum) {
        let cap = self.cap;
        let n = layout.roles.len();
        for flag in &mut self.progress {
            *flag = false;
        }
        for r in 0..n {
            let mut scratch = mem::take(&mut self.scratch);
            scratch.clear();
            for s in 0..cap {
                if self.live[s] && !self.demote[s] && self.statuses[r * cap + s].is_none() {
                    scratch.push((self.pcs[r * cap + s], s as u32));
                }
            }
            scratch.sort_unstable();
            let mut i = 0;
            while i < scratch.len() {
                let pc = scratch[i].0;
                let mut j = i + 1;
                while j < scratch.len() && scratch[j].0 == pc {
                    j += 1;
                }
                out.cohorts += 1;
                out.cohort_sessions += j - i;
                let width = (j - i) as u64;
                out.cohort_widths[(64 - width.leading_zeros()).min(15) as usize] += 1;
                self.step_cohort(layout, r, pc, &scratch[i..j], out);
                i = j;
            }
            self.scratch = scratch;
        }
    }

    /// Steps one `(role, pc)` cohort: the instruction, template, peer index
    /// and wire label are resolved once, then the session loop touches only
    /// columns.
    fn step_cohort(
        &mut self,
        layout: &BatchLayout,
        r: usize,
        pc: u32,
        cohort: &[(u32, u32)],
        out: &mut BatchQuantum,
    ) {
        let cap = self.cap;
        let n = layout.roles.len();
        let program = &layout.programs[r];
        match &program.program().instrs()[pc as usize] {
            Instr::Finish => {
                for &(_, s) in cohort {
                    let s = s as usize;
                    self.statuses[r * cap + s] = Some(EndpointStatus::Finished);
                    self.progress[s] = true;
                }
            }
            Instr::Send {
                peer,
                label,
                payload,
                event,
                next,
            } => {
                let template = &program.templates()[*event as usize];
                let q = layout.peer_map[r][peer.index()] as usize;
                let wire = layout.label_wire[r][label.index()];
                let ch = (r * n + q) * cap;
                for &(_, s) in cohort {
                    let site = (*event, template);
                    self.send_one(layout, r, s as usize, site, payload, wire, ch, *next, out);
                }
            }
            Instr::Recv { peer, arms } => {
                let q = layout.peer_map[r][peer.index()] as usize;
                let ch = (q * n + r) * cap;
                for &(_, s) in cohort {
                    self.recv_one(layout, r, s as usize, q, arms, ch, out);
                }
            }
            _ => {
                for &(_, s) in cohort {
                    self.step_endpoint(layout, r, s as usize, out);
                }
            }
        }
    }

    /// The general path for internal instructions: mirrors one
    /// [`CompiledEndpointTask`](crate::cexec::CompiledEndpointTask) step —
    /// run the internal chain under fresh fuel counters, then perform at
    /// most one visible communication.
    fn step_endpoint(&mut self, layout: &BatchLayout, r: usize, s: usize, out: &mut BatchQuantum) {
        let cap = self.cap;
        let n = layout.roles.len();
        let idx = r * cap + s;
        let program = &layout.programs[r];
        let instrs = program.program().instrs();
        let mut admin = 0usize;
        let mut back_edges = 0usize;
        loop {
            match &instrs[self.pcs[idx] as usize] {
                Instr::Finish => {
                    self.statuses[idx] = Some(EndpointStatus::Finished);
                    self.progress[s] = true;
                    return;
                }
                Instr::Cond {
                    cond,
                    then_pc,
                    else_pc,
                } => {
                    let target = match cond
                        .eval_strided(&self.slots[r], cap, s)
                        .and_then(|v| v.as_bool())
                    {
                        Ok(true) => *then_pc,
                        Ok(false) => *else_pc,
                        Err(e) => {
                            self.fail(idx, s, RuntimeError::from(e));
                            return;
                        }
                    };
                    if let Err(e) = admin_tick(&mut admin, &mut back_edges, self.pcs[idx], target) {
                        self.fail(idx, s, e);
                        return;
                    }
                    self.pcs[idx] = target;
                }
                Instr::Send {
                    peer,
                    label,
                    payload,
                    event,
                    next,
                } => {
                    let site = (*event, &program.templates()[*event as usize]);
                    let q = layout.peer_map[r][peer.index()] as usize;
                    let wire = layout.label_wire[r][label.index()];
                    let ch = (r * n + q) * cap;
                    self.send_one(layout, r, s, site, payload, wire, ch, *next, out);
                    return;
                }
                Instr::Recv { peer, arms } => {
                    let q = layout.peer_map[r][peer.index()] as usize;
                    let ch = (q * n + r) * cap;
                    self.recv_one(layout, r, s, q, arms, ch, out);
                    return;
                }
                // External actions are excluded at layout time; if one is
                // ever reached the session leaves for the slab executor,
                // which can run it.
                _ => {
                    self.demote[s] = true;
                    return;
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn send_one(
        &mut self,
        layout: &BatchLayout,
        r: usize,
        s: usize,
        (event, template): (u32, &ActionTemplate),
        payload: &CExpr,
        wire: u32,
        ch: usize,
        next: u32,
        out: &mut BatchQuantum,
    ) {
        let cap = self.cap;
        let idx = r * cap + s;
        if let Some(limit) = self.options.max_steps {
            if self.steps[idx] as usize >= limit {
                self.statuses[idx] = Some(EndpointStatus::StepLimitReached);
                self.progress[s] = true;
                return;
            }
        }
        let value = match payload.eval_strided(&self.slots[r], cap, s) {
            Ok(value) => value,
            Err(e) => {
                self.fail(idx, s, RuntimeError::from(e));
                return;
            }
        };
        let sort = sort_of_value(&value);
        if template.static_sort.as_ref() != Some(&sort) {
            // The pre-interned action is stale for this payload: demote
            // *before* performing the action, so the slab executor
            // re-evaluates and performs it identically (with the monitor
            // falling back to its own lookups).
            self.demote[s] = true;
            return;
        }
        let interned = template
            .interned
            .as_ref()
            .expect("batch-eligible templates are interned");
        let accepted = layout.system.observe_interned(&mut self.cursors[s], interned);
        self.log(r, s, event, true, accepted, &value);
        // The arena seam: by this point the send is observed and recorded —
        // exactly like a transport-level fault, which strikes after the
        // sender has committed the action.
        match self
            .arena_faults
            .as_mut()
            .and_then(|f| f.decide(&template.peer, &template.label))
        {
            Some(FaultKind::Drop) => {}
            Some(FaultKind::Duplicate) => {
                self.queues[ch + s].push(wire, value.clone());
                self.queues[ch + s].push(wire, value);
            }
            Some(FaultKind::Truncate) => self.queues[ch + s].push(CORRUPT_WIRE, value),
            _ => self.queues[ch + s].push(wire, value),
        }
        self.steps[idx] += 1;
        self.pcs[idx] = next;
        self.progress[s] = true;
        out.actions += 1;
        out.sends += 1;
        if !accepted {
            // Violation: the action was completed first (observed, recorded
            // and delivered), then the session leaves for the slab.
            self.demote[s] = true;
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn recv_one(
        &mut self,
        layout: &BatchLayout,
        r: usize,
        s: usize,
        q: usize,
        arms: &[Arm],
        ch: usize,
        out: &mut BatchQuantum,
    ) {
        let cap = self.cap;
        let idx = r * cap + s;
        if let Some(limit) = self.options.max_steps {
            if self.steps[idx] as usize >= limit {
                self.statuses[idx] = Some(EndpointStatus::StepLimitReached);
                self.progress[s] = true;
                return;
            }
        }
        let Some((wire, value)) = self.queues[ch + s].pop() else {
            // Blocked: no progress recorded, the pc stays put.
            return;
        };
        let Some(arm) = arms
            .iter()
            .find(|arm| layout.label_wire[r][arm.label.index()] == wire)
        else {
            // A wire id outside the label table is a corrupted frame (the
            // arena Truncate fault, or a bug), not a mis-labelled message.
            let err = match layout.labels.get(wire as usize) {
                Some(label) => RuntimeError::UnexpectedMessage {
                    from: layout.roles[q].clone(),
                    label: label.clone(),
                },
                None => RuntimeError::Codec {
                    reason: format!(
                        "corrupted frame in the batch arena from `{}` (wire id {wire})",
                        layout.roles[q]
                    ),
                },
            };
            self.fail(idx, s, err);
            return;
        };
        let template = &layout.programs[r].templates()[arm.event as usize];
        let sort = template
            .static_sort
            .as_ref()
            .expect("batch-eligible templates have static sorts");
        if !value.has_sort(sort) {
            self.fail(
                idx,
                s,
                RuntimeError::BadPayload {
                    from: layout.roles[q].clone(),
                    label: layout.labels[wire as usize].clone(),
                },
            );
            return;
        }
        let interned = template
            .interned
            .as_ref()
            .expect("batch-eligible templates are interned");
        let accepted = layout.system.observe_interned(&mut self.cursors[s], interned);
        self.log(r, s, arm.event, false, accepted, &value);
        self.slots[r][arm.slot as usize * cap + s] = value;
        self.steps[idx] += 1;
        self.pcs[idx] = arm.next;
        self.progress[s] = true;
        out.actions += 1;
        if !accepted {
            self.demote[s] = true;
        }
    }

    /// Counts one observed action and appends it to the session's log —
    /// with its payload while recording, and only if rejected otherwise.
    fn log(&mut self, r: usize, s: usize, event: u32, send: bool, accepted: bool, value: &Value) {
        let position = self.observed[s];
        self.observed[s] += 1;
        if self.record || !accepted {
            self.logs[s].push(LogEntry {
                role: r as u32,
                event,
                position,
                send,
                accepted,
                value: if self.record { value.clone() } else { Value::Unit },
            });
        }
    }

    fn fail(&mut self, idx: usize, s: usize, err: RuntimeError) {
        self.statuses[idx] = Some(EndpointStatus::Failed {
            error: err.to_string(),
        });
        self.progress[s] = true;
    }

    /// Post-pass bookkeeping: flush concluded sessions, pull out demoted
    /// and permanently stuck ones.
    fn settle(&mut self, out: &mut BatchQuantum) {
        let cap = self.cap;
        let n = self.layout.roles.len();
        for s in 0..cap {
            if !self.live[s] {
                continue;
            }
            if self.demote[s] {
                let demoted = self.extract_demoted(s);
                out.demoted.push(demoted);
                continue;
            }
            if (0..n).all(|r| self.statuses[r * cap + s].is_some()) {
                self.conclude(s, false, &mut out.finished);
                continue;
            }
            if !self.progress[s] {
                // A full pass without progress on a self-contained session:
                // nothing can unblock it — hand it to the slab executor,
                // which concludes it as stalled.
                let demoted = self.extract_demoted(s);
                out.demoted.push(demoted);
            }
        }
    }

    fn extract_demoted(&mut self, s: usize) -> DemotedSession {
        let layout = Arc::clone(&self.layout);
        let cap = self.cap;
        let n = layout.roles.len();
        let rebuilt = rebuild(&layout, self.record, self.logs[s].drain(..));
        let mut endpoints = Vec::with_capacity(n);
        for (r, actions) in rebuilt.actions.into_iter().enumerate() {
            let idx = r * cap + s;
            let slot_count = layout.slot_counts[r];
            let mut slots = Vec::with_capacity(slot_count);
            for k in 0..slot_count {
                slots.push(mem::replace(&mut self.slots[r][k * cap + s], Value::Unit));
            }
            endpoints.push(DemotedEndpoint {
                role: layout.roles[r].clone(),
                program: Arc::clone(&layout.programs[r]),
                pc: self.pcs[idx],
                slots,
                actions,
                steps: self.steps[idx] as usize,
                status: self.statuses[idx].take(),
            });
        }
        let observed = self.observed[s] as usize;
        let monitor = CompiledMonitor::resume(
            Arc::clone(&layout.system),
            mem::replace(&mut self.cursors[s], layout.system.monitor_cursor()),
            rebuilt.trace,
            observed - rebuilt.violations.len(),
            rebuilt.violations,
            observed,
            self.record,
        );
        let mut frames = Vec::new();
        for from in 0..n {
            for to in 0..n {
                let queue = &mut self.queues[(from * n + to) * cap + s];
                while let Some((wire, value)) = queue.pop() {
                    // A corrupted in-flight frame keeps a deliberately
                    // unknown label, so the slab receiver rejects it just
                    // as the batch receiver would have.
                    let label = layout
                        .labels
                        .get(wire as usize)
                        .cloned()
                        .unwrap_or_else(|| Label::new("\u{fffd}corrupt"));
                    frames.push((from as u32, to as u32, label, value));
                }
            }
        }
        let token = self.tokens[s];
        let options = self.options.clone();
        self.release(s);
        DemotedSession {
            token,
            options,
            endpoints,
            monitor,
            frames,
        }
    }

    /// Moves a concluded session into `block`: its summary, its log and
    /// its endpoint statuses (an endpoint that had not concluded is
    /// reported stalled). The slot's log keeps its capacity.
    fn conclude(&mut self, s: usize, stalled: bool, block: &mut OutcomeBlock) {
        let cap = self.cap;
        let log = &mut self.logs[s];
        let violations = log.iter().filter(|e| !e.accepted).count();
        block.sessions.push(FinishedSession {
            token: self.tokens[s],
            compliant: violations == 0,
            complete: self.layout.system.is_terminated(&self.cursors[s]),
            stalled,
            violations,
            actions: if self.record { self.observed[s] as usize } else { 0 },
            logged: log.len(),
        });
        block.log.append(log);
        for r in 0..self.layout.roles.len() {
            let status = self.statuses[r * cap + s].take();
            block.statuses.push(status.unwrap_or(EndpointStatus::Stalled));
        }
        self.release(s);
    }

    /// Returns a slot to the free list with its value cells scrubbed, so
    /// [`SessionBatch::admit`] can assume clean columns.
    fn release(&mut self, s: usize) {
        let cap = self.cap;
        let n = self.layout.roles.len();
        self.logs[s].clear();
        for r in 0..n {
            let idx = r * cap + s;
            self.statuses[idx] = None;
            for k in 0..self.layout.slot_counts[r] {
                self.slots[r][k * cap + s] = Value::Unit;
            }
        }
        for ch in 0..n * n {
            self.queues[ch * cap + s].clear();
        }
        self.live[s] = false;
        self.live_count -= 1;
        self.free.push(s as u32);
    }
}

/// Same fuel semantics as the per-session compiled executor (see
/// `cexec::CompiledEndpointTask::admin_tick`): a backward jump resets the
/// straight-line counter and spends one bounded back-edge.
fn admin_tick(
    admin: &mut usize,
    back_edges: &mut usize,
    from_pc: u32,
    to_pc: u32,
) -> Result<(), RuntimeError> {
    if to_pc <= from_pc {
        *admin = 0;
        *back_edges += 1;
        if *back_edges > ADMIN_FUEL {
            return Err(RuntimeError::Process(zooid_proc::ProcError::Stuck {
                context: "recursion does not reach a communication".to_owned(),
            }));
        }
    }
    *admin += 1;
    if *admin >= ADMIN_FUEL {
        return Err(RuntimeError::Process(zooid_proc::ProcError::Stuck {
            context: "internal actions did not terminate within the fuel bound".to_owned(),
        }));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_cfsm::System;
    use zooid_mpst::global::GlobalType;
    use zooid_mpst::{generators, Sort};
    use zooid_proc::{CompiledProc, Expr, Externals, Proc};

    fn layout(g: &GlobalType, procs: &[(Role, Proc)]) -> Arc<BatchLayout> {
        let system = Arc::new(System::from_global(g).expect("projectable").compile());
        let roles: Arc<[Role]> = procs.iter().map(|(r, _)| r.clone()).collect();
        let programs = procs
            .iter()
            .map(|(role, proc)| {
                let compiled = CompiledProc::compile(proc, role, &Externals::new()).unwrap();
                Arc::new(EndpointProgram::with_system(Arc::new(compiled), &system))
            })
            .collect();
        BatchLayout::new(roles, programs, system).expect("eligible")
    }

    /// ring/3 with values: Alice sends 1, each hop adds 10.
    fn ring3_layout() -> Arc<BatchLayout> {
        let forward = |from: &str, to: &str| {
            Proc::recv1(
                Role::new(from),
                "l",
                Sort::Nat,
                "x",
                Proc::send(
                    Role::new(to),
                    "l",
                    Expr::add(Expr::var("x"), Expr::lit(10u64)),
                    Proc::Finish,
                ),
            )
        };
        let procs = [
            (
                Role::new("Alice"),
                Proc::send(
                    Role::new("Bob"),
                    "l",
                    Expr::lit(1u64),
                    Proc::recv1(Role::new("Carol"), "l", Sort::Nat, "y", Proc::Finish),
                ),
            ),
            (Role::new("Bob"), forward("Alice", "Carol")),
            (Role::new("Carol"), forward("Bob", "Alice")),
        ];
        layout(&generators::ring3(), &procs)
    }

    /// Four sessions closed mid-flight at different depths: tokens 0 and 1
    /// ran two passes, 2 and 3 one, so their logs differ in length.
    fn staggered_block(layout: &Arc<BatchLayout>) -> OutcomeBlock {
        let mut batch = SessionBatch::new(Arc::clone(layout), ExecOptions::default(), 4);
        assert!(batch.admit(0) && batch.admit(1));
        assert!(batch.run_quantum(1).finished.is_empty());
        assert!(batch.admit(2) && batch.admit(3));
        assert!(batch.run_quantum(1).finished.is_empty());
        batch.close_all()
    }

    #[test]
    fn skipping_a_session_keeps_the_block_aligned_with_its_log() {
        let layout = ring3_layout();
        let full: Vec<String> = staggered_block(&layout)
            .into_iter()
            .map(|o| format!("{o:?}"))
            .collect();
        let block = staggered_block(&layout);
        let logged: Vec<usize> = block.iter().map(|s| s.actions).collect();
        assert_eq!(block.len(), 4);
        assert!(logged[0] > logged[3], "staggered depths: {logged:?}");
        let mut outcomes = block.into_iter();
        for (i, expected) in full.iter().enumerate() {
            // The log and statuses left are exactly the remaining sessions'.
            let left: usize = outcomes.sessions.as_slice().iter().map(|s| s.logged).sum();
            assert_eq!(outcomes.log.len(), left);
            assert_eq!(outcomes.statuses.len(), (4 - i) * layout.roles.len());
            let summary = outcomes.peek().expect("four sessions").clone();
            if i % 2 == 0 {
                assert_eq!(outcomes.skip_one(), Some(summary));
                continue;
            }
            let outcome = outcomes.next().expect("four sessions");
            assert_eq!(&format!("{outcome:?}"), expected);
            assert!(outcome.stalled && summary.stalled);
            assert_eq!(outcome.token, summary.token);
            let recorded: usize = outcome.endpoints.iter().map(|r| r.actions.len()).sum();
            assert_eq!(recorded, summary.actions);
            assert_eq!(outcome.global_trace.len(), summary.actions);
        }
        assert_eq!(outcomes.next().map(|o| o.token), None);
        assert_eq!(outcomes.log.len() + outcomes.statuses.len(), 0, "nothing left behind");
    }

    #[test]
    fn violations_rebuild_alike_with_recording_on_and_off() {
        // p → q: a, b, c; p sends a, then c out of turn. The monitor
        // accepts a's send and receive, then rejects c's send: position 2,
        // after a compliant trace of 2.
        let (p, q) = (Role::new("p"), Role::new("q"));
        let msg = |l: &str, k| GlobalType::msg1(p.clone(), q.clone(), l, Sort::Nat, k);
        let g = msg("a", msg("b", msg("c", GlobalType::End)));
        let send = |l: &str, k| Proc::send(q.clone(), l, Expr::lit(1u64), k);
        let recv = |l: &str, k| Proc::recv1(p.clone(), l, Sort::Nat, "x", k);
        let procs = [
            (p.clone(), send("a", send("c", send("b", Proc::Finish)))),
            (q.clone(), recv("a", recv("b", recv("c", Proc::Finish)))),
        ];
        let layout = layout(&g, &procs);
        for record in [true, false] {
            let options = ExecOptions::default().record_actions(record);
            let mut batch = SessionBatch::new(Arc::clone(&layout), options, 2);
            assert!(batch.admit(0) && batch.admit(1));
            let out = batch.run_quantum(usize::MAX);
            assert_eq!(out.demoted.len(), 2, "the violators demote");
            for demoted in &out.demoted {
                let monitor = &demoted.monitor;
                let violations = monitor.violations();
                assert_eq!(violations.len(), 1, "record={record}");
                assert_eq!((violations[0].position, violations[0].trace_len), (2, 2));
                assert_eq!(violations[0].action.label(), &Label::new("c"));
                assert_eq!((monitor.observed(), monitor.accepted()), (3, 2));
                assert_eq!(monitor.trace().len(), if record { 2 } else { 0 });
            }
        }
    }
}
