//! Differential tests: the columnar batch executor
//! ([`SessionBatch`]) against the per-session compiled executor
//! ([`CompiledEndpointTask`]) and the tree-walking oracle
//! ([`EndpointTask`]) — the exhaustive-oracle pattern the ROADMAP mandates
//! for every engine replacement, applied to the batched data plane.
//!
//! A batch steps whole populations of identical sessions in `(role, pc)`
//! cohorts over columnar state; the per-session engines run one session at
//! a time. Because deterministic endpoints have schedule-independent
//! per-endpoint traces and verdicts, every co-batched copy must be
//! observably identical to the stand-alone run:
//!
//! * per-endpoint statuses (`Finished` / `StepLimitReached` / `Stalled` /
//!   `Failed` with the same error string),
//! * per-endpoint value-level traces,
//! * the monitor's verdicts (compliance, completion) — including sessions
//!   that **demote** mid-flight (violations, stalls) and finish on the
//!   per-session executor with their traces, monitor cursor and in-flight
//!   frames carried over.

use std::collections::BTreeMap;
use std::sync::Arc;

use zooid_cfsm::System;
use zooid_mpst::global::GlobalType;
use zooid_mpst::local::LocalType;
use zooid_mpst::projection::project_all;
use zooid_mpst::{generators, Role, Sort};
use zooid_proc::{erase, CompiledProc, Expr, Externals, Proc, RecvAlt, Value, ValueAction};
use zooid_runtime::cbatch::{BatchLayout, BatchOutcome, DemotedSession, SessionBatch};
use zooid_runtime::cexec::{CompiledEndpointTask, EndpointProgram};
use zooid_runtime::exec::{EndpointStatus, EndpointTask, ExecOptions, StepOutcome};
use zooid_runtime::monitor::CompiledMonitor;
use zooid_runtime::transport::{InMemoryNetwork, Transport};

// ---------------------------------------------------------------------
// Skeleton synthesis (first-branch sends, default payloads) — the same
// construction the server's load generator uses, kept local because this
// crate sits below `zooid-server`.
// ---------------------------------------------------------------------

fn default_expr(sort: &Sort) -> Option<Expr> {
    match sort {
        Sort::Unit => Some(Expr::unit()),
        Sort::Nat => Some(Expr::lit(0u64)),
        Sort::Int => Some(Expr::lit(0i64)),
        Sort::Bool => Some(Expr::lit(false)),
        Sort::Str => Some(Expr::lit("")),
        Sort::Prod(a, b) => Some(Expr::pair(default_expr(a)?, default_expr(b)?)),
        Sort::Sum(..) | Sort::Seq(_) => None,
    }
}

fn skeleton_proc(local: &LocalType) -> Option<Proc> {
    match local {
        LocalType::End => Some(Proc::Finish),
        LocalType::Var(i) => Some(Proc::Jump(*i)),
        LocalType::Rec(body) => Some(Proc::loop_(skeleton_proc(body)?)),
        LocalType::Send { to, branches } => {
            let branch = branches.first()?;
            Some(Proc::send(
                to.clone(),
                branch.label.clone(),
                default_expr(&branch.sort)?,
                skeleton_proc(&branch.cont)?,
            ))
        }
        LocalType::Recv { from, branches } => {
            let alts = branches
                .iter()
                .map(|b| {
                    Some(RecvAlt::new(
                        b.label.clone(),
                        b.sort.clone(),
                        "_x",
                        skeleton_proc(&b.cont)?,
                    ))
                })
                .collect::<Option<Vec<_>>>()?;
            Some(Proc::recv(from.clone(), alts))
        }
    }
}

fn skeleton_endpoints(g: &GlobalType) -> Option<Vec<(Role, Proc)>> {
    project_all(g)
        .ok()?
        .into_iter()
        .map(|(role, local)| Some((role, skeleton_proc(&local)?)))
        .collect()
}

// ---------------------------------------------------------------------
// What every engine must agree on. The *order* of the monitor's global
// trace is schedule-dependent (the batch interleaves sessions its own
// way), so the comparison is per-endpoint traces plus verdicts.
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq)]
struct Observed {
    statuses: BTreeMap<Role, EndpointStatus>,
    traces: BTreeMap<Role, Vec<ValueAction>>,
    compliant: bool,
    complete: bool,
}

/// Builds the shared batch layout for one proc per role, compiled against
/// the protocol's transition tables. `None` when not batch-eligible.
fn make_layout(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    externals: &Externals,
) -> Option<Arc<BatchLayout>> {
    let system = Arc::new(System::from_global(g).expect("projectable").compile());
    let mut sorted = procs.to_vec();
    sorted.sort_by(|a, b| a.0.cmp(&b.0));
    let roles: Arc<[Role]> = sorted
        .iter()
        .map(|(r, _)| r.clone())
        .collect::<Vec<_>>()
        .into();
    let programs: Vec<Arc<EndpointProgram>> = sorted
        .iter()
        .map(|(role, proc)| {
            Arc::new(EndpointProgram::with_system(
                Arc::new(
                    CompiledProc::compile(proc, role, externals).expect("skeletons compile"),
                ),
                &system,
            ))
        })
        .collect();
    BatchLayout::new(roles, programs, system)
}

/// Runs one session stand-alone on the per-session compiled executor (or
/// the tree oracle), cooperatively on one thread, and returns the
/// observable outcome.
fn run_reference(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    compiled: bool,
) -> Observed {
    let mut network = InMemoryNetwork::new(procs.iter().map(|(r, _)| r.clone()));
    let system = Arc::new(System::from_global(g).expect("projectable").compile());
    let mut monitor = CompiledMonitor::new(Arc::clone(&system));
    monitor.set_record_trace(options.record_actions);

    enum AnyTask {
        Tree(EndpointTask),
        Compiled(CompiledEndpointTask),
    }
    let mut tasks: Vec<(Role, AnyTask, _)> = procs
        .iter()
        .map(|(role, proc)| {
            let transport = network.take_endpoint(role).expect("unique roles");
            let task = if compiled {
                let program = Arc::new(EndpointProgram::with_system(
                    Arc::new(
                        CompiledProc::compile(proc, role, &Externals::new())
                            .expect("skeletons compile"),
                    ),
                    &system,
                ));
                AnyTask::Compiled(CompiledEndpointTask::new(
                    program,
                    Externals::new(),
                    options.clone(),
                ))
            } else {
                AnyTask::Tree(EndpointTask::new(
                    proc.clone(),
                    role.clone(),
                    Externals::new(),
                    options.clone(),
                ))
            };
            (role.clone(), task, transport)
        })
        .collect();

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds < 100_000, "cooperative schedule must terminate");
        let mut progressed = false;
        for (_, task, transport) in tasks.iter_mut() {
            loop {
                let outcome = match task {
                    AnyTask::Tree(t) => t.step(transport, &mut |va| {
                        monitor.observe(&erase(va));
                    }),
                    AnyTask::Compiled(t) => t.step_mem(transport, &mut |va, interned| {
                        match interned {
                            Some(interned) => {
                                monitor.observe_interned(interned, || erase(va));
                            }
                            None => {
                                monitor.observe(&erase(va));
                            }
                        }
                    }),
                };
                match outcome {
                    StepOutcome::Progress => progressed = true,
                    _ => break,
                }
            }
        }
        let done = tasks.iter().all(|(_, t, _)| match t {
            AnyTask::Tree(t) => t.is_done(),
            AnyTask::Compiled(t) => t.is_done(),
        });
        if done {
            break;
        }
        if !progressed {
            for (_, task, _) in tasks.iter_mut() {
                match task {
                    AnyTask::Tree(t) => t.mark_stalled(),
                    AnyTask::Compiled(t) => t.mark_stalled(),
                }
            }
            break;
        }
    }

    let mut statuses = BTreeMap::new();
    let mut traces = BTreeMap::new();
    for (role, task, transport) in tasks {
        let report = match task {
            AnyTask::Tree(t) => t.into_report(),
            AnyTask::Compiled(t) => t.into_report(),
        };
        statuses.insert(role.clone(), report.status);
        traces.insert(role, report.actions);
        drop(transport);
    }
    Observed {
        statuses,
        traces,
        compliant: monitor.is_compliant(),
        complete: monitor.is_complete(),
    }
}

fn observed_outcome(outcome: BatchOutcome) -> Observed {
    Observed {
        statuses: outcome
            .endpoints
            .iter()
            .map(|r| (r.role.clone(), r.status.clone()))
            .collect(),
        traces: outcome
            .endpoints
            .into_iter()
            .map(|r| (r.role, r.actions))
            .collect(),
        compliant: outcome.compliant,
        complete: outcome.complete,
    }
}

/// Resumes a demoted session on the per-session compiled executor — the
/// exact handoff the server performs — and runs it to its conclusion.
fn finish_demoted(demoted: DemotedSession, layout: &Arc<BatchLayout>) -> Observed {
    let DemotedSession {
        options,
        endpoints,
        mut monitor,
        frames,
        ..
    } = demoted;
    let mut network = InMemoryNetwork::from_sorted(Arc::clone(layout.roles()));
    let roles: Vec<Role> = endpoints.iter().map(|ep| ep.role.clone()).collect();
    let mut tasks: Vec<(Role, CompiledEndpointTask, _)> = endpoints
        .into_iter()
        .map(|ep| {
            let transport = network.take_endpoint(&ep.role).expect("sorted roles");
            let role = ep.role.clone();
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
            (role, task, transport)
        })
        .collect();
    // Re-inject the frames that were in flight in the batch arena; sending
    // through the original sender's transport preserves per-channel FIFO.
    for (from, to, label, value) in frames {
        let (_, _, transport) = &mut tasks[from as usize];
        transport
            .send(&roles[to as usize], &label, &value)
            .expect("co-batched roles are network peers");
    }

    let mut rounds = 0usize;
    loop {
        rounds += 1;
        assert!(rounds < 100_000, "resumed session must terminate");
        let mut progressed = false;
        for (_, task, transport) in tasks.iter_mut() {
            while let StepOutcome::Progress = task.step_mem(transport, &mut |va, interned| match interned {
                Some(interned) => {
                    monitor.observe_interned(interned, || erase(va));
                }
                None => {
                    monitor.observe(&erase(va));
                }
            }) {
                progressed = true;
            }
        }
        if tasks.iter().all(|(_, t, _)| t.is_done()) {
            break;
        }
        if !progressed {
            for (_, task, _) in tasks.iter_mut() {
                task.mark_stalled();
            }
            break;
        }
    }

    let mut statuses = BTreeMap::new();
    let mut traces = BTreeMap::new();
    for (role, task, transport) in tasks {
        let report = task.into_report();
        statuses.insert(role.clone(), report.status);
        traces.insert(role, report.actions);
        drop(transport);
    }
    Observed {
        statuses,
        traces,
        compliant: monitor.is_compliant(),
        complete: monitor.is_complete(),
    }
}

/// Runs `copies` identical sessions through one batch to their conclusion
/// (demoted stragglers are finished on the per-session executor, as on the
/// server) and returns each session's observation, in admission order.
fn run_batch(layout: &Arc<BatchLayout>, options: &ExecOptions, copies: usize) -> Vec<Observed> {
    let mut batch = SessionBatch::new(Arc::clone(layout), options.clone(), copies);
    for token in 0..copies {
        assert!(batch.admit(token as u64), "batch sized for the population");
    }
    let out = batch.run_quantum(usize::MAX);
    assert!(
        batch.is_empty(),
        "an unbounded quantum concludes or demotes every session"
    );
    let mut results: Vec<(u64, Observed)> = Vec::with_capacity(copies);
    for outcome in out.finished {
        results.push((outcome.token, observed_outcome(outcome)));
    }
    for demoted in out.demoted {
        let token = demoted.token;
        results.push((token, finish_demoted(demoted, layout)));
    }
    results.sort_by_key(|(token, _)| *token);
    assert_eq!(results.len(), copies, "every admitted session reports");
    results.into_iter().map(|(_, observed)| observed).collect()
}

/// Requires tree, per-session compiled and every co-batched copy (at each
/// width) to agree exactly.
fn assert_batch_agrees(
    g: &GlobalType,
    procs: &[(Role, Proc)],
    options: &ExecOptions,
    widths: &[usize],
    context: &str,
) {
    let reference = run_reference(g, procs, options, true);
    let tree = run_reference(g, procs, options, false);
    assert_eq!(reference, tree, "{context}: slab-compiled vs tree diverge");
    let layout =
        make_layout(g, procs, &Externals::new()).expect("skeleton layouts are batch-eligible");
    for &width in widths {
        for (i, observed) in run_batch(&layout, options, width).into_iter().enumerate() {
            assert_eq!(
                observed, reference,
                "{context}: batched copy {i} of {width} diverges"
            );
        }
    }
}

// ---------------------------------------------------------------------
// The suites
// ---------------------------------------------------------------------

#[test]
fn batch_agrees_with_slab_and_tree_on_the_case_studies() {
    let cases: Vec<(&str, GlobalType, ExecOptions)> = vec![
        ("ring3", generators::ring3(), ExecOptions::default()),
        ("ring8", generators::ring_n(8), ExecOptions::default()),
        ("two_buyer", generators::two_buyer(), ExecOptions::default()),
        ("fanout5", generators::fanout_n(5), ExecOptions::default()),
        ("branching3", generators::branching(3), ExecOptions::default()),
        // The looping families run to their step limit; the endpoint that
        // then blocks forever exercises the no-progress demotion path.
        ("pipeline", generators::pipeline(), ExecOptions::with_max_steps(12)),
        ("chain5", generators::chain_n(5), ExecOptions::with_max_steps(9)),
        ("ping_pong", generators::ping_pong(), ExecOptions::with_max_steps(7)),
    ];
    for (name, g, options) in cases {
        let procs = skeleton_endpoints(&g).expect("case studies synthesize");
        assert_batch_agrees(&g, &procs, &options, &[1, 5, 64], name);
    }
}

#[test]
fn batch_agrees_on_randomized_projectable_protocols() {
    let params = generators::RandomProtocol::default();
    let options = ExecOptions::with_max_steps(24);
    let mut covered = 0;
    for seed in 0..400u64 {
        if covered >= 20 {
            break;
        }
        let g = generators::random_global(seed, &params);
        let Some(procs) = skeleton_endpoints(&g) else {
            continue;
        };
        if make_layout(&g, &procs, &Externals::new()).is_none() {
            continue;
        }
        covered += 1;
        assert_batch_agrees(&g, &procs, &options, &[4], &format!("seed {seed}"));
    }
    assert!(covered >= 10, "corpus too small: {covered}");
}

#[test]
fn batch_agrees_with_recording_off() {
    let g = generators::ring3();
    let procs = skeleton_endpoints(&g).expect("ring synthesizes");
    let options = ExecOptions::default().record_actions(false);
    let reference = run_reference(&g, &procs, &options, true);
    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");
    for observed in run_batch(&layout, &options, 16) {
        assert_eq!(observed, reference);
        assert!(observed.traces.values().all(Vec::is_empty));
        assert!(observed.compliant && observed.complete);
    }
}

#[test]
fn external_actions_make_a_layout_ineligible() {
    // p reads a nat from the environment before sending it: correct on the
    // per-session engines, but external closures cannot run columnar.
    let g = GlobalType::msg1(
        Role::new("p"),
        Role::new("q"),
        "good",
        Sort::Nat,
        GlobalType::End,
    );
    let mut externals = Externals::new();
    externals.register_read("env", Sort::Nat, || Value::Nat(7));
    let with_read = vec![
        (
            Role::new("p"),
            Proc::read(
                "env",
                "x",
                Proc::send(Role::new("q"), "good", Expr::var("x"), Proc::Finish),
            ),
        ),
        (
            Role::new("q"),
            Proc::recv1(Role::new("p"), "good", Sort::Nat, "x", Proc::Finish),
        ),
    ];
    assert!(make_layout(&g, &with_read, &externals).is_none());
    // The same protocol without the external is eligible.
    let plain = skeleton_endpoints(&g).expect("synthesizes");
    assert!(make_layout(&g, &plain, &Externals::new()).is_some());
}

#[test]
fn mid_flight_demotion_carries_traces_cursor_and_frames() {
    // Roles named so the *sender* sorts after the receiver: the batch pass
    // steps `a` (blocked) before `z` (sends), leaving the frame in flight
    // in the arena when the quantum ends — the handoff must re-inject it.
    let z = Role::new("z");
    let a = Role::new("a");
    let g = GlobalType::msg1(
        z.clone(),
        a.clone(),
        "one",
        Sort::Nat,
        GlobalType::msg1(z.clone(), a.clone(), "two", Sort::Nat, GlobalType::End),
    );
    let procs = vec![
        (
            z.clone(),
            Proc::send(
                a.clone(),
                "one",
                Expr::lit(1u64),
                Proc::send(a.clone(), "two", Expr::lit(2u64), Proc::Finish),
            ),
        ),
        (
            a.clone(),
            Proc::recv1(
                z.clone(),
                "one",
                Sort::Nat,
                "x",
                Proc::recv1(z.clone(), "two", Sort::Nat, "y", Proc::Finish),
            ),
        ),
    ];
    let options = ExecOptions::default();
    let reference = run_reference(&g, &procs, &options, true);
    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");

    let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 4);
    for token in 0..4u64 {
        assert!(batch.admit(token));
    }
    // One pass: `z` performed its first send, `a` saw an empty queue.
    let out = batch.run_quantum(1);
    assert!(out.finished.is_empty() && out.demoted.is_empty());
    assert_eq!(batch.live_count(), 4);

    // Pull half the population out mid-flight and finish it on the
    // per-session executor; the rest concludes inside the batch.
    let mut results: Vec<(u64, Observed)> = Vec::new();
    for token in 0..2u64 {
        let demoted = batch.demote_now(token).expect("live session");
        assert_eq!(demoted.token, token);
        assert!(
            !demoted.frames.is_empty(),
            "the first send was still in flight"
        );
        assert!(
            demoted.endpoints.iter().any(|ep| ep.steps > 0),
            "the sender's progress is carried over"
        );
        results.push((token, finish_demoted(demoted, &layout)));
    }
    let rest = batch.run_quantum(usize::MAX);
    assert!(batch.is_empty());
    assert!(rest.demoted.is_empty());
    for outcome in rest.finished {
        results.push((outcome.token, observed_outcome(outcome)));
    }
    assert_eq!(results.len(), 4);
    for (token, observed) in results {
        assert_eq!(observed, reference, "session {token}");
    }
}

#[test]
fn violating_sessions_demote_after_the_offending_action_and_agree() {
    // Both labels exist in the protocol (so the sites intern and the layout
    // is eligible), but `p` performs them in the wrong order: the monitor
    // rejects the first send, the batch completes that action and then
    // demotes the session, and the slab finishes it — with verdicts and
    // traces identical to running the saboteur per-session from the start.
    let p = Role::new("p");
    let q = Role::new("q");
    let g = GlobalType::msg1(
        p.clone(),
        q.clone(),
        "first",
        Sort::Nat,
        GlobalType::msg1(p.clone(), q.clone(), "second", Sort::Nat, GlobalType::End),
    );
    let procs = vec![
        (
            p.clone(),
            Proc::send(
                q.clone(),
                "second",
                Expr::lit(2u64),
                Proc::send(q.clone(), "first", Expr::lit(1u64), Proc::Finish),
            ),
        ),
        (
            q.clone(),
            Proc::recv1(
                p.clone(),
                "second",
                Sort::Nat,
                "x",
                Proc::recv1(p.clone(), "first", Sort::Nat, "y", Proc::Finish),
            ),
        ),
    ];
    let options = ExecOptions::default();
    let reference = run_reference(&g, &procs, &options, true);
    let tree = run_reference(&g, &procs, &options, false);
    assert_eq!(reference, tree);
    assert!(!reference.compliant, "the saboteur violates the protocol");

    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");
    let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 8);
    for token in 0..8u64 {
        assert!(batch.admit(token));
    }
    let out = batch.run_quantum(usize::MAX);
    assert!(batch.is_empty());
    assert_eq!(out.demoted.len(), 8, "every violating session demotes");
    assert!(out.finished.is_empty());
    for demoted in out.demoted {
        let observed = finish_demoted(demoted, &layout);
        assert_eq!(observed, reference);
    }
}

#[test]
fn value_flow_matches_through_columns() {
    // Values computed from received payloads must match exactly through the
    // strided column evaluation: Alice sends 1, each hop adds 10, Alice
    // receives 21.
    let g = generators::ring3();
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
    let procs = vec![
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
    let options = ExecOptions::default();
    let reference = run_reference(&g, &procs, &options, true);
    let layout = make_layout(&g, &procs, &Externals::new()).expect("eligible");
    for observed in run_batch(&layout, &options, 32) {
        assert_eq!(observed, reference);
        let last = observed.traces[&Role::new("Alice")].last().unwrap().clone();
        assert_eq!(last.value, Value::Nat(21));
    }
}
