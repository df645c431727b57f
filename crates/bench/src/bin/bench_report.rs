//! Emits a machine-readable benchmark report (`BENCH_pr13.json`) so future
//! PRs can track the performance trajectory of the hot paths.
//!
//! For every scalable protocol family (`ring`, `chain`, `fanout`) at sizes
//! 2/8/32/128 it records the median wall-clock nanoseconds of:
//!
//! * `unravel`      — [`unravel_global`];
//! * `projection`   — [`project_all`];
//! * `trace_equiv`  — the on-the-fly [`check_trace_equivalence`] (depth 8 up
//!   to size 32, depth 4 at size 128 to keep the exhaustive baseline
//!   tractable);
//! * `cfsm_explore` — the interned CFSM engine ([`System::explore`]) at
//!   channel bound 2, capped at a fixed number of visited configurations so
//!   every family stays tractable at size 128.
//!
//! Two families track the exploration modes added in PR 4:
//!
//! * `cfsm_explore_por` — the ample-set partial-order reduction
//!   ([`System::explore_por`]) against the full interned engine
//!   ([`System::explore`]) at the same channel bound and configuration
//!   budget. On the concurrent families the reduction collapses the
//!   interleaving space to its causal skeleton, so the same (identical!)
//!   verdict arrives after a fraction of the configurations; the harness
//!   asserts verdict agreement before timing. Two cases run at the protocol
//!   registry's default safety budget (bound 2, 50 000 configurations),
//!   where both searches hit the cap: they track what registering a large
//!   protocol costs;
//! * `cfsm_explore_par` — the work-stealing parallel frontier
//!   ([`System::explore_parallel`]) at 1/2/4 worker threads on the largest
//!   residual (post-reduction) state space, baselined against its own
//!   single-thread run. Observed scaling is bounded by the CPUs the
//!   container actually grants (this harness records, it does not assume).
//!
//! Three families track the serving layer (PR 3, rebuilt on the compiled
//! data plane in PR 5):
//!
//! * `endpoint_step` — per-visible-action cost of the **compiled** endpoint
//!   executor ([`CompiledEndpointTask`]: program counter + slot array,
//!   dense-indexed transport, no codec) against the tree-walking
//!   [`EndpointTask`] running the same looping sessions (recursive
//!   chain/fanout at several sizes) cooperatively on one thread to a fixed
//!   step budget. Both sides run in *quiet* mode (no observer, trace
//!   recording off — the fire-and-forget configuration) so the family
//!   measures stepping itself; per-action monitoring cost is tracked
//!   separately by `monitor_action`;
//! * `server_throughput` — wall-clock of a whole batch of concurrent
//!   in-memory sessions (10,000 in full mode) on the sharded
//!   `zooid_server::SessionServer`, at 1 and 4 worker shards (plus a
//!   4-shard `notrace` case with per-endpoint trace recording off — the
//!   fire-and-forget configuration); the baseline is the
//!   thread-per-participant [`SessionHarness`] running the same workload
//!   (measured on a smaller batch and scaled per-session, since spawning 3
//!   threads per session makes large batches pointless);
//! * `monitor_action` — per-action cost of the `CompiledMonitor` (dense
//!   interned transition tables) on a compliant trace, against the
//!   `TraceMonitor` (boxed global-LTS replay) observing the same trace.
//!
//! One family tracks the networked serving plane added in PR 7:
//!
//! * `server_throughput_tcp` — wall-clock of the same session batch served
//!   over real loopback sockets by the event-driven
//!   [`zooid_server::NetServer`] (one non-blocking IO thread, framed
//!   multiplexed wire protocol, client threads windowing their opens and
//!   awaiting `Done` frames), baselined against the in-memory 4-shard
//!   `server_throughput` figure from the same run — the delta *is* the
//!   wire.
//!
//! Two families track the columnar data plane added in PR 6:
//!
//! * `batch_step` — per-visible-action cost of the **columnar batch
//!   executor** ([`zooid_runtime::SessionBatch`]: struct-of-arrays state,
//!   `(role, pc)` cohort stepping, shared frame arena, zero-hash
//!   monitoring) running whole populations of identical monitored sessions,
//!   against the per-session compiled executor plus `CompiledMonitor` — the
//!   slab configuration the server falls back to — running the same
//!   sessions one at a time. Both sides are fire-and-forget (trace
//!   recording off); measured at several batch widths, plus `/record`
//!   cases where both sides record traces and the batch side rebuilds each
//!   outcome from its compact block;
//! * `batch_handoff` — per-session cost of a recording batch whose
//!   outcomes are rebuilt and dropped on a second thread (the server's
//!   shape), against the same batches consumed on the stepping thread,
//!   alternated in one run.
//!
//! One family tracks the observability plane added in PR 8:
//!
//! * `obs_overhead` — the same columnar batch stepping with the shard
//!   worker's full observability instrumentation attached (flight-recorder
//!   admission events, per-quantum clock reads into the per-action
//!   histogram, the cohort-width fold, session wall-time recording per
//!   outcome) against the bare loop. The ratio is the whole cost of the
//!   recorder and must stay within noise; `scripts/ci.sh` asserts it.
//!
//! One family tracks the hostile-world plane added in PR 9:
//!
//! * `fault_overhead` — whole sessions driven with every endpoint wrapped
//!   in an **empty-plan** [`zooid_runtime::faults::FaultyTransport`] (the
//!   bystander configuration of the hostile campaign suite) against the
//!   same cooperative schedule on the bare in-memory transport. With no
//!   fault specs the wrapper never consults its PRNG; the delta is pure
//!   per-operation bookkeeping (the counted-op and tick clocks) and must
//!   stay within noise; `scripts/ci.sh` asserts the ratio.
//!
//! Each remaining entry also carries a `baseline_ns`:
//!
//! * for `unravel`/`projection`, the seed implementation's medians, measured
//!   with the same vendored-criterion harness on the same machine at the seed
//!   commit (before the interning/memoisation rework of PR 1);
//! * for `trace_equiv`, the medians of the retained set-based reference
//!   checker ([`check_trace_equivalence_exhaustive`]), measured live in the
//!   same run;
//! * for `cfsm_explore`, the medians of the retained explicit-state explorer
//!   ([`System::explore_exhaustive`]), measured live in the same run over
//!   the *same* visited-configuration budget (the harness asserts both
//!   engines visit identical configuration counts before timing them).
//!
//! Run with `cargo run --release -p zooid-bench --bin bench-report`; writes
//! `BENCH_pr13.json` in the current directory. `--smoke` shrinks sizes and
//! budgets for CI smoke runs, `--out PATH` redirects the report.

use std::sync::Arc;
use std::time::Instant;

use zooid_cfsm::System;
use zooid_dsl::Protocol;
use zooid_mpst::common::intern::FxHashMap;
use zooid_mpst::generators;
use zooid_mpst::global::unravel_global;
use zooid_mpst::global::GlobalType;
use zooid_mpst::projection::project_all;
use zooid_mpst::trace_equiv::{check_trace_equivalence, check_trace_equivalence_exhaustive};
use zooid_mpst::{Action, Label, Role, Sort};
use zooid_cfsm::CompiledSystem;
use zooid_proc::{erase, CompiledProc, Externals, Proc};
use zooid_runtime::cbatch::{BatchLayout, OutcomeBlock, SessionBatch};
use zooid_runtime::checkpoint::SessionCheckpoint;
use zooid_runtime::wal::{encode_quantum, encode_quantum_naive, WalIndexer};
use zooid_runtime::cexec::{CompiledEndpointTask, EndpointProgram};
use zooid_runtime::exec::{EndpointTask, ExecOptions, StepOutcome};
use zooid_runtime::faults::{FaultPlan, FaultyTransport};
use zooid_runtime::transport::{InMemoryNetwork, InMemoryTransport, Transport};
use zooid_runtime::{CompiledMonitor, SessionHarness, TraceMonitor};
use zooid_runtime::MuxFrame;
use zooid_server::obs::ShardObs;
use zooid_server::synth::skeleton_endpoints;
use zooid_server::{
    FlightEvent, NetClient, NetServer, NetServerConfig, ProtocolRegistry, SafetyBudget,
    ServerConfig, Service, SessionServer, SessionSpec,
};

const SIZES: [usize; 4] = [2, 8, 32, 128];
const SMOKE_SIZES: [usize; 2] = [2, 8];

/// Channel bound used by the `cfsm_explore` family.
const CFSM_BOUND: usize = 2;
/// Visited-configuration cap for the `cfsm_explore` family (the concurrent
/// families are exponential in protocol size, so the benchmark measures
/// time-to-visit-a-fixed-budget rather than time-to-exhaustion).
const CFSM_MAX_CONFIGS: usize = 10_000;

/// Seed medians (ns) for `unravel_global`, measured at the seed commit.
const SEED_UNRAVEL_NS: [(&str, u64); 12] = [
    ("ring/2", 1009),
    ("chain/2", 1117),
    ("fanout/2", 3896),
    ("ring/8", 19513),
    ("chain/8", 30803),
    ("fanout/8", 53443),
    ("ring/32", 236812),
    ("chain/32", 742297),
    ("fanout/32", 1045725),
    ("ring/128", 4156248),
    ("chain/128", 12030801),
    ("fanout/128", 17828562),
];

/// Seed medians (ns) for `project_all`, measured at the seed commit.
const SEED_PROJECTION_NS: [(&str, u64); 12] = [
    ("ring/2", 662),
    ("chain/2", 555),
    ("fanout/2", 1561),
    ("ring/8", 7409),
    ("chain/8", 7076),
    ("fanout/8", 15907),
    ("ring/32", 117457),
    ("chain/32", 115328),
    ("fanout/32", 276486),
    ("ring/128", 2069838),
    ("chain/128", 2185952),
    ("fanout/128", 4714854),
];

/// Median nanoseconds per call over up to `samples` timed samples, bounded by
/// a total time budget. Calls faster than ~2µs are timed in batches so timer
/// quantisation does not dominate the medians.
fn median_ns<F: FnMut()>(mut f: F, samples: usize, budget_ms: u64) -> u64 {
    // Warm-up, and estimate the cost of one call.
    let t0 = Instant::now();
    f();
    let per_call = t0.elapsed().as_nanos().max(1);
    let batch: u32 = if per_call >= 2_000 {
        1
    } else {
        (2_000 / per_call) as u32 + 1
    };
    for _ in 0..batch.min(64) {
        f();
    }
    let deadline = Instant::now() + std::time::Duration::from_millis(budget_ms);
    let mut observed = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        observed.push(t0.elapsed().as_nanos() as u64 / u64::from(batch));
        if Instant::now() > deadline {
            break;
        }
    }
    observed.sort_unstable();
    observed[observed.len() / 2]
}

/// Interleaved paired measurement for ratio families: alternates single
/// timed runs of `f(true)` and `f(false)` so machine drift (frequency
/// scaling, cache evictions, neighbours on the CI box) lands on both sides
/// equally, and returns `(median_true_ns, median_false_ns)`. A family that
/// asserts a *ratio* needs the pairing far more than it needs long budgets.
fn paired_median_ns<F: FnMut(bool)>(mut f: F, samples: usize) -> (u64, u64) {
    // Warm both paths.
    f(true);
    f(false);
    let mut on = Vec::with_capacity(samples);
    let mut off = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t = Instant::now();
        f(true);
        on.push(t.elapsed().as_nanos() as u64);
        let t = Instant::now();
        f(false);
        off.push(t.elapsed().as_nanos() as u64);
    }
    on.sort_unstable();
    off.sort_unstable();
    (on[on.len() / 2], off[off.len() / 2])
}

struct Entry {
    bench: &'static str,
    case: String,
    median_ns: u64,
    baseline_ns: u64,
    baseline: &'static str,
}

fn families(n: usize) -> Vec<(String, GlobalType)> {
    vec![
        (format!("ring/{n}"), generators::ring_n(n)),
        (format!("chain/{n}"), generators::chain_n(n)),
        (format!("fanout/{n}"), generators::fanout_n(n)),
    ]
}

/// A *recursive* fan-out: each round the hub sends one task to every worker
/// and then collects every ack, forever — the looping cousin of
/// [`generators::fanout_n`] (same batched phase structure), used by the
/// `endpoint_step` family so per-step costs amortize over thousands of
/// steps per session.
fn fanout_loop(n: usize) -> GlobalType {
    let hub = Role::new("hub");
    let workers: Vec<Role> = (0..n).map(|i| Role::new(format!("w{i}"))).collect();
    let mut g = GlobalType::var(0);
    for w in workers.iter().rev() {
        g = GlobalType::msg1(w.clone(), hub.clone(), "ack", Sort::Unit, g);
    }
    for w in workers.iter().rev() {
        g = GlobalType::msg1(hub.clone(), w.clone(), "task", Sort::Nat, g);
    }
    GlobalType::rec(g)
}

/// One cooperative session drive (drain rounds until every endpoint is
/// done or none can progress), shared by both engines of `endpoint_step` so
/// the schedule — and any future tweak to it — is identical by
/// construction. Returns the number of visible actions performed.
fn drive_session<T>(
    roles: &[Role],
    make_task: impl Fn(&Role) -> T,
    mut step_quiet: impl FnMut(&mut T, &mut InMemoryTransport) -> StepOutcome,
    is_done: impl Fn(&T) -> bool,
    mark_stalled: impl Fn(&mut T),
) -> usize {
    let mut network = InMemoryNetwork::new(roles.iter().cloned());
    let mut tasks: Vec<(T, InMemoryTransport)> = roles
        .iter()
        .map(|role| {
            let transport = network.take_endpoint(role).expect("unique roles");
            (make_task(role), transport)
        })
        .collect();
    let mut actions = 0usize;
    loop {
        let mut progressed = false;
        for (task, transport) in &mut tasks {
            while let StepOutcome::Progress = step_quiet(task, transport) {
                progressed = true;
                actions += 1;
            }
        }
        if tasks.iter().all(|(t, _)| is_done(t)) {
            break;
        }
        if !progressed {
            for (task, _) in &mut tasks {
                mark_stalled(task);
            }
            break;
        }
    }
    actions
}

/// Steps every compiled endpoint of one session cooperatively until all are
/// done, returning the number of visible actions.
fn run_compiled_session(
    programs: &[(Role, Arc<EndpointProgram>)],
    options: &ExecOptions,
) -> usize {
    let roles: Vec<Role> = programs.iter().map(|(r, _)| r.clone()).collect();
    drive_session(
        &roles,
        |role| {
            let (_, program) = programs
                .iter()
                .find(|(r, _)| r == role)
                .expect("every role has a program");
            CompiledEndpointTask::new(Arc::clone(program), Externals::new(), options.clone())
        },
        |task, transport| task.step_mem_quiet(transport),
        CompiledEndpointTask::is_done,
        CompiledEndpointTask::mark_stalled,
    )
}

/// The same cooperative schedule over compiled tasks with a live
/// [`CompiledMonitor`] observing every action (recording the trace when
/// `options` record actions) — the per-session slab configuration the
/// batch executor replaces, used as the `batch_step` baseline.
fn run_monitored_session(
    programs: &[(Role, Arc<EndpointProgram>)],
    system: &Arc<CompiledSystem>,
    options: &ExecOptions,
) -> usize {
    let roles: Vec<Role> = programs.iter().map(|(r, _)| r.clone()).collect();
    let mut monitor = CompiledMonitor::new(Arc::clone(system));
    monitor.set_record_trace(options.record_actions);
    drive_session(
        &roles,
        |role| {
            let (_, program) = programs
                .iter()
                .find(|(r, _)| r == role)
                .expect("every role has a program");
            CompiledEndpointTask::new(Arc::clone(program), Externals::new(), options.clone())
        },
        |task, transport| {
            task.step_mem(transport, &mut |va, interned| match interned {
                Some(interned) => {
                    monitor.observe_interned(interned, || erase(va));
                }
                None => {
                    monitor.observe(&erase(va));
                }
            })
        },
        CompiledEndpointTask::is_done,
        CompiledEndpointTask::mark_stalled,
    )
}

/// The cooperative tree-walking schedule over caller-supplied transports —
/// the `fault_overhead` family uses it to drive the *same* session once on
/// bare in-memory endpoints and once with every endpoint wrapped in an
/// empty-plan [`FaultyTransport`], so the two sides differ in nothing but
/// the wrapper.
fn run_tree_session_over<T: Transport>(
    procs: &[(Role, Proc)],
    endpoints: Vec<(Role, T)>,
    options: &ExecOptions,
) -> usize {
    let mut tasks: Vec<(EndpointTask, T)> = endpoints
        .into_iter()
        .map(|(role, transport)| {
            let (_, proc) = procs
                .iter()
                .find(|(r, _)| *r == role)
                .expect("every role has a process");
            (
                EndpointTask::new(proc.clone(), role, Externals::new(), options.clone()),
                transport,
            )
        })
        .collect();
    let mut actions = 0usize;
    loop {
        let mut progressed = false;
        for (task, transport) in &mut tasks {
            while let StepOutcome::Progress = task.step_quiet(transport) {
                progressed = true;
                actions += 1;
            }
        }
        if tasks.iter().all(|(t, _)| t.is_done()) {
            break;
        }
        if !progressed {
            for (task, _) in &mut tasks {
                task.mark_stalled();
            }
            break;
        }
    }
    actions
}

/// The same cooperative schedule over tree-walking tasks.
fn run_tree_session(procs: &[(Role, Proc)], options: &ExecOptions) -> usize {
    let roles: Vec<Role> = procs.iter().map(|(r, _)| r.clone()).collect();
    drive_session(
        &roles,
        |role| {
            let (_, proc) = procs
                .iter()
                .find(|(r, _)| r == role)
                .expect("every role has a process");
            EndpointTask::new(proc.clone(), role.clone(), Externals::new(), options.clone())
        },
        |task, transport| task.step_quiet(transport),
        EndpointTask::is_done,
        EndpointTask::mark_stalled,
    )
}

/// Compiles a bench family's skeleton session for the batch plane: one
/// program per role, sorted by role, and the [`BatchLayout`] over them and
/// the protocol's compiled system.
fn skeleton_batch(g: &GlobalType) -> (Vec<(Role, Arc<EndpointProgram>)>, Arc<BatchLayout>) {
    let system = Arc::new(
        System::from_global(g)
            .expect("bench families are projectable")
            .compile(),
    );
    let externals = Externals::new();
    let mut programs: Vec<(Role, Arc<EndpointProgram>)> = project_all(g)
        .expect("bench families are projectable")
        .into_iter()
        .map(|(role, local)| {
            let proc =
                zooid_server::synth::skeleton_proc(&local).expect("bench families synthesize");
            let compiled =
                CompiledProc::compile(&proc, &role, &externals).expect("skeletons compile");
            let program = EndpointProgram::with_system(Arc::new(compiled), &system);
            (role, Arc::new(program))
        })
        .collect();
    programs.sort_by(|a, b| a.0.cmp(&b.0));
    let roles: Arc<[Role]> = programs.iter().map(|(r, _)| r.clone()).collect();
    let layout = BatchLayout::new(
        roles,
        programs.iter().map(|(_, p)| Arc::clone(p)).collect(),
        system,
    )
    .expect("bench skeletons are batch-eligible");
    (programs, layout)
}

fn seed_baseline(table: &[(&str, u64)], case: &str) -> u64 {
    table
        .iter()
        .find(|(name, _)| *name == case)
        .map(|(_, ns)| *ns)
        .unwrap_or(0)
}

struct Options {
    smoke: bool,
    out: String,
}

fn parse_args() -> Options {
    let mut opts = Options {
        smoke: false,
        out: "BENCH_pr13.json".to_owned(),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => opts.smoke = true,
            "--out" => {
                opts.out = args.next().expect("--out needs a path");
            }
            other => panic!("unknown argument `{other}` (expected --smoke or --out PATH)"),
        }
    }
    opts
}

fn main() {
    let opts = parse_args();
    let sizes: &[usize] = if opts.smoke { &SMOKE_SIZES } else { &SIZES };
    // Smoke runs trade statistical stability for wall-clock: CI only checks
    // the report's shape, not its numbers.
    let (samples, budget_ms) = if opts.smoke { (5, 200) } else { (50, 2_000) };
    let cfsm_cap = if opts.smoke { 2_000 } else { CFSM_MAX_CONFIGS };
    let mut entries: Vec<Entry> = Vec::new();

    for &n in sizes {
        for (case, g) in families(n) {
            let ns = median_ns(
                || {
                    std::hint::black_box(unravel_global(std::hint::black_box(&g)).unwrap());
                },
                samples,
                budget_ms,
            );
            entries.push(Entry {
                bench: "unravel",
                case: case.clone(),
                median_ns: ns,
                baseline_ns: seed_baseline(&SEED_UNRAVEL_NS, &case),
                baseline: "seed unravel_global (measured at seed commit)",
            });

            let ns = median_ns(
                || {
                    std::hint::black_box(project_all(std::hint::black_box(&g)).unwrap());
                },
                samples,
                budget_ms,
            );
            entries.push(Entry {
                bench: "projection",
                case: case.clone(),
                median_ns: ns,
                baseline_ns: seed_baseline(&SEED_PROJECTION_NS, &case),
                baseline: "seed project_all (measured at seed commit)",
            });

            // Keep the exhaustive baseline tractable at size 128.
            let depth = if n >= 128 { 6 } else { 8 };
            let ns = median_ns(
                || {
                    let report =
                        check_trace_equivalence(std::hint::black_box(&g), depth).unwrap();
                    assert!(report.holds);
                },
                if opts.smoke { 5 } else { 15 },
                if opts.smoke { 300 } else { 5_000 },
            );
            let baseline_ns = median_ns(
                || {
                    let report =
                        check_trace_equivalence_exhaustive(std::hint::black_box(&g), depth)
                            .unwrap();
                    assert!(report.holds);
                },
                if opts.smoke { 3 } else { 9 },
                if opts.smoke { 500 } else { 8_000 },
            );
            entries.push(Entry {
                bench: "trace_equiv",
                case: format!("{case}/depth{depth}"),
                median_ns: ns,
                baseline_ns,
                baseline: "set-based checker (check_trace_equivalence_exhaustive, same run)",
            });

            // CFSM exploration: interned engine vs the retained
            // explicit-state oracle, over the same configuration budget.
            // The engine compiles once (its intended amortised usage); the
            // timed loop measures exploration only.
            let system = System::from_global(&g).expect("bench families are projectable");
            let compiled = system.compile();
            let fast_probe = compiled.explore(CFSM_BOUND, cfsm_cap);
            let slow_probe = system.explore_exhaustive(CFSM_BOUND, cfsm_cap);
            assert_eq!(
                fast_probe.configurations, slow_probe.configurations,
                "{case}: engines must visit the same configurations"
            );
            assert_eq!(fast_probe.verdict(), slow_probe.verdict(), "{case}");
            let ns = median_ns(
                || {
                    let outcome =
                        std::hint::black_box(&compiled).explore(CFSM_BOUND, cfsm_cap);
                    std::hint::black_box(outcome.configurations);
                },
                if opts.smoke { 5 } else { 15 },
                if opts.smoke { 300 } else { 5_000 },
            );
            let baseline_ns = median_ns(
                || {
                    let outcome = std::hint::black_box(&system)
                        .explore_exhaustive(CFSM_BOUND, cfsm_cap);
                    std::hint::black_box(outcome.configurations);
                },
                if opts.smoke { 3 } else { 9 },
                if opts.smoke { 500 } else { 8_000 },
            );
            entries.push(Entry {
                bench: "cfsm_explore",
                case: format!("{case}/bound{CFSM_BOUND}/cap{cfsm_cap}"),
                median_ns: ns,
                baseline_ns,
                baseline: "explicit-state explorer (System::explore_exhaustive, same run)",
            });
        }
    }

    // ------------------------------------------------------------------
    // cfsm_explore_por: the ample-set partial-order reduction vs the full
    // interned engine, same bound, same configuration budget, same verdict.
    // The concurrent families are where interleavings explode; ring is the
    // sequential control. Every case below the registry budget is sized to
    // complete within its cap; the registry-budget cases (cap 50k) are the
    // largest protocols of the serving catalog, where both searches are cut
    // at the cap. The flag says which of the two a case is.
    // ------------------------------------------------------------------
    let mut por_cases: Vec<(String, GlobalType, usize, bool)> = if opts.smoke {
        vec![
            ("ring/8".into(), generators::ring_n(8), 20_000, false),
            ("fanout/8".into(), generators::fanout_n(8), 20_000, false),
        ]
    } else {
        vec![
            ("ring/32".into(), generators::ring_n(32), 50_000, false),
            ("chain/8".into(), generators::chain_n(8), 200_000, false),
            ("fanout/8".into(), generators::fanout_n(8), 50_000, false),
            ("fanout/10".into(), generators::fanout_n(10), 200_000, false),
        ]
    };
    let registry_cap = SafetyBudget::default().max_configs;
    por_cases.extend([
        (
            "chain/12".into(),
            generators::chain_n(12),
            registry_cap,
            true,
        ),
        (
            "fanout/14".into(),
            generators::fanout_n(14),
            registry_cap,
            true,
        ),
    ]);
    for (case, g, cap, cut_at_cap) in &por_cases {
        let system = System::from_global(g).expect("bench families are projectable");
        let compiled = system.compile();
        let full_probe = compiled.explore(CFSM_BOUND, *cap);
        let por_probe = compiled.explore_por(CFSM_BOUND, *cap);
        if *cut_at_cap {
            assert!(
                full_probe.truncated && por_probe.truncated,
                "{case}: registry-budget cases are sized to be cut at the cap"
            );
        } else {
            assert!(
                !full_probe.truncated && !por_probe.truncated,
                "{case}: POR cases are sized to complete within the budget"
            );
        }
        assert_eq!(
            full_probe.verdict(),
            por_probe.verdict(),
            "{case}: reduction must preserve the verdict"
        );
        let ns = median_ns(
            || {
                let outcome = std::hint::black_box(&compiled).explore_por(CFSM_BOUND, *cap);
                std::hint::black_box(outcome.configurations);
            },
            if opts.smoke { 5 } else { 15 },
            if opts.smoke { 300 } else { 5_000 },
        );
        let baseline_ns = median_ns(
            || {
                let outcome = std::hint::black_box(&compiled).explore(CFSM_BOUND, *cap);
                std::hint::black_box(outcome.configurations);
            },
            if opts.smoke { 3 } else { 9 },
            if opts.smoke { 500 } else { 8_000 },
        );
        entries.push(Entry {
            bench: "cfsm_explore_por",
            case: format!(
                "{case}/bound{CFSM_BOUND}/cap{cap}/residual{}of{}",
                por_probe.configurations, full_probe.configurations
            ),
            median_ns: ns,
            baseline_ns,
            baseline: "full interned engine (System::explore, same bound/cap/verdict, same run)",
        });
    }

    // ------------------------------------------------------------------
    // cfsm_explore_par: the work-stealing frontier at 1/2/4 threads on the
    // largest residual state space, baselined against its own 1-thread
    // run. The smoke run keeps threads=2 in the loop so CI exercises the
    // termination protocol and cross-thread determinism every time.
    // ------------------------------------------------------------------
    let (par_case, par_g, par_cap): (&str, GlobalType, usize) = if opts.smoke {
        ("fanout/8", generators::fanout_n(8), 20_000)
    } else {
        ("fanout/14", generators::fanout_n(14), 200_000)
    };
    let par_threads: &[usize] = if opts.smoke { &[1, 2] } else { &[1, 2, 4] };
    {
        let system = System::from_global(&par_g).expect("bench families are projectable");
        let compiled = system.compile();
        let por_probe = compiled.explore_por(CFSM_BOUND, par_cap);
        let mut thread1_ns = 0u64;
        for &threads in par_threads {
            let probe = compiled.explore_parallel(CFSM_BOUND, par_cap, threads);
            assert_eq!(probe.verdict(), por_probe.verdict(), "{par_case}/t{threads}");
            assert_eq!(
                probe.configurations, por_probe.configurations,
                "{par_case}/t{threads}: parallel frontier must cover the reduced space"
            );
            let ns = median_ns(
                || {
                    let outcome = std::hint::black_box(&compiled)
                        .explore_parallel(CFSM_BOUND, par_cap, threads);
                    std::hint::black_box(outcome.configurations);
                },
                if opts.smoke { 3 } else { 7 },
                if opts.smoke { 500 } else { 8_000 },
            );
            if threads == 1 {
                thread1_ns = ns;
            }
            entries.push(Entry {
                bench: "cfsm_explore_par",
                case: format!(
                    "{par_case}/threads{threads}/cap{par_cap}/residual{}",
                    por_probe.configurations
                ),
                median_ns: ns,
                baseline_ns: thread1_ns,
                baseline: "explore_parallel at 1 thread (same workload, same run)",
            });
        }
    }

    // ------------------------------------------------------------------
    // endpoint_step: per-visible-action cost of the compiled endpoint
    // executor vs the tree-walking oracle, on looping sessions stepped
    // cooperatively on one thread to a fixed per-endpoint budget. Trace
    // recording is off on both sides (the throughput configuration) so the
    // family measures stepping, not Vec pushes.
    // ------------------------------------------------------------------
    let endpoint_cases: Vec<(String, GlobalType, usize)> = if opts.smoke {
        vec![
            ("chain/2".into(), generators::chain_n(2), 256),
            ("fanout/4".into(), fanout_loop(4), 256),
        ]
    } else {
        vec![
            ("chain/2".into(), generators::chain_n(2), 2_048),
            ("chain/8".into(), generators::chain_n(8), 2_048),
            ("fanout/4".into(), fanout_loop(4), 2_048),
            ("fanout/16".into(), fanout_loop(16), 2_048),
        ]
    };
    for (case, g, steps) in &endpoint_cases {
        let procs: Vec<(Role, Proc)> = project_all(g)
            .expect("bench families are projectable")
            .into_iter()
            .map(|(role, local)| {
                let proc = zooid_server::synth::skeleton_proc(&local)
                    .expect("bench families synthesize");
                (role, proc)
            })
            .collect();
        let externals = Externals::new();
        let programs: Vec<(Role, Arc<EndpointProgram>)> = procs
            .iter()
            .map(|(role, proc)| {
                let compiled = CompiledProc::compile(proc, role, &externals)
                    .expect("skeletons compile");
                (role.clone(), Arc::new(EndpointProgram::new(Arc::new(compiled))))
            })
            .collect();
        let options = ExecOptions::with_max_steps(*steps).record_actions(false);

        let compiled_actions = run_compiled_session(&programs, &options);
        let tree_actions = run_tree_session(&procs, &options);
        assert_eq!(
            compiled_actions, tree_actions,
            "{case}: engines must perform the same number of visible actions"
        );
        assert!(
            compiled_actions > 0,
            "{case}: the session made no progress under the cooperative schedule"
        );

        let ns = median_ns(
            || {
                std::hint::black_box(run_compiled_session(&programs, &options));
            },
            if opts.smoke { 5 } else { 15 },
            if opts.smoke { 300 } else { 5_000 },
        );
        let baseline_ns = median_ns(
            || {
                std::hint::black_box(run_tree_session(&procs, &options));
            },
            if opts.smoke { 3 } else { 9 },
            if opts.smoke { 500 } else { 8_000 },
        );
        entries.push(Entry {
            bench: "endpoint_step",
            case: format!("{case}/steps{steps}/actions{compiled_actions}/peraction"),
            median_ns: (ns / compiled_actions as u64).max(1),
            baseline_ns: (baseline_ns / tree_actions as u64).max(1),
            baseline: "tree-walking EndpointTask (same session, same schedule, same run)",
        });
    }

    // ------------------------------------------------------------------
    // batch_step: per-visible-action cost of the columnar batch executor
    // (cohort stepping over struct-of-arrays state, shared frame arena,
    // zero-hash monitoring) vs the per-session compiled executor with a
    // live monitor — the slab configuration it replaces — running the same
    // population one session at a time. Fire-and-forget on both sides,
    // except in the `/record` cases: there both sides record the value
    // traces and the global trace, and the batch side also rebuilds every
    // finished session's outcome from its block, as a server consumer does.
    // The batch object is reused across iterations (slots recycle), which
    // is the server's steady state; the slab rebuilds each session, which
    // is the slab's steady state.
    // ------------------------------------------------------------------
    let batch_cases: Vec<(String, GlobalType, Option<usize>, usize, bool)> = if opts.smoke {
        vec![
            ("ring/4".into(), generators::ring_n(4), None, 64, false),
            ("fanout_loop/4".into(), fanout_loop(4), Some(64), 64, false),
            ("ring/4".into(), generators::ring_n(4), None, 64, true),
        ]
    } else {
        vec![
            ("ring/4".into(), generators::ring_n(4), None, 64, false),
            ("ring/4".into(), generators::ring_n(4), None, 256, false),
            ("fanout_loop/4".into(), fanout_loop(4), Some(256), 64, false),
            ("fanout_loop/4".into(), fanout_loop(4), Some(256), 256, false),
            ("ring/4".into(), generators::ring_n(4), None, 64, true),
            ("ring/4".into(), generators::ring_n(4), None, 256, true),
        ]
    };
    for (case, g, max_steps, width, record) in &batch_cases {
        let (programs, layout) = skeleton_batch(g);
        let system = Arc::clone(layout.system());
        let options = match max_steps {
            Some(steps) => ExecOptions::with_max_steps(*steps),
            None => ExecOptions::default(),
        }
        .record_actions(*record);

        // Probe once: both data planes must perform the same number of
        // visible actions per session (looping cases end at the step limit
        // and leave as stalled stragglers on both sides).
        let slab_actions = run_monitored_session(&programs, &system, &options);
        assert!(slab_actions > 0, "{case}: the session made no progress");
        let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), *width);
        for token in 0..*width {
            assert!(batch.admit(token as u64), "batch sized for the width");
        }
        let probe = batch.run_quantum(usize::MAX);
        assert!(batch.is_empty(), "an unbounded quantum drains the batch");
        assert_eq!(
            probe.actions,
            slab_actions * width,
            "{case}: data planes must perform the same visible actions"
        );
        let actions_total = probe.actions;

        let ns = median_ns(
            || {
                for token in 0..*width {
                    assert!(batch.admit(token as u64));
                }
                let out = batch.run_quantum(usize::MAX);
                std::hint::black_box(out.actions);
                if *record {
                    out.finished.into_iter().for_each(|o| drop(std::hint::black_box(o)));
                }
            },
            if opts.smoke { 5 } else { 15 },
            if opts.smoke { 300 } else { 5_000 },
        );
        let baseline_ns = median_ns(
            || {
                for _ in 0..*width {
                    std::hint::black_box(run_monitored_session(&programs, &system, &options));
                }
            },
            if opts.smoke { 3 } else { 9 },
            if opts.smoke { 500 } else { 8_000 },
        );
        let mode = if *record { "/record" } else { "" };
        entries.push(Entry {
            bench: "batch_step",
            case: format!("{case}/w{width}{mode}/actions{actions_total}/peraction"),
            median_ns: (ns / actions_total as u64).max(1),
            baseline_ns: (baseline_ns / actions_total as u64).max(1),
            baseline: "per-session CompiledEndpointTask + CompiledMonitor (same sessions, same run)",
        });
    }

    // ------------------------------------------------------------------
    // batch_handoff: where a batched session's outcome is consumed. Trace
    // recording on; each timed run steps `quanta` full batches, and every
    // finished session's outcome is rebuilt from its block and dropped
    // either on a second thread (the server's shape: shards step, the
    // submitter collects) or on the stepping thread. Per-session ns, the
    // two sides alternated in one run; speedup = same-thread / handoff.
    // ------------------------------------------------------------------
    let handoff_widths: &[usize] = if opts.smoke { &[64] } else { &[64, 512] };
    let (_, ring4_layout) = skeleton_batch(&generators::ring_n(4));
    for &width in handoff_widths {
        let quanta = 16usize;
        let mut batch = SessionBatch::new(Arc::clone(&ring4_layout), ExecOptions::default(), width);
        let step = |batch: &mut SessionBatch| {
            for token in 0..width {
                assert!(batch.admit(token as u64), "batch sized for the width");
            }
            let out = batch.run_quantum(usize::MAX);
            assert_eq!(out.finished.len(), width, "ring/4 sessions conclude in the batch");
            out.finished
        };
        let (handoff_ns, same_ns) = std::thread::scope(|scope| {
            let (block_tx, block_rx) = std::sync::mpsc::channel::<OutcomeBlock>();
            let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
            scope.spawn(move || {
                for block in block_rx {
                    block.into_iter().for_each(|o| drop(std::hint::black_box(o)));
                    let _ = done_tx.send(());
                }
            });
            paired_median_ns(
                |handoff| {
                    for _ in 0..quanta {
                        let block = step(&mut batch);
                        if handoff {
                            block_tx.send(block).expect("consumer alive");
                        } else {
                            block.into_iter().for_each(|o| drop(std::hint::black_box(o)));
                        }
                    }
                    if handoff {
                        for _ in 0..quanta {
                            done_rx.recv().expect("consumer alive");
                        }
                    }
                },
                if opts.smoke { 5 } else { 31 },
            )
        });
        let sessions = (quanta * width) as u64;
        entries.push(Entry {
            bench: "batch_handoff",
            case: format!("ring/4/w{width}/record/persession"),
            median_ns: (handoff_ns / sessions).max(1),
            baseline_ns: (same_ns / sessions).max(1),
            baseline: "outcomes rebuilt and dropped on the stepping thread (same batches, same run)",
        });
    }

    // ------------------------------------------------------------------
    // obs_overhead: the columnar batch executor stepped exactly as the
    // shard worker steps it *with* the observability plane attached —
    // flight-recorder admission events, two clock reads per quantum into
    // the per-action histogram, the cohort-width fold, and session
    // wall-time recording per outcome — against the bare stepping loop
    // (the `batch_step` configuration). The delta is the whole price of
    // the recorder; it must stay within noise of the uninstrumented
    // plane (CI asserts the ratio).
    // ------------------------------------------------------------------
    let obs_cases: Vec<(String, GlobalType, Option<usize>, usize)> = if opts.smoke {
        vec![("ring/4".into(), generators::ring_n(4), None, 64)]
    } else {
        vec![
            // Short sessions: per-admission bookkeeping amortises over only
            // 8 actions — the recorder's worst case.
            ("ring/4".into(), generators::ring_n(4), None, 64),
            ("ring/4".into(), generators::ring_n(4), None, 256),
            // Long sessions: the steady state the shard worker actually
            // runs in, where the per-quantum clock reads dominate.
            ("fanout_loop/4".into(), fanout_loop(4), Some(256), 64),
        ]
    };
    for (case, g, max_steps, width) in &obs_cases {
        let (_, layout) = skeleton_batch(g);
        let options = match max_steps {
            Some(steps) => ExecOptions::with_max_steps(*steps),
            None => ExecOptions::default(),
        }
        .record_actions(false);

        let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), *width);
        let obs = ShardObs::new();
        let mut admitted: FxHashMap<u64, Instant> = FxHashMap::default();
        let probe_actions = {
            for token in 0..*width {
                assert!(batch.admit(token as u64), "batch sized for the width");
            }
            let out = batch.run_quantum(usize::MAX);
            assert!(batch.is_empty(), "an unbounded quantum drains the batch");
            assert!(out.actions > 0, "{case}: the batch made no progress");
            out.actions
        };

        let (ns, baseline_ns) = paired_median_ns(
            |instrumented| {
                if !instrumented {
                    for token in 0..*width {
                        assert!(batch.admit(token as u64));
                    }
                    let out = batch.run_quantum(usize::MAX);
                    std::hint::black_box(out.actions);
                    return;
                }
                // One clock read stamps the whole admission sweep, exactly
                // as the shard worker's inbox drain does.
                let at = Instant::now();
                for token in 0..*width {
                    assert!(batch.admit(token as u64));
                    admitted.insert(token as u64, at);
                    obs.recorder.record(FlightEvent::Admitted {
                        session: token as u64,
                        batched: true,
                    });
                }
                let started = Instant::now();
                let out = batch.run_quantum(usize::MAX);
                let ended = Instant::now();
                if out.actions > 0 {
                    let per = u64::try_from(
                        ended.saturating_duration_since(started).as_nanos(),
                    )
                    .unwrap_or(u64::MAX)
                        / out.actions as u64;
                    obs.action_cost.record(per);
                }
                for (bucket, &n) in out.cohort_widths.iter().enumerate() {
                    obs.cohort_width.add_count(bucket, n);
                }
                for outcome in &out.finished {
                    if let Some(start) = admitted.remove(&outcome.token) {
                        let wall =
                            u64::try_from(ended.saturating_duration_since(start).as_nanos())
                                .unwrap_or(u64::MAX);
                        obs.session_wall.record(wall);
                    }
                }
                // Step-limited sessions leave the batch as demotions; the
                // shard worker records the event and keeps their admission
                // stamp until the slab concludes them — the bench stops at
                // the batch boundary, so stamp the wall time here too.
                for demoted in &out.demoted {
                    obs.recorder.record(FlightEvent::BatchDemoted {
                        session: demoted.token,
                    });
                    if let Some(start) = admitted.remove(&demoted.token) {
                        let wall =
                            u64::try_from(ended.saturating_duration_since(start).as_nanos())
                                .unwrap_or(u64::MAX);
                        obs.session_wall.record(wall);
                    }
                }
                std::hint::black_box(out.actions);
            },
            if opts.smoke { 31 } else { 101 },
        );
        assert!(
            obs.session_wall.snapshot().count() > 0,
            "{case}: the instrumented runs recorded no session wall times"
        );
        entries.push(Entry {
            bench: "obs_overhead",
            case: format!("{case}/w{width}/actions{probe_actions}/peraction"),
            median_ns: (ns / probe_actions as u64).max(1),
            baseline_ns: (baseline_ns / probe_actions as u64).max(1),
            baseline: "identical batch stepping with the observability plane detached",
        });
    }

    // ------------------------------------------------------------------
    // fault_overhead: the hostile-world wrapper tax. Every endpoint of a
    // session runs behind a FaultyTransport carrying an *empty* fault
    // plan — the bystander configuration the hostile campaign suite
    // wraps honest endpoints in — against the identical cooperative
    // schedule on the bare in-memory transport. With no specs the
    // wrapper never consults its PRNG, so the delta is pure counted-op
    // and tick-clock bookkeeping; it must stay within noise of the bare
    // transport (CI asserts the ratio).
    // ------------------------------------------------------------------
    let fault_cases: Vec<(String, GlobalType, Option<usize>)> = if opts.smoke {
        vec![("ring/4".into(), generators::ring_n(4), None)]
    } else {
        vec![
            // Short sessions: setup and teardown amortise over 8 actions —
            // the wrapper's worst case.
            ("ring/4".into(), generators::ring_n(4), None),
            ("two_buyer".into(), generators::two_buyer(), None),
            // Long sessions: steady-state per-operation cost dominates.
            ("fanout_loop/4".into(), fanout_loop(4), Some(512)),
        ]
    };
    for (case, g, max_steps) in &fault_cases {
        let mut procs: Vec<(Role, Proc)> = project_all(g)
            .expect("bench families are projectable")
            .into_iter()
            .map(|(role, local)| {
                let proc = zooid_server::synth::skeleton_proc(&local)
                    .expect("bench families synthesize");
                (role, proc)
            })
            .collect();
        procs.sort_by(|a, b| a.0.cmp(&b.0));
        let roles: Vec<Role> = procs.iter().map(|(r, _)| r.clone()).collect();
        let options = match max_steps {
            Some(steps) => ExecOptions::with_max_steps(*steps),
            None => ExecOptions::default(),
        }
        .record_actions(false);
        let plan = FaultPlan::new(0xFA17);

        let bare_endpoints = |roles: &[Role]| -> Vec<(Role, InMemoryTransport)> {
            let mut network = InMemoryNetwork::new(roles.iter().cloned());
            roles
                .iter()
                .map(|r| (r.clone(), network.take_endpoint(r).expect("unique roles")))
                .collect()
        };
        let probe_actions = {
            let actions = run_tree_session_over(&procs, bare_endpoints(&roles), &options);
            assert!(actions > 0, "{case}: the probe session made no progress");
            actions
        };

        let (ns, baseline_ns) = paired_median_ns(
            |wrapped| {
                if wrapped {
                    let endpoints: Vec<(Role, FaultyTransport<InMemoryTransport>)> =
                        bare_endpoints(&roles)
                            .into_iter()
                            .map(|(role, t)| (role, FaultyTransport::new(t, &plan)))
                            .collect();
                    std::hint::black_box(run_tree_session_over(&procs, endpoints, &options));
                } else {
                    std::hint::black_box(run_tree_session_over(
                        &procs,
                        bare_endpoints(&roles),
                        &options,
                    ));
                }
            },
            if opts.smoke { 31 } else { 101 },
        );
        entries.push(Entry {
            bench: "fault_overhead",
            case: format!("{case}/actions{probe_actions}/peraction"),
            median_ns: (ns / probe_actions as u64).max(1),
            baseline_ns: (baseline_ns / probe_actions as u64).max(1),
            baseline: "identical cooperative run on the bare in-memory transport",
        });
    }

    // ------------------------------------------------------------------
    // server_throughput: a batch of concurrent sessions on the sharded
    // server vs the thread-per-participant harness.
    // ------------------------------------------------------------------
    let sessions: usize = if opts.smoke { 500 } else { 10_000 };
    let protocol = Protocol::new("ring", generators::ring_n(4)).expect("well-formed");
    let endpoints = skeleton_endpoints(&protocol).expect("synthesizable");
    // The endpoint list is shared across submissions (an `Arc` slice), the
    // intended way to start many sessions of one implementation.
    let shared: Arc<[_]> = endpoints.clone().into();

    // Baseline: the harness spawns 4 OS threads per session, so it is
    // measured on a smaller batch and scaled per-session.
    let harness_sessions = sessions.min(if opts.smoke { 50 } else { 512 });
    let harness_ns = median_ns(
        || {
            for _ in 0..harness_sessions {
                let mut harness = SessionHarness::new(protocol.clone());
                for (cert, ext) in endpoints.clone() {
                    harness.add_endpoint(cert, ext).expect("unique role");
                }
                let report = harness.run().expect("session runs");
                assert!(report.all_finished_and_compliant());
            }
        },
        if opts.smoke { 2 } else { 3 },
        if opts.smoke { 2_000 } else { 20_000 },
    );
    let harness_batch_ns =
        (harness_ns as f64 * sessions as f64 / harness_sessions as f64) as u64;

    // (shards, record per-endpoint traces?): the `notrace` case is the
    // fire-and-forget configuration — monitor verdicts only.
    let mut inmem4_ns = harness_batch_ns;
    for (shards, record) in [(1usize, true), (4, true), (4, false)] {
        let ns = median_ns(
            || {
                let mut registry = ProtocolRegistry::new();
                let id = registry.register(protocol.clone()).expect("registrable");
                let mut server =
                    SessionServer::start(registry, ServerConfig::with_shards(shards));
                for _ in 0..sessions {
                    let mut spec = SessionSpec::new(id, Arc::clone(&shared));
                    spec.options.record_actions = record;
                    server.submit(spec).expect("submits");
                }
                let outcomes = server.drain();
                assert_eq!(outcomes.len(), sessions);
                if record {
                    assert!(outcomes.iter().all(|o| o.all_finished_and_compliant()));
                } else {
                    assert!(outcomes.iter().all(|o| o.compliant && o.complete));
                }
                let report = server.shutdown();
                assert_eq!(report.sessions_completed() as u64, sessions as u64);
            },
            if opts.smoke { 2 } else { 3 },
            if opts.smoke { 2_000 } else { 20_000 },
        );
        if shards == 4 && record {
            inmem4_ns = ns;
        }
        entries.push(Entry {
            bench: "server_throughput",
            case: format!(
                "ring4/s{sessions}/shards{shards}{}",
                if record { "" } else { "/notrace" }
            ),
            median_ns: ns,
            baseline_ns: harness_batch_ns,
            baseline: "SessionHarness thread-per-endpoint (smaller batch, scaled per-session)",
        });
    }

    // ------------------------------------------------------------------
    // server_throughput_tcp: the same session batch served over real
    // loopback sockets by the event-driven NetServer. Client threads each
    // own one multiplexed connection, window their opens (so the
    // per-connection in-flight cap never trips) and await every Done
    // frame. The baseline is the in-memory 4-shard figure from this same
    // run, so the reported speedup is exactly the cost of the wire.
    // ------------------------------------------------------------------
    let conns: usize = if opts.smoke { 2 } else { 8 };
    let tcp_sessions = (sessions / conns) * conns;
    let per_conn = tcp_sessions / conns;
    const OPEN_WINDOW: usize = 256;
    let ns = median_ns(
        || {
            let mut registry = ProtocolRegistry::new();
            let id = registry.register(protocol.clone()).expect("registrable");
            let service = Service {
                protocol: id,
                endpoints: Arc::clone(&shared),
                options: ExecOptions::default(),
            };
            let config = NetServerConfig {
                server: ServerConfig::with_shards(4),
                ..NetServerConfig::default()
            };
            let net = NetServer::start(registry, [service], config).expect("binds loopback");
            let addr = net.local_addr();
            let clients: Vec<_> = (0..conns)
                .map(|_| {
                    std::thread::spawn(move || {
                        let mut client = NetClient::connect(addr).expect("connects");
                        let mut to_open = per_conn;
                        let mut inflight = 0usize;
                        let mut done = 0usize;
                        while done < per_conn {
                            while to_open > 0 && inflight < OPEN_WINDOW {
                                client.open("ring").expect("opens");
                                to_open -= 1;
                                inflight += 1;
                            }
                            match client
                                .poll_event(std::time::Duration::from_secs(30))
                                .expect("server stays up")
                            {
                                Some(MuxFrame::Accepted { .. }) => {}
                                Some(MuxFrame::Done {
                                    compliant, complete, ..
                                }) => {
                                    assert!(compliant && complete, "session misbehaved");
                                    inflight -= 1;
                                    done += 1;
                                }
                                Some(other) => panic!("unexpected frame {other:?}"),
                                None => panic!("server went silent"),
                            }
                        }
                    })
                })
                .collect();
            for client in clients {
                client.join().expect("client thread");
            }
            let report = net.shutdown();
            assert_eq!(report.net.sessions_done as usize, tcp_sessions);
            assert_eq!(report.net.bad_frames, 0);
        },
        if opts.smoke { 2 } else { 3 },
        if opts.smoke { 2_000 } else { 20_000 },
    );
    entries.push(Entry {
        bench: "server_throughput_tcp",
        case: format!("ring4/s{tcp_sessions}/conns{conns}/shards4"),
        median_ns: ns,
        baseline_ns: inmem4_ns,
        baseline: "in-memory SessionServer, same batch (4 shards, traced, same run)",
    });

    // ------------------------------------------------------------------
    // monitor_action: per-action cost of the compiled monitor vs the
    // global-LTS replay monitor, on compliant traces. The ring trace is
    // sequential (the global prefix never holds more than one pending
    // message — the replay monitor's best case); the fanout trace delays
    // every receive behind all the sends, so the prefix grows to n
    // in-flight messages and the replay cost grows with it, while the
    // compiled monitor stays flat.
    // ------------------------------------------------------------------
    let monitor_cases: &[(&str, usize)] = if opts.smoke {
        &[("ring", 4), ("fanout", 8)]
    } else {
        &[("ring", 4), ("ring", 16), ("ring", 64), ("fanout", 16), ("fanout", 64)]
    };
    for &(family, n) in monitor_cases {
        let (g, trace) = match family {
            "ring" => {
                let mut trace = Vec::with_capacity(2 * n);
                for i in 0..n {
                    let from = Role::new(format!("w{i}"));
                    let to = Role::new(format!("w{}", (i + 1) % n));
                    let send = Action::send(from, to, Label::new("l"), Sort::Nat);
                    trace.push(send.clone());
                    trace.push(send.dual());
                }
                (generators::ring_n(n), trace)
            }
            "fanout" => {
                let hub = Role::new("hub");
                let tasks: Vec<Action> = (0..n)
                    .map(|i| {
                        Action::send(
                            hub.clone(),
                            Role::new(format!("w{i}")),
                            Label::new("task"),
                            Sort::Nat,
                        )
                    })
                    .collect();
                let acks: Vec<Action> = (0..n)
                    .map(|i| {
                        Action::send(
                            Role::new(format!("w{i}")),
                            hub.clone(),
                            Label::new("ack"),
                            Sort::Unit,
                        )
                    })
                    .collect();
                let mut trace = Vec::with_capacity(4 * n);
                trace.extend(tasks.iter().cloned());
                trace.extend(tasks.iter().map(Action::dual));
                trace.extend(acks.iter().cloned());
                trace.extend(acks.iter().map(Action::dual));
                (generators::fanout_n(n), trace)
            }
            other => unreachable!("unknown monitor family {other}"),
        };
        let compiled_template = CompiledMonitor::for_global(&g).expect("projectable");
        let reference_template = TraceMonitor::new(&g).expect("well-formed");
        let actions = trace.len() as u64;
        let ns = median_ns(
            || {
                let mut monitor = compiled_template.clone();
                for action in &trace {
                    assert!(monitor.observe(action));
                }
                assert!(monitor.is_complete());
            },
            if opts.smoke { 5 } else { 25 },
            if opts.smoke { 300 } else { 3_000 },
        );
        let baseline_ns = median_ns(
            || {
                let mut monitor = reference_template.clone();
                for action in &trace {
                    assert!(monitor.observe(action));
                }
                assert!(monitor.is_complete());
            },
            if opts.smoke { 5 } else { 25 },
            if opts.smoke { 300 } else { 3_000 },
        );
        entries.push(Entry {
            bench: "monitor_action",
            case: format!("{family}/{n}/peraction"),
            median_ns: (ns / actions).max(1),
            baseline_ns: (baseline_ns / actions).max(1),
            baseline: "TraceMonitor global-LTS replay (same trace, same run)",
        });
    }

    // ------------------------------------------------------------------
    // checkpoint_restore: latency of bringing one mid-flight session back
    // through the durability plane — decode the checkpoint blob and
    // re-certify it against the compiled tables (`SessionCheckpoint::decode`
    // + `into_demoted`) — vs recovery by replay: re-executing the session
    // from its initial state to the same quantum boundary, which is what a
    // server without checkpoints would have to do.
    // ------------------------------------------------------------------
    // Two regimes: a shallow kill point (restore pays the codec without
    // much replay to beat) and a deep one (replay cost grows with history,
    // the checkpoint stays near-constant — the durability win).
    let ckpt_cases: Vec<(String, GlobalType, Option<usize>, usize)> = vec![
        ("ring/8".into(), generators::ring_n(8), None, 4),
        ("fanout_loop/4".into(), fanout_loop(4), Some(256), 200),
    ];
    for (case, g, max_steps, kill_after) in &ckpt_cases {
        let (_, layout) = skeleton_batch(g);
        let options = match max_steps {
            Some(steps) => ExecOptions::with_max_steps(*steps),
            None => ExecOptions::default(),
        };
        // The mid-flight state under test: one session interrupted after
        // `kill_after` budget-1 quanta.
        let mut batch = SessionBatch::new(Arc::clone(&layout), options.clone(), 1);
        assert!(batch.admit(0));
        for _ in 0..*kill_after {
            let out = batch.run_quantum(1);
            assert!(
                out.finished.is_empty() && out.demoted.is_empty(),
                "{case}: the kill point must be mid-flight"
            );
        }
        let demoted = batch.demote_now(0).expect("session still live");
        let bytes = SessionCheckpoint::from_demoted(&demoted).encode();

        let ns = median_ns(
            || {
                let restored = SessionCheckpoint::decode(std::hint::black_box(&bytes))
                    .expect("own encoding decodes")
                    .into_demoted(layout.programs(), layout.system())
                    .expect("own checkpoint re-validates");
                std::hint::black_box(restored.endpoints.len());
            },
            if opts.smoke { 5 } else { 25 },
            if opts.smoke { 300 } else { 3_000 },
        );
        let baseline_ns = median_ns(
            || {
                let mut replay = SessionBatch::new(Arc::clone(&layout), options.clone(), 1);
                assert!(replay.admit(0));
                for _ in 0..*kill_after {
                    replay.run_quantum(1);
                }
                let state = replay.demote_now(0).expect("still live");
                std::hint::black_box(state.endpoints.len());
            },
            if opts.smoke { 5 } else { 25 },
            if opts.smoke { 300 } else { 3_000 },
        );
        entries.push(Entry {
            bench: "checkpoint_restore",
            case: format!("{case}/q{kill_after}/bytes{}/restore", bytes.len()),
            median_ns: ns.max(1),
            baseline_ns: baseline_ns.max(1),
            baseline: "recovery by replay (re-run the session to the same quantum, same run)",
        });
    }

    // ------------------------------------------------------------------
    // wal_append: audit-log density of the columnar write-ahead format —
    // per-quantum records split into a skeleton column (session, role,
    // per-program event-template id) and a value column — vs serializing
    // each record's full `ValueAction` (roles, label, sort spelled out
    // per record). Reported in bytes per logged action, so speedup is the
    // density win of the structural-entropy split.
    // ------------------------------------------------------------------
    let wal_cases: Vec<(String, GlobalType, Option<usize>)> = vec![
        ("ring/8".into(), generators::ring_n(8), None),
        ("two_buyer".into(), generators::two_buyer(), None),
        ("fanout_loop/4".into(), fanout_loop(4), Some(64)),
    ];
    for (case, g, max_steps) in &wal_cases {
        let (_, layout) = skeleton_batch(g);
        let options = match max_steps {
            Some(steps) => ExecOptions::with_max_steps(*steps),
            None => ExecOptions::default(),
        };
        // One recorded session supplies the log: every visible action of
        // every endpoint, columnarized through the shared indexer.
        let mut batch = SessionBatch::new(Arc::clone(&layout), options, 1);
        assert!(batch.admit(0));
        let out = batch.run_quantum(usize::MAX);
        let indexer = WalIndexer::new(layout.programs());
        // Concluded sessions report their actions in `finished`; looping
        // cases end at the step limit and leave as demoted stragglers.
        let finished: Vec<_> = out.finished.into_iter().collect();
        let records: Vec<_> = finished
            .iter()
            .flat_map(|o| o.endpoints.iter())
            .flat_map(|r| r.actions.iter())
            .chain(
                out.demoted
                    .iter()
                    .flat_map(|d| d.endpoints.iter())
                    .flat_map(|ep| ep.actions.iter()),
            )
            .map(|va| {
                indexer
                    .record(0, va)
                    .expect("bench skeleton actions columnarize")
            })
            .collect();
        assert!(!records.is_empty(), "{case}: the log must not be empty");
        let actions = records.len() as u64;
        let columnar = encode_quantum(&records).len() as u64;
        let naive = encode_quantum_naive(&records, &indexer)
            .expect("records resolve")
            .len() as u64;
        assert!(
            columnar < naive,
            "{case}: the columnar skeleton must be denser ({columnar} vs {naive} bytes)"
        );
        entries.push(Entry {
            bench: "wal_append",
            case: format!("{case}/n{actions}/bytesperaction"),
            median_ns: (columnar / actions).max(1),
            baseline_ns: (naive / actions).max(1),
            baseline: "naive per-record serialization (encode_quantum_naive, same records)",
        });
    }

    let mut json = String::from("{\n  \"pr\": 13,\n  \"benches\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let speedup = if e.median_ns > 0 && e.baseline_ns > 0 {
            e.baseline_ns as f64 / e.median_ns as f64
        } else {
            0.0
        };
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"case\": \"{}\", \"median_ns\": {}, \
             \"baseline_ns\": {}, \"speedup\": {:.2}, \"baseline\": \"{}\"}}{}\n",
            e.bench,
            e.case,
            e.median_ns,
            e.baseline_ns,
            speedup,
            e.baseline,
            if i + 1 == entries.len() { "" } else { "," }
        ));
    }
    json.push_str("  ]\n}\n");

    std::fs::write(&opts.out, &json).unwrap_or_else(|e| panic!("write {}: {e}", opts.out));
    println!("{json}");
    eprintln!("wrote {} ({} entries)", opts.out, entries.len());
}
