//! Layer probes of the traced run: direct calls into one layer's public
//! functions on the workload's own inputs, each inside a span, so that a
//! layer's cost is measured where its work happens.

use std::sync::Arc;
use std::time::{Duration, Instant};

use zooid_cfsm::{Cfsm, System};
use zooid_mpst::global::GlobalType;
use zooid_mpst::projection::project_all;
use zooid_mpst::Role;
use zooid_proc::erase;
use zooid_runtime::cbatch::{BatchLayout, SessionBatch};
use zooid_runtime::cexec::EndpointProgram;
use zooid_runtime::transport::InMemoryTransport;
use zooid_runtime::wire::encode_mux;
use zooid_runtime::{
    CompiledEndpointTask, CompiledMonitor, InMemoryNetwork, MuxFrame, StepOutcome,
};
use zooid_server::{ProtocolRegistry, SafetyBudget};

use crate::inputs::{Expect, Kind};
use crate::trace;

/// Wall-time budget of each stepping probe.
const PROBE_BUDGET: Duration = Duration::from_millis(200);

/// Projects, compiles and explores every registered protocol the way the
/// registry does, at its default safety budget. Returns the configurations
/// visited (a deterministic count).
pub fn cfsm(globals: &[(String, GlobalType)]) -> u64 {
    let budget: SafetyBudget = ProtocolRegistry::new().safety_budget();
    let mut visited = 0u64;
    for (_, g) in globals {
        let locals = {
            let _s = trace::start("mpst.project", 0);
            project_all(g).expect("registered protocols project")
        };
        let compiled = {
            let _s = trace::start("cfsm.compile", 0);
            let machines = locals
                .into_iter()
                .map(|(role, local)| Cfsm::from_local_type(role, &local))
                .collect::<Result<Vec<_>, _>>()
                .expect("registered projections compile to machines");
            System::new(machines)
                .expect("one machine per role")
                .compile()
        };
        let span = trace::start("cfsm.explore", 0);
        let outcome = compiled.explore_por(budget.channel_bound, budget.max_configs);
        span.count(outcome.configurations as u64);
        visited += outcome.configurations as u64;
    }
    visited
}

/// Distinct kinds among the first `n` mix slots, in first-seen order.
fn mix_kinds(mix: &[u32], n: usize) -> Vec<usize> {
    let mut seen = Vec::new();
    for &k in mix.iter().take(n) {
        if !seen.contains(&(k as usize)) {
            seen.push(k as usize);
        }
    }
    seen
}

/// The compiled program of every endpoint of a kind, looked up the way the
/// shards look them up (role order of the spec).
fn programs(registry: &ProtocolRegistry, kind: &Kind) -> Vec<(Role, Arc<EndpointProgram>)> {
    let artifacts = registry
        .get(kind.spec.protocol)
        .expect("kind's protocol is registered");
    kind.endpoints()
        .map(|(role, proc, ext)| {
            let program = artifacts
                .endpoint_program(role, proc, ext)
                .expect("certified endpoints lower to programs");
            (role.clone(), program)
        })
        .collect()
}

/// Times `ProtocolArtifacts::endpoint_program` on the workload's (role,
/// proc) pairs — the per-endpoint lookup every session construction pays.
pub fn endpoint_program(registry: &ProtocolRegistry, kinds: &[Kind], mix: &[u32]) {
    let start = Instant::now();
    let chosen = mix_kinds(mix, mix.len());
    while start.elapsed() < PROBE_BUDGET {
        for &k in &chosen {
            let kind = &kinds[k];
            let artifacts = registry.get(kind.spec.protocol).expect("registered");
            for (role, proc, ext) in kind.endpoints() {
                let span = trace::start("server.registry.endpoint_program", 0);
                let program = artifacts.endpoint_program(role, proc, ext);
                span.count(1);
                std::hint::black_box(program);
            }
        }
    }
}

/// Times `SessionBatch::run_quantum` on the batch-eligible kinds of the
/// mix at the given cohort width.
pub fn batch_step(registry: &ProtocolRegistry, kinds: &[Kind], mix: &[u32], width: usize) {
    let width = width.clamp(1, 512);
    for k in mix_kinds(mix, mix.len()) {
        let kind = &kinds[k];
        if !kind.batchable || !matches!(kind.expect, Expect::Honest) {
            continue;
        }
        let mut progs = programs(registry, kind);
        progs.sort_by(|a, b| a.0.cmp(&b.0));
        let artifacts = registry.get(kind.spec.protocol).expect("registered");
        let roles: Arc<[Role]> = progs
            .iter()
            .map(|(r, _)| r.clone())
            .collect::<Vec<_>>()
            .into();
        let Some(layout) = BatchLayout::new(
            roles,
            progs.into_iter().map(|(_, p)| p).collect(),
            Arc::clone(artifacts.compiled()),
        ) else {
            continue;
        };
        let mut batch = SessionBatch::new(layout, kind.spec.options.clone(), width);
        let start = Instant::now();
        let mut token = 0u64;
        while start.elapsed() < PROBE_BUDGET {
            for _ in 0..width {
                assert!(batch.admit(token), "the batch is sized for the width");
                token += 1;
            }
            let span = trace::start("runtime.batch_step", 0);
            let out = batch.run_quantum(usize::MAX);
            span.count(out.actions as u64);
            drop(span);
            assert!(batch.is_empty(), "an unbounded quantum drains the batch");
            assert!(
                out.finished.iter().all(|o| o.compliant && o.complete),
                "{}: batched sessions end compliant and complete",
                kind.label
            );
        }
    }
}

/// Steps the mix's honest sessions one by one with `CompiledEndpointTask`s
/// over in-memory channels (`runtime.slab_step`), then replays each
/// session's interleaving through a fresh `CompiledMonitor`
/// (`runtime.monitor`).
pub fn slab_and_monitor(registry: &ProtocolRegistry, kinds: &[Kind], mix: &[u32]) {
    let start = Instant::now();
    let mut slot = 0usize;
    while start.elapsed() < PROBE_BUDGET {
        let kind = &kinds[mix[slot % mix.len()] as usize];
        slot += 1;
        if matches!(kind.expect, Expect::Byzantine(_)) {
            continue;
        }
        let artifacts = registry.get(kind.spec.protocol).expect("registered");
        let progs = programs(registry, kind);
        let mut network = InMemoryNetwork::new(progs.iter().map(|(r, _)| r.clone()));
        let mut tasks: Vec<(CompiledEndpointTask, InMemoryTransport)> = progs
            .iter()
            .zip(kind.spec.endpoints.iter())
            .map(|((role, program), (_, ext))| {
                let transport = network.take_endpoint(role).expect("unique roles");
                let task = CompiledEndpointTask::new(
                    Arc::clone(program),
                    ext.clone(),
                    kind.spec.options.clone(),
                );
                (task, transport)
            })
            .collect();
        let mut interleaving = Vec::new();
        {
            let span = trace::start("runtime.slab_step", 0);
            loop {
                let mut progressed = false;
                for (task, transport) in &mut tasks {
                    while let StepOutcome::Progress = task
                        .step_mem(transport, &mut |va, interned| {
                            interned_push(&mut interleaving, va, interned)
                        })
                    {
                        progressed = true;
                    }
                }
                if tasks.iter().all(|(t, _)| t.is_done()) || !progressed {
                    break;
                }
            }
            span.count(interleaving.len() as u64);
        }
        let mut monitor = CompiledMonitor::new(Arc::clone(artifacts.compiled()));
        monitor.set_record_trace(false);
        let span = trace::start("runtime.monitor", 0);
        for (action, interned) in &interleaving {
            let ok = match interned {
                Some(i) => monitor.observe_interned(i, || action.clone()),
                None => monitor.observe(action),
            };
            assert!(ok, "{}: an honest interleaving is compliant", kind.label);
        }
        span.count(interleaving.len() as u64);
    }
}

fn interned_push(
    out: &mut Vec<(zooid_mpst::Action, Option<zooid_cfsm::InternedAction>)>,
    va: &zooid_proc::ValueAction,
    interned: Option<&zooid_cfsm::InternedAction>,
) {
    out.push((erase(va), interned.copied()));
}

/// The wire bytes one session of the mix costs: its `Open`, `Accepted`
/// and `Done` frames with their length prefixes, averaged over the mix.
pub fn wire_bytes(kinds: &[Kind], mix: &[u32]) -> f64 {
    let frame_len = |f: &MuxFrame| 4 + encode_mux(f).len() as u64;
    let bytes: u64 = mix
        .iter()
        .enumerate()
        .map(|(i, &k)| {
            let session = i as u64 + 1;
            let open = MuxFrame::Open {
                session,
                protocol: kinds[k as usize].service.clone(),
            };
            let done = MuxFrame::Done {
                session,
                compliant: true,
                complete: true,
                stalled: false,
                violations: 0,
                actions: 8,
            };
            frame_len(&open) + frame_len(&MuxFrame::Accepted { session }) + frame_len(&done)
        })
        .sum();
    bytes as f64 / mix.len().max(1) as f64
}
