//! The generated inputs: protocols, certified endpoint casts and the
//! session mix, all derived from the workload seed.
//!
//! Set-up is where protocol authors pay: projection (`mpst`), certification
//! (`dsl`, `proc`) and registration (`server.registry`, which runs the
//! `cfsm` safety check). Every one of those calls is made here, by the
//! benchmark, inside a span named after its layer.

use std::sync::Arc;

use zooid_dsl::{CertifiedProcess, Protocol};
use zooid_mpst::generators::{self, RandomProtocol};
use zooid_mpst::global::GlobalType;
use zooid_mpst::Role;
use zooid_proc::{Externals, Proc};
use zooid_server::synth::{byzantine_driver, skeleton_proc};
use zooid_server::{
    ByzantineMutation, ExpectedClass, ProtocolId, ProtocolRegistry, Service, SessionOutcome,
    SessionSpec,
};

use crate::trace;
use crate::util::Rng;

/// Length of the seeded session-mix sequence (sessions cycle through it).
const MIX_LEN: usize = 4096;
/// Step limit of the looping `pipeline` sessions.
const PIPELINE_STEPS: usize = 200;
/// Share of `catalog_mixed` sessions that are byzantine casts.
const BYZANTINE_SHARE: f64 = 0.04;
/// Byzantine (protocol, mutation) casts prepared per catalog.
const BYZANTINE_CASTS: usize = 8;
/// Random protocols drawn per catalog (kept only if they register and
/// their skeletons certify).
const RANDOM_DRAWS: usize = 12;

/// What a session must end as.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// Honest and terminating: finished, compliant and complete.
    Honest,
    /// Honest but looping, run to a step limit: compliant, no violation,
    /// no endpoint failed (peers of an endpoint that reached its limit end
    /// stalled).
    HonestBounded,
    /// A byzantine cast with its expected class.
    Byzantine(ExpectedClass),
}

/// One kind of session the mix draws from.
#[derive(Debug, Clone)]
pub struct Kind {
    pub label: String,
    /// Registered protocol name (the wire's service key).
    pub service: String,
    pub spec: SessionSpec,
    pub expect: Expect,
    /// Whether the kind's endpoints are eligible for the columnar batch.
    pub batchable: bool,
}

impl Kind {
    /// The `(role, proc, externals)` triples the shards look programs up by.
    pub fn endpoints(&self) -> impl Iterator<Item = (&Role, &Proc, &Externals)> {
        self.spec
            .endpoints
            .iter()
            .map(|(cert, ext)| (cert.role(), cert.proc(), ext))
    }
}

/// Everything a workload serves, freshly built.
pub struct Catalog {
    pub registry: ProtocolRegistry,
    pub kinds: Vec<Kind>,
    /// Kind index of each slot of the seeded session sequence.
    pub mix: Vec<u32>,
    /// Protocols registered and endpoints certified (deterministic).
    pub protocols: u64,
    pub certified: u64,
    /// Global types of the registered protocols, for the `cfsm` probe.
    pub globals: Vec<(String, GlobalType)>,
}

impl Catalog {
    /// One wire service per honest kind (byzantine casts share their
    /// protocol's name with the honest cast, so they are served in memory
    /// only).
    pub fn services(&self) -> Vec<Service> {
        self.kinds
            .iter()
            .filter(|k| !matches!(k.expect, Expect::Byzantine(_)))
            .map(|k| Service {
                protocol: k.spec.protocol,
                endpoints: Arc::clone(&k.spec.endpoints),
                options: k.spec.options.clone(),
            })
            .collect()
    }
}

struct Builder {
    registry: ProtocolRegistry,
    protocols: u64,
    certified: u64,
    globals: Vec<(String, GlobalType)>,
}

impl Builder {
    fn new() -> Self {
        Builder {
            registry: ProtocolRegistry::new(),
            protocols: 0,
            certified: 0,
            globals: Vec::new(),
        }
    }

    fn register(&mut self, protocol: &Protocol) -> Option<ProtocolId> {
        let _s = trace::start("server.registry.register", 0);
        let id = self.registry.register(protocol.clone()).ok()?;
        self.protocols += 1;
        self.globals
            .push((protocol.name().to_owned(), protocol.global().clone()));
        Some(id)
    }

    /// Projects, synthesizes skeleton processes and certifies each against
    /// its projection. `None` if any step fails.
    fn skeleton_cast(&mut self, protocol: &Protocol) -> Option<Vec<(CertifiedProcess, Externals)>> {
        let locals = {
            let _s = trace::start("mpst.project", 0);
            protocol.project_all().ok()?
        };
        let externals = Externals::new();
        let mut cast = Vec::with_capacity(locals.len());
        for (role, local) in locals {
            let proc = skeleton_proc(&local)?;
            let cert = {
                let _s = trace::start("dsl.certify", 0);
                protocol
                    .implement_against_projection(&role, proc, &externals)
                    .ok()?
            };
            self.certified += 1;
            cast.push((cert, externals.clone()));
        }
        Some(cast)
    }

    /// Registers a protocol served by its skeleton cast.
    fn skeleton_kind(&mut self, name: &str, global: GlobalType) -> Option<Kind> {
        let protocol = Protocol::new(name, global).ok()?;
        let cast = self.skeleton_cast(&protocol)?;
        let id = self.register(&protocol)?;
        Some(Kind {
            label: name.to_owned(),
            service: name.to_owned(),
            spec: SessionSpec::new(id, cast),
            expect: Expect::Honest,
            batchable: true,
        })
    }

    fn finish(self, kinds: Vec<Kind>, mix: Vec<u32>) -> Catalog {
        Catalog {
            registry: self.registry,
            kinds,
            mix,
            protocols: self.protocols,
            certified: self.certified,
            globals: self.globals,
        }
    }
}

/// The ring/4 skeleton catalog of `inmem_ring_burst`, `tcp_open_loop` and
/// `netclient_window`: one homogeneous, batch-eligible kind.
pub fn ring4() -> Catalog {
    let mut b = Builder::new();
    let kind = b
        .skeleton_kind("ring/4", generators::ring_n(4))
        .expect("ring/4 projects, certifies and registers");
    b.finish(vec![kind], vec![0; MIX_LEN])
}

/// The `catalog_mixed` catalog: the paper's case studies certified from
/// their DSL endpoints, the ring/chain/fanout families at sizes 2–16 and
/// branching/2,4,6 as skeletons, seeded random protocols, and seeded
/// byzantine casts; the mix is dominated by long `pipeline` sessions.
pub fn mixed(seed: u64) -> Catalog {
    let mut rng = Rng::new(seed);
    let mut b = Builder::new();
    let mut kinds = Vec::new();

    let mut case_kind = |b: &mut Builder, case: zooid_bench::CaseStudy| -> usize {
        let mut cast = Vec::with_capacity(case.endpoints.len());
        for (role, wt) in case.endpoints {
            let cert = {
                let _s = trace::start("dsl.certify", 0);
                case.protocol
                    .implement(&role, wt, &case.externals)
                    .expect("case-study endpoints certify")
            };
            b.certified += 1;
            cast.push((cert, case.externals.clone()));
        }
        let id = b.register(&case.protocol).expect("case studies register");
        let mut spec = SessionSpec::new(id, cast);
        let expect = match case.max_steps {
            Some(steps) => {
                spec = spec.with_max_steps(steps.min(PIPELINE_STEPS));
                Expect::HonestBounded
            }
            None => Expect::Honest,
        };
        kinds.push(Kind {
            label: case.name.to_owned(),
            service: case.protocol.name().to_owned(),
            spec,
            expect,
            batchable: case.externals.names().is_empty(),
        });
        kinds.len() - 1
    };
    let _ring = case_kind(&mut b, zooid_bench::ring_case());
    let pipeline = case_kind(&mut b, zooid_bench::pipeline_case());
    let ping_pong = case_kind(&mut b, zooid_bench::ping_pong_case());
    let two_buyer = case_kind(&mut b, zooid_bench::two_buyer_case());

    // Families: set-up work, and the protocols byzantine casts target.
    let mut family = Vec::new();
    for n in 2..=16usize {
        family.push((format!("ring/{n}"), generators::ring_n(n)));
        family.push((format!("chain/{n}"), generators::chain_n(n)));
        family.push((format!("fanout/{n}"), generators::fanout_n(n)));
    }
    for depth in [2usize, 4, 6] {
        family.push((format!("branching/{depth}"), generators::branching(depth)));
    }
    let mut family_protocols = Vec::new();
    for (name, g) in family {
        if let Some(kind) = b.skeleton_kind(&name, g.clone()) {
            family_protocols.push(Protocol::new(name, g).expect("registered, so well-formed"));
            kinds.push(kind);
        }
    }

    for draw in 0..RANDOM_DRAWS {
        let params = RandomProtocol {
            roles: 3 + rng.below(3),
            depth: 3 + rng.below(2),
            max_branches: 2,
            loop_back_percent: 25,
        };
        let g = generators::random_global(rng.next_u64(), &params);
        // Random protocols may loop: they are registered and certified
        // (set-up work) but not served.
        let _ = b.skeleton_kind(&format!("random/{draw}"), g);
    }

    // Byzantine casts: seeded (protocol, mutation) pairs on the families.
    let mut byzantine = Vec::new();
    let mutations = ByzantineMutation::all();
    let mut attempts = 0;
    while byzantine.len() < BYZANTINE_CASTS && attempts < 64 {
        attempts += 1;
        let protocol = &family_protocols[rng.below(family_protocols.len())];
        let mutation = mutations[rng.below(mutations.len())];
        let Ok(Some(driver)) = byzantine_driver(protocol, mutation) else {
            continue;
        };
        let id = b
            .registry
            .lookup(protocol.name())
            .expect("family protocols are registered");
        kinds.push(Kind {
            label: format!("byzantine/{}/{mutation}", protocol.name()),
            service: protocol.name().to_owned(),
            spec: SessionSpec::new(id, driver.endpoints),
            expect: Expect::Byzantine(mutation.expected()),
            batchable: false,
        });
        byzantine.push(kinds.len() - 1);
    }
    assert!(!byzantine.is_empty(), "some byzantine cast applies");

    let mix = (0..MIX_LEN)
        .map(|_| {
            let u = rng.unit();
            let k = if u < BYZANTINE_SHARE {
                byzantine[rng.below(byzantine.len())]
            } else if u < 0.76 {
                pipeline
            } else if u < 0.88 {
                two_buyer
            } else {
                ping_pong
            };
            k as u32
        })
        .collect();
    b.finish(kinds, mix)
}

/// Checks an in-memory outcome against its kind's expectation.
pub fn check_outcome(kind: &Kind, o: &SessionOutcome) -> Result<(), String> {
    let ok = match kind.expect {
        Expect::Honest => {
            o.all_finished_and_compliant() && !o.quarantined && o.violations.is_empty()
        }
        Expect::HonestBounded => {
            o.compliant
                && !o.quarantined
                && o.violations.is_empty()
                && o.endpoints
                    .values()
                    .all(|r| !matches!(r.status, zooid_runtime::EndpointStatus::Failed { .. }))
        }
        Expect::Byzantine(ExpectedClass::Violation) => o.quarantined && !o.compliant,
        Expect::Byzantine(ExpectedClass::Silence) => o.compliant && !o.complete && !o.quarantined,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: compliant={} complete={} stalled={} quarantined={} violations={}",
            kind.label,
            o.compliant,
            o.complete,
            o.stalled,
            o.quarantined,
            o.violations.len()
        ))
    }
}

/// Checks a wire `Done` against its kind's expectation (wire workloads
/// serve honest kinds only).
pub fn check_done(
    kind: &Kind,
    compliant: bool,
    complete: bool,
    stalled: bool,
    violations: u32,
) -> Result<(), String> {
    let ok = match kind.expect {
        Expect::Honest => compliant && complete && !stalled && violations == 0,
        Expect::HonestBounded => compliant && violations == 0,
        Expect::Byzantine(_) => false,
    };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{}: compliant={compliant} complete={complete} stalled={stalled} violations={violations}",
            kind.label
        ))
    }
}
