//! Systems of communicating machines and their state-space exploration.
//!
//! Two explorers share the vocabulary of this module:
//!
//! * [`System::explore`] — the interned engine of [`crate::engine`]: dense
//!   transition tables, packed configurations, and parent pointers that turn
//!   every violation into a replayable [`Violation::trace`];
//! * [`System::explore_exhaustive`] — the original explicit-state explorer,
//!   kept as an independent oracle for differential testing (the same
//!   pattern as `check_trace_equivalence_exhaustive` in `zooid_mpst`).
//!
//! Channel bounds: a positive `bound` caps each FIFO channel at that many
//! in-flight messages (sends into a full channel are disabled); `bound == 0`
//! switches both explorers to rendezvous semantics, where a send fires
//! together with a matching receive of the partner in one atomic step.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};

use zooid_mpst::{Label, Role, Sort};

use crate::engine::CompiledSystem;
use crate::error::{CfsmError, Result};
use crate::machine::{Cfsm, CfsmAction, Direction, StateId};

/// A configuration of a [`System`]: the current state of every machine plus
/// the contents of every FIFO channel.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SystemConfig {
    /// Current state of each machine, in the system's role order.
    pub states: Vec<StateId>,
    /// In-transit messages per ordered pair of roles, oldest first.
    pub channels: BTreeMap<(Role, Role), VecDeque<(Label, Sort)>>,
}

impl SystemConfig {
    fn channel_len(&self, key: &(Role, Role)) -> usize {
        self.channels.get(key).map(VecDeque::len).unwrap_or(0)
    }

    fn all_channels_empty(&self) -> bool {
        self.channels.values().all(VecDeque::is_empty)
    }
}

/// The overall verdict of an exploration, distinguishing a fully-covered
/// safe state space from a search that was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verdict {
    /// The bounded state space was exhausted and no violation was found.
    Safe,
    /// At least one violation was found (conclusive even when the search was
    /// truncated: a found violation is a real reachable configuration).
    Unsafe,
    /// No violation was found but the search hit the configuration limit, so
    /// the absence of violations is *not* established.
    Inconclusive,
}

/// The kind of safety violation a configuration exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ViolationKind {
    /// Nobody can move and not everyone is final.
    Deadlock,
    /// Every machine terminated but a message was never consumed.
    OrphanMessage,
    /// A machine faces a channel head it cannot consume (reception error).
    UnspecifiedReception,
}

/// One step of a counterexample trace: the acting machine's role, the action
/// it performed, and the configuration the step leads to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceStep {
    /// The role whose machine moved (for a rendezvous step at bound 0, the
    /// sender; the matching receiver moves in the same step).
    pub role: Role,
    /// The action the machine performed.
    pub action: CfsmAction,
    /// The configuration reached by this step.
    pub config: SystemConfig,
}

/// A safety violation together with a shortest replayable trace from the
/// initial configuration to the offending one: stepping each
/// [`TraceStep::config`] through [`System::successors`] starting from
/// [`System::initial`] reaches [`Violation::config`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// What went wrong.
    pub kind: ViolationKind,
    /// The offending configuration.
    pub config: SystemConfig,
    /// The steps from the initial configuration to `config` (empty if the
    /// initial configuration itself is the violation).
    pub trace: Vec<TraceStep>,
}

/// What the exploration of a system found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplorationOutcome {
    /// Number of distinct configurations visited.
    pub configurations: usize,
    /// Number of transitions traversed.
    pub transitions: usize,
    /// Configurations in which some machine waits forever (all channels
    /// empty, nobody can move, not everyone is final).
    pub deadlocks: Vec<SystemConfig>,
    /// Configurations in which every machine terminated but a message was
    /// never consumed.
    pub orphan_messages: Vec<SystemConfig>,
    /// Configurations in which a machine faces a message it cannot handle
    /// (reception error).
    pub unspecified_receptions: Vec<SystemConfig>,
    /// Whether exploration was cut short by the configuration limit.
    pub truncated: bool,
    /// Whether a fully-terminated configuration is reachable.
    pub final_reachable: bool,
    /// Whether every explored configuration can still make progress (or is
    /// final) — the executable reading of the liveness guarantee.
    pub live: bool,
    /// The violations found, each with a replayable counterexample trace.
    ///
    /// Populated by [`System::explore`] (the interned engine records parent
    /// pointers); [`System::explore_exhaustive`] reports the same violating
    /// configurations through the per-kind lists but leaves this empty.
    pub violations: Vec<Violation>,
}

impl ExplorationOutcome {
    /// Returns `true` if no deadlock, orphan message or reception error was
    /// found. Note this does **not** imply safety when the search was
    /// truncated — use [`ExplorationOutcome::verdict`] to tell a proven-safe
    /// outcome from an inconclusive one.
    pub fn is_safe(&self) -> bool {
        self.deadlocks.is_empty()
            && self.orphan_messages.is_empty()
            && self.unspecified_receptions.is_empty()
    }

    /// The three-valued verdict: [`Verdict::Unsafe`] if any violation was
    /// found, [`Verdict::Inconclusive`] if none was found but the search hit
    /// the configuration limit, and [`Verdict::Safe`] otherwise.
    pub fn verdict(&self) -> Verdict {
        if !self.is_safe() {
            Verdict::Unsafe
        } else if self.truncated {
            Verdict::Inconclusive
        } else {
            Verdict::Safe
        }
    }
}

/// A system of communicating machines: one [`Cfsm`] per role, FIFO channels
/// per ordered pair of roles.
#[derive(Debug, Clone)]
pub struct System {
    machines: Vec<Cfsm>,
}

impl System {
    /// Builds a system from one machine per role.
    ///
    /// # Errors
    ///
    /// Fails if the list is empty or two machines claim the same role.
    pub fn new(machines: Vec<Cfsm>) -> Result<Self> {
        if machines.is_empty() {
            return Err(CfsmError::EmptySystem);
        }
        let mut seen = BTreeSet::new();
        for m in &machines {
            if !seen.insert(m.role().clone()) {
                return Err(CfsmError::DuplicateRole {
                    role: m.role().clone(),
                });
            }
        }
        Ok(System { machines })
    }

    /// Projects `global` onto every participant and compiles each projection
    /// into a machine — the canonical protocol-to-system pipeline shared by
    /// [`crate::compat::check_protocol`], the benchmarks and the
    /// differential tests.
    ///
    /// # Errors
    ///
    /// Fails if the protocol is ill-formed or not projectable.
    pub fn from_global(global: &zooid_mpst::global::GlobalType) -> Result<Self> {
        let projections =
            zooid_mpst::projection::project_all(global).map_err(CfsmError::Projection)?;
        let machines = projections
            .into_iter()
            .map(|(role, local)| Cfsm::from_local_type(role, &local))
            .collect::<Result<Vec<_>>>()?;
        System::new(machines)
    }

    /// The machines of the system, in role order.
    pub fn machines(&self) -> &[Cfsm] {
        &self.machines
    }

    /// The initial configuration: every machine in its initial state, every
    /// channel empty.
    pub fn initial(&self) -> SystemConfig {
        SystemConfig {
            states: self.machines.iter().map(Cfsm::initial).collect(),
            channels: BTreeMap::new(),
        }
    }

    /// Returns `true` if every machine is in a final state and every channel
    /// is empty.
    pub fn is_final(&self, config: &SystemConfig) -> bool {
        config.all_channels_empty()
            && self
                .machines
                .iter()
                .zip(&config.states)
                .all(|(m, s)| m.is_final(*s))
    }

    /// The index of the machine implementing `role`, if any.
    fn machine_index(&self, role: &Role) -> Option<usize> {
        self.machines.iter().position(|m| m.role() == role)
    }

    /// The configurations reachable from `config` in one step, with channels
    /// bounded to `bound` messages per ordered pair (sends into a full
    /// channel are disabled). With `bound == 0` the semantics is rendezvous:
    /// a send fires together with a matching receive of the partner in one
    /// atomic step, and channels stay empty.
    pub fn successors(&self, config: &SystemConfig, bound: usize) -> Vec<SystemConfig> {
        let mut out = Vec::new();
        for (idx, machine) in self.machines.iter().enumerate() {
            let state = config.states[idx];
            for (_, action, target) in machine.transitions_from(state) {
                match action.direction {
                    Direction::Send if bound == 0 => {
                        let Some(pidx) = self.machine_index(&action.partner) else {
                            continue;
                        };
                        let pstate = config.states[pidx];
                        for (_, pa, ptarget) in self.machines[pidx].transitions_from(pstate) {
                            if pa.direction == Direction::Recv
                                && &pa.partner == machine.role()
                                && pa.label == action.label
                                && pa.sort == action.sort
                            {
                                let mut next = config.clone();
                                next.states[idx] = *target;
                                next.states[pidx] = *ptarget;
                                out.push(next);
                            }
                        }
                    }
                    Direction::Send => {
                        let key = (machine.role().clone(), action.partner.clone());
                        if config.channel_len(&key) >= bound {
                            continue;
                        }
                        let mut next = config.clone();
                        next.states[idx] = *target;
                        next.channels
                            .entry(key)
                            .or_default()
                            .push_back((action.label.clone(), action.sort.clone()));
                        out.push(next);
                    }
                    Direction::Recv => {
                        let key = (action.partner.clone(), machine.role().clone());
                        let Some(queue) = config.channels.get(&key) else {
                            continue;
                        };
                        let Some((head_label, head_sort)) = queue.front() else {
                            continue;
                        };
                        if head_label != &action.label || head_sort != &action.sort {
                            continue;
                        }
                        let mut next = config.clone();
                        next.states[idx] = *target;
                        let q = next.channels.get_mut(&key).expect("checked above");
                        q.pop_front();
                        if q.is_empty() {
                            next.channels.remove(&key);
                        }
                        out.push(next);
                    }
                }
            }
        }
        out
    }

    /// Detects a *reception error* in `config`: some machine is in a
    /// receiving state, the head of the corresponding channel is present,
    /// but no transition of the machine can consume it.
    fn has_unspecified_reception(&self, config: &SystemConfig) -> bool {
        for (idx, machine) in self.machines.iter().enumerate() {
            let state = config.states[idx];
            let recv_transitions: Vec<_> = machine
                .transitions_from(state)
                .filter(|(_, a, _)| a.direction == Direction::Recv)
                .collect();
            if recv_transitions.is_empty() {
                continue;
            }
            // Group expected labels per sender.
            let mut senders: BTreeSet<&Role> = BTreeSet::new();
            for (_, a, _) in &recv_transitions {
                senders.insert(&a.partner);
            }
            for sender in senders {
                let key = (sender.clone(), machine.role().clone());
                if let Some(queue) = config.channels.get(&key) {
                    if let Some((label, sort)) = queue.front() {
                        let handled = recv_transitions.iter().any(|(_, a, _)| {
                            &a.partner == sender && &a.label == label && &a.sort == sort
                        });
                        if !handled {
                            return true;
                        }
                    }
                }
            }
        }
        false
    }

    /// Compiles the system into the interned engine of [`crate::engine`],
    /// ready for repeated exploration without recompiling.
    pub fn compile(&self) -> CompiledSystem {
        CompiledSystem::compile(self)
    }

    /// Explores the configurations reachable with channels bounded to
    /// `bound` messages per ordered pair (rendezvous semantics at bound 0),
    /// visiting at most `max_configs` configurations.
    ///
    /// This runs the interned worklist-BFS engine ([`crate::engine`]); every
    /// violation in the outcome carries a shortest replayable counterexample
    /// trace. The original explicit-state explorer is retained as
    /// [`System::explore_exhaustive`] and the differential tests check both
    /// agree on verdicts, counts and violating configurations.
    pub fn explore(&self, bound: usize, max_configs: usize) -> ExplorationOutcome {
        self.compile().explore(bound, max_configs)
    }

    /// Explores with the ample-set **partial-order reduction** enabled:
    /// commuting interleavings of independent receives are collapsed before
    /// they are generated, so concurrent protocol families shrink from
    /// exponentially many interleavings to their causally distinct
    /// skeletons.
    ///
    /// The verdict (and `final_reachable` / `live`) agrees with
    /// [`System::explore`] and [`System::explore_exhaustive`]; the
    /// configuration/transition counts are smaller and counterexample
    /// traces may order independent steps differently, but every trace
    /// still replays through [`System::successors`]. Compile once with
    /// [`System::compile`] and use
    /// [`CompiledSystem::explore_por`] when exploring repeatedly.
    pub fn explore_por(&self, bound: usize, max_configs: usize) -> ExplorationOutcome {
        self.compile().explore_por(bound, max_configs)
    }

    /// Explores the reduced state space of [`System::explore_por`] on a
    /// work-stealing pool of `threads` workers over a sharded visited map
    /// (see [`crate::parallel`] for the frontier, sharding and termination
    /// protocol).
    ///
    /// Verdicts, counts, `final_reachable` and `live` match
    /// [`System::explore_por`] whenever the search is not truncated;
    /// violation traces are replayable but not guaranteed shortest.
    pub fn explore_parallel(
        &self,
        bound: usize,
        max_configs: usize,
        threads: usize,
    ) -> ExplorationOutcome {
        self.compile().explore_parallel(bound, max_configs, threads)
    }

    /// Exhaustively explores the configurations reachable with channels
    /// bounded to `bound` messages per ordered pair, visiting at most
    /// `max_configs` configurations, using the original explicit-state
    /// representation (role-keyed channel maps, deep-cloned configurations).
    ///
    /// Kept as an independent oracle for differential testing against
    /// [`System::explore`]; its outcome reports violating configurations in
    /// the per-kind lists but leaves [`ExplorationOutcome::violations`]
    /// empty (it records no parent pointers, so it has no traces to attach).
    pub fn explore_exhaustive(&self, bound: usize, max_configs: usize) -> ExplorationOutcome {
        let initial = self.initial();
        let mut visited: HashSet<SystemConfig> = HashSet::new();
        let mut queue: VecDeque<SystemConfig> = VecDeque::from([initial]);
        let mut outcome = ExplorationOutcome {
            configurations: 0,
            transitions: 0,
            deadlocks: Vec::new(),
            orphan_messages: Vec::new(),
            unspecified_receptions: Vec::new(),
            truncated: false,
            final_reachable: false,
            live: true,
            violations: Vec::new(),
        };
        let mut edges: HashMap<SystemConfig, Vec<SystemConfig>> = HashMap::new();

        while let Some(config) = queue.pop_front() {
            if visited.contains(&config) {
                continue;
            }
            if visited.len() >= max_configs {
                outcome.truncated = true;
                break;
            }
            visited.insert(config.clone());
            outcome.configurations += 1;

            let successors = self.successors(&config, bound);
            outcome.transitions += successors.len();

            let is_final = self.is_final(&config);
            if is_final {
                outcome.final_reachable = true;
            }
            let unspec = self.has_unspecified_reception(&config);
            if successors.is_empty() && !is_final {
                if config.all_channels_empty() {
                    outcome.deadlocks.push(config.clone());
                } else if self
                    .machines
                    .iter()
                    .zip(&config.states)
                    .all(|(m, s)| m.is_final(*s))
                {
                    outcome.orphan_messages.push(config.clone());
                } else if !unspec {
                    // Stuck with messages in flight but no reception error:
                    // report it as a deadlock (possibly a bound artefact).
                    outcome.deadlocks.push(config.clone());
                }
            }
            if unspec {
                outcome.unspecified_receptions.push(config.clone());
            }

            edges.insert(config.clone(), successors.clone());
            for next in successors {
                if !visited.contains(&next) {
                    queue.push_back(next);
                }
            }
        }

        // Liveness (executable reading): every explored configuration either
        // is final or has at least one successor; and if the protocol can
        // terminate at all, termination stays reachable from every explored
        // configuration.
        outcome.live = edges.iter().all(|(config, succs)| {
            self.is_final(config) || !succs.is_empty()
        });
        if outcome.final_reachable && outcome.live && !outcome.truncated {
            outcome.live = self.final_reachable_from_everywhere(&edges);
        }
        outcome
    }

    /// Checks that from every explored configuration some final configuration
    /// remains reachable (computed by a backwards fixpoint over the explored
    /// graph).
    fn final_reachable_from_everywhere(
        &self,
        edges: &HashMap<SystemConfig, Vec<SystemConfig>>,
    ) -> bool {
        let mut can_finish: HashSet<&SystemConfig> = edges
            .keys()
            .filter(|c| self.is_final(c))
            .collect();
        loop {
            let mut changed = false;
            for (config, succs) in edges {
                if can_finish.contains(config) {
                    continue;
                }
                if succs.iter().any(|s| can_finish.contains(s)) {
                    can_finish.insert(config);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        edges.keys().all(|c| can_finish.contains(c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zooid_mpst::local::LocalType;

    fn r(name: &str) -> Role {
        Role::new(name)
    }

    fn machine(role: &str, local: &LocalType) -> Cfsm {
        Cfsm::from_local_type(r(role), local).unwrap()
    }

    /// A correct two-party exchange: p sends, q receives.
    fn good_pair() -> System {
        System::new(vec![
            machine("p", &LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End)),
            machine("q", &LocalType::recv1(r("p"), "l", Sort::Nat, LocalType::End)),
        ])
        .unwrap()
    }

    #[test]
    fn a_correct_pair_is_safe_and_live() {
        let outcome = good_pair().explore(4, 10_000);
        assert!(outcome.is_safe(), "{outcome:?}");
        assert!(outcome.final_reachable);
        assert!(outcome.live);
        assert!(!outcome.truncated);
        assert_eq!(outcome.configurations, 3); // init, in-flight, done
    }

    #[test]
    fn mutual_waiting_is_a_deadlock() {
        // Both machines wait for the other to speak first.
        let system = System::new(vec![
            machine("p", &LocalType::recv1(r("q"), "l", Sort::Nat, LocalType::End)),
            machine("q", &LocalType::recv1(r("p"), "l", Sort::Nat, LocalType::End)),
        ])
        .unwrap();
        let outcome = system.explore(4, 10_000);
        assert_eq!(outcome.deadlocks.len(), 1);
        assert!(!outcome.is_safe());
        assert!(!outcome.final_reachable);
    }

    #[test]
    fn unreceived_messages_are_orphans() {
        // p sends but q never listens.
        let system = System::new(vec![
            machine("p", &LocalType::send1(r("q"), "l", Sort::Nat, LocalType::End)),
            machine("q", &LocalType::End),
        ])
        .unwrap();
        let outcome = system.explore(4, 10_000);
        assert!(!outcome.orphan_messages.is_empty());
        assert!(!outcome.is_safe());
    }

    #[test]
    fn mismatched_labels_are_reception_errors() {
        // p sends `ping` but q only understands `pong`.
        let system = System::new(vec![
            machine("p", &LocalType::send1(r("q"), "ping", Sort::Nat, LocalType::End)),
            machine("q", &LocalType::recv1(r("p"), "pong", Sort::Nat, LocalType::End)),
        ])
        .unwrap();
        let outcome = system.explore(4, 10_000);
        assert!(!outcome.unspecified_receptions.is_empty());
        assert!(!outcome.is_safe());
    }

    #[test]
    fn recursive_protocols_are_live_without_a_final_state() {
        // An infinite ping stream: p sends forever, q receives forever.
        let system = System::new(vec![
            machine(
                "p",
                &LocalType::rec(LocalType::send1(r("q"), "tick", Sort::Unit, LocalType::var(0))),
            ),
            machine(
                "q",
                &LocalType::rec(LocalType::recv1(r("p"), "tick", Sort::Unit, LocalType::var(0))),
            ),
        ])
        .unwrap();
        let outcome = system.explore(2, 10_000);
        assert!(outcome.is_safe(), "{outcome:?}");
        assert!(!outcome.final_reachable);
        assert!(outcome.live);
    }

    #[test]
    fn exploration_respects_the_configuration_limit() {
        let system = System::new(vec![
            machine(
                "p",
                &LocalType::rec(LocalType::send1(r("q"), "tick", Sort::Unit, LocalType::var(0))),
            ),
            machine(
                "q",
                &LocalType::rec(LocalType::recv1(r("p"), "tick", Sort::Unit, LocalType::var(0))),
            ),
        ])
        .unwrap();
        let outcome = system.explore(64, 5);
        assert!(outcome.truncated);
        assert!(outcome.configurations <= 5);
    }

    #[test]
    fn empty_and_duplicate_systems_are_rejected() {
        assert!(matches!(System::new(vec![]), Err(CfsmError::EmptySystem)));
        let m = machine("p", &LocalType::End);
        assert!(matches!(
            System::new(vec![m.clone(), m]),
            Err(CfsmError::DuplicateRole { .. })
        ));
    }

    #[test]
    fn accessors_expose_machines_and_initial_configuration() {
        let system = good_pair();
        assert_eq!(system.machines().len(), 2);
        let init = system.initial();
        assert_eq!(init.states.len(), 2);
        assert!(!system.is_final(&init));
    }
}
