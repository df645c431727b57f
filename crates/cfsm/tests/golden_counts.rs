//! Golden counts of the reduced search at the registry's default budget
//! (channel bound 2, 50 000 configurations, partial-order reduction).
//!
//! Verdict agreement alone would let a rewrite of the state-space engine
//! walk a different search that happens to reach the same answers. These
//! numbers pin the search itself: the visited-configuration and transition
//! counts and the truncation point of [`CompiledSystem::explore_por`] on the
//! protocol families the serving benchmark registers. They were recorded
//! from the engine that stored each configuration as a vector of per-channel
//! message buffers, before configurations became flat rows.

use zooid_cfsm::{CompiledSystem, System, Verdict};
use zooid_mpst::generators;
use zooid_mpst::global::GlobalType;

const BOUND: usize = 2;
const MAX_CONFIGS: usize = 50_000;

fn compiled(g: &GlobalType) -> CompiledSystem {
    System::from_global(g).expect("family projects").compile()
}

/// `(family, size, configurations, transitions, final_reachable)`; a count
/// of [`MAX_CONFIGS`] means the search was truncated.
const GOLDEN: &[(&str, usize, usize, usize, bool)] = &[
    ("ring", 2, 5, 4, true),
    ("ring", 3, 7, 6, true),
    ("ring", 4, 9, 8, true),
    ("ring", 5, 11, 10, true),
    ("ring", 6, 13, 12, true),
    ("ring", 7, 15, 14, true),
    ("ring", 8, 17, 16, true),
    ("ring", 9, 19, 18, true),
    ("ring", 10, 21, 20, true),
    ("ring", 11, 23, 22, true),
    ("ring", 12, 25, 24, true),
    ("ring", 13, 27, 26, true),
    ("ring", 14, 29, 28, true),
    ("ring", 15, 31, 30, true),
    ("ring", 16, 33, 32, true),
    ("chain", 2, 2, 2, false),
    ("chain", 3, 10, 12, false),
    ("chain", 4, 47, 64, false),
    ("chain", 5, 218, 322, false),
    ("chain", 6, 992, 1552, false),
    ("chain", 7, 4448, 7264, false),
    ("chain", 8, 19712, 33280, false),
    ("chain", 9, 50000, 88416, false),
    ("chain", 10, 50000, 89399, false),
    ("chain", 11, 50000, 89831, false),
    ("chain", 12, 50000, 89604, false),
    ("chain", 13, 50000, 89528, false),
    ("chain", 14, 50000, 89383, false),
    ("chain", 15, 50000, 89507, false),
    ("chain", 16, 50000, 89331, false),
    ("fanout", 2, 14, 15, true),
    ("fanout", 3, 32, 41, true),
    ("fanout", 4, 68, 101, true),
    ("fanout", 5, 140, 237, true),
    ("fanout", 6, 284, 541, true),
    ("fanout", 7, 572, 1213, true),
    ("fanout", 8, 1148, 2685, true),
    ("fanout", 9, 2300, 5885, true),
    ("fanout", 10, 4604, 12797, true),
    ("fanout", 11, 9212, 27645, true),
    ("fanout", 12, 18428, 59389, true),
    ("fanout", 13, 36860, 126973, true),
    ("fanout", 14, 50000, 214676, false),
    ("fanout", 15, 50000, 256104, false),
    ("fanout", 16, 50000, 273817, false),
    ("branching", 2, 9, 10, true),
    ("branching", 4, 15, 18, true),
    ("branching", 6, 21, 26, true),
];

#[test]
fn the_reduced_search_visits_the_recorded_state_spaces() {
    for &(family, n, configurations, transitions, final_reachable) in GOLDEN {
        let g = match family {
            "ring" => generators::ring_n(n),
            "chain" => generators::chain_n(n),
            "fanout" => generators::fanout_n(n),
            _ => generators::branching(n),
        };
        let outcome = compiled(&g).explore_por(BOUND, MAX_CONFIGS);
        let case = format!("{family}/{n}");
        let truncated = configurations == MAX_CONFIGS;
        assert_eq!(outcome.configurations, configurations, "{case}");
        assert_eq!(outcome.transitions, transitions, "{case}");
        assert_eq!(outcome.truncated, truncated, "{case}");
        assert_eq!(outcome.final_reachable, final_reachable, "{case}");
        assert!(outcome.live, "{case}");
        let verdict = if truncated {
            Verdict::Inconclusive
        } else {
            Verdict::Safe
        };
        assert_eq!(outcome.verdict(), verdict, "{case}");
    }
}

/// A queue can never be longer than the search is deep, and the search is
/// never deeper than the configuration budget: a channel bound beyond the
/// budget explores exactly what a bound equal to the budget explores, so a
/// hostile bound can neither overflow nor over-allocate the configuration
/// rows. Chain queues outgrow the explorers' first row layout here, so the
/// restart on a wider layout is exercised too.
#[test]
fn a_bound_beyond_the_budget_explores_like_the_budget() {
    let chain = compiled(&generators::chain_n(3));
    assert_ne!(chain.explore_por(4, 1000), chain.explore_por(1000, 1000));
    assert_ne!(chain.explore_por(4, 1000), chain.explore_por(8, 1000));
    for g in [
        generators::ring_n(4),
        generators::chain_n(3),
        generators::fanout_n(3),
        generators::two_buyer(),
    ] {
        let system = compiled(&g);
        assert_eq!(
            system.explore_por(usize::MAX, 1000),
            system.explore_por(1000, 1000)
        );
        assert_eq!(system.explore(usize::MAX, 1000), system.explore(1000, 1000));
        assert_eq!(
            system.explore_parallel(usize::MAX, 1000, 1),
            system.explore_parallel(1000, 1000, 1)
        );
        // Two workers: at bound 8 the chain's queues outgrow the first
        // layout, so the pool is stopped with jobs still queued and rebuilt
        // wider; a complete search ends with the sequential reduced space.
        for bound in [8, usize::MAX] {
            let wide = system.explore_parallel(bound, 1000, 2);
            let por = system.explore_por(bound, 1000);
            assert_eq!(wide.truncated, por.truncated);
            assert_eq!(wide.verdict(), por.verdict());
            assert_eq!(wide.configurations, por.configurations);
            if !por.truncated {
                assert_eq!(wide.transitions, por.transitions);
                assert_eq!(wide.final_reachable, por.final_reachable);
                assert_eq!(wide.live, por.live);
            }
        }
    }
}
