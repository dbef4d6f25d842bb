//! Cached handles into the process-wide observability registry.
//!
//! The engines record per-round aggregates (never per-node atomics on the
//! hot path — DFS extensions accumulate in a local and flush once per
//! enumerator call), so each handle is looked up once per process and the
//! steady-state cost is one relaxed atomic add per round or call.

use std::sync::OnceLock;

use cr_obs::{names, Counter, Histogram, Registry};

fn cached(cell: &'static OnceLock<Counter>, name: &'static str) -> &'static Counter {
    cell.get_or_init(|| Registry::global().counter(name))
}

/// Search rounds executed by any OPT(m) engine.
pub(crate) fn optm_rounds() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_ROUNDS)
}

/// Makespan-only `k = 1` OPT(m) answers certified by one of the six
/// polynomial rules (GreedyBalance first) meeting the trivial lower bound,
/// without a configuration search.
pub(crate) fn optm_certified() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_CERTIFIED)
}

/// Makespan-only `k = 1` OPT(m) answers certified by the interval bound
/// meeting the best rule's makespan, without a search.
pub(crate) fn optm_interval_certified() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_INTERVAL_CERTIFIED)
}

/// Makespan-only `k = 1` OPT(m) answers found by the depth-first decision.
pub(crate) fn optm_decided() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_DECIDED)
}

/// Nodes expanded by the depth-first decision, fallbacks included.
pub(crate) fn optm_decision_expansions() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_DECISION_EXPANSIONS)
}

/// Decisions that ran out of nodes and left the answer to the search.
pub(crate) fn optm_decision_fallbacks() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_DECISION_FALLBACKS)
}

/// Decided or fallen-back answers outside `[interval bound, best rule]`;
/// must stay 0.
pub(crate) fn optm_sandwich_violations() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_SANDWICH_VIOLATIONS)
}

/// Records one answer against its sandwich `floor ≤ makespan ≤ best` (the
/// interval bound and the best rule's makespan): a violation is a bug.
pub(crate) fn record_sandwich(floor: usize, makespan: usize, best: usize) {
    optm_sandwich_violations().add(u64::from(!(floor <= makespan && makespan <= best)));
}

/// Configurations entering the round's domination filter.
pub(crate) fn optm_round_candidates() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_ROUND_CANDIDATES)
}

/// Configurations surviving the round's domination filter.
pub(crate) fn optm_round_survivors() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_ROUND_SURVIVORS)
}

/// Candidates the round's domination filter compared against at least one
/// survivor row.
pub(crate) fn optm_filter_checked() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_FILTER_CHECKED)
}

/// Candidates the round's domination filter settled by consumption level:
/// kept without a comparison.
pub(crate) fn optm_filter_settled() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::OPTM_FILTER_SETTLED)
}

/// Bucket bounds of the `optm.frontier_size` histogram: powers of four, so
/// the ~10^4-node rounds of dense searches and the single-node rounds of
/// trivial ones share one fixed grid.
const FRONTIER_SIZE_BOUNDS: [u64; 10] = [1, 4, 16, 64, 256, 1024, 4096, 16384, 65536, 262_144];

/// Configurations surviving the round's domination filter, one
/// observation per round.
pub(crate) fn optm_frontier_size() -> &'static Histogram {
    static H: OnceLock<Histogram> = OnceLock::new();
    H.get_or_init(|| Registry::global().histogram(names::OPTM_FRONTIER_SIZE, &FRONTIER_SIZE_BOUNDS))
}

/// Records one finished round's filter: candidates in, survivors out, the
/// candidates it compared row by row and those it settled by level, and
/// the survivors as one frontier-size observation.
pub(crate) fn record_round_filter(
    candidates: usize,
    survivors: usize,
    checked: usize,
    settled: usize,
) {
    optm_round_candidates().add(delta(candidates));
    optm_round_survivors().add(delta(survivors));
    optm_filter_checked().add(delta(checked));
    optm_filter_settled().add(delta(settled));
    optm_frontier_size().observe(delta(survivors));
}

/// Subset-DFS extension steps in the shared choice enumerator.
pub(crate) fn subset_dfs_nodes() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::SUBSET_DFS_NODES)
}

/// Solve dispatches through the solver registry.
pub(crate) fn solve_total() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::SERVICE_SOLVE_TOTAL)
}

/// Solve dispatches that returned a structured error.
pub(crate) fn solve_errors() -> &'static Counter {
    static C: OnceLock<Counter> = OnceLock::new();
    cached(&C, names::SERVICE_SOLVE_ERRORS)
}

/// `usize` losslessly widened for counter deltas (no panic path).
pub(crate) fn delta(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Records one solver-registry dispatch: the total moves first and the
/// per-method family second, so a snapshot (which reads the
/// alphabetically-earlier `by_method` cells before the total) always sees
/// `sum(by_method) <= total`.  Only *registered* methods get a per-method
/// counter — unknown client-supplied keys must not grow the registry.
pub(crate) fn record_dispatch(method: &str, known: bool, ok: bool) {
    let registry = Registry::global();
    if !registry.enabled() {
        return;
    }
    solve_total().inc();
    if known {
        registry
            .counter(&format!("service.solve.by_method.{method}"))
            .inc();
    }
    if !ok {
        solve_errors().inc();
    }
}
