//! The workspace metric and span vocabulary.
//!
//! Every name recorded into the global registry is declared here, once, as
//! a `pub const` — recording sites import these instead of retyping
//! strings.  The [`METRIC_NAMES`] and [`SPAN_NAMES`] arrays restate the
//! same names as plain string literals because the `cr-lint` `vocab_sync`
//! rule lexes this file and cross-checks the array contents against the
//! catalog tables in `docs/OBSERVABILITY.md`, both directions — a metric
//! added here without documentation (or documented without existing) fails
//! CI.  The `consts_cover_the_arrays` test keeps the two spellings glued.
//!
//! Dynamic families (one counter per solver method) are declared by their
//! template spelling, e.g. `service.solve.by_method.<method>`; recording
//! sites substitute the final segment.  Only *registered* solver methods
//! get a counter, so client-supplied garbage cannot grow the registry.

/// Requests admitted into a batch flush by the serving tier (per flush).
pub const SERVE_BATCHES: &str = "serve.batches";
/// Histogram of flushed batch sizes (lines per flush, including rejects).
pub const SERVE_BATCH_SIZE: &str = "serve.batch_size";
/// Conversion-cache entries dropped by the wholesale eviction at capacity.
pub const SERVICE_CACHE_EVICTIONS: &str = "service.cache.evictions";
/// Batch/solo lookups served by an already-cached conversion.
pub const SERVICE_CACHE_HITS: &str = "service.cache.hits";
/// Lookups that had to run a fresh instance conversion.
pub const SERVICE_CACHE_MISSES: &str = "service.cache.misses";
/// Per-method solve dispatches; the final segment is the registered
/// solver key (template — see the module docs).
pub const SERVICE_SOLVE_BY_METHOD: &str = "service.solve.by_method.<method>";
/// Solve dispatches that returned a structured error.
pub const SERVICE_SOLVE_ERRORS: &str = "service.solve.errors";
/// Total solve dispatches through the solver registry.
pub const SERVICE_SOLVE_TOTAL: &str = "service.solve.total";
/// Client connections accepted by the socket server.
pub const NET_CONNECTIONS: &str = "net.connections";
/// Connections closed by the idle-timeout reaper.
pub const NET_IDLE_CLOSED: &str = "net.idle_closed";
/// Requests shed with `overloaded` by the admission gate.
pub const NET_OVERLOADED: &str = "net.overloaded";
/// Requests rejected by the per-connection quota.
pub const NET_QUOTA_REJECTED: &str = "net.quota_rejected";
/// Requests answered (result or structured error) by the socket server.
pub const NET_SERVED: &str = "net.served";
/// Worker panics isolated by the per-request catch.
pub const NET_WORKER_PANICS: &str = "net.worker_panics";
/// Search rounds executed by the OPT(m) engines (scaled, rational and
/// multi-resource).
pub const OPTM_ROUNDS: &str = "optm.rounds";
/// Makespan-only `k = 1` OPT(m) answers certified by bounds: one of the six
/// polynomial rules (GreedyBalance first) met the trivial lower bound, so
/// no configuration search ran.
pub const OPTM_CERTIFIED: &str = "optm.certified";
/// Makespan-only `k = 1` OPT(m) answers certified by the interval bound:
/// no rule met the trivial bound, but the best rule's makespan met the
/// least makespan that passes Observation 1 on every step window, so no
/// search ran.
pub const OPTM_INTERVAL_CERTIFIED: &str = "optm.interval_certified";
/// Makespan-only `k = 1` OPT(m) answers found by the depth-first decision
/// below the best rule's makespan, without the configuration search.
pub const OPTM_DECIDED: &str = "optm.decided";
/// Nodes expanded by the depth-first decision, summed over requests, those
/// of decisions that ran out of work included.
pub const OPTM_DECISION_EXPANSIONS: &str = "optm.decision_expansions";
/// Depth-first decisions that ran out of their work budget and left the
/// answer to the configuration search.
pub const OPTM_DECISION_FALLBACKS: &str = "optm.decision_fallbacks";
/// OPT(m) answers outside `[interval bound, best rule]`, over decided
/// answers and decision fallbacks (an interval certificate's answer is
/// both); any count is a bug.
pub const OPTM_SANDWICH_VIOLATIONS: &str = "optm.sandwich_violations";
/// Candidates the domination filter compared against at least one kept
/// row (the rest were settled by consumption level, or passed over by group
/// levels, group maxima or an outright dominator), summed over rounds.
pub const OPTM_FILTER_CHECKED: &str = "optm.filter_checked";
/// Candidates the domination filter settled by consumption level: on their
/// round's top level, so kept without a comparison, summed over rounds.
pub const OPTM_FILTER_SETTLED: &str = "optm.filter_settled";
/// Histogram of frontier sizes: configurations surviving the domination
/// filter, one observation per round.
pub const OPTM_FRONTIER_SIZE: &str = "optm.frontier_size";
/// Frontier configurations entering the domination filter, summed over
/// rounds.
pub const OPTM_ROUND_CANDIDATES: &str = "optm.round_candidates";
/// Frontier configurations surviving the domination filter, summed over
/// rounds.
pub const OPTM_ROUND_SURVIVORS: &str = "optm.round_survivors";
/// Subset-DFS extension steps in the shared choice enumerator.
pub const SUBSET_DFS_NODES: &str = "subset_dfs.nodes";
/// Simulated time steps executed across all runs.
pub const SIM_STEPS: &str = "sim.steps";
/// Resource units consumed across all simulated steps.
pub const SIM_CONSUMED_UNITS: &str = "sim.consumed_units";
/// Resource units wasted (capacity minus consumption) across all steps.
pub const SIM_WASTED_UNITS: &str = "sim.wasted_units";
/// Histogram of per-window utilization (parts per million) over
/// fixed-size step windows; see `cr_sim::obs::UTILIZATION_WINDOW`.
pub const SIM_WINDOW_UTILIZATION_PPM: &str = "sim.window_utilization_ppm";
/// Cores that starved at least one step in the most recent run.
pub const SIM_STARVED_CORES: &str = "sim.starved_cores";
/// Index of the bottleneck resource in the most recent multi-resource run.
pub const SIM_BOTTLENECK_RESOURCE: &str = "sim.bottleneck_resource";

/// Wire-tier span: parsing one request line.
pub const SPAN_SERVE_PARSE: &str = "serve.parse";
/// Service span: one fresh instance conversion (cache miss path).
pub const SPAN_SERVE_PREPARE: &str = "serve.prepare";
/// Service span: one solver dispatch (wraps the engine).
pub const SPAN_SERVE_SOLVE: &str = "serve.solve";
/// Wire-tier span: serializing one response line.
pub const SPAN_SERVE_SERIALIZE: &str = "serve.serialize";
/// OPT(m) span: one whole configuration search.
pub const SPAN_OPTM_SEARCH: &str = "optm.search";
/// OPT(m) span: one search round (expand + filter), nested in the search.
pub const SPAN_OPTM_ROUND: &str = "optm.round";
/// OPT(m) span: expanding one round's frontier into deduplicated
/// candidates, nested in the round.
pub const SPAN_OPTM_EXPAND: &str = "optm.expand";
/// OPT(m) span: the round's Lemma 4 domination filter, nested in the round.
pub const SPAN_OPTM_FILTER: &str = "optm.filter";
/// OptTwo span: the two-processor DP table build.
pub const SPAN_OPT_TWO_DP: &str = "opt_two.dp";
/// Simulator span: one policy run over an instance.
pub const SPAN_SIM_RUN: &str = "sim.run";

/// Every metric name (or dynamic-family template) the workspace registers,
/// as plain literals for the `vocab_sync` lint.  Keep sorted.
pub const METRIC_NAMES: [&str; 33] = [
    "net.connections",
    "net.idle_closed",
    "net.overloaded",
    "net.quota_rejected",
    "net.served",
    "net.worker_panics",
    "optm.certified",
    "optm.decided",
    "optm.decision_expansions",
    "optm.decision_fallbacks",
    "optm.filter_checked",
    "optm.filter_settled",
    "optm.frontier_size",
    "optm.interval_certified",
    "optm.round_candidates",
    "optm.round_survivors",
    "optm.rounds",
    "optm.sandwich_violations",
    "serve.batch_size",
    "serve.batches",
    "service.cache.evictions",
    "service.cache.hits",
    "service.cache.misses",
    "service.solve.by_method.<method>",
    "service.solve.errors",
    "service.solve.total",
    "sim.bottleneck_resource",
    "sim.consumed_units",
    "sim.starved_cores",
    "sim.steps",
    "sim.wasted_units",
    "sim.window_utilization_ppm",
    "subset_dfs.nodes",
];

/// Every span name the workspace enters, as plain literals for the
/// `vocab_sync` lint.  Keep sorted.  Recorded span *paths* are `/`-joined
/// compositions of these names.
pub const SPAN_NAMES: [&str; 10] = [
    "opt_two.dp",
    "optm.expand",
    "optm.filter",
    "optm.round",
    "optm.search",
    "serve.parse",
    "serve.prepare",
    "serve.serialize",
    "serve.solve",
    "sim.run",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn consts_cover_the_arrays() {
        let consts = [
            SERVE_BATCHES,
            SERVE_BATCH_SIZE,
            SERVICE_CACHE_EVICTIONS,
            SERVICE_CACHE_HITS,
            SERVICE_CACHE_MISSES,
            SERVICE_SOLVE_BY_METHOD,
            SERVICE_SOLVE_ERRORS,
            SERVICE_SOLVE_TOTAL,
            NET_CONNECTIONS,
            NET_IDLE_CLOSED,
            NET_OVERLOADED,
            NET_QUOTA_REJECTED,
            NET_SERVED,
            NET_WORKER_PANICS,
            OPTM_ROUNDS,
            OPTM_CERTIFIED,
            OPTM_INTERVAL_CERTIFIED,
            OPTM_DECIDED,
            OPTM_DECISION_EXPANSIONS,
            OPTM_DECISION_FALLBACKS,
            OPTM_SANDWICH_VIOLATIONS,
            OPTM_FILTER_CHECKED,
            OPTM_FILTER_SETTLED,
            OPTM_FRONTIER_SIZE,
            OPTM_ROUND_CANDIDATES,
            OPTM_ROUND_SURVIVORS,
            SUBSET_DFS_NODES,
            SIM_STEPS,
            SIM_CONSUMED_UNITS,
            SIM_WASTED_UNITS,
            SIM_WINDOW_UTILIZATION_PPM,
            SIM_STARVED_CORES,
            SIM_BOTTLENECK_RESOURCE,
        ];
        let mut sorted: Vec<&str> = consts.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted,
            METRIC_NAMES.to_vec(),
            "consts and METRIC_NAMES drifted"
        );
    }

    #[test]
    fn span_consts_cover_the_array() {
        let consts = [
            SPAN_SERVE_PARSE,
            SPAN_SERVE_PREPARE,
            SPAN_SERVE_SOLVE,
            SPAN_SERVE_SERIALIZE,
            SPAN_OPTM_SEARCH,
            SPAN_OPTM_ROUND,
            SPAN_OPTM_EXPAND,
            SPAN_OPTM_FILTER,
            SPAN_OPT_TWO_DP,
            SPAN_SIM_RUN,
        ];
        let mut sorted: Vec<&str> = consts.to_vec();
        sorted.sort_unstable();
        assert_eq!(sorted, SPAN_NAMES.to_vec(), "consts and SPAN_NAMES drifted");
    }

    #[test]
    fn arrays_are_sorted_and_unique() {
        assert!(METRIC_NAMES.windows(2).all(|w| w[0] < w[1]));
        assert!(SPAN_NAMES.windows(2).all(|w| w[0] < w[1]));
    }
}
