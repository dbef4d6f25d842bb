//! The scaled-integer engine behind the exact solvers.
//!
//! `opt_two`, `opt_m` and `brute_force` all expose `Ratio`-based public APIs
//! but delegate their hot single-resource search loops to this module,
//! which works on a [`ScaledInstance`]: requirements as plain `u64` units
//! with resource capacity `D` (the denominators' LCM).  Compared to the
//! generic `Ratio` search of [`crate::multi_engine`] this removes
//!
//! * every gcd: sums, capacity tests and leftover computations are single
//!   integer ops;
//! * the `MConfig { Vec<u32>, Vec<Ratio> }` search key: a configuration is
//!   `2m` words (`completed` counts, then `spent` units), and a search round
//!   is one flat [`Round`] of them plus `u32` parent positions, so a round
//!   costs two allocations however many nodes it holds;
//! * per-call successor `Vec`s: [`for_each_successor`] streams successors
//!   through a callback, filling a caller-provided [`SuccScratch`] buffer.
//!
//! Successor generation runs on the width-independent pruned DFS enumerator
//! shared with the generic search ([`crate::subset_enum`]), so any number
//! of simultaneously active processors is supported — the pre-ISSUE-4
//! engine asserted `k < 32` because it scanned `1u32 << k` subset masks.
//!
//! [`run_search`] runs every round serially.  Expansion streams the previous
//! round's successors, in parent order, into one candidate arena and drops
//! exact duplicates through an open-addressing [`RowIndex`] of arena
//! positions (the first representative wins), so a candidate allocates
//! nothing.  The Lemma 4 survivors come from the grouped filter shared with
//! the other engines ([`crate::dominance`]); this engine hands it each
//! candidate's consumption level, the units consumed plus the completed
//! zero-requirement jobs, so the filter keeps the round's top-level
//! candidates, nearly all of them, without comparing them.  The survivors
//! are copied once, by (Σ completed, Σ spent, index) descending, into the
//! next [`Round`]; that order is sorted on one packed `(u128, u32)` key
//! ([`emission_key`]).  Over the 45 `Uniform m=4 n=3` instances of the
//! `exact-frontier` benchmark, a pass took 118–138 ms with the filter's
//! round-wide visiting sort and 88–93 ms with hashed groups and settled
//! candidates (minimum of nine passes, four alternating runs, 2-vCPU
//! host); expansion is now about two thirds of a pass.
//!
//! A round keeps no step decisions: [`search_schedule`] recovers each step
//! from a parent and child configuration (a processor whose completed count
//! rose finished its frontier job; one whose spent units rose received
//! them).  A round that outgrows the `u32` positions surfaces as a
//! structured [`SearchError`] during expansion instead of a panic; callers
//! fall back to the generic `Ratio` search.
//!
//! The engine is internal; its correctness contract is "identical makespans
//! to the generic `Ratio` search", enforced by unit tests here, by the
//! per-round survivor counts pinned in `crate::pinned`, and by the
//! `proptest_scaled` cross-check suite.

use crate::dominance::{DominanceFilter, Level, RowIndex, EMPTY, FILTER_CHECK_STRIDE};
use crate::subset_enum::{for_each_choice_cancellable, EnumScratch, CHOICE_CHECK_STRIDE};
use cr_core::{
    CancelGate, CancelReason, CancelToken, Instance, Ratio, ScaledInstance, Schedule,
    ScheduleBuilder,
};
use rustc_hash::FxHashMap;
use std::fmt;

/// Structured failure of the configuration search.  The search is total for
/// every realistic instance; this exists so the single capacity limit left
/// in the engine — round positions are `u32` — degrades into a recoverable
/// error (callers fall back to the generic `Ratio` search) instead of a
/// panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchError {
    /// A search round holds more nodes than `u32` positions can address.
    RoundTooLarge {
        /// The 0-based round whose node count overflowed.
        round: usize,
        /// The node count it reached when expansion stopped.
        nodes: usize,
    },
    /// The search's [`CancelToken`] fired (deadline passed or the request
    /// was cancelled externally) and the loops stopped cooperatively.
    Cancelled {
        /// Why the token fired.
        reason: CancelReason,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::RoundTooLarge { round, nodes } => write!(
                f,
                "configuration-search round {round} holds {nodes} nodes, \
                 exceeding the u32 parent-index headroom"
            ),
            SearchError::Cancelled { reason } => {
                write!(f, "configuration search stopped: {reason}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

/// The initial configuration: nothing completed, nothing spent.
pub(crate) fn initial_config(m: usize) -> Vec<u64> {
    vec![0; 2 * m]
}

/// Whether every processor has completed all of its jobs.
pub(crate) fn is_final(scaled: &ScaledInstance, config: &[u64]) -> bool {
    (0..scaled.processors()).all(|i| config[i] as usize >= scaled.jobs_on(i))
}

/// Reusable scratch buffers for successor generation (one per search, not
/// one per expansion).
#[derive(Debug, Default)]
pub(crate) struct SuccScratch {
    active: Vec<usize>,
    remaining: Vec<u64>,
    tmp: Vec<u64>,
    choices: EnumScratch,
}

/// Streams all successor configurations of `config` reachable in one
/// normalized (non-wasting, progressive) time step to `emit`.  The slice
/// handed to `emit` lives in `scratch` — callers that keep a successor must
/// copy it out; [`step_between`] recovers the step decision.
///
/// Runs on the shared pruned DFS enumerator (`crate::subset_enum`), so the
/// active-processor count is unbounded and unit sums are overflow-checked.
/// Emits the same successor set as the generic search on one resource.
#[cfg(test)]
pub(crate) fn for_each_successor(
    scaled: &ScaledInstance,
    config: &[u64],
    scratch: &mut SuccScratch,
    emit: impl FnMut(&[u64]),
) {
    let mut gate = CancelToken::never().gate(CHOICE_CHECK_STRIDE);
    for_each_successor_cancellable(scaled, config, scratch, &mut gate, emit)
        .expect("a never token cannot fire");
}

/// [`for_each_successor`] with cooperative cancellation: the underlying
/// choice DFS consults `gate`, so even a single configuration with an
/// exponentially large choice space stops promptly.  Successors already
/// emitted before the cut are not unwound.
pub(crate) fn for_each_successor_cancellable(
    scaled: &ScaledInstance,
    config: &[u64],
    scratch: &mut SuccScratch,
    gate: &mut CancelGate,
    mut emit: impl FnMut(&[u64]),
) -> Result<(), CancelReason> {
    let m = scaled.processors();
    let SuccScratch {
        active,
        remaining,
        tmp,
        choices,
    } = scratch;
    active.clear();
    remaining.clear();
    // lint: allow(cancel_coverage) — bounded: one pass over the m processors per expansion; the choice enumeration below is gated
    for i in 0..m {
        let done = config[i] as usize;
        if done < scaled.jobs_on(i) {
            active.push(i);
            remaining.push(scaled.unit_req(i, done) - config[m + i]);
        }
    }
    if active.is_empty() {
        return Ok(());
    }
    for_each_choice_cancellable(
        remaining,
        scaled.capacity(),
        choices,
        gate,
        &mut |finished, partial| {
            tmp.clear();
            tmp.extend_from_slice(config);
            // lint: allow(cancel_coverage) — bounded: `finished` is a subset of the <= m active processors
            for &entry in finished {
                let p = active[entry as usize];
                tmp[p] += 1;
                tmp[m + p] = 0;
            }
            if let Some((entry, amount)) = partial {
                // spent + leftover stays below the frontier requirement ≤ D.
                tmp[m + active[entry as usize]] += amount;
            }
            emit(tmp);
        },
    )
}

/// What one processor received in a search step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Grant {
    /// Its frontier job completed.
    Finish,
    /// It received this many units without completing (the partial
    /// receiver).
    Partial(u64),
}

/// The step that turns `parent` into `child`, its successor in the next
/// round, as the processors it served: a processor whose completed count
/// rose finished its frontier job, and one whose spent units rose received
/// the difference.  Every step a successor can come from yields these
/// grants, so the child's first representative needs no stored decision.
fn step_between<'a>(
    parent: &'a [u64],
    child: &'a [u64],
) -> impl Iterator<Item = (usize, Grant)> + 'a {
    let m = parent.len() / 2;
    (0..m).filter_map(move |p| {
        if child[p] > parent[p] {
            Some((p, Grant::Finish))
        } else if child[m + p] > parent[m + p] {
            Some((p, Grant::Partial(child[m + p] - parent[m + p])))
        } else {
            None
        }
    })
}

/// One round of the configuration search, stored flat: configuration `i`
/// is the `2m` words at `i · 2m` of `configs` (completed counts, then spent
/// units), reached from position `parents[i]` of the previous round
/// (`u32::MAX` for the initial configuration).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Round {
    /// Words per configuration (`2m`).
    width: usize,
    /// The configurations, back to back.
    configs: Vec<u64>,
    /// Each configuration's parent position in the previous round.
    parents: Vec<u32>,
}

impl Round {
    /// An empty round over `m` processors with room for `nodes`
    /// configurations.
    fn with_capacity(m: usize, nodes: usize) -> Self {
        Round {
            width: 2 * m,
            configs: Vec::with_capacity(nodes * 2 * m),
            parents: Vec::with_capacity(nodes),
        }
    }

    /// The round holding only the initial configuration.
    fn initial(m: usize) -> Self {
        let mut round = Round::with_capacity(m, 1);
        round.push(&initial_config(m), u32::MAX);
        round
    }

    /// The number of configurations.
    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    /// Configuration `i`.
    fn config(&self, i: usize) -> &[u64] {
        &self.configs[i * self.width..(i + 1) * self.width]
    }

    /// Appends `config`, reached from position `parent` of the previous
    /// round.
    fn push(&mut self, config: &[u64], parent: u32) {
        self.configs.extend_from_slice(config);
        self.parents.push(parent);
    }

    /// The position of the first final configuration, if any.
    fn first_final(&self, scaled: &ScaledInstance) -> Option<usize> {
        (0..self.len()).find(|&i| is_final(scaled, self.config(i)))
    }
}

/// One round's candidates while it is expanded and filtered: an arena in
/// the flat layout of a [`Round`] plus a [`RowIndex`] of arena positions
/// that finds exact duplicates.  One `Candidates` lives for a whole search
/// and is cleared, not freed, between rounds.
#[derive(Debug)]
struct Candidates {
    /// The candidates, in insertion order.
    arena: Round,
    /// The arena's configurations by content.
    index: RowIndex,
}

impl Candidates {
    fn new(m: usize) -> Self {
        Candidates {
            arena: Round::with_capacity(m, 0),
            index: RowIndex::new(),
        }
    }

    fn clear(&mut self) {
        self.arena.configs.clear();
        self.arena.parents.clear();
        self.index.clear();
    }

    /// Adds `config`, reached from `parent`, unless an exact duplicate is
    /// already present (the first representative wins).
    ///
    /// # Errors
    ///
    /// The candidate count it would reach once the positions no longer fit
    /// `u32` (below the [`EMPTY`] marker).
    fn insert(&mut self, config: &[u64], parent: u32) -> Result<(), usize> {
        let width = self.arena.width;
        let Err(slot) = self.index.find(&self.arena.configs, width, config) else {
            return Ok(());
        };
        let len = self.arena.len();
        let position = u32::try_from(len)
            .ok()
            .filter(|&position| position != EMPTY)
            .ok_or(len + 1)?;
        self.arena.push(config, parent);
        self.index
            .occupy(slot, position, &self.arena.configs, width);
        Ok(())
    }
}

/// Per-processor prefix sums behind a configuration's consumption
/// [`Level`]: entry `start[i] + c` holds the units of processor `i`'s first
/// `c` jobs and how many of them require nothing.
#[derive(Debug)]
pub(crate) struct LevelTable {
    /// Each processor's first entry in `prefix`.
    start: Vec<usize>,
    /// The prefix sums, `jobs_on(i) + 1` entries per processor.
    prefix: Vec<Level>,
}

impl LevelTable {
    pub(crate) fn new(scaled: &ScaledInstance) -> Self {
        let m = scaled.processors();
        let mut start = Vec::with_capacity(m);
        let mut prefix = Vec::with_capacity(scaled.total_jobs() + m);
        // lint: allow(cancel_coverage) — bounded: one pass over the instance's jobs per search
        for i in 0..m {
            start.push(prefix.len());
            let mut level = Level::default();
            prefix.push(level);
            // lint: allow(cancel_coverage) — bounded: one processor's chain
            for &units in scaled.row(i) {
                level.0 += u128::from(units);
                level.1 += u64::from(units == 0);
                prefix.push(level);
            }
        }
        LevelTable { start, prefix }
    }

    /// The level of `config`: the units it has consumed (each processor's
    /// completed requirements plus its spent units), then its completed
    /// zero-requirement jobs.  A configuration dominating another one it
    /// differs from sits on a strictly higher level: on every processor it
    /// has consumed at least as many units and completed at least as many
    /// free jobs, and where it completed more jobs it consumed more units
    /// (spent stays below the frontier requirement) unless the extra jobs
    /// are free.
    pub(crate) fn level(&self, config: &[u64]) -> Level {
        let m = self.start.len();
        let (completed, spent) = config.split_at(m);
        self.start.iter().zip(completed).zip(spent).fold(
            Level::default(),
            |(units, free), ((&start, &done), &spent)| {
                let (done_units, done_free) = self.prefix[start + done as usize];
                (units + done_units + u128::from(spent), free + done_free)
            },
        )
    }
}

/// Expands `prev` into `candidates`: successors in parent order, exact
/// duplicates dropped (the first representative wins).
///
/// # Errors
///
/// [`SearchError::Cancelled`] once the gate's token fires, and
/// [`SearchError::RoundTooLarge`] (for round `round`) when the candidates
/// outgrow `u32` positions.
fn expand_round(
    scaled: &ScaledInstance,
    prev: &Round,
    round: usize,
    candidates: &mut Candidates,
    scratch: &mut SuccScratch,
    gate: &mut CancelGate,
) -> Result<(), SearchError> {
    candidates.clear();
    let mut overflow = None;
    // `prev` holds fewer than u32::MAX configurations, so `0u32..` (zipped
    // second, advanced only while `prev` yields) cannot overflow.
    for (index, parent) in (0..prev.len()).zip(0u32..) {
        for_each_successor_cancellable(scaled, prev.config(index), scratch, gate, |child| {
            if overflow.is_none() {
                overflow = candidates.insert(child, parent).err();
            }
        })
        .map_err(|reason| SearchError::Cancelled { reason })?;
        if let Some(nodes) = overflow {
            return Err(SearchError::RoundTooLarge { round, nodes });
        }
    }
    Ok(())
}

/// Runs the Algorithm 2 configuration search on the scaled instance and
/// returns, per round, the surviving (deduplicated, non-dominated) nodes.
/// The search stops after the first round containing a final configuration.
///
/// # Errors
///
/// [`SearchError::RoundTooLarge`] when a round outgrows the `u32`
/// positions; callers fall back to the generic `Ratio` search.
pub(crate) fn run_search(scaled: &ScaledInstance) -> Result<Vec<Round>, SearchError> {
    run_search_cancellable(scaled, None, &CancelToken::never())
        // lint: allow(panic_hygiene) — with no round cap the search only reports None when capped, and a never-token cannot fire
        .map(|rounds| rounds.expect("uncapped search always reaches a final configuration"))
}

/// The emission key of a configuration over `m` processors: its completed
/// counts' sum Σc above bit 96, its spent units' sum Σs below, so that one
/// `u128` comparison orders by (Σc, Σs).  Exact when [`emission_key_fits`]
/// holds for the instance: Σc ≤ total jobs < 2^32, and Σs < m·D ≤ 2^96
/// (spent units stay below a requirement ≤ D).  Σs is summed in `u128`:
/// with the 2·D capacity headroom, three spent values may exceed `u64`.
fn emission_key(m: usize, config: &[u64]) -> u128 {
    let (completed, spent) = config.split_at(m);
    let completed: u64 = completed.iter().sum();
    let spent: u128 = spent.iter().map(|&units| u128::from(units)).sum();
    u128::from(completed) << 96 | spent
}

/// Whether [`emission_key`] is exact on every configuration of `scaled`:
/// fewer than 2^32 jobs, and m·D at most 2^96.  Checked once per search;
/// failing it takes 2^32 jobs or 2^33 processors.
fn emission_key_fits(scaled: &ScaledInstance) -> bool {
    let m = scaled.processors() as u128;
    (scaled.total_jobs() as u128) < 1 << 32 && m * u128::from(scaled.capacity()) <= 1 << 96
}

/// The kept candidates of `arena` in emission order, (Σ completed,
/// Σ spent, index) descending: packed [`emission_key`]s with arena
/// positions, written to `order`.
fn emission_order(arena: &Round, keep: &[bool], order: &mut Vec<(u128, u32)>) {
    let m = arena.width / 2;
    order.clear();
    // The arena holds fewer than u32::MAX candidates (`Candidates::insert`),
    // so `0u32..`, zipped second, cannot overflow.
    order.extend(
        keep.iter()
            .zip(0u32..)
            .filter(|&(&kept, _)| kept)
            .map(|(_, i)| (emission_key(m, arena.config(i as usize)), i)),
    );
    order.sort_unstable_by(|a, b| b.cmp(a));
}

/// [`run_search`] with a hard round cap (the solver layer's `max_rounds`
/// budget; `Ok(None)` when the cap is reached before a final configuration
/// appears, so a deliberately over-budget request costs at most `cap`
/// rounds) and cooperative cancellation: every long loop of the search
/// (round expansion, the choice DFS, the dominance filter) consults
/// `token`, so the search stops within one check interval of the token
/// firing, surfacing [`SearchError::Cancelled`].
///
/// # Panics
///
/// Panics if the instance holds 2^32 or more jobs, or so many processors
/// that m·D exceeds 2^96 (see [`emission_key_fits`]).
pub(crate) fn run_search_cancellable(
    scaled: &ScaledInstance,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<Vec<Round>>, SearchError> {
    let _search_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_SEARCH);
    let cancelled = |reason: CancelReason| SearchError::Cancelled { reason };
    let m = scaled.processors();
    let mut rounds = vec![Round::initial(m)];
    if is_final(scaled, rounds[0].config(0)) {
        return Ok(Some(rounds));
    }

    let levels = LevelTable::new(scaled);
    let mut candidates = Candidates::new(m);
    let mut scratch = SuccScratch::default();
    let mut filter = DominanceFilter::new(m, 1);
    assert!(
        emission_key_fits(scaled),
        "2^32 jobs or an m·D above 2^96 overflow the packed emission key"
    );
    let mut order: Vec<(u128, u32)> = Vec::new();
    let mut gate = token.gate(CHOICE_CHECK_STRIDE);
    let mut filter_gate = token.gate(FILTER_CHECK_STRIDE);
    let max_rounds = scaled.total_jobs() + 1;
    let round_limit = round_cap.map_or(max_rounds, |cap| cap.min(max_rounds));
    for _round in 0..round_limit {
        token.check().map_err(cancelled)?;
        let mut round_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_ROUND);
        crate::obs::optm_rounds().inc();
        // lint: allow(panic_hygiene) — `rounds` is seeded with the initial round before this loop
        let prev = rounds.last().expect("at least the initial round");
        expand_round(
            scaled,
            prev,
            rounds.len(),
            &mut candidates,
            &mut scratch,
            &mut gate,
        )?;
        round_span.lap(cr_obs::names::SPAN_OPTM_EXPAND);

        // Keep the Lemma 4 survivors, emitted by (Σ completed, Σ spent,
        // index) descending.
        let arena = &candidates.arena;
        filter.clear();
        // lint: allow(cancel_coverage) — bounded: one O(m) copy per candidate; the filter ticks its gate per candidate
        for i in 0..arena.len() {
            let config = arena.config(i);
            filter.push(
                config[..m].iter().copied(),
                &config[m..],
                Some(levels.level(config)),
            );
        }
        let keep = filter.survivors(&mut filter_gate).map_err(cancelled)?;
        emission_order(arena, keep, &mut order);
        let mut next = Round::with_capacity(m, order.len());
        // lint: allow(cancel_coverage) — bounded: one O(m) copy per survivor of the gated filter
        for &(_, i) in &order {
            let i = i as usize;
            next.push(arena.config(i), arena.parents[i]);
        }
        round_span.lap(cr_obs::names::SPAN_OPTM_FILTER);
        crate::obs::record_round_filter(
            arena.len(),
            next.len(),
            filter.checked(),
            filter.settled(),
        );

        let done = next.first_final(scaled).is_some();
        rounds.push(next);
        if done {
            return Ok(Some(rounds));
        }
    }
    // Only a round cap can leave the search unfinished: the uncapped limit
    // of `total_jobs + 1` rounds always suffices (every normalized step
    // completes at least one job).
    debug_assert!(round_cap.is_some(), "uncapped search must terminate");
    Ok(None)
}

/// The optimal makespan from a finished configuration search.
pub(crate) fn search_makespan(scaled: &ScaledInstance, rounds: &[Round]) -> usize {
    if is_final(scaled, rounds[0].config(0)) {
        return 0;
    }
    let last = rounds.len() - 1;
    assert!(
        rounds[last].first_final(scaled).is_some(),
        "configuration search ended without reaching a final configuration"
    );
    last
}

/// Reconstructs an optimal schedule from a finished configuration search by
/// back-tracing the winner and replaying each step, recovered from its
/// parent and child configurations, through the exact `Ratio`-based
/// [`ScheduleBuilder`] (the scaled units convert back losslessly via
/// [`ScaledInstance::to_ratio`]).
pub(crate) fn search_schedule(
    instance: &Instance,
    scaled: &ScaledInstance,
    rounds: &[Round],
) -> Schedule {
    let last = rounds.len() - 1;
    if last == 0 {
        return Schedule::empty();
    }
    // The winner's position in every round, walked back from the last.
    let mut path = vec![0usize; last + 1];
    path[last] = rounds[last]
        .first_final(scaled)
        // lint: allow(panic_hygiene) — `last` is set only once its round contains a final configuration
        .expect("search ended on a final configuration");
    // lint: allow(cancel_coverage) — bounded: the back-trace visits one node per round of the already-gated search
    for round in (1..=last).rev() {
        path[round - 1] = rounds[round].parents[path[round]] as usize;
    }

    let m = scaled.processors();
    let mut builder = ScheduleBuilder::new(instance);
    // lint: allow(cancel_coverage) — bounded: replays one already-gated search round per step
    for round in 1..=last {
        let parent = rounds[round - 1].config(path[round - 1]);
        let child = rounds[round].config(path[round]);
        let mut shares = vec![Ratio::ZERO; m];
        // lint: allow(cancel_coverage) — bounded: a step serves at most m processors
        for (p, grant) in step_between(parent, child) {
            shares[p] = match grant {
                Grant::Finish => builder.remaining_workload(p),
                Grant::Partial(units) => scaled.to_ratio(units),
            };
        }
        builder.push_step(shares);
    }
    builder.finish()
}

/// Memoized exhaustive search (the brute-force reference) on the scaled
/// instance.  Returns `(optimal makespan, memoized states, expansions)`.
#[cfg(test)]
pub(crate) fn brute_force(scaled: &ScaledInstance) -> (usize, usize, usize) {
    brute_force_cancellable(scaled, &CancelToken::never()).expect("a never token cannot fire")
}

/// [`brute_force`] with cooperative cancellation: the memoized DFS consults
/// `token` on every expansion (and inside the choice enumeration), so even
/// an exponential search stops within one check stride of the token firing.
pub(crate) fn brute_force_cancellable(
    scaled: &ScaledInstance,
    token: &CancelToken,
) -> Result<(usize, usize, usize), CancelReason> {
    token.check()?;
    let mut memo: FxHashMap<Box<[u64]>, usize> = FxHashMap::default();
    let mut scratch = SuccScratch::default();
    let mut expansions = 0usize;
    let mut gate = token.gate(CHOICE_CHECK_STRIDE);
    let initial = initial_config(scaled.processors()).into_boxed_slice();
    let best = brute_force_dfs(
        scaled,
        initial,
        &mut memo,
        &mut scratch,
        &mut gate,
        &mut expansions,
    )?;
    Ok((best, memo.len(), expansions))
}

/// One memoized DFS step; `config` becomes its own memo key.
fn brute_force_dfs(
    scaled: &ScaledInstance,
    config: Box<[u64]>,
    memo: &mut FxHashMap<Box<[u64]>, usize>,
    scratch: &mut SuccScratch,
    gate: &mut CancelGate,
    expansions: &mut usize,
) -> Result<usize, CancelReason> {
    if is_final(scaled, &config) {
        return Ok(0);
    }
    if let Some(&v) = memo.get(&config) {
        return Ok(v);
    }
    gate.tick()?;
    *expansions += 1;
    // Collect successors first (the scratch buffers are reused by the
    // recursive calls), then recurse.
    let mut successors: Vec<Box<[u64]>> = Vec::new();
    for_each_successor_cancellable(scaled, &config, scratch, gate, |child| {
        successors.push(Box::from(child));
    })?;
    let mut best = usize::MAX;
    for next in successors {
        let sub = brute_force_dfs(scaled, next, memo, scratch, gate, expansions)?;
        if sub != usize::MAX {
            best = best.min(sub + 1);
        }
    }
    memo.insert(config, best);
    Ok(best)
}

/// Decision per DP step of the two-processor dynamic program, stored as one
/// byte in the flat table.
pub(crate) const DP_NONE: u8 = 0;
/// Both frontier jobs finish in this step.
pub(crate) const DP_BOTH: u8 = 1;
/// Only processor 0's frontier job finishes.
pub(crate) const DP_FIRST: u8 = 2;
/// Only processor 1's frontier job finishes.
pub(crate) const DP_SECOND: u8 = 3;

const UNREACHED: u32 = u32::MAX;

/// One cell of the flat two-processor DP table.
#[derive(Debug, Clone, Copy)]
struct FlatCell {
    /// Earliest step count reaching this cell (`UNREACHED` if not yet).
    t: u32,
    /// Smallest achievable frontier-remainder sum at time `t`, in units.
    /// Bounded by `2·D` (one requirement plus one carried leftover) — the
    /// exact headroom [`ScaledInstance::try_new`] reserves.
    r: u64,
    /// Decision taken on the best path into this cell.
    decision: u8,
}

/// The Algorithm 1 dynamic program on a flat `(n1+1)·(n2+1)` table of
/// integer cells (no hashing, no rational arithmetic, contiguous memory).
#[derive(Debug)]
pub(crate) struct ScaledDpTable {
    cells: Vec<FlatCell>,
    n1: usize,
    n2: usize,
}

/// How many DP cells between token checks: cells are a handful of integer
/// ops each, so the gate overhead must be amortized further than the
/// successor filter's stride.
const DP_CHECK_STRIDE: u32 = 4096;

impl ScaledDpTable {
    /// Runs the dense DP for a two-processor scaled instance.
    pub(crate) fn compute(scaled: &ScaledInstance) -> Self {
        Self::compute_cancellable(scaled, &CancelToken::never())
            // lint: allow(panic_hygiene) — a never-token cannot fire
            .expect("never-token cannot fire")
    }

    /// [`Self::compute`] under a [`CancelToken`]: the `O(n1·n2)` cell loop
    /// polls the token every [`DP_CHECK_STRIDE`] cells and stops
    /// cooperatively once it fires.
    pub(crate) fn compute_cancellable(
        scaled: &ScaledInstance,
        token: &CancelToken,
    ) -> Result<Self, CancelReason> {
        assert_eq!(scaled.processors(), 2, "scaled DP needs two processors");
        let _dp_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPT_TWO_DP);
        let n1 = scaled.jobs_on(0);
        let n2 = scaled.jobs_on(1);
        let cap = scaled.capacity();
        let row1 = scaled.row(0);
        let row2 = scaled.row(1);
        let req1 = |c: usize| -> u64 { row1.get(c).copied().unwrap_or(0) };
        let req2 = |c: usize| -> u64 { row2.get(c).copied().unwrap_or(0) };

        let stride = n2 + 1;
        let mut cells = vec![
            FlatCell {
                t: UNREACHED,
                r: 0,
                decision: DP_NONE,
            };
            (n1 + 1) * stride
        ];
        cells[0] = FlatCell {
            t: 0,
            r: req1(0) + req2(0),
            decision: DP_NONE,
        };

        // Row-major order visits every predecessor before its successors:
        // all three transitions strictly increase (c1, c2) lexicographically.
        let mut gate = token.gate(DP_CHECK_STRIDE);
        for c1 in 0..=n1 {
            for c2 in 0..=n2 {
                gate.tick()?;
                let cell = cells[c1 * stride + c2];
                if cell.t == UNREACHED || (c1 == n1 && c2 == n2) {
                    continue;
                }
                let (t, r) = (cell.t + 1, cell.r);
                if c1 < n1 && c2 == n2 {
                    relax(
                        &mut cells[(c1 + 1) * stride + c2],
                        t,
                        req1(c1 + 1),
                        DP_FIRST,
                    );
                } else if c1 == n1 {
                    relax(&mut cells[c1 * stride + c2 + 1], t, req2(c2 + 1), DP_SECOND);
                } else if r <= cap {
                    relax(
                        &mut cells[(c1 + 1) * stride + c2 + 1],
                        t,
                        req1(c1 + 1) + req2(c2 + 1),
                        DP_BOTH,
                    );
                } else {
                    let carried = r - cap;
                    relax(
                        &mut cells[(c1 + 1) * stride + c2],
                        t,
                        req1(c1 + 1) + carried,
                        DP_FIRST,
                    );
                    relax(
                        &mut cells[c1 * stride + c2 + 1],
                        t,
                        carried + req2(c2 + 1),
                        DP_SECOND,
                    );
                }
            }
        }
        Ok(ScaledDpTable { cells, n1, n2 })
    }

    /// The optimal makespan (value of the final cell).
    pub(crate) fn makespan(&self) -> usize {
        let cell = &self.cells[self.n1 * (self.n2 + 1) + self.n2];
        assert!(cell.t != UNREACHED, "final DP cell is always reachable");
        cell.t as usize
    }

    /// Back-traces the decisions from the final cell to the origin, in
    /// forward (replay) order.
    pub(crate) fn decisions(&self) -> Vec<u8> {
        let stride = self.n2 + 1;
        let mut decisions = Vec::with_capacity(self.makespan());
        let (mut c1, mut c2) = (self.n1, self.n2);
        // lint: allow(cancel_coverage) — back-trace: every step decrements
        // c1+c2, so at most n1+n2 iterations after the (gated) DP filled.
        loop {
            let cell = &self.cells[c1 * stride + c2];
            match cell.decision {
                DP_NONE => break,
                DP_BOTH => {
                    c1 -= 1;
                    c2 -= 1;
                }
                DP_FIRST => c1 -= 1,
                DP_SECOND => c2 -= 1,
                // lint: allow(panic_hygiene) — relax() only ever writes the
                // four DP_* constants into the decision byte
                other => unreachable!("invalid DP decision byte {other}"),
            }
            decisions.push(cell.decision);
        }
        assert_eq!((c1, c2), (0, 0), "back-trace must reach the origin");
        decisions.reverse();
        decisions
    }
}

#[inline]
fn relax(cell: &mut FlatCell, t: u32, r: u64, decision: u8) {
    if cell.t == UNREACHED || t < cell.t || (t == cell.t && r < cell.r) {
        *cell = FlatCell { t, r, decision };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::InstanceBuilder;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn scaled(rows: &[&[i64]]) -> ScaledInstance {
        ScaledInstance::try_new(&Instance::unit_from_percentages(rows)).unwrap()
    }

    /// One successor as a comparable value: configuration, sorted finished
    /// processors, partial receiver.
    type ChoiceKey = (Vec<u64>, Vec<u32>, Option<(u32, u64)>);

    fn enumerator_choices(s: &ScaledInstance, config: &[u64]) -> BTreeSet<ChoiceKey> {
        let mut scratch = SuccScratch::default();
        let mut out = BTreeSet::new();
        for_each_successor(s, config, &mut scratch, |cfg| {
            assert!(
                out.insert(choice_key(config, cfg)),
                "the enumerator must not emit a choice twice"
            );
        });
        out
    }

    /// A successor with its step as [`step_between`] recovers it: the
    /// finished processors, sorted, and the partial receiver.
    fn choice_key(parent: &[u64], child: &[u64]) -> ChoiceKey {
        let mut finished = Vec::new();
        let mut partial = None;
        for (p, grant) in step_between(parent, child) {
            let p = u32::try_from(p).unwrap();
            match grant {
                Grant::Finish => finished.push(p),
                Grant::Partial(units) => {
                    assert!(partial.is_none(), "a step has one partial receiver");
                    partial = Some((p, units));
                }
            }
        }
        (child.to_vec(), finished, partial)
    }

    /// The reference `2^k` bitmask scan (the pre-ISSUE-4 algorithm),
    /// normalized to the Lemma 4 rule that zero-remaining frontiers always
    /// complete (the variants that skip them are strictly dominated and the
    /// pruned enumerator no longer emits them).  Only valid for `k ≤ 31`.
    fn mask_scan_choices(s: &ScaledInstance, config: &[u64]) -> BTreeSet<ChoiceKey> {
        let m = s.processors();
        let mut active = Vec::new();
        let mut remaining = Vec::new();
        for i in 0..m {
            let done = config[i] as usize;
            if done < s.jobs_on(i) {
                active.push(i);
                remaining.push(s.unit_req(i, done) - config[m + i]);
            }
        }
        let mut out = BTreeSet::new();
        if active.is_empty() {
            return out;
        }
        let k = active.len();
        assert!(k < 32, "the reference mask scan is limited to 31 actives");
        let cap = s.capacity();
        let build = |mask: u32, partial: Option<(u32, u64)>| -> ChoiceKey {
            let mut cfg = config.to_vec();
            let mut finished = Vec::new();
            for (bit, &p) in active.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    cfg[p] += 1;
                    cfg[m + p] = 0;
                    finished.push(u32::try_from(p).unwrap());
                }
            }
            if let Some((p, amount)) = partial {
                cfg[m + p as usize] += amount;
            }
            finished.sort_unstable();
            (cfg, finished, partial)
        };
        let total: u128 = remaining.iter().map(|&r| u128::from(r)).sum();
        if total <= u128::from(cap) {
            out.insert(build((1u32 << k) - 1, None));
            return out;
        }
        for mask in 1u32..(1u32 << k) {
            // Normalization: every zero-remaining frontier completes.
            if remaining
                .iter()
                .enumerate()
                .any(|(bit, &r)| r == 0 && mask & (1 << bit) == 0)
            {
                continue;
            }
            let sum: u128 = remaining
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &r)| u128::from(r))
                .sum();
            if sum > u128::from(cap) {
                continue;
            }
            let leftover = cap - u64::try_from(sum).unwrap();
            if leftover == 0 {
                out.insert(build(mask, None));
                continue;
            }
            for (bit, &p) in active.iter().enumerate() {
                if mask & (1 << bit) == 0 && remaining[bit] > leftover {
                    out.insert(build(mask, Some((u32::try_from(p).unwrap(), leftover))));
                }
            }
        }
        out
    }

    #[test]
    fn successor_streaming_matches_manual_enumeration() {
        let s = scaled(&[&[60, 40], &[60, 40]]);
        let init = initial_config(2);
        let mut scratch = SuccScratch::default();
        let mut seen = Vec::new();
        for_each_successor(&s, &init, &mut scratch, |cfg| {
            seen.push(choice_key(&init, cfg));
        });
        // 60 + 60 > 100: either frontier may finish, the other carries 40.
        assert_eq!(seen.len(), 2);
        for (cfg, finished, partial) in &seen {
            assert_eq!(finished.len(), 1);
            let (p, amount) = partial.unwrap();
            assert_eq!(s.to_ratio(amount), Ratio::from_percent(40));
            assert_eq!(cfg[2 + p as usize], amount);
            assert_ne!(finished[0], p);
        }
    }

    #[test]
    fn all_fit_step_finishes_everything() {
        let s = scaled(&[&[30], &[30], &[40]]);
        let init = initial_config(3);
        let mut scratch = SuccScratch::default();
        let mut count = 0;
        for_each_successor(&s, &init, &mut scratch, |cfg| {
            count += 1;
            let (_, finished, partial) = choice_key(&init, cfg);
            assert_eq!(finished, &[0, 1, 2]);
            assert!(partial.is_none());
            assert!(is_final(&s, cfg));
        });
        assert_eq!(count, 1);
    }

    #[test]
    fn wide_active_sets_no_longer_assert() {
        // 40 active processors: 4 oversubscribed heavies plus 36 free
        // (zero-requirement) frontiers.  The pre-ISSUE-4 engine asserted
        // `k < 32` here.
        let mut rows: Vec<&[i64]> = Vec::new();
        for _ in 0..4 {
            rows.push(&[90]);
        }
        for _ in 0..36 {
            rows.push(&[0]);
        }
        let s = scaled(&rows);
        let init = initial_config(40);
        let mut scratch = SuccScratch::default();
        let mut count = 0;
        for_each_successor(&s, &init, &mut scratch, |cfg| {
            count += 1;
            // The 36 free frontiers complete in every choice, exactly one
            // heavy completes, and another heavy carries the leftover.
            let (_, finished, partial) = choice_key(&init, cfg);
            assert_eq!(finished.len(), 37);
            assert!(partial.is_some());
        });
        assert_eq!(count, 4 * 3);
    }

    #[test]
    fn near_max_capacity_sums_are_checked_not_wrapped() {
        // Largest prime below 2^63: the capacity consumes all but one bit of
        // u64, so the three-fold remaining sum overflows and must be treated
        // as oversubscribed (pre-ISSUE-4: silent wraparound in release).
        let p: i128 = 9_223_372_036_854_775_783;
        let inst = InstanceBuilder::new()
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .build();
        let s = ScaledInstance::try_new(&inst).expect("2·D headroom admits capacities up to 2^63");
        assert_eq!(s.capacity(), 9_223_372_036_854_775_783u64);
        let rounds = run_search(&s).unwrap();
        // One job finishes per step; the one-unit leftover barely helps.
        assert_eq!(search_makespan(&s, &rounds), 3);
        let schedule = search_schedule(&inst, &s, &rounds);
        assert_eq!(schedule.makespan(&inst).unwrap(), 3);
    }

    #[test]
    fn packed_emission_keys_order_spent_sums_beyond_u64() {
        // The instance of `near_max_capacity_sums_are_checked_not_wrapped`:
        // three spent values just below the capacity sum past u64::MAX, two
        // stay below it, and the packed key must still emit by (Σc, Σs,
        // index) descending.
        let p: i128 = 9_223_372_036_854_775_783;
        let inst = InstanceBuilder::new()
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .build();
        let s = ScaledInstance::try_new(&inst).unwrap();
        assert!(emission_key_fits(&s));
        let d = s.capacity();
        let configs: [[u64; 6]; 7] = [
            [0, 0, 0, d - 2, d - 2, d - 2],
            [1, 0, 0, 0, d - 2, d - 2],
            [0, 0, 0, d - 2, d - 3, d - 2],
            [0, 0, 0, d - 3, d - 2, d - 2],
            [0, 1, 1, 7, 0, 0],
            [0, 0, 0, d - 2, d - 2, d - 3],
            [0, 0, 0, d - 2, d - 2, 0],
        ];
        let keep = [true, true, true, false, true, true, true];
        let mut arena = Round::with_capacity(3, configs.len());
        for config in &configs {
            arena.push(config, 0);
        }
        let mut order = Vec::new();
        emission_order(&arena, &keep, &mut order);
        let mut want: Vec<(u64, u128, usize)> = (0..configs.len())
            .filter(|&i| keep[i])
            .map(|i| {
                let (completed, spent) = configs[i].split_at(3);
                let spent: u128 = spent.iter().map(|&units| u128::from(units)).sum();
                (completed.iter().sum(), spent, i)
            })
            .collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert!(want[2..5]
            .iter()
            .all(|&(_, spent, _)| spent > u128::from(u64::MAX)));
        let got: Vec<usize> = order.iter().map(|&(_, i)| i as usize).collect();
        assert_eq!(got, [4, 1, 0, 5, 2, 6]);
        assert_eq!(got, want.iter().map(|&(_, _, i)| i).collect::<Vec<_>>());
    }

    /// The keep mask the search's filter computes for packed
    /// configurations of `s`, levels included.
    fn survivors(s: &ScaledInstance, configs: &[&[u64]]) -> Vec<bool> {
        let m = s.processors();
        let levels = LevelTable::new(s);
        let mut filter = DominanceFilter::new(m, 1);
        for config in configs {
            filter.push(
                config[..m].iter().copied(),
                &config[m..],
                Some(levels.level(config)),
            );
        }
        let mut gate = CancelToken::never().gate(FILTER_CHECK_STRIDE);
        filter.survivors(&mut gate).unwrap().to_vec()
    }

    #[test]
    fn domination_is_reflexive_and_ordered() {
        // completed = [2, 1] / spent = [0, 30] dominates [1, 1] / [90, 10]
        // and, on an equal spent value, [2, 1] / [0, 20], in either push
        // order.
        let s = scaled(&[&[99, 99, 99], &[97, 97]]);
        let a: &[u64] = &[2, 1, 0, 30];
        let b: &[u64] = &[1, 1, 90, 10];
        let c: &[u64] = &[2, 1, 0, 20];
        assert_eq!(survivors(&s, &[a, c]), [true, false]);
        assert_eq!(survivors(&s, &[c, a]), [false, true]);
        assert_eq!(survivors(&s, &[a, b]), [true, false]);
        assert_eq!(survivors(&s, &[b, a]), [false, true]);
    }

    #[test]
    fn search_solves_known_instances() {
        let s = scaled(&[&[100], &[100], &[100]]);
        assert_eq!(search_makespan(&s, &run_search(&s).unwrap()), 3);
        let s = scaled(&[&[50, 20], &[30, 30], &[20, 50]]);
        assert_eq!(search_makespan(&s, &run_search(&s).unwrap()), 2);
        let s = scaled(&[&[50, 50, 50, 50], &[100], &[100]]);
        assert_eq!(search_makespan(&s, &run_search(&s).unwrap()), 4);
    }

    #[test]
    fn empty_instance_is_final_immediately() {
        let inst = InstanceBuilder::new()
            .empty_processor()
            .empty_processor()
            .build();
        let s = ScaledInstance::try_new(&inst).unwrap();
        let rounds = run_search(&s).unwrap();
        assert_eq!(search_makespan(&s, &rounds), 0);
        assert_eq!(search_schedule(&inst, &s, &rounds).num_steps(), 0);
    }

    #[test]
    fn flat_dp_matches_search_on_two_processors() {
        for rows in [
            &[&[60i64, 40][..], &[60, 40][..]][..],
            &[&[100, 1, 100][..], &[1, 100, 1][..]][..],
            &[&[55, 45, 35][..], &[65, 75, 85][..]][..],
        ] {
            let s = scaled(rows);
            let dp = ScaledDpTable::compute(&s);
            assert_eq!(dp.makespan(), search_makespan(&s, &run_search(&s).unwrap()));
            assert_eq!(dp.decisions().len(), dp.makespan());
        }
    }

    #[test]
    fn brute_force_agrees_with_search() {
        for rows in [
            &[&[50i64, 20][..], &[30, 30][..], &[20, 50][..]][..],
            &[&[90, 5][..], &[80, 15][..], &[70, 25][..]][..],
        ] {
            let s = scaled(rows);
            let (best, states, expansions) = brute_force(&s);
            assert_eq!(best, search_makespan(&s, &run_search(&s).unwrap()));
            assert!(states > 0);
            assert!(expansions > 0);
        }
    }

    #[test]
    fn cancelled_search_surfaces_a_structured_error() {
        let s = scaled(&[&[100], &[100], &[100]]);
        let token = CancelToken::new();
        token.cancel();
        let err = run_search_cancellable(&s, None, &token).unwrap_err();
        assert_eq!(
            err,
            SearchError::Cancelled {
                reason: CancelReason::Cancelled
            }
        );
        assert!(err.to_string().contains("cancelled externally"));
        let err = brute_force_cancellable(&s, &token).unwrap_err();
        assert_eq!(err, CancelReason::Cancelled);
        // An unfired token changes nothing: same rounds as the plain entry.
        let live = CancelToken::new();
        let cancellable = run_search_cancellable(&s, None, &live).unwrap().unwrap();
        assert_eq!(cancellable, run_search(&s).unwrap());
    }

    /// One pinned case: percentage rows and the replayed schedule's steps.
    type PinnedCase = (
        &'static [&'static [i64]],
        &'static [&'static [&'static str]],
    );

    fn assert_pinned_schedules(cases: &[PinnedCase]) {
        for &(rows, want) in cases {
            let inst = Instance::unit_from_percentages(rows);
            let s = ScaledInstance::try_new(&inst).unwrap();
            let schedule = search_schedule(&inst, &s, &run_search(&s).unwrap());
            let got: Vec<Vec<String>> = schedule
                .steps()
                .iter()
                .map(|step| step.iter().map(ToString::to_string).collect())
                .collect();
            let want: Vec<Vec<String>> = want
                .iter()
                .map(|step| step.iter().map(|&share| share.to_string()).collect())
                .collect();
            assert_eq!(got, want, "{inst}");
        }
    }

    /// The search's emitted order decides which optimal schedule is
    /// replayed (the last round's first final node, the first
    /// representative of every duplicate, the parents it points back to).
    /// These schedules were recorded from the kept-prefix filter the
    /// bucketed one replaced, on four `Uniform m=4 n=3` instances
    /// (`cr_instances::random_unit_instance` seeds 1000, 1001, 1002 and 7),
    /// and must not move.
    #[test]
    fn pinned_uniform_schedules_are_unchanged() {
        assert_pinned_schedules(&[
            (
                &[&[72, 96, 3], &[8, 86, 77], &[50, 56, 37], &[33, 54, 21]],
                &[
                    &["9/100", "2/25", "1/2", "33/100"],
                    &["63/100", "37/100", "0", "0"],
                    &["24/25", "0", "0", "1/25"],
                    &["1/100", "49/100", "0", "1/2"],
                    &["1/50", "21/100", "14/25", "21/100"],
                    &["0", "14/25", "37/100", "0"],
                ],
            ),
            (
                &[&[81, 72, 66], &[85, 90, 91], &[5, 63, 62], &[55, 70, 63]],
                &[
                    &["2/5", "0", "1/20", "11/20"],
                    &["0", "0", "63/100", "37/100"],
                    &["0", "17/20", "3/20", "0"],
                    &["0", "9/10", "1/10", "0"],
                    &["41/100", "13/50", "0", "33/100"],
                    &["18/25", "0", "0", "7/25"],
                    &["7/25", "0", "37/100", "7/20"],
                    &["19/50", "31/50", "0", "0"],
                    &["0", "3/100", "0", "0"],
                ],
            ),
            (
                &[&[63, 88, 40], &[56, 21, 19], &[40, 8, 51], &[64, 59, 53]],
                &[
                    &["0", "14/25", "2/5", "1/25"],
                    &["11/100", "21/100", "2/25", "3/5"],
                    &["13/25", "0", "0", "12/25"],
                    &["22/25", "0", "1/100", "11/100"],
                    &["2/5", "19/100", "0", "41/100"],
                    &["0", "0", "1/2", "3/25"],
                ],
            ),
            (
                &[&[97, 40, 90], &[51, 86, 45], &[85, 21, 24], &[53, 38, 24]],
                &[
                    &["0", "51/100", "0", "49/100"],
                    &["0", "11/100", "17/20", "1/25"],
                    &["97/100", "0", "0", "3/100"],
                    &["1/25", "3/4", "21/100", "0"],
                    &["9/25", "1/20", "6/25", "7/20"],
                    &["9/25", "2/5", "0", "6/25"],
                    &["27/50", "0", "0", "0"],
                ],
            ),
        ]);
    }

    /// Replay derives each step from a parent and child configuration, so
    /// free (zero-requirement) jobs, which complete without moving a unit,
    /// and empty processors are pinned too.  Recorded from the engine that
    /// stored each node's step decision: a small `WideOversub`-style
    /// instance (three 90% chains beside three free chains) and a mix of
    /// free jobs, an empty processor and a partial receiver.
    #[test]
    fn pinned_zero_job_schedules_are_unchanged() {
        assert_pinned_schedules(&[
            (
                &[
                    &[90, 90],
                    &[90, 90],
                    &[90, 90],
                    &[0, 0, 0],
                    &[0, 0, 0],
                    &[0, 0, 0],
                ],
                &[
                    &["1/10", "9/10", "0", "0", "0", "0"],
                    &["0", "1/10", "9/10", "0", "0", "0"],
                    &["4/5", "0", "1/5", "0", "0", "0"],
                    &["1/5", "4/5", "0", "0", "0", "0"],
                    &["7/10", "0", "3/10", "0", "0", "0"],
                    &["0", "0", "2/5", "0", "0", "0"],
                ],
            ),
            (
                &[&[0, 60, 0, 40], &[], &[30, 0, 70, 0], &[55, 45, 0], &[0, 0]],
                &[
                    &["0", "0", "3/10", "11/20", "0"],
                    &["3/5", "0", "0", "2/5", "0"],
                    &["0", "0", "7/10", "1/20", "0"],
                    &["2/5", "0", "0", "0", "0"],
                ],
            ),
        ]);
    }

    #[test]
    fn search_error_displays_the_offending_round() {
        let err = SearchError::RoundTooLarge {
            round: 7,
            nodes: 5_000_000_000,
        };
        assert!(err.to_string().contains("round 7"));
        assert!(err.to_string().contains("5000000000"));
    }

    fn percent_instance(den: u64, rows: &[Vec<u64>]) -> Instance {
        let reqs = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&pct| Ratio::from_parts(pct * den / 100, den))
                    .collect()
            })
            .collect();
        Instance::unit_from_requirements(reqs)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pruned DFS enumerator emits exactly the successor set of the
        /// reference mask scan for active widths up to k = 12, on the
        /// initial configuration and on a sample of first-round successors.
        #[test]
        fn enumerator_matches_reference_mask_scan(
            den in 1u64..=24,
            rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=2), 1..=12),
        ) {
            let inst = percent_instance(den, &rows);
            let s = ScaledInstance::try_new(&inst).expect("small denominators always scale");
            let init = initial_config(s.processors());
            prop_assert_eq!(enumerator_choices(&s, &init), mask_scan_choices(&s, &init));
            // Wide oversubscribed frontiers can have hundreds of first-round
            // successors; re-checking a prefix keeps the reference 2^k scan
            // affordable while still covering non-initial spent states.
            for (config, _, _) in enumerator_choices(&s, &init).into_iter().take(16) {
                prop_assert_eq!(
                    enumerator_choices(&s, &config),
                    mask_scan_choices(&s, &config)
                );
            }
        }
    }
}
