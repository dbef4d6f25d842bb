//! The generic configuration search behind every `Ratio` answer and every
//! multi-resource (`k ≥ 2`) answer of the exact solvers.
//!
//! A [`MultiView`] fixes the arithmetic of one search: `u64` units on
//! per-resource LCM grids ([`MultiView::from_scaled`]) or exact [`Ratio`]s
//! with capacity `1` per resource ([`MultiView::rational`], and
//! [`MultiView::base_rational`] for the base resource alone).  Over it run
//! Algorithm 2's round-by-round search (`OptResAssignment2`, Theorem 6,
//! generalized to `k` layers) and the memoized brute force.  The scalar
//! `scaled_engine` stays the `k = 1` `u64` hot path; this module answers
//! `EnginePreference::Rational`, the `k = 1` fallback when a grid overflows
//! `u64` or a scaled round outgrows its `u32` positions, and every `k ≥ 2`
//! request.  A configuration records, per processor, the completed-job
//! count plus the resource already spent on the frontier job **on every
//! layer** (see [`Instance::extra_layers`]), and one normalized time step
//! distributes each resource's full capacity independently.
//!
//! # The normalized step class
//!
//! A step choice is a non-empty set `S` of active frontier jobs that
//! complete — every positive layer of every job in `S` receives its full
//! remaining requirement this step — plus, **per resource**, at most one
//! further active job that receives that resource's leftover without
//! completing the layer (its remaining on the layer strictly exceeds the
//! leftover).  The same processor may act as receiver on several resources.
//! Frontier jobs with an all-zero remaining vector complete in every choice
//! (the variants that withhold them are strictly dominated), and when every
//! active job fits on every layer simultaneously the unique emitted choice
//! completes them all.
//!
//! For `k = 1` this class is precisely the Lemma 1 class (non-wasting,
//! progressive, one partial receiver), and the successors come from the
//! sorted break-prune DFS shared with the scaled engine (the internal
//! `subset_enum` module), so both engines enumerate the same successor
//! sets.  For `k ≥ 2` Lemma 1's exchange argument does not carry over
//! verbatim — a prior counterexample shows a single *overall* receiver is
//! not WLOG, which is why receivers are per-resource here — so the search
//! is documented as **exact within this normalized class** (and conjectured
//! optimal); the scaled and rational views run the identical enumeration,
//! making their cross-check a genuine test of the per-layer grids rather
//! than of the class.  Its enumeration is a plain subset DFS with an
//! all-layer overflow-checked fit test and an odometer over the
//! per-resource receivers: the break-prune does *not* generalize, since
//! requirement vectors have no total order, so a candidate that fails the
//! fit test cannot end its level — the DFS skips it and keeps descending.
//!
//! # Search structure
//!
//! Round-by-round BFS with exact-duplicate removal and the per-processor
//! domination filter of Lemma 4, run through the grouped filter shared with
//! the scaled engine (the internal `dominance` module): configuration `a`
//! dominates `b` when every processor has completed more jobs, or equally
//! many with at least as much spent on **every** layer of the frontier job.
//! Every emitted choice completes at least one job (singletons always fit:
//! remaining ≤ requirement ≤ capacity on every layer), so the search
//! terminates within `total_jobs + 1` rounds.  Each round keeps its
//! survivors in insertion order (successors in parent order, the first
//! representative of every exact duplicate) with their parents' positions
//! in the previous round, and [`Search::schedule`] replays a `k = 1`
//! schedule from parent/child differences, as the scaled engine does.
//! Multi-resource schedules are not reconstructed; the solver layer reports
//! makespans and rejects `want_schedule` with a structured error.
//!
//! [`brute_force_cancellable`] runs a memoized DFS over the same
//! configurations and successors without the domination filter: the
//! exponential reference of the `Ratio` brute force.

use crate::dominance::{DominanceFilter, FILTER_CHECK_STRIDE};
use crate::subset_enum::{for_each_choice_cancellable, EnumScratch, CHOICE_CHECK_STRIDE};
use cr_core::{
    CancelGate, CancelReason, CancelToken, Instance, JobId, Ratio, ScaledInstance, Schedule,
    ScheduleBuilder,
};
use rustc_hash::FxHashMap;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// The arithmetic of one search: `u64` units on per-resource LCM grids or
/// exact [`Ratio`]s with per-resource capacity `1`.
pub(crate) trait SearchUnit: cr_core::StepUnit + Hash {}
impl SearchUnit for u64 {}
impl SearchUnit for Ratio {}

/// The per-resource requirement table of one search: capacities plus every
/// job's requirement vector, in the representation `V`.
#[derive(Debug, Clone)]
pub(crate) struct MultiView<V> {
    /// Per-resource capacities, length `k`.
    caps: Vec<V>,
    /// Row start offsets into `reqs` (in jobs, not values); length `m + 1`.
    offsets: Vec<usize>,
    /// Per-job requirement vectors, `total_jobs × k`, job-major.
    reqs: Vec<V>,
}

impl MultiView<u64> {
    /// The scaled-integer view: layer `r` lives on the grid of
    /// [`ScaledInstance::layer_capacity`]`(r)`.
    pub(crate) fn from_scaled(scaled: &ScaledInstance) -> Self {
        let m = scaled.processors();
        let k = scaled.resources();
        let caps: Vec<u64> = (0..k).map(|r| scaled.layer_capacity(r)).collect();
        let mut offsets = Vec::with_capacity(m + 1);
        let mut reqs = Vec::with_capacity(scaled.total_jobs() * k);
        offsets.push(0);
        // lint: allow(cancel_coverage) — bounded: one setup pass over the instance's jobs
        for i in 0..m {
            // lint: allow(cancel_coverage) — bounded: the processor's jobs
            for j in 0..scaled.jobs_on(i) {
                // lint: allow(cancel_coverage) — bounded: k resource layers
                for r in 0..k {
                    reqs.push(scaled.layer_unit_req(r, i, j));
                }
            }
            offsets.push(offsets[i] + scaled.jobs_on(i));
        }
        MultiView {
            caps,
            offsets,
            reqs,
        }
    }
}

impl MultiView<Ratio> {
    /// The exact rational view of every resource layer: capacity `1` each.
    pub(crate) fn rational(instance: &Instance) -> Self {
        Self::rational_layers(instance, instance.resources())
    }

    /// The exact rational view of the base resource alone: the
    /// single-resource problem of Theorem 6, which the scaled `k = 1`
    /// engine solves too.
    pub(crate) fn base_rational(instance: &Instance) -> Self {
        Self::rational_layers(instance, 1)
    }

    /// The exact rational view of the first `k` resource layers.
    fn rational_layers(instance: &Instance, k: usize) -> Self {
        let m = instance.processors();
        let caps = vec![Ratio::ONE; k];
        let mut offsets = Vec::with_capacity(m + 1);
        let mut reqs = Vec::with_capacity(instance.total_jobs() * k);
        offsets.push(0);
        // lint: allow(cancel_coverage) — bounded: one setup pass over the instance's jobs
        for i in 0..m {
            // lint: allow(cancel_coverage) — bounded: the processor's jobs
            for j in 0..instance.jobs_on(i) {
                // lint: allow(cancel_coverage) — bounded: k resource layers
                for r in 0..k {
                    reqs.push(instance.requirement_on(r, JobId::new(i, j)));
                }
            }
            offsets.push(offsets[i] + instance.jobs_on(i));
        }
        MultiView {
            caps,
            offsets,
            reqs,
        }
    }
}

impl<V: SearchUnit> MultiView<V> {
    fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    fn resources(&self) -> usize {
        self.caps.len()
    }

    fn jobs_on(&self, processor: usize) -> usize {
        self.offsets[processor + 1] - self.offsets[processor]
    }

    fn total_jobs(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Requirement of processor `i`'s `index`-th job on resource `r`.
    fn req(&self, processor: usize, index: usize, r: usize) -> V {
        self.reqs[(self.offsets[processor] + index) * self.resources() + r]
    }

    /// Whether `completed` counts every job of every processor.
    fn is_final(&self, completed: &[u32]) -> bool {
        completed
            .iter()
            .enumerate()
            .all(|(i, &c)| c as usize >= self.jobs_on(i))
    }
}

/// A multi-resource configuration: completed-job counts plus the per-layer
/// resource already spent on each processor's frontier job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct MConfig<V> {
    /// Completed job count per processor.
    completed: Vec<u32>,
    /// Spent on the frontier job, `m × k` processor-major.
    spent: Vec<V>,
}

impl<V: SearchUnit> MConfig<V> {
    fn initial(m: usize, k: usize) -> Self {
        MConfig {
            completed: vec![0; m],
            spent: vec![V::ZERO; m * k],
        }
    }

    /// Completes processor `i`'s frontier job, resetting its spent layers.
    fn complete(&mut self, processor: usize, k: usize) {
        self.completed[processor] += 1;
        self.spent[processor * k..(processor + 1) * k].fill(V::ZERO);
    }
}

/// The makespan and expansion count of one finished search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MultiSearch {
    /// The optimal makespan within the normalized step class.
    pub makespan: usize,
    /// Configurations expanded over the whole search.
    pub expanded: usize,
}

/// Reusable buffers of the successor enumeration (one per search, not one
/// per expansion).
#[derive(Debug)]
struct SuccScratch<V> {
    /// The active processors.
    active: Vec<usize>,
    /// Remaining requirement per active entry per layer, `a × k`.
    rem: Vec<V>,
    /// The `k = 1` choice DFS's buffers.
    choices: EnumScratch,
}

impl<V> SuccScratch<V> {
    fn new() -> Self {
        SuccScratch {
            active: Vec::new(),
            rem: Vec::new(),
            choices: EnumScratch::default(),
        }
    }
}

/// Streams every normalized successor of `config` into `emit`.
///
/// See the module docs for the choice class.  For `k = 1` the successors
/// are distinct and come in the shared choice DFS's order; for `k ≥ 2`
/// exact duplicates may be emitted (the search deduplicates).
fn successors<V: SearchUnit>(
    view: &MultiView<V>,
    config: &MConfig<V>,
    scratch: &mut SuccScratch<V>,
    gate: &mut CancelGate,
    emit: &mut impl FnMut(MConfig<V>),
) -> Result<(), CancelReason> {
    let m = view.processors();
    let k = view.resources();
    let SuccScratch {
        active,
        rem,
        choices,
    } = scratch;
    active.clear();
    rem.clear();
    // lint: allow(cancel_coverage) — bounded: one pass over the m processors
    for i in 0..m {
        let done = config.completed[i] as usize;
        if done < view.jobs_on(i) {
            active.push(i);
            // lint: allow(cancel_coverage) — bounded: k resource layers
            for r in 0..k {
                rem.push(view.req(i, done, r).sub(config.spent[i * k + r]));
            }
        }
    }
    if active.is_empty() {
        return Ok(());
    }
    if k == 1 {
        // One resource: the requirement-sorted break-prune DFS.
        return for_each_choice_cancellable(
            rem,
            view.caps[0],
            choices,
            gate,
            &mut |finished, partial| {
                let mut next = config.clone();
                // lint: allow(cancel_coverage) — bounded: `finished` is a subset of the <= m active processors
                for &e in finished {
                    next.complete(active[e as usize], 1);
                }
                if let Some((e, leftover)) = partial {
                    let i = active[e as usize];
                    // New spent = requirement − (remaining − leftover), as
                    // on k ≥ 2: the receiver's remaining exceeds the
                    // leftover.
                    let done = config.completed[i] as usize;
                    next.spent[i] = view.req(i, done, 0).sub(rem[e as usize].sub(leftover));
                }
                emit(next);
            },
        );
    }
    let a = active.len();
    let all_zero = |e: usize| (0..k).all(|r| rem[e * k + r] == V::ZERO);
    let zeros: Vec<usize> = (0..a).filter(|&e| all_zero(e)).collect();
    let positives: Vec<usize> = (0..a).filter(|&e| !all_zero(e)).collect();

    // All-fit fast path: when every layer can absorb every active job's
    // remaining at once, completing everything dominates every other
    // choice (strictly more jobs completed on each touched processor).
    let fits_all = (0..k).all(|r| {
        positives
            .iter()
            .try_fold(V::ZERO, |t, &e| t.checked_add(rem[e * k + r]))
            .is_some_and(|t| t <= view.caps[r])
    });
    if fits_all {
        let mut next = config.clone();
        // lint: allow(cancel_coverage) — bounded: completes the <= m active processors
        for &e in active.iter() {
            next.complete(e, k);
        }
        emit(next);
        return Ok(());
    }

    // Plain subset DFS over the positive entries (no sorted break-prune:
    // requirement vectors have no total order, so a failing candidate
    // cannot end its level).  Zeros-only choices are never emitted: with
    // positive capacities they waste a whole layer that a positive
    // singleton (which always fits) could absorb, so they fall outside the
    // normalized class.
    let mut dfs = Dfs {
        view,
        config,
        active,
        rem,
        zeros: &zeros,
        positives: &positives,
        chosen: Vec::new(),
        in_set: vec![false; a],
        sums: vec![V::ZERO; k],
    };
    // lint: allow(cancel_coverage) — bounded: marks the <= m zero entries before the gated DFS below
    for &z in &zeros {
        dfs.in_set[z] = true;
    }
    dfs.descend(0, gate, emit)
}

/// The DFS state of one successor enumeration.
struct Dfs<'a, V> {
    view: &'a MultiView<V>,
    config: &'a MConfig<V>,
    active: &'a [usize],
    /// Remaining requirement per active entry per layer, `a × k`.
    rem: &'a [V],
    zeros: &'a [usize],
    positives: &'a [usize],
    /// Chosen positive entries (DFS stack).
    chosen: Vec<usize>,
    /// Membership of the current finished set (zeros plus chosen).
    in_set: Vec<bool>,
    /// Per-layer sums of the chosen entries' remainings.
    sums: Vec<V>,
}

impl<V: SearchUnit> Dfs<'_, V> {
    fn descend(
        &mut self,
        start: usize,
        gate: &mut CancelGate,
        emit: &mut impl FnMut(MConfig<V>),
    ) -> Result<(), CancelReason> {
        let k = self.view.resources();
        for pos in start..self.positives.len() {
            gate.tick()?;
            let e = self.positives[pos];
            // All-layer overflow-checked fit test; an overflowing sum is a
            // fortiori larger than the capacity.
            let mut fits = true;
            let mut new_sums = self.sums.clone();
            // lint: allow(cancel_coverage) — bounded: k resource layers per gated DFS extension
            for (r, slot) in new_sums.iter_mut().enumerate() {
                match self.sums[r].checked_add(self.rem[e * k + r]) {
                    Some(s) if s <= self.view.caps[r] => *slot = s,
                    _ => {
                        fits = false;
                        break;
                    }
                }
            }
            if !fits {
                continue;
            }
            let old_sums = std::mem::replace(&mut self.sums, new_sums);
            self.chosen.push(e);
            self.in_set[e] = true;

            self.emit_with_receivers(gate, emit)?;
            self.descend(pos + 1, gate, emit)?;

            self.in_set[e] = false;
            self.chosen.pop();
            self.sums = old_sums;
        }
        Ok(())
    }

    /// Emits the current finished set with every per-resource receiver
    /// combination (including "no receiver" on each resource).
    fn emit_with_receivers(
        &mut self,
        gate: &mut CancelGate,
        emit: &mut impl FnMut(MConfig<V>),
    ) -> Result<(), CancelReason> {
        let k = self.view.resources();
        let a = self.active.len();
        let leftovers: Vec<V> = (0..k)
            .map(|r| self.view.caps[r].sub(self.sums[r]))
            .collect();
        // Per resource: `None` (waste the leftover) plus every active entry
        // outside the finished set whose remaining on the layer strictly
        // exceeds the leftover (so the layer does not complete and the
        // receiver never finishes its job mid-choice).
        let candidates: Vec<Vec<Option<usize>>> = (0..k)
            .map(|r| {
                let mut c: Vec<Option<usize>> = vec![None];
                if leftovers[r] > V::ZERO {
                    // lint: allow(cancel_coverage) — bounded: one pass over the <= m active entries per gated emission
                    for e in 0..a {
                        if !self.in_set[e] && self.rem[e * k + r] > leftovers[r] {
                            c.push(Some(e));
                        }
                    }
                }
                c
            })
            .collect();

        // Odometer over the product of the per-resource candidate lists.
        let mut pick = vec![0usize; k];
        loop {
            gate.tick()?;
            let mut next = self.config.clone();
            // lint: allow(cancel_coverage) — bounded: completes the <= m finished entries per gated emission
            for &e in self.zeros.iter().chain(self.chosen.iter()) {
                next.complete(self.active[e], k);
            }
            // lint: allow(cancel_coverage) — bounded: k resource layers per gated emission
            for r in 0..k {
                if let Some(e) = candidates[r][pick[r]] {
                    let i = self.active[e];
                    let done = self.config.completed[i] as usize;
                    // New spent = requirement − (remaining − leftover);
                    // remaining > leftover keeps both subtractions in
                    // contract.
                    next.spent[i * k + r] = self
                        .view
                        .req(i, done, r)
                        .sub(self.rem[e * k + r].sub(leftovers[r]));
                }
            }
            emit(next);

            // Advance the odometer.
            let mut carry = 0usize;
            // lint: allow(cancel_coverage) — bounded: k odometer digits per gated emission
            while carry < k {
                pick[carry] += 1;
                if pick[carry] < candidates[carry].len() {
                    break;
                }
                pick[carry] = 0;
                carry += 1;
            }
            if carry == k {
                return Ok(());
            }
        }
    }
}

/// One round of the search, stored flat: node `i` is the `m` completed
/// counts at `completed[i·m..]` and the `m·k` spent values at
/// `spent[i·m·k..]`, reached from position `parents[i]` of the previous
/// round (`usize::MAX` for the initial configuration).  Flat rows keep the
/// rounds a schedule replay needs at a few words per node.
#[derive(Debug)]
struct MRound<V> {
    /// Processors per node.
    m: usize,
    /// Spent values per node (`m·k`).
    width: usize,
    completed: Vec<u32>,
    spent: Vec<V>,
    parents: Vec<usize>,
}

impl<V: SearchUnit> MRound<V> {
    /// An empty round over `m` processors and `k` resources with room for
    /// `nodes` nodes.
    fn with_capacity(m: usize, k: usize, nodes: usize) -> Self {
        MRound {
            m,
            width: m * k,
            completed: Vec::with_capacity(nodes * m),
            spent: Vec::with_capacity(nodes * m * k),
            parents: Vec::with_capacity(nodes),
        }
    }

    fn len(&self) -> usize {
        self.parents.len()
    }

    fn clear(&mut self) {
        self.completed.clear();
        self.spent.clear();
        self.parents.clear();
    }

    /// Node `i`'s completed counts.
    fn completed(&self, i: usize) -> &[u32] {
        &self.completed[i * self.m..(i + 1) * self.m]
    }

    /// Node `i`'s spent values.
    fn spent(&self, i: usize) -> &[V] {
        &self.spent[i * self.width..(i + 1) * self.width]
    }

    /// Appends a node reached from position `parent` of the previous round.
    fn push(&mut self, completed: &[u32], spent: &[V], parent: usize) {
        self.completed.extend_from_slice(completed);
        self.spent.extend_from_slice(spent);
        self.parents.push(parent);
    }

    /// Copies node `i` into `config`.
    fn load(&self, i: usize, config: &mut MConfig<V>) {
        config.completed.clear();
        config.completed.extend_from_slice(self.completed(i));
        config.spent.clear();
        config.spent.extend_from_slice(self.spent(i));
    }
}

/// A finished search: every round's survivors, the initial round first,
/// and the position of the first final configuration in the last round.
#[derive(Debug)]
pub(crate) struct Search<V> {
    rounds: Vec<MRound<V>>,
    winner: usize,
}

impl<V: SearchUnit> Search<V> {
    /// The optimal makespan within the normalized step class: the rounds
    /// after the initial one.
    pub(crate) fn makespan(&self) -> usize {
        self.rounds.len() - 1
    }

    /// The makespan and the configurations expanded: every round's
    /// survivors but the last's.
    fn summary(&self) -> MultiSearch {
        let makespan = self.makespan();
        MultiSearch {
            makespan,
            expanded: self.rounds[..makespan].iter().map(MRound::len).sum(),
        }
    }
}

impl Search<Ratio> {
    /// Reconstructs an optimal schedule from a single-resource search by
    /// back-tracing the winner and replaying each step, recovered from its
    /// parent and child configurations: a processor whose completed count
    /// rose finished its frontier job, and one whose spent rose received
    /// the difference.
    ///
    /// # Panics
    ///
    /// Panics if the search ran over more than one resource, or over
    /// another instance than `instance`.
    pub(crate) fn schedule(&self, instance: &Instance) -> Schedule {
        let m = instance.processors();
        assert_eq!(
            (self.rounds[0].m, self.rounds[0].width),
            (m, m),
            "schedules are replayed from single-resource searches"
        );
        let last = self.makespan();
        if last == 0 {
            return Schedule::empty();
        }
        // The winner's position in every round, walked back from the last.
        let mut path = vec![0usize; last + 1];
        path[last] = self.winner;
        // lint: allow(cancel_coverage) — bounded: the back-trace visits one node per round of the already-gated search
        for round in (1..=last).rev() {
            path[round - 1] = self.rounds[round].parents[path[round]];
        }

        let mut builder = ScheduleBuilder::new(instance);
        // lint: allow(cancel_coverage) — bounded: replays one already-gated search round per step
        for round in 1..=last {
            let (before, after) = (&self.rounds[round - 1], &self.rounds[round]);
            let (parent, child) = (path[round - 1], path[round]);
            let shares: Vec<Ratio> = (0..m)
                .map(|p| {
                    if after.completed(child)[p] > before.completed(parent)[p] {
                        builder.remaining_workload(p)
                    } else {
                        after.spent(child)[p] - before.spent(parent)[p]
                    }
                })
                .collect();
            builder.push_step(shares);
        }
        builder.finish()
    }
}

/// Runs the configuration search to the first round holding a final
/// configuration, keeping every round.
///
/// `Ok(None)` when `round_cap` cut the search off before any final
/// configuration appeared; `Err` when the token fired mid-search.  The
/// token is checked at every round boundary and (through the shared
/// gates) inside the successor enumeration and the filter, so even a single
/// huge round observes the deadline within
/// [`cr_core::cancel::CHECK_INTERVAL_MS`].
pub(crate) fn run_search_cancellable<V: SearchUnit>(
    view: &MultiView<V>,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<Search<V>>, CancelReason> {
    let _search_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_SEARCH);
    let m = view.processors();
    let k = view.resources();
    let mut node = MConfig::initial(m, k);
    let mut initial = MRound::with_capacity(m, k, 1);
    initial.push(&node.completed, &node.spent, usize::MAX);
    let mut rounds = vec![initial];
    if view.is_final(&node.completed) {
        return Ok(Some(Search { rounds, winner: 0 }));
    }
    let mut scratch = SuccScratch::new();
    let mut gate = token.gate(CHOICE_CHECK_STRIDE);
    let mut filter_gate = token.gate(FILTER_CHECK_STRIDE);
    let mut filter = DominanceFilter::new(m, k);
    // The round's candidates in insertion order, and the same
    // configurations by content, to drop exact duplicates.
    let mut candidates = MRound::with_capacity(m, k, 0);
    let mut seen: FxHashMap<MConfig<V>, ()> = FxHashMap::default();
    let max_rounds = view.total_jobs() + 1;
    let round_limit = round_cap.map_or(max_rounds, |cap| cap.min(max_rounds));
    for _round in 0..round_limit {
        token.check()?;
        let mut round_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_ROUND);
        crate::obs::optm_rounds().inc();
        let prev = &rounds[rounds.len() - 1];
        candidates.clear();
        seen.clear();
        for parent in 0..prev.len() {
            prev.load(parent, &mut node);
            successors(view, &node, &mut scratch, &mut gate, &mut |cfg| {
                if let Entry::Vacant(slot) = seen.entry(cfg) {
                    candidates.push(&slot.key().completed, &slot.key().spent, parent);
                    slot.insert(());
                }
            })?;
        }
        round_span.lap(cr_obs::names::SPAN_OPTM_EXPAND);

        // The Lemma 4 domination filter, extended componentwise over the
        // layers.
        filter.clear();
        // lint: allow(cancel_coverage) — bounded: one O(m·k) copy per candidate; the filter ticks its gate per candidate
        for i in 0..candidates.len() {
            filter.push(
                candidates.completed(i).iter().map(|&c| u64::from(c)),
                candidates.spent(i),
                None,
            );
        }
        let keep = filter.survivors(&mut filter_gate)?;
        let kept = keep.iter().filter(|&&kept| kept).count();
        let mut survivors = MRound::with_capacity(m, k, kept);
        // lint: allow(cancel_coverage) — bounded: one O(m·k) copy per candidate of the gated filter
        for (i, _) in keep.iter().enumerate().filter(|&(_, &kept)| kept) {
            survivors.push(
                candidates.completed(i),
                candidates.spent(i),
                candidates.parents[i],
            );
        }
        round_span.lap(cr_obs::names::SPAN_OPTM_FILTER);
        crate::obs::record_round_filter(
            candidates.len(),
            survivors.len(),
            filter.checked(),
            filter.settled(),
        );

        let winner = (0..survivors.len()).find(|&i| view.is_final(survivors.completed(i)));
        rounds.push(survivors);
        if let Some(winner) = winner {
            return Ok(Some(Search { rounds, winner }));
        }
    }
    debug_assert!(
        round_cap.is_some(),
        "every choice completes a job, so the uncapped search must terminate"
    );
    Ok(None)
}

/// [`run_search_cancellable`] without a round cap or a token.
pub(crate) fn run_search<V: SearchUnit>(view: &MultiView<V>) -> Search<V> {
    run_search_cancellable(view, None, &CancelToken::never())
        .ok()
        .flatten()
        // lint: allow(panic_hygiene) — a never-token cannot fire, and only a round cap leaves the search unfinished
        .expect("the uncapped search reaches a final configuration")
}

/// [`run_search_cancellable`] reduced to the makespan and the expansion
/// count.
pub(crate) fn search_cancellable<V: SearchUnit>(
    view: &MultiView<V>,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<MultiSearch>, CancelReason> {
    Ok(run_search_cancellable(view, round_cap, token)?.map(|search| search.summary()))
}

/// The survivor count of every round of an uncapped search, the initial
/// round first.
#[cfg(test)]
pub(crate) fn round_sizes<V: SearchUnit>(view: &MultiView<V>) -> Vec<usize> {
    run_search(view).rounds.iter().map(MRound::len).collect()
}

/// Memoized exhaustive search over the same configurations and successors,
/// without the domination filter.  Returns `(optimal makespan, memoized
/// states, expansions)`.  The token is checked up front, then on every
/// expansion and (through the shared gate) inside the successor
/// enumeration, so even an exponential search stops within one check
/// stride of the token firing.
pub(crate) fn brute_force_cancellable<V: SearchUnit>(
    view: &MultiView<V>,
    token: &CancelToken,
) -> Result<(usize, usize, usize), CancelReason> {
    token.check()?;
    let mut memo = FxHashMap::default();
    let mut scratch = SuccScratch::new();
    let mut gate = token.gate(CHOICE_CHECK_STRIDE);
    let mut expansions = 0usize;
    let initial = MConfig::initial(view.processors(), view.resources());
    let best = brute_force_dfs(
        view,
        initial,
        &mut memo,
        &mut scratch,
        &mut gate,
        &mut expansions,
    )?;
    Ok((best, memo.len(), expansions))
}

/// One memoized DFS step; `config` becomes its own memo key.
fn brute_force_dfs<V: SearchUnit>(
    view: &MultiView<V>,
    config: MConfig<V>,
    memo: &mut FxHashMap<MConfig<V>, usize>,
    scratch: &mut SuccScratch<V>,
    gate: &mut CancelGate,
    expansions: &mut usize,
) -> Result<usize, CancelReason> {
    if view.is_final(&config.completed) {
        return Ok(0);
    }
    if let Some(&v) = memo.get(&config) {
        return Ok(v);
    }
    gate.tick()?;
    *expansions += 1;
    // Collect the successors first: the recursive calls reuse the scratch.
    let mut children = Vec::new();
    successors(view, &config, scratch, gate, &mut |child| {
        children.push(child);
    })?;
    let mut best = usize::MAX;
    for child in children {
        let sub = brute_force_dfs(view, child, memo, scratch, gate, expansions)?;
        if sub != usize::MAX {
            best = best.min(sub + 1);
        }
    }
    memo.insert(config, best);
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{ratio, InstanceBuilder};

    fn never() -> CancelToken {
        CancelToken::never()
    }

    fn scaled_makespan(inst: &Instance) -> usize {
        let scaled = ScaledInstance::try_new(inst).expect("grid fits");
        let view = MultiView::from_scaled(&scaled);
        search_cancellable(&view, None, &never())
            .expect("never token")
            .expect("uncapped")
            .makespan
    }

    fn rational_makespan(inst: &Instance) -> usize {
        let view = MultiView::rational(inst);
        search_cancellable(&view, None, &never())
            .expect("never token")
            .expect("uncapped")
            .makespan
    }

    #[test]
    fn zero_extra_layer_matches_the_scalar_search() {
        let base = Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]);
        let with_layer = InstanceBuilder::new()
            .processor([ratio(6, 10), ratio(4, 10), ratio(8, 10)])
            .processor([ratio(3, 10), ratio(9, 10), ratio(1, 10)])
            .extra_layer([vec![Ratio::ZERO; 3], vec![Ratio::ZERO; 3]])
            .build();
        assert_eq!(with_layer.resources(), 2);
        let scalar = crate::opt_m_makespan(&base);
        assert_eq!(scaled_makespan(&with_layer), scalar);
        assert_eq!(rational_makespan(&with_layer), scalar);
    }

    #[test]
    fn binding_second_resource_raises_the_makespan() {
        // Cheap on the base resource, oversubscribed on the extra one:
        // workload bound on layer 1 is 1.5 → at least 2 steps.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        assert_eq!(scaled_makespan(&inst), 2);
        assert_eq!(rational_makespan(&inst), 2);
    }

    #[test]
    fn per_resource_receivers_split_across_processors() {
        // Job 0 saturates resource 0, job 1 saturates resource 1; the
        // third processor's job needs both.  Finishing jobs 0 and 1 first
        // leaves the pair of leftovers to processor 2 on different layers.
        let inst = InstanceBuilder::new()
            .processor([Ratio::ONE])
            .processor([ratio(1, 100)])
            .processor([ratio(3, 5)])
            .extra_layer([vec![ratio(1, 100)], vec![Ratio::ONE], vec![ratio(3, 5)]])
            .build();
        let value = scaled_makespan(&inst);
        assert_eq!(value, rational_makespan(&inst));
        // Workload: layer 0 and 1 both sum to 1.61 → lower bound 2.
        assert_eq!(value, 2);
    }

    #[test]
    fn round_cap_cuts_the_search_off() {
        let inst = InstanceBuilder::new()
            .processor([Ratio::ONE])
            .processor([Ratio::ONE])
            .extra_layer([vec![Ratio::ONE], vec![Ratio::ONE]])
            .build();
        let view = MultiView::rational(&inst);
        assert_eq!(search_cancellable(&view, Some(1), &never()).unwrap(), None);
        let full = search_cancellable(&view, Some(2), &never())
            .unwrap()
            .expect("two rounds suffice");
        assert_eq!(full.makespan, 2);
    }

    #[test]
    fn cancelled_search_stops_early() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2)])
            .processor([ratio(1, 2), ratio(1, 2)])
            .extra_layer([vec![ratio(1, 3); 2], vec![ratio(2, 3); 2]])
            .build();
        let token = CancelToken::new();
        token.cancel();
        let view = MultiView::rational(&inst);
        assert_eq!(
            search_cancellable(&view, None, &token),
            Err(CancelReason::Cancelled)
        );
    }

    #[test]
    fn brute_force_agrees_with_the_search() {
        let instances = [
            InstanceBuilder::new()
                .processor([ratio(1, 10)])
                .processor([ratio(1, 10)])
                .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
                .build(),
            InstanceBuilder::new()
                .processor([ratio(1, 2), ratio(1, 2)])
                .processor([ratio(1, 2), ratio(1, 2)])
                .extra_layer([vec![ratio(1, 3); 2], vec![ratio(2, 3); 2]])
                .build(),
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10], &[50]]),
        ];
        for inst in instances {
            let (best, states, expansions) =
                brute_force_cancellable(&MultiView::rational(&inst), &never()).unwrap();
            assert_eq!(best, rational_makespan(&inst), "{inst}");
            assert!(states > 0 && expansions > 0);
            let token = CancelToken::new();
            token.cancel();
            assert_eq!(
                brute_force_cancellable(&MultiView::rational(&inst), &token),
                Err(CancelReason::Cancelled)
            );
        }
    }

    #[test]
    fn base_view_ignores_the_extra_layers() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        let search = run_search(&MultiView::base_rational(&inst));
        assert_eq!(search.makespan(), 1);
        assert_eq!(search.schedule(&inst).num_steps(), 1);
        assert_eq!(rational_makespan(&inst), 2);
    }

    #[test]
    fn empty_instance_finishes_in_zero_rounds() {
        let inst = InstanceBuilder::new()
            .empty_processor()
            .empty_processor()
            .build();
        let view = MultiView::rational(&inst);
        let out = search_cancellable(&view, None, &never()).unwrap().unwrap();
        assert_eq!(out.makespan, 0);
        assert_eq!(out.expanded, 0);
    }
}
