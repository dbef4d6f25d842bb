//! The multi-resource (`k ≥ 2`) exact configuration search.
//!
//! Generalizes the configuration-domination search of [`crate::opt_m`] to
//! instances carrying extra resource layers (see
//! [`Instance::extra_layers`]): a configuration now records, per processor,
//! the completed-job count plus the resource already spent on the frontier
//! job **on every layer**, and one normalized time step distributes each
//! resource's full capacity independently.
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
//! (the variants that withhold them are strictly dominated, exactly as in
//! the scalar enumerator), and when every active job fits on every layer
//! simultaneously the unique emitted choice completes them all.
//!
//! For `k = 1` this class is precisely the Lemma 1 class of the scalar
//! search (non-wasting, progressive, one partial receiver).  For `k ≥ 2`
//! Lemma 1's exchange argument does not carry over verbatim — a prior
//! counterexample shows a single *overall* receiver is not WLOG, which is
//! why receivers are per-resource here — so the search is documented as
//! **exact within this normalized class** (and conjectured optimal); the
//! scaled and rational engines run the identical enumeration, making their
//! cross-check a genuine test of the per-layer grids rather than of the
//! class.
//!
//! # Search structure
//!
//! Round-by-round BFS with exact-duplicate removal and the per-processor
//! domination filter of Lemma 4, run through the grouped filter shared with
//! the scalar engines (the internal `dominance` module): configuration `a`
//! dominates `b` when every processor has completed more jobs, or equally
//! many with at least as much spent on **every** layer of the frontier job.
//! Every
//! emitted choice completes at least one job (singletons always fit:
//! remaining ≤ requirement ≤ capacity on every layer), so the search
//! terminates within `total_jobs + 1` rounds.  The search is value-only —
//! multi-resource schedules are not reconstructed; the solver layer
//! reports makespans and rejects `want_schedule` with a structured error.
//!
//! The enumeration is a plain subset DFS with an all-layer overflow-checked
//! fit test.  The scalar enumerator's sorted-ascending break-prune does
//! *not* generalize: requirement vectors have no total order, so a
//! candidate that fails the fit test cannot end its level — the DFS skips
//! it and keeps descending.

use crate::dominance::{DominanceFilter, FILTER_CHECK_STRIDE};
use crate::subset_enum::CHOICE_CHECK_STRIDE;
use cr_core::{CancelGate, CancelReason, CancelToken, Instance, JobId, Ratio, ScaledInstance};
use std::collections::HashSet;
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
    /// The exact rational view: every resource has capacity `1`.
    pub(crate) fn rational(instance: &Instance) -> Self {
        let m = instance.processors();
        let k = instance.resources();
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

    fn is_final(&self, view: &MultiView<V>) -> bool {
        self.completed
            .iter()
            .enumerate()
            .all(|(i, &c)| c as usize >= view.jobs_on(i))
    }

    /// Completes processor `i`'s frontier job, resetting its spent layers.
    fn complete(&mut self, processor: usize, k: usize) {
        self.completed[processor] += 1;
        self.spent[processor * k..(processor + 1) * k].fill(V::ZERO);
    }
}

/// The result of one multi-resource search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MultiSearch {
    /// The optimal makespan within the normalized step class.
    pub makespan: usize,
    /// Configurations expanded over the whole search.
    pub expanded: usize,
}

/// Streams every normalized successor of `config` into `emit`.
///
/// See the module docs for the choice class.  `emit` receives each
/// successor configuration; exact duplicates may be emitted (the BFS
/// deduplicates).
fn successors<V: SearchUnit>(
    view: &MultiView<V>,
    config: &MConfig<V>,
    gate: &mut CancelGate,
    emit: &mut impl FnMut(MConfig<V>),
) -> Result<(), CancelReason> {
    let m = view.processors();
    let k = view.resources();
    let mut active: Vec<usize> = Vec::new();
    let mut rem: Vec<V> = Vec::new();
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
        for &e in &active {
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
        active: &active,
        rem: &rem,
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

/// Runs the multi-resource configuration search to the first round holding
/// a final configuration.
///
/// `Ok(None)` when `round_cap` cut the search off before any final
/// configuration appeared; `Err` when the token fired mid-search.
pub(crate) fn search_cancellable<V: SearchUnit>(
    view: &MultiView<V>,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<MultiSearch>, CancelReason> {
    let _search_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_SEARCH);
    let m = view.processors();
    let k = view.resources();
    let initial = MConfig::initial(m, k);
    if initial.is_final(view) {
        return Ok(Some(MultiSearch {
            makespan: 0,
            expanded: 0,
        }));
    }
    let mut gate = token.gate(CHOICE_CHECK_STRIDE);
    let mut filter_gate = token.gate(FILTER_CHECK_STRIDE);
    let mut filter = DominanceFilter::new(m, k);
    let max_rounds = view.total_jobs() + 1;
    let round_limit = round_cap.map_or(max_rounds, |cap| cap.min(max_rounds));
    let mut frontier = vec![initial];
    let mut expanded = 0usize;
    for round in 1..=round_limit {
        token.check()?;
        let mut round_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_ROUND);
        crate::obs::optm_rounds().inc();
        let mut seen: HashSet<MConfig<V>> = HashSet::new();
        let mut next: Vec<MConfig<V>> = Vec::new();
        for node in &frontier {
            expanded += 1;
            successors(view, node, &mut gate, &mut |cfg| {
                if seen.insert(cfg.clone()) {
                    next.push(cfg);
                }
            })?;
        }
        round_span.lap(cr_obs::names::SPAN_OPTM_EXPAND);

        // The Lemma 4 domination filter, extended componentwise over the
        // layers.
        filter.clear();
        // lint: allow(cancel_coverage) — bounded: one O(m·k) copy per candidate; the filter ticks its gate per candidate
        for cfg in &next {
            filter.push(
                cfg.completed.iter().map(|&c| u64::from(c)),
                &cfg.spent,
                None,
            );
        }
        let candidates = next.len();
        let filtered: Vec<MConfig<V>> = next
            .into_iter()
            .zip(filter.survivors(&mut filter_gate)?)
            .filter_map(|(cfg, &kept)| kept.then_some(cfg))
            .collect();
        round_span.lap(cr_obs::names::SPAN_OPTM_FILTER);
        crate::obs::record_round_filter(
            candidates,
            filtered.len(),
            filter.checked(),
            filter.settled(),
        );

        if filtered.iter().any(|cfg| cfg.is_final(view)) {
            return Ok(Some(MultiSearch {
                makespan: round,
                expanded,
            }));
        }
        frontier = filtered;
    }
    debug_assert!(
        round_cap.is_some(),
        "every choice completes a job, so the uncapped search must terminate"
    );
    Ok(None)
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
