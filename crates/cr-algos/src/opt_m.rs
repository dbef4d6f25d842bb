//! `OptResAssignment2` — the exact polynomial-time algorithm for any fixed
//! number of processors `m` (Algorithm 2, Theorem 6 of the paper).
//!
//! The algorithm performs a breadth-first search over *configurations*: the
//! vector of per-processor completed-job counts together with the amount of
//! resource already spent on each processor's current frontier job.  Round by
//! round it expands every configuration into its possible successors
//! (restricted, as justified by Lemma 1, to non-wasting and progressive
//! steps, i.e. a set of frontier jobs that complete plus at most one job that
//! receives the leftover), removes duplicates and *dominated* configurations
//! (Lemma 4), and stops as soon as a configuration with all jobs completed
//! appears.  The number of surviving configurations is polynomial in `n` for
//! fixed `m`, which yields Theorem 6's polynomial running time.
//!
//! Two implementations share this file's entry points: the hot path runs the
//! search on a [`ScaledInstance`] through the internal `scaled_engine`
//! module (integer units, flat rounds of packed configurations, an
//! open-addressing duplicate index), and the `Ratio`-based search is
//! retained as [`opt_m_makespan_rational`] — the fallback when scaling
//! would overflow (or a search round outgrows the engine's `u32` positions,
//! surfaced as a structured [`crate::SearchError`]) and the reference the
//! property tests cross-check against.
//!
//! Both run their rounds serially and remove dominated configurations
//! through the one grouped Lemma 4 filter (the internal `dominance`
//! module), which compares a candidate only against the kept members of
//! the completed-vector groups that are at least its own.  On the dense
//! `Uniform m=4 n=3` class ~99% of the candidates survive, so the
//! kept-prefix and all-pairs scans it replaced were quadratic in practice.
//! `BENCH_exact`'s scaled cell for that class went from a median of 1024 ms
//! to 118 ms per ten instances (three alternating runs, 2-vCPU host), and
//! its rational cell from 9.2–11.5 s to 0.56–1.04 s; once the filter no
//! longer dominated, the scaled engine's per-round rayon fan-out no longer
//! paid for its threads.  The scaled engine also hands the filter each
//! candidate's consumption level (units consumed, then completed
//! zero-requirement jobs), so the filter keeps the round's top-level
//! candidates without comparing them; with its flat rounds that took the
//! same cell from 125–158 ms to 56–80 ms (four alternating runs).  The
//! rational search passes no levels: it is the twin slated to fold into
//! one generic engine.
//!
//! Both paths enumerate successors through the shared pruned DFS enumerator
//! (the internal `subset_enum` module), so any number of simultaneously active
//! processors is supported.  The pre-ISSUE-4 rational path scanned
//! `1u32 << k` subset masks, which shift-overflowed for `k ≥ 32` active
//! processors — a debug panic, and a silent wrap to a wrong (possibly
//! empty) successor enumeration in release builds.

use crate::dominance::{DominanceFilter, FILTER_CHECK_STRIDE};
use crate::scaled_engine;
use crate::subset_enum::{for_each_choice_cancellable, EnumScratch, CHOICE_CHECK_STRIDE};
use crate::traits::Scheduler;
use cr_core::{
    CancelGate, CancelReason, CancelToken, Instance, Ratio, ScaledInstance, Schedule,
    ScheduleBuilder,
};
use std::collections::HashMap;

/// A configuration: how many jobs each processor has completed and how much
/// resource has been spent on its current frontier job.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct Config {
    /// Completed job count per processor (the paper's `jᵢ(t)`).
    pub completed: Vec<usize>,
    /// Resource already spent on the active (frontier) job per processor
    /// (the paper's `vᵢ(t)`); zero when the frontier job has not started.
    pub spent: Vec<Ratio>,
}

impl Config {
    /// The initial configuration: nothing completed, nothing spent.
    pub(crate) fn initial(m: usize) -> Self {
        Config {
            completed: vec![0; m],
            spent: vec![Ratio::ZERO; m],
        }
    }

    /// Whether every processor has completed all of its jobs.
    pub(crate) fn is_final(&self, instance: &Instance) -> bool {
        self.completed
            .iter()
            .enumerate()
            .all(|(i, &c)| c >= instance.jobs_on(i))
    }

    /// Remaining requirement of processor `i`'s frontier job, or `None` if
    /// the processor has no jobs left.
    pub(crate) fn remaining(&self, instance: &Instance, i: usize) -> Option<Ratio> {
        if self.completed[i] < instance.jobs_on(i) {
            let req = instance.processor_jobs(i)[self.completed[i]].requirement;
            Some(req - self.spent[i])
        } else {
            None
        }
    }
}

/// The decision taken in one time step: which frontier jobs complete and
/// which single processor (if any) receives the leftover resource.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct StepChoice {
    /// Processors whose frontier job completes in this step.
    pub finished: Vec<usize>,
    /// Processor that receives the remaining resource without completing,
    /// together with the amount it receives.
    pub partial: Option<(usize, Ratio)>,
}

/// Generates all successor configurations of `config` reachable in one
/// normalized (non-wasting, progressive) time step, together with the step
/// decision that produces them.
///
/// Restricting the search to such steps is justified by Lemma 1: some optimal
/// schedule is non-wasting, progressive and nested, and for unit-size jobs
/// every such step completes at least one job.
///
/// Runs on the shared pruned DFS enumerator (`crate::subset_enum`): only
/// fitting subsets of the requirement-sorted active processors are visited,
/// zero-requirement frontiers always complete (the variants skipping them
/// are strictly dominated), and the active-processor count is unbounded.
pub(crate) fn successors_cancellable(
    instance: &Instance,
    config: &Config,
    gate: &mut CancelGate,
) -> Result<Vec<(Config, StepChoice)>, CancelReason> {
    let m = instance.processors();
    let active: Vec<usize> = (0..m)
        .filter(|&i| config.completed[i] < instance.jobs_on(i))
        .collect();
    if active.is_empty() {
        return Ok(Vec::new());
    }
    let remaining: Vec<Ratio> = active
        .iter()
        // lint: allow(panic_hygiene) — `active` holds exactly the processors whose remaining() is Some
        .map(|&i| config.remaining(instance, i).expect("active processor"))
        .collect();

    let mut scratch = EnumScratch::default();
    let mut out = Vec::new();
    for_each_choice_cancellable(
        &remaining,
        Ratio::ONE,
        &mut scratch,
        gate,
        &mut |finished, partial| {
            let mut next = config.clone();
            let mut finished_procs = Vec::with_capacity(finished.len());
            // lint: allow(cancel_coverage) — bounded: `finished` is a subset of the <= m active processors
            for &entry in finished {
                let i = active[entry as usize];
                next.completed[i] += 1;
                next.spent[i] = Ratio::ZERO;
                finished_procs.push(i);
            }
            let partial = partial.map(|(entry, amount)| {
                let p = active[entry as usize];
                next.spent[p] += amount;
                (p, amount)
            });
            out.push((
                next,
                StepChoice {
                    finished: finished_procs,
                    partial,
                },
            ));
        },
    )?;
    Ok(out)
}

/// One node of the round-by-round search, with a back pointer for schedule
/// reconstruction.
#[derive(Debug, Clone)]
struct Node {
    config: Config,
    parent: usize,
    choice: Option<StepChoice>,
}

fn assert_unit(instance: &Instance) {
    assert!(
        instance.is_unit_size(),
        "OptResAssignment2 requires unit-size jobs (the setting of Theorem 6)"
    );
}

/// Runs the configuration search and returns, per round, the surviving
/// (non-dominated) nodes.  The search stops after the first round containing
/// a final configuration.
fn run_search(instance: &Instance) -> Vec<Vec<Node>> {
    // lint: allow(panic_hygiene) — with no round cap the search always reaches a final configuration, so the limited form never returns None
    run_search_limited(instance, None).expect("uncapped search reaches a final configuration")
}

/// [`run_search`] with a hard cap on the number of expanded rounds (the
/// solver layer's `max_rounds` budget on the rational path).  `None` when
/// the cap cut the search off before any final configuration appeared —
/// the search genuinely stops early, mirroring the scaled engine's
/// `run_search_capped`.
fn run_search_limited(instance: &Instance, round_cap: Option<usize>) -> Option<Vec<Vec<Node>>> {
    run_search_limited_cancellable(instance, round_cap, &CancelToken::never())
        // lint: allow(panic_hygiene) — a never-token cannot fire
        .expect("a never token cannot fire")
}

/// [`run_search_limited`] with cooperative cancellation: the token is
/// checked at every round boundary and (through the shared gate) per DFS
/// extension inside the successor enumeration, so even a single huge round
/// observes the deadline within [`cr_core::cancel::CHECK_INTERVAL_MS`].
fn run_search_limited_cancellable(
    instance: &Instance,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<Vec<Vec<Node>>>, CancelReason> {
    let _search_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_SEARCH);
    let m = instance.processors();
    let initial = Config::initial(m);
    let mut rounds: Vec<Vec<Node>> = vec![vec![Node {
        config: initial.clone(),
        parent: usize::MAX,
        choice: None,
    }]];

    if initial.is_final(instance) {
        return Ok(Some(rounds));
    }

    let mut gate = token.gate(CHOICE_CHECK_STRIDE);
    let mut filter_gate = token.gate(FILTER_CHECK_STRIDE);
    let mut filter = DominanceFilter::new(m, 1);
    let max_rounds = instance.total_jobs() + 1;
    let round_limit = round_cap.map_or(max_rounds, |cap| cap.min(max_rounds));
    let mut found_final = false;
    for _round in 0..round_limit {
        token.check()?;
        let mut round_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_ROUND);
        crate::obs::optm_rounds().inc();
        // lint: allow(panic_hygiene) — `rounds` is seeded with the initial round before this loop
        let prev = rounds.last().expect("at least the initial round");
        let mut seen: HashMap<Config, usize> = HashMap::new();
        let mut next: Vec<Node> = Vec::new();
        for (parent_idx, node) in prev.iter().enumerate() {
            for (config, choice) in successors_cancellable(instance, &node.config, &mut gate)? {
                if let Some(&existing) = seen.get(&config) {
                    // Exact duplicate: keep the first representative.
                    let _ = existing;
                    continue;
                }
                seen.insert(config.clone(), next.len());
                next.push(Node {
                    config,
                    parent: parent_idx,
                    choice: Some(choice),
                });
            }
        }
        round_span.lap(cr_obs::names::SPAN_OPTM_EXPAND);

        // Remove dominated configurations (Lemma 4 guarantees that among
        // step-equal extended configurations one dominates, so pruning by
        // plain domination keeps an optimal continuation around).
        filter.clear();
        // lint: allow(cancel_coverage) — bounded: one O(m) copy per candidate; the filter ticks its gate per candidate
        for node in &next {
            filter.push(
                node.config.completed.iter().map(|&c| c as u64),
                &node.config.spent,
                None,
            );
        }
        let candidates = next.len();
        let filtered: Vec<Node> = next
            .into_iter()
            .zip(filter.survivors(&mut filter_gate)?)
            .filter_map(|(node, &kept)| kept.then_some(node))
            .collect();
        round_span.lap(cr_obs::names::SPAN_OPTM_FILTER);
        crate::obs::record_round_filter(
            candidates,
            filtered.len(),
            filter.checked(),
            filter.settled(),
        );

        let done = filtered.iter().any(|n| n.config.is_final(instance));
        rounds.push(filtered);
        if done {
            found_final = true;
            break;
        }
    }
    if found_final {
        Ok(Some(rounds))
    } else {
        debug_assert!(round_cap.is_some(), "uncapped search must terminate");
        Ok(None)
    }
}

/// One rational configuration search answering both questions at once:
/// the makespan plus (when requested) the reconstructed schedule, so the
/// solver layer never pays for the exponential search twice.  `None` when
/// `round_cap` cut the search off.
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes.
#[cfg(test)]
pub(crate) fn solve_rational(
    instance: &Instance,
    round_cap: Option<usize>,
    want_schedule: bool,
) -> Option<(usize, Option<Schedule>)> {
    solve_rational_cancellable(instance, round_cap, want_schedule, &CancelToken::never())
        .expect("a never token cannot fire")
}

/// [`solve_rational`] with cooperative cancellation — `Err` when the token
/// fired mid-search, `Ok(None)` when `round_cap` cut the search off.
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes.
pub(crate) fn solve_rational_cancellable(
    instance: &Instance,
    round_cap: Option<usize>,
    want_schedule: bool,
    token: &CancelToken,
) -> Result<Option<(usize, Option<Schedule>)>, CancelReason> {
    assert_unit(instance);
    let Some(rounds) = run_search_limited_cancellable(instance, round_cap, token)? else {
        return Ok(None);
    };
    let makespan = if rounds[0][0].config.is_final(instance) {
        0
    } else {
        rounds.len() - 1
    };
    let schedule = want_schedule.then(|| schedule_from_rounds(instance, &rounds));
    Ok(Some((makespan, schedule)))
}

/// The optimal makespan computed by the configuration search.
///
/// Runs on the scaled-integer engine whenever the instance's requirement
/// denominators admit a `u64` LCM (always, for the families in this
/// repository), and falls back to the exact rational search otherwise —
/// either when scaling overflows or when the engine reports a structured
/// [`crate::SearchError`] because a search round outgrew its `u32`
/// parent-index headroom.
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes.
#[must_use]
pub fn opt_m_makespan(instance: &Instance) -> usize {
    try_opt_m_makespan(instance).unwrap_or_else(|_| opt_m_makespan_rational(instance))
}

/// Like [`opt_m_makespan`], but surfaces the scaled engine's structured
/// failure instead of silently recovering through the rational search.
///
/// Instances whose denominators do not scale at all still run (and succeed)
/// on the rational path; the only `Err` is a
/// [`SearchError`](crate::SearchError) from the scaled configuration search
/// itself — a round outgrowing the `u32` parent-index headroom — which
/// callers can either report or recover from via
/// [`opt_m_makespan_rational`] (exactly what [`opt_m_makespan`] does).
///
/// # Errors
///
/// [`crate::SearchError::RoundTooLarge`] when a scaled search round holds
/// more nodes than `u32` parent indices can address.
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes.
pub fn try_opt_m_makespan(instance: &Instance) -> Result<usize, crate::SearchError> {
    assert_unit(instance);
    match ScaledInstance::try_new(instance) {
        Some(scaled) => {
            let rounds = scaled_engine::run_search(&scaled)?;
            Ok(scaled_engine::search_makespan(&scaled, &rounds))
        }
        None => Ok(opt_m_makespan_rational(instance)),
    }
}

/// The original `Ratio`-arithmetic configuration search (reference path).
///
/// Kept verbatim so property tests can cross-check the scaled engine and as
/// the fallback for instances whose denominator LCM overflows `u64`.
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes.
#[must_use]
pub fn opt_m_makespan_rational(instance: &Instance) -> usize {
    assert_unit(instance);
    let rounds = run_search(instance);
    if rounds[0][0].config.is_final(instance) {
        return 0;
    }
    let last = rounds.len() - 1;
    assert!(
        rounds[last].iter().any(|n| n.config.is_final(instance)),
        "configuration search ended without reaching a final configuration"
    );
    last
}

/// The exact algorithm for an arbitrary fixed number of processors.
///
/// # Examples
///
/// ```
/// use cr_algos::{OptM, Scheduler};
/// use cr_core::Instance;
///
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[40, 60], &[100]]);
/// assert_eq!(OptM::new().makespan(&inst), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OptM;

impl OptM {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        OptM
    }
}

impl Scheduler for OptM {
    fn name(&self) -> &'static str {
        "OptResAssignment2"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        assert_unit(instance);
        if let Some(scaled) = ScaledInstance::try_new(instance) {
            if let Ok(rounds) = scaled_engine::run_search(&scaled) {
                return scaled_engine::search_schedule(instance, &scaled, &rounds);
            }
        }
        schedule_rational(instance)
    }
}

/// Runs the rational configuration search and reconstructs an optimal
/// schedule (the reference / fallback path of [`OptM::schedule`]).
pub(crate) fn schedule_rational(instance: &Instance) -> Schedule {
    schedule_from_rounds(instance, &run_search(instance))
}

/// Reconstructs an optimal schedule from a finished rational search by
/// back-tracing the winner and replaying the per-step decisions.
fn schedule_from_rounds(instance: &Instance, rounds: &[Vec<Node>]) -> Schedule {
    let last = rounds.len() - 1;
    if last == 0 {
        return Schedule::empty();
    }
    let winner = rounds[last]
        .iter()
        .position(|n| n.config.is_final(instance))
        // lint: allow(panic_hygiene) — `last` is set only once its round contains a final configuration
        .expect("search ended on a final configuration");

    // Walk back through the rounds, collecting the per-step decisions.
    let mut choices = Vec::with_capacity(last);
    let mut round = last;
    let mut idx = winner;
    // lint: allow(cancel_coverage) — bounded: the back-trace visits one node per round of the already-gated search
    while round > 0 {
        let node = &rounds[round][idx];
        // lint: allow(panic_hygiene) — only the choice-less initial node lives in round 0, and the walk stops there
        choices.push(node.choice.clone().expect("non-initial node has a choice"));
        idx = node.parent;
        round -= 1;
    }
    choices.reverse();

    // Replay the decisions into an explicit resource assignment.
    let m = instance.processors();
    let mut builder = ScheduleBuilder::new(instance);
    // lint: allow(cancel_coverage) — bounded: replays one already-gated search round per step
    for choice in choices {
        let mut shares = vec![Ratio::ZERO; m];
        // lint: allow(cancel_coverage) — bounded: a choice finishes at most m processors
        for &i in &choice.finished {
            shares[i] = builder.remaining_workload(i);
        }
        if let Some((p, amount)) = choice.partial {
            shares[p] = amount;
        }
        builder.push_step(shares);
    }
    builder.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_balance::GreedyBalance;
    use crate::opt_two::opt_two_makespan;
    use cr_core::bounds;

    #[test]
    fn matches_two_processor_dp() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]),
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100, 1, 100], &[1, 100, 1]]),
            Instance::unit_from_percentages(&[&[25, 75], &[75, 25]]),
        ];
        for inst in instances {
            assert_eq!(opt_m_makespan(&inst), opt_two_makespan(&inst), "{inst}");
        }
    }

    #[test]
    fn three_processor_instances() {
        // Three jobs of 100% on three processors: only one can run per step.
        let inst = Instance::unit_from_percentages(&[&[100], &[100], &[100]]);
        assert_eq!(opt_m_makespan(&inst), 3);

        // Perfectly packable columns.
        let inst = Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]);
        assert_eq!(opt_m_makespan(&inst), 2);

        // The Figure 2 input needs 4 steps (2 + 0.5·4 = 4 total workload, chain 4).
        let inst = Instance::unit_from_percentages(&[&[50, 50, 50, 50], &[100], &[100]]);
        assert_eq!(opt_m_makespan(&inst), 4);
    }

    #[test]
    fn schedule_reconstruction_matches_makespan() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
            Instance::unit_from_percentages(&[
                &[20, 10, 10, 10],
                &[50, 55, 90, 55, 10],
                &[50, 40, 95],
            ]),
            Instance::unit_from_percentages(&[&[90, 5], &[80, 15], &[70, 25]]),
        ];
        for inst in instances {
            let value = opt_m_makespan(&inst);
            let schedule = OptM::new().schedule(&inst);
            assert_eq!(schedule.makespan(&inst).unwrap(), value);
            assert!(value >= bounds::trivial_lower_bound(&inst));
            assert!(value <= GreedyBalance::new().makespan(&inst));
        }
    }

    #[test]
    fn optimum_never_exceeds_greedy_and_respects_bounds() {
        let inst = Instance::unit_from_percentages(&[
            &[80, 20, 60],
            &[70, 30, 50],
            &[10, 90, 25],
            &[55, 45, 35],
        ]);
        let opt = opt_m_makespan(&inst);
        let greedy = GreedyBalance::new().makespan(&inst);
        assert!(opt <= greedy);
        assert!(opt >= bounds::trivial_lower_bound(&inst));
        let m = inst.processors() as f64;
        assert!(greedy as f64 <= (2.0 - 1.0 / m) * opt as f64 + 1e-9);
    }

    #[test]
    fn scaled_and_rational_paths_agree() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
            Instance::unit_from_percentages(&[&[0, 100], &[100, 0], &[50, 50]]),
            Instance::unit_from_percentages(&[&[90, 5], &[80, 15], &[70, 25]]),
        ];
        for inst in instances {
            let scaled = opt_m_makespan(&inst);
            let rational = opt_m_makespan_rational(&inst);
            assert_eq!(scaled, rational, "{inst}");
            assert_eq!(OptM::new().schedule(&inst).makespan(&inst).unwrap(), scaled);
        }
    }

    #[test]
    fn try_variant_agrees_with_the_silent_fallback_entry_point() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]),
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
        ];
        for inst in instances {
            assert_eq!(try_opt_m_makespan(&inst).unwrap(), opt_m_makespan(&inst));
        }
    }

    #[test]
    fn forty_processor_oversubscribed_instance_solves_exactly() {
        // 40 simultaneously active processors: 4 oversubscribed heavies
        // (90% each — any two exceed the resource) plus 36 processors whose
        // chains of zero-requirement jobs keep them in the active set.  The
        // pre-ISSUE-4 scaled engine asserted `k < 32`; the rational path
        // shift-overflowed `1u32 << 40` (a debug panic, and a silent wrap to
        // a wrong enumeration in release).
        let mut reqs: Vec<Vec<Ratio>> = vec![vec![Ratio::from_percent(90)]; 4];
        reqs.extend(vec![vec![Ratio::ZERO; 2]; 36]);
        let inst = Instance::unit_from_requirements(reqs);

        // Workload 3.6 rounds up to 4: finish one heavy per step, handing
        // the growing leftover to the next (10, 20, 30 units).
        let scaled = opt_m_makespan(&inst);
        assert_eq!(scaled, 4);
        assert_eq!(opt_m_makespan_rational(&inst), 4);
        assert_eq!(crate::brute_force::brute_force_makespan(&inst), 4);
        let schedule = OptM::new().schedule(&inst);
        assert_eq!(schedule.makespan(&inst).unwrap(), 4);
    }

    #[test]
    fn empty_instance_has_zero_makespan() {
        let inst = cr_core::InstanceBuilder::new()
            .empty_processor()
            .empty_processor()
            .build();
        assert_eq!(opt_m_makespan(&inst), 0);
        assert_eq!(OptM::new().schedule(&inst).num_steps(), 0);
    }

    #[test]
    fn cancelled_rational_search_stops_early() {
        let inst = Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            solve_rational_cancellable(&inst, None, false, &token),
            Err(CancelReason::Cancelled)
        );
        // A live token reproduces the plain path exactly.
        let live = CancelToken::new();
        assert_eq!(
            solve_rational_cancellable(&inst, None, false, &live).unwrap(),
            solve_rational(&inst, None, false)
        );
    }

    /// The keep mask the search's filter computes for rational
    /// configurations.
    fn survivors(configs: &[&Config]) -> Vec<bool> {
        let mut filter = DominanceFilter::new(2, 1);
        for config in configs {
            filter.push(
                config.completed.iter().map(|&c| c as u64),
                &config.spent,
                None,
            );
        }
        let mut gate = CancelToken::never().gate(FILTER_CHECK_STRIDE);
        filter.survivors(&mut gate).unwrap().to_vec()
    }

    #[test]
    fn domination_is_reflexive_and_ordered() {
        let a = Config {
            completed: vec![2, 1],
            spent: vec![Ratio::ZERO, Ratio::from_percent(30)],
        };
        let b = Config {
            completed: vec![1, 1],
            spent: vec![Ratio::from_percent(90), Ratio::from_percent(10)],
        };
        let c = Config {
            completed: vec![2, 1],
            spent: vec![Ratio::ZERO, Ratio::from_percent(20)],
        };
        // `a` dominates `b` and, on an equal spent value, `c`, in either
        // push order.
        assert_eq!(survivors(&[&a, &c]), [true, false]);
        assert_eq!(survivors(&[&c, &a]), [false, true]);
        assert_eq!(survivors(&[&a, &b]), [true, false]);
        assert_eq!(survivors(&[&b, &a]), [false, true]);
    }
}
