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
//! One engine runs this search, the internal `multi_engine` module,
//! monomorphised per unit; this module only picks the grid.  It searches
//! the instance's `u64` grid whenever the requirement denominators admit
//! one, and its `u128` grid otherwise (flat rounds of packed nodes, an
//! open-addressing duplicate index, consumption levels for the filter).
//! Successors come from the pruned DFS of the internal `subset_enum`
//! module, so any number of simultaneously active processors is supported.
//! Rounds run serially and remove dominated configurations through the
//! grouped Lemma 4 filter (the internal `dominance` module).

use crate::multi_engine::{self, MultiView, SearchError};
use crate::solver::{auto_grid, on_grid};
use crate::traits::Scheduler;
use cr_core::{Instance, ScaledInstance, Schedule};

fn assert_unit(instance: &Instance) {
    assert!(
        instance.is_unit_size(),
        "OptResAssignment2 requires unit-size jobs (the setting of Theorem 6)"
    );
}

/// The optimal makespan computed by the configuration search on the
/// instance's unit grid (`u64`, widened to `u128` when it overflows).
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes, if its unit grid
/// overflows `u128`, or if a search round outgrows its `u32` positions
/// (see [`try_opt_m_makespan`]).
#[must_use]
pub fn opt_m_makespan(instance: &Instance) -> usize {
    try_opt_m_makespan(instance)
        // lint: allow(panic_hygiene) — documented panic: a round of 2^32 nodes needs more than 64 GiB of arena
        .unwrap_or_else(|err| panic!("{err}"))
}

/// Like [`opt_m_makespan`], but surfaces the search's structured failure
/// instead of panicking.
///
/// # Errors
///
/// [`SearchError::RoundTooLarge`] when a search round holds more nodes than
/// `u32` parent indices can address; that needs more than 64 GiB of arena.
///
/// # Panics
///
/// Panics if the instance contains non-unit job sizes, or if its unit grid
/// overflows `u128`.
pub fn try_opt_m_makespan(instance: &Instance) -> Result<usize, SearchError> {
    assert_unit(instance);
    let narrow = ScaledInstance::try_new(instance);
    on_grid!(auto_grid("OptM", instance, narrow.as_ref()), |scaled| {
        Ok(multi_engine::run_search(&MultiView::base_scaled(scaled))?.makespan())
    })
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

    /// # Panics
    ///
    /// Panics if the instance contains non-unit job sizes, if its unit grid
    /// overflows `u128`, or if a search round outgrows its `u32` positions.
    fn schedule(&self, instance: &Instance) -> Schedule {
        assert_unit(instance);
        let narrow = ScaledInstance::try_new(instance);
        on_grid!(auto_grid("OptM", instance, narrow.as_ref()), |scaled| {
            let view = MultiView::base_scaled(scaled);
            multi_engine::run_search(&view)
                // lint: allow(panic_hygiene) — documented panic: a round of 2^32 nodes needs more than 64 GiB of arena
                .unwrap_or_else(|err| panic!("{err}"))
                .schedule(&view)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dominance::{DominanceFilter, FILTER_CHECK_STRIDE};
    use crate::greedy_balance::GreedyBalance;
    use crate::opt_two::opt_two_makespan;
    use cr_core::{bounds, CancelReason, CancelToken, Ratio};

    /// The `u128` grid's base view of `inst`.
    fn wide_view(inst: &Instance) -> MultiView<u128> {
        MultiView::base_scaled(&ScaledInstance::try_on_grid(inst).expect("grid fits u128"))
    }

    /// The makespan of the search on the `u128` grid.
    fn wide_makespan(inst: &Instance) -> usize {
        multi_engine::run_search(&wide_view(inst))
            .unwrap()
            .makespan()
    }

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
    fn both_grid_widths_agree() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
            Instance::unit_from_percentages(&[&[0, 100], &[100, 0], &[50, 50]]),
            Instance::unit_from_percentages(&[&[90, 5], &[80, 15], &[70, 25]]),
        ];
        for inst in instances {
            let scaled = opt_m_makespan(&inst);
            assert_eq!(scaled, wide_makespan(&inst), "{inst}");
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
        assert_eq!(wide_makespan(&inst), 4);
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
    fn cancelled_wide_search_stops_early() {
        let inst = Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]);
        let view = wide_view(&inst);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            multi_engine::run_search_cancellable(&view, None, &token).err(),
            Some(SearchError::Cancelled {
                reason: CancelReason::Cancelled
            })
        );
        // A live token reproduces the plain path exactly.
        let live = CancelToken::new();
        let search = multi_engine::run_search_cancellable(&view, None, &live)
            .unwrap()
            .unwrap();
        assert_eq!(search.makespan(), opt_m_makespan(&inst));
        assert_eq!(
            search.schedule(&view).makespan(&inst).unwrap(),
            search.makespan()
        );
    }

    #[test]
    fn wide_grids_solve_what_u64_cannot() {
        // Three primes near 2^22: their LCM (~2^66) overflows the u64 grid.
        let [p, q, r]: [i128; 3] = [4_194_271, 4_194_277, 4_194_287];
        let inst = cr_core::InstanceBuilder::new()
            .processor([Ratio::new(p - 1, p), Ratio::new(1, q)])
            .processor([Ratio::new(2, r), Ratio::new(q - 2, q)])
            .processor([Ratio::new(r - 3, r)])
            .build();
        assert!(ScaledInstance::try_new(&inst).is_none());
        let makespan = opt_m_makespan(&inst);
        assert_eq!(makespan, crate::brute_force::brute_force_makespan(&inst));
        let schedule = OptM::new().schedule(&inst);
        assert_eq!(schedule.makespan(&inst).unwrap(), makespan);
    }

    /// The keep mask the search's filter computes for `u128`
    /// configurations, given as (completed counts, spent), under
    /// (Σ completed, Σ spent) levels.
    fn survivors(configs: &[(&[u64], &[u128])]) -> Vec<bool> {
        let mut filter = DominanceFilter::new(2, 1);
        for &(completed, spent) in configs {
            let level = (
                u128::from(completed.iter().sum::<u64>()),
                u64::try_from(spent.iter().sum::<u128>()).unwrap(),
            );
            filter.push(completed.iter().copied(), spent, level);
        }
        let mut gate = CancelToken::never().gate(FILTER_CHECK_STRIDE);
        filter.survivors(&mut gate).unwrap().to_vec()
    }

    #[test]
    fn domination_is_reflexive_and_ordered() {
        let a: (&[u64], &[u128]) = (&[2, 1], &[0, 30]);
        let b: (&[u64], &[u128]) = (&[1, 1], &[90, 10]);
        let c: (&[u64], &[u128]) = (&[2, 1], &[0, 20]);
        // `a` dominates `b` and, on an equal spent value, `c`, in either
        // push order.
        assert_eq!(survivors(&[a, c]), [true, false]);
        assert_eq!(survivors(&[c, a]), [false, true]);
        assert_eq!(survivors(&[a, b]), [true, false]);
        assert_eq!(survivors(&[b, a]), [false, true]);
    }
}
