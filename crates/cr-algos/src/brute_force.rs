//! Exhaustive optimal solver used as ground truth in tests and experiments.
//!
//! The solver explores the same normalized step space as
//! [`crate::opt_m`] (at least one frontier job completes per step, the
//! leftover goes to at most one job — justified by Lemma 1, enumerated by
//! the shared width-independent pruned DFS of `crate::subset_enum`), but
//! performs a memoized depth-first search **without** the domination
//! pruning of Algorithm 2.  Its running time is exponential, which is fine
//! for the small instances where it serves as an independent reference for
//! `OptResAssignment`, `OptResAssignment2` and the approximation-ratio
//! experiments.
//!
//! The memoized search runs in the internal `multi_engine` module, over the
//! same nodes and successor function as the configuration search, on the
//! instance's `u64` grid whenever it fits and on its `u128` grid otherwise.
//! The same DFS, given a target makespan and an interval-bound prune, is
//! the decision behind makespan-only `OptM` answers that no polynomial
//! rule certifies; here it runs with neither, so it visits every successor
//! and its makespans and expansion counts are those of the plain brute
//! force.

use crate::multi_engine::{self, MultiView};
use crate::solver::{auto_grid, on_grid};
use cr_core::{bounds, CancelReason, CancelToken, Instance, ScaledInstance};

/// Search statistics of a brute-force run (useful for reporting how much
/// work the domination pruning of Algorithm 2 saves).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchStats {
    /// Number of distinct configurations memoized.
    pub states: usize,
    /// Number of successor expansions performed.
    pub expansions: usize,
}

/// Computes the optimal makespan by exhaustive search.
///
/// # Panics
///
/// Panics if the instance contains non-unit size jobs, or if its unit grid
/// overflows `u128`.
#[must_use]
pub fn brute_force_makespan(instance: &Instance) -> usize {
    brute_force_with_stats(instance).0
}

/// Like [`brute_force_makespan`] but also reports search statistics.
///
/// Searches the instance's `u64` grid whenever its requirement denominators
/// admit one, and its `u128` grid otherwise.
///
/// # Panics
///
/// Panics as [`brute_force_makespan`] does.
#[must_use]
pub fn brute_force_with_stats(instance: &Instance) -> (usize, SearchStats) {
    brute_force_with_stats_cancellable(instance, &CancelToken::never())
        // lint: allow(panic_hygiene) — a never-token cannot fire
        .expect("a never token cannot fire")
}

/// [`brute_force_with_stats`] with cooperative cancellation: the token is
/// checked per expansion and (through the shared gate) per DFS extension
/// inside the successor enumeration.
///
/// # Panics
///
/// Panics as [`brute_force_makespan`] does.
pub(crate) fn brute_force_with_stats_cancellable(
    instance: &Instance,
    token: &CancelToken,
) -> Result<(usize, SearchStats), CancelReason> {
    assert!(
        instance.is_unit_size(),
        "brute force solver requires unit-size jobs"
    );
    let narrow = ScaledInstance::try_new(instance);
    let (result, states, expansions) = on_grid!(
        auto_grid("BruteForce", instance, narrow.as_ref()),
        |scaled| { multi_engine::brute_force_cancellable(&MultiView::base_scaled(scaled), token) }
    )?;
    Ok((result, SearchStats { states, expansions }))
}

/// Convenience wrapper asserting that a claimed makespan is optimal; returns
/// the brute-force optimum so callers can report both.
#[must_use]
pub fn verify_optimal(instance: &Instance, claimed: usize) -> usize {
    let opt = brute_force_makespan(instance);
    assert_eq!(
        opt, claimed,
        "claimed optimal makespan {claimed} differs from brute-force optimum {opt}"
    );
    opt
}

/// Returns `true` when the instance is small enough for the brute-force
/// solver to be practical (a heuristic guard used by experiment drivers).
#[must_use]
pub fn is_tractable(instance: &Instance) -> bool {
    instance.total_jobs() <= 14 && instance.processors() <= 5
}

/// The trivial lower bound re-exported here so experiment code can report
/// `(lower bound, brute force, algorithm)` triples from one import.
#[must_use]
pub fn instance_lower_bound(instance: &Instance) -> usize {
    bounds::trivial_lower_bound(instance)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy_balance::GreedyBalance;
    use crate::opt_m::opt_m_makespan;
    use crate::opt_two::opt_two_makespan;
    use crate::round_robin::RoundRobin;
    use crate::traits::Scheduler;

    #[test]
    fn matches_opt_two_on_two_processor_instances() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]),
            Instance::unit_from_percentages(&[&[100, 1, 100], &[1, 100, 1]]),
            Instance::unit_from_percentages(&[&[55, 45, 35], &[65, 75, 85]]),
            Instance::unit_from_percentages(&[&[30, 30, 30], &[70, 70, 70]]),
        ];
        for inst in instances {
            assert_eq!(
                brute_force_makespan(&inst),
                opt_two_makespan(&inst),
                "{inst}"
            );
        }
    }

    #[test]
    fn matches_opt_m_on_three_processor_instances() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]),
            Instance::unit_from_percentages(&[&[100], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[50, 50, 50, 50], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[90, 5], &[80, 15], &[70, 25]]),
        ];
        for inst in instances {
            assert_eq!(brute_force_makespan(&inst), opt_m_makespan(&inst), "{inst}");
        }
    }

    #[test]
    fn optimum_is_between_lower_bound_and_heuristics() {
        let inst = Instance::unit_from_percentages(&[&[80, 20], &[70, 30], &[10, 90]]);
        let opt = brute_force_makespan(&inst);
        assert!(opt >= instance_lower_bound(&inst));
        assert!(opt <= GreedyBalance::new().makespan(&inst));
        assert!(opt <= RoundRobin::new().makespan(&inst));
    }

    #[test]
    fn verify_optimal_accepts_correct_claims() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50]]);
        assert_eq!(verify_optimal(&inst, 1), 1);
    }

    #[test]
    #[should_panic(expected = "differs from brute-force optimum")]
    fn verify_optimal_rejects_wrong_claims() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50]]);
        let _ = verify_optimal(&inst, 2);
    }

    #[test]
    fn tractability_guard() {
        assert!(is_tractable(&Instance::unit_from_percentages(&[
            &[50, 50],
            &[50, 50]
        ])));
        let big =
            Instance::unit_from_requirements(vec![vec![cr_core::Ratio::from_percent(10); 20]; 6]);
        assert!(!is_tractable(&big));
    }

    #[test]
    fn stats_are_populated() {
        let inst = Instance::unit_from_percentages(&[&[50, 20], &[30, 30], &[20, 50]]);
        let (opt, stats) = brute_force_with_stats(&inst);
        assert_eq!(opt, 2);
        assert!(stats.states > 0);
        assert!(stats.expansions > 0);
    }

    /// The `u128` grid's base view of `inst`.
    fn wide_view(inst: &Instance) -> MultiView<u128> {
        MultiView::base_scaled(&ScaledInstance::try_on_grid(inst).expect("grid fits u128"))
    }

    #[test]
    fn cancelled_wide_brute_force_stops_early() {
        let inst = Instance::unit_from_percentages(&[&[80, 20], &[70, 30], &[10, 90]]);
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            multi_engine::brute_force_cancellable(&wide_view(&inst), &token),
            Err(CancelReason::Cancelled)
        );
        assert_eq!(
            brute_force_with_stats_cancellable(&inst, &token),
            Err(CancelReason::Cancelled)
        );
        let live = CancelToken::new();
        assert_eq!(
            brute_force_with_stats_cancellable(&inst, &live).unwrap(),
            brute_force_with_stats(&inst)
        );
    }

    #[test]
    fn both_grid_widths_agree() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]),
            Instance::unit_from_percentages(&[&[80, 20], &[70, 30], &[10, 90]]),
            Instance::unit_from_percentages(&[&[0, 100], &[100, 0], &[50, 50]]),
            Instance::unit_from_percentages(&[&[50, 50, 50, 50], &[100], &[100]]),
        ];
        for inst in instances {
            let (makespan, stats) = brute_force_with_stats(&inst);
            assert_eq!(
                multi_engine::brute_force_cancellable(&wide_view(&inst), &CancelToken::never()),
                Ok((makespan, stats.states, stats.expansions)),
                "{inst}"
            );
        }
    }
}
