//! The GreedyBalance algorithm (Section 8.3 of the paper).
//!
//! In every time step GreedyBalance serves the active jobs in order of
//! *decreasing number of remaining jobs* on their processor, breaking ties in
//! favour of the *larger remaining resource requirement*, and gives each job
//! in this order as much of the remaining resource as it can still use.
//!
//! The resulting schedules are non-wasting, progressive and **balanced**
//! (Definition 5), and therefore achieve the worst-case approximation ratio
//! of exactly `2 − 1/m` proven in Theorems 7 and 8.

use crate::multi_sched::{self, PolyKind};
use crate::traits::Scheduler;
use cr_core::{Instance, Ratio, Schedule, ScheduleBuilder};

/// The `(2 − 1/m)`-approximation algorithm of the paper.
///
/// [`Scheduler::schedule`] runs the rule on the integer unit grid (a
/// [`cr_core::MultiStepper`] over `u64`, or `u128` past it);
/// [`GreedyBalance::schedule_rational`] is the exact-[`Ratio`] test
/// reference (identical output, no production caller).
///
/// # Examples
///
/// ```
/// use cr_algos::{GreedyBalance, Scheduler};
/// use cr_core::Instance;
///
/// let inst = Instance::unit_from_percentages(&[&[50, 50], &[100]]);
/// let makespan = GreedyBalance::new().makespan(&inst);
/// assert_eq!(makespan, 2);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBalance;

impl GreedyBalance {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        GreedyBalance
    }

    /// Computes the priority order of active processors for the next step of
    /// `builder`: more remaining jobs first, larger remaining requirement of
    /// the active job second, processor index last (for determinism).
    fn priority_order(builder: &ScheduleBuilder<'_>) -> Vec<usize> {
        let mut order: Vec<usize> = (0..builder.processors())
            .filter(|&i| builder.is_active(i))
            .collect();
        order.sort_by(|&a, &b| {
            builder
                .unfinished_jobs(b)
                .cmp(&builder.unfinished_jobs(a))
                .then_with(|| {
                    builder
                        .remaining_workload(b)
                        .cmp(&builder.remaining_workload(a))
                })
                .then_with(|| a.cmp(&b))
        });
        order
    }

    /// The exact-rational reference of [`Scheduler::schedule`] (identical
    /// output, no production caller).
    #[must_use]
    pub fn schedule_rational(&self, instance: &Instance) -> Schedule {
        let m = instance.processors();
        let mut builder = ScheduleBuilder::new(instance);
        while !builder.all_done() {
            let order = Self::priority_order(&builder);
            let mut shares = vec![Ratio::ZERO; m];
            let mut left = Ratio::ONE;
            for i in order {
                if left.is_zero() {
                    break;
                }
                let give = builder.step_demand(i).min(left);
                shares[i] = give;
                left -= give;
            }
            builder.push_step(shares);
        }
        builder.finish()
    }
}

impl Scheduler for GreedyBalance {
    fn name(&self) -> &'static str {
        "GreedyBalance"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::GreedyBalance, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::properties::{is_balanced, is_non_wasting, is_progressive};
    use cr_core::{bounds, InstanceBuilder, Ratio, SchedulingGraph};

    #[test]
    fn fig1_instance_takes_six_steps() {
        let inst = Instance::unit_from_percentages(&[
            &[20, 10, 10, 10],
            &[50, 55, 90, 55, 10],
            &[50, 40, 95],
        ]);
        // GreedyBalance prioritizes processor 1 (5 jobs), then 0/2 (4 and 3).
        let schedule = GreedyBalance::new().schedule(&inst);
        let trace = schedule.trace(&inst).unwrap();
        assert!(is_non_wasting(&trace));
        assert!(is_progressive(&trace));
        assert!(is_balanced(&trace));
        // Lower bound: ⌈4.95⌉ = 5 and n = 5; greedy needs at most 2·5 − ... steps.
        assert!(trace.makespan() >= 5);
        assert!(trace.makespan() <= 7);
    }

    #[test]
    fn produces_balanced_schedules_on_uneven_chains() {
        let inst = InstanceBuilder::new()
            .processor([Ratio::from_percent(90); 1])
            .processor([Ratio::from_percent(40); 6])
            .processor([Ratio::from_percent(70); 3])
            .build();
        let schedule = GreedyBalance::new().schedule(&inst);
        let trace = schedule.trace(&inst).unwrap();
        assert!(
            is_balanced(&trace),
            "GreedyBalance must produce balanced schedules"
        );
        assert!(is_non_wasting(&trace));
        assert!(is_progressive(&trace));
    }

    #[test]
    fn respects_paper_approximation_guarantee_via_lower_bounds() {
        let inst = Instance::unit_from_percentages(&[
            &[80, 20, 60, 40],
            &[70, 30, 50, 50],
            &[10, 90, 25, 75],
        ]);
        let schedule = GreedyBalance::new().schedule(&inst);
        let trace = schedule.trace(&inst).unwrap();
        let graph = SchedulingGraph::build(&inst, &trace);
        let lower = bounds::best_lower_bound(&inst, &graph);
        let m = inst.processors() as f64;
        let ratio = trace.makespan() as f64 / lower as f64;
        assert!(
            ratio <= 2.0 - 1.0 / m + 1e-9,
            "approximation ratio {ratio} exceeds 2 - 1/m"
        );
    }

    #[test]
    fn single_processor_is_optimal() {
        let inst = Instance::unit_from_percentages(&[&[100, 100, 50, 50]]);
        // One processor: every job needs its own step regardless of requirement.
        assert_eq!(GreedyBalance::new().makespan(&inst), 4);
    }

    #[test]
    fn empty_processors_are_ignored() {
        let inst = InstanceBuilder::new()
            .processor([Ratio::from_percent(50), Ratio::from_percent(50)])
            .empty_processor()
            .build();
        assert_eq!(GreedyBalance::new().makespan(&inst), 2);
    }

    #[test]
    fn ties_prefer_larger_remaining_requirement() {
        // Both processors have one job; the larger requirement is served first,
        // so the smaller one is the partially processed leftover.
        let inst = Instance::unit_from_percentages(&[&[60], &[80]]);
        let schedule = GreedyBalance::new().schedule(&inst);
        assert_eq!(schedule.share(0, 1), Ratio::from_percent(80));
        assert_eq!(schedule.share(0, 0), Ratio::from_percent(20));
        assert_eq!(schedule.makespan(&inst).unwrap(), 2);
    }
}
