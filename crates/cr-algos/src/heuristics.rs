//! Baseline heuristics.
//!
//! The discrete-continuous scheduling literature surveyed in Section 2 of the
//! paper mostly relies on heuristics without worst-case guarantees.  The
//! heuristics in this module play that role in the experiment harness: they
//! are natural resource-arbitration policies a practitioner might deploy on a
//! shared-bus many-core, and the benchmarks compare them against the paper's
//! algorithms.
//!
//! * [`EqualShare`] — split the resource uniformly among active processors,
//!   ignoring requirements entirely (wastes whatever a job cannot absorb).
//! * [`ProportionalShare`] — split the resource proportionally to the active
//!   jobs' current step demands.
//! * [`LargestRequirementFirst`] — serve active jobs in order of decreasing
//!   remaining requirement (a "clear the big rocks first" greedy).
//! * [`SmallestRequirementFirst`] — serve active jobs in order of increasing
//!   remaining requirement (maximizes the number of jobs finished per step;
//!   this is the schedule depicted in Figure 1 of the paper).
//!
//! # Exact splits on the unit grid
//!
//! The heuristics run on the one implementation of every polynomial rule
//! (the internal `multi_sched` module): the resource is a pool of `D`
//! integer units (`D` = the instance's requirement/workload denominator
//! LCM, in `u64` or, past it, `u128` units), and uniform /
//! demand-proportional splits are computed exactly with deterministic
//! largest-remainder rounding
//! ([`cr_core::scaled::largest_remainder_split`]).  Shares therefore always
//! sum to exactly one pool — no sliver is wasted, and a positive demand is
//! only ever given zero units when the whole pool went to other positive
//! demands.  (The previous implementation floored every share onto a fixed
//! `1/100 000` grid, which could quantize a small positive `demand/total` to
//! a *zero* share and starve a core indefinitely.)  Each heuristic keeps a
//! `schedule_rational` reference computing the identical split in exact
//! [`Ratio`] arithmetic on the [`ScheduleBuilder`], which shares no code with
//! the stepper; it has no production caller, and the
//! `proptest_scaled_sched` suite cross-checks the two.

use crate::multi_sched::{self, PolyKind};
use crate::traits::Scheduler;
use cr_core::scaled::largest_remainder_split_ratio;
use cr_core::{Instance, MultiStepper, Ratio, Schedule, ScheduleBuilder};

/// The scheduling layer's unit grid of `instance` as an `i128`: the
/// capacity of its base-layer stepper, if representable.
fn unit_grid(instance: &Instance) -> Option<i128> {
    MultiStepper::<u128>::try_new_base(instance).and_then(|s| i128::try_from(s.capacity(0)).ok())
}

/// Splits the full unit pool proportionally to `weights` in exact rational
/// arithmetic: largest-remainder rounding on the instance grid when one is
/// representable, the exact (unquantized) proportional split otherwise.
/// Callers guarantee at least one positive weight.
fn split_unit_pool(grid: Option<i128>, weights: &[Ratio]) -> Vec<Ratio> {
    match grid {
        Some(grid) => largest_remainder_split_ratio(grid, weights),
        None => {
            let total: Ratio = weights.iter().sum();
            weights.iter().map(|&w| w / total).collect()
        }
    }
}

/// Splits the resource uniformly among all active processors.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualShare;

impl EqualShare {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Self {
        EqualShare
    }

    /// The exact-rational reference of [`EqualShare::schedule`] (identical
    /// output, no production caller; see the module docs).
    #[must_use]
    pub fn schedule_rational(&self, instance: &Instance) -> Schedule {
        let grid = unit_grid(instance);
        let m = instance.processors();
        let mut builder = ScheduleBuilder::new(instance);
        while !builder.all_done() {
            let weights: Vec<Ratio> = (0..m)
                .map(|i| {
                    if builder.is_active(i) {
                        Ratio::ONE
                    } else {
                        Ratio::ZERO
                    }
                })
                .collect();
            // The uniform share is handed out regardless of the jobs'
            // demands; anything a job cannot absorb is wasted.
            builder.push_step(split_unit_pool(grid, &weights));
        }
        builder.finish()
    }
}

impl Scheduler for EqualShare {
    fn name(&self) -> &'static str {
        "EqualShare"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::EqualShare, instance)
    }
}

/// Splits the resource proportionally to the active jobs' step demands.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProportionalShare;

impl ProportionalShare {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Self {
        ProportionalShare
    }

    /// The exact-rational reference of [`ProportionalShare::schedule`]
    /// (identical output, no production caller; see the module docs).
    #[must_use]
    pub fn schedule_rational(&self, instance: &Instance) -> Schedule {
        let grid = unit_grid(instance);
        let m = instance.processors();
        let mut builder = ScheduleBuilder::new(instance);
        while !builder.all_done() {
            let demands: Vec<Ratio> = (0..m).map(|i| builder.step_demand(i)).collect();
            let total: Ratio = demands.iter().sum();
            let shares = if total <= Ratio::ONE {
                // Everything fits: give every job exactly what it needs.
                demands
            } else {
                split_unit_pool(grid, &demands)
            };
            builder.push_step(shares);
        }
        builder.finish()
    }
}

impl Scheduler for ProportionalShare {
    fn name(&self) -> &'static str {
        "ProportionalShare"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::ProportionalShare, instance)
    }
}

/// Serves active jobs in order of decreasing remaining requirement.
#[derive(Debug, Clone, Copy, Default)]
pub struct LargestRequirementFirst;

impl LargestRequirementFirst {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Self {
        LargestRequirementFirst
    }

    /// The exact-rational reference of
    /// [`LargestRequirementFirst::schedule`] (identical output, no
    /// production caller).
    #[must_use]
    pub fn schedule_rational(&self, instance: &Instance) -> Schedule {
        serve_in_order_rational(instance, true)
    }
}

/// Serves active jobs in order of increasing remaining requirement,
/// greedily maximizing the number of jobs finished per step (the schedule of
/// Figure 1 in the paper).
#[derive(Debug, Clone, Copy, Default)]
pub struct SmallestRequirementFirst;

impl SmallestRequirementFirst {
    /// Creates the heuristic.
    #[must_use]
    pub fn new() -> Self {
        SmallestRequirementFirst
    }

    /// The exact-rational reference of
    /// [`SmallestRequirementFirst::schedule`] (identical output, no
    /// production caller).
    #[must_use]
    pub fn schedule_rational(&self, instance: &Instance) -> Schedule {
        serve_in_order_rational(instance, false)
    }
}

fn serve_in_order_rational(instance: &Instance, order_desc: bool) -> Schedule {
    let m = instance.processors();
    let mut builder = ScheduleBuilder::new(instance);
    while !builder.all_done() {
        let mut order: Vec<usize> = (0..m).filter(|&i| builder.is_active(i)).collect();
        order.sort_by(|&a, &b| {
            let cmp = builder
                .remaining_workload(a)
                .cmp(&builder.remaining_workload(b));
            let cmp = if order_desc { cmp.reverse() } else { cmp };
            cmp.then_with(|| a.cmp(&b))
        });
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

impl Scheduler for LargestRequirementFirst {
    fn name(&self) -> &'static str {
        "LargestRequirementFirst"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::LargestRequirementFirst, instance)
    }
}

impl Scheduler for SmallestRequirementFirst {
    fn name(&self) -> &'static str {
        "SmallestRequirementFirst"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::SmallestRequirementFirst, instance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::bounds;
    use cr_core::properties::{is_non_wasting, is_progressive};
    use cr_core::{ratio, InstanceBuilder};

    fn sample_instances() -> Vec<Instance> {
        vec![
            Instance::unit_from_percentages(&[
                &[20, 10, 10, 10],
                &[50, 55, 90, 55, 10],
                &[50, 40, 95],
            ]),
            Instance::unit_from_percentages(&[&[100], &[100], &[100]]),
            Instance::unit_from_percentages(&[&[25, 75], &[75, 25], &[50, 50]]),
            Instance::unit_from_percentages(&[&[0, 50], &[100, 0]]),
        ]
    }

    #[test]
    fn all_heuristics_produce_feasible_schedules() {
        let heuristics: Vec<Box<dyn Scheduler>> = vec![
            Box::new(EqualShare::new()),
            Box::new(ProportionalShare::new()),
            Box::new(LargestRequirementFirst::new()),
            Box::new(SmallestRequirementFirst::new()),
        ];
        for inst in sample_instances() {
            for h in &heuristics {
                let schedule = h.schedule(&inst);
                let trace = schedule.trace(&inst).unwrap();
                assert!(
                    trace.makespan() >= bounds::trivial_lower_bound(&inst).min(trace.makespan()),
                    "{} produced impossible makespan",
                    h.name()
                );
            }
        }
    }

    #[test]
    fn scaled_and_rational_paths_agree_on_samples() {
        for inst in sample_instances() {
            assert_eq!(
                EqualShare::new().schedule(&inst),
                EqualShare::new().schedule_rational(&inst)
            );
            assert_eq!(
                ProportionalShare::new().schedule(&inst),
                ProportionalShare::new().schedule_rational(&inst)
            );
            assert_eq!(
                LargestRequirementFirst::new().schedule(&inst),
                LargestRequirementFirst::new().schedule_rational(&inst)
            );
            assert_eq!(
                SmallestRequirementFirst::new().schedule(&inst),
                SmallestRequirementFirst::new().schedule_rational(&inst)
            );
        }
    }

    #[test]
    fn priority_heuristics_are_non_wasting_and_progressive() {
        for inst in sample_instances() {
            for h in [
                Box::new(LargestRequirementFirst::new()) as Box<dyn Scheduler>,
                Box::new(SmallestRequirementFirst::new()),
            ] {
                let trace = h.schedule(&inst).trace(&inst).unwrap();
                assert!(is_non_wasting(&trace), "{}", h.name());
                assert!(is_progressive(&trace), "{}", h.name());
            }
        }
    }

    #[test]
    fn smallest_first_reproduces_figure1_makespan() {
        let inst = Instance::unit_from_percentages(&[
            &[20, 10, 10, 10],
            &[50, 55, 90, 55, 10],
            &[50, 40, 95],
        ]);
        assert_eq!(SmallestRequirementFirst::new().makespan(&inst), 6);
    }

    #[test]
    fn equal_share_can_be_wasteful_but_is_feasible() {
        // Two processors, requirements 100% and 10%: the uniform split gives
        // each 50%, wasting 40% on the small job.
        let inst = Instance::unit_from_percentages(&[&[100], &[10]]);
        let schedule = EqualShare::new().schedule(&inst);
        assert_eq!(schedule.share(0, 0), Ratio::new(1, 2));
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.makespan(), 2);
        // GreedyBalance-style serving would have finished in 2 steps as well,
        // but EqualShare needs 2 steps even though total workload is 1.1.
        assert!(!is_non_wasting(&trace) || trace.makespan() == 2);
    }

    #[test]
    fn equal_share_hands_out_the_whole_pool() {
        // Three actives on an odd grid: 7/20 + 7/20 + 6/20 = 1 — the old
        // SHARE_GRID floor would have left a sliver of the resource unused.
        let inst = Instance::unit_from_percentages(&[&[20], &[55], &[95]]);
        let schedule = EqualShare::new().schedule(&inst);
        assert_eq!(schedule.share(0, 0), ratio(7, 20));
        assert_eq!(schedule.share(0, 1), ratio(7, 20));
        assert_eq!(schedule.share(0, 2), ratio(6, 20));
        assert_eq!(schedule.assigned_total(0), Ratio::ONE);
    }

    #[test]
    fn proportional_share_finishes_exact_fits_in_one_step() {
        let inst = Instance::unit_from_percentages(&[&[40], &[60]]);
        assert_eq!(ProportionalShare::new().makespan(&inst), 1);
    }

    #[test]
    fn proportional_share_scales_down_when_oversubscribed() {
        let inst = Instance::unit_from_percentages(&[&[80], &[80]]);
        let schedule = ProportionalShare::new().schedule(&inst);
        // The exact largest-remainder split of the 5-unit pool between equal
        // demands of 4 units is 3 + 2 (the extra unit goes to the lower
        // index); both jobs need 80% → finish in step 1 (second).
        assert_eq!(schedule.makespan(&inst).unwrap(), 2);
        assert_eq!(schedule.share(0, 0), ratio(3, 5));
        assert_eq!(schedule.share(0, 1), ratio(2, 5));
        assert_eq!(schedule.assigned_total(0), Ratio::ONE);
    }

    #[test]
    fn proportional_share_does_not_starve_tiny_demands() {
        // Regression test for the SHARE_GRID quantization bug: one huge
        // demand next to several tiny ones.  The old fixed `1/100 000` floor
        // quantized `tiny/total` to a *zero* share, starving the tiny cores
        // (and, with no step limit in the offline loop, risking a livelock).
        // The exact largest-remainder split gives every tiny demand its unit
        // as long as the pool allows: here the tiny jobs finish in the very
        // first step.
        let tiny = ratio(1, 1_000_000);
        let inst = InstanceBuilder::new()
            .processor([Ratio::ONE, Ratio::ONE, Ratio::ONE])
            .processor([tiny])
            .processor([tiny])
            .processor([tiny])
            .processor([tiny])
            .build();
        let schedule = ProportionalShare::new().schedule(&inst);
        let trace = schedule.trace(&inst).unwrap();
        for p in 1..=4 {
            assert_eq!(
                trace.completion_step(cr_core::JobId::new(p, 0)),
                Some(0),
                "tiny demand on processor {p} was starved"
            );
        }
        // While oversubscribed the whole pool is handed out, so the huge
        // chain finishes within its workload bound: 3 full jobs plus the
        // sliver lost to the tiny cores in step 0 → 4 steps total.
        assert_eq!(trace.makespan(), 4);
        assert_eq!(schedule.assigned_total(0), Ratio::ONE);
        // And the same run through the rational reference is identical.
        assert_eq!(schedule, ProportionalShare::new().schedule_rational(&inst));
    }
}
