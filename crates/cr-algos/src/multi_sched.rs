//! The one implementation of the six polynomial heuristics: per-step share
//! rules run on a [`MultiStepper`], for every number `k ≥ 1` of resources
//! and on `u64` or `u128` units.
//!
//! Each runner drives the stepper — the exact per-resource step simulator
//! from `cr-core` — splitting **every resource pool independently** with
//! the rule's share rule, until all chains drain.  The binding resource
//! therefore sets the pace automatically: a processor advances its
//! frontier job only once every positive layer has absorbed its full
//! per-step demand.  On one resource the rules are the paper's RoundRobin
//! (§4.2), GreedyBalance (§8.3) and the four baselines of the `heuristics`
//! module: [`schedule`] runs them on the base layer with a share log and
//! returns the single-resource schedule (what [`Scheduler::schedule`]
//! returns), and [`run`] reports the makespan alone, which is all a `k ≥ 2`
//! request or the OptM bound certificate needs.
//!
//! Ordering rules (`GreedyBalance`, `Largest`/`Smallest`
//! `RequirementFirst`) rank processors by the **frontier job's remaining
//! requirement vector** compared lexicographically layer by layer; on one
//! resource that is the remaining workload the paper's rules rank by.
//!
//! Termination: in serve-in-order rules the first-ranked processor always
//! receives its full per-step demand on every layer (a single demand never
//! exceeds the layer capacity), and in the split rules the largest-remainder
//! tie-break hands the lowest-ranked active processor at least one unit per
//! layer, so some chain always drains and finished chains leave the active
//! set.
//!
//! [`Scheduler::schedule`]: crate::Scheduler::schedule

use cr_core::scaled::largest_remainder_split;
use cr_core::{GridUnit, Instance, MultiStepper, Schedule};

/// Which polynomial share rule a run applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolyKind {
    /// Equal split of every pool over the active processors.
    EqualShare,
    /// Grant demands outright when they fit, else split proportionally.
    ProportionalShare,
    /// Serve in order: unfinished jobs desc, remaining vector desc, index.
    GreedyBalance,
    /// Serve in order of lexicographically largest remaining vector.
    LargestRequirementFirst,
    /// Serve in order of lexicographically smallest remaining vector.
    SmallestRequirementFirst,
    /// Phase over job indices, serving same-phase processors in order.
    RoundRobin,
}

impl PolyKind {
    /// The six rules in the registry's line-up order
    /// (`solver::POLY_METHODS`), GreedyBalance first.
    pub(crate) const ALL: [PolyKind; 6] = [
        PolyKind::GreedyBalance,
        PolyKind::RoundRobin,
        PolyKind::EqualShare,
        PolyKind::ProportionalShare,
        PolyKind::LargestRequirementFirst,
        PolyKind::SmallestRequirementFirst,
    ];
}

/// The single-resource schedule of `kind` on the base layer of `instance`:
/// on its `u64` grid when that fits, else on its `u128` grid.
///
/// # Panics
///
/// Panics if the base layer's grid overflows `u128` too; the registry
/// answers `grid_overflow` there before any rule runs.
pub(crate) fn schedule(kind: PolyKind, instance: &Instance) -> Schedule {
    match MultiStepper::<u64>::try_new_base(instance) {
        Some(stepper) => logged(kind, stepper),
        None => logged(
            kind,
            MultiStepper::<u128>::try_new_base(instance).expect("the unit grid fits u128"),
        ),
    }
}

/// Runs `kind` on `stepper` with a share log and returns the schedule.
pub(crate) fn logged<U: GridUnit>(kind: PolyKind, stepper: MultiStepper<U>) -> Schedule {
    let mut stepper = stepper.log_shares();
    run(kind, &mut stepper);
    stepper.finish()
}

/// Runs `kind` on `stepper` until every chain drains and returns the
/// makespan.
pub(crate) fn run<U: GridUnit>(kind: PolyKind, stepper: &mut MultiStepper<U>) -> usize {
    let m = stepper.processors();
    let mut shares = vec![U::ZERO; m * stepper.resources()];
    let mut order = Vec::with_capacity(m);
    let mut phase = 0;
    // lint: allow(cancel_coverage) — bounded by the termination argument in the module docs
    while !stepper.all_done() {
        match kind {
            PolyKind::EqualShare => split(stepper, &mut shares, |s, i, _| {
                if s.is_active(i) {
                    U::ONE
                } else {
                    U::ZERO
                }
            }),
            PolyKind::ProportionalShare => proportional(stepper, &mut shares),
            PolyKind::GreedyBalance
            | PolyKind::LargestRequirementFirst
            | PolyKind::SmallestRequirementFirst => {
                priority_order(kind, stepper, &mut order);
                serve_in_order(stepper, &order, &mut shares);
            }
            PolyKind::RoundRobin => {
                // Phase `phase` serves the processors whose frontier job is
                // their `phase`-th; every earlier phase has drained.
                order.clear();
                order.extend(
                    (0..m).filter(|&i| stepper.active_job(i).is_some_and(|id| id.index == phase)),
                );
                if order.is_empty() {
                    phase += 1;
                    continue;
                }
                serve_in_order(stepper, &order, &mut shares);
            }
        }
        stepper.push_step(&shares);
    }
    stepper.current_step()
}

/// Splits every layer's pool by `weight(stepper, processor, layer)`
/// independently.
fn split<U: GridUnit>(
    stepper: &MultiStepper<U>,
    shares: &mut [U],
    weight: impl Fn(&MultiStepper<U>, usize, usize) -> U,
) {
    let k = stepper.resources();
    for r in 0..k {
        let weights: Vec<U> = (0..stepper.processors())
            .map(|i| weight(stepper, i, r))
            .collect();
        let layer = largest_remainder_split(stepper.capacity(r), &weights);
        set_layer(shares, k, r, layer);
    }
}

/// Per layer: grants the step demands when their sum fits the capacity,
/// otherwise splits the pool proportionally to the demands.
fn proportional<U: GridUnit>(stepper: &MultiStepper<U>, shares: &mut [U]) {
    let k = stepper.resources();
    for r in 0..k {
        let demands: Vec<U> = (0..stepper.processors())
            .map(|i| stepper.step_demand(i, r))
            .collect();
        let fits = demands
            .iter()
            .try_fold(U::ZERO, |total, &d| total.checked_add(d))
            .is_some_and(|total| total <= stepper.capacity(r));
        let layer = if fits {
            demands
        } else {
            largest_remainder_split(stepper.capacity(r), &demands)
        };
        set_layer(shares, k, r, layer);
    }
}

/// Writes one layer's per-processor shares into the processor-major
/// `shares`.
fn set_layer<U: GridUnit>(shares: &mut [U], k: usize, r: usize, layer: Vec<U>) {
    for (i, share) in layer.into_iter().enumerate() {
        shares[i * k + r] = share;
    }
}

/// The active processors in the serve order of `kind`, into `order`.
fn priority_order<U: GridUnit>(kind: PolyKind, stepper: &MultiStepper<U>, order: &mut Vec<usize>) {
    // The frontier job's remaining requirement vector, compared as an
    // iterator, so sorting allocates nothing per comparison.
    let remaining = |i: usize| (0..stepper.resources()).map(move |r| stepper.remaining(i, r));
    order.clear();
    order.extend((0..stepper.processors()).filter(|&i| stepper.is_active(i)));
    order.sort_by(|&a, &b| {
        let (ra, rb) = (remaining(a), remaining(b));
        match kind {
            PolyKind::GreedyBalance => stepper
                .unfinished_jobs(b)
                .cmp(&stepper.unfinished_jobs(a))
                .then_with(|| rb.cmp(ra)),
            PolyKind::SmallestRequirementFirst => ra.cmp(rb),
            _ => rb.cmp(ra),
        }
        .then_with(|| a.cmp(&b))
    });
}

/// Grants each processor in `order` `min(step demand, pool left)` on every
/// layer, and nothing to the others.  The first processor always receives
/// its full demand (a single demand never exceeds a layer's capacity),
/// which drives termination.
fn serve_in_order<U: GridUnit>(stepper: &MultiStepper<U>, order: &[usize], shares: &mut [U]) {
    let k = stepper.resources();
    shares.fill(U::ZERO);
    for r in 0..k {
        let mut pool = stepper.capacity(r);
        for &i in order {
            let grant = stepper.step_demand(i, r).min(pool);
            shares[i * k + r] = grant;
            pool = pool.sub(grant);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{ratio, InstanceBuilder, Ratio};

    /// `kind`'s makespan on every layer of `instance`, on the `u64` and
    /// the `u128` grid.
    fn makespans(kind: PolyKind, instance: &Instance) -> (usize, usize) {
        let narrow = run(kind, &mut MultiStepper::<u64>::try_new(instance).unwrap());
        let wide = run(kind, &mut MultiStepper::<u128>::try_new(instance).unwrap());
        (narrow, wide)
    }

    fn sample() -> Instance {
        InstanceBuilder::new()
            .processor([ratio(6, 10), ratio(4, 10)])
            .processor([ratio(3, 10), ratio(9, 10)])
            .processor([ratio(1, 2), ratio(1, 2)])
            .extra_layer([
                vec![ratio(1, 4), ratio(3, 4)],
                vec![ratio(7, 10), ratio(1, 10)],
                vec![ratio(1, 2), ratio(1, 2)],
            ])
            .build()
    }

    #[test]
    fn every_rule_drains_a_two_resource_instance() {
        let inst = sample();
        let total_jobs = 6;
        for kind in PolyKind::ALL {
            let (narrow, wide) = makespans(kind, &inst);
            // Any makespan is at least the binding workload bound and at
            // most one step per unit of work per job.
            for value in [narrow, wide] {
                assert!(value >= 2, "{kind:?} produced {value}");
                assert!(value <= 4 * total_jobs, "{kind:?} produced {value}");
            }
        }
    }

    #[test]
    fn binding_second_resource_slows_the_heuristics_down() {
        // Layer 1 workload is 3 → every rule needs at least 3 steps even
        // though layer 0 is nearly free.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 100)])
            .processor([ratio(1, 100)])
            .processor([ratio(1, 100)])
            .extra_layer([vec![Ratio::ONE], vec![Ratio::ONE], vec![Ratio::ONE]])
            .build();
        for kind in PolyKind::ALL {
            let (narrow, wide) = makespans(kind, &inst);
            assert!(narrow >= 3 && wide >= 3, "{kind:?}");
        }
    }

    #[test]
    fn every_rule_agrees_across_widths() {
        // Both widths split on the same grid with the same rounding, so
        // every rule steps alike, schedules included.
        let inst = sample();
        for kind in PolyKind::ALL {
            let (narrow, wide) = makespans(kind, &inst);
            assert_eq!(narrow, wide, "{kind:?} diverged across widths");
            assert_eq!(
                logged(kind, MultiStepper::<u64>::try_new_base(&inst).unwrap()),
                logged(kind, MultiStepper::<u128>::try_new_base(&inst).unwrap()),
                "{kind:?}"
            );
        }
    }

    #[test]
    fn empty_instance_takes_zero_steps() {
        let inst = InstanceBuilder::new().empty_processor().build();
        for kind in PolyKind::ALL {
            assert_eq!(makespans(kind, &inst), (0, 0));
            assert_eq!(schedule(kind, &inst).num_steps(), 0);
        }
    }
}
