//! Multi-resource (`k ≥ 2`) runners for the six polynomial heuristics, and
//! the makespan-only GreedyBalance run behind `OptM`'s `k = 1` bound
//! certificate.
//!
//! Each runner drives a [`MultiStepper`] — the exact per-resource step
//! simulator from `cr-core` — splitting **every resource pool
//! independently** with the same share rule the scalar heuristic applies to
//! the single resource, and reports the makespan when all chains drain.
//! The binding resource therefore sets the pace automatically: a processor
//! advances its frontier job only once every positive layer has absorbed
//! its full per-step demand.
//!
//! The `k = 1` heuristic requests never route through this module (the
//! scalar implementations remain the production fast path).  The one
//! `k = 1` caller is the certificate in `solver`: it needs only
//! GreedyBalance's makespan, and [`multi_makespan_scaled`] produces it
//! without building a `Schedule`.  On one resource a vector compares as its
//! one entry, so that makespan equals the scalar GreedyBalance schedule's
//! (a property test in `solver` checks this).  Two deliberate deviations
//! from the scalar code paths:
//!
//! * ordering heuristics (`GreedyBalance`, `Largest`/`Smallest`
//!   `RequirementFirst`) rank processors by the **frontier job's remaining
//!   requirement vector** compared lexicographically layer by layer, the
//!   multi-resource stand-in for the scalar "remaining workload" key;
//! * the scaled (`u64`) and rational engines split pools differently —
//!   largest-remainder rounding on the per-resource grid versus exact
//!   division — so their makespans may legitimately differ for
//!   `EqualShare` / `ProportionalShare`, exactly as a finer grid would.
//!
//! Termination mirrors the scalar arguments: in serve-in-order rules the
//! first-ranked processor always receives its full per-step demand on every
//! layer (a single demand never exceeds the layer capacity), and in the
//! split rules the largest-remainder tie-break hands the lowest-ranked
//! active processor at least one unit per layer, so some chain always
//! drains and finished chains leave the active set.

use cr_core::scaled::largest_remainder_split;
use cr_core::{Instance, MultiStepper, Ratio, StepUnit};

/// Which polynomial share rule a multi-resource run applies.
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

/// A [`StepUnit`] that can additionally split one resource pool over
/// weighted claimants: `u64` via largest-remainder rounding on the grid,
/// [`Ratio`] via exact division.
pub(crate) trait SplitUnit: StepUnit {
    /// Splits `cap` over `weights`; all-zero weights yield all-zero shares.
    fn split_pool(cap: Self, weights: &[Self]) -> Vec<Self>;
}

impl SplitUnit for u64 {
    fn split_pool(cap: Self, weights: &[Self]) -> Vec<Self> {
        largest_remainder_split(cap, weights)
    }
}

impl SplitUnit for Ratio {
    fn split_pool(cap: Self, weights: &[Self]) -> Vec<Self> {
        let total: Ratio = weights.iter().copied().sum();
        if total == Ratio::ZERO {
            return vec![Ratio::ZERO; weights.len()];
        }
        weights.iter().map(|&w| cap * w / total).collect()
    }
}

/// Runs `kind` on the scaled per-resource grids; `None` when a layer's
/// grid overflows `u64`.
pub(crate) fn multi_makespan_scaled(kind: PolyKind, instance: &Instance) -> Option<usize> {
    let mut stepper = MultiStepper::<u64>::try_new_scaled(instance)?;
    Some(run(kind, &mut stepper))
}

/// Runs `kind` with exact rational arithmetic (never overflows).
pub(crate) fn multi_makespan_rational(kind: PolyKind, instance: &Instance) -> usize {
    let mut stepper = MultiStepper::<Ratio>::new_rational(instance);
    run(kind, &mut stepper)
}

fn run<V: SplitUnit>(kind: PolyKind, stepper: &mut MultiStepper<V>) -> usize {
    match kind {
        PolyKind::EqualShare => run_split(stepper, |s, i, r| {
            // Equal positive weight per active processor; the layer's own
            // capacity is the one positive `V` always at hand.
            if s.is_active(i) {
                s.capacity(r)
            } else {
                V::ZERO
            }
        }),
        PolyKind::ProportionalShare => run_proportional(stepper),
        PolyKind::GreedyBalance
        | PolyKind::LargestRequirementFirst
        | PolyKind::SmallestRequirementFirst => run_serve_order(kind, stepper),
        PolyKind::RoundRobin => run_round_robin(stepper),
    }
}

/// Transposes resource-major rows (`k × m`) into the processor-major
/// shares (`m × k`) that [`MultiStepper::push_step`] consumes.
fn transpose<V: StepUnit>(rows: Vec<Vec<V>>, m: usize) -> Vec<Vec<V>> {
    let mut shares = vec![Vec::with_capacity(rows.len()); m];
    for row in rows {
        for (share, slot) in row.into_iter().zip(shares.iter_mut()) {
            slot.push(share);
        }
    }
    shares
}

/// Splits every layer's pool by `weight(stepper, processor, layer)`
/// independently until all chains drain.
fn run_split<V: SplitUnit>(
    stepper: &mut MultiStepper<V>,
    weight: impl Fn(&MultiStepper<V>, usize, usize) -> V,
) -> usize {
    let m = stepper.processors();
    let k = stepper.resources();
    // lint: allow(cancel_coverage) — bounded by the termination argument in the module docs
    while !stepper.all_done() {
        let rows: Vec<Vec<V>> = (0..k)
            .map(|r| {
                let weights: Vec<V> = (0..m).map(|i| weight(stepper, i, r)).collect();
                V::split_pool(stepper.capacity(r), &weights)
            })
            .collect();
        stepper.push_step(&transpose(rows, m));
    }
    stepper.current_step()
}

/// Per layer: grant the raw demands when their sum fits the capacity,
/// otherwise split the pool proportionally to the demands.
fn run_proportional<V: SplitUnit>(stepper: &mut MultiStepper<V>) -> usize {
    let m = stepper.processors();
    let k = stepper.resources();
    // lint: allow(cancel_coverage) — bounded by the termination argument in the module docs
    while !stepper.all_done() {
        let rows: Vec<Vec<V>> = (0..k)
            .map(|r| {
                let demands: Vec<V> = (0..m).map(|i| stepper.step_demand(i, r)).collect();
                let total = demands.iter().try_fold(V::ZERO, |t, &d| t.checked_add(d));
                match total {
                    Some(t) if t <= stepper.capacity(r) => demands,
                    _ => V::split_pool(stepper.capacity(r), &demands),
                }
            })
            .collect();
        stepper.push_step(&transpose(rows, m));
    }
    stepper.current_step()
}

/// The remaining requirement vector of `processor`'s frontier job, the
/// lexicographic ordering key of the serve-in-order rules (compared as an
/// iterator, so sorting allocates nothing per comparison).
fn remaining_vector<V: SplitUnit>(
    stepper: &MultiStepper<V>,
    processor: usize,
) -> impl Iterator<Item = V> + '_ {
    (0..stepper.resources()).map(move |r| stepper.remaining(processor, r))
}

/// Serves processors in the rule's priority order, granting each its full
/// per-layer demand while the layer's pool lasts.
fn run_serve_order<V: SplitUnit>(kind: PolyKind, stepper: &mut MultiStepper<V>) -> usize {
    let m = stepper.processors();
    // lint: allow(cancel_coverage) — bounded by the termination argument in the module docs
    while !stepper.all_done() {
        let mut order: Vec<usize> = (0..m).filter(|&i| stepper.is_active(i)).collect();
        order.sort_by(|&a, &b| {
            let (ra, rb) = (remaining_vector(stepper, a), remaining_vector(stepper, b));
            match kind {
                PolyKind::GreedyBalance => stepper
                    .unfinished_jobs(b)
                    .cmp(&stepper.unfinished_jobs(a))
                    .then_with(|| rb.cmp(ra))
                    .then_with(|| a.cmp(&b)),
                PolyKind::SmallestRequirementFirst => ra.cmp(rb).then_with(|| a.cmp(&b)),
                _ => rb.cmp(ra).then_with(|| a.cmp(&b)),
            }
        });
        let shares = serve_in_order(stepper, &order);
        stepper.push_step(&shares);
    }
    stepper.current_step()
}

/// RoundRobin: one phase per job index; within a phase, every processor
/// whose frontier job sits at that index is served in processor order
/// until the phase drains.
fn run_round_robin<V: SplitUnit>(stepper: &mut MultiStepper<V>) -> usize {
    let m = stepper.processors();
    let phases = (0..m)
        .map(|i| stepper.unfinished_jobs(i))
        .max()
        .unwrap_or(0);
    // lint: allow(cancel_coverage) — bounded: one pass over the chain's job indices
    for phase in 0..phases {
        // lint: allow(cancel_coverage) — bounded by the termination argument in the module docs
        loop {
            let participants: Vec<usize> = (0..m)
                .filter(|&i| {
                    stepper
                        .active_job(i)
                        .map(|id| id.index == phase)
                        .unwrap_or(false)
                })
                .collect();
            if participants.is_empty() {
                break;
            }
            let shares = serve_in_order(stepper, &participants);
            stepper.push_step(&shares);
        }
    }
    stepper.current_step()
}

/// Grants each processor in `order` `min(step demand, pool left)` on every
/// layer.  The first processor always receives its full demand (a single
/// demand never exceeds a layer's capacity), which drives termination.
fn serve_in_order<V: SplitUnit>(stepper: &MultiStepper<V>, order: &[usize]) -> Vec<Vec<V>> {
    let m = stepper.processors();
    let k = stepper.resources();
    let mut left: Vec<V> = (0..k).map(|r| stepper.capacity(r)).collect();
    let mut shares = vec![vec![V::ZERO; k]; m];
    for &i in order {
        for (r, (slot, pool)) in shares[i].iter_mut().zip(left.iter_mut()).enumerate() {
            let demand = stepper.step_demand(i, r);
            let grant = if demand <= *pool { demand } else { *pool };
            *slot = grant;
            *pool = pool.sub(grant);
        }
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{ratio, InstanceBuilder};

    const ALL: [PolyKind; 6] = [
        PolyKind::EqualShare,
        PolyKind::ProportionalShare,
        PolyKind::GreedyBalance,
        PolyKind::LargestRequirementFirst,
        PolyKind::SmallestRequirementFirst,
        PolyKind::RoundRobin,
    ];

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
        for kind in ALL {
            let scaled = multi_makespan_scaled(kind, &inst).expect("grid fits");
            let rational = multi_makespan_rational(kind, &inst);
            // Any makespan is at least the binding workload bound and at
            // most one step per unit of work per job.
            for value in [scaled, rational] {
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
        for kind in ALL {
            assert!(multi_makespan_scaled(kind, &inst).expect("grid fits") >= 3);
            assert!(multi_makespan_rational(kind, &inst) >= 3);
        }
    }

    #[test]
    fn serve_order_rules_agree_across_engines() {
        // Serve-in-order rules make no rounding decisions, so scaled and
        // rational must agree exactly.
        let inst = sample();
        for kind in [
            PolyKind::GreedyBalance,
            PolyKind::LargestRequirementFirst,
            PolyKind::SmallestRequirementFirst,
            PolyKind::RoundRobin,
        ] {
            assert_eq!(
                multi_makespan_scaled(kind, &inst).expect("grid fits"),
                multi_makespan_rational(kind, &inst),
                "{kind:?} diverged across engines"
            );
        }
    }

    #[test]
    fn empty_instance_takes_zero_steps() {
        let inst = InstanceBuilder::new().empty_processor().build();
        for kind in ALL {
            assert_eq!(multi_makespan_scaled(kind, &inst), Some(0));
            assert_eq!(multi_makespan_rational(kind, &inst), 0);
        }
    }
}
