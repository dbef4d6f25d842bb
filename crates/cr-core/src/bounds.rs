//! Lower bounds on the optimal makespan.
//!
//! * Observation 1: `OPT ≥ Σ_ij r_ij · p_ij` (total workload in the
//!   alternative model interpretation, processed at aggregated speed ≤ 1).
//! * Chain bound: `OPT ≥ n = maxᵢ nᵢ`, because a processor finishes at most
//!   one job per step.
//! * Lemma 5: for the scheduling graph of any *non-wasting* schedule,
//!   `OPT ≥ Σ_k (#_k − 1)`.
//! * Lemma 6: for the scheduling graph of a *balanced* schedule,
//!   `OPT ≥ n ≥ Σ_{k<N} |C_k| / q_k + |C_N| / m`.

use crate::hypergraph::SchedulingGraph;
use crate::instance::Instance;
use crate::rational::Ratio;
use crate::scaled::{lcm, units_of, GridUnit};

/// Observation 1: the total workload `Σ r_ij · p_ij` on the **base**
/// resource, returned exactly.  For multi-resource instances see
/// [`workload_bound_on`] — every resource yields its own Observation 1
/// bound, and [`workload_bound_steps`] takes the strongest.
#[must_use]
pub fn workload_bound(instance: &Instance) -> Ratio {
    instance.total_workload()
}

/// Observation 1 on one resource: the total workload `Σ r^resource_ij ·
/// p_ij`, returned exactly.  Each shared resource is handed out at
/// aggregated speed ≤ 1 per step, so each layer's workload is a valid lower
/// bound on its own.
#[must_use]
pub fn workload_bound_on(instance: &Instance, resource: usize) -> Ratio {
    instance.total_workload_on(resource)
}

/// Converts a non-negative `i128` step count to `usize`, saturating at
/// `usize::MAX`.
///
/// Saturating (rather than collapsing to `0`, as this module did before
/// ISSUE 4) matters because these are *lower* bounds: an instance whose
/// exact bound overflows `usize` needs an astronomically large number of
/// steps, and reporting `0` instead turned the strongest bounds into
/// vacuous ones — normalized-makespan ratios computed against them silently
/// lost their denominator.
fn saturating_steps(b: i128) -> usize {
    usize::try_from(b.max(0)).unwrap_or(usize::MAX)
}

/// Observation 1 rounded up to an integral number of time steps (saturating
/// at `usize::MAX` when the exact bound overflows), taken as the **maximum
/// over all shared resources** — the binding resource gives the strongest
/// workload bound.  Single-resource instances reduce to the scalar
/// Observation 1 exactly as before.
///
/// Each layer sums its workloads as integer units on the LCM grid `D` of
/// their denominators, `u64` when it fits and `u128` otherwise, and takes
/// `⌈Σ units / D⌉`, so no `Ratio` sum can overflow on an instance with such
/// a grid.  Only a layer whose grid overflows `u128` falls back to the
/// exact [`Ratio`] sum of [`workload_bound_on`].
#[must_use]
pub fn workload_bound_steps(instance: &Instance) -> usize {
    (0..instance.resources())
        .map(|r| {
            grid_workload_steps::<u64>(instance, r)
                .or_else(|| grid_workload_steps::<u128>(instance, r))
                .unwrap_or_else(|| saturating_steps(workload_bound_on(instance, r).ceil()))
        })
        .max()
        .unwrap_or(0)
}

/// `⌈Σ r·p⌉` on layer `resource`, summed as units of the LCM grid `D` of
/// the workloads' denominators in the unit `U`: whole steps and a
/// remainder below `D`, so no partial sum leaves `U`.  `None` when `D` or a
/// workload's units overflow `U`.
fn grid_workload_steps<U: GridUnit>(instance: &Instance, resource: usize) -> Option<usize> {
    let workloads = || {
        instance.iter_jobs().map(|(id, job)| {
            let requirement = instance.requirement_on(resource, id);
            if job.is_unit() {
                Some(requirement)
            } else {
                requirement.checked_mul(job.volume)
            }
        })
    };
    let grid = workloads().try_fold(U::ONE, |grid, workload| lcm(grid, workload?.denom()))?;
    let (mut steps, mut rest) = (0u128, U::ZERO);
    for workload in workloads() {
        let units = units_of(workload?, grid)?;
        steps = steps.saturating_add((units / grid).into());
        let part = units % grid;
        // rest + part, reduced below the grid without leaving `U`.
        if part >= grid.sub(rest) {
            rest = part.sub(grid.sub(rest));
            steps = steps.saturating_add(1);
        } else {
            rest = rest + part;
        }
    }
    steps = steps.saturating_add(u128::from(rest != U::ZERO));
    Some(usize::try_from(steps).unwrap_or(usize::MAX))
}

/// The chain bound `n = maxᵢ nᵢ` (valid for unit-size jobs; for general
/// volumes each job still needs at least one step, so it remains a valid
/// lower bound).
#[must_use]
pub fn chain_bound(instance: &Instance) -> usize {
    instance.max_chain_length()
}

/// For arbitrary volumes, a slightly stronger chain bound: the maximum over
/// processors of `Σ_j ⌈p_ij⌉` (every job needs at least `⌈p⌉` steps even at
/// full speed).  Saturates at `usize::MAX` — both per job and across a
/// chain — when the exact bound overflows.
#[must_use]
pub fn volume_chain_bound(instance: &Instance) -> usize {
    (0..instance.processors())
        .map(|i| {
            instance
                .processor_jobs(i)
                .iter()
                .map(|job| saturating_steps(job.volume.ceil()))
                .fold(0usize, usize::saturating_add)
        })
        .max()
        .unwrap_or(0)
}

/// The combined trivial lower bound `max(⌈Σ r·p⌉, chain bound)` available
/// without any schedule in hand.  This is the bound the RoundRobin analysis
/// (Theorem 3) compares against.
#[must_use]
pub fn trivial_lower_bound(instance: &Instance) -> usize {
    trivial_from(
        workload_bound_steps(instance),
        chain_bound(instance),
        volume_chain_bound(instance),
    )
}

/// [`trivial_lower_bound`] from its three parts, for a caller that keeps
/// them: the workload bound ([`workload_bound_steps`]), the chain bound
/// ([`chain_bound`]) and the volume chain bound ([`volume_chain_bound`]).
#[must_use]
pub fn trivial_from(workload: usize, chain: usize, volume_chain: usize) -> usize {
    workload.max(chain).max(volume_chain)
}

/// Lemma 5: `OPT ≥ Σ_k (#_k − 1)` for the scheduling graph of a non-wasting
/// schedule.
#[must_use]
pub fn component_bound(graph: &SchedulingGraph) -> usize {
    graph
        .components()
        .iter()
        .map(|c| c.num_edges().saturating_sub(1))
        .sum()
}

/// Lemma 6: `OPT ≥ Σ_{k<N} |C_k| / q_k + |C_N| / m` for the scheduling graph
/// of a balanced schedule on `m` processors.  Returned exactly as a rational.
#[must_use]
pub fn class_bound(graph: &SchedulingGraph, processors: usize) -> Ratio {
    let comps = graph.components();
    let n = comps.len();
    if n == 0 {
        return Ratio::ZERO;
    }
    let mut total = Ratio::ZERO;
    for (k, c) in comps.iter().enumerate() {
        let denom = if k + 1 < n { c.class } else { processors };
        total += Ratio::new(c.num_nodes() as i128, denom.max(1) as i128);
    }
    total
}

/// Lemma 6 rounded up to an integral number of time steps (saturating at
/// `usize::MAX` when the exact bound overflows).
#[must_use]
pub fn class_bound_steps(graph: &SchedulingGraph, processors: usize) -> usize {
    saturating_steps(class_bound(graph, processors).ceil())
}

/// The strongest lower bound available from an instance together with the
/// scheduling graph of a non-wasting, balanced schedule for it.
#[must_use]
pub fn best_lower_bound(instance: &Instance, graph: &SchedulingGraph) -> usize {
    trivial_lower_bound(instance)
        .max(component_bound(graph))
        .max(class_bound_steps(graph, instance.processors()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Instance, InstanceBuilder};
    use crate::job::Job;
    use crate::rational::{ratio, Ratio};
    use crate::schedule::{Schedule, ScheduleBuilder};

    fn fig1_instance() -> Instance {
        Instance::unit_from_percentages(&[&[20, 10, 10, 10], &[50, 55, 90, 55, 10], &[50, 40, 95]])
    }

    fn greedy_fewest_left(inst: &Instance) -> Schedule {
        // Serve active jobs in order of increasing remaining requirement.
        let m = inst.processors();
        let mut b = ScheduleBuilder::new(inst);
        while !b.all_done() {
            let mut order: Vec<usize> = (0..m).filter(|&i| b.is_active(i)).collect();
            order.sort_by_key(|&i| b.remaining_workload(i));
            let mut shares = vec![Ratio::ZERO; m];
            let mut left = Ratio::ONE;
            for i in order {
                let give = b.step_demand(i).min(left);
                shares[i] = give;
                left -= give;
            }
            b.push_step(shares);
        }
        b.finish()
    }

    #[test]
    fn workload_and_chain_bounds() {
        let inst = fig1_instance();
        assert_eq!(workload_bound(&inst), ratio(495, 100));
        assert_eq!(workload_bound_steps(&inst), 5);
        assert_eq!(chain_bound(&inst), 5);
        assert_eq!(trivial_lower_bound(&inst), 5);
    }

    #[test]
    fn volume_chain_bound_counts_large_jobs() {
        let inst = InstanceBuilder::new()
            .processor_jobs([
                Job::new(ratio(1, 10), ratio(5, 2)),
                Job::new(ratio(1, 10), Ratio::ONE),
            ])
            .processor([ratio(1, 2)])
            .build();
        // First processor needs at least ⌈2.5⌉ + 1 = 4 steps.
        assert_eq!(volume_chain_bound(&inst), 4);
        assert_eq!(chain_bound(&inst), 2);
        assert_eq!(trivial_lower_bound(&inst), 4);
    }

    #[test]
    fn overflowing_bounds_saturate_to_usize_max() {
        // One job whose volume exceeds usize::MAX by exactly one: both the
        // workload bound (r = 1, so workload = volume) and the volume-chain
        // bound must saturate instead of collapsing to a vacuous 0.
        let just_over = i128::try_from(usize::MAX).unwrap() + 1;
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ONE, Ratio::new(just_over, 1))])
            .build();
        assert_eq!(workload_bound_steps(&inst), usize::MAX);
        assert_eq!(volume_chain_bound(&inst), usize::MAX);
        assert_eq!(trivial_lower_bound(&inst), usize::MAX);

        // The largest representable bound still converts exactly.
        let at_max = i128::try_from(usize::MAX).unwrap();
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ONE, Ratio::new(at_max, 1))])
            .build();
        assert_eq!(workload_bound_steps(&inst), usize::MAX);
        assert_eq!(volume_chain_bound(&inst), usize::MAX);

        // A chain of huge-but-representable volumes overflows the *sum*:
        // the fold saturates instead of wrapping (or panicking in debug).
        let half = i128::try_from(usize::MAX / 2 + 1).unwrap();
        let inst = InstanceBuilder::new()
            .processor_jobs([
                Job::new(Ratio::ONE, Ratio::new(half, 1)),
                Job::new(Ratio::ONE, Ratio::new(half, 1)),
            ])
            .build();
        assert_eq!(volume_chain_bound(&inst), usize::MAX);
    }

    #[test]
    fn grid_workload_sums_match_the_ratio_sums() {
        // Coprime denominators, non-unit volumes, zeros and a second layer:
        // the unit sums round up exactly as the Ratio sums do.
        let inst = InstanceBuilder::new()
            .processor_jobs([
                Job::new(ratio(2, 7), ratio(3, 2)),
                Job::new(Ratio::ZERO, ratio(5, 3)),
                Job::unit(ratio(10, 11)),
            ])
            .processor_jobs([Job::new(ratio(12, 13), ratio(9, 4)), Job::unit(Ratio::ONE)])
            .extra_layer([
                vec![ratio(1, 3), ratio(1, 5), Ratio::ZERO],
                vec![ratio(4, 9), ratio(2, 3)],
            ])
            .build();
        for r in 0..inst.resources() {
            let exact = workload_bound_on(&inst, r).ceil();
            assert_eq!(grid_workload_steps::<u64>(&inst, r), Some(exact as usize));
            assert_eq!(grid_workload_steps::<u128>(&inst, r), Some(exact as usize));
        }
        assert_eq!(
            workload_bound_steps(&inst),
            (0..2)
                .map(|r| workload_bound_on(&inst, r).ceil() as usize)
                .max()
                .unwrap()
        );
    }

    #[test]
    fn grids_past_u64_sum_without_a_ratio_overflow() {
        // Nine requirements over four primes near 2^31: their LCM is near
        // 2^124, so the u64 grid overflows and the Ratio sum overflows
        // i128, while the u128 grid sums exactly.
        const PRIMES: [i128; 4] = [2_147_483_579, 2_147_483_587, 2_147_483_629, 2_147_483_647];
        let rows: Vec<Vec<Ratio>> = (0..3)
            .map(|i| {
                (0..3)
                    .map(|j| {
                        let p = PRIMES[(i + j) % 4];
                        ratio(p - 1 - (i * 3 + j) as i128, p)
                    })
                    .collect()
            })
            .collect();
        let inst = Instance::unit_from_requirements(rows);
        assert_eq!(grid_workload_steps::<u64>(&inst, 0), None);
        let ratio_sum = inst.iter_jobs().try_fold(Ratio::ZERO, |sum, (_, job)| {
            sum.checked_add(job.requirement)
        });
        assert!(ratio_sum.is_none(), "the Ratio sum overflows i128");
        // Nine requirements just below 1 each.
        assert_eq!(workload_bound_steps(&inst), 9);
    }

    #[test]
    fn component_and_class_bounds_on_fig1() {
        let inst = fig1_instance();
        let schedule = greedy_fewest_left(&inst);
        let trace = schedule.trace(&inst).unwrap();
        let graph = crate::hypergraph::SchedulingGraph::build(&inst, &trace);
        // Components have 2, 3 and 1 edges → Lemma 5 gives (2-1)+(3-1)+(1-1) = 3.
        assert_eq!(component_bound(&graph), 3);
        // Lemma 6: 5/3 + 6/3 + 1/3 = 4.
        assert_eq!(class_bound(&graph, 3), ratio(4, 1));
        assert_eq!(class_bound_steps(&graph, 3), 4);
        // The combined bound is dominated by the trivial bound here.
        assert_eq!(best_lower_bound(&inst, &graph), 5);
        // All lower bounds are indeed at most the schedule's makespan.
        assert!(best_lower_bound(&inst, &graph) <= trace.makespan());
    }

    #[test]
    fn multi_resource_workload_bound_takes_the_binding_resource() {
        // Base layer sums to 0.75, the extra layer to 2.6: the extra
        // resource is binding and pushes the trivial bound to ⌈2.6⌉ = 3.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 4), ratio(1, 4)])
            .processor([ratio(1, 4)])
            .extra_layer([vec![ratio(9, 10), ratio(9, 10)], vec![ratio(8, 10)]])
            .build();
        assert_eq!(workload_bound(&inst), ratio(3, 4));
        assert_eq!(workload_bound_on(&inst, 1), ratio(26, 10));
        assert_eq!(workload_bound_steps(&inst), 3);
        assert_eq!(trivial_lower_bound(&inst), 3);
    }

    #[test]
    fn empty_graph_bounds_are_zero() {
        let inst = InstanceBuilder::new().processor([ratio(1, 2)]).build();
        let schedule = Schedule::new(vec![vec![ratio(1, 2)]]);
        let trace = schedule.trace(&inst).unwrap();
        let graph = crate::hypergraph::SchedulingGraph::build(&inst, &trace);
        assert_eq!(component_bound(&graph), 0);
        assert_eq!(class_bound(&graph, 1), Ratio::ONE);
    }
}
