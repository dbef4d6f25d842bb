//! The RoundRobin algorithm (Section 4.2 of the paper).
//!
//! RoundRobin operates in `n` phases, where `n` is the maximum number of jobs
//! on any processor.  During phase `j` it only works on the `j`-th job of
//! every processor that has one, assigning the resource arbitrarily (here: in
//! processor order) to the jobs of the phase that are still unfinished.  A
//! phase may waste resource in its final step because the next phase's jobs
//! are not started early.
//!
//! Theorem 3 shows that this simple algorithm is a 2-approximation and that
//! the factor 2 is tight (the tight family is provided by
//! `cr-instances::worst_case::round_robin_family`).

use crate::multi_sched::{self, PolyKind};
use crate::traits::Scheduler;
use cr_core::{Instance, Ratio, Schedule, ScheduleBuilder};

/// The phase-based RoundRobin 2-approximation.
///
/// [`Scheduler::schedule`] runs the rule on the integer unit grid (a
/// [`cr_core::MultiStepper`] over `u64`, or `u128` past it);
/// [`RoundRobin::schedule_rational`] is the exact-[`Ratio`] test reference
/// (identical output, no production caller).
///
/// # Examples
///
/// ```
/// use cr_algos::{RoundRobin, Scheduler};
/// use cr_core::Instance;
///
/// // Phase 1 needs ⌈0.6 + 0.6⌉ = 2 steps, phase 2 needs ⌈0.4 + 0.4⌉ = 1.
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]);
/// assert_eq!(RoundRobin::new().makespan(&inst), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl RoundRobin {
    /// Creates the algorithm.
    #[must_use]
    pub fn new() -> Self {
        RoundRobin
    }

    /// The exact-rational reference of [`Scheduler::schedule`] (identical
    /// output, no production caller).
    #[must_use]
    pub fn schedule_rational(&self, instance: &Instance) -> Schedule {
        let m = instance.processors();
        let n = instance.max_chain_length();
        let mut builder = ScheduleBuilder::new(instance);

        for phase in 0..n {
            // Processors participating in this phase: those whose active job
            // is exactly the phase-th job (processors with shorter chains have
            // already run out of jobs).
            loop {
                let participants: Vec<usize> = (0..m)
                    .filter(|&i| {
                        builder
                            .active_job(i)
                            .map(|id| id.index == phase)
                            .unwrap_or(false)
                    })
                    .collect();
                if participants.is_empty() {
                    break;
                }
                let mut shares = vec![Ratio::ZERO; m];
                let mut left = Ratio::ONE;
                for i in participants {
                    if left.is_zero() {
                        break;
                    }
                    let give = builder.step_demand(i).min(left);
                    shares[i] = give;
                    left -= give;
                }
                builder.push_step(shares);
            }
        }
        builder.finish()
    }
}

impl Scheduler for RoundRobin {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }

    fn schedule(&self, instance: &Instance) -> Schedule {
        multi_sched::schedule(PolyKind::RoundRobin, instance)
    }
}

/// Returns the number of steps RoundRobin needs for phase `j` (zero-based):
/// `⌈Σ_{i ∈ M_{j+1}} r_ij · p_ij⌉`, as used in the proof of Theorem 3.
///
/// A phase whose jobs have zero total workload still needs one step per
/// involved job chain position (every job occupies at least one step).
#[must_use]
pub fn phase_length(instance: &Instance, phase: usize) -> usize {
    let machines = instance.machines_with_job(phase);
    if machines.is_empty() {
        return 0;
    }
    let workload: Ratio = machines
        .iter()
        .map(|&i| instance.processor_jobs(i)[phase].workload())
        .sum();
    let steps = usize::try_from(workload.ceil().max(0)).unwrap_or(0);
    steps.max(1)
}

/// The analytical upper bound `Σ_j ⌈Σ_{i ∈ M_j} r_ij⌉` on the RoundRobin
/// makespan from the proof of Theorem 3.
#[must_use]
pub fn round_robin_upper_bound(instance: &Instance) -> usize {
    (0..instance.max_chain_length())
        .map(|j| phase_length(instance, j))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::bounds;

    #[test]
    fn phase_structure_matches_analysis() {
        let inst = Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]);
        assert_eq!(phase_length(&inst, 0), 2);
        assert_eq!(phase_length(&inst, 1), 1);
        assert_eq!(round_robin_upper_bound(&inst), 3);
        let makespan = RoundRobin::new().makespan(&inst);
        assert_eq!(makespan, 3);
    }

    #[test]
    fn makespan_never_exceeds_analytical_bound() {
        let instances = vec![
            Instance::unit_from_percentages(&[
                &[20, 10, 10, 10],
                &[50, 55, 90, 55, 10],
                &[50, 40, 95],
            ]),
            Instance::unit_from_percentages(&[&[100, 100], &[100, 100], &[100, 100]]),
            Instance::unit_from_percentages(&[&[33, 66, 99], &[99, 66, 33]]),
        ];
        for inst in instances {
            let makespan = RoundRobin::new().makespan(&inst);
            assert!(makespan <= round_robin_upper_bound(&inst));
            // Theorem 3 upper bound: RR ≤ n + Σ workload ≤ 2·OPT.
            let bound = inst.max_chain_length() + bounds::workload_bound_steps(&inst);
            assert!(makespan <= bound);
        }
    }

    #[test]
    fn never_starts_next_phase_early() {
        // Phase 0: total 1.2 → two steps, the second wasting 0.8.
        // Phase 1: total 0.2 → one step.
        let inst = Instance::unit_from_percentages(&[&[60, 10], &[60, 10]]);
        let schedule = RoundRobin::new().schedule(&inst);
        assert_eq!(schedule.num_steps(), 3);
        // In step 1 (second step of phase 0) only processor 1's first job is
        // still unfinished; nothing from phase 1 runs.
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.completion_step(cr_core::JobId::new(0, 0)), Some(0));
        assert_eq!(trace.completion_step(cr_core::JobId::new(1, 0)), Some(1));
        assert_eq!(trace.completion_step(cr_core::JobId::new(0, 1)), Some(2));
        assert_eq!(trace.completion_step(cr_core::JobId::new(1, 1)), Some(2));
    }

    #[test]
    fn within_factor_two_of_workload_bound() {
        let inst = Instance::unit_from_percentages(&[
            &[80, 20, 60, 40, 30],
            &[70, 30, 50, 50, 90],
            &[10, 90, 25, 75, 45],
            &[55, 45, 35, 65, 20],
        ]);
        let makespan = RoundRobin::new().makespan(&inst) as f64;
        let opt_lb = bounds::trivial_lower_bound(&inst) as f64;
        assert!(makespan / opt_lb <= 2.0 + 1e-9);
    }

    #[test]
    fn handles_unequal_chain_lengths() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50, 50, 50]]);
        let makespan = RoundRobin::new().makespan(&inst);
        assert_eq!(makespan, 3);
    }

    #[test]
    fn zero_requirement_jobs_complete_in_their_phase() {
        let inst = Instance::unit_from_percentages(&[&[0, 50], &[100, 0]]);
        let makespan = RoundRobin::new().makespan(&inst);
        // Phase 0: ⌈0 + 1⌉ = 1 step; phase 1: ⌈0.5⌉ = 1 step.
        assert_eq!(makespan, 2);
    }
}
