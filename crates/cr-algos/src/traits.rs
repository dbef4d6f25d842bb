//! The [`Scheduler`] abstraction shared by all algorithms in this crate.

use crate::solver::SolveError;
use cr_core::{Instance, Schedule};

/// An offline CRSharing scheduler: given a full problem instance it produces
/// a feasible resource-assignment schedule.
///
/// Every algorithm of the paper (RoundRobin, GreedyBalance, the exact
/// algorithms) and every baseline heuristic implements this trait, which lets
/// the experiment harness sweep over algorithms generically.  For the
/// request/response surface (engine preferences, budgets, structured
/// errors) see [`crate::solver`] — every scheduler also implements
/// [`crate::solver::Solver`].
pub trait Scheduler {
    /// A short, stable, human-readable name (used in experiment output).
    fn name(&self) -> &'static str;

    /// Computes a feasible schedule for `instance`.
    ///
    /// Implementations must return a schedule that completes every job and
    /// never overuses the resource; this is enforced by the stepper
    /// (`cr_core::MultiStepper`) or builder (`cr_core::ScheduleBuilder`)
    /// they are built on.
    ///
    /// # Panics
    ///
    /// The six polynomial schedulers panic when the instance's unit grid
    /// overflows `u128`; the [`crate::solver`] registry answers
    /// `grid_overflow` there instead.
    fn schedule(&self, instance: &Instance) -> Schedule;

    /// The makespan of the schedule this algorithm produces, validated
    /// against the instance.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] when the produced schedule fails
    /// validation (a bug in the scheduler implementation, surfaced as a
    /// structured error instead of a panic).
    fn try_makespan(&self, instance: &Instance) -> Result<usize, SolveError> {
        let schedule = self.schedule(instance);
        schedule.makespan(instance).map_err(SolveError::from)
    }

    /// Convenience: the makespan of the schedule this algorithm produces.
    ///
    /// A thin wrapper over the fallible path, kept for call sites (tests,
    /// benchmarks, examples) where an infeasible schedule is unrecoverable
    /// anyway; prefer [`Scheduler::try_makespan`] — or the full
    /// [`crate::solver`] surface — where errors should be handled.
    ///
    /// # Panics
    ///
    /// Panics if the produced schedule is infeasible.
    fn makespan(&self, instance: &Instance) -> usize {
        self.try_makespan(instance)
            .expect("scheduler produced an infeasible schedule")
    }
}

/// A boxed scheduler, convenient for heterogeneous algorithm line-ups in the
/// benchmark harness.
pub type BoxedScheduler = Box<dyn Scheduler + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{
        EqualShare, GreedyBalance, LargestRequirementFirst, ProportionalShare, RoundRobin,
        SmallestRequirementFirst,
    };
    use cr_core::Ratio;

    /// The six polynomial-time schedulers.
    fn schedulers() -> Vec<BoxedScheduler> {
        vec![
            Box::new(GreedyBalance::new()),
            Box::new(RoundRobin::new()),
            Box::new(EqualShare::new()),
            Box::new(ProportionalShare::new()),
            Box::new(LargestRequirementFirst::new()),
            Box::new(SmallestRequirementFirst::new()),
        ]
    }

    #[test]
    fn all_line_up_schedulers_produce_feasible_schedules() {
        let inst = Instance::unit_from_percentages(&[&[60, 30, 10], &[50, 50], &[90]]);
        for s in schedulers() {
            let schedule = s.schedule(&inst);
            let trace = schedule.trace(&inst).unwrap();
            assert!(trace.makespan() >= 2, "{} too fast", s.name());
            assert!(
                Ratio::from_integer(trace.makespan() as i64) >= inst.total_workload(),
                "{} beats Observation 1",
                s.name()
            );
        }
    }

    #[test]
    fn try_makespan_matches_the_panicking_wrapper() {
        let inst = Instance::unit_from_percentages(&[&[60, 30, 10], &[50, 50], &[90]]);
        for s in schedulers() {
            assert_eq!(s.try_makespan(&inst).unwrap(), s.makespan(&inst));
        }
    }
}
