//! The discrete-time simulation engine.
//!
//! The engine owns a workload (one task per core), repeatedly asks an
//! [`OnlinePolicy`] for a bus-share vector, validates it, advances the cores
//! and collects metrics.  Internally it steps a [`cr_core::MultiStepper`]
//! on `u64` units — the exact step simulator the offline heuristics run
//! on: the bus is a pool of `capacity` integer units per step (the
//! workload's unit grid), a policy answers in units, and one simulated step
//! is pure integer arithmetic — no rational arithmetic, no floating point,
//! and every metric (consumption, waste, utilization) is exact.  A finished
//! [`Simulator::run`] is bit-for-bit a CRSharing [`Schedule`] and can be
//! validated, rendered and analyzed with the rest of the tool chain.

use crate::metrics::{CoreReport, MultiSimReport, SimReport};
use crate::policies::{CoreView, MultiCoreView, OnlinePolicy};
use crate::task::{tasks_to_instance, Task};
use cr_core::{bounds, CancelReason, CancelToken, Instance, MultiStepper, Schedule};
use std::fmt;

/// How many simulated steps pass between cancel-token checks in the engine
/// loop: one step costs `O(m)` integer work plus a policy call, so even
/// wide workloads check far more often than
/// [`cr_core::cancel::CHECK_INTERVAL_MS`] demands.
const STEP_CHECK_STRIDE: u32 = 64;

/// A simulation of one workload under one policy.
pub struct Simulator {
    tasks: Vec<Task>,
    instance: Instance,
    /// Hard cap on simulated steps, to surface starvation bugs in policies
    /// instead of spinning forever.
    step_limit: usize,
}

/// Outcome of a simulation: the aggregate report plus the full schedule for
/// further inspection.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Aggregate and per-core metrics.
    pub report: SimReport,
    /// The exact schedule the policy produced.
    pub schedule: Schedule,
}

/// A structured simulation failure.
///
/// These are *environment or policy* conditions a caller may want to handle
/// (report, retry with another policy, …) rather than programming errors:
/// the engine still panics when a policy returns a malformed share vector
/// (wrong length, overusing the pool), because that is a bug in the policy
/// itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The workload's unit grid (requirement/workload denominator LCM)
    /// overflows the scaled engine's `u64` headroom.
    GridOverflow,
    /// The policy failed to finish the workload within the step limit — it
    /// is starving a core or making no progress.
    StepLimit {
        /// Name of the policy that exceeded the limit.
        policy: String,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// The simulation's cancel token fired (wall-clock deadline passed, or
    /// the requesting connection died) before the workload finished.
    Cancelled {
        /// Whether the deadline fired or the run was cancelled externally.
        reason: CancelReason,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::GridOverflow => write!(
                f,
                "workload unit grid overflows u64 — the offline schedulers widen to u128"
            ),
            SimError::StepLimit { policy, limit } => write!(
                f,
                "policy {policy} exceeded the step limit of {limit} — it is starving a core"
            ),
            SimError::Cancelled { reason } => write!(f, "simulation stopped: {reason}"),
        }
    }
}

impl std::error::Error for SimError {}

impl Simulator {
    /// Creates a simulator for a set of tasks (one per core).
    #[must_use]
    pub fn new(tasks: Vec<Task>) -> Self {
        let instance = tasks_to_instance(&tasks);
        let step_limit = Self::default_step_limit(&tasks);
        Simulator {
            tasks,
            instance,
            step_limit,
        }
    }

    /// Creates a simulator directly from a CRSharing instance (cores are
    /// named `core0`, `core1`, …).  Extra resource layers of the instance
    /// are preserved: [`Simulator::run`] simulates the base resource only,
    /// while [`Simulator::run_multi`] arbitrates all `k` layers.
    #[must_use]
    pub fn from_instance(instance: &Instance) -> Self {
        let tasks = crate::task::instance_to_tasks(instance);
        let step_limit = Self::default_step_limit(&tasks);
        Simulator {
            tasks,
            instance: instance.clone(),
            step_limit,
        }
    }

    /// Generous default starvation watchdog: even a policy that serves one
    /// core at a time finishes within the total ideal time of all tasks
    /// (with every resource layer at the core's disposal, a job still takes
    /// exactly its ideal `⌈p⌉` steps, so the bound holds for any `k`).
    fn default_step_limit(tasks: &[Task]) -> usize {
        tasks
            .iter()
            .map(Task::ideal_completion_time)
            .sum::<usize>()
            .max(1)
            * 4
            + 16
    }

    /// Overrides the step limit (mostly useful in tests).
    #[must_use]
    pub fn with_step_limit(mut self, limit: usize) -> Self {
        self.step_limit = limit;
        self
    }

    /// The current step limit (the default starvation watchdog unless
    /// overridden).
    #[must_use]
    pub fn step_limit(&self) -> usize {
        self.step_limit
    }

    /// The workload as a CRSharing instance.
    #[must_use]
    pub fn instance(&self) -> &Instance {
        &self.instance
    }

    /// Runs the workload to completion under `policy`, simulating the
    /// **base resource** only (extra layers of a multi-resource instance
    /// are not arbitrated here — use [`Simulator::run_multi`] for those).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GridOverflow`] when the workload's unit grid does
    /// not fit the scaled engine, and [`SimError::StepLimit`] when the
    /// policy fails to finish the workload within the step limit.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns a malformed share vector (wrong length,
    /// share above the capacity, or total above the pool) — that is a bug in
    /// the policy, not a runtime condition.
    pub fn run(&self, policy: &mut dyn OnlinePolicy) -> Result<SimOutcome, SimError> {
        self.run_cancellable(policy, &CancelToken::never())
    }

    /// [`Simulator::run`] with cooperative cancellation: the step loop
    /// consults `token` on a strided gate (every 64 steps), failing with
    /// [`SimError::Cancelled`] once it fires.
    ///
    /// # Errors
    ///
    /// Everything [`Simulator::run`] reports, plus [`SimError::Cancelled`].
    ///
    /// # Panics
    ///
    /// Panics if the policy returns a malformed share vector (wrong length,
    /// share above the capacity, or total above the pool) — that is a bug in
    /// the policy, not a runtime condition.
    pub fn run_cancellable(
        &self,
        policy: &mut dyn OnlinePolicy,
        token: &CancelToken,
    ) -> Result<SimOutcome, SimError> {
        let (report, stepper) = self.simulate(policy, token, true)?;
        Ok(SimOutcome {
            report,
            schedule: stepper.finish(),
        })
    }

    /// The base-resource step loop of [`Simulator::run_cancellable`]: the
    /// report, and the finished stepper, which logs every step's shares
    /// only when `log` is set, so a makespan-only caller builds no
    /// [`Schedule`].
    pub(crate) fn simulate(
        &self,
        policy: &mut dyn OnlinePolicy,
        token: &CancelToken,
        log: bool,
    ) -> Result<(SimReport, MultiStepper<u64>), SimError> {
        let _run_span = cr_obs::Span::enter(cr_obs::names::SPAN_SIM_RUN);
        let cancelled = |reason: CancelReason| SimError::Cancelled { reason };
        token.check().map_err(cancelled)?;
        let mut gate = token.gate(STEP_CHECK_STRIDE);
        let mut stepper =
            MultiStepper::<u64>::try_new_base(&self.instance).ok_or(SimError::GridOverflow)?;
        if log {
            stepper = stepper.log_shares();
        }
        let capacity = stepper.capacity(0);
        let m = self.instance.processors();

        // Completion is recorded *before* the first step too, so a core
        // whose task is already empty reports completion time 0 instead of
        // being credited with the first simulated step.
        let mut completion: Vec<Option<usize>> = (0..m)
            .map(|i| (stepper.unfinished_jobs(i) == 0).then_some(0))
            .collect();
        let mut starved = vec![0usize; m];
        let mut consumed_units: u64 = 0;
        let mut wasted_units_per_step: Vec<u64> = Vec::new();

        let mut steps = 0usize;
        while !stepper.all_done() {
            gate.tick().map_err(cancelled)?;
            if steps >= self.step_limit {
                return Err(SimError::StepLimit {
                    policy: policy.name().to_string(),
                    limit: self.step_limit,
                });
            }
            let views: Vec<CoreView> = (0..m)
                .map(|i| CoreView {
                    active_requirement: stepper.active_requirement(i, 0),
                    step_demand: stepper.step_demand(i, 0),
                    remaining_workload: stepper.remaining(i, 0),
                    remaining_phases: stepper.unfinished_jobs(i),
                })
                .collect();
            let shares = policy.allocate(capacity, &views);
            assert_eq!(
                shares.len(),
                m,
                "policy {} returned {} shares for {} cores",
                policy.name(),
                shares.len(),
                m
            );

            let mut useful: u64 = 0;
            // lint: allow(cancel_coverage) — bounded: one pass over m processors per simulated step; the step loop polls the gate
            for i in 0..m {
                if views[i].is_active() {
                    useful += shares[i].min(views[i].step_demand);
                    if shares[i] == 0 && views[i].step_demand > 0 {
                        starved[i] += 1;
                    }
                }
            }
            consumed_units = consumed_units.saturating_add(useful);
            wasted_units_per_step.push(capacity - useful);
            // The stepper validates the shape, each share and the total,
            // panicking on a malformed vector.
            stepper.push_step(&shares);
            steps += 1;
            // lint: allow(cancel_coverage) — bounded: completion scan over m processors per step; the step loop polls the gate
            for (i, done_at) in completion.iter_mut().enumerate() {
                if done_at.is_none() && stepper.unfinished_jobs(i) == 0 {
                    *done_at = Some(steps);
                }
            }
        }

        let makespan = steps;
        let per_core: Vec<CoreReport> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, task)| CoreReport {
                name: task.name.clone(),
                completion_time: completion[i].expect("all cores completed"),
                ideal_completion_time: task.ideal_completion_time(),
                starved_steps: starved[i],
            })
            .collect();

        let pool_total = (makespan as u64).saturating_mul(capacity);
        let report = SimReport {
            policy: policy.name().to_string(),
            cores: m,
            makespan,
            capacity,
            consumed_units,
            wasted_units_per_step,
            bus_utilization: if pool_total == 0 {
                0.0
            } else {
                consumed_units as f64 / pool_total as f64
            },
            lower_bound: bounds::trivial_lower_bound(&self.instance),
            per_core,
        };
        crate::obs::record_report(&report);
        Ok((report, stepper))
    }

    /// Runs the workload to completion under `policy` with **every**
    /// resource layer arbitrated, driving the policy through
    /// [`OnlinePolicy::allocate_multi`].  Works for any `k ≥ 1`; for
    /// single-resource workloads the default `allocate_multi` lift makes it
    /// behave exactly like [`Simulator::run`] (modulo the missing schedule).
    ///
    /// Unlike the scalar runs this reports no [`Schedule`] — the CRSharing
    /// schedule format is single-resource — so the result is the metrics
    /// report alone.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GridOverflow`] when any resource layer's unit
    /// grid does not fit the scaled engine, and [`SimError::StepLimit`]
    /// when the policy fails to finish the workload within the step limit.
    ///
    /// # Panics
    ///
    /// Panics if the policy returns a malformed share matrix (wrong shape,
    /// a share above its resource's capacity, or a resource oversubscribed)
    /// — that is a bug in the policy, not a runtime condition.
    pub fn run_multi(&self, policy: &mut dyn OnlinePolicy) -> Result<MultiSimReport, SimError> {
        self.run_multi_cancellable(policy, &CancelToken::never())
    }

    /// [`Simulator::run_multi`] with cooperative cancellation on the same
    /// strided gate as the scalar run.
    ///
    /// # Errors
    ///
    /// Everything [`Simulator::run_multi`] reports, plus
    /// [`SimError::Cancelled`].
    ///
    /// # Panics
    ///
    /// As for [`Simulator::run_multi`]: a malformed share matrix is a
    /// policy bug and panics.
    pub fn run_multi_cancellable(
        &self,
        policy: &mut dyn OnlinePolicy,
        token: &CancelToken,
    ) -> Result<MultiSimReport, SimError> {
        let _run_span = cr_obs::Span::enter(cr_obs::names::SPAN_SIM_RUN);
        let cancelled = |reason: CancelReason| SimError::Cancelled { reason };
        token.check().map_err(cancelled)?;
        let mut gate = token.gate(STEP_CHECK_STRIDE);
        let mut stepper =
            MultiStepper::<u64>::try_new(&self.instance).ok_or(SimError::GridOverflow)?;
        let k = stepper.resources();
        let m = self.instance.processors();
        let capacities: Vec<u64> = stepper.capacities().to_vec();

        let mut completion: Vec<Option<usize>> = (0..m)
            .map(|i| (stepper.unfinished_jobs(i) == 0).then_some(0))
            .collect();
        let mut starved = vec![0usize; m];
        let mut consumed_units = vec![0u64; k];
        let mut wasted_units_per_step: Vec<Vec<u64>> = vec![Vec::new(); k];

        let mut steps = 0usize;
        while !stepper.all_done() {
            gate.tick().map_err(cancelled)?;
            if steps >= self.step_limit {
                return Err(SimError::StepLimit {
                    policy: policy.name().to_string(),
                    limit: self.step_limit,
                });
            }
            let views: Vec<MultiCoreView> = (0..m)
                .map(|i| MultiCoreView {
                    active_requirement: stepper.is_active(i).then(|| {
                        (0..k)
                            .map(|r| stepper.active_requirement(i, r).unwrap_or(0))
                            .collect()
                    }),
                    step_demand: (0..k).map(|r| stepper.step_demand(i, r)).collect(),
                    remaining_workload: (0..k).map(|r| stepper.remaining(i, r)).collect(),
                    remaining_phases: stepper.unfinished_jobs(i),
                })
                .collect();
            let shares = policy.allocate_multi(&capacities, &views);
            assert_eq!(
                shares.len(),
                m,
                "policy {} returned {} share rows for {} cores",
                policy.name(),
                shares.len(),
                m
            );

            // lint: allow(cancel_coverage) — bounded: one pass over m cores per simulated step; the step loop polls the gate
            for (i, (view, row)) in views.iter().zip(&shares).enumerate() {
                assert_eq!(
                    row.len(),
                    k,
                    "policy {} returned {} shares for core {i} on {k} resources",
                    policy.name(),
                    row.len()
                );
                // A core is starved when it could absorb units on some
                // layer but received a useful grant on none.  (Units of
                // different layers live on different grids, so this is a
                // per-layer predicate, never a cross-layer sum.)
                let any_useful = row
                    .iter()
                    .zip(&view.step_demand)
                    .any(|(&s, &d)| s.min(d) > 0);
                let any_demand = view.step_demand.iter().any(|&d| d > 0);
                if view.is_active() && !any_useful && any_demand {
                    starved[i] += 1;
                }
            }
            // The stepper validates per-share caps and column sums,
            // panicking on a malformed matrix exactly like the scalar run.
            let consumed = stepper.push_step(&shares.concat());
            // lint: allow(cancel_coverage) — bounded: k resource layers per step; the step loop polls the gate
            for (r, &used) in consumed.iter().enumerate() {
                consumed_units[r] = consumed_units[r].saturating_add(used);
                wasted_units_per_step[r].push(capacities[r] - used);
            }
            steps += 1;
            // lint: allow(cancel_coverage) — bounded: completion scan over m processors per step; the step loop polls the gate
            for (i, done_at) in completion.iter_mut().enumerate() {
                if done_at.is_none() && stepper.unfinished_jobs(i) == 0 {
                    *done_at = Some(steps);
                }
            }
        }

        let makespan = steps;
        let per_core: Vec<CoreReport> = self
            .tasks
            .iter()
            .enumerate()
            .map(|(i, task)| CoreReport {
                name: task.name.clone(),
                completion_time: completion[i].expect("all cores completed"),
                ideal_completion_time: task.ideal_completion_time(),
                starved_steps: starved[i],
            })
            .collect();
        let utilization: Vec<f64> = capacities
            .iter()
            .zip(&consumed_units)
            .map(|(&cap, &used)| {
                let pool = (makespan as u64).saturating_mul(cap);
                if pool == 0 {
                    0.0
                } else {
                    used as f64 / pool as f64
                }
            })
            .collect();
        let report = MultiSimReport {
            policy: policy.name().to_string(),
            cores: m,
            resources: k,
            makespan,
            capacities,
            consumed_units,
            wasted_units_per_step,
            utilization,
            per_core,
        };
        crate::obs::record_multi_report(&report);
        Ok(report)
    }

    /// Runs the workload under every provided policy and returns the reports
    /// in the same order.
    ///
    /// # Errors
    ///
    /// Propagates the first [`SimError`] any policy produces.
    pub fn compare(
        &self,
        policies: &mut [Box<dyn OnlinePolicy>],
    ) -> Result<Vec<SimReport>, SimError> {
        policies
            .iter_mut()
            .map(|p| Ok(self.run(p.as_mut())?.report))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policies::{
        standard_policies, EqualSharePolicy, GreedyBalancePolicy, ProportionalSharePolicy,
        RoundRobinPolicy,
    };
    use crate::task::Phase;
    use cr_core::ratio;
    use cr_instances::{generate_workload, TaskMix, WorkloadConfig};

    fn small_workload() -> Vec<Task> {
        vec![
            Task::new(
                "io0",
                vec![
                    Phase::unit(ratio(9, 10)),
                    Phase::unit(ratio(8, 10)),
                    Phase::unit(ratio(7, 10)),
                ],
            ),
            Task::new(
                "cpu0",
                vec![Phase::unit(ratio(1, 10)), Phase::unit(ratio(1, 10))],
            ),
            Task::new(
                "io1",
                vec![Phase::unit(ratio(6, 10)), Phase::unit(ratio(5, 10))],
            ),
        ]
    }

    #[test]
    fn simulation_completes_and_matches_schedule_semantics() {
        let sim = Simulator::new(small_workload());
        let outcome = sim.run(&mut GreedyBalancePolicy).unwrap();
        // The schedule the engine reports is feasible and has the same
        // makespan as the engine's own step count.
        let trace = outcome.schedule.trace(sim.instance()).unwrap();
        assert_eq!(trace.makespan(), outcome.report.makespan);
        assert!(outcome.report.makespan >= outcome.report.lower_bound);
        assert!(outcome.report.bus_utilization > 0.0);
        assert!(outcome
            .report
            .per_core
            .iter()
            .all(|c| c.completion_time > 0));
    }

    #[test]
    fn consumed_units_match_the_exact_trace() {
        let sim = Simulator::new(small_workload());
        for mut policy in standard_policies() {
            let outcome = sim.run(policy.as_mut()).unwrap();
            let trace = outcome.schedule.trace(sim.instance()).unwrap();
            let capacity = outcome.report.capacity;
            // The engine's unit accounting equals the exact rational trace:
            // Σ_t consumed(t) == consumed_units / capacity …
            let traced: cr_core::Ratio = (0..trace.num_steps())
                .map(|t| trace.consumed_total(t))
                .sum();
            assert_eq!(
                traced,
                cr_core::Ratio::new(
                    i128::from(outcome.report.consumed_units),
                    i128::from(capacity)
                ),
                "{}",
                outcome.report.policy
            );
            // … and the per-step waste series complements it exactly.
            assert_eq!(
                outcome.report.wasted_units_per_step.len(),
                outcome.report.makespan
            );
            let wasted: u64 = outcome.report.wasted_units_per_step.iter().sum();
            assert_eq!(
                wasted + outcome.report.consumed_units,
                capacity * outcome.report.makespan as u64
            );
        }
    }

    #[test]
    fn empty_tasks_complete_before_the_first_step() {
        let tasks = vec![
            Task::new("idle", vec![]),
            Task::new("busy", vec![Phase::unit(ratio(1, 2))]),
        ];
        let sim = Simulator::new(tasks);
        let outcome = sim.run(&mut GreedyBalancePolicy).unwrap();
        assert_eq!(outcome.report.makespan, 1);
        assert_eq!(outcome.report.per_core[0].completion_time, 0);
        assert_eq!(outcome.report.per_core[1].completion_time, 1);
        assert!((outcome.report.per_core[0].slowdown() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_balance_is_no_worse_than_equal_share_here() {
        let sim = Simulator::new(small_workload());
        let greedy = sim.run(&mut GreedyBalancePolicy).unwrap().report;
        let equal = sim.run(&mut EqualSharePolicy).unwrap().report;
        assert!(greedy.makespan <= equal.makespan);
    }

    #[test]
    fn round_robin_respects_phase_barriers() {
        let sim = Simulator::new(small_workload());
        let rr = sim.run(&mut RoundRobinPolicy).unwrap().report;
        // Round robin is a 2-approximation; with the lower bound as proxy for
        // the optimum the ratio must stay below 2 (plus 1 step of slack for
        // the ceiling effects on this tiny workload).
        assert!(rr.makespan <= 2 * rr.lower_bound + 1);
    }

    #[test]
    fn policy_comparison_covers_all_policies() {
        let cfg = WorkloadConfig {
            cores: 6,
            phases_per_task: 4,
            mix: TaskMix::Mixed,
            ..Default::default()
        };
        let sim = Simulator::from_instance(&generate_workload(&cfg, 7));
        let mut policies = standard_policies();
        let reports = sim.compare(&mut policies).unwrap();
        assert_eq!(reports.len(), policies.len());
        for r in &reports {
            assert!(r.makespan >= r.lower_bound);
            assert!(r.bus_utilization <= 1.0 + 1e-9);
        }
        // GreedyBalance is within its proven factor of the lower bound.
        let greedy = &reports[0];
        assert!(greedy.normalized_makespan() <= 2.0 - 1.0 / cfg.cores as f64 + 1e-9);
    }

    #[test]
    fn proportional_share_does_not_starve_tiny_demands() {
        // Regression test for the SHARE_GRID starvation bug class: one core
        // with full-bus phases next to cores with microscopic demands.  The
        // old fixed-grid floor gave the tiny cores zero shares until the
        // huge core finished; the exact largest-remainder split serves them
        // immediately, so nobody records a starved step.
        let tiny = ratio(1, 1_000_000);
        let mut tasks = vec![Task::new("huge", vec![Phase::unit(cr_core::Ratio::ONE); 3])];
        for i in 0..4 {
            tasks.push(Task::new(format!("tiny{i}"), vec![Phase::unit(tiny)]));
        }
        let sim = Simulator::new(tasks);
        let report = sim.run(&mut ProportionalSharePolicy).unwrap().report;
        assert_eq!(report.makespan, 4);
        for core in &report.per_core {
            assert_eq!(core.starved_steps, 0, "{} was starved", core.name);
            if core.name.starts_with("tiny") {
                assert_eq!(core.completion_time, 1);
            }
        }
    }

    #[test]
    fn starving_policies_are_detected() {
        struct DoNothing;
        impl OnlinePolicy for DoNothing {
            fn name(&self) -> &'static str {
                "DoNothing"
            }
            fn allocate(&mut self, _capacity: u64, cores: &[CoreView]) -> Vec<u64> {
                vec![0; cores.len()]
            }
        }
        let sim = Simulator::new(small_workload()).with_step_limit(16);
        let err = sim.run(&mut DoNothing).unwrap_err();
        assert_eq!(
            err,
            SimError::StepLimit {
                policy: "DoNothing".to_string(),
                limit: 16
            }
        );
        assert!(err.to_string().contains("step limit"));
    }

    #[test]
    fn cancelled_simulation_stops_early() {
        let sim = Simulator::new(small_workload());
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            sim.run_cancellable(&mut GreedyBalancePolicy, &token)
                .unwrap_err(),
            SimError::Cancelled {
                reason: CancelReason::Cancelled
            }
        );
        // A live token reproduces the plain run exactly.
        let live = CancelToken::new();
        let cancellable = sim
            .run_cancellable(&mut GreedyBalancePolicy, &live)
            .unwrap();
        let plain = sim.run(&mut GreedyBalancePolicy).unwrap();
        assert_eq!(cancellable.report.makespan, plain.report.makespan);
        assert_eq!(cancellable.schedule, plain.schedule);
    }

    fn two_resource_instance() -> cr_core::Instance {
        // Cheap on the bus, but the second layer is the bottleneck: both
        // cores want 3/4 of resource 1 per step.
        cr_core::InstanceBuilder::new()
            .processor([ratio(1, 10), ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4), ratio(3, 4)], vec![ratio(3, 4)]])
            .build()
    }

    #[test]
    fn multi_run_accounts_every_layer_exactly() {
        let sim = Simulator::from_instance(&two_resource_instance());
        for mut policy in standard_policies() {
            let report = sim.run_multi(policy.as_mut()).unwrap();
            assert_eq!(report.resources, 2);
            assert_eq!(report.cores, 2);
            assert!(report.makespan >= 3, "{}", report.policy);
            for r in 0..2 {
                assert_eq!(
                    report.wasted_units_per_step[r].len(),
                    report.makespan,
                    "{} resource {r}",
                    report.policy
                );
                assert_eq!(
                    report.consumed_units[r] + report.wasted_units_total(r),
                    report.capacities[r] * report.makespan as u64,
                    "{} resource {r}",
                    report.policy
                );
                assert!(report.utilization[r] <= 1.0 + 1e-9);
            }
            // The second layer carries 9/4 of unit workload vs 3/10 on the
            // base layer: it is the binding resource for every policy.
            assert_eq!(report.bottleneck_resource(), 1, "{}", report.policy);
            assert!(report.per_core.iter().all(|c| c.completion_time > 0));
        }
    }

    #[test]
    fn binding_extra_layer_slows_the_run_down() {
        let multi = two_resource_instance();
        let base_only = cr_core::Instance::unit_from_requirements(vec![
            vec![ratio(1, 10), ratio(1, 10)],
            vec![ratio(1, 10)],
        ]);
        let with_layer = Simulator::from_instance(&multi)
            .run_multi(&mut GreedyBalancePolicy)
            .unwrap();
        let without = Simulator::from_instance(&base_only)
            .run_multi(&mut GreedyBalancePolicy)
            .unwrap();
        assert!(
            with_layer.makespan > without.makespan,
            "{} vs {}",
            with_layer.makespan,
            without.makespan
        );
    }

    #[test]
    fn single_resource_multi_run_matches_the_scalar_run() {
        let sim = Simulator::new(small_workload());
        for mut policy in standard_policies() {
            let scalar = sim.run(policy.as_mut()).unwrap().report;
            let multi = sim.run_multi(policy.as_mut()).unwrap();
            assert_eq!(multi.resources, 1, "{}", scalar.policy);
            assert_eq!(multi.makespan, scalar.makespan, "{}", scalar.policy);
            assert_eq!(multi.capacities, vec![scalar.capacity]);
            assert_eq!(multi.consumed_units, vec![scalar.consumed_units]);
            assert_eq!(
                multi.wasted_units_per_step,
                vec![scalar.wasted_units_per_step.clone()]
            );
            assert_eq!(multi.per_core, scalar.per_core);
        }
    }

    #[test]
    fn multi_run_detects_starving_policies_and_cancellation() {
        struct DoNothing;
        impl OnlinePolicy for DoNothing {
            fn name(&self) -> &'static str {
                "DoNothing"
            }
            fn allocate(&mut self, _capacity: u64, cores: &[CoreView]) -> Vec<u64> {
                vec![0; cores.len()]
            }
        }
        let inst = two_resource_instance();
        let sim = Simulator::from_instance(&inst).with_step_limit(8);
        assert_eq!(
            sim.run_multi(&mut DoNothing).unwrap_err(),
            SimError::StepLimit {
                policy: "DoNothing".to_string(),
                limit: 8
            }
        );
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            Simulator::from_instance(&inst)
                .run_multi_cancellable(&mut GreedyBalancePolicy, &token)
                .unwrap_err(),
            SimError::Cancelled {
                reason: CancelReason::Cancelled
            }
        );
    }

    #[test]
    fn grid_overflow_is_reported_not_panicked() {
        // Pairwise-coprime huge prime denominators overflow the u64 grid.
        let primes: [i128; 4] = [4_294_967_291, 4_294_967_279, 4_294_967_231, 4_294_967_197];
        let tasks = vec![Task::new(
            "huge-grid",
            primes.map(|p| Phase::unit(ratio(1, p))).to_vec(),
        )];
        let sim = Simulator::new(tasks);
        assert_eq!(
            sim.run(&mut GreedyBalancePolicy).unwrap_err(),
            SimError::GridOverflow
        );
    }
}
