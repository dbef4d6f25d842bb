//! The discrete-time simulation engine.
//!
//! The engine owns a workload (one task per core), asks an
//! [`OnlinePolicy`] for every resource layer's share vector in every time
//! step, validates the shares, advances the cores and collects metrics.
//! One step loop serves every `k ≥ 1`: it steps a [`cr_core::MultiStepper`]
//! on `u64` units over all of the workload's resource layers — the exact
//! step simulator the offline heuristics run on: each layer is a pool of
//! `capacity` integer units per step (that layer's unit grid), a policy
//! answers in units, and one simulated step is pure integer arithmetic — no
//! rational arithmetic, no floating point, and every metric (consumption,
//! waste, utilization) is exact.  A finished single-resource run is
//! bit-for-bit a CRSharing [`Schedule`] and can be validated, rendered and
//! analyzed with the rest of the tool chain.

use crate::metrics::{CoreReport, SimReport};
use crate::policies::{CoreView, OnlinePolicy};
use crate::task::{tasks_to_instance, Task};
use cr_core::{bounds, CancelReason, CancelToken, Instance, MultiStepper, Schedule};
use std::fmt;

/// How many simulated steps pass between cancel-token checks in the engine
/// loop: one step costs `O(m · k)` integer work plus `k` policy calls, so
/// even wide workloads check far more often than
/// [`cr_core::cancel::CHECK_INTERVAL_MS`] demands.
const STEP_CHECK_STRIDE: u32 = 64;

/// A simulation of one workload under one policy.
pub struct Simulator {
    tasks: Vec<Task>,
    instance: Instance,
    /// Hard cap on simulated steps, to surface starvation bugs in policies
    /// instead of spinning forever.
    step_limit: usize,
    /// The step at which each core's task arrives; empty when every task is
    /// present from step 0.
    arrivals: Vec<usize>,
}

/// Outcome of a simulation: the aggregate report plus, for a
/// single-resource workload, the full schedule for further inspection.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// Aggregate and per-core metrics.
    pub report: SimReport,
    /// The exact schedule the policy produced; `None` for a workload with
    /// `k ≥ 2` resources, because the CRSharing schedule format is
    /// single-resource.
    pub schedule: Option<Schedule>,
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
    /// A resource layer's unit grid (requirement/workload denominator LCM)
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
        Self::with_tasks(tasks, instance)
    }

    /// Creates a simulator directly from a CRSharing instance (cores are
    /// named `core0`, `core1`, …).  Every resource layer of the instance is
    /// arbitrated.
    #[must_use]
    pub fn from_instance(instance: &Instance) -> Self {
        Self::with_tasks(crate::task::instance_to_tasks(instance), instance.clone())
    }

    fn with_tasks(tasks: Vec<Task>, instance: Instance) -> Self {
        let step_limit = Self::default_step_limit(&tasks);
        Simulator {
            tasks,
            instance,
            step_limit,
            arrivals: Vec::new(),
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

    /// Lets core `i`'s task arrive at step `arrivals[i]`: before it, the
    /// policy sees the core idle and the core receives no share, as if its
    /// task entered the trace at that point.  The makespan includes the
    /// waiting, and a waiting core with work counts its steps as starved.
    ///
    /// # Panics
    ///
    /// Panics if `arrivals` does not hold one step per core.
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: Vec<usize>) -> Self {
        assert_eq!(
            arrivals.len(),
            self.tasks.len(),
            "one arrival step per core"
        );
        self.arrivals = arrivals;
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

    /// Runs the workload to completion under `policy`, arbitrating every
    /// resource layer.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::GridOverflow`] when some layer's unit grid does
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
    /// As for [`Simulator::run`]: a malformed share vector is a policy bug
    /// and panics.
    pub fn run_cancellable(
        &self,
        policy: &mut dyn OnlinePolicy,
        token: &CancelToken,
    ) -> Result<SimOutcome, SimError> {
        let lower_bound = bounds::trivial_lower_bound(&self.instance);
        self.simulate(policy, token, true, lower_bound)
    }

    /// The step loop of [`Simulator::run_cancellable`], with the report's
    /// `lower_bound` given: per step, one [`OnlinePolicy::allocate`] call
    /// per resource layer, base layer first.  Shares are logged, and the
    /// outcome carries the schedule, only when `want_schedule` is set and
    /// the workload has one resource, so a makespan-only caller builds no
    /// [`Schedule`].
    pub(crate) fn simulate(
        &self,
        policy: &mut dyn OnlinePolicy,
        token: &CancelToken,
        want_schedule: bool,
        lower_bound: usize,
    ) -> Result<SimOutcome, SimError> {
        let _run_span = cr_obs::Span::enter(cr_obs::names::SPAN_SIM_RUN);
        let cancelled = |reason: CancelReason| SimError::Cancelled { reason };
        token.check().map_err(cancelled)?;
        let mut gate = token.gate(STEP_CHECK_STRIDE);
        let mut stepper =
            MultiStepper::<u64>::try_new(&self.instance).ok_or(SimError::GridOverflow)?;
        let k = stepper.resources();
        let log = want_schedule && k == 1;
        if log {
            stepper = stepper.log_shares();
        }
        let m = self.instance.processors();
        let capacities: Vec<u64> = stepper.capacities().to_vec();

        // Completion is recorded *before* the first step too, so a core
        // whose task is already empty reports completion time 0 instead of
        // being credited with the first simulated step.
        let mut completion: Vec<Option<usize>> = (0..m)
            .map(|i| (stepper.unfinished_jobs(i) == 0).then_some(0))
            .collect();
        let mut starved = vec![0usize; m];
        let mut consumed_units = vec![0u64; k];
        let mut wasted_units_per_step: Vec<Vec<u64>> = vec![Vec::new(); k];
        let mut views: Vec<CoreView> = Vec::with_capacity(m);
        // Processor-major, as the stepper takes them: `shares[i · k + r]`.
        let mut shares = vec![0u64; m * k];
        // Per core, the most any layer did for it this step: 0 without
        // demand, `HUNGRY` with demand but no useful share, 2 once a layer
        // granted a useful share.  A core that ends the step `HUNGRY` is
        // starved.  (Units of different layers live on different grids, so
        // this is a per-layer predicate, never a cross-layer sum; only an
        // active core has demand.)
        const HUNGRY: u8 = 1;
        let mut served = vec![0u8; m];

        let mut steps = 0usize;
        while !stepper.all_done() {
            gate.tick().map_err(cancelled)?;
            if steps >= self.step_limit {
                return Err(SimError::StepLimit {
                    policy: policy.name().to_string(),
                    limit: self.step_limit,
                });
            }
            let waiting = |i: usize| self.arrivals.get(i).is_some_and(|&at| at > steps);
            // lint: allow(cancel_coverage) — bounded: k resource layers per step; the step loop polls the gate
            for (r, &capacity) in capacities.iter().enumerate() {
                views.clear();
                views.extend((0..m).map(|i| {
                    if waiting(i) {
                        CoreView::IDLE
                    } else {
                        CoreView {
                            active_requirement: stepper.active_requirement(i, r),
                            step_demand: stepper.step_demand(i, r),
                            remaining_workload: stepper.remaining(i, r),
                            remaining_phases: stepper.unfinished_jobs(i),
                        }
                    }
                }));
                let layer = policy.allocate(capacity, &views);
                assert_eq!(
                    layer.len(),
                    m,
                    "policy {} returned {} shares for {} cores",
                    policy.name(),
                    layer.len(),
                    m
                );
                // A waiting core gets nothing, but its real demand counts:
                // with work to do, it is starved.
                // lint: allow(cancel_coverage) — bounded: one pass over m cores per layer; the step loop polls the gate
                for (i, (share, view)) in layer.into_iter().zip(&views).enumerate() {
                    let (share, demand) = if waiting(i) {
                        (0, stepper.step_demand(i, r))
                    } else {
                        (share, view.step_demand)
                    };
                    shares[i * k + r] = share;
                    // A useful share implies demand, so this is 0, 1 or 2.
                    let level = u8::from(demand > 0) + u8::from(share.min(demand) > 0);
                    served[i] = if r == 0 { level } else { served[i].max(level) };
                }
            }
            // The stepper validates the shape, each share and every layer's
            // total, panicking on a malformed share vector.
            let consumed = stepper.push_step(&shares);
            // lint: allow(cancel_coverage) — bounded: k resource layers per step; the step loop polls the gate
            for (r, &used) in consumed.iter().enumerate() {
                consumed_units[r] = consumed_units[r].saturating_add(used);
                wasted_units_per_step[r].push(capacities[r] - used);
            }
            steps += 1;
            // lint: allow(cancel_coverage) — bounded: one pass over m processors per step; the step loop polls the gate
            for (i, done_at) in completion.iter_mut().enumerate() {
                starved[i] += usize::from(served[i] == HUNGRY);
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
            .map(|(&capacity, &used)| {
                let pool = (makespan as u64).saturating_mul(capacity);
                if pool == 0 {
                    0.0
                } else {
                    used as f64 / pool as f64
                }
            })
            .collect();
        let report = SimReport {
            policy: policy.name().to_string(),
            cores: m,
            makespan,
            capacities,
            consumed_units,
            wasted_units_per_step,
            utilization,
            lower_bound,
            per_core,
        };
        crate::obs::record_report(&report);
        Ok(SimOutcome {
            report,
            schedule: log.then(|| stepper.finish()),
        })
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
        let schedule = outcome.schedule.as_ref().unwrap();
        let trace = schedule.trace(sim.instance()).unwrap();
        assert_eq!(trace.makespan(), outcome.report.makespan);
        assert!(outcome.report.makespan >= outcome.report.lower_bound);
        assert!(outcome.report.utilization[0] > 0.0);
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
            let report = &outcome.report;
            let trace = outcome
                .schedule
                .as_ref()
                .unwrap()
                .trace(sim.instance())
                .unwrap();
            let capacity = report.capacities[0];
            // The engine's unit accounting equals the exact rational trace:
            // Σ_t consumed(t) == consumed_units / capacity …
            let traced: cr_core::Ratio = (0..trace.num_steps())
                .map(|t| trace.consumed_total(t))
                .sum();
            assert_eq!(
                traced,
                cr_core::Ratio::new(i128::from(report.consumed_units[0]), i128::from(capacity)),
                "{}",
                report.policy
            );
            // … and the per-step waste series complements it exactly.
            assert_eq!(report.wasted_units_per_step[0].len(), report.makespan);
            assert_eq!(
                report.wasted_units_total(0) + report.consumed_units[0],
                capacity * report.makespan as u64
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
            assert!(r.utilization[0] <= 1.0 + 1e-9);
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
        assert_eq!(cancellable.report, plain.report);
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
            let outcome = sim.run(policy.as_mut()).unwrap();
            assert!(outcome.schedule.is_none(), "{}", outcome.report.policy);
            let report = outcome.report;
            assert_eq!(report.resources(), 2);
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
            .run(&mut GreedyBalancePolicy)
            .unwrap()
            .report;
        let without = Simulator::from_instance(&base_only)
            .run(&mut GreedyBalancePolicy)
            .unwrap()
            .report;
        assert!(
            with_layer.makespan > without.makespan,
            "{} vs {}",
            with_layer.makespan,
            without.makespan
        );
    }

    #[test]
    fn two_resource_runs_never_beat_the_lower_bound() {
        // Every layer is arbitrated, so the binding second layer shows in
        // the makespan, which never undercuts the all-layer lower bound,
        // and the run answers as the registry's `sim:*` method does.
        let inst = two_resource_instance();
        let sim = Simulator::from_instance(&inst);
        let registry = crate::full_registry();
        for (mut policy, method) in standard_policies().into_iter().zip(crate::ONLINE_METHODS) {
            let report = sim.run(policy.as_mut()).unwrap().report;
            assert_eq!(report.lower_bound, 3);
            assert!(
                report.makespan >= report.lower_bound,
                "{}: makespan {} below the lower bound {}",
                report.policy,
                report.makespan,
                report.lower_bound
            );
            let answer = registry
                .solve(&cr_algos::solver::SolveRequest::new(method, inst.clone()))
                .unwrap();
            assert_eq!(answer.makespan, Some(report.makespan), "{method}");
        }
    }

    #[test]
    fn every_layer_is_arbitrated_once_per_step() {
        // Records every call: each step asks the policy once per layer,
        // base layer first, with that layer's capacity and views.
        struct Recording {
            calls: Vec<(u64, Vec<CoreView>)>,
        }
        impl OnlinePolicy for Recording {
            fn name(&self) -> &'static str {
                "Recording"
            }
            fn allocate(&mut self, capacity: u64, cores: &[CoreView]) -> Vec<u64> {
                self.calls.push((capacity, cores.to_vec()));
                GreedyBalancePolicy.allocate(capacity, cores)
            }
        }
        let sim = Simulator::from_instance(&two_resource_instance());
        let mut policy = Recording { calls: Vec::new() };
        let report = sim.run(&mut policy).unwrap().report;
        let greedy = sim.run(&mut GreedyBalancePolicy).unwrap().report;
        assert_eq!(report.makespan, greedy.makespan);
        assert_eq!(policy.calls.len(), 2 * report.makespan);
        for (call, (capacity, views)) in policy.calls.iter().enumerate() {
            assert_eq!(*capacity, report.capacities[call % 2], "call {call}");
            assert_eq!(views.len(), 2);
        }
        // The first step sees the jobs' own demands: 1/10 of the base bus,
        // 3/4 of the second resource, on both cores.
        let (base, second) = (&policy.calls[0].1, &policy.calls[1].1);
        for core in 0..2 {
            assert_eq!(base[core].step_demand * 10, report.capacities[0]);
            assert_eq!(second[core].step_demand * 4, report.capacities[1] * 3);
        }
    }

    #[test]
    fn arrivals_idle_waiting_cores_and_count_them_starved() {
        let sim = Simulator::new(small_workload());
        let prompt = sim.run(&mut GreedyBalancePolicy).unwrap();
        let sim = sim.with_arrivals(vec![0, 0, 3]);
        let outcome = sim.run(&mut GreedyBalancePolicy).unwrap();
        let report = &outcome.report;
        assert_eq!(report.policy, "GreedyBalance");
        assert!(report.makespan > prompt.report.makespan);
        // The late core receives nothing before step 3, and its three
        // waiting steps count as starved.
        let trace = outcome
            .schedule
            .as_ref()
            .unwrap()
            .trace(sim.instance())
            .unwrap();
        for step in 0..3 {
            assert_eq!(trace.assigned(step, 2), cr_core::Ratio::ZERO, "step {step}");
        }
        assert!(report.per_core[2].starved_steps >= 3);
        assert!(report.per_core[2].completion_time > 3);
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
            sim.run(&mut DoNothing).unwrap_err(),
            SimError::StepLimit {
                policy: "DoNothing".to_string(),
                limit: 8
            }
        );
        let token = CancelToken::new();
        token.cancel();
        assert_eq!(
            Simulator::from_instance(&inst)
                .run_cancellable(&mut GreedyBalancePolicy, &token)
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
