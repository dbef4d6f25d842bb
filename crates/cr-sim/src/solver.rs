//! Online simulator policies behind the unified [`Solver`] interface.
//!
//! This makes the online methods selectable from the same string-keyed
//! registry as the offline algorithms: `cr_algos::solver::registry()` plus
//! [`register_online`] yields one line-up spanning both worlds, which is
//! what the batch solver service in `cr-service` serves.
//!
//! Online methods are registered under `sim:`-prefixed keys
//! ([`ONLINE_METHODS`]).  A [`SolveRequest`] routed to them may carry
//! **arrival traces** (`SolveRequest::arrivals`): core `i` is invisible to
//! the policy — and receives no bandwidth — before step `arrivals[i]`, as
//! if its task arrived at that point of the trace.  The reported makespan
//! includes the waiting.
//!
//! Engine contract: the simulator is integer-native (it *is* the scaled
//! engine — a credit-based arbiter on the workload's unit grid), so
//! [`EnginePreference::Rational`] is rejected with
//! [`SolveError::EngineUnavailable`] and both `Auto` and `Scaled` run the
//! integer engine.  A workload whose grid overflows `u64` fails with
//! [`SolveError::GridOverflow`].  [`Budget::max_steps`](cr_algos::solver::Budget::max_steps) is enforced as a
//! hard simulation step limit — the run genuinely stops at the limit.
//!
//! Multi-resource requests (`k ≥ 2` resource layers) run through
//! [`Simulator::run_multi_cancellable`] and report the makespan only: the
//! CRSharing schedule format is single-resource, so `want_schedule` on such
//! a request fails with [`SolveError::ResourceMismatch`].  Arrival traces
//! compose with multi-resource workloads — the gate masks every layer of an
//! unarrived core.

use crate::engine::{SimError, Simulator};
use crate::policies::{
    CoreView, EqualSharePolicy, GreedyBalancePolicy, MultiCoreView, OnlinePolicy,
    ProportionalSharePolicy, RoundRobinPolicy,
};
use cr_algos::solver::{
    BudgetKind, Engine, EnginePreference, Prepared, Registry, SolveError, SolveOutcome,
    SolveRequest, Solver,
};
use cr_core::CancelToken;

/// Registry keys of the online simulator methods, in line-up order.
pub const ONLINE_METHODS: [&str; 4] = [
    "sim:GreedyBalance",
    "sim:RoundRobin",
    "sim:EqualShare",
    "sim:ProportionalShare",
];

/// Which built-in policy an [`OnlinePolicySolver`] simulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PolicyKind {
    GreedyBalance,
    RoundRobin,
    EqualShare,
    ProportionalShare,
}

impl PolicyKind {
    fn method(self) -> &'static str {
        match self {
            PolicyKind::GreedyBalance => "sim:GreedyBalance",
            PolicyKind::RoundRobin => "sim:RoundRobin",
            PolicyKind::EqualShare => "sim:EqualShare",
            PolicyKind::ProportionalShare => "sim:ProportionalShare",
        }
    }

    /// A fresh policy instance (policies are stateful across steps, so every
    /// solve gets its own).
    fn make(self) -> Box<dyn OnlinePolicy> {
        match self {
            PolicyKind::GreedyBalance => Box::new(GreedyBalancePolicy),
            PolicyKind::RoundRobin => Box::new(RoundRobinPolicy),
            PolicyKind::EqualShare => Box::new(EqualSharePolicy),
            PolicyKind::ProportionalShare => Box::new(ProportionalSharePolicy),
        }
    }
}

/// Masks cores whose task has not arrived yet: before step `arrivals[i]`
/// the inner policy sees core `i` as inactive and any share it would assign
/// there is withheld.
struct ArrivalGate {
    arrivals: Vec<usize>,
    step: usize,
    inner: Box<dyn OnlinePolicy>,
}

impl OnlinePolicy for ArrivalGate {
    fn name(&self) -> &'static str {
        "ArrivalGated"
    }

    // The default multi lift calls `allocate` once per resource layer, but
    // the gate's step counter must advance once per *step* — so the gate
    // overrides the lift: mask every layer of an unarrived core, delegate
    // to the inner policy's own lift, withhold the masked rows, and only
    // then advance the step.
    fn allocate_multi(&mut self, capacities: &[u64], cores: &[MultiCoreView]) -> Vec<Vec<u64>> {
        let masked: Vec<MultiCoreView> = cores
            .iter()
            .enumerate()
            .map(|(i, view)| {
                if self.arrivals[i] > self.step {
                    MultiCoreView::idle(capacities.len())
                } else {
                    view.clone()
                }
            })
            .collect();
        let mut shares = self.inner.allocate_multi(capacities, &masked);
        for (i, row) in shares.iter_mut().enumerate() {
            if self.arrivals[i] > self.step {
                row.iter_mut().for_each(|share| *share = 0);
            }
        }
        self.step += 1;
        shares
    }

    fn allocate(&mut self, capacity: u64, cores: &[CoreView]) -> Vec<u64> {
        let masked: Vec<CoreView> = cores
            .iter()
            .enumerate()
            .map(|(i, view)| {
                if self.arrivals[i] > self.step {
                    CoreView {
                        active_requirement: None,
                        step_demand: 0,
                        remaining_workload: 0,
                        remaining_phases: 0,
                    }
                } else {
                    *view
                }
            })
            .collect();
        let mut shares = self.inner.allocate(capacity, &masked);
        for (i, share) in shares.iter_mut().enumerate() {
            if self.arrivals[i] > self.step {
                *share = 0;
            }
        }
        self.step += 1;
        shares
    }
}

/// One online policy as a [`Solver`] (see the module docs for the
/// engine/arrival/budget contract).
#[derive(Debug, Clone, Copy)]
pub struct OnlinePolicySolver {
    kind: PolicyKind,
}

impl Solver for OnlinePolicySolver {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        self.solve_cancellable(request, prepared, &CancelToken::never())
    }

    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        let method = self.kind.method();
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        if request.engine == EnginePreference::Rational {
            return Err(SolveError::EngineUnavailable {
                method: method.to_string(),
                engine: request.engine,
            });
        }
        // Multi-resource workloads simulate fine (the engine arbitrates
        // every layer), but the CRSharing schedule format is
        // single-resource — a schedule request on a k ≥ 2 instance is a
        // structured client error, not a silent omission.
        let multi = request.instance.resources() > 1;
        if multi && request.want_schedule {
            return Err(SolveError::ResourceMismatch {
                method: method.to_string(),
                resources: request.instance.resources(),
            });
        }
        let mut sim = Simulator::from_instance(&request.instance);
        let default_limit = request.budget.max_steps.is_none();
        match request.budget.max_steps {
            Some(limit) => sim = sim.with_step_limit(limit),
            None => {
                // The default watchdog is sized for tasks present at t = 0;
                // a late arrival legitimately stretches the makespan by its
                // waiting time, so widen the watchdog by the latest arrival
                // instead of reporting a spurious budget error.
                if let Some(arrivals) = &request.arrivals {
                    let latest = arrivals.iter().copied().max().unwrap_or(0);
                    let limit = sim.step_limit().saturating_add(latest);
                    sim = sim.with_step_limit(limit);
                }
            }
        }

        let mut policy: Box<dyn OnlinePolicy> = match &request.arrivals {
            Some(arrivals) => {
                if arrivals.len() != request.instance.processors() {
                    return Err(SolveError::InvalidArrivals {
                        expected: request.instance.processors(),
                        found: arrivals.len(),
                    });
                }
                Box::new(ArrivalGate {
                    arrivals: arrivals.clone(),
                    step: 0,
                    inner: self.kind.make(),
                })
            }
            None => self.kind.make(),
        };

        let map_sim_error = |err: SimError| match err {
            SimError::GridOverflow => SolveError::GridOverflow {
                method: method.to_string(),
            },
            SimError::StepLimit { limit, .. } => {
                // With an explicit budget this is the requested cutoff; the
                // default limit is the engine's starvation watchdog — both
                // are step budgets from the caller's point of view.
                debug_assert!(default_limit || Some(limit) == request.budget.max_steps);
                SolveError::BudgetExhausted {
                    method: method.to_string(),
                    kind: BudgetKind::Steps,
                    limit,
                }
            }
            SimError::Cancelled { reason } => SolveError::DeadlineExceeded { reason },
        };

        if multi {
            let report = sim
                .run_multi_cancellable(policy.as_mut(), &token)
                .map_err(map_sim_error)?;
            return Ok(SolveOutcome {
                method: method.to_string(),
                engine: Engine::Scaled,
                fallbacks: Vec::new(),
                makespan: Some(report.makespan),
                steps: report.makespan,
                rounds: 0,
                schedule: None,
                lower_bounds: prepared.lower_bounds,
            });
        }

        // Only a schedule request pays for the share log.
        let (report, stepper) = sim
            .simulate(policy.as_mut(), &token, request.want_schedule)
            .map_err(map_sim_error)?;
        Ok(SolveOutcome {
            method: method.to_string(),
            engine: Engine::Scaled,
            fallbacks: Vec::new(),
            makespan: Some(report.makespan),
            steps: report.makespan,
            rounds: 0,
            schedule: request.want_schedule.then(|| stepper.finish()),
            lower_bounds: prepared.lower_bounds,
        })
    }
}

/// Registers the four online simulator methods on top of an (offline)
/// registry, so online and offline methods are selectable from one line-up.
pub fn register_online(registry: &mut Registry) {
    for kind in [
        PolicyKind::GreedyBalance,
        PolicyKind::RoundRobin,
        PolicyKind::EqualShare,
        PolicyKind::ProportionalShare,
    ] {
        registry.register(kind.method(), Box::new(OnlinePolicySolver { kind }));
    }
}

/// The full combined registry: every offline method of
/// [`cr_algos::solver::registry`] plus the online simulator methods.
#[must_use]
pub fn full_registry() -> Registry {
    let mut registry = cr_algos::solver::registry();
    register_online(&mut registry);
    registry
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{ratio, Instance, Ratio};

    fn workload() -> Instance {
        Instance::unit_from_requirements(vec![
            vec![ratio(9, 10), ratio(8, 10)],
            vec![ratio(1, 10), ratio(1, 10)],
            vec![ratio(6, 10), ratio(5, 10)],
        ])
    }

    #[test]
    fn online_methods_are_in_the_combined_registry() {
        let registry = full_registry();
        for method in ONLINE_METHODS {
            assert!(registry.get(method).is_some(), "{method} missing");
        }
        // Offline methods remain selectable.
        assert!(registry.get("OptM").is_some());
    }

    #[test]
    fn online_solve_matches_the_simulator() {
        let inst = workload();
        let outcome = full_registry()
            .solve(&SolveRequest::new("sim:GreedyBalance", inst.clone()).with_schedule())
            .unwrap();
        let direct = Simulator::from_instance(&inst)
            .run(&mut GreedyBalancePolicy)
            .unwrap();
        assert_eq!(outcome.makespan, Some(direct.report.makespan));
        assert_eq!(outcome.schedule.unwrap(), direct.schedule);
        assert_eq!(outcome.engine, Engine::Scaled);
    }

    #[test]
    fn makespan_only_requests_answer_as_schedule_requests_do() {
        // A makespan-only run keeps no share log; it reports the same
        // makespan and steps, with arrivals too.
        let registry = full_registry();
        for method in ONLINE_METHODS {
            for arrivals in [None, Some(vec![0, 3, 1])] {
                let mut request = SolveRequest::new(method, workload());
                request.arrivals = arrivals;
                let plain = registry.solve(&request).unwrap();
                let full = registry.solve(&request.with_schedule()).unwrap();
                assert_eq!(full.steps, full.schedule.as_ref().unwrap().num_steps());
                assert_eq!(
                    plain,
                    SolveOutcome {
                        schedule: None,
                        ..full
                    },
                    "{method}"
                );
            }
        }
    }

    #[test]
    fn rational_engine_is_unavailable_online() {
        let err = full_registry()
            .solve(
                &SolveRequest::new("sim:EqualShare", workload())
                    .with_engine(EnginePreference::Rational),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "engine_unavailable");
    }

    #[test]
    fn arrivals_delay_cores_and_lengthen_the_makespan() {
        let inst = workload();
        let registry = full_registry();
        let immediate = registry
            .solve(&SolveRequest::new("sim:GreedyBalance", inst.clone()))
            .unwrap()
            .makespan
            .unwrap();
        let delayed = registry
            .solve(
                &SolveRequest::new("sim:GreedyBalance", inst.clone())
                    .with_arrivals(vec![0, 0, 6])
                    .with_schedule(),
            )
            .unwrap();
        assert!(
            delayed.makespan.unwrap() > immediate,
            "a late arrival must delay completion ({} vs {immediate})",
            delayed.makespan.unwrap()
        );
        // Before its arrival step the gated core receives nothing.
        let schedule = delayed.schedule.unwrap();
        let trace = schedule.trace(&inst).unwrap();
        for step in 0..6 {
            assert_eq!(trace.assigned(step, 2), Ratio::ZERO, "step {step}");
        }
        assert_eq!(
            full_registry()
                .solve(&SolveRequest::new("sim:GreedyBalance", inst).with_arrivals(vec![0, 0]))
                .unwrap_err()
                .kind(),
            "invalid_arrivals"
        );
    }

    fn multi_workload() -> Instance {
        cr_core::InstanceBuilder::new()
            .processor([ratio(1, 10), ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4), ratio(3, 4)], vec![ratio(3, 4)]])
            .build()
    }

    #[test]
    fn multi_resource_requests_simulate_makespan_only() {
        let inst = multi_workload();
        let registry = full_registry();
        for method in ONLINE_METHODS {
            let outcome = registry
                .solve(&SolveRequest::new(method, inst.clone()))
                .unwrap();
            let direct = Simulator::from_instance(&inst);
            // The solver reports exactly what the engine's multi run does.
            let mut policy: Box<dyn OnlinePolicy> = match method {
                "sim:GreedyBalance" => Box::new(GreedyBalancePolicy),
                "sim:RoundRobin" => Box::new(RoundRobinPolicy),
                "sim:EqualShare" => Box::new(EqualSharePolicy),
                _ => Box::new(ProportionalSharePolicy),
            };
            let report = direct.run_multi(policy.as_mut()).unwrap();
            assert_eq!(outcome.makespan, Some(report.makespan), "{method}");
            assert_eq!(outcome.engine, Engine::Scaled);
            assert!(outcome.schedule.is_none());
            // The binding second layer needs at least ⌈9/4 / (3/4)⌉ = 3 steps.
            assert!(report.makespan >= 3, "{method}");
        }
    }

    #[test]
    fn multi_resource_schedule_requests_are_a_structured_error() {
        let err = full_registry()
            .solve(&SolveRequest::new("sim:GreedyBalance", multi_workload()).with_schedule())
            .unwrap_err();
        assert_eq!(err.kind(), "resource_mismatch");
        // The rational engine stays unavailable for multi requests too.
        let err = full_registry()
            .solve(
                &SolveRequest::new("sim:GreedyBalance", multi_workload())
                    .with_engine(EnginePreference::Rational),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "engine_unavailable");
    }

    #[test]
    fn arrivals_gate_multi_resource_cores_once_per_step() {
        let inst = multi_workload();
        let registry = full_registry();
        let immediate = registry
            .solve(&SolveRequest::new("sim:GreedyBalance", inst.clone()))
            .unwrap()
            .makespan
            .unwrap();
        let delayed = registry
            .solve(&SolveRequest::new("sim:GreedyBalance", inst.clone()).with_arrivals(vec![0, 9]))
            .unwrap()
            .makespan
            .unwrap();
        // Core 1 arrives after core 0 could already have finished, so its
        // own work (≥ 1 step on the binding layer) lands strictly later —
        // and the step counter advancing once per step (not once per layer)
        // means the arrival fires at step 9, not step ⌈9/k⌉.
        assert!(
            delayed >= 10,
            "arrival at 9 must push completion past step 9, got {delayed}"
        );
        assert!(delayed > immediate);
    }

    #[test]
    fn cancelled_simulation_solve_reports_deadline_exceeded() {
        let inst = workload();
        let registry = full_registry();
        let prepared = Prepared::new(&inst);
        let token = CancelToken::new();
        token.cancel();
        let err = registry
            .solve_cancellable(
                &SolveRequest::new("sim:GreedyBalance", inst.clone()),
                &prepared,
                &token,
            )
            .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
        // An expired wall budget fires even with a live parent token.
        let err = registry
            .solve_cancellable(
                &SolveRequest::new("sim:GreedyBalance", inst).with_budget(
                    cr_algos::solver::Budget {
                        max_wall_ms: Some(0),
                        ..cr_algos::solver::Budget::UNLIMITED
                    },
                ),
                &prepared,
                &CancelToken::never(),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "deadline_exceeded");
    }

    #[test]
    fn step_budget_is_a_hard_simulation_limit() {
        let err = full_registry()
            .solve(
                &SolveRequest::new("sim:RoundRobin", workload()).with_budget(
                    cr_algos::solver::Budget {
                        max_steps: Some(1),
                        ..cr_algos::solver::Budget::UNLIMITED
                    },
                ),
            )
            .unwrap_err();
        match err {
            SolveError::BudgetExhausted { kind, limit, .. } => {
                assert_eq!(limit, 1);
                assert_eq!(kind, BudgetKind::Steps);
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
    }
}
