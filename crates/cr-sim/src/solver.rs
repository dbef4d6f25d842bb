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
//! if its task arrived at that point of the trace
//! ([`Simulator::with_arrivals`]).  The reported makespan includes the
//! waiting.
//!
//! Engine contract: the simulator is integer-native (it *is* the scaled
//! engine — a credit-based arbiter on the workload's unit grid), so
//! [`EnginePreference::Rational`] is rejected with
//! [`SolveError::EngineUnavailable`] and both `Auto` and `Scaled` run the
//! integer engine.  A workload whose grid overflows `u64` fails with
//! [`SolveError::GridOverflow`] ([`SolveError::ResourceOverflow`] at
//! `k ≥ 2`, as for the offline methods).
//! [`Budget::max_steps`](cr_algos::solver::Budget::max_steps) is enforced
//! as a hard simulation step limit — the run genuinely stops at the limit.
//! The CRSharing schedule format is single-resource, so `want_schedule` on
//! a `k ≥ 2` request fails with [`SolveError::ResourceMismatch`].

use crate::engine::{SimError, Simulator};
use crate::policies::PolicyKind;
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

/// One online policy as a [`Solver`] (see the module docs for the
/// engine/arrival/budget contract).
#[derive(Debug, Clone, Copy)]
pub struct OnlinePolicySolver {
    kind: PolicyKind,
    method: &'static str,
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
        let method = self.method;
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
        if let Some(arrivals) = &request.arrivals {
            if arrivals.len() != request.instance.processors() {
                return Err(SolveError::InvalidArrivals {
                    expected: request.instance.processors(),
                    found: arrivals.len(),
                });
            }
            // The default watchdog is sized for tasks present at t = 0; a
            // late arrival legitimately stretches the makespan by its
            // waiting time, so widen the watchdog by the latest arrival
            // instead of reporting a spurious budget error.
            let latest = arrivals.iter().copied().max().unwrap_or(0);
            let limit = sim.step_limit().saturating_add(latest);
            sim = sim.with_step_limit(limit).with_arrivals(arrivals.clone());
        }
        if let Some(limit) = request.budget.max_steps {
            sim = sim.with_step_limit(limit);
        }

        let mut policy = self.kind.make();
        // Only a schedule request pays for the share log.
        let outcome = sim
            .simulate(
                policy.as_mut(),
                &token,
                request.want_schedule,
                prepared.lower_bounds.trivial,
            )
            .map_err(|err| match err {
                SimError::GridOverflow if multi => SolveError::ResourceOverflow {
                    method: method.to_string(),
                },
                SimError::GridOverflow => SolveError::GridOverflow {
                    method: method.to_string(),
                },
                // With an explicit budget this is the requested cutoff; the
                // default limit is the engine's starvation watchdog — both
                // are step budgets from the caller's point of view.
                SimError::StepLimit { limit, .. } => SolveError::BudgetExhausted {
                    method: method.to_string(),
                    kind: BudgetKind::Steps,
                    limit,
                },
                SimError::Cancelled { reason } => SolveError::DeadlineExceeded { reason },
            })?;
        Ok(SolveOutcome {
            method: method.to_string(),
            engine: Engine::Scaled,
            fallbacks: Vec::new(),
            makespan: Some(outcome.report.makespan),
            steps: outcome.report.makespan,
            rounds: 0,
            schedule: outcome.schedule,
            lower_bounds: prepared.lower_bounds,
        })
    }
}

/// Registers the four online simulator methods on top of an (offline)
/// registry, so online and offline methods are selectable from one line-up.
pub fn register_online(registry: &mut Registry) {
    for (kind, method) in PolicyKind::ALL.into_iter().zip(ONLINE_METHODS) {
        registry.register(method, Box::new(OnlinePolicySolver { kind, method }));
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
    use crate::policies::{standard_policies, GreedyBalancePolicy};
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
        assert_eq!(outcome.schedule, direct.schedule);
        assert_eq!(outcome.engine, Engine::Scaled);
    }

    #[test]
    fn online_methods_follow_the_policy_line_up() {
        let names: Vec<String> = standard_policies()
            .iter()
            .map(|policy| format!("sim:{}", policy.name()))
            .collect();
        assert_eq!(names, ONLINE_METHODS);
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
        let direct = Simulator::from_instance(&inst);
        for (method, mut policy) in ONLINE_METHODS.into_iter().zip(standard_policies()) {
            let outcome = registry
                .solve(&SolveRequest::new(method, inst.clone()))
                .unwrap();
            // The solver reports exactly what the engine's run does.
            let report = direct.run(policy.as_mut()).unwrap().report;
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

    /// A layer whose denominators are four primes near `2^32`: its unit
    /// grid overflows `u64`.
    fn wide_layer() -> Vec<Vec<Ratio>> {
        let primes: [i128; 4] = [4_294_967_291, 4_294_967_279, 4_294_967_231, 4_294_967_197];
        vec![primes.map(|p| ratio(1, p)).to_vec()]
    }

    #[test]
    fn grid_overflow_answers_the_kind_of_the_resource_count() {
        // On the base layer the grid overflows; on an extra layer the
        // resource does, as for the offline methods.
        let single = Instance::unit_from_requirements(wide_layer());
        let multi = cr_core::InstanceBuilder::new()
            .processor([ratio(1, 2); 4])
            .extra_layer(wide_layer())
            .build();
        let registry = full_registry();
        for method in ONLINE_METHODS {
            for engine in [EnginePreference::Auto, EnginePreference::Scaled] {
                for (instance, kind) in [(&single, "grid_overflow"), (&multi, "resource_overflow")]
                {
                    let err = registry
                        .solve(&SolveRequest::new(method, instance.clone()).with_engine(engine))
                        .unwrap_err();
                    assert_eq!(err.kind(), kind, "{method} {engine:?}");
                }
            }
        }
        // The offline methods answer the same kind on the `u64` grid.
        for method in ["GreedyBalance", "OptM"] {
            let request =
                SolveRequest::new(method, multi.clone()).with_engine(EnginePreference::Scaled);
            let err = registry.solve(&request).unwrap_err();
            assert_eq!(err.kind(), "resource_overflow", "{method}");
        }
    }
}
