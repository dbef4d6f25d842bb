//! Integration tests tying the online simulator (`cr-sim`) back to the
//! offline algorithms and bounds: the online policies reproduce their
//! offline counterparts' schedules exactly (the engine and the offline
//! schedulers share the scaled-integer semantics), and all policies respect
//! the model's feasibility constraints and lower bounds.

mod common;

use common::unit_instance;
use crsharing::algos::{EqualShare, GreedyBalance, ProportionalShare, RoundRobin, Scheduler};
use crsharing::core::bounds;
use crsharing::instances::{generate_workload, TaskMix, WorkloadConfig};
use crsharing::sim::{
    standard_policies, EqualSharePolicy, GreedyBalancePolicy, ProportionalSharePolicy,
    RoundRobinPolicy, Simulator,
};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The online GreedyBalance policy sees exactly the information the
    /// offline algorithm uses, so simulation and offline scheduling agree
    /// step for step.
    #[test]
    fn online_greedy_matches_offline_greedy(instance in unit_instance(4, 5)) {
        let offline = GreedyBalance::new().schedule(&instance);
        let sim = Simulator::from_instance(&instance);
        let outcome = sim.run(&mut GreedyBalancePolicy).unwrap();
        prop_assert_eq!(outcome.schedule, Some(offline));
    }

    /// The splitting policies also reproduce their offline counterparts:
    /// engine and offline schedulers compute the identical largest-remainder
    /// splits on the identical unit grid.
    #[test]
    fn online_splitters_match_offline_splitters(instance in unit_instance(4, 4)) {
        let sim = Simulator::from_instance(&instance);
        let equal = sim.run(&mut EqualSharePolicy).unwrap();
        prop_assert_eq!(equal.schedule, Some(EqualShare::new().schedule(&instance)));
        let prop = sim.run(&mut ProportionalSharePolicy).unwrap();
        prop_assert_eq!(prop.schedule, Some(ProportionalShare::new().schedule(&instance)));
    }

    /// The online RoundRobin policy needs at most as many steps as the
    /// offline algorithm's analytical bound, and at least the lower bound.
    #[test]
    fn online_round_robin_is_consistent(instance in unit_instance(4, 4)) {
        let sim = Simulator::from_instance(&instance);
        let outcome = sim.run(&mut RoundRobinPolicy).unwrap();
        let offline = RoundRobin::new().makespan(&instance);
        prop_assert!(outcome.report.makespan >= bounds::trivial_lower_bound(&instance));
        // The online variant keeps the phase barriers, so it matches the
        // offline algorithm exactly when all chains have equal length.
        let equal_chains = (0..instance.processors())
            .all(|i| instance.jobs_on(i) == instance.max_chain_length());
        if equal_chains {
            prop_assert_eq!(outcome.report.makespan, offline);
        }
    }

    /// Every built-in policy terminates, produces a feasible schedule and
    /// reports consistent (and exactly-accounted) metrics.
    #[test]
    fn all_policies_are_feasible(instance in unit_instance(4, 4)) {
        let sim = Simulator::from_instance(&instance);
        for mut policy in standard_policies() {
            let outcome = sim.run(policy.as_mut()).unwrap();
            let report = &outcome.report;
            let schedule = outcome.schedule.as_ref().expect("k = 1 runs log a schedule");
            let trace = schedule.trace(&instance).expect("feasible schedule");
            prop_assert_eq!(trace.makespan(), report.makespan);
            prop_assert!(report.utilization[0] <= 1.0 + 1e-9);
            prop_assert!(report.makespan >= report.lower_bound);
            // Exact accounting: consumed + wasted units cover the pool.
            prop_assert_eq!(
                report.consumed_units[0] + report.wasted_units_total(0),
                report.capacities[0] * report.makespan as u64
            );
            for core in &report.per_core {
                prop_assert!(core.completion_time <= report.makespan);
                prop_assert!(core.slowdown() >= 1.0 - 1e-9);
            }
        }
    }
}

#[test]
fn greedy_balance_policy_meets_theorem7_bound_on_workloads() {
    for mix in [
        TaskMix::IoBound,
        TaskMix::Mixed,
        TaskMix::Bursty,
        TaskMix::ComputeBound,
    ] {
        for cores in [4usize, 8, 16] {
            let cfg = WorkloadConfig {
                cores,
                phases_per_task: 6,
                mix,
                denominator: 100,
                unit_phases: true,
            };
            let workload = generate_workload(&cfg, 1234 + cores as u64);
            let sim = Simulator::from_instance(&workload);
            let report = sim.run(&mut GreedyBalancePolicy).unwrap().report;
            assert!(
                report.normalized_makespan() <= 2.0 - 1.0 / cores as f64 + 1e-9,
                "Theorem 7 violated for {mix:?} on {cores} cores: {}",
                report.normalized_makespan()
            );
        }
    }
}

#[test]
fn io_bound_workloads_saturate_the_bus_under_greedy_balance() {
    let cfg = WorkloadConfig {
        cores: 16,
        phases_per_task: 10,
        mix: TaskMix::IoBound,
        denominator: 100,
        unit_phases: true,
    };
    let workload = generate_workload(&cfg, 5);
    let sim = Simulator::from_instance(&workload);
    let report = sim.run(&mut GreedyBalancePolicy).unwrap().report;
    assert!(
        report.utilization[0] > 0.9,
        "bandwidth-bound workload should keep the bus busy, got {}",
        report.utilization[0]
    );
}
