//! The `optm.certified` counter rises by exactly the number of OptM answers
//! certified by bounds, from whichever of the six rules meets the bound,
//! and a certified answer runs no search round.
//!
//! Engine counters live in the process-global registry, so this check runs
//! in a test binary of its own: no other test can move them in between.

#![cfg(not(feature = "obs-off"))]

use cr_algos::solver::{registry, Budget, EnginePreference, SolveRequest};
use cr_core::{Instance, InstanceBuilder, Ratio};
use cr_obs::{names, Registry};

fn counter(name: &str) -> u64 {
    Registry::global().counter(name).value()
}

#[test]
fn certified_counter_counts_certified_answers_only() {
    let reg = registry();
    // GreedyBalance meets the trivial bound of 4 here.
    let meets = Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]);
    // GreedyBalance needs 6 steps against a trivial bound of 5, and no
    // other rule meets it either.
    let misses =
        Instance::unit_from_percentages(&[&[20, 10, 10, 10], &[50, 55, 90, 55, 10], &[50, 40, 95]]);
    // Three `exact-frontier` instances (set ids 3, 5 and 13) on which
    // GreedyBalance ends one step above the trivial bound and another rule
    // meets it: (grid, trivial bound, a rule that meets it).
    let beyond_greedy = [
        (
            Instance::unit_from_percentages(&[
                &[71, 7, 35],
                &[70, 49, 91],
                &[78, 47, 96],
                &[43, 88, 18],
            ]),
            7,
            "SmallestRequirementFirst",
        ),
        (
            Instance::unit_from_percentages(&[
                &[95, 92, 23],
                &[76, 85, 2],
                &[73, 46, 63],
                &[34, 2, 40],
            ]),
            7,
            "ProportionalShare",
        ),
        (
            Instance::unit_from_percentages(&[
                &[75, 7, 50],
                &[7, 82, 80],
                &[35, 82, 48],
                &[14, 7, 12],
            ]),
            5,
            "SmallestRequirementFirst",
        ),
    ];
    let makespan = |method: &str, inst: &Instance| {
        reg.solve(&SolveRequest::new(method, inst.clone()))
            .unwrap()
            .makespan
    };
    for (inst, trivial, rule) in &beyond_greedy {
        assert_eq!(makespan("GreedyBalance", inst), Some(trivial + 1));
        assert_eq!(makespan(rule, inst), Some(*trivial), "{rule}");
    }
    let two_resources = InstanceBuilder::new()
        .processor([Ratio::from_percent(60), Ratio::from_percent(40)])
        .processor([Ratio::from_percent(30), Ratio::from_percent(90)])
        .extra_layer([
            vec![Ratio::from_percent(25), Ratio::from_percent(75)],
            vec![Ratio::from_percent(70), Ratio::from_percent(10)],
        ])
        .build();

    let certified = [
        SolveRequest::new("OptM", meets.clone()),
        SolveRequest::new("OptM", meets.clone()).with_engine(EnginePreference::Scaled),
        // `rational` runs like `auto` on the exact methods.
        SolveRequest::new("OptM", meets.clone()).with_engine(EnginePreference::Rational),
        SolveRequest::new("OptM", meets.clone()).with_budget(Budget {
            max_rounds: Some(4),
            max_steps: Some(4),
            ..Budget::UNLIMITED
        }),
    ];
    let (before, rounds_before) = (counter(names::OPTM_CERTIFIED), counter(names::OPTM_ROUNDS));
    for request in &certified {
        assert_eq!(reg.solve(request).unwrap().makespan, Some(4));
    }
    for (inst, trivial, _) in &beyond_greedy {
        let answer = reg.solve(&SolveRequest::new("OptM", inst.clone())).unwrap();
        assert_eq!(answer.makespan, Some(*trivial));
        assert_eq!(answer.lower_bounds.trivial, *trivial);
    }
    // Two resources certify the same way.
    let answer = reg
        .solve(&SolveRequest::new("OptM", two_resources))
        .unwrap();
    assert_eq!(answer.makespan, Some(answer.lower_bounds.trivial));
    assert_eq!(counter(names::OPTM_CERTIFIED), before + 8);
    assert_eq!(counter(names::OPTM_ROUNDS), rounds_before, "no search ran");

    // A schedule request still searches, and reaches the certified makespan.
    for (inst, trivial, _) in &beyond_greedy {
        let rounds = counter(names::OPTM_ROUNDS);
        let request = SolveRequest::new("OptM", inst.clone()).with_schedule();
        assert_eq!(reg.solve(&request).unwrap().makespan, Some(*trivial));
        assert!(counter(names::OPTM_ROUNDS) > rounds, "searched");
    }
    let searched = [
        SolveRequest::new("OptM", meets.clone()).with_schedule(),
        SolveRequest::new("OptM", misses),
    ];
    for request in &searched {
        reg.solve(request).unwrap();
    }
    let over_budget = SolveRequest::new("OptM", meets).with_budget(Budget {
        max_rounds: Some(3),
        ..Budget::UNLIMITED
    });
    assert_eq!(
        reg.solve(&over_budget).unwrap_err().kind(),
        "budget_exhausted"
    );
    assert_eq!(counter(names::OPTM_CERTIFIED), before + 8);
    assert!(counter(names::OPTM_ROUNDS) > rounds_before);
}
