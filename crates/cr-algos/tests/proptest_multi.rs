//! Property tests for the multi-resource (`k ≥ 2`) generalization.
//!
//! Four contracts:
//!
//! * **`k = 1` identity** — an instance built through the layered
//!   constructor with a single layer must produce a byte-identical
//!   [`Result`] (outcome *or* error) to the legacy construction for every
//!   registry method, under both the scaled and the rational engine
//!   preference, schedules included;
//! * **exact-method agreement** — on genuine `k = 2` instances OPT(m)
//!   (bounds, decision or search) and OptTwo must report BruteForce's
//!   makespan, on every engine preference (the `u64` and `u128` grids are
//!   compared in `multi_engine`'s own tests, and every exact method against
//!   an independent oracle in `window_oracle`);
//! * **engine neutrality** — on genuine `k = 2` instances every heuristic
//!   reports the same makespan on all three engine preferences;
//! * **zero-layer neutrality** — an all-zero extra layer adds no
//!   constraints, so the exact multi optimum equals the scalar optimum and
//!   every heuristic keeps its single-resource makespan.

use cr_algos::solver::{registry, EnginePreference, SolveRequest, POLY_METHODS};
use cr_algos::{opt_m_makespan, opt_two_makespan};
use cr_core::{Instance, Ratio};
use proptest::prelude::*;

/// Percent rows snapped onto the grid `1/den` (0% and 100% included).
fn layer_from(den: u64, rows: &[Vec<u64>]) -> Vec<Vec<Ratio>> {
    rows.iter()
        .map(|row| {
            row.iter()
                .map(|&pct| Ratio::from_parts(pct * den / 100, den))
                .collect()
        })
        .collect()
}

/// Every offline registry key, exact and polynomial alike.
const ALL_METHODS: [&str; 10] = [
    "GreedyBalance",
    "RoundRobin",
    "EqualShare",
    "ProportionalShare",
    "LargestRequirementFirst",
    "SmallestRequirementFirst",
    "OptTwo",
    "OptM",
    "BruteForce",
    "Bounds",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn single_layer_instances_are_byte_identical_to_the_scalar_path(
        den in 1u64..=24,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=3), 2..=3),
    ) {
        let layer = layer_from(den, &rows);
        let legacy = Instance::unit_from_requirements(layer.clone());
        let layered = Instance::multi_unit_from_requirements(vec![layer])
            .expect("one layer is always consistent");
        prop_assert_eq!(layered.resources(), 1);
        let reg = registry();
        for method in ALL_METHODS {
            for engine in [EnginePreference::Scaled, EnginePreference::Rational] {
                let solve = |inst: &Instance| {
                    reg.solve(
                        &SolveRequest::new(method, inst.clone())
                            .with_engine(engine)
                            .with_schedule(),
                    )
                };
                let (a, b) = (solve(&layered), solve(&legacy));
                prop_assert!(
                    a == b,
                    "{method}/{engine:?} diverged between constructors: {a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn multi_exact_methods_agree_with_brute_force(
        den in 1u64..=12,
        base in prop::collection::vec(prop::collection::vec(0u64..=100, 2..=2), 2..=3),
        extra_pcts in prop::collection::vec(0u64..=100, 6..=6),
    ) {
        let m = base.len();
        let extra: Vec<Vec<u64>> = (0..m).map(|i| extra_pcts[2 * i..2 * i + 2].to_vec()).collect();
        let inst = Instance::multi_unit_from_requirements(vec![
            layer_from(den, &base),
            layer_from(den, &extra),
        ])
        .expect("layers share the 2-job grid");
        let reg = registry();
        let solve = |method: &str, engine: EnginePreference| {
            reg.solve(&SolveRequest::new(method, inst.clone()).with_engine(engine))
                .unwrap_or_else(|e| panic!("{method}/{engine:?}: {e}"))
                .makespan
                .expect("exact methods report makespans")
        };
        let brute = solve("BruteForce", EnginePreference::Scaled);
        let methods: &[&str] = if m == 2 { &["OptM", "OptTwo"] } else { &["OptM"] };
        for &method in methods {
            for engine in [EnginePreference::Scaled, EnginePreference::Rational] {
                let value = solve(method, engine);
                prop_assert!(
                    value == brute,
                    "{method}/{engine:?} diverged: {value} vs BruteForce {brute}"
                );
            }
        }
    }

    #[test]
    fn heuristics_answer_alike_on_every_engine_preference(
        base in prop::collection::vec(prop::collection::vec(1u64..=100, 3..=3), 3..=3),
        extra in prop::collection::vec(prop::collection::vec(1u64..=100, 3..=3), 3..=3),
    ) {
        let inst = Instance::multi_unit_from_requirements(vec![
            layer_from(100, &base),
            layer_from(100, &extra),
        ])
        .expect("layers share the 3x3 grid");
        let reg = registry();
        for method in POLY_METHODS {
            let solve = |engine: EnginePreference| {
                reg.solve(&SolveRequest::new(method, inst.clone()).with_engine(engine))
                    .unwrap_or_else(|e| panic!("{method}/{engine:?}: {e}"))
                    .makespan
            };
            let auto = solve(EnginePreference::Auto);
            for engine in [EnginePreference::Scaled, EnginePreference::Rational] {
                let value = solve(engine);
                prop_assert!(
                    value == auto,
                    "{method}/{engine:?} answered {value:?}, auto {auto:?}"
                );
            }
        }
    }

    #[test]
    fn zero_extra_layer_never_changes_the_optimum(
        den in 1u64..=12,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=3), 2..=2),
    ) {
        let layer = layer_from(den, &rows);
        let zeros: Vec<Vec<Ratio>> = layer
            .iter()
            .map(|row| vec![Ratio::ZERO; row.len()])
            .collect();
        let scalar = Instance::unit_from_requirements(layer.clone());
        let multi = Instance::multi_unit_from_requirements(vec![layer, zeros])
            .expect("the zero layer mirrors the base grid");
        let reg = registry();
        let makespan = |method: &str, inst: &Instance| {
            reg.solve(&SolveRequest::new(method, inst.clone()))
                .unwrap_or_else(|e| panic!("{method}: {e}"))
                .makespan
                .expect("makespan reported")
        };
        let value = makespan("OptM", &multi);
        prop_assert_eq!(value, opt_m_makespan(&scalar));
        prop_assert_eq!(value, opt_two_makespan(&scalar));
        for method in POLY_METHODS {
            let (single, layered) = (makespan(method, &scalar), makespan(method, &multi));
            prop_assert!(single == layered, "{method}: {layered} with the zero layer, {single} without");
        }
    }
}
