//! Property tests pinning the scheduling layer's unit-grid rules to their
//! `Ratio` reference paths, in the style of `proptest_scaled`.
//!
//! Instances are generated on a random grid `1/den` including the 0% and
//! 100% extremes (plus fractional volumes for the arbitrary-size variants);
//! on every instance the production path and the `schedule_rational`
//! reference of GreedyBalance, RoundRobin and all four heuristics must
//! produce **bit-identical schedules** (which implies equal makespans), every
//! schedule must be feasible, the registry must return the same schedule
//! with the makespan its `Ratio` trace reports, and GreedyBalance must stay
//! non-wasting (Definition 5) and balanced.

use cr_algos::solver::{registry, SolveRequest};
use cr_algos::{
    EqualShare, GreedyBalance, LargestRequirementFirst, ProportionalShare, RoundRobin, Scheduler,
    SmallestRequirementFirst,
};
use cr_core::properties::{is_balanced, is_non_wasting, is_progressive};
use cr_core::{Instance, Job, Ratio};
use proptest::prelude::*;

/// Builds a unit-size instance from per-processor tick counts on the grid
/// `1/den`.  Ticks are drawn in percent (0..=100) and snapped onto the grid,
/// so 0% and 100% shares stay representable for every `den`.
fn instance_from(den: u64, rows: &[Vec<u64>]) -> Instance {
    let reqs = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|&pct| Ratio::from_parts(pct * den / 100, den))
                .collect()
        })
        .collect();
    Instance::unit_from_requirements(reqs)
}

/// Builds an arbitrary-size instance: requirements as in [`instance_from`],
/// volumes drawn in half-steps `v/2` with `v ∈ 1..=6` (so workload
/// denominators exercise the extended unit grid, and zero-requirement jobs
/// get fractional free-running lengths).
fn sized_instance_from(den: u64, rows: &[Vec<(u64, u64)>]) -> Instance {
    let jobs = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|&(pct, vol)| {
                    Job::new(
                        Ratio::from_parts(pct * den / 100, den),
                        Ratio::from_parts(vol, 2),
                    )
                })
                .collect()
        })
        .collect();
    Instance::new(jobs).expect("generated instance is valid")
}

/// Asserts one scheduler's production path against its rational reference,
/// the model's feasibility constraints and the registry's answer (`name`
/// is the registry key).
fn assert_paths_agree(
    name: &str,
    instance: &Instance,
    scaled: &cr_core::Schedule,
    rational: &cr_core::Schedule,
) -> Result<(), TestCaseError> {
    prop_assert!(scaled == rational, "{} paths diverged", name);
    let trace = scaled.trace(instance).expect("feasible schedule");
    prop_assert!(
        trace.makespan() == rational.makespan(instance).unwrap(),
        "{} makespans diverged",
        name
    );
    // The registry reports the stepper's step count; the `Ratio` trace of
    // the schedule it returns must end at the same step.
    let outcome = registry()
        .solve(&SolveRequest::new(name, instance.clone()).with_schedule())
        .expect("the registry answers");
    prop_assert!(
        outcome.schedule.as_ref() == Some(scaled),
        "{} registry schedule",
        name
    );
    prop_assert!(
        outcome.makespan == Some(trace.makespan()),
        "{} registry makespan {:?} vs traced {}",
        name,
        outcome.makespan,
        trace.makespan()
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn unit_size_schedulers_scaled_matches_rational(
        den in 1u64..=48,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=6), 1..=4),
    ) {
        let inst = instance_from(den, &rows);
        assert_paths_agree(
            "GreedyBalance",
            &inst,
            &GreedyBalance::new().schedule(&inst),
            &GreedyBalance::new().schedule_rational(&inst),
        )?;
        assert_paths_agree(
            "RoundRobin",
            &inst,
            &RoundRobin::new().schedule(&inst),
            &RoundRobin::new().schedule_rational(&inst),
        )?;
        assert_paths_agree(
            "EqualShare",
            &inst,
            &EqualShare::new().schedule(&inst),
            &EqualShare::new().schedule_rational(&inst),
        )?;
        assert_paths_agree(
            "ProportionalShare",
            &inst,
            &ProportionalShare::new().schedule(&inst),
            &ProportionalShare::new().schedule_rational(&inst),
        )?;
        assert_paths_agree(
            "LargestRequirementFirst",
            &inst,
            &LargestRequirementFirst::new().schedule(&inst),
            &LargestRequirementFirst::new().schedule_rational(&inst),
        )?;
        assert_paths_agree(
            "SmallestRequirementFirst",
            &inst,
            &SmallestRequirementFirst::new().schedule(&inst),
            &SmallestRequirementFirst::new().schedule_rational(&inst),
        )?;
    }

    #[test]
    fn sized_schedulers_scaled_matches_rational(
        den in 1u64..=24,
        rows in prop::collection::vec(
            prop::collection::vec((0u64..=100, 1u64..=6), 1..=4),
            1..=4,
        ),
    ) {
        let inst = sized_instance_from(den, &rows);
        assert_paths_agree(
            "GreedyBalance",
            &inst,
            &GreedyBalance::new().schedule(&inst),
            &GreedyBalance::new().schedule_rational(&inst),
        )?;
        assert_paths_agree(
            "RoundRobin",
            &inst,
            &RoundRobin::new().schedule(&inst),
            &RoundRobin::new().schedule_rational(&inst),
        )?;
        assert_paths_agree(
            "EqualShare",
            &inst,
            &EqualShare::new().schedule(&inst),
            &EqualShare::new().schedule_rational(&inst),
        )?;
        assert_paths_agree(
            "ProportionalShare",
            &inst,
            &ProportionalShare::new().schedule(&inst),
            &ProportionalShare::new().schedule_rational(&inst),
        )?;
    }

    /// GreedyBalance's structural guarantees survive the move to the scaled
    /// engine: non-wasting and progressive on the full range including the
    /// 0% and 100% extremes.
    #[test]
    fn greedy_balance_stays_non_wasting(
        den in 1u64..=48,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=6), 1..=4),
    ) {
        let inst = instance_from(den, &rows);
        let trace = GreedyBalance::new()
            .schedule(&inst)
            .trace(&inst)
            .expect("feasible schedule");
        prop_assert!(is_non_wasting(&trace), "non-wastingness violated");
        prop_assert!(is_progressive(&trace));
    }

    /// On strictly positive requirements GreedyBalance additionally stays
    /// balanced (Definition 5, the premise of Theorems 7/8).  Requirements
    /// of exactly zero are excluded here: a zero-requirement job completes
    /// "for free" on a lagging processor even when a processor with more
    /// remaining jobs receives no resource, which violates the letter of the
    /// definition for any serving order (this matches the rational path and
    /// predates the scaled engine).
    #[test]
    fn greedy_balance_stays_balanced_on_positive_requirements(
        den in 1u64..=48,
        rows in prop::collection::vec(prop::collection::vec(1u64..=100, 1..=6), 1..=4),
    ) {
        // Snap every requirement up to at least one grid tick so it stays
        // strictly positive after the percent-to-grid conversion.
        let reqs: Vec<Vec<Ratio>> = rows
            .iter()
            .map(|row| {
                row.iter()
                    .map(|&pct| Ratio::from_parts((pct * den / 100).max(1), den))
                    .collect()
            })
            .collect();
        let inst = Instance::unit_from_requirements(reqs);
        let trace = GreedyBalance::new()
            .schedule(&inst)
            .trace(&inst)
            .expect("feasible schedule");
        prop_assert!(is_balanced(&trace), "Definition 5 balancedness violated");
    }

    /// The splitting heuristics never waste resource a job could still use:
    /// while the active demands oversubscribe the pool, the whole pool is
    /// assigned (the property the old SHARE_GRID floor violated).
    #[test]
    fn splitters_assign_the_whole_pool_when_oversubscribed(
        den in 1u64..=48,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=5), 1..=4),
    ) {
        let inst = instance_from(den, &rows);
        for schedule in [
            EqualShare::new().schedule(&inst),
            ProportionalShare::new().schedule(&inst),
        ] {
            let trace = schedule.trace(&inst).expect("feasible schedule");
            for t in 0..trace.makespan() {
                let demand: Ratio = (0..inst.processors())
                    .filter(|&i| trace.is_active(t, i))
                    .map(|i| {
                        let id = trace.active_job(t, i).unwrap();
                        inst.job(id).requirement * trace.remaining_before(t, i).min(Ratio::ONE)
                    })
                    .sum();
                if demand >= Ratio::ONE {
                    prop_assert!(
                        trace.assigned_total(t) == Ratio::ONE,
                        "pool under-assigned in step {t} despite oversubscription"
                    );
                }
            }
        }
    }
}
