//! Property tests pinning the scaled-integer solver engine to the retained
//! rational reference paths (the ISSUE-2 cross-check contract).
//!
//! Instances are generated on a random grid `1/den` including the 0% and
//! 100% extremes, plus all-equal-requirement degenerate grids; on every
//! instance the scaled and rational implementations of `opt_two`, `opt_m`
//! and `brute_force` must report identical optimal makespans, and
//! [`ScaledInstance`] must round-trip every requirement exactly.

use cr_algos::{
    brute_force_makespan, brute_force_makespan_rational, opt_m_makespan, opt_m_makespan_rational,
    opt_two_makespan, opt_two_makespan_rational, opt_two_makespan_sparse, registry,
    EnginePreference, OptM, OptTwo, Scheduler, SolveRequest,
};
use cr_core::{Instance, Ratio, ScaledInstance};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn scaled_instance_round_trips_requirements(
        den in 1u64..=48,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=6), 1..=4),
    ) {
        let inst = instance_from(den, &rows);
        let scaled = ScaledInstance::try_new(&inst).expect("small denominators always scale");
        prop_assert_eq!(scaled.processors(), inst.processors());
        prop_assert_eq!(scaled.total_jobs(), inst.total_jobs());
        for i in 0..inst.processors() {
            prop_assert_eq!(scaled.jobs_on(i), inst.jobs_on(i));
            for (j, job) in inst.processor_jobs(i).iter().enumerate() {
                prop_assert_eq!(scaled.to_ratio(scaled.unit_req(i, j)), job.requirement);
            }
        }
    }

    #[test]
    fn opt_two_scaled_matches_rational(
        den in 1u64..=36,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=6), 2..=2),
    ) {
        let inst = instance_from(den, &rows);
        let scaled = opt_two_makespan(&inst);
        prop_assert_eq!(scaled, opt_two_makespan_rational(&inst));
        prop_assert_eq!(scaled, opt_two_makespan_sparse(&inst));
        prop_assert_eq!(OptTwo::new().schedule(&inst).makespan(&inst).unwrap(), scaled);
    }

    #[test]
    fn opt_m_scaled_matches_rational(
        den in 1u64..=24,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=3), 2..=3),
    ) {
        let inst = instance_from(den, &rows);
        let scaled = opt_m_makespan(&inst);
        prop_assert_eq!(scaled, opt_m_makespan_rational(&inst));
        let schedule = OptM::new().schedule(&inst);
        prop_assert_eq!(schedule.makespan(&inst).unwrap(), scaled);
        // One search on two units: the `Ratio` view replays the very
        // schedule the `u64` view does.
        let request = SolveRequest::new("OptM", inst)
            .with_schedule()
            .with_engine(EnginePreference::Rational);
        let rational = registry().solve(&request).unwrap();
        prop_assert_eq!(rational.schedule, Some(schedule));
    }

    #[test]
    fn brute_force_scaled_matches_rational(
        den in 1u64..=24,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=3), 2..=3),
    ) {
        let inst = instance_from(den, &rows);
        prop_assert_eq!(brute_force_makespan(&inst), brute_force_makespan_rational(&inst));
    }

    #[test]
    fn degenerate_all_equal_grids_agree(
        pct in 0u64..=100,
        m in 2usize..=4,
        n in 1usize..=3,
    ) {
        // Every job shares one requirement — including the 0% and 100%
        // degenerate extremes where whole columns finish together (or the
        // resource serializes completely).  The unpruned brute-force
        // reference is exponential, so it only joins on m ≤ 3.
        let rows: Vec<Vec<u64>> = vec![vec![pct; n]; m];
        let inst = instance_from(100, &rows);
        let scaled = opt_m_makespan(&inst);
        prop_assert_eq!(scaled, opt_m_makespan_rational(&inst));
        if m <= 3 {
            prop_assert_eq!(scaled, brute_force_makespan(&inst));
        }
        if m == 2 {
            prop_assert_eq!(scaled, opt_two_makespan(&inst));
        }
    }
}
