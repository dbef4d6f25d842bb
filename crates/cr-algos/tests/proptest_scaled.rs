//! Property tests pinning the exact solvers to independent references.
//!
//! Instances are generated on a random grid `1/den` including the 0% and
//! 100% extremes, plus all-equal-requirement degenerate grids.  On every
//! instance the integer DP of `opt_two` must match the sparse DP, which
//! runs in `Ratio` arithmetic, and `opt_m` must match the memoized brute
//! force, which shares its successors but not its domination filter;
//! [`ScaledInstance`] must round-trip every requirement exactly.

use cr_algos::{
    brute_force_makespan, opt_m_makespan, opt_two_makespan, opt_two_makespan_sparse, OptM, OptTwo,
    Scheduler,
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
    fn opt_two_matches_the_sparse_reference(
        den in 1u64..=36,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=6), 2..=2),
    ) {
        let inst = instance_from(den, &rows);
        let scaled = opt_two_makespan(&inst);
        prop_assert_eq!(scaled, opt_two_makespan_sparse(&inst));
        prop_assert_eq!(OptTwo::new().schedule(&inst).makespan(&inst).unwrap(), scaled);
    }

    #[test]
    fn opt_m_matches_brute_force(
        den in 1u64..=24,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=3), 2..=3),
    ) {
        let inst = instance_from(den, &rows);
        let scaled = opt_m_makespan(&inst);
        prop_assert_eq!(scaled, brute_force_makespan(&inst));
        let schedule = OptM::new().schedule(&inst);
        prop_assert_eq!(schedule.makespan(&inst).unwrap(), scaled);
    }

    #[test]
    fn brute_force_matches_the_sparse_reference(
        den in 1u64..=24,
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=4), 2..=2),
    ) {
        let inst = instance_from(den, &rows);
        prop_assert_eq!(brute_force_makespan(&inst), opt_two_makespan_sparse(&inst));
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
        if m <= 3 {
            prop_assert_eq!(scaled, brute_force_makespan(&inst));
        }
        if m == 2 {
            prop_assert_eq!(scaled, opt_two_makespan(&inst));
            prop_assert_eq!(scaled, opt_two_makespan_sparse(&inst));
        }
    }
}
