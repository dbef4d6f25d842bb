//! # cr-algos — scheduling algorithms for the CRSharing problem
//!
//! This crate implements every algorithm analyzed in *"Scheduling Shared
//! Continuous Resources on Many-Cores"* plus the baselines used by the
//! experiment harness:
//!
//! | Algorithm | Paper reference | Guarantee | Type |
//! |-----------|-----------------|-----------|------|
//! | [`RoundRobin`] | §4.2, Theorem 3 | exactly 2-approximate | linear time |
//! | [`GreedyBalance`] | §8.3, Theorems 7–8 | exactly (2 − 1/m)-approximate | linear time |
//! | [`OptTwo`] (`OptResAssignment`) | §6, Algorithm 1, Theorem 5 | optimal for m = 2 | O(n²) |
//! | [`OptM`] (`OptResAssignment2`) | §7, Algorithm 2, Theorem 6 | optimal for fixed m | polynomial for fixed m |
//! | [`brute_force`] | — | optimal (reference) | exponential |
//! | [`heuristics`] | §2 (discrete-continuous heuristics) | none | linear time |
//! | [`arbitrary`] | §9 outlook | — | extensions |
//!
//! All algorithms consume a [`cr_core::Instance`] and produce a
//! [`cr_core::Schedule`] through the shared [`Scheduler`] trait, so they can
//! be swapped freely in experiments.  The [`solver`] module layers the
//! unified request/response surface on top: every algorithm (plus the
//! bounds-only evaluator) is a [`solver::Solver`] behind the string-keyed
//! [`solver::registry`], with engine preferences, budgets and structured
//! [`solver::SolveError`]s — the interface the batch solver service in
//! `cr-service` fans out over.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitrary;
pub mod brute_force;
mod dominance;
pub mod greedy_balance;
pub mod heuristics;
mod multi_engine;
mod multi_sched;
mod obs;
pub mod opt_m;
pub mod opt_two;
#[cfg(test)]
mod pinned;
pub mod round_robin;
pub mod solver;
mod subset_enum;
pub mod traits;

pub use brute_force::{brute_force_makespan, brute_force_with_stats, SearchStats};
pub use greedy_balance::GreedyBalance;
pub use heuristics::{
    EqualShare, LargestRequirementFirst, ProportionalShare, SmallestRequirementFirst,
};
pub use multi_engine::SearchError;
pub use opt_m::{opt_m_makespan, try_opt_m_makespan, OptM};
pub use opt_two::{opt_two_makespan, opt_two_makespan_sparse, OptTwo};
pub use round_robin::{phase_length, round_robin_upper_bound, RoundRobin};
pub use solver::{
    registry, Budget, Engine, EnginePreference, LowerBounds, Prepared, Registry, SolveError,
    SolveOutcome, SolveRequest, Solver,
};
pub use traits::{BoxedScheduler, Scheduler};

/// Commonly used items for glob import.
pub mod prelude {
    pub use crate::{
        brute_force_makespan, opt_m_makespan, opt_two_makespan, registry, EqualShare,
        GreedyBalance, OptM, OptTwo, ProportionalShare, RoundRobin, Scheduler, SolveRequest,
        Solver,
    };
}
