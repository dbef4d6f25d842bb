//! Fixture crate: a clean `cr-algos` stand-in.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod brute_force;
pub mod dominance;
pub mod multi_engine;
pub mod opt_m;
pub mod opt_two;
pub mod subset_enum;
pub mod solver;
