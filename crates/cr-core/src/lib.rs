//! # cr-core — the CRSharing model
//!
//! Core data model for the problem studied in *"Scheduling Shared Continuous
//! Resources on Many-Cores"* (Althaus et al.): `m` identical processors share
//! one continuously divisible resource; each processor carries a fixed
//! sequence of jobs with resource requirements in `[0, 1]`; at every discrete
//! time step the scheduler splits the resource among the processors, and a
//! job granted an `x`-fraction of its requirement advances by `x` units of
//! volume.  The objective is to minimize the makespan.
//!
//! This crate provides:
//!
//! * [`Ratio`] — exact rational arithmetic (all scheduling decisions in this
//!   repository are made exactly, never in floating point);
//! * [`ScaledInstance`] / [`MultiStepper`] — the same requirements (and
//!   workloads) as scaled integer units on the denominators' LCM grid (a
//!   [`GridUnit`]: `u64`, or `u128` past it), the representation the exact
//!   solver cores *and* the scheduling / simulation layer in `cr-algos` /
//!   `cr-sim` run on, for one resource or several (see the `rational`
//!   module docs for the two-representation design);
//! * [`Job`], [`JobId`], [`Instance`], [`InstanceBuilder`] — the problem input;
//! * [`Schedule`], [`ScheduleTrace`], [`ScheduleBuilder`] — resource
//!   assignments, their simulation, validation and makespan;
//! * [`properties`] — the non-wasting / progressive / nested / balanced
//!   schedule properties of Section 4.1;
//! * [`SchedulingGraph`] — the scheduling hypergraph of Section 3.2 with its
//!   connected components and classes;
//! * [`bounds`] — the lower bounds of Observation 1 and Lemmas 5 and 6.
//!
//! The algorithms themselves (RoundRobin, GreedyBalance, the exact dynamic
//! program for two processors and the configuration-domination algorithm for
//! fixed `m`) live in the companion crate `cr-algos`.
//!
//! ## Quick example
//!
//! ```
//! use cr_core::{Instance, Ratio, Schedule};
//!
//! // Two processors; requirements in percent as in the paper's figures.
//! let instance = Instance::unit_from_percentages(&[&[60, 40], &[40, 60]]);
//!
//! // A hand-written schedule: finish one column per step.
//! let schedule = Schedule::new(vec![
//!     vec![Ratio::from_percent(60), Ratio::from_percent(40)],
//!     vec![Ratio::from_percent(40), Ratio::from_percent(60)],
//! ]);
//!
//! assert_eq!(schedule.makespan(&instance).unwrap(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod bounds;
pub mod cancel;
pub mod error;
pub mod hypergraph;
pub mod instance;
pub mod job;
pub mod multi;
pub mod properties;
pub mod rational;
pub mod scaled;
pub mod schedule;
pub mod transform;

pub use cancel::{CancelGate, CancelReason, CancelToken};
pub use error::{InstanceError, ScheduleError};
pub use hypergraph::{Component, SchedulingGraph, UnionFind};
pub use instance::{Instance, InstanceBuilder};
pub use job::{Job, JobId};
pub use multi::MultiStepper;
pub use properties::{PropertyReport, PropertyViolation};
pub use rational::{ratio, Ratio};
pub use scaled::{GridUnit, ScaledInstance};
pub use schedule::{Schedule, ScheduleBuilder, ScheduleTrace};

/// Commonly used items, for glob import in examples and downstream crates.
pub mod prelude {
    pub use crate::bounds;
    pub use crate::properties;
    pub use crate::{
        CancelGate, CancelReason, CancelToken, Instance, InstanceBuilder, Job, JobId, MultiStepper,
        PropertyReport, Ratio, ScaledInstance, Schedule, ScheduleBuilder, ScheduleTrace,
        SchedulingGraph,
    };
}
