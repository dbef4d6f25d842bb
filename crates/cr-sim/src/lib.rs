//! # cr-sim — a discrete-time many-core shared-bus simulator
//!
//! The paper motivates the CRSharing model with many-core processors whose
//! cores share one memory/I-O bus: when tasks are I/O-bound, the *bandwidth
//! distribution* — not core speed — decides how fast the machine computes.
//! The paper never measures such a platform; this crate provides the
//! synthetic stand-in.  Cores run multi-phase [`Task`]s, a bus arbiter
//! ([`OnlinePolicy`]) splits the bus every time step, and the engine collects
//! makespan, utilization and slowdown metrics.  Every simulation step follows
//! the exact CRSharing semantics on the scaled-integer grid (via
//! `cr_core::MultiStepper`): the bus is a pool of integer bandwidth
//! units, policies answer in units — like a hardware credit-based arbiter —
//! and all consumption/waste metrics are exact.  Simulation results are
//! bit-for-bit CRSharing schedules, directly comparable to the offline
//! algorithms and bounds of `cr-algos`/`cr-core`.  The [`solver`] module
//! exposes every policy through the unified `cr_algos::solver::Solver`
//! interface (with optional per-core arrival traces), so online and offline
//! methods are selectable from one registry ([`full_registry`]).
//! Multi-resource workloads (`k ≥ 2` shared resources) run through
//! [`Simulator::run_multi`]: every built-in policy lifts layer by layer via
//! [`OnlinePolicy::allocate_multi`], and the run reports exact per-resource
//! consumption and waste in a [`MultiSimReport`].
//!
//! ```
//! use cr_sim::{Simulator, GreedyBalancePolicy};
//! use cr_instances::{generate_workload, WorkloadConfig};
//!
//! let workload = generate_workload(&WorkloadConfig::default(), 42);
//! let sim = Simulator::from_instance(&workload);
//! let outcome = sim.run(&mut GreedyBalancePolicy).unwrap();
//! assert!(outcome.report.makespan >= outcome.report.lower_bound);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod metrics;
pub mod obs;
pub mod policies;
pub mod solver;
pub mod task;

pub use engine::{SimError, SimOutcome, Simulator};
pub use metrics::{CoreReport, MultiSimReport, SimReport};
pub use policies::{
    standard_policies, CoreView, EqualSharePolicy, GreedyBalancePolicy, MultiCoreView,
    OnlinePolicy, ProportionalSharePolicy, RoundRobinPolicy,
};
pub use solver::{full_registry, register_online, OnlinePolicySolver, ONLINE_METHODS};
pub use task::{instance_to_tasks, tasks_to_instance, Phase, Task};
