//! The unified, fallible `Solve` surface over every algorithm in this crate.
//!
//! Historically each algorithm family had its own entry points: the
//! infallible [`Scheduler`](crate::Scheduler) trait for the polynomial
//! schedulers, free functions (`opt_m_makespan` / `try_opt_m_makespan`, and the
//! `opt_two_*` / `brute_force_*` twins) for the exact engines, and ad-hoc
//! bound helpers.  This module replaces
//! that patchwork with one request/response interface:
//!
//! * [`SolveRequest`] — the instance, a string method selector (a registry
//!   key), an [`EnginePreference`], a [`Budget`] and optional per-processor
//!   arrival times (consumed by the online solvers in `cr-sim`);
//! * [`SolveOutcome`] — makespan and/or schedule, the instance's
//!   [`LowerBounds`], the [`Engine`] that ran, the fallbacks taken and
//!   step/round counters;
//! * [`SolveError`] — every failure the old surfaces expressed as a panic or
//!   crate-specific error ([`SearchError`], grid overflow, infeasible
//!   schedules, exhausted budgets, malformed requests);
//! * [`Solver`] — `fn solve(&SolveRequest) -> Result<SolveOutcome,
//!   SolveError>`, implemented by every heuristic, both exact engines and
//!   the bounds-only evaluator;
//! * [`registry`] — the string-keyed line-up of all offline solvers.
//!
//! # Engine preference and grid contract
//!
//! Every offline method runs on integer unit grids, and one grid choice
//! serves them all — the six polynomial schedulers, `"Bounds"` and the
//! exact methods: the instance's `u64` grid when it fits, else its `u128`
//! grid, built per request and recorded in [`SolveOutcome::fallbacks`]
//! ("unit grid overflows u64: widened to u128", or "a resource layer's unit
//! grid overflows u64: widened to u128" at `k ≥ 2`), else
//! [`SolveError::GridOverflow`] ([`SolveError::ResourceOverflow`] at
//! `k ≥ 2`).  [`EnginePreference`] only bounds the widening:
//!
//! * [`EnginePreference::Auto`] (the default) takes the `u64` grid, else the
//!   `u128` one;
//! * [`EnginePreference::Scaled`] takes the `u64` grid only and fails
//!   instead of widening;
//! * [`EnginePreference::Rational`] runs like `Auto`.  The online simulator
//!   methods in `cr-sim` run on `u64` only and reject it with
//!   [`SolveError::EngineUnavailable`].
//!
//! [`SolveOutcome::engine`] is [`Engine::Scaled`] on every answer.  Both
//! widths hold the same grid, so the preference changes failure modes,
//! never values.  The heuristics step on the scheduling layer's grid
//! ([`cr_core::MultiStepper`], whose grid also covers the workload
//! denominators) and check every step in units: each share, and each
//! step's total, is at most the layer capacity.  The exact methods search
//! the requirement grid of a [`ScaledInstance`].  `"OptM"` and
//! `"BruteForce"` run one configuration search, the internal
//! `multi_engine` module, which also answers every multi-resource (`k ≥ 2`)
//! request of the exact methods.  A configuration-search round that
//! outgrows its `u32` positions fails with [`SolveError::RoundTooLarge`].
//!
//! # Budgets
//!
//! [`Budget::max_steps`] caps the schedule length of the answer; requests
//! whose result would exceed it fail with [`SolveError::BudgetExhausted`].
//! Every method enforces it and pre-checks it against the instance's
//! trivial lower bound, so a provably over-budget request fails before any
//! work runs.  [`Budget::max_rounds`] applies only to the `"OptM"`
//! configuration search (the one method with rounds; everyone else ignores
//! it): the search genuinely stops expanding after that many rounds, so a
//! deliberately over-budget request costs at most the capped expansion.
//! The polynomial schedulers always terminate in linear time, so their
//! `max_steps` budget is verified on the finished schedule (a
//! response-size contract, not a watchdog); the online simulator methods
//! enforce `max_steps` as a hard step limit while simulating.
//!
//! # OPT(m): bounds and a decision before the search
//!
//! `"OptM"` answers a request in this order, at every `k`:
//!
//! 1. prechecks: no arrivals, unit-size jobs, the `max_steps` and
//!    `max_rounds` caps against the trivial lower bound, and at `k ≥ 2` no
//!    `want_schedule` ([`SolveError::ResourceMismatch`]);
//! 2. the request's [`CancelToken`] is checked once, so a fired token wins
//!    over everything below;
//! 3. a makespan-only request whose grid fits `u64` is settled without a
//!    search when it can be: when a run of any of the six polynomial rules
//!    on the integer grid, GreedyBalance first, ends exactly at
//!    [`LowerBounds::trivial`] (`LB ≤ OPT ≤ UB = LB`), when the best rule
//!    meets the interval bound, or by a budgeted depth-first decision
//!    between the two.  The outcome equals the search's, field for field,
//!    and the `optm.*` counters record which step answered;
//! 4. the configuration search (Algorithm 2, Theorem 6, in the per-layer
//!    step class at `k ≥ 2`) on the grid choice above.
//!
//! [`Budget::max_wall_ms`] is the one *time*-shaped knob: it derives a
//! [`CancelToken`] deadline that every long-running loop observes within
//! [`cr_core::cancel::CHECK_INTERVAL_MS`], failing the request with
//! [`SolveError::DeadlineExceeded`] instead of pinning a worker forever.
//! The serving tier combines it with a per-connection token through
//! [`Solver::solve_cancellable`], so a dying connection also stops its
//! in-flight work.

use crate::greedy_balance::GreedyBalance;
use crate::heuristics::{
    EqualShare, LargestRequirementFirst, ProportionalShare, SmallestRequirementFirst,
};
use crate::multi_engine::{self, MultiView, SearchError, SearchUnit};
use crate::multi_sched::{self, PolyKind};
use crate::opt_two::{replay_decisions, ScaledDpTable};
use crate::round_robin::RoundRobin;
use crate::OptM;
use crate::OptTwo;
use cr_core::{
    bounds, CancelReason, CancelToken, GridUnit, Instance, MultiStepper, ScaledInstance, Schedule,
    ScheduleError, SchedulingGraph,
};
use std::fmt;
use std::sync::Arc;

/// How far a request may widen its integer grid (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EnginePreference {
    /// The `u64` grid when it fits, the `u128` grid otherwise (the widening
    /// recorded in [`SolveOutcome::fallbacks`]).  The default.
    #[default]
    Auto,
    /// The `u64` grid only; fails with [`SolveError::GridOverflow`] (or
    /// [`SolveError::ResourceOverflow`]) instead of widening.
    Scaled,
    /// Runs like [`EnginePreference::Auto`] on every offline method; the
    /// online simulator methods reject it.
    Rational,
}

impl EnginePreference {
    /// Stable lower-case name used on the service wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            EnginePreference::Auto => "auto",
            EnginePreference::Scaled => "scaled",
            EnginePreference::Rational => "rational",
        }
    }
}

/// The core that produced a [`SolveOutcome`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The integer-grid core, on either grid width: every answer.
    Scaled,
}

impl Engine {
    /// Stable lower-case name used on the service wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Engine::Scaled => "scaled",
        }
    }
}

/// Resource limits of one request (see the module docs for semantics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Budget {
    /// Cap on the schedule length (time steps) of the answer.
    pub max_steps: Option<usize>,
    /// Cap on the expanded rounds of the exact configuration search.
    pub max_rounds: Option<usize>,
    /// Wall-clock deadline for the whole request, in milliseconds (the wire
    /// layer's `deadline_ms` field).  Unlike the shape-based caps above this
    /// bounds *time*: every long-running loop checks a [`CancelToken`]
    /// derived from it and stops within [`cr_core::cancel::CHECK_INTERVAL_MS`]
    /// of the deadline, failing with [`SolveError::DeadlineExceeded`].
    pub max_wall_ms: Option<u64>,
}

impl Budget {
    /// No limits (the default).
    pub const UNLIMITED: Budget = Budget {
        max_steps: None,
        max_rounds: None,
        max_wall_ms: None,
    };
}

/// One solve request: an instance plus everything needed to route it.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveRequest {
    /// The problem instance.
    pub instance: Instance,
    /// Registry key of the method to run (`"GreedyBalance"`, `"OptM"`, …).
    pub method: String,
    /// Which engine core the method may use.
    pub engine: EnginePreference,
    /// Resource limits for this request.
    pub budget: Budget,
    /// Whether the response should carry the full schedule (makespan and
    /// bounds are always computed; schedules can be large on the wire).
    pub want_schedule: bool,
    /// Per-processor arrival times for the online simulator methods: core
    /// `i` is invisible to the policy before step `arrivals[i]`.  Offline
    /// methods reject requests carrying arrivals with
    /// [`SolveError::ArrivalsUnsupported`].
    pub arrivals: Option<Vec<usize>>,
}

impl SolveRequest {
    /// A makespan-only request with default engine preference and no budget.
    #[must_use]
    pub fn new(method: impl Into<String>, instance: Instance) -> Self {
        SolveRequest {
            instance,
            method: method.into(),
            engine: EnginePreference::Auto,
            budget: Budget::UNLIMITED,
            want_schedule: false,
            arrivals: None,
        }
    }

    /// Requests the full schedule in the response.
    #[must_use]
    pub fn with_schedule(mut self) -> Self {
        self.want_schedule = true;
        self
    }

    /// Overrides the engine preference.
    #[must_use]
    pub fn with_engine(mut self, engine: EnginePreference) -> Self {
        self.engine = engine;
        self
    }

    /// Overrides the budget.
    #[must_use]
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches per-processor arrival times (online methods only).
    #[must_use]
    pub fn with_arrivals(mut self, arrivals: Vec<usize>) -> Self {
        self.arrivals = Some(arrivals);
        self
    }
}

/// The instance-only lower bounds reported with every outcome, plus the
/// schedule-derived bound the `"Bounds"` evaluator computes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LowerBounds {
    /// Observation 1: `⌈Σ workload⌉`.
    pub workload: usize,
    /// The longest chain (jobs are processed sequentially per processor).
    pub chain: usize,
    /// The volume-weighted chain bound (relevant for arbitrary job sizes).
    pub volume_chain: usize,
    /// `max(workload, chain, volume_chain)` — the strongest instance-only
    /// bound.
    pub trivial: usize,
    /// The best schedule-derived bound (Observation 1, components, classes
    /// of the scheduling hypergraph); only computed by the `"Bounds"`
    /// method, `None` elsewhere.
    pub best: Option<usize>,
}

impl LowerBounds {
    /// Computes the instance-only bounds.
    #[must_use]
    pub fn compute(instance: &Instance) -> Self {
        let workload = bounds::workload_bound_steps(instance);
        let chain = bounds::chain_bound(instance);
        let volume_chain = bounds::volume_chain_bound(instance);
        LowerBounds {
            workload,
            chain,
            volume_chain,
            trivial: bounds::trivial_from(workload, chain, volume_chain),
            best: None,
        }
    }
}

/// A successful solve: the answer plus provenance counters.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveOutcome {
    /// Registry key of the method that ran.
    pub method: String,
    /// The engine core that produced the result.
    pub engine: Engine,
    /// Human-readable descriptions of every fallback taken (empty when the
    /// `u64` grid served the request).
    pub fallbacks: Vec<String>,
    /// The computed makespan (`None` for the bounds-only evaluator).
    pub makespan: Option<usize>,
    /// The full schedule, when requested and the method produces one.
    pub schedule: Option<Schedule>,
    /// Lower bounds of the instance (with `best` filled by `"Bounds"`).
    pub lower_bounds: LowerBounds,
    /// Schedule steps materialized while solving (0 for value-only methods).
    pub steps: usize,
    /// Search work of the exact engines.  For `"OptM"` the makespan: the
    /// rounds its configuration search needs to reach it, also when the
    /// bound certificate answered without searching (see the module docs).
    /// Memoized expansions for `"BruteForce"`; 0 for `"OptTwo"` and the
    /// polynomial schedulers.
    pub rounds: usize,
}

/// Which budget knob a [`SolveError::BudgetExhausted`] refers to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BudgetKind {
    /// [`Budget::max_steps`].
    Steps,
    /// [`Budget::max_rounds`].
    Rounds,
}

impl BudgetKind {
    /// Stable lower-case name used on the service wire.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            BudgetKind::Steps => "steps",
            BudgetKind::Rounds => "rounds",
        }
    }
}

/// Structured failure of one solve request.
///
/// Absorbs every failure mode of the pre-redesign surfaces: the
/// configuration search's [`SearchError`], grid overflow (previously a
/// silent internal fallback or a panic), infeasible schedules (previously
/// `Scheduler::makespan`'s `expect`), exhausted budgets and malformed
/// requests.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// The request named a method the registry does not know.
    UnknownMethod {
        /// The unknown registry key.
        method: String,
    },
    /// The method requires unit-size jobs (Theorems 5/6) but the instance
    /// has sized jobs.
    NonUnitJobs {
        /// The rejecting method.
        method: String,
    },
    /// The method requires a fixed processor count (OptTwo: exactly 2).
    WrongProcessorCount {
        /// The rejecting method.
        method: String,
        /// Required processor count.
        expected: usize,
        /// The instance's processor count.
        found: usize,
    },
    /// The instance's unit grid overflows the width the request may run
    /// on: `u64` when [`EnginePreference::Scaled`] was demanded (and for the
    /// online simulator methods), `u128` for any offline method on any
    /// preference.
    GridOverflow {
        /// The rejecting method.
        method: String,
    },
    /// The method does not implement the requested engine core at all
    /// (e.g. the integer-native online simulator asked for `Rational`).
    EngineUnavailable {
        /// The rejecting method.
        method: String,
        /// The unavailable preference.
        engine: EnginePreference,
    },
    /// A configuration-search round outgrew its `u32` parent-index
    /// headroom, on either core (absorbs [`SearchError::RoundTooLarge`]).
    RoundTooLarge {
        /// The 0-based round whose node count overflowed.
        round: usize,
        /// Its node count.
        nodes: usize,
    },
    /// The request's [`Budget`] was exhausted before an answer within it
    /// could be produced.
    BudgetExhausted {
        /// The method that ran out of budget.
        method: String,
        /// Which budget knob was exhausted.
        kind: BudgetKind,
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A produced schedule failed validation (absorbs [`ScheduleError`];
    /// previously `Scheduler::makespan` panicked on this).
    Infeasible {
        /// The underlying schedule validation error.
        error: ScheduleError,
    },
    /// An offline method received arrival traces.
    ArrivalsUnsupported {
        /// The rejecting method.
        method: String,
    },
    /// The arrival vector does not have one entry per processor.
    InvalidArrivals {
        /// Processors in the instance.
        expected: usize,
        /// Entries in the arrival vector.
        found: usize,
    },
    /// The request's wall-clock deadline ([`Budget::max_wall_ms`] or the
    /// wire layer's `deadline_ms`) passed — or the request was cancelled
    /// externally (its connection died) — before an answer was produced.
    DeadlineExceeded {
        /// Whether the deadline fired or the request was cancelled.
        reason: CancelReason,
    },
    /// The solver panicked; the panic was contained (sibling requests in
    /// the same batch are unaffected) and surfaced as this structured row.
    Internal {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The request asked for something the multi-resource (`k ≥ 2`) paths
    /// do not produce — today, a full schedule (`want_schedule`): the
    /// [`Schedule`] type is single-resource, so `k ≥ 2` requests report
    /// makespans and bounds only.
    ResourceMismatch {
        /// The rejecting method.
        method: String,
        /// The instance's resource count.
        resources: usize,
    },
    /// A resource layer's unit grid overflows the width the request may run
    /// on (the multi-resource analogue of [`SolveError::GridOverflow`],
    /// which keeps naming the base grid).
    ResourceOverflow {
        /// The rejecting method.
        method: String,
    },
}

impl SolveError {
    /// Every stable `kind()` string a solver can emit, in variant order.
    ///
    /// The wire layer (`cr-service`) adds its own transport-level kinds on
    /// top (`bad_request`, `quota_exceeded`, `overloaded`, `draining`); the
    /// union of both lists is the complete error vocabulary of the serving
    /// surface, and `docs/WIRE.md` documents every entry (an enumerated test
    /// in `cr-service` keeps the document honest).
    ///
    /// ```
    /// assert!(cr_algos::solver::SolveError::ALL_KINDS.contains(&"budget_exhausted"));
    /// ```
    pub const ALL_KINDS: [&'static str; 14] = [
        "unknown_method",
        "non_unit_jobs",
        "wrong_processor_count",
        "grid_overflow",
        "engine_unavailable",
        "round_too_large",
        "budget_exhausted",
        "infeasible",
        "arrivals_unsupported",
        "invalid_arrivals",
        "deadline_exceeded",
        "internal_error",
        "resource_mismatch",
        "resource_overflow",
    ];

    /// Stable snake_case discriminant used on the service wire.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            SolveError::UnknownMethod { .. } => "unknown_method",
            SolveError::NonUnitJobs { .. } => "non_unit_jobs",
            SolveError::WrongProcessorCount { .. } => "wrong_processor_count",
            SolveError::GridOverflow { .. } => "grid_overflow",
            SolveError::EngineUnavailable { .. } => "engine_unavailable",
            SolveError::RoundTooLarge { .. } => "round_too_large",
            SolveError::BudgetExhausted { .. } => "budget_exhausted",
            SolveError::Infeasible { .. } => "infeasible",
            SolveError::ArrivalsUnsupported { .. } => "arrivals_unsupported",
            SolveError::InvalidArrivals { .. } => "invalid_arrivals",
            SolveError::DeadlineExceeded { .. } => "deadline_exceeded",
            SolveError::Internal { .. } => "internal_error",
            SolveError::ResourceMismatch { .. } => "resource_mismatch",
            SolveError::ResourceOverflow { .. } => "resource_overflow",
        }
    }
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::UnknownMethod { method } => {
                write!(f, "unknown method `{method}` (not in the registry)")
            }
            SolveError::NonUnitJobs { method } => {
                write!(f, "method {method} requires unit-size jobs")
            }
            SolveError::WrongProcessorCount {
                method,
                expected,
                found,
            } => write!(
                f,
                "method {method} requires exactly {expected} processors, instance has {found}"
            ),
            SolveError::GridOverflow { method } => write!(
                f,
                "method {method}: the instance's unit grid is too wide (past u64 on the scaled \
                 engine preference and for the sim: methods, past u128 for any offline method \
                 on any preference)"
            ),
            SolveError::EngineUnavailable { method, engine } => {
                write!(f, "method {method} has no {} engine core", engine.as_str())
            }
            SolveError::RoundTooLarge { round, nodes } => write!(
                f,
                "configuration-search round {round} holds {nodes} nodes, exceeding the u32 \
                 parent-index headroom"
            ),
            SolveError::BudgetExhausted {
                method,
                kind,
                limit,
            } => write!(
                f,
                "method {method} exhausted its {} budget of {limit}",
                kind.as_str()
            ),
            SolveError::Infeasible { error } => {
                write!(f, "produced schedule is infeasible: {error}")
            }
            SolveError::ArrivalsUnsupported { method } => write!(
                f,
                "method {method} is offline and does not accept arrival traces"
            ),
            SolveError::InvalidArrivals { expected, found } => write!(
                f,
                "arrival vector has {found} entries for {expected} processors"
            ),
            SolveError::DeadlineExceeded { reason } => {
                write!(f, "request stopped: {reason}")
            }
            SolveError::Internal { message } => {
                write!(f, "solver panicked (contained): {message}")
            }
            SolveError::ResourceMismatch { method, resources } => write!(
                f,
                "method {method}: schedules are single-resource, so this {resources}-resource \
                 request must not set want_schedule (makespan and bounds only)"
            ),
            SolveError::ResourceOverflow { method } => write!(
                f,
                "method {method}: a resource layer's unit grid is too wide (past u64 on the \
                 scaled engine preference and for the sim: methods, past u128 for any offline \
                 method on any preference)"
            ),
        }
    }
}

impl std::error::Error for SolveError {}

impl From<SearchError> for SolveError {
    fn from(err: SearchError) -> Self {
        match err {
            SearchError::RoundTooLarge { round, nodes } => {
                SolveError::RoundTooLarge { round, nodes }
            }
            SearchError::Cancelled { reason } => SolveError::DeadlineExceeded { reason },
        }
    }
}

impl From<CancelReason> for SolveError {
    fn from(reason: CancelReason) -> Self {
        SolveError::DeadlineExceeded { reason }
    }
}

impl From<ScheduleError> for SolveError {
    fn from(error: ScheduleError) -> Self {
        SolveError::Infeasible { error }
    }
}

/// Warm per-instance state shared by every solve against one instance: the
/// scaled-integer conversion of the exact engines and the instance-only
/// lower bounds.
///
/// [`Solver::solve`] builds one on the fly; the batch service in
/// `cr-service` memoizes them so repeated requests against one instance pay
/// for the conversion once.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The exact engines' `u64` grid (`None`: it overflows, and the exact
    /// methods widen to `u128` per request).
    pub scaled: Option<Arc<ScaledInstance>>,
    /// Instance-only lower bounds ([`LowerBounds::best`] left `None`).
    pub lower_bounds: LowerBounds,
}

impl Prepared {
    /// Performs the conversions for `instance`.
    #[must_use]
    pub fn new(instance: &Instance) -> Self {
        Prepared {
            scaled: ScaledInstance::try_new(instance).map(Arc::new),
            lower_bounds: LowerBounds::compute(instance),
        }
    }
}

/// A solving policy behind the unified request/response interface.
///
/// Implementations must be deterministic: the same request always produces
/// the same outcome, regardless of thread count (the batch service's
/// byte-identity contract builds on this).
pub trait Solver: Send + Sync {
    /// Solves `request` with pre-computed per-instance state.
    ///
    /// # Errors
    ///
    /// Any [`SolveError`] applicable to the method (see the variants).
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError>;

    /// Solves `request`, deriving the per-instance state on the fly.
    ///
    /// # Errors
    ///
    /// Any [`SolveError`] applicable to the method (see the variants).
    fn solve(&self, request: &SolveRequest) -> Result<SolveOutcome, SolveError> {
        self.solve_prepared(request, &Prepared::new(&request.instance))
    }

    /// Solves `request` under cooperative cancellation: the effective token
    /// is `cancel` (typically the serving tier's per-flush token, cancelled
    /// when the requesting connection dies) *combined with* the request's own
    /// [`Budget::max_wall_ms`] deadline.
    ///
    /// The default implementation checks the token once up front and then
    /// runs [`Solver::solve_prepared`] — exactly right for the polynomial
    /// schedulers, whose linear-time runs finish well within any sensible
    /// deadline.  The exact engines override this with genuinely
    /// interruptible searches.
    ///
    /// # Errors
    ///
    /// [`SolveError::DeadlineExceeded`] once the token fires, plus anything
    /// [`Solver::solve_prepared`] reports.
    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        token.check()?;
        self.solve_prepared(request, prepared)
    }
}

/// Rejects arrival traces on offline methods.
fn reject_arrivals(method: &str, request: &SolveRequest) -> Result<(), SolveError> {
    if request.arrivals.is_some() {
        return Err(SolveError::ArrivalsUnsupported {
            method: method.to_string(),
        });
    }
    Ok(())
}

/// Fails fast when the trivial lower bound already exceeds a budget cap
/// (any answer would too); `kind` names the knob the cap came from.
fn precheck_cap(
    method: &str,
    kind: BudgetKind,
    cap: Option<usize>,
    lower_bounds: &LowerBounds,
) -> Result<(), SolveError> {
    if let Some(limit) = cap {
        if lower_bounds.trivial > limit {
            return Err(SolveError::BudgetExhausted {
                method: method.to_string(),
                kind,
                limit,
            });
        }
    }
    Ok(())
}

/// Post-hoc `max_steps` check on a finished answer.
fn check_steps_budget(method: &str, budget: &Budget, makespan: usize) -> Result<(), SolveError> {
    if let Some(limit) = budget.max_steps {
        if makespan > limit {
            return Err(SolveError::BudgetExhausted {
                method: method.to_string(),
                kind: BudgetKind::Steps,
                limit,
            });
        }
    }
    Ok(())
}

/// Rejects `want_schedule` on multi-resource requests: [`Schedule`] is
/// single-resource, so `k ≥ 2` answers are makespan-and-bounds only.
fn reject_multi_schedule(method: &str, request: &SolveRequest) -> Result<(), SolveError> {
    if request.want_schedule {
        return Err(SolveError::ResourceMismatch {
            method: method.to_string(),
            resources: request.instance.resources(),
        });
    }
    Ok(())
}

/// An integer grid at one of the two widths.
pub(crate) enum Grid<N, W> {
    /// The `u64` grid.
    Narrow(N),
    /// The `u128` grid, taken when the `u64` one overflows.
    Wide(W),
}

/// The integer grid an exact method solves one request on: the instance's
/// `u64` grid ([`Prepared::scaled`]), or its `u128` grid, built per request.
pub(crate) type ExactGrid<'a> = Grid<&'a ScaledInstance, ScaledInstance<u128>>;

/// Evaluates `$body` with `$scaled` bound to an [`ExactGrid`]'s
/// `&ScaledInstance<V>`, monomorphised once per unit (`u64` and `u128`).
macro_rules! on_grid {
    ($grid:expr, |$scaled:ident| $body:expr) => {
        match $grid {
            $crate::solver::Grid::Narrow($scaled) => $body,
            $crate::solver::Grid::Wide(ref $scaled) => $body,
        }
    };
}
pub(crate) use on_grid;

/// The one grid choice of every offline method: `narrow` (the `u64` grid)
/// when present; else, unless `engine` demands the `u64` grid, `wide()`,
/// with the widening recorded as a fallback; else
/// [`SolveError::GridOverflow`], or [`SolveError::ResourceOverflow`] on a
/// multi-resource instance.
fn widen<N, W>(
    method: &str,
    engine: EnginePreference,
    instance: &Instance,
    narrow: Option<N>,
    wide: impl FnOnce() -> Option<W>,
) -> Result<(Grid<N, W>, Vec<String>), SolveError> {
    if let Some(narrow) = narrow {
        return Ok((Grid::Narrow(narrow), Vec::new()));
    }
    let multi = instance.resources() > 1;
    let wide = match engine {
        EnginePreference::Scaled => None,
        EnginePreference::Auto | EnginePreference::Rational => wide(),
    };
    match (wide, multi) {
        (Some(wide), false) => Ok((
            Grid::Wide(wide),
            vec!["unit grid overflows u64: widened to u128".to_string()],
        )),
        (Some(wide), true) => Ok((
            Grid::Wide(wide),
            vec!["a resource layer's unit grid overflows u64: widened to u128".to_string()],
        )),
        (None, false) => Err(SolveError::GridOverflow {
            method: method.to_string(),
        }),
        (None, true) => Err(SolveError::ResourceOverflow {
            method: method.to_string(),
        }),
    }
}

/// The exact methods' grid choice ([`widen`] over the requirement grid).
pub(crate) fn exact_grid<'a>(
    method: &str,
    engine: EnginePreference,
    instance: &Instance,
    narrow: Option<&'a ScaledInstance>,
) -> Result<(ExactGrid<'a>, Vec<String>), SolveError> {
    widen(method, engine, instance, narrow, || {
        ScaledInstance::try_on_grid(instance)
    })
}

/// [`exact_grid`] on the `Auto` preference: the grid of the exact free
/// functions, given the instance's `u64` grid if it has one.
///
/// # Panics
///
/// Panics if the instance's unit grid overflows `u128`.
pub(crate) fn auto_grid<'a>(
    method: &str,
    instance: &Instance,
    narrow: Option<&'a ScaledInstance>,
) -> ExactGrid<'a> {
    exact_grid(method, EnginePreference::Auto, instance, narrow)
        .map(|(grid, _)| grid)
        .unwrap_or_else(|err| panic!("{err}"))
}

/// The steppers of a polynomial rule: one per width, on every layer.
type StepGrid = Grid<MultiStepper<u64>, MultiStepper<u128>>;

/// The polynomial rules' grid choice ([`widen`] over the scheduling
/// layer's grid, on every resource layer of the request's instance).
fn step_grid(method: &str, request: &SolveRequest) -> Result<(StepGrid, Vec<String>), SolveError> {
    let instance = &request.instance;
    widen(
        method,
        request.engine,
        instance,
        MultiStepper::try_new(instance),
        || MultiStepper::try_new(instance),
    )
}

/// Runs `kind` on `stepper`: the makespan, plus the `k = 1` schedule when
/// `log` asks for it (a makespan-only run keeps no share log).
fn run_rule<U: GridUnit>(
    kind: PolyKind,
    mut stepper: MultiStepper<U>,
    log: bool,
) -> (usize, Option<Schedule>) {
    if log {
        let schedule = multi_sched::logged(kind, stepper);
        (schedule.num_steps(), Some(schedule))
    } else {
        (multi_sched::run(kind, &mut stepper), None)
    }
}

/// Shared solve logic of the six polynomial schedulers, for every `k`: the
/// grid choice, the rule's run and budget enforcement.  `max_rounds` does
/// not apply (there is no search); only `max_steps` is enforced.  A
/// `k ≥ 2` request reports the makespan only
/// ([`SolveError::ResourceMismatch`] on `want_schedule`).
fn solve_polynomial(
    method: &str,
    kind: PolyKind,
    request: &SolveRequest,
    prepared: &Prepared,
) -> Result<SolveOutcome, SolveError> {
    reject_arrivals(method, request)?;
    precheck_cap(
        method,
        BudgetKind::Steps,
        request.budget.max_steps,
        &prepared.lower_bounds,
    )?;
    if request.instance.resources() > 1 {
        reject_multi_schedule(method, request)?;
    }
    let (grid, fallbacks) = step_grid(method, request)?;
    let (makespan, schedule) = match grid {
        Grid::Narrow(stepper) => run_rule(kind, stepper, request.want_schedule),
        Grid::Wide(stepper) => run_rule(kind, stepper, request.want_schedule),
    };
    check_steps_budget(method, &request.budget, makespan)?;
    Ok(SolveOutcome {
        method: method.to_string(),
        engine: Engine::Scaled,
        fallbacks,
        makespan: Some(makespan),
        steps: makespan,
        rounds: 0,
        schedule,
        lower_bounds: prepared.lower_bounds,
    })
}

/// The multi-resource (`k ≥ 2`) exact path of `OptTwo` and `BruteForce`:
/// the configuration search over per-resource capacities, in the per-layer
/// step class of [`multi_engine`]'s module docs.  Value-only —
/// `want_schedule` is rejected with [`SolveError::ResourceMismatch`].
/// `max_rounds` does not apply (it is `"OptM"`'s, whose `k ≥ 2` requests
/// take [`solve_opt_m`]).
fn solve_exact_multi(
    method: &str,
    request: &SolveRequest,
    prepared: &Prepared,
    token: &CancelToken,
) -> Result<SolveOutcome, SolveError> {
    reject_multi_schedule(method, request)?;
    let (grid, fallbacks) = exact_grid(
        method,
        request.engine,
        &request.instance,
        prepared.scaled.as_deref(),
    )?;
    let found = on_grid!(grid, |scaled| multi_engine::search_cancellable(
        &MultiView::from_scaled(scaled),
        None,
        token
    ))?
    // lint: allow(panic_hygiene) — with no round cap the search only reports None when capped
    .expect("the uncapped search reaches a final configuration");
    check_steps_budget(method, &request.budget, found.makespan)?;
    Ok(SolveOutcome {
        method: method.to_string(),
        engine: Engine::Scaled,
        fallbacks,
        makespan: Some(found.makespan),
        steps: 0,
        // BruteForce reports expansions everywhere; the round-shaped
        // searches report rounds (== makespan), matching the scalar paths.
        rounds: if method == "BruteForce" {
            found.expanded
        } else {
            found.makespan
        },
        schedule: None,
        lower_bounds: prepared.lower_bounds,
    })
}

macro_rules! impl_polynomial_solver {
    ($ty:ty, $name:literal, $kind:expr) => {
        impl Solver for $ty {
            fn solve_prepared(
                &self,
                request: &SolveRequest,
                prepared: &Prepared,
            ) -> Result<SolveOutcome, SolveError> {
                solve_polynomial($name, $kind, request, prepared)
            }
        }
    };
}

impl_polynomial_solver!(GreedyBalance, "GreedyBalance", PolyKind::GreedyBalance);
impl_polynomial_solver!(RoundRobin, "RoundRobin", PolyKind::RoundRobin);
impl_polynomial_solver!(EqualShare, "EqualShare", PolyKind::EqualShare);
impl_polynomial_solver!(
    ProportionalShare,
    "ProportionalShare",
    PolyKind::ProportionalShare
);
impl_polynomial_solver!(
    LargestRequirementFirst,
    "LargestRequirementFirst",
    PolyKind::LargestRequirementFirst
);
impl_polynomial_solver!(
    SmallestRequirementFirst,
    "SmallestRequirementFirst",
    PolyKind::SmallestRequirementFirst
);

/// Validates the unit-size precondition of the exact engines.
fn require_unit(method: &str, instance: &Instance) -> Result<(), SolveError> {
    if !instance.is_unit_size() {
        return Err(SolveError::NonUnitJobs {
            method: method.to_string(),
        });
    }
    Ok(())
}

impl Solver for OptTwo {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        self.solve_cancellable(request, prepared, &CancelToken::never())
    }

    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        const METHOD: &str = "OptTwo";
        reject_arrivals(METHOD, request)?;
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        // Fail fast on an already-fired token; the DP's own polls are
        // strided and would let a tiny table run to completion.
        token.check()?;
        let instance = &request.instance;
        if instance.processors() != 2 {
            return Err(SolveError::WrongProcessorCount {
                method: METHOD.to_string(),
                expected: 2,
                found: instance.processors(),
            });
        }
        require_unit(METHOD, instance)?;
        // The DP has no configuration-search rounds, so only max_steps
        // applies.
        precheck_cap(
            METHOD,
            BudgetKind::Steps,
            request.budget.max_steps,
            &prepared.lower_bounds,
        )?;
        if instance.resources() > 1 {
            // The two-processor DP is single-resource; multi-resource
            // requests run the shared configuration search instead (for
            // m = 2 it explores exactly the two-processor choice space).
            return solve_exact_multi(METHOD, request, prepared, &token);
        }

        let (grid, fallbacks) =
            exact_grid(METHOD, request.engine, instance, prepared.scaled.as_deref())?;
        let (makespan, schedule) = on_grid!(grid, |scaled| {
            let table = ScaledDpTable::compute_cancellable(scaled, &token)?;
            let makespan = table.makespan();
            check_steps_budget(METHOD, &request.budget, makespan)?;
            let schedule = request
                .want_schedule
                .then(|| replay_decisions(scaled, &table.decisions()));
            (makespan, schedule)
        });
        Ok(SolveOutcome {
            method: METHOD.to_string(),
            engine: Engine::Scaled,
            fallbacks,
            makespan: Some(makespan),
            steps: schedule.as_ref().map_or(0, Schedule::num_steps),
            rounds: 0,
            schedule,
            lower_bounds: prepared.lower_bounds,
        })
    }
}

impl Solver for OptM {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        self.solve_cancellable(request, prepared, &CancelToken::never())
    }

    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        const METHOD: &str = "OptM";
        reject_arrivals(METHOD, request)?;
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        let instance = &request.instance;
        require_unit(METHOD, instance)?;
        // A round of the configuration search advances the makespan by one,
        // so both caps are makespan-shaped here and prechecked against the
        // trivial lower bound.
        precheck_cap(
            METHOD,
            BudgetKind::Steps,
            request.budget.max_steps,
            &prepared.lower_bounds,
        )?;
        precheck_cap(
            METHOD,
            BudgetKind::Rounds,
            request.budget.max_rounds,
            &prepared.lower_bounds,
        )?;
        if instance.resources() > 1 {
            reject_multi_schedule(METHOD, request)?;
        }
        // A fired token wins over the certificate, as it would over the
        // search.
        token.check()?;
        solve_opt_m(request, prepared, &token, DECISION_WORK_LIMIT)
    }
}

/// The longest best-rule makespan at which a makespan-only `"OptM"`
/// request tries the interval certificate and the decision; past
/// it the configuration search answers alone, as it did before them.  It
/// bounds the decision's depth (`best − 1` frames on its stack) and the size
/// of an interval check (`m · N · (N + 1) / 2` sums per layer for `N ≤ 64`
/// jobs left).  Past ~64 steps the decision's refutations outgrow any
/// useful budget: on uncertified `Uniform` percent grids with `m = 3`, one
/// of four decisions at 40 jobs per processor (best rule 60–65) took 0.2
/// million work units and the others 39–255 million, and all three at 50
/// (best rule near 80) took over 27 million, where the search took 0.1–0.4
/// s.
pub(crate) const DECISION_MAX_STEPS: usize = 64;

/// The work the depth-first decision of a makespan-only `"OptM"` request
/// may do before it gives way to the configuration search: per
/// child generated, its width plus its interval check's operations
/// ([`multi_engine::decide`]).  A unit took 3–7 ns on long chains and up
/// to ~50 ns on 3×3 grids (release build, 2-vCPU x86-64 host); on the
/// long-chain grids measured, a fallback added 1–4 ms to the search.
///
/// Measured on the same host, on each shape's first uncertified percent
/// grids: every decision on 3×3 to 6×3, 4×6 to 4×10 and 5×5 grids took at
/// most 31k units; decisions forced from two steps above the optimum took
/// at most 2.4k on the Figure 3 family (n ≤ 12), 34k on Figure 5 (m ≤ 4,
/// up to 3 blocks) and 179k on `WideOversub m = 48`; at `m = 3` with 20–30
/// jobs per processor, 15 of 20 decisions fit (the other five needed 0.7
/// to 120 million units, or more than 3 s).
pub(crate) const DECISION_WORK_LIMIT: usize = 1 << 18;

/// What the bounds and the decision settle of a makespan-only `"OptM"`
/// request, before any budget check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Settled {
    /// One of the six rules met the trivial bound.
    Rule(usize),
    /// The best rule met the interval bound.
    Interval(usize),
    /// The depth-first decision found the optimum.
    Decided {
        /// The optimum.
        makespan: usize,
        /// The nodes it expanded.
        expansions: usize,
        /// The interval bound.
        floor: usize,
        /// The best rule's makespan.
        best: usize,
    },
    /// The decision ran out of work: the configuration search answers,
    /// within `[floor, best]`.
    Open {
        /// The nodes the decision expanded.
        expansions: usize,
        /// The interval bound.
        floor: usize,
        /// The best rule's makespan.
        best: usize,
    },
}

/// Answers an `"OptM"` request whose prechecks passed, at every `k`: by
/// bounds or by the depth-first decision when [`settle_opt_m`] can, else by
/// the configuration search.  `work_limit` caps the decision's work (see
/// [`DECISION_WORK_LIMIT`]).
fn solve_opt_m(
    request: &SolveRequest,
    prepared: &Prepared,
    token: &CancelToken,
    work_limit: usize,
) -> Result<SolveOutcome, SolveError> {
    const METHOD: &str = "OptM";
    let Some(settled) = settle_opt_m(request, prepared, token, work_limit)? else {
        return search_opt_m(request, prepared, token);
    };
    let makespan = match settled {
        Settled::Rule(makespan) => {
            crate::obs::optm_certified().inc();
            makespan
        }
        Settled::Interval(makespan) => {
            crate::obs::optm_interval_certified().inc();
            makespan
        }
        Settled::Decided {
            makespan,
            expansions,
            floor,
            best,
        } => {
            crate::obs::optm_decided().inc();
            crate::obs::optm_decision_expansions().add(crate::obs::delta(expansions));
            crate::obs::record_sandwich(floor, makespan, best);
            makespan
        }
        Settled::Open {
            expansions,
            floor,
            best,
        } => {
            crate::obs::optm_decision_fallbacks().inc();
            crate::obs::optm_decision_expansions().add(crate::obs::delta(expansions));
            let outcome = search_opt_m(request, prepared, token)?;
            if let Some(makespan) = outcome.makespan {
                crate::obs::record_sandwich(floor, makespan, best);
            }
            return Ok(outcome);
        }
    };
    // The search would stop after `max_rounds` rounds short of the answer.
    if request.budget.max_rounds.is_some_and(|cap| makespan > cap) {
        return Err(rounds_exhausted(METHOD, &request.budget));
    }
    check_steps_budget(METHOD, &request.budget, makespan)?;
    Ok(SolveOutcome {
        method: METHOD.to_string(),
        engine: Engine::Scaled,
        fallbacks: Vec::new(),
        makespan: Some(makespan),
        steps: 0,
        rounds: makespan,
        schedule: None,
        lower_bounds: prepared.lower_bounds,
    })
}

/// Settles a makespan-only `"OptM"` request on the `u64` grid without the
/// configuration search, at every `k`, in three steps.
///
/// 1. *The rule certificate.*  Every polynomial rule's makespan is an upper
///    bound on the optimum and the trivial bound a lower one; when some
///    rule's run on the integer grid ends exactly at the trivial bound,
///    `LB ≤ OPT ≤ UB = LB` proves it optimal.  The rules run makespan-only
///    on clones of one `u64` stepper over every layer, in [`POLY_METHODS`]
///    order (GreedyBalance, the likeliest to meet the bound, first), until
///    one meets it.
/// 2. *The interval certificate.*  When all six miss, the interval bound
///    ([`multi_engine::interval_bound`]: Observation 1 on every step window
///    of every job's widest window, on every layer) is computed up to the
///    best rule's makespan; when it meets that makespan, the best rule is
///    optimal.
/// 3. *The decision.*  Otherwise [`multi_engine::decide`] asks, depth
///    first, whether a schedule one step shorter than the best rule
///    exists, and each time it finds one, whether one step shorter than
///    that does, down to the interval bound.  Its answer is the optimum of
///    the per-layer step class (Lemma 1's at `k = 1`), which the search
///    reaches in as many rounds.  A run past `work_limit` work leaves the
///    request to the search
///    ([`Settled::Open`]).  Two processors skip this step: their search
///    rounds hold a handful of configurations each, and on `m = 2` percent
///    grids the decision saved a few µs at best (4–16 jobs per processor)
///    and took up to 7× the search's time at 32.
///
/// `None` — search instead — for schedule requests (a decided path is
/// optimal, but not the schedule Algorithm 2's emission order replays),
/// grids that overflow `u64`, a best rule past [`DECISION_MAX_STEPS`]
/// (steps 2 and 3 are skipped there) and `m = 2` instances the interval
/// bound leaves open.
///
/// # Errors
///
/// [`SolveError::DeadlineExceeded`] once the token fires mid-decision.
fn settle_opt_m(
    request: &SolveRequest,
    prepared: &Prepared,
    token: &CancelToken,
    work_limit: usize,
) -> Result<Option<Settled>, SolveError> {
    if request.want_schedule {
        return Ok(None);
    }
    let (Some(scaled), Some(stepper)) = (
        prepared.scaled.as_deref(),
        MultiStepper::<u64>::try_new(&request.instance),
    ) else {
        return Ok(None);
    };
    let trivial = prepared.lower_bounds.trivial;
    let mut best = usize::MAX;
    for kind in PolyKind::ALL {
        let makespan = multi_sched::run(kind, &mut stepper.clone());
        // The budget prechecks already admitted the trivial bound, so an
        // answer equal to it is within both caps.
        if makespan == trivial {
            return Ok(Some(Settled::Rule(trivial)));
        }
        best = best.min(makespan);
    }
    if best > DECISION_MAX_STEPS {
        return Ok(None);
    }
    let view = MultiView::from_scaled(scaled);
    let floor = multi_engine::interval_bound(&view, trivial, best);
    if floor == best {
        return Ok(Some(Settled::Interval(best)));
    }
    if request.instance.processors() < 3 {
        return Ok(None);
    }
    let decision = multi_engine::decide(&view, best, floor, work_limit, token)?;
    let expansions = decision.expansions;
    Ok(Some(match decision.makespan {
        Some(makespan) => Settled::Decided {
            makespan,
            expansions,
            floor,
            best,
        },
        None => Settled::Open {
            expansions,
            floor,
            best,
        },
    }))
}

/// The `"OptM"` configuration search on the grid choice, over every layer.
fn search_opt_m(
    request: &SolveRequest,
    prepared: &Prepared,
    token: &CancelToken,
) -> Result<SolveOutcome, SolveError> {
    let (grid, fallbacks) = exact_grid(
        "OptM",
        request.engine,
        &request.instance,
        prepared.scaled.as_deref(),
    )?;
    on_grid!(grid, |scaled| opt_m_outcome(
        &MultiView::from_scaled(scaled),
        fallbacks,
        request,
        prepared,
        token
    ))
}

/// Runs the `"OptM"` search on `view`, round-capped and interruptible; a
/// schedule is replayed only for `k = 1` requests that ask for one.
fn opt_m_outcome<V: SearchUnit>(
    view: &MultiView<V>,
    fallbacks: Vec<String>,
    request: &SolveRequest,
    prepared: &Prepared,
    token: &CancelToken,
) -> Result<SolveOutcome, SolveError> {
    const METHOD: &str = "OptM";
    let Some(search) =
        multi_engine::run_search_cancellable(view, request.budget.max_rounds, token)?
    else {
        return Err(rounds_exhausted(METHOD, &request.budget));
    };
    let makespan = search.makespan();
    check_steps_budget(METHOD, &request.budget, makespan)?;
    let schedule = request.want_schedule.then(|| search.schedule(view));
    Ok(SolveOutcome {
        method: METHOD.to_string(),
        engine: Engine::Scaled,
        fallbacks,
        makespan: Some(makespan),
        steps: schedule.as_ref().map_or(0, Schedule::num_steps),
        rounds: makespan,
        schedule,
        lower_bounds: prepared.lower_bounds,
    })
}

/// The error of a search that the `max_rounds` cap cut off.
fn rounds_exhausted(method: &str, budget: &Budget) -> SolveError {
    SolveError::BudgetExhausted {
        method: method.to_string(),
        kind: BudgetKind::Rounds,
        // lint: allow(panic_hygiene) — only a max_rounds cap cuts a search off, so the cap is present
        limit: budget.max_rounds.expect("cap produced the cutoff"),
    }
}

/// The exhaustive reference solver behind the `"BruteForce"` registry key.
///
/// Value-only: it reports the optimal makespan and search statistics but
/// never reconstructs a schedule (use `"OptM"` for schedules).
#[derive(Debug, Clone, Copy, Default)]
pub struct BruteForceSolver;

impl Solver for BruteForceSolver {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        self.solve_cancellable(request, prepared, &CancelToken::never())
    }

    fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        const METHOD: &str = "BruteForce";
        reject_arrivals(METHOD, request)?;
        let token = cancel.child_with_deadline_ms(request.budget.max_wall_ms);
        let instance = &request.instance;
        require_unit(METHOD, instance)?;
        // The memoized DFS has no rounds; only max_steps applies.
        precheck_cap(
            METHOD,
            BudgetKind::Steps,
            request.budget.max_steps,
            &prepared.lower_bounds,
        )?;
        if instance.resources() > 1 {
            return solve_exact_multi(METHOD, request, prepared, &token);
        }

        let (grid, fallbacks) =
            exact_grid(METHOD, request.engine, instance, prepared.scaled.as_deref())?;
        let (makespan, _states, expansions) = on_grid!(grid, |scaled| {
            multi_engine::brute_force_cancellable(&MultiView::base_scaled(scaled), &token)
        })?;
        check_steps_budget(METHOD, &request.budget, makespan)?;
        Ok(SolveOutcome {
            method: METHOD.to_string(),
            engine: Engine::Scaled,
            fallbacks,
            makespan: Some(makespan),
            steps: 0,
            rounds: expansions,
            schedule: None,
            lower_bounds: prepared.lower_bounds,
        })
    }
}

/// The bounds-only evaluator behind the `"Bounds"` registry key.
///
/// Reports no makespan; instead it fills [`LowerBounds::best`] — the best
/// schedule-derived lower bound, computed from a GreedyBalance schedule's
/// scheduling hypergraph (Observation 1, component and class bounds).  The
/// GreedyBalance schedule takes the polynomial rules' grid choice.
#[derive(Debug, Clone, Copy, Default)]
pub struct BoundsOnly;

impl Solver for BoundsOnly {
    fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        const METHOD: &str = "Bounds";
        reject_arrivals(METHOD, request)?;
        let instance = &request.instance;
        if instance.resources() > 1 {
            // The scheduling hypergraph is single-resource; a k ≥ 2 request
            // reports the instance-only bounds (whose workload component
            // already takes the binding resource) as the best bound.
            let mut lower_bounds = prepared.lower_bounds;
            lower_bounds.best = Some(lower_bounds.trivial);
            return Ok(SolveOutcome {
                method: METHOD.to_string(),
                engine: Engine::Scaled,
                fallbacks: Vec::new(),
                makespan: None,
                steps: 0,
                rounds: 0,
                schedule: None,
                lower_bounds,
            });
        }
        let (grid, fallbacks) = step_grid(METHOD, request)?;
        let schedule = match grid {
            Grid::Narrow(stepper) => multi_sched::logged(PolyKind::GreedyBalance, stepper),
            Grid::Wide(stepper) => multi_sched::logged(PolyKind::GreedyBalance, stepper),
        };
        let trace = schedule.trace(instance)?;
        let graph = SchedulingGraph::build(instance, &trace);
        let mut lower_bounds = prepared.lower_bounds;
        lower_bounds.best = Some(bounds::best_lower_bound(instance, &graph));
        Ok(SolveOutcome {
            method: METHOD.to_string(),
            engine: Engine::Scaled,
            fallbacks,
            makespan: None,
            steps: 0,
            rounds: 0,
            schedule: None,
            lower_bounds,
        })
    }
}

/// Registry keys of the six polynomial schedulers, in line-up order.
pub const POLY_METHODS: [&str; 6] = [
    "GreedyBalance",
    "RoundRobin",
    "EqualShare",
    "ProportionalShare",
    "LargestRequirementFirst",
    "SmallestRequirementFirst",
];

/// A string-keyed line-up of [`Solver`]s.
///
/// Registration order is preserved (and is the iteration order of
/// [`Registry::names`]); keys are unique — re-registering a key replaces the
/// previous solver.
#[derive(Default)]
pub struct Registry {
    entries: Vec<(String, Box<dyn Solver>)>,
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Registry")
            .field("methods", &self.names().collect::<Vec<_>>())
            .finish()
    }
}

impl Registry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Registry::default()
    }

    /// Registers `solver` under `key`, replacing any previous entry.
    pub fn register(&mut self, key: impl Into<String>, solver: Box<dyn Solver>) {
        let key = key.into();
        if let Some(slot) = self.entries.iter_mut().find(|(k, _)| *k == key) {
            slot.1 = solver;
        } else {
            self.entries.push((key, solver));
        }
    }

    /// Looks up a solver by key.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&dyn Solver> {
        self.entries
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, s)| s.as_ref())
    }

    /// The registered keys, in registration order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.entries.iter().map(|(k, _)| k.as_str())
    }

    /// Dispatches `request` to the solver registered under its method key.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownMethod`] for unregistered keys, plus anything
    /// the solver itself reports.
    pub fn solve(&self, request: &SolveRequest) -> Result<SolveOutcome, SolveError> {
        self.solve_prepared(request, &Prepared::new(&request.instance))
    }

    /// [`Registry::solve`] with pre-computed per-instance state (the batch
    /// service's memoized path).
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownMethod`] for unregistered keys, plus anything
    /// the solver itself reports.
    pub fn solve_prepared(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
    ) -> Result<SolveOutcome, SolveError> {
        let Some(solver) = self.get(&request.method) else {
            crate::obs::record_dispatch(&request.method, false, false);
            return Err(SolveError::UnknownMethod {
                method: request.method.clone(),
            });
        };
        let result = solver.solve_prepared(request, prepared);
        crate::obs::record_dispatch(&request.method, true, result.is_ok());
        result
    }

    /// [`Registry::solve_prepared`] under cooperative cancellation (see
    /// [`Solver::solve_cancellable`]) — the serving tier's entry point.
    ///
    /// # Errors
    ///
    /// [`SolveError::UnknownMethod`] for unregistered keys,
    /// [`SolveError::DeadlineExceeded`] once the token fires, plus anything
    /// the solver itself reports.
    pub fn solve_cancellable(
        &self,
        request: &SolveRequest,
        prepared: &Prepared,
        cancel: &CancelToken,
    ) -> Result<SolveOutcome, SolveError> {
        let Some(solver) = self.get(&request.method) else {
            crate::obs::record_dispatch(&request.method, false, false);
            return Err(SolveError::UnknownMethod {
                method: request.method.clone(),
            });
        };
        let result = solver.solve_cancellable(request, prepared, cancel);
        crate::obs::record_dispatch(&request.method, true, result.is_ok());
        result
    }
}

/// The standard offline line-up: the six polynomial schedulers, both exact
/// engines, the exhaustive reference and the bounds-only evaluator.
///
/// The online simulator methods register on top via
/// `cr_sim::register_online`.
#[must_use]
pub fn registry() -> Registry {
    let mut r = Registry::new();
    r.register("GreedyBalance", Box::new(GreedyBalance::new()));
    r.register("RoundRobin", Box::new(RoundRobin::new()));
    r.register("EqualShare", Box::new(EqualShare::new()));
    r.register("ProportionalShare", Box::new(ProportionalShare::new()));
    r.register(
        "LargestRequirementFirst",
        Box::new(LargestRequirementFirst::new()),
    );
    r.register(
        "SmallestRequirementFirst",
        Box::new(SmallestRequirementFirst::new()),
    );
    r.register("OptTwo", Box::new(OptTwo::new()));
    r.register("OptM", Box::new(OptM::new()));
    r.register("BruteForce", Box::new(BruteForceSolver));
    r.register("Bounds", Box::new(BoundsOnly));
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::Ratio;
    use proptest::prelude::*;

    fn fig_like() -> Instance {
        Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]])
    }

    #[test]
    fn registry_contains_every_offline_method() {
        let reg = registry();
        let names: Vec<&str> = reg.names().collect();
        for method in POLY_METHODS {
            assert!(names.contains(&method), "{method} missing");
        }
        for method in ["OptTwo", "OptM", "BruteForce", "Bounds"] {
            assert!(names.contains(&method), "{method} missing");
        }
        assert_eq!(names.len(), 10);
    }

    #[test]
    fn unknown_method_is_a_structured_error() {
        let err = registry()
            .solve(&SolveRequest::new("NoSuchMethod", fig_like()))
            .unwrap_err();
        assert_eq!(err.kind(), "unknown_method");
    }

    #[test]
    fn every_method_agrees_with_its_legacy_entry_point() {
        let reg = registry();
        let inst = fig_like();
        for method in POLY_METHODS {
            let outcome = reg.solve(&SolveRequest::new(method, inst.clone())).unwrap();
            assert_eq!(outcome.engine, Engine::Scaled);
            assert!(outcome.fallbacks.is_empty());
            assert!(outcome.makespan.unwrap() >= outcome.lower_bounds.trivial);
        }
        let opt_m_outcome = reg.solve(&SolveRequest::new("OptM", inst.clone())).unwrap();
        assert_eq!(
            opt_m_outcome.makespan.unwrap(),
            crate::opt_m_makespan(&inst)
        );
        assert_eq!(opt_m_outcome.rounds, opt_m_outcome.makespan.unwrap());
        let opt_two_outcome = reg
            .solve(&SolveRequest::new("OptTwo", inst.clone()))
            .unwrap();
        assert_eq!(
            opt_two_outcome.makespan.unwrap(),
            crate::opt_two_makespan(&inst)
        );
        let bf = reg
            .solve(&SolveRequest::new("BruteForce", inst.clone()))
            .unwrap();
        assert_eq!(bf.makespan, opt_m_outcome.makespan);
        assert!(bf.rounds > 0, "brute force reports expansions");
    }

    #[test]
    fn engine_preferences_agree_on_values() {
        let reg = registry();
        let inst = fig_like();
        for method in POLY_METHODS
            .into_iter()
            .chain(["OptM", "OptTwo", "BruteForce"])
        {
            let auto = reg.solve(&SolveRequest::new(method, inst.clone())).unwrap();
            let scaled = reg
                .solve(
                    &SolveRequest::new(method, inst.clone()).with_engine(EnginePreference::Scaled),
                )
                .unwrap();
            let rational = reg
                .solve(
                    &SolveRequest::new(method, inst.clone())
                        .with_engine(EnginePreference::Rational),
                )
                .unwrap();
            assert_eq!(auto.makespan, scaled.makespan, "{method}");
            // Every method runs on integer grids only: `rational` runs like
            // `auto`.
            assert_eq!(auto, rational, "{method}");
            assert_eq!(scaled.engine, Engine::Scaled);
        }
    }

    #[test]
    fn schedules_are_returned_only_on_request() {
        let reg = registry();
        let inst = fig_like();
        let without = reg.solve(&SolveRequest::new("OptM", inst.clone())).unwrap();
        assert!(without.schedule.is_none());
        let with = reg
            .solve(&SolveRequest::new("OptM", inst.clone()).with_schedule())
            .unwrap();
        let schedule = with.schedule.expect("schedule requested");
        assert_eq!(schedule.makespan(&inst).unwrap(), with.makespan.unwrap());
        assert_eq!(with.steps, schedule.num_steps());
    }

    #[test]
    fn round_budget_cuts_the_search_off() {
        // Three full-resource jobs: makespan 3, so a 1-round budget fails.
        let inst = Instance::unit_from_percentages(&[&[100], &[100], &[100]]);
        let err = registry()
            .solve(
                &SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
                    max_rounds: Some(1),
                    ..Budget::UNLIMITED
                }),
            )
            .unwrap_err();
        match err {
            SolveError::BudgetExhausted { kind, limit, .. } => {
                assert_eq!(limit, 1);
                assert_eq!(kind.as_str(), "rounds");
            }
            other => panic!("expected BudgetExhausted, got {other:?}"),
        }
        // A sufficient budget succeeds with the exact value.
        let ok = registry()
            .solve(
                &SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
                    max_rounds: Some(3),
                    ..Budget::UNLIMITED
                }),
            )
            .unwrap();
        assert_eq!(ok.makespan, Some(3));

        // The u128 search honors the cap too — the capped entry point
        // (checked directly, below the precheck layer) stops expanding at
        // the cap instead of running to completion, and the registry path
        // reports the same structured error.
        let view = MultiView::base_scaled(&ScaledInstance::<u128>::try_on_grid(&inst).unwrap());
        let never = CancelToken::never();
        let capped = |cap| multi_engine::search_cancellable(&view, Some(cap), &never).unwrap();
        assert_eq!(capped(1), None);
        assert_eq!(capped(3).map(|search| search.makespan), Some(3));
        let err = registry()
            .solve(
                &SolveRequest::new("OptM", inst)
                    .with_engine(EnginePreference::Rational)
                    .with_budget(Budget {
                        max_rounds: Some(1),
                        ..Budget::UNLIMITED
                    }),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "budget_exhausted");
    }

    #[test]
    fn round_budget_is_ignored_by_methods_without_rounds() {
        // Chain of three 100% jobs on one processor: makespan 3.  max_rounds
        // must not reject methods that have no configuration search.
        let inst = Instance::unit_from_percentages(&[&[100], &[100], &[100]]);
        let budget = Budget {
            max_rounds: Some(1),
            ..Budget::UNLIMITED
        };
        for method in ["GreedyBalance", "EqualShare", "BruteForce"] {
            let outcome = registry()
                .solve(&SolveRequest::new(method, inst.clone()).with_budget(budget))
                .unwrap_or_else(|e| panic!("{method} must ignore max_rounds: {e}"));
            assert_eq!(outcome.makespan, Some(3), "{method}");
        }
    }

    #[test]
    fn step_budget_applies_to_heuristics() {
        let inst = Instance::unit_from_percentages(&[&[100], &[100], &[100]]);
        let err = registry()
            .solve(
                &SolveRequest::new("EqualShare", inst.clone()).with_budget(Budget {
                    max_steps: Some(1),
                    ..Budget::UNLIMITED
                }),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "budget_exhausted");
    }

    #[test]
    fn opt_two_validates_its_preconditions() {
        let three = Instance::unit_from_percentages(&[&[50], &[50], &[50]]);
        let err = registry()
            .solve(&SolveRequest::new("OptTwo", three))
            .unwrap_err();
        assert_eq!(err.kind(), "wrong_processor_count");

        let sized = Instance::new(vec![vec![cr_core::Job::new(
            Ratio::from_percent(50),
            Ratio::new(3, 2),
        )]])
        .unwrap();
        let err = registry()
            .solve(&SolveRequest::new("OptM", sized))
            .unwrap_err();
        assert_eq!(err.kind(), "non_unit_jobs");
    }

    #[test]
    fn offline_methods_reject_arrival_traces() {
        let err = registry()
            .solve(&SolveRequest::new("GreedyBalance", fig_like()).with_arrivals(vec![0, 0]))
            .unwrap_err();
        assert_eq!(err.kind(), "arrivals_unsupported");
    }

    #[test]
    fn bounds_only_fills_the_best_bound() {
        let outcome = registry()
            .solve(&SolveRequest::new("Bounds", fig_like()))
            .unwrap();
        assert!(outcome.makespan.is_none());
        assert!(outcome.schedule.is_none());
        let best = outcome.lower_bounds.best.expect("best bound computed");
        assert!(best >= outcome.lower_bounds.trivial);
    }

    #[test]
    fn grid_overflow_is_an_error_only_when_scaled_is_demanded() {
        // A denominator of exactly 2^63 makes both the exact-engine grid
        // (2·D) and the scheduling grid ((m+1)·D) overflow u64, well inside
        // u128.
        let inst = Instance::unit_from_requirements(vec![vec![Ratio::new(1, 1i128 << 63)]]);
        assert!(Prepared::new(&inst).scaled.is_none());
        let reg = registry();

        // Every offline method widens to the u128 grid, on auto and on
        // rational alike, and records the widening; `scaled` refuses it.
        for method in [
            "GreedyBalance",
            "EqualShare",
            "OptM",
            "BruteForce",
            "Bounds",
        ] {
            let request = SolveRequest::new(method, inst.clone());
            let err = reg
                .solve(&request.clone().with_engine(EnginePreference::Scaled))
                .unwrap_err();
            assert_eq!(err.kind(), "grid_overflow", "{method}");
            for engine in [EnginePreference::Auto, EnginePreference::Rational] {
                let wide = reg
                    .solve(&request.clone().with_engine(engine).with_schedule())
                    .unwrap();
                assert_eq!(wide.engine, Engine::Scaled, "{method}");
                assert_eq!(
                    wide.fallbacks,
                    ["unit grid overflows u64: widened to u128"],
                    "{method}"
                );
                if method != "Bounds" {
                    assert_eq!(wide.makespan, Some(1), "{method}");
                }
                if let Some(schedule) = wide.schedule {
                    assert_eq!(schedule.makespan(&inst), Ok(1), "{method}");
                }
            }
        }
    }

    #[test]
    fn heuristics_refuse_grids_past_u128() {
        // The grid 1/(2^127 − 1) fits i128, but (m + 1) = 3 times it
        // overflows u128.
        let inst = Instance::unit_from_requirements(vec![
            vec![Ratio::new(1, i128::MAX)],
            vec![Ratio::ZERO],
        ]);
        let reg = registry();
        for method in POLY_METHODS.into_iter().chain(["Bounds"]) {
            for engine in [
                EnginePreference::Auto,
                EnginePreference::Scaled,
                EnginePreference::Rational,
            ] {
                let err = reg
                    .solve(&SolveRequest::new(method, inst.clone()).with_engine(engine))
                    .unwrap_err();
                assert_eq!(err.kind(), "grid_overflow", "{method}/{engine:?}");
            }
        }
    }

    #[test]
    fn exact_methods_refuse_grids_past_u128() {
        // The grid 1/(2^127 − 1) fits i128, but (jobs + m) = 5 times it
        // overflows u128.
        let inst = Instance::unit_from_requirements(vec![
            vec![Ratio::new(1, i128::MAX), Ratio::ZERO],
            vec![Ratio::ZERO],
        ]);
        assert!(ScaledInstance::<u128>::try_on_grid(&inst).is_none());
        let reg = registry();
        for method in ["OptTwo", "OptM", "BruteForce"] {
            for engine in [
                EnginePreference::Auto,
                EnginePreference::Scaled,
                EnginePreference::Rational,
            ] {
                let err = reg
                    .solve(&SolveRequest::new(method, inst.clone()).with_engine(engine))
                    .unwrap_err();
                assert_eq!(err.kind(), "grid_overflow", "{method}/{engine:?}");
            }
        }
    }

    #[test]
    fn all_kinds_enumerates_every_variant_without_duplicates() {
        let samples: Vec<SolveError> = vec![
            SolveError::UnknownMethod { method: "x".into() },
            SolveError::NonUnitJobs { method: "x".into() },
            SolveError::WrongProcessorCount {
                method: "x".into(),
                expected: 2,
                found: 3,
            },
            SolveError::GridOverflow { method: "x".into() },
            SolveError::EngineUnavailable {
                method: "x".into(),
                engine: EnginePreference::Rational,
            },
            SolveError::RoundTooLarge { round: 1, nodes: 2 },
            SolveError::BudgetExhausted {
                method: "x".into(),
                kind: BudgetKind::Steps,
                limit: 1,
            },
            SolveError::Infeasible {
                error: ScheduleError::WrongProcessorCount {
                    step: 0,
                    expected: 1,
                    found: 2,
                },
            },
            SolveError::ArrivalsUnsupported { method: "x".into() },
            SolveError::InvalidArrivals {
                expected: 1,
                found: 2,
            },
            SolveError::DeadlineExceeded {
                reason: CancelReason::DeadlineExceeded,
            },
            SolveError::Internal {
                message: "x".into(),
            },
            SolveError::ResourceMismatch {
                method: "x".into(),
                resources: 2,
            },
            SolveError::ResourceOverflow { method: "x".into() },
        ];
        assert_eq!(samples.len(), SolveError::ALL_KINDS.len());
        let mut seen = std::collections::HashSet::new();
        for err in &samples {
            assert!(
                SolveError::ALL_KINDS.contains(&err.kind()),
                "{} missing from ALL_KINDS",
                err.kind()
            );
            assert!(seen.insert(err.kind()), "duplicate kind {}", err.kind());
        }
    }

    #[test]
    fn cancelled_requests_surface_deadline_exceeded() {
        let reg = registry();
        let inst = fig_like();
        let prepared = Prepared::new(&inst);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        // Exact engines and (via the default entry check) heuristics alike.
        for method in ["OptM", "BruteForce", "GreedyBalance", "OptTwo"] {
            let mut req = SolveRequest::new(method, inst.clone());
            if method == "OptTwo" {
                req.instance = Instance::unit_from_percentages(&[&[60, 40], &[40, 60]]);
            }
            let prep = Prepared::new(&req.instance);
            let err = reg.solve_cancellable(&req, &prep, &cancelled).unwrap_err();
            assert_eq!(err.kind(), "deadline_exceeded", "{method}");
            assert!(err.to_string().contains("cancelled externally"));
        }
        // A zero-millisecond wall budget fires the deadline reason on every
        // preference (no fallback-and-retry).
        for engine in [EnginePreference::Auto, EnginePreference::Rational] {
            let req = SolveRequest::new("OptM", inst.clone())
                .with_engine(engine)
                .with_budget(Budget {
                    max_wall_ms: Some(0),
                    ..Budget::UNLIMITED
                });
            let err = reg
                .solve_cancellable(&req, &prepared, &CancelToken::never())
                .unwrap_err();
            assert_eq!(
                err,
                SolveError::DeadlineExceeded {
                    reason: CancelReason::DeadlineExceeded
                },
                "{engine:?}"
            );
        }
        // A live token with a generous budget reproduces the plain outcome.
        let req = SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
            max_wall_ms: Some(60_000),
            ..Budget::UNLIMITED
        });
        let outcome = reg
            .solve_cancellable(&req, &prepared, &CancelToken::new())
            .unwrap();
        assert_eq!(
            outcome.makespan,
            reg.solve(&SolveRequest::new("OptM", inst))
                .unwrap()
                .makespan
        );
    }

    #[test]
    fn opt_two_honors_deadlines_mid_dp() {
        // Regression: OptTwo used to inherit the default entry-check-only
        // cancellation, so a deadline that fired after the first cell never
        // stopped the `O(n1·n2)` table fill.  The DP now polls a strided
        // gate inside the sweep: on a ~9M-cell table a 1ms deadline passes
        // the entry check but must be caught mid-fill, on every preference.
        let reg = registry();
        let reqs: Vec<i64> = (0..3000).map(|j| 1 + j % 97).collect();
        let chain: Vec<&[i64]> = vec![&reqs, &reqs];
        let inst = Instance::unit_from_percentages(&chain);
        let prepared = Prepared::new(&inst);
        for engine in [EnginePreference::Scaled, EnginePreference::Rational] {
            let req = SolveRequest::new("OptTwo", inst.clone())
                .with_engine(engine)
                .with_budget(Budget {
                    max_wall_ms: Some(1),
                    ..Budget::UNLIMITED
                });
            let err = reg
                .solve_cancellable(&req, &prepared, &CancelToken::new())
                .unwrap_err();
            assert_eq!(err.kind(), "deadline_exceeded", "{engine:?}");
        }
        // A generous deadline reproduces the plain outcome bit for bit.
        let req = SolveRequest::new("OptTwo", inst.clone()).with_budget(Budget {
            max_wall_ms: Some(60_000),
            ..Budget::UNLIMITED
        });
        let outcome = reg
            .solve_cancellable(&req, &prepared, &CancelToken::new())
            .unwrap();
        assert_eq!(
            outcome.makespan,
            reg.solve(&SolveRequest::new("OptTwo", inst))
                .unwrap()
                .makespan
        );
    }

    fn multi_fig_like() -> Instance {
        cr_core::InstanceBuilder::new()
            .processor([Ratio::from_percent(60), Ratio::from_percent(40)])
            .processor([Ratio::from_percent(30), Ratio::from_percent(90)])
            .extra_layer([
                vec![Ratio::from_percent(25), Ratio::from_percent(75)],
                vec![Ratio::from_percent(70), Ratio::from_percent(10)],
            ])
            .build()
    }

    #[test]
    fn every_method_answers_multi_resource_requests() {
        let reg = registry();
        let inst = multi_fig_like();
        let prepared = Prepared::new(&inst);
        for method in POLY_METHODS {
            let outcome = reg
                .solve_prepared(&SolveRequest::new(method, inst.clone()), &prepared)
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            assert!(outcome.schedule.is_none(), "{method}");
            assert!(
                outcome.makespan.unwrap() >= outcome.lower_bounds.trivial,
                "{method}"
            );
        }
        for method in ["OptTwo", "OptM", "BruteForce"] {
            let outcome = reg
                .solve_prepared(&SolveRequest::new(method, inst.clone()), &prepared)
                .unwrap_or_else(|e| panic!("{method}: {e}"));
            assert_eq!(outcome.engine, Engine::Scaled, "{method}");
            assert!(outcome.schedule.is_none(), "{method}");
            assert!(
                outcome.makespan.unwrap() >= outcome.lower_bounds.trivial,
                "{method}"
            );
        }
        let bounds = reg
            .solve_prepared(&SolveRequest::new("Bounds", inst.clone()), &prepared)
            .unwrap();
        assert!(bounds.makespan.is_none());
        assert_eq!(bounds.engine, Engine::Scaled);
        assert_eq!(bounds.lower_bounds.best, Some(bounds.lower_bounds.trivial));
    }

    #[test]
    fn multi_resource_exact_engines_agree_across_cores_and_methods() {
        let reg = registry();
        let inst = multi_fig_like();
        let prepared = Prepared::new(&inst);
        let mut values = Vec::new();
        for method in ["OptTwo", "OptM", "BruteForce"] {
            for engine in [
                EnginePreference::Auto,
                EnginePreference::Scaled,
                EnginePreference::Rational,
            ] {
                let outcome = reg
                    .solve_prepared(
                        &SolveRequest::new(method, inst.clone()).with_engine(engine),
                        &prepared,
                    )
                    .unwrap_or_else(|e| panic!("{method}/{engine:?}: {e}"));
                values.push((method, engine, outcome.makespan.unwrap()));
            }
        }
        let first = values[0].2;
        for (method, engine, value) in values {
            assert_eq!(value, first, "{method}/{engine:?} diverged");
        }
    }

    #[test]
    fn zero_extra_layer_reproduces_the_scalar_optimum() {
        // A k = 2 instance whose second layer is all-zero adds no
        // constraints: the exact multi search must reproduce the scalar
        // OPT(m) value bit for bit.
        let base = fig_like();
        let inst = cr_core::InstanceBuilder::new()
            .processor([
                Ratio::from_percent(60),
                Ratio::from_percent(40),
                Ratio::from_percent(80),
            ])
            .processor([
                Ratio::from_percent(30),
                Ratio::from_percent(90),
                Ratio::from_percent(10),
            ])
            .extra_layer([vec![Ratio::ZERO; 3], vec![Ratio::ZERO; 3]])
            .build();
        let scalar = crate::opt_m_makespan(&base);
        let multi = registry()
            .solve(&SolveRequest::new("OptM", inst))
            .unwrap()
            .makespan
            .unwrap();
        assert_eq!(multi, scalar);
    }

    #[test]
    fn multi_resource_schedules_are_a_structured_error() {
        let reg = registry();
        let inst = multi_fig_like();
        for method in ["GreedyBalance", "OptTwo", "OptM", "BruteForce"] {
            let err = reg
                .solve(&SolveRequest::new(method, inst.clone()).with_schedule())
                .unwrap_err();
            assert_eq!(err.kind(), "resource_mismatch", "{method}");
            assert!(err.to_string().contains("single-resource"));
        }
    }

    #[test]
    fn multi_resource_layer_overflow_routes_like_grid_overflow() {
        // A layer requirement with a 2^63 denominator makes the layer's u64
        // grid unrepresentable: Scaled fails with resource_overflow, Auto
        // widens to the u128 grid and records it.
        let huge = Ratio::new(1, 1i128 << 63);
        let inst = cr_core::InstanceBuilder::new()
            .processor([Ratio::from_percent(50)])
            .processor([Ratio::from_percent(50)])
            .extra_layer([vec![huge], vec![huge]])
            .build();
        let reg = registry();
        for method in ["EqualShare", "OptM"] {
            let err = reg
                .solve(
                    &SolveRequest::new(method, inst.clone()).with_engine(EnginePreference::Scaled),
                )
                .unwrap_err();
            assert_eq!(err.kind(), "resource_overflow", "{method}");
            let auto = reg.solve(&SolveRequest::new(method, inst.clone())).unwrap();
            assert_eq!(auto.engine, Engine::Scaled, "{method}");
            assert_eq!(
                auto.fallbacks,
                ["a resource layer's unit grid overflows u64: widened to u128"],
                "{method}"
            );
        }
    }

    #[test]
    fn multi_resource_round_budget_still_applies_to_opt_m() {
        // Three two-layer full-requirement jobs: makespan 3, so a 1-round
        // cap fails while a 3-round cap answers exactly.
        let inst = cr_core::InstanceBuilder::new()
            .processor([Ratio::ONE])
            .processor([Ratio::ONE])
            .processor([Ratio::ONE])
            .extra_layer([vec![Ratio::ONE], vec![Ratio::ONE], vec![Ratio::ONE]])
            .build();
        let reg = registry();
        let err = reg
            .solve(
                &SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
                    max_rounds: Some(1),
                    ..Budget::UNLIMITED
                }),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "budget_exhausted");
        let ok = reg
            .solve(&SolveRequest::new("OptM", inst).with_budget(Budget {
                max_rounds: Some(3),
                ..Budget::UNLIMITED
            }))
            .unwrap();
        assert_eq!(ok.makespan, Some(3));
    }

    #[test]
    fn prepared_is_reusable_across_methods() {
        let inst = fig_like();
        let prepared = Prepared::new(&inst);
        assert!(prepared.scaled.is_some());
        let reg = registry();
        let a = reg
            .solve_prepared(&SolveRequest::new("OptM", inst.clone()), &prepared)
            .unwrap();
        let b = reg.solve(&SolveRequest::new("OptM", inst)).unwrap();
        assert_eq!(a, b);
    }

    /// [`settle_opt_m`] without a node limit that matters.
    fn settle(request: &SolveRequest, prepared: &Prepared) -> Option<Settled> {
        settle_opt_m(
            request,
            prepared,
            &CancelToken::never(),
            DECISION_WORK_LIMIT,
        )
        .unwrap()
    }

    #[test]
    fn certificate_skips_schedule_requests_and_settles_every_k() {
        let inst = fig_like();
        let prepared = Prepared::new(&inst);
        let plain = SolveRequest::new("OptM", inst);
        assert_eq!(
            settle(&plain, &prepared),
            Some(Settled::Rule(prepared.lower_bounds.trivial)),
            "fig_like certifies"
        );
        assert!(settle(&plain.clone().with_schedule(), &prepared).is_none());
        // `rational` runs like `auto` on the exact methods.
        let rational = plain.with_engine(EnginePreference::Rational);
        assert!(settle(&rational, &prepared).is_some());

        // GreedyBalance meets the trivial bound at k = 2 too, and certifies
        // the answer the per-layer search gives.
        let multi = multi_fig_like();
        let prepared = Prepared::new(&multi);
        let mut stepper = MultiStepper::<u64>::try_new(&multi).unwrap();
        let trivial = prepared.lower_bounds.trivial;
        assert_eq!(
            multi_sched::run(PolyKind::GreedyBalance, &mut stepper),
            trivial
        );
        let request = SolveRequest::new("OptM", multi);
        assert_eq!(settle(&request, &prepared), Some(Settled::Rule(trivial)));
        assert_eq!(
            registry().solve(&request).unwrap(),
            search_opt_m(&request, &prepared, &CancelToken::never()).unwrap()
        );
    }

    /// The `exact-frontier` instances that no rule certifies: set id 39
    /// (trivial bound 6, interval bound 7, best rule 7) and set id 15
    /// (trivial = interval bound = 5, best rule 6, optimum 5).
    fn frontier_rows() -> [(Instance, Settled); 2] {
        [
            (
                Instance::unit_from_percentages(&[
                    &[14, 23, 68],
                    &[5, 78, 89],
                    &[19, 22, 86],
                    &[12, 69, 89],
                ]),
                Settled::Interval(7),
            ),
            (
                Instance::unit_from_percentages(&[
                    &[32, 24, 20],
                    &[75, 83, 6],
                    &[36, 16, 47],
                    &[39, 44, 53],
                ]),
                Settled::Decided {
                    makespan: 5,
                    expansions: 5,
                    floor: 5,
                    best: 6,
                },
            ),
        ]
    }

    #[test]
    fn interval_bound_and_decision_answer_as_the_search() {
        for (inst, want) in frontier_rows() {
            let prepared = Prepared::new(&inst);
            let request = SolveRequest::new("OptM", inst.clone());
            assert_eq!(settle(&request, &prepared), Some(want), "{inst}");
            let searched = search_opt_m(&request, &prepared, &CancelToken::never()).unwrap();
            let answered = registry().solve(&request).unwrap();
            assert_eq!(answered, searched, "{inst}");
            // Every processor order settles the same way.
            let mut rows: Vec<Vec<Ratio>> = (0..inst.processors())
                .map(|i| {
                    inst.processor_jobs(i)
                        .iter()
                        .map(|job| job.requirement)
                        .collect()
                })
                .collect();
            rows.rotate_left(1);
            rows.swap(0, 2);
            let turned = Instance::unit_from_requirements(rows);
            let settled = settle(
                &SolveRequest::new("OptM", turned.clone()),
                &Prepared::new(&turned),
            );
            let makespan = |settled| match settled {
                Some(Settled::Interval(makespan) | Settled::Decided { makespan, .. }) => makespan,
                other => panic!("{other:?} on {turned}"),
            };
            assert_eq!(makespan(settled), makespan(Some(want)));
        }
    }

    #[test]
    fn a_spent_work_budget_falls_back_to_the_search() {
        let (inst, _) = frontier_rows()[1].clone();
        let prepared = Prepared::new(&inst);
        let request = SolveRequest::new("OptM", inst);
        let never = CancelToken::never();
        assert_eq!(
            settle_opt_m(&request, &prepared, &never, 1).unwrap(),
            Some(Settled::Open {
                expansions: 1,
                floor: 5,
                best: 6
            })
        );
        let fallen = solve_opt_m(&request, &prepared, &never, 1).unwrap();
        assert_eq!(fallen, search_opt_m(&request, &prepared, &never).unwrap());
        assert_eq!(fallen, registry().solve(&request).unwrap());
    }

    /// The first random percent grid of `m × n` from `seed` on which every
    /// rule ends above the trivial bound and `keep` holds.
    fn uncertified_grid(
        m: usize,
        n: usize,
        seed: u64,
        keep: impl Fn(&Prepared, usize) -> bool,
    ) -> (Instance, Prepared) {
        let mut rng = crate::pinned::SplitMix(seed);
        loop {
            let rows: Vec<Vec<Ratio>> = (0..m)
                .map(|_| {
                    (0..n)
                        .map(|_| Ratio::from_parts(1 + rng.below(100), 100))
                        .collect()
                })
                .collect();
            let inst = Instance::unit_from_requirements(rows);
            let prepared = Prepared::new(&inst);
            let stepper = MultiStepper::<u64>::try_new(&inst).unwrap();
            let best = PolyKind::ALL
                .iter()
                .map(|&kind| multi_sched::run(kind, &mut stepper.clone()))
                .min()
                .unwrap();
            if best > prepared.lower_bounds.trivial && keep(&prepared, best) {
                return (inst, prepared);
            }
        }
    }

    #[test]
    fn long_horizons_and_two_processors_leave_the_decision_out() {
        // Past DECISION_MAX_STEPS neither the interval bound nor the
        // decision runs.
        let (inst, prepared) =
            uncertified_grid(3, 45, 0x5eed_0026_0345, |_, best| best > DECISION_MAX_STEPS);
        assert_eq!(settle(&SolveRequest::new("OptM", inst), &prepared), None);
        // At m = 2 the interval certificate still answers when it meets the
        // best rule; otherwise the search does, as before the decision.
        let (inst, prepared) = uncertified_grid(2, 8, 0x5eed_0026_0208, |prepared, best| {
            let view = MultiView::base_scaled(prepared.scaled.as_deref().unwrap());
            multi_engine::interval_bound(&view, prepared.lower_bounds.trivial, best) < best
        });
        let request = SolveRequest::new("OptM", inst);
        assert_eq!(settle(&request, &prepared), None);
        assert_eq!(
            registry().solve(&request).unwrap(),
            search_opt_m(&request, &prepared, &CancelToken::never()).unwrap()
        );
    }

    #[test]
    fn forced_decisions_on_the_families_fit_the_work_budget() {
        // Figure 3 (n = 12, optimum n + 1) and WideOversub m = 48 (four
        // chains of three 90% jobs beside 44 chains of twelve zeros,
        // optimum 12), decided from two steps above the optimum.
        let n = 12;
        let eps = Ratio::new(1, n);
        let first: Vec<Ratio> = (1..=n).map(|j| eps * Ratio::new(j, 1)).collect();
        let second = first.iter().map(|&r| Ratio::ONE + eps - r).collect();
        let fig3 = Instance::unit_from_requirements(vec![first, second]);
        let mut rows = vec![vec![Ratio::from_percent(90); 3]; 4];
        rows.extend(vec![vec![Ratio::ZERO; 12]; 44]);
        let wide = Instance::unit_from_requirements(rows);
        for (inst, opt) in [(fig3, 13), (wide, 12)] {
            let prepared = Prepared::new(&inst);
            let view = MultiView::base_scaled(prepared.scaled.as_deref().unwrap());
            let floor = multi_engine::interval_bound(&view, prepared.lower_bounds.trivial, opt + 2);
            let decision = multi_engine::decide(
                &view,
                opt + 2,
                floor,
                DECISION_WORK_LIMIT,
                &CancelToken::never(),
            )
            .unwrap();
            assert_eq!(decision.makespan, Some(opt), "{inst}");
        }
    }

    #[test]
    fn decided_answers_keep_the_budgets_and_the_token() {
        let (inst, _) = frontier_rows()[1].clone();
        let capped =
            |budget| registry().solve(&SolveRequest::new("OptM", inst.clone()).with_budget(budget));
        // The decided answer, 5, is within caps of 5.
        let rounds = Budget {
            max_rounds: Some(5),
            ..Budget::UNLIMITED
        };
        let steps = Budget {
            max_steps: Some(5),
            ..Budget::UNLIMITED
        };
        for budget in [rounds, steps] {
            assert_eq!(capped(budget).unwrap().makespan, Some(5));
        }
        // Caps the trivial bound admits but the answer exceeds: set id 39,
        // answered by the interval certificate at 7 (trivial bound 6), and
        // the Figure 1 instance, decided at 6 (trivial = interval bound 5,
        // best rule 6).
        let fig1 = Instance::unit_from_percentages(&[
            &[20, 10, 10, 10],
            &[50, 55, 90, 55, 10],
            &[50, 40, 95],
        ]);
        assert!(matches!(
            settle(
                &SolveRequest::new("OptM", fig1.clone()),
                &Prepared::new(&fig1)
            ),
            Some(Settled::Decided {
                makespan: 6,
                floor: 5,
                best: 6,
                ..
            })
        ));
        for (inst, cap) in [(frontier_rows()[0].0.clone(), 6), (fig1, 5)] {
            for (budget, kind) in [
                (
                    Budget {
                        max_rounds: Some(cap),
                        ..Budget::UNLIMITED
                    },
                    BudgetKind::Rounds,
                ),
                (
                    Budget {
                        max_steps: Some(cap),
                        ..Budget::UNLIMITED
                    },
                    BudgetKind::Steps,
                ),
            ] {
                let request = SolveRequest::new("OptM", inst.clone()).with_budget(budget);
                let want = SolveError::BudgetExhausted {
                    method: "OptM".to_string(),
                    kind,
                    limit: cap,
                };
                assert_eq!(registry().solve(&request).unwrap_err(), want);
                assert_eq!(
                    search_opt_m(&request, &Prepared::new(&inst), &CancelToken::never())
                        .unwrap_err(),
                    want
                );
            }
        }
        let token = CancelToken::new();
        token.cancel();
        let (inst, _) = frontier_rows()[1].clone();
        let prepared = Prepared::new(&inst);
        let request = SolveRequest::new("OptM", inst);
        assert!(matches!(
            solve_opt_m(&request, &prepared, &token, DECISION_WORK_LIMIT),
            Err(SolveError::DeadlineExceeded { .. })
        ));
    }

    #[test]
    fn round_budget_is_checked_before_the_certificate() {
        let inst = fig_like();
        let trivial = LowerBounds::compute(&inst).trivial;
        let capped = |cap| {
            registry().solve(
                &SolveRequest::new("OptM", inst.clone()).with_budget(Budget {
                    max_rounds: Some(cap),
                    ..Budget::UNLIMITED
                }),
            )
        };
        assert_eq!(
            capped(trivial - 1).unwrap_err(),
            SolveError::BudgetExhausted {
                method: "OptM".to_string(),
                kind: BudgetKind::Rounds,
                limit: trivial - 1,
            }
        );
        let answer = capped(trivial).unwrap();
        assert_eq!(answer.makespan, Some(trivial));
        assert_eq!(
            answer,
            registry().solve(&SolveRequest::new("OptM", inst)).unwrap()
        );
    }

    /// Random single-resource instances like `pinned.rs`'s: 1–5
    /// processors, chains of 0–4 jobs, ~30% zero requirements.  Each
    /// requirement sits on its own denominator, 100 or 1–24.
    fn single_resource_instances() -> impl Strategy<Value = Instance> {
        let job = (0u64..10, 0u64..=24, 0u64..1000);
        prop::collection::vec(prop::collection::vec(job, 0..=4), 1..=5).prop_map(|rows| {
            let rows = rows
                .into_iter()
                .map(|row| {
                    row.into_iter()
                        .map(|(zero, den, draw)| {
                            let den = if den == 0 { 100 } else { den };
                            if zero < 3 {
                                Ratio::ZERO
                            } else {
                                Ratio::from_parts(1 + draw % den, den)
                            }
                        })
                        .collect()
                })
                .collect();
            Instance::unit_from_requirements(rows)
        })
    }

    /// The smallest of the six polynomial rules' registry makespans.
    fn best_rule_makespan(reg: &Registry, inst: &Instance) -> usize {
        POLY_METHODS
            .into_iter()
            .map(|method| {
                reg.solve(&SolveRequest::new(method, inst.clone()))
                    .unwrap()
                    .makespan
                    .unwrap()
            })
            .min()
            .unwrap()
    }

    /// How [`settle_opt_m`] answered each of a population of 2,000 random
    /// percent instances (1–100, no zeros) per shape, 3×3 and 4×3 with one
    /// layer and 3×3 with two: the six rules certify exactly when the best
    /// of them meets the trivial bound, rules other than GreedyBalance
    /// certify some instances of each shape, and every answer settled
    /// without the search (rule or interval certificate, or decision)
    /// equals the search's, the per-layer class's at `k = 2`.  A
    /// release-build run:
    /// `cargo test --release -p cr-algos --lib certificate_population -- --ignored`.
    #[test]
    #[ignore = "thousands of searches; run in release"]
    fn certificate_population_matches_the_best_rule_and_the_search() {
        let reg = registry();
        // (processors, jobs per processor, layers, seed, [by a rule, by
        // GreedyBalance, by the interval bound, decided, fallen back])
        for (m, n, k, seed, pinned) in [
            (3, 3, 1, 0x5eed_0025_0303, [1_654, 1_498, 202, 144, 0]),
            (4, 3, 1, 0x5eed_0025_0403, [1_870, 1_763, 33, 97, 0]),
            (3, 3, 2, 0x5eed_0002_0303, [1_644, 1_444, 74, 282, 0]),
        ] {
            let mut rng = crate::pinned::SplitMix(seed);
            let mut counts = [0usize; 5];
            for _ in 0..2_000 {
                let layers: Vec<Vec<Vec<Ratio>>> = (0..k)
                    .map(|_| {
                        (0..m)
                            .map(|_| {
                                (0..n)
                                    .map(|_| Ratio::from_parts(1 + rng.below(100), 100))
                                    .collect()
                            })
                            .collect()
                    })
                    .collect();
                let inst = Instance::multi_unit_from_requirements(layers).unwrap();
                let prepared = Prepared::new(&inst);
                let trivial = prepared.lower_bounds.trivial;
                let best = best_rule_makespan(&reg, &inst);
                let request = SolveRequest::new("OptM", inst.clone());
                let settled = settle(&request, &prepared).expect("makespan-only on u64");
                assert_eq!(
                    matches!(settled, Settled::Rule(_)),
                    best == trivial,
                    "best {best} on {inst}"
                );
                let slot = match settled {
                    Settled::Rule(_) => 0,
                    Settled::Interval(_) => 2,
                    Settled::Decided { .. } => 3,
                    Settled::Open { .. } => 4,
                };
                counts[slot] += 1;
                let searched = search_opt_m(&request, &prepared, &CancelToken::never()).unwrap();
                assert_eq!(reg.solve(&request).unwrap(), searched, "on {inst}");
                if slot == 0 {
                    let greedy = reg
                        .solve(&SolveRequest::new("GreedyBalance", inst.clone()))
                        .unwrap()
                        .makespan;
                    counts[1] += usize::from(greedy == Some(trivial));
                }
            }
            assert!(
                counts[0] > counts[1],
                "{m}x{n} k={k}: only GreedyBalance certified"
            );
            assert_eq!(counts, pinned, "{m}x{n} k={k}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(160))]

        #[test]
        fn certificate_answers_as_the_search_exactly_when_the_bounds_meet(
            inst in single_resource_instances(),
        ) {
            // At most 12 jobs, as in `pinned.rs`: BruteForce stays cheap.
            prop_assume!(inst.total_jobs() <= 12);
            let reg = registry();
            let prepared = Prepared::new(&inst);
            let best = best_rule_makespan(&reg, &inst);
            let request = SolveRequest::new("OptM", inst.clone());
            let settled = settle(&request, &prepared);
            prop_assert!(
                matches!(settled, Some(Settled::Rule(_))) == (best == prepared.lower_bounds.trivial),
                "settled {settled:?} with the best rule at {best} on {inst}"
            );
            // Makespan-only OptM (certificate, interval or decision) ==
            // the search == BruteForce, on every instance.
            let answered = reg.solve(&request).unwrap();
            let searched = search_opt_m(&request, &prepared, &CancelToken::never()).unwrap();
            prop_assert!(answered == searched, "{answered:?} != {searched:?} on {inst}");
            let brute = reg
                .solve(&SolveRequest::new("BruteForce", inst.clone()))
                .unwrap()
                .makespan;
            prop_assert!(answered.makespan == brute, "BruteForce {brute:?} on {inst}");
        }

        /// The certificate's makespan-only runs keep no share log; each
        /// must end where the rule's validated schedule does.
        #[test]
        fn single_resource_rules_match_their_validated_schedules(
            inst in single_resource_instances(),
        ) {
            let stepper = MultiStepper::<u64>::try_new(&inst).unwrap();
            for kind in PolyKind::ALL {
                let validated = multi_sched::schedule(kind, &inst).makespan(&inst).unwrap();
                let run = multi_sched::run(kind, &mut stepper.clone());
                prop_assert!(run == validated, "{kind:?}: {run} != {validated} on {inst}");
            }
        }
    }
}
