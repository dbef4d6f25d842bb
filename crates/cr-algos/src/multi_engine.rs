//! The configuration search behind every exact `OptM` and `BruteForce`
//! answer: one engine for every unit and every number of resources.
//!
//! A [`MultiView`] fixes the arithmetic of one search: integer units on
//! the per-resource LCM grids of a [`ScaledInstance`]
//! ([`MultiView::from_scaled`]).  The base view
//! ([`MultiView::base_scaled`]) keeps the base resource alone: the
//! single-resource problem of Theorem 6, which every `k = 1` entry point
//! solves even on an instance with extra layers.  Over a view run
//! Algorithm 2's round-by-round search (`OptResAssignment2`, Theorem 6,
//! generalized to `k` layers) and the memoized brute force.  The search is
//! monomorphised per unit: `u64` is the hot path, and `u128` answers the
//! instances whose grid overflows `u64` (the solver's grid choice).  The
//! paper's exact algorithms only add, subtract and compare requirements, so
//! an integer grid solves every instance it admits exactly.
//!
//! # Nodes
//!
//! A configuration (a *node*) is one row of `m + m·k` values: each
//! processor's completed-job count, then, processor-major, what its
//! frontier job has already been given on every layer (see
//! [`cr_core::Instance::extra_layers`]); on the `u64` view at `k = 1`, `2m` words.
//! A search round is one flat arena of nodes plus `u32` parent positions,
//! so a round costs two allocations however many nodes it holds.
//!
//! # The per-layer step class
//!
//! Layers are independent resources in the decoupled model
//! ([`cr_core::multi`]): a job may finish one layer while another is still
//! running, and it completes when its last positive layer does.  A step
//! choice is therefore one Lemma 1 choice **per layer**: on layer `r`, a
//! set of active frontier jobs whose remainders on `r` all fit and complete
//! the layer, plus at most one further active job that receives the
//! leftover without completing the layer (its remainder on `r` strictly
//! exceeds the leftover).  Jobs with nothing left on a layer finish it in
//! every choice, and when every remainder on a layer fits, the one choice
//! on that layer finishes them all.  A job whose every layer is finished
//! completes; one that finished some layers keeps their full requirement as
//! its spent value there.  Frontier jobs with an all-zero remaining vector
//! thus complete in every choice (the variants that withhold them are
//! strictly dominated).
//!
//! Lemma 1's exchange argument moves a layer's resource between jobs and
//! steps on that layer alone, so it holds layer by layer, and the class is
//! exact at every `k`; for `k = 1` it is precisely Lemma 1's class
//! (non-wasting, progressive, one partial receiver).  Each layer's
//! remainders are scalars, so every layer's choices come from the sorted
//! break-prune DFS of the internal `subset_enum` module, and an odometer
//! composes them across the layers (one position at `k = 1`, where the
//! choices stream straight out).  Every successor, on every `k`, is written
//! into one reusable scratch row and handed out as a slice, so a candidate
//! allocates nothing.
//!
//! # Search structure
//!
//! [`run_search_cancellable`] runs every round serially.  Expansion streams
//! the previous round's successors, in parent order, into one candidate
//! arena and drops exact duplicates through an open-addressing
//! [`RowIndex`] of arena positions (the first representative wins).  The
//! Lemma 4 survivors come from the grouped filter of the internal
//! `dominance` module: `a` dominates `b` when every processor has completed
//! more jobs, or equally many with at least as much spent on **every**
//! layer of the frontier job.  Every search hands the filter each node's
//! consumption level ([`LevelTable`]: units consumed, summed over the
//! layers, then completed all-zero jobs), so the filter keeps the round's
//! top-level candidates without comparing them.  The survivors are copied
//! once, by (Σ completed, Σ spent, index) descending, into the next round
//! ([`SearchUnit::emission_key`]); the same order on both units makes their
//! `k = 1` schedules equal.  Every emitted
//! choice finishes at least one positive layer of a job on each layer that
//! has one (singletons always fit: remaining ≤ requirement ≤ capacity on
//! every layer), or else completes the free frontier jobs, so the search
//! terminates within `total_jobs · k + 1` rounds.
//!
//! A round keeps no step decisions: [`Search::schedule`] replays a `k = 1`
//! schedule in units from parent/child differences (a processor whose
//! completed count rose finished its frontier job; one whose spent value
//! rose was given the difference).  Multi-resource schedules are not
//! reconstructed; the solver layer reports makespans and rejects
//! `want_schedule` with a structured error.  A round that outgrows the
//! `u32` positions surfaces as [`SearchError::RoundTooLarge`] during
//! expansion instead of a panic; it would need more than 64 GiB of arena.
//!
//! # The depth-first search: brute force and decision
//!
//! One memoized DFS runs over the same nodes and successors without the
//! domination filter, on an explicit stack of frames rather than one
//! native stack frame per step, so a chain of any length fits the thread
//! it runs on.  Without a target it is the brute force
//! ([`brute_force_cancellable`]): the exponential reference, every
//! successor visited in the successor function's order.  Given a target
//! and a prune it is the decision ([`decide`]) that answers the
//! makespan-only `OptM` requests no polynomial rule certifies, at every
//! `k`: is there a final node within the target's steps?  It visits
//! children by consumption level, descending, drops a child whose
//! remaining jobs fail [`interval_fits`] for the steps left after it,
//! memoizes failed nodes with the steps they failed with, and stops at the
//! first path.  The same
//! check at the initial node gives the interval bound
//! ([`interval_bound`]), which stops the decision from asking below it.
//! The decision runs under a work budget (per child generated, its width
//! plus its interval check's operations) and the request's gate; past the
//! budget the round-by-round search answers.  The interval check is
//! written per layer, on the view's grid units, and sums only the step
//! intervals that hold a job's window.

use crate::dominance::{DominanceFilter, Level, RowIndex, EMPTY, FILTER_CHECK_STRIDE};
use crate::subset_enum::{for_each_choice_cancellable, EnumScratch, CHOICE_CHECK_STRIDE};
use cr_core::{CancelGate, CancelReason, CancelToken, GridUnit, ScaledInstance, Schedule};
use rustc_hash::FxHashMap;
use std::fmt;
use std::hash::Hash;

/// Structured failure of the configuration search.  The search is total for
/// every realistic instance; this exists so the single capacity limit left
/// in the engine — round positions are `u32` — degrades into a reportable
/// error instead of a panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SearchError {
    /// A search round holds more nodes than `u32` positions can address.
    RoundTooLarge {
        /// The 0-based round whose node count overflowed.
        round: usize,
        /// The node count it reached when expansion stopped.
        nodes: usize,
    },
    /// The search's [`CancelToken`] fired (deadline passed or the request
    /// was cancelled externally) and the loops stopped cooperatively.
    Cancelled {
        /// Why the token fired.
        reason: CancelReason,
    },
}

impl fmt::Display for SearchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SearchError::RoundTooLarge { round, nodes } => write!(
                f,
                "configuration-search round {round} holds {nodes} nodes, \
                 exceeding the u32 parent-index headroom"
            ),
            SearchError::Cancelled { reason } => {
                write!(f, "configuration search stopped: {reason}")
            }
        }
    }
}

impl std::error::Error for SearchError {}

impl From<CancelReason> for SearchError {
    fn from(reason: CancelReason) -> Self {
        SearchError::Cancelled { reason }
    }
}

/// The arithmetic of one search: integer units on per-resource LCM grids,
/// `u64` or `u128`.
pub(crate) trait SearchUnit: GridUnit + Hash + Default {
    /// A node's place in the emission order.
    type Key: Ord + Copy;

    /// The slot value of a completed-job count.
    fn from_count(count: usize) -> Self;

    /// The completed-job count a slot holds.
    fn count(self) -> usize;

    /// The value in resource units, widened for levels and sums.
    fn units(self) -> u128 {
        self.into()
    }

    /// The emission key of a node with these completed counts and spent
    /// values: (Σ completed, Σ spent), so that survivors leave a round by
    /// key, then index, descending.
    fn emission_key(completed: &[Self], spent: &[Self]) -> Self::Key;

    /// Whether [`SearchUnit::emission_key`] is exact on every node of
    /// `view`.
    fn emission_key_fits(view: &MultiView<Self>) -> bool;
}

impl SearchUnit for u64 {
    /// Σ completed above bit 96, Σ spent below, so that one `u128`
    /// comparison orders by both; exact under `emission_key_fits`.
    type Key = u128;

    fn from_count(count: usize) -> Self {
        count as u64
    }

    fn count(self) -> usize {
        self as usize
    }

    fn emission_key(completed: &[u64], spent: &[u64]) -> u128 {
        let completed: u64 = completed.iter().sum();
        // Summed in u128: with the 2·D capacity headroom, three spent
        // values may exceed u64.
        let spent: u128 = spent.iter().map(|&units| u128::from(units)).sum();
        u128::from(completed) << 96 | spent
    }

    /// Fewer than 2^32 jobs, and m·Σ capacities below 2^96, since a spent
    /// value is at most its layer's capacity.  Failing it takes 2^32 jobs
    /// or 2^32 processors.
    fn emission_key_fits(view: &MultiView<u64>) -> bool {
        let caps: u128 = view.caps.iter().map(|&cap| u128::from(cap)).sum();
        (view.total_jobs() as u128) < 1 << 32
            && caps
                .checked_mul(view.processors() as u128)
                .is_some_and(|bound| bound < 1 << 96)
    }
}

impl SearchUnit for u128 {
    /// (Σ completed, Σ spent).
    type Key = (u64, u128);

    fn from_count(count: usize) -> Self {
        count as u128
    }

    fn count(self) -> usize {
        self as usize
    }

    fn emission_key(completed: &[u128], spent: &[u128]) -> (u64, u128) {
        (
            completed.iter().map(|&done| done as u64).sum(),
            spent.iter().sum(),
        )
    }

    /// Always: the `u128` grid admits `(total_jobs + m) · Σ D_r`, and a
    /// node's m·k spent values sum to at most m · Σ D_r.
    fn emission_key_fits(_view: &MultiView<u128>) -> bool {
        true
    }
}

/// The per-resource requirement table of one search: capacities plus every
/// job's requirement vector, in the unit `V`.
#[derive(Debug, Clone)]
pub(crate) struct MultiView<V> {
    /// Per-resource capacities, length `k`.
    caps: Vec<V>,
    /// Row start offsets into `reqs` (in jobs, not values); length `m + 1`.
    offsets: Vec<usize>,
    /// Per-job requirement vectors, `total_jobs × k`, job-major.
    reqs: Vec<V>,
}

impl<V: SearchUnit> MultiView<V> {
    /// The view of every resource layer: layer `r` lives on the grid of
    /// [`ScaledInstance::layer_capacity`]`(r)`.
    pub(crate) fn from_scaled(scaled: &ScaledInstance<V>) -> Self {
        Self::scaled_layers(scaled, scaled.resources())
    }

    /// The view of the base resource alone.
    pub(crate) fn base_scaled(scaled: &ScaledInstance<V>) -> Self {
        Self::scaled_layers(scaled, 1)
    }

    /// The view of the first `k` layers of `scaled`.
    fn scaled_layers(scaled: &ScaledInstance<V>, k: usize) -> Self {
        let m = scaled.processors();
        let mut offsets = Vec::with_capacity(m + 1);
        let mut reqs = Vec::with_capacity(scaled.total_jobs() * k);
        offsets.push(0);
        // lint: allow(cancel_coverage) — bounded: one setup pass over the instance's jobs
        for i in 0..m {
            // lint: allow(cancel_coverage) — bounded: the processor's jobs
            for j in 0..scaled.jobs_on(i) {
                reqs.extend((0..k).map(|r| scaled.layer_unit_req(r, i, j)));
            }
            offsets.push(offsets[i] + scaled.jobs_on(i));
        }
        MultiView {
            caps: (0..k).map(|r| scaled.layer_capacity(r)).collect(),
            offsets,
            reqs,
        }
    }

    fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    fn resources(&self) -> usize {
        self.caps.len()
    }

    fn jobs_on(&self, processor: usize) -> usize {
        self.offsets[processor + 1] - self.offsets[processor]
    }

    fn total_jobs(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// Values per node: `m` completed counts, then `m·k` spent values.
    fn width(&self) -> usize {
        self.processors() * (1 + self.resources())
    }

    /// Requirement of processor `i`'s `index`-th job on resource `r`.
    fn req(&self, processor: usize, index: usize, r: usize) -> V {
        self.reqs[(self.offsets[processor] + index) * self.resources() + r]
    }

    /// Whether `node` counts every job of every processor as completed.
    fn is_final(&self, node: &[V]) -> bool {
        node[..self.processors()]
            .iter()
            .enumerate()
            .all(|(i, &done)| done.count() >= self.jobs_on(i))
    }
}

/// Per-processor prefix sums behind a node's consumption [`Level`]: entry
/// `start[i] + c` holds the units of processor `i`'s first `c` jobs, summed
/// over the layers, and how many of them require nothing on any layer.
#[derive(Debug)]
pub(crate) struct LevelTable {
    /// Each processor's first entry in `prefix`.
    start: Vec<usize>,
    /// The prefix sums, `jobs_on(i) + 1` entries per processor.
    prefix: Vec<Level>,
}

impl LevelTable {
    /// The table of `view`.
    pub(crate) fn new<V: SearchUnit>(view: &MultiView<V>) -> Self {
        let m = view.processors();
        let mut start = Vec::with_capacity(m);
        let mut prefix = Vec::with_capacity(view.total_jobs() + m);
        // lint: allow(cancel_coverage) — bounded: one pass over the instance's jobs per search
        for i in 0..m {
            start.push(prefix.len());
            let mut level = Level::default();
            prefix.push(level);
            // lint: allow(cancel_coverage) — bounded: one processor's chain
            for j in 0..view.jobs_on(i) {
                let mut units = 0u128;
                // lint: allow(cancel_coverage) — bounded: k resource layers
                for r in 0..view.resources() {
                    units += view.req(i, j, r).units();
                }
                level.0 += units;
                level.1 += u64::from(units == 0);
                prefix.push(level);
            }
        }
        LevelTable { start, prefix }
    }

    /// The level of `node`: the units it has consumed (each processor's
    /// completed requirements plus its spent values, over every layer),
    /// then its completed all-zero jobs.  A node dominating another one it
    /// differs from sits on a strictly higher level: on every processor it
    /// has consumed at least as many units and completed at least as many
    /// free jobs, and where it completed more jobs it consumed more units
    /// (a frontier job's spent value stays below its requirement on at
    /// least one positive layer) unless the extra jobs are free.
    pub(crate) fn level<V: SearchUnit>(&self, node: &[V]) -> Level {
        let (completed, spent) = node.split_at(self.start.len());
        let (units, free) = self.start.iter().zip(completed).fold(
            Level::default(),
            |(units, free), (&start, &done)| {
                let (done_units, done_free) = self.prefix[start + done.count()];
                (units + done_units, free + done_free)
            },
        );
        let spent = spent.iter().fold(0, |sum, value| sum + value.units());
        (units + spent, free)
    }
}

/// Reusable buffers of the successor enumeration (one per search, not one
/// per expansion).
#[derive(Debug, Default)]
struct SuccScratch<V> {
    /// The active processors.
    active: Vec<usize>,
    /// Remaining requirement per active entry per layer, `a × k`.
    rem: Vec<V>,
    /// The successor being written.
    child: Vec<V>,
    /// The choice DFS's buffers, reused by every layer.
    choices: EnumScratch,
    /// The `k ≥ 2` odometer's buffers.
    layers: LayerScratch<V>,
}

/// One layer's choice: the range of its finished entries in
/// [`LayerScratch::finished`], and its partial receiver with the leftover.
type LayerChoice<V> = (usize, usize, Option<(u32, V)>);

/// Reusable buffers of the `k ≥ 2` odometer over the layers' choices.
#[derive(Debug, Default)]
struct LayerScratch<V> {
    /// One layer's remainders over the active entries.
    column: Vec<V>,
    /// Every layer's choices back to back.
    options: Vec<LayerChoice<V>>,
    /// The finished entries of every choice, back to back.
    finished: Vec<u32>,
    /// The end of each layer's choices in `options`.
    ends: Vec<usize>,
    /// The odometer: each layer's current position in its choices.
    pick: Vec<usize>,
    /// Per active entry, the layers the current pick finishes.
    done: Vec<usize>,
}

/// Completes processor `p`'s frontier job in `node`: one more completed job,
/// nothing spent on the next one.
fn complete<V: SearchUnit>(node: &mut [V], m: usize, k: usize, p: usize) {
    node[p] = V::from_count(node[p].count() + 1);
    node[m + p * k..m + (p + 1) * k].fill(V::ZERO);
}

/// Streams every successor of `node` in the per-layer step class into
/// `emit`, as a slice of the scratch that is only valid during the call.
///
/// See the module docs for the choice class.  For `k = 1` the successors
/// are distinct and come in the choice DFS's order; for `k ≥ 2` they come
/// in odometer order, the base layer's choice turning fastest.  The
/// enumeration consults `gate`, so even a single node with an
/// exponentially large choice space stops promptly; successors emitted
/// before the cut are not unwound.
fn for_each_successor<V: SearchUnit>(
    view: &MultiView<V>,
    node: &[V],
    scratch: &mut SuccScratch<V>,
    gate: &mut CancelGate,
    emit: &mut impl FnMut(&[V]),
) -> Result<(), CancelReason> {
    let m = view.processors();
    let k = view.resources();
    let SuccScratch {
        active,
        rem,
        child,
        choices,
        layers,
    } = scratch;
    active.clear();
    rem.clear();
    // lint: allow(cancel_coverage) — bounded: one pass over the m processors per expansion; the choice enumeration below is gated
    for i in 0..m {
        let done = node[i].count();
        if done < view.jobs_on(i) {
            active.push(i);
            if k == 1 {
                // The hot path: one push, measurably cheaper than `extend`.
                rem.push(view.req(i, done, 0).sub(node[m + i]));
            } else {
                rem.extend((0..k).map(|r| view.req(i, done, r).sub(node[m + i * k + r])));
            }
        }
    }
    if active.is_empty() {
        return Ok(());
    }
    if k == 1 {
        // One resource: the requirement-sorted break-prune DFS.
        return for_each_choice_cancellable(
            rem,
            view.caps[0],
            choices,
            gate,
            &mut |finished, partial| {
                child.clear();
                child.extend_from_slice(node);
                // lint: allow(cancel_coverage) — bounded: `finished` is a subset of the <= m active processors
                for &e in finished {
                    complete(child, m, 1, active[e as usize]);
                }
                if let Some((e, leftover)) = partial {
                    // The receiver's remaining exceeds the leftover, so its
                    // new spent value stays below its requirement ≤ D.
                    let i = active[e as usize];
                    child[m + i] = node[m + i] + leftover;
                }
                emit(child);
            },
        );
    }

    layer_successors(view, node, active, rem, child, choices, layers, gate, emit)
}

/// The `k ≥ 2` successors of `node` (see [`for_each_successor`]): every
/// layer's choices from the break-prune DFS over the layer's remainders,
/// composed by an odometer.
#[allow(clippy::too_many_arguments)]
fn layer_successors<V: SearchUnit>(
    view: &MultiView<V>,
    node: &[V],
    active: &[usize],
    rem: &[V],
    child: &mut Vec<V>,
    choices: &mut EnumScratch,
    layers: &mut LayerScratch<V>,
    gate: &mut CancelGate,
    emit: &mut impl FnMut(&[V]),
) -> Result<(), CancelReason> {
    let m = view.processors();
    let k = view.resources();
    let LayerScratch {
        column,
        options,
        finished,
        ends,
        pick,
        done,
    } = layers;
    options.clear();
    finished.clear();
    ends.clear();
    // lint: allow(cancel_coverage) — bounded: k resource layers; each layer's choice DFS is gated
    for r in 0..k {
        column.clear();
        column.extend((0..active.len()).map(|e| rem[e * k + r]));
        for_each_choice_cancellable(column, view.caps[r], choices, gate, &mut |set, partial| {
            let start = finished.len();
            finished.extend_from_slice(set);
            options.push((start, finished.len(), partial));
        })?;
        ends.push(options.len());
    }

    // The odometer over their product.  A finished layer keeps its full
    // requirement as spent; a job that finishes its last layer completes.
    child.clear();
    child.extend_from_slice(node);
    pick.clear();
    pick.resize(k, 0);
    loop {
        gate.tick()?;
        child.copy_from_slice(node);
        done.clear();
        done.resize(active.len(), 0);
        // lint: allow(cancel_coverage) — bounded: k resource layers per gated emission
        for r in 0..k {
            let first = if r == 0 { 0 } else { ends[r - 1] };
            let (start, end, partial) = options[first + pick[r]];
            // lint: allow(cancel_coverage) — bounded: the <= m entries that finish the layer
            for &e in &finished[start..end] {
                let (e, i) = (e as usize, active[e as usize]);
                done[e] += 1;
                child[m + i * k + r] = view.req(i, node[i].count(), r);
            }
            if let Some((e, leftover)) = partial {
                // Below the layer's requirement ≤ D_r, as at k = 1.
                let slot = m + active[e as usize] * k + r;
                child[slot] = node[slot] + leftover;
            }
        }
        // lint: allow(cancel_coverage) — bounded: one pass over the <= m active entries per gated emission
        for (e, &layers_done) in done.iter().enumerate() {
            if layers_done == k {
                complete(child, m, k, active[e]);
            }
        }
        emit(child);

        // Advance the odometer.
        let mut carry = 0usize;
        // lint: allow(cancel_coverage) — bounded: k odometer digits per gated emission
        while carry < k {
            pick[carry] += 1;
            let first = if carry == 0 { 0 } else { ends[carry - 1] };
            if first + pick[carry] < ends[carry] {
                break;
            }
            pick[carry] = 0;
            carry += 1;
        }
        if carry == k {
            return Ok(());
        }
    }
}

/// One round of the configuration search, stored flat: node `i` is the
/// `width` values at `i · width` of `nodes`, reached from position
/// `parents[i]` of the previous round (`u32::MAX` for the initial node).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Round<V> {
    /// Values per node.
    width: usize,
    /// The nodes, back to back.
    nodes: Vec<V>,
    /// Each node's parent position in the previous round.
    parents: Vec<u32>,
}

impl<V: SearchUnit> Round<V> {
    /// An empty round of `width`-value nodes with room for `nodes` of them.
    fn with_capacity(width: usize, nodes: usize) -> Self {
        Round {
            width,
            nodes: Vec::with_capacity(nodes * width),
            parents: Vec::with_capacity(nodes),
        }
    }

    /// The round holding only the initial node: nothing completed, nothing
    /// spent.
    fn initial(width: usize) -> Self {
        let mut round = Round::with_capacity(width, 1);
        round.nodes.resize(width, V::ZERO);
        round.parents.push(u32::MAX);
        round
    }

    /// The number of nodes.
    pub(crate) fn len(&self) -> usize {
        self.parents.len()
    }

    /// Node `i`.
    fn node(&self, i: usize) -> &[V] {
        &self.nodes[i * self.width..(i + 1) * self.width]
    }

    /// Appends `node`, reached from position `parent` of the previous
    /// round.
    fn push(&mut self, node: &[V], parent: u32) {
        self.nodes.extend_from_slice(node);
        self.parents.push(parent);
    }
}

/// One round's candidates while it is expanded and filtered: an arena in
/// the flat layout of a [`Round`] plus a [`RowIndex`] of arena positions
/// that finds exact duplicates.  One `Candidates` lives for a whole search
/// and is cleared, not freed, between rounds.
#[derive(Debug)]
struct Candidates<V> {
    /// The candidates, in insertion order.
    arena: Round<V>,
    /// The arena's nodes by content.
    index: RowIndex,
}

impl<V: SearchUnit> Candidates<V> {
    fn new(width: usize) -> Self {
        Candidates {
            arena: Round::with_capacity(width, 0),
            index: RowIndex::new(),
        }
    }

    fn clear(&mut self) {
        self.arena.nodes.clear();
        self.arena.parents.clear();
        self.index.clear();
    }

    /// Adds `node`, reached from `parent`, unless an exact duplicate is
    /// already present (the first representative wins).
    ///
    /// # Errors
    ///
    /// The candidate count it would reach once the positions no longer fit
    /// `u32` (below the [`EMPTY`] marker).
    fn insert(&mut self, node: &[V], parent: u32) -> Result<(), usize> {
        let width = self.arena.width;
        let Err(slot) = self.index.find(&self.arena.nodes, width, node) else {
            return Ok(());
        };
        let len = self.arena.len();
        let position = u32::try_from(len)
            .ok()
            .filter(|&position| position != EMPTY)
            .ok_or(len + 1)?;
        self.arena.push(node, parent);
        self.index.occupy(slot, position, &self.arena.nodes, width);
        Ok(())
    }
}

/// Expands `prev` into `candidates`: successors in parent order, exact
/// duplicates dropped (the first representative wins).
///
/// # Errors
///
/// [`SearchError::Cancelled`] once the gate's token fires, and
/// [`SearchError::RoundTooLarge`] (for round `round`) when the candidates
/// outgrow `u32` positions.
fn expand_round<V: SearchUnit>(
    view: &MultiView<V>,
    prev: &Round<V>,
    round: usize,
    candidates: &mut Candidates<V>,
    scratch: &mut SuccScratch<V>,
    gate: &mut CancelGate,
) -> Result<(), SearchError> {
    candidates.clear();
    let mut overflow = None;
    // `prev` holds fewer than u32::MAX nodes, so `0u32..` (zipped second,
    // advanced only while `prev` yields) cannot overflow.
    for (index, parent) in (0..prev.len()).zip(0u32..) {
        for_each_successor(view, prev.node(index), scratch, gate, &mut |child| {
            if overflow.is_none() {
                overflow = candidates.insert(child, parent).err();
            }
        })?;
        if let Some(nodes) = overflow {
            return Err(SearchError::RoundTooLarge { round, nodes });
        }
    }
    Ok(())
}

/// The kept candidates of `arena` (nodes over `m` processors) in emission
/// order, key then index descending: keys with arena positions, written to
/// `order`.
fn emission_order<V: SearchUnit>(
    arena: &Round<V>,
    m: usize,
    keep: &[bool],
    order: &mut Vec<(V::Key, u32)>,
) {
    order.clear();
    // The arena holds fewer than u32::MAX candidates (`Candidates::insert`),
    // so `0u32..`, zipped second, cannot overflow.
    order.extend(
        keep.iter()
            .zip(0u32..)
            .filter(|&(&kept, _)| kept)
            .map(|(_, i)| {
                let (completed, spent) = arena.node(i as usize).split_at(m);
                (V::emission_key(completed, spent), i)
            }),
    );
    order.sort_unstable_by(|a, b| b.cmp(a));
}

/// The makespan and expansion count of one finished search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct MultiSearch {
    /// The optimal makespan.
    pub makespan: usize,
    /// Nodes expanded over the whole search.
    pub expanded: usize,
}

/// A finished search: every round's survivors, the initial round first,
/// and the position of the first final node in the last round.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Search<V> {
    rounds: Vec<Round<V>>,
    winner: usize,
}

impl<V: SearchUnit> Search<V> {
    /// The optimal makespan: the rounds after the initial one.
    pub(crate) fn makespan(&self) -> usize {
        self.rounds.len() - 1
    }

    /// The makespan and the nodes expanded: every round's survivors but
    /// the last's.
    fn summary(&self) -> MultiSearch {
        let makespan = self.makespan();
        MultiSearch {
            makespan,
            expanded: self.rounds[..makespan].iter().map(Round::len).sum(),
        }
    }

    /// The survivor count of every round, the initial round first.
    #[cfg(test)]
    pub(crate) fn round_sizes(&self) -> Vec<usize> {
        self.rounds.iter().map(Round::len).collect()
    }

    /// Reconstructs an optimal schedule from a single-resource search over
    /// `view` by back-tracing the winner and replaying each step, in units,
    /// from its parent and child nodes: a processor whose completed count
    /// rose finished its frontier job and was given what that job still
    /// needed, and one whose spent value rose was given the difference.
    /// Each share is converted to a [`cr_core::Ratio`] once, as `units / D`.
    ///
    /// # Panics
    ///
    /// Panics if the search ran over more than one resource, or if a
    /// replayed step hands a processor, or all of them together, more than
    /// the capacity (the checks the `Ratio` schedule builder of `cr_core`
    /// makes on every step).
    pub(crate) fn schedule(&self, view: &MultiView<V>) -> Schedule {
        assert_eq!(
            view.resources(),
            1,
            "schedules are replayed from single-resource searches"
        );
        let m = view.processors();
        let cap = view.caps[0];
        let last = self.makespan();
        // The winner's position in every round, walked back from the last.
        let mut path = vec![0usize; last + 1];
        path[last] = self.winner;
        // lint: allow(cancel_coverage) — bounded: the back-trace visits one node per round of the already-gated search
        for round in (1..=last).rev() {
            path[round - 1] = self.rounds[round].parents[path[round]] as usize;
        }

        let mut steps = Vec::with_capacity(last);
        // lint: allow(cancel_coverage) — bounded: replays one already-gated search round per step
        for round in 1..=last {
            let parent = self.rounds[round - 1].node(path[round - 1]);
            let child = self.rounds[round].node(path[round]);
            let shares: Vec<V> = (0..m)
                .map(|p| {
                    if child[p] > parent[p] {
                        view.req(p, parent[p].count(), 0).sub(parent[m + p])
                    } else {
                        child[m + p].sub(parent[m + p])
                    }
                })
                .collect();
            let total: u128 = shares.iter().map(|&share| share.units()).sum();
            assert!(
                shares.iter().all(|&share| share <= cap) && total <= cap.units(),
                "replayed step {round} overuses the resource: {total} units assigned, \
                 capacity {cap:?}"
            );
            steps.push(
                shares
                    .into_iter()
                    .map(|share| share.ratio_of(cap))
                    .collect(),
            );
        }
        Schedule::new(steps)
    }
}

/// Runs the configuration search to the first round holding a final node,
/// keeping every round.
///
/// `Ok(None)` when `round_cap` cut the search off before any final node
/// appeared.  The token is checked at every round boundary and (through the
/// gates) inside the successor enumeration and the filter, so even a single
/// huge round observes the deadline within
/// [`cr_core::cancel::CHECK_INTERVAL_MS`].
///
/// # Errors
///
/// [`SearchError::Cancelled`] once the token fires, and
/// [`SearchError::RoundTooLarge`] when a round outgrows `u32` positions.
///
/// # Panics
///
/// Panics if a `u64` view holds 2^32 or more jobs, or so many processors
/// that m·Σ capacities exceeds 2^96 (see [`SearchUnit::emission_key_fits`]).
pub(crate) fn run_search_cancellable<V: SearchUnit>(
    view: &MultiView<V>,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<Search<V>>, SearchError> {
    let _search_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_SEARCH);
    let m = view.processors();
    let width = view.width();
    let mut rounds = vec![Round::initial(width)];
    if view.is_final(rounds[0].node(0)) {
        return Ok(Some(Search { rounds, winner: 0 }));
    }
    assert!(
        V::emission_key_fits(view),
        "2^32 jobs or an m·D above 2^96 overflow the packed emission key"
    );

    let levels = LevelTable::new(view);
    let mut candidates = Candidates::new(width);
    let mut scratch = SuccScratch::default();
    let mut filter = DominanceFilter::new(m, view.resources());
    let mut order: Vec<(V::Key, u32)> = Vec::new();
    let mut gate = token.gate(CHOICE_CHECK_STRIDE);
    let mut filter_gate = token.gate(FILTER_CHECK_STRIDE);
    let max_rounds = view.total_jobs() * view.resources() + 1;
    let round_limit = round_cap.map_or(max_rounds, |cap| cap.min(max_rounds));
    for _round in 0..round_limit {
        token.check()?;
        let mut round_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPTM_ROUND);
        crate::obs::optm_rounds().inc();
        // lint: allow(panic_hygiene) — `rounds` is seeded with the initial round before this loop
        let prev = rounds.last().expect("at least the initial round");
        expand_round(
            view,
            prev,
            rounds.len(),
            &mut candidates,
            &mut scratch,
            &mut gate,
        )?;
        round_span.lap(cr_obs::names::SPAN_OPTM_EXPAND);

        // Keep the Lemma 4 survivors, emitted by (Σ completed, Σ spent,
        // index) descending.
        let arena = &candidates.arena;
        filter.clear();
        // lint: allow(cancel_coverage) — bounded: one O(m·k) copy per candidate; the filter ticks its gate per candidate
        for i in 0..arena.len() {
            let node = arena.node(i);
            filter.push(
                node[..m].iter().map(|&done| done.count() as u64),
                &node[m..],
                levels.level(node),
            );
        }
        let keep = filter.survivors(&mut filter_gate)?;
        emission_order(arena, m, keep, &mut order);
        let mut next = Round::with_capacity(width, order.len());
        // lint: allow(cancel_coverage) — bounded: one O(m·k) copy per survivor of the gated filter
        for &(_, i) in &order {
            let i = i as usize;
            next.push(arena.node(i), arena.parents[i]);
        }
        round_span.lap(cr_obs::names::SPAN_OPTM_FILTER);
        crate::obs::record_round_filter(
            arena.len(),
            next.len(),
            filter.checked(),
            filter.settled(),
        );

        let winner = (0..next.len()).find(|&i| view.is_final(next.node(i)));
        rounds.push(next);
        if let Some(winner) = winner {
            return Ok(Some(Search { rounds, winner }));
        }
    }
    // Only a round cap can leave the search unfinished: the uncapped limit
    // of `total_jobs · k + 1` rounds always suffices (every step finishes a
    // positive layer of a job or completes a free one).
    debug_assert!(round_cap.is_some(), "uncapped search must terminate");
    Ok(None)
}

/// [`run_search_cancellable`] without a round cap or a token.
///
/// # Errors
///
/// [`SearchError::RoundTooLarge`] when a round outgrows `u32` positions.
pub(crate) fn run_search<V: SearchUnit>(view: &MultiView<V>) -> Result<Search<V>, SearchError> {
    run_search_cancellable(view, None, &CancelToken::never())
        // lint: allow(panic_hygiene) — with no round cap the search only reports None when capped
        .map(|search| search.expect("the uncapped search reaches a final configuration"))
}

/// [`run_search_cancellable`] reduced to the makespan and the expansion
/// count.
pub(crate) fn search_cancellable<V: SearchUnit>(
    view: &MultiView<V>,
    round_cap: Option<usize>,
    token: &CancelToken,
) -> Result<Option<MultiSearch>, SearchError> {
    Ok(run_search_cancellable(view, round_cap, token)?.map(|search| search.summary()))
}

/// Why a depth-first run stopped without an answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Halt {
    /// The token fired.
    Cancelled(CancelReason),
    /// The decision used up its work budget.
    OutOfWork,
}

impl From<CancelReason> for Halt {
    fn from(reason: CancelReason) -> Self {
        Halt::Cancelled(reason)
    }
}

/// The interval check's buffers: per processor, the prefix sums of what
/// its remaining jobs still need on one layer.
#[derive(Debug, Default)]
struct IntervalScratch {
    /// Each processor's remaining jobs.
    left: Vec<usize>,
    /// Each processor's first entry in `prefix`.
    start: Vec<usize>,
    /// `remaining jobs + 1` prefix sums per processor.
    prefix: Vec<u128>,
}

/// Whether the jobs that `node` leaves can finish within `horizon` more
/// steps by the interval (energetic) argument, Observation 1 on every step
/// window.
///
/// A processor with `n` jobs left runs its `p`-th remaining job (0-based,
/// the frontier job first) inside the window `[p + 1, horizon − (n − 1 −
/// p)]`: the jobs before it need a step each, and so do the jobs after it.
/// On every layer and for every step interval `[a, b] ⊆ [1, horizon]`, the
/// units still needed by the jobs whose windows lie inside `[a, b]` (the
/// frontier job's remainder, the later jobs' requirements) must fit into
/// `(b − a + 1) · D_r`.  An empty window fails the chain bound and the
/// interval `[1, horizon]` the workload bound, so the check implies both.
/// It is necessary, not sufficient, for a schedule of `horizon` steps.
///
/// With `N` the most jobs any processor has left, only the intervals with
/// `a ≤ N` and `b ≥ horizon − N + a` hold a window, so a check sums
/// `m · N · (N + 1) / 2` interval entries per layer at most.  `work` grows
/// by the operations done: per layer, one per remaining job and `m` per
/// interval.
fn interval_fits<V: SearchUnit>(
    view: &MultiView<V>,
    node: &[V],
    horizon: usize,
    scratch: &mut IntervalScratch,
    work: &mut usize,
) -> bool {
    let m = view.processors();
    let k = view.resources();
    let IntervalScratch {
        left,
        start,
        prefix,
    } = scratch;
    left.clear();
    left.extend(
        node[..m]
            .iter()
            .enumerate()
            .map(|(i, &done)| view.jobs_on(i) - done.count()),
    );
    let most = left.iter().copied().max().unwrap_or(0);
    if most > horizon {
        return false;
    }
    // lint: allow(cancel_coverage) — bounded: k resource layers per check
    for r in 0..k {
        start.clear();
        prefix.clear();
        // lint: allow(cancel_coverage) — bounded: one pass over the remaining jobs per layer
        for (i, &done) in node[..m].iter().enumerate() {
            let done = done.count();
            start.push(prefix.len());
            let mut sum = 0u128;
            prefix.push(sum);
            // lint: allow(cancel_coverage) — bounded: one processor's remaining chain
            for j in done..view.jobs_on(i) {
                let need = view.req(i, j, r);
                let need = if j == done {
                    need.sub(node[m + i * k + r])
                } else {
                    need
                };
                sum += need.units();
                prefix.push(sum);
            }
        }
        *work += prefix.len();
        let cap = view.caps[r].units();
        // lint: allow(cancel_coverage) — bounded: at most `most` interval starts per layer
        for a in 1..=most {
            // Widest first: `[1, horizon]` is the workload bound.
            // lint: allow(cancel_coverage) — bounded: at most `most` interval ends per start
            for b in (horizon - most + a..=horizon).rev() {
                *work += m;
                let mut inside = 0u128;
                // lint: allow(cancel_coverage) — bounded: one pass over the m processors per interval
                for (&jobs, &first) in left.iter().zip(start.iter()) {
                    let window = horizon + 1 - jobs;
                    // Remaining jobs p with a − 1 ≤ p ≤ b − window.
                    let end = jobs.min((b + 1).saturating_sub(window));
                    if end >= a {
                        inside += prefix[first + end] - prefix[first + a - 1];
                    }
                }
                if inside > cap.saturating_mul((b - a + 1) as u128) {
                    return false;
                }
            }
        }
    }
    true
}

/// The interval bound of `view`: the least makespan in `[lo, hi]` that
/// passes [`interval_fits`] at the initial node, given that `hi` (a known
/// schedule's makespan) passes.  The check is monotone in the makespan
/// (each window of `T + 1` steps contains one of `T` steps), so a binary
/// search finds it.
pub(crate) fn interval_bound<V: SearchUnit>(view: &MultiView<V>, lo: usize, hi: usize) -> usize {
    let initial = Round::<V>::initial(view.width()).nodes;
    let mut scratch = IntervalScratch::default();
    let (mut lo, mut hi) = (lo.min(hi), hi);
    // lint: allow(cancel_coverage) — bounded: log2(hi − lo) polynomial checks
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if interval_fits(view, &initial, mid, &mut scratch, &mut 0) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    hi
}

/// The decision's child order, prune and budget.
struct Prune {
    levels: LevelTable,
    interval: IntervalScratch,
    /// The work done so far: per child, its width (to build, hash and
    /// compare it) plus its interval check's operations.
    work: usize,
    /// The work allowed before the run halts.
    work_limit: usize,
}

/// One expanded node on the depth-first search's stack.
struct Frame<V> {
    /// The node, its memo key once every child is visited.
    node: Box<[V]>,
    /// The steps it may use (`None` for the brute force).
    steps: Option<usize>,
    /// The children not visited yet, in visiting order.
    children: std::vec::IntoIter<Box<[V]>>,
    /// The least steps to a final node over the children visited.
    best: usize,
}

/// The memoized depth-first search over the configuration graph, shared by
/// the brute force and the decision.
///
/// Without a target it is the brute force: every successor is visited in
/// the successor function's order, and the memo holds each expanded node's
/// exact optimum.  With a target it decides whether a final node lies
/// within the target's steps: it returns the first path it finds, visits
/// children by consumption level, descending, drops a child that fails
/// [`interval_fits`] for the steps left after it, and memoizes a failed
/// node with the steps it failed with plus one, a lower bound on its
/// optimum (a node that fails with `t` steps left fails with fewer).
struct Dfs<'a, V> {
    view: &'a MultiView<V>,
    /// Per node: the exact optimum (no target) or a lower bound on it.
    memo: FxHashMap<Box<[V]>, usize>,
    scratch: SuccScratch<V>,
    gate: CancelGate,
    /// Nodes expanded so far.
    expansions: usize,
    /// `None` for the brute force.
    prune: Option<Prune>,
}

impl<'a, V: SearchUnit> Dfs<'a, V> {
    /// The brute force, or with `work_limit` the decision.
    fn new(view: &'a MultiView<V>, token: &CancelToken, work_limit: Option<usize>) -> Self {
        Dfs {
            view,
            memo: FxHashMap::default(),
            scratch: SuccScratch::default(),
            gate: token.gate(CHOICE_CHECK_STRIDE),
            expansions: 0,
            prune: work_limit.map(|work_limit| Prune {
                levels: LevelTable::new(view),
                interval: IntervalScratch::default(),
                work: 0,
                work_limit,
            }),
        }
    }

    /// The steps from `node` to a final node: the least (`steps` `None`),
    /// or those of the first path found within `steps` (`None` when there
    /// is none).  Every expanded node becomes its own memo key.
    ///
    /// The search keeps its path on an explicit stack of [`Frame`]s and
    /// visits nodes, memoizes them and returns early in the order a
    /// recursion with one call per node would.
    fn brute_force_dfs(
        &mut self,
        node: Box<[V]>,
        steps: Option<usize>,
    ) -> Result<Option<usize>, Halt> {
        let mut stack: Vec<Frame<V>> = Vec::new();
        // The answer of the node visited last, once it has one.
        let mut answer = self.visit(node, steps, &mut stack)?;
        // lint: allow(cancel_coverage) — bounded: each pass visits a child, which ticks the gate, or pops a frame an earlier pass pushed
        loop {
            let Some(frame) = stack.last_mut() else {
                // The stack only empties once the first node answers.
                return Ok(answer.flatten());
            };
            if let Some(Some(sub)) = answer.take() {
                if frame.steps.is_some() {
                    // The first path found answers a decision.
                    stack.pop();
                    answer = Some(Some(sub + 1));
                    continue;
                }
                frame.best = frame.best.min(sub + 1);
            }
            if let Some(child) = frame.children.next() {
                let after = frame.steps.map(|left| left - 1);
                self.gate.tick()?;
                answer = self.visit(child, after, &mut stack)?;
                continue;
            }
            // Every child visited: memoize the node and answer.
            let known = frame.steps.map_or(frame.best, |left| left + 1);
            let best = frame.best;
            self.memo.insert(std::mem::take(&mut frame.node), known);
            stack.pop();
            answer = Some((best != usize::MAX).then_some(best));
        }
    }

    /// Visits `node` with `steps` left: its answer when the node is final,
    /// memoized or out of steps; else `None`, with the node expanded onto
    /// `stack`, its children in visiting order.
    fn visit(
        &mut self,
        node: Box<[V]>,
        steps: Option<usize>,
        stack: &mut Vec<Frame<V>>,
    ) -> Result<Option<Option<usize>>, Halt> {
        let view = self.view;
        if view.is_final(&node) {
            return Ok(Some(Some(0)));
        }
        if let Some(&known) = self.memo.get(&node) {
            match steps {
                None => return Ok(Some((known != usize::MAX).then_some(known))),
                Some(left) if known > left => return Ok(Some(None)),
                Some(_) => {}
            }
        }
        if steps == Some(0) {
            return Ok(Some(None));
        }
        self.gate.tick()?;
        if let Some(prune) = &self.prune {
            if prune.work >= prune.work_limit {
                return Err(Halt::OutOfWork);
            }
        }
        self.expansions += 1;
        // Collect the successors first: the children's visits reuse the
        // scratch.
        let mut children: Vec<Box<[V]>> = Vec::new();
        for_each_successor(
            view,
            &node,
            &mut self.scratch,
            &mut self.gate,
            &mut |child| {
                children.push(Box::from(child));
            },
        )?;
        if let (Some(prune), Some(after)) = (&mut self.prune, steps.map(|left| left - 1)) {
            let Prune {
                levels,
                interval,
                work,
                ..
            } = prune;
            *work += children.len() * view.width();
            children.retain(|child| interval_fits(view, child, after, interval, work));
            children.sort_by_cached_key(|child| std::cmp::Reverse(levels.level(child)));
        }
        stack.push(Frame {
            node,
            steps,
            children: children.into_iter(),
            best: usize::MAX,
        });
        Ok(None)
    }

    /// The initial node.
    fn initial(&self) -> Box<[V]> {
        Round::<V>::initial(self.view.width())
            .nodes
            .into_boxed_slice()
    }
}

/// Memoized exhaustive search over the same nodes and successors, without
/// the domination filter.  Returns `(optimal makespan, memoized states,
/// expansions)`.  The token is checked up front, then on every expansion
/// and (through the gate) inside the successor enumeration, so even an
/// exponential search stops within one check stride of the token firing.
pub(crate) fn brute_force_cancellable<V: SearchUnit>(
    view: &MultiView<V>,
    token: &CancelToken,
) -> Result<(usize, usize, usize), CancelReason> {
    token.check()?;
    let mut dfs = Dfs::new(view, token, None);
    let best = dfs
        .brute_force_dfs(dfs.initial(), None)
        .map_err(|halt| match halt {
            Halt::Cancelled(reason) => reason,
            // The brute force has no work budget.
            Halt::OutOfWork => CancelReason::Cancelled,
        })?;
    Ok((best.unwrap_or(usize::MAX), dfs.memo.len(), dfs.expansions))
}

/// What [`decide`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Decision {
    /// The optimum, or `None` when the work budget ran out first.
    pub(crate) makespan: Option<usize>,
    /// The nodes expanded.
    pub(crate) expansions: usize,
}

/// The depth-first decision behind a makespan-only `"OptM"` answer, at
/// every `k`: given a schedule of `best` steps and a lower bound `floor`, it
/// decides whether `best − 1` steps suffice and, each time a path is
/// found, whether one step fewer than that path does, down to `floor`.
/// Failed nodes stay memoized from one target to the next.  The run halts
/// without a makespan once it has done `work_limit` work (per child
/// generated, its width plus its interval check's operations); the caller
/// then runs the configuration search.  Its stack holds at most `best − 1`
/// frames.
///
/// # Errors
///
/// [`CancelReason`] once the token fires.
pub(crate) fn decide<V: SearchUnit>(
    view: &MultiView<V>,
    best: usize,
    floor: usize,
    work_limit: usize,
    token: &CancelToken,
) -> Result<Decision, CancelReason> {
    let mut dfs = Dfs::new(view, token, Some(work_limit));
    let mut makespan = Some(best);
    while let Some(answer) = makespan.filter(|&answer| answer > floor) {
        token.check()?;
        match dfs.brute_force_dfs(dfs.initial(), Some(answer - 1)) {
            Ok(Some(steps)) => makespan = Some(steps),
            Ok(None) => break,
            Err(Halt::Cancelled(reason)) => return Err(reason),
            Err(Halt::OutOfWork) => makespan = None,
        }
    }
    Ok(Decision {
        makespan,
        expansions: dfs.expansions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::{ratio, Instance, InstanceBuilder, Ratio};
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    fn never() -> CancelToken {
        CancelToken::never()
    }

    fn scaled_makespan(inst: &Instance) -> usize {
        let scaled = ScaledInstance::try_new(inst).expect("grid fits");
        let view = MultiView::from_scaled(&scaled);
        search_cancellable(&view, None, &never())
            .expect("never token")
            .expect("uncapped")
            .makespan
    }

    /// The `u128` grid of `inst`.
    fn wide(inst: &Instance) -> ScaledInstance<u128> {
        ScaledInstance::try_on_grid(inst).expect("grid fits u128")
    }

    fn wide_makespan(inst: &Instance) -> usize {
        let view = MultiView::from_scaled(&wide(inst));
        search_cancellable(&view, None, &never())
            .expect("never token")
            .expect("uncapped")
            .makespan
    }

    /// The base `u64` view of a percentage instance.
    fn scaled_view(rows: &[&[i64]]) -> MultiView<u64> {
        let inst = Instance::unit_from_percentages(rows);
        MultiView::base_scaled(&ScaledInstance::try_new(&inst).unwrap())
    }

    /// Every successor of `node`, in emission order.
    fn successors<V: SearchUnit>(view: &MultiView<V>, node: &[V]) -> Vec<Vec<V>> {
        let mut scratch = SuccScratch::default();
        let mut gate = never().gate(CHOICE_CHECK_STRIDE);
        let mut out = Vec::new();
        for_each_successor(view, node, &mut scratch, &mut gate, &mut |child| {
            out.push(child.to_vec());
        })
        .expect("a never token cannot fire");
        out
    }

    /// One `k = 1` successor as a comparable value: node, sorted finished
    /// processors, partial receiver.
    type ChoiceKey = (Vec<u64>, Vec<u32>, Option<(u32, u64)>);

    /// A `k = 1` successor with its step as the replay recovers it: the
    /// processors whose completed count rose, and the one whose spent
    /// units rose, with the difference.
    fn choice_key(parent: &[u64], child: &[u64]) -> ChoiceKey {
        let m = parent.len() / 2;
        let mut finished = Vec::new();
        let mut partial = None;
        for p in 0..m {
            let id = u32::try_from(p).unwrap();
            if child[p] > parent[p] {
                finished.push(id);
            } else if child[m + p] > parent[m + p] {
                assert!(partial.is_none(), "a step has one partial receiver");
                partial = Some((id, child[m + p] - parent[m + p]));
            }
        }
        (child.to_vec(), finished, partial)
    }

    fn enumerator_choices(view: &MultiView<u64>, node: &[u64]) -> BTreeSet<ChoiceKey> {
        let mut out = BTreeSet::new();
        for child in successors(view, node) {
            assert!(
                out.insert(choice_key(node, &child)),
                "the enumerator must not emit a choice twice"
            );
        }
        out
    }

    /// The reference `2^k` bitmask scan (the pre-ISSUE-4 algorithm),
    /// normalized to the Lemma 4 rule that zero-remaining frontiers always
    /// complete (the variants that skip them are strictly dominated and the
    /// pruned enumerator no longer emits them).  Only valid for `k ≤ 31`.
    fn mask_scan_choices(view: &MultiView<u64>, node: &[u64]) -> BTreeSet<ChoiceKey> {
        let m = view.processors();
        let mut active = Vec::new();
        let mut remaining = Vec::new();
        for i in 0..m {
            let done = node[i] as usize;
            if done < view.jobs_on(i) {
                active.push(i);
                remaining.push(view.req(i, done, 0) - node[m + i]);
            }
        }
        let mut out = BTreeSet::new();
        if active.is_empty() {
            return out;
        }
        let k = active.len();
        assert!(k < 32, "the reference mask scan is limited to 31 actives");
        let cap = view.caps[0];
        let build = |mask: u32, partial: Option<(u32, u64)>| -> ChoiceKey {
            let mut child = node.to_vec();
            let mut finished = Vec::new();
            for (bit, &p) in active.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    child[p] += 1;
                    child[m + p] = 0;
                    finished.push(u32::try_from(p).unwrap());
                }
            }
            if let Some((p, amount)) = partial {
                child[m + p as usize] += amount;
            }
            finished.sort_unstable();
            (child, finished, partial)
        };
        let total: u128 = remaining.iter().map(|&r| u128::from(r)).sum();
        if total <= u128::from(cap) {
            out.insert(build((1u32 << k) - 1, None));
            return out;
        }
        for mask in 1u32..(1u32 << k) {
            // Normalization: every zero-remaining frontier completes.
            if remaining
                .iter()
                .enumerate()
                .any(|(bit, &r)| r == 0 && mask & (1 << bit) == 0)
            {
                continue;
            }
            let sum: u128 = remaining
                .iter()
                .enumerate()
                .filter(|&(bit, _)| mask & (1 << bit) != 0)
                .map(|(_, &r)| u128::from(r))
                .sum();
            if sum > u128::from(cap) {
                continue;
            }
            let leftover = cap - u64::try_from(sum).unwrap();
            if leftover == 0 {
                out.insert(build(mask, None));
                continue;
            }
            for (bit, &p) in active.iter().enumerate() {
                if mask & (1 << bit) == 0 && remaining[bit] > leftover {
                    out.insert(build(mask, Some((u32::try_from(p).unwrap(), leftover))));
                }
            }
        }
        out
    }

    #[test]
    fn successor_streaming_matches_manual_enumeration() {
        let view = scaled_view(&[&[60, 40], &[60, 40]]);
        let init = vec![0; view.width()];
        let seen: Vec<ChoiceKey> = successors(&view, &init)
            .iter()
            .map(|child| choice_key(&init, child))
            .collect();
        // 60 + 60 > 100: either frontier may finish, the other carries 40.
        assert_eq!(seen.len(), 2);
        for (child, finished, partial) in &seen {
            assert_eq!(finished.len(), 1);
            let (p, amount) = partial.unwrap();
            assert_eq!(amount.ratio_of(view.caps[0]), Ratio::from_percent(40));
            assert_eq!(child[2 + p as usize], amount);
            assert_ne!(finished[0], p);
        }
    }

    #[test]
    fn all_fit_step_finishes_everything() {
        let view = scaled_view(&[&[30], &[30], &[40]]);
        let init = vec![0; view.width()];
        let children = successors(&view, &init);
        assert_eq!(children.len(), 1);
        let (_, finished, partial) = choice_key(&init, &children[0]);
        assert_eq!(finished, &[0, 1, 2]);
        assert!(partial.is_none());
        assert!(view.is_final(&children[0]));
    }

    #[test]
    fn wide_active_sets_no_longer_assert() {
        // 40 active processors: 4 oversubscribed heavies plus 36 free
        // (zero-requirement) frontiers.  The pre-ISSUE-4 engine asserted
        // `k < 32` here.
        let mut rows: Vec<&[i64]> = vec![&[90]; 4];
        rows.extend(std::iter::repeat(&[0i64][..]).take(36));
        let view = scaled_view(&rows);
        let init = vec![0; view.width()];
        let children = successors(&view, &init);
        // The 36 free frontiers complete in every choice, exactly one heavy
        // completes, and another heavy carries the leftover.
        assert_eq!(children.len(), 4 * 3);
        for child in &children {
            let (_, finished, partial) = choice_key(&init, child);
            assert_eq!(finished.len(), 37);
            assert!(partial.is_some());
        }
    }

    #[test]
    fn near_max_capacity_sums_are_checked_not_wrapped() {
        // Largest prime below 2^63: the capacity consumes all but one bit of
        // u64, so the three-fold remaining sum overflows and must be treated
        // as oversubscribed (pre-ISSUE-4: silent wraparound in release).
        let p: i128 = 9_223_372_036_854_775_783;
        let inst = InstanceBuilder::new()
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .build();
        let s = ScaledInstance::try_new(&inst).expect("2·D headroom admits capacities up to 2^63");
        assert_eq!(s.capacity(), 9_223_372_036_854_775_783u64);
        let view = MultiView::base_scaled(&s);
        let search = run_search(&view).unwrap();
        // One job finishes per step; the one-unit leftover barely helps.
        assert_eq!(search.makespan(), 3);
        assert_eq!(search.schedule(&view).makespan(&inst).unwrap(), 3);
    }

    #[test]
    fn packed_emission_keys_order_spent_sums_beyond_u64() {
        // The instance of `near_max_capacity_sums_are_checked_not_wrapped`:
        // three spent values just below the capacity sum past u64::MAX, two
        // stay below it, and the packed key must still emit by (Σc, Σs,
        // index) descending.
        let p: i128 = 9_223_372_036_854_775_783;
        let inst = InstanceBuilder::new()
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .processor([Ratio::new(p - 1, p)])
            .build();
        let view = MultiView::base_scaled(&ScaledInstance::try_new(&inst).unwrap());
        assert!(u64::emission_key_fits(&view));
        let d = view.caps[0];
        let nodes: [[u64; 6]; 7] = [
            [0, 0, 0, d - 2, d - 2, d - 2],
            [1, 0, 0, 0, d - 2, d - 2],
            [0, 0, 0, d - 2, d - 3, d - 2],
            [0, 0, 0, d - 3, d - 2, d - 2],
            [0, 1, 1, 7, 0, 0],
            [0, 0, 0, d - 2, d - 2, d - 3],
            [0, 0, 0, d - 2, d - 2, 0],
        ];
        let keep = [true, true, true, false, true, true, true];
        let mut arena = Round::with_capacity(6, nodes.len());
        for node in &nodes {
            arena.push(node, 0);
        }
        let mut order = Vec::new();
        emission_order(&arena, 3, &keep, &mut order);
        let mut want: Vec<(u64, u128, usize)> = (0..nodes.len())
            .filter(|&i| keep[i])
            .map(|i| {
                let (completed, spent) = nodes[i].split_at(3);
                let spent: u128 = spent.iter().map(|&units| u128::from(units)).sum();
                (completed.iter().sum(), spent, i)
            })
            .collect();
        want.sort_unstable_by(|a, b| b.cmp(a));
        assert!(want[2..5]
            .iter()
            .all(|&(_, spent, _)| spent > u128::from(u64::MAX)));
        let got: Vec<usize> = order.iter().map(|&(_, i)| i as usize).collect();
        assert_eq!(got, [4, 1, 0, 5, 2, 6]);
        assert_eq!(got, want.iter().map(|&(_, _, i)| i).collect::<Vec<_>>());
    }

    /// The keep mask the search's filter computes for `u64` nodes over
    /// `view`, levels included.
    fn survivors(view: &MultiView<u64>, nodes: &[&[u64]]) -> Vec<bool> {
        let m = view.processors();
        let levels = LevelTable::new(view);
        let mut filter = DominanceFilter::new(m, 1);
        for node in nodes {
            filter.push(node[..m].iter().copied(), &node[m..], levels.level(node));
        }
        let mut gate = never().gate(FILTER_CHECK_STRIDE);
        filter.survivors(&mut gate).unwrap().to_vec()
    }

    #[test]
    fn domination_is_reflexive_and_ordered() {
        // completed = [2, 1] / spent = [0, 30] dominates [1, 1] / [90, 10]
        // and, on an equal spent value, [2, 1] / [0, 20], in either push
        // order.
        let view = scaled_view(&[&[99, 99, 99], &[97, 97]]);
        let a: &[u64] = &[2, 1, 0, 30];
        let b: &[u64] = &[1, 1, 90, 10];
        let c: &[u64] = &[2, 1, 0, 20];
        assert_eq!(survivors(&view, &[a, c]), [true, false]);
        assert_eq!(survivors(&view, &[c, a]), [false, true]);
        assert_eq!(survivors(&view, &[a, b]), [true, false]);
        assert_eq!(survivors(&view, &[b, a]), [false, true]);
    }

    #[test]
    fn search_solves_known_instances() {
        let cases: [(&[&[i64]], usize); 3] = [
            (&[&[100], &[100], &[100]], 3),
            (&[&[50, 20], &[30, 30], &[20, 50]], 2),
            (&[&[50, 50, 50, 50], &[100], &[100]], 4),
        ];
        for (rows, want) in cases {
            assert_eq!(run_search(&scaled_view(rows)).unwrap().makespan(), want);
        }
    }

    #[test]
    fn zero_extra_layer_matches_the_scalar_search() {
        let base = Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]);
        let with_layer = InstanceBuilder::new()
            .processor([ratio(6, 10), ratio(4, 10), ratio(8, 10)])
            .processor([ratio(3, 10), ratio(9, 10), ratio(1, 10)])
            .extra_layer([vec![Ratio::ZERO; 3], vec![Ratio::ZERO; 3]])
            .build();
        assert_eq!(with_layer.resources(), 2);
        let scalar = crate::opt_m_makespan(&base);
        assert_eq!(scaled_makespan(&with_layer), scalar);
        assert_eq!(wide_makespan(&with_layer), scalar);
    }

    #[test]
    fn binding_second_resource_raises_the_makespan() {
        // Cheap on the base resource, oversubscribed on the extra one:
        // workload bound on layer 1 is 1.5 → at least 2 steps.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        assert_eq!(scaled_makespan(&inst), 2);
        assert_eq!(wide_makespan(&inst), 2);
    }

    #[test]
    fn per_resource_receivers_split_across_processors() {
        // Job 0 saturates resource 0, job 1 saturates resource 1; the
        // third processor's job needs both.  Finishing jobs 0 and 1 first
        // leaves the pair of leftovers to processor 2 on different layers.
        let inst = InstanceBuilder::new()
            .processor([Ratio::ONE])
            .processor([ratio(1, 100)])
            .processor([ratio(3, 5)])
            .extra_layer([vec![ratio(1, 100)], vec![Ratio::ONE], vec![ratio(3, 5)]])
            .build();
        let value = scaled_makespan(&inst);
        assert_eq!(value, wide_makespan(&inst));
        // Workload: layer 0 and 1 both sum to 1.61 → lower bound 2.
        assert_eq!(value, 2);
    }

    #[test]
    fn round_cap_cuts_the_search_off() {
        let inst = InstanceBuilder::new()
            .processor([Ratio::ONE])
            .processor([Ratio::ONE])
            .extra_layer([vec![Ratio::ONE], vec![Ratio::ONE]])
            .build();
        let view = MultiView::from_scaled(&wide(&inst));
        assert_eq!(search_cancellable(&view, Some(1), &never()).unwrap(), None);
        let full = search_cancellable(&view, Some(2), &never())
            .unwrap()
            .expect("two rounds suffice");
        assert_eq!(full.makespan, 2);
    }

    #[test]
    fn cancelled_search_stops_early() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2)])
            .processor([ratio(1, 2), ratio(1, 2)])
            .extra_layer([vec![ratio(1, 3); 2], vec![ratio(2, 3); 2]])
            .build();
        let token = CancelToken::new();
        token.cancel();
        for search in [
            search_cancellable(&MultiView::from_scaled(&wide(&inst)), None, &token),
            search_cancellable(
                &MultiView::from_scaled(&ScaledInstance::try_new(&inst).unwrap()),
                None,
                &token,
            ),
        ] {
            assert_eq!(
                search,
                Err(SearchError::Cancelled {
                    reason: CancelReason::Cancelled
                })
            );
        }
    }

    #[test]
    fn cancelled_search_surfaces_a_structured_error() {
        let view = scaled_view(&[&[100], &[100], &[100]]);
        let token = CancelToken::new();
        token.cancel();
        let err = run_search_cancellable(&view, None, &token).unwrap_err();
        assert_eq!(
            err,
            SearchError::Cancelled {
                reason: CancelReason::Cancelled
            }
        );
        assert!(err.to_string().contains("cancelled externally"));
        let err = brute_force_cancellable(&view, &token).unwrap_err();
        assert_eq!(err, CancelReason::Cancelled);
        // An unfired token changes nothing: same rounds as the plain entry.
        let live = CancelToken::new();
        let cancellable = run_search_cancellable(&view, None, &live).unwrap();
        assert_eq!(cancellable, Some(run_search(&view).unwrap()));
    }

    #[test]
    fn brute_force_agrees_with_search() {
        let cases: [&[&[i64]]; 2] = [
            &[&[50, 20], &[30, 30], &[20, 50]],
            &[&[90, 5], &[80, 15], &[70, 25]],
        ];
        for rows in cases {
            let view = scaled_view(rows);
            let (best, states, expansions) = brute_force_cancellable(&view, &never()).unwrap();
            assert_eq!(best, run_search(&view).unwrap().makespan());
            assert!(states > 0);
            assert!(expansions > 0);
        }
    }

    #[test]
    fn brute_force_agrees_with_the_search() {
        let instances = [
            InstanceBuilder::new()
                .processor([ratio(1, 10)])
                .processor([ratio(1, 10)])
                .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
                .build(),
            InstanceBuilder::new()
                .processor([ratio(1, 2), ratio(1, 2)])
                .processor([ratio(1, 2), ratio(1, 2)])
                .extra_layer([vec![ratio(1, 3); 2], vec![ratio(2, 3); 2]])
                .build(),
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10], &[50]]),
        ];
        for inst in instances {
            let (best, states, expansions) =
                brute_force_cancellable(&MultiView::from_scaled(&wide(&inst)), &never()).unwrap();
            assert_eq!(best, wide_makespan(&inst), "{inst}");
            assert!(states > 0 && expansions > 0);
            // One brute force on two widths: the same configurations.
            let units = MultiView::from_scaled(&ScaledInstance::try_new(&inst).unwrap());
            assert_eq!(
                brute_force_cancellable(&units, &never()).unwrap(),
                (best, states, expansions),
                "{inst}"
            );
            let token = CancelToken::new();
            token.cancel();
            assert_eq!(
                brute_force_cancellable(&MultiView::from_scaled(&wide(&inst)), &token),
                Err(CancelReason::Cancelled)
            );
        }
    }

    #[test]
    fn base_view_ignores_the_extra_layers() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        let view = MultiView::base_scaled(&wide(&inst));
        let search = run_search(&view).unwrap();
        assert_eq!(search.makespan(), 1);
        assert_eq!(search.schedule(&view).num_steps(), 1);
        let view = MultiView::base_scaled(&ScaledInstance::try_new(&inst).unwrap());
        assert_eq!(run_search(&view).unwrap().makespan(), 1);
        assert_eq!(wide_makespan(&inst), 2);
    }

    #[test]
    fn empty_instance_finishes_in_zero_rounds() {
        let inst = InstanceBuilder::new()
            .empty_processor()
            .empty_processor()
            .build();
        let view = MultiView::from_scaled(&wide(&inst));
        let out = search_cancellable(&view, None, &never()).unwrap().unwrap();
        assert_eq!(out.makespan, 0);
        assert_eq!(out.expanded, 0);
    }

    #[test]
    fn empty_instance_is_final_immediately() {
        let inst = InstanceBuilder::new()
            .empty_processor()
            .empty_processor()
            .build();
        let view = MultiView::base_scaled(&ScaledInstance::try_new(&inst).unwrap());
        let search = run_search(&view).unwrap();
        assert_eq!(search.makespan(), 0);
        assert_eq!(search.schedule(&view).num_steps(), 0);
    }

    #[test]
    fn search_error_displays_the_offending_round() {
        let err = SearchError::RoundTooLarge {
            round: 7,
            nodes: 5_000_000_000,
        };
        assert!(err.to_string().contains("round 7"));
        assert!(err.to_string().contains("5000000000"));
    }

    /// One pinned case: percentage rows and the replayed schedule's steps.
    type PinnedCase = (
        &'static [&'static [i64]],
        &'static [&'static [&'static str]],
    );

    /// Replays every case on both widths and compares the steps.
    fn assert_pinned_schedules(cases: &[PinnedCase]) {
        for &(rows, want) in cases {
            let inst = Instance::unit_from_percentages(rows);
            let units = MultiView::base_scaled(&ScaledInstance::try_new(&inst).unwrap());
            let wide = MultiView::base_scaled(&wide(&inst));
            let want: Vec<Vec<String>> = want
                .iter()
                .map(|step| step.iter().map(|&share| share.to_string()).collect())
                .collect();
            for schedule in [
                run_search(&units).unwrap().schedule(&units),
                run_search(&wide).unwrap().schedule(&wide),
            ] {
                let got: Vec<Vec<String>> = schedule
                    .steps()
                    .iter()
                    .map(|step| step.iter().map(ToString::to_string).collect())
                    .collect();
                assert_eq!(got, want, "{inst}");
            }
        }
    }

    /// The search's emitted order decides which optimal schedule is
    /// replayed (the last round's first final node, the first
    /// representative of every duplicate, the parents it points back to).
    /// These schedules were recorded from the kept-prefix filter the
    /// bucketed one replaced, on four `Uniform m=4 n=3` instances
    /// (`cr_instances::random_unit_instance` seeds 1000, 1001, 1002 and 7),
    /// and must not move.
    #[test]
    fn pinned_uniform_schedules_are_unchanged() {
        assert_pinned_schedules(&[
            (
                &[&[72, 96, 3], &[8, 86, 77], &[50, 56, 37], &[33, 54, 21]],
                &[
                    &["9/100", "2/25", "1/2", "33/100"],
                    &["63/100", "37/100", "0", "0"],
                    &["24/25", "0", "0", "1/25"],
                    &["1/100", "49/100", "0", "1/2"],
                    &["1/50", "21/100", "14/25", "21/100"],
                    &["0", "14/25", "37/100", "0"],
                ],
            ),
            (
                &[&[81, 72, 66], &[85, 90, 91], &[5, 63, 62], &[55, 70, 63]],
                &[
                    &["2/5", "0", "1/20", "11/20"],
                    &["0", "0", "63/100", "37/100"],
                    &["0", "17/20", "3/20", "0"],
                    &["0", "9/10", "1/10", "0"],
                    &["41/100", "13/50", "0", "33/100"],
                    &["18/25", "0", "0", "7/25"],
                    &["7/25", "0", "37/100", "7/20"],
                    &["19/50", "31/50", "0", "0"],
                    &["0", "3/100", "0", "0"],
                ],
            ),
            (
                &[&[63, 88, 40], &[56, 21, 19], &[40, 8, 51], &[64, 59, 53]],
                &[
                    &["0", "14/25", "2/5", "1/25"],
                    &["11/100", "21/100", "2/25", "3/5"],
                    &["13/25", "0", "0", "12/25"],
                    &["22/25", "0", "1/100", "11/100"],
                    &["2/5", "19/100", "0", "41/100"],
                    &["0", "0", "1/2", "3/25"],
                ],
            ),
            (
                &[&[97, 40, 90], &[51, 86, 45], &[85, 21, 24], &[53, 38, 24]],
                &[
                    &["0", "51/100", "0", "49/100"],
                    &["0", "11/100", "17/20", "1/25"],
                    &["97/100", "0", "0", "3/100"],
                    &["1/25", "3/4", "21/100", "0"],
                    &["9/25", "1/20", "6/25", "7/20"],
                    &["9/25", "2/5", "0", "6/25"],
                    &["27/50", "0", "0", "0"],
                ],
            ),
        ]);
    }

    /// Replay derives each step from a parent and child node, so free
    /// (zero-requirement) jobs, which complete without moving a unit, and
    /// empty processors are pinned too.  Recorded from the engine that
    /// stored each node's step decision: a small `WideOversub`-style
    /// instance (three 90% chains beside three free chains) and a mix of
    /// free jobs, an empty processor and a partial receiver.
    #[test]
    fn pinned_zero_job_schedules_are_unchanged() {
        assert_pinned_schedules(&[
            (
                &[
                    &[90, 90],
                    &[90, 90],
                    &[90, 90],
                    &[0, 0, 0],
                    &[0, 0, 0],
                    &[0, 0, 0],
                ],
                &[
                    &["1/10", "9/10", "0", "0", "0", "0"],
                    &["0", "1/10", "9/10", "0", "0", "0"],
                    &["4/5", "0", "1/5", "0", "0", "0"],
                    &["1/5", "4/5", "0", "0", "0", "0"],
                    &["7/10", "0", "3/10", "0", "0", "0"],
                    &["0", "0", "2/5", "0", "0", "0"],
                ],
            ),
            (
                &[&[0, 60, 0, 40], &[], &[30, 0, 70, 0], &[55, 45, 0], &[0, 0]],
                &[
                    &["0", "0", "3/10", "11/20", "0"],
                    &["3/5", "0", "0", "2/5", "0"],
                    &["0", "0", "7/10", "1/20", "0"],
                    &["2/5", "0", "0", "0", "0"],
                ],
            ),
        ]);
    }

    /// Percent rows snapped onto the grid `1/den`.
    fn percent_layer(den: u64, rows: &[Vec<u64>]) -> Vec<Vec<Ratio>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|&pct| Ratio::from_parts(pct * den / 100, den))
                    .collect()
            })
            .collect()
    }

    fn percent_instance(den: u64, rows: &[Vec<u64>]) -> Instance {
        Instance::unit_from_requirements(percent_layer(den, rows))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The pruned DFS enumerator emits exactly the successor set of the
        /// reference mask scan for active widths up to k = 12, on the
        /// initial node and on a sample of first-round successors.
        #[test]
        fn enumerator_matches_reference_mask_scan(
            den in 1u64..=24,
            rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=2), 1..=12),
        ) {
            let inst = percent_instance(den, &rows);
            let s = ScaledInstance::try_new(&inst).expect("small denominators always scale");
            let view = MultiView::base_scaled(&s);
            let init = vec![0; view.width()];
            prop_assert_eq!(enumerator_choices(&view, &init), mask_scan_choices(&view, &init));
            // Wide oversubscribed frontiers can have hundreds of first-round
            // successors; re-checking a prefix keeps the reference 2^k scan
            // affordable while still covering non-initial spent states.
            for (node, _, _) in enumerator_choices(&view, &init).into_iter().take(16) {
                prop_assert_eq!(
                    enumerator_choices(&view, &node),
                    mask_scan_choices(&view, &node)
                );
            }
        }

        /// The `u64` and `u128` grids of one instance run one search: equal
        /// makespans and round sizes, equal brute-force (states,
        /// expansions), and at `k = 1` equal schedules, on random percent
        /// grids with one or two resource layers.
        #[test]
        fn both_widths_search_alike(
            den in 1u64..=24,
            k in 1usize..=2,
            rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=3), 2..=3),
            extra in prop::collection::vec(0u64..=100, 9),
        ) {
            let inst = if k == 1 {
                percent_instance(den, &rows)
            } else {
                let extra: Vec<Vec<u64>> = rows
                    .iter()
                    .enumerate()
                    .map(|(i, row)| extra[3 * i..3 * i + row.len()].to_vec())
                    .collect();
                Instance::multi_unit_from_requirements(vec![
                    percent_layer(den, &rows),
                    percent_layer(den, &extra),
                ])
                .expect("the layers share one shape")
            };
            let units = MultiView::from_scaled(&ScaledInstance::try_new(&inst).unwrap());
            let wide = MultiView::from_scaled(&wide(&inst));
            let (narrow_search, wide_search) = (run_search(&units).unwrap(), run_search(&wide).unwrap());
            prop_assert_eq!(narrow_search.makespan(), wide_search.makespan());
            prop_assert_eq!(narrow_search.round_sizes(), wide_search.round_sizes());
            prop_assert_eq!(
                brute_force_cancellable(&units, &never()).unwrap(),
                brute_force_cancellable(&wide, &never()).unwrap()
            );
            if k == 1 {
                prop_assert_eq!(narrow_search.schedule(&units), wide_search.schedule(&wide));
            }
        }
    }
}
