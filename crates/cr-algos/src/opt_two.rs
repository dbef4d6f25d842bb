//! `OptResAssignment` — the exact `O(n₁ · n₂)` dynamic program for **two**
//! processors (Algorithm 1, Theorem 5 of the paper).
//!
//! The dynamic program fills a table indexed by the pair `(c₁, c₂)` of job
//! counts already completed on the two processors.  Each cell stores the
//! earliest time step `t` by which this can be achieved together with the
//! smallest possible sum `r` of remaining requirements of the two frontier
//! jobs at that time (Lemma 3 shows this pair of values is all that matters).
//! Cells are processed diagonal by diagonal (`c₁ + c₂` increasing), exactly
//! as in the paper's pseudo code; a sparse variant that only visits reachable
//! cells (the priority-queue implementation sketched after Theorem 5) is
//! provided as [`opt_two_makespan_sparse`].
//!
//! In every time step of a normalized optimal schedule at least one frontier
//! job completes (Lemma 1), which leaves exactly three transitions:
//!
//! * the remaining requirements of both frontier jobs sum to at most 1 —
//!   finish both;
//! * otherwise finish only the first processor's frontier job and give the
//!   leftover resource to the second processor's frontier job;
//! * or vice versa.
//!
//! The DP runs on a flat integer table over the instance's unit grid
//! (`ScaledDpTable`): `u64` when it fits, `u128` otherwise (the solver's
//! grid choice).  Its cell values — one frontier requirement plus one
//! carried leftover, each at most the capacity `D` — are exactly what the
//! `2·D` headroom of [`ScaledInstance::try_new`] reserves, and the `u128`
//! grid admits them too.  The schedule is replayed from the back-traced
//! decisions in units as well.  [`opt_two_makespan_sparse`] keeps the
//! `Ratio` arithmetic, an independent reference for the tests.

use crate::multi_engine::SearchUnit;
use crate::solver::{auto_grid, on_grid};
use crate::traits::Scheduler;
use cr_core::{CancelReason, CancelToken, Instance, Ratio, ScaledInstance, Schedule};
use rustc_hash::FxHashMap;

/// How many DP cells between token checks: cells are a handful of integer
/// ops each, so the gate overhead must be amortized over many of them.
const SCALED_DP_CHECK_STRIDE: u32 = 4096;

/// Which jobs complete in a time step of the reconstructed schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Decision {
    /// Both frontier jobs finish in this step.
    AdvanceBoth,
    /// Only processor 0's frontier job finishes; the leftover goes to
    /// processor 1's frontier job.
    FinishFirst,
    /// Only processor 1's frontier job finishes; the leftover goes to
    /// processor 0's frontier job.
    FinishSecond,
}

/// Exact two-processor solver.
///
/// # Examples
///
/// ```
/// use cr_algos::{OptTwo, Scheduler};
/// use cr_core::Instance;
///
/// // The columns (60, 40) and (40, 60) each sum to exactly the full
/// // resource, so an optimal schedule finishes one column per step.
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[40, 60]]);
/// assert_eq!(OptTwo::new().makespan(&inst), 2);
///
/// // Swapping the second processor's jobs makes the first column overflow;
/// // three steps become necessary.
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[60, 40]]);
/// assert_eq!(OptTwo::new().makespan(&inst), 3);
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct OptTwo;

impl OptTwo {
    /// Creates the solver.
    #[must_use]
    pub fn new() -> Self {
        OptTwo
    }
}

const UNREACHED: u32 = u32::MAX;

/// One cell of the flat two-processor DP table.
#[derive(Debug, Clone, Copy)]
struct FlatCell<V> {
    /// Earliest step count reaching this cell (`UNREACHED` if not yet).
    t: u32,
    /// Smallest achievable frontier-remainder sum at time `t`, in units.
    /// Bounded by `2·D` (one requirement plus one carried leftover), which
    /// every admitted grid fits.
    r: V,
    /// Decision taken on the best path into this cell (`None` at the
    /// origin).
    decision: Option<Decision>,
}

/// The Algorithm 1 dynamic program on a flat `(n1+1)·(n2+1)` table of
/// integer cells (no hashing, no rational arithmetic, contiguous memory).
#[derive(Debug)]
pub(crate) struct ScaledDpTable<V> {
    cells: Vec<FlatCell<V>>,
    n1: usize,
    n2: usize,
}

impl<V: SearchUnit> ScaledDpTable<V> {
    /// Runs the dense DP for a two-processor scaled instance.
    pub(crate) fn compute(scaled: &ScaledInstance<V>) -> Self {
        Self::compute_cancellable(scaled, &CancelToken::never())
            // lint: allow(panic_hygiene) — a never-token cannot fire
            .expect("never-token cannot fire")
    }

    /// [`Self::compute`] under a [`CancelToken`]: the `O(n1·n2)` cell loop
    /// polls the token every [`SCALED_DP_CHECK_STRIDE`] cells and stops
    /// cooperatively once it fires.
    pub(crate) fn compute_cancellable(
        scaled: &ScaledInstance<V>,
        token: &CancelToken,
    ) -> Result<Self, CancelReason> {
        assert_eq!(scaled.processors(), 2, "scaled DP needs two processors");
        let _dp_span = cr_obs::Span::enter(cr_obs::names::SPAN_OPT_TWO_DP);
        let n1 = scaled.jobs_on(0);
        let n2 = scaled.jobs_on(1);
        let cap = scaled.capacity();
        let row1 = scaled.row(0);
        let row2 = scaled.row(1);
        let req1 = |c: usize| -> V { row1.get(c).copied().unwrap_or(V::ZERO) };
        let req2 = |c: usize| -> V { row2.get(c).copied().unwrap_or(V::ZERO) };

        let stride = n2 + 1;
        let mut cells = vec![
            FlatCell {
                t: UNREACHED,
                r: V::ZERO,
                decision: None,
            };
            (n1 + 1) * stride
        ];
        cells[0] = FlatCell {
            t: 0,
            r: req1(0) + req2(0),
            decision: None,
        };

        // Row-major order visits every predecessor before its successors:
        // all three transitions strictly increase (c1, c2) lexicographically.
        let mut gate = token.gate(SCALED_DP_CHECK_STRIDE);
        for c1 in 0..=n1 {
            for c2 in 0..=n2 {
                gate.tick()?;
                let cell = cells[c1 * stride + c2];
                if cell.t == UNREACHED || (c1 == n1 && c2 == n2) {
                    continue;
                }
                let (t, r) = (cell.t + 1, cell.r);
                if c1 < n1 && c2 == n2 {
                    relax(
                        &mut cells[(c1 + 1) * stride + c2],
                        t,
                        req1(c1 + 1),
                        Decision::FinishFirst,
                    );
                } else if c1 == n1 {
                    relax(
                        &mut cells[c1 * stride + c2 + 1],
                        t,
                        req2(c2 + 1),
                        Decision::FinishSecond,
                    );
                } else if r <= cap {
                    relax(
                        &mut cells[(c1 + 1) * stride + c2 + 1],
                        t,
                        req1(c1 + 1) + req2(c2 + 1),
                        Decision::AdvanceBoth,
                    );
                } else {
                    let carried = r.sub(cap);
                    relax(
                        &mut cells[(c1 + 1) * stride + c2],
                        t,
                        req1(c1 + 1) + carried,
                        Decision::FinishFirst,
                    );
                    relax(
                        &mut cells[c1 * stride + c2 + 1],
                        t,
                        carried + req2(c2 + 1),
                        Decision::FinishSecond,
                    );
                }
            }
        }
        Ok(ScaledDpTable { cells, n1, n2 })
    }

    /// The optimal makespan (value of the final cell).
    pub(crate) fn makespan(&self) -> usize {
        let cell = &self.cells[self.n1 * (self.n2 + 1) + self.n2];
        assert!(cell.t != UNREACHED, "final DP cell is always reachable");
        cell.t as usize
    }

    /// Back-traces the decisions from the final cell to the origin, in
    /// forward (replay) order.
    pub(crate) fn decisions(&self) -> Vec<Decision> {
        let stride = self.n2 + 1;
        let mut decisions = Vec::with_capacity(self.makespan());
        let (mut c1, mut c2) = (self.n1, self.n2);
        // lint: allow(cancel_coverage) — back-trace: every step decrements c1 + c2, so at most n1 + n2 iterations after the gated DP fill
        while let Some(decision) = self.cells[c1 * stride + c2].decision {
            match decision {
                Decision::AdvanceBoth => {
                    c1 -= 1;
                    c2 -= 1;
                }
                Decision::FinishFirst => c1 -= 1,
                Decision::FinishSecond => c2 -= 1,
            }
            decisions.push(decision);
        }
        assert_eq!((c1, c2), (0, 0), "back-trace must reach the origin");
        decisions.reverse();
        decisions
    }
}

#[inline]
fn relax<V: Ord>(cell: &mut FlatCell<V>, t: u32, r: V, decision: Decision) {
    if cell.t == UNREACHED || t < cell.t || (t == cell.t && r < cell.r) {
        *cell = FlatCell {
            t,
            r,
            decision: Some(decision),
        };
    }
}

/// Requirement of the `c`-th job (zero-based) on processor `i`, or zero when
/// the chain is exhausted (the paper's dummy 0-entry).
fn req_or_zero(instance: &Instance, processor: usize, c: usize) -> Ratio {
    if c < instance.jobs_on(processor) {
        instance.processor_jobs(processor)[c].requirement
    } else {
        Ratio::ZERO
    }
}

fn assert_two_unit_processors(instance: &Instance) {
    assert_eq!(
        instance.processors(),
        2,
        "OptTwo only handles instances with exactly two processors"
    );
    assert!(
        instance.is_unit_size(),
        "OptTwo requires unit-size jobs (the setting of Theorem 5)"
    );
}

/// The optimal makespan for a two-processor unit-size instance, computed by
/// the dense dynamic program of Algorithm 1 on the instance's unit grid
/// (`u64`, widened to `u128` when it overflows).
///
/// # Panics
///
/// Panics if the instance does not have exactly two processors or contains
/// non-unit job sizes, or if its unit grid overflows `u128`.
#[must_use]
pub fn opt_two_makespan(instance: &Instance) -> usize {
    assert_two_unit_processors(instance);
    let narrow = ScaledInstance::try_new(instance);
    on_grid!(auto_grid("OptTwo", instance, narrow.as_ref()), |scaled| {
        ScaledDpTable::compute(scaled).makespan()
    })
}

/// Sparse variant of [`opt_two_makespan`]: cells are held in a hash map and
/// only reachable cells are expanded, mirroring the priority-queue
/// implementation discussed after Theorem 5.  It runs in exact `Ratio`
/// arithmetic, so it shares no code with the integer DP it cross-checks.
#[must_use]
pub fn opt_two_makespan_sparse(instance: &Instance) -> usize {
    assert_two_unit_processors(instance);
    let n1 = instance.jobs_on(0);
    let n2 = instance.jobs_on(1);

    let mut cells: FxHashMap<(usize, usize), (usize, Ratio)> = FxHashMap::default();
    cells.insert(
        (0, 0),
        (0, req_or_zero(instance, 0, 0) + req_or_zero(instance, 1, 0)),
    );

    let relax = |cells: &mut FxHashMap<(usize, usize), (usize, Ratio)>,
                 key: (usize, usize),
                 t: usize,
                 r: Ratio| {
        let better = match cells.get(&key) {
            None => true,
            Some(&(ot, or)) => t < ot || (t == ot && r < or),
        };
        if better {
            cells.insert(key, (t, r));
        }
    };

    // lint: allow(cancel_coverage) — bounded: the uncancellable reference variant, one pass per anti-diagonal of an O(n1·n2) table
    for diag in 0..=(n1 + n2) {
        let keys: Vec<(usize, usize)> = cells
            .keys()
            .copied()
            .filter(|&(c1, c2)| c1 + c2 == diag)
            .collect();
        // lint: allow(cancel_coverage) — bounded: the reachable cells of one anti-diagonal
        for (c1, c2) in keys {
            let (t, r) = cells[&(c1, c2)];
            if c1 == n1 && c2 == n2 {
                continue;
            }
            if c1 < n1 && c2 == n2 {
                relax(
                    &mut cells,
                    (c1 + 1, c2),
                    t + 1,
                    req_or_zero(instance, 0, c1 + 1),
                );
            } else if c1 == n1 && c2 < n2 {
                relax(
                    &mut cells,
                    (c1, c2 + 1),
                    t + 1,
                    req_or_zero(instance, 1, c2 + 1),
                );
            } else if r <= Ratio::ONE {
                relax(
                    &mut cells,
                    (c1 + 1, c2 + 1),
                    t + 1,
                    req_or_zero(instance, 0, c1 + 1) + req_or_zero(instance, 1, c2 + 1),
                );
            } else {
                let carried = r - Ratio::ONE;
                relax(
                    &mut cells,
                    (c1 + 1, c2),
                    t + 1,
                    req_or_zero(instance, 0, c1 + 1) + carried,
                );
                relax(
                    &mut cells,
                    (c1, c2 + 1),
                    t + 1,
                    carried + req_or_zero(instance, 1, c2 + 1),
                );
            }
        }
    }
    cells[&(n1, n2)].0
}

/// Replays a DP decision sequence, in units of `scaled`'s grid, into an
/// explicit resource assignment: each step hands a finishing frontier job
/// what it still needs and the other one the leftover, capped at its need.
/// Each share is converted to a [`Ratio`] once, as `units / D`.
///
/// # Panics
///
/// Panics if a step hands out more than the capacity, or if the decisions
/// leave a job unfinished (the checks the `Ratio` schedule builder of
/// `cr_core` makes).
pub(crate) fn replay_decisions<V: SearchUnit>(
    scaled: &ScaledInstance<V>,
    decisions: &[Decision],
) -> Schedule {
    let cap = scaled.capacity();
    let req = |p: usize, c: usize| scaled.row(p).get(c).copied().unwrap_or(V::ZERO);
    let mut done = [0usize; 2];
    // What each processor's frontier job still needs.
    let mut rem = [req(0, 0), req(1, 0)];
    let mut steps = Vec::with_capacity(decisions.len());
    // lint: allow(cancel_coverage) — bounded: replays one step per decision of the already-gated DP
    for &decision in decisions {
        let shares = match decision {
            Decision::AdvanceBoth => rem,
            Decision::FinishFirst => [rem[0], cap.sub(rem[0]).min(rem[1])],
            Decision::FinishSecond => [cap.sub(rem[1]).min(rem[0]), rem[1]],
        };
        let total = shares[0].units() + shares[1].units();
        assert!(
            shares.iter().all(|&share| share <= cap) && total <= cap.units(),
            "replayed step overuses the resource: {total} units assigned, capacity {cap:?}"
        );
        // lint: allow(cancel_coverage) — bounded: the two processors
        for p in 0..2 {
            if done[p] == scaled.jobs_on(p) {
                continue;
            }
            // A free job finishes in any step; any other job once its
            // share covers what it still needs.
            if req(p, done[p]) == V::ZERO || shares[p] >= rem[p] {
                done[p] += 1;
                rem[p] = req(p, done[p]);
            } else {
                rem[p] = rem[p].sub(shares[p]);
            }
        }
        steps.push(shares.iter().map(|&share| share.ratio_of(cap)).collect());
    }
    assert_eq!(
        done,
        [scaled.jobs_on(0), scaled.jobs_on(1)],
        "the replayed decisions must finish every job"
    );
    Schedule::new(steps)
}

impl Scheduler for OptTwo {
    fn name(&self) -> &'static str {
        "OptResAssignment(m=2)"
    }

    /// Runs the dynamic program on the instance's unit grid and
    /// reconstructs an optimal schedule by back-tracing the table and
    /// replaying the per-step decisions.
    ///
    /// # Panics
    ///
    /// Panics as [`opt_two_makespan`] does.
    fn schedule(&self, instance: &Instance) -> Schedule {
        assert_two_unit_processors(instance);
        let narrow = ScaledInstance::try_new(instance);
        on_grid!(auto_grid("OptTwo", instance, narrow.as_ref()), |scaled| {
            replay_decisions(scaled, &ScaledDpTable::compute(scaled).decisions())
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_core::bounds;
    use cr_core::InstanceBuilder;

    #[test]
    fn trivial_instances() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50]]);
        assert_eq!(opt_two_makespan(&inst), 1);
        let inst = Instance::unit_from_percentages(&[&[100], &[100]]);
        assert_eq!(opt_two_makespan(&inst), 2);
        let inst = Instance::unit_from_percentages(&[&[100, 100], &[100]]);
        assert_eq!(opt_two_makespan(&inst), 3);
    }

    #[test]
    fn empty_chain_on_one_processor() {
        let inst = InstanceBuilder::new()
            .processor([Ratio::from_percent(40), Ratio::from_percent(90)])
            .empty_processor()
            .build();
        assert_eq!(opt_two_makespan(&inst), 2);
        assert_eq!(opt_two_makespan_sparse(&inst), 2);
        let schedule = OptTwo::new().schedule(&inst);
        assert_eq!(schedule.makespan(&inst).unwrap(), 2);
    }

    #[test]
    fn round_robin_worst_case_is_solved_optimally() {
        // The Theorem 3 lower-bound family for n = 4: r1j = j/4, r2j = 1 + 1/4 − j/4.
        let reqs1: Vec<Ratio> = (1..=4).map(|j| Ratio::new(j, 4)).collect();
        let reqs2: Vec<Ratio> = (1..=4)
            .map(|j| Ratio::new(5, 4) - Ratio::new(j, 4))
            .collect();
        let inst = InstanceBuilder::new()
            .processor(reqs1)
            .processor(reqs2)
            .build();
        // OPT finishes it in n + 1 = 5 steps (Figure 3a).
        assert_eq!(opt_two_makespan(&inst), 5);
        assert_eq!(opt_two_makespan_sparse(&inst), 5);
        let schedule = OptTwo::new().schedule(&inst);
        assert_eq!(schedule.makespan(&inst).unwrap(), 5);
    }

    #[test]
    fn schedule_matches_dp_value_and_lower_bounds() {
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100, 1, 100, 1], &[1, 100, 1, 100]]),
            Instance::unit_from_percentages(&[&[55, 45, 35, 25], &[65, 75, 85, 95]]),
        ];
        for inst in instances {
            let dp = opt_two_makespan(&inst);
            let sparse = opt_two_makespan_sparse(&inst);
            assert_eq!(dp, sparse);
            let schedule = OptTwo::new().schedule(&inst);
            assert_eq!(schedule.makespan(&inst).unwrap(), dp);
            assert!(dp >= bounds::trivial_lower_bound(&inst));
        }
    }

    /// The `u128` grid of `inst`.
    fn wide(inst: &Instance) -> ScaledInstance<u128> {
        ScaledInstance::try_on_grid(inst).expect("grid fits u128")
    }

    #[test]
    fn scaled_and_rational_paths_agree() {
        // The integer DP on both grid widths against the sparse DP, which
        // runs in `Ratio` arithmetic; both widths replay one schedule.
        let instances = vec![
            Instance::unit_from_percentages(&[&[60, 40, 80], &[30, 90, 10]]),
            Instance::unit_from_percentages(&[&[100, 1, 100, 1], &[1, 100, 1, 100]]),
            Instance::unit_from_percentages(&[&[0, 50, 100], &[100, 50, 0]]),
            Instance::unit_from_percentages(&[&[55, 45, 35, 25], &[65, 75, 85, 95]]),
        ];
        for inst in instances {
            let scaled = opt_two_makespan(&inst);
            assert_eq!(scaled, opt_two_makespan_sparse(&inst), "{inst}");
            let wide = wide(&inst);
            let table = ScaledDpTable::compute(&wide);
            assert_eq!(table.makespan(), scaled, "{inst}");
            let schedule = OptTwo::new().schedule(&inst);
            assert_eq!(schedule.makespan(&inst).unwrap(), scaled);
            assert_eq!(replay_decisions(&wide, &table.decisions()), schedule);
        }
    }

    #[test]
    fn dp_sweeps_poll_cancellation_mid_table() {
        // Deterministic mid-sweep check: a pre-cancelled token on a table
        // larger than the poll stride must stop the DP on both grid widths
        // inside the cell loop (the fill does not re-check up front).
        let reqs: Vec<i64> = (0..120).map(|j| 1 + j % 97).collect();
        let chain: Vec<&[i64]> = vec![&reqs, &reqs];
        let inst = Instance::unit_from_percentages(&chain);
        let cancelled = CancelToken::new();
        cancelled.cancel();
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert!(ScaledDpTable::compute_cancellable(&scaled, &cancelled).is_err());
        let wide = wide(&inst);
        assert!(ScaledDpTable::compute_cancellable(&wide, &cancelled).is_err());
        // A never-token reproduces the ungated result.
        assert_eq!(
            ScaledDpTable::compute_cancellable(&wide, &CancelToken::never())
                .unwrap()
                .decisions(),
            ScaledDpTable::compute(&scaled).decisions()
        );
    }

    #[test]
    fn wide_grids_solve_what_u64_cannot() {
        // Three primes near 2^22: their LCM (~2^66) overflows the u64 grid.
        let [p, q, r]: [i128; 3] = [4_194_271, 4_194_277, 4_194_287];
        let inst = InstanceBuilder::new()
            .processor([Ratio::new(p - 1, p), Ratio::new(1, q)])
            .processor([Ratio::new(2, r), Ratio::new(q - 2, q)])
            .build();
        assert!(ScaledInstance::try_new(&inst).is_none());
        let makespan = opt_two_makespan(&inst);
        assert_eq!(makespan, opt_two_makespan_sparse(&inst));
        let schedule = OptTwo::new().schedule(&inst);
        assert_eq!(schedule.makespan(&inst).unwrap(), makespan);
    }

    #[test]
    fn flat_dp_matches_search_on_two_processors() {
        for rows in [
            &[&[60i64, 40][..], &[60, 40][..]][..],
            &[&[100, 1, 100][..], &[1, 100, 1][..]][..],
            &[&[55, 45, 35][..], &[65, 75, 85][..]][..],
        ] {
            let inst = Instance::unit_from_percentages(rows);
            let dp = ScaledDpTable::compute(&ScaledInstance::try_new(&inst).unwrap());
            assert_eq!(dp.makespan(), crate::opt_m::opt_m_makespan(&inst));
            assert_eq!(dp.decisions().len(), dp.makespan());
        }
    }

    #[test]
    #[should_panic(expected = "exactly two processors")]
    fn rejects_three_processors() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50], &[50]]);
        let _ = opt_two_makespan(&inst);
    }

    #[test]
    fn dominates_greedy_balance() {
        use crate::greedy_balance::GreedyBalance;
        let instances = vec![
            Instance::unit_from_percentages(&[&[90, 10, 90, 10], &[10, 90, 10, 90]]),
            Instance::unit_from_percentages(&[&[75, 50, 25], &[25, 50, 75]]),
        ];
        for inst in instances {
            assert!(opt_two_makespan(&inst) <= GreedyBalance::new().makespan(&inst));
        }
    }
}
