//! Multi-resource stepping: the forward simulator every polynomial
//! heuristic and the online simulator run on, for any number `k ≥ 1` of
//! shared resources.
//!
//! The paper's model shares **one** continuous resource; real many-core
//! traffic contends on several at once (memory bandwidth, bus, cache
//! slices).  An [`Instance`] may carry extra resource layers (see
//! [`Instance::extra_layers`]); [`MultiStepper`] steps a schedule forward
//! on all of them, or on the base layer alone: per step, every resource `r`
//! hands out its own capacity `D_r` of integer units (a [`GridUnit`]:
//! `u64`, or `u128` past it), and a job advances on each resource
//! independently under the decoupled workload model below.  `k = 1` is the
//! one-layer case of the same model, and a stepper that logs its shares
//! returns the single-resource [`Schedule`] it stepped.
//!
//! # The decoupled per-resource workload model
//!
//! Job `(i, j)` has the requirement vector `(r⁰, …, r^{k−1})` and one
//! volume `p`.  On every resource `r` with `r^r > 0` the job must absorb
//! the layer workload `r^r · p`, at most `r^r` per time step; it completes
//! once **every** positive layer has been delivered in full.  Because each
//! positive layer needs at least `⌈p⌉` steps on its own, completion takes
//! at least `⌈p⌉` steps, exactly as in the scalar model.  A job whose
//! entire requirement vector is zero occupies `⌈p⌉` steps for free, again
//! mirroring the scalar convention.  For `k = 1` the model *is* the scalar
//! model: the single layer's workload and per-step cap coincide with the
//! scalar ones, and [`Schedule::trace`] replays a logged schedule step for
//! step.

use crate::instance::Instance;
use crate::job::JobId;
use crate::scaled::{step_grid, units_of, GridUnit};
use crate::schedule::Schedule;

/// Forward-simulating multi-resource schedule stepper on integer unit
/// grids (`u64` or `u128`).
///
/// Every resource `r` lives on its own grid (see the `scaled` module docs):
/// a full time step hands out exactly [`capacity(r)`](Self::capacity) units
/// of resource `r`.  The stepper tracks, per processor, the active job's
/// remaining workload on every layer and advances it by the consumed units
/// (`min(share, step demand)`) per layer.  Shares are passed as one flat,
/// processor-major slice: `shares[i · k + r]` is processor `i`'s share of
/// resource `r`.
///
/// # Examples
///
/// ```
/// use cr_core::multi::MultiStepper;
/// use cr_core::{ratio, InstanceBuilder, Ratio};
///
/// let inst = InstanceBuilder::new()
///     .processor([ratio(1, 2)])
///     .processor([ratio(1, 2)])
///     .extra_layer([vec![ratio(1, 1)], vec![Ratio::ZERO]])
///     .build();
/// let mut stepper = MultiStepper::<u64>::try_new(&inst).unwrap();
/// assert_eq!(stepper.resources(), 2);
/// // Both processors can run on resource 0, but processor 0 saturates
/// // resource 1 on its own.
/// let d0 = stepper.capacity(0);
/// let d1 = stepper.capacity(1);
/// stepper.push_step(&[d0 / 2, d1, d0 / 2, 0]);
/// assert!(stepper.all_done());
///
/// // On the base layer alone, with a share log, the stepper returns the
/// // single-resource schedule it stepped.
/// let mut base = MultiStepper::<u64>::try_new_base(&inst).unwrap().log_shares();
/// let d = base.capacity(0);
/// base.push_step(&[d / 2, d / 2]);
/// let schedule = base.finish();
/// assert_eq!(schedule.makespan(&inst).unwrap(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct MultiStepper<U> {
    /// Number of resources `k`.
    resources: usize,
    /// Per-resource capacities, length `k`.
    caps: Vec<U>,
    /// Row start offsets into the per-job arrays; length `processors + 1`.
    offsets: Vec<u32>,
    /// Per-step requirement caps, `total_jobs × k`, job-major.
    reqs: Vec<U>,
    /// Initial layer workloads `r^r · p`, `total_jobs × k`, job-major.
    costs: Vec<U>,
    /// Remaining step count `⌈p⌉` for jobs whose whole requirement vector
    /// is zero; `0` for every other job.
    free_steps: Vec<u64>,
    /// Each processor's frontier job as an index into the per-job arrays;
    /// its row's end once the processor is idle.
    slot: Vec<usize>,
    /// Remaining layer workloads of each processor's frontier job,
    /// `processors × k` (zero when idle).
    frontier: Vec<U>,
    /// Per-step requirement caps of each processor's frontier job,
    /// `processors × k` (zero when idle).
    frontier_req: Vec<U>,
    /// Remaining free steps of each processor's frontier job.
    frontier_free: Vec<u64>,
    /// Number of processors with unfinished jobs.
    active: usize,
    /// Units usefully consumed per resource in the last step.
    consumed: Vec<U>,
    /// Number of steps applied so far.
    steps: usize,
    /// Every step's shares, flat, when the stepper logs them.
    log: Option<Vec<U>>,
}

impl<U: GridUnit> MultiStepper<U> {
    /// Builds the stepper on every resource layer of `instance`, or `None`
    /// when some layer's grid is not admitted by `U` (see the `scaled`
    /// module docs: `(m + 1) · D_r` must fit `U`, and `D_r` must fit
    /// `i128`).
    #[must_use]
    pub fn try_new(instance: &Instance) -> Option<Self> {
        Self::on_layers(instance, instance.resources())
    }

    /// Builds the stepper on the base resource alone, ignoring any extra
    /// layers: the single-resource schedule of a `k ≥ 2` instance.
    #[must_use]
    pub fn try_new_base(instance: &Instance) -> Option<Self> {
        Self::on_layers(instance, 1)
    }

    /// The stepper on the first `k` layers of `instance`.
    fn on_layers(instance: &Instance, k: usize) -> Option<Self> {
        let caps = (0..k)
            .map(|r| step_grid::<U>(instance, r))
            .collect::<Option<Vec<U>>>()?;
        let m = instance.processors();
        let total = instance.total_jobs();
        let mut offsets = Vec::with_capacity(m + 1);
        let mut reqs = Vec::with_capacity(total * k);
        let mut costs = Vec::with_capacity(total * k);
        let mut free_steps = Vec::with_capacity(total);
        offsets.push(0u32);
        for i in 0..m {
            for (j, job) in instance.processor_jobs(i).iter().enumerate() {
                let id = JobId::new(i, j);
                let mut any_positive = false;
                for (r, &cap) in caps.iter().enumerate() {
                    let req = instance.requirement_on(r, id);
                    reqs.push(units_of(req, cap)?);
                    costs.push(if req.is_positive() {
                        any_positive = true;
                        units_of(req.checked_mul(job.volume)?, cap)?
                    } else {
                        U::ZERO
                    });
                }
                free_steps.push(if any_positive {
                    0
                } else {
                    u64::try_from(job.volume.ceil()).ok()?
                });
            }
            offsets.push(u32::try_from(free_steps.len()).ok()?);
        }
        let mut stepper = MultiStepper {
            resources: k,
            consumed: vec![U::ZERO; k],
            caps,
            slot: offsets[..m].iter().map(|&start| start as usize).collect(),
            offsets,
            reqs,
            costs,
            free_steps,
            frontier: vec![U::ZERO; m * k],
            frontier_req: vec![U::ZERO; m * k],
            frontier_free: vec![0; m],
            active: 0,
            steps: 0,
            log: None,
        };
        for i in 0..m {
            stepper.load_frontier(i);
            stepper.active += usize::from(stepper.is_active(i));
        }
        Some(stepper)
    }

    /// Makes the stepper log every step's shares, so that
    /// [`finish`](Self::finish) can return the schedule.  Makespan-only
    /// runs leave it off.
    #[must_use]
    pub fn log_shares(mut self) -> Self {
        self.log = Some(Vec::new());
        self
    }

    /// (Re)loads processor `i`'s frontier arrays from its next job.
    fn load_frontier(&mut self, processor: usize) {
        let k = self.resources;
        let row = processor * k..(processor + 1) * k;
        if let Some(slot) = self.job_slot(processor) {
            let job = slot * k..(slot + 1) * k;
            self.frontier[row.clone()].copy_from_slice(&self.costs[job.clone()]);
            self.frontier_req[row].copy_from_slice(&self.reqs[job]);
            self.frontier_free[processor] = self.free_steps[slot];
        } else {
            self.frontier[row.clone()].fill(U::ZERO);
            self.frontier_req[row].fill(U::ZERO);
            self.frontier_free[processor] = 0;
        }
    }

    fn job_slot(&self, processor: usize) -> Option<usize> {
        let slot = self.slot[processor];
        (slot < self.offsets[processor + 1] as usize).then_some(slot)
    }

    /// Number of shared resources `k` the stepper arbitrates.
    #[must_use]
    pub fn resources(&self) -> usize {
        self.resources
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Capacity of resource `resource`: the units one time step hands out.
    #[must_use]
    pub fn capacity(&self, resource: usize) -> U {
        self.caps[resource]
    }

    /// All per-resource capacities, in resource order.
    #[must_use]
    pub fn capacities(&self) -> &[U] {
        &self.caps
    }

    /// Number of steps applied so far.
    #[must_use]
    pub fn current_step(&self) -> usize {
        self.steps
    }

    /// Whether processor `i` still has unfinished jobs.
    #[must_use]
    pub fn is_active(&self, processor: usize) -> bool {
        self.job_slot(processor).is_some()
    }

    /// The active (first unfinished) job of processor `i`.
    #[must_use]
    pub fn active_job(&self, processor: usize) -> Option<JobId> {
        self.job_slot(processor)
            .map(|slot| JobId::new(processor, slot - self.offsets[processor] as usize))
    }

    /// Number of unfinished jobs on processor `i` (the paper's `nᵢ(t)`).
    #[must_use]
    pub fn unfinished_jobs(&self, processor: usize) -> usize {
        self.offsets[processor + 1] as usize - self.slot[processor]
    }

    /// Per-step requirement cap of the active job of processor `i` on
    /// resource `resource` (`None` when the processor is idle).
    #[must_use]
    pub fn active_requirement(&self, processor: usize, resource: usize) -> Option<U> {
        self.is_active(processor)
            .then(|| self.frontier_req[processor * self.resources + resource])
    }

    /// Remaining workload of processor `i`'s active job on resource
    /// `resource` (zero when idle, or when the job needs none of it).
    #[must_use]
    pub fn remaining(&self, processor: usize, resource: usize) -> U {
        self.frontier[processor * self.resources + resource]
    }

    /// Maximum share of resource `resource` the active job of processor `i`
    /// can usefully absorb this step: `min(remaining layer workload, per-step
    /// cap)`.
    #[must_use]
    pub fn step_demand(&self, processor: usize, resource: usize) -> U {
        let cell = processor * self.resources + resource;
        self.frontier[cell].min(self.frontier_req[cell])
    }

    /// Whether every job of the instance has been completed.
    #[must_use]
    pub fn all_done(&self) -> bool {
        self.active == 0
    }

    /// Applies one time step with the given shares, `shares[i · k + r]`
    /// being processor `i`'s share of resource `r`, and returns the units
    /// usefully consumed per resource.
    ///
    /// # Panics
    ///
    /// Panics (in debug and release builds alike) if the shares are
    /// malformed or oversubscribe any resource — algorithms must never emit
    /// an infeasible step.
    pub fn push_step(&mut self, shares: &[U]) -> &[U] {
        let k = self.resources;
        let m = self.processors();
        assert_eq!(
            shares.len(),
            m * k,
            "step must assign {k} shares to each of {m} processors"
        );
        // The step's totals, per resource, in `consumed` first.  Cannot
        // overflow: each share is at most its capacity, and the grid admits
        // (m + 1) · capacity.
        self.consumed.fill(U::ZERO);
        for (i, row) in shares.chunks_exact(k).enumerate() {
            for (r, ((&share, total), &cap)) in row
                .iter()
                .zip(&mut self.consumed)
                .zip(&self.caps)
                .enumerate()
            {
                assert!(
                    share <= cap,
                    "share {share:?} for processor {i} exceeds resource {r}'s capacity {cap:?}"
                );
                *total = *total + share;
            }
        }
        for (r, (&total, &cap)) in self.consumed.iter().zip(&self.caps).enumerate() {
            assert!(
                total <= cap,
                "step oversubscribes resource {r}: {total:?} assigned, capacity {cap:?}"
            );
        }

        self.consumed.fill(U::ZERO);
        for (i, row) in shares.chunks_exact(k).enumerate() {
            if !self.is_active(i) {
                continue;
            }
            let cells = i * k..(i + 1) * k;
            if self.frontier_free[i] > 0 {
                // A job with an all-zero requirement vector advances one
                // volume unit per step regardless of its shares.
                self.frontier_free[i] -= 1;
            } else {
                let layers = self.frontier[cells.clone()]
                    .iter_mut()
                    .zip(&self.frontier_req[cells.clone()]);
                for ((left, &req), (&share, used_total)) in
                    layers.zip(row.iter().zip(&mut self.consumed))
                {
                    let used = share.min((*left).min(req));
                    *left = left.sub(used);
                    // At most the step's checked total.
                    *used_total = *used_total + used;
                }
            }
            if self.frontier_free[i] == 0 && self.frontier[cells].iter().all(|&l| l == U::ZERO) {
                self.slot[i] += 1;
                self.load_frontier(i);
                self.active -= usize::from(!self.is_active(i));
            }
        }
        if let Some(log) = &mut self.log {
            log.extend_from_slice(shares);
        }
        self.steps += 1;
        &self.consumed
    }

    /// Finalizes the single-resource schedule, converting every logged
    /// share back to the exact rational `units / capacity`.
    ///
    /// # Panics
    ///
    /// Panics if jobs remain unfinished (an algorithm bug), if the stepper
    /// arbitrates more than one resource ([`Schedule`] is single-resource)
    /// or if it was not built with [`log_shares`](Self::log_shares).
    #[must_use]
    pub fn finish(self) -> Schedule {
        assert!(
            self.all_done(),
            "MultiStepper::finish called with unfinished jobs"
        );
        assert_eq!(self.resources, 1, "schedules are single-resource");
        let capacity = self.caps[0];
        let m = self.processors().max(1);
        let log = self
            .log
            .expect("finish needs a stepper that logs its shares");
        Schedule::new(
            log.chunks(m)
                .map(|row| row.iter().map(|&units| units.ratio_of(capacity)).collect())
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::job::Job;
    use crate::rational::{ratio, Ratio};
    use crate::schedule::ScheduleBuilder;

    fn two_resource_instance() -> Instance {
        InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 4)])
            .processor([ratio(3, 4)])
            .extra_layer([vec![ratio(1, 3), ratio(5, 6)], vec![Ratio::ZERO]])
            .build()
    }

    /// Serves every resource in processor order: each processor takes its
    /// step demand while the layer's pool lasts.
    fn in_processor_order<U: GridUnit>(stepper: &MultiStepper<U>) -> Vec<U> {
        let k = stepper.resources();
        let mut left = stepper.capacities().to_vec();
        let mut shares = Vec::with_capacity(stepper.processors() * k);
        for i in 0..stepper.processors() {
            for (r, pool) in left.iter_mut().enumerate() {
                let share = stepper.step_demand(i, r).min(*pool);
                *pool = pool.sub(share);
                shares.push(share);
            }
        }
        shares
    }

    #[test]
    fn u64_and_u128_steppers_agree_step_for_step() {
        let inst = two_resource_instance();
        let mut narrow = MultiStepper::<u64>::try_new(&inst).unwrap();
        let mut wide = MultiStepper::<u128>::try_new(&inst).unwrap();
        let (m, k) = (inst.processors(), inst.resources());
        let widen = |values: &[u64]| values.iter().map(|&v| u128::from(v)).collect::<Vec<_>>();
        assert_eq!(widen(narrow.capacities()), wide.capacities());
        let mut guard = 0;
        while !narrow.all_done() {
            assert!(!wide.all_done());
            for i in 0..m {
                assert_eq!(narrow.active_job(i), wide.active_job(i));
                for r in 0..k {
                    assert_eq!(u128::from(narrow.step_demand(i, r)), wide.step_demand(i, r));
                    assert_eq!(u128::from(narrow.remaining(i, r)), wide.remaining(i, r));
                }
            }
            let shares = in_processor_order(&narrow);
            assert_eq!(widen(&shares), in_processor_order(&wide));
            let consumed = widen(narrow.push_step(&shares));
            assert_eq!(consumed, wide.push_step(&widen(&shares)));
            guard += 1;
            assert!(guard < 100, "stepper failed to make progress");
        }
        assert!(wide.all_done());
        assert_eq!(narrow.current_step(), wide.current_step());
    }

    #[test]
    fn single_resource_stepper_matches_the_scalar_builder() {
        // The base-layer stepper of a two-resource instance steps the
        // jobs' own requirements exactly as the `Ratio` builder does,
        // whatever the extra layer holds.
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 2)), Job::unit(ratio(1, 2))])
            .processor_jobs([Job::new(ratio(1, 4), ratio(3, 1))])
            .extra_layer([vec![Ratio::ONE, Ratio::ONE], vec![ratio(1, 7)]])
            .build();
        let mut stepper = MultiStepper::<u64>::try_new_base(&inst)
            .unwrap()
            .log_shares();
        let mut scalar = ScheduleBuilder::new(&inst);
        assert_eq!(stepper.resources(), 1);
        let d = stepper.capacity(0);
        let mut guard = 0;
        while !stepper.all_done() {
            assert!(!scalar.all_done());
            for i in 0..inst.processors() {
                assert_eq!(stepper.active_job(i), scalar.active_job(i));
                assert_eq!(stepper.unfinished_jobs(i), scalar.unfinished_jobs(i));
                assert_eq!(stepper.step_demand(i, 0).ratio_of(d), scalar.step_demand(i));
                assert_eq!(
                    stepper.remaining(i, 0).ratio_of(d),
                    scalar.remaining_workload(i)
                );
            }
            let shares = in_processor_order(&stepper);
            scalar.push_step(shares.iter().map(|&u| u.ratio_of(d)).collect());
            stepper.push_step(&shares);
            guard += 1;
            assert!(guard < 100);
        }
        assert!(scalar.all_done());
        assert_eq!(stepper.finish(), scalar.finish());
    }

    #[test]
    fn base_stepper_ignores_the_extra_layers_grid() {
        let p: i128 = 9_223_372_036_854_775_783;
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2)])
            .processor([ratio(1, 2)])
            .extra_layer([vec![ratio(1, p)], vec![ratio(1, p)]])
            .build();
        assert!(MultiStepper::<u64>::try_new(&inst).is_none());
        assert!(MultiStepper::<u128>::try_new(&inst).is_some());
        let base = MultiStepper::<u64>::try_new_base(&inst).expect("the base grid is 2");
        assert_eq!(base.capacities(), &[2]);
    }

    #[test]
    fn binding_resource_throttles_progress() {
        // Both jobs are cheap on resource 0 but together oversubscribe
        // resource 1, so they cannot both finish in one step.
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 10)])
            .processor([ratio(1, 10)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        let mut stepper = MultiStepper::<u64>::try_new(&inst).unwrap();
        let d0 = stepper.capacity(0);
        let d1 = stepper.capacity(1);
        // Give everything to processor 0 on resource 1.
        let (a0, a1) = (stepper.step_demand(0, 0), stepper.step_demand(0, 1));
        stepper.push_step(&[a0, a1, d0 - a0, d1 - a1]);
        assert!(!stepper.is_active(0));
        // Processor 1 got the leftover of resource 1 (not enough: 1/4 < 3/4
        // needed), so it is still active.
        assert!(stepper.is_active(1));
        let (b0, b1) = (stepper.step_demand(1, 0), stepper.step_demand(1, 1));
        stepper.push_step(&[0, 0, b0, b1]);
        assert!(stepper.all_done());
        assert_eq!(stepper.current_step(), 2);
    }

    #[test]
    #[should_panic(expected = "oversubscribes resource 1")]
    fn oversubscribed_layer_is_rejected() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2)])
            .processor([ratio(1, 2)])
            .extra_layer([vec![ratio(3, 4)], vec![ratio(3, 4)]])
            .build();
        let mut stepper = MultiStepper::<u64>::try_new(&inst).unwrap();
        let d1 = stepper.capacity(1);
        let d0 = stepper.capacity(0);
        stepper.push_step(&[d0 / 2, d1, d0 / 2, d1]);
    }

    #[test]
    fn all_zero_requirement_vector_jobs_take_ceil_volume_steps() {
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 2))])
            .extra_layer([vec![Ratio::ZERO]])
            .build();
        let mut stepper = MultiStepper::<u128>::try_new(&inst).unwrap();
        for _ in 0..3 {
            assert!(stepper.is_active(0));
            stepper.push_step(&[0, 0]);
        }
        assert!(stepper.all_done());
        assert_eq!(stepper.current_step(), 3);
    }
}
