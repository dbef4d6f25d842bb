//! Multi-resource stepping: the `k`-resource generalization of the scaled
//! scheduling layer.
//!
//! The paper's model shares **one** continuous resource; real many-core
//! traffic contends on several at once (memory bandwidth, bus, cache
//! slices).  An [`Instance`] may carry extra resource layers (see
//! [`Instance::extra_layers`]); this module provides the forward-simulation
//! machinery for such instances:
//!
//! * [`StepUnit`] — the shared arithmetic surface of the exact
//!   representations: integer units on a per-resource LCM grid (`u64`, the
//!   fast production path, or `u128` for the exact solvers' wide grids) and
//!   [`Ratio`] (the exact rational reference path).
//! * [`MultiStepper`] — the `k`-resource twin of
//!   [`ScaledScheduleBuilder`](crate::scaled::ScaledScheduleBuilder): per
//!   step, every resource `r` hands out its own capacity `D_r`, and a job
//!   advances on each resource independently under the decoupled workload
//!   model below.
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
//! model (the single layer's workload and per-step cap coincide with the
//! scalar ones); the scalar code paths remain the production fast path and
//! are not routed through this module.

use crate::instance::Instance;
use crate::job::JobId;
use crate::rational::Ratio;

/// Least common multiple fold step used by the per-layer grids.
fn gcd(mut a: u64, mut b: u64) -> u64 {
    while b != 0 {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// The arithmetic a per-resource quantity must support: exact comparison,
/// overflow-checked addition and (contract-guarded) subtraction.
///
/// Implemented by `u64` and `u128` (units on a per-resource LCM grid) and
/// [`Ratio`] (exact rational arithmetic with per-resource capacity `1`).
/// The stepper below is written once against this trait, so the heuristics'
/// scaled and rational paths share every line of stepping logic, which is
/// what makes their cross-check meaningful; the exact engines in `cr-algos`
/// run on the integer units only.
pub trait StepUnit: Copy + Ord + std::fmt::Debug {
    /// The additive identity.
    const ZERO: Self;
    /// Overflow-checked addition.
    fn checked_add(self, other: Self) -> Option<Self>;
    /// Subtraction; callers guarantee `other ≤ self`.
    fn sub(self, other: Self) -> Self;
}

impl StepUnit for u64 {
    const ZERO: Self = 0;
    fn checked_add(self, other: Self) -> Option<Self> {
        u64::checked_add(self, other)
    }
    fn sub(self, other: Self) -> Self {
        self - other
    }
}

impl StepUnit for u128 {
    const ZERO: Self = 0;
    fn checked_add(self, other: Self) -> Option<Self> {
        u128::checked_add(self, other)
    }
    fn sub(self, other: Self) -> Self {
        self - other
    }
}

impl StepUnit for Ratio {
    const ZERO: Self = Ratio::ZERO;
    fn checked_add(self, other: Self) -> Option<Self> {
        Ratio::checked_add(self, other)
    }
    fn sub(self, other: Self) -> Self {
        self - other
    }
}

/// Forward-simulating multi-resource schedule stepper — the `k`-resource
/// twin of [`ScaledScheduleBuilder`](crate::scaled::ScaledScheduleBuilder),
/// generic over the representation (`u64` units or exact [`Ratio`]s).
///
/// Every resource `r` lives on its own grid: a full time step hands out
/// exactly [`capacity(r)`](Self::capacity) units of resource `r`.  The
/// stepper tracks, per processor, the active job's remaining workload on
/// every layer and advances it by the consumed units (`min(share, step
/// demand)`) per layer.
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
/// let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
/// assert_eq!(stepper.resources(), 2);
/// // Both processors can run on resource 0, but processor 0 saturates
/// // resource 1 on its own.
/// let d0 = stepper.capacity(0);
/// let d1 = stepper.capacity(1);
/// stepper.push_step(&[vec![d0 / 2, d1], vec![d0 / 2, 0]]);
/// assert!(!stepper.is_active(0) && !stepper.is_active(1));
/// ```
#[derive(Debug, Clone)]
pub struct MultiStepper<V> {
    /// Number of resources `k`.
    resources: usize,
    /// Per-resource capacities, length `k`.
    caps: Vec<V>,
    /// Row start offsets into the per-job arrays; length `processors + 1`.
    offsets: Vec<u32>,
    /// Per-step requirement caps, `total_jobs × k`, job-major.
    reqs: Vec<V>,
    /// Initial layer workloads `r^r · p`, `total_jobs × k`, job-major.
    costs: Vec<V>,
    /// Remaining step count `⌈p⌉` for jobs whose whole requirement vector
    /// is zero; `0` for every other job.
    free_steps: Vec<u64>,
    /// Index of each processor's next unfinished job within its row.
    next_job: Vec<usize>,
    /// Remaining layer workloads of each processor's frontier job,
    /// `processors × k`.
    frontier: Vec<V>,
    /// Remaining free steps of each processor's frontier job.
    frontier_free: Vec<u64>,
    /// Number of steps applied so far.
    steps: usize,
}

impl MultiStepper<u64> {
    /// Builds the scaled stepper: every resource on its own unit grid `D_r`
    /// (the LCM of the layer's requirement and positive-layer workload
    /// denominators, with `(m + 1) · D_r` headroom so an unchecked sum of
    /// `m` shares plus a carry fits `u64`).  Returns `None` when any
    /// layer's grid overflows; callers fall back to the exact rational
    /// stepper.
    #[must_use]
    pub fn try_new_scaled(instance: &Instance) -> Option<Self> {
        let m = instance.processors() as u64;
        let k = instance.resources();
        let mut caps = Vec::with_capacity(k);
        for r in 0..k {
            let mut capacity: u64 = 1;
            let mut fold = |den: i128| -> Option<()> {
                let den = u64::try_from(den).ok()?;
                let g = gcd(capacity, den);
                capacity = capacity.checked_mul(den / g)?;
                capacity.checked_mul(m + 1)?;
                Some(())
            };
            for (id, job) in instance.iter_jobs() {
                let req = instance.requirement_on(r, id);
                fold(req.denom())?;
                if req.is_positive() {
                    let workload = req.checked_mul(job.volume)?;
                    fold(workload.denom())?;
                }
            }
            caps.push(capacity);
        }
        Self::build(instance, &caps, |req, volume, cap| {
            let num = u64::try_from(req.numer()).ok()?;
            let den = u64::try_from(req.denom()).ok()?;
            let req_units = num * (cap / den);
            let workload = req.checked_mul(volume)?;
            let num = u64::try_from(workload.numer()).ok()?;
            let den = u64::try_from(workload.denom()).ok()?;
            Some((req_units, num.checked_mul(cap / den)?))
        })
    }
}

impl MultiStepper<Ratio> {
    /// Builds the exact rational stepper: every resource has capacity `1`
    /// and all quantities are exact [`Ratio`]s.  This is the reference
    /// implementation the scaled path is cross-checked against; it never
    /// fails to construct.
    #[must_use]
    pub fn new_rational(instance: &Instance) -> Self {
        let caps = vec![Ratio::ONE; instance.resources()];
        Self::build(instance, &caps, |req, volume, _| Some((req, req * volume)))
            .expect("rational stepper construction is infallible") // lint: allow(panic_hygiene) — the closure never returns None
    }
}

impl<V: StepUnit> MultiStepper<V> {
    /// Shared constructor: `convert(req, volume, cap)` produces the
    /// per-step cap and layer workload of one job on one resource.
    fn build(
        instance: &Instance,
        caps: &[V],
        mut convert: impl FnMut(Ratio, Ratio, V) -> Option<(V, V)>,
    ) -> Option<Self> {
        let m = instance.processors();
        let k = instance.resources();
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
                    any_positive |= req.is_positive();
                    let (req_v, cost_v) = convert(req, job.volume, cap)?;
                    reqs.push(req_v);
                    costs.push(cost_v);
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
            caps: caps.to_vec(),
            offsets,
            reqs,
            costs,
            free_steps,
            next_job: vec![0; m],
            frontier: vec![V::ZERO; m * k],
            frontier_free: vec![0; m],
            steps: 0,
        };
        for i in 0..m {
            stepper.load_frontier(i);
        }
        Some(stepper)
    }

    /// (Re)loads processor `i`'s frontier arrays from its next job.
    fn load_frontier(&mut self, processor: usize) {
        let k = self.resources;
        if let Some(slot) = self.job_slot(processor) {
            self.frontier[processor * k..(processor + 1) * k]
                .copy_from_slice(&self.costs[slot * k..(slot + 1) * k]);
            self.frontier_free[processor] = self.free_steps[slot];
        } else {
            self.frontier[processor * k..(processor + 1) * k].fill(V::ZERO);
            self.frontier_free[processor] = 0;
        }
    }

    fn job_slot(&self, processor: usize) -> Option<usize> {
        let slot = self.offsets[processor] as usize + self.next_job[processor];
        (slot < self.offsets[processor + 1] as usize).then_some(slot)
    }

    /// Number of shared resources `k`.
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
    pub fn capacity(&self, resource: usize) -> V {
        self.caps[resource]
    }

    /// All per-resource capacities, in resource order.
    #[must_use]
    pub fn capacities(&self) -> &[V] {
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
            .map(|_| JobId::new(processor, self.next_job[processor]))
    }

    /// Number of unfinished jobs on processor `i`.
    #[must_use]
    pub fn unfinished_jobs(&self, processor: usize) -> usize {
        (self.offsets[processor + 1] as usize - self.offsets[processor] as usize)
            - self.next_job[processor]
    }

    /// Per-step requirement cap of the active job of processor `i` on
    /// resource `resource` (`None` when the processor is idle).
    #[must_use]
    pub fn active_requirement(&self, processor: usize, resource: usize) -> Option<V> {
        self.job_slot(processor)
            .map(|slot| self.reqs[slot * self.resources + resource])
    }

    /// Remaining workload of processor `i`'s active job on resource
    /// `resource` (zero when idle).
    #[must_use]
    pub fn remaining(&self, processor: usize, resource: usize) -> V {
        self.frontier[processor * self.resources + resource]
    }

    /// Maximum share of resource `resource` the active job of processor `i`
    /// can usefully absorb this step: `min(remaining layer workload, per-step
    /// cap)`.
    #[must_use]
    pub fn step_demand(&self, processor: usize, resource: usize) -> V {
        match self.job_slot(processor) {
            Some(slot) => self.frontier[processor * self.resources + resource]
                .min(self.reqs[slot * self.resources + resource]),
            None => V::ZERO,
        }
    }

    /// Whether every job of the instance has been completed.
    #[must_use]
    pub fn all_done(&self) -> bool {
        (0..self.processors()).all(|i| !self.is_active(i))
    }

    /// Applies one time step with the given shares, `shares[i][r]` being
    /// processor `i`'s share of resource `r`, and returns the units
    /// usefully consumed per resource.
    ///
    /// # Panics
    ///
    /// Panics (in debug and release builds alike) if the shares are
    /// malformed or oversubscribe any resource — algorithms must never emit
    /// an infeasible step.
    pub fn push_step(&mut self, shares: &[Vec<V>]) -> Vec<V> {
        let k = self.resources;
        assert_eq!(
            shares.len(),
            self.processors(),
            "step must assign a share vector to every processor"
        );
        for (r, &cap) in self.caps.iter().enumerate() {
            let mut total = V::ZERO;
            for (i, row) in shares.iter().enumerate() {
                assert_eq!(row.len(), k, "processor {i} must receive {k} shares");
                assert!(
                    row[r] <= cap,
                    "share {:?} for processor {i} exceeds resource {r}'s capacity {cap:?}",
                    row[r]
                );
                total = total
                    .checked_add(row[r])
                    .unwrap_or_else(|| panic!("share total overflows on resource {r}"));
            }
            assert!(
                total <= cap,
                "step oversubscribes resource {r}: {total:?} assigned, capacity {cap:?}"
            );
        }

        let mut consumed = vec![V::ZERO; k];
        for (i, row) in shares.iter().enumerate() {
            let Some(slot) = self.job_slot(i) else {
                continue;
            };
            if self.frontier_free[i] > 0 {
                // A job with an all-zero requirement vector advances one
                // volume unit per step regardless of its shares.
                self.frontier_free[i] -= 1;
            } else {
                for r in 0..k {
                    let demand = self.frontier[i * k + r].min(self.reqs[slot * k + r]);
                    let used = row[r].min(demand);
                    self.frontier[i * k + r] = self.frontier[i * k + r].sub(used);
                    consumed[r] = consumed[r]
                        .checked_add(used)
                        .unwrap_or_else(|| panic!("consumption overflows on resource {r}"));
                }
            }
            let done =
                self.frontier_free[i] == 0 && (0..k).all(|r| self.frontier[i * k + r] == V::ZERO);
            if done {
                self.next_job[i] += 1;
                self.load_frontier(i);
            }
        }
        self.steps += 1;
        consumed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::job::Job;
    use crate::rational::ratio;
    use crate::scaled::ScaledScheduleBuilder;

    fn two_resource_instance() -> Instance {
        InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 4)])
            .processor([ratio(3, 4)])
            .extra_layer([vec![ratio(1, 3), ratio(5, 6)], vec![Ratio::ZERO]])
            .build()
    }

    #[test]
    fn scaled_and_rational_steppers_agree_step_for_step() {
        let inst = two_resource_instance();
        let mut scaled = MultiStepper::try_new_scaled(&inst).unwrap();
        let mut rational = MultiStepper::new_rational(&inst);
        let k = inst.resources();
        let m = inst.processors();
        let to_ratio = |v: u64, cap: u64| Ratio::new(i128::from(v), i128::from(cap));
        let mut guard = 0;
        while !scaled.all_done() {
            assert!(!rational.all_done());
            for i in 0..m {
                assert_eq!(scaled.is_active(i), rational.is_active(i));
                assert_eq!(scaled.active_job(i), rational.active_job(i));
                for r in 0..k {
                    assert_eq!(
                        to_ratio(scaled.step_demand(i, r), scaled.capacity(r)),
                        rational.step_demand(i, r)
                    );
                    assert_eq!(
                        to_ratio(scaled.remaining(i, r), scaled.capacity(r)),
                        rational.remaining(i, r)
                    );
                }
            }
            // Serve in processor order on every resource independently.
            let mut unit_shares = vec![vec![0u64; k]; m];
            let mut left: Vec<u64> = (0..k).map(|r| scaled.capacity(r)).collect();
            for (i, row) in unit_shares.iter_mut().enumerate() {
                for (r, cell) in row.iter_mut().enumerate() {
                    *cell = scaled.step_demand(i, r).min(left[r]);
                    left[r] -= *cell;
                }
            }
            let ratio_shares: Vec<Vec<Ratio>> = unit_shares
                .iter()
                .map(|row| {
                    row.iter()
                        .enumerate()
                        .map(|(r, &u)| to_ratio(u, scaled.capacity(r)))
                        .collect()
                })
                .collect();
            let consumed_units = scaled.push_step(&unit_shares);
            let consumed = rational.push_step(&ratio_shares);
            for r in 0..k {
                assert_eq!(to_ratio(consumed_units[r], scaled.capacity(r)), consumed[r]);
            }
            guard += 1;
            assert!(guard < 100, "stepper failed to make progress");
        }
        assert!(rational.all_done());
        assert_eq!(scaled.current_step(), rational.current_step());
    }

    #[test]
    fn single_resource_stepper_matches_the_scalar_builder() {
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 2)), Job::unit(ratio(1, 2))])
            .processor_jobs([Job::new(ratio(1, 4), ratio(3, 1))])
            .build();
        let mut multi = MultiStepper::try_new_scaled(&inst).unwrap();
        let mut scalar = ScaledScheduleBuilder::try_new(&inst).unwrap();
        assert_eq!(multi.capacity(0), scalar.capacity());
        let mut guard = 0;
        while !scalar.all_done() {
            assert!(!multi.all_done());
            let m = inst.processors();
            let mut shares = vec![0u64; m];
            let mut left = scalar.capacity();
            for (i, share) in shares.iter_mut().enumerate() {
                assert_eq!(multi.step_demand(i, 0), scalar.step_demand_units(i));
                assert_eq!(multi.unfinished_jobs(i), scalar.unfinished_jobs(i));
                *share = scalar.step_demand_units(i).min(left);
                left -= *share;
            }
            multi.push_step(&shares.iter().map(|&s| vec![s]).collect::<Vec<_>>());
            scalar.push_step(shares);
            guard += 1;
            assert!(guard < 100);
        }
        assert!(multi.all_done());
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
        let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
        let d0 = stepper.capacity(0);
        let d1 = stepper.capacity(1);
        // Give everything to processor 0 on resource 1.
        stepper.push_step(&[
            vec![stepper.step_demand(0, 0), stepper.step_demand(0, 1)],
            vec![
                d0 - stepper.step_demand(0, 0),
                d1 - stepper.step_demand(0, 1),
            ],
        ]);
        assert!(!stepper.is_active(0));
        // Processor 1 got the leftover of resource 1 (not enough: 1/4 < 3/4
        // needed), so it is still active.
        assert!(stepper.is_active(1));
        stepper.push_step(&[
            vec![0, 0],
            vec![stepper.step_demand(1, 0), stepper.step_demand(1, 1)],
        ]);
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
        let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
        let d1 = stepper.capacity(1);
        let d0 = stepper.capacity(0);
        stepper.push_step(&[vec![d0 / 2, d1], vec![d0 / 2, d1]]);
    }

    #[test]
    fn all_zero_requirement_vector_jobs_take_ceil_volume_steps() {
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 2))])
            .extra_layer([vec![Ratio::ZERO]])
            .build();
        let mut stepper = MultiStepper::try_new_scaled(&inst).unwrap();
        for _ in 0..3 {
            assert!(stepper.is_active(0));
            stepper.push_step(&[vec![0, 0]]);
        }
        assert!(stepper.all_done());
        assert_eq!(stepper.current_step(), 3);
    }
}
