//! Scaled-integer view of an instance's resource requirements, and the
//! unit grid the scheduling layer runs on.
//!
//! The exact solvers spend essentially all of their time comparing and
//! summing requirements.  In [`Ratio`] arithmetic every addition runs
//! Euclid's gcd on `i128` operands and every comparison cross-multiplies.
//! For a *fixed* instance none of that generality is needed — all
//! requirements live on the common grid `1/D`, where `D` is the least
//! common multiple of their denominators (bounded, for every instance
//! family shipped in this repository, by a few million — see the
//! `rational` module docs).
//!
//! [`ScaledInstance`] precomputes `D` once and re-expresses every requirement
//! as a plain integer number of *units* with resource capacity `D`.  Sums,
//! "does it exceed the resource?" tests and leftover computations then become
//! single integer operations with no gcd anywhere.  The conversion is exact
//! in both directions: [`ScaledInstance::to_ratio`] returns the original
//! requirement value bit-for-bit (same reduced fraction), which is what lets
//! the solver cores run on units internally while the public API keeps
//! speaking exact [`Ratio`]s.
//!
//! The unit is a [`GridUnit`]: `u64` ([`ScaledInstance::try_new`]), or
//! `u128` ([`ScaledInstance::try_on_grid`]) for the instances whose grid
//! overflows `u64`.  One conversion serves both widths; each width decides
//! which grids it admits ([`GridUnit::admits`]), so that every value the
//! exact solvers form on an admitted grid fits the unit.
//!
//! # The scheduling layer's grid
//!
//! The heuristics and the simulator step schedules forward on a
//! [`MultiStepper`](crate::multi::MultiStepper), which tracks the remaining
//! **workload** `r·p` of each frontier job, so its grid per layer is the
//! LCM of the layer's requirement *and* positive-workload denominators.  A
//! time step hands out exactly `D_r` units; granting `c ≤ min(workload,
//! r·D_r)` units reduces the remaining workload by exactly `c`, and the
//! shares convert back to exact [`Ratio`]s (`units/D`), so a unit schedule
//! is bit-for-bit the schedule the equivalent `Ratio` arithmetic would have
//! produced.  That grid reserves `(m + 1) · D_r` headroom (a step's `m`
//! shares plus a carry), where a `u64` [`ScaledInstance`] only needs
//! `2 · D` (the two-processor DP's requirement-plus-carry cells; the wide
//! configuration engines in `cr-algos` overflow-check their own `m`-fold
//! sums).  Past `u64` both layers widen to `u128`.
//!
//! [`largest_remainder_split`] is the companion primitive for policies that
//! *divide* the resource (uniform or demand-proportional shares): it splits
//! the `D`-unit pool proportionally to integer weights with deterministic
//! largest-remainder rounding, so shares always sum to exactly one pool —
//! no sliver of the resource is silently wasted, and a positive demand is
//! only ever given zero units when the entire pool went to other positive
//! demands.  This replaces the lossy fixed `SHARE_GRID` floor the heuristics
//! and the online policies used before, which could quantize small positive
//! demands to a zero share and starve a core.

use crate::instance::Instance;
use crate::job::JobId;
use crate::rational::Ratio;
use std::ops::{Add, Div, Rem};

/// The integer unit of a grid: `u64`, or `u128` for the instances whose
/// grid overflows `u64`.
pub trait GridUnit:
    Copy
    + Ord
    + std::fmt::Debug
    + Into<u128>
    + TryFrom<i128>
    + Add<Output = Self>
    + Div<Output = Self>
    + Rem<Output = Self>
{
    /// The additive identity.
    const ZERO: Self;

    /// The multiplicative identity.
    const ONE: Self;

    /// Overflow-checked addition.
    fn checked_add(self, other: Self) -> Option<Self>;

    /// Subtraction; callers guarantee `other ≤ self`.
    fn sub(self, other: Self) -> Self;

    /// Overflow-checked multiplication.
    fn checked_mul(self, other: Self) -> Option<Self>;

    /// `(⌊self · b / c⌋, self · b mod c)` for `0 < c` and `b ≤ c`, which
    /// keeps the quotient at most `self`; the product itself may exceed
    /// the unit.
    fn mul_div_rem(self, b: Self, c: Self) -> (Self, Self);

    /// Whether this unit admits per-layer grids of the given capacities on
    /// an instance of `processors` processors and `jobs` jobs: every value
    /// the exact solvers form on such a grid then fits the unit.
    fn admits(capacities: &[Self], processors: usize, jobs: usize) -> bool;

    /// `self / capacity` as an exact, reduced [`Ratio`].
    ///
    /// # Panics
    ///
    /// Panics if either value exceeds `i128::MAX`; no admitted grid holds
    /// such a value.
    #[must_use]
    fn ratio_of(self, capacity: Self) -> Ratio {
        let wide = |value: Self| i128::try_from(value.into()).expect("admitted grids fit i128");
        Ratio::new(wide(self), wide(capacity))
    }
}

impl GridUnit for u64 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    fn checked_add(self, other: Self) -> Option<Self> {
        u64::checked_add(self, other)
    }

    fn sub(self, other: Self) -> Self {
        self - other
    }

    fn checked_mul(self, other: Self) -> Option<Self> {
        u64::checked_mul(self, other)
    }

    fn mul_div_rem(self, b: Self, c: Self) -> (Self, Self) {
        let product = u128::from(self) * u128::from(b);
        let c = u128::from(c);
        // The quotient is at most `self` and the remainder below `c`.
        ((product / c) as u64, (product % c) as u64)
    }

    /// `2 · D_r` fits on every layer: the two-processor DP's cells hold one
    /// requirement plus one carried leftover.
    fn admits(capacities: &[u64], _processors: usize, _jobs: usize) -> bool {
        capacities.iter().all(|d| d.checked_mul(2).is_some())
    }
}

impl GridUnit for u128 {
    const ZERO: Self = 0;
    const ONE: Self = 1;

    fn checked_add(self, other: Self) -> Option<Self> {
        u128::checked_add(self, other)
    }

    fn sub(self, other: Self) -> Self {
        self - other
    }

    fn checked_mul(self, other: Self) -> Option<Self> {
        u128::checked_mul(self, other)
    }

    /// Long multiplication by the bits of `b`, keeping every partial
    /// remainder below `c`, so no intermediate leaves `u128`.
    fn mul_div_rem(self, b: Self, c: Self) -> (Self, Self) {
        // self = high · c + low, and high · b ≤ self · b / c ≤ self.
        let (high, low) = (self / c, self % c);
        let (mut quotient, mut rest) = (0u128, 0u128);
        for bit in (0..128).rev() {
            // (quotient, rest) ← 2 · (quotient, rest), reduced below c.
            quotient <<= 1;
            if rest >= c - rest {
                rest -= c - rest;
                quotient += 1;
            } else {
                rest += rest;
            }
            if (b >> bit) & 1 == 1 {
                if rest >= c - low {
                    rest -= c - low;
                    quotient += 1;
                } else {
                    rest += low;
                }
            }
        }
        (high * b + quotient, rest)
    }

    /// `(jobs + processors) · Σ_r D_r` fits, which bounds every consumption
    /// level, spent sum, fit-test sum and DP cell; and every `D_r` fits
    /// `i128`, so that each share converts to a [`Ratio`].
    fn admits(capacities: &[u128], processors: usize, jobs: usize) -> bool {
        let total = capacities
            .iter()
            .try_fold(0u128, |sum, &d| sum.checked_add(d));
        let nodes = (jobs as u128).checked_add(processors as u128);
        capacities.iter().all(|&d| i128::try_from(d).is_ok())
            && total
                .zip(nodes)
                .is_some_and(|(total, nodes)| total.checked_mul(nodes).is_some())
    }
}

/// An instance's requirements re-expressed as integer units on the common
/// grid `1/capacity`, in the unit `U` (`u64` unless named).
///
/// Rows are stored in one flat buffer (CSR-style) so iterating a processor's
/// chain is a contiguous slice scan.
///
/// # Examples
///
/// ```
/// use cr_core::{Instance, Ratio, ScaledInstance};
///
/// let inst = Instance::unit_from_percentages(&[&[60, 40], &[50]]);
/// let scaled = ScaledInstance::try_new(&inst).unwrap();
/// // 60%, 40% and 50% share the grid 1/5 after reduction (3/5, 2/5, 1/2 → lcm 10).
/// assert_eq!(scaled.capacity(), 10);
/// assert_eq!(scaled.row(0), &[6, 4]);
/// assert_eq!(scaled.row(1), &[5]);
/// assert_eq!(scaled.to_ratio(6), Ratio::from_percent(60));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScaledInstance<U = u64> {
    /// The shared resource capacity `D` (the requirement denominators' LCM).
    capacity: U,
    /// Row start offsets into `units`; length `processors + 1`.
    offsets: Vec<u32>,
    /// All requirements in units, processor-major.
    units: Vec<U>,
    /// Extra resource layers (`extra[r − 1]` is resource `r`), each on its
    /// **own** per-resource LCM grid and sharing `offsets`.  Empty for
    /// single-resource instances, whose representation is bit-for-bit what
    /// it was before the multi-resource generalization.
    extra: Vec<ScaledLayer<U>>,
}

/// One extra resource layer of a [`ScaledInstance`]: its own unit grid plus
/// the per-job requirements in units, addressed through the instance's
/// shared CSR offsets.
#[derive(Debug, Clone, PartialEq, Eq)]
struct ScaledLayer<U> {
    /// The layer's capacity `D_r` (LCM of the layer's requirement
    /// denominators, admitted by the same rule as the base grid).
    capacity: U,
    /// The layer's requirements in units, processor-major.
    units: Vec<U>,
}

/// Greatest common divisor (Euclid).
fn gcd<U: GridUnit>(mut a: U, mut b: U) -> U {
    while b != U::ZERO {
        let t = a % b;
        a = b;
        b = t;
    }
    a
}

/// `lcm(capacity, den)`, or `None` past `U`.
pub(crate) fn lcm<U: GridUnit>(capacity: U, den: i128) -> Option<U> {
    let den = U::try_from(den).ok()?;
    capacity.checked_mul(den / gcd(capacity, den))
}

/// The LCM of the denominators of `requirements`, or `None` past `U`.
fn lcm_of<U: GridUnit>(mut requirements: impl Iterator<Item = Ratio>) -> Option<U> {
    requirements.try_fold(U::ONE, |capacity, requirement| {
        lcm(capacity, requirement.denom())
    })
}

/// `value` in units of a grid whose capacity its denominator divides, or
/// `None` past `U`.
pub(crate) fn units_of<U: GridUnit>(value: Ratio, capacity: U) -> Option<U> {
    let num = U::try_from(value.numer()).ok()?;
    let den = U::try_from(value.denom()).ok()?;
    num.checked_mul(capacity / den)
}

/// The scheduling layer's grid `D_r` of layer `resource`: the LCM of the
/// layer's requirement denominators and of its positive workloads'
/// denominators (a zero requirement's job is tracked by step count, so its
/// volume never enters).  `None` unless `(m + 1) · D_r` fits `U`, so a
/// step's `m` shares plus a carry fit, and `D_r` fits `i128`, so every
/// share converts to a [`Ratio`].
pub(crate) fn step_grid<U: GridUnit>(instance: &Instance, resource: usize) -> Option<U> {
    let mut capacity = U::ONE;
    for (id, job) in instance.iter_jobs() {
        let requirement = instance.requirement_on(resource, id);
        capacity = lcm(capacity, requirement.denom())?;
        if requirement.is_positive() {
            capacity = lcm(capacity, requirement.checked_mul(job.volume)?.denom())?;
        }
    }
    let headroom = U::try_from(instance.processors() as i128 + 1).ok()?;
    capacity.checked_mul(headroom)?;
    i128::try_from(capacity.into()).ok()?;
    Some(capacity)
}

impl ScaledInstance {
    /// Builds the `u64` view, or `None` when some layer's denominator LCM
    /// `D_r` is so large that `2 · D_r` would overflow `u64` (see
    /// [`GridUnit::admits`]).  Callers then widen to the `u128` grid
    /// ([`ScaledInstance::try_on_grid`]).
    ///
    /// # Headroom invariant
    ///
    /// The factor-two headroom is exactly what the two-processor dynamic
    /// program needs: its cell values are one frontier requirement plus one
    /// carried leftover, each at most `D`.  Wider sums — over the
    /// *m*-processor active set of the configuration search — are **not**
    /// covered and may exceed `u64`; the engines in `cr-algos` use
    /// overflow-checked additions for those (an overflowing sum is, a
    /// fortiori, oversubscribed).  Before ISSUE 4 this reserved
    /// `(m + 1) · D` instead, needlessly pushing wide many-core instances
    /// with large denominators onto the slow rational path.
    ///
    /// The scheduling layer's grid (see the module docs) still reserves
    /// `(m + 1) · D`.
    #[must_use]
    pub fn try_new(instance: &Instance) -> Option<Self> {
        Self::try_on_grid(instance)
    }
}

impl<U: GridUnit> ScaledInstance<U> {
    /// Builds the view on `U` units, or `None` when some layer's
    /// denominator LCM overflows `U` or `U` does not admit the grids
    /// ([`GridUnit::admits`]).  Each resource layer gets its own LCM grid.
    #[must_use]
    pub fn try_on_grid(instance: &Instance) -> Option<Self> {
        let m = instance.processors();
        let layer = |r: usize| {
            (0..m).flat_map(move |i| {
                (0..instance.jobs_on(i)).map(move |j| instance.requirement_on(r, JobId::new(i, j)))
            })
        };
        let capacities = (0..instance.resources())
            .map(|r| lcm_of(layer(r)))
            .collect::<Option<Vec<U>>>()?;
        if !U::admits(&capacities, m, instance.total_jobs()) {
            return None;
        }
        let mut offsets = Vec::with_capacity(m + 1);
        offsets.push(0u32);
        let mut jobs = 0usize;
        for i in 0..m {
            jobs += instance.jobs_on(i);
            offsets.push(u32::try_from(jobs).ok()?);
        }
        // Exact capacities: a serving cache holds thousands of these.
        let mut extra = Vec::with_capacity(capacities.len() - 1);
        let mut base = None;
        for (r, &capacity) in capacities.iter().enumerate() {
            let mut units = Vec::with_capacity(jobs);
            for requirement in layer(r) {
                units.push(units_of(requirement, capacity)?);
            }
            let layer = ScaledLayer { capacity, units };
            if r == 0 {
                base = Some(layer);
            } else {
                extra.push(layer);
            }
        }
        let base = base?;
        Some(ScaledInstance {
            capacity: base.capacity,
            offsets,
            units: base.units,
            extra,
        })
    }

    /// Number of shared resources `k` (`1` plus the extra layers).
    #[must_use]
    pub fn resources(&self) -> usize {
        1 + self.extra.len()
    }

    /// The capacity `D_r` of resource `resource` (`0` is the base
    /// resource): a full time step hands out `layer_capacity(r)` units *of
    /// resource `r`*.  Each resource lives on its own grid.
    #[must_use]
    pub fn layer_capacity(&self, resource: usize) -> U {
        if resource == 0 {
            self.capacity
        } else {
            self.extra[resource - 1].capacity
        }
    }

    /// Requirements of processor `i` on resource `resource` in that
    /// resource's units, in chain order.
    #[must_use]
    pub fn layer_row(&self, resource: usize, processor: usize) -> &[U] {
        let range = self.offsets[processor] as usize..self.offsets[processor + 1] as usize;
        if resource == 0 {
            &self.units[range]
        } else {
            &self.extra[resource - 1].units[range]
        }
    }

    /// Requirement of job `(processor, index)` on resource `resource` in
    /// that resource's units.
    #[must_use]
    pub fn layer_unit_req(&self, resource: usize, processor: usize, index: usize) -> U {
        let slot = self.offsets[processor] as usize + index;
        if resource == 0 {
            self.units[slot]
        } else {
            self.extra[resource - 1].units[slot]
        }
    }

    /// Converts a unit count of resource `resource` back to the exact
    /// rational share `units / D_r` (reduced — round-trips the original
    /// requirement).
    #[must_use]
    pub fn to_ratio_on(&self, resource: usize, units: U) -> Ratio {
        units.ratio_of(self.layer_capacity(resource))
    }

    /// The resource capacity `D`: a full time step hands out exactly
    /// `capacity` units.
    #[must_use]
    pub fn capacity(&self) -> U {
        self.capacity
    }

    /// Number of processors.
    #[must_use]
    pub fn processors(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of jobs on processor `i`.
    #[must_use]
    pub fn jobs_on(&self, processor: usize) -> usize {
        (self.offsets[processor + 1] - self.offsets[processor]) as usize
    }

    /// Total number of jobs over all processors.
    #[must_use]
    pub fn total_jobs(&self) -> usize {
        self.units.len()
    }

    /// Requirements of processor `i` in units, in chain order.
    #[must_use]
    pub fn row(&self, processor: usize) -> &[U] {
        &self.units[self.offsets[processor] as usize..self.offsets[processor + 1] as usize]
    }

    /// Requirement of job `(processor, index)` in units.
    #[must_use]
    pub fn unit_req(&self, processor: usize, index: usize) -> U {
        self.units[self.offsets[processor] as usize + index]
    }

    /// Converts a unit count back to the exact rational share
    /// `units / capacity` (reduced — round-trips the original requirement).
    #[must_use]
    pub fn to_ratio(&self, units: U) -> Ratio {
        units.ratio_of(self.capacity)
    }
}

/// Splits a pool of `pool` resource units proportionally to integer
/// `weights`, with deterministic largest-remainder rounding.
///
/// Each entry receives `⌊pool·wᵢ/Σw⌋` units, and the remaining units are
/// handed out one each in order of decreasing fractional part
/// `(pool·wᵢ) mod Σw` (ties broken towards the lower index).  The result
/// always sums to exactly `pool` (or to zero when all weights are zero), a
/// zero weight always receives zero units, and no entry exceeds
/// `⌈pool·wᵢ/Σw⌉` — in particular, when `Σw > pool` no entry exceeds its own
/// weight, so demand-proportional splits never over-allocate a job.  The
/// products `pool·wᵢ` never have to fit the unit
/// ([`GridUnit::mul_div_rem`]).
///
/// # Panics
///
/// Panics if the weights sum past the unit; the weights of a step on an
/// admitted grid sum to at most `m · D`.
///
/// # Examples
///
/// ```
/// use cr_core::scaled::largest_remainder_split;
///
/// // A 10-unit pool split uniformly among three actives: 4 + 3 + 3.
/// assert_eq!(largest_remainder_split(10u64, &[1, 1, 1]), vec![4, 3, 3]);
/// // Proportional to demands 7 and 3 (oversubscribed pool of 5): 4 + 1.
/// assert_eq!(largest_remainder_split(5u64, &[7, 3]), vec![4, 1]);
/// ```
#[must_use]
pub fn largest_remainder_split<U: GridUnit>(pool: U, weights: &[U]) -> Vec<U> {
    let total = weights
        .iter()
        .try_fold(U::ZERO, |sum, &w| sum.checked_add(w))
        .expect("split weights sum within the unit");
    if total == U::ZERO {
        return vec![U::ZERO; weights.len()];
    }
    let mut shares = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(U, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = U::ZERO;
    for (i, &w) in weights.iter().enumerate() {
        // w ≤ total, so the quotient is at most `pool`.
        let (base, frac) = pool.mul_div_rem(w, total);
        shares.push(base);
        assigned = assigned + base;
        fracs.push((frac, i));
    }
    // Σ fracᵢ = rest·total with every frac < total, so rest < len and every
    // bumped entry has a strictly positive fractional part (zero weights are
    // never bumped).
    let rest: u128 = pool.sub(assigned).into();
    fracs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    for &(_, i) in fracs.iter().take(rest as usize) {
        shares[i] = shares[i] + U::ONE;
    }
    shares
}

/// The [`Ratio`]-arithmetic twin of [`largest_remainder_split`]: splits the
/// full unit pool (`1`) proportionally to `weights` on the grid `1/grid`.
///
/// For weights that are multiples of `1/grid` this produces exactly the
/// shares `largest_remainder_split(grid, unit_weights)` produces (divided by
/// `grid`) — it exists so the retained rational reference implementations of
/// the splitting heuristics compute bit-identical schedules to their scaled
/// production paths, which the cross-check property tests in `cr-algos`
/// assert.
///
/// # Panics
///
/// Panics if `grid` is not positive.
#[must_use]
pub fn largest_remainder_split_ratio(grid: i128, weights: &[Ratio]) -> Vec<Ratio> {
    assert!(grid > 0, "split grid must be positive");
    let total: Ratio = weights.iter().sum();
    if total.is_zero() {
        return vec![Ratio::ZERO; weights.len()];
    }
    let step = Ratio::new(1, grid);
    let mut shares = Vec::with_capacity(weights.len());
    let mut fracs: Vec<(Ratio, usize)> = Vec::with_capacity(weights.len());
    let mut assigned = Ratio::ZERO;
    for (i, &w) in weights.iter().enumerate() {
        let ideal = w / total;
        let base = ideal.floor_to_denominator(grid);
        assigned += base;
        fracs.push((ideal - base, i));
        shares.push(base);
    }
    // 1 − Σ base is a non-negative multiple of 1/grid.
    let rest = ((Ratio::ONE - assigned) * Ratio::new(grid, 1)).numer();
    let rest = usize::try_from(rest).expect("largest-remainder rest count fits usize");
    fracs.sort_unstable_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    for &(_, i) in fracs.iter().take(rest) {
        shares[i] += step;
    }
    shares
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceBuilder;
    use crate::multi::MultiStepper;
    use crate::rational::ratio;

    #[test]
    fn lcm_and_units_are_exact() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 3), ratio(1, 4)])
            .processor([ratio(5, 6)])
            .build();
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.capacity(), 12);
        assert_eq!(scaled.row(0), &[4, 3]);
        assert_eq!(scaled.row(1), &[10]);
        assert_eq!(scaled.processors(), 2);
        assert_eq!(scaled.total_jobs(), 3);
        assert_eq!(scaled.jobs_on(0), 2);
        assert_eq!(scaled.unit_req(1, 0), 10);
    }

    #[test]
    fn round_trips_every_requirement() {
        let inst = Instance::unit_from_percentages(&[&[20, 10, 0, 100], &[55, 90], &[33]]);
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        for i in 0..inst.processors() {
            for (j, job) in inst.processor_jobs(i).iter().enumerate() {
                assert_eq!(scaled.to_ratio(scaled.unit_req(i, j)), job.requirement);
            }
        }
    }

    #[test]
    fn empty_processors_give_empty_rows() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2)])
            .empty_processor()
            .build();
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.jobs_on(1), 0);
        assert!(scaled.row(1).is_empty());
    }

    #[test]
    fn zero_and_full_requirements() {
        let inst = Instance::unit_from_percentages(&[&[0, 100], &[100, 0]]);
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.capacity(), 1);
        assert_eq!(scaled.row(0), &[0, 1]);
        assert_eq!(scaled.to_ratio(0), Ratio::ZERO);
        assert_eq!(scaled.to_ratio(1), Ratio::ONE);
    }

    #[test]
    fn near_u64_max_capacity_is_accepted_for_solvers() {
        // Largest prime below 2^63: `2·D` still fits u64, so the solver view
        // scales regardless of the processor count, while the scheduling
        // layer's `u64` grid keeps its wider `(m + 1)·D` reserve and
        // declines (its `u128` grid admits it).
        let p: i128 = 9_223_372_036_854_775_783;
        let inst = InstanceBuilder::new()
            .processor([ratio(p - 1, p)])
            .processor([ratio(p - 1, p)])
            .processor([ratio(p - 1, p)])
            .build();
        let scaled = ScaledInstance::try_new(&inst).expect("2·D headroom fits u64");
        assert_eq!(scaled.capacity(), 9_223_372_036_854_775_783u64);
        assert_eq!(scaled.row(0), &[9_223_372_036_854_775_782u64]);
        assert_eq!(scaled.to_ratio(scaled.unit_req(0, 0)), ratio(p - 1, p));
        assert!(step_grid::<u64>(&inst, 0).is_none());
        assert!(MultiStepper::<u64>::try_new(&inst).is_none());
        assert_eq!(step_grid::<u128>(&inst, 0), Some(p as u128));
    }

    #[test]
    fn overflowing_lcm_is_rejected() {
        // Denominators are pairwise-coprime large primes: the LCM exceeds the
        // u64 headroom bound and construction must decline, not panic.
        let primes: [i128; 4] = [4_294_967_291, 4_294_967_279, 4_294_967_231, 4_294_967_197];
        let inst = InstanceBuilder::new()
            .processor(primes.map(|p| ratio(1, p)))
            .build();
        assert!(ScaledInstance::try_new(&inst).is_none());
        assert!(step_grid::<u64>(&inst, 0).is_none());
        assert!(MultiStepper::<u64>::try_new(&inst).is_none());
    }

    #[test]
    fn wide_grid_admits_up_to_its_bound() {
        // One processor with jobs 1/D and 0: the u128 grid admits D iff
        // (jobs + m) · D = 3 · D fits u128, and (2^128 − 1) / 3 is exact.
        let edge = (u128::MAX / 3) as i128;
        let instance = |d: i128| {
            InstanceBuilder::new()
                .processor([ratio(1, d), Ratio::ZERO])
                .build()
        };
        let inside = instance(edge);
        assert!(ScaledInstance::try_new(&inside).is_none());
        let wide = ScaledInstance::<u128>::try_on_grid(&inside).expect("3·D = u128::MAX fits");
        assert_eq!(wide.capacity(), edge as u128);
        assert_eq!(wide.row(0), &[1, 0]);
        assert_eq!(wide.to_ratio(1), ratio(1, edge));
        let outside = instance(edge + 1);
        assert!(ScaledInstance::<u128>::try_on_grid(&outside).is_none());
        // Every capacity fits i128 too: with one job, 2 · i128::MAX fits.
        let single = InstanceBuilder::new()
            .processor([ratio(1, i128::MAX)])
            .build();
        assert!(ScaledInstance::<u128>::try_on_grid(&single).is_some());
        // The u64 grid's own rule is unchanged: 2 · D fits u64.
        let small = Instance::unit_from_percentages(&[&[60, 40], &[50]]);
        assert_eq!(
            ScaledInstance::<u128>::try_on_grid(&small).map(|wide| wide.row(0).to_vec()),
            Some(vec![6, 4])
        );
    }

    #[test]
    fn largest_remainder_sums_to_pool_and_respects_weights() {
        assert_eq!(largest_remainder_split(10u64, &[1, 1, 1]), vec![4, 3, 3]);
        assert_eq!(largest_remainder_split(5u64, &[7, 3]), vec![4, 1]);
        assert_eq!(largest_remainder_split(7u64, &[0, 0]), vec![0, 0]);
        assert_eq!(
            largest_remainder_split(3u64, &[1, 0, 1, 0, 1]),
            vec![1, 0, 1, 0, 1]
        );
        // One huge and many tiny demands: the pool is fully assigned and the
        // huge demand never exceeds the pool it can absorb.
        let shares = largest_remainder_split(100u64, &[1_000_000, 1, 1, 1]);
        assert_eq!(shares.iter().sum::<u64>(), 100);
        for (share, weight) in shares.iter().zip([1_000_000u64, 1, 1, 1]) {
            assert!(*share <= weight);
        }
        // Oversubscribed splits never exceed the weight (demand cap).
        for pool in 1..=20u64 {
            for weights in [vec![3u64, 9, 8, 1], vec![20, 1, 1], vec![5, 5, 5, 5]] {
                let total: u64 = weights.iter().sum();
                if total <= pool {
                    continue;
                }
                let shares = largest_remainder_split(pool, &weights);
                assert_eq!(shares.iter().sum::<u64>(), pool);
                assert!(shares.iter().zip(&weights).all(|(s, w)| s <= w));
            }
        }
    }

    #[test]
    fn ratio_split_matches_integer_split_on_the_same_grid() {
        let grid = 60u64;
        for weights in [
            vec![7u64, 3, 0, 12],
            vec![1, 1, 1],
            vec![59, 1],
            vec![60, 60, 60],
        ] {
            let integer = largest_remainder_split(grid, &weights);
            let ratios: Vec<Ratio> = weights
                .iter()
                .map(|&w| Ratio::new(i128::from(w), i128::from(grid)))
                .collect();
            let rational = largest_remainder_split_ratio(i128::from(grid), &ratios);
            for (u, r) in integer.iter().zip(&rational) {
                assert_eq!(Ratio::new(i128::from(*u), i128::from(grid)), *r);
            }
        }
    }

    /// The scheduling layer's builder: the base-layer stepper with a share
    /// log.
    fn schedule_builder(instance: &Instance) -> MultiStepper<u64> {
        MultiStepper::try_new_base(instance).unwrap().log_shares()
    }

    #[test]
    fn schedule_builder_mirrors_ratio_builder() {
        use crate::schedule::ScheduleBuilder;
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2)])
            .processor([ratio(3, 4), ratio(1, 4)])
            .build();
        let mut scaled = schedule_builder(&inst);
        let mut rational = ScheduleBuilder::new(&inst);
        let d = scaled.capacity(0);
        assert_eq!(d, 4);
        while !scaled.all_done() {
            assert!(!rational.all_done());
            let m = scaled.processors();
            for i in 0..m {
                assert_eq!(scaled.is_active(i), rational.is_active(i));
                assert_eq!(scaled.active_job(i), rational.active_job(i));
                assert_eq!(scaled.unfinished_jobs(i), rational.unfinished_jobs(i));
                assert_eq!(
                    scaled.step_demand(i, 0).ratio_of(d),
                    rational.step_demand(i)
                );
                assert_eq!(
                    scaled.remaining(i, 0).ratio_of(d),
                    rational.remaining_workload(i)
                );
            }
            // Serve in processor order.
            let mut units = vec![0u64; m];
            let mut left = d;
            for (i, unit) in units.iter_mut().enumerate() {
                *unit = scaled.step_demand(i, 0).min(left);
                left -= *unit;
            }
            rational.push_step(units.iter().map(|&u| u.ratio_of(d)).collect());
            scaled.push_step(&units);
        }
        assert!(rational.all_done());
        assert_eq!(scaled.finish(), rational.finish());
    }

    #[test]
    fn schedule_builder_handles_volumes_and_zero_requirements() {
        use crate::job::Job;
        // p0: a 2.5-step zero-requirement job then a 50% job;
        // p1: a volume-3 job at requirement 1/4 (workload 3/4).
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 2)), Job::unit(ratio(1, 2))])
            .processor_jobs([Job::new(ratio(1, 4), ratio(3, 1))])
            .build();
        let mut b = schedule_builder(&inst);
        assert_eq!(b.capacity(0), 4);
        // Zero-requirement frontier: no demand, no workload.
        assert_eq!(b.step_demand(0, 0), 0);
        assert_eq!(b.remaining(0, 0), 0);
        assert_eq!(b.active_requirement(0, 0), Some(0));
        // Volume-3 job: demand capped at one step's worth (r·D = 1 unit).
        assert_eq!(b.step_demand(1, 0), 1);
        assert_eq!(b.remaining(1, 0), 3);
        for step in 0..3 {
            assert_eq!(b.unfinished_jobs(0), 2, "step {step}");
            b.push_step(&[0, 1]);
        }
        // The free job took ⌈5/2⌉ = 3 steps; p1's volume job finished too.
        assert_eq!(b.unfinished_jobs(0), 1);
        assert_eq!(b.unfinished_jobs(1), 0);
        assert_eq!(b.step_demand(0, 0), 2);
        b.push_step(&[2, 0]);
        assert!(b.all_done());
        let schedule = b.finish();
        assert_eq!(schedule.makespan(&inst).unwrap(), 4);
        assert_eq!(schedule.share(3, 0), ratio(1, 2));
        // The exact trace agrees with the unit bookkeeping step for step.
        let trace = schedule.trace(&inst).unwrap();
        assert_eq!(trace.completion_step(JobId::new(0, 0)), Some(2));
        assert_eq!(trace.completion_step(JobId::new(1, 0)), Some(2));
        assert_eq!(trace.completion_step(JobId::new(0, 1)), Some(3));
    }

    #[test]
    #[should_panic(expected = "oversubscribes resource 0")]
    fn schedule_builder_rejects_overuse() {
        let inst = Instance::unit_from_percentages(&[&[50], &[50]]);
        let mut b = schedule_builder(&inst);
        let over = b.capacity(0);
        b.push_step(&[over, 1]);
    }

    #[test]
    #[should_panic(expected = "unfinished jobs")]
    fn schedule_builder_finish_requires_completion() {
        let inst = Instance::unit_from_percentages(&[&[50]]);
        let _ = schedule_builder(&inst).finish();
    }

    #[test]
    fn extra_layers_get_their_own_exact_grids() {
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 4)])
            .processor([ratio(3, 4)])
            .extra_layer([vec![ratio(1, 3), ratio(5, 6)], vec![Ratio::ZERO]])
            .build();
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.resources(), 2);
        // The base layer is untouched by the extra one…
        assert_eq!(scaled.capacity(), 4);
        assert_eq!(scaled.layer_capacity(0), 4);
        assert_eq!(scaled.layer_row(0, 0), &[2, 1]);
        // …and the extra layer lives on its own LCM grid (1/3, 5/6 → 6).
        assert_eq!(scaled.layer_capacity(1), 6);
        assert_eq!(scaled.layer_row(1, 0), &[2, 5]);
        assert_eq!(scaled.layer_row(1, 1), &[0]);
        assert_eq!(scaled.layer_unit_req(1, 0, 1), 5);
        // Exact rational round-trip per layer.
        for i in 0..inst.processors() {
            for j in 0..inst.jobs_on(i) {
                for r in 0..2 {
                    assert_eq!(
                        scaled.to_ratio_on(r, scaled.layer_unit_req(r, i, j)),
                        inst.requirement_on(r, crate::job::JobId::new(i, j))
                    );
                }
            }
        }
    }

    #[test]
    fn single_resource_scaling_is_unchanged_by_the_multi_extension() {
        let inst = Instance::unit_from_percentages(&[&[60, 40], &[50]]);
        let scaled = ScaledInstance::try_new(&inst).unwrap();
        assert_eq!(scaled.resources(), 1);
        assert_eq!(scaled.layer_capacity(0), scaled.capacity());
        assert_eq!(scaled.layer_row(0, 0), scaled.row(0));
        assert_eq!(scaled.to_ratio_on(0, 6), scaled.to_ratio(6));
    }

    #[test]
    fn overflowing_extra_layer_is_rejected() {
        let primes: [i128; 4] = [4_294_967_291, 4_294_967_279, 4_294_967_231, 4_294_967_197];
        let inst = InstanceBuilder::new()
            .processor([ratio(1, 2), ratio(1, 2), ratio(1, 2), ratio(1, 2)])
            .extra_layer([primes.map(|p| ratio(1, p)).to_vec()])
            .build();
        assert!(ScaledInstance::try_new(&inst).is_none());
    }

    #[test]
    fn schedule_grid_covers_workload_denominators() {
        use crate::job::Job;
        // Requirement 1/3 with volume 5/2: the workload 5/6 forces grid 6.
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(ratio(1, 3), ratio(5, 2))])
            .build();
        assert_eq!(step_grid::<u64>(&inst, 0), Some(6));
        // A zero-requirement job's fractional volume does not inflate the
        // grid (it is tracked by step count, not workload units).
        let inst = InstanceBuilder::new()
            .processor_jobs([Job::new(Ratio::ZERO, ratio(5, 7))])
            .processor([ratio(1, 2)])
            .build();
        assert_eq!(step_grid::<u128>(&inst, 0), Some(2));
    }

    #[test]
    fn wide_splits_agree_with_narrow_ones_past_u128_products() {
        // The u128 quotient and remainder agree with u64's u128 products…
        for (a, b, c) in [
            (10u64, 1, 3),
            (5, 7, 10),
            (u64::MAX, u64::MAX, u64::MAX),
            (97, 0, 5),
        ] {
            let (q, r) = a.mul_div_rem(b, c);
            assert_eq!(
                u128::from(a).mul_div_rem(u128::from(b), u128::from(c)),
                (u128::from(q), u128::from(r))
            );
        }
        // …and stay exact where the product leaves u128.
        assert_eq!(u128::MAX.mul_div_rem(u128::MAX, u128::MAX), (u128::MAX, 0));
        assert_eq!(u128::MAX.mul_div_rem(1, 2), (u128::MAX / 2, 1));
        assert_eq!(u128::MAX.mul_div_rem(2, 3), (u128::MAX / 3 * 2, 0));
        assert_eq!((1u128 << 127).mul_div_rem(3, 4), (3 << 125, 0));
        let d = (1u128 << 100) + 7;
        assert_eq!(d.mul_div_rem(d - 1, d), (d - 1, 0));
        // On random operands, q · c + r = a · b with r < c, compared as
        // 256-bit products of 64-bit limbs.
        let wide_mul = |x: u128, y: u128| -> [u128; 4] {
            let (xs, ys) = ([x as u64, (x >> 64) as u64], [y as u64, (y >> 64) as u64]);
            let mut limbs = [0u128; 4];
            for (i, &xi) in xs.iter().enumerate() {
                for (j, &yj) in ys.iter().enumerate() {
                    let mut carry = u128::from(xi) * u128::from(yj);
                    let mut at = i + j;
                    while carry != 0 {
                        let sum = limbs[at] + (carry & u128::from(u64::MAX));
                        limbs[at] = sum & u128::from(u64::MAX);
                        carry = (carry >> 64) + (sum >> 64);
                        at += 1;
                    }
                }
            }
            limbs
        };
        let mut state = 0x5eed_u128;
        let mut draw = || {
            state = state
                .wrapping_mul(0x2360_ed05_1fc6_5da4_4385_df64_9fcc_f645)
                .wrapping_add(1);
            state >> (state % 100) as u32
        };
        for _ in 0..2000 {
            let (a, x, y) = (draw(), draw(), draw());
            let (b, c) = (x.min(y), x.max(y).max(1));
            let (q, r) = a.mul_div_rem(b, c);
            assert!(r < c);
            let mut qc = wide_mul(q, c);
            let mut carry = r;
            for limb in &mut qc {
                let sum = *limb + (carry & u128::from(u64::MAX));
                *limb = sum & u128::from(u64::MAX);
                carry = (carry >> 64) + (sum >> 64);
            }
            assert_eq!(qc, wide_mul(a, b), "{a} · {b} / {c}");
        }
        // A demand-proportional split of a pool near 2^100 sums to the pool
        // and never exceeds a weight.
        let weights = [d - 1, d / 3, d / 2, 1];
        let shares = largest_remainder_split(d, &weights);
        assert_eq!(shares.iter().sum::<u128>(), d);
        assert!(shares.iter().zip(&weights).all(|(s, w)| s <= w));
        for (weights, pool) in [(vec![7u64, 3, 0, 12], 60u64), (vec![5, 5, 5], 7)] {
            let narrow = largest_remainder_split(pool, &weights);
            let wide: Vec<u128> = weights.iter().map(|&w| u128::from(w)).collect();
            assert_eq!(
                largest_remainder_split(u128::from(pool), &wide),
                narrow.iter().map(|&s| u128::from(s)).collect::<Vec<_>>()
            );
        }
    }
}
