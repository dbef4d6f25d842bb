//! Online bandwidth-arbitration policies.
//!
//! The simulator calls a policy once per time step with a snapshot of the
//! cores' states and expects back a bus-share vector.  Policies are *online*:
//! they only see the current state (requirements of the active phases,
//! remaining phase counts), not the future phases — this is the situation a
//! real bus arbiter is in, and it is where the structural insight of the
//! paper (balance the number of remaining jobs) pays off.
//!
//! All quantities are integer **units** on the workload's unit grid: the
//! engine tells the policy the pool `capacity` (the number of units one time
//! step hands out — the grid denominator `D` of the underlying
//! [`MultiStepper`](cr_core::MultiStepper)), and the policy
//! returns one unit share per core.  This is exactly the position of a
//! hardware arbiter distributing integer bandwidth credits, and it makes
//! every split exact: the dividing policies use
//! [`largest_remainder_split`], so shares sum to exactly one pool and no
//! positive demand is ever quantized to zero while units remain.  (The
//! previous `Ratio`-based policies floored shares onto a fixed `1/100 000`
//! grid, which could starve a core with a small positive demand.)

use cr_core::scaled::largest_remainder_split;

/// Snapshot of one core at the start of a time step.  All resource
/// quantities are units on the simulation's grid (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoreView {
    /// Bandwidth requirement of the active phase in units (`None` if the
    /// core's task is finished).
    pub active_requirement: Option<u64>,
    /// Bus units still usable by the active phase this step, capped at one
    /// step's worth (`requirement · min(remaining length, 1)` in units).
    pub step_demand: u64,
    /// Total bus units still needed to finish the active phase.
    pub remaining_workload: u64,
    /// Number of unfinished phases of the task (including the active one).
    pub remaining_phases: usize,
}

impl CoreView {
    /// Whether the core still has work.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active_requirement.is_some()
    }
}

/// Snapshot of one core at the start of a multi-resource time step: the
/// `k`-resource twin of [`CoreView`], with one unit quantity per resource
/// layer.  Each resource lives on its own grid, so the entries of one
/// vector are **not** comparable across resources — only against that
/// resource's capacity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MultiCoreView {
    /// Per-resource requirement caps of the active phase in units (`None`
    /// if the core's task is finished).
    pub active_requirement: Option<Vec<u64>>,
    /// Per-resource units still usable by the active phase this step.
    pub step_demand: Vec<u64>,
    /// Per-resource units still needed to finish the active phase.
    pub remaining_workload: Vec<u64>,
    /// Number of unfinished phases of the task (including the active one).
    pub remaining_phases: usize,
}

impl MultiCoreView {
    /// Whether the core still has work.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active_requirement.is_some()
    }

    /// Number of resource layers in this view.
    #[must_use]
    pub fn resources(&self) -> usize {
        self.step_demand.len()
    }

    /// A finished/invisible core over `resources` layers (used by arrival
    /// gating and tests).
    #[must_use]
    pub fn idle(resources: usize) -> Self {
        MultiCoreView {
            active_requirement: None,
            step_demand: vec![0; resources],
            remaining_workload: vec![0; resources],
            remaining_phases: 0,
        }
    }

    /// Projects the view onto one resource layer, producing the scalar view
    /// a single-resource policy understands.
    #[must_use]
    pub fn project(&self, resource: usize) -> CoreView {
        CoreView {
            active_requirement: self.active_requirement.as_ref().map(|reqs| reqs[resource]),
            step_demand: self.step_demand[resource],
            remaining_workload: self.remaining_workload[resource],
            remaining_phases: self.remaining_phases,
        }
    }
}

/// An online bus-arbitration policy.
pub trait OnlinePolicy {
    /// Stable policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides the bus shares for this step, in units.  The returned vector
    /// must have one entry per core, entries in `[0, capacity]`, and sum to
    /// at most `capacity`; the engine validates this.
    fn allocate(&mut self, capacity: u64, cores: &[CoreView]) -> Vec<u64>;

    /// Decides the shares of every resource for this step:
    /// `result[i][r]` is core `i`'s share of resource `r`, in that
    /// resource's units.  Each row must have one entry per resource, every
    /// entry in `[0, capacities[r]]`, and each resource's column sum at most
    /// `capacities[r]`.
    ///
    /// The default implementation arbitrates every resource independently
    /// with the scalar [`allocate`](Self::allocate) rule on the
    /// [projected](MultiCoreView::project) views — the natural lift of each
    /// built-in policy, and exactly the scalar behavior when `k == 1`.
    /// Stateful policies whose `allocate` advances per *step* (not per
    /// layer) must override this to advance once.
    fn allocate_multi(&mut self, capacities: &[u64], cores: &[MultiCoreView]) -> Vec<Vec<u64>> {
        let mut shares: Vec<Vec<u64>> = cores
            .iter()
            .map(|_| Vec::with_capacity(capacities.len()))
            .collect();
        for (r, &cap) in capacities.iter().enumerate() {
            let layer: Vec<CoreView> = cores.iter().map(|c| c.project(r)).collect();
            for (row, share) in shares.iter_mut().zip(self.allocate(cap, &layer)) {
                row.push(share);
            }
        }
        shares
    }
}

fn serve_in_priority_order(capacity: u64, cores: &[CoreView], order: Vec<usize>) -> Vec<u64> {
    let mut shares = vec![0u64; cores.len()];
    let mut left = capacity;
    for i in order {
        if left == 0 {
            break;
        }
        let give = cores[i].step_demand.min(left);
        shares[i] = give;
        left -= give;
    }
    shares
}

/// Serve the cores with the most remaining phases first (ties: larger
/// remaining requirement) — the online version of the paper's GreedyBalance.
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyBalancePolicy;

/// Serve phase `j` on every core before any core moves on to phase `j + 1` —
/// the online version of the paper's RoundRobin.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobinPolicy;

/// Give every active core the same share regardless of need.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualSharePolicy;

/// Split the bus proportionally to the active phases' demands.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProportionalSharePolicy;

impl OnlinePolicy for GreedyBalancePolicy {
    fn name(&self) -> &'static str {
        "GreedyBalance"
    }

    fn allocate(&mut self, capacity: u64, cores: &[CoreView]) -> Vec<u64> {
        let mut order: Vec<usize> = (0..cores.len()).filter(|&i| cores[i].is_active()).collect();
        order.sort_by(|&a, &b| {
            cores[b]
                .remaining_phases
                .cmp(&cores[a].remaining_phases)
                .then_with(|| {
                    cores[b]
                        .remaining_workload
                        .cmp(&cores[a].remaining_workload)
                })
                .then_with(|| a.cmp(&b))
        });
        serve_in_priority_order(capacity, cores, order)
    }
}

impl OnlinePolicy for RoundRobinPolicy {
    fn name(&self) -> &'static str {
        "RoundRobin"
    }

    fn allocate(&mut self, capacity: u64, cores: &[CoreView]) -> Vec<u64> {
        // The current phase index of a core is (total phases) − (remaining);
        // serving only the cores with the *minimal* phase index reproduces
        // the offline algorithm's phase barriers without knowing the future.
        // Because all tasks of one workload have the same phase count in the
        // harness, the minimal completed-phase count identifies the barrier;
        // for heterogeneous phase counts the policy degrades gracefully to a
        // fewest-phases-completed-first rule.
        let active: Vec<usize> = (0..cores.len()).filter(|&i| cores[i].is_active()).collect();
        if active.is_empty() {
            return vec![0; cores.len()];
        }
        let max_remaining = active
            .iter()
            .map(|&i| cores[i].remaining_phases)
            .max()
            .unwrap_or(0);
        let participants: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| cores[i].remaining_phases == max_remaining)
            .collect();
        serve_in_priority_order(capacity, cores, participants)
    }
}

impl OnlinePolicy for EqualSharePolicy {
    fn name(&self) -> &'static str {
        "EqualShare"
    }

    fn allocate(&mut self, capacity: u64, cores: &[CoreView]) -> Vec<u64> {
        // Exact uniform split of the whole pool over the active cores; the
        // pool remainder goes to the lowest-indexed actives, one unit each.
        let weights: Vec<u64> = cores.iter().map(|c| u64::from(c.is_active())).collect();
        largest_remainder_split(capacity, &weights)
    }
}

impl OnlinePolicy for ProportionalSharePolicy {
    fn name(&self) -> &'static str {
        "ProportionalShare"
    }

    fn allocate(&mut self, capacity: u64, cores: &[CoreView]) -> Vec<u64> {
        let demands: Vec<u64> = cores.iter().map(|c| c.step_demand).collect();
        let total: u128 = demands.iter().map(|&d| u128::from(d)).sum();
        if total <= u128::from(capacity) {
            // Everything fits (including the all-zero case): grant demands
            // exactly.
            demands
        } else {
            largest_remainder_split(capacity, &demands)
        }
    }
}

/// The full set of built-in policies, boxed for sweeps.
#[must_use]
pub fn standard_policies() -> Vec<Box<dyn OnlinePolicy>> {
    vec![
        Box::new(GreedyBalancePolicy),
        Box::new(RoundRobinPolicy),
        Box::new(EqualSharePolicy),
        Box::new(ProportionalSharePolicy),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ten-unit pool stands in for the engine's grid in these tests.
    const POOL: u64 = 10;

    fn view(demand: Option<u64>, remaining: usize) -> CoreView {
        match demand {
            Some(units) => CoreView {
                active_requirement: Some(units),
                step_demand: units,
                remaining_workload: units,
                remaining_phases: remaining,
            },
            None => CoreView {
                active_requirement: None,
                step_demand: 0,
                remaining_workload: 0,
                remaining_phases: 0,
            },
        }
    }

    #[test]
    fn greedy_balance_prefers_longer_chains() {
        let cores = vec![view(Some(5), 1), view(Some(5), 3)];
        let shares = GreedyBalancePolicy.allocate(POOL, &cores);
        assert_eq!(shares, vec![5, 5]);
        // With scarce resource the longer chain wins entirely.
        let cores = vec![view(Some(9), 1), view(Some(9), 3)];
        let shares = GreedyBalancePolicy.allocate(POOL, &cores);
        assert_eq!(shares, vec![1, 9]);
    }

    #[test]
    fn round_robin_serves_only_the_current_phase_barrier() {
        // Core 0 has already finished one phase more than core 1.
        let cores = vec![view(Some(5), 1), view(Some(5), 2)];
        let shares = RoundRobinPolicy.allocate(POOL, &cores);
        assert_eq!(shares[1], 5);
        assert_eq!(shares[0], 0, "cores ahead of the barrier wait");
    }

    #[test]
    fn equal_share_ignores_demand_and_spends_the_pool() {
        let cores = vec![view(Some(1), 1), view(Some(9), 1), view(None, 0)];
        let shares = EqualSharePolicy.allocate(POOL, &cores);
        assert_eq!(shares, vec![5, 5, 0]);
        // Odd splits hand the remainder to the lowest-indexed actives, so
        // the whole pool is always spent.
        let cores = vec![view(Some(1), 1), view(Some(9), 1), view(Some(3), 1)];
        let shares = EqualSharePolicy.allocate(POOL, &cores);
        assert_eq!(shares, vec![4, 3, 3]);
    }

    #[test]
    fn proportional_share_scales_to_capacity() {
        let cores = vec![view(Some(8), 1), view(Some(8), 1)];
        let shares = ProportionalSharePolicy.allocate(POOL, &cores);
        assert_eq!(shares, vec![5, 5]);
        // Under-subscribed: demands are granted exactly.
        let cores = vec![view(Some(3), 1), view(Some(5), 1)];
        let shares = ProportionalSharePolicy.allocate(POOL, &cores);
        assert_eq!(shares, vec![3, 5]);
    }

    #[test]
    fn proportional_share_never_zeroes_a_positive_demand_while_units_remain() {
        // One huge and many tiny demands on a large grid: the old fixed-grid
        // floor gave the tiny cores a zero share; the exact split hands each
        // of them their unit.
        let pool = 1_000_000u64;
        let cores = vec![
            view(Some(pool), 1),
            view(Some(1), 1),
            view(Some(1), 1),
            view(Some(1), 1),
        ];
        let shares = ProportionalSharePolicy.allocate(pool, &cores);
        assert_eq!(shares[1], 1);
        assert_eq!(shares[2], 1);
        assert_eq!(shares[3], 1);
        assert_eq!(shares.iter().sum::<u64>(), pool);
    }

    fn multi_view(demands: &[u64], remaining: usize) -> MultiCoreView {
        MultiCoreView {
            active_requirement: Some(demands.to_vec()),
            step_demand: demands.to_vec(),
            remaining_workload: demands.to_vec(),
            remaining_phases: remaining,
        }
    }

    #[test]
    fn the_default_multi_lift_arbitrates_every_layer_independently() {
        // Two resources with different capacities; the scalar rule applied
        // per projected layer must reproduce itself column by column.
        let caps = [10u64, 4];
        let cores = vec![
            multi_view(&[5, 4], 1),
            multi_view(&[9, 1], 3),
            MultiCoreView::idle(2),
        ];
        for mut policy in standard_policies() {
            let shares = policy.allocate_multi(&caps, &cores);
            assert_eq!(shares.len(), cores.len());
            for (r, &cap) in caps.iter().enumerate() {
                let layer: Vec<CoreView> = cores.iter().map(|c| c.project(r)).collect();
                let scalar = policy.allocate(cap, &layer);
                let column: Vec<u64> = shares.iter().map(|row| row[r]).collect();
                assert_eq!(column, scalar, "{} resource {r}", policy.name());
                assert!(column.iter().sum::<u64>() <= cap);
            }
            // The idle core receives nothing on any layer.
            assert_eq!(shares[2], vec![0, 0]);
        }
    }

    #[test]
    fn projection_reproduces_the_scalar_view() {
        let multi = multi_view(&[7, 2], 4);
        assert_eq!(multi.resources(), 2);
        assert_eq!(
            multi.project(1),
            CoreView {
                active_requirement: Some(2),
                step_demand: 2,
                remaining_workload: 2,
                remaining_phases: 4,
            }
        );
        assert!(!MultiCoreView::idle(3).is_active());
        assert!(!MultiCoreView::idle(3).project(0).is_active());
    }

    #[test]
    fn all_policies_return_feasible_vectors() {
        let cores = vec![
            view(Some(9), 4),
            view(Some(7), 2),
            view(Some(2), 6),
            view(None, 0),
        ];
        for mut policy in standard_policies() {
            let shares = policy.allocate(POOL, &cores);
            assert_eq!(shares.len(), cores.len());
            assert!(
                shares.iter().sum::<u64>() <= POOL,
                "{} overuses the bus",
                policy.name()
            );
            assert!(shares.iter().all(|&s| s <= POOL));
        }
    }
}
