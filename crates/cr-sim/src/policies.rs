//! Online bandwidth-arbitration policies.
//!
//! The simulator calls a policy once per time step and resource layer with
//! a snapshot of the cores' states on that layer and expects back a share
//! vector.  Policies are *online*: they only see the current state
//! (requirements of the active phases, remaining phase counts), not the
//! future phases — this is the situation a real bus arbiter is in, and it
//! is where the structural insight of the paper (balance the number of
//! remaining jobs) pays off.  A workload with `k` shared resources is
//! arbitrated layer by layer with the same rule, so the one-bus case is
//! `k = 1` of it.
//!
//! All quantities are integer **units** on the layer's unit grid: the
//! engine tells the policy the pool `capacity` (the number of units one time
//! step hands out — the layer's grid denominator `D` in the underlying
//! [`MultiStepper`](cr_core::MultiStepper)), and the policy
//! returns one unit share per core.  This is exactly the position of a
//! hardware arbiter distributing integer bandwidth credits, and it makes
//! every split exact: the dividing policies use
//! [`largest_remainder_split`], so shares sum to exactly one pool and no
//! positive demand is ever quantized to zero while units remain.  (The
//! previous `Ratio`-based policies floored shares onto a fixed `1/100 000`
//! grid, which could starve a core with a small positive demand.)

use cr_core::scaled::largest_remainder_split;

/// Snapshot of one core on one resource layer at the start of a time step.
/// All resource quantities are units on that layer's grid (see the module
/// docs).
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
    /// A core with nothing to run: a finished one, or one whose task has
    /// not arrived yet.
    pub const IDLE: CoreView = CoreView {
        active_requirement: None,
        step_demand: 0,
        remaining_workload: 0,
        remaining_phases: 0,
    };

    /// Whether the core still has work.
    #[must_use]
    pub fn is_active(&self) -> bool {
        self.active_requirement.is_some()
    }
}

/// An online bus-arbitration policy.
pub trait OnlinePolicy {
    /// Stable policy name for reports.
    fn name(&self) -> &'static str;

    /// Decides one resource layer's shares for this step, in units.  The
    /// returned vector must have one entry per core, entries in
    /// `[0, capacity]`, and sum to at most `capacity`; the engine validates
    /// this.  The engine calls it once per layer and step, base layer
    /// first.
    fn allocate(&mut self, capacity: u64, cores: &[CoreView]) -> Vec<u64>;
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

/// The built-in policies, in line-up order: the order of
/// [`standard_policies`] and of the registry's
/// [`ONLINE_METHODS`](crate::ONLINE_METHODS).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PolicyKind {
    GreedyBalance,
    RoundRobin,
    EqualShare,
    ProportionalShare,
}

impl PolicyKind {
    /// Every built-in policy, in line-up order.
    pub(crate) const ALL: [PolicyKind; 4] = [
        PolicyKind::GreedyBalance,
        PolicyKind::RoundRobin,
        PolicyKind::EqualShare,
        PolicyKind::ProportionalShare,
    ];

    /// A fresh policy instance.
    pub(crate) fn make(self) -> Box<dyn OnlinePolicy> {
        match self {
            PolicyKind::GreedyBalance => Box::new(GreedyBalancePolicy),
            PolicyKind::RoundRobin => Box::new(RoundRobinPolicy),
            PolicyKind::EqualShare => Box::new(EqualSharePolicy),
            PolicyKind::ProportionalShare => Box::new(ProportionalSharePolicy),
        }
    }
}

/// The full set of built-in policies, boxed for sweeps.
#[must_use]
pub fn standard_policies() -> Vec<Box<dyn OnlinePolicy>> {
    PolicyKind::ALL.into_iter().map(PolicyKind::make).collect()
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
            None => CoreView::IDLE,
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
