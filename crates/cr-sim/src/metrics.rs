//! Simulation metrics.

use serde::{Deserialize, Serialize};

/// Per-core outcome of a simulation run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoreReport {
    /// Task / core name.
    pub name: String,
    /// Step (1-based count) in which the core's task finished; `0` when the
    /// task was already empty before the first step.
    pub completion_time: usize,
    /// Completion time the task would have achieved with the bus to itself.
    pub ideal_completion_time: usize,
    /// Number of steps in which the core was active but received no bus share.
    pub starved_steps: usize,
}

impl CoreReport {
    /// Slowdown relative to running alone at full bandwidth.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        if self.ideal_completion_time == 0 {
            return 1.0;
        }
        self.completion_time as f64 / self.ideal_completion_time as f64
    }
}

/// Aggregate outcome of a simulation run over `k ≥ 1` resource layers.
///
/// Consumption and waste are reported **exactly**, as integer units on each
/// layer's grid: resource `r` hands out `capacities[r]` units per step,
/// `consumed_units[r]` of the `capacities[r] · makespan` total were usefully
/// absorbed, and `wasted_units_per_step[r]` is that layer's exact per-step
/// series of units no core could use (the raw data behind the utilization
/// figures).  The float `utilization` is derived from these integers once,
/// at the end of the run.  Units of different layers live on different
/// grids and must not be summed across layers.  Every per-layer vector has
/// the base layer first, so a one-bus run has one entry in each.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimReport {
    /// Policy that produced the run.
    pub policy: String,
    /// Number of cores.
    pub cores: usize,
    /// Makespan: the step count after which every task is finished.
    pub makespan: usize,
    /// Units each resource hands out per step (that layer's unit-grid
    /// denominator), one entry per resource.
    pub capacities: Vec<u64>,
    /// Exact units usefully consumed over the whole run, per resource.
    pub consumed_units: Vec<u64>,
    /// Exact units wasted in each step, resource-major: entry `r` is a
    /// series of `makespan` values, each `capacities[r]` minus the useful
    /// consumption on resource `r` in that step.
    pub wasted_units_per_step: Vec<Vec<u64>>,
    /// Average fraction of each resource that was usefully consumed per
    /// step (up to the makespan); derived from the exact unit counts.
    pub utilization: Vec<f64>,
    /// Lower bound on the optimal makespan (total demand on every layer and
    /// longest task), for normalized comparisons.
    pub lower_bound: usize,
    /// Per-core details.
    pub per_core: Vec<CoreReport>,
}

impl SimReport {
    /// Number of shared resources `k`.
    #[must_use]
    pub fn resources(&self) -> usize {
        self.capacities.len()
    }

    /// Total units wasted on `resource` over the whole run (exact).
    #[must_use]
    pub fn wasted_units_total(&self, resource: usize) -> u64 {
        self.wasted_units_per_step[resource].iter().sum()
    }

    /// Fraction of `resource` wasted in `step`, for plotting the waste
    /// series.
    #[must_use]
    pub fn wasted_fraction(&self, resource: usize, step: usize) -> f64 {
        let capacity = self.capacities[resource];
        if capacity == 0 {
            return 0.0;
        }
        self.wasted_units_per_step[resource][step] as f64 / capacity as f64
    }

    /// The most-utilized resource — the binding layer of the run.  Ties go
    /// to the lowest index; an empty run reports resource 0.
    #[must_use]
    pub fn bottleneck_resource(&self) -> usize {
        self.utilization
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.total_cmp(b))
            .map_or(0, |(r, _)| r)
    }

    /// Makespan normalized by the lower bound.
    #[must_use]
    pub fn normalized_makespan(&self) -> f64 {
        if self.lower_bound == 0 {
            return 1.0;
        }
        self.makespan as f64 / self.lower_bound as f64
    }

    /// Mean slowdown over all cores.
    #[must_use]
    pub fn average_slowdown(&self) -> f64 {
        if self.per_core.is_empty() {
            return 1.0;
        }
        self.per_core.iter().map(CoreReport::slowdown).sum::<f64>() / self.per_core.len() as f64
    }

    /// Maximum slowdown over all cores (tail latency of the workload).
    #[must_use]
    pub fn max_slowdown(&self) -> f64 {
        self.per_core
            .iter()
            .map(CoreReport::slowdown)
            .fold(1.0_f64, f64::max)
    }

    /// One-line summary for experiment logs; the utilizations are listed
    /// per resource, base layer first.
    #[must_use]
    pub fn summary(&self) -> String {
        let utilization: Vec<String> = self
            .utilization
            .iter()
            .map(|u| format!("{:.1}%", u * 100.0))
            .collect();
        format!(
            "{:<18} makespan {:>5}  (lower bound {:>5}, ratio {:.3})  bus {:>6}  avg slowdown {:.2}  max slowdown {:.2}",
            self.policy,
            self.makespan,
            self.lower_bound,
            self.normalized_makespan(),
            utilization.join("/"),
            self.average_slowdown(),
            self.max_slowdown(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            policy: "GreedyBalance".into(),
            cores: 2,
            makespan: 10,
            capacities: vec![10],
            consumed_units: vec![80],
            wasted_units_per_step: vec![vec![2; 10]],
            utilization: vec![0.8],
            lower_bound: 8,
            per_core: vec![
                CoreReport {
                    name: "core0".into(),
                    completion_time: 10,
                    ideal_completion_time: 5,
                    starved_steps: 2,
                },
                CoreReport {
                    name: "core1".into(),
                    completion_time: 8,
                    ideal_completion_time: 8,
                    starved_steps: 0,
                },
            ],
        }
    }

    #[test]
    fn slowdowns() {
        let r = report();
        assert!((r.per_core[0].slowdown() - 2.0).abs() < 1e-12);
        assert!((r.per_core[1].slowdown() - 1.0).abs() < 1e-12);
        assert!((r.average_slowdown() - 1.5).abs() < 1e-12);
        assert!((r.max_slowdown() - 2.0).abs() < 1e-12);
        assert!((r.normalized_makespan() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn summary_contains_key_numbers() {
        let s = report().summary();
        assert!(s.contains("GreedyBalance"));
        assert!(s.contains("10"));
        assert!(s.contains("1.25"));
        assert!(s.contains("bus  80.0%  avg"));
    }

    #[test]
    fn degenerate_reports_do_not_divide_by_zero() {
        let r = SimReport {
            policy: "x".into(),
            cores: 0,
            makespan: 0,
            capacities: vec![0],
            consumed_units: vec![0],
            wasted_units_per_step: vec![vec![]],
            utilization: vec![0.0],
            lower_bound: 0,
            per_core: vec![],
        };
        assert_eq!(r.normalized_makespan(), 1.0);
        assert_eq!(r.average_slowdown(), 1.0);
        assert_eq!(r.max_slowdown(), 1.0);
        assert_eq!(r.wasted_units_total(0), 0);
        assert_eq!(r.bottleneck_resource(), 0);
    }

    #[test]
    fn exact_waste_accounting() {
        let r = report();
        assert_eq!(r.resources(), 1);
        assert_eq!(r.wasted_units_total(0), 20);
        assert!((r.wasted_fraction(0, 0) - 0.2).abs() < 1e-12);
        // consumed + wasted == capacity · makespan, exactly.
        assert_eq!(
            r.consumed_units[0] + r.wasted_units_total(0),
            r.capacities[0] * r.makespan as u64
        );
    }

    #[test]
    fn serde_roundtrip() {
        let r = report();
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }

    fn multi_report() -> SimReport {
        SimReport {
            makespan: 4,
            capacities: vec![10, 4],
            consumed_units: vec![30, 16],
            wasted_units_per_step: vec![vec![2, 2, 3, 3], vec![0, 0, 0, 0]],
            utilization: vec![0.75, 1.0],
            ..report()
        }
    }

    #[test]
    fn multi_report_accounting_and_bottleneck() {
        let r = multi_report();
        assert_eq!(r.resources(), 2);
        assert_eq!(r.wasted_units_total(0), 10);
        assert_eq!(r.wasted_units_total(1), 0);
        assert!((r.wasted_fraction(0, 3) - 0.3).abs() < 1e-12);
        // consumed + wasted == capacity · makespan on every layer.
        for res in 0..r.resources() {
            assert_eq!(
                r.consumed_units[res] + r.wasted_units_total(res),
                r.capacities[res] * r.makespan as u64
            );
        }
        assert_eq!(r.bottleneck_resource(), 1);
        assert!((r.average_slowdown() - 1.5).abs() < 1e-12);
        assert!(r.summary().contains("bus 75.0%/100.0%  avg"));
    }

    #[test]
    fn multi_serde_roundtrip() {
        let r = multi_report();
        let json = serde_json::to_string(&r).unwrap();
        let back: SimReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
