//! Exports the simulator's exact waste accounting into the process-wide
//! observability registry.
//!
//! The step loop already computes `wasted_units_per_step` and per-core
//! starvation exactly (integer units, no estimation); this module folds a
//! finished report into the registry once per run — windowed utilization
//! lands in a parts-per-million histogram (one window series per resource
//! layer), starvation and the bottleneck resource in gauges, raw unit
//! totals in counters.  Everything stays integer-only, matching the cr-obs
//! recording contract.

use cr_obs::{names, Registry};

use crate::metrics::SimReport;

/// Steps per utilization window: each window of this many simulated steps
/// contributes one observation to the `sim.window_utilization_ppm`
/// histogram (the final partial window is scaled by its actual length, so
/// short runs still report).
pub const UTILIZATION_WINDOW: usize = 32;

/// Parts-per-million denominator.
const PPM: u64 = 1_000_000;

/// Decile boundaries for the utilization histogram (ppm).
const UTILIZATION_BOUNDS: [u64; 10] = [
    100_000, 200_000, 300_000, 400_000, 500_000, 600_000, 700_000, 800_000, 900_000, 1_000_000,
];

/// Widens a `usize` without a panic path.
fn wide(n: usize) -> u64 {
    u64::try_from(n).unwrap_or(u64::MAX)
}

/// Observes one resource layer's waste series as windowed utilization.
fn observe_windows(registry: &Registry, capacity: u64, wasted_per_step: &[u64]) {
    if capacity == 0 {
        return;
    }
    let hist = registry.histogram(names::SIM_WINDOW_UTILIZATION_PPM, &UTILIZATION_BOUNDS);
    for window in wasted_per_step.chunks(UTILIZATION_WINDOW) {
        let pool = capacity.saturating_mul(wide(window.len()));
        let wasted: u64 = window.iter().fold(0u64, |acc, &w| acc.saturating_add(w));
        let useful = pool.saturating_sub(wasted);
        hist.observe(useful.saturating_mul(PPM) / pool.max(1));
    }
}

/// Folds one run into the global registry.
pub(crate) fn record_report(report: &SimReport) {
    let registry = Registry::global();
    if !registry.enabled() {
        return;
    }
    registry
        .counter(names::SIM_STEPS)
        .add(wide(report.makespan));
    let consumed: u64 = report
        .consumed_units
        .iter()
        .fold(0u64, |acc, &c| acc.saturating_add(c));
    registry.counter(names::SIM_CONSUMED_UNITS).add(consumed);
    let wasted: u64 = report
        .wasted_units_per_step
        .iter()
        .flatten()
        .fold(0u64, |acc, &w| acc.saturating_add(w));
    registry.counter(names::SIM_WASTED_UNITS).add(wasted);
    for (&capacity, series) in report.capacities.iter().zip(&report.wasted_units_per_step) {
        observe_windows(registry, capacity, series);
    }
    let starved = report
        .per_core
        .iter()
        .filter(|core| core.starved_steps > 0)
        .count();
    registry
        .gauge(names::SIM_STARVED_CORES)
        .set(i64::try_from(starved).unwrap_or(i64::MAX));
    registry
        .gauge(names::SIM_BOTTLENECK_RESOURCE)
        .set(i64::try_from(report.bottleneck_resource()).unwrap_or(i64::MAX));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_report_ppm_utilization() {
        let reg = Registry::new();
        // capacity 10, 3 steps wasting 0/5/10 → one partial window,
        // pool 30, wasted 15 → 500_000 ppm.
        observe_windows(&reg, 10, &[0, 5, 10]);
        let snap = reg.snapshot();
        let m = snap
            .metrics
            .iter()
            .find(|m| m.name == names::SIM_WINDOW_UTILIZATION_PPM);
        if reg.enabled() {
            let Some(m) = m else {
                panic!("histogram missing")
            };
            let cr_obs::MetricValue::Histogram(h) = &m.value else {
                panic!("wrong kind")
            };
            assert_eq!(h.count, 1);
            assert_eq!(h.sum, 500_000);
        }
    }
}
