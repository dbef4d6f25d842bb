//! E10 — the motivating scenario of Section 1 on the synthetic many-core
//! shared-bus simulator: makespan, bus utilization and slowdown of four
//! online arbitration policies across core counts and task mixes.

#![forbid(unsafe_code)]

use cr_instances::{generate_workload, TaskMix, WorkloadConfig};
use cr_sim::{standard_policies, Simulator};

fn main() {
    println!("E10 — many-core shared-bus simulation sweep\n");

    for mix in [
        TaskMix::IoBound,
        TaskMix::Mixed,
        TaskMix::Bursty,
        TaskMix::ComputeBound,
    ] {
        println!("── task mix {mix:?} ──");
        println!(
            "{:>6} {:>20} {:>9} {:>9} {:>8} {:>9} {:>9} {:>10}",
            "cores", "policy", "makespan", "LB", "ratio", "bus util", "avg slow", "peak waste"
        );
        for cores in [4usize, 8, 16, 32, 64] {
            let cfg = WorkloadConfig {
                cores,
                phases_per_task: 8,
                mix,
                denominator: 100,
                unit_phases: true,
            };
            let workload = generate_workload(&cfg, 7_000 + cores as u64);
            let sim = Simulator::from_instance(&workload);
            let mut policies = standard_policies();
            for report in sim.compare(&mut policies).expect("simulation completes") {
                // The exact wasted-share-per-step series drives the waste
                // figures; the peak is the worst single step of any layer.
                let peak_waste = (0..report.resources())
                    .flat_map(|r| (0..report.makespan).map(move |t| (r, t)))
                    .map(|(r, t)| report.wasted_fraction(r, t))
                    .fold(0.0f64, f64::max);
                let utilization: Vec<String> = report
                    .utilization
                    .iter()
                    .map(|u| format!("{:.1}%", u * 100.0))
                    .collect();
                println!(
                    "{:>6} {:>20} {:>9} {:>9} {:>8.3} {:>9} {:>9.2} {:>9.1}%",
                    cores,
                    report.policy,
                    report.makespan,
                    report.lower_bound,
                    report.normalized_makespan(),
                    utilization.join("/"),
                    report.average_slowdown(),
                    peak_waste * 100.0,
                );
            }
        }
        println!();
    }
    println!(
        "paper (Section 1): when bandwidth is the bottleneck the distribution of the shared\n\
         resource decides performance — the balance-aware policy tracks the lower bound, the\n\
         oblivious policies leave bandwidth unused."
    );
}
