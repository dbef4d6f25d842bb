//! Simulator answers pinned across changes to the step loop.
//!
//! Every report field the simulator computes — makespan, per-layer
//! capacity, consumption, waste series and utilization bits, per-core
//! completion, ideal and starved steps, and at `k = 1` the lower bound and
//! the schedule — is digested over 200 seeded instances for the four
//! standard policies, together with the `full_registry` answers of the
//! four `sim:*` keys with and without arrivals and a schedule request.  A
//! change to the step loop that moves any of these fails here.  The digests
//! were recorded from the scalar base-resource run (`k = 1`) and the
//! k-layer run (`k ≥ 2`) before the two became one loop, and the one loop
//! reproduces them.

use cr_algos::solver::{SolveOutcome, SolveRequest};
use cr_core::{Instance, InstanceBuilder, Job, Ratio};
use cr_sim::{full_registry, standard_policies, SimReport, Simulator, ONLINE_METHODS};

/// SplitMix64: a fixed, dependency-free generator for the pinned inputs.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..bound`.
    fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A requirement in percent: zero with probability 1/5, else `1..=100`.
    fn percent(&mut self) -> Ratio {
        let p = if self.below(5) == 0 {
            0
        } else {
            1 + self.below(100)
        };
        Ratio::from_parts(p, 100)
    }
}

/// FNV-1a over 64-bit words: a digest that depends on no hasher crate.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        for byte in text.bytes() {
            self.word(u64::from(byte));
        }
    }
}

/// 200 instances: `k = 1, 2, 3` in turn, 2–6 cores, chains of 0–4 phases
/// (so some cores are empty), 1 in 5 requirements zero on every layer,
/// and every other instance with sized phases (volumes `1/2` to `3`).
fn instances() -> Vec<Instance> {
    let mut rng = SplitMix(0x5eed_0027);
    (0..200)
        .map(|n| {
            let k = 1 + n % 3;
            let sized = n % 2 == 1;
            let m = 2 + rng.below(5) as usize;
            let mut builder = InstanceBuilder::new();
            let mut lengths = Vec::with_capacity(m);
            for _ in 0..m {
                let len = rng.below(5) as usize;
                lengths.push(len);
                let jobs: Vec<Job> = (0..len)
                    .map(|_| {
                        let volume = if sized {
                            Ratio::from_parts(1 + rng.below(6), 2)
                        } else {
                            Ratio::ONE
                        };
                        Job::new(rng.percent(), volume)
                    })
                    .collect();
                builder = builder.processor_jobs(jobs);
            }
            for _ in 1..k {
                let layer: Vec<Vec<Ratio>> = lengths
                    .iter()
                    .map(|&len| (0..len).map(|_| rng.percent()).collect())
                    .collect();
                builder = builder.extra_layer(layer);
            }
            builder.build()
        })
        .collect()
}

/// One run's report, resource-major.
fn digest_report(digest: &mut Digest, report: &SimReport) {
    digest.word(report.makespan as u64);
    digest.word(report.capacities.len() as u64);
    for r in 0..report.capacities.len() {
        digest.word(report.capacities[r]);
        digest.word(report.consumed_units[r]);
        digest.word(report.wasted_units_per_step[r].len() as u64);
        for &wasted in &report.wasted_units_per_step[r] {
            digest.word(wasted);
        }
        digest.word(report.utilization[r].to_bits());
    }
    for core in &report.per_core {
        digest.word(core.completion_time as u64);
        digest.word(core.ideal_completion_time as u64);
        digest.word(core.starved_steps as u64);
    }
}

fn digest_schedule(digest: &mut Digest, schedule: &cr_core::Schedule) {
    digest.word(schedule.num_steps() as u64);
    for step in schedule.steps() {
        for share in step {
            digest.text(&share.to_string());
        }
    }
}

/// Every standard policy's report on every instance; at `k = 1` also the
/// lower bound and the schedule.
#[test]
fn simulator_reports_are_unchanged() {
    let mut digest = Digest::new();
    let mut makespans = 0;
    for instance in instances() {
        let sim = Simulator::from_instance(&instance);
        for mut policy in standard_policies() {
            let outcome = sim.run(policy.as_mut()).expect("percent grids simulate");
            let report = &outcome.report;
            makespans += report.makespan;
            digest_report(&mut digest, report);
            if instance.resources() == 1 {
                digest.word(report.lower_bound as u64);
                let schedule = outcome
                    .schedule
                    .as_ref()
                    .expect("k = 1 runs log a schedule");
                digest_schedule(&mut digest, schedule);
            }
        }
    }
    assert_eq!(makespans, 6051);
    assert_eq!(digest.0, 0x01f7_9010_536b_092c);
}

fn digest_outcome(digest: &mut Digest, outcome: &Result<SolveOutcome, cr_algos::SolveError>) {
    match outcome {
        Ok(outcome) => {
            digest.text(&outcome.method);
            digest.text(outcome.engine.as_str());
            digest.word(outcome.fallbacks.len() as u64);
            for fallback in &outcome.fallbacks {
                digest.text(fallback);
            }
            digest.word(outcome.makespan.map_or(u64::MAX, |m| m as u64));
            digest.word(outcome.steps as u64);
            digest.word(outcome.rounds as u64);
            let bounds = &outcome.lower_bounds;
            for bound in [
                bounds.workload,
                bounds.chain,
                bounds.volume_chain,
                bounds.trivial,
            ] {
                digest.word(bound as u64);
            }
            digest.word(bounds.best.map_or(u64::MAX, |b| b as u64));
            match &outcome.schedule {
                Some(schedule) => digest_schedule(digest, schedule),
                None => digest.word(u64::MAX),
            }
        }
        Err(err) => digest.text(err.kind()),
    }
}

/// The `sim:*` registry answers on every instance, with and without
/// arrivals and a schedule request (`resource_mismatch` at `k ≥ 2`).
#[test]
fn registry_answers_are_unchanged() {
    let registry = full_registry();
    let mut rng = SplitMix(0xa771_0027);
    let mut digest = Digest::new();
    let mut makespans = 0;
    for instance in instances() {
        let arrivals: Vec<usize> = (0..instance.processors())
            .map(|_| rng.below(5) as usize)
            .collect();
        for method in ONLINE_METHODS {
            for arrivals in [None, Some(arrivals.clone())] {
                for want_schedule in [false, true] {
                    let mut request = SolveRequest::new(method, instance.clone());
                    request.arrivals = arrivals.clone();
                    request.want_schedule = want_schedule;
                    let outcome = registry.solve(&request);
                    if let Ok(outcome) = &outcome {
                        makespans += outcome.makespan.unwrap_or(0);
                    }
                    digest_outcome(&mut digest, &outcome);
                }
            }
        }
    }
    assert_eq!(makespans, 17_698);
    assert_eq!(digest.0, 0x040f_58c4_0075_2c20);
}
