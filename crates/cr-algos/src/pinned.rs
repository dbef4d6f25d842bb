//! Answers pinned across changes to the OPT(m) search internals.
//!
//! The configuration search keeps the survivors of its Lemma 4 filter in a
//! fixed emission order, and that order decides which optimal schedule is
//! replayed and how many configurations a search expands.  These tests
//! digest the answers of a few hundred small random searches, so a change
//! to the filter or to the emission order that moves any survivor set,
//! round size, schedule or expansion count fails here.  The digests were
//! recorded from the sorted-order filter, before it was regrouped by hash;
//! the brute-force digest from the `Ratio` search that preceded the generic
//! one, the single-resource digest from the scalar `u64` engine the generic
//! search absorbed, and the two-resource digest from the per-layer step
//! class.  Each pin also runs the `u128` grid; on one resource it must
//! reproduce what the retired `Ratio` view recorded.  The heuristic pin
//! digests every polynomial rule's single-resource schedule and its
//! two-resource makespan; it was recorded from the scalar `u64` schedulers
//! and the `u64` multi-resource runners, before the rules became one
//! implementation on the stepper.

use crate::multi_engine::{brute_force_cancellable, run_search, search_cancellable, MultiView};
use crate::solver::{registry, SolveRequest, POLY_METHODS};
use crate::{
    EqualShare, GreedyBalance, LargestRequirementFirst, ProportionalShare, RoundRobin, Scheduler,
    SmallestRequirementFirst,
};
use cr_core::{CancelToken, Instance, InstanceBuilder, Job, Ratio, ScaledInstance};

/// SplitMix64: a fixed, dependency-free generator for the pinned inputs
/// (and the certificate's population test in `solver`).
pub(crate) struct SplitMix(pub(crate) u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A draw from `0..bound`.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        self.next() % bound
    }

    /// A requirement in percent: zero with probability `zeros`/10, else
    /// `1..=100`.
    fn percent(&mut self, zeros: u64) -> u64 {
        if self.below(10) < zeros {
            0
        } else {
            1 + self.below(100)
        }
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

fn percents(row: &[u64]) -> Vec<Ratio> {
    row.iter().map(|&p| Ratio::from_parts(p, 100)).collect()
}

/// 200 single-resource instances: 1–5 processors, chains of 0–4 jobs, ~30%
/// zero-requirement jobs, so empty processors and free jobs are common.
/// Instances of more than 12 jobs are redrawn, which keeps the brute force
/// cheap in debug builds.
fn single_resource_instances() -> Vec<Instance> {
    let mut rng = SplitMix(0x5eed_0016);
    let mut instances = Vec::with_capacity(200);
    while instances.len() < 200 {
        let m = 1 + rng.below(5);
        let rows: Vec<Vec<Ratio>> = (0..m)
            .map(|_| {
                let n = rng.below(5);
                let row: Vec<u64> = (0..n).map(|_| rng.percent(3)).collect();
                percents(&row)
            })
            .collect();
        if rows.iter().map(Vec::len).sum::<usize>() <= 12 {
            instances.push(Instance::unit_from_requirements(rows));
        }
    }
    instances
}

/// 200 two-resource instances: 3 processors with 3 jobs each, ~10%
/// zero-requirement entries per layer.
fn two_resource_instances() -> Vec<Instance> {
    let mut rng = SplitMix(0x5eed_0002);
    let mut layer = || -> Vec<Vec<Ratio>> {
        (0..3)
            .map(|_| {
                let row: Vec<u64> = (0..3).map(|_| rng.percent(1)).collect();
                percents(&row)
            })
            .collect()
    };
    (0..200)
        .map(|_| {
            let base = layer();
            let extra = layer();
            base.into_iter()
                .fold(InstanceBuilder::new(), InstanceBuilder::processor)
                .extra_layer(extra)
                .build()
        })
        .collect()
}

/// The `u128` grid of `instance`.
///
/// # Panics
///
/// Panics if the grid overflows `u128`; no percent grid does.
fn wide(instance: &Instance) -> ScaledInstance<u128> {
    ScaledInstance::try_on_grid(instance).expect("percent grids scale")
}

/// The `u64` search's makespans, per-round survivor counts and replayed
/// schedules on [`single_resource_instances`]; the `u128` search replays
/// the same schedules.
#[test]
fn single_resource_searches_are_unchanged() {
    let mut digest = Digest::new();
    let mut makespans = 0;
    for instance in single_resource_instances() {
        let scaled = ScaledInstance::try_new(&instance).expect("percent grids scale");
        let units = MultiView::base_scaled(&scaled);
        let search = run_search(&units).expect("small searches fit");
        let makespan = search.makespan();
        makespans += makespan;
        digest.word(makespan as u64);
        for size in search.round_sizes() {
            digest.word(size as u64);
        }
        let schedule = search.schedule(&units);
        for step in schedule.steps() {
            for share in step {
                digest.text(&share.to_string());
            }
        }
        let wide = MultiView::base_scaled(&wide(&instance));
        let wide_search = run_search(&wide).expect("small searches fit");
        assert_eq!(wide_search.schedule(&wide), schedule, "{instance}");
    }
    assert_eq!(makespans, 642);
    assert_eq!(digest.0, 0xdb0d_1425_4def_89fe);
}

/// The multi-resource search's makespans and expansion counts on
/// [`two_resource_instances`], on the `u64` and the `u128` grids.  Recorded
/// from the per-layer step class once the `window_oracle` tests held it
/// equal to the oracle at `k = 2`.
#[test]
fn two_resource_searches_are_unchanged() {
    let never = CancelToken::never();
    let mut digest = Digest::new();
    let mut makespans = 0;
    for instance in two_resource_instances() {
        let scaled = ScaledInstance::try_new(&instance).expect("percent grids scale");
        let units = search_cancellable(&MultiView::from_scaled(&scaled), None, &never);
        let wide = search_cancellable(&MultiView::from_scaled(&wide(&instance)), None, &never);
        for search in [units, wide] {
            let search = search.expect("never token").expect("uncapped");
            makespans += search.makespan;
            digest.word(search.makespan as u64);
            digest.word(search.expanded as u64);
        }
    }
    assert_eq!(makespans, 2128);
    assert_eq!(digest.0, 0x9f29_40c1_d667_1735);
}

/// The brute force's makespans, memoized states and expansions (reported
/// on the wire as `rounds`) on [`single_resource_instances`], on the
/// `u128` grid; recorded from the `Ratio` view.
#[test]
fn single_resource_wide_brute_force_is_unchanged() {
    let never = CancelToken::never();
    let mut digest = Digest::new();
    let mut makespans = 0;
    for instance in single_resource_instances() {
        let view = MultiView::base_scaled(&wide(&instance));
        let (makespan, states, expansions) = brute_force_cancellable(&view, &never).unwrap();
        makespans += makespan;
        digest.word(makespan as u64);
        digest.word(states as u64);
        digest.word(expansions as u64);
    }
    assert_eq!(makespans, 642);
    assert_eq!(digest.0, 0xdea5_f807_a6ea_019d);
}

/// On one resource the `u64` and `u128` searches keep as many survivors
/// per round: the two enumerate the same successor sets.
#[test]
fn both_units_keep_the_same_round_sizes() {
    for instance in single_resource_instances() {
        let scaled = ScaledInstance::try_new(&instance).expect("percent grids scale");
        let units = run_search(&MultiView::base_scaled(&scaled)).expect("small searches fit");
        let wide =
            run_search(&MultiView::base_scaled(&wide(&instance))).expect("small searches fit");
        assert_eq!(units.round_sizes(), wide.round_sizes(), "{instance}");
    }
}

/// 300 heuristic inputs, each a single-resource instance and the same jobs
/// with a second layer: 1–5 processors, chains of 0–4 jobs, ~10%
/// zero-requirement entries per layer, and half the jobs sized to a
/// half-step volume of 1/2 to 5/2.
///
/// # Panics
///
/// Never: every drawn requirement lies in `[0, 1]` and every volume is
/// positive.
fn heuristic_instances() -> Vec<(Instance, Instance)> {
    let mut rng = SplitMix(0x5eed_0024);
    (0..300)
        .map(|_| {
            let m = 1 + rng.below(5);
            let mut jobs = Vec::new();
            let mut extra = Vec::new();
            for _ in 0..m {
                let n = rng.below(5);
                let mut row = Vec::new();
                let mut layer = Vec::new();
                for _ in 0..n {
                    let requirement = Ratio::from_parts(rng.percent(1), 100);
                    let volume = if rng.below(2) == 0 {
                        Ratio::ONE
                    } else {
                        Ratio::from_parts(1 + rng.below(5), 2)
                    };
                    row.push(Job::new(requirement, volume));
                    layer.push(Ratio::from_parts(rng.percent(1), 100));
                }
                jobs.push(row);
                extra.push(layer);
            }
            let single = Instance::new(jobs.clone()).expect("valid jobs");
            let multi = Instance::with_resources(jobs, vec![extra]).expect("valid layer");
            (single, multi)
        })
        .collect()
}

/// Every heuristic's single-resource schedule from [`Scheduler::schedule`]
/// and its two-resource makespan on the default engine preference, on
/// [`heuristic_instances`].
#[test]
fn heuristic_answers_are_unchanged() {
    let rules: [&dyn Scheduler; 6] = [
        &GreedyBalance,
        &RoundRobin,
        &EqualShare,
        &ProportionalShare,
        &LargestRequirementFirst,
        &SmallestRequirementFirst,
    ];
    let reg = registry();
    let mut digest = Digest::new();
    let mut makespans = 0;
    for (single, multi) in heuristic_instances() {
        for rule in rules {
            let schedule = rule.schedule(&single);
            digest.word(schedule.num_steps() as u64);
            for step in schedule.steps() {
                for share in step {
                    digest.text(&share.to_string());
                }
            }
        }
        for method in POLY_METHODS {
            let makespan = reg
                .solve(&SolveRequest::new(method, multi.clone()))
                .unwrap_or_else(|err| panic!("{method}: {err}"))
                .makespan
                .expect("heuristics report a makespan");
            makespans += makespan;
            digest.word(makespan as u64);
        }
    }
    assert_eq!(makespans, 10954);
    assert_eq!(digest.0, 0x3aa7_f241_9861_2bb8);
}
