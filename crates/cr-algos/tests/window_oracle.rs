//! An exact oracle for unit-job makespans that shares no enumeration with
//! the configuration search: completion steps plus Hall's condition.
//!
//! Guess the step in which each job completes.  Job `(i, j)` then runs in
//! the window from one step after its predecessor completes to its own
//! completion step.  A unit job's per-step cap equals its total
//! requirement, so the cap never binds, and the continuous split is a
//! transportation problem with interval windows: it is feasible if and only
//! if, on every layer and for every step interval `[a, b]`, the jobs whose
//! windows lie inside `[a, b]` need at most `(b − a + 1)` capacities.  The
//! optimum is the least `T` for which some vector of completion steps
//! passes.  Layers are independent resources, so the argument holds at
//! every `k` for the decoupled model, where a job may finish one layer
//! before another.
//!
//! The oracle reads the requirements itself, as `Ratio`s scaled onto its
//! own per-layer integer grid, and goes through neither `ScaledInstance`
//! nor the engine: a bug in their shared code cannot hide here.
//!
//! Every exact answer must equal the oracle, at `k = 1` and at `k = 2`.

use cr_algos::solver::{registry, SolveRequest, POLY_METHODS};
use cr_core::{Instance, Ratio};
use proptest::prelude::*;

fn gcd(a: i128, b: i128) -> i128 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

/// One layer on its own integer grid: the capacity and each processor's
/// requirements in units.
struct Layer {
    cap: i128,
    rows: Vec<Vec<i128>>,
}

/// Every layer of `inst`, each scaled by the LCM of its denominators.
fn layers(inst: &Instance) -> Vec<Layer> {
    let m = inst.processors();
    let requirement = |r: usize, i: usize, j: usize| -> Ratio {
        if r == 0 {
            inst.processor_jobs(i)[j].requirement
        } else {
            inst.extra_layers()[r - 1][i][j]
        }
    };
    (0..inst.resources())
        .map(|r| {
            let mut cap = 1i128;
            for i in 0..m {
                for j in 0..inst.jobs_on(i) {
                    let den = requirement(r, i, j).denom();
                    cap = cap / gcd(cap, den) * den;
                }
            }
            let rows = (0..m)
                .map(|i| {
                    (0..inst.jobs_on(i))
                        .map(|j| {
                            let value = requirement(r, i, j);
                            value.numer() * (cap / value.denom())
                        })
                        .collect()
                })
                .collect();
            Layer { cap, rows }
        })
        .collect()
}

/// The completion-step search at one makespan `t`: `sums[r][a][b]` holds
/// what the placed jobs whose windows lie inside `[a, b]` need on layer `r`.
struct Windows<'a> {
    layers: &'a [Layer],
    t: usize,
    sums: Vec<Vec<Vec<i128>>>,
}

impl Windows<'_> {
    /// Adds `sign` times job `(i, j)`'s requirements over the window
    /// `[start, end]`; with `sign` 1, whether every interval still fits.
    fn place(&mut self, i: usize, j: usize, start: usize, end: usize, sign: i128) -> bool {
        let mut fits = true;
        for (layer, sums) in self.layers.iter().zip(&mut self.sums) {
            let need = sign * layer.rows[i][j];
            for (a, row) in sums.iter_mut().enumerate().take(start + 1).skip(1) {
                for (b, sum) in row.iter_mut().enumerate().skip(end) {
                    *sum += need;
                    fits &= *sum <= (b - a + 1) as i128 * layer.cap;
                }
            }
        }
        fits
    }

    /// Places job `j` of processor `i` and every job after it, the
    /// processors in order; `free` is the first step job `j` may use.
    fn search(&mut self, i: usize, j: usize, free: usize) -> bool {
        let rows = &self.layers[0].rows;
        if i == rows.len() {
            return true;
        }
        if j == rows[i].len() {
            return self.search(i + 1, 0, 1);
        }
        let later = rows[i].len() - 1 - j;
        for end in free..=self.t.saturating_sub(later) {
            let fits = self.place(i, j, free, end, 1);
            if fits && self.search(i, j + 1, end + 1) {
                return true;
            }
            self.place(i, j, free, end, -1);
        }
        false
    }
}

/// Whether some vector of completion steps within `t` passes Hall's
/// condition on every layer.
fn feasible(layers: &[Layer], t: usize) -> bool {
    let mut windows = Windows {
        layers,
        t,
        sums: vec![vec![vec![0; t + 1]; t + 1]; layers.len()],
    };
    windows.search(0, 0, 1)
}

/// The optimal makespan of unit-job instance `inst`.
fn oracle(inst: &Instance) -> usize {
    let layers = layers(inst);
    let chain = layers[0].rows.iter().map(Vec::len).max().unwrap_or(0);
    let workload = layers
        .iter()
        .map(|layer| {
            let total: i128 = layer.rows.iter().flatten().sum();
            usize::try_from((total + layer.cap - 1) / layer.cap).unwrap()
        })
        .max()
        .unwrap_or(0);
    (chain.max(workload)..)
        .find(|&t| feasible(&layers, t))
        .unwrap()
}

fn makespan(method: &str, inst: &Instance, schedule: bool) -> usize {
    let mut request = SolveRequest::new(method, inst.clone());
    if schedule {
        request = request.with_schedule();
    }
    registry()
        .solve(&request)
        .unwrap_or_else(|err| panic!("{method} on {inst}: {err}"))
        .makespan
        .unwrap()
}

/// The `Bounds` evaluator's best lower bound.
fn best_bound(inst: &Instance) -> usize {
    registry()
        .solve(&SolveRequest::new("Bounds", inst.clone()))
        .unwrap()
        .lower_bounds
        .best
        .unwrap()
}

/// Requirement rows of 1–3 processors with 1–3 unit jobs each: about 15%
/// zeros, the rest `a/den` for a denominator in 2–60 other than 100.
fn rows() -> impl Strategy<Value = Vec<Vec<Ratio>>> {
    let job = (0u64..20, 2u64..=60, 0u64..1000);
    prop::collection::vec(prop::collection::vec(job, 1..=3), 1..=3).prop_map(|rows| {
        rows.into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|(zero, den, draw)| {
                        if zero < 3 {
                            Ratio::ZERO
                        } else {
                            Ratio::from_parts(1 + draw % den, den)
                        }
                    })
                    .collect()
            })
            .collect()
    })
}

/// Percent rows as unit-job requirements.
fn percent_rows(rows: &[&[u64]]) -> Vec<Vec<Ratio>> {
    rows.iter()
        .map(|row| row.iter().map(|&pct| Ratio::from_parts(pct, 100)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// At `k = 1` every exact answer is the oracle's: makespan-only OptM
    /// (rule or interval certificate, or the decision), OptM with its
    /// schedule (the configuration search), BruteForce and, on two
    /// processors, OptTwo.
    #[test]
    fn single_resource_exact_answers_match_the_oracle(rows in rows()) {
        let inst = Instance::unit_from_requirements(rows);
        let want = oracle(&inst);
        let mut methods = vec![("OptM", false), ("OptM", true), ("BruteForce", false)];
        if inst.processors() == 2 {
            methods.push(("OptTwo", false));
        }
        for (method, schedule) in methods {
            let got = makespan(method, &inst, schedule);
            prop_assert!(got == want, "{} {} != oracle {} on {}", method, got, want, inst);
        }
    }

    /// At `k = 2` every exact answer is the oracle's too: makespan-only
    /// OptM (a certificate, the decision or the search), BruteForce and,
    /// on two processors, OptTwo.  The oracle is a lower bound on every
    /// rule and at least the `Bounds` evaluator's best bound.
    #[test]
    fn two_resource_exact_answers_match_the_oracle(
        rows in rows(),
        extra in prop::collection::vec(0u64..=100, 9),
    ) {
        let layer: Vec<Vec<Ratio>> = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                (0..row.len())
                    .map(|j| Ratio::from_parts(extra[3 * i + j], 100))
                    .collect()
            })
            .collect();
        let inst = Instance::multi_unit_from_requirements(vec![rows, layer]).unwrap();
        let floor = oracle(&inst);
        let mut methods = vec!["OptM", "BruteForce"];
        if inst.processors() == 2 {
            methods.push("OptTwo");
        }
        for method in methods {
            let got = makespan(method, &inst, false);
            prop_assert!(got == floor, "{} {} != oracle {} on {}", method, got, floor, inst);
        }
        for method in POLY_METHODS {
            prop_assert!(floor <= makespan(method, &inst, false), "{} on {}", method, inst);
        }
        prop_assert!(floor >= best_bound(&inst), "{}", inst);
    }
}

/// A `k = 2` instance whose optimum, 5, needs a job to finish one layer
/// while another still runs; a heuristic reaches it too.
#[test]
fn two_resource_repro_is_pinned() {
    let inst = Instance::multi_unit_from_requirements(vec![
        percent_rows(&[&[18, 95, 41], &[59, 41, 62], &[8, 97, 61]]),
        percent_rows(&[&[82, 34, 81], &[22, 25, 27], &[71, 32, 37]]),
    ])
    .unwrap();
    assert_eq!(oracle(&inst), 5);
    assert_eq!(makespan("OptM", &inst, false), 5);
    assert_eq!(makespan("BruteForce", &inst, false), 5);
    assert_eq!(makespan("SmallestRequirementFirst", &inst, false), 5);
}

/// The two `exact-frontier` instances no rule certifies, set id 15
/// (optimum 5, decided by a path) and set id 39 (optimum 7, interval
/// certificate), and the Figure 1 instance (optimum 6, decided by refuting
/// 5).
#[test]
fn certified_and_decided_instances_are_pinned() {
    for (rows, want) in [
        (
            percent_rows(&[&[20, 10, 10, 10], &[50, 55, 90, 55, 10], &[50, 40, 95]]),
            6,
        ),
        (
            percent_rows(&[&[32, 24, 20], &[75, 83, 6], &[36, 16, 47], &[39, 44, 53]]),
            5,
        ),
        (
            percent_rows(&[&[14, 23, 68], &[5, 78, 89], &[19, 22, 86], &[12, 69, 89]]),
            7,
        ),
    ] {
        let inst = Instance::unit_from_requirements(rows);
        assert_eq!(oracle(&inst), want, "{inst}");
        assert_eq!(makespan("OptM", &inst, false), want, "{inst}");
        assert_eq!(makespan("OptM", &inst, true), want, "{inst}");
    }
}

/// SplitMix64: a fixed, dependency-free generator for the release cases.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, bound: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % bound
    }
}

/// 4×3 percent grids, where the oracle costs tens of milliseconds per
/// instance: OptM equals the oracle at `k = 1` (60 grids) and at `k = 2`
/// (20 grids).  A release-build run:
/// `cargo test --release -p cr-algos --test window_oracle -- --ignored`.
#[test]
#[ignore = "the oracle's m = 4 cases; run in release"]
fn four_processor_grids_match_the_oracle() {
    let mut rng = SplitMix(0x5eed_0026_0403);
    let mut grid = || -> Vec<Vec<Ratio>> {
        (0..4)
            .map(|_| {
                (0..3)
                    .map(|_| Ratio::from_parts(1 + rng.below(100), 100))
                    .collect()
            })
            .collect()
    };
    for _ in 0..60 {
        let inst = Instance::unit_from_requirements(grid());
        let want = oracle(&inst);
        assert_eq!(makespan("OptM", &inst, false), want, "{inst}");
        assert_eq!(makespan("OptM", &inst, true), want, "{inst}");
    }
    for _ in 0..20 {
        let inst = Instance::multi_unit_from_requirements(vec![grid(), grid()]).unwrap();
        assert_eq!(makespan("OptM", &inst, false), oracle(&inst), "{inst}");
    }
}
