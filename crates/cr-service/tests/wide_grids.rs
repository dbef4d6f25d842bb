//! Exact methods and heuristics on instances whose unit grid overflows
//! `u64`.
//!
//! Requirements a/p over three primes near 2^22 put the LCM of many
//! instances near 2^66: past the `u64` grid, well inside `u128`.  Every
//! exact request and every heuristic request must answer from the widened
//! grid and record the widening; the exact methods must agree across
//! methods; `scaled` must refuse the wide grids.  The batch runs through
//! [`SolverService::solve_batch`], which turns a solver panic into an
//! `internal_error` row, so a panic shows up as a failed assertion.

use cr_algos::solver::{EnginePreference, SolveError, SolveOutcome, SolveRequest, POLY_METHODS};
use cr_core::{Instance, MultiStepper, Ratio, ScaledInstance};
use cr_service::SolverService;

/// SplitMix64: a fixed, dependency-free generator for the inputs.
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
}

/// `count` instances of 2–3 processors with 1–3 unit jobs each, every
/// requirement a/p for a prime p drawn from `primes`.
fn prime_instances(primes: &[u64], count: usize) -> Vec<Instance> {
    let mut rng = SplitMix(0xabcdef);
    (0..count)
        .map(|_| {
            let m = 2 + rng.below(2);
            let rows = (0..m)
                .map(|_| {
                    let n = 1 + rng.below(3);
                    (0..n)
                        .map(|_| {
                            let p = primes[rng.below(primes.len() as u64) as usize];
                            Ratio::from_parts(1 + rng.below(p - 1), p)
                        })
                        .collect()
                })
                .collect();
            Instance::unit_from_requirements(rows)
        })
        .collect()
}

/// 300 instances over three primes near 2^22.
fn three_prime_instances() -> Vec<Instance> {
    prime_instances(&[4_194_271, 4_194_277, 4_194_287], 300)
}

const WIDENED: &str = "unit grid overflows u64: widened to u128";

/// The requests of one instance: OptM with and without its schedule and
/// BruteForce, plus OptTwo with and without its schedule on two
/// processors, on `engine`.
fn requests(instance: &Instance, engine: EnginePreference) -> Vec<SolveRequest> {
    let mut methods = vec![("OptM", false), ("OptM", true), ("BruteForce", false)];
    if instance.processors() == 2 {
        methods.extend([("OptTwo", false), ("OptTwo", true)]);
    }
    methods
        .into_iter()
        .map(|(method, schedule)| {
            let request = SolveRequest::new(method, instance.clone()).with_engine(engine);
            if schedule {
                request.with_schedule()
            } else {
                request
            }
        })
        .collect()
}

#[test]
fn exact_methods_answer_past_the_u64_grid() {
    let service = SolverService::with_standard_registry();
    let instances = three_prime_instances();
    let mut requests = Vec::new();
    let mut owners = Vec::new();
    for (index, instance) in instances.iter().enumerate() {
        for engine in [EnginePreference::Auto, EnginePreference::Rational] {
            for request in self::requests(instance, engine) {
                requests.push(request);
                owners.push(index);
            }
        }
    }
    let results = service.solve_batch(&requests);

    let wide: Vec<bool> = instances
        .iter()
        .map(|instance| ScaledInstance::try_new(instance).is_none())
        .collect();
    assert_eq!(wide.iter().filter(|&&wide| wide).count(), 171);
    let mut noted = vec![false; instances.len()];
    // Per instance: the makespan every exact answer must share.
    let mut makespans: Vec<Option<usize>> = vec![None; instances.len()];
    for ((request, result), &index) in requests.iter().zip(&results).zip(&owners) {
        let outcome: &SolveOutcome = result.as_ref().unwrap_or_else(|err| {
            panic!(
                "{} on instance {index} ({:?}): {err}",
                request.method, request.engine
            )
        });
        assert_eq!(outcome.engine.as_str(), "scaled", "instance {index}");
        let makespan = outcome.makespan.expect("exact methods report makespans");
        let want = *makespans[index].get_or_insert(makespan);
        assert_eq!(makespan, want, "{} on instance {index}", request.method);
        if let Some(schedule) = &outcome.schedule {
            assert_eq!(schedule.num_steps(), makespan, "instance {index}");
        }
        if outcome.fallbacks.iter().any(|note| note == WIDENED) {
            noted[index] = true;
        } else {
            assert!(outcome.fallbacks.is_empty(), "instance {index}");
        }
        assert_eq!(
            outcome.fallbacks.is_empty(),
            !wide[index],
            "instance {index}"
        );
    }
    assert_eq!(noted, wide);

    // `scaled` demands the u64 grid and refuses every wide one.
    let scaled: Vec<SolveRequest> = instances
        .iter()
        .zip(&wide)
        .filter(|&(_, &wide)| wide)
        .flat_map(|(instance, _)| self::requests(instance, EnginePreference::Scaled))
        .collect();
    for result in service.solve_batch(&scaled) {
        match result {
            Err(SolveError::GridOverflow { .. }) => {}
            other => panic!("expected grid_overflow, got {other:?}"),
        }
    }
}

/// Every heuristic, makespan-only and with its schedule, on `engine`.
fn heuristic_requests(instance: &Instance, engine: EnginePreference) -> Vec<SolveRequest> {
    POLY_METHODS
        .into_iter()
        .flat_map(|method| {
            let request = SolveRequest::new(method, instance.clone()).with_engine(engine);
            [request.clone(), request.with_schedule()]
        })
        .collect()
}

#[test]
fn heuristics_answer_past_the_u64_grid() {
    let service = SolverService::with_standard_registry();
    let instances = three_prime_instances();
    // The heuristics' grid also covers the workload denominators (unit
    // jobs add none) and reserves (m + 1) · D.
    let wide: Vec<bool> = instances
        .iter()
        .map(|instance| MultiStepper::<u64>::try_new(instance).is_none())
        .collect();
    assert_eq!(wide.iter().filter(|&&wide| wide).count(), 171);
    assert!(instances
        .iter()
        .all(|instance| MultiStepper::<u128>::try_new(instance).is_some()));

    let mut requests = Vec::new();
    let mut owners = Vec::new();
    for (index, instance) in instances.iter().enumerate() {
        for engine in [EnginePreference::Auto, EnginePreference::Rational] {
            for request in heuristic_requests(instance, engine) {
                requests.push(request);
                owners.push(index);
            }
        }
    }
    let results = service.solve_batch(&requests);
    for ((request, result), &index) in requests.iter().zip(&results).zip(&owners) {
        let outcome: &SolveOutcome = result.as_ref().unwrap_or_else(|err| {
            panic!(
                "{} on instance {index} ({:?}): {err}",
                request.method, request.engine
            )
        });
        assert_eq!(outcome.engine.as_str(), "scaled", "instance {index}");
        let makespan = outcome.makespan.expect("heuristics report makespans");
        if let Some(schedule) = &outcome.schedule {
            assert_eq!(schedule.num_steps(), makespan, "instance {index}");
        }
        let want: &[&str] = if wide[index] { &[WIDENED] } else { &[] };
        assert_eq!(
            outcome.fallbacks, want,
            "{} on instance {index}",
            request.method
        );
    }

    // `scaled` demands the u64 grid and refuses every wide one.
    let scaled: Vec<SolveRequest> = instances
        .iter()
        .zip(&wide)
        .filter(|&(_, &wide)| wide)
        .flat_map(|(instance, _)| heuristic_requests(instance, EnginePreference::Scaled))
        .collect();
    for result in service.solve_batch(&scaled) {
        match result {
            Err(SolveError::GridOverflow { .. }) => {}
            other => panic!("expected grid_overflow, got {other:?}"),
        }
    }
}

/// 200 instances over four primes near 2^31: grids near 2^124, past `u64`
/// and, for sums of `Ratio`s, past `i128`.  The instance-only bounds are
/// summed on the integer grids, so OptM, BruteForce and every heuristic
/// answer each instance that has a `u128` grid; none answers
/// `internal_error`.
#[test]
fn four_prime_instances_answer_without_an_internal_error() {
    let instances = prime_instances(
        &[2_147_483_579, 2_147_483_587, 2_147_483_629, 2_147_483_647],
        200,
    );
    assert!(instances
        .iter()
        .all(
            |instance| ScaledInstance::<u128>::try_on_grid(instance).is_some()
                && MultiStepper::<u128>::try_new(instance).is_some()
        ));
    let requests: Vec<SolveRequest> = instances
        .iter()
        .flat_map(|instance| {
            ["OptM", "BruteForce"]
                .into_iter()
                .chain(POLY_METHODS)
                .map(|method| SolveRequest::new(method, instance.clone()))
        })
        .collect();
    let service = SolverService::with_standard_registry();
    for (request, result) in requests.iter().zip(service.solve_batch(&requests)) {
        let outcome = result
            .unwrap_or_else(|err| panic!("{} on {}: {err}", request.method, request.instance));
        assert!(
            outcome.makespan.expect("every method reports a makespan")
                >= outcome.lower_bounds.trivial,
            "{} on {}",
            request.method,
            request.instance
        );
    }
}
