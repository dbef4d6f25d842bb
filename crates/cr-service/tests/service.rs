//! Batch-service contracts: order stability, per-request isolation, warm
//! cache behavior, and byte-identical results across thread counts and
//! batch split points.

use cr_algos::solver::{Budget, EnginePreference, SolveRequest};
use cr_core::Instance;
use cr_service::{wire, SolverService};
use proptest::prelude::*;

/// The method line-up mixed through the property-test batches.
const METHODS: [&str; 6] = [
    "GreedyBalance",
    "RoundRobin",
    "ProportionalShare",
    "OptM",
    "Bounds",
    "sim:GreedyBalance",
];

fn instance_from(rows: &[Vec<u64>]) -> Instance {
    let reqs = rows
        .iter()
        .map(|row| {
            row.iter()
                .map(|&pct| cr_core::Ratio::new(i128::from(pct), 100))
                .collect()
        })
        .collect();
    Instance::unit_from_requirements(reqs)
}

/// Renders a result list exactly as the serve loop would, so "byte
/// identical" means identical wire output.
fn render(service: &SolverService, requests: &[SolveRequest]) -> Vec<String> {
    service
        .solve_batch(requests)
        .iter()
        .enumerate()
        .map(|(i, result)| wire::response_line(i as u64, &requests[i].method, result))
        .collect()
}

#[test]
fn mixed_batch_isolates_failures_without_poisoning_siblings() {
    let service = SolverService::with_standard_registry();
    let fig = instance_from(&[vec![60, 40, 80], vec![30, 90, 10]]);
    let tall = instance_from(&[vec![100], vec![100], vec![100]]);
    let requests = vec![
        SolveRequest::new("GreedyBalance", fig.clone()),
        SolveRequest::new("NoSuchMethod", fig.clone()),
        SolveRequest::new("OptM", tall.clone()).with_budget(Budget {
            max_rounds: Some(1),
            ..Budget::UNLIMITED
        }),
        SolveRequest::new("OptTwo", tall.clone()),
        SolveRequest::new("OptM", fig.clone()),
    ];
    let results = service.solve_batch(&requests);
    assert_eq!(results.len(), requests.len());
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert_eq!(results[1].as_ref().unwrap_err().kind(), "unknown_method");
    assert_eq!(results[2].as_ref().unwrap_err().kind(), "budget_exhausted");
    assert_eq!(
        results[3].as_ref().unwrap_err().kind(),
        "wrong_processor_count"
    );
    let exact = results[4].as_ref().unwrap();
    assert_eq!(exact.makespan, Some(cr_algos::opt_m_makespan(&fig)));
    // The heuristic's answer is bounded by the sibling's exact optimum.
    assert!(results[0].as_ref().unwrap().makespan >= exact.makespan);
}

#[test]
fn warm_cache_holds_one_entry_per_distinct_instance() {
    let service = SolverService::with_standard_registry();
    let fig = instance_from(&[vec![60, 40], vec![40, 60]]);
    let other = instance_from(&[vec![50], vec![50]]);
    let requests = vec![
        SolveRequest::new("GreedyBalance", fig.clone()),
        SolveRequest::new("OptTwo", fig.clone()),
        SolveRequest::new("OptM", fig.clone()),
        SolveRequest::new("EqualShare", other.clone()),
    ];
    let first = service.solve_batch(&requests);
    assert_eq!(service.cached_instances(), 2);
    // A second pass over the same instances hits the warm cache and returns
    // identical results.
    let second = service.solve_batch(&requests);
    assert_eq!(service.cached_instances(), 2);
    assert_eq!(first, second);
}

#[test]
fn single_solve_and_batch_agree() {
    let service = SolverService::with_standard_registry();
    let fig = instance_from(&[vec![60, 40, 80], vec![30, 90, 10]]);
    let requests: Vec<SolveRequest> = METHODS
        .iter()
        .map(|&m| SolveRequest::new(m, fig.clone()))
        .collect();
    let batched = service.solve_batch(&requests);
    for (request, batched_result) in requests.iter().zip(&batched) {
        assert_eq!(&service.solve(request), batched_result);
    }
}

#[test]
fn engine_preference_rides_the_wire() {
    let service = SolverService::with_standard_registry();
    let line =
        r#"{"method":"OptM","engine":"rational","rows":[[60,40],[40,60]],"want_schedule":true}"#;
    let parsed = wire::parse_request(line, 7).unwrap();
    assert_eq!(parsed.id, 7);
    assert_eq!(parsed.request.engine, EnginePreference::Rational);
    // The exact methods run on integer grids only: `rational` runs like
    // `auto`, and the answer names the arithmetic that ran.
    let outcome = service.solve(&parsed.request).unwrap();
    assert_eq!(outcome.engine.as_str(), "scaled");
    assert!(outcome.schedule.is_some());
}

#[test]
fn malformed_lines_become_bad_request_responses_in_order() {
    let service = SolverService::with_standard_registry();
    let lines: Vec<String> = vec![
        r#"{"method":"GreedyBalance","rows":[[50,50]]}"#.to_string(),
        "definitely not json".to_string(),
        r#"{"rows":[[50]]}"#.to_string(),
        r#"{"method":"GreedyBalance","rows":[[150]]}"#.to_string(),
        r#"{"method":"OptTwo","rows":[[40],[40]]}"#.to_string(),
    ];
    let responses = wire::process_batch(&service, &lines, 0);
    assert_eq!(responses.len(), lines.len());
    // One processor, a chain of two 50% jobs: the chain bound forces 2.
    assert!(responses[0].contains("\"makespan\":2"));
    assert!(responses[1].contains("bad_request"));
    assert!(responses[2].contains("missing field `method`"));
    assert!(responses[3].contains("outside [0, 100]"));
    assert!(responses[4].contains("\"makespan\":1"));
    for (i, response) in responses.iter().enumerate() {
        assert!(response.contains(&format!("\"id\":{i}")), "{response}");
    }
}

/// The Rust mirror of CI's `cr-serve` smoke job: the committed 12-request
/// batch (`tests/data/smoke_batch.jsonl`) must come back complete, in
/// order, with the golden makespan per method, a structured error in the
/// deliberately over-budget slot, and the two multi-resource slots — one
/// solved `k = 2` request whose extra layer binds (makespan 4 vs the scalar
/// optimum 2 of the same base rows) and one misshapen `resources` layer
/// rejected as `bad_request`.  If this test needs updating, update the
/// `service-smoke` assertions in `.github/workflows/ci.yml` too.
#[test]
fn smoke_batch_matches_the_ci_goldens() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/smoke_batch.jsonl");
    let lines: Vec<String> = std::fs::read_to_string(path)
        .expect("read smoke batch")
        .lines()
        .map(str::to_string)
        .collect();
    assert_eq!(lines.len(), 12);
    let service = SolverService::with_standard_registry();
    let responses = wire::process_batch(&service, &lines, 0);
    assert_eq!(responses.len(), 12);
    // (method, makespan golden or None for the bounds/error slots).  A
    // rejected slot answers with an empty method string.
    let goldens: [(&str, Option<usize>); 12] = [
        ("GreedyBalance", Some(6)),
        ("RoundRobin", Some(8)),
        ("OptM", Some(6)),
        ("OptTwo", Some(2)),
        ("EqualShare", Some(3)),
        ("ProportionalShare", Some(2)),
        ("Bounds", None),
        ("sim:GreedyBalance", Some(3)),
        ("OptM", None),
        ("BruteForce", Some(3)),
        ("OptM", Some(4)),
        ("", None),
    ];
    for (i, (response, (method, makespan))) in responses.iter().zip(goldens).enumerate() {
        assert!(
            response.contains(&format!("\"id\":{i},\"method\":\"{method}\"")),
            "slot {i} order or method diverged: {response}"
        );
        if let Some(value) = makespan {
            assert!(
                response.contains(&format!("\"makespan\":{value}")),
                "slot {i} golden makespan diverged: {response}"
            );
        }
    }
    assert!(responses[6].contains("\"best\":5"), "{}", responses[6]);
    assert!(
        responses[8].contains("budget_exhausted"),
        "{}",
        responses[8]
    );
    assert!(
        responses[11].contains("bad_request") && responses[11].contains("layer row holds 1"),
        "{}",
        responses[11]
    );
}

#[test]
fn multi_resource_requests_ride_the_wire() {
    let service = SolverService::with_standard_registry();
    // The `resources` shorthand and an `instance` with embedded `extra`
    // layers describe the same k = 2 instance and must answer identically.
    let shorthand = wire::parse_request(
        r#"{"method":"OptM","rows":[[60,40],[40,60]],"resources":[[[90,90],[90,90]]]}"#,
        0,
    )
    .unwrap();
    assert_eq!(shorthand.request.instance.resources(), 2);
    let instance_json =
        serde_json::to_string(&serde::Serialize::serialize(&shorthand.request.instance)).unwrap();
    let embedded_json = format!(r#"{{"method":"OptM","instance":{instance_json}}}"#);
    let embedded = wire::parse_request(&embedded_json, 1).unwrap();
    assert_eq!(embedded.request.instance, shorthand.request.instance);
    let a = service.solve(&shorthand.request).unwrap();
    assert_eq!(a.makespan, Some(4));
    assert_eq!(service.solve(&embedded.request).unwrap().makespan, Some(4));

    // `resources` next to a full `instance` is a structured parse error.
    let err = wire::parse_request(
        &embedded_json.replace("\"instance\"", "\"resources\":[],\"instance\""),
        2,
    )
    .unwrap_err();
    assert!(err.contains("`rows` shorthand"), "{err}");

    // Schedules stay single-resource: want_schedule on k = 2 is the
    // structured resource_mismatch kind, for online and offline methods.
    for method in ["OptM", "sim:GreedyBalance"] {
        let line = format!(
            r#"{{"method":"{method}","rows":[[60,40],[40,60]],"resources":[[[90,90],[90,90]]],"want_schedule":true}}"#
        );
        let parsed = wire::parse_request(&line, 3).unwrap();
        let err = service.solve(&parsed.request).unwrap_err();
        assert_eq!(err.kind(), "resource_mismatch", "{method}");
    }
}

/// The stack of every thread that solves a request in `cr-serve` (the
/// connection workers and the fan-out threads): std's default for spawned
/// threads.
const WORKER_STACK_BYTES: usize = 2 << 20;

#[test]
fn brute_force_on_a_long_chain_answers_within_a_worker_stack() {
    // 20,000 free jobs on one processor: one brute-force step per job.
    let line = format!(
        r#"{{"method":"BruteForce","rows":[[{}]]}}"#,
        vec!["0"; 20_000].join(",")
    );
    let answer = std::thread::Builder::new()
        .stack_size(WORKER_STACK_BYTES)
        .spawn(move || {
            let service = SolverService::with_standard_registry();
            let parsed = wire::parse_request(&line, 0).unwrap();
            let mut results = service.solve_batch(&[parsed.request]);
            results.pop().unwrap()
        })
        .unwrap()
        .join()
        .expect("the solve returns instead of overflowing the stack");
    let outcome = answer.unwrap();
    assert_eq!(outcome.makespan, Some(20_000));
    assert_eq!(outcome.rounds, 20_000, "one expansion per step");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The service determinism contract: results are byte-identical across
    /// worker counts (RAYON_NUM_THREADS=1 vs the default) and across batch
    /// split points.
    #[test]
    fn batch_results_are_thread_and_split_invariant(
        rows in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=4), 1..=3),
        extra in prop::collection::vec(prop::collection::vec(0u64..=100, 1..=3), 1..=3),
        split in 0usize..=11,
    ) {
        let service = SolverService::with_standard_registry();
        let a = instance_from(&rows);
        let b = instance_from(&extra);
        let mut requests = Vec::new();
        for (i, &method) in METHODS.iter().enumerate() {
            let inst = if i % 2 == 0 { a.clone() } else { b.clone() };
            let mut request = SolveRequest::new(method, inst);
            request.want_schedule = i % 3 == 0;
            requests.push(request);
        }

        let parallel = render(&service, &requests);

        // Serial run: byte-identical output.
        std::env::set_var("RAYON_NUM_THREADS", "1");
        let serial = render(&service, &requests);
        std::env::remove_var("RAYON_NUM_THREADS");
        prop_assert_eq!(&parallel, &serial);

        // Split at an arbitrary point: concatenation is byte-identical too
        // (per-request results do not depend on batch composition).
        let split = split.min(requests.len());
        let mut joined = service
            .solve_batch(&requests[..split])
            .into_iter()
            .chain(service.solve_batch(&requests[split..]))
            .enumerate()
            .map(|(i, result)| wire::response_line(i as u64, &requests[i].method, &result))
            .collect::<Vec<String>>();
        prop_assert_eq!(&parallel, &joined);
        joined.clear();
    }
}

#[test]
fn poisoned_cache_mutex_recovers_and_counts_the_rebuild() {
    let service = SolverService::with_standard_registry();
    let instance = instance_from(&[vec![60, 40], vec![40, 60]]);
    // Warm the cache, then poison its mutex the way a panicking solver
    // holding the lock would.
    let _ = service.solve_batch(&[SolveRequest::new("GreedyBalance", instance.clone())]);
    assert_eq!(service.cached_instances(), 1);
    assert_eq!(service.cache_rebuilds(), 0);
    service.poison_cache_for_tests();
    // The next batch recovers: the cache is cleared and rebuilt warm, the
    // rebuild is counted once, and results are unaffected.
    let results = service.solve_batch(&[SolveRequest::new("GreedyBalance", instance)]);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    assert_eq!(service.cache_rebuilds(), 1);
    assert_eq!(service.cached_instances(), 1);
}

#[test]
fn panicking_solver_occupies_its_slot_while_siblings_answer() {
    let service = SolverService::with_standard_registry_and_debug();
    let instance = instance_from(&[vec![60, 40], vec![40, 60]]);
    let requests = vec![
        SolveRequest::new("GreedyBalance", instance.clone()),
        SolveRequest::new("debug:panic", instance.clone()),
        SolveRequest::new("Bounds", instance.clone()),
    ];
    let results = service.solve_batch(&requests);
    assert!(results[0].is_ok(), "{:?}", results[0]);
    match &results[1] {
        Err(err) => {
            assert_eq!(err.kind(), "internal_error");
            assert!(err.to_string().contains("deliberate panic"), "{err}");
        }
        Ok(_) => panic!("panicking solver reported success"),
    }
    assert!(results[2].is_ok(), "{:?}", results[2]);
    // The service keeps answering normally afterwards — byte-identical to
    // a fresh service.
    let sane = vec![SolveRequest::new("OptM", instance)];
    let after = render(&service, &sane);
    let fresh = render(&SolverService::with_standard_registry(), &sane);
    assert_eq!(after, fresh);
}
