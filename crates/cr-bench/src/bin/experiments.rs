//! The single entry point for full paper-table reproduction.
//!
//! Builds the fig1–fig5 tables plus the random-grid sweeps as one big
//! experiment grid (via the shared builders in `cr_bench::grids`), fans it
//! out with the rayon [`Runner`], and writes
//!
//! * `experiments.json` — every measured cell, deterministic and
//!   byte-identical across runs with the same `--seed`;
//! * `experiments.md` — the same tables as GitHub-flavoured markdown;
//! * `BENCH_pipeline.json` — wall-clock timings of the parallel run (the
//!   perf baseline future PRs compare against).  Besides the eight report
//!   tables this also times *timing-only* sweeps — the heuristic line-up,
//!   the many-core simulator on the scaled engine, the OPT(m) frontier
//!   breakdown (round expansion vs the Lemma 4 filter, with candidate,
//!   survivor and row-checked counts), batch-service throughput, socket
//!   serving latency and the multi-resource overhead curve over
//!   `k ∈ {1, 2, 4}` layers — which appear in `BENCH_pipeline.json` but
//!   never in `experiments.json`.
//!
//! Usage: `cargo run --release -p cr-bench --bin experiments --
//! [--seed N] [--out-dir DIR] [--reduced]`
//!
//! `--reduced` shrinks every sweep (fewer repetitions, shorter fig3 chains)
//! while keeping the same table line-up; CI's perf-smoke job runs it to get
//! a representative timing artifact per PR without paying for the full
//! grid, and asserts the cell counts of every table — including the timing
//! sweeps — against the committed baseline.

#![forbid(unsafe_code)]

use cr_algos::opt_m_makespan;
use cr_algos::solver::{SolveRequest, POLY_METHODS};
use cr_bench::grids;
use cr_bench::pipeline::{shared_service, Cell, ExperimentReport, Runner};
use cr_core::Instance;
use cr_instances::{
    generate_workload, random_multi_unit_instance, random_unit_instance,
    rotating_bottleneck_instance, wide_oversubscribed_instance, RandomConfig, RequirementProfile,
    TaskMix, WorkloadConfig,
};
use cr_sim::ONLINE_METHODS;
use rayon::prelude::*;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    seed: u64,
    out_dir: PathBuf,
    reduced: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        seed: 0xC0FF_EE00,
        out_dir: PathBuf::from("."),
        reduced: false,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--seed" => {
                let value = iter.next().expect("--seed requires a value");
                args.seed = parse_seed(&value);
            }
            "--out-dir" => {
                args.out_dir = PathBuf::from(iter.next().expect("--out-dir requires a value"));
            }
            "--reduced" => args.reduced = true,
            "--help" | "-h" => {
                println!("usage: experiments [--seed N] [--out-dir DIR] [--reduced]");
                std::process::exit(0);
            }
            other => panic!("unknown flag `{other}` (try --help)"),
        }
    }
    args
}

fn parse_seed(text: &str) -> u64 {
    if let Some(hex) = text.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).expect("invalid hex seed")
    } else {
        text.parse().expect("invalid seed")
    }
}

fn main() {
    let args = parse_args();
    let runner = Runner::new(args.seed);
    // The reduced grid keeps all eight tables (so timing artifacts stay
    // comparable shape-wise) but sweeps fewer repetitions / sizes.
    let (fig3_sizes, exact_reps, large_reps, sized_reps) = if args.reduced {
        (&grids::FIG3_SIZES[..5], 5, 5, 2)
    } else {
        (&grids::FIG3_SIZES[..], 25, 25, 5)
    };
    let grids: Vec<(&str, Vec<Cell>)> = vec![
        (
            "Figure 1 running example (vs. exact optimum)",
            grids::fig1_cells(),
        ),
        ("Figure 2 nested-schedule example", grids::fig2_cells()),
        (
            "Figure 3 adversarial family (Theorem 3)",
            grids::fig3_cells(fig3_sizes),
        ),
        (
            "Figure 4 Partition reduction (Theorem 4)",
            grids::fig4_cells(&grids::fig4_default_cases()),
        ),
        (
            "Figure 5 block construction (Theorem 8)",
            grids::fig5_cells(1000),
        ),
        (
            "Random grid vs. exact optimum (Theorem 7)",
            grids::random_exact_cells(
                exact_reps,
                &[RequirementProfile::Uniform, RequirementProfile::Light],
            ),
        ),
        (
            "Random grid vs. best lower bound",
            grids::random_large_cells(large_reps),
        ),
        (
            "Arbitrary-size grid (Section 9)",
            grids::sized_cells(sized_reps),
        ),
    ];
    let total_cells: usize = grids.iter().map(|(_, cells)| cells.len()).sum();
    println!(
        "experiments — {total_cells} cells across {} tables on {} threads (seed {:#x})",
        grids.len(),
        rayon::current_num_threads(),
        args.seed
    );

    let mut tables = Vec::new();
    let mut timings = Vec::new();
    let run_start = Instant::now();
    for (title, cells) in &grids {
        let start = Instant::now();
        let (table, max_cell_ms) = runner.run_table_timed(*title, cells);
        let elapsed_ms = start.elapsed().as_secs_f64() * 1e3;
        println!(
            "  {title:<46} {:>5} cells  {elapsed_ms:>9.1} ms  (max cell {max_cell_ms:>7.1} ms)",
            cells.len()
        );
        timings.push(TableTiming {
            title: (*title).to_string(),
            cells: cells.len(),
            wall_ms: elapsed_ms,
            max_cell_ms,
            extra: Vec::new(),
        });
        tables.push(table);
    }

    // Timing-only sweeps of the scaled scheduling/simulation layer.  They
    // contribute tables to BENCH_pipeline.json (so the perf baseline covers
    // the heuristic and simulator hot paths) but no rows to
    // experiments.json, whose content must stay a pure function of the seed.
    let mut timing_cells = 0usize;
    for (title, cells) in [
        heuristic_timing_cells(args.reduced),
        simulator_timing_cells(args.reduced),
    ] {
        timing_cells += cells.len();
        let timing = run_timing_table(title, &cells);
        println!(
            "  {:<46} {:>5} cells  {:>9.1} ms  (max cell {:>7.1} ms)",
            timing.title, timing.cells, timing.wall_ms, timing.max_cell_ms
        );
        timings.push(timing);
    }
    let frontier = run_frontier_breakdown_table(args.reduced);
    println!(
        "  {:<46} {:>5} cells  {:>9.1} ms  (max cell {:>7.1} ms)",
        frontier.title, frontier.cells, frontier.wall_ms, frontier.max_cell_ms
    );
    timing_cells += frontier.cells;
    timings.push(frontier);
    let batch = run_batch_throughput_table(args.reduced);
    println!(
        "  {:<46} {:>5} cells  {:>9.1} ms  (max cell {:>7.1} ms)",
        batch.title, batch.cells, batch.wall_ms, batch.max_cell_ms
    );
    timing_cells += batch.cells;
    timings.push(batch);
    let serving = run_socket_serving_table(args.reduced);
    println!(
        "  {:<46} {:>5} cells  {:>9.1} ms  (max cell {:>7.1} ms)",
        serving.title, serving.cells, serving.wall_ms, serving.max_cell_ms
    );
    timing_cells += serving.cells;
    timings.push(serving);
    let multi = run_multi_resource_table(args.reduced);
    println!(
        "  {:<46} {:>5} cells  {:>9.1} ms  (max cell {:>7.1} ms)",
        multi.title, multi.cells, multi.wall_ms, multi.max_cell_ms
    );
    timing_cells += multi.cells;
    timings.push(multi);
    let obs = run_observability_overhead_table(args.reduced);
    println!(
        "  {:<46} {:>5} cells  {:>9.1} ms  (max cell {:>7.1} ms)",
        obs.title, obs.cells, obs.wall_ms, obs.max_cell_ms
    );
    timing_cells += obs.cells;
    timings.push(obs);
    let total_cells = total_cells + timing_cells;
    let total_ms = run_start.elapsed().as_secs_f64() * 1e3;

    // Sanity assertions mirroring the paper's claims before anything is
    // persisted.
    for table in &tables {
        for cell in &table.results {
            assert!(
                cell.makespan >= cell.reference || !cell.reference_is_optimal,
                "a measured makespan beat a proven optimum: {cell:?}"
            );
        }
    }

    let report = ExperimentReport {
        base_seed: args.seed,
        tables,
    };
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let json_path = args.out_dir.join("experiments.json");
    let md_path = args.out_dir.join("experiments.md");
    let bench_path = args.out_dir.join("BENCH_pipeline.json");
    std::fs::write(&json_path, report.to_json()).expect("write experiments.json");
    std::fs::write(&md_path, report.to_markdown()).expect("write experiments.md");
    std::fs::write(
        &bench_path,
        timing_json(&timings, total_ms, total_cells, args.reduced),
    )
    .expect("write BENCH_pipeline.json");

    println!("\n{}", report.to_markdown());
    println!(
        "wrote {} / {} / {}  ({total_cells} cells in {total_ms:.1} ms total)",
        json_path.display(),
        md_path.display(),
        bench_path.display()
    );
}

/// One deferred unit of timing-only work: a label plus the closure whose
/// wall time is measured (the returned makespan is black-boxed so the work
/// cannot be optimized away).
type TimingCell = (String, Box<dyn Fn() -> usize + Send + Sync>);

/// A timing cell solving one method over one instance through the shared
/// solver service (the same code path `cr-serve` exercises).
fn service_cell(label: String, method: &'static str, instance: Instance) -> TimingCell {
    (
        label,
        Box::new(move || {
            shared_service()
                .solve(&SolveRequest::new(method, instance.clone()))
                .expect("timing solve succeeds")
                .makespan
                .expect("timing methods report makespans")
        }),
    )
}

/// The heuristic line-up on the scaled engine: every polynomial method of
/// the registry over random uniform instances (the post-ISSUE-3 hot path of
/// the random sweeps).
fn heuristic_timing_cells(reduced: bool) -> (&'static str, Vec<TimingCell>) {
    let reps: u64 = if reduced { 1 } else { 3 };
    let mut cells: Vec<TimingCell> = Vec::new();
    for (m, n) in [(8usize, 48usize), (16, 64)] {
        for rep in 0..reps {
            let instance = random_unit_instance(&RandomConfig::uniform(m, n), 4000 + rep);
            for method in POLY_METHODS {
                cells.push(service_cell(
                    format!("{method} m={m} n={n} rep={rep}"),
                    method,
                    instance.clone(),
                ));
            }
        }
    }
    ("Heuristic line-up timing (scaled engine)", cells)
}

/// The many-core simulator on the scaled engine: every online `sim:` method
/// of the registry over synthetic workloads (the E10 sweep's hot path).
fn simulator_timing_cells(reduced: bool) -> (&'static str, Vec<TimingCell>) {
    let core_counts: &[usize] = if reduced { &[16] } else { &[16, 64] };
    let mut cells: Vec<TimingCell> = Vec::new();
    for mix in [TaskMix::IoBound, TaskMix::Mixed] {
        for &cores in core_counts {
            let cfg = WorkloadConfig {
                cores,
                phases_per_task: 16,
                mix,
                denominator: 100,
                unit_phases: true,
            };
            let workload = generate_workload(&cfg, 8000 + cores as u64);
            for method in ONLINE_METHODS {
                cells.push(service_cell(
                    format!("{method} {mix:?} cores={cores}"),
                    method,
                    workload.clone(),
                ));
            }
        }
    }
    ("Many-core simulator timing (scaled engine)", cells)
}

/// The batch solver service throughput record: one cell per batch size,
/// each solving a mixed heuristic + exact batch through
/// `SolverService::solve_batch` and reporting instances/sec (the
/// `throughput` rows of `BENCH_pipeline.json`).
fn run_batch_throughput_table(reduced: bool) -> TableTiming {
    const BATCH_SIZES: [usize; 4] = [1, 4, 16, 64];
    let (m, n) = if reduced { (4usize, 12usize) } else { (8, 32) };
    let service = shared_service();
    let start = Instant::now();
    let mut per_cell_ms = Vec::with_capacity(BATCH_SIZES.len());
    let mut throughput = Vec::with_capacity(BATCH_SIZES.len());
    for &batch_size in &BATCH_SIZES {
        // A fresh instance per slot so the cell measures conversion + solve,
        // not the warm cache; methods rotate heuristics with one exact
        // OPT(m) per 8 requests (a realistic mixed serving batch).
        let requests: Vec<SolveRequest> = (0..batch_size)
            .map(|slot| {
                let (method, instance) = if slot % 8 == 7 {
                    (
                        "OptM",
                        random_unit_instance(
                            &RandomConfig::uniform(3, 3),
                            7000 + batch_size as u64 * 100 + slot as u64,
                        ),
                    )
                } else {
                    (
                        POLY_METHODS[slot % POLY_METHODS.len()],
                        random_unit_instance(
                            &RandomConfig::uniform(m, n),
                            6000 + batch_size as u64 * 100 + slot as u64,
                        ),
                    )
                };
                SolveRequest::new(method, instance)
            })
            .collect();
        let cell_start = Instant::now();
        let results = service.solve_batch(&requests);
        let elapsed = cell_start.elapsed().as_secs_f64();
        assert!(
            results.iter().all(Result::is_ok),
            "throughput batch must succeed"
        );
        black_box(results);
        per_cell_ms.push(elapsed * 1e3);
        throughput.push((batch_size, batch_size as f64 / elapsed.max(1e-9)));
    }
    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    TableTiming {
        title: "Batch solver service throughput (cr-service)".to_string(),
        cells: BATCH_SIZES.len(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        max_cell_ms: per_cell_ms.iter().fold(0.0f64, |a, &b| a.max(b)),
        extra: vec![(
            "throughput".to_string(),
            serde::Value::Array(
                throughput
                    .into_iter()
                    .map(|(batch, per_sec)| {
                        serde::Value::Object(vec![
                            (
                                "batch".to_string(),
                                serde::Value::Number(serde::Number::Int(batch as i128)),
                            ),
                            (
                                "instances_per_sec".to_string(),
                                serde::Value::Number(serde::Number::Float(round1(per_sec))),
                            ),
                        ])
                    })
                    .collect(),
            ),
        )],
    }
}

/// Observability overhead: the full mixed batch of the throughput table,
/// solved repeatedly with recording *enabled* versus *runtime-disabled*
/// (the registry kill switch is the in-process stand-in for the `obs-off`
/// compile, which CI builds separately).  The conversion cache is warmed
/// before either arm so both measure solve + recording, not first-touch
/// conversion.  The `overhead` extra row carries both wall times and the
/// enabled/disabled ratio — the regression budget for the cr-obs
/// instrumentation on the hot solve path.
fn run_observability_overhead_table(reduced: bool) -> TableTiming {
    let (m, n) = if reduced { (4usize, 12usize) } else { (8, 32) };
    let batch_size = if reduced { 16 } else { 64 };
    let reps = if reduced { 2 } else { 5 };
    let service = shared_service();
    let requests: Vec<SolveRequest> = (0..batch_size)
        .map(|slot| {
            let (method, instance) = if slot % 8 == 7 {
                (
                    "OptM",
                    random_unit_instance(&RandomConfig::uniform(3, 3), 8000 + slot as u64),
                )
            } else {
                (
                    POLY_METHODS[slot % POLY_METHODS.len()],
                    random_unit_instance(&RandomConfig::uniform(m, n), 8100 + slot as u64),
                )
            };
            SolveRequest::new(method, instance)
        })
        .collect();
    let start = Instant::now();
    // Warm-up: both arms run against a hot conversion cache.
    black_box(service.solve_batch(&requests));
    let time_arm = |label: &str| -> f64 {
        let arm = Instant::now();
        for _ in 0..reps {
            let results = service.solve_batch(&requests);
            assert!(
                results.iter().all(Result::is_ok),
                "{label} overhead batch must succeed"
            );
            black_box(results);
        }
        arm.elapsed().as_secs_f64() * 1e3
    };
    let registry = cr_obs::Registry::global();
    let instrumented_ms = time_arm("instrumented");
    registry.set_enabled(false);
    let disabled_ms = time_arm("disabled");
    registry.set_enabled(true);
    let ratio = instrumented_ms / disabled_ms.max(1e-9);
    let round3 = |x: f64| (x * 1e3).round() / 1e3;
    TableTiming {
        title: "Observability overhead (cr-obs)".to_string(),
        cells: 2,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        max_cell_ms: instrumented_ms.max(disabled_ms),
        extra: vec![(
            "overhead".to_string(),
            serde::Value::Array(vec![serde::Value::Object(vec![
                (
                    "instrumented_ms".to_string(),
                    serde::Value::Number(serde::Number::Float(round3(instrumented_ms))),
                ),
                (
                    "disabled_ms".to_string(),
                    serde::Value::Number(serde::Number::Float(round3(disabled_ms))),
                ),
                (
                    "ratio".to_string(),
                    serde::Value::Number(serde::Number::Float(round3(ratio))),
                ),
            ])]),
        )],
    }
}

/// The socket serving tier under sustained mixed load: one cell per client
/// count, each driving Poisson-paced heuristic + exact + simulator traffic
/// through a real TCP server (`cr_service::net`) via the `cr-loadgen` core,
/// recording p50/p95/p99 request latencies and aggregate throughput (the
/// `latency` rows of `BENCH_pipeline.json`).  One server — and therefore
/// one warm conversion cache — serves all cells, mirroring production.
/// A fifth cell measures deadline enforcement: over-deadline pathological
/// solves must answer `deadline_exceeded` with p99 wall latency within
/// the deadline plus one cancellation check interval.
fn run_socket_serving_table(reduced: bool) -> TableTiming {
    const CLIENT_COUNTS: [usize; 4] = [1, 2, 4, 8];
    let requests_per_client = if reduced { 8 } else { 32 };
    let service = std::sync::Arc::new(cr_service::SolverService::with_standard_registry());
    let handle = cr_service::net::Server::spawn(
        service,
        "127.0.0.1:0",
        cr_service::net::ServerConfig::default(),
    )
    .expect("spawn serving-latency socket server");
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let float = |x: f64| serde::Value::Number(serde::Number::Float(round2(x)));
    let start = Instant::now();
    let mut per_cell_ms = Vec::with_capacity(CLIENT_COUNTS.len());
    let mut latency_rows = Vec::with_capacity(CLIENT_COUNTS.len());
    for &clients in &CLIENT_COUNTS {
        let config = cr_bench::loadgen::LoadConfig {
            clients,
            requests_per_client,
            rate_hz: 200.0,
            seed: 0x10AD_6E17 + clients as u64,
            // Single-resource traffic keeps these latency cells comparable
            // release to release; multi-resource cost has its own table.
            multi_every: 0,
        };
        let report = cr_bench::loadgen::run(handle.addr(), &config);
        assert_eq!(
            report.answered(),
            clients * requests_per_client,
            "every load request must be answered"
        );
        assert_eq!(report.rejected, 0, "sustained load must not be shed");
        assert_eq!(
            report.retry_exhausted, 0,
            "no request may exhaust its retry budget under sustained load"
        );
        per_cell_ms.push(report.wall_secs * 1e3);
        latency_rows.push(serde::Value::Object(vec![
            (
                "clients".to_string(),
                serde::Value::Number(serde::Number::Int(clients as i128)),
            ),
            ("p50_ms".to_string(), float(report.p50_ms)),
            ("p95_ms".to_string(), float(report.p95_ms)),
            ("p99_ms".to_string(), float(report.p99_ms)),
            (
                "requests_per_sec".to_string(),
                float(report.requests_per_sec),
            ),
        ]));
    }
    // Deadline-enforcement cell: each over-deadline pathological request
    // is its own flush, so every solve has an observable wall latency
    // bounded by its deadline rather than by the brute-force search it
    // would otherwise run for minutes.
    const DEADLINE_MS: u64 = 100;
    let deadline_requests = if reduced { 4 } else { 8 };
    let cell_start = Instant::now();
    let mut deadline_lats = Vec::with_capacity(deadline_requests);
    {
        use std::io::{BufRead, BufReader, Write};
        let stream = std::net::TcpStream::connect(handle.addr())
            .expect("connect deadline-enforcement client");
        let mut writer = stream.try_clone().expect("clone deadline stream");
        let mut reader = BufReader::new(stream);
        let line = cr_bench::chaos::pathological_line(DEADLINE_MS);
        for _ in 0..deadline_requests {
            let sent = Instant::now();
            writeln!(writer, "{line}\n").expect("send deadline request");
            writer.flush().expect("flush deadline request");
            let mut response = String::new();
            reader
                .read_line(&mut response)
                .expect("read deadline response");
            deadline_lats.push(sent.elapsed().as_secs_f64() * 1e3);
            assert!(
                response.contains("\"kind\":\"deadline_exceeded\""),
                "over-deadline request must answer deadline_exceeded: {response}"
            );
        }
    }
    deadline_lats.sort_by(f64::total_cmp);
    // Nearest-rank p99 (the max at this sample count): the enforcement
    // contract is the deadline plus one cancellation check interval.
    let deadline_p99 = deadline_lats.last().copied().unwrap_or(0.0);
    let bound_ms = (DEADLINE_MS + cr_core::cancel::CHECK_INTERVAL_MS) as f64;
    assert!(
        deadline_p99 <= bound_ms,
        "deadline enforcement p99 {deadline_p99:.1} ms exceeds {bound_ms} ms \
         (deadline {DEADLINE_MS} ms + one check interval)"
    );
    per_cell_ms.push(cell_start.elapsed().as_secs_f64() * 1e3);
    latency_rows.push(serde::Value::Object(vec![
        (
            "deadline_ms".to_string(),
            serde::Value::Number(serde::Number::Int(DEADLINE_MS as i128)),
        ),
        (
            "requests".to_string(),
            serde::Value::Number(serde::Number::Int(deadline_requests as i128)),
        ),
        ("p99_ms".to_string(), float(deadline_p99)),
    ]));
    handle.shutdown();
    handle.join();
    TableTiming {
        title: "Socket serving latency + throughput (cr-loadgen)".to_string(),
        cells: CLIENT_COUNTS.len() + 1,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        max_cell_ms: per_cell_ms.iter().fold(0.0f64, |a, &b| a.max(b)),
        extra: vec![("latency".to_string(), serde::Value::Array(latency_rows))],
    }
}

/// The multi-resource overhead record: the polynomial heuristic line-up
/// over random unit grids carrying `k ∈ {1, 2, 4}` resource layers plus one
/// rotating-bottleneck adversarial instance per `k` — the cost of the
/// vector resource model as the layer count grows (the `overhead` rows of
/// `BENCH_pipeline.json`).  The `k = 1` cell routes through the untouched
/// scalar path, so it doubles as the no-regression anchor the `bench_exact`
/// k=1 comparison also pins.
fn run_multi_resource_table(reduced: bool) -> TableTiming {
    const RESOURCE_COUNTS: [usize; 3] = [1, 2, 4];
    let reps: u64 = if reduced { 1 } else { 3 };
    let (m, n) = if reduced { (4usize, 12usize) } else { (8, 32) };
    let service = shared_service();
    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let start = Instant::now();
    let mut per_cell_ms = Vec::with_capacity(RESOURCE_COUNTS.len());
    let mut overhead_rows = Vec::with_capacity(RESOURCE_COUNTS.len());
    for &resources in &RESOURCE_COUNTS {
        // Same shapes and seeds across cells: only the layer count varies,
        // so the curve isolates the per-resource cost.
        let mut instances: Vec<Instance> = (0..reps)
            .map(|rep| {
                random_multi_unit_instance(&RandomConfig::uniform(m, n), resources, 9000 + rep)
            })
            .collect();
        instances.push(rotating_bottleneck_instance(4, 6, resources));
        let mut solves = 0usize;
        let cell_start = Instant::now();
        for instance in &instances {
            for method in POLY_METHODS {
                let outcome = service
                    .solve(&SolveRequest::new(method, instance.clone()))
                    .expect("multi-resource heuristic solve succeeds");
                black_box(outcome.makespan.expect("heuristics report makespans"));
                solves += 1;
            }
        }
        let elapsed_ms = cell_start.elapsed().as_secs_f64() * 1e3;
        per_cell_ms.push(elapsed_ms);
        overhead_rows.push(serde::Value::Object(vec![
            (
                "resources".to_string(),
                serde::Value::Number(serde::Number::Int(resources as i128)),
            ),
            (
                "solves".to_string(),
                serde::Value::Number(serde::Number::Int(solves as i128)),
            ),
            (
                "wall_ms".to_string(),
                serde::Value::Number(serde::Number::Float(round2(elapsed_ms))),
            ),
        ]));
    }
    TableTiming {
        title: "Multi-resource overhead vs k (heuristics)".to_string(),
        cells: RESOURCE_COUNTS.len(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        max_cell_ms: per_cell_ms.iter().fold(0.0f64, |a, &b| a.max(b)),
        extra: vec![("overhead".to_string(), serde::Value::Array(overhead_rows))],
    }
}

/// The OPT(m) engine's own counters and span times, summed over every span
/// path ending in the expand/filter spans (the searches nest under
/// whatever span the caller has open).
#[derive(Debug, Clone, Copy)]
struct FrontierTotals {
    expand_ns: u64,
    filter_ns: u64,
    candidates: u64,
    survivors: u64,
    checked: u64,
    settled: u64,
}

impl FrontierTotals {
    fn read() -> Self {
        let snapshot = cr_obs::Registry::global().snapshot();
        let span_ns = |name: &str| -> u64 {
            snapshot
                .spans
                .iter()
                .filter(|span| span.path.rsplit('/').next() == Some(name))
                .map(|span| span.total_ns)
                .sum()
        };
        let counter = |name: &str| -> u64 {
            snapshot
                .metrics
                .iter()
                .find(|metric| metric.name == name)
                .and_then(|metric| match metric.value {
                    cr_obs::MetricValue::Counter(value) => Some(value),
                    _ => None,
                })
                .unwrap_or(0)
        };
        FrontierTotals {
            expand_ns: span_ns(cr_obs::names::SPAN_OPTM_EXPAND),
            filter_ns: span_ns(cr_obs::names::SPAN_OPTM_FILTER),
            candidates: counter(cr_obs::names::OPTM_ROUND_CANDIDATES),
            survivors: counter(cr_obs::names::OPTM_ROUND_SURVIVORS),
            checked: counter(cr_obs::names::OPTM_FILTER_CHECKED),
            settled: counter(cr_obs::names::OPTM_FILTER_SETTLED),
        }
    }
}

/// Splits OPT(m) search time into round expansion and the Lemma 4
/// domination filter over a fixed batch of large oversubscribed instances
/// (one cell per instance).  Each cell reads the engine's `optm.expand` /
/// `optm.filter` spans and `optm.round_candidates` /
/// `optm.round_survivors` / `optm.filter_checked` / `optm.filter_settled`
/// counters (candidates in, survivors out, candidates compared row by row,
/// candidates kept by level without a comparison) — the numbers a live
/// `cr-serve` exports in its metrics dump — as registry deltas around one
/// solve, so the sweep runs on the main thread between tables, never
/// beside other solves.
/// Under the `obs-off` feature the breakdown reads zeros.
fn run_frontier_breakdown_table(reduced: bool) -> TableTiming {
    let reps: u64 = if reduced { 1 } else { 3 };
    let wide_m = if reduced { 16 } else { 32 };
    // Dense uniform searches (rounds with many surviving configurations)
    // plus one wide-active-set instance; both oversubscribe the resource.
    let mut instances: Vec<(String, Instance)> = (0..reps)
        .map(|rep| {
            (
                format!("Uniform m=4 n=3 seed={}", 1000 + rep),
                random_unit_instance(&RandomConfig::uniform(4, 3), 1000 + rep),
            )
        })
        .collect();
    instances.push((
        format!("WideOversub m={wide_m}"),
        wide_oversubscribed_instance(wide_m, 4, 3, 12, 90),
    ));

    let round2 = |x: f64| (x * 100.0).round() / 100.0;
    let ms = |ns: u64| serde::Value::Number(serde::Number::Float(round2(ns as f64 / 1e6)));
    let count = |n: u64| serde::Value::Number(serde::Number::Int(i128::from(n)));
    let start = Instant::now();
    let mut per_cell_ms = Vec::with_capacity(instances.len());
    let mut rows = Vec::with_capacity(instances.len());
    for (label, instance) in &instances {
        let before = FrontierTotals::read();
        let cell_start = Instant::now();
        black_box(opt_m_makespan(instance));
        per_cell_ms.push(cell_start.elapsed().as_secs_f64() * 1e3);
        let after = FrontierTotals::read();
        rows.push(serde::Value::Object(vec![
            ("instance".to_string(), serde::Value::String(label.clone())),
            (
                "expand_ms".to_string(),
                ms(after.expand_ns - before.expand_ns),
            ),
            (
                "filter_ms".to_string(),
                ms(after.filter_ns - before.filter_ns),
            ),
            (
                "candidates".to_string(),
                count(after.candidates - before.candidates),
            ),
            (
                "survivors".to_string(),
                count(after.survivors - before.survivors),
            ),
            ("checked".to_string(), count(after.checked - before.checked)),
            ("settled".to_string(), count(after.settled - before.settled)),
        ]));
    }
    TableTiming {
        title: "OPT(m) frontier breakdown".to_string(),
        cells: instances.len(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        max_cell_ms: per_cell_ms.iter().fold(0.0f64, |a, &b| a.max(b)),
        extra: vec![("breakdown".to_string(), serde::Value::Array(rows))],
    }
}

/// Fans a timing-only sweep out with rayon and records its wall time plus
/// the slowest single cell, mirroring `Runner::run_with_timings`.
fn run_timing_table(title: &'static str, cells: &[TimingCell]) -> TableTiming {
    let start = Instant::now();
    let per_cell_ms: Vec<f64> = cells
        .par_iter()
        .map(|(_, work)| {
            let cell_start = Instant::now();
            black_box(work());
            cell_start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    TableTiming {
        title: title.to_string(),
        cells: cells.len(),
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
        max_cell_ms: per_cell_ms.iter().fold(0.0f64, |a, &b| a.max(b)),
        extra: Vec::new(),
    }
}

/// One table's timing record for `BENCH_pipeline.json`.
struct TableTiming {
    title: String,
    cells: usize,
    wall_ms: f64,
    /// Wall time of the slowest single unit of work (one memoized reference
    /// evaluation or one measured cell) — the table's critical cell.
    max_cell_ms: f64,
    /// Additional table-specific JSON entries (e.g. the batch-throughput
    /// curve); appended verbatim to the table object.
    extra: Vec<(String, serde::Value)>,
}

/// Renders the timing baseline (schema: see BENCH_pipeline.json at the repo
/// root).  `threads` is the rayon worker count actually used by this run's
/// parallel fan-out; `reduced` marks a `--reduced` sweep so a shrunken grid
/// can never masquerade as the committed full-grid baseline.
fn timing_json(
    timings: &[TableTiming],
    total_ms: f64,
    total_cells: usize,
    reduced: bool,
) -> String {
    let round1 = |x: f64| (x * 10.0).round() / 10.0;
    let phases: Vec<serde::Value> = timings
        .iter()
        .map(|t| {
            let mut entries = vec![
                ("table".to_string(), serde::Value::String(t.title.clone())),
                (
                    "cells".to_string(),
                    serde::Value::Number(serde::Number::Int(t.cells as i128)),
                ),
                (
                    "wall_ms".to_string(),
                    serde::Value::Number(serde::Number::Float(round1(t.wall_ms))),
                ),
                (
                    "max_cell_ms".to_string(),
                    serde::Value::Number(serde::Number::Float(round1(t.max_cell_ms))),
                ),
            ];
            entries.extend(t.extra.iter().cloned());
            serde::Value::Object(entries)
        })
        .collect();
    let root = serde::Value::Object(vec![
        (
            "benchmark".to_string(),
            serde::Value::String("experiments pipeline".to_string()),
        ),
        ("reduced".to_string(), serde::Value::Bool(reduced)),
        (
            "threads".to_string(),
            serde::Value::Number(serde::Number::Int(rayon::current_num_threads() as i128)),
        ),
        (
            "total_cells".to_string(),
            serde::Value::Number(serde::Number::Int(total_cells as i128)),
        ),
        (
            "total_wall_ms".to_string(),
            serde::Value::Number(serde::Number::Float((total_ms * 10.0).round() / 10.0)),
        ),
        ("tables".to_string(), serde::Value::Array(phases)),
    ]);
    serde_json::to_string_pretty(&root).expect("timing serialization is infallible")
}
