//! Solver timing: the exact solvers, the scheduling heuristics and the
//! online simulator, each on its integer grid.
//!
//! Every case dispatches through the shared solver registry (the same
//! `cr_algos::solver` surface `cr-serve` exposes).  The offline methods pin
//! [`EnginePreference::Scaled`]; the online simulator methods (`sim:*`) run
//! through `Auto`.  Every method runs on integer grids only, so each cell
//! times that one core: the heuristics' cross-check against their `Ratio`
//! references lives in `cr-algos`'s `proptest_scaled_sched`, the exact
//! solvers' in the other `cr-algos` tests.  Every `OptM` cell requests the
//! schedule, and so times the configuration search plus the replay of its
//! schedule, except the six `(makespan)` cells.  Those time makespan-only
//! requests, which OptM answers by a rule or interval certificate or by the
//! depth-first decision, with the search as the decision's fallback: on the
//! first grids of a fixed seed that no rule certifies — ten `Uniform m=4
//! n=3`, six long-chain `Uniform m=3 n=20` (the decision answers four and
//! runs out of work on two, which the search then answers), one `Uniform
//! m=2 n=512` (past the decision's 64-step horizon, so the search answers)
//! and ten each of `Uniform m=3 n=3` and `m=4 n=3` with two resource
//! layers — and on `WideOversub m=48`.
//!
//! Each cell runs in fresh processes — the binary re-executes itself with
//! the internal `--cell INDEX` argument and reads back one result line — so
//! a cell's time does not depend on the heap that earlier cells left
//! behind.  Every cell runs in three such children, one per pass over the
//! whole line-up, and reports the median of their medians, so a slow phase
//! of the host moves one of a cell's three children, not the cell.
//!
//! Writes `BENCH_exact.json` with per-case medians (the pipeline-level
//! number lives in `BENCH_pipeline.json`).
//!
//! Usage: `cargo run --release -p cr-bench --bin bench_exact --
//! [--out-dir DIR] [--iters N]` (`N` iterations per child).

#![forbid(unsafe_code)]

use cr_algos::solver::{EnginePreference, SolveRequest, POLY_METHODS};
use cr_bench::pipeline::shared_service;
use cr_core::Instance;
use cr_instances::{
    generate_workload, random_multi_unit_instance, random_unit_instance,
    wide_oversubscribed_instance, RandomConfig, RequirementProfile, TaskMix, WorkloadConfig,
};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

struct Args {
    out_dir: PathBuf,
    iters: usize,
    /// The one cell a child process times (the re-exec protocol).
    cell: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        out_dir: PathBuf::from("."),
        iters: 5,
        cell: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--out-dir" => {
                args.out_dir = PathBuf::from(iter.next().expect("--out-dir requires a value"));
            }
            "--iters" => {
                args.iters = iter
                    .next()
                    .expect("--iters requires a value")
                    .parse()
                    .expect("invalid iteration count");
            }
            "--cell" => {
                args.cell = Some(
                    iter.next()
                        .expect("--cell requires a value")
                        .parse()
                        .expect("invalid cell index"),
                );
            }
            "--help" | "-h" => {
                println!("usage: bench_exact [--out-dir DIR] [--iters N (per child)]");
                std::process::exit(0);
            }
            other => panic!("unknown flag `{other}` (try --help)"),
        }
    }
    args
}

/// Median wall time in milliseconds of `iters` runs of `f` (which must
/// return a checksum so the work cannot be optimized away).
fn median_ms(iters: usize, mut f: impl FnMut() -> usize) -> (f64, usize) {
    let mut times = Vec::with_capacity(iters);
    let mut checksum = 0usize;
    for _ in 0..iters {
        let start = Instant::now();
        checksum = f();
        times.push(start.elapsed().as_secs_f64() * 1e3);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], checksum)
}

/// Solves `method` on `instance` with a pinned engine preference through
/// the shared registry and returns the makespan.
fn method_makespan(
    method: &str,
    engine: EnginePreference,
    makespan_only: bool,
    instance: &Instance,
) -> usize {
    let mut request = SolveRequest::new(method, instance.clone()).with_engine(engine);
    if method == "OptM" && !makespan_only {
        // A makespan-only request may be answered without the search;
        // asking for the schedule keeps the cell on it.
        request = request.with_schedule();
    }
    shared_service()
        .solve(&request)
        .unwrap_or_else(|e| panic!("bench solve failed for {method}: {e}"))
        .makespan
        .expect("bench methods report makespans")
}

/// One timed (case, method) pair.  The instances are built only in the
/// process that times the cell.
struct Cell {
    case: String,
    method: &'static str,
    /// An `OptM` cell that asks for the makespan only.
    makespan_only: bool,
    instances: Box<dyn Fn() -> Vec<Instance>>,
}

impl Cell {
    fn new(
        case: impl Into<String>,
        method: &'static str,
        instances: impl Fn() -> Vec<Instance> + 'static,
    ) -> Self {
        Cell {
            case: case.into(),
            method,
            makespan_only: false,
            instances: Box::new(instances),
        }
    }

    /// A makespan-only `OptM` cell.
    fn makespan_only(
        case: impl Into<String>,
        instances: impl Fn() -> Vec<Instance> + 'static,
    ) -> Self {
        Cell {
            makespan_only: true,
            ..Cell::new(case, "OptM", instances)
        }
    }
}

/// The first `count` `Uniform m×n` grids with `k` resource layers, over
/// seeds 1000, 1001, …, that no polynomial rule certifies: every rule ends
/// above the trivial bound.
fn uncertified_grids(m: usize, n: usize, k: usize, count: usize) -> Vec<Instance> {
    let service = shared_service();
    let cfg = RandomConfig::uniform(m, n);
    (1000..)
        .map(|seed| {
            if k == 1 {
                random_unit_instance(&cfg, seed)
            } else {
                random_multi_unit_instance(&cfg, k, seed)
            }
        })
        .filter(|instance| {
            POLY_METHODS.into_iter().all(|method| {
                let outcome = service
                    .solve(&SolveRequest::new(method, instance.clone()))
                    .unwrap_or_else(|e| panic!("bench solve failed for {method}: {e}"));
                outcome.makespan > Some(outcome.lower_bounds.trivial)
            })
        })
        .take(count)
        .collect()
}

#[derive(Clone)]
struct CaseResult {
    case: String,
    solver: String,
    instances: usize,
    scaled_ms: f64,
}

/// Every cell, in report order.
fn cells() -> Vec<Cell> {
    let mut cells = Vec::new();

    // The random-exact grid's (m, n, profile) sweep — the pipeline's hot set.
    for (m, n) in [(2usize, 4usize), (3, 3), (3, 4), (4, 3)] {
        for profile in [RequirementProfile::Uniform, RequirementProfile::Light] {
            let cfg = RandomConfig {
                profile,
                ..RandomConfig::uniform(m, n)
            };
            cells.push(Cell::new(
                format!("{profile:?} m={m} n={n}"),
                "OptM",
                move || {
                    (0..10)
                        .map(|rep| random_unit_instance(&cfg, 1000 + rep))
                        .collect()
                },
            ));
        }
    }

    // Wide-m oversubscribed instances: 32 or more simultaneously active
    // processors were a hard error before ISSUE 4 (the scaled engine
    // asserted, the rational path shift-overflowed its u32 subset mask).
    // The family keeps the active set at full width while the heavy chains
    // oversubscribe the resource; see
    // `cr_instances::wide_oversubscribed_instance`.
    for m in [16usize, 32, 48] {
        cells.push(Cell::new(format!("WideOversub m={m}"), "OptM", move || {
            vec![wide_oversubscribed_instance(m, 4, 3, 12, 90)]
        }));
    }

    // Makespan-only OptM: the certificates and the depth-first decision,
    // on short chains, on long ones (decisions and fallbacks), past the
    // decision's horizon and on two resource layers.
    for (m, n, count) in [(4usize, 3usize, 10usize), (3, 20, 6), (2, 512, 1)] {
        cells.push(Cell::makespan_only(
            format!("Uniform m={m} n={n} no rule at LB (makespan)"),
            move || uncertified_grids(m, n, 1, count),
        ));
    }
    cells.push(Cell::makespan_only("WideOversub m=48 (makespan)", || {
        vec![wide_oversubscribed_instance(48, 4, 3, 12, 90)]
    }));
    for m in [3usize, 4] {
        cells.push(Cell::makespan_only(
            format!("Uniform m={m} n=3 k=2 no rule at LB (makespan)"),
            move || uncertified_grids(m, 3, 2, 10),
        ));
    }

    // The two-processor DP at sizes where the O(n²) table dominates.
    for n in [128usize, 512, 1024] {
        cells.push(Cell::new(
            format!("Uniform m=2 n={n}"),
            "OptTwo",
            move || vec![random_unit_instance(&RandomConfig::uniform(2, n), 11)],
        ));
    }

    // Brute force on a three-processor reference workload.
    cells.push(Cell::new("Uniform m=3 n=4", "BruteForce", || {
        (0..5)
            .map(|rep| random_unit_instance(&RandomConfig::uniform(3, 4), 2000 + rep))
            .collect()
    }));

    // The scheduling layer: all six polynomial methods, straight off the
    // registry.
    for (m, n) in [(8usize, 48usize), (16, 64)] {
        for method in POLY_METHODS {
            cells.push(Cell::new(
                format!("Uniform m={m} n={n}"),
                method,
                move || {
                    (0..8)
                        .map(|rep| random_unit_instance(&RandomConfig::uniform(m, n), 3000 + rep))
                        .collect()
                },
            ));
        }
    }

    // The online simulator methods.
    for (cores, mix) in [(16usize, TaskMix::Mixed), (64, TaskMix::IoBound)] {
        let cfg = WorkloadConfig {
            cores,
            phases_per_task: 16,
            mix,
            denominator: 100,
            unit_phases: true,
        };
        for sim_method in [
            "sim:GreedyBalance",
            "sim:RoundRobin",
            "sim:EqualShare",
            "sim:ProportionalShare",
        ] {
            cells.push(Cell::new(
                format!("{mix:?} cores={cores}"),
                sim_method,
                move || {
                    (0..4)
                        .map(|rep| generate_workload(&cfg, 9000 + cores as u64 + rep))
                        .collect()
                },
            ));
        }
    }
    cells
}

/// Times `cell` in this process: returns (instances, median ms).
fn measure(cell: &Cell, iters: usize) -> (usize, f64) {
    let instances = (cell.instances)();
    // The sim:* methods reject the pinned preference of the offline ones.
    let engine = if cell.method.starts_with("sim:") {
        EnginePreference::Auto
    } else {
        EnginePreference::Scaled
    };
    let (ms, _) = median_ms(iters, || {
        instances
            .iter()
            .map(|i| method_makespan(cell.method, engine, cell.makespan_only, i))
            .sum()
    });
    (instances.len(), ms)
}

/// How many fresh children time each cell.
const CHILDREN: usize = 3;

/// Times cell `index` in a fresh child process of this binary: the median
/// of its `iters` runs.
fn measure_in_child(index: usize, cell: &Cell, iters: usize) -> CaseResult {
    let exe = std::env::current_exe().expect("locate the bench_exact binary");
    let output = Command::new(exe)
        .args(["--cell", &index.to_string(), "--iters", &iters.to_string()])
        .output()
        .expect("run a bench_exact cell");
    assert!(
        output.status.success(),
        "cell {index} ({} {}) failed: {}",
        cell.case,
        cell.method,
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8(output.stdout).expect("cell output is UTF-8");
    let fields: Vec<&str> = stdout.split_whitespace().collect();
    let [instances, scaled_ms] = fields[..] else {
        panic!("cell {index}: unexpected output {stdout:?}");
    };
    CaseResult {
        case: cell.case.clone(),
        solver: cell.method.to_string(),
        instances: instances.parse().expect("instance count"),
        scaled_ms: scaled_ms.parse().expect("scaled ms"),
    }
}

fn main() {
    let args = parse_args();
    let cells = cells();
    if let Some(index) = args.cell {
        let cell = cells.get(index).expect("cell index in range");
        let (instances, scaled_ms) = measure(cell, args.iters);
        println!("{instances} {scaled_ms}");
        return;
    }
    // One pass over the line-up per child, so that a cell's children run
    // far apart in time; each cell reports the median of their medians.
    let passes: Vec<Vec<CaseResult>> = (0..CHILDREN)
        .map(|_| {
            cells
                .iter()
                .enumerate()
                .map(|(index, cell)| measure_in_child(index, cell, args.iters))
                .collect()
        })
        .collect();
    let results: Vec<CaseResult> = (0..cells.len())
        .map(|index| {
            let mut times: Vec<f64> = passes.iter().map(|pass| pass[index].scaled_ms).collect();
            times.sort_by(f64::total_cmp);
            CaseResult {
                scaled_ms: times[CHILDREN / 2],
                ..passes[0][index].clone()
            }
        })
        .collect();

    println!(
        "{:<24} {:<24} {:>6} {:>12}",
        "case", "solver", "insts", "scaled ms"
    );
    for r in &results {
        println!(
            "{:<24} {:<24} {:>6} {:>12.3}",
            r.case, r.solver, r.instances, r.scaled_ms
        );
    }

    let json = results_json(&results);
    std::fs::create_dir_all(&args.out_dir).expect("create output directory");
    let path = args.out_dir.join("BENCH_exact.json");
    std::fs::write(&path, json).expect("write BENCH_exact.json");
    println!("\nwrote {}", path.display());
}

fn results_json(results: &[CaseResult]) -> String {
    let round = |x: f64| (x * 1000.0).round() / 1000.0;
    let float = |x: f64| serde::Value::Number(serde::Number::Float(round(x)));
    let cases: Vec<serde::Value> = results
        .iter()
        .map(|r| {
            serde::Value::Object(vec![
                ("case".to_string(), serde::Value::String(r.case.clone())),
                ("solver".to_string(), serde::Value::String(r.solver.clone())),
                (
                    "instances".to_string(),
                    serde::Value::Number(serde::Number::Int(r.instances as i128)),
                ),
                ("scaled_ms".to_string(), float(r.scaled_ms)),
            ])
        })
        .collect();
    let root = serde::Value::Object(vec![
        (
            "benchmark".to_string(),
            serde::Value::String(
                "solver cores: exact methods, heuristics and simulator on their integer grids"
                    .to_string(),
            ),
        ),
        ("cases".to_string(), serde::Value::Array(cases)),
    ]);
    serde_json::to_string_pretty(&root).expect("benchmark serialization is infallible")
}
