//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run starts `cr-serve --listen` as a separate process (several times,
//! to time set-up), drives one workload over real sockets for `--seconds`,
//! stops the server, checks every response against the in-process
//! reference, and prints every metric by name with its unit.  With
//! `--trace 1` it also replays the same generated flushes in process with
//! each layer call timed, and prints the per-layer metrics instead.  The
//! last stdout line is the JSON result; a wrong answer exits non-zero.
//! See README.md for the workloads and what each metric should move.

#![forbid(unsafe_code)]

mod drive;
mod server;
mod stats;
mod trace;
mod verify;
mod workload;

use server::{Conn, Server};
use stats::{mean, median, sliced_percentile};
use std::io;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workload::{Workload, WARMUP_LINE};

/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;

/// A percentile is reported only with at least this many samples beyond it.
const MIN_TAIL_SAMPLES: usize = 10;

const USAGE: &str = "usage: perfbench --server PATH --workload NAME --seed N --seconds S \
--trace 0|1\nworkloads: serve-small, batch-shared, exact-frontier";

struct Args {
    server: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value)),
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

/// One metric of the result line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Starts the server, opens every connection and completes one warm-up
/// flush on each; returns the ready server, its connections and the time
/// all of that took.
fn set_up(binary: &Path, workload: Workload) -> io::Result<(Server, Vec<Conn>, f64)> {
    let start = Instant::now();
    let (server, mut conns) = Server::start(binary, workload.connections())?;
    let warm_up = [WARMUP_LINE.to_string()];
    for conn in &mut conns {
        let mut answer = Vec::new();
        conn.round_trip(&warm_up, &mut answer)?;
        if !answer.iter().all(|a| a.contains(r#""error":null"#)) {
            return Err(io::Error::other(format!(
                "warm-up flush failed: {answer:?}"
            )));
        }
    }
    Ok((server, conns, start.elapsed().as_secs_f64()))
}

/// [`set_up`] `SETUP_REPS` times, draining all but the last server; returns
/// the last one with the median set-up time.
fn set_up_repeatedly(binary: &Path, workload: Workload) -> io::Result<(Server, Vec<Conn>, f64)> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    loop {
        let (server, conns, seconds) = set_up(binary, workload)?;
        times.push(seconds);
        if times.len() == SETUP_REPS {
            return Ok((server, conns, median(&times)));
        }
        drop(conns);
        server.shutdown()?;
    }
}

struct Outcome {
    verdict: verify::Verdict,
    metrics: Vec<Metric>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let workload = args.workload;
    let (server, conns, setup_s) =
        set_up_repeatedly(&args.server, workload).map_err(|e| format!("set-up: {e}"))?;
    let cpu_before = server.cpu_us().map_err(|e| format!("server cpu: {e}"))?;
    let window = drive::closed_loop(workload, args.seed, conns, args.seconds)
        .map_err(|e| format!("load: {e}"))?;
    let cpu_us = server.cpu_us().map_err(|e| format!("server cpu: {e}"))? - cpu_before;
    let peak_rss_mb = server
        .peak_rss_mb()
        .map_err(|e| format!("server rss: {e}"))?;
    let shed = server.shed().map_err(|e| format!("stats frame: {e}"))?;
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;

    let verdict = verify::verify(workload, args.seed, &window);
    let rows = window.rows();
    let series = window.latency_series();
    let flushes: usize = series.iter().map(Vec::len).sum();
    let (slices, tail_pct) = (workload.slices(), workload.tail_percentile());
    let (p50, _) = sliced_percentile(&series, slices, 50).ok_or("a slice has no flush")?;
    let (tail, beyond) =
        sliced_percentile(&series, slices, tail_pct).ok_or("a slice has no flush")?;
    if beyond < MIN_TAIL_SAMPLES {
        return Err(format!(
            "only {beyond} samples beyond p{tail_pct} in a slice ({flushes} flushes, \
             {slices} slices); run longer"
        ));
    }
    let e2e_mean_us = mean(&series.concat()) / 1e3;
    // The residual reconciles against latency from when the server could
    // start on a flush, so it holds no queueing behind the flush ahead.
    let service_mean_us = mean(&window.service_ns()) / 1e3;
    let attempted = verdict.attempted.max(1) as f64;
    println!(
        "# {} seed {}: {} connection(s), window {:.3} s, {} rows in {} flushes, \
         median over {slices} slice(s) of p50 {:.4} ms and p{tail_pct} {:.4} ms (>= {} beyond), \
         mean {:.2} us (from service start {:.2} us), setup {:.4} s",
        workload.name(),
        args.seed,
        window.conns.len(),
        window.seconds,
        rows,
        flushes,
        p50 / 1e6,
        tail / 1e6,
        beyond,
        e2e_mean_us,
        service_mean_us,
        setup_s,
    );
    if let Some(failure) = &verdict.first_failure {
        println!(
            "# FAILED {} of {} rows; first: {failure}",
            verdict.failed, verdict.attempted
        );
    }

    let metrics = if args.trace {
        traced_metrics(workload, args.seed, service_mean_us, shed)?
    } else {
        vec![
            metric("throughput_rps", rows as f64 / window.seconds, "rows/s"),
            metric("latency_p50_ms", p50 / 1e6, "ms"),
            metric("latency_tail_ms", tail / 1e6, "ms"),
            metric(
                "ok_frac",
                (attempted - verdict.failed as f64) / attempted,
                "frac",
            ),
            metric("setup_s", setup_s, "s"),
            metric("cpu_us_per_req", cpu_us / rows.max(1) as f64, "us/row"),
            metric("peak_rss_mb", peak_rss_mb, "MB"),
        ]
    };
    Ok(Outcome { verdict, metrics })
}

/// The traced run: three in-process replays of the same flushes whose
/// counts must repeat exactly.  `service_mean_us` is the socket run's mean
/// flush latency from service start, which the layers and the residual
/// add up to.
fn traced_metrics(
    workload: Workload,
    seed: u64,
    service_mean_us: f64,
    shed: u64,
) -> Result<Vec<Metric>, String> {
    let flushes = trace::replay_set(workload, seed);
    // The first traced replay also warms the process; then an untraced and
    // a traced replay take turns flush by flush, leading alternately, so
    // drift in the host's speed hits both alike.
    let first = trace::replay(&flushes, true)?;
    let mut untraced = trace::Replayer::new(false);
    let mut traced = trace::Replayer::new(true);
    for (i, (first_id, lines)) in flushes.iter().enumerate() {
        let (lead, follow) = if i % 2 == 0 {
            (&mut untraced, &mut traced)
        } else {
            (&mut traced, &mut untraced)
        };
        lead.flush(*first_id, lines)?;
        follow.flush(*first_id, lines)?;
    }
    let (untraced, traced) = (untraced.finish(), traced.finish());
    for other in [&first, &untraced] {
        if other.counts != traced.counts {
            return Err(format!(
                "replay counts did not repeat on the same seed: {:?} vs {:?}",
                other.counts, traced.counts
            ));
        }
    }
    let b = traced.breakdown();
    println!(
        "# reconcile per flush ({} flushes): parse {:.3} + prepare {:.3} + solve {:.3} + \
         fanout {:.3} + serialize {:.3} = {:.3} us; + residual {:.3} = socket mean from service start {:.3} us",
        traced.flushes,
        b.parse_us,
        b.prepare_us,
        b.solve_us,
        b.fanout_us,
        b.serialize_us,
        b.sum_us(),
        b.residual_us(service_mean_us),
        service_mean_us,
    );
    let mut metrics = vec![
        metric("net.residual_us", b.residual_us(service_mean_us), "us"),
        metric("net.shed", shed as f64, "count"),
    ];
    metrics.extend(
        traced
            .metrics()
            .into_iter()
            .map(|(name, value, unit)| metric(name, value, unit)),
    );
    let overhead = traced.wall_ns as f64 / untraced.wall_ns.max(1) as f64;
    metrics.push(metric("trace.overhead_ratio", overhead, "ratio"));
    Ok(metrics)
}

fn result_line(outcome: &Outcome) -> Result<String, String> {
    let mut fields = Vec::with_capacity(outcome.metrics.len());
    for m in &outcome.metrics {
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        fields.push(format!(
            r#""{}": {{"value": {}, "unit": "{}"}}"#,
            m.name, m.value, m.unit
        ));
    }
    let v = &outcome.verdict;
    Ok(format!(
        r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
        v.failed == 0,
        v.attempted.max(1),
        v.failed,
        fields.join(", ")
    ))
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("perfbench: {message}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args).and_then(|outcome| result_line(&outcome).map(|l| (outcome, l)));
    match outcome {
        Ok((outcome, line)) => {
            for m in &outcome.metrics {
                println!("# {:<26} {:>16.4} {}", m.name, m.value, m.unit);
            }
            println!("{line}");
            if outcome.verdict.failed > 0 {
                std::process::exit(1);
            }
        }
        Err(message) => {
            eprintln!("perfbench: {message}");
            std::process::exit(1);
        }
    }
}
