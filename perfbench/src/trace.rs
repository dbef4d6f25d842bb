//! The traced run: the same generated flushes replayed in process, with
//! every call into a layer's public function timed from here.
//!
//! Per flush the layers run one after another, so their self times are
//! simply their durations:
//!
//! * `wire` parse — `wire::parse_request` per line;
//! * `service` prepare — `Prepared::new` per conversion-cache miss;
//! * `solve` — `Registry::solve_cancellable` per request, by family;
//! * `service` fan-out — `SolverService::solve_batch_cancellable` wall time
//!   minus the serial sum of the flush's prepares and solves;
//! * `wire` serialize — `wire::render_item_streamed` per response.
//!
//! Parse + prepare + solve + fan-out + serialize is the flush's layer sum;
//! the socket run's mean flush latency minus the mean layer sum is the
//! residual the layers do not explain (transport, connection threads, the
//! co-located client).

use crate::stats::{mean, percentile_or_zero};
use crate::workload::{FlushStream, Workload};
use cr_algos::solver::{Prepared, SolveRequest, POLY_METHODS};
use cr_core::CancelToken;
use cr_service::wire::{self, BatchItem, StreamPolicy};
use cr_service::SolverService;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// The family a request's solve time is booked under: `heuristic`, `sim`,
/// `bounds`, and for the exact method (the workloads send only OptM) `optm`
/// at k = 1 or `optm_multi` at k >= 2.
fn family(request: &SolveRequest) -> &'static str {
    let method = request.method.as_str();
    if POLY_METHODS.contains(&method) {
        "heuristic"
    } else if method.starts_with("sim:") {
        "sim"
    } else if method == "Bounds" {
        "bounds"
    } else if request.instance.resources() >= 2 {
        "optm_multi"
    } else {
        "optm"
    }
}

/// Engine counters read from the process-wide `cr-obs` registry around the
/// serial solves (names from docs/OBSERVABILITY.md).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// `optm.rounds`.
    pub rounds: u64,
    /// `optm.round_candidates`.
    pub candidates: u64,
    /// `optm.round_survivors`.
    pub survivors: u64,
    /// `subset_dfs.nodes`.
    pub dfs_nodes: u64,
    /// `sim.steps`.
    pub sim_steps: u64,
    /// Conversion-cache hits of the replay's service.
    pub cache_hits: u64,
    /// Conversion-cache misses of the replay's service.
    pub cache_misses: u64,
}

impl Counts {
    fn read() -> Counts {
        let global = cr_obs::Registry::global();
        let value = |name: &str| global.counter(name).value();
        Counts {
            rounds: value(cr_obs::names::OPTM_ROUNDS),
            candidates: value(cr_obs::names::OPTM_ROUND_CANDIDATES),
            survivors: value(cr_obs::names::OPTM_ROUND_SURVIVORS),
            dfs_nodes: value(cr_obs::names::SUBSET_DFS_NODES),
            sim_steps: value(cr_obs::names::SIM_STEPS),
            cache_hits: 0,
            cache_misses: 0,
        }
    }

    fn add_delta(&mut self, before: Counts, after: Counts) {
        self.rounds += after.rounds - before.rounds;
        self.candidates += after.candidates - before.candidates;
        self.survivors += after.survivors - before.survivors;
        self.dfs_nodes += after.dfs_nodes - before.dfs_nodes;
        self.sim_steps += after.sim_steps - before.sim_steps;
    }

    /// `service.cache.hit_ratio`: hits over lookups.
    pub fn hit_ratio(&self) -> f64 {
        ratio(self.cache_hits, self.cache_hits + self.cache_misses)
    }

    /// `optm.survivor_ratio`: filter survivors over candidates.
    pub fn survivor_ratio(&self) -> f64 {
        ratio(self.survivors, self.candidates)
    }
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

/// Raw samples of one traced replay.
#[derive(Debug, Default, Clone)]
pub struct LayerTrace {
    /// Flushes replayed.
    pub flushes: u64,
    /// `wire::parse_request` per line, ns.
    pub parse_ns: Vec<u64>,
    /// `Prepared::new` per cache miss, ns.
    pub prepare_ns: Vec<u64>,
    /// `Registry::solve_cancellable` per request, ns, by family.
    pub solve_ns: BTreeMap<&'static str, Vec<u64>>,
    /// `wire::render_item_streamed` per response, ns.
    pub serialize_ns: Vec<u64>,
    /// Bytes rendered, newlines included.
    pub serialize_bytes: u64,
    /// Sum over flushes of batch wall time minus its serial prepares and
    /// solves, ns (negative when the fan-out runs requests in parallel).
    pub fanout_ns: i128,
    /// Engine and cache counters.
    pub counts: Counts,
    /// Wall time of the whole replay, every call included, ns.
    pub wall_ns: u64,
}

/// Per-flush means of each layer, microseconds, and their sum.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Parse time per flush.
    pub parse_us: f64,
    /// Prepare time per flush.
    pub prepare_us: f64,
    /// Solve time per flush.
    pub solve_us: f64,
    /// Fan-out time per flush.
    pub fanout_us: f64,
    /// Serialize time per flush.
    pub serialize_us: f64,
}

impl Breakdown {
    /// The layer sum per flush.
    pub fn sum_us(&self) -> f64 {
        self.parse_us + self.prepare_us + self.solve_us + self.fanout_us + self.serialize_us
    }

    /// What the layers leave unexplained of a mean flush latency.
    pub fn residual_us(&self, e2e_mean_us: f64) -> f64 {
        e2e_mean_us - self.sum_us()
    }
}

fn total_us(samples: &[u64]) -> f64 {
    samples.iter().map(|&v| v as f64).sum::<f64>() / 1e3
}

impl LayerTrace {
    /// Per-flush layer means.
    pub fn breakdown(&self) -> Breakdown {
        let per_flush = |us: f64| {
            if self.flushes == 0 {
                0.0
            } else {
                us / self.flushes as f64
            }
        };
        let solve: f64 = self.solve_ns.values().map(|s| total_us(s)).sum();
        Breakdown {
            parse_us: per_flush(total_us(&self.parse_ns)),
            prepare_us: per_flush(total_us(&self.prepare_ns)),
            solve_us: per_flush(solve),
            fanout_us: per_flush(self.fanout_ns as f64 / 1e3),
            serialize_us: per_flush(total_us(&self.serialize_ns)),
        }
    }

    /// Solve samples of one family (empty when the workload has none).
    pub fn family(&self, name: &str) -> &[u64] {
        self.solve_ns.get(name).map_or(&[], Vec::as_slice)
    }

    /// The per-layer metrics by `BENCHMARK.json` name (without the ones that
    /// need the socket run: `net.*` and `trace.overhead_ratio`).
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let us = |ns: f64| ns / 1e3;
        let b = self.breakdown();
        let c = &self.counts;
        let responses = self.serialize_ns.len().max(1) as f64;
        vec![
            ("wire.parse.mean_us", us(mean(&self.parse_ns)), "us"),
            (
                "wire.parse.p99_us",
                us(percentile_or_zero(&self.parse_ns, 99) as f64),
                "us",
            ),
            ("wire.serialize.mean_us", us(mean(&self.serialize_ns)), "us"),
            (
                "wire.serialize.p99_us",
                us(percentile_or_zero(&self.serialize_ns, 99) as f64),
                "us",
            ),
            (
                "wire.serialize.bytes",
                self.serialize_bytes as f64 / responses,
                "bytes",
            ),
            ("service.prepare.mean_us", us(mean(&self.prepare_ns)), "us"),
            ("service.cache.hit_ratio", c.hit_ratio(), "ratio"),
            ("service.fanout_us", b.fanout_us, "us"),
            (
                "solve.heuristic.mean_us",
                us(mean(self.family("heuristic"))),
                "us",
            ),
            ("solve.sim.mean_us", us(mean(self.family("sim"))), "us"),
            (
                "solve.bounds.mean_us",
                us(mean(self.family("bounds"))),
                "us",
            ),
            ("solve.optm.mean_us", us(mean(self.family("optm"))), "us"),
            (
                "solve.optm.p90_us",
                us(percentile_or_zero(self.family("optm"), 90) as f64),
                "us",
            ),
            (
                "solve.optm_multi.mean_us",
                us(mean(self.family("optm_multi"))),
                "us",
            ),
            ("optm.rounds", c.rounds as f64, "count"),
            ("optm.round_candidates", c.candidates as f64, "count"),
            ("optm.round_survivors", c.survivors as f64, "count"),
            ("optm.survivor_ratio", c.survivor_ratio(), "ratio"),
            ("subset_dfs.nodes", c.dfs_nodes as f64, "count"),
            ("sim.steps", c.sim_steps as f64, "count"),
            ("trace.layer_sum_us", b.sum_us(), "us"),
        ]
    }
}

/// The flushes the traced run replays: a fixed prefix of every
/// connection's stream, interleaved round-robin as the connections would
/// reach the server, each with the first id the server would assign.
pub fn replay_set(workload: Workload, seed: u64) -> Vec<(u64, Vec<String>)> {
    let per_conn = workload.traced_flushes();
    let streams: Vec<Vec<Vec<String>>> = (0..workload.connections())
        .map(|c| FlushStream::new(workload, seed, c).take(per_conn).collect())
        .collect();
    // Every connection spends id 0 on its warm-up line.
    let mut next_ids = vec![1u64; streams.len()];
    let mut out = Vec::with_capacity(per_conn * streams.len());
    for j in 0..per_conn {
        for (c, stream) in streams.iter().enumerate() {
            let lines = stream[j].clone();
            out.push((next_ids[c], lines));
            next_ids[c] += stream[j].len() as u64;
        }
    }
    out
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Times a layer call when tracing is on; reads no clock when it is off.
#[derive(Clone, Copy)]
struct Stopwatch {
    on: bool,
}

impl Stopwatch {
    fn time<T>(self, call: impl FnOnce() -> T) -> (T, u64) {
        if !self.on {
            return (call(), 0);
        }
        let start = Instant::now();
        let out = call();
        (out, elapsed_ns(start))
    }
}

/// The in-process pipeline the traced run drives: a registry for the serial
/// solves, a service for the fan-out, and the replay's own conversion memo.
pub struct Replayer {
    watch: Stopwatch,
    registry: cr_algos::solver::Registry,
    service: SolverService,
    memo: HashMap<String, Arc<Prepared>>,
    trace: LayerTrace,
}

impl Replayer {
    /// A fresh pipeline; `traced` times every layer call, untraced the same
    /// calls run with only the per-flush wall clock (the difference is the
    /// tracing overhead).
    pub fn new(traced: bool) -> Replayer {
        Replayer {
            watch: Stopwatch { on: traced },
            registry: cr_sim::full_registry(),
            // Cache counters go to a private registry so they count this
            // replay only.
            service: SolverService::with_obs_registry(
                cr_sim::full_registry(),
                cr_obs::Registry::new(),
            ),
            memo: HashMap::new(),
            trace: LayerTrace::default(),
        }
    }

    /// Replays one flush whose first line gets id `first_id`.
    ///
    /// # Errors
    ///
    /// A generated line that does not parse (a benchmark bug).
    pub fn flush(&mut self, first_id: u64, lines: &[String]) -> Result<(), String> {
        let watch = self.watch;
        let never = CancelToken::never();
        let trace = &mut self.trace;
        let flush_start = Instant::now();
        let mut requests = Vec::with_capacity(lines.len());
        let mut ids = Vec::with_capacity(lines.len());
        for (i, line) in lines.iter().enumerate() {
            let (parsed, ns) = watch.time(|| wire::parse_request(line, first_id + i as u64));
            trace.parse_ns.push(ns);
            let parsed = parsed.map_err(|e| format!("generated line does not parse: {e}"))?;
            ids.push(parsed.id);
            requests.push(parsed.request);
        }

        let mut serial_ns = 0u64;
        let mut prepared = Vec::with_capacity(requests.len());
        for request in &requests {
            let key = format!("{:?}", request.instance);
            let hit = self.memo.get(&key).cloned();
            let entry = match hit {
                Some(entry) => entry,
                None => {
                    let (entry, ns) = watch.time(|| Arc::new(Prepared::new(&request.instance)));
                    trace.prepare_ns.push(ns);
                    serial_ns += ns;
                    self.memo.insert(key, Arc::clone(&entry));
                    entry
                }
            };
            prepared.push(entry);
        }

        let before = Counts::read();
        let mut results = Vec::with_capacity(requests.len());
        for (request, prep) in requests.iter().zip(&prepared) {
            let (result, ns) =
                watch.time(|| self.registry.solve_cancellable(request, prep, &never));
            trace.solve_ns.entry(family(request)).or_default().push(ns);
            serial_ns += ns;
            results.push(result);
        }
        trace.counts.add_delta(before, Counts::read());

        let (batch, ns) = watch.time(|| self.service.solve_batch_cancellable(&requests, &never));
        std::hint::black_box(batch);
        trace.fanout_ns += i128::from(ns) - i128::from(serial_ns);

        for ((id, request), result) in ids.into_iter().zip(requests).zip(results) {
            let item = BatchItem::Solved {
                id,
                method: request.method,
                result,
            };
            let (rendered, ns) =
                watch.time(|| wire::render_item_streamed(&item, StreamPolicy::DEFAULT));
            trace.serialize_ns.push(ns);
            trace.serialize_bytes += rendered.iter().map(|l| l.len() as u64 + 1).sum::<u64>();
        }
        trace.flushes += 1;
        trace.wall_ns += elapsed_ns(flush_start);
        Ok(())
    }

    /// The samples so far, with the service's cache counters.
    pub fn finish(self) -> LayerTrace {
        let mut trace = self.trace;
        let (hits, misses, _) = self.service.cache_counters();
        trace.counts.cache_hits = hits;
        trace.counts.cache_misses = misses;
        trace
    }
}

/// Replays every flush through one [`Replayer`].
///
/// # Errors
///
/// A generated line that does not parse (a benchmark bug).
pub fn replay(flushes: &[(u64, Vec<String>)], traced: bool) -> Result<LayerTrace, String> {
    let mut replayer = Replayer::new(traced);
    for (first_id, lines) in flushes {
        replayer.flush(*first_id, lines)?;
    }
    Ok(replayer.finish())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_sum_plus_residual_is_the_end_to_end_mean() {
        // Two flushes: 3 lines each, one prepare each, three solves each.
        let mut trace = LayerTrace {
            flushes: 2,
            parse_ns: vec![1_000, 2_000, 3_000, 1_000, 2_000, 3_000],
            prepare_ns: vec![10_000, 14_000],
            serialize_ns: vec![500; 6],
            serialize_bytes: 600,
            fanout_ns: -8_000,
            ..LayerTrace::default()
        };
        trace.solve_ns.insert("heuristic", vec![20_000; 4]);
        trace.solve_ns.insert("optm", vec![100_000, 60_000]);
        let b = trace.breakdown();
        assert_eq!(b.parse_us, 6.0);
        assert_eq!(b.prepare_us, 12.0);
        assert_eq!(b.solve_us, 120.0);
        assert_eq!(b.fanout_us, -4.0);
        assert_eq!(b.serialize_us, 1.5);
        assert_eq!(b.sum_us(), 135.5);
        let e2e = 200.25;
        assert_eq!(b.residual_us(e2e), 64.75);
        assert_eq!(b.sum_us() + b.residual_us(e2e), e2e);
        let metrics = trace.metrics();
        let get = |name: &str| metrics.iter().find(|m| m.0 == name).map(|m| m.1);
        assert_eq!(get("trace.layer_sum_us"), Some(135.5));
        assert_eq!(get("wire.serialize.bytes"), Some(100.0));
        assert_eq!(get("solve.optm.mean_us"), Some(80.0));
        assert_eq!(get("solve.sim.mean_us"), Some(0.0));
    }

    #[test]
    fn replay_counts_repeat_and_ids_follow_the_warm_up() {
        let set = replay_set(Workload::ServeSmall, 3);
        assert_eq!(set.len(), Workload::ServeSmall.traced_flushes());
        assert_eq!((set[0].0, set[1].0, set[2].0), (1, 2, 3));
        let small: Vec<_> = set.into_iter().take(64).collect();
        let a = replay(&small, true).expect("replay");
        let b = replay(&small, true).expect("replay");
        // Engine counters live in the process-wide registry, which parallel
        // tests also bump; the run itself compares them (see main.rs).
        assert_eq!(
            (a.counts.cache_hits, a.counts.cache_misses),
            (b.counts.cache_hits, b.counts.cache_misses)
        );
        assert_eq!(a.flushes, 64);
        assert_eq!(a.parse_ns.len(), 64);
        assert_eq!(
            a.counts.cache_misses, 64,
            "every serve-small instance is fresh"
        );
    }
}
