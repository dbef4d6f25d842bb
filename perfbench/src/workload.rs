//! The three workloads: what each connection sends, flush by flush.
//!
//! Every byte a workload sends is a pure function of `(workload, seed,
//! connection)`, so the verification pass and the traced replay regenerate
//! exactly the flushes the socket run sent.

use cr_algos::solver::POLY_METHODS;
use cr_bench::loadgen::request_line;
use cr_sim::ONLINE_METHODS;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

/// OPT(m) requests in the fixed `exact-frontier` set (one pass).
/// 45 puts the p50 and p90 ranks in the middle of one instance's repeats
/// (22.5 and 40.5 passes' worth of samples) instead of on the boundary
/// between two instances, where they would flip between the two.
pub const FRONTIER_SET: usize = 45;

/// Generator seed of the `exact-frontier` set.  The set is part of the
/// workload's definition: per-instance OPT(m) cost is heavy-tailed, so a
/// seed-drawn set would make runs on different seeds incomparable.  The run
/// seed permutes each instance's processors (same search, same answer,
/// different bytes) and the order of every pass.
const FRONTIER_SET_SEED: u64 = 0xF207_7E12;

/// The one-line flush every connection completes before the timed window.
pub const WARMUP_LINE: &str = r#"{"method":"GreedyBalance","rows":[[50,50],[50,50]]}"#;

/// Every `MULTI_EVERY`-th `serve-small` request carries a second resource
/// layer (`k = 2`).
const MULTI_EVERY: usize = 4;

/// The four extra requests of a `batch-shared` flush (after the six
/// heuristics, the four `sim:*` policies, `OptM` and `Bounds`); on `k = 1`
/// flushes they ask for the schedule.
const SHARED_EXTRAS: [&str; 4] = ["GreedyBalance", "RoundRobin", "EqualShare", "OptM"];

/// Position of the `OptM` row in a `batch-shared` flush.
pub const SHARED_OPTM_ROW: usize = POLY_METHODS.len() + ONLINE_METHODS.len();

/// Position of the `Bounds` row in a `batch-shared` flush.
pub const SHARED_BOUNDS_ROW: usize = SHARED_OPTM_ROW + 1;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Closed loop, one `request_line` request per flush, two in flight.
    ServeSmall,
    /// Closed loop, 16-request flushes on one fresh instance.
    BatchShared,
    /// Closed loop, 1 connection, whole passes over a fixed OPT(m) set.
    ExactFrontier,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::ServeSmall,
        Workload::BatchShared,
        Workload::ExactFrontier,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeSmall => "serve-small",
            Workload::BatchShared => "batch-shared",
            Workload::ExactFrontier => "exact-frontier",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections (and client threads driving them).  One: with
    /// two, client and server threads outnumbered the reference host's two
    /// cores, and throughput followed where the scheduler put them.
    pub fn connections(self) -> usize {
        1
    }

    /// Flushes a closed-loop connection keeps in flight.
    pub fn pipeline_depth(self) -> usize {
        match self {
            Workload::ServeSmall => 2,
            _ => 1,
        }
    }

    /// The percentile `latency_tail_ms` reports.  `batch-shared` uses p95:
    /// its p99 sits on the few heaviest k = 2 OptM instances a seed draws and
    /// read 22 to 29 ms across seeds at the same CPU cost per request.
    /// `exact-frontier` uses p90: a 20 s run has only ~300 samples.
    pub fn tail_percentile(self) -> u32 {
        match self {
            Workload::ServeSmall => 99,
            Workload::BatchShared => 95,
            Workload::ExactFrontier => 90,
        }
    }

    /// Time slices the window's latencies are cut into; the latency metrics
    /// are the median over slices of each slice's percentile, so a host
    /// stall in a few slices does not move them.  Every slice keeps at least
    /// ten samples beyond the tail percentile in a 10 s run, half the
    /// benchmark's run length.
    /// `exact-frontier` has one slice: it is judged over whole passes.
    pub fn slices(self) -> usize {
        match self {
            Workload::ServeSmall => 10,
            Workload::BatchShared => 5,
            Workload::ExactFrontier => 1,
        }
    }

    /// A closed-loop connection stops only after a multiple of this many
    /// flushes, so `exact-frontier` always runs whole passes.
    pub fn pass_len(self) -> usize {
        match self {
            Workload::ExactFrontier => FRONTIER_SET,
            _ => 1,
        }
    }

    /// Flushes per connection the traced in-process replay covers: a fixed
    /// prefix of each connection's stream, so traced counts repeat exactly.
    pub fn traced_flushes(self) -> usize {
        match self {
            Workload::ServeSmall => 3000,
            Workload::BatchShared => 300,
            Workload::ExactFrontier => FRONTIER_SET,
        }
    }

    /// Whether request lines carry their own `id`, so a line's response is
    /// the same wherever it appears (the reference can be memoized by line).
    pub fn explicit_ids(self) -> bool {
        self == Workload::ExactFrontier
    }
}

/// The per-connection generator seed (distinct streams per connection).
fn connection_seed(seed: u64, connection: usize) -> u64 {
    seed.wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(connection as u64 + 1))
}

/// A percent grid of `rows` x `cols` requirements in `[lo, 100]`.
fn percent_grid(rng: &mut StdRng, rows: usize, cols: usize, lo: u64) -> Vec<Vec<u64>> {
    (0..rows)
        .map(|_| (0..cols).map(|_| rng.random_range(lo..=100)).collect())
        .collect()
}

/// Renders a percent grid as JSON.
fn grid_json(grid: &[Vec<u64>]) -> String {
    let rows: Vec<String> = grid
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(u64::to_string).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("[{}]", rows.join(","))
}

/// Fisher-Yates shuffle driven by the vendored generator.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.random_range(0..=i));
    }
}

/// The `exact-frontier` request lines for `seed`: the fixed set, each
/// instance's processors permuted by the run seed.
fn frontier_lines(seed: u64) -> Vec<String> {
    let mut set_rng = StdRng::seed_from_u64(FRONTIER_SET_SEED);
    let mut perm_rng = StdRng::seed_from_u64(seed ^ 0x5EED_F207);
    (0..FRONTIER_SET)
        .map(|id| {
            let mut grid = percent_grid(&mut set_rng, 4, 3, 1);
            shuffle(&mut perm_rng, &mut grid);
            format!(
                r#"{{"id":{id},"method":"OptM","rows":{}}}"#,
                grid_json(&grid)
            )
        })
        .collect()
}

/// One `batch-shared` flush: sixteen requests on one fresh 3x3 instance.
/// Two flushes in three add a second resource layer and then ask for no
/// schedules; with k = 1 and k = 2 flushes taking ~0.3 ms and ~1.4 ms, a
/// one-to-one mix would put the median flush latency on the gap between the
/// two clusters.
fn shared_flush(rng: &mut StdRng, index: usize) -> Vec<String> {
    let rows = grid_json(&percent_grid(rng, 3, 3, 1));
    let multi = index % 3 != 0;
    let resources = if multi {
        format!(
            r#","resources":[{}]"#,
            grid_json(&percent_grid(rng, 3, 3, 1))
        )
    } else {
        String::new()
    };
    let plain = POLY_METHODS
        .iter()
        .chain(ONLINE_METHODS.iter())
        .chain(["OptM", "Bounds"].iter())
        .map(|method| format!(r#"{{"method":"{method}","rows":{rows}{resources}}}"#));
    let want = if multi {
        ""
    } else {
        r#","want_schedule":true"#
    };
    let extras = SHARED_EXTRAS
        .iter()
        .map(|method| format!(r#"{{"method":"{method}","rows":{rows}{resources}{want}}}"#));
    plain.chain(extras).collect()
}

/// The flushes one connection sends, in order (an endless iterator).
pub struct FlushStream {
    workload: Workload,
    rng: StdRng,
    index: usize,
    frontier: Vec<String>,
    pass_order: Vec<usize>,
}

impl FlushStream {
    /// Connection `connection`'s stream of `workload` under `seed`.
    pub fn new(workload: Workload, seed: u64, connection: usize) -> FlushStream {
        let frontier = if workload == Workload::ExactFrontier {
            frontier_lines(seed)
        } else {
            Vec::new()
        };
        FlushStream {
            workload,
            rng: StdRng::seed_from_u64(connection_seed(seed, connection)),
            index: 0,
            frontier,
            pass_order: Vec::new(),
        }
    }
}

impl Iterator for FlushStream {
    type Item = Vec<String>;

    fn next(&mut self) -> Option<Vec<String>> {
        let index = self.index;
        self.index += 1;
        Some(match self.workload {
            Workload::ServeSmall => {
                vec![request_line(&mut self.rng, index, MULTI_EVERY)]
            }
            Workload::BatchShared => shared_flush(&mut self.rng, index),
            Workload::ExactFrontier => {
                let slot = index % FRONTIER_SET;
                if slot == 0 {
                    self.pass_order = (0..FRONTIER_SET).collect();
                    shuffle(&mut self.rng, &mut self.pass_order);
                }
                vec![self.frontier[self.pass_order[slot]].clone()]
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cr_service::{wire, SolverService};

    fn first_flushes(workload: Workload, seed: u64, count: usize) -> Vec<Vec<String>> {
        (0..workload.connections())
            .flat_map(|c| FlushStream::new(workload, seed, c).take(count))
            .collect()
    }

    #[test]
    fn every_generated_line_parses_and_answers_without_error() {
        let service = SolverService::with_standard_registry();
        for workload in Workload::ALL {
            let count = match workload {
                Workload::ExactFrontier => FRONTIER_SET,
                Workload::BatchShared => 8,
                _ => 64,
            };
            for lines in first_flushes(workload, 7, count) {
                for line in &lines {
                    wire::parse_request(line, 0).expect("generated line parses");
                }
                for response in wire::process_batch(&service, &lines, 0) {
                    assert!(
                        response.contains(r#""error":null"#),
                        "{}: {response}",
                        workload.name()
                    );
                }
            }
        }
        let warmup = wire::process_batch(&service, &[WARMUP_LINE.to_string()], 0);
        assert!(warmup[0].contains(r#""error":null"#));
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        for workload in Workload::ALL {
            let a = first_flushes(workload, 11, 50);
            assert_eq!(a, first_flushes(workload, 11, 50), "{}", workload.name());
            assert_ne!(a, first_flushes(workload, 12, 50), "{}", workload.name());
        }
    }

    #[test]
    fn exact_frontier_passes_cover_the_fixed_set_once_each() {
        let flushes: Vec<String> = FlushStream::new(Workload::ExactFrontier, 5, 0)
            .take(3 * FRONTIER_SET)
            .map(|mut lines| lines.remove(0))
            .collect();
        let mut set = frontier_lines(5);
        set.sort();
        for pass in flushes.chunks(FRONTIER_SET) {
            let mut pass = pass.to_vec();
            pass.sort();
            assert_eq!(pass, set);
        }
        // Another seed: the same requests up to processor order.
        let other = frontier_lines(6);
        assert_ne!(other, frontier_lines(5));
        let sorted_rows = |line: &str| {
            let value: serde::Value = serde_json::from_str(line).expect("frontier line is JSON");
            let rows = value.get("rows").expect("frontier line has rows");
            let mut rows: Vec<Vec<i64>> =
                serde::Deserialize::deserialize(rows).expect("rows are a percent grid");
            rows.sort();
            rows
        };
        for (a, b) in frontier_lines(5).iter().zip(&other) {
            assert_eq!(sorted_rows(a), sorted_rows(b));
        }
    }

    #[test]
    fn batch_shared_flushes_have_sixteen_rows_and_mix_k() {
        let mut stream = FlushStream::new(Workload::BatchShared, 9, 0);
        let k1 = stream.next().expect("endless");
        let k2 = stream.next().expect("endless");
        assert_eq!((k1.len(), k2.len()), (16, 16));
        assert!(k1[SHARED_OPTM_ROW].contains(r#""method":"OptM""#));
        assert!(k1[SHARED_BOUNDS_ROW].contains(r#""method":"Bounds""#));
        assert_eq!(k1.iter().filter(|l| l.contains("want_schedule")).count(), 4);
        assert!(k2
            .iter()
            .all(|l| l.contains("resources") && !l.contains("want_schedule")));
    }
}
