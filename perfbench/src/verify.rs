//! The correctness gate: every socket response must equal, byte for byte,
//! the in-process `wire::process_batch` reference for the same lines, and
//! carry no error.  `batch-shared` flushes must also keep OptM between the
//! best lower bound and the heuristics.

use crate::drive::Window;
use crate::workload::{FlushStream, Workload, SHARED_BOUNDS_ROW, SHARED_OPTM_ROW};
use cr_service::{wire, SolverService};
use std::collections::HashMap;

/// Reference threads (the host has two cores; the server is stopped by the
/// time the gate runs).
const THREADS: usize = 2;

/// Outcome of the gate.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Verdict {
    /// Rows checked.
    pub attempted: u64,
    /// Rows wrong, errored, or breaking a `batch-shared` invariant.
    pub failed: u64,
    /// The first failure, for the diagnostic line.
    pub first_failure: Option<String>,
}

impl Verdict {
    fn fail(&mut self, message: String) {
        self.failed += 1;
        if self.first_failure.is_none() {
            self.first_failure = Some(message);
        }
    }

    fn merge(&mut self, other: Verdict) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// Checks every row of `window` against the in-process reference.
pub fn verify(workload: Workload, seed: u64, window: &Window) -> Verdict {
    let verdicts: Vec<Verdict> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|thread| scope.spawn(move || verify_share(workload, seed, window, thread)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("reference thread panicked"))
            .collect()
    });
    let mut total = Verdict::default();
    for verdict in verdicts {
        total.merge(verdict);
    }
    total
}

/// Checks every `THREADS`-th flush, starting at flush `thread`.
fn verify_share(workload: Workload, seed: u64, window: &Window, thread: usize) -> Verdict {
    let service = SolverService::with_standard_registry();
    let mut memo: HashMap<Vec<String>, Vec<String>> = HashMap::new();
    let mut verdict = Verdict::default();
    let mut global = 0usize;
    for (index, log) in window.conns.iter().enumerate() {
        let mut offset = 0usize;
        for (record, lines) in log
            .flushes
            .iter()
            .zip(FlushStream::new(workload, seed, index))
        {
            let rows = lines.len();
            let mine = global % THREADS == thread;
            global += 1;
            let got = log.responses.get(offset..offset + rows).unwrap_or(&[]);
            offset += rows;
            if !mine {
                continue;
            }
            let reference = if workload.explicit_ids() {
                memo.entry(lines.clone())
                    .or_insert_with(|| wire::process_batch(&service, &lines, record.first_id))
                    .clone()
            } else {
                wire::process_batch(&service, &lines, record.first_id)
            };
            verdict.attempted += rows as u64;
            for (row, want) in reference.iter().enumerate() {
                match got.get(row) {
                    Some(line) if line == want && want.contains(r#""error":null"#) => {}
                    Some(line) => verdict.fail(format!(
                        "connection {index} id {}: got {line} want {want}",
                        record.first_id + row as u64
                    )),
                    None => verdict.fail(format!(
                        "connection {index} id {}: no response",
                        record.first_id + row as u64
                    )),
                }
            }
            if workload == Workload::BatchShared {
                if let Err(message) = check_shared(&lines, &reference) {
                    verdict.fail(format!(
                        "connection {index} id {}: {message}",
                        record.first_id
                    ));
                }
            }
        }
    }
    verdict
}

/// A number at `path` in a response line.
fn number_at(line: &str, path: &[&str]) -> Option<i128> {
    let value: serde::Value = serde_json::from_str(line).ok()?;
    let mut at = &value;
    for key in path {
        at = at.get(key)?;
    }
    match at {
        serde::Value::Number(n) => n.as_i128(),
        _ => None,
    }
}

/// OptM's makespan is at least the `Bounds` row's best lower bound and, on
/// single-resource flushes where OPT(m) is proven exact, at most every
/// heuristic's and online policy's makespan.
fn check_shared(lines: &[String], responses: &[String]) -> Result<(), String> {
    let makespan = |row: usize| {
        responses
            .get(row)
            .and_then(|l| number_at(l, &["ok", "makespan"]))
            .ok_or_else(|| format!("row {row} has no makespan"))
    };
    let optm = makespan(SHARED_OPTM_ROW)?;
    let best = responses
        .get(SHARED_BOUNDS_ROW)
        .and_then(|l| number_at(l, &["ok", "lower_bounds", "best"]))
        .ok_or("Bounds row has no best lower bound")?;
    if optm < best {
        return Err(format!(
            "OptM makespan {optm} below the best lower bound {best}"
        ));
    }
    let single_resource = !lines[0].contains("\"resources\"");
    if single_resource {
        for row in 0..SHARED_OPTM_ROW {
            let heuristic = makespan(row)?;
            if heuristic < optm {
                return Err(format!(
                    "OptM makespan {optm} above row {row}'s makespan {heuristic}"
                ));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(makespan: i128, best: &str) -> String {
        format!(
            r#"{{"id":0,"method":"X","ok":{{"makespan":{makespan},"lower_bounds":{{"best":{best}}}}},"error":null}}"#
        )
    }

    #[test]
    fn shared_invariants_catch_an_optm_above_a_heuristic() {
        let lines = vec![r#"{"method":"X","rows":[[50]]}"#.to_string()];
        let mut responses: Vec<String> = (0..SHARED_OPTM_ROW).map(|_| row(5, "null")).collect();
        responses.push(row(4, "null"));
        responses.push(row(4, "4"));
        assert_eq!(check_shared(&lines, &responses), Ok(()));
        responses[3] = row(3, "null");
        assert!(check_shared(&lines, &responses).is_err());
        // k = 2: only the lower bound applies.
        let multi = vec![r#"{"method":"X","rows":[[50]],"resources":[[[5]]]}"#.to_string()];
        assert_eq!(check_shared(&multi, &responses), Ok(()));
        responses[SHARED_BOUNDS_ROW] = row(4, "5");
        assert!(check_shared(&multi, &responses).is_err());
    }
}
