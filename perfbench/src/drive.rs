//! The timed window: closed-loop load over the connections.

use crate::server::Conn;
use crate::workload::{FlushStream, Workload};
use std::collections::VecDeque;
use std::io;
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// One answered flush.
#[derive(Debug, Clone, Copy)]
pub struct FlushRecord {
    /// Server-assigned id of the flush's first line.
    pub first_id: u64,
    /// Client-seen latency: send to last response line.
    pub latency_ns: u64,
    /// Latency from when the server could start on the flush: its send
    /// time, or the previous flush's answer on the connection if that came
    /// later.  Excludes queueing behind the flush ahead of it.
    pub service_ns: u64,
}

/// Everything one connection sent and received in the window, in order.
/// The request lines themselves are regenerated from the seed.
#[derive(Debug, Default)]
pub struct ConnLog {
    /// One record per flush.
    pub flushes: Vec<FlushRecord>,
    /// Every response row, streamed ones reassembled.
    pub responses: Vec<String>,
}

/// The result of one timed window.
#[derive(Debug)]
pub struct Window {
    /// Per-connection logs, by connection index.
    pub conns: Vec<ConnLog>,
    /// Window length: first send to last response.
    pub seconds: f64,
}

impl Window {
    /// Every flush latency, one series per connection in completion order.
    pub fn latency_series(&self) -> Vec<Vec<u64>> {
        self.conns
            .iter()
            .map(|c| c.flushes.iter().map(|f| f.latency_ns).collect())
            .collect()
    }

    /// Every flush's [`FlushRecord::service_ns`] across connections.
    pub fn service_ns(&self) -> Vec<u64> {
        self.conns
            .iter()
            .flat_map(|c| c.flushes.iter().map(|f| f.service_ns))
            .collect()
    }

    /// Response rows received (= request rows sent).
    pub fn rows(&self) -> usize {
        self.conns.iter().map(|c| c.responses.len()).sum()
    }
}

/// Passes a closed-loop connection completes even past the window, so a
/// slow host still leaves `exact-frontier` ten samples beyond its p90.
const MIN_PASSES: usize = 3;

/// Whether a closed-loop connection sends another flush: always inside the
/// window and until `MIN_PASSES` passes are done, and past it until it
/// stands at a whole number of passes.
fn keep_sending(flushes_done: usize, pass_len: usize, past_deadline: bool) -> bool {
    !past_deadline || flushes_done < MIN_PASSES * pass_len || flushes_done % pass_len != 0
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// [`FlushRecord::service_ns`]: from the later of the flush's send and the
/// previous answer on its connection, to its own answer.
fn service_ns(sent: Instant, previous_done: Instant, done: Instant) -> u64 {
    nanos(done.saturating_duration_since(sent.max(previous_done)))
}

/// Closed loop: each connection on its own thread keeps the workload's
/// pipeline depth of flushes in flight, sending the next one as soon as the
/// oldest has all of its answers, until [`keep_sending`] says stop.
pub fn closed_loop(
    workload: Workload,
    seed: u64,
    conns: Vec<Conn>,
    seconds: f64,
) -> io::Result<Window> {
    let barrier = Barrier::new(conns.len());
    let pass_len = workload.pass_len();
    let depth = workload.pipeline_depth();
    let results: Vec<io::Result<(Instant, Instant, ConnLog)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .enumerate()
            .map(|(index, mut conn)| {
                let barrier = &barrier;
                scope.spawn(move || {
                    let mut stream = FlushStream::new(workload, seed, index);
                    let mut log = ConnLog::default();
                    let mut in_flight: VecDeque<(u64, usize, Instant)> = VecDeque::new();
                    let mut sent = 0usize;
                    barrier.wait();
                    let start = Instant::now();
                    let deadline = start + Duration::from_secs_f64(seconds);
                    let mut end = start;
                    loop {
                        while in_flight.len() < depth
                            && keep_sending(sent, pass_len, Instant::now() >= deadline)
                        {
                            let lines = stream.next().expect("flush streams are endless");
                            let at = Instant::now();
                            let first_id = conn.send(&lines)?;
                            in_flight.push_back((first_id, lines.len(), at));
                            sent += 1;
                        }
                        let Some((first_id, rows, at)) = in_flight.pop_front() else {
                            break;
                        };
                        conn.receive(rows, &mut log.responses)?;
                        let done = Instant::now();
                        log.flushes.push(FlushRecord {
                            first_id,
                            latency_ns: nanos(done - at),
                            service_ns: service_ns(at, end, done),
                        });
                        end = done;
                    }
                    Ok((start, end, log))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    });
    let mut conns = Vec::new();
    let (mut first, mut last): (Option<Instant>, Option<Instant>) = (None, None);
    for result in results {
        let (start, end, log) = result?;
        first = Some(first.map_or(start, |f| f.min(start)));
        last = Some(last.map_or(end, |l| l.max(end)));
        conns.push(log);
    }
    let seconds = match (first, last) {
        (Some(first), Some(last)) => (last - first).as_secs_f64(),
        _ => 0.0,
    };
    Ok(Window { conns, seconds })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::FRONTIER_SET;

    #[test]
    fn exact_frontier_stops_only_after_whole_passes() {
        let pass = Workload::ExactFrontier.pass_len();
        assert_eq!(pass, FRONTIER_SET);
        let sent = |deadline_at: usize| {
            (0..10 * pass)
                .take_while(|&done| keep_sending(done, pass, done >= deadline_at))
                .count()
        };
        // Past the deadline mid-pass: finish the pass, then stop.
        assert_eq!(sent(4 * pass + 3), 5 * pass);
        // A deadline before the minimum passes: run them anyway.
        assert_eq!(sent(pass + 3), MIN_PASSES * pass);
        // Inside the window every workload keeps sending.
        assert!(keep_sending(2 * pass, pass, false));
        // One-flush passes stop at the deadline.
        assert!(!keep_sending(7, Workload::ServeSmall.pass_len(), true));
    }

    #[test]
    fn service_time_starts_when_the_flush_ahead_is_answered() {
        let t0 = Instant::now();
        let at = |us| t0 + Duration::from_micros(us);
        // Sent at 10, the flush ahead answered at 50, done at 80: the
        // server could start only at 50.
        assert_eq!(service_ns(at(10), at(50), at(80)), 30_000);
        // Nothing ahead of it: from the send.
        assert_eq!(service_ns(at(60), at(50), at(80)), 20_000);
    }
}
