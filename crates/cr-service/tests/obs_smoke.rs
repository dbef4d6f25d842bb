//! End-to-end observability smoke: spawn the `cr-serve` binary in socket
//! mode, replay the committed golden batch, and assert the server-side
//! telemetry — the expanded stats frame's cache counters and the full
//! `{"control":"metrics"}` dump against a committed golden.
//!
//! The smoke batch is engineered so every number below is derivable by
//! hand: 12 request lines of which 11 parse (the last carries a
//! mismatched resource-layer shape), 7 distinct instances (so 7 cache
//! misses), 4 same-batch duplicates (so 4 cache hits), no evictions, and
//! one structured solver error (the `max_rounds: 1` budget request).
//!
//! Span wall-times are nondeterministic, so the golden normalizes every
//! `"total_ns"` to 0. Regenerate after an intentional telemetry change
//! with:
//!
//! ```console
//! $ OBS_SMOKE_UPDATE=1 cargo test -p cr-service --test obs_smoke
//! ```
//!
//! The whole suite is meaningless without recording compiled in, so it is
//! compiled out under the `obs-off` feature (the obs-off CI build still
//! type-checks it — `cfg` gates the bodies, not the file).

#![cfg(not(feature = "obs-off"))]

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};

const SMOKE_BATCH: &str = include_str!("data/smoke_batch.jsonl");
const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/data/metrics_golden.jsonl"
);

/// A spawned `cr-serve` that is killed and reaped when dropped, so a failed
/// assertion cannot leave the server running.
struct Server(Child);

impl Drop for Server {
    fn drop(&mut self) {
        // Both are harmless once the server has exited on its own.
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Spawns `cr-serve --listen 127.0.0.1:0` and returns (server, address).
/// The guard exists before the listening line is read, so a bad line
/// cannot leak the server either.
fn spawn_server() -> (Server, String) {
    let mut server = Server(
        Command::new(env!("CARGO_BIN_EXE_cr-serve"))
            .args(["--listen", "127.0.0.1:0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn cr-serve"),
    );
    let stdout = server.0.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read the listening line");
    let addr = line
        .trim()
        .strip_prefix("{\"listening\":\"")
        .and_then(|rest| rest.strip_suffix("\"}"))
        .unwrap_or_else(|| panic!("unexpected listening line: {line:?}"))
        .to_string();
    (server, addr)
}

/// Sends `line` and reads exactly one reply line.
fn roundtrip(writer: &mut TcpStream, reader: &mut impl BufRead, line: &str) -> String {
    writeln!(writer, "{line}").expect("send line");
    writer.flush().expect("flush");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read reply");
    assert!(!reply.is_empty(), "server closed early after {line:?}");
    reply.trim_end().to_string()
}

/// Replaces every `"total_ns":<digits>` with `"total_ns":0`.
fn normalize_total_ns(line: &str) -> String {
    let mut out = String::with_capacity(line.len());
    let mut rest = line;
    while let Some(at) = rest.find("\"total_ns\":") {
        let end = at + "\"total_ns\":".len();
        out.push_str(&rest[..end]);
        out.push('0');
        rest = rest[end..].trim_start_matches(|c: char| c.is_ascii_digit());
    }
    out.push_str(rest);
    out
}

#[test]
fn smoke_batch_telemetry_matches_the_golden() {
    let (mut server, addr) = spawn_server();
    let stream = TcpStream::connect(&addr).expect("connect");
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);

    // Replay the golden batch: 12 requests, one blank-line flush, 12
    // responses in input order.
    let requests: Vec<&str> = SMOKE_BATCH.lines().filter(|l| !l.is_empty()).collect();
    assert_eq!(requests.len(), 12, "the smoke batch drifted");
    for request in &requests {
        writeln!(writer, "{request}").expect("send request");
    }
    writeln!(writer).expect("send flush");
    writer.flush().expect("flush");
    for i in 0..requests.len() {
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read response");
        assert!(
            reply.starts_with(&format!("{{\"id\":{i},")),
            "response {i} out of order: {reply}"
        );
    }

    // The expanded stats frame: cache behaviour of exactly this batch.
    let stats = roundtrip(&mut writer, &mut reader, "{\"control\":\"stats\"}");
    for pin in [
        "\"cache_hits\":4",
        "\"cache_misses\":7",
        "\"cache_evictions\":0",
    ] {
        assert!(stats.contains(pin), "{pin} not in {stats}");
    }

    // The full metrics dump, against the committed golden (span
    // wall-times normalized away).
    let header = roundtrip(&mut writer, &mut reader, "{\"control\":\"metrics\"}");
    assert!(
        header.starts_with("{\"control\":\"metrics\",\"metrics\":"),
        "{header}"
    );
    let body_lines: usize = header
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|n| n.parse::<usize>().expect("count"))
        .sum();
    let mut dump = vec![header];
    for _ in 0..body_lines {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read dump line");
        dump.push(normalize_total_ns(line.trim_end()));
    }
    let mut got = dump.join("\n");
    got.push('\n');

    if std::env::var_os("OBS_SMOKE_UPDATE").is_some() {
        std::fs::write(GOLDEN_PATH, &got).expect("update the golden");
    } else {
        let want = std::fs::read_to_string(GOLDEN_PATH)
            .expect("tests/data/metrics_golden.jsonl exists (OBS_SMOKE_UPDATE=1 regenerates)");
        assert_eq!(
            got, want,
            "metrics dump drifted from the golden; regenerate deliberately with \
             OBS_SMOKE_UPDATE=1 if the telemetry change is intentional"
        );
    }

    // Graceful drain, then the process must exit cleanly.
    let ack = roundtrip(&mut writer, &mut reader, "{\"control\":\"shutdown\"}");
    assert!(ack.contains("\"draining\":true"), "{ack}");
    let status = server.0.wait().expect("wait for cr-serve");
    assert!(status.success(), "cr-serve exited {status}");
}
