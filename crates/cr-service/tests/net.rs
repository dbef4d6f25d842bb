//! Socket serving tier contracts: multi-client byte-identity, order
//! stability, quota/overload shedding as structured errors, schedule
//! streaming, the empty-flush regression and graceful drain.

use cr_service::net::{Server, ServerConfig, ServerHandle};
use cr_service::wire::{self, StreamPolicy};
use cr_service::SolverService;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The committed CI smoke batch (12 mixed requests: one over budget, one
/// multi-resource, one misshapen-layer bad_request).
fn smoke_lines() -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/data/smoke_batch.jsonl");
    std::fs::read_to_string(path)
        .expect("read smoke batch")
        .lines()
        .map(str::to_string)
        .collect()
}

fn spawn_server(config: ServerConfig) -> ServerHandle {
    let service = Arc::new(SolverService::with_standard_registry());
    Server::spawn(service, "127.0.0.1:0", config).expect("bind ephemeral port")
}

/// A test client: connects, sends `lines` plus a flushing blank line, reads
/// `expect` response lines.
fn drive(addr: std::net::SocketAddr, lines: &[String], expect: usize) -> Vec<String> {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    for line in lines {
        writeln!(stream, "{line}").expect("send request line");
    }
    writeln!(stream).expect("send flush line");
    stream.flush().expect("flush requests");
    let mut reader = BufReader::new(stream);
    let mut responses = Vec::with_capacity(expect);
    for _ in 0..expect {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read response line");
        responses.push(line.trim_end().to_string());
    }
    responses
}

/// The single-client reference rendering: exactly what the stdin mode (and
/// a lone socket client) would answer.
fn reference_responses(lines: &[String]) -> Vec<String> {
    let service = SolverService::with_standard_registry();
    wire::process_batch(&service, lines, 0)
}

#[test]
fn concurrent_clients_get_byte_identical_order_stable_responses() {
    const CLIENTS: usize = 6;
    let handle = spawn_server(ServerConfig::default());
    let addr = handle.addr();
    let lines = smoke_lines();
    let reference = reference_responses(&lines);

    let workers: Vec<std::thread::JoinHandle<Vec<String>>> = (0..CLIENTS)
        .map(|_| {
            let lines = lines.clone();
            std::thread::spawn(move || drive(addr, &lines, 12))
        })
        .collect();
    for worker in workers {
        let responses = worker.join().expect("client thread");
        assert_eq!(
            responses, reference,
            "a concurrent client's responses diverged from the single-client reference"
        );
        for (i, response) in responses.iter().enumerate() {
            assert!(
                response.starts_with(&format!("{{\"id\":{i},")),
                "order instability at slot {i}: {response}"
            );
        }
    }
    let stats = handle.stats();
    assert_eq!(stats.connections, CLIENTS as u64);
    assert_eq!(stats.served, (CLIENTS * 12) as u64);
    assert_eq!(stats.inflight, 0);
    handle.shutdown();
    handle.join();
}

/// A `k = 2` instance whose optimum, 5, needs a job to finish one layer
/// while another still runs: every exact method and the best lower bound
/// meet there.
#[test]
fn two_resource_repro_answers_the_optimum_over_the_socket() {
    let handle = spawn_server(ServerConfig::default());
    let shape = r#""rows":[[18,95,41],[59,41,62],[8,97,61]],"resources":[[[82,34,81],[22,25,27],[71,32,37]]]"#;
    let lines: Vec<String> = ["OptM", "BruteForce", "Bounds"]
        .iter()
        .map(|method| format!(r#"{{"method":"{method}",{shape}}}"#))
        .collect();
    let responses = drive(handle.addr(), &lines, 3);
    assert_eq!(responses, reference_responses(&lines));
    for response in &responses[..2] {
        assert!(response.contains(r#""makespan":5,"#), "{response}");
    }
    assert!(responses[2].contains(r#""best":5"#), "{}", responses[2]);
    handle.shutdown();
    handle.join();
}

#[test]
fn quota_rejections_are_structured_and_order_stable() {
    let handle = spawn_server(ServerConfig {
        per_client_quota: 4,
        ..ServerConfig::default()
    });
    let lines = smoke_lines();
    let reference = reference_responses(&lines);
    let responses = drive(handle.addr(), &lines, 12);
    // The first four slots are admitted and byte-identical to the
    // unthrottled reference; the rest answer quota_exceeded in order.
    assert_eq!(responses[..4], reference[..4]);
    for (i, response) in responses.iter().enumerate().skip(4) {
        assert!(
            response.contains("\"kind\":\"quota_exceeded\""),
            "slot {i} must be a structured quota rejection: {response}"
        );
        assert!(
            response.starts_with(&format!("{{\"id\":{i},")),
            "{response}"
        );
    }
    let stats = handle.stats();
    assert_eq!(stats.served, 4);
    assert_eq!(stats.quota_rejected, 8);
    handle.shutdown();
    handle.join();
}

#[test]
fn exhausted_global_cap_sheds_the_whole_flush_as_overloaded() {
    let handle = spawn_server(ServerConfig {
        max_inflight: 0,
        ..ServerConfig::default()
    });
    let lines = smoke_lines();
    let responses = drive(handle.addr(), &lines, 12);
    for (i, response) in responses.iter().enumerate() {
        assert!(
            response.contains("\"kind\":\"overloaded\""),
            "slot {i} must be shed: {response}"
        );
        assert!(
            response.starts_with(&format!("{{\"id\":{i},")),
            "{response}"
        );
    }
    assert_eq!(handle.stats().overloaded, 12);
    handle.shutdown();
    handle.join();
}

#[test]
fn empty_flush_answers_bad_request_and_ids_keep_counting() {
    let handle = spawn_server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // A lone blank line: previously swallowed silently, now a structured
    // bad_request row.
    writeln!(stream).expect("send empty flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.contains("\"kind\":\"bad_request\""), "{line}");
    assert!(line.contains("empty batch"), "{line}");
    assert!(line.starts_with("{\"id\":0,"), "{line}");
    // The empty flush consumed id 0; a real request now answers as id 1.
    writeln!(stream, r#"{{"method":"GreedyBalance","rows":[[50,50]]}}"#).expect("send");
    writeln!(stream).expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("read response");
    assert!(line.starts_with("{\"id\":1,"), "{line}");
    assert!(line.contains("\"makespan\":2"), "{line}");
    handle.shutdown();
    handle.join();
}

#[test]
fn long_schedules_stream_and_reassemble_byte_identically() {
    let handle = spawn_server(ServerConfig {
        stream: StreamPolicy {
            threshold_steps: 3,
            chunk_steps: 2,
        },
        ..ServerConfig::default()
    });
    // Three chained 100% jobs: a 3-step schedule, over the 3-step threshold
    // → head + 2 chunks + end.
    let request = vec![
        r#"{"method":"EqualShare","rows":[[100],[100],[100]],"want_schedule":true}"#.to_string(),
    ];
    let frames = drive(handle.addr(), &request, 4);
    assert!(frames[0].contains("\"frame\":\"head\""), "{}", frames[0]);
    assert!(frames[0].contains("\"schedule\":null"), "{}", frames[0]);
    assert!(
        frames[0].contains("\"stream\":{\"steps\":3,\"chunks\":2,\"chunk_steps\":2}"),
        "{}",
        frames[0]
    );
    assert!(frames[1].contains("\"frame\":\"chunk\""), "{}", frames[1]);
    assert!(frames[2].contains("\"seq\":1"), "{}", frames[2]);
    assert!(frames[3].contains("\"frame\":\"end\""), "{}", frames[3]);

    let assembled = wire::assemble_streamed(&frames).expect("reassemble stream");
    let reference = reference_responses(&request);
    assert_eq!(assembled, reference[0], "streamed ≠ buffered response");
    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_control_frame_drains_gracefully() {
    let handle = spawn_server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // Pending (un-flushed) work plus a shutdown control frame: the pending
    // batch completes before the drain acknowledgment.
    writeln!(stream, r#"{{"method":"OptTwo","rows":[[60,40],[40,60]]}}"#).expect("send");
    writeln!(stream, r#"{{"control":"stats"}}"#).expect("send stats");
    writeln!(stream, r#"{{"control":"shutdown"}}"#).expect("send shutdown");
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read stats");
    assert!(line.contains("\"control\":\"stats\""), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("read pending response");
    assert!(line.contains("\"makespan\":2"), "{line}");
    line.clear();
    reader.read_line(&mut line).expect("read drain ack");
    assert!(
        line.contains("\"control\":\"shutdown\"") && line.contains("\"draining\":true"),
        "{line}"
    );
    // Clean close after the ack.
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read EOF"), 0);
    assert!(handle.is_draining());
    handle.join();
}

#[test]
fn idle_server_shuts_down_promptly_without_a_client() {
    // The acceptor blocks in `accept`; the drain must wake it, also when
    // the server listens on the unspecified address.
    for addr in ["127.0.0.1:0", "0.0.0.0:0"] {
        let service = Arc::new(SolverService::with_standard_registry());
        let handle = Server::spawn(service, addr, ServerConfig::default()).expect("bind");
        let start = Instant::now();
        handle.shutdown();
        handle.shutdown();
        handle.join();
        let took = start.elapsed();
        assert!(took < Duration::from_secs(1), "{addr}: join took {took:?}");
    }
}

#[test]
fn draining_server_answers_new_flushes_with_draining_errors() {
    let handle = spawn_server(ServerConfig::default());
    let mut stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .expect("read timeout");
    // Ensure the connection is up before the drain starts.
    writeln!(stream, r#"{{"method":"GreedyBalance","rows":[[50]]}}"#).expect("send");
    writeln!(stream).expect("flush");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.contains("\"makespan\":1"), "{line}");

    handle.shutdown();
    // An explicit flush after the drain started answers with structured
    // draining rows (the connection is not dropped mid-protocol).
    writeln!(stream, r#"{{"method":"GreedyBalance","rows":[[50]]}}"#).expect("send");
    writeln!(stream).expect("flush");
    line.clear();
    reader.read_line(&mut line).expect("read draining row");
    assert!(line.contains("\"kind\":\"draining\""), "{line}");
    drop(stream);
    handle.join();
}

/// A 6-processor brute-force request that runs for minutes uninterrupted
/// (measured >60 s in release): only a fired deadline can answer it fast.
fn pathological_line(deadline_ms: u64) -> String {
    format!(
        concat!(
            r#"{{"method":"BruteForce","deadline_ms":{},"rows":"#,
            r#"[[10,20,30,40,50],[15,25,35,45,55],[12,22,32,42,52],"#,
            r#"[13,23,33,43,53],[14,24,34,44,54],[16,26,36,46,56]]}}"#
        ),
        deadline_ms
    )
}

#[test]
fn deadline_exceeded_answers_fast_with_byte_identical_siblings() {
    let handle = spawn_server(ServerConfig::default());
    let greedy = r#"{"method":"GreedyBalance","rows":[[60,40],[40,60]]}"#.to_string();
    let lines = vec![greedy.clone(), pathological_line(100)];
    let start = Instant::now();
    let responses = drive(handle.addr(), &lines, 2);
    let elapsed = start.elapsed();
    // The sibling is byte-identical to its single-request reference.
    assert_eq!(responses[0], reference_responses(&[greedy])[0]);
    assert!(
        responses[1].contains("\"kind\":\"deadline_exceeded\""),
        "{}",
        responses[1]
    );
    // 100 ms deadline + one 50 ms check interval, with debug-build slack;
    // without cancellation this solve runs for minutes.
    assert!(
        elapsed < Duration::from_millis(1500),
        "deadline enforcement took {elapsed:?}"
    );
    let stats = handle.stats();
    assert_eq!(stats.inflight, 0, "leaked in-flight slots");
    handle.shutdown();
    handle.join();
}

#[test]
fn server_default_deadline_bounds_requests_without_their_own() {
    let handle = spawn_server(ServerConfig {
        default_deadline_ms: Some(100),
        ..ServerConfig::default()
    });
    // No per-request deadline: the server's own default must stop it.
    let line = pathological_line(3_600_000);
    let start = Instant::now();
    let responses = drive(handle.addr(), &[line], 1);
    assert!(
        responses[0].contains("\"kind\":\"deadline_exceeded\""),
        "{}",
        responses[0]
    );
    assert!(
        start.elapsed() < Duration::from_millis(1500),
        "server default deadline took {:?}",
        start.elapsed()
    );
    handle.shutdown();
    handle.join();
}

#[test]
fn injected_panic_yields_one_internal_error_row_with_intact_siblings() {
    let service = Arc::new(SolverService::with_standard_registry_and_debug());
    let handle =
        Server::spawn(service, "127.0.0.1:0", ServerConfig::default()).expect("bind ephemeral");
    let greedy = r#"{"method":"GreedyBalance","rows":[[60,40],[40,60]]}"#.to_string();
    let boom = r#"{"method":"debug:panic","rows":[[50]]}"#.to_string();
    let bounds = r#"{"method":"Bounds","rows":[[20,10],[50,55]]}"#.to_string();
    let responses = drive(handle.addr(), &[greedy.clone(), boom, bounds.clone()], 3);
    assert_eq!(responses[0], reference_responses(&[greedy])[0]);
    assert!(
        responses[1].contains("\"kind\":\"internal_error\""),
        "{}",
        responses[1]
    );
    assert!(
        responses[1].contains("deliberate panic"),
        "{}",
        responses[1]
    );
    {
        let reference = reference_responses(&[bounds]);
        // The reference has id 0; the sibling answered as id 2.
        assert_eq!(
            responses[2].replacen("{\"id\":2,", "{\"id\":0,", 1),
            reference[0]
        );
    }
    // The server must still answer the full golden batch byte-identically
    // after containing a panic.
    let lines = smoke_lines();
    let after = drive(handle.addr(), &lines, 12);
    assert_eq!(after, reference_responses(&lines));
    let stats = handle.stats();
    assert_eq!(stats.inflight, 0, "leaked in-flight slots");
    handle.shutdown();
    handle.join();
}

#[test]
fn mid_line_disconnects_leak_nothing_and_server_keeps_serving() {
    let handle = spawn_server(ServerConfig::default());
    // Abandon a connection mid-line (bytes sent, no newline), another one
    // mid-batch (lines sent, no flush), and one right after a flush.
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        stream
            .write_all(br#"{"method":"GreedyBal"#)
            .expect("send partial line");
        stream.flush().expect("flush bytes");
    }
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        writeln!(stream, r#"{{"method":"GreedyBalance","rows":[[50]]}}"#).expect("send line");
    }
    {
        let mut stream = TcpStream::connect(handle.addr()).expect("connect");
        writeln!(stream, r#"{{"method":"GreedyBalance","rows":[[50]]}}"#).expect("send line");
        writeln!(stream).expect("send flush");
        // Dropped without reading the response.
    }
    // Give the workers a moment to observe the disconnects.
    std::thread::sleep(Duration::from_millis(300));
    let lines = smoke_lines();
    let responses = drive(handle.addr(), &lines, 12);
    assert_eq!(responses, reference_responses(&lines));
    let stats = handle.stats();
    assert_eq!(stats.inflight, 0, "leaked in-flight slots");
    handle.shutdown();
    handle.join();
}

#[test]
fn idle_connections_get_a_structured_notice_then_close() {
    let handle = spawn_server(ServerConfig {
        idle_timeout_ms: Some(200),
        ..ServerConfig::default()
    });
    let stream = TcpStream::connect(handle.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .expect("read timeout");
    let start = Instant::now();
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line).expect("read idle notice");
    assert!(line.contains("\"kind\":\"idle_timeout\""), "{line}");
    assert!(
        start.elapsed() >= Duration::from_millis(200),
        "closed before the idle timeout"
    );
    line.clear();
    assert_eq!(reader.read_line(&mut line).expect("read EOF"), 0);
    let stats = handle.stats();
    assert_eq!(stats.idle_closed, 1);
    handle.shutdown();
    handle.join();
}

#[test]
fn assemble_streamed_rejects_truncated_streams() {
    let handle = spawn_server(ServerConfig {
        stream: StreamPolicy {
            threshold_steps: 3,
            chunk_steps: 2,
        },
        ..ServerConfig::default()
    });
    let request = vec![
        r#"{"method":"EqualShare","rows":[[100],[100],[100]],"want_schedule":true}"#.to_string(),
    ];
    let frames = drive(handle.addr(), &request, 4);
    // A disconnect mid-stream leaves the client without the end frame (or
    // worse, mid-chunk): reassembly must fail loudly, not fabricate a
    // partial schedule.
    let missing_end = &frames[..3];
    assert!(
        wire::assemble_streamed(missing_end).is_err(),
        "accepted a stream with no end frame"
    );
    let missing_chunk = vec![frames[0].clone(), frames[1].clone(), frames[3].clone()];
    assert!(
        wire::assemble_streamed(&missing_chunk).is_err(),
        "accepted a stream with a missing chunk"
    );
    handle.shutdown();
    handle.join();
}
