//! The network front door: a hand-rolled TCP serving tier on top of
//! [`SolverService`].
//!
//! `cr-serve --listen ADDR` (and [`Server::spawn`] embedded in tests and the
//! load generator) accepts many concurrent JSONL clients and multiplexes
//! them onto **one** warm service — every connection shares the same
//! per-instance conversion cache and the same deterministic rayon pool, so
//! a schedule computed for client A warms the cache for client B.
//!
//! The transport is deliberately simple and dependency-free: a blocking
//! `std::net::TcpListener` acceptor thread plus one OS thread per
//! connection (bounded by [`ServerConfig::max_clients`]), which on a
//! many-core box behaves like the classic thread-per-core design for the
//! connection counts this repository targets.  Every connection speaks the
//! exact protocol of the stdin mode — request lines accumulate, a blank
//! line flushes the batch — so `nc` against a socket and a pipe into
//! `cr-serve` are interchangeable (see `docs/WIRE.md`).
//!
//! # Admission control and load shedding
//!
//! The budgets carried by [`SolveRequest`](cr_algos::solver::SolveRequest)
//! bound the *work of one request*; this layer bounds the *number of
//! requests in flight*:
//!
//! * **Per-client quota** ([`ServerConfig::per_client_quota`]): of one
//!   flushed batch, only the first `quota` requests are admitted; the rest
//!   answer with structured `quota_exceeded` errors — the connection stays
//!   open and the response stream stays order-stable.
//! * **Global cap** ([`ServerConfig::max_inflight`]): a flush whose
//!   admitted requests would push the server past its total in-flight cap
//!   is shed *whole* — every slot answers `overloaded` immediately, no
//!   queueing, so latency of admitted traffic stays bounded.
//! * **Connection cap** ([`ServerConfig::max_clients`]): connections past
//!   the cap receive a single `overloaded` line and are closed.
//! * **Graceful drain**: a `{"control":"shutdown"}` line (or
//!   [`ServerHandle::shutdown`]) stops the acceptor; batches already
//!   flushed complete and respond, every connection finishes its pending
//!   partial batch, later flushes answer `draining` for a short grace
//!   window (~2 s) so in-flight clients hear the rejection instead of a
//!   closed socket, and [`ServerHandle::join`] returns once the last
//!   worker exits.
//!
//! # Deadlines and cancellation
//!
//! Every flush solves under a per-flush [`CancelToken`]: the server's
//! [`ServerConfig::default_deadline_ms`] bounds it, each request's own
//! `deadline_ms` tightens its child, and a per-connection watcher cancels
//! it when the socket dies hard (reset) mid-solve — over-deadline requests
//! answer structured `deadline_exceeded` rows within about one check
//! interval (50 ms) while their in-deadline siblings answer normally.
//! Connections idle past [`ServerConfig::idle_timeout_ms`] receive one
//! `idle_timeout` notice line and are closed.
//!
//! # Failure domains
//!
//! A panicking solver is caught per request ([`SolverService`]'s panic
//! boundary) and answers an `internal_error` row; a panicking connection
//! worker closes exactly its own connection (counted in `worker_panics`)
//! and frees its client slot; the acceptor survives per-connection setup
//! panics.  The server process itself never exits on request input.
//!
//! # Streaming
//!
//! Responses whose schedules reach [`StreamPolicy::threshold_steps`] are
//! streamed as `head`/`chunk`/`end` frames instead of one giant line (see
//! [`wire::render_item_streamed`] and `docs/WIRE.md`); clients reassemble
//! with [`wire::assemble_streamed`].

use crate::wire::{self, BatchItem, StreamPolicy};
use crate::SolverService;
use cr_core::CancelToken;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{
    IpAddr, Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tuning knobs of one [`Server`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum requests of one flushed batch admitted per client;
    /// requests past the cut answer `quota_exceeded`.
    pub per_client_quota: usize,
    /// Total requests the server will solve concurrently across all
    /// clients; a flush that would exceed it is answered `overloaded`.
    pub max_inflight: usize,
    /// Concurrent connections accepted; excess connections get one
    /// `overloaded` line and are closed.
    pub max_clients: usize,
    /// When and how large schedules stream (see [`StreamPolicy`]).
    pub stream: StreamPolicy,
    /// Wall-clock deadline applied to every flush, in milliseconds
    /// (`None` = no server-side deadline).  A client's own `deadline_ms`
    /// tightens but never loosens this: over-deadline requests answer
    /// `deadline_exceeded` in their slots.
    pub default_deadline_ms: Option<u64>,
    /// Connections idle (no bytes received) this long are sent one
    /// structured `idle_timeout` notice line and closed (`None` = never).
    pub idle_timeout_ms: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            per_client_quota: 256,
            max_inflight: 1024,
            max_clients: 64,
            stream: StreamPolicy::DEFAULT,
            default_deadline_ms: None,
            idle_timeout_ms: Some(60_000),
        }
    }
}

/// Liveness counters of a running server (all monotonically increasing
/// except `inflight`), exposed through the `{"control":"stats"}` frame and
/// [`ServerHandle::stats`].
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections accepted (including ones later shed).
    pub connections: AtomicU64,
    /// Requests solved to completion (ok or structured solve error).
    pub served: AtomicU64,
    /// Requests rejected with `quota_exceeded`.
    pub quota_rejected: AtomicU64,
    /// Requests shed with `overloaded` (including shed connections).
    pub overloaded: AtomicU64,
    /// Requests currently being solved.
    pub inflight: AtomicUsize,
    /// Connection workers that panicked (the panic closed one connection;
    /// the server kept serving).
    pub worker_panics: AtomicU64,
    /// Connections closed with an `idle_timeout` notice.
    pub idle_closed: AtomicU64,
}

/// A point-in-time copy of [`ServerStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StatsSnapshot {
    /// Connections accepted.
    pub connections: u64,
    /// Requests solved to completion.
    pub served: u64,
    /// Requests rejected with `quota_exceeded`.
    pub quota_rejected: u64,
    /// Requests shed with `overloaded`.
    pub overloaded: u64,
    /// Requests currently being solved.
    pub inflight: usize,
    /// Connection workers that panicked (connection closed, server alive).
    pub worker_panics: u64,
    /// Connections closed with an `idle_timeout` notice.
    pub idle_closed: u64,
    /// Times the service's warm cache recovered a poisoned lock (see
    /// [`SolverService::cache_rebuilds`]).
    pub cache_rebuilds: u64,
    /// Conversion-cache lookups served warm (see
    /// [`SolverService::cache_counters`]; zero under `obs-off`).
    pub cache_hits: u64,
    /// Conversion-cache lookups that ran a fresh conversion (zero under
    /// `obs-off`).
    pub cache_misses: u64,
    /// Conversion-cache entries dropped by the wholesale eviction at the
    /// cache cap (zero under `obs-off`).
    pub cache_evictions: u64,
}

/// Every counter of the `{"control":"stats"}` frame, in frame order.
/// `docs/WIRE.md` documents each name; the `wire_docs` test keeps the two
/// in sync.
pub const STATS_FIELDS: [&str; 11] = [
    "connections",
    "served",
    "quota_rejected",
    "overloaded",
    "inflight",
    "worker_panics",
    "idle_closed",
    "cache_rebuilds",
    "cache_hits",
    "cache_misses",
    "cache_evictions",
];

impl StatsSnapshot {
    /// The frame values in [`STATS_FIELDS`] order.
    #[must_use]
    pub fn field_values(&self) -> [u64; 11] {
        [
            self.connections,
            self.served,
            self.quota_rejected,
            self.overloaded,
            u64::try_from(self.inflight).unwrap_or(u64::MAX),
            self.worker_panics,
            self.idle_closed,
            self.cache_rebuilds,
            self.cache_hits,
            self.cache_misses,
            self.cache_evictions,
        ]
    }
}

impl ServerStats {
    fn snapshot(&self, cache_rebuilds: u64, cache_counters: (u64, u64, u64)) -> StatsSnapshot {
        let (cache_hits, cache_misses, cache_evictions) = cache_counters;
        StatsSnapshot {
            connections: self.connections.load(Ordering::Relaxed),
            served: self.served.load(Ordering::Relaxed),
            quota_rejected: self.quota_rejected.load(Ordering::Relaxed),
            overloaded: self.overloaded.load(Ordering::Relaxed),
            inflight: self.inflight.load(Ordering::Relaxed),
            worker_panics: self.worker_panics.load(Ordering::Relaxed),
            idle_closed: self.idle_closed.load(Ordering::Relaxed),
            cache_rebuilds,
            cache_hits,
            cache_misses,
            cache_evictions,
        }
    }

    /// Tries to reserve `n` in-flight slots; all-or-nothing so one flush is
    /// never half-admitted.
    fn try_acquire(&self, n: usize, cap: usize) -> bool {
        let mut current = self.inflight.load(Ordering::Relaxed);
        loop {
            if current + n > cap {
                return false;
            }
            match self.inflight.compare_exchange_weak(
                current,
                current + n,
                Ordering::AcqRel,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    fn release(&self, n: usize) {
        self.inflight.fetch_sub(n, Ordering::AcqRel);
    }
}

/// Pre-created serving-tier counters mirroring [`ServerStats`] into the
/// service's observability registry (resolved once at spawn, so the
/// serving paths never touch the registry's name table; see
/// `docs/OBSERVABILITY.md`).
struct NetObs {
    connections: cr_obs::Counter,
    served: cr_obs::Counter,
    quota_rejected: cr_obs::Counter,
    overloaded: cr_obs::Counter,
    worker_panics: cr_obs::Counter,
    idle_closed: cr_obs::Counter,
}

impl NetObs {
    fn new(registry: &cr_obs::Registry) -> NetObs {
        NetObs {
            connections: registry.counter(cr_obs::names::NET_CONNECTIONS),
            served: registry.counter(cr_obs::names::NET_SERVED),
            quota_rejected: registry.counter(cr_obs::names::NET_QUOTA_REJECTED),
            overloaded: registry.counter(cr_obs::names::NET_OVERLOADED),
            worker_panics: registry.counter(cr_obs::names::NET_WORKER_PANICS),
            idle_closed: registry.counter(cr_obs::names::NET_IDLE_CLOSED),
        }
    }
}

/// Shared state of a running server.
struct Shared {
    service: Arc<SolverService>,
    config: ServerConfig,
    /// The bound address: the acceptor's wake-up target.
    addr: SocketAddr,
    draining: AtomicBool,
    stats: ServerStats,
    obs: NetObs,
    workers: Mutex<Vec<JoinHandle<()>>>,
    active_clients: AtomicUsize,
}

impl Shared {
    fn snapshot(&self) -> StatsSnapshot {
        self.stats
            .snapshot(self.service.cache_rebuilds(), self.service.cache_counters())
    }

    /// Starts the graceful drain.  The first call also wakes the acceptor,
    /// blocked in `accept`, with one loopback connection to the bound
    /// address (an unspecified IP maps to loopback); the acceptor drops it
    /// uncounted and exits.
    fn begin_drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        let mut wake = self.addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                IpAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let _ = TcpStream::connect(wake);
    }
}

/// A running socket server.  Dropping the handle does **not** stop the
/// server; call [`ServerHandle::shutdown`] + [`ServerHandle::join`] (or let
/// a client send `{"control":"shutdown"}`).
pub struct ServerHandle {
    addr: SocketAddr,
    shared: Arc<Shared>,
    acceptor: Option<JoinHandle<()>>,
}

/// Namespace for [`Server::spawn`] (the server runs entirely on background
/// threads; there is no long-lived `Server` value).
pub struct Server;

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) and starts serving
    /// `service` on background threads.
    ///
    /// # Errors
    ///
    /// Any I/O error from binding the listener.
    pub fn spawn(
        service: Arc<SolverService>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> io::Result<ServerHandle> {
        // The acceptor blocks in `accept`, so a connection is taken the
        // moment it arrives; a drain wakes it with a loopback connection
        // (`Shared::begin_drain`).
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let obs = NetObs::new(service.obs_registry());
        let shared = Arc::new(Shared {
            service,
            config,
            addr: local,
            draining: AtomicBool::new(false),
            stats: ServerStats::default(),
            obs,
            workers: Mutex::new(Vec::new()),
            active_clients: AtomicUsize::new(0),
        });
        let acceptor_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("cr-serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &acceptor_shared))
            // lint: allow(panic_hygiene) — thread spawn only fails on OS resource exhaustion; a server that cannot accept must die loudly
            .expect("spawn acceptor thread");
        Ok(ServerHandle {
            addr: local,
            shared,
            acceptor: Some(acceptor),
        })
    }
}

impl ServerHandle {
    /// The address the server actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time serving counters.
    #[must_use]
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.snapshot()
    }

    /// Whether a drain has been requested (by this handle or a client's
    /// shutdown control frame).
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.shared.draining.load(Ordering::Acquire)
    }

    /// Requests a graceful drain: stop accepting, let in-flight batches
    /// respond, answer later flushes with `draining`.
    pub fn shutdown(&self) {
        self.shared.begin_drain();
    }

    /// Blocks until the acceptor and every connection worker have exited
    /// (drain must have been requested, or this waits for all clients to
    /// hang up on their own).
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            // lint: allow(panic_hygiene) — re-raising an acceptor panic is deliberate: the accept loop must not die silently
            acceptor.join().expect("acceptor thread panicked");
        }
        // Workers register themselves before the acceptor exits, so after
        // the acceptor is gone this list is complete.  Worker panics are
        // caught and counted inside the worker itself, so a failed join
        // here (only possible for a panic outside that boundary) must not
        // take the whole process down with it.
        let workers = std::mem::take(
            &mut *self
                .shared
                .workers
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner),
        );
        for worker in workers {
            let _ = worker.join();
        }
    }
}

/// Accepts connections until drain, spawning one worker thread each.  The
/// connection that ends a blocked `accept` after the drain started (the
/// wake-up of [`Shared::begin_drain`], or a late client) is dropped
/// uncounted.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        let accepted = listener.accept();
        if shared.draining.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                // A panic anywhere in this connection's setup costs exactly
                // that connection; the acceptor keeps accepting.
                let result = catch_unwind(AssertUnwindSafe(|| admit_connection(stream, shared)));
                if result.is_err() {
                    shared.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                    shared.obs.worker_panics.inc();
                }
            }
            // A failed accept (descriptor exhaustion, a connection reset
            // while queued) backs off briefly instead of spinning.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Admits one accepted connection: shed past the client cap, otherwise
/// spawn its worker thread behind a panic boundary (a panicking worker
/// closes its own connection and bumps `worker_panics`; the server and its
/// client-slot accounting survive).
fn admit_connection(stream: TcpStream, shared: &Arc<Shared>) {
    shared.stats.connections.fetch_add(1, Ordering::Relaxed);
    shared.obs.connections.inc();
    if shared.active_clients.load(Ordering::Acquire) >= shared.config.max_clients {
        shed_connection(stream, shared);
        return;
    }
    shared.active_clients.fetch_add(1, Ordering::AcqRel);
    let worker_shared = Arc::clone(shared);
    let handle = std::thread::Builder::new()
        .name("cr-serve-conn".to_string())
        .spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                serve_connection(stream, &worker_shared);
            }));
            if result.is_err() {
                worker_shared
                    .stats
                    .worker_panics
                    .fetch_add(1, Ordering::Relaxed);
                worker_shared.obs.worker_panics.inc();
            }
            // The slot is freed on every exit path, panic included.
            worker_shared.active_clients.fetch_sub(1, Ordering::AcqRel);
        })
        // lint: allow(panic_hygiene) — thread spawn only fails on OS resource exhaustion; without a worker the connection cannot be served
        .expect("spawn connection worker");
    shared
        .workers
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
        .push(handle);
}

/// Answers a connection past the client cap with one `overloaded` line.
fn shed_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    shared.stats.overloaded.fetch_add(1, Ordering::Relaxed);
    shared.obs.overloaded.inc();
    let line = wire::render_item(&BatchItem::rejected(
        0,
        "overloaded",
        format!(
            "server at its connection cap of {}",
            shared.config.max_clients
        ),
    ));
    let _ = writeln!(stream, "{line}");
    let _ = stream.shutdown(Shutdown::Both);
}

/// Read-timeout polls a draining connection survives before it is closed
/// (40 × the 50 ms read timeout ≈ 2 s): long enough that a client flushing
/// concurrently with the drain gets a structured `draining` answer instead
/// of a closed socket, short enough that [`ServerHandle::join`] stays
/// bounded even when an idle client never hangs up.
const DRAIN_GRACE_POLLS: u32 = 40;

/// How often the disconnect watcher polls its socket while a flush solves.
const DISCONNECT_POLL_MS: u64 = 50;

/// The cancellation bridge between one connection's reader and its
/// disconnect watcher: while a flush is solving, its parent token sits in
/// `flush`; the watcher cancels it when the socket dies hard.
#[derive(Default)]
struct FlushWatch {
    flush: Mutex<Option<CancelToken>>,
    done: AtomicBool,
}

impl FlushWatch {
    fn set(&self, token: Option<CancelToken>) {
        *self
            .flush
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = token;
    }

    fn cancel_active(&self) {
        if let Some(token) = self
            .flush
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .as_ref()
        {
            token.cancel();
        }
    }
}

/// Polls `monitor` while the connection lives, cancelling the in-flight
/// flush (if any) when the socket errors hard (reset / aborted).  A clean
/// FIN is *not* a cancellation: a client may half-close after its last
/// request and still expect its answers.
fn watch_disconnect(monitor: &TcpStream, watch: &FlushWatch) {
    let mut buf = [0u8; 1];
    while !watch.done.load(Ordering::Acquire) {
        match monitor.peek(&mut buf) {
            Ok(_) => {}
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) => {}
            Err(_) => {
                watch.cancel_active();
                return;
            }
        }
        std::thread::sleep(Duration::from_millis(DISCONNECT_POLL_MS));
    }
}

/// The per-connection worker: the stdin serve loop, plus admission control,
/// streaming, deadlines, idle timeout and drain handling.
fn serve_connection(stream: TcpStream, shared: &Arc<Shared>) {
    // A short read timeout turns the blocking read loop into a poll against
    // the drain flag without busy-waiting.
    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let _ = stream.set_nodelay(true);
    let writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let monitor = stream.try_clone().ok();
    let reader = BufReader::new(stream);
    let watch = FlushWatch::default();
    std::thread::scope(|scope| {
        if let Some(monitor) = &monitor {
            scope.spawn(|| watch_disconnect(monitor, &watch));
        }
        connection_loop(reader, writer, shared, &watch);
        watch.done.store(true, Ordering::Release);
    });
}

/// The read-accumulate-flush loop of one connection.
fn connection_loop(
    mut reader: BufReader<TcpStream>,
    mut writer: TcpStream,
    shared: &Arc<Shared>,
    watch: &FlushWatch,
) {
    let mut batch: Vec<String> = Vec::new();
    let mut next_id: u64 = 0;
    let mut line = String::new();
    let mut drain_polls: u32 = 0;
    let idle_timeout = shared.config.idle_timeout_ms.map(Duration::from_millis);
    let mut last_activity = Instant::now();
    let mut seen_len = 0usize;
    loop {
        // NB: `line` is cleared only after a complete line is handled — a
        // read timeout can strike mid-line, and the partial bytes already
        // pulled from the socket must survive the retry.
        match reader.read_line(&mut line) {
            Ok(0) => {
                // EOF: answer whatever the client left unflushed, then close.
                if !batch.is_empty() {
                    let _ = flush_batch(shared, &mut batch, &mut next_id, &mut writer, watch);
                }
                return;
            }
            Ok(_) => {
                last_activity = Instant::now();
                seen_len = 0;
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    // Explicit flush; an empty batch is a protocol error and
                    // answers with a structured bad_request row (it used to
                    // be swallowed silently).
                    if batch.is_empty() {
                        let response = wire::empty_flush_line(next_id);
                        next_id += 1;
                        if writeln!(writer, "{response}")
                            .and_then(|()| writer.flush())
                            .is_err()
                        {
                            return;
                        }
                    } else if flush_batch(shared, &mut batch, &mut next_id, &mut writer, watch)
                        .is_err()
                    {
                        return;
                    }
                } else if let Some(op) = parse_control(trimmed) {
                    if handle_control(&op, shared, &mut batch, &mut next_id, &mut writer, watch)
                        .is_err()
                    {
                        return;
                    }
                    if op == "shutdown" {
                        return;
                    }
                } else {
                    batch.push(trimmed.to_string());
                }
                line.clear();
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                // A timeout can strike mid-line; bytes dribbled into the
                // partial line still count as activity (a slow sender is
                // not an idle one).
                if line.len() > seen_len {
                    seen_len = line.len();
                    last_activity = Instant::now();
                }
                if shared.draining.load(Ordering::Acquire) {
                    // Graceful drain: complete the pending partial batch
                    // (it was already accepted), then keep answering for a
                    // grace window — flushes racing the drain get their
                    // structured `draining` rows — before closing.
                    if !batch.is_empty() {
                        let _ = flush_batch_during_drain(
                            shared,
                            &mut batch,
                            &mut next_id,
                            &mut writer,
                            watch,
                        );
                    }
                    drain_polls += 1;
                    if drain_polls >= DRAIN_GRACE_POLLS {
                        return;
                    }
                } else if idle_timeout.is_some_and(|t| last_activity.elapsed() >= t) {
                    // Structured notice, then close: the client learns why
                    // the socket went away instead of seeing a bare FIN.
                    shared.stats.idle_closed.fetch_add(1, Ordering::Relaxed);
                    shared.obs.idle_closed.inc();
                    let notice = wire::render_item(&BatchItem::rejected(
                        next_id,
                        "idle_timeout",
                        format!(
                            "connection idle past the server's idle timeout of {} ms",
                            shared.config.idle_timeout_ms.unwrap_or_default()
                        ),
                    ));
                    let _ = writeln!(writer, "{notice}").and_then(|()| writer.flush());
                    return;
                }
            }
            Err(_) => return,
        }
    }
}

/// Recognizes a `{"control": "..."}` frame (an object whose only meaning is
/// the control op; anything else is a request line).  Only a line that
/// contains `control` or an escape can hold a key decoding to `control`;
/// every other line goes to the request parser without a parse here.
fn parse_control(line: &str) -> Option<String> {
    if !line.contains("control") && !line.contains('\\') {
        return None;
    }
    let value: serde::Value = serde_json::from_str(line).ok()?;
    match value.get("control") {
        Some(serde::Value::String(op)) => Some(op.clone()),
        _ => None,
    }
}

/// Renders a registry snapshot as the JSONL body of the
/// `{"control":"metrics"}` frame: one line per metric (counters, gauges,
/// histograms), then one line per span path, each section in ascending
/// name order — byte-stable for identical registry state, which is the
/// golden contract of `tests/obs_smoke.rs`.
#[must_use]
pub fn metrics_lines(snapshot: &cr_obs::Snapshot) -> Vec<String> {
    let mut lines = Vec::with_capacity(snapshot.metrics.len() + snapshot.spans.len());
    for metric in &snapshot.metrics {
        let name = &metric.name;
        lines.push(match &metric.value {
            cr_obs::MetricValue::Counter(v) => {
                format!(r#"{{"metric":"{name}","type":"counter","value":{v}}}"#)
            }
            cr_obs::MetricValue::Gauge(v) => {
                format!(r#"{{"metric":"{name}","type":"gauge","value":{v}}}"#)
            }
            cr_obs::MetricValue::Histogram(h) => {
                let join = |vals: &[u64]| {
                    vals.iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(",")
                };
                format!(
                    r#"{{"metric":"{name}","type":"histogram","count":{},"sum":{},"max":{},"bounds":[{}],"counts":[{}]}}"#,
                    h.count,
                    h.sum,
                    h.max,
                    join(&h.bounds),
                    join(&h.counts)
                )
            }
        });
    }
    for span in &snapshot.spans {
        lines.push(format!(
            r#"{{"span":"{}","count":{},"total_ns":{}}}"#,
            span.path, span.count, span.total_ns
        ));
    }
    lines
}

/// Handles a control frame: `shutdown` flushes pending work, acknowledges
/// and starts the drain; `stats` reports the serving counters; `metrics`
/// dumps the observability registry as JSONL.
fn handle_control(
    op: &str,
    shared: &Arc<Shared>,
    batch: &mut Vec<String>,
    next_id: &mut u64,
    writer: &mut impl Write,
    watch: &FlushWatch,
) -> io::Result<()> {
    match op {
        "shutdown" => {
            if !batch.is_empty() {
                flush_batch(shared, batch, next_id, writer, watch)?;
            }
            shared.begin_drain();
            writeln!(writer, r#"{{"control":"shutdown","draining":true}}"#)?;
            writer.flush()
        }
        "stats" => {
            let s = shared.snapshot();
            let mut frame = String::from(r#"{"control":"stats""#);
            for (name, value) in STATS_FIELDS.iter().zip(s.field_values()) {
                frame.push_str(&format!(r#","{name}":{value}"#));
            }
            frame.push('}');
            writeln!(writer, "{frame}")?;
            writer.flush()
        }
        "metrics" => {
            let snapshot = shared.service.obs_registry().snapshot();
            let lines = metrics_lines(&snapshot);
            writeln!(
                writer,
                r#"{{"control":"metrics","metrics":{},"spans":{}}}"#,
                snapshot.metrics.len(),
                snapshot.spans.len()
            )?;
            for line in lines {
                writeln!(writer, "{line}")?;
            }
            writer.flush()
        }
        other => {
            writeln!(
                writer,
                r#"{{"control":{},"error":"unknown control op"}}"#,
                serde_json::to_string(&serde::Value::String(other.to_string()))
                    // lint: allow(panic_hygiene) — serializing a String into an in-memory String cannot fail
                    .expect("string serialization is infallible")
            )?;
            writer.flush()
        }
    }
}

/// Admits, solves and answers one flushed batch (the order-stable heart of
/// the serving tier).
fn flush_batch(
    shared: &Arc<Shared>,
    batch: &mut Vec<String>,
    next_id: &mut u64,
    writer: &mut impl Write,
    watch: &FlushWatch,
) -> io::Result<()> {
    write_items(shared, batch, next_id, writer, false, watch)
}

/// [`flush_batch`] for the partial batch completed during a graceful drain:
/// quota and load shedding still apply, but the drain flag itself does not
/// reject the already-accepted work.
fn flush_batch_during_drain(
    shared: &Arc<Shared>,
    batch: &mut Vec<String>,
    next_id: &mut u64,
    writer: &mut impl Write,
    watch: &FlushWatch,
) -> io::Result<()> {
    write_items(shared, batch, next_id, writer, true, watch)
}

fn write_items(
    shared: &Arc<Shared>,
    batch: &mut Vec<String>,
    next_id: &mut u64,
    writer: &mut impl Write,
    during_drain: bool,
    watch: &FlushWatch,
) -> io::Result<()> {
    let lines = std::mem::take(batch);
    let first_id = *next_id;
    *next_id += lines.len() as u64;
    let items = admit_and_solve(shared, &lines, first_id, during_drain, watch);
    for item in &items {
        for line in wire::render_item_streamed(item, shared.config.stream) {
            writeln!(writer, "{line}")?;
        }
    }
    writer.flush()
}

/// The admission pipeline of one flush: drain check, per-client quota cut,
/// global in-flight reservation, then the shared parse + solve path under
/// a per-flush [`CancelToken`] (bounded by the server's default deadline,
/// cancelled by the disconnect watcher if the socket dies hard).
fn admit_and_solve(
    shared: &Arc<Shared>,
    lines: &[String],
    first_id: u64,
    during_drain: bool,
    watch: &FlushWatch,
) -> Vec<BatchItem> {
    let stats = &shared.stats;
    if !during_drain && shared.draining.load(Ordering::Acquire) {
        return (0..lines.len() as u64)
            .map(|i| {
                BatchItem::rejected(
                    first_id + i,
                    "draining",
                    "server is draining for shutdown; no new requests accepted",
                )
            })
            .collect();
    }
    let quota = shared.config.per_client_quota;
    let admitted = lines.len().min(quota);
    if !stats.try_acquire(admitted, shared.config.max_inflight) {
        stats
            .overloaded
            .fetch_add(lines.len() as u64, Ordering::Relaxed);
        shared.obs.overloaded.add(lines.len() as u64);
        return (0..lines.len() as u64)
            .map(|i| {
                BatchItem::rejected(
                    first_id + i,
                    "overloaded",
                    format!(
                        "server over its in-flight cap of {}; retry later",
                        shared.config.max_inflight
                    ),
                )
            })
            .collect();
    }
    // Parent token for the whole flush: an explicitly cancellable root
    // (so the disconnect watcher can stop it) tightened by the server's
    // default deadline when one is configured.  Each request further
    // tightens its child with its own `deadline_ms`.
    let parent = match shared.config.default_deadline_ms {
        Some(ms) => CancelToken::after_ms(ms),
        None => CancelToken::new(),
    };
    watch.set(Some(parent.clone()));
    let mut items =
        // lint: allow(panic_hygiene) — `admitted` was computed as a prefix length of `lines` by the quota check
        wire::solve_batch_items_cancellable(&shared.service, &lines[..admitted], first_id, &parent);
    watch.set(None);
    stats.release(admitted);
    stats.served.fetch_add(admitted as u64, Ordering::Relaxed);
    shared.obs.served.add(admitted as u64);
    for (i, _) in lines.iter().enumerate().skip(admitted) {
        stats.quota_rejected.fetch_add(1, Ordering::Relaxed);
        shared.obs.quota_rejected.inc();
        items.push(BatchItem::rejected(
            first_id + i as u64,
            "quota_exceeded",
            format!("request {i} of this flush exceeds the per-client in-flight quota of {quota}"),
        ));
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn try_acquire_is_all_or_nothing() {
        let stats = ServerStats::default();
        assert!(stats.try_acquire(3, 4));
        assert!(!stats.try_acquire(2, 4));
        assert!(stats.try_acquire(1, 4));
        stats.release(4);
        assert_eq!(stats.snapshot(0, (0, 0, 0)).inflight, 0);
    }

    #[test]
    fn control_frames_are_recognized() {
        assert_eq!(
            parse_control(r#"{"control":"stats"}"#).as_deref(),
            Some("stats")
        );
        assert_eq!(parse_control(r#"{"method":"OptM","rows":[[50]]}"#), None);
        assert_eq!(parse_control("not json"), None);
    }

    #[test]
    fn control_text_outside_a_control_key_is_a_request() {
        assert_eq!(
            parse_control(r#"{"method":"OptM","rows":[[50]],"tag":"control"}"#),
            None
        );
        assert_eq!(parse_control(r#"{"controls":"stats"}"#), None);
        // An escaped key still decodes to `control`.
        assert_eq!(
            parse_control(r#"{"\u0063ontrol":"stats"}"#).as_deref(),
            Some("stats")
        );
    }
}
