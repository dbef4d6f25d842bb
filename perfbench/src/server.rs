//! The `cr-serve --listen` child process and the client connections to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, fixed at
/// 100 per second.
const MICROS_PER_TICK: f64 = 10_000.0;

/// How long a drained server may take to exit before it counts as hung.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// How long a starting server may take to accept its first connection.
const START_TIMEOUT: Duration = Duration::from_secs(20);

fn other(message: String) -> io::Error {
    io::Error::other(message)
}

/// A running `cr-serve --listen` child on a loopback port.  Dropping it
/// kills and reaps the process; [`Server::shutdown`] drains it cleanly
/// instead.
pub struct Server {
    child: Option<Child>,
    /// The address the server listens on.
    pub addr: SocketAddr,
}

impl Server {
    /// Spawns the server on a free loopback port and opens `connections`
    /// client connections to it.
    ///
    /// The first connection is retried without pause from the moment of the
    /// spawn, so it is queued as soon as the listener binds and the
    /// acceptor's first poll takes it.  Connecting only after the `{"listening":...}` line would
    /// race the acceptor thread, and the run would pay its 10 ms poll
    /// interval in some set-ups and not in others.
    pub fn start(binary: &Path, connections: usize) -> io::Result<(Server, Vec<Conn>)> {
        let port = TcpListener::bind("127.0.0.1:0")?.local_addr()?.port();
        let addr = SocketAddr::from(([127, 0, 0, 1], port));
        let child = Command::new(binary)
            .args(["--listen", &addr.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| other(format!("spawn {}: {e}", binary.display())))?;
        let mut server = Server {
            child: Some(child),
            addr,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        let mut conns = vec![loop {
            match Conn::open(addr) {
                Ok(conn) => break conn,
                Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                    if let Some(status) = server.child_mut()?.try_wait()? {
                        return Err(other(format!("cr-serve exited with {status}")));
                    }
                    if Instant::now() >= deadline {
                        return Err(other(format!("cr-serve never listened on {addr}")));
                    }
                    std::thread::yield_now();
                }
                Err(e) => return Err(e),
            }
        }];
        for _ in 1..connections {
            conns.push(Conn::open(addr)?);
        }
        let stdout = server
            .child_mut()?
            .stdout
            .take()
            .ok_or_else(|| other("no stdout".into()))?;
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line)?;
        if !line.contains(&format!(r#"{{"listening":"{addr}"}}"#)) {
            return Err(other(format!(
                "unexpected first line from cr-serve: {line:?}"
            )));
        }
        Ok((server, conns))
    }

    fn child_mut(&mut self) -> io::Result<&mut Child> {
        self.child
            .as_mut()
            .ok_or_else(|| other("server already stopped".into()))
    }

    fn pid(&self) -> io::Result<u32> {
        self.child
            .as_ref()
            .map(Child::id)
            .ok_or_else(|| other("server already stopped".into()))
    }

    /// The server process's user + system CPU time so far, microseconds.
    pub fn cpu_us(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()?))?;
        // Fields after the parenthesized command name start at field 3
        // (state); utime and stime are fields 14 and 15.
        let rest = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest)
            .ok_or_else(|| other("malformed /proc stat".into()))?;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> io::Result<f64> {
            fields
                .get(i)
                .and_then(|f| f.parse::<u64>().ok())
                .map(|t| t as f64)
                .ok_or_else(|| other("malformed /proc stat".into()))
        };
        Ok((ticks(11)? + ticks(12)?) * MICROS_PER_TICK)
    }

    /// The server process's peak resident set (`VmHWM`), megabytes.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()?))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb as f64 / 1024.0)
            .ok_or_else(|| other("no VmHWM in /proc status".into()))
    }

    /// Sends one control frame on a fresh connection and returns the reply.
    fn control(&self, op: &str) -> io::Result<String> {
        let mut conn = Conn::open(self.addr)?;
        writeln!(conn.stream, r#"{{"control":"{op}"}}"#)?;
        conn.stream.flush()?;
        conn.read_line()
    }

    /// Requests shed by the server so far: `overloaded + quota_rejected`
    /// from the `{"control":"stats"}` frame.
    pub fn shed(&self) -> io::Result<u64> {
        let frame = self.control("stats")?;
        let value: serde::Value = serde_json::from_str(&frame)
            .map_err(|e| other(format!("stats frame {frame:?}: {e}")))?;
        let field = |name: &str| match value.get(name) {
            Some(serde::Value::Number(n)) => n.as_i128().map(|v| v as u64),
            _ => None,
        };
        match (field("overloaded"), field("quota_rejected")) {
            (Some(a), Some(b)) => Ok(a + b),
            _ => Err(other(format!("stats frame without shed counters: {frame}"))),
        }
    }

    /// Drains the server with a `{"control":"shutdown"}` frame and waits for
    /// it to exit; a non-zero exit or a hang is an error.  Close every client
    /// connection first, or the drain waits out its grace window.
    pub fn shutdown(mut self) -> io::Result<()> {
        let ack = self.control("shutdown")?;
        if !ack.contains(r#""draining":true"#) {
            return Err(other(format!("no drain acknowledgment: {ack}")));
        }
        let mut child = self
            .child
            .take()
            .ok_or_else(|| other("already stopped".into()))?;
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            if let Some(status) = child.try_wait()? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(other(format!("cr-serve exited with {status}")))
                };
            }
            if Instant::now() >= deadline {
                let _ = child.kill();
                let _ = child.wait();
                return Err(other("cr-serve did not exit after the drain".into()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// One client connection speaking the JSONL flush protocol.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    send_buf: Vec<u8>,
    /// The id the server assigns to the next request line on this
    /// connection (ids count per connection from 0).
    pub next_id: u64,
}

impl Conn {
    /// Connects with Nagle off and a generous read timeout.
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            send_buf: Vec::new(),
            next_id: 0,
        })
    }

    /// Sends `lines` followed by the blank flush line in one write; returns
    /// the id of the flush's first line.
    pub fn send(&mut self, lines: &[String]) -> io::Result<u64> {
        encode_flush(&mut self.send_buf, lines);
        self.stream.write_all(&self.send_buf)?;
        let first_id = self.next_id;
        self.next_id += lines.len() as u64;
        Ok(first_id)
    }

    fn read_line(&mut self) -> io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(other("server closed the connection".into()));
        }
        line.truncate(line.trim_end().len());
        Ok(line)
    }

    /// Reads the responses to one flush of `rows` lines, reassembling
    /// streamed (`head`/`chunk`/`end`) responses into their one-line form.
    pub fn receive(&mut self, rows: usize, out: &mut Vec<String>) -> io::Result<()> {
        for _ in 0..rows {
            let line = self.read_line()?;
            if line.contains(r#""frame":"head""#) {
                let mut frames = vec![line];
                while !frames
                    .last()
                    .is_some_and(|l| l.contains(r#""frame":"end""#))
                {
                    frames.push(self.read_line()?);
                }
                out.push(cr_service::wire::assemble_streamed(&frames).map_err(other)?);
            } else {
                out.push(line);
            }
        }
        Ok(())
    }

    /// Sends one flush and waits for all of its responses.
    pub fn round_trip(&mut self, lines: &[String], out: &mut Vec<String>) -> io::Result<u64> {
        let first_id = self.send(lines)?;
        self.receive(lines.len(), out)?;
        Ok(first_id)
    }
}

/// Encodes a flush: each line, then the blank line that flushes the batch.
fn encode_flush(buf: &mut Vec<u8>, lines: &[String]) {
    buf.clear();
    for line in lines {
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
    }
    buf.push(b'\n');
}
