//! The load generator: keep-alive HTTP/1.1 connections driven in a
//! closed loop (each connection sends its next request when the last
//! one completes) or an open loop (requests are due on a fixed schedule
//! whatever the server does, and each is timed from its due time).
//!
//! One process generates all load, one thread per connection.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// One keep-alive client connection.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Start of the unread bytes in `buf`.
    read_at: usize,
    /// Connections re-opened after the server closed one.
    pub reconnects: u64,
}

/// A parsed response; the body is [`Conn::body`].
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    /// `X-Etap-Generation`, 0 when absent.
    pub generation: u64,
    body: (usize, usize),
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

impl Conn {
    /// A connection to `addr`, opened on first use.
    #[must_use]
    pub fn new(addr: SocketAddr) -> Self {
        Self {
            addr,
            stream: None,
            buf: Vec::with_capacity(64 * 1024),
            read_at: 0,
            reconnects: 0,
        }
    }

    fn stream(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(10)))?;
            self.stream = Some(s);
            self.buf.clear();
            self.read_at = 0;
        }
        Ok(self.stream.as_mut().expect("stream was just opened"))
    }

    /// Send one request and read its whole response.
    ///
    /// # Errors
    /// Socket failures and malformed responses; the connection is
    /// dropped and re-opened by the next call.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        let out = self
            .stream()
            .and_then(|s| s.write_all(request))
            .and_then(|()| self.read_reply());
        if out.is_err() {
            self.stream = None;
        }
        out
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let n = self.stream()?.read(&mut chunk)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection mid-response",
            ));
        }
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(())
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        self.buf.drain(..self.read_at);
        self.read_at = 0;
        let mut scanned = 0;
        let head_end = loop {
            if let Some(at) = find(&self.buf[scanned..], b"\r\n\r\n") {
                break scanned + at + 4;
            }
            scanned = self.buf.len().saturating_sub(3);
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let mut lines = head.split("\r\n");
        let status: u16 = lines
            .next()
            .and_then(|l| l.split(' ').nth(1))
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let (mut length, mut generation, mut close) = (None, 0u64, false);
        for line in lines {
            let Some((k, v)) = line.split_once(':') else {
                continue;
            };
            let v = v.trim();
            if k.eq_ignore_ascii_case("content-length") {
                length = v.parse::<usize>().ok();
            } else if k.eq_ignore_ascii_case("x-etap-generation") {
                generation = v.parse().unwrap_or(0);
            } else if k.eq_ignore_ascii_case("connection") {
                close = v.eq_ignore_ascii_case("close");
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        while self.buf.len() < head_end + length {
            self.fill()?;
        }
        self.read_at = head_end + length;
        if close {
            // The server ended the keep-alive session: the next request
            // goes out on a fresh connection.
            self.stream = None;
            self.reconnects += 1;
        }
        Ok(Reply {
            status,
            generation,
            body: (head_end, head_end + length),
        })
    }

    /// The body of the last reply.
    #[must_use]
    pub fn body(&self, reply: &Reply) -> &[u8] {
        &self.buf[reply.body.0..reply.body.1]
    }
}

/// `GET` request bytes for `path` (keep-alive is the HTTP/1.1 default).
#[must_use]
pub fn get(path: &str) -> Vec<u8> {
    format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").into_bytes()
}

/// Percent-encode everything outside the URI unreserved set.
#[must_use]
pub fn encode(s: &str) -> String {
    let mut out = String::with_capacity(s.len() * 3);
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'-' | b'.' | b'_' | b'~') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02X}"));
        }
    }
    out
}

/// One request of the read mix, with what a correct reply looks like.
pub struct Target {
    /// Request-kind label (`leads_top`, `company_events`, …).
    pub kind: &'static str,
    pub request: Vec<u8>,
    /// The verified body; `None` accepts any `200` whose generation
    /// never goes backwards on the connection (reads beside ingest,
    /// where the book changes under the reader).
    pub expected: Option<Vec<u8>>,
    /// Whether `404 unknown company` may be accepted for now: a company
    /// lookup beside ingest, where a later generation's book may no
    /// longer resolve a name an earlier one served. Each such reply is
    /// recorded as an [`Unknown`] and checked after the run against the
    /// books of the generations that could have answered it.
    pub may_be_unknown: bool,
}

/// A `404 unknown company` reply accepted for later checking. A 404
/// carries no `X-Etap-Generation`, so the generation that answered it
/// is bounded by the replies around it on the same connection.
#[derive(Debug, Clone, Copy)]
pub struct Unknown {
    /// Index of the request in the targets.
    pub target: u32,
    /// The last generation the connection saw before it (0: none).
    pub after: u64,
    /// The first generation the connection saw after it (`u64::MAX`:
    /// none, so any generation up to the last could have answered).
    pub before: u64,
}

/// What each connection did.
#[derive(Debug, Default)]
pub struct LoadStats {
    pub ok: u64,
    pub failed: u64,
    pub reconnects: u64,
    /// Closed loop: completions per window.
    pub windows: Vec<u64>,
    /// Open loop: latency from due time, ms.
    pub latency_ms: Vec<f64>,
    /// Open loop: how late each request was sent, ms.
    pub lag_ms: Vec<f64>,
    /// The first failure, with its request line.
    pub first_failure: Option<String>,
    /// Accepted `404 unknown company` replies, in the order sent on each
    /// connection.
    pub unknown: Vec<Unknown>,
}

impl LoadStats {
    fn record(&mut self, result: Result<Judged, String>, targets: &[Target], t: u32, after: u64) {
        let target = &targets[t as usize];
        match result {
            Ok(Judged::Ok(generation)) => {
                self.ok += 1;
                // Close the bound of the 404s this connection saw since
                // its last generation.
                for u in self.unknown.iter_mut().rev() {
                    if u.before != u64::MAX {
                        break;
                    }
                    u.before = generation;
                }
            }
            Ok(Judged::UnknownCompany) => {
                self.ok += 1;
                self.unknown.push(Unknown {
                    target: t,
                    after,
                    before: u64::MAX,
                });
            }
            Err(e) => {
                self.failed += 1;
                if self.first_failure.is_none() {
                    let line = String::from_utf8_lossy(&target.request);
                    let line = line.lines().next().unwrap_or_default();
                    self.first_failure = Some(format!("{line}: {e}"));
                }
            }
        }
    }

    fn merge(&mut self, other: LoadStats) {
        self.ok += other.ok;
        self.failed += other.failed;
        self.reconnects += other.reconnects;
        if self.windows.len() < other.windows.len() {
            self.windows.resize(other.windows.len(), 0);
        }
        for (w, c) in other.windows.iter().enumerate() {
            self.windows[w] += c;
        }
        self.latency_ms.extend(other.latency_ms);
        self.lag_ms.extend(other.lag_ms);
        self.first_failure = self.first_failure.take().or(other.first_failure);
        self.unknown.extend(other.unknown);
    }
}

/// How a reply that passed its check was judged.
enum Judged {
    /// A `200`, at this `X-Etap-Generation`.
    Ok(u64),
    /// An accepted `404 unknown company` (see [`Target::may_be_unknown`]).
    UnknownCompany,
}

/// Send one request and judge its reply.
fn exchange(conn: &mut Conn, target: &Target, last_generation: &mut u64) -> Result<Judged, String> {
    let reply = conn.send(&target.request).map_err(|e| e.to_string())?;
    if reply.status == 404
        && target.may_be_unknown
        && find(conn.body(&reply), b"unknown company").is_some()
    {
        return Ok(Judged::UnknownCompany);
    }
    if reply.status != 200 {
        return Err(format!("status {}", reply.status));
    }
    match &target.expected {
        Some(body) if conn.body(&reply) != body.as_slice() => {
            Err("body differs from the verified reply".to_string())
        }
        Some(_) => Ok(Judged::Ok(reply.generation)),
        None if reply.generation < *last_generation => Err(format!(
            "generation went back from {} to {}",
            last_generation, reply.generation
        )),
        None => {
            *last_generation = reply.generation;
            Ok(Judged::Ok(reply.generation))
        }
    }
}

/// Closed loop: `schedules.len()` connections, connection `c` cycling
/// through `schedules[c]`, for `duration`. Completions are counted per
/// `window`.
#[must_use]
pub fn closed_loop(
    addr: SocketAddr,
    targets: &[Target],
    schedules: &[Vec<u32>],
    duration: Duration,
    window: Duration,
) -> LoadStats {
    let start = Instant::now();
    let end = start + duration;
    // Whole windows only: completions after the last full window (the
    // requests in flight at the deadline) are not counted.
    let n_windows = ((duration.as_secs_f64() / window.as_secs_f64()).floor() as usize).max(1);
    let per_conn: Vec<LoadStats> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .map(|schedule| {
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut stats = LoadStats {
                        windows: vec![0; n_windows],
                        ..LoadStats::default()
                    };
                    let mut last_generation = 0;
                    for &t in schedule.iter().cycle() {
                        if Instant::now() >= end {
                            break;
                        }
                        let after = last_generation;
                        let result =
                            exchange(&mut conn, &targets[t as usize], &mut last_generation);
                        stats.record(result, targets, t, after);
                        let w = (start.elapsed().as_secs_f64() / window.as_secs_f64()) as usize;
                        if let Some(slot) = stats.windows.get_mut(w) {
                            *slot += 1;
                        }
                    }
                    stats.reconnects = conn.reconnects;
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("closed-loop client thread panicked"))
            .collect()
    });
    let mut total = LoadStats::default();
    for s in per_conn {
        total.merge(s);
    }
    total
}

/// Open loop: requests due every `1/rate` seconds, dealt round-robin
/// to `schedules.len()` connections, until `duration` has passed or
/// `stop` is set. Each request is timed from its due time, so a stall
/// also charges the requests queued behind it.
#[must_use]
pub fn open_loop(
    addr: SocketAddr,
    targets: &[Target],
    schedules: &[Vec<u32>],
    rate: f64,
    duration: Duration,
    stop: &AtomicBool,
) -> LoadStats {
    let n = schedules.len();
    let start = Instant::now() + Duration::from_millis(5);
    let end = start + duration;
    let per_conn: Vec<LoadStats> = std::thread::scope(|s| {
        let handles: Vec<_> = schedules
            .iter()
            .enumerate()
            .map(|(c, schedule)| {
                s.spawn(move || {
                    let mut conn = Conn::new(addr);
                    let mut stats = LoadStats::default();
                    let mut last_generation = 0;
                    for (k, &t) in schedule.iter().cycle().enumerate() {
                        let i = k * n + c;
                        let due = start + Duration::from_secs_f64(i as f64 / rate);
                        if due >= end || stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        let sent = Instant::now();
                        let after = last_generation;
                        let result =
                            exchange(&mut conn, &targets[t as usize], &mut last_generation);
                        let done = Instant::now();
                        stats.record(result, targets, t, after);
                        stats
                            .lag_ms
                            .push(crate::stats::ms(sent.saturating_duration_since(due)));
                        stats
                            .latency_ms
                            .push(crate::stats::ms(done.saturating_duration_since(due)));
                    }
                    stats.reconnects = conn.reconnects;
                    stats
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("open-loop client thread panicked"))
            .collect()
    });
    // Request i went out on connection i mod n as its (i div n)-th:
    // interleave the connections' samples back into due order.
    let mut total = LoadStats::default();
    let longest = per_conn
        .iter()
        .map(|s| s.latency_ms.len())
        .max()
        .unwrap_or(0);
    for k in 0..longest {
        for s in &per_conn {
            if let (Some(&latency), Some(&lag)) = (s.latency_ms.get(k), s.lag_ms.get(k)) {
                total.latency_ms.push(latency);
                total.lag_ms.push(lag);
            }
        }
    }
    for s in per_conn {
        total.ok += s.ok;
        total.failed += s.failed;
        total.reconnects += s.reconnects;
        total.first_failure = total.first_failure.or(s.first_failure);
        total.unknown.extend(s.unknown);
    }
    total
}
