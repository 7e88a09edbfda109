//! Dependency-free HTTP/1.1 observability server.
//!
//! A [`TcpListener`] plus one thread, speaking just enough HTTP/1.1 for
//! scrapers, load balancers, and `curl` — no external crates, so the
//! hermetic build keeps working. Endpoints:
//!
//! | path | payload |
//! |---|---|
//! | `GET /metrics` | Prometheus text exposition, byte-identical to [`MetricsSnapshot::render_text`] |
//! | `GET /healthz` | JSON-ish status; `200` healthy / `503` unhealthy, for load-balancer checks |
//! | `GET /traces` | flight-recorder index (one line per retained request) |
//! | `GET /traces/<request_id>` | full span tree + outcome for one retained request |
//!
//! The server borrows no policy: what a snapshot contains and what
//! "healthy" means are injected via [`ObsServerHooks`], so the serving
//! crate can refresh its gauges and consult breaker/queue state without
//! this crate depending on it. Every response closes the connection
//! (`Connection: close`) — observability traffic is low-rate and the
//! accept loop stays single-threaded and bounded.

use crate::{MetricsSnapshot, ObsHub};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Health verdict returned by the injected health hook.
#[derive(Clone, Debug)]
pub struct HealthStatus {
    /// `true` → `200 OK`; `false` → `503 Service Unavailable`.
    pub healthy: bool,
    /// Response body (JSON-ish, produced by the hook).
    pub detail: String,
}

/// Injected behavior: how to take a snapshot and how to judge health.
#[derive(Clone)]
pub struct ObsServerHooks {
    /// Produces the `/metrics` snapshot (the service hook refreshes its
    /// point-in-time gauges first).
    pub snapshot: Arc<dyn Fn() -> MetricsSnapshot + Send + Sync>,
    /// Produces the `/healthz` verdict.
    pub health: Arc<dyn Fn() -> HealthStatus + Send + Sync>,
}

impl ObsServerHooks {
    /// Plain hooks over a bare hub: snapshot straight off the registry,
    /// always-healthy `/healthz` (for CLI use without a service).
    pub fn for_hub(hub: &ObsHub) -> Self {
        let hub = hub.clone();
        ObsServerHooks {
            snapshot: Arc::new(move || hub.snapshot()),
            health: Arc::new(|| HealthStatus {
                healthy: true,
                detail: "hub-only server".to_owned(),
            }),
        }
    }
}

impl std::fmt::Debug for ObsServerHooks {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObsServerHooks").finish_non_exhaustive()
    }
}

/// Handle to a running observability server; stops (and joins) on drop.
#[derive(Debug)]
pub struct ObsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl ObsServer {
    /// Binds `addr` (port 0 picks a free port — read it back via
    /// [`local_addr`](Self::local_addr)) and serves until stopped.
    pub fn start(addr: SocketAddr, hub: ObsHub, hooks: ObsServerHooks) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        // Non-blocking accept so the loop can observe the stop flag.
        listener.set_nonblocking(true)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sparseloop-obs-http".to_owned())
            .spawn(move || serve_loop(listener, hub, hooks, thread_stop))?;
        Ok(ObsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread (idempotent).
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for ObsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn serve_loop(listener: TcpListener, hub: ObsHub, hooks: ObsServerHooks, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // One connection at a time: observability traffic is
                // low-rate and a bounded loop cannot be wedged open.
                let _ = handle_connection(stream, &hub, &hooks);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

/// Largest request head we accept (observability requests are tiny).
const MAX_REQUEST_BYTES: usize = 8 * 1024;

fn handle_connection(
    mut stream: TcpStream,
    hub: &ObsHub,
    hooks: &ObsServerHooks,
) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;

    // Read until the end of the request head (we ignore bodies: every
    // endpoint is a GET).
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e),
        }
    }
    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, content_type, body) = if method != "GET" {
        (
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "only GET is supported\n".to_owned(),
        )
    } else {
        route(path, hub, hooks)
    };

    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

fn route(path: &str, hub: &ObsHub, hooks: &ObsServerHooks) -> (&'static str, &'static str, String) {
    match path {
        "/metrics" => (
            "200 OK",
            // the exposition-format content type scrapers expect
            "text/plain; version=0.0.4; charset=utf-8",
            ((hooks.snapshot)()).render_text(),
        ),
        "/healthz" => {
            let status = (hooks.health)();
            // the envelope is built here (with escaping) so hooks can
            // return free-form plain-text detail
            let body = format!(
                "{{\"status\":\"{}\",\"detail\":\"{}\"}}\n",
                if status.healthy { "ok" } else { "unhealthy" },
                json_escape(&status.detail)
            );
            (
                if status.healthy {
                    "200 OK"
                } else {
                    "503 Service Unavailable"
                },
                "application/json; charset=utf-8",
                body,
            )
        }
        "/traces" => {
            let index = hub.recorder().index();
            let mut body = format!(
                "# flight recorder: {} retained (capacity {}), {} cheap dropped, {} evicted\n",
                index.len(),
                hub.recorder().capacity(),
                hub.recorder().dropped_cheap(),
                hub.recorder().evicted()
            );
            for entry in index {
                body.push_str(&format!(
                    "request={} outcome={} latency={}ns spans={}\n",
                    entry.request_id,
                    entry.outcome.as_str(),
                    entry.latency_nanos,
                    entry.spans
                ));
            }
            ("200 OK", "text/plain; charset=utf-8", body)
        }
        _ => {
            if let Some(id) = path.strip_prefix("/traces/") {
                match id.parse::<u64>().ok().and_then(|id| hub.recorder().get(id)) {
                    Some(rec) => {
                        let body = format!(
                            "outcome={} latency={}ns\n{}",
                            rec.outcome.as_str(),
                            rec.latency_nanos,
                            rec.render_tree()
                        );
                        ("200 OK", "text/plain; charset=utf-8", body)
                    }
                    None => (
                        "404 Not Found",
                        "text/plain; charset=utf-8",
                        format!("request {id} not retained\n"),
                    ),
                }
            } else {
                (
                    "404 Not Found",
                    "text/plain; charset=utf-8",
                    "unknown path; try /metrics /healthz /traces /traces/<request_id>\n".to_owned(),
                )
            }
        }
    }
}

/// Escapes a string for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Minimal client for tests and smoke bins: one GET over a fresh
/// connection, returning `(status_code, body)`.
pub fn http_get(addr: SocketAddr, path: &str) -> std::io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8_lossy(&raw).into_owned();
    let status = text
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| std::io::Error::new(ErrorKind::InvalidData, "malformed status line"))?;
    let body = text
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    Ok((status, body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::{RecordedRequest, RequestOutcome};
    use crate::{SpanKind, TraceEvent};

    fn loopback() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    #[test]
    fn serves_metrics_healthz_and_404() {
        let hub = ObsHub::new();
        hub.registry().counter("demo_total", &[("k", "v")]).add(3);
        let server = ObsServer::start(loopback(), hub.clone(), ObsServerHooks::for_hub(&hub))
            .expect("bind loopback");
        let addr = server.local_addr();

        let (code, body) = http_get(addr, "/metrics").unwrap();
        assert_eq!(code, 200);
        assert_eq!(
            body,
            hub.snapshot().render_text(),
            "byte-identical exposition"
        );
        let parsed = MetricsSnapshot::parse_text(&body).expect("scrape parses");
        assert_eq!(parsed.get("demo_total{k=\"v\"}"), Some(3.0));

        let (code, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("ok"));

        let (code, _) = http_get(addr, "/nope").unwrap();
        assert_eq!(code, 404);
    }

    #[test]
    fn serves_flight_recorder_index_and_tree() {
        let hub = ObsHub::new();
        hub.recorder().record(RecordedRequest {
            request_id: 42,
            outcome: RequestOutcome::Degraded,
            latency_nanos: 1234,
            completed_nanos: 99,
            events: vec![TraceEvent {
                request_id: 42,
                span_id: 7,
                parent_span_id: 0,
                kind: SpanKind::SessionEval,
                shard: None,
                start_nanos: 0,
                duration_nanos: 1234,
            }],
        });
        let server = ObsServer::start(loopback(), hub.clone(), ObsServerHooks::for_hub(&hub))
            .expect("bind loopback");
        let addr = server.local_addr();

        let (code, body) = http_get(addr, "/traces").unwrap();
        assert_eq!(code, 200);
        assert!(
            body.contains("request=42 outcome=degraded latency=1234ns spans=1\n"),
            "{body}"
        );

        let (code, body) = http_get(addr, "/traces/42").unwrap();
        assert_eq!(code, 200);
        assert!(body.contains("outcome=degraded"), "{body}");
        assert!(body.contains("session_eval"), "{body}");

        let (code, _) = http_get(addr, "/traces/999").unwrap();
        assert_eq!(code, 404);
        let (code, _) = http_get(addr, "/traces/not-a-number").unwrap();
        assert_eq!(code, 404);
    }

    #[test]
    fn unhealthy_hook_flips_healthz_to_503() {
        let hub = ObsHub::new();
        let snapshot_hub = hub.clone();
        let healthy = Arc::new(AtomicBool::new(true));
        let health_flag = Arc::clone(&healthy);
        let hooks = ObsServerHooks {
            snapshot: Arc::new(move || snapshot_hub.snapshot()),
            health: Arc::new(move || {
                let ok = health_flag.load(Ordering::Acquire);
                HealthStatus {
                    healthy: ok,
                    detail: if ok { "all clear" } else { "breaker \"open\"" }.to_owned(),
                }
            }),
        };
        let server = ObsServer::start(loopback(), hub, hooks).expect("bind loopback");
        let addr = server.local_addr();
        assert_eq!(http_get(addr, "/healthz").unwrap().0, 200);
        healthy.store(false, Ordering::Release);
        let (code, body) = http_get(addr, "/healthz").unwrap();
        assert_eq!(code, 503);
        assert!(body.contains("unhealthy"));
    }

    #[test]
    fn mutated_request_heads_never_kill_the_server() {
        // a panic in handle_connection would end the accept loop, so a
        // fresh GET /healthz after every malformed head must still be
        // answered 200
        let hub = ObsHub::new();
        let server = ObsServer::start(loopback(), hub.clone(), ObsServerHooks::for_hub(&hub))
            .expect("bind loopback");
        let addr = server.local_addr();
        let mut heads: Vec<Vec<u8>> = vec![
            b"\xff\xfe\xc3( /\x80metrics HTTP/1.1\r\n\r\n".to_vec(),
            b"GET /metrics HTTP/1.1".to_vec(),
            [b"GET /".as_slice(), &[b'a'; 3 * MAX_REQUEST_BYTES]].concat(),
            b"\r\n\r\n".to_vec(),
            format!("GET /traces/{} HTTP/1.1\r\n\r\n", "9".repeat(4096)).into_bytes(),
            Vec::new(),
        ];
        // seeded insert/delete/replace mutants of a valid head
        // (splitmix64: the same mutants on every run)
        const ALPHABET: &[u8] = b" \r\n\t/:%?#G9\x00\xff\xc3";
        let valid = b"GET /traces/42 HTTP/1.1\r\nHost: x\r\n\r\n";
        let mut state = 0x0b5_u64;
        let mut next = |bound: usize| {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            ((z ^ (z >> 31)) % bound.max(1) as u64) as usize
        };
        for _ in 0..40 {
            let mut head = valid.to_vec();
            for _ in 0..1 + next(8) {
                let at = next(head.len() + 1);
                let byte = ALPHABET[next(ALPHABET.len())];
                match next(3) {
                    0 => head.insert(at, byte),
                    1 if at < head.len() => drop(head.remove(at)),
                    _ if at < head.len() => head[at] = byte,
                    _ => head.push(byte),
                }
            }
            heads.push(head);
        }
        for head in &heads {
            // the server may answer and close before reading everything,
            // so the malformed side of the exchange ignores I/O errors
            if let Ok(mut stream) = TcpStream::connect(addr) {
                let _ = stream.write_all(head);
                let _ = stream.shutdown(std::net::Shutdown::Write);
                let _ = stream.read_to_end(&mut Vec::new());
            }
            let shown = String::from_utf8_lossy(&head[..head.len().min(80)]);
            let reply = http_get(addr, "/healthz");
            assert!(
                matches!(reply, Ok((200, _))),
                "server stopped answering after {shown:?}: {reply:?}"
            );
        }
    }

    #[test]
    fn non_get_is_rejected() {
        let hub = ObsHub::new();
        let server = ObsServer::start(loopback(), hub.clone(), ObsServerHooks::for_hub(&hub))
            .expect("bind loopback");
        let addr = server.local_addr();
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(
            stream,
            "POST /metrics HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n"
        )
        .unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "{out}");
    }
}
