//! A zero-dependency HTTP scrape endpoint over std's `TcpListener`.
//!
//! The observatory's live window: while a `clue throughput` / `churn` /
//! `chaos` run executes, a scraper (curl, Prometheus) can GET
//!
//! * `/metrics` — the registry in Prometheus text-exposition format;
//! * `/metrics.json` — the same snapshot as JSON.
//!
//! Every response is rendered from a fresh [`Registry::snapshot`], so
//! scrapes observe the workload *live* — and thanks to the snapshot
//! consistency fix, a mid-run histogram scrape is still internally
//! coherent (`Σ buckets == count`).
//!
//! The protocol is deliberately minimal — `HTTP/1.0`-style one request
//! per connection, `Connection: close`, GET only — because the peer is
//! a scraper, not a browser. The accept loop runs on one background
//! thread in nonblocking mode with a short sleep, so shutdown (an
//! `AtomicBool`, checked each iteration) needs no self-connect trick
//! and the server adds no load while idle.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::registry::Registry;

/// How long the accept loop sleeps when no connection is pending —
/// also the shutdown-latency bound.
const IDLE_POLL: Duration = Duration::from_millis(10);

/// A live metrics endpoint serving a shared [`Registry`]; see the
/// module docs. Shuts down on `ScrapeServer::shutdown` or drop.
#[derive(Debug)]
pub struct ScrapeServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ScrapeServer {
    /// Binds `addr` (e.g. `"127.0.0.1:9100"`; port 0 picks a free
    /// port) and starts serving `registry` on a background thread.
    pub fn start<A: ToSocketAddrs>(addr: A, registry: Arc<Registry>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let stop = stop.clone();
            std::thread::Builder::new()
                .name("clue-scrape".into())
                .spawn(move || serve_loop(listener, registry, stop))?
        };
        Ok(ScrapeServer { addr, stop, thread: Some(thread) })
    }

    /// The bound address — what to point `curl` at (useful when the
    /// caller bound port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread. Idempotent.
    pub(crate) fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ScrapeServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(listener: TcpListener, registry: Arc<Registry>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _peer)) => {
                // Scrapers are few and requests tiny: serving inline on
                // the accept thread keeps the server single-threaded
                // and bounds its footprint at one connection.
                let _ = handle_connection(stream, &registry);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(IDLE_POLL);
            }
            Err(_) => std::thread::sleep(IDLE_POLL),
        }
    }
}

fn handle_connection(mut stream: TcpStream, registry: &Registry) -> std::io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;

    // Read until the end of the request head (CRLFCRLF) or a bounded
    // amount — a scrape GET has no body worth waiting for.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 8192 {
                    break;
                }
            }
            Err(_) => break,
        }
    }

    let request_line = std::str::from_utf8(&buf)
        .ok()
        .and_then(|s| s.lines().next())
        .unwrap_or("")
        .to_owned();
    let mut parts = request_line.split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));

    let (status, content_type, body) = match (method, path) {
        ("GET", "/metrics") => ("200 OK", "text/plain; version=0.0.4", registry.to_prometheus()),
        ("GET", "/metrics.json") => ("200 OK", "application/json", registry.to_json()),
        ("GET", _) => ("404 Not Found", "text/plain; version=0.0.4", "not found\n".to_owned()),
        _ => ("405 Method Not Allowed", "text/plain; version=0.0.4", "GET only\n".to_owned()),
    };
    let response = format!(
        "HTTP/1.0 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::export::parse_prometheus;

    /// Minimal test-side HTTP GET; returns (status line, body).
    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect to scrape server");
        write!(stream, "GET {path} HTTP/1.0\r\nHost: test\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("response has a head");
        (head.lines().next().unwrap_or("").to_owned(), body.to_owned())
    }

    fn test_registry() -> Arc<Registry> {
        let reg = Arc::new(Registry::new());
        reg.counter("clue_test_lookups_total", "Lookups").add(7);
        let h = reg.histogram("clue_test_ns", "Latency", &[10, 100]);
        h.observe(5);
        h.observe(50);
        reg
    }

    #[test]
    fn serves_prometheus_and_json_live() {
        let reg = test_registry();
        let server = ScrapeServer::start("127.0.0.1:0", reg.clone()).unwrap();

        let (status, body) = http_get(server.addr(), "/metrics");
        assert!(status.contains("200"), "got {status}");
        let doc = parse_prometheus(&body).expect("served /metrics must parse");
        assert_eq!(doc.sample("clue_test_lookups_total"), Some(7.0));
        assert_eq!(doc.types["clue_test_ns"], "histogram");

        // The endpoint is live: a second scrape sees new increments.
        reg.counter("clue_test_lookups_total", "").add(3);
        let (_, body) = http_get(server.addr(), "/metrics");
        let doc = parse_prometheus(&body).unwrap();
        assert_eq!(doc.sample("clue_test_lookups_total"), Some(10.0));

        let (status, body) = http_get(server.addr(), "/metrics.json");
        assert!(status.contains("200"));
        assert!(body.contains("\"clue_test_lookups_total\": {\"type\": \"counter\", \"value\": 10}"));
        assert!(body.trim_end().starts_with('{') && body.trim_end().ends_with('}'));
    }

    #[test]
    fn unknown_paths_get_404_and_non_get_405() {
        let server = ScrapeServer::start("127.0.0.1:0", test_registry()).unwrap();
        let (status, _) = http_get(server.addr(), "/nope");
        assert!(status.contains("404"), "got {status}");

        let mut stream = TcpStream::connect(server.addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.0 405"), "got {response}");
    }

    #[test]
    fn shutdown_is_prompt_and_idempotent() {
        let mut server = ScrapeServer::start("127.0.0.1:0", test_registry()).unwrap();
        let addr = server.addr();
        server.shutdown();
        server.shutdown();
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly after close; a request must
                // at least go unanswered.
                let mut s = TcpStream::connect(addr).unwrap();
                s.set_read_timeout(Some(Duration::from_millis(100))).unwrap();
                write!(s, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
                let mut out = String::new();
                s.read_to_string(&mut out).unwrap_or(0) == 0
            },
            "server must stop serving after shutdown"
        );
    }

    #[test]
    fn mid_run_scrapes_see_consistent_histograms() {
        let reg = Arc::new(Registry::new());
        let h = reg.histogram("clue_test_live", "", &[1, 2, 4, 8]);
        let server = ScrapeServer::start("127.0.0.1:0", reg).unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let writer = {
            let h = h.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut i = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    h.observe(i % 10);
                    i += 1;
                }
            })
        };
        for _ in 0..5 {
            let (_, body) = http_get(server.addr(), "/metrics");
            let doc = parse_prometheus(&body).unwrap();
            let count = doc.sample("clue_test_live_count").unwrap();
            let inf = doc.sample("clue_test_live_bucket{le=\"+Inf\"}").unwrap();
            assert_eq!(count, inf, "scraped histogram must be internally consistent");
        }
        stop.store(true, Ordering::Relaxed);
        writer.join().unwrap();
    }
}
