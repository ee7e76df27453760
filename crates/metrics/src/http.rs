//! A tiny hand-rolled HTTP/1.1 listener serving `GET /metrics`.
//!
//! Deliberately minimal — no keep-alive, no TLS, no routing beyond
//! `/metrics` — because the only client is a scraper (Prometheus, or
//! `curl` in CI). The listener runs nonblocking with a short poll sleep
//! so `stop()`/`Drop` terminates promptly without tricks like
//! self-connecting.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::MetricsRegistry;

/// A running metrics endpoint. Dropping it stops the listener.
pub struct MetricsServer {
    local_addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Serve `GET /metrics` for `registry` on `addr` (e.g. `"127.0.0.1:0"`;
/// port 0 binds an ephemeral port — read it back from
/// [`MetricsServer::local_addr`]). Every scrape gathers the registry live.
pub fn serve<A: ToSocketAddrs>(
    registry: Arc<MetricsRegistry>,
    addr: A,
) -> std::io::Result<MetricsServer> {
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let local_addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let handle = {
        let stop = stop.clone();
        std::thread::Builder::new()
            .name("metrics-http".into())
            .spawn(move || accept_loop(listener, registry, stop))
            .expect("spawn metrics-http")
    };
    Ok(MetricsServer { local_addr, stop, handle: Some(handle) })
}

impl MetricsServer {
    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop the listener thread and wait for it to exit.
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn accept_loop(listener: TcpListener, registry: Arc<MetricsRegistry>, stop: Arc<AtomicBool>) {
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((stream, _)) => {
                // Serve inline: scrapes are rare and tiny, a thread per
                // connection would be overkill.
                let _ = handle_conn(stream, &registry);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }
}

fn handle_conn(mut stream: TcpStream, registry: &MetricsRegistry) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_millis(500)))?;
    stream.set_write_timeout(Some(Duration::from_millis(500)))?;
    stream.set_nonblocking(false)?;

    // Read until the end of the request head (CRLFCRLF) or timeout. Any
    // request body is ignored — scrapers don't send one.
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() > 16 * 1024 {
                    break;
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => break,
            Err(e) => return Err(e),
        }
    }

    let head = String::from_utf8_lossy(&buf);
    let mut parts = head.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");

    let (status, body) = if method != "GET" {
        ("405 Method Not Allowed", "method not allowed\n".to_string())
    } else if path == "/metrics" || path.starts_with("/metrics?") || path == "/" {
        ("200 OK", registry.render())
    } else {
        ("404 Not Found", "not found; try /metrics\n".to_string())
    };

    let content_type = if status.starts_with("200") {
        "text/plain; version=0.0.4; charset=utf-8"
    } else {
        "text/plain; charset=utf-8"
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sample;

    /// Minimal HTTP client for tests: one request, read to EOF.
    fn http_get(addr: SocketAddr, path: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).expect("read response");
        out
    }

    #[test]
    fn serves_metrics_on_ephemeral_port() {
        let reg = MetricsRegistry::new();
        reg.register(|out: &mut Sample| {
            out.gauge_with("up", &[("node", "cn0")], 1.0);
            out.counter_with("reqs", &[], 3);
        });
        let server = serve(reg, "127.0.0.1:0").expect("bind");
        let resp = http_get(server.local_addr(), "/metrics");
        assert!(resp.starts_with("HTTP/1.1 200 OK"), "got: {resp}");
        assert!(resp.contains("text/plain; version=0.0.4"));
        assert!(resp.contains("up{node=\"cn0\"} 1"));
        assert!(resp.contains("reqs_total 3"));
    }

    #[test]
    fn unknown_path_is_404_and_post_is_405() {
        let reg = MetricsRegistry::new();
        let server = serve(reg, "127.0.0.1:0").expect("bind");
        let resp = http_get(server.local_addr(), "/nope");
        assert!(resp.starts_with("HTTP/1.1 404"), "got: {resp}");
        let mut stream = TcpStream::connect(server.local_addr()).unwrap();
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: t\r\n\r\n").unwrap();
        let mut out = String::new();
        stream.read_to_string(&mut out).unwrap();
        assert!(out.starts_with("HTTP/1.1 405"), "got: {out}");
    }

    #[test]
    fn every_scrape_gathers_live() {
        let n = Arc::new(std::sync::atomic::AtomicU64::new(7));
        let reg = MetricsRegistry::new();
        let src = n.clone();
        // ORDERING: relaxed — each scrape is ordered after the store by
        // the socket round trip that triggers it.
        reg.register(move |out: &mut Sample| out.gauge("g", src.load(Ordering::Relaxed) as f64));
        let server = serve(reg, "127.0.0.1:0").expect("bind");
        assert!(http_get(server.local_addr(), "/metrics").contains("g 7"));
        // ORDERING: relaxed — see the collector above.
        n.store(8, Ordering::Relaxed);
        let resp = http_get(server.local_addr(), "/metrics");
        assert!(resp.contains("g 8"), "second scrape missed the change: {resp}");
    }

    #[test]
    fn stop_terminates_listener() {
        let reg = MetricsRegistry::new();
        let mut server = serve(reg, "127.0.0.1:0").expect("bind");
        let addr = server.local_addr();
        server.stop();
        // Port is released: either connect fails or a rebind succeeds.
        assert!(TcpListener::bind(addr).is_ok() || TcpStream::connect(addr).is_err());
    }
}
