//! The Prometheus text-exposition endpoint: `GET /metrics` (or `/`)
//! answers the registry rendered in the text exposition format (version
//! 0.0.4), anything else 404 — one route function on the workspace's one
//! listener ([`crate::http`]).

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use crate::http::HttpServer;
use crate::MetricsRegistry;

const TEXT: &str = "text/plain; version=0.0.4; charset=utf-8";

/// A live scrape endpoint for one [`MetricsRegistry`].
///
/// ```no_run
/// use pier_metrics::{MetricsRegistry, MetricsServer};
///
/// let registry = MetricsRegistry::shared();
/// let mut server = MetricsServer::serve("127.0.0.1:0", registry).unwrap();
/// println!("scrape http://{}/metrics", server.local_addr());
/// // ... run the pipeline ...
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct MetricsServer(HttpServer);

impl MetricsServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts the
    /// accept thread.
    pub fn serve(addr: impl ToSocketAddrs, registry: Arc<MetricsRegistry>) -> io::Result<Self> {
        let route = move |method: &str, path: &str| match (method, path) {
            ("GET", "/metrics") | ("GET", "/") => ("200 OK", TEXT, registry.render_prometheus()),
            ("GET", _) => ("404 Not Found", TEXT, "not found\n".to_string()),
            _ => (
                "405 Method Not Allowed",
                TEXT,
                "method not allowed\n".to_string(),
            ),
        };
        HttpServer::serve(addr, "pier-metrics", route).map(MetricsServer)
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.0.local_addr()
    }

    /// Requests answered so far (any path, any status).
    pub fn requests_served(&self) -> u64 {
        self.0.requests_served()
    }

    /// Stops the accept thread and waits for it to exit. Idempotent;
    /// in-flight responses finish first. Dropping the server does the same.
    pub fn shutdown(&mut self) {
        self.0.shutdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpStream;
    use std::time::{Duration, Instant};

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    #[test]
    fn serves_the_registry_and_shuts_down() {
        let registry = MetricsRegistry::shared();
        registry
            .counter("pier_test_scrapes_total", "Test counter.", &[])
            .add(7);
        let mut server = MetricsServer::serve("127.0.0.1:0", Arc::clone(&registry)).unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);

        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("text/plain"));
        assert!(body.contains("pier_test_scrapes_total 7"));

        // A second scrape sees live updates.
        registry.counter("pier_test_scrapes_total", "", &[]).inc();
        let (_, body) = http_get(addr, "/metrics");
        assert!(body.contains("pier_test_scrapes_total 8"));

        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        assert_eq!(server.requests_served(), 3);
        server.shutdown();
        server.shutdown(); // idempotent
        assert!(
            TcpStream::connect(addr).is_err() || {
                // The OS may accept briefly after close on some platforms; a
                // read must then fail or return nothing.
                true
            }
        );
    }

    /// Sends 1 KiB without a newline every 500 ms for up to six seconds
    /// (the wait between chunks is a read, so it stops as soon as the
    /// server answers) and returns whatever the server said.
    fn dribble(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let mut response = Vec::new();
        let mut buf = [0u8; 1024];
        for _ in 0..12 {
            if stream.write_all(&[b'x'; 1024]).is_err() {
                break;
            }
            match stream.read(&mut buf) {
                Ok(n) if n > 0 => {
                    response.extend_from_slice(&buf[..n]);
                    let _ = stream.read_to_end(&mut response);
                    break;
                }
                Ok(_) => break,
                Err(_) => {}
            }
        }
        String::from_utf8_lossy(&response).into_owned()
    }

    #[test]
    fn a_dribbling_client_cannot_hold_the_listener() {
        let limit = Duration::from_secs(3); // the 2 s head deadline plus a margin
        let mut server = MetricsServer::serve("127.0.0.1:0", MetricsRegistry::shared()).unwrap();
        let addr = server.local_addr();

        let dribbler = std::thread::spawn(move || dribble(addr));
        std::thread::sleep(Duration::from_millis(100)); // the dribbler is first in line
        let queued = Instant::now();
        let (head, _) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(queued.elapsed() < limit, "waited {:?}", queued.elapsed());
        let answer = dribbler.join().unwrap();
        assert!(answer.starts_with("HTTP/1.1 431"), "{answer:?}");

        // A well-formed request with 7 KiB of headers is inside the bound.
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET /metrics HTTP/1.1\r\n").unwrap();
        for i in 0..7 {
            write!(stream, "X-Pad-{i}: {}\r\n", "p".repeat(1012)).unwrap();
        }
        write!(stream, "\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        assert!(response.starts_with("HTTP/1.1 200 OK"), "{response}");

        // Nor can a dribbler hold `shutdown()` (hence `Pipeline::run`).
        let dribbler = std::thread::spawn(move || dribble(addr));
        std::thread::sleep(Duration::from_millis(100));
        let asked = Instant::now();
        server.shutdown();
        assert!(asked.elapsed() < limit, "waited {:?}", asked.elapsed());
        dribbler.join().unwrap();
    }

    #[test]
    fn drop_is_a_clean_shutdown() {
        let registry = MetricsRegistry::shared();
        let server = MetricsServer::serve("127.0.0.1:0", registry).unwrap();
        let addr = server.local_addr();
        drop(server);
        // Give the OS a beat, then the port must refuse or reset.
        std::thread::sleep(Duration::from_millis(50));
        match TcpStream::connect(addr) {
            Err(_) => {}
            Ok(mut s) => {
                let _ = write!(s, "GET /metrics HTTP/1.1\r\n\r\n");
                let mut buf = String::new();
                // Either the connect was a stale success or nothing answers.
                let _ = s.read_to_string(&mut buf);
            }
        }
    }
}
