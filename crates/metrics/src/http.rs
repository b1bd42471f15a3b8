//! The one hand-rolled HTTP listener of the workspace, on `std::net`.
//!
//! One background thread accepts connections on a [`TcpListener`] in
//! non-blocking mode (shutdown is a flag check away — no self-connect
//! tricks), reads one request head, asks the endpoint's route function for
//! the answer, writes it and closes. [`crate::MetricsServer`] and
//! `pier_entity::EntityServer` are each this loop plus a route function.
//!
//! The request head is outside input on the only serving thread, so it is
//! bounded twice: `MAX_HEAD` (8 KiB), and `HEAD_DEADLINE` (2 s) for the
//! whole head (not per read — a client dribbling bytes must not hold the
//! endpoint, or `shutdown()`, for as long as it likes). A head that is too
//! large or too slow is answered `431`.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long the accept loop sleeps between polls when idle, and how often
/// a pending head read looks at the stop flag.
const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// How long a connected client gets to produce its whole request head, and
/// to take each write of the response.
const HEAD_DEADLINE: Duration = Duration::from_secs(2);

/// The largest request head (request line + headers) read.
const MAX_HEAD: usize = 8 * 1024;

/// What a route function answers: status line tail (`"200 OK"`), content
/// type, body.
pub type Response = (&'static str, &'static str, String);

/// What the accept thread shares with its handle.
#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    requests: AtomicU64,
}

/// A listener thread answering every request with `route(method, path)`.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl HttpServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts the
    /// accept thread under `thread_name`.
    pub fn serve(
        addr: impl ToSocketAddrs,
        thread_name: &str,
        route: impl Fn(&str, &str) -> Response + Send + 'static,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(Shared::default());
        let state = Arc::clone(&shared);
        let accept_loop = move || {
            let Shared { stop, requests } = &*state;
            while !stop.load(Ordering::Relaxed) {
                match listener.accept() {
                    // Serve inline: requests are tiny and sequential, and a
                    // single thread keeps shutdown deterministic.
                    Ok((stream, _peer)) => {
                        if handle_client(stream, &route, stop).is_ok() {
                            requests.fetch_add(1, Ordering::Relaxed);
                        }
                    }
                    // Nothing pending, or a transient accept error (aborted
                    // handshake): keep serving.
                    Err(_) => std::thread::sleep(ACCEPT_POLL),
                }
            }
        };
        let handle = std::thread::Builder::new()
            .name(thread_name.into())
            .spawn(accept_loop)?;
        Ok(HttpServer {
            addr,
            shared,
            handle: Some(handle),
        })
    }

    /// The bound address (resolves port 0 to the real port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests answered so far (any path, any status).
    pub fn requests_served(&self) -> u64 {
        self.shared.requests.load(Ordering::Relaxed)
    }

    /// Stops the accept thread and waits for it to exit. Idempotent; an
    /// in-flight response finishes first, a pending head read is abandoned.
    pub fn shutdown(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("addr", &self.addr)
            .field("requests", &self.requests_served())
            .finish()
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Reads the request head: up to the first blank line or EOF. `None` when
/// it outgrew [`MAX_HEAD`] or outlasted [`HEAD_DEADLINE`]; an error (the
/// connection is dropped unanswered) when the server is stopping.
fn read_head(stream: &mut TcpStream, stop: &AtomicBool) -> io::Result<Option<Vec<u8>>> {
    let deadline = Instant::now() + HEAD_DEADLINE;
    let mut head = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if stop.load(Ordering::Relaxed) {
            return Err(ErrorKind::ConnectionAborted.into());
        }
        if head.len() >= MAX_HEAD || left.is_zero() {
            return Ok(None);
        }
        stream.set_read_timeout(Some(left.min(ACCEPT_POLL)))?;
        let room = chunk.len().min(MAX_HEAD - head.len());
        match stream.read(&mut chunk[..room]) {
            Ok(0) => return Ok(Some(head)),
            Ok(n) => {
                // A blank line can only end inside the new bytes.
                let seen = head.len().saturating_sub(2);
                head.extend_from_slice(&chunk[..n]);
                let tail = &head[seen..];
                if tail.windows(2).any(|w| w == b"\n\n") || tail.windows(3).any(|w| w == b"\n\r\n")
                {
                    return Ok(Some(head));
                }
            }
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            Err(e) => return Err(e),
        }
    }
}

fn handle_client(
    mut stream: TcpStream,
    route: &impl Fn(&str, &str) -> Response,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_write_timeout(Some(HEAD_DEADLINE))?;
    let (status, content_type, body) = match read_head(&mut stream, stop)? {
        Some(head) => {
            // "GET /metrics HTTP/1.1" — only the method and path matter.
            let head = String::from_utf8_lossy(&head);
            let mut parts = head.lines().next().unwrap_or("").split_whitespace();
            route(parts.next().unwrap_or(""), parts.next().unwrap_or(""))
        }
        None => (
            "431 Request Header Fields Too Large",
            "text/plain",
            "request head too large or too slow\n".to_string(),
        ),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    )?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
