//! The JSON query endpoint for one [`EntityIndex`]: a route function on
//! the workspace's one listener (`pier_metrics::http`). Three routes:
//!
//! * `GET /entity/{profile_id}` — the profile's cluster: representative,
//!   size, sorted members, and the generation of the view;
//! * `GET /clusters` — whole-index summary: counters, the size histogram,
//!   and the largest clusters with members;
//! * `GET /healthz` — liveness plus the generation and applied-match count.
//!
//! Every response is built from a *single* lock acquisition on the index
//! ([`EntityIndex::lookup`] / [`EntityIndex::snapshot`] /
//! [`EntityIndex::stats`]), so the fields of one response always agree
//! with each other even while the pipeline is merging.

use std::io;
use std::net::{SocketAddr, ToSocketAddrs};
use std::sync::Arc;

use pier_metrics::http::HttpServer;
use pier_types::ProfileId;

use crate::index::{EntityIndex, EntitySnapshot};

/// A live query endpoint for one [`EntityIndex`].
///
/// ```no_run
/// use pier_entity::{EntityIndex, EntityServer};
///
/// let index = EntityIndex::shared();
/// let mut server = EntityServer::serve("127.0.0.1:0", index).unwrap();
/// println!("query http://{}/clusters", server.local_addr());
/// // ... run the pipeline with the index attached ...
/// server.shutdown();
/// ```
#[derive(Debug)]
pub struct EntityServer(HttpServer);

impl EntityServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts the
    /// accept thread.
    pub fn serve(addr: impl ToSocketAddrs, index: Arc<EntityIndex>) -> io::Result<Self> {
        let route = move |method: &str, path: &str| {
            let (status, body) = answer(&index, method, path);
            (status, "application/json", body)
        };
        HttpServer::serve(addr, "pier-entity", route).map(EntityServer)
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

/// The status line tail and JSON body for one request.
fn answer(index: &EntityIndex, method: &str, path: &str) -> (&'static str, String) {
    match (method, path) {
        ("GET", "/clusters") => ("200 OK", clusters_json(&index.snapshot())),
        ("GET", "/healthz") => {
            let stats = index.stats();
            (
                "200 OK",
                format!(
                    "{{\"status\":\"ok\",\"generation\":{},\"matches_applied\":{}}}",
                    stats.generation, stats.matches_applied
                ),
            )
        }
        ("GET", p) if p.starts_with("/entity/") => entity_json(index, &p["/entity/".len()..]),
        ("GET", _) => ("404 Not Found", "{\"error\":\"not found\"}".to_string()),
        _ => (
            "405 Method Not Allowed",
            "{\"error\":\"method not allowed\"}".to_string(),
        ),
    }
}

/// `GET /entity/{id}`: the cluster of one profile, from one lock hold.
fn entity_json(index: &EntityIndex, raw_id: &str) -> (&'static str, String) {
    let Ok(id) = raw_id.parse::<u32>() else {
        return (
            "400 Bad Request",
            format!(
                "{{\"error\":\"profile id must be a u32\",\"got\":{}}}",
                json_string(raw_id)
            ),
        );
    };
    match index.lookup(ProfileId(id)) {
        Some(l) => (
            "200 OK",
            format!(
                "{{\"profile\":{id},\"entity\":{},\"generation\":{},\"size\":{},\"members\":{}}}",
                l.entity.0,
                l.generation,
                l.members.len(),
                json_ids(&l.members)
            ),
        ),
        None => (
            "404 Not Found",
            format!("{{\"error\":\"unknown profile\",\"profile\":{id}}}"),
        ),
    }
}

/// `GET /clusters`: the whole-index snapshot.
fn clusters_json(snap: &EntitySnapshot) -> String {
    let histogram: Vec<String> = snap
        .size_histogram
        .iter()
        .map(|(size, count)| format!("[{size},{count}]"))
        .collect();
    let largest: Vec<String> = snap
        .largest
        .iter()
        .map(|c| {
            format!(
                "{{\"entity\":{},\"size\":{},\"members\":{}}}",
                c.entity.0,
                c.size,
                json_ids(&c.members)
            )
        })
        .collect();
    format!(
        "{{\"generation\":{},\"matches_applied\":{},\"merges\":{},\"profiles\":{},\"clusters\":{},\"size_histogram\":[{}],\"largest\":[{}]}}",
        snap.generation,
        snap.matches_applied,
        snap.merges,
        snap.profiles,
        snap.clusters,
        histogram.join(","),
        largest.join(",")
    )
}

fn json_ids(ids: &[ProfileId]) -> String {
    let inner: Vec<String> = ids.iter().map(|p| p.0.to_string()).collect();
    format!("[{}]", inner.join(","))
}

/// Minimal JSON string escaping for echoing a malformed path segment.
fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pier_types::Comparison;
    use std::io::{Read, Write};
    use std::net::TcpStream;

    fn http_get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        (head.to_string(), body.to_string())
    }

    fn linked_index() -> Arc<EntityIndex> {
        let index = EntityIndex::shared();
        index.apply(Comparison::new(ProfileId(1), ProfileId(2)));
        index.apply(Comparison::new(ProfileId(2), ProfileId(3)));
        index.apply(Comparison::new(ProfileId(10), ProfileId(11)));
        index
    }

    #[test]
    fn serves_entities_clusters_and_health() {
        let index = linked_index();
        let mut server = EntityServer::serve("127.0.0.1:0", Arc::clone(&index)).unwrap();
        let addr = server.local_addr();
        assert_ne!(addr.port(), 0);

        let (head, body) = http_get(addr, "/entity/3");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(head.contains("application/json"));
        assert!(body.contains("\"profile\":3"));
        assert!(body.contains("\"size\":3"));
        assert!(body.contains("\"members\":[1,2,3]"));
        assert!(body.contains("\"generation\":3"));

        let (head, body) = http_get(addr, "/clusters");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"clusters\":2"));
        assert!(body.contains("\"profiles\":5"));
        assert!(body.contains("\"size_histogram\":[[2,1],[3,1]]"));
        assert!(body.contains("\"members\":[1,2,3]"));

        let (head, body) = http_get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200 OK"), "{head}");
        assert!(body.contains("\"status\":\"ok\""));
        assert!(body.contains("\"matches_applied\":3"));

        // A view served later can only have a later-or-equal generation.
        index.apply(Comparison::new(ProfileId(3), ProfileId(10)));
        let (_, body) = http_get(addr, "/entity/11");
        assert!(body.contains("\"size\":5"), "{body}");
        assert!(body.contains("\"generation\":4"), "{body}");

        assert_eq!(server.requests_served(), 4);
        server.shutdown();
        server.shutdown(); // idempotent
    }

    #[test]
    fn error_paths_answer_json() {
        let mut server = EntityServer::serve("127.0.0.1:0", linked_index()).unwrap();
        let addr = server.local_addr();
        let (head, body) = http_get(addr, "/entity/99");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        assert!(body.contains("\"error\":\"unknown profile\""));
        let (head, body) = http_get(addr, "/entity/bogus");
        assert!(head.starts_with("HTTP/1.1 400"), "{head}");
        assert!(body.contains("\"got\":\"bogus\""));
        let (head, _) = http_get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");
        server.shutdown();
    }
}
