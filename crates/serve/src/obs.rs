//! Live observability endpoint (`/metrics`, `/healthz`, `/trace`).
//!
//! A deliberately tiny, std-only, blocking HTTP/1.1 server that exposes
//! a **finished run's** exports over a socket so standard tooling
//! (`curl`, a Prometheus scraper, a browser pointed at Perfetto) can
//! pull them. The deterministic event loop stays pure: the server never
//! touches live simulation state, it serves an immutable [`ObsSnapshot`]
//! rendered once from the final [`ServeReport`]. `/metrics` is
//! byte-identical to the `--prom-out` file, `/trace` to the
//! `--trace-out` file — the socket is a transport, not a second code
//! path.
//!
//! One connection at a time, `Connection: close` on every response; the
//! accept loop is bounded by `max_requests` when the caller needs the
//! server to terminate (tests, CI smoke). The request head is read under
//! constant caps, so a peer cannot grow the server's buffers: an
//! over-long request line answers `414`, an over-long header line or too
//! many headers answer `431`.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use crate::report::ServeReport;

/// Per-connection socket timeout: a stalled peer cannot wedge the
/// accept loop forever.
const IO_TIMEOUT: Duration = Duration::from_secs(5);

/// Longest request line read, its line terminator included.
const MAX_REQUEST_LINE: u64 = 8 * 1024;

/// Longest header line read, its line terminator included.
const MAX_HEADER_LINE: u64 = 8 * 1024;

/// Most header lines a request may carry.
const MAX_HEADER_LINES: usize = 100;

const URI_TOO_LONG: &str = "414 URI Too Long";
const HEADERS_TOO_LARGE: &str = "431 Request Header Fields Too Large";

/// The immutable endpoint payloads, rendered once from a final report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsSnapshot {
    /// `/metrics` body (Prometheus text exposition).
    pub metrics: String,
    /// `/healthz` body (one JSON line).
    pub healthz: String,
    /// `/trace` body (Chrome trace-event JSON).
    pub trace: String,
}

impl ObsSnapshot {
    /// Renders the endpoint payloads from a finished run.
    pub fn of(report: &ServeReport) -> Self {
        ObsSnapshot {
            metrics: report.to_prometheus(),
            healthz: report.to_healthz(),
            trace: report.to_chrome_trace(),
        }
    }
}

/// The blocking observability server.
#[derive(Debug)]
pub struct ObsServer {
    listener: TcpListener,
    snapshot: ObsSnapshot,
}

impl ObsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9090`, port 0 for ephemeral).
    ///
    /// # Errors
    ///
    /// Propagates the bind failure.
    pub fn bind(addr: &str, snapshot: ObsSnapshot) -> io::Result<Self> {
        Ok(ObsServer {
            listener: TcpListener::bind(addr)?,
            snapshot,
        })
    }

    /// The bound address (useful after binding port 0).
    ///
    /// # Errors
    ///
    /// Propagates the socket query failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accepts and answers connections one at a time. With
    /// `max_requests: Some(n)` the loop returns after `n` connections;
    /// with `None` it runs until the process exits. Returns the number
    /// of connections handled. Per-connection I/O errors are counted
    /// against the bound but otherwise ignored — a misbehaving client
    /// must not take the endpoint down.
    ///
    /// # Errors
    ///
    /// Propagates accept failures (not per-connection I/O errors).
    pub fn serve(&self, max_requests: Option<u64>) -> io::Result<u64> {
        let mut handled = 0;
        loop {
            if let Some(limit) = max_requests {
                if handled >= limit {
                    return Ok(handled);
                }
            }
            let (stream, _) = self.listener.accept()?;
            let _ = self.handle(stream);
            handled += 1;
        }
    }

    fn handle(&self, stream: TcpStream) -> io::Result<()> {
        stream.set_read_timeout(Some(IO_TIMEOUT))?;
        stream.set_write_timeout(Some(IO_TIMEOUT))?;
        let mut reader = BufReader::new(stream);
        let (status, content_type, body) = match read_head(&mut reader)? {
            Ok(request_line) => self.route(&request_line),
            Err(status) => (status, "text/plain; charset=utf-8", "request too large\n"),
        };
        let mut stream = reader.into_inner();
        write!(
            stream,
            "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
            body.len()
        )?;
        stream.write_all(body.as_bytes())?;
        stream.flush()
    }

    /// The status, content type and body answering `request_line`.
    fn route(&self, request_line: &str) -> (&'static str, &'static str, &str) {
        let mut parts = request_line.split_whitespace();
        let method = parts.next().unwrap_or("");
        let path = parts.next().unwrap_or("");
        if method != "GET" {
            return (
                "405 Method Not Allowed",
                "text/plain; charset=utf-8",
                "method not allowed\n",
            );
        }
        match path {
            "/metrics" => (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &self.snapshot.metrics,
            ),
            "/healthz" => ("200 OK", "application/json", &self.snapshot.healthz),
            "/trace" => ("200 OK", "application/json", &self.snapshot.trace),
            _ => ("404 Not Found", "text/plain; charset=utf-8", "not found\n"),
        }
    }
}

/// Reads the request line and drains the headers (the snapshot server
/// ignores them all) within the caps. Returns the request line, or the
/// status refusing a request that exceeds a cap.
fn read_head(reader: &mut impl BufRead) -> io::Result<Result<String, &'static str>> {
    let Some(request_line) = read_line_capped(reader, MAX_REQUEST_LINE)? else {
        return Ok(Err(URI_TOO_LONG));
    };
    // The headers, then the blank line that ends them.
    for _ in 0..=MAX_HEADER_LINES {
        match read_line_capped(reader, MAX_HEADER_LINE)?.as_deref() {
            None => return Ok(Err(HEADERS_TOO_LARGE)),
            Some("" | "\r\n" | "\n") => return Ok(Ok(request_line)),
            Some(_) => {}
        }
    }
    Ok(Err(HEADERS_TOO_LARGE))
}

/// Reads one line of at most `cap` bytes; `None` when it is longer.
/// An empty string means the peer closed the connection.
fn read_line_capped(reader: &mut impl BufRead, cap: u64) -> io::Result<Option<String>> {
    let mut line = String::new();
    let read = reader.by_ref().take(cap).read_line(&mut line)?;
    Ok((read as u64 != cap || line.ends_with('\n')).then_some(line))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn snapshot() -> ObsSnapshot {
        ObsSnapshot {
            metrics: "# TYPE up gauge\nup 1\n".to_string(),
            healthz: "{\"status\":\"ok\"}\n".to_string(),
            trace: "{\"traceEvents\":[\n]}\n".to_string(),
        }
    }

    fn get(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    fn spawn(requests: u64) -> (SocketAddr, std::thread::JoinHandle<u64>) {
        let server = ObsServer::bind("127.0.0.1:0", snapshot()).unwrap();
        let addr = server.local_addr().unwrap();
        let handle = std::thread::spawn(move || server.serve(Some(requests)).unwrap());
        (addr, handle)
    }

    #[test]
    fn serves_the_snapshot_bytes_verbatim() {
        let (addr, handle) = spawn(3);
        let metrics = get(addr, "GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(metrics.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(metrics.contains("version=0.0.4"));
        assert!(metrics.ends_with(&snapshot().metrics));
        let healthz = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(healthz.ends_with(&snapshot().healthz));
        let trace = get(addr, "GET /trace HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(trace.contains("Content-Type: application/json"));
        assert!(trace.ends_with(&snapshot().trace));
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn unknown_paths_and_methods_are_rejected() {
        let (addr, handle) = spawn(2);
        let missing = get(addr, "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(missing.starts_with("HTTP/1.1 404 Not Found\r\n"));
        let post = get(addr, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(post.starts_with("HTTP/1.1 405 Method Not Allowed\r\n"));
        assert_eq!(handle.join().unwrap(), 2);
    }

    /// Like `get`, but keeps what arrived when the server resets the
    /// connection after answering (it closes without reading the rest of
    /// an oversized request).
    fn get_refused(addr: SocketAddr, request: &str) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        let _ = stream.read_to_string(&mut response);
        response
    }

    #[test]
    fn an_overlong_request_line_is_refused_and_serving_continues() {
        let (addr, handle) = spawn(2);
        let path = "a".repeat(MAX_REQUEST_LINE as usize);
        let refused = get_refused(addr, &format!("GET /{path} HTTP/1.1\r\nHost: x\r\n\r\n"));
        assert!(
            refused.starts_with("HTTP/1.1 414 URI Too Long\r\n"),
            "{refused}"
        );
        let healthz = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        assert!(healthz.starts_with("HTTP/1.1 200 OK\r\n"));
        assert_eq!(handle.join().unwrap(), 2);
    }

    #[test]
    fn too_many_or_overlong_headers_are_refused_and_serving_continues() {
        let (addr, handle) = spawn(3);
        let many = "X-Pad: 1\r\n".repeat(MAX_HEADER_LINES + 1);
        let refused = get_refused(addr, &format!("GET /healthz HTTP/1.1\r\n{many}\r\n"));
        assert!(
            refused.starts_with("HTTP/1.1 431 Request Header Fields Too Large\r\n"),
            "{refused}"
        );
        let long = "b".repeat(MAX_HEADER_LINE as usize);
        let refused = get_refused(
            addr,
            &format!("GET /healthz HTTP/1.1\r\nX-Pad: {long}\r\n\r\n"),
        );
        assert!(refused.starts_with("HTTP/1.1 431 "), "{refused}");
        // Exactly at the caps is still a request.
        let most = "X-Pad: 1\r\n".repeat(MAX_HEADER_LINES);
        let healthz = get(addr, &format!("GET /healthz HTTP/1.1\r\n{most}\r\n"));
        assert!(healthz.starts_with("HTTP/1.1 200 OK\r\n"), "{healthz}");
        assert_eq!(handle.join().unwrap(), 3);
    }

    #[test]
    fn content_length_matches_the_body() {
        let (addr, handle) = spawn(1);
        let response = get(addr, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len());
        handle.join().unwrap();
    }
}
