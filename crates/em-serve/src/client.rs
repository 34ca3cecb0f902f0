//! A tiny blocking HTTP client for the router, integration tests, and
//! benches.
//!
//! Speaks exactly the dialect the server emits: one request per
//! connection, `Connection: close`, body read to EOF and checked against
//! `Content-Length`. Every exchange carries connect/read/write timeouts
//! ([`DEFAULT_TIMEOUT`] unless overridden) so callers fail fast against
//! a wedged server instead of hanging forever.
//!
//! Failures are typed ([`ClientError`]) by what a failover policy may do
//! with them: a [`ClientError::Connect`] means no request byte ever
//! reached the backend (safe to retry elsewhere), while
//! [`ClientError::Status`] means the backend answered — it carries the
//! full response (including `Retry-After`) so "backend said no" can be
//! passed through rather than treated as "backend down".

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::deadline::is_timeout;

/// Per-operation timeout applied by [`request`]: bounds the connect and
/// each read/write syscall. Generous, because a cold `/explain` trains
/// nothing but can still compute for seconds on a loaded CI box.
pub const DEFAULT_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed response.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: String,
}

impl ClientResponse {
    /// First header with the given lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why an exchange failed, separated by what a failover policy may do
/// about it (DESIGN.md §15).
#[derive(Debug)]
pub enum ClientError {
    /// TCP connect failed (refused, unreachable, or connect timeout): no
    /// request byte ever reached the backend, so retrying the same
    /// request against another backend cannot double-execute anything.
    Connect(std::io::Error),
    /// A read or write timed out *after* the connection was established.
    /// The backend may have received — and may still be processing — the
    /// request; only idempotent requests are safe to retry.
    Timeout(std::io::Error),
    /// The backend answered with a non-2xx status. This is not a
    /// transport failure: the full response (including any `Retry-After`)
    /// is carried so a proxy can pass it through verbatim.
    Status(ClientResponse),
    /// The backend spoke, but not valid HTTP — or the connection broke
    /// mid-exchange with a non-timeout error. The request reached the
    /// peer, so this is distinct from [`ClientError::Connect`].
    Protocol(std::io::Error),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Connect(e) => write!(f, "connect failed: {e}"),
            ClientError::Timeout(e) => write!(f, "exchange timed out: {e}"),
            ClientError::Status(r) => write!(f, "backend answered {}", r.status),
            ClientError::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl ClientError {
    /// Collapses the typed error back into `std::io::Error` for the
    /// legacy [`request`] API (which reports any parsed response as `Ok`
    /// and everything else as IO).
    fn into_io(self) -> std::io::Error {
        match self {
            ClientError::Connect(e) | ClientError::Timeout(e) | ClientError::Protocol(e) => e,
            ClientError::Status(r) => {
                std::io::Error::other(format!("backend answered {}", r.status))
            }
        }
    }
}

/// Sends one request and reads the full response, under
/// [`DEFAULT_TIMEOUT`]. Any parsed response — whatever its status — is
/// `Ok`; use [`exchange_with_timeout`] when the caller needs failures
/// typed.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<ClientResponse> {
    request_with_timeout(addr, method, path, body, DEFAULT_TIMEOUT)
}

/// [`request`] with an explicit timeout bounding the connect and each
/// individual read/write syscall (not the exchange as a whole).
pub fn request_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> std::io::Result<ClientResponse> {
    transfer(addr, method, path, body, timeout).map_err(ClientError::into_io)
}

/// Sends one request with failures typed for failover: `Ok` is a 2xx
/// response; a non-2xx answer is [`ClientError::Status`] carrying the
/// full response. `timeout` bounds the connect and each individual
/// read/write syscall; a server that accepts but never answers fails the first read within one `timeout` instead of
/// hanging forever. Sub-millisecond values are raised to 1 ms — a zero
/// socket timeout means "block forever", the opposite of what a caller
/// asking for a tiny timeout wants.
pub fn exchange_with_timeout(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<ClientResponse, ClientError> {
    let response = transfer(addr, method, path, body, timeout)?;
    if (200..300).contains(&response.status) {
        Ok(response)
    } else {
        Err(ClientError::Status(response))
    }
}

/// The raw exchange: connect, send, read to EOF, parse. `Ok` is any
/// parsed response; errors are typed by phase (connect vs. established).
fn transfer(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
    timeout: Duration,
) -> Result<ClientResponse, ClientError> {
    let timeout = timeout.max(Duration::from_millis(1));
    // A connect timeout is still a *connect* failure: the handshake
    // never completed, so no byte reached the backend.
    let stream = TcpStream::connect_timeout(&addr, timeout).map_err(ClientError::Connect)?;
    let established = |e: std::io::Error| {
        if is_timeout(&e) {
            ClientError::Timeout(e)
        } else {
            ClientError::Protocol(e)
        }
    };
    stream
        .set_read_timeout(Some(timeout))
        .map_err(ClientError::Protocol)?;
    stream
        .set_write_timeout(Some(timeout))
        .map_err(ClientError::Protocol)?;
    let wire = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len(),
    );
    let mut stream = stream;
    stream.write_all(wire.as_bytes()).map_err(established)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(established)?;
    parse_response(&raw).map_err(ClientError::Protocol)
}

fn bad(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string())
}

fn parse_response(raw: &[u8]) -> std::io::Result<ClientResponse> {
    let text = std::str::from_utf8(raw).map_err(|_| bad("response is not utf-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad("no header/body separator"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().ok_or_else(|| bad("empty response"))?;
    let status = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| bad("bad status line"))?;
    let mut headers = Vec::new();
    for line in lines {
        let (name, value) = line.split_once(':').ok_or_else(|| bad("bad header"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let response = ClientResponse {
        status,
        headers,
        body: body.to_string(),
    };
    if let Some(len) = response.header("content-length") {
        let len: usize = len.parse().map_err(|_| bad("bad content-length"))?;
        if response.body.len() != len {
            return Err(bad("truncated body"));
        }
    }
    Ok(response)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts exactly one connection and answers with `wire` verbatim.
    fn one_shot_server(wire: &'static str) -> SocketAddr {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        std::thread::spawn(move || {
            if let Ok((mut stream, _)) = listener.accept() {
                let mut sink = [0u8; 4096];
                let _ = stream.read(&mut sink); // drain the request first
                let _ = stream.write_all(wire.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn parses_a_response() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nX-Cache: hit\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.header("x-cache"), Some("hit"));
        assert_eq!(r.body, "{}");
    }

    #[test]
    fn rejects_truncated_bodies() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\n{}";
        assert!(parse_response(raw).is_err());
    }

    #[test]
    fn connect_refused_is_a_connect_error() {
        // Bind then drop: the port goes back to the kernel, so the
        // connect is refused — the variant a failover policy may act on.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        drop(listener);
        let err = exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_millis(500))
            .expect_err("connect to a closed port must fail");
        assert!(matches!(err, ClientError::Connect(_)), "got {err:?}");
    }

    #[test]
    fn established_but_silent_is_a_timeout_error() {
        // A listener that never answers (the kernel completes the
        // handshake from the backlog either way): the request reached
        // the peer, so this must NOT look like a connect failure.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let started = std::time::Instant::now();
        let err = exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_millis(200))
            .expect_err("unresponsive server must time the client out");
        assert!(matches!(err, ClientError::Timeout(_)), "got {err:?}");
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "client failed fast, not after {:?}",
            started.elapsed()
        );
        drop(listener);
    }

    #[test]
    fn non_2xx_is_a_status_error_carrying_the_response() {
        let addr = one_shot_server(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}",
        );
        let err = exchange_with_timeout(addr, "POST", "/explain", "{}", Duration::from_secs(5))
            .expect_err("503 must be a Status error");
        match err {
            ClientError::Status(response) => {
                assert_eq!(response.status, 503);
                assert_eq!(response.header("retry-after"), Some("1"));
                assert_eq!(response.body, "{}");
            }
            other => panic!("expected Status, got {other:?}"),
        }
        // The legacy API reports the same answer as Ok: tests assert on
        // 4xx/5xx statuses directly.
        let addr = one_shot_server(
            "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}",
        );
        let legacy =
            request_with_timeout(addr, "POST", "/explain", "{}", Duration::from_secs(5)).unwrap();
        assert_eq!(legacy.status, 503);
    }

    #[test]
    fn garbage_bytes_are_a_protocol_error() {
        let addr = one_shot_server("this is not http at all");
        let err = exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_secs(5))
            .expect_err("garbage must be a Protocol error");
        assert!(matches!(err, ClientError::Protocol(_)), "got {err:?}");
    }

    #[test]
    fn a_2xx_exchange_is_ok() {
        let addr = one_shot_server("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\n{}");
        let response =
            exchange_with_timeout(addr, "GET", "/healthz", "", Duration::from_secs(5)).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, "{}");
    }
}
