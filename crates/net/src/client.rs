//! A minimal blocking HTTP/1.1 client — just enough to exercise the
//! server from tests, the chaos harness and the fleet example without
//! pulling a dependency. One request per connection (`Connection:
//! close`), socket timeouts on both directions, and responses read
//! through the server's own bounded reader ([`crate::http`]): one
//! digits-only `Content-Length`, no `Transfer-Encoding`, no bytes past
//! the declared body.

use crate::http::{self, HttpError, HttpLimits};
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Response bounds: a 16 KiB head, 64 headers, a 4 MiB body.
const LIMITS: HttpLimits = HttpLimits {
    max_head_bytes: 16 << 10,
    max_body_bytes: 4 << 20,
    max_headers: 64,
};

/// One parsed response.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// Status code (`200`, `429`, …).
    pub status: u16,
    /// Header name (lower-cased) / value pairs, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body, exactly `Content-Length` bytes.
    pub body: Vec<u8>,
}

impl HttpResponse {
    /// First header with the given (case-insensitive) name.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy — diagnostics only).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Performs one request and reads the full response.
///
/// # Errors
///
/// Socket errors, timeouts, or a response the bounded parser refuses.
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
    timeout: Duration,
) -> io::Result<HttpResponse> {
    let stream = TcpStream::connect_timeout(&addr, timeout)?;
    stream.set_read_timeout(Some(timeout))?;
    stream.set_write_timeout(Some(timeout))?;
    request_on(stream, method, target, headers, body)
}

/// As [`request`], over an already-connected stream (lets tests hold
/// sockets open, trickle bytes, or kill mid-write).
///
/// # Errors
///
/// As [`request`].
pub fn request_on(
    mut stream: TcpStream,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<HttpResponse> {
    let mut head = format!("{method} {target} HTTP/1.1\r\nconnection: close\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("content-length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    read_response(&mut stream)
}

/// Reads and parses one response from `stream`.
///
/// # Errors
///
/// The socket's own error; [`io::ErrorKind::TimedOut`] when a read
/// times out; [`io::ErrorKind::InvalidData`] for a response the bounded
/// reader refuses (bad status line, bad framing, over a bound, or cut
/// short).
pub fn read_response<R: Read>(stream: &mut R) -> io::Result<HttpResponse> {
    parse_response(stream).map_err(|e| match e {
        HttpError::Io(e) => e,
        HttpError::Timeout => io::Error::new(io::ErrorKind::TimedOut, e.to_string()),
        other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
    })
}

fn parse_response<R: Read>(stream: &mut R) -> Result<HttpResponse, HttpError> {
    let (head, leftover) = http::read_head(stream, &LIMITS)?;
    let (status_line, header_lines) = http::split_head(&head)?;
    let status = parse_status_line(status_line)?;
    let headers = http::parse_headers(header_lines, &LIMITS)?;
    let body = http::read_body(stream, &headers, leftover, &LIMITS)?;
    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}

/// The status code of an `HTTP/1.x NNN reason` line.
fn parse_status_line(line: &str) -> Result<u16, HttpError> {
    let mut parts = line.splitn(3, ' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(HttpError::Malformed("not an HTTP/1.x response".into()));
    }
    parts
        .next()
        .filter(|s| s.len() == 3 && s.bytes().all(|b| b.is_ascii_digit()))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| HttpError::Malformed("bad status code".into()))
}

/// `GET` a target (no body).
///
/// # Errors
///
/// As [`request`].
pub fn get(addr: SocketAddr, target: &str, timeout: Duration) -> io::Result<HttpResponse> {
    request(addr, "GET", target, &[], b"", timeout)
}

/// `POST /query` with the given body.
///
/// # Errors
///
/// As [`request`].
pub fn post_query(addr: SocketAddr, body: &[u8], timeout: Duration) -> io::Result<HttpResponse> {
    request(addr, "POST", "/query", &[], body, timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_simple_response() {
        let wire =
            b"HTTP/1.1 503 Service Unavailable\r\ncontent-length: 5\r\nretry-after: 1\r\n\r\nhello";
        let mut cursor = &wire[..];
        let r = read_response(&mut cursor).unwrap();
        assert_eq!(r.status, 503);
        assert_eq!(r.header("Retry-After"), Some("1"));
        assert_eq!(r.body, b"hello");
    }

    #[test]
    fn refuses_garbage_and_truncation() {
        for wire in [
            &b"SMTP ready\r\n\r\n"[..],
            b"HTTP/1.1 abc Bad\r\n\r\n",
            b"HTTP/1.1 200 OK\r\ncontent-length: 10\r\n\r\nshort",
            // Ambiguous framing, refused as the server refuses it.
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\ncontent-length: 5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\ncontent-length: +5\r\n\r\nhello",
            b"HTTP/1.1 200 OK\r\ncontent-length: 2\r\n\r\nhello",
        ] {
            let mut cursor = wire;
            assert!(read_response(&mut cursor).is_err());
        }
    }
}
