//! A strict, bounded HTTP/1.1 request parser and response writer.
//!
//! This is not a general HTTP implementation — it is the smallest
//! subset the lifetime service needs, built so that *arbitrary bytes on
//! the socket can never panic, never allocate unboundedly, and never
//! pin a worker thread*:
//!
//! * the request head (request line + headers) is read into a buffer
//!   capped at [`HttpLimits::max_head_bytes`]; one byte past the cap is
//!   a typed [`HttpError::TooLarge`], not a growing allocation;
//! * the body requires exactly one explicit, digits-only
//!   `Content-Length` (checked against [`HttpLimits::max_body_bytes`]
//!   **before** any body allocation);
//!   `Transfer-Encoding` is refused outright — chunked decoding is an
//!   attack surface the service does not need;
//! * every socket read honours the stream's read timeout: a slow-loris
//!   client trickling one byte per poll hits [`HttpError::Timeout`]
//!   and is disconnected instead of holding the worker hostage;
//! * header count is capped, header names are validated as ASCII
//!   tokens, and nothing in the parser trusts a length it has not
//!   checked.

use std::fmt;
use std::io::{self, Read};

/// Parser bounds. The defaults are generous for real clients and tiny
/// for attacks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HttpLimits {
    /// Cap on the request head (request line + all headers + CRLFs).
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length`.
    pub max_body_bytes: usize,
    /// Cap on the number of headers.
    pub max_headers: usize,
}

impl Default for HttpLimits {
    fn default() -> Self {
        HttpLimits {
            max_head_bytes: 8 << 10,
            max_body_bytes: 64 << 10,
            max_headers: 64,
        }
    }
}

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The method token, verbatim (`GET`, `POST`, …).
    pub method: String,
    /// The request target, verbatim (`/query`, `/stats`, …).
    pub target: String,
    /// Header `(name, value)` pairs; names are lower-cased, values
    /// trimmed.
    pub headers: Vec<(String, String)>,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl Request {
    /// The first value of header `name` (lower-case), when present.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// Why a request could not be read. Every variant maps to a specific
/// response (or to closing the connection) in the server.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection cleanly before sending any bytes
    /// — the normal end of a keep-alive session, not an error.
    Closed,
    /// A size bound was exceeded. `what` names the bound.
    TooLarge {
        /// Which limit tripped (`"head"`, `"headers"`, `"body"`).
        what: &'static str,
        /// The configured cap.
        limit: usize,
    },
    /// The bytes do not parse as the supported HTTP subset.
    Malformed(String),
    /// The request uses a feature the server deliberately refuses
    /// (currently: any `Transfer-Encoding`).
    Unsupported(String),
    /// A socket read timed out mid-request (slow-loris) .
    Timeout,
    /// The socket failed.
    Io(io::Error),
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Closed => write!(f, "connection closed"),
            HttpError::TooLarge { what, limit } => {
                write!(f, "request {what} exceeds the {limit}-byte limit")
            }
            HttpError::Malformed(msg) => write!(f, "malformed request: {msg}"),
            HttpError::Unsupported(msg) => write!(f, "unsupported request: {msg}"),
            HttpError::Timeout => write!(f, "socket read timed out"),
            HttpError::Io(e) => write!(f, "socket error: {e}"),
        }
    }
}

impl std::error::Error for HttpError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HttpError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// Maps an I/O failure to the typed error: timeouts are their own
/// variant (`WouldBlock` is how timed-out blocking sockets report on
/// some platforms).
fn io_error(e: io::Error) -> HttpError {
    match e.kind() {
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => HttpError::Timeout,
        _ => HttpError::Io(e),
    }
}

/// Reads and parses one request from `stream` under `limits`.
///
/// # Errors
///
/// See [`HttpError`]; no variant panics and none allocates beyond the
/// configured caps.
pub fn read_request<R: Read>(stream: &mut R, limits: &HttpLimits) -> Result<Request, HttpError> {
    let (head, leftover) = read_head(stream, limits)?;
    let (method, target, headers) = parse_head(&head, limits)?;

    if headers.iter().any(|(n, _)| n == "transfer-encoding") {
        return Err(HttpError::Unsupported(
            "Transfer-Encoding is not accepted; send Content-Length".into(),
        ));
    }
    // RFC 9112 §6.3: a repeated Content-Length, or one that is not a
    // plain run of digits (`usize::from_str` would take "+5"), leaves the
    // body's framing ambiguous, so the message is invalid.
    let mut lengths = headers.iter().filter(|(n, _)| n == "content-length");
    let content_length = match (lengths.next(), lengths.next()) {
        (None, _) => 0,
        (Some(_), Some(_)) => {
            return Err(HttpError::Malformed("repeated Content-Length".into()));
        }
        (Some((_, v)), None) => match v.parse::<usize>() {
            Ok(n) if v.bytes().all(|b| b.is_ascii_digit()) => n,
            _ => return Err(HttpError::Malformed(format!("bad Content-Length {v:?}"))),
        },
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::TooLarge {
            what: "body",
            limit: limits.max_body_bytes,
        });
    }

    let mut body = leftover;
    if body.len() > content_length {
        return Err(HttpError::Malformed(
            "more body bytes than Content-Length declares".into(),
        ));
    }
    body.reserve_exact(content_length - body.len());
    let mut chunk = [0u8; 4096];
    while body.len() < content_length {
        let want = (content_length - body.len()).min(chunk.len());
        // PANIC-OK: `want` is clamped to `chunk.len()` one line up.
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                return Err(HttpError::Malformed(
                    "connection closed mid-body before Content-Length bytes".into(),
                ))
            }
            // PANIC-OK: `Read` guarantees `n <= chunk.len()`.
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }

    Ok(Request {
        method,
        target,
        headers,
        body,
    })
}

/// Reads until the `\r\n\r\n` head terminator (bounded); returns the
/// head bytes and any body bytes that arrived in the same reads.
fn read_head<R: Read>(
    stream: &mut R,
    limits: &HttpLimits,
) -> Result<(Vec<u8>, Vec<u8>), HttpError> {
    let mut buf: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_head_end(&buf) {
            let leftover = buf.split_off(end);
            return Ok((buf, leftover));
        }
        if buf.len() >= limits.max_head_bytes {
            return Err(HttpError::TooLarge {
                what: "head",
                limit: limits.max_head_bytes,
            });
        }
        let want = (limits.max_head_bytes - buf.len() + 4).min(chunk.len());
        // PANIC-OK: `want` is clamped to `chunk.len()` one line up.
        match stream.read(&mut chunk[..want]) {
            Ok(0) => {
                if buf.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::Malformed("connection closed mid-head".into()));
            }
            // PANIC-OK: `Read` guarantees `n <= chunk.len()`.
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(io_error(e)),
        }
    }
}

/// Index just past the first `\r\n\r\n`, when present.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n").map(|i| i + 4)
}

/// Parses the head bytes into (method, target, headers).
fn parse_head(
    head: &[u8],
    limits: &HttpLimits,
) -> Result<(String, String, Vec<(String, String)>), HttpError> {
    let text = std::str::from_utf8(head)
        .map_err(|_| HttpError::Malformed("request head is not UTF-8".into()))?;
    let text = text
        .strip_suffix("\r\n\r\n")
        .ok_or_else(|| HttpError::Malformed("missing head terminator".into()))?;
    let mut lines = text.split("\r\n");
    let request_line = lines
        .next()
        .ok_or_else(|| HttpError::Malformed("empty request".into()))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty() && m.bytes().all(|b| b.is_ascii_uppercase()))
        .ok_or_else(|| HttpError::Malformed("bad method token".into()))?;
    let target = parts
        .next()
        .filter(|t| t.starts_with('/') && !t.bytes().any(|b| b.is_ascii_control()))
        .ok_or_else(|| HttpError::Malformed("bad request target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| HttpError::Malformed("missing HTTP version".into()))?;
    if parts.next().is_some() {
        return Err(HttpError::Malformed(
            "extra tokens on the request line".into(),
        ));
    }
    if version != "HTTP/1.1" && version != "HTTP/1.0" {
        return Err(HttpError::Unsupported(format!("version {version:?}")));
    }

    let mut headers = Vec::new();
    for line in lines {
        if headers.len() >= limits.max_headers {
            return Err(HttpError::TooLarge {
                what: "headers",
                limit: limits.max_headers,
            });
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| HttpError::Malformed(format!("header line without ':': {line:?}")))?;
        if name.is_empty()
            || !name
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || b == b'-' || b == b'_')
        {
            return Err(HttpError::Malformed(format!("bad header name {name:?}")));
        }
        headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
    }
    Ok((method.to_string(), target.to_string(), headers))
}

/// A response under construction.
#[derive(Debug, Clone)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// Extra headers beyond the always-written set.
    pub headers: Vec<(String, String)>,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "application/json".into())],
            body: body.into().into_bytes(),
        }
    }

    /// A plain-text response.
    pub fn text(status: u16, body: impl Into<String>) -> Self {
        Response {
            status,
            headers: vec![("Content-Type".into(), "text/plain; charset=utf-8".into())],
            body: body.into().into_bytes(),
        }
    }

    /// Adds a `Retry-After` header (seconds).
    #[must_use]
    pub fn retry_after(mut self, seconds: u64) -> Self {
        self.headers
            .push(("Retry-After".into(), seconds.to_string()));
        self
    }

    /// The standard reason phrase for the status.
    fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            413 => "Payload Too Large",
            429 => "Too Many Requests",
            431 => "Request Header Fields Too Large",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "",
        }
    }

    /// Serialises the response, with `Connection: close` when
    /// `close` is set.
    pub fn to_bytes(&self, close: bool) -> Vec<u8> {
        let mut out = format!("HTTP/1.1 {} {}\r\n", self.status, self.reason());
        for (name, value) in &self.headers {
            out.push_str(name);
            out.push_str(": ");
            out.push_str(value);
            out.push_str("\r\n");
        }
        out.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        out.push_str(if close {
            "Connection: close\r\n"
        } else {
            "Connection: keep-alive\r\n"
        });
        out.push_str("\r\n");
        let mut bytes = out.into_bytes();
        bytes.extend_from_slice(&self.body);
        bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(bytes: &[u8]) -> Result<Request, HttpError> {
        read_request(&mut io::Cursor::new(bytes), &HttpLimits::default())
    }

    #[test]
    fn well_formed_request_parses() {
        let req =
            parse(b"POST /query HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello").unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/query");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"hello");
        assert!(!req.wants_close());
        let req = parse(b"GET /stats HTTP/1.1\r\nConnection: close\r\n\r\n").unwrap();
        assert!(req.wants_close());
        assert!(req.body.is_empty());
    }

    #[test]
    fn pipelined_body_bytes_beyond_content_length_are_rejected() {
        // The parser reads only Content-Length body bytes, but bytes
        // already drained with the head must not exceed the declaration.
        let err = parse(b"POST / HTTP/1.1\r\nContent-Length: 2\r\n\r\nhello");
        assert!(matches!(err, Err(HttpError::Malformed(_))));
    }

    #[test]
    fn transfer_encoding_is_refused() {
        let err = parse(b"POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n");
        assert!(matches!(err, Err(HttpError::Unsupported(_))));
    }

    #[test]
    fn oversized_head_and_body_are_typed() {
        let limits = HttpLimits {
            max_head_bytes: 64,
            max_body_bytes: 8,
            max_headers: 2,
        };
        let mut big = b"GET / HTTP/1.1\r\n".to_vec();
        big.extend_from_slice(&b"X-Filler: yadda yadda yadda yadda yadda yadda\r\n".repeat(4));
        big.extend_from_slice(b"\r\n");
        let err = read_request(&mut io::Cursor::new(&big), &limits);
        assert!(matches!(err, Err(HttpError::TooLarge { what: "head", .. })));

        let err = read_request(
            &mut io::Cursor::new(b"POST / HTTP/1.1\r\nContent-Length: 9\r\n\r\n"),
            &limits,
        );
        assert!(matches!(err, Err(HttpError::TooLarge { what: "body", .. })));

        let err = read_request(
            &mut io::Cursor::new(b"GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n\r\n"),
            &limits,
        );
        assert!(matches!(
            err,
            Err(HttpError::TooLarge {
                what: "headers",
                ..
            })
        ));
    }

    #[test]
    fn malformed_heads_are_typed() {
        for bad in [
            &b"\r\n\r\n"[..],
            b"GET\r\n\r\n",
            b"get / HTTP/1.1\r\n\r\n",
            b"GET noslash HTTP/1.1\r\n\r\n",
            b"GET / HTTP/2.0\r\n\r\n",
            b"GET / HTTP/1.1 extra\r\n\r\n",
            b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n",
            b"GET / HTTP/1.1\r\n: empty\r\n\r\n",
            b"GET / HTTP/1.1\r\nBad Header: x\r\n\r\n",
            b"POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n",
            b"\xff\xfe / HTTP/1.1\r\n\r\n",
        ] {
            let err = parse(bad).expect_err("must reject");
            assert!(
                matches!(err, HttpError::Malformed(_) | HttpError::Unsupported(_)),
                "{bad:?} gave {err:?}"
            );
        }
    }

    #[test]
    fn content_length_must_be_one_run_of_digits() {
        for bad in [
            &b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello"[..],
            b"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 2\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nContent-Length: +5\r\n\r\nhello",
            b"POST / HTTP/1.1\r\nContent-Length:\r\n\r\n",
        ] {
            let err = parse(bad).expect_err("must reject");
            assert!(
                matches!(err, HttpError::Malformed(_)),
                "{bad:?} gave {err:?}"
            );
        }
        let req = parse(b"POST / HTTP/1.1\r\nContent-Length: 05\r\n\r\nhello").unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn clean_close_and_truncation_differ() {
        assert!(matches!(parse(b""), Err(HttpError::Closed)));
        assert!(matches!(parse(b"GET / HT"), Err(HttpError::Malformed(_))));
        assert!(matches!(
            parse(b"POST / HTTP/1.1\r\nContent-Length: 10\r\n\r\nshort"),
            Err(HttpError::Malformed(_))
        ));
    }

    #[test]
    fn timeouts_map_to_their_own_variant() {
        struct Stalls;
        impl Read for Stalls {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::new(io::ErrorKind::WouldBlock, "stall"))
            }
        }
        let err = read_request(&mut Stalls, &HttpLimits::default());
        assert!(matches!(err, Err(HttpError::Timeout)));
        let display = format!("{}", HttpError::Timeout);
        assert!(display.contains("timed out"));
    }

    #[test]
    fn responses_serialise_with_length_and_connection() {
        let bytes = Response::json(200, "{}").to_bytes(false);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(text.contains("Content-Length: 2\r\n"));
        assert!(text.contains("Connection: keep-alive\r\n"));
        assert!(text.ends_with("\r\n\r\n{}"));

        let bytes = Response::text(503, "busy").retry_after(2).to_bytes(true);
        let text = String::from_utf8(bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        // Unknown codes still serialise.
        assert!(Response::text(599, "x")
            .to_bytes(true)
            .starts_with(b"HTTP/1.1 599 "));
    }
}
