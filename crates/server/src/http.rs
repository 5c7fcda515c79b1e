//! HTTP/1.1 transport: request reading from a blocking [`TcpStream`],
//! with hard limits on header and body size, and response writing to
//! any [`Write`].
//!
//! This module is transport only — it knows nothing about tenants,
//! mappings or JSON. [`read_request`] produces an [`HttpRequest`] (method,
//! path, headers, raw body bytes) or a typed [`HttpError`] that the server
//! maps onto a status code; [`write_response`] emits a well-formed
//! response with an exact `Content-Length`. Keeping the layer this thin is
//! what lets a binary protocol replace it later without touching
//! [`crate::handlers`].
//!
//! Defensive posture (exercised by the protocol-conformance suite):
//!
//! * request line + headers are capped at [`Limits::max_header_bytes`] —
//!   oversized headers return [`HttpError::HeaderTooLarge`] (431) instead
//!   of growing the buffer without bound;
//! * declared bodies are capped at [`Limits::max_body_bytes`] **before**
//!   any allocation ([`HttpError::BodyTooLarge`], 413);
//! * a body shorter than its `Content-Length` surfaces as
//!   [`HttpError::Truncated`] (400) on EOF or [`HttpError::Timeout`] (408)
//!   on a stalled peer — the socket read timeout is the backstop;
//! * nothing in this module panics on hostile input: every failure is a
//!   typed error.

use std::io::{self, IoSlice, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Transport limits. The defaults are generous for a trusted bench/test
/// deployment; a public deployment would tighten them.
#[derive(Clone, Debug)]
pub struct Limits {
    /// Cap on the request line + headers, in bytes.
    pub max_header_bytes: usize,
    /// Cap on a request body, in bytes.
    pub max_body_bytes: usize,
    /// Socket read timeout — the backstop against stalled peers.
    pub read_timeout: Duration,
}

impl Default for Limits {
    fn default() -> Limits {
        Limits {
            max_header_bytes: 16 * 1024,
            max_body_bytes: 64 * 1024 * 1024,
            read_timeout: Duration::from_secs(10),
        }
    }
}

/// One parsed HTTP/1.1 request.
#[derive(Clone, Debug)]
pub struct HttpRequest {
    /// The request method, upper-case as sent (`GET`, `POST`, …).
    pub method: String,
    /// The request path (query strings are not used by this protocol and
    /// are kept attached).
    pub path: String,
    /// Header name/value pairs; names lower-cased.
    pub headers: Vec<(String, String)>,
    /// The raw body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// Whether the connection should stay open after the response.
    pub keep_alive: bool,
}

impl HttpRequest {
    /// First header value by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Transport-level failures, each with a canonical HTTP status.
#[derive(Debug)]
pub enum HttpError {
    /// The peer closed the connection before sending a full request line
    /// (clean close between keep-alive requests when no bytes arrived).
    Closed,
    /// Request line + headers exceeded [`Limits::max_header_bytes`].
    HeaderTooLarge,
    /// The declared `Content-Length` exceeded [`Limits::max_body_bytes`].
    BodyTooLarge,
    /// EOF before `Content-Length` bytes of body arrived.
    Truncated,
    /// The socket read timed out mid-request.
    Timeout,
    /// The bytes did not parse as an HTTP/1.1 request.
    Malformed(&'static str),
    /// Any other I/O failure.
    Io(io::Error),
}

impl HttpError {
    /// The HTTP status this transport error maps to (0 when no response
    /// can be written at all, i.e. [`HttpError::Closed`]/[`HttpError::Io`]).
    pub fn status(&self) -> u16 {
        match self {
            HttpError::Closed | HttpError::Io(_) => 0,
            HttpError::HeaderTooLarge => 431,
            HttpError::BodyTooLarge => 413,
            HttpError::Truncated | HttpError::Malformed(_) => 400,
            HttpError::Timeout => 408,
        }
    }

    /// A short machine-readable code for the error body.
    pub fn code(&self) -> &'static str {
        match self {
            HttpError::Closed => "closed",
            HttpError::HeaderTooLarge => "header-too-large",
            HttpError::BodyTooLarge => "payload-too-large",
            HttpError::Truncated => "truncated-body",
            HttpError::Timeout => "timeout",
            HttpError::Malformed(_) => "malformed-request",
            HttpError::Io(_) => "io",
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Read one request from the stream. `Ok(None)` means the peer closed
/// cleanly before sending anything (normal end of a keep-alive session).
pub fn read_request(
    stream: &mut TcpStream,
    limits: &Limits,
) -> Result<Option<HttpRequest>, HttpError> {
    // accumulate until the blank line that ends the header block
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    let header_end;
    loop {
        if let Some(i) = find_header_end(&buf) {
            header_end = i;
            break;
        }
        if buf.len() > limits.max_header_bytes {
            return Err(HttpError::HeaderTooLarge);
        }
        match stream.read(&mut chunk) {
            Ok(0) => {
                if buf.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::Malformed("EOF inside header block"));
            }
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => {
                if buf.is_empty() {
                    return Err(HttpError::Closed);
                }
                return Err(HttpError::Timeout);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
    let head = std::str::from_utf8(&buf[..header_end])
        .map_err(|_| HttpError::Malformed("header block is not UTF-8"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().ok_or(HttpError::Malformed("empty request"))?;
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or(HttpError::Malformed("missing method"))?
        .to_string();
    let path = parts
        .next()
        .filter(|p| p.starts_with('/'))
        .ok_or(HttpError::Malformed("missing path"))?
        .to_string();
    let version = parts
        .next()
        .ok_or(HttpError::Malformed("missing version"))?;
    if !version.starts_with("HTTP/1.") || parts.next().is_some() {
        return Err(HttpError::Malformed("bad HTTP version"));
    }
    let mut headers = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, value) = line
            .split_once(':')
            .ok_or(HttpError::Malformed("header line without ':'"))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let req_head = HttpRequest {
        method,
        path,
        headers,
        body: Vec::new(),
        keep_alive: true,
    };
    let keep_alive = !matches!(
        req_head.header("connection"),
        Some(v) if v.eq_ignore_ascii_case("close")
    );
    let content_length = match req_head.header("content-length") {
        None => 0usize,
        Some(v) => v
            .parse::<usize>()
            .map_err(|_| HttpError::Malformed("bad Content-Length"))?,
    };
    if content_length > limits.max_body_bytes {
        return Err(HttpError::BodyTooLarge);
    }
    // body bytes already buffered past the header block, then the rest
    let mut body = buf[header_end + 4..].to_vec();
    if body.len() > content_length {
        // pipelined extra bytes are not supported by this server
        return Err(HttpError::Malformed("body longer than Content-Length"));
    }
    while body.len() < content_length {
        match stream.read(&mut chunk) {
            Ok(0) => return Err(HttpError::Truncated),
            Ok(n) => body.extend_from_slice(&chunk[..n]),
            Err(e) if is_timeout(&e) => return Err(HttpError::Timeout),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(HttpError::Io(e)),
        }
        if body.len() > content_length {
            return Err(HttpError::Malformed("body longer than Content-Length"));
        }
    }
    Ok(Some(HttpRequest {
        body,
        keep_alive,
        ..req_head
    }))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The canonical reason phrase for the status codes this server emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        409 => "Conflict",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Write one response. `keep_alive` controls the `Connection` header; the
/// body is always sent with an exact `Content-Length`.
///
/// Head and body go out together through `write_vectored`, so a small
/// response leaves in one segment even on a `TCP_NODELAY` socket and a
/// large body is never copied behind its head. The loop resumes after a
/// short write, retries an `Interrupted` one, and fails with
/// [`io::ErrorKind::WriteZero`] if the writer accepts nothing.
pub fn write_response<W: Write>(
    stream: &mut W,
    status: u16,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    let mut slices = [IoSlice::new(head.as_bytes()), IoSlice::new(body)];
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match stream.write_vectored(rest) {
            Ok(0) => return Err(io::Error::from(io::ErrorKind::WriteZero)),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Accepts at most 7 bytes per call, across slice boundaries, and
    /// fails every third call with `Interrupted`.
    struct Trickle {
        written: Vec<u8>,
        calls: usize,
    }

    impl Write for Trickle {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.write_vectored(&[IoSlice::new(buf)])
        }

        fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls.is_multiple_of(3) {
                return Err(io::ErrorKind::Interrupted.into());
            }
            let before = self.written.len();
            for buf in bufs {
                let room = 7 - (self.written.len() - before);
                self.written.extend_from_slice(&buf[..buf.len().min(room)]);
            }
            Ok(self.written.len() - before)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// Accepts nothing.
    struct Stuck;

    impl Write for Stuck {
        fn write(&mut self, _: &[u8]) -> io::Result<usize> {
            Ok(0)
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn short_and_interrupted_writes_still_send_head_and_body() {
        for len in [0, 1, 1 << 20] {
            let body: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut out = Trickle {
                written: Vec::new(),
                calls: 0,
            };
            write_response(&mut out, 200, &body, true).expect("a trickling writer takes it all");
            let head = format!(
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {len}\r\nConnection: keep-alive\r\n\r\n"
            );
            assert_eq!(
                out.written,
                [head.as_bytes(), &body].concat(),
                "{len}-byte body"
            );
        }
    }

    #[test]
    fn a_writer_that_accepts_nothing_is_an_error() {
        let err = write_response(&mut Stuck, 200, b"{}", false).expect_err("no progress");
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
    }
}
