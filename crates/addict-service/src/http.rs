//! Minimal HTTP/1.1 plumbing for the evaluation service.
//!
//! The workspace is offline, so the wire layer is hand-rolled over
//! `std::net`: enough HTTP/1.1 to serve `curl` and the bundled client —
//! request line, headers, `Content-Length` bodies, `Connection: close`
//! responses. Responses stream: progress lines flush as the job executes
//! (`Transfer-Encoding` is avoided by closing the connection to delimit
//! the body, which every HTTP/1.1 client understands). Deliberately *not*
//! a web framework: no keep-alive, no chunked encoding, no routing table
//! — the service has a handful of endpoints.
//!
//! Sockets carry read/write deadlines (set by the server before parsing):
//! a stalled or slow-loris client surfaces as [`ReadError::Timeout`],
//! which the server answers with `408` instead of pinning a connection
//! worker forever. The request line, each header line, the number of
//! headers and the body are all bounded, so no request makes the server
//! buffer without limit.

use std::io::{BufRead, Read, Write};

/// Largest accepted request body. A job spec is a few hundred bytes; a
/// megabyte bound keeps a misbehaving client from ballooning the server.
pub const MAX_BODY_BYTES: usize = 1 << 20;

/// Longest accepted request line or header line, line ending included.
pub const MAX_LINE_BYTES: usize = 8 << 10;

/// Most header lines accepted in one request.
pub const MAX_HEADERS: usize = 64;

/// A parsed HTTP request: method, path (query split off), body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// `GET`, `POST`, ...
    pub method: String,
    /// Request target without the query string (`/jobs`, `/stats`).
    pub path: String,
    /// Raw query string after `?` (empty when absent). The service's
    /// only query knob is `wait=1`; see [`Request::query_flag`].
    pub query: String,
    /// Body bytes (empty when no `Content-Length`).
    pub body: Vec<u8>,
}

impl Request {
    /// True when the query string carries `name=1` (exact token match —
    /// `wait=2` or `wait` alone is not a flag).
    pub fn query_flag(&self, name: &str) -> bool {
        self.query
            .split('&')
            .any(|kv| kv.strip_prefix(name).and_then(|r| r.strip_prefix('=')) == Some("1"))
    }
}

/// Why a request could not be read. The server's answer differs per
/// variant: `Closed` is silence (the client never sent anything worth
/// diagnosing), `Timeout` is `408`, `Malformed` is `400`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReadError {
    /// Clean EOF before any request byte — the client connected and hung
    /// up (health probes and port scans do this); nothing to answer.
    Closed,
    /// The socket's read deadline expired mid-request (slow-loris or a
    /// stalled client).
    Timeout,
    /// The bytes that did arrive are not a valid request; the payload is
    /// the client-facing diagnostic.
    Malformed(String),
}

fn io_read_error(context: &str, e: &std::io::Error) -> ReadError {
    use std::io::ErrorKind;
    match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ReadError::Timeout,
        _ => ReadError::Malformed(format!("{context}: {e}")),
    }
}

/// Read one line of at most [`MAX_LINE_BYTES`] into `line`; returns the
/// bytes read (0 at EOF). `what` names the line in diagnostics.
fn read_bounded_line<R: BufRead>(
    r: &mut R,
    line: &mut String,
    what: &str,
) -> Result<usize, ReadError> {
    let n = r
        .by_ref()
        .take(MAX_LINE_BYTES as u64 + 1)
        .read_line(line)
        .map_err(|e| io_read_error(&format!("reading {what}"), &e))?;
    if n > MAX_LINE_BYTES {
        return Err(ReadError::Malformed(format!(
            "{what} exceeds the {MAX_LINE_BYTES}-byte line limit"
        )));
    }
    Ok(n)
}

/// Read one request off `r`.
pub fn read_request<R: BufRead>(r: &mut R) -> Result<Request, ReadError> {
    let mut line = String::new();
    let n = read_bounded_line(r, &mut line, "request line")?;
    if n == 0 {
        return Err(ReadError::Closed);
    }
    let malformed = |m: String| ReadError::Malformed(m);
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| malformed("empty request line".into()))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| malformed("request line missing path".into()))?;
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_owned(), q.to_owned()),
        None => (target.to_owned(), String::new()),
    };
    let version = parts
        .next()
        .ok_or_else(|| malformed("request line missing version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(malformed(format!("unsupported protocol {version:?}")));
    }

    let mut content_length = 0usize;
    let mut n_headers = 0usize;
    loop {
        let mut header = String::new();
        read_bounded_line(r, &mut header, "header")?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        n_headers += 1;
        if n_headers > MAX_HEADERS {
            return Err(malformed(format!(
                "more than {MAX_HEADERS} headers in one request"
            )));
        }
        let Some((name, value)) = header.split_once(':') else {
            return Err(malformed(format!("malformed header {header:?}")));
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| malformed(format!("bad Content-Length {value:?}")))?;
            if content_length > MAX_BODY_BYTES {
                return Err(malformed(format!(
                    "body of {content_length} bytes exceeds the {MAX_BODY_BYTES}-byte limit"
                )));
            }
        }
    }

    let mut body = vec![0u8; content_length];
    if content_length > 0 {
        std::io::Read::read_exact(r, &mut body)
            .map_err(|e| io_read_error(&format!("reading {content_length}-byte body"), &e))?;
    }
    Ok(Request {
        method,
        path,
        query,
        body,
    })
}

/// Write a complete response with a known body.
pub fn respond<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    respond_with_headers(w, status, reason, content_type, &[], body)
}

/// [`respond`] with extra headers (`Retry-After`, `Location`, ...), each
/// a `(name, value)` pair.
pub fn respond_with_headers<W: Write>(
    w: &mut W,
    status: u16,
    reason: &str,
    content_type: &str,
    extra: &[(&str, String)],
    body: &str,
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    )?;
    for (name, value) in extra {
        write!(w, "{name}: {value}\r\n")?;
    }
    write!(w, "\r\n{body}")?;
    w.flush()
}

/// Start a streaming response: status and headers only, no
/// `Content-Length` — the connection close delimits the body. The caller
/// writes (and flushes) body text as it becomes available.
pub fn start_streaming<W: Write>(w: &mut W, content_type: &str) -> std::io::Result<()> {
    start_streaming_with_headers(w, content_type, &[])
}

/// [`start_streaming`] with extra headers (`X-Job-Id`, ...).
pub fn start_streaming_with_headers<W: Write>(
    w: &mut W,
    content_type: &str,
    extra: &[(&str, String)],
) -> std::io::Result<()> {
    write!(
        w,
        "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nConnection: close\r\n"
    )?;
    for (name, value) in extra {
        write!(w, "{name}: {value}\r\n")?;
    }
    write!(w, "\r\n")?;
    w.flush()
}

/// A parsed response with the headers the client cares about.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// `Retry-After` in seconds, when the server sent one (the overload
    /// answers do) and it parsed as an integer.
    pub retry_after: Option<u64>,
    /// Body text.
    pub body: String,
}

/// Parse a response off `r`. Reads to EOF when no `Content-Length` is
/// present (the server's streaming mode).
pub fn read_response_meta<R: BufRead>(r: &mut R) -> Result<Response, String> {
    let mut line = String::new();
    r.read_line(&mut line)
        .map_err(|e| format!("reading status line: {e}"))?;
    let status = line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("malformed status line {line:?}"))?;
    let mut content_length: Option<usize> = None;
    let mut retry_after: Option<u64> = None;
    loop {
        let mut header = String::new();
        r.read_line(&mut header)
            .map_err(|e| format!("reading header: {e}"))?;
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().ok();
            } else if name.eq_ignore_ascii_case("retry-after") {
                retry_after = value.trim().parse().ok();
            }
        }
    }
    let mut body = Vec::new();
    match content_length {
        Some(n) => {
            body.resize(n, 0);
            std::io::Read::read_exact(r, &mut body)
                .map_err(|e| format!("reading {n}-byte body: {e}"))?;
        }
        None => {
            std::io::Read::read_to_end(r, &mut body)
                .map_err(|e| format!("reading streamed body: {e}"))?;
        }
    }
    let body = String::from_utf8(body).map_err(|_| "response body is not UTF-8".to_owned())?;
    Ok(Response {
        status,
        retry_after,
        body,
    })
}

/// Parse a response off `r`: `(status, body)`.
pub fn read_response<R: BufRead>(r: &mut R) -> Result<(u16, String), String> {
    read_response_meta(r).map(|r| (r.status, r.body))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn parses_post_with_body() {
        let raw = "POST /jobs HTTP/1.1\r\nHost: x\r\nContent-Length: 11\r\n\r\nhello world";
        let req = read_request(&mut Cursor::new(raw)).unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query, "");
        assert_eq!(req.body, b"hello world");
    }

    #[test]
    fn parses_get_without_body() {
        let req = read_request(&mut Cursor::new("GET /stats HTTP/1.1\r\n\r\n")).unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn splits_query_and_matches_flags_exactly() {
        let req = read_request(&mut Cursor::new("POST /jobs?wait=1&x=2 HTTP/1.1\r\n\r\n")).unwrap();
        assert_eq!(req.path, "/jobs");
        assert_eq!(req.query, "wait=1&x=2");
        assert!(req.query_flag("wait"));
        assert!(!req.query_flag("x"));
        for not_a_flag in ["/jobs?wait=2", "/jobs?wait", "/jobs?await=1", "/jobs"] {
            let raw = format!("POST {not_a_flag} HTTP/1.1\r\n\r\n");
            let req = read_request(&mut Cursor::new(raw)).unwrap();
            assert!(!req.query_flag("wait"), "{not_a_flag}");
        }
    }

    #[test]
    fn rejects_malformed_requests() {
        for bad in [
            "GET\r\n\r\n",
            "GET /\r\n\r\n",                                      // no version
            "GET / SPDY/3\r\n\r\n",                               // wrong protocol
            "GET / HTTP/1.1\r\nbroken header\r\n\r\n",            // no colon
            "POST / HTTP/1.1\r\nContent-Length: x\r\n\r\n",       // bad length
            "POST / HTTP/1.1\r\nContent-Length: 99\r\n\r\nshort", // truncated body
        ] {
            assert!(
                matches!(
                    read_request(&mut Cursor::new(bad)),
                    Err(ReadError::Malformed(_))
                ),
                "accepted {bad:?}"
            );
        }
        let huge = format!("POST / HTTP/1.1\r\nContent-Length: {}\r\n\r\n", 1 << 30);
        match read_request(&mut Cursor::new(huge)) {
            Err(ReadError::Malformed(m)) => assert!(m.contains("exceeds"), "{m}"),
            other => panic!("accepted oversized body: {other:?}"),
        }
        // Clean EOF before any byte is Closed, not Malformed — the
        // server drops it silently.
        assert_eq!(read_request(&mut Cursor::new("")), Err(ReadError::Closed));
    }

    #[test]
    fn over_long_lines_are_rejected() {
        let long_path = format!("GET /{} HTTP/1.1\r\n\r\n", "a".repeat(MAX_LINE_BYTES));
        let long_header = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "b".repeat(MAX_LINE_BYTES)
        );
        // An endless line is cut off at the limit, not buffered whole.
        let endless = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}",
            "c".repeat(64 * MAX_LINE_BYTES)
        );
        for (raw, what) in [
            (long_path, "request line"),
            (long_header, "header"),
            (endless, "header"),
        ] {
            match read_request(&mut Cursor::new(raw)) {
                Err(ReadError::Malformed(m)) => {
                    assert!(m.starts_with(what) && m.contains("line limit"), "{m}")
                }
                other => panic!("accepted an over-long {what}: {other:?}"),
            }
        }
        // A line just under the limit is fine.
        let fits = format!(
            "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
            "d".repeat(MAX_LINE_BYTES - "X-Pad: \r\n".len())
        );
        assert!(read_request(&mut Cursor::new(fits)).is_ok());
    }

    #[test]
    fn too_many_headers_are_rejected() {
        let with_headers = |n: usize| {
            let headers: String = (0..n).map(|i| format!("X-H{i}: v\r\n")).collect();
            format!("GET / HTTP/1.1\r\n{headers}\r\n")
        };
        assert!(read_request(&mut Cursor::new(with_headers(MAX_HEADERS))).is_ok());
        match read_request(&mut Cursor::new(with_headers(MAX_HEADERS + 1))) {
            Err(ReadError::Malformed(m)) => assert!(m.contains("headers"), "{m}"),
            other => panic!("accepted {} headers: {other:?}", MAX_HEADERS + 1),
        }
    }

    #[test]
    fn response_round_trips() {
        let mut wire = Vec::new();
        respond(
            &mut wire,
            400,
            "Bad Request",
            "application/json",
            "{\"e\":1}",
        )
        .unwrap();
        let (status, body) = read_response(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(status, 400);
        assert_eq!(body, "{\"e\":1}");
    }

    #[test]
    fn extra_headers_round_trip() {
        let mut wire = Vec::new();
        respond_with_headers(
            &mut wire,
            503,
            "Service Unavailable",
            "application/json",
            &[("Retry-After", "5".to_owned())],
            "{}",
        )
        .unwrap();
        let resp = read_response_meta(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(resp.status, 503);
        assert_eq!(resp.retry_after, Some(5));
        assert_eq!(resp.body, "{}");
    }

    #[test]
    fn streamed_response_reads_to_eof() {
        let mut wire = Vec::new();
        start_streaming(&mut wire, "text/plain").unwrap();
        wire.extend_from_slice(b"# progress\n\nresult");
        let (status, body) = read_response(&mut Cursor::new(&wire)).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "# progress\n\nresult");
    }
}
