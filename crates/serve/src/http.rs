//! A deliberately small HTTP/1.1 implementation over [`std::net`].
//!
//! The offline-shims policy (no crates.io) rules out hyper/axum; the
//! daemon's protocol needs are tiny — method + path + query, a few
//! headers, `Content-Length` bodies, keep-alive — so this module
//! hand-rolls exactly that and nothing more. Every parse failure is a
//! typed [`HttpError`] carrying the status code the connection loop
//! should answer with; nothing panics on wire input.
//!
//! Out of scope on purpose: chunked transfer encoding, multipart,
//! compression, TLS, percent-decoding (session names are restricted to
//! URL-safe characters by the router, and `.pxr` bodies are plain text).

use std::io::{BufReader, Read, Write};

/// Upper bound on the request line + each header line, in bytes.
const MAX_LINE: usize = 8 * 1024;
/// Upper bound on the number of headers.
const MAX_HEADERS: usize = 64;
/// Upper bound on a request body (a `.pxr` corpus posted to `ingest`).
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// A parse/protocol failure with the HTTP status the server answers.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line, header, or length (→ 400).
    BadRequest(&'static str),
    /// Body larger than [`MAX_BODY`] (→ 413).
    TooLarge,
    /// The socket failed mid-request.
    Io(std::io::Error),
}

impl HttpError {
    /// The status code this failure is reported as.
    pub fn status(&self) -> u16 {
        match self {
            Self::BadRequest(_) => 400,
            Self::TooLarge => 413,
            Self::Io(_) => 500,
        }
    }

    /// Human-readable detail for the error body.
    pub fn detail(&self) -> String {
        match self {
            Self::BadRequest(m) => (*m).to_string(),
            Self::TooLarge => format!("body exceeds {MAX_BODY} bytes"),
            Self::Io(e) => e.to_string(),
        }
    }
}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// `GET`, `POST`, … (uppercased as received).
    pub method: String,
    /// The path component, query string stripped (`/sessions/a/query`).
    pub path: String,
    /// Parsed `k=v` query pairs, in order (no percent-decoding).
    pub query: Vec<(String, String)>,
    /// The request body (empty without `Content-Length`).
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open.
    pub keep_alive: bool,
}

impl Request {
    /// First query value for `key`, if present.
    pub fn query_value(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Read one line up to CRLF (or bare LF), enforcing [`MAX_LINE`]. Returns
/// `None` on clean EOF before any byte (idle keep-alive close).
fn read_line<R: Read>(reader: &mut BufReader<R>) -> Result<Option<String>, HttpError> {
    let mut line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(HttpError::BadRequest("truncated request line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    return String::from_utf8(line)
                        .map(Some)
                        .map_err(|_| HttpError::BadRequest("non-UTF-8 request line"));
                }
                line.push(byte[0]);
                if line.len() > MAX_LINE {
                    return Err(HttpError::BadRequest("request line too long"));
                }
            }
            Err(e) => return Err(HttpError::Io(e)),
        }
    }
}

/// Parse one request off the connection. `Ok(None)` means the peer closed
/// cleanly between requests (the keep-alive loop's exit). Generic over the
/// byte source so the framing tests can drive it from in-memory buffers.
pub fn read_request<R: Read>(reader: &mut BufReader<R>) -> Result<Option<Request>, HttpError> {
    let Some(request_line) = read_line(reader)? else {
        return Ok(None);
    };
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or(HttpError::BadRequest("empty request line"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or(HttpError::BadRequest("missing request target"))?;
    let version = parts
        .next()
        .ok_or(HttpError::BadRequest("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest("unsupported HTTP version"));
    }
    // HTTP/1.1 defaults to keep-alive, 1.0 to close.
    let mut keep_alive = version == "HTTP/1.1";

    // Read through the blank line that ends the head: whatever follows it
    // is the body, then the next request on a keep-alive connection.
    let mut content_length: Option<usize> = None;
    let mut headers = 0;
    loop {
        let line = read_line(reader)?.ok_or(HttpError::BadRequest("truncated headers"))?;
        if line.is_empty() {
            break;
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(HttpError::BadRequest("too many headers"));
        }
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest("malformed header"));
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // 1*DIGIT only: `usize::from_str` would also take a leading
            // `+`. A repeated header must repeat the length, or the frame
            // has no one body boundary (RFC 9110 §8.6, RFC 9112 §6.3).
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(HttpError::BadRequest("bad Content-Length"));
            }
            let length: usize = value
                .parse()
                .map_err(|_| HttpError::BadRequest("bad Content-Length"))?;
            if content_length.is_some_and(|seen| seen != length) {
                return Err(HttpError::BadRequest("conflicting Content-Length headers"));
            }
            if length > MAX_BODY {
                return Err(HttpError::TooLarge);
            }
            content_length = Some(length);
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::BadRequest("chunked bodies are not supported"));
        }
    }

    // Read exactly `Content-Length` bytes, treating a premature EOF as a
    // protocol violation (→ 400), not an I/O failure: a client that closes
    // mid-body sent a frame that disagrees with its own declared length,
    // and the truncated bytes must never be parsed as a complete body.
    let content_length = content_length.unwrap_or(0);
    let mut body = vec![0u8; content_length];
    let mut filled = 0;
    while filled < content_length {
        match reader.read(&mut body[filled..]) {
            Ok(0) => {
                return Err(HttpError::BadRequest("body shorter than Content-Length"));
            }
            Ok(n) => filled += n,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(HttpError::Io(e)),
        }
    }

    let (path, query_str) = match target.split_once('?') {
        Some((p, q)) => (p, q),
        None => (target, ""),
    };
    let query = query_str
        .split('&')
        .filter(|s| !s.is_empty())
        .map(|pair| match pair.split_once('=') {
            Some((k, v)) => (k.to_string(), v.to_string()),
            None => (pair.to_string(), String::new()),
        })
        .collect();

    Ok(Some(Request {
        method,
        path: path.to_string(),
        query,
        body,
        keep_alive,
    }))
}

/// A response about to be written.
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// `Content-Type` value.
    pub content_type: &'static str,
    /// The body bytes.
    pub body: Vec<u8>,
    /// `Retry-After` header value in seconds (load-shedding responses).
    pub retry_after: Option<u32>,
}

impl Response {
    /// A JSON response.
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            content_type: "application/json",
            body: body.into_bytes(),
            retry_after: None,
        }
    }

    /// A JSON error body `{"error": detail}`.
    pub fn error(status: u16, detail: &str) -> Self {
        Self::json(status, format!("{{\"error\": {}}}\n", json_string(detail)))
    }

    /// A load-shedding `503` carrying `Retry-After: {seconds}` — the
    /// overload answer: refuse now, tell the client when to come back.
    pub fn shed(detail: &str, seconds: u32) -> Self {
        let mut resp = Self::error(503, detail);
        resp.retry_after = Some(seconds);
        resp
    }
}

/// The reason phrase for the handful of statuses the daemon uses.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        413 => "Payload Too Large",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Serialize `response` onto the stream (one write syscall via a local
/// buffer; `Connection: close` is advertised when the loop will close).
pub fn write_response<W: Write>(
    stream: &mut W,
    response: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(response.body.len() + 128);
    let retry_after = response
        .retry_after
        .map(|s| format!("Retry-After: {s}\r\n"))
        .unwrap_or_default();
    out.extend_from_slice(
        format!(
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n{}Connection: {}\r\n\r\n",
            response.status,
            reason(response.status),
            response.content_type,
            response.body.len(),
            retry_after,
            if keep_alive { "keep-alive" } else { "close" },
        )
        .as_bytes(),
    );
    out.extend_from_slice(&response.body);
    stream.write_all(&out)?;
    stream.flush()
}

/// JSON-escape `s` into a quoted string literal (the subset of escapes
/// the daemon's payloads can contain: quotes, backslash, control bytes).
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
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

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("plain"), "\"plain\"");
        assert_eq!(json_string("a\"b\\c"), "\"a\\\"b\\\\c\"");
        assert_eq!(json_string("line\nbreak"), "\"line\\nbreak\"");
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }

    #[test]
    fn reason_phrases_cover_used_statuses() {
        for status in [200, 400, 404, 405, 409, 413, 503, 500] {
            assert!(!reason(status).is_empty());
        }
    }

    /// Drive the parser from an in-memory buffer, as a socket would.
    fn parse(raw: &[u8]) -> Result<Option<Request>, HttpError> {
        read_request(&mut BufReader::new(raw))
    }

    #[test]
    fn well_framed_request_parses() {
        let req = parse(b"POST /sessions/a/ingest?x=1 HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/sessions/a/ingest");
        assert_eq!(req.query_value("x"), Some("1"));
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn body_shorter_than_content_length_is_a_bad_request() {
        // The client declared 100 bytes and hung up after 9: the truncated
        // body must never surface as a parsed request (it would be handed
        // to the ingest parser as a truncated corpus).
        let err =
            parse(b"POST /sessions/a/ingest HTTP/1.1\r\nContent-Length: 100\r\n\r\ntruncated")
                .unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)), "{err:?}");
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn eof_immediately_after_headers_is_a_bad_request() {
        let err = parse(b"POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\n").unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(_)), "{err:?}");
    }

    #[test]
    fn zero_length_body_needs_no_bytes() {
        let req = parse(b"GET /health HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert!(req.body.is_empty());
        assert!(req.keep_alive);
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        for (raw, label) in [
            (b"GET /x\r\n\r\n".as_slice(), "missing version"),
            (b"GET /x SMTP/1.0\r\n\r\n".as_slice(), "bad protocol"),
            (
                b"GET /x HTTP/1.1\r\nno-colon-header\r\n\r\n".as_slice(),
                "header without colon",
            ),
            (
                b"GET /x HTTP/1.1\r\nContent-Length: many\r\n\r\n".as_slice(),
                "non-numeric length",
            ),
            (
                b"POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n".as_slice(),
                "chunked body",
            ),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, HttpError::BadRequest(_)), "{label}: {err:?}");
        }
    }

    #[test]
    fn conflicting_content_lengths_are_a_bad_request() {
        // Two lengths leave the body boundary ambiguous; taking either one
        // lets a peer that reads the other desynchronise the connection.
        for raw in [
            b"POST /x HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 5\r\n\r\nhello".as_slice(),
            b"POST /x HTTP/1.1\r\nContent-Length: 5\r\ncontent-length: 2\r\n\r\nhello".as_slice(),
        ] {
            let err = parse(raw).unwrap_err();
            assert!(matches!(err, HttpError::BadRequest(_)), "{err:?}");
            assert_eq!(err.status(), 400);
        }
        // The same length twice still frames one body.
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    #[test]
    fn content_length_is_digits_only() {
        for value in ["+5", "+0", "-0", "5 5", "0x5", ""] {
            let raw = format!("POST /x HTTP/1.1\r\nContent-Length: {value}\r\n\r\nhello");
            let err = parse(raw.as_bytes()).unwrap_err();
            assert!(
                matches!(err, HttpError::BadRequest(_)),
                "{value:?}: {err:?}"
            );
            assert_eq!(err.status(), 400, "{value:?}");
        }
        // Optional whitespace around the value is not part of it.
        let req = parse(b"POST /x HTTP/1.1\r\nContent-Length:  5 \r\n\r\nhello")
            .unwrap()
            .unwrap();
        assert_eq!(req.body, b"hello");
    }

    /// A head of `n` header lines, the first `Content-Length: 2`, the body
    /// `ok`, then a keep-alive `GET /health` on the same connection.
    fn request_with_headers(n: usize) -> Vec<u8> {
        let mut raw = b"POST /x HTTP/1.1\r\nContent-Length: 2\r\n".to_vec();
        for i in 1..n {
            raw.extend_from_slice(format!("X-Filler-{i}: {i}\r\n").as_bytes());
        }
        raw.extend_from_slice(b"\r\nokGET /health HTTP/1.1\r\n\r\n");
        raw
    }

    #[test]
    fn sixty_four_headers_frame_the_next_request() {
        let raw = request_with_headers(MAX_HEADERS);
        let mut reader = BufReader::new(raw.as_slice());
        let first = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (first.method.as_str(), first.body.as_slice()),
            ("POST", &b"ok"[..])
        );
        let second = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(
            (second.method.as_str(), second.path.as_str()),
            ("GET", "/health")
        );
        assert!(second.body.is_empty());
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn sixty_five_headers_are_a_bad_request() {
        let err = parse(&request_with_headers(MAX_HEADERS + 1)).unwrap_err();
        assert!(
            matches!(err, HttpError::BadRequest("too many headers")),
            "{err:?}"
        );
        assert_eq!(err.status(), 400);
    }

    #[test]
    fn oversized_declared_body_is_413() {
        let raw = format!(
            "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY + 1
        );
        let err = parse(raw.as_bytes()).unwrap_err();
        assert!(matches!(err, HttpError::TooLarge), "{err:?}");
        assert_eq!(err.status(), 413);
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let mut out = Vec::new();
        write_response(&mut out, &Response::shed("overloaded", 1), true).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 "), "{text}");
        assert!(text.contains("Retry-After: 1\r\n"), "{text}");
        // Plain responses must not grow the header.
        let mut out = Vec::new();
        write_response(&mut out, &Response::json(200, "{}".into()), true).unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("Retry-After"));
    }
}
