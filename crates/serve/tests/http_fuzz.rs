//! Property fuzzing of the daemon's HTTP/1.1 request parser, to the
//! recover-or-refuse standard the snapshot and journal codecs meet:
//!
//! * any byte string — raw noise, or a well-formed request with bytes
//!   overwritten and maybe its tail cut, so it reaches past the request
//!   line — parses into requests or stops at a typed [`HttpError`];
//!   nothing panics;
//! * any two well-formed requests written back to back on one connection
//!   parse as exactly those two requests, then a clean end of stream.

use std::io::BufReader;

use proptest::prelude::*;

use probdedup_serve::http::{read_request, HttpError, Request};

/// The parser's bound on header lines per request.
const MAX_HEADERS: usize = 64;

/// Parse requests off `bytes` until the stream ends cleanly or the parser
/// refuses.
fn parse_all(bytes: &[u8]) -> Result<(), HttpError> {
    let mut reader = BufReader::new(bytes);
    while read_request(&mut reader)?.is_some() {}
    Ok(())
}

/// One well-formed request as the generator drew it.
#[derive(Debug, Clone)]
struct Wire {
    method: String,
    path: String,
    query: Vec<(String, String)>,
    http11: bool,
    /// `Connection:` header value, if any.
    connection: Option<&'static str>,
    /// Headers the parser reads past (names never collide with the three
    /// it interprets).
    headers: Vec<(String, String)>,
    body: Vec<u8>,
}

impl Wire {
    fn bytes(&self) -> Vec<u8> {
        let mut target = self.path.clone();
        if !self.query.is_empty() {
            let pairs: Vec<String> = self.query.iter().map(|(k, v)| format!("{k}={v}")).collect();
            target = format!("{target}?{}", pairs.join("&"));
        }
        let version = if self.http11 { "HTTP/1.1" } else { "HTTP/1.0" };
        let mut head = format!("{} {target} {version}\r\n", self.method);
        if !self.body.is_empty() {
            head.push_str(&format!("Content-Length: {}\r\n", self.body.len()));
        }
        if let Some(value) = self.connection {
            head.push_str(&format!("Connection: {value}\r\n"));
        }
        for (name, value) in &self.headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        head.push_str("\r\n");
        let mut out = head.into_bytes();
        out.extend_from_slice(&self.body);
        out
    }

    fn keep_alive(&self) -> bool {
        match self.connection {
            Some(value) => value != "close",
            None => self.http11,
        }
    }

    /// Fail unless `req` is this request as the parser should report it.
    fn check(&self, req: &Request) -> Result<(), TestCaseError> {
        prop_assert_eq!(&req.method, &self.method.to_ascii_uppercase());
        prop_assert_eq!(&req.path, &self.path);
        prop_assert_eq!(&req.query, &self.query);
        prop_assert_eq!(&req.body, &self.body);
        prop_assert_eq!(req.keep_alive, self.keep_alive());
        Ok(())
    }
}

/// Well-formed requests: any method token, path and query, either
/// version, an optional `Connection`, up to [`MAX_HEADERS`] header lines
/// in all, and a body of up to 1 KiB framed by `Content-Length`.
fn wire() -> impl Strategy<Value = Wire> {
    (
        "[A-Za-z]{1,7}",
        "/[a-z0-9/_.-]{0,24}",
        proptest::collection::vec(("[a-z]{1,6}", "[a-z0-9]{0,6}"), 0..4),
        any::<bool>(),
        0usize..3,
        proptest::collection::vec(("X-[A-Za-z]{1,12}", ".{0,40}"), 0..=MAX_HEADERS),
        proptest::collection::vec(any::<u8>(), 0..=1024),
    )
        .prop_map(
            |(method, path, query, http11, connection, mut headers, body)| {
                let connection = [None, Some("close"), Some("keep-alive")][connection];
                let framing = usize::from(!body.is_empty()) + usize::from(connection.is_some());
                headers.truncate(MAX_HEADERS - framing);
                Wire {
                    method,
                    path,
                    query,
                    http11,
                    connection,
                    headers,
                    body,
                }
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary bytes (≤ 4 KiB) never panic the parser: every read is a
    /// request, a clean end of stream, or a typed refusal — 400 or 413,
    /// never an I/O error, since an in-memory stream cannot fail.
    #[test]
    fn arbitrary_bytes_parse_or_refuse(
        noise in proptest::collection::vec(any::<u8>(), 0..=4096),
        request in wire(),
        edits in proptest::collection::vec((any::<usize>(), any::<u8>()), 0..8),
        cut in proptest::collection::vec(any::<usize>(), 0..2),
    ) {
        let mut damaged = request.bytes();
        for (at, byte) in edits {
            let at = at % damaged.len();
            damaged[at] = byte;
        }
        if let Some(cut) = cut.first() {
            damaged.truncate(cut % (damaged.len() + 1));
        }
        damaged.truncate(4096);
        for input in [noise, damaged] {
            if let Err(err) = parse_all(&input) {
                prop_assert!(
                    matches!(err, HttpError::BadRequest(_) | HttpError::TooLarge),
                    "untyped failure {:?}",
                    err
                );
            }
        }
    }

    /// Two well-formed requests written back to back parse as exactly
    /// those two, in order, and the stream then ends cleanly — the body of
    /// the first never bleeds into the head of the second.
    #[test]
    fn back_to_back_requests_parse_as_written(first in wire(), second in wire()) {
        let mut bytes = first.bytes();
        bytes.extend_from_slice(&second.bytes());
        let mut reader = BufReader::new(bytes.as_slice());
        for want in [&first, &second] {
            match read_request(&mut reader) {
                Ok(Some(req)) => want.check(&req)?,
                other => prop_assert!(false, "expected {:?}, parsed {:?}", want, other),
            }
        }
        prop_assert!(matches!(read_request(&mut reader), Ok(None)), "bytes after the second request");
    }
}
