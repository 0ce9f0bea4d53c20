//! A minimal blocking HTTP client for the daemon — what the integration
//! tests, the CI smoke script and the serve benchmark drive requests
//! with (and a convenient library entry point for scripting against a
//! running daemon without `curl`).
//!
//! One request per connection (`Connection: close`): the daemon's
//! thread-per-connection model makes connection reuse an optimization,
//! not a requirement, and close-delimited responses keep the client
//! trivial to reason about. [`Client::keep_alive`] opens a pipelined
//! connection when a caller (the benchmark) wants to measure without
//! per-request connect cost.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// The per-request socket read/write timeout.
const TIMEOUT: Duration = Duration::from_secs(30);

/// Blocking client bound to one daemon address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: SocketAddr,
}

impl Client {
    /// A client for the daemon at `addr`.
    pub fn new(addr: SocketAddr) -> Self {
        Self { addr }
    }

    /// `GET path` → `(status, body)`.
    pub fn get(&self, path: &str) -> std::io::Result<(u16, String)> {
        self.request("GET", path, b"")
    }

    /// `POST path` with `body` → `(status, body)`.
    pub fn post(&self, path: &str, body: &[u8]) -> std::io::Result<(u16, String)> {
        self.request("POST", path, body)
    }

    /// One request over a fresh connection.
    pub fn request(&self, method: &str, path: &str, body: &[u8]) -> std::io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        write_request(&mut stream, method, path, body, false)?;
        let mut reader = BufReader::new(stream);
        read_response(&mut reader)
    }

    /// Open a keep-alive connection for a sequence of requests (the
    /// benchmark's hot loop — connect once, measure request cost only).
    pub fn keep_alive(&self) -> std::io::Result<Connection> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_read_timeout(Some(TIMEOUT))?;
        stream.set_write_timeout(Some(TIMEOUT))?;
        stream.set_nodelay(true)?;
        Ok(Connection {
            reader: BufReader::new(stream),
        })
    }
}

/// A persistent keep-alive connection from [`Client::keep_alive`].
pub struct Connection {
    reader: BufReader<TcpStream>,
}

impl Connection {
    /// One request on the shared connection.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
    ) -> std::io::Result<(u16, String)> {
        write_request(self.reader.get_mut(), method, path, body, true)?;
        read_response(&mut self.reader)
    }
}

fn write_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    body: &[u8],
    keep_alive: bool,
) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(body.len() + 128);
    out.extend_from_slice(
        format!(
            "{method} {path} HTTP/1.1\r\nHost: probdedup\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n",
            body.len(),
            if keep_alive { "keep-alive" } else { "close" },
        )
        .as_bytes(),
    );
    out.extend_from_slice(body);
    stream.write_all(&out)?;
    stream.flush()
}

fn bad(detail: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, detail.to_string())
}

fn read_response(reader: &mut BufReader<TcpStream>) -> std::io::Result<(u16, String)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(bad("server closed the connection before responding"));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;

    let mut content_length: Option<usize> = None;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(bad("truncated response headers"));
        }
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(
                    value
                        .trim()
                        .parse()
                        .map_err(|_| bad("bad Content-Length in response"))?,
                );
            }
        }
    }

    let body = match content_length {
        Some(len) => {
            let mut buf = vec![0u8; len];
            reader.read_exact(&mut buf)?;
            buf
        }
        None => {
            let mut buf = Vec::new();
            reader.read_to_end(&mut buf)?;
            buf
        }
    };
    String::from_utf8(body)
        .map(|b| (status, b))
        .map_err(|_| bad("non-UTF-8 response body"))
}

/// Extract the raw value of a top-level `"key": value` field from one of
/// the daemon's JSON bodies — enough for tests and scripts to assert on
/// counters without a JSON parser. Returns the value token with quotes
/// stripped for strings; `None` when the key is absent.
///
/// This is a scanner for the daemon's *own* flat output (no nested
/// objects share key names), not a general JSON parser.
pub fn json_field(body: &str, key: &str) -> Option<String> {
    let needle = format!("\"{key}\":");
    let at = body.find(&needle)? + needle.len();
    let rest = body[at..].trim_start();
    if let Some(stripped) = rest.strip_prefix('"') {
        // String value: scan to the closing unescaped quote.
        let mut out = String::new();
        let mut chars = stripped.chars();
        while let Some(c) = chars.next() {
            match c {
                '"' => return Some(out),
                '\\' => match chars.next()? {
                    'n' => out.push('\n'),
                    't' => out.push('\t'),
                    'r' => out.push('\r'),
                    other => out.push(other),
                },
                c => out.push(c),
            }
        }
        None
    } else {
        // Number / bool / null: scan to a delimiter.
        let end = rest
            .find(|c: char| c == ',' || c == '}' || c == ']' || c.is_whitespace())
            .unwrap_or(rest.len());
        if end == 0 {
            None
        } else {
            Some(rest[..end].to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::json_field;

    #[test]
    fn json_field_extracts_values() {
        let body = "{\"status\": \"ok\", \"rows\": 12, \"uptime_secs\": 0.5, \"warm\": true}";
        assert_eq!(json_field(body, "status").as_deref(), Some("ok"));
        assert_eq!(json_field(body, "rows").as_deref(), Some("12"));
        assert_eq!(json_field(body, "uptime_secs").as_deref(), Some("0.5"));
        assert_eq!(json_field(body, "warm").as_deref(), Some("true"));
        assert_eq!(json_field(body, "absent"), None);
    }

    #[test]
    fn json_field_unescapes_strings() {
        let body = "{\"error\": \"line\\nbreak \\\"quoted\\\"\"}";
        assert_eq!(
            json_field(body, "error").as_deref(),
            Some("line\nbreak \"quoted\"")
        );
    }
}
