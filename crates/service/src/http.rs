//! A minimal HTTP/1.1 implementation on `std::net`.
//!
//! Only what the job API needs: one request per connection
//! (`Connection: close`), `Content-Length` framing both ways, hard size
//! limits so a misbehaving peer cannot balloon memory on either side, and
//! one deadline per exchange so a peer that dribbles bytes or never
//! answers cannot hold a thread for long. No chunked encoding, no
//! keep-alive, no TLS — the service targets trusted lab networks, and
//! every avoided feature is an avoided dependency.

use noc_telemetry::clock;
use std::io::{self, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest accepted request or response head (start line + headers).
const MAX_HEAD_BYTES: usize = 8 * 1024;
/// Largest accepted body; experiment specs are a few hundred bytes.
const MAX_BODY_BYTES: usize = 1024 * 1024;
/// The longest `GET /jobs/{id}/result?wait_ms=N` may hold a request
/// open; larger `N` are clamped to it.
pub(crate) const MAX_WAIT_MS: u64 = 1_000;
/// How long a client tries to connect before giving up on a peer.
const CONNECT_TIMEOUT: Duration = Duration::from_secs(2);
/// How long a client waits for a response beyond the longest wait a
/// request may ask for, so a waited request never times out on a
/// healthy server.
const RESPONSE_MARGIN_MS: u64 = 4_000;

/// A reader over a socket with one deadline for the whole exchange:
/// before each read the socket timeout is set to the time left, so a
/// peer that sends one byte at a time cannot stretch the exchange past
/// the deadline the way a per-read timeout lets it.
#[derive(Debug)]
pub(crate) struct Deadline<'a> {
    stream: &'a TcpStream,
    at: Instant,
}

impl<'a> Deadline<'a> {
    /// Reads from `stream` until `budget` from now.
    pub(crate) fn new(stream: &'a TcpStream, budget: Duration) -> Deadline<'a> {
        Deadline {
            stream,
            at: clock::now() + budget,
        }
    }
}

impl Read for Deadline<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.at.saturating_duration_since(clock::now());
        if left.is_zero() {
            return Err(io::Error::new(io::ErrorKind::TimedOut, "deadline passed"));
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// The HTTP method, uppercased as received (`GET`, `POST`, ...).
    pub method: String,
    /// The raw request target, e.g. `/jobs/3` or
    /// `/jobs/3/result?wait_ms=500`; [`parse_target`] splits it.
    pub path: String,
    /// The decoded body (empty when none was sent).
    pub body: String,
}

/// Reads one request from `stream`. The server hands it a `Deadline`
/// over the accepted socket; any other reader works too, which is how
/// the head parser is fuzzed without a socket.
///
/// # Errors
///
/// Malformed request lines, over-limit heads or bodies, and I/O failures
/// (a passed deadline included) are all reported as strings; the caller
/// answers with `400` and closes.
pub fn read_request<R: Read>(stream: &mut R) -> Result<Request, String> {
    let (head, mut carry) = read_head(stream)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or("empty request line")?
        .to_string();
    let path = parts
        .next()
        .ok_or("request line has no target")?
        .to_string();
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(format!("not an HTTP/1.x request line: {request_line:?}"));
    }

    let mut content_length = 0usize;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value
                .trim()
                .parse()
                .map_err(|_| format!("bad Content-Length: {:?}", value.trim()))?;
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(format!("body of {content_length} bytes exceeds limit"));
    }

    while carry.len() < content_length {
        let mut buf = [0u8; 4096];
        let n = stream
            .read(&mut buf)
            .map_err(|e| format!("read body: {e}"))?;
        if n == 0 {
            return Err("connection closed mid-body".to_string());
        }
        carry.extend_from_slice(&buf[..n]);
    }
    carry.truncate(content_length);
    let body = String::from_utf8(carry).map_err(|_| "body is not UTF-8".to_string())?;
    Ok(Request { method, path, body })
}

/// Reads up to and including the blank line; returns the head text and
/// any body bytes already pulled off the socket.
fn read_head<R: Read>(stream: &mut R) -> Result<(String, Vec<u8>), String> {
    let mut buf = Vec::with_capacity(512);
    loop {
        let mut byte = [0u8; 256];
        let n = stream
            .read(&mut byte)
            .map_err(|e| format!("read head: {e}"))?;
        if n == 0 {
            return Err("connection closed before request head".to_string());
        }
        buf.extend_from_slice(&byte[..n]);
        if let Some(end) = find_head_end(&buf) {
            let carry = buf[end + 4..].to_vec();
            let head = String::from_utf8(buf[..end].to_vec())
                .map_err(|_| "request head is not UTF-8".to_string())?;
            return Ok((head, carry));
        }
        if buf.len() > MAX_HEAD_BYTES {
            return Err(format!("request head exceeds {MAX_HEAD_BYTES} bytes"));
        }
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// A request target split once, for the router and the metrics labels
/// alike: the path's non-empty segments plus the one query parameter the
/// API defines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Target<'a> {
    /// The path's non-empty `/`-separated segments.
    pub segments: Vec<&'a str>,
    /// `?wait_ms=N`, when present.
    pub wait_ms: Option<u64>,
}

/// Splits a raw request target into path segments and query.
///
/// # Errors
///
/// Any query other than exactly `wait_ms=` followed by a decimal `u64`.
pub fn parse_target(raw: &str) -> Result<Target<'_>, String> {
    let (path, query) = match raw.split_once('?') {
        Some((path, query)) => (path, Some(query)),
        None => (raw, None),
    };
    let wait_ms = match query {
        None => None,
        Some(query) => {
            let value = query
                .strip_prefix("wait_ms=")
                .ok_or_else(|| format!("unknown query {query:?}"))?;
            // `u64::from_str` takes a leading `+`; the API does not.
            if value.is_empty() || !value.bytes().all(|b| b.is_ascii_digit()) {
                return Err(format!("bad wait_ms {value:?}"));
            }
            Some(
                value
                    .parse()
                    .map_err(|_| format!("bad wait_ms {value:?}"))?,
            )
        }
    };
    Ok(Target {
        segments: path.split('/').filter(|s| !s.is_empty()).collect(),
        wait_ms,
    })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// Writes a JSON response and flushes. `extra_headers` lets handlers add
/// e.g. `Retry-After`. Write failures are ignored — the client is gone,
/// and the job table, not the socket, is the source of truth.
pub fn write_json_response(
    stream: &mut TcpStream,
    status: u16,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    write_response(stream, status, "application/json", extra_headers, body);
}

/// Writes a response with an explicit content type (the `/metrics`
/// exposition is `text/plain`, everything else JSON).
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra_headers: &[(&str, &str)],
    body: &str,
) {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in extra_headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    let _ = stream.write_all(out.as_bytes());
    let _ = stream.flush();
}

/// A client-side response: status code and body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// The HTTP status code.
    pub status: u16,
    /// The response body.
    pub body: String,
    /// The parsed `Retry-After` header, when present.
    pub retry_after_secs: Option<u64>,
}

/// Performs one request against `addr` and reads the full response
/// (the server always closes after responding).
///
/// Bounded in time and memory: connecting gives up after
/// `CONNECT_TIMEOUT`, the whole response must arrive within
/// `MAX_WAIT_MS` plus `RESPONSE_MARGIN_MS`, and a response larger than
/// the head limit plus the body limit is an error. A peer that accepts
/// and never answers is therefore a transport error, not a hang.
///
/// # Errors
///
/// Connection, I/O, deadline, size and response-parse failures as
/// strings.
pub fn http_request(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
) -> Result<ClientResponse, String> {
    let mut stream = connect(addr)?;
    let budget = Duration::from_millis(MAX_WAIT_MS + RESPONSE_MARGIN_MS);
    stream
        .set_write_timeout(Some(budget))
        .map_err(|e| format!("write timeout: {e}"))?;
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream
        .write_all(request.as_bytes())
        .map_err(|e| format!("write request: {e}"))?;
    let cap = MAX_HEAD_BYTES + MAX_BODY_BYTES;
    let mut raw = Vec::new();
    Deadline::new(&stream, budget)
        .take(cap as u64 + 1)
        .read_to_end(&mut raw)
        .map_err(|e| format!("read response from {addr}: {e}"))?;
    if raw.len() > cap {
        return Err(format!("response from {addr} exceeds {cap} bytes"));
    }
    parse_response(&raw)
}

/// Connects to the first address `addr` resolves to that answers within
/// `CONNECT_TIMEOUT`.
fn connect(addr: &str) -> Result<TcpStream, String> {
    let mut last = format!("connect {addr}: no address resolved");
    for sock in addr
        .to_socket_addrs()
        .map_err(|e| format!("connect {addr}: {e}"))?
    {
        match TcpStream::connect_timeout(&sock, CONNECT_TIMEOUT) {
            Ok(stream) => return Ok(stream),
            Err(e) => last = format!("connect {addr}: {e}"),
        }
    }
    Err(last)
}

fn parse_response(raw: &[u8]) -> Result<ClientResponse, String> {
    let end = find_head_end(raw).ok_or("response has no header terminator")?;
    let head = String::from_utf8(raw[..end].to_vec()).map_err(|_| "response head is not UTF-8")?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or("");
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad status line: {status_line:?}"))?;
    let mut retry_after_secs = None;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("retry-after") {
                retry_after_secs = value.trim().parse().ok();
            }
        }
    }
    let body = String::from_utf8(raw[end + 4..].to_vec())
        .map_err(|_| "response body is not UTF-8".to_string())?;
    Ok(ClientResponse {
        status,
        body,
        retry_after_secs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_full_response() {
        let raw =
            b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\nContent-Length: 2\r\n\r\n{}";
        let r = parse_response(raw).unwrap();
        assert_eq!(r.status, 429);
        assert_eq!(r.retry_after_secs, Some(1));
        assert_eq!(r.body, "{}");
    }

    #[test]
    fn rejects_garbage_responses() {
        assert!(parse_response(b"not http").is_err());
        assert!(parse_response(b"HTTP/1.1 abc\r\n\r\n").is_err());
    }

    #[test]
    fn head_end_detection() {
        assert_eq!(find_head_end(b"a\r\n\r\nbody"), Some(1));
        assert_eq!(find_head_end(b"partial\r\n"), None);
    }

    #[test]
    fn targets_split_path_and_wait_query() {
        let t = parse_target("/jobs/7/result?wait_ms=250").unwrap();
        assert_eq!(t.segments, ["jobs", "7", "result"]);
        assert_eq!(t.wait_ms, Some(250));
        let t = parse_target("//stats/").unwrap();
        assert_eq!((t.segments, t.wait_ms), (vec!["stats"], None));
        for bad in [
            "/jobs/1/result?",
            "/jobs/1/result?wait=5",
            "/jobs/1/result?wait_ms=",
            "/jobs/1/result?wait_ms=+5",
            "/jobs/1/result?wait_ms=-1",
            "/jobs/1/result?wait_ms=1e3",
            "/jobs/1/result?wait_ms=5&wait_ms=6",
            "/jobs/1/result?wait_ms=99999999999999999999999",
        ] {
            assert!(parse_target(bad).is_err(), "{bad} must be rejected");
        }
    }

    #[test]
    fn requests_parse_from_any_reader() {
        let raw = b"POST /jobs HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
        let req = read_request(&mut &raw[..]).unwrap();
        assert_eq!((req.method.as_str(), req.path.as_str()), ("POST", "/jobs"));
        assert_eq!(req.body, "abc");
        let truncated = b"POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n\r\nabc";
        assert!(read_request(&mut &truncated[..]).is_err());
    }

    #[test]
    fn oversize_responses_are_refused_not_buffered() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let results = sensorwise::parallel_map(&[0usize, 1], 2, |_, &role| {
            if role == 0 {
                let (mut stream, _) = listener.accept().unwrap();
                let _ = read_request(&mut stream);
                let body = "x".repeat(MAX_HEAD_BYTES + MAX_BODY_BYTES);
                let _ = stream.write_all(b"HTTP/1.1 200 OK\r\n\r\n");
                let _ = stream.write_all(body.as_bytes());
                String::new()
            } else {
                http_request(&addr, "GET", "/stats", "").unwrap_err()
            }
        });
        assert!(results[1].contains("exceeds"), "{}", results[1]);
    }

    #[test]
    fn request_round_trip_over_a_real_socket() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let results = sensorwise::parallel_map(&[0usize, 1], 2, |_, &role| {
            if role == 0 {
                let (mut stream, _) = listener.accept().unwrap();
                let req = read_request(&mut stream).unwrap();
                write_json_response(&mut stream, 202, &[], "{\"ok\":true}");
                format!("{} {} {}", req.method, req.path, req.body)
            } else {
                let r = http_request(&addr, "POST", "/jobs", "{\"x\":1}").unwrap();
                format!("{} {}", r.status, r.body)
            }
        });
        assert_eq!(results[0], "POST /jobs {\"x\":1}");
        assert_eq!(results[1], "202 {\"ok\":true}");
    }
}
