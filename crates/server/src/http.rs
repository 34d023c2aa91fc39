//! Minimal HTTP/1.1 over `std::net` — hand-rolled on purpose: the build
//! environment is offline and the repo's policy is zero new dependencies.
//!
//! The server side parses exactly what the campaign API needs (request
//! line, headers, `Content-Length` body) and always answers with
//! `Connection: close`, so a connection carries one request. The client
//! side ([`http_request`]) is the same subset from the other end; the
//! integration tests and any script with a TCP stack can drive the API
//! with it.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

/// Largest accepted request body (a million-config grid is ~kilobytes;
/// this bound exists to shed hostile inputs, not to constrain use).
pub const MAX_BODY: usize = 16 << 20;

/// Largest accepted request head: the request line plus every header. The
/// read deadline bounds how long a client may take, not how much it may
/// send; this bounds the bytes.
pub const MAX_HEAD: u64 = 64 << 10;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    /// Path with any query string stripped.
    pub path: String,
    pub body: Vec<u8>,
}

fn bad_input(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

/// The stream as a reader that gives up at a deadline: before each read
/// the socket timeout is set to the time left, so a client that trickles
/// bytes cannot stretch one request past it.
struct Deadlined<'a> {
    stream: &'a TcpStream,
    deadline: Instant,
}

impl Read for Deadlined<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err(io::ErrorKind::TimedOut.into());
        }
        self.stream.set_read_timeout(Some(left))?;
        let mut stream = self.stream;
        stream.read(buf)
    }
}

/// `read_line` inside the head budget: a line the budget cuts short is an
/// oversized head, never a line.
fn read_head_line(
    head: &mut io::Take<BufReader<Deadlined<'_>>>,
    line: &mut String,
) -> io::Result<usize> {
    let n = head.read_line(line)?;
    if head.limit() == 0 && !line.ends_with('\n') {
        return Err(bad_input("request head too large"));
    }
    Ok(n)
}

/// Reads one request from the stream, all of it by `deadline`. Returns an
/// error of kind `TimedOut` or `WouldBlock` once the deadline passes (the
/// caller answers 408), and `Err` on malformed input — including a head
/// over [`MAX_HEAD`] or a body over [`MAX_BODY`]; the caller answers 400
/// and closes.
pub fn read_request(stream: &TcpStream, deadline: Instant) -> io::Result<Request> {
    let mut head = BufReader::new(Deadlined { stream, deadline }).take(MAX_HEAD);
    let mut line = String::new();
    read_head_line(&mut head, &mut line)?;
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| bad_input("empty request line"))?
        .to_string();
    let target = parts.next().ok_or_else(|| bad_input("missing target"))?;
    let path = target.split('?').next().unwrap_or(target).to_string();
    if !path.starts_with('/') {
        return Err(bad_input("target must be absolute"));
    }

    let mut content_length = 0usize;
    loop {
        let mut h = String::new();
        if read_head_line(&mut head, &mut h)? == 0 {
            return Err(bad_input("connection closed inside headers"));
        }
        let t = h.trim();
        if t.is_empty() {
            break;
        }
        if let Some((k, v)) = t.split_once(':') {
            if k.trim().eq_ignore_ascii_case("content-length") {
                content_length = v
                    .trim()
                    .parse()
                    .map_err(|_| bad_input("bad content-length"))?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(bad_input("body too large"));
    }
    let mut body = vec![0u8; content_length];
    head.into_inner().read_exact(&mut body)?;
    Ok(Request { method, path, body })
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        408 => "Request Timeout",
        500 => "Internal Server Error",
        _ => "Unknown",
    }
}

/// Writes a complete response and flushes. `Connection: close` always.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> io::Result<()> {
    respond_with_headers(stream, status, content_type, &[], body)
}

/// [`respond`] with additional response headers (name, value pairs).
pub fn respond_with_headers(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    extra: &[(&str, &str)],
    body: &[u8],
) -> io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
        status,
        reason(status),
        content_type,
        body.len()
    );
    for (name, value) in extra {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("Connection: close\r\n\r\n");
    // Head and body leave in one write: two small segments would have the
    // second wait on the peer's delayed ACK.
    let mut message = head.into_bytes();
    message.extend_from_slice(body);
    stream.write_all(&message)?;
    stream.flush()
}

/// JSON response helper.
pub fn respond_json(stream: &mut TcpStream, status: u16, body: &str) -> io::Result<()> {
    respond(stream, status, "application/json", body.as_bytes())
}

/// A one-line JSON error body.
pub fn respond_error(stream: &mut TcpStream, status: u16, message: &str) -> io::Result<()> {
    let body = flexsim::jsonio::obj(vec![(
        "error",
        flexsim::jsonio::Json::Str(message.to_string()),
    )])
    .to_string();
    respond_json(stream, status, &body)
}

/// Blocking HTTP client for the campaign API: sends one request, reads
/// the full response (the server closes the connection after it).
/// Returns `(status, body)`.
pub fn http_request(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<(u16, String)> {
    let (status, _, payload) = http_request_full(addr, method, path, body)?;
    Ok((status, payload))
}

/// Full client response: `(status, lowercase headers, body)`.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// [`http_request`] that also returns the response headers as
/// lowercase-name `(name, value)` pairs — the fleet tests read
/// `x-job-complete` from partial results streams.
pub fn http_request_full(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<FullResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let body = body.unwrap_or("");
    let message = format!(
        "{method} {path} HTTP/1.1\r\nHost: campaign\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()?;

    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    let text = String::from_utf8(raw).map_err(|_| bad_input("non-UTF-8 response"))?;
    let (head, payload) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| bad_input("truncated response"))?;
    let status: u16 = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad_input("bad status line"))?;
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| {
            let (name, value) = l.split_once(':')?;
            Some((name.trim().to_ascii_lowercase(), value.trim().to_string()))
        })
        .collect();
    Ok((status, headers, payload.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn soon() -> Instant {
        Instant::now() + Duration::from_secs(5)
    }

    #[test]
    fn request_and_response_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let req = read_request(&stream, soon()).unwrap();
            assert_eq!(req.method, "POST");
            assert_eq!(req.path, "/jobs");
            assert_eq!(req.body, b"{\"x\":1}");
            let mut stream = stream;
            respond_json(&mut stream, 200, "{\"ok\":true}").unwrap();
        });
        let (status, body) =
            http_request(addr, "POST", "/jobs?verbose=1", Some("{\"x\":1}")).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{\"ok\":true}");
        server.join().unwrap();
    }

    #[test]
    fn get_without_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let req = read_request(&stream, soon()).unwrap();
            assert_eq!(req.method, "GET");
            assert!(req.body.is_empty());
            let mut stream = stream;
            respond(&mut stream, 404, "text/plain", b"nope").unwrap();
        });
        let (status, body) = http_request(addr, "GET", "/stats", None).unwrap();
        assert_eq!(status, 404);
        assert_eq!(body, "nope");
        server.join().unwrap();
    }

    #[test]
    fn extra_headers_round_trip() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = read_request(&stream, soon()).unwrap();
            let mut stream = stream;
            respond_with_headers(
                &mut stream,
                200,
                "application/x-ndjson",
                &[("X-Job-Complete", "false")],
                b"{}\n",
            )
            .unwrap();
        });
        let (status, headers, body) =
            http_request_full(addr, "GET", "/jobs/1/results", None).unwrap();
        assert_eq!(status, 200);
        assert_eq!(body, "{}\n");
        let complete = headers
            .iter()
            .find(|(n, _)| n == "x-job-complete")
            .map(|(_, v)| v.as_str());
        assert_eq!(complete, Some("false"));
        server.join().unwrap();
    }

    #[test]
    fn malformed_request_line_rejected() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"garbage\r\n\r\n").unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        assert!(read_request(&stream, soon()).is_err());
        client.join().unwrap();
    }

    #[test]
    fn a_passed_deadline_times_out() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"GET /stats HTTP/1.1\r\n\r\n").unwrap();
        });
        let (stream, _) = listener.accept().unwrap();
        client.join().unwrap();
        let err = read_request(&stream, Instant::now()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::TimedOut);
    }
}
