//! The HTTP/1.1 wire layer: just enough of RFC 7230 for a JSON API —
//! request-line + headers + `Content-Length` bodies, keep-alive with
//! pipelining, and a blocking [`client`] the integration tests and the CI
//! smoke job use.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};

/// Caps on hostile input: the request line and headers, terminator
/// included, and the body.
pub const MAX_HEAD_BYTES: usize = 64 * 1024;
pub const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// The most one read appends to a connection's buffer. With the caps it
/// bounds the buffer: [`read_request`] never holds more than
/// `MAX_HEAD_BYTES + MAX_BODY_BYTES + READ_BYTES` bytes.
pub const READ_BYTES: usize = 4096;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    pub method: String,
    pub path: String,
    pub body: Vec<u8>,
    /// Whether the client asked to keep the connection open (HTTP/1.1
    /// default unless `Connection: close`).
    pub keep_alive: bool,
}

/// What [`read_request`] found on a connection.
#[derive(Debug)]
pub enum Incoming {
    Request(Request),
    /// A request whose body cannot be delimited safely: answer `status`
    /// with `error` and close, since where the next request would start is
    /// unknown.
    Refused {
        status: u16,
        error: &'static str,
    },
    /// The connection closed cleanly before a request started, or shutdown
    /// was requested: drop it.
    Closed,
}

/// Reads one request off the stream. `buf` is the connection's read
/// buffer, carried from one call to the next: bytes read past the end of
/// this request — a pipelining client's next request — stay in it for the
/// next call. A read that times out (or would block) polls `stop`, so the
/// server's `TcpStream`s carry a read timeout.
pub fn read_request(
    stream: &mut impl Read,
    buf: &mut Vec<u8>,
    stop: &AtomicBool,
) -> io::Result<Incoming> {
    // Bytes already searched for the terminator: a head trickled in one
    // byte per read costs a linear scan, not a quadratic one.
    let mut searched = 0;
    let head_end = loop {
        if let Some(pos) = find_head_end(buf, searched) {
            break pos;
        }
        searched = buf.len().saturating_sub(3);
        if buf.len() > MAX_HEAD_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "request head too large",
            ));
        }
        match read_some(stream, buf, stop)? {
            ReadStep::Data => {}
            ReadStep::Eof if buf.is_empty() => return Ok(Incoming::Closed),
            ReadStep::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-request",
                ))
            }
            ReadStep::Stopped => return Ok(Incoming::Closed),
        }
    };
    // The read that found the terminator may have carried the head past
    // the cap.
    if head_end + 4 > MAX_HEAD_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request head too large",
        ));
    }

    // `find_head_end` located `\r\n\r\n` inside `buf`, so the range is in
    // bounds; checked access keeps the serving path panic-free anyway.
    let head = buf
        .get(..head_end)
        .and_then(|head| std::str::from_utf8(head).ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 request head"))?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("").to_owned();
    let path = parts.next().unwrap_or("").to_owned();
    if method.is_empty() || path.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed request line",
        ));
    }

    let refuse = |status, error| Ok(Incoming::Refused { status, error });
    let mut content_length: Option<usize> = None;
    let mut keep_alive = true;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            // Two lengths that disagree leave the body's end — and so the
            // next request's start — to whoever reads them: refused, as
            // RFC 7230 §3.3.3 asks, instead of letting the last one win.
            match (value.parse(), content_length) {
                (Err(_), _) => return refuse(400, "bad Content-Length"),
                (Ok(length), Some(earlier)) if length != earlier => {
                    return refuse(400, "conflicting Content-Length headers")
                }
                (Ok(length), _) => content_length = Some(length),
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            // No transfer coding is decoded here; reading a chunked body
            // as length 0 would serve its chunks as the next request.
            return refuse(501, "Transfer-Encoding is not supported");
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > MAX_BODY_BYTES {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "request body too large",
        ));
    }

    let body_start = head_end + 4;
    let request_end = body_start + content_length;
    while buf.len() < request_end {
        match read_some(stream, buf, stop)? {
            ReadStep::Data => {}
            ReadStep::Eof => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed mid-body",
                ))
            }
            ReadStep::Stopped => return Ok(Incoming::Closed),
        }
    }
    let body = buf
        .get(body_start..request_end)
        .unwrap_or_default()
        .to_vec();
    buf.drain(..request_end);

    Ok(Incoming::Request(Request {
        method,
        path,
        body,
        keep_alive,
    }))
}

enum ReadStep {
    Data,
    Eof,
    Stopped,
}

/// One poll-aware read: appends available bytes, reports EOF, or — on a
/// timeout with shutdown requested — asks the caller to bail out.
fn read_some(stream: &mut impl Read, buf: &mut Vec<u8>, stop: &AtomicBool) -> io::Result<ReadStep> {
    let mut chunk = [0u8; READ_BYTES];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(ReadStep::Eof),
            Ok(n) => {
                buf.extend_from_slice(chunk.get(..n).unwrap_or_default());
                return Ok(ReadStep::Data);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if stop.load(Ordering::Acquire) {
                    return Ok(ReadStep::Stopped);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

/// Where `\r\n\r\n` starts in `buf`, searching from `from` on.
fn find_head_end(buf: &[u8], from: usize) -> Option<usize> {
    let pos = buf.get(from..)?.windows(4).position(|w| w == b"\r\n\r\n")?;
    Some(from + pos)
}

fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        501 => "Not Implemented",
        504 => "Gateway Timeout",
        _ => "Unknown",
    }
}

/// Writes one JSON response, head and body in a single write: two writes
/// on a keep-alive connection put the body behind Nagle's algorithm until
/// the client's delayed ACK of the head arrives (~40 ms per response).
pub(crate) fn write_response(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    let message = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: {}\r\n\r\n{body}",
        status,
        reason(status),
        body.len(),
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(message.as_bytes())?;
    stream.flush()
}

/// A minimal blocking HTTP client — one request per connection
/// (`Connection: close`). What the loopback integration tests and the CI
/// `serve-smoke` job speak to the server with.
pub mod client {
    use serde_json::Value;
    use std::io::{self, Read, Write};
    use std::net::TcpStream;

    /// Issues one request; returns `(status, body)`.
    pub fn request(
        addr: &str,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> io::Result<(u16, String)> {
        let mut stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let body = body.unwrap_or("");
        let message = format!(
            "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
            body.len(),
        );
        stream.write_all(message.as_bytes())?;
        stream.flush()?;

        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        let head_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no response head"))?;
        let head = String::from_utf8_lossy(raw.get(..head_end).unwrap_or_default());
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let body =
            String::from_utf8_lossy(raw.get(head_end + 4..).unwrap_or_default()).into_owned();
        Ok((status, body))
    }

    /// `POST /query` with a JSON body; returns `(status, parsed body)`.
    pub fn post_query(addr: &str, body: &Value) -> io::Result<(u16, Value)> {
        parsed(request(addr, "POST", "/query", Some(&body.to_string()))?)
    }

    /// `GET /stats`; returns `(status, parsed body)`.
    pub fn get_stats(addr: &str) -> io::Result<(u16, Value)> {
        parsed(request(addr, "GET", "/stats", None)?)
    }

    /// `POST /checkpoint`; returns `(status, parsed body)`.
    pub fn post_checkpoint(addr: &str) -> io::Result<(u16, Value)> {
        parsed(request(addr, "POST", "/checkpoint", None)?)
    }

    /// A response with its JSON body parsed.
    fn parsed((status, text): (u16, String)) -> io::Result<(u16, Value)> {
        let body = serde_json::from_str(&text)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        Ok((status, body))
    }
}
