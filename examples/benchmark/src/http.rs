//! The benchmark's own HTTP/1.1 client. `bdi_server::http::client` opens a
//! connection per request; the keep-alive workloads need a connection that
//! carries many, and every workload needs the clock started at the first
//! request byte and stopped at the last response byte.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// One response: status, body, and the time from the first request byte
/// written to the last response byte read.
pub struct Response {
    pub status: u16,
    pub body: Vec<u8>,
    pub elapsed: Duration,
}

/// One client connection.
pub struct Conn {
    stream: TcpStream,
}

fn bad(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message)
}

impl Conn {
    pub fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // The request leaves in one write; no reason to let the client's
        // side of Nagle add to what is measured.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        Ok(Conn { stream })
    }

    /// Sends one request and reads its whole response. With `close` the
    /// request carries `Connection: close` and the connection is spent.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> io::Result<Response> {
        let connection = if close { "close" } else { "keep-alive" };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\nConnection: {connection}\r\n\r\n{body}",
            body.len()
        );
        let started = Instant::now();
        self.stream.write_all(request.as_bytes())?;

        let mut raw: Vec<u8> = Vec::with_capacity(4096);
        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                break at;
            }
            match self.stream.read(&mut chunk)? {
                0 => return Err(bad("connection closed before the response head")),
                n => raw.extend_from_slice(&chunk[..n]),
            }
        };
        let head = std::str::from_utf8(&raw[..head_end]).map_err(|_| bad("non-UTF-8 head"))?;
        let status: u16 = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = head
            .lines()
            .filter_map(|line| line.split_once(':'))
            .find(|(name, _)| name.eq_ignore_ascii_case("content-length"))
            .and_then(|(_, value)| value.trim().parse().ok())
            .ok_or_else(|| bad("no Content-Length"))?;

        let mut body = raw.split_off(head_end + 4);
        let have = body.len();
        if have > length {
            return Err(bad("more body bytes than Content-Length"));
        }
        body.resize(length, 0);
        self.stream.read_exact(&mut body[have..])?;
        Ok(Response {
            status,
            body,
            elapsed: started.elapsed(),
        })
    }
}

/// One request on a connection of its own (`Connection: close`).
pub fn once(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    Conn::open(addr)?.request(method, path, body, true)
}
