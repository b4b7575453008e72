//! Seeded fuzz of the request reader: `http::read_request` driven through
//! an in-memory `Read` that splits its bytes at random points, times out
//! and is interrupted between reads. Heads arrive oversized, with
//! duplicate, bad or conflicting `Content-Length`s, cut off mid-body or
//! followed by pipelined garbage. Every call must return `Request`,
//! `Refused`, `Closed` or `Err` — never panic — and the connection buffer
//! must stay within the head cap plus the body cap plus one read.

// The crate's manifest denies these for the serving path; a test fails by
// panicking.
#![allow(clippy::expect_used, clippy::indexing_slicing, clippy::panic)]

use bdi_server::http::{read_request, Incoming, MAX_BODY_BYTES, MAX_HEAD_BYTES, READ_BYTES};
use std::io::{self, Read};
use std::sync::atomic::AtomicBool;

/// xorshift64*: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Serves `bytes` in reads of 1..=`max_split` bytes, with a would-block
/// (a socket read timeout) or an interrupted read between some of them.
struct SplitReader {
    bytes: Vec<u8>,
    pos: usize,
    max_split: usize,
    rng: Rng,
}

impl Read for SplitReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        match self.rng.below(8) {
            0 => return Err(io::ErrorKind::WouldBlock.into()),
            1 => return Err(io::ErrorKind::Interrupted.into()),
            _ => {}
        }
        let left = self.bytes.len() - self.pos;
        let n = left.min(out.len()).min(1 + self.rng.below(self.max_split));
        out[..n].copy_from_slice(&self.bytes[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

fn request(body: &[u8], headers: &str) -> Vec<u8> {
    let mut bytes = format!("POST /query HTTP/1.1\r\nHost: x\r\n{headers}\r\n").into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn random_bytes(rng: &mut Rng, len: usize) -> Vec<u8> {
    // Skewed toward the bytes the parser looks for.
    const ALPHABET: &[u8] = b"\r\n: GETPOST/Content-Length0123456789xX\x00\xff";
    (0..len)
        .map(|_| ALPHABET[rng.below(ALPHABET.len())])
        .collect()
}

/// One generated connection: its bytes and the bodies of the requests the
/// reader must return, in order, before anything else happens.
fn connection(rng: &mut Rng) -> (Vec<u8>, Vec<Vec<u8>>) {
    let len = rng.below(300);
    let body = random_bytes(rng, len);
    let length = body.len();
    let mut expected = Vec::new();
    let mut bytes = match rng.below(10) {
        // Well-formed and pipelined.
        0 | 1 => {
            let mut bytes = Vec::new();
            for _ in 0..1 + rng.below(4) {
                let len = rng.below(200);
                let body = random_bytes(rng, len);
                bytes.extend(request(
                    &body,
                    &format!("Content-Length: {}\r\n", body.len()),
                ));
                expected.push(body);
            }
            bytes
        }
        // A duplicate length that agrees is one length.
        2 => {
            expected.push(body.clone());
            request(
                &body,
                &format!("Content-Length: {length}\r\ncontent-length: {length}\r\n"),
            )
        }
        // Lengths that disagree, or do not parse.
        3 => request(
            &body,
            &format!(
                "Content-Length: {length}\r\nContent-Length: {}\r\n",
                length + 1
            ),
        ),
        4 => {
            let bad = ["-1", "abc", "1e3", "99999999999999999999999", "", "+5"];
            request(
                &body,
                &format!("Content-Length: {}\r\n", bad[rng.below(bad.len())]),
            )
        }
        // A body over the cap, announced.
        5 => request(
            &body,
            &format!("Content-Length: {}\r\n", MAX_BODY_BYTES + 1),
        ),
        // A head over the cap.
        6 => {
            let filler = "a".repeat(MAX_HEAD_BYTES + rng.below(2 * READ_BYTES));
            request(&body, &format!("X-Filler: {filler}\r\n"))
        }
        // Cut off mid-body.
        7 => {
            let mut bytes = request(&body, &format!("Content-Length: {}\r\n", length + 10));
            bytes.truncate(bytes.len() - rng.below(length + 1));
            bytes
        }
        // Chunked, which is not decoded.
        8 => request(&body, "Transfer-Encoding: chunked\r\n"),
        // Garbage from the first byte.
        _ => {
            let len = rng.below(600);
            random_bytes(rng, len)
        }
    };
    // Pipelined garbage after whatever came first.
    if rng.below(2) == 0 {
        let len = rng.below(400);
        bytes.extend(random_bytes(rng, len));
    }
    (bytes, expected)
}

#[test]
fn read_request_answers_every_byte_stream_without_panicking() {
    let mut rng = Rng(0x5eed_f00d);
    let cap = MAX_HEAD_BYTES + MAX_BODY_BYTES + READ_BYTES;
    let (mut requests, mut refused, mut closed, mut errors) = (0, 0, 0, 0);
    for case in 0..400 {
        let (bytes, expected) = connection(&mut rng);
        let mut reader = SplitReader {
            bytes,
            pos: 0,
            max_split: [1, 7, 64, READ_BYTES][rng.below(4)],
            rng: Rng(rng.next() | 1),
        };
        let stop = AtomicBool::new(rng.below(20) == 0);
        let mut buf = Vec::new();
        let mut served = 0;
        // Each call consumes input, so the reader ends in a bounded number
        // of calls.
        for _ in 0..64 {
            let outcome = read_request(&mut reader, &mut buf, &stop);
            assert!(
                buf.len() <= cap,
                "case {case}: buffer at {} bytes",
                buf.len()
            );
            match outcome {
                Ok(Incoming::Request(request)) => {
                    requests += 1;
                    if let Some(body) = expected.get(served) {
                        assert_eq!(&request.body, body, "case {case}: request {served}");
                    }
                    served += 1;
                }
                Ok(Incoming::Refused { status, .. }) => {
                    refused += 1;
                    assert!(matches!(status, 400 | 501), "case {case}: status {status}");
                    break;
                }
                Ok(Incoming::Closed) => {
                    closed += 1;
                    break;
                }
                Err(_) => {
                    errors += 1;
                    break;
                }
            }
        }
        if !stop.into_inner() {
            assert!(
                served >= expected.len(),
                "case {case}: {served} of {} requests served",
                expected.len()
            );
        }
    }
    // The generator reaches every outcome.
    assert!(
        requests > 0 && refused > 0 && closed > 0 && errors > 0,
        "requests {requests}, refused {refused}, closed {closed}, errors {errors}"
    );
}
