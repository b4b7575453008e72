//! Loopback integration tests: a real server on 127.0.0.1, driven through
//! the crate's own blocking client — query and stats round-trips, the
//! deadline and row-limit knobs, and the error statuses.

// The crate's manifest denies these for the serving path; a test fails by
// panicking.
#![allow(clippy::expect_used, clippy::indexing_slicing)]

use bdi_core::supersede;
use bdi_server::http::client;
use serde_json::json;
use std::sync::Arc;

fn started() -> (bdi_server::ServerHandle, String) {
    let system = Arc::new(supersede::build_running_example());
    let handle = bdi_server::start(system, "127.0.0.1:0").expect("bind loopback");
    let addr = handle.addr().to_string();
    (handle, addr)
}

#[test]
fn sparql_query_round_trip() {
    let (_server, addr) = started();
    let body = json!({"sparql": (supersede::exemplary_query())});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 200, "body: {reply}");
    let columns = reply["columns"].as_array().expect("columns");
    assert!(!columns.is_empty());
    let rows = reply["rows"].as_array().expect("rows");
    assert!(!rows.is_empty());
    assert_eq!(reply["truncated"], json!(false));
    assert_eq!(
        reply["row_count"].as_u64().expect("row_count") as usize,
        rows.len()
    );
    assert!(!reply["walks"].as_array().expect("walks").is_empty());
}

#[test]
fn omq_json_body_answers_like_sparql() {
    let (_server, addr) = started();
    let (_, sparql_reply) =
        client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
            .expect("sparql query");
    // The same exemplary query, spelled as an OMQ document.
    let omq = supersede::exemplary_omq();
    let pi: Vec<String> = omq.pi.iter().map(|iri| iri.as_str().to_owned()).collect();
    let phi: Vec<Vec<String>> = omq
        .phi
        .iter()
        .map(|t| {
            vec![
                t.subject.as_iri().expect("iri subject").as_str().to_owned(),
                t.predicate.as_str().to_owned(),
                t.object.as_iri().expect("iri object").as_str().to_owned(),
            ]
        })
        .collect();
    let (status, omq_reply) =
        client::post_query(&addr, &json!({"omq": {"pi": (pi), "phi": (phi)}})).expect("omq query");
    assert_eq!(status, 200, "body: {omq_reply}");
    assert_eq!(omq_reply["rows"], sparql_reply["rows"]);
}

#[test]
fn stats_scrape_reports_all_surfaces() {
    let (_server, addr) = started();
    client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
        .expect("warm-up query");
    let (status, stats) = client::get_stats(&addr).expect("stats");
    assert_eq!(status, 200);
    assert!(stats["plan_cache"]["misses"].as_u64().expect("misses") >= 1);
    assert!(
        stats["plan_cache"]["rewrite_hits"].as_u64().is_some(),
        "{stats}"
    );
    for surface in ["plan_cache", "contexts", "planner", "retries"] {
        assert!(stats[surface].is_object(), "missing {surface}: {stats}");
    }
}

/// The keep-alive pin: a response leaves in one write on a `TCP_NODELAY`
/// socket. Written as head then body it met Nagle's algorithm and the
/// client's delayed ACK, and every response after a connection's first
/// took ~44 ms however fast the server answered.
#[test]
fn keep_alive_responses_are_not_stalled() {
    use std::io::{Read, Write};
    use std::time::{Duration, Instant};

    let (_server, addr) = started();
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut round_trips = Vec::new();
    for _ in 0..25 {
        let started = Instant::now();
        stream
            .write_all(b"GET /stats HTTP/1.1\r\nHost: pin\r\n\r\n")
            .expect("request");
        let mut raw = Vec::new();
        let mut chunk = [0u8; 4096];
        let (head_end, length) = loop {
            let n = stream.read(&mut chunk).expect("response");
            assert!(n > 0, "server closed a keep-alive connection");
            raw.extend_from_slice(&chunk[..n]);
            if let Some(at) = raw.windows(4).position(|w| w == b"\r\n\r\n") {
                let head = String::from_utf8_lossy(&raw[..at]).to_ascii_lowercase();
                assert!(head.starts_with("http/1.1 200"), "head: {head}");
                let length: usize = head
                    .lines()
                    .find_map(|line| line.strip_prefix("content-length:"))
                    .expect("Content-Length")
                    .trim()
                    .parse()
                    .expect("numeric Content-Length");
                break (at, length);
            }
        };
        while raw.len() < head_end + 4 + length {
            let n = stream.read(&mut chunk).expect("body");
            assert!(n > 0, "server closed mid-body");
            raw.extend_from_slice(&chunk[..n]);
        }
        round_trips.push(started.elapsed());
    }
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "keep-alive median round trip {median:?} (all: {round_trips:?})"
    );
}

/// Writes `raw` to a fresh connection in one write and reads until the
/// server closes it. A server that stops answering leaves the read to time
/// out, which fails the calling test instead of hanging it.
fn exchange(addr: &str, raw: &[u8]) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("read timeout");
    stream.write_all(raw).expect("request");
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .expect("the server answers and closes");
    String::from_utf8_lossy(&reply).into_owned()
}

/// Statuses of the responses in a raw reply, in order.
fn statuses(reply: &str) -> Vec<&str> {
    reply
        .match_indices("HTTP/1.1 ")
        .map(|(at, prefix)| &reply[at + prefix.len()..at + prefix.len() + 3])
        .collect()
}

/// Requests pipelined in one write are each answered, in order: the bytes
/// read past the first request are the start of the second.
#[test]
fn pipelined_requests_on_one_connection_are_all_answered() {
    let (_server, addr) = started();
    let reply = exchange(
        &addr,
        b"GET /stats HTTP/1.1\r\nHost: pipe\r\n\r\n\
          GET /stats HTTP/1.1\r\nHost: pipe\r\nConnection: close\r\n\r\n",
    );
    assert_eq!(statuses(&reply), ["200", "200"], "reply: {reply}");

    // A body is cut at its Content-Length; what follows is the next request.
    let query = json!({"sparql": (supersede::exemplary_query())}).to_string();
    let raw = format!(
        "POST /query HTTP/1.1\r\nHost: pipe\r\nContent-Length: {}\r\n\r\n{query}\
         GET /stats HTTP/1.1\r\nHost: pipe\r\nConnection: close\r\n\r\n",
        query.len()
    );
    let reply = exchange(&addr, raw.as_bytes());
    assert_eq!(statuses(&reply), ["200", "200"], "reply: {reply}");
}

/// Two `Content-Length`s that disagree leave the next request's start
/// ambiguous: the request is refused and the connection closed, so nothing
/// behind it is served. Agreeing duplicates are one length.
#[test]
fn conflicting_content_lengths_are_refused_and_closed() {
    let (_server, addr) = started();
    let reply = exchange(
        &addr,
        b"POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 40\r\n\r\n{}\
          GET /stats HTTP/1.1\r\n\r\n",
    );
    assert_eq!(statuses(&reply), ["400"], "reply: {reply}");
    assert!(reply.contains("Connection: close"), "reply: {reply}");

    let reply = exchange(
        &addr,
        b"POST /query HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\nConnection: close\r\n\r\n{}",
    );
    // Parsed as one body, `{}`: a well-delimited request without a query.
    assert_eq!(statuses(&reply), ["400"], "reply: {reply}");
    assert!(reply.contains("needs a"), "reply: {reply}");
}

/// No transfer coding is decoded, so a chunked body is refused rather than
/// read as empty with its chunks served as the next request.
#[test]
fn transfer_encoding_is_refused_and_closed() {
    let (_server, addr) = started();
    let reply = exchange(
        &addr,
        b"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n\
          2\r\n{}\r\n0\r\n\r\n",
    );
    assert_eq!(statuses(&reply), ["501"], "reply: {reply}");
    assert!(reply.contains("Connection: close"), "reply: {reply}");
}

#[test]
fn expired_deadline_maps_to_504() {
    let (_server, addr) = started();
    // A 0 ms budget is already expired when the first operator checks it.
    let body = json!({"sparql": (supersede::exemplary_query()), "deadline_ms": 0});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 504, "body: {reply}");
    assert!(reply["error"].as_str().is_some());
}

#[test]
fn row_limit_truncates_and_flags() {
    let (_server, addr) = started();
    let unlimited = client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
        .expect("query")
        .1;
    let total = unlimited["rows"].as_array().expect("rows").len();
    assert!(total > 1, "running example should answer > 1 row");
    let body = json!({"sparql": (supersede::exemplary_query()), "max_rows": 1});
    let (status, reply) = client::post_query(&addr, &body).expect("query");
    assert_eq!(status, 200);
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
    assert_eq!(reply["truncated"], json!(true));
    // The kept row is the unlimited answer's first (contractual row order).
    assert_eq!(reply["rows"][0], unlimited["rows"][0]);
}

#[test]
fn malformed_bodies_are_400() {
    let (_server, addr) = started();
    for body in [
        "{",                                                              // not JSON
        "[1,2]",                                                          // not an object
        "{}",                                                             // no query
        r#"{"sparql": 7}"#,                                               // wrong type
        r#"{"sparql": "SELECT", "omq": {}}"#,                             // both query kinds
        r#"{"sparql": "not sparql at all"}"#,                             // unparsable query
        r#"{"sparql": "SELECT ?x WHERE { ?x ?y ?z . }", "surprise": 1}"#, // unknown field
    ] {
        let (status, _) =
            bdi_server::http::client::request(&addr, "POST", "/query", Some(body)).expect("post");
        assert_eq!(status, 400, "body: {body}");
    }
}

#[test]
fn unknown_routes_and_methods() {
    let (_server, addr) = started();
    let (status, _) = client::request(&addr, "GET", "/nope", None).expect("request");
    assert_eq!(status, 404);
    let (status, _) = client::request(&addr, "GET", "/query", None).expect("request");
    assert_eq!(status, 405);
    let (status, _) = client::request(&addr, "POST", "/stats", Some("{}")).expect("request");
    assert_eq!(status, 405);
}

#[test]
fn graceful_shutdown_stops_accepting() {
    let (server, addr) = started();
    client::get_stats(&addr).expect("stats while up");
    server.shutdown();
    // The listener is gone: either the connect fails or the request errors.
    assert!(client::get_stats(&addr).is_err());
}

#[test]
fn server_config_applies_defaults() {
    let system = Arc::new(supersede::build_running_example());
    let config = bdi_server::ServerConfig {
        default_deadline: None,
        max_rows_ceiling: Some(1),
    };
    let handle = bdi_server::start_with(system, "127.0.0.1:0", config).expect("bind");
    let addr = handle.addr().to_string();
    // No max_rows in the request: the server-side ceiling applies.
    let (status, reply) =
        client::post_query(&addr, &json!({"sparql": (supersede::exemplary_query())}))
            .expect("query");
    assert_eq!(status, 200);
    assert_eq!(reply["truncated"], json!(true));
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
    // A request asking for more than the ceiling is clamped down to it.
    let (_, reply) = client::post_query(
        &addr,
        &json!({"sparql": (supersede::exemplary_query()), "max_rows": 100}),
    )
    .expect("query");
    assert_eq!(reply["rows"].as_array().expect("rows").len(), 1);
}
