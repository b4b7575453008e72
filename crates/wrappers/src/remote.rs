//! Fault-tolerant remote sources: a paged, fallible endpoint and the
//! retrying wrapper that fronts it.
//!
//! The paper's wrappers front *live, remote, unreliable* sources; every
//! other wrapper kind in this crate is an in-process structure that can
//! only fail by failing the whole query. This module supplies the missing
//! failure modes, deterministically and without a network:
//!
//! * [`SimulatedEndpoint`] — an in-process "server" holding a relation and
//!   serving it **page by page** through a query-string protocol:
//!   [`RemoteWrapper`] translates a [`ScanRequest`]'s projection and
//!   filters (equality, IN-set, range) into query params, and the endpoint
//!   evaluates them with the normative [`Predicate::matches`] semantics,
//!   so pushdown answers are identical to every other wrapper kind's.
//! * [`FaultProfile`] — the endpoint's fallible transport: per-page
//!   latency, a seeded random transient-error rate, deterministic per-page
//!   transient failures, and a hard (permanent) failure after N pages.
//! * [`RetryPolicy`] — max attempts, capped exponential backoff, and a
//!   per-attempt timeout. Only [`crate::FailureKind::Transient`] failures are
//!   retried; a permanent failure aborts the scan immediately.
//! * [`RemoteWrapper`] — a [`Wrapper`] whose
//!   [`Wrapper::scan_batches`] runs the pager on a detached
//!   producer thread feeding a bounded queue, so page latency overlaps
//!   with the mediator's execution and a stalled endpoint surfaces as a
//!   transient timeout error instead of a hang. Retry activity is counted
//!   in [`RetryStats`], surfaced through [`Wrapper::retry_stats`].
//!
//! This file is on the serving path — its pager thread feeds live queries —
//! so it may not panic: the same six clippy lints the server crate denies
//! in its manifest are denied here.

#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

use crate::wrapper::{RetryStats, RowBatches, Wrapper, WrapperError};
use bdi_relational::plan::{Bound, ColumnFilter, Predicate, ScanMark, ScanRequest};
use bdi_relational::{Relation, Schema, Tuple, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Pages a [`RemoteWrapper`]'s producer thread may fetch ahead of its
/// consumer: the bounded queue is the backpressure that keeps a fast
/// endpoint from buffering an unbounded number of pages in the mediator.
const REMOTE_QUEUE_PAGES: usize = 4;

/// Retry behaviour for a fault-tolerant wrapper's page fetches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per page, the first one included (minimum 1).
    pub max_attempts: u32,
    /// Backoff slept after the first failed attempt; doubles per retry.
    pub initial_backoff: Duration,
    /// Cap on the exponential backoff.
    pub max_backoff: Duration,
    /// An attempt running longer than this counts as a transient timeout
    /// (the fetch itself is not cancelled — the result is discarded).
    pub attempt_timeout: Duration,
}

impl Default for RetryPolicy {
    /// Four attempts, 5 ms → 80 ms capped backoff, 1 s per-attempt timeout.
    fn default() -> Self {
        Self {
            max_attempts: 4,
            initial_backoff: Duration::from_millis(5),
            max_backoff: Duration::from_millis(80),
            attempt_timeout: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// The backoff slept after failed attempt number `attempt` (1-based):
    /// `initial_backoff × 2^(attempt-1)`, capped at `max_backoff`.
    pub(crate) fn backoff(&self, attempt: u32) -> Duration {
        let doubled = self
            .initial_backoff
            .saturating_mul(1u32 << attempt.saturating_sub(1).min(16));
        doubled.min(self.max_backoff)
    }

    /// Upper bound on the wall-clock one page can consume under this
    /// policy (every attempt timing out, every backoff at its cap), plus a
    /// small scheduling slack. A consumer waiting longer than this on a
    /// page knows the producer is stalled, not retrying.
    pub fn page_budget(&self) -> Duration {
        (self.attempt_timeout + self.max_backoff)
            .saturating_mul(self.max_attempts.max(1))
            .saturating_add(Duration::from_millis(50))
    }
}

/// Configurable faults a [`SimulatedEndpoint`]'s transport injects.
/// The default profile is perfectly reliable and instantaneous.
#[derive(Debug, Clone, Default)]
pub struct FaultProfile {
    /// Latency added to every fetch (successful or not).
    pub page_latency: Duration,
    /// Probability in `[0, 1]` that any given fetch fails transiently,
    /// drawn from an RNG seeded with [`FaultProfile::seed`] — runs with
    /// the same seed observe the same fault sequence.
    pub transient_error_rate: f64,
    /// After this many pages have been served successfully, every further
    /// fetch fails **permanently** (the source "went away" mid-query).
    pub hard_fail_after: Option<u64>,
    /// Deterministic transient faults: page index → number of leading
    /// fetch attempts of that page that fail transiently (across the
    /// endpoint's lifetime). `u64::MAX` makes the page fail every retry —
    /// the "retry exhausts" case.
    pub transient_failures: BTreeMap<u64, u64>,
    /// Seed for the random transient-error stream.
    pub seed: u64,
}

impl FaultProfile {
    /// The seed to use for chaos runs: the `BDI_FAULT_SEED` environment
    /// variable when set and parseable, `default` otherwise. CI sweeps
    /// this across several seeds so retry paths are exercised on every
    /// run.
    pub fn env_seed(default: u64) -> u64 {
        std::env::var("BDI_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(default)
    }
}

/// One page of a [`SimulatedEndpoint`] response.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct RemotePage {
    /// The page's rows, already projected and filtered server-side.
    pub rows: Vec<Tuple>,
    /// Whether this is the final page of the result.
    pub last: bool,
}

/// A failure reported by the endpoint's transport, classified for the
/// retry loop.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub(crate) enum TransportError {
    /// Momentary — retrying the same fetch may succeed.
    #[error("transient transport error: {0}")]
    Transient(String),
    /// Definitive — the endpoint rejected the query or is gone.
    #[error("permanent transport error: {0}")]
    Permanent(String),
}

/// An in-process paged "server" over a relation, reached only through the
/// query-string protocol of its `fetch` method and failing
/// according to its [`FaultProfile`]. Shared behind an [`Arc`] between the
/// owning [`RemoteWrapper`] and its detached pager threads.
pub struct SimulatedEndpoint {
    data: Relation,
    /// Server-side cap on rows per page (requests asking for more are
    /// clamped, like any real paged API).
    page_rows: usize,
    profile: FaultProfile,
    rng: Mutex<StdRng>,
    /// Pages served successfully so far (drives `hard_fail_after`).
    served: AtomicU64,
    /// Fetch attempts seen per page index (drives `transient_failures`).
    page_attempts: Mutex<BTreeMap<u64, u64>>,
}

impl SimulatedEndpoint {
    /// An endpoint serving `data` in pages of at most `page_rows` rows,
    /// failing per `profile`.
    pub fn new(data: Relation, page_rows: usize, profile: FaultProfile) -> Self {
        let rng = StdRng::seed_from_u64(profile.seed);
        Self {
            data,
            page_rows: page_rows.max(1),
            profile,
            rng: Mutex::new(rng),
            served: AtomicU64::new(0),
            page_attempts: Mutex::new(BTreeMap::new()),
        }
    }

    /// The relation's schema (what a wrapper over this endpoint exposes).
    pub(crate) fn schema(&self) -> &Schema {
        self.data.schema()
    }

    /// Total rows behind the endpoint (the wrapper's unfiltered scan
    /// hint).
    pub(crate) fn row_count(&self) -> u64 {
        self.data.len() as u64
    }

    /// Serves one page for a query string rendered by
    /// [`render_params`]: sleeps the profile's latency, injects its
    /// faults, then evaluates the parsed projection/filters with
    /// [`Predicate::matches`] and slices the requested page out of the
    /// filtered result. Malformed or unknown-column queries fail
    /// permanently.
    pub(crate) fn fetch(&self, params: &str) -> Result<RemotePage, TransportError> {
        if !self.profile.page_latency.is_zero() {
            std::thread::sleep(self.profile.page_latency);
        }
        let query = parse_params(params, self.data.schema())
            .map_err(|e| TransportError::Permanent(format!("bad request: {e}")))?;
        // Deterministic per-page transient faults, counted across the
        // endpoint's lifetime: attempt n of page p fails while
        // n < transient_failures[p].
        {
            let mut attempts = self
                .page_attempts
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            let seen = attempts.entry(query.page).or_insert(0);
            let budget = self
                .profile
                .transient_failures
                .get(&query.page)
                .copied()
                .unwrap_or(0);
            let attempt = *seen;
            *seen = seen.saturating_add(1);
            if attempt < budget {
                return Err(TransportError::Transient(format!(
                    "injected transient fault on page {} (attempt {})",
                    query.page,
                    attempt + 1
                )));
            }
        }
        if let Some(limit) = self.profile.hard_fail_after {
            if self.served.load(Ordering::Relaxed) >= limit {
                return Err(TransportError::Permanent(format!(
                    "source went away after serving {limit} pages"
                )));
            }
        }
        if self.profile.transient_error_rate > 0.0 {
            let roll: f64 = self
                .rng
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .gen();
            if roll < self.profile.transient_error_rate {
                return Err(TransportError::Transient(format!(
                    "random transient fault on page {}",
                    query.page
                )));
            }
        }
        let schema = self.data.schema();
        let mut filter_indices: Vec<(usize, &Predicate)> = Vec::new();
        for f in &query.filters {
            let i = schema.index_of(&f.column).ok_or_else(|| {
                TransportError::Permanent(format!("unknown filter column {:?}", f.column))
            })?;
            filter_indices.push((i, &f.predicate));
        }
        let mut filtered: Vec<Tuple> = Vec::new();
        for row in self.data.rows() {
            if !filter_indices
                .iter()
                .all(|(i, p)| row.get(*i).is_some_and(|v| p.matches(v)))
            {
                continue;
            }
            let projected: Option<Tuple> =
                query.columns.iter().map(|&i| row.get(i).cloned()).collect();
            match projected {
                Some(tuple) => filtered.push(tuple),
                None => {
                    return Err(TransportError::Permanent(
                        "row shorter than its schema".to_owned(),
                    ))
                }
            }
        }
        let rows_per_page = query.rows.min(self.page_rows).max(1);
        let start = (query.page as usize).saturating_mul(rows_per_page);
        let end = start.saturating_add(rows_per_page).min(filtered.len());
        let rows = filtered
            .get(start..end)
            .map(<[Tuple]>::to_vec)
            .unwrap_or_default();
        let last = end >= filtered.len();
        self.served.fetch_add(1, Ordering::Relaxed);
        Ok(RemotePage { rows, last })
    }
}

/// A parsed endpoint query: projected column indices (endpoint-schema
/// positions), filters, page index and requested page size.
struct EndpointQuery {
    columns: Vec<usize>,
    filters: Vec<ColumnFilter>,
    page: u64,
    rows: usize,
}

/// Characters with structural meaning in the query-string protocol; they
/// are percent-escaped wherever user data (column names, string literals)
/// is embedded.
const RESERVED: &[char] = &['%', '&', '=', ',', '|', ';'];

fn escape(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if RESERVED.contains(&c) {
            let mut buf = [0u8; 4];
            for byte in c.encode_utf8(&mut buf).as_bytes() {
                out.push_str(&format!("%{byte:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out
}

fn unescape(text: &str) -> Result<String, String> {
    let mut out = Vec::with_capacity(text.len());
    let bytes = text.as_bytes();
    let mut i = 0;
    while let Some(&byte) = bytes.get(i) {
        if byte == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in {text:?}"))?;
            let hex = std::str::from_utf8(hex).map_err(|_| "non-ascii escape".to_string())?;
            out.push(
                u8::from_str_radix(hex, 16)
                    .map_err(|_| format!("bad escape %{hex} in {text:?}"))?,
            );
            i += 3;
        } else {
            out.push(byte);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("invalid UTF-8 after unescaping {text:?}"))
}

/// Typed literal → wire form: `n`, `b:true`, `i:42`, `f:2.5`, `s:text`.
fn render_value(value: &Value) -> String {
    match value {
        Value::Null => "n".to_owned(),
        Value::Bool(b) => format!("b:{b}"),
        Value::Int(i) => format!("i:{i}"),
        // `{:?}` is the shortest round-trip form (parses back bit-exact).
        Value::Float(f) => format!("f:{f:?}"),
        Value::Str(s) => format!("s:{}", escape(s)),
    }
}

fn parse_value(text: &str) -> Result<Value, String> {
    if text == "n" {
        return Ok(Value::Null);
    }
    let (kind, body) = text
        .split_once(':')
        .ok_or_else(|| format!("untyped literal {text:?}"))?;
    match kind {
        "b" => body
            .parse()
            .map(Value::Bool)
            .map_err(|_| format!("bad bool {body:?}")),
        "i" => body
            .parse()
            .map(Value::Int)
            .map_err(|_| format!("bad int {body:?}")),
        "f" => body
            .parse()
            .map(Value::Float)
            .map_err(|_| format!("bad float {body:?}")),
        "s" => unescape(body).map(Value::Str),
        other => Err(format!("unknown literal kind {other:?}")),
    }
}

/// One range bound → wire form: empty (absent), `i<lit>` (inclusive) or
/// `x<lit>` (exclusive).
fn render_bound(bound: &Option<Bound>) -> String {
    match bound {
        None => String::new(),
        Some(b) => format!(
            "{}{}",
            if b.inclusive { 'i' } else { 'x' },
            render_value(&b.value)
        ),
    }
}

fn parse_bound(text: &str) -> Result<Option<Bound>, String> {
    if text.is_empty() {
        return Ok(None);
    }
    let (flag, rest) = text
        .split_at_checked(1)
        .ok_or_else(|| format!("bad bound flag in {text:?}"))?;
    let inclusive = match flag {
        "i" => true,
        "x" => false,
        other => return Err(format!("bad bound flag {other:?}")),
    };
    Ok(Some(Bound {
        value: parse_value(rest)?,
        inclusive,
    }))
}

/// Renders a [`ScanRequest`] page fetch as the endpoint's query string:
/// `cols=<c1>,<c2>&page=<n>&rows=<m>` plus one `eq:<col>=<lit>`,
/// `in:<col>=<lit>|<lit>…` or `rg:<col>=<bound>;<bound>` param per filter.
/// Exposed (with [`SimulatedEndpoint::fetch`]) so tests can speak the
/// protocol directly.
pub(crate) fn render_params(request: &ScanRequest, page: u64, rows: usize) -> String {
    let mut params = vec![
        format!(
            "cols={}",
            request
                .columns()
                .iter()
                .map(|c| escape(c))
                .collect::<Vec<_>>()
                .join(",")
        ),
        format!("page={page}"),
        format!("rows={rows}"),
    ];
    for filter in request.filters() {
        let column = escape(&filter.column);
        params.push(match &filter.predicate {
            Predicate::Eq(v) => format!("eq:{column}={}", render_value(v)),
            Predicate::In(vs) => format!(
                "in:{column}={}",
                vs.iter().map(render_value).collect::<Vec<_>>().join("|")
            ),
            Predicate::Range { min, max } => {
                format!("rg:{column}={};{}", render_bound(min), render_bound(max))
            }
            // Never claimed by the remote wrapper ([`Wrapper::claims_filter`]),
            // so a Bloom reaching the wire is a planner bug: render a param
            // kind the endpoint rejects, surfacing it as a loud query error
            // instead of silently dropping the filter.
            Predicate::Bloom(_) => format!("bloom:{column}=unsupported"),
        });
    }
    params.join("&")
}

fn parse_params(params: &str, schema: &Schema) -> Result<EndpointQuery, String> {
    let mut columns = None;
    let mut page = 0u64;
    let mut rows = usize::MAX;
    let mut filters = Vec::new();
    for param in params.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = param
            .split_once('=')
            .ok_or_else(|| format!("param without '=': {param:?}"))?;
        match key {
            "cols" => {
                let mut indices = Vec::new();
                if !value.is_empty() {
                    for column in value.split(',') {
                        let column = unescape(column)?;
                        indices.push(
                            schema
                                .index_of(&column)
                                .ok_or_else(|| format!("unknown column {column:?}"))?,
                        );
                    }
                }
                columns = Some(indices);
            }
            "page" => page = value.parse().map_err(|_| format!("bad page {value:?}"))?,
            "rows" => rows = value.parse().map_err(|_| format!("bad rows {value:?}"))?,
            _ => {
                let (kind, column) = key
                    .split_once(':')
                    .ok_or_else(|| format!("unknown param {key:?}"))?;
                let column = unescape(column)?;
                if schema.index_of(&column).is_none() {
                    return Err(format!("unknown filter column {column:?}"));
                }
                let predicate = match kind {
                    "eq" => Predicate::Eq(parse_value(value)?),
                    "in" => Predicate::in_set(
                        value
                            .split('|')
                            .filter(|v| !v.is_empty())
                            .map(parse_value)
                            .collect::<Result<Vec<_>, _>>()?,
                    ),
                    "rg" => {
                        let (min, max) = value
                            .split_once(';')
                            .ok_or_else(|| format!("bad range {value:?}"))?;
                        Predicate::Range {
                            min: parse_bound(min)?,
                            max: parse_bound(max)?,
                        }
                    }
                    other => return Err(format!("unknown filter kind {other:?}")),
                };
                filters.push(ColumnFilter::new(column, predicate));
            }
        }
    }
    Ok(EndpointQuery {
        columns: columns.ok_or_else(|| "missing cols param".to_owned())?,
        filters,
        page,
        rows,
    })
}

/// Lock-free retry counters shared between a [`RemoteWrapper`] and its
/// detached pager threads.
#[derive(Default)]
struct SharedRetryStats {
    attempts: AtomicU64,
    retries: AtomicU64,
    pages: AtomicU64,
    transient_errors: AtomicU64,
    permanent_failures: AtomicU64,
    timeouts: AtomicU64,
}

impl SharedRetryStats {
    fn snapshot(&self) -> RetryStats {
        RetryStats {
            attempts: self.attempts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            pages: self.pages.load(Ordering::Relaxed),
            transient_errors: self.transient_errors.load(Ordering::Relaxed),
            permanent_failures: self.permanent_failures.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
        }
    }
}

/// Fetches one page with retries under `retry`: transient failures (and
/// attempts that outran the per-attempt timeout) back off exponentially
/// and retry up to `max_attempts`; permanent failures abort immediately.
fn fetch_page_with_retry(
    name: &str,
    endpoint: &SimulatedEndpoint,
    retry: &RetryPolicy,
    stats: &SharedRetryStats,
    params: &str,
) -> Result<RemotePage, WrapperError> {
    let max_attempts = retry.max_attempts.max(1);
    let mut attempt = 0u32;
    loop {
        attempt += 1;
        stats.attempts.fetch_add(1, Ordering::Relaxed);
        let started = Instant::now();
        let result = endpoint.fetch(params);
        let timed_out = started.elapsed() > retry.attempt_timeout;
        let cause = match result {
            Ok(page) if !timed_out => {
                stats.pages.fetch_add(1, Ordering::Relaxed);
                return Ok(page);
            }
            Ok(_) => {
                // The server answered after the client gave up: the page is
                // discarded and the attempt counts as a transient timeout.
                stats.timeouts.fetch_add(1, Ordering::Relaxed);
                "attempt exceeded its timeout".to_owned()
            }
            Err(TransportError::Transient(cause)) => {
                stats.transient_errors.fetch_add(1, Ordering::Relaxed);
                cause
            }
            Err(TransportError::Permanent(cause)) => {
                stats.permanent_failures.fetch_add(1, Ordering::Relaxed);
                return Err(WrapperError::permanent(name, cause));
            }
        };
        if attempt >= max_attempts {
            return Err(WrapperError::transient(
                name,
                format!("retries exhausted after {attempt} attempts: {cause}"),
            ));
        }
        stats.retries.fetch_add(1, Ordering::Relaxed);
        std::thread::sleep(retry.backoff(attempt));
    }
}

/// A [`Wrapper`] over a [`SimulatedEndpoint`], translating scan requests
/// into paged query-string fetches with retries (see the module docs).
pub struct RemoteWrapper {
    name: String,
    source: String,
    endpoint: Arc<SimulatedEndpoint>,
    retry: RetryPolicy,
    stats: Arc<SharedRetryStats>,
    claims_fp: u64,
}

impl RemoteWrapper {
    /// A wrapper named `name` over `source`, fetching pages from
    /// `endpoint` under `retry`.
    pub fn new(
        name: impl Into<String>,
        source: impl Into<String>,
        endpoint: Arc<SimulatedEndpoint>,
        retry: RetryPolicy,
    ) -> Self {
        let claims_fp = crate::wrapper::probe_claims_fingerprint(endpoint.schema(), |f| {
            !matches!(f.predicate, Predicate::Bloom(_))
        });
        Self {
            name: name.into(),
            source: source.into(),
            endpoint,
            retry,
            stats: Arc::new(SharedRetryStats::default()),
            claims_fp,
        }
    }
}

/// The detached pager: fetches pages in order with retries and sends each
/// page's rows through the bounded queue. Exits on the first failure
/// (after reporting it) or when the consumer hangs up.
struct Pager {
    name: String,
    endpoint: Arc<SimulatedEndpoint>,
    retry: RetryPolicy,
    stats: Arc<SharedRetryStats>,
    request: ScanRequest,
    page_rows: usize,
}

impl Pager {
    fn run(self, tx: SyncSender<Result<Vec<Tuple>, WrapperError>>) {
        let mut page = 0u64;
        // Cancellable two ways: every page fetch is bounded by the retry
        // policy's attempt budget, and a consumer that hung up fails the send.
        loop {
            let params = render_params(&self.request, page, self.page_rows);
            match fetch_page_with_retry(
                &self.name,
                &self.endpoint,
                &self.retry,
                &self.stats,
                &params,
            ) {
                Ok(fetched) => {
                    let last = fetched.last;
                    if !fetched.rows.is_empty() && tx.send(Ok(fetched.rows)).is_err() {
                        return; // consumer hung up: stop fetching
                    }
                    if last {
                        return;
                    }
                    page += 1;
                }
                Err(e) => {
                    let _ = tx.send(Err(e));
                    return;
                }
            }
        }
    }
}

/// The consuming end of a pager's queue: blocks at most the retry
/// policy's page budget per page, so a stalled producer surfaces as a
/// transient timeout error instead of hanging the scan.
struct PagedRows {
    rx: std::sync::mpsc::Receiver<Result<Vec<Tuple>, WrapperError>>,
    budget: Duration,
    name: String,
    done: bool,
}

impl Iterator for PagedRows {
    type Item = Result<Vec<Tuple>, WrapperError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        match self.rx.recv_timeout(self.budget) {
            Ok(Ok(rows)) => Some(Ok(rows)),
            Ok(Err(e)) => {
                self.done = true;
                Some(Err(e))
            }
            Err(RecvTimeoutError::Timeout) => {
                self.done = true;
                Some(Err(WrapperError::transient(
                    self.name.clone(),
                    "page fetch timed out: no page arrived within the retry budget",
                )))
            }
            Err(RecvTimeoutError::Disconnected) => {
                self.done = true;
                None
            }
        }
    }
}

impl Wrapper for RemoteWrapper {
    fn name(&self) -> &str {
        &self.name
    }

    fn source(&self) -> &str {
        &self.source
    }

    fn schema(&self) -> &Schema {
        self.endpoint.schema()
    }

    /// Collects the pager's stream for the full schema, asking for the
    /// endpoint's own page size — the page sequence (and so the fault
    /// schedule a seeded endpoint replays) a synchronous fetch would see.
    fn scan(&self) -> Result<Relation, WrapperError> {
        let schema = self.endpoint.schema();
        let (pages, _) = self.scan_batches(&ScanRequest::full(schema), self.endpoint.page_rows)?;
        let mut rows = Vec::new();
        for page in pages {
            rows.extend(page?);
        }
        Ok(Relation::new(schema.clone(), rows)?)
    }

    /// Streams pages through a detached producer thread and a bounded
    /// queue: the endpoint evaluates the projection and every filter
    /// server-side, page latency overlaps with the mediator's execution,
    /// the queue's backpressure keeps at most `REMOTE_QUEUE_PAGES` pages
    /// resident, and a consumer that stops pulling (or drops the iterator)
    /// disconnects the producer after its current page. Pages are requested at `batch_rows` rows, so
    /// yielded batches respect the consumer's bound (the endpoint may serve
    /// less per page, never more). Unmarked: the wrapper cannot vouch for
    /// what a remote source did between two scans.
    fn scan_batches<'a>(
        &'a self,
        request: &ScanRequest,
        batch_rows: usize,
    ) -> Result<(RowBatches<'a>, Option<ScanMark>), WrapperError> {
        let (tx, rx) = std::sync::mpsc::sync_channel(REMOTE_QUEUE_PAGES);
        let pager = Pager {
            name: self.name.clone(),
            endpoint: Arc::clone(&self.endpoint),
            retry: self.retry,
            stats: Arc::clone(&self.stats),
            request: request.clone(),
            page_rows: batch_rows.max(1),
        };
        std::thread::spawn(move || pager.run(tx));
        let pages = PagedRows {
            rx,
            budget: self.retry.page_budget(),
            name: self.name.clone(),
            done: false,
        };
        Ok((Box::new(pages), None))
    }

    /// Exact row count for unfiltered requests; filtered requests are
    /// estimated by the unfiltered count (an upper bound, as allowed).
    fn scan_hint(&self, _request: &ScanRequest) -> Option<u64> {
        Some(self.endpoint.row_count())
    }

    /// The endpoint translates every *value-listing* predicate kind into
    /// query params, so those are all claimed (the fingerprint is
    /// precomputed). Bloom filters are declined: a bit-set has no query-
    /// string rendering, and shipping megabit filters over a paged wire
    /// protocol would defeat their purpose — the mediator keeps them as
    /// residues instead.
    fn claims_filter(&self, filter: &ColumnFilter) -> bool {
        !matches!(filter.predicate, Predicate::Bloom(_))
    }

    fn claims_fingerprint(&self) -> u64 {
        self.claims_fp
    }

    fn retry_stats(&self) -> Option<RetryStats> {
        Some(self.stats.snapshot())
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub mod tests {
    use super::*;
    use crate::wrapper::{FailureKind, WrapperRegistry};
    use bdi_relational::plan::PlanSource;
    use bdi_relational::RelationError;

    pub(crate) fn sample_relation() -> Relation {
        let schema = Schema::from_parts(&["id"], &["x"]).unwrap();
        Relation::new(
            schema,
            (0..10)
                .map(|i| vec![Value::Int(i), Value::Str(format!("v{i}"))])
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn params_round_trip_every_predicate_kind() {
        let schema = Schema::from_parts(&["id"], &["x"]).unwrap();
        let request = ScanRequest::full(&schema)
            .with_predicate("id", Predicate::in_set([Value::Int(1), Value::Null]))
            .with_predicate("x", Predicate::eq(Value::Str("a&b=c|d;e,f%g".into())))
            .with_predicate("id", Predicate::between(0, 5));
        let params = render_params(&request, 3, 64);
        let query = parse_params(&params, &schema).unwrap();
        assert_eq!(query.page, 3);
        assert_eq!(query.rows, 64);
        assert_eq!(query.columns, vec![0, 1]);
        assert_eq!(query.filters.len(), 3);
        assert_eq!(query.filters, request.filters().to_vec());
    }

    #[test]
    fn transient_faults_are_retried_to_success() {
        let mut profile = FaultProfile::default();
        profile.transient_failures.insert(1, 2); // page 1 fails twice
        let endpoint = Arc::new(SimulatedEndpoint::new(sample_relation(), 4, profile));
        let retry = RetryPolicy {
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            ..RetryPolicy::default()
        };
        let wrapper = RemoteWrapper::new("rw", "D", endpoint, retry);
        let scanned = wrapper.scan().unwrap();
        assert_eq!(scanned, sample_relation());
        let stats = wrapper.retry_stats().unwrap();
        assert_eq!(stats.transient_errors, 2);
        assert_eq!(stats.retries, 2);
        assert!(stats.pages >= 3);
    }

    #[test]
    fn exhausted_retries_fail_transient_and_hard_failures_permanent() {
        let mut profile = FaultProfile::default();
        profile.transient_failures.insert(0, u64::MAX);
        let endpoint = Arc::new(SimulatedEndpoint::new(sample_relation(), 4, profile));
        let retry = RetryPolicy {
            max_attempts: 3,
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
            ..RetryPolicy::default()
        };
        let wrapper = RemoteWrapper::new("rw", "D", endpoint, retry);
        let err = wrapper.scan().unwrap_err();
        assert!(matches!(
            err,
            WrapperError::SourceQuery {
                kind: FailureKind::Transient,
                ..
            }
        ));
        assert_eq!(wrapper.retry_stats().unwrap().attempts, 3);

        let profile = FaultProfile {
            hard_fail_after: Some(1),
            ..FaultProfile::default()
        };
        let endpoint = Arc::new(SimulatedEndpoint::new(sample_relation(), 4, profile));
        let wrapper = RemoteWrapper::new("rw", "D", endpoint, retry);
        let err = wrapper.scan().unwrap_err();
        assert!(matches!(
            err,
            WrapperError::SourceQuery {
                kind: FailureKind::Permanent,
                ..
            }
        ));
        assert_eq!(wrapper.retry_stats().unwrap().permanent_failures, 1);
    }

    /// Both engines name a source failure the same way: the eager
    /// reference's `resolve` and the streaming `scan_batches` lower a
    /// wrapper's error through one mapping.
    #[test]
    fn registry_preserves_the_failure_classification_for_both_engines() {
        use bdi_relational::SourceResolver;

        let profile = FaultProfile {
            hard_fail_after: Some(0),
            ..FaultProfile::default()
        };
        let endpoint = Arc::new(SimulatedEndpoint::new(sample_relation(), 4, profile));
        let mut registry = WrapperRegistry::new();
        registry.register(Arc::new(RemoteWrapper::new(
            "rw",
            "D",
            endpoint,
            RetryPolicy::default(),
        )));
        let request = ScanRequest::full(&Schema::from_parts(&["id"], &["x"]).unwrap());
        let (mut batches, _) = registry.scan_batches("rw", &request, 4).unwrap();
        let streamed = batches
            .find_map(|r| r.err())
            .expect("hard-failed scan must error");
        let eager = registry
            .resolve("rw")
            .expect_err("hard-failed scan must error");
        assert_eq!(eager, streamed);
        match streamed {
            RelationError::SourceFailure {
                source, transient, ..
            } => {
                assert_eq!(source, "rw");
                assert!(!transient);
            }
            other => panic!("expected SourceFailure, got {other:?}"),
        }
        // An unknown wrapper is a source error too, not a schema one.
        let unknown = registry.resolve("zz").expect_err("no such wrapper");
        assert!(matches!(unknown, RelationError::Source(_)), "{unknown:?}");
        assert_eq!(
            registry.scan_batches("zz", &request, 4).err(),
            Some(unknown)
        );
    }

    #[test]
    fn stalled_endpoint_times_out_within_the_page_budget() {
        let profile = FaultProfile {
            page_latency: Duration::from_secs(5),
            ..FaultProfile::default()
        };
        let endpoint = Arc::new(SimulatedEndpoint::new(sample_relation(), 4, profile));
        let retry = RetryPolicy {
            max_attempts: 1,
            attempt_timeout: Duration::from_millis(40),
            initial_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(1),
        };
        let wrapper = RemoteWrapper::new("rw", "D", endpoint, retry);
        let request = ScanRequest::full(wrapper.schema());
        let started = Instant::now();
        let (mut batches, _) = wrapper.scan_batches(&request, 4).unwrap();
        let first = batches.next().expect("a timeout error, not end-of-stream");
        assert!(matches!(
            first,
            Err(WrapperError::SourceQuery {
                kind: FailureKind::Transient,
                ..
            })
        ));
        assert!(
            started.elapsed() <= retry.page_budget() + Duration::from_millis(500),
            "timed out too slowly: {:?}",
            started.elapsed()
        );
    }

    #[test]
    fn seeded_random_faults_are_deterministic() {
        let relation = sample_relation();
        let run = |seed: u64| {
            let profile = FaultProfile {
                transient_error_rate: 0.5,
                seed,
                ..FaultProfile::default()
            };
            let endpoint = Arc::new(SimulatedEndpoint::new(relation.clone(), 2, profile));
            let retry = RetryPolicy {
                max_attempts: 20,
                initial_backoff: Duration::from_micros(100),
                max_backoff: Duration::from_micros(200),
                ..RetryPolicy::default()
            };
            let wrapper = RemoteWrapper::new("rw", "D", endpoint, retry);
            let scanned = wrapper.scan().unwrap();
            assert_eq!(scanned, relation, "faults must never change answers");
            wrapper.retry_stats().unwrap().transient_errors
        };
        assert_eq!(run(7), run(7), "same seed, same fault sequence");
    }
}
