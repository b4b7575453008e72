//! One workload's untraced run: set-up, warm-up, the measured read window,
//! the write traffic, recovery, and every check on the way.

use crate::http::{self, Conn};
use crate::stats::{median, peak_rss_mb, percentile};
use crate::workloads::{self, Check, Query, Spec, WriteOp, GROWTH_QUERY};
use bdi_core::durable::{DurableError, DurableSystem, SNAPSHOT_FILE, WAL_FILE};
use bdi_core::system::AnswerRequest;
use bdi_server::{ServerConfig, ServerHandle};
use serde_json::Value;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-ups and recoveries are repeated at least this often and until they
/// have taken [`REPEAT_FOR`] in all (at most [`MAX_REPEATS`] times): a small
/// deployment sets up in 20 ms, and a few of those in a row have no steady
/// median on a host whose hiccups last longer than that.
const MIN_REPEATS: usize = 5;
const MAX_REPEATS: usize = 50;
const REPEAT_FOR: Duration = Duration::from_millis(1500);
/// Length and rate of the open-loop write traffic after the read window.
const IDLE_WRITE_SECONDS: f64 = 2.0;
const IDLE_WRITES_PER_S: f64 = 100.0;
/// `POST /checkpoint` calls, evenly spaced over the write traffic.
const CHECKPOINTS: u32 = 9;
/// Where writes are interleaved with the reads, one `POST /checkpoint` per
/// this many writes (about a dozen in a 22 s window).
const WRITES_PER_CHECKPOINT: u64 = 64;

/// Returns at `due`, not a scheduler's wake-up latency after it: sleeps to
/// just short of it and spins the rest, so that what an open-loop operation
/// is charged from its due time is the system's delay, not the generator's.
fn wait_until(due: Instant) {
    let spin = Duration::from_micros(200);
    std::thread::sleep(due.saturating_duration_since(Instant::now() + spin));
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Whether something that has been done `done` times since `started` is to
/// be done once more.
fn once_more(done: usize, started: Instant) -> bool {
    done < MIN_REPEATS || (done < MAX_REPEATS && started.elapsed() < REPEAT_FOR)
}

/// The options one run is made under.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    pub seed: u64,
    /// The measured window.
    pub seconds: f64,
    /// `--quick`: everything around the window shrinks with it.
    pub quick: bool,
    /// Closed-loop callers, all told.
    pub callers: usize,
}

/// A directory under the benchmark's own build output, removed on drop —
/// also when the run fails. The benchmark writes nowhere else.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let exe = std::env::current_exe()?;
        let base = exe.parent().unwrap_or(Path::new("."));
        let dir = base.join(format!("bdi-bench-{}-{workload}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)?;
        Ok(TempDir(dir))
    }

    pub fn join(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A deployed, served workload.
pub struct Live {
    pub durable: Arc<DurableSystem>,
    pub addr: SocketAddr,
    /// How long each durable release took (of every set-up, once a session
    /// is open).
    pub release_ms: Vec<f64>,
    _server: ServerHandle,
}

/// Builds the deployment under `dir`, serves it on a port of the kernel's
/// choosing, and returns once it answers `GET /stats`.
pub fn setup(spec: &Spec, seed: u64, dir: &Path) -> Result<Live, String> {
    let staged = workloads::stage(spec, seed);
    let (durable, release_ms) =
        workloads::deploy_durable(staged, dir).map_err(|e| format!("deploy: {e}"))?;
    let durable = Arc::new(durable);
    let server = bdi_server::start_durable(durable.clone(), "127.0.0.1:0", ServerConfig::default())
        .map_err(|e| format!("start server: {e}"))?;
    let addr = server.addr();
    match http::once(addr, "GET", "/stats", "") {
        Ok(response) if response.status == 200 => Ok(Live {
            durable,
            addr,
            release_ms,
            _server: server,
        }),
        Ok(response) => Err(format!("GET /stats answered {}", response.status)),
        Err(e) => Err(format!("GET /stats: {e}")),
    }
}

/// Writes the run has started and the server has acknowledged; what a
/// concurrent reader's row count is checked against.
#[derive(Default)]
pub struct WriteCounters {
    started: AtomicU64,
    acked: AtomicU64,
}

impl WriteCounters {
    pub fn started(&self) -> u64 {
        self.started.load(Ordering::SeqCst)
    }

    pub fn acked(&self) -> u64 {
        self.acked.load(Ordering::SeqCst)
    }

    /// Makes one write, counted as started before it is applied and as
    /// acknowledged once it has been.
    pub fn apply(&self, op: WriteOp, durable: &DurableSystem) -> Result<(), DurableError> {
        self.started.fetch_add(1, Ordering::SeqCst);
        op.apply(durable)?;
        self.acked.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }
}

/// Whether `body` is the right answer to `query`, given the writes
/// acknowledged before the request left and those started before its
/// response was read.
fn verify(query: &Query, body: &[u8], acked_before: u64, started_after: u64) -> bool {
    let Some((row_count, rows, hash)) = workloads::read_answer(body) else {
        return false;
    };
    row_count == rows
        && match query.check {
            Check::Exact {
                rows: want,
                hash: want_hash,
            } => rows == want && hash == want_hash,
            Check::Growing { base } => {
                (base + acked_before as usize..=base + started_after as usize).contains(&rows)
            }
        }
}

/// What the closed-loop clients saw.
#[derive(Default)]
pub struct QuerySamples {
    pub latency_ms: Vec<f64>,
    /// When each response had been read, in seconds since the window's
    /// start; parallel to `latency_ms`.
    pub ended_s: Vec<f64>,
    pub failed: u64,
}

/// The window is cut into this many slices, of which the [`QUIET_SLICES`]
/// with the lowest median latency are measured.
const SLICES: usize = 10;
const QUIET_SLICES: usize = 3;

/// The latencies of the window's quietest slices, pooled, and how many
/// seconds those slices cover.
///
/// The sandbox is a few cores of a shared host, and for seconds at a time,
/// several times a minute, its other tenants make everything here 10–50 %
/// slower. Over a whole window that moved the median from run to run of the
/// same code by 8–12 % and the p95 by 18–24 %; over the quietest three
/// tenths by 5 % and 9 %. Interference only ever adds time, so the quietest
/// slices are the nearest to what the program costs, and a change to the
/// program moves every slice alike.
pub fn quiet_slices(reads: &QuerySamples, seconds: f64) -> (Vec<f64>, f64) {
    let slice_s = seconds / SLICES as f64;
    let mut slices = vec![Vec::new(); SLICES];
    for (&ms, &ended) in reads.latency_ms.iter().zip(&reads.ended_s) {
        // A response read after the window's end belongs to no slice.
        if let Some(slice) = slices.get_mut((ended / slice_s) as usize) {
            slice.push(ms);
        }
    }
    slices.retain(|slice| !slice.is_empty());
    let mut ranked: Vec<(f64, Vec<f64>)> = slices
        .into_iter()
        .map(|mut slice| (median(&mut slice), slice))
        .collect();
    ranked.sort_by(|a, b| a.0.total_cmp(&b.0));
    ranked.truncate(QUIET_SLICES);
    let covered = ranked.len() as f64 * slice_s;
    (
        ranked.into_iter().flat_map(|(_, slice)| slice).collect(),
        covered,
    )
}

/// One closed-loop client: the next request leaves when the previous
/// response has been read and checked. Where the workload interleaves its
/// writes, the client makes one write before each request, and a checkpoint
/// every [`WRITES_PER_CHECKPOINT`] writes.
fn client(
    session: &Session,
    spec: &Spec,
    seed: u64,
    mut at: usize,
    started: Instant,
    until: Instant,
    min_requests: usize,
) -> (QuerySamples, WriteSamples) {
    let Session {
        live,
        queries,
        order,
        counters,
        ..
    } = session;
    let (mut reads, mut writes) = (QuerySamples::default(), WriteSamples::default());
    let mut conn: Option<Conn> = None;
    let mut done = 0;
    while Instant::now() < until || done < min_requests {
        if spec.interleave_writes {
            write_once(live, spec, seed, counters, &mut writes);
        }
        let query = &queries[order[at % order.len()]];
        at += 1;
        done += 1;
        let acked_before = counters.acked();
        let response = if spec.keep_alive {
            match conn.take().map_or_else(|| Conn::open(live.addr), Ok) {
                Ok(mut open) => {
                    let response = open.request("POST", "/query", &query.body, false);
                    if response.is_ok() {
                        conn = Some(open);
                    }
                    response
                }
                Err(e) => Err(e),
            }
        } else {
            http::once(live.addr, "POST", "/query", &query.body)
        };
        let started_after = counters.started();
        match response {
            Ok(r) if r.status == 200 && verify(query, &r.body, acked_before, started_after) => {
                reads.latency_ms.push(r.elapsed.as_secs_f64() * 1e3);
                reads.ended_s.push(started.elapsed().as_secs_f64());
            }
            _ => reads.failed += 1,
        }
    }
    (reads, writes)
}

/// The workload's next write, timed from its start to its acknowledgement,
/// and after every [`WRITES_PER_CHECKPOINT`]-th a `POST /checkpoint`.
fn write_once(
    live: &Live,
    spec: &Spec,
    seed: u64,
    counters: &WriteCounters,
    out: &mut WriteSamples,
) {
    let op = WriteOp::new(spec, seed, counters.started());
    out.json_bytes += op.json_len() as u64;
    let started = Instant::now();
    match counters.apply(op, &live.durable) {
        Ok(()) => out.latency_ms.push(started.elapsed().as_secs_f64() * 1e3),
        Err(_) => out.failed += 1,
    }
    if counters.started().is_multiple_of(WRITES_PER_CHECKPOINT) {
        checkpoint_once(live, out);
    }
}

fn checkpoint_once(live: &Live, out: &mut WriteSamples) {
    match http::once(live.addr, "POST", "/checkpoint", "") {
        Ok(r) if r.status == 200 => {
            out.checkpoint_ms.push(r.elapsed.as_secs_f64() * 1e3);
            let image = live.durable.dir().join(SNAPSHOT_FILE);
            out.image_bytes += std::fs::metadata(image).map_or(0, |m| m.len());
        }
        _ => out.failed += 1,
    }
}

/// Runs the session's closed-loop clients until `seconds` have passed and each
/// has made `min_requests`. Client `c` starts `c/clients` of the way
/// through the request order, so together they cover it soonest.
pub fn read_window(
    session: &Session,
    spec: &Spec,
    seed: u64,
    seconds: f64,
    min_requests: usize,
) -> (QuerySamples, WriteSamples) {
    let clients = session.clients;
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let (mut reads, mut writes) = (QuerySamples::default(), WriteSamples::default());
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                let at = c * session.order.len() / clients;
                scope.spawn(move || client(session, spec, seed, at, started, until, min_requests))
            })
            .collect();
        for handle in handles {
            let (r, w) = handle.join().expect("client thread");
            reads.latency_ms.extend(r.latency_ms);
            reads.ended_s.extend(r.ended_s);
            reads.failed += r.failed;
            writes.absorb(w);
        }
    });
    (reads, writes)
}

/// What the writes and the checkpoints of a run saw.
#[derive(Default)]
pub struct WriteSamples {
    /// Acknowledged-durable latency of each write: from its due time where
    /// an open-loop writer made it, from its start where a client did.
    pub latency_ms: Vec<f64>,
    /// How late after its due time each open-loop write was started.
    pub lateness_ms: Vec<f64>,
    pub failed: u64,
    /// JSON bytes of the records written.
    pub json_bytes: u64,
    pub checkpoint_ms: Vec<f64>,
    /// Bytes of every image the checkpoints wrote.
    pub image_bytes: u64,
}

impl WriteSamples {
    fn absorb(&mut self, other: WriteSamples) {
        self.latency_ms.extend(other.latency_ms);
        self.lateness_ms.extend(other.lateness_ms);
        self.failed += other.failed;
        self.json_bytes += other.json_bytes;
        self.checkpoint_ms.extend(other.checkpoint_ms);
        self.image_bytes += other.image_bytes;
    }
}

/// The open-loop writer ([`IDLE_WRITES_PER_S`], each write timed from when
/// it was due) beside a checkpointer, for `seconds`, on an otherwise idle
/// server.
pub fn write_traffic(session: &Session, spec: &Spec, seed: u64, seconds: f64) -> WriteSamples {
    let Session { live, counters, .. } = session;
    // Writes are numbered on from those already made, so each is unique.
    let first = counters.started();
    let started = Instant::now();
    let until = started + Duration::from_secs_f64(seconds);
    let mut out = WriteSamples::default();
    std::thread::scope(|scope| {
        let checkpointer = scope.spawn(move || {
            let mut out = WriteSamples::default();
            for n in 1..=CHECKPOINTS {
                wait_until(started + Duration::from_secs_f64(seconds) * n / (CHECKPOINTS + 1));
                checkpoint_once(live, &mut out);
            }
            out
        });

        let interval = Duration::from_secs_f64(1.0 / IDLE_WRITES_PER_S);
        for n in 0u32.. {
            let due = started + interval * n;
            if due >= until {
                break;
            }
            let op = WriteOp::new(spec, seed, first + u64::from(n));
            out.json_bytes += op.json_len() as u64;
            wait_until(due);
            out.lateness_ms.push(due.elapsed().as_secs_f64() * 1e3);
            match counters.apply(op, &live.durable) {
                Ok(()) => out.latency_ms.push(due.elapsed().as_secs_f64() * 1e3),
                Err(_) => out.failed += 1,
            }
        }
        out.absorb(checkpointer.join().expect("checkpoint thread"));
    });
    out
}

/// `hits / (hits + misses)` of the plan cache between two `GET /stats`.
pub fn hit_ratio(before: &Value, after: &Value) -> f64 {
    let delta = |key: &str| {
        let of = |stats: &Value| stats["plan_cache"][key].as_u64().unwrap_or(0);
        of(after).saturating_sub(of(before)) as f64
    };
    let (hits, misses) = (delta("hits"), delta("misses"));
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}

pub fn get_stats(addr: SocketAddr) -> Result<Value, String> {
    let response = http::once(addr, "GET", "/stats", "").map_err(|e| format!("GET /stats: {e}"))?;
    std::str::from_utf8(&response.body)
        .ok()
        .and_then(|text| serde_json::from_str(text).ok())
        .ok_or_else(|| "GET /stats: unreadable body".to_owned())
}

/// Copies the data directory as `kill -9` would leave it (the server is
/// still up; nothing is flushed for the occasion).
pub fn copy_data_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for file in [SNAPSHOT_FILE, WAL_FILE] {
        std::fs::copy(from.join(file), to.join(file))?;
    }
    Ok(())
}

/// Rows the growth query answers on `system`, asked in-process.
pub fn growth_rows(durable: &DurableSystem, queries: &[Query]) -> Option<usize> {
    let query = &queries[GROWTH_QUERY];
    durable
        .serve(AnswerRequest::sparql(query.sparql.as_str()).scope(query.scope.clone()))
        .ok()
        .map(|answer| answer.relation.len())
}

pub fn growth_base(queries: &[Query]) -> usize {
    match queries[GROWTH_QUERY].check {
        Check::Exact { rows, .. } => rows,
        Check::Growing { base } => base,
    }
}

/// One reported number.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (1 for a single reading).
    pub samples: usize,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

/// What a run reports.
pub struct Report {
    /// The metrics the contract names, for the result line.
    pub metrics: Vec<Metric>,
    /// Measured and printed, but in no contract: too unsteady to gate.
    pub information: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// No operation failed, every answer was right, and the workload
    /// behaved as the workload it is meant to be.
    pub correct: bool,
    /// Lines for the reader: information that is not a metric.
    pub notes: Vec<String>,
}

/// A deployed, served and warmed workload, ready to be measured.
pub struct Session {
    pub live: Live,
    pub queries: Vec<Query>,
    pub order: Vec<usize>,
    /// Closed-loop query clients.
    pub clients: usize,
    pub counters: WriteCounters,
    /// How long each set-up took.
    pub setup_s: Vec<f64>,
    // Dropped last: the deployment's files live under it.
    pub tmp: TempDir,
}

/// Sets the workload up — once, or with `repeat_setup` several times over,
/// the last one staying — computes the reference answers, and warms the
/// server with every distinct request.
pub fn open_session(spec: &Spec, options: &Options, repeat_setup: bool) -> Result<Session, String> {
    let tmp = TempDir::new(spec.name).map_err(|e| format!("temp dir: {e}"))?;
    let mut setup_s = Vec::new();
    let mut release_ms = Vec::new();
    let first = Instant::now();
    let mut live = loop {
        let started = Instant::now();
        let live = setup(
            spec,
            options.seed,
            &tmp.join(&format!("data-{}", setup_s.len())),
        )?;
        setup_s.push(started.elapsed().as_secs_f64());
        release_ms.extend_from_slice(&live.release_ms);
        if !(repeat_setup && once_more(setup_s.len(), first)) {
            break live;
        }
    };
    live.release_ms = release_ms;

    let queries = workloads::queries(spec, live.durable.system());
    let order = workloads::request_order(&queries, options.seed);
    // A second caller's writes would decide by their timing which of the
    // first's reads find their plan flushed.
    let clients = if spec.interleave_writes {
        1
    } else {
        options.callers
    };
    let session = Session {
        live,
        queries,
        order,
        clients,
        counters: WriteCounters::default(),
        setup_s,
        tmp,
    };
    let (warm, warm_writes) = read_window(
        &session,
        spec,
        options.seed,
        if options.quick { 0.2 } else { 1.0 },
        session.order.len().div_ceil(clients),
    );
    if warm.failed + warm_writes.failed > 0 {
        return Err("warm-up requests failed".to_owned());
    }
    Ok(session)
}

/// One measured window and what went on around it.
pub struct Window {
    pub reads: QuerySamples,
    pub writes: WriteSamples,
    /// Plan-cache hit ratio over the read window.
    pub hit_ratio: f64,
    /// `GET /stats` at the read window's end.
    pub stats: Value,
    /// `VmHWM` at the read window's end.
    pub peak_rss_mb: f64,
}

/// The read window of `seconds`, its writes interleaved with the reads
/// (`spec.interleave_writes`) or made after it on the then idle server.
pub fn window(
    session: &Session,
    spec: &Spec,
    options: &Options,
    seconds: f64,
) -> Result<Window, String> {
    let before = get_stats(session.live.addr)?;
    let (reads, interleaved) = read_window(session, spec, options.seed, seconds, 0);
    let stats = get_stats(session.live.addr)?;
    let peak_rss_mb = peak_rss_mb();
    let writes = if spec.interleave_writes {
        interleaved
    } else {
        let seconds = if options.quick {
            IDLE_WRITE_SECONDS / 4.0
        } else {
            IDLE_WRITE_SECONDS
        };
        write_traffic(session, spec, options.seed, seconds)
    };
    Ok(Window {
        reads,
        writes,
        hit_ratio: hit_ratio(&before, &stats),
        stats,
        peak_rss_mb,
    })
}

/// The untraced run: every end-to-end metric of one workload.
pub fn end_to_end(spec: &Spec, options: &Options) -> Result<Report, String> {
    let mut session = open_session(spec, options, true)?;
    let Window {
        mut reads,
        mut writes,
        hit_ratio,
        peak_rss_mb,
        ..
    } = window(&session, spec, options, options.seconds)?;
    let mut notes = Vec::new();

    let ok_reads = reads.latency_ms.len();
    // Before anything sorts the latencies apart from their times.
    let (mut quiet_ms, quiet_s) = quiet_slices(&reads, options.seconds);
    let quiet_reads = quiet_ms.len();
    let written = writes.latency_ms.len();
    let mut attempted =
        (ok_reads + written + writes.checkpoint_ms.len()) as u64 + reads.failed + writes.failed;
    let mut failed = reads.failed + writes.failed;

    let (lowest, highest) = spec.hit_ratio;
    let mut correct = (lowest..=highest).contains(&hit_ratio);
    notes.push(format!(
        "plan-cache hit ratio over the window {hit_ratio:.4} ({})",
        if correct {
            "as the workload requires"
        } else {
            "NOT what the workload requires"
        }
    ));

    // With the writer stopped, the live server and a recovered copy must
    // both answer base + every acknowledged write.
    let Session {
        live,
        queries,
        counters,
        tmp,
        ..
    } = &session;
    let want = growth_base(queries) + counters.acked() as usize;
    attempted += 1;
    let live_rows = http::once(live.addr, "POST", "/query", &queries[GROWTH_QUERY].body)
        .ok()
        .and_then(|r| workloads::read_answer(&r.body))
        .map(|(_, rows, _)| rows);
    if live_rows != Some(want) {
        failed += 1;
        notes.push(format!(
            "live server answers {live_rows:?} rows, want {want}"
        ));
    }
    let copy = tmp.join("recover");
    copy_data_dir(live.durable.dir(), &copy).map_err(|e| format!("copy data dir: {e}"))?;
    let mut recover_ms = Vec::new();
    let first = Instant::now();
    while once_more(recover_ms.len(), first) {
        attempted += 1;
        let started = Instant::now();
        let recovered = DurableSystem::open(&copy);
        recover_ms.push(started.elapsed().as_secs_f64() * 1e3);
        match recovered
            .as_ref()
            .ok()
            .and_then(|r| growth_rows(r, queries))
        {
            Some(rows) if rows == want => {}
            other => {
                failed += 1;
                notes.push(format!(
                    "recovered copy answers {other:?} rows, want {want}"
                ));
            }
        }
    }
    correct &= failed == 0;

    notes.push(format!(
        "over the whole window: {ok_reads} reads, {:.4} 1/s, p50 {:.4} ms, p95 {:.4} ms{}",
        ok_reads as f64 / options.seconds,
        median(&mut reads.latency_ms),
        percentile(&mut reads.latency_ms, 0.95),
        if ok_reads >= 1000 {
            format!(", p99 {:.4} ms", percentile(&mut reads.latency_ms, 0.99))
        } else {
            String::new()
        }
    ));
    if !writes.lateness_ms.is_empty() {
        notes.push(format!(
            "writer lateness p50 {:.4} ms, max {:.3} ms over {} writes",
            median(&mut writes.lateness_ms),
            percentile(&mut writes.lateness_ms, 1.0),
            writes.lateness_ms.len()
        ));
    }

    // Measured and printed, not gated: these are a few fsyncs of the
    // sandbox's disk and little else, and across ten seeds their quartiles
    // lay up to 23–35 % of the median apart (README.md).
    let release_ms = &mut session.live.release_ms;
    let information = vec![
        Metric::new(
            "write_p50_ms",
            median(&mut writes.latency_ms),
            "ms",
            written,
        ),
        Metric::new(
            "write_p95_ms",
            percentile(&mut writes.latency_ms, 0.95),
            "ms",
            written,
        ),
        Metric::new("release_p50_ms", median(release_ms), "ms", release_ms.len()),
        Metric::new(
            "checkpoint_p50_ms",
            median(&mut writes.checkpoint_ms),
            "ms",
            writes.checkpoint_ms.len(),
        ),
    ];
    let metrics = vec![
        Metric::new(
            "setup_s",
            median(&mut session.setup_s),
            "s",
            session.setup_s.len(),
        ),
        Metric::new("query_p50_ms", median(&mut quiet_ms), "ms", quiet_reads),
        Metric::new(
            "query_p95_ms",
            percentile(&mut quiet_ms, 0.95),
            "ms",
            quiet_reads,
        ),
        Metric::new(
            "throughput_rps",
            quiet_reads as f64 / quiet_s,
            "1/s",
            quiet_reads,
        ),
        Metric::new("peak_rss_mb", peak_rss_mb, "MiB", 1),
        Metric::new(
            "recover_ms",
            median(&mut recover_ms),
            "ms",
            recover_ms.len(),
        ),
    ];
    Ok(Report {
        metrics,
        information,
        attempted,
        failed,
        correct,
        notes,
    })
}
