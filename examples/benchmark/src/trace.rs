//! The traced run: every per-layer metric of one workload.
//!
//! The program records no spans of its own yet, so each layer is measured
//! from outside: the first requests of the seeded sequence are re-issued
//! one stage at a time — socket round trip, `ops::query`, `serve`, then
//! parse, rewrite, compile, execute, scan — through the crates' public
//! functions, a span around each call. Children are replayed, not observed,
//! so the harness assigns the parent links; a layer's self time is its span
//! minus its children. Spans stay in memory and are written out at the end.

use crate::http::{self, Conn};
use crate::run::{self, Metric, Options, Report, Session};
use crate::stats::median;
use crate::workloads::{self, Spec, WriteOp};
use bdi_core::exec::{self, ExecOptions};
use bdi_core::omq::Omq;
use bdi_core::system::{AnswerRequest, VersionScope};
use bdi_core::{snapshot, vocab};
use bdi_durability::{Snapshotter, StdVfs, Wal, SNAPSHOT_FILE, WAL_FILE};
use bdi_relational::ExecContext;
use bdi_server::{ops, ServerConfig};
use bdi_wrappers::supersede::VOD_V2_COLLECTION;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests of the seeded sequence replayed stage by stage.
const TRACED_REQUESTS: usize = 200;
/// Writes replayed stage by stage.
const TRACED_WRITES: usize = 100;
/// Repetitions of each probe that is not per request.
const PROBES: usize = 5;
/// `GET /stats` round trips on a fresh and on a kept connection.
const STATS_CALLS: usize = 50;
/// `trace.stage_coverage` outside this band means the stages replayed no
/// longer add up to `serve`, and the per-layer numbers cannot be trusted.
const COVERAGE_BAND: std::ops::RangeInclusive<f64> = 0.85..=1.15;

struct Span {
    parent: Option<usize>,
    /// Which request, write or probe repetition the span belongs to.
    request: usize,
    name: &'static str,
    start_us: f64,
    end_us: f64,
}

/// The in-memory span log. A span's id is its index.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span the harness closes itself: the root of one request.
    fn open(&mut self, name: &'static str, request: usize) -> usize {
        let now = self.now_us();
        self.spans.push(Span {
            parent: None,
            request,
            name,
            start_us: now,
            end_us: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_us = self.now_us();
    }

    /// Runs `call` inside a span; returns its result and the span's id.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        request: usize,
        call: impl FnOnce() -> T,
    ) -> (T, usize) {
        let id = self.open(name, request);
        self.spans[id].parent = parent;
        let result = call();
        self.close(id);
        (result, id)
    }

    fn ms(&self, id: usize) -> f64 {
        (self.spans[id].end_us - self.spans[id].start_us) / 1e3
    }

    fn all_ms(&self, name: &str) -> Vec<f64> {
        (0..self.spans.len())
            .filter(|&id| self.spans[id].name == name)
            .map(|id| self.ms(id))
            .collect()
    }

    /// Median duration of the spans called `name`, in ms, as a metric in
    /// `unit` (`"ms"` or `"us"`).
    fn metric(&self, metric: &'static str, name: &str, unit: &'static str) -> Metric {
        let mut all = self.all_ms(name);
        let scale = if unit == "us" { 1e3 } else { 1.0 };
        Metric::new(metric, median(&mut all) * scale, unit, all.len())
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\
                 \"start_us\":{:.3},\"end_us\":{:.3}}}{comma}",
                span.request, span.name, span.start_us, span.end_us
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// Sums and samples the staged read pass leaves besides its spans.
#[derive(Default)]
struct ReadStages {
    wire_self_ms: Vec<f64>,
    json_self_ms: Vec<f64>,
    resp_kb: Vec<f64>,
    walks: usize,
    rows_out: usize,
    rows_in: usize,
    stages_ms: f64,
    cold_ms: f64,
    requests: usize,
    failed: u64,
}

/// Replays up to `max_requests` of the seeded sequence, for at most
/// `budget`, one stage at a time.
fn staged_reads(
    tracer: &mut Tracer,
    session: &Session,
    spec: &Spec,
    budget: Duration,
    max_requests: usize,
) -> ReadStages {
    let system = session.live.durable.system();
    let (ontology, registry) = (system.ontology(), system.registry());
    let config = ServerConfig::default();
    let warm_ctx = ExecContext::new();
    let cold = ExecOptions {
        cache_plans: false,
        reuse_scans: false,
        ..ExecOptions::default()
    };
    let mut conn: Option<Conn> = None;
    let mut out = ReadStages::default();
    let started = Instant::now();

    for i in 0..max_requests {
        if started.elapsed() >= budget {
            break;
        }
        let query = &session.queries[session.order[i % session.order.len()]];
        let request = || AnswerRequest::sparql(query.sparql.as_str()).scope(query.scope.clone());
        let root = tracer.open("request", i);

        // The same request three ways in: over the socket, through the
        // server's op, straight into the mediator.
        let (response, round_trip) = tracer.span("server.http.roundtrip", Some(root), i, || {
            if spec.keep_alive {
                let mut open = match conn.take() {
                    Some(open) => open,
                    None => Conn::open(session.live.addr)?,
                };
                let response = open.request("POST", "/query", &query.body, false)?;
                conn = Some(open);
                Ok(response)
            } else {
                http::once(session.live.addr, "POST", "/query", &query.body)
            }
        });
        let ((status, _), op) = tracer.span("server.ops.query", Some(round_trip), i, || {
            ops::query(system, &config, query.body.as_bytes())
        });
        let (hot, serve_hot) =
            tracer.span("core.serve.hot", Some(op), i, || system.serve(request()));

        // Then with the plan cache and the scan cache off, and that call
        // taken apart.
        let (served, serve_cold) = tracer.span("core.serve.cold", Some(root), i, || {
            system.serve(request().options(cold.clone()))
        });
        let parent = Some(serve_cold);
        let (omq, parse) = tracer.span("core.omq.parse", parent, i, || {
            Omq::parse(&query.sparql, ontology.prefixes())
        });
        // Inside `core.omq.parse`, not beside it: no stage of its own below.
        let _ = tracer.span("rdf.sparql.parse", Some(parse), i, || {
            bdi_rdf::sparql::parse_query(&query.sparql, ontology.prefixes())
        });
        let (_, validity) = tracer.span("wrappers.registry.validity", parent, i, || {
            (registry.capabilities_fingerprint(), registry.stats_epoch())
        });
        let (rewriting, rewrite) = tracer.span("core.rewrite", parent, i, || {
            let mut rewriting = system.rewrite(omq.clone()?)?;
            if !matches!(query.scope, VersionScope::All) {
                let allowed = system.wrappers_in_scope(&query.scope);
                rewriting.walks.retain(|walk| {
                    walk.wrappers().iter().all(|uri| {
                        vocab::wrapper_name_of(uri).is_some_and(|name| allowed.contains(name))
                    })
                });
            }
            Ok::<_, bdi_core::system::SystemError>(rewriting)
        });
        let (Ok(response), 200, Ok(_), Ok(served), Ok(rewriting)) =
            (response, status, hot, served, rewriting)
        else {
            out.failed += 1;
            tracer.close(root);
            continue;
        };
        let walk_wrappers: Vec<Vec<String>> = rewriting
            .walks
            .iter()
            .map(|walk| {
                walk.wrappers()
                    .iter()
                    .filter_map(|uri| vocab::wrapper_name_of(uri).map(str::to_owned))
                    .collect()
            })
            .collect();
        let (compiled, compile) = tracer.span("core.exec.compile", parent, i, || {
            exec::compile_query(ontology, registry, rewriting, &cold)
        });
        let Ok(compiled) = compiled else {
            out.failed += 1;
            tracer.close(root);
            continue;
        };
        let (_, exec_cold) = tracer.span("relational.exec.cold", parent, i, || {
            exec::execute_compiled(ontology, registry, &compiled, None)
        });
        let mut scanned: BTreeMap<&str, usize> = BTreeMap::new();
        for name in walk_wrappers.iter().flatten() {
            if scanned.contains_key(name.as_str()) {
                continue;
            }
            let Some(wrapper) = registry.get(name) else {
                continue;
            };
            let (rows, _) = tracer.span("wrappers.scan", Some(exec_cold), i, || {
                wrapper.scan().map_or(0, |relation| relation.len())
            });
            scanned.insert(name, rows);
        }
        let (warm, _) = tracer.span("relational.exec.warm", Some(serve_hot), i, || {
            exec::execute_compiled(ontology, registry, &compiled, Some(&warm_ctx))
        });
        tracer.close(root);
        out.failed += u64::from(warm.is_err());

        out.requests += 1;
        out.wire_self_ms
            .push(response.elapsed.as_secs_f64() * 1e3 - tracer.ms(op));
        out.json_self_ms.push(tracer.ms(op) - tracer.ms(serve_hot));
        out.resp_kb.push(response.body.len() as f64 / 1024.0);
        out.walks += walk_wrappers.len();
        out.rows_out += served.relation.len();
        out.rows_in += walk_wrappers
            .iter()
            .flatten()
            .map(|name| scanned.get(name.as_str()).copied().unwrap_or(0))
            .sum::<usize>();
        out.stages_ms += [parse, validity, rewrite, compile, exec_cold]
            .iter()
            .map(|&id| tracer.ms(id))
            .sum::<f64>();
        out.cold_ms += tracer.ms(serve_cold);
    }
    out
}

/// What the staged write pass leaves besides its spans.
struct WriteStages {
    self_us: Vec<f64>,
    bytes_per_write: f64,
    fsyncs_per_write: f64,
    failed: u64,
}

/// Makes `writes` of the workload's writes one at a time, then replays each
/// one's journal record through a WAL of its own under `scratch`.
fn staged_writes(
    tracer: &mut Tracer,
    session: &Session,
    spec: &Spec,
    seed: u64,
    writes: usize,
    scratch: &Path,
) -> Result<WriteStages, String> {
    let durable = &session.live.durable;
    std::fs::create_dir_all(scratch).map_err(|e| format!("scratch dir: {e}"))?;
    let mut wal = Wal::open(Arc::new(StdVfs), scratch.join(WAL_FILE), 0)
        .map_err(|e| format!("scratch WAL: {e}"))?
        .wal;
    let before = durable.durability_stats().wal;
    let mut out = WriteStages {
        self_us: Vec::with_capacity(writes),
        bytes_per_write: 0.0,
        fsyncs_per_write: 0.0,
        failed: 0,
    };
    for k in 0..writes {
        let op = WriteOp::new(spec, seed, session.counters.started());
        let (store_id, text) = op.journal_record();
        let root = tracer.open("write", k);
        let (applied, write) = tracer.span("core.durable.write", Some(root), k, || {
            session.counters.apply(op, durable)
        });
        let (appended, append) = tracer.span("durability.wal.append", Some(write), k, || {
            wal.append(store_id, text.as_bytes())
        });
        let (committed, commit) =
            tracer.span("durability.wal.commit", Some(write), k, || wal.commit());
        tracer.close(root);
        if applied.is_err() || appended.is_err() || committed.is_err() {
            out.failed += 1;
            continue;
        }
        out.self_us
            .push((tracer.ms(write) - tracer.ms(append) - tracer.ms(commit)) * 1e3);
    }
    let after = durable.durability_stats().wal;
    let made = (after.records_appended - before.records_appended).max(1) as f64;
    out.bytes_per_write = (after.bytes_appended - before.bytes_appended) as f64 / made;
    out.fsyncs_per_write = (after.fsyncs - before.fsyncs) as f64 / made;
    Ok(out)
}

/// The probes that belong to no request: connection cost, snapshot and
/// recovery pieces, the document store, volatile releases, and the
/// Wordpress replay. Returns failures.
fn probes(
    tracer: &mut Tracer,
    session: &Session,
    spec: &Spec,
    options: &Options,
    repeats: usize,
) -> Result<u64, String> {
    let io = |what: &str, e: std::io::Error| format!("{what}: {e}");
    let mut failed = 0u64;
    let live = &session.live;

    // A connection of its own per call against one kept open.
    let calls = if options.quick {
        STATS_CALLS / 5
    } else {
        STATS_CALLS
    };
    let mut kept = Conn::open(live.addr).map_err(|e| io("connect", e))?;
    for n in 0..calls {
        let (fresh, _) = tracer.span("server.conn.fresh_stats", None, n, || {
            http::once(live.addr, "GET", "/stats", "")
        });
        let (reused, _) = tracer.span("server.conn.keepalive_stats", None, n, || {
            kept.request("GET", "/stats", "", false)
        });
        failed += u64::from(fresh.is_err()) + u64::from(reused.is_err());
    }

    // The deployment image: encode and restore in memory, save and load on
    // disk, and the WAL scan recovery starts with.
    let scratch = session.tmp.join("probe");
    std::fs::create_dir_all(&scratch).map_err(|e| io("probe dir", e))?;
    let image =
        std::fs::read(live.durable.dir().join(SNAPSHOT_FILE)).map_err(|e| io("read image", e))?;
    std::fs::copy(live.durable.dir().join(WAL_FILE), scratch.join(WAL_FILE))
        .map_err(|e| io("copy WAL", e))?;
    let vfs: Arc<StdVfs> = Arc::new(StdVfs);
    let snapshotter = Snapshotter::new(vfs.clone(), scratch.clone());
    for n in 0..repeats {
        let (encoded, _) = tracer.span("core.snapshot.encode", None, n, || {
            snapshot::snapshot(live.durable.system(), live.durable.store())
                .and_then(|image| snapshot::to_json(&image))
        });
        let (restored, _) = tracer.span("core.snapshot.restore", None, n, || {
            snapshot::from_json(encoded.as_deref().unwrap_or(""))
                .and_then(|i| snapshot::restore(&i))
        });
        let (saved, _) = tracer.span("durability.snapshot.save", None, n, || {
            snapshotter.save(&image)
        });
        let (loaded, _) = tracer.span("durability.snapshot.load", None, n, || snapshotter.load());
        let (opened, _) = tracer.span("durability.wal.open", None, n, || {
            Wal::open(vfs.clone(), scratch.join(WAL_FILE), 0).map(|open| open.records.len())
        });
        failed += u64::from(restored.is_err())
            + u64::from(saved.is_err())
            + u64::from(loaded.is_err())
            + u64::from(opened.is_err());
    }

    // The document store, on a store of its own (see `docstore_fixture`).
    let (store, pipeline) = workloads::docstore_fixture(options.seed);
    for n in 0..repeats {
        let (ran, _) = tracer.span("docstore.pipeline.run", None, n, || {
            store.aggregate(VOD_V2_COLLECTION, &pipeline)
        });
        failed += u64::from(ran.is_err());
    }
    // An insert takes about as long as reading the clock: timed by the
    // hundred.
    for n in 0..repeats {
        let docs: Vec<_> = (0..100)
            .map(|k| serde_json::json!({"monitorId": 100, "timestamp": (k as i64), "bufferingRatio": 0.5}))
            .collect();
        let (inserted, _) = tracer.span("docstore.insert_x100", None, n, || {
            docs.into_iter()
                .try_for_each(|doc| store.insert(VOD_V2_COLLECTION, doc))
        });
        failed += u64::from(inserted.is_err());
    }

    // The same deployment's releases on a volatile system: Algorithm 1
    // without the checkpoint `release_p50_ms` includes.
    let mut staged = workloads::stage(spec, options.seed);
    for (n, release) in staged.releases.into_iter().enumerate() {
        if let Some((collection, docs)) = release.docs {
            staged
                .store
                .insert_many(&collection, docs)
                .map_err(|e| format!("stage documents: {e}"))?;
        }
        let (registered, _) = tracer.span("core.release.register", None, n, || {
            staged.system.register_release(release.release)
        });
        failed += u64::from(registered.is_err());
    }

    // Figure 11's series: 15 Wordpress releases through Algorithm 1.
    for n in 0..repeats.min(3) {
        tracer.span("evolution.wordpress.replay", None, n, || {
            bdi_evolution::wordpress::replay_with_system()
        });
    }
    Ok(failed)
}

/// The traced run: every per-layer metric of one workload.
pub fn per_layer(spec: &Spec, options: &Options) -> Result<Report, String> {
    let session = run::open_session(spec, options, false)?;
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let shrink = if options.quick { 10 } else { 1 };
    let reads = staged_reads(
        &mut tracer,
        &session,
        spec,
        Duration::from_secs_f64(options.seconds / 2.0),
        TRACED_REQUESTS / shrink,
    );
    // A short untraced window: the counters the program keeps (`GET
    // /stats`) are read as deltas over it, and its write traffic gives the
    // write amplification.
    let window = run::window(&session, spec, options, (options.seconds / 4.0).max(1.0))?;
    let writes = staged_writes(
        &mut tracer,
        &session,
        spec,
        options.seed,
        TRACED_WRITES / shrink,
        &session.tmp.join("wal-alone"),
    )?;
    let repeats = if options.quick { 2 } else { PROBES };
    let probe_failures = probes(&mut tracer, &session, spec, options, repeats)?;

    let live = &session.live;
    let image_mb = std::fs::metadata(live.durable.dir().join(SNAPSHOT_FILE))
        .map_or(0.0, |m| m.len() as f64 / (1024.0 * 1024.0));
    let wal_bytes = window.writes.latency_ms.len() as f64 * writes.bytes_per_write;
    let write_amp =
        (wal_bytes + window.writes.image_bytes as f64) / window.writes.json_bytes.max(1) as f64;
    let source_triples = bdi_evolution::wordpress::replay()
        .last()
        .map_or(0, |record| record.cumulative_source_triples);
    let coverage = reads.stages_ms / reads.cold_ms;
    let contexts = &window.stats["contexts"];
    let requests = reads.requests.max(1) as f64;

    let mut reads = reads;
    let (mut wire_self_ms, mut json_self_ms, mut resp_kb) = (
        std::mem::take(&mut reads.wire_self_ms),
        std::mem::take(&mut reads.json_self_ms),
        std::mem::take(&mut reads.resp_kb),
    );
    let mut write_self_us = writes.self_us;
    let count = |name, value: f64, samples| Metric::new(name, value, "count", samples);
    let metrics = vec![
        Metric::new(
            "server.http.wire_self_ms",
            median(&mut wire_self_ms),
            "ms",
            reads.requests,
        ),
        Metric::new(
            "server.ops.json_self_ms",
            median(&mut json_self_ms),
            "ms",
            reads.requests,
        ),
        Metric::new(
            "server.ops.resp_kb",
            median(&mut resp_kb),
            "KiB",
            reads.requests,
        ),
        tracer.metric(
            "server.conn.fresh_stats_ms",
            "server.conn.fresh_stats",
            "ms",
        ),
        tracer.metric(
            "server.conn.keepalive_stats_ms",
            "server.conn.keepalive_stats",
            "ms",
        ),
        tracer.metric("rdf.sparql.parse_us", "rdf.sparql.parse", "us"),
        count(
            "rdf.store.ontology_quads",
            live.durable.system().ontology().store().len() as f64,
            1,
        ),
        tracer.metric("core.omq.parse_us", "core.omq.parse", "us"),
        tracer.metric("core.rewrite.rewrite_ms", "core.rewrite", "ms"),
        count(
            "core.rewrite.walks_per_query",
            reads.walks as f64 / requests,
            reads.requests,
        ),
        tracer.metric("core.exec.compile_ms", "core.exec.compile", "ms"),
        Metric::new(
            "core.plan_cache.hit_ratio",
            window.hit_ratio,
            "ratio",
            window.reads.latency_ms.len(),
        ),
        tracer.metric("core.serve.hot_ms", "core.serve.hot", "ms"),
        tracer.metric("core.serve.cold_ms", "core.serve.cold", "ms"),
        count(
            "core.ctx.cached_scans",
            contexts["cached_scans"].as_u64().unwrap_or(0) as f64,
            1,
        ),
        Metric::new(
            "core.ctx.peak_mb",
            contexts["peak_bytes"].as_u64().unwrap_or(0) as f64 / (1024.0 * 1024.0),
            "MiB",
            1,
        ),
        tracer.metric("core.release.register_ms", "core.release.register", "ms"),
        tracer.metric("core.durable.write_us", "core.durable.write", "us"),
        Metric::new(
            "core.durable.write_self_us",
            median(&mut write_self_us),
            "us",
            write_self_us.len(),
        ),
        tracer.metric("core.snapshot.encode_ms", "core.snapshot.encode", "ms"),
        tracer.metric("core.snapshot.restore_ms", "core.snapshot.restore", "ms"),
        tracer.metric("relational.exec.warm_ms", "relational.exec.warm", "ms"),
        tracer.metric("relational.exec.cold_ms", "relational.exec.cold", "ms"),
        count(
            "relational.exec.rows_out",
            reads.rows_out as f64 / requests,
            reads.requests,
        ),
        count(
            "relational.exec.rows_in_per_row_out",
            reads.rows_in as f64 / reads.rows_out.max(1) as f64,
            reads.requests,
        ),
        tracer.metric("wrappers.scan_ms", "wrappers.scan", "ms"),
        tracer.metric(
            "wrappers.registry.validity_us",
            "wrappers.registry.validity",
            "us",
        ),
        tracer.metric("docstore.pipeline.run_ms", "docstore.pipeline.run", "ms"),
        {
            let per_hundred = tracer.metric("docstore.insert_us", "docstore.insert_x100", "us");
            Metric::new(
                per_hundred.name,
                per_hundred.value / 100.0,
                "us",
                per_hundred.samples,
            )
        },
        tracer.metric("durability.wal.append_us", "durability.wal.append", "us"),
        tracer.metric("durability.wal.commit_us", "durability.wal.commit", "us"),
        count(
            "durability.wal.bytes_per_write",
            writes.bytes_per_write,
            write_self_us.len(),
        ),
        count(
            "durability.wal.fsyncs_per_write",
            writes.fsyncs_per_write,
            write_self_us.len(),
        ),
        tracer.metric(
            "durability.snapshot.save_ms",
            "durability.snapshot.save",
            "ms",
        ),
        Metric::new("durability.snapshot.image_mb", image_mb, "MiB", 1),
        tracer.metric(
            "durability.snapshot.load_ms",
            "durability.snapshot.load",
            "ms",
        ),
        tracer.metric("durability.wal.open_ms", "durability.wal.open", "ms"),
        Metric::new(
            "durability.write_amp",
            write_amp,
            "ratio",
            window.writes.latency_ms.len(),
        ),
        tracer.metric(
            "evolution.wordpress.replay_ms",
            "evolution.wordpress.replay",
            "ms",
        ),
        count(
            "evolution.wordpress.source_triples",
            source_triples as f64,
            1,
        ),
        Metric::new("trace.stage_coverage", coverage, "ratio", reads.requests),
    ];

    // The hit ratio is reported here and enforced by the untraced run: this
    // window follows the staged pass, whose plans are still cached.
    let coverage_ok = COVERAGE_BAND.contains(&coverage);
    let failed =
        window.reads.failed + window.writes.failed + reads.failed + writes.failed + probe_failures;
    let attempted = (window.reads.latency_ms.len() + window.writes.latency_ms.len()) as u64
        + tracer.spans.len() as u64
        + failed;
    let mut notes = vec![format!(
        "stage coverage {coverage:.3} ({})",
        if coverage_ok {
            "within band"
        } else {
            "OUTSIDE the band"
        },
    )];
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let path = exe.with_file_name(format!("trace-{}.json", spec.name));
    tracer
        .write(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    notes.push(format!(
        "{} spans written to {}",
        tracer.spans.len(),
        path.display()
    ));

    Ok(Report {
        metrics,
        information: Vec::new(),
        attempted,
        failed,
        correct: failed == 0 && coverage_ok,
        notes,
    })
}
