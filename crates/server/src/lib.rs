//! HTTP/1.1 front end for the BDI mediator.
//!
//! A deliberately small, dependency-free server over
//! [`std::net::TcpListener`]: one thread per connection, keep-alive, JSON
//! in and out through the workspace's vendored `serde_json`. The module
//! split mirrors the op-vs-monitoring separation common in small datastore
//! servers: [`ops`] executes queries ([`POST /query`]), [`monitoring`]
//! reports counters ([`GET /stats`]), and [`http`] is the wire layer both
//! share (plus the tiny client the integration tests and the CI smoke job
//! drive the server with).
//!
//! The server holds the [`BdiSystem`] behind an `Arc` and calls
//! [`BdiSystem::serve`] concurrently from every connection thread — the
//! plan cache (one lock, held for a probe or an insert, never across a
//! request) and the shared execution context underneath, whose scan fills
//! are single-flight, are what make that safe and non-convoying.
//!
//! # Endpoints
//!
//! * `POST /query` — body: `{"sparql": "..."}"` or
//!   `{"omq": {"pi": [iri…], "phi": [[s, p, o]…]}}`, optionally with
//!   `"scope"`, `"deadline_ms"`, `"max_rows"`, `"on_source_failure"`.
//!   Answers `{"columns", "rows", "row_count", "truncated", "walks",
//!   "plan_notes", "source_failures"}`.
//! * `GET /stats` — plan-cache, context-pool, planner and retry counters
//!   (plus a `durability` section when serving a durable backend).
//! * `POST /checkpoint` — snapshots a durable backend's deployment image
//!   and truncates its WAL; 404 on a volatile backend.
//!
//! Status mapping: 400 for malformed bodies and ill-posed queries, 404/405
//! for unknown routes, 504 when a per-request deadline expires, 500 for
//! internal execution errors.

use bdi_core::durable::DurableSystem;
use bdi_core::system::BdiSystem;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

pub mod http;
pub mod monitoring;
pub mod ops;

/// How long a connection thread blocks on a read before re-checking the
/// shutdown flag.
const READ_POLL: Duration = Duration::from_millis(50);

/// What the server serves from: a volatile in-memory system, or a durable
/// deployment whose mutations and checkpoints persist under a data
/// directory (`--data-dir`). The durable variant adds the
/// `POST /checkpoint` admin endpoint, a `durability` section to
/// `GET /stats`, and a best-effort checkpoint on graceful shutdown.
#[derive(Clone)]
pub(crate) enum Backend {
    /// A volatile system (the pre-durability default).
    Plain(Arc<BdiSystem>),
    /// A durable deployment (see [`DurableSystem`]).
    Durable(Arc<DurableSystem>),
}

impl Backend {
    /// The query-serving system, whichever variant holds it.
    pub(crate) fn system(&self) -> &BdiSystem {
        match self {
            Backend::Plain(system) => system,
            Backend::Durable(durable) => durable.system(),
        }
    }

    /// The durable deployment, when this backend has one.
    pub(crate) fn durable(&self) -> Option<&DurableSystem> {
        match self {
            Backend::Plain(_) => None,
            Backend::Durable(durable) => Some(durable),
        }
    }
}

/// Server-side knobs applied to every request.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Deadline applied to requests that don't carry their own
    /// `deadline_ms` (`None`: no default deadline).
    pub default_deadline: Option<Duration>,
    /// Ceiling on any request's `max_rows`; requests asking for more (or
    /// for nothing) are clamped down to it (`None`: no ceiling).
    pub max_rows_ceiling: Option<usize>,
}

/// A running server: owns the accept thread and the per-connection
/// workers. Dropping the handle shuts the server down gracefully (stop
/// flag, accept unblocked, every worker joined).
pub struct ServerHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    backend: Backend,
}

impl ServerHandle {
    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful shutdown: in-flight requests finish, all threads join.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        self.stop.store(true, Ordering::Release);
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
            // Graceful shutdown of a durable backend checkpoints it, so the
            // next boot recovers from the image instead of a long replay.
            // Best-effort: a failed checkpoint only costs replay time —
            // every acknowledged mutation is already in the WAL.
            if let Some(durable) = self.backend.durable() {
                let _ = durable.checkpoint();
            }
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Starts the server on `addr` (e.g. `"127.0.0.1:0"`) with default
/// [`ServerConfig`].
pub fn start(system: Arc<BdiSystem>, addr: impl ToSocketAddrs) -> io::Result<ServerHandle> {
    start_with(system, addr, ServerConfig::default())
}

/// Starts the server with explicit [`ServerConfig`].
pub fn start_with(
    system: Arc<BdiSystem>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    start_backend(Backend::Plain(system), addr, config)
}

/// Starts the server over a durable deployment: queries serve from the
/// recovered system, `POST /checkpoint` snapshots it, and graceful
/// shutdown checkpoints best-effort.
pub fn start_durable(
    durable: Arc<DurableSystem>,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    start_backend(Backend::Durable(durable), addr, config)
}

/// Starts the server over an explicit [`Backend`].
pub(crate) fn start_backend(
    backend: Backend,
    addr: impl ToSocketAddrs,
    config: ServerConfig,
) -> io::Result<ServerHandle> {
    let listener = TcpListener::bind(addr)?;
    let addr = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept = {
        let stop = stop.clone();
        let backend = backend.clone();
        std::thread::spawn(move || accept_loop(listener, backend, config, stop))
    };
    Ok(ServerHandle {
        addr,
        stop,
        accept: Some(accept),
        backend,
    })
}

fn accept_loop(
    listener: TcpListener,
    backend: Backend,
    config: ServerConfig,
    stop: Arc<AtomicBool>,
) {
    let workers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::new(Mutex::new(Vec::new()));
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
                let backend = backend.clone();
                let config = config.clone();
                let stop = stop.clone();
                let handle = std::thread::spawn(move || {
                    let _ = serve_connection(stream, &backend, &config, &stop);
                });
                // A worker thread that panicked mid-push must not take the
                // accept loop down with it.
                let mut workers = workers
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
                workers.retain(|w| !w.is_finished());
                workers.push(handle);
            }
            Err(_) => {
                if stop.load(Ordering::Acquire) {
                    break;
                }
            }
        }
    }
    let drained = std::mem::take(
        &mut *workers
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner),
    );
    for worker in drained {
        let _ = worker.join();
    }
}

/// One connection: keep-alive request loop until the client closes, an
/// error occurs, or shutdown is requested.
fn serve_connection(
    mut stream: TcpStream,
    backend: &Backend,
    config: &ServerConfig,
    stop: &AtomicBool,
) -> io::Result<()> {
    stream.set_read_timeout(Some(READ_POLL))?;
    stream.set_nodelay(true)?;
    while let Some(request) = http::read_request(&mut stream, stop)? {
        let (status, body) = route(backend, config, &request);
        let keep_alive = request.keep_alive && !stop.load(Ordering::Acquire);
        http::write_response(&mut stream, status, &body, keep_alive)?;
        if !keep_alive {
            break;
        }
    }
    Ok(())
}

/// Dispatches one parsed request to its op.
fn route(backend: &Backend, config: &ServerConfig, request: &http::Request) -> (u16, String) {
    match (request.method.as_str(), request.path.as_str()) {
        ("POST", "/query") => ops::query(backend.system(), config, &request.body),
        ("GET", "/stats") => (200, monitoring::stats(backend)),
        ("POST", "/checkpoint") => ops::checkpoint(backend),
        (_, "/query") | (_, "/stats") | (_, "/checkpoint") => (
            405,
            serde_json::json!({"error": "method not allowed"}).to_string(),
        ),
        _ => (404, serde_json::json!({"error": "not found"}).to_string()),
    }
}
