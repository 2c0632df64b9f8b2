//! The daemon itself: bind, accept, route, stream, drain.
//!
//! One [`CellRunner`] (exclusive cache writer, in-flight dedup) is
//! shared by every connection; an [`AdmissionGate`] bounds concurrent
//! experiment requests; a [`BudgetBook`] bounds what each client may
//! ask over the daemon's lifetime. Shutdown — by signal or by
//! [`ShutdownHandle`] — stops admitting, lets in-flight cells finish,
//! truncates their streams with a typed summary, flushes the cache,
//! and reports whether the drain beat its deadline.

use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use orion_exp::inflight::lock_unpoisoned;
use orion_exp::runner::{CellRunner, Supervision};
use orion_exp::ExperimentSpec;
use orion_obs::json::Json;
use orion_obs::MetricsRegistry;

use crate::admission::{AdmissionGate, BudgetBook, Rejection};
use crate::http::{read_request, write_response, ChunkedBody, HttpError, Request};
use crate::{signal, SERVE_PROTOCOL_VERSION};

/// Everything tunable about a daemon. `Default` is sized for local
/// experimentation; the CLI maps flags onto these fields 1:1.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`host:port`; port 0 picks a free port).
    pub addr: String,
    /// Result-cache directory; `None` serves from memory only.
    pub cache_dir: Option<PathBuf>,
    /// Concurrent experiment requests actually running.
    pub workers: usize,
    /// Requests allowed to wait for a worker slot before 429.
    pub queue_depth: usize,
    /// How long a queued request waits before giving up with 429.
    pub queue_patience: Duration,
    /// Cell tokens granted to each new client (`u64::MAX` = unmetered).
    pub client_budget: u64,
    /// Default retry count when a request sends no `X-Orion-Retries`.
    pub default_retries: u32,
    /// Default per-cell wall-clock budget (`X-Orion-Cell-Timeout-Ms`
    /// overrides; 0 disables).
    pub default_cell_timeout: Option<Duration>,
    /// How long shutdown waits for in-flight requests to finish.
    pub drain_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
    /// Checkpoint in-flight cells every N cycles (0 disables). With a
    /// cache directory set, a drained daemon leaves each unfinished
    /// cell's snapshot under `<cache_dir>/ckpt/` and the next daemon
    /// resumes it mid-cell instead of from cycle 0.
    pub checkpoint_every: u64,
    /// Shards per cell engine (`orion-shard`; 0 or 1 = monolithic).
    /// Records are bit-identical at every count, so the cache this
    /// daemon serves is shard-agnostic.
    pub shards: usize,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            cache_dir: None,
            workers: 4,
            queue_depth: 8,
            queue_patience: Duration::from_secs(2),
            client_budget: u64::MAX,
            default_retries: 0,
            default_cell_timeout: None,
            drain_timeout: Duration::from_secs(10),
            max_body_bytes: 1 << 20,
            checkpoint_every: 0,
            shards: 0,
        }
    }
}

/// What `run` observed by the time it returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServeOutcome {
    /// Every in-flight request finished inside the drain deadline.
    pub drained: bool,
    /// Experiment requests still running when the deadline expired
    /// (0 when `drained`).
    pub abandoned: usize,
    /// Total experiment requests accepted over the lifetime.
    pub requests: u64,
}

struct ServerState {
    config: ServeConfig,
    runner: CellRunner,
    gate: AdmissionGate,
    budgets: BudgetBook,
    metrics: Mutex<MetricsRegistry>,
    shutdown: AtomicBool,
    open_connections: AtomicUsize,
    requests: AtomicUsize,
    /// Total wall-clock nanoseconds spent in completed cells and how
    /// many completed — feeds the `Retry-After` estimate on 429s.
    cell_nanos: AtomicU64,
    cells_timed: AtomicU64,
}

/// A bound-but-not-yet-running daemon: inspect [`local_addr`]
/// (Self::local_addr), take a [`ShutdownHandle`], then [`run`](Self::run).
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
}

/// Requests shutdown from another thread — the programmatic twin of
/// SIGTERM.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Asks the daemon to stop admitting and drain.
    pub fn shutdown(&self) {
        self.state.shutdown.store(true, Ordering::SeqCst);
    }
}

impl Server {
    /// Binds the listener and opens the shared runner (taking the
    /// cache directory's exclusive writer lock).
    ///
    /// # Errors
    ///
    /// Bind failures, or `AlreadyExists` when another live process
    /// holds the cache directory.
    pub fn bind(config: ServeConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let runner = CellRunner::open(config.cache_dir.as_deref())?;
        let gate = AdmissionGate::new(config.workers, config.queue_depth, config.queue_patience);
        let budgets = BudgetBook::new(config.client_budget);
        Ok(Server {
            listener,
            state: Arc::new(ServerState {
                config,
                runner,
                gate,
                budgets,
                metrics: Mutex::new(MetricsRegistry::new()),
                shutdown: AtomicBool::new(false),
                open_connections: AtomicUsize::new(0),
                requests: AtomicUsize::new(0),
                cell_nanos: AtomicU64::new(0),
                cells_timed: AtomicU64::new(0),
            }),
        })
    }

    /// The address actually bound (resolves port 0).
    ///
    /// # Errors
    ///
    /// Propagates the OS error from `local_addr`.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// A handle that triggers the same graceful drain as SIGTERM.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    /// Serves until SIGTERM/SIGINT or a [`ShutdownHandle`] fires, then
    /// drains and flushes. Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O errors other than `WouldBlock`; cache flush
    /// errors at shutdown.
    pub fn run(self) -> std::io::Result<ServeOutcome> {
        let Server { listener, state } = self;
        while !shutdown_asked(&state) {
            match listener.accept() {
                Ok((stream, _peer)) => {
                    state.open_connections.fetch_add(1, Ordering::SeqCst);
                    let state = Arc::clone(&state);
                    std::thread::spawn(move || {
                        handle_connection(&state, stream);
                        state.open_connections.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }

        // Drain: refuse new work, let running cells finish, give
        // in-flight streams a chance to emit their typed summary.
        // With checkpointing on, in-flight cells stop at their next
        // snapshot boundary instead of running to completion; the next
        // daemon over the same cache directory resumes them mid-cell.
        state.gate.start_draining();
        state.runner.request_drain();
        drop(listener);
        let deadline = Instant::now() + state.config.drain_timeout;
        while state.open_connections.load(Ordering::SeqCst) > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        let abandoned = state.gate.active();
        let drained = state.open_connections.load(Ordering::SeqCst) == 0;
        // All records are already flushed line-by-line; this heals
        // duplicates and drops the append handle. Safe even with
        // laggard requests: they can no longer append, only read.
        state.runner.flush()?;
        Ok(ServeOutcome {
            drained,
            abandoned: if drained { 0 } else { abandoned.max(1) },
            requests: state.requests.load(Ordering::SeqCst) as u64,
        })
    }
}

fn shutdown_asked(state: &ServerState) -> bool {
    signal::shutdown_requested() || state.shutdown.load(Ordering::SeqCst)
}

/// One connection = one request = one response, then close.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream, state.config.max_body_bytes) {
        Ok(req) => req,
        Err(HttpError::Io(_)) => return,
        Err(HttpError::Malformed(why)) => {
            metric(state, "serve_rejected_malformed_http");
            let _ = error_response(&mut stream, 400, "Bad Request", "malformed-request", why);
            return;
        }
        Err(HttpError::TooLarge { limit }) => {
            metric(state, "serve_rejected_payload_too_large");
            let _ = error_response(
                &mut stream,
                413,
                "Payload Too Large",
                "payload-too-large",
                &format!("request body exceeds the {limit}-byte cap"),
            );
            return;
        }
    };
    let result = match (request.method.as_str(), path_of(&request)) {
        ("GET", "/healthz") => handle_health(state, &mut stream),
        ("GET", "/readyz") => handle_ready(state, &mut stream),
        ("GET", "/metrics") => handle_metrics(state, &mut stream),
        ("POST", "/v1/experiment") => handle_experiment(state, &mut stream, &request),
        ("GET" | "POST" | "HEAD" | "PUT" | "DELETE", _) => error_response(
            &mut stream,
            404,
            "Not Found",
            "not-found",
            &format!("no route for {} {}", request.method, request.path),
        ),
        _ => error_response(
            &mut stream,
            405,
            "Method Not Allowed",
            "method-not-allowed",
            &format!("method {} is not served", request.method),
        ),
    };
    let _ = result;
}

fn path_of(request: &Request) -> &str {
    request.path.split('?').next().unwrap_or(&request.path)
}

fn handle_health(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    // Liveness is unconditional: a draining daemon is still alive.
    let body = protocol_line("health", |o| {
        o.key("status").str("ok");
        o.key("known_records").num(state.runner.known_records());
    });
    write_response(stream, 200, "OK", "application/json", &[], body.as_bytes())
}

fn handle_ready(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    if state.gate.draining() || shutdown_asked(state) {
        return error_response(
            stream,
            503,
            "Service Unavailable",
            "draining",
            "daemon is draining; no new work is admitted",
        );
    }
    let body = protocol_line("ready", |o| {
        o.key("status").str("ready");
        o.key("active_requests").num(state.gate.active());
    });
    write_response(stream, 200, "OK", "application/json", &[], body.as_bytes())
}

fn handle_metrics(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    let stats = state.runner.stats();
    let body = {
        let mut metrics = lock_unpoisoned(&state.metrics);
        metrics.set_gauge("serve_active_requests", state.gate.active() as f64);
        metrics.set_gauge("runner_known_records", state.runner.known_records() as f64);
        metrics.set_gauge("runner_executed", stats.executed as f64);
        metrics.set_gauge("runner_cache_hits", stats.cache_hits as f64);
        metrics.set_gauge("runner_deduped", stats.deduped as f64);
        metrics.set_gauge("runner_crashed", stats.crashed as f64);
        metrics.set_gauge("runner_timed_out", stats.timed_out as f64);
        metrics.set_gauge("runner_retried", stats.retried as f64);
        metrics.set_gauge("runner_failed", stats.failed as f64);
        metrics.set_gauge("runner_append_failures", stats.append_failures as f64);
        metrics.set_gauge("runner_drained", stats.drained as f64);
        metrics.set_gauge("ckpt_written_total", stats.checkpoints_written as f64);
        metrics.set_gauge("ckpt_resumed_total", stats.resumed as f64);
        metrics.snapshot().to_json()
    };
    write_response(stream, 200, "OK", "application/json", &[], body.as_bytes())
}

/// The streaming endpoint: validate → admit → charge → stream.
fn handle_experiment(
    state: &ServerState,
    stream: &mut TcpStream,
    request: &Request,
) -> std::io::Result<()> {
    metric(state, "serve_requests");
    let sup = match supervision_for(state, request) {
        Ok(sup) => sup,
        Err(why) => {
            metric(state, "serve_rejected_bad_header");
            return error_response(stream, 400, "Bad Request", "bad-header", &why);
        }
    };
    let spec = match ExperimentSpec::parse_bytes(&request.body) {
        Ok(spec) => spec,
        Err(e) => {
            metric(state, "serve_rejected_bad_spec");
            return error_response(stream, 400, "Bad Request", "bad-spec", &e.to_string());
        }
    };
    let cells = spec.expand();
    let deadline = match header_u64(request, "x-orion-deadline-ms") {
        Ok(ms) => ms.map(|ms| Instant::now() + Duration::from_millis(ms)),
        Err(why) => {
            metric(state, "serve_rejected_bad_header");
            return error_response(stream, 400, "Bad Request", "bad-header", &why);
        }
    };

    // Admission before budget: a request that would be queued out
    // anyway must not burn the client's tokens.
    let permit = match state.gate.admit() {
        Ok(permit) => permit,
        Err(rejection) => return reject(state, stream, &rejection),
    };
    let client = request.header("x-orion-client").unwrap_or("anonymous");
    if let Err(rejection) = state.budgets.charge(client, cells.len() as u64) {
        drop(permit);
        return reject(state, stream, &rejection);
    }
    state.requests.fetch_add(1, Ordering::SeqCst);

    let mut body = ChunkedBody::begin(stream, 200, "OK", "application/x-ndjson")?;
    body.line(&protocol_line("header", |o| {
        o.key("experiment").str(&spec.name);
        o.key("cells").num(cells.len());
    }))?;
    let mut streamed = 0usize;
    let mut status = "complete";
    for cell in &cells {
        if deadline.is_some_and(|d| Instant::now() >= d) {
            status = "deadline-exceeded";
            break;
        }
        if state.gate.draining() {
            status = "draining";
            break;
        }
        let started = Instant::now();
        let record = state.runner.run(cell, &sup);
        state
            .cell_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        state.cells_timed.fetch_add(1, Ordering::Relaxed);
        body.line(&record.to_json_line())?;
        streamed += 1;
    }
    drop(permit);
    if status != "complete" {
        metric(state, "serve_streams_truncated");
    } else {
        metric(state, "serve_requests_ok");
    }
    {
        let mut metrics = lock_unpoisoned(&state.metrics);
        metrics.add("serve_records_streamed", streamed as u64);
    }
    let budget_remaining = state.budgets.remaining(client);
    body.line(&protocol_line("summary", |o| {
        o.key("status").str(status);
        o.key("streamed").num(streamed);
        o.key("cells").num(cells.len());
        o.key("budget_remaining").num(budget_remaining);
    }))?;
    body.finish()
}

/// Maps per-request headers onto the supervisor, falling back to the
/// daemon's defaults — the serving twin of `--retries` /
/// `--cell-timeout-ms`.
fn supervision_for(state: &ServerState, request: &Request) -> Result<Supervision, String> {
    let retries = match header_u64(request, "x-orion-retries")? {
        Some(n) => u32::try_from(n).map_err(|_| "x-orion-retries out of range".to_string())?,
        None => state.config.default_retries,
    };
    let cell_timeout = match header_u64(request, "x-orion-cell-timeout-ms")? {
        Some(0) => None,
        Some(ms) => Some(Duration::from_millis(ms)),
        None => state.config.default_cell_timeout,
    };
    Ok(Supervision {
        max_retries: retries,
        cell_timeout,
        poison: None,
        checkpoint_every: state.config.checkpoint_every,
        shards: state.config.shards,
    })
}

fn header_u64(request: &Request, name: &str) -> Result<Option<u64>, String> {
    match request.header(name) {
        None => Ok(None),
        Some(v) => v
            .parse::<u64>()
            .map(Some)
            .map_err(|_| format!("header {name} must be a non-negative integer, got {v:?}")),
    }
}

fn reject(
    state: &ServerState,
    stream: &mut TcpStream,
    rejection: &Rejection,
) -> std::io::Result<()> {
    let key = match rejection {
        Rejection::OverCapacity { .. } => "serve_rejected_over_capacity",
        Rejection::BudgetExhausted { .. } => "serve_rejected_budget_exhausted",
        Rejection::Draining => "serve_rejected_draining",
    };
    metric(state, key);
    let (status, reason) = match rejection.status() {
        429 => (429, "Too Many Requests"),
        _ => (503, "Service Unavailable"),
    };
    let secs = retry_after_secs(
        state.gate.active() + state.config.queue_depth,
        state.config.workers,
        mean_cell_duration(state),
    );
    let retry_after = [("Retry-After", secs.to_string())];
    let body = error_body(rejection.code(), &rejection.message());
    write_with_headers(stream, status, reason, &retry_after, body.as_bytes())
}

/// Mean wall-clock duration of the cells this daemon has completed so
/// far; zero before the first cell finishes.
fn mean_cell_duration(state: &ServerState) -> Duration {
    let cells = state.cells_timed.load(Ordering::Relaxed);
    if cells == 0 {
        return Duration::ZERO;
    }
    Duration::from_nanos(state.cell_nanos.load(Ordering::Relaxed) / cells)
}

/// How long a 429'd client should wait before retrying: the backlog
/// ahead of it (active requests plus a full queue) times the observed
/// mean cell duration, spread across the worker pool, clamped to
/// `1..=60` seconds. With no history yet the honest answer is the old
/// constant: retry in a second.
fn retry_after_secs(backlog: usize, workers: usize, mean_cell: Duration) -> u64 {
    let wait = mean_cell.as_secs_f64() * backlog as f64 / workers.max(1) as f64;
    (wait.ceil() as u64).clamp(1, 60)
}

fn error_response(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    code: &str,
    message: &str,
) -> std::io::Result<()> {
    let body = error_body(code, message);
    write_response(
        stream,
        status,
        reason,
        "application/json",
        &[],
        body.as_bytes(),
    )
}

/// One object of the wire protocol: every framing, status and error
/// line leads with its `type` and the protocol version.
fn protocol_line(kind: &str, fields: impl FnOnce(&mut Json<'_>)) -> String {
    let mut line = String::new();
    let mut o = Json::compact(&mut line);
    o.key("type").str(kind);
    o.key("protocol").num(SERVE_PROTOCOL_VERSION);
    fields(&mut o);
    o.end();
    line
}

fn error_body(code: &str, message: &str) -> String {
    protocol_line("error", |o| {
        o.key("code").str(code);
        o.key("message").str(message);
    })
}

fn write_with_headers(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    extra: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    write_response(stream, status, reason, "application/json", extra, body)?;
    stream.flush()
}

fn metric(state: &ServerState, key: &'static str) {
    lock_unpoisoned(&state.metrics).inc(key);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_body_bytes() {
        // Exact bytes, generated at `f3a1fbd`.
        assert_eq!(
            error_body(
                "bad-spec",
                "line 4: unknown preset `wa\"rp\\9`\n\u{1}\u{e9}"
            ),
            GOLDEN_ERROR
        );
    }

    const GOLDEN_ERROR: &str = r#"{"type":"error","protocol":1,"code":"bad-spec","message":"line 4: unknown preset `wa\"rp\\9`\n\u0001é"}"#;

    #[test]
    fn retry_after_with_no_history_is_one_second() {
        assert_eq!(retry_after_secs(12, 4, Duration::ZERO), 1);
    }

    #[test]
    fn retry_after_scales_with_backlog_and_mean_cell_time() {
        // 8 requests ahead, 2 workers, 500 ms per cell: 8 * 0.5 / 2 = 2 s.
        assert_eq!(retry_after_secs(8, 2, Duration::from_millis(500)), 2);
        // Fractional waits round up, never down to an optimistic retry.
        assert_eq!(retry_after_secs(5, 2, Duration::from_millis(500)), 2);
        assert_eq!(retry_after_secs(1, 4, Duration::from_millis(100)), 1);
    }

    #[test]
    fn retry_after_is_clamped_to_a_minute() {
        assert_eq!(retry_after_secs(1000, 1, Duration::from_secs(30)), 60);
        // A zero-worker config (impossible via the CLI) must not divide
        // by zero.
        assert_eq!(retry_after_secs(4, 0, Duration::from_secs(1)), 4);
    }
}
