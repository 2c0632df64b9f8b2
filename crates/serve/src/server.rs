//! The daemon itself: bind, accept, route, stream, drain.
//!
//! One [`CellRunner`] (exclusive cache writer, in-flight dedup) is
//! shared by every connection; an [`AdmissionGate`] bounds concurrent
//! experiment requests; a [`BudgetBook`] bounds what each client may
//! ask over the daemon's lifetime. Shutdown — by signal or by
//! [`ShutdownHandle`] — stops admitting, lets in-flight cells finish,
//! truncates their streams with a typed summary, flushes the cache,
//! and reports whether the drain beat its deadline.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use orion_exp::inflight::lock_unpoisoned;
use orion_exp::runner::{CellRunner, Supervision};
use orion_exp::{failpoint, ExperimentSpec};
use orion_obs::json::Json;
use orion_obs::MetricsRegistry;

use crate::admission::{AdmissionGate, BudgetBook, Rejection};
use crate::http::{read_request, write_response, ChunkedBody, HttpError, Request};
use crate::{signal, SERVE_PROTOCOL_VERSION};

/// Everything tunable about a daemon. `Default` is sized for local
/// experimentation; the CLI maps flags onto these fields.
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
    /// How every request's cells run: the same knobs `experiment run`
    /// takes. With a cache directory and `checkpoint_every`, a drained
    /// daemon leaves each unfinished cell's snapshot for the next one
    /// to resume.
    pub supervision: Supervision,
    /// How long shutdown waits for in-flight requests to finish.
    pub drain_timeout: Duration,
    /// Largest accepted request body.
    pub max_body_bytes: usize,
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
            supervision: Supervision::default(),
            drain_timeout: Duration::from_secs(10),
            max_body_bytes: 1 << 20,
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
    /// Blocking; woken by [`signal::wake`]. Owned here, so a
    /// [`ShutdownHandle`] can never wake a descriptor that was reused.
    listener: TcpListener,
    runner: CellRunner,
    gate: AdmissionGate,
    budgets: BudgetBook,
    metrics: Mutex<MetricsRegistry>,
    /// Open connections; each one decrements it as it ends and
    /// notifies `closed`, which the drain waits on.
    connections: Mutex<usize>,
    closed: Condvar,
    requests: AtomicUsize,
    /// Total wall-clock nanoseconds spent in completed cells and how
    /// many completed — feeds the `Retry-After` estimate on 429s.
    cell_nanos: AtomicU64,
    cells_timed: AtomicU64,
}

impl ServerState {
    /// Refuses new work from here on (`readyz` answers 503), asks
    /// checkpointed cells to stop at their next boundary, and wakes
    /// the accept loop. Idempotent.
    fn begin_drain(&self) {
        self.gate.start_draining();
        self.runner.request_drain();
        signal::wake(&self.listener);
    }
}

/// A bound-but-not-yet-running daemon: inspect
/// [`local_addr`](Self::local_addr), take a [`ShutdownHandle`], then
/// [`run`](Self::run).
pub struct Server {
    state: Arc<ServerState>,
}

/// Requests shutdown from another thread — the programmatic twin of
/// SIGTERM.
#[derive(Clone)]
pub struct ShutdownHandle {
    state: Arc<ServerState>,
}

impl ShutdownHandle {
    /// Stops admission and wakes the daemon to drain. Admission is shut
    /// when this returns: `readyz` already answers 503.
    pub fn shutdown(&self) {
        self.state.begin_drain();
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
        let runner = CellRunner::open(config.cache_dir.as_deref())?;
        let gate = AdmissionGate::new(config.workers, config.queue_depth, config.queue_patience);
        let budgets = BudgetBook::new(config.client_budget);
        Ok(Server {
            state: Arc::new(ServerState {
                config,
                listener,
                runner,
                gate,
                budgets,
                metrics: Mutex::new(MetricsRegistry::new()),
                connections: Mutex::new(0),
                closed: Condvar::new(),
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
        self.state.listener.local_addr()
    }

    /// A handle that triggers the same graceful drain as SIGTERM.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            state: Arc::clone(&self.state),
        }
    }

    pub(crate) fn listener(&self) -> &TcpListener {
        &self.state.listener
    }

    /// Serves until SIGTERM/SIGINT or a [`ShutdownHandle`] fires, then
    /// drains and flushes. Blocks the calling thread.
    ///
    /// # Errors
    ///
    /// Accept-loop I/O errors; cache flush errors at shutdown.
    pub fn run(self) -> std::io::Result<ServeOutcome> {
        let state = self.state;
        let accepted = loop {
            if shutdown_asked(&state) {
                break Ok(());
            }
            match state.listener.accept() {
                Ok((stream, _peer)) => {
                    let open = OpenConnection::count(&state);
                    std::thread::spawn(move || handle_connection(&open.0, stream));
                }
                // A woken listener fails every accept; the flag says why.
                Err(_) if shutdown_asked(&state) => break Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => break Err(e),
            }
        };

        // Drain: refuse new work, let running cells finish, give
        // in-flight streams a chance to emit their typed summary.
        // With checkpointing on, in-flight cells stop at their next
        // snapshot boundary instead of running to completion; the next
        // daemon over the same cache directory resumes them mid-cell.
        state.begin_drain();
        signal::forget(&state.listener);
        accepted?;
        let open = lock_unpoisoned(&state.connections);
        let patience = state.config.drain_timeout;
        let wait = state.closed.wait_timeout_while(open, patience, |n| *n > 0);
        let drained = *wait.unwrap_or_else(PoisonError::into_inner).0 == 0;
        let abandoned = state.gate.active();
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

/// Whether a signal or a [`ShutdownHandle`] asked for the drain.
fn shutdown_asked(state: &ServerState) -> bool {
    signal::shutdown_requested() || state.gate.draining()
}

/// One open connection in the count the drain waits on, uncounted
/// however its handler ends — by a panic too.
struct OpenConnection(Arc<ServerState>);

impl OpenConnection {
    fn count(state: &Arc<ServerState>) -> OpenConnection {
        *lock_unpoisoned(&state.connections) += 1;
        OpenConnection(Arc::clone(state))
    }
}

impl Drop for OpenConnection {
    fn drop(&mut self) {
        *lock_unpoisoned(&self.0.connections) -= 1;
        self.0.closed.notify_all();
    }
}

/// One connection = one request = one response, then close. The
/// `serve.handle` failpoint fires first: `error` closes the connection
/// unanswered, `panic` kills its thread.
fn handle_connection(state: &ServerState, mut stream: TcpStream) {
    if failpoint::hit("serve.handle").is_err() {
        return;
    }
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let request = match read_request(&mut stream, state.config.max_body_bytes) {
        Ok(req) => req,
        Err(HttpError::Io(_)) => return,
        Err(HttpError::Malformed(why)) => {
            metric(state, "serve_rejected_malformed_http");
            let _ = error_response(&mut stream, 400, "malformed-request", why);
            return;
        }
        Err(HttpError::TooLarge { limit }) => {
            metric(state, "serve_rejected_payload_too_large");
            let why = format!("request body exceeds the {limit}-byte cap");
            let _ = error_response(&mut stream, 413, "payload-too-large", &why);
            return;
        }
    };
    let (method, path) = (request.method.as_str(), request.path.as_str());
    let _ = match (method, path.split('?').next().unwrap_or_default()) {
        ("GET", "/healthz") => handle_health(state, &mut stream),
        ("GET", "/readyz") => handle_ready(state, &mut stream),
        ("GET", "/metrics") => handle_metrics(state, &mut stream),
        ("POST", "/v1/experiment") => handle_experiment(state, &mut stream, &request),
        ("GET" | "POST" | "HEAD" | "PUT" | "DELETE", _) => {
            let why = format!("no route for {method} {path}");
            error_response(&mut stream, 404, "not-found", &why)
        }
        _ => {
            let why = format!("method {method} is not served");
            error_response(&mut stream, 405, "method-not-allowed", &why)
        }
    };
}

fn handle_health(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    // Liveness is unconditional: a draining daemon is still alive.
    let body = protocol_line("health", |o| {
        o.key("status").str("ok");
        o.key("known_records").num(state.runner.known_records());
    });
    write_response(stream, 200, &[], body.as_bytes())
}

fn handle_ready(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    if shutdown_asked(state) {
        let draining = Rejection::Draining;
        return error_response(stream, 503, draining.code(), &draining.message());
    }
    let body = protocol_line("ready", |o| {
        o.key("status").str("ready");
        o.key("active_requests").num(state.gate.active());
    });
    write_response(stream, 200, &[], body.as_bytes())
}

fn handle_metrics(state: &ServerState, stream: &mut TcpStream) -> std::io::Result<()> {
    let body = {
        let mut metrics = lock_unpoisoned(&state.metrics);
        metrics.set_gauge("serve_active_requests", state.gate.active() as f64);
        metrics.set_gauge("runner_known_records", state.runner.known_records() as f64);
        for (name, value) in state.runner.stats().gauges() {
            metrics.set_gauge(name, value as f64);
        }
        metrics.snapshot().to_json()
    };
    write_response(stream, 200, &[], body.as_bytes())
}

/// The streaming endpoint: validate → admit → charge → stream.
fn handle_experiment(
    state: &ServerState,
    stream: &mut TcpStream,
    request: &Request,
) -> std::io::Result<()> {
    metric(state, "serve_requests");
    let deadline = match request_deadline(request) {
        Ok(deadline) => deadline,
        Err(why) => {
            metric(state, "serve_rejected_bad_header");
            return error_response(stream, 400, "bad-header", &why);
        }
    };
    let spec = match ExperimentSpec::parse_bytes(&request.body) {
        Ok(spec) => spec,
        Err(e) => {
            metric(state, "serve_rejected_bad_spec");
            return error_response(stream, 400, "bad-spec", &e.to_string());
        }
    };
    let cells = spec.expand();

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

    let mut body = ChunkedBody::begin(stream)?;
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
        let record = state.runner.run(cell, &state.config.supervision);
        state
            .cell_nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        state.cells_timed.fetch_add(1, Ordering::Relaxed);
        body.line(&record.to_json_line())?;
        streamed += 1;
    }
    drop(permit);
    let done = match status {
        "complete" => "serve_requests_ok",
        _ => "serve_streams_truncated",
    };
    metric(state, done);
    lock_unpoisoned(&state.metrics).add("serve_records_streamed", streamed as u64);
    let budget_remaining = state.budgets.remaining(client);
    body.line(&protocol_line("summary", |o| {
        o.key("status").str(status);
        o.key("streamed").num(streamed);
        o.key("cells").num(cells.len());
        o.key("budget_remaining").num(budget_remaining);
    }))?;
    body.finish()
}

/// This request's `X-Orion-Deadline-Ms` as an instant.
fn request_deadline(request: &Request) -> Result<Option<Instant>, String> {
    let deadline = header_u64(request, "x-orion-deadline-ms")?;
    Ok(deadline.map(|ms| Instant::now() + Duration::from_millis(ms)))
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
    // Mean wall-clock duration of the cells completed so far; zero
    // before the first one finishes.
    let cells = state.cells_timed.load(Ordering::Relaxed).max(1);
    let mean_cell = Duration::from_nanos(state.cell_nanos.load(Ordering::Relaxed) / cells);
    let backlog = state.gate.active() + state.config.queue_depth;
    let secs = retry_after_secs(backlog, state.config.workers, mean_cell);
    let retry_after = [("Retry-After", secs.to_string())];
    let body = error_body(rejection.code(), &rejection.message());
    write_response(stream, rejection.status(), &retry_after, body.as_bytes())
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
    code: &str,
    message: &str,
) -> std::io::Result<()> {
    let body = error_body(code, message);
    write_response(stream, status, &[], body.as_bytes())
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

    #[test]
    fn serving_md_names_every_metrics_gauge() {
        let doc = include_str!("../../../docs/SERVING.md");
        let runner = orion_exp::RunnerStats::default()
            .gauges()
            .map(|(name, _)| name);
        for name in ["serve_active_requests", "runner_known_records"]
            .into_iter()
            .chain(runner)
        {
            let quoted = format!("`{name}`");
            assert!(
                doc.contains(&quoted),
                "docs/SERVING.md lacks gauge {quoted}"
            );
        }
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
