//! Soak scenario: a live daemon under concurrent clients with
//! overlapping grids, malformed requests, more open connections than it
//! admits, a mid-stream drain, and a byte-identical cache resume
//! afterwards.
//!
//! The client side is a deliberately tiny HTTP/1.1 implementation over
//! `TcpStream` (the same zero-dependency constraint as the server),
//! including an incremental chunked-transfer reader so tests can react
//! to individual streamed records — that is what makes the mid-stream
//! drain deterministic instead of timing-based.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::sync::{Arc, Barrier};
use std::time::Duration;

use orion_exp::{run_spec, EngineOptions, ExperimentSpec};
use orion_serve::server::CONTROL_HEADROOM;
use orion_serve::{ServeConfig, Server};

const FAST_MEASURE: &str = "[measure]\nwarmup = 100\nsample_packets = 100\nmax_cycles = 20000\n";

fn spec_toml(name: &str, rates: &str) -> String {
    format!(
        "[experiment]\nname = \"{name}\"\n\n[grid]\npresets = [\"vc16\"]\nrates = {rates}\n\n{FAST_MEASURE}"
    )
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orion-serve-soak-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A fully-read response: status code plus decoded body lines.
struct Response {
    status: u16,
    body: String,
}

impl Response {
    fn lines(&self) -> Vec<&str> {
        self.body.lines().filter(|l| !l.is_empty()).collect()
    }

    /// Lines that are cell records (framing lines carry `"type"`).
    fn record_lines(&self) -> Vec<&str> {
        self.lines()
            .into_iter()
            .filter(|l| l.starts_with("{\"schema_version\""))
            .collect()
    }

    fn summary_line(&self) -> &str {
        self.lines()
            .into_iter()
            .rfind(|l| l.starts_with("{\"type\":\"summary\""))
            .expect("stream must end with a summary line")
    }
}

/// Sends one request and reads the whole response (chunked or fixed).
fn request(addr: &str, method: &str, path: &str, headers: &[(&str, &str)], body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    send_request(&mut stream, method, path, headers, body);
    let mut reader = BufReader::new(stream);
    let (status, chunked, length) = read_head(&mut reader);
    let body = if chunked {
        let mut out = String::new();
        while let Some(chunk) = read_chunk(&mut reader) {
            out.push_str(&chunk);
        }
        out
    } else {
        let mut buf = vec![0u8; length];
        reader.read_exact(&mut buf).unwrap();
        String::from_utf8(buf).unwrap()
    };
    Response { status, body }
}

fn send_request(
    stream: &mut TcpStream,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &str,
) {
    let mut head = format!("{method} {path} HTTP/1.1\r\nHost: orion\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
    stream.write_all(head.as_bytes()).unwrap();
    stream.write_all(body.as_bytes()).unwrap();
    stream.flush().unwrap();
}

/// Parses the status line and headers; returns (status, chunked,
/// content_length).
fn read_head(reader: &mut BufReader<TcpStream>) -> (u16, bool, usize) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let mut chunked = false;
    let mut length = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let lower = line.to_ascii_lowercase();
        if lower.starts_with("transfer-encoding:") && lower.contains("chunked") {
            chunked = true;
        }
        if let Some(v) = lower.strip_prefix("content-length:") {
            length = v.trim().parse().unwrap();
        }
    }
    (status, chunked, length)
}

/// Reads one chunk; `None` on the terminal zero-chunk.
fn read_chunk(reader: &mut BufReader<TcpStream>) -> Option<String> {
    let mut size_line = String::new();
    reader.read_line(&mut size_line).unwrap();
    let size = usize::from_str_radix(size_line.trim(), 16).unwrap();
    let mut data = vec![0u8; size + 2]; // chunk + trailing CRLF
    reader.read_exact(&mut data).unwrap();
    if size == 0 {
        return None;
    }
    data.truncate(size);
    Some(String::from_utf8(data).unwrap())
}

fn start_server(config: ServeConfig) -> (String, orion_serve::ShutdownHandle, ServerJoin) {
    let server = Server::bind(config).unwrap();
    let addr = server.local_addr().unwrap().to_string();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run().unwrap());
    (addr, handle, ServerJoin(join))
}

struct ServerJoin(std::thread::JoinHandle<orion_serve::ServeOutcome>);

impl ServerJoin {
    fn finish(self, handle: &orion_serve::ShutdownHandle) -> orion_serve::ServeOutcome {
        handle.shutdown();
        self.0.join().unwrap()
    }
}

#[test]
fn health_ready_metrics_and_typed_errors() {
    let (addr, handle, join) = start_server(ServeConfig::default());

    let health = request(&addr, "GET", "/healthz", &[], "");
    assert_eq!(health.status, 200);
    assert!(health.body.contains("\"status\":\"ok\""));

    let ready = request(&addr, "GET", "/readyz", &[], "");
    assert_eq!(ready.status, 200);
    assert!(ready.body.contains("\"status\":\"ready\""));

    let missing = request(&addr, "GET", "/nope", &[], "");
    assert_eq!(missing.status, 404);
    assert!(missing.body.contains("\"code\":\"not-found\""));

    let bad_spec = request(&addr, "POST", "/v1/experiment", &[], "not toml at all [");
    assert_eq!(bad_spec.status, 400);
    assert!(bad_spec.body.contains("\"code\":\"bad-spec\""));

    let bad_header = request(
        &addr,
        "POST",
        "/v1/experiment",
        &[("X-Orion-Deadline-Ms", "many")],
        &spec_toml("h", "[0.02]"),
    );
    assert_eq!(bad_header.status, 400);
    assert!(bad_header.body.contains("\"code\":\"bad-header\""));

    // Raw garbage on the socket gets a typed 400, not a hang.
    let mut raw = TcpStream::connect(&addr).unwrap();
    raw.write_all(b"this is not http\r\n\r\n").unwrap();
    let mut garbage_reply = String::new();
    let _ = BufReader::new(raw).read_to_string(&mut garbage_reply);
    assert!(garbage_reply.starts_with("HTTP/1.1 400"));

    let metrics = request(&addr, "GET", "/metrics", &[], "");
    assert_eq!(metrics.status, 200);
    assert!(metrics.body.contains("\"serve_rejected_bad_spec\":1"));
    assert!(metrics.body.contains("\"serve_rejected_bad_header\":1"));
    assert!(metrics.body.contains("\"serve_rejected_malformed_http\":1"));

    let outcome = join.finish(&handle);
    assert!(outcome.drained);
}

/// Half-closes a fresh connection after sending `bytes` and returns
/// everything the daemon wrote back before closing its side.
fn send_and_hang_up(addr: &str, bytes: &[u8]) -> String {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.write_all(bytes).unwrap();
    stream.shutdown(std::net::Shutdown::Write).unwrap();
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    reply
}

#[test]
fn port_probes_are_not_malformed_requests() {
    let (addr, handle, join) = start_server(ServeConfig::default());
    // Connect and close without a byte, as a TCP port probe does: no
    // reply, no counter. Reading to end of stream waits for the
    // handler to finish, so the scrape below sees its effect.
    for _ in 0..3 {
        assert_eq!(send_and_hang_up(&addr, b""), "");
    }
    let metrics = request(&addr, "GET", "/metrics", &[], "");
    assert!(
        metrics.body.contains("\"serve_rejected_malformed_http\":0"),
        "{}",
        metrics.body
    );
    // A request line cut off after its first bytes is still malformed.
    assert!(send_and_hang_up(&addr, b"GET").starts_with("HTTP/1.1 400"));
    let metrics = request(&addr, "GET", "/metrics", &[], "");
    assert!(
        metrics.body.contains("\"serve_rejected_malformed_http\":1"),
        "{}",
        metrics.body
    );
    assert!(join.finish(&handle).drained);
}

#[test]
fn concurrent_overlapping_clients_dedup_and_match_sequential() {
    let dir = temp_dir("overlap");
    let (addr, handle, join) = start_server(ServeConfig {
        cache_dir: Some(dir.clone()),
        ..ServeConfig::default()
    });

    // 4 clients, 8 requested cells, 3 distinct rates.
    let grids = [
        "[0.02, 0.04]",
        "[0.04, 0.06]",
        "[0.02, 0.06]",
        "[0.02, 0.04]",
    ];
    let barrier = Arc::new(Barrier::new(grids.len()));
    let addr = Arc::new(addr);
    let handles: Vec<_> = grids
        .iter()
        .map(|rates| {
            let (addr, barrier, rates) = (Arc::clone(&addr), Arc::clone(&barrier), *rates);
            std::thread::spawn(move || {
                barrier.wait();
                request(
                    &addr,
                    "POST",
                    "/v1/experiment",
                    &[],
                    &spec_toml("soak", rates),
                )
            })
        })
        .collect();
    let responses: Vec<Response> = handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Sequential ground truth for the full union grid.
    let union = ExperimentSpec::parse(&spec_toml("soak", "[0.02, 0.04, 0.06]")).unwrap();
    let (seq, _) = run_spec(
        &union,
        &EngineOptions {
            threads: 1,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let truth: std::collections::HashMap<String, String> = seq
        .iter()
        .map(|r| (r.cell.clone(), r.to_json_line()))
        .collect();

    for resp in &responses {
        assert_eq!(resp.status, 200);
        assert!(resp.summary_line().contains("\"status\":\"complete\""));
        let records = resp.record_lines();
        assert_eq!(records.len(), 2);
        for line in records {
            let cell = line
                .split("\"cell\":\"")
                .nth(1)
                .and_then(|s| s.split('"').next())
                .expect("record line carries its cell key");
            assert_eq!(
                line, truth[cell],
                "served record must be byte-identical to sequential run_spec"
            );
        }
    }

    // Dedup accounting: 3 distinct cells executed once each, the other
    // 5 requests served by in-flight dedup or the cache.
    let metrics = request(&addr, "GET", "/metrics", &[], "");
    assert!(
        metrics.body.contains("\"runner_executed\":3"),
        "shared cells must execute exactly once; metrics: {}",
        metrics.body
    );
    let deduped_plus_hits: f64 = ["runner_deduped", "runner_cache_hits"]
        .iter()
        .map(|k| extract_gauge(&metrics.body, k))
        .sum();
    assert_eq!(deduped_plus_hits, 5.0, "metrics: {}", metrics.body);

    let outcome = join.finish(&handle);
    assert!(outcome.drained);
    assert_eq!(outcome.requests, 4);
    let _ = std::fs::remove_dir_all(&dir);
}

fn extract_gauge(metrics_json: &str, key: &str) -> f64 {
    metrics_json
        .split(&format!("\"{key}\":"))
        .nth(1)
        .and_then(|s| s.split([',', '}']).next().and_then(|v| v.parse().ok()))
        .unwrap_or_else(|| panic!("gauge {key} missing from {metrics_json}"))
}

#[test]
fn deadline_truncates_with_a_typed_summary() {
    let (addr, handle, join) = start_server(ServeConfig::default());

    // A 1-cell spec with an immediate deadline is admitted and
    // truncated with a typed summary instead of burning simulation
    // time. `X-Orion-Client` is an unknown header like any other: the
    // summary is the same bytes with or without it.
    let spec = spec_toml("d", "[0.02]");
    let deadline = [("X-Orion-Deadline-Ms", "0")];
    let named = [("X-Orion-Client", "greedy"), ("X-Orion-Deadline-Ms", "0")];
    let plain = request(&addr, "POST", "/v1/experiment", &deadline, &spec);
    let greedy = request(&addr, "POST", "/v1/experiment", &named, &spec);
    assert_eq!(plain.status, 200);
    assert_eq!(greedy.status, 200);
    assert_eq!(
        plain.summary_line(),
        r#"{"type":"summary","protocol":2,"status":"deadline-exceeded","streamed":0,"cells":1}"#
    );
    assert_eq!(greedy.summary_line(), plain.summary_line());

    let metrics = request(&addr, "GET", "/metrics", &[], "");
    assert!(metrics.body.contains("\"serve_streams_truncated\":2"));

    let outcome = join.finish(&handle);
    assert!(outcome.drained);
}

#[test]
fn connections_beyond_the_bound_are_refused_429_without_a_handler() {
    // One worker, zero queue slots: the daemon holds at most
    // 1 + CONTROL_HEADROOM open connections.
    let (addr, handle, join) = start_server(ServeConfig {
        workers: 1,
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let bound = 1 + CONTROL_HEADROOM;
    let mut idle: Vec<TcpStream> = (0..bound)
        .map(|_| TcpStream::connect(&addr).unwrap())
        .collect();

    // The accept loop takes connections in order, so by the time the
    // next one is answered every idle one before it has been counted.
    let mut refused = TcpStream::connect(&addr).unwrap();
    refused
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut reply = String::new();
    refused
        .read_to_string(&mut reply)
        .expect("refused on the accept thread, not left to a handler");
    assert!(reply.starts_with("HTTP/1.1 429"), "{reply}");
    assert!(reply.contains("\r\nRetry-After: "), "{reply}");
    assert!(reply.contains("\"code\":\"over-capacity\""), "{reply}");

    // A counted connection is still served.
    let mut counted = idle.pop().unwrap();
    send_request(&mut counted, "GET", "/metrics", &[], "");
    let mut metrics = String::new();
    counted.read_to_string(&mut metrics).unwrap();
    assert!(
        metrics.contains("\"serve_rejected_over_capacity\":1"),
        "{metrics}"
    );

    // Once the idle clients hang up and read their sockets out, their
    // slots are free again.
    for mut socket in idle {
        socket.shutdown(std::net::Shutdown::Write).unwrap();
        let _ = socket.read_to_end(&mut Vec::new());
    }
    let served = request(
        &addr,
        "POST",
        "/v1/experiment",
        &[("X-Orion-Deadline-Ms", "0")],
        &spec_toml("after", "[0.02]"),
    );
    assert_eq!(served.status, 200);

    let outcome = join.finish(&handle);
    assert!(outcome.drained);
}

#[test]
fn over_capacity_rejects_429() {
    // One worker, zero queue slots: while the first request simulates,
    // any second request is refused immediately with the typed code.
    let (addr, handle, join) = start_server(ServeConfig {
        workers: 1,
        queue_depth: 0,
        queue_patience: Duration::from_millis(1),
        ..ServeConfig::default()
    });
    // A wide grid of distinct low-rate cells keeps the single worker
    // slot held long enough to collide with deterministically.
    let rates: Vec<String> = (1..=30).map(|i| format!("0.{i:03}")).collect();
    let busy_spec = spec_toml("busy", &format!("[{}]", rates.join(", ")));
    let addr2 = addr.clone();
    let busy =
        std::thread::spawn(move || request(&addr2, "POST", "/v1/experiment", &[], &busy_spec));
    // Wait until the worker slot is confirmably held, then collide.
    for _ in 0..500 {
        let ready = request(&addr, "GET", "/readyz", &[], "");
        if ready.body.contains("\"active_requests\":1") {
            break;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let rejected = request(
        &addr,
        "POST",
        "/v1/experiment",
        &[],
        &spec_toml("late", "[0.04]"),
    );
    assert_eq!(rejected.status, 429);
    assert!(rejected.body.contains("\"code\":\"over-capacity\""));
    assert_eq!(busy.join().unwrap().status, 200);

    let metrics = request(&addr, "GET", "/metrics", &[], "");
    assert!(metrics.body.contains("\"serve_rejected_over_capacity\":1"));

    let outcome = join.finish(&handle);
    assert!(outcome.drained);
}

#[test]
fn draining_daemon_rejects_held_connections_with_503() {
    let (addr, handle, join) = start_server(ServeConfig::default());
    // Connect (and get accepted) *before* the drain starts, then
    // submit after it: the daemon must answer with the typed 503, not
    // hang or reset.
    let mut held = TcpStream::connect(&addr).unwrap();
    std::thread::sleep(Duration::from_millis(100)); // let the accept loop pick it up
    handle.shutdown();
    send_request(
        &mut held,
        "POST",
        "/v1/experiment",
        &[],
        &spec_toml("late", "[0.02]"),
    );
    let mut reader = BufReader::new(held);
    let (status, _, length) = read_head(&mut reader);
    assert_eq!(status, 503);
    let mut body = vec![0u8; length];
    reader.read_exact(&mut body).unwrap();
    assert!(String::from_utf8(body)
        .unwrap()
        .contains("\"code\":\"draining\""));

    let outcome = join.0.join().unwrap();
    assert!(outcome.drained);
}

#[test]
fn mid_stream_drain_truncates_typed_and_cache_resumes_byte_identically() {
    let dir = temp_dir("drain");
    let (addr, handle, join) = start_server(ServeConfig {
        cache_dir: Some(dir.clone()),
        drain_timeout: Duration::from_secs(60),
        ..ServeConfig::default()
    });

    // Stream a 3-cell grid and fire the drain as soon as the first
    // record arrives — deterministic mid-stream interruption.
    let spec_text = spec_toml("drainer", "[0.02, 0.04, 0.06]");
    let mut stream = TcpStream::connect(&*addr).unwrap();
    send_request(&mut stream, "POST", "/v1/experiment", &[], &spec_text);
    let mut reader = BufReader::new(stream);
    let (status, chunked, _) = read_head(&mut reader);
    assert_eq!(status, 200);
    assert!(chunked);
    let mut lines = Vec::new();
    let mut drained_at: Option<usize> = None;
    while let Some(chunk) = read_chunk(&mut reader) {
        lines.push(chunk.trim_end().to_string());
        let records_so_far = lines
            .iter()
            .filter(|l| l.starts_with("{\"schema_version\""))
            .count();
        if records_so_far == 1 && drained_at.is_none() {
            handle.shutdown();
            drained_at = Some(records_so_far);
        }
    }
    let outcome = join.0.join().unwrap();
    assert!(
        outcome.drained,
        "in-flight stream must finish within the deadline"
    );

    let summary = lines
        .iter()
        .rfind(|l| l.starts_with("{\"type\":\"summary\""))
        .expect("truncated stream still ends with a summary");
    let records: Vec<&String> = lines
        .iter()
        .filter(|l| l.starts_with("{\"schema_version\""))
        .collect();
    assert!(
        summary.contains("\"status\":\"draining\"") || summary.contains("\"status\":\"complete\""),
        "summary: {summary}"
    );
    assert!(!records.is_empty(), "at least the first cell was streamed");

    // The cache left behind is whole: a batch run over the same
    // directory reuses every streamed record and produces records
    // byte-identical to an uncached sequential run.
    let spec = ExperimentSpec::parse(&spec_text).unwrap();
    let resume_opts = EngineOptions {
        threads: 1,
        cache_dir: Some(dir.clone()),
        ..EngineOptions::default()
    };
    let (resumed, summary_run) = run_spec(&spec, &resume_opts).unwrap();
    assert_eq!(summary_run.cache_hits, records.len());
    assert_eq!(
        summary_run.corrupt_cache_lines, 0,
        "no torn lines after drain"
    );
    let (fresh, _) = run_spec(
        &spec,
        &EngineOptions {
            threads: 1,
            ..EngineOptions::default()
        },
    )
    .unwrap();
    let resumed_lines: Vec<String> = resumed.iter().map(|r| r.to_json_line()).collect();
    let fresh_lines: Vec<String> = fresh.iter().map(|r| r.to_json_line()).collect();
    assert_eq!(resumed_lines, fresh_lines, "resume must be byte-identical");
    let _ = std::fs::remove_dir_all(&dir);
}
