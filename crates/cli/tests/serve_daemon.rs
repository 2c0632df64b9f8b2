//! The CI `serve-soak` job as a tier-1 test. The built binary serves
//! four overlapping clients the records a sequential `experiment run`
//! writes, refuses a malformed spec and a malformed header with typed
//! errors, drains on a real SIGTERM that lands mid-stream, and leaves a
//! cache that a later `experiment run` replays to the same bytes. Under
//! `ORION_FAILPOINTS`, a panicking connection
//! handler neither wedges the drain nor the next request, and a crashed
//! cell is one `crashed` record that is never cached.

mod common;

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Output, Stdio};
use std::sync::mpsc;
use std::time::Duration;

use common::{assert_same_bytes, command, experiment, http, summary_u64, Sandbox};

const DRAIN_TIMEOUT_MS: &str = "30000";

/// A one-preset grid over `rates`, with the YAML's short measurement.
fn spec(name: &str, rates: &str) -> String {
    format!(
        "[experiment]\nname = \"{name}\"\n\n[grid]\npresets = [\"vc16\"]\nrates = [{rates}]\n\n\
         [measure]\nwarmup = 100\nsample_packets = 100\nmax_cycles = 20000\n"
    )
}

/// `n` distinct rates none of the other grids use.
fn many_rates(n: usize) -> String {
    let rates: Vec<String> = (1..=n).map(|i| format!("0.{:03}", 100 + i)).collect();
    rates.join(", ")
}

/// `serve --addr 127.0.0.1:0 <args>` under `failpoints`, and the
/// address its banner names. The rest of its stderr is drained.
fn start(args: &[&str], failpoints: Option<&str>) -> (Child, String) {
    let mut argv = vec!["serve", "--addr", "127.0.0.1:0"];
    argv.extend(args);
    let mut daemon = command(&argv, failpoints)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn orion-power-cli serve");
    // The first stderr line is printed once the listener is bound.
    let mut stderr = BufReader::new(daemon.stderr.take().unwrap());
    let mut banner = String::new();
    stderr.read_line(&mut banner).unwrap();
    std::thread::spawn(move || std::io::copy(&mut stderr, &mut std::io::sink()));
    let addr = banner
        .split("listening on ")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .unwrap_or_else(|| panic!("no address in {banner:?}"))
        .to_string();
    (daemon, addr)
}

/// `kill <signal> <pid>`; whether it was delivered.
fn kill(signal: &str, pid: u32) -> bool {
    let status = Command::new("kill")
        .args([signal, &pid.to_string()])
        .status();
    status.expect("run kill").success()
}

/// Waits up to `patience` for `daemon` to exit. A daemon that misses
/// its signal is a failure, not a hung test.
fn exit_within(daemon: Child, patience: Duration) -> Output {
    let pid = daemon.id();
    let (exited, exit) = mpsc::channel();
    std::thread::spawn(move || exited.send(daemon.wait_with_output().unwrap()));
    exit.recv_timeout(patience).unwrap_or_else(|_| {
        kill("-KILL", pid);
        panic!("the daemon did not exit within {patience:?}")
    })
}

#[test]
fn the_daemon_serves_refuses_drains_on_sigterm_and_leaves_a_resumable_cache() {
    let sandbox = Sandbox::new("serve-daemon");
    let union = sandbox.write("union.toml", &spec("soak", "0.01, 0.02, 0.03"));
    let reference = experiment(
        &sandbox,
        ["run", &union, "1", "ref-cache", "ref", "--quiet"],
        None,
    );
    assert_eq!(reference.code, 0, "{reference:?}");
    let reference_lines = sandbox.read("ref/soak.jsonl");

    let cache = sandbox.path("cache");
    let (daemon, addr) = start(
        &[
            "--cache-dir",
            &cache,
            "--drain-timeout-ms",
            DRAIN_TIMEOUT_MS,
        ],
        None,
    );
    let ready = http(&addr, "GET", "/readyz", &[], "");
    assert_eq!(ready.status, 200);
    assert!(ready.body().contains("\"status\":\"ready\""));

    // Four overlapping clients: 8 requested cells, 3 distinct.
    let grids = ["0.01, 0.02", "0.02, 0.03", "0.01, 0.03", "0.01, 0.02"];
    let streams: Vec<String> = std::thread::scope(|scope| {
        let clients: Vec<_> = grids
            .iter()
            .map(|grid| {
                let (addr, body) = (&addr, spec("soak", grid));
                scope.spawn(move || {
                    let reply = http(addr, "POST", "/v1/experiment", &[], &body);
                    assert_eq!(reply.status, 200);
                    reply.body()
                })
            })
            .collect();
        clients.into_iter().map(|c| c.join().unwrap()).collect()
    });
    for stream in &streams {
        let summary = stream.lines().last().unwrap_or_default();
        assert!(summary.starts_with("{\"type\":\"summary\""), "{stream}");
        assert!(summary.contains("\"status\":\"complete\""), "{stream}");
        let records: Vec<&str> = stream
            .lines()
            .filter(|l| l.starts_with("{\"schema_version\""))
            .collect();
        assert_eq!(records.len(), 2, "{stream}");
        for line in records {
            assert!(
                reference_lines.lines().any(|r| r == line),
                "a served record is not verbatim in the sequential artifact: {line}"
            );
        }
    }
    let metrics = http(&addr, "GET", "/metrics", &[], "").body();
    assert!(metrics.contains("\"runner_executed\":3"), "{metrics}");

    // Typed rejections, each counted once.
    let bad = http(
        &addr,
        "POST",
        "/v1/experiment",
        &[],
        "this is [not a valid spec",
    );
    assert_eq!(bad.status, 400);
    assert!(bad.body().contains("\"code\":\"bad-spec\""));
    let many = [("X-Orion-Deadline-Ms", "many")];
    let bad_header = http(&addr, "POST", "/v1/experiment", &many, &spec("h", "0.01"));
    assert_eq!(bad_header.status, 400);
    assert!(bad_header.body().contains("\"code\":\"bad-header\""));
    let metrics = http(&addr, "GET", "/metrics", &[], "").body();
    assert!(
        metrics.contains("\"serve_rejected_bad_spec\":1"),
        "{metrics}"
    );
    assert!(
        metrics.contains("\"serve_rejected_bad_header\":1"),
        "{metrics}"
    );

    // SIGTERM the moment the first record of a 40-cell stream arrives.
    let long = spec("long", &many_rates(40));
    let mut stream = http(&addr, "POST", "/v1/experiment", &[], &long);
    assert_eq!(stream.status, 200);
    let mut lines = Vec::new();
    while lines
        .iter()
        .all(|l: &String| !l.starts_with("{\"schema_version\""))
    {
        lines.push(stream.line().expect("a record before the stream ends"));
    }
    assert!(kill("-TERM", daemon.id()));
    lines.extend(std::iter::from_fn(|| stream.line()));
    let summary = lines.last().unwrap();
    assert!(summary.starts_with("{\"type\":\"summary\""), "{lines:?}");
    let status = ["\"status\":\"draining\"", "\"status\":\"complete\""];
    assert!(status.iter().any(|s| summary.contains(s)), "{lines:?}");
    let deadline = Duration::from_millis(DRAIN_TIMEOUT_MS.parse().unwrap());
    let exit = exit_within(daemon, deadline);
    assert_eq!(exit.status.code(), Some(0), "drained cleanly");

    // The cache left behind replays the reference byte for byte.
    let resume = experiment(
        &sandbox,
        ["run", &union, "1", "cache", "resume", "--json"],
        None,
    );
    assert_eq!(resume.code, 0, "{resume:?}");
    assert_eq!(summary_u64(&resume.stdout, "simulated"), 0, "{resume:?}");
    for file in ["soak.jsonl", "soak.csv"] {
        assert_same_bytes(
            &sandbox.path(&format!("ref/{file}")),
            &sandbox.path(&format!("resume/{file}")),
        );
    }
}

#[test]
fn a_panicking_handler_leaves_the_drain_prompt_and_a_crashed_cell_is_one_uncached_record() {
    // `vc16/uniform/r0.050000` is the key of one of the two cells.
    let failpoints = "serve.handle=panic@1,cell.run:vc16/uniform/r0.050000=panic@*";
    let args = ["--drain-timeout-ms", DRAIN_TIMEOUT_MS];
    let (daemon, addr) = start(&args, Some(failpoints));

    // The first connection's handler panics: the client is left
    // unanswered, and the daemon keeps serving.
    let mut first = TcpStream::connect(&addr).unwrap();
    write!(first, "GET /readyz HTTP/1.1\r\nContent-Length: 0\r\n\r\n").unwrap();
    let mut reply = String::new();
    let _ = first.read_to_string(&mut reply);
    assert!(reply.is_empty(), "the panicked handler answered: {reply}");

    let body = spec("faults", "0.04, 0.05");
    let crashed = |stream: &str| {
        let summary = stream.lines().last().unwrap_or_default();
        assert!(summary.contains("\"status\":\"complete\""), "{stream}");
        stream
            .lines()
            .filter(|l| l.contains("\"cell_outcome\":\"crashed\""))
            .count()
    };
    let metrics = || http(&addr, "GET", "/metrics", &[], "").body();
    let first_post = http(&addr, "POST", "/v1/experiment", &[], &body);
    assert_eq!(first_post.status, 200);
    assert_eq!(crashed(&first_post.body()), 1);
    let after_one = metrics();
    assert!(after_one.contains("\"runner_crashed\":1"), "{after_one}");
    assert!(after_one.contains("\"runner_executed\":2"), "{after_one}");

    // Crashes are never cached: the same spec re-executes that cell,
    // and only that cell.
    let again = http(&addr, "POST", "/v1/experiment", &[], &body);
    assert_eq!(crashed(&again.body()), 1);
    let after_two = metrics();
    assert!(after_two.contains("\"runner_executed\":3"), "{after_two}");
    assert!(after_two.contains("\"runner_cache_hits\":1"), "{after_two}");

    // Nothing is in flight, so the drain is prompt: the panicked
    // handler's connection is not still counted as open.
    assert!(kill("-TERM", daemon.id()));
    let exit = exit_within(daemon, Duration::from_secs(10));
    let stdout = String::from_utf8_lossy(&exit.stdout);
    assert_eq!(exit.status.code(), Some(0), "{stdout}");
    assert!(stdout.contains("drained cleanly"), "{stdout}");
}
