//! `serve_mixed`: closed-loop clients against an in-process daemon.
//!
//! An `orion_serve::Server` on `127.0.0.1:0` with a cache directory and
//! `workers = nproc` serves `nproc` client connections. Each client, in
//! a closed loop, posts a four-cell grid with a seed the server has
//! never seen (*cold*: simulate, append to the cache), posts the same
//! grid twice more (*warm*: all hits), and every eighth iteration all
//! clients post one shared grid at the same moment (*dedup*). A pass is
//! a fixed block of iterations against a fresh daemon and cache, so
//! every pass returns the same records. Cache writes sit beside reads,
//! so a gain for one that costs the other shows.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use orion_exp::{run_cell, CellRecord, ExperimentSpec};
use orion_serve::{ServeConfig, ServeOutcome, Server, ShutdownHandle};

use super::{Env, Pass, Traced, Workload};
use crate::catalog::Metric;
use crate::digest::records_digest;
use crate::gen::{serve_schedule, serve_spec, Step, SERVE_CELLS};
use crate::http::{exchange, is_record_line, Exchange};
use crate::span::{SpanId, Tracer};
use crate::stats::median;

pub struct ServeMixed;

pub struct Ready {
    clients: usize,
    schedule: Vec<Vec<Step>>,
    passes: usize,
    /// The set-up's daemon, taken down when the set-up is dropped.
    _warm: Daemon,
}

/// Iterations of the mix per client in one pass.
const ITERATIONS: usize = 32;
/// Warm-up cycles of every served cell (the spec leaves the default).
const CELL_WARMUP: u64 = 1_000;

/// A daemon running on its own thread until stopped.
pub struct Daemon {
    pub addr: SocketAddr,
    handle: ShutdownHandle,
    thread: Option<JoinHandle<std::io::Result<ServeOutcome>>>,
}

impl Daemon {
    pub fn start(cache: &Path, workers: usize) -> Daemon {
        let server = Server::bind(ServeConfig {
            cache_dir: Some(cache.to_path_buf()),
            workers,
            ..ServeConfig::default()
        })
        .expect("loopback binds and a fresh cache directory locks");
        let addr = server
            .local_addr()
            .expect("a bound listener has an address");
        let handle = server.shutdown_handle();
        let thread = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            handle,
            thread: Some(thread),
        }
    }

    /// Drains the daemon and waits for its thread.
    pub fn stop(mut self) -> ServeOutcome {
        self.handle.shutdown();
        let thread = self.thread.take().expect("stopped at most once");
        thread
            .join()
            .expect("the daemon thread does not panic")
            .expect("the daemon drains and flushes")
    }
}

impl Drop for Daemon {
    /// A daemon nobody stopped is still taken down and waited for.
    fn drop(&mut self) {
        if let Some(thread) = self.thread.take() {
            self.handle.shutdown();
            let _ = thread.join();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Cold,
    Warm,
    Dedup,
}

/// One request as its client saw it.
pub struct Request {
    pub class: Class,
    pub seed: u64,
    pub exchange: Exchange,
}

impl Request {
    fn ms(from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() * 1e3
    }
    pub fn total_ms(&self) -> f64 {
        Self::ms(self.exchange.sent, self.exchange.done)
    }
    pub fn head_ms(&self) -> f64 {
        Self::ms(self.exchange.sent, self.exchange.head)
    }
    pub fn ttfr_ms(&self) -> f64 {
        Self::ms(self.exchange.sent, self.exchange.first_record)
    }
    fn records(&self) -> impl Iterator<Item = &String> {
        self.exchange.lines.iter().filter(|l| is_record_line(l))
    }
}

/// Runs every client's schedule to completion, one thread per client,
/// each sending its next request only after the previous one finished.
pub fn session(addr: SocketAddr, schedule: &[Vec<Step>]) -> Vec<Vec<Request>> {
    let barrier = Arc::new(Barrier::new(schedule.len()));
    std::thread::scope(|scope| {
        let clients: Vec<_> = schedule
            .iter()
            .map(|steps| {
                let barrier = Arc::clone(&barrier);
                scope.spawn(move || {
                    let mut done = Vec::with_capacity(steps.len());
                    for &step in steps {
                        let (class, seed) = match step {
                            Step::Cold(s) => (Class::Cold, s),
                            Step::Warm(s) => (Class::Warm, s),
                            Step::Dedup(s) => {
                                barrier.wait();
                                (Class::Dedup, s)
                            }
                        };
                        let exchange = exchange(addr, "POST", "/v1/experiment", &serve_spec(seed))
                            .expect("the daemon answers on loopback");
                        done.push(Request {
                            class,
                            seed,
                            exchange,
                        });
                    }
                    done
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect()
    })
}

/// Checks every response and folds the session into a [`Pass`] (wall
/// time left for the caller to fill in).
fn account(requests: &[Vec<Request>]) -> Pass {
    let mut pass = Pass::default();
    let mut distinct: BTreeMap<String, CellRecord> = BTreeMap::new();
    for request in requests.iter().flatten() {
        pass.attempted += 1;
        pass.ops_ms.push(request.total_ms());
        let lines = &request.exchange.lines;
        let complete = lines
            .last()
            .is_some_and(|l| l.contains("\"type\":\"summary\"") && l.contains("\"complete\""));
        if request.exchange.status != 200 || !complete || request.records().count() != SERVE_CELLS {
            pass.fail(format!(
                "seed {}: status {} with {} records, last line {:?}",
                request.seed,
                request.exchange.status,
                request.records().count(),
                lines.last()
            ));
            continue;
        }
        for line in request.records() {
            pass.cells += 1;
            let Some(record) = CellRecord::from_json_line(line) else {
                pass.fail(format!("unparseable record line {line:?}"));
                continue;
            };
            if record.cell_outcome != "ok" || record.outcome != "completed" {
                pass.fail(format!(
                    "{}: {}/{}",
                    record.cell, record.cell_outcome, record.outcome
                ));
            }
            // A cell served twice (cold then warm, or to two clients)
            // must be the same record every time.
            match distinct.get(&record.cell) {
                Some(first) if first.to_json_line() != record.to_json_line() => {
                    pass.fail(format!(
                        "{} was served with two different records",
                        record.cell
                    ));
                }
                Some(_) => {}
                None => {
                    distinct.insert(record.cell.clone(), record);
                }
            }
        }
    }
    let records: Vec<CellRecord> = distinct.into_values().collect();
    pass.sim_cycles = records
        .iter()
        .map(|r| r.measured_cycles + CELL_WARMUP)
        .sum();
    pass.flits = records.iter().map(|r| r.flits_delivered).sum();
    pass.digest = records_digest(&records);
    pass
}

/// A counter or gauge of the daemon's `/metrics` body.
fn scraped(body: &str, key: &str) -> f64 {
    let needle = format!("\"{key}\":");
    body.find(&needle)
        .map(|at| &body[at + needle.len()..])
        .and_then(|rest| {
            let end = rest
                .find(|c: char| !(c.is_ascii_digit() || ".-+eE".contains(c)))
                .unwrap_or(rest.len());
            rest[..end].trim().parse().ok()
        })
        .unwrap_or(0.0)
}

/// What one session, seen from its clients, measured.
pub struct SessionTrace {
    pub roots: Vec<SpanId>,
    pub wall: Duration,
    pub pass: Pass,
    pub metrics: Vec<Metric>,
}

/// Runs a session against a fresh daemon and records a span per
/// request phase. Cold requests get a child span for the time their
/// four cells take when run directly, outside the daemon: what is left
/// of the request is the daemon's own (HTTP, admission, cache, lock).
pub fn session_decomposed(
    cache: &Path,
    workers: usize,
    schedule: &[Vec<Step>],
    tracer: &mut Tracer,
) -> SessionTrace {
    let _ = std::fs::remove_dir_all(cache);
    let daemon = Daemon::start(cache, workers);
    let health: Vec<f64> = (0..20)
        .map(|_| {
            let e = exchange(daemon.addr, "GET", "/healthz", "").expect("the daemon is up");
            assert_eq!(e.status, 200, "healthz answers 200");
            e.done.duration_since(e.sent).as_secs_f64() * 1e6
        })
        .collect();
    let start = Instant::now();
    let requests = session(daemon.addr, schedule);
    let wall = start.elapsed();
    let scrape = exchange(daemon.addr, "GET", "/metrics", "").expect("the daemon is up");
    let outcome = daemon.stop();
    let body = scrape.lines.join("\n");

    let mut pass = account(&requests);
    pass.wall = wall;
    if !outcome.drained {
        pass.fail("the daemon did not drain".to_string());
    }

    let mut roots = Vec::new();
    for client in &requests {
        let (Some(first), Some(last)) = (client.first(), client.last()) else {
            continue;
        };
        let at = |t: Instant| tracer.ns_since_epoch(t);
        let (begin, end) = (at(first.exchange.sent), at(last.exchange.done));
        let root = tracer.add(None, "serve.client", begin, end, client.len() as u64);
        roots.push(root);
        for request in client {
            let e = &request.exchange;
            let name = match request.class {
                Class::Cold => "serve.request.cold",
                Class::Warm => "serve.request.warm",
                Class::Dedup => "serve.request.dedup",
            };
            let (sent, done) = (tracer.ns_since_epoch(e.sent), tracer.ns_since_epoch(e.done));
            let span = tracer.add(Some(root), name, sent, done, 1);
            if request.class == Class::Cold {
                let spec = ExperimentSpec::parse(&serve_spec(request.seed)).expect("valid spec");
                let replay = Instant::now();
                for cell in spec.expand() {
                    std::hint::black_box(run_cell(&cell));
                }
                let spent = (replay.elapsed().as_nanos() as u64).min(done - sent);
                tracer.add(
                    Some(span),
                    "core.run_cell",
                    sent,
                    sent + spent,
                    SERVE_CELLS as u64,
                );
            }
        }
    }

    let of = |class: Class, f: fn(&Request) -> f64| -> Vec<f64> {
        requests
            .iter()
            .flatten()
            .filter(|r| r.class == class)
            .map(f)
            .collect()
    };
    let all = |f: fn(&Request) -> f64| -> Vec<f64> { requests.iter().flatten().map(f).collect() };
    let p50 = |name: &'static str, samples: Vec<f64>| {
        // A session too short for a dedup step still reports the metric.
        let value = if samples.is_empty() {
            0.0
        } else {
            median(&samples)
        };
        Metric::new(name, value, samples.len())
    };
    let rejected = [
        "over_capacity",
        "budget_exhausted",
        "draining",
        "bad_spec",
        "bad_header",
    ]
    .iter()
    .map(|k| scraped(&body, &format!("serve_rejected_{k}")))
    .sum::<f64>();
    let n = pass.attempted as usize;
    let metrics = vec![
        p50("serve.health_rtt_us", health),
        p50("serve.cold_p50_ms", of(Class::Cold, Request::total_ms)),
        p50("serve.warm_p50_ms", of(Class::Warm, Request::total_ms)),
        p50("serve.dedup_p50_ms", of(Class::Dedup, Request::total_ms)),
        p50("serve.cold_ttfr_ms", of(Class::Cold, Request::ttfr_ms)),
        p50("serve.warm_ttfr_ms", of(Class::Warm, Request::ttfr_ms)),
        p50("serve.ttfr_p50_ms", all(Request::ttfr_ms)),
        p50("serve.head_ms", all(Request::head_ms)),
        Metric::new("serve.requests", scraped(&body, "serve_requests"), n),
        Metric::new("serve.rejected", rejected, n),
        Metric::new("serve.dedup_hits", scraped(&body, "runner_deduped"), n),
    ];
    SessionTrace {
        roots,
        wall,
        pass,
        metrics,
    }
}

impl Workload for ServeMixed {
    const NAME: &'static str = "serve_mixed";
    type Ready = Ready;

    fn setup(env: &Env, round: usize) -> Ready {
        let clients = env.nproc.max(1);
        let schedule = serve_schedule(env.seed, clients, ITERATIONS);
        // Bring a daemon up, wait until it answers, serve one request:
        // what a client waits for between starting a daemon and its
        // first records.
        let cache = env.scratch.join(format!("serve-setup-{round}"));
        let daemon = Daemon::start(&cache, clients);
        let health = exchange(daemon.addr, "GET", "/healthz", "").expect("the daemon is up");
        assert_eq!(health.status, 200, "healthz answers 200");
        let warm = exchange(daemon.addr, "POST", "/v1/experiment", &serve_spec(0))
            .expect("the daemon answers on loopback");
        assert_eq!(warm.status, 200, "the warm-up request is served");
        Ready {
            clients,
            schedule,
            passes: 0,
            _warm: daemon,
        }
    }

    fn pass(env: &Env, ready: &mut Ready) -> Pass {
        let cache = env.scratch.join(format!("serve-cache-{}", ready.passes));
        ready.passes += 1;
        let daemon = Daemon::start(&cache, ready.clients);
        let start = Instant::now();
        let requests = session(daemon.addr, &ready.schedule);
        let wall = start.elapsed();
        let outcome = daemon.stop();
        let _ = std::fs::remove_dir_all(&cache);
        let mut pass = account(&requests);
        pass.wall = wall;
        if !outcome.drained {
            pass.fail("the daemon did not drain".to_string());
        }
        pass
    }

    /// The request schedule, and so the record set, depends on how many
    /// clients the host's cores allow.
    fn golden_name(env: &Env) -> String {
        format!("{}.c{}", Self::NAME, env.nproc.max(1))
    }

    fn traced(env: &Env, ready: &mut Ready, tracer: &mut Tracer) -> Traced {
        let cache = env.scratch.join("serve-traced-cache");
        let session = session_decomposed(&cache, ready.clients, &ready.schedule, tracer);
        // Clients always timestamp their own requests, so the traced
        // session is the untraced one: tracing adds nothing to it.
        Traced {
            untraced: session.wall,
            traced: session.wall,
            roots: session.roots,
            metrics: session.metrics,
            attempted: session.pass.attempted,
            failed: session.pass.failed,
            failures: session.pass.failures,
        }
    }
}
