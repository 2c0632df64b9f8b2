//! Machine-readable performance smoke benchmark and regression gate.
//!
//! Measures the criterion suite's figures plus the 32×32 sharding pair in
//! `benches/{cycle_loop,fig5_sweep,fifo_ops}.rs`, but emits them as a
//! JSON baseline (`BENCH_cycle_loop.json` at the repo root) and can
//! compare a fresh measurement against a checked-in baseline with a
//! tolerance band — the CI `perf-smoke` job's teeth.
//!
//! ```text
//! perf_smoke --write BENCH_cycle_loop.json            # record a baseline
//! perf_smoke --check BENCH_cycle_loop.json            # gate: fail on >15% regression
//! perf_smoke --check BENCH_cycle_loop.json --tolerance 0.25
//! perf_smoke --quick ...                              # fewer repetitions (CI)
//! ```
//!
//! The binary exits non-zero when `--check` finds any throughput metric
//! more than `tolerance` below the baseline. Higher-than-baseline
//! numbers never fail: the gate is one-sided, regressions only.

use std::time::Instant;

use orion_core::{presets, NetworkConfig};
use orion_net::TrafficPattern;
use orion_obs::json::Json;
use orion_shard::ShardedNetwork;
use orion_sim::fifo::FlitFifo;
use orion_sim::flit::{make_packet, PacketId};
use orion_sim::{EngineMode, Network};
use rand::rngs::StdRng;
use rand::SeedableRng;

const SCHEMA: &str = "orion-bench-baseline-v1";

/// One measured throughput figure.
struct Metric {
    name: &'static str,
    /// Elements (cycles, flits or FIFO ops) per second; higher is better.
    per_sec: f64,
}

/// Steps a loaded network `cycles` times and returns flits delivered
/// (the same inner loop the criterion benches time).
fn run_cycles(cfg: &NetworkConfig, rate: f64, cycles: u64) -> u64 {
    run_cycles_engine(cfg, rate, cycles, EngineMode::Sparse)
}

/// Draws the injection events of a uniform-traffic run once, so the
/// timed low-rate loop replays a fixed workload (trace-replay style)
/// and measures the engine rather than the traffic generator.
fn record_events(
    cfg: &NetworkConfig,
    rate: f64,
    cycles: u64,
) -> Vec<(u64, orion_net::NodeId, orion_net::NodeId)> {
    let mut pattern = TrafficPattern::uniform(&cfg.topology, rate).expect("valid rate");
    let mut rng = StdRng::seed_from_u64(1);
    let nodes: Vec<_> = cfg.topology.nodes().collect();
    let mut events = Vec::new();
    for cycle in 0..cycles {
        for &node in &nodes {
            if pattern.should_inject(node, &mut rng) {
                if let Some(dst) = pattern.destination(node, &mut rng) {
                    events.push((cycle, node, dst));
                }
            }
        }
    }
    events
}

/// Replays a recorded workload for `cycles` cycles under the given
/// stepper and returns flits delivered — the sparse/dense low-rate
/// comparison runs both engines over identical events. The power
/// models are built once by the caller: model construction is common
/// to both engines and would otherwise dominate short idle-heavy runs.
fn replay_cycles_engine(
    built: &(orion_sim::NetworkSpec, orion_sim::PowerModels),
    events: &[(u64, orion_net::NodeId, orion_net::NodeId)],
    cycles: u64,
    mode: EngineMode,
) -> u64 {
    let mut net = Network::new(built.0.clone(), built.1.clone());
    net.set_engine_mode(mode);
    let mut cursor = 0;
    for cycle in 0..cycles {
        while cursor < events.len() && events[cursor].0 == cycle {
            let (_, src, dst) = events[cursor];
            net.enqueue_packet(src, dst, false);
            cursor += 1;
        }
        net.step();
    }
    net.stats().flits_delivered
}

/// [`run_cycles`] with the cycle stepper pinned.
fn run_cycles_engine(cfg: &NetworkConfig, rate: f64, cycles: u64, mode: EngineMode) -> u64 {
    let (spec, models) = cfg.build().expect("preset configs are valid");
    let mut net = Network::new(spec, models);
    net.set_engine_mode(mode);
    let mut pattern = TrafficPattern::uniform(&cfg.topology, rate).expect("valid rate");
    let mut rng = StdRng::seed_from_u64(1);
    let nodes: Vec<_> = cfg.topology.nodes().collect();
    for _ in 0..cycles {
        for &node in &nodes {
            if pattern.should_inject(node, &mut rng) {
                if let Some(dst) = pattern.destination(node, &mut rng) {
                    net.enqueue_packet(node, dst, false);
                }
            }
        }
        net.step();
    }
    net.stats().flits_delivered
}

/// The sharded twin of [`run_cycles`]: same spec, same traffic, same
/// cycle count, executed across `shards` partitions (threaded when the
/// host has the cores for it). Delivered-flit totals are bit-identical
/// to the single engine's, so the two metrics are directly comparable.
fn run_cycles_sharded(cfg: &NetworkConfig, rate: f64, cycles: u64, shards: usize) -> u64 {
    let (spec, models) = cfg.build().expect("preset configs are valid");
    let mut net = ShardedNetwork::new(spec, models, shards);
    let mut pattern = TrafficPattern::uniform(&cfg.topology, rate).expect("valid rate");
    let mut rng = StdRng::seed_from_u64(1);
    let nodes: Vec<_> = cfg.topology.nodes().collect();
    for _ in 0..cycles {
        for &node in &nodes {
            if pattern.should_inject(node, &mut rng) {
                if let Some(dst) = pattern.destination(node, &mut rng) {
                    net.enqueue_packet(node, dst, false);
                }
            }
        }
        net.step();
    }
    net.stats_merged().flits_delivered
}

/// Runs `work` `reps` times and returns the median elements/second.
fn median_rate(reps: usize, mut work: impl FnMut() -> u64) -> f64 {
    let mut rates: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            let elements = work();
            elements as f64 / start.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.partial_cmp(b).expect("rates are finite"));
    rates[rates.len() / 2]
}

fn measure(quick: bool) -> Vec<Metric> {
    let (reps, cycles) = if quick { (3, 2_000) } else { (7, 6_000) };

    // cycle_loop: whole-engine cycles/second on the VC16 on-chip preset
    // at moderate load — the generic hot-loop figure.
    let vc16 = presets::vc16_onchip();
    let cycle_loop = median_rate(reps, || {
        run_cycles(&vc16, 0.05, cycles);
        cycles
    });

    // fig5_sweep: flits simulated per second on the VC64 Fig. 5
    // configuration — the acceptance metric of the allocation-free
    // rewrite (ISSUE 5 requires >= 2x the pre-rewrite baseline).
    let vc64 = presets::vc64_onchip();
    let fig5 = median_rate(reps, || run_cycles(&vc64, 0.10, cycles));

    // fig5_sweep_32x32: the same sweep point on a 32×32 torus (1024
    // nodes), single-engine and 8-way sharded. On a multi-core host
    // the sharded figure tracks core count; on a single core it pays
    // only the mailbox overhead (see docs/SCALING.md). The cycle count
    // is fixed across quick/full mode: with each cycle stepping 64×
    // the routers of the 4×4 loops, construction and injection ramp-up
    // are a visible fraction of short runs, and a mode-dependent count
    // would make CI quick checks incomparable with a full baseline.
    let mut vc64_32 = presets::vc64_onchip();
    vc64_32.topology = orion_net::Topology::torus(&[32, 32]).expect("32x32 torus is valid");
    let big_cycles = 400;
    let fig5_32 = median_rate(reps, || run_cycles(&vc64_32, 0.02, big_cycles));
    let fig5_32_s8 = median_rate(reps, || run_cycles_sharded(&vc64_32, 0.02, big_cycles, 8));

    // fig5_sweep_vc64_low_rate: the VC64 router deep in the latency
    // plateau (rate 0.0005) on a 16x16 torus, where the sparse
    // activity-driven engine steps the handful of routers holding
    // flits while the dense reference visits all 256 every cycle. The
    // workload is recorded once and replayed (trace style) so the
    // timed loop measures the engine, not the traffic RNG. The
    // dense-reference figure on identical traffic is emitted alongside
    // so the engine speedup is visible (and gated via
    // --engine-speedup).
    // Like big_cycles above, the count is fixed across quick/full
    // mode: throughput at this load is cycle-count-sensitive (startup
    // ramp), and a mode-dependent count would make CI quick checks
    // incomparable with a full baseline.
    let mut vc64_16 = presets::vc64_onchip();
    vc64_16.topology = orion_net::Topology::torus(&[16, 16]).expect("16x16 torus is valid");
    let low_cycles = 6_000;
    let low_events = record_events(&vc64_16, 0.0005, low_cycles);
    let vc64_16_built = vc64_16.build().expect("preset configs are valid");
    let fig5_low = median_rate(reps, || {
        replay_cycles_engine(&vc64_16_built, &low_events, low_cycles, EngineMode::Sparse)
    });
    let fig5_low_dense = median_rate(reps, || {
        replay_cycles_engine(
            &vc64_16_built,
            &low_events,
            low_cycles,
            EngineMode::DenseReference,
        )
    });

    // cycle_skip_idle: idle cycles traversed per second via
    // Network::skip_idle_cycles on a drained VC64 network — the
    // trace-replay dead-air fast path. The net is built and drained
    // once OUTSIDE the timed closure: a drained network stays drained
    // across skips, and folding the fixed setup into the measurement
    // would make quick-mode figures (fewer skips to amortize over)
    // incomparable with a full-mode baseline.
    let skip_gap = 10_000u64;
    let skip_gaps = if quick { 200u64 } else { 1_000 };
    let mut skip_net = {
        let (spec, models) = vc64.build().expect("preset configs are valid");
        let mut net = Network::new(spec, models);
        net.enqueue_packet(orion_net::NodeId(0), orion_net::NodeId(5), false);
        while !net.is_drained() || !net.is_idle() || net.next_event_cycle().is_some() {
            net.step();
        }
        net
    };
    let cycle_skip = median_rate(reps, || {
        for _ in 0..skip_gaps {
            let target = skip_net.cycle() + skip_gap;
            assert_eq!(skip_net.skip_idle_cycles(target), target, "skip fell short");
        }
        skip_gap * skip_gaps
    });

    // fifo_ops: ring-buffer push/pop pairs per second, isolated from
    // the router logic around it.
    let fifo_flits = {
        let t = orion_net::Topology::torus(&[4, 4]).expect("valid torus");
        let r = std::sync::Arc::new(orion_net::dor_route(
            &t,
            orion_net::NodeId(0),
            orion_net::NodeId(5),
            orion_net::DimensionOrder::YFirst,
        ));
        make_packet(
            PacketId(1),
            orion_net::NodeId(0),
            orion_net::NodeId(5),
            r,
            8,
            0,
            false,
        )
    };
    let fifo_iters: u64 = if quick { 200_000 } else { 1_000_000 };
    let fifo_ops = median_rate(reps, || {
        let mut fifo: FlitFifo<orion_sim::Flit> = FlitFifo::new(8, 256);
        // Keep two resident so pushes hit the SRAM path, not the bypass.
        fifo.push(fifo_flits[0].clone(), fifo_flits[0].payload);
        fifo.push(fifo_flits[1].clone(), fifo_flits[1].payload);
        for i in 0..fifo_iters {
            let f = &fifo_flits[(i % 8) as usize];
            fifo.push(f.clone(), f.payload);
            std::hint::black_box(fifo.pop());
        }
        fifo_iters
    });

    vec![
        Metric {
            name: "cycle_loop_cycles_per_sec",
            per_sec: cycle_loop,
        },
        Metric {
            name: "fig5_sweep_vc64_flits_per_sec",
            per_sec: fig5,
        },
        Metric {
            name: "fig5_sweep_32x32_flits_per_sec",
            per_sec: fig5_32,
        },
        Metric {
            name: "fig5_sweep_32x32_s8_flits_per_sec",
            per_sec: fig5_32_s8,
        },
        Metric {
            name: "fig5_sweep_vc64_low_rate_flits_per_sec",
            per_sec: fig5_low,
        },
        Metric {
            name: "fig5_sweep_vc64_low_rate_dense_flits_per_sec",
            per_sec: fig5_low_dense,
        },
        Metric {
            name: "cycle_skip_idle_cycles_per_sec",
            per_sec: cycle_skip,
        },
        Metric {
            name: "fifo_ops_per_sec",
            per_sec: fifo_ops,
        },
    ]
}

fn to_json(metrics: &[Metric]) -> String {
    let mut s = String::new();
    let mut o = Json::pretty(&mut s);
    o.key("schema").str(SCHEMA);
    o.key("bench").str("cycle_loop");
    let mut rates = o.key("metrics").block();
    for m in metrics {
        rates.key(m.name).fixed(m.per_sec, 1);
    }
    rates.end();
    o.end();
    s.push('\n');
    s
}

/// Minimal parser for the baseline JSON this binary writes: extracts
/// `"name": number` pairs. Tolerates reformatting but not renaming.
fn parse_baseline(text: &str) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let line = line.trim().trim_end_matches(',');
        let Some((key, value)) = line.split_once(':') else {
            continue;
        };
        let key = key.trim().trim_matches('"');
        if let Ok(v) = value.trim().parse::<f64>() {
            out.push((key.to_string(), v));
        }
    }
    out
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let flag_value = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let tolerance: f64 = flag_value("--tolerance")
        .map(|t| t.parse().expect("--tolerance takes a fraction, e.g. 0.15"))
        .unwrap_or(0.15);

    let metrics = measure(quick);
    for m in &metrics {
        println!("bench {:<42} {:>14.1} elem/s", m.name, m.per_sec);
    }

    // Engine-speedup gate: the sparse stepper must beat the dense
    // reference on the low-rate workload by at least `floor`×.
    let metric = |name: &str| {
        metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.per_sec)
            .expect("metric exists")
    };
    let speedup = metric("fig5_sweep_vc64_low_rate_flits_per_sec")
        / metric("fig5_sweep_vc64_low_rate_dense_flits_per_sec");
    println!(
        "bench {:<42} {:>14.2} x",
        "sparse_over_dense_low_rate", speedup
    );
    if let Some(floor) = flag_value("--engine-speedup") {
        let floor: f64 = floor
            .parse()
            .expect("--engine-speedup takes a factor, e.g. 1.5");
        if speedup < floor {
            eprintln!(
                "perf-smoke: sparse engine is only {speedup:.2}x the dense \
                 reference on the low-rate bench (floor {floor}x)"
            );
            std::process::exit(1);
        }
    }

    if let Some(path) = flag_value("--write") {
        std::fs::write(&path, to_json(&metrics)).expect("baseline file is writable");
        println!("wrote baseline {path}");
    }

    if let Some(path) = flag_value("--check") {
        let text = std::fs::read_to_string(&path).expect("baseline file exists");
        let baseline = parse_baseline(&text);
        let mut failed = false;
        for m in &metrics {
            let Some((_, base)) = baseline.iter().find(|(k, _)| k == m.name) else {
                println!("check {:<34} no baseline entry, skipping", m.name);
                continue;
            };
            let floor = base * (1.0 - tolerance);
            let verdict = if m.per_sec < floor {
                failed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "check {:<34} {:>14.1} vs baseline {:>14.1} (floor {:>14.1}) {verdict}",
                m.name, m.per_sec, base, floor
            );
        }
        if failed {
            eprintln!(
                "perf-smoke: throughput regressed more than {:.0}%",
                tolerance * 100.0
            );
            std::process::exit(1);
        }
        println!("perf-smoke: within {:.0}% of baseline", tolerance * 100.0);
    }
}
