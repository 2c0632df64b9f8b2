//! Per-layer probes: what a traced run measures beyond its own
//! workload's decomposition.
//!
//! Every traced run reports every per-layer metric. The unit costs of
//! single calls (`*.micro` below) and the paper's own cell are measured
//! the same way in every run. The four session-like decompositions —
//! trace replay, checkpointed run, search, serve session — come from the
//! workload's own traced pass at full size when that workload is the
//! one running, and from a short version of the same code otherwise.

use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use orion_ckpt::file::{decode_checkpoint, encode_checkpoint};
use orion_ckpt::{load_checkpoint, save_checkpoint};
use orion_core::{
    presets, Experiment, NetworkConfig, ObserveOptions, RunCheckpoint, RunControl, RunHook,
    RunResult,
};
use orion_exp::spec::preset_config;
use orion_exp::{
    run_cell, write_artifacts, CacheLock, Cell, CellRecord, CellRunner, ExperimentSpec, Objectives,
    ParetoFront, ResultCache, Supervision,
};
use orion_net::{dor_route, NodeId, Topology, TrafficPattern};
use orion_power::WriteActivity;
use orion_serve::AdmissionGate;
use orion_shard::ShardedNetwork;
use orion_sim::fifo::FlitFifo;
use orion_sim::flit::{make_packet, PacketId};
use orion_sim::{scaled_hamming, Component, MatrixArbiter, Network};
use orion_tech::{ProcessNode, Technology};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use crate::catalog::Metric;
use crate::gen::{bursty_trace, serve_schedule, BurstShape};
use crate::host::bench_dir;
use crate::layers::{replay_decomposed, run_cell_decomposed};
use crate::span::{Busy, Tracer};
use crate::stats::median;
use crate::workloads::explore_evo::{load_spec, search_decomposed, search_metrics};
use crate::workloads::serve_mixed::session_decomposed;
use crate::workloads::torus32_ckpt::{
    ckpt_metrics, experiment, run_hooked, shard_count, torus32_vc64, EVERY, RATE,
};
use crate::workloads::trace16_lowrate::{replay_metrics, through_a_file, torus16_vc64};
use crate::workloads::Env;

/// Median nanoseconds per iteration of `work` over `reps` timed loops of
/// `iters` iterations each.
fn ns_per_iter(reps: usize, iters: u64, mut work: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for i in 0..iters {
                work(i);
            }
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&samples)
}

/// Median duration of `reps` single calls.
fn median_of(reps: usize, mut call: impl FnMut() -> Duration) -> Duration {
    let samples: Vec<f64> = (0..reps).map(|_| call().as_secs_f64()).collect();
    Duration::from_secs_f64(median(&samples))
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

const REPS: usize = 5;

fn tech_power(seed: u64, out: &mut Vec<Metric>) {
    let nodes = [ProcessNode::Um180, ProcessNode::Um130, ProcessNode::Nm100];
    let ns = ns_per_iter(REPS, 3_000, |i| {
        std::hint::black_box(Technology::new(std::hint::black_box(nodes[i as usize % 3])));
    });
    out.push(Metric::new("tech.node_build_us", ns / 1e3, REPS * 3_000));

    let designs: Vec<NetworkConfig> = orion_exp::spec::PRESET_NAMES
        .iter()
        .map(|name| preset_config(name).expect("preset names resolve"))
        .collect();
    let ns = ns_per_iter(REPS, 60, |i| {
        let config = &designs[i as usize % designs.len()];
        config.validate().expect("presets are valid");
        std::hint::black_box(config.build().expect("presets build"));
    });
    out.push(Metric::new("power.build_us", ns / 1e3, REPS * 60));

    let (_, models) = presets::vc64_onchip().build().expect("presets build");
    let mut rng = StdRng::seed_from_u64(seed);
    let payloads: Vec<u64> = (0..1024).map(|_| rng.next_u64()).collect();
    let mut joules = 0.0;
    let calls_per_iter = 5.0;
    let ns = ns_per_iter(REPS, 200_000, |i| {
        let (a, b) = (
            payloads[i as usize % 1024],
            payloads[(i as usize + 1) % 1024],
        );
        let toggled = scaled_hamming(a, b, models.flit_bits);
        let activity = WriteActivity {
            switching_bitlines: toggled,
            switching_cells: toggled,
        };
        joules += models.buffer.write_energy(&activity).0
            + models.buffer.read_energy().0
            + models.crossbar.traversal_energy(toggled).0
            + models
                .arbiter
                .arbitration_energy(a & 0x1f, b & 0x1f, (a >> 5) as u32 & 3)
                .0
            + models.link.traversal_energy(toggled).0;
    });
    std::hint::black_box(joules);
    out.push(Metric::new(
        "power.event_energy_ns",
        ns / calls_per_iter,
        REPS * 200_000,
    ));
}

fn net_micro(seed: u64, scratch: &Path, out: &mut Vec<Metric>) {
    let torus4 = Topology::torus(&[4, 4]).expect("valid torus");
    let torus32 = Topology::torus(&[32, 32]).expect("valid torus");
    let mut pattern = TrafficPattern::uniform(&torus4, 0.10).expect("valid rate");
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = torus4.nodes().collect();
    let ns = ns_per_iter(REPS, 400_000, |i| {
        let node = nodes[i as usize % nodes.len()];
        if pattern.should_inject(node, &mut rng) {
            std::hint::black_box(pattern.destination(node, &mut rng));
        }
    });
    out.push(Metric::new("net.inject_ns", ns, REPS * 400_000));

    let pairs: Vec<(usize, usize)> = (0..512)
        .map(|_| (rng.gen_range(0..1024usize), rng.gen_range(0..1024usize)))
        .collect();
    let order = || orion_net::DimensionOrder::YFirst;
    let ns = ns_per_iter(REPS, 20_000, |i| {
        let (a, b) = pairs[i as usize % pairs.len()];
        std::hint::black_box(dor_route(&torus4, NodeId(a % 16), NodeId(b % 16), order()));
        std::hint::black_box(dor_route(&torus32, NodeId(a), NodeId(b), order()));
    });
    out.push(Metric::new("net.route_ns", ns / 2.0, REPS * 40_000));

    let trace = bursty_trace(seed, &MINI_TRACE);
    let path = scratch.join("probe.trace");
    through_a_file(&trace, &path);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
    let spent = median_of(REPS, || {
        let file = std::fs::File::open(&path).expect("the trace was just written");
        timed(|| orion_net::TraceTraffic::read_from(std::io::BufReader::new(file)).expect("parses"))
            .1
    });
    out.push(Metric::new(
        "net.trace_read_mb_per_s",
        bytes as f64 / 1e6 / spent.as_secs_f64(),
        REPS,
    ));
}

fn sim_micro(seed: u64, out: &mut Vec<Metric>) {
    for (name, config, reps) in [
        ("sim.new_us.t4", presets::vc64_onchip(), 200),
        ("sim.new_us.t16", torus16_vc64(), 20),
        ("sim.new_us.t32", torus32_vc64(), REPS),
    ] {
        let built = config.build().expect("presets build");
        let spent = median_of(reps, || {
            let (spec, models) = built.clone();
            timed(|| std::hint::black_box(Network::new(spec, models))).1
        });
        out.push(Metric::new(name, spent.as_secs_f64() * 1e6, reps));
    }

    let torus4 = Topology::torus(&[4, 4]).expect("valid torus");
    let route = std::sync::Arc::new(dor_route(
        &torus4,
        NodeId(0),
        NodeId(5),
        orion_net::DimensionOrder::YFirst,
    ));
    let flits = make_packet(PacketId(1), NodeId(0), NodeId(5), route, 8, 0, false);
    let mut fifo: FlitFifo<orion_sim::Flit> = FlitFifo::new(8, 256);
    // Two resident, so pushes take the SRAM path and not the bypass.
    fifo.push(flits[0].clone(), flits[0].payload);
    fifo.push(flits[1].clone(), flits[1].payload);
    let ns = ns_per_iter(REPS, 400_000, |i| {
        let f = &flits[i as usize % 8];
        fifo.push(f.clone(), f.payload);
        std::hint::black_box(fifo.pop());
    });
    out.push(Metric::new("sim.fifo_op_ns", ns, REPS * 400_000));

    let mut rng = StdRng::seed_from_u64(seed);
    let masks: Vec<u128> = (0..1024)
        .map(|_| u128::from(rng.next_u64() & 0x1f))
        .collect();
    let mut arbiter = MatrixArbiter::new(5);
    let ns = ns_per_iter(REPS, 400_000, |i| {
        std::hint::black_box(arbiter.arbitrate(masks[i as usize % 1024]));
    });
    out.push(Metric::new("sim.arb_ns", ns, REPS * 400_000));
}

/// Cycles a 32x32 probe ramps up before its steps are timed, and the
/// cycles timed after that.
const T32_RAMP: u64 = 100;
const T32_TIMED: u64 = 300;

/// What the 32x32 probe needs of either engine.
trait Engine {
    fn enqueue(&mut self, src: NodeId, dst: NodeId);
    fn step(&mut self);
}

impl Engine for Network {
    fn enqueue(&mut self, src: NodeId, dst: NodeId) {
        self.enqueue_packet(src, dst, false);
    }
    fn step(&mut self) {
        Network::step(self);
    }
}

impl Engine for ShardedNetwork {
    fn enqueue(&mut self, src: NodeId, dst: NodeId) {
        self.enqueue_packet(src, dst, false);
    }
    fn step(&mut self) {
        ShardedNetwork::step(self);
    }
}

/// Drives the same uniform traffic into either engine and times the
/// steps after the ramp.
fn drive32(config: &NetworkConfig, seed: u64, net: &mut impl Engine) -> Busy {
    let mut pattern = TrafficPattern::uniform(&config.topology, RATE).expect("valid rate");
    let mut rng = StdRng::seed_from_u64(seed);
    let nodes: Vec<NodeId> = config.topology.nodes().collect();
    let mut steps = Busy::default();
    for cycle in 0..T32_RAMP + T32_TIMED {
        for &node in &nodes {
            if pattern.should_inject(node, &mut rng) {
                if let Some(dst) = pattern.destination(node, &mut rng) {
                    net.enqueue(node, dst);
                }
            }
        }
        if cycle >= T32_RAMP {
            steps.time(|| net.step());
        } else {
            net.step();
        }
    }
    steps
}

fn torus32_micro(env: &Env, out: &mut Vec<Metric>) {
    let config = torus32_vc64();
    let (spec, models) = config.build().expect("presets build");
    let shards = shard_count(env.nproc);

    let mut net = Network::new(spec.clone(), models.clone());
    let mono = drive32(&config, env.seed, &mut net);
    let nodes = config.topology.num_nodes();
    let hops: u64 = (0..nodes)
        .flat_map(|n| (0..config.ports()).map(move |p| (n, p)))
        .map(|(n, p)| net.link_flits(n, p))
        .sum();
    out.push(Metric::new(
        "sim.step_ns.torus32",
        mono.ns_per_call(),
        mono.count as usize,
    ));
    // Hops accumulate over ramp and timed cycles alike; scale the timed
    // share of the steps to the hops of the same cycles.
    let timed_hops = hops as f64 * T32_TIMED as f64 / (T32_RAMP + T32_TIMED) as f64;
    out.push(Metric::new(
        "sim.step_ns_per_hop.torus32",
        mono.total.as_nanos() as f64 / timed_hops.max(1.0),
        hops as usize,
    ));

    let image = net.snapshot();
    let snapshot = median_of(REPS, || timed(|| std::hint::black_box(net.snapshot())).1);
    let mut target = Network::new(spec.clone(), models.clone());
    let restore = median_of(REPS, || {
        timed(|| target.restore(&image).expect("own snapshot restores")).1
    });
    out.push(Metric::new(
        "sim.snapshot_us",
        snapshot.as_secs_f64() * 1e6,
        REPS,
    ));
    out.push(Metric::new(
        "sim.restore_us",
        restore.as_secs_f64() * 1e6,
        REPS,
    ));
    out.push(Metric::new("sim.snapshot_bytes", image.len() as f64, 1));

    let built = median_of(REPS, || {
        let (spec, models) = (spec.clone(), models.clone());
        timed(|| std::hint::black_box(ShardedNetwork::new(spec, models, shards))).1
    });
    out.push(Metric::new("shard.new_us", built.as_secs_f64() * 1e6, REPS));
    let mut sharded = ShardedNetwork::new(spec, models, shards);
    let split = drive32(&config, env.seed, &mut sharded);
    assert_eq!(
        sharded.stats_merged().flits_delivered,
        net.stats().flits_delivered,
        "the sharded engine delivers what the single engine delivers"
    );
    out.push(Metric::new(
        "shard.step_ns",
        split.ns_per_call(),
        split.count as usize,
    ));
    out.push(Metric::new(
        "shard.speedup",
        mono.total.as_secs_f64() / split.total.as_secs_f64(),
        split.count as usize,
    ));
    out.push(Metric::new("shard.host_cores", env.nproc as f64, 1));
    out.push(Metric::new("shard.shards", shards as f64, 1));
}

/// Stops the run at its first checkpoint and keeps it.
struct Capture {
    every: u64,
}

impl RunHook for Capture {
    fn every(&self) -> u64 {
        self.every
    }
    fn on_checkpoint(&mut self, _ck: &RunCheckpoint) -> RunControl {
        RunControl::Stop
    }
}

fn ckpt_micro(env: &Env, out: &mut Vec<Metric>) {
    let config = torus32_vc64();
    let exp = experiment(&config, env.seed, shard_count(env.nproc), 1_000_000);
    let result = exp
        .run_with_hook(&mut Capture { every: EVERY }, None)
        .expect("the cell is valid");
    let RunResult::Aborted(ck) = result else {
        panic!("the capture hook stops the run at its first checkpoint");
    };
    let fingerprint = 0x636b_7074;
    let image = encode_checkpoint(fingerprint, &ck);
    let mb = image.len() as f64 / 1e6;
    let encode = median_of(REPS, || {
        timed(|| std::hint::black_box(encode_checkpoint(fingerprint, &ck))).1
    });
    let decode = median_of(REPS, || {
        timed(|| decode_checkpoint(&image, fingerprint).expect("own image decodes")).1
    });
    let path = env.scratch.join("probe.ckpt");
    let save = median_of(REPS, || {
        timed(|| save_checkpoint(&path, fingerprint, &ck).expect("scratch is writable")).1
    });
    let load = median_of(REPS, || {
        timed(|| load_checkpoint(&path, fingerprint).expect("own file loads")).1
    });
    out.push(Metric::new(
        "ckpt.encode_mb_per_s",
        mb / encode.as_secs_f64(),
        REPS,
    ));
    out.push(Metric::new(
        "ckpt.decode_mb_per_s",
        mb / decode.as_secs_f64(),
        REPS,
    ));
    out.push(Metric::new("ckpt.save_ms", save.as_secs_f64() * 1e3, REPS));
    out.push(Metric::new("ckpt.load_ms", load.as_secs_f64() * 1e3, REPS));
    out.push(Metric::new("ckpt.image_bytes", image.len() as f64, 1));
}

/// Cells the `exp` probes run for real: the serve grid at two seeds.
fn probe_cells(seed: u64) -> Vec<Cell> {
    let spec = ExperimentSpec::parse(&format!(
        "[experiment]\nname = \"probe\"\n[measure]\nsample_packets = 1000\n[grid]\n\
         presets = [\"vc16\", \"wh64\"]\nrates = [0.02, 0.08]\nseeds = [{seed}, {}]\n",
        seed + 1
    ))
    .expect("valid spec");
    spec.expand()
}

fn exp_micro(env: &Env, out: &mut Vec<Metric>) {
    let text = std::fs::read_to_string(bench_dir().join("specs/fig5.toml"))
        .expect("specs/fig5.toml is part of the benchmark");
    let ns = ns_per_iter(REPS, 200, |_| {
        std::hint::black_box(ExperimentSpec::parse(std::hint::black_box(&text)).expect("valid"));
    });
    out.push(Metric::new("exp.parse_us", ns / 1e3, REPS * 200));
    let spec = ExperimentSpec::parse(&text).expect("valid");
    let ns = ns_per_iter(REPS, 200, |_| {
        std::hint::black_box(std::hint::black_box(&spec).expand());
    });
    out.push(Metric::new("exp.expand_us", ns / 1e3, REPS * 200));
    let cells = spec.expand();
    let ns = ns_per_iter(REPS, 4_000, |i| {
        let cell = &cells[i as usize % cells.len()];
        std::hint::black_box((cell.fingerprint(), cell.key()));
    });
    out.push(Metric::new("exp.fingerprint_ns", ns, REPS * 4_000));

    // Runner: every probe cell once unknown, once known, then a flush.
    let dir = env.scratch.join("probe-cache");
    let _ = std::fs::remove_dir_all(&dir);
    let runner = CellRunner::open(Some(&dir)).expect("a fresh cache directory opens");
    let supervision = Supervision::default();
    let probe = probe_cells(env.seed);
    let (mut miss, mut hit) = (Vec::new(), Vec::new());
    let mut records: Vec<CellRecord> = Vec::new();
    for cell in &probe {
        let (record, spent) = timed(|| runner.run(cell, &supervision));
        miss.push(spent.as_secs_f64() * 1e3);
        records.push(record);
    }
    for _ in 0..50 {
        for cell in &probe {
            let (_, spent) = timed(|| std::hint::black_box(runner.run(cell, &supervision)));
            hit.push(spent.as_secs_f64() * 1e6);
        }
    }
    let (_, flush) = timed(|| runner.flush().expect("the probe cache flushes"));
    out.push(Metric::new("exp.runner_miss_ms", median(&miss), miss.len()));
    out.push(Metric::new("exp.runner_hit_us", median(&hit), hit.len()));
    out.push(Metric::new("exp.flush_ms", flush.as_secs_f64() * 1e3, 1));
    drop(runner);

    // Cache file: append distinct records, reopen, look up.
    let cache = ResultCache::open(&dir).expect("the probe cache reopens");
    let mut appender = cache.appender().expect("the probe cache appends");
    let mut append = Busy::default();
    let mut extra: Vec<CellRecord> = Vec::new();
    for i in 0..256u64 {
        let mut record = records[i as usize % records.len()].clone();
        record.fingerprint = orion_ckpt::splitmix64(env.seed ^ i);
        record.cell = format!("{}#{i}", record.cell);
        append.time(|| appender.append(&record).expect("the probe cache appends"));
        extra.push(record);
    }
    drop(appender);
    out.push(Metric::new(
        "exp.cache_append_us",
        append.ns_per_call() / 1e3,
        append.count as usize,
    ));
    let open = median_of(REPS, || {
        timed(|| std::hint::black_box(ResultCache::open(&dir).expect("reopens"))).1
    });
    out.push(Metric::new(
        "exp.cache_open_ms",
        open.as_secs_f64() * 1e3,
        REPS,
    ));
    let cache = ResultCache::open(&dir).expect("the probe cache reopens");
    let ns = ns_per_iter(REPS, 100_000, |i| {
        // Alternate a present and an absent fingerprint.
        let fp = extra[i as usize % extra.len()].fingerprint ^ (i & 1);
        std::hint::black_box(cache.get(fp));
    });
    out.push(Metric::new("exp.cache_get_ns", ns, REPS * 100_000));

    // Locks, uncontended and behind a reader that holds on for 5 ms.
    let exclusive = median_of(50, || {
        timed(|| drop(CacheLock::acquire(&dir).expect("nobody holds the probe cache"))).1
    });
    let shared = median_of(50, || {
        timed(|| drop(CacheLock::acquire_shared(&dir).expect("nobody writes the probe cache"))).1
    });
    out.push(Metric::new(
        "exp.lock_acquire_us",
        exclusive.as_secs_f64() * 1e6,
        50,
    ));
    out.push(Metric::new(
        "exp.lock_shared_us",
        shared.as_secs_f64() * 1e6,
        50,
    ));
    let hold = Duration::from_millis(5);
    let waited = median_of(REPS, || {
        let (held_tx, held_rx) = mpsc::channel();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let reader = CacheLock::acquire_shared(&dir).expect("readers share");
                held_tx.send(()).expect("the waiter is listening");
                std::thread::sleep(hold);
                drop(reader);
            });
            held_rx.recv().expect("the reader reports in");
            timed(|| {
                drop(
                    CacheLock::acquire_exclusive_wait(&dir, Duration::from_secs(5))
                        .expect("the reader lets go within the patience"),
                )
            })
            .1
        })
    });
    out.push(Metric::new(
        "exp.lock_wait_ms",
        waited.as_secs_f64() * 1e3,
        REPS,
    ));

    let forty: Vec<CellRecord> = extra.iter().take(40).cloned().collect();
    let artifacts = env.scratch.join("probe-artifacts");
    let write = median_of(REPS, || {
        timed(|| write_artifacts(&artifacts, "probe", &forty).expect("scratch is writable")).1
    });
    out.push(Metric::new(
        "exp.artifacts_write_ms",
        write.as_secs_f64() * 1e3,
        REPS,
    ));
}

fn explore_serve_micro(seed: u64, out: &mut Vec<Metric>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let points: Vec<(String, Objectives)> = (0..256)
        .map(|i| {
            let objectives = Objectives {
                latency: 10.0 + rng.gen_range(0.0..90.0),
                power: 0.1 + rng.gen_range(0.0..4.0),
            };
            (format!("design-{i}"), objectives)
        })
        .collect();
    let spent = median_of(50, || {
        let mut front = ParetoFront::new();
        timed(|| {
            for (label, objectives) in &points {
                std::hint::black_box(front.insert(label, *objectives));
            }
        })
        .1
    });
    out.push(Metric::new(
        "explore.frontier_insert_ns",
        spent.as_nanos() as f64 / points.len() as f64,
        50 * points.len(),
    ));

    let gate = AdmissionGate::new(2, 8, Duration::from_secs(2));
    let ns = ns_per_iter(REPS, 100_000, |_| {
        drop(std::hint::black_box(
            gate.admit().expect("an idle gate admits"),
        ));
    });
    out.push(Metric::new("serve.admit_ns", ns, REPS * 100_000));
}

/// The paper's own cell — VC64, 4x4 torus, uniform 0.10 — whole,
/// decomposed, and observed.
fn fig5_cell(seed: u64, tracer: &mut Tracer, out: &mut Vec<Metric>) {
    let cell = Cell {
        seed,
        ..ExperimentSpec::parse(
            "[experiment]\nname = \"cell\"\n[grid]\npresets = [\"vc64\"]\nrates = [0.10]\n",
        )
        .expect("valid spec")
        .expand()
        .remove(0)
    };
    const RUNS: usize = 3;
    let mut whole = Vec::new();
    let mut record = None;
    for _ in 0..RUNS {
        let (r, spent) = timed(|| run_cell(&cell));
        whole.push(spent.as_secs_f64());
        record = Some(r);
    }
    let record = record.expect("at least one run");
    let whole_s = median(&whole);
    out.push(Metric::new("core.cell_run_ms", whole_s * 1e3, RUNS));

    let mut traces = Vec::new();
    tracer.scope("bench.probe.fig5_cell", |t| {
        for _ in 0..RUNS {
            traces.push(run_cell_decomposed(&cell, t));
        }
    });
    let by = |f: fn(&crate::layers::CellTrace) -> f64| -> f64 {
        median(&traces.iter().map(f).collect::<Vec<_>>())
    };
    let first = &traces[0];
    assert_eq!(
        (first.measured_cycles, first.flits_delivered),
        (record.measured_cycles, record.flits_delivered),
        "the decomposed cell walks the trajectory of run_cell"
    );
    let steps = first.step.count as usize;
    out.push(Metric::new(
        "sim.step_ns.fig5",
        by(|t| t.step.ns_per_call()),
        steps,
    ));
    out.push(Metric::new(
        "sim.step_ns_per_hop.fig5",
        by(|t| t.step.total.as_nanos() as f64 / t.link_flits.max(1) as f64),
        first.link_flits as usize,
    ));
    out.push(Metric::new(
        "sim.enqueue_ns",
        by(|t| t.enqueue.ns_per_call()),
        first.enqueue.count as usize,
    ));
    out.push(Metric::new(
        "core.loop_overhead_frac",
        1.0 - by(|t| t.accounted().as_secs_f64()) / whole_s,
        RUNS,
    ));

    // The same cell as an `Experiment`, observed and not.
    let config = cell.config();
    let experiment = || {
        let pattern = cell
            .traffic
            .pattern(&config.topology, cell.rate)
            .expect("valid rate");
        Experiment::new(config.clone())
            .workload(pattern)
            .seed(cell.derived_seed())
            .warmup(cell.measure.warmup)
            .sample_packets(cell.measure.sample_packets)
            .max_cycles(cell.measure.max_cycles)
            .watchdog_cycles(cell.measure.watchdog_cycles)
    };
    let mut report = None;
    let plain = median_of(RUNS, || {
        let (r, spent) = timed(|| experiment().run().expect("valid cell"));
        report = Some(r);
        spent
    });
    let mut observed_report = None;
    let observed = median_of(RUNS, || {
        let (r, spent) = timed(|| {
            experiment()
                .observe(ObserveOptions::default())
                .run()
                .expect("valid cell")
        });
        observed_report = Some(r);
        spent
    });
    out.push(Metric::new(
        "obs.enabled_over_disabled",
        observed.as_secs_f64() / plain.as_secs_f64(),
        RUNS,
    ));
    let observed_report = observed_report.expect("at least one run");
    let observations = observed_report
        .observations()
        .expect("the run was observed");
    let count = |key: &str| -> f64 {
        observations
            .metrics
            .counters
            .iter()
            .find(|(k, _)| k == key)
            .map_or(0.0, |(_, v)| *v as f64)
    };
    use orion_obs::keys;
    for (name, key) in [
        ("sim.va_grants", keys::VA_GRANTS),
        ("sim.sa_grants", keys::SA_GRANTS),
        ("sim.link_flits", keys::LINK_FLITS),
        ("sim.credits", keys::CREDITS_RETURNED),
        ("sim.flits_delivered", keys::FLITS_EJECTED),
    ] {
        out.push(Metric::new(name, count(key), 1));
    }

    // Fig. 5c: the paper reports buffers + crossbar above 85 % of node
    // power at this point; the model's distance from that claim rides
    // beside every speed number.
    let report = report.expect("at least one run");
    let datapath: f64 = report
        .breakdown()
        .iter()
        .filter(|(c, _, _)| matches!(c, Component::Buffer | Component::Crossbar))
        .map(|(_, _, share)| share)
        .sum();
    out.push(Metric::new("fig5c.datapath_share_err", 0.85 - datapath, 1));
}

/// The short trace the probes replay and read.
const MINI_TRACE: BurstShape = BurstShape {
    nodes: 256,
    rate: 0.002,
    bursts: 8,
    burst_cycles: 2_000,
    silence: (5_000, 20_000),
    span_cycles: 120_000,
};

fn has(have: &[Metric], name: &str) -> bool {
    have.iter().any(|m| m.name == name)
}

/// Measures every per-layer metric `have` does not hold yet.
pub fn fill(env: &Env, tracer: &mut Tracer, have: &mut Vec<Metric>) {
    tech_power(env.seed, have);
    net_micro(env.seed, &env.scratch, have);
    sim_micro(env.seed, have);
    torus32_micro(env, have);
    ckpt_micro(env, have);
    exp_micro(env, have);
    explore_serve_micro(env.seed, have);
    fig5_cell(env.seed, tracer, have);

    if !has(have, "sim.skip_frac") {
        let trace = bursty_trace(env.seed, &MINI_TRACE);
        let replayed = tracer.scope("bench.probe.trace", |t| {
            replay_decomposed(&torus16_vc64(), trace, 1_000_000, 0, t)
        });
        assert!(replayed.drained, "the short trace drains");
        have.extend(replay_metrics(&replayed));
    }
    if !has(have, "ckpt.hook_frac") {
        let (config, shards) = (torus32_vc64(), shard_count(env.nproc));
        let short = || experiment(&config, env.seed, shards, 6_000);
        let path = env.scratch.join("probe-run.ckpt");
        let hooked = tracer.scope("bench.probe.ckpt", |t| run_hooked(short(), &path, t));
        let (_, without) = timed(|| short().run().expect("the cell is valid"));
        have.extend(ckpt_metrics(&hooked, hooked.wall, without));
    }
    if !has(have, "explore.evals") {
        let mut spec = load_spec(env.seed);
        spec.budget = 32;
        let searched = search_decomposed(&spec, &env.scratch.join("probe-explore"), tracer);
        have.extend(search_metrics(&searched));
    }
    if !has(have, "serve.requests") {
        let clients = env.nproc.max(1);
        let schedule = serve_schedule(env.seed, clients, crate::gen::DEDUP_EVERY);
        let cache = env.scratch.join("probe-serve-cache");
        have.extend(session_decomposed(&cache, clients, &schedule, tracer).metrics);
    }
}
