//! End-to-end shard-identity suite: [`Experiment::shards`] at any
//! shard count must be **bit-identical** to the single-engine run —
//! same latency sample, same outcome, same per-component energy down
//! to `f64::to_bits` — on both the paper's 4×4 presets (pinned against
//! the golden grid in `differential_identity.rs`) and a 16×16 torus
//! that actually exercises many-router shards. Checkpoints taken from
//! any run (one shard *is* the monolithic engine) must resume
//! bit-identically at any shard count — the network image is the same
//! at every count — while a snapshot captured on another topology is a
//! *typed* error, never silent corruption.

use orion_core::{
    presets, ConfigError, Experiment, NetworkConfig, Report, RunCheckpoint, RunControl, RunError,
    RunHook, RunResult,
};
use orion_net::Topology;
use orion_sim::{Component, SnapshotError};

const SEED: u64 = 9;
const WARMUP: u64 = 100;
const SAMPLE_PACKETS: u64 = 150;
const MAX_CYCLES: u64 = 50_000;
const RATE: f64 = 0.02;

/// A 16×16 torus (256 nodes) wearing the VC16 router — large enough
/// that an 8-way partition still gives every shard a 32-router range.
fn big_torus() -> NetworkConfig {
    let mut cfg = presets::vc16_onchip();
    cfg.topology = Topology::torus(&[16, 16]).expect("16x16 torus is valid");
    cfg
}

fn experiment(cfg: &NetworkConfig, shards: usize) -> Experiment {
    Experiment::new(cfg.clone())
        .injection_rate(RATE)
        .seed(SEED)
        .warmup(WARMUP)
        .sample_packets(SAMPLE_PACKETS)
        .max_cycles(MAX_CYCLES)
        .shards(shards)
}

/// Renders every bit-sensitive field of a report; two runs are
/// identical iff their renderings are equal strings.
fn fingerprint(report: &Report) -> String {
    let stats = report.stats();
    let mut out = format!(
        "{};{};{};{};{:?};{:016x};{:016x}",
        report.outcome().label(),
        stats.packets_delivered,
        stats.flits_delivered,
        stats.sample_count(),
        stats.latencies(),
        report.avg_latency().to_bits(),
        report.measured_cycles()
    );
    for component in Component::ALL {
        out.push_str(&format!(
            ";{:016x}",
            report.component_power(component).0.to_bits()
        ));
    }
    out
}

#[test]
fn shard_counts_agree_on_16x16_torus() {
    let cfg = big_torus();
    let mono = fingerprint(&experiment(&cfg, 1).run().expect("valid"));
    for shards in [2usize, 8] {
        let sharded = fingerprint(&experiment(&cfg, shards).run().expect("valid"));
        assert_eq!(
            mono, sharded,
            "{shards}-shard 16x16 run diverged from the single-engine run"
        );
    }
}

#[test]
fn zero_shards_is_a_config_error() {
    match experiment(&presets::wh64_onchip(), 0).run() {
        Err(ConfigError::InvalidShards {
            shards: 0,
            nodes: 16,
        }) => {}
        other => panic!("expected InvalidShards, got {other:?}"),
    }
}

#[test]
fn more_shards_than_nodes_is_a_config_error() {
    match experiment(&presets::wh64_onchip(), 17).run() {
        Err(ConfigError::InvalidShards {
            shards: 17,
            nodes: 16,
        }) => {}
        other => panic!("expected InvalidShards, got {other:?}"),
    }
}

/// Captures the first checkpoint offered and stops the run.
struct StopAtFirst {
    every: u64,
    taken: Option<RunCheckpoint>,
}

impl RunHook for StopAtFirst {
    fn every(&self) -> u64 {
        self.every
    }
    fn on_checkpoint(&mut self, checkpoint: &RunCheckpoint) -> RunControl {
        self.taken = Some(checkpoint.clone());
        RunControl::Stop
    }
}

/// A hook that never checkpoints — used to drive resumed runs to the
/// end without interference.
struct Passive;

impl RunHook for Passive {
    fn every(&self) -> u64 {
        0
    }
    fn on_checkpoint(&mut self, _checkpoint: &RunCheckpoint) -> RunControl {
        RunControl::Continue
    }
}

fn report_of(result: RunResult) -> Report {
    match result {
        RunResult::Finished(report) => *report,
        RunResult::Aborted(_) => panic!("run aborted unexpectedly"),
    }
}

#[test]
fn checkpoint_resumes_bit_identically_at_any_shard_count() {
    let cfg = presets::vc16_onchip();
    // One shard is the monolithic engine: same type, same image frame.
    for shards in [1usize, 2] {
        let baseline = report_of(
            experiment(&cfg, shards)
                .run_with_hook(&mut Passive, None)
                .expect("valid"),
        );

        // Interrupt the run mid-flight, then resume it.
        let mut stopper = StopAtFirst {
            every: 120,
            taken: None,
        };
        match experiment(&cfg, shards)
            .run_with_hook(&mut stopper, None)
            .expect("valid")
        {
            RunResult::Aborted(_) => {}
            RunResult::Finished(_) => panic!("run finished before the first checkpoint"),
        }
        let checkpoint = stopper.taken.expect("hook captured a checkpoint");
        let resumed = report_of(
            experiment(&cfg, shards)
                .run_with_hook(&mut Passive, Some(checkpoint))
                .expect("resume"),
        );
        assert_eq!(
            fingerprint(&baseline),
            fingerprint(&resumed),
            "interrupt + resume perturbed a {shards}-shard run"
        );
    }
}

/// Runs `cfg` at `written` shards to its first checkpoint, resumes it
/// at `resumed` shards and asserts the report equals the plain run's,
/// with invariant auditing off and on.
fn assert_resumes_across_counts(cfg: &NetworkConfig, written: usize, resumed: usize) {
    for audit in [0, 40] {
        let run = |shards| experiment(cfg, shards).audit_every(audit);
        let baseline = fingerprint(&run(resumed).run().expect("valid"));
        let mut stopper = StopAtFirst {
            every: 120,
            taken: None,
        };
        run(written)
            .run_with_hook(&mut stopper, None)
            .expect("valid");
        let checkpoint = stopper.taken.expect("hook captured a checkpoint");
        let report = report_of(
            run(resumed)
                .run_with_hook(&mut Passive, Some(checkpoint))
                .expect("an image resumes at any shard count"),
        );
        assert_eq!(
            fingerprint(&report),
            baseline,
            "written at {written} shards, resumed at {resumed}, audit every {audit}"
        );
    }
}

/// A 4-shard checkpoint resumes at one and two shards bit-identically
/// (this once asserted the typed shard-count mismatch the canonical
/// image retired).
#[test]
fn checkpoint_shard_count_mismatch_is_typed() {
    let cfg = presets::vc16_onchip();
    for resumed in [1, 2] {
        assert_resumes_across_counts(&cfg, 4, resumed);
    }
}

#[test]
fn torus_checkpoint_rejected_by_same_size_mesh() {
    // Same node count, same ports per router: only the image's own
    // topology identity tells the two apart.
    let torus = presets::vc16_onchip();
    let mut mesh = torus.clone();
    mesh.topology = Topology::mesh(&[4, 4]).expect("4x4 mesh is valid");
    let mut stopper = StopAtFirst {
        every: 120,
        taken: None,
    };
    experiment(&torus, 1)
        .run_with_hook(&mut stopper, None)
        .expect("valid");
    let torus_ck = stopper.taken.expect("hook captured a checkpoint");
    match experiment(&mesh, 1).run_with_hook(&mut Passive, Some(torus_ck)) {
        Err(RunError::Resume(SnapshotError::Mismatch(what))) => {
            assert_eq!(what, "topology kind");
        }
        other => panic!("expected a typed resume mismatch, got {other:?}"),
    }
}

/// A single-engine checkpoint resumes at four shards bit-identically
/// (this once asserted a typed mismatch).
#[test]
fn mono_checkpoint_rejected_by_sharded_run() {
    assert_resumes_across_counts(&presets::vc16_onchip(), 1, 4);
}
