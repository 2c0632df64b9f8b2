//! Differential bit-identity suite for the allocation-free cycle core.
//!
//! The v0.3.0 simulator's outputs across the Fig. 5 sweep grid
//! (WH64/VC16/VC64/VC128 × injection rates) are recorded below, down to
//! the bit pattern of every floating-point statistic and per-component
//! energy total. Any rewrite of the hot path — flit arena, ring-buffer
//! FIFOs, reusable event slots, batched ledger accounting — must
//! reproduce every cell **exactly**, with and without an [`ObsSink`]
//! attached (observability must stay zero-cost *and* zero-effect).
//!
//! This is deliberately stronger than `sweep_identity.rs`: it pins flit
//! counts, the full latency percentile ladder, the `RunOutcome` label
//! and all five per-component power totals for every cell, not just the
//! sweep summary of one preset.
//!
//! Regenerating after an *intentional* semantic change (never for a
//! perf-only refactor, which must be bit-identical):
//!
//! ```text
//! cargo test -p orion-core --test differential_identity \
//!     -- --ignored print_golden_grid --nocapture
//! ```
//!
//! [`ObsSink`]: orion_obs::ObsSink

use orion_core::{presets, EngineMode, Experiment, NetworkConfig, ObserveOptions, Report};
use orion_sim::Component;

/// The measurement discipline for every cell: small enough for CI, long
/// enough that all five event types fire and queues cycle many times.
const SEED: u64 = 2;
const WARMUP: u64 = 200;
const SAMPLE_PACKETS: u64 = 200;
const MAX_CYCLES: u64 = 50_000;

/// The Fig. 5 grid: every on-chip preset × three injection rates, from
/// light load to near the shallowest configuration's knee.
const RATES: [f64; 3] = [0.02, 0.05, 0.08];

/// Low-injection extension cells: deep in the plateau, where the sparse
/// activity-driven engine spends most of its time skipping idle routers
/// — exactly the regime the sparse/dense split must not perturb.
const LOW_RATES: [f64; 2] = [0.005, 0.01];

fn grid() -> Vec<(&'static str, NetworkConfig)> {
    vec![
        ("wh64", presets::wh64_onchip()),
        ("vc16", presets::vc16_onchip()),
        ("vc64", presets::vc64_onchip()),
        ("vc128", presets::vc128_onchip()),
    ]
}

fn run_cell_engine(
    cfg: &NetworkConfig,
    rate: f64,
    observed: bool,
    shards: usize,
    engine: Option<EngineMode>,
) -> Report {
    let mut e = Experiment::new(cfg.clone())
        .injection_rate(rate)
        .seed(SEED)
        .warmup(WARMUP)
        .sample_packets(SAMPLE_PACKETS)
        .max_cycles(MAX_CYCLES)
        .shards(shards);
    if let Some(mode) = engine {
        e = e.engine(mode);
    }
    if observed {
        e = e.observe(ObserveOptions {
            sample_every: 50,
            trace_packets: 64,
        });
    }
    e.run().expect("preset configurations are valid")
}

fn run_cell(cfg: &NetworkConfig, rate: f64, observed: bool, shards: usize) -> Report {
    run_cell_engine(cfg, rate, observed, shards, None)
}

/// Renders one cell as a semicolon-separated record. Floats are
/// rendered as exact bit patterns; a flipped bit anywhere in the
/// statistics, percentile ladder or energy accounting changes the line.
fn render_cell(name: &str, rate: f64, report: &Report) -> String {
    let stats = report.stats();
    let pct = |p: f64| {
        stats
            .latency_percentile(p)
            .map(|v| v.to_string())
            .unwrap_or_else(|| "-".to_string())
    };
    let mut line = format!(
        "{name};{:016x};{};{};{};{};{};{};{};{};{};{:016x};{}",
        rate.to_bits(),
        report.outcome().label(),
        stats.packets_delivered,
        stats.flits_delivered,
        stats.sample_count(),
        pct(0.0),
        pct(50.0),
        pct(95.0),
        pct(99.0),
        pct(100.0),
        report.avg_latency().to_bits(),
        report.measured_cycles(),
    );
    for component in Component::ALL {
        line.push_str(&format!(
            ";{:016x}",
            report.component_power(component).0.to_bits()
        ));
    }
    line
}

fn render_grid_sharded(observed: bool, shards: usize) -> String {
    let mut out = String::new();
    for (name, cfg) in grid() {
        for rate in RATES {
            let report = run_cell(&cfg, rate, observed, shards);
            out.push_str(&render_cell(name, rate, &report));
            out.push('\n');
        }
    }
    out
}

fn render_grid(observed: bool) -> String {
    render_grid_sharded(observed, 1)
}

/// v0.3.0 golden grid. Fields per line:
/// `name;rate_bits;outcome;packets;flits;samples;p0;p50;p95;p99;p100;avg_bits;cycles;buffer;central;crossbar;arbiter;link`
/// (the last five are network-wide per-component power, `f64::to_bits`
/// in `Component::ALL` order).
const GOLDEN: &str = include_str!("golden_fig5_grid.txt");

#[test]
fn optimized_core_matches_v030_golden_grid() {
    let got = render_grid(false);
    assert_eq!(
        got, GOLDEN,
        "unobserved run diverged from the v0.3.0 golden grid"
    );
}

#[test]
fn observed_runs_match_v030_golden_grid() {
    let got = render_grid(true);
    assert_eq!(got, GOLDEN, "attaching an ObsSink perturbed the simulation");
}

/// The tentpole's headline guarantee pinned at the end-to-end level:
/// partitioning every preset across two shards must reproduce the
/// single-engine golden grid down to the last energy bit.
#[test]
fn two_shard_runs_match_v030_golden_grid() {
    let got = render_grid_sharded(false, 2);
    assert_eq!(
        got, GOLDEN,
        "two-shard run diverged from the v0.3.0 golden grid"
    );
}

/// Same guarantee at a shard count that forces two-node shards on the
/// 4×4 presets — maximal boundary traffic through the mailboxes.
#[test]
fn eight_shard_runs_match_v030_golden_grid() {
    let got = render_grid_sharded(false, 8);
    assert_eq!(
        got, GOLDEN,
        "eight-shard run diverged from the v0.3.0 golden grid"
    );
}

/// Observability must stay zero-effect under sharding too: an
/// [`ObsSink`] attached to a two-shard run changes nothing.
#[test]
fn observed_sharded_runs_match_v030_golden_grid() {
    let got = render_grid_sharded(true, 2);
    assert_eq!(
        got, GOLDEN,
        "attaching an ObsSink perturbed the sharded simulation"
    );
}

fn render_low_grid(observed: bool, shards: usize, engine: Option<EngineMode>) -> String {
    let mut out = String::new();
    for (name, cfg) in grid() {
        for rate in LOW_RATES {
            let report = run_cell_engine(&cfg, rate, observed, shards, engine);
            out.push_str(&render_cell(name, rate, &report));
            out.push('\n');
        }
    }
    out
}

/// Golden low-injection grid (same record format as the v0.3.0 grid),
/// recorded from the sparse activity-driven engine — which the dense
/// reference, every shard count, and observed runs must all reproduce.
const GOLDEN_LOW: &str = include_str!("golden_fig5_lowrate_grid.txt");

/// Low-rate plateau cells at 1, 2 and 8 shards: the regime where the
/// sparse engine skips the most work must still match the golden record
/// bit for bit at every shard count.
#[test]
fn low_rate_cells_match_golden_at_every_shard_count() {
    for shards in [1usize, 2, 8] {
        let got = render_low_grid(false, shards, None);
        assert_eq!(
            got, GOLDEN_LOW,
            "{shards}-shard low-rate grid diverged from the golden record"
        );
    }
}

/// The dense reference stepper pinned against the same golden record:
/// sparse and dense engines are bit-identical end to end, enforced here
/// without any environment-variable plumbing.
#[test]
fn dense_reference_low_rate_cells_match_golden() {
    for shards in [1usize, 2] {
        let got = render_low_grid(false, shards, Some(EngineMode::DenseReference));
        assert_eq!(
            got, GOLDEN_LOW,
            "{shards}-shard dense-reference low-rate grid diverged"
        );
    }
}

/// Observability stays zero-effect in the skip-heavy regime too.
#[test]
fn observed_low_rate_cells_match_golden() {
    for shards in [1usize, 2] {
        let got = render_low_grid(true, shards, None);
        assert_eq!(
            got, GOLDEN_LOW,
            "ObsSink perturbed the {shards}-shard low-rate grid"
        );
    }
}

// ---- Engine invariance of the paper's figure cells ----------------------

/// A figure cell at seed 42 under `engine` (a shorter discipline than
/// the golden grid's, so the ladders below stay cheap).
fn run_engine(cfg: &NetworkConfig, rate: f64, engine: EngineMode) -> Report {
    Experiment::new(cfg.clone())
        .injection_rate(rate)
        .seed(42)
        .warmup(300)
        .sample_packets(200)
        .max_cycles(30_000)
        .engine(engine)
        .run()
        .expect("valid config")
}

/// Every bit-sensitive observable of a report, rendered for exact
/// engine-vs-engine comparison.
fn bits(report: &Report) -> String {
    let stats = report.stats();
    let mut out = format!(
        "{};{};{};{:?};{:016x};{}",
        report.outcome().label(),
        stats.packets_delivered,
        stats.flits_delivered,
        stats.latencies(),
        report.avg_latency().to_bits(),
        report.measured_cycles(),
    );
    for component in Component::ALL {
        out.push_str(&format!(
            ";{:016x}",
            report.component_power(component).0.to_bits()
        ));
    }
    out
}

/// Fig. 5 low-load plateau: deep below the knee, average latency is
/// flat (within 10 % across a 5× rate range) — and every plateau cell
/// is **bit-identical** between the sparse activity-driven engine and
/// the dense reference, so the sparse engine cannot have moved the
/// plateau.
#[test]
fn fig5_low_load_plateau_flat_and_engine_invariant() {
    for (name, cfg) in [
        ("wh64", presets::wh64_onchip()),
        ("vc64", presets::vc64_onchip()),
    ] {
        let mut plateau = Vec::new();
        for rate in [0.002, 0.005, 0.01] {
            let sparse = run_engine(&cfg, rate, EngineMode::Sparse);
            let dense = run_engine(&cfg, rate, EngineMode::DenseReference);
            assert_eq!(
                bits(&sparse),
                bits(&dense),
                "{name} @ {rate}: sparse and dense engines diverged"
            );
            plateau.push(sparse.avg_latency());
        }
        let lo = plateau.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = plateau.iter().cloned().fold(0.0, f64::max);
        assert!(
            hi <= lo * 1.10,
            "{name} low-load plateau is not flat: {plateau:?}"
        );
    }
}

/// Fig. 5 knee position: probing a rate ladder from plateau to
/// saturation, both engines agree on exactly which rates are saturated
/// — the knee sits between the same two probe rates — and the knee
/// lies above the golden grid's light-load band (> 0.02).
#[test]
fn fig5_knee_position_unchanged_under_sparse() {
    for (name, cfg) in [
        ("wh64", presets::wh64_onchip()),
        ("vc64", presets::vc64_onchip()),
    ] {
        let probe = [0.02, 0.06, 0.10, 0.14, 0.18];
        let saturated = |engine: EngineMode| -> Vec<bool> {
            probe
                .iter()
                .map(|&rate| run_engine(&cfg, rate, engine).is_saturated())
                .collect()
        };
        let sparse = saturated(EngineMode::Sparse);
        let dense = saturated(EngineMode::DenseReference);
        assert_eq!(
            sparse, dense,
            "{name}: engines disagree on saturation across {probe:?}"
        );
        assert!(
            !sparse[0],
            "{name}: rate 0.02 must sit on the plateau, below the knee"
        );
    }
}

/// Fig. 7 cells are engine-invariant too: the chip-to-chip XB and CB
/// runs at 0.09 reproduce bit-identically under the dense reference
/// stepper.
#[test]
fn fig7_cells_bit_identical_across_engines() {
    for cfg in [presets::xb_chip_to_chip(), presets::cb_chip_to_chip()] {
        let sparse = run_engine(&cfg, 0.09, EngineMode::Sparse);
        let dense = run_engine(&cfg, 0.09, EngineMode::DenseReference);
        assert_eq!(bits(&sparse), bits(&dense), "fig7 cell diverged");
    }
}

/// Prints the current grid for golden regeneration (see module docs).
#[test]
#[ignore = "golden regeneration helper, run with --ignored --nocapture"]
fn print_golden_grid() {
    print!("{}", render_grid(false));
}

/// Prints the low-rate grid for golden regeneration (see module docs).
#[test]
#[ignore = "golden regeneration helper, run with --ignored --nocapture"]
fn print_low_rate_golden_grid() {
    print!("{}", render_low_grid(false, 1, None));
}
