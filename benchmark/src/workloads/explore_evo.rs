//! `explore_evo`: an evolutionary design-space search of short cells.
//!
//! `specs/explore_evo.toml` (mu = 8, lambda = 16, budget 100, rate 0.03,
//! warm-up 200 / 500 sample packets, over wh/vc/xb/cb x VCs x depths x
//! radix 4/6/8 x torus/mesh x three process nodes) runs through
//! `run_explore` on one thread with a fresh on-disk cache per pass, and
//! the frontier artifacts are written. `--seed` is the traffic seed of
//! every evaluated cell (`workload_seed`); the search seed stays the
//! spec's, and the budget is one every seed's search reaches, so each
//! seed evaluates the same number of designs from the same start.
//! Cells are short and all different, so per-design model construction,
//! `Network::new`, fingerprinting, cache appends and frontier upkeep
//! are a visible share of the time and stepping is not.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use orion_exp::spec::preset_config;
use orion_exp::{run_cell, Cell, ResultCache, TrafficKind};
use orion_explore::{
    run_explore, write_explore_artifacts, ExploreOptions, ExploreReport, ExploreSpec, PointRecord,
};

use super::{Env, Pass, Traced, Workload};
use crate::catalog::Metric;
use crate::digest::lines_digest;
use crate::host::bench_dir;
use crate::span::{Busy, SpanId, Tracer};

pub struct ExploreEvo;

pub struct Ready {
    spec: ExploreSpec,
    dir: PathBuf,
    passes: usize,
}

pub fn load_spec(seed: u64) -> ExploreSpec {
    let text = std::fs::read_to_string(bench_dir().join("specs/explore_evo.toml"))
        .expect("specs/explore_evo.toml is part of the benchmark");
    let mut spec = ExploreSpec::parse(&text).expect("specs/explore_evo.toml is a valid spec");
    spec.workload_seed = seed;
    spec
}

fn search(spec: &ExploreSpec, cache: &Path) -> ExploreReport {
    let options = ExploreOptions {
        threads: 1,
        cache_dir: Some(cache.to_path_buf()),
        ..ExploreOptions::default()
    };
    run_explore(spec, &options).expect("a fresh cache directory opens and flushes")
}

/// Simulated cycles and flits behind a finished search, read from the
/// cache it left (point records do not carry them).
fn simulated_work(cache: &Path, warmup: u64) -> (u64, u64) {
    let cache = ResultCache::open(cache).expect("the search left a readable cache");
    cache.entries().fold((0, 0), |(cycles, flits), (_, r)| {
        (
            cycles + r.measured_cycles + warmup,
            flits + r.flits_delivered,
        )
    })
}

/// The cell `run_explore` evaluated for `point`.
fn cell_of(spec: &ExploreSpec, point: &PointRecord) -> Cell {
    let base = preset_config(&point.candidate).expect("candidate names come from the design codec");
    Cell {
        preset: point.candidate.clone(),
        traffic: TrafficKind::parse(&point.traffic).expect("point records carry a known traffic"),
        rate: spec.rate,
        seed: spec.workload_seed,
        flow_control: base.flow_control,
        vc_discipline: base.vc_discipline,
        packet_len: base.packet_len,
        measure: spec.measure,
    }
}

/// What one search, decomposed around its cells, measured.
pub struct SearchTrace {
    pub root: SpanId,
    pub report: ExploreReport,
    pub wall: Duration,
    /// The evaluated cells run again one by one outside the search.
    pub cells: Busy,
    pub artifacts: Duration,
    pub diverged: usize,
}

/// Runs the search, then runs every evaluated cell again on its own:
/// what the search took beyond its cells is its own overhead (strategy,
/// lowering, fingerprints, cache appends, frontier upkeep).
///
/// The replay happens after the search, so its spans are laid out on
/// the search's timeline by hand: a root covering search + artifacts,
/// the search with the replayed cells inside it, then the artifacts.
pub fn search_decomposed(spec: &ExploreSpec, dir: &Path, tracer: &mut Tracer) -> SearchTrace {
    // The overhead is the small difference of two half-second
    // measurements, so each side is repeated and its least-disturbed
    // repetition kept.
    const REPEATS: usize = 3;
    let cache = dir.join("cache");
    let (mut start, mut wall, mut report) = (Instant::now(), Duration::MAX, None);
    for _ in 0..REPEATS {
        let _ = std::fs::remove_dir_all(&cache);
        let began = Instant::now();
        let found = search(spec, &cache);
        if began.elapsed() < wall {
            (start, wall) = (began, began.elapsed());
        }
        report = Some(found);
    }
    let report = report.expect("at least one repetition");
    let artifacts_start = Instant::now();
    write_explore_artifacts(&dir.join("artifacts"), &spec.name, &report.points)
        .expect("scratch is writable");
    let artifacts = artifacts_start.elapsed();

    let mut cells = Busy::default();
    let mut diverged = 0;
    for _ in 0..REPEATS {
        let mut replay = Busy::default();
        for point in &report.points {
            let cell = cell_of(spec, point);
            let record = replay.time(|| run_cell(&cell));
            if record.avg_latency.to_bits() != point.avg_latency.to_bits()
                || record.total_power_w.to_bits() != point.total_power_w.to_bits()
            {
                diverged += 1;
            }
        }
        if cells.count == 0 || replay.total < cells.total {
            cells = replay;
        }
    }

    let t0 = tracer.ns_since_epoch(start);
    let (wall_ns, artifacts_ns) = (wall.as_nanos() as u64, artifacts.as_nanos() as u64);
    let root = tracer.add(None, "bench.pass", t0, t0 + wall_ns + artifacts_ns, 1);
    let run = tracer.add(Some(root), "explore.run", t0, t0 + wall_ns, 1);
    // Run again, the cells can take a hair longer than they did inside
    // the search; a child span never outlasts its parent.
    let replayed = (cells.total.as_nanos() as u64).min(wall_ns);
    tracer.add(Some(run), "core.run_cell", t0, t0 + replayed, cells.count);
    let end = t0 + wall_ns + artifacts_ns;
    tracer.add(Some(root), "explore.artifacts", t0 + wall_ns, end, 1);
    SearchTrace {
        root,
        report,
        wall,
        cells,
        artifacts,
        diverged,
    }
}

pub fn search_metrics(s: &SearchTrace) -> Vec<Metric> {
    let summary = &s.report.summary;
    let n = summary.evaluations;
    vec![
        Metric::new("explore.evals", n as f64, n),
        Metric::new("explore.rounds", summary.rounds as f64, n),
        Metric::new("explore.frontier_size", summary.frontier_total() as f64, n),
        Metric::new(
            "explore.search_overhead_frac",
            1.0 - s.cells.total.as_secs_f64() / s.wall.as_secs_f64(),
            n,
        ),
        Metric::new(
            "explore.artifacts_write_ms",
            s.artifacts.as_secs_f64() * 1e3,
            1,
        ),
        Metric::new("exp.cache_hits", summary.stats.cache_hits as f64, n),
        Metric::new("exp.executed", summary.stats.executed as f64, n),
        Metric::new("exp.deduped", summary.stats.deduped as f64, n),
        Metric::new(
            "exp.append_failures",
            summary.stats.append_failures as f64,
            n,
        ),
    ]
}

impl Workload for ExploreEvo {
    const NAME: &'static str = "explore_evo";
    type Ready = Ready;

    fn setup(env: &Env, round: usize) -> Ready {
        let spec = load_spec(env.seed);
        let dir = env.scratch.join(format!("explore-{round}"));
        std::fs::create_dir_all(&dir).expect("scratch is writable");
        // A first generation through a throwaway cache: the whole path
        // from strategy to cache append runs once before timing.
        let mut warm = spec.clone();
        warm.budget = warm.population;
        std::hint::black_box(search(&warm, &dir.join("warm-cache")));
        Ready {
            spec,
            dir,
            passes: 0,
        }
    }

    fn pass(_env: &Env, ready: &mut Ready) -> Pass {
        let cache = ready.dir.join(format!("cache-{}", ready.passes));
        ready.passes += 1;
        let start = Instant::now();
        let report = search(&ready.spec, &cache);
        write_explore_artifacts(
            &ready.dir.join("artifacts"),
            &ready.spec.name,
            &report.points,
        )
        .expect("scratch is writable");
        let wall = start.elapsed();

        let (sim_cycles, flits) = simulated_work(&cache, ready.spec.measure.warmup);
        let _ = std::fs::remove_dir_all(&cache);
        let lines: Vec<String> = report
            .points
            .iter()
            .map(PointRecord::to_json_line)
            .collect();
        let mut pass = Pass {
            wall,
            sim_cycles,
            flits,
            cells: report.summary.cells as u64,
            ops_ms: vec![wall.as_secs_f64() * 1e3],
            attempted: report.summary.cells as u64,
            digest: lines_digest(&lines),
            ..Pass::default()
        };
        if report.summary.is_degraded() || report.summary.frontier_total() == 0 {
            pass.fail(format!("degraded search: {:?}", report.summary.stats));
        }
        for point in report.points.iter().filter(|p| p.cell_outcome != "ok") {
            pass.fail(format!("{}: {}", point.cell, point.cell_outcome));
        }
        pass
    }

    fn traced(_env: &Env, ready: &mut Ready, tracer: &mut Tracer) -> Traced {
        let mut out = Traced::default();
        let searched = search_decomposed(&ready.spec, &ready.dir, tracer);
        // The search inside the decomposition is the untraced entry
        // point itself; only the cell replay around it is extra.
        out.untraced = searched.wall + searched.artifacts;
        out.traced = out.untraced;
        out.roots.push(searched.root);
        out.check(searched.diverged == 0, || {
            format!(
                "{} replayed cells diverged from the search's records",
                searched.diverged
            )
        });
        out.metrics = search_metrics(&searched);
        out
    }
}
