//! The exploration engine: a budgeted loop of
//! `strategy → lower → evaluate → frontier update`, deterministic
//! under parallelism and resumable through the orion-exp result cache.
//!
//! Every candidate lowers to one [`Cell`] per traffic pattern and runs
//! through a shared [`CellRunner`], so memory caching, on-disk
//! content-addressed caching, in-flight dedup and supervised retry all
//! apply unchanged — an explore-evaluated cell is indistinguishable
//! from (and deduplicates against) a grid-run cell. Batches evaluate
//! via [`orion_core::exec::par_map`], which returns results in input
//! order, and frontier updates walk that order sequentially, so N
//! worker threads produce bit-identical frontiers to one.

use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use orion_core::exec::par_map;
use orion_exp::frontier::{Objectives, ParetoFront};
use orion_exp::runner::{CellRunner, RunnerStats, Supervision};
use orion_exp::spec::{Cell, TrafficKind};
use orion_exp::CellRecord;
use orion_obs::{MetricsRegistry, MetricsSnapshot};

use crate::artifact::PointRecord;
use crate::spec::{Candidate, ExploreSpec, Strategy};
use crate::strategy::{Evaluated, Evolutionary, GridRefine, SearchStrategy, SearchView};

/// Knobs of one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreOptions {
    /// Worker threads for batch evaluation (0 or 1 = inline), and the
    /// runner's core budget: a large cell may run on up to this many
    /// shards.
    pub threads: usize,
    /// Cache directory; `None` disables on-disk caching (the in-memory
    /// layer still dedups within the run).
    pub cache_dir: Option<PathBuf>,
    /// Emit a live progress line to stderr.
    pub progress: bool,
    /// Checkpoint knobs applied to every evaluated cell. With checkpointing on (and a cache directory),
    /// long candidate evaluations survive a kill mid-cell:
    /// the next search over the same cache resumes from the last
    /// interval.
    pub supervision: Supervision,
    /// Overrides the spec's search seed when set (`--seed`).
    pub seed: Option<u64>,
    /// Overrides the spec's evaluation budget when set (`--budget`).
    pub budget: Option<usize>,
}

impl Default for ExploreOptions {
    fn default() -> ExploreOptions {
        ExploreOptions {
            threads: 1,
            cache_dir: None,
            progress: false,
            supervision: Supervision::default(),
            seed: None,
            budget: None,
        }
    }
}

/// Accounting for one exploration run.
#[derive(Debug, Clone)]
pub struct ExploreSummary {
    /// Strategy that drove the search.
    pub strategy: &'static str,
    /// Effective evaluation budget.
    pub budget: usize,
    /// Effective search seed.
    pub seed: u64,
    /// Distinct candidates evaluated (≤ budget).
    pub evaluations: usize,
    /// Cells requested (evaluations × traffic patterns).
    pub cells: usize,
    /// Search rounds (generations) completed.
    pub rounds: usize,
    /// Frontier size per traffic pattern, in spec traffic order.
    pub frontier_sizes: Vec<(String, usize)>,
    /// Evaluated points currently dominated (all traffic combined).
    pub dominated: usize,
    /// Runner accounting: cache hits, executions, dedup, quarantine.
    pub stats: RunnerStats,
    /// First cache-append error, if the sink broke mid-run.
    pub append_error: Option<String>,
    /// Wall-clock time of the whole search.
    pub elapsed: Duration,
}

impl ExploreSummary {
    /// Whether any cell was quarantined or the cache sink broke —
    /// results are usable but incomplete/unreplayable.
    pub fn is_degraded(&self) -> bool {
        self.stats.crashed > 0 || self.stats.failed > 0 || self.stats.append_failures > 0
    }

    /// Total frontier members across traffic patterns.
    pub fn frontier_total(&self) -> usize {
        self.frontier_sizes.iter().map(|(_, n)| n).sum()
    }
}

/// Everything an exploration run produces.
#[derive(Debug, Clone)]
pub struct ExploreReport {
    /// One row per (candidate, traffic), frontier-flagged and sorted
    /// for deterministic serialisation.
    pub points: Vec<PointRecord>,
    /// Final Pareto frontier per traffic pattern.
    pub frontiers: BTreeMap<String, ParetoFront>,
    /// Accounting.
    pub summary: ExploreSummary,
    /// Search-progress metrics (`explore_*`), snapshot at completion.
    pub metrics: MetricsSnapshot,
}

fn candidate_cell(spec: &ExploreSpec, name: &str, traffic: TrafficKind) -> Cell {
    Cell::new(
        name.to_string(),
        traffic,
        spec.rate,
        spec.workload_seed,
        spec.measure,
    )
}

fn objectives(record: &CellRecord) -> Objectives {
    Objectives {
        latency: record.avg_latency,
        power: record.total_power_w,
    }
}

/// Per-traffic frontier-size gauge keys (static, for the registry).
fn frontier_gauge_key(traffic: TrafficKind) -> &'static str {
    match traffic {
        TrafficKind::Uniform => "explore_frontier_size_uniform",
        TrafficKind::Transpose => "explore_frontier_size_transpose",
        TrafficKind::BitComplement => "explore_frontier_size_bit_complement",
        TrafficKind::Tornado => "explore_frontier_size_tornado",
        TrafficKind::Shuffle => "explore_frontier_size_shuffle",
        TrafficKind::BitReversal => "explore_frontier_size_bit_reversal",
        // TrafficKind is non_exhaustive; new kinds need a key here
        // before the explorer can gauge them.
        _ => "explore_frontier_size_other",
    }
}

/// Runs a budgeted search to completion.
///
/// # Errors
///
/// Propagates cache I/O errors: a cache directory that cannot be
/// opened/locked, or a flush failure at the end. Evaluation failures
/// (panics, timeouts, rejected configurations) never error — they are
/// quarantined records with non-finite objectives, excluded from
/// frontiers.
pub fn run_explore(spec: &ExploreSpec, opts: &ExploreOptions) -> io::Result<ExploreReport> {
    let start = Instant::now();
    let budget = opts.budget.unwrap_or(spec.budget);
    let seed = opts.seed.unwrap_or(spec.seed);
    let mut strategy: Box<dyn SearchStrategy> = match spec.strategy {
        Strategy::GridRefine => Box::new(GridRefine),
        Strategy::Evolutionary => {
            Box::new(Evolutionary::new(spec.population, spec.offspring, seed))
        }
    };

    let runner = CellRunner::open_with_budget(opts.cache_dir.as_deref(), opts.threads)?;

    let mut metrics = MetricsRegistry::new();
    let mut evaluated: BTreeMap<String, Evaluated> = BTreeMap::new();
    let mut frontiers: BTreeMap<String, ParetoFront> = spec
        .traffic
        .iter()
        .map(|t| (t.to_string(), ParetoFront::new()))
        .collect();
    // name -> (candidate, round, per-traffic records), insertion kept
    // in a BTreeMap so artifact rows come out name-sorted.
    type CandidateResult = (Candidate, usize, Vec<(TrafficKind, CellRecord)>);
    let mut results: BTreeMap<String, CandidateResult> = BTreeMap::new();
    let mut rounds = 0usize;

    while evaluated.len() < budget {
        let batch = {
            let view = SearchView {
                space: &spec.space,
                evaluated: &evaluated,
                frontiers: &frontiers,
                round: rounds,
            };
            strategy.next_batch(&view)
        };
        // Dedup against everything evaluated, preserve proposal order,
        // truncate to the remaining budget.
        let mut fresh: Vec<(String, Candidate)> = Vec::new();
        for c in batch {
            let name = c.name(&spec.space);
            if !evaluated.contains_key(&name) && !fresh.iter().any(|(n, _)| *n == name) {
                fresh.push((name, c));
            }
        }
        fresh.truncate(budget - evaluated.len());
        if fresh.is_empty() {
            break; // strategy exhausted the reachable space
        }
        rounds += 1;

        // Lower to cells — one per (candidate, traffic) — and evaluate
        // the whole batch through the shared runner. `par_map` returns
        // results in input order, so everything downstream is
        // deterministic regardless of thread count.
        let cells: Vec<Cell> = fresh
            .iter()
            .flat_map(|(name, _)| spec.traffic.iter().map(|&t| candidate_cell(spec, name, t)))
            .collect();
        let n_cells = cells.len();
        if opts.progress {
            eprintln!(
                "explore round {rounds}: {} candidates, {n_cells} cells ({} evaluated / {budget} budget)",
                fresh.len(),
                evaluated.len(),
            );
        }
        let records: Vec<CellRecord> = par_map(opts.threads, cells, |cell| {
            runner.run(&cell, &opts.supervision)
        });

        metrics.inc("explore_generations");
        metrics.add("explore_evaluations", fresh.len() as u64);
        metrics.add("explore_cells", n_cells as u64);

        // Sequential, input-ordered frontier update.
        let per_candidate = spec.traffic.len();
        for ((name, candidate), chunk) in fresh.iter().zip(records.chunks(per_candidate)) {
            let objs: Vec<(String, Objectives)> = spec
                .traffic
                .iter()
                .zip(chunk)
                .map(|(t, r)| (t.to_string(), objectives(r)))
                .collect();
            for (t, o) in &objs {
                if let Some(front) = frontiers.get_mut(t) {
                    front.insert(name, *o);
                }
            }
            evaluated.insert(
                name.clone(),
                Evaluated {
                    candidate: *candidate,
                    round: rounds,
                    objectives: objs,
                },
            );
            results.insert(
                name.clone(),
                (
                    *candidate,
                    rounds,
                    spec.traffic.iter().copied().zip(chunk.to_vec()).collect(),
                ),
            );
        }
    }

    runner.flush()?;
    let stats = runner.stats();

    // Flatten to artifact rows, flagging final frontier membership.
    let mut points = Vec::with_capacity(results.len() * spec.traffic.len());
    for (name, (candidate, round, records)) in &results {
        let design = candidate.design(&spec.space);
        for (traffic, record) in records {
            let on_frontier = frontiers
                .get(&traffic.to_string())
                .is_some_and(|f| f.contains(name));
            points.push(PointRecord::new(
                spec,
                name,
                &design,
                *traffic,
                record,
                on_frontier,
                *round,
            ));
        }
    }
    PointRecord::sort_for_artifacts(&mut points);

    let frontier_sizes: Vec<(String, usize)> = spec
        .traffic
        .iter()
        .map(|t| (t.to_string(), frontiers[&t.to_string()].len()))
        .collect();
    let dominated = points.iter().filter(|p| !p.on_frontier).count();

    metrics.add("explore_cache_hits", stats.cache_hits);
    metrics.add("explore_executed", stats.executed);
    metrics.add("explore_deduped", stats.deduped);
    metrics.add("explore_crashed", stats.crashed);
    metrics.add("explore_failed", stats.failed);
    metrics.set_gauge("explore_budget", budget as f64);
    metrics.set_gauge("explore_frontier_size", {
        let total: usize = frontier_sizes.iter().map(|(_, n)| n).sum();
        total as f64
    });
    metrics.set_gauge("explore_dominated", dominated as f64);
    for &t in &spec.traffic {
        metrics.set_gauge(
            frontier_gauge_key(t),
            frontiers[&t.to_string()].len() as f64,
        );
    }

    let summary = ExploreSummary {
        strategy: strategy.name(),
        budget,
        seed,
        evaluations: evaluated.len(),
        cells: evaluated.len() * spec.traffic.len(),
        rounds,
        frontier_sizes,
        dominated,
        stats,
        append_error: runner.append_error(),
        elapsed: start.elapsed(),
    };

    Ok(ExploreReport {
        points,
        frontiers,
        summary,
        metrics: metrics.snapshot(),
    })
}
