//! Acceptance tests for the exploration engine, run against the
//! shipped `examples/specs/explore_smoke.toml`:
//!
//! 1. the search converges to a *pinned* Pareto frontier (exact
//!    dominating set — any model or strategy change that moves it must
//!    update this file deliberately);
//! 2. `--threads N` produces byte-identical frontier artifacts to
//!    `--threads 1` for the fixed seed/budget;
//! 3. a search killed mid-budget and restarted over the same cache
//!    replays its prefix as cache hits and converges to the same
//!    frontier;
//! 4. explore-evaluated cells dedup against grid-run cells — a grid
//!    covering overlapping cells makes the explorer report cache hits
//!    instead of re-simulating.

use std::path::PathBuf;

use orion_exp::{run_spec, EngineOptions, ExperimentSpec, Supervision};
use orion_explore::{run_explore, write_explore_artifacts, ExploreOptions, ExploreSpec};

fn smoke_spec() -> ExploreSpec {
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../examples/specs/explore_smoke.toml");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    ExploreSpec::parse(&text).expect("shipped example spec must parse")
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("orion-explore-acc-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The smoke search's known frontier on (avg latency, total power)
/// under uniform traffic at rate 0.02, in frontier order (ascending
/// latency): wormhole routers dominate the VC family outright at this
/// light load (no VC arbitration power for the same storage), and
/// within WH the frontier trades latency against buffer power from
/// 128 down to 8 flits of storage.
const PINNED_FRONTIER: [&str; 3] = ["wh128", "wh16", "wh8"];

#[test]
fn smoke_search_converges_to_the_pinned_frontier() {
    let spec = smoke_spec();
    let dir = temp_dir("pinned");
    let report = run_explore(
        &spec,
        &ExploreOptions {
            cache_dir: Some(dir.join("cache")),
            ..ExploreOptions::default()
        },
    )
    .unwrap();

    assert!(!report.summary.is_degraded(), "{:?}", report.summary.stats);
    assert_eq!(report.summary.evaluations, 14, "grid-refine corner sweep");
    let front = &report.frontiers["uniform"];
    let labels: Vec<&str> = front.members().iter().map(|m| m.label.as_str()).collect();
    assert_eq!(
        labels, PINNED_FRONTIER,
        "the dominating set moved — model or strategy change? \
         Update PINNED_FRONTIER only if that was deliberate."
    );
    // Every frontier point is flagged in the artifact rows, and the
    // flagged set is exactly the frontier.
    let flagged: Vec<&str> = report
        .points
        .iter()
        .filter(|p| p.on_frontier)
        .map(|p| p.candidate.as_str())
        .collect();
    assert_eq!(flagged, PINNED_FRONTIER);
    assert_eq!(
        report.summary.dominated,
        report.points.len() - PINNED_FRONTIER.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn thread_count_does_not_change_the_artifact_bytes() {
    let spec = smoke_spec();
    let dir = temp_dir("threads");

    let mut artifact_sets = Vec::new();
    for threads in [1usize, 4] {
        let out = dir.join(format!("out-{threads}"));
        let report = run_explore(
            &spec,
            &ExploreOptions {
                threads,
                cache_dir: Some(dir.join(format!("cache-{threads}"))),
                ..ExploreOptions::default()
            },
        )
        .unwrap();
        let artifacts = write_explore_artifacts(&out, &spec.name, &report.points).unwrap();
        artifact_sets.push(
            [
                artifacts.frontier_jsonl,
                artifacts.frontier_csv,
                artifacts.dominated_jsonl,
                artifacts.dominated_csv,
            ]
            .map(|p| std::fs::read(p).unwrap()),
        );
    }
    for (a, b) in artifact_sets[0].iter().zip(&artifact_sets[1]) {
        assert_eq!(a, b, "threads=1 and threads=4 artifacts diverge");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interrupted_search_resumes_from_cache_to_the_same_frontier() {
    let spec = smoke_spec();
    let dir = temp_dir("resume");
    let cache = dir.join("cache");

    // "Kill" the search early by capping the budget below the full
    // trajectory, leaving a partial cache behind.
    let partial = run_explore(
        &spec,
        &ExploreOptions {
            cache_dir: Some(cache.clone()),
            budget: Some(6),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(partial.summary.evaluations, 6);
    assert_eq!(partial.summary.stats.executed, 6);

    // Restart with the full budget over the same cache: the prefix is
    // replayed as cache hits, only the remainder simulates.
    let resumed = run_explore(
        &spec,
        &ExploreOptions {
            cache_dir: Some(cache),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.summary.evaluations, 14);
    assert_eq!(resumed.summary.stats.cache_hits, 6, "prefix replayed");
    assert_eq!(resumed.summary.stats.executed, 8, "only the tail simulated");

    // And it lands on the exact same frontier as a cold one-shot run.
    let cold = run_explore(
        &spec,
        &ExploreOptions {
            cache_dir: Some(dir.join("cache-cold")),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(resumed.frontiers, cold.frontiers);
    assert_eq!(resumed.points.len(), cold.points.len());
    for (a, b) in resumed.points.iter().zip(&cold.points) {
        assert_eq!(a.to_json_line(), b.to_json_line());
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn explore_cells_dedup_against_grid_run_cells() {
    let spec = smoke_spec();
    let dir = temp_dir("dedup");
    let cache = dir.join("cache");

    // A conventional grid run covering two of the explorer's candidate
    // cells (same measure window, rate, workload seed).
    let grid = ExperimentSpec::parse(
        "[experiment]\n\
         name = \"overlap\"\n\
         [measure]\n\
         warmup = 100\n\
         sample_packets = 150\n\
         max_cycles = 20000\n\
         [grid]\n\
         presets = [\"vc16\", \"wh16\"]\n\
         rates = [0.02]\n\
         seeds = [1]\n",
    )
    .unwrap();
    let (_, grid_summary) = run_spec(
        &grid,
        &EngineOptions {
            threads: 1,
            cache_dir: Some(cache.clone()),
            progress: false,
            supervision: Supervision {
                checkpoint_every: 0,
                shards: 1,
            },
        },
    )
    .unwrap();
    assert_eq!(grid_summary.simulated, 2);

    // The explorer reuses those cells from the shared cache: exactly
    // the two overlapping cells are hits, nothing is simulated twice.
    let report = run_explore(
        &spec,
        &ExploreOptions {
            cache_dir: Some(cache),
            ..ExploreOptions::default()
        },
    )
    .unwrap();
    assert_eq!(report.summary.evaluations, 14);
    assert_eq!(report.summary.stats.cache_hits, 2, "vc16 and wh16 reused");
    assert_eq!(report.summary.stats.executed, 12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn every_candidate_in_a_maximal_space_lowers_to_a_config() {
    // Regression for the engine panic at `candidate_cell`: wh/cb
    // canonical names encode vcs*depth totals that exceed the
    // individual depth bound (vcs=8, depth=16384 -> "wh131072"), and
    // the name codec must accept every product reachable from
    // validated axes. Exercise the extreme corners of every axis and
    // assert the exact lookup the engine relies on never comes back
    // empty.
    let spec = ExploreSpec::parse(
        "[experiment]\n\
         name = \"maximal\"\n\
         [explore]\n\
         budget = 1\n\
         [space]\n\
         families = [\"wh\", \"vc\", \"xb\", \"cb\"]\n\
         vcs = [1, 8, 1024]\n\
         depths = [1, 16384, 65536]\n\
         radix = [2, 64]\n\
         topology = [\"torus\", \"mesh\"]\n\
         nodes = [\"0.8um\", \"70nm\"]\n",
    )
    .unwrap();
    let space = &spec.space;

    let mut checked = 0usize;
    for f in 0..space.families.len() {
        for v in 0..space.vcs.len() {
            for d in 0..space.depths.len() {
                for r in 0..space.radices.len() {
                    for t in 0..space.topologies.len() {
                        for n in 0..space.nodes.len() {
                            let c = orion_explore::Candidate {
                                ix: [f, v, d, r, t, n],
                            };
                            let name = c.name(space);
                            assert!(
                                orion_exp::spec::preset_config(&name).is_some(),
                                "candidate {name} must lower to a config"
                            );
                            checked += 1;
                        }
                    }
                }
            }
        }
    }
    assert_eq!(checked, space.size());
}
