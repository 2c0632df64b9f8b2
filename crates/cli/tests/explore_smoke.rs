//! The CI `explore-smoke` job as a tier-1 test: a search is served
//! entirely from its cache on a rerun, thread count and a mid-search
//! kill never reach the frontier bytes, a prior grid run over the same
//! cache is deduplicated against, and every JSON file the search
//! writes is read back by a reader that is not the writer.

mod common;

use common::{assert_json, assert_same_bytes, cli, experiment, summary_u64, Run, Sandbox};

const SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/specs/explore_smoke.toml"
);

const ARTIFACTS: [&str; 4] = [
    "frontier.jsonl",
    "frontier.csv",
    "dominated.jsonl",
    "dominated.csv",
];

fn explore(sandbox: &Sandbox, threads: &str, cache: &str, out: &str, mode: &str) -> Run {
    let run = experiment(sandbox, ["explore", SMOKE, threads, cache, out, mode], None);
    assert_eq!(run.code, 0, "{run:?}");
    run
}

/// The four frontier / dominated files under `a` and `b` are equal.
fn assert_same_artifacts(sandbox: &Sandbox, a: &str, b: &str) {
    for file in ARTIFACTS {
        assert_same_bytes(
            &sandbox.path(&format!("{a}/explore-smoke.{file}")),
            &sandbox.path(&format!("{b}/explore-smoke.{file}")),
        );
    }
}

#[test]
fn a_rerun_is_all_cache_hits_with_identical_artifacts_and_valid_json() {
    let sandbox = Sandbox::new("explore-rerun");
    let first = explore(&sandbox, "2", "cache", "out", "--json").stdout;
    assert_eq!(summary_u64(&first, "cache_hits"), 0);
    assert_eq!(summary_u64(&first, "executed"), 14);
    assert_eq!(summary_u64(&first, "evaluations"), 14);

    let second = explore(&sandbox, "2", "cache", "out-2", "--json").stdout;
    assert_eq!(summary_u64(&second, "executed"), 0);
    assert_eq!(summary_u64(&second, "cache_hits"), 14);
    assert_same_artifacts(&sandbox, "out", "out-2");

    // A warm third search emits the explore metrics snapshot.
    let (cache, out, obs) = (
        sandbox.path("cache"),
        sandbox.path("out-3"),
        sandbox.path("obs"),
    );
    let mut args = vec!["experiment", "explore", SMOKE, "--threads", "2"];
    args.extend([
        "--cache-dir",
        &cache,
        "--out-dir",
        &out,
        "--observe-dir",
        &obs,
        "--quiet",
    ]);
    let third = cli(&args, None);
    assert_eq!(third.code, 0, "{third:?}");
    for text in [first, second, sandbox.read("obs/metrics.json")] {
        assert_json(&text);
    }
    for lines in [
        "out/explore-smoke.frontier.jsonl",
        "out/explore-smoke.dominated.jsonl",
        "cache/orion-exp-cache.jsonl",
    ] {
        let text = sandbox.read(lines);
        assert!(!text.is_empty(), "{lines} is empty");
        text.lines().for_each(assert_json);
    }
}

#[test]
fn thread_count_never_reaches_the_frontier() {
    let sandbox = Sandbox::new("explore-threads");
    explore(&sandbox, "2", "cache-2", "out-2", "--quiet");
    explore(&sandbox, "7", "cache-7", "out-7", "--quiet");
    assert_same_artifacts(&sandbox, "out-2", "out-7");
}

#[test]
fn a_search_killed_mid_budget_resumes_to_the_same_frontier() {
    let sandbox = Sandbox::new("explore-kill");
    explore(&sandbox, "1", "ref-cache", "ref-out", "--quiet");

    // Dies inside the third append: two evaluations cached.
    let killed = experiment(
        &sandbox,
        ["explore", SMOKE, "1", "cache", "out", "--quiet"],
        Some("cache.append=kill@3"),
    );
    assert_eq!(killed.code, -1, "{killed:?}");
    let cached = sandbox.read("cache/orion-exp-cache.jsonl").lines().count();
    assert!(cached < 14, "killed after {cached} of 14 cells were cached");

    explore(&sandbox, "1", "cache", "out", "--quiet");
    assert_same_artifacts(&sandbox, "ref-out", "out");
}

#[test]
fn a_search_deduplicates_against_a_prior_grid_run_over_its_cache() {
    let sandbox = Sandbox::new("explore-overlap");
    let grid = sandbox.write(
        "overlap.toml",
        "[experiment]\nname = \"overlap\"\n\n[measure]\nwarmup = 100\nsample_packets = 150\n\
         max_cycles = 20000\n\n[grid]\npresets = [\"vc16\", \"wh16\"]\nrates = [0.02]\n",
    );
    let run = experiment(
        &sandbox,
        ["run", &grid, "1", "cache", "grid-out", "--quiet"],
        None,
    );
    assert_eq!(run.code, 0, "{run:?}");

    let mixed = explore(&sandbox, "2", "cache", "out", "--json").stdout;
    assert_eq!(summary_u64(&mixed, "cache_hits"), 2);
    assert_eq!(summary_u64(&mixed, "executed"), 12);
}
