//! The CI `experiment-smoke` job as a tier-1 test: the cache serves a
//! rerun entirely and byte-identically, thread count never reaches the
//! artifacts, repeated axis values are one cell, a cell crashed through
//! `ORION_FAILPOINTS` costs one record and not the grid, and everything
//! the one JSON writer emits is read back by a reader that is not the
//! writer.

mod common;

use common::{
    assert_flat_json_lines, assert_json, assert_same_bytes, cli, experiment, summary_u64, Sandbox,
};

const SMOKE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../../examples/specs/smoke.toml"
);

fn run_smoke(sandbox: &Sandbox, threads: &str, cache: &str, out: &str) -> String {
    let run = experiment(sandbox, ["run", SMOKE, threads, cache, out, "--json"], None);
    assert_eq!(run.code, 0, "{run:?}");
    assert_json(&run.stdout);
    run.stdout
}

#[test]
fn rerun_is_served_from_the_cache_with_identical_artifacts() {
    let sandbox = Sandbox::new("smoke-rerun");
    let first = run_smoke(&sandbox, "2", "cache", "out");
    assert_eq!(summary_u64(&first, "cache_hits"), 0);
    assert_eq!(summary_u64(&first, "simulated"), 4);

    let second = run_smoke(&sandbox, "2", "cache", "out-2");
    assert_eq!(summary_u64(&second, "simulated"), 0);
    assert_eq!(summary_u64(&second, "cache_hits"), 4);
    assert_same_bytes(
        &sandbox.path("out/smoke.jsonl"),
        &sandbox.path("out-2/smoke.jsonl"),
    );

    assert_eq!(assert_flat_json_lines(&sandbox.read("out/smoke.jsonl")), 4);
    assert_eq!(
        assert_flat_json_lines(&sandbox.read("cache/orion-exp-cache.jsonl")),
        4
    );
    assert_eq!(
        assert_flat_json_lines(&sandbox.read("cache/orion-exp-manifest.json")),
        1
    );
}

#[test]
fn thread_count_never_reaches_the_artifacts() {
    let sandbox = Sandbox::new("smoke-threads");
    run_smoke(&sandbox, "1", "cache-1", "out-1");
    run_smoke(&sandbox, "4", "cache-4", "out-4");
    for file in ["smoke.jsonl", "smoke.csv"] {
        assert_same_bytes(
            &sandbox.path(&format!("out-1/{file}")),
            &sandbox.path(&format!("out-4/{file}")),
        );
    }
}

#[test]
fn repeated_axis_values_are_one_cell_not_sixteen() {
    let sandbox = Sandbox::new("smoke-dup");
    let spec = sandbox.write(
        "dup.toml",
        "[experiment]\nname = \"dup\"\n\n[measure]\nwarmup = 100\nsample_packets = 150\n\
         max_cycles = 20000\n\n[grid]\npresets = [\"vc64\", \"vc8x8\"]\n\
         traffic = [\"uniform\", \"uniform\"]\nrates = [0.02, 0.02]\nseeds = [1, 1]\n",
    );
    let run = experiment(
        &sandbox,
        ["run", &spec, "1", "cache", "out", "--json"],
        None,
    );
    assert_eq!(run.code, 0, "{run:?}");
    assert_eq!(summary_u64(&run.stdout, "cells"), 1);
    assert_eq!(assert_flat_json_lines(&sandbox.read("out/dup.jsonl")), 1);
    assert_eq!(
        assert_flat_json_lines(&sandbox.read("cache/orion-exp-cache.jsonl")),
        1
    );
}

#[test]
fn poisoned_cell_exits_3_but_grid_completes() {
    let sandbox = Sandbox::new("smoke-poison");
    let spec = sandbox.write(
        "spec.toml",
        "[experiment]\nname = \"cli-poison\"\n\n[measure]\nwarmup = 100\nsample_packets = 100\n\
         max_cycles = 20000\n\n[grid]\npresets = [\"vc16\"]\nrates = [0.02, 0.055]\n",
    );
    let out = sandbox.path("out");
    let args = ["experiment", "run", &spec, "--out-dir", &out, "--json"];
    let run = cli(&args, Some("cell.run:r0.055000=panic"));
    assert_eq!(run.code, 3, "{run:?}");
    assert!(run.stdout.contains("\"crashed\": 1"), "{run:?}");

    // The grid still produced a full artifact: the healthy cell's
    // record plus exactly one quarantined record.
    let jsonl = sandbox.read("out/cli-poison.jsonl");
    assert_eq!(jsonl.lines().count(), 2);
    assert_eq!(
        jsonl
            .lines()
            .filter(|l| l.contains("\"cell_outcome\":\"crashed\""))
            .count(),
        1
    );
}

#[test]
fn a_malformed_failpoint_list_is_bad_input_not_a_silent_no_op() {
    let run = cli(&["experiment", "run", SMOKE], Some("cell.run=panic,junk"));
    assert_eq!(run.code, 2, "{run:?}");
    assert!(run.stderr.contains("ORION_FAILPOINTS"), "{run:?}");
    assert!(run.stderr.contains("`junk`"), "{run:?}");
    assert!(run.stdout.is_empty(), "{run:?}");
}

#[test]
fn a_router_wider_than_the_state_layout_is_bad_input_not_a_panic() {
    // 5 ports x 26 VCs = 130 input VCs: more than the 128 a router holds.
    let run = cli(
        &[
            "simulate", "--preset", "vc26x2", "--warmup", "10", "--sample", "10",
        ],
        None,
    );
    assert_eq!(run.code, 2, "{run:?}");
    assert!(run.stderr.contains("130 input VCs"), "{run:?}");
    assert!(!run.stderr.contains("panicked"), "{run:?}");
    assert!(run.stdout.is_empty(), "{run:?}");
}

#[test]
fn an_observed_simulate_run_emits_valid_json_everywhere() {
    let sandbox = Sandbox::new("smoke-observe");
    let obs = sandbox.path("obs");
    let run = cli(
        &[
            "simulate",
            "--preset",
            "vc16",
            "--rate",
            "0.03",
            "--warmup",
            "100",
            "--sample",
            "100",
            "--observe-dir",
            &obs,
            "--sample-every",
            "20",
            "--trace-packets",
            "16",
            "--json",
        ],
        None,
    );
    assert_eq!(run.code, 0, "{run:?}");
    assert_json(&run.stdout);
    assert_json(&sandbox.read("obs/metrics.json"));
    assert!(assert_flat_json_lines(&sandbox.read("obs/powermap.jsonl")) > 0);
    for nested in ["obs/probes.jsonl", "obs/trace.jsonl"] {
        let text = sandbox.read(nested);
        assert!(!text.is_empty(), "{nested} is empty");
        text.lines().for_each(assert_json);
    }
}

#[test]
fn the_independent_reader_rejects_what_json_loads_would() {
    for good in [
        "{}",
        "[]",
        " {\"a\": [1, -2.5e3, \"x\\\"y\", null, {\"b\": true}]} ",
    ] {
        assert_json(good);
    }
    for bad in [
        "",
        "{",
        "{\"a\": 1,}",
        "{\"a\" 1}",
        "{a: 1}",
        "[1 2]",
        "{\"a\": nan}",
        "{\"a\": 1} {}",
        "\"tab\there\"",
        "1.2.3",
    ] {
        let verdict = std::panic::catch_unwind(|| assert_json(bad));
        assert!(verdict.is_err(), "accepted malformed JSON: {bad:?}");
    }
}
