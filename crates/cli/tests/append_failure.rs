//! A cache sink that breaks mid-run, driven through the real binary
//! for both `experiment run` and `experiment explore`: the failed
//! append closes the sink for good, every record is still returned,
//! the incomplete cache is a degraded result (exit 3) with the same
//! accounting from both subcommands, and a rerun simulates exactly the
//! cells that never reached the disk.

mod common;

use common::{assert_flat_json_lines, assert_same_bytes, summary_u64, Sandbox};

const GRID: &str = "[experiment]\nname = \"sink\"\n\n[measure]\nwarmup = 100\n\
    sample_packets = 100\nmax_cycles = 20000\n\n[grid]\npresets = [\"vc16\"]\n\
    rates = [0.02, 0.03, 0.04, 0.05]\n";

const SEARCH: &str = "[experiment]\nname = \"sink\"\n\n[measure]\nwarmup = 100\n\
    sample_packets = 100\nmax_cycles = 20000\n\n[explore]\nstrategy = \"grid-refine\"\n\
    budget = 4\nrate = 0.02\n\n[space]\nfamilies = [\"vc\"]\nvcs = [2, 4]\ndepths = [4, 8]\n";

/// One single-threaded run of `experiment <sub>` over the sandbox's
/// `spec.toml`, with the append failpoint armed or not.
fn experiment(
    sub: &str,
    sandbox: &Sandbox,
    cache: &str,
    out: &str,
    mode: &str,
    armed: bool,
) -> common::Run {
    let spec = sandbox.path("spec.toml");
    let failpoints = armed.then_some("cache.append=error@2");
    common::experiment(sandbox, [sub, &spec, "1", cache, out, mode], failpoints)
}

/// The scenario, for one subcommand: `artifacts` are its output files,
/// `simulated` the summary key counting cells that actually ran.
fn broken_sink_scenario(sub: &str, spec: &str, artifacts: &[&str], simulated: &str) {
    let sandbox = Sandbox::new(&format!("sink-{sub}"));
    sandbox.write("spec.toml", spec);
    let clean = experiment(sub, &sandbox, "cache-clean", "out-clean", "--quiet", false);
    assert_eq!(clean.code, 0, "{clean:?}");

    // The second of four appends fails: that record and the two after
    // it are not cached, and nothing is written through the sink again.
    let broken = experiment(sub, &sandbox, "cache", "out", "--quiet", true);
    assert_eq!(
        broken.code, 3,
        "an incomplete cache is a degraded result: {broken:?}"
    );
    assert!(
        broken
            .stdout
            .contains("warning: cache append broke mid-run (3 record(s) not cached)"),
        "{broken:?}"
    );
    assert!(
        broken
            .stdout
            .contains("injected failure at failpoint `cache.append`"),
        "{broken:?}"
    );
    for file in artifacts {
        assert_same_bytes(
            &sandbox.path(&format!("out-clean/{file}")),
            &sandbox.path(&format!("out/{file}")),
        );
    }
    let cache_file = sandbox.read("cache/orion-exp-cache.jsonl");
    assert_eq!(
        assert_flat_json_lines(&cache_file),
        1,
        "every line parses: {cache_file}"
    );
    assert_eq!(cache_file.lines().count(), 1, "no torn or welded line");

    // Disk healthy again: exactly the three uncached cells simulate.
    let rerun = experiment(sub, &sandbox, "cache", "out-rerun", "--json", false);
    assert_eq!(rerun.code, 0, "{rerun:?}");
    assert_eq!(summary_u64(&rerun.stdout, "cache_hits"), 1);
    assert_eq!(summary_u64(&rerun.stdout, simulated), 3);
    assert_eq!(summary_u64(&rerun.stdout, "append_failures"), 0);
    for file in artifacts {
        assert_same_bytes(
            &sandbox.path(&format!("out-clean/{file}")),
            &sandbox.path(&format!("out-rerun/{file}")),
        );
    }
    assert_eq!(
        assert_flat_json_lines(&sandbox.read("cache/orion-exp-cache.jsonl")),
        4
    );
}

#[test]
fn run_survives_a_broken_cache_sink_and_exits_degraded() {
    broken_sink_scenario("run", GRID, &["sink.jsonl", "sink.csv"], "simulated");
}

#[test]
fn explore_survives_a_broken_cache_sink_and_exits_degraded() {
    let artifacts = [
        "sink.frontier.jsonl",
        "sink.frontier.csv",
        "sink.dominated.jsonl",
        "sink.dominated.csv",
    ];
    broken_sink_scenario("explore", SEARCH, &artifacts, "executed");
}

#[test]
fn both_subcommands_report_the_same_append_failures() {
    for (sub, spec) in [("run", GRID), ("explore", SEARCH)] {
        let sandbox = Sandbox::new(&format!("sink-json-{sub}"));
        sandbox.write("spec.toml", spec);
        let broken = experiment(sub, &sandbox, "cache", "out", "--json", true);
        assert_eq!(broken.code, 3, "{sub}: {broken:?}");
        assert_eq!(
            summary_u64(&broken.stdout, "append_failures"),
            3,
            "{sub}: cells - 1"
        );
    }
}
