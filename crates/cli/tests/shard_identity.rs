//! The CI `shard-identity` job as a tier-1 test: the shard count is an
//! execution detail of the built binary, never part of a result. A
//! sweep with a 28x28 cell writes the same artifacts under a core
//! budget of 1 (one shard) and of 4 (the wide cell sharded), `simulate`
//! prints the same bytes at 1 and 4 shards, a checkpointed sharded
//! run matches the plain one and leaves no checkpoint file behind, and
//! a checkpoint file written at one shard count resumes at another.

mod common;

use std::path::Path;

use common::{assert_same_bytes, cli, summary_u64, Sandbox};

/// One cell below the runner's sharding threshold (4x4) and one above
/// it (28x28, 784 nodes).
const SWEEP: &str = "[experiment]\nname = \"budget\"\n\
     description = \"a narrow and a wide torus, run under two core budgets\"\n\n\
     [measure]\nwarmup = 100\nsample_packets = 300\nmax_cycles = 50000\n\n\
     [grid]\npresets = [\"vc16\", \"vc64-t28\"]\nrates = [0.01]\n";

/// `simulate` on `vc16` over a 16x16 torus at `shards`, plus `extra`.
fn simulate(shards: &str, extra: &[&str]) -> String {
    let mut args = vec!["simulate", "--preset", "vc16-t16"];
    args.extend(["--rate", "0.02", "--warmup", "200", "--sample", "300"]);
    args.extend(["--max-cycles", "50000", "--shards", shards, "--json"]);
    args.extend(extra);
    let run = cli(&args, None);
    assert_eq!(run.code, 0, "{run:?}");
    run.stdout
}

#[test]
fn a_sweep_writes_the_same_artifacts_under_budgets_of_one_and_four() {
    let sandbox = Sandbox::new("budget-sweep");
    let spec = sandbox.write("budget.toml", SWEEP);
    for threads in ["1", "4"] {
        let (cache, out) = (
            sandbox.path(&format!("cache-{threads}")),
            sandbox.path(&format!("out-{threads}")),
        );
        let args = [
            "experiment",
            "run",
            &spec,
            "--threads",
            threads,
            "--cache-dir",
            &cache,
            "--out-dir",
            &out,
            "--json",
        ];
        let run = cli(&args, None);
        assert_eq!(run.code, 0, "{run:?}");
        assert_eq!(summary_u64(&run.stdout, "simulated"), 2, "{run:?}");
    }
    for file in ["budget.jsonl", "budget.csv"] {
        assert_same_bytes(
            &sandbox.path(&format!("out-1/{file}")),
            &sandbox.path(&format!("out-4/{file}")),
        );
    }
}

#[test]
fn simulate_prints_the_same_bytes_at_one_and_four_shards_checkpointed_or_not() {
    let sandbox = Sandbox::new("shard-simulate");
    let four = simulate("4", &[]);
    assert_eq!(simulate("1", &[]), four);

    let ckpt = sandbox.path("shard.ckpt");
    let checkpointed = simulate(
        "4",
        &["--checkpoint-every", "64", "--checkpoint-file", &ckpt],
    );
    assert_eq!(checkpointed, four);
    assert!(
        !Path::new(&ckpt).exists(),
        "a completed run removes its checkpoint"
    );
}

/// `simulate` on the 4x4 `vc16` at `shards`, plus `extra`.
fn quick(shards: &str, extra: &[&str], failpoints: Option<&str>) -> common::Run {
    let mut args = vec!["simulate", "--preset", "vc16", "--rate", "0.03"];
    args.extend([
        "--warmup",
        "100",
        "--sample",
        "150",
        "--max-cycles",
        "20000",
    ]);
    args.extend(["--shards", shards, "--json"]);
    args.extend(extra);
    cli(&args, failpoints)
}

#[test]
fn a_checkpoint_written_at_one_shard_count_resumes_at_another() {
    let sandbox = Sandbox::new("cross-count-resume");
    let file = sandbox.path("cell.ckpt");
    for audit in [&[][..], &["--audit-every", "40"][..]] {
        for (written, resumed) in [("4", "1"), ("4", "2"), ("1", "4")] {
            let case = format!("written at {written}, resumed at {resumed}, {audit:?}");
            // The second checkpoint write kills the process: the first,
            // at cycle 150, is durable on disk.
            let mut write = vec!["--checkpoint-every", "150", "--checkpoint-file", &file];
            write.extend(audit);
            let killed = quick(written, &write, Some("ckpt.write=kill@2"));
            assert_eq!(killed.code, -1, "{case}: {killed:?}");
            assert!(Path::new(&file).exists(), "{case}");

            let plain = quick(resumed, audit, None);
            let mut resume = vec!["--resume-from", &file];
            resume.extend(audit);
            let run = quick(resumed, &resume, None);
            assert_eq!(run.code, 0, "{case}: {run:?}");
            assert!(
                run.stderr.contains("at cycle 150"),
                "{case}: {}",
                run.stderr
            );
            assert_eq!(run.stdout, plain.stdout, "{case}");
            assert!(!Path::new(&file).exists(), "{case}: a finished run GCs");
        }
    }
}
