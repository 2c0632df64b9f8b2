//! The CI `shard-identity` job as a tier-1 test: the shard count is an
//! execution detail of the built binary, never part of a result. A
//! 16x16 sweep writes the same artifacts at 1 and 4 shards, `simulate`
//! prints the same bytes, and a checkpointed sharded run matches the
//! plain one and leaves no checkpoint file behind.

mod common;

use std::path::Path;

use common::{assert_same_bytes, cli, summary_u64, Sandbox};

const SHARD16: &str = "[experiment]\nname = \"shard16\"\n\
     description = \"16x16 torus sweep, run at two shard counts\"\n\n\
     [measure]\nwarmup = 200\nsample_packets = 500\nmax_cycles = 50000\n\n\
     [grid]\npresets = [\"wh64-t16\", \"vc64-t16\"]\nrates = [0.01, 0.02]\n";

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
fn a_sweep_writes_the_same_artifacts_at_one_and_four_shards() {
    let sandbox = Sandbox::new("shard-sweep");
    let spec = sandbox.write("shard16.toml", SHARD16);
    for shards in ["1", "4"] {
        let (cache, out) = (
            sandbox.path(&format!("cache-{shards}")),
            sandbox.path(&format!("out-{shards}")),
        );
        let mut args = vec!["experiment", "run", &spec, "--threads", "1"];
        args.extend([
            "--shards",
            shards,
            "--cache-dir",
            &cache,
            "--out-dir",
            &out,
            "--json",
        ]);
        let run = cli(&args, None);
        assert_eq!(run.code, 0, "{run:?}");
        assert_eq!(summary_u64(&run.stdout, "simulated"), 4, "{run:?}");
    }
    for file in ["shard16.jsonl", "shard16.csv"] {
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
