//! The CI `kill-and-resume` job as a tier-1 test, plus the half the
//! YAML never had: a run that dies holding the cache directory's writer
//! lock releases it by dying, so the next invocation is admitted at
//! once and converges to the uninterrupted run's bytes; a run that is
//! still alive refuses a second one by PID until it is killed.

mod common;

use std::collections::BTreeSet;
use std::io::Read;
use std::process::Stdio;

use common::{assert_same_bytes, command, experiment, Sandbox};

/// The YAML's 12-cell grid with a smaller sample: nothing here waits
/// for a kill window, the failpoint picks the moment.
const GRID: &str = "[experiment]\nname = \"killgrid\"\n\n[measure]\nwarmup = 100\n\
     sample_packets = 150\nmax_cycles = 20000\nwatchdog_cycles = 1000\n\n[grid]\n\
     presets = [\"wh64\", \"vc64\"]\nrates = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06]\n";

fn run_grid(sandbox: &Sandbox, spec: &str, cache: &str, out: &str, failpoints: Option<&str>) {
    let run = experiment(
        sandbox,
        ["run", spec, "1", cache, out, "--quiet"],
        failpoints,
    );
    assert_eq!(
        run.code,
        if failpoints.is_some() { -1 } else { 0 },
        "{run:?}"
    );
    let said = run.stdout + &run.stderr;
    assert!(
        !said.contains("locked"),
        "no lock refusal, no breaking step: {said}"
    );
}

#[test]
fn a_run_killed_holding_the_lock_is_resumed_at_once_to_the_same_bytes() {
    let sandbox = Sandbox::new("kill-resume");
    let spec = sandbox.write("kill.toml", GRID);
    run_grid(&sandbox, &spec, "ref-cache", "ref-out", None);

    // Dies inside the third append: two cells cached, writer lock held.
    run_grid(&sandbox, &spec, "cache", "out", Some("cache.append=kill@3"));
    let cached = sandbox.read("cache/orion-exp-cache.jsonl").lines().count();
    assert!(cached < 12, "killed after {cached} of 12 cells were cached");

    run_grid(&sandbox, &spec, "cache", "out", None);
    for file in ["killgrid.jsonl", "killgrid.csv"] {
        assert_same_bytes(
            &sandbox.path(&format!("ref-out/{file}")),
            &sandbox.path(&format!("out/{file}")),
        );
    }
    let cache = sandbox.read("cache/orion-exp-cache.jsonl");
    let keys: BTreeSet<&str> = cache
        .lines()
        .map(|l| {
            let key = &l[l.find("\"cell\":\"").expect("a cell key") + 8..];
            &key[..key.find('"').unwrap()]
        })
        .collect();
    assert_eq!(cache.lines().count(), 12, "one cache line per cell");
    assert_eq!(keys.len(), 12, "no duplicate cell keys");
}

#[test]
fn a_live_run_refuses_a_second_by_pid_until_it_is_killed() {
    let sandbox = Sandbox::new("live-holder");
    let grid = sandbox.write("kill.toml", GRID);
    // One cell that outlives the test (a minute at most) unless killed.
    let long = sandbox.write(
        "long.toml",
        "[experiment]\nname = \"long\"\n\n[measure]\nwarmup = 100\nsample_packets = 100000000\n\
         max_cycles = 4000000000\n\n[grid]\npresets = [\"vc64\"]\nrates = [0.01]\n",
    );
    let (cache, out) = (sandbox.path("cache"), sandbox.path("out"));
    let mut args = vec!["experiment", "run", &long, "--cell-timeout-ms", "60000"];
    args.extend(["--cache-dir", &cache, "--out-dir", &out]);
    let mut holder = command(&args, None)
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn orion-power-cli");
    // Its first progress byte is printed once it holds the writer lock
    // (the pipe stays open: a closed stderr would panic its next print).
    let mut progress = holder.stderr.take().unwrap();
    let reported = progress.read_exact(&mut [0u8; 1]);
    let second = experiment(
        &sandbox,
        ["run", &grid, "1", "cache", "out", "--quiet"],
        None,
    );
    holder.kill().expect("SIGKILL the holder");
    holder.wait().unwrap();

    reported.expect("the holder reported in");
    assert_eq!(second.code, 2, "{second:?}");
    let pid = format!("(pid {})", holder.id());
    assert!(second.stdout.contains(&pid), "{second:?}");
    run_grid(&sandbox, &grid, "cache", "out", None);
}
