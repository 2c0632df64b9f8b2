//! The two front ends build the same experiment. A spec cell run by
//! `orion_exp::run_cell` and the `simulate` command line that names the
//! same design, traffic, rate, seed and measurement discipline must
//! deliver the same packets and flits and report the same latency and
//! power, so the names and the lowering cannot drift apart.

mod common;

use common::{cli, summary_u64};
use orion_exp::{run_cell, ExperimentSpec};

const SPEC: &str = "[experiment]\nname = \"front-ends\"\n\
     [measure]\nwarmup = 300\nsample_packets = 600\nmax_cycles = 60000\nwatchdog_cycles = 1000\n\
     [grid]\npresets = [\"vc64\"]\ntraffic = [\"broadcast@1:2\"]\nrates = [0.2]\n";

/// The text after `"key": ` up to the next `,` in a `--json` summary.
fn summary_field<'a>(summary: &'a str, key: &str) -> &'a str {
    let at = summary
        .find(&format!("\"{key}\": "))
        .unwrap_or_else(|| panic!("no `{key}` in {summary}"));
    let rest = &summary[at + key.len() + 4..];
    &rest[..rest.find(',').unwrap_or(rest.len())]
}

#[test]
fn simulate_runs_the_experiment_a_spec_cell_runs() {
    let cell = ExperimentSpec::parse(SPEC).unwrap().expand().remove(0);
    let record = run_cell(&cell);
    assert_eq!(record.outcome, "completed", "{record:?}");

    let m = cell.measure;
    let numbers = [
        record.derived_seed,
        m.warmup,
        m.sample_packets,
        m.max_cycles,
        m.watchdog_cycles,
    ]
    .map(|n| n.to_string());
    let [seed, warmup, sample, max_cycles, watchdog] = numbers.each_ref().map(String::as_str);
    let run = cli(
        &[
            "simulate",
            "--preset",
            "vc64",
            "--traffic",
            "broadcast",
            "--traffic-src",
            "1,2",
            "--rate",
            "0.2",
            "--seed",
            seed,
            "--warmup",
            warmup,
            "--sample",
            sample,
            "--max-cycles",
            max_cycles,
            "--watchdog-cycles",
            watchdog,
            "--json",
        ],
        None,
    );
    assert_eq!(run.code, 0, "{run:?}");
    let json = &run.stdout;
    assert_eq!(summary_u64(json, "delivered"), record.packets_delivered);
    assert_eq!(summary_u64(json, "flits_delivered"), record.flits_delivered);
    assert_eq!(
        summary_field(json, "avg_latency_cycles"),
        format!("{:.6}", record.avg_latency)
    );
    assert_eq!(
        summary_field(json, "total_power_w"),
        format!("{:.6}", record.total_power_w)
    );
}
