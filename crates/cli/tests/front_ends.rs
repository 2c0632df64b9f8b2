//! The two front ends run the same cell. A spec cell run by
//! `orion_exp::run_cell` and the `simulate` command line that names the
//! same design, traffic, rate, seed and measurement discipline print
//! the same record line, byte for byte, so the names, the lowering and
//! the output cannot drift apart.

mod common;

use common::cli;
use orion_exp::{run_cell, ExperimentSpec};

const MEASURE: &str = "[measure]\nwarmup = 300\nsample_packets = 600\nmax_cycles = 60000\n";

/// `simulate --json` for the one cell of a grid naming `preset`,
/// `traffic` and `rate` (seed 1, [`MEASURE`]) at `shards`, checked
/// against the line `run_cell` records for that cell.
fn assert_same_line(preset: &str, traffic: &str, rate: &str, shards: &str) {
    let spec = format!(
        "[experiment]\nname = \"front-ends\"\n{MEASURE}\
         [grid]\npresets = [\"{preset}\"]\ntraffic = [\"{traffic}\"]\nrates = [{rate}]\n"
    );
    let cell = ExperimentSpec::parse(&spec).unwrap().expand().remove(0);
    let record = run_cell(&cell);
    assert_eq!(record.outcome, "completed", "{record:?}");

    let run = cli(
        &[
            "simulate",
            "--preset",
            preset,
            "--traffic",
            traffic,
            "--rate",
            rate,
            "--warmup",
            "300",
            "--sample",
            "600",
            "--max-cycles",
            "60000",
            "--shards",
            shards,
            "--json",
        ],
        None,
    );
    assert_eq!(run.code, 0, "{run:?}");
    assert_eq!(run.stdout, format!("{}\n", record.to_json_line()));
}

#[test]
fn simulate_runs_the_experiment_a_spec_cell_runs() {
    assert_same_line("vc64", "broadcast@1:2", "0.2", "1");
}

#[test]
fn a_three_d_design_is_the_same_cell_on_both_front_ends() {
    assert_same_line("vc16-t4x4x4", "uniform", "0.01", "1");
}

#[test]
fn the_shard_count_leaves_the_record_line_alone() {
    assert_same_line("vc64", "broadcast@1:2", "0.2", "2");
}
