//! `fig5_sweep`: the paper's Fig. 5 grid, spec in, artifacts out.
//!
//! `specs/fig5.toml` (a copy of `examples/specs/fig5.toml`: 4x4 torus,
//! WH64/VC16/VC64/VC128 x ten uniform rates, warm-up 1000, 10 000
//! sample packets) runs through `run_spec` on one thread with no cache,
//! and the records are written with `write_artifacts`. `--seed` becomes
//! the grid's `seeds` axis; at seed 1 the spec runs verbatim.

use std::path::PathBuf;
use std::time::Instant;

use orion_exp::{
    run_cell, run_spec, write_artifacts, Cell, CellRecord, EngineOptions, ExperimentSpec,
};

use super::{Env, Pass, Traced, Workload};
use crate::digest::records_digest;
use crate::host::bench_dir;
use crate::layers::run_cell_decomposed;
use crate::span::Tracer;

pub struct Fig5Sweep;

pub struct Ready {
    spec: ExperimentSpec,
    cells: Vec<Cell>,
    out: PathBuf,
}

/// Run outcomes a healthy Fig. 5 cell may end with. Below the knee a
/// cell completes; above it the run loop stops early on backlog
/// divergence, or the watchdog reports the wormhole-torus stall the
/// paper's section 4.1 warns of. Which cell ends how is part of the record and
/// so of the digest; what may never appear is a rejected, corrupted,
/// faulted or budget-exhausted cell.
fn outcome_ok(record: &CellRecord) -> bool {
    record.cell_outcome == "ok"
        && matches!(
            record.outcome.as_str(),
            "completed" | "saturated" | "deadlocked" | "livelocked"
        )
}

impl Workload for Fig5Sweep {
    const NAME: &'static str = "fig5_sweep";
    type Ready = Ready;

    fn setup(env: &Env, round: usize) -> Ready {
        let text = std::fs::read_to_string(bench_dir().join("specs/fig5.toml"))
            .expect("specs/fig5.toml is part of the benchmark");
        let mut spec = ExperimentSpec::parse(&text).expect("specs/fig5.toml is a valid spec");
        spec.seeds = vec![env.seed];
        let cells = spec.expand();
        let out = env.scratch.join(format!("fig5-artifacts-{round}"));
        std::fs::create_dir_all(&out).expect("scratch is writable");
        // One cell end to end, so code and allocator are warm before
        // the first timed pass.
        std::hint::black_box(run_cell(&cells[0]));
        Ready { spec, cells, out }
    }

    fn pass(_env: &Env, ready: &mut Ready) -> Pass {
        let start = Instant::now();
        let options = EngineOptions {
            threads: 1,
            ..EngineOptions::default()
        };
        let (records, summary) =
            run_spec(&ready.spec, &options).expect("run_spec without a cache cannot fail on I/O");
        write_artifacts(&ready.out, &ready.spec.name, &records).expect("scratch is writable");
        let wall = start.elapsed();

        let mut pass = Pass {
            wall,
            sim_cycles: records
                .iter()
                .map(|r| r.measured_cycles + ready.spec.measure.warmup)
                .sum(),
            flits: records.iter().map(|r| r.flits_delivered).sum(),
            cells: records.len() as u64,
            ops_ms: vec![wall.as_secs_f64() * 1e3],
            attempted: ready.cells.len() as u64,
            digest: records_digest(&records),
            ..Pass::default()
        };
        if records.len() != ready.cells.len() || summary.is_degraded() {
            pass.fail(format!("run_spec returned a degraded grid: {summary:?}"));
        }
        for record in records.iter().filter(|r| !outcome_ok(r)) {
            pass.fail(format!(
                "{}: {}/{}",
                record.cell, record.cell_outcome, record.outcome
            ));
        }
        pass
    }

    fn traced(_env: &Env, ready: &mut Ready, tracer: &mut Tracer) -> Traced {
        let mut out = Traced::default();
        // Untraced reference: every cell through the engine's own
        // per-cell entry point, timed whole.
        let reference_start = Instant::now();
        let records: Vec<CellRecord> = ready.cells.iter().map(run_cell).collect();
        out.untraced = reference_start.elapsed();

        let traced_start = Instant::now();
        let (root, ()) = tracer.scope_id("bench.pass", |t| {
            for (cell, record) in ready.cells.iter().zip(&records) {
                let replay = run_cell_decomposed(cell, t);
                out.check(
                    replay.measured_cycles == record.measured_cycles
                        && replay.flits_delivered == record.flits_delivered,
                    || format!("{}: the decomposed run diverged from run_cell", record.cell),
                );
            }
        });
        out.traced = traced_start.elapsed();
        out.roots.push(root);
        out
    }
}
