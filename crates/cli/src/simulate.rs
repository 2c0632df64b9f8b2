//! The `simulate` subcommand: run one experiment cell from the
//! command line, with watchdog and audit control and opt-in
//! observability, and render the structured [`RunOutcome`] as
//! human-readable text or as the cell's record line.
//!
//! The command line names a cell exactly as a spec grid does: `--preset`
//! is a design name, `--traffic` a traffic name, `--seed` the seed-axis
//! value and `--warmup/--sample/--max-cycles/--watchdog-cycles/
//! --audit-every` the `[measure]` section (same defaults). The cell
//! lowers through [`Cell::experiment`] under its derived seed, so
//! `--json` prints byte for byte the line `experiment run` writes for
//! that cell.
//!
//! With `--observe-dir DIR` the run additionally collects event
//! metrics, per-node probe time series and (with `--trace-packets N`)
//! flit lifecycle spans, and writes them under `DIR` as
//! `metrics.json`, `probes.jsonl`, `powermap.jsonl` and `trace.jsonl`
//! (see `docs/OBSERVABILITY.md`). The `powermap` subcommand renders
//! the emitted `powermap.jsonl` as the paper's Fig. 6 grid.
//!
//! Error discipline (audited): no production path in this module
//! panics on user input or I/O — every failure maps to a typed
//! [`ArgError`] or a coded [`CmdOutput`]. The `unwrap`s that remain
//! live in `#[cfg(test)]` code or are infallible `unwrap_or` defaults;
//! the single `expect` in [`run_with_checkpoints`] asserts a caller
//! invariant (at least one checkpoint path), not a runtime condition.

use std::path::Path;

use orion_core::{Experiment, ObserveOptions, Report, RunOutcome};
use orion_exp::{Cell, CellRecord, DesignPoint, MeasureSpec, TrafficKind};
use orion_net::{NodeId, Topology};
use orion_sim::Component;

use crate::args::{ArgError, Args, Grammar};
use crate::powermap::NodeCell;
use crate::run::{CmdOutput, EXIT_DEGRADED, EXIT_RUNTIME};

/// `simulate`: every option takes a value except the `--json` switch.
pub const GRAMMAR: Grammar = Grammar(
    "--preset DESIGN --shards N --rate X \
     --seed N --warmup N --sample N --max-cycles N --watchdog-cycles N --audit-every N \
     --traffic uniform|transpose|bit-complement|tornado|shuffle|bit-reversal|broadcast@X:Y[:Z] \
     --observe-dir DIR --sample-every N --trace-packets N --checkpoint-every N \
     --checkpoint-file F --resume-from F --json",
);

/// The cell the command line names, built the way a spec grid with no
/// override axes builds one.
fn cell(args: &Args) -> Result<Cell, ArgError> {
    let name = args.get("preset").unwrap_or("vc16");
    let point = DesignPoint::parse(name).ok_or_else(|| {
        ArgError(format!(
            "unknown preset `{name}` (expected wh64|vc16|vc64|vc128|xb|cb or a \
             design name like vc4x16-t8 or vc16-t4x4x4 — see docs/EXPLORATION.md)"
        ))
    })?;
    let name = args.get("traffic").unwrap_or("uniform");
    let traffic = TrafficKind::parse(name).ok_or_else(|| {
        ArgError(format!(
            "unknown traffic pattern `{name}` (expected uniform|transpose|\
             bit-complement|tornado|shuffle|bit-reversal|broadcast@X:Y[:Z])"
        ))
    })?;
    let d = MeasureSpec::default();
    let measure = MeasureSpec {
        warmup: args.u64_or("warmup", d.warmup)?,
        sample_packets: args.u64_or("sample", d.sample_packets)?,
        max_cycles: args.u64_or("max-cycles", d.max_cycles)?,
        watchdog_cycles: args.u64_or("watchdog-cycles", d.watchdog_cycles)?,
        audit_every: args.u64_or("audit-every", d.audit_every)?,
    };
    let rate = args.f64_or("rate", 0.05)?;
    Ok(Cell::new(
        point.name(),
        traffic,
        rate,
        args.u64_or("seed", 1)?,
        measure,
    ))
}

/// Runs a simulation experiment per the parsed command line. The exit
/// code distinguishes how the run ended: 0 for a cleanly completed
/// run, [`EXIT_DEGRADED`] for any other outcome (deadlock, saturation,
/// exhausted budget, corrupted audit) — scripts can branch on the code
/// without parsing output.
///
/// # Errors
///
/// Returns an [`ArgError`] for unknown options, malformed numbers and
/// configurations the runner rejects ([`orion_core::ConfigError`]).
pub fn simulate(args: &Args) -> Result<CmdOutput, ArgError> {
    let cell = cell(args)?;
    let shards = args.u64_or("shards", 1)? as usize;

    let observe_dir = args.path("observe-dir");
    let sample_every = args.u64_or("sample-every", 100)?;
    let trace_packets = args.u64_or("trace-packets", 0)? as usize;
    if observe_dir.is_none() {
        for name in ["sample-every", "trace-packets"] {
            if args.get(name).is_some() {
                return Err(ArgError(format!("--{name} requires --observe-dir")));
            }
        }
    }
    let ckpt_every = args.u64_or("checkpoint-every", 0)?;
    let ckpt_file = args.path("checkpoint-file");
    let resume_from = args.path("resume-from");
    if ckpt_every > 0 && ckpt_file.is_none() && resume_from.is_none() {
        return Err(ArgError(
            "--checkpoint-every requires --checkpoint-file (or --resume-from)".into(),
        ));
    }
    if ckpt_file.is_some() && ckpt_every == 0 {
        return Err(ArgError(
            "--checkpoint-file requires --checkpoint-every".into(),
        ));
    }
    if (ckpt_file.is_some() || resume_from.is_some()) && observe_dir.is_some() {
        return Err(ArgError(
            "checkpointing does not snapshot observer state; \
             --checkpoint-file/--resume-from cannot be combined with --observe-dir"
                .into(),
        ));
    }

    let mut experiment = cell.experiment(cell.derived_seed(), shards).map_err(|e| {
        ArgError(format!(
            "--traffic {} --rate {}: {e}",
            cell.traffic, cell.rate
        ))
    })?;
    if observe_dir.is_some() {
        experiment = experiment.observe(ObserveOptions {
            sample_every,
            trace_packets,
        });
    }

    let report = if ckpt_file.is_some() || resume_from.is_some() {
        // The checkpoint's owner stamp is the cell's fingerprint, so a
        // snapshot taken for one cell is never resumed into another.
        run_with_checkpoints(
            experiment,
            ckpt_every,
            ckpt_file.as_deref(),
            resume_from.as_deref(),
            cell.fingerprint(),
        )?
    } else {
        experiment.run().map_err(|e| ArgError(e.to_string()))?
    };
    if let Some(dir) = &observe_dir {
        if let Err(e) = write_observations(dir, &cell.config().topology, &report) {
            let dir = dir.display();
            return Ok(CmdOutput::failure(
                EXIT_RUNTIME,
                format!("cannot write observability artifacts under `{dir}`: {e}"),
            ));
        }
    }
    let text = if args.flag("json") {
        CellRecord::from_report(&cell, &report).to_json_line() + "\n"
    } else {
        render_human(&cell, &report)
    };
    let code = match report.outcome() {
        RunOutcome::Completed => 0,
        _ => EXIT_DEGRADED,
    };
    Ok(CmdOutput { text, code })
}

/// Runs `experiment` under the one checkpoint policy
/// ([`orion_ckpt::run_checkpointed`]): resume from a valid snapshot
/// owned by `fingerprint` (any defect degrades to a cycle-0 replay,
/// never a failure), persist every `every` cycles, delete the file
/// once the run finishes. The file is `ckpt_file`, else `resume_from`;
/// given both, the resume file is first moved onto the write path. All
/// checkpoint chatter goes to stderr so stdout stays a pure function
/// of the result: a resumed run's output is byte-identical to an
/// uninterrupted one.
fn run_with_checkpoints(
    experiment: Experiment,
    every: u64,
    ckpt_file: Option<&Path>,
    resume_from: Option<&Path>,
    fingerprint: u64,
) -> Result<Report, ArgError> {
    let path = ckpt_file
        .or(resume_from)
        .expect("caller passes at least one checkpoint path");
    if let Some(from) = resume_from.filter(|from| *from != path) {
        let _ = std::fs::rename(from, path);
    }
    let opts = orion_ckpt::CheckpointOptions {
        path: path.to_path_buf(),
        fingerprint,
        every,
        cancel: None,
    };
    let run =
        orion_ckpt::run_checkpointed(experiment, &opts).map_err(|e| ArgError(e.to_string()))?;
    if let Some(from) = resume_from {
        let from = from.display();
        match (run.resumed_from_cycle, &run.resume_error) {
            (Some(cycle), _) => eprintln!("resumed from `{from}` at cycle {cycle}"),
            (None, e) => eprintln!(
                "warning: cannot resume from `{from}`: {}; replayed from cycle 0",
                e.as_deref().unwrap_or("no checkpoint file")
            ),
        }
    }
    if let Some(e) = &run.ckpt_error {
        eprintln!("warning: checkpoint write failed: {e} (results are unaffected; only restart time is lost)");
    }
    match run.result {
        orion_core::RunResult::Finished(report) => Ok(*report),
        orion_core::RunResult::Aborted(_) => unreachable!("no cancel flag to abort the run"),
    }
}

/// Writes the run's observability artifacts under `dir`:
/// `metrics.json` (counter/gauge/histogram snapshot), `probes.jsonl`
/// (per-node time series), `powermap.jsonl` (the Fig. 6 per-node
/// energy/power map) and, when tracing was on, `trace.jsonl` (flit
/// lifecycle spans). Failures surface as I/O errors (exit code 1).
fn write_observations(dir: &Path, topology: &Topology, report: &Report) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("powermap.jsonl"), powermap_jsonl(topology, report))?;
    let Some(obs) = report.observations() else {
        return Ok(());
    };
    std::fs::write(dir.join("metrics.json"), obs.metrics.to_json())?;
    std::fs::write(
        dir.join("probes.jsonl"),
        orion_obs::rows_to_jsonl(&obs.probes),
    )?;
    if !obs.spans.is_empty() {
        std::fs::write(
            dir.join("trace.jsonl"),
            orion_obs::spans_to_jsonl(&obs.spans),
        )?;
    }
    Ok(())
}

/// Serializes the per-node energy/power map as one flat JSON object
/// per node (the format the `powermap` subcommand renders).
fn powermap_jsonl(topology: &Topology, report: &Report) -> String {
    let mut out = String::new();
    for node in 0..report.num_nodes() {
        let coords = topology.coords(NodeId(node));
        let energy_j: f64 = Component::ALL
            .iter()
            .map(|c| report.node_component_energy(node, *c).0)
            .sum();
        let cell = NodeCell {
            node,
            x: coords.first().copied().unwrap_or(0) as usize,
            y: coords.get(1).copied().unwrap_or(0) as usize,
            z: coords.get(2).copied().unwrap_or(0) as usize,
            energy_j,
            power_w: report.node_power(node).0,
        };
        cell.write_line(&mut out);
    }
    out
}

fn render_human(cell: &Cell, report: &Report) -> String {
    let mut out = format!("{} at {} packets/cycle/node\n", cell.preset, cell.rate);
    out.push_str(&format!("outcome: {}\n", report.outcome()));
    out.push_str(&format!("{report}\n"));
    if let RunOutcome::Corrupted { violations, cycle } = report.outcome() {
        out.push_str(&format!(
            "invariant audit failed at cycle {cycle}; numbers are untrustworthy:\n"
        ));
        for v in violations {
            out.push_str(&format!("  - {v}\n"));
        }
    }
    if let Some(diag) = report.stall_diagnostics() {
        out.push_str(&format!("{diag}"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_full(line: &str) -> Result<CmdOutput, ArgError> {
        crate::run::run(&crate::args::toks(line))
    }

    fn run_line(line: &str) -> Result<String, ArgError> {
        run_full(line).map(|o| o.text)
    }

    const QUICK: &str = "--warmup 100 --sample 100 --max-cycles 20000";

    #[test]
    fn healthy_run_reports_completed() {
        let out = run_full(&format!("simulate --preset vc16 --rate 0.03 {QUICK}")).unwrap();
        assert!(out.text.contains("outcome: completed"), "{}", out.text);
        assert!(out.text.contains("latency"), "{}", out.text);
        assert_eq!(out.code, 0, "completed runs exit 0");
    }

    #[test]
    fn json_output_is_structured() {
        let out = run_line(&format!(
            "simulate --preset vc16 --rate 0.03 {QUICK} --json"
        ))
        .unwrap();
        let record = CellRecord::from_json_line(out.trim_end()).expect("a record line");
        assert_eq!(record.outcome, "completed", "{out}");
        assert_eq!(
            record.cell,
            "vc16/uniform/r0.030000/s0000000001/fc-flit-level/vd-unrestricted/pl005"
        );
        assert_eq!(out, format!("{GOLDEN_COMPLETED}\n"));
    }

    /// Exact `simulate --json` bytes: the record line of a completed
    /// run and of a run the divergence check stopped, and the first
    /// `powermap.jsonl` line of the former.
    const GOLDEN_COMPLETED: &str = r#"{"schema_version":4,"cell":"vc16/uniform/r0.030000/s0000000001/fc-flit-level/vd-unrestricted/pl005","fingerprint":"0cf230becf38e425","preset":"vc16","traffic":"uniform","rate":0.03,"seed":1,"derived_seed":7566668992343038379,"flow_control":"flit-level","vc_discipline":"unrestricted","packet_len":5,"outcome":"completed","error":null,"cell_outcome":"ok","attempts":1,"saturated":false,"avg_latency":16.59,"zero_load_latency":15.533333333333333,"measured_cycles":213,"throughput":2.60093896713615,"total_power_w":2.7749206661978363,"buffer_w":0.2703542281384565,"crossbar_w":1.3505711510805631,"arbiter_w":0.02110875176754931,"link_w":1.1328865352112676,"central_w":0,"packets_injected":109,"packets_delivered":111,"packets_dropped":0,"packets_detoured":0,"flits_delivered":554,"latency_p50":15,"latency_p99":26,"resumed_from_cycle":null,"checkpoints_written":0}"#;
    const GOLDEN_DEGRADED: &str = r#"{"schema_version":4,"cell":"wh64/uniform/r0.500000/s0000000001/fc-flit-level/vd-unrestricted/pl005","fingerprint":"71e4b2abe2f3e63e","preset":"wh64","traffic":"uniform","rate":0.5,"seed":1,"derived_seed":2451078057092928356,"flow_control":"flit-level","vc_discipline":"unrestricted","packet_len":5,"outcome":"saturated","error":null,"cell_outcome":"ok","attempts":1,"saturated":true,"avg_latency":502.1170323928945,"zero_load_latency":12.4,"measured_cycles":1500,"throughput":9.084666666666667,"total_power_w":11.264795017192826,"buffer_w":2.5350042650377227,"crossbar_w":4.723556921925107,"arbiter_w":0.033270143829983445,"link_w":3.9729636864000137,"central_w":0,"packets_injected":11953,"packets_delivered":2731,"packets_dropped":0,"packets_detoured":0,"flits_delivered":13627,"latency_p50":498,"latency_p99":807,"resumed_from_cycle":null,"checkpoints_written":0}"#;
    const GOLDEN_POWERMAP_LINE: &str = r#"{"schema_version":2,"node":0,"x":0,"y":0,"z":0,"total_energy_j":0.00000001543988562228,"power_w":0.14497545185239435}"#;

    #[test]
    fn audit_passes_cleanly_and_changes_no_numbers() {
        // The auditor is read-only: a pre-saturation run with the
        // tightest cadence must produce byte-identical output to the
        // same run without auditing — and never classify as corrupted.
        for preset in ["wh64", "vc16", "vc64", "vc128"] {
            let base = format!("simulate --preset {preset} --rate 0.03 {QUICK}");
            let plain = run_full(&base).unwrap();
            let audited = run_full(&format!("{base} --audit-every 1")).unwrap();
            assert_eq!(
                plain.text, audited.text,
                "{preset}: audit perturbed the run"
            );
            assert_eq!(audited.code, 0, "{preset}: audit flagged a healthy run");
        }
    }

    #[test]
    fn audited_clean_run_records_completed() {
        let out = run_line(&format!(
            "simulate --preset wh64 --rate 0.03 {QUICK} --audit-every 100 --json"
        ))
        .unwrap();
        let record = CellRecord::from_json_line(out.trim_end()).expect("a record line");
        assert_eq!(record.outcome, "completed", "{out}");
    }

    #[test]
    fn deadlock_prone_run_renders_diagnostics() {
        let line = "simulate --preset wh64 --rate 0.5 --warmup 100 --sample 2000 \
             --max-cycles 200000 --watchdog-cycles 400";
        assert_eq!(
            run_line(&format!("{line} --json")).unwrap(),
            format!("{GOLDEN_DEGRADED}\n")
        );
        let out = run_full(line).unwrap();
        // A wormhole torus this deep past saturation either deadlocks
        // (diagnostics rendered) or is caught by backlog divergence.
        let text = &out.text;
        assert!(
            text.contains("deadlock") || text.contains("saturat"),
            "{text}"
        );
        assert!(!text.contains("budget exhausted"), "{text}");
        assert_eq!(out.code, EXIT_DEGRADED, "degraded outcomes exit 3");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let line = format!("simulate --preset vc16 --rate 0.04 {QUICK} --seed 5");
        assert_eq!(run_line(&line).unwrap(), run_line(&line).unwrap());
    }

    #[test]
    fn helpful_simulate_errors() {
        assert!(run_line("simulate --preset hypercube").is_err());
        assert!(run_line("simulate --rate eleven").is_err());
        assert!(run_line("simulate --rate 1.5").is_err()); // typed ConfigError surfaced
        assert!(run_line("simulate --typo 1").is_err());
        assert!(run_line("simulate --rate").is_err()); // value-less option
        assert!(run_line("simulate --audit-every").is_err());
        assert!(run_line("simulate --audit-every many").is_err());
        assert!(run_line(&format!("simulate --rate 0.03 {QUICK} --json")).is_ok());
        // A value after the switch must not quietly turn JSON off.
        let e = run_line(&format!("simulate --rate 0.03 {QUICK} --json true")).unwrap_err();
        assert!(e.0.contains("--json takes no value"), "{e}");
    }

    #[test]
    fn helpful_observe_and_traffic_errors() {
        // Observability knobs without a destination directory.
        assert!(run_line("simulate --sample-every 10").is_err());
        assert!(run_line("simulate --trace-packets 8").is_err());
        // Workload selection errors are typed, not panics.
        assert!(run_line("simulate --traffic warp").is_err());
        assert!(run_line("simulate --traffic broadcast").is_err()); // no source
        assert!(run_line("simulate --traffic broadcast@abc").is_err());
        assert!(run_line("simulate --traffic broadcast@1").is_err()); // 1 of 2 dims
        assert!(run_line("simulate --traffic broadcast@9:9").is_err());
    }

    #[test]
    fn preset_and_traffic_speak_the_spec_vocabulary() {
        // A design alias runs as its canonical name, byte for byte.
        let line = |preset: &str| format!("simulate --preset {preset} --rate 0.03 {QUICK}");
        assert_eq!(
            run_line(&line("vc8x8")).unwrap(),
            run_line(&line("vc64")).unwrap()
        );
        // The record names the canonical design.
        let suffixed = run_line(&format!("{} --json", line("vc16-t8-n100"))).unwrap();
        assert!(
            suffixed.contains(r#""cell":"vc16-t8/uniform/"#),
            "{suffixed}"
        );
        // Every spec traffic name runs.
        for traffic in ["shuffle", "bit-reversal", "broadcast@1:2"] {
            let out = run_full(&format!("{} --traffic {traffic}", line("vc16"))).unwrap();
            assert_eq!(out.code, 0, "{traffic}: {}", out.text);
        }
        // An out-of-range source names the axis it broke.
        let e = run_line("simulate --traffic broadcast@1:4").unwrap_err();
        assert!(
            e.0.contains("out of range for dimension 1 (radix 4)"),
            "{e}"
        );
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("orion-cli-obs-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn checkpoint_flag_combinations_are_validated() {
        // Cadence without a destination, destination without a cadence.
        assert!(run_line("simulate --checkpoint-every 64").is_err());
        assert!(run_line("simulate --checkpoint-file ck.ckpt").is_err());
        // Observer state is not snapshotted: the combination is a typed
        // argument error, not a late runtime failure.
        assert!(run_line(
            "simulate --checkpoint-every 64 --checkpoint-file ck.ckpt --observe-dir obs"
        )
        .is_err());
        assert!(run_line("simulate --resume-from ck.ckpt --observe-dir obs").is_err());
        assert!(run_line("simulate --checkpoint-every").is_err());
    }

    #[test]
    fn checkpointed_run_matches_plain_run_and_gcs_its_file() {
        let dir = temp_dir("ckpt-clean");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("run.ckpt");
        let base = format!("simulate --preset vc16 --rate 0.03 {QUICK} --json");
        let plain = run_full(&base).unwrap();
        let ckpted = run_full(&format!(
            "{base} --checkpoint-every 64 --checkpoint-file {}",
            ck.display()
        ))
        .unwrap();
        assert_eq!(plain.text, ckpted.text, "checkpointing perturbed the run");
        assert_eq!(ckpted.code, 0);
        assert!(!ck.exists(), "finished run garbage-collects its snapshot");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_resume_file_degrades_to_cycle_zero_replay() {
        let dir = temp_dir("ckpt-corrupt");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("torn.ckpt");
        std::fs::write(&ck, b"definitely not a checkpoint").unwrap();
        let base = format!("simulate --preset vc16 --rate 0.03 {QUICK} --json");
        let plain = run_full(&base).unwrap();
        let resumed = run_full(&format!("{base} --resume-from {}", ck.display())).unwrap();
        assert_eq!(resumed.code, 0, "a bad snapshot must never fail the run");
        assert_eq!(
            plain.text, resumed.text,
            "cycle-0 fallback reproduces the uninterrupted output"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn observe_dir_leaves_the_report_unchanged() {
        let dir = temp_dir("ident");
        let base = format!("simulate --preset vc16 --rate 0.03 {QUICK} --json");
        let plain = run_full(&base).unwrap();
        let observed = run_full(&format!(
            "{base} --observe-dir {} --sample-every 20 --trace-packets 16",
            dir.display()
        ))
        .unwrap();
        assert_eq!(plain.text, observed.text, "observers perturbed the run");
        assert_eq!(observed.code, 0);
        for artifact in [
            "metrics.json",
            "probes.jsonl",
            "powermap.jsonl",
            "trace.jsonl",
        ] {
            assert!(dir.join(artifact).exists(), "missing {artifact}");
        }
        let powermap = std::fs::read_to_string(dir.join("powermap.jsonl")).unwrap();
        assert_eq!(powermap.lines().next(), Some(GOLDEN_POWERMAP_LINE));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn broadcast_powermap_has_the_fig6b_hotspot() {
        // Acceptance: VC64, broadcast from (1,2) at 0.2 pkt/cycle with
        // --observe-dir emits a per-node energy JSONL whose source node
        // sits strictly above the mean per-node energy (Fig. 6b).
        let dir = temp_dir("fig6b");
        let out = run_full(&format!(
            "simulate --preset vc64 --rate 0.2 --traffic broadcast@1:2 \
             --warmup 200 --sample 300 --max-cycles 100000 --observe-dir {}",
            dir.display()
        ))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);

        let jsonl = std::fs::read_to_string(dir.join("powermap.jsonl")).unwrap();
        let mut energies = Vec::new();
        for line in jsonl.lines() {
            let obj = orion_exp::record::parse_flat_object(line).expect("flat JSON line");
            assert_eq!(
                obj.get("schema_version").and_then(|v| v.as_u64()),
                Some(u64::from(crate::powermap::POWERMAP_SCHEMA_VERSION))
            );
            let node = obj.get("node").and_then(|v| v.as_u64()).unwrap() as usize;
            let energy = obj.get("total_energy_j").and_then(|v| v.as_f64()).unwrap();
            energies.push((node, energy));
        }
        assert_eq!(energies.len(), 16, "one line per node of the 4x4 torus");
        let source = orion_core::presets::vc64_onchip().topology.node_at(&[1, 2]);
        let mean: f64 = energies.iter().map(|(_, e)| e).sum::<f64>() / energies.len() as f64;
        let source_energy = energies
            .iter()
            .find(|(n, _)| *n == source.0)
            .expect("source node present")
            .1;
        assert!(
            source_energy > mean,
            "broadcast source {} at {source_energy} J not above mean {mean} J",
            source.0
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn design_suffix_sets_the_topology() {
        // An 8×8 torus has 64 nodes; the run completes and is
        // deterministic.
        let line = format!("simulate --preset vc16-t8 --rate 0.02 {QUICK}");
        let out = run_full(&line).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert_eq!(run_line(&line).unwrap(), run_line(&line).unwrap());
        assert!(run_line(&format!("simulate --preset vc16-m4 --rate 0.02 {QUICK}")).is_ok());
    }

    #[test]
    fn a_three_d_run_renders_one_powermap_plane_per_z() {
        let dir = temp_dir("cube");
        let out = run_full(&format!(
            "simulate --preset vc16-t4x4x4 --rate 0.01 {QUICK} --observe-dir {}",
            dir.display()
        ))
        .unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        let map = run_full(&format!("powermap --observe-dir {}", dir.display())).unwrap();
        assert_eq!(map.code, 0, "{}", map.text);
        assert!(
            map.text.starts_with("per-node power map (4x4x4)"),
            "{}",
            map.text
        );
        for z in 0..4 {
            assert!(map.text.contains(&format!("z = {z}\n")), "{}", map.text);
        }
        assert_eq!(
            map.text.matches('*').count(),
            2,
            "one hotspot: {}",
            map.text
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn topology_validation_errors_are_typed() {
        for bad in [
            "vc16-t1",       // radix below 2
            "vc16-t65",      // radix above the grammar's bound
            "vc16-t4x4",     // 2-D takes one radix
            "vc16-t4x4x8",   // non-square networks are not named
            "vc16-t4x4x4x4", // 4-D
            "vc16-tx",       // not a number
            "vc16-t4-m4",    // two topologies
            "vc16-ring4",    // unknown suffix
        ] {
            assert!(
                run_line(&format!("simulate --preset {bad} --rate 0.02 {QUICK}")).is_err(),
                "--preset {bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn sharded_runs_render_identical_output() {
        // The tentpole contract at the CLI surface: stdout is a pure
        // function of the simulated physics, so the shard count must
        // never change a byte of it (human and JSON forms alike).
        for form in ["", " --json"] {
            let base = format!("simulate --preset vc16 --rate 0.03 {QUICK}{form}");
            let mono = run_full(&base).unwrap();
            for shards in [2, 8] {
                let sharded = run_full(&format!("{base} --shards {shards}")).unwrap();
                assert_eq!(
                    mono.text, sharded.text,
                    "--shards {shards} changed the output"
                );
                assert_eq!(mono.code, sharded.code);
            }
        }
    }

    #[test]
    fn shard_count_is_validated() {
        assert!(run_line(&format!("simulate --shards 0 --rate 0.03 {QUICK}")).is_err());
        // 17 shards on a 16-node torus: surfaced as a typed error.
        assert!(run_line(&format!("simulate --shards 17 --rate 0.03 {QUICK}")).is_err());
        assert!(run_line("simulate --shards").is_err());
        assert!(run_line("simulate --shards many").is_err());
    }

    /// A checkpoint written at one shard count resumes at another: the
    /// owner stamp is the cell's shard-agnostic fingerprint and the
    /// network image is the same at every count, so the run continues
    /// to the uninterrupted output (this once asserted a cycle-0
    /// replay).
    #[test]
    fn foreign_shard_snapshot_degrades_to_cycle_zero_replay() {
        use orion_core::{RunCheckpoint, RunControl, RunHook};

        struct StopAtFirst(Option<RunCheckpoint>);
        impl RunHook for StopAtFirst {
            fn every(&self) -> u64 {
                150
            }
            fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> RunControl {
                self.0 = Some(ck.clone());
                RunControl::Stop
            }
        }
        let dir = temp_dir("ckpt-shards");
        std::fs::create_dir_all(&dir).unwrap();
        for audit in ["", " --audit-every 40"] {
            let base = format!("simulate --preset vc16 --rate 0.03 {QUICK}{audit} --json");
            let args =
                crate::args::Args::parse("simulate", &crate::args::toks(&base)[1..], &GRAMMAR);
            let cell = cell(&args.unwrap()).unwrap();
            for (written, resumed) in [(4, 1), (4, 2), (1, 4)] {
                let mut stopper = StopAtFirst(None);
                cell.experiment(cell.derived_seed(), written)
                    .expect("valid")
                    .run_with_hook(&mut stopper, None)
                    .expect("valid");
                let from = dir.join("written.ckpt");
                let to = dir.join("resumed.ckpt");
                let ck = stopper.0.expect("captured a checkpoint");
                orion_ckpt::save_checkpoint(&from, cell.fingerprint(), &ck).unwrap();
                assert!(from.exists());

                let plain = run_full(&format!("{base} --shards {resumed}")).unwrap();
                let out = run_full(&format!(
                    "{base} --shards {resumed} --checkpoint-every 1000 \
                     --checkpoint-file {} --resume-from {}",
                    to.display(),
                    from.display()
                ))
                .unwrap();
                let case = format!("written at {written}, resumed at {resumed}{audit}");
                assert_eq!(out.code, 0, "{case}");
                // stdout is a pure function of the result (the resume
                // is reported on stderr, which `tests/shard_identity.rs`
                // reads from the built binary).
                assert_eq!(out.text, plain.text, "{case}");
                assert!(!to.exists(), "a finished run GCs its checkpoint");
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
