//! The `simulate` subcommand: run a whole-network experiment from the
//! command line, with fault injection, watchdog control, workload
//! selection and opt-in observability, and render the structured
//! [`RunOutcome`] as human-readable text or JSON.
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

use orion_core::{presets, Experiment, NetworkConfig, ObserveOptions, Report, RunOutcome};
use orion_net::{FaultConfig, FaultSchedule, NodeId, Topology, TopologyKind, TrafficPattern};
use orion_obs::json::{Json, Value};
use orion_sim::Component;

use crate::args::{ArgError, Args, Grammar};
use crate::powermap::NodeCell;
use crate::run::{CmdOutput, EXIT_DEGRADED, EXIT_RUNTIME, JSON_SCHEMA_VERSION};

/// `simulate`: every option takes a value except the `--json` switch.
pub const GRAMMAR: Grammar = Grammar(
    "--preset wh64|vc16|vc64|vc128|xb|cb --topology KxK[xK][-mesh] --shards N --rate X \
     --seed N --warmup N --sample N --max-cycles N --watchdog-cycles N --audit-every N \
     --fault-links N --fault-rate X --fault-ports N --fault-seed N \
     --traffic uniform|broadcast|transpose|tornado|bit-complement --traffic-src x,y \
     --observe-dir DIR --sample-every N --trace-packets N --checkpoint-every N \
     --checkpoint-file F --resume-from F --json",
);

/// Per-dimension radix ceiling for `--topology` (matches the design
/// grammar's `MAX_RADIX`: keeps node counts, and therefore simulated
/// state, within what one machine can hold).
const MAX_TOPOLOGY_RADIX: u32 = 64;

/// Parses a `--topology` spec — `KxK` or `KxKxK`, with an optional
/// `-torus` (default) or `-mesh` suffix — into a validated topology.
/// The headline presets: `32x32`, `64x64` and the 3-D `8x8x8`.
///
/// # Errors
///
/// Typed [`ArgError`]s for malformed radices, dimension counts outside
/// 2..=3 and radices outside 2..=[`MAX_TOPOLOGY_RADIX`].
fn parse_topology(spec: &str) -> Result<Topology, ArgError> {
    let (shape, kind) = if let Some(rest) = spec.strip_suffix("-mesh") {
        (rest, TopologyKind::Mesh)
    } else if let Some(rest) = spec.strip_suffix("-torus") {
        (rest, TopologyKind::Torus)
    } else {
        (spec, TopologyKind::Torus)
    };
    let radices: Vec<u32> = shape
        .split('x')
        .map(|r| {
            r.parse().map_err(|_| {
                ArgError(format!(
                    "--topology expects KxK or KxKxK radices (e.g. 32x32, 8x8x8-mesh), got `{spec}`"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    if !(2..=3).contains(&radices.len()) {
        return Err(ArgError(format!(
            "--topology `{spec}` has {} dimension(s); 2-D (KxK) and 3-D (KxKxK) networks are supported",
            radices.len()
        )));
    }
    for (dim, &radix) in radices.iter().enumerate() {
        if !(2..=MAX_TOPOLOGY_RADIX).contains(&radix) {
            return Err(ArgError(format!(
                "--topology radix {radix} out of range for dimension {dim} (expected 2..={MAX_TOPOLOGY_RADIX})"
            )));
        }
    }
    Topology::new(kind, &radices).map_err(|e| ArgError(format!("--topology {spec}: {e}")))
}

fn preset(name: &str) -> Result<NetworkConfig, ArgError> {
    match name {
        "wh64" => Ok(presets::wh64_onchip()),
        "vc16" => Ok(presets::vc16_onchip()),
        "vc64" => Ok(presets::vc64_onchip()),
        "vc128" => Ok(presets::vc128_onchip()),
        "xb" => Ok(presets::xb_chip_to_chip()),
        "cb" => Ok(presets::cb_chip_to_chip()),
        other => Err(ArgError(format!(
            "unknown preset `{other}` (expected wh64|vc16|vc64|vc128|xb|cb)"
        ))),
    }
}

/// Parses `--traffic-src` coordinates (`x,y[,z...]`) into a node of
/// `config`'s topology, validating dimensionality and range.
fn traffic_src(config: &NetworkConfig, spec: &str) -> Result<NodeId, ArgError> {
    let topo = &config.topology;
    let coords: Vec<u32> = spec
        .split(',')
        .map(|c| {
            c.trim().parse().map_err(|_| {
                ArgError(format!(
                    "--traffic-src expects comma-separated coordinates, got `{spec}`"
                ))
            })
        })
        .collect::<Result<_, _>>()?;
    if coords.len() != topo.dims() {
        return Err(ArgError(format!(
            "--traffic-src `{spec}` has {} coordinate(s); the topology has {} dimension(s)",
            coords.len(),
            topo.dims()
        )));
    }
    for (dim, &c) in coords.iter().enumerate() {
        if c >= topo.radix(dim) {
            return Err(ArgError(format!(
                "--traffic-src coordinate {c} out of range for dimension {dim} (radix {})",
                topo.radix(dim)
            )));
        }
    }
    Ok(topo.node_at(&coords))
}

/// Builds the non-uniform workload requested by `--traffic`; `None`
/// means the default uniform-random workload (kept on the default
/// path so unobserved runs stay byte-identical).
fn traffic_pattern(
    config: &NetworkConfig,
    name: &str,
    src: Option<&str>,
    rate: f64,
) -> Result<Option<TrafficPattern>, ArgError> {
    let topo = &config.topology;
    let pattern_err =
        |e: orion_net::traffic::TrafficError| ArgError(format!("--traffic {name}: {e}"));
    match name {
        "uniform" => Ok(None),
        "broadcast" => {
            let spec = src
                .ok_or_else(|| ArgError("--traffic broadcast requires --traffic-src x,y".into()))?;
            let source = traffic_src(config, spec)?;
            TrafficPattern::broadcast(topo, source, rate)
                .map(Some)
                .map_err(pattern_err)
        }
        "transpose" => TrafficPattern::transpose(topo, rate)
            .map(Some)
            .map_err(pattern_err),
        "tornado" => TrafficPattern::tornado(topo, rate)
            .map(Some)
            .map_err(pattern_err),
        "bit-complement" | "bitcomp" => TrafficPattern::bit_complement(topo, rate)
            .map(Some)
            .map_err(pattern_err),
        other => Err(ArgError(format!(
            "unknown traffic pattern `{other}` \
             (expected uniform|broadcast|transpose|tornado|bit-complement)"
        ))),
    }
}

/// Runs a simulation experiment per the parsed command line. The exit
/// code distinguishes how the run ended: 0 for a cleanly completed
/// run, [`EXIT_DEGRADED`] for any other outcome (deadlock, saturation,
/// exhausted budget, faults) — scripts can branch on the code without
/// parsing output.
///
/// # Errors
///
/// Returns an [`ArgError`] for unknown options, malformed numbers and
/// configurations the runner rejects ([`orion_core::ConfigError`]).
pub fn simulate(args: &Args) -> Result<CmdOutput, ArgError> {
    let preset_name = args.get("preset").unwrap_or("vc16").to_string();
    let mut config = preset(&preset_name)?;
    if let Some(spec) = args.get("topology") {
        config.topology = parse_topology(spec)?;
    }
    let shards = args.u64_or("shards", 1)? as usize;
    let rate = args.f64_or("rate", 0.05)?;
    let seed = args.u64_or("seed", 1)?;
    let warmup = args.u64_or("warmup", 1000)?;
    let sample = args.u64_or("sample", 10_000)?;
    let max_cycles = args.u64_or("max-cycles", 1_000_000)?;
    let watchdog = args.u64_or("watchdog-cycles", 1000)?;
    let audit_every = args.u64_or("audit-every", 0)?;

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

    let workload = traffic_pattern(
        &config,
        args.get("traffic").unwrap_or("uniform"),
        args.get("traffic-src"),
        rate,
    )?;

    let fault_links = args.u64_or("fault-links", 0)? as usize;
    let fault_rate = args.f64_or("fault-rate", 0.0)?;
    let fault_ports = args.u64_or("fault-ports", 0)? as usize;
    let fault_seed = args.u64_or("fault-seed", seed)?;
    if !(0.0..=1.0).contains(&fault_rate) {
        return Err(ArgError(format!(
            "--fault-rate expects a transient fault rate in [0, 1], got {fault_rate}"
        )));
    }

    let mut experiment = Experiment::new(config.clone())
        .injection_rate(rate)
        .seed(seed)
        .warmup(warmup)
        .sample_packets(sample)
        .max_cycles(max_cycles)
        .watchdog_cycles(watchdog)
        .audit_every(audit_every)
        .shards(shards);
    if let Some(pattern) = workload {
        experiment = experiment.workload(pattern);
    }
    if observe_dir.is_some() {
        experiment = experiment.observe(ObserveOptions {
            sample_every,
            trace_packets,
        });
    }

    let faults = fault_links > 0 || fault_rate > 0.0 || fault_ports > 0;
    let mut schedule_summary = None;
    if faults {
        // Permanent faults start in the first half of the horizon, so
        // size the horizon by the cycles this run will plausibly
        // execute (the sample usually completes long before the
        // million-cycle budget) — otherwise most requested faults
        // would begin after the run has already ended.
        let nodes = config.topology.num_nodes() as f64;
        let estimated_cycles = if rate > 0.0 {
            warmup as f64 + 2.0 * sample as f64 / (rate * nodes)
        } else {
            (warmup + 1) as f64
        };
        let horizon = (estimated_cycles.ceil() as u64).clamp(1, warmup.saturating_add(max_cycles));
        let fault_config = FaultConfig {
            seed: fault_seed,
            permanent_links: fault_links,
            transient_rate: fault_rate,
            horizon,
            faulty_router_ports: fault_ports,
            ..FaultConfig::default()
        };
        let schedule = FaultSchedule::generate(&config.topology, &fault_config);
        schedule_summary = Some((schedule.num_faulted_resources(), fault_seed));
        experiment = experiment.fault_schedule(schedule);
    }

    let report = if ckpt_file.is_some() || resume_from.is_some() {
        // The checkpoint's owner stamp is a hash of every flag that
        // shapes the deterministic run, so a snapshot taken under one
        // command line is never resumed into a different one.
        let canon = format!(
            "simulate|{preset_name}|{topology}|{shards}|{rate}|{seed}|{warmup}|{sample}\
             |{max_cycles}|{watchdog}|{audit_every}|{traffic}|{src}|{fault_links}|{fault_rate}\
             |{fault_ports}|{fault_seed}",
            topology = args.get("topology").unwrap_or(""),
            traffic = args.get("traffic").unwrap_or("uniform"),
            src = args.get("traffic-src").unwrap_or(""),
        );
        run_with_checkpoints(
            experiment,
            ckpt_every,
            ckpt_file.as_deref(),
            resume_from.as_deref(),
            orion_ckpt::hash::fnv1a64(canon.as_bytes()),
        )?
    } else {
        experiment.run().map_err(|e| ArgError(e.to_string()))?
    };
    if let Some(dir) = &observe_dir {
        if let Err(e) = write_observations(dir, &config, &report) {
            let dir = dir.display();
            return Ok(CmdOutput::failure(
                EXIT_RUNTIME,
                format!("cannot write observability artifacts under `{dir}`: {e}"),
            ));
        }
    }
    let text = if args.flag("json") {
        render_json(&preset_name, rate, &report)
    } else {
        render_human(&preset_name, rate, &report, schedule_summary)
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
fn write_observations(dir: &Path, config: &NetworkConfig, report: &Report) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(dir.join("powermap.jsonl"), powermap_jsonl(config, report))?;
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
fn powermap_jsonl(config: &NetworkConfig, report: &Report) -> String {
    let mut out = String::new();
    for node in 0..report.num_nodes() {
        let coords = config.topology.coords(NodeId(node));
        let energy_j: f64 = Component::ALL
            .iter()
            .map(|c| report.node_component_energy(node, *c).0)
            .sum();
        let cell = NodeCell {
            node,
            x: coords.first().copied().unwrap_or(0) as usize,
            y: coords.get(1).copied().unwrap_or(0) as usize,
            energy_j,
            power_w: report.node_power(node).0,
        };
        cell.write_line(&mut out);
    }
    out
}

fn render_human(preset: &str, rate: f64, report: &Report, faults: Option<(usize, u64)>) -> String {
    let mut out = format!("{preset} at {rate} packets/cycle/node\n");
    if let Some((resources, seed)) = faults {
        out.push_str(&format!(
            "fault schedule: {resources} faulted resources (seed {seed})\n"
        ));
    }
    out.push_str(&format!("outcome: {}\n", report.outcome()));
    out.push_str(&format!("{report}\n"));
    let stats = report.stats();
    if stats.packets_dropped > 0 || stats.packets_detoured > 0 {
        out.push_str(&format!(
            "degradation: {} dropped ({:.1}% of injected), {} detoured\n",
            stats.packets_dropped,
            100.0 * stats.drop_rate(),
            stats.packets_detoured,
        ));
    }
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

/// The `--json` report: report-summary floats are rounded to six
/// places (artifacts keep full precision).
fn render_json(preset: &str, rate: f64, report: &Report) -> String {
    let stats = report.stats();
    let mut out = String::new();
    let mut o = Json::pretty(&mut out);
    o.key("schema_version").num(JSON_SCHEMA_VERSION);
    o.key("preset").str(preset);
    o.key("offered_rate").fixed(rate, 6);
    o.key("outcome").str(report.outcome().label());
    o.key("saturated").bool(report.is_saturated());
    o.key("avg_latency_cycles").fixed(report.avg_latency(), 6);
    o.key("latency_p50_cycles")
        .opt(stats.latency_percentile(50.0), Value::num);
    o.key("latency_p99_cycles")
        .opt(stats.latency_percentile(99.0), Value::num);
    o.key("zero_load_latency_cycles")
        .fixed(report.zero_load_latency(), 6);
    o.key("measured_cycles").num(report.measured_cycles());
    o.key("total_power_w").fixed(report.total_power().0, 6);
    let mut packets = o.key("packets").object();
    packets.key("injected").num(stats.packets_injected);
    packets.key("delivered").num(stats.packets_delivered);
    packets.key("dropped").num(stats.packets_dropped);
    packets.key("detoured").num(stats.packets_detoured);
    packets.end();
    o.key("flits_delivered").num(stats.flits_delivered);
    o.key("drop_rate").fixed(stats.drop_rate(), 6);
    match report.outcome() {
        RunOutcome::Deadlocked(diag) => {
            let mut d = o.key("diagnostics").object();
            d.key("kind").str(&diag.kind.to_string());
            d.key("cycle").num(diag.cycle);
            d.key("window").num(diag.window);
            d.key("cycles_since_flit_movement")
                .num(diag.cycles_since_flit_movement);
            d.key("cycles_since_delivery")
                .num(diag.cycles_since_delivery);
            d.key("flits_in_network").num(diag.flits_in_network);
            d.key("source_backlog").num(diag.source_backlog);
            d.key("stalled_vcs").num(diag.stalled_vcs.len());
            d.key("blocked_head_flits").num(diag.blocked_head_flits());
            d.end();
        }
        _ => o.key("diagnostics").null(),
    }
    match report.outcome() {
        RunOutcome::Corrupted { violations, cycle } => {
            let mut audit = o.key("audit").object();
            audit.key("cycle").num(cycle);
            let mut kinds = audit.key("violations").array();
            for v in violations {
                kinds.item().str(v.kind());
            }
            kinds.end();
            audit.end();
        }
        _ => o.key("audit").null(),
    }
    o.end();
    out.push('\n');
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
        assert!(!out.text.contains("degradation"), "{}", out.text);
        assert_eq!(out.code, 0, "completed runs exit 0");
    }

    #[test]
    fn json_output_is_structured() {
        let out = run_line(&format!(
            "simulate --preset vc16 --rate 0.03 {QUICK} --json"
        ))
        .unwrap();
        assert!(
            out.contains(&format!(
                "\"schema_version\": {}",
                crate::run::JSON_SCHEMA_VERSION
            )),
            "{out}"
        );
        assert!(out.contains("\"outcome\": \"completed\""), "{out}");
        assert!(out.contains("\"latency_p50_cycles\": "), "{out}");
        assert!(out.contains("\"latency_p99_cycles\": "), "{out}");
        assert!(out.contains("\"flits_delivered\": "), "{out}");
        assert!(out.contains("\"diagnostics\": null"), "{out}");
        assert!(out.contains("\"audit\": null"), "{out}");
        assert!(out.contains("\"dropped\": 0"), "{out}");
        assert_eq!(out.matches('{').count(), out.matches('}').count());
        assert_eq!(out, GOLDEN_COMPLETED);
    }

    /// Exact `simulate --json` bytes, generated at `f3a1fbd`: a
    /// completed run, a watchdog-stopped run (the `diagnostics`
    /// object), and the first `powermap.jsonl` line of the former.
    const GOLDEN_COMPLETED: &str = r#"{
  "schema_version": 4,
  "preset": "vc16",
  "offered_rate": 0.030000,
  "outcome": "completed",
  "saturated": false,
  "avg_latency_cycles": 16.620000,
  "latency_p50_cycles": 16,
  "latency_p99_cycles": 27,
  "zero_load_latency_cycles": 15.533333,
  "measured_cycles": 246,
  "total_power_w": 2.351593,
  "packets": {"injected": 110, "delivered": 111, "dropped": 0, "detoured": 0},
  "flits_delivered": 548,
  "drop_rate": 0.000000,
  "diagnostics": null,
  "audit": null
}
"#;
    const GOLDEN_DEADLOCKED: &str = r#"{
  "schema_version": 4,
  "preset": "wh64",
  "offered_rate": 0.500000,
  "outcome": "livelocked",
  "saturated": true,
  "avg_latency_cycles": 447.361514,
  "latency_p50_cycles": 445,
  "latency_p99_cycles": 735,
  "zero_load_latency_cycles": 12.400000,
  "measured_cycles": 1095,
  "total_power_w": 12.554632,
  "packets": {"injected": 11786, "delivered": 2209, "dropped": 0, "detoured": 0},
  "flits_delivered": 11027,
  "drop_rate": 0.000000,
  "diagnostics": {"kind": "livelock", "cycle": 1572, "window": 400, "cycles_since_flit_movement": 377, "cycles_since_delivery": 400, "flits_in_network": 2223, "source_backlog": 48642, "stalled_vcs": 36, "blocked_head_flits": 20},
  "audit": null
}
"#;
    const GOLDEN_POWERMAP_LINE: &str = r#"{"schema_version":1,"node":0,"x":0,"y":0,"total_energy_j":0.000000019761123414074402,"power_w":0.16065953995182441}"#;

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
    fn audit_json_field_is_null_on_clean_runs() {
        let out = run_line(&format!(
            "simulate --preset wh64 --rate 0.03 {QUICK} --audit-every 100 --json"
        ))
        .unwrap();
        assert!(out.contains("\"outcome\": \"completed\""), "{out}");
        assert!(out.contains("\"audit\": null"), "{out}");
    }

    #[test]
    fn deadlock_prone_run_renders_diagnostics() {
        let line = "simulate --preset wh64 --rate 0.5 --warmup 100 --sample 2000 \
             --max-cycles 200000 --watchdog-cycles 400";
        assert_eq!(
            run_line(&format!("{line} --json")).unwrap(),
            GOLDEN_DEADLOCKED
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
    fn fault_flags_degrade_gracefully() {
        let out = run_line(&format!(
            "simulate --preset vc16 --rate 0.03 {QUICK} --fault-links 6 --fault-seed 3"
        ))
        .unwrap();
        assert!(out.contains("fault schedule: "), "{out}");
        assert!(
            out.contains("outcome: faulted") || out.contains("detoured"),
            "{out}"
        );
    }

    #[test]
    fn fault_json_accounts_drops() {
        let out = run_line(&format!(
            "simulate --preset vc16 --rate 0.03 {QUICK} --fault-links 8 --fault-seed 3 --json"
        ))
        .unwrap();
        assert!(
            out.contains("\"outcome\": \"faulted\"") || out.contains("\"outcome\": \"completed\""),
            "{out}"
        );
        assert!(out.contains("\"drop_rate\": "), "{out}");
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let line = format!(
            "simulate --preset vc16 --rate 0.04 {QUICK} --seed 5 --fault-links 2 --fault-seed 7"
        );
        assert_eq!(run_line(&line).unwrap(), run_line(&line).unwrap());
    }

    #[test]
    fn helpful_simulate_errors() {
        assert!(run_line("simulate --preset hypercube").is_err());
        assert!(run_line("simulate --rate eleven").is_err());
        assert!(run_line("simulate --rate 1.5").is_err()); // typed ConfigError surfaced
        assert!(run_line("simulate --fault-rate 2.0").is_err());
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
        assert!(run_line("simulate --traffic broadcast").is_err()); // no src
        assert!(run_line("simulate --traffic broadcast --traffic-src abc").is_err());
        assert!(run_line("simulate --traffic broadcast --traffic-src 1").is_err());
        assert!(run_line("simulate --traffic broadcast --traffic-src 9,9").is_err());
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
            "simulate --preset vc64 --rate 0.2 --traffic broadcast --traffic-src 1,2 \
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
    fn topology_flag_overrides_the_preset_grid() {
        // An 8×8 torus has 64 nodes; the run completes and is
        // deterministic under the override.
        let line = format!("simulate --preset vc16 --topology 8x8 --rate 0.02 {QUICK}");
        let out = run_full(&line).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert_eq!(run_line(&line).unwrap(), run_line(&line).unwrap());
        // Mesh and 3-D presets parse and run.
        assert!(run_line(&format!(
            "simulate --preset vc16 --topology 4x4-mesh --rate 0.02 {QUICK}"
        ))
        .is_ok());
        assert!(run_line(&format!(
            "simulate --preset vc16 --topology 4x4x4 --rate 0.01 {QUICK}"
        ))
        .is_ok());
    }

    #[test]
    fn topology_validation_errors_are_typed() {
        for bad in [
            "4",        // 1-D: below the 2-dimension floor
            "4x4x4x4",  // 4-D: above the 3-dimension ceiling
            "1x4",      // radix below 2
            "65x65",    // radix above MAX_TOPOLOGY_RADIX
            "axb",      // not a number
            "4x",       // trailing separator
            "",         // empty
            "4x4-ring", // unknown kind suffix
        ] {
            assert!(
                run_line(&format!("simulate --topology {bad} --rate 0.02 {QUICK}")).is_err(),
                "--topology {bad:?} should be rejected"
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

    #[test]
    fn foreign_shard_snapshot_degrades_to_cycle_zero_replay() {
        use orion_core::{RunCheckpoint, RunControl, RunHook};

        // Persist a mid-run 4-shard checkpoint under the exact owner
        // stamp the resuming `--shards 1` (default) command line will
        // compute: the fingerprint matches, so only the network
        // image's engine frame can reject it — and that rejection
        // must degrade to a clean cycle-0 replay, not an error.
        struct StopAtFirst(Option<RunCheckpoint>);
        impl RunHook for StopAtFirst {
            fn every(&self) -> u64 {
                100
            }
            fn on_checkpoint(&mut self, ck: &RunCheckpoint) -> RunControl {
                self.0 = Some(ck.clone());
                RunControl::Stop
            }
        }
        let mut stopper = StopAtFirst(None);
        orion_core::Experiment::new(orion_core::presets::vc16_onchip())
            .injection_rate(0.03)
            .seed(1)
            .warmup(100)
            .sample_packets(100)
            .max_cycles(20_000)
            .watchdog_cycles(1000)
            .shards(4)
            .run_with_hook(&mut stopper, None)
            .expect("valid");
        let foreign = stopper.0.expect("captured a checkpoint");

        let dir = temp_dir("ckpt-shards");
        std::fs::create_dir_all(&dir).unwrap();
        let ck = dir.join("four-shards.ckpt");
        let canon = "simulate|vc16||1|0.03|1|100|100|20000|1000|0|uniform||0|0|0|1";
        orion_ckpt::save_checkpoint(&ck, orion_ckpt::hash::fnv1a64(canon.as_bytes()), &foreign)
            .unwrap();

        let base = format!("simulate --preset vc16 --rate 0.03 {QUICK} --json");
        let plain = run_full(&base).unwrap();
        let resumed = run_full(&format!("{base} --resume-from {}", ck.display())).unwrap();
        assert_eq!(
            resumed.code, 0,
            "a foreign snapshot must never fail the run"
        );
        assert_eq!(
            plain.text, resumed.text,
            "cycle-0 fallback reproduces the uninterrupted output"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
