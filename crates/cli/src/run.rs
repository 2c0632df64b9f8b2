//! Subcommand dispatch: build the requested power model and report it.

use orion_power::{
    buffer_area, central_buffer_area, crossbar_area, ArbiterKind, ArbiterParams, ArbiterPower,
    BufferParams, BufferPower, CentralBufferParams, CentralBufferPower, CrossbarKind,
    CrossbarParams, CrossbarPower, LinkPower, WriteActivity,
};
use orion_tech::{Microns, ProcessNode, Technology, Volts, Watts};

use crate::args::{ArgError, Args, Grammar};
use crate::report::Report;
use crate::{experiment, powermap, serve, simulate};

/// Every subcommand with the [`Grammar`] that parses it. `help` prints
/// each subcommand's options *from* its grammar, so a declared flag
/// cannot be missing from the help text.
const COMMANDS: [(&str, &Grammar); 10] = [
    ("buffer", &BUFFER),
    ("crossbar", &CROSSBAR),
    ("arbiter", &ARBITER),
    ("link", &LINK),
    ("central-buffer", &CENTRAL_BUFFER),
    ("simulate", &simulate::GRAMMAR),
    ("powermap", &powermap::GRAMMAR),
    ("experiment run", &experiment::RUN),
    ("experiment explore", &experiment::EXPLORE),
    ("serve", &serve::GRAMMAR),
];

/// Text for `orion-power-cli help`: the hand-written prose around one
/// block per subcommand rendered from [`COMMANDS`].
pub fn usage() -> String {
    const INDENT: &str = "\n                     ";
    let mut out = String::from(
        "orion-power-cli — Orion's architectural power models as a standalone tool\n\n\
         USAGE:\n  orion-power-cli <subcommand> [options]\n\n\
         SUBCOMMANDS (every option is optional unless the subcommand says otherwise):",
    );
    for (name, grammar) in COMMANDS {
        out.push_str(&format!("\n  {name:<19}"));
        let mut width = INDENT.len() - 1;
        // One `--name VALUE` item per wrap unit, so a break never
        // separates an option from its placeholder.
        for item in grammar.0.replace(" --", "\n--").lines() {
            if width + 1 + item.len() > 79 {
                out.push_str(INDENT);
                width = INDENT.len() - 1;
            }
            out.push_str(&format!(" {item}"));
            width += 1 + item.len();
        }
    }
    out.push_str(USAGE_PROSE);
    out
}

const USAGE_PROSE: &str = "

  link is on-chip unless --chip2chip (constant power); powermap renders
  the per-node power map of an observed simulate run. See
  docs/OBSERVABILITY.md and docs/ROBUSTNESS.md (simulate),
  docs/ORCHESTRATION.md (experiment run), docs/EXPLORATION.md
  (experiment explore), docs/SERVING.md (serve).

COMMON OPTIONS:
  --node <0.8um|0.35um|0.25um|0.18um|0.13um|0.1um|70nm>   (default 0.1um)
  --vdd <volts>                                           (node default)

EXIT CODES:
  0  success (simulate: run completed; experiment: no failed cells;
     serve: drained cleanly)
  1  runtime I/O failure (cache or artifact files; serve: bind)
  2  bad input (unknown options, malformed spec, invalid configuration,
     cache directory locked by another live run, serve included)
  3  degraded result (simulate: deadlock/saturation/budget/corrupted
     audit; experiment: failed, crashed or corrupted
     cells, or a cache sink that broke mid-run so the cache
     cannot replay the results; serve: drain deadline expired with
     requests still in flight)

EXAMPLES:
  orion-power-cli buffer --flits 64 --bits 256
  orion-power-cli crossbar --ports 5 --bits 256 --node 0.18um
  orion-power-cli link --chip2chip --watts 3 --bits 32
  orion-power-cli simulate --preset wh64 --rate 0.5 --watchdog-cycles 500
  orion-power-cli simulate --preset vc16 --rate 0.05 --audit-every 100 --json
  orion-power-cli simulate --preset vc64 --rate 0.2 --traffic broadcast@1:2 \\
      --observe-dir obs --sample-every 50
  orion-power-cli powermap --observe-dir obs
  orion-power-cli experiment run examples/specs/fig5.toml --threads 8 \\
      --cache-dir .exp-cache --out-dir experiments
  orion-power-cli experiment explore examples/specs/explore_smoke.toml \\
      --threads 8 --seed 1 --budget 12 --cache-dir .exp-cache
";

/// Version of the CLI's JSON summary layouts (`experiment run --json`
/// and `experiment explore --json`), emitted as `schema_version`. Bump
/// on any field change. Per-cell records, which `simulate --json`
/// prints, carry their own [`orion_exp::SCHEMA_VERSION`].
///
/// History: 2 added supervision fields (`crashed`, `timed_out`,
/// `retried`, `corrupted`, `append_failures` to `experiment run`;
/// `audit` to `simulate`); 3 added the latency/flit summary fields
/// (`latency_p50_cycles`, `latency_p99_cycles`, `flits_delivered` to
/// `simulate`); 4 added the `experiment explore` summary layout
/// (`strategy`, `budget`, `seed`, `evaluations`, `rounds`, `frontier`,
/// `dominated` and the four-file `artifacts` object); 5 removed the
/// fault model's `packets.dropped`, `packets.detoured` and `drop_rate`
/// from `simulate`, which since prints the cell's record line instead;
/// 6 removed `timed_out` and `retried` from both `experiment`
/// summaries (a cell runs once, under its derived seed).
pub const JSON_SCHEMA_VERSION: u32 = 6;

/// Exit code for runtime I/O failures (cache/artifact files).
pub const EXIT_RUNTIME: u8 = 1;
/// Exit code for bad input: unknown options, malformed specs, invalid
/// configurations.
pub const EXIT_BAD_INPUT: u8 = 2;
/// Exit code for degraded results: a simulation that did not complete
/// cleanly, or an experiment with failed cells.
pub const EXIT_DEGRADED: u8 = 3;

/// A command's rendered output plus the process exit code it asks for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CmdOutput {
    /// Text for stdout.
    pub text: String,
    /// Process exit code (0 = clean success).
    pub code: u8,
}

impl CmdOutput {
    /// Output with the success code.
    pub fn ok(text: String) -> CmdOutput {
        CmdOutput { text, code: 0 }
    }

    /// A failure reported on stdout as `error: <message>` with `code`.
    pub fn failure(code: u8, message: impl std::fmt::Display) -> CmdOutput {
        let text = format!("error: {message}\n");
        CmdOutput { text, code }
    }
}

impl From<ArgError> for CmdOutput {
    /// Bad input on the subcommands that report on stdout.
    fn from(e: ArgError) -> CmdOutput {
        CmdOutput::failure(EXIT_BAD_INPUT, e)
    }
}

/// Component grammars: the model's parameters, then `--node`/`--vdd`
/// to select the technology.
const BUFFER: Grammar =
    Grammar("--flits N --bits N --read-ports N --write-ports N --decoder --node NODE --vdd VOLTS");
const CROSSBAR: Grammar = Grammar(
    "--ports N --inputs N --outputs N --bits N --kind matrix|muxtree --node NODE --vdd VOLTS",
);
const ARBITER: Grammar =
    Grammar("--requesters N --kind matrix|roundrobin|queuing --node NODE --vdd VOLTS");
const LINK: Grammar =
    Grammar("--length-mm X --bits N --chip2chip --watts X --node NODE --vdd VOLTS");
const CENTRAL_BUFFER: Grammar =
    Grammar("--banks N --rows N --bits N --read-ports N --write-ports N --node NODE --vdd VOLTS");

fn technology(args: &Args) -> Result<Technology, ArgError> {
    let node = match args.get("node").unwrap_or("0.1um") {
        "0.8um" => ProcessNode::Um800,
        "0.35um" => ProcessNode::Um350,
        "0.25um" => ProcessNode::Um250,
        "0.18um" => ProcessNode::Um180,
        "0.13um" => ProcessNode::Um130,
        "0.1um" | "100nm" => ProcessNode::Nm100,
        "70nm" | "0.07um" => ProcessNode::Nm70,
        other => return Err(ArgError(format!("unknown process node `{other}`"))),
    };
    let mut builder = Technology::builder(node);
    if let Some(v) = args.get("vdd") {
        let vdd: f64 = v
            .parse()
            .map_err(|_| ArgError(format!("--vdd expects a number, got `{v}`")))?;
        if vdd <= 0.0 {
            return Err(ArgError("--vdd must be positive".into()));
        }
        builder = builder.vdd(Volts(vdd));
    }
    Ok(builder.build())
}

fn model_err(e: orion_power::ModelError) -> ArgError {
    ArgError(e.to_string())
}

/// Executes an option-only subcommand line (`<component> [options]`):
/// parses it against the component's declared grammar and returns the
/// rendered report and the exit code to use (`simulate` signals
/// degraded outcomes via [`EXIT_DEGRADED`]).
///
/// # Errors
///
/// Returns a human-readable [`ArgError`] for unknown components,
/// unknown or malformed options, and invalid model parameters.
pub fn run(tokens: &[String]) -> Result<CmdOutput, ArgError> {
    let (command, rest) = tokens
        .split_first()
        .ok_or_else(|| ArgError("missing component; try `orion-power-cli help`".into()))?;
    type Exec = fn(&Args) -> Result<CmdOutput, ArgError>;
    let (grammar, exec): (&Grammar, Exec) = match command.as_str() {
        "buffer" => (&BUFFER, |a| buffer(a).map(CmdOutput::ok)),
        "crossbar" => (&CROSSBAR, |a| crossbar(a).map(CmdOutput::ok)),
        "arbiter" => (&ARBITER, |a| arbiter(a).map(CmdOutput::ok)),
        "link" => (&LINK, |a| link(a).map(CmdOutput::ok)),
        "central-buffer" => (&CENTRAL_BUFFER, |a| central_buffer(a).map(CmdOutput::ok)),
        "simulate" => (&simulate::GRAMMAR, simulate::simulate),
        "powermap" => (&powermap::GRAMMAR, powermap::powermap),
        option if option.starts_with("--") => {
            return Err(ArgError(format!(
                "expected a component name, found option `{option}`"
            )))
        }
        other => return Err(ArgError(format!("unknown component `{other}`"))),
    };
    exec(&Args::parse(command, rest, grammar)?)
}

fn buffer(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let flits = args.u32_required("flits")?;
    let bits = args.u32_required("bits")?;
    let mut params = BufferParams::new(flits, bits).with_ports(
        args.u32_or("read-ports", 1)?,
        args.u32_or("write-ports", 1)?,
    );
    if args.flag("decoder") {
        params = params.with_decoder();
    }
    let m = BufferPower::new(&params, tech).map_err(model_err)?;
    let mut r = Report::new(format!(
        "FIFO buffer (Table 2): {flits} flits x {bits} bits, {}R{}W at {} / {} V",
        m.read_ports(),
        m.write_ports(),
        tech.node(),
        tech.vdd().0
    ));
    r.push("L_wl", format!("{:.2} um", m.wordline_length().0));
    r.push("L_bl", format!("{:.2} um", m.bitline_length().0));
    r.cap("C_wl", m.wordline_cap());
    r.cap("C_br", m.read_bitline_cap());
    r.cap("C_bw", m.write_bitline_cap());
    r.cap("C_chg", m.precharge_cap());
    r.cap("C_cell", m.cell_cap());
    r.energy("E_read", m.read_energy());
    r.energy(
        "E_write (uniform data)",
        m.write_energy(&WriteActivity::uniform_random(bits)),
    );
    r.energy("E_write (worst case)", m.write_energy_max());
    if let Some(dec) = m.decoder() {
        r.energy("E_decode (sequential)", dec.access_energy_sequential());
    }
    r.power("leakage", m.leakage_power());
    r.push("area", format!("{:.6} mm^2", buffer_area(&m).as_mm2()));
    Ok(r.render())
}

fn crossbar(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let bits = args.u32_required("bits")?;
    let (inputs, outputs) = match args.get("ports") {
        Some(_) => {
            let p = args.u32_required("ports")?;
            (p, p)
        }
        None => (args.u32_required("inputs")?, args.u32_required("outputs")?),
    };
    let kind = match args.get("kind").unwrap_or("matrix") {
        "matrix" => CrossbarKind::Matrix,
        "muxtree" => CrossbarKind::MuxTree,
        other => return Err(ArgError(format!("unknown crossbar kind `{other}`"))),
    };
    let m = CrossbarPower::new(&CrossbarParams::new(kind, inputs, outputs, bits), tech)
        .map_err(model_err)?;
    let mut r = Report::new(format!(
        "{kind:?} crossbar (Table 3): {inputs}x{outputs}, {bits} bits at {} / {} V",
        tech.node(),
        tech.vdd().0
    ));
    r.push("L_in", format!("{:.2} um", m.input_line_length().0));
    r.push("L_out", format!("{:.2} um", m.output_line_length().0));
    r.cap("C_in (per line)", m.input_line_cap());
    r.cap("C_out (per line)", m.output_line_cap());
    r.cap("C_xb_ctr", m.control_line_cap());
    r.energy("E_xb (uniform data)", m.traversal_energy_uniform());
    r.energy("E_xb (worst case)", m.traversal_energy_max());
    r.energy("E_xb_ctr", m.control_energy());
    r.power("leakage", m.leakage_power());
    r.push("area", format!("{:.6} mm^2", crossbar_area(&m).as_mm2()));
    Ok(r.render())
}

fn arbiter(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let requesters = args.u32_required("requesters")?;
    let kind = match args.get("kind").unwrap_or("matrix") {
        "matrix" => ArbiterKind::Matrix,
        "roundrobin" | "round-robin" | "rr" => ArbiterKind::RoundRobin,
        "queuing" | "queueing" => ArbiterKind::Queuing,
        other => return Err(ArgError(format!("unknown arbiter kind `{other}`"))),
    };
    let m = ArbiterPower::new(&ArbiterParams::new(kind, requesters), tech).map_err(model_err)?;
    let mut r = Report::new(format!(
        "{kind:?} arbiter (Table 4): {requesters} requesters at {} / {} V",
        tech.node(),
        tech.vdd().0
    ));
    r.cap("C_req", m.request_cap());
    r.cap("C_pri", m.priority_cap());
    r.cap("C_int", m.internal_cap());
    r.cap("C_gnt", m.grant_cap());
    let all = (1u64 << requesters.min(63)) - 1;
    r.energy("E_arb (steady single grant)", m.arbitration_energy(1, 1, 0));
    r.energy(
        "E_arb (all requests toggle)",
        m.arbitration_energy(all, 0, requesters),
    );
    r.power("leakage", m.leakage_power());
    Ok(r.render())
}

fn link(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let bits = args.u32_required("bits")?;
    if args.flag("chip2chip") {
        let watts = args.f64_or("watts", 3.0)?;
        if watts < 0.0 {
            return Err(ArgError("--watts must be non-negative".into()));
        }
        let m = LinkPower::chip_to_chip(Watts(watts), bits);
        let mut r = Report::new(format!(
            "chip-to-chip link: {bits} lanes, constant {watts} W (traffic-insensitive)"
        ));
        r.energy("E_link per traversal", m.traversal_energy(bits as f64));
        r.power("static power", m.static_power());
        return Ok(r.render());
    }
    let mm = args.f64_or("length-mm", 3.0)?;
    if mm <= 0.0 {
        return Err(ArgError("--length-mm must be positive".into()));
    }
    let m = LinkPower::on_chip(Microns::from_mm(mm), bits, tech);
    let mut r = Report::new(format!(
        "on-chip link: {mm} mm x {bits} bits at {} / {} V",
        tech.node(),
        tech.vdd().0
    ));
    r.cap("C_w per line", m.wire_cap());
    r.energy("E_link (uniform data)", m.traversal_energy_uniform());
    r.energy("E_link (worst case)", m.traversal_energy(bits as f64));
    Ok(r.render())
}

fn central_buffer(args: &Args) -> Result<String, ArgError> {
    let tech = technology(args)?;
    let banks = args.u32_required("banks")?;
    let rows = args.u32_required("rows")?;
    let bits = args.u32_required("bits")?;
    let params = CentralBufferParams::new(banks, rows, bits).with_ports(
        args.u32_or("read-ports", 2)?,
        args.u32_or("write-ports", 2)?,
    );
    let m = CentralBufferPower::new(&params, tech).map_err(model_err)?;
    let mut r = Report::new(format!(
        "central buffer (hierarchical, section 3.2): {banks} banks x {rows} rows x {bits} bits at {} / {} V",
        tech.node(),
        tech.vdd().0
    ));
    r.energy("E_write (uniform data)", m.write_energy_uniform());
    r.energy("E_read (uniform data)", m.read_energy_uniform());
    r.energy("  of which bank read", m.bank_model().read_energy());
    r.energy(
        "  of which read fabric",
        m.read_crossbar().traversal_energy_uniform(),
    );
    r.power("leakage", m.leakage_power());
    r.push(
        "area",
        format!("{:.6} mm^2", central_buffer_area(&m).as_mm2()),
    );
    Ok(r.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &str) -> Result<String, ArgError> {
        run(&crate::args::toks(line)).map(|o| {
            assert_eq!(o.code, 0, "component reports exit with success");
            o.text
        })
    }

    #[test]
    fn help_lists_every_flag_of_every_grammar() {
        let help = usage();
        for (name, grammar) in COMMANDS {
            let block: String = help
                .lines()
                .skip_while(|line| !line.starts_with(&format!("  {name} ")))
                .enumerate()
                .take_while(|(i, line)| *i == 0 || line.starts_with("   "))
                .map(|(_, line)| line)
                .collect();
            for word in grammar.0.split_whitespace() {
                assert!(
                    block.contains(word),
                    "`{name}` help lacks `{word}`:\n{help}"
                );
            }
        }
        // A grammar declared in this crate but missing from `COMMANDS`
        // would be parsed yet undocumented: count the declarations.
        let sources = [
            include_str!("run.rs"),
            include_str!("simulate.rs"),
            include_str!("powermap.rs"),
            include_str!("experiment.rs"),
            include_str!("serve.rs"),
        ];
        let pattern = concat!(": Grammar", " =");
        let declared: usize = sources.iter().map(|s| s.matches(pattern).count()).sum();
        assert_eq!(
            declared,
            COMMANDS.len(),
            "every Grammar const is in COMMANDS"
        );
    }

    #[test]
    fn design_md_version_table_matches_the_constants() {
        let versions = [
            ("MODEL_VERSION", orion_exp::fingerprint::MODEL_VERSION),
            ("SCHEMA_VERSION", orion_exp::SCHEMA_VERSION),
            (
                "EXPLORE_SCHEMA_VERSION",
                orion_explore::EXPLORE_SCHEMA_VERSION,
            ),
            ("JSON_SCHEMA_VERSION", JSON_SCHEMA_VERSION),
            (
                "POWERMAP_SCHEMA_VERSION",
                crate::powermap::POWERMAP_SCHEMA_VERSION,
            ),
            ("PROBE_SCHEMA_VERSION", orion_obs::PROBE_SCHEMA_VERSION),
            ("TRACE_SCHEMA_VERSION", orion_obs::TRACE_SCHEMA_VERSION),
            ("METRICS_SCHEMA_VERSION", orion_obs::METRICS_SCHEMA_VERSION),
            (
                "SERVE_PROTOCOL_VERSION",
                orion_serve::SERVE_PROTOCOL_VERSION,
            ),
            ("CKPT_SCHEMA_VERSION", orion_ckpt::CKPT_SCHEMA_VERSION),
        ];
        let design = include_str!("../../../DESIGN.md");
        // Table rows: | `CONSTANT` | crate | stamps | value | invalidates |
        let documented: Vec<(&str, u32)> = design
            .lines()
            .filter_map(|row| {
                let cells: Vec<&str> = row.split('|').map(str::trim).collect();
                let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
                Some((name, cells.get(4)?.parse().ok()?))
            })
            .filter(|(name, _)| name.ends_with("_VERSION"))
            .collect();
        assert_eq!(documented, versions, "DESIGN.md \"Format versions\" table");
    }

    #[test]
    fn buffer_report_contains_table2_quantities() {
        let out = run_line("buffer --flits 64 --bits 256").unwrap();
        for needle in [
            "C_wl", "C_br", "C_bw", "C_cell", "E_read", "E_write", "area",
        ] {
            assert!(out.contains(needle), "missing {needle} in:\n{out}");
        }
    }

    #[test]
    fn buffer_decoder_flag_adds_line() {
        let plain = run_line("buffer --flits 64 --bits 32").unwrap();
        let decoded = run_line("buffer --flits 64 --bits 32 --decoder").unwrap();
        assert!(!plain.contains("E_decode"));
        assert!(decoded.contains("E_decode"));
    }

    #[test]
    fn crossbar_kinds_and_ports() {
        let m = run_line("crossbar --ports 5 --bits 256").unwrap();
        assert!(m.contains("Matrix crossbar"));
        let t = run_line("crossbar --inputs 4 --outputs 2 --bits 32 --kind muxtree").unwrap();
        assert!(t.contains("MuxTree crossbar"));
        assert!(t.contains("4x2"));
    }

    #[test]
    fn arbiter_kinds() {
        for (kind, name) in [
            ("matrix", "Matrix"),
            ("rr", "RoundRobin"),
            ("queuing", "Queuing"),
        ] {
            let out = run_line(&format!("arbiter --requesters 5 --kind {kind}")).unwrap();
            assert!(out.contains(name), "{kind}: {out}");
        }
    }

    #[test]
    fn link_variants() {
        let on = run_line("link --length-mm 3 --bits 256").unwrap();
        assert!(on.contains("on-chip link"));
        // The paper's anchor: 3mm at 0.1um = 1.08 pF.
        assert!(on.contains("1080.0"), "{on}");
        let c2c = run_line("link --chip2chip --watts 3 --bits 32").unwrap();
        assert!(c2c.contains("3.000 W"));
    }

    #[test]
    fn central_buffer_paper_config() {
        let out = run_line("central-buffer --banks 4 --rows 2560 --bits 32").unwrap();
        assert!(out.contains("4 banks x 2560 rows"));
        assert!(out.contains("E_read"));
    }

    #[test]
    fn node_and_vdd_options() {
        let hot = run_line("buffer --flits 16 --bits 32 --node 0.18um --vdd 2.0").unwrap();
        assert!(hot.contains("0.18um"));
        assert!(hot.contains("/ 2 V"));
    }

    #[test]
    fn helpful_errors() {
        assert!(run_line("bogus --x 1").is_err());
        assert!(run_line("buffer --bits 32").is_err()); // missing --flits
        assert!(run_line("buffer --flits 0 --bits 32").is_err()); // invalid model
        assert!(run_line("buffer --flits 4 --bits 32 --typo 1").is_err());
        assert!(run_line("link --bits 32 --length-mm -1").is_err());
        assert!(run_line("crossbar --ports 5 --bits 32 --kind hexagon").is_err());
        assert!(run_line("buffer --flits 4 --bits 32 --node 45nm").is_err());
    }
}
