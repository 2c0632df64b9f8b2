//! The `powermap` subcommand: render the per-node power map an
//! observed `simulate --observe-dir` run emits (`powermap.jsonl`) as
//! the paper's Fig. 6 grid, one grid per z-plane of a 3-D network,
//! with the hotspot marked.
//!
//! Exit codes follow the scheme in [`crate::run`]: 1 when the file
//! cannot be read, 2 when its contents are malformed or from an
//! unknown schema version.

use orion_exp::record::parse_flat_object;
use orion_obs::json::Json;

use crate::args::{ArgError, Args, Grammar};
use crate::run::{CmdOutput, EXIT_BAD_INPUT, EXIT_RUNTIME};

/// Version of the `powermap.jsonl` line layout written by
/// `simulate --observe-dir` and read back here. Bump on any field
/// change. History: 2 added `z` (0 on a 2-D network).
pub const POWERMAP_SCHEMA_VERSION: u32 = 2;

/// `powermap`: exactly one of the two locations.
pub const GRAMMAR: Grammar = Grammar("--observe-dir DIR --file powermap.jsonl");

/// One `powermap.jsonl` line: a node's position, energy and power.
pub struct NodeCell {
    pub node: usize,
    pub x: usize,
    pub y: usize,
    pub z: usize,
    pub energy_j: f64,
    pub power_w: f64,
}

impl NodeCell {
    /// Appends the line [`parse_line`] reads back (newline included).
    pub fn write_line(&self, out: &mut String) {
        let mut line = Json::compact(out);
        line.key("schema_version").num(POWERMAP_SCHEMA_VERSION);
        line.key("node").num(self.node);
        line.key("x").num(self.x);
        line.key("y").num(self.y);
        line.key("z").num(self.z);
        line.key("total_energy_j").f64(self.energy_j);
        line.key("power_w").f64(self.power_w);
        line.end();
        out.push('\n');
    }
}

/// Runs `powermap --observe-dir DIR` (or `--file powermap.jsonl`),
/// returning the rendered grid. File-read failures exit 1; malformed
/// or version-skewed content exits 2.
///
/// # Errors
///
/// Returns an [`ArgError`] for unknown options or a missing input
/// location.
pub fn powermap(args: &Args) -> Result<CmdOutput, ArgError> {
    let path = match (args.path("file"), args.path("observe-dir")) {
        (Some(f), None) => f,
        (None, Some(d)) => d.join("powermap.jsonl"),
        (None, None) => {
            return Err(ArgError(
                "powermap needs --observe-dir DIR (or --file powermap.jsonl)".into(),
            ))
        }
        (Some(_), Some(_)) => {
            return Err(ArgError(
                "--file and --observe-dir are mutually exclusive".into(),
            ))
        }
    };
    let shown = path.display();
    Ok(match std::fs::read_to_string(&path) {
        Err(e) => CmdOutput::failure(EXIT_RUNTIME, format!("cannot read `{shown}`: {e}")),
        Ok(text) => match render(&text) {
            Ok(rendered) => CmdOutput::ok(rendered),
            Err(e) => CmdOutput::failure(EXIT_BAD_INPUT, format!("{shown}: {e}")),
        },
    })
}

fn parse_line(line: &str, number: usize) -> Result<NodeCell, String> {
    let obj =
        parse_flat_object(line).ok_or_else(|| format!("line {number}: not a flat JSON object"))?;
    let version = obj
        .get("schema_version")
        .and_then(|v| v.as_u64())
        .ok_or_else(|| format!("line {number}: missing schema_version"))?;
    if version != u64::from(POWERMAP_SCHEMA_VERSION) {
        return Err(format!(
            "line {number}: schema_version {version} (expected {POWERMAP_SCHEMA_VERSION})"
        ));
    }
    let field = |name: &str| -> Result<f64, String> {
        obj.get(name)
            .and_then(|v| v.as_f64())
            .ok_or_else(|| format!("line {number}: missing numeric field `{name}`"))
    };
    Ok(NodeCell {
        node: field("node")? as usize,
        x: field("x")? as usize,
        y: field("y")? as usize,
        z: field("z")? as usize,
        energy_j: field("total_energy_j")?,
        power_w: field("power_w")?,
    })
}

/// Renders `powermap.jsonl` content as a coordinate grid of per-node
/// power (one per z-plane of a 3-D network) with hotspot and mean
/// annotations; the hotspot is taken over every node.
fn render(text: &str) -> Result<String, String> {
    let mut cells = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        cells.push(parse_line(line, idx + 1)?);
    }
    if cells.is_empty() {
        return Err("no power map records".to_string());
    }
    let width = cells.iter().map(|c| c.x).max().unwrap_or(0) + 1;
    let height = cells.iter().map(|c| c.y).max().unwrap_or(0) + 1;
    let depth = cells.iter().map(|c| c.z).max().unwrap_or(0) + 1;
    let at = |c: &NodeCell| match depth {
        1 => format!("({}, {})", c.x, c.y),
        _ => format!("({}, {}, {})", c.x, c.y, c.z),
    };
    let mut grid: Vec<Option<&NodeCell>> = vec![None; width * height * depth];
    for cell in &cells {
        let slot = &mut grid[(cell.z * height + cell.y) * width + cell.x];
        if slot.is_some() {
            return Err(format!("duplicate node at {}", at(cell)));
        }
        *slot = Some(cell);
    }
    let shape = match depth {
        1 => format!("{width}x{height}"),
        _ => format!("{width}x{height}x{depth}"),
    };
    if grid.iter().any(Option::is_none) {
        return Err(format!(
            "incomplete grid: {} record(s) for {shape} nodes",
            cells.len()
        ));
    }

    let Some(hottest) = cells.iter().max_by(|a, b| a.power_w.total_cmp(&b.power_w)) else {
        return Err("no power map records".to_string());
    };
    let mean_power = cells.iter().map(|c| c.power_w).sum::<f64>() / cells.len() as f64;
    let mean_energy = cells.iter().map(|c| c.energy_j).sum::<f64>() / cells.len() as f64;

    let mut out = format!("per-node power map ({shape}), watts; * = hotspot\n");
    // Row y at the top matches the paper's grid orientation with
    // (0, 0) in the top-left corner. Completeness was verified above,
    // so every slot holds a node.
    for (i, plane) in grid.chunks(width * height).enumerate() {
        if depth > 1 {
            out.push_str(&format!("z = {i}\n"));
        }
        for row in plane.chunks(width) {
            for cell in row.iter().flatten() {
                let mark = if cell.node == hottest.node { '*' } else { ' ' };
                out.push_str(&format!("  {:>10.6}{mark}", cell.power_w));
            }
            out.push('\n');
        }
    }
    out.push_str(&format!(
        "hotspot: node {} at {}: {:.6} W, {:.4e} J ({:.2}x mean power)\n",
        hottest.node,
        at(hottest),
        hottest.power_w,
        hottest.energy_j,
        hottest.power_w / mean_power,
    ));
    out.push_str(&format!(
        "mean per node: {mean_power:.6} W, {mean_energy:.4e} J\n"
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_jsonl() -> String {
        let mut s = String::new();
        for node in 0..4usize {
            let cell = NodeCell {
                node,
                x: node % 2,
                y: node / 2,
                z: 0,
                energy_j: 1e-9 * (node + 1) as f64,
                power_w: 0.1 + 0.1 * node as f64,
            };
            cell.write_line(&mut s);
        }
        s
    }

    #[test]
    fn renders_grid_with_hotspot() {
        let out = render(&sample_jsonl()).unwrap();
        assert!(out.contains("per-node power map (2x2)"), "{out}");
        assert!(out.contains("hotspot: node 3 at (1, 1)"), "{out}");
        assert!(out.contains('*'), "{out}");
        assert!(out.contains("mean per node: 0.250000 W"), "{out}");
    }

    #[test]
    fn malformed_content_is_rejected_with_line_numbers() {
        assert!(render("").unwrap_err().contains("no power map records"));
        assert!(render("not json\n").unwrap_err().contains("line 1"));
        let skewed = sample_jsonl().replace("\"schema_version\":2", "\"schema_version\":9");
        assert!(render(&skewed).unwrap_err().contains("schema_version 9"));
        // A version-1 line (no `z`) is schema skew, not a 2-D reading.
        let v1 = r#"{"schema_version":1,"node":0,"x":0,"y":0,"total_energy_j":1e-9,"power_w":0.1}"#;
        let e = render(v1).unwrap_err();
        assert!(e.contains("line 1: schema_version 1 (expected 2)"), "{e}");
        let short: String = sample_jsonl()
            .lines()
            .take(3)
            .collect::<Vec<_>>()
            .join("\n");
        assert!(render(&short).unwrap_err().contains("incomplete grid"));
        let dupe = format!(
            "{}{}",
            sample_jsonl(),
            sample_jsonl().lines().next().unwrap()
        );
        assert!(render(&dupe).unwrap_err().contains("duplicate node"));
    }

    fn run_powermap(line: &str) -> Result<CmdOutput, ArgError> {
        crate::run::run(&crate::args::toks(line))
    }

    #[test]
    fn missing_file_exits_1_and_bad_args_exit_2() {
        let out = run_powermap("powermap --observe-dir /nonexistent-orion-obs").unwrap();
        assert_eq!(out.code, EXIT_RUNTIME, "{}", out.text);
        assert!(out.text.starts_with("error:"), "{}", out.text);

        assert!(run_powermap("powermap").is_err());
        assert!(run_powermap("powermap --file a --observe-dir b").is_err());
        assert!(run_powermap("powermap --typo 1").is_err());
    }

    #[test]
    fn reads_a_file_end_to_end() {
        let dir = std::env::temp_dir().join(format!("orion-powermap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("powermap.jsonl"), sample_jsonl()).unwrap();

        let out = run_powermap(&format!("powermap --observe-dir {}", dir.display())).unwrap();
        assert_eq!(out.code, 0, "{}", out.text);
        assert!(out.text.contains("hotspot: node 3"), "{}", out.text);

        std::fs::write(dir.join("powermap.jsonl"), "garbage\n").unwrap();
        let out = run_powermap(&format!("powermap --observe-dir {}", dir.display())).unwrap();
        assert_eq!(out.code, EXIT_BAD_INPUT, "{}", out.text);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
