//! EXPERIMENTS.md's numbers are renderings of committed records.
//!
//! `docs/results/` holds, byte for byte, what the commands in
//! EXPERIMENTS.md § Reproduce write: the `experiment run` artifacts of
//! every figure spec in [`SPECS`], and the two Fig. 6 `powermap.jsonl`
//! files of `simulate --observe-dir`. This suite checks that
//!
//! 1. every committed artifact is today's grid: its cell keys and
//!    fingerprints are `ExperimentSpec::expand()`'s under today's
//!    `MODEL_VERSION`, each record is one `ok` run under its cell's
//!    derived seed, and its CSV is its JSONL's;
//! 2. the cheapest cell of each spec, re-run, writes its committed line
//!    byte for byte, so a model change that keeps every key still fails;
//! 3. every `<!-- results:NAME -->` … `<!-- /results -->` block of
//!    EXPERIMENTS.md equals its rendering from those files, from the
//!    `orion-power` models and from the newest `BENCH_e2e.json` row;
//! 4. every ✓/✗ verdict those blocks render is the one committed in
//!    [`VERDICTS`], so a verdict cannot flip silently;
//! 5. every backticked `path.rs` or `path.rs::symbol` in the docs
//!    names a file that exists and an item that file defines.
//!
//! After a deliberate model change, regenerate `docs/results/` with the
//! § Reproduce commands, then rewrite the blocks with
//! `cargo test -p orion-cli --test results -- --ignored bless`. `bless`
//! never writes [`VERDICTS`]: a flipped verdict is edited there by hand.

use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;

use orion_core::presets;
use orion_exp::artifact::{to_csv, to_jsonl};
use orion_exp::record::{parse_flat_object, JsonVal};
use orion_exp::{run_cell, Cell, CellRecord, ExperimentSpec};
use orion_power::{
    ArbiterKind, ArbiterParams, ArbiterPower, BufferParams, BufferPower, CentralBufferParams,
    CentralBufferPower, CrossbarKind, CrossbarParams, CrossbarPower, LinkPower, WriteActivity,
};
use orion_tech::{average_power, Hertz, Joules, Microns, ProcessNode, Technology, Watts};

/// The figure specs (`examples/specs/<stem>.toml`) whose `experiment
/// run` artifacts are committed under `docs/results/`.
const SPECS: [&str; 6] = [
    "fig5",
    "fig7",
    "fig7_broadcast",
    "ablation_flow_control",
    "ablation_discipline",
    "scaling",
];

const DOC: &str = "EXPERIMENTS.md";
/// The committed verdict of every paper claim, by claim id.
const VERDICTS: &str = "crates/cli/tests/verdicts.txt";
const OPEN: &str = "<!-- results:";
const CLOSE: &str = "<!-- /results -->";

fn repo(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(rel)
}

fn read(rel: &str) -> String {
    std::fs::read_to_string(repo(rel)).unwrap_or_else(|e| panic!("{rel}: {e}"))
}

/// One spec and the artifact `experiment run` committed for it.
struct Grid {
    spec: ExperimentSpec,
    /// The spec's cells in artifact (cell-key) order.
    cells: Vec<Cell>,
    jsonl: String,
    records: Vec<CellRecord>,
}

impl Grid {
    fn load(stem: &str) -> Grid {
        let path = format!("examples/specs/{stem}.toml");
        let spec = ExperimentSpec::parse(&read(&path)).unwrap_or_else(|e| panic!("{path}: {e}"));
        let mut cells = spec.expand();
        cells.sort_by_key(Cell::key);
        let jsonl = read(&format!("docs/results/{}.jsonl", spec.name));
        let records = jsonl
            .lines()
            .map(|l| CellRecord::from_json_line(l).unwrap_or_else(|| panic!("{stem}: {l}")))
            .collect();
        Grid {
            spec,
            cells,
            jsonl,
            records,
        }
    }

    /// The records `pick` selects, in cell-key order (ascending rate
    /// for one design point).
    fn column(&self, pick: impl Fn(&CellRecord) -> bool) -> Vec<&CellRecord> {
        self.records.iter().filter(|r| pick(r)).collect()
    }

    /// The records of `preset`, in ascending rate.
    fn preset(&self, preset: &str) -> Vec<&CellRecord> {
        self.column(|r| r.preset == preset)
    }

    /// The one record of `preset` at `rate`.
    fn at(&self, preset: &str, rate: f64) -> &CellRecord {
        let hits = self.column(|r| r.preset == preset && r.rate == rate);
        assert_eq!(hits.len(), 1, "{}: {preset} @ {rate}", self.spec.name);
        hits[0]
    }
}

#[test]
fn committed_artifacts_are_todays_grids() {
    let mut expected = vec![];
    for stem in SPECS {
        let grid = Grid::load(stem);
        let name = &grid.spec.name;
        assert_eq!(grid.records.len(), grid.cells.len(), "{name}: cell count");
        for (record, cell) in grid.records.iter().zip(&grid.cells) {
            assert_eq!(record.cell, cell.key(), "{name}: cell order");
            assert_eq!(
                record.fingerprint,
                cell.fingerprint(),
                "{name}: {} was not run by today's model (re-run § Reproduce)",
                record.cell
            );
            // A record is a pure function of its cell: one run, under
            // the seed its key derives.
            assert_eq!(
                (record.cell_outcome.as_str(), record.attempts),
                ("ok", 1),
                "{name}: {}",
                record.cell
            );
            assert_eq!(
                record.derived_seed,
                cell.derived_seed(),
                "{name}: {} ran under another seed",
                record.cell
            );
        }
        assert_eq!(
            to_jsonl(&grid.records),
            grid.jsonl,
            "{name}.jsonl round trip"
        );
        let csv = read(&format!("docs/results/{name}.csv"));
        assert_eq!(to_csv(&grid.records), csv, "{name}.csv is not {name}.jsonl");
        expected.extend([format!("{name}.jsonl"), format!("{name}.csv")]);
    }
    // Every artifact at the top of docs/results/ belongs to a spec.
    let mut found: Vec<String> = std::fs::read_dir(repo("docs/results"))
        .unwrap()
        .map(|e| e.unwrap())
        .filter(|e| e.file_type().unwrap().is_file())
        .map(|e| e.file_name().into_string().unwrap())
        .collect();
    found.sort();
    expected.sort();
    assert_eq!(found, expected, "docs/results/ holds a file no spec writes");
}

#[test]
fn each_specs_cheapest_cell_reruns_to_its_committed_line() {
    std::thread::scope(|scope| {
        for stem in SPECS {
            scope.spawn(move || {
                let grid = Grid::load(stem);
                let cells = &grid.cells;
                // Cost ~ simulated node-cycles, as the committed run
                // measured them. A stalled run stops before it charges
                // much energy, so the re-run cell is a completed one.
                let cost = |i: usize| {
                    let nodes = cells[i].config().topology.num_nodes() as u64;
                    (cells[i].measure.warmup + grid.records[i].measured_cycles) * nodes
                };
                let cheapest = (0..cells.len())
                    .filter(|&i| grid.records[i].outcome == "completed")
                    .min_by_key(|&i| cost(i))
                    .unwrap_or_else(|| panic!("{stem}: no completed cell"));
                let fresh = to_jsonl(&[run_cell(&cells[cheapest])]);
                let committed = grid.jsonl.lines().nth(cheapest).unwrap();
                assert_eq!(
                    fresh.trim_end(),
                    committed,
                    "{stem}: today's model changes a committed record (re-run § Reproduce)"
                );
            });
        }
    });
}

#[test]
fn experiments_md_blocks_are_their_renderings() {
    let doc = read(DOC);
    let (rendered, _) = render_all();
    let mut seen = vec![];
    for (name, body) in blocks(&doc) {
        let want = rendered
            .get(name)
            .unwrap_or_else(|| panic!("{DOC}: no renderer for block `{name}`"));
        assert!(
            doc[body.clone()] == *want,
            "{DOC} block `{name}` is stale; rewrite it with \
             `cargo test -p orion-cli --test results -- --ignored bless`\n\
             --- committed\n{}--- rendered\n{want}",
            &doc[body]
        );
        assert!(!seen.contains(&name), "{DOC}: block `{name}` appears twice");
        seen.push(name);
    }
    for name in rendered.keys() {
        assert!(seen.contains(name), "{DOC}: no block `{name}`");
    }
}

#[test]
fn rendered_verdicts_are_the_committed_ones() {
    let (_, verdicts) = render_all();
    let committed = committed_verdicts();
    let mut flipped = vec![];
    for (id, holds) in &verdicts.0 {
        match committed.get(*id) {
            None => flipped.push(format!("{id}: rendered, but has no line in {VERDICTS}")),
            Some(&want) if want != *holds => flipped.push(format!(
                "{id}: committed {}, rendered {}",
                mark(want),
                mark(*holds)
            )),
            Some(_) => {}
        }
    }
    for id in committed.keys() {
        if !verdicts.0.iter().any(|(rendered, _)| rendered == id) {
            flipped.push(format!("{id}: in {VERDICTS}, but no block renders it"));
        }
    }
    assert!(
        flipped.is_empty(),
        "verdicts differ from {VERDICTS} (edit it by hand and say why):\n{}",
        flipped.join("\n")
    );
}

/// [`VERDICTS`] parsed: `id ✓`, or `id ✗ cause` with a non-empty cause.
fn committed_verdicts() -> BTreeMap<String, bool> {
    let mut out = BTreeMap::new();
    for line in read(VERDICTS).lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (id, rest) = line
            .split_once(' ')
            .unwrap_or_else(|| panic!("{VERDICTS}: `{line}` has no verdict"));
        let holds = match rest.trim() {
            "✓" => true,
            x => {
                let cause = x
                    .strip_prefix('✗')
                    .unwrap_or_else(|| panic!("{VERDICTS}: `{line}` is neither ✓ nor ✗"));
                assert!(
                    !cause.trim().is_empty(),
                    "{VERDICTS}: ✗ `{id}` gives no cause"
                );
                false
            }
        };
        assert!(
            out.insert(id.to_string(), holds).is_none(),
            "{VERDICTS}: `{id}` appears twice"
        );
    }
    out
}

#[test]
fn doc_anchors_resolve() {
    let mut docs: Vec<String> = std::fs::read_dir(repo("docs"))
        .unwrap()
        .map(|e| e.unwrap().file_name().into_string().unwrap())
        .filter(|name| name.ends_with(".md"))
        .map(|name| format!("docs/{name}"))
        .collect();
    docs.sort();
    docs.extend(["README.md", "DESIGN.md", DOC].map(String::from));
    let mut broken = vec![];
    for doc in &docs {
        for span in code_spans(&read(doc)) {
            let Some((path, symbols)) = anchor(&span) else {
                continue;
            };
            let Ok(source) = std::fs::read_to_string(repo(path)) else {
                broken.push(format!(
                    "{doc}: `{span}`: no file {path} under the repo root"
                ));
                continue;
            };
            for symbol in symbols {
                if !defines(&source, symbol) {
                    broken.push(format!("{doc}: `{span}`: {path} defines no `{symbol}`"));
                }
            }
        }
    }
    assert!(
        broken.is_empty(),
        "broken doc anchors:\n{}",
        broken.join("\n")
    );
}

/// The inline code spans of a markdown document, fenced blocks skipped.
fn code_spans(doc: &str) -> Vec<String> {
    let mut prose = String::new();
    let mut fenced = false;
    for line in doc.lines() {
        if line.trim_start().starts_with("```") {
            fenced = !fenced;
        } else if !fenced {
            prose.push_str(line);
            prose.push('\n');
        }
    }
    prose
        .split('`')
        .skip(1)
        .step_by(2)
        .map(String::from)
        .collect()
}

/// A `path.rs` or `path.rs::a::b` span split into the path and the
/// symbols it names; `None` for any other span.
fn anchor(span: &str) -> Option<(&str, Vec<&str>)> {
    let (path, symbols) = span.split_once("::").unwrap_or((span, ""));
    let path_char = |c: char| c.is_ascii_alphanumeric() || "_./-".contains(c);
    let ident = |s: &str| !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_');
    let symbols: Vec<&str> = symbols.split("::").filter(|s| !s.is_empty()).collect();
    (path.ends_with(".rs") && path.chars().all(path_char) && symbols.iter().all(|s| ident(s)))
        .then_some((path, symbols))
}

/// Whether `source` defines `name` as a `fn`, `struct`, `enum`, `const`
/// or `mod`.
fn defines(source: &str, name: &str) -> bool {
    let words: Vec<&str> = source
        .split(|c: char| !(c.is_ascii_alphanumeric() || c == '_'))
        .filter(|w| !w.is_empty())
        .collect();
    words
        .windows(2)
        .any(|w| ["fn", "struct", "enum", "const", "mod"].contains(&w[0]) && w[1] == name)
}

#[test]
#[ignore = "rewrites the EXPERIMENTS.md results blocks from the committed records"]
fn bless() {
    let mut doc = read(DOC);
    let (rendered, _) = render_all();
    for (name, body) in blocks(&doc.clone()).into_iter().rev() {
        doc.replace_range(body, &rendered[name]);
    }
    std::fs::write(repo(DOC), doc).unwrap();
}

/// The name and body byte range of every results block: the lines
/// between a line `<!-- results:NAME -->` and the next `<!-- /results -->`.
fn blocks(doc: &str) -> Vec<(&str, Range<usize>)> {
    let mut out = vec![];
    let mut open: Option<(&str, usize)> = None;
    let mut at = 0;
    for line in doc.split_inclusive('\n') {
        let text = line.trim_end();
        if let Some(name) = text.strip_prefix(OPEN).and_then(|t| t.strip_suffix(" -->")) {
            assert!(open.is_none(), "{DOC}: block `{name}` opens inside another");
            open = Some((name, at + line.len()));
        } else if text == CLOSE {
            let (name, start) = open.take().expect("a closed block was opened");
            out.push((name, start..at));
        }
        at += line.len();
    }
    assert!(open.is_none(), "{DOC}: a block is never closed");
    out
}

// ---------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------

/// Every block's rendering, by name, and the verdicts they state.
fn render_all() -> (BTreeMap<&'static str, String>, Verdicts) {
    let grids: BTreeMap<&str, Grid> = SPECS.iter().map(|s| (*s, Grid::load(s))).collect();
    let mut v = Verdicts::default();
    let blocks = [
        ("walkthrough", walkthrough()),
        ("fig5-tables", fig5_tables(&grids["fig5"])),
        ("fig5a", fig5a(&grids["fig5"], &mut v)),
        ("fig5b", fig5b(&grids["fig5"], &mut v)),
        ("fig5c", fig5c(&grids["fig5"], &mut v)),
        ("fig6a", fig6a(&mut v)),
        ("fig6b", fig6b(&mut v)),
        (
            "fig7-tables",
            fig7_tables(&grids["fig7"], &grids["fig7_broadcast"]),
        ),
        (
            "fig7",
            fig7(&grids["fig7"], &grids["fig7_broadcast"], &mut v),
        ),
        ("speed", speed()),
        ("scaling", scaling(&grids["scaling"])),
        (
            "ablation-flow-control",
            flow_control(&grids["ablation_flow_control"]),
        ),
        (
            "ablation-discipline",
            discipline(&grids["ablation_discipline"]),
        ),
        ("validation", validation(&mut v)),
    ];
    (blocks.into_iter().collect(), v)
}

/// A markdown table.
fn table(header: &[impl AsRef<str>], rows: &[Vec<String>]) -> String {
    let line = |cells: &[String]| format!("| {} |\n", cells.join(" | "));
    let header: Vec<String> = header.iter().map(|h| h.as_ref().to_string()).collect();
    let mut out = line(&header);
    out.push_str(&format!("|{}\n", "---|".repeat(header.len())));
    for row in rows {
        assert_eq!(row.len(), header.len(), "ragged row {row:?}");
        out.push_str(&line(row));
    }
    out
}

fn mark(holds: bool) -> &'static str {
    if holds {
        "✓"
    } else {
        "✗"
    }
}

/// The verdicts the blocks state, `(claim id, holds)` in render order.
#[derive(Default)]
struct Verdicts(Vec<(&'static str, bool)>);

impl Verdicts {
    /// Records claim `id`'s verdict and renders it: ✓ or ✗, `detail`,
    /// then `†` and every cell among `reads` whose numbers cover almost
    /// no measured window ([`thin`]). The mark never changes the verdict.
    fn mark(
        &mut self,
        id: &'static str,
        holds: bool,
        reads: &[&CellRecord],
        detail: &str,
    ) -> String {
        self.0.push((id, holds));
        let mut out = format!("{}{detail}", mark(holds));
        let mut by_preset: Vec<(&str, Vec<String>)> = vec![];
        for r in reads.iter().filter(|r| thin(r)) {
            let rate = format!("{:.2}", r.rate);
            match by_preset.iter_mut().find(|(p, _)| *p == r.preset) {
                Some((_, rates)) => rates.push(rate),
                None => by_preset.push((&r.preset, vec![rate])),
            }
        }
        if !by_preset.is_empty() {
            let cells: Vec<String> = by_preset
                .iter()
                .map(|(p, rates)| format!("{p} @ {}", rates.join(", ")))
                .collect();
            out.push_str(&format!(" † {}", cells.join("; ")));
        }
        out
    }
}

fn stalled(r: &CellRecord) -> bool {
    matches!(r.outcome.as_str(), "deadlocked" | "livelocked")
}

/// A cell that stalled during warm-up (1 measured cycle, 0 W) or
/// livelocked (power over a short live window).
fn thin(r: &CellRecord) -> bool {
    r.measured_cycles <= 1 || r.outcome == "livelocked"
}

/// A latency cell: `*` saturated, `!` deadlocked or livelocked, `-` no
/// tagged packet delivered.
fn latency(r: &CellRecord) -> String {
    let mut s = match (r.avg_latency.is_nan(), r.saturated) {
        (true, _) => "-".to_string(),
        (false, true) => format!("{:.1}*", r.avg_latency),
        (false, false) => format!("{:.1}", r.avg_latency),
    };
    if stalled(r) {
        s.push('!');
    }
    s
}

/// A total-power cell; `!` marks power over a stalled run's live window.
fn power(r: &CellRecord) -> String {
    let mut s = format!("{:.3}", r.total_power_w);
    if stalled(r) {
        s.push('!');
    }
    s
}

/// The last swept rate before a column's first saturated or unfinished
/// cell (§4.1: latency above twice zero-load), if any.
fn knee(column: &[&CellRecord]) -> Option<f64> {
    column
        .iter()
        .take_while(|r| !r.saturated && r.outcome == "completed")
        .last()
        .map(|r| r.rate)
}

/// A column's cells through the first one that satisfies `stop` (all
/// of them when none does): the cells a scan for it reads.
fn through_first<'a>(
    column: &[&'a CellRecord],
    stop: impl Fn(&CellRecord) -> bool,
) -> Vec<&'a CellRecord> {
    let n = column
        .iter()
        .position(|r| stop(r))
        .map_or(column.len(), |i| i + 1);
    column[..n].to_vec()
}

/// The cells [`knee`] reads.
fn knee_reads<'a>(column: &[&'a CellRecord]) -> Vec<&'a CellRecord> {
    through_first(column, |r| r.saturated || r.outcome != "completed")
}

fn knee_text(column: &[&CellRecord]) -> String {
    knee(column).map_or("none".to_string(), |r| format!("{r:.2}"))
}

/// `[rate, cell(col0[i]), cell(col1[i]), ...]` per swept rate.
fn rate_rows(
    rates: &[f64],
    columns: &[Vec<&CellRecord>],
    cells: &[fn(&CellRecord) -> String],
) -> Vec<Vec<String>> {
    (0..rates.len())
        .map(|i| {
            let mut row = vec![format!("{:.2}", rates[i])];
            for cell in cells {
                row.extend(columns.iter().map(|c| cell(c[i])));
            }
            row
        })
        .collect()
}

fn share(part: f64, whole: f64) -> String {
    format!("{:.1}%", 100.0 * part / whole)
}

// ---- §3.3 walkthrough -------------------------------------------------

/// The paper's Fig. 2 router: 5 ports, 4-flit 32-bit buffers, a 5×5
/// crossbar, a 4:1 arbiter per output and 3 mm links at 0.1 µm.
fn walkthrough() -> String {
    let tech = Technology::new(ProcessNode::Nm100);
    let buffer = BufferPower::new(&BufferParams::new(4, 32), tech).unwrap();
    let crossbar =
        CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 32), tech).unwrap();
    let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 4), tech)
        .unwrap()
        .with_control_energy(crossbar.control_energy());
    let link = LinkPower::on_chip(Microns::from_mm(3.0), 32, tech);
    // Uniform random data toggles half the lines; one requester appears
    // and the grant flips about half the granted row's priorities.
    let parts = [
        (
            "E_wrt",
            buffer.write_energy(&WriteActivity::uniform_random(32)),
        ),
        ("E_arb", arbiter.arbitration_energy(0b0001, 0b0000, 2)),
        ("E_read", buffer.read_energy()),
        ("E_xb", crossbar.traversal_energy_uniform()),
        ("E_link (3 mm)", link.traversal_energy_uniform()),
    ];
    let total: f64 = parts.iter().map(|(_, e)| e.0).sum();
    let mut rows: Vec<Vec<String>> = parts
        .iter()
        .map(|(name, e)| {
            vec![
                name.to_string(),
                format!("{:.2}", e.as_pj()),
                share(e.0, total),
            ]
        })
        .collect();
    rows.push(vec![
        "**E_flit**".into(),
        format!("**{:.2}**", Joules(total).as_pj()),
        String::new(),
    ]);
    table(&["operation", "energy (pJ)", "share"], &rows)
}

// ---- Figure 5 -----------------------------------------------------------

const FIG5: [(&str, &str); 4] = [
    ("wh64", "WH64"),
    ("vc16", "VC16"),
    ("vc64", "VC64"),
    ("vc128", "VC128"),
];

fn fig5_columns(g: &Grid) -> Vec<Vec<&CellRecord>> {
    FIG5.iter().map(|(p, _)| g.preset(p)).collect()
}

fn fig5_tables(g: &Grid) -> String {
    let cols = fig5_columns(g);
    let mut header = vec!["rate"];
    header.extend(FIG5.iter().map(|(_, label)| *label));
    format!(
        "Latency (cycles):\n\n{}\nTotal network power (W):\n\n{}",
        table(&header, &rate_rows(&g.spec.rates, &cols, &[latency])),
        table(&header, &rate_rows(&g.spec.rates, &cols, &[power])),
    )
}

const VERDICT: [&str; 4] = ["claim (paper)", "measured", "records", "verdict"];

fn fig5a(g: &Grid, v: &mut Verdicts) -> String {
    let cols = fig5_columns(g);
    let knees: Vec<String> = FIG5
        .iter()
        .zip(&cols)
        .map(|((_, label), c)| format!("{label} {}", knee_text(c)))
        .collect();
    let first_stall = |c: &[&CellRecord]| c.iter().find(|r| stalled(r)).map(|r| r.rate);
    let stalls: Vec<String> = FIG5
        .iter()
        .zip(&cols)
        .map(|((_, label), c)| match first_stall(c) {
            Some(rate) => format!("{label} {rate:.2}"),
            None => format!("{label} none"),
        })
        .collect();
    let survivors: Vec<String> = [
        (2, "fig5a.vc64-never-stalls"),
        (3, "fig5a.vc128-never-stalls"),
    ]
    .into_iter()
    .map(|(i, id)| {
        let detail = format!(" {}", FIG5[i].1);
        let reads = through_first(&cols[i], stalled);
        v.mark(id, first_stall(&cols[i]).is_none(), &reads, &detail)
    })
    .collect();
    let (wh, vc) = (g.at("wh64", 0.02), g.at("vc16", 0.02));
    let knee_cells = [knee_reads(&cols[0]), knee_reads(&cols[1])].concat();
    let rows = vec![
        vec![
            "VC16 saturates at ≈0.15 pkt/cyc/node, **above** WH64 (≈0.11)".into(),
            format!("last unsaturated rate: {}", knees.join(", ")),
            "every `fig5` cell".into(),
            v.mark(
                "fig5a.vc16-knee-above-wh64",
                knee(&cols[1]) > knee(&cols[0]),
                &knee_cells,
                " ordering",
            ),
        ],
        vec![
            "VC adds pipeline latency at low load".into(),
            format!(
                "{:.1} (WH64) vs {:.1} (VC16) cycles",
                wh.avg_latency, vc.avg_latency
            ),
            "`fig5` wh64, vc16 @ 0.02".into(),
            v.mark(
                "fig5a.vc-adds-low-load-latency",
                vc.avg_latency > wh.avg_latency,
                &[wh, vc],
                "",
            ),
        ],
        vec![
            "VC64/VC128 sustain the highest rates".into(),
            format!(
                "first rate ending in deadlock or livelock: {}",
                stalls.join(", ")
            ),
            "every `fig5` cell".into(),
            survivors.join("; "),
        ],
    ];
    table(&VERDICT, &rows)
}

fn fig5b(g: &Grid, v: &mut Verdicts) -> String {
    let cols = fig5_columns(g);
    let live = |r: &CellRecord| r.outcome == "completed" && !r.saturated;
    let (wh, vc16, vc64, vc128) = (&cols[0], &cols[1], &cols[2], &cols[3]);
    let pre: Vec<usize> = (0..g.spec.rates.len())
        .filter(|&i| live(wh[i]) && live(vc16[i]))
        .collect();
    let below = pre
        .iter()
        .filter(|&&i| vc16[i].total_power_w < wh[i].total_power_w)
        .count();
    let crossings: Vec<String> = (0..g.spec.rates.len())
        .filter(|&i| {
            wh[i].outcome == "completed"
                && vc16[i].outcome == "completed"
                && vc16[i].total_power_w > wh[i].total_power_w
        })
        .map(|i| format!("{:.2}", g.spec.rates[i]))
        .collect();
    let [p_wh, p_vc16, p_vc64] = ["wh64", "vc16", "vc64"].map(|p| g.at(p, 0.10).total_power_w);
    let ratio = p_vc64 / p_wh;
    let not_top: Vec<String> = (0..g.spec.rates.len())
        .filter_map(|i| {
            let top = cols
                .iter()
                .zip(FIG5)
                .max_by(|x, y| x.0[i].total_power_w.total_cmp(&y.0[i].total_power_w))
                .unwrap();
            (top.1 .0 != "vc128").then(|| {
                format!(
                    "at {:.2}, where VC128 is {}: {:.3} W < {} {:.3} W",
                    g.spec.rates[i],
                    vc128[i].outcome,
                    vc128[i].total_power_w,
                    top.1 .1,
                    top.0[i].total_power_w
                )
            })
        })
        .collect();
    let pre_cells: Vec<&CellRecord> = pre.iter().flat_map(|&i| [wh[i], vc16[i]]).collect();
    let wh_vc16 = [wh.as_slice(), vc16.as_slice()].concat();
    let every = cols.concat();
    let n = vc64.len();
    let step = |i: usize| vc64[i].total_power_w - vc64[i - 1].total_power_w;
    let ramp = (vc64[4].total_power_w - vc64[0].total_power_w) / 4.0;
    let track = g.at("vc64", 0.08).total_power_w / g.at("vc64", 0.04).total_power_w;
    let rows = vec![
        vec![
            "VC16 uses less power than WH64 at equal pre-saturation rates".into(),
            format!(
                "{p_vc16:.2} vs {p_wh:.2} W at 0.10; VC16 lower at {below} of the {} rates where both are unsaturated",
                pre.len()
            ),
            "`fig5` wh64, vc16, every rate".into(),
            v.mark(
                "fig5b.vc16-below-wh64",
                below == pre.len(),
                &pre_cells,
                "",
            ),
        ],
        vec![
            "VC16 exceeds WH64 past ≈0.11 (WH64 saturates, VC16 keeps absorbing)".into(),
            if crossings.is_empty() {
                "no rate where both complete and VC16 draws more".into()
            } else {
                format!("VC16 draws more at {}", crossings.join(", "))
            },
            "`fig5` wh64, vc16, every rate".into(),
            v.mark(
                "fig5b.vc16-above-wh64-past-knee",
                !crossings.is_empty(),
                &wh_vc16,
                "",
            ),
        ],
        vec![
            "VC64 ≈ WH64 (equal buffering per port)".into(),
            format!(
                "{p_vc64:.2} vs {p_wh:.2} W at 0.10 ({:+.0}%)",
                100.0 * (ratio - 1.0)
            ),
            "`fig5` vc64, wh64 @ 0.10".into(),
            v.mark(
                "fig5b.vc64-matches-wh64",
                (ratio - 1.0).abs() < 0.10,
                &[g.at("vc64", 0.10), g.at("wh64", 0.10)],
                " (within ±10%)",
            ),
        ],
        vec![
            "VC128 is the most power-hungry at every rate".into(),
            if not_top.is_empty() {
                "highest column at every rate".into()
            } else {
                format!("highest except {}", not_top.join("; "))
            },
            "`fig5` every cell".into(),
            v.mark(
                "fig5b.vc128-most-power-hungry",
                not_top.is_empty(),
                &every,
                "",
            ),
        ],
        vec![
            "below saturation power rises with load".into(),
            format!(
                "VC64: {:.3} W at 0.08 / {:.3} W at 0.04 = {track:.2}×",
                g.at("vc64", 0.08).total_power_w,
                g.at("vc64", 0.04).total_power_w,
            ),
            "`fig5` vc64 @ 0.04, 0.08".into(),
            v.mark(
                "fig5b.power-tracks-load",
                (1.6..=2.4).contains(&track),
                &[g.at("vc64", 0.04), g.at("vc64", 0.08)],
                " (within 1.6–2.4×)",
            ),
        ],
        vec![
            "power levels off after saturation".into(),
            format!(
                "VC64: {:.1} → {:.1} → {:.1} W across {:.2}/{:.2}/{:.2}; last step {:.2} W vs {:.2} W per step below 0.10",
                vc64[n - 3].total_power_w,
                vc64[n - 2].total_power_w,
                vc64[n - 1].total_power_w,
                vc64[n - 3].rate,
                vc64[n - 2].rate,
                vc64[n - 1].rate,
                step(n - 1),
                ramp
            ),
            "`fig5` vc64, every rate".into(),
            v.mark(
                "fig5b.power-levels-off",
                step(n - 1) < ramp / 2.0,
                vc64,
                " (last step < half the ramp)",
            ),
        ],
    ];
    table(&VERDICT, &rows)
}

fn fig5c(g: &Grid, v: &mut Verdicts) -> String {
    let r = g.at("vc64", 0.10);
    let total = r.total_power_w;
    let datapath = r.buffer_w + r.crossbar_w;
    let rows = vec![
        vec![
            "input buffers + crossbar".into(),
            "> 85%".into(),
            format!(
                "{} ({} + {})",
                share(datapath, total),
                share(r.buffer_w, total),
                share(r.crossbar_w, total)
            ),
            v.mark("fig5c.datapath-share", datapath / total > 0.85, &[r], ""),
        ],
        vec![
            "arbiters".into(),
            "< 1% (\"invisible\")".into(),
            format!("{:.2}%", 100.0 * r.arbiter_w / total),
            v.mark("fig5c.arbiter-share", r.arbiter_w / total < 0.01, &[r], ""),
        ],
        vec![
            "links".into(),
            "< 15%".into(),
            share(r.link_w, total),
            v.mark("fig5c.link-share", r.link_w / total < 0.15, &[r], ""),
        ],
    ];
    table(&["component", "paper", "measured", "verdict"], &rows)
}

// ---- Figure 6 -----------------------------------------------------------

/// `power[y][x]` of a committed `simulate --observe-dir` power map.
fn power_map(dir: &str) -> Vec<Vec<f64>> {
    let text = read(&format!("docs/results/{dir}/powermap.jsonl"));
    let mut map = vec![vec![f64::NAN; 4]; 4];
    for line in text.lines() {
        let obj = parse_flat_object(line).unwrap_or_else(|| panic!("{dir}: {line}"));
        let num = |k: &str| obj.get(k).and_then(JsonVal::as_f64).unwrap();
        map[num("y") as usize][num("x") as usize] = num("power_w");
    }
    assert!(
        map.iter().flatten().all(|w| w.is_finite()),
        "{dir}: not 4x4"
    );
    map
}

/// The map as a table, y = 0 on top like `powermap` prints it.
fn map_table(map: &[Vec<f64>]) -> String {
    let rows: Vec<Vec<String>> = map
        .iter()
        .enumerate()
        .map(|(y, row)| {
            let mut cells = vec![format!("y={y}")];
            cells.extend(row.iter().map(|w| format!("{w:.4}")));
            cells
        })
        .collect();
    table(&["W", "x=0", "x=1", "x=2", "x=3"], &rows)
}

fn spread(values: impl Iterator<Item = f64> + Clone) -> f64 {
    let max = values.clone().fold(f64::MIN, f64::max);
    let min = values.fold(f64::MAX, f64::min);
    max / min
}

fn fig6a(v: &mut Verdicts) -> String {
    let map = power_map("fig6a");
    let s = spread(map.iter().flatten().copied());
    format!(
        "{}\nmax/min spread **{s:.3}**: {} (\"almost identical\", read as a spread ≤ 1.10)\n",
        map_table(&map),
        v.mark("fig6a.uniform-map-flat", s <= 1.10, &[], "")
    )
}

fn fig6b(v: &mut Verdicts) -> String {
    let map = power_map("fig6b");
    let at = |x: usize, y: usize| map[y][x];
    let max = map.iter().flatten().copied().fold(f64::MIN, f64::max);
    // Mean node power by torus hop distance from the source (1,2).
    let ring = |a: usize, b: usize| a.abs_diff(b).min(4 - a.abs_diff(b));
    let mut by_hops = vec![vec![]; 5];
    for (y, row) in map.iter().enumerate() {
        for (x, w) in row.iter().enumerate() {
            by_hops[ring(x, 1) + ring(y, 2)].push(*w);
        }
    }
    let means: Vec<f64> = by_hops[1..]
        .iter()
        .map(|v| v.iter().sum::<f64>() / v.len() as f64)
        .collect();
    let decays = means.windows(2).all(|w| w[0] > w[1]);
    let columns = [0, 2, 3].map(|x| spread((0..4).map(move |y| at(x, y))));
    let worst = columns.iter().copied().fold(f64::MIN, f64::max);
    let rows = vec![
        vec![
            "source consumes the most power".into(),
            format!("(1,2) = {:.4} W, map maximum {max:.4} W", at(1, 2)),
            v.mark("fig6b.source-hottest", at(1, 2) == max, &[], ""),
        ],
        vec![
            "power decays quickly with distance from the source".into(),
            format!(
                "mean by hop distance 1/2/3/4: {}",
                means
                    .iter()
                    .map(|w| format!("{w:.4}"))
                    .collect::<Vec<_>>()
                    .join(" / ")
            ),
            v.mark("fig6b.decays-with-distance", decays, &[], ""),
        ],
        vec![
            "y-first routing: (1,1), (1,3) above (0,2), (2,2)".into(),
            format!(
                "{:.4} / {:.4} vs {:.4} / {:.4} W",
                at(1, 1),
                at(1, 3),
                at(0, 2),
                at(2, 2)
            ),
            v.mark(
                "fig6b.y-first-routing",
                at(1, 1).min(at(1, 3)) > at(0, 2).max(at(2, 2)),
                &[],
                "",
            ),
        ],
        vec![
            "nodes sharing an x (off the source column) consume alike".into(),
            format!(
                "max/min within x=0, 2, 3: {}",
                columns.map(|s| format!("{s:.3}")).join(", ")
            ),
            v.mark("fig6b.columns-alike", worst <= 1.10, &[], " (each ≤ 1.10)"),
        ],
    ];
    format!(
        "{}\n{}",
        map_table(&map),
        table(&["claim (paper)", "measured", "verdict"], &rows)
    )
}

// ---- Figure 7 -----------------------------------------------------------

fn fig7_tables(uniform: &Grid, broadcast: &Grid) -> String {
    let header = ["rate", "XB cycles", "CB cycles", "XB W", "CB W"];
    let rows = |g: &Grid| {
        let cols = [g.preset("xb"), g.preset("cb")];
        rate_rows(&g.spec.rates, &cols, &[latency, power])
    };
    let (uniform_rows, broadcast_rows) = (rows(uniform), rows(broadcast));
    let (u, b) = (uniform.at("xb", 0.09), uniform.at("cb", 0.09));
    let parts = [
        ("input buffers", u.buffer_w, b.buffer_w),
        ("central buffer", u.central_w, b.central_w),
        ("crossbar", u.crossbar_w, b.crossbar_w),
        ("arbiters", u.arbiter_w, b.arbiter_w),
        ("links", u.link_w, b.link_w),
    ];
    let breakdown: Vec<Vec<String>> = parts
        .iter()
        .map(|(name, x, c)| {
            vec![
                name.to_string(),
                format!("{x:.3}"),
                share(*x, u.total_power_w),
                format!("{c:.3}"),
                share(*c, b.total_power_w),
            ]
        })
        .collect();
    format!(
        "7(a)/(b), uniform random (`fig7`):\n\n{}\n7(d)/(e), broadcast from (1,2) at the source rate (`fig7_broadcast`):\n\n{}\n7(c)/(f), node power breakdown at 0.09, uniform random (`fig7` xb, cb @ 0.09):\n\n{}",
        table(&header, &uniform_rows),
        table(&header, &broadcast_rows),
        table(&["component", "XB W", "XB share", "CB W", "CB share"], &breakdown),
    )
}

fn fig7(uniform: &Grid, broadcast: &Grid, v: &mut Verdicts) -> String {
    let area = |cfg: orion_core::NetworkConfig| cfg.router_area().unwrap().total();
    let (a_xb, a_cb) = (
        area(presets::xb_chip_to_chip()),
        area(presets::cb_chip_to_chip()),
    );
    let area_ratio = a_xb.0 / a_cb.0;
    let (xb, cb) = (uniform.preset("xb"), uniform.preset("cb"));
    let (bxb, bcb) = (broadcast.preset("xb"), broadcast.preset("cb"));
    let rates = &uniform.spec.rates;
    let cb_above: Vec<bool> = (0..rates.len())
        .map(|i| cb[i].total_power_w > xb[i].total_power_w)
        .collect();
    let first_below = cb_above.iter().position(|above| !above);
    let xb_knee = knee(&xb);
    let cb_more_to_knee = (0..rates.len())
        .filter(|&i| Some(rates[i]) <= xb_knee)
        .all(|i| cb_above[i]);
    let bc_above = (0..bcb.len())
        .filter(|&i| bcb[i].total_power_w > bxb[i].total_power_w)
        .count();
    let (x9, c9) = (uniform.at("xb", 0.09), uniform.at("cb", 0.09));
    let link_share = x9.link_w / x9.total_power_w;
    let links: Vec<f64> = uniform
        .records
        .iter()
        .chain(&broadcast.records)
        .map(|r| r.link_w)
        .collect();
    let flat_links = links.iter().all(|w| *w == links[0]);
    let (b2x, b2c) = (broadcast.at("xb", 0.2), broadcast.at("cb", 0.2));
    let uniform_cells: Vec<&CellRecord> = uniform.records.iter().collect();
    let broadcast_cells: Vec<&CellRecord> = broadcast.records.iter().collect();
    let every = [uniform_cells.as_slice(), broadcast_cells.as_slice()].concat();
    let rows = vec![
        vec![
            "matched area (§4.4): roughly the same".into(),
            format!(
                "XB {:.1} mm² vs CB {:.1} mm² (ratio {area_ratio:.2})",
                a_xb.as_mm2(),
                a_cb.as_mm2()
            ),
            "`presets::{xb,cb}_chip_to_chip` router area".into(),
            v.mark(
                "fig7.matched-area",
                (0.75..=1.33).contains(&area_ratio),
                &[],
                " (ratio within 0.75–1.33)",
            ),
        ],
        vec![
            "7(a): CB saturates below XB (2 fabric ports vs 5)".into(),
            format!(
                "last unsaturated rate XB {}, CB {}",
                knee_text(&xb),
                knee_text(&cb)
            ),
            "`fig7` every cell".into(),
            v.mark(
                "fig7.cb-saturates-below-xb",
                knee(&cb) < xb_knee,
                &uniform_cells,
                "",
            ),
        ],
        vec![
            "7(b): CB consumes more".into(),
            match first_below {
                None => "CB above XB at every rate".into(),
                Some(i) => format!(
                    "CB above XB through {:.2}; XB above from {:.2} ({} vs {} W)",
                    rates[i - 1],
                    rates[i],
                    power(xb[i]),
                    power(cb[i])
                ),
            },
            "`fig7` every cell".into(),
            v.mark(
                "fig7.cb-consumes-more",
                cb_more_to_knee,
                &uniform_cells,
                &format!(" up to XB's knee ({})", knee_text(&xb)),
            ),
        ],
        vec![
            "7(d): CB performs better under broadcast (no head-of-line blocking)".into(),
            format!(
                "last unsaturated source rate XB {}, CB {}; at 0.2 XB {} vs CB {} cycles",
                knee_text(&bxb),
                knee_text(&bcb),
                latency(b2x),
                latency(b2c)
            ),
            "`fig7_broadcast` every cell".into(),
            v.mark(
                "fig7.cb-better-under-broadcast",
                knee(&bcb) > knee(&bxb),
                &broadcast_cells,
                "",
            ),
        ],
        vec![
            "7(e): CB consumes more under broadcast".into(),
            format!("CB above XB at {bc_above} of {} source rates", bcb.len()),
            "`fig7_broadcast` every cell".into(),
            v.mark(
                "fig7.cb-more-under-broadcast",
                bc_above == bcb.len(),
                &broadcast_cells,
                "",
            ),
        ],
        vec![
            "7(c): chip-to-chip links > 70% of XB node power".into(),
            share(x9.link_w, x9.total_power_w),
            "`fig7` xb @ 0.09".into(),
            v.mark("fig7.links-over-70pct", link_share > 0.70, &[x9], ""),
        ],
        vec![
            "7(c): XB's dominant router component is the input buffers".into(),
            format!(
                "buffers {:.3} W vs crossbar {:.3} W, arbiters {:.3} W",
                x9.buffer_w, x9.crossbar_w, x9.arbiter_w
            ),
            "`fig7` xb @ 0.09".into(),
            v.mark(
                "fig7.xb-buffers-dominate",
                x9.buffer_w > x9.crossbar_w.max(x9.arbiter_w),
                &[x9],
                "",
            ),
        ],
        vec![
            "7(f): CB's dominant router component is the central buffer".into(),
            format!(
                "central buffer {:.3} W vs input buffers {:.3} W, crossbar and arbiters {:.3} W",
                c9.central_w,
                c9.buffer_w,
                c9.crossbar_w + c9.arbiter_w
            ),
            "`fig7` cb @ 0.09".into(),
            v.mark(
                "fig7.cb-central-dominates",
                c9.central_w > c9.buffer_w.max(c9.crossbar_w + c9.arbiter_w),
                &[c9],
                "",
            ),
        ],
        vec![
            "links are traffic-insensitive".into(),
            format!(
                "link power {:.3} W in all {} records",
                links[0],
                links.len()
            ),
            "every `fig7` and `fig7_broadcast` cell".into(),
            v.mark("fig7.links-traffic-insensitive", flat_links, &every, ""),
        ],
    ];
    table(&VERDICT, &rows)
}

// ---- §4.1 simulation speed ----------------------------------------------

/// The newest row of `BENCH_e2e.json`.
fn speed() -> String {
    let history = read("BENCH_e2e.json");
    let newest = history
        .trim()
        .trim_end_matches(']')
        .rsplit_once('{')
        .map(|(_, row)| format!("{{{}", row.trim_end()))
        .unwrap();
    let row = parse_flat_object(&newest).expect("a flat history row");
    let num = |k: &str| row.get(k).and_then(JsonVal::as_f64).unwrap();
    let text = |k: &str| row.get(k).and_then(JsonVal::as_str).unwrap().to_string();
    let cycles = num("fig5_sweep/sim_cycles_per_s");
    format!(
        "Row `{}` of `BENCH_e2e.json` ({}, {} vCPU, release build): `fig5_sweep` \
         simulates **{:.0} k cycles/s** over the whole Fig. 5 grid, about {:.0}× the \
         paper's ~10³, at {:.0} ns per flit-hop (`sim.step_ns_per_hop.fig5`).\n",
        &text("commit")[..7],
        text("date"),
        num("nproc"),
        cycles / 1e3,
        cycles / 1e3,
        num("fig5_sweep/sim.step_ns_per_hop.fig5"),
    )
}

// ---- Beyond the paper ---------------------------------------------------

fn scaling(g: &Grid) -> String {
    let rows: Vec<Vec<String>> = g
        .spec
        .presets
        .iter()
        .map(|preset| {
            let r = g.at(preset, g.spec.rates[0]);
            let nodes = orion_exp::spec::preset_config(preset)
                .unwrap()
                .topology
                .num_nodes();
            let k = (nodes as f64).sqrt() as usize;
            vec![
                format!("{k}x{k}"),
                format!("{:.2}", r.zero_load_latency),
                latency(r),
                power(r),
                format!("{:.4}", r.total_power_w / nodes as f64),
            ]
        })
        .collect();
    table(
        &[
            "torus",
            "zero-load (cycles)",
            "latency (cycles)",
            "power (W)",
            "W/node",
        ],
        &rows,
    )
}

fn flow_control(g: &Grid) -> String {
    let flows = ["flit-level", "cut-through", "bubble"];
    let cols: Vec<Vec<&CellRecord>> = flows
        .iter()
        .map(|f| g.column(|r| r.flow_control == *f))
        .collect();
    let mut labels = vec!["rate".to_string()];
    labels.extend(flows.map(|f| format!("{f} cycles")));
    labels.extend(flows.map(|f| format!("{f} W")));
    format!(
        "{}\n{}",
        table(&labels, &rate_rows(&g.spec.rates, &cols, &[latency, power])),
        stall_counts(g, &flows, |r| &r.flow_control)
    )
}

/// `Cells ending in deadlock or livelock: a N, b N, ...` over the
/// values `axis` takes.
fn stall_counts(g: &Grid, values: &[&str], axis: fn(&CellRecord) -> &String) -> String {
    let counts: Vec<String> = values
        .iter()
        .map(|v| {
            let n = g.column(|r| axis(r) == v && stalled(r)).len();
            format!("{v} {n}")
        })
        .collect();
    format!(
        "Cells ending in deadlock or livelock: {}.\n",
        counts.join(", ")
    )
}

fn discipline(g: &Grid) -> String {
    let disciplines = ["unrestricted", "dateline", "escape"];
    let mut labels = vec!["rate".to_string()];
    let mut cols = vec![];
    for preset in &g.spec.presets {
        for d in disciplines {
            labels.push(format!("{preset} {d}"));
            cols.push(g.column(|r| r.preset == *preset && r.vc_discipline == d));
        }
    }
    format!(
        "{}\n{}",
        table(&labels, &rate_rows(&g.spec.rates, &cols, &[latency])),
        stall_counts(g, &disciplines, |r| &r.vc_discipline)
    )
}

// ---- §3.2 validation ----------------------------------------------------

/// Dynamic and leakage power of an input-buffered crossbar router with
/// `utilization` flits per port per cycle.
fn xb_router_power(
    ports: u32,
    buf_flits: u32,
    flit_bits: u32,
    tech: Technology,
    f_clk: Hertz,
    utilization: f64,
) -> (Watts, Watts) {
    let buffer = BufferPower::new(
        &BufferParams::new(buf_flits, flit_bits).with_decoder(),
        tech,
    )
    .unwrap();
    let xbar = CrossbarPower::new(
        &CrossbarParams::new(CrossbarKind::Matrix, ports, ports, flit_bits),
        tech,
    )
    .unwrap();
    let arb = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, ports), tech)
        .unwrap()
        .with_control_energy(xbar.control_energy());
    let per_flit = buffer.write_energy(&WriteActivity::uniform_random(flit_bits))
        + buffer.read_energy()
        + arb.arbitration_energy((1 << ports) - 1, 0, ports)
        + xbar.traversal_energy_uniform();
    let e_cycle = Joules(per_flit.0 * utilization * ports as f64);
    let leakage = ports as f64 * buffer.leakage_power().0
        + xbar.leakage_power().0
        + ports as f64 * arb.leakage_power().0;
    (average_power(e_cycle, f_clk, 1), Watts(leakage))
}

/// The paper's §3.2 method on approximate public microarchitectures:
/// the Alpha 21364 router (8 ports, 128×72-bit buffers, 1.2 GHz,
/// 0.18 µm, 0.25 flits/port/cycle, four ~2.5 W links) and an IBM
/// InfiniBand 8-port 12X switch (central buffer of 4×2560 32-bit rows,
/// 64-flit input buffers, 250 MHz, 0.13 µm, 0.5 flits/port/cycle,
/// eight 3 W links).
fn validation(v: &mut Verdicts) -> String {
    let (a_dyn, a_leak) = xb_router_power(
        8,
        128,
        72,
        Technology::new(ProcessNode::Um180),
        Hertz::from_ghz(1.2),
        0.25,
    );
    let a_links = Watts(4.0 * 2.5);
    let a_total = a_dyn + a_leak + a_links;

    let tech = Technology::new(ProcessNode::Um130);
    let cb = CentralBufferPower::new(&CentralBufferParams::new(4, 2560, 32), tech).unwrap();
    let input = BufferPower::new(&BufferParams::new(64, 32), tech).unwrap();
    let per_flit = cb.write_energy_uniform()
        + cb.read_energy_uniform()
        + input.read_energy()
        + input.write_energy_uniform();
    let i_dyn = average_power(Joules(per_flit.0 * 0.5 * 8.0), Hertz(250.0e6), 1);
    let i_leak = Watts(cb.leakage_power().0 + 8.0 * input.leakage_power().0);
    let i_links = Watts(8.0 * 3.0);
    let i_total = i_dyn + i_leak + i_links;

    let alpha_ratio = a_total.0 / 25.0;
    let link_share = i_links.0 / i_total.0;
    let mut verdict = |id, ok: bool, tolerance: &str| {
        let detail = if ok { "" } else { " deviation" };
        format!("{} ({tolerance})", v.mark(id, ok, &[], detail))
    };
    let w = |x: Watts| format!("{:.2}", x.0);
    let rows = vec![
        vec!["router dynamic (W)".into(), w(a_dyn), w(i_dyn)],
        vec!["router leakage (W)".into(), w(a_leak), w(i_leak)],
        vec![
            "links (W)".into(),
            format!("{} (4 × 2.5)", w(a_links)),
            format!("{} (8 × 3)", w(i_links)),
        ],
        vec!["total (W)".into(), w(a_total), w(i_total)],
        vec![
            "paper's reference".into(),
            "~25 W router + links".into(),
            "links : router ≈ 60 : 40".into(),
        ],
        vec![
            "measured vs reference".into(),
            format!("{alpha_ratio:.2}× the total"),
            format!("link share {:.0}% vs 60%", 100.0 * link_share),
        ],
        vec![
            "verdict".into(),
            verdict(
                "validation.alpha21364",
                (0.5..=2.0).contains(&alpha_ratio),
                "tolerance 0.5×–2×",
            ),
            verdict(
                "validation.infiniband",
                (link_share - 0.60).abs() <= 0.10,
                "tolerance ±10 pp",
            ),
        ],
    ];
    table(
        &[
            "estimate",
            "Alpha 21364 router",
            "InfiniBand 8-port 12X switch",
        ],
        &rows,
    )
}
