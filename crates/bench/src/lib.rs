//! Shared helpers for the figure-regeneration binaries.
//!
//! Each binary under `src/bin/` regenerates one of the paper's result
//! figures (see DESIGN.md's experiment index) and prints the same
//! series the paper plots, as aligned text tables. Pass `--quick` to
//! any binary for a reduced sample size (fast smoke runs); the default
//! is the paper's measurement discipline (§4.1: 1000 warm-up cycles,
//! 10 000-packet sample).

use orion_exp::{run_spec, CellRecord, EngineOptions, ExperimentSpec, MeasureSpec};

/// Measurement effort selected on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effort {
    /// The paper's full measurement parameters.
    Full,
    /// Reduced sample for smoke runs (`--quick`).
    Quick,
}

impl Effort {
    /// Parses process arguments: `--quick` selects [`Effort::Quick`].
    pub fn from_args() -> Effort {
        if std::env::args().any(|a| a == "--quick") {
            Effort::Quick
        } else {
            Effort::Full
        }
    }

    /// Applies this effort's measurement discipline to an experiment
    /// spec. Full keeps the spec's own numbers (the spec files under
    /// `examples/specs/` carry the paper's §4.1 discipline); Quick
    /// shrinks the sample for smoke runs.
    pub fn apply_to_spec(self, spec: &mut ExperimentSpec) {
        if self == Effort::Quick {
            let o = self.options();
            spec.measure.warmup = o.warmup;
            spec.measure.sample_packets = o.sample_packets;
            spec.measure.max_cycles = o.max_cycles;
        }
    }

    /// The measurement discipline for this effort level: the paper's
    /// §4.1 numbers, or a reduced sample for smoke runs.
    pub fn options(self) -> MeasureSpec {
        match self {
            Effort::Full => MeasureSpec::default(),
            Effort::Quick => MeasureSpec {
                warmup: 300,
                sample_packets: 1_000,
                max_cycles: 60_000,
                ..MeasureSpec::default()
            },
        }
    }
}

/// Parses an embedded spec, applies this process's [`Effort`] and runs
/// the grid through the `orion-exp` engine on every core, without a
/// cache. Records come back sorted by cell key.
pub fn run_embedded(text: &str) -> (ExperimentSpec, Vec<CellRecord>) {
    let mut spec = ExperimentSpec::parse(text).expect("embedded spec is valid");
    Effort::from_args().apply_to_spec(&mut spec);
    let opts = EngineOptions {
        threads: std::thread::available_parallelism().map_or(1, |n| n.get()),
        cache_dir: None,
        progress: true,
        ..EngineOptions::default()
    };
    let (records, _) = run_spec(&spec, &opts).expect("cacheless runs do no I/O");
    (spec, records)
}

/// Prints a table of rows with a header, aligning every column to the
/// width of its widest cell.
pub fn print_table(title: &str, header: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let cols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), cols, "row width mismatch");
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let line = |cells: Vec<String>| {
        let parts: Vec<String> = cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(header.iter().map(|s| s.to_string()).collect());
    for row in rows {
        line(row.clone());
    }
}

/// Formats a latency for a table cell; saturated points are marked `*`
/// (the paper's curves shoot off the chart there) and deadlocked points
/// `!` (dimension-ordered routing on a torus without dateline VCs is
/// not deadlock-free — see DESIGN.md).
pub fn fmt_latency(avg: f64, saturated: bool) -> String {
    if avg.is_nan() {
        return "-".to_string();
    }
    if saturated {
        format!("{avg:.1}*")
    } else {
        format!("{avg:.1}")
    }
}

/// Formats an experiment cell record's latency cell: `*` marks
/// saturation, `!` marks a deadlocked/livelocked run, `-` a cell with
/// no measured latency (a failed cell, or a run stopped before any
/// tagged packet arrived).
pub fn fmt_record_latency(r: &CellRecord) -> String {
    let mut s = fmt_latency(r.avg_latency, r.saturated);
    if matches!(r.outcome.as_str(), "deadlocked" | "livelocked") {
        s.push('!');
    }
    s
}

/// Formats an experiment cell record's total-power cell, marking
/// deadlock/livelock (`!`).
pub fn fmt_record_power(r: &CellRecord) -> String {
    let mut s = format!("{:.3}", r.total_power_w);
    if matches!(r.outcome.as_str(), "deadlocked" | "livelocked") {
        s.push('!');
    }
    s
}

/// Builds one table row per rate — `[rate, col0-cell, col1-cell, ...]`
/// — from per-series columns indexed the same way as `rates`. This is
/// the row-assembly loop every sweep binary used to hand-roll.
pub fn rate_rows<T>(
    rates: &[f64],
    columns: &[Vec<T>],
    cell: impl Fn(&T) -> String,
) -> Vec<Vec<String>> {
    rates
        .iter()
        .enumerate()
        .map(|(i, rate)| {
            let mut row = vec![format!("{rate:.2}")];
            row.extend(columns.iter().map(|col| cell(&col[i])));
            row
        })
        .collect()
}

/// Splits engine-sorted experiment records into per-series columns,
/// one per entry of `keys` in order. Each column keeps the engine's
/// record order, which for a single-traffic grid is ascending rate —
/// exactly what [`rate_rows`] expects.
pub fn record_columns<'a>(
    records: &'a [CellRecord],
    keys: &[&str],
    key: impl Fn(&CellRecord) -> &str,
) -> Vec<Vec<&'a CellRecord>> {
    keys.iter()
        .map(|k| records.iter().filter(|r| key(r) == *k).collect())
        .collect()
}

/// The largest swept rate a record series survives without saturating:
/// latency within twice zero-load (§4.1).
pub fn record_saturation_rate(column: &[&CellRecord]) -> Option<f64> {
    column
        .iter()
        .filter(|r| !r.saturated && !r.is_error())
        .map(|r| r.rate)
        .fold(None, |acc, r| Some(acc.map_or(r, |a: f64| a.max(r))))
}

/// Prints the per-series saturation summary lines shown under a sweep
/// table.
pub fn print_saturation_summary(series: &[(&str, Option<f64>)]) {
    for (name, sat) in series {
        match sat {
            Some(r) => println!("  {name}: saturation throughput ~ {r:.2} pkt/cycle/node"),
            None => println!("  {name}: saturated at every swept rate"),
        }
    }
}

/// Renders a per-node power map as the 4×4 grid of Figure 6, labelled
/// in the paper's (x, y) Cartesian tuples.
pub fn print_power_map(title: &str, map: &[orion_tech::Watts], kx: usize, ky: usize) {
    assert_eq!(map.len(), kx * ky, "map size mismatch");
    println!("\n== {title} ==");
    println!(
        "  node power in W; rows are y (top = y={}), columns x",
        ky - 1
    );
    for y in (0..ky).rev() {
        let cells: Vec<String> = (0..kx)
            .map(|x| format!("{:>8.4}", map[y * kx + x].0))
            .collect();
        println!("  y={y} |{}", cells.join(" "));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_options_differ() {
        assert!(Effort::Full.options().sample_packets > Effort::Quick.options().sample_packets);
    }

    #[test]
    fn latency_formatting() {
        assert_eq!(fmt_latency(f64::NAN, false), "-");
        assert_eq!(fmt_latency(12.34, false), "12.3");
        assert_eq!(fmt_latency(99.96, true), "100.0*");
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_rejects_ragged_rows() {
        print_table("t", &["a", "b"], &[vec!["1".into()]]);
    }

    #[test]
    #[should_panic(expected = "map size mismatch")]
    fn map_rejects_wrong_size() {
        print_power_map("t", &[orion_tech::Watts(1.0)], 4, 4);
    }

    #[test]
    fn quick_effort_rewrites_spec_measure() {
        let mut spec = ExperimentSpec::parse(
            "[experiment]\nname = \"t\"\n[grid]\npresets = [\"wh64\"]\nrates = [0.02]\n",
        )
        .unwrap();
        Effort::Full.apply_to_spec(&mut spec);
        assert_eq!(spec.measure.sample_packets, 10_000);
        Effort::Quick.apply_to_spec(&mut spec);
        assert_eq!(spec.measure.sample_packets, 1_000);
        assert_eq!(spec.measure.warmup, 300);
    }

    fn fake_records() -> Vec<CellRecord> {
        let spec = ExperimentSpec::parse(
            "[experiment]\nname = \"t\"\n[grid]\npresets = [\"wh64\", \"vc16\"]\nrates = [0.02, 0.04]\n",
        )
        .unwrap();
        spec.expand()
            .iter()
            .map(|c| CellRecord::from_error(c, "unit-test stub"))
            .collect()
    }

    #[test]
    fn record_columns_split_by_key_in_rate_order() {
        let records = fake_records();
        let cols = record_columns(&records, &["wh64", "vc16"], |r| &r.preset);
        assert_eq!(cols.len(), 2);
        for col in &cols {
            assert_eq!(col.iter().map(|r| r.rate).collect::<Vec<_>>(), [0.02, 0.04]);
        }
        assert!(cols[0].iter().all(|r| r.preset == "wh64"));
    }

    #[test]
    fn rate_rows_lead_with_rate_and_follow_columns() {
        let records = fake_records();
        let cols = record_columns(&records, &["wh64", "vc16"], |r| &r.preset);
        let rows = rate_rows(&[0.02, 0.04], &cols, |r| fmt_record_latency(r));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0], vec!["0.02", "-", "-"]); // error cells render "-"
    }

    #[test]
    fn record_saturation_rate_skips_saturated_and_failed() {
        let mut records = fake_records();
        for r in &mut records {
            r.outcome = "completed".into();
            r.error = None;
            r.avg_latency = 10.0;
        }
        records[1].saturated = true; // wh64 @ 0.04 saturates
        let cols = record_columns(&records, &["wh64", "vc16"], |r| &r.preset);
        assert_eq!(record_saturation_rate(&cols[0]), Some(0.02));
        assert_eq!(record_saturation_rate(&cols[1]), Some(0.04));
        assert_eq!(record_saturation_rate(&[]), None);
    }

    #[test]
    fn record_cells_carry_markers() {
        let mut records = fake_records();
        records[0].outcome = "deadlocked".into();
        records[0].avg_latency = 55.0;
        records[0].saturated = true;
        records[0].total_power_w = 9.5;
        assert_eq!(fmt_record_latency(&records[0]), "55.0*!");
        assert_eq!(fmt_record_power(&records[0]), "9.500!");
    }
}
