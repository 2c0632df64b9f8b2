//! Versioned exploration artifacts: frontier and dominated-point files
//! as JSONL and CSV.
//!
//! Four files per run — `<name>.frontier.jsonl`, `<name>.frontier.csv`,
//! `<name>.dominated.jsonl`, `<name>.dominated.csv` — written
//! atomically (temp + fsync + rename, via
//! [`orion_exp::artifact::write_atomic`]) with a fixed field order,
//! fixed row order and shortest-roundtrip float formatting, so a run's
//! artifact bytes are a pure function of its results: the property the
//! CI thread-identity and resume checks `cmp` against.

use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

use orion_exp::design::DesignPoint;
use orion_exp::fingerprint;
use orion_exp::spec::TrafficKind;
use orion_exp::write_atomic;
use orion_exp::CellRecord;
use orion_obs::json::Json;

use crate::spec::ExploreSpec;

/// Version of the exploration row layout (JSONL fields and CSV
/// columns). Bump on any field addition, removal or reordering.
///
/// Version history: 1 = initial layout.
pub const EXPLORE_SCHEMA_VERSION: u32 = 1;

/// One (candidate, traffic) evaluation, flattened for artifacts.
#[derive(Debug, Clone, PartialEq)]
pub struct PointRecord {
    /// Row-layout version ([`EXPLORE_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Experiment name.
    pub experiment: String,
    /// Traffic pattern name.
    pub traffic: String,
    /// Canonical candidate (design-point) name.
    pub candidate: String,
    /// The evaluated cell's key (joins against grid artifacts/cache).
    pub cell: String,
    /// The cell's cache fingerprint.
    pub fingerprint: u64,
    /// Router family token (`wh|vc|xb|cb`).
    pub family: String,
    /// Virtual channels per port.
    pub vcs: u32,
    /// Flit depth per VC.
    pub depth: u32,
    /// Total flits of buffering per input port.
    pub buffering: u32,
    /// Per-dimension radix.
    pub radix: u32,
    /// `torus` or `mesh`.
    pub topology: String,
    /// Process node label (`0.1um`, `70nm`, …).
    pub node: String,
    /// Injection rate in packets/cycle/node.
    pub rate: f64,
    /// Average packet latency in cycles (objective 1; NaN serialises
    /// as `null`).
    pub avg_latency: f64,
    /// Total network power in watts (objective 2).
    pub total_power_w: f64,
    /// Delivered flits per cycle.
    pub throughput: f64,
    /// Run outcome label (`completed`, `saturated`, `crashed`, …).
    pub outcome: String,
    /// Supervision verdict (`ok`, `retried`, `crashed`, `timed-out`).
    pub cell_outcome: String,
    /// Whether the point is on its traffic pattern's final frontier.
    pub on_frontier: bool,
    /// 1-based search round that evaluated it.
    pub round: usize,
}

impl PointRecord {
    /// Builds the row for one evaluated (candidate, traffic) pair.
    pub fn new(
        spec: &ExploreSpec,
        candidate: &str,
        design: &DesignPoint,
        traffic: TrafficKind,
        record: &CellRecord,
        on_frontier: bool,
        round: usize,
    ) -> PointRecord {
        PointRecord {
            schema_version: EXPLORE_SCHEMA_VERSION,
            experiment: spec.name.clone(),
            traffic: traffic.as_str().to_string(),
            candidate: candidate.to_string(),
            cell: record.cell.clone(),
            fingerprint: record.fingerprint,
            family: design.family.as_str().to_string(),
            vcs: design.vcs,
            depth: design.depth,
            buffering: design.buffering_per_port(),
            radix: design.radix,
            topology: if design.mesh { "mesh" } else { "torus" }.to_string(),
            node: design.node.to_string(),
            rate: record.rate,
            avg_latency: record.avg_latency,
            total_power_w: record.total_power_w,
            throughput: record.throughput,
            outcome: record.outcome.clone(),
            cell_outcome: record.cell_outcome.clone(),
            on_frontier,
            round,
        }
    }

    /// Canonical artifact row order: traffic, then the latency/power
    /// plane left-to-right (non-finite latencies last), then name.
    /// Total float comparison keeps the order well-defined for NaN.
    pub fn sort_for_artifacts(points: &mut [PointRecord]) {
        points.sort_by(|a, b| {
            a.traffic
                .cmp(&b.traffic)
                .then(
                    a.avg_latency
                        .is_finite()
                        .cmp(&b.avg_latency.is_finite())
                        .reverse(),
                )
                .then(a.avg_latency.total_cmp(&b.avg_latency))
                .then(a.total_power_w.total_cmp(&b.total_power_w))
                .then(a.candidate.cmp(&b.candidate))
        });
    }

    /// Serialises to one JSON line (no trailing newline), fixed field
    /// order, non-finite floats as `null`.
    pub fn to_json_line(&self) -> String {
        let mut s = String::with_capacity(384);
        let mut o = Json::compact(&mut s);
        o.key("schema_version").num(self.schema_version);
        o.key("experiment").str(&self.experiment);
        o.key("traffic").str(&self.traffic);
        o.key("candidate").str(&self.candidate);
        o.key("cell").str(&self.cell);
        o.key("fingerprint")
            .str(&fingerprint::to_hex(self.fingerprint));
        o.key("family").str(&self.family);
        o.key("vcs").num(self.vcs);
        o.key("depth").num(self.depth);
        o.key("buffering").num(self.buffering);
        o.key("radix").num(self.radix);
        o.key("topology").str(&self.topology);
        o.key("node").str(&self.node);
        o.key("rate").f64(self.rate);
        o.key("avg_latency").f64(self.avg_latency);
        o.key("total_power_w").f64(self.total_power_w);
        o.key("throughput").f64(self.throughput);
        o.key("outcome").str(&self.outcome);
        o.key("cell_outcome").str(&self.cell_outcome);
        o.key("on_frontier").bool(self.on_frontier);
        o.key("round").num(self.round);
        o.end();
        s
    }

    /// The CSV header row matching [`PointRecord::to_csv_row`].
    pub fn csv_header() -> &'static str {
        "schema_version,experiment,traffic,candidate,cell,fingerprint,family,vcs,depth,\
         buffering,radix,topology,node,rate,avg_latency,total_power_w,throughput,outcome,\
         cell_outcome,on_frontier,round"
    }

    /// Serialises to one CSV row (no trailing newline); non-finite
    /// floats render as empty fields.
    pub fn to_csv_row(&self) -> String {
        let f = |v: f64| {
            if v.is_finite() {
                format!("{v}")
            } else {
                String::new()
            }
        };
        let mut s = String::with_capacity(256);
        let _ = write!(
            s,
            "{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.schema_version,
            self.experiment,
            self.traffic,
            self.candidate,
            self.cell,
            fingerprint::to_hex(self.fingerprint),
            self.family,
            self.vcs,
            self.depth,
            self.buffering,
            self.radix,
            self.topology,
            self.node,
            f(self.rate),
            f(self.avg_latency),
            f(self.total_power_w),
            f(self.throughput),
            self.outcome,
            self.cell_outcome,
            self.on_frontier,
            self.round,
        );
        s
    }
}

/// Paths of the four files one run writes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExploreArtifacts {
    /// Frontier rows, JSONL.
    pub frontier_jsonl: PathBuf,
    /// Frontier rows, CSV.
    pub frontier_csv: PathBuf,
    /// Dominated rows, JSONL.
    pub dominated_jsonl: PathBuf,
    /// Dominated rows, CSV.
    pub dominated_csv: PathBuf,
}

fn to_jsonl<'a>(points: impl Iterator<Item = &'a PointRecord>) -> Vec<u8> {
    orion_obs::json::lines(points, PointRecord::to_json_line).into_bytes()
}

fn to_csv<'a>(points: impl Iterator<Item = &'a PointRecord>) -> Vec<u8> {
    let mut out = String::from(PointRecord::csv_header());
    out.push('\n');
    for p in points {
        out.push_str(&p.to_csv_row());
        out.push('\n');
    }
    out.into_bytes()
}

/// Writes the four artifact files for `points` (already sorted by
/// [`PointRecord::sort_for_artifacts`]) under `dir`, creating it if
/// needed. Each file is written atomically.
///
/// # Errors
///
/// Propagates directory-creation and file-write errors.
pub fn write_explore_artifacts(
    dir: &Path,
    name: &str,
    points: &[PointRecord],
) -> io::Result<ExploreArtifacts> {
    std::fs::create_dir_all(dir)?;
    let frontier: Vec<&PointRecord> = points.iter().filter(|p| p.on_frontier).collect();
    let dominated: Vec<&PointRecord> = points.iter().filter(|p| !p.on_frontier).collect();
    let paths = ExploreArtifacts {
        frontier_jsonl: dir.join(format!("{name}.frontier.jsonl")),
        frontier_csv: dir.join(format!("{name}.frontier.csv")),
        dominated_jsonl: dir.join(format!("{name}.dominated.jsonl")),
        dominated_csv: dir.join(format!("{name}.dominated.csv")),
    };
    write_atomic(&paths.frontier_jsonl, &to_jsonl(frontier.iter().copied()))?;
    write_atomic(&paths.frontier_csv, &to_csv(frontier.iter().copied()))?;
    write_atomic(&paths.dominated_jsonl, &to_jsonl(dominated.iter().copied()))?;
    write_atomic(&paths.dominated_csv, &to_csv(dominated.iter().copied()))?;
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(on_frontier: bool, latency: f64) -> PointRecord {
        PointRecord {
            schema_version: EXPLORE_SCHEMA_VERSION,
            experiment: "t".into(),
            traffic: "uniform".into(),
            candidate: "vc64".into(),
            cell: "vc64/uniform/r0.050000/s0000000001/fc-flit-level/vd-unrestricted/pl005".into(),
            fingerprint: 0xdead_beef,
            family: "vc".into(),
            vcs: 8,
            depth: 8,
            buffering: 64,
            radix: 4,
            topology: "torus".into(),
            node: "0.1um".into(),
            rate: 0.05,
            avg_latency: latency,
            total_power_w: 1.25,
            throughput: 0.4,
            outcome: "completed".into(),
            cell_outcome: "ok".into(),
            on_frontier,
            round: 1,
        }
    }

    #[test]
    fn json_line_shape() {
        let line = sample(true, 12.5).to_json_line();
        assert!(line.starts_with("{\"schema_version\":1,"));
        assert!(line.contains("\"candidate\":\"vc64\""));
        assert!(line.contains("\"fingerprint\":\"00000000deadbeef\""));
        assert!(line.contains("\"on_frontier\":true"));
        assert!(line.ends_with('}'));
        // NaN latency -> null.
        let crashed = sample(false, f64::NAN).to_json_line();
        assert!(crashed.contains("\"avg_latency\":null"), "{crashed}");
        // Exact bytes, generated at `f3a1fbd`.
        assert_eq!(line, GOLDEN_LINE);
        assert_eq!(
            crashed,
            GOLDEN_LINE
                .replace("\"avg_latency\":12.5", "\"avg_latency\":null")
                .replace("\"on_frontier\":true", "\"on_frontier\":false")
        );
    }

    const GOLDEN_LINE: &str = r#"{"schema_version":1,"experiment":"t","traffic":"uniform","candidate":"vc64","cell":"vc64/uniform/r0.050000/s0000000001/fc-flit-level/vd-unrestricted/pl005","fingerprint":"00000000deadbeef","family":"vc","vcs":8,"depth":8,"buffering":64,"radix":4,"topology":"torus","node":"0.1um","rate":0.05,"avg_latency":12.5,"total_power_w":1.25,"throughput":0.4,"outcome":"completed","cell_outcome":"ok","on_frontier":true,"round":1}"#;
    const GOLDEN_CSV: &str = r#"1,t,uniform,vc64,vc64/uniform/r0.050000/s0000000001/fc-flit-level/vd-unrestricted/pl005,00000000deadbeef,vc,8,8,64,4,torus,0.1um,0.05,12.5,1.25,0.4,completed,ok,true,1"#;

    #[test]
    fn csv_columns_match_header() {
        let header_cols = PointRecord::csv_header().split(',').count();
        let row_cols = sample(true, 12.5).to_csv_row().split(',').count();
        assert_eq!(header_cols, row_cols);
        assert_eq!(header_cols, 21);
        assert_eq!(sample(true, 12.5).to_csv_row(), GOLDEN_CSV);
    }

    #[test]
    fn sort_is_total_with_nans_last() {
        let mut points = vec![
            sample(false, f64::NAN),
            sample(true, 20.0),
            sample(true, 10.0),
        ];
        PointRecord::sort_for_artifacts(&mut points);
        assert_eq!(points[0].avg_latency, 10.0);
        assert_eq!(points[1].avg_latency, 20.0);
        assert!(points[2].avg_latency.is_nan());
    }

    #[test]
    fn artifacts_round_trip_to_disk() {
        let dir = std::env::temp_dir().join(format!("orion-explore-art-{}", std::process::id()));
        let points = vec![sample(true, 10.0), sample(false, 20.0)];
        let paths = write_explore_artifacts(&dir, "t", &points).unwrap();
        let frontier = std::fs::read_to_string(&paths.frontier_jsonl).unwrap();
        assert_eq!(frontier.lines().count(), 1);
        let dominated = std::fs::read_to_string(&paths.dominated_csv).unwrap();
        assert_eq!(dominated.lines().count(), 2, "header + one row");
        std::fs::remove_dir_all(&dir).ok();
    }
}
