//! Statistics digests: the output check of every workload.
//!
//! A pass is correct when its digest equals the first pass's (the
//! determinism contract) and, at `--seed 1`, the golden digest recorded
//! for the current model version. Golden files are keyed by
//! `MODEL_VERSION`, so a change that legitimately alters the model bumps
//! the version and falls back to the determinism check, while a
//! speed-only change that perturbs a statistic fails.

use std::path::PathBuf;

use orion_ckpt::{fnv1a64, from_hex, to_hex};
use orion_core::Report;
use orion_exp::fingerprint::MODEL_VERSION;
use orion_exp::{artifact, CellRecord};
use orion_sim::Component;

/// The seed at which golden digests are recorded and compared.
pub const GOLDEN_SEED: u64 = 1;

/// Digest of a record set, insensitive to the order records arrive in.
pub fn records_digest(records: &[CellRecord]) -> u64 {
    let mut sorted = records.to_vec();
    sorted.sort_by(|a, b| a.cell.cmp(&b.cell));
    fnv1a64(artifact::to_jsonl(&sorted).as_bytes())
}

/// Digest of already-serialised rows, insensitive to their order.
pub fn lines_digest(lines: &[String]) -> u64 {
    let mut sorted: Vec<&str> = lines.iter().map(String::as_str).collect();
    sorted.sort_unstable();
    fnv1a64(sorted.join("\n").as_bytes())
}

/// Digest of a single-cell run: outcome, counters, latency samples and
/// every node's per-component energy, bit for bit.
pub fn report_digest(report: &Report) -> u64 {
    let stats = report.stats();
    let mut bytes = Vec::new();
    bytes.extend_from_slice(report.outcome().label().as_bytes());
    for v in [
        report.measured_cycles(),
        stats.packets_injected,
        stats.packets_delivered,
        stats.flits_delivered,
        stats.tagged_delivered,
        stats.packets_dropped,
    ] {
        bytes.extend_from_slice(&v.to_le_bytes());
    }
    for latency in stats.latencies() {
        bytes.extend_from_slice(&latency.to_le_bytes());
    }
    for node in 0..report.num_nodes() {
        for component in Component::ALL {
            let joules = report.node_component_energy(node, component).0;
            bytes.extend_from_slice(&joules.to_bits().to_le_bytes());
        }
    }
    fnv1a64(&bytes)
}

/// Result of comparing a digest with its golden file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Golden {
    /// Not `--seed 1`: only determinism is checked.
    OtherSeed,
    /// No file for this model version: only determinism is checked.
    Absent,
    Match,
    Mismatch {
        expected: String,
    },
    Recorded,
}

impl Golden {
    pub fn failed(&self) -> bool {
        matches!(self, Golden::Mismatch { .. })
    }

    pub fn label(&self) -> String {
        match self {
            Golden::OtherSeed => "not-compared(seed)".into(),
            Golden::Absent => "absent".into(),
            Golden::Match => "match".into(),
            Golden::Mismatch { expected } => format!("MISMATCH(expected {expected})"),
            Golden::Recorded => "recorded".into(),
        }
    }
}

pub fn golden_path(workload: &str) -> PathBuf {
    crate::host::bench_dir()
        .join("golden")
        .join(format!("{workload}.v{MODEL_VERSION}.digest"))
}

/// Compares `digest` with the golden file, or writes it when `record`.
pub fn check_golden(workload: &str, seed: u64, digest: u64, record: bool) -> Golden {
    if seed != GOLDEN_SEED {
        return Golden::OtherSeed;
    }
    let path = golden_path(workload);
    if record {
        let dir = path.parent().expect("golden path has a parent");
        std::fs::create_dir_all(dir).expect("golden directory is writable");
        std::fs::write(&path, format!("{}\n", to_hex(digest))).expect("golden file is writable");
        return Golden::Recorded;
    }
    match std::fs::read_to_string(&path) {
        Err(_) => Golden::Absent,
        Ok(text) if from_hex(text.trim()) == Some(digest) => Golden::Match,
        Ok(text) => Golden::Mismatch {
            expected: text.trim().to_string(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_exp::{run_cell, ExperimentSpec};

    #[test]
    fn record_digest_ignores_arrival_order() {
        let spec = ExperimentSpec::parse(
            "[experiment]\nname = \"d\"\n[measure]\nwarmup = 50\nsample_packets = 40\n\
             [grid]\npresets = [\"vc16\", \"wh64\"]\nrates = [0.02, 0.05]\n",
        )
        .expect("valid spec");
        let mut records: Vec<CellRecord> = spec.expand().iter().map(run_cell).collect();
        let forward = records_digest(&records);
        records.reverse();
        assert_eq!(records_digest(&records), forward);
        records[0].flits_delivered += 1;
        assert_ne!(records_digest(&records), forward, "a statistic moved");
    }

    #[test]
    fn line_digest_ignores_order_but_not_content() {
        let a = vec!["x".to_string(), "y".to_string()];
        let b = vec!["y".to_string(), "x".to_string()];
        assert_eq!(lines_digest(&a), lines_digest(&b));
        assert_ne!(lines_digest(&a), lines_digest(&["x".to_string()]));
    }
}
