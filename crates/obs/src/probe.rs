//! The probe scheduler: periodic per-node, per-component state
//! sampling into a versioned JSONL time series.
//!
//! Every `sample_every` cycles the simulator hands the prober one
//! [`NodeState`] per node (buffer occupancy, free credits, cumulative
//! link flits, cumulative per-component energy). The prober stores the
//! cumulative values and the per-interval deltas, so a row answers both
//! "how much energy has node 5 burned so far" and "how hot was node 5
//! in the last window" — the latter is the paper's Fig. 6 per-node
//! power map sampled over time.

use crate::json::Json;

/// Schema version stamped on every probe row. Bump when the row format
/// changes incompatibly.
pub const PROBE_SCHEMA_VERSION: u32 = 1;

/// Component labels, index-aligned with `orion-sim`'s
/// `Component::ALL` order. The sim crate pins this ordering with a
/// test, so probe rows and energy ledgers always agree on which column
/// is which.
pub const COMPONENTS: [&str; 5] = ["buffer", "central_buffer", "crossbar", "arbiter", "link"];

/// One node's instantaneous state, as sampled by the simulator.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeState {
    /// Flits currently buffered in the node's router (all ports/VCs).
    pub buffered_flits: usize,
    /// Downstream flow-control credits available across the node's
    /// router outputs.
    pub free_credits: usize,
    /// Cumulative flits that traversed the node's outgoing links.
    pub link_flits: u64,
    /// Cumulative energy per component, joules, in [`COMPONENTS`] order.
    pub energy_j: [f64; 5],
}

/// One sampled row of the probe time series.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeRow {
    /// Cycle at which the sample was taken.
    pub cycle: u64,
    /// Node index.
    pub node: usize,
    /// Flits buffered at sample time.
    pub buffered_flits: usize,
    /// Free credits at sample time.
    pub free_credits: usize,
    /// Cumulative link flits at sample time.
    pub link_flits: u64,
    /// Link flits since the previous sample of this node.
    pub delta_link_flits: u64,
    /// Cumulative per-component energy, joules.
    pub energy_j: [f64; 5],
    /// Per-component energy since the previous sample, joules.
    pub delta_energy_j: [f64; 5],
}

impl ProbeRow {
    /// Total cumulative energy across components, joules.
    pub fn total_energy_j(&self) -> f64 {
        self.energy_j.iter().sum()
    }

    /// Serializes the row as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let mut row = Json::compact(&mut out);
        row.key("schema_version").num(PROBE_SCHEMA_VERSION);
        row.key("cycle").num(self.cycle);
        row.key("node").num(self.node);
        row.key("buffered_flits").num(self.buffered_flits);
        row.key("free_credits").num(self.free_credits);
        row.key("link_flits").num(self.link_flits);
        row.key("delta_link_flits").num(self.delta_link_flits);
        for (key, energies) in [
            ("energy_j", &self.energy_j),
            ("delta_energy_j", &self.delta_energy_j),
        ] {
            let mut by_component = row.key(key).object();
            for (name, joules) in COMPONENTS.iter().zip(energies) {
                by_component.key(name).f64(*joules);
            }
            by_component.end();
        }
        row.key("total_energy_j").f64(self.total_energy_j());
        row.end();
        out
    }
}

/// Periodic sampler: call [`Prober::due`] each cycle and
/// [`Prober::record`] when it fires.
#[derive(Debug, Clone)]
pub struct Prober {
    sample_every: u64,
    last: Vec<NodeState>,
    rows: Vec<ProbeRow>,
    last_cycle: Option<u64>,
}

impl Prober {
    /// Creates a prober that fires every `sample_every` cycles
    /// (clamped to at least 1).
    pub fn new(sample_every: u64) -> Prober {
        Prober {
            sample_every: sample_every.max(1),
            last: Vec::new(),
            rows: Vec::new(),
            last_cycle: None,
        }
    }

    /// Sampling period in cycles.
    pub fn sample_every(&self) -> u64 {
        self.sample_every
    }

    /// Whether a sample is due at `cycle` (multiples of the period,
    /// and never twice for the same cycle).
    pub fn due(&self, cycle: u64) -> bool {
        cycle.is_multiple_of(self.sample_every) && self.last_cycle != Some(cycle)
    }

    /// Records one sample: a state per node, in node order. Deltas are
    /// computed against the previous `record` call (first call's deltas
    /// equal the cumulative values).
    pub fn record(&mut self, cycle: u64, states: &[NodeState]) {
        if self.last_cycle == Some(cycle) {
            return;
        }
        for (node, s) in states.iter().enumerate() {
            let prev = self.last.get(node).copied().unwrap_or_default();
            let mut delta_energy = [0.0; 5];
            for (d, (now, before)) in delta_energy
                .iter_mut()
                .zip(s.energy_j.iter().zip(prev.energy_j.iter()))
            {
                *d = now - before;
            }
            self.rows.push(ProbeRow {
                cycle,
                node,
                buffered_flits: s.buffered_flits,
                free_credits: s.free_credits,
                link_flits: s.link_flits,
                delta_link_flits: s.link_flits.saturating_sub(prev.link_flits),
                energy_j: s.energy_j,
                delta_energy_j: delta_energy,
            });
        }
        self.last = states.to_vec();
        self.last_cycle = Some(cycle);
    }

    /// All rows sampled so far, in (cycle, node) order.
    pub fn rows(&self) -> &[ProbeRow] {
        &self.rows
    }

    /// Consumes the prober, returning its rows.
    pub fn into_rows(self) -> Vec<ProbeRow> {
        self.rows
    }
}

/// Serializes rows as JSONL (one row per line, trailing newline).
pub fn rows_to_jsonl(rows: &[ProbeRow]) -> String {
    crate::json::lines(rows, ProbeRow::to_json_line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn state(buffered: usize, link: u64, e: f64) -> NodeState {
        NodeState {
            buffered_flits: buffered,
            free_credits: 8,
            link_flits: link,
            energy_j: [e, 0.0, 0.0, 0.0, e],
        }
    }

    #[test]
    fn due_respects_period_and_dedup() {
        let mut p = Prober::new(10);
        assert!(p.due(0));
        assert!(!p.due(5));
        assert!(p.due(20));
        p.record(20, &[state(0, 0, 0.0)]);
        assert!(!p.due(20), "never samples the same cycle twice");
        assert!(p.due(30));
    }

    #[test]
    fn deltas_track_previous_sample() {
        let mut p = Prober::new(5);
        p.record(5, &[state(2, 10, 1.0)]);
        p.record(10, &[state(3, 25, 4.0)]);
        let rows = p.rows();
        assert_eq!(rows.len(), 2);
        assert_eq!(
            rows[0].delta_link_flits, 10,
            "first sample deltas = cumulative"
        );
        assert_eq!(rows[1].delta_link_flits, 15);
        assert!((rows[1].delta_energy_j[0] - 3.0).abs() < 1e-12);
        assert!((rows[1].total_energy_j() - 8.0).abs() < 1e-12);
    }

    #[test]
    fn jsonl_round_trips_fields() {
        let mut p = Prober::new(1);
        p.record(7, &[state(1, 3, 0.5)]);
        let jsonl = rows_to_jsonl(p.rows());
        let line = jsonl.lines().next().unwrap();
        assert!(line.starts_with(&format!("{{\"schema_version\":{PROBE_SCHEMA_VERSION},")));
        assert!(line.contains("\"cycle\":7"));
        assert!(line.contains("\"node\":0"));
        assert!(line.contains("\"buffered_flits\":1"));
        assert!(line.contains("\"link\":0.5"));
        assert!(line.contains("\"total_energy_j\":1"));
        // Exact bytes, generated at `f3a1fbd` (non-finite energy -> null).
        let row = ProbeRow {
            cycle: 200,
            node: 5,
            buffered_flits: 3,
            free_credits: 61,
            link_flits: 1234,
            delta_link_flits: 17,
            energy_j: [1.5e-9, 0.0, 2.25e-10, 1e-12, f64::NAN],
            delta_energy_j: [2.5e-10, 0.0, 0.125, 3.0, f64::INFINITY],
        };
        assert_eq!(row.to_json_line(), GOLDEN_ROW);
    }

    const GOLDEN_ROW: &str = r#"{"schema_version":1,"cycle":200,"node":5,"buffered_flits":3,"free_credits":61,"link_flits":1234,"delta_link_flits":17,"energy_j":{"buffer":0.0000000015,"central_buffer":0,"crossbar":0.000000000225,"arbiter":0.000000000001,"link":null},"delta_energy_j":{"buffer":0.00000000025,"central_buffer":0,"crossbar":0.125,"arbiter":3,"link":null},"total_energy_j":null}"#;

    #[test]
    fn zero_period_is_clamped() {
        assert_eq!(Prober::new(0).sample_every(), 1);
    }
}
