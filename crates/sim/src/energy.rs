//! Per-event energy accounting — the simulator side of the paper's LSE
//! event subsystem.
//!
//! §2.1: *"Users define events associated with each module. Power models
//! … are hooked to these events so when an event occurs during the
//! execution, it triggers the specific power model, which calculates and
//! accumulates the energy consumed."* The [`EnergyLedger`] is that hook:
//! routers emit typed events (buffer read/write, arbitration, crossbar
//! traversal, link traversal, central-buffer read/write) and the ledger
//! dispatches them to the [`orion_power`] models, accumulating energy per
//! node and per component.
//!
//! §4.1: *"The simulator records energy consumption of each component
//! (input buffer, crossbar, arbiter, link) of a node over the entire
//! simulation excluding the first 1000 cycles"* — the exclusion is
//! implemented by [`EnergyLedger::reset`] at the warm-up boundary.

use orion_power::arbiter::ArbiterActivity;
use orion_power::{
    ArbiterPower, BufferPower, CentralBufferPower, CrossbarPower, LinkPower, WriteActivity,
};
use orion_tech::Joules;

/// Switching count between consecutive 64-bit payload samples on a
/// `width`-bit resource.
///
/// For widths ≤ 64 the sample is masked and the Hamming distance is
/// exact; wider datapaths scale the 64-bit distance by `width / 64`
/// (each sample bit stands for `width/64` independent lines).
///
/// ```
/// use orion_sim::energy::scaled_hamming;
/// assert_eq!(scaled_hamming(0b1010, 0b0110, 64), 2.0);
/// assert_eq!(scaled_hamming(0b1010, 0b0110, 256), 8.0);
/// assert_eq!(scaled_hamming(0xFF, 0x0F, 4), 0.0); // high bits masked off
/// ```
pub fn scaled_hamming(a: u64, b: u64, width: u32) -> f64 {
    if width >= 64 {
        (a ^ b).count_ones() as f64 * width as f64 / 64.0
    } else {
        let mask = (1u64 << width) - 1;
        ((a ^ b) & mask).count_ones() as f64
    }
}

/// The energy-bearing components of a network node (paper §4.1 records
/// "input buffer, crossbar, arbiter, link"; §4.4 adds the central
/// buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Component {
    /// Input FIFO buffers.
    Buffer,
    /// Shared central buffer (CB routers only).
    CentralBuffer,
    /// Switch fabric.
    Crossbar,
    /// All arbiters (VC allocation + switch allocation).
    Arbiter,
    /// Outgoing links.
    Link,
}

impl Component {
    /// All components, for iteration.
    pub const ALL: [Component; 5] = [
        Component::Buffer,
        Component::CentralBuffer,
        Component::Crossbar,
        Component::Arbiter,
        Component::Link,
    ];

    fn idx(self) -> usize {
        match self {
            Component::Buffer => 0,
            Component::CentralBuffer => 1,
            Component::Crossbar => 2,
            Component::Arbiter => 3,
            Component::Link => 4,
        }
    }
}

impl std::fmt::Display for Component {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Component::Buffer => "buffer",
            Component::CentralBuffer => "central-buffer",
            Component::Crossbar => "crossbar",
            Component::Arbiter => "arbiter",
            Component::Link => "link",
        };
        f.write_str(s)
    }
}

/// The set of power models shared by all (homogeneous) routers of a
/// network.
#[derive(Debug, Clone)]
pub struct PowerModels {
    /// Flit width in bits (for activity scaling).
    pub flit_bits: u32,
    /// Input-buffer model (one SRAM per input port; Table 2).
    pub buffer: BufferPower,
    /// Switch-fabric model (Table 3).
    pub crossbar: CrossbarPower,
    /// Arbiter model with the crossbar control energy attached
    /// (Table 4 + Appendix).
    pub arbiter: ArbiterPower,
    /// Outgoing link model.
    pub link: LinkPower,
    /// Central-buffer model, for CB routers.
    pub central: Option<CentralBufferPower>,
}

/// One node's accumulators: an event charges one row.
#[derive(Debug, Clone, Copy)]
struct NodeRow {
    /// Energy per component.
    energy: [Joules; 5],
    /// Charged operations per component.
    counts: [u64; 5],
}

impl NodeRow {
    const ZERO: NodeRow = NodeRow {
        energy: [Joules::ZERO; 5],
        counts: [0; 5],
    };
}

/// Accumulates energy per node and component by dispatching simulator
/// events to the power models.
#[derive(Debug, Clone)]
pub struct EnergyLedger {
    models: PowerModels,
    /// One row per node.
    rows: Vec<NodeRow>,
}

impl EnergyLedger {
    /// Creates a ledger for `num_nodes` nodes sharing `models`.
    pub fn new(models: PowerModels, num_nodes: usize) -> EnergyLedger {
        EnergyLedger {
            models,
            rows: vec![NodeRow::ZERO; num_nodes],
        }
    }

    /// The power models (also exposes link static power for reports).
    pub fn models(&self) -> &PowerModels {
        &self.models
    }

    /// Number of nodes tracked.
    pub fn num_nodes(&self) -> usize {
        self.rows.len()
    }

    /// Zeroes all accumulators (the paper's warm-up exclusion).
    pub fn reset(&mut self) {
        self.rows.fill(NodeRow::ZERO);
    }

    fn charge(&mut self, node: usize, component: Component, e: Joules) {
        let row = &mut self.rows[node];
        row.energy[component.idx()] += e;
        row.counts[component.idx()] += 1;
    }

    /// *Buffer write* event (Figure 2 walkthrough: `E_wrt`).
    pub fn buffer_write(&mut self, node: usize, activity: &WriteActivity) {
        let e = self.models.buffer.write_energy(activity);
        self.charge(node, Component::Buffer, e);
    }

    /// *Buffer read* event (`E_read`).
    pub fn buffer_read(&mut self, node: usize) {
        let e = self.models.buffer.read_energy();
        self.charge(node, Component::Buffer, e);
    }

    /// *Arbitration* event (`E_arb`, including `E_xb_ctr` if attached).
    pub fn arbitration(&mut self, node: usize, activity: &ArbiterActivity) {
        let e = self.models.arbiter.arbitration_energy_with(activity);
        self.charge(node, Component::Arbiter, e);
    }

    /// *Crossbar traversal* event (`E_xb`) with per-line-direction
    /// payload history: `(prev_in, new)` on the input line and
    /// `(prev_out, new)` on the output line.
    pub fn crossbar_traversal(&mut self, node: usize, prev_in: u64, prev_out: u64, new: u64) {
        let w = self.models.flit_bits;
        let e = self.models.crossbar.traversal_energy_split(
            scaled_hamming(prev_in, new, w),
            scaled_hamming(prev_out, new, w),
        );
        self.charge(node, Component::Crossbar, e);
    }

    /// *Link traversal* event (`E_link`); `prev` is the last payload on
    /// this link. Chip-to-chip links charge nothing here (their power is
    /// static).
    pub fn link_traversal(&mut self, node: usize, prev: u64, new: u64) {
        let w = self.models.flit_bits;
        let e = self
            .models
            .link
            .traversal_energy(scaled_hamming(prev, new, w));
        self.charge(node, Component::Link, e);
    }

    /// *Central-buffer write* event.
    ///
    /// # Panics
    ///
    /// Panics if the ledger was built without a central-buffer model.
    pub fn central_write(&mut self, node: usize, activity: &WriteActivity) {
        let e = self
            .models
            .central
            .as_ref()
            .expect("central buffer model not configured")
            .write_energy(activity);
        self.charge(node, Component::CentralBuffer, e);
    }

    /// *Central-buffer read* event; `prev`/`new` drive the read-side
    /// fabric activity.
    ///
    /// # Panics
    ///
    /// Panics if the ledger was built without a central-buffer model.
    pub fn central_read(&mut self, node: usize, prev: u64, new: u64) {
        let w = self.models.flit_bits;
        let e = self
            .models
            .central
            .as_ref()
            .expect("central buffer model not configured")
            .read_energy(scaled_hamming(prev, new, w));
        self.charge(node, Component::CentralBuffer, e);
    }

    /// Accumulated energy of `component` at `node`.
    pub fn energy(&self, node: usize, component: Component) -> Joules {
        self.rows[node].energy[component.idx()]
    }

    /// Total energy of `node` across all components.
    pub fn node_energy(&self, node: usize) -> Joules {
        self.rows[node].energy.iter().copied().sum()
    }

    /// Network-wide energy of `component`.
    pub fn component_energy(&self, component: Component) -> Joules {
        self.rows.iter().map(|n| n.energy[component.idx()]).sum()
    }

    /// Network-wide total energy.
    pub fn total_energy(&self) -> Joules {
        Component::ALL
            .iter()
            .map(|&c| self.component_energy(c))
            .sum()
    }

    /// Number of operations charged to `component` at `node`.
    pub fn op_count(&self, node: usize, component: Component) -> u64 {
        self.rows[node].counts[component.idx()]
    }

    /// Network-wide operation count for `component`.
    pub fn total_ops(&self, component: Component) -> u64 {
        self.rows.iter().map(|n| n.counts[component.idx()]).sum()
    }

    /// Encodes `node`'s accumulators (not the models — those are
    /// rebuilt from configuration) for a state image.
    pub(crate) fn encode_row(&self, node: usize, w: &mut crate::snapshot::ByteWriter) {
        let row = &self.rows[node];
        for j in &row.energy {
            w.f64(j.0);
        }
        for &c in &row.counts {
            w.u64(c);
        }
    }

    /// Restores `node`'s accumulators encoded by
    /// [`EnergyLedger::encode_row`].
    pub(crate) fn decode_row(
        &mut self,
        node: usize,
        r: &mut crate::snapshot::ByteReader<'_>,
    ) -> Result<(), crate::snapshot::SnapshotError> {
        let row = &mut self.rows[node];
        for j in row.energy.iter_mut() {
            *j = Joules(r.f64()?);
        }
        for c in row.counts.iter_mut() {
            *c = r.u64()?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_power::{ArbiterKind, ArbiterParams, BufferParams, CrossbarKind, CrossbarParams};
    use orion_tech::{Microns, ProcessNode, Technology};

    fn models() -> PowerModels {
        let tech = Technology::new(ProcessNode::Nm100);
        let crossbar =
            CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 64), tech).unwrap();
        let arbiter = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 5), tech)
            .unwrap()
            .with_control_energy(crossbar.control_energy());
        PowerModels {
            flit_bits: 64,
            buffer: BufferPower::new(&BufferParams::new(16, 64), tech).unwrap(),
            crossbar,
            arbiter,
            link: LinkPower::on_chip(Microns::from_mm(3.0), 64, tech),
            central: None,
        }
    }

    #[test]
    fn scaled_hamming_cases() {
        assert_eq!(scaled_hamming(0, 0, 64), 0.0);
        assert_eq!(scaled_hamming(u64::MAX, 0, 64), 64.0);
        assert_eq!(scaled_hamming(u64::MAX, 0, 256), 256.0);
        assert_eq!(scaled_hamming(0b111, 0, 2), 2.0);
        assert_eq!(scaled_hamming(0b100, 0, 2), 0.0);
    }

    #[test]
    fn events_accumulate_per_node_and_component() {
        let mut ledger = EnergyLedger::new(models(), 4);
        ledger.buffer_read(1);
        ledger.buffer_read(1);
        ledger.link_traversal(2, 0, u64::MAX);
        assert_eq!(ledger.op_count(1, Component::Buffer), 2);
        assert_eq!(ledger.op_count(2, Component::Link), 1);
        assert_eq!(ledger.op_count(0, Component::Buffer), 0);
        assert!(ledger.energy(1, Component::Buffer).0 > 0.0);
        assert!(ledger.energy(2, Component::Link).0 > 0.0);
        assert_eq!(ledger.energy(3, Component::Link).0, 0.0);
    }

    #[test]
    fn totals_are_sums() {
        let mut ledger = EnergyLedger::new(models(), 3);
        ledger.buffer_read(0);
        ledger.buffer_read(1);
        ledger.crossbar_traversal(2, 0, 0, u64::MAX);
        let total: f64 = (0..3).map(|n| ledger.node_energy(n).0).sum();
        assert!((ledger.total_energy().0 - total).abs() < 1e-27);
        let by_component: f64 = Component::ALL
            .iter()
            .map(|&c| ledger.component_energy(c).0)
            .sum();
        assert!((ledger.total_energy().0 - by_component).abs() < 1e-27);
    }

    #[test]
    fn reset_zeroes_everything() {
        let mut ledger = EnergyLedger::new(models(), 2);
        ledger.buffer_read(0);
        ledger.arbitration(
            1,
            &orion_power::arbiter::ArbiterActivity {
                request_toggles: 2,
                priority_flips: 1,
                new_requests: 1,
            },
        );
        ledger.reset();
        assert_eq!(ledger.total_energy().0, 0.0);
        assert_eq!(ledger.total_ops(Component::Buffer), 0);
        assert_eq!(ledger.total_ops(Component::Arbiter), 0);
    }

    #[test]
    fn identical_payloads_on_link_cost_nothing() {
        let mut ledger = EnergyLedger::new(models(), 1);
        ledger.link_traversal(0, 0xABCD, 0xABCD);
        assert_eq!(ledger.energy(0, Component::Link).0, 0.0);
        // But the op is still counted.
        assert_eq!(ledger.op_count(0, Component::Link), 1);
    }

    #[test]
    fn crossbar_split_matches_model_arithmetic() {
        let m = models();
        let mut ledger = EnergyLedger::new(m.clone(), 1);
        // Input line toggles 64 bits (0 -> MAX), output line 32 bits.
        let prev_out = 0xFFFF_FFFF_0000_0000u64;
        ledger.crossbar_traversal(0, 0, prev_out, u64::MAX);
        let expect = m.crossbar.traversal_energy_split(64.0, 32.0);
        assert!((ledger.energy(0, Component::Crossbar).0 - expect.0).abs() < 1e-27);
    }

    #[test]
    fn buffer_events_match_model_energies() {
        let m = models();
        let mut ledger = EnergyLedger::new(m.clone(), 2);
        let act = orion_power::WriteActivity::uniform_random(64);
        ledger.buffer_write(1, &act);
        ledger.buffer_read(1);
        let expect = m.buffer.write_energy(&act) + m.buffer.read_energy();
        assert!((ledger.node_energy(1).0 - expect.0).abs() < 1e-27);
        assert_eq!(ledger.node_energy(0).0, 0.0);
    }

    #[test]
    #[should_panic(expected = "central buffer model not configured")]
    fn central_events_require_model() {
        let mut ledger = EnergyLedger::new(models(), 1);
        ledger.central_read(0, 0, 1);
    }
}
