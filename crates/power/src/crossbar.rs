//! Crossbar power models — Table 3 and the Appendix of the paper.
//!
//! The paper models the two common implementations: the **matrix**
//! crossbar (a grid of input rows × output columns with a connector
//! transistor at each crosspoint) and the **multiplexer-tree** crossbar
//! (each output is an `I:1` mux tree of 2:1 stages).
//!
//! Matrix crossbar equations (Table 3 / Orion's released model):
//!
//! ```text
//! L_in      = O · W · d_w                     input line length
//! L_out     = I · W · d_w                     output line length
//! C_in      = C_d(T_id) + O·C_d(T_x) + C_w(L_in)
//! C_out     = C_g(T_od) + I·C_d(T_x) + C_w(L_out)
//! C_xb_ctr  = W·C_g(T_x) + C_w(L_in / 2)      control line (avg length)
//! E_xb      = δ_data · (E_in + E_out)
//! ```
//!
//! where `T_x` is the crosspoint connector, `T_id` the input driver and
//! `T_od` the output driver. The control-line energy `E_xb_ctr` is charged
//! by the **arbiter** model, because "arbiter grant signals drive crossbar
//! control signals so they have identical switching behavior" (Appendix).
//!
//! The paper notes control lines run in the input-line direction, hence
//! the `C_w(L_in/2)` average-length term, and that the approximation is
//! benign because the data path is much wider than the control path.

use orion_tech::{
    switch_energy, Capacitor, DriverSizing, Farads, Joules, Microns, Technology, TransistorKind,
    TransistorSizes,
};

use crate::error::ModelError;

/// Crossbar implementation style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum CrossbarKind {
    /// Matrix (crosspoint) crossbar — Table 3.
    Matrix,
    /// Multiplexer-tree crossbar built from 2:1 stages.
    MuxTree,
}

/// Architectural parameters of a crossbar.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarParams {
    /// Implementation style.
    pub kind: CrossbarKind,
    /// `I` — number of input ports.
    pub inputs: u32,
    /// `O` — number of output ports.
    pub outputs: u32,
    /// `W` — data width in bits.
    pub width: u32,
    /// Transistor sizes; defaults to the Cacti library.
    pub sizes: TransistorSizes,
    /// Driver sizing rule for input/output drivers ("sizes of driver
    /// transistors … are computed according to their load capacitance",
    /// §3.1).
    pub driver_sizing: DriverSizing,
}

impl CrossbarParams {
    /// Creates parameters for a `kind` crossbar of `inputs`×`outputs`
    /// ports, each `width` bits wide.
    ///
    /// ```
    /// use orion_power::{CrossbarKind, CrossbarParams};
    /// let p = CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 256);
    /// assert_eq!(p.width, 256);
    /// ```
    pub fn new(kind: CrossbarKind, inputs: u32, outputs: u32, width: u32) -> CrossbarParams {
        CrossbarParams {
            kind,
            inputs,
            outputs,
            width,
            sizes: TransistorSizes::default(),
            driver_sizing: DriverSizing::default(),
        }
    }

    /// Overrides the transistor-size library.
    pub fn with_sizes(mut self, sizes: TransistorSizes) -> CrossbarParams {
        self.sizes = sizes;
        self
    }

    fn validate(&self) -> Result<(), ModelError> {
        if self.inputs == 0 {
            return Err(ModelError::invalid("inputs", "must be at least 1"));
        }
        if self.outputs == 0 {
            return Err(ModelError::invalid("outputs", "must be at least 1"));
        }
        if self.width == 0 {
            return Err(ModelError::invalid("width", "must be at least 1"));
        }
        Ok(())
    }
}

/// Crossbar power model with precomputed per-line capacitances.
///
/// ```
/// use orion_power::{CrossbarKind, CrossbarParams, CrossbarPower};
/// use orion_tech::{ProcessNode, Technology};
///
/// let xb = CrossbarPower::new(
///     &CrossbarParams::new(CrossbarKind::Matrix, 5, 5, 256),
///     Technology::new(ProcessNode::Nm100),
/// )?;
/// // A flit traversal with half the data lines toggling:
/// let e = xb.traversal_energy(128.0);
/// assert!(e.0 > 0.0);
/// # Ok::<(), orion_power::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CrossbarPower {
    kind: CrossbarKind,
    inputs: u32,
    outputs: u32,
    width: u32,
    vdd: orion_tech::Volts,
    input_line_len: Microns,
    output_line_len: Microns,
    c_input_line: Farads,
    c_output_line: Farads,
    c_control_line: Farads,
    /// Per-bit per-stage capacitance for the mux-tree style (zero for
    /// matrix).
    c_mux_stage: Farads,
    mux_depth: u32,
    leakage: orion_tech::Watts,
    /// Per-bit traversal constants, computed once in
    /// [`CrossbarPower::new`]: `E_in` plus the mux-tree stages (zero
    /// for matrix), and `E_out`.
    e_input_path: Joules,
    e_output_line: Joules,
}

impl CrossbarPower {
    /// Builds the model for `params` at `tech`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if any dimension is zero.
    pub fn new(params: &CrossbarParams, tech: Technology) -> Result<CrossbarPower, ModelError> {
        params.validate()?;
        let cap = Capacitor::new(tech);
        let s = &params.sizes;
        let i = params.inputs as f64;
        let o = params.outputs as f64;
        let w = params.width as f64;

        // Track pitch: one wire per bit, d_w apart.
        let input_line_len = Microns(o * w * tech.wire_spacing().0);
        let output_line_len = Microns(i * w * tech.wire_spacing().0);

        // Input driver sized for the input-line load, output driver for
        // the (downstream) link/next-stage load approximated by the
        // output line itself.
        let c_in_wire = cap.wire_cap(input_line_len);
        let c_out_wire = cap.wire_cap(output_line_len);
        let conn_drain = cap.drain_cap(s.crossbar_connector, TransistorKind::N, 1);

        let w_id = params
            .driver_sizing
            .width_for_load(&cap, c_in_wire + o * conn_drain);
        let w_od = params
            .driver_sizing
            .width_for_load(&cap, c_out_wire + i * conn_drain);

        // C_in = C_d(T_id) + O·C_d(T_x) + C_w(L_in)
        let c_input_line = cap.drain_cap(w_id, TransistorKind::N, 1) + o * conn_drain + c_in_wire;
        // C_out = C_g(T_od) + I·C_d(T_x) + C_w(L_out)
        let c_output_line = cap.gate_cap(w_od) + i * conn_drain + c_out_wire;
        // C_xb_ctr = W·C_g(T_x) + C_w(L_in/2)
        let c_control_line =
            w * cap.gate_cap(s.crossbar_connector) + cap.wire_cap(Microns(input_line_len.0 / 2.0));

        let (c_mux_stage, mux_depth) = match params.kind {
            CrossbarKind::Matrix => (Farads::ZERO, 0),
            CrossbarKind::MuxTree => {
                // Each 2:1 stage per bit: two pass-gate drains on the
                // shared output node plus the next stage's pass-gate
                // drain loading, and a short inter-stage wire (one cell
                // pitch per input it spans).
                let stage = 2.0 * conn_drain
                    + cap.gate_cap(s.inv_nmos)
                    + cap.gate_cap(s.inv_pmos)
                    + cap.wire_cap(tech.wire_spacing());
                let depth = (params.inputs.max(2) as f64).log2().ceil() as u32;
                (stage, depth)
            }
        };

        // Leakage (post-paper extension): crosspoint connectors plus the
        // input and output drivers.
        let total_width = i * o * w * s.crossbar_connector + (i + o) * w * (w_id + w_od);
        let leakage = tech.leakage_power(total_width);

        let vdd = tech.vdd();
        let e_mux = match params.kind {
            CrossbarKind::Matrix => Joules::ZERO,
            CrossbarKind::MuxTree => mux_depth as f64 * switch_energy(c_mux_stage, vdd),
        };

        Ok(CrossbarPower {
            kind: params.kind,
            inputs: params.inputs,
            outputs: params.outputs,
            width: params.width,
            vdd,
            input_line_len,
            output_line_len,
            c_input_line,
            c_output_line,
            c_control_line,
            c_mux_stage,
            mux_depth,
            leakage,
            e_input_path: switch_energy(c_input_line, vdd) + e_mux,
            e_output_line: switch_energy(c_output_line, vdd),
        })
    }

    /// The implementation style.
    pub fn kind(&self) -> CrossbarKind {
        self.kind
    }

    /// `I`.
    pub fn inputs(&self) -> u32 {
        self.inputs
    }

    /// `O`.
    pub fn outputs(&self) -> u32 {
        self.outputs
    }

    /// `W`.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Input line length `L_in`.
    pub fn input_line_length(&self) -> Microns {
        self.input_line_len
    }

    /// Output line length `L_out`.
    pub fn output_line_length(&self) -> Microns {
        self.output_line_len
    }

    /// Input line capacitance `C_in` (per bit line).
    pub fn input_line_cap(&self) -> Farads {
        self.c_input_line
    }

    /// Output line capacitance `C_out` (per bit line).
    pub fn output_line_cap(&self) -> Farads {
        self.c_output_line
    }

    /// Control line capacitance `C_xb_ctr` — per the Appendix this energy
    /// is charged by the arbiter model, whose grant lines drive it.
    pub fn control_line_cap(&self) -> Farads {
        self.c_control_line
    }

    /// Energy of one flit traversal with `switching_bits` data lines
    /// toggling (`E_xb = δ_data (E_in + E_out)`).
    ///
    /// For the mux-tree style the per-bit path is the input wire, the
    /// tree stages and the output wire.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `switching_bits` is negative.
    pub fn traversal_energy(&self, switching_bits: f64) -> Joules {
        debug_assert!(switching_bits >= 0.0, "switching bits must be non-negative");
        let per_bit = match self.kind {
            CrossbarKind::Matrix => {
                switch_energy(self.c_input_line, self.vdd)
                    + switch_energy(self.c_output_line, self.vdd)
            }
            CrossbarKind::MuxTree => {
                switch_energy(self.c_input_line, self.vdd)
                    + self.mux_depth as f64 * switch_energy(self.c_mux_stage, self.vdd)
                    + switch_energy(self.c_output_line, self.vdd)
            }
        };
        switching_bits * per_bit
    }

    /// Traversal energy with independent switching counts for the input
    /// and output lines — during simulation consecutive values on an
    /// input line and an output line generally differ, so their
    /// activities are tracked separately.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if either count is negative.
    pub fn traversal_energy_split(&self, switching_in: f64, switching_out: f64) -> Joules {
        debug_assert!(
            switching_in >= 0.0 && switching_out >= 0.0,
            "switching bits must be non-negative"
        );
        switching_in * self.e_input_path + switching_out * self.e_output_line
    }

    /// Expected traversal energy under uniform random data (half the
    /// lines toggle).
    pub fn traversal_energy_uniform(&self) -> Joules {
        self.traversal_energy(self.width as f64 / 2.0)
    }

    /// Worst-case traversal energy (all lines toggle).
    pub fn traversal_energy_max(&self) -> Joules {
        self.traversal_energy(self.width as f64)
    }

    /// Energy of toggling one control line (`E_xb_ctr`), exposed for the
    /// arbiter model.
    pub fn control_energy(&self) -> Joules {
        switch_energy(self.c_control_line, self.vdd)
    }

    /// Static (leakage) power of the crossbar — a post-paper extension;
    /// not included in any `*_energy` method.
    pub fn leakage_power(&self) -> orion_tech::Watts {
        self.leakage
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_tech::ProcessNode;

    fn tech() -> Technology {
        Technology::new(ProcessNode::Nm100)
    }

    fn matrix(i: u32, o: u32, w: u32) -> CrossbarPower {
        CrossbarPower::new(&CrossbarParams::new(CrossbarKind::Matrix, i, o, w), tech())
            .expect("valid params")
    }

    #[test]
    fn rejects_zero_dimensions() {
        for (i, o, w) in [(0, 5, 32), (5, 0, 32), (5, 5, 0)] {
            assert!(CrossbarPower::new(
                &CrossbarParams::new(CrossbarKind::Matrix, i, o, w),
                tech()
            )
            .is_err());
        }
    }

    #[test]
    fn line_length_formulas() {
        let xb = matrix(5, 5, 32);
        let t = tech();
        assert!((xb.input_line_length().0 - 5.0 * 32.0 * t.wire_spacing().0).abs() < 1e-9);
        assert!((xb.output_line_length().0 - 5.0 * 32.0 * t.wire_spacing().0).abs() < 1e-9);
    }

    #[test]
    fn caps_grow_with_ports() {
        let small = matrix(5, 5, 64);
        let large = matrix(10, 10, 64);
        assert!(large.input_line_cap().0 > small.input_line_cap().0);
        assert!(large.output_line_cap().0 > small.output_line_cap().0);
    }

    #[test]
    fn caps_grow_with_width() {
        let narrow = matrix(5, 5, 32);
        let wide = matrix(5, 5, 256);
        assert!(wide.input_line_cap().0 > narrow.input_line_cap().0);
        assert!(wide.control_line_cap().0 > narrow.control_line_cap().0);
    }

    #[test]
    fn traversal_linear_in_activity() {
        let xb = matrix(5, 5, 256);
        let half = xb.traversal_energy_uniform();
        let max = xb.traversal_energy_max();
        assert!((max.0 - 2.0 * half.0).abs() < 1e-24);
        assert_eq!(xb.traversal_energy(0.0), Joules::ZERO);
    }

    #[test]
    fn mux_tree_differs_from_matrix() {
        let m = matrix(5, 5, 64);
        let t = CrossbarPower::new(
            &CrossbarParams::new(CrossbarKind::MuxTree, 5, 5, 64),
            tech(),
        )
        .unwrap();
        assert!(t.traversal_energy_uniform().0 > 0.0);
        assert_ne!(
            m.traversal_energy_uniform().0,
            t.traversal_energy_uniform().0
        );
        assert_eq!(t.kind(), CrossbarKind::MuxTree);
    }

    #[test]
    fn mux_depth_log2_of_inputs() {
        for (inputs, _depth) in [(2u32, 1u32), (5, 3), (8, 3), (9, 4)] {
            let t = CrossbarPower::new(
                &CrossbarParams::new(CrossbarKind::MuxTree, inputs, 5, 8),
                tech(),
            )
            .unwrap();
            // Depth is internal; verify indirectly: more inputs ⇒ no less energy.
            assert!(t.traversal_energy_uniform().0 > 0.0);
        }
        let d2 = CrossbarPower::new(&CrossbarParams::new(CrossbarKind::MuxTree, 2, 5, 8), tech())
            .unwrap();
        let d16 = CrossbarPower::new(
            &CrossbarParams::new(CrossbarKind::MuxTree, 16, 5, 8),
            tech(),
        )
        .unwrap();
        assert!(d16.traversal_energy_uniform().0 > d2.traversal_energy_uniform().0);
    }

    #[test]
    fn control_energy_positive_and_small() {
        let xb = matrix(5, 5, 256);
        let e_ctr = xb.control_energy();
        assert!(e_ctr.0 > 0.0);
        // Control path is much cheaper than a full flit traversal — this
        // is why arbiter power is "invisible" in Fig. 5c.
        assert!(e_ctr.0 < xb.traversal_energy_uniform().0 / 10.0);
    }

    #[test]
    fn leakage_scales_with_crossbar_size() {
        let small = matrix(5, 5, 32);
        let large = matrix(5, 5, 256);
        assert!(large.leakage_power().0 > small.leakage_power().0);
        assert!(small.leakage_power().0 > 0.0);
    }

    #[test]
    fn paper_config_5x5_256bit() {
        // The Fig. 5 crossbar: 5×5, 256-bit at 0.1 µm. Sanity-check the
        // per-traversal energy is in the picojoule range (order of
        // magnitude of published NoC crossbars).
        let xb = matrix(5, 5, 256);
        let e = xb.traversal_energy_uniform();
        assert!(e.as_pj() > 0.1 && e.as_pj() < 1000.0, "{} pJ", e.as_pj());
    }
}
