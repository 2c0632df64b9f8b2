//! FIFO buffer (SRAM array) power model — Table 2 of the paper.
//!
//! Router buffers are implemented as SRAM arrays; the model adapts
//! architectural-level SRAM power models for caches and register files
//! (Kamble & Ghose; Zyuban & Kogge), with router-specific features — e.g.
//! a buffer with a dedicated port to the switch needs no tri-state output
//! drivers.
//!
//! Reproduced equations (Table 2):
//!
//! ```text
//! L_wl  = F (w_cell + 2 (P_r + P_w) d_w)          wordline length
//! L_bl  = B (h_cell + (P_r + P_w) d_w)            bitline length
//! C_wl  = 2 F C_g(T_p) + C_a(T_wd) + C_w(L_wl)    wordline cap
//! C_br  = B C_d(T_p) + C_d(T_c) + C_w(L_bl)       read bitline cap
//! C_bw  = B C_d(T_p) + C_a(T_bd) + C_w(L_bl)      write bitline cap
//! C_chg = C_g(T_c)                                precharge cap
//! C_cell= 2 (P_r + P_w) C_d(T_p) + 2 C_a(T_m)     memory cell cap
//! E_amp : empirical sense-amp model
//!
//! E_read = E_wl + F (E_br + 2 E_chg + E_amp)
//! E_wrt  = E_wl + δ_bw E_bw + δ_bc E_cell
//! ```
//!
//! where `T_p` is the pass transistor connecting bitlines and cells,
//! `T_wd` the wordline driver, `T_bd` the write bitline driver, `T_c` the
//! read-bitline precharge transistor and `T_m` the memory-cell inverter.

use orion_tech::{
    switch_energy, Capacitor, Farads, Joules, Microns, Technology, TransistorKind, TransistorSizes,
};

use crate::activity::WriteActivity;
use crate::decoder::DecoderPower;
use crate::error::ModelError;

/// Architectural parameters of a FIFO buffer (Table 2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferParams {
    /// `B` — buffer size in flits (rows of the SRAM array).
    pub flits: u32,
    /// `F` — flit size in bits (columns of the SRAM array).
    pub flit_bits: u32,
    /// `P_r` — number of read ports.
    pub read_ports: u32,
    /// `P_w` — number of write ports.
    pub write_ports: u32,
    /// Transistor sizes; defaults to the Cacti library.
    pub sizes: TransistorSizes,
    /// Charge the row decoder on each access (an extension of Table 2
    /// following Kamble & Ghose; off by default so the model reproduces
    /// the paper's table verbatim).
    pub include_decoder: bool,
}

impl BufferParams {
    /// A single-read-port, single-write-port FIFO of `flits` rows of
    /// `flit_bits` columns — the common router input buffer.
    ///
    /// ```
    /// use orion_power::BufferParams;
    /// let p = BufferParams::new(64, 256);
    /// assert_eq!(p.read_ports, 1);
    /// assert_eq!(p.write_ports, 1);
    /// ```
    pub fn new(flits: u32, flit_bits: u32) -> BufferParams {
        BufferParams {
            flits,
            flit_bits,
            read_ports: 1,
            write_ports: 1,
            sizes: TransistorSizes::default(),
            include_decoder: false,
        }
    }

    /// Enables the row-decoder extension (see [`DecoderPower`]).
    pub fn with_decoder(mut self) -> BufferParams {
        self.include_decoder = true;
        self
    }

    /// Sets the port counts, consuming and returning the params
    /// builder-style.
    pub fn with_ports(mut self, read_ports: u32, write_ports: u32) -> BufferParams {
        self.read_ports = read_ports;
        self.write_ports = write_ports;
        self
    }

    /// Overrides the transistor-size library.
    pub fn with_sizes(mut self, sizes: TransistorSizes) -> BufferParams {
        self.sizes = sizes;
        self
    }

    fn validate(&self) -> Result<(), ModelError> {
        if self.flits == 0 {
            return Err(ModelError::invalid("flits", "must be at least 1"));
        }
        if self.flit_bits == 0 {
            return Err(ModelError::invalid("flit_bits", "must be at least 1"));
        }
        if self.read_ports == 0 {
            return Err(ModelError::invalid("read_ports", "must be at least 1"));
        }
        if self.write_ports == 0 {
            return Err(ModelError::invalid("write_ports", "must be at least 1"));
        }
        Ok(())
    }
}

/// FIFO buffer power model with precomputed capacitances.
///
/// Construction derives every capacitance of Table 2 once; the
/// per-operation energy methods are then cheap enough to call on every
/// simulated buffer access.
///
/// ```
/// use orion_power::{BufferParams, BufferPower, WriteActivity};
/// use orion_tech::{ProcessNode, Technology};
///
/// let tech = Technology::new(ProcessNode::Nm100);
/// let buf = BufferPower::new(&BufferParams::new(16, 256), tech)?;
/// let read = buf.read_energy();
/// let write = buf.write_energy(&WriteActivity::uniform_random(256));
/// assert!(read.0 > 0.0 && write.0 > 0.0);
/// # Ok::<(), orion_power::ModelError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BufferPower {
    params_flits: u32,
    params_bits: u32,
    read_ports: u32,
    write_ports: u32,
    vdd: orion_tech::Volts,
    wordline_len: Microns,
    bitline_len: Microns,
    c_wordline: Farads,
    c_bitline_read: Farads,
    c_bitline_write: Farads,
    c_precharge: Farads,
    c_cell: Farads,
    c_sense_amp: Farads,
    decoder: Option<DecoderPower>,
    leakage: orion_tech::Watts,
    /// Per-event constants, computed once in [`BufferPower::new`]:
    /// `E_wl`, `E_bw`, `E_cell`, the decoder access and the whole
    /// (data-independent) `E_read`.
    e_wordline: Joules,
    e_bitline_write: Joules,
    e_cell: Joules,
    e_decoder: Joules,
    e_read: Joules,
}

impl BufferPower {
    /// Builds the model for `params` at `tech`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if any dimension or port
    /// count is zero.
    pub fn new(params: &BufferParams, tech: Technology) -> Result<BufferPower, ModelError> {
        params.validate()?;
        let cap = Capacitor::new(tech);
        let s = &params.sizes;
        let b = params.flits as f64;
        let f = params.flit_bits as f64;
        let ports = (params.read_ports + params.write_ports) as f64;

        // L_wl = F (w_cell + 2 (P_r + P_w) d_w)
        let wordline_len = Microns(f * (tech.cell_width().0 + 2.0 * ports * tech.wire_spacing().0));
        // L_bl = B (h_cell + (P_r + P_w) d_w)
        let bitline_len = Microns(b * (tech.cell_height().0 + ports * tech.wire_spacing().0));

        // C_wl = 2 F C_g(T_p) + C_a(T_wd) + C_w(L_wl)
        let c_wordline = 2.0 * f * cap.gate_cap_pass(s.cell_access)
            + cap.total_cap(s.wordline_driver, TransistorKind::N)
            + cap.wire_cap(wordline_len);
        // C_br = B C_d(T_p) + C_d(T_c) + C_w(L_bl)
        let c_bitline_read = b * cap.drain_cap(s.cell_access, TransistorKind::N, 1)
            + cap.drain_cap(s.precharge, TransistorKind::P, 1)
            + cap.wire_cap(bitline_len);
        // C_bw = B C_d(T_p) + C_a(T_bd) + C_w(L_bl)
        let c_bitline_write = b * cap.drain_cap(s.cell_access, TransistorKind::N, 1)
            + cap.total_cap(s.bitline_driver, TransistorKind::N)
            + cap.wire_cap(bitline_len);
        // C_chg = C_g(T_c)
        let c_precharge = cap.gate_cap(s.precharge);
        // C_cell = 2 (P_r + P_w) C_d(T_p) + 2 C_a(T_m)
        let c_cell = 2.0 * ports * cap.drain_cap(s.cell_access, TransistorKind::N, 1)
            + 2.0 * cap.inverter_cap(s.cell_nmos, s.cell_pmos);

        // Leakage (post-paper extension): total base-node transistor
        // width of the array — per cell two inverters plus the pass
        // transistors of every port — and the column/row peripherals.
        let cell_width = 2.0 * (s.cell_nmos + s.cell_pmos) + 2.0 * ports * s.cell_access;
        let total_width =
            b * f * cell_width + f * (s.bitline_driver + 2.0 * s.precharge) + b * s.wordline_driver;
        let leakage = tech.leakage_power(total_width);

        let decoder = if params.include_decoder {
            Some(DecoderPower::with_sizes(
                params.flits,
                bitline_len,
                tech,
                &params.sizes,
            )?)
        } else {
            None
        };

        let vdd = tech.vdd();
        let c_sense_amp = tech.sense_amp_cap();
        let e_wordline = switch_energy(c_wordline, vdd);
        let e_decoder = decoder
            .map(|d| d.access_energy_sequential())
            .unwrap_or(Joules::ZERO);
        // E_read = E_wl + F (E_br + 2 E_chg + E_amp) + E_dec
        let e_read = e_wordline
            + params.flit_bits as f64
                * (switch_energy(c_bitline_read, vdd)
                    + 2.0 * switch_energy(c_precharge, vdd)
                    + switch_energy(c_sense_amp, vdd))
            + e_decoder;

        Ok(BufferPower {
            params_flits: params.flits,
            params_bits: params.flit_bits,
            read_ports: params.read_ports,
            write_ports: params.write_ports,
            vdd,
            wordline_len,
            bitline_len,
            c_wordline,
            c_bitline_read,
            c_bitline_write,
            c_precharge,
            c_cell,
            c_sense_amp,
            decoder,
            leakage,
            e_wordline,
            e_bitline_write: switch_energy(c_bitline_write, vdd),
            e_cell: switch_energy(c_cell, vdd),
            e_decoder,
            e_read,
        })
    }

    /// `B` — rows (flits) of the array.
    pub fn flits(&self) -> u32 {
        self.params_flits
    }

    /// `F` — columns (bits per flit) of the array.
    pub fn flit_bits(&self) -> u32 {
        self.params_bits
    }

    /// `P_r`.
    pub fn read_ports(&self) -> u32 {
        self.read_ports
    }

    /// `P_w`.
    pub fn write_ports(&self) -> u32 {
        self.write_ports
    }

    /// Wordline length `L_wl`.
    pub fn wordline_length(&self) -> Microns {
        self.wordline_len
    }

    /// Bitline length `L_bl`.
    pub fn bitline_length(&self) -> Microns {
        self.bitline_len
    }

    /// Wordline capacitance `C_wl`.
    pub fn wordline_cap(&self) -> Farads {
        self.c_wordline
    }

    /// Read bitline capacitance `C_br`.
    pub fn read_bitline_cap(&self) -> Farads {
        self.c_bitline_read
    }

    /// Write bitline capacitance `C_bw`.
    pub fn write_bitline_cap(&self) -> Farads {
        self.c_bitline_write
    }

    /// Precharge capacitance `C_chg`.
    pub fn precharge_cap(&self) -> Farads {
        self.c_precharge
    }

    /// Memory cell capacitance `C_cell`.
    pub fn cell_cap(&self) -> Farads {
        self.c_cell
    }

    /// The row-decoder sub-model, when the extension is enabled.
    pub fn decoder(&self) -> Option<&DecoderPower> {
        self.decoder.as_ref()
    }

    /// Static (leakage) power of the array — a post-paper extension
    /// (the MICRO 2002 models are dynamic-only; leakage arrived with
    /// Orion 2.0). Not included in any `*_energy` method.
    pub fn leakage_power(&self) -> orion_tech::Watts {
        self.leakage
    }

    /// Energy of one read operation:
    /// `E_read = E_wl + F (E_br + 2 E_chg + E_amp)`.
    ///
    /// A read discharges one bitline of each differential pair and
    /// precharges both back, independent of the data — hence no activity
    /// factor.
    pub fn read_energy(&self) -> Joules {
        self.e_read
    }

    /// Energy of one write operation:
    /// `E_wrt = E_wl + δ_bw E_bw + δ_bc E_cell`.
    pub fn write_energy(&self, activity: &WriteActivity) -> Joules {
        self.e_wordline
            + activity.switching_bitlines * self.e_bitline_write
            + activity.switching_cells * self.e_cell
            + self.e_decoder
    }

    /// Convenience: write energy under the expected uniform-random
    /// activity (`δ_bw = δ_bc = F/2`).
    pub fn write_energy_uniform(&self) -> Joules {
        self.write_energy(&WriteActivity::uniform_random(self.params_bits))
    }

    /// Worst-case write energy (every bitline and cell toggles).
    pub fn write_energy_max(&self) -> Joules {
        self.write_energy(&WriteActivity::worst_case(self.params_bits))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_tech::ProcessNode;

    fn tech() -> Technology {
        Technology::new(ProcessNode::Nm100)
    }

    fn model(b: u32, f: u32) -> BufferPower {
        BufferPower::new(&BufferParams::new(b, f), tech()).expect("valid params")
    }

    #[test]
    fn rejects_zero_dimensions() {
        assert!(BufferPower::new(&BufferParams::new(0, 32), tech()).is_err());
        assert!(BufferPower::new(&BufferParams::new(4, 0), tech()).is_err());
        assert!(BufferPower::new(&BufferParams::new(4, 32).with_ports(0, 1), tech()).is_err());
        assert!(BufferPower::new(&BufferParams::new(4, 32).with_ports(1, 0), tech()).is_err());
    }

    #[test]
    fn wordline_length_formula() {
        // L_wl = F (w_cell + 2 (P_r+P_w) d_w) with F=32, 1R1W.
        let m = model(4, 32);
        let t = tech();
        let expect = 32.0 * (t.cell_width().0 + 2.0 * 2.0 * t.wire_spacing().0);
        assert!((m.wordline_length().0 - expect).abs() < 1e-9);
    }

    #[test]
    fn bitline_length_formula() {
        let m = model(4, 32);
        let t = tech();
        let expect = 4.0 * (t.cell_height().0 + 2.0 * t.wire_spacing().0);
        assert!((m.bitline_length().0 - expect).abs() < 1e-9);
    }

    #[test]
    fn bitline_cap_grows_with_depth() {
        // C_br ∝ B — deeper buffers cost more per access. This drives the
        // WH64-vs-VC16 power difference in Fig. 5b.
        let shallow = model(16, 256);
        let deep = model(64, 256);
        assert!(deep.read_bitline_cap().0 > shallow.read_bitline_cap().0);
        assert!(deep.read_energy().0 > shallow.read_energy().0);
        assert!(deep.write_energy_uniform().0 > shallow.write_energy_uniform().0);
    }

    #[test]
    fn wordline_cap_grows_with_width() {
        let narrow = model(16, 32);
        let wide = model(16, 256);
        assert!(wide.wordline_cap().0 > narrow.wordline_cap().0);
    }

    #[test]
    fn more_ports_cost_more() {
        let one = BufferPower::new(&BufferParams::new(16, 64), tech()).unwrap();
        let two = BufferPower::new(&BufferParams::new(16, 64).with_ports(2, 2), tech()).unwrap();
        assert!(two.wordline_cap().0 > one.wordline_cap().0);
        assert!(two.read_bitline_cap().0 > one.read_bitline_cap().0);
        assert!(two.cell_cap().0 > one.cell_cap().0);
        assert!(two.read_energy().0 > one.read_energy().0);
    }

    #[test]
    fn read_energy_independent_of_data() {
        // Read energy has no activity factor (both bitlines precharged).
        let m = model(8, 64);
        assert_eq!(m.read_energy(), m.read_energy());
        assert!(m.read_energy().0 > 0.0);
    }

    #[test]
    fn write_energy_scales_with_activity() {
        let m = model(8, 64);
        let none = m.write_energy(&WriteActivity::NONE);
        let half = m.write_energy_uniform();
        let max = m.write_energy_max();
        assert!(none.0 > 0.0, "wordline still fires with no data switching");
        assert!(half.0 > none.0);
        assert!(max.0 > half.0);
        // Linear in activity: max - none == 2 (half - none).
        let lin = (max.0 - none.0) - 2.0 * (half.0 - none.0);
        assert!(lin.abs() < 1e-24);
    }

    #[test]
    fn write_bitline_cap_exceeds_read_when_driver_large() {
        let m = model(8, 64);
        // C_bw includes the full driver C_a; C_br only a precharge drain.
        assert!(m.write_bitline_cap().0 > 0.0 && m.read_bitline_cap().0 > 0.0);
    }

    #[test]
    fn energy_shrinks_with_technology() {
        let big = BufferPower::new(
            &BufferParams::new(16, 64),
            Technology::new(ProcessNode::Um800),
        )
        .unwrap();
        let small = BufferPower::new(&BufferParams::new(16, 64), tech()).unwrap();
        assert!(big.read_energy().0 > small.read_energy().0);
    }

    #[test]
    fn decoder_extension_adds_energy() {
        let plain = BufferPower::new(&BufferParams::new(64, 64), tech()).unwrap();
        let decoded = BufferPower::new(&BufferParams::new(64, 64).with_decoder(), tech()).unwrap();
        assert!(plain.decoder().is_none());
        assert!(decoded.decoder().is_some());
        assert!(decoded.read_energy().0 > plain.read_energy().0);
        assert!(decoded.write_energy_uniform().0 > plain.write_energy_uniform().0);
        // Second-order term: less than 20% of the access energy.
        let extra = decoded.read_energy().0 - plain.read_energy().0;
        assert!(extra < 0.2 * plain.read_energy().0);
    }

    #[test]
    fn leakage_scales_with_array_size() {
        let small = model(16, 64);
        let large = model(64, 256);
        assert!(large.leakage_power().0 > 10.0 * small.leakage_power().0);
        assert!(small.leakage_power().0 > 0.0);
    }

    #[test]
    fn table2_composition_of_read_energy() {
        // E_read must equal its Table 2 decomposition exactly.
        let m = model(8, 64);
        let vdd = tech().vdd();
        let e_wl = switch_energy(m.wordline_cap(), vdd);
        let e_br = switch_energy(m.read_bitline_cap(), vdd);
        let e_chg = switch_energy(m.precharge_cap(), vdd);
        let e_amp = switch_energy(tech().sense_amp_cap(), vdd);
        let expect = e_wl + 64.0 * (e_br + 2.0 * e_chg + e_amp);
        assert!((m.read_energy().0 - expect.0).abs() < 1e-27);
    }
}
