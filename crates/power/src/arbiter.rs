//! Arbiter power models — Table 4 and the Appendix of the paper.
//!
//! The paper models three arbiter types: **matrix**, **round-robin** and
//! **queuing**. Table 4 gives the matrix arbiter in detail; for `R`
//! requesters it has `R` request lines, `R` grant lines and
//! `R(R−1)/2` priority flip-flops, with each grant produced by a
//! two-level NOR structure (`T_N1` first level, `T_N2` second level,
//! `T_I` inverters):
//!
//! ```text
//! C_req = (R−1)·C_g(T_N1) + C_a(T_I) + C_w(L_req)
//! C_pri = 2·C_g(T_N1) + C_ff                      (priority flip-flop)
//! C_int = C_d(T_N1) + C_g(T_N2)                   (internal NOR node)
//! C_gnt = C_d(T_N2) + C_a(T_I)
//!
//! E_arb = δ_req·E_req + δ_pri·E_pri + δ_int·E_int + E_gnt + E_xb_ctr
//! ```
//!
//! Two Appendix rules are reproduced exactly:
//!
//! * `E_xb_ctr` is part of `E_arb` "because arbiter grant signals drive
//!   crossbar control signals so they have identical switching behavior";
//! * "since each arbitration grants one and only one request, there is no
//!   switching activity factor applied to `E_gnt` and `E_xb_ctr`".
//!
//! The **round-robin** arbiter replaces the priority matrix with a
//! one-hot token ring of `R` flip-flops; the **queuing** arbiter is a
//! FIFO of requester IDs and reuses the [`BufferPower`] model — an
//! instance of the paper's hierarchical model reuse (§3.2).

use orion_tech::{
    switch_energy, Capacitor, Farads, Joules, Technology, TransistorKind, TransistorSizes,
};

use crate::buffer::{BufferParams, BufferPower};
use crate::error::ModelError;
use crate::flipflop::FlipFlopPower;

/// Arbiter implementation style.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum ArbiterKind {
    /// Matrix arbiter with `R(R−1)/2` priority flip-flops (Table 4).
    Matrix,
    /// Round-robin arbiter with a one-hot token ring.
    RoundRobin,
    /// Queuing (FCFS) arbiter: a FIFO of requester IDs.
    Queuing,
}

/// Architectural parameters of an arbiter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArbiterParams {
    /// Implementation style.
    pub kind: ArbiterKind,
    /// `R` — number of requesters.
    pub requesters: u32,
    /// Transistor sizes; defaults to the Cacti library.
    pub sizes: TransistorSizes,
}

impl ArbiterParams {
    /// Creates parameters for a `kind` arbiter over `requesters` inputs.
    ///
    /// ```
    /// use orion_power::{ArbiterKind, ArbiterParams};
    /// let p = ArbiterParams::new(ArbiterKind::Matrix, 4);
    /// assert_eq!(p.requesters, 4);
    /// ```
    pub fn new(kind: ArbiterKind, requesters: u32) -> ArbiterParams {
        ArbiterParams {
            kind,
            requesters,
            sizes: TransistorSizes::default(),
        }
    }

    fn validate(&self) -> Result<(), ModelError> {
        if self.requesters < 2 {
            return Err(ModelError::invalid(
                "requesters",
                "an arbiter needs at least 2 requesters",
            ));
        }
        if self.requesters > 64 {
            return Err(ModelError::invalid(
                "requesters",
                "request masks are limited to 64 requesters",
            ));
        }
        Ok(())
    }
}

/// Per-arbitration switching statistics supplied by the functional
/// simulator.
///
/// The paper: "the switching activity factors `δ_x` are monitored and
/// calculated through simulation". The functional arbiter in `orion-sim`
/// produces these; analytic users can fill in expected values.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ArbiterActivity {
    /// `δ_req` — request lines that toggled since the previous
    /// arbitration.
    pub request_toggles: u32,
    /// `δ_pri` — priority state bits that flipped (matrix: priority
    /// matrix updates; round-robin: token movement; queuing: unused).
    pub priority_flips: u32,
    /// Newly-arrived requests (used by the queuing arbiter: one FIFO
    /// write each).
    pub new_requests: u32,
}

/// Arbiter power model.
///
/// ```
/// use orion_power::{ArbiterKind, ArbiterParams, ArbiterPower};
/// use orion_tech::{ProcessNode, Technology};
///
/// let arb = ArbiterPower::new(
///     &ArbiterParams::new(ArbiterKind::Matrix, 4),
///     Technology::new(ProcessNode::Nm100),
/// )?;
/// // Requests 0b0011 arrive where none were pending; grant flips two
/// // priority bits:
/// let e = arb.arbitration_energy(0b0011, 0b0000, 2);
/// assert!(e.0 > 0.0);
/// # Ok::<(), orion_power::ModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ArbiterPower {
    kind: ArbiterKind,
    requesters: u32,
    vdd: orion_tech::Volts,
    c_request: Farads,
    c_priority: Farads,
    c_internal: Farads,
    c_grant: Farads,
    /// Energy of the crossbar control line this arbiter drives
    /// (`E_xb_ctr`); zero when the arbiter is not wired to a crossbar.
    control_energy: Joules,
    /// FIFO model backing the queuing arbiter.
    queue: Option<BufferPower>,
    /// Flip-flop model for priority bits / token ring.
    flipflop: FlipFlopPower,
    leakage: orion_tech::Watts,
    /// Per-event constants, computed once in [`ArbiterPower::new`]:
    /// `E_req`, `E_gnt`, `E_req + E_int` (one toggled request line),
    /// and the kind's per-flip energy (`E_pri` for matrix, a flop
    /// toggle for round-robin; unused by queuing).
    e_request: Joules,
    e_grant: Joules,
    e_request_internal: Joules,
    e_flip: Joules,
    /// The queuing FIFO's uniform write and read energies (zero for the
    /// other kinds).
    e_queue_write: Joules,
    e_queue_read: Joules,
}

impl ArbiterPower {
    /// Builds the model for `params` at `tech`.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidParameter`] if `requesters < 2` or
    /// `requesters > 64`.
    pub fn new(params: &ArbiterParams, tech: Technology) -> Result<ArbiterPower, ModelError> {
        params.validate()?;
        let cap = Capacitor::new(tech);
        let s = &params.sizes;
        let r = params.requesters as f64;
        let ff = FlipFlopPower::with_sizes(tech, s);

        // Request line spans the arbiter cell column: approximate one
        // priority-cell pitch (2 wire pitches) per requester.
        let req_wire = orion_tech::Microns(2.0 * r * tech.wire_spacing().0);

        // C_req = (R−1)·C_g(T_N1) + C_a(T_I) + C_w(L_req)
        let c_request = (r - 1.0) * cap.gate_cap(s.nor_input)
            + cap.inverter_cap(s.inv_nmos, s.inv_pmos)
            + cap.wire_cap(req_wire);
        // C_pri = 2·C_g(T_N1) + C_ff
        let c_priority = 2.0 * cap.gate_cap(s.nor_input) + ff.data_cap();
        // C_int = C_d(T_N1) + C_g(T_N2) — 2-high NOR pull-down stack.
        let c_internal =
            cap.drain_cap(s.nor_input, TransistorKind::N, 2) + cap.gate_cap(s.nor_input);
        // C_gnt = C_d(T_N2) + C_a(T_I)
        let c_grant = cap.drain_cap(s.nor_input, TransistorKind::N, 2)
            + cap.inverter_cap(s.inv_nmos, s.inv_pmos);

        let queue = match params.kind {
            ArbiterKind::Queuing => {
                // FIFO of requester IDs: R entries of ⌈log₂R⌉ bits.
                let id_bits = (params.requesters.max(2) as f64).log2().ceil() as u32;
                Some(BufferPower::new(
                    &BufferParams::new(params.requesters, id_bits).with_sizes(*s),
                    tech,
                )?)
            }
            _ => None,
        };

        // Leakage (post-paper extension): the NOR array (2 inputs per
        // requester pair), R grant inverters and the priority storage.
        let storage_flops = match params.kind {
            ArbiterKind::Matrix => (params.requesters * (params.requesters - 1) / 2) as f64,
            ArbiterKind::RoundRobin => params.requesters as f64,
            ArbiterKind::Queuing => 0.0,
        };
        let gate_width = r * (r - 1.0) * 2.0 * s.nor_input
            + r * (s.inv_nmos + s.inv_pmos)
            + storage_flops * 4.0 * (s.ff_nmos + s.ff_pmos);
        let leakage = orion_tech::Watts(
            tech.leakage_power(gate_width).0
                + queue.as_ref().map(|q| q.leakage_power().0).unwrap_or(0.0),
        );

        let vdd = tech.vdd();
        let e_request = switch_energy(c_request, vdd);
        let e_flip = match params.kind {
            ArbiterKind::Matrix => switch_energy(c_priority, vdd),
            ArbiterKind::RoundRobin => ff.toggle_energy(),
            ArbiterKind::Queuing => Joules::ZERO,
        };
        let (e_queue_write, e_queue_read) = queue
            .as_ref()
            .map(|q| (q.write_energy_uniform(), q.read_energy()))
            .unwrap_or((Joules::ZERO, Joules::ZERO));

        Ok(ArbiterPower {
            kind: params.kind,
            requesters: params.requesters,
            vdd,
            c_request,
            c_priority,
            c_internal,
            c_grant,
            control_energy: Joules::ZERO,
            queue,
            flipflop: ff,
            leakage,
            e_request,
            e_grant: switch_energy(c_grant, vdd),
            e_request_internal: e_request + switch_energy(c_internal, vdd),
            e_flip,
            e_queue_write,
            e_queue_read,
        })
    }

    /// Attaches the crossbar control-line energy `E_xb_ctr` that this
    /// arbiter's grant lines drive (Appendix rule). Charged once per
    /// arbitration, with no activity factor.
    pub fn with_control_energy(mut self, e_xb_ctr: Joules) -> ArbiterPower {
        self.control_energy = e_xb_ctr;
        self
    }

    /// The implementation style.
    pub fn kind(&self) -> ArbiterKind {
        self.kind
    }

    /// `R` — number of requesters.
    pub fn requesters(&self) -> u32 {
        self.requesters
    }

    /// Request line capacitance `C_req`.
    pub fn request_cap(&self) -> Farads {
        self.c_request
    }

    /// Priority bit capacitance `C_pri`.
    pub fn priority_cap(&self) -> Farads {
        self.c_priority
    }

    /// Internal NOR-node capacitance `C_int`.
    pub fn internal_cap(&self) -> Farads {
        self.c_internal
    }

    /// Grant line capacitance `C_gnt`.
    pub fn grant_cap(&self) -> Farads {
        self.c_grant
    }

    /// Static (leakage) power — a post-paper extension; not included in
    /// any `*_energy` method.
    pub fn leakage_power(&self) -> orion_tech::Watts {
        self.leakage
    }

    /// Energy of one arbitration given explicit switching statistics.
    pub fn arbitration_energy_with(&self, activity: &ArbiterActivity) -> Joules {
        match self.kind {
            // Matrix: each toggled request line disturbs the internal
            // NOR nodes along its row (one per other requester on the
            // granted path — modelled as one node per toggle); each
            // priority flip charges `E_pri`. Round-robin: the token
            // moves between two ring flops per arbitration (leave one,
            // enter another), carry propagation approximated by the
            // internal node per request toggle.
            ArbiterKind::Matrix | ArbiterKind::RoundRobin => {
                activity.request_toggles as f64 * self.e_request_internal
                    + activity.priority_flips as f64 * self.e_flip
                    + self.e_grant
                    + self.control_energy
            }
            ArbiterKind::Queuing => {
                // Each new request enqueues its ID; each grant dequeues.
                activity.new_requests as f64 * self.e_queue_write
                    + self.e_queue_read
                    + activity.request_toggles as f64 * self.e_request
                    + self.e_grant
                    + self.control_energy
            }
        }
    }

    /// Energy of one arbitration computed from request masks.
    ///
    /// `requests` and `prev_requests` are bitmasks of pending requests at
    /// this and the previous arbitration; `priority_flips` is the number
    /// of priority-state bits the grant updated (supplied by the
    /// functional arbiter).
    pub fn arbitration_energy(
        &self,
        requests: u64,
        prev_requests: u64,
        priority_flips: u32,
    ) -> Joules {
        let toggles = (requests ^ prev_requests).count_ones();
        let new = (requests & !prev_requests).count_ones();
        self.arbitration_energy_with(&ArbiterActivity {
            request_toggles: toggles,
            priority_flips,
            new_requests: new,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_tech::ProcessNode;

    fn tech() -> Technology {
        Technology::new(ProcessNode::Nm100)
    }

    fn matrix(r: u32) -> ArbiterPower {
        ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, r), tech()).expect("valid")
    }

    #[test]
    fn rejects_degenerate_requesters() {
        assert!(ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 1), tech()).is_err());
        assert!(ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 0), tech()).is_err());
        assert!(ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 65), tech()).is_err());
        assert!(ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Matrix, 64), tech()).is_ok());
    }

    #[test]
    fn request_cap_grows_with_requesters() {
        assert!(matrix(8).request_cap().0 > matrix(2).request_cap().0);
    }

    #[test]
    fn grant_charged_without_activity_factor() {
        // Appendix: E_gnt (+E_xb_ctr) charged once per arbitration even
        // with zero request/priority switching.
        let arb = matrix(4);
        let e = arb.arbitration_energy(0b0001, 0b0001, 0);
        let e_gnt = switch_energy(arb.grant_cap(), tech().vdd());
        assert!((e.0 - e_gnt.0).abs() < 1e-27);
    }

    #[test]
    fn control_energy_added_flat() {
        let base = matrix(4);
        let wired = matrix(4).with_control_energy(Joules::from_pj(1.0));
        let d = wired.arbitration_energy(0b0011, 0b0001, 1).0
            - base.arbitration_energy(0b0011, 0b0001, 1).0;
        assert!((d - 1.0e-12).abs() < 1e-24);
    }

    #[test]
    fn energy_monotone_in_toggles_and_flips() {
        let arb = matrix(8);
        let e0 = arb.arbitration_energy(0b0000_0001, 0b0000_0001, 0);
        let e1 = arb.arbitration_energy(0b0000_0011, 0b0000_0001, 0);
        let e2 = arb.arbitration_energy(0b0000_0011, 0b0000_0001, 3);
        assert!(e1.0 > e0.0);
        assert!(e2.0 > e1.0);
    }

    #[test]
    fn round_robin_and_queuing_positive() {
        for kind in [ArbiterKind::RoundRobin, ArbiterKind::Queuing] {
            let arb = ArbiterPower::new(&ArbiterParams::new(kind, 5), tech()).unwrap();
            let e = arb.arbitration_energy(0b10110, 0b00010, 2);
            assert!(e.0 > 0.0, "{kind:?}");
        }
    }

    #[test]
    fn queuing_charges_fifo_writes_per_new_request() {
        let arb = ArbiterPower::new(&ArbiterParams::new(ArbiterKind::Queuing, 4), tech()).unwrap();
        // Same toggles, different new-request counts.
        let e_one_new = arb.arbitration_energy_with(&ArbiterActivity {
            request_toggles: 2,
            priority_flips: 0,
            new_requests: 1,
        });
        let e_two_new = arb.arbitration_energy_with(&ArbiterActivity {
            request_toggles: 2,
            priority_flips: 0,
            new_requests: 2,
        });
        assert!(e_two_new.0 > e_one_new.0);
    }

    #[test]
    fn arbiter_energy_is_small_vs_datapath() {
        // Fig. 5c: arbiter power < 1% of node power. Compare one matrix
        // arbitration against one 256-bit buffer read at the same node.
        use crate::buffer::{BufferParams, BufferPower};
        let arb = matrix(5);
        let buf = BufferPower::new(&BufferParams::new(64, 256), tech()).unwrap();
        let e_arb = arb.arbitration_energy(0b11111, 0b00000, 4);
        assert!(e_arb.0 < buf.read_energy().0 / 20.0);
    }

    #[test]
    fn leakage_grows_with_requesters() {
        assert!(matrix(16).leakage_power().0 > matrix(4).leakage_power().0);
        assert!(matrix(4).leakage_power().0 > 0.0);
    }

    #[test]
    fn mask_derivation_matches_explicit_activity() {
        let arb = matrix(8);
        let via_masks = arb.arbitration_energy(0b1100, 0b0110, 1);
        let via_activity = arb.arbitration_energy_with(&ArbiterActivity {
            request_toggles: 2,
            priority_flips: 1,
            new_requests: 1,
        });
        assert!((via_masks.0 - via_activity.0).abs() < 1e-30);
    }
}
