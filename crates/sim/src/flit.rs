//! Flits and packets.
//!
//! A flit is "the smallest unit of flow control … a fixed-sized unit of a
//! packet" (paper §3.3). The paper's experiments use 5-flit packets — a
//! head flit leading 4 data flits (§4.1). Since the paper prescribes
//! source routing, every flit carries its packet's route inline — a
//! [`DorPath`], a fixed-size `Copy` value built once per packet — and
//! its current hop index. No flit holds a heap object or a refcount.

use std::sync::Arc;

use orion_net::{DorPath, NodeId, Port, Route};

/// Unique identifier of a packet within a simulation run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(pub u64);

impl std::fmt::Display for PacketId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "p{}", self.0)
    }
}

/// One flit of a packet in flight.
#[derive(Debug, Clone)]
pub struct Flit {
    /// The packet this flit belongs to.
    pub packet: PacketId,
    /// Index of this flit within its packet (0 = head).
    pub seq: u32,
    /// Total flits in the packet.
    pub packet_len: u32,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// The source route, inline (the same value in every flit of the
    /// packet).
    pub path: DorPath,
    /// Index of the hop the flit takes at the *current* router (see
    /// [`DorPath::port`]).
    pub hop: u16,
    /// 64-bit payload sample used for switching-activity tracking;
    /// widths other than 64 are handled by scaling (see
    /// [`scaled_hamming`](crate::energy::scaled_hamming)).
    pub payload: u64,
    /// Cycle at which the packet was created (for latency measurement —
    /// the paper measures "from when the first flit of the packet is
    /// created", §4.1).
    pub created: u64,
    /// Earliest cycle this flit may compete for the switch at its
    /// current router (models the pipeline register after buffer write).
    pub ready: u64,
    /// Dateline class for torus deadlock avoidance (0 before crossing
    /// the wrap-around link of the current dimension, 1 after).
    pub vc_class: u8,
    /// The downstream input VC this flit targets, assigned at switch
    /// allocation from the packet's allocated output VC.
    pub target_vc: u8,
    /// Whether this packet is in the measured sample window.
    pub tagged: bool,
}

impl Flit {
    /// `true` for the first flit of a packet.
    pub fn is_head(&self) -> bool {
        self.seq == 0
    }

    /// `true` for the last flit of a packet.
    pub fn is_tail(&self) -> bool {
        self.seq + 1 == self.packet_len
    }

    /// The output port this flit takes at the current router.
    pub fn out_port(&self) -> Port {
        self.path.port(self.hop)
    }
}

/// Deterministic payload generator (SplitMix64). Gives flits
/// data-dependent switching activity without a random-number dependency.
pub fn payload_for(packet: PacketId, seq: u32) -> u64 {
    let mut z = packet
        .0
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(seq as u64)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Builds the flits of one packet, handing each to `sink` in sequence
/// order. The closure form lets the engine store flits straight into
/// the flit arena without materialising a per-packet `Vec` (the hot
/// injection path); [`make_packet`] wraps it for callers that want one.
///
/// # Panics
///
/// Panics if `len` is zero.
#[allow(clippy::too_many_arguments)]
pub fn make_packet_each(
    id: PacketId,
    src: NodeId,
    dst: NodeId,
    path: DorPath,
    len: u32,
    created: u64,
    tagged: bool,
    mut sink: impl FnMut(Flit),
) {
    assert!(len > 0, "packets have at least one flit");
    for seq in 0..len {
        sink(Flit {
            packet: id,
            seq,
            packet_len: len,
            src,
            dst,
            path,
            hop: 0,
            payload: payload_for(id, seq),
            created,
            ready: created,
            vc_class: 0,
            target_vc: 0,
            tagged,
        });
    }
}

/// Builds the flits of one packet along `route`.
///
/// # Panics
///
/// Panics if `len` is zero, or if `route` is not dimension-ordered
/// enough to fit a [`DorPath`] (see [`DorPath::from_route`]).
#[allow(clippy::too_many_arguments)]
pub fn make_packet(
    id: PacketId,
    src: NodeId,
    dst: NodeId,
    route: Arc<Route>,
    len: u32,
    created: u64,
    tagged: bool,
) -> Vec<Flit> {
    let mut flits = Vec::with_capacity(len as usize);
    let path = DorPath::from_route(&route);
    make_packet_each(id, src, dst, path, len, created, tagged, |f| flits.push(f));
    flits
}

#[cfg(test)]
mod tests {
    use super::*;
    use orion_net::{dor_route, DimensionOrder, Topology};

    fn route() -> Arc<Route> {
        let t = Topology::torus(&[4, 4]).unwrap();
        Arc::new(dor_route(&t, NodeId(0), NodeId(5), DimensionOrder::YFirst))
    }

    #[test]
    fn head_and_tail_flags() {
        let flits = make_packet(PacketId(1), NodeId(0), NodeId(5), route(), 5, 0, false);
        assert_eq!(flits.len(), 5);
        assert!(flits[0].is_head() && !flits[0].is_tail());
        assert!(!flits[4].is_head() && flits[4].is_tail());
        assert!(!flits[2].is_head() && !flits[2].is_tail());
    }

    #[test]
    fn single_flit_packet_is_head_and_tail() {
        let flits = make_packet(PacketId(1), NodeId(0), NodeId(5), route(), 1, 0, false);
        assert!(flits[0].is_head() && flits[0].is_tail());
    }

    #[test]
    fn payloads_vary_but_are_deterministic() {
        let a = payload_for(PacketId(3), 0);
        let b = payload_for(PacketId(3), 1);
        let c = payload_for(PacketId(4), 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, payload_for(PacketId(3), 0));
    }

    #[test]
    fn out_port_follows_route() {
        let flits = make_packet(PacketId(1), NodeId(0), NodeId(5), route(), 5, 0, false);
        let r = route();
        assert_eq!(flits[0].out_port(), r.hops()[0]);
        let mut f = flits[0].clone();
        f.hop = 1;
        assert_eq!(f.out_port(), r.hops()[1]);
    }

    #[test]
    #[should_panic(expected = "at least one flit")]
    fn zero_length_packet_rejected() {
        let _ = make_packet(PacketId(1), NodeId(0), NodeId(5), route(), 0, 0, false);
    }
}
