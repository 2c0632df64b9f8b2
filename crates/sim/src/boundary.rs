//! The boundary-link interface between network shards.
//!
//! A sharded run partitions the topology's nodes into contiguous
//! ranges, each owned by one [`Network`](crate::network::Network)
//! instance. Links whose endpoints live in different shards cannot be
//! scheduled on the owner's local event wheel — the flit (or credit)
//! must physically move to the destination shard's state. This module
//! defines the messages that cross that boundary and the [`ShardIo`]
//! trait the engine emits them through.
//!
//! The determinism contract (see `docs/SCALING.md`) rests on two
//! properties of these messages:
//!
//! * **Fixed latency.** A boundary flit is delivered at `cycle + 2`
//!   and a boundary credit at `cycle + 1` — exactly the latencies of
//!   the local event wheel — so no shard can observe an effect of the
//!   current cycle's computation elsewhere. One barrier per cycle is
//!   enough.
//! * **Fixed total order.** The destination shard drains inbound
//!   messages per source shard, in ascending source-shard order,
//!   interleaving its own local wheel slot at its own position. With
//!   contiguous ascending node ranges this reproduces the single-shard
//!   engine's ascending-source-node slot order bit for bit.

use orion_net::{DorPath, NodeId};

use crate::flit::Flit;

/// A flit crossing a shard boundary: the owned [`Flit`] (removed from
/// the source shard's arena) plus the link-arrival metadata the
/// destination needs to finish the traversal.
#[derive(Debug, Clone)]
pub struct FlitMsg {
    /// Destination node (owned by the receiving shard).
    pub dest: usize,
    /// Input port at the destination router.
    pub in_port: usize,
    /// Dimension of the link being crossed.
    pub crossed_dim: u8,
    /// Whether the link wraps around a torus edge (dateline).
    pub wraparound: bool,
    /// The flit itself, removed from the sender's arena; the receiver
    /// re-homes it in its own.
    pub flit: Flit,
}

/// A credit crossing a shard boundary back to an upstream router.
#[derive(Debug, Clone, Copy)]
pub struct CreditMsg {
    /// Upstream node (owned by the receiving shard).
    pub dest: usize,
    /// Output port whose credit count increments.
    pub out_port: usize,
    /// Virtual channel within the port.
    pub vc: usize,
}

/// Outbound half of the boundary interface. The engine calls this from
/// `run_routers` when a departure's wire (or a credit's upstream
/// router) lies outside the owned node range.
pub trait ShardIo {
    /// Ships `msg` to `dst_shard`, to be delivered at `deliver_cycle`.
    fn send_flit(&mut self, dst_shard: usize, deliver_cycle: u64, msg: FlitMsg);
    /// Ships `msg` to `dst_shard`, to be delivered at `deliver_cycle`.
    fn send_credit(&mut self, dst_shard: usize, deliver_cycle: u64, msg: CreditMsg);
}

/// The single-shard [`ShardIo`]: a whole-network engine owns every
/// node, so nothing ever crosses a boundary.
#[derive(Debug, Default, Clone, Copy)]
pub struct NullIo;

impl ShardIo for NullIo {
    fn send_flit(&mut self, _dst_shard: usize, _deliver_cycle: u64, _msg: FlitMsg) {
        unreachable!("a whole-network engine never crosses a shard boundary");
    }

    fn send_credit(&mut self, _dst_shard: usize, _deliver_cycle: u64, _msg: CreditMsg) {
        unreachable!("a whole-network engine never crosses a shard boundary");
    }
}

use crate::snapshot::{ByteReader, ByteWriter, SnapshotError};

impl FlitMsg {
    /// Serialises the message for mailbox snapshots. The flit's route
    /// is not written: it is a function of the topology and the
    /// flit's endpoints, rebuilt by [`FlitMsg::decode`].
    pub fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.dest);
        w.usize(self.in_port);
        w.u8(self.crossed_dim);
        w.bool(self.wraparound);
        let f = &self.flit;
        w.u64(f.packet.0);
        w.u32(f.seq);
        w.u32(f.packet_len);
        w.usize(f.src.0);
        w.usize(f.dst.0);
        w.u16(f.hop);
        w.u64(f.payload);
        w.u64(f.created);
        w.u64(f.ready);
        w.u8(f.vc_class);
        w.u8(f.target_vc);
        w.bool(f.tagged);
    }

    /// Decodes a message encoded by [`FlitMsg::encode`], validating
    /// every index against `topology` and the routers' `vcs` virtual
    /// channels per port, and rebuilding the flit's route along
    /// `visit`, the network's dimension visit order (see
    /// [`DimensionOrder::order`](orion_net::DimensionOrder::order)).
    pub fn decode(
        r: &mut ByteReader<'_>,
        topology: &orion_net::Topology,
        visit: &[usize],
        vcs: usize,
    ) -> Result<FlitMsg, SnapshotError> {
        let n = topology.num_nodes();
        let dims = topology.dims();
        let ports = topology.ports_per_router();
        let dest = r.usize()?;
        let in_port = r.usize()?;
        if dest >= n || in_port == 0 || in_port >= ports {
            return Err(SnapshotError::Invalid("boundary flit port"));
        }
        let crossed_dim = r.u8()?;
        if (crossed_dim as usize) >= dims {
            return Err(SnapshotError::Invalid("boundary flit dimension"));
        }
        let wraparound = r.bool()?;
        let packet = crate::flit::PacketId(r.u64()?);
        let seq = r.u32()?;
        let packet_len = r.u32()?;
        if seq >= packet_len {
            return Err(SnapshotError::Invalid("boundary flit sequence"));
        }
        let src = r.usize()?;
        let dst = r.usize()?;
        if src >= n || dst >= n {
            return Err(SnapshotError::Invalid("boundary flit endpoint"));
        }
        let path = DorPath::new(topology, NodeId(src), NodeId(dst), visit);
        let hop = r.u16()?;
        if hop as usize >= path.hop_count() {
            return Err(SnapshotError::Invalid("boundary flit hop"));
        }
        let payload = r.u64()?;
        let created = r.u64()?;
        let ready = r.u64()?;
        let vc_class = r.u8()?;
        let target_vc = r.u8()?;
        if vc_class > 1 || target_vc as usize >= vcs {
            return Err(SnapshotError::Invalid("boundary flit vc"));
        }
        Ok(FlitMsg {
            dest,
            in_port,
            crossed_dim,
            wraparound,
            flit: Flit {
                packet,
                seq,
                packet_len,
                src: NodeId(src),
                dst: NodeId(dst),
                path,
                hop,
                payload,
                created,
                ready,
                vc_class,
                target_vc,
                tagged: r.bool()?,
            },
        })
    }
}

impl CreditMsg {
    /// Serialises the message for mailbox snapshots.
    pub fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.dest);
        w.usize(self.out_port);
        w.usize(self.vc);
    }

    /// Decodes a message encoded by [`CreditMsg::encode`], validating
    /// its indices against `topology` and the routers' `vcs` virtual
    /// channels per port.
    pub fn decode(
        r: &mut ByteReader<'_>,
        topology: &orion_net::Topology,
        vcs: usize,
    ) -> Result<CreditMsg, SnapshotError> {
        let dest = r.usize()?;
        let out_port = r.usize()?;
        let vc = r.usize()?;
        if dest >= topology.num_nodes() || out_port == 0 || out_port >= topology.ports_per_router()
        {
            return Err(SnapshotError::Invalid("boundary credit port"));
        }
        if vc >= vcs {
            return Err(SnapshotError::Invalid("boundary credit vc"));
        }
        Ok(CreditMsg { dest, out_port, vc })
    }
}

#[cfg(test)]
mod tests {
    use orion_net::{DimensionOrder, Topology};

    use super::*;
    use crate::flit::{make_packet_each, PacketId};

    fn flit_msg(topology: &Topology, visit: &[usize], target_vc: u8) -> FlitMsg {
        let path = DorPath::new(topology, NodeId(0), NodeId(5), visit);
        let mut flit = None;
        make_packet_each(PacketId(3), NodeId(0), NodeId(5), path, 1, 0, true, |f| {
            flit = Some(f)
        });
        let mut flit = flit.expect("one flit");
        flit.target_vc = target_vc;
        FlitMsg {
            dest: 4,
            in_port: 4,
            crossed_dim: 1,
            wraparound: false,
            flit,
        }
    }

    #[test]
    fn decoders_reject_a_vc_the_router_lacks() {
        let topology = Topology::torus(&[4, 4]).expect("valid");
        let visit = DimensionOrder::YFirst.order(2);
        for (target_vc, ok) in [(1, true), (2, false)] {
            let mut w = ByteWriter::new();
            flit_msg(&topology, &visit, target_vc).encode(&mut w);
            let bytes = w.into_vec();
            let decoded = FlitMsg::decode(&mut ByteReader::new(&bytes), &topology, &visit, 2);
            assert_eq!(decoded.is_ok(), ok, "target vc {target_vc}");
        }
        for (vc, ok) in [(1, true), (2, false)] {
            let mut w = ByteWriter::new();
            CreditMsg {
                dest: 1,
                out_port: 2,
                vc,
            }
            .encode(&mut w);
            let bytes = w.into_vec();
            let decoded = CreditMsg::decode(&mut ByteReader::new(&bytes), &topology, 2);
            assert_eq!(decoded.is_ok(), ok, "credit vc {vc}");
        }
    }
}
