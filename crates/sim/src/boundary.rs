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
