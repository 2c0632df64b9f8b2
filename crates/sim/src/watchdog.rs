//! Stall detection and diagnostics.
//!
//! The paper's measurement discipline (§4.1) caps every run at a cycle
//! budget because "a wormhole torus without VC deadlock avoidance may
//! even deadlock". Waiting out a million-cycle budget to learn that is
//! wasteful and uninformative; [`Network::check_stall`] instead watches
//! for no-progress windows and classifies them, and
//! [`Network::stall_diagnostics`] captures *why* the network stopped —
//! which virtual channels hold flits, how full their buffers are, and
//! which head flits are blocked — at the moment of detection.
//!
//! [`Network::check_stall`]: crate::network::Network::check_stall
//! [`Network::stall_diagnostics`]: crate::network::Network::stall_diagnostics

use std::fmt;

use orion_net::NodeId;

use crate::flit::PacketId;

/// How a stalled run stopped making progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallKind {
    /// Flits are in flight but none has moved for a full window — a
    /// cyclic resource dependency (the torus wrap-around cycle of
    /// §4.1's warning, absent dateline/escape VC classes).
    Deadlock,
    /// Flits keep moving but no packet has completed delivery for a
    /// full window.
    Livelock,
    /// Deliveries continue but the offered load exceeds capacity: the
    /// source backlog diverges instead of draining.
    Saturation,
}

impl StallKind {
    /// The watchdog verdict for a network that still holds flits, from
    /// its network-wide progress clocks: `since_progress` cycles since
    /// any flit moved, and — when some injected packet is not yet
    /// delivered — `since_delivery` cycles on the livelock clock, which
    /// starts at the later of the last delivery and the last enqueue
    /// into an empty network. One definition shared by
    /// [`Network::check_stall`] and the sharded engine, so the verdict
    /// cannot depend on the shard count.
    ///
    /// [`Network::check_stall`]: crate::network::Network::check_stall
    pub fn classify(
        window: u64,
        since_progress: u64,
        since_delivery: Option<u64>,
    ) -> Option<StallKind> {
        if since_progress >= window {
            Some(StallKind::Deadlock)
        } else if since_delivery.is_some_and(|quiet| quiet >= window) {
            Some(StallKind::Livelock)
        } else {
            None
        }
    }
}

impl fmt::Display for StallKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StallKind::Deadlock => write!(f, "deadlock"),
            StallKind::Livelock => write!(f, "livelock"),
            StallKind::Saturation => write!(f, "saturation"),
        }
    }
}

/// One input VC (or central-router input FIFO) holding flits at the
/// moment of stall detection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StalledVc {
    /// Router node index.
    pub node: usize,
    /// Input port index (0 = local injection).
    pub port: usize,
    /// Virtual-channel index within the port (0 for central routers).
    pub vc: usize,
    /// Flits buffered in this VC.
    pub occupancy: usize,
    /// The packet whose flit heads the VC.
    pub packet: PacketId,
    /// That packet's source.
    pub src: NodeId,
    /// That packet's destination.
    pub dst: NodeId,
    /// Route hop index the head flit is waiting to take.
    pub hop: u16,
    /// Whether the head flit is a blocked *head* flit (start of a
    /// packet still negotiating resources) rather than a body/tail
    /// flit trailing an allocated path.
    pub head_blocked: bool,
}

/// Snapshot of network state captured when the watchdog fires.
///
/// Everything a post-mortem needs without keeping the (possibly huge)
/// network alive: progress clocks, buffer occupancy, and the per-VC
/// list of blocked packets.
#[derive(Debug, Clone, PartialEq)]
pub struct StallDiagnostics {
    /// Classification of the stall.
    pub kind: StallKind,
    /// Cycle at which the watchdog fired.
    pub cycle: u64,
    /// No-progress window that triggered detection.
    pub window: u64,
    /// Cycles since any flit moved (injected, departed a router, or
    /// ejected).
    pub cycles_since_flit_movement: u64,
    /// Cycles since a packet last completed delivery.
    pub cycles_since_delivery: u64,
    /// Cycles since a credit last returned upstream.
    pub cycles_since_credit: u64,
    /// Flits inside the network fabric (router buffers + links).
    pub flits_in_network: usize,
    /// Flits still waiting in per-node source queues.
    pub source_backlog: usize,
    /// Packets delivered before the stall.
    pub packets_delivered: u64,
    /// Input VCs holding flits, with their blocked head packets.
    pub stalled_vcs: Vec<StalledVc>,
}

impl StallDiagnostics {
    /// Whether the snapshot captured no occupied VCs (an empty
    /// diagnosis — possible only for [`StallKind::Saturation`], where
    /// the backlog lives in source queues).
    pub fn is_empty(&self) -> bool {
        self.stalled_vcs.is_empty()
    }

    /// Number of blocked *head* flits among the stalled VCs.
    pub fn blocked_head_flits(&self) -> usize {
        self.stalled_vcs.iter().filter(|v| v.head_blocked).count()
    }
}

impl fmt::Display for StallDiagnostics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} detected at cycle {} (window {}): {} flits in network, \
             {} queued at sources, no flit movement for {} cycles, \
             no delivery for {} cycles, no credit for {} cycles",
            self.kind,
            self.cycle,
            self.window,
            self.flits_in_network,
            self.source_backlog,
            self.cycles_since_flit_movement,
            self.cycles_since_delivery,
            self.cycles_since_credit,
        )?;
        writeln!(
            f,
            "{} occupied VCs, {} blocked head flits",
            self.stalled_vcs.len(),
            self.blocked_head_flits()
        )?;
        // Cap the listing: huge saturated networks occupy every VC.
        const MAX_LISTED: usize = 16;
        for v in self.stalled_vcs.iter().take(MAX_LISTED) {
            writeln!(
                f,
                "  n{} port {} vc {}: {} flits, {} {}->{} at hop {}{}",
                v.node,
                v.port,
                v.vc,
                v.occupancy,
                v.packet,
                v.src,
                v.dst,
                v.hop,
                if v.head_blocked {
                    " (head blocked)"
                } else {
                    ""
                },
            )?;
        }
        if self.stalled_vcs.len() > MAX_LISTED {
            writeln!(f, "  … and {} more", self.stalled_vcs.len() - MAX_LISTED)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> StallDiagnostics {
        StallDiagnostics {
            kind: StallKind::Deadlock,
            cycle: 5000,
            window: 1000,
            cycles_since_flit_movement: 1200,
            cycles_since_delivery: 1500,
            cycles_since_credit: 1100,
            flits_in_network: 40,
            source_backlog: 200,
            packets_delivered: 17,
            stalled_vcs: vec![StalledVc {
                node: 3,
                port: 1,
                vc: 0,
                occupancy: 4,
                packet: PacketId(9),
                src: NodeId(0),
                dst: NodeId(10),
                hop: 2,
                head_blocked: true,
            }],
        }
    }

    #[test]
    fn emptiness_and_head_counts() {
        let d = sample();
        assert!(!d.is_empty());
        assert_eq!(d.blocked_head_flits(), 1);
        let mut empty = d.clone();
        empty.stalled_vcs.clear();
        assert!(empty.is_empty());
        assert_eq!(empty.blocked_head_flits(), 0);
    }

    #[test]
    fn display_mentions_kind_and_counts() {
        let text = sample().to_string();
        assert!(text.contains("deadlock detected at cycle 5000"));
        assert!(text.contains("1 occupied VCs, 1 blocked head flits"));
        assert!(text.contains("n3 port 1 vc 0"));
        assert_eq!(StallKind::Saturation.to_string(), "saturation");
        assert_eq!(StallKind::Livelock.to_string(), "livelock");
    }
}
