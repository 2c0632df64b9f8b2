//! # orion-obs
//!
//! Zero-cost observability for the Orion simulator: a metrics
//! registry, a periodic per-node probe scheduler, and opt-in
//! flit-lifecycle tracing.
//!
//! The crate is a dependency-free leaf: it speaks plain `u64`/`usize`
//! so it never pulls simulator types into its API. The simulator holds
//! an `Option<ObsSink>`; every event site is a single `if let
//! Some(obs)` check, and with no sink attached a run is bit-identical
//! to an uninstrumented build (pinned by `orion-core`'s
//! `sweep_identity` test; the cost of a sink is the benchmark's
//! `obs.enabled_over_disabled`).
//!
//! ```
//! use orion_obs::{keys, ObsSink};
//!
//! let mut obs = ObsSink::new().with_tracer(16);
//! obs.packet_injected(1, 0, 5, 5, 100);
//! obs.sa_grant(0, 1, 104);
//! obs.packet_delivered(1, 115, 15);
//! let observations = obs.into_observations(10);
//! assert_eq!(observations.metrics.counters[0].0, keys::PACKETS_DELIVERED);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;
pub mod metrics;
pub mod probe;
pub mod trace;

pub use metrics::{
    Histogram, MetricsRegistry, MetricsSnapshot, DEFAULT_BOUNDS, METRICS_SCHEMA_VERSION,
};
pub use probe::{rows_to_jsonl, NodeState, ProbeRow, Prober, COMPONENTS, PROBE_SCHEMA_VERSION};
pub use trace::{
    spans_to_jsonl, FlitTracer, HopEvent, HopStage, PacketSpan, MAX_HOPS, TRACE_SCHEMA_VERSION,
};

/// Metric key catalog. All simulator-published metrics use these
/// static keys; docs/OBSERVABILITY.md mirrors this list.
pub mod keys {
    /// Packets enqueued at sources.
    pub const PACKETS_INJECTED: &str = "sim.packets.injected";
    /// Packets whose tail flit was ejected.
    pub const PACKETS_DELIVERED: &str = "sim.packets.delivered";
    /// Packets dropped (unroutable under faults).
    pub const PACKETS_DROPPED: &str = "sim.packets.dropped";
    /// Flits ejected at destinations.
    pub const FLITS_EJECTED: &str = "sim.flits.ejected";
    /// Virtual-channel allocation grants.
    pub const VA_GRANTS: &str = "sim.va.grants";
    /// Switch allocation grants (crossbar traversals start here).
    pub const SA_GRANTS: &str = "sim.sa.grants";
    /// Flits that traversed a link.
    pub const LINK_FLITS: &str = "sim.link.flits";
    /// Credits returned upstream.
    pub const CREDITS_RETURNED: &str = "sim.credits.returned";
    /// End-to-end packet latency histogram (cycles).
    pub const PACKET_LATENCY: &str = "sim.packet.latency_cycles";
    /// Source-queuing portion of traced-packet latency (cycles).
    pub const TRACE_QUEUING: &str = "trace.queuing_cycles";
    /// Network portion of traced-packet latency (cycles).
    pub const TRACE_NETWORK: &str = "trace.network_cycles";
}

/// One observability event, as published by a simulator event site.
///
/// Shard workers record events instead of applying them, so a
/// coordinator can replay every shard's stream into one master sink in
/// the exact order a single-network run would have produced — the
/// property that makes an instrumented sharded run bit-identical to an
/// instrumented monolithic one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ObsEvent {
    /// A packet was enqueued at a source.
    PacketInjected {
        /// Packet id.
        packet: u64,
        /// Source node.
        src: usize,
        /// Destination node.
        dst: usize,
        /// Packet length in flits.
        len: usize,
        /// Injection cycle.
        cycle: u64,
    },
    /// A packet was dropped before entering the network.
    PacketDropped {
        /// Packet id.
        packet: u64,
    },
    /// A flit was ejected at its destination.
    FlitEjected,
    /// A packet's tail flit was ejected.
    PacketDelivered {
        /// Packet id.
        packet: u64,
        /// Delivery cycle.
        cycle: u64,
        /// End-to-end latency in cycles.
        latency: u64,
    },
    /// A packet won VC allocation.
    VaGrant {
        /// Router node.
        node: usize,
        /// Packet id.
        packet: u64,
        /// Grant cycle.
        cycle: u64,
    },
    /// A packet won switch allocation.
    SaGrant {
        /// Router node.
        node: usize,
        /// Packet id.
        packet: u64,
        /// Grant cycle.
        cycle: u64,
    },
    /// A flit departed a node on an output link.
    LinkTraversal {
        /// Source node of the link.
        node: usize,
        /// Packet id.
        packet: u64,
        /// Traversal cycle.
        cycle: u64,
    },
    /// A credit was returned upstream.
    CreditReturned,
}

impl ObsEvent {
    /// Intra-cycle phase ordinal the event was emitted in: 0 for
    /// injection, 1 for delivery/ejection, 2 for router activity.
    /// Replaying each phase across all shards (shards in ascending
    /// node order within a phase) reproduces the event order of a
    /// single-network step.
    pub fn phase(&self) -> u8 {
        match self {
            ObsEvent::PacketInjected { .. } | ObsEvent::PacketDropped { .. } => 0,
            ObsEvent::FlitEjected | ObsEvent::PacketDelivered { .. } => 1,
            ObsEvent::VaGrant { .. }
            | ObsEvent::SaGrant { .. }
            | ObsEvent::LinkTraversal { .. }
            | ObsEvent::CreditReturned => 2,
        }
    }
}

/// The observer handle the simulator publishes events into.
///
/// Metrics are always on once a sink exists; tracing is a further
/// opt-in ([`ObsSink::with_tracer`]) because spans cost memory per
/// in-flight packet.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    /// Counter/gauge/histogram registry.
    pub metrics: MetricsRegistry,
    /// Optional bounded flit tracer.
    pub tracer: Option<FlitTracer>,
    /// When `Some`, events are buffered instead of applied
    /// ([`ObsSink::recorder`]); a coordinator replays them into a
    /// master sink with [`ObsSink::apply`].
    recording: Option<Vec<ObsEvent>>,
}

impl ObsSink {
    /// Creates a sink with metrics only.
    pub fn new() -> ObsSink {
        ObsSink::default()
    }

    /// Enables flit tracing with a ring of `capacity` completed spans.
    pub fn with_tracer(mut self, capacity: usize) -> ObsSink {
        self.tracer = Some(FlitTracer::new(capacity));
        self
    }

    /// Creates a recording sink: every event method buffers an
    /// [`ObsEvent`] instead of updating metrics or traces. Drain with
    /// [`ObsSink::take_events`] and replay with [`ObsSink::apply`].
    pub fn recorder() -> ObsSink {
        ObsSink {
            recording: Some(Vec::new()),
            ..ObsSink::default()
        }
    }

    /// `true` when this sink buffers events rather than applying them.
    pub fn is_recorder(&self) -> bool {
        self.recording.is_some()
    }

    /// Moves the buffered events into `out` (cleared first), keeping
    /// the buffer's allocation for the next cycle.
    pub fn take_events(&mut self, out: &mut Vec<ObsEvent>) {
        out.clear();
        if let Some(buf) = &mut self.recording {
            std::mem::swap(buf, out);
        }
    }

    /// Applies one recorded event to this sink exactly as the original
    /// event-method call would have.
    pub fn apply(&mut self, e: &ObsEvent) {
        match *e {
            ObsEvent::PacketInjected {
                packet,
                src,
                dst,
                len,
                cycle,
            } => self.packet_injected(packet, src, dst, len, cycle),
            ObsEvent::PacketDropped { packet } => self.packet_dropped(packet),
            ObsEvent::FlitEjected => self.flit_ejected(),
            ObsEvent::PacketDelivered {
                packet,
                cycle,
                latency,
            } => self.packet_delivered(packet, cycle, latency),
            ObsEvent::VaGrant {
                node,
                packet,
                cycle,
            } => self.va_grant(node, packet, cycle),
            ObsEvent::SaGrant {
                node,
                packet,
                cycle,
            } => self.sa_grant(node, packet, cycle),
            ObsEvent::LinkTraversal {
                node,
                packet,
                cycle,
            } => self.link_traversal(node, packet, cycle),
            ObsEvent::CreditReturned => self.credit_returned(),
        }
    }

    /// A packet was enqueued at `src` bound for `dst`.
    pub fn packet_injected(&mut self, packet: u64, src: usize, dst: usize, len: usize, cycle: u64) {
        if let Some(buf) = &mut self.recording {
            buf.push(ObsEvent::PacketInjected {
                packet,
                src,
                dst,
                len,
                cycle,
            });
            return;
        }
        self.metrics.inc(keys::PACKETS_INJECTED);
        if let Some(t) = &mut self.tracer {
            t.packet_injected(packet, src, dst, len, cycle);
        }
    }

    /// A packet was dropped before entering the network.
    pub fn packet_dropped(&mut self, packet: u64) {
        if let Some(buf) = &mut self.recording {
            buf.push(ObsEvent::PacketDropped { packet });
            return;
        }
        self.metrics.inc(keys::PACKETS_DROPPED);
        if let Some(t) = &mut self.tracer {
            t.packet_dropped(packet);
        }
    }

    /// A flit was ejected at its destination.
    pub fn flit_ejected(&mut self) {
        if let Some(buf) = &mut self.recording {
            buf.push(ObsEvent::FlitEjected);
            return;
        }
        self.metrics.inc(keys::FLITS_EJECTED);
    }

    /// A packet's tail flit was ejected `latency` cycles after
    /// creation.
    pub fn packet_delivered(&mut self, packet: u64, cycle: u64, latency: u64) {
        if let Some(buf) = &mut self.recording {
            buf.push(ObsEvent::PacketDelivered {
                packet,
                cycle,
                latency,
            });
            return;
        }
        self.metrics.inc(keys::PACKETS_DELIVERED);
        self.metrics.observe(keys::PACKET_LATENCY, latency);
        if let Some(t) = &mut self.tracer {
            t.packet_delivered(packet, cycle);
        }
    }

    /// A packet won VC allocation at `node`.
    pub fn va_grant(&mut self, node: usize, packet: u64, cycle: u64) {
        if let Some(buf) = &mut self.recording {
            buf.push(ObsEvent::VaGrant {
                node,
                packet,
                cycle,
            });
            return;
        }
        self.metrics.inc(keys::VA_GRANTS);
        if let Some(t) = &mut self.tracer {
            t.hop(packet, node, HopStage::VaGrant, cycle);
        }
    }

    /// A packet won switch allocation at `node`.
    pub fn sa_grant(&mut self, node: usize, packet: u64, cycle: u64) {
        if let Some(buf) = &mut self.recording {
            buf.push(ObsEvent::SaGrant {
                node,
                packet,
                cycle,
            });
            return;
        }
        self.metrics.inc(keys::SA_GRANTS);
        if let Some(t) = &mut self.tracer {
            t.hop(packet, node, HopStage::SaGrant, cycle);
        }
    }

    /// A flit departed `node` on an output link.
    pub fn link_traversal(&mut self, node: usize, packet: u64, cycle: u64) {
        if let Some(buf) = &mut self.recording {
            buf.push(ObsEvent::LinkTraversal {
                node,
                packet,
                cycle,
            });
            return;
        }
        self.metrics.inc(keys::LINK_FLITS);
        if let Some(t) = &mut self.tracer {
            t.hop(packet, node, HopStage::LinkTraversal, cycle);
        }
    }

    /// A credit was returned upstream.
    pub fn credit_returned(&mut self) {
        if let Some(buf) = &mut self.recording {
            buf.push(ObsEvent::CreditReturned);
            return;
        }
        self.metrics.inc(keys::CREDITS_RETURNED);
    }

    /// Freezes the sink into an [`Observations`] bundle, folding the
    /// traced latency breakdown into the metrics registry.
    pub fn into_observations(mut self, sample_every: u64) -> Observations {
        let spans = match self.tracer.take() {
            Some(t) => t.into_spans(),
            None => Vec::new(),
        };
        for span in &spans {
            if let (Some(q), Some(n)) = (span.queuing_cycles(), span.network_cycles()) {
                self.metrics.observe(keys::TRACE_QUEUING, q);
                self.metrics.observe(keys::TRACE_NETWORK, n);
            }
        }
        Observations {
            metrics: self.metrics.snapshot(),
            probes: Vec::new(),
            spans,
            sample_every,
        }
    }
}

/// Everything a run observed, bundled for reports and artifacts.
#[derive(Debug, Clone, Default)]
pub struct Observations {
    /// Final metrics snapshot.
    pub metrics: MetricsSnapshot,
    /// Probe time series (filled in by the caller that owns the
    /// [`Prober`]).
    pub probes: Vec<ProbeRow>,
    /// Completed flit-lifecycle spans.
    pub spans: Vec<PacketSpan>,
    /// Probe sampling period the probes were collected at.
    pub sample_every: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_buffers_and_replay_matches_direct() {
        // Drive the same event sequence into a direct sink and
        // through a recorder + apply round-trip; the metrics must be
        // identical.
        let mut direct = ObsSink::new();
        let mut rec = ObsSink::recorder();
        assert!(rec.is_recorder());
        for sink in [&mut direct, &mut rec] {
            sink.packet_injected(1, 0, 3, 5, 0);
            sink.va_grant(0, 1, 2);
            sink.sa_grant(0, 1, 3);
            sink.link_traversal(0, 1, 5);
            sink.flit_ejected();
            sink.credit_returned();
            sink.packet_delivered(1, 20, 20);
            sink.packet_dropped(2);
        }
        // Recording applied nothing to the recorder's own registry.
        assert_eq!(rec.metrics.counter(keys::PACKETS_INJECTED), 0);
        let mut events = Vec::new();
        rec.take_events(&mut events);
        assert_eq!(events.len(), 8);
        let mut replayed = ObsSink::new();
        for e in &events {
            replayed.apply(e);
        }
        for key in [
            keys::PACKETS_INJECTED,
            keys::PACKETS_DELIVERED,
            keys::PACKETS_DROPPED,
            keys::FLITS_EJECTED,
            keys::VA_GRANTS,
            keys::SA_GRANTS,
            keys::LINK_FLITS,
            keys::CREDITS_RETURNED,
        ] {
            assert_eq!(replayed.metrics.counter(key), direct.metrics.counter(key));
        }
        // Buffer was handed over; the next take returns nothing.
        rec.take_events(&mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn event_phases_partition_the_cycle() {
        assert_eq!(
            ObsEvent::PacketInjected {
                packet: 1,
                src: 0,
                dst: 1,
                len: 1,
                cycle: 0
            }
            .phase(),
            0
        );
        assert_eq!(ObsEvent::PacketDropped { packet: 1 }.phase(), 0);
        assert_eq!(ObsEvent::FlitEjected.phase(), 1);
        assert_eq!(
            ObsEvent::PacketDelivered {
                packet: 1,
                cycle: 9,
                latency: 9
            }
            .phase(),
            1
        );
        assert_eq!(
            ObsEvent::SaGrant {
                node: 0,
                packet: 1,
                cycle: 3
            }
            .phase(),
            2
        );
        assert_eq!(ObsEvent::CreditReturned.phase(), 2);
    }

    #[test]
    fn sink_counts_events_and_histograms_latency() {
        let mut obs = ObsSink::new();
        obs.packet_injected(1, 0, 3, 5, 0);
        obs.va_grant(0, 1, 2);
        obs.sa_grant(0, 1, 3);
        obs.link_traversal(0, 1, 5);
        obs.flit_ejected();
        obs.credit_returned();
        obs.packet_delivered(1, 20, 20);
        let m = &obs.metrics;
        assert_eq!(m.counter(keys::PACKETS_INJECTED), 1);
        assert_eq!(m.counter(keys::PACKETS_DELIVERED), 1);
        assert_eq!(m.counter(keys::VA_GRANTS), 1);
        assert_eq!(m.counter(keys::SA_GRANTS), 1);
        assert_eq!(m.counter(keys::LINK_FLITS), 1);
        assert_eq!(m.counter(keys::CREDITS_RETURNED), 1);
        assert_eq!(m.histogram(keys::PACKET_LATENCY).unwrap().count(), 1);
    }

    #[test]
    fn into_observations_folds_trace_breakdown() {
        let mut obs = ObsSink::new().with_tracer(4);
        obs.packet_injected(9, 1, 2, 5, 100);
        obs.sa_grant(1, 9, 104);
        obs.packet_delivered(9, 115, 15);
        let o = obs.into_observations(25);
        assert_eq!(o.sample_every, 25);
        assert_eq!(o.spans.len(), 1);
        let queuing = o
            .metrics
            .histograms
            .iter()
            .find(|(k, _)| k == keys::TRACE_QUEUING)
            .expect("queuing histogram");
        assert_eq!(queuing.1.count(), 1);
        assert_eq!(queuing.1.sum(), 4);
    }

    #[test]
    fn untraced_sink_produces_no_spans() {
        let mut obs = ObsSink::new();
        obs.packet_injected(1, 0, 1, 1, 0);
        obs.packet_delivered(1, 9, 9);
        let o = obs.into_observations(1);
        assert!(o.spans.is_empty());
        assert!(o
            .metrics
            .histograms
            .iter()
            .all(|(k, _)| k != keys::TRACE_QUEUING));
    }
}
