//! Flit-lifecycle tracing: opt-in per-packet spans recording
//! injection, per-hop pipeline timestamps, and ejection.
//!
//! Spans live in a bounded ring: once `capacity` completed spans have
//! accumulated, the oldest is dropped for each new completion, so
//! memory stays fixed no matter how long the run is. Active (not yet
//! ejected) spans are bounded too — packets beyond the in-flight
//! budget simply go untraced.
//!
//! The split the paper's §4.1 measurement discipline cares about falls
//! straight out of a span: *queuing time* (injection → first switch
//! allocation at the source router) versus *network time* (the rest,
//! through ejection of the tail flit).

use crate::json::{Json, Value};

/// Schema version stamped on every trace line.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// Per-hop events a traced packet can record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HopStage {
    /// Won virtual-channel allocation at a router.
    VaGrant,
    /// Won switch allocation and traversed the crossbar.
    SaGrant,
    /// Head flit departed on an output link.
    LinkTraversal,
}

impl HopStage {
    /// Stable lowercase label used in the JSONL export.
    pub fn label(self) -> &'static str {
        match self {
            HopStage::VaGrant => "va_grant",
            HopStage::SaGrant => "sa_grant",
            HopStage::LinkTraversal => "link",
        }
    }
}

/// One timestamped pipeline event at a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopEvent {
    /// Node where the event happened.
    pub node: usize,
    /// Pipeline stage.
    pub stage: HopStage,
    /// Cycle of the event.
    pub cycle: u64,
}

/// Hard cap on recorded hop events per span; traffic that loops (e.g.
/// under faults) cannot grow a span without bound.
pub const MAX_HOPS: usize = 64;

/// The full lifecycle of one traced packet.
#[derive(Debug, Clone, PartialEq)]
pub struct PacketSpan {
    /// Packet id.
    pub packet: u64,
    /// Source node.
    pub src: usize,
    /// Destination node.
    pub dst: usize,
    /// Packet length in flits.
    pub len: usize,
    /// Cycle the packet was created/enqueued at the source.
    pub injected_at: u64,
    /// Cycle the tail flit was ejected, once complete.
    pub ejected_at: Option<u64>,
    /// Recorded pipeline events, in order, capped at [`MAX_HOPS`].
    pub hops: Vec<HopEvent>,
}

impl PacketSpan {
    /// Total injection→ejection latency, if complete.
    pub fn latency(&self) -> Option<u64> {
        self.ejected_at.map(|e| e - self.injected_at)
    }

    /// Source-queuing time: injection until the first switch
    /// allocation at the source router. Falls back to the first
    /// recorded event of any kind, and to total latency if no events
    /// were recorded at all.
    pub fn queuing_cycles(&self) -> Option<u64> {
        let first = self
            .hops
            .iter()
            .find(|h| h.node == self.src && h.stage == HopStage::SaGrant)
            .or_else(|| self.hops.first());
        match first {
            Some(h) => Some(h.cycle.saturating_sub(self.injected_at)),
            None => self.latency(),
        }
    }

    /// Network time: total latency minus queuing time.
    pub fn network_cycles(&self) -> Option<u64> {
        Some(self.latency()?.saturating_sub(self.queuing_cycles()?))
    }

    /// Serializes the span as one JSONL line (no trailing newline).
    pub fn to_json_line(&self) -> String {
        let mut out = String::new();
        let mut span = Json::compact(&mut out);
        span.key("schema_version").num(TRACE_SCHEMA_VERSION);
        span.key("packet").num(self.packet);
        span.key("src").num(self.src);
        span.key("dst").num(self.dst);
        span.key("len").num(self.len);
        span.key("injected_at").num(self.injected_at);
        span.key("ejected_at").opt(self.ejected_at, Value::num);
        span.key("latency").opt(self.latency(), Value::num);
        span.key("queuing_cycles")
            .opt(self.queuing_cycles(), Value::num);
        span.key("network_cycles")
            .opt(self.network_cycles(), Value::num);
        let mut hops = span.key("hops").array();
        for h in &self.hops {
            let mut hop = hops.item().object();
            hop.key("node").num(h.node);
            hop.key("stage").str(h.stage.label());
            hop.key("cycle").num(h.cycle);
            hop.end();
        }
        hops.end();
        span.end();
        out
    }
}

/// Bounded tracer: tracks the first `max_active` in-flight packets and
/// keeps the most recent `capacity` completed spans.
#[derive(Debug, Clone)]
pub struct FlitTracer {
    capacity: usize,
    max_active: usize,
    active: Vec<PacketSpan>,
    completed: Vec<PacketSpan>,
    dropped: u64,
}

impl FlitTracer {
    /// Creates a tracer holding up to `capacity` completed spans
    /// (clamped to at least 1) and at most `2 * capacity` in-flight
    /// spans.
    pub fn new(capacity: usize) -> FlitTracer {
        let capacity = capacity.max(1);
        FlitTracer {
            capacity,
            max_active: capacity * 2,
            active: Vec::new(),
            completed: Vec::new(),
            dropped: 0,
        }
    }

    /// Completed-span ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Completed spans evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Starts a span for `packet`, unless the in-flight budget is
    /// exhausted (in which case the packet goes untraced).
    pub fn packet_injected(&mut self, packet: u64, src: usize, dst: usize, len: usize, cycle: u64) {
        if self.active.len() >= self.max_active {
            return;
        }
        self.active.push(PacketSpan {
            packet,
            src,
            dst,
            len,
            injected_at: cycle,
            ejected_at: None,
            hops: Vec::new(),
        });
    }

    /// Records a pipeline event for `packet`, if traced.
    pub fn hop(&mut self, packet: u64, node: usize, stage: HopStage, cycle: u64) {
        if let Some(span) = self.active.iter_mut().find(|s| s.packet == packet) {
            if span.hops.len() < MAX_HOPS {
                span.hops.push(HopEvent { node, stage, cycle });
            }
        }
    }

    /// Completes the span for `packet` (tail flit ejected), moving it
    /// into the bounded completed ring.
    pub fn packet_delivered(&mut self, packet: u64, cycle: u64) {
        let Some(idx) = self.active.iter().position(|s| s.packet == packet) else {
            return;
        };
        let mut span = self.active.swap_remove(idx);
        span.ejected_at = Some(cycle);
        if self.completed.len() >= self.capacity {
            self.completed.remove(0);
            self.dropped += 1;
        }
        self.completed.push(span);
    }

    /// Discards the span for `packet` (e.g. the packet was dropped at
    /// a faulty link).
    pub fn packet_dropped(&mut self, packet: u64) {
        if let Some(idx) = self.active.iter().position(|s| s.packet == packet) {
            self.active.swap_remove(idx);
        }
    }

    /// Completed spans, oldest retained first.
    pub fn spans(&self) -> &[PacketSpan] {
        &self.completed
    }

    /// Consumes the tracer, returning completed spans.
    pub fn into_spans(self) -> Vec<PacketSpan> {
        self.completed
    }
}

/// Serializes spans as JSONL (one span per line, trailing newline).
pub fn spans_to_jsonl(spans: &[PacketSpan]) -> String {
    crate::json::lines(spans, PacketSpan::to_json_line)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traced_packet(t: &mut FlitTracer, packet: u64) {
        t.packet_injected(packet, 0, 5, 5, 100);
        t.hop(packet, 0, HopStage::VaGrant, 103);
        t.hop(packet, 0, HopStage::SaGrant, 104);
        t.hop(packet, 0, HopStage::LinkTraversal, 106);
        t.hop(packet, 5, HopStage::SaGrant, 108);
        t.packet_delivered(packet, 115);
    }

    #[test]
    fn span_splits_queuing_from_network_time() {
        let mut t = FlitTracer::new(8);
        traced_packet(&mut t, 1);
        let span = &t.spans()[0];
        assert_eq!(span.latency(), Some(15));
        assert_eq!(
            span.queuing_cycles(),
            Some(4),
            "injection to source SA grant"
        );
        assert_eq!(span.network_cycles(), Some(11));
    }

    #[test]
    fn ring_is_bounded_and_counts_drops() {
        let mut t = FlitTracer::new(2);
        for p in 0..5 {
            traced_packet(&mut t, p);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.spans()[0].packet, 3, "oldest evicted first");
    }

    #[test]
    fn in_flight_budget_limits_tracing() {
        let mut t = FlitTracer::new(1);
        t.packet_injected(1, 0, 1, 1, 0);
        t.packet_injected(2, 0, 1, 1, 0);
        t.packet_injected(3, 0, 1, 1, 0);
        t.packet_delivered(3, 9);
        assert!(
            t.spans().is_empty(),
            "packet 3 exceeded the budget, untraced"
        );
        t.packet_delivered(1, 9);
        assert_eq!(t.spans().len(), 1);
    }

    #[test]
    fn dropped_packets_leave_no_span() {
        let mut t = FlitTracer::new(4);
        t.packet_injected(7, 0, 3, 5, 10);
        t.packet_dropped(7);
        t.packet_delivered(7, 99);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn hops_are_capped() {
        let mut t = FlitTracer::new(1);
        t.packet_injected(1, 0, 1, 1, 0);
        for c in 0..(MAX_HOPS as u64 + 10) {
            t.hop(1, 0, HopStage::LinkTraversal, c);
        }
        t.packet_delivered(1, 999);
        assert_eq!(t.spans()[0].hops.len(), MAX_HOPS);
    }

    #[test]
    fn jsonl_contains_breakdown_fields() {
        let mut t = FlitTracer::new(1);
        traced_packet(&mut t, 42);
        let line = spans_to_jsonl(t.spans());
        assert!(line.starts_with(&format!("{{\"schema_version\":{TRACE_SCHEMA_VERSION},")));
        assert!(line.contains("\"packet\":42"));
        assert!(line.contains("\"queuing_cycles\":4"));
        assert!(line.contains("\"network_cycles\":11"));
        assert!(line.contains("\"stage\":\"va_grant\""));
        assert!(line.ends_with("]}\n"));
        // Exact bytes, generated at `f3a1fbd`: a closed span, and an
        // open one (no ejection, no hops -> nulls and an empty array).
        assert_eq!(line.trim_end(), GOLDEN_CLOSED);
        let open = PacketSpan {
            packet: 7,
            src: 1,
            dst: 2,
            len: 5,
            injected_at: 10,
            ejected_at: None,
            hops: Vec::new(),
        };
        assert_eq!(open.to_json_line(), GOLDEN_OPEN);
    }

    const GOLDEN_CLOSED: &str = r#"{"schema_version":1,"packet":42,"src":0,"dst":5,"len":5,"injected_at":100,"ejected_at":115,"latency":15,"queuing_cycles":4,"network_cycles":11,"hops":[{"node":0,"stage":"va_grant","cycle":103},{"node":0,"stage":"sa_grant","cycle":104},{"node":0,"stage":"link","cycle":106},{"node":5,"stage":"sa_grant","cycle":108}]}"#;
    const GOLDEN_OPEN: &str = r#"{"schema_version":1,"packet":7,"src":1,"dst":2,"len":5,"injected_at":10,"ejected_at":null,"latency":null,"queuing_cycles":null,"network_cycles":null,"hops":[]}"#;
}
