//! Performance statistics.
//!
//! §4.1 of the paper defines the measurement discipline reproduced here:
//! packet latency "spans from when the first flit of the packet is
//! created, to when its last flit is ejected at the destination node,
//! including source queuing time"; saturation throughput is "the point
//! at which average packet latency increases to more than twice
//! zero-load latency".

/// Accumulated performance statistics of a simulation.
#[derive(Debug, Clone, Default)]
pub struct SimStats {
    /// Latencies of delivered *tagged* (measured-sample) packets.
    latencies: Vec<u64>,
    /// All packets handed to source queues.
    pub packets_injected: u64,
    /// Packets fully ejected at their destination.
    pub packets_delivered: u64,
    /// Flits ejected.
    pub flits_delivered: u64,
    /// Tagged packets injected.
    pub tagged_injected: u64,
    /// Tagged packets delivered.
    pub tagged_delivered: u64,
    /// Always 0: the network is fault-free and drops nothing. Kept
    /// because the benchmark's report digest hashes it.
    pub packets_dropped: u64,
}

impl SimStats {
    /// Creates empty statistics.
    pub fn new() -> SimStats {
        SimStats::default()
    }

    /// Records a delivered packet; tagged deliveries contribute to the
    /// latency sample.
    pub fn record_delivery(&mut self, latency: u64, tagged: bool) {
        self.packets_delivered += 1;
        if tagged {
            self.tagged_delivered += 1;
            self.latencies.push(latency);
        }
    }

    /// Tagged packets still in flight.
    pub fn tagged_outstanding(&self) -> u64 {
        self.tagged_injected - self.tagged_delivered
    }

    /// Number of latency samples.
    pub fn sample_count(&self) -> usize {
        self.latencies.len()
    }

    /// Mean latency of the tagged sample, in cycles; `NaN` when empty.
    pub fn avg_latency(&self) -> f64 {
        if self.latencies.is_empty() {
            return f64::NAN;
        }
        self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64
    }

    /// Maximum sampled latency.
    pub fn max_latency(&self) -> Option<u64> {
        self.latencies.iter().max().copied()
    }

    /// The `p`-th percentile (0..=100) of sampled latency.
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `0..=100`.
    pub fn latency_percentile(&self, p: f64) -> Option<u64> {
        assert!((0.0..=100.0).contains(&p), "percentile outside 0..=100");
        if self.latencies.is_empty() {
            return None;
        }
        let mut sorted = self.latencies.clone();
        sorted.sort_unstable();
        let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
        Some(sorted[idx])
    }

    /// The raw latency sample.
    pub fn latencies(&self) -> &[u64] {
        &self.latencies
    }

    /// Appends one latency sample without touching the delivery
    /// counters. Exists for the shard coordinator, which rebuilds the
    /// whole-network sample by merging per-shard vectors in delivery
    /// order after summing the counters separately.
    #[doc(hidden)]
    pub fn push_latency_sample(&mut self, latency: u64) {
        self.latencies.push(latency);
    }

    /// Encodes the complete statistics state for a snapshot.
    pub(crate) fn encode(&self, w: &mut crate::snapshot::ByteWriter) {
        w.usize(self.latencies.len());
        for &l in &self.latencies {
            w.u64(l);
        }
        w.u64(self.packets_injected);
        w.u64(self.packets_delivered);
        w.u64(self.flits_delivered);
        w.u64(self.tagged_injected);
        w.u64(self.tagged_delivered);
        w.u64(self.packets_dropped);
    }

    /// Decodes statistics encoded by [`SimStats::encode`].
    pub(crate) fn decode(
        r: &mut crate::snapshot::ByteReader<'_>,
    ) -> Result<SimStats, crate::snapshot::SnapshotError> {
        let n = r.count(8)?;
        let mut latencies = Vec::with_capacity(n);
        for _ in 0..n {
            latencies.push(r.u64()?);
        }
        Ok(SimStats {
            latencies,
            packets_injected: r.u64()?,
            packets_delivered: r.u64()?,
            flits_delivered: r.u64()?,
            tagged_injected: r.u64()?,
            tagged_delivered: r.u64()?,
            packets_dropped: r.u64()?,
        })
    }
}

/// Analytic zero-load packet latency for this simulator's timing model.
///
/// A head flit crossing `hops` network links pays, per intermediate
/// router, `head_stages` pipeline cycles plus 2 cycles of crossbar +
/// link traversal; the final router pays `head_stages + 1` (crossbar,
/// then "immediate ejection", §4.1). The tail trails the head by
/// `packet_len − 1` cycles.
///
/// `head_stages` is 1 for the 2-stage wormhole router (SA) and 2 for the
/// 3-stage VC router (VA + SA), matching the Peh–Dally delay model the
/// paper adopts. Injection into the first router's buffer happens in the
/// creation cycle, so it adds no latency of its own.
///
/// ```
/// use orion_sim::stats::zero_load_latency;
/// // 4x4 torus average distance = 32/15 hops, 5-flit packets, VC router.
/// let t0 = zero_load_latency(32.0 / 15.0, 2, 5);
/// assert!(t0 > 10.0 && t0 < 20.0);
/// ```
pub fn zero_load_latency(avg_hops: f64, head_stages: u32, packet_len: u32) -> f64 {
    avg_hops * (head_stages as f64 + 2.0) + (head_stages as f64 + 1.0) + (packet_len as f64 - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_have_nan_latency() {
        let s = SimStats::new();
        assert!(s.avg_latency().is_nan());
        assert_eq!(s.max_latency(), None);
        assert_eq!(s.latency_percentile(50.0), None);
    }

    #[test]
    fn empty_sample_percentile_extremes_do_not_panic() {
        // Percentile bounds on a zero-delivery run: both extremes of
        // the valid range return None rather than indexing an empty
        // sorted vector.
        let s = SimStats::new();
        assert_eq!(s.latency_percentile(0.0), None);
        assert_eq!(s.latency_percentile(100.0), None);
        assert_eq!(s.sample_count(), 0);
        assert_eq!(s.tagged_outstanding(), 0);
    }

    #[test]
    fn only_tagged_packets_sampled() {
        let mut s = SimStats::new();
        s.tagged_injected = 2;
        s.record_delivery(10, true);
        s.record_delivery(1000, false);
        s.record_delivery(20, true);
        assert_eq!(s.sample_count(), 2);
        assert_eq!(s.avg_latency(), 15.0);
        assert_eq!(s.packets_delivered, 3);
        assert_eq!(s.tagged_outstanding(), 0);
    }

    #[test]
    fn percentiles_ordered() {
        let mut s = SimStats::new();
        for l in [5u64, 1, 9, 3, 7] {
            s.record_delivery(l, true);
        }
        assert_eq!(s.latency_percentile(0.0), Some(1));
        assert_eq!(s.latency_percentile(50.0), Some(5));
        assert_eq!(s.latency_percentile(100.0), Some(9));
        assert_eq!(s.max_latency(), Some(9));
    }

    #[test]
    fn zero_load_latency_wormhole_below_vc() {
        let wh = zero_load_latency(2.133, 1, 5);
        let vc = zero_load_latency(2.133, 2, 5);
        assert!(wh < vc, "shallower pipeline is faster at zero load");
    }

    #[test]
    fn zero_load_latency_zero_hop() {
        // Same-node delivery: stages + ejection cycle.
        let t0 = zero_load_latency(0.0, 1, 1);
        assert_eq!(t0, 2.0);
    }
}
