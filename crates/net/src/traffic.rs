//! Synthetic traffic patterns.
//!
//! §4.1: *"the simulator generates uniformly distributed traffic to
//! random destinations"*; §4.3 contrasts uniform random traffic with
//! broadcast traffic, where *"one node injects packets to all the other
//! nodes in the network"* while total network injection is held equal.
//!
//! Beyond the paper's two patterns this module provides the classic
//! adversarial suite (transpose, bit-complement, tornado, hotspot,
//! nearest-neighbour) so the simulator can exercise routing and power
//! spatial distribution more broadly.
//!
//! Packets are injected by a Bernoulli process: each cycle, node `n`
//! starts a new packet with probability
//! [`injection_rate(n)`](TrafficPattern::injection_rate).

use std::error::Error;
use std::fmt;

use rand::rngs::StdRng;
use rand::Rng;

use crate::topology::{NodeId, Topology};

/// The spatial shape of a traffic pattern.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum PatternKind {
    /// Every node sends to uniformly random destinations other than
    /// itself (§4.1).
    Uniform,
    /// A single source sends to all other nodes in round-robin order —
    /// equal traffic per destination, as the paper's per-x-coordinate
    /// power symmetry requires (§4.3).
    Broadcast {
        /// The broadcasting node.
        source: NodeId,
    },
    /// `(x, y) → (y, x)`; requires a square 2-D topology. Diagonal nodes
    /// do not inject.
    Transpose,
    /// `dst = !src` over the node-id bits; requires a power-of-two node
    /// count.
    BitComplement,
    /// Each coordinate advances by `⌈k/2⌉ − 1` along its ring — the
    /// classic torus adversary.
    Tornado,
    /// A fraction of traffic targets a fixed hot node; the rest is
    /// uniform.
    Hotspot {
        /// The hot destination.
        target: NodeId,
        /// Fraction of packets (0..=1) sent to the hot node.
        fraction: f64,
    },
    /// Every node sends to its +x neighbour.
    NearestNeighbor,
    /// Perfect shuffle: `dst = rotate_left(src)` over the node-id bits;
    /// requires a power-of-two node count.
    Shuffle,
    /// Bit reversal: `dst = reverse(src)` over the node-id bits;
    /// requires a power-of-two node count.
    BitReversal,
}

/// Error constructing a [`TrafficPattern`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum TrafficError {
    /// Injection rate outside `[0, 1]` packets/cycle/node.
    InvalidRate(f64),
    /// Referenced node does not exist in the topology.
    NodeOutOfRange(NodeId),
    /// Pattern requires a square 2-D topology.
    NotSquare2D,
    /// Pattern requires a power-of-two node count.
    NotPowerOfTwo(usize),
    /// Hotspot fraction outside `[0, 1]`.
    InvalidFraction(f64),
    /// Source coordinates whose count differs from the topology's
    /// dimension count.
    WrongDimensions {
        /// Coordinates given.
        given: usize,
        /// Dimensions of the topology.
        dims: usize,
    },
    /// A source coordinate at or past its dimension's radix.
    CoordinateOutOfRange {
        /// The dimension.
        dim: usize,
        /// The coordinate given.
        coord: u32,
        /// The dimension's radix.
        radix: u32,
    },
}

impl fmt::Display for TrafficError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrafficError::InvalidRate(r) => {
                write!(f, "injection rate {r} outside [0, 1] packets/cycle")
            }
            TrafficError::NodeOutOfRange(n) => write!(f, "node {n} outside the topology"),
            TrafficError::NotSquare2D => write!(f, "pattern requires a square 2-D topology"),
            TrafficError::NotPowerOfTwo(n) => {
                write!(f, "pattern requires a power-of-two node count, got {n}")
            }
            TrafficError::InvalidFraction(x) => write!(f, "hotspot fraction {x} outside [0, 1]"),
            TrafficError::WrongDimensions { given, dims } => write!(
                f,
                "source has {given} coordinate(s); the topology has {dims} dimension(s)"
            ),
            TrafficError::CoordinateOutOfRange { dim, coord, radix } => write!(
                f,
                "source coordinate {coord} out of range for dimension {dim} (radix {radix})"
            ),
        }
    }
}

impl Error for TrafficError {}

/// A traffic workload: per-node injection rates plus a destination
/// generator.
///
/// ```
/// use orion_net::{NodeId, Topology, TrafficPattern};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let t = Topology::torus(&[4, 4])?;
/// let mut traffic = TrafficPattern::uniform(&t, 0.1)?;
/// let mut rng = StdRng::seed_from_u64(1);
/// let dst = traffic.destination(NodeId(0), &mut rng).unwrap();
/// assert_ne!(dst, NodeId(0));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct TrafficPattern {
    topology: Topology,
    kind: PatternKind,
    /// Per-node injection probability (packets per cycle).
    rates: Vec<f64>,
    /// Round-robin destination cursors (used by broadcast).
    cursors: Vec<usize>,
}

impl TrafficPattern {
    /// Uniform random traffic at `rate` packets/cycle/node (§4.1).
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidRate`] if `rate ∉ [0, 1]`.
    pub fn uniform(topology: &Topology, rate: f64) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::Uniform,
            rates: vec![rate; topology.num_nodes()],
            cursors: vec![0; topology.num_nodes()],
        })
    }

    /// Broadcast traffic: only `source` injects, at `rate` packets/cycle,
    /// with destinations cycling over all other nodes (§4.3).
    ///
    /// # Errors
    ///
    /// Returns an error if `rate ∉ [0, 1]` or `source` is out of range.
    pub fn broadcast(
        topology: &Topology,
        source: NodeId,
        rate: f64,
    ) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        check_node(topology, source)?;
        let mut rates = vec![0.0; topology.num_nodes()];
        rates[source.0] = rate;
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::Broadcast { source },
            rates,
            cursors: vec![0; topology.num_nodes()],
        })
    }

    /// Transpose traffic at `rate` packets/cycle/node.
    ///
    /// # Errors
    ///
    /// Returns an error if the topology is not square 2-D or the rate is
    /// invalid.
    pub fn transpose(topology: &Topology, rate: f64) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        if topology.dims() != 2 || topology.radix(0) != topology.radix(1) {
            return Err(TrafficError::NotSquare2D);
        }
        // Diagonal nodes have no partner; they stay silent.
        let rates = topology
            .nodes()
            .map(|n| {
                let c = topology.coords(n);
                if c[0] == c[1] {
                    0.0
                } else {
                    rate
                }
            })
            .collect();
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::Transpose,
            rates,
            cursors: vec![0; topology.num_nodes()],
        })
    }

    /// Bit-complement traffic at `rate` packets/cycle/node.
    ///
    /// # Errors
    ///
    /// Returns an error if the node count is not a power of two or the
    /// rate is invalid.
    pub fn bit_complement(topology: &Topology, rate: f64) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        let n = topology.num_nodes();
        if !n.is_power_of_two() {
            return Err(TrafficError::NotPowerOfTwo(n));
        }
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::BitComplement,
            rates: vec![rate; n],
            cursors: vec![0; n],
        })
    }

    /// Tornado traffic at `rate` packets/cycle/node.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidRate`] if `rate ∉ [0, 1]`.
    pub fn tornado(topology: &Topology, rate: f64) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::Tornado,
            rates: vec![rate; topology.num_nodes()],
            cursors: vec![0; topology.num_nodes()],
        })
    }

    /// Hotspot traffic: fraction `fraction` of packets target `target`,
    /// the rest are uniform random.
    ///
    /// # Errors
    ///
    /// Returns an error for invalid rate/fraction or an out-of-range
    /// target.
    pub fn hotspot(
        topology: &Topology,
        target: NodeId,
        fraction: f64,
        rate: f64,
    ) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        check_node(topology, target)?;
        if !(0.0..=1.0).contains(&fraction) {
            return Err(TrafficError::InvalidFraction(fraction));
        }
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::Hotspot { target, fraction },
            rates: vec![rate; topology.num_nodes()],
            cursors: vec![0; topology.num_nodes()],
        })
    }

    /// Nearest-neighbour traffic (+x direction) at `rate`
    /// packets/cycle/node.
    ///
    /// # Errors
    ///
    /// Returns [`TrafficError::InvalidRate`] if `rate ∉ [0, 1]`.
    pub fn nearest_neighbor(
        topology: &Topology,
        rate: f64,
    ) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::NearestNeighbor,
            rates: vec![rate; topology.num_nodes()],
            cursors: vec![0; topology.num_nodes()],
        })
    }

    /// Perfect-shuffle traffic at `rate` packets/cycle/node. Fixed
    /// points (e.g. node 0) do not inject.
    ///
    /// # Errors
    ///
    /// Returns an error if the node count is not a power of two or the
    /// rate is invalid.
    pub fn shuffle(topology: &Topology, rate: f64) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        let n = topology.num_nodes();
        if !n.is_power_of_two() {
            return Err(TrafficError::NotPowerOfTwo(n));
        }
        let rates = topology
            .nodes()
            .map(|node| {
                if shuffle_of(node.0, n) == node.0 {
                    0.0
                } else {
                    rate
                }
            })
            .collect();
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::Shuffle,
            rates,
            cursors: vec![0; n],
        })
    }

    /// Bit-reversal traffic at `rate` packets/cycle/node. Palindromic
    /// node ids do not inject.
    ///
    /// # Errors
    ///
    /// Returns an error if the node count is not a power of two or the
    /// rate is invalid.
    pub fn bit_reversal(topology: &Topology, rate: f64) -> Result<TrafficPattern, TrafficError> {
        check_rate(rate)?;
        let n = topology.num_nodes();
        if !n.is_power_of_two() {
            return Err(TrafficError::NotPowerOfTwo(n));
        }
        let rates = topology
            .nodes()
            .map(|node| {
                if reversal_of(node.0, n) == node.0 {
                    0.0
                } else {
                    rate
                }
            })
            .collect();
        Ok(TrafficPattern {
            topology: topology.clone(),
            kind: PatternKind::BitReversal,
            rates,
            cursors: vec![0; n],
        })
    }

    /// The pattern shape.
    pub fn kind(&self) -> &PatternKind {
        &self.kind
    }

    /// The topology this pattern was built for.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Injection probability of `node` per cycle.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn injection_rate(&self, node: NodeId) -> f64 {
        self.rates[node.0]
    }

    /// Aggregate network injection rate (packets per cycle, all nodes).
    pub fn total_injection_rate(&self) -> f64 {
        self.rates.iter().sum()
    }

    /// Scales every node's injection rate by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if scaling would push any rate outside `[0, 1]`.
    pub fn scale_rate(&mut self, factor: f64) {
        for r in &mut self.rates {
            let scaled = *r * factor;
            assert!(
                (0.0..=1.0).contains(&scaled),
                "scaled rate {scaled} outside [0, 1]"
            );
            *r = scaled;
        }
    }

    /// The round-robin destination cursors (one per node), for
    /// checkpointing. Only patterns with stateful destination sequences
    /// (broadcast) ever advance them, but the full vector is exposed so
    /// a restore is pattern-agnostic.
    pub fn cursors(&self) -> &[usize] {
        &self.cursors
    }

    /// Restores destination cursors captured by
    /// [`cursors`](TrafficPattern::cursors). Returns `false` (leaving
    /// the pattern untouched) if the length does not match this
    /// pattern's topology — the caller is restoring a checkpoint from
    /// a different configuration.
    pub fn restore_cursors(&mut self, cursors: &[usize]) -> bool {
        if cursors.len() != self.cursors.len() {
            return false;
        }
        self.cursors.copy_from_slice(cursors);
        true
    }

    /// Bernoulli injection decision for `node` this cycle.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn should_inject(&self, node: NodeId, rng: &mut StdRng) -> bool {
        let r = self.rates[node.0];
        r > 0.0 && rng.gen_bool(r.min(1.0))
    }

    /// The destination of the next packet injected at `src`, or `None`
    /// if this node never injects under the pattern.
    ///
    /// # Panics
    ///
    /// Panics if `src` is out of range.
    pub fn destination(&mut self, src: NodeId, rng: &mut StdRng) -> Option<NodeId> {
        check_node(&self.topology, src).expect("source in range");
        let n = self.topology.num_nodes();
        match &self.kind {
            PatternKind::Uniform => Some(random_other(src, n, rng)),
            PatternKind::Broadcast { source } => {
                if src != *source {
                    return None;
                }
                // Round-robin over the other n−1 nodes.
                let cursor = &mut self.cursors[src.0];
                let mut dst = *cursor % n;
                if dst == src.0 {
                    dst = (dst + 1) % n;
                }
                *cursor = dst + 1;
                Some(NodeId(dst))
            }
            PatternKind::Transpose => {
                let c = self.topology.coords(src);
                if c[0] == c[1] {
                    None
                } else {
                    Some(self.topology.node_at(&[c[1], c[0]]))
                }
            }
            PatternKind::BitComplement => Some(NodeId(!src.0 & (n - 1))),
            PatternKind::Tornado => {
                let c = self.topology.coords(src);
                let shifted: Vec<u32> = c
                    .iter()
                    .enumerate()
                    .map(|(d, &x)| {
                        let k = self.topology.radix(d);
                        (x + k.div_ceil(2) - 1) % k
                    })
                    .collect();
                let dst = self.topology.node_at(&shifted);
                if dst == src {
                    None
                } else {
                    Some(dst)
                }
            }
            PatternKind::Hotspot { target, fraction } => {
                if rng.gen_bool(*fraction) && *target != src {
                    Some(*target)
                } else {
                    Some(random_other(src, n, rng))
                }
            }
            PatternKind::NearestNeighbor => {
                self.topology
                    .neighbor(src, 0, crate::topology::Direction::Plus)
            }
            PatternKind::Shuffle => {
                let dst = shuffle_of(src.0, n);
                if dst == src.0 {
                    None
                } else {
                    Some(NodeId(dst))
                }
            }
            PatternKind::BitReversal => {
                let dst = reversal_of(src.0, n);
                if dst == src.0 {
                    None
                } else {
                    Some(NodeId(dst))
                }
            }
        }
    }
}

/// Perfect shuffle of `id` over `log2(n)` bits: rotate left by one.
fn shuffle_of(id: usize, n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    if bits == 0 {
        return id;
    }
    let top = (id >> (bits - 1)) & 1;
    ((id << 1) | top) & (n - 1)
}

/// Bit reversal of `id` over `log2(n)` bits.
fn reversal_of(id: usize, n: usize) -> usize {
    debug_assert!(n.is_power_of_two());
    let bits = n.trailing_zeros();
    let mut out = 0usize;
    for b in 0..bits {
        if id & (1 << b) != 0 {
            out |= 1 << (bits - 1 - b);
        }
    }
    out
}

fn check_rate(rate: f64) -> Result<(), TrafficError> {
    if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
        return Err(TrafficError::InvalidRate(rate));
    }
    Ok(())
}

fn check_node(topology: &Topology, node: NodeId) -> Result<(), TrafficError> {
    if node.0 >= topology.num_nodes() {
        return Err(TrafficError::NodeOutOfRange(node));
    }
    Ok(())
}

fn random_other(src: NodeId, n: usize, rng: &mut StdRng) -> NodeId {
    debug_assert!(n >= 2, "need at least two nodes");
    let pick = rng.gen_range(0..n - 1);
    NodeId(if pick >= src.0 { pick + 1 } else { pick })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn t44() -> Topology {
        Topology::torus(&[4, 4]).unwrap()
    }

    fn rng() -> StdRng {
        StdRng::seed_from_u64(42)
    }

    #[test]
    fn uniform_never_self_addresses() {
        let t = t44();
        let mut p = TrafficPattern::uniform(&t, 0.2).unwrap();
        let mut rng = rng();
        for n in t.nodes() {
            for _ in 0..200 {
                assert_ne!(p.destination(n, &mut rng).unwrap(), n);
            }
        }
    }

    #[test]
    fn uniform_covers_all_destinations() {
        let t = t44();
        let mut p = TrafficPattern::uniform(&t, 0.2).unwrap();
        let mut rng = rng();
        let mut seen = [false; 16];
        for _ in 0..2000 {
            seen[p.destination(NodeId(0), &mut rng).unwrap().0] = true;
        }
        assert_eq!(seen.iter().filter(|&&s| s).count(), 15);
        assert!(!seen[0]);
    }

    #[test]
    fn broadcast_only_source_injects() {
        let t = t44();
        // Paper: source at (1,2), rate 0.2.
        let src = t.node_at(&[1, 2]);
        let p = TrafficPattern::broadcast(&t, src, 0.2).unwrap();
        for n in t.nodes() {
            let want = if n == src { 0.2 } else { 0.0 };
            assert_eq!(p.injection_rate(n), want);
        }
        assert!((p.total_injection_rate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn broadcast_round_robin_is_equal_split() {
        let t = t44();
        let src = t.node_at(&[1, 2]);
        let mut p = TrafficPattern::broadcast(&t, src, 0.2).unwrap();
        let mut rng = rng();
        let mut counts = [0u32; 16];
        for _ in 0..15 * 10 {
            counts[p.destination(src, &mut rng).unwrap().0] += 1;
        }
        assert_eq!(counts[src.0], 0);
        for (i, &c) in counts.iter().enumerate() {
            if i != src.0 {
                assert_eq!(c, 10, "destination {i}");
            }
        }
    }

    #[test]
    fn broadcast_non_source_returns_none() {
        let t = t44();
        let mut p = TrafficPattern::broadcast(&t, NodeId(0), 0.2).unwrap();
        assert_eq!(p.destination(NodeId(5), &mut rng()), None);
    }

    #[test]
    fn transpose_swaps_coordinates() {
        let t = t44();
        let mut p = TrafficPattern::transpose(&t, 0.1).unwrap();
        let src = t.node_at(&[1, 3]);
        let dst = p.destination(src, &mut rng()).unwrap();
        assert_eq!(t.coords(dst), vec![3, 1]);
        // Diagonal nodes silent.
        assert_eq!(p.destination(t.node_at(&[2, 2]), &mut rng()), None);
        assert_eq!(p.injection_rate(t.node_at(&[2, 2])), 0.0);
    }

    #[test]
    fn transpose_requires_square() {
        let t = Topology::torus(&[4, 2]).unwrap();
        assert_eq!(
            TrafficPattern::transpose(&t, 0.1).unwrap_err(),
            TrafficError::NotSquare2D
        );
    }

    #[test]
    fn bit_complement_is_involution() {
        let t = t44();
        let mut p = TrafficPattern::bit_complement(&t, 0.1).unwrap();
        let mut rng = rng();
        for n in t.nodes() {
            let d = p.destination(n, &mut rng).unwrap();
            let back = p.destination(d, &mut rng).unwrap();
            assert_eq!(back, n);
        }
    }

    #[test]
    fn tornado_shifts_half_ring() {
        let t = t44();
        let mut p = TrafficPattern::tornado(&t, 0.1).unwrap();
        // k=4: shift = ⌈4/2⌉−1 = 1 per dimension.
        let dst = p.destination(t.node_at(&[0, 0]), &mut rng()).unwrap();
        assert_eq!(t.coords(dst), vec![1, 1]);
    }

    #[test]
    fn hotspot_concentrates() {
        let t = t44();
        let hot = NodeId(7);
        let mut p = TrafficPattern::hotspot(&t, hot, 0.5, 0.1).unwrap();
        let mut rng = rng();
        let hits = (0..1000)
            .filter(|_| p.destination(NodeId(0), &mut rng).unwrap() == hot)
            .count();
        // ~50% hotspot + ~1/15 of the uniform half ≈ 533.
        assert!((400..700).contains(&hits), "{hits}");
    }

    #[test]
    fn nearest_neighbor_plus_x() {
        let t = t44();
        let mut p = TrafficPattern::nearest_neighbor(&t, 0.1).unwrap();
        let dst = p.destination(t.node_at(&[3, 1]), &mut rng()).unwrap();
        assert_eq!(t.coords(dst), vec![0, 1], "wraps around");
    }

    #[test]
    fn shuffle_rotates_id_bits() {
        let t = t44();
        let mut p = TrafficPattern::shuffle(&t, 0.1).unwrap();
        // 0b0110 (6) -> 0b1100 (12).
        assert_eq!(p.destination(NodeId(6), &mut rng()), Some(NodeId(12)));
        // 0b1001 (9) -> 0b0011 (3).
        assert_eq!(p.destination(NodeId(9), &mut rng()), Some(NodeId(3)));
        // Fixed points (0, 15) are silent.
        assert_eq!(p.destination(NodeId(0), &mut rng()), None);
        assert_eq!(p.injection_rate(NodeId(15)), 0.0);
    }

    #[test]
    fn bit_reversal_is_an_involution() {
        let t = t44();
        let mut p = TrafficPattern::bit_reversal(&t, 0.1).unwrap();
        let mut rng = rng();
        for n in t.nodes() {
            if let Some(d) = p.destination(n, &mut rng) {
                assert_eq!(p.destination(d, &mut rng), Some(n));
            }
        }
        // 0b0001 -> 0b1000.
        assert_eq!(p.destination(NodeId(1), &mut rng), Some(NodeId(8)));
        // Palindromes (0b0110 = 6, 0b1001 = 9) are fixed points.
        assert_eq!(p.destination(NodeId(6), &mut rng), None);
        assert_eq!(p.destination(NodeId(9), &mut rng), None);
    }

    #[test]
    fn shuffle_and_reversal_require_power_of_two() {
        let t = Topology::torus(&[3, 3]).unwrap();
        assert!(matches!(
            TrafficPattern::shuffle(&t, 0.1),
            Err(TrafficError::NotPowerOfTwo(9))
        ));
        assert!(matches!(
            TrafficPattern::bit_reversal(&t, 0.1),
            Err(TrafficError::NotPowerOfTwo(9))
        ));
    }

    #[test]
    fn rejects_invalid_rates() {
        let t = t44();
        assert!(TrafficPattern::uniform(&t, -0.1).is_err());
        assert!(TrafficPattern::uniform(&t, 1.5).is_err());
        assert!(TrafficPattern::uniform(&t, f64::NAN).is_err());
        assert!(TrafficPattern::broadcast(&t, NodeId(99), 0.1).is_err());
        assert!(TrafficPattern::hotspot(&t, NodeId(0), 1.5, 0.1).is_err());
    }

    #[test]
    fn scale_rate_scales_everywhere() {
        let t = t44();
        let mut p = TrafficPattern::uniform(&t, 0.1).unwrap();
        p.scale_rate(2.0);
        assert!((p.injection_rate(NodeId(3)) - 0.2).abs() < 1e-12);
        assert!((p.total_injection_rate() - 3.2).abs() < 1e-12);
    }

    #[test]
    fn should_inject_matches_rate_statistically() {
        let t = t44();
        let p = TrafficPattern::uniform(&t, 0.25).unwrap();
        let mut rng = rng();
        let injections = (0..10_000)
            .filter(|_| p.should_inject(NodeId(0), &mut rng))
            .count();
        assert!((2200..2800).contains(&injections), "{injections}");
    }

    #[test]
    fn zero_rate_never_injects() {
        let t = t44();
        let p = TrafficPattern::uniform(&t, 0.0).unwrap();
        let mut rng = rng();
        assert!((0..100).all(|_| !p.should_inject(NodeId(0), &mut rng)));
    }

    #[test]
    fn paper_fig6_rate_equivalence() {
        // §4.3: broadcast at 0.2 from one node vs uniform at 0.2/16 per
        // node give equal aggregate rates.
        let t = t44();
        let b = TrafficPattern::broadcast(&t, t.node_at(&[1, 2]), 0.2).unwrap();
        let u = TrafficPattern::uniform(&t, 0.2 / 16.0).unwrap();
        assert!((b.total_injection_rate() - u.total_injection_rate()).abs() < 1e-12);
    }
}
