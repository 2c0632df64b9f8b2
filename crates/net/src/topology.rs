//! k-ary n-cube topologies (torus and mesh).
//!
//! The paper's experiments use a 4×4 torus (Figure 4) where each router
//! has "five physical bidirectional ports (north, south, east, west,
//! injection/ejection)". We generalise to n dimensions with the port
//! convention: port 0 is the local injection/ejection port, and each
//! dimension `d` contributes a *plus* port (`1 + 2d`) and a *minus* port
//! (`2 + 2d`). In 2D with dimension 0 = x and dimension 1 = y, "east" is
//! x-plus, "west" x-minus, "north" y-plus and "south" y-minus.

use std::error::Error;
use std::fmt;

/// The most dimensions a [`Topology`] may have.
pub const MAX_DIMS: usize = 8;

/// Identifier of a network node (router + its attached terminal).
///
/// Nodes are numbered in mixed-radix order: node id
/// `= x + k_x·(y + k_y·(z + …))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Direction along a dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Increasing coordinate (east / north / up).
    Plus,
    /// Decreasing coordinate (west / south / down).
    Minus,
}

impl Direction {
    /// The opposite direction.
    pub fn opposite(self) -> Direction {
        match self {
            Direction::Plus => Direction::Minus,
            Direction::Minus => Direction::Plus,
        }
    }
}

/// A router port: the local terminal port or a directional network port.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Port {
    /// Injection/ejection port to the attached terminal.
    Local,
    /// Network port along `dim` in direction `dir`.
    Dir {
        /// Dimension index (0 = x, 1 = y, …).
        dim: u8,
        /// Direction along the dimension.
        dir: Direction,
    },
}

impl Port {
    /// The dense index of this port: local = 0, plus/minus of dimension
    /// `d` = `1+2d` / `2+2d`.
    ///
    /// ```
    /// use orion_net::{Direction, Port};
    /// assert_eq!(Port::Local.index(), 0);
    /// assert_eq!(Port::Dir { dim: 1, dir: Direction::Plus }.index(), 3);
    /// ```
    pub fn index(self) -> usize {
        match self {
            Port::Local => 0,
            Port::Dir { dim, dir } => {
                1 + 2 * dim as usize
                    + match dir {
                        Direction::Plus => 0,
                        Direction::Minus => 1,
                    }
            }
        }
    }

    /// Inverse of [`Port::index`].
    ///
    /// # Panics
    ///
    /// Panics if `index` does not correspond to a port of a router with
    /// `dims` dimensions.
    pub fn from_index(index: usize, dims: u8) -> Port {
        if index == 0 {
            return Port::Local;
        }
        let d = (index - 1) / 2;
        assert!(
            d < dims as usize,
            "port index {index} out of range for {dims} dims"
        );
        Port::Dir {
            dim: d as u8,
            dir: if (index - 1).is_multiple_of(2) {
                Direction::Plus
            } else {
                Direction::Minus
            },
        }
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Local => write!(f, "local"),
            Port::Dir { dim, dir } => {
                let sign = match dir {
                    Direction::Plus => '+',
                    Direction::Minus => '-',
                };
                write!(f, "d{dim}{sign}")
            }
        }
    }
}

/// Whether wrap-around channels exist.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TopologyKind {
    /// k-ary n-cube with wrap-around links (the paper's Figure 4).
    Torus,
    /// Mesh without wrap-around links.
    Mesh,
}

/// Error constructing a [`Topology`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TopologyError {
    /// No dimensions were given.
    NoDimensions,
    /// A dimension had radix < 2.
    RadixTooSmall {
        /// The offending dimension.
        dim: usize,
        /// Its radix.
        radix: u32,
    },
    /// More dimensions than the supported maximum (8).
    TooManyDimensions(usize),
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NoDimensions => write!(f, "topology needs at least one dimension"),
            TopologyError::RadixTooSmall { dim, radix } => {
                write!(f, "dimension {dim} has radix {radix}, need at least 2")
            }
            TopologyError::TooManyDimensions(n) => {
                write!(f, "{n} dimensions given, at most 8 supported")
            }
        }
    }
}

impl Error for TopologyError {}

/// A k-ary n-cube topology.
///
/// ```
/// use orion_net::{Direction, NodeId, Topology};
///
/// let torus = Topology::torus(&[4, 4])?;
/// assert_eq!(torus.num_nodes(), 16);
/// assert_eq!(torus.ports_per_router(), 5);
/// // Wrap-around: east of (3,0) is (0,0).
/// let n = torus.neighbor(NodeId(3), 0, Direction::Plus);
/// assert_eq!(n, Some(NodeId(0)));
/// # Ok::<(), orion_net::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Topology {
    kind: TopologyKind,
    radices: Vec<u32>,
}

impl Topology {
    /// A torus with the given per-dimension radices.
    ///
    /// # Errors
    ///
    /// Returns an error if `radices` is empty, longer than 8, or any
    /// radix is < 2.
    pub fn torus(radices: &[u32]) -> Result<Topology, TopologyError> {
        Topology::new(TopologyKind::Torus, radices)
    }

    /// A mesh with the given per-dimension radices.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Topology::torus`].
    pub fn mesh(radices: &[u32]) -> Result<Topology, TopologyError> {
        Topology::new(TopologyKind::Mesh, radices)
    }

    /// Generic constructor.
    ///
    /// # Errors
    ///
    /// Returns an error if `radices` is empty, longer than 8, or any
    /// radix is < 2.
    pub fn new(kind: TopologyKind, radices: &[u32]) -> Result<Topology, TopologyError> {
        if radices.is_empty() {
            return Err(TopologyError::NoDimensions);
        }
        if radices.len() > MAX_DIMS {
            return Err(TopologyError::TooManyDimensions(radices.len()));
        }
        for (dim, &radix) in radices.iter().enumerate() {
            if radix < 2 {
                return Err(TopologyError::RadixTooSmall { dim, radix });
            }
        }
        Ok(Topology {
            kind,
            radices: radices.to_vec(),
        })
    }

    /// Torus or mesh.
    pub fn kind(&self) -> TopologyKind {
        self.kind
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.radices.len()
    }

    /// Radix (number of nodes) of dimension `dim`.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range.
    pub fn radix(&self, dim: usize) -> u32 {
        self.radices[dim]
    }

    /// Total number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.radices.iter().map(|&k| k as usize).product()
    }

    /// Number of ports per router: one local plus two per dimension.
    pub fn ports_per_router(&self) -> usize {
        1 + 2 * self.dims()
    }

    /// Coordinates of `node`.
    ///
    /// # Panics
    ///
    /// Panics if `node` is out of range.
    pub fn coords(&self, node: NodeId) -> Vec<u32> {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        let mut rem = node.0;
        self.radices
            .iter()
            .map(|&k| {
                let c = (rem % k as usize) as u32;
                rem /= k as usize;
                c
            })
            .collect()
    }

    /// Coordinates of `node` in a fixed-size array (entries past
    /// [`Topology::dims`] are zero): [`Topology::coords`] without the
    /// allocation, for per-packet paths.
    pub(crate) fn coord_array(&self, node: NodeId) -> [u32; MAX_DIMS] {
        assert!(node.0 < self.num_nodes(), "node {node} out of range");
        let mut out = [0; MAX_DIMS];
        let mut rem = node.0;
        for (c, &k) in out.iter_mut().zip(&self.radices) {
            *c = (rem % k as usize) as u32;
            rem /= k as usize;
        }
        out
    }

    /// Node at the given coordinates.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate count mismatches or any coordinate is out
    /// of range.
    pub fn node_at(&self, coords: &[u32]) -> NodeId {
        assert_eq!(coords.len(), self.dims(), "coordinate count mismatch");
        let mut id = 0usize;
        for (d, (&c, &k)) in coords.iter().zip(&self.radices).enumerate().rev() {
            assert!(c < k, "coordinate {c} out of range in dimension {d}");
            id = id * k as usize + c as usize;
        }
        NodeId(id)
    }

    /// The neighbour of `node` along `dim` in direction `dir`, or `None`
    /// at a mesh boundary.
    ///
    /// # Panics
    ///
    /// Panics if `node` or `dim` is out of range.
    pub fn neighbor(&self, node: NodeId, dim: usize, dir: Direction) -> Option<NodeId> {
        assert!(dim < self.dims(), "dimension {dim} out of range");
        let mut coords = self.coords(node);
        let k = self.radices[dim];
        let c = coords[dim];
        let next = match (dir, self.kind) {
            (Direction::Plus, TopologyKind::Torus) => (c + 1) % k,
            (Direction::Minus, TopologyKind::Torus) => (c + k - 1) % k,
            (Direction::Plus, TopologyKind::Mesh) => {
                if c + 1 >= k {
                    return None;
                }
                c + 1
            }
            (Direction::Minus, TopologyKind::Mesh) => {
                if c == 0 {
                    return None;
                }
                c - 1
            }
        };
        coords[dim] = next;
        Some(self.node_at(&coords))
    }

    /// Signed shortest hop count along `dim` from `a` to `b`; for a torus
    /// ties at `k/2` resolve to the positive direction.
    pub(crate) fn dim_offset(&self, a: u32, b: u32, dim: usize) -> i64 {
        let k = self.radices[dim] as i64;
        let diff = b as i64 - a as i64;
        match self.kind {
            TopologyKind::Mesh => diff,
            TopologyKind::Torus => {
                let fwd = diff.rem_euclid(k);
                if fwd <= k - fwd {
                    fwd
                } else {
                    fwd - k
                }
            }
        }
    }

    /// Minimal hop distance between `a` and `b` (Manhattan, with torus
    /// wrap-around).
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range.
    pub fn distance(&self, a: NodeId, b: NodeId) -> u32 {
        let ca = self.coords(a);
        let cb = self.coords(b);
        (0..self.dims())
            .map(|d| self.dim_offset(ca[d], cb[d], d).unsigned_abs() as u32)
            .sum()
    }

    /// Iterator over all node ids.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId)
    }

    /// Average minimal hop distance over all ordered pairs of distinct
    /// nodes — the zero-load hop count under uniform random traffic.
    ///
    /// Computed in closed form per dimension (hop counts separate over
    /// dimensions), so kilo-node fabrics (32×32, 64×64, 8×8×8) cost
    /// O(dims) instead of O(n²) pairwise walks. The exact integer total
    /// is divided once, so the result is bit-identical to the pairwise
    /// sum the differential-identity suite was recorded against.
    pub fn average_distance(&self) -> f64 {
        let n = self.num_nodes() as u64;
        if n < 2 {
            return 0.0;
        }
        // Total hops over *all* ordered pairs (self-pairs add 0). Each
        // dimension contributes independently: every ordered coordinate
        // pair (a, b) in a dimension of radix k is shared by (n/k)²
        // ordered node pairs.
        let mut total: u64 = 0;
        for &k in &self.radices {
            let k = k as u64;
            let ring_total: u64 = match self.kind {
                // Per source on a k-ring: Σ_j min(j, k-j); summed over
                // the k sources.
                TopologyKind::Torus => {
                    let per_source: u64 = (0..k).map(|j| j.min(k - j)).sum();
                    k * per_source
                }
                // On a k-line: Σ_a Σ_b |a-b| = (k³-k)/3.
                TopologyKind::Mesh => (k * k * k - k) / 3,
            };
            total += (n / k) * (n / k) * ring_total;
        }
        total as f64 / (n * (n - 1)) as f64
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = match self.kind {
            TopologyKind::Torus => "torus",
            TopologyKind::Mesh => "mesh",
        };
        let dims: Vec<String> = self.radices.iter().map(|k| k.to_string()).collect();
        write!(f, "{}-{kind}", dims.join("x"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t44() -> Topology {
        Topology::torus(&[4, 4]).unwrap()
    }

    #[test]
    fn construction_errors() {
        assert_eq!(Topology::torus(&[]), Err(TopologyError::NoDimensions));
        assert_eq!(
            Topology::torus(&[4, 1]),
            Err(TopologyError::RadixTooSmall { dim: 1, radix: 1 })
        );
        assert_eq!(
            Topology::torus(&[2; 9]),
            Err(TopologyError::TooManyDimensions(9))
        );
    }

    #[test]
    fn node_count_and_ports() {
        assert_eq!(t44().num_nodes(), 16);
        assert_eq!(t44().ports_per_router(), 5);
        let t3 = Topology::torus(&[2, 3, 4]).unwrap();
        assert_eq!(t3.num_nodes(), 24);
        assert_eq!(t3.ports_per_router(), 7);
    }

    #[test]
    fn coords_roundtrip() {
        let t = Topology::torus(&[4, 3, 2]).unwrap();
        for n in t.nodes() {
            let c = t.coords(n);
            assert_eq!(t.node_at(&c), n, "coords {c:?}");
        }
    }

    #[test]
    fn mixed_radix_layout() {
        let t = t44();
        // Node id = x + 4y.
        assert_eq!(t.coords(NodeId(0)), vec![0, 0]);
        assert_eq!(t.coords(NodeId(3)), vec![3, 0]);
        assert_eq!(t.coords(NodeId(4)), vec![0, 1]);
        assert_eq!(t.node_at(&[1, 2]), NodeId(9));
    }

    #[test]
    fn torus_wraps() {
        let t = t44();
        assert_eq!(t.neighbor(NodeId(3), 0, Direction::Plus), Some(NodeId(0)));
        assert_eq!(t.neighbor(NodeId(0), 0, Direction::Minus), Some(NodeId(3)));
        assert_eq!(t.neighbor(NodeId(0), 1, Direction::Minus), Some(NodeId(12)));
    }

    #[test]
    fn mesh_has_edges() {
        let m = Topology::mesh(&[4, 4]).unwrap();
        assert_eq!(m.neighbor(NodeId(3), 0, Direction::Plus), None);
        assert_eq!(m.neighbor(NodeId(0), 0, Direction::Minus), None);
        assert_eq!(m.neighbor(NodeId(0), 0, Direction::Plus), Some(NodeId(1)));
    }

    #[test]
    fn neighbor_is_symmetric() {
        let t = t44();
        for n in t.nodes() {
            for dim in 0..2 {
                for dir in [Direction::Plus, Direction::Minus] {
                    let m = t.neighbor(n, dim, dir).unwrap();
                    assert_eq!(t.neighbor(m, dim, dir.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    fn torus_distance_wraps() {
        let t = t44();
        // (0,0) to (3,0): 1 hop via wrap-around.
        assert_eq!(t.distance(NodeId(0), NodeId(3)), 1);
        // (0,0) to (2,2): 2+2 = 4 hops.
        assert_eq!(t.distance(NodeId(0), NodeId(10)), 4);
        assert_eq!(t.distance(NodeId(5), NodeId(5)), 0);
    }

    #[test]
    fn distance_symmetric() {
        let t = t44();
        for a in t.nodes() {
            for b in t.nodes() {
                assert_eq!(t.distance(a, b), t.distance(b, a));
            }
        }
    }

    #[test]
    fn average_distance_4x4_torus() {
        // Per-dimension distances on a 4-ring: 0,1,2,1 → sum 4 per node.
        // Avg over ordered distinct pairs = 2·(16·4/4)/15·... compute:
        // total per source = sum over all dests of (dx+dy) = 4·4 + 4·4 = 32.
        // avg = 32/15 ≈ 2.133.
        let t = t44();
        assert!((t.average_distance() - 32.0 / 15.0).abs() < 1e-9);
    }

    #[test]
    fn port_index_roundtrip() {
        for dims in 1..=8u8 {
            for idx in 0..(1 + 2 * dims as usize) {
                let p = Port::from_index(idx, dims);
                assert_eq!(p.index(), idx);
            }
        }
    }

    #[test]
    fn port_index_assigns_third_dimension_directions() {
        // Dimension 2 ("z") owns indices 5 (plus) and 6 (minus); a 2-D
        // router must reject them.
        assert_eq!(
            Port::from_index(5, 3),
            Port::Dir {
                dim: 2,
                dir: Direction::Plus
            }
        );
        assert_eq!(
            Port::from_index(6, 3),
            Port::Dir {
                dim: 2,
                dir: Direction::Minus
            }
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn port_index_rejects_z_ports_on_2d_routers() {
        let _ = Port::from_index(5, 2);
    }

    #[test]
    fn three_d_torus_neighbors_wrap_in_every_dimension() {
        let t = Topology::torus(&[8, 8, 8]).unwrap();
        assert_eq!(t.num_nodes(), 512);
        assert_eq!(t.ports_per_router(), 7);
        let corner = t.node_at(&[7, 7, 7]);
        assert_eq!(
            t.neighbor(corner, 2, Direction::Plus),
            Some(t.node_at(&[7, 7, 0]))
        );
        assert_eq!(
            t.neighbor(t.node_at(&[0, 0, 0]), 2, Direction::Minus),
            Some(t.node_at(&[0, 0, 7]))
        );
        // Symmetry holds per dimension, including z.
        for n in t.nodes() {
            for dim in 0..3 {
                for dir in [Direction::Plus, Direction::Minus] {
                    let m = t.neighbor(n, dim, dir).unwrap();
                    assert_eq!(t.neighbor(m, dim, dir.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    fn three_d_mesh_boundaries_in_every_dimension() {
        let m = Topology::mesh(&[4, 4, 4]).unwrap();
        let origin = m.node_at(&[0, 0, 0]);
        let corner = m.node_at(&[3, 3, 3]);
        for dim in 0..3 {
            assert_eq!(m.neighbor(origin, dim, Direction::Minus), None);
            assert_eq!(m.neighbor(corner, dim, Direction::Plus), None);
        }
        assert_eq!(
            m.neighbor(origin, 2, Direction::Plus),
            Some(m.node_at(&[0, 0, 1]))
        );
    }

    #[test]
    fn three_d_distance_sums_over_dimensions() {
        let t = Topology::torus(&[8, 8, 8]).unwrap();
        // (0,0,0) -> (4,7,2): 4 + 1 (wrap) + 2 hops.
        assert_eq!(t.distance(t.node_at(&[0, 0, 0]), t.node_at(&[4, 7, 2])), 7);
        let m = Topology::mesh(&[8, 8, 8]).unwrap();
        assert_eq!(m.distance(m.node_at(&[0, 0, 0]), m.node_at(&[4, 7, 2])), 13);
    }

    #[test]
    fn analytic_average_distance_matches_pairwise_sum() {
        // The closed form must reproduce the O(n²) pairwise total
        // exactly (integer totals, one final division) on every shape
        // the presets and the CLI topology flag can produce.
        let shapes: Vec<Topology> = vec![
            Topology::torus(&[4, 4]).unwrap(),
            Topology::mesh(&[4, 4]).unwrap(),
            Topology::torus(&[5, 3]).unwrap(),
            Topology::mesh(&[5, 3]).unwrap(),
            Topology::torus(&[8, 8, 8]).unwrap(),
            Topology::mesh(&[4, 4, 4]).unwrap(),
            Topology::torus(&[2]).unwrap(),
            Topology::mesh(&[7]).unwrap(),
        ];
        for t in shapes {
            let n = t.num_nodes();
            let pairwise: u64 = t
                .nodes()
                .flat_map(|a| t.nodes().map(move |b| (a, b)))
                .map(|(a, b)| t.distance(a, b) as u64)
                .sum();
            let expected = pairwise as f64 / (n as f64 * (n as f64 - 1.0));
            assert_eq!(
                t.average_distance().to_bits(),
                expected.to_bits(),
                "analytic form diverged on {t}"
            );
        }
    }

    #[test]
    fn average_distance_kilo_node_is_cheap_and_exact() {
        // 64×64 torus: per-dimension ring total = 64·(64²/4) = 65536;
        // total = 2 · (4096/64)² · 65536 = 536 870 912.
        let t = Topology::torus(&[64, 64]).unwrap();
        let expected: f64 = 536_870_912.0 / (4096.0 * 4095.0);
        assert_eq!(t.average_distance().to_bits(), expected.to_bits());
    }

    #[test]
    fn display_forms() {
        assert_eq!(t44().to_string(), "4x4-torus");
        assert_eq!(NodeId(7).to_string(), "n7");
        assert_eq!(Port::Local.to_string(), "local");
        assert_eq!(
            Port::Dir {
                dim: 1,
                dir: Direction::Minus
            }
            .to_string(),
            "d1-"
        );
    }

    #[test]
    fn dim_offset_prefers_positive_on_tie() {
        let t = t44();
        // Distance 2 both ways on a 4-ring: positive wins.
        assert_eq!(t.dim_offset(0, 2, 0), 2);
        assert_eq!(t.dim_offset(1, 3, 0), 2);
        assert_eq!(t.dim_offset(0, 3, 0), -1);
    }
}
