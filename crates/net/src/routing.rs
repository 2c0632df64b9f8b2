//! Source dimension-ordered routing.
//!
//! The paper (§4.1): *"we choose simple source dimension-ordered routing
//! where the route is encoded in a packet beforehand at source"*, and
//! (§4.3): *"In our dimension-ordered routing, we route along the y-axis
//! first."* A route is the full sequence of output ports the packet's
//! head flit takes, ending with the local ejection port at the
//! destination.

use std::fmt;

use crate::topology::{Direction, NodeId, Port, Topology, MAX_DIMS};

/// The order in which dimensions are exhausted.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum DimensionOrder {
    /// Route dimension 0 (x) to completion first.
    XFirst,
    /// Route dimension 1 (y) first — the paper's choice (§4.3). Falls
    /// back to ascending order for dimensions ≥ 2.
    YFirst,
    /// An explicit permutation of dimension indices.
    Custom(Vec<u8>),
}

impl DimensionOrder {
    /// The dimension visit order for a topology with `dims` dimensions.
    ///
    /// # Panics
    ///
    /// Panics if a custom order is not a permutation of `0..dims`.
    pub fn order(&self, dims: usize) -> Vec<usize> {
        let order: Vec<usize> = match self {
            DimensionOrder::XFirst => (0..dims).collect(),
            DimensionOrder::YFirst => {
                let mut o: Vec<usize> = (0..dims).collect();
                if dims >= 2 {
                    o.swap(0, 1);
                }
                o
            }
            DimensionOrder::Custom(perm) => {
                let o: Vec<usize> = perm.iter().map(|&d| d as usize).collect();
                let mut sorted = o.clone();
                sorted.sort_unstable();
                assert_eq!(
                    sorted,
                    (0..dims).collect::<Vec<_>>(),
                    "custom order must be a permutation of 0..{dims}"
                );
                o
            }
        };
        order
    }
}

/// A source route: the output port taken at each hop, destination
/// ejection included.
///
/// ```
/// use orion_net::{dor_route, DimensionOrder, NodeId, Port, Topology};
///
/// let t = Topology::torus(&[4, 4])?;
/// let r = dor_route(&t, NodeId(0), NodeId(0), DimensionOrder::YFirst);
/// // Self-addressed packets eject immediately.
/// assert_eq!(r.hops(), &[Port::Local]);
/// # Ok::<(), orion_net::TopologyError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Route {
    hops: Vec<Port>,
}

impl Route {
    /// Builds a route from explicit hops.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is empty or the last hop is not [`Port::Local`].
    pub fn new(hops: Vec<Port>) -> Route {
        assert!(!hops.is_empty(), "a route has at least the ejection hop");
        assert_eq!(
            *hops.last().expect("nonempty"),
            Port::Local,
            "routes end with local ejection"
        );
        Route { hops }
    }

    /// The output ports, one per router visited, ending with ejection.
    pub fn hops(&self) -> &[Port] {
        &self.hops
    }

    /// Number of network hops (router-to-router link traversals).
    pub fn network_hops(&self) -> usize {
        self.hops.len() - 1
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.hops.iter().map(|p| p.to_string()).collect();
        write!(f, "[{}]", parts.join(" "))
    }
}

/// Computes the dimension-ordered source route from `src` to `dst`.
///
/// Along each dimension (in `order`'s sequence) the packet takes the
/// minimal direction; on a torus a half-ring tie resolves to the positive
/// direction.
///
/// # Panics
///
/// Panics if `src` or `dst` is out of range for `topology`, or if a
/// custom dimension order is not a valid permutation.
pub fn dor_route(topology: &Topology, src: NodeId, dst: NodeId, order: DimensionOrder) -> Route {
    let src_c = topology.coords(src);
    let dst_c = topology.coords(dst);
    let mut hops = Vec::new();
    for dim in order.order(topology.dims()) {
        let offset = topology.dim_offset(src_c[dim], dst_c[dim], dim);
        let dir = if offset >= 0 {
            Direction::Plus
        } else {
            Direction::Minus
        };
        for _ in 0..offset.unsigned_abs() {
            hops.push(Port::Dir {
                dim: dim as u8,
                dir,
            });
        }
    }
    hops.push(Port::Local);
    Route { hops }
}

/// A dimension-ordered route as a fixed-size `Copy` value: at most one
/// leg per dimension, each a run of hops out of one port, then
/// ejection. It holds the same hops as [`dor_route`] without a heap
/// object, so a flit can carry its route inline and read its output
/// port at any hop in a few compares.
///
/// ```
/// use orion_net::{dor_route, DimensionOrder, DorPath, NodeId, Topology};
///
/// let t = Topology::torus(&[4, 4])?;
/// let order = DimensionOrder::YFirst;
/// let path = DorPath::new(&t, NodeId(0), NodeId(5), &order.order(t.dims()));
/// let route = dor_route(&t, NodeId(0), NodeId(5), order);
/// assert!(path.hops().eq(route.hops().iter().copied()));
/// # Ok::<(), orion_net::TopologyError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DorPath {
    /// Dense port index ([`Port::index`]) of each leg, in visit order.
    ports: [u8; MAX_DIMS],
    /// Hop index one past each leg's last hop.
    ends: [u16; MAX_DIMS],
    /// Legs in use. The hop after the last leg is the ejection.
    legs: u8,
}

impl DorPath {
    /// The dimension-ordered path from `src` to `dst`, visiting
    /// dimensions in `visit` order (as [`DimensionOrder::order`]
    /// returns it). Along each dimension the packet takes the minimal
    /// direction; on a torus a half-ring tie goes positive — the rule
    /// of [`dor_route`], which stays the reference. Allocates nothing.
    ///
    /// # Panics
    ///
    /// Panics if `src` or `dst` is out of range, if `visit` names a
    /// dimension the topology lacks, or if the route is longer than a
    /// flit's `u16` hop index can count.
    pub fn new(topology: &Topology, src: NodeId, dst: NodeId, visit: &[usize]) -> DorPath {
        let (from, to) = (topology.coord_array(src), topology.coord_array(dst));
        let mut path = DorPath::empty();
        let mut end = 0u64;
        for &dim in visit {
            let offset = topology.dim_offset(from[dim], to[dim], dim);
            if offset == 0 {
                continue;
            }
            let dir = if offset > 0 {
                Direction::Plus
            } else {
                Direction::Minus
            };
            end += offset.unsigned_abs();
            path.push(
                Port::Dir {
                    dim: dim as u8,
                    dir,
                },
                end,
            );
        }
        path
    }

    /// The same hops as `route`, one leg per run of equal ports.
    ///
    /// # Panics
    ///
    /// Panics if the route has more than [`MAX_DIMS`] such runs before
    /// its ejection, or more hops than a `u16` hop index can count.
    pub fn from_route(route: &Route) -> DorPath {
        let hops = &route.hops()[..route.network_hops()];
        let mut path = DorPath::empty();
        for (i, &port) in hops.iter().enumerate() {
            if hops.get(i + 1) != Some(&port) {
                path.push(port, i as u64 + 1);
            }
        }
        path
    }

    fn empty() -> DorPath {
        DorPath {
            ports: [0; MAX_DIMS],
            ends: [0; MAX_DIMS],
            legs: 0,
        }
    }

    fn push(&mut self, port: Port, end: u64) {
        let legs = self.legs as usize;
        assert!(legs < MAX_DIMS, "a path has at most {MAX_DIMS} legs");
        self.ports[legs] = port.index() as u8;
        self.ends[legs] = u16::try_from(end).expect("a path's hop index fits in u16");
        self.legs += 1;
    }

    /// The output port taken at hop `hop`; [`Port::Local`] at and past
    /// the ejection hop.
    pub fn port(&self, hop: u16) -> Port {
        for leg in 0..self.legs as usize {
            if hop < self.ends[leg] {
                return Port::from_index(self.ports[leg] as usize, MAX_DIMS as u8);
            }
        }
        Port::Local
    }

    /// Routers visited, the destination's ejection included (the length
    /// of [`Route::hops`] for the same route).
    pub fn hop_count(&self) -> usize {
        match self.legs {
            0 => 1,
            legs => self.ends[legs as usize - 1] as usize + 1,
        }
    }

    /// The output ports hop by hop, ending with [`Port::Local`].
    pub fn hops(&self) -> impl Iterator<Item = Port> + '_ {
        (0..self.hop_count()).map(|hop| self.port(hop as u16))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t44() -> Topology {
        Topology::torus(&[4, 4]).unwrap()
    }

    /// Follow a route hop-by-hop and return the final node.
    fn walk(t: &Topology, src: NodeId, route: &Route) -> NodeId {
        let mut at = src;
        for hop in route.hops() {
            match hop {
                Port::Local => return at,
                Port::Dir { dim, dir } => {
                    at = t
                        .neighbor(at, *dim as usize, *dir)
                        .expect("route leaves the topology");
                }
            }
        }
        unreachable!("route must end with Local")
    }

    #[test]
    fn routes_reach_destination() {
        let t = t44();
        for src in t.nodes() {
            for dst in t.nodes() {
                for order in [DimensionOrder::XFirst, DimensionOrder::YFirst] {
                    let r = dor_route(&t, src, dst, order.clone());
                    assert_eq!(walk(&t, src, &r), dst, "{src}->{dst} {order:?}");
                }
            }
        }
    }

    #[test]
    fn routes_are_minimal() {
        let t = t44();
        for src in t.nodes() {
            for dst in t.nodes() {
                let r = dor_route(&t, src, dst, DimensionOrder::YFirst);
                assert_eq!(
                    r.network_hops() as u32,
                    t.distance(src, dst),
                    "{src}->{dst}"
                );
            }
        }
    }

    #[test]
    fn y_first_exhausts_y_before_x() {
        let t = t44();
        // (0,0) -> (1,1): y-first goes north then east.
        let r = dor_route(&t, NodeId(0), NodeId(5), DimensionOrder::YFirst);
        assert_eq!(
            r.hops(),
            &[
                Port::Dir {
                    dim: 1,
                    dir: Direction::Plus
                },
                Port::Dir {
                    dim: 0,
                    dir: Direction::Plus
                },
                Port::Local
            ]
        );
        // X-first reverses the first two hops.
        let r = dor_route(&t, NodeId(0), NodeId(5), DimensionOrder::XFirst);
        assert_eq!(
            r.hops()[0],
            Port::Dir {
                dim: 0,
                dir: Direction::Plus
            }
        );
    }

    #[test]
    fn wraparound_shortcut_taken() {
        let t = t44();
        // (0,0) -> (3,0) is one hop west via wrap-around.
        let r = dor_route(&t, NodeId(0), NodeId(3), DimensionOrder::XFirst);
        assert_eq!(r.network_hops(), 1);
        assert_eq!(
            r.hops()[0],
            Port::Dir {
                dim: 0,
                dir: Direction::Minus
            }
        );
    }

    #[test]
    fn mesh_routing_has_no_wrap() {
        let m = Topology::mesh(&[4, 4]).unwrap();
        let r = dor_route(&m, NodeId(0), NodeId(3), DimensionOrder::XFirst);
        assert_eq!(r.network_hops(), 3);
    }

    #[test]
    fn self_route_is_immediate_ejection() {
        let t = t44();
        let r = dor_route(&t, NodeId(6), NodeId(6), DimensionOrder::YFirst);
        assert_eq!(r.hops(), &[Port::Local]);
        assert_eq!(r.network_hops(), 0);
    }

    #[test]
    fn custom_order_permutation() {
        let t = Topology::torus(&[4, 4, 4]).unwrap();
        let r = dor_route(
            &t,
            NodeId(0),
            t.node_at(&[1, 1, 1]),
            DimensionOrder::Custom(vec![2, 0, 1]),
        );
        assert_eq!(
            r.hops()[0],
            Port::Dir {
                dim: 2,
                dir: Direction::Plus
            }
        );
        assert_eq!(r.network_hops(), 3);
    }

    #[test]
    #[should_panic(expected = "permutation")]
    fn custom_order_rejects_bad_permutation() {
        let t = t44();
        let _ = dor_route(&t, NodeId(0), NodeId(1), DimensionOrder::Custom(vec![0, 0]));
    }

    #[test]
    fn paths_match_reference_routes() {
        for t in [
            t44(),
            Topology::mesh(&[3, 5]).unwrap(),
            Topology::torus(&[5, 2, 4]).unwrap(),
        ] {
            for order in [DimensionOrder::XFirst, DimensionOrder::YFirst] {
                let visit = order.order(t.dims());
                for src in t.nodes() {
                    for dst in t.nodes() {
                        let route = dor_route(&t, src, dst, order.clone());
                        let path = DorPath::new(&t, src, dst, &visit);
                        assert!(path.hops().eq(route.hops().iter().copied()), "{src}->{dst}");
                        assert_eq!(path, DorPath::from_route(&route), "{src}->{dst}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "at most 8 legs")]
    fn from_route_rejects_zigzags() {
        let east = Port::Dir {
            dim: 0,
            dir: Direction::Plus,
        };
        let north = Port::Dir {
            dim: 1,
            dir: Direction::Plus,
        };
        let mut hops: Vec<Port> = [east, north].repeat(5);
        hops.push(Port::Local);
        let _ = DorPath::from_route(&Route::new(hops));
    }

    #[test]
    fn display_route() {
        let t = t44();
        let r = dor_route(&t, NodeId(0), NodeId(5), DimensionOrder::YFirst);
        assert_eq!(r.to_string(), "[d1+ d0+ local]");
    }
}
