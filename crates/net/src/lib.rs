//! Topologies, routing and traffic workloads for the Orion
//! power-performance simulator reproduction.
//!
//! The paper's case studies (§4) run on a 4×4 torus with source
//! dimension-ordered routing and synthetic workloads (uniform random and
//! broadcast traffic). This crate generalises those ingredients:
//!
//! * [`topology`] — k-ary n-cube [`Topology`] (torus or mesh) with the
//!   paper's five-port router convention (local injection/ejection port
//!   plus ± ports per dimension),
//! * [`routing`] — source dimension-ordered routing ([`dor_route`])
//!   with configurable dimension order (the paper routes the y-axis
//!   first, §4.3),
//! * [`traffic`] — synthetic [`TrafficPattern`]s: uniform random,
//!   broadcast, transpose, bit-complement, tornado, hotspot and
//!   nearest-neighbour, all driven by a Bernoulli injection process,
//! * [`trace`] — record/replay of communication traces (§4.3: "Orion can
//!   be interfaced with actual communication traces").
//!
//! The network is fault-free, as in the paper: a packet's route is a
//! pure function of the topology, its endpoints and the dimension
//! order.
//!
//! # Example
//!
//! ```
//! use orion_net::{DimensionOrder, NodeId, Topology, dor_route};
//!
//! let torus = Topology::torus(&[4, 4])?;
//! let route = dor_route(&torus, NodeId(0), NodeId(10), DimensionOrder::YFirst);
//! // Every route ends by ejecting at the local port.
//! assert!(route.hops().len() >= 1);
//! # Ok::<(), orion_net::TopologyError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod routing;
pub mod topology;
pub mod trace;
pub mod traffic;

pub use routing::{dor_route, DimensionOrder, Route};
pub use topology::{Direction, NodeId, Port, Topology, TopologyError, TopologyKind};
pub use trace::{TraceEvent, TraceTraffic};
pub use traffic::{PatternKind, TrafficPattern};
