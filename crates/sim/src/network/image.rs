//! The canonical state image: one byte form of a network's state at a
//! cycle boundary, whatever the partition that holds it.
//!
//! A whole [`Network`] and a sharded one write **the same bytes** at
//! the same cycle — the image the single engine writes. The writer
//! takes a slice of engines that cover contiguous ascending node
//! ranges (one engine, or one per shard) plus the [`Coordinator`]
//! state kept outside them; the reader parses the image once and
//! hands each engine of *another* partition its nodes, returning the
//! messages that cross the new partition for its mailboxes. So a
//! checkpoint resumes at any shard count.
//!
//! Layout (little-endian, see [`ByteWriter`]):
//!
//! 1. identity: topology kind, dimensions, radices, router family;
//! 2. the global scalars: cycle, next packet id, the progress,
//!    delivery and credit clocks, `busy_since`, the audit counters
//!    (summed), and the merged statistics;
//! 3. per node, in node order: router state, source queue, outgoing
//!    link rows, energy-ledger row;
//! 4. the flit and credit wheels, one slot per cycle from the current
//!    one;
//! 5. the sinks' reassembly records, by packet id.
//!
//! Flits are written inline where they are held; a flit's route is not
//! written (it is a function of the topology and its endpoints). A
//! boundary flit or credit in a mailbox is written as the wheel entry
//! the single engine holds for it.
//!
//! **Wheel order is state.** Within a slot, flit arrivals at one router
//! charge its buffers and ledger row in slot order, and f64 addition
//! does not commute bitwise; ejections update the statistics in slot
//! order. The single engine's slot is in ascending source-node order,
//! ejections last, a node's own departures in grant order. The image
//! writes a stable sort of it by (ejection, source node, destination),
//! which keeps every order that matters and drops the one a partition
//! cannot see (the grant order between departures to different
//! routers). Credits only increment counters; they are sorted whole.
//!
//! The image has no version word: the checkpoint file frame carries
//! the one version. Every index read from it is checked against the
//! network it is restored into, so a corrupt or foreign image is a
//! typed [`SnapshotError`], never a panic.

use std::collections::HashMap;

use orion_net::{DorPath, NodeId, Topology, TopologyKind};

use super::{AnyRouter, CreditArrival, FlitArrival, Network, Progress, RouterKind};
use crate::arena::{FlitArena, FlitRef};
use crate::boundary::{CreditMsg, FlitMsg};
use crate::flit::{Flit, PacketId};
use crate::snapshot::{ByteReader, ByteWriter, SnapshotError};
use crate::stats::SimStats;

/// Bytes of an inline flit, the floor for a decoded flit count.
const FLIT_BYTES: usize = 61;

/// A boundary message between two engines of a partition.
#[derive(Debug, Clone)]
pub struct Mail<T> {
    /// Index of the sending engine.
    pub from: usize,
    /// Index of the receiving engine.
    pub to: usize,
    /// The cycle it is delivered at.
    pub cycle: u64,
    /// The message.
    pub msg: T,
}

/// What a partitioned network keeps outside its engines: the global
/// packet counter, the livelock clock and the boundary messages in
/// transit. A whole network keeps the two scalars itself and has no
/// mail.
#[derive(Debug, Clone, Default)]
pub struct Coordinator {
    /// The next packet id to allocate.
    pub next_packet: u64,
    /// Cycle of the last enqueue that found the network empty.
    pub busy_since: u64,
    /// Boundary flits in transit.
    pub flits: Vec<Mail<FlitMsg>>,
    /// Boundary credits in transit.
    pub credits: Vec<Mail<CreditMsg>>,
}

/// Appends the canonical image of the network that `parts` partition
/// (with `coord` the state held outside them) to `w`.
///
/// # Panics
///
/// If `parts` do not cover the nodes in contiguous ascending ranges
/// at one cycle.
pub fn write_image(parts: &[&Network], coord: &Coordinator, w: &mut ByteWriter) {
    let first = parts[0];
    check_partition(parts.iter().map(|p| (p.lo, p.hi, p.cycle)), first);
    let topo = &first.spec.topology;
    let ports = topo.ports_per_router();
    let cycle = first.cycle;
    w.u8(kind_tag(topo.kind()));
    w.u8(topo.dims() as u8);
    for dim in 0..topo.dims() {
        w.u32(topo.radix(dim));
    }
    w.u8(router_tag(&first.spec.router));
    w.u64(cycle);
    w.u64(coord.next_packet);
    let max = |f: fn(&Network) -> u64| parts.iter().map(|p| f(p)).max().unwrap_or(0);
    w.u64(max(|p| p.last_progress));
    w.u64(max(|p| p.last_delivery));
    w.u64(max(|p| p.last_credit));
    w.u64(coord.busy_since);
    w.u64(parts.iter().map(|p| p.audit_enqueued).sum());
    w.u64(parts.iter().map(|p| p.audit_ejected).sum());
    merge_stats(parts).encode(w);

    for p in parts {
        let arena = &p.arena;
        let mut put = |h: &FlitRef, w: &mut ByteWriter| write_flit(arena.get(*h), w);
        for (li, router) in p.routers.iter().enumerate() {
            let node = p.lo + li;
            match router {
                AnyRouter::Vc(r) => r.encode(w, &mut put),
                AnyRouter::Central(r) => r.encode(w, &mut put),
            }
            let source = &p.sources[li];
            w.usize(source.queue.len());
            for h in &source.queue {
                put(h, w);
            }
            w.usize(source.current_vc);
            w.u32(source.remaining);
            for link in &p.links[node * ports..(node + 1) * ports] {
                w.u64(link.last);
                w.u64(link.flits);
            }
            p.ledger.encode_row(node, w);
        }
    }

    let horizon = first.flit_wheel.slots.len();
    let mut flits: Vec<(ArrivalKey, usize, &Flit)> = Vec::new();
    let mut credits: Vec<(usize, usize, usize)> = Vec::new();
    for at in cycle..cycle + horizon as u64 {
        let slot = at as usize % horizon;
        flits.clear();
        for p in parts {
            for a in &p.flit_wheel.slots[slot] {
                let key = arrival_key(first, a.dest, a.in_port);
                flits.push((key, a.in_port, p.arena.get(a.flit)));
            }
        }
        for m in coord.flits.iter().filter(|m| m.cycle == at) {
            let key = arrival_key(first, m.msg.dest, m.msg.in_port);
            flits.push((key, m.msg.in_port, &m.msg.flit));
        }
        flits.sort_by_key(|e| e.0);
        // A port index (at most 17: eight dimensions) and a VC index
        // (at most 127 input VCs) each fit a byte.
        w.usize(flits.len());
        for &((_, _, dest), in_port, flit) in &flits {
            w.usize(dest);
            w.u8(in_port as u8);
            write_flit(flit, w);
        }
        credits.clear();
        for p in parts {
            let entries = p.credit_wheel.slots[slot].iter();
            credits.extend(entries.map(|c| (c.dest, c.out_port, c.vc)));
        }
        let mail = coord.credits.iter().filter(|m| m.cycle == at);
        credits.extend(mail.map(|m| (m.msg.dest, m.msg.out_port, m.msg.vc)));
        credits.sort_unstable();
        w.usize(credits.len());
        for &(dest, out_port, vc) in &credits {
            w.usize(dest);
            w.u8(out_port as u8);
            w.u8(vc as u8);
        }
    }

    let mut sinks: Vec<(&PacketId, &Progress)> = parts.iter().flat_map(|p| &p.sinks).collect();
    sinks.sort_unstable_by_key(|(id, _)| id.0);
    w.usize(sinks.len());
    for (id, p) in sinks {
        w.u64(id.0);
        w.u32(p.dst);
        w.u32(p.received);
        w.u32(p.len);
        w.u64(p.created);
        w.bool(p.tagged);
    }
}

/// Restores an image written by [`write_image`] into `parts`, which
/// must partition a network built from the same spec and power models
/// (at any shard count). Returns the coordinator state: the global
/// scalars and the messages whose link crosses this partition, for the
/// mailboxes to post.
///
/// # Errors
///
/// A typed [`SnapshotError`] for a truncated, corrupt or foreign
/// image. On error the engines are in an unspecified (memory-safe)
/// state and must be rebuilt before retrying.
///
/// # Panics
///
/// If `parts` do not cover the nodes in contiguous ascending ranges.
pub fn restore_image(
    parts: &mut [&mut Network],
    bytes: &[u8],
) -> Result<Coordinator, SnapshotError> {
    check_partition(parts.iter().map(|p| (p.lo, p.hi, p.cycle)), parts[0]);
    let his: Vec<usize> = parts.iter().map(|p| p.hi).collect();
    let part_of = |node: usize| his.partition_point(|&hi| hi <= node);
    let shape = Shape::of(parts[0]);
    let (n, ports) = (shape.n, shape.ports);
    let mut r = ByteReader::new(bytes);

    let topo = &shape.topology;
    if r.u8()? != kind_tag(topo.kind()) {
        return Err(SnapshotError::Mismatch("topology kind"));
    }
    if r.u8()? as usize != topo.dims() {
        return Err(SnapshotError::Mismatch("topology dimensions"));
    }
    for dim in 0..topo.dims() {
        if r.u32()? != topo.radix(dim) {
            return Err(SnapshotError::Mismatch("topology radix"));
        }
    }
    if r.u8()? != router_tag(&parts[0].spec.router) {
        return Err(SnapshotError::Mismatch("router kind"));
    }
    let cycle = r.u64()?;
    let next_packet = r.u64()?;
    let last_progress = r.u64()?;
    let last_delivery = r.u64()?;
    let last_credit = r.u64()?;
    let busy_since = r.u64()?;
    let audit_enqueued = r.u64()?;
    let audit_ejected = r.u64()?;
    let stats = SimStats::decode(&mut r)?;

    for p in parts.iter_mut() {
        let Network {
            routers,
            sources,
            links,
            ledger,
            arena,
            lo,
            ..
        } = &mut **p;
        *arena = FlitArena::new();
        for (li, router) in routers.iter_mut().enumerate() {
            let node = *lo + li;
            let mut take = |r: &mut ByteReader<'_>| -> Result<FlitRef, SnapshotError> {
                Ok(arena.alloc(shape.read_flit(r)?))
            };
            match router {
                AnyRouter::Vc(router) => router.decode_into(&mut r, &mut take)?,
                AnyRouter::Central(router) => router.decode_into(&mut r, &mut take)?,
            }
            let source = &mut sources[li];
            source.queue.clear();
            for _ in 0..r.count(FLIT_BYTES)? {
                let flit = shape.read_flit(&mut r)?;
                if flit.src.0 != node || flit.hop != 0 {
                    return Err(SnapshotError::Invalid("queued flit"));
                }
                source.queue.push_back(arena.alloc(flit));
            }
            source.current_vc = r.usize()?;
            if source.current_vc >= shape.vcs {
                return Err(SnapshotError::Invalid("source virtual channel"));
            }
            source.remaining = r.u32()?;
            for link in &mut links[node * ports..(node + 1) * ports] {
                link.last = r.u64()?;
                link.flits = r.u64()?;
            }
            ledger.decode_row(node, &mut r)?;
        }
    }

    let mut coord = Coordinator {
        next_packet,
        busy_since,
        ..Coordinator::default()
    };
    let horizon = parts[0].flit_wheel.slots.len();
    for p in parts.iter_mut() {
        p.flit_wheel.slots.iter_mut().for_each(Vec::clear);
        p.credit_wheel.slots.iter_mut().for_each(Vec::clear);
        p.flit_wheel.base = cycle;
        p.credit_wheel.base = cycle;
    }
    for at in cycle..cycle + horizon as u64 {
        let slot = at as usize % horizon;
        for _ in 0..r.count(FLIT_BYTES + 9)? {
            let dest = r.usize()?;
            let in_port = r.u8()? as usize;
            if dest >= n || in_port >= ports {
                return Err(SnapshotError::Invalid("flit arrival port"));
            }
            let flit = shape.read_flit(&mut r)?;
            let to = part_of(dest);
            // Links are symmetric: the wire leaving `dest` through its
            // input port is the reverse of the one the flit crossed.
            let wire = match in_port {
                0 if flit.dst.0 != dest => return Err(SnapshotError::Invalid("ejection node")),
                0 => None,
                _ => Some(
                    parts[to].links[dest * ports + in_port]
                        .wire
                        .ok_or(SnapshotError::Invalid("flit arrival port"))?,
                ),
            };
            let from = wire.map_or(to, |wire| part_of(wire.dest as usize));
            match wire {
                Some(wire) if from != to => {
                    let (crossed_dim, wraparound) = (wire.dim, wire.wraparound);
                    let msg = FlitMsg {
                        dest,
                        in_port,
                        crossed_dim,
                        wraparound,
                        flit,
                    };
                    coord.flits.push(Mail {
                        from,
                        to,
                        cycle: at,
                        msg,
                    });
                }
                _ => {
                    let p = &mut parts[to];
                    let flit = p.arena.alloc(flit);
                    p.flit_wheel.slots[slot].push(FlitArrival {
                        dest,
                        in_port,
                        crossed_dim: wire.map(|wire| wire.dim),
                        wraparound: wire.is_some_and(|wire| wire.wraparound),
                        to_sink: wire.is_none(),
                        flit,
                    });
                }
            }
        }
        for _ in 0..r.count(10)? {
            let dest = r.usize()?;
            let out_port = r.u8()? as usize;
            let vc = r.u8()? as usize;
            if dest >= n || out_port >= ports {
                return Err(SnapshotError::Invalid("credit arrival port"));
            }
            if vc >= shape.vcs {
                return Err(SnapshotError::Invalid("credit arrival vc"));
            }
            let to = part_of(dest);
            // The credit was sent by the router at the far end of the
            // output link it refills.
            let wire = parts[to].links[dest * ports + out_port]
                .wire
                .ok_or(SnapshotError::Invalid("credit arrival port"))?;
            let from = part_of(wire.dest as usize);
            if from != to {
                let msg = CreditMsg { dest, out_port, vc };
                coord.credits.push(Mail {
                    from,
                    to,
                    cycle: at,
                    msg,
                });
            } else {
                let credit = CreditArrival { dest, out_port, vc };
                parts[to].credit_wheel.slots[slot].push(credit);
            }
        }
    }

    let mut sinks: Vec<HashMap<PacketId, Progress>> =
        parts.iter().map(|_| HashMap::new()).collect();
    let mut last_id = None;
    for _ in 0..r.count(29)? {
        let id = r.u64()?;
        if last_id.is_some_and(|last| id <= last) {
            return Err(SnapshotError::Invalid("sink order"));
        }
        last_id = Some(id);
        let dst = r.u32()?;
        let received = r.u32()?;
        let len = r.u32()?;
        if dst as usize >= n || received >= len {
            return Err(SnapshotError::Invalid("sink progress"));
        }
        let progress = Progress {
            dst,
            received,
            len,
            created: r.u64()?,
            tagged: r.bool()?,
        };
        sinks[part_of(dst as usize)].insert(PacketId(id), progress);
    }
    if !r.is_empty() {
        return Err(SnapshotError::Invalid("trailing bytes"));
    }

    // The history (statistics, audit counters) sits in the first
    // engine: every logged delivery precedes every later one, so a
    // sharded merge by delivery cycle keeps the whole-network order
    // with any cycle up to now in the restored log.
    let sharded = parts.len() > 1;
    let mut history = Some((stats, audit_enqueued, audit_ejected));
    for (p, sinks) in parts.iter_mut().zip(sinks) {
        let (stats, enqueued, ejected) = history.take().unwrap_or_default();
        p.delivery_log.clear();
        if sharded {
            p.delivery_log.resize(stats.latencies().len(), 0);
        }
        p.stats = stats;
        p.audit_enqueued = enqueued;
        p.audit_ejected = ejected;
        p.sinks = sinks;
        p.cycle = cycle;
        p.next_packet = next_packet;
        p.last_progress = last_progress;
        p.last_delivery = last_delivery;
        p.last_credit = last_credit;
        p.busy_since = busy_since;
        p.flit_scratch.clear();
        p.credit_scratch.clear();
        // The activity sets are not in the image; the restored routers
        // and sources determine them.
        p.activity.recompute(&p.routers, &p.sources);
    }
    Ok(coord)
}

/// The statistics of the network that `parts` partition (contiguous
/// ascending node ranges): counters summed, the latency sample
/// re-interleaved into whole-network delivery order — by delivery
/// cycle, then ascending part, which is ascending destination node.
pub fn merge_stats(parts: &[&Network]) -> SimStats {
    if let [solo] = parts {
        return solo.stats.clone();
    }
    let mut out = SimStats::new();
    for p in parts {
        let s = &p.stats;
        out.packets_injected += s.packets_injected;
        out.packets_delivered += s.packets_delivered;
        out.flits_delivered += s.flits_delivered;
        out.tagged_injected += s.tagged_injected;
        out.tagged_delivered += s.tagged_delivered;
    }
    let mut idx = vec![0usize; parts.len()];
    loop {
        let mut best: Option<(u64, usize)> = None;
        for (s, p) in parts.iter().enumerate() {
            let log = &p.delivery_log;
            debug_assert_eq!(log.len(), p.stats.latencies().len());
            if idx[s] < log.len() {
                let c = log[idx[s]];
                // Strict < keeps the lowest part on ties.
                if best.is_none_or(|(bc, _)| c < bc) {
                    best = Some((c, s));
                }
            }
        }
        let Some((_, s)) = best else { break };
        out.push_latency_sample(parts[s].stats.latencies()[idx[s]]);
        idx[s] += 1;
    }
    out
}

/// Asserts that `ranges` `(lo, hi, cycle)` cover `first`'s topology
/// in contiguous ascending order at one cycle.
fn check_partition(ranges: impl Iterator<Item = (usize, usize, u64)>, first: &Network) {
    let mut next = 0;
    for (lo, hi, cycle) in ranges {
        assert_eq!(lo, next, "engines must cover contiguous ascending ranges");
        assert_eq!(cycle, first.cycle, "engines must be at one cycle");
        next = hi;
    }
    assert_eq!(
        next,
        first.spec.topology.num_nodes(),
        "engines must cover every node"
    );
}

/// The canonical sort key of a flit-wheel entry: (ejection, source
/// node, destination), so ejections sort last.
type ArrivalKey = (bool, usize, usize);

/// The [`ArrivalKey`] of an entry arriving at `dest` through `in_port`
/// (0 for an ejection).
fn arrival_key(net: &Network, dest: usize, in_port: usize) -> ArrivalKey {
    if in_port == 0 {
        return (true, dest, dest);
    }
    let ports = net.spec.topology.ports_per_router();
    let wire = net.links[dest * ports + in_port]
        .wire
        .expect("arrivals come over wired ports");
    (false, wire.dest as usize, dest)
}

fn kind_tag(kind: TopologyKind) -> u8 {
    match kind {
        TopologyKind::Torus => 0,
        TopologyKind::Mesh => 1,
    }
}

fn router_tag(router: &RouterKind) -> u8 {
    match router {
        RouterKind::Vc(_) => 0,
        RouterKind::Central(_) => 1,
    }
}

/// Writes a flit inline (its route is not written).
pub(super) fn write_flit(f: &Flit, w: &mut ByteWriter) {
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

/// What a flit read from an image is checked against.
struct Shape {
    topology: Topology,
    visit: Vec<usize>,
    n: usize,
    ports: usize,
    vcs: usize,
}

impl Shape {
    fn of(net: &Network) -> Shape {
        Shape {
            topology: net.spec.topology.clone(),
            visit: net.visit.clone(),
            n: net.spec.topology.num_nodes(),
            ports: net.spec.topology.ports_per_router(),
            vcs: net.spec.router.vcs(),
        }
    }

    fn read_flit(&self, r: &mut ByteReader<'_>) -> Result<Flit, SnapshotError> {
        let packet = PacketId(r.u64()?);
        let seq = r.u32()?;
        let packet_len = r.u32()?;
        if seq >= packet_len {
            return Err(SnapshotError::Invalid("flit sequence"));
        }
        let src = r.usize()?;
        let dst = r.usize()?;
        if src >= self.n || dst >= self.n {
            return Err(SnapshotError::Invalid("flit endpoint"));
        }
        let path = DorPath::new(&self.topology, NodeId(src), NodeId(dst), &self.visit);
        let hop = r.u16()?;
        if hop as usize >= path.hop_count() {
            return Err(SnapshotError::Invalid("flit hop index"));
        }
        let payload = r.u64()?;
        let created = r.u64()?;
        let ready = r.u64()?;
        let vc_class = r.u8()?;
        if vc_class > 1 {
            return Err(SnapshotError::Invalid("flit vc class"));
        }
        let target_vc = r.u8()?;
        if target_vc as usize >= self.vcs {
            return Err(SnapshotError::Invalid("flit target vc"));
        }
        Ok(Flit {
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
        })
    }
}
