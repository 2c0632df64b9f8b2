//! Flit FIFOs with exact switching-activity tracking.
//!
//! The paper's buffer power model (Table 2) needs two activity factors
//! per write: `δ_bw` (write bitlines toggling relative to the previous
//! value driven on the write port) and `δ_bc` (memory cells flipping —
//! the new value against the *old contents of the slot being
//! overwritten*). [`FlitFifo`] mirrors the SRAM ring so both are
//! computed exactly from the 64-bit payload samples.
//!
//! Storage is a fixed-capacity ring buffer allocated once at
//! construction — the steady-state push/pop path never touches the
//! allocator (the hot-loop contract of the allocation-free core; see
//! docs/PERFORMANCE.md). The original `VecDeque`-backed implementation
//! is preserved as [`reference::VecFlitFifo`], and a property test pins
//! the ring observationally equivalent to it under arbitrary
//! push/pop/peek sequences.
//!
//! **Bit-identity invariant**: the SRAM mirror (`slots`, `wr_ptr`,
//! `last_bus`) is deliberately decoupled from the logical queue — a
//! push that bypasses an empty queue must *not* advance the mirror,
//! because no SRAM write happened. Both implementations share this
//! behaviour exactly.

use orion_power::WriteActivity;

use crate::energy::scaled_hamming;
use crate::snapshot::{ByteReader, ByteWriter, SnapshotError};

/// A bounded FIFO of flits that reports exact per-write switching
/// activity.
///
/// Generic over the stored item so the routers can queue lightweight
/// [`FlitRef`](crate::arena::FlitRef) arena handles while tests and
/// benches queue owned [`Flit`](crate::flit::Flit)s; the 64-bit payload
/// sample that drives the SRAM activity model is passed explicitly on
/// push.
///
/// ```
/// use orion_sim::fifo::FlitFifo;
/// let fifo: FlitFifo<u64> = FlitFifo::new(4, 64);
/// assert_eq!(fifo.free(), 4);
/// assert!(fifo.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FlitFifo<T> {
    /// Ring storage: `capacity` slots, logical head at `head`. Each
    /// occupied slot holds the item and whether it was physically
    /// written to the SRAM (false = bypassed an empty queue).
    ring: Box<[Option<(T, bool)>]>,
    head: usize,
    len: usize,
    capacity: usize,
    /// Flit width in bits (for activity scaling).
    width: u32,
    /// Payload last stored in each physical slot (SRAM ring mirror).
    slots: Vec<u64>,
    /// Next slot the write pointer targets.
    wr_ptr: usize,
    /// Last value driven on the write bitlines.
    last_bus: u64,
}

impl<T> FlitFifo<T> {
    /// Creates an empty FIFO of `capacity` flits of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` or `width` is zero.
    pub fn new(capacity: usize, width: u32) -> FlitFifo<T> {
        assert!(capacity > 0, "fifo capacity must be positive");
        assert!(width > 0, "flit width must be positive");
        FlitFifo {
            ring: (0..capacity).map(|_| None).collect(),
            head: 0,
            len: 0,
            capacity,
            width,
            slots: vec![0; capacity],
            wr_ptr: 0,
            last_bus: 0,
        }
    }

    /// Number of flits currently buffered.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no flits are buffered.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Free slots.
    pub fn free(&self) -> usize {
        self.capacity - self.len
    }

    /// Total capacity in flits.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The item at the head of the queue, if any.
    pub fn head(&self) -> Option<&T> {
        if self.len == 0 {
            return None;
        }
        self.ring[self.head].as_ref().map(|(item, _)| item)
    }

    /// `i` (below `2 * capacity`) wrapped into the ring — a compare
    /// instead of `% capacity`: the flit-hop path never divides.
    fn wrap(&self, i: usize) -> usize {
        if i >= self.capacity {
            i - self.capacity
        } else {
            i
        }
    }

    /// Ring index of the `offset`-th queued flit.
    fn slot_index(&self, offset: usize) -> usize {
        self.wrap(self.head + offset)
    }

    fn enqueue(&mut self, item: T, stored: bool) {
        let tail = self.slot_index(self.len);
        debug_assert!(self.ring[tail].is_none(), "tail slot must be free");
        self.ring[tail] = Some((item, stored));
        self.len += 1;
    }

    /// Computes the SRAM write activity for `payload` and advances the
    /// mirror (write bus + slot contents + write pointer).
    fn mirror_write(&mut self, payload: u64) -> WriteActivity {
        let activity = WriteActivity {
            switching_bitlines: scaled_hamming(payload, self.last_bus, self.width),
            switching_cells: scaled_hamming(payload, self.slots[self.wr_ptr], self.width),
        };
        self.slots[self.wr_ptr] = payload;
        self.wr_ptr = self.wrap(self.wr_ptr + 1);
        self.last_bus = payload;
        activity
    }

    /// Pushes a flit. Returns `Some(activity)` when the flit was
    /// physically written to the SRAM, or `None` when it bypassed an
    /// empty queue (no buffer energy; the matching [`pop`](FlitFifo::pop)
    /// will report that no read is due either).
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full — flow control must prevent this; a
    /// violation indicates a credit-accounting bug.
    pub fn push(&mut self, item: T, payload: u64) -> Option<WriteActivity> {
        assert!(
            self.len < self.capacity,
            "fifo overflow: credit flow control violated"
        );
        if self.len == 0 {
            self.enqueue(item, false);
            return None;
        }
        let activity = self.mirror_write(payload);
        self.enqueue(item, true);
        activity.into()
    }

    /// Pushes a flit, always charging the SRAM write (no bypass) — used
    /// where the storage is the switching medium itself, e.g. the
    /// central buffer's banks.
    ///
    /// # Panics
    ///
    /// Panics if the FIFO is full.
    pub fn push_stored(&mut self, item: T, payload: u64) -> WriteActivity {
        assert!(
            self.len < self.capacity,
            "fifo overflow: credit flow control violated"
        );
        let activity = self.mirror_write(payload);
        self.enqueue(item, true);
        activity
    }

    /// Pops the head flit, reporting whether an SRAM read is due
    /// (`false` for flits that bypassed the array). Reads have no
    /// data-dependent activity factor (Table 2).
    pub fn pop(&mut self) -> Option<(T, bool)> {
        if self.len == 0 {
            return None;
        }
        let entry = self.ring[self.head].take().expect("head slot is occupied");
        self.head = self.wrap(self.head + 1);
        self.len -= 1;
        Some(entry)
    }

    /// Iterates over the buffered items from head to tail.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        (0..self.len).map(move |offset| {
            let (item, _) = self.ring[self.slot_index(offset)]
                .as_ref()
                .expect("queued slot is occupied");
            item
        })
    }

    /// Encodes the full FIFO state (queue contents head→tail, SRAM
    /// mirror, pointers) with `encode_item` serialising each item.
    pub(crate) fn encode_with(
        &self,
        w: &mut ByteWriter,
        encode_item: &mut dyn FnMut(&T, &mut ByteWriter),
    ) {
        w.usize(self.capacity);
        w.u32(self.width);
        w.usize(self.head);
        w.usize(self.len);
        for offset in 0..self.len {
            let (item, stored) = self.ring[self.slot_index(offset)]
                .as_ref()
                .expect("queued slot is occupied");
            encode_item(item, w);
            w.bool(*stored);
        }
        for &s in &self.slots {
            w.u64(s);
        }
        w.usize(self.wr_ptr);
        w.u64(self.last_bus);
    }

    /// Restores state encoded by [`FlitFifo::encode_with`] into this
    /// FIFO, which must have the same geometry (capacity and width) —
    /// a mismatch means the snapshot was taken on a different
    /// configuration and is rejected.
    pub(crate) fn decode_into_with(
        &mut self,
        r: &mut ByteReader<'_>,
        decode_item: &mut dyn FnMut(&mut ByteReader<'_>) -> Result<T, SnapshotError>,
    ) -> Result<(), SnapshotError> {
        if r.usize()? != self.capacity {
            return Err(SnapshotError::Mismatch("fifo capacity"));
        }
        if r.u32()? != self.width {
            return Err(SnapshotError::Mismatch("fifo width"));
        }
        let head = r.usize()?;
        let len = r.usize()?;
        if head >= self.capacity || len > self.capacity {
            return Err(SnapshotError::Invalid("fifo pointers"));
        }
        self.ring.iter_mut().for_each(|slot| *slot = None);
        self.head = head;
        self.len = 0;
        for _ in 0..len {
            let item = decode_item(r)?;
            let stored = r.bool()?;
            self.enqueue(item, stored);
        }
        for s in self.slots.iter_mut() {
            *s = r.u64()?;
        }
        let wr_ptr = r.usize()?;
        if wr_ptr >= self.capacity {
            return Err(SnapshotError::Invalid("fifo write pointer"));
        }
        self.wr_ptr = wr_ptr;
        self.last_bus = r.u64()?;
        Ok(())
    }
}

/// The pre-ring reference implementation, kept for differential
/// property testing.
pub mod reference {
    use std::collections::VecDeque;

    use orion_power::WriteActivity;

    use crate::energy::scaled_hamming;

    /// The original `VecDeque`-backed flit FIFO (v0.3.0 and earlier).
    ///
    /// Behaviourally identical to [`FlitFifo`](super::FlitFifo) — the
    /// property suite in `tests/properties.rs` drives both with
    /// arbitrary push/pop/peek sequences and asserts every observable
    /// (contents, order, activities, bypass flags) matches. Not used by
    /// the simulator.
    #[derive(Debug, Clone)]
    pub struct VecFlitFifo<T> {
        queue: VecDeque<T>,
        stored: VecDeque<bool>,
        capacity: usize,
        width: u32,
        slots: Vec<u64>,
        wr_ptr: usize,
        last_bus: u64,
    }

    impl<T> VecFlitFifo<T> {
        /// Creates an empty FIFO of `capacity` flits of `width` bits.
        ///
        /// # Panics
        ///
        /// Panics if `capacity` or `width` is zero.
        pub fn new(capacity: usize, width: u32) -> VecFlitFifo<T> {
            assert!(capacity > 0, "fifo capacity must be positive");
            assert!(width > 0, "flit width must be positive");
            VecFlitFifo {
                queue: VecDeque::with_capacity(capacity),
                stored: VecDeque::with_capacity(capacity),
                capacity,
                width,
                slots: vec![0; capacity],
                wr_ptr: 0,
                last_bus: 0,
            }
        }

        /// Number of flits currently buffered.
        pub fn len(&self) -> usize {
            self.queue.len()
        }

        /// `true` when no flits are buffered.
        pub fn is_empty(&self) -> bool {
            self.queue.is_empty()
        }

        /// Free slots.
        pub fn free(&self) -> usize {
            self.capacity - self.queue.len()
        }

        /// The item at the head of the queue, if any.
        pub fn head(&self) -> Option<&T> {
            self.queue.front()
        }

        /// See [`FlitFifo::push`](super::FlitFifo::push).
        ///
        /// # Panics
        ///
        /// Panics if the FIFO is full.
        pub fn push(&mut self, item: T, payload: u64) -> Option<WriteActivity> {
            assert!(
                self.queue.len() < self.capacity,
                "fifo overflow: credit flow control violated"
            );
            if self.queue.is_empty() {
                self.queue.push_back(item);
                self.stored.push_back(false);
                return None;
            }
            let new = payload;
            let old_in_slot = self.slots[self.wr_ptr];
            let activity = WriteActivity {
                switching_bitlines: scaled_hamming(new, self.last_bus, self.width),
                switching_cells: scaled_hamming(new, old_in_slot, self.width),
            };
            self.slots[self.wr_ptr] = new;
            self.wr_ptr = (self.wr_ptr + 1) % self.capacity;
            self.last_bus = new;
            self.queue.push_back(item);
            self.stored.push_back(true);
            activity.into()
        }

        /// See [`FlitFifo::push_stored`](super::FlitFifo::push_stored).
        ///
        /// # Panics
        ///
        /// Panics if the FIFO is full.
        pub fn push_stored(&mut self, item: T, payload: u64) -> WriteActivity {
            assert!(
                self.queue.len() < self.capacity,
                "fifo overflow: credit flow control violated"
            );
            let new = payload;
            let old_in_slot = self.slots[self.wr_ptr];
            let activity = WriteActivity {
                switching_bitlines: scaled_hamming(new, self.last_bus, self.width),
                switching_cells: scaled_hamming(new, old_in_slot, self.width),
            };
            self.slots[self.wr_ptr] = new;
            self.wr_ptr = (self.wr_ptr + 1) % self.capacity;
            self.last_bus = new;
            self.queue.push_back(item);
            self.stored.push_back(true);
            activity
        }

        /// See [`FlitFifo::pop`](super::FlitFifo::pop).
        pub fn pop(&mut self) -> Option<(T, bool)> {
            let item = self.queue.pop_front()?;
            let stored = self.stored.pop_front().expect("stored flags in sync");
            Some((item, stored))
        }

        /// Iterates over the buffered items from head to tail.
        pub fn iter(&self) -> impl Iterator<Item = &T> {
            self.queue.iter()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{make_packet, Flit, PacketId};
    use orion_net::{dor_route, DimensionOrder, NodeId, Topology};
    use std::sync::Arc;

    /// Push an owned flit, deriving the activity payload from it (the
    /// pre-generic API shape, used throughout these tests).
    fn push(fifo: &mut FlitFifo<Flit>, f: Flit) -> Option<WriteActivity> {
        let p = f.payload;
        fifo.push(f, p)
    }

    fn push_stored(fifo: &mut FlitFifo<Flit>, f: Flit) -> WriteActivity {
        let p = f.payload;
        fifo.push_stored(f, p)
    }

    fn flits(n: u32) -> Vec<Flit> {
        let t = Topology::torus(&[4, 4]).unwrap();
        let r = Arc::new(dor_route(&t, NodeId(0), NodeId(5), DimensionOrder::YFirst));
        make_packet(PacketId(9), NodeId(0), NodeId(5), r, n, 0, false)
    }

    #[test]
    fn fifo_order_preserved() {
        let mut fifo = FlitFifo::new(8, 64);
        for f in flits(5) {
            push(&mut fifo, f);
        }
        for seq in 0..5 {
            assert_eq!(fifo.pop().unwrap().0.seq, seq);
        }
        assert!(fifo.pop().is_none());
    }

    #[test]
    fn free_and_len_track() {
        let mut fifo = FlitFifo::new(4, 64);
        assert_eq!(fifo.free(), 4);
        let fs = flits(3);
        for f in fs {
            push(&mut fifo, f);
        }
        assert_eq!(fifo.len(), 3);
        assert_eq!(fifo.free(), 1);
        fifo.pop();
        assert_eq!(fifo.free(), 2);
    }

    #[test]
    #[should_panic(expected = "fifo overflow")]
    fn overflow_panics() {
        let mut fifo = FlitFifo::new(2, 64);
        for f in flits(3) {
            push(&mut fifo, f);
        }
    }

    #[test]
    fn first_push_to_empty_queue_bypasses() {
        let mut fifo = FlitFifo::new(4, 64);
        let f = &flits(1)[0];
        assert!(push(&mut fifo, f.clone()).is_none(), "empty queue: bypass");
        let (_, stored) = fifo.pop().unwrap();
        assert!(!stored, "bypassed flit owes no read");
    }

    #[test]
    fn second_push_is_stored_with_activity() {
        let mut fifo = FlitFifo::new(4, 64);
        let fs = flits(2);
        assert!(push(&mut fifo, fs[0].clone()).is_none());
        let expect = fs[1].payload.count_ones() as f64;
        let act = push(&mut fifo, fs[1].clone()).expect("nonempty queue stores");
        assert_eq!(act.switching_bitlines, expect);
        assert_eq!(act.switching_cells, expect);
        assert!(!fifo.pop().unwrap().1);
        assert!(fifo.pop().unwrap().1, "stored flit owes a read");
    }

    #[test]
    fn push_stored_always_charges() {
        let mut fifo = FlitFifo::new(4, 64);
        let f = &flits(1)[0];
        let act = push_stored(&mut fifo, f.clone());
        assert!(act.switching_bitlines > 0.0);
        assert!(fifo.pop().unwrap().1);
    }

    #[test]
    fn rewriting_same_payload_causes_no_switching() {
        let mut fifo = FlitFifo::new(4, 64);
        let mut f = flits(1)[0].clone();
        f.payload = 0xDEAD_BEEF;
        // Fill all four physical slots with the payload, then one more
        // write into a slot that already holds it.
        for _ in 0..5 {
            push_stored(&mut fifo, f.clone());
            fifo.pop();
        }
        let act = push_stored(&mut fifo, f.clone());
        assert_eq!(act.switching_bitlines, 0.0);
        assert_eq!(act.switching_cells, 0.0);
    }

    #[test]
    fn width_scaling_applies() {
        // 128-bit flit modelled by a 64-bit sample: activity doubles.
        let mut narrow = FlitFifo::new(4, 64);
        let mut wide = FlitFifo::new(4, 128);
        let f = &flits(1)[0];
        let a64 = push_stored(&mut narrow, f.clone());
        let a128 = push_stored(&mut wide, f.clone());
        assert!((a128.switching_bitlines - 2.0 * a64.switching_bitlines).abs() < 1e-12);
    }

    #[test]
    fn head_peeks_without_removing() {
        let mut fifo = FlitFifo::new(4, 64);
        for f in flits(2) {
            push(&mut fifo, f);
        }
        assert_eq!(fifo.head().unwrap().seq, 0);
        assert_eq!(fifo.len(), 2);
        assert_eq!(fifo.iter().count(), 2);
    }

    #[test]
    fn ring_wraps_many_times_without_reordering() {
        // Push/pop far past the capacity so head and write pointer wrap
        // repeatedly; order and mirror state must track throughout.
        let mut ring = FlitFifo::new(3, 64);
        let mut reference = reference::VecFlitFifo::new(3, 64);
        let fs = flits(8);
        let mut next = 0usize;
        for round in 0..50 {
            if round % 3 != 2 && ring.free() > 0 {
                let f = fs[next % fs.len()].clone();
                next += 1;
                let p = f.payload;
                let a = ring.push(f.clone(), p);
                let b = reference.push(f, p);
                assert_eq!(a.is_some(), b.is_some());
                if let (Some(a), Some(b)) = (a, b) {
                    assert_eq!(a.switching_bitlines, b.switching_bitlines);
                    assert_eq!(a.switching_cells, b.switching_cells);
                }
            } else {
                let a = ring.pop();
                let b = reference.pop();
                match (a, b) {
                    (Some((fa, sa)), Some((fb, sb))) => {
                        assert_eq!(fa.payload, fb.payload);
                        assert_eq!(fa.seq, fb.seq);
                        assert_eq!(sa, sb);
                    }
                    (None, None) => {}
                    other => panic!("ring/reference diverged: {other:?}"),
                }
            }
            assert_eq!(ring.len(), reference.len());
            assert_eq!(
                ring.head().map(|f| f.payload),
                reference.head().map(|f| f.payload)
            );
        }
    }
}
