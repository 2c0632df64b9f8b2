//! Generational flit arena: pooled flit storage for the hot cycle loop.
//!
//! The steady-state simulation loop moves every flit through a source
//! queue, an event-wheel slot per link hop, and back — with owned
//! [`Flit`] values that means repeated moves of a ~100-byte struct
//! through growable containers. The arena replaces those owned values
//! with copyable [`FlitRef`] handles: flits live in a slab of reusable
//! slots and only 8-byte references travel through the scheduler.
//! After warm-up the slab reaches its high-water mark and allocation
//! stops entirely — freed slots are recycled through a free list.
//!
//! Handles are *generational*: each slot carries a generation counter
//! bumped on every free, and a [`FlitRef`] is only valid for the
//! generation it was issued against. A stale handle (use-after-free or
//! double-free) panics immediately instead of silently aliasing a
//! recycled flit — the property suite in `tests/properties.rs` leans on
//! this to prove allocate/release conservation under random schedules.

use crate::flit::Flit;

/// A copyable handle to a flit stored in a [`FlitArena`].
///
/// Only meaningful for the arena that issued it; using it after the
/// flit was [taken](FlitArena::take) panics (generation mismatch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlitRef {
    index: u32,
    generation: u32,
}

#[derive(Debug, Clone)]
struct Slot {
    generation: u32,
    flit: Option<Flit>,
}

/// A generational slab of flits with a free list (see module docs).
///
/// ```
/// use orion_sim::arena::FlitArena;
/// let mut arena = FlitArena::new();
/// assert_eq!(arena.live(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct FlitArena {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
}

impl FlitArena {
    /// Creates an empty arena.
    pub fn new() -> FlitArena {
        FlitArena::default()
    }

    /// Creates an arena with `capacity` slots pre-allocated.
    pub fn with_capacity(capacity: usize) -> FlitArena {
        FlitArena {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            live: 0,
        }
    }

    /// Stores `flit` and returns its handle. Reuses a freed slot when
    /// one exists; only grows the slab at the high-water mark.
    pub fn alloc(&mut self, flit: Flit) -> FlitRef {
        self.live += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            debug_assert!(slot.flit.is_none(), "free-list slot must be empty");
            slot.flit = Some(flit);
            return FlitRef {
                index,
                generation: slot.generation,
            };
        }
        let index = u32::try_from(self.slots.len()).expect("arena outgrew u32 indices");
        self.slots.push(Slot {
            generation: 0,
            flit: Some(flit),
        });
        FlitRef {
            index,
            generation: 0,
        }
    }

    /// Removes and returns the flit behind `handle`, recycling its slot.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale — the slot was already freed
    /// (double free) and possibly reissued (use-after-free).
    pub fn take(&mut self, handle: FlitRef) -> Flit {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale FlitRef: slot {} was freed since this handle was issued \
             (double free or use-after-free)",
            handle.index
        );
        let flit = slot
            .flit
            .take()
            .expect("generation-matched slot holds a flit");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.live -= 1;
        flit
    }

    /// Borrows the flit behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (see [`FlitArena::take`]).
    pub fn get(&self, handle: FlitRef) -> &Flit {
        let slot = &self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale FlitRef: slot {} was freed since this handle was issued",
            handle.index
        );
        slot.flit
            .as_ref()
            .expect("generation-matched slot holds a flit")
    }

    /// Mutably borrows the flit behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if the handle is stale (see [`FlitArena::take`]).
    pub fn get_mut(&mut self, handle: FlitRef) -> &mut Flit {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale FlitRef: slot {} was freed since this handle was issued",
            handle.index
        );
        slot.flit
            .as_mut()
            .expect("generation-matched slot holds a flit")
    }

    /// Flits currently stored.
    pub fn live(&self) -> usize {
        self.live
    }

    /// `true` when no flits are stored.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Slab high-water mark: slots ever allocated (live + recycled).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flit::{make_packet, PacketId};
    use orion_net::{dor_route, DimensionOrder, NodeId, Topology};
    use std::sync::Arc;

    fn flits(n: u32) -> Vec<Flit> {
        let t = Topology::torus(&[4, 4]).unwrap();
        let r = Arc::new(dor_route(&t, NodeId(0), NodeId(5), DimensionOrder::YFirst));
        make_packet(PacketId(7), NodeId(0), NodeId(5), r, n, 0, false)
    }

    #[test]
    fn alloc_take_roundtrip() {
        let mut arena = FlitArena::new();
        let fs = flits(3);
        let handles: Vec<FlitRef> = fs.iter().cloned().map(|f| arena.alloc(f)).collect();
        assert_eq!(arena.live(), 3);
        for (handle, original) in handles.iter().zip(&fs) {
            assert_eq!(arena.get(*handle).seq, original.seq);
        }
        for (handle, original) in handles.into_iter().zip(&fs) {
            let f = arena.take(handle);
            assert_eq!(f.seq, original.seq);
            assert_eq!(f.payload, original.payload);
        }
        assert!(arena.is_empty());
    }

    #[test]
    fn slots_recycle_without_growth() {
        let mut arena = FlitArena::new();
        let f = flits(1).remove(0);
        for _ in 0..100 {
            let h = arena.alloc(f.clone());
            arena.take(h);
        }
        assert_eq!(arena.capacity(), 1, "one slot recycled 100 times");
    }

    #[test]
    #[should_panic(expected = "stale FlitRef")]
    fn double_free_panics() {
        let mut arena = FlitArena::new();
        let h = arena.alloc(flits(1).remove(0));
        arena.take(h);
        arena.take(h);
    }

    #[test]
    #[should_panic(expected = "stale FlitRef")]
    fn use_after_free_panics() {
        let mut arena = FlitArena::new();
        let h = arena.alloc(flits(1).remove(0));
        arena.take(h);
        // The slot is reissued to a new flit; the old handle must die.
        let _h2 = arena.alloc(flits(1).remove(0));
        arena.get(h);
    }

    #[test]
    fn get_mut_edits_in_place() {
        let mut arena = FlitArena::new();
        let h = arena.alloc(flits(1).remove(0));
        arena.get_mut(h).hop = 3;
        assert_eq!(arena.get(h).hop, 3);
        assert_eq!(arena.take(h).hop, 3);
    }
}
