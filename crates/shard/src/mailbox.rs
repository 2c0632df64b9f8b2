//! Deterministic boundary mailboxes.
//!
//! Flits and credits that cross a shard boundary travel through a
//! [`MailGrid`]: one ring of 4 cycle slots per ordered `(src, dst)`
//! shard pair, separately for flits and credits. The slot for delivery
//! cycle `t` is `t % 4` — the same modulus as the engine's local event
//! wheels, and safe for the same reason: during cycle `T` the engine
//! writes flit slots only for `T+2` and credit slots only for `T+1`,
//! while the reader drains slot `T` — three distinct residues mod 4,
//! so a slot is never read and written in the same cycle.
//!
//! Each slot is written by exactly one shard (the `src` of its pair),
//! in that shard's deterministic intra-cycle emission order, and
//! drained whole by exactly one shard (`dst`). The per-slot mutexes
//! therefore never contend; they exist to make the grid `Sync` so the
//! shard workers can send through a shared reference.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use orion_sim::network::image::Mail;
use orion_sim::{CreditMsg, FlitMsg, ShardIo};

/// Cycle slots per mailbox ring — matches the engine's event wheels
/// (flits arrive at +2, credits at +1, both < 4).
const SLOTS: usize = 4;

/// The all-pairs boundary mailbox array for one sharded network.
#[derive(Debug)]
pub struct MailGrid {
    shards: usize,
    /// `(src · shards + dst) · SLOTS + slot` → flits delivering at
    /// cycles ≡ slot (mod SLOTS).
    flit_slots: Vec<Mutex<Vec<FlitMsg>>>,
    credit_slots: Vec<Mutex<Vec<CreditMsg>>>,
    /// Flits currently inside the grid (sent, not yet drained). Read
    /// only at barriers, where it is quiescent.
    in_transit: AtomicU64,
}

impl MailGrid {
    /// An empty grid for `shards` shards.
    pub fn new(shards: usize) -> MailGrid {
        let pairs = shards * shards * SLOTS;
        MailGrid {
            shards,
            flit_slots: (0..pairs).map(|_| Mutex::new(Vec::new())).collect(),
            credit_slots: (0..pairs).map(|_| Mutex::new(Vec::new())).collect(),
            in_transit: AtomicU64::new(0),
        }
    }

    /// Number of shards the grid connects.
    pub fn shards(&self) -> usize {
        self.shards
    }

    fn index(&self, src: usize, dst: usize, cycle: u64) -> usize {
        debug_assert!(src < self.shards && dst < self.shards && src != dst);
        (src * self.shards + dst) * SLOTS + (cycle % SLOTS as u64) as usize
    }

    /// Deposits a boundary flit from shard `src` for shard `dst`,
    /// delivering at `deliver_cycle`.
    pub fn send_flit(&self, src: usize, dst: usize, deliver_cycle: u64, msg: FlitMsg) {
        let idx = self.index(src, dst, deliver_cycle);
        self.flit_slots[idx]
            .lock()
            .expect("poisoned mailbox")
            .push(msg);
        self.in_transit.fetch_add(1, Ordering::Relaxed);
    }

    /// Deposits a boundary credit from shard `src` for shard `dst`,
    /// delivering at `deliver_cycle`.
    pub fn send_credit(&self, src: usize, dst: usize, deliver_cycle: u64, msg: CreditMsg) {
        let idx = self.index(src, dst, deliver_cycle);
        self.credit_slots[idx]
            .lock()
            .expect("poisoned mailbox")
            .push(msg);
    }

    /// Moves every flit due at `cycle` on the `(src, dst)` pair into
    /// `out` (cleared first), preserving the sender's emission order.
    pub fn drain_flits(&self, src: usize, dst: usize, cycle: u64, out: &mut Vec<FlitMsg>) {
        out.clear();
        let idx = self.index(src, dst, cycle);
        let mut slot = self.flit_slots[idx].lock().expect("poisoned mailbox");
        std::mem::swap(&mut *slot, out);
        self.in_transit
            .fetch_sub(out.len() as u64, Ordering::Relaxed);
    }

    /// Moves every credit due at `cycle` on the `(src, dst)` pair into
    /// `out` (cleared first).
    pub fn drain_credits(&self, src: usize, dst: usize, cycle: u64, out: &mut Vec<CreditMsg>) {
        out.clear();
        let idx = self.index(src, dst, cycle);
        let mut slot = self.credit_slots[idx].lock().expect("poisoned mailbox");
        std::mem::swap(&mut *slot, out);
    }

    /// Flits inside the grid. Meaningful only at a cycle barrier.
    pub fn in_transit(&self) -> u64 {
        self.in_transit.load(Ordering::Relaxed)
    }

    /// True when no flit *or* credit sits in any slot. Meaningful only
    /// at a cycle barrier; this is the guard that lets a sharded
    /// network skip idle cycles without stranding boundary messages.
    pub fn is_empty(&self) -> bool {
        self.in_transit() == 0
            && self
                .credit_slots
                .iter()
                .all(|s| s.lock().expect("poisoned mailbox").is_empty())
    }

    /// Copies of every flit and credit in the grid at the barrier
    /// before `cycle`, with their delivery cycles: every message is
    /// due within the ring's 4 cycles, so the slot of delivery cycle
    /// `t ≥ cycle` holds only messages due at `t`.
    pub fn contents(&self, cycle: u64) -> (Vec<Mail<FlitMsg>>, Vec<Mail<CreditMsg>>) {
        (
            self.collect(&self.flit_slots, cycle),
            self.collect(&self.credit_slots, cycle),
        )
    }

    fn collect<T: Clone>(&self, slots: &[Mutex<Vec<T>>], cycle: u64) -> Vec<Mail<T>> {
        let mut out = Vec::new();
        for from in 0..self.shards {
            for to in (0..self.shards).filter(|&to| to != from) {
                for at in cycle..cycle + SLOTS as u64 {
                    let slot = slots[self.index(from, to, at)]
                        .lock()
                        .expect("poisoned mailbox");
                    out.extend(slot.iter().map(|msg| Mail {
                        from,
                        to,
                        cycle: at,
                        msg: msg.clone(),
                    }));
                }
            }
        }
        out
    }

    /// Empties every slot. Call only at a cycle barrier.
    pub fn clear(&self) {
        for slot in &self.flit_slots {
            slot.lock().expect("poisoned mailbox").clear();
        }
        for slot in &self.credit_slots {
            slot.lock().expect("poisoned mailbox").clear();
        }
        self.in_transit.store(0, Ordering::Relaxed);
    }
}

/// The per-shard sending handle: a [`ShardIo`] that deposits into the
/// shared [`MailGrid`] on behalf of one source shard.
#[derive(Debug)]
pub struct MailboxIo<'a> {
    grid: &'a MailGrid,
    src: usize,
}

impl<'a> MailboxIo<'a> {
    /// A handle sending as shard `src`.
    pub fn new(grid: &'a MailGrid, src: usize) -> MailboxIo<'a> {
        MailboxIo { grid, src }
    }
}

impl ShardIo for MailboxIo<'_> {
    fn send_flit(&mut self, dst_shard: usize, deliver_cycle: u64, msg: FlitMsg) {
        self.grid.send_flit(self.src, dst_shard, deliver_cycle, msg);
    }

    fn send_credit(&mut self, dst_shard: usize, deliver_cycle: u64, msg: CreditMsg) {
        self.grid
            .send_credit(self.src, dst_shard, deliver_cycle, msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn credit(dest: usize) -> CreditMsg {
        CreditMsg {
            dest,
            out_port: 1,
            vc: 0,
        }
    }

    #[test]
    fn credits_round_trip_in_order() {
        let grid = MailGrid::new(2);
        grid.send_credit(0, 1, 5, credit(9));
        grid.send_credit(0, 1, 5, credit(3));
        grid.send_credit(0, 1, 6, credit(4));
        let mut out = Vec::new();
        grid.drain_credits(0, 1, 5, &mut out);
        assert_eq!(out.iter().map(|c| c.dest).collect::<Vec<_>>(), [9, 3]);
        grid.drain_credits(0, 1, 6, &mut out);
        assert_eq!(out.len(), 1);
        grid.drain_credits(0, 1, 7, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn slots_wrap_mod_4() {
        let grid = MailGrid::new(2);
        grid.send_credit(1, 0, 8, credit(1));
        let mut out = Vec::new();
        // Cycle 12 ≡ 8 (mod 4): same ring slot.
        grid.drain_credits(1, 0, 12, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn in_transit_tracks_flit_sends_and_drains() {
        let grid = MailGrid::new(2);
        assert_eq!(grid.in_transit(), 0);
        // Credits do not count as flits in transit.
        grid.send_credit(0, 1, 3, credit(1));
        assert_eq!(grid.in_transit(), 0);
    }
}
