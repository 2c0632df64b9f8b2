//! Functional arbiters.
//!
//! These are the *behavioural* twins of the power models in
//! [`orion_power::arbiter`]: they decide grants and report the switching
//! statistics (`δ_req`, `δ_pri`) that the power models charge. This
//! mirrors the paper's split between module behaviour (the simulator)
//! and power models hooked to events.

use orion_power::arbiter::ArbiterActivity;

use crate::snapshot::{ByteReader, ByteWriter, SnapshotError};

/// Outcome of one arbitration round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Grant {
    /// The granted requester, if any requested.
    pub winner: Option<usize>,
    /// Switching statistics for the arbiter power model.
    pub activity: ArbiterActivity,
}

/// A functional arbiter: one grant per round among up to 128 requesters.
#[derive(Debug, Clone)]
pub enum FunctionalArbiter {
    /// Matrix arbiter: a least-recently-served priority matrix
    /// (Table 4 of the paper).
    Matrix(MatrixArbiter),
    /// Round-robin arbiter: rotating one-hot token.
    RoundRobin(RoundRobinArbiter),
}

impl FunctionalArbiter {
    /// Creates a functional arbiter of the given power-model kind.
    ///
    /// The queuing arbiter's behaviour is first-come-first-served, which
    /// at one-grant-per-cycle granularity the round-robin arbiter
    /// approximates; its *power* is still charged with the queuing
    /// model's FIFO energies.
    ///
    /// # Panics
    ///
    /// Panics if `requesters < 2` or `requesters > 128`.
    pub fn new(kind: orion_power::ArbiterKind, requesters: usize) -> FunctionalArbiter {
        match kind {
            orion_power::ArbiterKind::Matrix => {
                FunctionalArbiter::Matrix(MatrixArbiter::new(requesters))
            }
            _ => FunctionalArbiter::RoundRobin(RoundRobinArbiter::new(requesters)),
        }
    }

    /// Arbitrates among the requesters in `requests` (bit `i` set ⇒
    /// requester `i` wants a grant).
    pub fn arbitrate(&mut self, requests: u128) -> Grant {
        match self {
            FunctionalArbiter::Matrix(a) => a.arbitrate(requests),
            FunctionalArbiter::RoundRobin(a) => a.arbitrate(requests),
        }
    }

    /// Number of requesters.
    pub fn requesters(&self) -> usize {
        match self {
            FunctionalArbiter::Matrix(a) => a.requesters,
            FunctionalArbiter::RoundRobin(a) => a.requesters,
        }
    }

    /// Encodes the arbiter state for a snapshot (variant-tagged).
    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        match self {
            FunctionalArbiter::Matrix(a) => {
                w.u8(0);
                a.encode(w);
            }
            FunctionalArbiter::RoundRobin(a) => {
                w.u8(1);
                a.encode(w);
            }
        }
    }

    /// Restores snapshot state; the snapshot's variant must match this
    /// arbiter's (the variant is fixed by configuration).
    pub(crate) fn decode_into(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        let tag = r.u8()?;
        match (tag, self) {
            (0, FunctionalArbiter::Matrix(a)) => a.decode_into(r),
            (1, FunctionalArbiter::RoundRobin(a)) => a.decode_into(r),
            (0 | 1, _) => Err(SnapshotError::Mismatch("arbiter kind")),
            _ => Err(SnapshotError::Invalid("arbiter tag")),
        }
    }
}

/// Matrix arbiter: `m[i][j]` set means `i` beats `j`. The winner is the
/// requester that beats every other requester; after a grant the winner
/// becomes lowest-priority (least-recently-served discipline).
#[derive(Debug, Clone)]
pub struct MatrixArbiter {
    requesters: usize,
    /// Row `i` is a bitmask: bit `j` set means `i` beats `j` (diagonal
    /// bit unused, always clear).
    beats: Vec<u128>,
    prev_requests: u128,
}

impl MatrixArbiter {
    /// Creates the arbiter with requester 0 initially highest-priority.
    ///
    /// # Panics
    ///
    /// Panics if `requesters < 2` or `requesters > 128`.
    pub fn new(requesters: usize) -> MatrixArbiter {
        assert!(
            (2..=128).contains(&requesters),
            "requesters must be in 2..=128"
        );
        let full = if requesters == 128 {
            u128::MAX
        } else {
            (1u128 << requesters) - 1
        };
        // Lower index starts ahead: row i beats everyone above it.
        let beats = (0..requesters)
            .map(|i| full & !((1u128 << (i + 1)) - 1))
            .collect();
        MatrixArbiter {
            requesters,
            beats,
            prev_requests: 0,
        }
    }

    /// One arbitration round.
    pub fn arbitrate(&mut self, requests: u128) -> Grant {
        let toggles = (requests ^ self.prev_requests).count_ones();
        let new = (requests & !self.prev_requests).count_ones();
        self.prev_requests = requests;
        // The winner beats every other requester: its row covers the
        // request mask (minus itself). Checked per set bit in ascending
        // order — the same visit order as a full scan.
        let winner = {
            let mut bits = requests;
            let mut found = None;
            while bits != 0 {
                let i = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if requests & !(self.beats[i] | (1u128 << i)) == 0 {
                    found = Some(i);
                    break;
                }
            }
            found
        };
        let mut flips = 0;
        if let Some(g) = winner {
            // Granted requester drops below everyone else: row g loses
            // every beat it held, and every other row gains its bit.
            flips += self.beats[g].count_ones();
            self.beats[g] = 0;
            let gbit = 1u128 << g;
            for j in 0..self.requesters {
                if j != g && self.beats[j] & gbit == 0 {
                    self.beats[j] |= gbit;
                    flips += 1;
                }
            }
        }
        Grant {
            winner,
            activity: ArbiterActivity {
                request_toggles: toggles,
                priority_flips: flips,
                new_requests: new,
            },
        }
    }

    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        for &row in &self.beats {
            w.u128(row);
        }
        w.u128(self.prev_requests);
    }

    pub(crate) fn decode_into(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        for row in self.beats.iter_mut() {
            *row = r.u128()?;
        }
        self.prev_requests = r.u128()?;
        Ok(())
    }
}

/// Round-robin arbiter with a rotating pointer; grants the first
/// requester at or after the pointer.
#[derive(Debug, Clone)]
pub struct RoundRobinArbiter {
    requesters: usize,
    next: usize,
    prev_requests: u128,
}

impl RoundRobinArbiter {
    /// Creates the arbiter with the token at requester 0.
    ///
    /// # Panics
    ///
    /// Panics if `requesters < 2` or `requesters > 128`.
    pub fn new(requesters: usize) -> RoundRobinArbiter {
        assert!(
            (2..=128).contains(&requesters),
            "requesters must be in 2..=128"
        );
        RoundRobinArbiter {
            requesters,
            next: 0,
            prev_requests: 0,
        }
    }

    /// One arbitration round.
    pub fn arbitrate(&mut self, requests: u128) -> Grant {
        let toggles = (requests ^ self.prev_requests).count_ones();
        let new = (requests & !self.prev_requests).count_ones();
        self.prev_requests = requests;
        // First requester at or after the token, wrapping — found with
        // two trailing-zero counts instead of a rotating scan (request
        // masks never set bits at or above `requesters`).
        let winner = if requests == 0 {
            None
        } else {
            let at_or_after = requests >> self.next;
            if at_or_after != 0 {
                Some(self.next + at_or_after.trailing_zeros() as usize)
            } else {
                Some(requests.trailing_zeros() as usize)
            }
        };
        let mut flips = 0;
        if let Some(g) = winner {
            let new_next = if g + 1 == self.requesters { 0 } else { g + 1 };
            if new_next != self.next {
                // One-hot token moved: two flops toggle.
                flips = 2;
            }
            self.next = new_next;
        }
        Grant {
            winner,
            activity: ArbiterActivity {
                request_toggles: toggles,
                priority_flips: flips,
                new_requests: new,
            },
        }
    }

    /// Grants up to `max_grants` distinct requesters this round,
    /// rotating fairly (used for the central buffer's multi-ported
    /// read/write allocation). `winners` is cleared and filled in grant
    /// order — caller-owned so a per-cycle caller never allocates.
    pub fn arbitrate_multi(
        &mut self,
        requests: u128,
        max_grants: usize,
        winners: &mut Vec<usize>,
    ) -> Grant {
        winners.clear();
        let mut remaining = requests;
        let mut last = Grant {
            winner: None,
            activity: ArbiterActivity {
                request_toggles: (requests ^ self.prev_requests).count_ones(),
                priority_flips: 0,
                new_requests: (requests & !self.prev_requests).count_ones(),
            },
        };
        for _ in 0..max_grants {
            let g = self.arbitrate(remaining);
            match g.winner {
                Some(w) => {
                    remaining &= !(1 << w);
                    winners.push(w);
                    last.activity.priority_flips += g.activity.priority_flips;
                }
                None => break,
            }
        }
        last.winner = winners.first().copied();
        self.prev_requests = requests;
        last
    }

    pub(crate) fn encode(&self, w: &mut ByteWriter) {
        w.usize(self.next);
        w.u128(self.prev_requests);
    }

    pub(crate) fn decode_into(&mut self, r: &mut ByteReader<'_>) -> Result<(), SnapshotError> {
        let next = r.usize()?;
        if next >= self.requesters {
            return Err(SnapshotError::Invalid("round-robin token"));
        }
        self.next = next;
        self.prev_requests = r.u128()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_grants_only_requesters() {
        let mut a = MatrixArbiter::new(4);
        for mask in 0u128..16 {
            let g = a.arbitrate(mask);
            match g.winner {
                Some(w) => assert!(mask & (1 << w) != 0, "mask {mask:04b} granted {w}"),
                None => assert_eq!(mask, 0),
            }
        }
    }

    #[test]
    fn matrix_is_least_recently_served() {
        let mut a = MatrixArbiter::new(3);
        // All requesting: 0 wins first (initial priority).
        assert_eq!(a.arbitrate(0b111).winner, Some(0));
        // 0 now lowest: 1 wins.
        assert_eq!(a.arbitrate(0b111).winner, Some(1));
        assert_eq!(a.arbitrate(0b111).winner, Some(2));
        // Full rotation: 0 again.
        assert_eq!(a.arbitrate(0b111).winner, Some(0));
    }

    #[test]
    fn matrix_winner_beats_all_requesters() {
        let mut a = MatrixArbiter::new(5);
        // Make 3 the most-starved by granting others.
        a.arbitrate(0b00001);
        a.arbitrate(0b00010);
        a.arbitrate(0b10101);
        let g = a.arbitrate(0b01001);
        assert_eq!(g.winner, Some(3));
    }

    #[test]
    fn matrix_reports_toggles_and_flips() {
        let mut a = MatrixArbiter::new(4);
        let g = a.arbitrate(0b0011);
        assert_eq!(g.activity.request_toggles, 2);
        assert_eq!(g.activity.new_requests, 2);
        assert!(g.activity.priority_flips > 0, "grant updates priorities");
        // Same mask again: no request toggles.
        let g = a.arbitrate(0b0011);
        assert_eq!(g.activity.request_toggles, 0);
        assert_eq!(g.activity.new_requests, 0);
    }

    #[test]
    fn matrix_no_request_no_flips() {
        let mut a = MatrixArbiter::new(4);
        let g = a.arbitrate(0);
        assert_eq!(g.winner, None);
        assert_eq!(g.activity.priority_flips, 0);
    }

    #[test]
    fn round_robin_rotates() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate(0b1111).winner, Some(0));
        assert_eq!(a.arbitrate(0b1111).winner, Some(1));
        assert_eq!(a.arbitrate(0b1111).winner, Some(2));
        assert_eq!(a.arbitrate(0b1111).winner, Some(3));
        assert_eq!(a.arbitrate(0b1111).winner, Some(0));
    }

    #[test]
    fn round_robin_skips_idle() {
        let mut a = RoundRobinArbiter::new(4);
        assert_eq!(a.arbitrate(0b1000).winner, Some(3));
        assert_eq!(a.arbitrate(0b0101).winner, Some(0));
        assert_eq!(a.arbitrate(0b0100).winner, Some(2));
    }

    #[test]
    fn multi_grant_caps_and_dedupes() {
        let mut a = RoundRobinArbiter::new(5);
        let (mut winners, mut winners2) = (Vec::new(), Vec::new());
        a.arbitrate_multi(0b11111, 2, &mut winners);
        assert_eq!(winners.len(), 2);
        assert_ne!(winners[0], winners[1]);
        a.arbitrate_multi(0b11111, 2, &mut winners2);
        // Fairness: the next grants differ from the first pair.
        assert!(winners2.iter().all(|w| !winners.contains(w)));
    }

    #[test]
    fn multi_grant_fewer_requesters_than_grants() {
        let mut a = RoundRobinArbiter::new(4);
        let mut winners = Vec::new();
        a.arbitrate_multi(0b0010, 3, &mut winners);
        assert_eq!(winners, vec![1]);
        let g = a.arbitrate_multi(0, 2, &mut winners);
        assert!(winners.is_empty());
        assert_eq!(g.winner, None);
    }

    #[test]
    fn functional_wrapper_dispatches() {
        let mut m = FunctionalArbiter::new(orion_power::ArbiterKind::Matrix, 4);
        let mut r = FunctionalArbiter::new(orion_power::ArbiterKind::RoundRobin, 4);
        let mut q = FunctionalArbiter::new(orion_power::ArbiterKind::Queuing, 4);
        for arb in [&mut m, &mut r, &mut q] {
            assert_eq!(arb.requesters(), 4);
            let g = arb.arbitrate(0b0110);
            assert!(matches!(g.winner, Some(1 | 2)));
        }
    }

    #[test]
    fn grant_is_one_hot_over_many_rounds() {
        // Property: winner is always a single requester from the mask.
        let mut a = MatrixArbiter::new(8);
        let mut mask = 0x5Au128;
        for i in 0..200u128 {
            mask = mask.wrapping_mul(6364136223846793005).wrapping_add(i) & 0xFF;
            let g = a.arbitrate(mask);
            if let Some(w) = g.winner {
                assert!(mask & (1 << w) != 0);
            } else {
                assert_eq!(mask, 0);
            }
        }
    }
}
