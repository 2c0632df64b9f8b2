//! Runtime invariant auditing.
//!
//! A simulator that silently corrupts its own accounting produces
//! wrong latency and power numbers that *look* plausible — the worst
//! failure mode a measurement tool can have. The auditor re-derives
//! conservation laws the engine must obey from independent state and
//! reports every discrepancy as a typed [`AuditViolation`]:
//!
//! * **Flit conservation** — every flit ever handed to a source queue
//!   is still in flight or was ejected at a sink. Checked against
//!   monotone counters that survive [`Network::reset_measurement`], so
//!   the warm-up boundary cannot mask a leak.
//! * **Credit bounds** — no output VC may hold more credits than the
//!   downstream buffer has slots (a spurious credit would let the
//!   switch overrun a full buffer).
//! * **Occupancy bounds** — no input FIFO may report more flits than
//!   its configured depth.
//! * **Energy-ledger sanity** — accumulated energy is finite and,
//!   between checks of the same [`InvariantAuditor`], never decreases
//!   (energy is charged per event and only ever added).
//! * **Arena accounting** — the generational flit arena's live count
//!   matches the flits the engine accounts for in source queues and on
//!   the wire (a leaked or double-freed slot that slipped past the
//!   per-handle generation checks).
//! * **Activity bookkeeping** — the sparse stepper's active sets agree
//!   exactly with the routers and sources that hold work: no stale
//!   actives, and above all no lost wakeups (a router the sparse
//!   engine would silently never step again). Checked in both engine
//!   modes, since the dense reference maintains the same sets.
//!
//! Auditing is read-only: a healthy run audited every cycle produces
//! bit-identical results to the same run unaudited.
//!
//! [`Network::reset_measurement`]: crate::network::Network::reset_measurement

use std::fmt;

use crate::network::Network;

/// One violated invariant, captured at the audit cycle.
#[derive(Debug, Clone, PartialEq)]
pub enum AuditViolation {
    /// Flits have appeared or vanished: the monotone injection count
    /// no longer equals ejected + in-flight.
    FlitConservation {
        /// Flits ever placed on a source queue.
        enqueued: u64,
        /// Flits ever ejected at sinks.
        ejected: u64,
        /// Flits currently in source queues, router buffers or links.
        in_flight: u64,
    },
    /// An output VC holds more credits than the downstream buffer has
    /// slots.
    CreditOverflow {
        /// Router node index.
        node: usize,
        /// Output port index.
        port: usize,
        /// Virtual channel within the port.
        vc: usize,
        /// Credits currently held.
        credits: u32,
        /// Downstream buffer depth (the legal maximum).
        depth: usize,
    },
    /// An input FIFO reports more flits than its configured depth.
    OccupancyOverflow {
        /// Router node index.
        node: usize,
        /// Input port index.
        port: usize,
        /// Virtual channel within the port (0 for central routers).
        vc: usize,
        /// Flits currently buffered.
        occupancy: usize,
        /// Configured FIFO depth.
        depth: usize,
    },
    /// Total accumulated energy is NaN or infinite.
    EnergyNotFinite {
        /// The offending total, in joules.
        energy: f64,
    },
    /// Total accumulated energy decreased between audits without a
    /// measurement reset.
    EnergyNonMonotonic {
        /// Total at the previous audit, in joules.
        previous: f64,
        /// Total now, in joules.
        current: f64,
    },
    /// The flit arena's live count disagrees with the number of flits
    /// the engine believes are in source queues or on the wire — an
    /// arena slot was leaked or double-freed without tripping a
    /// generation check.
    ArenaAccounting {
        /// Flits the arena holds.
        live: u64,
        /// Flits the engine accounts for in source queues and the
        /// flit wheel.
        expected: u64,
    },
    /// The sparse stepper's router active set disagrees with the
    /// routers that actually hold buffered flits: either a stale
    /// active bit (idle router still marked, wasted visits) or — the
    /// dangerous direction — a lost wakeup (a router with work the
    /// sparse engine would silently never step).
    ActiveSetMismatch {
        /// Router node index.
        node: usize,
        /// Whether the activity bit is set.
        active: bool,
        /// Flits the router actually buffers.
        buffered: usize,
    },
    /// The sparse stepper's source active set disagrees with the
    /// sources that actually have queued packets (the injection-side
    /// twin of [`AuditViolation::ActiveSetMismatch`]).
    SourceSetMismatch {
        /// Source node index.
        node: usize,
        /// Whether the activity bit is set.
        active: bool,
        /// Packets-worth of flits actually queued at the source.
        queued: usize,
    },
}

impl AuditViolation {
    /// Short machine-readable classification label.
    pub fn kind(&self) -> &'static str {
        match self {
            AuditViolation::FlitConservation { .. } => "flit-conservation",
            AuditViolation::CreditOverflow { .. } => "credit-overflow",
            AuditViolation::OccupancyOverflow { .. } => "occupancy-overflow",
            AuditViolation::EnergyNotFinite { .. } => "energy-not-finite",
            AuditViolation::EnergyNonMonotonic { .. } => "energy-non-monotonic",
            AuditViolation::ArenaAccounting { .. } => "arena-accounting",
            AuditViolation::ActiveSetMismatch { .. } => "active-set-mismatch",
            AuditViolation::SourceSetMismatch { .. } => "source-set-mismatch",
        }
    }
}

impl fmt::Display for AuditViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditViolation::FlitConservation {
                enqueued,
                ejected,
                in_flight,
            } => write!(
                f,
                "flit conservation violated: {enqueued} enqueued != \
                 {ejected} ejected + {in_flight} in flight"
            ),
            AuditViolation::CreditOverflow {
                node,
                port,
                vc,
                credits,
                depth,
            } => write!(
                f,
                "credit overflow at n{node} port {port} vc {vc}: \
                 {credits} credits for a {depth}-deep buffer"
            ),
            AuditViolation::OccupancyOverflow {
                node,
                port,
                vc,
                occupancy,
                depth,
            } => write!(
                f,
                "occupancy overflow at n{node} port {port} vc {vc}: \
                 {occupancy} flits in a {depth}-deep buffer"
            ),
            AuditViolation::EnergyNotFinite { energy } => {
                write!(f, "energy ledger total is not finite: {energy}")
            }
            AuditViolation::EnergyNonMonotonic { previous, current } => write!(
                f,
                "energy ledger decreased: {previous} J at last audit, {current} J now"
            ),
            AuditViolation::ArenaAccounting { live, expected } => write!(
                f,
                "flit arena out of sync: {live} live slots but the engine \
                 accounts for {expected} flits in sources and on the wire"
            ),
            AuditViolation::ActiveSetMismatch {
                node,
                active,
                buffered,
            } => write!(
                f,
                "active set out of sync at n{node}: bit {} but {buffered} \
                 flits buffered ({})",
                if *active { "set" } else { "clear" },
                if *active {
                    "stale active"
                } else {
                    "lost wakeup"
                },
            ),
            AuditViolation::SourceSetMismatch {
                node,
                active,
                queued,
            } => write!(
                f,
                "source set out of sync at n{node}: bit {} but {queued} \
                 flits queued ({})",
                if *active { "set" } else { "clear" },
                if *active {
                    "stale active"
                } else {
                    "lost wakeup"
                },
            ),
        }
    }
}

/// Periodic invariant checker for one run.
///
/// The stateless checks live on [`Network::audit`]; this wrapper adds
/// the one stateful check — energy monotonicity — by remembering the
/// ledger total across audits. Create a fresh auditor after
/// [`Network::reset_measurement`] (the reset legitimately rewinds the
/// ledger to zero).
///
/// [`Network::audit`]: crate::network::Network::audit
#[derive(Debug, Clone, Default)]
pub struct InvariantAuditor {
    last_energy: f64,
}

impl InvariantAuditor {
    /// A fresh auditor with an energy baseline of zero.
    pub fn new() -> InvariantAuditor {
        InvariantAuditor::default()
    }

    /// The energy baseline (total at the last passing audit), for
    /// checkpointing.
    pub fn baseline(&self) -> f64 {
        self.last_energy
    }

    /// Rebuilds an auditor from a checkpointed baseline, so a resumed
    /// run keeps monotonicity coverage across the restore boundary.
    pub fn with_baseline(last_energy: f64) -> InvariantAuditor {
        InvariantAuditor { last_energy }
    }

    /// Runs every invariant check against the network's current state,
    /// returning all violations found (empty on a healthy network).
    pub fn check(&mut self, net: &Network) -> Vec<AuditViolation> {
        let mut violations = net.audit();
        self.check_energy(net.ledger().total_energy().0, &mut violations);
        violations
    }

    /// The stateful monotonicity check alone, against an
    /// externally-computed ledger total. A shard coordinator sums its
    /// shards' ledgers (in shard order) and audits the total here;
    /// single-network callers use [`InvariantAuditor::check`].
    pub fn check_energy(&mut self, total: f64, violations: &mut Vec<AuditViolation>) {
        // A non-finite total is already reported by `Network::audit`.
        if total.is_finite() {
            if total < self.last_energy {
                violations.push(AuditViolation::EnergyNonMonotonic {
                    previous: self.last_energy,
                    current: total,
                });
            } else {
                self.last_energy = total;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_and_display_are_stable() {
        let v = AuditViolation::FlitConservation {
            enqueued: 10,
            ejected: 4,
            in_flight: 4,
        };
        assert_eq!(v.kind(), "flit-conservation");
        assert!(v.to_string().contains("10 enqueued"));

        let v = AuditViolation::CreditOverflow {
            node: 3,
            port: 1,
            vc: 0,
            credits: 9,
            depth: 8,
        };
        assert_eq!(v.kind(), "credit-overflow");
        assert!(v.to_string().contains("n3 port 1 vc 0"));

        let v = AuditViolation::EnergyNonMonotonic {
            previous: 2.0,
            current: 1.0,
        };
        assert_eq!(v.kind(), "energy-non-monotonic");
        assert!(v.to_string().contains("decreased"));
    }
}
