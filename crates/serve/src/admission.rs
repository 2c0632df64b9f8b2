//! Admission control: a bounded worker pool with a bounded wait queue
//! and a drain switch. Admission depends on capacity alone — every way
//! a request can be refused is a typed [`Rejection`] that maps to one
//! HTTP status, so clients can tell "back off" (429) from "go away"
//! (503) from "you asked wrong" (4xx).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::Duration;

use orion_exp::inflight::lock_unpoisoned;

/// Why a request was refused. Stable `code` strings appear in error
/// bodies and metrics; see `docs/SERVING.md` for the full taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The worker pool and its wait queue are both full, or the daemon
    /// holds as many open connections as it admits (HTTP 429).
    OverCapacity {
        /// Configured pool size, echoed to the client.
        workers: usize,
        /// Configured queue depth, echoed to the client.
        queue: usize,
    },
    /// The daemon is draining and admits nothing new (HTTP 503).
    Draining,
}

impl Rejection {
    /// The HTTP status this rejection maps to.
    pub fn status(&self) -> u16 {
        match self {
            Rejection::OverCapacity { .. } => 429,
            Rejection::Draining => 503,
        }
    }

    /// The stable machine-readable code for error bodies and metrics.
    pub fn code(&self) -> &'static str {
        match self {
            Rejection::OverCapacity { .. } => "over-capacity",
            Rejection::Draining => "draining",
        }
    }

    /// A human-readable line for the error body.
    pub fn message(&self) -> String {
        match self {
            Rejection::OverCapacity { workers, queue } => {
                format!("all {workers} workers busy and all {queue} queue slots taken; retry later")
            }
            Rejection::Draining => "daemon is draining; no new work is admitted".to_string(),
        }
    }
}

#[derive(Debug, Default)]
struct GateState {
    active: usize,
    waiting: usize,
}

/// The bounded pool + queue. `admit` either returns a [`Permit`]
/// (RAII: dropping it frees the slot) or a typed rejection; it never
/// blocks longer than `queue_patience`.
#[derive(Debug)]
pub struct AdmissionGate {
    workers: usize,
    queue_depth: usize,
    queue_patience: Duration,
    state: Mutex<GateState>,
    freed: Condvar,
    draining: AtomicBool,
}

impl AdmissionGate {
    /// A gate admitting `workers` concurrent requests with at most
    /// `queue_depth` more waiting up to `queue_patience` each.
    pub fn new(workers: usize, queue_depth: usize, queue_patience: Duration) -> AdmissionGate {
        AdmissionGate {
            workers: workers.max(1),
            queue_depth,
            queue_patience,
            state: Mutex::new(GateState::default()),
            freed: Condvar::new(),
            draining: AtomicBool::new(false),
        }
    }

    /// Flips the gate into drain mode: every future `admit` (and every
    /// queued waiter) is rejected with [`Rejection::Draining`].
    pub fn start_draining(&self) {
        self.draining.store(true, Ordering::SeqCst);
        self.freed.notify_all();
    }

    /// Whether drain mode is on.
    pub fn draining(&self) -> bool {
        self.draining.load(Ordering::SeqCst)
    }

    /// Requests currently holding permits.
    pub fn active(&self) -> usize {
        lock_unpoisoned(&self.state).active
    }

    /// Tries to admit one request, queueing briefly when the pool is
    /// full.
    ///
    /// # Errors
    ///
    /// [`Rejection::Draining`] in drain mode, [`Rejection::OverCapacity`]
    /// when pool and queue are both full or patience runs out.
    pub fn admit(&self) -> Result<Permit<'_>, Rejection> {
        let mut state = lock_unpoisoned(&self.state);
        if state.active >= self.workers && !self.draining() {
            if state.waiting >= self.queue_depth {
                return Err(self.over_capacity());
            }
            state.waiting += 1;
            let full = |s: &mut GateState| s.active >= self.workers && !self.draining();
            (state, _) = self
                .freed
                .wait_timeout_while(state, self.queue_patience, full)
                .unwrap_or_else(PoisonError::into_inner);
            state.waiting -= 1;
        }
        if self.draining() {
            return Err(Rejection::Draining);
        }
        if state.active >= self.workers {
            return Err(self.over_capacity());
        }
        state.active += 1;
        Ok(Permit { gate: self })
    }

    /// The refusal for a full pool and queue, echoing both sizes.
    pub(crate) fn over_capacity(&self) -> Rejection {
        Rejection::OverCapacity {
            workers: self.workers,
            queue: self.queue_depth,
        }
    }
}

/// An admitted slot; dropping it frees the slot and wakes one waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    gate: &'a AdmissionGate,
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut state = lock_unpoisoned(&self.gate.state);
        state.active = state.active.saturating_sub(1);
        drop(state);
        self.gate.freed.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    /// Spins until `n` callers are queued inside `admit`. A waiter
    /// counts itself under the state lock and releases that lock only
    /// by waiting on `freed`, so once the count shows, it is parked.
    fn await_waiters(gate: &AdmissionGate, n: usize) {
        while lock_unpoisoned(&gate.state).waiting < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn admits_up_to_workers_then_queues_then_rejects() {
        let gate = AdmissionGate::new(2, 1, Duration::from_millis(10));
        let a = gate.admit().unwrap();
        let _b = gate.admit().unwrap();
        // Pool full, queue empty: a third caller waits out its patience
        // and is rejected over-capacity.
        let err = gate.admit().unwrap_err();
        assert_eq!(err.code(), "over-capacity");
        assert_eq!(err.status(), 429);
        drop(a);
        let _c = gate.admit().expect("freed slot admits again");
    }

    #[test]
    fn queued_request_gets_freed_slot() {
        let gate = Arc::new(AdmissionGate::new(1, 1, Duration::from_secs(5)));
        let permit = gate.admit().unwrap();
        let g2 = Arc::clone(&gate);
        let waiter = std::thread::spawn(move || g2.admit().map(|_| ()));
        await_waiters(&gate, 1);
        drop(permit);
        waiter.join().unwrap().expect("waiter admitted after free");
    }

    #[test]
    fn draining_rejects_new_and_queued() {
        let gate = Arc::new(AdmissionGate::new(1, 4, Duration::from_secs(5)));
        let _held = gate.admit().unwrap();
        let g2 = Arc::clone(&gate);
        let queued = std::thread::spawn(move || g2.admit().map(|_| ()));
        await_waiters(&gate, 1);
        gate.start_draining();
        assert_eq!(queued.join().unwrap().unwrap_err(), Rejection::Draining);
        assert_eq!(gate.admit().unwrap_err().status(), 503);
    }
}
