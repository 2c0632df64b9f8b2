//! Fingerprint-keyed in-flight deduplication: when identical cells are
//! requested concurrently (many clients of one serving daemon
//! submitting overlapping grids), exactly one execution runs and every
//! other requester waits for — and shares — its record.
//!
//! The map hands out two roles per fingerprint:
//!
//! * **Leader** — the first claimant. It owns the execution and must
//!   [`publish`](LeaderGuard::publish) the finished record (or drop the
//!   guard, which aborts the flight and lets a waiter take over).
//! * **Follower** — every later claimant while the flight is open. It
//!   blocks in [`InflightMap::claim`] until the leader publishes, then
//!   receives a clone of the record.
//!
//! Leader crashes are survivable by construction: the guard's `Drop`
//! marks the flight aborted and wakes all followers, whose `claim`
//! retries — one of them becomes the new leader. A panicking leader
//! therefore costs retries, never a deadlock.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

use crate::record::CellRecord;

/// The outcome of [`InflightMap::claim`]: run it yourself, or someone
/// else already did.
#[derive(Debug)]
pub enum Claim<'a> {
    /// You are the leader: execute the cell, then
    /// [`publish`](LeaderGuard::publish) the record.
    Lead(LeaderGuard<'a>),
    /// A concurrent leader executed the cell; here is its record
    /// (boxed to keep the enum small next to the slim guard).
    Shared(Box<CellRecord>),
}

/// One open flight: the slot the leader publishes into plus the
/// condition variable followers sleep on.
#[derive(Debug, Default)]
struct Flight {
    state: Mutex<FlightState>,
    done: Condvar,
}

#[derive(Debug, Default)]
enum FlightState {
    /// Leader still executing.
    #[default]
    Running,
    /// Leader published; followers clone this.
    Done(Box<CellRecord>),
    /// Leader dropped without publishing (panicked past its guard);
    /// followers re-claim.
    Aborted,
}

/// The fingerprint-keyed map of open flights. Cheaply clonable via
/// interior `Arc`s is deliberately *not* offered — hold it in an
/// `Arc` yourself and share that.
#[derive(Debug, Default)]
pub struct InflightMap {
    open: Mutex<HashMap<u64, Arc<Flight>>>,
}

impl InflightMap {
    /// Creates an empty map.
    pub fn new() -> InflightMap {
        InflightMap::default()
    }

    /// Claims `fingerprint`. The first concurrent claimant becomes the
    /// leader and gets a [`LeaderGuard`]; everyone else blocks until
    /// the leader publishes and gets the shared record. If a leader
    /// aborts (guard dropped without publishing), one waiter is
    /// promoted to leader transparently.
    pub fn claim(&self, fingerprint: u64) -> Claim<'_> {
        loop {
            let flight = {
                let mut open = lock_unpoisoned(&self.open);
                match open.get(&fingerprint) {
                    Some(flight) => Arc::clone(flight),
                    None => {
                        let flight = Arc::new(Flight::default());
                        open.insert(fingerprint, Arc::clone(&flight));
                        return Claim::Lead(LeaderGuard {
                            map: self,
                            fingerprint,
                            flight,
                            published: false,
                        });
                    }
                }
            };
            let mut state = lock_unpoisoned(&flight.state);
            loop {
                match &*state {
                    FlightState::Running => {
                        state = match flight.done.wait(state) {
                            Ok(s) => s,
                            Err(poisoned) => poisoned.into_inner(),
                        };
                    }
                    FlightState::Done(record) => return Claim::Shared(record.clone()),
                    // Leader died: drop the flight handle and race to
                    // re-claim (the aborted entry is already removed
                    // from the map by the guard's Drop).
                    FlightState::Aborted => break,
                }
            }
        }
    }

    /// Number of currently open flights (leaders executing).
    pub fn open_flights(&self) -> usize {
        lock_unpoisoned(&self.open).len()
    }
}

/// Locks a mutex, recovering the inner data from poisoning. Only for
/// plain data whose invariants hold at every step of every update
/// (flights, counters, append handles): a poisoned lock would
/// otherwise wedge every future claimant.
pub fn lock_unpoisoned<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Leadership of one flight. Publish the finished record, or drop to
/// abort (waking followers so one can take over).
#[derive(Debug)]
pub struct LeaderGuard<'a> {
    map: &'a InflightMap,
    fingerprint: u64,
    flight: Arc<Flight>,
    published: bool,
}

impl LeaderGuard<'_> {
    /// Publishes the record to every follower and closes the flight.
    pub fn publish(mut self, record: &CellRecord) {
        self.published = true;
        self.close(FlightState::Done(Box::new(record.clone())));
    }

    fn close(&self, terminal: FlightState) {
        // Remove the flight *before* waking followers: claimants that
        // arrive from here on start a fresh flight instead of joining
        // a closed one.
        lock_unpoisoned(&self.map.open).remove(&self.fingerprint);
        *lock_unpoisoned(&self.flight.state) = terminal;
        self.flight.done.notify_all();
    }
}

impl Drop for LeaderGuard<'_> {
    fn drop(&mut self) {
        if !self.published {
            self.close(FlightState::Aborted);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::CellRecord;
    use crate::spec::ExperimentSpec;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn sample_record() -> CellRecord {
        let cell = ExperimentSpec::parse(
            "[experiment]\nname = \"t\"\n[grid]\npresets = [\"vc16\"]\nrates = [0.05]\n",
        )
        .unwrap()
        .expand()
        .remove(0);
        CellRecord::from_error(&cell, "placeholder")
    }

    #[test]
    fn first_claim_leads_and_publishes_to_followers() {
        let map = Arc::new(InflightMap::new());
        let record = sample_record();
        let fp = record.fingerprint;

        let Claim::Lead(guard) = map.claim(fp) else {
            panic!("first claim must lead");
        };
        assert_eq!(map.open_flights(), 1);

        let executions = Arc::new(AtomicUsize::new(0));
        let followers: Vec<_> = (0..4)
            .map(|_| {
                let (map, executions) = (Arc::clone(&map), Arc::clone(&executions));
                std::thread::spawn(move || match map.claim(fp) {
                    Claim::Lead(_) => {
                        executions.fetch_add(1, Ordering::SeqCst);
                        None
                    }
                    Claim::Shared(rec) => Some(rec),
                })
            })
            .collect();
        // Give followers time to block, then publish.
        std::thread::sleep(std::time::Duration::from_millis(20));
        guard.publish(&record);

        for f in followers {
            let got = f.join().unwrap().expect("followers share, never lead");
            // NaN-bearing fields defeat `==`; serialized form is total.
            assert_eq!(got.to_json_line(), record.to_json_line());
        }
        assert_eq!(executions.load(Ordering::SeqCst), 0);
        assert_eq!(map.open_flights(), 0, "flight closed after publish");
    }

    #[test]
    fn distinct_fingerprints_do_not_interfere() {
        let map = InflightMap::new();
        let Claim::Lead(a) = map.claim(1) else {
            panic!("lead 1")
        };
        let Claim::Lead(b) = map.claim(2) else {
            panic!("lead 2")
        };
        assert_eq!(map.open_flights(), 2);
        a.publish(&sample_record());
        b.publish(&sample_record());
        assert_eq!(map.open_flights(), 0);
    }

    #[test]
    fn aborted_leader_promotes_a_waiter() {
        let map = Arc::new(InflightMap::new());
        let fp = 42u64;
        let Claim::Lead(guard) = map.claim(fp) else {
            panic!("first claim must lead");
        };
        let map2 = Arc::clone(&map);
        let follower = std::thread::spawn(move || match map2.claim(fp) {
            Claim::Lead(new_leader) => {
                new_leader.publish(&sample_record());
                true
            }
            Claim::Shared(_) => false,
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(guard); // leader dies without publishing
        assert!(
            follower.join().unwrap(),
            "nobody published; the waiter must lead"
        );
        assert_eq!(map.open_flights(), 0);
    }

    #[test]
    fn sequential_claims_after_publish_start_fresh_flights() {
        let map = InflightMap::new();
        let record = sample_record();
        let Claim::Lead(g) = map.claim(7) else {
            panic!("lead")
        };
        g.publish(&record);
        // The flight closed; a later claim must re-lead (the caller is
        // expected to consult the result cache first).
        assert!(matches!(map.claim(7), Claim::Lead(_)));
    }
}
