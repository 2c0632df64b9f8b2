//! The runner's core budget: how many shards a cell runs on, and the
//! token pool that keeps the shard threads of all executing cells
//! within the budget (docs/SCALING.md § How a cell uses cores).

use std::sync::{Condvar, Mutex, PoisonError};

use orion_core::exec::host_cores;

use crate::inflight::lock_unpoisoned;

/// Networks with fewer nodes run on one shard whatever the budget:
/// running more of them at once is faster than sharding each.
pub(crate) const SHARD_MIN_NODES: usize = 768;

/// Shards for a cell of `nodes` nodes under `budget` cores: 1 below
/// [`SHARD_MIN_NODES`], else the budget capped at the host's cores.
/// Pending cells do not count, so a checkpointed cell resumed under
/// the same budget on the same host shards the same way.
pub(crate) fn shards_for(nodes: usize, budget: usize) -> usize {
    if nodes < SHARD_MIN_NODES || budget <= 1 {
        return 1;
    }
    budget.min(host_cores())
}

/// A first-come, first-served pool of `budget` tokens; an executing
/// cell holds one per shard. A request waits until every earlier one
/// is granted and enough tokens are free, so later narrow cells never
/// overtake a waiting wide one.
#[derive(Debug)]
pub(crate) struct CorePool {
    budget: usize,
    state: Mutex<Tickets>,
    turn: Condvar,
}

#[derive(Debug, Default)]
struct Tickets {
    held: usize,
    issued: u64,
    granted: u64,
}

/// Tokens held until dropped, also when the cell holding them panics.
#[derive(Debug)]
pub(crate) struct Tokens<'a> {
    pool: &'a CorePool,
    count: usize,
}

impl CorePool {
    pub(crate) fn new(budget: usize) -> CorePool {
        CorePool {
            budget: budget.max(1),
            state: Mutex::default(),
            turn: Condvar::new(),
        }
    }

    pub(crate) fn budget(&self) -> usize {
        self.budget
    }

    /// Waits for this request's turn and `count` free tokens (clamped
    /// to `1..=budget`), then holds them.
    pub(crate) fn acquire(&self, count: usize) -> Tokens<'_> {
        let count = count.clamp(1, self.budget);
        let mut state = lock_unpoisoned(&self.state);
        let ticket = state.issued;
        state.issued += 1;
        while state.granted != ticket || state.held + count > self.budget {
            state = self
                .turn
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.granted += 1;
        state.held += count;
        drop(state);
        // The next ticket may fit in what is left.
        self.turn.notify_all();
        Tokens { pool: self, count }
    }
}

impl Drop for Tokens<'_> {
    fn drop(&mut self) {
        lock_unpoisoned(&self.pool.state).held -= self.count;
        self.pool.turn.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn narrow_networks_and_a_budget_of_one_run_on_one_shard() {
        let t = SHARD_MIN_NODES;
        assert!(
            t > 64,
            "every benchmark cell (at most 8x8) stays on one shard"
        );
        assert_eq!(shards_for(t - 1, 8), 1);
        assert_eq!(shards_for(16, usize::MAX), 1);
        assert_eq!(shards_for(t, 1), 1);
        assert_eq!(shards_for(1024, 0), 1);
        assert_eq!(shards_for(t, 2), 2.min(host_cores()));
        assert_eq!(shards_for(1024, usize::MAX), host_cores());
    }

    #[test]
    fn held_tokens_never_exceed_the_budget() {
        let pool = CorePool::new(3);
        let (held, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for worker in 0..6 {
                let (pool, held, peak) = (&pool, &held, &peak);
                s.spawn(move || {
                    for i in 0..200 {
                        let want = if (worker + i) % 3 == 0 { 3 } else { 1 };
                        let _tokens = pool.acquire(want);
                        let now = held.fetch_add(want, Ordering::SeqCst) + want;
                        peak.fetch_max(now, Ordering::SeqCst);
                        std::thread::yield_now();
                        held.fetch_sub(want, Ordering::SeqCst);
                    }
                });
            }
        });
        let peak = peak.load(Ordering::SeqCst);
        assert!((1..=3).contains(&peak), "peak {peak} tokens of 3");
        assert_eq!(lock_unpoisoned(&pool.state).held, 0);
    }

    #[test]
    fn a_waiting_wide_cell_is_not_overtaken() {
        let pool = Arc::new(CorePool::new(2));
        let order = Arc::new(Mutex::new(Vec::new()));
        let first = pool.acquire(1);
        let request = |name: &'static str, count: usize| {
            let (pool, order) = (Arc::clone(&pool), Arc::clone(&order));
            std::thread::spawn(move || {
                let _tokens = pool.acquire(count);
                order.lock().unwrap().push(name);
            })
        };
        let issued = |n: u64| {
            while lock_unpoisoned(&pool.state).issued < n {
                std::thread::yield_now();
            }
        };
        let wide = request("wide", 2);
        issued(2);
        // One token is free, enough for the narrow request; it must
        // still wait behind the wide one.
        let narrow = request("narrow", 1);
        issued(3);
        std::thread::sleep(Duration::from_millis(50));
        assert!(order.lock().unwrap().is_empty());
        drop(first);
        wide.join().unwrap();
        narrow.join().unwrap();
        assert_eq!(*order.lock().unwrap(), ["wide", "narrow"]);
    }

    #[test]
    fn a_panicking_holder_returns_its_tokens() {
        let pool = CorePool::new(2);
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _tokens = pool.acquire(2);
            panic!("cell crashed");
        }));
        assert!(crashed.is_err());
        assert_eq!(lock_unpoisoned(&pool.state).held, 0);
        drop(pool.acquire(2));
    }
}
