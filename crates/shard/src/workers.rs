//! Persistent shard workers and their cycle barrier.
//!
//! A threaded [`ShardedNetwork`](crate::ShardedNetwork) steps shard 0
//! on the calling thread and every other shard on a worker thread that
//! lives as long as the network: no thread is started per cycle. Each
//! cycle the coordinator hands shards `1..` to the workers through
//! per-worker slots, releases them by bumping an epoch, steps shard 0
//! itself, and waits until every worker has reported done; then it
//! takes the shards back. A worker holds its slot's lock only while it
//! steps, and the coordinator takes it only at the barrier, so the
//! locks never contend.
//!
//! Both sides of the barrier wait in three stages: they spin for
//! [`SPIN`], then yield their core to any other runnable thread until
//! [`YIELD`] has passed, then park. A wait that ends within a cycle's
//! skew never pays a wake-up from a park (hundreds of microseconds on
//! a virtual machine). A yielding waiter stays runnable and is charged
//! the time it yields (Linux does not lower its priority), so with
//! more shard threads than cores it still competes for a core; the
//! measured cost of that is in `docs/SCALING.md` § Performance
//! expectations.
//!
//! A panic in a worker's step is caught there, its shard is returned
//! all the same, and the coordinator resumes the panic on the caller
//! of `step` once every shard is back. Dropping [`Workers`] stops and
//! joins every worker.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

use crate::mailbox::MailGrid;
use crate::sharded::ShardCell;

/// How long a side of the barrier spins before it starts yielding.
const SPIN: Duration = Duration::from_micros(20);

/// How long a side of the barrier waits, spinning then yielding,
/// before it parks. A 32×32 cycle's serial section and shard-step
/// skew are each about 100 µs, so the wait is usually over well
/// before this.
const YIELD: Duration = Duration::from_millis(2);

type PanicPayload = Box<dyn Any + Send + 'static>;

/// What a worker's slot holds between barriers.
#[derive(Default)]
struct Slot {
    /// The shard handed over for this cycle.
    cell: Option<ShardCell>,
    /// The payload of a panic in this cycle's step, if it panicked.
    panic: Option<PanicPayload>,
}

/// State shared between the coordinator and its workers.
struct Shared {
    grid: Arc<MailGrid>,
    /// Slot `i` carries shard `i + 1`.
    slots: Vec<Mutex<Slot>>,
    /// Bumped once per release; a worker steps once per new value.
    epoch: AtomicU64,
    /// The cycle being stepped, published before `epoch`.
    cycle: AtomicU64,
    /// Set (before a final epoch bump) when the workers must exit.
    stop: AtomicBool,
    /// Workers done with the current epoch.
    done: AtomicUsize,
    /// The thread waiting at the barrier; the last worker done
    /// unparks it.
    waiter: Mutex<Thread>,
}

/// The worker threads of one sharded network.
pub(crate) struct Workers {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for Workers {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Workers")
            .field("threads", &self.handles.len())
            .finish_non_exhaustive()
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("shard steps catch their panics, so no slot lock is poisoned")
}

/// Waits for `ready`: spins for up to [`SPIN`], yields up to
/// [`YIELD`], then parks between checks. The side that makes `ready`
/// true unparks this thread afterwards, and a park that follows an
/// unpark returns at once, so no wake-up is lost.
fn wait_until(mut ready: impl FnMut() -> bool) {
    let start = Instant::now();
    while start.elapsed() < SPIN {
        for _ in 0..64 {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
    }
    while start.elapsed() < YIELD {
        if ready() {
            return;
        }
        thread::yield_now();
    }
    while !ready() {
        thread::park();
    }
}

impl Workers {
    /// Starts `count` workers stepping shards `1..=count` through
    /// `grid`.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses a thread.
    pub(crate) fn start(count: usize, grid: Arc<MailGrid>) -> Workers {
        let shared = Arc::new(Shared {
            grid,
            slots: (0..count).map(|_| Mutex::new(Slot::default())).collect(),
            epoch: AtomicU64::new(0),
            cycle: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            done: AtomicUsize::new(0),
            waiter: Mutex::new(thread::current()),
        });
        let handles = (0..count)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("orion-shard-{}", i + 1))
                    .spawn(move || work(&shared, i))
                    .expect("the host starts a shard worker thread")
            })
            .collect();
        Workers { shared, handles }
    }

    /// Steps every cell one cycle: `cells[1..]` on the workers, and
    /// `cells[0]` with `step0` on the calling thread. Returns once
    /// every cell is back in `cells`, in order; a panic in any step is
    /// then resumed here, the lowest shard's first.
    pub(crate) fn step(
        &self,
        cells: &mut Vec<ShardCell>,
        cycle: u64,
        step0: impl FnOnce(&mut ShardCell),
    ) {
        let shared = &*self.shared;
        debug_assert_eq!(cells.len(), shared.slots.len() + 1);
        for (slot, cell) in shared.slots.iter().zip(cells.drain(1..)) {
            lock(slot).cell = Some(cell);
        }
        *lock(&shared.waiter) = thread::current();
        // `done` and `cycle` are published by the Release bump of
        // `epoch`, which a worker reads with Acquire before it looks at
        // either.
        shared.done.store(0, Ordering::Relaxed);
        shared.cycle.store(cycle, Ordering::Relaxed);
        shared.epoch.fetch_add(1, Ordering::Release);
        for h in &self.handles {
            h.thread().unpark();
        }

        let own = panic::catch_unwind(AssertUnwindSafe(|| step0(&mut cells[0])));

        // Pairs with each worker's AcqRel increment after its step.
        let workers = shared.slots.len();
        wait_until(|| shared.done.load(Ordering::Acquire) == workers);
        let mut first_panic = own.err();
        for slot in &shared.slots {
            let mut slot = lock(slot);
            cells.push(slot.cell.take().expect("a worker returns its shard"));
            if let Some(payload) = slot.panic.take() {
                first_panic.get_or_insert(payload);
            }
        }
        if let Some(payload) = first_panic {
            panic::resume_unwind(payload);
        }
    }
}

/// A worker's life: wait for a release, step the shard in its slot,
/// report done; exit when stopped.
fn work(shared: &Shared, i: usize) {
    let mut seen = 0;
    loop {
        let mut now = seen;
        wait_until(|| {
            now = shared.epoch.load(Ordering::Acquire);
            now != seen
        });
        seen = now;
        if shared.stop.load(Ordering::Acquire) {
            return;
        }
        let cycle = shared.cycle.load(Ordering::Relaxed);
        {
            let mut slot = lock(&shared.slots[i]);
            let cell = slot.cell.as_mut().expect("a released worker has a shard");
            let outcome =
                panic::catch_unwind(AssertUnwindSafe(|| cell.step(i + 1, &shared.grid, cycle)));
            slot.panic = outcome.err();
        }
        if shared.done.fetch_add(1, Ordering::AcqRel) + 1 == shared.slots.len() {
            lock(&shared.waiter).unpark();
        }
    }
}

impl Drop for Workers {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        self.shared.epoch.fetch_add(1, Ordering::Release);
        for h in self.handles.drain(..) {
            h.thread().unpark();
            // A worker catches its step's panics, so it only ever
            // returns; there is nothing to report from a join.
            let _ = h.join();
        }
    }
}
