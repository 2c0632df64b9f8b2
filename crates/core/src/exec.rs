//! Deterministic parallel execution of independent simulation jobs.
//!
//! Grid cells and sweep points are embarrassingly parallel: each run
//! owns its network and RNG, so the only coordination is handing out
//! jobs and collecting results. [`par_map`] does exactly that with
//! scoped threads pulling from a shared queue — and because each
//! result is tagged with its input index and re-sorted at the end,
//! **the output is identical for any thread count**, including 1.
//! Nothing about a job's execution may depend on which worker ran it
//! or when; callers seed RNGs from the job's parameters, never from
//! queue position.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item, using up to `threads` worker threads,
/// returning results in input order.
///
/// `threads` of 0 or 1 runs inline on the calling thread (no spawn);
/// larger values are capped at the item count. Workers pull the next
/// index from an atomic counter, so the schedule is dynamic (a slow
/// job does not stall the queue) while the output order stays fixed.
///
/// # Panics
///
/// If `f` panics on any item the panic is propagated to the caller
/// once all workers finish (the behaviour of [`std::thread::scope`]).
pub fn par_map<T, R, F>(threads: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }

    // Items move into per-slot cells so workers can take them by value
    // without consuming a shared iterator under the results lock.
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|x| Mutex::new(Some(x))).collect();
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));

    std::thread::scope(|scope| {
        for _ in 0..threads.min(n) {
            scope.spawn(|| loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= n {
                    break;
                }
                let item = slots[idx]
                    .lock()
                    .unwrap()
                    .take()
                    .expect("each slot taken once");
                let result = f(item);
                results.lock().unwrap().push((idx, result));
            });
        }
    });

    let mut tagged = results.into_inner().unwrap();
    tagged.sort_by_key(|&(idx, _)| idx);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Renders a panic payload as a message. Most panics carry a `&str`
/// (literal) or `String` (formatted); anything else gets a fixed tag
/// so the caller still learns *that* the item crashed.
pub fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_order_matches_input_order() {
        let items: Vec<u64> = (0..40).collect();
        let sequential = par_map(1, items.clone(), |x| x * x);
        for threads in [2, 4, 16] {
            assert_eq!(par_map(threads, items.clone(), |x| x * x), sequential);
        }
    }

    #[test]
    fn uneven_job_durations_do_not_reorder() {
        // Early items sleep longest: with dynamic scheduling they
        // finish last, yet must still come back first.
        let items: Vec<u64> = (0..8).collect();
        let out = par_map(4, items, |x| {
            std::thread::sleep(std::time::Duration::from_millis(8 - x));
            x
        });
        assert_eq!(out, (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn degenerate_sizes() {
        assert_eq!(par_map(4, Vec::<u8>::new(), |x| x), Vec::<u8>::new());
        assert_eq!(par_map(0, vec![7], |x| x + 1), vec![8]);
        assert_eq!(
            par_map(100, vec![1, 2], |x| x),
            vec![1, 2],
            "threads capped"
        );
    }
}
