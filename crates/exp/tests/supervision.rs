//! Supervised execution under injected cell crashes: the `cell.run`
//! failpoint panics chosen cells, and one crashing cell costs one
//! `crashed` record — never the grid, the cache or a concurrent
//! requester. Failpoints are process-global, so every
//! test here holds one lock for its whole run and disarms on the way
//! out; no other test binary arms anything.

use std::fs;
use std::path::PathBuf;
use std::sync::{Arc, Barrier, Mutex, MutexGuard, PoisonError};

use orion_exp::failpoint;
use orion_exp::runner::{CellRunner, Supervision};
use orion_exp::{run_spec, EngineOptions, ExperimentSpec};

/// The Fig.5-style grid of `engine.rs`: two presets (wormhole + VC)
/// on the 4×4 torus, 8 injection rates, reduced measurement effort.
const SPEC: &str = r#"
[experiment]
name = "grid-test"
description = "supervision under injected crashes"

[measure]
warmup = 100
sample_packets = 200
max_cycles = 30000
watchdog_cycles = 500

[grid]
presets = ["wh64", "vc64"]
rates = [0.01, 0.02, 0.03, 0.04, 0.05, 0.06, 0.07, 0.08]
seeds = [1]
"#;

/// The key of exactly one SPEC cell, used as the crash target.
const POISON_KEY: &str = "wh64/uniform/r0.030000";

/// What the `cell.run` failpoint's panic leaves in a crashed record.
const PAYLOAD: &str = "injected panic at failpoint `cell.run`";

/// This file's lock, held for a whole test; every failpoint is
/// disarmed when it drops, so a failing test cannot leak its arming.
struct Serial {
    _lock: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        failpoint::reset();
    }
}

fn serial() -> Serial {
    static LOCK: Mutex<()> = Mutex::new(());
    Serial {
        _lock: LOCK.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "orion-exp-supervision-{}-{tag}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(threads: usize, cache_dir: Option<PathBuf>) -> EngineOptions {
    EngineOptions {
        threads,
        cache_dir,
        progress: false,
        ..EngineOptions::default()
    }
}

#[test]
fn poisoned_cell_is_quarantined_and_grid_completes() {
    let _serial = serial();
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    let (clean, _) = run_spec(&spec, &opts(4, None)).unwrap();

    failpoint::arm(&format!("cell.run:{POISON_KEY}=panic@*")).unwrap();
    let (records, summary) = run_spec(&spec, &opts(4, None)).unwrap();

    assert_eq!(records.len(), 16, "the grid stays rectangular");
    assert_eq!(summary.crashed, 1);
    assert!(summary.is_degraded());
    let crashed: Vec<_> = records.iter().filter(|r| r.is_crashed()).collect();
    assert_eq!(crashed.len(), 1, "exactly one crashed record");
    assert!(crashed[0].cell.starts_with(POISON_KEY));
    assert_eq!(crashed[0].outcome, "crashed");
    assert!(
        crashed[0].error.as_deref().unwrap().contains(PAYLOAD),
        "panic payload captured: {:?}",
        crashed[0].error
    );
    // Every other cell's result is bit-identical to the clean run:
    // the panic was isolated, not contagious.
    for (a, b) in clean.iter().zip(&records) {
        if !a.cell.starts_with(POISON_KEY) {
            assert_eq!(a, b, "cell {} perturbed by a sibling's panic", a.cell);
        }
    }
}

#[test]
fn crashed_cells_are_not_cached_and_heal_on_rerun() {
    let _serial = serial();
    let dir = temp_dir("crash-heal");
    let spec = ExperimentSpec::parse(SPEC).unwrap();
    failpoint::arm(&format!("cell.run:{POISON_KEY}=panic@*")).unwrap();
    let (_, s1) = run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(s1.crashed, 1);

    // Same cache, failpoint disarmed (the "fixed build"): only the
    // quarantined cell re-simulates, and the grid is clean again.
    failpoint::reset();
    let (records, s2) = run_spec(&spec, &opts(2, Some(dir.clone()))).unwrap();
    assert_eq!(s2.cache_hits, 15);
    assert_eq!(s2.simulated, 1, "only the crashed cell re-runs");
    assert_eq!(s2.crashed, 0);
    assert!(!s2.is_degraded());
    assert!(records.iter().all(|r| !r.is_crashed()));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn crashing_leader_does_not_wedge_followers() {
    let _serial = serial();
    let runner = Arc::new(CellRunner::open(None).unwrap());
    let sup = Supervision {
        checkpoint_every: 0,
    };
    let cell = ExperimentSpec::parse(
        r#"
[experiment]
name = "poisoned"

[grid]
presets = ["vc16"]
rates = [0.02]

[measure]
warmup = 100
sample_packets = 100
max_cycles = 20000
"#,
    )
    .unwrap()
    .expand()
    .remove(0);
    failpoint::arm("cell.run:vc16/uniform/r0.020000=panic@*").unwrap();
    let barrier = Arc::new(Barrier::new(4));
    let handles: Vec<_> = (0..4)
        .map(|_| {
            let (runner, barrier) = (Arc::clone(&runner), Arc::clone(&barrier));
            let (cell, sup) = (cell.clone(), sup.clone());
            std::thread::spawn(move || {
                barrier.wait();
                runner.run(&cell, &sup)
            })
        })
        .collect();
    for h in handles {
        let rec = h.join().unwrap();
        assert!(rec.is_crashed(), "poisoned cell must quarantine, not hang");
    }
    // Quarantine verdicts are never remembered: each requester that
    // led a flight re-executed, none was served a cached crash.
    assert_eq!(runner.stats().cache_hits, 0);
    assert!(runner.known_records() == 0, "crashes are never cached");
}
