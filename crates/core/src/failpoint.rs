//! Seeded failpoints for crash testing.
//!
//! A checkpoint/restore layer is only trustworthy if it survives the
//! crashes it exists for — and those crashes must be *injectable* at
//! the exact boundaries where torn state is possible (mid-write,
//! mid-append, mid-restore), and where one unit of work must fail
//! alone (a cell, a connection). This module provides named
//! failpoints that test harnesses arm from the environment:
//!
//! ```text
//! ORION_FAILPOINTS="ckpt.write=kill@3,cell.run:vc16/uniform=panic@*"
//! ```
//!
//! Each entry is `name[:substring]=action[@n|@*]`: on the `n`-th hit
//! (1-based, default 1) of failpoint `name` — or on every hit, for
//! `@*` — whose key contains `substring` (see [`hit_with`]; the name
//! side splits at its first `:`), perform `action`:
//!
//! * `error` — make [`hit`] return an error the caller must surface,
//! * `panic` — panic (exercises unwind/abort paths),
//! * `kill`  — `process::abort()`: the closest safe stand-in for
//!   SIGKILL, leaving whatever state is on disk exactly as it was.
//!
//! When `ORION_FAILPOINTS` is unset (production), every [`hit`] is
//! two atomic loads — the registry's `OnceLock` fast path and a
//! global armed flag — no map lookup, no lock, no key built.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::sync::OnceLock;

/// What an armed failpoint does when its trigger count is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// [`hit`] returns `Err(FailpointError)`.
    Error,
    /// [`hit`] panics.
    Panic,
    /// The process aborts immediately (simulated SIGKILL).
    Kill,
}

/// The typed error surfaced by an `error`-action failpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointError {
    /// The failpoint that fired.
    pub name: String,
}

impl std::fmt::Display for FailpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "injected failure at failpoint `{}`", self.name)
    }
}

impl std::error::Error for FailpointError {}

/// The malformed entry of a failpoint list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailpointSpecError(pub String);

impl std::fmt::Display for FailpointSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let grammar = "name[:substring]=error|panic|kill[@n|@*]";
        write!(f, "malformed failpoint `{}` (expected {grammar})", self.0)
    }
}

impl std::error::Error for FailpointSpecError {}

#[derive(Debug)]
struct Armed {
    name: String,
    /// Matches keys containing it; `""` matches every hit.
    selector: String,
    action: FailAction,
    /// Fire on this matching hit (1-based); decremented per hit.
    remaining: u64,
    /// `@*`: fire on every matching hit, never disarm.
    every: bool,
}

/// Fast path: false until something arms a failpoint, then checked
/// registrations take the slow path.
static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static REGISTRY: OnceLock<Mutex<Vec<Armed>>> = OnceLock::new();

fn registry() -> &'static Mutex<Vec<Armed>> {
    REGISTRY.get_or_init(|| {
        // A malformed list arms nothing; `init_from_env` reports it.
        let env = std::env::var("ORION_FAILPOINTS").unwrap_or_default();
        let points = parse(&env).unwrap_or_default();
        ANY_ARMED.store(!points.is_empty(), Ordering::Release);
        Mutex::new(points)
    })
}

fn parse(spec: &str) -> Result<Vec<Armed>, FailpointSpecError> {
    let entries = spec.split(',').map(str::trim).filter(|e| !e.is_empty());
    entries
        .map(|e| parse_entry(e).ok_or_else(|| FailpointSpecError(e.to_string())))
        .collect()
}

fn parse_entry(entry: &str) -> Option<Armed> {
    let (site, rest) = entry.split_once('=')?;
    let (name, selector) = match site.trim().split_once(':') {
        Some((_, "")) => return None,
        Some(split) => split,
        None => (site.trim(), ""),
    };
    let (action, n) = rest.split_once('@').unwrap_or((rest, "1"));
    let action = match action {
        "error" => FailAction::Error,
        "panic" => FailAction::Panic,
        "kill" => FailAction::Kill,
        _ => return None,
    };
    let every = n == "*";
    let remaining = if every { 1 } else { n.parse().ok()? };
    (!name.is_empty() && remaining > 0).then(|| Armed {
        name: name.to_string(),
        selector: selector.to_string(),
        action,
        remaining,
        every,
    })
}

/// Reads `ORION_FAILPOINTS` (if not already read) and reports whether
/// any failpoint is armed, or the first malformed entry (the list then
/// arms nothing). Call once at process start: it refuses a typo, and
/// makes the first [`hit`] cheap too.
pub fn init_from_env() -> Result<bool, FailpointSpecError> {
    registry();
    parse(&std::env::var("ORION_FAILPOINTS").unwrap_or_default())?;
    Ok(ANY_ARMED.load(Ordering::Acquire))
}

/// Arms the entries of `spec`, in the `ORION_FAILPOINTS` grammar,
/// after any already armed (tests); a malformed entry arms nothing.
pub fn arm(spec: &str) -> Result<(), FailpointSpecError> {
    let parsed = parse(spec)?;
    let mut points = registry().lock().expect("failpoint registry");
    points.extend(parsed);
    ANY_ARMED.store(true, Ordering::Release);
    Ok(())
}

/// Disarms every failpoint (tests).
pub fn reset() {
    if let Some(reg) = REGISTRY.get() {
        reg.lock().expect("failpoint registry").clear();
    }
    ANY_ARMED.store(false, Ordering::Release);
}

/// Marks a failpoint site. Returns `Ok(())` unless `name` is armed
/// with an `error` action and this hit reaches its trigger count.
/// Entries with a substring never match it.
///
/// # Panics
///
/// Panics if `name` is armed with [`FailAction::Panic`] and triggered;
/// aborts the process for [`FailAction::Kill`].
pub fn hit(name: &str) -> Result<(), FailpointError> {
    hit_with(name, || "")
}

/// [`hit`] at a site that names what it works on: `key()` runs only
/// when something is armed, and the first entry for `name` whose
/// substring the key contains takes the hit.
pub fn hit_with<K: AsRef<str>>(name: &str, key: impl FnOnce() -> K) -> Result<(), FailpointError> {
    // First hit anywhere reads ORION_FAILPOINTS; after that this is
    // the OnceLock fast path (one atomic load) plus the armed flag.
    let reg = registry();
    if !ANY_ARMED.load(Ordering::Acquire) {
        return Ok(());
    }
    let key = key();
    let mut points = reg.lock().expect("failpoint registry");
    let matching = |p: &Armed| p.name == name && key.as_ref().contains(p.selector.as_str());
    let Some(i) = points.iter().position(matching) else {
        return Ok(());
    };
    let armed = &mut points[i];
    if armed.remaining > 1 {
        armed.remaining -= 1;
        return Ok(());
    }
    let action = armed.action;
    if !armed.every {
        points.remove(i);
    }
    drop(points);
    match action {
        FailAction::Error => Err(FailpointError {
            name: name.to_string(),
        }),
        FailAction::Panic => panic!("injected panic at failpoint `{name}`"),
        FailAction::Kill => std::process::abort(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::sync::{MutexGuard, PoisonError};

    // Failpoint state is process-global, so these tests share one
    // registry: each holds this lock, uses a distinct name and calls
    // reset() last.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> MutexGuard<'static, ()> {
        SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_hits_are_free_and_ok() {
        let _serial = serial();
        assert_eq!(hit("never.armed"), Ok(()));
    }

    #[test]
    fn error_action_fires_on_nth_hit_then_disarms() {
        let _serial = serial();
        arm("t.error=error@3").unwrap();
        assert_eq!(hit("t.error"), Ok(()));
        assert_eq!(hit("t.error"), Ok(()));
        let err = hit("t.error").unwrap_err();
        assert_eq!(err.name, "t.error");
        assert!(err.to_string().contains("t.error"));
        // One-shot: after firing the point disarms.
        assert_eq!(hit("t.error"), Ok(()));
        reset();
    }

    #[test]
    fn a_substring_selects_keyed_hits_and_star_fires_on_every_one() {
        let _serial = serial();
        arm("t.keyed:b/r0.5=error@*").unwrap();
        let built = std::cell::Cell::new(0);
        let key = |k: &'static str| {
            let built = &built;
            move || {
                built.set(built.get() + 1);
                k
            }
        };
        assert_eq!(hit_with("t.keyed", key("a/r0.5")), Ok(()));
        for _ in 0..3 {
            assert!(hit_with("t.keyed", key("b/r0.5:x")).is_err());
        }
        // An unkeyed hit never matches a selected entry.
        assert_eq!(hit("t.keyed"), Ok(()));
        reset();
        // Disarmed, the key is never built.
        assert_eq!(hit_with("t.keyed", key("b/r0.5")), Ok(()));
        assert_eq!(built.get(), 4);
    }

    #[test]
    fn parse_accepts_lists_and_rejects_garbage() {
        let _serial = serial();
        let parsed = parse("a=error,b=kill@5, c=panic@2 ,,cell.run:vc16/x@1:2=panic@*").unwrap();
        let names: Vec<&str> = parsed.iter().map(|p| p.name.as_str()).collect();
        assert_eq!(names, ["a", "b", "c", "cell.run"]);
        assert_eq!(parsed[1].action, FailAction::Kill);
        assert_eq!((parsed[1].remaining, parsed[2].remaining), (5, 2));
        assert_eq!(parsed[3].selector, "vc16/x@1:2");
        assert!(parsed[3].every && !parsed[2].every);
        for bad in [
            "junk",
            "d=frob@1",
            "=error",
            "e:=panic",
            ":x=panic",
            "f=error@0",
            "g=error@",
            "h=kill@x",
        ] {
            let err = parse(&format!("a=error,{bad}")).unwrap_err();
            assert_eq!(err.0, bad);
            assert!(err.to_string().contains(bad));
            assert!(arm(bad).is_err(), "{bad} armed");
        }
    }

    #[test]
    #[should_panic(expected = "injected panic at failpoint")]
    fn panic_action_panics() {
        let _serial = serial();
        arm("t.panic=panic").unwrap();
        let _ = hit("t.panic");
    }
}
