//! Durable mid-run checkpoints for the Orion reproduction.
//!
//! `orion-core` defines *what* a resumable run state is
//! ([`RunCheckpoint`](orion_core::RunCheckpoint)) and guarantees that
//! resuming from one is bit-identical to never having stopped. This
//! crate makes that state *durable*: a versioned, checksummed,
//! atomically-written snapshot file that a killed process finds intact
//! on restart — or provably corrupt, in which case the caller degrades
//! gracefully to a cycle-0 replay instead of trusting torn bytes.
//!
//! * [`save_checkpoint`] / [`load_checkpoint`] — the file codec:
//!   magic, [`CKPT_SCHEMA_VERSION`], owner fingerprint, payload,
//!   word-wise FNV-1a footer, written via [`write_atomic`].
//! * [`CheckpointHook`] — a [`RunHook`](orion_core::RunHook) that
//!   persists every checkpoint from a writer thread while the run keeps
//!   stepping, and honors a shared cancel flag (how a draining daemon
//!   stops in-flight cells at a safe boundary).
//! * [`run_checkpointed`] — the full policy: resume from a valid
//!   snapshot, fall back to cycle 0 on any corruption, persist on a
//!   stride, garbage-collect the file once the run finishes.
//! * [`hash`] / [`io`] — the stable-hash and atomic-write primitives
//!   (grown out of `orion-exp`, which now re-exports them from here),
//!   shared by the cache, the artifact writers and this file format.
//!
//! Crash injection at the torn-state boundaries (`ckpt.write`,
//! `ckpt.restore`, `cache.append`) goes through
//! [`orion_core::failpoint`]; the chaos tests (`orion-cli`'s
//! `tests/chaos_resume.rs`) kill the process at each of them and assert
//! the final artifacts are byte-identical to an uninterrupted run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod file;
pub mod hash;
pub mod hook;
pub mod io;

pub use file::{
    checkpoint_path, load_checkpoint, save_checkpoint, CkptError, CKPT_MAGIC, CKPT_SCHEMA_VERSION,
};
pub use hash::{fnv1a64, from_hex, splitmix64, to_hex};
pub use hook::{run_checkpointed, CheckpointHook, CheckpointOptions, CheckpointedRun};
pub use io::write_atomic;
