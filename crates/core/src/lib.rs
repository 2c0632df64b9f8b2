//! User-facing API of the Orion reproduction: configuration, the
//! paper's experimental presets, the experiment runner and reporting.
//!
//! The paper positions Orion as a "pick, plug and play" platform (§6):
//! choose modules, parameterize them, and get a simulator that reports
//! both performance and power. This crate is that surface:
//!
//! * [`NetworkConfig`] / [`RouterConfig`] / [`LinkConfig`] — assemble a
//!   network from topology, router microarchitecture, technology, clock
//!   and link choices ([`config`]),
//! * [`presets`] — the six configurations of the paper's case studies
//!   (WH64, VC16, VC64, VC128, XB, CB),
//! * [`Experiment`] — the §4.1 measurement discipline: 1000-cycle
//!   warm-up, a 10 000-packet tagged sample, run-to-drain, energy
//!   recorded after warm-up ([`run`]),
//! * [`Report`] — latency, throughput, saturation detection, total /
//!   per-node / per-component power ([`report`]),
//! * [`RunOutcome`] — how a run ended: completed, saturated,
//!   deadlocked (with watchdog diagnostics), corrupted or
//!   budget-exhausted ([`report`]),
//! * [`ObserveOptions`] — opt-in observability: event metrics, per-node
//!   probe time series (the Fig. 6 power map over time) and flit
//!   lifecycle spans, collected into
//!   [`Report::observations`](report::Report::observations) without
//!   perturbing the run ([`run`]),
//! * [`RunCheckpoint`] / [`RunHook`] — deterministic mid-run
//!   checkpoint/restore: capture the complete run state on a cycle
//!   stride and resume bit-identically after a crash ([`checkpoint`]),
//! * [`failpoint`] — seeded, env-armed crash injection at
//!   checkpoint-write / cache-append / restore boundaries, zero-cost
//!   when disabled.
//!
//! # Example
//!
//! ```no_run
//! use orion_core::{presets, Experiment};
//! use orion_sim::Component;
//!
//! let report = Experiment::new(presets::vc64_onchip())
//!     .injection_rate(0.08)
//!     .run()
//!     .expect("valid configuration");
//! println!("avg latency {:.1} cycles", report.avg_latency());
//! for (component, power, fraction) in report.breakdown() {
//!     println!("{component}: {:.3} W ({:.1}%)", power.0, 100.0 * fraction);
//! }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checkpoint;
pub mod config;
pub mod exec;
pub mod failpoint;
pub mod presets;
pub mod report;
pub mod run;

pub use checkpoint::{RunCheckpoint, RunControl, RunError, RunHook, RunPhase, RunResult};
pub use config::{ConfigError, LinkConfig, NetworkConfig, RouterConfig};
pub use report::{Report, RunOutcome};
pub use run::{Experiment, ObserveOptions};

pub use orion_obs::Observations;
pub use orion_sim::EngineMode;
