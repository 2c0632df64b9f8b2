//! Orion-as-a-service: a long-lived daemon serving experiment grids to
//! concurrent clients over dependency-free HTTP/1.1.
//!
//! The batch engine (`orion-exp`) answers "run this grid once, well".
//! This crate answers the ROADMAP's serving question: many clients,
//! one crash-safe result store, no duplicated work. Three mechanisms
//! carry that:
//!
//! 1. **Admission control** ([`admission`]) — by capacity alone: a
//!    bounded worker pool with a bounded wait queue, and a bound on open
//!    connections derived from the two; every refusal is a *typed*
//!    rejection (HTTP 429/503 with a stable machine-readable code),
//!    never a hang or a silent drop.
//! 2. **Shared execution** — all requests run through one
//!    [`CellRunner`](orion_exp::runner::CellRunner): results are
//!    content-addressed in the cache, and identical cells submitted
//!    concurrently dedup to a single execution in flight.
//! 3. **Graceful drain** ([`server`], [`signal`]) — SIGTERM/SIGINT
//!    stop admission, let running cells finish, truncate open streams
//!    with a typed summary, flush the cache atomically, and report
//!    whether the drain beat its deadline (the CLI maps that to the
//!    structured exit codes).
//!
//! Protocol (version [`SERVE_PROTOCOL_VERSION`]): `POST
//! /v1/experiment` with a spec-TOML body streams back chunked JSONL —
//! a `header` line, one record per cell as it completes, then a
//! `summary` line. `GET /healthz`, `/readyz` and `/metrics` serve
//! liveness, readiness and an `orion-obs` counter snapshot. The wire
//! format, knobs and failure taxonomy are documented in
//! `docs/SERVING.md`.

#![warn(missing_docs)]

pub mod admission;
pub mod http;
pub mod server;
pub mod signal;

pub use admission::{AdmissionGate, Permit, Rejection};
pub use server::{ServeConfig, ServeOutcome, Server, ShutdownHandle};

/// Version of the serve wire protocol: the `protocol` field of every
/// `header`/`summary`/`error` line and of the health/ready bodies.
/// Record lines carry their own `schema_version`
/// ([`orion_exp::SCHEMA_VERSION`]); this constant versions everything
/// the daemon adds around them, and bumps whenever a framing line
/// gains, loses or retypes a field.
pub const SERVE_PROTOCOL_VERSION: u32 = 2;
