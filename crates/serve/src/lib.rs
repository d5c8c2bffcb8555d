#![warn(missing_docs)]

//! # memnet-serve — manifest-driven batch simulation server
//!
//! Turns the simulator into a long-running service. A **manifest** is a
//! schema-versioned JSON document describing one complete run — config,
//! workload or replay source, faults, energy backend with optional
//! calibration — plus execution **limits** (wall time, event budget,
//! sim-time cap) and **assertions** evaluated against the finished
//! report. Manifests can be executed three ways, all producing
//! byte-identical reports for the same document:
//!
//! - `memnet run-manifest M` — offline, in-process (see
//!   [`job::run_manifest`])
//! - `memnet submit M` — over TCP to a running daemon
//! - `memnet serve` — the daemon itself ([`server::Server`]): a bounded
//!   worker pool with per-client fair scheduling, dedup of identical
//!   in-flight jobs, a persistent result cache keyed by the bench-cache
//!   fingerprint, JSONL lifecycle events and graceful drain on
//!   SIGTERM/ctrl-c or a `shutdown` request
//!
//! A **v2 sweep manifest** describes a whole figure sweep instead of one
//! run; the daemon farms it out as one queue item per shard and merges
//! the results byte-identically to an unsharded `memnet sweep` (see
//! [`mod@sweep`])
//!
//! The server is std-only by design: `std::net::TcpListener` plus a
//! thread pool, no async runtime, no HTTP — one JSON object per line in
//! each direction.

pub mod job;
pub mod manifest;
pub mod server;
pub mod signal;
pub mod sweep;

pub use job::{
    run_manifest, CacheNote, ResultPayload, Verdict, EXIT_ASSERT_FAILED, EXIT_CANCELLED,
    EXIT_ERROR, EXIT_LIMIT_EXCEEDED, EXIT_PASS, EXIT_REJECTED,
};
pub use manifest::{
    Assertions, Limits, Manifest, ManifestError, ResolvedJob, SweepSpec, MANIFEST_SCHEMA,
    MANIFEST_VERSION,
};
pub use server::{Server, ServerConfig, Stats};
pub use sweep::{run_sweep_manifest, SweepPayload};
