#![warn(missing_docs)]

//! Discrete-event simulation kernel for the `memnet` workspace.
//!
//! This crate provides the foundation every other `memnet` crate builds on:
//!
//! - [`SimTime`] / [`SimDuration`] — picosecond-resolution simulated time.
//!   Memory-network links serialize one 16 B flit in 0.64 ns, so nanosecond
//!   resolution is too coarse; picoseconds represent every interval in the
//!   model exactly as an integer.
//! - [`EventQueue`] — a deterministic time-ordered event queue: a FIFO for
//!   the current instant, a timing wheel over the next 4.19 µs and an
//!   ordered overflow beyond it. Ties are broken by insertion order so that
//!   simulations are exactly reproducible.
//! - [`SplitMix64`] — a tiny, fast, deterministic PRNG used by the workload
//!   generators. Runs with equal seeds produce identical request streams.
//! - [`stats`] — counters, time-in-state trackers, histograms and online
//!   summary statistics used for power/performance accounting.
//! - [`audit`] — runtime invariant checking (energy conservation, packet
//!   conservation, budget ceilings) gated by an [`AuditLevel`].
//!
//! # Examples
//!
//! ```
//! use memnet_simcore::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue: EventQueue<&str> = EventQueue::new();
//! queue.push(SimTime::ZERO + SimDuration::from_ns(5), "second");
//! queue.push(SimTime::ZERO + SimDuration::from_ns(2), "first");
//! let (time, event) = queue.pop().expect("queue is non-empty");
//! assert_eq!(event, "first");
//! assert_eq!(time.as_ps(), 2_000);
//! ```

pub mod audit;
pub mod event;
pub mod hash;
pub mod rng;
pub mod stats;
pub mod time;
pub mod warn;

pub use audit::{AuditLevel, AuditReport, AuditViolation, Auditor};
pub use event::EventQueue;
pub use hash::{FastHashState, FxHasher64};
pub use rng::SplitMix64;
pub use time::{SimDuration, SimTime};
