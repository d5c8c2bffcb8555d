#![warn(missing_docs)]

//! The experiment harness: regenerates every table and figure of the
//! paper's evaluation.
//!
//! [`figures::FIGURES`] lists every table, figure and design-choice
//! ablation. `memnet figures [NAME...]` renders the named ones (all of
//! them by default) through one shared [`Matrix`] of simulation results,
//! so common configurations (e.g. the full-power baselines) are
//! simulated once.
//!
//! The crate reads no environment variable: every run is described by
//! a [`Settings`] value and the figure keys. The `memnet` binary fills
//! `Settings` from the environment. Simulated evaluation time defaults
//! to 1 ms per run (the paper uses 10 ms); set `MEMNET_EVAL_US` to
//! lengthen or shorten it, and `MEMNET_THREADS` to bound the sweep
//! parallelism.
//!
//! Results are cached persistently between invocations (see
//! [`mod@cache`]): re-rendering with a warm cache performs zero
//! simulations, and so does rendering from the caches that the shards of
//! a `memnet sweep` filled, once their files share one directory. Point
//! `MEMNET_CACHE_DIR` somewhere else to relocate the cache, or set
//! `MEMNET_NO_CACHE=1` to bypass it.
//!
//! Sweeps scale out across processes and machines: `memnet sweep
//! --shard i/n` computes a deterministic, disjoint slice of the figure
//! matrix and `memnet merge` recombines the slices byte-identically
//! (see [`mod@shard`]).

pub mod cache;
pub mod figures;
pub mod matrix;
pub mod settings;
pub mod shard;

pub use cache::{fingerprint, DiskCache, Location, CACHE_SCHEMA_VERSION};
pub use matrix::{EnsureStats, Key, Matrix};
pub use settings::{parse_seed_list, Settings};
pub use shard::{Shard, SweepPlan};
