#![warn(missing_docs)]

//! # memnet — memory-network power simulation and management
//!
//! A from-scratch reproduction of *"Understanding and Optimizing Power
//! Consumption in Memory Networks"* (HPCA 2017): a discrete-event simulator
//! for HMC-style memory networks together with the paper's idle-I/O power
//! management policies (network-unaware and network-aware / ISP) and the
//! circuit-level mechanisms they drive (rapid on/off, variable-width links,
//! link DVFS).
//!
//! This facade crate re-exports the workspace crates under stable paths:
//!
//! - [`simcore`] — discrete-event kernel (time, events, RNG, stats)
//! - [`dram`] — HMC vault/bank DRAM timing model
//! - [`net`] — packets, topologies, routing, link model
//! - [`faults`] — fault injection: CRC errors, degraded lanes, hard
//!   failures and the link-retry/route-around resilience model
//! - [`obs`] — time-series observability: per-epoch metric sampling,
//!   JSONL event traces and the trace summarizer
//! - [`power`] — the HMC power model and energy accounting
//! - [`policy`] — power-control mechanisms and management policies
//! - [`workload`] — the 14 paper workloads as synthetic generators
//! - [`core`] — the simulator engine, configuration and reports
//! - [`bench`](mod@bench) — the figure/experiment matrix, its persistent result
//!   cache and the sweep shard partitioner
//! - [`serve`] — the manifest-driven batch simulation server
//!
//! # Quickstart
//!
//! ```
//! use memnet::core::{NetworkScale, PolicyKind, SimConfig};
//! use memnet::net::TopologyKind;
//! use memnet::policy::Mechanism;
//! use memnet_simcore::SimDuration;
//!
//! # fn main() {
//! let report = SimConfig::builder()
//!     .workload("mixB")
//!     .topology(TopologyKind::TernaryTree)
//!     .scale(NetworkScale::Small)
//!     .policy(PolicyKind::NetworkAware)
//!     .mechanism(Mechanism::VwlRoo)
//!     .eval_period(SimDuration::from_us(300))
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! println!("avg power per HMC: {:.2} W", report.power.watts_per_hmc());
//! # }
//! ```

pub use memnet_bench as bench;
pub use memnet_core as core;
pub use memnet_dram as dram;
pub use memnet_faults as faults;
pub use memnet_net as net;
pub use memnet_obs as obs;
pub use memnet_policy as policy;
pub use memnet_power as power;
pub use memnet_serve as serve;
pub use memnet_simcore as simcore;
pub use memnet_workload as workload;
