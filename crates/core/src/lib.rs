#![warn(missing_docs)]

//! The memnet simulator: configuration, the discrete-event engine, and
//! run reports.
//!
//! This crate assembles the substrates — [`memnet_dram`] vaults,
//! [`memnet_net`] topologies/links, [`memnet_power`] energy accounting,
//! [`memnet_policy`] management and [`memnet_workload`] generators — into
//! a full-system memory-network simulation:
//!
//! 1. Build a [`SimConfig`] (workload, topology, network scale, mechanism,
//!    policy, α, evaluation period, seed).
//! 2. Call [`SimConfig::run`] to execute the discrete-event simulation.
//! 3. Read the [`RunReport`]: power breakdown per Figure 5, utilizations,
//!    latency and throughput metrics, and per-link telemetry.
//!
//! # Examples
//!
//! ```
//! use memnet_core::{NetworkScale, PolicyKind, SimConfig};
//! use memnet_net::TopologyKind;
//! use memnet_policy::Mechanism;
//! use memnet_simcore::SimDuration;
//!
//! let report = SimConfig::builder()
//!     .workload("mixD")
//!     .topology(TopologyKind::DaisyChain)
//!     .scale(NetworkScale::Small)
//!     .policy(PolicyKind::FullPower)
//!     .mechanism(Mechanism::FullPower)
//!     .eval_period(memnet_simcore::SimDuration::from_us(50))
//!     .build()
//!     .expect("valid configuration")
//!     .run();
//! assert!(report.power.watts_per_hmc() > 0.0);
//! # let _ = SimDuration::from_us(1);
//! ```

pub mod config;
pub mod engine;
pub mod frontend;
pub mod limits;
pub mod metrics;
pub mod multichannel;
pub mod report_text;
pub mod runner;

pub use config::{
    AddressMapping, ConfigError, NetworkScale, SimConfig, SimConfigBuilder, TrafficSpec,
    DEFAULT_SEED,
};
pub use engine::Engine;
pub use frontend::{InjectStep, TrafficSource};
pub use limits::{LimitedRun, RunLimits, RunProgress, StopReason};
pub use memnet_policy::PolicyKind;
pub use metrics::{LinkTelemetry, PowerSummary, RunReport};
pub use runner::{run_pair, sweep, sweep_seeds};
