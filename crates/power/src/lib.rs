#![warn(missing_docs)]

//! The HMC memory-network power model and energy accounting.
//!
//! Following the paper's model (from Pugsley et al. \[12\]):
//!
//! - a high-radix HMC (four full links) peaks at **13.4 W**, split
//!   **43 % DRAM / 22 % logic / 35 % I/O**;
//! - a low-radix HMC (two full links) peaks at half that, with the same
//!   relative split (peak power is proportional to bandwidth);
//! - when idle, DRAM burns 10 % of its peak, logic 25 % of its peak, and
//!   I/O burns *the same as when active* — high-speed links keep
//!   transmitting to stay synchronized — which is exactly why idle I/O
//!   dominates memory-network power;
//! - both radix classes come out to the same **0.586 W per unidirectional
//!   link**, and the same dynamic energy per DRAM access and per routed
//!   flit, so energy accounting is uniform across mixed-radix networks.
//!
//! [`EnergyBreakdown`] accumulates joules in the six categories of the
//! paper's Figure 5 (idle I/O, active I/O, logic leakage, logic dynamic,
//! DRAM leakage, DRAM dynamic); [`HmcPowerModel`] converts link
//! time-in-state residencies and module activity counts into those joules.
//!
//! Pricing is pluggable: the [`EnergyBackend`] trait abstracts the
//! conversion from metered activity to joules, with two implementations —
//! the paper's analytical model ([`HmcPowerModel`]) and an IDD-style
//! current-based table ([`IddModel`]) — selectable per run via
//! [`EnergyBackendKind`]. The [`calib`] module fits IDD link currents to
//! a measurement CSV.

pub mod backend;
pub mod calib;
pub mod energy;
pub mod model;

pub use backend::{EnergyBackend, EnergyBackendKind, IddModel, ModuleActivity};
pub use energy::EnergyBreakdown;
pub use model::HmcPowerModel;
