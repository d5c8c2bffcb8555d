//! DRAM array parameters (paper Table I).

use memnet_simcore::SimDuration;
use serde::{Deserialize, Serialize};

/// HMC DRAM array parameters.
///
/// Defaults come from Table I of the paper; all timing values are stored as
/// picosecond durations so arithmetic stays exact.
///
/// # Examples
///
/// ```
/// use memnet_dram::DramParams;
///
/// let p = DramParams::hmc_gen2();
/// assert_eq!(p.vaults, 32);
/// assert_eq!(p.line_burst_time().as_ns(), 8.0);
/// assert_eq!(p.nominal_read_latency().as_ns(), 30.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DramParams {
    /// Total capacity of one HMC, in bytes (Table I: 4 GB).
    pub capacity_bytes: u64,
    /// Number of vaults per HMC (Table I: 32).
    pub vaults: usize,
    /// Banks per vault. Table I does not list this; HMC gen2 uses 8 banks
    /// per vault for 4 GB cubes, which we adopt.
    pub banks_per_vault: usize,
    /// Vault data rate per TSV lane, bits per second (Table I: 2 Gbps).
    pub vault_data_rate_bps: u64,
    /// Vault I/O width in bits (Table I: x32).
    pub vault_io_bits: u32,
    /// Vault command-buffer entries (Table I: 16).
    pub vault_buffer_entries: usize,
    /// Cache-line / memory-access granularity in bytes (64 B).
    pub line_bytes: u64,
    /// CAS latency.
    pub tcl: SimDuration,
    /// RAS-to-CAS (activate) delay.
    pub trcd: SimDuration,
    /// Row-active minimum time.
    pub tras: SimDuration,
    /// Row precharge time.
    pub trp: SimDuration,
    /// Activate-to-activate delay between banks of the same vault.
    pub trrd: SimDuration,
    /// Write recovery time (last write data to precharge).
    pub twr: SimDuration,
}

impl DramParams {
    /// Most banks per vault: a [`Vault`](crate::Vault)'s command-buffer
    /// slots name their bank in 15 bits.
    pub const MAX_BANKS_PER_VAULT: usize = 1 << 15;

    /// Most command-buffer entries per vault: a vault links its queued
    /// operations by 16-bit slot index.
    pub const MAX_VAULT_BUFFER_ENTRIES: usize = u16::MAX as usize;

    /// The paper's Table I configuration: a 4 GB, 32-vault HMC.
    pub fn hmc_gen2() -> Self {
        DramParams {
            capacity_bytes: 4 << 30,
            vaults: 32,
            banks_per_vault: 8,
            vault_data_rate_bps: 2_000_000_000,
            vault_io_bits: 32,
            vault_buffer_entries: 16,
            line_bytes: 64,
            tcl: SimDuration::from_ns(11),
            trcd: SimDuration::from_ns(11),
            tras: SimDuration::from_ns(22),
            trp: SimDuration::from_ns(11),
            trrd: SimDuration::from_ns(5),
            twr: SimDuration::from_ns(12),
        }
    }

    /// Time to burst one line over the vault data bus.
    ///
    /// With Table I values: 64 B × 8 bits / (32 lanes × 2 Gbps) = 8 ns.
    pub fn line_burst_time(&self) -> SimDuration {
        let bits = self.line_bytes * 8;
        let bps = self.vault_data_rate_bps * u64::from(self.vault_io_bits);
        // bits / bps seconds = bits * 1e12 / bps picoseconds.
        SimDuration::from_ps(bits * 1_000_000_000_000 / bps)
    }

    /// Unloaded close-page read latency: tRCD + tCL + burst.
    ///
    /// This is the "DRAM access latency (e.g., 30 ns)" the paper's
    /// management policies use when charging DRAM latency to a module's
    /// actual epoch latency.
    pub fn nominal_read_latency(&self) -> SimDuration {
        self.trcd + self.tcl + self.line_burst_time()
    }

    /// Peak data bandwidth of one vault, bytes per second.
    pub fn vault_peak_bandwidth(&self) -> f64 {
        self.vault_data_rate_bps as f64 * f64::from(self.vault_io_bits) / 8.0
    }

    /// Peak data bandwidth of all vaults in one HMC, bytes per second.
    pub fn hmc_peak_bandwidth(&self) -> f64 {
        self.vault_peak_bandwidth() * self.vaults as f64
    }

    /// Number of 64 B lines the HMC holds.
    pub fn lines_per_hmc(&self) -> u64 {
        self.capacity_bytes / self.line_bytes
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a message describing the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.vaults == 0 {
            return Err("vaults must be positive".into());
        }
        if self.banks_per_vault == 0 || self.banks_per_vault > Self::MAX_BANKS_PER_VAULT {
            return Err(format!(
                "banks_per_vault must be in 1..={}, got {}",
                Self::MAX_BANKS_PER_VAULT,
                self.banks_per_vault
            ));
        }
        if self.vault_buffer_entries == 0
            || self.vault_buffer_entries > Self::MAX_VAULT_BUFFER_ENTRIES
        {
            return Err(format!(
                "vault_buffer_entries must be in 1..={}, got {}",
                Self::MAX_VAULT_BUFFER_ENTRIES,
                self.vault_buffer_entries
            ));
        }
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err("line_bytes must be a positive power of two".into());
        }
        if !self.capacity_bytes.is_multiple_of(self.line_bytes * self.vaults as u64) {
            return Err("capacity must divide evenly into lines across vaults".into());
        }
        if self.tras < self.trcd {
            return Err("tRAS must be at least tRCD".into());
        }
        Ok(())
    }
}

impl Default for DramParams {
    fn default() -> Self {
        DramParams::hmc_gen2()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_one_derived_values() {
        let p = DramParams::hmc_gen2();
        assert_eq!(p.line_burst_time(), SimDuration::from_ns(8));
        assert_eq!(p.nominal_read_latency(), SimDuration::from_ns(30));
        assert_eq!(p.vault_peak_bandwidth(), 8e9);
        assert_eq!(p.hmc_peak_bandwidth(), 256e9);
        assert_eq!(p.lines_per_hmc(), (4u64 << 30) / 64);
        p.validate().expect("defaults are valid");
    }

    #[test]
    fn validate_catches_bad_configs() {
        let mut p = DramParams::hmc_gen2();
        p.vaults = 0;
        assert!(p.validate().is_err());

        let mut p = DramParams::hmc_gen2();
        p.line_bytes = 48;
        assert!(p.validate().is_err());

        let mut p = DramParams::hmc_gen2();
        p.tras = SimDuration::from_ns(5);
        assert!(p.validate().is_err());

        // A vault's slots name their bank in 15 bits and link each other
        // by 16-bit index.
        for (banks, entries, ok) in [
            (DramParams::MAX_BANKS_PER_VAULT, DramParams::MAX_VAULT_BUFFER_ENTRIES, true),
            (DramParams::MAX_BANKS_PER_VAULT + 1, 16, false),
            (8, DramParams::MAX_VAULT_BUFFER_ENTRIES + 1, false),
            (0, 16, false),
            (8, 0, false),
        ] {
            let p = DramParams {
                banks_per_vault: banks,
                vault_buffer_entries: entries,
                ..DramParams::hmc_gen2()
            };
            assert_eq!(p.validate().is_ok(), ok, "{banks} banks, {entries} entries");
        }
    }
}
