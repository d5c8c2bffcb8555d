//! Pluggable energy backends: the paper's analytical model and an
//! IDD-style current-based model behind one [`EnergyBackend`] trait.
//!
//! The simulator meters *activity* (link time-in-state residencies, DRAM
//! accesses, routed flits); a backend prices that activity into joules.
//! Two independent pricings of identical activity are what make
//! cross-model validation possible: both must satisfy the same
//! double-entry conservation audits, and `memnet diff-models` flags
//! wherever their answers diverge beyond a threshold.

use memnet_net::link::{state_on_active, state_on_idle, state_retrans, STATE_OFF, STATE_WAKING};
use memnet_net::mech::{BwMode, N_BW_MODES};
use memnet_net::HmcRadix;
use memnet_simcore::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::energy::EnergyBreakdown;
use crate::model::HmcPowerModel;

/// Per-module activity counters for one accounting window, as metered by
/// the engine. Reads and writes are split so current-based backends can
/// price a write premium (IDD4W > IDD4R); the analytical backend sums
/// them back into one access count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModuleActivity {
    /// 64 B DRAM read accesses completed in the window.
    pub dram_reads: u64,
    /// 64 B DRAM write accesses completed in the window.
    pub dram_writes: u64,
    /// Flits routed through the module's logic die in the window.
    pub flits_routed: u64,
}

impl ModuleActivity {
    /// Total DRAM accesses (reads + writes).
    pub fn dram_accesses(&self) -> u64 {
        self.dram_reads + self.dram_writes
    }
}

/// An energy model: prices metered activity into [`EnergyBreakdown`]
/// joules.
///
/// Implementations must be pure functions of their parameters — the same
/// residency snapshot and activity counters must always price to the
/// same joules, or runs stop being reproducible and the double-entry
/// audit diffs stop meaning anything.
pub trait EnergyBackend: Send + Sync + std::fmt::Debug {
    /// Short stable identifier (`"analytical"`, `"idd"`), used in reports.
    fn name(&self) -> &'static str;

    /// Power of one unidirectional link running in `mode` (idle or
    /// active — the paper's links burn the same either way), watts.
    fn link_mode_watts(&self, mode: BwMode) -> f64;

    /// Residual power of one unidirectional link in the off state, watts.
    fn link_off_watts(&self) -> f64;

    /// Power of one unidirectional link while waking (full power, no
    /// data), watts.
    fn link_waking_watts(&self) -> f64;

    /// Converts one link's time-in-state residency snapshot into I/O
    /// energy. Index layout follows [`memnet_net::link`]: off, waking,
    /// then (idle, active) per bandwidth mode, then retransmitting per
    /// bandwidth mode. Waking is booked as idle I/O; retransmission is
    /// priced at the mode's active power in its own category.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the accounting layout.
    fn link_energy(&self, residency: &[SimDuration]) -> EnergyBreakdown {
        assert_eq!(residency.len(), 2 + 3 * N_BW_MODES, "unexpected residency snapshot length");
        let mut e = EnergyBreakdown::default();
        e.idle_io += self.link_off_watts() * residency[STATE_OFF].as_secs();
        e.idle_io += self.link_waking_watts() * residency[STATE_WAKING].as_secs();
        for i in 0..N_BW_MODES {
            let mode = BwMode::from_index(i);
            let p = self.link_mode_watts(mode);
            e.idle_io += p * residency[state_on_idle(mode)].as_secs();
            e.active_io += p * residency[state_on_active(mode)].as_secs();
            e.retrans_io += p * residency[state_retrans(mode)].as_secs();
        }
        e
    }

    /// Converts one module's background window and activity counters into
    /// non-I/O energy over `[start, end)`.
    fn module_energy(
        &self,
        radix: HmcRadix,
        start: SimTime,
        end: SimTime,
        activity: &ModuleActivity,
    ) -> EnergyBreakdown;
}

impl EnergyBackend for HmcPowerModel {
    fn name(&self) -> &'static str {
        "analytical"
    }

    fn link_mode_watts(&self, mode: BwMode) -> f64 {
        self.io_watts_per_unilink() * mode.power_fraction()
    }

    fn link_off_watts(&self) -> f64 {
        self.io_watts_per_unilink() * self.link_off_fraction
    }

    fn link_waking_watts(&self) -> f64 {
        self.io_watts_per_unilink()
    }

    // Delegate to the inherent method: pre-trait callers and the trait
    // object must price bit-identically.
    fn link_energy(&self, residency: &[SimDuration]) -> EnergyBreakdown {
        HmcPowerModel::link_energy(self, residency)
    }

    fn module_energy(
        &self,
        radix: HmcRadix,
        start: SimTime,
        end: SimTime,
        activity: &ModuleActivity,
    ) -> EnergyBreakdown {
        HmcPowerModel::module_energy(
            self,
            radix,
            start,
            end,
            activity.dram_accesses(),
            activity.flits_routed,
        )
    }
}

/// IDD-style current-based energy model: joules from rail voltages,
/// datasheet-style currents, and per-event charge, instead of the
/// analytical model's peak-power splits.
///
/// Naming follows JEDEC DRAM datasheets. Burst and activation currents
/// are *increments above standby* (IDD4R − IDD3N etc.), so background
/// and dynamic energy never double-count; with the model not tracking
/// per-bank state, background current is the precharge-standby IDD2N and
/// the IDD3N delta folds into the per-access terms.
///
/// Pricing:
///
/// - link in mode m: `vddq · io_on_current · power_fraction(m)` watts
///   (off/waking use `io_off_current`/`io_wake_current` at full width);
/// - DRAM background: `vdd · idd2n` watts per high-radix stack;
/// - one access: `vdd · idd0 · t_activate + vdd · idd4r · t_burst`
///   joules, plus `vdd · (idd4w − idd4r) · t_burst` write premium;
/// - logic: `vlogic · ilogic_idle` watts background,
///   `vlogic · q_flit` joules per routed flit.
///
/// Low-radix stacks scale background currents by 0.5, mirroring the
/// analytical model's proportional-peak assumption.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IddModel {
    /// DRAM core rail voltage, volts.
    pub vdd: f64,
    /// Link I/O rail voltage, volts.
    pub vddq: f64,
    /// Logic-die rail voltage, volts.
    pub vlogic: f64,
    /// Precharge-standby current per high-radix stack (IDD2N), amps.
    pub idd2n: f64,
    /// Activate/precharge current increment per access (IDD0 − IDD3N),
    /// amps, flowing for `t_activate`.
    pub idd0: f64,
    /// Read-burst current increment (IDD4R − IDD3N), amps, flowing for
    /// `t_burst`.
    pub idd4r: f64,
    /// Write-burst current increment (IDD4W − IDD3N), amps, flowing for
    /// `t_burst`.
    pub idd4w: f64,
    /// Row activate/precharge window per access, seconds.
    pub t_activate: f64,
    /// Data-burst window per 64 B access, seconds.
    pub t_burst: f64,
    /// Logic-die background current per high-radix stack, amps.
    pub ilogic_idle: f64,
    /// Switched charge per flit routed through the logic die, coulombs.
    pub q_flit: f64,
    /// Full-width on-state current of one unidirectional link, amps.
    pub io_on_current: f64,
    /// Off-state residual current of one unidirectional link, amps.
    pub io_off_current: f64,
    /// Waking current of one unidirectional link, amps.
    pub io_wake_current: f64,
}

impl IddModel {
    /// Independent HMC gen2-flavored current table. The values are chosen
    /// from the same datasheet regime as the analytical model but derived
    /// through currents, so the two backends land within a few percent of
    /// each other — close enough that `memnet diff-models` passes at its
    /// default 5 % threshold, far enough that a miscalibrated entry is
    /// visible.
    pub fn hmc_gen2() -> Self {
        IddModel {
            vdd: 1.2,
            vddq: 1.2,
            vlogic: 0.9,
            // 1.2 V × 0.47 A = 0.564 W background vs analytical 0.5762 W.
            idd2n: 0.47,
            // Per access: 1.2 V × (0.070 + 0.068) A × 8 ns = 1.3248 nJ vs
            // analytical 1.296 nJ.
            idd0: 0.070,
            idd4r: 0.068,
            // Writes burn ~3 % more than reads; the analytical model
            // cannot express this asymmetry at all.
            idd4w: 0.072,
            t_activate: 8.0e-9,
            t_burst: 8.0e-9,
            // 0.9 V × 0.84 A = 0.756 W vs analytical 0.737 W.
            ilogic_idle: 0.84,
            // 0.9 V × 0.101 nC = 0.0909 nJ/flit vs analytical 0.0884 nJ.
            q_flit: 0.101e-9,
            // 1.2 V × 0.475 A = 0.570 W/unilink vs analytical 0.58625 W.
            io_on_current: 0.475,
            // 1.2 V × 5 mA = 6.0 mW off-state vs analytical 5.8625 mW.
            io_off_current: 0.005,
            io_wake_current: 0.475,
        }
    }

    /// Derives an IDD table that reprices the given analytical model
    /// **bit-identically** — the metamorphic anchor proving the two
    /// pricing pipelines implement the same arithmetic.
    ///
    /// Exactness argument: every conversion constant is a power of two
    /// (0.5 V rails, 2⁻²⁷ s windows), so each derived current is an
    /// exact binary scaling of an analytical watts/joules figure, and
    /// multiplying it back by the rail voltage and window reproduces the
    /// original value exactly (multiplication by a power of two is exact
    /// in IEEE 754 barring over/underflow, far from reach here). The
    /// per-access energy splits into two exact halves (activate + burst)
    /// whose sum restores it, and `idd4w == idd4r` makes the write
    /// premium exactly zero.
    pub fn from_analytical(m: &HmcPowerModel) -> Self {
        const V: f64 = 0.5; // exact power-of-two rail voltage
        const T: f64 = 7.450580596923828e-9; // 2⁻²⁷ s ≈ 7.45 ns
        let e_acc = m.dram_dyn_energy_per_access();
        IddModel {
            vdd: V,
            vddq: V,
            vlogic: V,
            idd2n: m.dram_idle_watts(HmcRadix::High) * 2.0,
            // Split the per-access energy into exact halves across the
            // activate and burst windows: v·i·t = e/2 each.
            idd0: (e_acc * 0.5) / V / T,
            idd4r: (e_acc * 0.5) / V / T,
            idd4w: (e_acc * 0.5) / V / T,
            t_activate: T,
            t_burst: T,
            ilogic_idle: m.logic_idle_watts(HmcRadix::High) * 2.0,
            q_flit: m.logic_dyn_energy_per_flit() * 2.0,
            io_on_current: m.io_watts_per_unilink() * 2.0,
            io_off_current: (m.io_watts_per_unilink() * m.link_off_fraction) * 2.0,
            io_wake_current: m.io_watts_per_unilink() * 2.0,
        }
    }

    /// Background-current scale for a radix class (low radix = half the
    /// stack, matching the analytical model's proportional-peak split).
    fn radix_scale(radix: HmcRadix) -> f64 {
        match radix {
            HmcRadix::High => 1.0,
            HmcRadix::Low => 0.5,
        }
    }

    /// DRAM background power for a radix class, watts.
    pub fn dram_background_watts(&self, radix: HmcRadix) -> f64 {
        self.vdd * self.idd2n * Self::radix_scale(radix)
    }

    /// Logic background power for a radix class, watts.
    pub fn logic_background_watts(&self, radix: HmcRadix) -> f64 {
        self.vlogic * self.ilogic_idle * Self::radix_scale(radix)
    }

    /// Energy of one read access (activate + read burst), joules.
    pub fn read_access_energy(&self) -> f64 {
        self.vdd * self.idd0 * self.t_activate + self.vdd * self.idd4r * self.t_burst
    }

    /// Extra energy of a write access over a read access, joules.
    pub fn write_premium_energy(&self) -> f64 {
        self.vdd * (self.idd4w - self.idd4r) * self.t_burst
    }

    /// FNV-1a 64 digest of the model's JSON form, as 16 hex digits: the
    /// calibration's identity in cache fingerprints.
    pub fn digest_hex(&self) -> String {
        let digest =
            serde::json::to_string(self).bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            });
        format!("{digest:016x}")
    }
}

impl EnergyBackend for IddModel {
    fn name(&self) -> &'static str {
        "idd"
    }

    fn link_mode_watts(&self, mode: BwMode) -> f64 {
        self.vddq * self.io_on_current * mode.power_fraction()
    }

    fn link_off_watts(&self) -> f64 {
        self.vddq * self.io_off_current
    }

    fn link_waking_watts(&self) -> f64 {
        self.vddq * self.io_wake_current
    }

    fn module_energy(
        &self,
        radix: HmcRadix,
        start: SimTime,
        end: SimTime,
        activity: &ModuleActivity,
    ) -> EnergyBreakdown {
        let window = (end - start).as_secs();
        // Base-plus-premium form: pricing reads and writes separately
        // (`e_r·reads + e_w·writes`) would round differently from the
        // analytical single multiply, breaking the from_analytical
        // bit-identity anchor. `x + 0.0 == x` keeps it exact when the
        // premium is zero.
        EnergyBreakdown {
            idle_io: 0.0,
            active_io: 0.0,
            logic_leak: self.logic_background_watts(radix) * window,
            logic_dyn: self.vlogic * self.q_flit * activity.flits_routed as f64,
            dram_leak: self.dram_background_watts(radix) * window,
            dram_dyn: self.read_access_energy() * activity.dram_accesses() as f64
                + self.write_premium_energy() * activity.dram_writes as f64,
            retrans_io: 0.0,
        }
    }
}

/// Which energy backend a run prices with. Selectable per run via
/// `--energy-backend` (or a manifest's `run.energy_backend`) and
/// recorded in the bench cache key.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EnergyBackendKind {
    /// The paper's analytical peak-split model ([`HmcPowerModel::paper`]).
    #[default]
    Analytical,
    /// The current-based table ([`IddModel::hmc_gen2`]).
    Idd,
}

impl EnergyBackendKind {
    /// Every selectable backend, in display order.
    pub const ALL: [EnergyBackendKind; 2] = [EnergyBackendKind::Analytical, EnergyBackendKind::Idd];

    /// Stable lowercase identifier (cache keys, CLI, reports).
    pub fn label(self) -> &'static str {
        match self {
            EnergyBackendKind::Analytical => "analytical",
            EnergyBackendKind::Idd => "idd",
        }
    }

    /// Parses a backend name (case-insensitive).
    pub fn parse(s: &str) -> Option<EnergyBackendKind> {
        match s.to_ascii_lowercase().as_str() {
            "analytical" => Some(EnergyBackendKind::Analytical),
            "idd" => Some(EnergyBackendKind::Idd),
            _ => None,
        }
    }

    /// Instantiates the canonical backend of this kind.
    pub fn build(self) -> Box<dyn EnergyBackend> {
        match self {
            EnergyBackendKind::Analytical => Box::new(HmcPowerModel::paper()),
            EnergyBackendKind::Idd => Box::new(IddModel::hmc_gen2()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_net::link::N_ACCOUNTING_STATES;

    fn bits(e: &EnergyBreakdown) -> [u64; 7] {
        e.categories().map(f64::to_bits)
    }

    #[test]
    fn analytical_trait_object_prices_like_the_inherent_methods() {
        let m = HmcPowerModel::paper();
        let dynm: &dyn EnergyBackend = &m;
        let mut snap = vec![SimDuration::ZERO; N_ACCOUNTING_STATES];
        for (i, s) in snap.iter_mut().enumerate() {
            *s = SimDuration::from_ns(1 + 37 * i as u64);
        }
        assert_eq!(bits(&dynm.link_energy(&snap)), bits(&HmcPowerModel::link_energy(&m, &snap)));
        let act = ModuleActivity { dram_reads: 300, dram_writes: 200, flits_routed: 777 };
        let end = SimTime::ZERO + SimDuration::from_us(90);
        assert_eq!(
            bits(&dynm.module_energy(HmcRadix::Low, SimTime::ZERO, end, &act)),
            bits(&HmcPowerModel::module_energy(&m, HmcRadix::Low, SimTime::ZERO, end, 500, 777)),
        );
    }

    #[test]
    fn derived_idd_table_matches_analytical_bit_for_bit() {
        let m = HmcPowerModel::paper();
        let idd = IddModel::from_analytical(&m);
        let mut snap = vec![SimDuration::ZERO; N_ACCOUNTING_STATES];
        for (i, s) in snap.iter_mut().enumerate() {
            *s = SimDuration::from_ns(13 + 101 * i as u64);
        }
        assert_eq!(
            bits(&EnergyBackend::link_energy(&idd, &snap)),
            bits(&HmcPowerModel::link_energy(&m, &snap)),
        );
        for radix in [HmcRadix::High, HmcRadix::Low] {
            let act = ModuleActivity { dram_reads: 12345, dram_writes: 678, flits_routed: 99999 };
            let end = SimTime::ZERO + SimDuration::from_us(123);
            assert_eq!(
                bits(&idd.module_energy(radix, SimTime::ZERO, end, &act)),
                bits(&HmcPowerModel::module_energy(&m, radix, SimTime::ZERO, end, 13023, 99999)),
            );
        }
    }

    #[test]
    fn hmc_gen2_lands_within_five_percent_of_analytical() {
        let a = HmcPowerModel::paper();
        let b = IddModel::hmc_gen2();
        let rel = |x: f64, y: f64| (y - x).abs() / x;
        assert!(rel(a.io_watts_per_unilink(), b.vddq * b.io_on_current) < 0.05);
        assert!(rel(EnergyBackend::link_off_watts(&a), EnergyBackend::link_off_watts(&b)) < 0.05);
        assert!(
            rel(a.dram_idle_watts(HmcRadix::High), b.dram_background_watts(HmcRadix::High)) < 0.05
        );
        assert!(
            rel(a.logic_idle_watts(HmcRadix::High), b.logic_background_watts(HmcRadix::High))
                < 0.05
        );
        assert!(rel(a.dram_dyn_energy_per_access(), b.read_access_energy()) < 0.05);
        assert!(rel(a.logic_dyn_energy_per_flit(), b.vlogic * b.q_flit) < 0.05);
    }

    #[test]
    fn write_premium_prices_writes_above_reads() {
        let b = IddModel::hmc_gen2();
        let end = SimTime::ZERO + SimDuration::from_us(1);
        let reads = ModuleActivity { dram_reads: 1000, dram_writes: 0, flits_routed: 0 };
        let writes = ModuleActivity { dram_reads: 0, dram_writes: 1000, flits_routed: 0 };
        let er = b.module_energy(HmcRadix::High, SimTime::ZERO, end, &reads);
        let ew = b.module_energy(HmcRadix::High, SimTime::ZERO, end, &writes);
        assert!(ew.dram_dyn > er.dram_dyn, "IDD4W > IDD4R must make writes dearer");
        let premium = 1000.0 * b.write_premium_energy();
        assert!((ew.dram_dyn - er.dram_dyn - premium).abs() < 1e-15);
    }

    #[test]
    fn kind_parses_labels_and_round_trips() {
        for kind in EnergyBackendKind::ALL {
            assert_eq!(EnergyBackendKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.build().name(), kind.label());
        }
        assert_eq!(EnergyBackendKind::parse("IDD"), Some(EnergyBackendKind::Idd));
        assert_eq!(EnergyBackendKind::parse("spice"), None);
        assert_eq!(EnergyBackendKind::default(), EnergyBackendKind::Analytical);
    }

    #[test]
    fn idd_model_serializes_round_trip() {
        let b = IddModel::hmc_gen2();
        let json = serde::json::to_string(&b);
        let back: IddModel = serde::json::from_str(&json).expect("IddModel JSON round-trips");
        assert_eq!(back, b);
    }

    #[test]
    fn digest_is_stable_and_content_sensitive() {
        let stock = IddModel::hmc_gen2();
        let mut hot = stock.clone();
        hot.io_on_current *= 1.1;
        assert_eq!(stock.digest_hex(), stock.digest_hex());
        assert_ne!(stock.digest_hex(), hot.digest_hex());
        assert_eq!(stock.digest_hex().len(), 16);
    }
}
