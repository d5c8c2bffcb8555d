//! Cross-model differential validation: both energy backends must run
//! clean under the full invariant audit, price identically where the
//! arithmetic says they must (the derived-table anchor), diverge where a
//! miscalibration is injected, and stay thread-count-invariant. Also
//! property-tests the IDD backend's physics (non-negativity, residency
//! monotonicity, window telescoping) and fuzzes the calibration CSV
//! parser and least-squares fitter.

use memnet::core::{report_text, NetworkScale, PolicyKind, SimConfig};
use memnet::net::mech::BwMode;
use memnet::net::{HmcRadix, TopologyKind};
use memnet::policy::Mechanism;
use memnet::power::{
    calib, EnergyBackend, EnergyBackendKind, HmcPowerModel, IddModel, ModuleActivity,
};
use memnet::simcore::AuditLevel;
use memnet_simcore::{SimDuration, SimTime};
use proptest::prelude::*;

fn grid() -> [(PolicyKind, Mechanism); 6] {
    [
        (PolicyKind::FullPower, Mechanism::FullPower),
        (PolicyKind::NetworkUnaware, Mechanism::Roo),
        (PolicyKind::NetworkUnaware, Mechanism::Vwl),
        (PolicyKind::NetworkAware, Mechanism::VwlRoo),
        (PolicyKind::NetworkAware, Mechanism::Dvfs),
        (PolicyKind::NetworkAware, Mechanism::DvfsRoo),
    ]
}

fn base(policy: PolicyKind, mech: Mechanism) -> memnet::core::SimConfigBuilder {
    SimConfig::builder()
        .workload("mixD")
        .topology(TopologyKind::TernaryTree)
        .scale(NetworkScale::Small)
        .policy(policy)
        .mechanism(mech)
        .eval_period(SimDuration::from_us(100))
        .seed(11)
}

/// Satellite: both backends must independently satisfy packet/flit
/// conservation and double-entry I/O energy across the whole
/// policy/mechanism grid — the audit reprices telemetry through whichever
/// backend the engine used, so a clean report is a per-backend proof.
#[test]
fn both_backends_audit_clean_across_the_grid() {
    for (policy, mech) in grid() {
        let mut totals = Vec::new();
        for kind in EnergyBackendKind::ALL {
            let r = base(policy, mech)
                .audit(AuditLevel::Full)
                .energy_backend(kind)
                .build()
                .unwrap()
                .run();
            assert!(r.audit.checks_run > 0, "{policy:?}/{mech:?}/{kind:?} ran zero checks");
            assert!(
                r.audit.is_clean(),
                "{policy:?}/{mech:?}/{kind:?} violated invariants: {:?}",
                r.audit.violations
            );
            totals.push(r.power.energy.total());
        }
        // Sanity: the two pricings are genuinely different models.
        assert_ne!(totals[0].to_bits(), totals[1].to_bits(), "{policy:?}/{mech:?}");
    }
}

/// Satellite: the differential report separates honest model disagreement
/// from miscalibration. The stock IDD table sits inside the 5% band; a
/// 10% hot IDD4R pushes DRAM dynamic energy out of it.
#[test]
fn injected_idd4r_miscalibration_is_caught_by_the_differential_report() {
    let reference = base(PolicyKind::NetworkAware, Mechanism::VwlRoo).build().unwrap().run();
    let run_with = |model: IddModel| {
        base(PolicyKind::NetworkAware, Mechanism::VwlRoo).calibration(model).build().unwrap().run()
    };

    let stock = run_with(IddModel::hmc_gen2());
    let rows = report_text::model_diff_energy_rows(&reference, &stock);
    let (_, flagged) = report_text::model_diff_table("analytical", "idd", &rows, 0.05);
    assert_eq!(flagged, 0, "stock IDD table must sit within 5% of the analytical model: {rows:?}");

    let mut hot = IddModel::hmc_gen2();
    hot.idd4r *= 1.10;
    let rows = report_text::model_diff_energy_rows(&reference, &run_with(hot));
    let (table, flagged) = report_text::model_diff_table("analytical", "idd", &rows, 0.05);
    assert!(flagged >= 1, "a 10% hot IDD4R must be flagged:\n{table}");
    let dram = rows.iter().find(|r| r.label.contains("DRAM Dynamic")).unwrap();
    assert!(
        dram.divergence() > 0.05,
        "the divergence must land in DRAM dynamic energy, got {:.4}",
        dram.divergence()
    );
    assert!(table.contains("<-- DIVERGES"), "the table must mark the offender:\n{table}");
}

/// Satellite: backend selection must not disturb determinism — per
/// backend, sweeps at `threads = 1` and `threads = 4` serialize to
/// byte-identical JSON.
#[test]
fn sweeps_are_thread_invariant_under_either_backend() {
    for kind in EnergyBackendKind::ALL {
        let configs = || {
            grid()
                .into_iter()
                .take(3)
                .map(|(p, m)| base(p, m).energy_backend(kind).build().unwrap())
                .collect::<Vec<_>>()
        };
        let serial = memnet::core::sweep(configs(), 1);
        let parallel = memnet::core::sweep(configs(), 4);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(
                serde::json::to_string(s),
                serde::json::to_string(p),
                "{kind:?}: sweep differs between threads=1 and threads=4 for {}",
                s.mechanism
            );
        }
    }
}

/// The metamorphic anchor at full-run scale: an IDD table derived from
/// the analytical parameters must reproduce the analytical run
/// bit-identically — whole reports, not just unit prices.
#[test]
fn derived_idd_table_reproduces_the_analytical_run_bit_for_bit() {
    let cfg =
        base(PolicyKind::NetworkAware, Mechanism::VwlRoo).eval_period(SimDuration::from_us(50));
    let analytical = cfg.clone().build().unwrap().run();
    let derived = IddModel::from_analytical(&HmcPowerModel::paper());
    let idd = cfg.calibration(derived).build().unwrap().run();
    assert_eq!(
        serde::json::to_string(&analytical),
        serde::json::to_string(&idd),
        "derived IDD table must be indistinguishable from the analytical model"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// IDD link energy is physical: finite, non-negative, and strictly
    /// monotone in residency time (every state burns positive watts).
    #[test]
    fn idd_link_energy_is_physical_and_monotone(
        ns in prop::collection::vec(0u64..5_000_000, 26..27),
        bump_slot in 0usize..26,
    ) {
        let idd = IddModel::hmc_gen2();
        let snap: Vec<SimDuration> = ns.iter().map(|&n| SimDuration::from_ns(n)).collect();
        let e = EnergyBackend::link_energy(&idd, &snap);
        for (cat, v) in ["idle", "active", "retrans"]
            .iter()
            .zip([e.idle_io, e.active_io, e.retrans_io])
        {
            prop_assert!(v.is_finite() && v >= 0.0, "{cat} I/O energy {v} unphysical");
        }
        let mut longer = snap.clone();
        longer[bump_slot] += SimDuration::from_us(1);
        let e2 = EnergyBackend::link_energy(&idd, &longer);
        prop_assert!(
            e2.total() > e.total(),
            "more residency must cost more energy ({} vs {})", e2.total(), e.total()
        );
    }

    /// Link energy telescopes: pricing two residency snapshots separately
    /// and summing equals pricing their per-slot sum (to rounding).
    #[test]
    fn idd_link_energy_telescopes_across_split_windows(
        a in prop::collection::vec(0u64..5_000_000, 26..27),
        b in prop::collection::vec(0u64..5_000_000, 26..27),
    ) {
        let idd = IddModel::hmc_gen2();
        let to_snap = |v: &[u64]| -> Vec<SimDuration> {
            v.iter().map(|&n| SimDuration::from_ns(n)).collect()
        };
        let merged: Vec<SimDuration> =
            a.iter().zip(&b).map(|(&x, &y)| SimDuration::from_ns(x + y)).collect();
        let whole = EnergyBackend::link_energy(&idd, &merged).total();
        let parts = EnergyBackend::link_energy(&idd, &to_snap(&a)).total()
            + EnergyBackend::link_energy(&idd, &to_snap(&b)).total();
        prop_assert!(
            (whole - parts).abs() <= 1e-12 * whole.max(1e-30),
            "split-window pricing drifted: {whole} vs {parts}"
        );
    }

    /// Module energy telescopes across a window split, with the activity
    /// partitioned arbitrarily between the halves.
    #[test]
    fn idd_module_energy_telescopes_across_split_windows(
        t1_ns in 1u64..1_000_000,
        t2_ns in 1u64..1_000_000,
        reads in 0u64..10_000,
        writes in 0u64..10_000,
        flits in 0u64..100_000,
        split in 0.0f64..1.0,
    ) {
        let idd = IddModel::hmc_gen2();
        let mid = SimTime::ZERO + SimDuration::from_ns(t1_ns);
        let end = mid + SimDuration::from_ns(t2_ns);
        let first = ModuleActivity {
            dram_reads: (reads as f64 * split) as u64,
            dram_writes: (writes as f64 * split) as u64,
            flits_routed: (flits as f64 * split) as u64,
        };
        let rest = ModuleActivity {
            dram_reads: reads - first.dram_reads,
            dram_writes: writes - first.dram_writes,
            flits_routed: flits - first.flits_routed,
        };
        let all = ModuleActivity { dram_reads: reads, dram_writes: writes, flits_routed: flits };
        for radix in [HmcRadix::High, HmcRadix::Low] {
            let whole = idd.module_energy(radix, SimTime::ZERO, end, &all).total();
            let parts = idd.module_energy(radix, SimTime::ZERO, mid, &first).total()
                + idd.module_energy(radix, mid, end, &rest).total();
            prop_assert!(
                (whole - parts).abs() <= 1e-12 * whole.max(1e-30),
                "{radix:?}: split-window module pricing drifted: {whole} vs {parts}"
            );
        }
    }

    /// The CSV parser never panics, whatever bytes arrive.
    #[test]
    fn calibration_csv_parser_never_panics(
        bytes in prop::collection::vec(0u8..128, 0..400),
    ) {
        let text: String =
            bytes.iter().map(|&b| if b == 0 { ' ' } else { b as char }).collect();
        let _ = calib::parse_csv(&text);
    }

    /// Noiseless measurements generated from a perturbed model let the
    /// fitter recover the perturbed link currents from the stock base
    /// within the documented 1e-9 relative tolerance.
    #[test]
    fn fitter_round_trip_recovers_perturbed_currents(
        on_scale in 0.5f64..2.0,
        off_scale in 0.5f64..2.0,
        wake_scale in 0.5f64..2.0,
    ) {
        let mut truth = IddModel::hmc_gen2();
        truth.io_on_current *= on_scale;
        truth.io_off_current *= off_scale;
        truth.io_wake_current *= wake_scale;
        let mut csv = String::from("timestamp_s,mode,watts\n");
        let mut t = 0.0f64;
        for mode in BwMode::ALL {
            csv.push_str(&format!("{t},{},{}\n", mode.label(), truth.link_mode_watts(mode)));
            t += 0.5;
        }
        csv.push_str(&format!("{t},off,{}\n", truth.link_off_watts()));
        csv.push_str(&format!("{},waking,{}\n", t + 0.5, truth.link_waking_watts()));
        let rows = calib::parse_csv(&csv).expect("generated CSV parses");
        let (fitted, report) = calib::fit(&IddModel::hmc_gen2(), &rows).expect("fit succeeds");
        let rel = |x: f64, y: f64| (y - x).abs() / x.abs();
        prop_assert!(rel(truth.io_on_current, fitted.io_on_current) < 1e-9);
        prop_assert!(rel(truth.io_off_current, fitted.io_off_current) < 1e-9);
        prop_assert!(rel(truth.io_wake_current, fitted.io_wake_current) < 1e-9);
        prop_assert!(report.rms_watts < 1e-9, "noiseless fit residual {}", report.rms_watts);
    }
}

/// Structured rejection paths: each malformed variant fails with a
/// line-numbered, human-readable error rather than a panic or a silent
/// skip.
#[test]
fn calibration_csv_rejects_each_malformed_variant_with_line_numbers() {
    let cases = [
        ("", "empty file"),
        ("# only comments\n\n", "empty file"),
        ("0.0,off\n", "line 1"),
        ("0.0,off,0.1,extra\n", "line 1"),
        ("zero,off,0.1\n", "bad timestamp"),
        ("nan,off,0.1\n", "not finite"),
        ("0.0,warp9,0.1\n", "unknown mode"),
        ("0.0,off,watts\n", "bad watts"),
        ("0.0,off,-0.1\n", "non-negative"),
        ("0.0,off,inf\n", "finite"),
        ("timestamp_s,mode,watts\n5.0,off,0.1\n1.0,off,0.1\n", "line 3"),
    ];
    for (text, needle) in cases {
        let err = calib::parse_csv(text).expect_err(&format!("{text:?} must be rejected"));
        assert!(
            err.to_lowercase().contains(&needle.to_lowercase()),
            "error for {text:?} should mention {needle:?}, got: {err}"
        );
    }
}
