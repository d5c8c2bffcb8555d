//! Metamorphic tests: relations that must hold between *pairs* of runs
//! (or between a run and an analytically transformed sibling), which
//! catch bugs no single-run assertion can see.

use memnet::core::{NetworkScale, PolicyKind, SimConfig};
use memnet::net::link::{
    state_on_active, state_on_idle, N_ACCOUNTING_STATES, STATE_OFF, STATE_WAKING,
};
use memnet::net::mech::{BwMode, VwlWidth};
use memnet::net::TopologyKind;
use memnet::obs::ObsConfig;
use memnet::policy::Mechanism;
use memnet::power::HmcPowerModel;
use memnet_simcore::SimDuration;
use proptest::prelude::*;

fn base(workload: &str) -> memnet::core::SimConfigBuilder {
    SimConfig::builder()
        .workload(workload)
        .topology(TopologyKind::TernaryTree)
        .scale(NetworkScale::Small)
        .seed(5)
}

/// Doubling the evaluation window of a steady-state workload must roughly
/// double the energy: energy is extensive in time. A large deviation means
/// energy is being accrued per-event-count or lost at window boundaries.
#[test]
fn doubling_the_window_doubles_the_energy() {
    for (policy, mech) in [
        (PolicyKind::FullPower, Mechanism::FullPower),
        (PolicyKind::NetworkAware, Mechanism::VwlRoo),
    ] {
        let run = |us: u64| {
            base("mixD")
                .policy(policy)
                .mechanism(mech)
                .eval_period(SimDuration::from_us(us))
                .build()
                .unwrap()
                .run()
        };
        let short = run(100);
        let long = run(200);
        let ratio = long.power.energy.total() / short.power.energy.total();
        assert!(
            (1.6..=2.4).contains(&ratio),
            "{policy:?}/{mech:?}: 2x window changed energy {ratio:.3}x"
        );
        // Completed work is extensive too (looser: warm-up is amortized).
        let work = long.completed_reads as f64 / short.completed_reads as f64;
        assert!(
            (1.4..=2.6).contains(&work),
            "{policy:?}/{mech:?}: 2x window gave {work:.3}x reads"
        );
    }
}

/// A network-aware policy driving the full-power "mechanism" has no modes
/// to switch to, so its physics must be identical to the unmanaged
/// baseline: idle management disabled == no power management.
#[test]
fn fullpower_mechanism_reproduces_unmanaged_baseline() {
    let run = |policy| {
        base("mixB")
            .policy(policy)
            .mechanism(Mechanism::FullPower)
            .eval_period(SimDuration::from_us(150))
            .build()
            .unwrap()
            .run()
    };
    let managed = run(PolicyKind::NetworkAware);
    let baseline = run(PolicyKind::FullPower);
    assert_eq!(managed.completed_reads, baseline.completed_reads);
    assert_eq!(managed.retired_writes, baseline.retired_writes);
    assert_eq!(managed.injected_accesses, baseline.injected_accesses);
    assert_eq!(
        managed.mean_read_latency_ns.to_bits(),
        baseline.mean_read_latency_ns.to_bits(),
        "latencies must be bit-identical"
    );
    assert_eq!(
        managed.power.energy.total().to_bits(),
        baseline.power.energy.total().to_bits(),
        "energy must be bit-identical"
    );
}

/// An explicit `FaultConfig::none()` must be indistinguishable from never
/// mentioning faults at all: the fault-free path consumes no randomness
/// and adds no bookkeeping, so the reports serialize byte-identically.
#[test]
fn explicit_no_faults_is_bit_identical_to_the_baseline() {
    let run = |with_faults: bool| {
        let mut b = base("mixB")
            .policy(PolicyKind::NetworkAware)
            .mechanism(Mechanism::VwlRoo)
            .eval_period(SimDuration::from_us(150));
        if with_faults {
            b = b.faults(memnet::faults::FaultConfig::none());
        }
        b.build().unwrap().run()
    };
    let explicit = run(true);
    let implicit = run(false);
    assert_eq!(
        serde::json::to_string(&explicit),
        serde::json::to_string(&implicit),
        "FaultConfig::none() must not perturb a single bit of the report"
    );
}

/// Satellite: `sweep()` must be order- and thread-count-invariant — the
/// same configurations at `threads = 1` and `threads = 4` serialize to
/// byte-identical JSON, so parallelism can never leak into results.
#[test]
fn sweep_is_deterministic_across_thread_counts() {
    let configs = || {
        vec![
            base("mixD").build().unwrap(),
            base("mixB")
                .policy(PolicyKind::NetworkAware)
                .mechanism(Mechanism::VwlRoo)
                .build()
                .unwrap(),
            base("lu.D")
                .policy(PolicyKind::NetworkUnaware)
                .mechanism(Mechanism::Roo)
                .build()
                .unwrap(),
            base("cg.D")
                .policy(PolicyKind::NetworkAware)
                .mechanism(Mechanism::DvfsRoo)
                .build()
                .unwrap(),
        ]
    };
    let serial = memnet::core::sweep(configs(), 1);
    let parallel = memnet::core::sweep(configs(), 4);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(
            serde::json::to_string(s),
            serde::json::to_string(p),
            "sweep results differ between threads=1 and threads=4 for {}/{}",
            s.workload,
            s.mechanism
        );
    }
}

/// The observability recorder must be a pure observer: an observed run
/// with its `obs` section stripped serializes byte-identically to the
/// obs-off run, whether it samples epochs or traces every packet
/// milestone to a file.
#[test]
fn obs_recorder_never_perturbs_results() {
    let cfg = |obs: ObsConfig| {
        base("mixD")
            .policy(PolicyKind::NetworkAware)
            .mechanism(Mechanism::VwlRoo)
            .eval_period(SimDuration::from_us(150))
            .obs(obs)
            .build()
            .unwrap()
    };
    let off = cfg(ObsConfig::off()).run();
    assert!(off.obs.is_none());
    let trace = std::env::temp_dir()
        .join(format!("memnet-metamorphic-packets-{}.jsonl", std::process::id()));
    let sampled = ObsConfig { enabled: true, ..ObsConfig::off() };
    let packets = ObsConfig {
        trace_path: Some(trace.to_string_lossy().into_owned()),
        packets: true,
        ..ObsConfig::off()
    };
    for obs in [sampled, packets] {
        let mut on = cfg(obs.clone()).run();
        assert!(on.obs.take().is_some_and(|o| !o.epochs.is_empty()));
        assert_eq!(
            serde::json::to_string(&off),
            serde::json::to_string(&on),
            "{obs:?} must not perturb a single bit outside the obs section"
        );
    }
    let text = std::fs::read_to_string(&trace).expect("trace file written");
    let _ = std::fs::remove_file(&trace);
    let s = memnet::obs::summary::parse_jsonl(&text).expect("valid trace");
    assert!(s.event_count("pkt") > 0, "the packet input traced no packets");
}

/// Thread-count invariance must survive obs being on: per-run recorders
/// share no state, so sweeps with time-series sampling enabled serialize
/// byte-identically at `threads = 1` and `threads = 4`.
#[test]
fn obs_sweep_is_deterministic_across_thread_counts() {
    let configs = || {
        ["mixD", "mixB", "lu.D", "cg.D"]
            .map(|w| {
                let mut obs = memnet::obs::ObsConfig::off();
                obs.enabled = true;
                base(w)
                    .policy(PolicyKind::NetworkAware)
                    .mechanism(Mechanism::VwlRoo)
                    .eval_period(SimDuration::from_us(150))
                    .obs(obs)
                    .build()
                    .unwrap()
            })
            .to_vec()
    };
    let serial = memnet::core::sweep(configs(), 1);
    let parallel = memnet::core::sweep(configs(), 4);
    for (s, p) in serial.iter().zip(&parallel) {
        assert!(s.obs.as_ref().is_some_and(|o| !o.epochs.is_empty()), "{}: no samples", s.workload);
        assert_eq!(
            serde::json::to_string(s),
            serde::json::to_string(p),
            "obs-enabled sweep differs between threads=1 and threads=4 for {}",
            s.workload
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// I/O energy must be monotone in link width: for any residency
    /// profile, pricing it at a wider VWL mode can never cost less power
    /// than the next narrower one.
    #[test]
    fn link_power_monotone_in_vwl_width(
        idle_us in (0u64..2_000).prop_filter("some residency", |v| *v > 0),
        active_us in 0u64..2_000,
        off_us in 0u64..2_000,
    ) {
        let model = HmcPowerModel::paper();
        let snapshot = |mode: BwMode| {
            let mut snap = vec![SimDuration::ZERO; N_ACCOUNTING_STATES];
            snap[state_on_idle(mode)] = SimDuration::from_us(idle_us);
            snap[state_on_active(mode)] = SimDuration::from_us(active_us);
            snap[STATE_OFF] = SimDuration::from_us(off_us);
            let io = model.link_energy(&snap).io_total();
            prop_assert!(io.is_finite() && io >= 0.0, "unphysical I/O energy {}", io);
            Ok(io)
        };
        // VwlWidth::ALL is ordered widest → narrowest.
        for pair in VwlWidth::ALL.windows(2) {
            let wide = snapshot(BwMode::Vwl(pair[0]))?;
            let narrow = snapshot(BwMode::Vwl(pair[1]))?;
            prop_assert!(
                wide > narrow,
                "width {:?} priced at {} J but narrower {:?} at {} J",
                pair[0], wide, pair[1], narrow
            );
        }
    }

    /// Waking time is billed at full I/O power regardless of mode, and
    /// powered-off residency at the deep-sleep fraction — so shifting
    /// time from WAKING to OFF must strictly reduce I/O energy.
    #[test]
    fn sleeping_never_costs_more_than_waking(
        mode in prop::sample::select(&VwlWidth::ALL).prop_map(BwMode::Vwl),
        resident_us in 1u64..5_000,
    ) {
        let model = HmcPowerModel::paper();
        let price = |off_us: u64, waking_us: u64| {
            let mut snap = vec![SimDuration::ZERO; N_ACCOUNTING_STATES];
            snap[state_on_idle(mode)] = SimDuration::from_us(100);
            snap[STATE_OFF] = SimDuration::from_us(off_us);
            snap[STATE_WAKING] = SimDuration::from_us(waking_us);
            model.link_energy(&snap).io_total()
        };
        let sleeping = price(resident_us, 0);
        let waking = price(0, resident_us);
        prop_assert!(
            sleeping < waking,
            "{} µs off cost {} J but the same time waking cost {} J",
            resident_us, sleeping, waking
        );
    }
}
