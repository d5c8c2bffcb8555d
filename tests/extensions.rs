//! Integration tests for the extension features: packet tracing,
//! multi-channel simulation, text reports and the weighted static widths.

use memnet::core::multichannel::run_channels;
use memnet::core::{report_text, PolicyKind, SimConfig};
use memnet::net::{Topology, TopologyKind};
use memnet::obs::ObsConfig;
use memnet::policy::{weighted_width_decisions, Mechanism};
use memnet_simcore::SimDuration;

#[test]
fn tracing_does_not_perturb_the_simulation() {
    let run = |obs: ObsConfig| {
        SimConfig::builder()
            .workload("mixD")
            .eval_period(SimDuration::from_us(50))
            .obs(obs)
            .build()
            .unwrap()
            .run()
    };
    let path = std::env::temp_dir()
        .join(format!("memnet-extensions-packets-{}.jsonl", std::process::id()));
    let with = run(ObsConfig {
        trace_path: Some(path.to_string_lossy().into_owned()),
        packets: true,
        ..ObsConfig::off()
    });
    let without = run(ObsConfig::off());
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    assert!(text.contains(r#""ev":"pkt""#), "packet tracing was on but recorded nothing");
    assert_eq!(with.completed_reads, without.completed_reads);
    assert_eq!(with.injected_accesses, without.injected_accesses);
    assert!((with.power.energy.total() - without.power.energy.total()).abs() < 1e-12);
}

#[test]
fn multichannel_power_exceeds_single_channel() {
    let cfg = SimConfig::builder()
        .workload("mixD")
        .eval_period(SimDuration::from_us(40))
        .build()
        .unwrap();
    let one = run_channels(cfg.clone(), 1, 1);
    let two = run_channels(cfg, 2, 1);
    // Two networks of always-on links burn more total power...
    assert!(two.total_watts > one.total_watts);
    // ...and idle a larger share of it.
    assert!(two.idle_io_fraction >= one.idle_io_fraction - 1e-9);
}

#[test]
fn report_text_renders_managed_runs() {
    let report = SimConfig::builder()
        .workload("mixD")
        .policy(PolicyKind::NetworkAware)
        .mechanism(Mechanism::VwlRoo)
        .eval_period(SimDuration::from_us(60))
        .build()
        .unwrap()
        .run();
    let text = report_text::power_breakdown(&report);
    assert!(text.contains("network-aware"));
    assert!(text.contains("Idle I/O"));
    let line = report_text::summary_line(&report);
    assert!(line.contains("mixD"));
}

#[test]
fn weighted_static_widths_are_usable_for_planning() {
    // Derive per-module weights from a workload CDF at big-network
    // granularity and check the hot modules get wide links.
    let spec = memnet::workload::catalog::by_name("cg.D").unwrap();
    let cdf = memnet::workload::AddressCdf::from_spec(&spec);
    let n = spec.footprint_gb as usize; // 1 GB per module
    let weights: Vec<f64> =
        (0..n).map(|m| cdf.fraction_at((m + 1) as f64) - cdf.fraction_at(m as f64)).collect();
    let topo = Topology::build(TopologyKind::DaisyChain, n);
    let ds = weighted_width_decisions(&topo, &weights, 1.2);
    // The root edge carries all traffic; the last edge carries only the
    // coldest gigabyte.
    let first = ds[0].mode.bw.bandwidth_fraction();
    let last = ds[2 * (n - 1)].mode.bw.bandwidth_fraction();
    assert!(first > last, "root {first} should be wider than tail {last}");
}
