//! End-to-end tests of the observability subsystem against the real
//! engine: a traced run must emit a schema-valid JSONL stream whose epoch
//! samples tile the evaluation window and whose per-epoch energies sum to
//! the aggregate report energy; decimation and ring bounds must hold, and
//! packet milestones must follow each transaction end to end.

use memnet::core::{PolicyKind, SimConfig};
use memnet::net::TopologyKind;
use memnet::obs::{summary, ObsConfig, PktPoint};
use memnet::policy::Mechanism;
use memnet_simcore::SimDuration;

fn traced_config(obs: ObsConfig, eval_us: u64) -> SimConfig {
    SimConfig::builder()
        .workload("mixD")
        .policy(PolicyKind::NetworkAware)
        .mechanism(Mechanism::VwlRoo)
        .eval_period(SimDuration::from_us(eval_us))
        .seed(9)
        .obs(obs)
        .build()
        .unwrap()
}

fn unique_path(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("memnet-obs-trace-{tag}-{}.jsonl", std::process::id()))
}

#[test]
fn traced_run_emits_schema_valid_jsonl_with_contiguous_epochs() {
    let path = unique_path("valid");
    let mut obs = ObsConfig::off();
    obs.enabled = true;
    obs.trace_path = Some(path.to_string_lossy().into_owned());
    let report = traced_config(obs, 350).run();

    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    // parse_jsonl validates: header schema/version, known event kinds with
    // their required fields, monotone timestamps, contiguous epochs,
    // exactly one footer with consistent counts.
    let s = summary::parse_jsonl(&text).expect("schema-valid trace");
    assert_eq!(s.workload, "mixD");
    assert_eq!(s.policy, "network-aware");

    // The samples tile [0, eval) without gaps; the tail sample covers the
    // partial epoch when eval is not a multiple of the epoch length.
    assert!(!s.samples.is_empty());
    assert_eq!(s.samples[0].start_ps, 0);
    assert_eq!(s.samples.last().unwrap().end_ps, SimDuration::from_us(350).as_ps());

    // The in-report ring and the trace saw the same samples.
    let obs_section = report.obs.expect("obs section retained");
    assert_eq!(obs_section.epochs.len(), s.samples.len());
    assert_eq!(obs_section.events_seen, s.events_seen);
    assert!(s.event_count("wake") > 0, "a managed run must wake links");
    assert!(s.event_count("isp") > 0, "network-aware runs ISP every epoch");
}

#[test]
fn per_epoch_energy_sums_to_the_aggregate_report_energy() {
    let mut obs = ObsConfig::off();
    obs.enabled = true;
    obs.ring_capacity = 1 << 16; // retain every epoch
    let report = traced_config(obs, 350).run();

    let samples = &report.obs.as_ref().expect("obs section").epochs;
    assert!(report.obs.as_ref().unwrap().samples_dropped == 0);
    let report_cats = report.power.energy.categories();
    for (i, _) in memnet::obs::ENERGY_CATEGORIES.iter().enumerate() {
        let summed: f64 = samples.iter().map(|s| s.energy_j[i]).sum();
        let reference = report_cats[i];
        let tol = 1e-9 * reference.abs().max(1e-12);
        assert!(
            (summed - reference).abs() <= tol,
            "category {}: epoch sum {summed:e} J vs report {reference:e} J",
            memnet::obs::ENERGY_CATEGORIES[i]
        );
    }
}

#[test]
fn decimation_and_cap_bound_the_event_stream() {
    let path = unique_path("decim");
    let mut obs = ObsConfig::off();
    obs.trace_path = Some(path.to_string_lossy().into_owned());
    obs.trace_every = 7;
    let report = traced_config(obs.clone(), 300).run();
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let s = summary::parse_jsonl(&text).expect("valid trace");
    assert!(s.events_seen > s.events_written, "every=7 must drop events");
    assert_eq!(s.events_written, s.events_seen.div_ceil(7));
    assert!(!s.truncated);
    // trace_path alone activates the recorder; enabled=false only skips
    // the in-report ring.
    assert!(report.obs.is_some());

    let mut capped = ObsConfig::off();
    capped.trace_path = Some(path.to_string_lossy().into_owned());
    capped.trace_max = 10;
    traced_config(capped, 300).run();
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let s = summary::parse_jsonl(&text).expect("capped trace still valid");
    assert_eq!(s.events_written, 10);
    assert!(s.truncated);
}

#[test]
fn trace_capture_records_complete_transactions() {
    let path = unique_path("packets");
    let obs = ObsConfig {
        trace_path: Some(path.to_string_lossy().into_owned()),
        packets: true,
        ..ObsConfig::off()
    };
    SimConfig::builder()
        .workload("mixE")
        .topology(TopologyKind::TernaryTree)
        .eval_period(SimDuration::from_us(60))
        .obs(obs)
        .build()
        .unwrap()
        .run();
    let text = std::fs::read_to_string(&path).expect("trace file written");
    let _ = std::fs::remove_file(&path);
    let s = summary::parse_jsonl(&text).expect("schema-valid trace");
    assert!(!s.packets.is_empty(), "packet tracing was on but recorded nothing");

    // Pick a retired read and check its milestones.
    let retired =
        s.packets.iter().find(|e| e.point == PktPoint::Retire).expect("some read retired");
    let tx: Vec<_> = s.packets.iter().filter(|e| e.packet == retired.packet).collect();
    assert!(tx.len() >= 4, "a read needs inject/link/vault/retire milestones");
    for w in tx.windows(2) {
        assert!(w[1].t_ps >= w[0].t_ps, "milestones go back in time: {w:?}");
    }
    assert_eq!(tx.first().unwrap().point, PktPoint::Inject);
    assert_eq!(tx.last().unwrap().point, PktPoint::Retire);
    // It must have visited a vault between injection and retirement.
    assert!(tx.iter().any(|e| matches!(e.point, PktPoint::VaultEnqueue(_))));
    assert!(tx.iter().any(|e| matches!(e.point, PktPoint::VaultDone(_))));
}

#[test]
fn ring_capacity_bounds_retained_samples() {
    let mut obs = ObsConfig::off();
    obs.enabled = true;
    obs.ring_capacity = 2;
    let report = traced_config(obs, 350).run();
    let section = report.obs.expect("obs section");
    assert_eq!(section.epochs.len(), 2);
    assert!(section.samples_dropped > 0);
    // The ring keeps the most recent epochs.
    assert_eq!(section.epochs.last().unwrap().end_ps, SimDuration::from_us(350).as_ps());
}
