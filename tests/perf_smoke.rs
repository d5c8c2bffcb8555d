//! Smoke tests for the perf subsystem: the suite runs, its JSON report
//! parses, carries the expected schema, and has a deterministic shape
//! across runs (timings vary; structure must not).

use memnet_perf::{run_suite, BenchReport, BENCH_SCHEMA_VERSION};
use serde::json;

#[test]
fn quick_suite_emits_a_valid_schema_versioned_report() {
    let report = run_suite(true);
    let text = report.to_json();

    // The document is valid JSON with the advertised schema version.
    let value = json::parse(&text).expect("report serializes to valid JSON");
    let version: u32 = value.get("schema_version").and_then(|v| v.num()).expect("schema field");
    assert_eq!(version, BENCH_SCHEMA_VERSION);
    assert!(!value.get("git_sha").and_then(|v| v.as_str()).expect("git_sha").is_empty());

    // And it round-trips through the typed representation.
    let back = BenchReport::from_json(&text).expect("report deserializes");
    assert_eq!(back.schema_version, BENCH_SCHEMA_VERSION);
    assert!(back.quick);
    assert_eq!(back.benches.len(), report.benches.len());
    assert!(back.filename().starts_with("BENCH_"));
    assert!(back.filename().ends_with(".json"));
}

#[test]
fn suite_covers_every_component_and_gates_end_to_end() {
    let report = run_suite(true);
    let names: Vec<&str> = report.benches.iter().map(|b| b.name.as_str()).collect();
    for expected in [
        "event_queue_push_pop",
        "link_energy_pricing",
        "fault_model_draw",
        "policy_epoch_ams_isp",
        "end_to_end_small",
        "end_to_end_obs_off",
        "end_to_end_obs_on",
    ] {
        assert!(names.contains(&expected), "missing bench {expected:?} in {names:?}");
    }
    // Exactly the end-to-end benches carry the gated metric (the obs
    // pair additionally feeds the --obs-gate overhead comparison).
    for b in &report.benches {
        assert_eq!(
            b.events_per_sec.is_some(),
            b.name.starts_with("end_to_end"),
            "events_per_sec on the wrong bench: {}",
            b.name
        );
        assert!(b.iters > 0, "{}: zero ops", b.name);
        assert!(b.wall_ms > 0.0, "{}: zero wall time", b.name);
        assert!(b.ops_per_sec > 0.0, "{}: zero throughput", b.name);
    }
    assert!(report.benches.iter().any(|b| b.events_per_sec.unwrap_or(0.0) > 0.0));
}

#[test]
fn report_shape_is_deterministic_across_runs() {
    let a = run_suite(true);
    let b = run_suite(true);
    assert_eq!(a.schema_version, b.schema_version);
    assert_eq!(a.git_sha, b.git_sha);
    let names = |r: &BenchReport| r.benches.iter().map(|x| x.name.clone()).collect::<Vec<_>>();
    assert_eq!(names(&a), names(&b), "bench set must not vary run to run");
    // The simulated workload is deterministic, so the end-to-end bench
    // processes the identical number of events both times.
    let events = |r: &BenchReport| {
        r.benches.iter().find(|x| x.name == "end_to_end_small").expect("end-to-end bench").iters
    };
    assert_eq!(events(&a), events(&b));
}
