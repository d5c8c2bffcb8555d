//! Golden-report regression harness: figure/table text is snapshotted
//! under `tests/golden/` and every run is diffed against the blessed
//! copy, so any change to simulation results or figure formatting shows
//! up as a readable line diff.
//!
//! To (re)bless the snapshots after an intentional change:
//!
//! ```text
//! MEMNET_BLESS=1 cargo test --test golden_reports
//! ```

use std::fs;
use std::path::PathBuf;

use memnet_bench::{figures, Matrix, Settings};
use memnet_core::{AddressMapping, NetworkScale, PolicyKind, SimConfig};
use memnet_faults::FaultConfig;
use memnet_net::TopologyKind;
use memnet_obs::ObsConfig;
use memnet_policy::Mechanism;
use memnet_power::EnergyBackendKind;
use memnet_simcore::{AuditReport, SimDuration};

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests").join("golden")
}

fn blessing() -> bool {
    std::env::var("MEMNET_BLESS").is_ok_and(|v| matches!(v.as_str(), "1" | "true" | "yes"))
}

/// Renders a unified-style line diff, or `None` when the texts match.
fn line_diff(expected: &str, actual: &str) -> Option<String> {
    if expected == actual {
        return None;
    }
    let exp: Vec<&str> = expected.lines().collect();
    let act: Vec<&str> = actual.lines().collect();
    let mut out = String::new();
    let mut shown = 0usize;
    for i in 0..exp.len().max(act.len()) {
        let e = exp.get(i);
        let a = act.get(i);
        if e == a {
            continue;
        }
        if shown == 12 {
            out.push_str("  ... (more differences elided)\n");
            break;
        }
        shown += 1;
        match (e, a) {
            (Some(e), Some(a)) => {
                out.push_str(&format!("  line {}:\n    -{e}\n    +{a}\n", i + 1));
            }
            (Some(e), None) => {
                out.push_str(&format!("  line {} only in golden:\n    -{e}\n", i + 1))
            }
            (None, Some(a)) => {
                out.push_str(&format!("  line {} only in actual:\n    +{a}\n", i + 1))
            }
            (None, None) => unreachable!(),
        }
    }
    Some(out)
}

/// Compares `actual` against the blessed snapshot `name.txt`, rewriting
/// it instead when `MEMNET_BLESS=1`.
fn check_golden(name: &str, actual: &str) {
    let path = golden_dir().join(format!("{name}.txt"));
    if blessing() {
        fs::create_dir_all(golden_dir()).expect("create tests/golden");
        fs::write(&path, actual).unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
        eprintln!("[golden] blessed {}", path.display());
        return;
    }
    let expected = fs::read_to_string(&path).unwrap_or_else(|_| {
        panic!(
            "missing golden snapshot {}; run `MEMNET_BLESS=1 cargo test --test golden_reports` \
             to create it",
            path.display()
        )
    });
    if let Some(diff) = line_diff(&expected, actual) {
        panic!(
            "{name} diverged from its golden snapshot ({}):\n{diff}\
             If the change is intentional, re-bless with \
             `MEMNET_BLESS=1 cargo test --test golden_reports`.",
            path.display()
        );
    }
}

/// The fixed harness configuration every snapshot was blessed under.
/// Changing any of these invalidates (and requires re-blessing) the
/// snapshots, so they are deliberately independent of the environment.
fn golden_settings() -> Settings {
    Settings { eval_period: SimDuration::from_us(25), threads: 2, seed: 3, ..Settings::default() }
}

#[test]
fn figure_text_matches_golden_snapshots() {
    let settings = golden_settings();
    let mut matrix = Matrix::new();
    // Static tables and workload CDFs: no simulation at all.
    check_golden("tables", &figures::tables());
    check_golden("fig04", &figures::fig04());
    // Simulated figures share one matrix, like `memnet figures` does.
    check_golden("fig05", &figures::fig05(&mut matrix, &settings));
    check_golden("fig06", &figures::fig06(&mut matrix, &settings));
    check_golden("fig09", &figures::fig09(&mut matrix, &settings));
    // Adversarial stress suite: policy behavior under hostile traffic.
    check_golden("stress", &figures::stress(&mut matrix, &settings));
    // Dual-backend energy differential: analytical vs IDD pricing.
    check_golden("model_diff", &figures::model_diff(&mut matrix, &settings));
}

/// FNV-1a 64 over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// Pins the engine's event delivery order on configurations that cover
/// the event queue's delay mix: same-instant steps, link and router
/// steps, DRAM reads, every ROO turn-off check up to 2.048 µs, fault
/// retries, mode changes and epoch ends, and on report shapes beyond the
/// analytical obs-off default: per-epoch obs samples with their link
/// samples, IDD pricing and a route-around after a hard link failure.
/// Each line holds the exact event
/// count, completed reads and a digest of the whole report (its `audit`
/// section cleared, since the audit level follows the environment), so
/// any change in which event runs when shows up here even where the
/// figure goldens' rounded text would not move.
#[test]
fn delivery_order_matches_golden() {
    let base = |workload: &str, topology, policy, mechanism| {
        SimConfig::builder()
            .workload(workload)
            .topology(topology)
            .scale(NetworkScale::Small)
            .policy(policy)
            .mechanism(mechanism)
            .seed(7)
    };
    let configs = [
        (
            "aware-vwl+roo-two-epochs",
            base("mixD", TopologyKind::TernaryTree, PolicyKind::NetworkAware, Mechanism::VwlRoo)
                .eval_period(SimDuration::from_us(210)),
        ),
        (
            "unaware-roo-t2048",
            base("sp.D", TopologyKind::Star, PolicyKind::NetworkUnaware, Mechanism::Roo)
                .eval_period(SimDuration::from_us(40)),
        ),
        (
            "aware-dvfs+roo-mode-changes",
            base("mixE", TopologyKind::DaisyChain, PolicyKind::NetworkAware, Mechanism::DvfsRoo)
                .epoch(SimDuration::from_us(10))
                .eval_period(SimDuration::from_us(40)),
        ),
        (
            "unaware-vwl-ber-burst-retries",
            base("mixB", TopologyKind::TernaryTree, PolicyKind::NetworkUnaware, Mechanism::Vwl)
                .faults(FaultConfig::parse("ber=1e-5,burst=severe").expect("valid fault spec"))
                .epoch(SimDuration::from_us(15))
                .eval_period(SimDuration::from_us(35)),
        ),
        (
            "static-vwl-interleaved",
            base("cg.D", TopologyKind::TernaryTree, PolicyKind::StaticSelection, Mechanism::Vwl)
                .mapping(AddressMapping::PageInterleaved)
                .eval_period(SimDuration::from_us(30)),
        ),
        (
            "aware-vwl-obs-epoch-samples",
            base("mixC", TopologyKind::TernaryTree, PolicyKind::NetworkAware, Mechanism::Vwl)
                .obs(ObsConfig { enabled: true, ..ObsConfig::off() })
                .epoch(SimDuration::from_us(10))
                .eval_period(SimDuration::from_us(35)),
        ),
        (
            "aware-vwl+roo-idd-priced",
            base("mixA", TopologyKind::Star, PolicyKind::NetworkAware, Mechanism::VwlRoo)
                .energy_backend(EnergyBackendKind::Idd)
                .eval_period(SimDuration::from_us(30)),
        ),
        (
            "unaware-vwl-hard-failure",
            base("mixB", TopologyKind::TernaryTree, PolicyKind::NetworkUnaware, Mechanism::Vwl)
                .faults(FaultConfig::parse("fail=2").expect("valid fault spec"))
                .eval_period(SimDuration::from_us(30)),
        ),
    ];
    let mut text = String::new();
    for (name, builder) in configs {
        let mut report = builder.build().expect("golden configurations are valid").run();
        report.audit = AuditReport::default();
        // The extra shapes must really be in the report they digest.
        match name {
            "aware-vwl-obs-epoch-samples" => {
                assert!(report.obs.as_ref().is_some_and(
                    |o| o.epochs.len() > 1 && o.epochs.iter().all(|e| !e.links.is_empty())
                ))
            }
            "unaware-vwl-hard-failure" => assert!(report.faults.rerouted_modules > 0),
            _ => {}
        }
        let digest = fnv1a(serde::json::to_string(&report).as_bytes());
        text.push_str(&format!(
            "{name} events={} reads={} report_fnv1a={digest:016x}\n",
            report.events_processed, report.completed_reads
        ));
    }
    check_golden("delivery_order", &text);
}

#[test]
fn diff_rendering_is_readable() {
    assert_eq!(line_diff("a\nb\n", "a\nb\n"), None);
    let d = line_diff("a\nb\nc\n", "a\nX\nc\n").expect("texts differ");
    assert!(d.contains("line 2:"), "diff names the line: {d}");
    assert!(d.contains("-b") && d.contains("+X"), "diff shows both sides: {d}");
    let d = line_diff("a\n", "a\nextra\n").expect("texts differ");
    assert!(d.contains("only in actual"), "length changes are reported: {d}");
}

/// A perturbed configuration must *fail* the snapshot comparison with a
/// readable diff — this guards the guard: if results stopped feeding the
/// figure text, golden comparisons would silently pass everything.
#[test]
fn perturbed_config_fails_the_snapshot() {
    if blessing() {
        return; // nothing to compare against while re-blessing
    }
    let path = golden_dir().join("fig05.txt");
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden snapshot {}; bless first", path.display()));
    let perturbed = Settings { seed: 4, ..golden_settings() };
    let actual = figures::fig05(&mut Matrix::new(), &perturbed);
    let diff = line_diff(&expected, &actual).expect("a different seed must change the figure text");
    assert!(diff.contains("line "), "diff must name the diverging lines: {diff}");
}

/// Same guard for the model-differential snapshot: its run-energy tables
/// must track simulation results, not just the static mode tables.
#[test]
fn perturbed_config_fails_the_model_diff_snapshot() {
    if blessing() {
        return;
    }
    let path = golden_dir().join("model_diff.txt");
    let expected = fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("missing golden snapshot {}; bless first", path.display()));
    let perturbed = Settings { seed: 4, ..golden_settings() };
    let actual = figures::model_diff(&mut Matrix::new(), &perturbed);
    let diff = line_diff(&expected, &actual).expect("a different seed must change the figure text");
    assert!(diff.contains("line "), "diff must name the diverging lines: {diff}");
}
