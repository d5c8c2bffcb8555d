//! CLI-level tests: argument handling, the unknown-workload error path,
//! the `record`/`replay` subcommand round trip and figure rendering,
//! driven through the real `memnet` binary.

use std::path::PathBuf;
use std::process::{Command, Output};

fn memnet(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args(args)
        // Keep CLI behavior independent of ambient configuration.
        .env_remove("MEMNET_AUDIT")
        .output()
        .expect("memnet binary runs")
}

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("memnet-cli-test-{}-{name}", std::process::id()))
}

#[test]
fn unknown_workload_lists_valid_names() {
    let out = memnet(&["--workload", "nope"]);
    assert!(!out.status.success(), "unknown workload must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown workload \"nope\""), "names the culprit: {err}");
    // The error enumerates both catalogs so the user can pick a real one.
    assert!(err.contains("mixB") && err.contains("ua.D"), "catalog names listed: {err}");
    assert!(err.contains("adv.wakestorm"), "stress names listed: {err}");
}

#[test]
fn record_then_replay_reproduces_the_live_report() {
    let trace = tmp("roundtrip.jsonl");
    let trace_s = trace.to_str().unwrap();
    let run_flags = ["--workload", "mixD", "--eval-us", "50", "--seed", "7"];

    let live = memnet(&[&run_flags[..], &["--json"]].concat());
    assert!(live.status.success());
    // FILE may come before or after the run flags: a flag's value is never
    // taken for it.
    for (record, replay) in [
        (
            [&["record", trace_s], &run_flags[..]].concat(),
            vec!["replay", trace_s, "--eval-us", "50"],
        ),
        (
            [&["record"], &run_flags[..], &[trace_s]].concat(),
            vec!["replay", "--eval-us", "50", trace_s],
        ),
    ] {
        let _ = std::fs::remove_file(&trace);
        let rec = memnet(&record);
        assert!(
            rec.status.success(),
            "{record:?} failed: {}",
            String::from_utf8_lossy(&rec.stderr)
        );

        // Replay inherits workload and seed from the trace header.
        let replayed = memnet(&[&replay[..], &["--json"]].concat());
        assert!(
            replayed.status.success(),
            "{replay:?} failed: {}",
            String::from_utf8_lossy(&replayed.stderr)
        );
        assert_eq!(
            String::from_utf8_lossy(&replayed.stdout),
            String::from_utf8_lossy(&live.stdout),
            "replay JSON differs from the live run"
        );
    }
    let _ = std::fs::remove_file(&trace);
}

#[test]
fn replay_rejects_corrupt_traces_and_multichannel() {
    let trace = tmp("corrupt.jsonl");
    std::fs::write(&trace, "{\"schema\":\"bogus\"}\n").unwrap();
    let out = memnet(&["replay", trace.to_str().unwrap()]);
    assert!(!out.status.success(), "corrupt trace must be rejected");
    assert!(String::from_utf8_lossy(&out.stderr).contains("invalid trace"));
    let _ = std::fs::remove_file(&trace);

    let out = memnet(&["replay", "/nonexistent.jsonl", "--channels", "2"]);
    assert!(!out.status.success());
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("single-channel"),
        "multichannel replay must be refused before touching the file"
    );
}

#[test]
fn energy_backend_flag_changes_pricing_but_not_behavior() {
    let base = ["--workload", "mixD", "--eval-us", "50", "--seed", "7", "--json"];
    let analytical = memnet(&[&base[..], &["--energy-backend", "analytical"]].concat());
    let idd = memnet(&[&base[..], &["--energy-backend", "idd"]].concat());
    assert!(analytical.status.success() && idd.status.success());
    let (a, b) =
        (String::from_utf8_lossy(&analytical.stdout), String::from_utf8_lossy(&idd.stdout));
    assert_ne!(a, b, "the two backends must price energy differently");
    // Pricing never feeds back into simulation: the behavioral counters match.
    let field = |s: &str, key: &str| {
        s.split(&format!("\"{key}\":"))
            .nth(1)
            .and_then(|rest| rest.split([',', '}']).next())
            .map(str::to_owned)
            .unwrap_or_else(|| panic!("{key} missing in {s}"))
    };
    for key in ["completed_reads", "accesses_per_us", "violations", "mean_read_latency_ns"] {
        assert_eq!(field(&a, key), field(&b, key), "{key} must not depend on the backend");
    }

    let bogus = memnet(&[&base[..], &["--energy-backend", "spice"]].concat());
    assert!(!bogus.status.success());
    assert!(String::from_utf8_lossy(&bogus.stderr).contains("unknown energy backend"));
}

#[test]
fn diff_models_flags_divergence_and_accepts_calibration() {
    let run = ["--workload", "mixD", "--eval-us", "50", "--seed", "7"];
    // The stock IDD table sits within the default 5% band of the
    // analytical model, so the default run passes...
    let ok = memnet(&[&["diff-models"], &run[..]].concat());
    assert!(ok.status.success(), "default diff failed: {}", String::from_utf8_lossy(&ok.stderr));
    let stdout = String::from_utf8_lossy(&ok.stdout);
    assert!(stdout.contains("link watts (vwl16)") && stdout.contains("energy (total)"));

    // ...an absurdly tight threshold flags the honest 2-3% gaps and exits
    // non-zero...
    let tight = memnet(&[&["diff-models", "--threshold", "0.5"], &run[..]].concat());
    assert!(!tight.status.success(), "0.5% threshold must flag the stock models");
    assert!(String::from_utf8_lossy(&tight.stdout).contains("<-- DIVERGES"));

    // ...and a miscalibrated IDD table (10% hot on the on-state current)
    // is caught at the default threshold.
    let calib = tmp("hot.json");
    let json = r#"{"vdd":1.2,"vddq":1.2,"vlogic":0.9,"idd2n":0.47,"idd0":0.07,
        "idd4r":0.068,"idd4w":0.072,"t_activate":8e-9,"t_burst":8e-9,
        "ilogic_idle":0.84,"q_flit":1.01e-10,"io_on_current":0.5225,
        "io_off_current":0.005,"io_wake_current":0.475}"#
        .replace(['\n', ' '], "");
    std::fs::write(&calib, json).unwrap();
    let hot =
        memnet(&[&["diff-models", "--calibration", calib.to_str().unwrap()], &run[..]].concat());
    assert!(!hot.status.success(), "10% miscalibration must exit non-zero");
    assert!(String::from_utf8_lossy(&hot.stdout).contains("<-- DIVERGES"));
    let _ = std::fs::remove_file(&calib);
}

#[test]
fn calibrate_round_trips_through_diff_models() {
    let csv = tmp("meas.csv");
    std::fs::write(
        &csv,
        "timestamp_s,mode,watts\n\
         0.0,off,0.0059\n1.0,waking,0.586\n2.0,vwl16,0.586\n3.0,dvfs50,0.2052\n",
    )
    .unwrap();
    let out_json = tmp("calib.json");
    let fit = memnet(&["calibrate", csv.to_str().unwrap(), "--out", out_json.to_str().unwrap()]);
    assert!(fit.status.success(), "calibrate failed: {}", String::from_utf8_lossy(&fit.stderr));
    assert!(String::from_utf8_lossy(&fit.stderr).contains("rms residual"));

    // Measurements generated from the analytical watts pull the IDD link
    // currents onto the analytical model, so the calibrated diff passes.
    let diff = memnet(&[
        "diff-models",
        "--calibration",
        out_json.to_str().unwrap(),
        "--workload",
        "mixD",
        "--eval-us",
        "50",
    ]);
    assert!(
        diff.status.success(),
        "calibrated diff failed: {}",
        String::from_utf8_lossy(&diff.stdout)
    );

    // Malformed measurements are rejected with a line-numbered error.
    std::fs::write(&csv, "timestamp_s,mode,watts\n5.0,vwl16,0.5\n1.0,vwl16,0.5\n").unwrap();
    let bad = memnet(&["calibrate", csv.to_str().unwrap()]);
    assert!(!bad.status.success(), "out-of-order timestamps must be rejected");
    assert!(String::from_utf8_lossy(&bad.stderr).contains("line 3"));
    let _ = std::fs::remove_file(&csv);
    let _ = std::fs::remove_file(&out_json);
}

#[test]
fn stress_workloads_run_from_the_cli() {
    let out = memnet(&["--workload", "adv.flip", "--eval-us", "50", "--json"]);
    assert!(out.status.success(), "stress run failed: {}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"workload\":\"adv.flip\""), "report names the workload: {stdout}");

    let listed = memnet(&["--list-workloads"]);
    assert!(listed.status.success());
    let names = String::from_utf8_lossy(&listed.stdout);
    assert!(names.contains("adv.wakestorm"), "--list-workloads shows stress specs: {names}");
}

#[test]
fn run_manifest_reports_the_exit_contract_and_ignores_backend_env() {
    let manifest = tmp("manifest.json");
    std::fs::write(
        &manifest,
        "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
         \"workload\": \"mixD\",\n    \"eval_us\": 50,\n    \"seed\": 7\n  }\n}\n",
    )
    .unwrap();

    // A passing manifest exits 0 with the payload on stdout — even with a
    // contradicting MEMNET_ENERGY_BACKEND in the environment, which
    // manifests must never read (it would poison the shared cache).
    let out = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args(["run-manifest", manifest.to_str().unwrap()])
        .env_remove("MEMNET_AUDIT")
        .env("MEMNET_ENERGY_BACKEND", "idd")
        .output()
        .expect("memnet binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"schema\":\"memnet-result\""), "payload on stdout: {stdout}");
    assert!(
        stdout.contains("energy=analytical"),
        "fingerprint pins the manifest's explicit default, not the env: {stdout}"
    );

    // An assertion failure exits 2; an unexpected limit exits 3.
    std::fs::write(
        &manifest,
        "{\"schema\":\"memnet-manifest\",\"v\":1,\
         \"run\":{\"workload\":\"mixD\",\"eval_us\":50,\"seed\":7},\
         \"assertions\":{\"max_total_energy_j\":0.0}}",
    )
    .unwrap();
    let out = memnet(&["run-manifest", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2), "assertion failure exit code");
    std::fs::write(
        &manifest,
        "{\"schema\":\"memnet-manifest\",\"v\":1,\
         \"run\":{\"workload\":\"mixD\",\"eval_us\":1000,\"seed\":7},\
         \"limits\":{\"max_sim_time_us\":50}}",
    )
    .unwrap();
    let out = memnet(&["run-manifest", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(3), "limit-exceeded exit code");
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn run_manifest_rejections_carry_field_path_and_line() {
    let manifest = tmp("bad-manifest.json");
    std::fs::write(
        &manifest,
        "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
         \"topology\": \"moebius\"\n  }\n}\n",
    )
    .unwrap();
    let out = memnet(&["run-manifest", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "rejected manifests exit 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("run.topology (line 5)"),
        "error names the field and its line in the file: {err}"
    );
    assert!(err.contains("moebius"), "and echoes the bad value: {err}");

    // An evaluation period the picosecond clock cannot hold (unchecked,
    // it wrapped to a 448 ns window) is refused, in a manifest and as a
    // flag.
    std::fs::write(
        &manifest,
        "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
         \"workload\": \"mixD\",\n    \"eval_us\": 18446744073710,\n    \"seed\": 7\n  }\n}\n",
    )
    .unwrap();
    let out = memnet(&["run-manifest", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "rejected manifests exit 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run.eval_us (line 6)"), "names the field and its line: {err}");
    // Flag values the env and manifest paths refuse fail at the CLI too,
    // naming the flag: an overflowing window, a decimation of 0, zero
    // channels and packet tracing with no trace file to hold it.
    for (flags, named) in [
        (&["--eval-us", "18446744073710"][..], "bad eval-us"),
        (&["--trace-every", "0"], "bad trace-every"),
        (&["--channels", "0"], "bad channels"),
        (&["--trace-packets"], "--trace-packets needs a trace file"),
    ] {
        let out = memnet(&[&["--workload", "mixD"], flags].concat());
        assert!(!out.status.success(), "{flags:?} must fail");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(named), "{flags:?} names the flag: {err}");
    }

    // An α between two 0.1% grid points has no cache identity of its own.
    std::fs::write(
        &manifest,
        "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
         \"workload\": \"mixD\",\n    \"alpha_pct\": 0.54,\n    \"seed\": 7\n  }\n}\n",
    )
    .unwrap();
    let out = memnet(&["run-manifest", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "rejected manifests exit 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run.alpha_pct (line 6)"), "names the field and its line: {err}");

    // An α outside (0%, 100%) is refused in percent, the unit both the
    // manifest and the flag take.
    std::fs::write(
        &manifest,
        "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
         \"workload\": \"mixD\",\n    \"alpha_pct\": 150\n  }\n}\n",
    )
    .unwrap();
    let out = memnet(&["run-manifest", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "rejected manifests exit 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("run.alpha_pct (line 6)"), "names the field and its line: {err}");
    assert!(err.contains("got 150%"), "in percent: {err}");
    let out = memnet(&["--workload", "mixD", "--alpha", "100"]);
    assert!(!out.status.success(), "--alpha 100 must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("got 100%"), "in percent: {err}");
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn static_selection_off_vwl_is_refused_before_it_runs() {
    // Static selection sets VWL widths; on a ROO link they are not modes
    // at all, and the run used to print a report anyway.
    let out = memnet(&["--policy", "static", "--mechanism", "roo", "--eval-us", "20"]);
    assert!(!out.status.success(), "static + ROO must fail");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("static selection") && err.contains("ROO"), "names both: {err}");
    assert!(out.stdout.is_empty(), "no report: {}", String::from_utf8_lossy(&out.stdout));

    let manifest = tmp("static-roo-manifest.json");
    std::fs::write(
        &manifest,
        "{\n  \"schema\": \"memnet-manifest\",\n  \"v\": 1,\n  \"run\": {\n    \
         \"policy\": \"static\",\n    \"mechanism\": \"roo\",\n    \"eval_us\": 20\n  }\n}\n",
    )
    .unwrap();
    let out = memnet(&["run-manifest", manifest.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(4), "rejected manifests exit 4");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("run.mechanism (line 6): invalid mechanism"),
        "names the field and its line: {err}"
    );
    let _ = std::fs::remove_file(&manifest);
}

/// `completed_reads` and `violations` of a `--json` report, or of the
/// report in a result payload.
fn reads_and_violations(out: &Output) -> (u64, u64) {
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let doc = serde::json::parse(&String::from_utf8_lossy(&out.stdout)).expect("JSON on stdout");
    let report = doc.get("report").unwrap_or(&doc);
    let count = |key: &str| report.get(key).and_then(|v| v.num::<u64>()).expect(key);
    (count("completed_reads"), count("violations"))
}

#[test]
fn the_cli_and_a_manifest_run_the_same_spec() {
    let manifest = tmp("same-spec.json");
    let run_manifest = |run: &str| {
        std::fs::write(
            &manifest,
            format!("{{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{run}}}"),
        )
        .unwrap();
        memnet(&["run-manifest", manifest.to_str().unwrap()])
    };

    let cli = memnet(&["--workload", "mixD", "--eval-us", "50", "--json"]);
    let payload = run_manifest("{\"workload\":\"mixD\",\"eval_us\":50}");
    assert_eq!(reads_and_violations(&cli), reads_and_violations(&payload));

    // Neither names a seed, so both replays run under the trace's own.
    let trace = tmp("same-spec-trace.jsonl");
    let trace_s = trace.to_str().unwrap();
    let rec = memnet(&["record", trace_s, "--workload", "mixD", "--eval-us", "50", "--seed", "7"]);
    assert!(rec.status.success(), "record failed: {}", String::from_utf8_lossy(&rec.stderr));
    let cli = memnet(&["replay", trace_s, "--eval-us", "50", "--json"]);
    let payload = run_manifest(&format!("{{\"replay\":\"{trace_s}\",\"eval_us\":50}}"));
    assert_eq!(reads_and_violations(&cli), reads_and_violations(&payload));
    let stdout = String::from_utf8_lossy(&payload.stdout);
    assert!(stdout.contains("|seed=7|"), "the replay ran under the trace's seed: {stdout}");
    let _ = std::fs::remove_file(&trace);
    let _ = std::fs::remove_file(&manifest);
}

#[test]
fn figures_render_named_sections_and_reject_unknown_names() {
    let golden = |name: &str| {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden");
        std::fs::read_to_string(format!("{dir}/{name}.txt")).unwrap()
    };
    let out = memnet(&["figures", "tables", "fig04"]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert_eq!(
        String::from_utf8_lossy(&out.stdout),
        format!(
            "==================== Tables I-III ====================\n{}\n\
             ==================== Figure 4 ====================\n{}\n",
            golden("tables"),
            golden("fig04")
        ),
        "two sections, in the order named"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("[figures] 2 figure(s), 0 cell(s): 0 memoized, 0 cache hit(s), 0 simulated"),
        "closed-form figures simulate nothing: {err}"
    );

    let out = memnet(&["figures", "fig05", "fig99"]);
    assert!(!out.status.success(), "an unknown figure must fail");
    assert!(out.stdout.is_empty(), "nothing renders before the names are checked");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown figure \"fig99\""), "names the culprit: {err}");
    assert!(err.contains("tables, fig04, fig05") && err.contains("model_diff"), "{err}");
    assert!(!err.contains("[matrix"), "nothing simulates: {err}");
}

#[test]
fn environment_copies_of_run_flags_change_nothing() {
    let trace = tmp("env-trace.jsonl");
    let _ = std::fs::remove_file(&trace);
    let run = ["--workload", "mixD", "--eval-us", "20", "--json"];
    let plain = memnet(&run);
    assert!(plain.status.success(), "{}", String::from_utf8_lossy(&plain.stderr));
    let with_env = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args(run)
        .env_remove("MEMNET_AUDIT")
        .env("MEMNET_FAULTS", "ber=1e-3")
        .env("MEMNET_ENERGY_BACKEND", "idd")
        .env("MEMNET_TRACE", &trace)
        .env("MEMNET_TRACE_EVERY", "7")
        .env("MEMNET_TRACE_MAX", "3")
        .output()
        .expect("memnet binary runs");
    assert!(with_env.status.success(), "{}", String::from_utf8_lossy(&with_env.stderr));
    assert_eq!(
        String::from_utf8_lossy(&with_env.stdout),
        String::from_utf8_lossy(&plain.stdout),
        "run flags are read from the command line only"
    );
    assert!(!trace.exists(), "MEMNET_TRACE must not open a trace file");
}

#[test]
fn ablations_render_as_a_registry_figure() {
    let out = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args(["figures", "ablations"])
        .env_remove("MEMNET_AUDIT")
        .env("MEMNET_NO_CACHE", "1")
        .env("MEMNET_EVAL_US", "20")
        .output()
        .expect("memnet binary runs");
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8_lossy(&out.stdout);
    let headers: Vec<&str> = text.lines().filter(|l| l.starts_with("== ablation: ")).collect();
    assert_eq!(
        headers,
        [
            "== ablation: ISP iteration cap (paper: 3) ==",
            "== ablation: epoch length (paper: 100 us) ==",
            "== ablation: response-link wakeup chaining (SVI-B) ==",
            "== ablation: leftover-AMS rescue pool (SVI-A3) ==",
        ]
    );
    let rows: Vec<&str> = text.lines().filter(|l| l.contains(" W  saved ")).collect();
    let labels: Vec<&str> = rows.iter().map(|r| r.split_whitespace().next().unwrap()).collect();
    assert_eq!(
        labels,
        [
            "isp_iterations=1",
            "isp_iterations=2",
            "isp_iterations=3",
            "isp_iterations=5",
            "epoch=25us",
            "epoch=50us",
            "epoch=100us",
            "epoch=200us",
            "wake_chaining=true",
            "wake_chaining=false",
            "rescue_pool=true",
            "rescue_pool=false",
        ]
    );
    for row in rows {
        assert!(row.contains("degradation") && row.contains("violations"), "{row}");
    }
    // The baseline and 10 distinct managed configurations.
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("[figures] 1 figure(s), 11 cell(s)"), "{err}");
}
