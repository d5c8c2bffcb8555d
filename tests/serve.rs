//! Integration tests for the manifest batch server: an in-process daemon
//! on an ephemeral port, driven by raw TCP clients speaking the JSONL
//! protocol, plus byte-identity checks against the offline
//! `memnet run-manifest` path through the real binary.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::Command;
use std::thread::JoinHandle;
use std::time::Duration;

use memnet::serve::{Server, ServerConfig, Stats};
use serde::json::{self, Value};

/// Binds a server on an ephemeral port and runs it on its own thread.
/// The returned handle yields the final [`Stats`] after a shutdown op.
fn start_server(cfg: ServerConfig) -> (SocketAddr, JoinHandle<Stats>) {
    let server = Server::bind(ServerConfig { addr: "127.0.0.1:0".to_owned(), ..cfg })
        .expect("ephemeral bind");
    let addr = server.local_addr().expect("bound address");
    let handle = std::thread::spawn(move || server.run().expect("server runs"));
    (addr, handle)
}

/// One protocol client: line-oriented JSON in both directions.
struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to test server");
        // A wedged server should fail the test, not hang it.
        stream.set_read_timeout(Some(Duration::from_secs(120))).unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Client { stream, reader }
    }

    fn send(&mut self, line: &str) {
        self.stream.write_all(line.as_bytes()).unwrap();
        self.stream.write_all(b"\n").unwrap();
    }

    fn submit(&mut self, manifest: &str) {
        // The manifest may be pretty-printed; the wire form is one line.
        let doc = json::parse(manifest).expect("test manifest is valid JSON");
        self.send(&format!("{{\"op\":\"submit\",\"manifest\":{}}}", json::to_string(&doc)));
    }

    fn next_event(&mut self) -> Value {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read event");
        assert!(n > 0, "server closed the connection mid-stream");
        json::parse(&line).unwrap_or_else(|e| panic!("bad event line {line:?}: {}", e.0))
    }

    /// Reads events until a terminal one, returning `(kind, event, seen)`
    /// where `seen` is every event kind in arrival order.
    fn until_terminal(&mut self) -> (String, Value, Vec<String>) {
        let mut seen = Vec::new();
        loop {
            let event = self.next_event();
            let kind = event.get("event").unwrap().as_str().unwrap().to_owned();
            seen.push(kind.clone());
            match kind.as_str() {
                "done" | "failed" | "cancelled" | "rejected" | "error" => {
                    return (kind, event, seen)
                }
                _ => {}
            }
        }
    }

    fn shutdown(&mut self) {
        self.send("{\"op\":\"shutdown\"}");
    }
}

fn exit_code(event: &Value) -> i64 {
    event.get("result").unwrap().get("exit_code").unwrap().num::<i64>().unwrap()
}

fn cache_source(event: &Value) -> String {
    event
        .get("result")
        .unwrap()
        .get("cache")
        .unwrap()
        .get("source")
        .unwrap()
        .as_str()
        .unwrap()
        .to_owned()
}

fn result_text(event: &Value) -> String {
    json::to_string(event.get("result").unwrap())
}

fn flag(event: &Value, key: &str) -> bool {
    matches!(event.get(key).unwrap(), Value::Bool(true))
}

/// The quick reference run used throughout: ~140k events, sub-second.
const QUICK_RUN: &str = "\"run\":{\"workload\":\"mixD\",\"eval_us\":50,\"seed\":7}";

fn quick_manifest(extra: &str) -> String {
    format!("{{\"schema\":\"memnet-manifest\",\"v\":1,{QUICK_RUN}{extra}}}")
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("memnet-serve-test-{}-{name}", std::process::id()))
}

#[test]
fn concurrent_identical_manifests_simulate_exactly_once() {
    // Single worker, no cache: dedup must come from in-flight coalescing
    // alone. The run is long enough (~1.5 s debug) that the concurrent
    // submissions overlap its execution comfortably.
    let (addr, handle) =
        start_server(ServerConfig { workers: 1, cache_dir: None, ..ServerConfig::default() });
    let manifest = "{\"schema\":\"memnet-manifest\",\"v\":1,\
         \"run\":{\"workload\":\"mixD\",\"eval_us\":250,\"seed\":7}}";

    let submitters: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                client.submit(manifest);
                client.until_terminal()
            })
        })
        .collect();
    let outcomes: Vec<_> = submitters.into_iter().map(|t| t.join().unwrap()).collect();

    let mut sources = Vec::new();
    let mut bodies = Vec::new();
    for (kind, event, seen) in &outcomes {
        assert_eq!(kind, "done", "all three submissions succeed: {seen:?}");
        assert_eq!(exit_code(event), 0);
        sources.push(cache_source(event));
        bodies.push(json::to_string(&event.get("result").unwrap().get("report").unwrap().clone()));
        assert!(seen.contains(&"queued".to_owned()), "lifecycle starts with queued: {seen:?}");
        assert!(seen.contains(&"started".to_owned()), "coalesced subs hear started too: {seen:?}");
    }
    sources.sort();
    assert_eq!(sources, ["coalesced", "coalesced", "simulated"], "exactly one real simulation");
    assert_eq!(bodies[0], bodies[1], "coalesced reports are byte-identical");
    assert_eq!(bodies[1], bodies[2], "coalesced reports are byte-identical");

    let mut admin = Client::connect(addr);
    admin.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.submitted, 3);
    assert_eq!(stats.simulated, 1, "identical concurrent manifests simulate once");
    assert_eq!(stats.coalesced, 2);
}

#[test]
fn daemon_result_is_byte_identical_to_run_manifest_and_disk_cache_serves_repeats() {
    let cache_dir = tmp("cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let manifest_path = tmp("byteident.json");
    let manifest = quick_manifest(",\"assertions\":{\"min_completed_reads\":1}");
    std::fs::write(&manifest_path, &manifest).unwrap();

    // Offline reference through the real binary.
    let out_path = tmp("byteident-out.json");
    let out = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args([
            "run-manifest",
            manifest_path.to_str().unwrap(),
            "--out",
            out_path.to_str().unwrap(),
        ])
        .env_remove("MEMNET_AUDIT")
        .output()
        .expect("memnet binary runs");
    assert!(out.status.success(), "run-manifest passes: {}", String::from_utf8_lossy(&out.stderr));
    let offline = std::fs::read_to_string(&out_path).unwrap().trim_end().to_owned();

    let (addr, handle) = start_server(ServerConfig {
        workers: 2,
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    });

    // First submission simulates; its payload must equal the offline one
    // byte for byte.
    let mut client = Client::connect(addr);
    client.submit(&manifest);
    let (kind, event, _) = client.until_terminal();
    assert_eq!(kind, "done");
    assert_eq!(cache_source(&event), "simulated");
    assert_eq!(result_text(&event), offline, "daemon payload == run-manifest payload, bytewise");

    // Second submission is served from the persistent cache: provenance
    // flips, the report stays byte-identical, and nothing re-simulates.
    let mut repeat = Client::connect(addr);
    repeat.submit(&manifest);
    let (kind, event, seen) = repeat.until_terminal();
    assert_eq!(kind, "done");
    assert_eq!(cache_source(&event), "disk");
    assert!(
        event.get("result").unwrap().get("cache").unwrap().get("hit").unwrap().as_str().is_err(),
        "hit is a bool"
    );
    assert!(!seen.contains(&"started".to_owned()), "cache hits never start a worker: {seen:?}");
    let report_offline = json::parse(&offline).unwrap().get("report").unwrap().clone();
    let report_cached = event.get("result").unwrap().get("report").unwrap().clone();
    assert_eq!(json::to_string(&report_offline), json::to_string(&report_cached));

    let mut admin = Client::connect(addr);
    admin.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.simulated, 1, "the repeat came from disk");
    assert_eq!(stats.cache_hits, 1);
    let _ = std::fs::remove_dir_all(&cache_dir);
    let _ = std::fs::remove_file(&manifest_path);
    let _ = std::fs::remove_file(&out_path);
}

#[test]
fn mixed_batch_reports_documented_exit_codes() {
    let (addr, handle) =
        start_server(ServerConfig { workers: 2, cache_dir: None, ..ServerConfig::default() });

    // One passing run, one assertion failure, one unexpected limit, one
    // expected limit.
    let cases: [(&str, String, &str, i64); 4] = [
        ("pass", quick_manifest(""), "done", 0),
        (
            "assert-fail",
            quick_manifest(",\"assertions\":{\"max_total_energy_j\":0.0}"),
            "failed",
            2,
        ),
        (
            "limit",
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"mixD\",\"eval_us\":1000,\"seed\":7},\
             \"limits\":{\"max_sim_time_us\":50}}"
                .to_owned(),
            "failed",
            3,
        ),
        (
            "expected-limit",
            "{\"schema\":\"memnet-manifest\",\"v\":1,\
             \"run\":{\"workload\":\"mixD\",\"eval_us\":1000,\"seed\":7},\
             \"limits\":{\"max_sim_time_us\":50},\
             \"assertions\":{\"expected_exit\":\"limit_exceeded\"}}"
                .to_owned(),
            "done",
            0,
        ),
    ];
    let outcomes: Vec<_> = cases
        .map(|(label, manifest, want_kind, want_code)| {
            std::thread::spawn(move || {
                let mut client = Client::connect(addr);
                client.submit(&manifest);
                let (kind, event, _) = client.until_terminal();
                (label, want_kind, want_code, kind, event)
            })
        })
        .into_iter()
        .map(|t| t.join().unwrap())
        .collect();
    for (label, want_kind, want_code, kind, event) in outcomes {
        assert_eq!(kind, want_kind, "{label}: terminal event kind");
        assert_eq!(exit_code(&event), want_code, "{label}: exit code contract");
        if label == "limit" || label == "expected-limit" {
            let stop = event.get("result").unwrap().get("stop").unwrap().as_str().unwrap();
            assert_eq!(stop, "max-sim-time", "{label}: stop reason surfaces");
        }
    }

    let mut admin = Client::connect(addr);
    admin.shutdown();
    let stats = handle.join().unwrap();
    // The two limit manifests differ only in assertions, so they share a
    // job key and may coalesce; the pass/assert-fail pair likewise. With
    // both pairs racing two workers, anywhere from 2 to 4 simulations is
    // legal — but never more.
    assert!(
        (2..=4).contains(&stats.simulated),
        "at most one simulation per distinct job key: {stats:?}"
    );
    assert_eq!(stats.submitted, 4);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn invalid_manifests_are_rejected_before_any_worker_is_occupied() {
    let (addr, handle) =
        start_server(ServerConfig { workers: 1, cache_dir: None, ..ServerConfig::default() });
    let mut client = Client::connect(addr);

    // (manifest, expected path fragment, expected message fragment)
    let cases = [
        (
            "{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"channels\":2}}".to_owned(),
            "run.channels",
            "single-channel",
        ),
        (
            "{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"workload\":\"nope\"}}".to_owned(),
            "run.workload",
            "unknown workload",
        ),
        (
            "{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"energy_backend\":\"spice\"}}"
                .to_owned(),
            "run.energy_backend",
            "unknown energy backend",
        ),
        (
            "{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"calibration\":\"c.json\"}}"
                .to_owned(),
            "run.calibration",
            "idd",
        ),
        (
            "{\"schema\":\"memnet-manifest\",\"v\":1,\"limits\":{\"max_event\":5}}".to_owned(),
            "limits.max_event",
            "unknown key",
        ),
        (quick_manifest(",\"run_replay\":1"), "run_replay", "unknown key"),
        (
            "{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{\"alpha_pct\":0.54}}".to_owned(),
            "run.alpha_pct",
            "tenths of a percent",
        ),
    ];
    for (manifest, path, msg) in cases {
        client.submit(&manifest);
        let (kind, event, seen) = client.until_terminal();
        assert_eq!(kind, "rejected", "{path}: {seen:?}");
        assert_eq!(seen, ["rejected"], "{path}: rejection is the first and only event");
        let got_path = event.get("path").unwrap().as_str().unwrap();
        assert_eq!(got_path, path, "rejection names the offending field");
        let got_msg = event.get("error").unwrap().as_str().unwrap();
        assert!(got_msg.contains(msg), "{path}: {got_msg:?} should mention {msg:?}");
    }

    client.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.rejected, 7);
    assert_eq!(stats.submitted, 0, "rejections never count as accepted work");
    assert_eq!(stats.simulated, 0, "no worker ever ran");
}

#[test]
fn cancel_works_on_queued_and_running_jobs() {
    // One worker: the first job runs (long), the second stays queued.
    let (addr, handle) =
        start_server(ServerConfig { workers: 1, cache_dir: None, ..ServerConfig::default() });
    let long_run = "{\"schema\":\"memnet-manifest\",\"v\":1,\
                    \"run\":{\"workload\":\"mixD\",\"eval_us\":20000,\"seed\":7}}";

    let mut first = Client::connect(addr);
    first.submit(long_run);
    let queued = first.next_event();
    assert_eq!(queued.get("event").unwrap().as_str().unwrap(), "queued");
    let first_id = queued.get("job").unwrap().num::<u64>().unwrap();
    let started = first.next_event();
    assert_eq!(started.get("event").unwrap().as_str().unwrap(), "started");

    // A different (still long) job queues behind it.
    let mut second = Client::connect(addr);
    second.submit(
        "{\"schema\":\"memnet-manifest\",\"v\":1,\
         \"run\":{\"workload\":\"mixD\",\"eval_us\":20000,\"seed\":8}}",
    );
    let queued = second.next_event();
    assert_eq!(queued.get("event").unwrap().as_str().unwrap(), "queued");
    let second_id = queued.get("job").unwrap().num::<u64>().unwrap();

    // Cancel the queued job: immediate `cancelled`, no result, and it
    // never occupies the worker.
    second.send(&format!("{{\"op\":\"cancel\",\"job\":{second_id}}}"));
    let cancelled = second.next_event();
    assert_eq!(cancelled.get("event").unwrap().as_str().unwrap(), "cancelled");
    assert!(cancelled.get("result").is_err(), "a never-run job has no result");

    // Cancel the running job: the engine stops at the next poll and the
    // payload reports the cancelled contract.
    first.send(&format!("{{\"op\":\"cancel\",\"job\":{first_id}}}"));
    let (kind, event, _) = first.until_terminal();
    assert_eq!(kind, "cancelled");
    assert_eq!(exit_code(&event), 5);
    let result = event.get("result").unwrap();
    assert_eq!(result.get("stop").unwrap().as_str().unwrap(), "cancelled");
    assert_eq!(result.get("exit").unwrap().as_str().unwrap(), "cancelled");

    let mut admin = Client::connect(addr);
    admin.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.simulated, 1, "the queued job never ran");
    assert_eq!(stats.cancelled, 2);
}

#[test]
fn progress_events_stream_while_a_job_runs() {
    let (addr, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: None,
        progress_every: 50_000,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr);
    client.submit(&quick_manifest("")); // ~140k events → at least 2 ticks
    let (kind, _, seen) = client.until_terminal();
    assert_eq!(kind, "done");
    let ticks = seen.iter().filter(|k| *k == "progress").count();
    assert!(ticks >= 2, "expected progress events at 50k-event cadence: {seen:?}");
    let started_at = seen.iter().position(|k| k == "started").unwrap();
    let first_tick = seen.iter().position(|k| k == "progress").unwrap();
    assert!(first_tick > started_at, "progress only after started: {seen:?}");

    client.shutdown();
    handle.join().unwrap();
}

#[test]
fn graceful_shutdown_finishes_inflight_work_and_refuses_new_submissions() {
    let (addr, handle) =
        start_server(ServerConfig { workers: 1, cache_dir: None, ..ServerConfig::default() });

    // A job long enough to still be running when the shutdown lands.
    let mut worker_client = Client::connect(addr);
    worker_client.submit(
        "{\"schema\":\"memnet-manifest\",\"v\":1,\
         \"run\":{\"workload\":\"mixD\",\"eval_us\":500,\"seed\":7}}",
    );
    let queued = worker_client.next_event();
    assert_eq!(queued.get("event").unwrap().as_str().unwrap(), "queued");

    // Connect before the shutdown lands: once the drain starts, the
    // accept loop stops taking new sockets entirely, so only
    // already-connected clients can even attempt a late submission.
    let mut late = Client::connect(addr);

    let mut admin = Client::connect(addr);
    admin.shutdown();
    let reply = admin.next_event();
    assert_eq!(reply.get("event").unwrap().as_str().unwrap(), "shutting-down");

    // New work is refused with a clear error...
    late.submit(&quick_manifest(""));
    let (kind, event, _) = late.until_terminal();
    assert_eq!(kind, "rejected");
    let msg = event.get("error").unwrap().as_str().unwrap();
    assert!(msg.contains("shutting down"), "clear refusal: {msg:?}");

    // ...while the in-flight job still completes and delivers its result.
    let (kind, event, _) = worker_client.until_terminal();
    assert_eq!(kind, "done");
    assert_eq!(exit_code(&event), 0);

    let stats = handle.join().unwrap();
    assert_eq!(stats.simulated, 1);
    assert_eq!(stats.completed, 1);
    assert_eq!(stats.rejected, 1);
}

#[test]
fn sweep_manifest_farms_out_and_merges_byte_identical_to_offline() {
    let offline_out = tmp("sweep-offline.jsonl");
    let daemon_out = tmp("sweep-daemon.jsonl");
    let manifest_path = tmp("sweep-manifest.json");
    let _ = std::fs::remove_file(&offline_out);
    let _ = std::fs::remove_file(&daemon_out);

    // Offline unsharded reference through the real binary: a v2 sweep
    // manifest with shards defaulted to 1.
    let offline_manifest = format!(
        "{{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{{\
         \"figures\":[\"model_diff\"],\"eval_us\":20,\"out\":\"{}\"}}}}",
        offline_out.display()
    );
    std::fs::write(&manifest_path, &offline_manifest).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_memnet"))
        .args(["run-manifest", manifest_path.to_str().unwrap()])
        .env_remove("MEMNET_AUDIT")
        .output()
        .expect("memnet binary runs");
    assert!(
        out.status.success(),
        "offline sweep manifest passes: {}",
        String::from_utf8_lossy(&out.stderr)
    );

    // The daemon farms the same sweep out as three shard jobs across two
    // workers, merges, and writes the out path server-side.
    let (addr, handle) =
        start_server(ServerConfig { workers: 2, cache_dir: None, ..ServerConfig::default() });
    let mut client = Client::connect(addr);
    client.submit(&format!(
        "{{\"schema\":\"memnet-manifest\",\"v\":2,\"sweep\":{{\
         \"figures\":[\"model_diff\"],\"eval_us\":20,\"shards\":3,\"out\":\"{}\"}}}}",
        daemon_out.display()
    ));
    let queued = client.next_event();
    assert_eq!(queued.get("event").unwrap().as_str().unwrap(), "queued");
    assert!(flag(&queued, "sweep"), "queued event flags the sweep");
    assert_eq!(queued.get("shards").unwrap().num::<u64>().unwrap(), 3);

    let (kind, event, seen) = client.until_terminal();
    assert_eq!(kind, "done", "sweep completes: {seen:?}");
    assert_eq!(exit_code(&event), 0);
    assert!(seen.contains(&"started".to_owned()), "farm-out announces started: {seen:?}");
    let ticks = seen.iter().filter(|k| *k == "progress").count();
    assert!(ticks >= 2, "one progress event per retired shard: {seen:?}");
    let result = event.get("result").unwrap();
    assert_eq!(result.get("schema").unwrap().as_str().unwrap(), "memnet-sweep-result");
    assert_eq!(result.get("shards").unwrap().num::<u64>().unwrap(), 3);
    let cells = result.get("cells").unwrap().num::<u64>().unwrap();
    assert_eq!(result.get("requested").unwrap().num::<u64>().unwrap(), cells);

    // The shard→merge output is byte-identical to the unsharded run.
    let offline = std::fs::read(&offline_out).unwrap();
    let daemon = std::fs::read(&daemon_out).unwrap();
    assert!(!offline.is_empty(), "offline sweep wrote its out file");
    assert_eq!(offline, daemon, "daemon merge == offline unsharded sweep, bytewise");

    let mut admin = Client::connect(addr);
    admin.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.submitted, 1);
    assert_eq!(stats.sweeps, 1);
    assert_eq!(stats.shards, 3, "every shard ran as its own queue item");
    assert_eq!(stats.simulated, 0, "shard executions are counted as shards, not runs");
    assert_eq!(stats.completed, 1);
    let _ = std::fs::remove_file(&offline_out);
    let _ = std::fs::remove_file(&daemon_out);
    let _ = std::fs::remove_file(&manifest_path);
}

#[test]
fn identical_sweep_submissions_coalesce_into_one_farm_out() {
    // One worker: the first submission's shards occupy the queue long
    // enough for the identical second submission to coalesce onto them.
    let (addr, handle) =
        start_server(ServerConfig { workers: 1, cache_dir: None, ..ServerConfig::default() });
    let manifest = "{\"schema\":\"memnet-manifest\",\"v\":2,\
         \"sweep\":{\"figures\":[\"model_diff\"],\"eval_us\":100,\"shards\":2}}";

    let mut first = Client::connect(addr);
    first.submit(manifest);
    let queued = first.next_event();
    assert_eq!(queued.get("event").unwrap().as_str().unwrap(), "queued");
    assert!(!flag(&queued, "coalesced"));

    let mut second = Client::connect(addr);
    second.submit(manifest);
    let queued = second.next_event();
    assert_eq!(queued.get("event").unwrap().as_str().unwrap(), "queued");
    assert!(flag(&queued, "coalesced"), "identical sweep coalesces");

    let (kind, event_a, _) = first.until_terminal();
    assert_eq!(kind, "done");
    let (kind, event_b, _) = second.until_terminal();
    assert_eq!(kind, "done");
    assert_eq!(exit_code(&event_a), 0);
    assert_eq!(
        result_text(&event_a),
        result_text(&event_b),
        "coalesced subscribers get the same payload"
    );

    let mut admin = Client::connect(addr);
    admin.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!(stats.submitted, 2);
    assert_eq!(stats.sweeps, 1, "the sweep farmed out once");
    assert_eq!(stats.coalesced, 1);
    assert_eq!(stats.shards, 2, "two shard executions, not four");
    assert_eq!(stats.completed, 2, "both subscribers complete");
}

#[test]
fn status_op_reports_counters() {
    let (addr, handle) =
        start_server(ServerConfig { workers: 1, cache_dir: None, ..ServerConfig::default() });
    let mut client = Client::connect(addr);
    client.submit(&quick_manifest(""));
    let (kind, _, _) = client.until_terminal();
    assert_eq!(kind, "done");

    client.send("{\"op\":\"status\"}");
    let status = client.next_event();
    assert_eq!(status.get("event").unwrap().as_str().unwrap(), "status");
    assert_eq!(status.get("queued").unwrap().num::<u64>().unwrap(), 0);
    assert_eq!(status.get("running").unwrap().num::<u64>().unwrap(), 0);
    let stats = status.get("stats").unwrap();
    assert_eq!(stats.get("submitted").unwrap().num::<u64>().unwrap(), 1);
    assert_eq!(stats.get("simulated").unwrap().num::<u64>().unwrap(), 1);

    client.shutdown();
    handle.join().unwrap();
}

/// Starts a daemon on `cache_dir`, submits `manifest` once, shuts the
/// daemon down and returns the terminal event with the final counters.
fn serve_once(cache_dir: &std::path::Path, manifest: &str) -> (Value, Stats) {
    let (addr, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: Some(cache_dir.to_path_buf()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr);
    client.submit(manifest);
    let (kind, event, seen) = client.until_terminal();
    assert_eq!(kind, "done", "{seen:?}");
    client.shutdown();
    (event, handle.join().unwrap())
}

fn report_text(event: &Value) -> String {
    json::to_string(event.get("result").unwrap().get("report").unwrap())
}

#[test]
fn a_restarted_daemon_serves_the_previous_daemons_results_from_disk() {
    let cache_dir = tmp("restart-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let manifest = quick_manifest("");
    let (first, stats) = serve_once(&cache_dir, &manifest);
    assert_eq!(cache_source(&first), "simulated");
    assert_eq!(stats.simulated, 1);

    // The second daemon indexes the first one's line at start-up and
    // decodes it on the hit.
    let (second, stats) = serve_once(&cache_dir, &manifest);
    assert_eq!(cache_source(&second), "disk");
    assert_eq!(report_text(&second), report_text(&first), "the report is byte-identical");
    assert_eq!((stats.simulated, stats.cache_hits), (0, 1));
    let _ = std::fs::remove_dir_all(&cache_dir);
}

#[test]
fn a_hit_whose_line_no_longer_decodes_is_simulated_instead() {
    let cache_dir = tmp("corrupt-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let manifest = quick_manifest("");
    let (first, _) = serve_once(&cache_dir, &manifest);

    // The daemon indexes the intact line at start-up; the report body is
    // corrupted after that, so the hit it decides on cannot be decoded.
    let (addr, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    });
    for file in std::fs::read_dir(&cache_dir).unwrap() {
        let path = file.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, text.replace("\"report\":{", "\"report\":[")).unwrap();
    }
    let mut client = Client::connect(addr);
    client.submit(&manifest);
    let (kind, event, seen) = client.until_terminal();
    assert_eq!(kind, "done", "{seen:?}");
    assert_eq!(cache_source(&event), "simulated");
    assert!(seen.contains(&"started".to_owned()), "a worker ran it: {seen:?}");
    assert_eq!(report_text(&event), report_text(&first), "and it simulates the same report");
    client.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!((stats.submitted, stats.simulated, stats.cache_hits), (1, 1, 0));
    let _ = std::fs::remove_dir_all(&cache_dir);
}

/// A calibration 10% hot on the link on-state current (the one
/// `memnet diff-models` flags), as a calibration JSON file would hold it.
const HOT_CALIBRATION: &str = "{\"vdd\":1.2,\"vddq\":1.2,\"vlogic\":0.9,\"idd2n\":0.47,\
    \"idd0\":0.07,\"idd4r\":0.068,\"idd4w\":0.072,\"t_activate\":8e-9,\"t_burst\":8e-9,\
    \"ilogic_idle\":0.84,\"q_flit\":1.01e-10,\"io_on_current\":0.5225,\
    \"io_off_current\":0.005,\"io_wake_current\":0.475}";

/// The cache identity of [`replayed_calibrated_manifest`] with
/// [`HOT_CALIBRATION`]: the trace and calibration digests name what runs.
const PINNED_FINGERPRINT: &str = "v11|eval_ps=50000000|seed=7|wl=mixD|topo=TernaryTree|\
    scale=Small|policy=FullPower|mech=FullPower|alpha=50|roo=14|map=Contiguous|faults=|obs=false|\
    src=trace:59f2dc3c74c477cb|calib=calib:fd43d30a7b2f9f71|energy=idd";

/// A manifest that replays a recorded mixD trace (its seed included) and
/// prices it with the calibration at `calibration`.
fn replayed_calibrated_manifest(trace: &std::path::Path, calibration: &std::path::Path) -> String {
    format!(
        "{{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{{\"eval_us\":50,\"replay\":{},\
         \"energy_backend\":\"idd\",\"calibration\":{}}}}}",
        json::to_string(trace.to_str().unwrap()),
        json::to_string(calibration.to_str().unwrap()),
    )
}

fn fingerprint_of(event: &Value) -> String {
    event.get("result").unwrap().get("fingerprint").unwrap().as_str().unwrap().to_owned()
}

#[test]
fn replayed_calibrated_manifests_keep_their_identity_offline_and_at_the_daemon() {
    let trace_path = tmp("pin-trace.jsonl");
    let trace = memnet::core::SimConfig::builder()
        .workload("mixD")
        .eval_period(memnet::simcore::SimDuration::from_us(50))
        .seed(7)
        .build()
        .unwrap()
        .record_trace(1_000_000)
        .unwrap();
    std::fs::write(&trace_path, trace.to_jsonl()).unwrap();
    let hot = tmp("pin-hot.json");
    std::fs::write(&hot, HOT_CALIBRATION).unwrap();
    let manifest = replayed_calibrated_manifest(&trace_path, &hot);

    let offline =
        memnet::serve::run_manifest(&memnet::serve::Manifest::parse(&manifest).unwrap()).unwrap();
    assert_eq!(offline.fingerprint, PINNED_FINGERPRINT, "the replayed, calibrated identity");
    assert_eq!(offline.exit_code, 0);

    let cache_dir = tmp("pin-cache");
    let _ = std::fs::remove_dir_all(&cache_dir);
    let (addr, handle) = start_server(ServerConfig {
        workers: 1,
        cache_dir: Some(cache_dir.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(addr);
    client.submit(&manifest);
    let (kind, first, _) = client.until_terminal();
    assert_eq!(kind, "done");
    assert_eq!(cache_source(&first), "simulated");
    assert_eq!(result_text(&first), json::to_string(&offline), "daemon == offline, bytewise");

    client.submit(&manifest);
    let (kind, repeat, _) = client.until_terminal();
    assert_eq!(kind, "done");
    assert_eq!(cache_source(&repeat), "disk", "the repeat is served from the cache");
    assert_eq!(report_text(&repeat), report_text(&first));

    // Another calibration prices the same trace differently: a new
    // identity, simulated rather than served.
    let stock = tmp("pin-stock.json");
    std::fs::write(&stock, HOT_CALIBRATION.replace("0.5225", "0.475")).unwrap();
    client.submit(&replayed_calibrated_manifest(&trace_path, &stock));
    let (kind, other, _) = client.until_terminal();
    assert_eq!(kind, "done");
    assert_eq!(cache_source(&other), "simulated");
    assert_ne!(fingerprint_of(&other), PINNED_FINGERPRINT);
    assert_ne!(report_text(&other), report_text(&first), "the calibration prices the run");

    client.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!((stats.simulated, stats.cache_hits), (2, 1));
    let _ = std::fs::remove_dir_all(&cache_dir);
    for path in [trace_path, hot, stock] {
        let _ = std::fs::remove_file(path);
    }
}

#[test]
fn a_wall_clock_limit_never_reaches_a_submission_that_did_not_set_it() {
    // One worker, kept busy by a long blocker, so both submissions below
    // are queued side by side before either runs.
    let (addr, handle) =
        start_server(ServerConfig { workers: 1, cache_dir: None, ..ServerConfig::default() });
    let mut blocker = Client::connect(addr);
    blocker.submit(
        "{\"schema\":\"memnet-manifest\",\"v\":1,\
         \"run\":{\"workload\":\"mixD\",\"eval_us\":20000,\"seed\":8}}",
    );
    let queued = blocker.next_event();
    let blocker_id = queued.get("job").unwrap().num::<u64>().unwrap();
    assert_eq!(blocker.next_event().get("event").unwrap().as_str().unwrap(), "started");

    let run = "\"run\":{\"workload\":\"mixD\",\"eval_us\":250,\"seed\":7}";
    let mut limited = Client::connect(addr);
    limited.submit(&format!(
        "{{\"schema\":\"memnet-manifest\",\"v\":1,{run},\"limits\":{{\"wall_time_ms\":1}}}}"
    ));
    assert_eq!(limited.next_event().get("event").unwrap().as_str().unwrap(), "queued");
    let mut unlimited = Client::connect(addr);
    unlimited.submit(&format!("{{\"schema\":\"memnet-manifest\",\"v\":1,{run}}}"));
    let queued = unlimited.next_event();
    assert_eq!(queued.get("event").unwrap().as_str().unwrap(), "queued");
    assert!(!flag(&queued, "coalesced"), "a run without a limit must not share a limited one");

    blocker.send(&format!("{{\"op\":\"cancel\",\"job\":{blocker_id}}}"));
    assert_eq!(blocker.until_terminal().0, "cancelled");
    let (kind, event, _) = limited.until_terminal();
    assert_eq!((kind.as_str(), exit_code(&event)), ("failed", 3), "the 1 ms budget stops it");
    let stop = |event: &Value| {
        event.get("result").unwrap().get("stop").unwrap().as_str().unwrap().to_owned()
    };
    assert_eq!(stop(&event), "wall-time");
    let (kind, event, _) = unlimited.until_terminal();
    assert_eq!((kind.as_str(), exit_code(&event)), ("done", 0));
    assert_eq!(stop(&event), "completed");
    assert_eq!(cache_source(&event), "simulated");

    let mut admin = Client::connect(addr);
    admin.shutdown();
    let stats = handle.join().unwrap();
    assert_eq!((stats.simulated, stats.coalesced), (3, 0));
}
