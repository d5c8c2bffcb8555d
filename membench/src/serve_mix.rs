//! `serve_mix`: `memnet serve` with one worker per core and an empty
//! private cache, driven closed-loop by one client connection per core.
//! The job sequence mixes fresh manifests (simulated), repeats of
//! completed jobs (served by the disk cache) and twins both clients
//! submit at the same step (coalesced into one simulation). The budget
//! is spent in rounds: each round starts a fresh daemon and runs the
//! same seeded sequence through it.
//!
//! The traffic is chosen, not measured: the repository records no use of
//! the daemon to take a job mix from. The choices ([`WINDOW`],
//! [`plan_step`], [`round_steps`]) and why each was made are in
//! `README.md`, "Chosen traffic".

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memnet_bench::DiskCache;
use memnet_serve::{job, CacheNote, Manifest, ResultPayload};
use memnet_simcore::SplitMix64;
use memnet_workload::catalog;
use serde::json;
use serde::Deserialize;

use crate::host::HostSpeed;
use crate::layers;
use crate::util::{fnv1a64, median, peak_rss_mib, quantile, report_digest, Tracer, FNV_START};
use crate::{keep_going, Ctx, Outcome, Rates, Rep};

/// Jobs each connection keeps outstanding: more than the daemon has
/// workers, so its queue never empties and `jobs_per_s` measures the
/// workers, and enough that queueing, not the client's delayed ACKs,
/// sets a job's latency. Each daemon event line waits about 44 ms for
/// the client's delayed ACK (the daemon writes a line and its newline
/// separately, with Nagle on). At 12 per connection most jobs took
/// exactly two such waits on a fast host, so `job_p50_ms` read 88 ms
/// whatever the throughput (88.0-92.4 ms over five seeds while
/// `jobs_per_s` ranged 227-282): a fixed timer, which follows neither
/// the workers nor the host's speed. At 32 the mean latency is the jobs
/// outstanding over the throughput (Little's law), so `job_p50_ms` and
/// `job_p95_ms` follow `jobs_per_s`; the ACK waits show in
/// `serve.admit_ms_p50`. At 3 outstanding, the fewest above 2 workers,
/// latency sat on multiples of the wait and its median flipped between
/// them from run to run (IQR 20-50% of the median).
const WINDOW: usize = 32;

/// Daemon starts timed for `setup_s` before each round, which adds its
/// own start, so that the median spans the run as the rates' does.
const SPAWNS_PER_ROUND: u64 = 4;

/// Steps each connection runs in one round. A round is a fixed job
/// sequence on a fresh daemon, so every round does the same work and
/// leaves the daemon the same cache to hold. 300 steps on each of two
/// connections make 600 jobs, so each round's p95 has 30 samples beyond
/// it, and the round's last ACK wait, when the workers idle, is a small
/// share of it. The self-test's 80 steps still hold repeats.
fn round_steps(ctx: &Ctx) -> usize {
    if ctx.tiny {
        80
    } else {
        300
    }
}

const TOPOLOGIES: [&str; 4] = ["chain", "ternary", "star", "ddrx"];
const SCALES: [&str; 2] = ["small", "big"];
const POLICY_MECHS: [(&str, &str); 5] =
    [("aware", "vwl+roo"), ("unaware", "vwl"), ("aware", "roo"), ("fp", "fp"), ("unaware", "dvfs")];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Fresh,
    Repeat,
    Twin,
}

/// One step of a client's job sequence.
#[derive(Debug, Clone)]
struct Step {
    kind: Kind,
    manifest: String,
    eval_us: u64,
    /// The earlier step a repeat resubmits.
    target: Option<usize>,
}

fn mix(seed: u64, a: u64, b: u64) -> u64 {
    let mut rng = SplitMix64::new(seed ^ a.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ b.rotate_left(32));
    rng.next_u64()
}

/// The deterministic job sequence of connection `client`: every fifth
/// step (once two windows of steps have run) repeats an earlier job at
/// least two windows back, every fifth is a twin shared by all
/// connections, the rest are fresh. The split is chosen: fresh jobs keep
/// the workers simulating, and one step in five of each other kind gives
/// each connection at least 45 of them per round to check.
fn plan_step(ctx: &Ctx, client: usize, step: usize) -> Step {
    let repeat_ok = step >= 2 * WINDOW + 2;
    let kind = match step % 5 {
        2 if repeat_ok => Kind::Repeat,
        4 => Kind::Twin,
        _ => Kind::Fresh,
    };
    if kind == Kind::Repeat {
        let mut rng = SplitMix64::new(mix(ctx.seed, client as u64 + 1000, step as u64));
        let mut target = rng.next_below((step - 2 * WINDOW + 1) as u64) as usize;
        while plan_kind(target) == Kind::Repeat {
            target -= 1;
        }
        return Step { kind, target: Some(target), ..plan_step(ctx, client, target) };
    }
    let stream = if kind == Kind::Twin { u64::MAX } else { client as u64 };
    let mut rng = SplitMix64::new(mix(ctx.seed, stream, step as u64));
    // Steps walk the workload × topology × scale × policy/mechanism
    // combinations with stride 97 from a seeded start; a round's steps
    // cycle through each of the four nearly evenly, so every seed offers
    // the daemon about the same mix of job sizes.
    let names = catalog::names();
    let combos = names.len() * TOPOLOGIES.len() * SCALES.len() * POLICY_MECHS.len();
    let offset = mix(ctx.seed, stream, u64::MAX) as usize % combos;
    let mut c = (step * 97 + offset) % combos;
    let mut digit = |n: usize| {
        let d = c % n;
        c /= n;
        d
    };
    let workload = names[digit(names.len())];
    let topology = TOPOLOGIES[digit(TOPOLOGIES.len())];
    let scale = SCALES[digit(SCALES.len())];
    let (policy, mechanism) = POLICY_MECHS[digit(POLICY_MECHS.len())];
    // Chosen so a 600-job round takes 2-4 s and a 20 s run holds
    // several rounds to take medians over.
    let eval_us = if ctx.tiny { 5 } else { 20 };
    let seed = rng.next_u64() >> 1;
    let audit = if ctx.trace { "cheap" } else { "off" };
    let manifest = format!(
        "{{\"schema\":\"memnet-manifest\",\"v\":1,\"run\":{{\"workload\":\"{workload}\",\
         \"topology\":\"{topology}\",\"scale\":\"{scale}\",\"policy\":\"{policy}\",\
         \"mechanism\":\"{mechanism}\",\"eval_us\":{eval_us},\"seed\":{seed},\"audit\":\"{audit}\"}}}}"
    );
    Step { kind, manifest, eval_us, target: None }
}

fn plan_kind(step: usize) -> Kind {
    match step % 5 {
        2 if step >= 2 * WINDOW + 2 => Kind::Repeat,
        4 => Kind::Twin,
        _ => Kind::Fresh,
    }
}

/// A barrier for the twin steps that a connection which stops (done or
/// failed) breaks, so its partner never waits forever.
struct Gate {
    parties: usize,
    state: Mutex<GateState>,
    cv: Condvar,
}

#[derive(Default)]
struct GateState {
    waiting: usize,
    generation: u64,
    broken: bool,
}

const GATE_LOCK: &str = "no client panics while holding the twin gate";

impl Gate {
    fn new(parties: usize) -> Gate {
        Gate { parties, state: Mutex::default(), cv: Condvar::new() }
    }

    /// Waits for every party; false once the gate is broken.
    fn wait(&self) -> bool {
        let mut g = self.state.lock().expect(GATE_LOCK);
        if g.broken {
            return false;
        }
        let generation = g.generation;
        g.waiting += 1;
        if g.waiting == self.parties {
            g.waiting = 0;
            g.generation += 1;
            self.cv.notify_all();
            return true;
        }
        while g.generation == generation && !g.broken {
            g = self.cv.wait(g).expect(GATE_LOCK);
        }
        g.generation != generation
    }

    fn stop(&self) {
        self.state.lock().expect(GATE_LOCK).broken = true;
        self.cv.notify_all();
    }
}

/// One submitted job as its connection saw it.
#[derive(Debug, Clone)]
struct Job {
    client: usize,
    step: usize,
    kind: Kind,
    eval_us: u64,
    manifest: String,
    submit: Instant,
    queued: Option<Instant>,
    coalesced: bool,
    cached: bool,
    end: Option<Instant>,
    /// Terminal event name (`done`, `failed`, `rejected`, ...).
    event: String,
    /// The terminal event line.
    line: String,
}

fn event_name(line: &str) -> &str {
    line.strip_prefix("{\"event\":\"").and_then(|rest| rest.split('"').next()).unwrap_or("")
}

fn job_id(line: &str) -> Option<u64> {
    let rest = &line[line.find("\"job\":")? + 6..];
    rest[..rest.find(|c: char| !c.is_ascii_digit())?].parse().ok()
}

/// One closed-loop connection: runs `steps` steps of its job sequence
/// with [`WINDOW`] jobs outstanding, then drains. Breaks the twin gate
/// when it stops, so its partner never waits for it.
fn client(ctx: &Ctx, addr: &str, me: usize, gate: &Gate, steps: usize) -> Result<Vec<Job>, String> {
    let jobs = drive(ctx, addr, me, gate, steps);
    gate.stop();
    jobs
}

fn drive(ctx: &Ctx, addr: &str, me: usize, gate: &Gate, steps: usize) -> Result<Vec<Job>, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut jobs: Vec<Job> = Vec::new();
    let mut awaiting_queued: VecDeque<usize> = VecDeque::new();
    let mut by_id: HashMap<u64, usize> = HashMap::new();
    let mut outstanding = 0usize;
    let mut line = String::new();

    // Reads one event line and files it under its job.
    let mut read_one = |jobs: &mut Vec<Job>,
                        awaiting: &mut VecDeque<usize>,
                        outstanding: &mut usize|
     -> Result<(), String> {
        line.clear();
        if reader.read_line(&mut line).map_err(|e| format!("reading from the daemon: {e}"))? == 0 {
            return Err("the daemon closed the connection".into());
        }
        let now = Instant::now();
        let text = line.trim_end();
        let name = event_name(text);
        match name {
            "queued" => {
                let idx = awaiting.pop_front().ok_or("queued event without a submission")?;
                let job = &mut jobs[idx];
                job.queued = Some(now);
                job.coalesced = text.contains("\"coalesced\":true");
                job.cached = text.contains("\"cached\":true");
                by_id.insert(job_id(text).ok_or("queued event without a job id")?, idx);
            }
            "rejected" | "error" => {
                let idx = awaiting.pop_front().ok_or("rejection without a submission")?;
                let job = &mut jobs[idx];
                (job.end, job.event, job.line) = (Some(now), name.to_owned(), text.to_owned());
                *outstanding -= 1;
            }
            "done" | "failed" | "cancelled" => {
                let idx = *job_id(text)
                    .and_then(|id| by_id.get(&id))
                    .ok_or("result for an unknown job")?;
                let job = &mut jobs[idx];
                (job.end, job.event, job.line) = (Some(now), name.to_owned(), text.to_owned());
                *outstanding -= 1;
            }
            _ => {}
        }
        Ok(())
    };

    let mut step = 0usize;
    loop {
        while outstanding < WINDOW && step < steps {
            let s = plan_step(ctx, me, step);
            if let Some(target) = s.target {
                while jobs[target].end.is_none() {
                    read_one(&mut jobs, &mut awaiting_queued, &mut outstanding)?;
                }
            }
            if s.kind == Kind::Twin && !gate.wait() {
                return Err("the other connection stopped before a twin step".into());
            }
            let request = format!("{{\"op\":\"submit\",\"manifest\":{}}}\n", s.manifest);
            jobs.push(Job {
                client: me,
                step,
                kind: s.kind,
                eval_us: s.eval_us,
                manifest: s.manifest,
                submit: Instant::now(),
                queued: None,
                coalesced: false,
                cached: false,
                end: None,
                event: String::new(),
                line: String::new(),
            });
            writer.write_all(request.as_bytes()).map_err(|e| format!("submitting: {e}"))?;
            awaiting_queued.push_back(jobs.len() - 1);
            outstanding += 1;
            step += 1;
        }
        if outstanding == 0 {
            break;
        }
        read_one(&mut jobs, &mut awaiting_queued, &mut outstanding)?;
    }
    Ok(jobs)
}

/// A running `memnet serve` process.
struct Daemon {
    child: Child,
    addr: String,
    stderr: Option<JoinHandle<String>>,
}

impl Daemon {
    /// Starts the daemon on an ephemeral port and waits until it listens;
    /// returns it with the seconds that took.
    fn spawn(memnet: &Path, cache: &Path, workers: usize) -> Result<(Daemon, f64), String> {
        let start = Instant::now();
        let mut child = Command::new(memnet)
            .args([
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &workers.to_string(),
                "--cache-dir",
            ])
            .arg(cache)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("starting {}: {e}", memnet.display()))?;
        let mut reader = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut daemon = Daemon { child, addr: String::new(), stderr: None };
        let mut line = String::new();
        loop {
            line.clear();
            if reader.read_line(&mut line).unwrap_or(0) == 0 {
                return Err("the daemon exited before listening".into());
            }
            if let Some(rest) = line.split("listening on ").nth(1) {
                daemon.addr = rest.split_whitespace().next().unwrap_or("").to_owned();
                break;
            }
        }
        let secs = start.elapsed().as_secs_f64();
        daemon.stderr = Some(std::thread::spawn(move || {
            let mut rest = String::new();
            let _ = reader.read_to_string(&mut rest);
            rest
        }));
        Ok((daemon, secs))
    }

    /// Sends one request on a fresh connection and returns the first
    /// reply line.
    fn request(&self, op: &str) -> Result<String, String> {
        let mut stream = TcpStream::connect(&self.addr).map_err(|e| format!("connecting: {e}"))?;
        stream.write_all(format!("{{\"op\":\"{op}\"}}\n").as_bytes()).map_err(|e| e.to_string())?;
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).map_err(|e| e.to_string())?;
        Ok(line)
    }

    /// Drains the daemon with a `shutdown` request and waits for it to
    /// exit; true if it exited cleanly.
    fn shutdown(mut self) -> bool {
        let asked = self.request("shutdown").is_ok();
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) => {
                    if let Some(h) = self.stderr.take() {
                        let _ = h.join();
                    }
                    return asked && status.success();
                }
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => return false,
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

fn ms(a: Instant, b: Instant) -> f64 {
    b.saturating_duration_since(a).as_secs_f64() * 1e3
}

/// The daemon's `status` counters.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonStats {
    submitted: f64,
    rejected: f64,
    coalesced: f64,
    cache_hits: f64,
}

impl DaemonStats {
    fn parse(line: &str) -> Result<DaemonStats, String> {
        let v = json::parse(line).map_err(|e| format!("bad status reply {line:?}: {e:?}"))?;
        let get = |k: &str| {
            v.get("stats")
                .and_then(|s| s.get(k))
                .and_then(|n| n.num::<f64>())
                .map_err(|e| format!("status reply without {k}: {e:?}"))
        };
        Ok(DaemonStats {
            submitted: get("submitted")?,
            rejected: get("rejected")?,
            coalesced: get("coalesced")?,
            cache_hits: get("cache_hits")?,
        })
    }
}

/// One round: the seeded job sequence through one fresh daemon.
struct Round {
    jobs: Vec<Job>,
    /// Each job's result payload, parsed after the round.
    payloads: Vec<Option<ResultPayload>>,
    /// First submission to the last terminal event.
    secs: f64,
    stats: DaemonStats,
    /// The daemon's own peak resident set.
    peak_mib: Option<f64>,
    /// Daemon start until it listened.
    spawn_secs: f64,
    /// Whether the daemon drained and exited 0 on `shutdown`.
    clean_exit: bool,
}

impl Round {
    fn run(ctx: &Ctx, memnet: &Path) -> Result<Round, String> {
        let (daemon, spawn_secs) =
            Daemon::spawn(memnet, &ctx.fresh_dir("serve-cache"), ctx.threads)?;
        let gate = Gate::new(ctx.threads);
        let steps = round_steps(ctx);
        let start = Instant::now();
        let results: Vec<Result<Vec<Job>, String>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..ctx.threads)
                .map(|me| {
                    let (gate, addr) = (&gate, daemon.addr.as_str());
                    s.spawn(move || client(ctx, addr, me, gate, steps))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap_or_else(|_| Err("a client panicked".into())))
                .collect()
        });
        let mut jobs = Vec::new();
        for r in results {
            jobs.extend(r?);
        }
        let end = jobs.iter().filter_map(|j| j.end).max().unwrap_or(start);
        let stats = DaemonStats::parse(&daemon.request("status")?)?;
        let peak_mib = peak_rss_mib(&daemon.child.id().to_string());
        let clean_exit = daemon.shutdown();
        let payloads = jobs
            .iter()
            .map(|j| {
                let v = json::parse(&j.line).ok()?;
                ResultPayload::deserialize(v.get("result").ok()?).ok()
            })
            .collect();
        let secs = end.duration_since(start).as_secs_f64();
        Ok(Round { jobs, payloads, secs, stats, peak_mib, spawn_secs, clean_exit })
    }

    fn report_digests(&self) -> Vec<Option<u64>> {
        self.payloads.iter().map(|p| p.as_ref().map(|p| report_digest(&p.report))).collect()
    }

    /// Digest of every job's report in (connection, step) order.
    fn digest(&self) -> u64 {
        let digests = self.report_digests();
        let mut order: Vec<usize> = (0..self.jobs.len()).collect();
        order.sort_by_key(|&i| (self.jobs[i].client, self.jobs[i].step));
        order.iter().fold(FNV_START, |h, &i| fnv1a64(h, &digests[i].unwrap_or(0).to_le_bytes()))
    }

    fn done(&self) -> impl Iterator<Item = &Job> + '_ {
        self.jobs.iter().filter(|j| j.event == "done")
    }

    /// Submit-to-terminal latencies in ms.
    fn latency_ms(&self) -> Vec<f64> {
        self.jobs.iter().filter_map(|j| Some(ms(j.submit, j.end?))).collect()
    }

    /// Every job passed, each kind took its planned path, and the daemon
    /// counted every submission and exited cleanly.
    fn check(&self, out: &mut Outcome) {
        out.ops(self.jobs.len() as u64);
        for (job, payload) in self.jobs.iter().zip(&self.payloads) {
            let ok = job.event == "done" && payload.as_ref().is_some_and(|p| p.exit_code == 0);
            out.check(ok, || {
                format!("job {}:{} ended {:?}: {:.200}", job.client, job.step, job.event, job.line)
            });
        }
        let repeats_cached = self.jobs.iter().filter(|j| j.kind == Kind::Repeat).all(|j| j.cached);
        out.check(repeats_cached, || "a repeated job was not served from the cache".into());
        let fresh_simulated =
            self.jobs.iter().filter(|j| j.kind == Kind::Fresh).all(|j| !j.cached && !j.coalesced);
        out.check(fresh_simulated, || "a fresh job was not simulated".into());
        // Each twin step runs one simulation: one connection's job is
        // simulated, the others coalesce onto it (or, arriving after it
        // finished, hit the cache).
        let mut twins: BTreeMap<usize, usize> = BTreeMap::new();
        for j in self.jobs.iter().filter(|j| j.kind == Kind::Twin) {
            *twins.entry(j.step).or_default() += usize::from(!j.cached && !j.coalesced);
        }
        let bad = twins.values().filter(|&&simulated| simulated != 1).count();
        out.check(bad == 0, || format!("{bad} twin step(s) did not run exactly one simulation"));
        let stats = self.stats;
        out.check(stats.submitted as usize == self.jobs.len() && stats.rejected == 0.0, || {
            format!(
                "the daemon counted {} submissions for {} jobs",
                stats.submitted,
                self.jobs.len()
            )
        });
        out.check(self.clean_exit, || "the daemon did not shut down cleanly".into());
    }

    /// The first job of each kind matches an in-process run of its
    /// manifest.
    fn check_in_process(&self, out: &mut Outcome) {
        let digests = self.report_digests();
        for kind in [Kind::Fresh, Kind::Repeat, Kind::Twin] {
            let Some(idx) =
                (0..self.jobs.len()).find(|&i| self.jobs[i].kind == kind && digests[i].is_some())
            else {
                continue;
            };
            let local = Manifest::parse(&self.jobs[idx].manifest)
                .map_err(|e| e.to_string())
                .and_then(|m| memnet_serve::run_manifest(&m).map_err(|e| e.to_string()));
            out.ops(1);
            out.check(
                local.as_ref().is_ok_and(|p| Some(report_digest(&p.report)) == digests[idx]),
                || {
                    format!(
                        "a {kind:?} job's report differs from an in-process run of its manifest"
                    )
                },
            );
        }
    }
}

/// Runs the workload.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let memnet = ctx.memnet.as_deref().ok_or("serve_mix needs --memnet BIN (the memnet binary)")?;
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(ctx.trace);
    let mut host = HostSpeed::new(ctx.threads, ctx.tiny);

    // Rounds until the budget is spent, each after its set-ups (daemon
    // start until it listens); traced runs interleave traced and untraced
    // rounds.
    let mut setup = Vec::new();
    let mut reps: Vec<Rep> = Vec::new();
    let (mut p50, mut p95, mut peaks) = (Vec::new(), Vec::new(), Vec::new());
    let mut traced_rounds = Vec::new();
    let start = Instant::now();
    while keep_going(start, ctx, reps.len(), if ctx.trace { 4 } else { 3 }) {
        let traced = ctx.trace && reps.len() % 2 == 1;
        for _ in 0..SPAWNS_PER_ROUND {
            let t0 = Instant::now();
            let (daemon, secs) = Daemon::spawn(memnet, &ctx.fresh_dir("serve-cache"), ctx.threads)?;
            tracer.record("serve.spawn", reps.len() as u64, t0, Instant::now());
            setup.push(secs);
            out.check(daemon.shutdown(), || "a set-up daemon did not shut down cleanly".into());
        }
        let round = Round::run(ctx, memnet)?;
        host.sample();
        setup.push(round.spawn_secs);
        round.check(&mut out);
        let digest = round.digest();
        if reps.is_empty() {
            out.digest = digest;
            round.check_in_process(&mut out);
            let latency = round.latency_ms();
            let p95 = quantile(&latency, 0.95);
            out.note("jobs_per_round", round.jobs.len());
            out.note("samples_beyond_p95", latency.iter().filter(|&&l| l > p95).count());
            out.note("simulated", round.jobs.iter().filter(|j| !j.cached && !j.coalesced).count());
            out.note("coalesced", round.stats.coalesced);
            out.note("cache_hits", round.stats.cache_hits);
        }
        out.check(digest == out.digest, || {
            "a round's reports differ from the first round's".into()
        });
        let done: Vec<&Job> = round.done().collect();
        let sim_us = done.iter().map(|j| j.eval_us as f64).sum();
        reps.push(Rep { traced, secs: round.secs, cells: done.len() as f64, sim_us });
        if traced {
            if traced_rounds.is_empty() {
                // Right after its round, so a drift in the host's speed
                // touches the round and its replay alike.
                worker_pass(ctx, &mut tracer, &mut out, &round)?;
            }
            traced_rounds.push(round);
        } else {
            let latency = round.latency_ms();
            p50.push(quantile(&latency, 0.5));
            p95.push(quantile(&latency, 0.95));
            peaks.push(round.peak_mib.unwrap_or(0.0));
        }
    }
    out.set("setup_s", median(&setup));
    out.note("rounds", reps.len());
    host.finish(&mut out);

    if !ctx.trace {
        let rates = Rates::of(reps.iter());
        out.set("sim_us_per_s", rates.sim_us_per_s);
        out.set("cells_per_s", rates.cells_per_s);
        out.set("jobs_per_s", rates.cells_per_s);
        out.set("job_p50_ms", median(&p50));
        out.set("job_p95_ms", median(&p95));
        out.set("peak_rss_mb", median(&peaks));
        out.note_reps(&reps);
        return Ok(out);
    }
    // Spans are assembled from event timestamps after each round, so
    // traced and untraced rounds run identical code; the overhead figure
    // is the noise between them.
    out.set_trace_overhead(&reps);
    layer_metrics(&mut tracer, &mut out, &traced_rounds);
    layers::finish_traced(ctx, &mut tracer, &mut out);
    Ok(out)
}

/// Per-layer figures of the traced rounds, from the lifecycle events
/// each connection saw and the daemon's `status` counters.
fn layer_metrics(tracer: &mut Tracer, out: &mut Outcome, rounds: &[Round]) {
    let jobs: Vec<(&Job, Option<&ResultPayload>)> = rounds
        .iter()
        .flat_map(|r| r.jobs.iter().zip(r.payloads.iter().map(Option::as_ref)))
        .collect();
    for (group, (job, _)) in jobs.iter().enumerate() {
        let group = group as u64;
        let Some(end) = job.end else { continue };
        tracer.record("serve.job", group, job.submit, end);
        if let Some(q) = job.queued {
            tracer.record("serve.admit", group, job.submit, q);
        }
    }
    let admit: Vec<f64> = jobs.iter().filter_map(|(j, _)| Some(ms(j.submit, j.queued?))).collect();
    out.set("serve.admit_ms_p50", median(&admit));
    // A `started` line reaches the client only when its delayed ACK
    // releases the newline the daemon holds back, usually together with
    // the job's terminal line, so the client cannot time the queue wait.
    out.note("serve.queue_wait_ms_p95", "not_measurable:event_lines_wait_for_delayed_acks");
    let done: Vec<&Job> = jobs.iter().map(|(j, _)| *j).filter(|j| j.event == "done").collect();
    let line_bytes: usize = done.iter().map(|j| j.line.len() + 1).sum();
    out.set("serve.payload_kb", line_bytes as f64 / done.len().max(1) as f64 / 1024.0);
    let sum = |f: fn(&DaemonStats) -> f64| rounds.iter().map(|r| f(&r.stats)).sum::<f64>();
    out.set(
        "serve.dedup_ratio",
        (sum(|s| s.coalesced) + sum(|s| s.cache_hits)) / sum(|s| s.submitted).max(1.0),
    );
    let reports: Vec<_> = jobs
        .iter()
        .filter(|(j, _)| !j.cached && !j.coalesced)
        .filter_map(|(_, p)| p.map(|p| &p.report))
        .collect();
    layers::check_audit(out, &reports);
    layers::report_counters(tracer, out, &reports);
}

/// Replays a round's simulated jobs in-process, one at a time, along the
/// path a daemon worker takes for each: `job::execute`, the cache store,
/// `job::finish` and encoding the `done` line. Gives per-job worker time
/// and the workers' utilization (replayed busy time over workers × the
/// round's wall time), which the client's event timestamps cannot (see
/// [`layer_metrics`]), and checks every replayed report against the
/// daemon's.
fn worker_pass(
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
    round: &Round,
) -> Result<(), String> {
    let dir = ctx.fresh_dir("worker-cache");
    let mut cache = DiskCache::open(&dir).map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let digests = round.report_digests();
    let (mut busy, mut run_secs, mut events) = (Vec::new(), 0.0, 0u64);
    for (i, job) in round.jobs.iter().enumerate() {
        if job.cached || job.coalesced {
            continue;
        }
        let resolved = Manifest::parse(&job.manifest)
            .and_then(|m| m.resolve())
            .map_err(|e| format!("job {}:{}: {e}", job.client, job.step))?;
        let group = i as u64;
        let t0 = Instant::now();
        let (secs, payload, stored) = tracer.span("serve.worker", group, |t| {
            let t0 = Instant::now();
            let (report, stop) =
                t.span("serve.execute", group, |_| job::execute(&resolved, None, 0, None));
            let secs = t0.elapsed().as_secs_f64();
            let entry = [(resolved.fingerprint.clone(), report.clone())];
            let stored = t.span("bench.cache_store", group, |_| cache.store(entry)).is_ok();
            let fp = &resolved.fingerprint;
            let assertions = &resolved.manifest.assertions;
            let payload = job::finish(fp, assertions, report, stop, CacheNote::simulated());
            t.span("serve.encode", group, |_| {
                std::hint::black_box(format!(
                    "{{\"event\":\"done\",\"job\":{i},\"result\":{}}}",
                    json::to_string(&payload)
                ));
            });
            (secs, payload, stored)
        });
        busy.push(t0.elapsed().as_secs_f64());
        run_secs += secs;
        events += payload.report.events_processed;
        out.ops(1);
        out.check(
            stored && payload.exit_code == 0 && Some(report_digest(&payload.report)) == digests[i],
            || format!("job {}:{}: the in-process worker path differs", job.client, job.step),
        );
    }
    let ms: Vec<f64> = busy.iter().map(|s| s * 1e3).collect();
    out.set("serve.run_ms_p50", median(&ms));
    let capacity = ctx.threads as f64 * round.secs;
    out.set("serve.worker_utilization", busy.iter().sum::<f64>() / capacity);
    out.set("core.events_per_s", events as f64 / run_secs);
    out.note("worker_pass_jobs", busy.len());
    Ok(())
}
