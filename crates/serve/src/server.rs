//! The `memnet serve` daemon: a std-only TCP batch simulation server.
//!
//! Clients speak newline-delimited JSON. Each request line is one op:
//!
//! - `{"op":"submit","manifest":{…}}` — submit a memnet-manifest (v1
//!   run, or v2 with a `sweep` section)
//! - `{"op":"cancel","job":N}` — cancel a previously queued job
//! - `{"op":"status"}` — queue depth, running count and counters
//! - `{"op":"shutdown"}` — graceful drain (see below)
//!
//! The server answers with JSONL lifecycle events on the submitting
//! connection: `rejected`, `queued` (with `coalesced`/`cached` flags),
//! `started`, `progress`, then exactly one of `done`, `failed` or
//! `cancelled` carrying the standardized [`ResultPayload`](crate::ResultPayload).
//!
//! ## Scheduling and dedup
//!
//! Jobs queue per client connection and a fixed pool of worker threads
//! pulls them round-robin across clients, so one client's hundred
//! manifests cannot starve another's one. Before any queueing, a
//! submission is checked against
//!
//! 1. the persistent bench result cache (fingerprint hit → immediate
//!    `done`, zero simulation), then
//! 2. the in-flight table (a job with the same fingerprint and limits
//!    queued or running → the new submission *coalesces* onto it and
//!    receives its own events and its own assertion verdicts when the one
//!    simulation finishes).
//!
//! Identical concurrent submissions therefore simulate exactly once.
//!
//! ## Sweep farm-out
//!
//! A v2 sweep manifest becomes `shards` independent queue items sharing
//! the submitting client's queue, so a sweep competes with other clients
//! exactly like that many single runs would. Each shard slice computes
//! its deterministic subset of the figure matrix (hitting the daemon's
//! persistent result cache per cell); the last slice to retire merges
//! the shard texts into output byte-identical to an unsharded `memnet
//! sweep`, writes the spec's `out` path if named, and delivers one
//! `done` event per subscriber carrying the `memnet-sweep-result`
//! payload. Identical concurrent sweep submissions coalesce onto one
//! farm-out, keyed by figure list + shard count + fingerprint-set digest
//! + output path.
//!
//! ## Graceful shutdown
//!
//! SIGINT/SIGTERM (via [`crate::signal`]) or a `shutdown` op flips one
//! flag: the accept loop stops taking connections, new submissions on
//! live connections are rejected with a "shutting down" error, workers
//! drain the queue and finish in-flight jobs (delivering every result),
//! and [`Server::run`] returns so the process can exit 0.

use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader};
use std::net::{Shutdown, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use memnet_bench::shard::{self, Shard, SweepPlan};
use memnet_bench::{DiskCache, EnsureStats, Location, Matrix};
use memnet_core::{RunReport, StopReason};
use serde::{json, Serialize};

use crate::job::{self, CacheNote};
use crate::manifest::{Assertions, Manifest, ResolvedJob, SweepSpec};
use crate::signal;
use crate::sweep;

/// How the daemon is set up.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:9377` (port 0 for ephemeral).
    pub addr: String,
    /// Worker threads simulating jobs.
    pub workers: usize,
    /// Persistent result cache directory (`None` disables the cache).
    pub cache_dir: Option<PathBuf>,
    /// Emit a `progress` event roughly every this many engine events
    /// (0 disables progress events).
    pub progress_every: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:9377".to_owned(),
            workers: 2,
            cache_dir: None,
            progress_every: 1_000_000,
        }
    }
}

/// Monotonic counters, reported by the `status` op.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Stats {
    /// Submissions accepted (queued, coalesced or cache-served).
    pub submitted: u64,
    /// Submissions rejected before touching a worker.
    pub rejected: u64,
    /// Submissions that coalesced onto an identical in-flight job.
    pub coalesced: u64,
    /// Submissions served straight from the persistent cache.
    pub cache_hits: u64,
    /// Simulations actually executed.
    pub simulated: u64,
    /// Jobs that delivered a result (any exit).
    pub completed: u64,
    /// Jobs cancelled (queued or running).
    pub cancelled: u64,
    /// Sweep manifests accepted and farmed out (coalesced sweep
    /// submissions count under `coalesced` instead).
    pub sweeps: u64,
    /// Sweep shard slices executed by workers (not counted under
    /// `simulated`, which tallies single-run manifests).
    pub shards: u64,
}

/// The writing half of one client connection. Workers and the scheduler
/// share it; each event line is written atomically under the lock. A
/// failed write poisons the connection (stream dropped) — later sends
/// become silent no-ops, which is the right behavior for a client that
/// hung up before its results were ready.
struct ConnOut {
    stream: Mutex<Option<TcpStream>>,
}

impl ConnOut {
    fn send(&self, mut line: String) {
        use std::io::Write;
        // One write per event line: a trailing newline sent on its own
        // would wait for the client's delayed ACK of the line before it.
        line.push('\n');
        let mut guard = self.stream.lock().unwrap();
        if let Some(stream) = guard.as_mut() {
            if stream.write_all(line.as_bytes()).is_err() {
                *guard = None;
            }
        }
    }

    fn hangup(&self) {
        let mut guard = self.stream.lock().unwrap();
        if let Some(stream) = guard.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }
}

/// One subscriber to a job: where to send events, the job id the client
/// knows, and the assertions *this* submission asked for (coalesced
/// manifests may agree on the run but differ on assertions).
struct Sub {
    conn: Arc<ConnOut>,
    job_id: u64,
    assertions: Assertions,
    coalesced: bool,
}

/// One single-run unit of work: a resolved job plus everyone waiting on
/// it.
struct JobExec {
    job: ResolvedJob,
    cancel: Arc<AtomicBool>,
    subs: Mutex<Vec<Sub>>,
    started: AtomicBool,
}

/// One subscriber to a sweep (no per-submission assertions: a sweep has
/// none).
struct SweepSub {
    conn: Arc<ConnOut>,
    job_id: u64,
}

/// Shard results collected so far.
struct SweepSlots {
    /// One slot per shard, filled with the shard's result text.
    texts: Vec<Option<String>>,
    /// Aggregate ensure counters across finished shards.
    stats: EnsureStats,
    /// How many shards have retired (run or skipped-by-cancel).
    done: u32,
}

/// One in-flight sweep: the spec, its enumerated plan, and everyone
/// waiting on the merge. Its `shards` queue items execute independently;
/// the last one to retire merges and delivers.
struct SweepRun {
    spec: SweepSpec,
    plan: SweepPlan,
    job_key: String,
    cancel: AtomicBool,
    started: AtomicBool,
    subs: Mutex<Vec<SweepSub>>,
    slots: Mutex<SweepSlots>,
}

/// One queue item: a whole single-run job, or one shard of a sweep.
enum Work {
    Run(Arc<JobExec>),
    Shard(Arc<SweepRun>, u32),
}

/// A queued or running submission, by kind (the `jobs`/`inflight` table
/// entry).
#[derive(Clone)]
enum Inflight {
    Run(Arc<JobExec>),
    Sweep(Arc<SweepRun>),
}

/// Everything behind the scheduler lock.
#[derive(Default)]
struct Sched {
    /// Per-client FIFO queues, serviced round-robin.
    queues: Vec<(u64, VecDeque<Work>)>,
    /// Next queue index to service.
    rr: usize,
    /// Queued or running jobs by `job_key` (the dedup table).
    inflight: HashMap<String, Inflight>,
    /// Every live job id, for `cancel`.
    jobs: HashMap<u64, Inflight>,
    next_job: u64,
    running: usize,
    stats: Stats,
}

impl Sched {
    fn queued_len(&self) -> usize {
        self.queues.iter().map(|(_, q)| q.len()).sum()
    }

    fn enqueue(&mut self, client: u64, work: Work) {
        match self.queues.iter_mut().find(|(c, _)| *c == client) {
            Some((_, q)) => q.push_back(work),
            None => self.queues.push((client, VecDeque::from([work]))),
        }
    }

    /// Pops the next work item round-robin across client queues.
    fn pop_next(&mut self) -> Option<Work> {
        if self.queues.is_empty() {
            return None;
        }
        self.rr %= self.queues.len();
        let work = self.queues[self.rr].1.pop_front().expect("no empty queues are kept");
        if self.queues[self.rr].1.is_empty() {
            self.queues.remove(self.rr);
            // The vec shifted left; `rr` now already points at the next
            // client (or wraps at the top of the next call).
        } else {
            self.rr += 1;
        }
        Some(work)
    }

    /// Drops an exec from whichever queue holds it (cancel of a queued
    /// job whose last subscriber left).
    fn unqueue(&mut self, exec: &Arc<JobExec>) {
        for (_, q) in &mut self.queues {
            if let Some(pos) =
                q.iter().position(|w| matches!(w, Work::Run(e) if Arc::ptr_eq(e, exec)))
            {
                q.remove(pos);
                break;
            }
        }
        self.queues.retain(|(_, q)| !q.is_empty());
        self.rr = 0;
    }
}

struct State {
    sched: Mutex<Sched>,
    cv: Condvar,
    shutdown: AtomicBool,
    /// The persistent result cache: an index of where each stored
    /// result's line lives, holding no reports. Lock order: `sched` may
    /// be taken, then `cache` nested inside it. Never the reverse.
    cache: Option<Mutex<DiskCache>>,
    /// The cache directory, so sweep shards can share the persistent
    /// result cache. Each shard opens its own [`DiskCache`] handle
    /// (writes are atomic renames, so concurrent shards never clobber
    /// each other); entries a shard stores become visible to the
    /// server's own handle above on its next reopen, i.e. the next
    /// daemon start — the `cache` index is built at open.
    cache_dir: Option<PathBuf>,
    progress_every: u64,
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<State>,
    workers: usize,
}

/// JSON-quotes a string for hand-assembled event lines.
fn js(s: &str) -> String {
    json::to_string(&s)
}

fn event_rejected(err: &crate::ManifestError) -> String {
    let line = match err.line {
        Some(n) => n.to_string(),
        None => "null".to_owned(),
    };
    format!(
        "{{\"event\":\"rejected\",\"path\":{},\"line\":{line},\"error\":{}}}",
        js(&err.path),
        js(&err.msg)
    )
}

/// A job's closing event line, with its result payload encoded straight
/// into the line.
fn event_result(kind: &str, job_id: u64, payload: &impl Serialize) -> String {
    let mut line = format!("{{\"event\":{},\"job\":{job_id},\"result\":", js(kind));
    json::append(&mut line, payload);
    line.push('}');
    line
}

impl Server {
    /// Binds the listen socket (does not accept yet).
    pub fn bind(cfg: ServerConfig) -> std::io::Result<Server> {
        let addr =
            cfg.addr.to_socket_addrs()?.next().ok_or_else(|| {
                std::io::Error::other(format!("unresolvable address {}", cfg.addr))
            })?;
        let listener = TcpListener::bind(addr)?;
        let cache = match &cfg.cache_dir {
            None => None,
            Some(dir) => Some(Mutex::new(DiskCache::open(dir)?)),
        };
        Ok(Server {
            listener,
            state: Arc::new(State {
                sched: Mutex::new(Sched::default()),
                cv: Condvar::new(),
                shutdown: AtomicBool::new(false),
                cache,
                cache_dir: cfg.cache_dir.clone(),
                progress_every: cfg.progress_every,
            }),
            workers: cfg.workers.max(1),
        })
    }

    /// The actually-bound address (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until a shutdown request (op or signal) drains the queue,
    /// then returns the final counters. Every accepted job's result is
    /// delivered before this returns.
    pub fn run(self) -> std::io::Result<Stats> {
        self.listener.set_nonblocking(true)?;
        let workers: Vec<_> = (0..self.workers)
            .map(|_| {
                let state = Arc::clone(&self.state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();

        let conns: Arc<Mutex<Vec<Arc<ConnOut>>>> = Arc::new(Mutex::new(Vec::new()));
        let mut conn_threads = Vec::new();
        let mut next_client = 0_u64;
        loop {
            if self.state.shutdown.load(Ordering::Relaxed) || signal::requested() {
                self.state.shutdown.store(true, Ordering::Relaxed);
                break;
            }
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    stream.set_nonblocking(false)?;
                    // Event lines are small and latency-bound: send each
                    // at once instead of coalescing it behind an unACKed one.
                    stream.set_nodelay(true)?;
                    let reader = stream.try_clone()?;
                    let out = Arc::new(ConnOut { stream: Mutex::new(Some(stream)) });
                    conns.lock().unwrap().push(Arc::clone(&out));
                    let state = Arc::clone(&self.state);
                    let client = next_client;
                    next_client += 1;
                    conn_threads.push(std::thread::spawn(move || {
                        serve_connection(&state, client, reader, &out);
                    }));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(25));
                }
                Err(e) => return Err(e),
            }
        }

        // Drain: workers exit once the queue is empty and nothing runs.
        self.state.cv.notify_all();
        for w in workers {
            let _ = w.join();
        }
        // Every result is delivered; unblock any connection still reading.
        for conn in conns.lock().unwrap().iter() {
            conn.send("{\"event\":\"shutting-down\"}".to_owned());
            conn.hangup();
        }
        for t in conn_threads {
            let _ = t.join();
        }
        let stats = self.state.sched.lock().unwrap().stats;
        Ok(stats)
    }
}

/// Reads request lines off one connection until EOF.
fn serve_connection(state: &Arc<State>, client: u64, reader: TcpStream, out: &Arc<ConnOut>) {
    let reader = BufReader::new(reader);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if line.trim().is_empty() {
            continue;
        }
        let doc = match json::parse(&line) {
            Ok(doc) => doc,
            Err(e) => {
                out.send(format!(
                    "{{\"event\":\"error\",\"error\":{}}}",
                    js(&format!("bad request JSON: {}", e.0))
                ));
                continue;
            }
        };
        let op = doc.get("op").ok().and_then(|v| v.as_str().ok()).unwrap_or("");
        match op {
            "submit" => match doc.get("manifest") {
                Ok(manifest) => submit(state, client, out, manifest),
                Err(_) => out.send(
                    "{\"event\":\"error\",\"error\":\"submit needs a \\\"manifest\\\" object\"}"
                        .to_owned(),
                ),
            },
            "cancel" => {
                let job_id = doc.get("job").ok().and_then(|v| v.num::<u64>().ok());
                match job_id {
                    Some(id) => cancel(state, out, id),
                    None => out.send(
                        "{\"event\":\"error\",\"error\":\"cancel needs a numeric \\\"job\\\"\"}"
                            .to_owned(),
                    ),
                }
            }
            "status" => {
                let sched = state.sched.lock().unwrap();
                let line = format!(
                    "{{\"event\":\"status\",\"queued\":{},\"running\":{},\"stats\":{}}}",
                    sched.queued_len(),
                    sched.running,
                    json::to_string(&sched.stats)
                );
                drop(sched);
                out.send(line);
            }
            "shutdown" => {
                state.shutdown.store(true, Ordering::Relaxed);
                state.cv.notify_all();
                out.send("{\"event\":\"shutting-down\"}".to_owned());
            }
            other => out.send(format!(
                "{{\"event\":\"error\",\"error\":{}}}",
                js(&format!("unknown op {other:?} (submit|cancel|status|shutdown)"))
            )),
        }
    }
}

/// Handles one `submit` op, entirely on the connection thread: parse,
/// resolve, then either reject, serve from cache, coalesce, or queue.
/// No worker is occupied before a manifest has fully validated.
fn submit(state: &Arc<State>, client: u64, out: &Arc<ConnOut>, manifest: &json::Value) {
    let reject = |err: &crate::ManifestError| {
        state.sched.lock().unwrap().stats.rejected += 1;
        out.send(event_rejected(err));
    };
    if state.shutdown.load(Ordering::Relaxed) {
        return reject(&shutting_down());
    }
    // Round-trip through text: Manifest::parse owns all schema checking.
    // (Line numbers in errors are only meaningful when the client keeps
    // the original text, which `memnet submit` exploits by validating
    // locally first.)
    let text = json::to_string(manifest);
    let manifest = match Manifest::parse(&text) {
        Ok(m) => m,
        Err(e) => return reject(&e),
    };
    if manifest.sweep.is_some() {
        return submit_sweep(state, client, out, &manifest);
    }
    let job = match manifest.resolve() {
        Ok(job) => job,
        Err(e) => return reject(&e),
    };

    // The coalesce / cache-hit / enqueue decision is made atomically under
    // the scheduler lock, with the persistent cache consulted as an index
    // only: `cached_location` touches no file, so no cache file is read or
    // decoded while the scheduler lock is held. A coalesced or queued
    // job's lifecycle events (`queued`, possibly `started`) are sent under
    // the lock: a worker cannot pop the new job — and therefore cannot
    // emit its own `started` — until the lock drops, which pins the
    // documented queued→started→… order. A hit has no worker, so its
    // `queued` and `done` lines wait until its line has been read and
    // decoded after the lock is released. A hit whose line can no longer
    // be read takes the decision again without the cache, so it coalesces
    // or simulates like any miss.
    let mut use_cache = job.cache_eligible;
    let (job_id, report) = loop {
        let (job_id, at) = {
            let mut sched = state.sched.lock().unwrap();
            if state.shutdown.load(Ordering::Relaxed) {
                drop(sched);
                return reject(&shutting_down());
            }
            let job_id = sched.next_job;
            sched.next_job += 1;

            if let Some(Inflight::Run(exec)) = sched.inflight.get(&job.job_key).cloned() {
                // Identical job already queued or running: coalesce.
                sched.stats.submitted += 1;
                sched.stats.coalesced += 1;
                sched.jobs.insert(job_id, Inflight::Run(Arc::clone(&exec)));
                exec.subs.lock().unwrap().push(Sub {
                    conn: Arc::clone(out),
                    job_id,
                    assertions: job.manifest.assertions.clone(),
                    coalesced: true,
                });
                out.send(format!(
                    "{{\"event\":\"queued\",\"job\":{job_id},\"fingerprint\":{},\
                     \"coalesced\":true,\"cached\":false}}",
                    js(&job.fingerprint)
                ));
                if exec.started.load(Ordering::Relaxed) {
                    out.send(format!("{{\"event\":\"started\",\"job\":{job_id}}}"));
                }
                return;
            }
            match use_cache.then(|| cached_location(state, &job)).flatten() {
                Some(at) => (job_id, at),
                None => {
                    sched.stats.submitted += 1;
                    let exec = Arc::new(JobExec {
                        cancel: Arc::new(AtomicBool::new(false)),
                        subs: Mutex::new(vec![Sub {
                            conn: Arc::clone(out),
                            job_id,
                            assertions: job.manifest.assertions.clone(),
                            coalesced: false,
                        }]),
                        started: AtomicBool::new(false),
                        job,
                    });
                    out.send(format!(
                        "{{\"event\":\"queued\",\"job\":{job_id},\"fingerprint\":{},\
                         \"coalesced\":false,\"cached\":false}}",
                        js(&exec.job.fingerprint)
                    ));
                    sched
                        .inflight
                        .insert(exec.job.job_key.clone(), Inflight::Run(Arc::clone(&exec)));
                    sched.jobs.insert(job_id, Inflight::Run(Arc::clone(&exec)));
                    sched.enqueue(client, Work::Run(exec));
                    state.cv.notify_one();
                    return;
                }
            }
        };
        match at.read() {
            Some(report) => break (job_id, report),
            None => {
                if let Some(cache) = &state.cache {
                    cache.lock().unwrap().forget(&at);
                }
                use_cache = false;
            }
        }
    };

    // Persistent-cache hit: answered at once, zero simulation.
    {
        let mut sched = state.sched.lock().unwrap();
        sched.stats.submitted += 1;
        sched.stats.cache_hits += 1;
        sched.stats.completed += 1;
    }
    out.send(format!(
        "{{\"event\":\"queued\",\"job\":{job_id},\"fingerprint\":{},\
         \"coalesced\":false,\"cached\":true}}",
        js(&job.fingerprint)
    ));
    let payload = job::finish(
        &job.fingerprint,
        &job.manifest.assertions,
        Arc::unwrap_or_clone(report),
        StopReason::Completed,
        CacheNote { hit: true, source: "disk".to_owned() },
    );
    let kind = if payload.exit_code == job::EXIT_PASS { "done" } else { "failed" };
    out.send(event_result(kind, job_id, &payload));
}

/// The rejection a submission gets once the server is shutting down.
fn shutting_down() -> crate::ManifestError {
    crate::ManifestError {
        path: "manifest".to_owned(),
        line: None,
        msg: "server is shutting down and refuses new submissions".to_owned(),
    }
}

/// Handles one sweep-manifest `submit`: enumerate the plan, then either
/// coalesce onto an identical in-flight sweep or queue one work item per
/// shard. Shard runs share the daemon's persistent result cache, so
/// already-simulated cells are disk hits exactly as in `memnet sweep`.
/// (A sweep fingerprint set may be huge, so there is no whole-sweep
/// cache short-circuit; the per-cell cache serves that purpose.)
fn submit_sweep(state: &Arc<State>, client: u64, out: &Arc<ConnOut>, manifest: &Manifest) {
    let reject = |err: &crate::ManifestError| {
        state.sched.lock().unwrap().stats.rejected += 1;
        out.send(event_rejected(err));
    };
    let mut spec = manifest.sweep.clone().expect("submit_sweep is only called for sweep manifests");
    spec.settings.cache_dir = state.cache_dir.clone();
    let plan = match SweepPlan::new(&spec.figures, &spec.settings) {
        Ok(plan) => plan,
        Err(e) => {
            return reject(&crate::ManifestError { path: "sweep".to_owned(), line: None, msg: e })
        }
    };
    let job_key = sweep::sweep_job_key(&spec, &plan);

    let mut sched = state.sched.lock().unwrap();
    if state.shutdown.load(Ordering::Relaxed) {
        drop(sched);
        return reject(&shutting_down());
    }
    sched.stats.submitted += 1;
    let job_id = sched.next_job;
    sched.next_job += 1;

    if let Some(Inflight::Sweep(run)) = sched.inflight.get(&job_key).cloned() {
        // Identical sweep already in flight: coalesce onto its merge.
        sched.stats.coalesced += 1;
        sched.jobs.insert(job_id, Inflight::Sweep(Arc::clone(&run)));
        run.subs.lock().unwrap().push(SweepSub { conn: Arc::clone(out), job_id });
        out.send(event_sweep_queued(job_id, &run, true));
        if run.started.load(Ordering::Relaxed) {
            out.send(format!("{{\"event\":\"started\",\"job\":{job_id}}}"));
        }
        return;
    }

    sched.stats.sweeps += 1;
    let shards = spec.shards;
    let run = Arc::new(SweepRun {
        slots: Mutex::new(SweepSlots {
            texts: vec![None; shards as usize],
            stats: EnsureStats::default(),
            done: 0,
        }),
        subs: Mutex::new(vec![SweepSub { conn: Arc::clone(out), job_id }]),
        cancel: AtomicBool::new(false),
        started: AtomicBool::new(false),
        spec,
        plan,
        job_key: job_key.clone(),
    });
    out.send(event_sweep_queued(job_id, &run, false));
    sched.inflight.insert(job_key, Inflight::Sweep(Arc::clone(&run)));
    sched.jobs.insert(job_id, Inflight::Sweep(Arc::clone(&run)));
    for index in 0..shards {
        sched.enqueue(client, Work::Shard(Arc::clone(&run), index));
    }
    drop(sched);
    state.cv.notify_all();
}

fn event_sweep_queued(job_id: u64, run: &SweepRun, coalesced: bool) -> String {
    format!(
        "{{\"event\":\"queued\",\"job\":{job_id},\"sweep\":true,\"shards\":{},\"cells\":{},\
         \"set\":{},\"coalesced\":{coalesced},\"cached\":false}}",
        run.spec.shards,
        run.plan.len(),
        js(&run.plan.set_digest),
    )
}

/// Where the job's report lives in the persistent cache, if it is there.
/// Takes the cache lock nested inside the scheduler lock (the one place
/// that nesting is allowed) for an index lookup only: the caller reads
/// and decodes the report after both locks are released.
fn cached_location(state: &State, job: &ResolvedJob) -> Option<Location> {
    state.cache.as_ref()?.lock().unwrap().locate(&job.fingerprint)
}

/// Handles one `cancel` op. A queued job loses this subscriber (and
/// leaves the queue when nobody is left waiting); a running job gets its
/// cancel flag set, which stops the engine at the next poll — note that
/// cancelling a running job cancels it for every coalesced subscriber.
///
/// Cancelling a sweep flips its flag: shards not yet started retire as
/// no-ops, any currently running shard completes (the ensure loop has no
/// mid-cell poll), and the finalizer then delivers one `cancelled` event
/// per subscriber — a sweep cancel always cancels every coalesced
/// subscriber.
fn cancel(state: &Arc<State>, out: &Arc<ConnOut>, job_id: u64) {
    let mut sched = state.sched.lock().unwrap();
    let Some(entry) = sched.jobs.get(&job_id).cloned() else {
        drop(sched);
        out.send(format!(
            "{{\"event\":\"error\",\"error\":{}}}",
            js(&format!("no such job {job_id}"))
        ));
        return;
    };
    let exec = match entry {
        Inflight::Sweep(run) => {
            run.cancel.store(true, Ordering::Relaxed);
            drop(sched);
            // The `cancelled` event arrives from the sweep finalizer
            // once every shard slot has retired.
            return;
        }
        Inflight::Run(exec) => exec,
    };
    if exec.started.load(Ordering::Relaxed) {
        exec.cancel.store(true, Ordering::Relaxed);
        drop(sched);
        return;
    }
    let mut subs = exec.subs.lock().unwrap();
    subs.retain(|s| s.job_id != job_id);
    let empty = subs.is_empty();
    drop(subs);
    sched.jobs.remove(&job_id);
    sched.stats.cancelled += 1;
    if empty {
        sched.unqueue(&exec);
        sched.inflight.remove(&exec.job.job_key);
    }
    drop(sched);
    out.send(format!("{{\"event\":\"cancelled\",\"job\":{job_id}}}"));
}

/// One worker thread: pull work round-robin, simulate, deliver.
fn worker_loop(state: &Arc<State>) {
    loop {
        let work = {
            let mut sched = state.sched.lock().unwrap();
            loop {
                if let Some(work) = sched.pop_next() {
                    sched.running += 1;
                    match &work {
                        Work::Run(_) => sched.stats.simulated += 1,
                        Work::Shard(..) => sched.stats.shards += 1,
                    }
                    break Some(work);
                }
                if state.shutdown.load(Ordering::Relaxed) {
                    break None;
                }
                sched = state.cv.wait(sched).unwrap();
            }
        };
        match work {
            None => return,
            Some(Work::Run(exec)) => run_job(state, &exec),
            Some(Work::Shard(run, index)) => run_sweep_shard(state, &run, index),
        }
    }
}

fn run_job(state: &Arc<State>, exec: &Arc<JobExec>) {
    exec.started.store(true, Ordering::Relaxed);
    for sub in exec.subs.lock().unwrap().iter() {
        sub.conn.send(format!("{{\"event\":\"started\",\"job\":{}}}", sub.job_id));
    }

    let progress: Option<Box<dyn FnMut(memnet_core::RunProgress) + Send>> =
        if state.progress_every > 0 {
            let exec = Arc::clone(exec);
            Some(Box::new(move |p: memnet_core::RunProgress| {
                for sub in exec.subs.lock().unwrap().iter() {
                    sub.conn.send(format!(
                        "{{\"event\":\"progress\",\"job\":{},\"events\":{},\"sim_ps\":{}}}",
                        sub.job_id,
                        p.events,
                        p.now.as_ps()
                    ));
                }
            }))
        } else {
            None
        };
    let (report, stop) =
        job::execute(&exec.job, Some(Arc::clone(&exec.cancel)), state.progress_every, progress);
    let report = Arc::new(report);

    // Persist a full, untruncated result for future submissions. The
    // cache lock is taken alone (never while holding the scheduler); the
    // cache indexes the written line and keeps no copy of the report.
    if stop == StopReason::Completed && exec.job.cache_eligible {
        if let Some(cache) = &state.cache {
            let entry = [(exec.job.fingerprint.clone(), Arc::clone(&report))];
            if let Err(e) = cache.lock().unwrap().store(entry) {
                // An unusable cache (read-only directory, full disk) only
                // costs the next process its warm start — the report is
                // already in hand and must still be delivered.
                memnet_simcore::memnet_warn!("[serve] failed to persist result: {e}");
            }
        }
    }

    // Retire the job, then deliver per-subscriber results.
    let subs = {
        let mut sched = state.sched.lock().unwrap();
        sched.running -= 1;
        if let Some(Inflight::Run(current)) = sched.inflight.get(&exec.job.job_key) {
            if Arc::ptr_eq(current, exec) {
                sched.inflight.remove(&exec.job.job_key);
            }
        }
        let subs = std::mem::take(&mut *exec.subs.lock().unwrap());
        for sub in &subs {
            sched.jobs.remove(&sub.job_id);
        }
        match stop {
            StopReason::Cancelled => sched.stats.cancelled += subs.len() as u64,
            _ => sched.stats.completed += subs.len() as u64,
        }
        subs
    };
    for sub in subs {
        let cache = if sub.coalesced {
            CacheNote { hit: true, source: "coalesced".to_owned() }
        } else {
            CacheNote::simulated()
        };
        let payload = job::finish(
            &exec.job.fingerprint,
            &sub.assertions,
            RunReport::clone(&report),
            stop,
            cache,
        );
        let kind = match stop {
            StopReason::Cancelled => "cancelled",
            _ if payload.exit_code == job::EXIT_PASS => "done",
            _ => "failed",
        };
        sub.conn.send(event_result(kind, sub.job_id, &payload));
    }
}

/// Executes one shard of a sweep: run it (unless the sweep was
/// cancelled), record its result text, emit a `progress` event, and — if
/// this was the last outstanding shard — merge and deliver.
fn run_sweep_shard(state: &Arc<State>, run: &Arc<SweepRun>, index: u32) {
    if !run.started.swap(true, Ordering::Relaxed) {
        for sub in run.subs.lock().unwrap().iter() {
            sub.conn.send(format!("{{\"event\":\"started\",\"job\":{}}}", sub.job_id));
        }
    }
    // A cancelled sweep's remaining shards drain as no-ops; there is no
    // mid-shard poll (the matrix ensure loop runs cells to completion).
    let result = if run.cancel.load(Ordering::Relaxed) {
        None
    } else {
        let mut matrix = Matrix::new();
        let piece = Shard { index, of: run.spec.shards };
        match shard::run_shard(&run.plan, piece, &run.spec.settings, &mut matrix) {
            Ok(pair) => Some(pair),
            // Registry plans are always simulable, so this only fires on
            // a registry bug; degrade to a cancelled sweep rather than
            // killing the worker.
            Err(e) => {
                memnet_simcore::memnet_warn!("[serve] sweep shard {piece} failed: {e}");
                run.cancel.store(true, Ordering::Relaxed);
                None
            }
        }
    };

    let (done, last) = {
        let mut slots = run.slots.lock().unwrap();
        if let Some((text, stats)) = result {
            slots.texts[index as usize] = Some(text);
            slots.stats += stats;
        }
        slots.done += 1;
        (slots.done, slots.done == run.spec.shards)
    };
    for sub in run.subs.lock().unwrap().iter() {
        sub.conn.send(format!(
            "{{\"event\":\"progress\",\"job\":{},\"shards_done\":{done},\"shards\":{}}}",
            sub.job_id, run.spec.shards,
        ));
    }
    if last {
        finish_sweep(state, run);
    } else {
        state.sched.lock().unwrap().running -= 1;
    }
}

/// Merges a sweep whose last shard just retired, writes the `out` file
/// when the spec names one, retires the sweep from the scheduler and
/// delivers one result event per subscriber.
fn finish_sweep(state: &Arc<State>, run: &Arc<SweepRun>) {
    let cancelled = run.cancel.load(Ordering::Relaxed);
    // The merge (and the out-file write) happens outside the scheduler
    // lock — only this worker can reach a given sweep's finalizer.
    let outcome: Result<sweep::SweepPayload, String> = if cancelled {
        let stats = run.slots.lock().unwrap().stats;
        Ok(sweep::sweep_payload(&run.spec, &run.plan, stats, true))
    } else {
        let (named, stats) = {
            let mut slots = run.slots.lock().unwrap();
            let texts = std::mem::take(&mut slots.texts);
            let named: Vec<(String, String)> = texts
                .into_iter()
                .enumerate()
                .map(|(i, text)| {
                    let name = format!("shard {i}/{}", run.spec.shards);
                    (name, text.expect("uncancelled sweeps run every shard"))
                })
                .collect();
            (named, slots.stats)
        };
        sweep::merge_texts(&named)
            .map_err(|e| format!("internal merge error: {e}"))
            .and_then(|merged| match &run.spec.out {
                None => Ok(merged),
                Some(path) => std::fs::write(path, &merged.text)
                    .map(|()| merged)
                    .map_err(|e| format!("writing sweep output {path}: {e}")),
            })
            .map(|_| sweep::sweep_payload(&run.spec, &run.plan, stats, false))
    };

    let subs = {
        let mut sched = state.sched.lock().unwrap();
        sched.running -= 1;
        if let Some(Inflight::Sweep(current)) = sched.inflight.get(&run.job_key) {
            if Arc::ptr_eq(current, run) {
                sched.inflight.remove(&run.job_key);
            }
        }
        let subs = std::mem::take(&mut *run.subs.lock().unwrap());
        for sub in &subs {
            sched.jobs.remove(&sub.job_id);
        }
        if cancelled {
            sched.stats.cancelled += subs.len() as u64;
        } else {
            sched.stats.completed += subs.len() as u64;
        }
        subs
    };
    for sub in subs {
        let line = match &outcome {
            Ok(payload) => {
                event_result(if cancelled { "cancelled" } else { "done" }, sub.job_id, payload)
            }
            Err(msg) => {
                format!("{{\"event\":\"failed\",\"job\":{},\"error\":{}}}", sub.job_id, js(msg))
            }
        };
        sub.conn.send(line);
    }
}
