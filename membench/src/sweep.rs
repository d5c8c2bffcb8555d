//! `sweep_cold` and `sweep_warm`: a figure-registry sweep plan with one
//! extra replica seed per key, computed into an empty private cache
//! (cold) or re-rendered from a cache a staging process filled (warm).

use std::path::{Path, PathBuf};
use std::time::Instant;

use memnet_bench::shard::{parse_sweep_file, run_shard};
use memnet_bench::{DiskCache, EnsureStats, Key, Matrix, Settings, Shard, SweepPlan};
use memnet_core::{Engine, RunReport, SimConfig};
use memnet_faults::FaultConfig;
use memnet_net::mech::RooParams;
use memnet_simcore::SimDuration;

use crate::host::HostSpeed;
use crate::layers;
use crate::util::{
    dir_bytes, fnv1a64, median, peak_rss_mib, quantile, report_digest, Tracer, FNV_START,
};
use crate::{keep_going, Ctx, Outcome, Rep};

/// The figures swept: together they hold every policy, mechanism,
/// topology and scale of the registry, plus its fault, stress and
/// both-energy-backend cells.
pub const FIGURES: [&str; 5] = ["fig18", "sec7a", "faults", "stress", "model_diff"];

/// The self-test's figures: small, and still spanning faults and both
/// energy backends.
const TINY_FIGURES: [&str; 2] = ["faults", "model_diff"];

/// The plan's two seeds: memnet's default base seed, which every figure
/// binary uses, and one extra replica. They are fixed rather than drawn
/// from `--seed`: at a 2 µs window each seed's opening traffic burst
/// sets how much the whole plan simulates, and across seeds that changed
/// a cold sweep's work 2.3x, which would drown any engine change.
const PLAN_SEEDS: (u64, u64) = (0xC0FFEE, 0xC0FFEF);

/// The figures, in a fixed order, which orders the plan's cells, the
/// pool's jobs and the JSONL. The order is not drawn from `--seed`:
/// the allocator's peak follows it (45.7 MiB with `fig18` first, 54.5
/// MiB with `model_diff` first, the same every time for one order), and
/// shuffled orders spread `peak_rss_mb` 18% over ten seeds.
fn figures(ctx: &Ctx) -> Vec<String> {
    let names: &[&str] = if ctx.tiny { &TINY_FIGURES } else { &FIGURES };
    names.iter().map(|s| s.to_string()).collect()
}

/// Sweep settings, built explicitly so no environment variable reaches
/// them: a window shorter than one 100 µs epoch and one extra seed.
pub fn settings(ctx: &Ctx, cache_dir: &Path) -> Settings {
    Settings {
        eval_period: SimDuration::from_us(if ctx.tiny { 1 } else { 2 }),
        threads: ctx.threads,
        seed: PLAN_SEEDS.0,
        seeds: vec![PLAN_SEEDS.1],
        cache_dir: Some(cache_dir.to_path_buf()),
        shard: Shard::full(),
        obs: false,
    }
}

/// One complete sweep, as `memnet sweep --out` runs it: plan, ensure
/// every cell through the cache and worker pool, render and write the
/// JSONL.
struct Swept {
    plan: SweepPlan,
    matrix: Matrix,
    text: String,
    stats: EnsureStats,
}

fn sweep_once(
    ctx: &Ctx,
    t: &mut Tracer,
    group: u64,
    cache: &Path,
    out: &Path,
) -> Result<Swept, String> {
    let settings = settings(ctx, cache);
    t.span("bench.sweep", group, |t| {
        let plan = t.span("bench.plan", group, |_| SweepPlan::new(&figures(ctx), &settings))?;
        let mut matrix = Matrix::new();
        let (text, stats) = t.span("bench.run_shard", group, |_| {
            run_shard(&plan, Shard::full(), &settings, &mut matrix)
        })?;
        t.span("bench.write_jsonl", group, |_| std::fs::write(out, &text))
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        Ok(Swept { plan, matrix, text, stats })
    })
}

/// The staging step of `sweep_warm`, run in a process of its own so its
/// memory never counts towards the workload's peak: a cold sweep into
/// `dir`, its JSONL written to `out`.
pub fn stage(ctx: &Ctx, dir: &Path, out: &Path) -> Result<(), String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let swept = sweep_once(ctx, &mut Tracer::new(false), 0, dir, out)?;
    if swept.stats.simulated != swept.plan.len() {
        return Err(format!(
            "staging simulated {} of {} cells",
            swept.stats.simulated,
            swept.plan.len()
        ));
    }
    Ok(())
}

/// Fills a cache for `sweep_warm` by running [`stage`] in a child process.
fn run_stage(ctx: &Ctx) -> Result<(PathBuf, String), String> {
    let dir = ctx.fresh_dir("staged-cache");
    let file = ctx.work.join("staged.jsonl");
    let exe = std::env::current_exe().map_err(|e| format!("locating membench: {e}"))?;
    let mut cmd = std::process::Command::new(exe);
    cmd.args([
        "stage",
        "--seed",
        &ctx.seed.to_string(),
        "--trace",
        if ctx.trace { "1" } else { "0" },
    ]);
    cmd.arg("--dir").arg(&dir).arg("--out").arg(&file);
    if ctx.tiny {
        cmd.arg("--tiny");
    }
    let status = cmd.status().map_err(|e| format!("starting the staging process: {e}"))?;
    if !status.success() {
        return Err(format!("the staging process failed: {status}"));
    }
    let text =
        std::fs::read_to_string(&file).map_err(|e| format!("reading {}: {e}", file.display()))?;
    Ok((dir, text))
}

/// Mirrors how the matrix turns a registry key into a configuration, so
/// the serial pass can time construction and each pool job on its own.
fn key_config(key: &Key, settings: &Settings) -> SimConfig {
    let roo = if key.roo_wakeup_ns == 20 { RooParams::slow() } else { RooParams::fast() };
    SimConfig::builder()
        .workload(key.workload)
        .topology(key.topology)
        .scale(key.scale)
        .policy(key.policy)
        .mechanism(key.mechanism)
        .alpha(key.alpha().max(0.001))
        .roo_params(roo)
        .mapping(key.mapping)
        .faults(FaultConfig::parse(&key.faults).expect("registry fault specs parse"))
        .eval_period(settings.eval_period)
        .seed(settings.seed)
        .energy_backend(key.energy)
        .build()
        .expect("registry keys are valid configurations")
}

/// Times one set-up: the plan plus opening the cache a sweep would use
/// (the staged one when warm, a fresh empty one when cold). Returns the
/// seconds of each.
fn time_setup(
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
    group: u64,
    staged: &Option<(PathBuf, String)>,
) -> Result<(f64, f64), String> {
    let dir = match staged {
        Some((dir, _)) => dir.clone(),
        None => ctx.fresh_dir("setup"),
    };
    let settings = settings(ctx, &dir);
    let t0 = Instant::now();
    let plan = tracer.span("bench.plan", group, |_| SweepPlan::new(&figures(ctx), &settings))?;
    let t1 = Instant::now();
    let cache = tracer.span("bench.cache_open", group, |_| DiskCache::open(&dir));
    let t2 = Instant::now();
    let cache = cache.map_err(|e| format!("opening {}: {e}", dir.display()))?;
    let expected = if staged.is_some() { plan.len() } else { 0 };
    out.check(cache.len() == expected, || {
        format!("the cache at set-up holds {} entries for {} plan cells", cache.len(), plan.len())
    });
    Ok(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64()))
}

/// Runs the workload; `warm` selects `sweep_warm`.
pub fn run(ctx: &Ctx, warm: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut tracer = Tracer::new(ctx.trace);
    let staged = if warm { Some(run_stage(ctx)?) } else { None };
    let mut host = HostSpeed::new(ctx.threads, ctx.tiny);

    // Timed sweeps, each after its set-ups (the plan plus opening the
    // cache the sweep uses); traced runs interleave traced and untraced
    // sweeps.
    let (mut plan_secs, mut open_secs) = (Vec::new(), Vec::new());
    let mut reps: Vec<Rep> = Vec::new();
    let mut reference: Option<String> = None;
    let mut peak = None;
    let mut kept: Option<(Swept, PathBuf)> = None;
    let start = Instant::now();
    while keep_going(start, ctx, reps.len(), if ctx.trace { 4 } else { 3 }) {
        let traced = ctx.trace && reps.len() % 2 == 1;
        tracer.enabled = traced;
        for _ in 0..if warm { 1 } else { 3 } {
            let (plan, open) = time_setup(ctx, &mut tracer, &mut out, reps.len() as u64, &staged)?;
            plan_secs.push(plan);
            open_secs.push(open);
        }
        let cache = match &staged {
            Some((dir, _)) => dir.clone(),
            None => ctx.fresh_dir("cold"),
        };
        let file = ctx.work.join(format!("sweep-{}.jsonl", reps.len()));
        let t0 = Instant::now();
        let swept = sweep_once(ctx, &mut tracer, reps.len() as u64, &cache, &file)?;
        let secs = t0.elapsed().as_secs_f64();
        let cells = swept.plan.len();
        let eval_us = settings(ctx, &cache).eval_period.as_ps() as f64 / 1e6;
        if reps.is_empty() {
            // One sweep's peak: later repetitions only add allocator
            // fragmentation, which varies with how many of them fit.
            peak = peak_rss_mib("self");
        }
        host.sample();
        reps.push(Rep { traced, secs, cells: cells as f64, sim_us: cells as f64 * eval_us });
        out.ops(cells as u64);
        if reps.len() == 1 {
            out.digest = swept
                .plan
                .cells()
                .iter()
                .map(|(k, s, _)| report_digest(swept.matrix.get_seeded(k, *s)))
                .fold(FNV_START, |h, d| fnv1a64(h, &d.to_le_bytes()));
        }

        let expected = if warm { (0, cells) } else { (cells, 0) };
        let stats = swept.stats;
        out.check((stats.simulated, stats.cache_hits) == expected, || {
            format!(
                "sweep simulated {} and hit {} of {cells} cells",
                stats.simulated, stats.cache_hits
            )
        });
        // The first JSONL (warm: the staging sweep's) must parse and hold
        // every plan cell; every later one must repeat it byte for byte.
        let reference = reference.get_or_insert_with(|| {
            let text = staged.as_ref().map_or(&swept.text, |(_, text)| text);
            let parsed = parse_sweep_file(&file.display().to_string(), text);
            out.check(parsed.as_ref().is_ok_and(|f| f.entries.len() == cells), || {
                format!(
                    "sweep JSONL does not hold the {cells} plan cells: {:?}",
                    parsed.map(|f| f.entries.len())
                )
            });
            text.clone()
        });
        out.check(&swept.text == reference, || {
            "sweep JSONL is not byte-identical to the first sweep's (warm: the staging sweep's)"
                .into()
        });
        if traced {
            kept = Some((swept, cache));
        } else if !warm {
            let _ = std::fs::remove_dir_all(&cache);
        }
        let _ = std::fs::remove_file(&file);
    }
    tracer.enabled = ctx.trace;
    host.finish(&mut out);
    let setup: Vec<f64> = plan_secs.iter().zip(&open_secs).map(|(p, o)| p + o).collect();
    out.set("setup_s", median(&setup));
    out.set("bench.plan_ms", median(&plan_secs) * 1e3);
    out.set("bench.cache_open_ms", median(&open_secs) * 1e3);
    out.note("cells", reps[0].cells);
    out.note("figures", figures(ctx).join(","));

    if !ctx.trace {
        out.set_job_metrics(&reps);
        out.set("peak_rss_mb", peak.unwrap_or(0.0));
        return Ok(out);
    }
    out.set_trace_overhead(&reps);
    let (mut swept, cache) = kept.expect("traced runs keep a sweep");
    let settings = settings(ctx, &cache);
    let reports: Vec<&RunReport> =
        swept.plan.cells().iter().map(|(k, s, _)| swept.matrix.get_seeded(k, *s)).collect();
    layers::check_audit(&mut out, &reports);
    layers::report_counters(&mut tracer, &mut out, &reports);
    out.set("bench.hit_ratio", swept.stats.cache_hits as f64 / swept.stats.requested.max(1) as f64);

    // Rendering alone: every cell is memoized now, so ensuring is free.
    let t0 = Instant::now();
    let rendered = tracer.span("bench.render", 0, |_| {
        run_shard(&swept.plan, Shard::full(), &settings, &mut swept.matrix)
    })?;
    let render_secs = t0.elapsed().as_secs_f64();
    out.set("bench.render_ms", render_secs * 1e3);
    out.check(rendered.0 == swept.text, || "re-rendering changed the sweep JSONL".into());

    // Storing every report into a fresh cache, then decoding it back.
    let entries: Vec<(String, RunReport)> = swept
        .plan
        .cells()
        .iter()
        .map(|(k, s, fp)| (fp.clone(), swept.matrix.get_seeded(k, *s).clone()))
        .collect();
    let store_dir = ctx.fresh_dir("store");
    let mut disk =
        DiskCache::open(&store_dir).map_err(|e| format!("opening {}: {e}", store_dir.display()))?;
    let t0 = Instant::now();
    let stored = tracer.span("bench.cache_store", 0, |_| disk.store(entries));
    out.set("bench.cache_store_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.check(stored.is_ok(), || format!("storing the reports failed: {stored:?}"));
    let (decode_dir, decode_secs) = match &staged {
        Some((dir, _)) => (dir.clone(), median(&open_secs)),
        None => {
            let t0 = Instant::now();
            let reopened = tracer.span("bench.cache_open", 0, |_| DiskCache::open(&store_dir));
            let secs = t0.elapsed().as_secs_f64();
            out.check(reopened.is_ok_and(|c| c.len() == swept.plan.len()), || {
                "re-opening the stored cache lost entries".into()
            });
            (store_dir.clone(), secs)
        }
    };
    out.set("serde.decode_mb_s", dir_bytes(&decode_dir) as f64 / decode_secs / (1024.0 * 1024.0));

    if !warm {
        serial_pass(ctx, &mut tracer, &mut out, &swept, &settings, render_secs);
    }
    layers::finish_traced(ctx, &mut tracer, &mut out);
    Ok(out)
}

/// Replays the cold sweep's pool jobs one at a time: each key's seeds as
/// one `sweep_seeds` job on one thread, as a pool worker runs it. Gives
/// per-job engine time, engine construction time and the pool's
/// utilization (serial busy time over threads × parallel ensure span).
fn serial_pass(
    ctx: &Ctx,
    tracer: &mut Tracer,
    out: &mut Outcome,
    swept: &Swept,
    settings: &Settings,
    render_secs: f64,
) {
    let mut jobs: Vec<(&Key, Vec<u64>)> = Vec::new();
    for (key, seed, _) in swept.plan.cells() {
        match jobs.iter_mut().find(|(k, _)| *k == key) {
            Some((_, seeds)) => seeds.push(*seed),
            None => jobs.push((key, vec![*seed])),
        }
    }
    let mut busy = Vec::with_capacity(jobs.len());
    let mut engine_new = Vec::with_capacity(jobs.len());
    let mut events = 0u64;
    let mut mismatched = 0usize;
    for (group, (key, seeds)) in jobs.iter().enumerate() {
        let group = group as u64;
        let cfg = key_config(key, settings);
        let t0 = Instant::now();
        let engine = tracer.span("core.engine_new", group, |_| Engine::new(cfg.clone()));
        engine_new.push(t0.elapsed().as_secs_f64());
        drop(engine);
        let t0 = Instant::now();
        let reports = tracer.span("bench.pool_job", group, |_| {
            memnet_core::sweep_seeds(vec![(cfg, seeds.clone())], 1)
        });
        busy.push(t0.elapsed().as_secs_f64());
        for (seed, report) in seeds.iter().zip(reports.into_iter().flatten()) {
            events += report.events_processed;
            if report_digest(&report) != report_digest(swept.matrix.get_seeded(key, *seed)) {
                mismatched += 1;
            }
        }
    }
    out.ops(jobs.len() as u64);
    out.check(mismatched == 0, || {
        format!("{mismatched} serial-pass report(s) differ from the sweep's")
    });
    let busy_total: f64 = busy.iter().sum();
    let ms: Vec<f64> = busy.iter().map(|s| s * 1e3).collect();
    out.set("bench.pool_jobs", jobs.len() as f64);
    out.set("bench.cell_ms_p50", quantile(&ms, 0.5));
    out.set("bench.cell_ms_p99", quantile(&ms, 0.99));
    out.set("core.events_per_s", events as f64 / busy_total);
    out.set("core.engine_new_us", median(&engine_new) * 1e6);
    let ensure_secs: Vec<f64> =
        tracer.secs("bench.run_shard").into_iter().map(|s| (s - render_secs).max(1e-9)).collect();
    out.set("bench.pool_utilization", busy_total / (ctx.threads as f64 * median(&ensure_secs)));
}
