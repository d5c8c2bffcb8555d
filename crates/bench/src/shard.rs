//! Deterministic sweep sharding and merge.
//!
//! The figure matrices are embarrassingly parallel: every cell is an
//! independent simulation keyed by its cache fingerprint. This module
//! partitions a sweep into `n` disjoint shards so that independent
//! processes (CI matrix jobs, serve-daemon workers, machines sharing a
//! cache directory) each compute a stable subset, and merges the
//! per-shard result files back into output **byte-identical** to an
//! unsharded run.
//!
//! Three properties make the partition safe to distribute:
//!
//! - **Deterministic**: a cell's shard is the FNV-1a hash of its cache
//!   fingerprint modulo `n` — no enumeration counters, no thread-pool
//!   ordering, no RNG. Any two builds that agree on the fingerprint
//!   format agree on the partition.
//! - **Disjoint and complete**: each fingerprint hashes to exactly one
//!   residue, so the shards cover the matrix exactly once.
//! - **Stable cell ordering**: the sweep plan enumerates figures in
//!   canonical registry order and dedups by first occurrence, so every
//!   shard (and the merge) walks the same cell list regardless of
//!   `MEMNET_THREADS` or which figures share cells.
//!
//! # File format (`memnet-sweep` v1)
//!
//! One JSON object per line:
//!
//! ```json
//! {"schema":"memnet-sweep","v":1,"shard":0,"of":4,"figures":[...],
//!  "eval_ps":...,"seed":...,"obs":false,"cells":112,"set":"<digest>"}
//! {"fp":"v11|...","report":{...}}
//! {"end":true,"cells":28,"requested":28,"memoized":0,"cache_hits":3,"simulated":25}
//! ```
//!
//! The header pins everything that defines the sweep: the figure list,
//! the fingerprint-bearing settings (`eval_ps`, `seed`, `obs`), the
//! total cell count and a digest of the full fingerprint set. [`merge`]
//! refuses files whose headers disagree, whose digest does not match
//! this binary's own enumeration, or whose cells are missing — naming
//! the missing shard and cells. An unsharded run (`0/1`) and a merged
//! file carry a plain `{"end":true,"cells":N}` footer (ensure counters
//! depend on cache warmth, so they would break byte-identity); shard
//! pieces (`of > 1`) append their counters to the footer so the merge
//! can report aggregate totals that sum to the unsharded run's.

use std::collections::{HashMap, HashSet};
use std::fmt;

use memnet_simcore::FastHashState;
use serde::json::{self, Value};

use crate::cache::fingerprint;
use crate::figures;
use crate::matrix::{EnsureStats, Key, Matrix};
use crate::settings::Settings;

/// Schema tag of per-shard (and merged) sweep result files.
pub const SWEEP_SCHEMA: &str = "memnet-sweep";
/// Version of the sweep file format this build reads and writes.
pub const SWEEP_VERSION: u64 = 1;
/// Upper bound on the shard count — far above any useful fan-out, it
/// only guards against typos like `--shard 0/40000`.
pub const MAX_SHARDS: u32 = 4096;

/// One shard of a sweep: `index` out of `of` total shards. The default
/// (and [`Shard::full`]) is `0/1`, the unsharded whole.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Shard {
    /// Zero-based shard index, `< of`.
    pub index: u32,
    /// Total shard count, `>= 1`.
    pub of: u32,
}

impl Default for Shard {
    fn default() -> Self {
        Shard::full()
    }
}

impl Shard {
    /// The unsharded whole: shard `0/1`.
    pub fn full() -> Self {
        Shard { index: 0, of: 1 }
    }

    /// Parses `"i/n"` (as passed to `--shard`), validating ranges.
    pub fn parse(text: &str) -> Result<Self, String> {
        let (i, n) = text
            .split_once('/')
            .ok_or_else(|| format!("invalid shard {text:?}: expected I/N, e.g. 0/4"))?;
        let index: u32 =
            i.parse().map_err(|_| format!("invalid shard {text:?}: bad index {i:?}"))?;
        let of: u32 =
            n.parse().map_err(|_| format!("invalid shard {text:?}: bad shard count {n:?}"))?;
        Shard { index, of }.validate().map_err(|e| format!("invalid shard {text:?}: {e}"))
    }

    /// Checks `1 <= of <= MAX_SHARDS` and `index < of`.
    pub fn validate(self) -> Result<Self, String> {
        if self.of == 0 {
            return Err("shard count must be at least 1".into());
        }
        if self.of > MAX_SHARDS {
            return Err(format!("shard count {} exceeds the maximum {MAX_SHARDS}", self.of));
        }
        if self.index >= self.of {
            return Err(format!("index {} out of range 0..{}", self.index, self.of));
        }
        Ok(self)
    }

    /// Whether this shard owns the cell with the given fingerprint.
    pub fn contains(&self, fingerprint: &str) -> bool {
        assign(fingerprint, self.of) == self.index
    }
}

impl fmt::Display for Shard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.of)
    }
}

/// 64-bit FNV-1a, the same digest discipline the serve manifests use.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The shard that owns a cell: FNV-1a of its cache fingerprint mod the
/// shard count. Depends only on the fingerprint text, so the partition
/// is identical across processes, machines and thread counts.
pub fn assign(fingerprint: &str, of: u32) -> u32 {
    if of <= 1 {
        return 0;
    }
    (fnv1a64(fingerprint.as_bytes()) % u64::from(of)) as u32
}

/// The full cell list of a sweep: every figure's keys in canonical
/// registry order, deduplicated (figures share their full-power
/// baselines), each paired with its cache fingerprint.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The figure names this plan enumerates, in the requested order.
    pub figures: Vec<String>,
    /// Digest of the full fingerprint list — shard files must agree on
    /// it before they are allowed to merge.
    pub set_digest: String,
    cells: Vec<(Key, u64, String)>,
}

impl SweepPlan {
    /// Enumerates the plan for the given figures: every figure's keys in
    /// registry order, first occurrence wins, each under every seed of
    /// [`Settings::seed_list`] (one cell per `(key, seed)`) with the
    /// [`fingerprint`] of the configuration it runs. Fails (naming the
    /// valid figures) if a name is not in the registry.
    pub fn new(figures: &[String], settings: &Settings) -> Result<SweepPlan, String> {
        if figures.is_empty() {
            return Err("a sweep needs at least one figure".into());
        }
        let mut keys: Vec<Key> = Vec::new();
        for name in figures {
            keys.extend(figures::figure_keys(name).ok_or_else(|| {
                format!(
                    "unknown figure {name:?}; matrix-backed figures are: {}",
                    figures::sweep_figures().join(", ")
                )
            })?);
        }
        let seeds = settings.seed_list();
        let mut cells: Vec<(Key, u64, String)> = Vec::new();
        let mut seen: HashSet<&Key, FastHashState> = HashSet::default();
        for key in &keys {
            if !seen.insert(key) {
                continue;
            }
            // One configuration per key; only its seed varies by cell.
            let mut cfg = key.config(settings, settings.seed);
            for &seed in &seeds {
                cfg.seed = seed;
                cells.push((key.clone(), seed, fingerprint(&cfg)));
            }
        }
        let joined: Vec<&str> = cells.iter().map(|(_, _, fp)| fp.as_str()).collect();
        let set_digest = format!("{:016x}", fnv1a64(joined.join("\n").as_bytes()));
        Ok(SweepPlan { figures: figures.to_vec(), set_digest, cells })
    }

    /// All `(key, seed, fingerprint)` cells in canonical order.
    pub fn cells(&self) -> &[(Key, u64, String)] {
        &self.cells
    }

    /// Total cell count.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the plan is empty (it never is for registry figures).
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The `(key, seed)` cells the given shard owns, in canonical order.
    /// Seeds shard independently: two seeds of one key may land on
    /// different shards, because ownership follows the fingerprint.
    pub fn shard_cells(&self, shard: Shard) -> Vec<(Key, u64)> {
        self.cells
            .iter()
            .filter(|(_, _, fp)| shard.contains(fp))
            .map(|(key, seed, _)| (key.clone(), *seed))
            .collect()
    }
}

fn header_line(shard: Shard, plan: &SweepPlan, settings: &Settings) -> String {
    // The extra-seed list only appears when set, so single-seed sweep
    // files stay byte-identical to those of earlier builds.
    let seeds = if settings.seeds.is_empty() {
        String::new()
    } else {
        format!("\"seeds\":{},", json::to_string(&settings.seeds))
    };
    format!(
        "{{\"schema\":\"{SWEEP_SCHEMA}\",\"v\":{SWEEP_VERSION},\"shard\":{},\"of\":{},\
         \"figures\":{},\"eval_ps\":{},\"seed\":{},{seeds}\"obs\":{},\"cells\":{},\"set\":\"{}\"}}\n",
        shard.index,
        shard.of,
        json::to_string(&plan.figures),
        settings.eval_period.as_ps(),
        settings.seed,
        settings.obs,
        plan.len(),
        plan.set_digest,
    )
}

fn footer_line(shard: Shard, cells: usize, stats: EnsureStats) -> String {
    if shard.of == 1 {
        // Unsharded (and merged) output stays free of cache-warmth
        // artefacts so repeat runs are byte-identical.
        format!("{{\"end\":true,\"cells\":{cells}}}\n")
    } else {
        format!(
            "{{\"end\":true,\"cells\":{cells},\"requested\":{},\"memoized\":{},\
             \"cache_hits\":{},\"simulated\":{}}}\n",
            stats.requested, stats.memoized, stats.cache_hits, stats.simulated,
        )
    }
}

/// Runs one shard of the plan — ensuring exactly the cells the shard
/// owns — and renders its `memnet-sweep` result text.
///
/// # Errors
///
/// Never fails: every plan cell is simulable. The `Result` remains for
/// the callers that propagate it.
pub fn run_shard(
    plan: &SweepPlan,
    shard: Shard,
    settings: &Settings,
    matrix: &mut Matrix,
) -> Result<(String, EnsureStats), String> {
    let shard_settings = Settings { shard, ..settings.clone() };
    let cells = plan.shard_cells(shard);
    let stats = matrix.ensure_cells(&cells, &shard_settings);
    let mut out = header_line(shard, plan, settings);
    let mut count = 0usize;
    for (key, seed, fp) in plan.cells() {
        if !shard.contains(fp) {
            continue;
        }
        out.push_str("{\"fp\":");
        json::append(&mut out, fp.as_str());
        out.push_str(",\"report\":");
        json::append(&mut out, matrix.get_seeded(key, *seed));
        out.push_str("}\n");
        count += 1;
    }
    out.push_str(&footer_line(shard, count, stats));
    Ok((out, stats))
}

/// A parsed per-shard sweep result file.
#[derive(Debug, Clone)]
pub struct ShardFile {
    /// Display name (path) used in error messages.
    pub name: String,
    /// Which shard this file covers.
    pub shard: Shard,
    /// Figure list from the header.
    pub figures: Vec<String>,
    /// Evaluation period in picoseconds.
    pub eval_ps: u64,
    /// Sweep seed.
    pub seed: u64,
    /// Extra replica seeds per cell (empty for single-seed sweeps; the
    /// header omits the field entirely then, so older files parse).
    pub seeds: Vec<u64>,
    /// Whether observability was enabled for the sweep.
    pub obs: bool,
    /// Total cells of the *whole* sweep (all shards).
    pub total_cells: usize,
    /// Fingerprint-set digest from the header.
    pub set: String,
    /// `(fingerprint, raw entry line)` in file order. Raw lines are
    /// re-emitted verbatim by [`merge`] so float formatting can never
    /// drift between a sharded and an unsharded run.
    pub entries: Vec<(String, String)>,
    /// Ensure counters from the footer (zero for `0/1` files).
    pub stats: EnsureStats,
}

fn get_num<T: std::str::FromStr>(value: &Value, key: &str, name: &str) -> Result<T, String> {
    value.get(key).and_then(|v| v.num::<T>()).map_err(|e| format!("{name}: bad sweep header: {e}"))
}

/// Parses one `memnet-sweep` file. `name` labels errors (use the path).
pub fn parse_sweep_file(name: &str, text: &str) -> Result<ShardFile, String> {
    let mut lines = text.lines();
    let header = lines.next().ok_or_else(|| format!("{name}: empty sweep file"))?;
    let hv = json::parse(header).map_err(|e| format!("{name}: bad sweep header: {e}"))?;
    let schema = hv
        .get("schema")
        .and_then(|v| v.as_str())
        .map_err(|e| format!("{name}: bad sweep header: {e}"))?;
    if schema != SWEEP_SCHEMA {
        return Err(format!("{name}: not a {SWEEP_SCHEMA} file (schema {schema:?})"));
    }
    let v: u64 = get_num(&hv, "v", name)?;
    if v != SWEEP_VERSION {
        return Err(format!(
            "{name}: unsupported sweep schema v{v} (this build speaks v{SWEEP_VERSION})"
        ));
    }
    let shard = Shard { index: get_num(&hv, "shard", name)?, of: get_num(&hv, "of", name)? }
        .validate()
        .map_err(|e| format!("{name}: {e}"))?;
    let figures: Vec<String> = hv
        .get("figures")
        .and_then(|v| v.as_array()?.iter().map(|f| f.as_str().map(str::to_string)).collect())
        .map_err(|e| format!("{name}: bad sweep header: {e}"))?;
    let obs = match hv.get("obs") {
        Ok(Value::Bool(b)) => *b,
        _ => return Err(format!("{name}: bad sweep header: missing boolean \"obs\"")),
    };
    let seeds: Vec<u64> = match hv.get("seeds") {
        Err(_) => Vec::new(),
        Ok(v) => v
            .as_array()
            .and_then(|items| items.iter().map(|s| s.num::<u64>()).collect())
            .map_err(|e| format!("{name}: bad sweep header: {e}"))?,
    };
    let mut file = ShardFile {
        name: name.to_string(),
        shard,
        figures,
        eval_ps: get_num(&hv, "eval_ps", name)?,
        seed: get_num(&hv, "seed", name)?,
        seeds,
        obs,
        total_cells: get_num(&hv, "cells", name)?,
        set: hv
            .get("set")
            .and_then(|v| v.as_str())
            .map_err(|e| format!("{name}: bad sweep header: {e}"))?
            .to_string(),
        entries: Vec::new(),
        stats: EnsureStats::default(),
    };
    let mut footer: Option<Value> = None;
    for (idx, line) in lines.enumerate() {
        let lineno = idx + 2;
        if footer.is_some() {
            return Err(format!("{name}:{lineno}: data after the end-of-file footer"));
        }
        let value = json::parse(line).map_err(|e| format!("{name}:{lineno}: bad line: {e}"))?;
        if value.get("end").is_ok() {
            footer = Some(value);
            continue;
        }
        let fp = value
            .get("fp")
            .and_then(|v| v.as_str())
            .map_err(|e| format!("{name}:{lineno}: bad result line: {e}"))?;
        value.get("report").map_err(|e| format!("{name}:{lineno}: bad result line: {e}"))?;
        file.entries.push((fp.to_string(), line.to_string()));
    }
    let footer =
        footer.ok_or_else(|| format!("{name}: truncated sweep file (no end-of-file footer)"))?;
    let cells: usize = get_num(&footer, "cells", name)?;
    if cells != file.entries.len() {
        return Err(format!(
            "{name}: footer declares {cells} cell(s) but the file holds {}",
            file.entries.len()
        ));
    }
    if file.shard.of > 1 {
        file.stats = EnsureStats {
            requested: get_num(&footer, "requested", name)?,
            memoized: get_num(&footer, "memoized", name)?,
            cache_hits: get_num(&footer, "cache_hits", name)?,
            simulated: get_num(&footer, "simulated", name)?,
        };
    }
    Ok(file)
}

/// A completed merge: the combined sweep text plus aggregate counters.
#[derive(Debug, Clone)]
pub struct Merged {
    /// Merged result text, byte-identical to an unsharded run.
    pub text: String,
    /// How many shards the sweep was split into.
    pub shards: u32,
    /// Total cells.
    pub cells: usize,
    /// Figure list.
    pub figures: Vec<String>,
    /// Fingerprint-set digest.
    pub set: String,
    /// Sum of the shards' ensure counters; `requested` equals the cell
    /// total an unsharded run would report.
    pub stats: EnsureStats,
}

fn header_mismatch(a: &ShardFile, b: &ShardFile, field: &str) -> String {
    format!("{} and {} disagree on {field}; they are not shards of the same sweep", a.name, b.name)
}

/// Merges per-shard sweep files into output byte-identical to an
/// unsharded run. Refuses mismatched headers, a fingerprint set that
/// differs from this binary's own enumeration, duplicate or missing
/// shards, and missing or foreign cells — naming the offender.
pub fn merge(files: &[ShardFile]) -> Result<Merged, String> {
    let first = files.first().ok_or("merge needs at least one shard file")?;
    for other in &files[1..] {
        if other.shard.of != first.shard.of {
            return Err(header_mismatch(first, other, "the shard count"));
        }
        if other.figures != first.figures {
            return Err(header_mismatch(first, other, "the figure list"));
        }
        if other.eval_ps != first.eval_ps {
            return Err(header_mismatch(first, other, "eval_ps"));
        }
        if other.seed != first.seed {
            return Err(header_mismatch(first, other, "the seed"));
        }
        if other.seeds != first.seeds {
            return Err(header_mismatch(first, other, "the extra-seed list"));
        }
        if other.obs != first.obs {
            return Err(header_mismatch(first, other, "the obs setting"));
        }
        if other.total_cells != first.total_cells || other.set != first.set {
            return Err(header_mismatch(first, other, "the fingerprint set"));
        }
    }
    let of = first.shard.of;
    let mut have: Vec<Option<&ShardFile>> = vec![None; of as usize];
    for file in files {
        let slot = &mut have[file.shard.index as usize];
        if let Some(prev) = slot {
            return Err(format!(
                "shard {} appears twice ({} and {})",
                file.shard, prev.name, file.name
            ));
        }
        *slot = Some(file);
    }

    // Re-derive the plan from the header and insist the files describe
    // the exact same cell set this binary enumerates.
    let settings = Settings {
        eval_period: memnet_simcore::SimDuration::from_ps(first.eval_ps),
        seed: first.seed,
        seeds: first.seeds.clone(),
        obs: first.obs,
        ..Settings::default()
    };
    let plan = SweepPlan::new(&first.figures, &settings)?;
    if plan.set_digest != first.set || plan.len() != first.total_cells {
        return Err(format!(
            "fingerprint set mismatch: the shard files declare {} cell(s) with set {}, but this \
             binary enumerates {} cell(s) with set {} for the same figures — were the shards \
             produced by a build with a different cache schema?",
            first.total_cells,
            first.set,
            plan.len(),
            plan.set_digest,
        ));
    }

    if have.iter().any(Option::is_none) {
        let mut msg = String::from("incomplete sweep:");
        for (index, slot) in have.iter().enumerate() {
            if slot.is_some() {
                continue;
            }
            let shard = Shard { index: index as u32, of };
            let owned: Vec<&str> = plan
                .cells()
                .iter()
                .filter(|(_, _, fp)| shard.contains(fp))
                .map(|(_, _, fp)| fp.as_str())
                .collect();
            let sample = owned.first().copied().unwrap_or("-");
            msg.push_str(&format!(
                "\n  missing shard {shard} ({} of {} cells, e.g. {sample:?})",
                owned.len(),
                plan.len(),
            ));
        }
        msg.push_str("\npass every shard's output file to merge");
        return Err(msg);
    }

    // Index each shard's entries and reject cells that do not belong.
    let mut maps: Vec<HashMap<&str, &str>> = vec![HashMap::new(); of as usize];
    let owner: HashMap<&str, u32> =
        plan.cells().iter().map(|(_, _, fp)| (fp.as_str(), assign(fp, of))).collect();
    for file in files {
        for (fp, line) in &file.entries {
            match owner.get(fp.as_str()) {
                None => {
                    return Err(format!("{}: cell {fp:?} is not part of this sweep", file.name));
                }
                Some(&shard_index) if shard_index != file.shard.index => {
                    return Err(format!(
                        "{}: cell {fp:?} belongs to shard {}/{of}, not {}",
                        file.name, shard_index, file.shard
                    ));
                }
                Some(_) => {}
            }
            if maps[file.shard.index as usize].insert(fp.as_str(), line.as_str()).is_some() {
                return Err(format!("{}: cell {fp:?} appears twice", file.name));
            }
        }
    }

    // Walk the canonical plan, re-emitting each shard's lines verbatim.
    let mut text = header_line(Shard::full(), &plan, &settings);
    for (_, _, fp) in plan.cells() {
        let index = assign(fp, of);
        let line = maps[index as usize].get(fp.as_str()).ok_or_else(|| {
            format!(
                "shard {index}/{of} ({}) is missing cell {fp:?}",
                have[index as usize].expect("checked above").name
            )
        })?;
        text.push_str(line);
        text.push('\n');
    }
    text.push_str(&footer_line(Shard::full(), plan.len(), EnsureStats::default()));

    let mut stats = EnsureStats::default();
    for file in files {
        stats += file.stats;
    }
    Ok(Merged {
        text,
        shards: of,
        cells: plan.len(),
        figures: first.figures.clone(),
        set: first.set.clone(),
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn default_figures() -> Vec<String> {
        figures::sweep_figures().into_iter().map(String::from).collect()
    }

    #[test]
    fn shard_parsing_round_trips_and_rejects_nonsense() {
        let s = Shard::parse("2/4").unwrap();
        assert_eq!((s.index, s.of), (2, 4));
        assert_eq!(s.to_string(), "2/4");
        assert_eq!(Shard::parse("0/1").unwrap(), Shard::full());
        for bad in ["", "3", "a/4", "1/b", "4/4", "5/4", "0/0", "0/99999"] {
            assert!(Shard::parse(bad).is_err(), "{bad:?} should not parse");
        }
    }

    #[test]
    fn assignment_is_a_pure_function_of_the_fingerprint() {
        let fp = "v9|eval_ps=1000000|seed=7|wl=mixA";
        let first = assign(fp, 5);
        assert!(first < 5);
        for _ in 0..100 {
            assert_eq!(assign(fp, 5), first);
        }
        assert_eq!(assign(fp, 1), 0);
    }

    #[test]
    fn plan_enumerates_once_per_fingerprint_and_digest_is_stable() {
        let settings = Settings::default();
        let plan = SweepPlan::new(&default_figures(), &settings).unwrap();
        let mut seen = std::collections::HashSet::new();
        for (_, _, fp) in plan.cells() {
            assert!(seen.insert(fp.clone()), "duplicate cell {fp}");
        }
        let again = SweepPlan::new(&default_figures(), &settings).unwrap();
        assert_eq!(plan.set_digest, again.set_digest);
        assert_eq!(plan.len(), again.len());
        assert_eq!(plan.len(), 2336, "the full registry's cells at one seed");
        // Different fingerprint-bearing settings change the set digest.
        let other = Settings { seed: settings.seed + 1, ..Settings::default() };
        let moved = SweepPlan::new(&default_figures(), &other).unwrap();
        assert_ne!(plan.set_digest, moved.set_digest);
    }

    #[test]
    fn plan_rejects_unknown_figures_naming_the_valid_ones() {
        let settings = Settings::default();
        let err = SweepPlan::new(&["fig99".to_string()], &settings).unwrap_err();
        assert!(err.contains("fig99"), "{err}");
        assert!(err.contains("fig05"), "{err}");
        assert!(SweepPlan::new(&[], &settings).is_err());
    }

    #[test]
    fn shard_cells_partition_the_plan() {
        let settings = Settings::default();
        let plan = SweepPlan::new(&default_figures(), &settings).unwrap();
        for of in [1u32, 2, 3, 7] {
            let total: usize =
                (0..of).map(|index| plan.shard_cells(Shard { index, of }).len()).sum();
            assert_eq!(total, plan.len(), "shards {of} do not cover the plan");
        }
    }

    #[test]
    fn extra_seeds_multiply_the_plan_and_shards_still_partition_it() {
        let base = Settings::default();
        let solo = SweepPlan::new(&default_figures(), &base).unwrap();
        let seeded = Settings { seeds: vec![base.seed + 1, base.seed + 2], ..base };
        let plan = SweepPlan::new(&default_figures(), &seeded).unwrap();
        assert_eq!(plan.len(), solo.len() * 3, "each extra seed adds one cell per key");
        assert_ne!(plan.set_digest, solo.set_digest);
        let mut seen = std::collections::HashSet::new();
        for (_, _, fp) in plan.cells() {
            assert!(seen.insert(fp.clone()), "duplicate cell {fp}");
        }
        for of in [1u32, 3] {
            let total: usize =
                (0..of).map(|index| plan.shard_cells(Shard { index, of }).len()).sum();
            assert_eq!(total, plan.len(), "shards {of} do not cover the seeded plan");
        }
        // The base seed appearing again in the extras list dedupes away.
        let dup = Settings { seeds: vec![base.seed], ..Settings::default() };
        let same = SweepPlan::new(&default_figures(), &dup).unwrap();
        assert_eq!(same.len(), solo.len());
    }

    #[test]
    fn merge_requires_at_least_one_file() {
        assert!(merge(&[]).is_err());
    }
}
