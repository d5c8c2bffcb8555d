//! Sweep manifest execution: the farm-out payload and the offline path.
//!
//! A v2 manifest with a `sweep` section describes a whole figure sweep.
//! The daemon splits it into `shards` deterministic slices (see the
//! bench crate's `shard` module) and runs each slice as one queue item;
//! the last slice to finish merges every shard's result text back into
//! output byte-identical to an unsharded `memnet sweep` and — when the
//! spec names an `out` path — writes it server-side.
//!
//! [`run_sweep_manifest`] is the offline twin (`memnet run-manifest` on
//! a sweep manifest): same plan, same shard runs executed sequentially
//! in-process, same merge. Because the merged text carries no
//! cache-warmth artefacts, the offline output file is byte-identical to
//! the daemon's for the same document.
//!
//! Either way the caller receives a [`SweepPayload`]
//! (`memnet-sweep-result` v1): the sweep's identity (figures, shard
//! count, cell count, fingerprint-set digest), aggregate ensure counters
//! summed across shards, and an exit following the [`crate::job`]
//! contract (`0` pass, `5` cancelled).

use memnet_bench::shard::{self, Shard, SweepPlan};
use memnet_bench::{EnsureStats, Matrix};
use serde::{Deserialize, Serialize};

use crate::manifest::{Manifest, ManifestError, SweepSpec};

/// Sweep result payload schema name.
pub const SWEEP_RESULT_SCHEMA: &str = "memnet-sweep-result";
/// Sweep result payload schema version.
pub const SWEEP_RESULT_VERSION: u64 = 1;

/// The standardized result of one sweep manifest.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPayload {
    /// Always [`SWEEP_RESULT_SCHEMA`].
    pub schema: String,
    /// Always [`SWEEP_RESULT_VERSION`].
    pub v: u64,
    /// The figures the sweep enumerated.
    pub figures: Vec<String>,
    /// How many shards the sweep was split into.
    pub shards: u32,
    /// Total (deduplicated) cell count.
    pub cells: u64,
    /// Fingerprint-set digest (the sweep's identity).
    pub set: String,
    /// `completed` or `cancelled`.
    pub stop: String,
    /// Outcome keyword: `pass` or `cancelled`.
    pub exit: String,
    /// Process exit code per the [`crate::job`] contract.
    pub exit_code: i32,
    /// Cells requested across all shards (equals `cells` on completion).
    pub requested: u64,
    /// Cells served from per-shard in-memory matrices.
    pub memoized: u64,
    /// Cells served from the persistent result cache.
    pub cache_hits: u64,
    /// Cells actually simulated.
    pub simulated: u64,
    /// Where the merged result text was written, if anywhere.
    pub out: Option<String>,
}

/// In-flight dedup identity of a sweep submission. Two manifests whose
/// figure lists, shard counts, fingerprint sets and output paths agree
/// run the sweep once and share its events.
pub fn sweep_job_key(spec: &SweepSpec, plan: &SweepPlan) -> String {
    format!(
        "sweep|figs={}|shards={}|set={}|out={}",
        spec.figures.join(","),
        spec.shards,
        plan.set_digest,
        spec.out.as_deref().unwrap_or("-"),
    )
}

/// Folds a finished (or cancelled) sweep into the standardized payload.
pub fn sweep_payload(
    spec: &SweepSpec,
    plan: &SweepPlan,
    stats: EnsureStats,
    cancelled: bool,
) -> SweepPayload {
    let (stop, exit, exit_code) = if cancelled {
        ("cancelled", "cancelled", crate::job::EXIT_CANCELLED)
    } else {
        ("completed", "pass", crate::job::EXIT_PASS)
    };
    SweepPayload {
        schema: SWEEP_RESULT_SCHEMA.to_owned(),
        v: SWEEP_RESULT_VERSION,
        figures: spec.figures.clone(),
        shards: spec.shards,
        cells: plan.len() as u64,
        set: plan.set_digest.clone(),
        stop: stop.to_owned(),
        exit: exit.to_owned(),
        exit_code,
        requested: stats.requested as u64,
        memoized: stats.memoized as u64,
        cache_hits: stats.cache_hits as u64,
        simulated: stats.simulated as u64,
        out: spec.out.clone(),
    }
}

/// Parses and merges per-shard result texts (produced by
/// [`shard::run_shard`]) into the final sweep text. `names` label parse
/// errors; pass one per text, in the same order.
pub fn merge_texts(named: &[(String, String)]) -> Result<shard::Merged, String> {
    let mut files = Vec::with_capacity(named.len());
    for (name, text) in named {
        files.push(shard::parse_sweep_file(name, text)?);
    }
    shard::merge(&files)
}

/// Runs one sweep manifest offline: every shard sequentially, each on a
/// fresh in-memory matrix with no persistent cache, then the merge. The
/// merged text is written to the spec's `out` path when set, and is
/// byte-identical to what the daemon writes for the same document.
pub fn run_sweep_manifest(manifest: &Manifest) -> Result<(SweepPayload, String), ManifestError> {
    let spec = manifest
        .sweep
        .as_ref()
        .ok_or_else(|| ManifestError::new("sweep", None, "not a sweep manifest"))?;
    let err = |msg: String| ManifestError::new("sweep", None, msg);
    let plan = SweepPlan::new(&spec.figures, &spec.settings).map_err(err)?;
    let mut texts = Vec::with_capacity(spec.shards as usize);
    let mut stats = EnsureStats::default();
    for index in 0..spec.shards {
        let mut matrix = Matrix::new();
        let piece = Shard { index, of: spec.shards };
        let (text, part) =
            shard::run_shard(&plan, piece, &spec.settings, &mut matrix).map_err(err)?;
        stats += part;
        texts.push((format!("shard {piece}"), text));
    }
    let merged = merge_texts(&texts).map_err(err)?;
    if let Some(path) = &spec.out {
        std::fs::write(path, &merged.text)
            .map_err(|e| ManifestError::new("sweep.out", None, format!("writing {path}: {e}")))?;
    }
    Ok((sweep_payload(spec, &plan, stats, false), merged.text))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sweep_manifest(extra: &str) -> Manifest {
        let text = format!(
            "{{\"schema\":\"memnet-manifest\",\"v\":2,\
             \"sweep\":{{\"figures\":[\"model_diff\"],\"eval_us\":20{extra}}}}}"
        );
        Manifest::parse(&text).expect("test sweep manifest parses")
    }

    #[test]
    fn offline_sharded_sweep_merges_byte_identical_to_unsharded() {
        let (one, unsharded) = run_sweep_manifest(&sweep_manifest("")).unwrap();
        let (three, merged) = run_sweep_manifest(&sweep_manifest(",\"shards\":3")).unwrap();
        assert_eq!(merged, unsharded, "3-way merge must be byte-identical");
        assert_eq!(one.shards, 1);
        assert_eq!(three.shards, 3);
        assert_eq!(one.cells, three.cells);
        assert_eq!(one.set, three.set);
        assert_eq!(three.exit, "pass");
        assert_eq!(three.exit_code, 0);
        // Shards partition the cells: aggregate counters sum to the
        // unsharded run's totals (no cache, so everything simulates).
        assert_eq!(three.requested, one.requested);
        assert_eq!(three.simulated, one.simulated);
        assert_eq!(three.requested, three.cells);
    }

    #[test]
    fn job_key_tracks_the_sweep_identity() {
        let m = sweep_manifest(",\"shards\":2");
        let spec = m.sweep.as_ref().unwrap();
        let plan = SweepPlan::new(&spec.figures, &spec.settings).unwrap();
        let key = sweep_job_key(spec, &plan);
        assert!(key.starts_with("sweep|figs=model_diff|shards=2|set="), "{key}");
        let mut named = spec.clone();
        named.out = Some("merged.jsonl".to_owned());
        assert_ne!(key, sweep_job_key(&named, &plan), "out path is part of the identity");
    }
}
