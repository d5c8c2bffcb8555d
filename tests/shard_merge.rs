//! Sweep sharding and deterministic merge: partition properties over
//! every shard width, byte-identity of shard→merge against the
//! unsharded run (including a faults+obs configuration), and the
//! `memnet sweep` / `memnet merge` CLI exit contract.

use std::collections::HashSet;
use std::process::Command;

use memnet::bench::figures::sweep_figures;
use memnet::bench::shard::{self, Shard, SweepPlan};
use memnet::bench::{Matrix, Settings};
use memnet::simcore::SimDuration;
use proptest::prelude::*;

fn all_figures() -> Vec<String> {
    sweep_figures().into_iter().map(String::from).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For every shard width n in 1..=16, the shards partition the full
    /// figure matrix: each cell is owned by exactly one shard, the
    /// per-shard key lists cover the whole plan, and neither the plan
    /// nor the partition moves when the thread count changes.
    #[test]
    fn shards_partition_the_plan_at_every_width(n in 1u32..=16, threads in 1usize..=8) {
        let figures = all_figures();
        let base = Settings::default();
        let plan = SweepPlan::new(&figures, &base).unwrap();
        let alt = SweepPlan::new(&figures, &Settings { threads, ..base }).unwrap();
        prop_assert_eq!(
            &plan.set_digest, &alt.set_digest,
            "the plan identity is thread-count independent"
        );

        // Disjoint: exactly one shard owns each fingerprint.
        for (_, _, fp) in plan.cells() {
            let owners: Vec<u32> =
                (0..n).filter(|&i| Shard { index: i, of: n }.contains(fp)).collect();
            prop_assert_eq!(owners.len(), 1, "cell {} owned by shards {:?}", fp, &owners);
            prop_assert_eq!(owners[0], shard::assign(fp, n));
        }

        // Complete and stable: the shard slices sum to the plan, with no
        // duplicates, and are identical under a different thread count.
        let mut covered = HashSet::new();
        let mut total = 0usize;
        for index in 0..n {
            let piece = Shard { index, of: n };
            let cells = plan.shard_cells(piece);
            prop_assert_eq!(
                &cells, &alt.shard_cells(piece),
                "shard {} must not move with the thread count", piece
            );
            total += cells.len();
            for cell in cells {
                prop_assert!(covered.insert(cell), "duplicate (key, seed) across shards");
            }
        }
        prop_assert_eq!(total, plan.len(), "shards cover every cell exactly once");
    }
}

/// Library-level byte-identity on a configuration that exercises both
/// the fault-injection key dimension and per-epoch observability: a
/// 3-way shard→merge of the `faults` figure with `obs` on reproduces
/// the unsharded sweep text exactly.
#[test]
fn sharded_merge_is_byte_identical_including_faults_and_obs() {
    let figures = vec!["faults".to_owned()];
    let settings = Settings {
        eval_period: SimDuration::from_us(20),
        threads: 1,
        obs: true,
        ..Settings::default()
    };
    let plan = SweepPlan::new(&figures, &settings).unwrap();
    assert!(plan.len() > 3, "the faults figure spans more cells than shards");

    let mut matrix = Matrix::new();
    let (unsharded, full_stats) =
        shard::run_shard(&plan, Shard::full(), &settings, &mut matrix).unwrap();

    let mut files = Vec::new();
    let mut requested = 0usize;
    for index in 0..3 {
        let piece = Shard { index, of: 3 };
        // Fresh matrix per shard: each slice simulates independently, as
        // separate processes or daemon workers would.
        let mut m = Matrix::new();
        let (text, stats) = shard::run_shard(&plan, piece, &settings, &mut m).unwrap();
        requested += stats.requested;
        files.push(shard::parse_sweep_file(&format!("shard {piece}"), &text).unwrap());
    }

    let merged = shard::merge(&files).unwrap();
    assert_eq!(merged.text, unsharded, "3-way merge == unsharded sweep, bytewise");
    assert_eq!(merged.cells, plan.len());
    assert_eq!(merged.shards, 3);
    assert_eq!(requested, full_stats.requested, "shard workloads sum to the whole");
    assert_eq!(merged.stats.requested, plan.len(), "merge aggregates the per-shard counters");
}

/// A `memnet` invocation with a hermetic environment: no cache, a short
/// evaluation window, and none of the behavior-changing env knobs.
fn memnet() -> Command {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_memnet"));
    for var in ["MEMNET_AUDIT", "MEMNET_SEED", "MEMNET_THREADS", "MEMNET_CACHE_DIR"] {
        cmd.env_remove(var);
    }
    cmd.env("MEMNET_NO_CACHE", "1").env("MEMNET_EVAL_US", "20");
    cmd
}

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("memnet-shard-merge-{}-{name}", std::process::id()))
}

/// End-to-end CLI contract: `sweep --shard i/3` three times, `merge
/// --check` validates coverage without writing, `merge --out`
/// recombines byte-identically to the unsharded `sweep`, and dropping a
/// shard fails with exit 2 naming the missing slice and its cells.
#[test]
fn cli_shard_sweep_and_merge_round_trip() {
    let full = tmp("full.jsonl");
    let merged = tmp("merged.jsonl");
    let shards: Vec<_> = (0..3).map(|i| tmp(&format!("shard-{i}.jsonl"))).collect();

    // Unsharded reference and the three slices.
    let out = memnet()
        .args(["sweep", "--figures", "model_diff", "--out", full.to_str().unwrap()])
        .output()
        .expect("memnet binary runs");
    assert!(out.status.success(), "unsharded sweep: {}", String::from_utf8_lossy(&out.stderr));
    for (i, path) in shards.iter().enumerate() {
        let out = memnet()
            .args([
                "sweep",
                "--figures",
                "model_diff",
                "--shard",
                &format!("{i}/3"),
                "--out",
                path.to_str().unwrap(),
            ])
            .output()
            .expect("memnet binary runs");
        assert!(out.status.success(), "shard {i}/3: {}", String::from_utf8_lossy(&out.stderr));
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("[sweep {i}/3]")),
            "the log line carries the shard id: {stderr}"
        );
    }
    let shard_args: Vec<&str> = shards.iter().map(|p| p.to_str().unwrap()).collect();

    // --check validates coverage and writes nothing.
    let out =
        memnet().args(["merge", "--check"]).args(&shard_args).output().expect("memnet binary runs");
    assert!(out.status.success(), "merge --check: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("check ok"), "dry run reports coverage: {stderr}");
    assert!(!merged.exists(), "--check writes no output");

    // The real merge is byte-identical to the unsharded sweep, and its
    // aggregate counters sum to the full cell count.
    let out = memnet()
        .args(["merge", "--out", merged.to_str().unwrap()])
        .args(&shard_args)
        .output()
        .expect("memnet binary runs");
    assert!(out.status.success(), "merge: {}", String::from_utf8_lossy(&out.stderr));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("3 shard(s), 6 cell(s)") && stderr.contains("6 requested"),
        "merge reports aggregate counts summing to the unsharded totals: {stderr}"
    );
    let reference = std::fs::read(&full).unwrap();
    assert!(!reference.is_empty());
    assert_eq!(std::fs::read(&merged).unwrap(), reference, "merge == unsharded, bytewise");

    // A missing shard is a validation failure: exit 2, naming the
    // missing slice and an example of the cells it owns.
    let out = memnet()
        .args(["merge", "--check", shard_args[0], shard_args[2]])
        .output()
        .expect("memnet binary runs");
    assert_eq!(out.status.code(), Some(2), "missing shard is exit 2");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("missing shard 1/3") && stderr.contains("e.g."),
        "the error names the missing shard and its cells: {stderr}"
    );

    for path in shards.iter().chain([&full, &merged]) {
        let _ = std::fs::remove_file(path);
    }
}
