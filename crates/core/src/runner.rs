//! Experiment execution helpers: baseline pairing and parallel sweeps.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use memnet_policy::{Mechanism, PolicyKind};

use crate::config::SimConfig;
use crate::metrics::RunReport;

/// Runs `cfg` and its full-power baseline (same workload / topology /
/// scale / seed, links always on), returning `(managed, baseline)`.
///
/// Every power-reduction and performance-degradation number in the paper
/// is relative to this baseline.
pub fn run_pair(cfg: SimConfig) -> (RunReport, RunReport) {
    let mut base = cfg.clone();
    base.policy = PolicyKind::FullPower;
    base.mechanism = Mechanism::FullPower;
    let managed = cfg.run();
    let baseline = base.run();
    (managed, baseline)
}

/// Runs a batch of configurations across `threads` worker threads,
/// returning reports in input order. Each configuration is one job of
/// the worker pool.
///
/// # Panics
///
/// Panics if `threads` is zero, or if a worker panics — in which case the
/// panic message names the configuration whose run failed rather than
/// surfacing as an opaque poisoned-lock error in the caller.
pub fn sweep(configs: Vec<SimConfig>, threads: usize) -> Vec<RunReport> {
    assert!(threads > 0, "need at least one thread");
    let n = configs.len();
    let queue = Mutex::new(configs.into_iter().enumerate().collect::<Vec<_>>());
    // One slot per job: the report, or the panic message of a failed run.
    type Slot = Option<Result<RunReport, String>>;
    let results: Mutex<Vec<Slot>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                // A panicking worker poisons the mutexes; recover the guard
                // so other workers keep draining the queue and the panic is
                // attributed below instead of dying on "queue lock".
                let job = queue.lock().unwrap_or_else(|p| p.into_inner()).pop();
                let Some((idx, cfg)) = job else { break };
                // Copy the identifying fields out so the description is
                // only formatted on the panic path, not once per job.
                let (workload, topology, policy, mechanism) =
                    (cfg.workload.name, cfg.topology, cfg.policy, cfg.mechanism);
                let outcome = catch_unwind(AssertUnwindSafe(|| cfg.run())).map_err(|cause| {
                    let msg = cause
                        .downcast_ref::<String>()
                        .map(String::as_str)
                        .or_else(|| cause.downcast_ref::<&str>().copied())
                        .unwrap_or("non-string panic payload");
                    format!(
                        "workload {workload:?}, topology {topology:?}, policy {policy:?}, \
                         mechanism {mechanism:?}: {msg}"
                    )
                });
                results.lock().unwrap_or_else(|p| p.into_inner())[idx] = Some(outcome);
            });
        }
    });
    let slots = results.into_inner().unwrap_or_else(|p| p.into_inner());
    let failures: Vec<String> = slots
        .iter()
        .filter_map(|s| match s {
            Some(Err(msg)) => Some(msg.clone()),
            _ => None,
        })
        .collect();
    assert!(
        failures.is_empty(),
        "sweep: {} of {n} runs panicked:\n  {}",
        failures.len(),
        failures.join("\n  ")
    );
    slots.into_iter().map(|r| r.expect("every job ran").expect("failures checked above")).collect()
}

/// Runs a batch of `(configuration, seed list)` jobs across `threads`
/// worker threads, returning each job's reports (one per seed, in seed
/// order) in input order.
///
/// Every seed of every job is its own [`sweep`] job, run exactly as
/// `cfg` with that seed would run alone, so each report is
/// byte-identical to the solo run.
///
/// # Panics
///
/// As [`sweep`].
pub fn sweep_seeds(jobs: Vec<(SimConfig, Vec<u64>)>, threads: usize) -> Vec<Vec<RunReport>> {
    let lens: Vec<usize> = jobs.iter().map(|(_, seeds)| seeds.len()).collect();
    let configs = jobs
        .into_iter()
        .flat_map(|(cfg, seeds)| {
            seeds.into_iter().map(move |seed| {
                let mut solo = cfg.clone();
                solo.seed = seed;
                solo
            })
        })
        .collect();
    let mut reports = sweep(configs, threads).into_iter();
    lens.into_iter().map(|len| reports.by_ref().take(len).collect()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_simcore::SimDuration;

    fn quick(workload: &str) -> SimConfig {
        SimConfig::builder()
            .workload(workload)
            .eval_period(SimDuration::from_us(30))
            .build()
            .unwrap()
    }

    #[test]
    fn sweep_preserves_input_order() {
        let reports = sweep(vec![quick("mixD"), quick("lu.D"), quick("mixB")], 3);
        assert_eq!(reports.len(), 3);
        assert_eq!(reports[0].workload, "mixD");
        assert_eq!(reports[1].workload, "lu.D");
        assert_eq!(reports[2].workload, "mixB");
    }

    /// Every seed of a multi-seed job runs as its own pool job; the
    /// reports regroup in the job's seed order and match solo runs byte
    /// for byte, with faults and obs on or off, at any thread count.
    #[test]
    fn sweep_seeds_regroups_solo_identical_reports_in_job_seed_order() {
        use memnet_faults::FaultConfig;
        use memnet_obs::ObsConfig;
        use memnet_simcore::AuditLevel;

        let mut jobs = Vec::new();
        for faults in ["", "ber=1e-9", "fail=1"] {
            for obs in [false, true] {
                let mut builder = SimConfig::builder()
                    .workload("mixD")
                    .policy(PolicyKind::NetworkAware)
                    .mechanism(Mechanism::VwlRoo)
                    .faults(FaultConfig::parse(faults).expect("valid fault spec"))
                    .eval_period(SimDuration::from_us(20))
                    .audit(AuditLevel::Full);
                if obs {
                    builder = builder.obs(ObsConfig { enabled: true, ..ObsConfig::off() });
                }
                let cfg = builder.build().expect("valid configuration");
                jobs.push((cfg.clone(), vec![13, 11, 12]));
                jobs.push((cfg, vec![7]));
            }
        }
        let solo: Vec<Vec<String>> = jobs
            .iter()
            .map(|(cfg, seeds)| {
                seeds
                    .iter()
                    .map(|&seed| {
                        let mut c = cfg.clone();
                        c.seed = seed;
                        serde::json::to_string(&crate::Engine::new(c).run())
                    })
                    .collect()
            })
            .collect();
        for threads in [1, 3] {
            let swept = sweep_seeds(jobs.clone(), threads);
            assert_eq!(swept.len(), jobs.len());
            for (j, ((cfg, seeds), reports)) in jobs.iter().zip(&swept).enumerate() {
                assert_eq!(reports.len(), seeds.len(), "job {j}: one report per seed");
                for (i, report) in reports.iter().enumerate() {
                    assert_eq!(
                        serde::json::to_string(report),
                        solo[j][i],
                        "job {j} (faults {:?}, obs {}), seed {} at {threads} threads",
                        cfg.faults.spec(),
                        cfg.obs.enabled,
                        seeds[i],
                    );
                }
            }
        }
    }

    #[test]
    fn run_pair_returns_matching_baseline() {
        let mut cfg = quick("mixD");
        cfg.policy = PolicyKind::NetworkUnaware;
        cfg.mechanism = Mechanism::Vwl;
        let (managed, baseline) = run_pair(cfg);
        assert_eq!(managed.workload, baseline.workload);
        assert_eq!(baseline.policy, "full power");
        assert_eq!(managed.policy, "network-unaware");
    }
}
