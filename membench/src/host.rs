//! Host-speed normalisation of the end-to-end metrics.
//!
//! The benchmark's host is a share of a machine whose speed drifts by 2x
//! or more over minutes while the work stays the same (README, "Host
//! drift and noise"). So every workload times a fixed reference loop
//! (`membench-refkernel`) before its first repetition and after each
//! one, on as many threads as the workload keeps busy, in a child
//! process so that the loop's memory never counts towards the workload's
//! peak. The host's slowdown is the mean sample over [`NOMINAL_SECS`].
//! The workloads do not slow as much as the loop does: their times
//! follow the slowdown raised to [`SENSITIVITY`]. The end-to-end times
//! are divided by that factor and the rates multiplied by it, so they
//! read as on the reference host at the speed it had when the benchmark
//! was defined. The raw figures are printed as well.

use std::process::Command;
use std::time::Instant;

use crate::Outcome;

/// Wall time of one reference sample on the reference host (2 vCPU
/// Xeon VM, 2 MiB L2, rustc 1.95.0) in a quiet stretch when the
/// benchmark was defined: twice the 69.5 ms that 1M events took.
pub const NOMINAL_SECS: f64 = 0.139;

/// How strongly the workloads' times follow the reference loop's: the
/// slope of log(repetition time) against log(mean sample time) over
/// runs in quiet and busy stretches of the reference host was 0.69-0.75
/// for run_long, sweep_cold and serve_mix (correlation 0.96-0.98), and
/// 0.7 kept the medians of sets of ten runs in six stretches within 10%
/// of each other for run_long and sweep_cold (README, "Host-speed
/// normalisation").
pub const SENSITIVITY: f64 = 0.7;

/// Events one sample runs per thread (`tiny`: a hundredth).
fn events(tiny: bool) -> u64 {
    membench_refkernel::EVENTS / if tiny { 100 } else { 1 }
}

/// Runs the reference loop on `threads` threads at once and returns the
/// wall time, scaled to a full-size sample, and each thread's checksum.
/// This is the `membench reference` child's work.
pub fn reference(threads: usize, tiny: bool) -> (f64, Vec<u64>) {
    let n = events(tiny);
    let start = Instant::now();
    let sums = std::thread::scope(|s| {
        let others: Vec<_> =
            (1..threads).map(|_| s.spawn(move || membench_refkernel::run(n))).collect();
        let mut sums = vec![membench_refkernel::run(n)];
        sums.extend(others.into_iter().map(|h| h.join().expect("the reference loop panicked")));
        sums
    });
    let secs = start.elapsed().as_secs_f64() * (events(false) / n) as f64;
    (secs, sums)
}

/// Reference samples taken so far in one invocation.
#[derive(Debug)]
pub struct HostSpeed {
    threads: usize,
    tiny: bool,
    samples: Vec<f64>,
    checksums: Vec<u64>,
    failures: Vec<String>,
}

impl HostSpeed {
    /// Takes the first sample, on `threads` threads (`tiny`: with a
    /// hundredth of the events).
    pub fn new(threads: usize, tiny: bool) -> HostSpeed {
        let mut host = HostSpeed {
            threads: threads.max(1),
            tiny,
            samples: Vec::new(),
            checksums: Vec::new(),
            failures: Vec::new(),
        };
        host.sample();
        host
    }

    /// Runs one sample in a `membench reference` child and records it.
    pub fn sample(&mut self) {
        match self.run_child() {
            Ok((secs, sums)) => {
                self.samples.push(secs);
                self.checksums.extend(sums);
            }
            Err(e) => self.failures.push(e),
        }
    }

    fn run_child(&self) -> Result<(f64, Vec<u64>), String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating membench: {e}"))?;
        let mut cmd = Command::new(exe);
        cmd.args(["reference", "--threads", &self.threads.to_string()]);
        if self.tiny {
            cmd.arg("--tiny");
        }
        let out = cmd.output().map_err(|e| format!("starting the reference: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut words = text.split_whitespace();
        let secs = words.next().and_then(|w| w.parse::<f64>().ok());
        let sums: Vec<u64> = words.filter_map(|w| u64::from_str_radix(w, 16).ok()).collect();
        match secs {
            Some(secs) if out.status.success() && sums.len() == self.threads => Ok((secs, sums)),
            _ => Err(format!("the reference child failed ({}): {text:?}", out.status)),
        }
    }

    /// The host's slowdown: the mean sample over [`NOMINAL_SECS`], or 1
    /// when no sample ran (which [`HostSpeed::finish`] counts as a
    /// failure).
    pub fn slowdown(&self) -> f64 {
        if self.samples.is_empty() {
            return 1.0;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64 / NOMINAL_SECS
    }

    /// Checks that every sample ran and computed the same checksum, and
    /// sets the outcome's slowdown: the host's, as the workloads feel it.
    pub fn finish(&self, out: &mut Outcome) {
        for e in &self.failures {
            out.check(false, || e.clone());
        }
        let first = self.checksums.first().copied();
        out.check(!self.samples.is_empty(), || "no host-speed sample ran".into());
        out.check(self.checksums.iter().all(|&c| Some(c) == first), || {
            format!("the host-speed reference's checksums differ: {:016x?}", self.checksums)
        });
        out.slowdown = self.slowdown().powf(SENSITIVITY);
        let samples: Vec<String> = self.samples.iter().map(|s| format!("{s:.4}")).collect();
        out.note("host_samples_s", samples.join(","));
        out.note("host_slowdown", self.slowdown());
    }
}
