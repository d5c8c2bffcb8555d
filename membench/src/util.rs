//! Statistics, digests, memory readings and the span recorder shared by
//! every workload.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

use memnet_core::RunReport;
use serde::json;

/// Linear-interpolation quantile (`q` in `[0, 1]`) of unsorted samples;
/// 0 for an empty slice.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples; 0 for an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// 64-bit FNV-1a, folded over successive byte strings.
pub fn fnv1a64(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// FNV-1a offset basis, the starting value of every digest.
pub const FNV_START: u64 = 0xcbf2_9ce4_8422_2325;

/// Digest of a report's simulated content: its JSON form with the audit
/// section cleared, so the same simulation digests equally whatever
/// audit level watched it.
pub fn report_digest(report: &RunReport) -> u64 {
    let mut plain = report.clone();
    plain.audit = Default::default();
    fnv1a64(FNV_START, json::to_string(&plain).as_bytes())
}

/// Peak resident set (`VmHWM`) of a process in MiB, read from procfs.
pub fn peak_rss_mib(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Total size in bytes of the regular files directly inside `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One recorded span: a named interval with its parent span and the id
/// shared by every span of one cell, job or repetition.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was timed, e.g. `bench.run_shard`.
    pub name: &'static str,
    /// Cell, job or repetition id the span belongs to.
    pub group: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Length in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// In-memory span recorder. Disabled recorders run the timed closures
/// and keep nothing, so traced and untraced repetitions run identical
/// code apart from the bookkeeping.
#[derive(Debug)]
pub struct Tracer {
    /// Whether spans are being kept.
    pub enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder, keeping spans only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened by `f` nest under
    /// it.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        group: u64,
        f: impl FnOnce(&mut Tracer) -> R,
    ) -> R {
        if !self.enabled {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            group,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.ns(Instant::now());
        out
    }

    /// Records a span measured elsewhere (another thread, or event
    /// timestamps), under the currently open span.
    pub fn record(&mut self, name: &'static str, group: u64, start: Instant, end: Instant) {
        if self.enabled {
            let (start_ns, end_ns) = (self.ns(start), self.ns(end));
            self.spans.push(Span {
                name,
                group,
                parent: self.open.last().copied(),
                start_ns,
                end_ns,
            });
        }
    }

    /// Every recorded span named `name`.
    pub fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let name = name.to_owned();
        self.spans.iter().filter(move |s| s.name == name)
    }

    /// Lengths in seconds of every span named `name`.
    pub fn secs(&self, name: &str) -> Vec<f64> {
        self.named(name).map(Span::secs).collect()
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"group\":{},\"name\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.group,
                json::to_string(s.name),
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_numpy() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert!((quantile(&v, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn spans_nest_and_disabled_tracers_keep_nothing() {
        let mut t = Tracer::new(true);
        t.span("outer", 1, |t| t.span("inner", 1, |_| ()));
        assert_eq!(t.len(), 2);
        assert_eq!(t.named("inner").next().unwrap().parent, Some(0));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("outer", 1, |_| 7), 7);
        assert_eq!(off.len(), 0);
    }
}
