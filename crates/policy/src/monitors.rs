//! Hardware-counter models: delay monitors, idle-interval histograms and
//! the wakeup-arrival sampler.
//!
//! These model the counters of Ahn et al. \[20\] (delay monitor/counter
//! pairs that estimate what a link's aggregate latency *would have been*
//! under a different bandwidth mode) and the idle-interval histogram of
//! RAMZzz \[21\] (which predicts rapid-on/off wakeup overheads).

use memnet_net::mech::{BwMode, RooThreshold};
use memnet_simcore::{SimDuration, SimTime};

/// A delay monitor: simulates a link's queue as if the link ran at a fixed
/// bandwidth mode, accumulating the aggregate latency read packets would
/// see.
///
/// One monitor per candidate mode per link; the full-power monitor doubles
/// as the link's FEL (full-power epoch latency) estimator.
///
/// # Examples
///
/// ```
/// use memnet_net::mech::BwMode;
/// use memnet_policy::DelayMonitor;
/// use memnet_simcore::SimTime;
///
/// let mut monitor = DelayMonitor::new(BwMode::FULL_VWL);
/// monitor.record(SimTime::ZERO, 5, true);          // 5-flit read: 3.2 ns
/// monitor.record(SimTime::from_ps(1000), 1, true); // queued behind it
/// assert_eq!(monitor.read_latency_sum().as_ps(), 3200 + (3200 - 1000) + 640);
/// ```
#[derive(Debug, Clone)]
pub struct DelayMonitor {
    mode: BwMode,
    /// `mode.flit_time()`, cached: `record` runs once per transmitted
    /// packet per candidate mode and sits on the simulator's hot path.
    flit_time: SimDuration,
    virtual_busy_until: SimTime,
    read_latency_sum: SimDuration,
    read_packets: u64,
}

impl DelayMonitor {
    /// Creates a monitor simulating `mode`.
    pub fn new(mode: BwMode) -> Self {
        DelayMonitor {
            mode,
            flit_time: mode.flit_time(),
            virtual_busy_until: SimTime::ZERO,
            read_latency_sum: SimDuration::ZERO,
            read_packets: 0,
        }
    }

    /// The mode being simulated.
    pub fn mode(&self) -> BwMode {
        self.mode
    }

    /// Feeds one packet arrival; returns the packet's virtual departure.
    #[inline]
    pub fn record(&mut self, arrival: SimTime, flits: u64, is_read: bool) -> SimTime {
        let start = arrival.max(self.virtual_busy_until);
        let done = start + self.flit_time * flits;
        self.virtual_busy_until = done;
        if is_read {
            self.read_latency_sum += done - arrival;
            self.read_packets += 1;
        }
        done
    }

    /// Aggregate latency of read packets under the simulated mode.
    pub fn read_latency_sum(&self) -> SimDuration {
        self.read_latency_sum
    }

    /// Read packets observed this epoch.
    pub fn read_packets(&self) -> u64 {
        self.read_packets
    }

    /// Starts a fresh epoch. The virtual queue carries over (packets in
    /// flight at the boundary are still in flight) but sums reset.
    pub fn reset_epoch(&mut self) {
        self.read_latency_sum = SimDuration::ZERO;
        self.read_packets = 0;
    }
}

/// Idle-interval histogram (adapted from RAMZzz \[21\]): one bucket per ROO
/// threshold, where bucket `k` counts idle intervals in
/// `[threshold_k, threshold_{k+1})` and the last bucket is open-ended.
///
/// From these counts the policy predicts, for each candidate threshold,
/// how many wakeups the next epoch would suffer and how much off time it
/// would gain.
#[derive(Debug, Clone, Default)]
pub struct IdleHistogram {
    counts: [u64; 4],
    /// Sum of interval durations landing in each bucket.
    duration_sums: [SimDuration; 4],
}

impl IdleHistogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        IdleHistogram::default()
    }

    /// Records one idle interval.
    pub fn record(&mut self, interval: SimDuration) {
        let thresholds = RooThreshold::ALL;
        // Find the largest threshold <= interval; shorter intervals are
        // irrelevant (no candidate mode would have turned the link off).
        let mut bucket = None;
        for (i, t) in thresholds.iter().enumerate() {
            if interval >= t.threshold() {
                bucket = Some(i);
            }
        }
        if let Some(b) = bucket {
            self.counts[b] += 1;
            self.duration_sums[b] += interval;
        }
    }

    /// Number of wakeups a link with threshold `thr` would have suffered:
    /// every idle interval at least as long as the threshold turns the
    /// link off once (and wakes it once).
    pub fn wakeups(&self, thr: RooThreshold) -> u64 {
        (thr.index()..4).map(|i| self.counts[i]).sum()
    }

    /// Total off time the link would have gained with threshold `thr`:
    /// each qualifying interval contributes `interval − threshold`.
    pub fn off_time(&self, thr: RooThreshold) -> SimDuration {
        let mut total = SimDuration::ZERO;
        for i in thr.index()..4 {
            total += self.duration_sums[i].saturating_sub(thr.threshold() * self.counts[i]);
        }
        total
    }

    /// Clears the histogram for a new epoch.
    pub fn reset_epoch(&mut self) {
        *self = IdleHistogram::default();
    }
}

/// Samples how many read packets arrive during one wakeup-latency window
/// following a sampled packet's arrival — the paper's estimator for the
/// queueing a wakeup induces.
///
/// Every `period`-th arrival opens a window of `wakeup_latency`;
/// subsequent arrivals inside the window are counted.
#[derive(Debug, Clone)]
pub struct WakeupSampler {
    wakeup_latency: SimDuration,
    period: u64,
    arrivals_seen: u64,
    window_end: Option<SimTime>,
    window_count: u64,
    samples: u64,
    total_counted: u64,
}

impl WakeupSampler {
    /// Creates a sampler opening a window every `period` arrivals.
    ///
    /// # Panics
    ///
    /// Panics if `period` is zero.
    pub fn new(wakeup_latency: SimDuration, period: u64) -> Self {
        assert!(period > 0, "sampling period must be positive");
        WakeupSampler {
            wakeup_latency,
            period,
            arrivals_seen: 0,
            window_end: None,
            window_count: 0,
            samples: 0,
            total_counted: 0,
        }
    }

    /// Feeds one read-packet arrival.
    pub fn on_arrival(&mut self, now: SimTime) {
        if let Some(end) = self.window_end {
            if now <= end {
                self.window_count += 1;
                return;
            }
            // Window closed: commit the sample.
            self.total_counted += self.window_count;
            self.samples += 1;
            self.window_end = None;
            self.window_count = 0;
        }
        self.arrivals_seen += 1;
        if self.arrivals_seen.is_multiple_of(self.period) {
            self.window_end = Some(now + self.wakeup_latency);
        }
    }

    /// Average read arrivals per wakeup window (0.0 before any sample
    /// completes).
    pub fn average_arrivals(&self) -> f64 {
        if self.samples == 0 {
            0.0
        } else {
            self.total_counted as f64 / self.samples as f64
        }
    }

    /// Starts a fresh epoch, keeping the long-run average.
    pub fn reset_epoch(&mut self) {
        // The estimate is a slowly varying property; the paper samples
        // periodically, so we keep history across epochs.
        self.window_end = None;
        self.window_count = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memnet_net::mech::VwlWidth;

    #[test]
    fn monitor_models_queueing_at_reduced_width() {
        // Quarter width: 5-flit packet takes 5 × 2.56 ns = 12.8 ns.
        let mut m = DelayMonitor::new(BwMode::Vwl(VwlWidth::W4));
        let d1 = m.record(SimTime::ZERO, 5, true);
        assert_eq!(d1.as_ps(), 12_800);
        // Arriving at 1 ns, waits until 12.8 ns then serializes 1 flit.
        let d2 = m.record(SimTime::from_ps(1_000), 1, true);
        assert_eq!(d2.as_ps(), 12_800 + 2_560);
        assert_eq!(m.read_latency_sum().as_ps(), 12_800 + (12_800 - 1_000) + 2_560);
        assert_eq!(m.read_packets(), 2);
    }

    #[test]
    fn monitor_ignores_write_latency_but_occupies_queue() {
        let mut m = DelayMonitor::new(BwMode::FULL_VWL);
        m.record(SimTime::ZERO, 5, false); // write occupies 3.2 ns
        let d = m.record(SimTime::ZERO, 1, true);
        assert_eq!(d.as_ps(), 3_200 + 640);
        // Only the read's latency is accumulated.
        assert_eq!(m.read_latency_sum().as_ps(), 3_840);
        assert_eq!(m.read_packets(), 1);
    }

    #[test]
    fn monitor_epoch_reset_keeps_virtual_queue() {
        let mut m = DelayMonitor::new(BwMode::Vwl(VwlWidth::W1));
        m.record(SimTime::ZERO, 5, true); // busy until 51.2 ns
        m.reset_epoch();
        assert_eq!(m.read_latency_sum(), SimDuration::ZERO);
        let d = m.record(SimTime::from_ps(1_000), 1, true);
        // Still queued behind the carried-over packet.
        assert_eq!(d.as_ps(), 51_200 + 10_240);
    }

    #[test]
    fn histogram_wakeups_count_qualifying_intervals() {
        let mut h = IdleHistogram::new();
        h.record(SimDuration::from_ns(10)); // below every threshold: ignored
        h.record(SimDuration::from_ns(40)); // >= 32
        h.record(SimDuration::from_ns(200)); // >= 128
        h.record(SimDuration::from_ns(600)); // >= 512
        h.record(SimDuration::from_ns(3_000)); // >= 2048
        assert_eq!(h.wakeups(RooThreshold::T32), 4);
        assert_eq!(h.wakeups(RooThreshold::T128), 3);
        assert_eq!(h.wakeups(RooThreshold::T512), 2);
        assert_eq!(h.wakeups(RooThreshold::T2048), 1);
    }

    #[test]
    fn histogram_off_time_subtracts_threshold() {
        let mut h = IdleHistogram::new();
        h.record(SimDuration::from_ns(600));
        h.record(SimDuration::from_ns(3_000));
        // T512: (600-512) + (3000-512) = 88 + 2488 = 2576 ns.
        assert_eq!(h.off_time(RooThreshold::T512), SimDuration::from_ns(2_576));
        // T2048: 3000-2048 = 952 ns.
        assert_eq!(h.off_time(RooThreshold::T2048), SimDuration::from_ns(952));
        h.reset_epoch();
        assert_eq!(h.wakeups(RooThreshold::T32), 0);
    }

    #[test]
    fn sampler_estimates_arrival_burst_density() {
        let mut s = WakeupSampler::new(SimDuration::from_ns(14), 1);
        // Burst of 3 arrivals 5 ns apart: the window opened by the first
        // captures the next two.
        s.on_arrival(SimTime::from_ps(0));
        s.on_arrival(SimTime::from_ps(5_000));
        s.on_arrival(SimTime::from_ps(10_000));
        // Next arrival far away closes the window.
        s.on_arrival(SimTime::from_ps(1_000_000));
        assert!((s.average_arrivals() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn sampler_without_samples_reports_zero() {
        let s = WakeupSampler::new(SimDuration::from_ns(14), 64);
        assert_eq!(s.average_arrivals(), 0.0);
    }
}
