//! Piecewise-linear address CDFs: inverse-transform sampling and Figure 4
//! series generation.

use memnet_simcore::SplitMix64;

use crate::spec::WorkloadSpec;

/// A sampled cumulative distribution over a workload's address space.
///
/// Built from a spec's control points; supports `O(log n)` inverse
/// sampling (uniform random → line address) and forward evaluation
/// (address → cumulative fraction, the Figure 4 series).
///
/// # Examples
///
/// ```
/// use memnet_simcore::SplitMix64;
/// use memnet_workload::{catalog, AddressCdf};
///
/// let spec = catalog::by_name("cg.D").expect("known workload");
/// let cdf = AddressCdf::from_spec(&spec);
/// let mut rng = SplitMix64::new(1);
/// let line = cdf.sample_line(&mut rng);
/// assert!(line < spec.total_lines());
/// ```
#[derive(Debug, Clone)]
pub struct AddressCdf {
    /// Control points `(gb, cumulative)`, strictly increasing in gb.
    points: Vec<(f64, f64)>,
    footprint_gb: f64,
    total_lines: u64,
}

impl AddressCdf {
    /// Builds a CDF from a validated workload spec.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`WorkloadSpec::validate`].
    pub fn from_spec(spec: &WorkloadSpec) -> Self {
        spec.validate().expect("invalid workload spec");
        AddressCdf {
            points: spec.cdf_points.to_vec(),
            footprint_gb: spec.footprint_gb as f64,
            total_lines: spec.total_lines(),
        }
    }

    /// Cumulative fraction of accesses at or below `gb` into the footprint
    /// (forward evaluation; the Figure 4 y-value).
    pub fn fraction_at(&self, gb: f64) -> f64 {
        if gb <= 0.0 {
            return 0.0;
        }
        if gb >= self.footprint_gb {
            return 1.0;
        }
        // Find the segment containing gb.
        let idx = self.points.windows(2).position(|w| gb <= w[1].0).expect("gb within footprint");
        let (x0, y0) = self.points[idx];
        let (x1, y1) = self.points[idx + 1];
        y0 + (y1 - y0) * (gb - x0) / (x1 - x0)
    }

    /// Inverse evaluation: the GB offset at cumulative fraction `u`.
    ///
    /// # Panics
    ///
    /// Panics if `u` is outside `[0, 1]`.
    pub fn quantile(&self, u: f64) -> f64 {
        assert!((0.0..=1.0).contains(&u), "u must be in [0,1], got {u}");
        if u <= 0.0 {
            return 0.0;
        }
        if u >= 1.0 {
            // The top of the CDF may be a run of flat (cold) segments
            // that never receive mass; returning the raw footprint here
            // would place u == 1.0 *past* the last line of the footprint
            // (`total_lines()` exactly, before clamping). All remaining
            // mass sits at the start of the trailing flat run.
            let mut i = self.points.len() - 1;
            while i > 0 && self.points[i].1 <= self.points[i - 1].1 {
                i -= 1;
            }
            return self.points[i].0;
        }
        let idx = self.points.windows(2).position(|w| u <= w[1].1).expect("u within [0,1]");
        let (x0, y0) = self.points[idx];
        let (x1, y1) = self.points[idx + 1];
        if y1 == y0 {
            // Flat (cold) segment: all mass sits at its start.
            return x0;
        }
        x0 + (x1 - x0) * (u - y0) / (y1 - y0)
    }

    /// Samples a line address according to the CDF.
    pub fn sample_line(&self, rng: &mut SplitMix64) -> u64 {
        let gb = self.quantile(rng.next_f64());
        let lines_per_gb = (1u64 << 30) / 64;
        let line = (gb * lines_per_gb as f64) as u64;
        line.min(self.total_lines - 1)
    }

    /// The Figure 4 series: cumulative fraction at each integer GB from 0
    /// through `max_gb`.
    pub fn figure4_series(&self, max_gb: u64) -> Vec<f64> {
        (0..=max_gb).map(|g| self.fraction_at(g as f64)).collect()
    }

    /// Footprint in GB.
    pub fn footprint_gb(&self) -> f64 {
        self.footprint_gb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;
    use crate::spec::WorkloadClass;
    use memnet_simcore::SimDuration;

    fn spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "t",
            class: WorkloadClass::Hpc,
            footprint_gb: 10,
            channel_utilization: 0.4,
            read_fraction: 2.0 / 3.0,
            cdf_points: &[(0.0, 0.0), (2.0, 0.8), (10.0, 1.0)],
            on_fraction: 0.5,
            burst_mean: SimDuration::from_us(1),
        }
    }

    #[test]
    fn forward_and_inverse_are_consistent() {
        let cdf = AddressCdf::from_spec(&spec());
        for &u in &[0.1, 0.25, 0.5, 0.79, 0.85, 0.99] {
            let gb = cdf.quantile(u);
            assert!((cdf.fraction_at(gb) - u).abs() < 1e-9, "u={u}");
        }
    }

    #[test]
    fn boundaries() {
        let cdf = AddressCdf::from_spec(&spec());
        assert_eq!(cdf.fraction_at(0.0), 0.0);
        assert_eq!(cdf.fraction_at(10.0), 1.0);
        assert_eq!(cdf.fraction_at(20.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 0.0);
        assert_eq!(cdf.quantile(1.0), 10.0);
    }

    #[test]
    fn flat_top_quantile_stays_at_the_last_mass() {
        // A CDF whose top is cold: all mass lives in the first 2 GB, the
        // remaining 8 GB are never touched. u == 1.0 must map into the
        // hot region, not to the footprint edge (which would be
        // total_lines before clamping).
        let mut s = spec();
        s.cdf_points = &[(0.0, 0.0), (2.0, 1.0), (10.0, 1.0)];
        let cdf = AddressCdf::from_spec(&s);
        assert_eq!(cdf.quantile(1.0), 2.0);
        let lines_per_gb = (1u64 << 30) / 64;
        let mut rng = SplitMix64::new(17);
        for _ in 0..10_000 {
            assert!(cdf.sample_line(&mut rng) <= 2 * lines_per_gb);
        }
    }

    #[test]
    fn hot_region_receives_its_share_of_samples() {
        let cdf = AddressCdf::from_spec(&spec());
        let mut rng = SplitMix64::new(7);
        let n = 100_000;
        let lines_per_gb = (1u64 << 30) / 64;
        let hot = (0..n).filter(|_| cdf.sample_line(&mut rng) < 2 * lines_per_gb).count();
        let frac = hot as f64 / n as f64;
        assert!((frac - 0.8).abs() < 0.01, "hot fraction {frac}, expected 0.8");
    }

    #[test]
    fn samples_stay_in_range() {
        let cdf = AddressCdf::from_spec(&spec());
        let mut rng = SplitMix64::new(3);
        for _ in 0..10_000 {
            assert!(cdf.sample_line(&mut rng) < spec().total_lines());
        }
    }

    #[test]
    fn figure4_series_is_monotone_for_all_workloads() {
        for w in catalog::all() {
            let cdf = AddressCdf::from_spec(w);
            let series = cdf.figure4_series(38);
            assert_eq!(series.len(), 39);
            for pair in series.windows(2) {
                assert!(pair[1] >= pair[0] - 1e-12, "{} series not monotone", w.name);
            }
            assert!((series[38] - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cold_ranges_attract_few_samples() {
        // cg.D has a near-flat segment from 8..20 GB holding only 10 % of
        // accesses over 40 % of the footprint.
        let w = catalog::by_name("cg.D").unwrap();
        let cdf = AddressCdf::from_spec(&w);
        let mut rng = SplitMix64::new(11);
        let lines_per_gb = (1u64 << 30) / 64;
        let n = 100_000;
        let cold = (0..n)
            .filter(|_| {
                let l = cdf.sample_line(&mut rng);
                l >= 8 * lines_per_gb && l < 20 * lines_per_gb
            })
            .count();
        let frac = cold as f64 / n as f64;
        assert!((frac - 0.10).abs() < 0.01, "cold fraction {frac}");
    }
}
