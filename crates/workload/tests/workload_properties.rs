//! Property tests over the workload catalog and generators.

use memnet_simcore::{SimDuration, SimTime, SplitMix64};
use memnet_workload::{catalog, stress, AddressCdf, RequestGenerator, StressEnv, StressGenerator};
use proptest::prelude::*;

fn workload_index() -> impl Strategy<Value = usize> {
    0usize..catalog::all().len()
}

fn stress_index() -> impl Strategy<Value = usize> {
    0usize..stress::all().len()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn cdf_quantile_is_monotone(idx in workload_index(), us in prop::collection::vec(0.0f64..=1.0, 2..40)) {
        let spec = catalog::all()[idx].clone();
        let cdf = AddressCdf::from_spec(&spec);
        let mut sorted = us.clone();
        sorted.sort_by(f64::total_cmp);
        let qs: Vec<f64> = sorted.iter().map(|&u| cdf.quantile(u)).collect();
        for w in qs.windows(2) {
            prop_assert!(w[1] >= w[0] - 1e-12);
        }
    }

    #[test]
    fn cdf_forward_inverse_round_trip(idx in workload_index(), u in 0.001f64..0.999) {
        let spec = catalog::all()[idx].clone();
        let cdf = AddressCdf::from_spec(&spec);
        let gb = cdf.quantile(u);
        // Forward evaluation recovers u except on flat (cold) segments,
        // where fraction_at(gb) is the segment's left edge value <= u.
        let back = cdf.fraction_at(gb);
        prop_assert!(back <= u + 1e-9, "inverse overshoot: {back} > {u}");
    }

    #[test]
    fn generator_is_deterministic_and_in_range(idx in workload_index(), seed in any::<u64>()) {
        let spec = catalog::all()[idx].clone();
        let lines = spec.total_lines();
        let mut g1 = RequestGenerator::new(spec.clone(), SplitMix64::new(seed));
        let mut g2 = RequestGenerator::new(spec, SplitMix64::new(seed));
        let mut prev = SimTime::ZERO;
        for _ in 0..200 {
            let a = g1.next_request();
            let b = g2.next_request();
            prop_assert_eq!(a, b);
            prop_assert!(a.line_addr < lines);
            prop_assert!(a.ready_at >= prev);
            prev = a.ready_at;
        }
    }

    #[test]
    fn quantile_never_reaches_past_the_footprint(idx in workload_index(), u in 0.0f64..=1.0) {
        // Even u == 1.0 must map strictly inside the footprint once
        // converted to a line address: on flat-topped CDFs the quantile
        // retreats to the last segment carrying mass, and sample_line
        // clamps the footprint edge itself.
        let spec = catalog::all()[idx].clone();
        let cdf = AddressCdf::from_spec(&spec);
        prop_assert!(cdf.quantile(u) <= spec.footprint_gb as f64);
        let lines_per_gb = (1u64 << 30) / 64;
        let line = (cdf.quantile(u) * lines_per_gb as f64) as u64;
        prop_assert!(line.min(spec.total_lines() - 1) < spec.total_lines());
    }

    #[test]
    fn sampled_lines_stay_in_range_for_every_catalog_spec(idx in workload_index(), seed in any::<u64>()) {
        let spec = catalog::all()[idx].clone();
        let lines = spec.total_lines();
        let cdf = AddressCdf::from_spec(&spec);
        let mut rng = SplitMix64::new(seed);
        for _ in 0..500 {
            prop_assert!(cdf.sample_line(&mut rng) < lines);
        }
    }

    #[test]
    fn stress_generators_are_deterministic_and_in_range(idx in stress_index(), seed in any::<u64>()) {
        let spec = stress::all()[idx].clone();
        let lines = spec.base.total_lines();
        let env = StressEnv {
            epoch: SimDuration::from_us(100),
            n_modules: 8,
            chunk_lines: lines / 8 + 1,
        };
        let mut g1 = StressGenerator::new(spec.clone(), env, SplitMix64::new(seed));
        let mut g2 = StressGenerator::new(spec, env, SplitMix64::new(seed));
        let mut prev = SimTime::ZERO;
        for _ in 0..200 {
            let a = g1.next_request();
            prop_assert_eq!(a, g2.next_request());
            prop_assert!(a.line_addr < lines);
            prop_assert!(a.ready_at >= prev);
            prev = a.ready_at;
        }
    }

    #[test]
    fn long_run_rate_approaches_target(idx in workload_index()) {
        // Bursty workloads insert few but long quiet periods, so the
        // sample variance of the mean inter-arrival is dominated by the
        // count of quiet periods observed; 150k arrivals keeps the
        // relative error within ~20 % even for the burstiest specs.
        let spec = catalog::all()[idx].clone();
        let target = spec.mean_interarrival().as_ps() as f64;
        let mut g = RequestGenerator::new(spec, SplitMix64::new(99));
        let n = 150_000;
        let mut last = SimTime::ZERO;
        for _ in 0..n {
            last = g.next_request().ready_at;
        }
        let measured = last.as_ps() as f64 / n as f64;
        let err = (measured - target).abs() / target;
        prop_assert!(err < 0.20, "rate error {:.1}%", err * 100.0);
    }
}

#[test]
fn every_workload_cdf_spans_exactly_its_footprint() {
    for spec in catalog::all() {
        let cdf = AddressCdf::from_spec(spec);
        assert_eq!(cdf.footprint_gb(), spec.footprint_gb as f64, "{}", spec.name);
        assert_eq!(cdf.fraction_at(spec.footprint_gb as f64), 1.0, "{}", spec.name);
    }
}

#[test]
fn sampled_cdf_matches_analytic_cdf() {
    // Kolmogorov–Smirnov-style check: the empirical CDF of 100k samples
    // stays within 1.5 % of the analytic CDF at every integer GB.
    for spec in catalog::all() {
        let cdf = AddressCdf::from_spec(spec);
        let mut rng = SplitMix64::new(2024);
        let n = 100_000;
        let lines_per_gb = (1u64 << 30) / 64;
        let samples: Vec<u64> = (0..n).map(|_| cdf.sample_line(&mut rng)).collect();
        for gb in 1..=spec.footprint_gb {
            let empirical =
                samples.iter().filter(|&&l| l < gb * lines_per_gb).count() as f64 / n as f64;
            let analytic = cdf.fraction_at(gb as f64);
            assert!(
                (empirical - analytic).abs() < 0.015,
                "{} at {gb} GB: empirical {empirical:.3} vs analytic {analytic:.3}",
                spec.name
            );
        }
    }
}
