//! The 14 paper workloads (seven NAS HPC + seven cloud mixes) and the
//! Table III mixed-workload composition.
//!
//! Parameter values are calibrated to the characteristics the paper
//! publishes: footprints average ~17 GB (Figure 4), channel utilizations
//! average 43 % with sp.D lowest and mixB highest at ~75 % (Figure 9), and
//! CDF control points reproduce Figure 4's shapes, including flat cold
//! ranges in cg.D/is.D and the hot low-address regions of the cloud mixes
//! (applications are invoked in order, so the first-invoked hot
//! applications own low physical addresses).

use memnet_simcore::SimDuration;

use crate::spec::{WorkloadClass, WorkloadSpec};

/// Table III: the composition of each mixed cloud workload, in invocation
/// order (invocation order determines memory allocation order).
pub const MIX_COMPOSITION: [(&str, &str); 7] = [
    ("mixA", "4 bwaves, 4 cactusADM, 4 wrf, 4T ocean_cp"),
    ("mixB", "4 mcf, 4 GemsFDTD, 4T barnes, 4T radiosity"),
    ("mixC", "4 omnetpp, 4 mcf, 4 wrf, 4T ocean_cp"),
    ("mixD", "4 sjeng, 4 cactusADM, 4T radiosity, 4T fft"),
    ("mixE", "4 cactusADM, 4 sjeng, 4 wrf, 4T fft"),
    ("mixF", "4 cactusADM, 4 bwaves, 4 sjeng, 4T fft"),
    ("mixG", "4 mcf, 4 omnetpp, 4 astar, 4T fft"),
];

macro_rules! workload {
    ($name:literal, $class:ident, $fp:literal GB, util $util:literal,
     on $on:literal, burst_us $burst:literal, cdf $cdf:expr) => {
        WorkloadSpec {
            name: $name,
            class: WorkloadClass::$class,
            footprint_gb: $fp,
            channel_utilization: $util,
            read_fraction: 2.0 / 3.0,
            cdf_points: $cdf,
            on_fraction: $on,
            burst_mean: SimDuration::from_us($burst),
        }
    };
}

static WORKLOADS: [WorkloadSpec; 14] = [
    // --- NAS class D, 16 threads ---
    workload!("ua.D", Hpc, 14 GB, util 0.45, on 0.70, burst_us 3,
        cdf &[(0.0, 0.0), (6.0, 0.55), (14.0, 1.0)]),
    workload!("lu.D", Hpc, 10 GB, util 0.55, on 0.90, burst_us 4,
        cdf &[(0.0, 0.0), (5.0, 0.60), (10.0, 1.0)]),
    workload!("bt.D", Hpc, 22 GB, util 0.35, on 0.60, burst_us 3,
        cdf &[(0.0, 0.0), (8.0, 0.50), (22.0, 1.0)]),
    workload!("sp.D", Hpc, 22 GB, util 0.08, on 0.30, burst_us 1,
        cdf &[(0.0, 0.0), (10.0, 0.50), (22.0, 1.0)]),
    workload!("cg.D", Hpc, 30 GB, util 0.30, on 0.50, burst_us 2,
        cdf &[(0.0, 0.0), (8.0, 0.60), (20.0, 0.70), (30.0, 1.0)]),
    workload!("mg.D", Hpc, 26 GB, util 0.50, on 0.80, burst_us 3,
        cdf &[(0.0, 0.0), (10.0, 0.45), (26.0, 1.0)]),
    workload!("is.D", Hpc, 36 GB, util 0.25, on 0.40, burst_us 2,
        cdf &[(0.0, 0.0), (6.0, 0.50), (28.0, 0.60), (36.0, 1.0)]),
    // --- Cloud mixes (Table III) ---
    workload!("mixA", Cloud, 14 GB, util 0.55, on 0.70, burst_us 2,
        cdf &[(0.0, 0.0), (4.0, 0.45), (9.0, 0.75), (14.0, 1.0)]),
    workload!("mixB", Cloud, 12 GB, util 0.75, on 0.90, burst_us 3,
        cdf &[(0.0, 0.0), (3.0, 0.50), (7.0, 0.80), (12.0, 1.0)]),
    workload!("mixC", Cloud, 12 GB, util 0.60, on 0.75, burst_us 2,
        cdf &[(0.0, 0.0), (4.0, 0.55), (8.0, 0.80), (12.0, 1.0)]),
    workload!("mixD", Cloud, 8 GB, util 0.30, on 0.50, burst_us 1,
        cdf &[(0.0, 0.0), (2.0, 0.40), (6.0, 0.80), (8.0, 1.0)]),
    workload!("mixE", Cloud, 8 GB, util 0.35, on 0.50, burst_us 2,
        cdf &[(0.0, 0.0), (3.0, 0.50), (8.0, 1.0)]),
    workload!("mixF", Cloud, 10 GB, util 0.40, on 0.60, burst_us 2,
        cdf &[(0.0, 0.0), (3.0, 0.45), (10.0, 1.0)]),
    workload!("mixG", Cloud, 12 GB, util 0.60, on 0.70, burst_us 2,
        cdf &[(0.0, 0.0), (4.0, 0.60), (9.0, 0.85), (12.0, 1.0)]),
];

/// All 14 workloads, HPC first, in the order the paper's figures use.
pub fn all() -> &'static [WorkloadSpec] {
    &WORKLOADS
}

/// Looks up one workload by its paper name.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    WORKLOADS.iter().find(|w| w.name == name).cloned()
}

/// The 14 workload names in figure order.
pub fn names() -> Vec<&'static str> {
    WORKLOADS.iter().map(|w| w.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fourteen_workloads_all_valid() {
        let ws = all();
        assert_eq!(ws.len(), 14);
        for w in ws {
            w.validate().unwrap_or_else(|e| panic!("{e}"));
        }
    }

    #[test]
    fn average_footprint_matches_paper() {
        let ws = all();
        let avg = ws.iter().map(|w| w.footprint_gb as f64).sum::<f64>() / ws.len() as f64;
        assert!((16.0..18.0).contains(&avg), "paper reports 17 GB average footprint, got {avg}");
    }

    #[test]
    fn average_channel_utilization_matches_paper() {
        let ws = all();
        let avg = ws.iter().map(|w| w.channel_utilization).sum::<f64>() / ws.len() as f64;
        assert!(
            (0.40..0.46).contains(&avg),
            "paper reports 43 % average channel utilization, got {avg}"
        );
    }

    #[test]
    fn sp_d_is_least_and_mixb_most_utilized() {
        let ws = all();
        let min = ws.iter().min_by(|a, b| a.channel_utilization.total_cmp(&b.channel_utilization));
        let max = ws.iter().max_by(|a, b| a.channel_utilization.total_cmp(&b.channel_utilization));
        assert_eq!(min.unwrap().name, "sp.D");
        assert_eq!(max.unwrap().name, "mixB");
        assert!((max.unwrap().channel_utilization - 0.75).abs() < 1e-12);
    }

    #[test]
    fn lookup_by_name() {
        assert!(by_name("cg.D").is_some());
        assert!(by_name("mixG").is_some());
        assert!(by_name("nope").is_none());
        assert_eq!(names().len(), 14);
    }

    #[test]
    fn hpc_and_cloud_split_seven_seven() {
        let ws = all();
        let hpc = ws.iter().filter(|w| w.class == WorkloadClass::Hpc).count();
        assert_eq!(hpc, 7);
        assert_eq!(ws.len() - hpc, 7);
        assert_eq!(MIX_COMPOSITION.len(), 7);
    }

    #[test]
    fn mix_names_align_with_composition_table() {
        let ws = all();
        for (name, _) in MIX_COMPOSITION {
            assert!(ws.iter().any(|w| w.name == name), "{name} missing");
        }
    }
}
