//! Plain-text rendering of run reports: aligned tables and unicode bar
//! charts for terminals, used by the examples, the CLI and the figures.

use crate::metrics::RunReport;
use memnet_net::mech::BwMode;
use memnet_power::{EnergyBackend, EnergyBreakdown};

/// Renders a horizontal bar of `width` cells filled proportionally to
/// `value / max` with eighth-block resolution.
pub fn bar(value: f64, max: f64, width: usize) -> String {
    const BLOCKS: [char; 9] = [' ', '▏', '▎', '▍', '▌', '▋', '▊', '▉', '█'];
    if max <= 0.0 || value <= 0.0 {
        return " ".repeat(width);
    }
    let cells = (value / max).clamp(0.0, 1.0) * width as f64;
    let full = cells.floor() as usize;
    let rem = ((cells - full as f64) * 8.0).round() as usize;
    let mut s = "█".repeat(full.min(width));
    if full < width {
        s.push(BLOCKS[rem.min(8)]);
        s.push_str(&" ".repeat(width - full - 1));
    }
    s
}

/// Renders the Figure 5-style per-category power breakdown of one run as
/// labelled bars.
pub fn power_breakdown(report: &RunReport) -> String {
    let cats = report.power.watts_per_hmc_by_category();
    let max = cats.iter().copied().fold(f64::MIN, f64::max).max(1e-9);
    let mut out = format!(
        "{} / {} / {} — {:.2} W per HMC ({} modules)\n",
        report.workload,
        report.topology.label(),
        report.policy,
        report.power.watts_per_hmc(),
        report.power.n_hmcs
    );
    for (label, value) in EnergyBreakdown::CATEGORY_LABELS.iter().zip(cats) {
        out.push_str(&format!("  {label:<14} {:5.2} W  |{}|\n", value, bar(value, max, 30)));
    }
    out
}

/// Renders the fault/resilience section of a report: retry counts,
/// retransmission energy, wake timeouts and route-around outcomes.
/// Callers typically print it only for runs with an active fault
/// scenario (every field is zero otherwise).
pub fn fault_section(report: &RunReport) -> String {
    let f = &report.faults;
    format!(
        "  faults: {} retries, {} flits replayed, {:.3} uJ retrans I/O, {} wake timeouts\n\
         \x20         {} rerouted module(s), {} unreachable, {} aborted access(es)\n",
        f.retries,
        f.retransmitted_flits,
        1e6 * f.retransmission_energy,
        f.wake_timeouts,
        f.rerouted_modules,
        f.unreachable_modules,
        f.aborted_accesses,
    )
}

/// Renders the observability section of a report: per-epoch sample
/// bookkeeping plus a network-wide residency summary aggregated over the
/// retained samples. Callers print it only when the run carried an `obs`
/// section (`--obs` / `--trace`); returns an empty string otherwise.
pub fn obs_section(report: &RunReport) -> String {
    let Some(obs) = &report.obs else {
        return String::new();
    };
    let mut out = format!(
        "  obs: {} epoch sample(s) retained ({} dropped), {} event(s) seen, {} written{}\n",
        obs.epochs.len(),
        obs.samples_dropped,
        obs.events_seen,
        obs.events_written,
        if obs.truncated { ", trace truncated" } else { "" },
    );
    if !obs.epochs.is_empty() {
        let mut ps = [0u64; 5];
        let (mut wakes, mut retries) = (0u64, 0u64);
        for s in &obs.epochs {
            for l in &s.links {
                ps[0] += l.off_ps;
                ps[1] += l.waking_ps;
                ps[2] += l.idle_ps;
                ps[3] += l.active_ps;
                ps[4] += l.retrans_ps;
                wakes += l.wakes;
                retries += l.retries;
            }
        }
        let total: u64 = ps.iter().sum();
        let pct = |v: u64| if total == 0 { 0.0 } else { 100.0 * v as f64 / total as f64 };
        out.push_str(&format!(
            "       link residency: off {:.1}%  waking {:.1}%  idle {:.1}%  active {:.1}%  retrans {:.2}%  ({} wakes, {} retries)\n",
            pct(ps[0]),
            pct(ps[1]),
            pct(ps[2]),
            pct(ps[3]),
            pct(ps[4]),
            wakes,
            retries,
        ));
    }
    out
}

/// One compared quantity in a model-vs-model differential: the same
/// physical number priced by a reference backend and a candidate backend.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelDiffRow {
    /// What is being compared (e.g. `link watts (vwl16)`).
    pub label: String,
    /// The reference backend's answer.
    pub reference: f64,
    /// The candidate backend's answer.
    pub candidate: f64,
}

impl ModelDiffRow {
    /// Absolute relative divergence of the candidate from the reference.
    /// Two exact zeros agree (0.0); a nonzero candidate against a zero
    /// reference diverges infinitely.
    pub fn divergence(&self) -> f64 {
        if self.reference == 0.0 {
            if self.candidate == 0.0 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            ((self.candidate - self.reference) / self.reference).abs()
        }
    }
}

/// Builds the static mode-table rows of a model differential: each link
/// accounting state's watts as priced by both backends. These compare the
/// models themselves, independent of any run.
pub fn model_diff_watts_rows(
    reference: &dyn EnergyBackend,
    candidate: &dyn EnergyBackend,
) -> Vec<ModelDiffRow> {
    let mut rows = vec![
        ModelDiffRow {
            label: "link watts (off)".to_string(),
            reference: reference.link_off_watts(),
            candidate: candidate.link_off_watts(),
        },
        ModelDiffRow {
            label: "link watts (waking)".to_string(),
            reference: reference.link_waking_watts(),
            candidate: candidate.link_waking_watts(),
        },
    ];
    for mode in BwMode::ALL {
        rows.push(ModelDiffRow {
            label: format!("link watts ({})", mode.label()),
            reference: reference.link_mode_watts(mode),
            candidate: candidate.link_mode_watts(mode),
        });
    }
    rows
}

/// Builds the per-run rows of a model differential: each energy category
/// plus the total, from two reports of the *same configuration* priced by
/// different backends. The runs must come from identical configurations
/// (only the backend differing) or the comparison is meaningless —
/// backends cannot change simulation behavior, so identical configs meter
/// identical activity.
pub fn model_diff_energy_rows(reference: &RunReport, candidate: &RunReport) -> Vec<ModelDiffRow> {
    let ra = reference.power.energy.categories();
    let rb = candidate.power.energy.categories();
    let mut rows: Vec<ModelDiffRow> = EnergyBreakdown::CATEGORY_LABELS
        .iter()
        .zip(ra.iter().zip(rb.iter()))
        .map(|(label, (&a, &b))| ModelDiffRow {
            label: format!("energy ({label})"),
            reference: a,
            candidate: b,
        })
        .collect();
    rows.push(ModelDiffRow {
        label: "energy (total)".to_string(),
        reference: reference.power.energy.total(),
        candidate: candidate.power.energy.total(),
    });
    rows
}

/// Renders a model differential as an aligned table, flagging every row
/// whose divergence exceeds `threshold` (a fraction, e.g. 0.05 for 5 %).
/// Returns the text and the number of flagged rows.
pub fn model_diff_table(
    reference_name: &str,
    candidate_name: &str,
    rows: &[ModelDiffRow],
    threshold: f64,
) -> (String, usize) {
    let mut out = format!(
        "  {:<26} {:>14} {:>14} {:>9}\n",
        "quantity", reference_name, candidate_name, "diff"
    );
    let mut flagged = 0;
    for row in rows {
        let diverges = row.divergence() > threshold;
        if diverges {
            flagged += 1;
        }
        let signed_pct = if row.reference == 0.0 && row.candidate == 0.0 {
            0.0
        } else if row.reference == 0.0 {
            f64::INFINITY
        } else {
            100.0 * (row.candidate - row.reference) / row.reference
        };
        out.push_str(&format!(
            "  {:<26} {:>14.6e} {:>14.6e} {:>8.2}%{}\n",
            row.label,
            row.reference,
            row.candidate,
            signed_pct,
            if diverges { "  <-- DIVERGES" } else { "" },
        ));
    }
    out.push_str(&format!(
        "  {} of {} quantities diverge beyond the ±{:.1}% threshold\n",
        flagged,
        rows.len(),
        100.0 * threshold,
    ));
    (out, flagged)
}

/// Renders a one-line summary suitable for sweep tables.
pub fn summary_line(report: &RunReport) -> String {
    format!(
        "{:<7} {:<13} {:<6} {:<16} {:<8} {:>6.2} W/HMC  idleIO {:>4.1}%  chan {:>4.1}%  lat {:>7.1} ns  {:>8.1} acc/us",
        report.workload,
        report.topology.label(),
        report.scale,
        report.policy,
        report.mechanism,
        report.power.watts_per_hmc(),
        100.0 * report.power.idle_io_fraction(),
        100.0 * report.channel_utilization,
        report.mean_read_latency_ns,
        report.accesses_per_us,
    )
}

/// Renders a comparison of several runs against the first (the baseline).
pub fn comparison_table(reports: &[RunReport]) -> String {
    let Some(base) = reports.first() else {
        return String::from("(no runs)\n");
    };
    let mut out = format!(
        "{:<32} {:>9} {:>12} {:>12} {:>10}\n",
        "configuration", "watts", "power saved", "perf loss", "violations"
    );
    for r in reports {
        out.push_str(&format!(
            "{:<32} {:>9.2} {:>11.1}% {:>11.2}% {:>10}\n",
            format!("{} {}", r.policy, r.mechanism),
            r.power.watts(),
            100.0 * r.power_reduction_vs(base),
            100.0 * r.degradation_vs(base),
            r.violations,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use memnet_simcore::SimDuration;

    fn tiny_report() -> RunReport {
        SimConfig::builder()
            .workload("mixD")
            .eval_period(SimDuration::from_us(30))
            .build()
            .unwrap()
            .run()
    }

    #[test]
    fn bar_extremes() {
        assert_eq!(bar(0.0, 10.0, 4), "    ");
        assert_eq!(bar(10.0, 10.0, 4), "████");
        assert_eq!(bar(5.0, 10.0, 4), "██  ");
        // Degenerate max never panics.
        assert_eq!(bar(1.0, 0.0, 4), "    ");
    }

    #[test]
    fn bar_has_requested_display_width() {
        for v in [0.0, 0.124, 3.4, 9.99, 10.0] {
            let s = bar(v, 10.0, 12);
            assert_eq!(s.chars().count(), 12, "width for value {v}");
        }
    }

    #[test]
    fn breakdown_lists_all_six_categories() {
        let text = power_breakdown(&tiny_report());
        for label in EnergyBreakdown::CATEGORY_LABELS {
            assert!(text.contains(label), "missing {label}");
        }
    }

    #[test]
    fn comparison_table_baselines_first_row() {
        let a = tiny_report();
        let b = tiny_report();
        let t = comparison_table(&[a, b]);
        assert!(t.contains("power saved"));
        // The baseline row shows 0.0 % savings against itself.
        assert!(t.contains(" 0.0%"));
        assert_eq!(comparison_table(&[]), "(no runs)\n");
    }

    #[test]
    fn fault_section_lists_every_counter() {
        let mut r = tiny_report();
        r.faults.retries = 7;
        r.faults.retransmitted_flits = 35;
        r.faults.retransmission_energy = 2.5e-6;
        r.faults.unreachable_modules = 2;
        let text = fault_section(&r);
        assert!(text.contains("7 retries"));
        assert!(text.contains("35 flits replayed"));
        assert!(text.contains("2.500 uJ"));
        assert!(text.contains("2 unreachable"));
    }

    #[test]
    fn model_diff_rows_cover_every_state_and_category() {
        use memnet_power::{HmcPowerModel, IddModel};
        let a = HmcPowerModel::paper();
        let b = IddModel::hmc_gen2();
        let watts = model_diff_watts_rows(&a, &b);
        assert_eq!(watts.len(), 2 + memnet_net::mech::N_BW_MODES);
        let r = tiny_report();
        let energy = model_diff_energy_rows(&r, &r);
        assert_eq!(energy.len(), EnergyBreakdown::CATEGORY_LABELS.len() + 1);
        // Identical reports never diverge from themselves.
        assert!(energy.iter().all(|row| row.divergence() == 0.0));
    }

    #[test]
    fn divergence_guards_zero_references() {
        let both_zero = ModelDiffRow { label: "z".into(), reference: 0.0, candidate: 0.0 };
        assert_eq!(both_zero.divergence(), 0.0);
        let from_zero = ModelDiffRow { label: "z".into(), reference: 0.0, candidate: 1.0 };
        assert_eq!(from_zero.divergence(), f64::INFINITY);
        let ten_pct = ModelDiffRow { label: "t".into(), reference: 2.0, candidate: 1.8 };
        assert!((ten_pct.divergence() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn model_diff_table_flags_and_counts() {
        let rows = vec![
            ModelDiffRow { label: "fine".into(), reference: 1.0, candidate: 1.02 },
            ModelDiffRow { label: "broken".into(), reference: 1.0, candidate: 1.5 },
        ];
        let (text, flagged) = model_diff_table("analytical", "idd", &rows, 0.05);
        assert_eq!(flagged, 1);
        assert!(text.contains("<-- DIVERGES"));
        assert!(text.contains("1 of 2 quantities diverge"));
        let (clean, none) = model_diff_table("analytical", "idd", &rows, 0.60);
        assert_eq!(none, 0);
        assert!(!clean.contains("DIVERGES"));
    }

    #[test]
    fn summary_line_is_single_line() {
        let line = summary_line(&tiny_report());
        assert_eq!(line.lines().count(), 1);
        assert!(line.contains("W/HMC"));
    }
}
