//! One regenerator per paper table/figure. Every function returns the
//! formatted rows/series the paper reports, running (and memoizing) the
//! simulations it needs. [`FIGURES`] is the registry of them all: the
//! name, section title, key set and renderer of each, which `memnet
//! figures` renders and `memnet sweep` plans from.

use memnet_core::{AddressMapping, NetworkScale, PolicyKind};
use memnet_dram::DramParams;
use memnet_net::mech::BwMode;
use memnet_net::TopologyKind;
use memnet_policy::Mechanism;
use memnet_simcore::SimDuration;
use memnet_workload::{catalog, AddressCdf};

use crate::matrix::{Key, Matrix};
use crate::settings::Settings;

/// The four topologies in figure order.
pub const TOPOS: [TopologyKind; 4] = TopologyKind::ALL;
/// The two scales in figure order.
pub const SCALES: [NetworkScale; 2] = NetworkScale::ALL;
/// The main-study mechanisms.
pub const MAIN_MECHS: [Mechanism; 3] = [Mechanism::Vwl, Mechanism::Roo, Mechanism::VwlRoo];
/// The two α settings of the main study.
pub const ALPHAS: [f64; 2] = [0.025, 0.05];

fn workloads() -> Vec<&'static str> {
    catalog::names()
}

fn fp_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for w in workloads() {
        for topo in TOPOS {
            for scale in SCALES {
                keys.push(Key::main(
                    w,
                    topo,
                    scale,
                    PolicyKind::FullPower,
                    Mechanism::FullPower,
                    0.05,
                ));
            }
        }
    }
    keys
}

fn managed_keys(policy: PolicyKind, mechs: &[Mechanism], alphas: &[f64]) -> Vec<Key> {
    let mut keys = Vec::new();
    for w in workloads() {
        for topo in TOPOS {
            for scale in SCALES {
                for &mech in mechs {
                    for &alpha in alphas {
                        keys.push(Key::main(w, topo, scale, policy, mech, alpha));
                    }
                }
            }
        }
    }
    keys
}

/// One entry of the figure registry: a table, figure or section of the
/// evaluation.
#[derive(Debug)]
pub struct Figure {
    /// Registry name, as `memnet figures` and `memnet sweep --figures`
    /// take it.
    pub name: &'static str,
    /// Section title in the full render.
    pub title: &'static str,
    /// The configurations the figure reads, in plan order; `None` for a
    /// closed-form figure, which has no matrix cells to sweep.
    pub keys: Option<fn() -> Vec<Key>>,
    /// Renders the figure's text, ensuring its keys first.
    pub render: fn(&mut Matrix, &Settings) -> String,
}

/// Every table, figure and section of the suite, in canonical order:
/// the paper's evaluation, then the fault sweep, the stress suite, the
/// model differential and the design-choice ablations.
pub static FIGURES: [Figure; 18] = [
    Figure { name: "tables", title: "Tables I-III", keys: None, render: |_, _| tables() },
    Figure { name: "fig04", title: "Figure 4", keys: None, render: |_, _| fig04() },
    Figure { name: "fig05", title: "Figure 5", keys: Some(fp_keys), render: fig05 },
    Figure { name: "fig06", title: "Figure 6", keys: Some(fp_keys), render: fig06 },
    Figure { name: "fig08", title: "Figure 8", keys: Some(fp_keys), render: fig08 },
    Figure { name: "fig09", title: "Figure 9", keys: Some(fp_keys), render: fig09 },
    Figure { name: "fig11", title: "Figure 11", keys: Some(unaware_keys), render: fig11 },
    Figure { name: "fig12", title: "Figure 12", keys: Some(unaware_keys), render: fig12 },
    Figure { name: "fig13", title: "Figure 13", keys: Some(fig13_keys), render: fig13 },
    Figure { name: "fig15", title: "Figure 15", keys: Some(fig15_keys), render: fig15 },
    Figure { name: "fig16", title: "Figure 16", keys: Some(fig16_keys), render: fig16 },
    Figure { name: "fig17", title: "Figure 17", keys: Some(fig17_keys), render: fig17 },
    Figure { name: "fig18", title: "Figure 18", keys: Some(fig18_keys), render: fig18 },
    Figure { name: "sec7a", title: "Section VII-A", keys: Some(sec7a_keys), render: sec7a },
    Figure {
        name: "faults",
        title: "Fault sweep",
        keys: Some(faults_sweep_keys),
        render: faults_sweep,
    },
    Figure { name: "stress", title: "Stress suite", keys: Some(stress_keys), render: stress },
    Figure {
        name: "model_diff",
        title: "Model differential",
        keys: Some(model_diff_keys),
        render: model_diff,
    },
    Figure { name: "ablations", title: "Ablations", keys: Some(ablation_keys), render: ablations },
];

/// The registry entry named `name`.
pub fn figure(name: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.name == name)
}

/// The names of the matrix-backed figures, in canonical order: what
/// `memnet sweep` sweeps by default, and what its `--figures` and the
/// serve sweep manifest accept.
pub fn sweep_figures() -> Vec<&'static str> {
    FIGURES.iter().filter(|f| f.keys.is_some()).map(|f| f.name).collect()
}

/// The exact key set the named figure ensures, or `None` for names that
/// are not matrix-backed registry figures ([`sweep_figures`]). This is
/// the enumeration the sweep partitioner shards.
pub fn figure_keys(name: &str) -> Option<Vec<Key>> {
    figure(name)?.keys.map(|keys| keys())
}

const BOTH_POLICIES: [PolicyKind; 2] = [PolicyKind::NetworkUnaware, PolicyKind::NetworkAware];

/// The full-power baselines, then each policy's managed keys.
fn fp_and_managed(policies: &[PolicyKind], mechs: &[Mechanism], alphas: &[f64]) -> Vec<Key> {
    let mut keys = fp_keys();
    for &policy in policies {
        keys.extend(managed_keys(policy, mechs, alphas));
    }
    keys
}

fn unaware_keys() -> Vec<Key> {
    fp_and_managed(&[PolicyKind::NetworkUnaware], &MAIN_MECHS, &ALPHAS)
}

fn fig13_keys() -> Vec<Key> {
    BOTH_POLICIES.iter().flat_map(|&p| managed_keys(p, &[Mechanism::Vwl], &[0.05])).collect()
}

fn fig15_keys() -> Vec<Key> {
    BOTH_POLICIES.iter().flat_map(|&p| managed_keys(p, &MAIN_MECHS, &ALPHAS)).collect()
}

fn fig16_keys() -> Vec<Key> {
    fp_and_managed(&BOTH_POLICIES, &MAIN_MECHS, &[0.05])
}

fn fig17_keys() -> Vec<Key> {
    fp_and_managed(&BOTH_POLICIES, &MAIN_MECHS, &ALPHAS)
}

/// Ensures the key set of the named registry figure ([`figure_keys`])
/// under the base seed, so its renderer can read every cell with
/// [`Matrix::get`].
fn ensure(matrix: &mut Matrix, figure: &str, settings: &Settings) {
    let keys = figure_keys(figure).expect("a registry figure name");
    matrix.ensure(&keys, settings);
}

fn mean(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn maxf(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NEG_INFINITY, f64::max)
}

// ----------------------------------------------------------------------
// Tables I–III
// ----------------------------------------------------------------------

/// Tables I (HMC DRAM parameters), II (processor model) and III (mixed
/// workload composition).
pub fn tables() -> String {
    let p = DramParams::hmc_gen2();
    let mut out = String::new();
    out.push_str("Table I: HMC DRAM array parameters\n");
    out.push_str(&format!(
        "  capacity per HMC / vaults per HMC     {} GB / {}\n",
        p.capacity_bytes >> 30,
        p.vaults
    ));
    out.push_str(&format!(
        "  vault data rate / IO width / buffers  {} Gbps / x{} / {}\n",
        p.vault_data_rate_bps / 1_000_000_000,
        p.vault_io_bits,
        p.vault_buffer_entries
    ));
    out.push_str("  page policy / line address mapping    close / interleaved\n");
    out.push_str(&format!(
        "  tCL/tRCD/tRAS/tRP/tRRD/tWR (ns)       {}/{}/{}/{}/{}/{}\n",
        p.tcl.as_ns(),
        p.trcd.as_ns(),
        p.tras.as_ns(),
        p.trp.as_ns(),
        p.trrd.as_ns(),
        p.twr.as_ns()
    ));
    out.push_str(&format!(
        "  derived: line burst {} ns, nominal read {} ns\n\n",
        p.line_burst_time().as_ns(),
        p.nominal_read_latency().as_ns()
    ));
    out.push_str("Table II: processor model (front-end substitution)\n");
    out.push_str("  16 cores, 3 GHz, 2-issue OOO, 64-entry ROB, 64 B lines\n");
    out.push_str("  modeled as: closed loop, 64 outstanding reads, 128-entry write buffer\n\n");
    out.push_str("Table III: mixed workload composition (invocation order)\n");
    for (name, comp) in catalog::MIX_COMPOSITION {
        out.push_str(&format!("  {name}  {comp}\n"));
    }
    out
}

// ----------------------------------------------------------------------
// Figure 4 — workload CDFs
// ----------------------------------------------------------------------

/// Figure 4: cumulative fraction of memory accesses by the i-th GB of
/// address space, per workload.
pub fn fig04() -> String {
    let mut out =
        String::from("Figure 4: cumulative % of memory accesses by address range (GB)\nGB");
    let specs = catalog::all();
    for w in specs {
        out.push_str(&format!("\t{}", w.name));
    }
    out.push('\n');
    let cdfs: Vec<AddressCdf> = specs.iter().map(AddressCdf::from_spec).collect();
    for gb in 0..=38u64 {
        out.push_str(&format!("{gb}"));
        for cdf in &cdfs {
            out.push_str(&format!("\t{:5.1}", 100.0 * cdf.fraction_at(gb as f64)));
        }
        out.push('\n');
    }
    out
}

// ----------------------------------------------------------------------
// Figure 5 — full-power breakdown
// ----------------------------------------------------------------------

/// Figure 5: average power breakdown of an HMC in a full-power network,
/// per topology and scale, averaged over all 14 workloads.
pub fn fig05(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig05", settings);
    let mut out = String::from(
        "Figure 5: average power per HMC (W), full-power networks\n\
         scale      topology      idleIO activeIO logicLk logicDyn dramLk dramDyn | total\n",
    );
    for scale in SCALES {
        let mut scale_totals = Vec::new();
        for topo in TOPOS {
            let mut cats = [0.0f64; 6];
            let mut n = 0.0;
            for w in workloads() {
                let k =
                    Key::main(w, topo, scale, PolicyKind::FullPower, Mechanism::FullPower, 0.05);
                let c = matrix.get(&k).power.watts_per_hmc_by_category();
                for i in 0..6 {
                    cats[i] += c[i];
                }
                n += 1.0;
            }
            for c in &mut cats {
                *c /= n;
            }
            let total: f64 = cats.iter().sum();
            scale_totals.push(total);
            out.push_str(&format!(
                "{:<10} {:<13} {:6.2} {:8.2} {:7.2} {:8.2} {:6.2} {:7.2} | {:5.2}\n",
                scale.label(),
                topo.label(),
                cats[0],
                cats[1],
                cats[2],
                cats[3],
                cats[4],
                cats[5],
                total
            ));
        }
        out.push_str(&format!(
            "{:<10} {:<13} {:>56} {:5.2}\n",
            scale.label(),
            "avg",
            "|",
            mean(scale_totals)
        ));
    }
    // Headline claims.
    let mut io_fracs = Vec::new();
    for scale in SCALES {
        for topo in TOPOS {
            for w in workloads() {
                let k =
                    Key::main(w, topo, scale, PolicyKind::FullPower, Mechanism::FullPower, 0.05);
                io_fracs.push(matrix.get(&k).power.io_fraction());
            }
        }
    }
    out.push_str(&format!(
        "I/O share of total network power, avg over all runs: {:.0}% (paper: 73%)\n",
        100.0 * mean(io_fracs)
    ));
    out
}

// ----------------------------------------------------------------------
// Figure 6 — modules traversed
// ----------------------------------------------------------------------

/// Figure 6: average number of modules traversed per memory access.
pub fn fig06(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig06", settings);
    let mut out = String::from("Figure 6: avg modules traversed per access\nworkload");
    for scale in SCALES {
        for topo in TOPOS {
            out.push_str(&format!("\t{}:{}", scale.label(), topo.label()));
        }
    }
    out.push('\n');
    let mut avgs = vec![Vec::new(); 8];
    for w in workloads() {
        out.push_str(w);
        let mut col = 0;
        for scale in SCALES {
            for topo in TOPOS {
                let k =
                    Key::main(w, topo, scale, PolicyKind::FullPower, Mechanism::FullPower, 0.05);
                let v = matrix.get(&k).avg_modules_traversed;
                avgs[col].push(v);
                col += 1;
                out.push_str(&format!("\t{v:5.2}"));
            }
        }
        out.push('\n');
    }
    out.push_str("avg");
    for col in avgs {
        out.push_str(&format!("\t{:5.2}", mean(col)));
    }
    out.push('\n');
    out
}

// ----------------------------------------------------------------------
// Figure 8 — idle I/O fraction
// ----------------------------------------------------------------------

/// Figure 8: idle I/O power normalized to total network power, per
/// workload, topology and scale (full-power networks).
pub fn fig08(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig08", settings);
    let mut out =
        String::from("Figure 8: idle I/O power / total network power (%), full power\nworkload");
    for scale in SCALES {
        for topo in TOPOS {
            out.push_str(&format!("\t{}:{}", scale.label(), topo.label()));
        }
    }
    out.push('\n');
    let mut per_scale: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    for w in workloads() {
        out.push_str(w);
        for (si, scale) in SCALES.iter().enumerate() {
            for topo in TOPOS {
                let k =
                    Key::main(w, topo, *scale, PolicyKind::FullPower, Mechanism::FullPower, 0.05);
                let frac = matrix.get(&k).power.idle_io_fraction();
                per_scale[si].push(frac);
                out.push_str(&format!("\t{:5.1}", 100.0 * frac));
            }
        }
        out.push('\n');
    }
    out.push_str(&format!(
        "avg idle-I/O share: small {:.0}% (paper: 53%), big {:.0}% (paper: 67%)\n",
        100.0 * mean(per_scale[0].clone()),
        100.0 * mean(per_scale[1].clone())
    ));
    out
}

// ----------------------------------------------------------------------
// Figure 9 — utilizations
// ----------------------------------------------------------------------

/// Figure 9: average channel and link utilization per workload.
pub fn fig09(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig09", settings);
    let mut out = String::from(
        "Figure 9: channel and average link utilization (%), full power\n\
         workload\tchan:small\tlink:small\tchan:big\tlink:big\n",
    );
    let mut chans = Vec::new();
    for w in workloads() {
        let mut row = [0.0f64; 4];
        for (si, scale) in SCALES.iter().enumerate() {
            let mut chan = Vec::new();
            let mut link = Vec::new();
            for topo in TOPOS {
                let k =
                    Key::main(w, topo, *scale, PolicyKind::FullPower, Mechanism::FullPower, 0.05);
                let r = matrix.get(&k);
                chan.push(r.channel_utilization);
                link.push(r.link_utilization);
            }
            row[2 * si] = mean(chan);
            row[2 * si + 1] = mean(link);
        }
        chans.push(row[0]);
        out.push_str(&format!(
            "{w}\t{:5.1}\t{:5.1}\t{:5.1}\t{:5.1}\n",
            100.0 * row[0],
            100.0 * row[1],
            100.0 * row[2],
            100.0 * row[3]
        ));
    }
    out.push_str(&format!(
        "avg small-network channel utilization: {:.0}% (paper: 43%)\n",
        100.0 * mean(chans)
    ));
    out
}

// ----------------------------------------------------------------------
// Figure 11 — unaware power
// ----------------------------------------------------------------------

/// Figure 11: per-HMC power under network-unaware management (FP,
/// VWL/ROO/VWL+ROO at α = 2.5 % and 5 %), averaged over workloads.
pub fn fig11(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig11", settings);
    let mut out = String::from(
        "Figure 11: avg power per HMC (W) under network-unaware management\n\
         scale      topology        FP  2.5%VWL  5%VWL  2.5%ROO  5%ROO  2.5%V+R  5%V+R\n",
    );
    for scale in SCALES {
        for topo in TOPOS {
            let fp = mean(workloads().iter().map(|w| {
                let k =
                    Key::main(w, topo, scale, PolicyKind::FullPower, Mechanism::FullPower, 0.05);
                matrix.get(&k).power.watts_per_hmc()
            }));
            let cell = |mech: Mechanism, alpha: f64| {
                mean(workloads().iter().map(|w| {
                    let k = Key::main(w, topo, scale, PolicyKind::NetworkUnaware, mech, alpha);
                    matrix.get(&k).power.watts_per_hmc()
                }))
            };
            out.push_str(&format!(
                "{:<10} {:<13} {:5.2}  {:6.2}  {:5.2}  {:6.2}  {:5.2}  {:6.2}  {:5.2}\n",
                scale.label(),
                topo.label(),
                fp,
                cell(Mechanism::Vwl, 0.025),
                cell(Mechanism::Vwl, 0.05),
                cell(Mechanism::Roo, 0.025),
                cell(Mechanism::Roo, 0.05),
                cell(Mechanism::VwlRoo, 0.025),
                cell(Mechanism::VwlRoo, 0.05),
            ));
        }
    }
    // Headline: overall and I/O power reduction, per scale.
    for scale in SCALES {
        let mut overall = Vec::new();
        let mut io = Vec::new();
        for w in workloads() {
            for topo in TOPOS {
                for mech in MAIN_MECHS {
                    for alpha in ALPHAS {
                        let k = Key::main(w, topo, scale, PolicyKind::NetworkUnaware, mech, alpha);
                        let r = matrix.get(&k);
                        let b = matrix.get(&k.baseline());
                        overall.push(r.power_reduction_vs(b));
                        io.push(r.io_power_reduction_vs(b));
                    }
                }
            }
        }
        out.push_str(&format!(
            "{} networks: avg overall power reduction {:.0}% (paper: {}%), avg I/O power reduction {:.0}% (paper: {}%)\n",
            scale.label(),
            100.0 * mean(overall),
            if scale == NetworkScale::Small { 14 } else { 24 },
            100.0 * mean(io),
            if scale == NetworkScale::Small { 21 } else { 32 },
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Figure 12 — unaware performance
// ----------------------------------------------------------------------

/// Figure 12: average and maximum performance degradation of
/// network-unaware management vs. full power.
pub fn fig12(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig12", settings);
    let mut out = String::from(
        "Figure 12: performance degradation vs full power, network-unaware (%)\n\
         scale      mech      alpha   daisychain  ternary  star  DDRx-like |  avg   max\n",
    );
    for scale in SCALES {
        for mech in MAIN_MECHS {
            for alpha in ALPHAS {
                let mut per_topo = Vec::new();
                let mut all = Vec::new();
                for topo in TOPOS {
                    let degr: Vec<f64> = workloads()
                        .iter()
                        .map(|w| {
                            let k =
                                Key::main(w, topo, scale, PolicyKind::NetworkUnaware, mech, alpha);
                            let d = matrix.get(&k).degradation_vs(matrix.get(&k.baseline()));
                            all.push(d);
                            d
                        })
                        .collect();
                    per_topo.push(mean(degr));
                }
                out.push_str(&format!(
                    "{:<10} {:<9} {:4.1}%   {:10.2} {:8.2} {:5.2} {:9.2} | {:5.2} {:5.2}\n",
                    scale.label(),
                    mech.label(),
                    100.0 * alpha,
                    100.0 * per_topo[0],
                    100.0 * per_topo[1],
                    100.0 * per_topo[2],
                    100.0 * per_topo[3],
                    100.0 * mean(all.clone()),
                    100.0 * maxf(all),
                ));
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// Figure 13 — link hours
// ----------------------------------------------------------------------

/// Figure 13: distribution of link hours across VWL modes by link
/// utilization bucket (big networks, VWL, α = 5 %): unaware vs aware.
pub fn fig13(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig13", settings);
    let policies = [PolicyKind::NetworkUnaware, PolicyKind::NetworkAware];
    let buckets = [0.01, 0.05, 0.10, 0.20, 1.01];
    let bucket_labels = ["0-1%", "1-5%", "5-10%", "10-20%", "20-100%"];
    let lane_labels = ["16 lanes", "8 lanes", "4 lanes", "1 lane"];
    let mut out = String::from(
        "Figure 13: fraction of total link hours by utilization bucket and VWL mode\n\
         (big networks, VWL links, alpha=5%)\n",
    );
    for policy in policies {
        out.push_str(&format!("--- {} ---\n", policy.label()));
        // cell[bucket][mode] in link-hours.
        let mut cell = [[0.0f64; 4]; 5];
        let mut total_hours = 0.0;
        for w in workloads() {
            for topo in TOPOS {
                let k = Key::main(w, topo, NetworkScale::Big, policy, Mechanism::Vwl, 0.05);
                let r = matrix.get(&k);
                let window = r.power.window.as_secs();
                for link in &r.links {
                    total_hours += window;
                    let b = buckets.iter().position(|&ub| link.utilization < ub).unwrap_or(4);
                    for (lane, slot) in cell[b].iter_mut().enumerate() {
                        // VWL mode indices are 0..4 in BwMode order.
                        let idx = BwMode::from_index(lane).index();
                        *slot += link.mode_time[idx].as_secs();
                    }
                }
            }
        }
        out.push_str("bucket    ");
        for l in lane_labels {
            out.push_str(&format!("{l:>10}"));
        }
        out.push('\n');
        for (b, label) in bucket_labels.iter().enumerate() {
            out.push_str(&format!("{label:<10}"));
            for hours in &cell[b] {
                out.push_str(&format!("{:9.1}%", 100.0 * hours / total_hours));
            }
            out.push('\n');
        }
    }
    out.push_str(
        "expectation: aware shifts low-utilization links into narrow modes and\n\
         high-utilization links back to 16 lanes, relative to unaware\n",
    );
    out
}

// ----------------------------------------------------------------------
// Figure 15 — aware vs unaware power
// ----------------------------------------------------------------------

/// Figure 15: network-wide power reduction of network-aware vs.
/// network-unaware management.
pub fn fig15(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig15", settings);
    let mut out = String::from(
        "Figure 15: power reduction of network-aware vs network-unaware (%)\n\
         scale      mech      alpha   daisychain  ternary  star  DDRx-like |  avg\n",
    );
    for scale in SCALES {
        let mut scale_all = Vec::new();
        let mut scale_io = Vec::new();
        for mech in MAIN_MECHS {
            for alpha in ALPHAS {
                let mut per_topo = Vec::new();
                for topo in TOPOS {
                    let red: Vec<f64> = workloads()
                        .iter()
                        .map(|w| {
                            let ka =
                                Key::main(w, topo, scale, PolicyKind::NetworkAware, mech, alpha);
                            let ku =
                                Key::main(w, topo, scale, PolicyKind::NetworkUnaware, mech, alpha);
                            let aware = matrix.get(&ka);
                            let unaware = matrix.get(&ku);
                            scale_io.push(
                                1.0 - aware.power.energy.io_total()
                                    / unaware.power.energy.io_total().max(1e-12),
                            );
                            aware.power_reduction_vs(unaware)
                        })
                        .collect();
                    scale_all.extend(red.iter().copied());
                    per_topo.push(mean(red));
                }
                out.push_str(&format!(
                    "{:<10} {:<9} {:4.1}%   {:10.2} {:8.2} {:5.2} {:9.2} | {:5.2}\n",
                    scale.label(),
                    mech.label(),
                    100.0 * alpha,
                    100.0 * per_topo[0],
                    100.0 * per_topo[1],
                    100.0 * per_topo[2],
                    100.0 * per_topo[3],
                    100.0 * mean(per_topo.clone()),
                ));
            }
        }
        out.push_str(&format!(
            "{} networks: avg overall reduction {:.0}% (paper: {}%), avg I/O reduction {:.0}% (paper: {}%)\n",
            scale.label(),
            100.0 * mean(scale_all),
            if scale == NetworkScale::Small { 11 } else { 19 },
            100.0 * mean(scale_io),
            if scale == NetworkScale::Small { 17 } else { 29 },
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Figure 16 — per-workload power reduction
// ----------------------------------------------------------------------

/// Figure 16: network-wide power reduction vs. full power per workload
/// (big networks, α = 5 %).
pub fn fig16(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig16", settings);
    let mut out = String::from(
        "Figure 16: power reduction vs full power by workload (big, alpha=5%), avg over topologies (%)\n\
         workload  VWL:unaware ROO:unaware V+R:unaware  VWL:aware ROO:aware V+R:aware\n",
    );
    for w in workloads() {
        let cell = |policy: PolicyKind, mech: Mechanism| {
            mean(TOPOS.iter().map(|&topo| {
                let k = Key::main(w, topo, NetworkScale::Big, policy, mech, 0.05);
                matrix.get(&k).power_reduction_vs(matrix.get(&k.baseline()))
            }))
        };
        out.push_str(&format!(
            "{:<9} {:11.1} {:11.1} {:11.1} {:10.1} {:9.1} {:9.1}\n",
            w,
            100.0 * cell(PolicyKind::NetworkUnaware, Mechanism::Vwl),
            100.0 * cell(PolicyKind::NetworkUnaware, Mechanism::Roo),
            100.0 * cell(PolicyKind::NetworkUnaware, Mechanism::VwlRoo),
            100.0 * cell(PolicyKind::NetworkAware, Mechanism::Vwl),
            100.0 * cell(PolicyKind::NetworkAware, Mechanism::Roo),
            100.0 * cell(PolicyKind::NetworkAware, Mechanism::VwlRoo),
        ));
    }
    out
}

// ----------------------------------------------------------------------
// Figure 17 — aware performance
// ----------------------------------------------------------------------

/// Figure 17: (left) average performance overhead of aware vs. unaware;
/// (right) maximum performance overhead of aware vs. full power.
pub fn fig17(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig17", settings);
    let mut out = String::from(
        "Figure 17 (left): avg perf degradation, aware vs unaware (%)\n\
         scale      mech      alpha  |  avg over topologies+workloads\n",
    );
    let mut global_max = f64::NEG_INFINITY;
    for scale in SCALES {
        for mech in MAIN_MECHS {
            for alpha in ALPHAS {
                let mut degr = Vec::new();
                let mut vs_fp = Vec::new();
                for topo in TOPOS {
                    for w in workloads() {
                        let ka = Key::main(w, topo, scale, PolicyKind::NetworkAware, mech, alpha);
                        let ku = Key::main(w, topo, scale, PolicyKind::NetworkUnaware, mech, alpha);
                        let aware = matrix.get(&ka);
                        degr.push(aware.degradation_vs(matrix.get(&ku)));
                        vs_fp.push(aware.degradation_vs(matrix.get(&ka.baseline())));
                    }
                }
                global_max = global_max.max(maxf(vs_fp.clone()));
                out.push_str(&format!(
                    "{:<10} {:<9} {:4.1}%  |  {:5.2}   (max vs FP: {:5.2})\n",
                    scale.label(),
                    mech.label(),
                    100.0 * alpha,
                    100.0 * mean(degr),
                    100.0 * maxf(vs_fp),
                ));
            }
        }
    }
    out.push_str(&format!(
        "Figure 17 (right): maximum overhead vs full power over all comparisons: {:.1}% (paper: 5.9%)\n",
        100.0 * global_max
    ));
    out
}

// ----------------------------------------------------------------------
// Figure 18 — sensitivity (DVFS, 20 ns ROO)
// ----------------------------------------------------------------------

/// The full-power baselines, then figure 18's 20 ns-wakeup managed keys.
fn fig18_keys() -> Vec<Key> {
    let mechs = [Mechanism::Dvfs, Mechanism::Roo, Mechanism::DvfsRoo];
    let mut keys = fp_keys();
    for policy in [PolicyKind::NetworkUnaware, PolicyKind::NetworkAware] {
        for w in workloads() {
            for topo in TOPOS {
                for scale in SCALES {
                    for mech in mechs {
                        let mut k = Key::main(w, topo, scale, policy, mech, 0.05);
                        k.roo_wakeup_ns = 20;
                        keys.push(k);
                    }
                }
            }
        }
    }
    keys
}

/// Figure 18: power reduction and performance overhead vs. full power for
/// DVFS links and 20 ns-wakeup ROO links (α = 5 %).
pub fn fig18(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "fig18", settings);
    let mechs = [Mechanism::Dvfs, Mechanism::Roo, Mechanism::DvfsRoo];
    let mut out = String::from(
        "Figure 18: sensitivity — DVFS links and 20 ns ROO (alpha=5%)\n\
         scale      mech       policy    power reduction vs FP (%)  perf degradation vs FP (%)\n",
    );
    for scale in SCALES {
        for mech in mechs {
            for policy in [PolicyKind::NetworkUnaware, PolicyKind::NetworkAware] {
                let mut red = Vec::new();
                let mut degr = Vec::new();
                for topo in TOPOS {
                    for w in workloads() {
                        let mut k = Key::main(w, topo, scale, policy, mech, 0.05);
                        k.roo_wakeup_ns = 20;
                        let r = matrix.get(&k);
                        let b = matrix.get(&k.baseline());
                        red.push(r.power_reduction_vs(b));
                        degr.push(r.degradation_vs(b));
                    }
                }
                out.push_str(&format!(
                    "{:<10} {:<10} {:<9} {:22.1} {:27.2}\n",
                    scale.label(),
                    mech.label(),
                    if policy == PolicyKind::NetworkAware { "aware" } else { "unaware" },
                    100.0 * mean(red),
                    100.0 * mean(degr),
                ));
            }
        }
    }
    out
}

// ----------------------------------------------------------------------
// §VII-A — static selection
// ----------------------------------------------------------------------

/// The key set of §VII-A: static selection, its interleaved and
/// contiguous full-power baselines, and the aware α = 30 % comparison.
fn sec7a_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for w in workloads() {
        for topo in TOPOS {
            let mut stat = Key::main(
                w,
                topo,
                NetworkScale::Big,
                PolicyKind::StaticSelection,
                Mechanism::Vwl,
                0.05,
            );
            stat.mapping = AddressMapping::PageInterleaved;
            keys.push(stat.clone());
            // The baseline keeps the interleaved mapping.
            keys.push(stat.baseline());
            keys.push(Key::main(
                w,
                topo,
                NetworkScale::Big,
                PolicyKind::NetworkAware,
                Mechanism::Vwl,
                0.30,
            ));
            keys.push(Key::main(
                w,
                topo,
                NetworkScale::Big,
                PolicyKind::FullPower,
                Mechanism::FullPower,
                0.05,
            ));
        }
    }
    keys
}

/// §VII-A: static fat/tapered bandwidth selection (with page-interleaved
/// mapping) vs. network-aware management at α = 30 % (big networks, VWL).
pub fn sec7a(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "sec7a", settings);
    let mut stat_degr = Vec::new();
    let mut stat_power = Vec::new();
    let mut aware_degr = Vec::new();
    let mut aware_power = Vec::new();
    for w in workloads() {
        for topo in TOPOS {
            let mut stat = Key::main(
                w,
                topo,
                NetworkScale::Big,
                PolicyKind::StaticSelection,
                Mechanism::Vwl,
                0.05,
            );
            stat.mapping = AddressMapping::PageInterleaved;
            let fp_int = stat.baseline();
            let aware = Key::main(
                w,
                topo,
                NetworkScale::Big,
                PolicyKind::NetworkAware,
                Mechanism::Vwl,
                0.30,
            );
            let fp = aware.baseline();
            let rs = matrix.get(&stat);
            let ra = matrix.get(&aware);
            // Static selection is compared against its own interleaved
            // full-power baseline for performance, and everything against
            // contiguous FP for power.
            stat_degr.push(rs.degradation_vs(matrix.get(&fp_int)));
            aware_degr.push(ra.degradation_vs(matrix.get(&fp)));
            stat_power.push(rs.power.watts());
            aware_power.push(ra.power.watts());
        }
    }
    let mut top_q_stat: Vec<f64> = stat_degr.clone();
    top_q_stat.sort_by(|a, b| b.total_cmp(a));
    let q = (top_q_stat.len() / 4).max(1);
    let top_q_stat_avg = mean(top_q_stat[..q].to_vec());
    let mut top_q_aware: Vec<f64> = aware_degr.clone();
    top_q_aware.sort_by(|a, b| b.total_cmp(a));
    let top_q_aware_avg = mean(top_q_aware[..q].to_vec());
    let power_gain = 1.0 - mean(aware_power) / mean(stat_power).max(1e-12);
    format!(
        "Section VII-A: static fat/tapered selection vs network-aware (alpha=30%), big networks\n\
         static+interleave : avg perf overhead {:5.1}% (paper: 13%), worst {:5.1}% (paper: 43%), top-quartile avg {:5.1}% (paper: 30%)\n\
         aware alpha=30%   : avg perf overhead {:5.1}%, worst {:5.1}% (paper: 25%), top-quartile avg {:5.1}% (paper: 20%)\n\
         aware power vs static selection: {:5.1}% lower (paper: 15%)\n",
        100.0 * mean(stat_degr.clone()),
        100.0 * maxf(stat_degr),
        100.0 * top_q_stat_avg,
        100.0 * mean(aware_degr.clone()),
        100.0 * maxf(aware_degr),
        100.0 * top_q_aware_avg,
        100.0 * power_gain,
    )
}

// ----------------------------------------------------------------------
// Fault sweep — link resilience under power management
// ----------------------------------------------------------------------

/// Per-flit error rates swept by [`faults_sweep`]: a fault-free control,
/// the realistic post-CRC floor the HMC specification targets, a
/// pessimistic rate, and two stress rates high enough that retries are
/// statistically certain inside a 1 ms evaluation window.
pub const FAULT_SWEEP_RATES: [f64; 5] = [0.0, 1e-12, 1e-9, 1e-5, 1e-3];

/// The key set of the fault sweep: both cases × both topologies ×
/// every [`FAULT_SWEEP_RATES`] entry.
fn faults_sweep_keys() -> Vec<Key> {
    use memnet_faults::FaultConfig;
    let topos = [TopologyKind::DaisyChain, TopologyKind::TernaryTree];
    let cases =
        [(PolicyKind::FullPower, Mechanism::FullPower), (PolicyKind::NetworkAware, Mechanism::Roo)];
    let mut keys = Vec::new();
    for &(policy, mech) in &cases {
        for topo in topos {
            for rate in FAULT_SWEEP_RATES {
                let spec = FaultConfig::with_flit_error_rate(rate).spec();
                keys.push(
                    Key::main("mixD", topo, NetworkScale::Small, policy, mech, 0.05)
                        .with_faults(&spec),
                );
            }
        }
    }
    keys
}

/// Fault sweep: power, throughput and retry cost versus per-flit error
/// rate, for unmanaged and ROO-managed links on the chain and tree
/// topologies. The `faults` key dimension keeps every scenario distinct
/// in the persistent cache.
pub fn faults_sweep(matrix: &mut Matrix, settings: &Settings) -> String {
    use memnet_faults::FaultConfig;
    let topos = [TopologyKind::DaisyChain, TopologyKind::TernaryTree];
    let cases = [
        ("unmanaged", PolicyKind::FullPower, Mechanism::FullPower),
        ("aware ROO", PolicyKind::NetworkAware, Mechanism::Roo),
    ];
    let workload = "mixD";
    ensure(matrix, "faults", settings);
    let mut out = String::from(
        "Fault sweep: link-level retry cost vs per-flit error rate (mixD, small networks)\n\
         case       topology      error-rate   W/HMC  acc/us  retries  re-flits  retrans(uJ)\n",
    );
    for &(label, policy, mech) in &cases {
        for topo in topos {
            for rate in FAULT_SWEEP_RATES {
                let spec = FaultConfig::with_flit_error_rate(rate).spec();
                let k = Key::main(workload, topo, NetworkScale::Small, policy, mech, 0.05)
                    .with_faults(&spec);
                let r = matrix.get(&k);
                out.push_str(&format!(
                    "{:<10} {:<13} {:>10}  {:6.2}  {:6.1}  {:7}  {:8}  {:11.3}\n",
                    label,
                    topo.label(),
                    if rate == 0.0 { "0".to_string() } else { format!("{rate:.0e}") },
                    r.power.watts_per_hmc(),
                    r.accesses_per_us,
                    r.faults.retries,
                    r.faults.retransmitted_flits,
                    1e6 * r.faults.retransmission_energy,
                ));
            }
        }
    }
    out
}

/// The key set of the adversarial stress suite: every `adv.*` workload
/// against each of the three policy cases.
fn stress_keys() -> Vec<Key> {
    use memnet_workload::stress;
    let cases = [
        (PolicyKind::FullPower, Mechanism::FullPower),
        (PolicyKind::NetworkUnaware, Mechanism::VwlRoo),
        (PolicyKind::NetworkAware, Mechanism::VwlRoo),
    ];
    cases
        .iter()
        .flat_map(|&(policy, mech)| {
            stress::names().into_iter().map(move |w| {
                Key::main(w, TopologyKind::TernaryTree, NetworkScale::Small, policy, mech, 0.05)
            })
        })
        .collect()
}

/// Adversarial stress suite (beyond the paper): every `adv.*` stress
/// workload against the unmanaged baseline and both managed policies
/// running VWL+ROO, the mechanism combination the stress patterns attack
/// (wake chains, rescue-pool drain, epoch-aligned duty flips). Regressions
/// in how a policy survives hostile traffic show up as golden-snapshot
/// diffs here.
pub fn stress(matrix: &mut Matrix, settings: &Settings) -> String {
    use memnet_workload::stress;
    let cases = [
        ("full power", PolicyKind::FullPower, Mechanism::FullPower),
        ("unaware V+R", PolicyKind::NetworkUnaware, Mechanism::VwlRoo),
        ("aware V+R", PolicyKind::NetworkAware, Mechanism::VwlRoo),
    ];
    ensure(matrix, "stress", settings);
    let mut out = String::from(
        "Adversarial stress suite (ternary tree, small networks, alpha = 5%)\n\
         workload       case          W/HMC  acc/us  read lat(ns)  violations\n",
    );
    for w in stress::names() {
        for &(label, policy, mech) in &cases {
            let k =
                Key::main(w, TopologyKind::TernaryTree, NetworkScale::Small, policy, mech, 0.05);
            let r = matrix.get(&k);
            out.push_str(&format!(
                "{:<14} {:<12} {:6.2}  {:6.1}  {:12.1}  {:10}\n",
                w,
                label,
                r.power.watts_per_hmc(),
                r.accesses_per_us,
                r.mean_read_latency_ns,
                r.violations,
            ));
        }
    }
    out
}

/// The key set of the model differential: each case priced by both
/// energy backends.
fn model_diff_keys() -> Vec<Key> {
    use memnet_power::EnergyBackendKind;
    MODEL_DIFF_CASES
        .iter()
        .flat_map(|&(w, policy, mech)| {
            let k =
                Key::main(w, TopologyKind::TernaryTree, NetworkScale::Small, policy, mech, 0.05);
            [k.with_backend(EnergyBackendKind::Idd), k]
        })
        .collect()
}

const MODEL_DIFF_CASES: [(&str, PolicyKind, Mechanism); 3] = [
    ("mixB", PolicyKind::FullPower, Mechanism::FullPower),
    ("mixD", PolicyKind::NetworkUnaware, Mechanism::Dvfs),
    ("mixD", PolicyKind::NetworkAware, Mechanism::VwlRoo),
];

/// Model-vs-model differential (beyond the paper): the same
/// configurations priced by both energy backends — the analytical
/// peak-split model and the IDD current table — with every mode-table
/// watt, energy category and total diffed against a 5 % threshold. The
/// two models are independently parameterized, so agreement within a few
/// percent here is genuine cross-validation, and a miscalibrated entry
/// on either side shows up as a flagged row (and a golden-snapshot diff).
pub fn model_diff(matrix: &mut Matrix, settings: &Settings) -> String {
    use memnet_core::report_text;
    use memnet_power::{EnergyBackendKind, HmcPowerModel, IddModel};
    const THRESHOLD: f64 = 0.05;
    let cases = MODEL_DIFF_CASES;
    ensure(matrix, "model_diff", settings);
    let analytical = HmcPowerModel::paper();
    let idd = IddModel::hmc_gen2();
    let mut out = String::from(
        "Model differential: analytical (paper) vs IDD current table, 5% threshold\n\n\
         Mode-table watts per unidirectional link\n",
    );
    let (table, _) = report_text::model_diff_table(
        "analytical",
        "idd",
        &report_text::model_diff_watts_rows(&analytical, &idd),
        THRESHOLD,
    );
    out.push_str(&table);
    for &(w, policy, mech) in &cases {
        let k = Key::main(w, TopologyKind::TernaryTree, NetworkScale::Small, policy, mech, 0.05);
        let ra = matrix.get(&k);
        let rb = matrix.get(&k.with_backend(EnergyBackendKind::Idd));
        out.push_str(&format!(
            "\n{} / {} / {} (ternary tree, small)\n",
            w, ra.policy, ra.mechanism
        ));
        let rows = report_text::model_diff_energy_rows(ra, rb);
        let (table, _) = report_text::model_diff_table("analytical", "idd", &rows, THRESHOLD);
        out.push_str(&table);
    }
    out
}

// ----------------------------------------------------------------------
// Ablations — the design choices the paper calls out
// ----------------------------------------------------------------------

/// The ISP iteration caps the ISP ablation sweeps (the paper caps at 3).
pub const ISP_CAPS: [usize; 4] = [1, 2, 3, 5];

/// The epoch lengths the epoch ablation sweeps, in µs (the paper uses
/// 100).
const EPOCHS_US: [u64; 4] = [25, 50, 100, 200];

/// The configuration every ablation row varies: aware VWL+ROO on cg.D,
/// big star network, α = 5 %.
fn ablation_base() -> Key {
    Key::main(
        "cg.D",
        TopologyKind::Star,
        NetworkScale::Big,
        PolicyKind::NetworkAware,
        Mechanism::VwlRoo,
        0.05,
    )
}

/// The ablation's sections: each header with its labelled rows.
fn ablation_sections() -> [(&'static str, Vec<(String, Key)>); 4] {
    let base = ablation_base();
    let isp = ISP_CAPS
        .map(|n| (format!("isp_iterations={n}"), Key { isp_iterations: n, ..base.clone() }));
    let epoch = EPOCHS_US.map(|us| {
        (format!("epoch={us}us"), Key { epoch: SimDuration::from_us(us), ..base.clone() })
    });
    let chaining = [true, false].map(|on| {
        let key = Key { mechanism: Mechanism::Roo, wake_chaining: on, ..base.clone() };
        (format!("wake_chaining={on}"), key)
    });
    let rescue = [true, false]
        .map(|on| (format!("rescue_pool={on}"), Key { rescue_pool: on, ..base.clone() }));
    [
        ("== ablation: ISP iteration cap (paper: 3) ==", isp.into()),
        ("== ablation: epoch length (paper: 100 us) ==", epoch.into()),
        ("== ablation: response-link wakeup chaining (SVI-B) ==", chaining.into()),
        ("== ablation: leftover-AMS rescue pool (SVI-A3) ==", rescue.into()),
    ]
}

/// The key set of the ablations: the one full-power baseline every row
/// is compared with, then each section's rows.
fn ablation_keys() -> Vec<Key> {
    let mut keys = vec![ablation_base().baseline()];
    for (_, rows) in ablation_sections() {
        keys.extend(rows.into_iter().map(|(_, key)| key));
    }
    keys
}

/// Ablations of the design choices the paper calls out: the ISP
/// iteration cap, the epoch length, §VI-B response-link wakeup chaining
/// and the §VI-A3 leftover-AMS rescue pool, each row's power and
/// performance against the full-power baseline.
pub fn ablations(matrix: &mut Matrix, settings: &Settings) -> String {
    ensure(matrix, "ablations", settings);
    let baseline = matrix.get(&ablation_base().baseline());
    let mut out = String::new();
    for (i, (header, rows)) in ablation_sections().into_iter().enumerate() {
        if i > 0 {
            out.push('\n');
        }
        out.push_str(header);
        out.push('\n');
        for (label, key) in rows {
            let r = matrix.get(&key);
            out.push_str(&format!(
                "{label:<28} power {:6.2} W  saved {:5.1}%  degradation {:5.2}%  violations {:4}\n",
                r.power.watts(),
                100.0 * r.power_reduction_vs(baseline),
                100.0 * r.degradation_vs(baseline),
                r.violations,
            ));
        }
    }
    out
}
