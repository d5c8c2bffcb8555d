//! Smoke tests: every figure regenerator runs end-to-end on a tiny
//! evaluation window and produces the expected series structure.

use memnet_bench::{figures, Matrix, Settings};
use memnet_simcore::SimDuration;

fn tiny() -> Settings {
    Settings { eval_period: SimDuration::from_us(25), threads: 2, seed: 3, ..Settings::default() }
}

#[test]
fn tables_contain_paper_parameters() {
    let t = figures::tables();
    assert!(t.contains("4 GB / 32"));
    assert!(t.contains("11/11/22/11/5/12"));
    assert!(t.contains("mixG"));
}

#[test]
fn fig04_has_one_column_per_workload_and_39_rows() {
    let f = figures::fig04();
    let mut lines = f.lines();
    let header = lines.nth(1).unwrap();
    assert_eq!(header.split('\t').count(), 15); // "GB" + 14 workloads
    assert_eq!(f.lines().count(), 2 + 39); // title + header + 0..=38 GB
                                           // Final row is 100 % everywhere.
    let last = f.lines().last().unwrap();
    for cell in last.split('\t').skip(1) {
        assert_eq!(cell.trim(), "100.0");
    }
}

#[test]
fn fig05_reports_eight_topology_scale_rows() {
    let mut m = Matrix::new();
    let s = tiny();
    let f = figures::fig05(&mut m, &s);
    for topo in ["daisychain", "ternary tree", "star", "DDRx-like"] {
        assert!(f.contains(topo), "missing {topo} row");
    }
    assert!(f.contains("I/O share of total network power"));
    // FP matrix: 14 workloads x 4 topologies x 2 scales.
    assert_eq!(m.totals().simulated, 112);
}

#[test]
fn fig06_and_fig09_reuse_the_same_fp_runs() {
    let mut m = Matrix::new();
    let s = tiny();
    let _ = figures::fig06(&mut m, &s);
    let _ = figures::fig09(&mut m, &s);
    assert_eq!(m.totals().simulated, 112, "fig09 must not re-simulate the FP matrix");
}
