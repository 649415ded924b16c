//! CSV export of experiment results, for external plotting.
//!
//! Every figure's result type gets a `*_csv` function returning the
//! file contents; the binary's `--out DIR` flag writes them to disk.
//! The column layouts mirror the paper's figure axes so a plotting
//! script can regenerate each chart directly.

use crate::{
    ablations, cpi_accuracy, fig01_idle_trace, fig02_model_error, fig03_cross_vf, fig06_energy,
    fig07_capping, fig08_09_background, fig10_nb_share, fig11_nb_dvfs, overhead,
};
use std::fmt::Write as _;

/// Escapes one CSV cell (quotes fields containing separators).
fn cell(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Renders rows of cells into CSV text.
pub fn to_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str(
        &headers
            .iter()
            .map(|h| cell(h))
            .collect::<Vec<_>>()
            .join(","),
    );
    out.push('\n');
    for row in rows {
        out.push_str(&row.iter().map(|c| cell(c)).collect::<Vec<_>>().join(","));
        out.push('\n');
    }
    out
}

/// Fig. 1 series: step, normalised power, temperature.
pub fn fig01_csv(r: &fig01_idle_trace::Fig01Result) -> String {
    let rows: Vec<Vec<String>> = r
        .series
        .iter()
        .map(|p| {
            vec![
                p.step.to_string(),
                format!("{:.6}", p.normalized_power),
                format!("{:.3}", p.temperature_k),
            ]
        })
        .collect();
    to_csv(&["step", "normalized_power", "temperature_k"], &rows)
}

/// §III per-benchmark CPI errors.
pub fn cpi_csv(r: &cpi_accuracy::CpiAccuracyResult) -> String {
    let rows: Vec<Vec<String>> = r
        .benchmarks
        .iter()
        .map(|b| {
            vec![
                b.name.clone(),
                format!("{:.6}", b.down_error),
                format!("{:.6}", b.up_error),
            ]
        })
        .collect();
    to_csv(&["benchmark", "down_error", "up_error"], &rows)
}

/// Fig. 2 cells: vf, suite, dynamic/chip mean and SD.
pub fn fig02_csv(r: &fig02_model_error::Fig02Result) -> String {
    let rows: Vec<Vec<String>> = r
        .cells
        .iter()
        .map(|c| {
            vec![
                c.vf.to_string(),
                c.suite.map_or("ALL".into(), |s| s.abbrev().to_string()),
                format!("{:.6}", c.dynamic.mean),
                format!("{:.6}", c.dynamic.std_dev),
                format!("{:.6}", c.chip.mean),
                format!("{:.6}", c.chip.std_dev),
                c.dynamic.count.to_string(),
            ]
        })
        .collect();
    to_csv(
        &[
            "vf",
            "suite",
            "dyn_mean",
            "dyn_sd",
            "chip_mean",
            "chip_sd",
            "n",
        ],
        &rows,
    )
}

/// Fig. 3 pairs: from, to, dynamic/chip mean and SD.
pub fn fig03_csv(r: &fig03_cross_vf::Fig03Result) -> String {
    let rows: Vec<Vec<String>> = r
        .pairs
        .iter()
        .map(|p| {
            vec![
                p.from.to_string(),
                p.to.to_string(),
                format!("{:.6}", p.dynamic.mean),
                format!("{:.6}", p.dynamic.std_dev),
                format!("{:.6}", p.chip.mean),
                format!("{:.6}", p.chip.std_dev),
            ]
        })
        .collect();
    to_csv(
        &["from", "to", "dyn_mean", "dyn_sd", "chip_mean", "chip_sd"],
        &rows,
    )
}

/// Fig. 6 per-combination energy-prediction errors.
pub fn fig06_csv(r: &fig06_energy::Fig06Result) -> String {
    let rows: Vec<Vec<String>> = r
        .combos
        .iter()
        .map(|c| {
            vec![
                c.name.clone(),
                format!("{:.6}", c.ppep),
                format!("{:.6}", c.green_governors),
            ]
        })
        .collect();
    to_csv(&["combination", "ppep_aae", "green_governors_aae"], &rows)
}

/// Fig. 7 traces: step, cap, both policies' measured power.
pub fn fig07_csv(r: &fig07_capping::Fig07Result) -> String {
    let rows: Vec<Vec<String>> = (0..r.ppep.power.len())
        .map(|i| {
            vec![
                i.to_string(),
                format!("{:.3}", r.ppep.cap[i].as_watts()),
                format!("{:.3}", r.ppep.power[i].as_watts()),
                format!("{:.3}", r.iterative.power[i].as_watts()),
            ]
        })
        .collect();
    to_csv(&["step", "cap_w", "ppep_w", "iterative_w"], &rows)
}

/// Figs. 8/9 sweep: per workload × instances × vf.
pub fn fig08_09_csv(r: &fig08_09_background::Fig0809Result) -> String {
    let mut rows = Vec::new();
    for e in &r.entries {
        for p in &e.per_thread {
            rows.push(vec![
                e.benchmark.clone(),
                e.instances.to_string(),
                p.vf.to_string(),
                format!("{:.6}", p.energy),
                format!("{:.6}", p.time),
                format!("{:.6}", p.edp),
            ]);
        }
    }
    to_csv(
        &[
            "benchmark",
            "instances",
            "vf",
            "energy_j",
            "time_s",
            "edp_js",
        ],
        &rows,
    )
}

/// Fig. 10 cells.
pub fn fig10_csv(r: &fig10_nb_share::Fig10Result) -> String {
    let rows: Vec<Vec<String>> = r
        .cells
        .iter()
        .map(|c| {
            vec![
                c.benchmark.clone(),
                c.instances.to_string(),
                c.vf.to_string(),
                format!("{:.6}", c.normalized_energy),
                format!("{:.6}", c.nb_ratio),
            ]
        })
        .collect();
    to_csv(
        &[
            "benchmark",
            "instances",
            "vf",
            "normalized_energy",
            "nb_ratio",
        ],
        &rows,
    )
}

/// Fig. 11 entries.
pub fn fig11_csv(r: &fig11_nb_dvfs::Fig11Result) -> String {
    let rows: Vec<Vec<String>> = r
        .entries
        .iter()
        .map(|e| {
            vec![
                e.benchmark.clone(),
                e.instances.to_string(),
                format!("{:.6}", e.energy_saving),
                format!("{:.6}", e.speedup),
            ]
        })
        .collect();
    to_csv(
        &["benchmark", "instances", "energy_saving", "speedup"],
        &rows,
    )
}

/// Ablation points.
pub fn ablations_csv(r: &ablations::AblationResult) -> String {
    let rows: Vec<Vec<String>> = r
        .points
        .iter()
        .map(|p| {
            vec![
                p.label.to_string(),
                format!("{:.6}", p.chip_aae),
                format!("{:.6}", p.dynamic_aae),
            ]
        })
        .collect();
    to_csv(&["configuration", "chip_aae", "dynamic_aae"], &rows)
}

/// Per-stage latency summary of the overhead experiment.
pub fn overhead_csv(r: &overhead::OverheadResult) -> String {
    let rows: Vec<Vec<String>> = r
        .stages
        .iter()
        .map(|s| {
            vec![
                s.stage.name().to_string(),
                s.count.to_string(),
                format!("{:.3}", s.p50_us),
                format!("{:.3}", s.p95_us),
                format!("{:.3}", s.p99_us),
                format!("{:.3}", s.max_us),
            ]
        })
        .collect();
    to_csv(
        &["stage", "spans", "p50_us", "p95_us", "p99_us", "max_us"],
        &rows,
    )
}

/// A one-line human summary of which files a writer produced.
pub fn written_summary(paths: &[String]) -> String {
    let mut s = String::new();
    let _ = write!(s, "wrote {} CSV file(s):", paths.len());
    for p in paths {
        let _ = write!(s, " {p}");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn csv_escaping() {
        let rows = vec![vec![
            "a,b".to_string(),
            "plain".to_string(),
            "q\"q".to_string(),
        ]];
        let csv = to_csv(&["x", "y", "z"], &rows);
        assert_eq!(csv, "x,y,z\n\"a,b\",plain,\"q\"\"q\"\n");
    }

    #[test]
    fn fig11_csv_layout() {
        let r = crate::fig11_nb_dvfs::Fig11Result {
            entries: vec![crate::fig11_nb_dvfs::NbDvfsEntry {
                benchmark: "433.milc".into(),
                instances: 2,
                energy_saving: 0.123456,
                speedup: 1.25,
            }],
            average_saving: 0.123456,
            average_speedup: 1.25,
        };
        let csv = fig11_csv(&r);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("benchmark,instances,energy_saving,speedup")
        );
        assert_eq!(lines.next(), Some("433.milc,2,0.123456,1.250000"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn written_summary_formats() {
        let s = written_summary(&["a.csv".into(), "b.csv".into()]);
        assert!(s.contains("2 CSV"));
        assert!(s.contains("a.csv"));
    }
}
