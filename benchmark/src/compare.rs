//! `perfbench compare A_DIR B_DIR`: one row per workload × end-to-end
//! metric with both medians, the relative difference and the fixed
//! bound. A is the baseline (parent), B the candidate.
//!
//! * `REGRESSION` — B's median is worse than A's by more than the bound;
//! * `unresolved` — a side's own run-to-run spread (inter-quartile range
//!   ÷ median; max − min below four runs) exceeds the bound, so the
//!   comparison cannot say "unchanged";
//! * `ok` — neither.
//!
//! Exits 1 on any regression, 2 if a directory cannot be compared
//! (missing runs, or results of a `--quick` run).

use std::path::Path;

use crate::json::{self, Value};
use crate::metrics::{Better, Def, END_TO_END};
use crate::suite::metric;
use crate::{stats, Workload};

/// The untraced run records of one result directory.
fn load(dir: &Path) -> Result<Vec<Value>, String> {
    let mut runs = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    for entry in entries.flatten() {
        let path = entry.path();
        if !path.to_string_lossy().ends_with(".e2e.json") {
            continue;
        }
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        if doc.get("quick").and_then(Value::as_bool) != Some(false) {
            return Err(format!(
                "{}: a --quick result is a smoke test, not a measurement",
                path.display()
            ));
        }
        runs.push(doc);
    }
    if runs.is_empty() {
        return Err(format!("{}: no *.e2e.json run records", dir.display()));
    }
    Ok(runs)
}

fn values(runs: &[Value], workload: Workload, def: &Def) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.get("workload").and_then(Value::as_str) == Some(workload.name()))
        .filter_map(|r| metric(r, def.name))
        .collect()
}

#[derive(Debug, PartialEq)]
pub enum Verdict {
    Ok,
    Unresolved,
    Regression,
}

/// Share of A's median by which B is worse (negative: better).
pub fn worse_by(def: &Def, a: f64, b: f64) -> f64 {
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

pub fn verdict(def: &Def, a: &[f64], b: &[f64]) -> Verdict {
    if stats::spread(a) > def.bound || stats::spread(b) > def.bound {
        Verdict::Unresolved
    } else if worse_by(def, stats::median(a), stats::median(b)) > def.bound {
        Verdict::Regression
    } else {
        Verdict::Ok
    }
}

pub fn run(a_dir: &Path, b_dir: &Path) -> i32 {
    let (a_runs, b_runs) = match (load(a_dir), load(b_dir)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("perfbench compare: {e}");
            return 2;
        }
    };
    println!(
        "{:<26} {:<28} {:>14} {:>14} {:>9} {:>7} {:>8} {:>8}  verdict",
        "workload", "metric", "A median", "B median", "worse by", "bound", "A spread", "B spread"
    );
    let (mut regressions, mut unresolved) = (0, 0);
    for workload in Workload::ALL {
        for def in END_TO_END {
            let (a, b) = (values(&a_runs, workload, def), values(&b_runs, workload, def));
            if a.is_empty() || b.is_empty() {
                eprintln!(
                    "perfbench compare: {} {} missing on one side",
                    workload.name(),
                    def.name
                );
                return 2;
            }
            let v = verdict(def, &a, &b);
            println!(
                "{:<26} {:<28} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}% {:>7.2}% {:>7.2}%  {}",
                workload.name(),
                def.name,
                stats::median(&a),
                stats::median(&b),
                100.0 * worse_by(def, stats::median(&a), stats::median(&b)),
                100.0 * def.bound,
                100.0 * stats::spread(&a),
                100.0 * stats::spread(&b),
                match v {
                    Verdict::Ok => "ok",
                    Verdict::Unresolved => "unresolved",
                    Verdict::Regression => "REGRESSION",
                }
            );
            regressions += i32::from(v == Verdict::Regression);
            unresolved += i32::from(v == Verdict::Unresolved);
        }
    }
    println!("{regressions} regression(s), {unresolved} unresolved");
    i32::from(regressions > 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::find;

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let tput = find(END_TO_END, "throughput_ops_s").unwrap(); // higher is better
        let lat = find(END_TO_END, "get_p50_us").unwrap(); // lower is better
        let steady = |m: f64| vec![m * 0.99, m, m * 1.01, m, m * 1.005];
        // Just inside and just outside each metric's own bound.
        let (inside, outside) = (tput.bound * 0.8, tput.bound * 1.2);
        assert_eq!(verdict(tput, &steady(100.0), &steady(100.0 * (1.0 - inside))), Verdict::Ok);
        assert_eq!(
            verdict(tput, &steady(100.0), &steady(100.0 * (1.0 - outside))),
            Verdict::Regression
        );
        assert_eq!(verdict(tput, &steady(100.0), &steady(130.0)), Verdict::Ok);
        let (inside, outside) = (lat.bound * 0.8, lat.bound * 1.2);
        assert_eq!(verdict(lat, &steady(10.0), &steady(10.0 * (1.0 + inside))), Verdict::Ok);
        assert_eq!(
            verdict(lat, &steady(10.0), &steady(10.0 * (1.0 + outside))),
            Verdict::Regression
        );
        assert_eq!(verdict(lat, &steady(10.0), &steady(8.0)), Verdict::Ok);
        // A side whose own spread exceeds the bound cannot resolve a difference.
        let w = 2.0 * tput.bound;
        let noisy: Vec<f64> =
            [-w, -w / 2.0, 0.0, w / 2.0, w].iter().map(|d| 100.0 * (1.0 + d)).collect();
        assert_eq!(verdict(tput, &noisy, &steady(100.0 * (1.0 - outside))), Verdict::Unresolved);
        assert!((worse_by(tput, 100.0, 85.0) - 0.15).abs() < 1e-12);
        assert!((worse_by(lat, 10.0, 11.5) - 0.15).abs() < 1e-12);
    }
}
