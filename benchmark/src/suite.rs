//! `perfbench all`: every workload, each run in its own process —
//! untraced for the end-to-end metrics (once per seed), then traced
//! for the per-layer metrics — with the results collected into one
//! directory that `perfbench compare` reads.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::json::{self, Value};
use crate::{metrics, stats, Workload};

pub struct Plan {
    pub seed: u64,
    /// Untraced runs per workload, on seeds `seed .. seed + runs`.
    pub runs: u64,
    pub seconds: f64,
    pub quick: bool,
    pub out: PathBuf,
}

fn git_rev() -> String {
    Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Run one workload in a child process, echo what it prints, and
/// return the result object from its last line.
fn child(plan: &Plan, workload: Workload, seed: u64, trace: bool) -> Option<Value> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &plan.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&plan.out);
    if plan.quick {
        cmd.arg("--quick");
    }
    let output = cmd.stderr(Stdio::inherit()).output().expect("spawn perfbench");
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        eprintln!("perfbench: {} seed {seed} trace {trace}: {}", workload.name(), output.status);
        return None;
    }
    stdout.lines().last().and_then(|line| json::parse(line).ok())
}

fn record(
    plan: &Plan,
    rev: &str,
    workload: Workload,
    seed: u64,
    trace: bool,
    result: Value,
) -> Value {
    Value::obj(vec![
        ("workload", Value::str(workload.name())),
        ("seed", Value::Num(seed as f64)),
        ("seconds", Value::Num(plan.seconds)),
        ("trace", Value::Bool(trace)),
        ("quick", Value::Bool(plan.quick)),
        ("git_rev", Value::str(rev)),
        ("nproc", Value::Num(crate::nproc() as f64)),
        ("result", result),
    ])
}

fn save(path: &Path, doc: &Value) {
    std::fs::write(path, doc.render() + "\n")
        .unwrap_or_else(|e| crate::fatal(&format!("write {}: {e}", path.display())));
}

/// `result.metrics.<name>.value` of one run record.
pub fn metric(run: &Value, name: &str) -> Option<f64> {
    run.get("result")?.get("metrics")?.get(name)?.get("value")?.as_f64()
}

pub fn run(plan: &Plan) -> i32 {
    std::fs::create_dir_all(&plan.out)
        .unwrap_or_else(|e| crate::fatal(&format!("create {}: {e}", plan.out.display())));
    let rev = git_rev();
    let mut failures = 0;
    let mut summary = Vec::new();
    for workload in Workload::ALL {
        let mut runs = Vec::new();
        for seed in plan.seed..plan.seed + plan.runs {
            match child(plan, workload, seed, false) {
                Some(result) => {
                    let doc = record(plan, &rev, workload, seed, false, result);
                    save(&plan.out.join(format!("{}.seed{seed}.e2e.json", workload.name())), &doc);
                    runs.push(doc);
                }
                None => failures += 1,
            }
        }
        let layers = match child(plan, workload, plan.seed, true) {
            Some(result) => {
                let doc = record(plan, &rev, workload, plan.seed, true, result);
                let name = format!("{}.seed{}.layers.json", workload.name(), plan.seed);
                save(&plan.out.join(name), &doc);
                doc.get("result").and_then(|r| r.get("metrics")).cloned().unwrap_or(Value::Null)
            }
            None => {
                failures += 1;
                Value::Null
            }
        };
        let e2e: Vec<(String, Value)> = metrics::END_TO_END
            .iter()
            .filter_map(|def| {
                let values: Vec<f64> = runs.iter().filter_map(|r| metric(r, def.name)).collect();
                (!values.is_empty()).then(|| {
                    let entry = Value::obj(vec![
                        ("median", Value::Num(stats::median(&values))),
                        ("spread", Value::Num(stats::spread(&values))),
                        ("unit", Value::str(def.unit)),
                        ("runs", Value::Num(values.len() as f64)),
                    ]);
                    (def.name.to_string(), entry)
                })
            })
            .collect();
        summary.push((
            workload.name().to_string(),
            Value::obj(vec![("end_to_end", Value::Obj(e2e)), ("per_layer", layers)]),
        ));
    }

    println!("\n== end-to-end summary ({} run(s) per workload, git {rev}) ==", plan.runs);
    println!("{:<26} {:<28} {:>14} {:>8}  unit", "workload", "metric", "median", "spread");
    for (name, entry) in &summary {
        for (metric, v) in entry.get("end_to_end").and_then(Value::as_obj).unwrap_or(&[]) {
            println!(
                "{name:<26} {metric:<28} {:>14.4} {:>7.2}%  {}",
                v.get("median").and_then(Value::as_f64).unwrap_or(0.0),
                100.0 * v.get("spread").and_then(Value::as_f64).unwrap_or(0.0),
                v.get("unit").and_then(Value::as_str).unwrap_or(""),
            );
        }
    }
    // This benchmark measures; it does not claim a gain.
    let doc = Value::obj(vec![
        ("git_rev", Value::str(rev)),
        ("nproc", Value::Num(crate::nproc() as f64)),
        ("seconds", Value::Num(plan.seconds)),
        ("quick", Value::Bool(plan.quick)),
        ("first_seed", Value::Num(plan.seed as f64)),
        ("runs_per_workload", Value::Num(plan.runs as f64)),
        ("failed_runs", Value::Num(f64::from(failures))),
        ("workloads", Value::Obj(summary)),
        ("claim", Value::Null),
    ]);
    save(&plan.out.join("summary.json"), &doc);
    println!("results in {}", plan.out.display());
    i32::from(failures > 0)
}
