//! Result reporting: aligned console tables plus machine-readable JSONL
//! rows that EXPERIMENTS.md is regenerated from.

use std::fs;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;

use crate::harness::RunResult;

/// Version of the emitted JSON row layout. Bump when a field changes
/// meaning or is removed (adding fields is backward compatible):
///
/// * 1 — the unversioned PR-1 layout (implicit).
/// * 2 — added `schema_version` and `git_rev` to every row.
/// * 3 — netbench points and the chaosbench document embed a
///   `telemetry` snapshot (counters + trimmed histogram bucket arrays,
///   see `aria_telemetry::TelemetrySnapshot::to_json`).
/// * 4 — the embedded telemetry drops the slow-op count and its drop
///   count (slow store runs are tail spans) and gains
///   `traces.tail_spans`.
pub const SCHEMA_VERSION: u32 = 4;

/// The git revision results are stamped with, so `results/*.json*` and
/// committed `BENCH_*` snapshots stay comparable across PRs. Resolution
/// order: `ARIA_GIT_REV` env override, `git rev-parse --short HEAD`,
/// else `"unknown"` (results must still be writable from a tarball).
pub fn git_rev() -> &'static str {
    static REV: OnceLock<String> = OnceLock::new();
    REV.get_or_init(|| {
        if let Ok(rev) = std::env::var("ARIA_GIT_REV") {
            if !rev.is_empty() {
                return rev;
            }
        }
        std::process::Command::new("git")
            .args(["rev-parse", "--short", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    })
}

/// One emitted result row.
#[derive(Debug)]
pub struct Row {
    /// Experiment id (e.g. "fig9").
    pub experiment: String,
    /// Series label (e.g. "Aria", "ShieldStore").
    pub series: String,
    /// X-axis point (e.g. "RD_95/16B/skew").
    pub x: String,
    /// Simulated ops/s.
    pub throughput: f64,
    /// Simulated cycles in the measured phase.
    pub cycles: u64,
    /// Measured requests.
    pub ops: u64,
    /// Page faults during measurement.
    pub page_faults: u64,
    /// MACs computed during measurement.
    pub macs: u64,
    /// EPC bytes in use.
    pub epc_used: usize,
}

impl Row {
    /// Build a row from a run result.
    pub fn new(experiment: &str, series: &str, x: &str, r: &RunResult) -> Row {
        Row {
            experiment: experiment.to_string(),
            series: series.to_string(),
            x: x.to_string(),
            throughput: r.throughput,
            cycles: r.cycles,
            ops: r.ops,
            page_faults: r.page_faults,
            macs: r.snapshot.macs_computed,
            epc_used: r.epc_used,
        }
    }

    /// The row as one JSON object (hand-written: the workspace builds
    /// offline, without serde).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"schema_version\":{SCHEMA_VERSION},\"git_rev\":{},\"experiment\":{},\
             \"series\":{},\"x\":{},\"throughput\":{},\"cycles\":{},\
             \"ops\":{},\"page_faults\":{},\"macs\":{},\"epc_used\":{}}}",
            json_str(git_rev()),
            json_str(&self.experiment),
            json_str(&self.series),
            json_str(&self.x),
            json_f64(self.throughput),
            self.cycles,
            self.ops,
            self.page_faults,
            self.macs,
            self.epc_used,
        )
    }
}

/// Quote + escape a string for hand-written JSON (the workspace builds
/// offline, without serde).
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a float for JSON (`null` for NaN/Infinity, which JSON lacks).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        // JSON has no NaN/Infinity; null keeps rows parseable.
        "null".to_string()
    }
}

/// Write rows to `<out>/<experiment>.jsonl`, replacing what an earlier
/// run left there: one file holds one run.
pub fn write_jsonl(out_dir: &str, experiment: &str, rows: &[Row]) {
    let dir = Path::new(out_dir);
    if fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create {out_dir}; results not persisted");
        return;
    }
    let path = dir.join(format!("{experiment}.jsonl"));
    let mut file = match fs::File::create(&path) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("warning: cannot open {path:?}: {e}");
            return;
        }
    };
    for row in rows {
        let _ = writeln!(file, "{}", row.to_json());
    }
    println!("\nresults written to {}", path.display());
}

/// Count the `aria-flight-*.json` post-mortems under `dir` and read
/// the newest one (filenames embed the unix-millis stamp, so the
/// lexicographically last is the newest). `None` when the directory
/// is missing or holds no dumps.
pub fn newest_flight_dump(dir: &std::path::Path) -> Option<(usize, std::path::PathBuf, String)> {
    let mut dumps: Vec<std::path::PathBuf> = fs::read_dir(dir)
        .ok()?
        .flatten()
        .map(|e| e.path())
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("aria-flight-") && n.ends_with(".json"))
        })
        .collect();
    dumps.sort();
    let newest = dumps.last()?.clone();
    let body = fs::read_to_string(&newest).ok()?;
    Some((dumps.len(), newest, body))
}

/// Human-readable ops/s (e.g. "1.23M", "456k").
pub fn fmt_tput(t: f64) -> String {
    if t >= 1e6 {
        format!("{:.2}M", t / 1e6)
    } else if t >= 1e3 {
        format!("{:.0}k", t / 1e3)
    } else {
        format!("{t:.0}")
    }
}

/// Print an aligned table.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            s.push_str(&format!("{:<w$}  ", cell, w = widths.get(i).copied().unwrap_or(8)));
        }
        s.trim_end().to_string()
    };
    let head: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", line(&head));
    println!("{}", "-".repeat(widths.iter().sum::<usize>() + widths.len() * 2));
    for row in rows {
        println!("{}", line(row));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_carry_schema_version_and_git_rev() {
        let row = Row {
            experiment: "exp".to_string(),
            series: "s".to_string(),
            x: "x".to_string(),
            throughput: 1.5,
            cycles: 2,
            ops: 3,
            page_faults: 4,
            macs: 5,
            epc_used: 6,
        };
        let json = row.to_json();
        assert!(json.starts_with(&format!("{{\"schema_version\":{SCHEMA_VERSION},")), "{json}");
        assert!(json.contains("\"git_rev\":\""), "{json}");
        assert!(json.contains("\"experiment\":\"exp\""), "{json}");
        assert!(!git_rev().is_empty());
    }

    fn row(series: &str) -> Row {
        Row {
            experiment: "exp".to_string(),
            series: series.to_string(),
            x: "x".to_string(),
            throughput: 1.0,
            cycles: 1,
            ops: 1,
            page_faults: 0,
            macs: 0,
            epc_used: 0,
        }
    }

    #[test]
    fn write_jsonl_keeps_only_the_latest_run() {
        let dir = std::env::temp_dir().join(format!("aria-report-{}", std::process::id()));
        let out = dir.to_str().expect("utf-8 temp dir");
        write_jsonl(out, "exp", &[row("first"), row("first")]);
        write_jsonl(out, "exp", &[row("second")]);
        let body = fs::read_to_string(dir.join("exp.jsonl")).expect("results file");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(body.lines().count(), 1, "{body}");
        assert!(body.contains("\"series\":\"second\""), "{body}");
    }
}
