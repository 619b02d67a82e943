//! Result reporting: aligned console tables, the JSONL rows that
//! EXPERIMENTS.md is regenerated from, and the one JSON document writer
//! every service-layer bench bin emits its result through.

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
/// * 5 — every latency percentile is nearest-rank (`ceil(q·n)`, see
///   [`percentile`]); chaosbench's plain-mode `sweep.wrong` also counts
///   a stale version and an untyped transport failure; netbench and
///   overloadbench say `experiment` where they said `bench`.
/// * 6 — durabench sweep points carry `promotions` and
///   `promotion_threshold`: the tiered store promotes only a cold key
///   read that many times, so `hot_hit_rate` no longer reads as "how
///   well the hot region absorbs the working set" on its own.
pub const SCHEMA_VERSION: u32 = 6;

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

    /// The row as one JSON object: the common header, then its fields.
    pub fn to_json(&self) -> String {
        let body = Obj::new()
            .field("series", &self.series)
            .field("x", &self.x)
            .field("throughput", self.throughput)
            .field("cycles", self.cycles)
            .field("ops", self.ops)
            .field("page_faults", self.page_faults)
            .field("macs", self.macs)
            .field("epc_used", self.epc_used);
        header(&self.experiment).extend(body).to_json()
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

/// A value the document writer can render.
pub trait ToJson {
    /// Append this value's JSON text to `out`.
    fn write_json(&self, out: &mut String);
}

macro_rules! to_json_display {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn write_json(&self, out: &mut String) {
                out.push_str(&self.to_string());
            }
        }
    )*};
}
to_json_display!(bool, u32, u64, usize);

impl ToJson for f64 {
    fn write_json(&self, out: &mut String) {
        out.push_str(&json_f64(*self));
    }
}

impl ToJson for str {
    fn write_json(&self, out: &mut String) {
        out.push_str(&json_str(self));
    }
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        self.as_str().write_json(out);
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn write_json(&self, out: &mut String) {
        (**self).write_json(out);
    }
}

/// `None` renders as `null`.
impl<T: ToJson> ToJson for Option<T> {
    fn write_json(&self, out: &mut String) {
        match self {
            Some(v) => v.write_json(out),
            None => out.push_str("null"),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

/// The server's end-of-run snapshot, embedded as rendered by
/// [`aria_telemetry::TelemetrySnapshot::to_json`].
impl ToJson for aria_telemetry::TelemetrySnapshot {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_json());
    }
}

/// A JSON object built field by field, in insertion order.
#[derive(Debug, Default)]
pub struct Obj {
    /// Each field rendered as `"key":value`.
    fields: Vec<String>,
}

impl Obj {
    /// An empty object.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// Append `key` with `value`.
    pub fn field(mut self, key: &str, value: impl ToJson) -> Obj {
        let mut f = json_str(key);
        f.push(':');
        value.write_json(&mut f);
        self.fields.push(f);
        self
    }

    /// Append every field of `other`.
    pub fn extend(mut self, other: Obj) -> Obj {
        self.fields.extend(other.fields);
        self
    }

    /// The object on one line.
    pub fn to_json(&self) -> String {
        format!("{{{}}}", self.fields.join(","))
    }
}

impl ToJson for Obj {
    fn write_json(&self, out: &mut String) {
        out.push_str(&self.to_json());
    }
}

/// The header every result row and document opens with.
fn header(experiment: &str) -> Obj {
    Obj::new()
        .field("schema_version", SCHEMA_VERSION)
        .field("git_rev", git_rev())
        .field("experiment", experiment)
}

/// A result document as written to disk: the header, then `body`'s
/// fields, one top-level field per line.
fn document(experiment: &str, body: Obj) -> String {
    format!("{{\n{}\n}}\n", header(experiment).extend(body).fields.join(",\n"))
}

/// Write one result document to `<out_dir>/<experiment>.json`,
/// replacing what an earlier run left there.
pub fn write_doc(out_dir: &str, experiment: &str, body: Obj) {
    persist(out_dir, &format!("{experiment}.json"), &document(experiment, body), false);
}

/// Append one result row (header + `body`) to
/// `<out_dir>/<experiment>.jsonl`, for bins whose file accumulates one
/// row per run.
pub fn append_row(out_dir: &str, experiment: &str, body: Obj) {
    let row = header(experiment).extend(body).to_json();
    persist(out_dir, &format!("{experiment}.jsonl"), &format!("{row}\n"), true);
}

/// Write rows to `<out>/<experiment>.jsonl`, replacing what an earlier
/// run left there: one file holds one run.
pub fn write_jsonl(out_dir: &str, experiment: &str, rows: &[Row]) {
    let text: String = rows.iter().map(|r| r.to_json() + "\n").collect();
    persist(out_dir, &format!("{experiment}.jsonl"), &text, false);
}

/// The one error policy for result files: a run whose results cannot be
/// written still finishes (its verdict and exit code stand); the
/// failure is a warning on stderr.
fn persist(out_dir: &str, file: &str, text: &str, append: bool) {
    let dir = Path::new(out_dir);
    if fs::create_dir_all(dir).is_err() {
        eprintln!("warning: cannot create {out_dir}; results not persisted");
        return;
    }
    let path = dir.join(file);
    let opened = fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(&path);
    match opened.and_then(|mut f| f.write_all(text.as_bytes())) {
        Ok(()) => println!("results written to {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
}

/// Nearest-rank percentile (`ceil(q·n)`-th smallest) of an
/// ascending-sorted slice; NaN when it is empty (rendered `null`).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
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
    fn document_layout_is_pinned() {
        let body = Obj::new()
            .field("name", "a \"quoted\"\\path\n")
            .field("ratio", f64::NAN)
            .field("inf", f64::INFINITY)
            .field("half", 0.5)
            .field("missing", None::<u64>)
            .field(
                "points",
                vec![
                    Obj::new().field("id", 1u64).field("ok", true),
                    Obj::new().field("id", 2u64).field("tags", vec!["x", "y"]),
                ],
            );
        let expected = format!(
            "{{\n\"schema_version\":{SCHEMA_VERSION},\n\"git_rev\":{},\n\"experiment\":\"exp\",\n\
             \"name\":\"a \\\"quoted\\\"\\\\path\\n\",\n\"ratio\":null,\n\"inf\":null,\n\
             \"half\":0.5,\n\"missing\":null,\n\
             \"points\":[{{\"id\":1,\"ok\":true}},{{\"id\":2,\"tags\":[\"x\",\"y\"]}}]\n}}\n",
            json_str(git_rev()),
        );
        assert_eq!(document("exp", body), expected);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&xs, 0.50), 5.0);
        assert_eq!(percentile(&xs, 0.95), 10.0);
        assert_eq!(percentile(&xs, 0.99), 10.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        // ceil(0.5 * 4) = 2nd smallest, where round(0.5 * 3) would take the 3rd.
        assert_eq!(percentile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn append_row_accumulates_runs() {
        let dir = std::env::temp_dir().join(format!("aria-report-rows-{}", std::process::id()));
        let out = dir.to_str().expect("utf-8 temp dir");
        append_row(out, "exp", Obj::new().field("run", 1u64));
        append_row(out, "exp", Obj::new().field("run", 2u64));
        let body = fs::read_to_string(dir.join("exp.jsonl")).expect("results file");
        let _ = fs::remove_dir_all(&dir);
        assert_eq!(body.lines().count(), 2, "{body}");
        assert!(body.lines().all(|l| l.starts_with("{\"schema_version\":")), "{body}");
        assert!(body.ends_with("\"run\":2}\n"), "{body}");
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
