//! Benchmark harness regenerating every table and figure of the Aria
//! paper's evaluation (§VI). Each figure has a dedicated binary under
//! `src/bin/`; shared machinery lives here:
//!
//! * [`harness`] — build any compared scheme, load a keyspace, replay a
//!   workload, report simulated throughput.
//! * [`args`] — the common `--scale/--ops/--fast/--out` CLI.
//! * [`report`] — aligned tables, JSONL rows for EXPERIMENTS.md, and the
//!   JSON document writer the service-layer bins share.
//!
//! Run e.g. `cargo run --release -p aria-bench --bin fig9` (add
//! `--full` for the paper's exact sizes; the default `--scale 16`
//! shrinks keyspace, EPC and ShieldStore roots by the same factor, which
//! preserves every ratio the figures depend on).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod args;
pub mod harness;
pub mod report;

pub use args::Args;
pub use harness::{improvement, run, RunConfig, RunResult, StoreKind, Workload};
pub use report::{
    append_row, fmt_tput, git_rev, json_f64, json_str, newest_flight_dump, percentile, print_table,
    write_doc, write_jsonl, Obj, Row, ToJson, SCHEMA_VERSION,
};
