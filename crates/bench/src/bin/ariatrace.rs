//! ariatrace — live critical-path viewer for a running Aria server.
//!
//! Attaches over aria-net, streams spans through the `TRACE` opcode
//! (resume cursors keep each poll incremental), and renders the
//! per-stage critical path of the head-sampled requests: how long they
//! spent in decode → admission → shard queue → execute → encode →
//! flush, split per shard and hot-vs-cold. Below it, the newest tail
//! spans: store runs that crossed the server's slow threshold, with
//! their per-run cost attribution. `--dump` instead asks the server's
//! flight recorder for its JSON post-mortem and prints it.
//!
//! ```sh
//! cargo run --release -p aria-bench --bin ariatrace -- \
//!     --addr 127.0.0.1:4433 [--interval-ms 1000] [--iterations 0] \
//!     [--raw 0] [--no-clear] [--dump]
//! ```
//!
//! `--iterations 0` (the default) streams until interrupted;
//! `--raw N` additionally prints the newest N spans of each window;
//! `--no-clear` appends frames instead of redrawing in place.

use std::thread;
use std::time::Duration;

use aria_bench::{print_table, Args};
use aria_net::{AriaClient, ClientConfig};
use aria_telemetry::{outcome, stage, Span, NET_OP_NAMES, STAGE_NAMES};

fn main() {
    let args = Args::parse();
    let addr = args.get_str("addr", "");
    if addr.is_empty() {
        eprintln!(
            "usage: ariatrace --addr <host:port> [--interval-ms 1000] \
             [--iterations 0] [--raw 0] [--no-clear] [--dump]"
        );
        std::process::exit(2);
    }
    let parsed: std::net::SocketAddr = addr.parse().unwrap_or_else(|_| {
        eprintln!("ariatrace: bad --addr {addr:?}");
        std::process::exit(2);
    });
    let interval = Duration::from_millis(args.get("interval-ms", 1_000u64).max(50));
    let iterations = args.get("iterations", 0u64);
    let raw = args.get("raw", 0usize);
    let clear = !args.flag("no-clear");

    let mut client = match AriaClient::connect(parsed, ClientConfig::default()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("ariatrace: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };

    if args.flag("dump") {
        match client.flight_dump() {
            Ok(json) => println!("{json}"),
            Err(e) => {
                eprintln!("ariatrace: flight dump failed: {e}");
                std::process::exit(1);
            }
        }
        return;
    }

    let mut cursors: Vec<u64> = Vec::new();
    let mut frame = 0u64;
    let mut total_spans = 0u64;
    loop {
        let spans = match client.trace_spans(&cursors) {
            Ok((spans, next)) => {
                cursors = next;
                spans
            }
            Err(e) => {
                eprintln!("ariatrace: {addr}: {e} (reconnecting)");
                client = match AriaClient::connect(parsed, ClientConfig::default()) {
                    Ok(c) => c,
                    Err(_) => {
                        frame += 1;
                        if iterations != 0 && frame >= iterations {
                            std::process::exit(1);
                        }
                        thread::sleep(interval);
                        continue;
                    }
                };
                // A fresh connection replays from the oldest resident
                // span; keep the cursors so nothing is double-counted.
                continue;
            }
        };
        total_spans += spans.len() as u64;
        render(&addr, &spans, total_spans, raw, clear);
        frame += 1;
        if iterations != 0 && frame >= iterations {
            break;
        }
        thread::sleep(interval);
    }
}

/// Nearest-rank percentile over an ascending-sorted slice of nanos,
/// rendered as microseconds.
fn pct_us(sorted: &[u64], q: f64) -> String {
    if sorted.is_empty() {
        return "-".to_string();
    }
    let rank = ((sorted.len() - 1) as f64 * q).round() as usize;
    format!("{:.1}", sorted[rank.min(sorted.len() - 1)] as f64 / 1e3)
}

/// Time from the previous stamped stage to `st`, when both exist.
fn stage_delta(span: &Span, st: usize) -> Option<u64> {
    let end = span.stages[st];
    if end == 0 {
        return None;
    }
    let start = span.stages[..st].iter().rev().copied().find(|&s| s != 0)?;
    Some(end.saturating_sub(start))
}

fn render(addr: &str, all: &[Span], total: u64, raw: usize, clear: bool) {
    if clear {
        print!("\x1b[2J\x1b[H");
    }
    let (tail, spans): (Vec<Span>, Vec<Span>) = all.iter().partition(|s| s.is_tail());
    let shed = spans.iter().filter(|s| s.outcome == outcome::SHED).count();
    let errors = spans.iter().filter(|s| s.outcome == outcome::ERROR).count();
    println!(
        "ariatrace — {addr} — {} new span(s) ({} total, {} shed, {} error, {} slow run(s))",
        all.len(),
        total,
        shed,
        errors,
        tail.len(),
    );
    if spans.is_empty() {
        println!("no sampled spans this window (is the client sampling? --trace-sample N)");
    } else {
        render_head(&spans);
    }
    if !tail.is_empty() {
        render_tail(&tail);
    }
    if raw > 0 {
        for span in all.iter().rev().take(raw) {
            let mut line = String::new();
            aria_telemetry::span_json(&mut line, span);
            println!("{line}");
        }
    }
}

/// Critical path and per-shard split of the head-sampled spans.
fn render_head(spans: &[Span]) {
    // Critical path: stage-to-stage latency across every new span.
    let mut rows = Vec::new();
    for (st, name) in STAGE_NAMES.iter().enumerate().take(stage::COUNT).skip(1) {
        let mut nanos: Vec<u64> = spans.iter().filter_map(|s| stage_delta(s, st)).collect();
        nanos.sort_unstable();
        rows.push(vec![
            format!("→ {name}"),
            nanos.len().to_string(),
            pct_us(&nanos, 0.50),
            pct_us(&nanos, 0.99),
        ]);
    }
    let mut totals: Vec<u64> = spans.iter().map(Span::total_nanos).collect();
    totals.sort_unstable();
    rows.push(vec![
        "total".to_string(),
        totals.len().to_string(),
        pct_us(&totals, 0.50),
        pct_us(&totals, 0.99),
    ]);
    print_table("critical path (per stage)", &["stage", "spans", "p50 us", "p99 us"], &rows);

    // Per-shard split, hot vs cold execution.
    let mut shards: Vec<u32> = spans.iter().map(|s| s.shard).collect();
    shards.sort_unstable();
    shards.dedup();
    let mut rows = Vec::new();
    for shard in shards {
        let on: Vec<&Span> = spans.iter().filter(|s| s.shard == shard).collect();
        let mut totals: Vec<u64> = on.iter().map(|s| s.total_nanos()).collect();
        totals.sort_unstable();
        let cold = on.iter().filter(|s| s.is_cold()).count();
        let verify: u64 = on.iter().map(|s| s.attribution.verify_depth).sum();
        rows.push(vec![
            if shard == u32::MAX { "-".to_string() } else { shard.to_string() },
            on.len().to_string(),
            pct_us(&totals, 0.50),
            pct_us(&totals, 0.99),
            (on.len() - cold).to_string(),
            cold.to_string(),
            verify.to_string(),
        ]);
    }
    print_table(
        "per shard",
        &["shard", "spans", "p50 us", "p99 us", "hot", "cold", "verify lvls"],
        &rows,
    );
}

/// The newest tail spans: slow store runs with their attribution.
fn render_tail(tail: &[Span]) {
    let rows: Vec<Vec<String>> = tail
        .iter()
        .rev()
        .take(8)
        .map(|s| {
            let a = &s.attribution;
            vec![
                s.shard.to_string(),
                NET_OP_NAMES.get(s.kind as usize).copied().unwrap_or("?").to_string(),
                s.ops.to_string(),
                format!("{:.1}", s.total_nanos() as f64 / 1e3),
                a.index_probes.to_string(),
                a.counter_fetches.to_string(),
                a.verify_depth.to_string(),
                a.crypt_bytes.to_string(),
            ]
        })
        .collect();
    print_table(
        "slow runs (tail)",
        &["shard", "kind", "ops", "exec us", "probes", "fetches", "depth", "crypt B"],
        &rows,
    );
}
