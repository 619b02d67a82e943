//! ariatop — live per-shard dashboard for a running Aria server.
//!
//! Polls the `METRICS` opcode over aria-net, diffs consecutive
//! snapshots, and renders a refreshing per-shard view: throughput,
//! p50/p95/p99 store latency, counter-cache hit ratio, live keys,
//! quarantine state, replica role and lag, violations, plus the
//! serving summary, the network plane and the span counts (slow runs
//! themselves are listed by `ariatrace`). State, role and lag come
//! from the snapshot's serving section, which the server reads from
//! the store when it answers.
//!
//! ```sh
//! cargo run --release -p aria-bench --bin ariatop -- \
//!     --addr 127.0.0.1:4433 [--interval-ms 1000] [--iterations 0] \
//!     [--no-clear]
//! ```
//!
//! `--iterations 0` (the default) refreshes until interrupted;
//! `--no-clear` appends frames instead of redrawing in place (useful
//! for piping to a file or running under CI).

use std::thread;
use std::time::{Duration, Instant};

use aria_bench::{fmt_tput, print_table, Args};
use aria_net::{AriaClient, ClientConfig};
use aria_telemetry::{health_name, HistSnapshot, TelemetrySnapshot, FAULT_SITE_NAMES};

fn main() {
    let args = Args::parse();
    let addr = args.get_str("addr", "");
    if addr.is_empty() {
        eprintln!(
            "usage: ariatop --addr <host:port> [--interval-ms 1000] \
             [--iterations 0] [--no-clear]"
        );
        std::process::exit(2);
    }
    let interval = Duration::from_millis(args.get("interval-ms", 1_000u64).max(50));
    let iterations = args.get("iterations", 0u64);
    let clear = !args.flag("no-clear");

    let mut client: Option<AriaClient> = None;
    let mut prev: Option<(Instant, TelemetrySnapshot)> = None;
    let mut frame = 0u64;
    loop {
        let snap = match fetch(&mut client, &addr) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("ariatop: {addr}: {e:?} (retrying)");
                client = None;
                prev = None;
                // A failed poll still consumes an iteration so a bounded
                // run terminates even if the server goes away.
                frame += 1;
                if iterations != 0 && frame >= iterations {
                    std::process::exit(1);
                }
                thread::sleep(interval);
                continue;
            }
        };
        let now = Instant::now();
        let (secs, delta) = match &prev {
            Some((t0, earlier)) => ((now - *t0).as_secs_f64().max(1e-9), snap.delta(earlier)),
            // First frame: everything since server start, over one
            // nominal interval (rates are meaningless until frame 2).
            None => (interval.as_secs_f64(), snap.clone()),
        };
        render(&addr, &snap, &delta, secs, clear);
        prev = Some((now, snap));
        frame += 1;
        if iterations != 0 && frame >= iterations {
            break;
        }
        thread::sleep(interval);
    }
}

fn fetch(
    client: &mut Option<AriaClient>,
    addr: &str,
) -> Result<TelemetrySnapshot, aria_net::NetError> {
    if client.is_none() {
        let parsed: std::net::SocketAddr = addr.parse().map_err(|_| {
            aria_net::NetError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "bad --addr",
            ))
        })?;
        *client = Some(AriaClient::connect(parsed, ClientConfig::default())?);
    }
    let result = client.as_mut().expect("client just set").metrics();
    if result.is_err() {
        *client = None;
    }
    result
}

/// Merged get/put/delete latency of one shard's delta window.
fn merged_latency(s: &aria_telemetry::ShardSnapshot) -> HistSnapshot {
    let mut h = s.store.get_latency.clone();
    h.merge(&s.store.put_latency);
    h.merge(&s.store.delete_latency);
    h
}

fn us(nanos: u64) -> String {
    format!("{:.0}", nanos as f64 / 1e3)
}

/// Wire encoding of a replica role (0 primary, everything else backup;
/// see `aria_store::ReplicaRole`).
fn role_name(role: u8) -> String {
    if role == 0 {
        "pri".to_string()
    } else {
        "bak".to_string()
    }
}

/// Migration-state gauge: which side of an in-flight elastic migration
/// this shard is on (0 neither, 1 source, 2 target).
fn migration_name(state: u64) -> String {
    match state {
        0 => "-".to_string(),
        1 => "src".to_string(),
        2 => "tgt".to_string(),
        other => format!("?{other}"),
    }
}

fn render(addr: &str, snap: &TelemetrySnapshot, delta: &TelemetrySnapshot, secs: f64, clear: bool) {
    if clear {
        print!("\x1b[2J\x1b[H");
    }
    println!(
        "ariatop — {addr} — snapshot v{} — {} shard(s) — window {:.1}s",
        snap.version,
        snap.shards.len(),
        secs
    );

    let mut rows: Vec<Vec<String>> = Vec::with_capacity(snap.shards.len() + 1);
    for (i, d) in delta.shards.iter().enumerate() {
        let lat = merged_latency(d);
        let cum = &snap.shards[i];
        let replica = snap.serving.replicas.get(i).copied().unwrap_or_default();
        rows.push(vec![
            i.to_string(),
            health_name(replica.state).to_string(),
            role_name(replica.role),
            replica.lag.to_string(),
            cum.store.routing_epoch.to_string(),
            migration_name(cum.store.migration_state),
            fmt_tput(lat.count() as f64 / secs),
            us(lat.percentile(0.50)),
            us(lat.percentile(0.95)),
            us(lat.percentile(0.99)),
            format!("{:.1}", d.cache.hit_ratio() * 100.0),
            d.store.keys_live.to_string(),
            d.store.hot_entries.to_string(),
            d.store.cold_entries.to_string(),
            fmt_tput(d.cache.evictions as f64 / secs),
            format!("{:.2}", cum.store.queue_delay_ns as f64 / 1e6),
            fmt_tput(d.store.admission_shed as f64 / secs),
            cum.store.violations.iter().sum::<u64>().to_string(),
            cum.store.failovers.to_string(),
        ]);
    }
    let agg = delta.aggregate();
    let cum_agg = snap.aggregate();
    let lat = merged_latency(&agg);
    rows.push(vec![
        "all".to_string(),
        "-".to_string(),
        "-".to_string(),
        "-".to_string(),
        cum_agg.store.routing_epoch.to_string(),
        "-".to_string(),
        fmt_tput(lat.count() as f64 / secs),
        us(lat.percentile(0.50)),
        us(lat.percentile(0.95)),
        us(lat.percentile(0.99)),
        format!("{:.1}", agg.cache.hit_ratio() * 100.0),
        agg.store.keys_live.to_string(),
        agg.store.hot_entries.to_string(),
        agg.store.cold_entries.to_string(),
        fmt_tput(agg.cache.evictions as f64 / secs),
        format!("{:.2}", cum_agg.store.queue_delay_ns as f64 / 1e6),
        fmt_tput(agg.store.admission_shed as f64 / secs),
        cum_agg.store.violations.iter().sum::<u64>().to_string(),
        cum_agg.store.failovers.to_string(),
    ]);
    print_table(
        "shards",
        &[
            "shard", "state", "role", "lag", "epoch", "mig", "ops/s", "p50us", "p95us", "p99us",
            "hit%", "keys", "hot", "cold", "evict/s", "qdly ms", "shed/s", "viol", "fover",
        ],
        &rows,
    );
    let recovering = snap.serving.replicas.iter().filter(|r| r.state == 2).count();
    if recovering > 0 {
        println!("\nrecovering: {recovering} shard(s) replaying / verifying logs");
    }
    let sv = &snap.serving;
    println!(
        "\nserving: {} conn(s) open  {} accepted  {} ops served  ~{} keys{}",
        sv.open_connections,
        sv.accepted_connections,
        sv.ops_served,
        sv.len_estimate,
        if sv.degraded { "  DEGRADED" } else { "" },
    );

    let n = &delta.net;
    println!(
        "\nnet: in {:.2} MiB/s  out {:.2} MiB/s  inflight {}  rejected {}  timed-out {}  slow-dropped {}",
        n.frame_bytes_in as f64 / secs / (1 << 20) as f64,
        n.frame_bytes_out as f64 / secs / (1 << 20) as f64,
        n.inflight,
        snap.net.rejected_connections,
        snap.net.timed_out_connections,
        snap.net.conns_disconnected_slow,
    );
    let shed_total = snap.net.ops_shed_overload
        + snap.net.ops_shed_deadline
        + snap.shards.iter().map(|s| s.store.admission_shed).sum::<u64>();
    let quarantines: u64 = snap.shards.iter().map(|s| s.store.watchdog_quarantines).sum();
    if shed_total > 0 || quarantines > 0 {
        println!(
            "overload: shed {:.0}/s (overload {}  deadline {}  admission {})  watchdog quarantines {}",
            (delta.net.ops_shed_overload
                + delta.net.ops_shed_deadline
                + delta.shards.iter().map(|s| s.store.admission_shed).sum::<u64>()) as f64
                / secs,
            snap.net.ops_shed_overload,
            snap.net.ops_shed_deadline,
            snap.shards.iter().map(|s| s.store.admission_shed).sum::<u64>(),
            quarantines,
        );
    }
    if snap.traces.spans_recorded + snap.traces.tail_spans > 0 {
        use aria_telemetry::stage;
        let t = &delta.traces;
        println!(
            "traces: {:.0} span/s ({} total)  tail {:.0}/s ({} total)  hot {}  cold {}  \
             queue-wait p99 {}us  exec p99 {}us",
            t.spans_recorded as f64 / secs,
            snap.traces.spans_recorded,
            t.tail_spans as f64 / secs,
            snap.traces.tail_spans,
            snap.traces.hot_spans,
            snap.traces.cold_spans,
            us(t.stage_nanos.get(stage::DEQUEUE).map_or(0, |h| h.percentile(0.99))),
            us(t.stage_nanos.get(stage::EXEC_END).map_or(0, |h| h.percentile(0.99))),
        );
    }
    let injected: u64 = snap.chaos.injected.iter().sum();
    if injected > 0 {
        let sites: Vec<String> = snap
            .chaos
            .injected
            .iter()
            .enumerate()
            .filter(|(_, &v)| v > 0)
            .map(|(i, &v)| format!("{}={v}", FAULT_SITE_NAMES.get(i).copied().unwrap_or("unknown")))
            .collect();
        println!("chaos: {injected} injected ({})", sites.join(" "));
    }
}
