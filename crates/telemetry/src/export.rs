//! Text exports of a [`TelemetrySnapshot`]: Prometheus-style
//! exposition and hand-written JSON (the workspace deliberately avoids
//! serde).

use std::fmt::Write as _;

use std::collections::HashSet;

use crate::hub::{
    health_name, ShardSnapshot, TelemetrySnapshot, FAULT_SITE_NAMES, NET_OP_NAMES, VIOLATION_NAMES,
};
use crate::metrics::{bucket_bound, HistSnapshot};
use crate::span::STAGE_NAMES;

fn prom_hist<'a>(
    out: &mut String,
    typed: &mut HashSet<&'a str>,
    name: &'a str,
    labels: &str,
    h: &HistSnapshot,
) {
    if typed.insert(name) {
        let _ = writeln!(out, "# TYPE {name} histogram");
    }
    let last = h.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    let mut cum = 0u64;
    let sep = if labels.is_empty() { "" } else { "," };
    for (i, &c) in h.buckets[..last].iter().enumerate() {
        cum += c;
        let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cum}", bucket_bound(i));
    }
    let _ = writeln!(out, "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {}", h.count());
    if labels.is_empty() {
        let _ = writeln!(out, "{name}_sum {}", h.sum);
        let _ = writeln!(out, "{name}_count {}", h.count());
    } else {
        let _ = writeln!(out, "{name}_sum{{{labels}}} {}", h.sum);
        let _ = writeln!(out, "{name}_count{{{labels}}} {}", h.count());
    }
}

fn prom_line(out: &mut String, name: &str, labels: &str, v: u64) {
    if labels.is_empty() {
        let _ = writeln!(out, "{name} {v}");
    } else {
        let _ = writeln!(out, "{name}{{{labels}}} {v}");
    }
}

impl TelemetrySnapshot {
    /// Prometheus-style text exposition of the whole snapshot. Debug
    /// builds validate the counter invariants first.
    pub fn render_prometheus(&self) -> String {
        self.debug_validate();
        let mut o = String::with_capacity(8192);
        let mut typed: HashSet<&str> = HashSet::new();
        let _ = writeln!(o, "# aria telemetry snapshot v{} t={}ms", self.version, self.unix_millis);
        for (i, s) in self.shards.iter().enumerate() {
            let sh = format!("shard=\"{i}\"");
            let c = &s.cache;
            prom_line(&mut o, "aria_cache_hits_total", &sh, c.hits);
            prom_line(&mut o, "aria_cache_misses_total", &sh, c.misses);
            prom_line(&mut o, "aria_cache_inserts_total", &sh, c.inserts);
            prom_line(&mut o, "aria_cache_evictions_total", &sh, c.evictions);
            prom_line(&mut o, "aria_cache_writebacks_total", &sh, c.writebacks);
            prom_line(&mut o, "aria_cache_clean_discards_total", &sh, c.clean_discards);
            prom_line(&mut o, "aria_cache_swap_bytes_in_total", &sh, c.swap_bytes_in);
            prom_line(&mut o, "aria_cache_swap_bytes_out_total", &sh, c.swap_bytes_out);
            prom_line(&mut o, "aria_cache_swap_stops_total", &sh, c.swap_stops);
            prom_line(&mut o, "aria_cache_swap_starts_total", &sh, c.swap_starts);
            prom_hist(&mut o, &mut typed, "aria_cache_verify_depth_levels", &sh, &c.verify_depth);
            prom_line(&mut o, "aria_merkle_hash_ops_total", &sh, s.merkle.hash_ops);
            prom_line(&mut o, "aria_merkle_verified_nodes_total", &sh, s.merkle.verified_nodes);
            let m = &s.mem;
            prom_line(&mut o, "aria_mem_allocs_total", &sh, m.allocs);
            prom_line(&mut o, "aria_mem_frees_total", &sh, m.frees);
            prom_line(&mut o, "aria_mem_alloc_bytes_total", &sh, m.alloc_bytes);
            prom_line(&mut o, "aria_mem_freed_bytes_total", &sh, m.freed_bytes);
            prom_line(&mut o, "aria_mem_live_bytes", &sh, m.live_bytes);
            prom_line(&mut o, "aria_mem_free_buffer_bytes", &sh, m.free_buffer_bytes);
            let st = &s.store;
            prom_hist(&mut o, &mut typed, "aria_store_get_latency_nanos", &sh, &st.get_latency);
            prom_hist(&mut o, &mut typed, "aria_store_put_latency_nanos", &sh, &st.put_latency);
            prom_hist(
                &mut o,
                &mut typed,
                "aria_store_delete_latency_nanos",
                &sh,
                &st.delete_latency,
            );
            prom_hist(&mut o, &mut typed, "aria_store_batch_size_ops", &sh, &st.batch_size);
            prom_line(&mut o, "aria_store_index_probes_total", &sh, st.index_probes);
            prom_line(&mut o, "aria_store_keys_live", &sh, st.keys_live);
            prom_line(&mut o, "aria_store_counter_live", &sh, st.counter_live);
            prom_line(&mut o, "aria_store_counter_capacity", &sh, st.counter_capacity);
            prom_line(&mut o, "aria_store_failovers_total", &sh, st.failovers);
            prom_line(&mut o, "aria_store_resyncs_total", &sh, st.resyncs);
            prom_hist(&mut o, &mut typed, "aria_store_resync_bytes", &sh, &st.resync_bytes);
            prom_line(&mut o, "aria_store_hot_entries", &sh, st.hot_entries);
            prom_line(&mut o, "aria_store_cold_entries", &sh, st.cold_entries);
            prom_line(&mut o, "aria_store_migrations_total", &sh, st.migrations);
            prom_line(&mut o, "aria_store_compactions_total", &sh, st.compactions);
            prom_line(&mut o, "aria_store_checkpoints_total", &sh, st.checkpoints);
            prom_hist(
                &mut o,
                &mut typed,
                "aria_store_cold_read_latency_nanos",
                &sh,
                &st.cold_read_latency,
            );
            prom_line(&mut o, "aria_store_admission_shed_total", &sh, st.admission_shed);
            prom_line(
                &mut o,
                "aria_store_watchdog_quarantines_total",
                &sh,
                st.watchdog_quarantines,
            );
            prom_line(&mut o, "aria_store_queue_delay_nanos", &sh, st.queue_delay_ns);
            prom_line(&mut o, "aria_store_routing_epoch", &sh, st.routing_epoch);
            prom_line(&mut o, "aria_store_migration_state", &sh, st.migration_state);
            prom_line(&mut o, "aria_store_reshards_started_total", &sh, st.reshards_started);
            prom_line(&mut o, "aria_store_reshards_committed_total", &sh, st.reshards_committed);
            prom_line(&mut o, "aria_store_reshards_aborted_total", &sh, st.reshards_aborted);
            for (ci, &v) in st.violations.iter().enumerate() {
                let name = VIOLATION_NAMES.get(ci).copied().unwrap_or("unknown");
                prom_line(
                    &mut o,
                    "aria_store_violations_total",
                    &format!("{sh},class=\"{name}\""),
                    v,
                );
            }
        }
        for (i, h) in self.net.op_latency.iter().enumerate() {
            let name = NET_OP_NAMES.get(i).copied().unwrap_or("unknown");
            prom_hist(
                &mut o,
                &mut typed,
                "aria_net_op_latency_nanos",
                &format!("op=\"{name}\""),
                h,
            );
        }
        prom_line(&mut o, "aria_net_inflight", "", self.net.inflight);
        prom_line(&mut o, "aria_net_frame_bytes_in_total", "", self.net.frame_bytes_in);
        prom_line(&mut o, "aria_net_frame_bytes_out_total", "", self.net.frame_bytes_out);
        prom_line(&mut o, "aria_net_rejected_connections_total", "", self.net.rejected_connections);
        prom_line(
            &mut o,
            "aria_net_timed_out_connections_total",
            "",
            self.net.timed_out_connections,
        );
        prom_line(&mut o, "aria_net_reactor_conns", "", self.net.reactor_conns);
        prom_hist(
            &mut o,
            &mut typed,
            "aria_net_tick_batch_size_ops",
            "",
            &self.net.tick_batch_size,
        );
        prom_line(&mut o, "aria_net_reactor_ops_total", "", self.net.reactor_ops);
        prom_line(&mut o, "aria_net_reactor_submissions_total", "", self.net.reactor_submissions);
        prom_line(
            &mut o,
            "aria_net_conns_disconnected_slow_total",
            "",
            self.net.conns_disconnected_slow,
        );
        prom_line(&mut o, "aria_net_ops_shed_deadline_total", "", self.net.ops_shed_deadline);
        prom_line(&mut o, "aria_net_ops_shed_overload_total", "", self.net.ops_shed_overload);
        let _ = writeln!(o, "aria_net_coalesce_ratio {:.3}", self.net.coalesce_ratio());
        for (i, &v) in self.chaos.injected.iter().enumerate() {
            let name = FAULT_SITE_NAMES.get(i).copied().unwrap_or("unknown");
            prom_line(&mut o, "aria_chaos_injected_total", &format!("site=\"{name}\""), v);
        }
        let t = &self.traces;
        prom_line(&mut o, "aria_trace_spans_recorded_total", "", t.spans_recorded);
        prom_line(&mut o, "aria_trace_tail_spans_total", "", t.tail_spans);
        prom_line(&mut o, "aria_trace_cold_spans_total", "", t.cold_spans);
        prom_line(&mut o, "aria_trace_hot_spans_total", "", t.hot_spans);
        // Index 0 (decode) has no preceding stage and stays empty.
        for (i, h) in t.stage_nanos.iter().enumerate().skip(1) {
            let name = STAGE_NAMES.get(i).copied().unwrap_or("unknown");
            prom_hist(
                &mut o,
                &mut typed,
                "aria_trace_stage_nanos",
                &format!("stage=\"{name}\""),
                h,
            );
        }
        let sv = &self.serving;
        prom_line(&mut o, "aria_serving_ops_served_total", "", sv.ops_served);
        prom_line(&mut o, "aria_serving_open_connections", "", sv.open_connections);
        prom_line(&mut o, "aria_serving_accepted_connections_total", "", sv.accepted_connections);
        prom_line(&mut o, "aria_serving_len_estimate", "", sv.len_estimate);
        prom_line(&mut o, "aria_serving_degraded", "", sv.degraded as u64);
        prom_line(&mut o, "aria_serving_shed_ops_total", "", sv.shed_ops_total);
        for (i, r) in sv.replicas.iter().enumerate() {
            let sh = format!("shard=\"{i}\"");
            prom_line(&mut o, "aria_replica_state", &sh, u64::from(r.state));
            prom_line(&mut o, "aria_replica_role", &sh, u64::from(r.role));
            prom_line(&mut o, "aria_replica_lag_keys", &sh, r.lag);
            prom_line(&mut o, "aria_replica_violations_total", &sh, r.violations);
            prom_line(&mut o, "aria_replica_recoveries_total", &sh, r.recoveries);
        }
        o
    }

    /// Hand-written JSON of the whole snapshot (histograms as trimmed
    /// bucket arrays), for embedding in bench result rows.
    pub fn to_json(&self) -> String {
        let mut o = String::with_capacity(8192);
        o.push_str(&format!(
            "{{\"version\":{},\"unix_millis\":{},\"shards\":[",
            self.version, self.unix_millis
        ));
        for (i, s) in self.shards.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            shard_json(&mut o, s);
        }
        o.push_str("],\"net\":{\"op_latency\":{");
        let mut first = true;
        for (i, h) in self.net.op_latency.iter().enumerate() {
            if h.count() == 0 {
                continue;
            }
            if !first {
                o.push(',');
            }
            first = false;
            let name = NET_OP_NAMES.get(i).copied().unwrap_or("unknown");
            o.push_str(&format!("\"{name}\":"));
            hist_json(&mut o, h);
        }
        o.push_str(&format!(
            "}},\"inflight\":{},\"frame_bytes_in\":{},\"frame_bytes_out\":{},\
             \"rejected_connections\":{},\"timed_out_connections\":{},\
             \"reactor_conns\":{},\"tick_batch_size\":",
            self.net.inflight,
            self.net.frame_bytes_in,
            self.net.frame_bytes_out,
            self.net.rejected_connections,
            self.net.timed_out_connections,
            self.net.reactor_conns
        ));
        hist_json(&mut o, &self.net.tick_batch_size);
        o.push_str(&format!(
            ",\"reactor_ops\":{},\"reactor_submissions\":{},\"coalesce_ratio\":{:.3},\
             \"conns_disconnected_slow\":{},\"ops_shed_deadline\":{},\"ops_shed_overload\":{}}}",
            self.net.reactor_ops,
            self.net.reactor_submissions,
            self.net.coalesce_ratio(),
            self.net.conns_disconnected_slow,
            self.net.ops_shed_deadline,
            self.net.ops_shed_overload
        ));
        o.push_str(",\"chaos\":{");
        for (i, &v) in self.chaos.injected.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            let name = FAULT_SITE_NAMES.get(i).copied().unwrap_or("unknown");
            o.push_str(&format!("\"{name}\":{v}"));
        }
        let t = &self.traces;
        o.push_str(&format!(
            "}},\"traces\":{{\"spans_recorded\":{},\"tail_spans\":{},\"cold_spans\":{},\
             \"hot_spans\":{},\"stage_nanos\":{{",
            t.spans_recorded, t.tail_spans, t.cold_spans, t.hot_spans
        ));
        let mut first = true;
        for (i, h) in t.stage_nanos.iter().enumerate() {
            if h.count() == 0 {
                continue;
            }
            if !first {
                o.push(',');
            }
            first = false;
            let name = STAGE_NAMES.get(i).copied().unwrap_or("unknown");
            o.push_str(&format!("\"{name}\":"));
            hist_json(&mut o, h);
        }
        let sv = &self.serving;
        o.push_str(&format!(
            "}}}},\"serving\":{{\"ops_served\":{},\"open_connections\":{},\
             \"accepted_connections\":{},\"len_estimate\":{},\"degraded\":{},\
             \"shed_ops_total\":{},\"replicas\":[",
            sv.ops_served,
            sv.open_connections,
            sv.accepted_connections,
            sv.len_estimate,
            sv.degraded,
            sv.shed_ops_total
        ));
        for (i, r) in sv.replicas.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            o.push_str(&format!(
                "{{\"state\":\"{}\",\"role\":{},\"lag\":{},\"violations\":{},\
                 \"recoveries\":{}}}",
                health_name(r.state),
                r.role,
                r.lag,
                r.violations,
                r.recoveries
            ));
        }
        o.push_str("]}}");
        o
    }
}

fn hist_json(o: &mut String, h: &HistSnapshot) {
    let last = h.buckets.iter().rposition(|&c| c != 0).map_or(0, |i| i + 1);
    o.push_str("{\"buckets\":[");
    for (i, &c) in h.buckets[..last].iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        o.push_str(&c.to_string());
    }
    o.push_str(&format!(
        "],\"count\":{},\"sum\":{},\"p50\":{},\"p95\":{},\"p99\":{}}}",
        h.count(),
        h.sum,
        h.percentile(0.50),
        h.percentile(0.95),
        h.percentile(0.99)
    ));
}

fn shard_json(o: &mut String, s: &ShardSnapshot) {
    let c = &s.cache;
    o.push_str(&format!(
        "{{\"cache\":{{\"hits\":{},\"misses\":{},\"inserts\":{},\"evictions\":{},\
         \"writebacks\":{},\"clean_discards\":{},\"swap_bytes_in\":{},\"swap_bytes_out\":{},\
         \"swap_stops\":{},\"swap_starts\":{},\"verify_depth\":",
        c.hits,
        c.misses,
        c.inserts,
        c.evictions,
        c.writebacks,
        c.clean_discards,
        c.swap_bytes_in,
        c.swap_bytes_out,
        c.swap_stops,
        c.swap_starts
    ));
    hist_json(o, &c.verify_depth);
    o.push_str(&format!(
        "}},\"merkle\":{{\"hash_ops\":{},\"verified_nodes\":{}}}",
        s.merkle.hash_ops, s.merkle.verified_nodes
    ));
    let m = &s.mem;
    o.push_str(&format!(
        ",\"mem\":{{\"allocs\":{},\"frees\":{},\"alloc_bytes\":{},\"freed_bytes\":{},\
         \"live_bytes\":{},\"free_buffer_bytes\":{}}}",
        m.allocs, m.frees, m.alloc_bytes, m.freed_bytes, m.live_bytes, m.free_buffer_bytes
    ));
    let st = &s.store;
    o.push_str(",\"store\":{\"get_latency\":");
    hist_json(o, &st.get_latency);
    o.push_str(",\"put_latency\":");
    hist_json(o, &st.put_latency);
    o.push_str(",\"batch_size\":");
    hist_json(o, &st.batch_size);
    o.push_str(&format!(
        ",\"index_probes\":{},\"keys_live\":{},\"counter_live\":{},\"counter_capacity\":{},\
         \"failovers\":{},\"resyncs\":{},\"hot_entries\":{},\"cold_entries\":{},\"migrations\":{},\
         \"compactions\":{},\"checkpoints\":{},\"admission_shed\":{},\
         \"watchdog_quarantines\":{},\"queue_delay_ns\":{},\"routing_epoch\":{},\
         \"migration_state\":{},\"reshards_started\":{},\"reshards_committed\":{},\
         \"reshards_aborted\":{},\"violations\":{{",
        st.index_probes,
        st.keys_live,
        st.counter_live,
        st.counter_capacity,
        st.failovers,
        st.resyncs,
        st.hot_entries,
        st.cold_entries,
        st.migrations,
        st.compactions,
        st.checkpoints,
        st.admission_shed,
        st.watchdog_quarantines,
        st.queue_delay_ns,
        st.routing_epoch,
        st.migration_state,
        st.reshards_started,
        st.reshards_committed,
        st.reshards_aborted
    ));
    let mut first = true;
    for (ci, &v) in st.violations.iter().enumerate() {
        if v == 0 {
            continue;
        }
        if !first {
            o.push(',');
        }
        first = false;
        let name = VIOLATION_NAMES.get(ci).copied().unwrap_or("unknown");
        o.push_str(&format!("\"{name}\":{v}"));
    }
    o.push_str(&format!("}},\"health_events\":{}}}}}", st.health_events.len()));
}

#[cfg(test)]
mod tests {
    use crate::hub::{ReplicaServing, TelemetryHub, TelemetrySnapshot};
    use crate::span::{stage, Attribution, Span};

    fn traced_hub() -> TelemetryHub {
        let hub = TelemetryHub::with_shards(1);
        let mut stages = [0u64; stage::COUNT];
        for (i, s) in stages.iter_mut().enumerate() {
            *s = 50 + i as u64 * 25;
        }
        hub.traces.publish(&Span {
            trace_id: 99,
            shard: 0,
            kind: 1,
            outcome: 0,
            ops: 1,
            stages,
            attribution: Attribution { verify_depth: 2, hot_hits: 1, ..Attribution::default() },
        });
        hub
    }

    /// A hub snapshot with the serving section a server would fill.
    fn served(hub: &TelemetryHub) -> TelemetrySnapshot {
        let mut snap = hub.snapshot();
        snap.serving.ops_served = 9;
        snap.serving.replicas.push(ReplicaServing {
            state: 1,
            role: 1,
            lag: 3,
            ..Default::default()
        });
        snap
    }

    #[test]
    fn exposition_mentions_core_series() {
        let hub = traced_hub();
        hub.shards[0].cache.hits.inc();
        hub.shards[0].cache.misses.inc();
        hub.shards[0].cache.verify_depth.observe(4);
        hub.net.op_latency[1].observe(2048);
        let text = served(&hub).render_prometheus();
        for needle in [
            "aria_serving_ops_served_total 9",
            "aria_replica_state{shard=\"0\"} 1",
            "aria_replica_role{shard=\"0\"} 1",
            "aria_replica_lag_keys{shard=\"0\"} 3",
            "aria_cache_hits_total{shard=\"0\"}",
            "aria_cache_verify_depth_levels_bucket",
            "aria_net_op_latency_nanos_sum{op=\"get\"}",
            "aria_chaos_injected_total{site=\"entry_flip\"}",
            "aria_net_inflight",
            "aria_net_reactor_conns",
            "aria_net_coalesce_ratio",
            "aria_net_conns_disconnected_slow_total",
            "aria_net_ops_shed_deadline_total",
            "aria_store_admission_shed_total{shard=\"0\"}",
            "aria_store_queue_delay_nanos{shard=\"0\"}",
            "aria_chaos_injected_total{site=\"shard_stall\"}",
            "aria_trace_tail_spans_total",
            "aria_trace_spans_recorded_total",
            "aria_trace_hot_spans_total",
        ] {
            assert!(text.contains(needle), "missing {needle} in:\n{text}");
        }
        if crate::enabled() {
            assert!(
                text.contains("aria_trace_stage_nanos_bucket{stage=\"admit\",le="),
                "missing trace stage histogram in:\n{text}"
            );
        }
    }

    #[test]
    fn histogram_families_carry_type_metadata_once() {
        let hub = traced_hub();
        hub.shards[0].cache.hits.inc();
        hub.shards[0].cache.verify_depth.observe(4);
        hub.net.op_latency[1].observe(2048);
        hub.net.op_latency[2].observe(4096);
        let text = hub.snapshot().render_prometheus();
        // Every emitted bucket family is declared, exactly once, before
        // its first sample.
        let mut families: Vec<&str> = text
            .lines()
            .filter_map(|l| l.split("_bucket{").next().filter(|_| l.contains("_bucket{")))
            .collect();
        families.sort_unstable();
        families.dedup();
        assert!(!families.is_empty());
        for fam in families {
            let ty = format!("# TYPE {fam} histogram");
            assert_eq!(text.matches(&ty).count(), 1, "family {fam} not declared once:\n{text}");
            let decl = text.find(&ty).unwrap();
            let first_sample = text.find(&format!("{fam}_bucket{{")).unwrap();
            assert!(decl < first_sample, "TYPE for {fam} appears after its first sample");
        }
        // The per-op net histogram is declared once even though it is
        // emitted for several labels.
        assert_eq!(text.matches("# TYPE aria_net_op_latency_nanos histogram").count(), 1);
    }

    #[test]
    fn json_is_balanced() {
        let hub = traced_hub();
        hub.shards[0].store.get_latency.observe(777);
        hub.shards[0].store.record_violation(1);
        let j = served(&hub).to_json();
        assert_eq!(j.matches('{').count(), j.matches('}').count(), "unbalanced braces: {j}");
        assert_eq!(j.matches('[').count(), j.matches(']').count());
        assert!(j.starts_with('{') && j.ends_with('}'));
        assert!(j.contains("\"shards\":["));
        assert!(j.contains("\"traces\":{\"spans_recorded\":"));
        assert!(j.contains("\"tail_spans\":0"));
        assert!(j.contains("\"replicas\":[{\"state\":\"quarantined\",\"role\":1,\"lag\":3,"));
        if crate::enabled() {
            assert!(j.contains("\"admit\":{\"buckets\":"));
        }
    }
}
