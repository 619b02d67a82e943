//! The metric tables. `BENCHMARK.json` at the repo root lists the same
//! names, units, directions and bounds; a unit test keeps the two in
//! step. Definitions are in README.md ("Metric glossary").

use crate::json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

#[cfg(test)]
impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before it counts as a regression. 0 for per-layer
    /// metrics, which are not gated.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound }
}

const fn lo(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: Better::Lower, bound: 0.0 }
}

const fn hi(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: Better::Higher, bound: 0.0 }
}

/// Measured untraced; every workload reports every one of them.
pub const END_TO_END: &[Def] = &[
    e2e("throughput_ops_s", "1/s", Better::Higher, 0.25),
    e2e("get_p50_us", "us", Better::Lower, 0.25),
    e2e("put_p50_us", "us", Better::Lower, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mib", "MiB", Better::Lower, 0.10),
    e2e("stored_bytes_per_user_byte", "B/B", Better::Lower, 0.05),
];

/// Measured in the traced run. A layer a workload does not cross
/// reports 0 for its metrics (README.md says which).
pub const PER_LAYER: &[Def] = &[
    // crypto (probe, RealSuite)
    lo("crypto.ctr_ns_per_byte", "ns/B"),
    lo("crypto.ctr_64B_ns", "ns"),
    lo("crypto.cmac_ns_per_byte", "ns/B"),
    lo("crypto.cmac_128B_ns", "ns"),
    // merkle (probe on a tree of the workload's geometry)
    lo("merkle.verify_path_ns", "ns"),
    lo("merkle.update_counter_ns", "ns"),
    lo("merkle.height", "count"),
    lo("merkle.tree_bytes", "B"),
    // cache (probe + in-situ deltas over the timed phase)
    lo("cache.hit_ns", "ns"),
    lo("cache.miss_ns", "ns"),
    lo("cache.bump_hit_ns", "ns"),
    hi("cache.hit_ratio", "ratio"),
    lo("cache.evictions_per_kop", "1/kop"),
    lo("cache.writebacks_per_kop", "1/kop"),
    hi("cache.clean_discards_per_kop", "1/kop"),
    lo("cache.verify_depth_mean", "count"),
    lo("cache.swap_stops", "count"),
    // mem (probe + gauge)
    lo("mem.alloc_ns", "ns"),
    lo("mem.free_ns", "ns"),
    lo("mem.live_bytes", "B"),
    // store (direct KvStore calls + enclave counters)
    lo("store.get_ns_p50", "ns"),
    lo("store.put_ns_p50", "ns"),
    lo("store.get_ns_mean", "ns"),
    lo("store.macs_per_op", "1/op"),
    lo("store.bytes_maced_per_op", "B/op"),
    lo("store.bytes_crypted_per_op", "B/op"),
    lo("store.index_probes_per_op", "1/op"),
    lo("store.sim_cycles_per_op", "cyc/op"),
    lo("store.residual_ns", "ns"),
    // sharded (wire_hot only)
    lo("sharded.hop_b1_us", "us"),
    lo("sharded.hop_b16_ns_per_op", "ns/op"),
    lo("sharded.peel_ns_per_op", "ns/op"),
    hi("sharded.batch_size_mean", "ops"),
    // proto (probe)
    lo("proto.encode_req_ns", "ns"),
    lo("proto.decode_req_ns", "ns"),
    lo("proto.encode_resp_ns", "ns"),
    lo("proto.decode_resp_ns", "ns"),
    lo("proto.req_frame_bytes", "B"),
    lo("proto.resp_frame_bytes", "B"),
    // net (wire_hot only)
    lo("net.ping_rtt_us_p50", "us"),
    lo("net.depth1_get_us_p50", "us"),
    lo("net.peel_ns_per_op", "ns/op"),
    hi("net.ops_per_submission", "ops"),
    hi("net.tick_batch_p50", "ops"),
    lo("net.wire_residual_us", "us"),
    // tiered (tiered_cold only)
    hi("tiered.hot_hit_ratio", "ratio"),
    lo("tiered.hot_get_us_p50", "us"),
    lo("tiered.cold_get_us_p50", "us"),
    lo("tiered.cold_get_us_p99", "us"),
    lo("tiered.migrations_per_kop", "1/kop"),
    lo("tiered.compactions", "count"),
    lo("tiered.checkpoints", "count"),
    lo("tiered.maintain_s", "s"),
    lo("tiered.maintain_max_ms", "ms"),
    lo("tiered.hot_entries", "count"),
    lo("tiered.cold_entries", "count"),
    lo("tiered.recovery_s", "s"),
    // log (tiered_cold only: probe + in-situ)
    lo("log.append_us_p50", "us"),
    lo("log.sync_us_p50", "us"),
    lo("log.read_us_p50", "us"),
    hi("log.replay_records_per_s", "1/s"),
    lo("log.bytes_written_per_user_byte", "B/B"),
    lo("log.space_per_live_byte", "B/B"),
    lo("log.sync_count", "count"),
    lo("log.segments", "count"),
    // peel ladder (per-op busy time at each depth)
    lo("ladder.l1_ns_per_op", "ns/op"),
    lo("ladder.l2_ns_per_op", "ns/op"),
    lo("ladder.l3_ns_per_op", "ns/op"),
    // client / generator: validity guards, plus the tails that do not
    // repeat within a tenth between run sets (demoted from end-to-end)
    lo("client.gen_ns_per_op", "ns/op"),
    lo("client.clock_ns", "ns"),
    lo("client.get_p99_us", "us"),
    lo("client.put_p99_us", "us"),
    lo("client.open_lo_p50_us", "us"),
    lo("client.open_lo_p99_us", "us"),
    lo("client.open_lo_late_us_p99", "us"),
    lo("client.open_hi_late_us_p99", "us"),
    lo("client.open_hi_slo_miss_ratio", "ratio"),
    lo("client.open_hi_backlog_max", "ops"),
    lo("client.failed_ops_ratio", "ratio"),
    hi("client.trace_overhead_ratio", "ratio"),
];

pub fn find(table: &'static [Def], name: &str) -> Option<&'static Def> {
    table.iter().find(|d| d.name == name)
}

/// Measured values keyed by metric name, filled in by a workload run.
#[derive(Default)]
pub struct Report {
    values: Vec<(&'static str, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            find(END_TO_END, name).or_else(|| find(PER_LAYER, name)).is_some(),
            "metric `{name}` is not in the tables"
        );
        match self.values.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.values.push((name, value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// Every metric of `table`, in table order. End-to-end metrics must
    /// all have been measured; a per-layer metric the workload does not
    /// exercise reads 0.
    pub fn collect(&self, table: &'static [Def], required: bool) -> Vec<(&'static Def, f64)> {
        table
            .iter()
            .map(|def| {
                let value = self.get(def.name);
                assert!(!required || value.is_some(), "metric `{}` was not measured", def.name);
                (def, value.unwrap_or(0.0))
            })
            .collect()
    }
}

/// A metric name the contract accepts: `[A-Za-z0-9][A-Za-z0-9_.-]*`,
/// at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

/// `{"name": {"value": v, "unit": "u"}, ...}` as the contract wants it.
pub fn metrics_json(values: &[(&'static Def, f64)]) -> Value {
    Value::Obj(
        values
            .iter()
            .map(|(def, v)| {
                let entry =
                    Value::obj(vec![("value", Value::Num(*v)), ("unit", Value::str(def.unit))]);
                (def.name.to_string(), entry)
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn valid_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .bytes()
                .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
    }

    #[test]
    fn every_metric_name_round_trips_through_the_emitter() {
        let mut report = Report::default();
        for (i, def) in END_TO_END.iter().chain(PER_LAYER).enumerate() {
            assert!(valid_name(def.name), "bad metric name {:?}", def.name);
            assert!(valid_unit(def.unit), "bad unit {:?} on {}", def.unit, def.name);
            report.set(def.name, i as f64 + 0.25);
        }
        for table in [END_TO_END, PER_LAYER] {
            let emitted = metrics_json(&report.collect(table, true)).render();
            let parsed = json::parse(&emitted).unwrap();
            let fields = parsed.as_obj().unwrap();
            assert_eq!(fields.len(), table.len());
            for (def, (name, entry)) in table.iter().zip(fields) {
                assert_eq!(name, def.name);
                assert!(valid_name(name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                assert_eq!(entry.get("value").and_then(Value::as_f64), report.get(def.name));
            }
        }
        assert!(!valid_name(""));
        assert!(!valid_name(".leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name(&"x".repeat(65)));
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|d| d.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the binary prints. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        for (key, table, bounded) in
            [("end_to_end", END_TO_END, true), ("per_layer", PER_LAYER, false)]
        {
            let listed = doc.get(key).and_then(Value::as_arr).unwrap();
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Value::as_str), Some(def.name));
                assert_eq!(entry.get("unit").and_then(Value::as_str), Some(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Value::as_str),
                    Some(def.better.as_str()),
                    "{}",
                    def.name
                );
                let bound = entry.get("bound").and_then(Value::as_f64);
                assert_eq!(bound, bounded.then_some(def.bound), "{}", def.name);
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Value::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }
}
