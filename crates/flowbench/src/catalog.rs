//! The fixed names: workloads, end-to-end metrics with their bounds, and
//! per-layer metrics. `BENCHMARK.json` at the repository root repeats this
//! table; a unit test keeps the two in step.

/// Seconds one run measures (`run_seconds` of `BENCHMARK.json`). A run of
/// any other length is stamped as not comparable.
pub const RUN_SECONDS: f64 = 10.0;
/// Warm-up before the measured window, excluded from every metric.
pub const WARMUP_SECONDS: f64 = 2.0;
/// Set-up repetitions per untraced run besides the measured run's own;
/// `setup_s` is the median of all of them.
pub const SETUP_REPEATS: usize = 10;
/// Set-up ends when the workload has completed this many seconds' worth
/// of its offered items. Timing the very first item instead measures a
/// millisecond, which on a shared machine wanders by half its value.
pub const SETUP_ITEM_SECONDS: f64 = 0.1;
/// Default workload seed.
pub const DEFAULT_SEED: u64 = 2016;

/// A workload and the reason it exists (one line, shown in the output).
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper_flow_rt",
        why: "the paper's Fig. 9 pipeline on two node threads, per-sample publishes: per-item codec, broker once per sample, inline executor, train+predict per tuple",
    },
    Workload {
        name: "chain_batched_rt",
        why: "32-sample batches into a pooled 3-stage chain and 4 sharded predict replicas: batch codec, route cache, worker pool, direct handoff; broker does 1/32 of the work per item",
    },
    Workload {
        name: "fanout_qos0_tcp",
        why: "bare QoS 0 forwarding over loopback TCP, 4096 topics (4x the match cache), fan-out 16: sockets, poller, shards and a cache-missing trie; no flow layer, no WAL",
    },
    Workload {
        name: "durable_qos1_tcp",
        why: "QoS 1 with persistent sessions and a WAL over loopback TCP, 96 topics (fits the match cache), fan-out 4: in-flight tracking, PUBACK both ways, a log append per state change",
    },
];

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: `bound` is the share of the baseline by which it
/// may worsen before a change counts as a regression.
pub struct E2eMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

/// The end-to-end metrics, the same on every workload: the ones that repeat
/// on a shared machine, so that a bound of a few percent means something.
///
/// Every time figure — `delay_p50_ms`, `delay_p99_ms`, `cpu_us_per_item`
/// of the threaded and TCP runs, `service_us_per_item` of the same path on
/// one thread — is measured by every traced run and listed under
/// [`PER_LAYER`], without a bound. On the two-core virtual machine the
/// benchmark was built on, identical code gave them spreads (interquartile
/// range over the median of ten runs) of 10 % in a quiet hour and 30–60 %
/// in a busy one; even the single-thread, fastest-of-seven figure moved by
/// a factor of two within minutes (neighbours on the host contending for
/// cache and memory; no hardware counters in the guest to count
/// instructions instead). A metric like that cannot carry a regression
/// bound of a quarter or less; a claim about it rests on paired,
/// alternating runs, not on one number against a baseline.
///
/// `failed_fraction` is 0 on every workload by design, and a metric that
/// is 0 has no relative bound: it is carried by `attempted` and `failed`
/// of the result object.
///
/// Bounds are at least three times the same-code spread seen on that
/// machine; README has the record.
pub const END_TO_END: [E2eMetric; 5] = [
    E2eMetric {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    E2eMetric {
        name: "items_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.02,
    },
    E2eMetric {
        name: "allocs_per_item",
        unit: "count",
        better: Better::Lower,
        bound: 0.05,
    },
    E2eMetric {
        name: "alloc_bytes_per_item",
        unit: "B",
        better: Better::Lower,
        bound: 0.05,
    },
    E2eMetric {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.10,
    },
];

/// End-to-end values of one run.
#[derive(Debug, Clone, Default)]
pub struct EndToEnd {
    pub setup_s: f64,
    pub items_per_s: f64,
    /// The time figures, reported by the traced run only (see
    /// [`END_TO_END`]).
    pub delay_p50_ms: f64,
    pub delay_p99_ms: f64,
    pub cpu_us_per_item: f64,
    pub allocs_per_item: f64,
    pub alloc_bytes_per_item: f64,
    pub peak_rss_mb: f64,
    /// Delay samples in each of the ten windows.
    pub samples_per_window: usize,
    /// Items offered from the window start to the drained end.
    pub attempted: u64,
    /// Offered items that never completed.
    pub failed: u64,
}

impl EndToEnd {
    /// Values in [`END_TO_END`] order.
    pub fn values(&self) -> [f64; 5] {
        [
            self.setup_s,
            self.items_per_s,
            self.allocs_per_item,
            self.alloc_bytes_per_item,
            self.peak_rss_mb,
        ]
    }
}

/// What one threaded or TCP run produced.
pub struct Outcome {
    pub e2e: EndToEnd,
    /// Output checks that failed (empty = correct).
    pub failures: Vec<String>,
    /// Counter-sourced per-layer metrics, by catalog name.
    pub layers: Vec<(&'static str, f64)>,
    /// Mean delay over the window (the three legs sum to it).
    pub mean_delay_ms: f64,
}

/// A per-layer metric. A workload that does not exercise the layer
/// reports 0 for it.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Paper sampling rates of the virtual-time testbed (Tables II/III).
pub const VT_RATES_HZ: [u32; 5] = [5, 10, 20, 40, 80];

pub const PER_LAYER: [LayerMetric; 72] = [
    // Counters: wall-clock legs of one sample's journey (sum = mean delay).
    lower("core.node.sensing_to_broker_ms", "ms"),
    lower("core.node.broker_to_subscribe_ms", "ms"),
    lower("core.node.subscribe_to_predict_ms", "ms"),
    // Stepper: single-thread critical path per item.
    lower("core.node.sense_publish_us", "us"),
    lower("mqtt.broker.embedded_route_us", "us"),
    lower("core.node.ingest_exec_us", "us"),
    lower("path.service_us_per_item", "us"),
    // Counters: framing and conservation.
    lower("core.node.frames_per_item", "count"),
    lower("core.node.wire_bytes_per_item", "B"),
    lower("core.node.unaccounted_items", "count"),
    lower("core.executor.mailbox_wait_ms", "ms"),
    lower("core.executor.max_depth", "count"),
    lower("core.executor.shed_items", "count"),
    higher("core.executor.mean_batch_items", "count"),
    higher("core.executor.handoff_direct_ratio", "ratio"),
    // Replay: one layer's public function on captured inputs.
    lower("core.executor.route_ns", "ns"),
    lower("core.executor.offer_item_ns", "ns"),
    lower("core.executor.offer_batch_ns_per_item", "ns"),
    lower("sensors.read_ns", "ns"),
    lower("sensors.sample_encode_ns", "ns"),
    lower("core.wire.encode_item_ns", "ns"),
    lower("core.wire.decode_item_ns", "ns"),
    lower("core.wire.encode_batch_ns_per_item", "ns"),
    lower("core.wire.decode_batch_ns_per_item", "ns"),
    lower("ml.train_ns", "ns"),
    lower("ml.classify_ns", "ns"),
    lower("ml.classify_batch_ns_per_item", "ns"),
    lower("mqtt.codec.encode_publish_ns", "ns"),
    lower("mqtt.codec.decode_publish_ns", "ns"),
    lower("mqtt.tree.match_hit_ns", "ns"),
    lower("mqtt.tree.match_miss_ns", "ns"),
    lower("mqtt.broker.publish_qos0_ns_per_delivery", "ns"),
    lower("mqtt.broker.publish_qos1_ns_per_delivery", "ns"),
    lower("mqtt.shard.publish_ns_per_delivery", "ns"),
    // Counters: the TCP front-end.
    lower("mqtt.net.cpu_us_per_delivery_residual", "us"),
    lower("mqtt.net.timer_wakeups_per_s", "1/s"),
    lower("mqtt.net.service_threads", "count"),
    lower("mqtt.net.refused_connections", "count"),
    higher("mqtt.broker.out_per_in", "ratio"),
    lower("mqtt.broker.messages_dropped", "count"),
    lower("mqtt.broker.retransmissions", "count"),
    lower("mqtt.wal.records_per_publish", "count"),
    lower("mqtt.wal.bytes_per_publish", "B"),
    lower("mqtt.wal.batches_per_publish", "count"),
    lower("mqtt.wal.append_errors", "count"),
    lower("mqtt.wal.snapshots_installed", "count"),
    lower("mqtt.wal.record_commit_mem_ns", "ns"),
    lower("mqtt.wal.record_commit_file_ns", "ns"),
    lower("mqtt.wal.replay_ms", "ms"),
    lower("mqtt.client.ack_p50_ms", "ms"),
    // Virtual time: the paper's seven-node testbed (declared costs).
    lower("vt.train_avg_ms.r5", "ms"),
    lower("vt.train_avg_ms.r10", "ms"),
    lower("vt.train_avg_ms.r20", "ms"),
    lower("vt.train_avg_ms.r40", "ms"),
    lower("vt.train_avg_ms.r80", "ms"),
    lower("vt.predict_avg_ms.r5", "ms"),
    lower("vt.predict_avg_ms.r10", "ms"),
    lower("vt.predict_avg_ms.r20", "ms"),
    lower("vt.predict_avg_ms.r40", "ms"),
    lower("vt.predict_avg_ms.r80", "ms"),
    lower("vt.predict_max_ms.r80", "ms"),
    higher("vt.realtime_max_rate_hz", "Hz"),
    // Time: what a user sees, and what a shared machine cannot repeat
    // (see `END_TO_END`). The first three are the threaded / TCP run's
    // wall clock; the fourth is the same path on one thread.
    lower("delay_p50_ms", "ms"),
    lower("delay_p99_ms", "ms"),
    lower("cpu_us_per_item", "us"),
    lower("service_us_per_item", "us"),
    // Harness validity.
    lower("loadgen.late_p50_ms", "ms"),
    lower("loadgen.late_p99_ms", "ms"),
    lower("loadgen.cpu_share", "ratio"),
    lower("loadgen.runq_wait_share", "ratio"),
    lower("trace.overhead_pct", "%"),
    lower("trace.spans_recorded", "count"),
];

/// Whether `delta` (candidate minus baseline) worsens the metric by more
/// than its bound. The comparison is relative to the baseline value.
pub fn worse_beyond_bound(metric: &E2eMetric, baseline: f64, candidate: f64) -> bool {
    let worsening = match metric.better {
        Better::Lower => candidate - baseline,
        Better::Higher => baseline - candidate,
    };
    worsening > metric.bound * baseline.abs()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(seen.insert(w.name));
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
            assert!(seen.insert(m.name));
        }
        for m in &PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "{} used twice", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
    }

    #[test]
    fn bounds_table_is_one_sided_and_relative() {
        let rss = END_TO_END
            .iter()
            .find(|m| m.name == "peak_rss_mb")
            .expect("in the table");
        assert!(!worse_beyond_bound(
            rss,
            2.0,
            2.0 * (1.0 + rss.bound) - 1e-9
        ));
        assert!(worse_beyond_bound(rss, 2.0, 2.0 * (1.0 + rss.bound) + 1e-6));
        assert!(
            !worse_beyond_bound(rss, 2.0, 0.1),
            "improvement is never worse"
        );
        let rate = END_TO_END
            .iter()
            .find(|m| m.name == "items_per_s")
            .expect("in the table");
        assert!(worse_beyond_bound(
            rate,
            10_000.0,
            10_000.0 * (1.0 - rate.bound) - 1.0
        ));
        assert!(!worse_beyond_bound(rate, 10_000.0, 20_000.0));
    }

    /// `BENCHMARK.json` is what the driver reads; this table is what the
    /// binary prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let str_of = |v: &Value, k: &str| v.get(k).and_then(Value::as_str).map(str::to_owned);

        assert_eq!(
            doc.get("run_seconds").and_then(Value::as_f64),
            Some(RUN_SECONDS)
        );
        let workloads: Vec<_> = doc.get("workloads").expect("workloads").items().to_vec();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (file, table) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(str_of(file, "name").as_deref(), Some(table.name));
            assert_eq!(str_of(file, "why").as_deref(), Some(table.why));
        }
        let e2e = doc.get("end_to_end").expect("end_to_end").items().to_vec();
        assert_eq!(e2e.len(), END_TO_END.len());
        for (file, table) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(str_of(file, "name").as_deref(), Some(table.name));
            assert_eq!(str_of(file, "unit").as_deref(), Some(table.unit));
            assert_eq!(
                str_of(file, "better").as_deref(),
                Some(table.better.as_str())
            );
            assert_eq!(file.get("bound").and_then(Value::as_f64), Some(table.bound));
        }
        let layers = doc.get("per_layer").expect("per_layer").items().to_vec();
        assert_eq!(layers.len(), PER_LAYER.len());
        for (file, table) in layers.iter().zip(&PER_LAYER) {
            assert_eq!(str_of(file, "name").as_deref(), Some(table.name));
            assert_eq!(str_of(file, "unit").as_deref(), Some(table.unit));
            assert_eq!(
                str_of(file, "better").as_deref(),
                Some(table.better.as_str())
            );
        }
    }
}
