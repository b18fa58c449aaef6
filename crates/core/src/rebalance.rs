//! Runtime rebalancing: the controller half of elastic placement.
//!
//! Deploy-time placement ([`crate::deploy`]) freezes an assignment; this
//! module closes the loop at runtime. A sans-I/O [`Rebalancer`] consumes
//! the [`FlowDirectory`]'s aggregated load heartbeats (retained
//! [`LoadReport`]s on `ifot/announce/<node>/load`), detects a sustained
//! hotspot, and emits [`MigrateShard`] decisions — a diff against the
//! current [`DeploymentPlan`] — that the node control plane executes
//! over the `ifot/control/<node>` topic.
//!
//! Stability over reactivity: a migration is expensive (a mailbox drain,
//! a model snapshot on the wire, a routing flip), so the controller is
//! deliberately sluggish. Three guards keep it from flapping:
//!
//! * **Threshold** — the hot node's windowed queue wait must exceed
//!   `hot_wait_ms` in absolute terms.
//! * **Hysteresis** — the same node must stay hot for
//!   `hysteresis_ticks` consecutive ticks (and be `ratio`× worse than
//!   the best candidate) before anything moves.
//! * **Cooldown** — after a decision, no further decision for
//!   `cooldown_ms`, so the migrated shard's counters can settle before
//!   they are judged again.
//!
//! Destination choice reuses the `LoadAware` cost model from
//! [`ifot_recipe::assign`]: candidates are [`ModuleInfo`]s built from
//! the directory's announcements, and the shard goes to the capable
//! module with the least accumulated speed-normalized cost, where the
//! accumulator is seeded from each node's *observed* windowed wait
//! instead of the nominal ledger the deploy-time strategy starts from.

use std::collections::BTreeMap;

use ifot_recipe::assign::ModuleInfo;

use crate::config::OperatorSpec;
use crate::deploy::DeploymentPlan;
use crate::discovery::{FlowDirectory, LoadReport};
use crate::operators::MixEnvelope;

/// Topic prefix of the migration control plane.
pub const CONTROL_PREFIX: &str = "ifot/control";

/// The control topic a node receives migration commands on.
pub fn control_topic(node: &str) -> String {
    format!("{CONTROL_PREFIX}/{node}")
}

/// One placement change: move the `shard`-th of `modulus` sequence
/// shards of operator `op` from node `from` to node `to`.
#[derive(Debug, Clone, PartialEq)]
pub struct MigrateShard {
    /// Operator id of the sharded stage.
    pub op: String,
    /// Shard modulus of the stage.
    pub modulus: u64,
    /// Shard index being moved.
    pub shard: u64,
    /// Current owner.
    pub from: String,
    /// New owner.
    pub to: String,
}

impl MigrateShard {
    /// Applies this decision to a deployment plan, moving the matching
    /// operator spec between module configs. Returns `false` (and
    /// leaves the plan untouched) when the source does not hold the
    /// shard or the destination is unknown.
    pub fn apply_to(&self, plan: &mut DeploymentPlan) -> bool {
        let Some(src) = plan.configs.iter().position(|c| c.name == self.from) else {
            return false;
        };
        if !plan.configs.iter().any(|c| c.name == self.to) {
            return false;
        }
        let Some(op_idx) = plan.configs[src]
            .operators
            .iter()
            .position(|o| o.id == self.op && o.shard == Some((self.modulus, self.shard)))
        else {
            return false;
        };
        let spec = plan.configs[src].operators.remove(op_idx);
        let dst = plan
            .configs
            .iter_mut()
            .find(|c| c.name == self.to)
            .expect("destination checked above");
        dst.operators.push(spec);
        true
    }
}

/// Messages on the `ifot/control/<node>` topic — the four-step
/// migration protocol. Exactly-once across the handover follows from
/// per-connection FIFO ordering plus monotone sequence numbers:
///
/// 1. **`Migrate`** (controller → source): give up a shard. The source
///    publishes `Install` to the destination and *keeps processing* —
///    make-before-break, so nothing is lost while the new owner boots.
/// 2. **`Install`** (source → destination): the destination installs
///    the spec with its mailbox in buffering mode, subscribes the
///    spec's inputs, and publishes `Release` *on the same connection* —
///    the broker therefore processes its SUBSCRIBE before the release.
/// 3. **`Release`** (destination → source): the source drains the
///    stage, records the last sequence number it processed per input
///    topic (the *fence*), retires the stage, and replies `Handover`.
///    Every item the broker routed before the release reached it was
///    delivered to the still-subscribed source and sits at or below
///    the fence; everything after is also delivered to the
///    destination (it subscribed first) and is above the fence.
/// 4. **`Handover`** (source → destination): carries the fence and the
///    model snapshot in a MIX envelope. The destination seeds the
///    model, discards buffered items at or below the fence (the
///    source already processed those), processes the rest, and goes
///    live — each item processed exactly once, on exactly one node.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlCommand {
    /// Controller → source node: give up a shard.
    Migrate(MigrateShard),
    /// Source → destination: install this spec (buffering until the
    /// `Handover` fence arrives).
    Install {
        /// The migrating operator spec (shard assignment included).
        spec: OperatorSpec,
        /// The node giving the shard up (where `Release` goes).
        origin: String,
    },
    /// Destination → source: the new owner is subscribed; drain, fence
    /// and retire.
    Release {
        /// Operator id being taken over.
        op: String,
        /// The new owner (where `Handover` goes).
        taker: String,
    },
    /// Source → destination: cutover point and model state.
    Handover {
        /// Operator id being handed over.
        op: String,
        /// Last sequence number the source processed, per input topic.
        /// Buffered items at or below their topic's fence are dropped.
        fence: BTreeMap<String, u64>,
        /// Model snapshot; `None` for model-free operators.
        envelope: Option<MixEnvelope>,
    },
}

impl ControlCommand {
    /// Serializes to the wire payload: a control frame.
    pub fn encode(&self) -> Vec<u8> {
        crate::wire::encode_control_binary(self)
    }

    /// Parses from a wire payload.
    ///
    /// # Errors
    ///
    /// Returns a description for malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        crate::wire::decode_control_binary(bytes)
    }
}

/// Controller thresholds; see the module docs for the flap guards.
#[derive(Debug, Clone, PartialEq)]
pub struct RebalanceConfig {
    /// Decision-tick period in milliseconds.
    pub interval_ms: u64,
    /// Absolute windowed queue-wait floor (ms) below which a node is
    /// never considered hot.
    pub hot_wait_ms: f64,
    /// The hot node's wait must exceed the best candidate's by this
    /// factor.
    pub ratio: f64,
    /// Consecutive ticks the same node must stay hot before a decision.
    pub hysteresis_ticks: u32,
    /// Quiet period after a decision, in milliseconds.
    pub cooldown_ms: u64,
}

impl Default for RebalanceConfig {
    fn default() -> Self {
        RebalanceConfig {
            interval_ms: 1_000,
            hot_wait_ms: 50.0,
            ratio: 3.0,
            hysteresis_ticks: 2,
            cooldown_ms: 5_000,
        }
    }
}

/// Windowed view of one node's load, differenced from two consecutive
/// cumulative reports.
#[derive(Debug, Clone)]
struct NodeWindow {
    /// Worst windowed per-stage mean queue wait (ms).
    pressure: f64,
    /// The stages behind that pressure, worst first:
    /// `(op, modulus, shard, windowed wait ms)`.
    sharded: Vec<(String, u64, u64, f64)>,
    /// Operator ids hosted (any shape) — duplicate-id guard.
    ops: Vec<String>,
}

/// Sans-I/O rebalancing controller. Feed it the directory each tick;
/// it returns the migrations to execute (at most one per tick).
#[derive(Debug)]
pub struct Rebalancer {
    config: RebalanceConfig,
    prev: BTreeMap<String, LoadReport>,
    hot_node: Option<String>,
    hot_streak: u32,
    cooldown_until_ns: u64,
    decided: u64,
}

impl Rebalancer {
    /// Creates a controller with the given thresholds.
    pub fn new(config: RebalanceConfig) -> Self {
        Rebalancer {
            config,
            prev: BTreeMap::new(),
            hot_node: None,
            hot_streak: 0,
            cooldown_until_ns: 0,
            decided: 0,
        }
    }

    /// Total decisions emitted so far.
    pub fn decisions(&self) -> u64 {
        self.decided
    }

    /// One decision tick: differences the directory's load reports
    /// against the previous tick's, applies the flap guards, and
    /// returns the migrations to execute (empty almost always).
    pub fn tick(&mut self, now_ns: u64, dir: &FlowDirectory) -> Vec<MigrateShard> {
        let windows = self.windows(dir);
        // Snapshot for the next tick's differencing *before* any early
        // return, so the window always spans exactly one tick.
        self.prev = dir.loads().clone();

        if now_ns < self.cooldown_until_ns {
            self.hot_node = None;
            self.hot_streak = 0;
            return Vec::new();
        }
        if windows.len() < 2 {
            self.hot_node = None;
            self.hot_streak = 0;
            return Vec::new();
        }

        let (hot, hot_win) = windows
            .iter()
            .max_by(|a, b| {
                a.1.pressure
                    .partial_cmp(&b.1.pressure)
                    .expect("finite pressures")
            })
            .expect("non-empty");
        let coolest = windows
            .iter()
            .filter(|(n, _)| n != hot)
            .map(|(_, w)| w.pressure)
            .fold(f64::INFINITY, f64::min);

        let is_hot = hot_win.pressure >= self.config.hot_wait_ms
            && hot_win.pressure >= self.config.ratio * coolest.max(1e-9)
            && !hot_win.sharded.is_empty();
        if !is_hot {
            self.hot_node = None;
            self.hot_streak = 0;
            return Vec::new();
        }
        if self.hot_node.as_deref() == Some(hot.as_str()) {
            self.hot_streak += 1;
        } else {
            self.hot_node = Some(hot.clone());
            self.hot_streak = 1;
        }
        if self.hot_streak < self.config.hysteresis_ticks {
            return Vec::new();
        }

        // Pick the hottest sharded stage and a destination via the
        // LoadAware selection: least accumulated speed-normalized cost
        // over capable candidate modules, the accumulator seeded from
        // observed pressure.
        let (op, modulus, shard, stage_wait) = hot_win.sharded[0].clone();
        // A node publishing heartbeats is a live candidate unless the
        // announcement plane explicitly marked it offline; capabilities
        // ride along when an announcement exists (sharded analysis
        // operators need none).
        let candidates: Vec<(ModuleInfo, f64)> = windows
            .iter()
            .filter(|(n, w)| n != hot && !w.ops.iter().any(|o| o == &op))
            .filter_map(|(n, w)| {
                if dir.node(n).map(|a| !a.online).unwrap_or(false) {
                    return None;
                }
                let mut info = ModuleInfo::new(n.clone(), 1.0);
                if let Some(ann) = dir.node(n) {
                    info.capabilities = ann.capabilities.iter().cloned().collect();
                }
                Some((info, w.pressure))
            })
            .collect();
        let dest = candidates
            .iter()
            .min_by(|(a, la), (b, lb)| {
                let ca = la + stage_wait / a.speed.max(1e-9);
                let cb = lb + stage_wait / b.speed.max(1e-9);
                ca.partial_cmp(&cb).expect("finite costs")
            })
            .map(|(m, _)| m.name.clone());
        let Some(to) = dest else {
            return Vec::new();
        };

        self.hot_node = None;
        self.hot_streak = 0;
        self.cooldown_until_ns = now_ns + self.config.cooldown_ms * 1_000_000;
        self.decided += 1;
        vec![MigrateShard {
            op,
            modulus,
            shard,
            from: hot.clone(),
            to,
        }]
    }

    /// Windowed per-node pressure from consecutive cumulative reports.
    fn windows(&self, dir: &FlowDirectory) -> Vec<(String, NodeWindow)> {
        dir.loads()
            .iter()
            .filter(|(node, _)| dir.node(node).map(|a| a.online).unwrap_or(true))
            .map(|(node, report)| {
                let prev = self.prev.get(node);
                let mut pressure = 0.0f64;
                let mut sharded: Vec<(String, u64, u64, f64)> = Vec::new();
                let mut ops = Vec::new();
                for stage in &report.stages {
                    ops.push(stage.op.clone());
                    let (dw, dp) = match prev.and_then(|p| {
                        p.stages
                            .iter()
                            .find(|s| s.op == stage.op && s.shard == stage.shard)
                    }) {
                        Some(old) => (
                            stage.wait_ns_total.saturating_sub(old.wait_ns_total),
                            stage.processed.saturating_sub(old.processed),
                        ),
                        None => (stage.wait_ns_total, stage.processed),
                    };
                    // A stalled stage (items queued, nothing executed
                    // this window) is maximally hot: score it by depth.
                    let wait_ms = if dp > 0 {
                        dw as f64 / dp as f64 / 1e6
                    } else if stage.depth > 0 {
                        f64::max(stage.mean_wait_ms(), self.config.hot_wait_ms)
                    } else {
                        0.0
                    };
                    pressure = pressure.max(wait_ms);
                    if let Some((modulus, index)) = stage.shard {
                        sharded.push((stage.op.clone(), modulus, index, wait_ms));
                    }
                }
                sharded.sort_by(|a, b| b.3.partial_cmp(&a.3).expect("finite waits"));
                (
                    node.clone(),
                    NodeWindow {
                        pressure,
                        sharded,
                        ops,
                    },
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discovery::{load_topic, StageLoad};

    fn report(dir: &mut FlowDirectory, node: &str, at_ns: u64, stages: Vec<StageLoad>) {
        let r = LoadReport {
            node: node.to_owned(),
            at_ns,
            stages,
        };
        dir.apply(&load_topic(node), &r.encode());
    }

    fn stage(op: &str, shard: Option<(u64, u64)>, processed: u64, wait_ms: u64) -> StageLoad {
        StageLoad {
            op: op.to_owned(),
            shard,
            depth: 0,
            processed,
            shed: 0,
            wait_ns_total: wait_ms * 1_000_000,
        }
    }

    fn config() -> RebalanceConfig {
        RebalanceConfig {
            interval_ms: 100,
            hot_wait_ms: 50.0,
            ratio: 3.0,
            hysteresis_ticks: 2,
            cooldown_ms: 1_000,
        }
    }

    /// A sustained hotspot produces exactly one decision: the hottest
    /// sharded stage moves to the least-loaded other node.
    #[test]
    fn sustained_hotspot_emits_one_migration() {
        let mut dir = FlowDirectory::new();
        let mut rb = Rebalancer::new(config());
        let mut decisions = Vec::new();
        for tick in 0u64..4 {
            let t = tick * 100;
            // hot accumulates 200 ms/item on its shard; cold ~1 ms,
            // warm ~10 ms.
            report(
                &mut dir,
                "hot",
                t,
                vec![stage(
                    "predict",
                    Some((2, 0)),
                    10 * (tick + 1),
                    2_000 * (tick + 1),
                )],
            );
            report(
                &mut dir,
                "cold",
                t,
                vec![stage("other", None, 100 * (tick + 1), 100 * (tick + 1))],
            );
            report(
                &mut dir,
                "warm",
                t,
                vec![stage(
                    "predict2",
                    Some((2, 1)),
                    10 * (tick + 1),
                    100 * (tick + 1),
                )],
            );
            decisions.extend(rb.tick(t * 1_000_000, &dir));
        }
        assert_eq!(decisions.len(), 1, "cooldown caps decisions: {decisions:?}");
        let m = &decisions[0];
        assert_eq!(m.op, "predict");
        assert_eq!((m.modulus, m.shard), (2, 0));
        assert_eq!(m.from, "hot");
        assert_eq!(m.to, "cold", "least-pressure capable node wins");
        assert_eq!(rb.decisions(), 1);
    }

    /// Below the hysteresis tick count nothing moves, even over the
    /// absolute threshold.
    #[test]
    fn hysteresis_requires_sustained_heat() {
        let mut dir = FlowDirectory::new();
        let mut rb = Rebalancer::new(RebalanceConfig {
            hysteresis_ticks: 3,
            cooldown_ms: 0,
            ..config()
        });
        // Two hot ticks: not enough.
        for tick in 0u64..2 {
            report(
                &mut dir,
                "a",
                tick * 100,
                vec![stage(
                    "p",
                    Some((2, 0)),
                    10 * (tick + 1),
                    2_000 * (tick + 1),
                )],
            );
            report(
                &mut dir,
                "b",
                tick * 100,
                vec![stage("q", None, 100 * (tick + 1), 100 * (tick + 1))],
            );
            assert!(rb.tick(tick * 100_000_000, &dir).is_empty());
        }
        // Third consecutive hot tick crosses the hysteresis bar.
        report(
            &mut dir,
            "a",
            300,
            vec![stage("p", Some((2, 0)), 30, 6_000)],
        );
        report(&mut dir, "b", 300, vec![stage("q", None, 300, 300)]);
        assert_eq!(rb.tick(300_000_000, &dir).len(), 1);
    }

    /// Balanced load never triggers a decision — the controller cannot
    /// flap shards between equally-loaded nodes.
    #[test]
    fn balanced_load_never_migrates() {
        let mut dir = FlowDirectory::new();
        let mut rb = Rebalancer::new(RebalanceConfig {
            cooldown_ms: 0,
            ..config()
        });
        for tick in 0u64..10 {
            for n in ["a", "b"] {
                report(
                    &mut dir,
                    n,
                    tick * 100,
                    vec![stage("p", Some((2, 0)), 10 * (tick + 1), 800 * (tick + 1))],
                );
            }
            assert!(
                rb.tick(tick * 100_000_000, &dir).is_empty(),
                "tick {tick} flapped"
            );
        }
        assert_eq!(rb.decisions(), 0);
    }

    /// Offline nodes and nodes already hosting the operator id are not
    /// migration destinations; with no candidate, no decision.
    #[test]
    fn no_candidate_means_no_decision() {
        let mut dir = FlowDirectory::new();
        let mut rb = Rebalancer::new(RebalanceConfig {
            hysteresis_ticks: 1,
            cooldown_ms: 0,
            ..config()
        });
        for tick in 0u64..3 {
            report(
                &mut dir,
                "hot",
                tick * 100,
                vec![stage(
                    "p",
                    Some((2, 0)),
                    10 * (tick + 1),
                    2_000 * (tick + 1),
                )],
            );
            // The only peer hosts the complementary shard of the same
            // operator id — installing a duplicate id is invalid.
            report(
                &mut dir,
                "peer",
                tick * 100,
                vec![stage("p", Some((2, 1)), 100 * (tick + 1), 100 * (tick + 1))],
            );
            assert!(rb.tick(tick * 100_000_000, &dir).is_empty());
        }
    }

    #[test]
    fn control_command_round_trip() {
        let m = MigrateShard {
            op: "predict".into(),
            modulus: 4,
            shard: 2,
            from: "a".into(),
            to: "b".into(),
        };
        let cmd = ControlCommand::Migrate(m.clone());
        assert_eq!(
            ControlCommand::decode(&cmd.encode()).expect("round trip"),
            cmd
        );
        assert!(ControlCommand::decode(b"{").is_err());
        assert_eq!(control_topic("b"), "ifot/control/b");

        let install = ControlCommand::Install {
            spec: OperatorSpec::sink(
                "predict",
                crate::config::OperatorKind::Predict {
                    algorithm: "pa".into(),
                },
                vec!["sensor/#".into()],
            )
            .sharded(4, 2),
            origin: "a".into(),
        };
        assert_eq!(
            ControlCommand::decode(&install.encode()).expect("round trip"),
            install
        );

        let release = ControlCommand::Release {
            op: "predict".into(),
            taker: "b".into(),
        };
        assert_eq!(
            ControlCommand::decode(&release.encode()).expect("round trip"),
            release
        );

        let mut fence = BTreeMap::new();
        fence.insert("flow/r/ingest".to_string(), 41u64);
        let handover = ControlCommand::Handover {
            op: "predict".into(),
            fence,
            envelope: None,
        };
        assert_eq!(
            ControlCommand::decode(&handover.encode()).expect("round trip"),
            handover
        );
    }

    #[test]
    fn migrate_shard_applies_as_a_plan_diff() {
        use crate::config::{NodeConfig, OperatorKind};
        let spec = OperatorSpec::sink(
            "predict",
            OperatorKind::Predict {
                algorithm: "pa".into(),
            },
            vec!["sensor/#".into()],
        )
        .sharded(2, 0);
        let mut plan = DeploymentPlan {
            configs: vec![
                NodeConfig::new("a")
                    .with_broker_node("bk")
                    .with_operator(spec),
                NodeConfig::new("b").with_broker_node("bk"),
            ],
            assignment: Default::default(),
        };
        let m = MigrateShard {
            op: "predict".into(),
            modulus: 2,
            shard: 0,
            from: "a".into(),
            to: "b".into(),
        };
        assert!(m.apply_to(&mut plan));
        assert!(plan.config_for("a").expect("a").operators.is_empty());
        assert_eq!(plan.config_for("b").expect("b").operators.len(), 1);
        // Re-applying fails cleanly: the source no longer holds it.
        assert!(!m.apply_to(&mut plan));
    }
}
