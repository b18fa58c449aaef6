//! The management software screen (paper Fig. 8): a textual cluster
//! monitor showing every module's classes and their live statistics.

use ifot_core::node::{MiddlewareNode, ResilienceStats};
use ifot_core::sim_adapter::SimNode;
use ifot_netsim::sim::Simulation;

/// A snapshot of one module's state.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleStatus {
    /// Module name.
    pub name: String,
    /// Whether the MQTT client session is up.
    pub connected: bool,
    /// One line per hosted class.
    pub classes: Vec<String>,
    /// One entry per operator spec with its sequence-shard filter, as
    /// deploy placed them.
    pub placement: Vec<String>,
    /// Connection-resilience counters (reconnects, offline buffering,
    /// session replay, sequence-ledger loss accounting).
    pub resilience: ResilienceStats,
}

impl ModuleStatus {
    /// Captures the status of one middleware node.
    pub fn capture(node: &MiddlewareNode) -> Self {
        ModuleStatus {
            name: node.name().to_owned(),
            connected: node.is_connected(),
            classes: node.describe_classes(),
            placement: node.placement(),
            resilience: node.resilience(),
        }
    }
}

/// Captures the status of every middleware node registered on a
/// simulation.
pub fn capture_simulation(sim: &Simulation) -> Vec<ModuleStatus> {
    let mut out = Vec::new();
    for index in 0..sim.node_count() {
        let id = ifot_netsim::actor::NodeId::from_index(index);
        if let Some(node) = sim.actor_as::<SimNode>(id) {
            out.push(ModuleStatus::capture(node.middleware()));
        }
    }
    out
}

/// Renders the management screen.
pub fn render_screen(statuses: &[ModuleStatus], now_label: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!("IFoT management console — {now_label}\n"));
    out.push_str(&"=".repeat(64));
    out.push('\n');
    for status in statuses {
        out.push_str(&format!(
            "{} [{}]\n",
            status.name,
            if status.connected {
                "connected"
            } else {
                "offline"
            }
        ));
        if status.classes.is_empty() {
            out.push_str("    (no classes deployed)\n");
        }
        for class in &status.classes {
            out.push_str(&format!("    {class}\n"));
        }
        if !status.placement.is_empty() {
            out.push_str(&format!("    placement: {}\n", status.placement.join(", ")));
        }
        let r = &status.resilience;
        if r.reconnects > 0 || r.transport_lost > 0 || r.offline_buffered > 0 || r.seq_gaps > 0 {
            out.push_str(&format!(
                "    resilience: reconnects={} lost={} resumed={} \
                 offline(buf={} drop={} flush={}) replayed={} seq(gaps={} dup={})\n",
                r.reconnects,
                r.transport_lost,
                r.session_resumes,
                r.offline_buffered,
                r.offline_dropped,
                r.offline_flushed,
                r.replayed_packets,
                r.seq_gaps,
                r.seq_duplicates,
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{paper_testbed, TestbedConfig};
    use ifot_netsim::time::SimDuration;

    #[test]
    fn captures_every_module() {
        let mut sim = paper_testbed(&TestbedConfig::paper(5.0));
        sim.run_for(SimDuration::from_secs(2));
        let statuses = capture_simulation(&sim);
        assert_eq!(statuses.len(), 7);
        let screen = render_screen(&statuses, "t=2s");
        assert!(screen.contains("module-a"));
        assert!(screen.contains("module-f"));
        assert!(screen.contains("management console"));
        // Sensor modules show publish counts; analysis modules their ops.
        assert!(screen.contains("sensor["), "screen:\n{screen}");
        assert!(screen.contains("train["), "screen:\n{screen}");
    }

    #[test]
    fn empty_nodes_render_gracefully() {
        let status = ModuleStatus {
            name: "idle".into(),
            connected: false,
            classes: vec![],
            placement: vec![],
            resilience: ResilienceStats::default(),
        };
        let screen = render_screen(&[status], "t=0");
        assert!(screen.contains("no classes deployed"));
        assert!(screen.contains("offline"));
        // A module that never struggled shows no resilience line.
        assert!(!screen.contains("resilience:"));
        assert!(!screen.contains("placement:"));
    }

    #[test]
    fn placement_renders_when_present() {
        let status = ModuleStatus {
            name: "edge".into(),
            connected: true,
            classes: vec![],
            placement: vec!["predict shard 1/3".into(), "train".into()],
            resilience: ResilienceStats::default(),
        };
        let screen = render_screen(&[status], "t=4");
        assert!(
            screen.contains("placement: predict shard 1/3, train"),
            "screen:\n{screen}"
        );
    }

    #[test]
    fn resilience_counters_render_when_active() {
        let status = ModuleStatus {
            name: "edge".into(),
            connected: true,
            classes: vec![],
            placement: vec![],
            resilience: ResilienceStats {
                reconnects: 2,
                transport_lost: 2,
                offline_buffered: 5,
                offline_flushed: 5,
                ..ResilienceStats::default()
            },
        };
        let screen = render_screen(&[status], "t=9");
        assert!(
            screen.contains("resilience: reconnects=2"),
            "screen:\n{screen}"
        );
        assert!(
            screen.contains("offline(buf=5 drop=0 flush=5)"),
            "screen:\n{screen}"
        );
    }
}
