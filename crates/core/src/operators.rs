//! Operator-facing types shared across the staged executor.
//!
//! Every non-sensing recipe task becomes a
//! [`crate::executor::StreamOperator`] stage on some node: joins and
//! windows (stream aggregation), training (*Learning class*), prediction
//! and anomaly scoring (*Judging class*), state estimation, actuation,
//! custom pass-throughs, and the MIX coordinator (*Managing class*). The
//! per-kind implementations live in [`crate::executor::ops`]; this
//! module holds the types they exchange with the node runtime: the
//! [`OpOutput`] effect vocabulary, application-visible [`NodeEvent`]s,
//! and the model-plane [`MixEnvelope`].
//!
//! Operators are pure state machines: they consume
//! [`crate::flow::FlowItem`]s and return [`OpOutput`]s; the node runtime
//! performs the resulting publishes, actuator calls and event logging.
//! CPU costs are declared on the [`crate::env::NodeEnv`] so queueing
//! behaviour matches the calibrated model.

use ifot_ml::mix::ModelDiff;
use ifot_ml::stat::RunningStats;
use ifot_sensors::actuator::Command;

use crate::flow::{FlowMessage, Name};

/// The classifier container the executor hosts behind train/predict
/// stages (re-exported so harnesses keep one import path).
pub use ifot_ml::runtime::AnyClassifier as ClassifierModel;
/// The detector container the executor hosts behind anomaly stages.
pub use ifot_ml::runtime::AnyDetector as DetectorModel;

/// Application-visible events produced by operators; collected by the
/// node and readable by harnesses and examples.
#[derive(Debug, Clone, PartialEq)]
pub enum NodeEvent {
    /// A predictor classified an item.
    Prediction {
        /// Operator id.
        task: Name,
        /// Predicted label (`None` before any training).
        label: Option<String>,
        /// Time of the prediction.
        at_ns: u64,
    },
    /// An anomaly detector flagged an item.
    AnomalyFlagged {
        /// Operator id.
        task: Name,
        /// The anomaly score.
        score: f64,
        /// Time of the flag.
        at_ns: u64,
    },
    /// An actuator applied a command.
    ActuatorApplied {
        /// Actuator device id.
        device_id: u16,
        /// Post-command state description.
        description: String,
        /// Time of application.
        at_ns: u64,
    },
    /// A MIX round completed at the coordinator.
    MixRound {
        /// Coordinator operator id.
        task: Name,
        /// Round counter.
        round: u64,
        /// Completion time.
        at_ns: u64,
    },
    /// A state estimator refreshed its estimate.
    EstimateUpdated {
        /// Operator id.
        task: Name,
        /// The fused estimate value.
        value: f64,
        /// Update time.
        at_ns: u64,
    },
}

/// Model-plane envelope travelling on `mix/...` topics.
#[derive(Debug, Clone, PartialEq)]
pub struct MixEnvelope {
    /// `offer` (node → coordinator) or `avg` (coordinator → nodes).
    pub role: String,
    /// The training task the snapshot belongs to.
    pub task: String,
    /// The model parameters.
    pub diff: ModelDiff,
}

impl MixEnvelope {
    /// Serializes to the wire payload: a MIX frame.
    pub fn encode(&self) -> Vec<u8> {
        crate::wire::encode_mix_binary(self)
    }

    /// Parses a MIX frame.
    ///
    /// # Errors
    ///
    /// Returns a description for anything that is not exactly one MIX
    /// frame.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        crate::wire::decode_mix_binary(bytes)
    }
}

/// What an operator wants the node to do.
#[derive(Debug, Clone, PartialEq)]
pub enum OpOutput {
    /// Emit a flow message on the operator's output topic.
    Emit(FlowMessage),
    /// Publish a MIX offer for this training task.
    MixOffer(ModelDiff),
    /// Publish a MIX average for the named training task.
    MixAverage {
        /// The training task the average belongs to.
        task: String,
        /// The averaged parameters.
        diff: ModelDiff,
    },
    /// Apply a command to a locally hosted actuator.
    Command {
        /// Target device.
        device_id: u16,
        /// The command.
        command: Command,
    },
    /// Record an application event.
    Event(NodeEvent),
}

/// Derives training labels when the stream carries none: an example is
/// `high` when its datum sum exceeds the running mean, else `low`. This
/// mirrors the paper's experiment where the label content is irrelevant —
/// only the cost of the train call matters — while keeping the learned
/// model meaningful for the application examples.
#[derive(Debug, Default)]
pub struct AutoLabeller {
    stats: RunningStats,
}

impl AutoLabeller {
    /// Labels a datum and absorbs it into the running estimate.
    pub fn label(&mut self, datum: &ifot_ml::feature::Datum) -> &'static str {
        let v: f64 = datum.iter().map(|(_, x)| x).sum();
        let label = if self.stats.count() == 0 || v >= self.stats.mean() {
            "high"
        } else {
            "low"
        };
        self.stats.push(v);
        label
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ifot_ml::feature::Datum;

    #[test]
    fn auto_labeller_separates_high_low() {
        let mut l = AutoLabeller::default();
        let low = Datum::new().with("v", 0.0);
        let high = Datum::new().with("v", 10.0);
        let _ = l.label(&low);
        assert_eq!(l.label(&high), "high");
        assert_eq!(l.label(&low), "low");
    }

    #[test]
    fn envelope_round_trip() {
        let e = MixEnvelope {
            role: "avg".into(),
            task: "t".into(),
            diff: ModelDiff::new(),
        };
        assert_eq!(MixEnvelope::decode(&e.encode()).expect("round trip"), e);
        assert!(MixEnvelope::decode(b"oops").is_err());
    }
}
