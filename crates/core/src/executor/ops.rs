//! Per-kind [`StreamOperator`] implementations — the IFoT flow-analysis
//! classes, one type per recipe operator kind.
//!
//! These are verbatim ports of the former monolithic dispatch: the
//! sequence of environment calls (CPU charges, RNG draws, counters,
//! latency recordings) each operator makes per input is unchanged, which
//! is what keeps seeded simulator runs bit-identical across the
//! executor refactor.

use std::collections::BTreeMap;

use ifot_ml::anomaly::ContaminationGuard;
use ifot_ml::feature::{Datum, FeatureKey, FeatureVector, DEFAULT_DIMENSIONS};
use ifot_ml::mix::MixCoordinator;
use ifot_ml::runtime::{AnyClassifier, AnyDetector};
use ifot_ml::stat::Ewma;
use ifot_sensors::actuator::Command;

use crate::config::{OperatorKind, OperatorSpec};
use crate::costs;
use crate::env::{NodeEnv, NodeEnvExt};
use crate::executor::{ControlMsg, OpTimer, StreamOperator};
use crate::flow::{FlowItem, FlowMessage, Name};
use crate::operators::{AutoLabeller, NodeEvent, OpOutput};

/// How many joined-but-incomplete sequences a join keeps before dropping
/// the oldest (lost QoS 0 samples would otherwise leak memory).
pub const JOIN_MAX_PENDING: usize = 256;

/// Observations an anomaly operator absorbs before it may flag: with
/// fewer samples the running variance estimate is meaningless and any
/// ordinary value can score arbitrarily high (detector cold start).
pub const ANOMALY_WARMUP: u64 = 10;

/// Instantiates the [`StreamOperator`] for a spec's kind. What an operator
/// stamps on every output — its id as producer and task, a datum key, a
/// counter name — is built here, once, and shared from then on.
pub fn build_operator(spec: OperatorSpec) -> Box<dyn StreamOperator> {
    let id = Name::from(spec.id.as_str());
    match &spec.kind {
        OperatorKind::Join { expected_sources } => {
            let expected = *expected_sources;
            Box::new(JoinOp {
                spec,
                id,
                expected,
                pending: BTreeMap::new(),
                spare: Vec::new(),
                emitted: 0,
                incomplete_dropped: 0,
            })
        }
        OperatorKind::Window { .. } => Box::new(WindowOp {
            spec,
            id,
            buffer: Vec::new(),
            flushes: 0,
            seq: 0,
        }),
        OperatorKind::Train { algorithm, .. } => {
            let model = AnyClassifier::by_name(algorithm);
            Box::new(TrainOp {
                spec,
                model,
                labeller: AutoLabeller::default(),
                xs: Vec::new(),
                trained: 0,
            })
        }
        OperatorKind::Predict { algorithm } => {
            let model = AnyClassifier::by_name(algorithm);
            Box::new(PredictOp {
                spec,
                id,
                model,
                xs: Vec::new(),
                labels: Vec::new(),
                predicted: 0,
                seq: 0,
            })
        }
        OperatorKind::Anomaly {
            detector,
            threshold,
        } => {
            let detector = AnyDetector::by_name(detector);
            let threshold = *threshold;
            Box::new(AnomalyOp {
                spec,
                id,
                detector,
                guard: ContaminationGuard::default(),
                threshold,
                flagged: 0,
                scored: 0,
                seq: 0,
            })
        }
        OperatorKind::Estimate { model } => {
            let key = format!("estimate_{model}").into();
            Box::new(EstimateOp {
                spec,
                id,
                key,
                fused: Ewma::new(0.2),
                updates: 0,
                seq: 0,
            })
        }
        OperatorKind::Policy {
            key,
            on_above,
            off_below,
            emit,
        } => {
            let (key, emit) = (key.clone(), emit.clone().into());
            let (on_above, off_below) = (*on_above, *off_below);
            Box::new(PolicyOp {
                spec,
                id,
                key,
                on_above,
                off_below,
                emit,
                engaged: None,
                decisions: 0,
                seq: 0,
            })
        }
        OperatorKind::Actuate { device_id } => {
            let device_id = *device_id;
            Box::new(ActuateOp {
                spec,
                device_id,
                applied: 0,
            })
        }
        OperatorKind::Custom { operator } => {
            let counter = format!("custom_{operator}");
            Box::new(CustomOp {
                spec,
                id,
                counter,
                passed: 0,
                seq: 0,
            })
        }
        OperatorKind::MixCoordinator { expected } => {
            let coordinator = MixCoordinator::new((*expected).max(1));
            Box::new(MixCoordinatorOp {
                spec,
                coordinator,
                round_tasks: Vec::new(),
            })
        }
    }
}

fn next_seq(seq: &mut u64) -> u64 {
    *seq += 1;
    *seq
}

/// Join one item per source (by sequence number) into a merged datum —
/// the `[data]` aggregation of Fig. 9.
#[derive(Debug)]
pub struct JoinOp {
    spec: OperatorSpec,
    id: Name,
    expected: usize,
    /// The parts of each open sequence number, sorted by topic, one per
    /// topic (a repeat replaces its predecessor).
    pending: BTreeMap<u64, Vec<FlowItem>>,
    /// Emptied part lists, reused by the next sequences to open: there
    /// are never more than sequences were open at once.
    spare: Vec<Vec<FlowItem>>,
    emitted: u64,
    incomplete_dropped: u64,
}

impl StreamOperator for JoinOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, out: &mut Vec<OpOutput>) {
        env.consume_ref_ms(costs::JOIN_MS);
        let tuple_seq = item.seq;
        let parts = self
            .pending
            .entry(tuple_seq)
            .or_insert_with(|| self.spare.pop().unwrap_or_default());
        match parts.binary_search_by(|part| part.topic.cmp(&item.topic)) {
            Ok(at) => parts[at] = item,
            Err(at) => parts.insert(at, item),
        }
        if parts.len() >= self.expected {
            let mut parts = self.pending.remove(&tuple_seq).expect("slot present");
            self.emitted += 1;
            // Merged in topic order: a key two parts carry keeps the
            // value of the later topic.
            let mut datum = Datum::new();
            let mut origin = u64::MAX;
            let mut seq = 0;
            for part in &parts {
                origin = origin.min(part.origin_ts_ns);
                seq = seq.max(part.seq);
                for (k, v) in part.datum.entries() {
                    datum.set(k.clone(), v);
                }
            }
            parts.clear();
            self.spare.push(parts);
            env.incr("join_emitted");
            out.push(OpOutput::Emit(FlowMessage {
                producer: self.id.clone(),
                origin_ts_ns: origin,
                seq,
                datum,
                label: None,
                score: None,
            }));
            return;
        }
        // Bound the pending map: evict the oldest sequence.
        if self.pending.len() > JOIN_MAX_PENDING {
            let (_, mut oldest) = self.pending.pop_first().expect("non-empty");
            oldest.clear();
            self.spare.push(oldest);
            self.incomplete_dropped += 1;
            env.incr("join_incomplete_dropped");
        }
    }

    fn describe(&self) -> String {
        format!(
            "join[{}] emitted={} pending={} dropped={}",
            self.spec.id,
            self.emitted,
            self.pending.len(),
            self.incomplete_dropped
        )
    }
}

/// Time-window aggregation (mean per datum key), flushed by timer.
#[derive(Debug)]
pub struct WindowOp {
    spec: OperatorSpec,
    id: Name,
    buffer: Vec<FlowItem>,
    flushes: u64,
    seq: u64,
}

impl StreamOperator for WindowOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, _env: &mut dyn NodeEnv, item: FlowItem, _out: &mut Vec<OpOutput>) {
        // Buffering is cheap; the cost lands on the flush.
        self.buffer.push(item);
    }

    fn on_timer(&mut self, env: &mut dyn NodeEnv, timer: OpTimer, out: &mut Vec<OpOutput>) {
        if timer != OpTimer::Flush || self.buffer.is_empty() {
            return;
        }
        env.consume_ref_ms(costs::WINDOW_FLUSH_MS);
        self.flushes += 1;
        env.incr("window_flushes");
        // Mean per key plus a count feature.
        let mut sums: BTreeMap<FeatureKey, (f64, u64)> = BTreeMap::new();
        let mut origin = u64::MAX;
        let mut seq = 0;
        for item in self.buffer.iter() {
            origin = origin.min(item.origin_ts_ns);
            seq = seq.max(item.seq);
            for (k, v) in item.datum.entries() {
                let e = sums.entry(k.clone()).or_insert((0.0, 0));
                e.0 += v;
                e.1 += 1;
            }
        }
        let count = self.buffer.len();
        self.buffer.clear();
        let mut datum = Datum::new();
        for (k, (sum, n)) in sums {
            datum.set(k, sum / n as f64);
        }
        datum.set("window_count", count as f64);
        let seq_out = next_seq(&mut self.seq).max(seq);
        out.push(OpOutput::Emit(FlowMessage {
            producer: self.id.clone(),
            origin_ts_ns: origin,
            seq: seq_out,
            datum,
            label: None,
            score: None,
        }));
    }

    fn describe(&self) -> String {
        format!(
            "window[{}] buffered={} flushes={}",
            self.spec.id,
            self.buffer.len(),
            self.flushes
        )
    }
}

/// The label an item is trained under: the one it carries, else the
/// auto-labeller's.
fn label_of<'a>(labeller: &mut AutoLabeller, item: &'a FlowItem) -> &'a str {
    match &item.label {
        Some(label) => label,
        None => labeller.label(&item.datum),
    }
}

/// Hashes each item's datum into `xs`, one vector per item, refilling the
/// vectors (and their buffers) earlier calls left there; returns them.
fn hash_into<'x>(xs: &'x mut Vec<FeatureVector>, items: &[FlowItem]) -> &'x [FeatureVector] {
    if xs.len() < items.len() {
        xs.resize_with(items.len(), FeatureVector::default);
    }
    for (x, item) in xs.iter_mut().zip(items) {
        item.datum.to_vector_into(DEFAULT_DIMENSIONS, x);
    }
    &xs[..items.len()]
}

/// Online training (Learning class): trains on every item, offers MIX
/// snapshots on timer, imports round averages on control.
#[derive(Debug)]
pub struct TrainOp {
    spec: OperatorSpec,
    model: AnyClassifier,
    labeller: AutoLabeller,
    /// The hashed vectors of the last call, reused by the next.
    xs: Vec<FeatureVector>,
    trained: u64,
}

impl StreamOperator for TrainOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, _out: &mut Vec<OpOutput>) {
        let mut cost = costs::TRAIN_BATCH_MS + env.rand_exp_ms(costs::TRAIN_JITTER_MEAN_MS);
        if env.rand_chance(costs::TRAIN_SLOW_PROB) {
            cost += costs::TRAIN_SLOW_MS;
        }
        env.consume_ref_ms(cost);
        let x = &hash_into(&mut self.xs, std::slice::from_ref(&item))[0];
        self.model.train(x, label_of(&mut self.labeller, &item));
        self.trained += 1;
        env.incr("trained");
        env.record_latency_since_ns("sensing_to_training", item.origin_ts_ns);
    }

    fn on_batch(
        &mut self,
        env: &mut dyn NodeEnv,
        items: &mut Vec<FlowItem>,
        _out: &mut Vec<OpOutput>,
    ) {
        if items.is_empty() {
            return;
        }
        // One batched train RPC for the whole micro-batch: the batch cost
        // (and its jitter / slow-path draws) is charged once, which is
        // where the coalesced flow path earns its throughput. The model
        // state and counters end up identical to the per-item loop.
        let mut cost = costs::TRAIN_BATCH_MS + env.rand_exp_ms(costs::TRAIN_JITTER_MEAN_MS);
        if env.rand_chance(costs::TRAIN_SLOW_PROB) {
            cost += costs::TRAIN_SLOW_MS;
        }
        env.consume_ref_ms(cost);
        env.incr("train_batch_calls");
        let labeller = &mut self.labeller;
        let xs = hash_into(&mut self.xs, items);
        self.model.train_batch(
            xs.iter()
                .zip(items.iter())
                .map(|(x, item)| (x, label_of(labeller, item))),
        );
        for item in items.drain(..) {
            self.trained += 1;
            env.incr("trained");
            env.record_latency_since_ns("sensing_to_training", item.origin_ts_ns);
        }
    }

    fn on_timer(&mut self, env: &mut dyn NodeEnv, timer: OpTimer, out: &mut Vec<OpOutput>) {
        if timer != OpTimer::Mix {
            return;
        }
        env.consume_ref_ms(costs::MIX_MS);
        env.incr("mix_offered");
        out.push(OpOutput::MixOffer(self.model.export_diff()));
    }

    fn on_control(&mut self, env: &mut dyn NodeEnv, msg: &ControlMsg, _out: &mut Vec<OpOutput>) {
        let ControlMsg::Mix(envelope) = msg;
        if envelope.role == "avg" {
            env.consume_ref_ms(costs::MIX_MS);
            env.incr("mix_imports");
            self.model.import_diff(&envelope.diff);
        }
    }

    fn describe(&self) -> String {
        format!(
            "train[{}] trained={} examples={}",
            self.spec.id,
            self.trained,
            self.model.examples_seen()
        )
    }

    fn model(&self) -> Option<&AnyClassifier> {
        Some(&self.model)
    }
}

/// Online prediction (Judging class).
#[derive(Debug)]
pub struct PredictOp {
    spec: OperatorSpec,
    id: Name,
    model: AnyClassifier,
    /// The hashed vectors of the last call, reused by the next.
    xs: Vec<FeatureVector>,
    /// The labels of the last batched call, a list kept for the next.
    labels: Vec<Option<String>>,
    predicted: u64,
    seq: u64,
}

impl PredictOp {
    /// Books one classified item and appends its outputs: the event, and
    /// the labelled emission when the stage has an output topic.
    fn report(
        &mut self,
        env: &mut dyn NodeEnv,
        item: FlowItem,
        mut label: Option<String>,
        out: &mut Vec<OpOutput>,
    ) {
        self.predicted += 1;
        env.incr("predicted");
        env.record_latency_since_ns("sensing_to_predicting", item.origin_ts_ns);
        let at_ns = env.now_ns();
        let seq = next_seq(&mut self.seq);
        let emits = self.spec.output.is_some();
        out.push(OpOutput::Event(NodeEvent::Prediction {
            task: self.id.clone(),
            // The label is copied only when the emission needs one too.
            label: if emits { label.clone() } else { label.take() },
            at_ns,
        }));
        if emits {
            out.push(OpOutput::Emit(FlowMessage {
                producer: self.id.clone(),
                origin_ts_ns: item.origin_ts_ns,
                seq,
                datum: item.datum,
                label,
                score: None,
            }));
        }
    }
}

impl StreamOperator for PredictOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, out: &mut Vec<OpOutput>) {
        let mut cost = costs::PREDICT_BATCH_MS + env.rand_exp_ms(costs::PREDICT_JITTER_MEAN_MS);
        if env.rand_chance(costs::PREDICT_SLOW_PROB) {
            cost += costs::PREDICT_SLOW_MS;
        }
        env.consume_ref_ms(cost);
        let x = &hash_into(&mut self.xs, std::slice::from_ref(&item))[0];
        let label = self.model.classify(x);
        self.report(env, item, label, out);
    }

    fn on_batch(
        &mut self,
        env: &mut dyn NodeEnv,
        items: &mut Vec<FlowItem>,
        out: &mut Vec<OpOutput>,
    ) {
        if items.is_empty() {
            return;
        }
        // One batched classify call; cost drawn once for the whole
        // micro-batch. Per-item outputs (events, emits, counters,
        // latencies) match the per-item loop exactly.
        let mut cost = costs::PREDICT_BATCH_MS + env.rand_exp_ms(costs::PREDICT_JITTER_MEAN_MS);
        if env.rand_chance(costs::PREDICT_SLOW_PROB) {
            cost += costs::PREDICT_SLOW_MS;
        }
        env.consume_ref_ms(cost);
        env.incr("predict_batch_calls");
        let mut labels = std::mem::take(&mut self.labels);
        self.model
            .classify_batch_into(hash_into(&mut self.xs, items), &mut labels);
        for (item, label) in items.drain(..).zip(labels.drain(..)) {
            self.report(env, item, label, out);
        }
        self.labels = labels;
    }

    fn on_control(&mut self, env: &mut dyn NodeEnv, msg: &ControlMsg, _out: &mut Vec<OpOutput>) {
        let ControlMsg::Mix(envelope) = msg;
        if envelope.role == "avg" {
            env.consume_ref_ms(costs::MIX_MS);
            env.incr("mix_imports");
            self.model.import_diff(&envelope.diff);
        }
    }

    fn describe(&self) -> String {
        format!("predict[{}] predicted={}", self.spec.id, self.predicted)
    }

    fn model(&self) -> Option<&AnyClassifier> {
        Some(&self.model)
    }
}

/// Streaming anomaly scoring (Judging class) with warmup and a
/// contamination guard.
#[derive(Debug)]
pub struct AnomalyOp {
    spec: OperatorSpec,
    id: Name,
    detector: AnyDetector,
    guard: ContaminationGuard,
    threshold: f64,
    flagged: u64,
    scored: u64,
    seq: u64,
}

impl StreamOperator for AnomalyOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, out: &mut Vec<OpOutput>) {
        env.consume_ref_ms(costs::ANOMALY_MS);
        let score = self.detector.score(&item.datum);
        self.scored += 1;
        env.incr("anomaly_scored");
        env.record_latency_since_ns("sensing_to_anomaly", item.origin_ts_ns);
        let flagging = self.scored > ANOMALY_WARMUP && score > self.threshold;
        if self.guard.absorbs(flagging) {
            self.detector.observe(&item.datum);
        }
        if flagging {
            self.flagged += 1;
            env.incr("anomaly_flagged");
            let at_ns = env.now_ns();
            let seq = next_seq(&mut self.seq);
            out.push(OpOutput::Event(NodeEvent::AnomalyFlagged {
                task: self.id.clone(),
                score,
                at_ns,
            }));
            if self.spec.output.is_some() {
                out.push(OpOutput::Emit(FlowMessage {
                    producer: self.id.clone(),
                    origin_ts_ns: item.origin_ts_ns,
                    seq,
                    datum: item.datum,
                    label: Some("anomaly".into()),
                    score: Some(score),
                }));
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "anomaly[{}] scored={} flagged={}",
            self.spec.id, self.scored, self.flagged
        )
    }
}

/// State estimation by exponential fusion of inputs.
#[derive(Debug)]
pub struct EstimateOp {
    spec: OperatorSpec,
    id: Name,
    /// `estimate_<model>`, the key of the emitted datum.
    key: FeatureKey,
    fused: Ewma,
    updates: u64,
    seq: u64,
}

impl StreamOperator for EstimateOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, out: &mut Vec<OpOutput>) {
        env.consume_ref_ms(costs::ESTIMATE_MS);
        let v: f64 = item.datum.iter().map(|(_, x)| x).sum();
        self.fused.push(v);
        self.updates += 1;
        let value = self.fused.value().unwrap_or(0.0);
        env.incr("estimates");
        let at_ns = env.now_ns();
        let seq = next_seq(&mut self.seq);
        out.push(OpOutput::Event(NodeEvent::EstimateUpdated {
            task: self.id.clone(),
            value,
            at_ns,
        }));
        if self.spec.output.is_some() {
            out.push(OpOutput::Emit(FlowMessage {
                producer: self.id.clone(),
                origin_ts_ns: item.origin_ts_ns,
                seq,
                datum: Datum::new().with(self.key.clone(), value),
                label: item.label,
                score: Some(value),
            }));
        }
    }

    fn describe(&self) -> String {
        format!("estimate[{}] updates={}", self.spec.id, self.updates)
    }
}

/// Hysteresis policy: maps an upstream value into on/off decisions.
#[derive(Debug)]
pub struct PolicyOp {
    spec: OperatorSpec,
    id: Name,
    key: String,
    on_above: f64,
    off_below: f64,
    emit: FeatureKey,
    /// Current decision (None until the first crossing).
    engaged: Option<bool>,
    decisions: u64,
    seq: u64,
}

impl StreamOperator for PolicyOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, out: &mut Vec<OpOutput>) {
        env.consume_ref_ms(costs::ACTUATE_MS);
        let value = if self.key == "score" {
            item.score.unwrap_or(0.0)
        } else {
            item.datum.get(&self.key).unwrap_or(0.0)
        };
        let next = if value > self.on_above {
            Some(true)
        } else if value < self.off_below {
            Some(false)
        } else {
            self.engaged
        };
        if next == self.engaged {
            return;
        }
        self.engaged = next;
        self.decisions += 1;
        env.incr("policy_decisions");
        let on = next.unwrap_or(false);
        let seq = next_seq(&mut self.seq);
        if self.spec.output.is_some() {
            out.push(OpOutput::Emit(FlowMessage {
                producer: self.id.clone(),
                origin_ts_ns: item.origin_ts_ns,
                seq,
                datum: Datum::new().with(self.emit.clone(), if on { 1.0 } else { 0.0 }),
                label: None,
                score: Some(value),
            }));
        }
    }

    fn describe(&self) -> String {
        format!(
            "policy[{}] engaged={:?} decisions={}",
            self.spec.id, self.engaged, self.decisions
        )
    }
}

/// Drive an actuator from upstream decisions.
#[derive(Debug)]
pub struct ActuateOp {
    spec: OperatorSpec,
    device_id: u16,
    applied: u64,
}

impl StreamOperator for ActuateOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, out: &mut Vec<OpOutput>) {
        env.consume_ref_ms(costs::ACTUATE_MS);
        let command =
            Command::from_decision(|k| item.datum.get(k), item.label.as_deref(), item.score);
        self.applied += 1;
        env.incr("actuations");
        env.record_latency_since_ns("sensing_to_actuation", item.origin_ts_ns);
        out.push(OpOutput::Command {
            device_id: self.device_id,
            command,
        });
    }

    fn describe(&self) -> String {
        format!("actuate[{}] applied={}", self.spec.id, self.applied)
    }
}

/// Counter name of the custom operator that panics on its third item.
#[cfg(test)]
pub(crate) const FAULTY_CUSTOM_COUNTER: &str = "custom_faulty";

/// Named pass-through operator.
#[derive(Debug)]
pub struct CustomOp {
    spec: OperatorSpec,
    id: Name,
    /// `custom_<operator>`, the counter bumped per item.
    counter: String,
    passed: u64,
    seq: u64,
}

impl StreamOperator for CustomOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, env: &mut dyn NodeEnv, item: FlowItem, out: &mut Vec<OpOutput>) {
        env.consume_ref_ms(costs::CUSTOM_MS);
        self.passed += 1;
        env.incr(&self.counter);
        // Lets a test plant one operator fault inside a running node.
        #[cfg(test)]
        assert!(
            self.counter != FAULTY_CUSTOM_COUNTER || self.passed != 3,
            "planted operator fault"
        );
        let seq = next_seq(&mut self.seq);
        if self.spec.output.is_some() {
            out.push(OpOutput::Emit(FlowMessage {
                producer: self.id.clone(),
                origin_ts_ns: item.origin_ts_ns,
                seq,
                datum: item.datum,
                label: item.label,
                score: item.score,
            }));
        }
    }

    fn describe(&self) -> String {
        format!("custom[{}] passed={}", self.spec.id, self.passed)
    }
}

/// MIX coordinator (Managing class): average offered snapshots.
#[derive(Debug)]
pub struct MixCoordinatorOp {
    spec: OperatorSpec,
    coordinator: MixCoordinator,
    /// Task ids that contributed to the current round.
    round_tasks: Vec<String>,
}

impl StreamOperator for MixCoordinatorOp {
    fn spec(&self) -> &OperatorSpec {
        &self.spec
    }

    fn on_item(&mut self, _env: &mut dyn NodeEnv, _item: FlowItem, _out: &mut Vec<OpOutput>) {}

    fn on_control(&mut self, env: &mut dyn NodeEnv, msg: &ControlMsg, out: &mut Vec<OpOutput>) {
        let ControlMsg::Mix(envelope) = msg;
        if envelope.role != "offer" {
            return;
        }
        env.consume_ref_ms(costs::MIX_MS);
        env.incr("mix_offers");
        if !self.round_tasks.contains(&envelope.task) {
            self.round_tasks.push(envelope.task.clone());
        }
        if let Some(avg) = self.coordinator.offer(envelope.diff.clone()) {
            let round = self.coordinator.rounds_completed();
            let at_ns = env.now_ns();
            let tasks = std::mem::take(&mut self.round_tasks);
            out.push(OpOutput::Event(NodeEvent::MixRound {
                task: envelope.task.as_str().into(),
                round,
                at_ns,
            }));
            // Every contributing task receives the round average.
            for task in tasks {
                out.push(OpOutput::MixAverage {
                    task,
                    diff: avg.clone(),
                });
            }
        }
    }

    fn describe(&self) -> String {
        format!(
            "mix[{}] rounds={} collected={}",
            self.spec.id,
            self.coordinator.rounds_completed(),
            self.coordinator.collected()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::MockEnv;
    use crate::operators::MixEnvelope;

    type Op = Box<dyn StreamOperator>;

    /// What one `on_item` call appends to an empty list.
    fn run_item(op: &mut Op, env: &mut MockEnv, item: FlowItem) -> Vec<OpOutput> {
        let mut out = Vec::new();
        op.on_item(env, item, &mut out);
        out
    }

    fn run_batch(op: &mut Op, env: &mut MockEnv, mut items: Vec<FlowItem>) -> Vec<OpOutput> {
        let mut out = Vec::new();
        op.on_batch(env, &mut items, &mut out);
        assert!(items.is_empty(), "on_batch drains its list");
        out
    }

    fn run_timer(op: &mut Op, env: &mut MockEnv, timer: OpTimer) -> Vec<OpOutput> {
        let mut out = Vec::new();
        op.on_timer(env, timer, &mut out);
        out
    }

    fn run_control(op: &mut Op, env: &mut MockEnv, msg: &ControlMsg) -> Vec<OpOutput> {
        let mut out = Vec::new();
        op.on_control(env, msg, &mut out);
        out
    }

    fn item(topic: &str, seq: u64, origin: u64, pairs: &[(&'static str, f64)]) -> FlowItem {
        let mut datum = Datum::new();
        for (k, v) in pairs {
            datum.set(*k, *v);
        }
        FlowItem {
            topic: topic.into(),
            origin_ts_ns: origin,
            seq,
            datum,
            label: None,
            score: None,
        }
    }

    fn join3() -> Box<dyn StreamOperator> {
        build_operator(OperatorSpec::through(
            "agg",
            OperatorKind::Join {
                expected_sources: 3,
            },
            vec!["sensor/#".into()],
            "flow/exp/agg",
        ))
    }

    #[test]
    fn topic_matching_uses_filters() {
        let op = join3();
        assert!(op.spec().accepts("sensor/1/accel"));
        assert!(op.spec().accepts("sensor/2/sound"));
        assert!(!op.spec().accepts("flow/exp/agg"));
        assert!(!op.spec().accepts("sensor/+")); // wildcard is not a valid name
    }

    #[test]
    fn join_emits_on_complete_tuple() {
        let mut env = MockEnv::new();
        let mut op = join3();
        assert!(run_item(&mut op, &mut env, item("sensor/1/a", 5, 100, &[("a", 1.0)])).is_empty());
        assert!(run_item(&mut op, &mut env, item("sensor/2/b", 5, 90, &[("b", 2.0)])).is_empty());
        let out = run_item(&mut op, &mut env, item("sensor/3/c", 5, 110, &[("c", 3.0)]));
        assert_eq!(out.len(), 1);
        match &out[0] {
            OpOutput::Emit(m) => {
                assert_eq!(m.origin_ts_ns, 90, "earliest sensing time");
                assert_eq!(m.datum.get("a"), Some(1.0));
                assert_eq!(m.datum.get("c"), Some(3.0));
            }
            other => panic!("expected emit, got {other:?}"),
        }
        // Different seq tuples do not interfere.
        assert!(run_item(&mut op, &mut env, item("sensor/1/a", 6, 1, &[("a", 1.0)])).is_empty());
    }

    #[test]
    fn join_bounds_pending() {
        let mut env = MockEnv::new();
        let mut op = join3();
        for seq in 0..(JOIN_MAX_PENDING as u64 + 50) {
            let _ = run_item(
                &mut op,
                &mut env,
                item("sensor/1/a", seq, seq, &[("a", 1.0)]),
            );
        }
        assert!(env.counter("join_incomplete_dropped") > 0);
    }

    #[test]
    fn window_aggregates_means() {
        let mut env = MockEnv::new();
        let spec = OperatorSpec::through(
            "w",
            OperatorKind::Window { size_ms: 100 },
            vec!["sensor/#".into()],
            "flow/r/w",
        );
        assert_eq!(spec.flush_period_ms(), Some(100));
        let mut op = build_operator(spec);
        assert!(
            run_timer(&mut op, &mut env, OpTimer::Flush).is_empty(),
            "empty window flush is silent"
        );
        let _ = run_item(&mut op, &mut env, item("sensor/1/a", 1, 50, &[("x", 2.0)]));
        let _ = run_item(&mut op, &mut env, item("sensor/1/a", 2, 60, &[("x", 4.0)]));
        let out = run_timer(&mut op, &mut env, OpTimer::Flush);
        assert_eq!(out.len(), 1);
        match &out[0] {
            OpOutput::Emit(m) => {
                assert_eq!(m.datum.get("x"), Some(3.0));
                assert_eq!(m.datum.get("window_count"), Some(2.0));
                assert_eq!(m.origin_ts_ns, 50);
            }
            other => panic!("expected emit, got {other:?}"),
        }
    }

    #[test]
    fn train_consumes_cpu_and_records_latency() {
        let mut env = MockEnv::new();
        env.now_ns = 10_000_000;
        let mut op = build_operator(OperatorSpec::sink(
            "t",
            OperatorKind::Train {
                algorithm: "pa".into(),
                mix_interval_ms: 0,
            },
            vec!["flow/#".into()],
        ));
        let out = run_item(
            &mut op,
            &mut env,
            item("flow/r/x", 1, 5_000_000, &[("x", 1.0)]),
        );
        assert!(out.is_empty());
        assert!(env.cpu_ms >= costs::TRAIN_BATCH_MS);
        assert_eq!(env.latencies[0].0, "sensing_to_training");
        assert_eq!(env.latencies[0].1, 5_000_000);
        assert_eq!(env.counter("trained"), 1);
        assert_eq!(op.model().expect("train has model").examples_seen(), 1);
    }

    #[test]
    fn train_batch_matches_per_item_loop() {
        let spec = || {
            OperatorSpec::sink(
                "t",
                OperatorKind::Train {
                    algorithm: "pa".into(),
                    mix_interval_ms: 0,
                },
                vec!["flow/#".into()],
            )
        };
        let items: Vec<FlowItem> = (0..4)
            .map(|i| {
                item(
                    "flow/r/x",
                    i,
                    1_000 + i,
                    &[("x", i as f64), ("y", -(i as f64))],
                )
            })
            .collect();

        let mut loop_env = MockEnv::new();
        let mut loop_op = build_operator(spec());
        for it in items.clone() {
            assert!(run_item(&mut loop_op, &mut loop_env, it).is_empty());
        }

        let mut batch_env = MockEnv::new();
        let mut batch_op = build_operator(spec());
        assert!(run_batch(&mut batch_op, &mut batch_env, items).is_empty());

        // Identical model state and per-item bookkeeping...
        assert_eq!(
            loop_op.model().unwrap().export_diff(),
            batch_op.model().unwrap().export_diff()
        );
        assert_eq!(batch_env.counter("trained"), 4);
        assert_eq!(batch_env.counter("train_batch_calls"), 1);
        assert_eq!(loop_env.latencies, batch_env.latencies);
        // ...but the batch charged the train cost once, not four times.
        assert!(batch_env.cpu_ms >= costs::TRAIN_BATCH_MS);
        assert!(loop_env.cpu_ms >= 4.0 * costs::TRAIN_BATCH_MS);
        assert!(batch_env.cpu_ms < loop_env.cpu_ms);
    }

    #[test]
    fn predict_batch_matches_per_item_loop() {
        let spec = || {
            OperatorSpec::through(
                "p",
                OperatorKind::Predict {
                    algorithm: "pa".into(),
                },
                vec!["flow/#".into()],
                "flow/r/p",
            )
        };
        // Give both models identical weights so classify produces labels.
        let mut teacher = AnyClassifier::by_name("pa");
        for i in 0..20 {
            let hot = Datum::new().with("x", 30.0 + i as f64);
            let cold = Datum::new().with("x", -5.0 - i as f64);
            teacher.train(&hot.to_vector(DEFAULT_DIMENSIONS), "hot");
            teacher.train(&cold.to_vector(DEFAULT_DIMENSIONS), "cold");
        }
        let import = ControlMsg::Mix(MixEnvelope {
            role: "avg".into(),
            task: "p".into(),
            diff: teacher.export_diff(),
        });
        let items: Vec<FlowItem> = (0..4)
            .map(|i| {
                let v = if i % 2 == 0 { 40.0 } else { -10.0 };
                item("flow/r/x", i, 2_000 + i, &[("x", v)])
            })
            .collect();

        let mut loop_env = MockEnv::new();
        let mut loop_op = build_operator(spec());
        assert!(run_control(&mut loop_op, &mut loop_env, &import).is_empty());
        let mut loop_out = Vec::new();
        for it in items.clone() {
            loop_out.extend(run_item(&mut loop_op, &mut loop_env, it));
        }

        let mut batch_env = MockEnv::new();
        let mut batch_op = build_operator(spec());
        assert!(run_control(&mut batch_op, &mut batch_env, &import).is_empty());
        let batch_out = run_batch(&mut batch_op, &mut batch_env, items);

        assert_eq!(loop_out, batch_out, "events and emits must be identical");
        assert!(batch_out
            .iter()
            .any(|o| matches!(o, OpOutput::Event(NodeEvent::Prediction { label: Some(l), .. }) if l == "hot")));
        assert_eq!(batch_env.counter("predicted"), 4);
        assert_eq!(batch_env.counter("predict_batch_calls"), 1);
        assert_eq!(loop_env.latencies, batch_env.latencies);
        assert!(batch_env.cpu_ms < loop_env.cpu_ms);
    }

    #[test]
    fn predict_emits_event_and_message() {
        let mut env = MockEnv::new();
        let mut op = build_operator(OperatorSpec::through(
            "p",
            OperatorKind::Predict {
                algorithm: "pa".into(),
            },
            vec!["flow/#".into()],
            "flow/r/p",
        ));
        let out = run_item(&mut op, &mut env, item("flow/r/x", 1, 0, &[("x", 1.0)]));
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0],
            OpOutput::Event(NodeEvent::Prediction { .. })
        ));
        assert!(matches!(out[1], OpOutput::Emit(_)));
        assert_eq!(env.latencies[0].0, "sensing_to_predicting");
    }

    #[test]
    fn anomaly_flags_only_above_threshold() {
        let mut env = MockEnv::new();
        let mut op = build_operator(OperatorSpec::through(
            "a",
            OperatorKind::Anomaly {
                detector: "zscore".into(),
                threshold: 3.0,
            },
            vec!["sensor/#".into()],
            "flow/r/a",
        ));
        for i in 0..50 {
            let out = run_item(
                &mut op,
                &mut env,
                item("sensor/1/t", i, 0, &[("t", 20.0 + (i % 3) as f64 * 0.1)]),
            );
            assert!(out.is_empty(), "normal values must not flag");
        }
        let out = run_item(
            &mut op,
            &mut env,
            item("sensor/1/t", 99, 0, &[("t", 500.0)]),
        );
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0],
            OpOutput::Event(NodeEvent::AnomalyFlagged { score, .. }) if score > 3.0
        ));
        assert_eq!(env.counter("anomaly_flagged"), 1);
    }

    /// A level shift is flagged, then absorbed: the guard releases after
    /// `GUARD_RELEASE_RUN` consecutive flags and the operator goes quiet
    /// on the new level instead of flagging it for ever.
    #[test]
    fn anomaly_rebaselines_after_a_level_shift() {
        use ifot_ml::anomaly::GUARD_RELEASE_RUN;
        let mut env = MockEnv::new();
        let mut op = build_operator(OperatorSpec::sink(
            "a",
            OperatorKind::Anomaly {
                detector: "zscore".into(),
                threshold: 4.0,
            },
            vec!["sensor/#".into()],
        ));
        let mut feed = |op: &mut Op, i: u64, level: f64| {
            let t = level + (i % 5) as f64 * 0.1;
            !run_item(op, &mut env, item("sensor/1/t", i, 0, &[("t", t)])).is_empty()
        };
        for i in 0..100 {
            assert!(!feed(&mut op, i, 20.0), "steady level must not flag");
        }
        let flags_after_shift: Vec<bool> = (100..400).map(|i| feed(&mut op, i, 30.0)).collect();
        let release = GUARD_RELEASE_RUN as usize;
        assert!(
            flags_after_shift[..release].iter().all(|&f| f),
            "the shift is flagged while the guard withholds it"
        );
        let last_flag = flags_after_shift
            .iter()
            .rposition(|&f| f)
            .expect("flagged above");
        assert!(
            last_flag < 2 * release,
            "still flagging {last_flag} samples into the new level"
        );
    }

    #[test]
    fn estimate_fuses_with_ewma() {
        let mut env = MockEnv::new();
        let mut op = build_operator(OperatorSpec::through(
            "e",
            OperatorKind::Estimate {
                model: "comfort".into(),
            },
            vec!["flow/#".into()],
            "flow/r/e",
        ));
        let out1 = run_item(&mut op, &mut env, item("flow/r/x", 1, 0, &[("x", 10.0)]));
        let v1 = match &out1[0] {
            OpOutput::Event(NodeEvent::EstimateUpdated { value, .. }) => *value,
            other => panic!("expected estimate event, got {other:?}"),
        };
        assert_eq!(v1, 10.0);
        let out2 = run_item(&mut op, &mut env, item("flow/r/x", 2, 0, &[("x", 0.0)]));
        match &out2[1] {
            OpOutput::Emit(m) => {
                let fused = m.score.expect("estimate score");
                assert!(fused < 10.0 && fused > 0.0);
                assert!(m.datum.get("estimate_comfort").is_some());
            }
            other => panic!("expected emit, got {other:?}"),
        }
    }

    #[test]
    fn policy_applies_hysteresis() {
        let mut env = MockEnv::new();
        let mut op = build_operator(OperatorSpec::through(
            "pol",
            OperatorKind::Policy {
                key: "comfort".into(),
                on_above: 10.0,
                off_below: 5.0,
                emit: "power".into(),
            },
            vec!["flow/#".into()],
            "flow/r/pol",
        ));
        // Below both thresholds with no prior state: no decision.
        assert!(run_item(
            &mut op,
            &mut env,
            item("flow/r/e", 1, 0, &[("comfort", 7.0)])
        )
        .is_empty());
        // Crossing on_above: ON decision.
        let out = run_item(
            &mut op,
            &mut env,
            item("flow/r/e", 2, 0, &[("comfort", 12.0)]),
        );
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], OpOutput::Emit(m) if m.datum.get("power") == Some(1.0)));
        // Still above off_below: hysteresis holds, no repeat decision.
        assert!(run_item(
            &mut op,
            &mut env,
            item("flow/r/e", 3, 0, &[("comfort", 7.0)])
        )
        .is_empty());
        assert!(run_item(
            &mut op,
            &mut env,
            item("flow/r/e", 4, 0, &[("comfort", 11.0)])
        )
        .is_empty());
        // Dropping below off_below: OFF decision.
        let out = run_item(
            &mut op,
            &mut env,
            item("flow/r/e", 5, 0, &[("comfort", 2.0)]),
        );
        assert!(matches!(&out[0], OpOutput::Emit(m) if m.datum.get("power") == Some(0.0)));
        assert_eq!(env.counter("policy_decisions"), 2);
        assert!(op.describe().contains("policy[pol]"));
    }

    #[test]
    fn policy_reads_score_field() {
        let mut env = MockEnv::new();
        let mut op = build_operator(OperatorSpec::through(
            "pol",
            OperatorKind::Policy {
                key: "score".into(),
                on_above: 0.5,
                off_below: 0.2,
                emit: "level".into(),
            },
            vec!["flow/#".into()],
            "flow/r/pol",
        ));
        let mut scored = item("flow/r/e", 1, 0, &[]);
        scored.score = Some(0.9);
        let out = run_item(&mut op, &mut env, scored);
        assert!(matches!(&out[0], OpOutput::Emit(m) if m.datum.get("level") == Some(1.0)));
    }

    #[test]
    fn actuate_maps_datum_keys_to_commands() {
        let mut env = MockEnv::new();
        let mut op = build_operator(OperatorSpec::sink(
            "act",
            OperatorKind::Actuate { device_id: 7 },
            vec!["flow/#".into()],
        ));
        let out = run_item(&mut op, &mut env, item("flow/r/d", 1, 0, &[("power", 1.0)]));
        assert_eq!(
            out,
            vec![OpOutput::Command {
                device_id: 7,
                command: Command::SetPower { on: true }
            }]
        );
        let out = run_item(&mut op, &mut env, item("flow/r/d", 2, 0, &[("level", 0.4)]));
        assert!(matches!(
            out[0],
            OpOutput::Command {
                command: Command::SetLevel { level },
                ..
            } if level == 0.4
        ));
        // Labelled item becomes an alert.
        let mut alert_item = item("flow/r/d", 3, 0, &[]);
        alert_item.label = Some("anomaly".into());
        alert_item.score = Some(4.5);
        let out = run_item(&mut op, &mut env, alert_item);
        assert!(matches!(
            &out[0],
            OpOutput::Command {
                command: Command::Alert { severity: 2, .. },
                ..
            }
        ));
    }

    #[test]
    fn custom_passes_through() {
        let mut env = MockEnv::new();
        let mut op = build_operator(OperatorSpec::through(
            "c",
            OperatorKind::Custom {
                operator: "camera-monitoring".into(),
            },
            vec!["flow/#".into()],
            "flow/r/c",
        ));
        let out = run_item(&mut op, &mut env, item("flow/r/x", 1, 42, &[("x", 1.0)]));
        assert_eq!(out.len(), 1);
        assert!(matches!(&out[0], OpOutput::Emit(m) if m.origin_ts_ns == 42));
        assert_eq!(env.counter("custom_camera-monitoring"), 1);
    }

    #[test]
    fn mix_round_trips_through_coordinator() {
        let mut env = MockEnv::new();
        // Two trainers and one coordinator expecting two offers.
        let train_spec = |id: &str| {
            OperatorSpec::sink(
                id,
                OperatorKind::Train {
                    algorithm: "pa".into(),
                    mix_interval_ms: 500,
                },
                vec!["flow/#".into()],
            )
        };
        let spec = train_spec("t1");
        assert_eq!(spec.mix_period_ms(), Some(500));
        let mut t1 = build_operator(spec);
        let mut t2 = build_operator(train_spec("t2"));
        let mut coord = build_operator(OperatorSpec::sink(
            "coord",
            OperatorKind::MixCoordinator { expected: 2 },
            vec!["mix/#".into()],
        ));

        let _ = run_item(&mut t1, &mut env, item("flow/r/x", 1, 0, &[("x", 5.0)]));
        let _ = run_item(&mut t2, &mut env, item("flow/r/x", 1, 0, &[("x", -5.0)]));

        let offer1 = match &run_timer(&mut t1, &mut env, OpTimer::Mix)[0] {
            OpOutput::MixOffer(d) => d.clone(),
            other => panic!("expected offer, got {other:?}"),
        };
        let offer2 = match &run_timer(&mut t2, &mut env, OpTimer::Mix)[0] {
            OpOutput::MixOffer(d) => d.clone(),
            other => panic!("expected offer, got {other:?}"),
        };

        let env1 = ControlMsg::Mix(MixEnvelope {
            role: "offer".into(),
            task: "t".into(),
            diff: offer1,
        });
        assert!(run_control(&mut coord, &mut env, &env1).is_empty());
        let env2 = ControlMsg::Mix(MixEnvelope {
            role: "offer".into(),
            task: "t".into(),
            diff: offer2,
        });
        let out = run_control(&mut coord, &mut env, &env2);
        assert_eq!(out.len(), 2);
        assert!(matches!(
            out[0],
            OpOutput::Event(NodeEvent::MixRound { round: 1, .. })
        ));
        let avg = match &out[1] {
            OpOutput::MixAverage { diff, .. } => diff.clone(),
            other => panic!("expected average, got {other:?}"),
        };
        // Import back into a trainer.
        let import = ControlMsg::Mix(MixEnvelope {
            role: "avg".into(),
            task: "t".into(),
            diff: avg,
        });
        assert!(run_control(&mut t1, &mut env, &import).is_empty());
        assert_eq!(env.counter("mix_imports"), 1);
    }

    #[test]
    fn describe_is_informative() {
        let op = join3();
        assert!(op.describe().contains("join[agg]"));
    }
}
