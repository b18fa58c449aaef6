//! Flow items as values: the in-memory types changed, nothing observable
//! did.
//!
//! * `Datum` (a key-sorted small vector of cheap-clone keys) against the
//!   string-keyed map it replaced, kept as an oracle in `tests/common`:
//!   a seeded sweep over every way of building one, and `to_vector` bit
//!   for bit at dimensions that force collisions.
//! * `classify` (an argmax) against the head of `scores` (a sorted list),
//!   ties and the empty model included; model weights after a fixed
//!   training run against digests taken at the commit before the change.
//! * The binary flow frames against bytes taken at that same commit.
//!
//! The sweeps are seed-driven loops, not proptests, so they also run
//! against the vendored stubs; a failure prints the seed that reproduces
//! it. `tests/proptests.rs` mirrors them for the crates.io build.

mod common;

use common::oracle::MapDatum;
use common::{hex, pick, splitmix};

use ifot::core::flow::{FlowBatch, FlowItem, FlowMessage};
use ifot::core::wire::{
    decode_batch_binary, decode_items, decode_message_binary, encode_batch_binary,
    encode_message_binary,
};
use ifot::ml::classifier::{Arow, OnlineClassifier, PaVariant, PassiveAggressive, Perceptron};
use ifot::ml::feature::{Datum, FeatureKey, FeatureVector};
use ifot::ml::mix::LinearModel;

// ---------------------------------------------------------------------
// Datum against the map oracle
// ---------------------------------------------------------------------

/// Few enough keys that overwrites, inline → heap spills and (at small
/// dimensions) hash collisions all happen within a 24-step case.
const KEYS: [&str; 10] = [
    "accel_x",
    "accel_y",
    "accel_z",
    "sound_db",
    "temperature_celsius",
    "a",
    "b",
    "window_count",
    "",
    "é",
];

/// Values whose sum depends on the order they are added in, plus both
/// zeros (a collision sum starts from `+0.0`).
const VALUES: [f64; 8] = [0.0, -0.0, 1.0, 0.1, 1e16, -1e16, 3.5e-9, -7.25];

const DIMENSIONS: [u32; 4] = [1, 2, 7, 1 << 18];

/// A key as either of its two representations.
fn key(rng: &mut u64, name: &'static str) -> FeatureKey {
    if splitmix(rng).is_multiple_of(2) {
        FeatureKey::Static(name)
    } else {
        FeatureKey::from(name.to_owned())
    }
}

fn bits(pairs: impl Iterator<Item = (u32, f64)>) -> Vec<(u32, u64)> {
    pairs.map(|(i, v)| (i, v.to_bits())).collect()
}

/// Everything observable about `datum` equals the oracle's.
fn agree(datum: &Datum, oracle: &MapDatum) -> Result<(), String> {
    if datum.len() != oracle.len() || datum.is_empty() != (oracle.len() == 0) {
        return Err(format!("len {} vs {}", datum.len(), oracle.len()));
    }
    let got: Vec<(&str, u64)> = datum.iter().map(|(k, v)| (k, v.to_bits())).collect();
    let want: Vec<(&str, u64)> = oracle.iter().map(|(k, v)| (k, v.to_bits())).collect();
    if got != want {
        return Err(format!("iter {got:?} vs {want:?}"));
    }
    let keyed: Vec<&str> = datum.entries().map(|(k, _)| k.as_str()).collect();
    if keyed != got.iter().map(|(k, _)| *k).collect::<Vec<_>>() {
        return Err(format!("entries {keyed:?} disagree with iter"));
    }
    for name in KEYS {
        if datum.get(name).map(f64::to_bits) != oracle.get(name).map(f64::to_bits) {
            return Err(format!("get({name:?})"));
        }
    }
    for dimensions in DIMENSIONS {
        let got = bits(datum.to_vector(dimensions).iter());
        let want = bits(oracle.to_vector(dimensions).into_iter());
        if got != want {
            return Err(format!("to_vector({dimensions}) {got:?} vs {want:?}"));
        }
    }
    Ok(())
}

/// One case: a random sequence of the ways a datum is built and copied,
/// checked against the oracle after every step.
fn datum_case(seed: u64) -> Result<(), String> {
    let mut rng = seed;
    let mut datum = Datum::new();
    let mut oracle = MapDatum::default();
    for step in 0..1 + splitmix(&mut rng) % 24 {
        match splitmix(&mut rng) % 6 {
            0..=2 => {
                let (name, value) = (pick(&mut rng, &KEYS), pick(&mut rng, &VALUES));
                datum.set(key(&mut rng, name), value);
                oracle.set(name, value);
            }
            3 => {
                let pairs: Vec<(&'static str, f64)> = (0..splitmix(&mut rng) % 5)
                    .map(|_| (pick(&mut rng, &KEYS), pick(&mut rng, &VALUES)))
                    .collect();
                datum.extend(pairs.iter().map(|(k, v)| (k.to_string(), *v)));
                oracle.extend(pairs.iter().copied());
            }
            4 => {
                // Rebuilt from its own pairs, in reverse: same datum.
                let mut pairs: Vec<(FeatureKey, f64)> =
                    datum.entries().map(|(k, v)| (k.clone(), v)).collect();
                pairs.reverse();
                let rebuilt: Datum = pairs.into_iter().collect();
                if rebuilt != datum {
                    return Err(format!(
                        "step {step}: FromIterator {rebuilt:?} vs {datum:?}"
                    ));
                }
            }
            _ => {
                // A clone is equal and independent.
                let mut copy = datum.clone();
                if copy != datum {
                    return Err(format!("step {step}: clone differs"));
                }
                copy.set("only_in_the_copy", 1.0);
                if copy == datum || datum.get("only_in_the_copy").is_some() {
                    return Err(format!("step {step}: clone shares state"));
                }
            }
        }
        agree(&datum, &oracle).map_err(|e| format!("step {step}: {e}"))?;
    }
    Ok(())
}

#[test]
fn datum_matches_the_map_oracle_over_a_seeded_sweep() {
    for seed in 0..2_000 {
        if let Err(e) = datum_case(seed) {
            panic!("seed {seed}: {e}");
        }
    }
}

#[test]
fn a_flow_item_is_a_small_value() {
    // Three features inline, the rest of the item beside them: moving an
    // item between stages moves this many bytes and nothing else.
    assert!(
        std::mem::size_of::<FlowItem>() <= 256,
        "FlowItem is {} bytes",
        std::mem::size_of::<FlowItem>()
    );
}

// ---------------------------------------------------------------------
// classify against scores, and the models against the parent commit
// ---------------------------------------------------------------------

const LABELS: [&str; 4] = ["high", "low", "mid", "none"];

/// A small sparse vector with integer-valued entries (exact score ties
/// are common) or, every fourth draw, fractional ones.
fn vector(rng: &mut u64) -> FeatureVector {
    let n = splitmix(rng) % 4;
    let fractional = splitmix(rng).is_multiple_of(4);
    FeatureVector::from_pairs((0..n).map(|_| {
        let index = (splitmix(rng) % 6) as u32;
        let v = (splitmix(rng) % 7) as f64 - 3.0;
        (index, if fractional { v * 0.37 } else { v })
    }))
}

/// `classify(x)` is `scores(x)[0].label`, on the zero vector and two
/// random ones.
fn head_agrees(model: &impl OnlineClassifier, rng: &mut u64) -> Result<(), String> {
    for x in [FeatureVector::default(), vector(rng), vector(rng)] {
        let got = model.classify(&x);
        let want = model.scores(&x).into_iter().next().map(|s| s.label);
        if got != want {
            return Err(format!("classify {got:?}, scores[0] {want:?}, x {x:?}"));
        }
    }
    Ok(())
}

/// From the empty model on, through labels that exist without weights
/// (an all-way tie at zero) and every state a training run passes
/// through.
fn classify_case(mut model: impl OnlineClassifier, seed: u64) -> Result<(), String> {
    let mut rng = seed;
    if model.classify(&vector(&mut rng)).is_some() {
        return Err("the empty model classified".to_owned());
    }
    head_agrees(&model, &mut rng)?;
    for label in ["mid", "high"] {
        model.train(&FeatureVector::default(), label);
    }
    head_agrees(&model, &mut rng)?;
    for step in 0..60 {
        let x = vector(&mut rng);
        model.train(&x, pick(&mut rng, &LABELS));
        head_agrees(&model, &mut rng).map_err(|e| format!("step {step}: {e}"))?;
    }
    Ok(())
}

#[test]
fn classify_is_the_head_of_scores_for_every_learner() {
    for seed in 0..200 {
        let outcome = classify_case(Perceptron::new(), seed)
            .and_then(|()| classify_case(PassiveAggressive::default(), seed))
            .and_then(|()| classify_case(PassiveAggressive::new(PaVariant::Pa, 1.0), seed))
            .and_then(|()| classify_case(Arow::default(), seed));
        if let Err(e) = outcome {
            panic!("seed {seed}: {e}");
        }
    }
}

/// FNV-1a over the exported weights: labels, indices and value bits.
fn weights_digest(model: &impl LinearModel) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            hash = (hash ^ u64::from(*b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for (label, weights) in model.export_diff().iter() {
        eat(label.as_bytes());
        for (index, value) in weights.iter() {
            eat(&index.to_le_bytes());
            eat(&value.to_bits().to_le_bytes());
        }
    }
    hash
}

fn trained(mut model: impl OnlineClassifier, seed: u64) -> u64 {
    let mut rng = seed;
    for _ in 0..400 {
        let x = vector(&mut rng);
        model.train(&x, pick(&mut rng, &LABELS));
    }
    weights_digest(&model)
}

#[test]
fn training_leaves_the_weights_the_parent_commit_left() {
    // Digests printed by this same run at commit 220e9ae, where `train`
    // looked its labels up by owned `String`.
    assert_eq!(trained(Perceptron::new(), 1), 0xc302_0328_a21b_b9d7);
    assert_eq!(
        trained(PassiveAggressive::new(PaVariant::Pa, 1.0), 2),
        0x9dc6_d55b_6666_c3f3
    );
    assert_eq!(
        trained(PassiveAggressive::default(), 3),
        0xdbc3_cbb6_d91c_46c3
    );
    assert_eq!(
        trained(PassiveAggressive::new(PaVariant::PaII, 0.5), 4),
        0x5248_03d9_4ea1_a5c7
    );
    assert_eq!(trained(Arow::default(), 5), 0xc200_f05a_9aad_73e4);
}

// ---------------------------------------------------------------------
// The binary flow frames, frozen
// ---------------------------------------------------------------------

/// A single-sensor sample, a nine-key join over every sensor kind (with
/// a negative zero), a labelled and scored prediction, and an edge case
/// (own producer, empty datum, empty label, extreme seq and score).
fn fixed_messages() -> Vec<FlowMessage> {
    let joined = Datum::new()
        .with("accel_x", 0.25)
        .with("accel_y", -9.81)
        .with("accel_z", 1.5e-3)
        .with("humidity_percent", 40.5)
        .with("illuminance_lux", 312.0)
        .with("motion_level", 0.0)
        .with("personflow_count", 17.0)
        .with("sound_db", 42.5)
        .with("temperature_celsius", -0.0);
    vec![
        FlowMessage {
            producer: "edge".into(),
            origin_ts_ns: 1_700_000_000_123,
            seq: 41,
            datum: Datum::new().with("temperature_celsius", 21.5),
            label: None,
            score: None,
        },
        FlowMessage {
            producer: "edge".into(),
            origin_ts_ns: 1_700_000_000_023,
            seq: 42,
            datum: joined,
            label: None,
            score: None,
        },
        FlowMessage {
            producer: "edge".into(),
            origin_ts_ns: 1_700_000_050_000,
            seq: 43,
            datum: Datum::new()
                .with("sound_db", 61.25)
                .with("illuminance_lux", 5.0),
            label: Some("high".into()),
            score: Some(0.75),
        },
        FlowMessage {
            producer: "predict-β".into(),
            origin_ts_ns: 7,
            seq: u64::MAX,
            datum: Datum::new(),
            label: Some(String::new()),
            score: Some(f64::NEG_INFINITY),
        },
    ]
}

/// `encode_message_binary` of each fixed message at commit 220e9ae.
const MESSAGE_FRAMES: [&str; 4] = [
    "fb01010465646765fbd095ffbc3129011374656d70657261747572655f63656c7369757300000000008035400000",
    "fb0101046564676597d095ffbc312a0907616363656c5f78000000000000d03f07616363656c5f791f85eb51b89e23c007616363656c5f7afa7e6abc7493583f1068756d69646974795f70657263656e7400000000004044400f696c6c756d696e616e63655f6c757800000000008073400c6d6f74696f6e5f6c6576656c000000000000000010706572736f6e666c6f775f636f756e74000000000000314008736f756e645f646200000000004045401374656d70657261747572655f63656c7369757300000000000000800000",
    "fb01010465646765d0d698ffbc312b020f696c6c756d696e616e63655f6c7578000000000000144008736f756e645f64620000000000a04e4001046869676801000000000000e83f",
    "fb01010a707265646963742dceb207ffffffffffffffffff0100010001000000000000f0ff",
];

/// `encode_batch_binary` of the four as one batch at commit 220e9ae (the
/// last item carries its own producer).
const BATCH_FRAME: &str = "fb0102046564676504091374656d70657261747572655f63656c7369757307616363656c5f7807616363656c5f7907616363656c5f7a1068756d69646974795f70657263656e740f696c6c756d696e616e63655f6c75780c6d6f74696f6e5f6c6576656c10706572736f6e666c6f775f636f756e7408736f756e645f6462fbd095ffbc312900000001000000000000803540000000c701020901000000000000d03f021f85eb51b89e23c003fa7e6abc7493583f040000000000404440050000000000807340060000000000000000070000000000003140080000000000404540000000000000000080000000f28c060202050000000000001440080000000000a04e4001046869676801000000000000e83f010a707265646963742dceb291adb1fef9625700010001000000000000f0ff";

#[test]
fn binary_frames_are_the_parent_commits_byte_for_byte() {
    let messages = fixed_messages();
    for (message, golden) in messages.iter().zip(MESSAGE_FRAMES) {
        assert_eq!(hex(&encode_message_binary(message)), golden);
    }
    let batch = FlowBatch { items: messages };
    assert_eq!(hex(&encode_batch_binary(&batch)), BATCH_FRAME);
}

#[test]
fn decoding_then_encoding_a_frame_gives_the_frame_back() {
    let messages = fixed_messages();
    for message in &messages {
        let frame = encode_message_binary(message);
        let back = decode_message_binary(&frame).expect("own frame decodes");
        assert_eq!(&back, message);
        assert_eq!(encode_message_binary(&back), frame);
    }
    let frame = encode_batch_binary(&FlowBatch {
        items: messages.clone(),
    });
    let back = decode_batch_binary(&frame).expect("own frame decodes");
    assert_eq!(back.items, messages);
    assert_eq!(encode_batch_binary(&back), frame);
    // The item path reads the same frame without the message detour.
    let items = decode_items("flow/paper/join", &frame).expect("own frame decodes");
    let expected: Vec<FlowItem> = messages
        .into_iter()
        .map(|m| FlowItem::from_message("flow/paper/join", m))
        .collect();
    assert_eq!(items, expected);
}
