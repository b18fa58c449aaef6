//! A checked-in corpus for the decoders of bytes that come from outside a
//! node: the flow wire, actuator commands, the broker's WAL and the MQTT
//! codec. Every entry, and every prefix of it, is fed to each of them, and
//! each must return a value or an error, never panic.
//!
//! Any input a never-panics property, a review or a report finds that
//! panics one of these decoders is added here, with a line saying what it
//! is, in the same change as the fix.

use std::panic::catch_unwind;

use ifot::core::wire;
use ifot::mqtt::{codec, wal};
use ifot::sensors::actuator::Command;

/// `(what it is, hex)`.
const CORPUS: &[(&str, &str)] = &[
    ("the empty input", ""),
    ("a lone frame magic", "fb"),
    (
        "a message whose producer claims 2^64 - 1 bytes, eight behind it",
        concat!("fb0101", "ffffffffffffffffff01", "0000000000000000"),
    ),
    (
        "a batch whose shared producer claims 2^64 - 1 bytes",
        concat!("fb0102", "ffffffffffffffffff01", "0000000000000000"),
    ),
    (
        "a mix envelope whose role claims 2^64 - 1 bytes",
        concat!("fb0103", "ffffffffffffffffff01", "0000000000000000"),
    ),
    (
        "an announcement whose node claims 2^64 - 1 bytes",
        concat!("fb0106", "ffffffffffffffffff01", "0000000000000000"),
    ),
    (
        "a message whose origin varint carries bits past 64",
        concat!("fb0101", "0170", "ffffffffffffffffff7f", "00000000"),
    ),
    (
        "a batch whose count varint carries bits past 64",
        concat!("fb0102", "0170", "ffffffffffffffffff7f"),
    ),
    (
        "a retired kind 0x04 frame (a node's load heartbeat)",
        "fb010401612a010770726564696374010401030a0180dac409",
    ),
    (
        "a retired kind 0x05 frame (a placement command)",
        "fb01050207707265646963740162",
    ),
    (
        "a WAL batch whose length claims 2^64 - 1 bytes",
        "ffffffffffffffffff01",
    ),
    ("an alert whose text claims 2^32 - 1 bytes", "0402ffffffff"),
    (
        "an MQTT PUBLISH whose topic length (a u16) runs past its body",
        "3004ffff6162",
    ),
    (
        "an MQTT PUBLISH whose remaining length claims 2^28 - 1 bytes, two behind it",
        "30ffffff7f0001",
    ),
    (
        "an MQTT SUBSCRIBE whose filter length overruns its body",
        "8206000100ff6101",
    ),
];

fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

/// Every decoder of outside bytes, on `input`; what each returns is not
/// looked at.
fn feed(input: &[u8]) {
    let _ = wire::decode_items("t", input);
    let _ = wire::decode_message_binary(input);
    let _ = wire::decode_batch_binary(input);
    let _ = wire::decode_mix_binary(input);
    let _ = wire::decode_announce_binary(input);
    let _ = wire::peek_first_origin(input);
    let _ = wire::peek_item_count(input);
    let _ = Command::decode(input);
    let _ = wal::parse_stream(input);
    let _ = codec::decode(input);
}

#[test]
fn no_decoder_of_outside_bytes_panics_on_the_corpus() {
    for (what, hex) in CORPUS {
        let input = unhex(hex);
        catch_unwind(|| {
            for end in 0..=input.len() {
                feed(&input[..end]);
            }
        })
        .unwrap_or_else(|_| panic!("{what} ({hex}) or a prefix of it panicked a decoder"));
    }
}
