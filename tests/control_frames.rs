//! The control-plane wire forms that used to be JSON documents: node
//! announcements (a frame kind of `ifot::core::wire`) and actuator
//! commands (a tagged layout of their own).
//!
//! Seed-driven sweeps in the style of `tests/flow_values.rs` — a failure
//! prints the seed that reproduces it — plus golden bytes, so a layout
//! change is a deliberate edit here.

mod common;

use common::{hex, pick, splitmix};

use ifot::core::discovery::{announce_topic, FlowDirectory, NodeAnnouncement, StreamInfo};
use ifot::sensors::actuator::Command;

const TEXTS: [&str; 6] = ["", "a", "sensor/1/sound", "転倒を検知", "é\u{0}\n", "x y z"];
const NUMBERS: [f64; 6] = [0.0, -0.0, 10.0, 0.1, f64::INFINITY, -7.25e300];

fn maybe<T>(rng: &mut u64, make: impl FnOnce(&mut u64) -> T) -> Option<T> {
    splitmix(rng).is_multiple_of(2).then(|| make(rng))
}

fn announcement(rng: &mut u64) -> NodeAnnouncement {
    NodeAnnouncement {
        node: pick(rng, &TEXTS).to_owned(),
        online: splitmix(rng).is_multiple_of(2),
        streams: (0..splitmix(rng) % 4)
            .map(|_| StreamInfo {
                topic: pick(rng, &TEXTS).to_owned(),
                kind: maybe(rng, |rng| pick(rng, &TEXTS).to_owned()),
                rate_hz: maybe(rng, |rng| pick(rng, &NUMBERS)),
            })
            .collect(),
        capabilities: (0..splitmix(rng) % 3)
            .map(|_| pick(rng, &TEXTS).to_owned())
            .collect(),
        at_ns: splitmix(rng) >> (splitmix(rng) % 64),
        revision: splitmix(rng) >> (splitmix(rng) % 64),
    }
}

fn command(rng: &mut u64) -> Command {
    match splitmix(rng) % 4 {
        0 => Command::SetPower {
            on: splitmix(rng).is_multiple_of(2),
        },
        1 => Command::SetLevel {
            level: pick(rng, &NUMBERS),
        },
        2 => Command::SetTarget {
            celsius: pick(rng, &NUMBERS),
        },
        _ => Command::Alert {
            severity: splitmix(rng) as u8,
            message: pick(rng, &TEXTS).to_owned(),
        },
    }
}

/// A value survives its frame; no strict prefix of the frame decodes; a
/// frame with one byte changed decodes to an error or to some value,
/// never a panic.
fn frame_case<T: PartialEq + std::fmt::Debug>(
    value: &T,
    frame: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, String>,
    rng: &mut u64,
) -> Result<(), String> {
    match decode(frame) {
        Ok(back) if back == *value => {}
        other => return Err(format!("{value:?} came back as {other:?}")),
    }
    for cut in 0..frame.len() {
        if let Ok(bogus) = decode(&frame[..cut]) {
            return Err(format!(
                "{cut}-byte prefix of {value:?} decoded to {bogus:?}"
            ));
        }
    }
    let mut longer = frame.to_vec();
    longer.push(splitmix(rng) as u8);
    if let Ok(bogus) = decode(&longer) {
        return Err(format!("{value:?} plus a byte decoded to {bogus:?}"));
    }
    for at in 0..frame.len() {
        let mut corrupt = frame.to_vec();
        corrupt[at] ^= 1 + (splitmix(rng) % 255) as u8;
        let _ = decode(&corrupt);
    }
    Ok(())
}

#[test]
fn announcements_round_trip_and_reject_damage() {
    for seed in 0..500u64 {
        let mut rng = seed;
        let ann = announcement(&mut rng);
        frame_case(&ann, &ann.encode(), NodeAnnouncement::decode, &mut rng)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    // An unknown frame kind, a flow frame and the old JSON form are errors.
    assert!(NodeAnnouncement::decode(&[0xFB, 1, 0x7F]).is_err());
    assert!(NodeAnnouncement::decode(&[0xFB, 1, 0x01, 0]).is_err());
    assert!(NodeAnnouncement::decode(br#"{"node":"a","online":true}"#).is_err());
}

#[test]
fn commands_round_trip_and_reject_damage() {
    for seed in 0..500u64 {
        let mut rng = seed;
        let cmd = command(&mut rng);
        frame_case(&cmd, &cmd.encode(), Command::decode, &mut rng)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }
    assert!(Command::decode(&[0]).is_err(), "tag 0 is unassigned");
    assert!(Command::decode(&[5, 0]).is_err(), "tag 5 is unassigned");
    assert!(Command::decode(&[1, 2]).is_err(), "power is 0 or 1");
    assert!(
        Command::decode(&[4, 0, 0, 0, 0, 1, 0xFF]).is_err(),
        "text is UTF-8"
    );
}

#[test]
fn layouts_are_pinned() {
    let ann = NodeAnnouncement {
        node: "kitchen".into(),
        online: true,
        streams: vec![
            StreamInfo {
                topic: "sensor/1/temperature".into(),
                kind: Some("temperature".into()),
                rate_hz: Some(10.0),
            },
            StreamInfo {
                topic: "flow/r/avg".into(),
                kind: None,
                rate_hz: None,
            },
        ],
        capabilities: vec!["sensor:temperature".into()],
        at_ns: 1_500_000_000,
        revision: 3,
    };
    assert_eq!(
        hex(&ann.encode()),
        "fb0106076b69746368656e0180dea0cb05030214\
         73656e736f722f312f74656d7065726174757265010b74656d706572617475726501\
         00000000000024400a666c6f772f722f61766700000112\
         73656e736f723a74656d7065726174757265"
    );
    assert_eq!(
        hex(&NodeAnnouncement::offline("a").encode()),
        "fb010601610000000000"
    );
    let commands = [
        (Command::SetPower { on: true }, "0101"),
        (Command::SetLevel { level: 0.5 }, "023fe0000000000000"),
        (Command::SetTarget { celsius: 21.0 }, "034035000000000000"),
        (
            Command::Alert {
                severity: 2,
                message: "転倒".into(),
            },
            "040200000006e8bba2e58092",
        ),
    ];
    for (command, golden) in commands {
        assert_eq!(hex(&command.encode()), golden, "{command:?}");
    }
}

/// `FlowDirectory` keeps whichever live announcement carries the higher
/// revision, whatever order the two arrive in, a tombstone always
/// applies, and nothing on a topic below the node's own touches it —
/// through the frame codec, as the node publishes them.
#[test]
fn stale_revisions_never_regress_the_directory() {
    for seed in 0..500u64 {
        let mut rng = seed;
        let (first, second) = (splitmix(&mut rng) % 4, splitmix(&mut rng) % 4);
        let mut make = |streams: usize, revision: u64| NodeAnnouncement {
            node: "n".into(),
            online: true,
            streams: vec![
                StreamInfo {
                    topic: "t".into(),
                    kind: None,
                    rate_hz: None,
                };
                streams
            ],
            capabilities: Vec::new(),
            at_ns: splitmix(&mut rng),
            revision,
        };
        let mut dir = FlowDirectory::new();
        dir.apply(&announce_topic("n"), &make(1, first).encode());
        dir.apply(&announce_topic("n"), &make(2, second).encode());
        let kept = dir.node("n").expect("announced").streams.len();
        assert_eq!(kept, if second >= first { 2 } else { 1 }, "seed {seed}");
        assert_eq!(dir.stale_count(), u64::from(second < first), "seed {seed}");
        dir.apply(
            &announce_topic("n"),
            &NodeAnnouncement::offline("n").encode(),
        );
        assert!(dir.online_nodes().is_empty(), "seed {seed}");
        assert_eq!(dir.malformed_count(), 0, "seed {seed}");
        // `ifot/announce/n/load` is not a node, whichever name the frame
        // on it carries and however fresh it claims to be.
        let below = announce_topic("n/load");
        let mut nested = make(3, first.max(second) + 1);
        dir.apply(&below, &nested.encode());
        nested.node = "n/load".into();
        dir.apply(&below, &nested.encode());
        assert_eq!(dir.malformed_count(), 2, "seed {seed}");
        assert_eq!(dir.len(), 1, "seed {seed}");
        assert!(dir.online_nodes().is_empty(), "seed {seed}");
    }
}
