//! The control-plane wire forms that used to be JSON documents: node
//! announcements (a frame kind of `ifot::core::wire`) and actuator
//! commands (a tagged layout of their own).
//!
//! Seeded sweeps on the property runner in `tests/common/check.rs` — a
//! failure prints the case seed that reproduces it — plus golden bytes, so
//! a layout change is a deliberate edit here.

mod common;

use common::check::{check, Gen};
use common::{hex, overflowing_length_at};

use ifot::core::discovery::{announce_topic, FlowDirectory, NodeAnnouncement, StreamInfo};
use ifot::sensors::actuator::Command;

const TEXTS: [&str; 6] = ["", "a", "sensor/1/sound", "転倒を検知", "é\u{0}\n", "x y z"];
const NUMBERS: [f64; 6] = [0.0, -0.0, 10.0, 0.1, f64::INFINITY, -7.25e300];

fn maybe<T>(g: &mut Gen, make: impl FnOnce(&mut Gen) -> T) -> Option<T> {
    (g.below(2) == 0).then(|| make(g))
}

fn announcement(g: &mut Gen) -> NodeAnnouncement {
    NodeAnnouncement {
        node: g.pick(&TEXTS).to_owned(),
        online: g.below(2) == 0,
        streams: g.vec(0, 4, |g| StreamInfo {
            topic: g.pick(&TEXTS).to_owned(),
            kind: maybe(g, |g| g.pick(&TEXTS).to_owned()),
            rate_hz: maybe(g, |g| g.pick(&NUMBERS)),
        }),
        capabilities: g.vec(0, 3, |g| g.pick(&TEXTS).to_owned()),
        at_ns: g.next_u64() >> g.below(64),
        revision: g.next_u64() >> g.below(64),
    }
}

fn command(g: &mut Gen) -> Command {
    match g.below(4) {
        0 => Command::SetPower {
            on: g.below(2) == 0,
        },
        1 => Command::SetLevel {
            level: g.pick(&NUMBERS),
        },
        2 => Command::SetTarget {
            celsius: g.pick(&NUMBERS),
        },
        _ => Command::Alert {
            severity: g.next_u64() as u8,
            message: g.pick(&TEXTS).to_owned(),
        },
    }
}

/// A value survives its frame; no strict prefix of the frame decodes; a
/// frame with one byte changed, or with an overflowing length spliced in
/// at any offset, decodes to an error or to some value, never a panic.
fn frame_case<T: PartialEq + std::fmt::Debug>(
    value: &T,
    frame: &[u8],
    decode: impl Fn(&[u8]) -> Result<T, String>,
    g: &mut Gen,
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
    longer.push(g.next_u64() as u8);
    if let Ok(bogus) = decode(&longer) {
        return Err(format!("{value:?} plus a byte decoded to {bogus:?}"));
    }
    for at in 0..frame.len() {
        let mut corrupt = frame.to_vec();
        corrupt[at] ^= 1 + g.below(255) as u8;
        let _ = decode(&corrupt);
        let _ = decode(&overflowing_length_at(frame, at));
    }
    Ok(())
}

#[test]
fn announcements_round_trip_and_reject_damage() {
    check("announcements_round_trip_and_reject_damage", 500, |g| {
        let ann = announcement(g);
        frame_case(&ann, &ann.encode(), NodeAnnouncement::decode, g)
            .unwrap_or_else(|e| panic!("{e}"));
    });
    // An unknown frame kind, a flow frame and the old JSON form are errors.
    assert!(NodeAnnouncement::decode(&[0xFB, 1, 0x7F]).is_err());
    assert!(NodeAnnouncement::decode(&[0xFB, 1, 0x01, 0]).is_err());
    assert!(NodeAnnouncement::decode(br#"{"node":"a","online":true}"#).is_err());
}

#[test]
fn commands_round_trip_and_reject_damage() {
    check("commands_round_trip_and_reject_damage", 500, |g| {
        let cmd = command(g);
        frame_case(&cmd, &cmd.encode(), Command::decode, g).unwrap_or_else(|e| panic!("{e}"));
    });
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
    check("stale_revisions_never_regress_the_directory", 500, |g| {
        let (first, second) = (g.below(4), g.below(4));
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
            at_ns: g.next_u64(),
            revision,
        };
        let mut dir = FlowDirectory::new();
        dir.apply(&announce_topic("n"), &make(1, first).encode());
        dir.apply(&announce_topic("n"), &make(2, second).encode());
        let kept = dir.node("n").expect("announced").streams.len();
        assert_eq!(kept, if second >= first { 2 } else { 1 });
        assert_eq!(dir.stale_count(), u64::from(second < first));
        dir.apply(
            &announce_topic("n"),
            &NodeAnnouncement::offline("n").encode(),
        );
        assert!(dir.online_nodes().is_empty());
        assert_eq!(dir.malformed_count(), 0);
        // `ifot/announce/n/load` is not a node, whichever name the frame
        // on it carries and however fresh it claims to be.
        let below = announce_topic("n/load");
        let mut nested = make(3, first.max(second) + 1);
        dir.apply(&below, &nested.encode());
        nested.node = "n/load".into();
        dir.apply(&below, &nested.encode());
        assert_eq!(dir.malformed_count(), 2);
        assert_eq!(dir.len(), 1);
        assert!(dir.online_nodes().is_empty());
    });
}
