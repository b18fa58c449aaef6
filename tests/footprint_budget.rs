//! What a node holds, as a gate: live bytes must not grow with the items
//! it has processed.
//!
//! Two hubs are stepped on one thread in virtual time with their edge
//! node, through an environment that allocates nothing itself
//! (`tests/common/pair.rs`), under an allocator that counts the current
//! thread's live bytes: the Fig. 9 hub (`paper_flow_rt`'s join → train +
//! predict) and the `chain_batched_rt` hub (a batch-32 edge into three
//! custom stages and four sequence-sharded predict replicas, run inline).
//! Each runs past the event log's cap, then as far again; the live bytes
//! the second stretch added, per prediction, must be ≈ 0. The first piece
//! of ROADMAP item 11 — the node's half; DESIGN.md §5 "What a node holds"
//! lists every collection traffic can grow and its bound. The broker's
//! half starts with one slope: the live bytes a subscription costs a
//! 4-shard `ShardedBroker`. A publishing client's kept frames have a bound
//! of their own. Run it as CI does:
//!
//! ```text
//! cargo test --release --test footprint_budget
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ifot::core::config::NodeConfig;
use ifot::core::node::EVENT_LOG_CAP;
use ifot::core::operators::NodeEvent;
use ifot::mqtt::broker::BrokerConfig;
use ifot::mqtt::client::{Client, ClientConfig};
use ifot::mqtt::packet::{
    Connack, Connect, ConnectReturnCode, Packet, Publish, QoS, Subscribe, SubscribeFilter,
};
use ifot::mqtt::shard::{shard_of, ShardedBroker};
use ifot::mqtt::topic::{TopicFilter, TopicName};

mod common;

use common::pair::{chain_batched_pair, fig9_pair, Pair, HUB};

thread_local! {
    /// Bytes the current thread has allocated and not freed: the nodes
    /// are built, stepped and dropped on the test's own thread.
    static LIVE: Cell<i64> = const { Cell::new(0) };
}

struct LiveBytes;

fn note(delta: i64) {
    // `try_with`: a thread that is tearing its locals down still allocates.
    let _ = LIVE.try_with(|c| c.set(c.get() + delta));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a thread-local
// statistic and publishes no other data.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as received.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note(layout.size() as i64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's layout is passed through as received.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note(layout.size() as i64);
        }
        ptr
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, passed through as received.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            note(new_size as i64 - layout.size() as i64);
        }
        new
    }
}

#[global_allocator]
static ALLOC: LiveBytes = LiveBytes;

fn live_bytes() -> i64 {
    LIVE.with(Cell::get)
}

/// Predictions per stretch: the first takes the event log past its cap.
const STRETCH: u64 = 70_000;

/// Live bytes a hub may add per prediction once it is warm.
const SLOPE_BUDGET: f64 = 1.0;

/// Predictions the hub has made: these hubs log nothing else.
fn predictions(pair: &Pair) -> u64 {
    let hub = &pair.nodes[HUB];
    hub.events().len() as u64 + hub.events_evicted()
}

/// Steps the pair through two stretches of [`STRETCH`] predictions and
/// fails if the second added more than [`SLOPE_BUDGET`] live bytes per
/// prediction; then checks the hub's log is full, of predictions only,
/// and that every prediction past the cap evicted one.
fn assert_flat(hub: &str, configs: [NodeConfig; 2]) {
    let mut pair = Pair::start(configs);
    pair.run_until(|p| predictions(p) >= STRETCH);
    let (live1, predicted1) = (live_bytes(), predictions(&pair));
    pair.run_until(|p| predictions(p) >= predicted1 + STRETCH);
    let (live2, predicted2) = (live_bytes(), predictions(&pair));
    let slope = (live2 - live1) as f64 / (predicted2 - predicted1) as f64;
    println!(
        "{hub}: live bytes {live1} after {predicted1} predictions, {live2} after \
         {predicted2}: {slope:+.3} B per prediction"
    );
    assert!(
        slope <= SLOPE_BUDGET,
        "the {hub} hub's live bytes grow {slope:.1} B per prediction (budget {SLOPE_BUDGET})"
    );

    let node = &pair.nodes[HUB];
    assert_eq!(node.events().len(), EVENT_LOG_CAP);
    assert_eq!(node.events_evicted(), predicted2 - EVENT_LOG_CAP as u64);
    assert!(node
        .events()
        .iter()
        .all(|e| matches!(e, NodeEvent::Prediction { .. })));
}

#[test]
fn the_fig9_hub_holds_no_bytes_per_prediction() {
    assert_flat("Fig. 9", fig9_pair(1_000.0));
}

#[test]
fn the_chain_batched_hub_holds_no_bytes_per_prediction() {
    assert_flat("chain_batched", chain_batched_pair());
}

/// The event log's bound is `EVENT_LOG_CAP` events of this size, plus
/// their label strings: 2^16 × 48 B = 3 MiB.
#[test]
fn a_logged_event_is_48_bytes() {
    assert_eq!(std::mem::size_of::<NodeEvent>(), 48);
}

/// The entries of the lists a node keeps for its batches: a runner's
/// spare lists bound their room in flow items, a pool's output return
/// stack in outputs (DESIGN.md §5, "What a node holds").
#[test]
fn a_flow_item_and_an_output_are_176_bytes() {
    assert_eq!(std::mem::size_of::<ifot::core::flow::FlowItem>(), 176);
    assert_eq!(std::mem::size_of::<ifot::core::operators::OpOutput>(), 176);
}

/// A `Publish` is what a `TcpBroker` preallocates its loops' channel slots
/// for (1 024 per loop), so each byte it grows is 1 KiB per loop before a
/// single message (32 more were 128 KiB at four loops). It carries the
/// delivery head of a QoS 1/2 publish in the field that holds the QoS 0
/// frame, not beside it. A `Bytes` is an `Arc<[u8]>` and its view's range.
#[test]
fn a_publish_is_88_bytes_and_a_buffer_32() {
    assert_eq!(std::mem::size_of::<ifot::mqtt::packet::Publish>(), 88);
    assert_eq!(std::mem::size_of::<bytes::Bytes>(), 32);
}

/// An `OutFrame` is one entry of a connection's outbound queue: its
/// largest form is a QoS 1/2 delivery (two `Bytes` and a packet id). The
/// four bytes of a fixed-size packet held inline fit beside the
/// discriminant and do not grow it.
#[test]
fn a_queued_frame_is_72_bytes() {
    assert_eq!(std::mem::size_of::<ifot::mqtt::codec::OutFrame>(), 72);
}

/// Subscribers in the broker footprint gate, one filter each.
const SUBSCRIBERS: u32 = 1_000;

/// Live bytes one subscription may cost a 4-shard `ShardedBroker`:
/// measured 1 209.2, + 10 % (2 249.9 while each shard's broker kept its
/// own trie beside the shared index; 6 243.0 while each of the four
/// shards kept a replica of every subscription, beside a master copy and
/// a mutation log).
const SUBSCRIPTION_BUDGET: f64 = 1_330.0;

/// What a subscription costs the broker's memory, as a gate — the first
/// of ROADMAP item 11's broker slopes. A 4-shard `ShardedBroker` lists
/// each subscription in its session (what the WAL snapshots and a session
/// clear reads) and holds it as one entry of the one trie every shard
/// routes by, the shared index. The bytes the 1 000 subscriptions add,
/// with one publish from every shard after them, are divided by their
/// number.
#[test]
fn a_subscription_costs_a_four_shard_broker_one_trie_entry() {
    const SHARDS: usize = 4;
    let broker: ShardedBroker<u32> = ShardedBroker::new(BrokerConfig {
        shards: SHARDS,
        ..BrokerConfig::default()
    });
    let connect = |conn: u32, id: String| {
        broker.connection_opened(conn, 0);
        broker.resolve(
            broker.handle_packet(&conn, Packet::Connect(Connect::new(id)), 0),
            0,
        );
    };
    for i in 0..SUBSCRIBERS {
        connect(i, format!("sub-{i}"));
    }
    // One publisher on every shard.
    let publishers: Vec<u32> = (0..SHARDS)
        .map(|shard| {
            let id = (0..)
                .map(|n| format!("pub-{n}"))
                .find(|id| shard_of(id, SHARDS) == shard)
                .expect("some id lands on every shard");
            let conn = SUBSCRIBERS + shard as u32;
            connect(conn, id);
            conn
        })
        .collect();
    let publish_from_every_shard = |now: u64| {
        for (shard, conn) in publishers.iter().enumerate() {
            let name = TopicName::new(format!("sensor/{shard}/sound")).expect("valid topic");
            let publish = Packet::Publish(Publish::qos0(name, vec![7u8; 32]));
            broker.resolve(broker.handle_packet(conn, publish, now), now);
        }
    };
    publish_from_every_shard(1);

    let before = live_bytes();
    for i in 0..SUBSCRIBERS {
        let subscribe = Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![SubscribeFilter {
                filter: TopicFilter::new(format!("sensor/{i}/+")).expect("valid filter"),
                qos: QoS::AtMostOnce,
            }],
        });
        broker.resolve(broker.handle_packet(&i, subscribe, 2), 2);
    }
    publish_from_every_shard(3);
    let per_subscription = (live_bytes() - before) as f64 / f64::from(SUBSCRIBERS);
    println!("a 4-shard broker holds {per_subscription:.1} B per subscription");
    assert!(
        per_subscription <= SUBSCRIPTION_BUDGET,
        "{per_subscription:.1} B per subscription (budget {SUBSCRIPTION_BUDGET})"
    );
}

/// What a client's kept frames may hold: `FRAME_KEEP_BYTES` (64 KiB) of
/// frame buffers, each behind its `Arc`'s two counts, and queue slots,
/// with room to spare — the bound of the ring of 32 frames of at most 2
/// KiB that the queue replaced.
const KEPT_FRAMES_BOUND: i64 = 32 * (2_048 + 16);

/// A publishing client keeps the frames it sent to write later ones
/// into, and that is bounded: a frame past 2 KiB is not kept, so a
/// client that published a 1 MiB payload holds none of it once the frame
/// is let go of; and however many frames it published while all were
/// held — 64 of 2 KiB, or 2 000 Fig. 9 frames of 72 B — what it keeps
/// stays within the bound.
#[test]
fn a_publishing_client_keeps_a_byte_bounded_queue_of_small_frames() {
    let connack = Packet::Connack(Connack {
        session_present: false,
        code: ConnectReturnCode::Accepted,
    });
    let connected = || {
        let mut client = Client::new("edge", ClientConfig::default());
        client.connect().expect("first connect");
        client.handle_packet(connack.clone(), 0).expect("accepted");
        client
    };
    let mut client = connected();
    let name = TopicName::new("bulk/upload").expect("valid topic");

    let big = vec![7u8; 1 << 20];
    let payload = vec![7u8; 2_048 - 16];
    let before = live_bytes();
    let frame = client
        .publish_frame(&name, &big, QoS::AtMostOnce, false, 1)
        .expect("connected");
    assert!(
        live_bytes() - before > 1 << 20,
        "the frame holds the payload"
    );
    drop(frame);
    let kept_big = live_bytes() - before;
    assert!(kept_big <= 0, "{kept_big} B of a 1 MiB frame kept");

    // Frames of exactly 2 KiB, all held until the last is sent: each is a
    // buffer of its own, and the client keeps the last 31.
    let frames: Vec<_> = (0..64)
        .map(|now| {
            client
                .publish_frame(&name, &payload, QoS::AtMostOnce, false, now)
                .expect("connected")
        })
        .collect();
    assert!(frames.iter().all(|f| f.len() == 2_048));
    drop(frames);
    let kept = live_bytes() - before;

    // Fig. 9 frames, 2 000 held: the client keeps the last 512.
    let mut client = connected();
    let name = TopicName::new("sensor/1/temperature").expect("valid topic");
    let before_small = live_bytes();
    let frames: Vec<_> = (0..2_000)
        .map(|now| {
            client
                .publish_frame(&name, &[7u8; 48], QoS::AtMostOnce, false, now)
                .expect("connected")
        })
        .collect();
    assert!(frames.iter().all(|f| f.len() == 72));
    drop(frames);
    let kept_small = live_bytes() - before_small;
    // Printed last: a captured `println!` allocates.
    println!(
        "the client holds {kept_big} B more after a 1 MiB publish, \
         {kept} B after 64 frames of 2 KiB, {kept_small} B after 2 000 frames of 72 B"
    );
    for kept in [kept, kept_small] {
        assert!(
            kept <= KEPT_FRAMES_BOUND,
            "{kept} B kept, bound {KEPT_FRAMES_BOUND}"
        );
    }
}
