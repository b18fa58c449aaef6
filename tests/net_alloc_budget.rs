//! Allocation budget of the TCP broker, as a gate: what one delivery costs
//! a live [`TcpBroker`] on loopback, sockets, poller, shards, write-ahead
//! log and all.
//!
//! This file is a process of its own with a process-wide counting
//! allocator, and its clients are raw `TcpStream`s that replay frames
//! encoded beforehand and read into a fixed array — they allocate nothing
//! inside a measured window, so the process-wide count *is* the broker's.
//! The load is a closed loop of one publish at a time: every loop turn
//! carries about one packet, the case in which nothing amortises.
//!
//! Both shapes run from one `#[test]`, one after the other: two tests would
//! share the counter. Run it as CI does:
//!
//! ```text
//! cargo test --release --test net_alloc_budget
//! scripts/offline_check.sh test --release --test net_alloc_budget
//! ```

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use bytes::Bytes;

use ifot::mqtt::broker::BrokerConfig;
use ifot::mqtt::codec::encode;
use ifot::mqtt::net::TcpBroker;
use ifot::mqtt::packet::{Connect, Packet, Publish, QoS, Subscribe, SubscribeFilter};
use ifot::mqtt::shard::shard_of;
use ifot::mqtt::topic::{TopicFilter, TopicName};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a statistic and
// publishes no other data, hence `Relaxed`.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this layout (see `alloc`).
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's layout is passed through as received.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is
        // the caller's, passed through as received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const SHARDS: usize = 4;
const PAYLOAD: usize = 32;

/// The traffic of one gate.
struct Shape {
    name: &'static str,
    qos: QoS,
    /// Subscribers on `sensor/#`: every publish reaches each of them.
    fanout: usize,
    topics: usize,
    warmup: usize,
    measured: usize,
    /// Persistent sessions over a file-backed write-ahead log.
    durable: bool,
}

/// A client id `{prefix}{n}` whose session lives on shard `target`.
fn id_on_shard(prefix: &str, target: usize) -> String {
    (0..)
        .map(|n| format!("{prefix}{n}"))
        .find(|id| shard_of(id, SHARDS) == target)
        .expect("some id lands on every shard")
}

/// Connects and completes the MQTT handshake.
fn connect(addr: SocketAddr, id: String, persistent: bool) -> TcpStream {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream.set_nodelay(true).expect("nodelay");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    let mut c = Connect::new(id);
    c.clean_session = !persistent;
    stream
        .write_all(&encode(&Packet::Connect(c)))
        .expect("send CONNECT");
    let mut connack = [0u8; 4];
    stream.read_exact(&mut connack).expect("CONNACK");
    assert_eq!(connack, [0x20, 0x02, 0x00, 0x00], "session accepted");
    stream
}

/// Reads one frame's body into `buf` and returns its first byte and body
/// length. Allocates nothing.
fn read_frame(stream: &mut TcpStream, buf: &mut [u8; 256]) -> (u8, usize) {
    let mut head = [0u8; 2];
    stream.read_exact(&mut head).expect("a frame header");
    assert!(head[1] < 0x80, "frames of this test have a one-byte length");
    let len = head[1] as usize;
    stream.read_exact(&mut buf[..len]).expect("a frame body");
    (head[0], len)
}

/// Allocation calls per delivery over the measured window of `shape`.
fn allocations_per_delivery(shape: &Shape) -> f64 {
    let mut config = BrokerConfig {
        shards: SHARDS,
        ..BrokerConfig::default()
    };
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(shape.name);
    if shape.durable {
        let _ = std::fs::remove_dir_all(&dir);
        config = config.with_durability(&dir);
    }
    let broker = TcpBroker::bind_with("127.0.0.1:0", config).expect("bind on loopback");
    let addr = broker.local_addr();

    // Subscribers spread over the shards, so most deliveries cross one.
    let mut subscribers: Vec<TcpStream> = (0..shape.fanout)
        .map(|i| {
            let id = id_on_shard(&format!("sub{i}-"), i % SHARDS);
            let mut stream = connect(addr, id, shape.durable);
            let subscribe = Packet::Subscribe(Subscribe {
                packet_id: 1,
                filters: vec![SubscribeFilter {
                    filter: TopicFilter::new("sensor/#").expect("valid filter"),
                    qos: shape.qos,
                }],
            });
            stream.write_all(&encode(&subscribe)).expect("SUBSCRIBE");
            let mut suback = [0u8; 5];
            stream.read_exact(&mut suback).expect("SUBACK");
            assert_eq!(suback[0], 0x90);
            stream
        })
        .collect();
    let mut publisher = connect(addr, id_on_shard("pub-", 0), shape.durable);

    // Every frame the publisher will send, encoded up front.
    let frames: Vec<Bytes> = (0..shape.topics)
        .map(|t| {
            let topic = TopicName::new(format!("sensor/{t}/sound")).expect("valid topic");
            let mut publish = Publish::qos0(topic, vec![t as u8; PAYLOAD]);
            if shape.qos != QoS::AtMostOnce {
                publish.qos = shape.qos;
                publish.packet_id = Some(1 + (t % 1000) as u16);
            }
            encode(&Packet::Publish(publish))
        })
        .collect();

    let mut buf = [0u8; 256];
    // One publish, read off every subscriber's socket and acknowledged.
    let mut publish_once = |i: usize| {
        publisher
            .write_all(&frames[i % frames.len()])
            .expect("send PUBLISH");
        for subscriber in &mut subscribers {
            let (first, len) = read_frame(subscriber, &mut buf);
            assert_eq!(first >> 4, 3, "a PUBLISH");
            assert!(len > PAYLOAD);
            if shape.qos == QoS::AtLeastOnce {
                let topic_len = usize::from(u16::from_be_bytes([buf[0], buf[1]]));
                let pid = [buf[2 + topic_len], buf[3 + topic_len]];
                subscriber
                    .write_all(&[0x40, 0x02, pid[0], pid[1]])
                    .expect("send PUBACK");
            }
        }
        if shape.qos == QoS::AtLeastOnce {
            let (first, len) = read_frame(&mut publisher, &mut buf);
            assert_eq!((first, len), (0x40, 2), "the publisher's PUBACK");
        }
    };

    for i in 0..shape.warmup {
        publish_once(i);
    }
    // The last acknowledgements are still on their way into the broker.
    std::thread::sleep(Duration::from_millis(50));
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in shape.warmup..shape.warmup + shape.measured {
        publish_once(i);
    }
    std::thread::sleep(Duration::from_millis(50));
    let spent = ALLOCS.load(Ordering::Relaxed) - before;
    let delivered = (shape.measured * shape.fanout) as u64;

    let stats = broker.stats();
    assert_eq!(stats.messages_dropped, 0);
    assert_eq!(stats.retransmissions, 0);
    if shape.durable {
        let wal = broker.wal_stats().expect("a durable broker");
        assert_eq!(wal.append_errors, 0);
        assert!(wal.records_appended >= 2 * delivered, "insert and remove");
    }
    drop(subscribers);
    drop(publisher);
    broker.shutdown();
    if shape.durable {
        let _ = std::fs::remove_dir_all(&dir);
    }
    spent as f64 / delivered as f64
}

#[test]
fn a_delivery_over_tcp_stays_within_its_allocation_budget() {
    // One fresh `Bytes`: 1 allocation on crates.io, 2 on the offline
    // stand-in (its `Vec`, then the `Arc<[u8]>` it is copied into).
    let before = ALLOCS.load(Ordering::Relaxed);
    let probe = Bytes::copy_from_slice(&[1, 2, 3]);
    let bytes_cost = ALLOCS.load(Ordering::Relaxed) - before;
    drop(probe);
    assert!((1..=2).contains(&bytes_cost), "a Bytes costs {bytes_cost}");

    // Durable QoS 1 at fan-out 4. What a publish keeps: its topic, its
    // payload, a PUBACK frame and four delivery frames (each delivery has
    // a packet id of its own) — 1 + 6 × a `Bytes`, over 4 deliveries: 1.75
    // on crates.io, 3.25 on the stand-in. Measured: 3.25 there.
    let durable = allocations_per_delivery(&Shape {
        name: "durable_qos1",
        qos: QoS::AtLeastOnce,
        fanout: 4,
        topics: 96,
        warmup: 300,
        measured: 2_000,
        durable: true,
    });
    // QoS 0 at fan-out 16 over four times the match cache: every publish
    // misses the cache in each of the four shards' trees and in the origin's
    // replica, and every name is new to its stream's name table. The frame
    // is not among the costs of routing: the one copy made off the socket
    // is the frame all four shards send. Measured: 0.813 on the stand-in
    // (1.313 while every shard with a subscriber encoded its own).
    let fanout = allocations_per_delivery(&Shape {
        name: "fanout_qos0",
        qos: QoS::AtMostOnce,
        fanout: 16,
        topics: 4096,
        warmup: 600,
        measured: 4_096,
        durable: false,
    });
    println!(
        "allocations per delivery (a Bytes costs {bytes_cost}): durable QoS 1 fan-out 4 {durable:.3}, QoS 0 fan-out 16 {fanout:.3}"
    );
    // What the publish keeps, in the `Bytes` this build links, + 10 %:
    // 1.925 on crates.io (under the 3.0 first asked for), 3.575 here.
    let durable_budget = (1 + 6 * bytes_cost) as f64 / 4.0 * 1.10;
    assert!(
        durable <= durable_budget,
        "durable QoS 1, fan-out 4: {durable:.3} > {durable_budget:.3}"
    );
    // Measured + 10 %; a `Bytes` of one allocation only lowers it.
    assert!(fanout <= 0.9, "QoS 0, fan-out 16: {fanout:.3} > 0.9");
}
