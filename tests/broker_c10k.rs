//! Integration: the event-loop broker front-end at connection counts a
//! thread-per-connection design cannot reach.
//!
//! The subscriber swarm is driven from **one** test thread through the
//! same readiness poller the broker uses ([`ifot::mqtt::poll::Poller`]):
//! every swarm socket is nonblocking, handshakes are pipelined
//! (CONNECT and SUBSCRIBE written back-to-back), and receipt counting
//! happens in a poll loop. This keeps the test's own footprint at two
//! threads no matter the swarm size, so the asserted broker property —
//! thread count fixed at `shards + 1` while thousands of sockets are
//! being serviced — is measured without the test itself distorting
//! `/proc/self`.
//!
//! The non-ignored test runs a few hundred connections so CI stays
//! fast; `c10k_fanout_smoke` scales to ~10 000 (bounded by
//! `RLIMIT_NOFILE`: each swarm connection costs the process two fds,
//! one client end + one broker end) and is `#[ignore]`d for on-demand
//! runs: `cargo test --release --test broker_c10k -- --ignored`.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::time::{Duration, Instant};

use ifot::mqtt::broker::BrokerConfig;
use ifot::mqtt::codec::{encode, StreamDecoder};
use ifot::mqtt::net::{mqtt_thread_count, TcpBroker, TcpClient};
use ifot::mqtt::packet::{Connect, Packet, QoS, Subscribe, SubscribeFilter};
use ifot::mqtt::poll::{Event, Interest, Poller};
use ifot::mqtt::topic::TopicFilter;

/// One subscriber socket of the swarm.
struct SwarmConn {
    stream: TcpStream,
    decoder: StreamDecoder,
    connacked: bool,
    subacked: bool,
    delivered: u64,
}

/// Connects `count` subscribers to `addr`, all subscribed to `filter`,
/// with pipelined handshakes. Returns once every CONNACK and SUBACK has
/// arrived.
fn connect_swarm(addr: SocketAddr, count: usize, filter: &str) -> Vec<SwarmConn> {
    let poller = Poller::new().expect("swarm poller");
    let mut conns: Vec<SwarmConn> = Vec::with_capacity(count);
    for i in 0..count {
        let stream = TcpStream::connect(addr).expect("swarm connect");
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        // Pipeline the whole handshake: both packets fit any fresh
        // socket buffer, so these writes cannot block.
        let mut hello = Vec::new();
        hello.extend_from_slice(&encode(&Packet::Connect(Connect {
            client_id: format!("swarm-{i}"),
            clean_session: true,
            keep_alive_secs: 0,
            will: None,
            username: None,
            password: None,
        })));
        hello.extend_from_slice(&encode(&Packet::Subscribe(Subscribe {
            packet_id: 1,
            filters: vec![SubscribeFilter {
                filter: TopicFilter::new(filter).expect("valid filter"),
                qos: QoS::AtMostOnce,
            }],
        })));
        (&stream).write_all(&hello).expect("pipelined handshake");
        poller
            .register(stream.as_raw_fd(), i as u64, Interest::READABLE)
            .expect("register swarm socket");
        conns.push(SwarmConn {
            stream,
            decoder: StreamDecoder::new(),
            connacked: false,
            subacked: false,
            delivered: 0,
        });
    }
    let deadline = Instant::now() + Duration::from_secs(60);
    let mut ready = 0usize;
    while ready < count {
        assert!(
            Instant::now() < deadline,
            "only {ready}/{count} handshakes completed in 60s"
        );
        pump_swarm(&poller, &mut conns, &mut |conn| {
            if conn.connacked && conn.subacked {
                ready += 1;
            }
        });
    }
    // The poller drops here; receipt counting re-polls with a fresh one
    // so the two phases cannot leak events into each other.
    conns
}

/// One poll-and-read sweep over the swarm. `on_ready` fires when a
/// connection completes its handshake (CONNACK + SUBACK observed).
fn pump_swarm(poller: &Poller, conns: &mut [SwarmConn], on_ready: &mut dyn FnMut(&SwarmConn)) {
    let mut events: Vec<Event> = Vec::new();
    poller
        .wait(&mut events, Some(Duration::from_millis(200)))
        .expect("swarm wait");
    let mut buf = [0u8; 16 * 1024];
    for ev in &events {
        let conn = &mut conns[ev.token as usize];
        loop {
            match (&conn.stream).read(&mut buf) {
                Ok(0) => panic!("broker closed a swarm connection"),
                Ok(n) => {
                    conn.decoder.feed(&buf[..n]);
                    let was_ready = conn.connacked && conn.subacked;
                    while let Some(packet) = conn.decoder.next_packet().expect("valid stream") {
                        match packet {
                            Packet::Connack(c) => {
                                assert_eq!(c.code, ifot::mqtt::packet::ConnectReturnCode::Accepted);
                                conn.connacked = true;
                            }
                            Packet::Suback(_) => conn.subacked = true,
                            Packet::Publish(_) => conn.delivered += 1,
                            other => panic!("unexpected packet in swarm: {other:?}"),
                        }
                    }
                    if !was_ready && conn.connacked && conn.subacked {
                        on_ready(conn);
                    }
                    if n < buf.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("swarm read failed: {e}"),
            }
        }
    }
}

/// Drives a fan-out round: publishes `publishes` messages, then polls
/// the swarm until every connection has received all of them (or the
/// deadline passes). Returns total deliveries.
fn fanout_round(addr: SocketAddr, conns: &mut [SwarmConn], publishes: u64) -> u64 {
    let poller = Poller::new().expect("fanout poller");
    for (i, conn) in conns.iter().enumerate() {
        poller
            .register(conn.stream.as_raw_fd(), i as u64, Interest::READABLE)
            .expect("re-register swarm socket");
    }
    let mut publisher = TcpClient::connect(addr, "c10k-pub").expect("publisher");
    for seq in 0..publishes {
        publisher
            .publish("c10k/t", &seq.to_be_bytes(), QoS::AtMostOnce, false)
            .expect("publish");
    }
    let expected: u64 = publishes * conns.len() as u64;
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let delivered: u64 = conns.iter().map(|c| c.delivered).sum();
        if delivered >= expected || Instant::now() >= deadline {
            publisher.disconnect();
            return delivered;
        }
        pump_swarm(&poller, conns, &mut |_| {});
    }
}

fn run_fanout(connections: usize, publishes: u64, shards: usize) {
    let broker = TcpBroker::bind_with(
        "127.0.0.1:0",
        BrokerConfig {
            shards,
            // Generous: the swarm drains in 200 ms poll sweeps, and a
            // fan-out burst can park bytes briefly on many sockets.
            write_timeout_ns: 30_000_000_000,
            ..BrokerConfig::default()
        },
    )
    .expect("bind");
    let addr = broker.local_addr();
    // Thread names are set by each thread itself at startup, so give
    // the freshly spawned pool a moment before pinning the baseline.
    let expected_threads = broker.service_threads();
    let spawn_deadline = Instant::now() + Duration::from_secs(5);
    let mut baseline_threads = mqtt_thread_count().expect("linux /proc");
    while baseline_threads != expected_threads && Instant::now() < spawn_deadline {
        std::thread::sleep(Duration::from_millis(5));
        baseline_threads = mqtt_thread_count().expect("linux /proc");
    }
    assert_eq!(
        baseline_threads, expected_threads,
        "an idle broker runs exactly shards + 1 threads"
    );

    let mut conns = connect_swarm(addr, connections, "c10k/#");
    assert_eq!(broker.stats().clients_connected, connections);
    // The C10K property: the connections arrived, the thread count did
    // not move. A thread-per-connection front-end would sit at
    // `connections + shards + 1` here.
    assert_eq!(
        mqtt_thread_count().expect("linux /proc"),
        baseline_threads,
        "broker thread count must not scale with connections"
    );

    let delivered = fanout_round(addr, &mut conns, publishes);
    let expected = publishes * connections as u64;
    assert_eq!(
        delivered, expected,
        "QoS 0 fan-out over live connections must be lossless"
    );
    assert_eq!(
        mqtt_thread_count().expect("linux /proc"),
        baseline_threads,
        "fan-out must not spawn threads"
    );
    drop(conns);
    broker.shutdown();
}

#[test]
fn five_hundred_connection_fanout_with_fixed_threads() {
    run_fanout(500, 20, 4);
}

/// The headline C10K cell. Sized to the process fd budget: each swarm
/// connection costs two fds in this process (client end + broker end).
/// Run explicitly: `cargo test --release --test broker_c10k -- --ignored`.
#[test]
#[ignore = "needs ~20k fds and several seconds; run with -- --ignored"]
fn c10k_fanout_smoke() {
    let nofile = ifot::mqtt::poll::nofile_limit().unwrap_or(1024);
    let budget = (nofile.saturating_sub(128) / 2) as usize;
    let connections = budget.min(10_000);
    assert!(
        connections >= 2_000,
        "fd limit {nofile} too low for a meaningful C10K run"
    );
    run_fanout(connections, 5, 4);
}
