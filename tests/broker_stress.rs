//! Integration: the sharded TCP broker under real concurrency — 16 OS
//! client threads publishing QoS 1 simultaneously through [`TcpBroker`]
//! to a QoS 1 subscriber, with the receipt ledger proving **zero loss
//! and zero duplication** (see `tests/common/mod.rs::SeqLedger`).
//!
//! Retransmission timeouts are raised far beyond the test's runtime on
//! both sides so any duplicate observed is a genuine routing bug (a
//! message crossing shards twice, a replica applying a subscription
//! twice), never a legitimately re-sent QoS 1 copy. Loss would mean a
//! dropped forward between shards or a write that vanished under the
//! coalesced writer loops; a hang would mean a deadlock between reader,
//! service, and writer paths. The test therefore exercises exactly the
//! hazards the multi-core refactor introduced.

mod common;

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use common::{seq_payload, SeqLedger};

use ifot::mqtt::broker::BrokerConfig;
use ifot::mqtt::client::ClientConfig;
use ifot::mqtt::net::{TcpBroker, TcpClient};
use ifot::mqtt::packet::QoS;

const PUBLISHERS: u32 = 16;
const PER_PUBLISHER: u32 = 50;

/// Client session config that never retransmits within the test window,
/// so at-least-once cannot manufacture benign duplicates.
fn patient_client() -> ClientConfig {
    ClientConfig {
        retransmit_timeout_ns: 300_000_000_000,
        ..ClientConfig::default()
    }
}

#[test]
fn sixteen_concurrent_qos1_publishers_lose_and_duplicate_nothing() {
    let config = BrokerConfig {
        // As above: the broker must not legitimately re-send to the
        // subscriber inside the test window either.
        retransmit_timeout_ns: 300_000_000_000,
        ..BrokerConfig::default()
    };
    assert!(config.shards >= 4, "stress must cross shard boundaries");
    let broker = TcpBroker::bind_with("127.0.0.1:0", config).expect("bind broker");
    let addr = broker.local_addr();

    // Publishers start only after the subscription is acknowledged, so
    // every publish must be routed (QoS 1 has no pre-subscribe grace).
    let start_line = Arc::new(Barrier::new(PUBLISHERS as usize + 1));

    let subscriber = {
        let start_line = Arc::clone(&start_line);
        std::thread::spawn(move || {
            let mut client = TcpClient::connect_with(addr, "stress-sub", patient_client())
                .expect("subscriber connect");
            client
                .subscribe("stress/#", QoS::AtLeastOnce)
                .expect("subscribe");
            start_line.wait();
            let mut ledger = SeqLedger::new();
            let expected = u64::from(PUBLISHERS) * u64::from(PER_PUBLISHER);
            let deadline = Instant::now() + Duration::from_secs(60);
            while ledger.total() < expected && Instant::now() < deadline {
                match client.recv(Duration::from_millis(100)) {
                    Ok(Some(publish)) => ledger.record_payload(&publish.payload),
                    Ok(None) => {}
                    Err(e) => panic!("subscriber connection failed mid-run: {e}"),
                }
            }
            // Linger briefly so late duplicates (the actual bug class)
            // would still be caught rather than racing the shutdown.
            let linger = Instant::now() + Duration::from_millis(300);
            while Instant::now() < linger {
                if let Ok(Some(publish)) = client.recv(Duration::from_millis(50)) {
                    ledger.record_payload(&publish.payload);
                }
            }
            client.disconnect();
            ledger
        })
    };

    let publishers: Vec<_> = (0..PUBLISHERS)
        .map(|p| {
            let start_line = Arc::clone(&start_line);
            std::thread::spawn(move || {
                let mut client =
                    TcpClient::connect_with(addr, &format!("stress-pub-{p}"), patient_client())
                        .expect("publisher connect");
                start_line.wait();
                for seq in 0..PER_PUBLISHER {
                    client
                        .publish(
                            &format!("stress/p{p}"),
                            &seq_payload(p, seq),
                            QoS::AtLeastOnce,
                            false,
                        )
                        .expect("publish");
                }
                // Drain PUBACKs: the broker owns every message once these
                // hit zero, so loss past this point is the broker's fault.
                let deadline = Instant::now() + Duration::from_secs(30);
                while client.inflight() > 0 && Instant::now() < deadline {
                    client.drive().expect("drive publisher");
                }
                assert_eq!(client.inflight(), 0, "publisher {p} never got all PUBACKs");
                client.disconnect();
            })
        })
        .collect();

    for handle in publishers {
        if let Err(e) = handle.join() {
            std::panic::resume_unwind(e);
        }
    }
    let ledger = match subscriber.join() {
        Ok(ledger) => ledger,
        Err(e) => std::panic::resume_unwind(e),
    };
    ledger.assert_exactly_once(PUBLISHERS, PER_PUBLISHER);

    // Every client sent DISCONNECT; teardown is asynchronous, so poll.
    let deadline = Instant::now() + Duration::from_secs(5);
    while broker.stats().clients_connected > 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert_eq!(
        broker.stats().clients_connected,
        0,
        "sessions lingered after DISCONNECT"
    );
    broker.shutdown();
}
