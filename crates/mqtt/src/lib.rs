//! # ifot-mqtt — MQTT 3.1.1 substrate for the IFoT flow-distribution
//! function
//!
//! The IFoT paper implements its *flow distribution function* (Publish,
//! Broker and Subscribe classes) on top of Mosquitto and the MQTT
//! protocol. This crate is the from-scratch substitute:
//!
//! * [`codec`] — the MQTT 3.1.1 wire format (fixed header,
//!   remaining-length varint, every packet of the supported subset),
//! * [`topic`] — validated topic names and filters with `+`/`#` wildcard
//!   matching,
//! * [`tree`] — a subscription trie for efficient fan-out matching,
//! * [`broker`] — a sans-I/O broker with QoS 0/1/2 (full exactly-once
//!   handshake), retained messages, persistent sessions, wills and
//!   keep-alive, routing by a subscription index: its own, or the one a
//!   shard set shares,
//! * [`client`] — a sans-I/O client session with retransmission and
//!   keep-alive,
//! * [`supervisor`] — client-side dead-peer detection and reconnect
//!   backoff around the session,
//! * [`shard`] — a multi-core routing layer partitioning sessions across
//!   per-shard brokers, each owned by one thread, that share only one
//!   subscription index, the one place a subscription is stored,
//! * [`wal`] — a write-ahead log + snapshot subsystem (CRC-framed atomic
//!   batches, pluggable file/in-memory backends, tolerant replay) making
//!   persistent sessions, subscriptions, retained messages and QoS 1/2
//!   in-flight state survive broker restarts,
//! * [`poll`] — a thin epoll readiness poller (Linux only) with a
//!   cross-thread waker,
//! * [`slab`] — a generational connection slab keyed by poller tokens,
//! * [`net`] — a nonblocking TCP transport serving the sharded broker
//!   with one event loop per shard that owns the shard outright, each
//!   socket on the loop of its session's shard, and parking each loop
//!   until its shard's next deadline (std only, C10K-capable).
//!
//! "Sans-I/O" means broker and client own neither sockets nor clocks: the
//! caller feeds packets and timestamps and applies returned actions. The
//! IFoT middleware runs the exact same state machines on the deterministic
//! network simulator and on real threads.
//!
//! ```
//! use ifot_mqtt::codec::{decode, encode};
//! use ifot_mqtt::packet::{Packet, Publish};
//! use ifot_mqtt::topic::TopicName;
//!
//! let packet = Packet::Publish(Publish::qos0(
//!     TopicName::new("sensor/a")?,
//!     vec![1, 2, 3],
//! ));
//! let bytes = encode(&packet);
//! let (back, _) = decode(&bytes)?.expect("complete");
//! assert_eq!(back, packet);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod broker;
pub mod client;
pub mod codec;
pub mod error;
pub mod net;
pub mod packet;
pub mod poll;
pub mod shard;
pub mod slab;
pub mod supervisor;
pub mod topic;
pub mod tree;
pub mod wal;

pub use broker::{Action, Broker, BrokerConfig};
pub use client::{Client, ClientConfig, ClientEvent};
pub use codec::{decode, encode, StreamDecoder};
pub use error::{DecodeError, SessionError, TopicError};
pub use net::{TcpBroker, TcpClient};
pub use packet::{Packet, Publish, QoS};
pub use shard::{shard_of, ShardOutput, ShardedBroker};
pub use supervisor::{ReconnectConfig, ReconnectSupervisor, SupervisorAction};
pub use topic::{TopicFilter, TopicName};
pub use wal::{
    DurablePublish, DurableState, FileBackend, MemBackend, RecoveryReport, Wal, WalBackend,
    WalConfig, WalRecord, WalStats,
};
