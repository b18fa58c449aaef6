//! # ifot-core — the IFoT middleware
//!
//! Reproduction of the middleware proposed in *"Design and Implementation
//! of Middleware for IoT Devices toward Real-Time Flow Processing"*
//! (ICDCS Workshops 2016): software running on IoT "neuron modules" that
//! processes data streams in real time, in a distributed manner, near
//! their sources ("Process On Our Own").
//!
//! The middleware provides the paper's four functions:
//!
//! 1. **Task allocation** — [`deploy::deploy`] splits a recipe
//!    ([`ifot_recipe`]) and assigns tasks to modules (Fig. 6).
//! 2. **Flow distribution** — publish/subscribe over the MQTT substrate
//!    ([`ifot_mqtt`]), wired inside [`node`].
//! 3. **Flow analysis** — online learning operators ([`operators`]) on
//!    the ML substrate ([`ifot_ml`]), including MIX model averaging.
//! 4. **Sensor/actuator integration** — the virtual device layer
//!    ([`ifot_sensors`]) exposed as classes on each node.
//!
//! A node runs unchanged on two runtimes: the deterministic network
//! simulator ([`sim_adapter`], used by the paper-reproduction benches)
//! and real threads ([`thread_rt`], used by the examples).

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod config;
pub mod costs;
pub mod deploy;
pub mod discovery;
pub mod env;
pub mod executor;
pub mod flow;
pub mod node;
pub mod operators;
pub mod sim_adapter;
pub mod thread_rt;
pub mod wire;

pub use config::{
    ActuatorKindSpec, ActuatorSpec, ExecutorConfig, NodeConfig, OperatorKind, OperatorSpec,
    SensorSpec, ShedPolicy,
};
pub use deploy::{deploy, DeployError, DeploymentPlan};
pub use discovery::{FlowDirectory, NodeAnnouncement, StreamInfo};
pub use env::{MockEnv, NodeEnv};
pub use executor::{ExecutorGraph, StageStats, StreamOperator};
pub use flow::{topics, FlowBatch, FlowItem, FlowMessage};
pub use node::{MiddlewareNode, MQTT_BROKER_PORT, MQTT_CLIENT_PORT};
pub use operators::NodeEvent;
pub use sim_adapter::{add_middleware_node, SimNode};
pub use thread_rt::{ClusterBuilder, ClusterReport, RunningCluster};
