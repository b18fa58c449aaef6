//! Context-aware home appliance control (paper Section III-A.2).
//!
//! Illuminance, sound and motion sensors estimate the room context; the
//! middleware drives a ceiling light and an air conditioner from the
//! estimate — sensing, analysis and actuation all local, no cloud.
//!
//! Runs on the real-thread runtime to show the middleware operating in
//! wall-clock time.
//!
//! Run with: `cargo run --example home_automation`

use std::time::Duration;

use ifot::core::config::{
    ActuatorKindSpec, ActuatorSpec, NodeConfig, OperatorKind, OperatorSpec, SensorSpec,
};
use ifot::core::thread_rt::ClusterBuilder;
use ifot::sensors::sample::SensorKind;

fn main() {
    // The living-room module senses; the gateway runs broker + analysis +
    // actuators (a deliberately centralized placement to contrast with
    // the distributed examples).
    let sensing = NodeConfig::new("living-room")
        .with_app("home")
        .with_broker_node("gateway")
        .with_sensor(SensorSpec::new(SensorKind::Illuminance, 1, 10.0, 11))
        .with_sensor(SensorSpec::new(SensorKind::Sound, 2, 10.0, 22))
        .with_sensor(SensorSpec::new(SensorKind::Motion, 3, 5.0, 33));

    let gateway = NodeConfig::new("gateway")
        .with_app("home")
        .with_broker()
        .with_broker_node("gateway") // its own client talks to the local broker
        .with_operator(
            OperatorSpec::through(
                "context",
                OperatorKind::Window { size_ms: 300 },
                vec!["sensor/#".into()],
                "flow/home/context",
            )
            .local_only(),
        )
        .with_operator(
            OperatorSpec::through(
                "comfort",
                OperatorKind::Estimate {
                    model: "comfort".into(),
                },
                vec!["flow/home/context".into()],
                "flow/home/comfort",
            )
            .local_only(),
        )
        .with_operator(OperatorSpec::sink(
            "drive-light",
            OperatorKind::Actuate { device_id: 100 },
            vec!["flow/home/decision".into()],
        ))
        .with_operator(OperatorSpec::sink(
            "drive-ac",
            OperatorKind::Actuate { device_id: 101 },
            vec!["flow/home/decision-ac".into()],
        ))
        .with_actuator(ActuatorSpec {
            device_id: 100,
            kind: ActuatorKindSpec::CeilingLight,
        })
        .with_actuator(ActuatorSpec {
            device_id: 101,
            kind: ActuatorKindSpec::AirConditioner,
        });

    let cluster = ClusterBuilder::new().node(gateway).node(sensing).start();
    println!("home-automation cluster running for 2 seconds...");

    // The decision policy lives application-side here: read the comfort
    // estimate off the flow and issue actuator decisions through the
    // middleware's own flow topics (decisions are FlowMessages whose
    // datum keys the Actuate operator maps onto commands).
    // For the demo we inject two decisions mid-run, as an application
    // (or a smarter Estimate operator) would.
    std::thread::sleep(Duration::from_millis(800));
    inject_decision(&cluster, "flow/home/decision", &[("level", 0.6)]);
    inject_decision(&cluster, "flow/home/decision-ac", &[("power", 1.0)]);
    std::thread::sleep(Duration::from_millis(200));
    inject_decision(
        &cluster,
        "flow/home/decision-ac",
        &[("target_celsius", 22.0)],
    );

    let report = cluster.run_for(Duration::from_secs(1));

    println!("\n--- results ---");
    println!(
        "samples published : {}",
        report.metrics.counter("published")
    );
    println!(
        "context windows   : {}",
        report.metrics.counter("window_flushes")
    );
    println!(
        "comfort estimates : {}",
        report.metrics.counter("estimates")
    );
    println!(
        "commands applied  : {}",
        report.metrics.counter("commands_applied")
    );
    let gw = report.node("gateway").expect("gateway node");
    let light = gw.ceiling_light(100).expect("light hosted");
    let ac = gw.air_conditioner(101).expect("ac hosted");
    println!("light level       : {:.0}%", light.level() * 100.0);
    println!(
        "air conditioner   : {} target {:.1}C",
        if ac.is_on() { "on" } else { "off" },
        ac.target_celsius()
    );
    assert!(light.level() > 0.0, "light decision must be applied");
    assert!(ac.is_on(), "AC decision must be applied");
    println!("\nappliances follow the decisions — OK");
}

/// Publishes a decision FlowMessage into the cluster via the broker, the
/// way an application node would.
fn inject_decision(
    cluster: &ifot::core::thread_rt::RunningCluster,
    topic: &str,
    keys: &[(&'static str, f64)],
) {
    use ifot::core::flow::FlowMessage;
    use ifot::ml::feature::Datum;
    use ifot::mqtt::codec::encode;
    use ifot::mqtt::packet::{Connect, Packet, Publish};
    use ifot::mqtt::topic::TopicName;

    let mut datum = Datum::new();
    for (k, v) in keys {
        datum.set(*k, *v);
    }
    let message = FlowMessage {
        producer: "app".into(),
        origin_ts_ns: cluster.now_ns(),
        seq: 0,
        datum,
        label: None,
        score: None,
    };
    // One-shot MQTT session: CONNECT then PUBLISH (QoS 0).
    let connect = encode(&Packet::Connect(Connect::new("decision-app")));
    let publish = encode(&Packet::Publish(Publish::qos0(
        TopicName::new(topic).expect("valid decision topic"),
        message.encode(),
    )));
    cluster.inject(
        "gateway",
        "decision-app",
        ifot::core::MQTT_BROKER_PORT,
        connect,
    );
    cluster.inject(
        "gateway",
        "decision-app",
        ifot::core::MQTT_BROKER_PORT,
        publish,
    );
}
