//! The MQTT substrate over real sockets: serve the broker on TCP and
//! exchange messages between two blocking clients — no simulator, no
//! middleware, just the protocol stack a downstream user could deploy in
//! place of Mosquitto.
//!
//! Run with: `cargo run --example tcp_broker`

use std::time::Duration;

use ifot::mqtt::net::{TcpBroker, TcpClient};
use ifot::mqtt::packet::QoS;

fn main() -> std::io::Result<()> {
    let broker = TcpBroker::bind("127.0.0.1:0")?;
    let addr = broker.local_addr();
    println!("broker serving MQTT on {addr}");

    let mut subscriber = TcpClient::connect(addr, "tcp-subscriber")?;
    subscriber.subscribe("demo/#", QoS::ExactlyOnce)?;
    println!("subscriber connected and subscribed to demo/#");

    let mut publisher = TcpClient::connect(addr, "tcp-publisher")?;
    for (i, qos) in [QoS::AtMostOnce, QoS::AtLeastOnce, QoS::ExactlyOnce]
        .into_iter()
        .enumerate()
    {
        let payload = format!("message {i} at {qos:?}");
        publisher.publish("demo/stream", payload.as_bytes(), qos, false)?;
    }

    let mut received = 0;
    while received < 3 {
        publisher.drive()?; // pump acknowledgement flows
        if let Some(message) = subscriber.recv(Duration::from_millis(200))? {
            println!(
                "received on {}: {}",
                message.topic,
                String::from_utf8_lossy(&message.payload)
            );
            received += 1;
        }
    }

    let stats = broker.stats();
    println!(
        "broker stats: {} clients, {} in, {} out",
        stats.clients_connected, stats.messages_in, stats.messages_out
    );
    assert_eq!(received, 3);

    publisher.disconnect();
    subscriber.disconnect();
    broker.shutdown();
    println!("clean shutdown — OK");
    Ok(())
}
