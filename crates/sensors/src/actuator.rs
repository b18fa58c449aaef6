//! Virtual actuators: devices the middleware drives in response to
//! analysis results (the paper's air conditioner, ceiling light, alert
//! messaging).

use bytes::Reader;

/// A command addressed to an actuator, carried as an MQTT payload on
/// `actuator/<device_id>/<verb>` topics.
///
/// Wire image (big-endian, like [`crate::sample::Sample`]'s): one tag
/// byte, then the variant's fields, nothing after them.
///
/// ```text
/// tag  variant    body
/// 1    SetPower   on: u8 (0 or 1)
/// 2    SetLevel   level: f64
/// 3    SetTarget  celsius: f64
/// 4    Alert      severity: u8, length: u32, message: UTF-8 bytes
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Switch a device on or off.
    SetPower {
        /// Desired power state.
        on: bool,
    },
    /// Set a continuous level (dimmer, fan speed) in `[0, 1]`.
    SetLevel {
        /// Desired level.
        level: f64,
    },
    /// Set a target temperature in Celsius.
    SetTarget {
        /// Desired target.
        celsius: f64,
    },
    /// Raise an alert with a message (elderly-monitoring scenario).
    Alert {
        /// Severity 0 (info) to 2 (critical).
        severity: u8,
        /// Human-readable message.
        message: String,
    },
}

const TAG_SET_POWER: u8 = 1;
const TAG_SET_LEVEL: u8 = 2;
const TAG_SET_TARGET: u8 = 3;
const TAG_ALERT: u8 = 4;

impl Command {
    /// Serializes to the wire image.
    ///
    /// # Panics
    ///
    /// Panics if an alert message is 4 GiB or longer (no MQTT payload
    /// can carry one).
    pub fn encode(&self) -> Vec<u8> {
        match self {
            Command::SetPower { on } => vec![TAG_SET_POWER, u8::from(*on)],
            Command::SetLevel { level } => tagged_f64(TAG_SET_LEVEL, *level),
            Command::SetTarget { celsius } => tagged_f64(TAG_SET_TARGET, *celsius),
            Command::Alert { severity, message } => {
                let len = u32::try_from(message.len()).expect("alert text fits an MQTT payload");
                let mut out = Vec::with_capacity(6 + message.len());
                out.extend_from_slice(&[TAG_ALERT, *severity]);
                out.extend_from_slice(&len.to_be_bytes());
                out.extend_from_slice(message.as_bytes());
                out
            }
        }
    }

    /// Parses the wire image.
    ///
    /// # Errors
    ///
    /// Returns a description for an unknown tag, a truncated body, bytes
    /// after the body, a power byte other than 0/1 or a message that is
    /// not UTF-8.
    pub fn decode(bytes: &[u8]) -> Result<Self, String> {
        let mut r = Reader::new(bytes);
        let command = match r.u8().map_err(|_| "empty command payload")? {
            TAG_SET_POWER => Command::SetPower { on: r.flag()? },
            TAG_SET_LEVEL => Command::SetLevel {
                level: f64::from_be_bytes(r.array()?),
            },
            TAG_SET_TARGET => Command::SetTarget {
                celsius: f64::from_be_bytes(r.array()?),
            },
            TAG_ALERT => {
                let severity = r.u8()?;
                let len = u32::from_be_bytes(r.array()?);
                let message = std::str::from_utf8(r.take(len as usize)?)
                    .map_err(|e| format!("alert text is not UTF-8: {e}"))?
                    .to_owned();
                Command::Alert { severity, message }
            }
            other => return Err(format!("unknown command tag {other:#04x}")),
        };
        r.finish()?;
        Ok(command)
    }

    /// Derives a command from a decision item: `get` looks up its datum
    /// keys, `label`/`score` carry its classification. Keys `power`,
    /// `level` and `target_celsius` map to the corresponding commands; a
    /// labelled item becomes an alert (severity 2 for `anomaly`), an
    /// unlabelled one an informational alert.
    pub fn from_decision(
        get: impl Fn(&str) -> Option<f64>,
        label: Option<&str>,
        score: Option<f64>,
    ) -> Command {
        if let Some(v) = get("power") {
            return Command::SetPower { on: v >= 0.5 };
        }
        if let Some(v) = get("level") {
            return Command::SetLevel { level: v };
        }
        if let Some(v) = get("target_celsius") {
            return Command::SetTarget { celsius: v };
        }
        match label {
            Some(label) => Command::Alert {
                severity: if label == "anomaly" { 2 } else { 1 },
                message: format!("{} (score {:.2})", label, score.unwrap_or(0.0)),
            },
            None => Command::Alert {
                severity: 0,
                message: "decision".to_owned(),
            },
        }
    }
}

fn tagged_f64(tag: u8, value: f64) -> Vec<u8> {
    let mut out = Vec::with_capacity(9);
    out.push(tag);
    out.extend_from_slice(&value.to_be_bytes());
    out
}

/// Common behaviour of virtual actuators.
pub trait Actuator: Send {
    /// Numeric device identifier.
    fn device_id(&self) -> u16;

    /// Applies a command; unsupported commands are ignored and reported
    /// as `false`.
    fn apply(&mut self, command: &Command) -> bool;

    /// A one-line state description for monitoring screens.
    fn describe(&self) -> String;
}

impl std::fmt::Debug for dyn Actuator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Actuator({})", self.describe())
    }
}

/// A simulated air conditioner with a power state and target temperature.
#[derive(Debug, Clone, PartialEq)]
pub struct AirConditioner {
    id: u16,
    on: bool,
    target_celsius: f64,
    commands_applied: u64,
}

impl AirConditioner {
    /// Creates an idle unit targeting 24 °C.
    pub fn new(id: u16) -> Self {
        AirConditioner {
            id,
            on: false,
            target_celsius: 24.0,
            commands_applied: 0,
        }
    }

    /// Whether the unit is running.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Current target temperature.
    pub fn target_celsius(&self) -> f64 {
        self.target_celsius
    }

    /// Commands applied so far.
    pub fn commands_applied(&self) -> u64 {
        self.commands_applied
    }
}

impl Actuator for AirConditioner {
    fn device_id(&self) -> u16 {
        self.id
    }

    fn apply(&mut self, command: &Command) -> bool {
        match command {
            Command::SetPower { on } => {
                self.on = *on;
            }
            Command::SetTarget { celsius } => {
                self.target_celsius = celsius.clamp(16.0, 32.0);
            }
            _ => return false,
        }
        self.commands_applied += 1;
        true
    }

    fn describe(&self) -> String {
        format!(
            "ac#{} {} target={:.1}C",
            self.id,
            if self.on { "on" } else { "off" },
            self.target_celsius
        )
    }
}

/// A simulated dimmable ceiling light.
#[derive(Debug, Clone, PartialEq)]
pub struct CeilingLight {
    id: u16,
    level: f64,
    commands_applied: u64,
}

impl CeilingLight {
    /// Creates a light that is off.
    pub fn new(id: u16) -> Self {
        CeilingLight {
            id,
            level: 0.0,
            commands_applied: 0,
        }
    }

    /// Current brightness in `[0, 1]`.
    pub fn level(&self) -> f64 {
        self.level
    }

    /// Commands applied so far.
    pub fn commands_applied(&self) -> u64 {
        self.commands_applied
    }
}

impl Actuator for CeilingLight {
    fn device_id(&self) -> u16 {
        self.id
    }

    fn apply(&mut self, command: &Command) -> bool {
        match command {
            Command::SetPower { on } => {
                self.level = if *on { 1.0 } else { 0.0 };
            }
            Command::SetLevel { level } => {
                if !level.is_finite() {
                    return false;
                }
                self.level = level.clamp(0.0, 1.0);
            }
            _ => return false,
        }
        self.commands_applied += 1;
        true
    }

    fn describe(&self) -> String {
        format!("light#{} level={:.0}%", self.id, self.level * 100.0)
    }
}

/// A simulated alert sink (pager / messaging endpoint) recording alerts.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct AlertSink {
    id: u16,
    alerts: Vec<(u8, String)>,
}

impl AlertSink {
    /// Creates an empty sink.
    pub fn new(id: u16) -> Self {
        AlertSink {
            id,
            alerts: Vec::new(),
        }
    }

    /// Alerts received so far, in arrival order.
    pub fn alerts(&self) -> &[(u8, String)] {
        &self.alerts
    }
}

impl Actuator for AlertSink {
    fn device_id(&self) -> u16 {
        self.id
    }

    fn apply(&mut self, command: &Command) -> bool {
        match command {
            Command::Alert { severity, message } => {
                self.alerts.push((*severity, message.clone()));
                true
            }
            _ => false,
        }
    }

    fn describe(&self) -> String {
        format!("alerts#{} received={}", self.id, self.alerts.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn command_round_trip() {
        let cmds = [
            Command::SetPower { on: true },
            Command::SetLevel { level: 0.5 },
            Command::SetTarget { celsius: 21.0 },
            Command::Alert {
                severity: 2,
                message: "fall detected".into(),
            },
        ];
        for c in cmds {
            let bytes = c.encode();
            assert_eq!(Command::decode(&bytes).expect("round trip"), c);
        }
        assert!(Command::decode(b"{\"SetPower\":{\"on\":true}}").is_err());
        assert!(Command::decode(b"").is_err());
    }

    #[test]
    fn from_decision_maps_keys_then_labels() {
        let keyed = |key: &'static str, v: f64| move |k: &str| (k == key).then_some(v);
        assert_eq!(
            Command::from_decision(keyed("power", 1.0), None, None),
            Command::SetPower { on: true }
        );
        assert_eq!(
            Command::from_decision(keyed("level", 0.4), None, None),
            Command::SetLevel { level: 0.4 }
        );
        assert_eq!(
            Command::from_decision(keyed("target_celsius", 21.0), None, None),
            Command::SetTarget { celsius: 21.0 }
        );
        assert!(matches!(
            Command::from_decision(|_| None, Some("anomaly"), Some(4.5)),
            Command::Alert { severity: 2, .. }
        ));
        assert!(matches!(
            Command::from_decision(|_| None, Some("fall"), None),
            Command::Alert { severity: 1, .. }
        ));
        assert!(matches!(
            Command::from_decision(|_| None, None, None),
            Command::Alert { severity: 0, .. }
        ));
    }

    #[test]
    fn air_conditioner_clamps_target() {
        let mut ac = AirConditioner::new(1);
        assert!(ac.apply(&Command::SetPower { on: true }));
        assert!(ac.apply(&Command::SetTarget { celsius: 99.0 }));
        assert!(ac.is_on());
        assert_eq!(ac.target_celsius(), 32.0);
        assert!(!ac.apply(&Command::SetLevel { level: 0.5 }));
        assert_eq!(ac.commands_applied(), 2);
        assert!(ac.describe().contains("on"));
    }

    #[test]
    fn light_level_control() {
        let mut light = CeilingLight::new(2);
        assert!(light.apply(&Command::SetLevel { level: 0.3 }));
        assert_eq!(light.level(), 0.3);
        assert!(light.apply(&Command::SetPower { on: false }));
        assert_eq!(light.level(), 0.0);
        assert!(light.apply(&Command::SetLevel { level: 7.0 }));
        assert_eq!(light.level(), 1.0);
        assert!(!light.apply(&Command::SetLevel { level: f64::NAN }));
        assert!(!light.apply(&Command::SetTarget { celsius: 20.0 }));
    }

    #[test]
    fn alert_sink_records_alerts_only() {
        let mut sink = AlertSink::new(3);
        assert!(sink.apply(&Command::Alert {
            severity: 1,
            message: "check".into()
        }));
        assert!(!sink.apply(&Command::SetPower { on: true }));
        assert_eq!(sink.alerts(), &[(1, "check".to_owned())]);
        assert_eq!(sink.device_id(), 3);
    }
}
