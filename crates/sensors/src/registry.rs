//! Device registry: the catalogue the middleware's sensor/actuator
//! integration function uses to discover and describe devices.

use std::collections::BTreeMap;

use crate::sample::SensorKind;

/// Whether a device produces or consumes data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceRole {
    /// Produces a stream of samples.
    Sensor,
    /// Consumes commands.
    Actuator,
}

/// Short-range link technology a device speaks (Fig. 2 of the paper lists
/// BLE, EnOcean and ZigBee). Purely descriptive in the simulation, but
/// part of the registry so capability-aware assignment can reason about
/// reachability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkTechnology {
    /// Bluetooth Low Energy.
    Ble,
    /// EnOcean energy-harvesting radio.
    EnOcean,
    /// ZigBee mesh.
    ZigBee,
    /// Wired/GPIO attachment.
    Wired,
}

/// Registry entry describing one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDescriptor {
    /// Numeric device identifier (unique per registry).
    pub device_id: u16,
    /// Producer or consumer.
    pub role: DeviceRole,
    /// Sensor kind (sensors only).
    pub kind: Option<SensorKind>,
    /// Radio/link used to reach the device.
    pub link: LinkTechnology,
    /// Human-readable placement, e.g. "living-room".
    pub location: String,
}

/// A catalogue of devices attached to one neuron module.
///
/// ```
/// use ifot_sensors::registry::{DeviceDescriptor, DeviceRegistry, DeviceRole, LinkTechnology};
/// use ifot_sensors::sample::SensorKind;
///
/// let mut reg = DeviceRegistry::new();
/// reg.register(DeviceDescriptor {
///     device_id: 1,
///     role: DeviceRole::Sensor,
///     kind: Some(SensorKind::Temperature),
///     link: LinkTechnology::Ble,
///     location: "kitchen".into(),
/// })?;
/// assert_eq!(reg.len(), 1);
/// assert!(reg.get(1).is_some());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceRegistry {
    devices: BTreeMap<u16, DeviceDescriptor>,
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a device.
    ///
    /// # Errors
    ///
    /// Returns a message if the id is already registered or a sensor
    /// entry lacks its kind.
    pub fn register(&mut self, descriptor: DeviceDescriptor) -> Result<(), String> {
        if self.devices.contains_key(&descriptor.device_id) {
            return Err(format!(
                "device id {} already registered",
                descriptor.device_id
            ));
        }
        if descriptor.role == DeviceRole::Sensor && descriptor.kind.is_none() {
            return Err("sensor entries must declare their kind".to_owned());
        }
        self.devices.insert(descriptor.device_id, descriptor);
        Ok(())
    }

    /// Removes a device, returning its descriptor.
    pub fn unregister(&mut self, device_id: u16) -> Option<DeviceDescriptor> {
        self.devices.remove(&device_id)
    }

    /// Looks up a device.
    pub fn get(&self, device_id: u16) -> Option<&DeviceDescriptor> {
        self.devices.get(&device_id)
    }

    /// Number of registered devices.
    pub fn len(&self) -> usize {
        self.devices.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.devices.is_empty()
    }

    /// Iterates over descriptors in id order.
    pub fn iter(&self) -> impl Iterator<Item = &DeviceDescriptor> {
        self.devices.values()
    }

    /// All sensors of the given kind.
    pub fn sensors_of_kind(&self, kind: SensorKind) -> Vec<&DeviceDescriptor> {
        self.devices
            .values()
            .filter(|d| d.role == DeviceRole::Sensor && d.kind == Some(kind))
            .collect()
    }

    /// All actuators.
    pub fn actuators(&self) -> Vec<&DeviceDescriptor> {
        self.devices
            .values()
            .filter(|d| d.role == DeviceRole::Actuator)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sensor(id: u16, kind: SensorKind) -> DeviceDescriptor {
        DeviceDescriptor {
            device_id: id,
            role: DeviceRole::Sensor,
            kind: Some(kind),
            link: LinkTechnology::Ble,
            location: "here".into(),
        }
    }

    fn actuator(id: u16) -> DeviceDescriptor {
        DeviceDescriptor {
            device_id: id,
            role: DeviceRole::Actuator,
            kind: None,
            link: LinkTechnology::ZigBee,
            location: "there".into(),
        }
    }

    #[test]
    fn register_and_query() {
        let mut reg = DeviceRegistry::new();
        reg.register(sensor(1, SensorKind::Sound))
            .expect("register");
        reg.register(sensor(2, SensorKind::Motion))
            .expect("register");
        reg.register(actuator(3)).expect("register");
        assert_eq!(reg.len(), 3);
        assert_eq!(reg.sensors_of_kind(SensorKind::Sound).len(), 1);
        assert_eq!(reg.sensors_of_kind(SensorKind::Temperature).len(), 0);
        assert_eq!(reg.actuators().len(), 1);
        assert_eq!(reg.get(2).expect("present").kind, Some(SensorKind::Motion));
    }

    #[test]
    fn duplicate_ids_rejected() {
        let mut reg = DeviceRegistry::new();
        reg.register(sensor(1, SensorKind::Sound))
            .expect("register");
        assert!(reg.register(actuator(1)).is_err());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn sensor_without_kind_rejected() {
        let mut reg = DeviceRegistry::new();
        let mut bad = sensor(1, SensorKind::Sound);
        bad.kind = None;
        assert!(reg.register(bad).is_err());
        assert!(reg.is_empty());
    }

    #[test]
    fn unregister_round_trip() {
        let mut reg = DeviceRegistry::new();
        reg.register(sensor(5, SensorKind::Humidity))
            .expect("register");
        let d = reg.unregister(5).expect("present");
        assert_eq!(d.device_id, 5);
        assert!(reg.unregister(5).is_none());
        assert!(reg.is_empty());
    }
}
