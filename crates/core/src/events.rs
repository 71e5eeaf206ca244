//! The §5.4 streaming workload: IoT traffic-sensor events in JSON.
//!
//! "The benchmark emulates events generated by an IoT traffic sensor that
//! measures the number of cars and their average speed for road lanes. The
//! IoT device publishes these events in JSON format into two separate
//! topics." An event is written by [`TrafficEvent::to_json`] and read back
//! through kdtelem's JSON reader, the one every telemetry export uses.

use std::fmt::Write as _;

/// One traffic-sensor observation.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficEvent {
    /// Sensor identity.
    pub sensor_id: u32,
    /// Road lane the observation covers.
    pub lane: u8,
    /// Vehicles counted in the interval.
    pub cars: u32,
    /// Average speed, km/h.
    pub avg_speed: f64,
    /// Event-generation timestamp, virtual microseconds — the delay metric
    /// of Fig 21 is `consume_time - timestamp`.
    pub timestamp_us: u64,
}

impl TrafficEvent {
    /// Serialises to a compact JSON object.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            r#"{{"sensor_id":{},"lane":{},"cars":{},"avg_speed":{:.2},"timestamp_us":{}}}"#,
            self.sensor_id, self.lane, self.cars, self.avg_speed, self.timestamp_us
        );
        s
    }

    /// Parses one object as [`Self::to_json`] writes it: fields in any
    /// order, whitespace around them, nothing after the object. `None` if
    /// the text is anything else or a field is missing.
    pub fn from_json(input: &str) -> Option<TrafficEvent> {
        let (obj, rest) = kdtelem::json::Fields::read(input)?;
        let obj = rest.trim().is_empty().then_some(obj)?;
        Some(TrafficEvent {
            sensor_id: obj.u64("sensor_id")? as u32,
            lane: obj.u64("lane")? as u8,
            cars: obj.u64("cars")? as u32,
            avg_speed: obj.f64("avg_speed")?,
            timestamp_us: obj.u64("timestamp_us")?,
        })
    }
}

/// Deterministic generator of sensor events.
pub struct SensorGenerator {
    pub sensor_id: u32,
    seq: u64,
}

impl SensorGenerator {
    pub fn new(sensor_id: u32) -> Self {
        SensorGenerator { sensor_id, seq: 0 }
    }

    /// Next event, stamped with the current virtual time.
    pub fn next_event(&mut self) -> TrafficEvent {
        self.seq += 1;
        TrafficEvent {
            sensor_id: self.sensor_id,
            lane: (self.seq % 4) as u8,
            cars: sim::rng::range(0u32..40),
            avg_speed: 30.0 + f64::from(sim::rng::range(0u32..900)) / 10.0,
            timestamp_us: sim::now().as_nanos() / 1000,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_round_trip() {
        let e = TrafficEvent {
            sensor_id: 12,
            lane: 3,
            cars: 7,
            avg_speed: 61.25,
            timestamp_us: 123_456_789,
        };
        let json = e.to_json();
        let back = TrafficEvent::from_json(&json).unwrap();
        assert_eq!(back.sensor_id, 12);
        assert_eq!(back.lane, 3);
        assert_eq!(back.cars, 7);
        assert!((back.avg_speed - 61.25).abs() < 1e-9);
        assert_eq!(back.timestamp_us, 123_456_789);
    }

    #[test]
    fn parser_tolerates_order_and_whitespace() {
        let e = TrafficEvent::from_json(
            r#" { "timestamp_us": 5 , "avg_speed": 10.5, "cars": 1, "lane": 2, "sensor_id": 9 } "#,
        )
        .unwrap();
        assert_eq!(e.sensor_id, 9);
        assert_eq!(e.timestamp_us, 5);
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(TrafficEvent::from_json("").is_none());
        assert!(TrafficEvent::from_json("{}").is_none()); // missing fields
        assert!(TrafficEvent::from_json(r#"{"sensor_id":}"#).is_none());
        assert!(TrafficEvent::from_json(r#"{"a":{"nested":1}}"#).is_none());
        assert!(TrafficEvent::from_json(r#"{"a":1,}"#).is_none());
        let e = TrafficEvent {
            sensor_id: 1,
            lane: 0,
            cars: 2,
            avg_speed: 3.0,
            timestamp_us: 4,
        };
        assert!(TrafficEvent::from_json(&e.to_json()).is_some());
        assert!(TrafficEvent::from_json(&(e.to_json() + " x")).is_none()); // trailing bytes
        assert!(TrafficEvent::from_json(&(e.to_json() + "}")).is_none());
    }

    #[test]
    fn generator_is_deterministic_per_seed() {
        let run = |seed| {
            let rt = sim::Runtime::with_seed(seed);
            rt.block_on(async {
                let mut g = SensorGenerator::new(1);
                (0..5).map(|_| g.next_event().cars).collect::<Vec<_>>()
            })
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4));
    }
}
