//! FIFO link serialisation.
//!
//! A [`Link`] models one direction of a NIC port: transfers queue behind one
//! another at a fixed bandwidth, and optionally at a minimum per-message
//! occupancy (the verbs message-rate limit). Reservation is O(1): the link
//! keeps only the time until which it is busy.

use std::cell::{Cell, RefCell};
use std::time::Duration;

use sim::rng::SimRng;
use sim::SimTime;

/// Give up on a TCP chunk after this many consecutive injected drops (a
/// real stack resets the connection once retransmissions are exhausted).
const MAX_RETRANSMITS: u32 = 6;

/// Runtime fault state attached to a link by the fault-injection layer.
/// Each faulted link owns a *private* RNG stream seeded explicitly, so
/// injecting faults on one link never perturbs the virtual-time ordering
/// of traffic on untouched links.
struct LinkFaults {
    drop_p: f64,
    rng: SimRng,
    delay: Duration,
}

/// One direction of a network port.
pub struct Link {
    /// Bandwidth in bytes/second.
    bandwidth: f64,
    busy_until: Cell<u64>,
    bytes_carried: Cell<u64>,
    messages: Cell<u64>,
    /// Administratively down (fault injection); TCP sends fail while set.
    down: Cell<bool>,
    /// Drop/delay fault state; `None` on healthy links (the common case
    /// never allocates an RNG).
    faults: RefCell<Option<LinkFaults>>,
    /// Time occupied by reservations; what `busy_time` reads back.
    busy_ns: Cell<u64>,
    telem: LinkTelem,
    /// Instantaneous backlog (ns of queued serialisation work) observed at
    /// each reservation; the time-series sampler reads the current value and
    /// the per-sample peak, making link congestion visible in `kdtop`. A
    /// `set` gauge, so this link's own.
    backlog_ns: kdtelem::Gauge,
}

/// The `netsim link.*` cells no link reads back. Whoever makes the links
/// (the fabric) registers them once; every link records into clones.
#[derive(Clone)]
pub(crate) struct LinkTelem {
    queue_delay_ns: kdtelem::Histogram,
    busy_ns: kdtelem::Counter,
    bytes: kdtelem::Counter,
    drops: kdtelem::Counter,
}

impl LinkTelem {
    pub(crate) fn register(telem: &kdtelem::Registry) -> LinkTelem {
        LinkTelem {
            queue_delay_ns: telem.histogram("netsim", "link.queue_delay_ns"),
            busy_ns: telem.counter("netsim", "link.busy_ns"),
            bytes: telem.counter("netsim", "link.bytes"),
            drops: telem.counter("netsim", "link.drops"),
        }
    }
}

/// Outcome of a [`Link::reserve`]: when the message starts and finishes
/// occupying the link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reservation {
    pub start: SimTime,
    pub end: SimTime,
}

impl Link {
    /// A link of its own, counted in the ambient registry.
    pub fn new(bandwidth: f64) -> Self {
        let telem = kdtelem::current();
        Link::with_telem(bandwidth, LinkTelem::register(&telem), &telem)
    }

    /// A link recording into `telem`'s cells; its backlog gauge is
    /// registered with `registry`.
    pub(crate) fn with_telem(
        bandwidth: f64,
        telem: LinkTelem,
        registry: &kdtelem::Registry,
    ) -> Self {
        assert!(bandwidth > 0.0);
        Link {
            bandwidth,
            busy_until: Cell::new(0),
            bytes_carried: Cell::new(0),
            messages: Cell::new(0),
            down: Cell::new(false),
            faults: RefCell::new(None),
            busy_ns: Cell::new(0),
            telem,
            backlog_ns: registry.gauge("netsim", "link.backlog_ns"),
        }
    }

    /// Takes the link administratively down: TCP traffic over it fails
    /// until [`set_up`](Self::set_up).
    pub fn set_down(&self) {
        self.down.set(true);
    }

    /// Brings the link back up.
    pub fn set_up(&self) {
        self.down.set(false);
    }

    pub fn is_down(&self) -> bool {
        self.down.get()
    }

    /// Arms a deterministic per-chunk drop probability. The RNG stream is
    /// private to this link and seeded here, so other links' schedules are
    /// bit-identical whether or not this fault is armed.
    pub fn set_drop(&self, drop_p: f64, seed: u64) {
        assert!((0.0..=1.0).contains(&drop_p));
        let mut faults = self.faults.borrow_mut();
        let delay = faults.as_ref().map_or(Duration::ZERO, |f| f.delay);
        *faults = Some(LinkFaults {
            drop_p,
            rng: SimRng::seed_from_u64(seed),
            delay,
        });
    }

    /// Arms a fixed extra one-way delay for every TCP chunk on this link.
    pub fn set_delay(&self, delay: Duration) {
        let mut faults = self.faults.borrow_mut();
        match faults.as_mut() {
            Some(f) => f.delay = delay,
            None => {
                *faults = Some(LinkFaults {
                    drop_p: 0.0,
                    rng: SimRng::seed_from_u64(0),
                    delay,
                })
            }
        }
    }

    /// Clears drop/delay faults (the down flag is separate).
    pub fn clear_faults(&self) {
        *self.faults.borrow_mut() = None;
    }

    /// Samples fault state for one TCP chunk: the injected extra delay plus
    /// the number of retransmissions consumed by drops. `None` means the
    /// chunk was dropped more than `MAX_RETRANSMITS` times in a row — the
    /// connection resets. Healthy links never touch an RNG.
    pub fn sample_tcp_faults(&self) -> Option<(Duration, u32)> {
        let mut faults = self.faults.borrow_mut();
        let Some(f) = faults.as_mut() else {
            return Some((Duration::ZERO, 0));
        };
        let mut retries = 0u32;
        while f.drop_p > 0.0 && f.rng.random_bool(f.drop_p) {
            retries += 1;
            self.telem.drops.add(1);
            if retries > MAX_RETRANSMITS {
                return None;
            }
        }
        Some((f.delay, retries))
    }

    /// Serialisation delay of `bytes` at this link's bandwidth.
    pub fn wire_time(&self, bytes: u64) -> Duration {
        Duration::from_nanos((bytes as f64 * 1e9 / self.bandwidth) as u64)
    }

    /// Reserves the link for a message of `bytes`, occupying it for at least
    /// `min_occupancy`. `now` is the earliest possible start.
    pub fn reserve(&self, now: SimTime, bytes: u64, min_occupancy: Duration) -> Reservation {
        let occupancy = self.wire_time(bytes).max(min_occupancy);
        self.commit(now, bytes, occupancy)
    }

    /// Reserves at an explicit bandwidth share (used by the TCP path, which
    /// achieves only a fraction of the verbs goodput).
    pub fn reserve_at(
        &self,
        now: SimTime,
        bytes: u64,
        bandwidth: f64,
        min_occupancy: Duration,
    ) -> Reservation {
        let wire = Duration::from_nanos((bytes as f64 * 1e9 / bandwidth) as u64);
        let occupancy = wire.max(min_occupancy);
        self.commit(now, bytes, occupancy)
    }

    fn commit(&self, now: SimTime, bytes: u64, occupancy: Duration) -> Reservation {
        let start_ns = now.as_nanos().max(self.busy_until.get());
        let end_ns = start_ns + occupancy.as_nanos() as u64;
        self.busy_until.set(end_ns);
        self.bytes_carried.set(self.bytes_carried.get() + bytes);
        self.messages.set(self.messages.get() + 1);
        self.busy_ns.set(self.busy_ns.get() + (end_ns - start_ns));
        self.telem.queue_delay_ns.record(start_ns - now.as_nanos());
        self.telem.busy_ns.add(end_ns - start_ns);
        self.telem.bytes.add(bytes);
        self.backlog_ns.set(end_ns - now.as_nanos());
        Reservation {
            start: SimTime::from_nanos(start_ns),
            end: SimTime::from_nanos(end_ns),
        }
    }

    /// Earliest time a new reservation could start.
    pub fn busy_until(&self) -> SimTime {
        SimTime::from_nanos(self.busy_until.get())
    }

    /// Total payload bytes carried (telemetry).
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried.get()
    }

    /// Total messages carried (telemetry).
    pub fn messages(&self) -> u64 {
        self.messages.get()
    }

    /// Total time this link was occupied by reservations (telemetry); with
    /// the run's elapsed virtual time this gives link utilization.
    pub fn busy_time(&self) -> Duration {
        Duration::from_nanos(self.busy_ns.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> SimTime {
        SimTime::from_nanos(ns)
    }

    #[test]
    fn idle_link_starts_immediately() {
        let l = Link::new(1e9); // 1 GB/s -> 1 ns per byte
        let r = l.reserve(t(100), 500, Duration::ZERO);
        assert_eq!(r.start, t(100));
        assert_eq!(r.end, t(600));
    }

    #[test]
    fn back_to_back_serialises() {
        let l = Link::new(1e9);
        let a = l.reserve(t(0), 1000, Duration::ZERO);
        let b = l.reserve(t(0), 1000, Duration::ZERO);
        assert_eq!(a.end, t(1000));
        assert_eq!(b.start, t(1000));
        assert_eq!(b.end, t(2000));
    }

    #[test]
    fn min_occupancy_caps_message_rate() {
        let l = Link::new(1e12);
        let gap = Duration::from_nanos(120);
        let a = l.reserve(t(0), 8, gap);
        let b = l.reserve(t(0), 8, gap);
        assert_eq!(a.end, t(120));
        assert_eq!(b.end, t(240));
    }

    #[test]
    fn gap_in_traffic_leaves_link_idle() {
        let l = Link::new(1e9);
        l.reserve(t(0), 100, Duration::ZERO);
        let r = l.reserve(t(10_000), 100, Duration::ZERO);
        assert_eq!(r.start, t(10_000));
    }

    #[test]
    fn telemetry_counts() {
        let l = Link::new(1e9);
        l.reserve(t(0), 100, Duration::ZERO);
        l.reserve(t(0), 200, Duration::ZERO);
        assert_eq!(l.bytes_carried(), 300);
        assert_eq!(l.messages(), 2);
        assert_eq!(l.busy_time(), Duration::from_nanos(300));
    }

    #[test]
    fn down_flag_round_trips() {
        let l = Link::new(1e9);
        assert!(!l.is_down());
        l.set_down();
        assert!(l.is_down());
        l.set_up();
        assert!(!l.is_down());
    }

    #[test]
    fn drop_sampling_is_deterministic_per_seed() {
        let sample = |seed: u64| {
            let l = Link::new(1e9);
            l.set_drop(0.3, seed);
            (0..64)
                .map(|_| l.sample_tcp_faults().map(|(_, r)| r))
                .collect::<Vec<_>>()
        };
        assert_eq!(sample(7), sample(7), "same seed, same schedule");
        assert_ne!(sample(7), sample(8), "different seed diverges");
    }

    #[test]
    fn healthy_link_never_samples() {
        let l = Link::new(1e9);
        for _ in 0..16 {
            assert_eq!(l.sample_tcp_faults(), Some((Duration::ZERO, 0)));
        }
        l.set_delay(Duration::from_micros(50));
        assert_eq!(
            l.sample_tcp_faults(),
            Some((Duration::from_micros(50), 0))
        );
        l.clear_faults();
        assert_eq!(l.sample_tcp_faults(), Some((Duration::ZERO, 0)));
    }

    #[test]
    fn certain_drop_exhausts_retransmits() {
        let l = Link::new(1e9);
        l.set_drop(1.0, 1);
        assert_eq!(l.sample_tcp_faults(), None, "p=1 must reset");
    }

    #[test]
    fn queueing_delay_lands_in_registry() {
        let reg = kdtelem::Registry::new();
        let _g = kdtelem::enter(&reg);
        let l = Link::new(1e9);
        l.reserve(t(0), 1000, Duration::ZERO); // starts at 0, no queueing
        l.reserve(t(0), 1000, Duration::ZERO); // queues 1000ns behind the first
        let snap = reg.snapshot();
        let h = snap.histogram("netsim", "link.queue_delay_ns").unwrap();
        assert_eq!(h.stats.count, 2);
        assert_eq!(h.stats.min, 0);
        // 1000 lands in a log-linear bucket whose high end is < 1063.
        assert!(h.stats.max >= 1000 && h.stats.max < 1063);
        assert_eq!(snap.counter("netsim", "link.busy_ns"), Some(2000));
        assert_eq!(snap.counter("netsim", "link.bytes"), Some(2000));
    }
}
