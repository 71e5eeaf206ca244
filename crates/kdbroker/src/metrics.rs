//! Broker telemetry.
//!
//! Counters back the paper's CPU-load and offload claims: §5.1's "3.3×
//! reduction in CPU load", §5.3's "no CPU involvement" for RDMA fetches, and
//! §7's memory-usage discussion are all observable here (and asserted in
//! integration tests).
//!
//! Every counter is a [`kdtelem::Counter`] registered with the ambient
//! [`kdtelem::Registry`] under component `"kdbroker"`: each broker keeps
//! private cells (so [`Metrics::snapshot`] is exact per broker) while the
//! registry's own snapshot rolls all brokers up by name.

use kdtelem::Counter;

/// Each counter is one line: `field = "registry.name"`. The table derives
/// [`Metrics`], its constructor (which registers the counters in table
/// order), [`MetricsSnapshot`] and [`Metrics::snapshot`].
macro_rules! counters {
    ($( $(#[$doc:meta])* $field:ident = $name:literal, )*) => {
        /// The broker's counters. Registry names follow the
        /// `subsystem.metric` schema (see the metric inventory in
        /// DESIGN.md); fields keep flat names for call-site brevity.
        pub struct Metrics {
            $( $(#[$doc])* pub $field: Counter, )*
        }

        impl Metrics {
            pub fn new(registry: &kdtelem::Registry) -> Self {
                Metrics {
                    $( $field: registry.counter("kdbroker", $name), )*
                }
            }

            pub fn snapshot(&self) -> MetricsSnapshot {
                MetricsSnapshot {
                    $( $field: self.$field.get(), )*
                }
            }
        }

        /// A point-in-time copy of every counter.
        #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
        pub struct MetricsSnapshot {
            $( $(#[$doc])* pub $field: u64, )*
        }
    };
}

counters! {
    produce_requests = "produce.requests",
    produce_bytes = "produce.bytes",
    rdma_commits = "rdma.commits",
    rdma_commit_bytes = "rdma.commit_bytes",
    fetch_requests = "fetch.requests",
    empty_fetches = "fetch.empty",
    fetch_bytes = "fetch.bytes",
    replica_fetches = "fetch.replica",
    push_writes = "repl.push_writes",
    push_bytes = "repl.push_bytes",
    /// Bytes moved by broker-CPU copies (network buffer → file buffer).
    /// Zero on the RDMA produce path — the test for "zero copy".
    heap_copied_bytes = "copy.heap_bytes",
    /// Virtual nanoseconds API workers spent processing.
    worker_busy_ns = "cpu.worker_busy_ns",
    /// RDMA writes answered (acks, error acks, credit returns) — not Sends:
    /// one counted ack answers up to `cq_batch` of them.
    acks_sent = "produce.acks_sent",
    slot_updates = "rdma.slot_updates",
    /// Bytes currently pinned for RDMA (registered segments + slot regions).
    registered_bytes = "rdma.registered_bytes",
    produce_aborts = "produce.aborts",
    grants_revoked = "rdma.grants_revoked",
    /// Virtual nanoseconds network threads spent processing (fed live by
    /// the broker's `ServicePool`).
    net_busy_ns = "cpu.net_busy_ns",
    /// Bytes written to segment files by the durable tier.
    storage_bytes_flushed = "storage.bytes_flushed",
    /// Fsyncs issued by the durable tier.
    storage_fsyncs = "storage.fsyncs",
    /// Segments sealed (rotated to a new head file).
    storage_segments_rotated = "storage.segments_rotated",
    /// Reads served from the in-memory (hot) tier.
    storage_hot_hits = "storage.hot_hits",
    /// Reads that had to go to the file (cold) tier.
    storage_hot_misses = "storage.hot_misses",
    /// Bytes read back from segment files (cold fetches + page-ins).
    storage_cold_read_bytes = "storage.cold_read_bytes",
}

/// Latency histograms for one broker, registered with the ambient
/// [`kdtelem::Registry`]. Histograms record per-API *service* latency: time
/// an API worker spends on a request (excluding deferred replication
/// waits), in virtual nanoseconds.
pub struct BrokerTelem {
    /// The registry this broker reports into; also serves the admin
    /// `Telemetry` request (JSON-lines snapshot) and records trace spans.
    pub registry: kdtelem::Registry,
    pub api_produce_ns: kdtelem::Histogram,
    pub api_fetch_ns: kdtelem::Histogram,
    pub api_control_ns: kdtelem::Histogram,
    /// RDMA produce commits: completion dequeue → records visible (§4.2.2).
    pub rdma_commit_ns: kdtelem::Histogram,
    /// Replication latency: push write post → follower NIC ack, or pull
    /// fetch round-trips that returned data (§4.3).
    pub replicate_ns: kdtelem::Histogram,
    /// Modeled latency of one durable-tier drain (flush bytes + fsyncs) as
    /// charged on the virtual clock — the fsync latency distribution.
    pub storage_fsync_ns: kdtelem::Histogram,
}

impl BrokerTelem {
    pub fn new(registry: &kdtelem::Registry) -> Self {
        let h = |name| registry.histogram("kdbroker", name);
        BrokerTelem {
            registry: registry.clone(),
            api_produce_ns: h("api.produce_ns"),
            api_fetch_ns: h("api.fetch_ns"),
            api_control_ns: h("api.control_ns"),
            rdma_commit_ns: h("rdma.commit_ns"),
            replicate_ns: h("repl.replicate_ns"),
            storage_fsync_ns: h("storage.fsync_ns"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new(&kdtelem::Registry::new());
        m.produce_requests.add(2);
        m.produce_requests.add(3);
        m.heap_copied_bytes.add(100);
        let s = m.snapshot();
        assert_eq!(s.produce_requests, 5);
        assert_eq!(s.heap_copied_bytes, 100);
        assert_eq!(s.rdma_commits, 0);
    }

    #[test]
    fn counters_roll_up_into_registry() {
        let r = kdtelem::Registry::new();
        let a = Metrics::new(&r);
        let b = Metrics::new(&r);
        a.produce_requests.add(2);
        b.produce_requests.add(5);
        // Per-broker snapshots stay private ...
        assert_eq!(a.snapshot().produce_requests, 2);
        assert_eq!(b.snapshot().produce_requests, 5);
        // ... while the registry aggregates by name.
        let snap = r.snapshot();
        assert_eq!(snap.counter("kdbroker", "produce.requests"), Some(7));
    }
}
