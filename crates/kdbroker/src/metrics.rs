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

pub struct Metrics {
    pub produce_requests: Counter,
    pub produce_bytes: Counter,
    pub rdma_commits: Counter,
    pub rdma_commit_bytes: Counter,
    pub fetch_requests: Counter,
    pub empty_fetches: Counter,
    pub fetch_bytes: Counter,
    pub replica_fetches: Counter,
    pub push_writes: Counter,
    pub push_bytes: Counter,
    /// Bytes moved by broker-CPU copies (network buffer → file buffer).
    /// Zero on the RDMA produce path — the test for "zero copy".
    pub heap_copied_bytes: Counter,
    /// Virtual nanoseconds API workers spent processing.
    pub worker_busy_ns: Counter,
    /// RDMA writes answered (acks, error acks, credit returns) — not Sends:
    /// one counted ack answers up to `cq_batch` of them.
    pub acks_sent: Counter,
    pub slot_updates: Counter,
    /// Bytes currently pinned for RDMA (registered segments + slot regions).
    pub registered_bytes: Counter,
    pub produce_aborts: Counter,
    pub grants_revoked: Counter,
    /// Virtual nanoseconds network threads spent processing (fed by the
    /// broker's `ServicePool`).
    pub net_busy_ns: Counter,
    /// Bytes written to segment files by the durable tier.
    pub storage_bytes_flushed: Counter,
    /// Fsyncs issued by the durable tier.
    pub storage_fsyncs: Counter,
    /// Segments sealed (rotated to a new head file).
    pub storage_segments_rotated: Counter,
    /// Reads served from the in-memory (hot) tier.
    pub storage_hot_hits: Counter,
    /// Reads that had to go to the file (cold) tier.
    pub storage_hot_misses: Counter,
    /// Bytes read back from segment files (cold fetches + page-ins).
    pub storage_cold_read_bytes: Counter,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new(&kdtelem::current())
    }
}

impl Metrics {
    pub fn new(registry: &kdtelem::Registry) -> Self {
        // Registry names follow the `subsystem.metric` schema (see the
        // metric inventory in DESIGN.md); struct fields keep their flat
        // names for call-site brevity.
        let c = |name| registry.counter("kdbroker", name);
        Metrics {
            produce_requests: c("produce.requests"),
            produce_bytes: c("produce.bytes"),
            rdma_commits: c("rdma.commits"),
            rdma_commit_bytes: c("rdma.commit_bytes"),
            fetch_requests: c("fetch.requests"),
            empty_fetches: c("fetch.empty"),
            fetch_bytes: c("fetch.bytes"),
            replica_fetches: c("fetch.replica"),
            push_writes: c("repl.push_writes"),
            push_bytes: c("repl.push_bytes"),
            heap_copied_bytes: c("copy.heap_bytes"),
            worker_busy_ns: c("cpu.worker_busy_ns"),
            acks_sent: c("produce.acks_sent"),
            slot_updates: c("rdma.slot_updates"),
            registered_bytes: c("rdma.registered_bytes"),
            produce_aborts: c("produce.aborts"),
            grants_revoked: c("rdma.grants_revoked"),
            net_busy_ns: c("cpu.net_busy_ns"),
            storage_bytes_flushed: c("storage.bytes_flushed"),
            storage_fsyncs: c("storage.fsyncs"),
            storage_segments_rotated: c("storage.segments_rotated"),
            storage_hot_hits: c("storage.hot_hits"),
            storage_hot_misses: c("storage.hot_misses"),
            storage_cold_read_bytes: c("storage.cold_read_bytes"),
        }
    }

    pub fn add(&self, counter: &Counter, v: u64) {
        counter.add(v);
    }

    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            produce_requests: self.produce_requests.get(),
            produce_bytes: self.produce_bytes.get(),
            rdma_commits: self.rdma_commits.get(),
            rdma_commit_bytes: self.rdma_commit_bytes.get(),
            fetch_requests: self.fetch_requests.get(),
            empty_fetches: self.empty_fetches.get(),
            fetch_bytes: self.fetch_bytes.get(),
            replica_fetches: self.replica_fetches.get(),
            push_writes: self.push_writes.get(),
            push_bytes: self.push_bytes.get(),
            heap_copied_bytes: self.heap_copied_bytes.get(),
            worker_busy_ns: self.worker_busy_ns.get(),
            acks_sent: self.acks_sent.get(),
            slot_updates: self.slot_updates.get(),
            registered_bytes: self.registered_bytes.get(),
            produce_aborts: self.produce_aborts.get(),
            grants_revoked: self.grants_revoked.get(),
            net_busy_ns: self.net_busy_ns.get(),
            storage_bytes_flushed: self.storage_bytes_flushed.get(),
            storage_fsyncs: self.storage_fsyncs.get(),
            storage_segments_rotated: self.storage_segments_rotated.get(),
            storage_hot_hits: self.storage_hot_hits.get(),
            storage_hot_misses: self.storage_hot_misses.get(),
            storage_cold_read_bytes: self.storage_cold_read_bytes.get(),
        }
    }
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

impl Default for BrokerTelem {
    fn default() -> Self {
        BrokerTelem::new(&kdtelem::current())
    }
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

/// A point-in-time copy of every counter.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    pub produce_requests: u64,
    pub produce_bytes: u64,
    pub rdma_commits: u64,
    pub rdma_commit_bytes: u64,
    pub fetch_requests: u64,
    pub empty_fetches: u64,
    pub fetch_bytes: u64,
    pub replica_fetches: u64,
    pub push_writes: u64,
    pub push_bytes: u64,
    pub heap_copied_bytes: u64,
    pub worker_busy_ns: u64,
    pub acks_sent: u64,
    pub slot_updates: u64,
    pub registered_bytes: u64,
    pub produce_aborts: u64,
    pub grants_revoked: u64,
    /// Network-thread busy time (fed live by the broker's `ServicePool`; no
    /// longer patched in after the fact).
    pub net_busy_ns: u64,
    pub storage_bytes_flushed: u64,
    pub storage_fsyncs: u64,
    pub storage_segments_rotated: u64,
    pub storage_hot_hits: u64,
    pub storage_hot_misses: u64,
    pub storage_cold_read_bytes: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.add(&m.produce_requests, 2);
        m.add(&m.produce_requests, 3);
        m.add(&m.heap_copied_bytes, 100);
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
        a.add(&a.produce_requests, 2);
        b.add(&b.produce_requests, 5);
        // Per-broker snapshots stay private ...
        assert_eq!(a.snapshot().produce_requests, 2);
        assert_eq!(b.snapshot().produce_requests, 5);
        // ... while the registry aggregates by name.
        let snap = r.snapshot();
        assert_eq!(snap.counter("kdbroker", "produce.requests"), Some(7));
    }
}
