//! Broker configuration.

use std::time::Duration;

use kdstorage::{LogConfig, StorageConfig};

/// Which transport serves the *request/response* datapaths (produce RPCs,
/// fetches, control plane). This is the axis that separates the paper's
/// three systems:
///
/// * `Tcp` + all RDMA toggles off  → "Kafka" (the unmodified baseline),
/// * `RdmaSendRecv` + toggles off  → "OSU Kafka" (two-sided RDMA messaging
///   with intermediate-buffer copies, §4),
/// * `Tcp` + RDMA toggles on       → "KafkaDirect" (TCP control plane,
///   one-sided RDMA datapaths).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    Tcp,
    RdmaSendRecv,
}

/// Per-datapath RDMA switches (§5: each module evaluated in isolation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RdmaToggles {
    /// §4.2.2 — producers write records straight into TP files.
    pub produce: bool,
    /// §4.3.2 — leaders push records to followers with WriteWithImm.
    pub replicate: bool,
    /// §4.4.2 — consumers fetch records and metadata slots with RDMA Reads.
    pub consume: bool,
}

impl RdmaToggles {
    pub fn all() -> Self {
        RdmaToggles {
            produce: true,
            replicate: true,
            consume: true,
        }
    }

    pub fn none() -> Self {
        Self::default()
    }

    pub fn any(&self) -> bool {
        self.produce || self.replicate || self.consume
    }
}

/// Continuous-observability switches. `None` (the default) runs the broker
/// exactly as before — no sampler task, no watchdog task, bit-identical
/// schedules. When set, the broker starts a [`kdtelem::Sampler`] (default
/// ring capacity) and a [`kdtelem::Watchdog`] (default poll and budget) on
/// its registry and serves their dumps over the admin path
/// (`Request::Series` / `Request::Health`).
#[derive(Debug, Clone)]
pub struct ObserveConfig {
    /// Virtual-time sampling interval for the time-series recorder.
    pub sample_interval: Duration,
}

impl Default for ObserveConfig {
    fn default() -> Self {
        ObserveConfig {
            sample_interval: Duration::from_millis(1),
        }
    }
}

/// Full broker configuration. Defaults follow the paper's §5 "Settings":
/// eight API threads, three network threads, preallocated log files.
#[derive(Debug, Clone)]
pub struct BrokerConfig {
    /// TCP control/data port.
    pub tcp_port: u16,
    /// RDMA CM base port; the broker binds `rdma_port` (produce QPs),
    /// `rdma_port + 1` (OSU transport), `rdma_port + 2` (consumer read-only
    /// QPs).
    pub rdma_port: u16,
    pub transport: Transport,
    pub rdma: RdmaToggles,
    /// Network processor threads (default 3).
    pub net_threads: usize,
    /// API worker threads (default 8).
    pub api_workers: usize,
    /// RDMA completion pollers (threads of the RDMA network module ➋).
    pub rdma_pollers: usize,
    pub log: LogConfig,
    /// Credits a follower grants a push-replication leader (§4.3.2).
    pub replication_credits: u32,
    /// Maximum bytes merged into one push-replication RDMA Write. The paper
    /// selects 1 KiB from the Fig 8 sweep.
    pub replication_max_batch: u32,
    /// Shared-mode hole timeout: how long a produce completion may wait for
    /// its predecessors before the session is aborted (§4.2.2).
    pub shared_order_timeout: Duration,
    /// Maximum completions one poller takes per CQ drain (`ibv_poll_cq`
    /// batch size). `1` is the one-completion-per-wakeup loop; larger
    /// values amortise the wakeup and poll charges across the batch and
    /// let same-file commits of one drain share a worker pass.
    pub cq_batch: usize,
    /// Buffers posted on the shared receive queue every produce/replication
    /// QP consumes from: the broker's *total* produce receive depth,
    /// independent of client count (DESIGN.md §13).
    pub srq_depth: usize,
    /// NIC contexts of the DCT-style lending pool accepted produce QPs
    /// multiplex over. `0` (the paper's configuration) has every accepted
    /// QP pin its own context instead.
    pub mux_pool: usize,
    /// Continuous telemetry (sampler + watchdog); `None` = off (default).
    pub observe: Option<ObserveConfig>,
    /// The file tier: `None` (default) keeps logs in memory only; `Some`
    /// spills sealed segments to files behind a zero-copy hot tier.
    pub storage: Option<StorageConfig>,
}

impl Default for BrokerConfig {
    fn default() -> Self {
        BrokerConfig {
            tcp_port: 9092,
            rdma_port: 18515,
            transport: Transport::Tcp,
            rdma: RdmaToggles::none(),
            net_threads: 3,
            api_workers: 8,
            rdma_pollers: 2,
            log: LogConfig::default(),
            replication_credits: 16,
            replication_max_batch: 1024,
            shared_order_timeout: Duration::from_millis(2),
            cq_batch: 16,
            srq_depth: 4096,
            mux_pool: 0,
            observe: None,
            storage: None,
        }
    }
}

impl BrokerConfig {
    /// The unmodified-Kafka baseline.
    pub fn kafka() -> Self {
        BrokerConfig::default()
    }

    /// The OSU-Kafka baseline: request messaging over two-sided RDMA, no
    /// one-sided datapaths.
    pub fn osu() -> Self {
        BrokerConfig {
            transport: Transport::RdmaSendRecv,
            ..BrokerConfig::default()
        }
    }

    /// KafkaDirect with the given datapath toggles.
    pub fn kafkadirect(rdma: RdmaToggles) -> Self {
        BrokerConfig {
            rdma,
            ..BrokerConfig::default()
        }
    }

    pub fn with_log(mut self, log: LogConfig) -> Self {
        self.log = log;
        self
    }

    pub fn with_workers(mut self, api_workers: usize) -> Self {
        self.api_workers = api_workers;
        self
    }

    pub fn with_cq_batch(mut self, cq_batch: usize) -> Self {
        assert!(cq_batch >= 1);
        self.cq_batch = cq_batch;
        self
    }

    pub fn with_rdma_pollers(mut self, rdma_pollers: usize) -> Self {
        assert!(rdma_pollers >= 1);
        self.rdma_pollers = rdma_pollers;
        self
    }

    pub fn with_srq_depth(mut self, srq_depth: usize) -> Self {
        assert!(srq_depth >= 1);
        self.srq_depth = srq_depth;
        self
    }

    pub fn with_mux_pool(mut self, mux_pool: usize) -> Self {
        self.mux_pool = mux_pool;
        self
    }

    pub fn with_observe(mut self, observe: ObserveConfig) -> Self {
        self.observe = Some(observe);
        self
    }

    pub fn with_storage(mut self, storage: StorageConfig) -> Self {
        self.storage = Some(storage);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_follow_paper_settings() {
        let c = BrokerConfig::default();
        assert_eq!(c.api_workers, 8);
        assert_eq!(c.net_threads, 3);
        assert_eq!(c.replication_max_batch, 1024);
        assert!(!c.rdma.any());
    }

    #[test]
    fn presets() {
        assert_eq!(BrokerConfig::kafka().transport, Transport::Tcp);
        assert_eq!(BrokerConfig::osu().transport, Transport::RdmaSendRecv);
        assert!(BrokerConfig::kafkadirect(RdmaToggles::all()).rdma.any());
    }
}
