//! Calibrated cost constants describing the paper's testbed.
//!
//! Every figure in the paper is a function of these numbers. Each constant
//! cites the paper section (or the measured value in the paper) it is
//! calibrated against. `Profile::testbed()` is the 12-node InfiniBand cluster
//! of §5 ("Settings"); `Profile::fast_test()` zeroes the model for pure logic
//! tests where virtual time is irrelevant.

use std::time::Duration;

pub const KIB: u64 = 1024;
pub const MIB: u64 = 1024 * KIB;
pub const GIB: u64 = 1024 * MIB;

/// Network-level constants (fabric, RNIC engine, TCP stack).
#[derive(Debug, Clone)]
pub struct NetProfile {
    /// Link goodput in bytes/second. §4.3.2: "the link bandwidth of
    /// 6 GiB/sec" on 56 Gbit/s ConnectX-4.
    pub link_bandwidth: f64,
    /// Wire packet (MTU) size in bytes. §4.3.2: "the packet size in our
    /// network is 2 KiB".
    pub packet_size: u64,
    /// One-way propagation + switch delay.
    pub propagation: Duration,
    /// Per-message wire header bytes (IB LRH/BTH/ICRC etc.); affects
    /// small-message goodput.
    pub header_bytes: u64,

    /// Initiator cost to ring the doorbell and fetch a WQE.
    pub rdma_post_overhead: Duration,
    /// Minimum spacing between ops on one NIC port — caps the verbs message
    /// rate at ~8.3 Mops/s, the empty-fetch rate the paper measures in §5.3.
    pub rdma_min_op_gap: Duration,
    /// Cost from CQE arrival to a polling thread observing it.
    pub rdma_completion_overhead: Duration,
    /// Marginal initiator cost per *linked* WR in a posted list beyond the
    /// head (`ibv_post_send` postlist: one doorbell, then the NIC walks the
    /// chained WQEs). The head WR pays the full `rdma_post_overhead`; WR
    /// `i > 0` in the list adds `i * doorbell_overhead` to its post time. A
    /// one-element list is therefore exactly a single post, whatever this
    /// constant is.
    pub doorbell_overhead: Duration,
    /// Marginal CPU cost per *additional* CQE taken in one batched
    /// `ibv_poll_cq` drain, beyond the first (which pays the poller's full
    /// per-poll charge). A batch of one is exactly a single poll, whatever
    /// this constant is.
    pub cqe_batch_marginal: Duration,
    /// Responder-side execution time of an 8-byte atomic (PCIe
    /// read-modify-write + fence; atomics are markedly slower than reads on
    /// real RNICs). Calibrated so a serialised FAA round trip costs ~2.5 µs
    /// more than an exclusive produce (§5.1: "The latency of an exclusive
    /// RDMA producer is 2.5 us lower than the shared TCP/RDMA producer").
    pub atomic_exec: Duration,
    /// Minimum spacing of atomics to the *same address*. §4.2.2: "the
    /// throughput of RDMA atomics ... cannot exceed 2.68 Mreq/sec for a
    /// single counter" → 1/2.68 MHz ≈ 373 ns.
    pub atomic_same_addr_gap: Duration,
    /// Responder DMA-fetch cost for serving an RDMA Read.
    pub read_response_overhead: Duration,
    /// NIC QP-context cache capacity, in resident QP contexts per device.
    /// Past this many connected (non-multiplexed) QPs, every op risks an
    /// on-NIC cache miss that fetches QP/WQE/CQ state over PCIe — the
    /// connection-scaling knee RDMAvisor §2 measures on real RNICs. `0`
    /// disables the model entirely (like `doorbell_overhead` in
    /// `fast_test`).
    pub nic_cache_qps: u64,
    /// Full-miss port-occupancy penalty per op once the context cache is
    /// overcommitted. Charged as extra per-op occupancy on the affected
    /// NIC's port, scaled by the miss rate `(resident - capacity) /
    /// resident`, so aggregate throughput — not just latency — collapses
    /// past the knee. Calibrated as ~3 PCIe round trips (QP context, WQE,
    /// CQ context at ~400 ns each).
    pub qp_cache_miss: Duration,

    /// One-way latency of the kernel TCP/IP (IPoIB) stack beyond the
    /// sender's syscall: softirq, IPoIB encapsulation, interrupt, socket
    /// delivery. Calibrated so the small-message TCP RTT is ~70–90 µs,
    /// consistent with Kafka's ≥200 µs fetch RTT (§5.3) once broker thread
    /// hops are added.
    pub tcp_stack_oneway: Duration,
    /// Sender-side send()/write() syscall cost, charged per chunk.
    pub tcp_syscall: Duration,
    /// TCP goodput efficiency over the 56 Gbit/s link (IPoIB reaches well
    /// under half of the verbs goodput).
    pub tcp_bandwidth_factor: f64,
    /// Kernel↔user copy bandwidth (the "driver copies all received messages
    /// from its receive buffers to Kafka's receive buffers" copy, §4.2.1).
    pub kernel_copy_bandwidth: f64,
    /// Socket buffer (flow-control window) per direction.
    pub socket_buffer: u64,
    /// Maximum bytes per simulated segment write.
    pub tcp_mss: u64,
    /// Three-way handshake + connection setup cost.
    pub tcp_connect: Duration,
}

/// CPU-side constants for brokers and clients (the "Java" costs of §5.1).
#[derive(Debug, Clone)]
pub struct CpuProfile {
    /// Waking a thread blocked on a poll/selector. §5.1 attributes part of
    /// the 88 µs produce overhead to "thread invocations due to blocking
    /// polling of the RNIC events, the network, and producer's API".
    pub wakeup: Duration,
    /// Forwarding a request between thread pools via the shared request
    /// queue. §5.1: "forwarding a request takes 11 µs".
    pub handoff: Duration,
    /// Network-processor-thread cost per TCP request/response (read, parse,
    /// serialize, write). Calibrated against §5.3: a broker saturates at
    /// ~53 K empty fetches/s with the default 3 network threads.
    pub net_request_cost: Duration,
    /// Fixed API-worker cost to process one produce request (offset
    /// assignment, log bookkeeping). Together with `crc_bandwidth`
    /// calibrated against Fig 13 (630 MiB/s per worker at 4 KiB) and §5.1's
    /// "14 µs ... including CRC32C".
    pub api_produce_base: Duration,
    /// Fixed API-worker cost to process one fetch request.
    pub api_fetch_base: Duration,
    /// CRC32C verification bandwidth (bytes/s).
    pub crc_bandwidth: f64,
    /// Bandwidth of Kafka's Java-heap copies (network receive buffer →
    /// file buffer, §4.2.1). Deliberately slow: the paper's Kafka tops out
    /// at 280 MiB/s for 32 KiB records (Fig 11).
    pub heap_copy_bandwidth: f64,
    /// Plain memcpy bandwidth for well-behaved copies (off-heap → native
    /// buffer in the RDMA consumer, §5.3).
    pub memcpy_bandwidth: f64,
    /// Producer-side defensive copy, fixed part. §5.1: "the producer API
    /// makes a copy of user data to prevent mutation of it".
    pub producer_copy_base: Duration,
    /// Extra client-side pipeline cost of the original Kafka (and OSU)
    /// producer/consumer path (record accumulator, sender thread, selector);
    /// absent from the leaner RDMA client path.
    pub tcp_client_extra: Duration,
    /// Leader-side cost to issue one push-replication RDMA write (JNI post
    /// path on the replication worker). Calibrated against Fig 17: without
    /// batching, a flood of 64 B records caps replication at ~3.8 MiB/s of
    /// 32 B produces.
    pub repl_post_cost: Duration,
}

/// Full testbed description.
#[derive(Debug, Clone)]
pub struct Profile {
    pub net: NetProfile,
    pub cpu: CpuProfile,
}

impl Profile {
    /// The paper's testbed (§5 "Settings"): 56 Gbit/s ConnectX-4 InfiniBand,
    /// 2×8-core Xeon E5-2630 v3, tmpfs-backed logs.
    pub fn testbed() -> Self {
        Profile {
            net: NetProfile {
                link_bandwidth: 6.0 * GIB as f64,
                packet_size: 2 * KIB,
                propagation: Duration::from_nanos(650),
                header_bytes: 30,
                rdma_post_overhead: Duration::from_nanos(200),
                rdma_min_op_gap: Duration::from_nanos(120),
                rdma_completion_overhead: Duration::from_nanos(500),
                doorbell_overhead: Duration::from_nanos(40),
                cqe_batch_marginal: Duration::from_nanos(100),
                atomic_exec: Duration::from_nanos(1200),
                atomic_same_addr_gap: Duration::from_nanos(373),
                read_response_overhead: Duration::from_nanos(300),
                nic_cache_qps: 1024,
                qp_cache_miss: Duration::from_nanos(1200),
                tcp_stack_oneway: Duration::from_micros(30),
                tcp_syscall: Duration::from_micros(8),
                tcp_bandwidth_factor: 0.45,
                kernel_copy_bandwidth: 2.0 * GIB as f64,
                socket_buffer: MIB,
                tcp_mss: 16 * KIB,
                tcp_connect: Duration::from_micros(200),
            },
            cpu: CpuProfile {
                wakeup: Duration::from_micros(10),
                handoff: Duration::from_micros(11),
                net_request_cost: Duration::from_micros(17),
                api_produce_base: Duration::from_micros(5),
                api_fetch_base: Duration::from_micros(7),
                crc_bandwidth: 3.4e9,
                heap_copy_bandwidth: 0.45e9,
                memcpy_bandwidth: 6.0e9,
                producer_copy_base: Duration::from_micros(2),
                tcp_client_extra: Duration::from_micros(55),
                repl_post_cost: Duration::from_micros(8),
            },
        }
    }

    /// A profile with (almost) all costs zeroed: logic/unit tests use this
    /// so protocol behaviour can be asserted without timing arithmetic.
    /// Minimal non-zero gaps are kept where code relies on time advancing
    /// (e.g. FIFO tie-breaks do not need them, but polling loops must not
    /// spin forever at one instant).
    pub fn fast_test() -> Self {
        let zero = Duration::ZERO;
        let tick = Duration::from_nanos(1);
        Profile {
            net: NetProfile {
                link_bandwidth: 1e15,
                packet_size: 2 * KIB,
                propagation: tick,
                header_bytes: 0,
                rdma_post_overhead: zero,
                rdma_min_op_gap: zero,
                rdma_completion_overhead: zero,
                doorbell_overhead: zero,
                cqe_batch_marginal: zero,
                atomic_exec: zero,
                atomic_same_addr_gap: zero,
                read_response_overhead: zero,
                nic_cache_qps: 0,
                qp_cache_miss: zero,
                tcp_stack_oneway: tick,
                tcp_syscall: zero,
                tcp_bandwidth_factor: 1.0,
                kernel_copy_bandwidth: 1e15,
                socket_buffer: MIB,
                tcp_mss: 16 * KIB,
                tcp_connect: tick,
            },
            cpu: CpuProfile {
                wakeup: zero,
                handoff: zero,
                net_request_cost: zero,
                api_produce_base: zero,
                api_fetch_base: zero,
                crc_bandwidth: 1e15,
                heap_copy_bandwidth: 1e15,
                memcpy_bandwidth: 1e15,
                producer_copy_base: zero,
                tcp_client_extra: zero,
                repl_post_cost: zero,
            },
        }
    }
}

impl NetProfile {
    /// Time for `bytes` on the wire at full link goodput (headers included).
    pub fn wire_time(&self, bytes: u64) -> Duration {
        let total = bytes + self.header_bytes;
        Duration::from_nanos((total as f64 * 1e9 / self.link_bandwidth) as u64)
    }
}

/// Cost of copying `bytes` at `bandwidth` bytes/s.
pub fn copy_time(bytes: u64, bandwidth: f64) -> Duration {
    Duration::from_nanos((bytes as f64 * 1e9 / bandwidth) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn testbed_sane() {
        let p = Profile::testbed();
        // 6 GiB/s, ~1 KiB: ~160 ns
        let t = p.net.wire_time(1000);
        assert!(
            t > Duration::from_nanos(140) && t < Duration::from_nanos(200),
            "{t:?}"
        );
        // The atomic rate limit is the paper's 2.68 Mops/s.
        let rate = 1e9 / p.net.atomic_same_addr_gap.as_nanos() as f64;
        assert!((rate / 1e6 - 2.68).abs() < 0.02, "rate={rate}");
    }

    #[test]
    fn fast_test_is_fast() {
        let p = Profile::fast_test();
        assert!(p.net.wire_time(1 << 30) < Duration::from_micros(2));
        assert_eq!(p.cpu.handoff, Duration::ZERO);
    }

    #[test]
    fn copy_time_scales() {
        assert_eq!(copy_time(1_000_000, 1e9), Duration::from_millis(1));
        assert_eq!(copy_time(0, 1e9), Duration::ZERO);
    }
}
