//! Raw-fabric microbenchmarks — the paper's C/C++ microbenchmarks of §4
//! (Figs 6, 7, 8), run against the simulated verbs instead of ConnectX-4s.
//!
//! "The microbenchmark is implemented in C/C++ and is not a part of Kafka.
//! The goal of this experiment is to show the performance upper-bound
//! achieved by RDMA networking." (§4.2.2)

use netsim::profile::Profile;
use netsim::Fabric;
use rnic::{
    Access, CompletionQueue, QpOptions, QueuePair, RNic, RdmaListener, RecvWr, SendWr, ShmBuf,
    WorkRequest,
};

use crate::stats::LatencyStats;

/// The two-machine microbenchmark rig: producers on machine A, a passive
/// "broker" buffer + notification hub on machine B. Each accepted QP gets
/// its own receive CQ and a replenisher task that recycles receive buffers
/// and forwards notifications into one hub channel (the C++ benchmark's
/// receiver thread).
pub struct MicroRig {
    pub client_nic: RNic,
    pub server_nic: RNic,
    /// 64 MiB target region (writes wrap around).
    pub region: rnic::MemoryRegion,
    /// The 8-byte reservation word.
    pub word: rnic::MemoryRegion,
    notifications: std::cell::RefCell<Option<sim::sync::mpsc::Receiver<rnic::Cqe>>>,
    accept_handle: sim::JoinHandle<()>,
}

pub const REGION_LEN: usize = 64 * 1024 * 1024;
const SERVER_RECV_DEPTH: usize = 1024;
const SERVER_RECV_BUF: usize = 1024;

impl MicroRig {
    pub async fn new() -> MicroRig {
        let fabric = Fabric::new(Profile::testbed());
        let a = fabric.add_node("client");
        let b = fabric.add_node("server");
        let client_nic = RNic::new(&a);
        let server_nic = RNic::new(&b);
        let region = server_nic.reg_mr(ShmBuf::zeroed(REGION_LEN), Access::all());
        let word = server_nic.reg_mr(ShmBuf::zeroed(8), Access::all());
        let (hub_tx, hub_rx) = sim::sync::mpsc::unbounded();
        let mut listener = RdmaListener::bind(&server_nic, 1);
        let nic2 = server_nic.clone();
        let accept_handle = sim::spawn(async move {
            let send_cq = nic2.create_cq(4096);
            while let Some(inc) = listener.accept().await {
                let recv_cq = nic2.create_cq(SERVER_RECV_DEPTH * 2);
                let qp = inc.accept(
                    &nic2,
                    send_cq.clone(),
                    recv_cq.clone(),
                    QpOptions::default(),
                );
                let bufs: Vec<ShmBuf> = (0..SERVER_RECV_DEPTH)
                    .map(|_| ShmBuf::zeroed(SERVER_RECV_BUF))
                    .collect();
                for (i, buf) in bufs.iter().enumerate() {
                    let _ = qp.post_recv(RecvWr {
                        wr_id: i as u64,
                        buf: Some(buf.as_slice()),
                    });
                }
                // Replenisher: recycle the receive and forward the CQE.
                let hub = hub_tx.clone();
                sim::spawn(async move {
                    while let Some(cqe) = recv_cq.next().await {
                        if !cqe.ok() {
                            break;
                        }
                        let _ = qp.post_recv(RecvWr {
                            wr_id: cqe.wr_id,
                            buf: Some(bufs[cqe.wr_id as usize].as_slice()),
                        });
                        if hub.try_send(cqe).is_err() {
                            break;
                        }
                    }
                });
            }
        });
        MicroRig {
            client_nic,
            server_nic,
            region,
            word,
            notifications: std::cell::RefCell::new(Some(hub_rx)),
            accept_handle,
        }
    }

    /// Next receiver-side notification (any QP).
    pub async fn next_notification(&self) -> rnic::Cqe {
        // Take the receiver out so no RefCell borrow lives across the await.
        let mut rx = self
            .notifications
            .borrow_mut()
            .take()
            .expect("one notification consumer at a time");
        let cqe = rx.recv().await.expect("hub alive");
        *self.notifications.borrow_mut() = Some(rx);
        cqe
    }

    /// Connects one producer QP from the client machine.
    pub async fn connect_producer(&self) -> (QueuePair, CompletionQueue) {
        let (send_cq, recv_cq) = self.client_nic.create_cq_pair(8192, 64);
        let qp = self
            .client_nic
            .connect(
                self.server_nic.node().id,
                1,
                send_cq.clone(),
                recv_cq,
                QpOptions::default(),
            )
            .await
            .expect("micro connect");
        (qp, send_cq)
    }

    /// Discards notifications in the background (bandwidth experiments
    /// that don't time them).
    pub fn spawn_recv_sink(&self) {
        let mut rx = self
            .notifications
            .borrow_mut()
            .take()
            .expect("one notification consumer at a time");
        sim::spawn(async move { while rx.recv().await.is_some() {} });
    }

    pub fn keep(&self) -> &sim::JoinHandle<()> {
        &self.accept_handle
    }
}

/// Produce coordination flavour for Fig 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MicroMode {
    Exclusive,
    SharedFaa,
    SharedCas,
}

/// Fig 6: aggregated WriteWithImm goodput for `producers` concurrent
/// producers in the given mode. Returns GiB/s.
pub fn fig6_goodput_gibps(
    mode: MicroMode,
    producers: usize,
    msg_size: usize,
    total_bytes: usize,
) -> f64 {
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let rig = MicroRig::new().await;
        rig.spawn_recv_sink();
        let per_producer = total_bytes / producers / msg_size;
        let t0 = sim::now();
        let mut handles = Vec::new();
        for _ in 0..producers {
            let (qp, send_cq) = rig.connect_producer().await;
            let region = rig.region.remote();
            let word = rig.word.remote();
            handles.push(sim::spawn(async move {
                run_producer(mode, qp, send_cq, region, word, msg_size, per_producer).await;
            }));
        }
        for h in handles {
            h.await.unwrap();
        }
        let elapsed = sim::now() - t0;
        let bytes = (per_producer * producers * msg_size) as f64;
        bytes / elapsed.as_secs_f64() / (1u64 << 30) as f64
    })
}

const WINDOW: usize = 64;

async fn run_producer(
    mode: MicroMode,
    qp: QueuePair,
    send_cq: CompletionQueue,
    region: rnic::RemoteMr,
    word: rnic::RemoteMr,
    msg_size: usize,
    count: usize,
) {
    let payload = ShmBuf::zeroed(msg_size);
    let faa_result = ShmBuf::zeroed(8);
    let mut outstanding = 0usize;
    // CAS mode keeps a local guess of the counter value.
    let mut cas_guess = 0u64;
    for i in 0..count {
        // Reserve a region (shared modes) — this is the serialising step.
        let offset = match mode {
            MicroMode::Exclusive => (i * msg_size) % (REGION_LEN - msg_size),
            MicroMode::SharedFaa => {
                qp.post_send(SendWr::new(
                    1,
                    WorkRequest::FetchAdd {
                        local: faa_result.as_slice(),
                        remote_addr: word.addr,
                        rkey: word.rkey,
                        add: msg_size as u64,
                    },
                ))
                .unwrap();
                let old = wait_atomic(&send_cq, &mut outstanding).await;
                (old as usize) % (REGION_LEN - msg_size)
            }
            MicroMode::SharedCas => {
                // Retry until the CAS lands; each failure returns the
                // current value to retry with (§4.2.2: CAS can fail, FAA
                // cannot — which is why the paper picks FAA).
                loop {
                    qp.post_send(SendWr::new(
                        2,
                        WorkRequest::CompareSwap {
                            local: faa_result.as_slice(),
                            remote_addr: word.addr,
                            rkey: word.rkey,
                            compare: cas_guess,
                            swap: cas_guess + msg_size as u64,
                        },
                    ))
                    .unwrap();
                    let old = wait_atomic(&send_cq, &mut outstanding).await;
                    if old == cas_guess {
                        cas_guess = old + msg_size as u64;
                        break (old as usize) % (REGION_LEN - msg_size);
                    }
                    cas_guess = old;
                }
            }
        };
        // The data write pipelines (unsignaled except for windowing).
        let signaled = outstanding >= WINDOW || i + 1 == count;
        qp.post_send(SendWr {
            wr_id: 9,
            op: WorkRequest::WriteImm {
                local: payload.as_slice(),
                remote_addr: region.addr + offset as u64,
                rkey: region.rkey,
                imm: i as u32,
            },
            signaled,
            trace: None,
        })
        .unwrap();
        outstanding += 1;
        if signaled {
            // Drain one completion to bound the pipeline.
            while send_cq.next().await.unwrap().opcode != rnic::CqOpcode::RdmaWrite {}
            outstanding = 0;
        }
    }
}

/// Waits for the next atomic completion, skipping write completions.
async fn wait_atomic(send_cq: &CompletionQueue, outstanding: &mut usize) -> u64 {
    loop {
        let cqe = send_cq.next().await.expect("cq alive");
        match cqe.opcode {
            rnic::CqOpcode::FetchAdd | rnic::CqOpcode::CompSwap => {
                return cqe.atomic_old.expect("atomic result");
            }
            _ => {
                *outstanding = outstanding.saturating_sub(1);
            }
        }
    }
}

/// Fig 7 notification approach.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NotifyMode {
    WriteWithImm,
    /// RDMA Write followed by a Send of `meta` bytes.
    WriteSend(usize),
}

/// Fig 7 (left): one-way notification latency in µs — post to receiver
/// completion — for a write of `msg_size`.
pub fn fig7_latency_us(mode: NotifyMode, msg_size: usize, samples: usize) -> f64 {
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let rig = MicroRig::new().await;
        let (qp, send_cq) = rig.connect_producer().await;
        sim::spawn(async move { while send_cq.next().await.is_some() {} });
        let payload = ShmBuf::zeroed(msg_size);
        let region = rig.region.remote();
        let mut stats = LatencyStats::new();
        for i in 0..samples {
            let t0 = sim::now();
            match mode {
                NotifyMode::WriteWithImm => {
                    qp.post_send(SendWr::unsignaled(
                        0,
                        WorkRequest::WriteImm {
                            local: payload.as_slice(),
                            remote_addr: region.addr,
                            rkey: region.rkey,
                            imm: i as u32,
                        },
                    ))
                    .unwrap();
                    rig.next_notification().await;
                }
                NotifyMode::WriteSend(meta) => {
                    qp.post_send(SendWr::unsignaled(
                        0,
                        WorkRequest::Write {
                            local: payload.as_slice(),
                            remote_addr: region.addr,
                            rkey: region.rkey,
                        },
                    ))
                    .unwrap();
                    let meta_buf = ShmBuf::zeroed(meta);
                    qp.post_send(SendWr::unsignaled(
                        1,
                        WorkRequest::Send {
                            local: meta_buf.as_slice(),
                        },
                    ))
                    .unwrap();
                    rig.next_notification().await;
                }
            }
            if i >= 3 {
                stats.record(sim::now() - t0);
            }
        }
        stats.median_us()
    })
}

/// Fig 7 (right): goodput of the data writes (GiB/s) under pipelined
/// notification.
pub fn fig7_bandwidth_gibps(mode: NotifyMode, msg_size: usize, count: usize) -> f64 {
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let rig = MicroRig::new().await;
        rig.spawn_recv_sink();
        let (qp, send_cq) = rig.connect_producer().await;
        let payload = ShmBuf::zeroed(msg_size);
        let region = rig.region.remote();
        let t0 = sim::now();
        let mut since_signal = 0usize;
        for i in 0..count {
            let offset = (i * msg_size) % (REGION_LEN - msg_size);
            let signaled = since_signal >= WINDOW || i + 1 == count;
            match mode {
                NotifyMode::WriteWithImm => {
                    qp.post_send(SendWr {
                        wr_id: 0,
                        op: WorkRequest::WriteImm {
                            local: payload.as_slice(),
                            remote_addr: region.addr + offset as u64,
                            rkey: region.rkey,
                            imm: i as u32,
                        },
                        signaled,
                        trace: None,
                    })
                    .unwrap();
                }
                NotifyMode::WriteSend(meta) => {
                    qp.post_send(SendWr::unsignaled(
                        0,
                        WorkRequest::Write {
                            local: payload.as_slice(),
                            remote_addr: region.addr + offset as u64,
                            rkey: region.rkey,
                        },
                    ))
                    .unwrap();
                    let meta_buf = ShmBuf::zeroed(meta);
                    qp.post_send(SendWr {
                        wr_id: 1,
                        op: WorkRequest::Send {
                            local: meta_buf.as_slice(),
                        },
                        signaled,
                        trace: None,
                    })
                    .unwrap();
                }
            }
            since_signal += 1;
            if signaled {
                send_cq.next().await.unwrap();
                since_signal = 0;
            }
        }
        let elapsed = sim::now() - t0;
        (count * msg_size) as f64 / elapsed.as_secs_f64() / (1u64 << 30) as f64
    })
}

/// Fig 8: merging 64-byte records into `batch_size`-byte RDMA Writes when
/// records arrive faster than small writes can be replicated ("the leader
/// receives small entries at a higher rate than it can replicate them",
/// §4.3.2). The leader keeps a bounded window of outstanding writes (the
/// credit mechanism); latency is post→receiver-completion per write.
/// Returns `(median latency µs, goodput GiB/s)`.
pub fn fig8_batching(batch_size: usize, records: usize) -> (f64, f64) {
    const RECORD: usize = 64;
    const REPL_WINDOW: usize = 16;
    let rt = sim::Runtime::new();
    rt.block_on(async move {
        let rig = MicroRig::new().await;
        let (qp, send_cq) = rig.connect_producer().await;
        sim::spawn(async move { while send_cq.next().await.is_some() {} });
        let region = rig.region.remote();
        let per_batch = (batch_size / RECORD).max(1);
        let payload = ShmBuf::zeroed(per_batch * RECORD);
        let mut latencies = LatencyStats::new();
        let t0 = sim::now();
        let mut sent = 0usize;
        let mut batch_index = 0usize;
        let mut births = Vec::new();
        let mut outstanding = 0usize;
        while sent < records {
            let n = per_batch.min(records - sent);
            if outstanding >= REPL_WINDOW {
                let cqe = rig.next_notification().await;
                latencies.record(sim::now() - births[cqe.imm.unwrap_or(0) as usize]);
                outstanding -= 1;
            }
            births.push(sim::now());
            qp.post_send(SendWr::unsignaled(
                0,
                WorkRequest::WriteImm {
                    local: payload.slice(0, n * RECORD),
                    remote_addr: region.addr
                        + ((batch_index * per_batch * RECORD)
                            % (REGION_LEN - batch_size.max(RECORD)))
                            as u64,
                    rkey: region.rkey,
                    imm: batch_index as u32,
                },
            ))
            .unwrap();
            outstanding += 1;
            sent += n;
            batch_index += 1;
        }
        while outstanding > 0 {
            let cqe = rig.next_notification().await;
            latencies.record(sim::now() - births[cqe.imm.unwrap_or(0) as usize]);
            outstanding -= 1;
        }
        let elapsed = sim::now() - t0;
        let gibps = (sent * RECORD) as f64 / elapsed.as_secs_f64() / (1u64 << 30) as f64;
        (latencies.median_us(), gibps)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig6_exclusive_reaches_line_rate_for_large_msgs() {
        let g = fig6_goodput_gibps(MicroMode::Exclusive, 1, 256 * 1024, 32 << 20);
        assert!(g > 5.0, "large-message goodput {g} GiB/s");
    }

    #[test]
    fn fig6_shared_faa_small_messages_rate_limited() {
        // 64 B × 2.68 Mops/s ≈ 0.16 GiB/s ceiling for FAA-bound produce.
        let g = fig6_goodput_gibps(MicroMode::SharedFaa, 5, 64, 1 << 20);
        assert!(
            g < 0.3,
            "shared FAA 64B goodput {g} GiB/s exceeds atomic cap"
        );
    }

    #[test]
    fn fig7_imm_latency_close_to_paper() {
        let us = fig7_latency_us(NotifyMode::WriteWithImm, 64, 20);
        assert!(us > 0.5 && us < 3.0, "WriteWithImm latency {us}us");
        let ws = fig7_latency_us(NotifyMode::WriteSend(16), 64, 20);
        assert!(ws > us, "Write+Send must be slower than WriteWithImm");
    }

    #[test]
    fn fig8_batching_improves_small_write_goodput() {
        let (l1, g1) = fig8_batching(64, 4096);
        let (l2, g2) = fig8_batching(1024, 8192);
        let (l3, g3) = fig8_batching(4096, 16384);
        assert!(g2 > 2.0 * g1, "batching goodput {g1} -> {g2}");
        assert!(l1 < 16.0, "no-batching latency {l1}us");
        assert!(l3 > l2, "latency must rise for large batches: {l2} -> {l3}");
        assert!(g3 > 5.0, "large batches reach line rate: {g3}");
    }
}
