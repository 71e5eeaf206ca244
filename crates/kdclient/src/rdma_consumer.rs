//! The KafkaDirect RDMA consumer (§4.4.2, Fig 9): fetches records with
//! one-sided RDMA Reads — the broker's CPU is never involved.
//!
//! One consumer holds n ≥ 1 subscriptions to partitions of one broker under
//! one consumer id, over one QP. [`RdmaConsumer::connect`] makes the first;
//! [`RdmaConsumer::subscribe`] adds more.
//!
//! Mechanics reproduced from the paper:
//! * **Getting access**: a TCP request returns the file's region, its last
//!   readable byte, and whether it is mutable.
//! * **Metadata slots**: "for each RDMA consumer, KafkaDirect brokers
//!   allocate a contiguous RDMA-accessible region that is used for storing
//!   metadata slots of all mutable files requested by the consumer", so a
//!   single RDMA Read refreshes every subscription. It is issued only when
//!   some subscription has nothing left to read.
//! * **Fetch size**: RDMA Reads fetch a configurable number of bytes
//!   (default 2 KiB); partially fetched batches are kept until complete.
//! * **File roll**: when a slot reports the file immutable and fully read,
//!   the consumer releases it and requests access to the next file.

use std::collections::VecDeque;

use kdstorage::record::{peek_total_len, RecordView, LENGTH_PREFIX_LEN};
use kdstorage::TopicPartition;
use kdwire::slots::{SlotView, SLOTS_PER_CONSUMER, SLOT_SIZE};
use kdwire::{BrokerAddr, ConsumeAccessResp, RemoteRegion, Request, Response};
use netsim::profile::copy_time;
use netsim::NodeHandle;
use rnic::{SendWr, ShmBuf, WorkRequest};

use crate::consumer::drain_batches;
use crate::data_plane::{DataPlane, Port};
use crate::error::{check, ClientError};

/// Default fetch size: "2 KiB as it provides a good trade-off between
/// latency ... and bandwidth" (§4.4.2).
pub const DEFAULT_FETCH_SIZE: u32 = 2048;

/// The chunk one read's complete batches are copied into: the read and the
/// part of a batch left over from the reads before it, each at most
/// `fetch_size` while batches are no larger than a read. A larger batch
/// gets a chunk of its own.
fn chunk_size(fetch_size: u32) -> usize {
    2 * (fetch_size as usize).max(1)
}

/// Telemetry counters of one consumer.
#[derive(Debug, Default, Clone, Copy)]
pub struct ConsumerStats {
    pub data_reads: u64,
    pub data_bytes: u64,
    pub slot_reads: u64,
    pub access_requests: u64,
    pub releases: u64,
    pub rdma_offset_commits: u64,
}

struct FileState {
    grant: ConsumeAccessResp,
    /// Next byte to fetch from the file.
    read_pos: u32,
    /// First unreadable byte (refreshed from the metadata slot).
    last_readable: u32,
    mutable: bool,
}

/// One subscribed topic partition.
struct Subscription {
    tp: TopicPartition,
    /// Next record offset to deliver to the application.
    offset: u64,
    /// The file being read; `None` until the first poll requests access.
    file: Option<FileState>,
    /// Partially fetched batch bytes (§4.4.2 "the partially read records
    /// are kept until all their bytes are fetched").
    partial: Vec<u8>,
    /// EWMA of recent batch sizes (adaptive mode).
    avg_batch: f64,
    /// EXTENSION (§5.4 future work): RDMA-writable offset slot for one-sided
    /// offset commits.
    offset_slot: Option<RemoteRegion>,
}

impl Subscription {
    /// Whether every readable byte of the current file has been fetched.
    fn exhausted(&self) -> bool {
        self.file
            .as_ref()
            .is_none_or(|f| f.read_pos >= f.last_readable)
    }
}

/// The RDMA consumer.
pub struct RdmaConsumer {
    plane: DataPlane,
    consumer_id: u64,
    subs: Vec<Subscription>,
    pub fetch_size: u32,
    /// Parsed records, tagged with their subscription's index.
    ready: VecDeque<(usize, RecordView)>,
    /// Where delivered records live (see `drain_batches`); the chunk size
    /// follows `fetch_size` (see [`chunk_size`]).
    chunks: kdbuf::Pool,
    fetch_buf: ShmBuf,
    /// Local copy of the broker's slot region for this consumer id.
    slot_buf: ShmBuf,
    /// EXTENSION (§4.4.2 alternative): size RDMA Reads from the parsed batch
    /// headers instead of a fixed fetch size.
    pub adaptive_fetch: bool,
    commit_buf: ShmBuf,
    pub stats: ConsumerStats,
    telem: kdtelem::Registry,
    /// End-to-end fetch latency: data-carrying `poll` entry → records parsed.
    fetch_e2e_ns: kdtelem::Histogram,
}

impl RdmaConsumer {
    /// Connects to `broker` and subscribes to `topic`/`partition` from
    /// `offset`.
    pub async fn connect(
        node: &NodeHandle,
        broker: BrokerAddr,
        topic: &str,
        partition: u32,
        offset: u64,
    ) -> Result<RdmaConsumer, ClientError> {
        let (plane, _) = DataPlane::open(node, broker, Port::CONSUME).await?;
        let telem = kdtelem::current();
        let fetch_e2e_ns = telem.histogram("kdclient", "fetch.e2e_ns");
        let mut consumer = RdmaConsumer {
            plane,
            consumer_id: sim::rng::range_u64(1..u64::MAX),
            subs: Vec::new(),
            fetch_size: DEFAULT_FETCH_SIZE,
            ready: VecDeque::new(),
            chunks: kdbuf::Pool::new(chunk_size(DEFAULT_FETCH_SIZE)),
            fetch_buf: ShmBuf::zeroed(DEFAULT_FETCH_SIZE as usize),
            slot_buf: ShmBuf::zeroed(SLOTS_PER_CONSUMER * SLOT_SIZE),
            adaptive_fetch: false,
            commit_buf: ShmBuf::zeroed(8),
            stats: ConsumerStats::default(),
            telem,
            fetch_e2e_ns,
        };
        consumer.subscribe(topic, partition, offset);
        Ok(consumer)
    }

    /// Adds a subscription to another partition of the same broker, starting
    /// at `offset`. Access to its file is requested by the next poll.
    pub fn subscribe(&mut self, topic: &str, partition: u32, offset: u64) {
        self.subs.push(Subscription {
            tp: TopicPartition::new(topic, partition),
            offset,
            file: None,
            partial: Vec::new(),
            avg_batch: f64::from(DEFAULT_FETCH_SIZE),
            offset_slot: None,
        });
    }

    /// Next record offset of the first subscription.
    pub fn offset(&self) -> u64 {
        self.subs[0].offset
    }

    /// One RDMA Read into `local`, awaiting its completion.
    async fn rdma_read(
        &self,
        local: rnic::BufSlice,
        remote_addr: u64,
        rkey: u32,
        trace: Option<kdtelem::TraceCtx>,
    ) -> Result<(), ClientError> {
        let read = WorkRequest::Read { local, remote_addr, rkey };
        let wr = SendWr::new(7, read).with_trace(trace);
        self.plane.execute(wr).await.map(drop).ok_or(ClientError::Disconnected)
    }

    /// Requests RDMA access to the file containing subscription `i`'s offset.
    async fn acquire_file(&mut self, i: usize) -> Result<(), ClientError> {
        self.stats.access_requests += 1;
        let sub = &mut self.subs[i];
        let (topic, partition) = (sub.tp.topic.as_str().to_string(), sub.tp.partition);
        let (offset, consumer_id) = (sub.offset, self.consumer_id);
        let request = Request::ConsumeAccess { topic, partition, offset, consumer_id };
        let Response::ConsumeAccess(grant) = self.plane.ctrl.call(&request).await? else {
            return Err(ClientError::Protocol);
        };
        check(grant.error)?;
        sub.partial.clear();
        sub.file = Some(FileState {
            read_pos: grant.start_pos,
            last_readable: grant.last_readable,
            mutable: grant.mutable,
            grant,
        });
        Ok(())
    }

    /// Requests access for every subscription that has no file yet.
    async fn acquire_missing(&mut self) -> Result<(), ClientError> {
        for i in 0..self.subs.len() {
            if self.subs[i].file.is_none() {
                self.acquire_file(i).await?;
            }
        }
        Ok(())
    }

    /// Releases subscription `i`'s fully-consumed file so the broker can
    /// unregister it.
    async fn release_file(&mut self, i: usize) -> Result<(), ClientError> {
        let sub = &mut self.subs[i];
        let Some(f) = sub.file.take() else {
            return Ok(());
        };
        self.stats.releases += 1;
        let (topic, partition) = (sub.tp.topic.as_str().to_string(), sub.tp.partition);
        let (consumer_id, segment) = (self.consumer_id, f.grant.segment);
        let request = Request::ConsumeRelease { topic, partition, consumer_id, segment };
        self.plane.ctrl.call(&request).await.map(drop)
    }

    /// Refreshes `last_readable`/`mutable` of every subscription with a
    /// single RDMA Read of the slot region (§4.4.2, Fig 9).
    async fn refresh_metadata(&mut self) -> Result<(), ClientError> {
        // Every grant names the same region; read the smallest contiguous
        // prefix containing all active slots.
        let mut region = None;
        let mut span_slots = 0u32;
        for slot in self.subs.iter().filter_map(|s| s.file.as_ref()?.grant.slot) {
            region = Some(slot.region);
            span_slots = span_slots
                .max(slot.active_span)
                .max(slot.index.saturating_add(1));
        }
        let Some(region) = region else {
            return Ok(()); // only immutable files right now
        };
        let span = (span_slots as usize * SLOT_SIZE).min(self.slot_buf.len());
        self.stats.slot_reads += 1;
        let local = self.slot_buf.slice(0, span);
        self.rdma_read(local, region.addr, region.rkey, None)
            .await?;
        for f in self.subs.iter_mut().filter_map(|s| s.file.as_mut()) {
            // A slot outside what was read keeps its last known state.
            let at = f.grant.slot.map(|slot| slot.index as usize * SLOT_SIZE);
            if let Some(at) = at.filter(|at| at + SLOT_SIZE <= span) {
                let mut slot = [0u8; SLOT_SIZE];
                self.slot_buf.read_into(at, &mut slot);
                let view = SlotView::decode(&slot);
                f.last_readable = view.last_readable;
                f.mutable = view.mutable;
            }
        }
        Ok(())
    }

    /// One fetch iteration over every subscription. Returns any records that
    /// became ready; an empty result means no new committed data was
    /// visible.
    pub async fn poll(&mut self) -> Result<Vec<RecordView>, ClientError> {
        self.poll_round().await?;
        Ok(self.ready.drain(..).map(|(_, rv)| rv).collect())
    }

    /// As [`poll`](Self::poll), with every record tagged with the partition
    /// it came from.
    pub async fn poll_tagged(&mut self) -> Result<Vec<(TopicPartition, RecordView)>, ClientError> {
        self.poll_round().await?;
        let subs = &self.subs;
        Ok(self
            .ready
            .drain(..)
            .map(|(i, rv)| (subs[i].tp.clone(), rv))
            .collect())
    }

    /// Fills `ready`: rolls fully read files, or else refreshes the slots if
    /// some subscription has run dry and reads from every subscription that
    /// has bytes.
    async fn poll_round(&mut self) -> Result<(), ClientError> {
        let start = sim::now();
        if !self.ready.is_empty() {
            return Ok(());
        }
        self.acquire_missing().await?;
        let mut rolled = false;
        for i in 0..self.subs.len() {
            let sub = &self.subs[i];
            if sub.exhausted() && sub.file.as_ref().is_some_and(|f| !f.mutable) {
                // Fully read an immutable file: move to the next one. It
                // ended on a batch boundary, so leftover bytes never were a
                // batch.
                if !sub.partial.is_empty() {
                    return Err(ClientError::Corrupt);
                }
                self.release_file(i).await?;
                self.acquire_file(i).await?;
                rolled = true;
            }
        }
        if rolled {
            return Ok(());
        }
        if self.subs.iter().any(Subscription::exhausted) {
            self.refresh_metadata().await?;
        }
        let mut fetched = false;
        for i in 0..self.subs.len() {
            if !self.subs[i].exhausted() {
                self.fetch(i).await?;
                fetched = true;
            }
        }
        // A data-carrying poll is one end-to-end fetch (empty metadata-only
        // polls are deliberately excluded — they're "empty fetches", §5.3).
        if fetched {
            self.fetch_e2e_ns.record_since(start);
        }
        Ok(())
    }

    /// One data read for subscription `i`, which has readable bytes.
    async fn fetch(&mut self, i: usize) -> Result<(), ClientError> {
        let sub = &self.subs[i];
        let Some(f) = &sub.file else {
            return Ok(()); // nothing to read before access is granted
        };
        // Fetch up to fetch_size readable bytes; in adaptive mode, size the
        // read from what we already know: the partial batch's own header if
        // fetched, otherwise a moving estimate of recent batch sizes
        // (§4.4.2's two suggested dynamic-tuning strategies).
        let want = if self.adaptive_fetch {
            let from_header = if sub.partial.len() >= LENGTH_PREFIX_LEN {
                peek_total_len(&sub.partial)
                    .ok()
                    .map(|total| total.saturating_sub(sub.partial.len()) as u32)
            } else {
                None
            };
            from_header
                .unwrap_or(sub.avg_batch as u32 + LENGTH_PREFIX_LEN as u32)
                .clamp(256, 1024 * 1024)
        } else {
            self.fetch_size
        };
        let n = (f.last_readable - f.read_pos).min(want) as usize;
        let addr = f.grant.region.addr + u64::from(f.read_pos);
        let rkey = f.grant.region.rkey;
        if self.fetch_buf.len() < n {
            self.fetch_buf = ShmBuf::zeroed(n);
        }
        self.stats.data_reads += 1;
        self.stats.data_bytes += n as u64;
        // Root of this fetch's lifeline. The broker CPU never sees one-sided
        // Reads, so the client both carries the ctx on the Read WR and emits
        // the FetchServed event itself once records are parsed.
        let tspan = self.telem.trace_span("client.fetch", None);
        let ctx = tspan.ctx();
        let local = self.fetch_buf.slice(0, n);
        self.rdma_read(local, addr, rkey, Some(ctx)).await?;
        let sub = &mut self.subs[i];
        self.fetch_buf.with(|b| sub.partial.extend_from_slice(&b[..n]));
        if let Some(f) = &mut sub.file {
            f.read_pos += n as u32;
        }
        // Client-side integrity check + copy into "native" buffers — the
        // 2 µs overhead §5.3 attributes to the consumer API.
        let cpu = &self.plane.node.profile().cpu;
        sim::time::sleep(
            copy_time(n as u64, cpu.crc_bandwidth) + copy_time(n as u64, cpu.memcpy_bandwidth),
        )
        .await;
        // Complete batches are delivered; an incomplete tail stays for the
        // next read.
        if self.chunks.chunk_size() != chunk_size(self.fetch_size) {
            self.chunks = kdbuf::Pool::new(chunk_size(self.fetch_size));
        }
        let first_offset = sub.offset;
        let used = drain_batches(
            &sub.partial,
            &self.chunks,
            &mut sub.offset,
            |total| sub.avg_batch = 0.8 * sub.avg_batch + 0.2 * total as f64,
            |rv| self.ready.push_back((i, rv)),
        )?;
        sub.partial.drain(..used);
        if sub.offset > first_offset {
            self.telem.trace_event_now(
                ctx,
                kdtelem::EventKind::FetchServed {
                    stream: kdtelem::stream_key(sub.tp.topic.as_str(), sub.tp.partition),
                    start_offset: first_offset,
                    next_offset: sub.offset,
                    bytes: n as u64,
                },
            );
        }
        tspan.end();
        Ok(())
    }

    /// Polls until at least one record is available.
    pub async fn next_records(&mut self) -> Result<Vec<RecordView>, ClientError> {
        loop {
            let records = self.poll().await?;
            if !records.is_empty() {
                return Ok(records);
            }
        }
    }

    /// Checks for new records with a single metadata-slot read — the "empty
    /// fetch" of §5.3, fully offloaded to the NICs. Returns the last
    /// readable byte currently visible to the first subscription.
    pub async fn check_new_data(&mut self) -> Result<u32, ClientError> {
        self.acquire_missing().await?;
        self.refresh_metadata().await?;
        Ok(self.subs[0].file.as_ref().map_or(0, |f| f.last_readable))
    }

    /// EXTENSION (§5.4 future work): acquires an RDMA-writable offset slot
    /// per subscription so [`commit_offset_rdma`](Self::commit_offset_rdma)
    /// can commit with one-sided writes — no broker CPU, no TCP round trip.
    pub async fn enable_rdma_offset_commit(&mut self, group: &str) -> Result<(), ClientError> {
        for sub in &mut self.subs {
            let (group, topic) = (group.to_string(), sub.tp.topic.as_str().to_string());
            let request = Request::OffsetSlotAccess { group, topic, partition: sub.tp.partition };
            let Response::OffsetSlotAccess { error, region } = self.plane.ctrl.call(&request).await?
            else {
                return Err(ClientError::Protocol);
            };
            check(error)?;
            sub.offset_slot = Some(region);
        }
        Ok(())
    }

    /// Commits every subscription's offset with one RDMA Write into its
    /// offset slot.
    pub async fn commit_offset_rdma(&mut self) -> Result<(), ClientError> {
        for sub in &self.subs {
            let slot = sub.offset_slot.ok_or(ClientError::Protocol)?;
            self.commit_buf.write_u64(0, sub.offset);
            let local = self.commit_buf.as_slice();
            let write = WorkRequest::Write { local, remote_addr: slot.addr, rkey: slot.rkey };
            let done = self.plane.execute(SendWr::new(8, write)).await;
            done.ok_or(ClientError::Disconnected)?;
            self.stats.rdma_offset_commits += 1;
        }
        Ok(())
    }

    /// Commits every subscription's offset for `group` over TCP (§5.4).
    pub async fn commit_offset(&self, group: &str) -> Result<(), ClientError> {
        for sub in &self.subs {
            let (group, topic) = (group.to_string(), sub.tp.topic.as_str().to_string());
            let (partition, offset) = (sub.tp.partition, sub.offset);
            let request = Request::OffsetCommit { group, topic, partition, offset };
            let Response::OffsetCommit { error } = self.plane.ctrl.call(&request).await? else {
                return Err(ClientError::Protocol);
            };
            check(error)?;
        }
        Ok(())
    }
}

/// Records are views of pooled chunks: each consumer's chunk is reused only
/// once no view of it is left, whatever the read size.
#[cfg(test)]
mod tests {
    use super::*;
    use std::future::Future;

    use kdbroker::{Broker, BrokerConfig, RdmaToggles};
    use kdstorage::{LogConfig, Record};
    use kdwire::ErrorCode;
    use netsim::profile::Profile;
    use netsim::Fabric;

    use crate::{ClientTransport, RdmaProducer, TcpConsumer};

    /// A record's payload length, by its offset.
    type Len = fn(u64) -> usize;

    /// Record `i`'s payload: `len(i)` bytes, its index in the first eight.
    fn payload(i: u64, len: Len) -> Vec<u8> {
        let mut v = vec![i as u8; len(i).max(8)];
        v[..8].copy_from_slice(&i.to_le_bytes());
        v
    }

    /// 64 to 512 bytes.
    fn small(i: u64) -> usize {
        64 + (i as usize * 37) % 449
    }

    /// Runs `consume` against a broker whose partition "t"/0 holds
    /// `records` records of `len` bytes at offsets `0..records`.
    fn consume<F, Fut>(records: u64, len: Len, consume: F)
    where
        F: FnOnce(NodeHandle, BrokerAddr, Broker) -> Fut + 'static,
        Fut: Future<Output = ()>,
    {
        sim::Runtime::new().block_on(async move {
            let fabric = Fabric::new(Profile::testbed());
            let (bnode, cnode) = (fabric.add_node("broker"), fabric.add_node("client"));
            let log = LogConfig { segment_size: 1 << 20, max_batch_size: 1 << 19 };
            let config = BrokerConfig::kafkadirect(RdmaToggles::all()).with_log(log);
            let addr = BrokerAddr { node: bnode.id.0, port: config.tcp_port, rdma_port: config.rdma_port };
            let broker = Broker::start(&bnode, config, vec![addr]);
            let admin = crate::Admin::connect(&cnode, addr).await.unwrap();
            admin.create_topic("t", 1, 1).await.unwrap();
            let mut producer = RdmaProducer::connect(&cnode, addr, "t", 0, false).await.unwrap();
            let mut acks = Vec::new();
            for first in (0..records).step_by(32) {
                let run: Vec<Record> = (first..records.min(first + 32))
                    .map(|i| Record::value(payload(i, len)))
                    .collect();
                producer.send_pipelined_chain(&run, &mut acks).await.unwrap();
            }
            for ack in acks {
                assert_eq!(ack.await.unwrap().0, ErrorCode::None);
            }
            consume(cnode, addr, broker).await;
        });
    }

    /// Keeps every record of `held` polls through `more` polls, then checks
    /// the kept bytes against what was produced. Returns how many records
    /// were kept and how many came after them.
    macro_rules! hold_through {
        ($consumer:expr, $held:expr, $more:expr) => {{
            let mut held = Vec::new();
            for _ in 0..$held {
                held.extend($consumer.poll().await.unwrap());
            }
            let mut later = 0;
            for _ in 0..$more {
                later += $consumer.poll().await.unwrap().len();
            }
            for (i, rv) in held.iter().enumerate() {
                assert_eq!(rv.offset, i as u64);
                assert_eq!(rv.record.value, payload(rv.offset, small), "offset {}", rv.offset);
            }
            (held.len(), later)
        }};
    }

    #[test]
    fn records_held_across_polls_keep_their_bytes() {
        consume(4000, small, |node, addr, _broker| async move {
            let mut c = RdmaConsumer::connect(&node, addr, "t", 0, 0).await.unwrap();
            let (held, later) = hold_through!(c, 50, 500);
            assert!(held >= 200 && later >= 2000, "{held} held, {later} after them");
        });
    }

    #[test]
    fn tcp_records_held_across_polls_keep_their_bytes() {
        consume(1000, small, |node, addr, _broker| async move {
            let mut c = TcpConsumer::connect(&node, addr, ClientTransport::Tcp, "t", 0, 0)
                .await
                .unwrap();
            c.max_bytes = 2048;
            let (held, later) = hold_through!(c, 20, 100);
            assert!(held >= 80 && later >= 400, "{held} held, {later} after them");
        });
    }

    /// kdmark's read-back reads 256 KiB at a time, a read sized from batch
    /// headers can be any size, and a 40 KiB batch read 2 KiB at a time is
    /// larger than a default chunk: each delivers every record.
    #[test]
    fn reads_of_every_size_deliver_every_record() {
        fn large(_: u64) -> usize {
            40 << 10
        }
        let cases: [(u32, bool, Len); 3] =
            [(256 << 10, false, small), (DEFAULT_FETCH_SIZE, true, small), (DEFAULT_FETCH_SIZE, false, large)];
        for (fetch_size, adaptive, len) in cases {
            consume(400, len, move |node, addr, _broker| async move {
                let mut c = RdmaConsumer::connect(&node, addr, "t", 0, 0).await.unwrap();
                (c.fetch_size, c.adaptive_fetch) = (fetch_size, adaptive);
                let mut got = Vec::new();
                while got.len() < 400 {
                    got.extend(c.next_records().await.unwrap());
                }
                for (i, rv) in got.iter().enumerate() {
                    assert_eq!(rv.offset, i as u64, "fetch size {fetch_size}, adaptive {adaptive}");
                    assert_eq!(rv.record.value, payload(i as u64, len));
                }
            });
        }
    }

    /// A committed batch garbled behind the broker's back, read in two
    /// halves: the first read waits for the rest, the second fails the poll.
    #[test]
    fn a_garbled_batch_split_across_two_reads_is_corrupt() {
        consume(1, small, |node, addr, broker| async move {
            let p = broker.inner().store.get(&TopicPartition::new("t", 0)).unwrap();
            let segment = p.log.segment(0).unwrap();
            let batch_len = segment.committed_pos();
            let at = batch_len - 1;
            segment.write_at(at, &[!segment.read(at, 1)[0]]);
            let mut c = RdmaConsumer::connect(&node, addr, "t", 0, 0).await.unwrap();
            c.fetch_size = batch_len / 2 + 1;
            assert_eq!(c.poll().await, Ok(Vec::new()), "half a batch waits");
            assert_eq!(c.poll().await, Err(ClientError::Corrupt));
            assert_eq!(c.stats.data_reads, 2);
        });
    }
}
