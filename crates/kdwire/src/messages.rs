//! Typed protocol messages and their binary codec.
//!
//! Every request/response pair the broker understands, including the RDMA
//! control plane. Encoding uses `kdstorage::codec` primitives; each message
//! starts with a one-byte discriminant. Round-trip correctness is enforced
//! by unit tests and proptest.

use kdstorage::codec::{Reader, WireError, Writer};

/// Where a broker can be reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokerAddr {
    /// Fabric node id.
    pub node: u32,
    /// TCP control-plane port.
    pub port: u16,
    /// RDMA CM service port (0 if the broker has RDMA disabled).
    pub rdma_port: u16,
}

/// Per-partition metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionMeta {
    pub partition: u32,
    /// Leader epoch: bumped on every leader change. Brokers reject stale
    /// installs and fence producers holding grants from an older epoch.
    pub epoch: u64,
    pub leader: BrokerAddr,
    pub replicas: Vec<BrokerAddr>,
}

/// Per-topic metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TopicMeta {
    pub name: String,
    pub partitions: Vec<PartitionMeta>,
}

/// Protocol-level error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    None = 0,
    UnknownTopicOrPartition = 1,
    NotLeader = 2,
    CorruptBatch = 3,
    /// RDMA access rejected or revoked (e.g. exclusive grant already held).
    AccessDenied = 4,
    /// Preallocated file cannot hold the request; re-request access.
    OutOfSpace = 5,
    InvalidRequest = 6,
    AlreadyExists = 7,
    /// Shared-mode produce aborted: a predecessor never arrived (§4.2.2).
    OrderTimeout = 8,
    Internal = 9,
    /// The request carries (or the broker holds) a stale leader epoch: a
    /// failover happened and the caller must refresh metadata.
    FencedEpoch = 10,
    /// The broker is not running the requested optional facility (e.g. a
    /// `Series`/`Health` request against a broker with no sampler/watchdog).
    NotSupported = 11,
    /// The requested offset precedes the retention floor: its segment was
    /// reclaimed from every storage tier.
    OffsetOutOfRange = 12,
}

impl ErrorCode {
    pub fn is_ok(self) -> bool {
        self == ErrorCode::None
    }

    pub(crate) fn from_u8(v: u8) -> Result<ErrorCode, WireError> {
        Ok(match v {
            0 => ErrorCode::None,
            1 => ErrorCode::UnknownTopicOrPartition,
            2 => ErrorCode::NotLeader,
            3 => ErrorCode::CorruptBatch,
            4 => ErrorCode::AccessDenied,
            5 => ErrorCode::OutOfSpace,
            6 => ErrorCode::InvalidRequest,
            7 => ErrorCode::AlreadyExists,
            8 => ErrorCode::OrderTimeout,
            9 => ErrorCode::Internal,
            10 => ErrorCode::FencedEpoch,
            11 => ErrorCode::NotSupported,
            12 => ErrorCode::OffsetOutOfRange,
            _ => return Err(WireError::BadValue),
        })
    }
}

/// `(addr, rkey, len)` of a remotely accessible region — what "get RDMA
/// access" hands to clients (§4.2.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RemoteRegion {
    pub addr: u64,
    pub rkey: u32,
    pub len: u64,
}

/// Produce access mode (§4.2.2 "Approaches to RDMA produce").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProduceMode {
    /// One producer owns the head file; no reservation word needed.
    Exclusive,
    /// Multiple producers coordinate through the FAA word (Fig 5).
    Shared,
    /// Leader→follower push replication (exclusive by construction,
    /// flow-controlled by credits, §4.3.2).
    Replication,
}

impl ProduceMode {
    fn to_u8(self) -> u8 {
        match self {
            ProduceMode::Exclusive => 0,
            ProduceMode::Shared => 1,
            ProduceMode::Replication => 2,
        }
    }

    fn from_u8(v: u8) -> Result<Self, WireError> {
        Ok(match v {
            0 => ProduceMode::Exclusive,
            1 => ProduceMode::Shared,
            2 => ProduceMode::Replication,
            _ => return Err(WireError::BadValue),
        })
    }
}

/// Client→broker requests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Topic/partition discovery; empty list = all topics.
    Metadata { topics: Vec<String> },
    CreateTopic {
        topic: String,
        partitions: u32,
        replication: u32,
    },
    /// The original TCP produce datapath (§4.2.1).
    Produce {
        topic: String,
        partition: u32,
        /// 0 = fire-and-forget, 1 = leader ack, 2 = all in-sync replicas.
        acks: u8,
        batch: Vec<u8>,
    },
    /// Consumer fetch, or follower pull-replication fetch when `replica_id`
    /// is set (§4.3.1).
    Fetch {
        topic: String,
        partition: u32,
        offset: u64,
        max_bytes: u32,
        /// `u32::MAX` = a consumer; otherwise the fetching follower's node.
        replica_id: u32,
    },
    ListOffsets { topic: String, partition: u32 },
    OffsetCommit {
        group: String,
        topic: String,
        partition: u32,
        offset: u64,
    },
    OffsetFetch {
        group: String,
        topic: String,
        partition: u32,
    },
    /// "Get RDMA produce address" (§4.2.2 / §4.3.2): map + register the head
    /// file and return its region.
    ProduceAccess {
        topic: String,
        partition: u32,
        mode: ProduceMode,
        /// Roll to a new head file unless this many bytes are still free —
        /// how a producer "timely requests allocation of a new head file"
        /// (§4.2.2).
        min_bytes: u32,
    },
    /// Voluntarily drop a produce grant.
    ProduceRelease { topic: String, partition: u32 },
    /// Get RDMA read access to the file containing `offset` (§4.4.2).
    ConsumeAccess {
        topic: String,
        partition: u32,
        offset: u64,
        consumer_id: u64,
    },
    /// Tell the broker a fully-read file can be unregistered (§4.4.2:
    /// "notifies the broker about the files that can be unregistered").
    ConsumeRelease {
        topic: String,
        partition: u32,
        consumer_id: u64,
        segment: u32,
    },
    /// EXTENSION (paper §5.4 future work): get an RDMA-writable offset slot
    /// so the consumer can commit its offset with a one-sided write instead
    /// of a TCP request ("KafkaDirect could implement an accelerated commit
    /// offset request with the use of RDMA").
    OffsetSlotAccess {
        group: String,
        topic: String,
        partition: u32,
    },
    /// Controller→broker: install a partition with its leader/replica
    /// assignment (stands in for Kafka's ZooKeeper-driven state, which the
    /// paper does not exercise).
    InternalAddPartition {
        topic: String,
        partition: u32,
        /// Leader epoch of this assignment; installs with a stale epoch are
        /// rejected with [`ErrorCode::FencedEpoch`].
        epoch: u64,
        leader: BrokerAddr,
        replicas: Vec<BrokerAddr>,
    },
    /// Admin: dump the broker's telemetry registry (counters, gauges,
    /// latency histograms) as JSON lines.
    Telemetry,
    /// Admin: dump the broker's virtual-time time-series recorder
    /// (`kdtelem::SeriesDump`) as JSON lines. Errors with
    /// [`ErrorCode::NotSupported`] when the broker runs without a sampler.
    Series,
    /// Admin: dump the broker's health-watchdog event log
    /// (`kdtelem::HealthEvent`s) as JSON lines. Errors with
    /// [`ErrorCode::NotSupported`] when the broker runs without a watchdog.
    Health,
}

/// Broker→client responses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Response {
    Metadata {
        error: ErrorCode,
        brokers: Vec<BrokerAddr>,
        topics: Vec<TopicMeta>,
    },
    CreateTopic { error: ErrorCode },
    Produce { error: ErrorCode, base_offset: u64 },
    Fetch(FetchResp),
    ListOffsets {
        error: ErrorCode,
        earliest: u64,
        latest: u64,
    },
    OffsetCommit { error: ErrorCode },
    OffsetFetch {
        error: ErrorCode,
        /// `u64::MAX` = no committed offset.
        offset: u64,
    },
    ProduceAccess(ProduceAccessResp),
    ProduceRelease { error: ErrorCode },
    ConsumeAccess(ConsumeAccessResp),
    ConsumeRelease { error: ErrorCode },
    /// EXTENSION: the 8-byte RDMA-writable offset slot.
    OffsetSlotAccess {
        error: ErrorCode,
        region: RemoteRegion,
    },
    InternalAddPartition { error: ErrorCode },
    /// JSON-lines encoding of a `kdtelem::TelemetryReport`.
    Telemetry { error: ErrorCode, json: String },
    /// JSON-lines encoding of a `kdtelem::SeriesDump`.
    Series { error: ErrorCode, json: String },
    /// JSON-lines encoding of the watchdog's `kdtelem::HealthEvent` log.
    Health { error: ErrorCode, json: String },
}

/// Fetch response payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FetchResp {
    pub error: ErrorCode,
    pub high_watermark: u64,
    pub log_end: u64,
    /// Offset of the first record in `bytes` (reads start at batch
    /// boundaries).
    pub start_offset: u64,
    pub next_offset: u64,
    pub bytes: Vec<u8>,
}

/// Produce-access grant (§4.2.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProduceAccessResp {
    pub error: ErrorCode,
    /// 16-bit file id the producer must put in the immediate data (Fig 4).
    pub file_id: u16,
    /// Segment index of the granted head file.
    pub segment: u32,
    pub region: RemoteRegion,
    /// Current append position: first writable byte (exclusive mode).
    pub write_pos: u32,
    /// Offset the next committed record will get (informational).
    pub next_offset: u64,
    /// Shared mode only: where to FAA the order/offset word (Fig 5).
    pub shared_word: Option<RemoteRegion>,
    /// Replication mode: how many outstanding push writes the follower
    /// allows before more credits are granted (§4.3.2).
    pub credits: u32,
}

/// One consumer metadata slot grant (§4.4.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotGrant {
    /// Region holding this consumer's whole slot array.
    pub region: RemoteRegion,
    /// Index of the slot for the granted file.
    pub index: u32,
    /// Number of contiguous slots worth reading (the "smallest contiguous
    /// region containing all active slots", Fig 9).
    pub active_span: u32,
}

/// Consume-access grant (§4.4.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConsumeAccessResp {
    pub error: ErrorCode,
    pub segment: u32,
    pub region: RemoteRegion,
    /// Byte position of the batch containing the requested offset.
    pub start_pos: u32,
    /// Base offset of the batch at `start_pos`.
    pub start_offset: u64,
    /// First unreadable byte at grant time.
    pub last_readable: u32,
    /// Whether the file can still grow.
    pub mutable: bool,
    /// Present iff `mutable`: where to poll the metadata slot.
    pub slot: Option<SlotGrant>,
    pub high_watermark: u64,
}

fn put_broker(w: &mut Writer, b: &BrokerAddr) {
    w.put_u32(b.node);
    w.put_u16(b.port);
    w.put_u16(b.rdma_port);
}

fn get_broker(r: &mut Reader) -> Result<BrokerAddr, WireError> {
    Ok(BrokerAddr {
        node: r.get_u32()?,
        port: r.get_u16()?,
        rdma_port: r.get_u16()?,
    })
}

fn put_region(w: &mut Writer, reg: &RemoteRegion) {
    w.put_u64(reg.addr);
    w.put_u32(reg.rkey);
    w.put_u64(reg.len);
}

fn get_region(r: &mut Reader) -> Result<RemoteRegion, WireError> {
    Ok(RemoteRegion {
        addr: r.get_u64()?,
        rkey: r.get_u32()?,
        len: r.get_u64()?,
    })
}

fn put_bytes_field(w: &mut Writer, b: &[u8]) {
    w.put_uvarint(b.len() as u64);
    w.put_bytes(b);
}

fn get_bytes_field(r: &mut Reader) -> Result<Vec<u8>, WireError> {
    let len = r.get_uvarint()? as usize;
    Ok(r.take(len)?.to_vec())
}

fn put_produce(w: &mut Writer, topic: &str, partition: u32, acks: u8, batch: &[u8]) {
    w.put_u8(2);
    w.put_string(topic);
    w.put_u32(partition);
    w.put_u8(acks);
    put_bytes_field(w, batch);
}

impl Request {
    /// Appends the encoding of a [`Request::Produce`] built from borrowed
    /// parts: a producer's send path owns neither a `String` nor the batch
    /// per request.
    pub fn encode_produce_into(out: &mut Vec<u8>, topic: &str, partition: u32, acks: u8, batch: &[u8]) {
        let mut w = Writer::from_vec(std::mem::take(out));
        put_produce(&mut w, topic, partition, acks, batch);
        *out = w.into_vec();
    }

    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoding to `out`; allocation-free once `out` has grown
    /// to steady-state capacity (hot paths pass a reused scratch buffer).
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::from_vec(std::mem::take(out));
        match self {
            Request::Metadata { topics } => {
                w.put_u8(0);
                w.put_uvarint(topics.len() as u64);
                for t in topics {
                    w.put_string(t);
                }
            }
            Request::CreateTopic {
                topic,
                partitions,
                replication,
            } => {
                w.put_u8(1);
                w.put_string(topic);
                w.put_u32(*partitions);
                w.put_u32(*replication);
            }
            Request::Produce {
                topic,
                partition,
                acks,
                batch,
            } => put_produce(&mut w, topic, *partition, *acks, batch),
            Request::Fetch {
                topic,
                partition,
                offset,
                max_bytes,
                replica_id,
            } => {
                w.put_u8(3);
                w.put_string(topic);
                w.put_u32(*partition);
                w.put_u64(*offset);
                w.put_u32(*max_bytes);
                w.put_u32(*replica_id);
            }
            Request::ListOffsets { topic, partition } => {
                w.put_u8(4);
                w.put_string(topic);
                w.put_u32(*partition);
            }
            Request::OffsetCommit {
                group,
                topic,
                partition,
                offset,
            } => {
                w.put_u8(5);
                w.put_string(group);
                w.put_string(topic);
                w.put_u32(*partition);
                w.put_u64(*offset);
            }
            Request::OffsetFetch {
                group,
                topic,
                partition,
            } => {
                w.put_u8(6);
                w.put_string(group);
                w.put_string(topic);
                w.put_u32(*partition);
            }
            Request::ProduceAccess {
                topic,
                partition,
                mode,
                min_bytes,
            } => {
                w.put_u8(7);
                w.put_string(topic);
                w.put_u32(*partition);
                w.put_u8(mode.to_u8());
                w.put_u32(*min_bytes);
            }
            Request::ProduceRelease { topic, partition } => {
                w.put_u8(8);
                w.put_string(topic);
                w.put_u32(*partition);
            }
            Request::ConsumeAccess {
                topic,
                partition,
                offset,
                consumer_id,
            } => {
                w.put_u8(9);
                w.put_string(topic);
                w.put_u32(*partition);
                w.put_u64(*offset);
                w.put_u64(*consumer_id);
            }
            Request::ConsumeRelease {
                topic,
                partition,
                consumer_id,
                segment,
            } => {
                w.put_u8(10);
                w.put_string(topic);
                w.put_u32(*partition);
                w.put_u64(*consumer_id);
                w.put_u32(*segment);
            }
            Request::OffsetSlotAccess {
                group,
                topic,
                partition,
            } => {
                w.put_u8(12);
                w.put_string(group);
                w.put_string(topic);
                w.put_u32(*partition);
            }
            Request::InternalAddPartition {
                topic,
                partition,
                epoch,
                leader,
                replicas,
            } => {
                w.put_u8(11);
                w.put_string(topic);
                w.put_u32(*partition);
                w.put_u64(*epoch);
                put_broker(&mut w, leader);
                w.put_uvarint(replicas.len() as u64);
                for r in replicas {
                    put_broker(&mut w, r);
                }
            }
            Request::Telemetry => {
                w.put_u8(13);
            }
            Request::Series => {
                w.put_u8(14);
            }
            Request::Health => {
                w.put_u8(15);
            }
        }
        *out = w.into_vec();
    }

    pub fn decode(bytes: &[u8]) -> Result<Request, WireError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_u8()?;
        let req = match tag {
            0 => {
                let n = r.get_uvarint()? as usize;
                let mut topics = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    topics.push(r.get_string()?);
                }
                Request::Metadata { topics }
            }
            1 => Request::CreateTopic {
                topic: r.get_string()?,
                partitions: r.get_u32()?,
                replication: r.get_u32()?,
            },
            2 => Request::Produce {
                topic: r.get_string()?,
                partition: r.get_u32()?,
                acks: r.get_u8()?,
                batch: get_bytes_field(&mut r)?,
            },
            3 => Request::Fetch {
                topic: r.get_string()?,
                partition: r.get_u32()?,
                offset: r.get_u64()?,
                max_bytes: r.get_u32()?,
                replica_id: r.get_u32()?,
            },
            4 => Request::ListOffsets {
                topic: r.get_string()?,
                partition: r.get_u32()?,
            },
            5 => Request::OffsetCommit {
                group: r.get_string()?,
                topic: r.get_string()?,
                partition: r.get_u32()?,
                offset: r.get_u64()?,
            },
            6 => Request::OffsetFetch {
                group: r.get_string()?,
                topic: r.get_string()?,
                partition: r.get_u32()?,
            },
            7 => Request::ProduceAccess {
                topic: r.get_string()?,
                partition: r.get_u32()?,
                mode: ProduceMode::from_u8(r.get_u8()?)?,
                min_bytes: r.get_u32()?,
            },
            8 => Request::ProduceRelease {
                topic: r.get_string()?,
                partition: r.get_u32()?,
            },
            9 => Request::ConsumeAccess {
                topic: r.get_string()?,
                partition: r.get_u32()?,
                offset: r.get_u64()?,
                consumer_id: r.get_u64()?,
            },
            10 => Request::ConsumeRelease {
                topic: r.get_string()?,
                partition: r.get_u32()?,
                consumer_id: r.get_u64()?,
                segment: r.get_u32()?,
            },
            11 => {
                let topic = r.get_string()?;
                let partition = r.get_u32()?;
                let epoch = r.get_u64()?;
                let leader = get_broker(&mut r)?;
                let n = r.get_uvarint()? as usize;
                let mut replicas = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    replicas.push(get_broker(&mut r)?);
                }
                Request::InternalAddPartition {
                    topic,
                    partition,
                    epoch,
                    leader,
                    replicas,
                }
            }
            12 => Request::OffsetSlotAccess {
                group: r.get_string()?,
                topic: r.get_string()?,
                partition: r.get_u32()?,
            },
            13 => Request::Telemetry,
            14 => Request::Series,
            15 => Request::Health,
            _ => return Err(WireError::BadValue),
        };
        Ok(req)
    }
}

impl Response {
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// Appends the encoding to `out`; allocation-free once `out` has grown
    /// to steady-state capacity.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        let mut w = Writer::from_vec(std::mem::take(out));
        match self {
            Response::Metadata {
                error,
                brokers,
                topics,
            } => {
                w.put_u8(0);
                w.put_u8(*error as u8);
                w.put_uvarint(brokers.len() as u64);
                for b in brokers {
                    put_broker(&mut w, b);
                }
                w.put_uvarint(topics.len() as u64);
                for t in topics {
                    w.put_string(&t.name);
                    w.put_uvarint(t.partitions.len() as u64);
                    for p in &t.partitions {
                        w.put_u32(p.partition);
                        w.put_u64(p.epoch);
                        put_broker(&mut w, &p.leader);
                        w.put_uvarint(p.replicas.len() as u64);
                        for rep in &p.replicas {
                            put_broker(&mut w, rep);
                        }
                    }
                }
            }
            Response::CreateTopic { error } => {
                w.put_u8(1);
                w.put_u8(*error as u8);
            }
            Response::Produce { error, base_offset } => {
                w.put_u8(2);
                w.put_u8(*error as u8);
                w.put_u64(*base_offset);
            }
            Response::Fetch(f) => {
                w.put_u8(3);
                w.put_u8(f.error as u8);
                w.put_u64(f.high_watermark);
                w.put_u64(f.log_end);
                w.put_u64(f.start_offset);
                w.put_u64(f.next_offset);
                put_bytes_field(&mut w, &f.bytes);
            }
            Response::ListOffsets {
                error,
                earliest,
                latest,
            } => {
                w.put_u8(4);
                w.put_u8(*error as u8);
                w.put_u64(*earliest);
                w.put_u64(*latest);
            }
            Response::OffsetCommit { error } => {
                w.put_u8(5);
                w.put_u8(*error as u8);
            }
            Response::OffsetFetch { error, offset } => {
                w.put_u8(6);
                w.put_u8(*error as u8);
                w.put_u64(*offset);
            }
            Response::ProduceAccess(p) => {
                w.put_u8(7);
                w.put_u8(p.error as u8);
                w.put_u16(p.file_id);
                w.put_u32(p.segment);
                put_region(&mut w, &p.region);
                w.put_u32(p.write_pos);
                w.put_u64(p.next_offset);
                match &p.shared_word {
                    None => w.put_u8(0),
                    Some(reg) => {
                        w.put_u8(1);
                        put_region(&mut w, reg);
                    }
                }
                w.put_u32(p.credits);
            }
            Response::ProduceRelease { error } => {
                w.put_u8(8);
                w.put_u8(*error as u8);
            }
            Response::ConsumeAccess(c) => {
                w.put_u8(9);
                w.put_u8(c.error as u8);
                w.put_u32(c.segment);
                put_region(&mut w, &c.region);
                w.put_u32(c.start_pos);
                w.put_u64(c.start_offset);
                w.put_u32(c.last_readable);
                w.put_u8(u8::from(c.mutable));
                match &c.slot {
                    None => w.put_u8(0),
                    Some(s) => {
                        w.put_u8(1);
                        put_region(&mut w, &s.region);
                        w.put_u32(s.index);
                        w.put_u32(s.active_span);
                    }
                }
                w.put_u64(c.high_watermark);
            }
            Response::ConsumeRelease { error } => {
                w.put_u8(10);
                w.put_u8(*error as u8);
            }
            Response::InternalAddPartition { error } => {
                w.put_u8(11);
                w.put_u8(*error as u8);
            }
            Response::OffsetSlotAccess { error, region } => {
                w.put_u8(12);
                w.put_u8(*error as u8);
                put_region(&mut w, region);
            }
            Response::Telemetry { error, json } => {
                w.put_u8(13);
                w.put_u8(*error as u8);
                w.put_string(json);
            }
            Response::Series { error, json } => {
                w.put_u8(14);
                w.put_u8(*error as u8);
                w.put_string(json);
            }
            Response::Health { error, json } => {
                w.put_u8(15);
                w.put_u8(*error as u8);
                w.put_string(json);
            }
        }
        *out = w.into_vec();
    }

    pub fn decode(bytes: &[u8]) -> Result<Response, WireError> {
        let mut r = Reader::new(bytes);
        let tag = r.get_u8()?;
        let resp = match tag {
            0 => {
                let error = ErrorCode::from_u8(r.get_u8()?)?;
                let nb = r.get_uvarint()? as usize;
                let mut brokers = Vec::with_capacity(nb.min(1024));
                for _ in 0..nb {
                    brokers.push(get_broker(&mut r)?);
                }
                let nt = r.get_uvarint()? as usize;
                let mut topics = Vec::with_capacity(nt.min(1024));
                for _ in 0..nt {
                    let name = r.get_string()?;
                    let np = r.get_uvarint()? as usize;
                    let mut partitions = Vec::with_capacity(np.min(4096));
                    for _ in 0..np {
                        let partition = r.get_u32()?;
                        let epoch = r.get_u64()?;
                        let leader = get_broker(&mut r)?;
                        let nr = r.get_uvarint()? as usize;
                        let mut replicas = Vec::with_capacity(nr.min(64));
                        for _ in 0..nr {
                            replicas.push(get_broker(&mut r)?);
                        }
                        partitions.push(PartitionMeta {
                            partition,
                            epoch,
                            leader,
                            replicas,
                        });
                    }
                    topics.push(TopicMeta { name, partitions });
                }
                Response::Metadata {
                    error,
                    brokers,
                    topics,
                }
            }
            1 => Response::CreateTopic {
                error: ErrorCode::from_u8(r.get_u8()?)?,
            },
            2 => Response::Produce {
                error: ErrorCode::from_u8(r.get_u8()?)?,
                base_offset: r.get_u64()?,
            },
            3 => Response::Fetch(FetchResp {
                error: ErrorCode::from_u8(r.get_u8()?)?,
                high_watermark: r.get_u64()?,
                log_end: r.get_u64()?,
                start_offset: r.get_u64()?,
                next_offset: r.get_u64()?,
                bytes: get_bytes_field(&mut r)?,
            }),
            4 => Response::ListOffsets {
                error: ErrorCode::from_u8(r.get_u8()?)?,
                earliest: r.get_u64()?,
                latest: r.get_u64()?,
            },
            5 => Response::OffsetCommit {
                error: ErrorCode::from_u8(r.get_u8()?)?,
            },
            6 => Response::OffsetFetch {
                error: ErrorCode::from_u8(r.get_u8()?)?,
                offset: r.get_u64()?,
            },
            7 => {
                let error = ErrorCode::from_u8(r.get_u8()?)?;
                let file_id = r.get_u16()?;
                let segment = r.get_u32()?;
                let region = get_region(&mut r)?;
                let write_pos = r.get_u32()?;
                let next_offset = r.get_u64()?;
                let shared_word = match r.get_u8()? {
                    0 => None,
                    1 => Some(get_region(&mut r)?),
                    _ => return Err(WireError::BadValue),
                };
                let credits = r.get_u32()?;
                Response::ProduceAccess(ProduceAccessResp {
                    error,
                    file_id,
                    segment,
                    region,
                    write_pos,
                    next_offset,
                    shared_word,
                    credits,
                })
            }
            8 => Response::ProduceRelease {
                error: ErrorCode::from_u8(r.get_u8()?)?,
            },
            9 => {
                let error = ErrorCode::from_u8(r.get_u8()?)?;
                let segment = r.get_u32()?;
                let region = get_region(&mut r)?;
                let start_pos = r.get_u32()?;
                let start_offset = r.get_u64()?;
                let last_readable = r.get_u32()?;
                let mutable = r.get_u8()? != 0;
                let slot = match r.get_u8()? {
                    0 => None,
                    1 => Some(SlotGrant {
                        region: get_region(&mut r)?,
                        index: r.get_u32()?,
                        active_span: r.get_u32()?,
                    }),
                    _ => return Err(WireError::BadValue),
                };
                let high_watermark = r.get_u64()?;
                Response::ConsumeAccess(ConsumeAccessResp {
                    error,
                    segment,
                    region,
                    start_pos,
                    start_offset,
                    last_readable,
                    mutable,
                    slot,
                    high_watermark,
                })
            }
            10 => Response::ConsumeRelease {
                error: ErrorCode::from_u8(r.get_u8()?)?,
            },
            11 => Response::InternalAddPartition {
                error: ErrorCode::from_u8(r.get_u8()?)?,
            },
            12 => Response::OffsetSlotAccess {
                error: ErrorCode::from_u8(r.get_u8()?)?,
                region: get_region(&mut r)?,
            },
            13 => Response::Telemetry {
                error: ErrorCode::from_u8(r.get_u8()?)?,
                json: r.get_string()?,
            },
            14 => Response::Series {
                error: ErrorCode::from_u8(r.get_u8()?)?,
                json: r.get_string()?,
            },
            15 => Response::Health {
                error: ErrorCode::from_u8(r.get_u8()?)?,
                json: r.get_string()?,
            },
            _ => return Err(WireError::BadValue),
        };
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> RemoteRegion {
        RemoteRegion {
            addr: 0x7f00_0000_1000,
            rkey: 42,
            len: 1 << 26,
        }
    }

    #[test]
    fn request_round_trips() {
        let reqs = vec![
            Request::Metadata {
                topics: vec!["a".into(), "b".into()],
            },
            Request::Metadata { topics: vec![] },
            Request::CreateTopic {
                topic: "events".into(),
                partitions: 4,
                replication: 3,
            },
            Request::Produce {
                topic: "t".into(),
                partition: 2,
                acks: 2,
                batch: vec![1, 2, 3],
            },
            Request::Fetch {
                topic: "t".into(),
                partition: 0,
                offset: 99,
                max_bytes: 1 << 20,
                replica_id: u32::MAX,
            },
            Request::ListOffsets {
                topic: "t".into(),
                partition: 1,
            },
            Request::OffsetCommit {
                group: "g".into(),
                topic: "t".into(),
                partition: 0,
                offset: 12,
            },
            Request::OffsetFetch {
                group: "g".into(),
                topic: "t".into(),
                partition: 0,
            },
            Request::ProduceAccess {
                topic: "t".into(),
                partition: 0,
                mode: ProduceMode::Shared,
                min_bytes: 4096,
            },
            Request::InternalAddPartition {
                topic: "t".into(),
                partition: 1,
                epoch: 3,
                leader: BrokerAddr { node: 0, port: 9092, rdma_port: 18515 },
                replicas: vec![BrokerAddr { node: 1, port: 9092, rdma_port: 18515 }],
            },
            Request::OffsetSlotAccess {
                group: "g".into(),
                topic: "t".into(),
                partition: 0,
            },
            Request::ProduceRelease {
                topic: "t".into(),
                partition: 0,
            },
            Request::ConsumeAccess {
                topic: "t".into(),
                partition: 0,
                offset: 5,
                consumer_id: 0xdead,
            },
            Request::ConsumeRelease {
                topic: "t".into(),
                partition: 0,
                consumer_id: 0xdead,
                segment: 3,
            },
            Request::Telemetry,
            Request::Series,
            Request::Health,
        ];
        for req in reqs {
            let enc = req.encode();
            assert_eq!(Request::decode(&enc).unwrap(), req, "{req:?}");
        }
    }

    #[test]
    fn response_round_trips() {
        let broker = BrokerAddr {
            node: 1,
            port: 9092,
            rdma_port: 18515,
        };
        let resps = vec![
            Response::Metadata {
                error: ErrorCode::None,
                brokers: vec![broker],
                topics: vec![TopicMeta {
                    name: "t".into(),
                    partitions: vec![PartitionMeta {
                        partition: 0,
                        epoch: 7,
                        leader: broker,
                        replicas: vec![broker, broker],
                    }],
                }],
            },
            Response::CreateTopic {
                error: ErrorCode::AlreadyExists,
            },
            Response::Produce {
                error: ErrorCode::None,
                base_offset: 17,
            },
            Response::Fetch(FetchResp {
                error: ErrorCode::None,
                high_watermark: 10,
                log_end: 12,
                start_offset: 4,
                next_offset: 9,
                bytes: vec![9; 100],
            }),
            Response::ListOffsets {
                error: ErrorCode::None,
                earliest: 0,
                latest: 55,
            },
            Response::OffsetCommit {
                error: ErrorCode::None,
            },
            Response::OffsetFetch {
                error: ErrorCode::None,
                offset: u64::MAX,
            },
            Response::ProduceAccess(ProduceAccessResp {
                error: ErrorCode::None,
                file_id: 7,
                segment: 2,
                region: region(),
                write_pos: 1024,
                next_offset: 33,
                shared_word: Some(RemoteRegion {
                    addr: 0x8000,
                    rkey: 5,
                    len: 8,
                }),
                credits: 16,
            }),
            Response::ProduceAccess(ProduceAccessResp {
                error: ErrorCode::AccessDenied,
                file_id: 0,
                segment: 0,
                region: RemoteRegion {
                    addr: 0,
                    rkey: 0,
                    len: 0,
                },
                write_pos: 0,
                next_offset: 0,
                shared_word: None,
                credits: 0,
            }),
            Response::ProduceRelease {
                error: ErrorCode::None,
            },
            Response::ConsumeAccess(ConsumeAccessResp {
                error: ErrorCode::None,
                segment: 1,
                region: region(),
                start_pos: 512,
                start_offset: 40,
                last_readable: 2048,
                mutable: true,
                slot: Some(SlotGrant {
                    region: region(),
                    index: 3,
                    active_span: 5,
                }),
                high_watermark: 60,
            }),
            Response::ConsumeRelease {
                error: ErrorCode::None,
            },
            Response::OffsetSlotAccess {
                error: ErrorCode::None,
                region: region(),
            },
            Response::Telemetry {
                error: ErrorCode::None,
                json: "{\"kind\":\"counter\"}\n".into(),
            },
            Response::Series {
                error: ErrorCode::None,
                json: "{\"kind\":\"series\",\"interval_ns\":1000000}\n".into(),
            },
            Response::Health {
                error: ErrorCode::NotSupported,
                json: String::new(),
            },
        ];
        for resp in resps {
            let enc = resp.encode();
            assert_eq!(Response::decode(&enc).unwrap(), resp, "{resp:?}");
        }
    }

    #[test]
    fn garbage_rejected() {
        assert!(Request::decode(&[]).is_err());
        assert!(Request::decode(&[200]).is_err());
        assert!(Response::decode(&[200]).is_err());
        // Truncated produce.
        let enc = Request::Produce {
            topic: "t".into(),
            partition: 0,
            acks: 1,
            batch: vec![0; 64],
        }
        .encode();
        assert!(Request::decode(&enc[..enc.len() - 1]).is_err());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use sim::rng::SimRng;

    fn arb_topic(rng: &mut SimRng) -> String {
        let len = rng.random_range(1usize..=12);
        (0..len)
            .map(|_| (b'a' + rng.random_range(0u8..26)) as char)
            .collect()
    }

    fn arb_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
        let len = rng.random_range(0usize..max_len);
        let mut v = vec![0u8; len];
        rng.fill(&mut v);
        v
    }

    fn arb_request(rng: &mut SimRng) -> Request {
        match rng.below(5) {
            0 => Request::Metadata {
                topics: (0..rng.random_range(0usize..4))
                    .map(|_| arb_topic(rng))
                    .collect(),
            },
            1 => Request::CreateTopic {
                topic: arb_topic(rng),
                partitions: rng.random_range(1u32..64),
                replication: rng.random_range(1u32..4),
            },
            2 => Request::Produce {
                topic: arb_topic(rng),
                partition: rng.random_range(0u32..=u32::MAX),
                acks: rng.random_range(0u8..3),
                batch: arb_bytes(rng, 512),
            },
            3 => Request::Fetch {
                topic: arb_topic(rng),
                partition: rng.random_range(0u32..=u32::MAX),
                offset: rng.next_u64(),
                max_bytes: rng.random_range(0u32..=u32::MAX),
                replica_id: rng.random_range(0u32..=u32::MAX),
            },
            _ => Request::ConsumeAccess {
                topic: arb_topic(rng),
                partition: rng.random_range(0u32..=u32::MAX),
                offset: rng.next_u64(),
                consumer_id: rng.next_u64(),
            },
        }
    }

    #[test]
    fn requests_round_trip() {
        for case in 0..256u64 {
            let mut rng = SimRng::seed_from_u64(0x33A6_0001 ^ case);
            let req = arb_request(&mut rng);
            assert_eq!(Request::decode(&req.encode()).unwrap(), req, "case {case}");
        }
    }

    #[test]
    fn decoder_never_panics() {
        for case in 0..256u64 {
            let mut rng = SimRng::seed_from_u64(0x33A6_0002 ^ case);
            let data = arb_bytes(&mut rng, 256);
            let _ = Request::decode(&data);
            let _ = Response::decode(&data);
        }
    }
}
