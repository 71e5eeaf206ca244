//! Typed protocol messages and their binary codec.
//!
//! Every request/response pair the broker understands, including the RDMA
//! control plane. Each type is described once, by `wire_struct!` or
//! `wire_enum!`, and its encoding, decoding, size bound and seeded generator
//! are all derived from that one description through [`Wire`]. A message
//! starts with its one-byte tag; fields follow in declaration order as
//! `kdstorage::codec` primitives: fixed-width little-endian integers,
//! uvarint-prefixed strings, byte vectors and lists, and a 0/1 byte before
//! an optional value.

use kdstorage::codec::{Reader, WireError, Writer};
use sim::rng::SimRng;

/// A type with one wire encoding.
pub trait Wire: Sized {
    /// No encoding of the type is shorter: how a count read off the wire is
    /// capped, so that it reserves no more elements than the input has left.
    const MIN_LEN: usize;

    fn put(&self, w: &mut Writer);

    fn get(r: &mut Reader) -> Result<Self, WireError>;

    /// A random value — what the round-trip and mutation tests draw every
    /// message from.
    fn arb(rng: &mut SimRng) -> Self;

    /// Writes a `Vec<Self>`: a uvarint count, then the elements. `u8`
    /// overrides this pair to copy the bytes at once.
    fn put_vec(v: &[Self], w: &mut Writer) {
        w.put_uvarint(v.len() as u64);
        v.iter().for_each(|x| x.put(w));
    }

    fn get_vec(r: &mut Reader) -> Result<Vec<Self>, WireError> {
        let n = r.get_uvarint()?;
        // The capacity rule: no more elements than the bytes left can hold,
        // which is exactly `n` when the `n` elements are there.
        let fit = r.remaining() / Self::MIN_LEN.max(1);
        let mut v = Vec::with_capacity(n.min(fit as u64) as usize);
        for _ in 0..n {
            v.push(Self::get(r)?);
        }
        Ok(v)
    }
}

/// Fixed-width little-endian integers; the extra tokens go into the impl.
macro_rules! wire_int {
    ($($t:ty => $put:ident, $get:ident { $($extra:tt)* })*) => {$(
        impl Wire for $t {
            const MIN_LEN: usize = std::mem::size_of::<$t>();

            fn put(&self, w: &mut Writer) {
                w.$put(*self)
            }

            fn get(r: &mut Reader) -> Result<Self, WireError> {
                r.$get()
            }

            fn arb(rng: &mut SimRng) -> Self {
                // Every magnitude, not only values near the maximum.
                (rng.next_u64() >> rng.below(64)) as $t
            }

            $($extra)*
        }
    )*};
}

wire_int! {
    u8 => put_u8, get_u8 {
        fn put_vec(v: &[u8], w: &mut Writer) {
            w.put_uvarint(v.len() as u64);
            w.put_bytes(v);
        }

        fn get_vec(r: &mut Reader) -> Result<Vec<u8>, WireError> {
            let len = r.get_uvarint()? as usize;
            Ok(r.take(len)?.to_vec())
        }
    }
    u16 => put_u16, get_u16 {}
    u32 => put_u32, get_u32 {}
    u64 => put_u64, get_u64 {}
}

impl Wire for bool {
    const MIN_LEN: usize = 1;

    fn put(&self, w: &mut Writer) {
        w.put_u8(u8::from(*self));
    }

    /// Any non-zero byte is `true`.
    fn get(r: &mut Reader) -> Result<Self, WireError> {
        Ok(r.get_u8()? != 0)
    }

    fn arb(rng: &mut SimRng) -> Self {
        rng.below(2) == 1
    }
}

impl Wire for String {
    const MIN_LEN: usize = 1;

    fn put(&self, w: &mut Writer) {
        w.put_string(self);
    }

    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_string()
    }

    fn arb(rng: &mut SimRng) -> Self {
        (0..rng.below(13))
            .map(|_| char::from(b'a' + rng.below(26) as u8))
            .collect()
    }
}

impl<T: Wire> Wire for Vec<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, w: &mut Writer) {
        T::put_vec(self, w);
    }

    fn get(r: &mut Reader) -> Result<Self, WireError> {
        T::get_vec(r)
    }

    fn arb(rng: &mut SimRng) -> Self {
        (0..rng.below(5)).map(|_| T::arb(rng)).collect()
    }
}

impl<T: Wire> Wire for Option<T> {
    const MIN_LEN: usize = 1;

    fn put(&self, w: &mut Writer) {
        w.put_u8(u8::from(self.is_some()));
        if let Some(v) = self {
            v.put(w);
        }
    }

    fn get(r: &mut Reader) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::get(r)?)),
            _ => Err(WireError::BadValue),
        }
    }

    fn arb(rng: &mut SimRng) -> Self {
        (rng.below(2) == 1).then(|| T::arb(rng))
    }
}

/// Structs whose fields are encoded in declaration order.
macro_rules! wire_struct {
    ($(
        $(#[$m:meta])*
        pub struct $S:ident { $( $(#[$fm:meta])* pub $f:ident: $ft:ty ),* $(,)? }
    )*) => {$(
        $(#[$m])*
        pub struct $S { $( $(#[$fm])* pub $f: $ft ),* }

        impl Wire for $S {
            const MIN_LEN: usize = 0 $(+ <$ft as Wire>::MIN_LEN)*;

            fn put(&self, w: &mut Writer) {
                $( Wire::put(&self.$f, w); )*
            }

            fn get(r: &mut Reader) -> Result<Self, WireError> {
                Ok(Self { $( $f: Wire::get(r)? ),* })
            }

            fn arb(rng: &mut SimRng) -> Self {
                Self { $( $f: Wire::arb(rng) ),* }
            }
        }
    )*};
}

/// Enums whose every variant names its tag byte. A fieldless `: u8` enum
/// is its tag; otherwise the tag is followed by the variant's fields — those
/// of a struct variant, or the one `wire_struct!` a tuple variant wraps.
macro_rules! wire_enum {
    ($(#[$m:meta])* pub enum $E:ident: u8 { $( $(#[$vm:meta])* $V:ident = $tag:literal ),* $(,)? }) => {
        $(#[$m])*
        #[repr(u8)]
        pub enum $E { $( $(#[$vm])* $V = $tag ),* }

        impl TryFrom<u8> for $E {
            type Error = WireError;

            fn try_from(v: u8) -> Result<Self, WireError> {
                match v {
                    $( $tag => Ok(Self::$V), )*
                    _ => Err(WireError::BadValue),
                }
            }
        }

        impl Wire for $E {
            const MIN_LEN: usize = 1;

            fn put(&self, w: &mut Writer) {
                w.put_u8(*self as u8);
            }

            fn get(r: &mut Reader) -> Result<Self, WireError> {
                Self::try_from(r.get_u8()?)
            }

            fn arb(rng: &mut SimRng) -> Self {
                const ALL: &[$E] = &[$($E::$V),*];
                ALL[rng.below(ALL.len() as u64) as usize]
            }
        }
    };

    ($(#[$m:meta])* pub enum $E:ident { $(
        $(#[$vm:meta])*
        $V:ident $({ $( $(#[$fm:meta])* $f:ident: $ft:ty ),* $(,)? })? $(($T:ident))? = $tag:literal
    ),* $(,)? }) => {
        $(#[$m])*
        pub enum $E { $( $(#[$vm])* $V $({ $( $(#[$fm])* $f: $ft ),* })? $(($T))? ),* }

        impl Wire for $E {
            /// The tag byte.
            const MIN_LEN: usize = 1;

            fn put(&self, w: &mut Writer) {
                match self { $(
                    Self::$V $({ $($f),* })? $((inner @ $T { .. }))? => {
                        w.put_u8($tag);
                        $($( Wire::put($f, w); )*)?
                        $( $T::put(inner, w); )?
                    }
                )* }
            }

            fn get(r: &mut Reader) -> Result<Self, WireError> {
                Ok(match r.get_u8()? {
                    $( $tag => Self::$V $({ $($f: Wire::get(r)?),* })? $(($T::get(r)?))?, )*
                    _ => return Err(WireError::BadValue),
                })
            }

            fn arb(rng: &mut SimRng) -> Self {
                const TAGS: &[u8] = &[$($tag),*];
                match TAGS[rng.below(TAGS.len() as u64) as usize] {
                    $( $tag => Self::$V $({ $($f: Wire::arb(rng)),* })? $(($T::arb(rng)))?, )*
                    _ => unreachable!("a tag of the table"),
                }
            }
        }

        impl $E {
            pub fn encode(&self) -> Vec<u8> {
                let mut out = Vec::new();
                self.encode_into(&mut out);
                out
            }

            /// Appends the encoding to `out`; allocation-free once `out` has
            /// grown to steady-state capacity (hot paths pass a reused
            /// scratch buffer).
            pub fn encode_into(&self, out: &mut Vec<u8>) {
                let mut w = Writer::from_vec(std::mem::take(out));
                self.put(&mut w);
                *out = w.into_vec();
            }

            pub fn decode(bytes: &[u8]) -> Result<Self, WireError> {
                Self::get(&mut Reader::new(bytes))
            }
        }
    };
}

wire_struct! {
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

    /// `(addr, rkey, len)` of a remotely accessible region — what "get RDMA
    /// access" hands to clients (§4.2.2).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct RemoteRegion {
        pub addr: u64,
        pub rkey: u32,
        pub len: u64,
    }

    /// Fetch response payload.
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
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
    #[derive(Debug, Clone, Default, PartialEq, Eq)]
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
}

wire_enum! {
    /// Protocol-level error codes.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub enum ErrorCode: u8 {
        #[default]
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
}

impl ErrorCode {
    pub fn is_ok(self) -> bool {
        self == ErrorCode::None
    }
}

wire_enum! {
    /// Produce access mode (§4.2.2 "Approaches to RDMA produce").
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum ProduceMode: u8 {
        /// One producer owns the head file; no reservation word needed.
        Exclusive = 0,
        /// Multiple producers coordinate through the FAA word (Fig 5).
        Shared = 1,
        /// Leader→follower push replication (exclusive by construction,
        /// flow-controlled by credits, §4.3.2).
        Replication = 2,
    }
}

wire_enum! {
    /// Client→broker requests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Request {
        /// Topic/partition discovery; empty list = all topics.
        Metadata { topics: Vec<String> } = 0,
        CreateTopic { topic: String, partitions: u32, replication: u32 } = 1,
        /// The original TCP produce datapath (§4.2.1).
        Produce {
            topic: String,
            partition: u32,
            /// 0 = fire-and-forget, 1 = leader ack, 2 = all in-sync replicas.
            acks: u8,
            batch: Vec<u8>,
        } = 2,
        /// Consumer fetch, or follower pull-replication fetch when `replica_id`
        /// is set (§4.3.1).
        Fetch {
            topic: String,
            partition: u32,
            offset: u64,
            max_bytes: u32,
            /// `u32::MAX` = a consumer; otherwise the fetching follower's node.
            replica_id: u32,
        } = 3,
        ListOffsets { topic: String, partition: u32 } = 4,
        OffsetCommit { group: String, topic: String, partition: u32, offset: u64 } = 5,
        OffsetFetch { group: String, topic: String, partition: u32 } = 6,
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
        } = 7,
        /// Voluntarily drop a produce grant.
        ProduceRelease { topic: String, partition: u32 } = 8,
        /// Get RDMA read access to the file containing `offset` (§4.4.2).
        ConsumeAccess { topic: String, partition: u32, offset: u64, consumer_id: u64 } = 9,
        /// Tell the broker a fully-read file can be unregistered (§4.4.2:
        /// "notifies the broker about the files that can be unregistered").
        ConsumeRelease { topic: String, partition: u32, consumer_id: u64, segment: u32 } = 10,
        /// EXTENSION (paper §5.4 future work): get an RDMA-writable offset slot
        /// so the consumer can commit its offset with a one-sided write instead
        /// of a TCP request ("KafkaDirect could implement an accelerated commit
        /// offset request with the use of RDMA").
        OffsetSlotAccess { group: String, topic: String, partition: u32 } = 12,
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
        } = 11,
        /// Admin: dump the broker's telemetry registry (counters, gauges,
        /// latency histograms) as JSON lines.
        Telemetry = 13,
        /// Admin: dump the broker's virtual-time time-series recorder
        /// (`kdtelem::SeriesDump`) as JSON lines. Errors with
        /// [`ErrorCode::NotSupported`] when the broker runs without a sampler.
        Series = 14,
        /// Admin: dump the broker's health-watchdog event log
        /// (`kdtelem::HealthEvent`s) as JSON lines. Errors with
        /// [`ErrorCode::NotSupported`] when the broker runs without a watchdog.
        Health = 15,
    }
}

wire_enum! {
    /// Broker→client responses.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum Response {
        Metadata { error: ErrorCode, brokers: Vec<BrokerAddr>, topics: Vec<TopicMeta> } = 0,
        CreateTopic { error: ErrorCode } = 1,
        Produce { error: ErrorCode, base_offset: u64 } = 2,
        Fetch(FetchResp) = 3,
        ListOffsets { error: ErrorCode, earliest: u64, latest: u64 } = 4,
        OffsetCommit { error: ErrorCode } = 5,
        OffsetFetch {
            error: ErrorCode,
            /// `u64::MAX` = no committed offset.
            offset: u64,
        } = 6,
        ProduceAccess(ProduceAccessResp) = 7,
        ProduceRelease { error: ErrorCode } = 8,
        ConsumeAccess(ConsumeAccessResp) = 9,
        ConsumeRelease { error: ErrorCode } = 10,
        /// EXTENSION: the 8-byte RDMA-writable offset slot.
        OffsetSlotAccess { error: ErrorCode, region: RemoteRegion } = 12,
        InternalAddPartition { error: ErrorCode } = 11,
        /// JSON-lines encoding of a `kdtelem::TelemetryReport`.
        Telemetry { error: ErrorCode, json: String } = 13,
        /// JSON-lines encoding of a `kdtelem::SeriesDump`.
        Series { error: ErrorCode, json: String } = 14,
        /// JSON-lines encoding of the watchdog's `kdtelem::HealthEvent` log.
        Health { error: ErrorCode, json: String } = 15,
    }
}

impl Request {
    /// Appends the encoding of a [`Request::Produce`] built from borrowed
    /// parts: a producer's send path owns neither a `String` nor the batch
    /// per request. `produce_parts_encode_as_produce` holds it to the table.
    pub fn encode_produce_into(out: &mut Vec<u8>, topic: &str, partition: u32, acks: u8, batch: &[u8]) {
        let mut w = Writer::from_vec(std::mem::take(out));
        w.put_u8(2);
        w.put_string(topic);
        partition.put(&mut w);
        acks.put(&mut w);
        u8::put_vec(batch, &mut w);
        *out = w.into_vec();
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

    fn broker(node: u32) -> BrokerAddr {
        BrokerAddr {
            node,
            port: 9092,
            rdma_port: 18515,
        }
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Each value's exact encoding, captured at the commit before the codec
    /// became a table — TCP packet sizes are virtual time, so while this
    /// passes no figure can move — and each value decodes back to itself.
    /// Every mismatch is reported at once.
    fn assert_golden<T: PartialEq + std::fmt::Debug>(
        cases: &[(T, &str)],
        encode: impl Fn(&T) -> Vec<u8>,
        decode: impl Fn(&[u8]) -> Result<T, WireError>,
    ) {
        let mut wrong = String::new();
        for (value, want) in cases {
            let enc = encode(value);
            if hex(&enc) != *want {
                wrong += &format!("{value:?}\n  want {want}\n  got  {}\n", hex(&enc));
            }
            assert_eq!(decode(&enc).as_ref(), Ok(value));
        }
        assert!(wrong.is_empty(), "encodings changed:\n{wrong}");
    }

    #[test]
    fn request_round_trips() {
        let cases = [
            (
                Request::Metadata {
                    topics: vec!["a".into(), "b".into()],
                },
                "000201610162",
            ),
            (Request::Metadata { topics: vec![] }, "0000"),
            (
                Request::CreateTopic {
                    topic: "events".into(),
                    partitions: 4,
                    replication: 3,
                },
                "01066576656e74730400000003000000",
            ),
            (
                Request::Produce {
                    topic: "t".into(),
                    partition: 2,
                    acks: 2,
                    batch: vec![1, 2, 3],
                },
                "020174020000000203010203",
            ),
            (
                Request::Produce {
                    topic: String::new(),
                    partition: u32::MAX,
                    acks: 0,
                    batch: vec![],
                },
                "0200ffffffff0000",
            ),
            (
                Request::Fetch {
                    topic: "t".into(),
                    partition: 0,
                    offset: 99,
                    max_bytes: 1 << 20,
                    replica_id: u32::MAX,
                },
                "03017400000000630000000000000000001000ffffffff",
            ),
            (
                Request::ListOffsets {
                    topic: "t".into(),
                    partition: 1,
                },
                "04017401000000",
            ),
            (
                Request::OffsetCommit {
                    group: "g".into(),
                    topic: "t".into(),
                    partition: 0,
                    offset: 12,
                },
                "0501670174000000000c00000000000000",
            ),
            (
                Request::OffsetFetch {
                    group: "g".into(),
                    topic: "t".into(),
                    partition: 0,
                },
                "060167017400000000",
            ),
            (
                Request::ProduceAccess {
                    topic: "t".into(),
                    partition: 0,
                    mode: ProduceMode::Exclusive,
                    min_bytes: 0,
                },
                "070174000000000000000000",
            ),
            (
                Request::ProduceAccess {
                    topic: "t".into(),
                    partition: 0,
                    mode: ProduceMode::Shared,
                    min_bytes: 4096,
                },
                "070174000000000100100000",
            ),
            (
                Request::ProduceAccess {
                    topic: "t".into(),
                    partition: 9,
                    mode: ProduceMode::Replication,
                    min_bytes: 1,
                },
                "070174090000000201000000",
            ),
            (
                Request::ProduceRelease {
                    topic: "t".into(),
                    partition: 0,
                },
                "08017400000000",
            ),
            (
                Request::ConsumeAccess {
                    topic: "t".into(),
                    partition: 0,
                    offset: 5,
                    consumer_id: 0xdead,
                },
                "090174000000000500000000000000adde000000000000",
            ),
            (
                Request::ConsumeRelease {
                    topic: "t".into(),
                    partition: 0,
                    consumer_id: 0xdead,
                    segment: 3,
                },
                "0a017400000000adde00000000000003000000",
            ),
            (
                Request::OffsetSlotAccess {
                    group: "g".into(),
                    topic: "t".into(),
                    partition: 0,
                },
                "0c0167017400000000",
            ),
            (
                Request::InternalAddPartition {
                    topic: "t".into(),
                    partition: 1,
                    epoch: 3,
                    leader: broker(0),
                    replicas: vec![broker(1), broker(2)],
                },
                "0b017401000000030000000000000000000000842353480201000000842353480200000084235348",
            ),
            (
                Request::InternalAddPartition {
                    topic: "t".into(),
                    partition: 1,
                    epoch: 3,
                    leader: broker(0),
                    replicas: vec![],
                },
                "0b0174010000000300000000000000000000008423534800",
            ),
            (Request::Telemetry, "0d"),
            (Request::Series, "0e"),
            (Request::Health, "0f"),
        ];
        assert_golden(&cases, Request::encode, Request::decode);
    }

    #[test]
    fn response_round_trips() {
        let cases = [
            (
                Response::Metadata {
                    error: ErrorCode::None,
                    brokers: vec![broker(1)],
                    topics: vec![TopicMeta {
                        name: "t".into(),
                        partitions: vec![
                            PartitionMeta {
                                partition: 0,
                                epoch: 7,
                                leader: broker(1),
                                replicas: vec![broker(1), broker(2)],
                            },
                            PartitionMeta {
                                partition: 1,
                                epoch: 0,
                                leader: broker(2),
                                replicas: vec![],
                            },
                        ],
                    }],
                },
                "00000101000000842353480101740200000000070000000000000001000000842353480201000000842353480200000084235348010000000000000000000000020000008423534800",
            ),
            (
                Response::Metadata {
                    error: ErrorCode::NotLeader,
                    brokers: vec![],
                    topics: vec![TopicMeta {
                        name: String::new(),
                        partitions: vec![],
                    }],
                },
                "000200010000",
            ),
            (
                Response::Metadata {
                    error: ErrorCode::None,
                    brokers: vec![],
                    topics: vec![],
                },
                "00000000",
            ),
            (
                Response::CreateTopic {
                    error: ErrorCode::AlreadyExists,
                },
                "0107",
            ),
            (
                Response::Produce {
                    error: ErrorCode::None,
                    base_offset: 17,
                },
                "02001100000000000000",
            ),
            (
                Response::Fetch(FetchResp {
                    error: ErrorCode::None,
                    high_watermark: 10,
                    log_end: 12,
                    start_offset: 4,
                    next_offset: 9,
                    bytes: vec![9; 5],
                }),
                "03000a000000000000000c0000000000000004000000000000000900000000000000050909090909",
            ),
            (
                Response::Fetch(FetchResp {
                    error: ErrorCode::OffsetOutOfRange,
                    high_watermark: 0,
                    log_end: 0,
                    start_offset: 0,
                    next_offset: 0,
                    bytes: vec![],
                }),
                "030c000000000000000000000000000000000000000000000000000000000000000000",
            ),
            (
                Response::ListOffsets {
                    error: ErrorCode::None,
                    earliest: 0,
                    latest: 55,
                },
                "040000000000000000003700000000000000",
            ),
            (
                Response::OffsetCommit {
                    error: ErrorCode::None,
                },
                "0500",
            ),
            (
                Response::OffsetFetch {
                    error: ErrorCode::None,
                    offset: u64::MAX,
                },
                "0600ffffffffffffffff",
            ),
            (
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
                "070007000200000000100000007f00002a000000000000040000000000040000210000000000000001008000000000000005000000080000000000000010000000",
            ),
            (
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
                "070400000000000000000000000000000000000000000000000000000000000000000000000000000000000000",
            ),
            (
                Response::ProduceRelease {
                    error: ErrorCode::None,
                },
                "0800",
            ),
            (
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
                "09000100000000100000007f00002a000000000000040000000000020000280000000000000000080000010100100000007f00002a000000000000040000000003000000050000003c00000000000000",
            ),
            (
                Response::ConsumeAccess(ConsumeAccessResp {
                    error: ErrorCode::None,
                    segment: 4,
                    region: region(),
                    start_pos: 0,
                    start_offset: 0,
                    last_readable: 4096,
                    mutable: false,
                    slot: None,
                    high_watermark: 61,
                }),
                "09000400000000100000007f00002a00000000000004000000000000000000000000000000000010000000003d00000000000000",
            ),
            (
                Response::ConsumeRelease {
                    error: ErrorCode::None,
                },
                "0a00",
            ),
            (
                Response::OffsetSlotAccess {
                    error: ErrorCode::None,
                    region: region(),
                },
                "0c0000100000007f00002a0000000000000400000000",
            ),
            (
                Response::InternalAddPartition {
                    error: ErrorCode::FencedEpoch,
                },
                "0b0a",
            ),
            (
                Response::Telemetry {
                    error: ErrorCode::None,
                    json: "{\"kind\":\"counter\"}\n".into(),
                },
                "0d00137b226b696e64223a22636f756e746572227d0a",
            ),
            (
                Response::Series {
                    error: ErrorCode::None,
                    json: "{\"kind\":\"series\",\"interval_ns\":1000000}\n".into(),
                },
                "0e00287b226b696e64223a22736572696573222c22696e74657276616c5f6e73223a313030303030307d0a",
            ),
            (
                Response::Health {
                    error: ErrorCode::NotSupported,
                    json: String::new(),
                },
                "0f0b00",
            ),
        ];
        assert_golden(&cases, Response::encode, Response::decode);
    }

    #[test]
    fn every_error_code_is_its_byte() {
        let codes = [
            ErrorCode::None,
            ErrorCode::UnknownTopicOrPartition,
            ErrorCode::NotLeader,
            ErrorCode::CorruptBatch,
            ErrorCode::AccessDenied,
            ErrorCode::OutOfSpace,
            ErrorCode::InvalidRequest,
            ErrorCode::AlreadyExists,
            ErrorCode::OrderTimeout,
            ErrorCode::Internal,
            ErrorCode::FencedEpoch,
            ErrorCode::NotSupported,
            ErrorCode::OffsetOutOfRange,
        ];
        for (byte, error) in codes.into_iter().enumerate() {
            let resp = Response::CreateTopic { error };
            assert_eq!(resp.encode(), [1, byte as u8], "{error:?}");
            assert_eq!(Response::decode(&[1, byte as u8]), Ok(resp));
        }
        assert_eq!(Response::decode(&[1, 13]), Err(WireError::BadValue));
    }

    /// The borrowed-parts hot path writes exactly what the table writes for
    /// the owned request, appended to whatever the buffer already holds.
    #[test]
    fn produce_parts_encode_as_produce() {
        for (topic, partition, acks, batch) in [
            ("t", 2, 2, vec![1, 2, 3]),
            ("", 0, 0, vec![]),
            ("kdmark", u32::MAX, 1, vec![0x5a; 300]),
        ] {
            let owned = Request::Produce {
                topic: topic.into(),
                partition,
                acks,
                batch: batch.clone(),
            };
            let mut out = vec![0xee];
            Request::encode_produce_into(&mut out, topic, partition, acks, &batch);
            assert_eq!(out[0], 0xee);
            assert_eq!(out[1..], owned.encode()[..], "{owned:?}");
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
