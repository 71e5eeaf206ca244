//! The client↔broker wire protocol.
//!
//! Covers both the original Kafka-style RPCs (metadata, produce, fetch,
//! offsets) and KafkaDirect's RDMA control plane (§4.2.2 "Getting RDMA
//! access", §4.4.2): requests that grant one-sided access to topic-partition
//! files and metadata slots. Data-plane bytes (record batches) are opaque
//! payloads produced by `kdstorage`.
//!
//! Three modules:
//! * [`messages`] — typed requests/responses, each described once in a
//!   table whose encode, decode, size bound and generator are derived
//!   ([`Wire`]),
//! * [`frame`] — length-prefixed framing over `netsim::tcp`, plus a
//!   pipelining RPC client,
//! * [`slots`] — the shared binary layouts both ends must agree on without
//!   an RPC: the 32-bit immediate value (Fig 4), the 64-bit shared
//!   order/offset word (Fig 5), the 9-byte produce ack (Fig 3), and the
//!   RDMA-readable metadata slot (§4.4.2).

pub mod frame;
pub mod messages;
pub mod slots;

pub use frame::{read_frame, read_frame_into, write_frame, RpcClient, RpcError};
pub use messages::{
    BrokerAddr, ConsumeAccessResp, ErrorCode, FetchResp, PartitionMeta, ProduceAccessResp,
    ProduceMode, RemoteRegion, Request, Response, SlotGrant, TopicMeta, Wire,
};
pub use slots::{
    decode_ack, encode_ack, pack_imm, pack_shared_word, unpack_imm, unpack_shared_word, SharedWord,
    SlotView, ACK_SIZE, SLOT_SIZE,
};
