//! Binary layouts shared by broker and clients *outside* the RPC protocol:
//! values read or written with one-sided RDMA, where both ends must agree on
//! bytes with no request to negotiate them.

use crate::messages::ErrorCode;

/// Packs the 32-bit immediate value of a WriteWithImm produce request
/// (paper Fig 4): high 16 bits identify the target file, low 16 bits carry
/// the producer order (shared mode; 0 in exclusive mode).
pub fn pack_imm(file_id: u16, order: u16) -> u32 {
    (u32::from(file_id) << 16) | u32::from(order)
}

/// Inverse of [`pack_imm`] → `(file_id, order)`.
pub fn unpack_imm(imm: u32) -> (u16, u16) {
    ((imm >> 16) as u16, (imm & 0xffff) as u16)
}

/// The 64-bit atomic word coordinating shared produce access (paper Fig 5):
/// high 16 bits = producer order, low 48 bits = file offset. Producers
/// FAA `(1 << 48) + record_len` to reserve a region *and* take an order
/// number in one round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SharedWord {
    pub order: u16,
    pub offset: u64,
}

/// Bit position of the order field.
pub const ORDER_SHIFT: u32 = 48;
/// Mask of the 48-bit offset field.
pub const OFFSET_MASK: u64 = (1 << ORDER_SHIFT) - 1;

/// FAA addend that takes one order number and reserves `len` bytes.
pub fn shared_word_addend(len: u64) -> u64 {
    debug_assert!(len <= OFFSET_MASK);
    (1u64 << ORDER_SHIFT) + len
}

pub fn pack_shared_word(w: SharedWord) -> u64 {
    debug_assert!(w.offset <= OFFSET_MASK);
    (u64::from(w.order) << ORDER_SHIFT) | (w.offset & OFFSET_MASK)
}

pub fn unpack_shared_word(v: u64) -> SharedWord {
    SharedWord {
        order: (v >> ORDER_SHIFT) as u16,
        offset: v & OFFSET_MASK,
    }
}

/// Size of a produce acknowledgment or replication credit return — the small
/// Send a broker answers WriteWithImms with (paper Fig 3, plus a count).
pub const ACK_SIZE: usize = 13;

/// Where the count starts: the end of Fig 3's `[error][base_offset]`.
const ACK_COUNT_AT: usize = 9;

/// Writes an ack into `out[..ACK_SIZE]`: `[error u8][base_offset u64 LE]
/// [count u32 LE]`. It answers the sender's next `count` unacknowledged
/// writes, in write order: the i-th committed at `base_offset + i`. An error
/// answers one.
pub fn encode_ack(error: ErrorCode, base_offset: u64, count: u32, out: &mut [u8]) {
    out[0] = error as u8;
    out[1..ACK_COUNT_AT].copy_from_slice(&base_offset.to_le_bytes());
    out[ACK_COUNT_AT..ACK_SIZE].copy_from_slice(&count.to_le_bytes());
}

/// Inverse of [`encode_ack`], total over peer bytes: an unknown error byte
/// (or none at all) reads as `Internal`, a payload that ends inside the
/// offset as offset 0, one that ends before or inside the count — Fig 3's
/// nine bytes — or counts zero as an ack of one write.
pub fn decode_ack(bytes: &[u8]) -> (ErrorCode, u64, u32) {
    let error = bytes.first().and_then(|&b| ErrorCode::try_from(b).ok());
    let base_offset = bytes
        .get(1..)
        .and_then(<[u8]>::first_chunk)
        .map_or(0, |b| u64::from_le_bytes(*b));
    let count = bytes
        .get(ACK_COUNT_AT..)
        .and_then(<[u8]>::first_chunk)
        .map_or(1, |b| u32::from_le_bytes(*b));
    (
        error.unwrap_or(ErrorCode::Internal),
        base_offset,
        count.max(1),
    )
}

/// Size of one RDMA-readable metadata slot (§4.4.2). A consumer fetches the
/// slots of all its subscribed files with a single RDMA Read of
/// `n * SLOT_SIZE` bytes.
pub const SLOT_SIZE: usize = 16;

/// Slots in one consumer's contiguous region (Fig 9): the broker registers
/// this many per consumer id and the consumer's local copy holds as many, so
/// every slot index a grant can name lies inside what one read covers.
pub const SLOTS_PER_CONSUMER: usize = 64;

/// Decoded view of a metadata slot.
///
/// Layout (little-endian):
/// ```text
/// 0..4   last_readable: u32   -- first byte a consumer may NOT read
/// 4      flags: u8            -- bit0: file still mutable
///                             -- bit1: the broker is no longer the leader
/// 5..8   padding
/// 8..16  high_watermark: u64  -- committed record offset (lag accounting)
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotView {
    /// Byte position after the last fully replicated record in the file
    /// ("the last readable byte", §4.4.2).
    pub last_readable: u32,
    /// False once the file is sealed; the consumer must request access to
    /// the next head file.
    pub mutable: bool,
    /// Record-offset high watermark, for consumer lag metrics.
    pub high_watermark: u64,
    /// The broker was demoted: a consumer reading this slot must find the
    /// partition's new leader (§4.4.2's slot, telling the truth about a
    /// fail-over without a crash).
    pub demoted: bool,
}

impl SlotView {
    pub fn encode(&self) -> [u8; SLOT_SIZE] {
        let mut b = [0u8; SLOT_SIZE];
        b[0..4].copy_from_slice(&self.last_readable.to_le_bytes());
        b[4] = u8::from(self.mutable) | u8::from(self.demoted) << 1;
        b[8..16].copy_from_slice(&self.high_watermark.to_le_bytes());
        b
    }

    /// Decodes the first [`SLOT_SIZE`] bytes of `b`, which callers size
    /// themselves (a slot of their own local copy); panics if `b` is shorter.
    pub fn decode(b: &[u8]) -> SlotView {
        let Some(&[r0, r1, r2, r3, flags, _, _, _, ref high_watermark @ ..]) =
            b.first_chunk::<SLOT_SIZE>()
        else {
            panic!("a slot is {SLOT_SIZE} bytes, got {}", b.len());
        };
        SlotView {
            last_readable: u32::from_le_bytes([r0, r1, r2, r3]),
            mutable: flags & 1 != 0,
            high_watermark: u64::from_le_bytes(*high_watermark),
            demoted: flags & 2 != 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ack_round_trips_every_error_code() {
        let mut known = 0;
        for byte in 0..=u8::MAX {
            let mut wire = [byte; ACK_SIZE];
            match ErrorCode::try_from(byte) {
                Ok(code) => {
                    known += 1;
                    let count = u32::from(byte) + 1;
                    encode_ack(code, 0x0102_0304_0506_0708, count, &mut wire);
                    assert_eq!(wire[0], byte);
                    assert_eq!(decode_ack(&wire), (code, 0x0102_0304_0506_0708, count));
                }
                Err(_) => assert_eq!(decode_ack(&wire).0, ErrorCode::Internal),
            }
        }
        assert_eq!(known, 12, "every ErrorCode variant decodes as itself");
    }

    #[test]
    fn short_zero_and_huge_acks_decode_to_at_least_one_write() {
        let mut wire = [0u8; ACK_SIZE];
        encode_ack(ErrorCode::None, 77, 5, &mut wire);
        // Every prefix decodes; the count only once all of it arrived.
        assert_eq!(decode_ack(&[]), (ErrorCode::Internal, 0, 1));
        assert_eq!(decode_ack(&wire[..3]), (ErrorCode::None, 0, 1));
        for len in 9..ACK_SIZE {
            assert_eq!(
                decode_ack(&wire[..len]),
                (ErrorCode::None, 77, 1),
                "{len} bytes"
            );
        }
        assert_eq!(decode_ack(&wire), (ErrorCode::None, 77, 5));
        // What follows the count is not the codec's.
        assert_eq!(
            decode_ack(&[&wire[..], &[0xff; 3]].concat()),
            (ErrorCode::None, 77, 5)
        );
        encode_ack(ErrorCode::None, 77, 0, &mut wire);
        assert_eq!(decode_ack(&wire), (ErrorCode::None, 77, 1));
        encode_ack(ErrorCode::OutOfSpace, u64::MAX, u32::MAX, &mut wire);
        assert_eq!(
            decode_ack(&wire),
            (ErrorCode::OutOfSpace, u64::MAX, u32::MAX)
        );
    }

    #[test]
    fn imm_round_trip() {
        for (f, o) in [(0u16, 0u16), (1, 2), (0xffff, 0xffff), (0x1234, 0xabcd)] {
            assert_eq!(unpack_imm(pack_imm(f, o)), (f, o));
        }
    }

    #[test]
    fn shared_word_round_trip() {
        for w in [
            SharedWord {
                order: 0,
                offset: 0,
            },
            SharedWord {
                order: 0xffff,
                offset: OFFSET_MASK,
            },
            SharedWord {
                order: 7,
                offset: 4 * 1024 * 1024 * 1024,
            }, // past 4 GiB file: overflow detectable
        ] {
            assert_eq!(unpack_shared_word(pack_shared_word(w)), w);
        }
    }

    #[test]
    fn faa_addend_increments_order_and_offset() {
        let w0 = pack_shared_word(SharedWord {
            order: 9,
            offset: 1000,
        });
        let w1 = unpack_shared_word(w0.wrapping_add(shared_word_addend(512)));
        assert_eq!(
            w1,
            SharedWord {
                order: 10,
                offset: 1512
            }
        );
    }

    #[test]
    fn order_wraps_without_touching_offset() {
        let w0 = pack_shared_word(SharedWord {
            order: 0xffff,
            offset: 42,
        });
        let w1 = unpack_shared_word(w0.wrapping_add(shared_word_addend(8)));
        assert_eq!(w1.order, 0);
        assert_eq!(w1.offset, 50);
    }

    #[test]
    fn offset_overflow_is_detectable_not_destructive() {
        // Paper §4.2.2: the 6-byte offset lets producers detect running past
        // the (≤4 GiB) file without corrupting the order field.
        let file_len = 1u64 << 32;
        let w0 = pack_shared_word(SharedWord {
            order: 3,
            offset: file_len - 100,
        });
        let w1 = unpack_shared_word(w0.wrapping_add(shared_word_addend(4096)));
        assert_eq!(w1.order, 4);
        assert!(w1.offset > file_len, "reservation beyond file is visible");
    }

    #[test]
    fn slot_round_trip() {
        let s = SlotView {
            last_readable: 123_456,
            mutable: true,
            high_watermark: 99,
            demoted: false,
        };
        let enc = s.encode();
        assert_eq!(enc[4], 1);
        assert_eq!(SlotView::decode(&enc), s);
        let sealed = SlotView {
            mutable: false,
            ..s
        };
        assert_eq!(SlotView::decode(&sealed.encode()), sealed);
        let demoted = SlotView { demoted: true, ..s };
        assert_eq!(demoted.encode()[4], 3);
        assert_eq!(SlotView::decode(&demoted.encode()), demoted);
    }
}
