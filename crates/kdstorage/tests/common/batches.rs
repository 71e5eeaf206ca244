//! Record batches for the hostile-bytes tests: seeded valid batches, and
//! mutations of them that a peer could send. A peer can compute CRC32C, so
//! every mutation re-seals the checksum over what the length field covers.
//!
//! Shared by `kdstorage`'s hostile-bytes tests and `kdclient`'s consumer
//! tests, which include this file by path.

#![allow(dead_code)]

use kdstorage::crc32c::crc32c;
use kdstorage::record::{BatchBuilder, Record, BATCH_HEADER_LEN, LENGTH_PREFIX_LEN};
use kdstorage::Writer;
use sim::rng::SimRng;

/// Byte positions of the header fields (`kdstorage::record`'s layout).
pub const LENGTH_AT: usize = 8;
pub const CRC_AT: usize = 15;
pub const CRC_FROM: usize = 19;
pub const COUNT_AT: usize = 43;

pub fn set_u32(b: &mut [u8], at: usize, v: u32) {
    b[at..at + 4].copy_from_slice(&v.to_le_bytes());
}

/// Re-seals the CRC of the batch at the front of `b` over the bytes its
/// length field covers, or over all of `b` when it claims more.
pub fn reseal(b: &mut [u8]) {
    if b.len() < CRC_FROM {
        return;
    }
    let length = u32::from_le_bytes([
        b[LENGTH_AT],
        b[LENGTH_AT + 1],
        b[LENGTH_AT + 2],
        b[LENGTH_AT + 3],
    ]);
    let end = (LENGTH_PREFIX_LEN as u64 + u64::from(length)).min(b.len() as u64) as usize;
    if end > CRC_FROM {
        let crc = crc32c(&b[CRC_FROM..end]);
        b[CRC_AT..CRC_FROM].copy_from_slice(&crc.to_le_bytes());
    }
}

/// A sealed batch claiming `record_count` records over `section`, whatever
/// the section holds.
pub fn raw_batch(record_count: u32, section: &[u8]) -> Vec<u8> {
    let mut b = vec![0u8; BATCH_HEADER_LEN];
    set_u32(
        &mut b,
        LENGTH_AT,
        (BATCH_HEADER_LEN - LENGTH_PREFIX_LEN + section.len()) as u32,
    );
    b[12] = 2; // magic
    set_u32(&mut b, COUNT_AT, record_count);
    b.extend_from_slice(section);
    reseal(&mut b);
    b
}

fn bytes(rng: &mut SimRng, max: u64) -> Vec<u8> {
    let mut v = vec![0u8; rng.below(max + 1) as usize];
    rng.fill(&mut v);
    v
}

pub fn arb_record(rng: &mut SimRng) -> Record {
    let mut r = Record::value(bytes(rng, 48)).with_timestamp(rng.below(1 << 20) as i64 - (1 << 19));
    if rng.random_bool(0.3) {
        r = r.with_key(bytes(rng, 12));
    }
    for _ in 0..rng.below(3) {
        let name: String = (0..1 + rng.below(6))
            .map(|_| (b'a' + rng.below(26) as u8) as char)
            .collect();
        r = r.with_header(&name, bytes(rng, 8));
    }
    r
}

/// A valid batch of one to eight records, well under 1 KiB.
pub fn arb_batch(rng: &mut SimRng) -> Vec<u8> {
    let mut out = Vec::new();
    let mut b = BatchBuilder::begin(7, &mut out);
    for _ in 0..1 + rng.below(8) {
        b.append(&arb_record(rng));
    }
    b.finish().expect("a batch of at least one record");
    out
}

/// One mutation of the valid batch `valid`, re-sealed; `other` is another
/// valid batch to splice from.
pub fn mutate(rng: &mut SimRng, valid: &[u8], other: &[u8]) -> Vec<u8> {
    let mut b = valid.to_vec();
    let in_records = |rng: &mut SimRng, len: usize| {
        BATCH_HEADER_LEN + rng.below((len - BATCH_HEADER_LEN) as u64) as usize
    };
    let kind = rng.below(8);
    match kind {
        0 => {
            for _ in 0..=rng.below(3) {
                let i = rng.below(b.len() as u64) as usize;
                b[i] ^= 1 << rng.below(8);
            }
        }
        1 => b.truncate(rng.below(b.len() as u64) as usize),
        2 => {
            let i = in_records(rng, b.len());
            let noise = bytes(rng, 8);
            b.splice(i..i, noise);
        }
        3 => {
            // A length or count is one byte in a generated record.
            let mut huge = Writer::new();
            huge.put_uvarint(u64::MAX >> rng.below(40));
            let i = in_records(rng, b.len());
            b.splice(i..=i, huge.into_vec());
        }
        4 => {
            let length = match rng.below(3) {
                0 => u32::MAX - rng.below(16) as u32,
                1 => rng.next_u32(),
                _ => rng.below(64) as u32,
            };
            set_u32(&mut b, LENGTH_AT, length);
        }
        5 => {
            let count = match rng.below(3) {
                0 => u32::MAX - rng.below(16) as u32,
                1 => rng.next_u32(),
                _ => rng.below(18) as u32,
            };
            set_u32(&mut b, COUNT_AT, count);
        }
        6 => {
            b.truncate(BATCH_HEADER_LEN);
            b.extend_from_slice(&other[BATCH_HEADER_LEN..]);
        }
        _ => {
            // Records that are only a zero length prefix.
            let n = 1 + rng.below(1000) as usize;
            b = raw_batch(n as u32, &vec![0; n]);
        }
    }
    if matches!(kind, 1 | 2 | 3 | 6) && b.len() >= LENGTH_PREFIX_LEN && rng.random_bool(0.5) {
        let length = (b.len() - LENGTH_PREFIX_LEN) as u32;
        set_u32(&mut b, LENGTH_AT, length);
    }
    reseal(&mut b);
    b
}
