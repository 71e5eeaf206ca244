//! A record batch is peer bytes on both produce paths: `Log::append_batch`
//! copies it in from a TCP request, and `Log::commit_in_place` checks it
//! where a one-sided RDMA write put it in the head segment. The same bytes
//! later reach every consumer's `decode_batch`. So a batch commits exactly
//! when it decodes: `decode_batch` runs `verify_batch`, which allocates
//! nothing, and then hands out records as views of its input, which it
//! copies at most once — a record count reserves nothing (DESIGN.md §9
//! "Hostile bytes").

mod common;

use common::allocated;
use common::batches::{self, arb_batch, raw_batch, reseal, set_u32, LENGTH_AT};
use kdstorage::record::{decode_batch, encode_batch, verify_batch, Record, RecordView};
use kdstorage::{AppendError, Log, LogConfig};
use sim::rng::SimRng;

/// Bytes an in-place commit may allocate per input byte.
const C: usize = 32;

/// Bytes a decode or commit may allocate whatever the input. A decode of
/// plain bytes allocates their copy and the 40-byte box that owns it.
const SLACK: usize = 64;

/// Seeded mutated batches.
const ROUNDS: u32 = 20_000;

/// A CRC-valid batch of 1 000 records that are each only a zero length
/// prefix: 1 047 bytes.
fn poison() -> Vec<u8> {
    raw_batch(1000, &[0; 1000])
}

fn log() -> Log {
    Log::new(LogConfig {
        segment_size: 64 * 1024,
        max_batch_size: 64 * 1024,
    })
}

/// Writes `bytes` into the head at its committed frontier, as an RDMA
/// producer's write lands, and returns that position.
fn land(log: &Log, bytes: &[u8]) -> u32 {
    let head = log.head();
    let pos = head.committed_pos();
    head.write_at(pos, bytes);
    head.advance_write_pos(pos + bytes.len() as u32);
    pos
}

#[test]
fn a_batch_no_consumer_can_decode_does_not_commit() {
    let poison = poison();
    assert_eq!(poison.len(), 1047);
    assert!(decode_batch(&poison).is_err());
    let log = log();
    assert!(log.append_batch(&poison).is_err(), "TCP produce path");
    let pos = land(&log, &poison);
    assert!(log.commit_in_place(pos).is_err(), "RDMA produce path");
    assert_eq!(log.next_offset(), 0);
}

#[test]
fn decoding_a_poison_batch_reserves_no_more_than_it_holds() {
    let poison = poison();
    let (decoded, bytes) = allocated(|| decode_batch(&poison));
    assert!(decoded.is_err());
    assert!(
        bytes <= poison.len() + SLACK,
        "decoding {} bytes allocated {bytes}",
        poison.len()
    );
}

/// `batch_length` near `u32::MAX` makes a total length past `u32::MAX`: it
/// is refused as too large at commit and ends recovery's scan, never
/// wrapped to a small length.
#[test]
fn a_length_prefix_past_u32_max_is_refused_not_wrapped() {
    let good = encode_batch(7, &[Record::value(vec![5; 40])]).unwrap();
    for before in 0..2u64 {
        for k in 0..16 {
            let log = log();
            for _ in 0..before {
                log.append_batch(&good).unwrap();
            }
            let mut bad = good.clone();
            set_u32(&mut bad, LENGTH_AT, u32::MAX - k);
            reseal(&mut bad);
            let pos = land(&log, &bad);
            assert!(
                matches!(log.commit_in_place(pos), Err(AppendError::TooLarge { .. })),
                "k {k}"
            );
            let head = log.head();
            let recovered = Log::recover(log.config().clone(), None, vec![(0, head.shared_buf())]);
            assert_eq!(recovered.next_offset(), before, "k {k}");
            assert_eq!(recovered.append_batch(&good).unwrap().base_offset, before);
        }
    }
}

#[test]
fn mutated_batches_commit_exactly_when_they_decode() {
    let mut rng = SimRng::seed_from_u64(0x27BA_0001);
    let mut log = log();
    let mut previous = arb_batch(&mut rng);
    let (mut committed, mut refused) = (0, 0);
    for round in 0..ROUNDS {
        let valid = arb_batch(&mut rng);
        let hostile = batches::mutate(&mut rng, &valid, &previous);
        previous = valid;
        let bound = C * hostile.len() + SLACK;
        let what = || format!("round {round}: {hostile:02x?}");

        let (verified, bytes) = allocated(|| verify_batch(&hostile));
        assert_eq!(bytes, 0, "verify allocated, {}", what());
        let (decoded, bytes) =
            allocated(|| decode_batch(&hostile).map(Iterator::collect::<Vec<_>>));
        let views = decoded
            .as_ref()
            .map_or(0, |records| records.capacity() * size_of::<RecordView>());
        assert!(
            bytes <= hostile.len() + views + SLACK,
            "decode allocated {bytes}, {}",
            what()
        );
        assert_eq!(verified.is_ok(), decoded.is_ok(), "{}", what());
        if let (Ok(h), Ok(records)) = (&verified, &decoded) {
            assert_eq!(records.len(), h.record_count as usize, "{}", what());
        }

        // In place: whatever the head holds from the landing position on
        // is what the commit checks.
        let head = log.head();
        if head.remaining() < hostile.len() as u32 || head.batch_count() >= 32 {
            log = self::log();
        }
        let head = log.head();
        let pos = land(&log, &hostile);
        let holds_a_batch =
            head.with_slice(pos, head.capacity() - pos, |b| verify_batch(b).is_ok());
        let (commit, bytes) = allocated(|| log.commit_in_place(pos));
        assert!(bytes <= bound, "commit allocated {bytes}, {}", what());
        assert_eq!(commit.is_ok(), holds_a_batch, "{}", what());
        match commit {
            Ok(info) => {
                committed += 1;
                let stored = head.read(pos, info.total_len);
                assert!(decode_batch(&stored).is_ok(), "{}", what());
            }
            Err(_) => {
                refused += 1;
                head.truncate_to_committed();
            }
        }
    }
    assert!(
        committed > ROUNDS / 20 && refused > ROUNDS / 2,
        "{committed} committed, {refused} refused"
    );
}
