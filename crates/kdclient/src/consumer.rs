//! The original Kafka consumer (§4.4.1): periodic fetch requests,
//! regardless of data availability — the CPU burden §5.3 quantifies.

use kdstorage::record::{decode_batch, peek_total_len, RecordView, LENGTH_PREFIX_LEN};
use kdwire::{BrokerAddr, Request, Response};
use netsim::profile::copy_time;
use netsim::NodeHandle;

use crate::conn::{ClientTransport, Conn};
use crate::error::{check, ClientError};

/// Decodes the complete batches at the front of `bytes` — the one batch-drain
/// loop of both consumers. They are copied once, into one chunk of `chunks`,
/// and records from `*next_offset` on go to `deliver` as views of that chunk
/// and advance it; `on_batch` sees each decoded batch's length.
/// Returns the bytes consumed: what follows is an incomplete batch, which
/// the RDMA consumer keeps for its next read and the fetch consumer rejects.
/// Lengths come from the wire, so none is trusted past the end of `bytes`.
///
/// A read is checked against the offsets it claims: the first record
/// delivered is `*next_offset` and every later one its predecessor's
/// successor. Records below the offset are skipped only up to the first
/// one delivered (the prefix of the batch that holds the offset, as a read
/// starts at that batch). Any other jump is [`ClientError::Corrupt`].
pub(crate) fn drain_batches(
    bytes: &[u8],
    chunks: &kdbuf::Pool,
    next_offset: &mut u64,
    mut on_batch: impl FnMut(usize),
    mut deliver: impl FnMut(RecordView),
) -> Result<usize, ClientError> {
    let total_at = |at: usize| peek_total_len(&bytes[at..]).map_err(|_| ClientError::Corrupt);
    let mut end = 0usize;
    while bytes.len() - end >= LENGTH_PREFIX_LEN {
        let total = total_at(end)?;
        if bytes.len() - end < total {
            break;
        }
        end += total;
    }
    if end == 0 {
        return Ok(0);
    }
    let chunk = chunks.copy_in(&bytes[..end]);
    let (mut at, mut delivered) = (0usize, false);
    while at < end {
        let total = total_at(at)?;
        on_batch(total);
        let records = decode_batch(chunk.slice(at, total)).map_err(|_| ClientError::Corrupt)?;
        for rv in records {
            if rv.offset == *next_offset {
                *next_offset = rv.offset.saturating_add(1);
                delivered = true;
                deliver(rv);
            } else if delivered || rv.offset > *next_offset {
                return Err(ClientError::Corrupt);
            }
        }
        at += total;
    }
    Ok(end)
}

/// A fetch-polling consumer bound to one topic partition.
pub struct TcpConsumer {
    node: NodeHandle,
    conn: Conn,
    topic: String,
    partition: u32,
    /// Next record offset to deliver.
    pub offset: u64,
    pub max_bytes: u32,
    /// Telemetry: fetches issued / empty responses.
    pub fetches: u64,
    pub empty_fetches: u64,
    telem: kdtelem::Registry,
    /// End-to-end fetch latency of data-carrying polls (instrument name
    /// shared with the RDMA consumer for transport comparisons).
    fetch_e2e_ns: kdtelem::Histogram,
    /// Where delivered records live (see [`drain_batches`]); a response
    /// larger than a chunk gets one of its own.
    chunks: kdbuf::Pool,
}

impl TcpConsumer {
    pub async fn connect(
        node: &NodeHandle,
        broker: BrokerAddr,
        transport: ClientTransport,
        topic: &str,
        partition: u32,
        offset: u64,
    ) -> Result<TcpConsumer, ClientError> {
        let conn = Conn::connect(node, broker, transport).await?;
        let telem = kdtelem::current();
        let fetch_e2e_ns = telem.histogram("kdclient", "fetch.e2e_ns");
        Ok(TcpConsumer {
            node: node.clone(),
            conn,
            topic: topic.to_string(),
            partition,
            offset,
            max_bytes: 1024 * 1024,
            fetches: 0,
            empty_fetches: 0,
            telem,
            fetch_e2e_ns,
            chunks: kdbuf::Pool::new(kdbuf::DEFAULT_CHUNK),
        })
    }

    /// Issues one fetch request; returns the decoded records at/after the
    /// current offset (possibly empty).
    pub async fn poll(&mut self) -> Result<Vec<RecordView>, ClientError> {
        let start = sim::now();
        // Root of this fetch's lifeline; the ctx crosses to the broker in
        // the RPC frame header so its FetchServed event lands on this trace.
        let span = self.telem.trace_span("client.fetch", None);
        let cpu = &self.node.profile().cpu;
        sim::time::sleep(cpu.handoff).await;
        self.fetches += 1;
        let (topic, partition, offset) = (self.topic.clone(), self.partition, self.offset);
        let (max_bytes, replica_id) = (self.max_bytes, u32::MAX);
        let request = Request::Fetch {
            topic,
            partition,
            offset,
            max_bytes,
            replica_id,
        };
        let encode = |body: &mut Vec<u8>| request.encode_into(body);
        // The response's dispatch back to the caller thread is paid on its
        // wake.
        let resp = self
            .conn
            .call_with(encode, Some(span.ctx()), cpu.wakeup)
            .await?;
        let Response::Fetch(f) = resp else {
            return Err(ClientError::Protocol);
        };
        check(f.error)?;
        if f.bytes.is_empty() {
            self.empty_fetches += 1;
            return Ok(Vec::new());
        }
        // Client-side integrity check + copy into application records.
        let len = f.bytes.len() as u64;
        sim::time::sleep(copy_time(len, cpu.crc_bandwidth) + copy_time(len, cpu.memcpy_bandwidth))
            .await;
        // A fetch response carries whole batches only; bytes left over were
        // cut short or mis-framed on the way.
        let mut out = Vec::new();
        let used = drain_batches(
            &f.bytes,
            &self.chunks,
            &mut self.offset,
            |_| {},
            |rv| out.push(rv),
        )?;
        if used != f.bytes.len() {
            return Err(ClientError::Corrupt);
        }
        if out.is_empty() {
            self.offset = f.next_offset.max(self.offset);
        }
        self.fetch_e2e_ns.record_since(start);
        span.end();
        Ok(out)
    }

    /// Polls until at least one record arrives.
    pub async fn next_records(&mut self) -> Result<Vec<RecordView>, ClientError> {
        loop {
            let records = self.poll().await?;
            if !records.is_empty() {
                return Ok(records);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::batches;
    use super::*;
    use kdstorage::record::single_record_batch;
    use kdstorage::Record;

    /// Three single-record batches at offsets 0..3, as they lie in a file.
    fn three_batches() -> (Vec<u8>, usize) {
        let mut bytes = Vec::new();
        let mut first_len = 0;
        for i in 0..3u8 {
            let mut batch = single_record_batch(1, &Record::value(vec![i; 40]));
            kdstorage::record::assign_base_offset(&mut batch, u64::from(i));
            first_len = batch.len();
            bytes.extend_from_slice(&batch);
        }
        (bytes, first_len)
    }

    fn drain(bytes: &[u8]) -> Result<(usize, Vec<u64>, Vec<usize>), ClientError> {
        let (mut next, mut offsets, mut lens) = (0, Vec::new(), Vec::new());
        let used = drain_batches(
            bytes,
            &kdbuf::Pool::new(64),
            &mut next,
            |n| lens.push(n),
            |rv| offsets.push(rv.offset),
        )?;
        assert_eq!(next, offsets.last().map_or(0, |o| o + 1));
        Ok((used, offsets, lens))
    }

    #[test]
    fn drains_whole_batches_and_leaves_an_incomplete_tail() {
        let (bytes, len) = three_batches();
        assert_eq!(drain(&bytes), Ok((3 * len, vec![0, 1, 2], vec![len; 3])));
        // Cut inside the third batch — in its body, in its length prefix —
        // or right behind the second: two batches, the rest stays.
        for cut in [
            3 * len - 1,
            2 * len + LENGTH_PREFIX_LEN,
            2 * len + 5,
            2 * len,
        ] {
            assert_eq!(
                drain(&bytes[..cut]),
                Ok((2 * len, vec![0, 1], vec![len; 2]))
            );
        }
        assert_eq!(drain(&[]), Ok((0, vec![], vec![])));
    }

    #[test]
    fn a_length_field_past_the_end_is_not_followed() {
        let (mut bytes, len) = three_batches();
        let at = len + LENGTH_PREFIX_LEN - 4;
        bytes[at..at + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(drain(&bytes), Ok((len, vec![0], vec![len])));
        // One that cuts its batch short is a batch that does not verify.
        let short = (len - LENGTH_PREFIX_LEN - 8) as u32;
        bytes[at..at + 4].copy_from_slice(&short.to_le_bytes());
        assert_eq!(drain(&bytes), Err(ClientError::Corrupt));
    }

    #[test]
    fn a_header_count_past_the_record_body_is_not_reserved_for() {
        // A CRC-valid batch whose value's length prefix is shortened so that
        // its tail, a 9-byte uvarint for 2^62, is read as the record's header
        // count. The broker refuses it now, but a consumer may still meet it.
        let mut value = vec![7u8; 30];
        value.extend_from_slice(&[0x80; 8]);
        value.push(0x40);
        let mut batch = single_record_batch(1, &Record::value(value));
        let at = kdstorage::record::BATCH_HEADER_LEN + 3;
        assert_eq!(batch[at], 40);
        batch[at] = 31;
        let crc = kdstorage::crc32c::crc32c(&batch[19..]);
        batch[15..19].copy_from_slice(&crc.to_le_bytes());
        assert!(kdstorage::record::verify_batch(&batch).is_err());
        assert_eq!(drain(&batch), Err(ClientError::Corrupt));
    }

    /// 20 000 mutated batches, CRC re-sealed as a peer could: a complete
    /// batch at the front drains exactly when the broker's check passes it,
    /// and nothing panics. What `drain_batches` allocates is a chunk when the
    /// pool has none free.
    #[test]
    fn mutated_batches_drain_exactly_when_they_verify() {
        let mut rng = sim::rng::SimRng::seed_from_u64(0x27BA_0003);
        let mut previous = batches::arb_batch(&mut rng);
        let chunks = kdbuf::Pool::new(kdbuf::DEFAULT_CHUNK);
        for round in 0..20_000 {
            let valid = batches::arb_batch(&mut rng);
            let hostile = batches::mutate(&mut rng, &valid, &previous);
            previous = valid;
            // Read at the offset the batch claims to start at.
            let drain = |bytes: &[u8]| {
                let base = bytes
                    .get(..8)
                    .map_or(0, |b| u64::from_le_bytes(b.try_into().unwrap()));
                let (mut next, mut delivered) = (base, 0u32);
                let used = drain_batches(bytes, &chunks, &mut next, |_| {}, |_| delivered += 1);
                (used, delivered)
            };
            let (whole, _) = drain(&hostile);
            let Some(total) = peek_total_len(&hostile)
                .ok()
                .filter(|&t| t <= hostile.len())
            else {
                assert_eq!(whole, Ok(0), "round {round}: an incomplete batch waits");
                continue;
            };
            match kdstorage::record::verify_batch(&hostile[..total]) {
                Ok(h) => {
                    let (used, delivered) = drain(&hostile[..total]);
                    let last = h.base_offset.checked_add(u64::from(h.record_count) - 1);
                    if last.is_some() {
                        assert_eq!(used, Ok(total), "round {round}");
                        assert_eq!(delivered, h.record_count, "round {round}");
                    } else {
                        // Its offsets wrap: a jump.
                        assert_eq!(used, Err(ClientError::Corrupt), "round {round}");
                    }
                }
                Err(_) => assert_eq!(whole, Err(ClientError::Corrupt), "round {round}"),
            }
        }
    }

    #[test]
    fn records_below_the_next_offset_are_skipped() {
        let (bytes, _) = three_batches();
        let (mut next, mut offsets) = (2, Vec::new());
        let chunks = kdbuf::Pool::new(64);
        drain_batches(
            &bytes,
            &chunks,
            &mut next,
            |_| {},
            |rv| offsets.push(rv.offset),
        )
        .unwrap();
        assert_eq!((next, offsets), (3, vec![2]));
    }

    /// Single-record batches at `offsets`, back to back.
    fn batches_at(offsets: &[u64]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for &offset in offsets {
            let mut batch = single_record_batch(1, &Record::value(vec![offset as u8; 40]));
            kdstorage::record::assign_base_offset(&mut batch, offset);
            bytes.extend_from_slice(&batch);
        }
        bytes
    }

    /// Drains `bytes` from `next`: the offsets delivered, or the error.
    fn drain_from(bytes: &[u8], mut next: u64) -> Result<Vec<u64>, ClientError> {
        let mut offsets = Vec::new();
        let chunks = kdbuf::Pool::new(64);
        drain_batches(
            bytes,
            &chunks,
            &mut next,
            |_| {},
            |rv| offsets.push(rv.offset),
        )?;
        Ok(offsets)
    }

    #[test]
    fn a_gap_inside_a_read_is_corrupt() {
        assert_eq!(drain_from(&batches_at(&[0, 1, 2]), 0), Ok(vec![0, 1, 2]));
        assert_eq!(
            drain_from(&batches_at(&[0, 1, 3]), 0),
            Err(ClientError::Corrupt)
        );
        // Nor may a read go back once it has delivered.
        assert_eq!(
            drain_from(&batches_at(&[0, 1, 1]), 0),
            Err(ClientError::Corrupt)
        );
    }

    #[test]
    fn a_read_whose_first_batch_starts_past_the_offset_is_corrupt() {
        assert_eq!(
            drain_from(&batches_at(&[5, 6]), 4),
            Err(ClientError::Corrupt)
        );
        assert_eq!(drain_from(&batches_at(&[5, 6]), 5), Ok(vec![5, 6]));
    }

    #[test]
    fn the_prefix_of_the_batch_that_holds_the_offset_is_skipped() {
        let mut bytes = Vec::new();
        let records: Vec<Record> = (0..4u8).map(|i| Record::value(vec![i; 16])).collect();
        let mut batch = kdstorage::record::encode_batch(1, &records).unwrap();
        kdstorage::record::assign_base_offset(&mut batch, 10);
        bytes.extend_from_slice(&batch);
        bytes.extend_from_slice(&batches_at(&[14]));
        assert_eq!(drain_from(&bytes, 12), Ok(vec![12, 13, 14]));
    }
}

#[cfg(test)]
#[path = "../../kdstorage/tests/common/batches.rs"]
mod batches;
