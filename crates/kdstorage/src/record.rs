//! The record-batch format (Kafka message-format-v2-alike).
//!
//! Producers build [`BatchBuilder`]s; the bytes travel to the broker (over
//! TCP, RDMA Send, or a one-sided RDMA Write directly into a segment); the
//! broker verifies the CRC and assigns the base offset **in place** —
//! crucially without copying the records (§4.2.2: "verifying checksums of
//! new records, assigning offsets to new records, and committing").
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! 0   base_offset: u64      -- assigned by the broker at commit
//! 8   batch_length: u32     -- bytes after this field
//! 12  magic: u8 (=2)
//! 13  attributes: u16
//! 15  crc32c: u32           -- over bytes [19, end)
//! 19  producer_id: u64
//! 27  base_timestamp: i64
//! 35  max_timestamp: i64
//! 43  record_count: u32
//! 47  records...            -- varint-encoded, see below
//! ```
//!
//! Record: `length uvarint | timestamp_delta varint | key opt_bytes |
//! value opt_bytes | header_count uvarint | (key string, value opt_bytes)*`.

use kdbuf::Buf;

use crate::codec::{uvarint_len, zigzag_encode, Reader, WireError, Writer};
use crate::crc32c::crc32c;

/// Fixed bytes before the records section.
pub const BATCH_HEADER_LEN: usize = 47;
/// Offset of the `batch_length` field.
const LENGTH_FIELD_AT: usize = 8;
/// Offset of the CRC field; the CRC covers everything after it.
const CRC_FIELD_AT: usize = 15;
const CRC_COVER_FROM: usize = 19;
const MAGIC: u8 = 2;

/// Errors raised while building or validating batches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchError {
    /// Malformed bytes (truncated, bad varint, bad magic...).
    Corrupt(WireError),
    /// CRC mismatch — the §4.2.2 integrity check failed.
    BadCrc { stored: u32, computed: u32 },
    /// A record or batch exceeded a configured limit.
    TooLarge { len: usize, max: usize },
    /// Batch with zero records.
    Empty,
}

impl std::fmt::Display for BatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BatchError::Corrupt(e) => write!(f, "corrupt batch: {e}"),
            BatchError::BadCrc { stored, computed } => {
                write!(
                    f,
                    "crc mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            BatchError::TooLarge { len, max } => write!(f, "batch of {len} B exceeds {max} B"),
            BatchError::Empty => write!(f, "batch contains no records"),
        }
    }
}

impl std::error::Error for BatchError {}

impl From<WireError> for BatchError {
    fn from(e: WireError) -> Self {
        BatchError::Corrupt(e)
    }
}

/// An application record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    pub key: Option<Vec<u8>>,
    pub value: Vec<u8>,
    pub headers: Vec<(String, Vec<u8>)>,
    /// Milliseconds; producers usually stamp event time here.
    pub timestamp: i64,
}

impl Record {
    /// A value-only record.
    pub fn value(value: impl Into<Vec<u8>>) -> Record {
        Record {
            key: None,
            value: value.into(),
            headers: Vec::new(),
            timestamp: 0,
        }
    }

    pub fn with_key(mut self, key: impl Into<Vec<u8>>) -> Record {
        self.key = Some(key.into());
        self
    }

    pub fn with_timestamp(mut self, ts: i64) -> Record {
        self.timestamp = ts;
        self
    }

    pub fn with_header(mut self, key: &str, value: impl Into<Vec<u8>>) -> Record {
        self.headers.push((key.to_string(), value.into()));
        self
    }
}

/// Parsed batch header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchHeader {
    pub base_offset: u64,
    /// Bytes after the length field.
    pub batch_length: u32,
    pub attributes: u16,
    pub crc: u32,
    pub producer_id: u64,
    pub base_timestamp: i64,
    pub max_timestamp: i64,
    pub record_count: u32,
}

impl BatchHeader {
    /// Total on-disk size of the batch.
    pub fn total_len(&self) -> usize {
        LENGTH_FIELD_AT + 4 + self.batch_length as usize
    }

    /// Offset of the last record in the batch.
    pub fn last_offset(&self) -> u64 {
        self.base_offset + u64::from(self.record_count) - 1
    }
}

/// Encodes a record batch in place, at the end of a caller's buffer: the
/// header's 47 bytes are reserved by [`begin`](Self::begin), every record is
/// written once, straight behind them, and [`finish`](Self::finish) patches
/// length, count, timestamps and CRC. A producer that hands in its staging
/// buffer copies a value exactly once — the defensive copy of §5.1.
pub struct BatchBuilder<'a> {
    out: &'a mut Vec<u8>,
    /// Where the batch starts in `out`.
    start: usize,
    producer_id: u64,
    record_count: u32,
    base_timestamp: Option<i64>,
    max_timestamp: i64,
}

fn opt_bytes_len(v: Option<&[u8]>) -> usize {
    v.map_or(1, |b| uvarint_len(b.len() as u64 + 1) + b.len())
}

/// Bytes of `record`'s body — everything behind its length prefix — at
/// zigzag-encoded timestamp delta `ts_delta`.
fn body_len(record: &Record, ts_delta: u64) -> usize {
    uvarint_len(ts_delta)
        + opt_bytes_len(record.key.as_deref())
        + opt_bytes_len(Some(&record.value))
        + uvarint_len(record.headers.len() as u64)
        + record
            .headers
            .iter()
            .map(|(k, v)| uvarint_len(k.len() as u64) + k.len() + opt_bytes_len(Some(v)))
            .sum::<usize>()
}

/// Bytes of the batch [`single_record_batch`] encodes for `record`, without
/// encoding it: what a staging buffer for it needs.
pub fn single_record_batch_len(record: &Record) -> usize {
    let body = body_len(record, 0);
    BATCH_HEADER_LEN + uvarint_len(body as u64) + body
}

impl<'a> BatchBuilder<'a> {
    /// Starts a batch behind whatever `out` already holds.
    pub fn begin(producer_id: u64, out: &'a mut Vec<u8>) -> Self {
        let start = out.len();
        out.resize(start + BATCH_HEADER_LEN, 0);
        BatchBuilder {
            out,
            start,
            producer_id,
            record_count: 0,
            base_timestamp: None,
            max_timestamp: 0,
        }
    }

    /// Encoded size of the batch if finished now.
    pub fn encoded_len(&self) -> usize {
        self.out.len() - self.start
    }

    pub fn append(&mut self, record: &Record) {
        let base = *self.base_timestamp.get_or_insert(record.timestamp);
        self.max_timestamp = self.max_timestamp.max(record.timestamp);
        let ts_delta = zigzag_encode(record.timestamp - base);
        // The uvarint length prefix precedes the body, so the body's length
        // is computed, not measured — and the record grows `out` at most
        // once, to a power of two, so that a buffer reused for batches of
        // varying sizes seldom grows again.
        let body_len = body_len(record, ts_delta);
        let need = uvarint_len(body_len as u64) + body_len;
        if self.out.capacity() - self.out.len() < need {
            let len = self.out.len();
            self.out.reserve((len + need).next_power_of_two() - len);
        }
        let mut w = Writer::from_vec(std::mem::take(self.out));
        w.put_uvarint(body_len as u64);
        let body_at = w.len();
        w.put_uvarint(ts_delta);
        w.put_opt_bytes(record.key.as_deref());
        w.put_opt_bytes(Some(&record.value));
        w.put_uvarint(record.headers.len() as u64);
        for (k, v) in &record.headers {
            w.put_string(k);
            w.put_opt_bytes(Some(v));
        }
        assert_eq!(w.len() - body_at, body_len, "record length prefix");
        *self.out = w.into_vec();
        self.record_count += 1;
    }

    /// Patches the header (base offset 0; the broker assigns the real one at
    /// commit). An empty batch is an error and leaves `out` as `begin` found
    /// it.
    pub fn finish(self) -> Result<(), BatchError> {
        if self.record_count == 0 {
            self.out.truncate(self.start);
            return Err(BatchError::Empty);
        }
        // Base offset, attributes and the CRC's own bytes stay as `begin`
        // zeroed them.
        let batch = &mut self.out[self.start..];
        let batch_length = (batch.len() - LENGTH_PREFIX_LEN) as u32;
        batch[LENGTH_FIELD_AT..12].copy_from_slice(&batch_length.to_le_bytes());
        batch[12] = MAGIC;
        batch[CRC_COVER_FROM..27].copy_from_slice(&self.producer_id.to_le_bytes());
        batch[27..35].copy_from_slice(&self.base_timestamp.unwrap_or(0).to_le_bytes());
        batch[35..43].copy_from_slice(&self.max_timestamp.to_le_bytes());
        batch[43..BATCH_HEADER_LEN].copy_from_slice(&self.record_count.to_le_bytes());
        let crc = crc32c(&batch[CRC_COVER_FROM..]);
        batch[CRC_FIELD_AT..CRC_COVER_FROM].copy_from_slice(&crc.to_le_bytes());
        Ok(())
    }
}

/// Convenience: `records` as one freshly allocated batch.
pub fn encode_batch(producer_id: u64, records: &[Record]) -> Result<Vec<u8>, BatchError> {
    let mut out = Vec::new();
    let mut b = BatchBuilder::begin(producer_id, &mut out);
    for r in records {
        b.append(r);
    }
    b.finish()?;
    Ok(out)
}

/// Convenience: a single-record batch.
pub fn single_record_batch(producer_id: u64, record: &Record) -> Vec<u8> {
    // `finish` fails only on a batch of no records.
    encode_batch(producer_id, std::slice::from_ref(record)).expect("non-empty")
}

/// Parses a batch header from the front of `bytes` (which may contain more
/// than one batch; use [`BatchHeader::total_len`] to advance).
pub fn parse_header(bytes: &[u8]) -> Result<BatchHeader, BatchError> {
    let mut r = Reader::new(bytes);
    let base_offset = r.get_u64()?;
    let batch_length = r.get_u32()?;
    let magic = r.get_u8()?;
    if magic != MAGIC {
        return Err(BatchError::Corrupt(WireError::BadValue));
    }
    let attributes = r.get_u16()?;
    let crc = r.get_u32()?;
    let producer_id = r.get_u64()?;
    let base_timestamp = r.get_i64()?;
    let max_timestamp = r.get_i64()?;
    let record_count = r.get_u32()?;
    if record_count == 0 {
        return Err(BatchError::Empty);
    }
    if (batch_length as usize) < BATCH_HEADER_LEN - LENGTH_FIELD_AT - 4 {
        return Err(BatchError::Corrupt(WireError::BadLength));
    }
    Ok(BatchHeader {
        base_offset,
        batch_length,
        attributes,
        crc,
        producer_id,
        base_timestamp,
        max_timestamp,
        record_count,
    })
}

/// Minimum prefix needed to learn a batch's total length.
pub const LENGTH_PREFIX_LEN: usize = LENGTH_FIELD_AT + 4;

/// Reads just the total length of the batch at the front of `bytes`
/// (needs [`LENGTH_PREFIX_LEN`] bytes). Used by the RDMA consumer to
/// reassemble partially-fetched batches (§4.4.2, "Fetch size for RDMA
/// Reads").
pub fn peek_total_len(bytes: &[u8]) -> Result<usize, BatchError> {
    if bytes.len() < LENGTH_PREFIX_LEN {
        return Err(BatchError::Corrupt(WireError::UnexpectedEof));
    }
    let mut r = Reader::new(&bytes[LENGTH_FIELD_AT..]);
    let batch_length = r.get_u32()?;
    Ok(LENGTH_FIELD_AT + 4 + batch_length as usize)
}

/// One record body, borrowed from its batch and already checked.
struct RawRecord<'a> {
    ts_delta: i64,
    key: Option<&'a [u8]>,
    value: Option<&'a [u8]>,
    /// The header count and the well-formed headers behind it.
    headers: &'a [u8],
}

/// Parses one record body without allocating.
fn parse_record(body: &[u8]) -> Result<RawRecord<'_>, WireError> {
    let mut b = Reader::new(body);
    let ts_delta = b.get_varint()?;
    let key = b.get_opt_bytes()?;
    let value = b.get_opt_bytes()?;
    let headers_at = b.position();
    let header_count = b.get_uvarint()?;
    // A header is at least two bytes: a count the body cannot hold is
    // corrupt.
    if header_count > (b.remaining() / 2) as u64 {
        return Err(WireError::BadLength);
    }
    for _ in 0..header_count {
        b.get_str()?;
        b.get_opt_bytes()?;
    }
    let headers = &body[headers_at..b.position()];
    Ok(RawRecord {
        ts_delta,
        key,
        value,
        headers,
    })
}

/// The record at `r`: its length prefix, then its body.
fn next_record<'a>(r: &mut Reader<'a>) -> Result<RawRecord<'a>, WireError> {
    let len = r.get_uvarint()? as usize;
    parse_record(r.take(len)?)
}

/// Walks a records section — each record's length prefix and body — and
/// returns the number of records. The broker's check goes through here, and
/// a consumer decodes only what passed it, so a batch commits exactly when a
/// consumer can decode it.
fn walk_records(section: &[u8]) -> Result<u32, WireError> {
    let mut r = Reader::new(section);
    let mut count = 0u32;
    while r.remaining() > 0 {
        next_record(&mut r)?;
        // A record takes at least five bytes of a section whose length came
        // from a `u32`.
        count += 1;
    }
    Ok(count)
}

/// Fully validates the batch at the front of `bytes`: structure, CRC and
/// every record body. Returns the header. This is the API worker's §4.2.2
/// integrity check.
pub fn verify_batch(bytes: &[u8]) -> Result<BatchHeader, BatchError> {
    let header = parse_header(bytes)?;
    let total = header.total_len();
    if bytes.len() < total {
        return Err(BatchError::Corrupt(WireError::UnexpectedEof));
    }
    let computed = crc32c(&bytes[CRC_COVER_FROM..total]);
    if computed != header.crc {
        return Err(BatchError::BadCrc {
            stored: header.crc,
            computed,
        });
    }
    if walk_records(&bytes[BATCH_HEADER_LEN..total])? != header.record_count {
        return Err(BatchError::Corrupt(WireError::BadLength));
    }
    Ok(header)
}

/// Assigns the broker-chosen base offset in place (no copy).
pub fn assign_base_offset(bytes: &mut [u8], offset: u64) {
    bytes[..8].copy_from_slice(&offset.to_le_bytes());
}

/// A consumed record: its key, value and header bytes are views of the
/// buffer its batch was read into, not copies. [`Record`] is what a
/// producer sends; this is what a consumer reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordRef {
    pub key: Option<Buf>,
    /// An absent value reads as empty.
    pub value: Buf,
    /// The header count and the headers behind it (see [`RecordRef::headers`]).
    headers: Buf,
    pub timestamp: i64,
}

impl RecordRef {
    fn view(batch: &Buf, raw: RawRecord<'_>, base_timestamp: i64) -> RecordRef {
        RecordRef {
            key: raw.key.map(|k| batch.slice_ref(k)),
            value: raw
                .value
                .map_or_else(|| batch.slice(0, 0), |v| batch.slice_ref(v)),
            headers: batch.slice_ref(raw.headers),
            timestamp: base_timestamp.wrapping_add(raw.ts_delta),
        }
    }

    /// The headers in order; an absent header value reads as empty.
    pub fn headers(&self) -> impl Iterator<Item = (&str, &[u8])> + '_ {
        let mut r = Reader::new(&self.headers);
        // Checked when the batch was decoded: every header is there.
        let count = r.get_uvarint().unwrap_or(0);
        (0..count).map_while(move |_| {
            Some((
                r.get_str().ok()?,
                r.get_opt_bytes().ok()?.unwrap_or_default(),
            ))
        })
    }
}

/// A consumed record equals the record that was sent.
impl PartialEq<Record> for RecordRef {
    fn eq(&self, sent: &Record) -> bool {
        let headers = sent.headers.iter().map(|(k, v)| (k.as_str(), v.as_slice()));
        self.key.as_deref() == sent.key.as_deref()
            && *self.value == *sent.value
            && self.headers().eq(headers)
            && self.timestamp == sent.timestamp
    }
}

/// A consumed record plus its absolute offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecordView {
    pub offset: u64,
    pub record: RecordRef,
}

/// The records of one decoded batch, in offset order.
pub struct Records {
    batch: Buf,
    /// The next record's length prefix, and the end of the records section.
    at: usize,
    end: usize,
    offset: u64,
    base_timestamp: i64,
    left: u32,
}

impl Iterator for Records {
    type Item = RecordView;

    fn next(&mut self) -> Option<RecordView> {
        if self.left == 0 {
            return None;
        }
        let mut r = Reader::new(&self.batch[self.at..self.end]);
        // `decode_batch` checked every record before handing these out.
        let raw = next_record(&mut r).ok()?;
        self.at += r.position();
        self.left -= 1;
        let record = RecordRef::view(&self.batch, raw, self.base_timestamp);
        let offset = self.offset;
        self.offset = offset.wrapping_add(1);
        Some(RecordView { offset, record })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left as usize, Some(self.left as usize))
    }
}

impl ExactSizeIterator for Records {}

/// Decodes the batch at the front of `batch`. Succeeds exactly when
/// [`verify_batch`] does, and then hands out the records as views of
/// `batch`: no key, value or header byte is copied. Plain bytes are copied,
/// once, into a buffer of their own.
pub fn decode_batch(batch: impl Into<Buf>) -> Result<Records, BatchError> {
    let batch = batch.into();
    let header = verify_batch(&batch)?;
    Ok(Records {
        at: BATCH_HEADER_LEN,
        end: header.total_len(),
        offset: header.base_offset,
        base_timestamp: header.base_timestamp,
        left: header.record_count,
        batch,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::value(b"v0".to_vec()).with_timestamp(1000),
            Record::value(b"v1".to_vec())
                .with_key(b"k1".to_vec())
                .with_timestamp(1005)
                .with_header("trace", b"abc".to_vec()),
            Record::value(vec![]).with_timestamp(990),
        ]
    }

    fn build(records: &[Record]) -> Vec<u8> {
        encode_batch(42, records).unwrap()
    }

    #[test]
    fn build_verify_decode_round_trip() {
        let records = sample_records();
        let bytes = build(&records);
        let header = verify_batch(&bytes).unwrap();
        assert_eq!(header.record_count, 3);
        assert_eq!(header.producer_id, 42);
        assert_eq!(header.base_timestamp, 1000);
        assert_eq!(header.max_timestamp, 1005);
        assert_eq!(header.total_len(), bytes.len());
        let decoded = decode_batch(&bytes).unwrap();
        assert_eq!(decoded.len(), 3);
        for (i, rv) in decoded.enumerate() {
            assert_eq!(rv.offset, i as u64);
            assert_eq!(rv.record, records[i]);
        }
        let with_header = decode_batch(&bytes).unwrap().nth(1).unwrap();
        assert_eq!(
            with_header.record.headers().collect::<Vec<_>>(),
            [("trace", &b"abc"[..])]
        );
    }

    /// Key, value and headers are views of the buffer the batch sits in: the
    /// chunk goes back to its pool only when the last record is gone.
    #[test]
    fn records_are_views_of_the_batch_buffer() {
        let bytes = build(&sample_records());
        let pool = kdbuf::Pool::new(bytes.len());
        let held = decode_batch(pool.copy_in(&bytes)).unwrap().nth(1).unwrap();
        assert_eq!(pool.free_chunks(), 0, "a live record pins its chunk");
        assert_eq!(
            (held.record.key.as_deref(), &*held.record.value),
            (Some(&b"k1"[..]), &b"v1"[..])
        );
        drop(held);
        assert_eq!(pool.free_chunks(), 1);
        assert_eq!(pool.allocated_chunks(), 1);
    }

    #[test]
    fn offset_assignment_in_place_preserves_crc() {
        let mut bytes = build(&sample_records());
        assign_base_offset(&mut bytes, 1_000_000);
        // base_offset is outside CRC coverage: the batch stays valid.
        let header = verify_batch(&bytes).unwrap();
        assert_eq!(header.base_offset, 1_000_000);
        assert_eq!(header.last_offset(), 1_000_002);
        let decoded: Vec<_> = decode_batch(&bytes).unwrap().collect();
        assert_eq!(decoded[2].offset, 1_000_002);
    }

    #[test]
    fn corruption_detected() {
        let bytes = build(&sample_records());
        for pos in [20, BATCH_HEADER_LEN + 1, bytes.len() - 1] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x01;
            assert!(
                matches!(verify_batch(&bad), Err(BatchError::BadCrc { .. })),
                "flip at {pos} must fail CRC"
            );
        }
    }

    #[test]
    fn truncation_detected() {
        let bytes = build(&sample_records());
        assert!(verify_batch(&bytes[..bytes.len() - 1]).is_err());
        assert!(parse_header(&bytes[..10]).is_err());
    }

    #[test]
    fn peek_total_len_matches() {
        let bytes = build(&sample_records());
        assert_eq!(peek_total_len(&bytes).unwrap(), bytes.len());
        assert!(peek_total_len(&bytes[..8]).is_err());
    }

    #[test]
    fn empty_batch_rejected() {
        assert_eq!(encode_batch(1, &[]).err(), Some(BatchError::Empty));
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = build(&sample_records());
        bytes[12] = 9;
        assert!(matches!(
            parse_header(&bytes),
            Err(BatchError::Corrupt(WireError::BadValue))
        ));
    }

    #[test]
    fn a_header_count_the_body_cannot_hold_is_corrupt() {
        // Shorten the value's length prefix so its tail — a 9-byte uvarint
        // for 2^62 — is read as the header count, and re-seal the CRC. The
        // record length still adds up; the broker's check reads the body
        // too, so it fails the same way the decoder does.
        let mut value = vec![7u8; 30];
        value.extend_from_slice(&[0x80; 8]);
        value.push(0x40);
        let mut bytes = build(&[Record::value(value)]);
        // length | ts_delta | key (0 = none) | value length + 1 | value
        let at = BATCH_HEADER_LEN + 3;
        assert_eq!(bytes[at], 40);
        bytes[at] = 31;
        let crc = crc32c(&bytes[CRC_COVER_FROM..]);
        bytes[CRC_FIELD_AT..CRC_COVER_FROM].copy_from_slice(&crc.to_le_bytes());
        let corrupt = Err(BatchError::Corrupt(WireError::BadLength));
        assert_eq!(verify_batch(&bytes).map(|_| ()), corrupt);
        assert_eq!(decode_batch(&bytes).map(|_| ()), corrupt);
    }

    #[test]
    fn multiple_batches_in_sequence() {
        let b1 = build(&sample_records());
        let b2 = build(&[Record::value(b"later".to_vec())]);
        let mut stream = b1.clone();
        stream.extend_from_slice(&b2);
        let h1 = verify_batch(&stream).unwrap();
        let rest = &stream[h1.total_len()..];
        let h2 = verify_batch(rest).unwrap();
        assert_eq!(h2.record_count, 1);
        assert_eq!(h1.total_len() + h2.total_len(), stream.len());
    }
}

/// The in-place encoder writes the bytes the two-hop encoder it replaced
/// wrote (`append`: value → scratch → records; `build_into`: records → out).
/// The vectors were captured from that encoder on the commit before the
/// rewrite, producer id 42.
#[cfg(test)]
mod golden {
    use super::*;
    use crate::crc32c::crc32c_reference;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn no_key() -> Record {
        Record::value(b"v0".to_vec()).with_timestamp(1000)
    }

    fn key() -> Record {
        Record::value(b"v1".to_vec())
            .with_key(b"k1".to_vec())
            .with_timestamp(1005)
    }

    fn headers() -> Record {
        Record::value(b"hv".to_vec())
            .with_header("trace", b"abc".to_vec())
            .with_header("h2", Vec::new())
            .with_timestamp(7)
    }

    fn empty_value() -> Record {
        Record::value(Vec::new()).with_timestamp(-5)
    }

    #[test]
    fn fixed_records_encode_byte_identically() {
        let cases: [(&str, Vec<Record>, &str); 5] = [
            ("no key", vec![no_key()], "00000000000000002a0000000200000f5a1bcd2a00000000000000e803000000000000e8030000000000000100000006000003763000"),
            ("key", vec![key()], "00000000000000002c000000020000014c38fc2a00000000000000ed03000000000000ed03000000000000010000000800036b3103763100"),
            ("headers", vec![headers()], "0000000000000000380000000200003c281d082a000000000000000700000000000000070000000000000001000000140000036876020574726163650461626302683201"),
            ("empty value", vec![empty_value()], "000000000000000028000000020000acf5aeff2a00000000000000fbffffffffffffff0000000000000000010000000400000100"),
            ("multi-record", vec![no_key(), key(), headers(), empty_value()], "00000000000000004f0000000200009ac3820b2a00000000000000e803000000000000ed030000000000000400000006000003763000080a036b310376310015c10f0003687602057472616365046162630268320105d90f000100"),
        ];
        for (name, records, want) in cases {
            assert_eq!(hex(&encode_batch(42, &records).unwrap()), want, "{name}");
        }
        // A value long enough for a three-byte length prefix.
        let long =
            encode_batch(42, &[Record::value(vec![0xA5u8; 40_000]).with_timestamp(1)]).unwrap();
        assert_eq!((long.len(), crc32c_reference(&long)), (40_056, 0xb0a8_c3a7));
    }

    #[test]
    fn seeded_batches_encode_byte_identically() {
        let mut all = Vec::new();
        for case in 0..64u64 {
            let mut rng = sim::rng::SimRng::seed_from_u64(0x4EC_0003 ^ case);
            let n = rng.random_range(1usize..12);
            let records: Vec<Record> = (0..n).map(|_| proptests::arb_record(&mut rng)).collect();
            // Batches share one buffer, each behind the last.
            let mut b = BatchBuilder::begin(42, &mut all);
            for r in &records {
                b.append(r);
            }
            b.finish().unwrap();
        }
        assert_eq!((all.len(), crc32c_reference(&all)), (56_461, 0x1890_0049));
    }

    #[test]
    fn encoded_len_is_exact_before_finish() {
        let mut out = vec![0xEE; 13]; // a batch may start anywhere in `out`
        let mut b = BatchBuilder::begin(42, &mut out);
        assert_eq!(b.encoded_len(), BATCH_HEADER_LEN);
        let mut want = BATCH_HEADER_LEN;
        for r in [no_key(), key(), headers(), empty_value()] {
            // At one timestamp, a record's bytes are the batch it makes
            // alone, less the header.
            let r = r.with_timestamp(1000);
            b.append(&r);
            want += single_record_batch(42, &r).len() - BATCH_HEADER_LEN;
            assert_eq!(b.encoded_len(), want);
        }
        b.finish().unwrap();
        assert_eq!(out.len(), 13 + want);
        assert_eq!(verify_batch(&out[13..]).unwrap().total_len(), want);
    }

    #[test]
    fn a_reused_staging_buffer_keeps_no_stale_tail() {
        let mut staging = Vec::new();
        for records in [vec![headers(), key(), no_key()], vec![empty_value()]] {
            staging.clear();
            let mut b = BatchBuilder::begin(42, &mut staging);
            for r in &records {
                b.append(r);
            }
            b.finish().unwrap();
            assert_eq!(staging, encode_batch(42, &records).unwrap());
        }
        // An empty batch gives back what `begin` reserved.
        let b = BatchBuilder::begin(42, &mut staging);
        assert_eq!(b.finish(), Err(BatchError::Empty));
        assert_eq!(staging, encode_batch(42, &[empty_value()]).unwrap());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use sim::rng::SimRng;

    fn rand_bytes(rng: &mut SimRng, max_len: usize) -> Vec<u8> {
        let len = rng.random_range(0usize..max_len);
        let mut v = vec![0u8; len];
        rng.fill(&mut v);
        v
    }

    pub(super) fn arb_record(rng: &mut SimRng) -> Record {
        let key = if rng.random_bool(0.5) {
            Some(rand_bytes(rng, 32))
        } else {
            None
        };
        let value = rand_bytes(rng, 256);
        let n_headers = rng.random_range(0usize..3);
        let headers = (0..n_headers)
            .map(|_| {
                let name_len = rng.random_range(1usize..=8);
                let name: String = (0..name_len)
                    .map(|_| (b'a' + rng.random_range(0u8..26)) as char)
                    .collect();
                (name, rand_bytes(rng, 16))
            })
            .collect();
        let timestamp = -1_000_000 + rng.below(2_000_000) as i64;
        Record {
            key,
            value,
            headers,
            timestamp,
        }
    }

    #[test]
    fn batch_round_trips() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0x4EC_0001 ^ case);
            let n = rng.random_range(1usize..12);
            let records: Vec<Record> = (0..n).map(|_| arb_record(&mut rng)).collect();
            let offset: u32 = rng.random_range(0u32..=u32::MAX);
            let mut bytes = encode_batch(7, &records).unwrap();
            assign_base_offset(&mut bytes, u64::from(offset));
            let decoded = decode_batch(&bytes).unwrap();
            assert_eq!(decoded.len(), records.len(), "case {case}");
            for (i, rv) in decoded.enumerate() {
                assert_eq!(rv.offset, u64::from(offset) + i as u64, "case {case}");
                assert_eq!(&rv.record, &records[i], "case {case}");
            }
        }
    }

    /// A one-record batch is as long as [`single_record_batch_len`] says,
    /// and a buffer of that capacity takes it without growing: seeded
    /// records, keyed or not, with and without headers, with values, keys
    /// and header values on either side of each uvarint boundary (a length
    /// is written plus one, so 126/127 B and 16 382/16 383 B straddle one),
    /// and record bodies of 127/128 and 16 383/16 384 B (an unkeyed value of
    /// 123/124 or 16 378/16 379 B without headers).
    #[test]
    fn one_record_batch_len_is_its_encoded_len() {
        let edges = [
            0, 1, 123, 124, 126, 127, 128, 16_378, 16_379, 16_382, 16_383, 16_384,
        ];
        let mut rng = SimRng::seed_from_u64(0x4EC_0004);
        let mut bodies = Vec::new();
        for case in 0..2_000u64 {
            let len = |rng: &mut SimRng| match rng.below(3) {
                0 => edges[rng.below(edges.len() as u64) as usize],
                1 => rng.below(300) as usize,
                _ => rng.below(17_000) as usize,
            };
            let value = vec![0xA5; len(&mut rng)];
            let mut record = Record::value(value).with_timestamp(rng.next_u64() as i64);
            if rng.random_bool(0.5) {
                record = record.with_key(vec![0x5A; len(&mut rng)]);
            }
            for h in 0..rng.below(3) {
                let name = "h".repeat(1 + h as usize * 127);
                record = record.with_header(&name, vec![1; len(&mut rng)]);
            }
            let want = single_record_batch_len(&record);
            assert_eq!(single_record_batch(7, &record).len(), want, "case {case}");
            let mut staging = Vec::with_capacity(want);
            let mut b = BatchBuilder::begin(7, &mut staging);
            b.append(&record);
            b.finish().unwrap();
            assert_eq!(
                (staging.len(), staging.capacity()),
                (want, want),
                "case {case}"
            );
            bodies.push(body_len(&record, 0));
        }
        for body in [127, 128, 16_383, 16_384] {
            assert!(bodies.contains(&body), "no record body of {body} B");
        }
    }

    #[test]
    fn random_bytes_never_panic() {
        for case in 0..256u64 {
            let mut rng = SimRng::seed_from_u64(0x4EC_0002 ^ case);
            let data = rand_bytes(&mut rng, 256);
            let _ = verify_batch(&data);
            let _ = parse_header(&data);
            let _ = peek_total_len(&data);
            let _ = decode_batch(&data).map(Iterator::count);
        }
    }
}
