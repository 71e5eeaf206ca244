//! Binary encode/decode helpers: fixed-width little-endian integers,
//! unsigned varints, and zigzag-encoded signed varints (the same building
//! blocks Kafka's record format v2 uses).

use std::fmt;

/// Decode error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// Ran out of input bytes.
    UnexpectedEof,
    /// A varint exceeded its maximum width.
    VarintOverflow,
    /// A length field described more bytes than exist / allowed.
    BadLength,
    /// Magic/enum discriminant was invalid.
    BadValue,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof => write!(f, "unexpected end of input"),
            WireError::VarintOverflow => write!(f, "varint exceeds maximum width"),
            WireError::BadLength => write!(f, "invalid length field"),
            WireError::BadValue => write!(f, "invalid enum or magic value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Growable output buffer with typed put methods.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new() -> Self {
        Writer { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        Writer {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Wraps an existing buffer, appending to its current contents. Lets hot
    /// paths encode into a reused allocation instead of a fresh `Vec`.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Writer { buf }
    }

    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn put_bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Unsigned LEB128 varint.
    pub fn put_uvarint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push((v as u8 & 0x7f) | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Zigzag-encoded signed varint.
    pub fn put_varint(&mut self, v: i64) {
        self.put_uvarint(zigzag_encode(v));
    }

    /// Length-prefixed bytes (uvarint length, `None` encoded as length 0
    /// with a presence flag).
    pub fn put_opt_bytes(&mut self, v: Option<&[u8]>) {
        match v {
            None => self.put_uvarint(0),
            Some(b) => {
                self.put_uvarint(b.len() as u64 + 1);
                self.put_bytes(b);
            }
        }
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_string(&mut self, s: &str) {
        self.put_uvarint(s.len() as u64);
        self.put_bytes(s.as_bytes());
    }

    /// Clears the buffer, keeping its capacity for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Overwrites 4 bytes at `pos` (used to patch length/CRC fields after
    /// the body is known).
    pub fn patch_u32(&mut self, pos: usize, v: u32) {
        self.buf[pos..pos + 4].copy_from_slice(&v.to_le_bytes());
    }

    pub fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bytes [`Writer::put_uvarint`] takes for `v`.
pub fn uvarint_len(v: u64) -> usize {
    (64 - (v | 1).leading_zeros() as usize).div_ceil(7)
}

pub fn zigzag_encode(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

pub fn zigzag_decode(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Cursor over a byte slice with typed take methods.
#[derive(Clone)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn position(&self) -> usize {
        self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// The next `N` bytes as an array.
    fn take_array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (&bytes, _) = self.buf[self.pos..]
            .split_first_chunk::<N>()
            .ok_or(WireError::UnexpectedEof)?;
        self.pos += N;
        Ok(bytes)
    }

    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        self.take_array().map(u16::from_le_bytes)
    }

    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        self.take_array().map(u32::from_le_bytes)
    }

    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        self.take_array().map(u64::from_le_bytes)
    }

    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        self.take_array().map(i64::from_le_bytes)
    }

    pub fn get_uvarint(&mut self) -> Result<u64, WireError> {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.get_u8()?;
            if shift == 63 && b > 1 {
                return Err(WireError::VarintOverflow);
            }
            v |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
            if shift > 63 {
                return Err(WireError::VarintOverflow);
            }
        }
    }

    pub fn get_varint(&mut self) -> Result<i64, WireError> {
        Ok(zigzag_decode(self.get_uvarint()?))
    }

    pub fn get_opt_bytes(&mut self) -> Result<Option<&'a [u8]>, WireError> {
        let len = self.get_uvarint()?;
        if len == 0 {
            return Ok(None);
        }
        Ok(Some(self.take(len as usize - 1)?))
    }

    /// Length-prefixed UTF-8, borrowed from the input.
    pub fn get_str(&mut self) -> Result<&'a str, WireError> {
        let len = self.get_uvarint()? as usize;
        std::str::from_utf8(self.take(len)?).map_err(|_| WireError::BadValue)
    }

    pub fn get_string(&mut self) -> Result<String, WireError> {
        self.get_str().map(str::to_owned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_width_round_trip() {
        let mut w = Writer::new();
        w.put_u8(1);
        w.put_u16(0x0203);
        w.put_u32(0x04050607);
        w.put_u64(0x08090a0b0c0d0e0f);
        w.put_i64(-42);
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(r.get_u8().unwrap(), 1);
        assert_eq!(r.get_u16().unwrap(), 0x0203);
        assert_eq!(r.get_u32().unwrap(), 0x04050607);
        assert_eq!(r.get_u64().unwrap(), 0x08090a0b0c0d0e0f);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut w = Writer::new();
            w.put_uvarint(v);
            let mut r = Reader::new(w.as_slice());
            assert_eq!(r.get_uvarint().unwrap(), v);
        }
    }

    #[test]
    fn zigzag_round_trip() {
        for v in [0i64, -1, 1, -64, 63, i64::MIN, i64::MAX] {
            assert_eq!(zigzag_decode(zigzag_encode(v)), v);
        }
        // Small magnitudes stay small.
        assert_eq!(zigzag_encode(-1), 1);
        assert_eq!(zigzag_encode(1), 2);
    }

    #[test]
    fn opt_bytes() {
        let mut w = Writer::new();
        w.put_opt_bytes(None);
        w.put_opt_bytes(Some(b""));
        w.put_opt_bytes(Some(b"abc"));
        let v = w.into_vec();
        let mut r = Reader::new(&v);
        assert_eq!(r.get_opt_bytes().unwrap(), None);
        assert_eq!(r.get_opt_bytes().unwrap(), Some(&b""[..]));
        assert_eq!(r.get_opt_bytes().unwrap(), Some(&b"abc"[..]));
    }

    #[test]
    fn eof_and_overflow_errors() {
        let mut r = Reader::new(&[0x80]);
        assert_eq!(r.get_uvarint(), Err(WireError::UnexpectedEof));
        let eleven = [0xffu8; 11];
        let mut r = Reader::new(&eleven);
        assert_eq!(r.get_uvarint(), Err(WireError::VarintOverflow));
        let mut r = Reader::new(&[1, 2]);
        assert_eq!(r.get_u32(), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn patch_u32_rewrites() {
        let mut w = Writer::new();
        w.put_u32(0);
        w.put_u8(9);
        w.patch_u32(0, 0xdeadbeef);
        let mut r = Reader::new(w.as_slice());
        assert_eq!(r.get_u32().unwrap(), 0xdeadbeef);
        assert_eq!(r.get_u8().unwrap(), 9);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use sim::rng::SimRng;

    #[test]
    fn uvarint_round_trips() {
        let mut rng = SimRng::seed_from_u64(0xC0DEC01);
        let edge = [0u64, 1, 127, 128, 16_383, 16_384, u64::MAX - 1, u64::MAX];
        for case in 0..256usize {
            let v = if case < edge.len() {
                edge[case]
            } else {
                // Spread across magnitudes: mask a random value to a random width.
                rng.next_u64() >> rng.below(64)
            };
            let mut w = Writer::new();
            w.put_uvarint(v);
            assert_eq!(uvarint_len(v), w.len(), "uvarint_len({v})");
            let mut r = Reader::new(w.as_slice());
            assert_eq!(r.get_uvarint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn varint_round_trips() {
        let mut rng = SimRng::seed_from_u64(0xC0DEC02);
        let edge = [0i64, -1, 1, i64::MIN, i64::MAX, -64, 63, -65, 64];
        for case in 0..256usize {
            let v = if case < edge.len() {
                edge[case]
            } else {
                let mag = (rng.next_u64() >> rng.below(64)) as i64;
                if rng.random_bool(0.5) {
                    mag
                } else {
                    mag.wrapping_neg()
                }
            };
            let mut w = Writer::new();
            w.put_varint(v);
            let mut r = Reader::new(w.as_slice());
            assert_eq!(r.get_varint().unwrap(), v);
        }
    }

    #[test]
    fn strings_round_trip() {
        let mut rng = SimRng::seed_from_u64(0xC0DEC03);
        for _case in 0..256usize {
            let len = rng.random_range(0usize..=64);
            // Arbitrary unicode scalar values, not just ASCII.
            let s: String = (0..len)
                .map(|_| loop {
                    if let Some(c) = char::from_u32(rng.random_range(1u32..0x11_0000)) {
                        return c;
                    }
                })
                .collect();
            let mut w = Writer::new();
            w.put_string(&s);
            let mut r = Reader::new(w.as_slice());
            assert_eq!(r.get_string().unwrap(), s);
        }
    }
}
