//! CRC32C (Castagnoli) — the checksum Kafka uses for record batches and the
//! integrity check charged to API workers in §5.1 ("including CRC32C
//! checksum calculation").
//!
//! Two kernels over the reflected polynomial 0x82F63B78, one answer. On
//! x86-64 with SSE4.2 (detected at run time) the `crc32` instruction runs
//! three interleaved streams per block — the instruction has a three-cycle
//! latency and a one-cycle throughput — whose registers are recombined with
//! zero-shift tables (Mark Adler's `crc32c.c` scheme). Everywhere else, and
//! as the oracle the tests hold the hardware path against, a table-driven
//! slice-by-8. All tables are built at first use from the polynomial; no
//! external crates. Verified against published vectors and a bitwise
//! reference implementation under seeded generative tests.

const POLY: u32 = 0x82F6_3B78;

/// 8 tables × 256 entries, built at first use.
struct Tables([[u32; 256]; 8]);

fn build_tables() -> Tables {
    let mut t = [[0u32; 256]; 8];
    for (i, entry) in t[0].iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
        *entry = crc;
    }
    for i in 0..256 {
        let mut crc = t[0][i];
        for table in 1..8 {
            crc = t[0][(crc & 0xff) as usize] ^ (crc >> 8);
            t[table][i] = crc;
        }
    }
    Tables(t)
}

fn tables() -> &'static Tables {
    use std::sync::OnceLock;
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(build_tables)
}

/// The portable kernel: slice-by-8 over the raw (pre-inverted) register.
fn update_table(mut crc: u32, mut data: &[u8]) -> u32 {
    let t = &tables().0;
    while data.len() >= 8 {
        let lo = u32::from_le_bytes([data[0], data[1], data[2], data[3]]) ^ crc;
        let hi = u32::from_le_bytes([data[4], data[5], data[6], data[7]]);
        crc = t[7][(lo & 0xff) as usize]
            ^ t[6][((lo >> 8) & 0xff) as usize]
            ^ t[5][((lo >> 16) & 0xff) as usize]
            ^ t[4][((lo >> 24) & 0xff) as usize]
            ^ t[3][(hi & 0xff) as usize]
            ^ t[2][((hi >> 8) & 0xff) as usize]
            ^ t[1][((hi >> 16) & 0xff) as usize]
            ^ t[0][((hi >> 24) & 0xff) as usize];
        data = &data[8..];
    }
    for &b in data {
        crc = t[0][((crc ^ b as u32) & 0xff) as usize] ^ (crc >> 8);
    }
    crc
}

/// Bytes per stream of a long / short block of the hardware kernel's three
/// side-by-side streams (the tests name the boundaries on every architecture).
#[cfg(any(test, target_arch = "x86_64"))]
const LONG: usize = 8192;
#[cfg(any(test, target_arch = "x86_64"))]
const SHORT: usize = 256;

#[cfg(target_arch = "x86_64")]
mod hw {
    use super::{LONG, SHORT};
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    use std::sync::OnceLock;

    /// `[k][b]`: the register `b << 8k` after [`LONG`] / [`SHORT`] zero
    /// bytes. The update is linear over GF(2), so four look-ups carry a
    /// stream's register past the stream behind it.
    struct Shifts {
        long: [[u32; 256]; 4],
        short: [[u32; 256]; 4],
    }

    fn build_shift(len: usize) -> [[u32; 256]; 4] {
        let t0 = &super::tables().0[0];
        // One register bit at a time through `len` zero bytes; every other
        // register is an XOR of these.
        let basis: [u32; 32] = std::array::from_fn(|bit| {
            (0..len).fold(1u32 << bit, |s, _| t0[(s & 0xff) as usize] ^ (s >> 8))
        });
        std::array::from_fn(|k| {
            std::array::from_fn(|byte| {
                (0..8)
                    .filter(|bit| byte >> bit & 1 == 1)
                    .fold(0, |acc, bit| acc ^ basis[8 * k + bit])
            })
        })
    }

    fn shifts() -> &'static Shifts {
        static SHIFTS: OnceLock<Shifts> = OnceLock::new();
        SHIFTS.get_or_init(|| Shifts {
            long: build_shift(LONG),
            short: build_shift(SHORT),
        })
    }

    fn shift(t: &[[u32; 256]; 4], crc: u64) -> u64 {
        let crc = crc as u32;
        u64::from(
            t[0][(crc & 0xff) as usize]
                ^ t[1][((crc >> 8) & 0xff) as usize]
                ^ t[2][((crc >> 16) & 0xff) as usize]
                ^ t[3][(crc >> 24) as usize],
        )
    }

    /// Three streams of `block` bytes each off the front of `data`, while
    /// it holds that many.
    #[target_feature(enable = "sse4.2")]
    fn interleaved<'a>(
        mut crc: u64,
        mut data: &'a [u8],
        block: usize,
        t: &[[u32; 256]; 4],
    ) -> (u64, &'a [u8]) {
        while data.len() >= 3 * block {
            let (a, rest) = data.split_at(block);
            let (b, rest) = rest.split_at(block);
            let (c, rest) = rest.split_at(block);
            let (mut crc_b, mut crc_c) = (0, 0);
            for ((a, b), c) in a
                .as_chunks()
                .0
                .iter()
                .zip(b.as_chunks().0)
                .zip(c.as_chunks().0)
            {
                crc = _mm_crc32_u64(crc, u64::from_le_bytes(*a));
                crc_b = _mm_crc32_u64(crc_b, u64::from_le_bytes(*b));
                crc_c = _mm_crc32_u64(crc_c, u64::from_le_bytes(*c));
            }
            crc = shift(t, shift(t, crc) ^ crc_b) ^ crc_c;
            data = rest;
        }
        (crc, data)
    }

    /// The hardware kernel over the raw (pre-inverted) register.
    #[target_feature(enable = "sse4.2")]
    pub(super) fn update(crc: u32, data: &[u8]) -> u32 {
        let s = shifts();
        let (crc, data) = interleaved(u64::from(crc), data, LONG, &s.long);
        let (mut crc, data) = interleaved(crc, data, SHORT, &s.short);
        let (words, tail) = data.as_chunks();
        for w in words {
            crc = _mm_crc32_u64(crc, u64::from_le_bytes(*w));
        }
        let mut crc = crc as u32;
        for &b in tail {
            crc = _mm_crc32_u8(crc, b);
        }
        crc
    }
}

/// Streaming CRC32C state.
#[derive(Clone)]
pub struct Crc32c {
    state: u32,
}

impl Default for Crc32c {
    fn default() -> Self {
        Self::new()
    }
}

impl Crc32c {
    pub fn new() -> Self {
        Crc32c { state: !0 }
    }

    /// Feeds bytes into the checksum.
    pub fn update(&mut self, data: &[u8]) {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: the CPU was just seen to support SSE4.2, the one
            // feature `hw::update` is compiled for.
            self.state = unsafe { hw::update(self.state, data) };
            return;
        }
        self.state = update_table(self.state, data);
    }

    /// Finishes, returning the checksum.
    pub fn finalize(self) -> u32 {
        !self.state
    }
}

/// One-shot CRC32C of a byte slice.
pub fn crc32c(data: &[u8]) -> u32 {
    let mut c = Crc32c::new();
    c.update(data);
    c.finalize()
}

/// Bit-at-a-time reference implementation (kept for property testing).
pub fn crc32c_reference(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &b in data {
        crc ^= b as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // RFC 3720 / published CRC32C test vectors.
        assert_eq!(crc32c(b"123456789"), 0xE306_9283);
        assert_eq!(crc32c(b""), 0);
        assert_eq!(crc32c(&[0u8; 32]), 0x8A91_36AA);
        assert_eq!(crc32c(&[0xffu8; 32]), 0x62A8_AB43);
        let ascending: Vec<u8> = (0..32).collect();
        assert_eq!(crc32c(&ascending), 0x46DD_794E);
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..255).cycle().take(10_000).collect();
        let mut c = Crc32c::new();
        for chunk in data.chunks(37) {
            c.update(chunk);
        }
        assert_eq!(c.finalize(), crc32c(&data));
    }

    #[test]
    fn fast_matches_reference() {
        let data: Vec<u8> = (0u32..4096).map(|i| (i * 31 % 251) as u8).collect();
        assert_eq!(crc32c(&data), crc32c_reference(&data));
    }

    #[test]
    fn detects_single_bit_flip() {
        let mut data = vec![7u8; 100];
        let orig = crc32c(&data);
        data[50] ^= 0x10;
        assert_ne!(crc32c(&data), orig);
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

    #[test]
    fn matches_bitwise_reference() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0xCC_0001 ^ case);
            let data = rand_bytes(&mut rng, 2048);
            assert_eq!(crc32c(&data), crc32c_reference(&data), "case {case}");
        }
    }

    #[test]
    fn split_invariance() {
        for case in 0..64u64 {
            let mut rng = SimRng::seed_from_u64(0xCC_0002 ^ case);
            let data = rand_bytes(&mut rng, 1024);
            let split = rng.random_range(0usize..1024).min(data.len());
            let mut c = Crc32c::new();
            c.update(&data[..split]);
            c.update(&data[split..]);
            assert_eq!(c.finalize(), crc32c(&data), "case {case}");
        }
    }
}

/// The differential oracle: whichever kernel [`Crc32c`] dispatches to on
/// this machine (the hardware one wherever SSE4.2 exists), the table kernel
/// called directly — so it stays covered on machines that never dispatch to
/// it — and the bitwise reference must agree.
#[cfg(test)]
mod differential {
    use super::*;
    use sim::rng::SimRng;

    fn table(data: &[u8]) -> u32 {
        !update_table(!0, data)
    }

    fn random(seed: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        SimRng::seed_from_u64(seed).fill(&mut v);
        v
    }

    #[test]
    fn rfc3720_vectors_on_both_kernels() {
        let ascending: Vec<u8> = (0..32).collect();
        let descending: Vec<u8> = (0..32).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xffu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (data, want) in vectors {
            assert_eq!(crc32c(data), want, "dispatched kernel, {} B", data.len());
            assert_eq!(table(data), want, "table kernel, {} B", data.len());
        }
    }

    #[test]
    fn every_length_at_every_alignment() {
        const MAX: usize = 4096 + 1;
        let buf = random(0xCC_0101, MAX + 16);
        for len in 0..=MAX {
            assert_eq!(
                table(&buf[..len]),
                crc32c_reference(&buf[..len]),
                "len {len}"
            );
            for align in 0..16 {
                let data = &buf[align..align + len];
                assert_eq!(crc32c(data), table(data), "len {len} at alignment {align}");
            }
        }
    }

    #[test]
    fn lengths_straddling_every_interleave_boundary() {
        let blocks = [
            3 * SHORT,
            6 * SHORT,
            3 * LONG,
            3 * LONG + 3 * SHORT,
            6 * LONG,
        ];
        let buf = random(0xCC_0102, 6 * LONG + 16);
        for block in blocks {
            for delta in [-8i64, -1, 0, 1, 8] {
                let len = (block as i64 + delta) as usize;
                for align in [0, 1, 7] {
                    let data = &buf[align..align + len];
                    let want = crc32c_reference(data);
                    assert_eq!(crc32c(data), want, "dispatched, len {len} align {align}");
                    assert_eq!(table(data), want, "table, len {len} align {align}");
                }
            }
        }
    }

    #[test]
    fn streaming_splits_across_block_boundaries() {
        for case in 0..48u64 {
            let mut rng = SimRng::seed_from_u64(0xCC_0103 ^ case);
            let len = rng.random_range(0usize..7 * LONG);
            let data = random(0xCC_0104 ^ case, len);
            let mut cuts: Vec<usize> = (0..rng.random_range(1usize..6))
                .map(|_| rng.random_range(0usize..=len))
                .collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            let mut dispatched = Crc32c::new();
            let mut by_table = !0u32;
            for w in cuts.windows(2) {
                dispatched.update(&data[w[0]..w[1]]);
                by_table = update_table(by_table, &data[w[0]..w[1]]);
            }
            let want = table(&data);
            assert_eq!(
                dispatched.finalize(),
                want,
                "case {case}: len {len} cut at {cuts:?}"
            );
            assert_eq!(
                !by_table, want,
                "case {case}: table kernel, cut at {cuts:?}"
            );
            assert_eq!(crc32c(&data), want, "case {case}: one shot, len {len}");
        }
    }
}
