//! Peer bytes reach `Request::decode` first on every broker connection and
//! `Response::decode` on every client. Whatever arrives, decoding returns a
//! typed `WireError` or a value that encodes and decodes back to itself; it
//! never panics, its work is bounded by the input (every element a count
//! admits consumes at least one byte), and it allocates at most `C` bytes
//! per input byte plus `SLACK` — a count or length field reserves no more
//! than the rest of the input could hold (DESIGN.md §9 "Hostile bytes").
//!
//! The inputs are the derived generator's values (`Wire::arb`, all 32
//! messages) and mutations of their encodings: bit flips, truncation,
//! insertion, splicing two encodings, and a huge varint written over a
//! byte — a count or length when it lands on one. Allocation is measured by
//! a per-thread counting allocator, as in `tests/budgets.rs`.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::fmt::Debug;

use kdstorage::codec::{WireError, Writer};
use kdwire::{Request, Response, Wire};
use sim::rng::SimRng;

/// Bytes a decode may allocate per input byte. A count of strings reserves
/// `size_of::<String>()` = 24 bytes per byte left (the protocol's largest
/// element size over its smallest encoding); the elements and the lists
/// nested in them take what is left of the budget from the same bytes.
const C: usize = 32;

/// Bytes a decode may allocate whatever the input.
const SLACK: usize = 64;

/// Seeded rounds per direction.
const ROUNDS: u32 = 20_000;

thread_local! {
    // Per thread: libtest runs every test on a thread of its own, so a test
    // reads exactly its own allocations however many tests run beside it.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

fn count(size: usize) {
    // `try_with`: the allocator also runs while a thread's locals are torn
    // down.
    let _ = ALLOCATED.try_with(|c| c.set(c.get() + size));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; `count` only touches a thread-local
// `Cell` and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's obligations are `System.alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as above.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: as above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as above.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// One direction of the protocol: its decoder and encoder.
struct Codec<T> {
    decode: fn(&[u8]) -> Result<T, WireError>,
    encode: fn(&T) -> Vec<u8>,
}

const REQUESTS: Codec<Request> = Codec {
    decode: Request::decode,
    encode: Request::encode,
};

const RESPONSES: Codec<Response> = Codec {
    decode: Response::decode,
    encode: Response::encode,
};

impl<T: Wire + PartialEq + Debug> Codec<T> {
    /// Decodes peer bytes and holds the result to the contract.
    fn check(&self, bytes: &[u8], what: &str) {
        let before = ALLOCATED.with(Cell::get);
        let got = (self.decode)(bytes);
        let allocated = ALLOCATED.with(Cell::get) - before;
        assert!(
            allocated <= C * bytes.len() + SLACK,
            "{what}: decoding {} bytes allocated {allocated}: {bytes:02x?}",
            bytes.len()
        );
        if let Ok(v) = got {
            assert_eq!(
                (self.decode)(&(self.encode)(&v)),
                Ok(v),
                "{what}: {bytes:02x?}"
            );
        }
    }

    /// `ROUNDS` generated values, each of which must round-trip, and one
    /// mutation of each encoding.
    fn fuzz(&self, seed: u64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut tags = [false; 256];
        let mut previous = (self.encode)(&T::arb(&mut rng));
        for round in 0..ROUNDS {
            let value = T::arb(&mut rng);
            let valid = (self.encode)(&value);
            tags[usize::from(valid[0])] = true;
            assert_eq!((self.decode)(&valid), Ok(value), "round {round}");
            let hostile = mutate(&mut rng, &valid, &previous);
            self.check(&hostile, &format!("round {round}"));
            previous = valid;
        }
        assert_eq!(
            tags.iter().filter(|&&t| t).count(),
            16,
            "the generator covers every message"
        );
    }
}

/// One mutation of `valid` (never empty: a message has its tag byte).
fn mutate(rng: &mut SimRng, valid: &[u8], other: &[u8]) -> Vec<u8> {
    let mut b = valid.to_vec();
    let at = |rng: &mut SimRng, len: usize| rng.below(len as u64 + 1) as usize;
    match rng.below(5) {
        0 => {
            for _ in 0..=rng.below(4) {
                let i = rng.below(b.len() as u64) as usize;
                b[i] ^= 1 << rng.below(8);
            }
        }
        1 => b.truncate(rng.below(b.len() as u64) as usize),
        2 => {
            let mut noise = vec![0u8; 1 + rng.below(8) as usize];
            rng.fill(&mut noise);
            let i = at(rng, b.len());
            b.splice(i..i, noise);
        }
        3 => {
            let (i, j) = (at(rng, b.len()), at(rng, other.len()));
            b.truncate(i);
            b.extend_from_slice(&other[j..]);
        }
        _ => {
            // A count or length is one byte in a generated value.
            let mut huge = Writer::new();
            huge.put_uvarint(u64::MAX >> rng.below(40));
            let i = rng.below(b.len() as u64) as usize;
            b.splice(i..=i, huge.into_vec());
        }
    }
    b
}

/// The two payloads that used to reserve a fixed cap whatever the input
/// held: 3 bytes claiming 1024 topic names (24 KiB), and 7 bytes — no
/// brokers, one unnamed topic — claiming 4096 partitions (192 KiB).
#[test]
fn metadata_counts_reserve_no_more_than_the_input_holds() {
    REQUESTS.check(&[0x00, 0x80, 0x08], "Request::Metadata, 1024 topics");
    RESPONSES.check(
        &[0x00, 0x00, 0x00, 0x01, 0x00, 0x80, 0x20],
        "Response::Metadata, 4096 partitions",
    );
}

#[test]
fn requests_survive_mutation() {
    REQUESTS.fuzz(0x33A6_0001);
}

#[test]
fn responses_survive_mutation() {
    RESPONSES.fuzz(0x33A6_0002);
}
