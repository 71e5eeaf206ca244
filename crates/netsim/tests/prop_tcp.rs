//! Generative tests of the simulated TCP byte stream: arbitrary write/read
//! chunkings must deliver exactly the written bytes, in order, with
//! monotonic link timing.
//!
//! Cases are generated by a seeded in-tree RNG (`sim::rng::SimRng`) in a
//! fixed-count loop, so failures reproduce exactly from the printed seed.

use netsim::profile::Profile;
use netsim::tcp::{connect, TcpListener};
use netsim::Fabric;
use sim::rng::SimRng;

/// Bytes written in arbitrary chunks are read back exactly, regardless of
/// the reader's own chunking.
#[test]
fn byte_stream_integrity() {
    for case in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(0x7C9_0001 ^ case);
        let n_writes = rng.random_range(1usize..12);
        let writes: Vec<Vec<u8>> = (0..n_writes)
            .map(|_| {
                let len = rng.random_range(1usize..5000);
                let mut v = vec![0u8; len];
                rng.fill(&mut v);
                v
            })
            .collect();
        let read_chunk = rng.random_range(1usize..8192);
        let rt = sim::Runtime::new();
        rt.block_on(async move {
            let f = Fabric::new(Profile::testbed());
            let a = f.add_node("a");
            let b = f.add_node("b");
            let mut listener = TcpListener::bind(&b, 1);
            let total: usize = writes.iter().map(Vec::len).sum();
            let expect: Vec<u8> = writes.iter().flatten().copied().collect();
            let reader = sim::spawn(async move {
                let mut s = listener.accept().await.unwrap();
                let mut got = Vec::with_capacity(total);
                while got.len() < total {
                    let n = read_chunk.min(total - got.len());
                    got.extend(s.read_exact(n).await.unwrap());
                }
                got
            });
            let mut c = connect(&a, b.id, 1).await.unwrap();
            for w in &writes {
                c.write_all(w).await.unwrap();
            }
            let got = reader.await.unwrap();
            assert_eq!(got, expect, "case {case}");
        });
    }
}

/// Link reservations never travel back in time and carry all bytes.
#[test]
fn link_reservations_monotonic() {
    use netsim::Link;
    use std::time::Duration;
    for case in 0..32u64 {
        let mut rng = SimRng::seed_from_u64(0x7C9_0002 ^ case);
        let n_ops = rng.random_range(1usize..64);
        let ops: Vec<(u64, u64)> = (0..n_ops)
            .map(|_| {
                (
                    rng.random_range(0u64..10_000),
                    rng.random_range(1u64..100_000),
                )
            })
            .collect();
        let l = Link::new(1e9);
        let mut last_end = 0u64;
        let mut now = 0u64;
        let mut total = 0u64;
        for (advance, bytes) in ops {
            now += advance;
            let r = l.reserve(sim::SimTime::from_nanos(now), bytes, Duration::ZERO);
            assert!(r.start.as_nanos() >= now.min(last_end.max(now)));
            assert!(r.end > r.start || bytes == 0);
            assert!(
                r.start.as_nanos() >= last_end || last_end == 0 || r.start.as_nanos() >= last_end,
                "case {case}: FIFO violated"
            );
            last_end = r.end.as_nanos();
            total += bytes;
        }
        assert_eq!(l.bytes_carried(), total, "case {case}");
    }
}
