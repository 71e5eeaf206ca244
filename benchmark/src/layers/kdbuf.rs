//! `kdbuf`: pooled chunk get/put and the thread-local scratch stack.

use std::time::Duration;

use super::ns_per_call;

pub fn run(budget: Duration, out: &mut Vec<(&'static str, f64)>) {
    let pool = kdbuf::Pool::new(2048);
    let packet = vec![0xABu8; 2048];
    out.push((
        "kdbuf.pool_ns_per_get_put",
        ns_per_call(budget, || {
            // Copy in, read back, drop: the chunk returns to the free list.
            let buf = pool.copy_in(std::hint::black_box(&packet));
            std::hint::black_box(buf.len());
        }),
    ));
    out.push((
        "kdbuf.scratch_ns_per_use",
        ns_per_call(budget, || {
            let mut s = kdbuf::scratch();
            s.extend_from_slice(std::hint::black_box(&packet[..512]));
            std::hint::black_box(s.len());
        }),
    ));
}
