//! Figures 6, 7, 8 — the §4 C/C++ microbenchmarks against the simulated
//! verbs: RDMA produce coordination, notification approaches, and write
//! batching. Run with `cargo bench --bench fig06_07_08_micro`.

use kdbench::micro::{
    fig6_goodput_gibps, fig7_bandwidth_gibps, fig7_latency_us, fig8_batching, MicroMode, NotifyMode,
};
use kdbench::stats::{fmt, size_label, Table};

fn fig6() {
    println!();
    println!("# Fig 6 — Aggregated Write goodput of RDMA produce approaches (GiB/s)");
    println!("# paper: exclusive highest; atomics-based reach it only >= ~32 KiB;");
    println!("#        FAA beats CAS under contention (atomic cap 2.68 Mops/s).");
    let sizes = [
        64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072, 262144,
    ];
    let mut table = Table::new(&[
        "size", "Excl 1P", "FAA 1P", "FAA 2P", "FAA 5P", "CAS 1P", "CAS 5P",
    ]);
    for size in sizes {
        // Enough bytes for a steady-state measurement, capped for tiny sizes.
        let total = (size * 4000).clamp(1 << 20, 96 << 20);
        let row = vec![
            size_label(size),
            fmt(fig6_goodput_gibps(MicroMode::Exclusive, 1, size, total)),
            fmt(fig6_goodput_gibps(MicroMode::SharedFaa, 1, size, total)),
            fmt(fig6_goodput_gibps(MicroMode::SharedFaa, 2, size, total)),
            fmt(fig6_goodput_gibps(MicroMode::SharedFaa, 5, size, total)),
            fmt(fig6_goodput_gibps(MicroMode::SharedCas, 1, size, total)),
            fmt(fig6_goodput_gibps(MicroMode::SharedCas, 5, size, total)),
        ];
        table.row(row);
    }
    table.print();
}

fn fig7() {
    println!();
    println!("# Fig 7 (left) — Notification latency (us), one-way to receiver completion");
    println!("# paper: WriteWithImm ~1.5 us small; Write+Send ~1 us slower.");
    let sizes = [8, 16, 32, 64, 128, 256, 512, 1024];
    let mut table = Table::new(&[
        "size",
        "WriteWithImm",
        "W+S 4B",
        "W+S 16B",
        "W+S 128B",
        "W+S 512B",
    ]);
    for size in sizes {
        table.row(vec![
            size_label(size),
            fmt(fig7_latency_us(NotifyMode::WriteWithImm, size, 30)),
            fmt(fig7_latency_us(NotifyMode::WriteSend(4), size, 30)),
            fmt(fig7_latency_us(NotifyMode::WriteSend(16), size, 30)),
            fmt(fig7_latency_us(NotifyMode::WriteSend(128), size, 30)),
            fmt(fig7_latency_us(NotifyMode::WriteSend(512), size, 30)),
        ]);
    }
    table.print();

    println!();
    println!("# Fig 7 (right) — Write goodput under each notification approach (GiB/s)");
    println!("# paper: ~2.4 GiB/s small; WriteWithImm ahead around 1 KiB; converges by 32 KiB.");
    let sizes = [256, 512, 1024, 2048, 4096, 8192, 16384, 32768];
    let mut table = Table::new(&["size", "WriteWithImm", "W+S 4B", "W+S 128B", "W+S 512B"]);
    for size in sizes {
        let count = ((16 << 20) / size).clamp(2000, 20000);
        table.row(vec![
            size_label(size),
            fmt(fig7_bandwidth_gibps(NotifyMode::WriteWithImm, size, count)),
            fmt(fig7_bandwidth_gibps(NotifyMode::WriteSend(4), size, count)),
            fmt(fig7_bandwidth_gibps(
                NotifyMode::WriteSend(128),
                size,
                count,
            )),
            fmt(fig7_bandwidth_gibps(
                NotifyMode::WriteSend(512),
                size,
                count,
            )),
        ]);
    }
    table.print();
}

fn fig8() {
    println!();
    println!(
        "# Fig 8 — Batching 64-byte writes: latency (us, log-scale in paper) and goodput (GiB/s)"
    );
    println!("# paper: no batching ~2.4 us / ~0.5 GiB/s; goodput grows to 6 GiB/s;");
    println!("#        latency flat for small batches then rises past ~1-2 KiB.");
    let batches = [64, 128, 256, 512, 1024, 2048, 4096];
    let mut table = Table::new(&["batch", "latency_us", "goodput_GiB/s"]);
    for batch in batches {
        let records = (batch * 4000 / 64).clamp(4096, 200_000);
        let (lat, bw) = fig8_batching(batch, records);
        table.row(vec![size_label(batch), fmt(lat), fmt(bw)]);
    }
    table.print();
}

fn main() {
    // `cargo bench` passes flags like --bench; this harness ignores them.
    fig6();
    fig7();
    fig8();
}
