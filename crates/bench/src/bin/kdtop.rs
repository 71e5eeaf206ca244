//! `kdtop` — render a recorded virtual-time telemetry series as ASCII.
//!
//! ```text
//! # render a series file exported with KD_SERIES=<path> (or the broker's
//! # admin Series dump saved to disk)
//! cargo run --release -p kdbench --bin kdtop -- results/series.jsonl
//!
//! # show only the shared-receive-queue instruments
//! cargo run --release -p kdbench --bin kdtop -- results/series.jsonl --filter rnic.srq
//!
//! # re-render every 500 ms while a live bench rewrites the file
//! cargo run --release -p kdbench --bin kdtop -- /tmp/kd_series.jsonl --watch
//!
//! # no argument: record a fresh sampled KafkaDirect produce run and
//! # render it (a live demo of the sampler)
//! cargo run --release -p kdbench --bin kdtop
//! ```
//!
//! Positional arguments: `[path] [width]` (sparkline width, default 64).
//! `--filter SUBSTR` keeps only instruments whose `component.name` label
//! contains SUBSTR (e.g. `--filter rnic.srq`, `--filter kdbroker`).
//! `--watch` re-reads the file every 500 ms (wall clock) and repaints.

use kafkadirect::SystemKind;
use kdbench::{harness, kdtop};
use kdtelem::SeriesDump;

fn load(path: &str) -> Option<SeriesDump> {
    SeriesDump::from_json_lines(&std::fs::read_to_string(path).ok()?)
}

fn main() {
    let mut path: Option<String> = None;
    let mut width: usize = 64;
    let mut filter: Option<String> = None;
    let mut watch = false;

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--filter" => match args.next() {
                Some(f) => filter = Some(f),
                None => {
                    eprintln!("kdtop: --filter needs a substring (e.g. --filter rnic.srq)");
                    std::process::exit(2);
                }
            },
            "--watch" => watch = true,
            _ => {
                if path.is_none() && a.parse::<usize>().is_err() {
                    path = Some(a);
                } else if let Ok(w) = a.parse::<usize>() {
                    width = w;
                } else {
                    eprintln!("kdtop: unexpected argument {a}");
                    std::process::exit(2);
                }
            }
        }
    }

    if watch {
        let Some(p) = path else {
            eprintln!("kdtop: --watch needs a series file to re-read");
            std::process::exit(2);
        };
        // Top-like loop: repaint whenever the file parses; a torn
        // mid-rewrite read just keeps the previous frame. Ctrl-C exits.
        loop {
            if let Some(d) = load(&p) {
                // Clear screen + home, then the frame.
                print!(
                    "\x1b[2J\x1b[H{}",
                    kdtop::render_filtered(&d, width, filter.as_deref())
                );
                use std::io::Write as _;
                std::io::stdout().flush().ok();
            }
            std::thread::sleep(std::time::Duration::from_millis(500));
        }
    }

    let dump: SeriesDump = match &path {
        Some(p) => match load(p) {
            Some(d) => d,
            None => {
                eprintln!("kdtop: cannot read {p} as a series JSON-lines file");
                std::process::exit(1);
            }
        },
        None => {
            eprintln!("kdtop: no series file given; recording a sampled KafkaDirect produce run");
            harness::capture_series(
                SystemKind::KafkaDirect,
                256,
                2000,
                std::time::Duration::from_micros(50),
            )
        }
    };
    print!(
        "{}",
        kdtop::render_filtered(&dump, width, filter.as_deref())
    );
}
