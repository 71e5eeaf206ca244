#!/usr/bin/env bash
# Offline tier-1 gate: the workspace must build, test, and lint with no
# network access (no registry deps beyond the vendored toolchain).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo build --examples --offline
cargo test -q --offline
cargo clippy --all-targets --offline -- -D warnings

# Chaos soak: seeded fault plans over bounded virtual time; fails on any
# lost/reordered acked record, trace-invariant violation, partition-log
# oracle violation (`tests/common::check_log`, run by all four soaks below),
# or replay divergence. Runs in `cargo test` above too — kept explicit here so a
# chaos regression is named in CI output, and so the fixed seed set is
# pinned even if the default test filter ever changes.
cargo test -q --offline --test chaos

# File-backed recovery soak: chaos seeds over the tiered store (crash +
# torn-tail garbling of real segment files, CRC-scan recovery, bit-identical
# replay) plus the per-sync-mode RF=1 crash/restart contracts. Segment files
# live in per-seed temp dirs that the tests wipe themselves. Runs in
# `cargo test` above too — kept explicit so a durability regression is named
# in CI output.
cargo test -q --offline --test durable

# Connection-scaling equivalence gate (DESIGN.md §13): below the NIC cache
# knee the two sizings of the broker's one receive layer — a NIC context
# per accepted QP, or QPs multiplexed over an 8-context pool — must be
# *bit-identical* (same acked/consumed sets AND the same order-sensitive
# trace digest), the full 8-seed chaos soak must stay green multiplexed (a
# broker crash flushing error CQEs through SRQ-attached QPs must not strand
# or double-free shared receive buffers), and a depth-4 SRQ under 64
# producers must run dry without losing a record; the fan-in ladder pins
# the resource half (flat receive memory, equal virtual time below the
# knee). Runs in `cargo test` above too — kept explicit so a
# connection-layer regression is named in CI output.
cargo test -q --offline --test conn_scaling

# Re-fork guard: the produce plane is one path from CQE to ack. The mode
# enum, the second commit work item and the private per-QP receive queue
# were deleted because the gates above proved them redundant; they must not
# come back under crates/*/src.
if grep -rnE "ConnMode|RdmaCommitBatch|recv_queue" crates/*/src; then
    echo "ci: a deleted produce-plane fork reappeared (see DESIGN.md §10, §13)" >&2
    exit 1
fi

# Same for the client datapath: one RDMA consumer of n ≥ 1 subscriptions, one
# WriteImm-posting routine for a run of n ≥ 1 records, and the slot-region
# size a constant both ends share (DESIGN.md §7).
if grep -rnE "MultiRdmaConsumer|multi_consumer|try_send_exclusive|slots_per_consumer" crates/*/src; then
    echo "ci: a deleted client fork or the slot-count knob reappeared (see DESIGN.md §7)" >&2
    exit 1
fi

# One client data plane (DESIGN.md §7, §9): a consumer's broker state — slot
# region, read holds, slot references — goes with the control connection that
# acquired it. Then the re-fork guard: the producer's second post routine and
# its private set-up/redial chain stay deleted, and only data_plane.rs creates
# a client NIC or CQ (the OSU transport dials through it too).
cargo test -q --offline --test e2e_failures a_dropped_consumer_releases_its_broker_state
if grep -rnE "post_chain|setup_data_plane|install_data_plane|reconnect_data_plane|try_reconnect" \
    crates/kdclient/src ||
    for f in crates/kdclient/src/*.rs; do
        [ "$f" = crates/kdclient/src/data_plane.rs ] && continue
        awk '/#\[cfg\(test\)\]/ { exit } /RNic::new|create_cq/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done | grep .; then
    echo "ci: kdclient grew a second data-plane set-up or post routine (see DESIGN.md §7)" >&2
    exit 1
fi

# One cluster boot and one broker template (DESIGN.md §9 "Crash recovery &
# divergence"): `Broker::start` refuses a zero worker, poller, CQ batch or SRQ
# depth by name; every multi-broker experiment boots and restarts through
# `SimCluster` from `ClusterOptions::broker`. The per-setting builders, the
# second restart path and the core crate's own JSON parser stay deleted.
cargo test -q --offline -p kdbroker --lib broker::tests::zero_
if grep -rn "Broker::start(" tests/ crates/bench/ ||
    grep -rnE "with_cq_batch|with_mux_pool|with_rdma_pollers|with_srq_depth|with_workers|install_recovered|parse_object|JsonObject" crates/; then
    echo "ci: a hand-rolled broker boot, a BrokerConfig builder or a second parser reappeared (see DESIGN.md §9)" >&2
    exit 1
fi

# Same for the executor (DESIGN.md §12): `Runtime::block_on` is the one
# driver of the poll loop. The windowed parallel executor measured <= 1.03x
# in five recorded sweeps and was deleted with its mailbox router, group
# harness, placement option and wheel peek.
if grep -rnE "sim::shard|run_sharded|xshard|shardsim|Placement|peek_min_deadline" crates/*/src tests/; then
    echo "ci: a piece of the deleted parallel executor reappeared (see DESIGN.md §12)" >&2
    exit 1
fi

# Same for the RPC plane (DESIGN.md §10): a request is two pushes into
# due-time stages — the broker's hand-off and its connection's reply stage.
# No reply channel may come back in the front-end files, and nothing may be
# spawned per request: requests.rs spawns nothing, server_tcp.rs and
# server_osu.rs only in `start` (listener, one serving task per connection,
# OSU's send-CQ drain), the shared front (server_rpc.rs) only in
# `Conn::open` (one reply writer per connection).
front=crates/kdbroker/src
if grep -nE "oneshot|mpsc" $front/server_*.rs $front/requests.rs ||
    grep -n "spawn" $front/requests.rs ||
    awk 'FNR == 1 { skip = 0 }
         /#\[cfg\(test\)\]/ { nextfile }
         /^pub fn start|^    pub\(crate\) fn open/ { skip = 1 }
         !skip { print FILENAME ":" FNR ": " $0 }
         /^}|^    }/ { skip = 0 }' $front/server_*.rs | grep "spawn"; then
    echo "ci: the RPC front grew a per-request task or reply channel again (see DESIGN.md §10)" >&2
    exit 1
fi

# Same for the broker's request hand-off (DESIGN.md §10): one queue
# (`sim::sync::HandoffQueue`) from the network modules to the API workers —
# no stage task in front of it, no permit FIFO behind it.
if grep -rnE "WorkQueue|sync::mpmc|start_handoff_stage" crates/*/src; then
    echo "ci: a piece of the three-piece request hand-off reappeared (see DESIGN.md §10)" >&2
    exit 1
fi

# Same for the batched produce plane's timing (DESIGN.md §10 "Batching"): a
# batch may remove executor events, never move a commit. A poller pays its
# wake-up inside `CompletionQueue::wait`, before it drains — no `was_idle`
# charge after the pop — and a worker charges every span's verification on
# its own and answers as it goes: no summed charge and no per-run vector of
# results above rdma_produce.rs's tests.
if grep -rn "was_idle" crates/kdbroker/src ||
    awk '/#\[cfg\(test\)\]/ { exit } { print FILENAME ":" FNR ": " $0 }' \
        crates/kdbroker/src/rdma_produce.rs | grep -E "\.sum\(|Vec<Result<"; then
    echo "ci: the produce plane charges a batch as a whole again (see DESIGN.md §10 \"Batching\")" >&2
    exit 1
fi

# Host cost of a byte (DESIGN.md §10): one checksum kernel per machine, one
# staging copy, segment memory that is recycled. The hardware and the table
# CRC32C must agree at every length, alignment and streaming split — named
# here because the table kernel runs nowhere else on a machine with SSE4.2.
cargo test -q --offline -p kdstorage --lib crc32c::differential

# `unsafe` lives in four files; each block in the CRC kernel says why it is
# sound.
unsafe_ok="crates/kdbuf/src/lib.rs crates/sim/src/executor.rs crates/sim/src/sync/mutex.rs crates/kdstorage/src/crc32c.rs"
for f in $(grep -rl "unsafe" crates/*/src); do
    case " $unsafe_ok " in
    *" $f "*) ;;
    *)
        echo "ci: $f uses unsafe and is not on the allow-list in scripts/ci.sh" >&2
        exit 1
        ;;
    esac
done
if [ "$(grep -c "unsafe {" crates/kdstorage/src/crc32c.rs)" != "$(grep -c "// SAFETY:" crates/kdstorage/src/crc32c.rs)" ]; then
    echo "ci: an unsafe block in crates/kdstorage/src/crc32c.rs has no // SAFETY: line" >&2
    exit 1
fi

# Re-fork guard: a segment's bytes come from `kdbuf::ShmBuf::zeroed` (which
# recycles) and nothing copies a registered buffer out through
# `ShmBuf::read_at` (a `to_vec`) outside tests.
if grep -n "vec!\[0u8; capacity" crates/kdstorage/src/segment.rs ||
    for f in $(grep -rl "\.read_at(" crates/*/src); do
        awk '/#\[cfg\(test\)\]/ { exit } /\.read_at\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done | grep .; then
    echo "ci: a segment allocates its own bytes or non-test code calls ShmBuf::read_at (see DESIGN.md §10)" >&2
    exit 1
fi

# Hostile bytes (DESIGN.md §9): Request/Response decode over two count
# amplification payloads and 20 000 generated + mutated messages per
# direction — typed error or a round-tripping value, allocation within
# 32 × input + 64. Then the re-fork guard: every message is one line of the
# `wire_enum!` table, from which encode, decode and the generator are
# derived; no hand-written tag dispatch or per-type helper comes back.
cargo test -q --offline -p kdwire --test hostile_bytes
if grep -rnE "match tag|get_broker|put_region|get_bytes_field|put_produce" crates/kdwire/src; then
    echo "ci: a hand-written codec path reappeared in kdwire (see DESIGN.md §2, §9)" >&2
    exit 1
fi

# Hostile bytes in kdstorage (DESIGN.md §9): 20 000 mutated record batches
# through the broker's check, the decoder and an in-place commit (a batch
# commits exactly when it decodes), the same through the consumers' drain
# loop, and 20 000 mutated segment images through crash recovery. Then the
# re-fork guard (DESIGN.md §11): a log has one optional file tier, called
# directly — no store trait, no do-nothing store, no mode enum, and no
# retention sweep that nothing turned on.
cargo test -q --offline -p kdstorage --test hostile_batches --test hostile_segments
cargo test -q --offline -p kdclient --lib consumer::tests::mutated_batches_drain_exactly_when_they_verify
if grep -rnE "SegmentStore|MemStore|StorageMode|RetentionConfig|physical_fsync|apply_retention" \
    crates/ tests/ examples/; then
    echo "ci: a deleted storage fork or the retention sweep reappeared (see DESIGN.md §11)" >&2
    exit 1
fi

# Allocation-free RDMA data planes (DESIGN.md §10 "Hot-datapath allocation
# inventory"): the producer takes each record's ack channel from a pool of
# cells that come back once both ends are gone, and both consumers hand out
# records as views of a pooled chunk that is reused only when no view is
# left. Then the re-fork guard: no per-record `oneshot::channel` on the
# producer's post path, no owned copy in the record decoder.
cargo test -q --offline -p sim --lib oneshot::tests::pool
cargo test -q --offline -p kdclient --lib rdma_consumer::tests
if awk '/#\[cfg\(test\)\]/ { exit } /oneshot::channel\(/ { print FILENAME ":" FNR ": " $0 }' \
    crates/kdclient/src/rdma_producer.rs | grep . ||
    awk '/#\[cfg\(test\)\]/ { exit } /\.to_vec\(\)/ { print FILENAME ":" FNR ": " $0 }' \
        crates/kdstorage/src/record.rs | grep .; then
    echo "ci: a per-record ack channel or an owned record decode reappeared (see DESIGN.md §10)" >&2
    exit 1
fi

# kdtelem says each thing once (DESIGN.md §8): every dump reads back through
# one JSON codec — hostile names round-trip, 20 000 mutated dumps read as
# themselves or not at all, within an allocation bound — and the metric
# inventory table is what a run registers. Then the re-fork guard: a span is
# its trace events and its duration a histogram (no span ring or guard), a
# histogram is one bucket array, and a parsed name is owned, not leaked.
cargo test -q --offline -p kdtelem --test hostile_json
cargo test -q --offline --test telemetry metric_inventory_matches_design
if grep -rnE "SpanGuard|drain_spans|record_span|with_span_capacity|struct HistData|Box::leak" \
    crates/ tests/ examples/; then
    echo "ci: a deleted kdtelem fork (classic spans, HistData, a leaked name) reappeared (see DESIGN.md §8)" >&2
    exit 1
fi

# kdbroker by plane (DESIGN.md §2): each request's handler lives in its
# plane's file, and the helpers every plane uses live in `common`, which
# imports no plane. A consume release drops only its own consumer's hold on
# a read registration (DESIGN.md §9). Then the re-fork guard: no catch-all
# API file, no `Metrics::add` wrapper, no second count of network-thread
# busy time.
cargo test -q --offline --test e2e_failures a_foreign_consume_release_leaves_a_readers_segment_registered
if [ -e crates/kdbroker/src/api.rs ] ||
    grep -rnE "crate::api|kdbroker::api|metrics\.add\(|net_pool\.busy_ns" crates/ tests/ examples/; then
    echo "ci: kdbroker's catch-all api.rs or a twice-stated counter reappeared (see DESIGN.md §2)" >&2
    exit 1
fi

# Work-request engine gates: the NIC model must not grow a per-WR task
# again — no spawn on the post path of qp.rs (connection-manager and test
# spawns live elsewhere) — and its executor-poll budget must hold: 10 000
# small WriteImms, one signaled per 32, receiver re-posting, at most
# 2 + 2/32 polls per WR (the per-WR-task model needed 4.03).
if grep -n "spawn" crates/rnic/src/qp.rs; then
    echo "ci: crates/rnic/src/qp.rs spawns on the post path" >&2
    exit 1
fi
cargo test -q --offline -p rnic --test verbs_semantics poll_budget

# One wait list (DESIGN.md §10): every multi-waiter primitive parks on
# `sim::sync::WaitList`. The golden wake order of Mutex, Semaphore, Notify,
# HandoffQueue and a shared CQ — 200 seeded schedules with cancellation —
# must not move. Then the re-fork guard: no second waiter queue, no bounded
# mpsc mode, no stored notify permit.
cargo test -q --offline -p sim --test wake_order
if grep -rnE "struct Waiters|send_wakers|SendReady|TrySendError|pub fn bounded|notify_one|Vec<Waker>" crates/*/src; then
    echo "ci: a second list of parked tasks or the bounded mpsc reappeared (see DESIGN.md §10)" >&2
    exit 1
fi

# Timer-wheel property tests: exact (deadline, insertion-seq) expiry order
# under arbitrary interleavings of inserts, bounded probes, and pops — both
# on the raw wheel and, through `Runtime::block_on`, for timers registered
# at different instants (late ones included).
cargo test -q --offline -p sim wheel
cargo test -q --offline -p sim --test prop_timer_order

# Smoke-run the quickstart example end to end. It runs the broker under the
# continuous-telemetry sampler and health watchdog and exits non-zero on any
# watchdog stall event or critical-path checker error, so this doubles as
# the live observability gate. The --durable variant reruns it over the
# file-backed tier and re-reads every record after a crash + restart.
cargo run -q --release --offline --example quickstart
cargo run -q --release --offline --example quickstart -- --durable

# Deterministic budgets (DESIGN.md §10 "Measuring"): executor polls,
# allocations and virtual ns per record of the fig10/11 produce loop on the
# three datapaths, a warm 1 MiB TCP send, sampler ticks, consume catch-up and
# replicated produce — exact counters, so the same in release as in the debug
# run `cargo test` above already did. Two of them budget what a connection
# holds rather than what a record costs (DESIGN.md §13):
# `parked_client_footprint`, the live heap of a parked fan-in client, and
# `registry_does_not_grow_per_connection`, the registry's instrument vectors
# across connects, reconnects and drops. Then the first fan-in rung past the
# NIC cache knee, which is too slow for a debug build and `#[ignore]`d there;
# alone in its process, it ends by reading its own `VmHWM` and fails above
# 500 MiB.
cargo test -q --offline --release -p kdbench --test budgets
cargo test -q --offline --release --test conn_scaling -- --ignored fanin_10k

# Re-fork guard: there is one wall-clock harness (kdmark, below) and no
# per-PR report files; what the second harness gated is the tests above.
if grep -rnE "kdperf|KDPERF_|KD_BENCH_TAG|BENCH_PR|PERF_PR|criterion_substrate" \
    crates/ tests/ examples/ scripts/ | grep -v "^scripts/ci.sh:.*grep -rnE"; then
    echo "ci: a piece of the deleted second measuring harness reappeared (see DESIGN.md §10)" >&2
    exit 1
fi

# kdmark (BENCHMARK.json): its own unit tests, then every workload at 1/20
# size, traced run included — the benchmark must keep building and
# verifying against the crates as they are.
(cd benchmark && cargo test -q --offline)
bash benchmark/smoke.sh

# Figure ledger: every paper figure and ablation is virtual time, so what
# `scripts/figures.sh` prints at a commit is a fact about that commit.
# Regenerate it into a temp dir and fail unless it is byte-identical to the
# checked-in `results/figures-latest.txt`; a PR that moves a figure runs
# `scripts/figures.sh` itself, commits the file and re-judges the rows
# `git diff results/` names in EXPERIMENTS.md.
figures="$(mktemp -d)"
trap 'rm -rf "$figures"' EXIT
bash scripts/figures.sh "$figures" "$figures/ledger.txt"
if ! diff results/figures-latest.txt "$figures/ledger.txt" >&2; then
    echo "ci: a figure moved: results/figures-latest.txt is not what scripts/figures.sh prints" >&2
    exit 1
fi

# Net non-test lines of code per crate (the number CHANGES.md reports).
bash scripts/loc.sh
