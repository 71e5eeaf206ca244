#!/usr/bin/env bash
# Offline tier-1 gate: the workspace must build, test, and lint with no
# network access (no registry deps beyond the vendored toolchain).
set -euo pipefail
cd "$(dirname "$0")/.."

cargo build --release --offline
cargo build --examples --offline
cargo test -q --offline
cargo clippy --all-targets --offline -- -D warnings
# One layout: the workspace is what `cargo fmt` prints (kdmark under
# benchmark/ is its own package and is not checked here).
cargo fmt --check
# The docs build without a warning, the public and the private items'
# alike: an intra-doc link that names nothing, or a public doc that links a
# private item, fails here.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace --document-private-items

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

# One recovery path (DESIGN.md §7 "One data plane"): both RDMA clients
# recover through `data_plane::recover`. A tailing consumer through a QP error
# under it, two leader crashes with fail-over at RF 2 and a restart of its
# RF 1 leader (or `RetriesExhausted` past the backoff); a producer past a
# failed redial and past a refused re-request; a consumer tailing every chaos
# seed, by name. Then the re-fork guard: no leader lookup, backoff or dial
# outside data_plane.rs (`Admin::leader_of` delegates), and no redial or
# backoff loop of the producer's own.
cargo test -q --offline --test e2e_failures a_tailing_consumer_
cargo test -q --offline --test e2e_failures a_producer_whose_broker_is_down_redials_then_reconnects
cargo test -q --offline --test e2e_failures a_fenced_shared_producer_re_requests_then_reconnects
cargo test -q --offline --test chaos a_tailing_consumer_rides_out_every_chaos_seed
if for f in crates/kdclient/src/*.rs; do
        [ "$f" = crates/kdclient/src/data_plane.rs ] && continue
        awk '/#\[cfg\(test\)\]/ { exit } /with_backoff\(|leader_of\(|\.dial\(/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done | grep -vE "^crates/kdclient/src/admin.rs:[0-9]+: +(pub async fn leader_of\(|crate::data_plane::leader_of\()" | grep . ||
    awk '/#\[cfg\(test\)\]/ { exit } /async fn redial|RECONNECT_|sleep\(delay/ { print FILENAME ":" FNR ": " $0 }' \
        crates/kdclient/src/rdma_producer.rs | grep .; then
    echo "ci: a client recovers outside its data plane again (see DESIGN.md §7 \"One data plane\")" >&2
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

# One RPC client and one bind table (DESIGN.md §10, §9 "Hostile bytes"): the TCP
# and OSU clients keep their calls in one `kdwire::frame::Calls` on pooled
# oneshot cells, and TCP ports and RDMA service ids bind through one
# `netsim::bind::BindTable`. The contract both client transports owe their
# callers, the bind table's generation rules, and the two broker doors that
# only a broker (`InternalAddPartition`) or the named follower itself (a
# replica `Fetch`) may pass, by name. Then the re-fork guard: no private
# reply slot, no second correlation table in kdclient, no second bind
# generation counter.
cargo test -q --offline -p kdclient --test client_contract
cargo test -q --offline -p netsim --lib bind::tests
cargo test -q --offline --test e2e_failures a_client_cannot_install_partition_metadata
cargo test -q --offline --test e2e_failures a_client_cannot_acknowledge_for_a_follower
if grep -rnE "struct ReplySlot|RpcShared" crates/ ||
    grep -rni "next_bind_gen" crates/ | grep -v "^crates/netsim/src/bind.rs:" ||
    grep -rn "HashMap<u64, sim::sync::oneshot::Sender" crates/kdclient/src; then
    echo "ci: a second RPC correlation table or bind-generation table reappeared (see DESIGN.md §10)" >&2
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

# A connect allocates its state, not its scaffolding (DESIGN.md §10
# "Allocations of a connect", §13): a task frame of at most 1 KiB comes
# from a slab of its size class, one allocation per refill, and a dropped
# runtime drops each live task once and frees each slab once; a request's
# topic is a `kdwire::TopicName`, inline up to 22 bytes; a QP's two CQs are
# one allocation; a window-1 producer makes its staging buffer once, at the
# power of two its records grow it to; and a fan-in connect stays under its
# allocation budget. Then the slot's demoted bit (DESIGN.md §9): a tailing
# consumer leaves a leader demoted without a crash. Each by name; then the
# re-fork guard: no request's topic is a `String` but the TCP produce's,
# the type kdmark's wire layer builds it with, and no consumer group is one.
cargo test -q --offline -p sim --test task_slabs
cargo test -q --offline -p kdwire --lib topic::tests
cargo test -q --offline -p rnic --lib nic::tests::a_cq_pair_is_two_queues
cargo test -q --offline -p kdclient --lib rdma_producer::tests::a_window_1_producer_allocates_its_staging_bytes_once
cargo test -q --offline --release -p kdbench --test budgets fanin_client_connect_allocations
cargo test -q --offline --test e2e_failures a_tailing_consumer_leaves_a_leader_demoted_without_a_crash
if awk '(/topic: String([^:]|$)/ && prev !~ /^ *Produce \{$/) || /group: String([^:]|$)/ { print FILENAME ":" FNR ": " $0 } { prev = $0 }' \
    crates/kdwire/src/messages.rs | grep .; then
    echo "ci: a request's topic or group is a String again (see DESIGN.md §10)" >&2
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
# left, in a batch (`kdclient::Polled`) whose vector goes back to its
# consumer when it drops. A batch held across the next poll, on both
# consumers, and a warm RDMA consumer's polls allocating nothing, by name.
# Then the re-fork guard: no per-record `oneshot::channel` on the
# producer's post path, no owned copy in the record decoder, and no poll
# that returns a fresh `Vec`.
cargo test -q --offline -p sim --lib oneshot::tests::pool
cargo test -q --offline -p kdclient --lib rdma_consumer::tests
cargo test -q --offline -p kdclient --lib held_across_the_next_poll_keeps_its_records
cargo test -q --offline --release -p kdbench --test budgets warm_rdma_consumer_polls_allocate_nothing
if awk '/#\[cfg\(test\)\]/ { exit } /oneshot::channel\(/ { print FILENAME ":" FNR ": " $0 }' \
    crates/kdclient/src/rdma_producer.rs | grep . ||
    awk '/#\[cfg\(test\)\]/ { exit } /\.to_vec\(\)/ { print FILENAME ":" FNR ": " $0 }' \
        crates/kdstorage/src/record.rs | grep . ||
    for f in crates/kdclient/src/consumer.rs crates/kdclient/src/rdma_consumer.rs; do
        awk '/#\[cfg\(test\)\]/ { exit } /Result<Vec<RecordView>/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done | grep .; then
    echo "ci: a per-record ack channel, an owned record decode or a poll's fresh Vec reappeared (see DESIGN.md §10)" >&2
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

# Completions without an engine hop (DESIGN.md §10): the engine hands a send
# CQE to its CQ at delivery, with the instant it surfaces, and the CQ keeps
# it from its consumers until then. The timing property (two QPs on one send
# CQ, RNR stall, mid-run close; `next()`, `wait(wakeup)` and polling
# consumers), the send-CQ overflow rule, and the trace rule that a
# completion follows its post, by name. Then the re-fork guard: the engine
# has no completion event and a QP no completion FIFO.
cargo test -q --offline -p rnic --test cqe_timing
cargo test -q --offline -p rnic --test verbs_semantics send_cq_overflows_when_a_completion_is_handed_over
cargo test -q --offline -p kdtelem --lib check::tests::a_completion_must_follow_its_post
if grep -rnE "Event::Complete|compq" crates/rnic/src; then
    echo "ci: the engine's completion relay reappeared (see DESIGN.md §10)" >&2
    exit 1
fi

# One wait list (DESIGN.md §10): every multi-waiter primitive parks on
# `sim::sync::WaitList`. The golden wake order of Mutex, a counting
# semaphore on the wait list, Notify, HandoffQueue and a shared CQ — 200
# seeded schedules with cancellation — must not move. Then the re-fork guard: no second waiter queue, no bounded
# mpsc mode, no stored notify permit.
cargo test -q --offline -p sim --test wake_order
if grep -rnE "struct Waiters|send_wakers|SendReady|TrySendError|pub fn bounded|notify_one|Vec<Waker>" crates/*/src; then
    echo "ci: a second list of parked tasks or the bounded mpsc reappeared (see DESIGN.md §10)" >&2
    exit 1
fi

# One timed wake (DESIGN.md §10 "One wait list"): every timed wake under
# `sim::sync` and in the RNIC's CQs is `wait_list::Arm::set`, and every queue
# of items due at instants is one `sim::InlineDeque` kept by `push_due`. The
# due store against the heap it replaced, and the exact re-park counts of a
# replicated RDMA produce (a TCP produce's, an exclusive RDMA produce's, a
# consume catch-up's and a fan-in connect's are gated by the budgets run
# below), by name. Then the re-fork guards: no heap in the due queue, no
# scheduled-CQE counter in the CQ, no `VecDeque` in `sim::sync` above its
# tests, and `wake_at(` once, in the one arm operation.
cargo test -q --offline -p sim --lib inline_deque::tests::the_due_store_pops_as_the_heap_it_replaced
cargo test -q --offline --release -p kdbench --test budgets replicated_rdma_produce_polls_per_record
wake_ats="$(grep -n "wake_at(" crates/sim/src/sync/*.rs crates/rnic/src/cq.rs || true)"
if grep -n "BinaryHeap" crates/sim/src/sync/due_queue.rs ||
    grep -nE "scheduled: Cell|inner\.scheduled" crates/rnic/src/cq.rs ||
    for f in crates/sim/src/sync/*.rs; do
        awk '/#\[cfg\(test\)\]/ { exit } /VecDeque/ { print FILENAME ":" FNR ": " $0 }' "$f"
    done | grep . ||
    [ "$(printf '%s\n' "$wake_ats" | grep -c "^crates/sim/src/sync/wait_list.rs:")" != 1 ] ||
    [ "$(printf '%s\n' "$wake_ats" | grep -c .)" != 1 ]; then
    echo "ci: a second due-ordered store or a second timed-wake rule reappeared (see DESIGN.md §10)" >&2
    printf '%s\n' "$wake_ats" >&2
    exit 1
fi

# Wakes that do nothing, taken back (DESIGN.md §10 "Wakes that do
# nothing"): a timer can be taken back until its turn comes, at no poll, and
# put back where it was; a CQ takes back the wake of a consumer whose CQE
# another one took, and a push loop's post cost rides its log-end wake. The
# timer in its instant and under random cancels, the two blocked consumers,
# the exclusive produce's and the pipelined RF 3 scenario's exact polls and
# re-parks, by name. Then a read is checked against the offsets it claims
# (`drain_batches`), by name.
cargo test -q --offline -p sim --lib time::tests::a_timer_taken_back_in_its_instant_costs_no_poll_and_keeps_its_place
cargo test -q --offline -p sim --test prop_timer_order cancelled_timers_wake_nobody_and_the_others_keep_their_order
cargo test -q --offline -p rnic --test cqe_timing a_consumer_whose_cqe_another_took_is_not_woken
cargo test -q --offline --release -p kdbench --test budgets rdma_exclusive_produce_per_record
cargo test -q --offline --release -p kdbench --test budgets pipelined_replicated_produce_and_tail_polls
cargo test -q --offline -p kdclient --lib consumer::tests::a_gap_inside_a_read_is_corrupt
cargo test -q --offline -p kdclient --lib consumer::tests::a_read_whose_first_batch_starts_past_the_offset_is_corrupt
cargo test -q --offline -p kdclient --lib consumer::tests::the_prefix_of_the_batch_that_holds_the_offset_is_skipped

# Timer-wheel property tests: `Wheel::pop_next` pops exact
# (deadline, insertion-seq) order under arbitrary interleavings of inserts
# and pops — both on the raw wheel and, through `Runtime::block_on`, for
# timers registered at different instants (late ones included) and on every
# level's boundaries.
cargo test -q --offline -p sim wheel
cargo test -q --offline -p sim --test prop_timer_order

# Smoke-run the quickstart example end to end. It samples the run's registry
# and exits non-zero on any stall read from the series or critical-path
# checker error, so this doubles as the live observability gate. The --durable variant reruns it over the
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
# across connects, reconnects and drops. Then the two fan-in rungs past the
# NIC cache knee, which are too slow for a debug build and `#[ignore]`d there;
# each alone in its process, they end by reading their own `VmHWM` and fail
# above 176 MiB (10k clients) and 2 GiB (100k clients, ~12 s).
cargo test -q --offline --release -p kdbench --test budgets
cargo test -q --offline --release --test conn_scaling -- --ignored fanin_10k
cargo test -q --offline --release --test conn_scaling -- --ignored fanin_100k

# A wake is a queue push (DESIGN.md §10 "Timer wheel + ready queue"): a waker
# is an integer naming its runtime and task, found through the live runtimes
# of the current thread. Its contract, one test per rule — an off-thread wake
# panics, a dropped runtime's waker does nothing, a wake between two
# `block_on`s runs in the second, nested runtimes keep their own queues —
# waking allocates nothing, and a small packet takes a small chunk with a free
# list of its own (§13), by name. Then the re-fork guard: no per-slot waker
# allocation and no weak handle to the ready queue.
cargo test -q --offline -p sim --lib executor::tests::a_waker
cargo test -q --offline -p sim --lib executor::tests::a_wake_between_two_block_ons
cargo test -q --offline -p sim --lib executor::tests::nested_runtimes_route_each_wake
cargo test -q --offline --release -p kdbench --test budgets wakers_allocate_nothing
cargo test -q --offline -p kdbuf --lib tests::both_classes_recycle
if grep -rnE "WakeEntry|Weak<ReadyQueue>" crates/sim/src; then
    echo "ci: a refcounted waker reappeared in sim (see DESIGN.md §10)" >&2
    exit 1
fi

# Every task's future is stored once (DESIGN.md §10 "Timer wheel + ready
# queue"): a joined `spawn` and the `block_on` root are one hand-written
# wrapper that polls the future in place and drops it before its output is
# delivered. The wrapper's wake order, a joined task's arena block, and the
# futures kdmark's fan-in client task is built from are gated by name. Then
# the re-fork guard: no `async move { let out = future.await; .. }` wrapper,
# which lays the future out twice.
cargo test -q --offline -p sim --lib executor::tests::a_joined_future_drops_before_its_output_is_delivered
cargo test -q --offline --release -p kdbench --test budgets joined_task_frame_is_stored_once
cargo test -q --offline -p kdclient --lib rdma_producer::tests::send_path_frames_stay_small
if grep -n "let out = future.await" crates/sim/src/executor.rs; then
    echo "ci: a task wrapper that stores its future twice reappeared (see DESIGN.md §10)" >&2
    exit 1
fi

# A charge rides its wake (DESIGN.md §10 "One replicated RDMA produce, task by
# task"): CPU a task spends on a completion is armed with the completion's
# wake — `oneshot::Receiver::charged`, `CompletionQueue::wait(charge)` — not
# slept after it, and a push loop collects its own credit returns. The
# charged receive's contract, the oracle on what an ack and a delivered
# record mean under RF 3 push replication, the credit receives a push session
# posts and their bound, a write acked after its session's QP died, and
# charged round trips allocating nothing, by name. Then the re-fork
# guard: no sleep after the consumer's data read or the producer's ack, and
# repl.rs spawns one collector per push session (three spawns in all: pull
# fetcher, push loop, collector).
cargo test -q --offline -p sim --lib oneshot::tests::charged
cargo test -q --offline -p sim --lib oneshot::tests::a_recycled_cell_carries_no_stale_charge
cargo test -q --offline --test e2e_replication acks_and_deliveries_stay_below_the_high_watermark
cargo test -q --offline --test e2e_replication a_flood_with_128_credits_never_finds_the_credit_receives_empty
cargo test -q --offline --test e2e_replication a_write_delivered_before_the_push_qp_dies_still_acks
cargo test -q --offline -p kdbroker --lib broker::tests::more_replication_credits_than_the_credit_cq_holds_are_refused
cargo test -q --offline --release -p kdbench --test budgets charged_round_trips_allocate_nothing
if awk '/#\[cfg\(test\)\]/ { exit } /sleep/ { print FILENAME ":" FNR ": " $0 }' \
    crates/kdclient/src/rdma_consumer.rs | grep . ||
    awk '/pub async fn send\(/, /^    }/' crates/kdclient/src/rdma_producer.rs | grep -n "sleep" ||
    [ "$(grep -c "sim::spawn" crates/kdbroker/src/repl.rs)" != 3 ]; then
    echo "ci: a charge is slept after its wake again, or repl.rs grew a second collector (see DESIGN.md §10)" >&2
    exit 1
fi

# A turn wakes its owner (DESIGN.md §10 "One wait list"): "wait until a
# counter reaches x" is one primitive, `sim::sync::Frontier`, under the
# per-file commit turn and the acks=all wait. Its contract and its
# differential against the broadcast loop it replaced, checker rule 7 (commit
# order is post order, §4.2.2) at `produce_large`'s shape, the 32 KiB budget
# and park/advance rounds allocating nothing, by name. Then the re-fork
# guard: no broadcast chain or high-watermark watch in the partition module,
# and no broadcast in the commit path.
cargo test -q --offline -p sim --lib sync::frontier::tests
cargo test -q --offline -p kdtelem --lib check::tests::commits_follow_post_order_per_qp_and_stream
cargo test -q --offline --test trace_lifeline commits_follow_post_order_at_the_large_produce_shape
cargo test -q --offline --release -p kdbench --test budgets rdma_exclusive_large_produce_per_record
cargo test -q --offline --release -p kdbench --test budgets frontier_rounds_allocate_nothing
if grep -nE "struct Chain|hw_tx|notify_waiters" crates/kdbroker/src/data.rs ||
    grep -n "notify_waiters" crates/kdbroker/src/rdma_produce.rs; then
    echo "ci: the broadcast commit chain or the high-watermark watch reappeared (see DESIGN.md §10)" >&2
    exit 1
fi

# A TCP hop pays its thread time in its write (DESIGN.md §10 "One TCP
# produce, hop by hop"): the broker's reply writer books its network thread
# (`ServiceQueue::reserve`) and hands the end instant to the write, whose
# syscall starts there (`WriteHalf::write_all_from`), and a pipelined Kafka
# send is spawned at the instant its client-side cost is paid
# (`sim::spawn_at`). The folded write against a sleep and a write on every
# timeline case, `spawn_at`'s contract and the TCP produce budget, by name.
# Then the re-fork guard: no sleep on the network thread in `Conn::open`'s
# writer, no spawn-then-sleep in `send_pipelined`, no pooled scratch held
# across a frame header read.
cargo test -q --offline -p netsim --lib tcp::tests::write_all_from_keeps_the_instants_of_a_sleep_and_a_write
cargo test -q --offline -p sim --lib executor::tests::spawn_at_
cargo test -q --offline --release -p kdbench --test budgets tcp_produce_per_record
if awk '/pub\(crate\) fn open/, /^    }/' crates/kdbroker/src/server_rpc.rs | grep -n "\.run(" ||
    awk '/pub fn send_pipelined/, /^    }/' crates/kdclient/src/producer.rs | grep -n "sim::spawn(" ||
    awk '/pub async fn read_frame_into/, /^}/' crates/kdwire/src/frame.rs | grep -n "kdbuf::scratch"; then
    echo "ci: a TCP hop sleeps twice for one stretch of CPU time again (see DESIGN.md §10)" >&2
    exit 1
fi

# A TCP produce allocates nothing (DESIGN.md §10 "One TCP produce, hop by
# hop"): a joined task's completion cell comes from its runtime's pool for
# the task's output type, and both broker front ends decode through
# `server_rpc::decode`, which decodes a produce in place — its topic inline,
# its batch copied once into a pooled scratch vector. The warm joined-spawn
# budget and the in-place decode against the owned one, by name. Then the
# re-fork guard: no owned request decode in either front end, no fresh
# `oneshot::channel` per joined task.
cargo test -q --offline --release -p kdbench --test budgets warm_joined_spawns_allocate_nothing
cargo test -q --offline -p kdwire --test hostile_bytes the_in_place_produce_decode_agrees_with_the_owned_one
if awk '/#\[cfg\(test\)\]/ { nextfile } /Request::decode\(/ { print FILENAME ":" FNR ": " $0 }' \
    crates/kdbroker/src/server_tcp.rs crates/kdbroker/src/server_osu.rs | grep . ||
    awk '/#\[cfg\(test\)\]/ { exit } /oneshot::channel\(/ { print FILENAME ":" FNR ": " $0 }' \
        crates/sim/src/executor.rs | grep .; then
    echo "ci: a front end decodes requests owned again, or a joined task makes its own cell (see DESIGN.md §10)" >&2
    exit 1
fi

# A connect builds each layer's state once (DESIGN.md §13 "What a connection
# holds"): a TCP connection is one block whose two pipes each keep their
# window as a `Frontier` of released bytes and are read in place, a producer
# generation is one block whose ack-receive region also takes the FAA
# result, a CQ keeps its first QP inline, and a staging buffer is allocated
# at its batch's size. A writer parked on the window fails when its reader
# goes; the one-record batch length, the connect's allocations and the
# parked client's heap, by name. Then the re-fork guard: no semaphore or
# copy buffer in the TCP stream (`sim::sync::Semaphore` is gone), no FAA
# buffer of its own or per-request topic copy in the producer.
cargo test -q --offline -p netsim --lib tcp::tests::a_writer_parked_on_the_window_fails_when_the_reader_goes
cargo test -q --offline -p kdstorage --lib record::proptests::one_record_batch_len_is_its_encoded_len
cargo test -q --offline --release -p kdbench --test budgets fanin_client_connect_allocations
cargo test -q --offline --release -p kdbench --test budgets parked_client_footprint
if grep -nE "Semaphore|VecDeque<u8>" crates/netsim/src/tcp.rs ||
    grep -rn "struct Semaphore" crates/*/src ||
    grep -nE "ShmBuf::zeroed\(8\)|topic\.clone\(\)" crates/kdclient/src/rdma_producer.rs; then
    echo "ci: a connection's state is built piecemeal again (see DESIGN.md §13)" >&2
    exit 1
fi

# A connection's first messages grow nothing (DESIGN.md §10 "A connect builds
# each layer's state once"): every per-connection queue a window-1 client
# holds one entry in — a CQ's ring and attached QPs, a TCP pipe's chunks, a
# producer generation's ack waiters and staging buffers, a oneshot pool's
# free cells, a wait list's parked tasks, an RPC client's calls in flight —
# is a `sim::InlineDeque`, the broker's reply stage keeps its earliest entry
# inline, and a frame that lies in one received TCP chunk is handed up as a
# view of it. The deque against `VecDeque`, a write to a gone reader failing
# at its start, and the allocation-site report (one backtrace per counted
# allocation), by name. Then the re-fork guard: no `VecDeque` ring in the
# CQ or chunk queue in the TCP pipe, and no hand-rolled inline first entry
# in the wait list.
cargo test -q --offline -p sim --lib inline_deque::tests
cargo test -q --offline -p netsim --lib tcp::tests::a_write_after_the_reader_went_fails_at_its_start
cargo test -q --offline -p kdwire --lib frame::tests::a_frame_in_one_chunk_is_a_view_of_it
cargo test -q --offline --release -p kdbench --test budgets -- --ignored fanin_connect_allocation_sites
if grep -n "VecDeque<Slot>" crates/rnic/src/cq.rs ||
    grep -n "VecDeque<Chunk>" crates/netsim/src/tcp.rs ||
    grep -n "first: Option<Entry" crates/sim/src/sync/wait_list.rs; then
    echo "ci: a per-connection queue grows from empty at its first entry again (see DESIGN.md §10)" >&2
    exit 1
fi

# A window-1 producer reads its own ack (DESIGN.md §10 "Polls by spawn
# site", §13 "What a connection holds"): a producer spawns its ack reader at
# its first pipelined post, and a window-1 send waits on its own receive CQ,
# armed for the instant the reader's wake plus the charged channel were. The
# polls-by-spawn-site count, the reader-less path (no task, one wake per ack;
# a send given up on; a QP that dies under an idle producer), rung 1's
# re-request of the head file, the fan-in client's exact polls and the
# per-site report, by name. Then the re-fork guards: one spawn in the
# producer, by the pipelined post alone, and no push collector that re-polls
# its QP's disconnect wait on every completion.
cargo test -q --offline -p sim --lib executor::tests::polls_are_counted_by_spawn_site_only_while_asked
cargo test -q --offline -p kdclient --lib rdma_producer::tests::a_window_1_producer_spawns_no_task_and_wakes_once_per_ack
cargo test -q --offline -p kdclient --lib rdma_producer::tests::a_send_given_up_on_leaves_the_next_send_correct
cargo test -q --offline -p kdclient --lib rdma_producer::tests::an_idle_window_1_producer_recovers_at_its_next_send
cargo test -q --offline --test e2e_failures a_producer_redialled_to_its_broker_requests_its_grant_again
cargo test -q --offline --release -p kdbench --test budgets fanin_client_polls
cargo test -q --offline --release -p kdbench --test budgets -- --ignored poll_sites
producer=crates/kdclient/src/rdma_producer.rs
if [ "$(awk '/#\[cfg\(test\)\]/ { exit } /sim::spawn/' $producer | wc -l)" != 1 ] ||
    [ "$(awk '/#\[cfg\(test\)\]/ { exit } /spawn_reader\(\)/' $producer | wc -l)" != 1 ] ||
    grep -n "race(collect" crates/kdbroker/src/repl.rs; then
    echo "ci: a producer spawns its ack reader before it pipelines, or a push collector races its disconnect wait again (see DESIGN.md §10)" >&2
    exit 1
fi

# One way to read telemetry (DESIGN.md §8): every registry lives in the
# harness's process, which reads it directly, and stalls and failover MTTR
# are a function of a recorded series (`kdtelem::health`). The function's
# rules and the crash soak that reads them from its series, by name. Then the
# re-fork guard: no broker-side sampler or watchdog, no watchdog task and no
# telemetry RPC or its error code.
cargo test -q --offline -p kdtelem --lib health::tests
cargo test -q --offline --test observability
if grep -rnE "ObserveConfig|WatchdogOptions|struct Watchdog|Request::(Telemetry|Series|Health)|broker_(telemetry|series|health)|NotSupported" \
    crates/ tests/ examples/; then
    echo "ci: the admin telemetry path or the watchdog task reappeared (see DESIGN.md §8)" >&2
    exit 1
fi

# A produce grant goes with the QP that holds it (§4.2.2 failure handling):
# one producer's crash leaves its node neighbour's grant, by name.
cargo test -q --offline --test e2e_failures a_producer_crash_leaves_its_node_neighbours_grant

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
