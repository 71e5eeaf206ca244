//! Topic administration (controller role): topic creation, the one install
//! path of a partition — fresh, or recovered from surviving segment buffers
//! — and epoch-fenced leadership changes.

use std::rc::Rc;

use kdstorage::{Log, TopicPartition};
use kdwire::messages::{Request, Response};
use kdwire::{BrokerAddr, ErrorCode, PartitionMeta};

use crate::broker::{BrokerInner, SegmentBuffers};
use crate::common::advance_rf1_hw;
use crate::data::Partition;
use crate::rdma_produce::revoke_grant;

/// `CreateTopic`: the controller (`peers[0]`) assigns leaders round-robin
/// and installs every partition on every broker; any other broker forwards
/// the request to it.
pub(crate) async fn create_topic(
    b: &Rc<BrokerInner>,
    topic: &str,
    partitions: u32,
    replication: u32,
) -> ErrorCode {
    let controller = b.peers[0];
    if b.me.node != controller.node {
        // Forward to the controller.
        let Some(client) = b.peer_client(controller).await else {
            return ErrorCode::Internal;
        };
        return match client
            .call(&Request::CreateTopic {
                topic: topic.to_string(),
                partitions,
                replication,
            })
            .await
        {
            Ok(Response::CreateTopic { error }) => error,
            _ => ErrorCode::Internal,
        };
    }
    if partitions == 0 || replication == 0 || replication as usize > b.peers.len() {
        return ErrorCode::InvalidRequest;
    }
    if b.store.topic_exists(topic) {
        return ErrorCode::AlreadyExists;
    }
    let n = b.peers.len();
    for pt in 0..partitions {
        let meta = PartitionMeta {
            partition: pt,
            epoch: 0,
            leader: b.peers[pt as usize % n],
            replicas: (1..replication as usize)
                .map(|k| b.peers[(pt as usize + k) % n])
                .collect(),
        };
        // Install on every broker (full metadata view everywhere).
        for target in b.peers.clone() {
            if target.node == b.me.node {
                install(b, topic, meta.clone(), None);
            } else if let Some(client) = b.peer_client(target).await {
                let req = Request::InternalAddPartition {
                    topic: topic.to_string(),
                    partition: pt,
                    epoch: 0,
                    leader: meta.leader,
                    replicas: meta.replicas.clone(),
                };
                let _ = client.call(&req).await;
            }
        }
    }
    ErrorCode::None
}

/// Installs partition metadata and, when this broker hosts the partition,
/// the local replica and its replication machinery: around a fresh log, or
/// around `recovered` segment buffers on a broker restarted after a crash
/// (the log is rebuilt by a CRC scan that truncates any torn tail; commits
/// only cover CRC-verified bytes, so every committed record survives). A
/// view with a newer epoch for an already-hosted partition is a leadership
/// change and is applied in place; a view with an older epoch is stale and
/// rejected (`FencedEpoch`).
pub fn install(
    b: &Rc<BrokerInner>,
    topic: &str,
    meta: PartitionMeta,
    recovered: Option<SegmentBuffers>,
) -> ErrorCode {
    let tp = TopicPartition::new(topic, meta.partition);
    if b.store
        .partition_meta(&tp)
        .is_some_and(|known| meta.epoch < known.epoch)
    {
        return ErrorCode::FencedEpoch;
    }
    let (epoch, leader, followers) = (meta.epoch, meta.leader, meta.replicas.clone());
    b.store.record_meta(topic, meta);
    let is_leader = leader.node == b.me.node;
    if let Some(p) = b.store.get(&tp) {
        if epoch > p.epoch() {
            apply_leadership_change(b, &p, epoch, leader, followers, is_leader);
        }
        return ErrorCode::None;
    }
    let was_recovered = recovered.is_some();
    let log = match recovered {
        Some(buffers) => Log::recover(b.config.log.clone(), tiered_store(b, &tp), buffers),
        None if is_leader || followers.iter().any(|f| f.node == b.me.node) => {
            match tiered_store(b, &tp) {
                Some(store) => Log::with_store(b.config.log.clone(), store),
                None => Log::new(b.config.log.clone()),
            }
        }
        None => return ErrorCode::None,
    };
    let p = Partition::with_log(tp, log, leader, followers, is_leader, epoch);
    b.store.insert(Rc::clone(&p));
    if was_recovered && is_leader {
        // RF 1 recovers its high watermark from the log end; RF > 1
        // re-advances it as followers ack (push re-learns each follower's
        // frontier at session establish).
        p.announce_leo();
        advance_rf1_hw(b, &p);
    }
    start_replication(b, &p);
    ErrorCode::None
}

/// Tiered mode: creates (wiping any stale files) the partition's segment
/// file store under `<storage.dir>/node<N>/<topic>-<partition>`. Memory
/// mode returns `None`.
fn tiered_store(b: &BrokerInner, tp: &TopicPartition) -> Option<Rc<kdstorage::FileStore>> {
    let storage = b.config.storage.as_ref()?;
    let dir = storage.dir.join(format!("node{}", b.me.node)).join(format!(
        "{}-{}",
        tp.topic.as_str(),
        tp.partition
    ));
    // A broken host, not bad input: kdstorage's policy for its own files.
    let store = kdstorage::FileStore::create(&dir, storage).expect("create segment file store");
    Some(Rc::new(store))
}

fn start_replication(b: &Rc<BrokerInner>, p: &Rc<Partition>) {
    if p.is_leader() {
        crate::repl::maybe_start_push(b, p);
    } else if !b.config.rdma.replicate {
        crate::repl::start_pull_fetcher(b, p);
    }
}

/// Epoch-fenced leadership change. Revoking the active grant deregisters its
/// MR, rotating the rkey out from under any producer or pusher still
/// operating under the old epoch: their one-sided writes fail the NIC's
/// rkey lookup and never become consumer-visible.
fn apply_leadership_change(
    b: &Rc<BrokerInner>,
    p: &Rc<Partition>,
    epoch: u64,
    leader: BrokerAddr,
    followers: Vec<BrokerAddr>,
    is_leader: bool,
) {
    let grant = p.grant.borrow().clone();
    if let Some(g) = grant.filter(|g| !g.closed.get()) {
        revoke_grant(b, p, &g, ErrorCode::FencedEpoch);
    }
    p.apply_leadership(epoch, leader, followers, is_leader);
    if is_leader {
        // Promoted follower: serve from the local log. The HW learned from
        // the old leader stays put until the new ISR acks past it.
        p.push_started.set(false);
        advance_rf1_hw(b, p);
    }
    start_replication(b, p);
    // Wake any replication task parked on the LEO watch so it observes the
    // epoch change and exits.
    p.announce_leo();
}
