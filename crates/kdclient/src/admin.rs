//! Administrative client: topic creation and metadata discovery.

use kdwire::{BrokerAddr, Request, Response, TopicMeta};
use netsim::NodeHandle;

use crate::conn::{ClientTransport, Conn};
use crate::error::{check, ClientError};

/// Admin client bound to one bootstrap broker.
pub struct Admin {
    conn: Conn,
}

impl Admin {
    pub async fn connect(node: &NodeHandle, broker: BrokerAddr) -> Result<Admin, ClientError> {
        Ok(Admin {
            conn: Conn::connect(node, broker, ClientTransport::Tcp).await?,
        })
    }

    /// Creates a topic with `partitions` partitions replicated `replication`
    /// times (leader included).
    pub async fn create_topic(
        &self,
        topic: &str,
        partitions: u32,
        replication: u32,
    ) -> Result<(), ClientError> {
        let request = Request::CreateTopic {
            topic: topic.into(),
            partitions,
            replication,
        };
        let Response::CreateTopic { error } = self.conn.call(&request).await? else {
            return Err(ClientError::Protocol);
        };
        check(error)
    }

    /// Fetches metadata; empty `topics` lists everything.
    pub async fn metadata(
        &self,
        topics: &[&str],
    ) -> Result<(Vec<BrokerAddr>, Vec<TopicMeta>), ClientError> {
        let topics = topics.iter().map(|t| t.to_string()).collect();
        let Response::Metadata {
            error,
            brokers,
            topics,
        } = self.conn.call(&Request::Metadata { topics }).await?
        else {
            return Err(ClientError::Protocol);
        };
        check(error)?;
        Ok((brokers, topics))
    }

    /// Resolves the leader of a topic partition.
    pub async fn leader_of(&self, topic: &str, partition: u32) -> Result<BrokerAddr, ClientError> {
        crate::data_plane::leader_of(&self.conn, topic, partition).await
    }

    /// Commits a consumer-group offset (over TCP, as in §5.4).
    pub async fn commit_offset(
        &self,
        group: &str,
        topic: &str,
        partition: u32,
        offset: u64,
    ) -> Result<(), ClientError> {
        let request = Request::OffsetCommit {
            group: group.into(),
            topic: topic.into(),
            partition,
            offset,
        };
        let Response::OffsetCommit { error } = self.conn.call(&request).await? else {
            return Err(ClientError::Protocol);
        };
        check(error)
    }

    /// Fetches a committed consumer-group offset (`None` if absent).
    pub async fn fetch_offset(
        &self,
        group: &str,
        topic: &str,
        partition: u32,
    ) -> Result<Option<u64>, ClientError> {
        let request = Request::OffsetFetch {
            group: group.into(),
            topic: topic.into(),
            partition,
        };
        let Response::OffsetFetch { error, offset } = self.conn.call(&request).await? else {
            return Err(ClientError::Protocol);
        };
        check(error)?;
        Ok((offset != u64::MAX).then_some(offset))
    }

    /// Earliest/latest (high watermark) offsets of a partition.
    pub async fn list_offsets(
        &self,
        topic: &str,
        partition: u32,
    ) -> Result<(u64, u64), ClientError> {
        let request = Request::ListOffsets {
            topic: topic.into(),
            partition,
        };
        let Response::ListOffsets {
            error,
            earliest,
            latest,
        } = self.conn.call(&request).await?
        else {
            return Err(ClientError::Protocol);
        };
        check(error)?;
        Ok((earliest, latest))
    }
}
