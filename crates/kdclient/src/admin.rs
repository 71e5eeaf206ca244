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
        let topic = topic.to_string();
        let request = Request::CreateTopic { topic, partitions, replication };
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
        let Response::Metadata { error, brokers, topics } =
            self.conn.call(&Request::Metadata { topics }).await?
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
        let (group, topic) = (group.to_string(), topic.to_string());
        let request = Request::OffsetCommit { group, topic, partition, offset };
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
        let (group, topic) = (group.to_string(), topic.to_string());
        let request = Request::OffsetFetch { group, topic, partition };
        let Response::OffsetFetch { error, offset } = self.conn.call(&request).await? else {
            return Err(ClientError::Protocol);
        };
        check(error)?;
        Ok((offset != u64::MAX).then_some(offset))
    }

    /// Fetches the broker's telemetry snapshot (counters, gauges, latency
    /// histograms) over the admin path as a parsed [`kdtelem::TelemetryReport`].
    pub async fn telemetry(&self) -> Result<kdtelem::TelemetryReport, ClientError> {
        let Response::Telemetry { error, json } = self.conn.call(&Request::Telemetry).await? else {
            return Err(ClientError::Protocol);
        };
        check(error)?;
        kdtelem::TelemetryReport::from_json_lines(&json).ok_or(ClientError::Protocol)
    }

    /// Fetches the broker's virtual-time time-series recording (every
    /// counter/gauge/histogram sampled on a fixed virtual-time grid) as a
    /// parsed [`kdtelem::SeriesDump`]. Errors with
    /// [`ClientError::Broker`] (`NotSupported`) when the broker runs
    /// without a sampler (`BrokerConfig::observe` unset).
    pub async fn series(&self) -> Result<kdtelem::SeriesDump, ClientError> {
        let Response::Series { error, json } = self.conn.call(&Request::Series).await? else {
            return Err(ClientError::Protocol);
        };
        check(error)?;
        kdtelem::SeriesDump::from_json_lines(&json).ok_or(ClientError::Protocol)
    }

    /// Fetches the broker's health-watchdog event log (stalls, recoveries,
    /// MTTR measurements). Errors with [`ClientError::Broker`]
    /// (`NotSupported`) when the broker runs without a watchdog.
    pub async fn health(&self) -> Result<Vec<kdtelem::HealthEvent>, ClientError> {
        let Response::Health { error, json } = self.conn.call(&Request::Health).await? else {
            return Err(ClientError::Protocol);
        };
        check(error)?;
        kdtelem::health::from_json_lines(&json).ok_or(ClientError::Protocol)
    }

    /// Earliest/latest (high watermark) offsets of a partition.
    pub async fn list_offsets(&self, topic: &str, partition: u32) -> Result<(u64, u64), ClientError> {
        let request = Request::ListOffsets { topic: topic.to_string(), partition };
        let Response::ListOffsets { error, earliest, latest } = self.conn.call(&request).await?
        else {
            return Err(ClientError::Protocol);
        };
        check(error)?;
        Ok((earliest, latest))
    }
}
