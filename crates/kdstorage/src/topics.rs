//! Topic and partition naming.

use std::borrow::Borrow;
use std::fmt;
use std::rc::Rc;

/// Interned topic name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicId(pub Rc<str>);

impl TopicId {
    pub fn new(name: &str) -> Self {
        TopicId(Rc::from(name))
    }

    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for TopicId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

/// A map keyed by topic id is looked up by name: the id hashes and compares
/// as its string.
impl Borrow<str> for TopicId {
    fn borrow(&self) -> &str {
        &self.0
    }
}

impl From<&str> for TopicId {
    fn from(s: &str) -> Self {
        TopicId::new(s)
    }
}

/// Partition number within a topic.
pub type PartitionId = u32;

/// A topic partition — the unit of ordering, replication, and RDMA access
/// grants (paper §3, "Kafka Topics").
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TopicPartition {
    pub topic: TopicId,
    pub partition: PartitionId,
}

impl TopicPartition {
    pub fn new(topic: impl Into<TopicId>, partition: PartitionId) -> Self {
        TopicPartition {
            topic: topic.into(),
            partition,
        }
    }
}

impl fmt::Display for TopicPartition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.topic, self.partition)
    }
}

impl From<(&str, u32)> for TopicPartition {
    fn from((t, p): (&str, u32)) -> Self {
        TopicPartition::new(t, p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn display_matches_kafka_convention() {
        let tp = TopicPartition::new("events", 3);
        assert_eq!(tp.to_string(), "events-3");
    }

    #[test]
    fn usable_as_map_key() {
        let mut set = HashSet::new();
        set.insert(TopicPartition::new("a", 0));
        set.insert(TopicPartition::new("a", 0));
        set.insert(TopicPartition::new("a", 1));
        assert_eq!(set.len(), 2);
    }
}
