//! [`TopicName`]: the topic field of every request. A name of at most
//! [`TopicName::INLINE`] bytes — every name the workloads use — lives in the
//! value itself, so decoding a request or keeping one to re-send allocates
//! nothing for it; a longer one is boxed. The wire encoding is a string's.

use std::fmt;
use std::ops::Deref;

use kdstorage::codec::{Reader, WireError, Writer};
use sim::rng::SimRng;

use crate::messages::Wire;

/// A topic or consumer-group name, no bigger than the `String` it replaces.
/// Equal names have equal representations: the variant follows from the
/// length, and inline bytes past it are zero.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TopicName(Repr);

#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    Inline {
        len: u8,
        bytes: [u8; TopicName::INLINE],
    },
    Boxed(Box<str>),
}

const _: () = assert!(std::mem::size_of::<TopicName>() <= std::mem::size_of::<String>());

impl TopicName {
    /// The longest name held inline.
    pub const INLINE: usize = 22;

    pub fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, bytes } => std::str::from_utf8(&bytes[..usize::from(*len)])
                .expect("`From<&str>` copied a whole `str`"),
            Repr::Boxed(name) => name,
        }
    }
}

impl From<&str> for TopicName {
    fn from(name: &str) -> Self {
        if name.len() > Self::INLINE {
            return TopicName(Repr::Boxed(name.into()));
        }
        let mut bytes = [0; Self::INLINE];
        bytes[..name.len()].copy_from_slice(name.as_bytes());
        TopicName(Repr::Inline {
            len: name.len() as u8,
            bytes,
        })
    }
}

impl Deref for TopicName {
    type Target = str;

    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for TopicName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl Wire for TopicName {
    const MIN_LEN: usize = String::MIN_LEN;

    fn put(&self, w: &mut Writer) {
        w.put_string(self);
    }

    fn get(r: &mut Reader) -> Result<Self, WireError> {
        r.get_str().map(TopicName::from)
    }

    fn arb(rng: &mut SimRng) -> Self {
        String::arb(rng).as_str().into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_name_is_inline_up_to_22_bytes_and_encodes_as_a_string() {
        for name in [
            "",
            "t",
            "events",
            "a-topic-name-of-22-b.x",
            "a-topic-name-of-23-by.x",
        ] {
            let topic = TopicName::from(name);
            assert_eq!(&*topic, name);
            assert_eq!(
                matches!(topic.0, Repr::Inline { .. }),
                name.len() <= TopicName::INLINE,
                "{name:?}"
            );
            assert_eq!(format!("{topic:?}"), format!("{name:?}"));
            let (mut a, mut b) = (Writer::new(), Writer::new());
            topic.put(&mut a);
            name.to_string().put(&mut b);
            assert_eq!(a.as_slice(), b.as_slice());
            let decoded = TopicName::get(&mut Reader::new(a.as_slice()));
            assert_eq!(decoded.as_deref(), Ok(name));
        }
    }
}
