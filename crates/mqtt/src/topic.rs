//! Topic names and subscription filters, with MQTT 3.1.1 wildcard
//! semantics.
//!
//! * A **topic name** is what messages are published to: `sensor/a/accel`.
//!   It may not contain wildcards.
//! * A **topic filter** is what clients subscribe with. `+` matches exactly
//!   one level, `#` (only at the end) matches any number of remaining
//!   levels including zero.
//!
//! Per the spec, leading-`$` topics (`$SYS/...`) are not matched by filters
//! starting with a wildcard.

use core::fmt;
use std::sync::Arc;

use crate::error::TopicError;

const MAX_TOPIC_BYTES: usize = 65_535;

fn validate_common(s: &str) -> Result<(), TopicError> {
    if s.is_empty() {
        return Err(TopicError::Empty);
    }
    if s.len() > MAX_TOPIC_BYTES {
        return Err(TopicError::TooLong);
    }
    if s.contains('\0') {
        return Err(TopicError::NulCharacter);
    }
    Ok(())
}

/// FNV-1a over `bytes`: the hash behind [`crate::shard::shard_of`] (stable
/// across processes) and the stream decoder's name table.
pub(crate) fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(*b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A validated topic name (no wildcards).
///
/// The name is a shared string: a clone bumps a reference count, so a
/// topic validated once (a sensor's, or one decoded off a frame) travels
/// through publish, routing, in-flight state and dispatch without being
/// copied again.
///
/// ```
/// use ifot_mqtt::topic::TopicName;
///
/// let t = TopicName::new("sensor/a/accel")?;
/// assert_eq!(t.as_str(), "sensor/a/accel");
/// assert!(TopicName::new("sensor/+/accel").is_err());
/// # Ok::<(), ifot_mqtt::error::TopicError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicName(Arc<str>);

impl TopicName {
    /// Validates a topic name and copies it into its shared form (the
    /// one allocation; nothing is allocated for a rejected name).
    ///
    /// # Errors
    ///
    /// Returns [`TopicError`] if the name is empty, contains NUL or a
    /// wildcard character, or exceeds 65535 bytes.
    pub fn new(s: impl AsRef<str>) -> Result<Self, TopicError> {
        let s = s.as_ref();
        validate_common(s)?;
        if s.contains('+') || s.contains('#') {
            return Err(TopicError::WildcardInName);
        }
        Ok(TopicName(Arc::from(s)))
    }

    /// The topic as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterates over the `/`-separated levels.
    pub fn levels(&self) -> impl Iterator<Item = &str> {
        self.0.split('/')
    }

    /// Consumes the name, returning the shared string.
    pub fn into_shared(self) -> Arc<str> {
        self.0
    }
}

impl fmt::Display for TopicName {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for TopicName {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl core::str::FromStr for TopicName {
    type Err = TopicError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TopicName::new(s)
    }
}

/// A validated subscription filter (may contain `+` and `#`).
///
/// ```
/// use ifot_mqtt::topic::{TopicFilter, TopicName};
///
/// let f = TopicFilter::new("sensor/+/accel")?;
/// assert!(f.matches(&TopicName::new("sensor/a/accel")?));
/// assert!(!f.matches(&TopicName::new("sensor/a/gyro")?));
/// # Ok::<(), ifot_mqtt::error::TopicError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TopicFilter(String);

impl TopicFilter {
    /// Validates and wraps a subscription filter.
    ///
    /// # Errors
    ///
    /// Returns [`TopicError`] if the filter is empty, contains NUL,
    /// exceeds 65535 bytes, or misuses a wildcard (`#` not last / not a
    /// whole level, `+` not a whole level).
    pub fn new(s: impl Into<String>) -> Result<Self, TopicError> {
        let s = s.into();
        validate_common(&s)?;
        let levels: Vec<&str> = s.split('/').collect();
        for (i, level) in levels.iter().enumerate() {
            if level.contains('#') {
                if *level != "#" {
                    return Err(TopicError::InvalidMultiLevelWildcard);
                }
                if i != levels.len() - 1 {
                    return Err(TopicError::InvalidMultiLevelWildcard);
                }
            }
            if level.contains('+') && *level != "+" {
                return Err(TopicError::InvalidSingleLevelWildcard);
            }
        }
        Ok(TopicFilter(s))
    }

    /// The filter as a string slice.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// Iterates over the `/`-separated levels.
    pub fn levels(&self) -> impl Iterator<Item = &str> {
        self.0.split('/')
    }

    /// Consumes the filter, returning the inner string.
    pub fn into_inner(self) -> String {
        self.0
    }

    /// Whether this filter matches the given topic name, per the MQTT
    /// 3.1.1 wildcard rules (including the `$`-topic exception).
    pub fn matches(&self, topic: &TopicName) -> bool {
        // Filters starting with a wildcard do not match $-topics.
        if topic.as_str().starts_with('$') && (self.0.starts_with('+') || self.0.starts_with('#')) {
            return false;
        }
        let mut filter_levels = self.0.split('/');
        let mut topic_levels = topic.as_str().split('/');
        loop {
            match (filter_levels.next(), topic_levels.next()) {
                (Some("#"), _) => return true,
                (Some("+"), Some(_)) => continue,
                (Some(f), Some(t)) if f == t => continue,
                (Some(_), Some(_)) => return false,
                // Filter longer than topic: only a trailing "#" matches the
                // parent, and that case was consumed by the first arm.
                (Some(_), None) => return false,
                (None, Some(_)) => return false,
                (None, None) => return true,
            }
        }
    }
}

impl fmt::Display for TopicFilter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl AsRef<str> for TopicFilter {
    fn as_ref(&self) -> &str {
        &self.0
    }
}

impl core::str::FromStr for TopicFilter {
    type Err = TopicError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        TopicFilter::new(s)
    }
}

impl From<TopicName> for TopicFilter {
    fn from(name: TopicName) -> Self {
        // Every valid topic name is a valid (wildcard-free) filter.
        TopicFilter(name.as_str().to_owned())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> TopicName {
        TopicName::new(s).expect("valid name")
    }

    fn filter(s: &str) -> TopicFilter {
        TopicFilter::new(s).expect("valid filter")
    }

    #[test]
    fn name_validation() {
        assert!(TopicName::new("a/b/c").is_ok());
        assert!(TopicName::new("/leading").is_ok());
        assert!(TopicName::new("trailing/").is_ok());
        assert!(TopicName::new("with space/ok").is_ok());
        assert_eq!(TopicName::new(""), Err(TopicError::Empty));
        assert_eq!(TopicName::new("a/+/c"), Err(TopicError::WildcardInName));
        assert_eq!(TopicName::new("a/#"), Err(TopicError::WildcardInName));
        assert_eq!(TopicName::new("a\0b"), Err(TopicError::NulCharacter));
    }

    #[test]
    fn filter_validation() {
        assert!(TopicFilter::new("a/b/c").is_ok());
        assert!(TopicFilter::new("#").is_ok());
        assert!(TopicFilter::new("a/#").is_ok());
        assert!(TopicFilter::new("+/+/+").is_ok());
        assert_eq!(TopicFilter::new(""), Err(TopicError::Empty));
        assert_eq!(
            TopicFilter::new("a/#/b"),
            Err(TopicError::InvalidMultiLevelWildcard)
        );
        assert_eq!(
            TopicFilter::new("a/b#"),
            Err(TopicError::InvalidMultiLevelWildcard)
        );
        assert_eq!(
            TopicFilter::new("a/b+/c"),
            Err(TopicError::InvalidSingleLevelWildcard)
        );
    }

    #[test]
    fn exact_match() {
        assert!(filter("a/b/c").matches(&name("a/b/c")));
        assert!(!filter("a/b/c").matches(&name("a/b")));
        assert!(!filter("a/b").matches(&name("a/b/c")));
        assert!(!filter("a/b/c").matches(&name("a/b/d")));
    }

    #[test]
    fn single_level_wildcard() {
        assert!(filter("a/+/c").matches(&name("a/b/c")));
        assert!(filter("a/+/c").matches(&name("a/x/c")));
        assert!(!filter("a/+/c").matches(&name("a/b/d")));
        assert!(!filter("a/+").matches(&name("a/b/c")));
        assert!(filter("+").matches(&name("a")));
        assert!(!filter("+").matches(&name("a/b")));
        // "+" matches an empty level.
        assert!(filter("a/+/c").matches(&name("a//c")));
    }

    #[test]
    fn multi_level_wildcard() {
        assert!(filter("#").matches(&name("a")));
        assert!(filter("#").matches(&name("a/b/c")));
        assert!(filter("a/#").matches(&name("a/b")));
        assert!(filter("a/#").matches(&name("a/b/c/d")));
        assert!(!filter("a/#").matches(&name("b/c")));
        // Per spec, "a/#" also matches the parent "a".
        assert!(filter("a/#").matches(&name("a")));
    }

    #[test]
    fn parent_match_via_hash_only() {
        // "sport/tennis/player1/#" matches "sport/tennis/player1".
        assert!(filter("sport/tennis/player1/#").matches(&name("sport/tennis/player1")));
        assert!(!filter("sport/tennis/player1/+").matches(&name("sport/tennis/player1")));
    }

    #[test]
    fn dollar_topics_hidden_from_leading_wildcards() {
        assert!(!filter("#").matches(&name("$SYS/broker/load")));
        assert!(!filter("+/broker/load").matches(&name("$SYS/broker/load")));
        assert!(filter("$SYS/#").matches(&name("$SYS/broker/load")));
        assert!(filter("$SYS/broker/load").matches(&name("$SYS/broker/load")));
    }

    #[test]
    fn name_converts_to_filter() {
        let f: TopicFilter = name("a/b").into();
        assert!(f.matches(&name("a/b")));
    }

    #[test]
    fn a_cloned_name_shares_its_string() {
        let t = name("sensor/1/sound");
        let shared = t.clone().into_shared();
        assert!(std::ptr::eq(shared.as_ptr(), t.as_str().as_ptr()));
    }

    #[test]
    fn from_str_parses() {
        let t: TopicName = "x/y".parse().expect("valid");
        assert_eq!(t.as_str(), "x/y");
        let f: TopicFilter = "x/#".parse().expect("valid");
        assert_eq!(f.as_str(), "x/#");
    }

    #[test]
    fn levels_iterate() {
        let t = name("a/b/c");
        assert_eq!(t.levels().collect::<Vec<_>>(), vec!["a", "b", "c"]);
        let f = filter("a/+/#");
        assert_eq!(f.levels().count(), 3);
    }

    #[test]
    fn display_round_trips() {
        assert_eq!(name("a/b").to_string(), "a/b");
        assert_eq!(filter("a/#").to_string(), "a/#");
    }
}
