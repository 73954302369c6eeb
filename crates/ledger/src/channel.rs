//! Channel identity.
//!
//! A channel is Fabric's sharding unit: an independent chain with its own
//! ordering service, world state and history. [`ChannelId`] is the name a
//! channel goes by everywhere — proposals, envelopes, blocks, commit
//! events, metrics. It is backed by a shared `Arc<str>` so cloning one on
//! the hot submit path costs a refcount bump, not an allocation.

use std::fmt;
use std::sync::Arc;

/// Name of the channel a single-channel deployment uses. Kept identical to
/// the pre-sharding hard-wired name so degenerate deployments stay
/// byte-compatible (proposal encodings, and hence tx ids, include the
/// channel name).
pub const DEFAULT_CHANNEL: &str = "hyperprov-channel";

/// A channel name, cheap to clone (`Arc<str>`-backed) and usable as a map
/// key everywhere a per-channel resource is indexed.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(Arc<str>);

impl ChannelId {
    /// Creates a channel id from a name.
    pub fn new(name: impl AsRef<str>) -> Self {
        ChannelId(Arc::from(name.as_ref()))
    }

    /// The channel name.
    pub fn as_str(&self) -> &str {
        &self.0
    }

    /// True for the single-channel default name. Metric and span names
    /// stay un-namespaced for the default channel so single-channel runs
    /// remain byte-identical to the pre-sharding exports.
    pub fn is_default(&self) -> bool {
        self.as_str() == DEFAULT_CHANNEL
    }

    /// Namespaces a trace name by channel: `block-3` on the default
    /// channel, `<channel>/block-3` elsewhere.
    pub fn trace_name(&self, base: &str) -> String {
        if self.is_default() {
            base.to_owned()
        } else {
            format!("{}/{base}", self.as_str())
        }
    }

    /// Namespaces a metric name by channel: `orderer.blocks_cut` on the
    /// default channel, `orderer.<channel>.blocks_cut` elsewhere.
    pub fn metric_name(&self, prefix: &str, suffix: &str) -> String {
        if self.is_default() {
            format!("{prefix}.{suffix}")
        } else {
            format!("{prefix}.{}.{suffix}", self.as_str())
        }
    }
}

impl Default for ChannelId {
    fn default() -> Self {
        ChannelId::new(DEFAULT_CHANNEL)
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Debug for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ChannelId({:?})", self.as_str())
    }
}

impl From<&str> for ChannelId {
    fn from(name: &str) -> Self {
        ChannelId::new(name)
    }
}

impl From<String> for ChannelId {
    fn from(name: String) -> Self {
        ChannelId(Arc::from(name))
    }
}

impl AsRef<str> for ChannelId {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<str> for ChannelId {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}

impl PartialEq<&str> for ChannelId {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_channel_matches_legacy_name() {
        let id = ChannelId::default();
        assert!(id.is_default());
        assert_eq!(id.as_str(), "hyperprov-channel");
        assert_eq!(id, "hyperprov-channel");
        assert!(!ChannelId::new("hyperprov-channel-0").is_default());
    }

    #[test]
    fn clone_shares_the_backing_allocation() {
        let a = ChannelId::new("ch");
        let b = a.clone();
        assert!(Arc::ptr_eq(&a.0, &b.0));
    }

    #[test]
    fn namespacing_is_identity_on_the_default_channel() {
        let d = ChannelId::default();
        assert_eq!(d.trace_name("block-3"), "block-3");
        assert_eq!(d.metric_name("orderer", "blocks_cut"), "orderer.blocks_cut");
        let c = ChannelId::new("shard-1");
        assert_eq!(c.trace_name("block-3"), "shard-1/block-3");
        assert_eq!(
            c.metric_name("orderer", "blocks_cut"),
            "orderer.shard-1.blocks_cut"
        );
    }

    #[test]
    fn ordering_and_equality_follow_the_name() {
        let a = ChannelId::new("a");
        let b = ChannelId::new("b");
        assert!(a < b);
        assert_eq!(a, ChannelId::new("a"));
    }
}
