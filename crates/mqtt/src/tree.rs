//! Subscription trie: maps topic names to the set of matching
//! subscriptions without scanning every filter.
//!
//! Each node of the trie is one topic level; `+` and `#` are stored as
//! dedicated children. Matching walks the trie level by level, branching
//! into literal, `+` and `#` children, which makes a lookup proportional
//! to the number of levels times the branching of wildcards actually
//! present — not to the total number of subscriptions.

use std::collections::btree_map::BTreeMap;
use std::sync::Arc;

use crate::packet::QoS;
use crate::topic::{TopicFilter, TopicName};

/// One stored subscription: the subscriber key and its granted QoS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription<K> {
    /// Subscriber key (client id in the broker).
    pub key: K,
    /// Granted maximum QoS for this subscription.
    pub qos: QoS,
}

#[derive(Debug)]
struct Node<K> {
    children: BTreeMap<String, Node<K>>,
    subscribers: Vec<Subscription<K>>,
}

impl<K> Default for Node<K> {
    fn default() -> Self {
        Node {
            children: BTreeMap::new(),
            subscribers: Vec::new(),
        }
    }
}

impl<K: Ord + Clone> Node<K> {
    fn is_empty(&self) -> bool {
        self.children.is_empty() && self.subscribers.is_empty()
    }

    fn prune(&mut self) {
        self.children.retain(|_, child| {
            child.prune();
            !child.is_empty()
        });
    }
}

/// A trie of topic filters with per-subscriber granted QoS.
///
/// ```
/// use ifot_mqtt::packet::QoS;
/// use ifot_mqtt::topic::{TopicFilter, TopicName};
/// use ifot_mqtt::tree::SubscriptionTree;
///
/// let mut tree: SubscriptionTree<&'static str> = SubscriptionTree::new();
/// tree.subscribe("e", &TopicFilter::new("sensor/#")?, QoS::AtLeastOnce);
/// let hits = tree.matches(&TopicName::new("sensor/a")?);
/// assert_eq!(hits.len(), 1);
/// assert_eq!(hits[0].key, "e");
/// # Ok::<(), ifot_mqtt::error::TopicError>(())
/// ```
///
/// A lookup walks the trie every time; nothing is memoised, so the tree
/// is `Sync` and a lookup into a list the caller keeps
/// ([`matches_into`](Self::matches_into)) allocates nothing once the list
/// has room.
#[derive(Debug)]
pub struct SubscriptionTree<K> {
    root: Node<K>,
    len: usize,
}

impl<K> Default for SubscriptionTree<K> {
    fn default() -> Self {
        SubscriptionTree {
            root: Node::default(),
            len: 0,
        }
    }
}

impl<K: Ord + Clone> SubscriptionTree<K> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored (key, filter) subscriptions.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no subscription is stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts or updates the subscription of `key` under `filter`,
    /// returning the previous QoS if the subscription already existed.
    pub fn subscribe(&mut self, key: K, filter: &TopicFilter, qos: QoS) -> Option<QoS> {
        let mut node = &mut self.root;
        for level in filter.levels() {
            node = node.children.entry(level.to_owned()).or_default();
        }
        if let Some(existing) = node.subscribers.iter_mut().find(|s| s.key == key) {
            let old = existing.qos;
            existing.qos = qos;
            Some(old)
        } else {
            node.subscribers.push(Subscription { key, qos });
            self.len += 1;
            None
        }
    }

    /// Removes the subscription of `key` under `filter`; returns whether
    /// it existed. Only the nodes on the filter's path are visited, and
    /// each one the removal empties is dropped on the way back up.
    pub fn unsubscribe(&mut self, key: &K, filter: &TopicFilter) -> bool {
        fn remove<'a, K: Ord + Clone>(
            node: &mut Node<K>,
            mut levels: impl Iterator<Item = &'a str>,
            key: &K,
        ) -> bool {
            let Some(level) = levels.next() else {
                let before = node.subscribers.len();
                node.subscribers.retain(|s| &s.key != key);
                return node.subscribers.len() != before;
            };
            let Some(child) = node.children.get_mut(level) else {
                return false;
            };
            let removed = remove(child, levels, key);
            if removed && child.is_empty() {
                node.children.remove(level);
            }
            removed
        }
        let removed = remove(&mut self.root, filter.levels(), key);
        if removed {
            self.len -= 1;
        }
        removed
    }

    /// Removes every subscription of `key`; returns how many were removed.
    pub fn remove_key(&mut self, key: &K) -> usize {
        fn walk<K: Ord>(node: &mut Node<K>, key: &K) -> usize {
            let before = node.subscribers.len();
            node.subscribers.retain(|s| &s.key != key);
            let mut removed = before - node.subscribers.len();
            for child in node.children.values_mut() {
                removed += walk(child, key);
            }
            removed
        }
        let removed = walk(&mut self.root, key);
        self.len -= removed;
        self.root.prune();
        removed
    }

    /// All subscriptions whose filter matches `topic`, in a fresh list
    /// (see [`matches_into`](Self::matches_into)).
    pub fn matches(&self, topic: &TopicName) -> Vec<Subscription<K>> {
        let mut out = Vec::new();
        self.matches_into(topic, &mut out);
        out
    }

    /// [`matches`](Self::matches) as a shared slice: the form
    /// `ifot-flowbench`'s replay times (`mqtt.tree.match_*_ns`).
    pub fn matches_shared(&self, topic: &TopicName) -> Arc<[Subscription<K>]> {
        self.matches(topic).into()
    }

    /// Replaces the contents of `out` with every subscription whose filter
    /// matches `topic`. A subscriber matching through several filters
    /// appears once, with the maximum granted QoS (the
    /// overlapping-subscription rule brokers apply), and the list is in
    /// key order. Allocates only when `out` must grow.
    pub fn matches_into(&self, topic: &TopicName, out: &mut Vec<Subscription<K>>) {
        out.clear();
        let name = topic.as_str();
        // Walk the trie over `split('/')` positions directly — no
        // intermediate level Vec — then dedup in place.
        collect(&self.root, Some(name), true, name.starts_with('$'), out);
        // Sort ascending by key, descending QoS within a key, so the first
        // element kept per key carries the maximum granted QoS. Equal
        // elements are interchangeable, so the in-place unstable sort
        // gives the order a stable one would, without a buffer.
        out.sort_unstable_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then_with(|| (b.qos as u8).cmp(&(a.qos as u8)))
        });
        out.dedup_by(|next, kept| next.key == kept.key);
    }
}

/// Trie walk over the unconsumed topic suffix. `remainder` is `None` once
/// every level is consumed; `Some(s)` holds the rest of the topic string
/// (its first `/`-separated segment is the current level, so no level
/// vector is ever materialised).
fn collect<K: Ord + Clone>(
    node: &Node<K>,
    remainder: Option<&str>,
    at_root: bool,
    skip_wildcard_root: bool,
    out: &mut Vec<Subscription<K>>,
) {
    let rem = match remainder {
        None => {
            out.extend(node.subscribers.iter().cloned());
            // "a/#" also matches "a": a trailing "#" child matches the parent.
            if let Some(hash) = node.children.get("#") {
                if !(skip_wildcard_root && at_root) {
                    out.extend(hash.subscribers.iter().cloned());
                }
            }
            return;
        }
        Some(rem) => rem,
    };
    let (level, rest) = match rem.find('/') {
        Some(i) => (&rem[..i], Some(&rem[i + 1..])),
        None => (rem, None),
    };
    if let Some(child) = node.children.get(level) {
        collect(child, rest, false, skip_wildcard_root, out);
    }
    let wildcards_allowed = !(skip_wildcard_root && at_root);
    if wildcards_allowed {
        if let Some(plus) = node.children.get("+") {
            collect(plus, rest, false, skip_wildcard_root, out);
        }
        if let Some(hash) = node.children.get("#") {
            out.extend(hash.subscribers.iter().cloned());
        }
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

    fn keys(tree: &SubscriptionTree<&'static str>, topic: &str) -> Vec<&'static str> {
        tree.matches(&name(topic))
            .into_iter()
            .map(|s| s.key)
            .collect()
    }

    #[test]
    fn exact_and_wildcard_matching() {
        let mut t = SubscriptionTree::new();
        t.subscribe("exact", &filter("a/b"), QoS::AtMostOnce);
        t.subscribe("plus", &filter("a/+"), QoS::AtMostOnce);
        t.subscribe("hash", &filter("a/#"), QoS::AtMostOnce);
        t.subscribe("other", &filter("x/y"), QoS::AtMostOnce);
        assert_eq!(keys(&t, "a/b"), vec!["exact", "hash", "plus"]);
        assert_eq!(keys(&t, "a/c"), vec!["hash", "plus"]);
        assert_eq!(keys(&t, "a/b/c"), vec!["hash"]);
        assert_eq!(keys(&t, "a"), vec!["hash"]);
        assert_eq!(keys(&t, "q"), Vec::<&str>::new());
    }

    #[test]
    fn overlapping_subscriptions_dedupe_with_max_qos() {
        let mut t = SubscriptionTree::new();
        t.subscribe("e", &filter("s/#"), QoS::AtMostOnce);
        t.subscribe("e", &filter("s/a"), QoS::AtLeastOnce);
        let hits = t.matches(&name("s/a"));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].qos, QoS::AtLeastOnce);
    }

    #[test]
    fn resubscribe_updates_qos() {
        let mut t = SubscriptionTree::new();
        assert_eq!(t.subscribe("e", &filter("a"), QoS::AtMostOnce), None);
        assert_eq!(
            t.subscribe("e", &filter("a"), QoS::AtLeastOnce),
            Some(QoS::AtMostOnce)
        );
        assert_eq!(t.len(), 1);
        assert_eq!(t.matches(&name("a"))[0].qos, QoS::AtLeastOnce);
    }

    #[test]
    fn unsubscribe_removes_only_that_filter() {
        let mut t = SubscriptionTree::new();
        t.subscribe("e", &filter("a/+"), QoS::AtMostOnce);
        t.subscribe("e", &filter("a/b"), QoS::AtMostOnce);
        assert!(t.unsubscribe(&"e", &filter("a/+")));
        assert!(!t.unsubscribe(&"e", &filter("a/+")));
        assert_eq!(t.len(), 1);
        assert_eq!(keys(&t, "a/b"), vec!["e"]);
        assert_eq!(keys(&t, "a/c"), Vec::<&str>::new());
    }

    #[test]
    fn remove_key_clears_everything_for_client() {
        let mut t = SubscriptionTree::new();
        t.subscribe("e", &filter("a/#"), QoS::AtMostOnce);
        t.subscribe("e", &filter("b"), QoS::AtMostOnce);
        t.subscribe("f", &filter("b"), QoS::AtMostOnce);
        assert_eq!(t.remove_key(&"e"), 2);
        assert_eq!(t.len(), 1);
        assert_eq!(keys(&t, "b"), vec!["f"]);
    }

    #[test]
    fn dollar_topics_not_matched_by_leading_wildcards() {
        let mut t = SubscriptionTree::new();
        t.subscribe("hash", &filter("#"), QoS::AtMostOnce);
        t.subscribe("plus", &filter("+/x"), QoS::AtMostOnce);
        t.subscribe("sys", &filter("$SYS/#"), QoS::AtMostOnce);
        assert_eq!(keys(&t, "$SYS/x"), vec!["sys"]);
        assert_eq!(keys(&t, "normal/x"), vec!["hash", "plus"]);
    }

    #[test]
    fn empty_tree_matches_nothing() {
        let t: SubscriptionTree<&str> = SubscriptionTree::new();
        assert!(t.is_empty());
        assert!(t.matches(&name("a")).is_empty());
    }

    #[test]
    fn pruning_keeps_tree_small_after_unsubscribes() {
        let mut t = SubscriptionTree::new();
        for i in 0..100 {
            t.subscribe(i, &filter(&format!("deep/{i}/leaf")), QoS::AtMostOnce);
        }
        for i in 0..100 {
            assert!(t.unsubscribe(&i, &filter(&format!("deep/{i}/leaf"))));
        }
        assert!(t.is_empty());
        assert!(t.root.children.is_empty(), "trie not pruned");
    }

    /// An unsubscribe drops the nodes it empties on its own path and
    /// leaves every sibling subtree as it was.
    #[test]
    fn unsubscribe_prunes_only_its_own_path() {
        let mut t = SubscriptionTree::new();
        t.subscribe("c", &filter("a/b/c"), QoS::AtMostOnce);
        t.subscribe("d", &filter("a/b/d/+"), QoS::AtMostOnce);
        t.subscribe("x", &filter("a/x"), QoS::AtMostOnce);
        t.subscribe("q", &filter("q/#"), QoS::AtMostOnce);

        assert!(t.unsubscribe(&"d", &filter("a/b/d/+")));
        assert_eq!(t.len(), 3);
        let b = &t.root.children["a"].children["b"];
        assert_eq!(b.children.keys().collect::<Vec<_>>(), ["c"], "d/+ pruned");
        assert_eq!(keys(&t, "a/b/c"), vec!["c"]);
        assert_eq!(keys(&t, "a/x"), vec!["x"]);
        assert_eq!(keys(&t, "q/r/s"), vec!["q"]);

        assert!(t.unsubscribe(&"c", &filter("a/b/c")));
        assert_eq!(t.len(), 2);
        let a = &t.root.children["a"];
        assert_eq!(a.children.keys().collect::<Vec<_>>(), ["x"], "a/b pruned");
        assert_eq!(keys(&t, "a/x"), vec!["x"]);

        // A miss, on a path or off it, changes nothing.
        assert!(!t.unsubscribe(&"c", &filter("a/x")));
        assert!(!t.unsubscribe(&"c", &filter("a/b/c")));
        assert_eq!(t.len(), 2);
        assert_eq!(t.root.children.keys().collect::<Vec<_>>(), ["a", "q"]);
    }

    #[test]
    fn mutations_show_in_the_next_lookup() {
        let mut t = SubscriptionTree::new();
        t.subscribe("e", &filter("a/#"), QoS::AtMostOnce);
        assert_eq!(t.matches(&name("a/b")).len(), 1);

        t.subscribe("f", &filter("a/b"), QoS::AtLeastOnce);
        assert_eq!(t.matches(&name("a/b")).len(), 2, "after subscribe");

        t.unsubscribe(&"f", &filter("a/b"));
        assert_eq!(t.matches(&name("a/b")).len(), 1, "after unsubscribe");

        t.remove_key(&"e");
        assert_eq!(t.matches(&name("a/b")).len(), 0, "after remove_key");
    }

    #[test]
    fn shared_and_owned_lookups_agree() {
        let mut t = SubscriptionTree::new();
        t.subscribe("exact", &filter("a/b"), QoS::AtMostOnce);
        t.subscribe("plus", &filter("a/+"), QoS::AtLeastOnce);
        t.subscribe("hash", &filter("#"), QoS::ExactlyOnce);
        // A kept list starts each lookup empty.
        let mut kept = vec![Subscription {
            key: "stale",
            qos: QoS::AtMostOnce,
        }];
        for topic in ["a/b", "a/c", "a", "x/y/z", "$SYS/x"] {
            t.matches_into(&name(topic), &mut kept);
            assert_eq!(t.matches(&name(topic)), kept, "topic {topic}");
            assert_eq!(
                t.matches_shared(&name(topic)).to_vec(),
                kept,
                "topic {topic}"
            );
        }
    }
}
