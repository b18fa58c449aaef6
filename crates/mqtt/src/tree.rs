//! Subscription trie: maps topic names to the set of matching
//! subscriptions without scanning every filter.
//!
//! Each node of the trie is one topic level; `+` and `#` are stored as
//! dedicated children. Matching walks the trie level by level, branching
//! into literal, `+` and `#` children, which makes a lookup proportional
//! to the number of levels times the branching of wildcards actually
//! present — not to the total number of subscriptions.

use std::cell::RefCell;
use std::collections::btree_map::BTreeMap;
use std::collections::HashMap;
use std::sync::Arc;

use crate::packet::QoS;
use crate::topic::{TopicFilter, TopicName};

/// Maximum number of memoised topic lookups kept in the match cache.
/// The broker's steady-state workload cycles over a bounded set of sensor
/// topics; the cap only guards against unbounded adversarial topic churn.
const MATCH_CACHE_CAP: usize = 1024;

/// A memoised lookup result, shared.
type Matches<K> = Arc<[Subscription<K>]>;

/// One stored subscription: the subscriber key and its granted QoS.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Subscription<K> {
    /// Subscriber key (client id in the broker).
    pub key: K,
    /// Granted maximum QoS for this subscription.
    pub qos: QoS,
}

#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
pub struct SubscriptionTree<K> {
    root: Node<K>,
    len: usize,
    /// Memoised lookup results keyed by topic name, shared as `Arc` slices
    /// so a cache hit is allocation-free. Invalidation rule: *every*
    /// mutating call ([`subscribe`](Self::subscribe),
    /// [`unsubscribe`](Self::unsubscribe), [`remove_key`](Self::remove_key))
    /// clears the whole cache — coarse, but mutations are rare next to
    /// per-publish lookups in the steady-state flow workload.
    /// The key is the looked-up topic's own shared string.
    cache: RefCell<HashMap<Arc<str>, Matches<K>>>,
}

impl<K> Default for SubscriptionTree<K> {
    fn default() -> Self {
        SubscriptionTree {
            root: Node::default(),
            len: 0,
            cache: RefCell::new(HashMap::new()),
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
        self.cache.get_mut().clear();
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
    /// it existed.
    pub fn unsubscribe(&mut self, key: &K, filter: &TopicFilter) -> bool {
        self.cache.get_mut().clear();
        let mut node = &mut self.root;
        for level in filter.levels() {
            match node.children.get_mut(level) {
                Some(child) => node = child,
                None => return false,
            }
        }
        let before = node.subscribers.len();
        node.subscribers.retain(|s| &s.key != key);
        let removed = node.subscribers.len() != before;
        if removed {
            self.len -= 1;
            self.root.prune();
        }
        removed
    }

    /// Removes every subscription of `key`; returns how many were removed.
    pub fn remove_key(&mut self, key: &K) -> usize {
        self.cache.get_mut().clear();
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

    /// All subscriptions whose filter matches `topic`. A subscriber
    /// matching through several filters appears once with the maximum
    /// granted QoS (the overlapping-subscription rule brokers apply).
    ///
    /// Convenience wrapper over [`matches_shared`](Self::matches_shared)
    /// that clones the shared result into an owned `Vec`.
    pub fn matches(&self, topic: &TopicName) -> Vec<Subscription<K>> {
        self.matches_shared(topic).to_vec()
    }

    /// Like [`matches`](Self::matches), but returns the memoised
    /// reference-counted result: a cache hit performs zero heap
    /// allocations (one `Arc` refcount bump). This is the broker's
    /// per-publish fast path — sensor flows publish the same few topics
    /// at high rate, so steady state is all hits.
    pub fn matches_shared(&self, topic: &TopicName) -> Arc<[Subscription<K>]> {
        let name = topic.as_str();
        if let Some(hit) = self.cache.borrow().get(name) {
            return Arc::clone(hit);
        }

        // Miss: walk the trie over `split('/')` positions directly — no
        // intermediate level Vec — then dedup in place.
        let mut raw: Vec<Subscription<K>> = Vec::new();
        collect(
            &self.root,
            Some(name),
            true,
            name.starts_with('$'),
            &mut raw,
        );

        // Deduplicate by key keeping the strongest QoS; sort ascending by
        // key (descending QoS within a key) so the retained first element
        // per key carries the maximum granted QoS, in deterministic order.
        raw.sort_by(|a, b| {
            a.key
                .cmp(&b.key)
                .then_with(|| (b.qos as u8).cmp(&(a.qos as u8)))
        });
        raw.dedup_by(|next, kept| next.key == kept.key);

        let shared: Arc<[Subscription<K>]> = raw.into();
        let mut cache = self.cache.borrow_mut();
        if cache.len() >= MATCH_CACHE_CAP {
            cache.clear();
        }
        cache.insert(topic.clone().into_shared(), Arc::clone(&shared));
        shared
    }

    /// Iterates over every stored (filter, key, qos) triple, mainly for
    /// introspection and tests. Filters are reconstructed from the trie
    /// into a single scratch buffer that grows and shrinks with the walk,
    /// instead of cloning every level string at every node.
    pub fn iter(&self) -> Vec<(String, K, QoS)> {
        fn walk<K: Clone>(node: &Node<K>, prefix: &mut String, out: &mut Vec<(String, K, QoS)>) {
            for sub in &node.subscribers {
                out.push((prefix.clone(), sub.key.clone(), sub.qos));
            }
            for (level, child) in &node.children {
                let saved = prefix.len();
                if !prefix.is_empty() {
                    prefix.push('/');
                }
                prefix.push_str(level);
                walk(child, prefix, out);
                prefix.truncate(saved);
            }
        }
        let mut out = Vec::new();
        let mut prefix = String::new();
        walk(&self.root, &mut prefix, &mut out);
        out
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
    fn iter_reconstructs_filters() {
        let mut t = SubscriptionTree::new();
        t.subscribe("e", &filter("a/+/c"), QoS::AtLeastOnce);
        t.subscribe("f", &filter("#"), QoS::AtMostOnce);
        let mut triples = t.iter();
        triples.sort();
        assert_eq!(
            triples,
            vec![
                ("#".to_owned(), "f", QoS::AtMostOnce),
                ("a/+/c".to_owned(), "e", QoS::AtLeastOnce),
            ]
        );
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

    #[test]
    fn repeated_lookup_hits_cache_without_reallocating() {
        let mut t = SubscriptionTree::new();
        t.subscribe("e", &filter("a/#"), QoS::AtMostOnce);
        let first = t.matches_shared(&name("a/b"));
        let second = t.matches_shared(&name("a/b"));
        assert!(
            Arc::ptr_eq(&first, &second),
            "cache hit must return the same shared slice"
        );
        assert_eq!(first.len(), 1);
    }

    #[test]
    fn mutations_invalidate_the_match_cache() {
        let mut t = SubscriptionTree::new();
        t.subscribe("e", &filter("a/#"), QoS::AtMostOnce);
        assert_eq!(t.matches_shared(&name("a/b")).len(), 1);

        t.subscribe("f", &filter("a/b"), QoS::AtLeastOnce);
        assert_eq!(t.matches_shared(&name("a/b")).len(), 2, "after subscribe");

        t.unsubscribe(&"f", &filter("a/b"));
        assert_eq!(t.matches_shared(&name("a/b")).len(), 1, "after unsubscribe");

        t.remove_key(&"e");
        assert_eq!(t.matches_shared(&name("a/b")).len(), 0, "after remove_key");
    }

    #[test]
    fn shared_and_owned_lookups_agree() {
        let mut t = SubscriptionTree::new();
        t.subscribe("exact", &filter("a/b"), QoS::AtMostOnce);
        t.subscribe("plus", &filter("a/+"), QoS::AtLeastOnce);
        t.subscribe("hash", &filter("#"), QoS::ExactlyOnce);
        for topic in ["a/b", "a/c", "a", "x/y/z", "$SYS/x"] {
            assert_eq!(
                t.matches(&name(topic)),
                t.matches_shared(&name(topic)).to_vec(),
                "topic {topic}"
            );
        }
    }
}
