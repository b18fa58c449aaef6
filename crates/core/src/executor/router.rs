//! Intra-node flow routing: memoized topic→stage resolution and the one
//! fan-out rule.
//!
//! Which stages get which items of a group, who takes them by move and
//! who clones is decided here and nowhere else. The rule is a function
//! pair: [`claimants`] *plans* — without consuming anything — which
//! routes of a [`RoutePlan`] receive at least one item of a group, and
//! [`materialize`] builds exactly one [`WorkItem`] per such route. Wire
//! ingress, the node thread's local emissions and the worker handoff all
//! call the pair and differ only in how they *admit* the resulting
//! `(route, work item)`: run to completion, blocking enqueue, or
//! try-enqueue (the handoff takes its ingress locks and tries the
//! capacity between the two halves).
//!
//! Resolution is memoized per topic. [`SharedRouteView`] owns the specs
//! the graph was compiled from — they never change afterwards, so a
//! resolved plan is good for the graph's lifetime — and the memo, which
//! a capacity cap clears when full.

use std::borrow::Cow;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, PoisonError};

use crate::config::OperatorSpec;
use crate::executor::WorkItem;
use crate::flow::FlowItem;
use crate::wire::DecodedItems;

/// Resolved plans cached per topic, in the shared table and in each
/// thread's own memo; cleared when full (same policy as the MQTT tree's
/// match cache).
const ROUTE_CACHE_CAP: usize = 1024;

/// One accepting stage in a [`RoutePlan`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StageRoute {
    /// Stage index into the executor graph.
    pub stage: usize,
    /// The stage's sequence shard, if any.
    pub shard: Option<(u64, u64)>,
}

impl StageRoute {
    /// Whether this route receives the item with sequence number `seq`
    /// (shard membership is computed here and nowhere else).
    pub fn claims(&self, seq: u64) -> bool {
        match self.shard {
            Some((modulus, index)) => seq % modulus.max(1) == index,
            None => true,
        }
    }
}

/// The accepting stages for one topic, in executor-graph order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RoutePlan {
    /// Accepting stages in executor-graph (ascending stage) order.
    pub stages: Vec<StageRoute>,
}

impl RoutePlan {
    /// Resolves the accepting stages for `topic` against `specs`.
    pub fn resolve(specs: &[OperatorSpec], topic: &str) -> Self {
        let stages = specs
            .iter()
            .enumerate()
            .filter(|(_, spec)| spec.accepts(topic))
            .map(|(stage, spec)| StageRoute {
                stage,
                shard: spec.shard,
            })
            .collect();
        RoutePlan { stages }
    }

    /// Whether no stage accepts the topic.
    pub fn is_empty(&self) -> bool {
        self.stages.is_empty()
    }
}

/// Plan half of the fan-out rule: the routes of `plan` that receive at
/// least one item of a group whose sequence numbers are `seqs`, in
/// stage order. Nothing is consumed, so a caller may still abandon the
/// delivery (the worker handoff does, on a saturated destination).
/// Borrows the plan when every route claims something — always the case
/// without sharded routes — so the common dispatch allocates nothing
/// here.
pub fn claimants<I>(plan: &RoutePlan, seqs: I) -> Cow<'_, [StageRoute]>
where
    I: Iterator<Item = u64> + Clone,
{
    let claims = |route: &&StageRoute| seqs.clone().any(|seq| route.claims(seq));
    if plan.stages.iter().all(|route| claims(&route)) {
        Cow::Borrowed(&plan.stages)
    } else {
        Cow::Owned(plan.stages.iter().filter(claims).copied().collect())
    }
}

/// The framing rule: one item travels as [`WorkItem::Item`], several as
/// one [`WorkItem::Batch`].
pub fn work_item(mut items: Vec<FlowItem>) -> WorkItem {
    if items.len() == 1 {
        WorkItem::Item(items.pop().expect("length checked"))
    } else {
        WorkItem::Batch(items)
    }
}

/// Materialize half of the fan-out rule: hands `admit` one work item
/// per route of `routes` that claims at least one item of `group`, in
/// route order — so a step's emissions stay one work item per
/// destination and batch structure survives the hop.
///
/// The last claimant of an item takes it by move and earlier claimants
/// clone, so sole-consumer topologies never copy. Several unsharded
/// consumers of a true batch share it through one `Arc`
/// ([`WorkItem::SharedBatch`]; the last handle is moved in, so inline
/// execution — which runs the stages in this order — unwraps it for
/// free). Sharded routes get their `seq % modulus` sub-batch in group
/// order; an item no shard claims is dropped.
pub fn materialize(
    routes: &[StageRoute],
    group: DecodedItems,
    mut admit: impl FnMut(&StageRoute, WorkItem),
) {
    let mut items = match group {
        DecodedItems::One(item) => return materialize_one(routes, item, admit),
        DecodedItems::Many(mut items) if items.len() == 1 => {
            let item = items.pop().expect("length checked");
            return materialize_one(routes, item, admit);
        }
        DecodedItems::Many(items) => items,
    };
    if items.is_empty() {
        return;
    }
    let unsharded = routes.iter().filter(|r| r.shard.is_none()).count();
    // Sub-batches of the sharded routes, by route position.
    let mut subs: Vec<Vec<FlowItem>> = Vec::new();
    if unsharded < routes.len() {
        let len = items.len();
        subs = routes
            .iter()
            .map(|route| match route.shard {
                // Uniform sequences fill shards evenly; reserve that.
                Some((modulus, _)) => {
                    let m = usize::try_from(modulus).unwrap_or(usize::MAX).max(1);
                    Vec::with_capacity(len / m + 1)
                }
                None => Vec::new(),
            })
            .collect();
        let sharded = || routes.iter().enumerate().filter(|(_, r)| r.shard.is_some());
        if unsharded == 0 {
            // Nobody needs the group whole: each item moves into the
            // last shard claiming it (duplicate claimants and mixed
            // moduli clone into the earlier ones).
            for item in std::mem::take(&mut items) {
                let seq = item.seq;
                let mut receivers = sharded().filter(|(_, r)| r.claims(seq)).map(|(k, _)| k);
                let Some(mut k) = receivers.next() else {
                    continue;
                };
                for next in receivers {
                    subs[k].push(item.clone());
                    k = next;
                }
                subs[k].push(item);
            }
        } else {
            // The group must survive for the unsharded consumers.
            for item in &items {
                for (k, route) in sharded() {
                    if route.claims(item.seq) {
                        subs[k].push(item.clone());
                    }
                }
            }
        }
    }
    let mut shared = (unsharded > 1).then(|| Arc::new(std::mem::take(&mut items)));
    let mut unsharded_left = unsharded;
    for (k, route) in routes.iter().enumerate() {
        let work = if route.shard.is_some() {
            let sub = std::mem::take(&mut subs[k]);
            if sub.is_empty() {
                continue;
            }
            work_item(sub)
        } else {
            unsharded_left -= 1;
            match (&shared, unsharded_left) {
                (Some(_), 0) => WorkItem::SharedBatch(shared.take().expect("matched Some")),
                (Some(arc), _) => WorkItem::SharedBatch(Arc::clone(arc)),
                (None, _) => WorkItem::Batch(std::mem::take(&mut items)),
            }
        };
        admit(route, work);
    }
}

/// [`materialize`] for a lone item: every claiming route but the last
/// gets a clone, the last takes the item.
fn materialize_one(
    routes: &[StageRoute],
    item: FlowItem,
    mut admit: impl FnMut(&StageRoute, WorkItem),
) {
    let seq = item.seq;
    let mut receivers = routes.iter().filter(|r| r.claims(seq)).peekable();
    let mut item = Some(item);
    while let Some(route) = receivers.next() {
        let it = if receivers.peek().is_some() {
            item.clone()
        } else {
            item.take()
        };
        admit(
            route,
            WorkItem::Item(it.expect("taken only by the last route")),
        );
    }
}

/// The route table the node thread and the worker pool both resolve
/// through, each behind its own
/// [`crate::executor::handoff::PlanCache`]: the graph's operator specs,
/// fixed at [`crate::executor::ExecutorGraph::compile`], and the plans
/// resolved against them so far. The specs are read without a lock; the
/// mutex guards the memo alone and is taken only when a thread's own
/// cache misses.
#[derive(Debug)]
pub struct SharedRouteView {
    specs: Vec<OperatorSpec>,
    plans: Mutex<HashMap<String, Arc<RoutePlan>>>,
}

impl SharedRouteView {
    /// The route table over `specs`.
    pub fn new(specs: Vec<OperatorSpec>) -> Self {
        SharedRouteView {
            specs,
            plans: Mutex::default(),
        }
    }

    /// The operator specs, indexed like the stages.
    pub fn specs(&self) -> &[OperatorSpec] {
        &self.specs
    }

    /// The memoized plan for `topic`, resolving and inserting on miss.
    pub fn resolve(&self, topic: &str) -> Arc<RoutePlan> {
        let mut plans = self.plans.lock().unwrap_or_else(PoisonError::into_inner);
        memoized(&mut plans, topic, || {
            Arc::new(RoutePlan::resolve(&self.specs, topic))
        })
    }
}

/// The plan `plans` holds for `topic`, made by `resolve` and kept on a
/// miss. A hit allocates nothing; a full memo is cleared first.
pub(super) fn memoized(
    plans: &mut HashMap<String, Arc<RoutePlan>>,
    topic: &str,
    resolve: impl FnOnce() -> Arc<RoutePlan>,
) -> Arc<RoutePlan> {
    if let Some(plan) = plans.get(topic) {
        return Arc::clone(plan);
    }
    let plan = resolve();
    if plans.len() >= ROUTE_CACHE_CAP {
        plans.clear();
    }
    plans.insert(topic.to_owned(), Arc::clone(&plan));
    plan
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::OperatorKind;
    use ifot_ml::feature::Datum;

    fn item(seq: u64) -> FlowItem {
        FlowItem {
            topic: "sensor/p".into(),
            origin_ts_ns: seq,
            seq,
            datum: Datum::new().with("x", seq as f64),
            label: None,
            score: None,
        }
    }

    fn custom(id: &str, inputs: Vec<String>) -> OperatorSpec {
        OperatorSpec::sink(
            id,
            OperatorKind::Custom {
                operator: id.to_owned(),
            },
            inputs,
        )
    }

    fn route(stage: usize, shard: Option<(u64, u64)>) -> StageRoute {
        StageRoute { stage, shard }
    }

    /// Runs the router pair over `routes` and returns what each stage
    /// was handed, as `(stage, work item)` in admission order.
    fn fan_out(routes: Vec<StageRoute>, group: DecodedItems) -> Vec<(usize, WorkItem)> {
        let plan = RoutePlan { stages: routes };
        let claimed = claimants(&plan, group.iter().map(|i| i.seq));
        let mut out = Vec::new();
        materialize(&claimed, group, |route, work| out.push((route.stage, work)));
        out
    }

    fn seqs_of(work: &WorkItem) -> Vec<u64> {
        match work {
            WorkItem::Item(item) => vec![item.seq],
            WorkItem::Batch(items) => items.iter().map(|i| i.seq).collect(),
            WorkItem::SharedBatch(items) => items.iter().map(|i| i.seq).collect(),
            other => panic!("the router only builds flow work, got {other:?}"),
        }
    }

    #[test]
    fn shards_get_an_exact_cover_in_order() {
        let routes: Vec<StageRoute> = (0..4).map(|i| route(i as usize, Some((4, i)))).collect();
        let out = fan_out(routes, DecodedItems::Many((0..37).map(item).collect()));
        assert_eq!(out.len(), 4);
        assert_eq!(out.iter().map(|(_, w)| w.item_count()).sum::<usize>(), 37);
        for (stage, work) in &out {
            let seqs = seqs_of(work);
            assert!(seqs.iter().all(|s| s % 4 == *stage as u64));
            assert!(seqs.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn zero_modulus_is_clamped_to_one_shard() {
        assert!(route(0, Some((0, 0))).claims(17));
        let out = fan_out(
            vec![route(0, Some((0, 0)))],
            DecodedItems::Many((0..5).map(item).collect()),
        );
        assert_eq!(seqs_of(&out[0].1), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cloning_and_moving_sub_batches_agree() {
        // With an unsharded consumer the shard sub-batches are cloned
        // out of the surviving group; without one they are moved. Both
        // must hold the same items.
        let shards = vec![
            route(1, Some((3, 0))),
            route(2, Some((3, 1))),
            route(3, Some((3, 2))),
        ];
        let mut with_whole = vec![route(0, None)];
        with_whole.extend(shards.clone());
        let group = || DecodedItems::Many((0..20).map(item).collect());
        let cloned = fan_out(with_whole, group());
        let moved = fan_out(shards, group());
        assert_eq!(seqs_of(&cloned[0].1), (0..20).collect::<Vec<_>>());
        assert_eq!(&cloned[1..], &moved[..]);
    }

    #[test]
    fn duplicate_claimants_and_mixed_moduli_each_see_their_items() {
        let routes = vec![
            route(0, Some((2, 0))),
            route(1, Some((2, 1))),
            route(2, Some((2, 0))), // duplicate claimant of shard (2, 0)
            route(3, Some((3, 1))), // second modulus
        ];
        let out = fan_out(
            routes.clone(),
            DecodedItems::Many((0..12).map(item).collect()),
        );
        assert_eq!(out.len(), 4);
        for ((stage, work), route) in out.iter().zip(&routes) {
            assert_eq!(*stage, route.stage);
            let want: Vec<u64> = (0..12).filter(|s| route.claims(*s)).collect();
            assert_eq!(seqs_of(work), want, "stage {stage}");
        }
    }

    #[test]
    fn unsharded_consumers_share_a_batch_and_the_last_takes_the_handle() {
        let out = fan_out(
            vec![route(0, None), route(1, None), route(2, None)],
            DecodedItems::Many((0..4).map(item).collect()),
        );
        let handles: Vec<&Arc<Vec<FlowItem>>> = out
            .iter()
            .map(|(_, work)| match work {
                WorkItem::SharedBatch(arc) => arc,
                other => panic!("expected a shared batch, got {other:?}"),
            })
            .collect();
        assert!(handles.iter().all(|arc| Arc::ptr_eq(arc, handles[0])));
        // No handle is left behind in the router: inline execution of
        // the last consumer can unwrap the allocation.
        assert_eq!(Arc::strong_count(handles[0]), 3);
    }

    #[test]
    fn framing_follows_the_item_count() {
        // One item is an `Item` whichever way it arrives, for every
        // route that claims it; unclaimed routes get nothing.
        let routes = vec![
            route(0, None),
            route(1, Some((2, 0))),
            route(2, Some((2, 1))),
        ];
        for group in [
            DecodedItems::One(item(3)),
            DecodedItems::Many(vec![item(3)]),
        ] {
            let out = fan_out(routes.clone(), group);
            assert_eq!(out.len(), 2);
            assert_eq!(out[0], (0, WorkItem::Item(item(3))));
            assert_eq!(out[1], (2, WorkItem::Item(item(3))));
        }
        // A sole consumer takes a batch whole; a one-item sub-batch is
        // an `Item` again.
        let out = fan_out(
            vec![route(0, None)],
            DecodedItems::Many(vec![item(1), item(2)]),
        );
        assert_eq!(out, vec![(0, WorkItem::Batch(vec![item(1), item(2)]))]);
        let out = fan_out(
            vec![route(0, Some((2, 0))), route(1, Some((2, 1)))],
            DecodedItems::Many(vec![item(1), item(3), item(4)]),
        );
        assert_eq!(out[0], (0, WorkItem::Item(item(4))));
        assert_eq!(out[1], (1, WorkItem::Batch(vec![item(1), item(3)])));
        assert!(fan_out(routes, DecodedItems::Many(Vec::new())).is_empty());
    }

    #[test]
    fn claimants_borrow_the_plan_when_every_route_claims() {
        let plan = RoutePlan {
            stages: vec![
                route(0, None),
                route(1, Some((2, 0))),
                route(2, Some((2, 1))),
            ],
        };
        assert!(matches!(
            claimants(&plan, [4, 5].into_iter()),
            Cow::Borrowed(_)
        ));
        let partial = claimants(&plan, [4, 6].into_iter());
        assert_eq!(partial.as_ref(), &[route(0, None), route(1, Some((2, 0)))]);
        assert!(claimants(&plan, std::iter::empty()).is_empty());
    }

    #[test]
    fn plan_lists_accepting_stages_in_order() {
        let specs = vec![
            custom("a", vec!["s/#".into()]),
            custom("other", vec!["t/#".into()]),
            custom("p0", vec!["s/#".into()]).sharded(2, 0),
            custom("p1", vec!["s/#".into()]).sharded(2, 1),
        ];
        let plan = RoutePlan::resolve(&specs, "s/1");
        assert_eq!(
            plan.stages,
            vec![
                route(0, None),
                route(2, Some((2, 0))),
                route(3, Some((2, 1)))
            ]
        );
        assert!(RoutePlan::resolve(&specs, "u/1").is_empty());
    }

    #[test]
    fn route_table_memoizes_and_the_cap_clears_instead_of_growing() {
        let view = SharedRouteView::new(vec![custom("a", vec!["s/#".into()])]);
        let plan = view.resolve("s/1");
        assert_eq!(plan.stages, vec![route(0, None)]);
        // A hit shares the memoized plan.
        assert!(Arc::ptr_eq(&plan, &view.resolve("s/1")));
        assert!(view.resolve("t/1").is_empty());
        for i in 0..(ROUTE_CACHE_CAP + 8) {
            view.resolve(&format!("s/{i}"));
        }
        let memo = view.plans.lock().unwrap_or_else(PoisonError::into_inner);
        assert!(memo.len() <= ROUTE_CACHE_CAP);
    }
}
