//! Task assignment — the IFoT *Task assignment class*.
//!
//! Distributes the tasks of a split recipe onto neuron modules. Three
//! strategies are provided (and compared in the ablation benches):
//!
//! * [`RoundRobin`] — rotate through modules, skipping incapable ones.
//! * [`CapabilityAware`] — pin capability-bound tasks (sensing,
//!   actuation) to capable modules; spread the rest round-robin.
//! * [`LoadAware`] — like capability-aware, but place each task on the
//!   capable module with the least accumulated nominal cost, weighted by
//!   module speed.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::AssignError;
use crate::model::Recipe;

/// Description of a neuron module available for assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct ModuleInfo {
    /// Module name (unique).
    pub name: String,
    /// Relative CPU speed (1.0 = reference Raspberry Pi 2).
    pub speed: f64,
    /// Capabilities offered, e.g. `sensor:accel`, `actuator:alert`.
    pub capabilities: BTreeSet<String>,
}

impl ModuleInfo {
    /// Creates a module with the given name and speed and no special
    /// capabilities.
    pub fn new(name: impl Into<String>, speed: f64) -> Self {
        ModuleInfo {
            name: name.into(),
            speed,
            capabilities: BTreeSet::new(),
        }
    }

    /// Adds a capability (builder style).
    pub fn with_capability(mut self, cap: impl Into<String>) -> Self {
        self.capabilities.insert(cap.into());
        self
    }

    /// Whether the module offers `cap`.
    pub fn has_capability(&self, cap: &str) -> bool {
        self.capabilities.contains(cap)
    }
}

/// The result of an assignment: task id → module name.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Assignment {
    map: BTreeMap<String, String>,
}

impl Assignment {
    /// The module a task was placed on.
    pub fn module_of(&self, task_id: &str) -> Option<&str> {
        self.map.get(task_id).map(String::as_str)
    }

    /// All tasks placed on `module`.
    pub fn tasks_on(&self, module: &str) -> Vec<&str> {
        self.map
            .iter()
            .filter(|(_, m)| m.as_str() == module)
            .map(|(t, _)| t.as_str())
            .collect()
    }

    /// Iterates over `(task, module)` pairs in task order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.map.iter().map(|(t, m)| (t.as_str(), m.as_str()))
    }

    /// Number of placed tasks.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether nothing was placed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

/// A placement policy.
pub trait AssignmentStrategy {
    /// Places every task of `recipe` onto one of `modules`.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] if `modules` is empty or a task's required
    /// capability is offered by no module.
    fn assign(&self, recipe: &Recipe, modules: &[ModuleInfo]) -> Result<Assignment, AssignError>;

    /// Picks distinct host modules for the sequence shards of a
    /// `replicas = N` task. Returns up to `replicas` module names —
    /// fewer when too few capable modules exist (callers decide whether
    /// that is an error).
    ///
    /// The default routes replicas through the same rules as `assign`:
    /// only capable modules are eligible, the anchor module the
    /// assignment chose hosts the first shard, and every shard charges
    /// `nominal / replicas` speed-normalized cost on top of the load
    /// the rest of the assignment already put on each module — so extra
    /// replicas prefer idle modules instead of whoever sits next to the
    /// anchor in declaration order.
    fn place_replicas(
        &self,
        recipe: &Recipe,
        assignment: &Assignment,
        task_id: &str,
        modules: &[ModuleInfo],
        replicas: u64,
    ) -> Vec<String> {
        let Some(task) = recipe.task(task_id) else {
            return Vec::new();
        };
        let cap = task.kind.required_capability();
        let candidates = capable(modules, cap.as_deref());
        if candidates.is_empty() {
            return Vec::new();
        }
        // Load each module already carries from the rest of the recipe
        // (excluding the replicated task itself — its cost is re-charged
        // shard by shard below).
        let mut load: BTreeMap<&str, f64> =
            modules.iter().map(|m| (m.name.as_str(), 0.0)).collect();
        for (t, m) in assignment.iter() {
            if t == task_id {
                continue;
            }
            let cost = recipe.task(t).map(|t| t.kind.nominal_cost()).unwrap_or(0.0);
            let speed = modules
                .iter()
                .find(|module| module.name == m)
                .map(|module| module.speed.max(1e-9))
                .unwrap_or(1.0);
            if let Some(l) = load.get_mut(m) {
                *l += cost / speed;
            }
        }
        let shard_cost = task.kind.nominal_cost() / replicas.max(1) as f64;
        let mut hosts: Vec<String> = Vec::new();
        // The anchor the assignment picked keeps shard 0.
        if let Some(anchor) = assignment.module_of(task_id) {
            if let Some(m) = candidates.iter().find(|m| m.name == anchor) {
                *load.get_mut(anchor).expect("known module") += shard_cost / m.speed.max(1e-9);
                hosts.push(anchor.to_owned());
            }
        }
        while (hosts.len() as u64) < replicas {
            let Some(m) = candidates
                .iter()
                .filter(|m| !hosts.iter().any(|h| h == &m.name))
                .min_by(|a, b| {
                    let la = load[a.name.as_str()];
                    let lb = load[b.name.as_str()];
                    la.partial_cmp(&lb).expect("finite loads")
                })
            else {
                break; // fewer capable modules than replicas
            };
            *load.get_mut(m.name.as_str()).expect("known module") += shard_cost / m.speed.max(1e-9);
            hosts.push(m.name.clone());
        }
        hosts
    }

    /// A short strategy name for reports.
    fn name(&self) -> &'static str;
}

fn capable<'a>(modules: &'a [ModuleInfo], capability: Option<&str>) -> Vec<&'a ModuleInfo> {
    match capability {
        None => modules.iter().collect(),
        Some(cap) => modules.iter().filter(|m| m.has_capability(cap)).collect(),
    }
}

fn place(
    recipe: &Recipe,
    modules: &[ModuleInfo],
    mut pick: impl FnMut(&[&ModuleInfo], f64) -> usize,
) -> Result<Assignment, AssignError> {
    if modules.is_empty() {
        return Err(AssignError::NoModules);
    }
    let mut map = BTreeMap::new();
    // Topological order so upstream tasks are placed before downstream —
    // strategies may use that ordering for locality heuristics.
    for id in recipe.topo_order() {
        let task = recipe.task(id).expect("topo order yields known tasks");
        let cap = task.kind.required_capability();
        let candidates = capable(modules, cap.as_deref());
        if candidates.is_empty() {
            return Err(AssignError::NoCapableModule {
                task: id.to_owned(),
                capability: cap.unwrap_or_default(),
            });
        }
        let idx = pick(&candidates, task.kind.nominal_cost());
        map.insert(id.to_owned(), candidates[idx].name.clone());
    }
    Ok(Assignment { map })
}

/// Rotates through capable modules.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin;

impl AssignmentStrategy for RoundRobin {
    fn assign(&self, recipe: &Recipe, modules: &[ModuleInfo]) -> Result<Assignment, AssignError> {
        let mut cursor = 0usize;
        place(recipe, modules, |candidates, _| {
            let idx = cursor % candidates.len();
            cursor += 1;
            idx
        })
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

/// Pins capability-bound tasks; spreads free tasks over the *least
/// recently used* modules (round-robin over the full set, restricted to
/// candidates).
#[derive(Debug, Clone, Copy, Default)]
pub struct CapabilityAware;

impl AssignmentStrategy for CapabilityAware {
    fn assign(&self, recipe: &Recipe, modules: &[ModuleInfo]) -> Result<Assignment, AssignError> {
        let mut usage: BTreeMap<&str, usize> =
            modules.iter().map(|m| (m.name.as_str(), 0)).collect();
        place(recipe, modules, |candidates, _| {
            // Least-used candidate; ties broken by candidate order.
            let (idx, _) = candidates
                .iter()
                .enumerate()
                .min_by_key(|(i, m)| (usage[m.name.as_str()], *i))
                .expect("candidates non-empty");
            *usage
                .get_mut(candidates[idx].name.as_str())
                .expect("known module") += 1;
            idx
        })
    }

    fn name(&self) -> &'static str {
        "capability-aware"
    }
}

/// Places each task on the capable module with the least accumulated
/// speed-normalized cost.
#[derive(Debug, Clone, Copy, Default)]
pub struct LoadAware;

impl AssignmentStrategy for LoadAware {
    fn assign(&self, recipe: &Recipe, modules: &[ModuleInfo]) -> Result<Assignment, AssignError> {
        let mut load: BTreeMap<&str, f64> =
            modules.iter().map(|m| (m.name.as_str(), 0.0)).collect();
        place(recipe, modules, |candidates, cost| {
            let (idx, _) = candidates
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| {
                    let la = load[a.name.as_str()];
                    let lb = load[b.name.as_str()];
                    la.partial_cmp(&lb).expect("finite loads")
                })
                .expect("candidates non-empty");
            let m = candidates[idx];
            *load.get_mut(m.name.as_str()).expect("known module") += cost / m.speed.max(1e-9);
            idx
        })
    }

    fn name(&self) -> &'static str {
        "load-aware"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{Recipe, Task, TaskKind};

    fn modules() -> Vec<ModuleInfo> {
        vec![
            ModuleInfo::new("a", 1.0).with_capability("sensor:accel"),
            ModuleInfo::new("b", 1.0).with_capability("sensor:sound"),
            ModuleInfo::new("c", 2.0).with_capability("actuator:alert"),
            ModuleInfo::new("d", 1.0),
        ]
    }

    fn recipe() -> Recipe {
        Recipe::builder("r")
            .task(Task::new(
                "s1",
                TaskKind::Sense {
                    sensor: "accel".into(),
                    rate_hz: 10.0,
                },
            ))
            .task(Task::new(
                "s2",
                TaskKind::Sense {
                    sensor: "sound".into(),
                    rate_hz: 10.0,
                },
            ))
            .task(Task::new(
                "t",
                TaskKind::Train {
                    algorithm: "pa".into(),
                },
            ))
            .task(Task::new(
                "p",
                TaskKind::Predict {
                    algorithm: "pa".into(),
                },
            ))
            .task(Task::new(
                "act",
                TaskKind::Actuate {
                    actuator: "alert".into(),
                },
            ))
            .edge("s1", "t")
            .edge("s2", "t")
            .edge("s1", "p")
            .edge("s2", "p")
            .edge("p", "act")
            .build()
            .expect("valid")
    }

    fn check_capabilities(recipe: &Recipe, assignment: &Assignment, modules: &[ModuleInfo]) {
        for (task_id, module_name) in assignment.iter() {
            let task = recipe.task(task_id).expect("known task");
            if let Some(cap) = task.kind.required_capability() {
                let m = modules
                    .iter()
                    .find(|m| m.name == module_name)
                    .expect("known module");
                assert!(
                    m.has_capability(&cap),
                    "{task_id} on incapable {module_name}"
                );
            }
        }
    }

    #[test]
    fn all_strategies_place_every_task_respecting_capabilities() {
        let r = recipe();
        let ms = modules();
        for strategy in [
            &RoundRobin as &dyn AssignmentStrategy,
            &CapabilityAware,
            &LoadAware,
        ] {
            let a = strategy
                .assign(&r, &ms)
                .unwrap_or_else(|_| panic!("{}", strategy.name()));
            assert_eq!(a.len(), r.tasks().len(), "{}", strategy.name());
            check_capabilities(&r, &a, &ms);
        }
    }

    #[test]
    fn sensing_pinned_to_owning_module() {
        let a = CapabilityAware
            .assign(&recipe(), &modules())
            .expect("assigns");
        assert_eq!(a.module_of("s1"), Some("a"));
        assert_eq!(a.module_of("s2"), Some("b"));
        assert_eq!(a.module_of("act"), Some("c"));
    }

    #[test]
    fn missing_capability_is_an_error() {
        let ms = vec![ModuleInfo::new("only", 1.0)];
        let err = CapabilityAware
            .assign(&recipe(), &ms)
            .expect_err("no sensors");
        assert!(matches!(err, AssignError::NoCapableModule { .. }));
    }

    #[test]
    fn empty_module_list_is_an_error() {
        assert_eq!(
            RoundRobin.assign(&recipe(), &[]).expect_err("no modules"),
            AssignError::NoModules
        );
    }

    #[test]
    fn load_aware_prefers_idle_modules() {
        // Two free tasks, two unconstrained modules: they must not both
        // land on the same module.
        let r = Recipe::builder("r")
            .task(Task::new(
                "t1",
                TaskKind::Train {
                    algorithm: "pa".into(),
                },
            ))
            .task(Task::new(
                "t2",
                TaskKind::Train {
                    algorithm: "pa".into(),
                },
            ))
            .build()
            .expect("valid");
        let ms = vec![ModuleInfo::new("m1", 1.0), ModuleInfo::new("m2", 1.0)];
        let a = LoadAware.assign(&r, &ms).expect("assigns");
        assert_ne!(a.module_of("t1"), a.module_of("t2"));
    }

    #[test]
    fn load_aware_exploits_faster_modules() {
        // Three identical tasks, one module 10x faster: the fast module
        // should receive at least two of them.
        let mut builder = Recipe::builder("r");
        for i in 0..3 {
            builder = builder.task(Task::new(
                format!("t{i}"),
                TaskKind::Train {
                    algorithm: "pa".into(),
                },
            ));
        }
        let r = builder.build().expect("valid");
        let ms = vec![ModuleInfo::new("slow", 1.0), ModuleInfo::new("fast", 10.0)];
        let a = LoadAware.assign(&r, &ms).expect("assigns");
        assert!(a.tasks_on("fast").len() >= 2, "{:?}", a);
    }

    #[test]
    fn round_robin_spreads_free_tasks() {
        let r = Recipe::builder("r")
            .task(Task::new("x", TaskKind::Window { size_ms: 1 }))
            .task(Task::new("y", TaskKind::Window { size_ms: 1 }))
            .task(Task::new("z", TaskKind::Window { size_ms: 1 }))
            .build()
            .expect("valid");
        let ms = vec![ModuleInfo::new("m1", 1.0), ModuleInfo::new("m2", 1.0)];
        let a = RoundRobin.assign(&r, &ms).expect("assigns");
        assert!(!a.tasks_on("m1").is_empty());
        assert!(!a.tasks_on("m2").is_empty());
        assert!(!a.is_empty());
    }

    #[test]
    fn replica_hosts_prefer_idle_modules_over_loaded_ones() {
        // "t" (cost 10) sits on m1; the anchor of "p" keeps shard 0 and
        // the extra replica must go to idle m3, not loaded m1.
        let r = Recipe::builder("r")
            .task(Task::new(
                "t",
                TaskKind::Train {
                    algorithm: "pa".into(),
                },
            ))
            .task(Task::new(
                "p",
                TaskKind::Predict {
                    algorithm: "pa".into(),
                },
            ))
            .build()
            .expect("valid");
        let ms = vec![
            ModuleInfo::new("m1", 1.0),
            ModuleInfo::new("m2", 1.0),
            ModuleInfo::new("m3", 1.0),
        ];
        let a = LoadAware.assign(&r, &ms).expect("assigns");
        let anchor = a.module_of("p").expect("p placed").to_owned();
        let hosts = LoadAware.place_replicas(&r, &a, "p", &ms, 2);
        assert_eq!(hosts.len(), 2);
        assert_eq!(hosts[0], anchor, "anchor keeps shard 0");
        assert!(!hosts.contains(&"m1".to_owned()) || anchor == "m1");
        assert_ne!(hosts[0], hosts[1], "replica hosts are distinct");
    }

    #[test]
    fn replica_hosts_are_capability_filtered() {
        // Only two modules offer the actuator; asking for three replicas
        // returns the two capable hosts, never the incapable module.
        let r = Recipe::builder("r")
            .task(Task::new(
                "act",
                TaskKind::Actuate {
                    actuator: "alert".into(),
                },
            ))
            .build()
            .expect("valid");
        let ms = vec![
            ModuleInfo::new("m1", 1.0).with_capability("actuator:alert"),
            ModuleInfo::new("m2", 1.0),
            ModuleInfo::new("m3", 1.0).with_capability("actuator:alert"),
        ];
        let a = CapabilityAware.assign(&r, &ms).expect("assigns");
        let hosts = CapabilityAware.place_replicas(&r, &a, "act", &ms, 3);
        let mut sorted = hosts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec!["m1".to_owned(), "m3".to_owned()]);
        assert!(CapabilityAware
            .place_replicas(&r, &a, "ghost", &ms, 2)
            .is_empty());
    }

    #[test]
    fn assignment_introspection() {
        let a = CapabilityAware
            .assign(&recipe(), &modules())
            .expect("assigns");
        assert_eq!(a.iter().count(), a.len());
        assert_eq!(a.module_of("ghost"), None);
    }
}
