//! The recipe model: a validated task graph describing how IoT data
//! streams are processed, analysed and merged (paper Fig. 5).

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::error::RecipeError;

/// What a task does. The variants cover the operations appearing in the
/// paper's scenarios: sensing, windowed aggregation, online training,
/// prediction, anomaly detection, state estimation and actuation, plus an
/// escape hatch for custom operators.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Read a sensor stream at a fixed rate.
    Sense {
        /// Sensor kind slug (e.g. `accel`, `sound`).
        sensor: String,
        /// Sampling rate in Hz.
        rate_hz: f64,
    },
    /// Aggregate upstream samples into windows.
    Window {
        /// Window length in milliseconds.
        size_ms: u64,
    },
    /// Train an online model on the upstream flow.
    Train {
        /// Algorithm name (e.g. `pa`, `arow`, `perceptron`).
        algorithm: String,
    },
    /// Predict with an online model over the upstream flow.
    Predict {
        /// Algorithm name.
        algorithm: String,
    },
    /// Score the upstream flow for anomalies.
    DetectAnomaly {
        /// Detector name (`zscore`, `mahalanobis`, `lof`).
        detector: String,
        /// Score threshold above which a flow item is flagged.
        threshold: f64,
    },
    /// Fuse upstream flows into a state estimate (e.g. comfort level).
    Estimate {
        /// Estimator name.
        model: String,
    },
    /// Hysteresis policy: turn an upstream value into on/off decisions.
    Policy {
        /// Datum key observed (`score` reads the message score).
        key: String,
        /// Emit an "on" decision when the value rises above this.
        on_above: f64,
        /// Emit an "off" decision when the value falls below this.
        off_below: f64,
        /// Datum key of the emitted decision (e.g. `power`, `level`).
        emit: String,
    },
    /// Drive an actuator from upstream decisions.
    Actuate {
        /// Actuator name (e.g. `ac`, `light`, `alert`).
        actuator: String,
    },
    /// A named custom operator.
    Custom {
        /// Operator name resolved by the runtime.
        operator: String,
    },
}

impl TaskKind {
    /// The capability a module must offer to host this task, if any.
    ///
    /// Sensing requires the module to own that sensor; actuation requires
    /// the actuator. Pure computation can run anywhere.
    pub fn required_capability(&self) -> Option<String> {
        match self {
            TaskKind::Sense { sensor, .. } => Some(format!("sensor:{sensor}")),
            TaskKind::Actuate { actuator } => Some(format!("actuator:{actuator}")),
            _ => None,
        }
    }

    /// A rough relative execution cost, used by load-aware assignment.
    pub fn nominal_cost(&self) -> f64 {
        match self {
            TaskKind::Sense { rate_hz, .. } => 0.2 * rate_hz.max(0.0),
            TaskKind::Window { .. } => 1.0,
            TaskKind::Train { .. } => 10.0,
            TaskKind::Predict { .. } => 6.0,
            TaskKind::DetectAnomaly { .. } => 4.0,
            TaskKind::Estimate { .. } => 3.0,
            TaskKind::Policy { .. } => 0.5,
            TaskKind::Actuate { .. } => 0.5,
            TaskKind::Custom { .. } => 2.0,
        }
    }

    /// A short lower-case name of the kind.
    pub fn name(&self) -> &'static str {
        match self {
            TaskKind::Sense { .. } => "sense",
            TaskKind::Window { .. } => "window",
            TaskKind::Train { .. } => "train",
            TaskKind::Predict { .. } => "predict",
            TaskKind::DetectAnomaly { .. } => "anomaly",
            TaskKind::Estimate { .. } => "estimate",
            TaskKind::Policy { .. } => "policy",
            TaskKind::Actuate { .. } => "actuate",
            TaskKind::Custom { .. } => "custom",
        }
    }
}

/// One node of the task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// Unique task identifier within the recipe.
    pub id: String,
    /// Operation performed.
    pub kind: TaskKind,
    /// Free-form extra parameters.
    pub params: BTreeMap<String, String>,
}

impl Task {
    /// Creates a task without extra parameters.
    pub fn new(id: impl Into<String>, kind: TaskKind) -> Self {
        Task {
            id: id.into(),
            kind,
            params: BTreeMap::new(),
        }
    }
}

/// A validated application recipe: named task graph (paper Fig. 5).
///
/// ```
/// use ifot_recipe::model::{Recipe, Task, TaskKind};
///
/// let recipe = Recipe::builder("demo")
///     .task(Task::new("s", TaskKind::Sense { sensor: "sound".into(), rate_hz: 10.0 }))
///     .task(Task::new("d", TaskKind::DetectAnomaly { detector: "zscore".into(), threshold: 3.0 }))
///     .edge("s", "d")
///     .build()?;
/// assert_eq!(recipe.tasks().len(), 2);
/// assert_eq!(recipe.roots(), vec!["s"]);
/// # Ok::<(), ifot_recipe::error::RecipeError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Recipe {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<(String, String)>,
}

impl Recipe {
    /// Starts building a recipe with the given name.
    pub fn builder(name: impl Into<String>) -> RecipeBuilder {
        RecipeBuilder {
            name: name.into(),
            tasks: Vec::new(),
            edges: Vec::new(),
        }
    }

    /// The recipe name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tasks in declaration order.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// The edges as `(from, to)` id pairs.
    pub fn edges(&self) -> &[(String, String)] {
        &self.edges
    }

    /// Looks up a task by id.
    pub fn task(&self, id: &str) -> Option<&Task> {
        self.tasks.iter().find(|t| t.id == id)
    }

    /// Direct successors of `id`.
    pub fn successors(&self, id: &str) -> Vec<&str> {
        self.edges
            .iter()
            .filter(|(from, _)| from == id)
            .map(|(_, to)| to.as_str())
            .collect()
    }

    /// Direct predecessors of `id`.
    pub fn predecessors(&self, id: &str) -> Vec<&str> {
        self.edges
            .iter()
            .filter(|(_, to)| to == id)
            .map(|(from, _)| from.as_str())
            .collect()
    }

    /// Tasks with no incoming edge (stream sources).
    pub fn roots(&self) -> Vec<&str> {
        self.tasks
            .iter()
            .filter(|t| self.predecessors(&t.id).is_empty())
            .map(|t| t.id.as_str())
            .collect()
    }

    /// Tasks with no outgoing edge (sinks).
    pub fn leaves(&self) -> Vec<&str> {
        self.tasks
            .iter()
            .filter(|t| self.successors(&t.id).is_empty())
            .map(|t| t.id.as_str())
            .collect()
    }

    /// A topological order of task ids (Kahn's algorithm; stable with
    /// respect to declaration order).
    pub fn topo_order(&self) -> Vec<&str> {
        let mut indegree: BTreeMap<&str, usize> =
            self.tasks.iter().map(|t| (t.id.as_str(), 0)).collect();
        for (_, to) in &self.edges {
            *indegree.get_mut(to.as_str()).expect("validated edge") += 1;
        }
        let mut queue: VecDeque<&str> = self
            .tasks
            .iter()
            .filter(|t| indegree[t.id.as_str()] == 0)
            .map(|t| t.id.as_str())
            .collect();
        let mut order = Vec::with_capacity(self.tasks.len());
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for next in self.successors(id) {
                let d = indegree.get_mut(next).expect("validated edge");
                *d -= 1;
                if *d == 0 {
                    queue.push_back(next);
                }
            }
        }
        order
    }
}

/// Incremental [`Recipe`] constructor; `build` validates the graph.
#[derive(Debug, Clone)]
pub struct RecipeBuilder {
    name: String,
    tasks: Vec<Task>,
    edges: Vec<(String, String)>,
}

impl RecipeBuilder {
    /// Adds a task.
    pub fn task(mut self, task: Task) -> Self {
        self.tasks.push(task);
        self
    }

    /// Adds an edge from `from` to `to`.
    pub fn edge(mut self, from: impl Into<String>, to: impl Into<String>) -> Self {
        self.edges.push((from.into(), to.into()));
        self
    }

    /// Validates and produces the recipe.
    ///
    /// # Errors
    ///
    /// Returns [`RecipeError`] when the recipe is empty, ids repeat,
    /// edges dangle or form a self-loop, or the graph has a cycle.
    pub fn build(self) -> Result<Recipe, RecipeError> {
        if self.name.is_empty() {
            return Err(RecipeError::EmptyName);
        }
        if self.tasks.is_empty() {
            return Err(RecipeError::NoTasks);
        }
        let mut seen = BTreeSet::new();
        for t in &self.tasks {
            if t.id.is_empty() {
                return Err(RecipeError::EmptyTaskId);
            }
            if !seen.insert(t.id.as_str()) {
                return Err(RecipeError::DuplicateTask(t.id.clone()));
            }
        }
        for (from, to) in &self.edges {
            if !seen.contains(from.as_str()) {
                return Err(RecipeError::UnknownTask(from.clone()));
            }
            if !seen.contains(to.as_str()) {
                return Err(RecipeError::UnknownTask(to.clone()));
            }
            if from == to {
                return Err(RecipeError::SelfLoop(from.clone()));
            }
        }
        let recipe = Recipe {
            name: self.name,
            tasks: self.tasks,
            edges: self.edges,
        };
        if recipe.topo_order().len() != recipe.tasks.len() {
            return Err(RecipeError::Cycle);
        }
        Ok(recipe)
    }
}

/// The paper's Fig. 5 elderly-monitoring recipe, ready to run: four
/// sensing tasks, two anomaly detectors, camera monitoring, state
/// estimation and alert messaging.
pub fn fig5_elderly_monitoring() -> Recipe {
    Recipe::builder("elderly-monitoring")
        .task(Task::new(
            "sensing_a",
            TaskKind::Sense {
                sensor: "accel".into(),
                rate_hz: 20.0,
            },
        ))
        .task(Task::new(
            "sensing_b",
            TaskKind::Sense {
                sensor: "sound".into(),
                rate_hz: 20.0,
            },
        ))
        .task(Task::new(
            "sensing_c",
            TaskKind::Sense {
                sensor: "motion".into(),
                rate_hz: 20.0,
            },
        ))
        .task(Task::new(
            "sensing_d",
            TaskKind::Sense {
                sensor: "illuminance".into(),
                rate_hz: 20.0,
            },
        ))
        .task(Task::new(
            "anomaly_ab",
            TaskKind::DetectAnomaly {
                detector: "lof".into(),
                threshold: 3.0,
            },
        ))
        .task(Task::new(
            "anomaly_cd",
            TaskKind::DetectAnomaly {
                detector: "zscore".into(),
                threshold: 3.0,
            },
        ))
        .task(Task::new(
            "camera_monitoring",
            TaskKind::Custom {
                operator: "camera-monitoring".into(),
            },
        ))
        .task(Task::new(
            "state_estimation",
            TaskKind::Estimate {
                model: "activity".into(),
            },
        ))
        .task(Task::new(
            "alert_messaging",
            TaskKind::Actuate {
                actuator: "alert".into(),
            },
        ))
        .edge("sensing_a", "anomaly_ab")
        .edge("sensing_b", "anomaly_ab")
        .edge("sensing_c", "anomaly_cd")
        .edge("sensing_d", "anomaly_cd")
        .edge("anomaly_ab", "camera_monitoring")
        .edge("anomaly_ab", "state_estimation")
        .edge("anomaly_cd", "state_estimation")
        .edge("camera_monitoring", "alert_messaging")
        .edge("state_estimation", "alert_messaging")
        .build()
        .expect("the Fig. 5 recipe is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Recipe {
        Recipe::builder("r")
            .task(Task::new(
                "a",
                TaskKind::Sense {
                    sensor: "sound".into(),
                    rate_hz: 5.0,
                },
            ))
            .task(Task::new("b", TaskKind::Window { size_ms: 100 }))
            .task(Task::new(
                "c",
                TaskKind::Train {
                    algorithm: "pa".into(),
                },
            ))
            .edge("a", "b")
            .edge("b", "c")
            .build()
            .expect("valid recipe")
    }

    #[test]
    fn builder_produces_valid_graph() {
        let r = small();
        assert_eq!(r.name(), "r");
        assert_eq!(r.roots(), vec!["a"]);
        assert_eq!(r.leaves(), vec!["c"]);
        assert_eq!(r.successors("a"), vec!["b"]);
        assert_eq!(r.predecessors("c"), vec!["b"]);
        assert_eq!(r.topo_order(), vec!["a", "b", "c"]);
        assert!(r.task("b").is_some());
        assert!(r.task("zzz").is_none());
    }

    #[test]
    fn validation_catches_duplicates() {
        let err = Recipe::builder("r")
            .task(Task::new("a", TaskKind::Window { size_ms: 1 }))
            .task(Task::new("a", TaskKind::Window { size_ms: 1 }))
            .build()
            .expect_err("duplicate ids");
        assert_eq!(err, RecipeError::DuplicateTask("a".into()));
    }

    #[test]
    fn validation_catches_dangling_edges() {
        let err = Recipe::builder("r")
            .task(Task::new("a", TaskKind::Window { size_ms: 1 }))
            .edge("a", "ghost")
            .build()
            .expect_err("dangling edge");
        assert_eq!(err, RecipeError::UnknownTask("ghost".into()));
    }

    #[test]
    fn validation_catches_cycles_and_self_loops() {
        let err = Recipe::builder("r")
            .task(Task::new("a", TaskKind::Window { size_ms: 1 }))
            .edge("a", "a")
            .build()
            .expect_err("self loop");
        assert_eq!(err, RecipeError::SelfLoop("a".into()));

        let err = Recipe::builder("r")
            .task(Task::new("a", TaskKind::Window { size_ms: 1 }))
            .task(Task::new("b", TaskKind::Window { size_ms: 1 }))
            .edge("a", "b")
            .edge("b", "a")
            .build()
            .expect_err("cycle");
        assert_eq!(err, RecipeError::Cycle);
    }

    #[test]
    fn validation_catches_empty_cases() {
        assert_eq!(
            Recipe::builder("").build().expect_err("empty name"),
            RecipeError::EmptyName
        );
        assert_eq!(
            Recipe::builder("r").build().expect_err("no tasks"),
            RecipeError::NoTasks
        );
        assert_eq!(
            Recipe::builder("r")
                .task(Task::new("", TaskKind::Window { size_ms: 1 }))
                .build()
                .expect_err("empty id"),
            RecipeError::EmptyTaskId
        );
    }

    #[test]
    fn capabilities_follow_kinds() {
        assert_eq!(
            TaskKind::Sense {
                sensor: "accel".into(),
                rate_hz: 1.0
            }
            .required_capability()
            .as_deref(),
            Some("sensor:accel")
        );
        assert_eq!(
            TaskKind::Actuate {
                actuator: "light".into()
            }
            .required_capability()
            .as_deref(),
            Some("actuator:light")
        );
        assert_eq!(TaskKind::Window { size_ms: 1 }.required_capability(), None);
    }

    #[test]
    fn fig5_recipe_shape_matches_paper() {
        let r = fig5_elderly_monitoring();
        assert_eq!(r.tasks().len(), 9);
        assert_eq!(r.roots().len(), 4, "four sensing sources");
        assert_eq!(r.leaves(), vec!["alert_messaging"]);
        let order = r.topo_order();
        assert_eq!(order.len(), 9);
        // Alert must come last.
        assert_eq!(*order.last().expect("non-empty"), "alert_messaging");
    }

    #[test]
    fn nominal_costs_rank_train_highest() {
        let train = TaskKind::Train {
            algorithm: "pa".into(),
        }
        .nominal_cost();
        let window = TaskKind::Window { size_ms: 1 }.nominal_cost();
        assert!(train > window);
    }
}
