//! # ifot-recipe — the IFoT recipe language and task allocation
//!
//! A *Recipe* (paper Fig. 5) is a configuration describing how IoT data
//! streams are processed, analysed and merged: a directed acyclic task
//! graph. This crate provides:
//!
//! * [`model`] — the validated task-graph model,
//! * [`dsl`] — a small declarative recipe language with a hand-written
//!   lexer/parser and renderer, the recipe's round-tripping text form (the
//!   paper lists defining this language as future work),
//! * [`split`](mod@split) — the *Recipe split class*: decomposition into parallel
//!   stages,
//! * [`assign`] — the *Task assignment class*: placement of tasks onto
//!   neuron modules (round-robin, capability-aware, load-aware).
//!
//! ```
//! use ifot_recipe::assign::{AssignmentStrategy, CapabilityAware, ModuleInfo};
//! use ifot_recipe::{dsl, split};
//!
//! let recipe = dsl::parse(r#"
//!     recipe demo {
//!         task s: sense(sensor = "sound", rate_hz = 10);
//!         task d: anomaly(detector = "zscore", threshold = 3);
//!         s -> d;
//!     }
//! "#)?;
//! let plan = split::split(&recipe);
//! assert_eq!(plan.depth(), 2);
//!
//! let modules = vec![
//!     ModuleInfo::new("module-a", 1.0).with_capability("sensor:sound"),
//!     ModuleInfo::new("module-b", 1.0),
//! ];
//! let assignment = CapabilityAware.assign(&recipe, &modules)?;
//! assert_eq!(assignment.module_of("s"), Some("module-a"));
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod assign;
pub mod dsl;
pub mod error;
pub mod model;
pub mod split;

pub use assign::{
    Assignment, AssignmentStrategy, CapabilityAware, LoadAware, ModuleInfo, RoundRobin,
};
pub use error::{AssignError, ParseError, RecipeError};
pub use model::{fig5_elderly_monitoring, Recipe, RecipeBuilder, Task, TaskKind};
pub use split::{split, SplitPlan};
