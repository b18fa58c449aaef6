//! `ifotctl` — the management-node command line.
//!
//! The paper's management software (Fig. 8) lets an operator deploy
//! classes onto modules and watch them run; this CLI does the same
//! against the simulated testbed:
//!
//! ```text
//! ifotctl check <recipe.ifot>              validate + show split/assignment
//! ifotctl run <recipe.ifot> [seconds]      deploy on auto-provisioned modules and run
//! ifotctl render <recipe.ifot>             pretty-print the recipe (DSL -> DSL)
//! ifotctl tables [seed]                    regenerate Tables II/III
//! ```

use std::process::ExitCode;

use ifot_core::deploy::{deploy, DeploymentPlan};
use ifot_core::sim_adapter::add_middleware_node;
use ifot_netsim::cpu::CpuProfile;
use ifot_netsim::sim::Simulation;
use ifot_netsim::time::SimDuration;
use ifot_recipe::assign::{CapabilityAware, ModuleInfo};
use ifot_recipe::model::{Recipe, TaskKind};
use ifot_recipe::{dsl, split};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("check") => with_recipe(&args, check),
        Some("run") => with_recipe(&args, |recipe, args| {
            let seconds = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(5u64);
            run(recipe, seconds)
        }),
        Some("render") => with_recipe(&args, |recipe, _| {
            println!("{}", dsl::render(&recipe));
            Ok(())
        }),
        Some("tables") => {
            let seed = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(2016);
            tables(seed)
        }
        _ => {
            eprintln!(
                "usage: ifotctl <check|run|render> <recipe.ifot> [args] | ifotctl tables [seed]"
            );
            Err("missing or unknown subcommand".to_owned())
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

fn with_recipe(
    args: &[String],
    f: impl FnOnce(Recipe, &[String]) -> Result<(), String>,
) -> Result<(), String> {
    let path = args.get(1).ok_or("expected a recipe file path")?;
    let src = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    let recipe = dsl::parse(&src).map_err(|e| format!("parsing {path}: {e}"))?;
    f(recipe, args)
}

/// Derives a module pool satisfying the recipe's capability needs: one
/// module per sensing task, one per actuation task, one compute module,
/// one broker.
fn auto_modules(recipe: &Recipe) -> (Vec<ModuleInfo>, String) {
    let mut modules = Vec::new();
    for task in recipe.tasks() {
        match &task.kind {
            TaskKind::Sense { sensor, .. } => {
                modules.push(
                    ModuleInfo::new(format!("module-{}", task.id), 1.0)
                        .with_capability(format!("sensor:{sensor}")),
                );
            }
            TaskKind::Actuate { actuator } => {
                modules.push(
                    ModuleInfo::new(format!("module-{}", task.id), 1.0)
                        .with_capability(format!("actuator:{actuator}")),
                );
            }
            _ => {}
        }
    }
    modules.push(ModuleInfo::new("module-compute", 2.0));
    let broker = "module-broker".to_owned();
    modules.push(ModuleInfo::new(broker.clone(), 2.0));
    (modules, broker)
}

fn plan(recipe: &Recipe) -> Result<(DeploymentPlan, Vec<ModuleInfo>, String), String> {
    let (modules, broker) = auto_modules(recipe);
    let plan = deploy(recipe, &modules, &CapabilityAware, &broker).map_err(|e| e.to_string())?;
    Ok((plan, modules, broker))
}

fn check(recipe: Recipe, _args: &[String]) -> Result<(), String> {
    println!(
        "recipe {:?}: {} tasks, {} edges",
        recipe.name(),
        recipe.tasks().len(),
        recipe.edges().len()
    );
    let split_plan = split::split(&recipe);
    println!(
        "split: {} stages, max parallelism {}",
        split_plan.depth(),
        split_plan.max_parallelism()
    );
    for (i, stage) in split_plan.stages().iter().enumerate() {
        println!("  stage {i}: {}", stage.join(", "));
    }
    let (plan, modules, broker) = plan(&recipe)?;
    println!(
        "assignment over {} auto-provisioned modules (broker: {broker}):",
        modules.len()
    );
    for (task, module) in plan.assignment.iter() {
        println!("  {task:<24} -> {module}");
    }
    Ok(())
}

fn run(recipe: Recipe, seconds: u64) -> Result<(), String> {
    let (plan, _modules, _broker) = plan(&recipe)?;
    let mut sim = Simulation::new(2016);
    for cfg in plan.configs.clone() {
        add_middleware_node(&mut sim, CpuProfile::RASPBERRY_PI_2, cfg.with_announce());
    }
    println!(
        "running {:?} for {seconds}s of virtual time...",
        recipe.name()
    );
    sim.run_for(SimDuration::from_secs(seconds));

    let statuses = ifot_mgmt::monitor::capture_simulation(&sim);
    println!(
        "{}",
        ifot_mgmt::monitor::render_screen(&statuses, &format!("t={seconds}s"))
    );
    println!("counters:");
    for (name, value) in sim.metrics().counters() {
        println!("  {name:<32} {value}");
    }
    let interesting = [
        "sensing_to_training",
        "sensing_to_predicting",
        "sensing_to_anomaly",
        "sensing_to_actuation",
    ];
    for name in interesting {
        let s = sim.metrics().latency_summary(name);
        if s.count > 0 {
            println!(
                "latency {name}: avg {:.2} ms, max {:.2} ms over {} items",
                s.mean_ms, s.max_ms, s.count
            );
        }
    }
    Ok(())
}

fn tables(seed: u64) -> Result<(), String> {
    let result = ifot_mgmt::experiment::run_paper_sweep(seed);
    println!(
        "{}",
        ifot_mgmt::table::render_table("TABLE II (sensing-training)", &result.training)
    );
    println!(
        "{}",
        ifot_mgmt::table::render_table("TABLE III (sensing-predicting)", &result.predicting)
    );
    let violations = ifot_mgmt::experiment::check_shape(&result);
    if violations.is_empty() {
        println!("shape check: OK");
        Ok(())
    } else {
        Err(format!("shape check failed: {violations:?}"))
    }
}
