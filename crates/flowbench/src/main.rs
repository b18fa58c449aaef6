//! `flowbench`: one wall-clock benchmark for the whole flow path. See the
//! README beside this crate for metric definitions, workloads and bounds.

mod catalog;
mod compare;
mod json;
mod loadgen;
mod probe;
mod reactor;
mod replay;
mod rt;
mod stats;
mod stepper;
mod sut;
mod tcp;
mod vt;

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use catalog::{Better, Outcome, END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS};

#[global_allocator]
static ALLOC: probe::CountingAlloc = probe::CountingAlloc;

const USAGE: &str = "\
usage: flowbench [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--quick] [--out FILE]
       flowbench --agree A.json B.json
       flowbench --check BASELINE.json CANDIDATE.json
Without --workload all four workloads run in turn. The last line of standard
output is one JSON object: the result of the workload, or the result set.";

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: catalog::DEFAULT_SEED,
        seconds: RUN_SECONDS,
        trace: false,
        out: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds >= 1.0 && args.seconds <= 60.0) {
                    return Err("--seconds must be within 1..=60".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other}")),
                }
            }
            // Smoke runs only: the output is stamped as not comparable.
            "--quick" => args.seconds = 3.0,
            "--out" => args.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(name) = &args.workload {
        if !WORKLOADS.iter().any(|w| w.name == name) {
            let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!("unknown workload {name}; one of {names:?}"));
        }
    }
    Ok(args)
}

/// Directory for what a run leaves behind (span files, WAL directories):
/// inside the build directory, which `.gitignore` already covers.
fn scratch_dir() -> PathBuf {
    let target =
        std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| "target".into(), PathBuf::from);
    target.join("flowbench")
}

/// Which dependency set the program was built against, observed through
/// its own public surface: the offline `serde_json` stand-in fails every
/// parse with its own message. Numbers compare only within one set.
fn dependency_set() -> &'static str {
    match ifot_core::flow::FlowMessage::decode(b"{}") {
        Err(e) if e.contains("offline stub") => ".offline-stubs",
        _ => "crates.io",
    }
}

/// Runs one workload in this process. Returns whether every check passed
/// and the object the driver reads: exactly the keys `correct`,
/// `attempted`, `failed` and `metrics`.
fn run_workload(workload: &'static str, args: &Args) -> (bool, String) {
    let scratch = scratch_dir();
    std::fs::create_dir_all(&scratch).expect("scratch directory inside the build directory");
    let seconds = args.seconds;

    let nodes = match workload {
        "paper_flow_rt" => Some(sut::paper_flow_nodes(args.seed)),
        "chain_batched_rt" => Some(sut::chain_batched_nodes(args.seed)),
        _ => None,
    };
    // Set-up several times, report the median: one run then gives a
    // set-up time that repeats. Half of the repetitions come before the
    // measured run and half after it, so that a spell of a slow machine
    // cannot colour all of them; the measured run's own set-up is one
    // more. A traced run reports no set-up time and skips this.
    let mut setups = Vec::new();
    let repeat_setups = |setups: &mut Vec<f64>| {
        let repeats = if args.trace {
            0
        } else {
            catalog::SETUP_REPEATS / 2
        };
        for _ in 0..repeats {
            setups.push(match &nodes {
                Some(nodes) => rt::setup_once(nodes),
                None => tcp::setup_once(workload, args.seed, &scratch),
            });
        }
    };
    repeat_setups(&mut setups);
    let mut outcome: Outcome = match &nodes {
        Some(nodes) => rt::run(workload, nodes, catalog::WARMUP_SECONDS, seconds),
        None => tcp::run(
            workload,
            args.seed,
            catalog::WARMUP_SECONDS,
            seconds,
            &scratch,
        ),
    };
    setups.push(outcome.e2e.setup_s);
    repeat_setups(&mut setups);
    outcome.e2e.setup_s = stats::median(&setups);

    let mut layers = std::mem::take(&mut outcome.layers);
    if args.trace {
        layers.push(("delay_p50_ms", outcome.e2e.delay_p50_ms));
        layers.push(("delay_p99_ms", outcome.e2e.delay_p99_ms));
        layers.push(("cpu_us_per_item", outcome.e2e.cpu_us_per_item));
        layers.push((
            "service_us_per_item",
            match &nodes {
                Some(nodes) => stepper::service_us_per_item(nodes),
                None => replay::tcp_service_us_per_item(workload, args.seed, &scratch),
            },
        ));
        if let Some(nodes) = &nodes {
            let trace = stepper::run(workload, nodes, &scratch);
            outcome.failures.extend(trace.failures);
            layers.extend(trace.layers);
            layers.extend(replay::rt_layers(workload, nodes, &trace.captured));
            if workload == "paper_flow_rt" {
                layers.extend(vt::layers(args.seed));
            }
        } else {
            layers.extend(replay::tcp_layers(workload, args.seed, &scratch));
            let shard_ns = layers
                .iter()
                .find(|(n, _)| *n == "mqtt.shard.publish_ns_per_delivery")
                .map_or(0.0, |(_, v)| *v);
            layers.push((
                "mqtt.net.cpu_us_per_delivery_residual",
                outcome.e2e.cpu_us_per_item - shard_ns / 1e3,
            ));
        }
    }

    let e2e = &outcome.e2e;
    // `(name, value, unit, direction)` in catalog order.
    let rows: Vec<(&'static str, f64, &'static str, Better)> = if args.trace {
        for (name, _) in &layers {
            assert!(
                PER_LAYER.iter().any(|m| m.name == *name),
                "{name} is not in the catalog"
            );
        }
        PER_LAYER
            .iter()
            .map(|m| {
                let value = layers
                    .iter()
                    .find(|(n, _)| *n == m.name)
                    .map_or(0.0, |(_, v)| *v);
                (m.name, value, m.unit, m.better)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(e2e.values())
            .map(|(m, v)| (m.name, v, m.unit, m.better))
            .collect()
    };

    let offered_per_s = match &nodes {
        Some(nodes) => nodes.offered_items_per_s,
        None => {
            let shape = loadgen::Shape::of(workload).expect("a _tcp workload");
            (shape.publishes_per_s * shape.fanout() as u64) as f64
        }
    };
    println!();
    println!(
        "{workload}: {}",
        WORKLOADS
            .iter()
            .find(|w| w.name == workload)
            .map_or("", |w| w.why)
    );
    println!(
        "  open loop, {offered_per_s} items/s offered, {seconds} s window, {} delay samples per window, mean delay {:.4} ms",
        e2e.samples_per_window, outcome.mean_delay_ms
    );
    for (name, value, unit, better) in &rows {
        println!(
            "  {name:<44} {value:>16.4} {unit:<6} ({} is better)",
            better.as_str()
        );
    }
    if !args.trace {
        // Measured in every run, bounded in none (see `catalog::END_TO_END`).
        for (name, value, unit) in [
            ("delay_p50_ms", e2e.delay_p50_ms, "ms"),
            ("delay_p99_ms", e2e.delay_p99_ms, "ms"),
            ("cpu_us_per_item", e2e.cpu_us_per_item, "us"),
        ] {
            println!("  {name:<44} {value:>16.4} {unit:<6} (reported, not bounded)");
        }
    }
    println!(
        "  {:<44} {:>16.6} (attempted {}, failed {})",
        "failed_fraction",
        e2e.failed as f64 / e2e.attempted as f64,
        e2e.attempted,
        e2e.failed
    );
    for failure in &outcome.failures {
        println!("  CHECK FAILED: {failure}");
    }

    let correct = outcome.failures.is_empty();
    let metrics: Vec<(&str, f64, &str)> = rows.iter().map(|r| (r.0, r.1, r.2)).collect();
    let contract = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        e2e.attempted,
        e2e.failed,
        json::metrics_object(&metrics)
    );
    (correct, contract)
}

/// Runs one workload in a child process of its own (this binary with
/// `--workload`), passing its report through and returning its last line.
/// A process per workload, because `VmHWM` and the allocator's retained
/// heap are the process's, not the workload's.
fn run_workload_in_child(workload: &str, args: &Args) -> (bool, String) {
    let exe = std::env::current_exe().expect("own executable path");
    let output = std::process::Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .expect("run a workload in a child process");
    let text = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = text.lines().collect();
    let contract = lines.pop().unwrap_or("").to_owned();
    // The child's own header repeats ours.
    for line in lines.iter().skip(1) {
        println!("{line}");
    }
    (output.status.success(), contract)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("--loadgen") => return loadgen::main(&argv[1..]),
        Some("--agree") | Some("--check") => return compare::main(&argv),
        Some("--help") | Some("-h") => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let comparable = args.seconds == RUN_SECONDS;
    println!(
        "flowbench: nproc {}, dependency set {}, TCP workloads over loopback, seed {}, {} s{}",
        probe::nproc(),
        dependency_set(),
        args.seed,
        args.seconds,
        if comparable {
            ""
        } else {
            " (NOT COMPARABLE: not the committed run length)"
        }
    );

    // One workload runs here; all of them run one child process each.
    let results: Vec<(&str, bool, String)> = match &args.workload {
        Some(name) => {
            let workload = WORKLOADS
                .iter()
                .find(|w| w.name == name)
                .expect("checked by parse_args")
                .name;
            let (correct, contract) = run_workload(workload, &args);
            vec![(workload, correct, contract)]
        }
        None => WORKLOADS
            .iter()
            .map(|w| {
                let (correct, contract) = run_workload_in_child(w.name, &args);
                (w.name, correct, contract)
            })
            .collect(),
    };

    let members: Vec<String> = results
        .iter()
        .filter(|(_, _, contract)| contract.starts_with('{'))
        .map(|(workload, _, contract)| {
            format!("{{\"workload\": \"{workload}\", {}", &contract[1..])
        })
        .collect();
    let set = format!(
        "{{\"flowbench\": 1, \"comparable\": {comparable}, \"seconds\": {}, \"seed\": {}, \"trace\": {}, \"nproc\": {}, \"deps\": \"{}\", \"transport\": \"loopback\", \"results\": [{}]}}",
        args.seconds,
        args.seed,
        u8::from(args.trace),
        probe::nproc(),
        dependency_set(),
        members.join(", ")
    );
    if let Some(path) = &args.out {
        // Appended: several runs into one file compare by their medians.
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut file| writeln!(file, "{set}"));
        if let Err(e) = appended {
            eprintln!("cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }
    // Last line: the single workload's result in the driver's shape, or
    // the whole result set.
    match (&args.workload, results.first()) {
        (Some(_), Some((_, _, contract))) => println!("{contract}"),
        _ => println!("{set}"),
    }
    if results.iter().all(|(_, correct, _)| *correct) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
