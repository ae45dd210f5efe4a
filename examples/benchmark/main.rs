//! The pasoa benchmark: four workloads, end-to-end and per-layer metrics, one traced run.
//!
//! ```sh
//! benchmark run     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1] [--out FILE]
//! benchmark trace   --workload <name>     (= run --trace 1)
//! benchmark compare A.json B.json
//! benchmark check   [--seed N]
//! ```
//!
//! See `README.md` beside this file for what is measured and why.

mod gen;
mod replay;
mod report;
mod spans;
mod stats;
mod workloads;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use report::{Catalogue, WorkloadResult};
use serde_json::{json, Value};
use workloads::{Round, RoundSpec, Workload};

/// The workload seed when none is given: the date the paper was presented.
const DEFAULT_SEED: u64 = 20050624;

/// Rounds a run measures at least, however short `--seconds` is (one fewer beside a traced
/// round, whose time comes out of the same budget).
const MIN_ROUNDS: usize = 3;

/// A traced run whose replay lane and first traced round finish within this is tracing a
/// short round.
const SHORT_TRACED_ROUND: Duration = Duration::from_secs(6);

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("child") => child(&args[1..]),
        Some("run") => run(&args[1..], None),
        Some("trace") => run(&args[1..], Some(true)),
        Some("compare") => report::compare(&args[1..]),
        Some("check") => check(&args[1..]),
        _ => Err("usage: benchmark <run|trace|compare|check> … (see README.md)".to_string()),
    };
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

/// `--name value` pairs after the subcommand.
struct Options(BTreeMap<String, String>);

impl Options {
    fn parse(args: &[String]) -> Result<Options, String> {
        let mut map = BTreeMap::new();
        let mut rest = args.iter();
        while let Some(flag) = rest.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --option, found '{flag}'"))?;
            let value = rest
                .next()
                .ok_or_else(|| format!("--{name} needs a value"))?;
            map.insert(name.to_string(), value.clone());
        }
        Ok(Options(map))
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.0.get(name) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("--{name} takes a whole number, not '{text}'")),
        }
    }
}

/// Measurements are only meaningful from an optimised build on a box that can run the two
/// load generators side by side.
fn refuse_unfit_environment() -> Result<usize, String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build; use --release".into());
    }
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    if threads < workloads::LANES {
        return Err(format!(
            "{threads} hardware thread(s); the load shape needs {}",
            workloads::LANES
        ));
    }
    Ok(threads)
}

// -- child: one round in a fresh process ---------------------------------------------------

fn child(args: &[String]) -> Result<ExitCode, String> {
    refuse_unfit_environment()?;
    let options = Options::parse(args)?;
    let name = options.0.get("workload").ok_or("child needs --workload")?;
    let spec = RoundSpec {
        workload: Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?,
        seed: options.number("seed", DEFAULT_SEED)?,
        round: options.number("round", 0)?,
        traced: options.number("trace", 0)? == 1,
        toy: options.number("toy", 0)? == 1,
    };
    let round = workloads::run_round(spec);
    let values: serde_json::Map = round
        .values
        .iter()
        .map(|(name, value)| (name.clone(), json!(*value)))
        .collect();
    println!(
        "{}",
        json!({
            "values": Value::Object(values),
            "attempted": round.attempted,
            "failed": round.failed,
            "problems": round.problems,
            "latencies_ns": round.latencies_ns,
        })
    );
    Ok(ExitCode::SUCCESS)
}

/// Run one round in a child process — a fresh address space, so memory one round's
/// deployment retains cannot inflate the next round's numbers — and read back its result.
fn spawn_round(spec: RoundSpec) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let output = Command::new(exe)
        .arg("child")
        .args(["--workload", spec.workload.name()])
        .args(["--seed", &spec.seed.to_string()])
        .args(["--round", &spec.round.to_string()])
        .args(["--trace", if spec.traced { "1" } else { "0" }])
        .args(["--toy", if spec.toy { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn round: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().unwrap_or("");
    if !output.status.success() {
        return Err(format!(
            "round {} of {} exited with {}: {line}",
            spec.round,
            spec.workload.name(),
            output.status
        ));
    }
    let parsed: Value =
        serde_json::from_str(line).map_err(|e| format!("round output '{line}': {e}"))?;
    let object = parsed.as_object().ok_or("round output is not an object")?;
    let count = |key: &str| match object.get(key) {
        Some(Value::Number(n)) => n.as_u64().unwrap_or(0),
        _ => 0,
    };
    let mut round = Round {
        attempted: count("attempted"),
        failed: count("failed"),
        ..Round::default()
    };
    if let Some(values) = object.get("values").and_then(Value::as_object) {
        for (name, value) in values {
            if let Value::Number(n) = value {
                round.values.insert(name.clone(), n.as_f64());
            }
        }
    }
    if let Some(samples) = object.get("latencies_ns").and_then(Value::as_array) {
        round.latencies_ns = samples
            .iter()
            .filter_map(|v| match v {
                Value::Number(n) => n.as_u64(),
                _ => None,
            })
            .collect();
    }
    if let Some(problems) = object.get("problems").and_then(Value::as_array) {
        round.problems = problems
            .iter()
            .filter_map(|p| p.as_str().map(str::to_string))
            .collect();
    }
    Ok(round)
}

// -- run / trace ---------------------------------------------------------------------------

fn run(args: &[String], force_trace: Option<bool>) -> Result<ExitCode, String> {
    let threads = refuse_unfit_environment()?;
    let began = Instant::now();
    let options = Options::parse(args)?;
    let catalogue = Catalogue::load()?;
    let seed = options.number("seed", DEFAULT_SEED)?;
    let seconds = Duration::from_secs(options.number("seconds", catalogue.run_seconds)?);
    let traced = force_trace.unwrap_or(options.number("trace", 0)? == 1);
    let selected = match options.0.get("workload").map(String::as_str) {
        None | Some("all") => Workload::ALL.to_vec(),
        Some(name) => {
            vec![Workload::parse(name).ok_or_else(|| format!("unknown workload '{name}'"))?]
        }
    };

    let mut results = Vec::new();
    for workload in &selected {
        let result = measure(*workload, seed, seconds, traced, false, &catalogue)?;
        report::print_table(&result, &catalogue, traced);
        results.push(result);
    }
    let environment = report::environment(threads, seed, seconds, began.elapsed());
    let path = report::write_results(options.0.get("out"), &environment, &results, &catalogue)?;
    println!("results written to {}", path.display());
    // The driver's contract: the last line of a single-workload run is its result object.
    if let [result] = results.as_slice() {
        println!("{}", report::driver_line(result, &catalogue, traced));
    }
    let correct = results.iter().all(|r| r.problems.is_empty());
    Ok(if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Measure one workload for about `seconds`: untraced rounds until the time is used, each in
/// its own process; with `traced`, the replay lane and the traced rounds come first. `toy`
/// selects the sizes `check` runs.
fn measure(
    workload: Workload,
    seed: u64,
    seconds: Duration,
    traced: bool,
    toy: bool,
    catalogue: &Catalogue,
) -> Result<WorkloadResult, String> {
    let began = Instant::now();
    let mut result = WorkloadResult::new(workload);
    let spec = |round: u64, traced: bool| RoundSpec {
        workload,
        seed,
        round,
        traced,
        toy,
    };
    if traced {
        result.layers.extend(replay::run(seed, toy));
        // Round numbers of traced rounds are disjoint from the untraced ones', so a traced
        // round's inputs are its own. A short round is a noisy estimate of its own speed (a
        // process lands in a fast or a slow scheduling mode for its whole life), so short
        // rounds are traced three times and the one of median speed is kept.
        let mut traced_rounds = vec![spawn_round(spec(1 << 32, true))?];
        if began.elapsed() < SHORT_TRACED_ROUND {
            for extra in 1..3 {
                traced_rounds.push(spawn_round(spec((1 << 32) + extra, true))?);
            }
        }
        for round in &traced_rounds {
            result.absorb_problems(round);
        }
        let speed = |round: &Round| round.values.get("work_per_s").copied().unwrap_or(0.0);
        traced_rounds.sort_by(|a, b| speed(a).total_cmp(&speed(b)));
        let round = traced_rounds.swap_remove(traced_rounds.len() / 2);
        result.traced_rate = round.values.get("work_per_s").copied();
        result.layers.extend(round.values);
    }
    let min_rounds = if traced { MIN_ROUNDS - 1 } else { MIN_ROUNDS };
    let mut slowest = Duration::ZERO;
    loop {
        let started = Instant::now();
        let round = spawn_round(spec(result.rounds.len() as u64, false))?;
        slowest = slowest.max(started.elapsed());
        result.absorb_problems(&round);
        result.rounds.push(round);
        // Stop once another round would overrun the run's length.
        if result.rounds.len() >= min_rounds && began.elapsed() + slowest > seconds {
            break;
        }
    }
    result.summarise(catalogue);
    Ok(result)
}

// -- check ---------------------------------------------------------------------------------

/// Every workload at toy sizes with every verifier on — the least a run does: two untraced
/// rounds, the traced rounds, the replay lane — plus the catalogue check: every metric
/// `BENCHMARK.json` names is produced.
fn check(args: &[String]) -> Result<ExitCode, String> {
    refuse_unfit_environment()?;
    let options = Options::parse(args)?;
    let seed = options.number("seed", DEFAULT_SEED)?;
    let catalogue = Catalogue::load()?;
    let began = Instant::now();
    let mut failures: Vec<String> = Vec::new();
    // A per-layer metric belongs to the workloads that exercise its layer; each must come
    // from at least one of them.
    let mut produced_layers = std::collections::BTreeSet::new();
    for workload in Workload::ALL {
        let result = measure(workload, seed, Duration::ZERO, true, true, &catalogue)?;
        failures.extend(
            result
                .problems
                .iter()
                .map(|p| format!("{}: {p}", workload.name())),
        );
        if result.failed > 0 {
            failures.push(format!(
                "{}: {} of {} operations failed",
                workload.name(),
                result.failed,
                result.attempted
            ));
        }
        failures.extend(
            catalogue
                .missing_end_to_end(&result)
                .into_iter()
                .map(|name| format!("{}: metric '{name}' was not produced", workload.name())),
        );
        println!(
            "check {:<17} {} untraced rounds, {} operations, {}",
            workload.name(),
            result.rounds.len(),
            result.attempted,
            if result.problems.is_empty() {
                "verified"
            } else {
                "FAILED"
            }
        );
        produced_layers.extend(result.layers.into_keys());
    }
    failures.extend(
        catalogue
            .per_layer
            .iter()
            .filter(|m| !produced_layers.contains(&m.name))
            .map(|m| format!("per-layer metric '{}' was produced by no workload", m.name)),
    );
    println!(
        "check finished in {:.1} s with seed {seed}",
        began.elapsed().as_secs_f64()
    );
    if failures.is_empty() {
        println!("check: ok");
        Ok(ExitCode::SUCCESS)
    } else {
        for failure in &failures {
            eprintln!("check: {failure}");
        }
        Ok(ExitCode::FAILURE)
    }
}
