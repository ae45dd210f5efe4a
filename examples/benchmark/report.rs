//! What a run reports: the metric catalogue (read from `BENCHMARK.json`, the one place names,
//! units, directions and bounds are fixed), the per-workload summary, the environment block,
//! the result file, the driver's result line, and `compare`.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use serde_json::{json, Map, Value};

use crate::stats::{resolved_percentile, tail_percentile, Summary};
use crate::workloads::{Round, Sizes, Workload, LANES};

/// `BENCHMARK.json` as committed with this source: the benchmark and its contract cannot
/// drift apart, because the program reads its metric list from the contract itself.
const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

#[derive(Debug, Clone, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the base median an end-to-end metric may worsen by; per-layer metrics have none.
    pub bound: Option<f64>,
}

#[derive(Debug, Clone)]
pub struct Catalogue {
    pub run_seconds: u64,
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

fn text(object: &Map, key: &str) -> Result<String, String> {
    object
        .get(key)
        .and_then(Value::as_str)
        .map(str::to_string)
        .ok_or_else(|| format!("BENCHMARK.json: missing string '{key}'"))
}

fn number(value: Option<&Value>) -> Option<f64> {
    match value {
        Some(Value::Number(n)) => Some(n.as_f64()),
        _ => None,
    }
}

impl Catalogue {
    pub fn load() -> Result<Catalogue, String> {
        let root: Value =
            serde_json::from_str(BENCHMARK_JSON).map_err(|e| format!("BENCHMARK.json: {e}"))?;
        let root = root.as_object().ok_or("BENCHMARK.json is not an object")?;
        let list = |key: &str| {
            root.get(key)
                .and_then(Value::as_array)
                .ok_or_else(|| format!("BENCHMARK.json: missing list '{key}'"))
        };
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            list(key)?
                .iter()
                .map(|entry| {
                    let entry = entry.as_object().ok_or("metric is not an object")?;
                    Ok(MetricSpec {
                        name: text(entry, "name")?,
                        unit: text(entry, "unit")?,
                        higher_is_better: text(entry, "better")? == "higher",
                        bound: number(entry.get("bound")),
                    })
                })
                .collect()
        };
        let workloads = list("workloads")?
            .iter()
            .map(|entry| {
                let entry = entry.as_object().ok_or("workload is not an object")?;
                Ok((text(entry, "name")?, text(entry, "why")?))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(Catalogue {
            run_seconds: number(root.get("run_seconds")).ok_or("missing run_seconds")? as u64,
            workloads,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }

    fn why(&self, workload: Workload) -> &str {
        self.workloads
            .iter()
            .find(|(name, _)| name == workload.name())
            .map_or("", |(_, why)| why)
    }

    fn spec(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }

    /// End-to-end metrics `result` lacks: every workload must report every one of them.
    pub fn missing_end_to_end(&self, result: &WorkloadResult) -> Vec<String> {
        self.end_to_end
            .iter()
            .filter(|m| !result.summaries.contains_key(&m.name))
            .map(|m| m.name.clone())
            .collect()
    }
}

/// Everything measured for one workload in one run.
#[derive(Debug, Clone)]
pub struct WorkloadResult {
    pub workload: Workload,
    /// Untraced rounds: the only source of end-to-end numbers.
    pub rounds: Vec<Round>,
    /// `work_per_s` of the traced round, for the tracing overhead.
    pub traced_rate: Option<f64>,
    /// Per-round values summarised over the untraced rounds, by metric name.
    pub summaries: BTreeMap<String, Summary>,
    /// Per-layer values: the traced round, the replay lane, and — for the per-layer metrics
    /// that need no wrapper — the untraced rounds' medians.
    pub layers: BTreeMap<String, f64>,
    /// Which percentile [`TAIL`] reports, and over how many pooled samples.
    pub tail: Option<(f64, usize)>,
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

/// The one end-to-end metric that is a percentile over the run's pooled latency samples.
const TAIL: &str = "tail_latency_us";

impl WorkloadResult {
    pub fn new(workload: Workload) -> Self {
        WorkloadResult {
            workload,
            rounds: Vec::new(),
            traced_rate: None,
            summaries: BTreeMap::new(),
            layers: BTreeMap::new(),
            tail: None,
            attempted: 0,
            failed: 0,
            problems: Vec::new(),
        }
    }

    pub fn absorb_problems(&mut self, round: &Round) {
        self.attempted += round.attempted;
        self.failed += round.failed;
        self.problems.extend(round.problems.iter().cloned());
    }

    pub fn summarise(&mut self, catalogue: &Catalogue) {
        let mut by_name: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for round in &self.rounds {
            for (name, value) in &round.values {
                by_name.entry(name).or_default().push(*value);
            }
        }
        self.summaries = by_name
            .into_iter()
            .map(|(name, values)| (name.to_string(), Summary::of(&values)))
            .collect();
        // The tail latency is a percentile, and a percentile wants samples: it is taken over
        // every call of every round of the run pooled together, not medianed over per-round
        // percentiles (whose per-process modes make that median jump). Its quartiles remain
        // those of the per-round values.
        let mut pooled: Vec<u64> = self
            .rounds
            .iter()
            .flat_map(|round| round.latencies_ns.iter().copied())
            .collect();
        pooled.sort_unstable();
        if let (false, Some(tail)) = (pooled.is_empty(), self.summaries.get_mut(TAIL)) {
            let (percentile, nanos) = tail_percentile(&pooled);
            tail.median = nanos as f64 / 1e3;
            self.tail = Some((percentile, pooled.len()));
        }
        for (name, p) in [("driver.p90_us", 90.0), ("driver.p99_us", 99.0)] {
            if let Some(nanos) = resolved_percentile(&pooled, p) {
                self.layers.insert(name.into(), nanos as f64 / 1e3);
            }
        }
        for metric in &catalogue.per_layer {
            if let Some(summary) = self.summaries.get(&metric.name) {
                self.layers.insert(metric.name.clone(), summary.median);
            }
        }
        // End-to-end numbers always come from untraced rounds; what the traced round lost
        // against their median is the price of the wrappers.
        if let (Some(traced), Some(untraced)) = (self.traced_rate, self.summaries.get("work_per_s"))
        {
            self.layers.insert(
                "trace.overhead_pct".into(),
                (untraced.median / traced - 1.0) * 100.0,
            );
        }
    }
}

fn format_value(value: f64) -> String {
    let magnitude = value.abs();
    if magnitude >= 1000.0 {
        format!("{value:.0}")
    } else if magnitude >= 10.0 {
        format!("{value:.2}")
    } else {
        format!("{value:.4}")
    }
}

/// Every metric by name with its unit: end-to-end first, then whatever else the rounds
/// measured, then (traced runs) the per-layer table.
pub fn print_table(result: &WorkloadResult, catalogue: &Catalogue, traced: bool) {
    println!(
        "\n== {} — {} rounds, {} operations attempted, {} failed",
        result.workload.name(),
        result.rounds.len(),
        result.attempted,
        result.failed
    );
    println!("   {}", catalogue.why(result.workload));
    println!(
        "   {:<38} {:>12} {:>12} {:>12} {:>6}  unit",
        "metric", "median", "q1", "q3", "rounds"
    );
    let row = |name: &str, summary: &Summary, unit: &str| {
        println!(
            "   {name:<38} {:>12} {:>12} {:>12} {:>6}  {unit}",
            format_value(summary.median),
            format_value(summary.q1),
            format_value(summary.q3),
            summary.rounds
        );
    };
    for metric in &catalogue.end_to_end {
        if let Some(summary) = result.summaries.get(&metric.name) {
            row(&metric.name, summary, &metric.unit);
        }
    }
    for (name, summary) in &result.summaries {
        if !catalogue.end_to_end.iter().any(|m| &m.name == name) {
            let unit = catalogue.spec(name).map_or("", |m| m.unit.as_str());
            row(name, summary, unit);
        }
    }
    if traced {
        println!("   -- per layer (traced round, replay lane, registry deltas)");
        for metric in &catalogue.per_layer {
            if let Some(value) = result.layers.get(&metric.name) {
                println!(
                    "   {:<38} {:>12}  {}",
                    metric.name,
                    format_value(*value),
                    metric.unit
                );
            }
        }
    }
    for problem in &result.problems {
        println!("   INCORRECT: {problem}");
    }
}

/// The object the driver reads off the last line of standard output.
pub fn driver_line(result: &WorkloadResult, catalogue: &Catalogue, traced: bool) -> String {
    let mut metrics = Map::new();
    let mut complete = true;
    if traced {
        for metric in &catalogue.per_layer {
            // A per-layer metric a workload never exercises reads 0: no time spent, no count.
            let value = result.layers.get(&metric.name).copied().unwrap_or(0.0);
            metrics.insert(
                metric.name.clone(),
                json!({"value": value, "unit": metric.unit}),
            );
        }
    } else {
        for metric in &catalogue.end_to_end {
            let value = result.summaries.get(&metric.name).map(|s| s.median);
            complete &= value.is_some();
            metrics.insert(
                metric.name.clone(),
                json!({"value": value.unwrap_or(0.0), "unit": metric.unit}),
            );
        }
    }
    json!({
        "correct": complete && result.problems.is_empty(),
        "attempted": result.attempted.max(1),
        "failed": result.failed,
        "metrics": Value::Object(metrics),
    })
    .to_string()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .filter(|line| !line.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Where and how the numbers were taken.
pub fn environment(threads: usize, seed: u64, seconds: Duration, wall: Duration) -> Value {
    json!({
        "available_parallelism": threads,
        "load_generator_threads": LANES,
        "git_revision": command_line("git", &["rev-parse", "--short", "HEAD"]),
        "rustc": command_line("rustc", &["-V"]),
        "build": "release",
        "seed": seed,
        "seconds_per_workload": seconds.as_secs(),
        "link": "loopback",
        "wall_seconds": wall.as_secs_f64(),
    })
}

fn summary_json(summary: &Summary, unit: &str) -> Value {
    json!({
        "value": summary.median,
        "q1": summary.q1,
        "q3": summary.q3,
        "rounds": summary.rounds,
        "unit": unit,
    })
}

/// Append this invocation's runs to the result file (one entry per workload in `runs`, so a
/// file filled by repeated invocations holds the *set* of runs `compare` needs); returns its
/// path. The default file is named after the git revision.
pub fn write_results(
    out: Option<&String>,
    environment: &Value,
    results: &[WorkloadResult],
    catalogue: &Catalogue,
) -> Result<PathBuf, String> {
    let field = |key: &str| environment.as_object().and_then(|e| e.get(key));
    let path = match out {
        Some(path) => PathBuf::from(path),
        None => {
            let revision = field("git_revision")
                .and_then(Value::as_str)
                .unwrap_or("unknown");
            Path::new("target")
                .join("benchmark")
                .join(format!("results-{revision}.json"))
        }
    };
    let mut workloads: Map = std::fs::read_to_string(&path)
        .ok()
        .and_then(|text| serde_json::from_str::<Value>(&text).ok())
        .and_then(|value| value.as_object()?.get("workloads")?.as_object().cloned())
        .unwrap_or_default();
    let sizes = Sizes::full();
    for result in results {
        let metrics: Map = result
            .summaries
            .iter()
            .map(|(name, summary)| {
                let unit = catalogue.spec(name).map_or("", |m| m.unit.as_str());
                (name.clone(), summary_json(summary, unit))
            })
            .collect();
        let layers: Map = result
            .layers
            .iter()
            .map(|(name, value)| (name.clone(), json!(*value)))
            .collect();
        let (tail_percentile, tail_samples) = result.tail.unwrap_or((0.0, 0));
        let run = json!({
            "seed": field("seed"),
            "rounds": result.rounds.len(),
            "attempted": result.attempted,
            "failed": result.failed,
            "correct": result.problems.is_empty(),
            "problems": result.problems,
            "tail_percentile": tail_percentile,
            "tail_samples": tail_samples,
            "metrics": Value::Object(metrics),
            "layers": Value::Object(layers),
        });
        let name = result.workload.name();
        let mut runs = workloads
            .get(name)
            .and_then(|entry| entry.as_object()?.get("runs")?.as_array().cloned())
            .unwrap_or_default();
        runs.push(run);
        workloads.insert(
            name.to_string(),
            json!({
                "why": catalogue.why(result.workload),
                "sizes": sizes.describe(result.workload),
                "storage": result.workload.storage(),
                "runs": runs,
            }),
        );
    }
    let document = json!({
        "environment": environment,
        "workloads": Value::Object(workloads),
    });
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{document}\n"))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(path)
}

// -- compare -------------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side exceeds the bound (or a side has too few runs to
    /// have a spread): the two cannot be told apart at the resolution the bound demands.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Runs a side needs before its quartiles mean anything.
const MIN_RUNS: usize = 3;

/// Judge `new` against `base` for one metric; each summary is over that side's runs.
pub fn judge(base: &Summary, new: &Summary, higher_is_better: bool, bound: f64) -> Verdict {
    let resolved = |side: &Summary| side.rounds >= MIN_RUNS && side.spread() <= bound;
    if !resolved(base) || !resolved(new) {
        return Verdict::Unresolved;
    }
    let worse_by = if higher_is_better {
        (base.median - new.median) / base.median
    } else {
        (new.median - base.median) / base.median
    };
    if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// Per workload and metric, the reported value of every run in the file.
fn load_runs(path: &str) -> Result<BTreeMap<String, BTreeMap<String, Vec<f64>>>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let root: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    let workloads = root
        .as_object()
        .and_then(|r| r.get("workloads"))
        .and_then(Value::as_object)
        .ok_or_else(|| format!("{path}: no 'workloads' object"))?;
    let mut out = BTreeMap::new();
    for (workload, entry) in workloads {
        let runs = entry
            .as_object()
            .and_then(|e| e.get("runs"))
            .and_then(Value::as_array)
            .ok_or_else(|| format!("{path}: {workload} has no 'runs'"))?;
        let mut values: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        for run in runs {
            let metrics = run.as_object().and_then(|r| r.get("metrics")?.as_object());
            for (name, metric) in metrics.into_iter().flatten() {
                if let Some(value) = number(metric.as_object().and_then(|m| m.get("value"))) {
                    values.entry(name.clone()).or_default().push(value);
                }
            }
        }
        out.insert(workload.clone(), values);
    }
    Ok(out)
}

/// `compare A.json B.json`: one row per workload × end-to-end metric. Each file holds a set
/// of runs; a side's value is the median over its runs and its spread their inter-quartile
/// range — the same statistics the acceptance check applies.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [base_path, new_path] = args else {
        return Err("usage: benchmark compare A.json B.json".into());
    };
    let catalogue = Catalogue::load()?;
    let (base, new) = (load_runs(base_path)?, load_runs(new_path)?);
    println!("base A = {base_path}\n new B = {new_path}\n");
    println!(
        "{:<17} {:<16} {:>4} {:>12} {:>7} {:>4} {:>12} {:>7} {:>7} {:>6}  verdict",
        "workload",
        "metric",
        "runs",
        "A median",
        "A iqr",
        "runs",
        "B median",
        "B iqr",
        "B/A",
        "bound"
    );
    let mut worst = Verdict::Ok;
    for (workload, base_metrics) in &base {
        let Some(new_metrics) = new.get(workload) else {
            continue;
        };
        for metric in &catalogue.end_to_end {
            let (Some(a), Some(b)) = (
                base_metrics.get(&metric.name),
                new_metrics.get(&metric.name),
            ) else {
                continue;
            };
            let (a, b) = (Summary::of(a), Summary::of(b));
            let bound = metric.bound.unwrap_or(0.0);
            let verdict = judge(&a, &b, metric.higher_is_better, bound);
            if verdict != Verdict::Ok && worst != Verdict::Regressed {
                worst = verdict;
            }
            println!(
                "{workload:<17} {:<16} {:>4} {:>12} {:>6.1}% {:>4} {:>12} {:>6.1}% {:>7.3} {:>5.0}%  {}",
                metric.name,
                a.rounds,
                format_value(a.median),
                a.spread() * 100.0,
                b.rounds,
                format_value(b.median),
                b.spread() * 100.0,
                b.median / a.median,
                bound * 100.0,
                verdict.label()
            );
        }
    }
    println!(
        "\nB/A is the ratio of medians over runs, base A; iqr is the inter-quartile range over \
         a side's runs as a share of its median; a side needs {MIN_RUNS} runs to resolve"
    );
    Ok(if worst == Verdict::Ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn summary(median: f64, q1: f64, q3: f64) -> Summary {
        Summary {
            median,
            q1,
            q3,
            rounds: 7,
        }
    }

    #[test]
    fn verdict_follows_direction_bound_and_spread() {
        let base = summary(100.0, 99.0, 101.0);
        // Higher is better: 8 % down is within a 10 % bound, 12 % down is not.
        assert_eq!(
            judge(&base, &summary(92.0, 91.0, 93.0), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &summary(88.0, 87.0, 89.0), true, 0.10),
            Verdict::Regressed
        );
        // An improvement is never a regression, in either direction.
        assert_eq!(
            judge(&base, &summary(150.0, 149.0, 151.0), true, 0.10),
            Verdict::Ok
        );
        assert_eq!(
            judge(&base, &summary(50.0, 49.0, 51.0), false, 0.10),
            Verdict::Ok
        );
        // Lower is better: 12 % up regresses.
        assert_eq!(
            judge(&base, &summary(112.0, 111.0, 113.0), false, 0.10),
            Verdict::Regressed
        );
        // A spread wider than the bound on either side resolves nothing.
        assert_eq!(
            judge(&base, &summary(100.0, 90.0, 105.0), true, 0.10),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&summary(100.0, 80.0, 100.0), &base, true, 0.10),
            Verdict::Unresolved
        );
        // Neither do two runs: a side with no spread to speak of cannot vouch for its median.
        let thin = Summary {
            rounds: 2,
            ..base.clone()
        };
        assert_eq!(judge(&thin, &base, true, 0.10), Verdict::Unresolved);
    }

    #[test]
    fn the_committed_contract_parses_and_is_within_its_own_limits() {
        let catalogue = Catalogue::load().unwrap();
        assert!((1..=60).contains(&catalogue.run_seconds));
        assert_eq!(
            catalogue
                .workloads
                .iter()
                .map(|(name, _)| name.as_str())
                .collect::<Vec<_>>(),
            Workload::ALL.map(Workload::name)
        );
        assert!(catalogue.workloads.iter().all(|(_, why)| why.len() <= 200));
        assert!((1..=16).contains(&catalogue.end_to_end.len()));
        assert!((1..=128).contains(&catalogue.per_layer.len()));
        let setup = catalogue.spec("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.higher_is_better), ("s", false));
        for metric in &catalogue.end_to_end {
            let bound = metric.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", metric.name);
        }
        assert!(catalogue.per_layer.iter().all(|m| m.bound.is_none()));
        let mut names: Vec<&str> = catalogue
            .end_to_end
            .iter()
            .chain(&catalogue.per_layer)
            .map(|m| m.name.as_str())
            .collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            catalogue.end_to_end.len() + catalogue.per_layer.len(),
            "metric names are used once"
        );
    }
}
