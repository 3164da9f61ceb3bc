//! The whole suite in one command: every workload, each in its own
//! process, untraced and traced, then one table of every metric by name
//! with unit, direction and regression bound.
//!
//! `BENCHMARK.json` is the single source of metric names, units,
//! directions and bounds; this module reads it rather than repeating it.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use crate::fixture::Kind;
use crate::json::{quote, Json};
use crate::run::Outcome;

/// One metric's declaration in `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// `true` when lower is better.
    pub lower_is_better: bool,
    /// Allowed worsening as a share of the baseline (end-to-end only).
    pub bound: Option<f64>,
}

/// What the harness needs of `BENCHMARK.json`.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures.
    pub run_seconds: f64,
    /// Workload names, in order.
    pub workloads: Vec<String>,
    /// End-to-end metrics, with bounds.
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics.
    pub per_layer: Vec<MetricSpec>,
}

impl Spec {
    /// Reads and validates the parts of `BENCHMARK.json` the harness uses.
    pub fn load(path: &Path) -> Result<Spec, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        let metrics = |key: &str| -> Result<Vec<MetricSpec>, String> {
            doc.get(key)
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("{key}: a metric lacks `{f}`"))
                    };
                    Ok(MetricSpec {
                        name: field("name")?,
                        unit: field("unit")?,
                        lower_is_better: field("better")? == "lower",
                        bound: m.get("bound").and_then(Json::as_f64),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: doc
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("run_seconds missing")?,
            workloads: doc
                .get("workloads")
                .map(Json::items)
                .unwrap_or_default()
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

/// The result line the driver reads: one JSON object, exactly the keys
/// `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(outcome: &Outcome) -> String {
    let mut line = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.correct, outcome.attempted, outcome.failed
    );
    for (i, metric) in outcome.metrics.iter().enumerate() {
        if i > 0 {
            line.push_str(", ");
        }
        // `{}` on an f64 prints the shortest text that round-trips: every
        // digit measured, and no exponent forms JSON would reject.
        let _ = write!(
            line,
            "{}: {{\"value\": {}, \"unit\": {}}}",
            quote(metric.name),
            metric.value,
            quote(metric.unit)
        );
    }
    line.push_str("}}");
    line
}

/// Prints a run for a human: messages, then one line per metric.
pub fn print_outcome(kind: Kind, outcome: &Outcome) {
    for message in &outcome.messages {
        println!("# {}: {message}", kind.name());
    }
    for metric in &outcome.metrics {
        match metric.spread {
            Some((n, p25, p75)) => println!(
                "# {:<34} {:>16.4} {:<6} n={n} p25={p25:.4} p75={p75:.4}",
                metric.name, metric.value, metric.unit
            ),
            None => println!(
                "# {:<34} {:>16.4} {}",
                metric.name, metric.value, metric.unit
            ),
        }
    }
    println!(
        "# {}: failed_share = {}/{}",
        kind.name(),
        outcome.failed,
        outcome.attempted
    );
}

/// Options of `bench_e2e suite`.
#[derive(Debug, Clone)]
pub struct SuiteOpts {
    /// Seed passed to every run.
    pub seed: u64,
    /// `--seconds` passed to every run (`None`: `run_seconds`).
    pub seconds: Option<f64>,
    /// Miniature sizes.
    pub smoke: bool,
    /// Untraced runs per workload.
    pub repeat: usize,
    /// Where to write the results file.
    pub out: Option<PathBuf>,
    /// Path of `BENCHMARK.json`.
    pub benchmark: PathBuf,
}

/// One child run's parsed result.
struct ChildRun {
    workload: String,
    trace: bool,
    line: String,
    doc: Json,
}

/// Runs one workload in a child process and parses its result line.
fn child(kind: Kind, trace: bool, opts: &SuiteOpts, seconds: f64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", kind.name()])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    if opts.smoke {
        command.arg("--smoke");
    }
    let output = command
        .output()
        .map_err(|e| format!("cannot start {}: {e}", kind.name()))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let line = lines.pop().unwrap_or_default().to_string();
    for human in lines {
        println!("{human}");
    }
    let doc = Json::parse(&line).map_err(|e| {
        format!(
            "{} (trace {}) printed no result ({}): {e}",
            kind.name(),
            u8::from(trace),
            output.status
        )
    })?;
    if !output.status.success() || doc.get("correct") != Some(&Json::Bool(true)) {
        return Err(format!(
            "{} (trace {}) failed: {} {line}",
            kind.name(),
            u8::from(trace),
            output.status
        ));
    }
    Ok(ChildRun {
        workload: kind.name().to_string(),
        trace,
        line,
        doc,
    })
}

/// Runs the suite; `Err` carries what went wrong after everything that
/// could run has run and been printed.
pub fn suite(opts: &SuiteOpts) -> Result<(), String> {
    let spec = Spec::load(&opts.benchmark)?;
    let seconds = opts
        .seconds
        .unwrap_or(if opts.smoke { 0.0 } else { spec.run_seconds });
    let mut runs = Vec::new();
    let mut errors = Vec::new();
    for kind in Kind::ALL {
        for (trace, times) in [(false, opts.repeat.max(1)), (true, 1)] {
            for _ in 0..times {
                match child(kind, trace, opts, seconds) {
                    Ok(run) => runs.push(run),
                    Err(e) => errors.push(e),
                }
            }
        }
    }

    println!();
    print_table("end-to-end (untraced)", &spec.end_to_end, false, &runs);
    println!();
    print_table("per-layer (traced)", &spec.per_layer, true, &runs);

    if let Some(path) = &opts.out {
        let mut text = format!(
            "{{\"seed\": {}, \"seconds\": {seconds}, \"runs\": [\n",
            opts.seed
        );
        for (i, run) in runs.iter().enumerate() {
            let _ = writeln!(
                text,
                "  {{\"workload\": {}, \"trace\": {}, \"result\": {}}}{}",
                quote(&run.workload),
                u8::from(run.trace),
                run.line,
                if i + 1 < runs.len() { "," } else { "" }
            );
        }
        text.push_str("]}\n");
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("\nresults written to {}", path.display());
    }
    if errors.is_empty() {
        Ok(())
    } else {
        Err(errors.join("\n"))
    }
}

/// Prints one table: a row per metric, a column per workload (the first
/// run's value when repeated).
fn print_table(title: &str, metrics: &[MetricSpec], trace: bool, runs: &[ChildRun]) {
    print!("{:<34} {:<6} {:<7} {:>6}", title, "unit", "better", "bound");
    for kind in Kind::ALL {
        print!(" {:>14}", kind.name());
    }
    println!();
    for metric in metrics {
        print!(
            "{:<34} {:<6} {:<7} {:>6}",
            metric.name,
            metric.unit,
            if metric.lower_is_better {
                "lower"
            } else {
                "higher"
            },
            metric
                .bound
                .map_or("-".to_string(), |b| format!("{:.0}%", 100.0 * b)),
        );
        for kind in Kind::ALL {
            let value = runs
                .iter()
                .find(|r| r.workload == kind.name() && r.trace == trace)
                .and_then(|r| {
                    r.doc
                        .get("metrics")?
                        .get(&metric.name)?
                        .get("value")?
                        .as_f64()
                });
            match value {
                Some(v) => print!(" {v:>14.4}"),
                None => print!(" {:>14}", "missing"),
            }
        }
        println!();
    }
}
