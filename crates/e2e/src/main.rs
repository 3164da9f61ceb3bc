//! `bench_e2e` command line.
//!
//! ```text
//! bench_e2e --workload NAME --seed N --seconds S --trace 0|1 [--smoke] [--trace-out FILE]
//! bench_e2e suite [--seed N] [--seconds S] [--smoke] [--repeat R] [--out FILE] [--benchmark FILE]
//! bench_e2e compare A.json B.json [--benchmark FILE]
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command runs: one workload in
//! one mode, ending with the result object as the last line of stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use batchbb_e2e::compare::compare;
use batchbb_e2e::fixture::Kind;
use batchbb_e2e::run::{run, RunOpts};
use batchbb_e2e::suite::{print_outcome, result_line, suite, SuiteOpts};

/// `--name value` pairs, later ones winning.
struct Flags(Vec<(String, String)>);

/// Splits the arguments into flags and positionals; `--smoke` takes no
/// value, every other flag takes one.
fn parse(args: &[String]) -> Result<(Flags, Vec<String>), String> {
    let (mut flags, mut positional) = (Vec::new(), Vec::new());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.strip_prefix("--") {
            Some("smoke") => flags.push(("smoke".to_string(), String::new())),
            Some(name) => {
                let value = iter
                    .next()
                    .ok_or_else(|| format!("--{name} needs a value"))?;
                flags.push((name.to_string(), value.clone()));
            }
            None => positional.push(arg.clone()),
        }
    }
    Ok((Flags(flags), positional))
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.0
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn parsed<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        self.get(name)
            .map(|v| {
                v.parse()
                    .map_err(|_| format!("--{name}: cannot parse `{v}`"))
            })
            .transpose()
    }

    fn known(&self, allowed: &[&str]) -> Result<(), String> {
        match self.0.iter().find(|(n, _)| !allowed.contains(&n.as_str())) {
            Some((name, _)) => Err(format!("unknown flag --{name}")),
            None => Ok(()),
        }
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (flags, positional) = parse(&args)?;
    let benchmark = PathBuf::from(flags.get("benchmark").unwrap_or("BENCHMARK.json"));
    match positional.first().map(String::as_str) {
        Some("suite") => {
            flags.known(&["seed", "seconds", "smoke", "repeat", "out", "benchmark"])?;
            suite(&SuiteOpts {
                seed: flags.parsed("seed")?.unwrap_or(1),
                seconds: flags.parsed("seconds")?,
                smoke: flags.get("smoke").is_some(),
                repeat: flags.parsed("repeat")?.unwrap_or(1),
                out: flags.get("out").map(PathBuf::from),
                benchmark,
            })?;
            Ok(true)
        }
        Some("compare") => {
            flags.known(&["benchmark"])?;
            let [_, a, b] = positional.as_slice() else {
                return Err("usage: bench_e2e compare A.json B.json".to_string());
            };
            compare(a.as_ref(), b.as_ref(), &benchmark)
        }
        Some(other) => Err(format!("unknown command `{other}`")),
        None => {
            flags.known(&["workload", "seed", "seconds", "trace", "smoke", "trace-out"])?;
            let name = flags.get("workload").ok_or("--workload is required")?;
            let kind = Kind::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
            let smoke = flags.get("smoke").is_some();
            let seconds: f64 = flags
                .parsed("seconds")?
                .unwrap_or(if smoke { 0.0 } else { 10.0 });
            if !(0.0..=120.0).contains(&seconds) {
                return Err(format!("--seconds {seconds} is outside 0–120"));
            }
            let outcome = run(&RunOpts {
                kind,
                seed: flags.parsed("seed")?.unwrap_or(1),
                seconds,
                trace: match flags.get("trace").unwrap_or("0") {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
                },
                smoke,
                trace_out: flags.get("trace-out").map(PathBuf::from),
            });
            print_outcome(kind, &outcome);
            println!("{}", result_line(&outcome));
            Ok(outcome.correct)
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("bench_e2e: {message}");
            ExitCode::from(2)
        }
    }
}
