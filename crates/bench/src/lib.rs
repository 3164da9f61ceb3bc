//! Shared plumbing for the experiment harnesses that regenerate every
//! table and figure of the paper (see DESIGN.md §3 for the index).

#![warn(missing_docs)]

use std::collections::HashMap;

use batchbb_query::{partition, HyperRect, RangeSum};
use batchbb_relation::{synth, FrequencyDistribution};
use batchbb_tensor::Shape;

pub mod cachebench;
pub mod shardbench;
pub mod slow;
pub mod spans;
pub mod trace;

/// Minimal `--flag value` parser for harness binaries.
///
/// Flags must be `--name value` pairs drawn from the names the binary
/// declares; anything else is rejected, so a mistyped flag can never run
/// the default mode and exit 0.
#[derive(Debug, Clone)]
pub struct Args {
    values: HashMap<String, String>,
}

impl Args {
    /// Parses `std::env::args()` against the binary's declared flags; on a
    /// rejected argument prints the reason and exits with status 2.
    pub fn parse(known: &[&str]) -> Self {
        Self::parse_from(std::env::args().skip(1).collect(), known).unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(2)
        })
    }

    /// Parses an explicit argument vector (no program name), so binaries
    /// can strip positional/multi-value flags before delegating. `Err`
    /// names the offending argument: a bare word, a flag not in `known`,
    /// or a flag without a value.
    pub fn parse_from(argv: Vec<String>, known: &[&str]) -> Result<Self, String> {
        let mut values = HashMap::new();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let flag = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got `{arg}`"))?;
            if !known.contains(&flag) {
                return Err(format!(
                    "unknown flag --{flag} (known: --{})",
                    known.join(", --")
                ));
            }
            let value = argv
                .next()
                .ok_or_else(|| format!("flag --{flag} needs a value"))?;
            values.insert(flag.to_string(), value);
        }
        Ok(Args { values })
    }

    /// Integer flag with default.
    pub fn usize(&self, name: &str, default: usize) -> usize {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} must be an integer"))
            })
            .unwrap_or(default)
    }

    /// u64 flag with default.
    pub fn u64(&self, name: &str, default: u64) -> u64 {
        self.values
            .get(name)
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("--{name} must be an integer"))
            })
            .unwrap_or(default)
    }

    /// String flag, if present.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.values.get(name).map(String::as_str)
    }

    /// Boolean flag (`--name true/false`) with default.
    pub fn flag(&self, name: &str, default: bool) -> bool {
        self.values
            .get(name)
            .map(|v| v == "true" || v == "1")
            .unwrap_or(default)
    }
}

/// The canonical §6 workload: a temperature measure cube plus a batch of
/// range-SUM(temperature) queries partitioning its domain.
pub struct TemperatureWorkload {
    /// The temperature-weighted cube (the paper's data, in Kelvin).
    pub cube: FrequencyDistribution,
    /// Its domain.
    pub domain: Shape,
    /// The partition ranges.
    pub ranges: Vec<HyperRect>,
    /// The batch: one COUNT-shaped query per range against the weighted
    /// cube (= SUM(temperature) per range).
    pub queries: Vec<RangeSum>,
    /// Ground truth per query (direct scan of the cube).
    pub exact: Vec<f64>,
    /// Number of raw observation records generated.
    pub records: usize,
}

/// Builds the §6 workload.
///
/// * `records` — observation count (the paper used 15.7 M; defaults in the
///   harnesses are laptop-scale and flag-adjustable);
/// * `cells` — number of ranges in the partition (paper: 512);
/// * `with_alt` — include the altitude dimension (the paper's cube is 4-D;
///   the 3-D default matches its per-query coefficient counts more closely,
///   see EXPERIMENTS.md);
/// * `dyadic` — dyadically aligned partition (paper-consistent) or
///   arbitrary random splits (harder ablation);
/// * `gridded` — station-grid observations (smooth `Δ`, the paper's
///   regime) or independent draws (rough `Δ`, slower error decay);
/// * `seed` — workload RNG seed.
pub fn temperature_workload_ext(
    records: usize,
    cells: usize,
    with_alt: bool,
    dyadic: bool,
    gridded: bool,
    seed: u64,
) -> TemperatureWorkload {
    let cfg = synth::TemperatureConfig {
        records,
        seed,
        lat_bits: 5,
        lon_bits: 6,
        alt_bits: if with_alt { Some(4) } else { None },
        time_bits: 5,
        temp_bits: 6,
        gridded,
    };
    let dataset = cfg.generate();
    let records = dataset.len();
    let temp_attr = dataset.schema().attribute_index("temperature").unwrap();
    // Kelvin offset keeps every cell weight positive, like the JPL data.
    let cube = dataset.to_measure_cube(temp_attr, 273.15);
    let domain = cube.schema().domain();
    let ranges = if dyadic {
        partition::dyadic_partition(&domain, cells, seed.wrapping_add(1))
    } else {
        partition::random_partition(&domain, cells, seed.wrapping_add(1))
    };
    let queries: Vec<RangeSum> = ranges.iter().cloned().map(RangeSum::count).collect();
    let exact: Vec<f64> = queries
        .iter()
        .map(|q| q.eval_direct(cube.tensor()))
        .collect();
    TemperatureWorkload {
        cube,
        domain,
        ranges,
        queries,
        exact,
        records,
    }
}

/// [`temperature_workload_ext`] with the paper-default gridded network.
pub fn temperature_workload(
    records: usize,
    cells: usize,
    with_alt: bool,
    dyadic: bool,
    seed: u64,
) -> TemperatureWorkload {
    temperature_workload_ext(records, cells, with_alt, dyadic, true, seed)
}

/// Log-spaced retrieval budgets from 1 to `max`, inclusive, matching the
/// paper's log-scale x-axes.
pub fn log_budgets(max: usize) -> Vec<usize> {
    let mut out = Vec::new();
    let mut b = 1usize;
    while b < max {
        out.push(b);
        b *= 2;
    }
    out.push(max);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use batchbb_query::partition::is_partition;

    #[test]
    fn workload_is_consistent() {
        let w = temperature_workload(20_000, 32, true, true, 5);
        assert_eq!(w.queries.len(), 32);
        assert_eq!(w.exact.len(), 32);
        assert_eq!(w.domain.rank(), 4);
        assert!(is_partition(&w.domain, &w.ranges));
        assert!(w.exact.iter().all(|&x| x > 0.0), "Kelvin sums are positive");
    }

    #[test]
    fn args_accept_declared_flags_only() {
        let parse = |argv: &[&str]| {
            Args::parse_from(
                argv.iter().map(|a| a.to_string()).collect(),
                &["records", "seed"],
            )
        };
        let args = parse(&["--records", "50", "--seed", "9"]).unwrap();
        assert_eq!((args.usize("records", 1), args.u64("seed", 1)), (50, 9));
        assert_eq!(parse(&[]).unwrap().usize("records", 7), 7);
        let unknown = parse(&["--mode", "demo"]).unwrap_err();
        assert!(unknown.contains("--mode"), "names the flag: {unknown}");
        let bare = parse(&["--records"]).unwrap_err();
        assert!(bare.contains("--records"), "names the flag: {bare}");
        assert!(
            parse(&["records", "50"]).is_err(),
            "bare words are rejected"
        );
    }

    #[test]
    fn log_budgets_cover_range() {
        assert_eq!(log_budgets(10), vec![1, 2, 4, 8, 10]);
        assert_eq!(log_budgets(1), vec![1]);
        assert_eq!(log_budgets(8), vec![1, 2, 4, 8]);
    }
}
