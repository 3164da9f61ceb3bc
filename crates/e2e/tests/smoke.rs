//! All four workloads at `--smoke` sizes, both modes: every answer must
//! check out, and the names and units emitted must be exactly the ones
//! `BENCHMARK.json` declares — a metric renamed on one side only fails
//! here, under the workspace's ordinary `cargo test`.

use std::collections::BTreeSet;
use std::path::Path;

use batchbb_e2e::fixture::Kind;
use batchbb_e2e::json::Json;
use batchbb_e2e::run::{run, RunOpts};
use batchbb_e2e::suite::{result_line, MetricSpec, Spec};

fn spec() -> Spec {
    Spec::load(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json"))
        .expect("BENCHMARK.json loads")
}

fn declared(metrics: &[MetricSpec]) -> BTreeSet<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.clone()))
        .collect()
}

#[test]
fn workload_names_match_the_benchmark_file() {
    let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
    assert_eq!(spec().workloads, names);
}

#[test]
fn smoke_runs_emit_exactly_the_declared_metrics() {
    let spec = spec();
    for kind in Kind::ALL {
        for trace in [false, true] {
            let outcome = run(&RunOpts {
                kind,
                seed: 7,
                seconds: 0.0,
                trace,
                smoke: true,
                trace_out: None,
            });
            let label = format!("{} trace={trace}", kind.name());
            assert!(outcome.attempted > 0, "{label}");
            assert_eq!(outcome.failed, 0, "{label}: {:?}", outcome.messages);
            assert!(outcome.correct, "{label}: {:?}", outcome.messages);

            let emitted: BTreeSet<(String, String)> = outcome
                .metrics
                .iter()
                .map(|m| (m.name.to_string(), m.unit.to_string()))
                .collect();
            assert_eq!(emitted.len(), outcome.metrics.len(), "{label}: duplicates");
            let want = declared(if trace {
                &spec.per_layer
            } else {
                &spec.end_to_end
            });
            assert_eq!(emitted, want, "{label}");

            // The result line is the contract with the driver: it must
            // parse, carry exactly four keys, and every value a number.
            let doc = Json::parse(&result_line(&outcome)).expect("result line is JSON");
            let keys: Vec<&str> = doc.members().iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            for (name, metric) in doc.get("metrics").unwrap().members() {
                let value = metric.get("value").and_then(Json::as_f64);
                assert!(value.is_some_and(f64::is_finite), "{label}: {name}");
            }
            if !trace {
                for metric in &outcome.metrics {
                    assert!(metric.value > 0.0, "{label}: {} is zero", metric.name);
                }
            }
        }
    }
}

#[test]
fn the_same_seed_gives_the_same_counts() {
    let counts = |seed| {
        let outcome = run(&RunOpts {
            kind: Kind::RemoteShards,
            seed,
            seconds: 0.0,
            trace: true,
            smoke: true,
            trace_out: None,
        });
        let pick = |name: &str| {
            outcome
                .metrics
                .iter()
                .find(|m| m.name == name)
                .map(|m| m.value)
                .unwrap()
        };
        (
            pick("core.master_keys_per_batch"),
            pick("storage.shard_rpcs"),
        )
    };
    let first = counts(11);
    assert_eq!(first, counts(11));
    assert_ne!(first, counts(12));
}
