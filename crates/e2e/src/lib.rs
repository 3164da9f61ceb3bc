//! `bench_e2e` — the end-to-end benchmark of the batchbb workspace.
//!
//! One *wave* is one dashboard refresh: N SQL statements go through
//! `sqlish::plan` → `BatchQueries::rewrite` → one `BatchServer::serve*`
//! call, and the next wave starts when the previous one returns (a closed
//! loop with one client). Each wave is served twice — once to a certified
//! ε (0.1 % of the batch's initial Theorem-1 bound), once to exact — and
//! every answer is checked against an oracle the harness keeps itself.
//!
//! Four workloads stress different layers at a 2^20-cell domain; an
//! untraced run reports what a user sees (time to ε, time to exact,
//! throughput, retrievals to ε, set-up, memory) and a traced run splits
//! the same path per layer. Everything is measured *from outside*: by
//! timing calls into the program's public functions and by a harness-owned
//! [`timed_store::TimedStore`] beneath the I/O engines. `README.md` in this
//! crate has the metric table and the list of program entry points used.

#![warn(missing_docs)]

pub mod compare;
pub mod fixture;
pub mod json;
pub mod oracle;
pub mod recorder;
pub mod run;
pub mod suite;
pub mod timed_store;
pub mod waves;
