//! Forwarding conformance for the bench crate's measuring wrappers: both
//! forward `version_tag` and `quiesce` (the shared check lives with the
//! storage crate's own wrapper tests).

#[path = "../../storage/tests/common/forwarding.rs"]
mod forwarding;

use std::time::Duration;

use batchbb_bench::report::FetchCounter;
use batchbb_bench::slow::SlowStore;
use forwarding::Harness;

#[test]
fn slow_store_forwards() {
    let h = Harness::new();
    h.check(&SlowStore::new(h.probe(), Duration::ZERO), "SlowStore");
}

#[test]
fn fetch_counter_forwards() {
    let h = Harness::new();
    h.check(&FetchCounter::new(h.probe()), "FetchCounter");
}
