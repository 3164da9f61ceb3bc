//! Forwarding conformance for the bench crate's measuring wrapper: it
//! forwards `version_tag` and `quiesce` (the shared check lives with the
//! storage crate's own wrapper tests).

#[path = "../../storage/tests/common/forwarding.rs"]
mod forwarding;

use batchbb_bench::report::FetchCounter;
use forwarding::Harness;

#[test]
fn fetch_counter_forwards() {
    let h = Harness::new();
    h.check(&FetchCounter::new(h.probe()), "FetchCounter");
}
