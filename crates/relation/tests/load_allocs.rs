//! The load path allocates what it keeps, not once per record: a
//! relation is one row buffer, binning it into `Δ` goes straight to the
//! tensor offset, and a store bulk-load sizes its map once.  Counted, not
//! timed: the global allocator below counts the allocations of the calling
//! thread, and each path must make as many at 10,000 records as at 100,000.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use batchbb_relation::synth;
use batchbb_storage::MemoryStore;
use batchbb_tensor::CoeffKey;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting each allocation (and, through the
/// provided `alloc_zeroed` and `realloc`, each growth) on the thread making
/// it.
struct Counting;

// SAFETY: both methods forward their arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract. The count is a const-initialised
// thread-local `Cell`: it has no destructor and never allocates, so it
// cannot recurse into the allocator, even during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` (via `alloc`) with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread; what it returns is dropped
/// outside the count.
fn allocations<T>(f: impl FnOnce() -> T) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    let made = ALLOCATIONS.with(Cell::get) - before;
    drop(out);
    made
}

const SIZES: [usize; 2] = [10_000, 100_000];

#[test]
fn generating_and_binning_a_relation_allocates_per_load_not_per_record() {
    let [small, large] =
        SIZES.map(|n| allocations(|| synth::clustered(2, 10, n, 8, 1).to_frequency_distribution()));
    assert_eq!(small, large, "allocations at {SIZES:?} records");
}

#[test]
fn a_store_bulk_load_sizes_its_map_once() {
    let [small, large] = SIZES.map(|n| {
        let entries: Vec<(CoeffKey, f64)> = (0..n).map(|i| (CoeffKey::one(i), 1.0)).collect();
        allocations(move || MemoryStore::from_entries(entries))
    });
    assert_eq!(small, large, "allocations at {SIZES:?} entries");
}
