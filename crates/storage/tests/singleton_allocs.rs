//! A singleton read allocates nothing.  `try_get` is `submit(&[key])`
//! taken with `wait_one`, and routing it through the general window body
//! instead (two `Vec`s, a `HashMap` and a boxed completion per read)
//! measured +7.7 % on the end-to-end workload whose every step is a
//! singleton read through the shared cache.  Counted, not timed: the
//! global allocator below counts the allocations of the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use batchbb_storage::{CoefficientStore, MemoryStore, ShardedCachingStore, VersionedStore};
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

#[test]
fn singleton_reads_allocate_nothing() {
    let keys: Vec<CoeffKey> = (0..65).map(CoeffKey::one).collect();
    let entries = || keys[..64].iter().map(|k| (*k, 1.5));
    let memory = MemoryStore::from_entries(entries());
    let versioned = VersionedStore::from_entries(entries());
    // A non-empty overlay, so a view's read probes the overlay and the base.
    versioned.publish(&[(keys[3], 1.0)]);
    let view = versioned.pin();
    let cache = ShardedCachingStore::new(&memory);

    let stores: [(&str, &dyn CoefficientStore); 3] = [
        ("MemoryStore", &memory),
        ("VersionView", &view),
        ("cache hits", &cache),
    ];
    for (name, store) in stores {
        let read_all = || {
            for key in &keys {
                std::hint::black_box(store.try_get(key).expect("in-memory reads never fail"));
            }
        };
        read_all(); // warms what is allocated once: the cache's memo entries
        let before = ALLOCATIONS.with(Cell::get);
        read_all();
        assert_eq!(
            ALLOCATIONS.with(Cell::get) - before,
            0,
            "{name}: singleton try_get"
        );
    }
    let st = cache.stats();
    assert_eq!(
        (st.physical_reads, st.cache_hits),
        (65, 65),
        "the second pass hit"
    );
}
