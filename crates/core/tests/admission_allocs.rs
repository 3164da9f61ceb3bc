//! Admission allocates a fixed handful of buffers, not one per master key,
//! and a warm one scores nothing.  A batch's master list is flat and built
//! once (`BatchQueries::master`), and so is its progression, once per
//! penalty key (`Penalty::scoring_key`).  The first executor over a batch
//! allocates the progression (one scratch column to score through, a
//! buffer to sort the entries in, then the shared entries), its per-slot
//! `seen` values and its estimates — however many keys the batch touches;
//! a later one under an equal key compares the keys and shares the
//! progression, scoring no key, and a warm step allocates nothing.
//! Counted, not timed: the global allocator below counts the allocations
//! of the calling thread, and a counting penalty its `importance` calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};

use batchbb_core::{BatchQueries, ProgressiveExecutor};
use batchbb_penalty::{LpPenalty, Penalty, PenaltyKey, Sse};
use batchbb_query::{partition, LinearStrategy, RangeSum, WaveletStrategy};
use batchbb_storage::MemoryStore;
use batchbb_tensor::{Shape, Tensor};
use batchbb_wavelet::Wavelet;

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

/// Allocations `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

#[test]
fn admission_allocations_do_not_grow_with_the_master_list() {
    let (small, large, store) = fixture();
    let keys = |b: &BatchQueries| b.master().len();
    let (small_allocs, _) = allocations(|| ProgressiveExecutor::new(&small, &Sse, &store));
    let (large_allocs, mut exec) = allocations(|| ProgressiveExecutor::new(&large, &Sse, &store));
    assert_eq!(
        small_allocs,
        large_allocs,
        "construction over {} and {} master keys",
        keys(&small),
        keys(&large)
    );

    // Warm steps over an in-memory store: the fold, the `seen` record and
    // the final canonical re-sum all reuse admission's buffers.
    assert_eq!(exec.run(16), 16);
    let (step_allocs, steps) = allocations(|| exec.run_to_end());
    assert_eq!(steps, keys(&large) - 16);
    assert!(exec.is_exact());
    assert_eq!(step_allocs, 0, "{steps} warm steps");
}

#[test]
fn a_warm_admission_allocates_no_progression() {
    let (small, large, store) = fixture();
    let admit =
        |batch: &BatchQueries| allocations(|| ProgressiveExecutor::new(batch, &Sse, &store));
    let (small_cold, _) = admit(&small);
    let (large_cold, first) = admit(&large);
    let (small_warm, _) = admit(&small);
    let (large_warm, second) = admit(&large);
    assert!(
        std::ptr::eq(first.progression(), second.progression()),
        "the second admission sorted again"
    );
    assert_eq!(
        small_warm,
        large_warm,
        "warm admissions over {} and {} master keys",
        small.master().len(),
        large.master().len()
    );
    // What the warm admission skips is the progression: the scratch
    // column, the sort buffer, then the shared entries.
    assert_eq!(small_warm + 3, small_cold);
    assert_eq!(large_warm + 3, large_cold);

    // The batch keeps its progression: an admission after every executor
    // of the batch is gone is as warm.
    drop((first, second));
    let (alone, _) = admit(&large);
    assert_eq!(alone, large_warm);
}

/// `Sse`, counting its `importance` calls; under `Sse`'s key when `keyed`,
/// under none otherwise.
struct Counted {
    keyed: bool,
    calls: AtomicUsize,
}

impl Counted {
    fn new(keyed: bool) -> Self {
        Counted {
            keyed,
            calls: AtomicUsize::new(0),
        }
    }

    /// The calls since the last `take`.
    fn take(&self) -> usize {
        self.calls.swap(0, Ordering::Relaxed)
    }
}

impl Penalty for Counted {
    fn name(&self) -> String {
        "counted-SSE".to_string()
    }

    fn evaluate(&self, errors: &[f64]) -> f64 {
        Sse.evaluate(errors)
    }

    fn importance(&self, column: &[(usize, f64)], batch_size: usize) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Sse.importance(column, batch_size)
    }

    fn homogeneity(&self) -> f64 {
        Sse.homogeneity()
    }

    fn scoring_key(&self) -> Option<PenaltyKey> {
        self.keyed.then(|| Sse.scoring_key()).flatten()
    }
}

#[test]
fn a_warm_admission_scores_nothing() {
    let (_, batch, store) = fixture();
    let counted = Counted::new(true);
    let first = ProgressiveExecutor::new(&batch, &counted, &store);
    assert_eq!(counted.take(), batch.master().len(), "cold admission");
    for _ in 0..3 {
        let warm = ProgressiveExecutor::new(&batch, &counted, &store);
        assert_eq!(counted.take(), 0, "warm admission");
        assert!(std::ptr::eq(first.progression(), warm.progression()));
    }
}

#[test]
fn a_keyless_admission_scores_every_key_every_time() {
    let (_, batch, store) = fixture();
    let keyless = Counted::new(false);
    for _ in 0..3 {
        ProgressiveExecutor::new(&batch, &keyless, &store);
        assert_eq!(keyless.take(), batch.master().len());
    }
}

#[test]
fn an_admission_under_another_key_sorts_the_first_again() {
    let (_, batch, store) = fixture();
    let (counted, keyless) = (Counted::new(true), Counted::new(false));
    let admit = |penalty: &dyn Penalty| drop(ProgressiveExecutor::new(&batch, penalty, &store));
    admit(&counted);
    assert_eq!(counted.take(), batch.master().len());
    // A keyless admission leaves the batch's progression as it was.
    admit(&keyless);
    admit(&counted);
    assert_eq!(counted.take(), 0);
    // Another key replaces it.
    admit(&LpPenalty::l1());
    admit(&counted);
    assert_eq!(counted.take(), batch.master().len());
    admit(&counted);
    assert_eq!(counted.take(), 0);
}

/// A store and two Db4 partition batches over a 64×64 domain, their
/// master lists built and the larger at least four times the smaller.
fn fixture() -> (BatchQueries, BatchQueries, MemoryStore) {
    let shape = Shape::new(vec![64, 64]).unwrap();
    let values = (0..shape.len()).map(|i| ((i * 7) % 5) as f64).collect();
    let data = Tensor::from_vec(shape.clone(), values).unwrap();
    let strategy = WaveletStrategy::new(Wavelet::Db4);
    let store = MemoryStore::from_entries(strategy.transform_data(&data));
    let batch = |cells: usize| {
        let queries = partition::random_partition(&shape, cells, 5)
            .into_iter()
            .map(RangeSum::count)
            .collect();
        let batch = BatchQueries::rewrite(&strategy, queries, &shape).unwrap();
        batch.master(); // admission finds the list built
        batch
    };
    let (small, large) = (batch(2), batch(48));
    let keys = |b: &BatchQueries| b.master().len();
    assert!(
        keys(&large) >= 4 * keys(&small),
        "{} vs {} master keys",
        keys(&large),
        keys(&small)
    );
    (small, large, store)
}
