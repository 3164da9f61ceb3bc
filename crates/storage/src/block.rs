//! Block-organized store with an LRU buffer pool.
//!
//! §7 of the paper leaves "importance functions for disk blocks rather than
//! individual tuples" and "smart buffer management" as future work.  This
//! store makes the question concrete: coefficients are packed into
//! fixed-size blocks under a configurable layout, a retrieval fetches the
//! whole block, and a small LRU pool absorbs re-reads.  Comparing
//! `physical_reads` across layouts (✦ ablation `obs1_io_sharing
//! --block-size`, and the head-scan unit test below) shows how much the
//! paper's one-retrieval-per-coefficient model overstates physical I/O.

use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;
use std::sync::{Arc, Mutex};

use batchbb_tensor::{CoeffKey, KeyMap};

use crate::stats::Counters;
use crate::{CoefficientStore, Completion, IoStats, StorageError};

/// How coefficients are ordered before being packed into blocks.
#[derive(Clone, PartialEq)]
pub enum BlockLayout {
    /// Lexicographic key order (a naive layout).
    KeyOrder,
    /// Coarse-to-fine: sort by the sum of per-dimension pyramid levels
    /// first.  Progressive evaluation retrieves important (typically
    /// coarse) coefficients first, so this layout clusters them into the
    /// same blocks.
    LevelMajor,
    /// Workload-driven: coefficients sorted by descending importance under
    /// the supplied ranking, ties and absent keys falling back to key
    /// order (absent keys sort last).  When the ranking matches the
    /// progressive retrieval order of the batch, the head of the
    /// progression becomes one sequential scan — the "importance functions
    /// for disk blocks" layout §7 of the paper proposes.
    ImportanceOrder(Arc<KeyMap<f64>>),
}

impl std::fmt::Debug for BlockLayout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BlockLayout::KeyOrder => write!(f, "KeyOrder"),
            BlockLayout::LevelMajor => write!(f, "LevelMajor"),
            // The ranking can hold millions of keys; print its size, not
            // its contents.
            BlockLayout::ImportanceOrder(r) => write!(f, "ImportanceOrder(n={})", r.len()),
        }
    }
}

/// Pyramid level of a 1-D coefficient index (0 for the scaling coefficient).
fn level_of(xi: u32) -> u32 {
    if xi == 0 {
        0
    } else {
        xi.ilog2() + 1
    }
}

/// Maps an importance to a sort key that orders *descending* importance
/// ascending: higher importance → smaller rank.  Uses the standard
/// order-preserving f64→u64 bit trick (flip the sign bit for positives,
/// all bits for negatives), then inverts.  Keys absent from the ranking
/// get `u64::MAX` so they pack after every ranked key.
fn importance_rank(importance: Option<f64>) -> u64 {
    match importance {
        None => u64::MAX,
        Some(v) => {
            let bits = v.to_bits();
            let ascending = if bits >> 63 == 1 {
                !bits
            } else {
                bits | (1 << 63)
            };
            !ascending
        }
    }
}

fn layout_rank(layout: &BlockLayout, key: &CoeffKey) -> (u64, CoeffKey) {
    match layout {
        BlockLayout::KeyOrder => (0, *key),
        BlockLayout::LevelMajor => (
            key.coords().iter().map(|&c| u64::from(level_of(c))).sum(),
            *key,
        ),
        BlockLayout::ImportanceOrder(ranking) => (importance_rank(ranking.get(key).copied()), *key),
    }
}

struct Pool {
    capacity: usize,
    stamp: u64,
    blocks: HashMap<u64, (u64, Vec<f64>)>,
}

impl Pool {
    fn get(&mut self, id: u64) -> Option<&Vec<f64>> {
        self.stamp += 1;
        let stamp = self.stamp;
        match self.blocks.get_mut(&id) {
            Some((s, _)) => {
                *s = stamp;
                // Reborrow immutably for the caller.
                Some(&self.blocks.get(&id).expect("just touched").1)
            }
            None => None,
        }
    }

    fn insert(&mut self, id: u64, data: Vec<f64>) {
        if self.blocks.len() >= self.capacity {
            if let Some((&victim, _)) = self.blocks.iter().min_by_key(|(_, (s, _))| *s) {
                self.blocks.remove(&victim);
            }
        }
        self.stamp += 1;
        self.blocks.insert(id, (self.stamp, data));
    }
}

/// A file-backed store that reads whole blocks through an LRU buffer pool.
#[derive(Debug)]
pub struct BlockStore {
    file: File,
    index: KeyMap<u64>,
    block_size: usize,
    n_blocks: u64,
    pool: Mutex<PoolCell>,
    counters: Counters,
}

struct PoolCell(Pool);

impl std::fmt::Debug for PoolCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Pool(cap={}, resident={})",
            self.0.capacity,
            self.0.blocks.len()
        )
    }
}

impl BlockStore {
    /// Creates a block store at `path`.
    ///
    /// * `block_size` — coefficients per block (e.g. 512 ≈ a 4 KiB page);
    /// * `pool_blocks` — LRU buffer-pool capacity in blocks;
    /// * `layout` — physical ordering of coefficients.
    pub fn create(
        path: &Path,
        entries: impl IntoIterator<Item = (CoeffKey, f64)>,
        block_size: usize,
        pool_blocks: usize,
        layout: BlockLayout,
    ) -> io::Result<Self> {
        BlockStore::create_ranked(path, entries, block_size, pool_blocks, |k| {
            layout_rank(&layout, k)
        })
    }

    /// Creates a block store whose physical order is given by an arbitrary
    /// ranking function — e.g. the *workload importance* of each
    /// coefficient, which is exactly the "importance functions for disk
    /// blocks" §7 proposes: coefficients a known workload will retrieve
    /// early end up packed together, so the progressive access pattern
    /// turns sequential.
    pub fn create_ranked<R: Ord>(
        path: &Path,
        entries: impl IntoIterator<Item = (CoeffKey, f64)>,
        block_size: usize,
        pool_blocks: usize,
        rank: impl Fn(&CoeffKey) -> R,
    ) -> io::Result<Self> {
        assert!(block_size > 0, "block size must be positive");
        assert!(pool_blocks > 0, "pool must hold at least one block");
        let mut map: KeyMap<f64> = KeyMap::default();
        for (k, v) in entries {
            *map.entry(k).or_insert(0.0) += v;
        }
        let mut sorted: Vec<(CoeffKey, f64)> = map.into_iter().collect();
        sorted.sort_by(|a, b| rank(&a.0).cmp(&rank(&b.0)).then_with(|| a.0.cmp(&b.0)));

        let mut buf = Vec::with_capacity(sorted.len() * 8);
        let mut index = KeyMap::with_capacity_and_hasher(sorted.len(), Default::default());
        for (slot, (k, v)) in sorted.iter().enumerate() {
            buf.extend_from_slice(&v.to_le_bytes());
            index.insert(*k, slot as u64);
        }
        // Pad the final block so block reads are uniform (0.0 is eight
        // zero bytes).
        let n_blocks = sorted.len().div_ceil(block_size).max(1) as u64;
        buf.resize((n_blocks as usize) * block_size * 8, 0);
        let mut f = File::create(path)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        drop(f);

        Ok(BlockStore {
            file: File::open(path)?,
            index,
            block_size,
            n_blocks,
            pool: Mutex::new(PoolCell(Pool {
                capacity: pool_blocks,
                stamp: 0,
                blocks: HashMap::new(),
            })),
            counters: Counters::default(),
        })
    }

    /// Total number of blocks in the file.
    pub fn n_blocks(&self) -> u64 {
        self.n_blocks
    }

    fn read_block(&self, id: u64) -> io::Result<Vec<f64>> {
        let bytes = self.block_size * 8;
        let mut raw = vec![0u8; bytes];
        self.file.read_exact_at(&mut raw, id * bytes as u64)?;
        Ok(raw
            .chunks_exact(8)
            .map(|slot| f64::from_le_bytes(slot.try_into().expect("an 8-byte slot")))
            .collect())
    }

    /// The store's one read body: a window grouped by block, each block
    /// read at most once.  One retrieval per key, one physical read per
    /// non-resident block, a pool hit for every other key served from that
    /// block (absent keys touch nothing) — what the key-by-key sequence
    /// would be charged.  A failed block read becomes [`StorageError::Io`]
    /// naming the first key that wanted the block and fails the whole
    /// window; the pool is not populated from the failed read.
    fn read_window(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        let mut out = vec![None; keys.len()];
        // Present keys as (block, offset-in-block, output index), sorted so
        // each block's wants are contiguous and slot order gives one
        // forward pass over the file.
        let mut wanted: Vec<(u64, usize, usize)> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            self.counters.count_retrieval();
            if let Some(&slot) = self.index.get(key) {
                wanted.push((
                    slot / self.block_size as u64,
                    (slot % self.block_size as u64) as usize,
                    i,
                ));
            }
        }
        wanted.sort_unstable();
        let mut pool = self.pool.lock().unwrap_or_else(|e| e.into_inner());
        let mut run = 0;
        while run < wanted.len() {
            let block_id = wanted[run].0;
            let end = wanted[run..]
                .iter()
                .position(|&(b, _, _)| b != block_id)
                .map_or(wanted.len(), |p| run + p);
            if let Some(data) = pool.0.get(block_id) {
                for &(_, in_block, i) in &wanted[run..end] {
                    self.counters.count_hit();
                    out[i] = Some(data[in_block]);
                }
            } else {
                self.counters.count_physical();
                match self.read_block(block_id) {
                    Ok(data) => {
                        for (j, &(_, in_block, i)) in wanted[run..end].iter().enumerate() {
                            if j > 0 {
                                self.counters.count_hit();
                            }
                            out[i] = Some(data[in_block]);
                        }
                        pool.0.insert(block_id, data);
                    }
                    Err(e) => {
                        return Err(StorageError::Io {
                            key: keys[wanted[run].2],
                            detail: e.to_string(),
                        })
                    }
                }
            }
            run = end;
        }
        Ok(out)
    }

    /// Moves the store behind `threads` I/O threads, making
    /// [`CoefficientStore::submit`] genuinely asynchronous: each queued
    /// batch still runs through this store's block-grouping
    /// `submit` (each block read at most once per batch), but
    /// submitters no longer block on the read.  See
    /// [`crate::AsyncFetchStore`].
    pub fn into_async(self, threads: usize) -> crate::AsyncFetchStore<Self> {
        crate::AsyncFetchStore::new(self, threads)
    }
}

impl CoefficientStore for BlockStore {
    /// A window of one is a pool hit, or one block read.
    fn submit(&self, keys: &[CoeffKey]) -> Completion {
        Completion::ready(self.read_window(keys))
    }

    fn nnz(&self) -> usize {
        self.index.len()
    }

    fn stats(&self) -> IoStats {
        self.counters.snapshot()
    }

    fn reset_stats(&self) {
        self.counters.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("batchbb-blockstore-{name}-{}", std::process::id()));
        p
    }

    fn entries(n: usize) -> Vec<(CoeffKey, f64)> {
        (0..n).map(|i| (CoeffKey::one(i), i as f64 + 0.5)).collect()
    }

    #[test]
    fn values_roundtrip_both_layouts() {
        let hot: KeyMap<f64> = (0..50).map(|i| (CoeffKey::one(i), i as f64)).collect();
        for (name, layout) in [
            ("key", BlockLayout::KeyOrder),
            ("level", BlockLayout::LevelMajor),
            ("imp", BlockLayout::ImportanceOrder(Arc::new(hot))),
        ] {
            let path = tmpfile(&format!("rt-{name}"));
            let store = BlockStore::create(&path, entries(100), 16, 4, layout).unwrap();
            for (k, v) in entries(100) {
                assert_eq!(store.get(&k), Some(v), "{name} {k}");
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn sequential_scan_amortizes_reads() {
        let path = tmpfile("seq");
        let store = BlockStore::create(&path, entries(128), 16, 4, BlockLayout::KeyOrder).unwrap();
        for (k, _) in entries(128) {
            store.get(&k);
        }
        let st = store.stats();
        assert_eq!(st.retrievals, 128);
        assert_eq!(st.physical_reads, 8, "one read per 16-coefficient block");
        assert_eq!(st.cache_hits, 120);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn pool_evicts_lru() {
        let path = tmpfile("lru");
        // 4 blocks of 4, pool of 1: alternate between two blocks -> every
        // access after the first in a run is a miss.
        let store = BlockStore::create(&path, entries(16), 4, 1, BlockLayout::KeyOrder).unwrap();
        store.get(&CoeffKey::one(0)); // block 0, miss
        store.get(&CoeffKey::one(1)); // block 0, hit
        store.get(&CoeffKey::one(5)); // block 1, miss (evicts 0)
        store.get(&CoeffKey::one(2)); // block 0, miss again
        let st = store.stats();
        assert_eq!(st.physical_reads, 3);
        assert_eq!(st.cache_hits, 1);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn miss_counts_retrieval_only() {
        let path = tmpfile("miss");
        let store = BlockStore::create(&path, entries(4), 4, 2, BlockLayout::KeyOrder).unwrap();
        assert_eq!(store.get(&CoeffKey::one(99)), None);
        let st = store.stats();
        assert_eq!(st.retrievals, 1);
        assert_eq!(st.physical_reads, 0);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn ranked_layout_packs_hot_keys_together() {
        let path = tmpfile("ranked");
        // Declare keys 90..99 "hot": they must land in the first block and
        // a scan of them must cost one physical read.
        let hot = |k: &CoeffKey| if k.coord(0) >= 90 { 0u8 } else { 1 };
        let store = BlockStore::create_ranked(&path, entries(100), 10, 1, hot).unwrap();
        for i in 90..100 {
            assert_eq!(store.get(&CoeffKey::one(i)), Some(i as f64 + 0.5));
        }
        let st = store.stats();
        assert_eq!(st.physical_reads, 1, "hot set fits one block");
        assert_eq!(st.cache_hits, 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn level_major_orders_coarse_first() {
        let k_coarse = CoeffKey::new(&[0, 1]);
        let k_fine = CoeffKey::new(&[64, 64]);
        assert!(
            layout_rank(&BlockLayout::LevelMajor, &k_coarse)
                < layout_rank(&BlockLayout::LevelMajor, &k_fine)
        );
    }

    #[test]
    fn importance_rank_orders_descending_with_absent_last() {
        assert!(importance_rank(Some(9.0)) < importance_rank(Some(1.0)));
        assert!(importance_rank(Some(1.0)) < importance_rank(Some(0.0)));
        assert!(importance_rank(Some(0.0)) < importance_rank(Some(-3.0)));
        assert!(importance_rank(Some(-3.0)) < importance_rank(None));
        assert_eq!(importance_rank(Some(2.5)), importance_rank(Some(2.5)));
    }

    #[test]
    fn importance_layout_packs_head_of_progression() {
        let path = tmpfile("importance");
        // Importance descends with the key index reversed, so the "head"
        // of the progression is keys 99, 98, ... 90 — scattered across
        // blocks under KeyOrder, but one block here.
        let ranking: KeyMap<f64> = (0..100).map(|i| (CoeffKey::one(i), i as f64)).collect();
        let store = BlockStore::create(
            &path,
            entries(100),
            10,
            1,
            BlockLayout::ImportanceOrder(Arc::new(ranking)),
        )
        .unwrap();
        for i in (90..100).rev() {
            assert_eq!(store.get(&CoeffKey::one(i)), Some(i as f64 + 0.5));
        }
        let st = store.stats();
        assert_eq!(st.physical_reads, 1, "top-10 importance fits one block");
        assert_eq!(st.cache_hits, 9);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn try_get_many_reads_each_block_once() {
        let path = tmpfile("many");
        let store = BlockStore::create(&path, entries(64), 8, 4, BlockLayout::KeyOrder).unwrap();
        // 16 keys spanning blocks 0 and 1, plus an absent key, in a
        // deliberately shuffled order.
        let mut keys: Vec<CoeffKey> = (0..16).map(CoeffKey::one).collect();
        keys.reverse();
        keys.push(CoeffKey::one(999));
        let got = store.try_get_many(&keys).unwrap();
        for (k, v) in keys.iter().zip(&got) {
            if k.coord(0) < 64 {
                assert_eq!(*v, Some(k.coord(0) as f64 + 0.5));
            } else {
                assert_eq!(*v, None);
            }
        }
        let st = store.stats();
        assert_eq!(st.retrievals, 17);
        assert_eq!(st.physical_reads, 2, "two blocks, one read each");
        assert_eq!(st.cache_hits, 14);
        std::fs::remove_file(&path).unwrap();
    }

    /// The progressive head scan: the first 4 096 coefficients of a
    /// coarse-to-fine progression over a 2-D store, fetched as 64-key
    /// `try_get_many` windows (the executor's prefetch path) through a
    /// 4-block pool, so every working-set miss is a real block read.  With
    /// the store laid out in the scan's own importance order the head packs
    /// into strictly fewer blocks than under key order.
    #[test]
    fn importance_layout_beats_key_order_on_a_windowed_head_scan() {
        let n = 1 << 14;
        let es: Vec<(CoeffKey, f64)> = (0..n)
            .map(|i| (CoeffKey::new(&[i % 128, i / 128]), (i % 97) as f64 + 0.5))
            .collect();
        let mut pattern: Vec<CoeffKey> = es.iter().map(|(k, _)| *k).collect();
        pattern.sort_by_key(|k| {
            k.coords()
                .iter()
                .map(|&c| if c == 0 { 0 } else { c.ilog2() + 1 })
                .sum::<u32>()
        });
        let ranking: KeyMap<f64> = pattern
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, (n - i) as f64))
            .collect();
        let head = &pattern[..4096];
        let reads = |name: &str, layout: BlockLayout| {
            let path = tmpfile(&format!("head-{name}"));
            let store = BlockStore::create(&path, es.clone(), 512, 4, layout).unwrap();
            for window in head.chunks(64) {
                store.try_get_many(window).unwrap();
            }
            std::fs::remove_file(&path).unwrap();
            store.stats().physical_reads
        };
        let key_order = reads("key", BlockLayout::KeyOrder);
        let importance = reads("imp", BlockLayout::ImportanceOrder(Arc::new(ranking)));
        assert!(
            importance < key_order,
            "ImportanceOrder read {importance} blocks, KeyOrder {key_order}"
        );
    }
}
