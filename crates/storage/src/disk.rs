//! File-backed coefficient store: one positioned read per retrieval.
//!
//! This module is gated on unix (see `lib.rs`): it relies on
//! `std::os::unix::fs::FileExt::read_exact_at` for lock-free positioned
//! reads through a shared `&File`.

use std::fs::File;
use std::io::{self, Write};
use std::os::unix::fs::FileExt;
use std::path::Path;

use batchbb_tensor::{CoeffKey, KeyMap};

use crate::stats::Counters;
use crate::{CoefficientStore, Completion, IoStats, StorageError};

/// A read-only coefficient store backed by a values file plus an in-memory
/// hash index (`key → slot`).
///
/// Each singleton read issues one positioned 8-byte read, so
/// `physical_reads` equals `retrievals` — the paper's cost model of §1.3,
/// which deliberately ignores blocking ("we ignore the possibility that
/// several useful values may be allocated on the same disk block").
/// [`crate::BlockStore`] drops that simplification.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    index: KeyMap<u64>,
    counters: Counters,
}

impl FileStore {
    /// Creates a store at `path` from `(key, value)` pairs (duplicates
    /// summed) and opens it for reading.
    pub fn create(
        path: &Path,
        entries: impl IntoIterator<Item = (CoeffKey, f64)>,
    ) -> io::Result<Self> {
        let mut map: KeyMap<f64> = KeyMap::default();
        for (k, v) in entries {
            *map.entry(k).or_insert(0.0) += v;
        }
        let mut sorted: Vec<(CoeffKey, f64)> = map.into_iter().collect();
        sorted.sort_by_key(|&(k, _)| k);

        let mut buf = Vec::with_capacity(sorted.len() * 8);
        let mut index = KeyMap::with_capacity_and_hasher(sorted.len(), Default::default());
        for (slot, (k, v)) in sorted.iter().enumerate() {
            buf.extend_from_slice(&v.to_le_bytes());
            index.insert(*k, slot as u64);
        }
        let mut f = File::create(path)?;
        f.write_all(&buf)?;
        f.sync_all()?;
        drop(f);

        Ok(FileStore {
            file: File::open(path)?,
            index,
            counters: Counters::default(),
        })
    }

    /// The store's one read body: a window in one forward pass over the
    /// file.  Present keys are sorted by slot and contiguous slot runs are
    /// coalesced into a single positioned read each, so `physical_reads`
    /// counts coalesced reads (≤ one per key; absent keys touch nothing).
    /// A failed `pread` becomes [`StorageError::Io`] naming the first key
    /// of the failing run and fails the whole window.
    fn read_window(&self, keys: &[CoeffKey]) -> Result<Vec<Option<f64>>, StorageError> {
        let mut out = vec![None; keys.len()];
        let mut wanted: Vec<(u64, usize)> = Vec::with_capacity(keys.len());
        for (i, key) in keys.iter().enumerate() {
            self.counters.count_retrieval();
            if let Some(&slot) = self.index.get(key) {
                wanted.push((slot, i));
            }
        }
        wanted.sort_unstable();
        let mut run = 0;
        while run < wanted.len() {
            let start = wanted[run].0;
            let mut end = run + 1;
            while end < wanted.len() && wanted[end].0 <= wanted[end - 1].0 + 1 {
                end += 1;
            }
            let span = (wanted[end - 1].0 - start + 1) as usize;
            self.counters.count_physical();
            let mut raw = vec![0u8; span * 8];
            self.file
                .read_exact_at(&mut raw, start * 8)
                .map_err(|e| StorageError::Io {
                    key: keys[wanted[run].1],
                    detail: e.to_string(),
                })?;
            for &(slot, i) in &wanted[run..end] {
                let off = ((slot - start) * 8) as usize;
                let bytes = raw[off..off + 8].try_into().expect("an 8-byte slot");
                out[i] = Some(f64::from_le_bytes(bytes));
            }
            run = end;
        }
        Ok(out)
    }
}

impl CoefficientStore for FileStore {
    /// A window of one is one retrieval and one 8-byte `pread` when
    /// present.
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
        p.push(format!("batchbb-filestore-{name}-{}", std::process::id()));
        p
    }

    #[test]
    fn roundtrip_values() {
        let path = tmpfile("roundtrip");
        let entries = vec![
            (CoeffKey::new(&[0, 1]), 1.25),
            (CoeffKey::new(&[3, 7]), -9.5),
            (CoeffKey::new(&[2, 2]), 0.125),
        ];
        let store = FileStore::create(&path, entries.clone()).unwrap();
        for (k, v) in &entries {
            assert_eq!(store.get(k), Some(*v));
        }
        assert_eq!(store.get(&CoeffKey::new(&[9, 9])), None);
        assert_eq!(store.nnz(), 3);
        let st = store.stats();
        assert_eq!(st.retrievals, 4);
        assert_eq!(st.physical_reads, 3, "misses do not touch the file");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn try_get_many_coalesces_contiguous_slots() {
        let path = tmpfile("coalesce");
        let store =
            FileStore::create(&path, (0..16).map(|i| (CoeffKey::one(i), i as f64))).unwrap();
        // Keys 0..8 are slots 0..8 (key order == slot order here): one
        // coalesced read.  Key 12 is a second, separate run.
        let mut keys: Vec<CoeffKey> = (0..8).map(CoeffKey::one).collect();
        keys.reverse();
        keys.push(CoeffKey::one(12));
        keys.push(CoeffKey::one(99)); // absent
        let got = store.try_get_many(&keys).unwrap();
        for (k, v) in keys.iter().zip(&got) {
            if k.coord(0) < 16 {
                assert_eq!(*v, Some(k.coord(0) as f64));
            } else {
                assert_eq!(*v, None);
            }
        }
        let st = store.stats();
        assert_eq!(st.retrievals, 10);
        assert_eq!(st.physical_reads, 2, "two coalesced runs");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn duplicates_summed() {
        let path = tmpfile("dups");
        let store = FileStore::create(
            &path,
            vec![(CoeffKey::one(5), 1.0), (CoeffKey::one(5), 2.0)],
        )
        .unwrap();
        assert_eq!(store.get(&CoeffKey::one(5)), Some(3.0));
        std::fs::remove_file(&path).unwrap();
    }
}
