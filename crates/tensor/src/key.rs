//! Compact multi-dimensional coefficient keys.
//!
//! A wavelet (or prefix-sum, or identity) coefficient of a `d`-dimensional
//! array is addressed by a `d`-tuple `ξ = (ξ₀, …, ξ_{d-1})`.  [`CoeffKey`]
//! stores that tuple inline in a fixed `[u32; MAX_DIMS]` so it can be used
//! as an allocation-free hash-map key in the master list and in coefficient
//! stores — the master list in Batch-Biggest-B touches one key per retrieved
//! coefficient, so key hashing is on the hot path (`Hash` is hand-written
//! in `hash.rs`: the live coordinates and the rank, nothing else).

use std::fmt;

use crate::{Shape, MAX_DIMS};

/// A multi-dimensional coefficient index with inline storage.
///
/// Ordering is lexicographic, which gives deterministic iteration orders in
/// tests and harnesses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct CoeffKey {
    idx: [u32; MAX_DIMS],
    rank: u8,
}

impl CoeffKey {
    /// Builds a key from `usize` coordinates.
    ///
    /// Panics if `coords` is empty, longer than [`MAX_DIMS`], or any
    /// coordinate exceeds `u32::MAX`.
    pub fn new(coords: &[usize]) -> Self {
        assert!(!coords.is_empty(), "key must have at least one coordinate");
        assert!(
            coords.len() <= MAX_DIMS,
            "key rank {} exceeds MAX_DIMS {}",
            coords.len(),
            MAX_DIMS
        );
        let mut idx = [0u32; MAX_DIMS];
        for (slot, &c) in idx.iter_mut().zip(coords.iter()) {
            *slot = u32::try_from(c).expect("coordinate exceeds u32 range");
        }
        CoeffKey {
            idx,
            rank: coords.len() as u8,
        }
    }

    /// Builds a 1-dimensional key.
    pub fn one(coord: usize) -> Self {
        CoeffKey::new(&[coord])
    }

    /// Number of dimensions.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank as usize
    }

    /// The coordinates as a slice of `u32`.
    #[inline]
    pub fn coords(&self) -> &[u32] {
        &self.idx[..self.rank as usize]
    }

    /// Coordinate along one axis, as `usize`.
    #[inline]
    pub fn coord(&self, axis: usize) -> usize {
        self.idx[axis] as usize
    }

    /// Linear row-major offset of this key within `shape`.
    ///
    /// Used by array-backed coefficient stores. Panics on rank mismatch or
    /// out-of-range coordinates.
    pub fn offset_in(&self, shape: &Shape) -> usize {
        assert_eq!(self.rank(), shape.rank(), "key rank mismatch");
        let mut off = 0usize;
        for (axis, &c) in self.coords().iter().enumerate() {
            let c = c as usize;
            assert!(c < shape.dim(axis), "key coordinate out of shape bounds");
            off += c * shape.strides()[axis];
        }
        off
    }

    /// Returns a new key with `coord` appended. Panics at [`MAX_DIMS`].
    pub fn push(&self, coord: usize) -> Self {
        assert!(self.rank() < MAX_DIMS, "key already at MAX_DIMS");
        let mut out = *self;
        out.idx[out.rank as usize] = u32::try_from(coord).expect("coordinate exceeds u32 range");
        out.rank += 1;
        out
    }
}

impl fmt::Display for CoeffKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ξ(")?;
        for (i, c) in self.coords().iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construct_and_read() {
        let k = CoeffKey::new(&[3, 0, 7]);
        assert_eq!(k.rank(), 3);
        assert_eq!(k.coords(), &[3, 0, 7]);
        assert_eq!(k.coord(2), 7);
    }

    #[test]
    fn equality_ignores_unused_slots() {
        let a = CoeffKey::new(&[1, 2]);
        let b = CoeffKey::new(&[1, 2]);
        assert_eq!(a, b);
        let c = CoeffKey::new(&[1, 2, 0]);
        assert_ne!(a, c, "different ranks are different keys");
    }

    #[test]
    fn lexicographic_order() {
        let mut keys = [
            CoeffKey::new(&[1, 0]),
            CoeffKey::new(&[0, 5]),
            CoeffKey::new(&[0, 2]),
        ];
        keys.sort();
        assert_eq!(keys[0].coords(), &[0, 2]);
        assert_eq!(keys[1].coords(), &[0, 5]);
        assert_eq!(keys[2].coords(), &[1, 0]);
    }

    #[test]
    fn offset_matches_shape() {
        let shape = Shape::new(vec![4, 8]).unwrap();
        let k = CoeffKey::new(&[2, 3]);
        assert_eq!(k.offset_in(&shape), shape.offset(&[2, 3]).unwrap());
    }

    #[test]
    fn push_extends() {
        let k = CoeffKey::one(4).push(9);
        assert_eq!(k.coords(), &[4, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one coordinate")]
    fn empty_key_panics() {
        let _ = CoeffKey::new(&[]);
    }

    #[test]
    fn display_formats() {
        assert_eq!(CoeffKey::new(&[1, 2]).to_string(), "ξ(1,2)");
    }
}
