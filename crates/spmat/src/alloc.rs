//! Cache-line-aligned `f64` buffers.
//!
//! [`AVec`] is a growable `f64` buffer whose allocation is always
//! 64-byte aligned — one cache line, and a superset of every SIMD
//! vector alignment in use (32 B for AVX2, 16 B for NEON). Matrices
//! backed by it start every row on an aligned address whenever the row
//! stride is a multiple of 8 `f64`s, which covers the model's 16- and
//! 24-wide layers — so the kernel layer's vector loads on row starts
//! never straddle a cache line.
//!
//! Implementation: a `Vec` of 64-byte `Lane`s (`#[repr(align(64))]`
//! wrappers around `[f64; 8]`) plus a logical element length. Allocation
//! and deallocation both happen through `Vec<Lane>` with the same
//! layout, so there is no hand-rolled allocator code to get wrong; the
//! only `unsafe` is the contiguous reinterpretation of the lane storage
//! as a flat `[f64]`, which is sound because `Lane` is a `repr(C)`
//! array wrapper with size == alignment == 64 (stride leaves no gaps).

use std::ops::{Deref, DerefMut};

/// `f64` elements per cache line.
const LANE: usize = 8;

/// One 64-byte-aligned cache line of 8 `f64`s.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Lane([f64; LANE]);

const ZERO_LANE: Lane = Lane([0.0; LANE]);

/// A 64-byte-aligned growable `f64` buffer (see the module docs).
#[derive(Clone, Default)]
pub struct AVec {
    lanes: Vec<Lane>,
    len: usize,
}

impl AVec {
    /// An empty buffer (no allocation until first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// A zero-filled buffer of `len` elements.
    pub fn zeroed(len: usize) -> Self {
        let mut v = Self::new();
        v.resize_zeroed(len);
        v
    }

    /// An aligned copy of `src`.
    pub fn from_slice(src: &[f64]) -> Self {
        let mut v = Self::zeroed(src.len());
        v.as_mut_slice().copy_from_slice(src);
        v
    }

    /// Logical element count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Elements the current allocation can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.lanes.capacity() * LANE
    }

    /// Drops all elements, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.lanes.clear();
        self.len = 0;
    }

    /// Reserves capacity for at least `additional` more elements.
    pub fn reserve(&mut self, additional: usize) {
        let need = (self.len + additional).div_ceil(LANE);
        self.lanes.reserve(need.saturating_sub(self.lanes.len()));
    }

    /// Resets the buffer to exactly `len` **zero** elements (the pooled
    /// "take a fresh zeroed matrix" operation).
    pub fn resize_zeroed(&mut self, len: usize) {
        self.lanes.clear();
        self.lanes.resize(len.div_ceil(LANE), ZERO_LANE);
        self.len = len;
    }

    /// Appends a copy of `src`.
    pub fn extend_from_slice(&mut self, src: &[f64]) {
        let old = self.len;
        // Growing by whole zeroed lanes keeps the tail padding defined.
        self.lanes
            .resize((old + src.len()).div_ceil(LANE), ZERO_LANE);
        self.len = old + src.len();
        self.as_mut_slice()[old..].copy_from_slice(src);
    }

    /// The elements as a flat slice (also via `Deref`).
    pub fn as_slice(&self) -> &[f64] {
        // SAFETY: `lanes` stores `len.div_ceil(8)` contiguous `Lane`s;
        // `Lane` is a repr(C) `[f64; 8]` wrapper with size == stride ==
        // 64, so the storage is `lanes.len() * 8 >= len` contiguous,
        // initialized `f64`s starting at an 8-byte-aligned (in fact
        // 64-byte-aligned) address.
        unsafe { std::slice::from_raw_parts(self.lanes.as_ptr().cast::<f64>(), self.len) }
    }

    /// The elements as a flat mutable slice (also via `DerefMut`).
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        // SAFETY: see `as_slice`; `&mut self` gives exclusive access.
        unsafe { std::slice::from_raw_parts_mut(self.lanes.as_mut_ptr().cast::<f64>(), self.len) }
    }

    /// Copies out into a plain `Vec<f64>`.
    pub fn to_vec(&self) -> Vec<f64> {
        self.as_slice().to_vec()
    }
}

impl Deref for AVec {
    type Target = [f64];
    fn deref(&self) -> &[f64] {
        self.as_slice()
    }
}

impl DerefMut for AVec {
    fn deref_mut(&mut self) -> &mut [f64] {
        self.as_mut_slice()
    }
}

impl PartialEq for AVec {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::fmt::Debug for AVec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.as_slice()).finish()
    }
}

impl From<&[f64]> for AVec {
    fn from(src: &[f64]) -> Self {
        Self::from_slice(src)
    }
}

impl From<Vec<f64>> for AVec {
    fn from(src: Vec<f64>) -> Self {
        Self::from_slice(&src)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocation_is_64_byte_aligned() {
        for len in [1usize, 7, 8, 9, 63, 64, 1000] {
            let v = AVec::zeroed(len);
            assert_eq!(v.as_slice().as_ptr() as usize % 64, 0, "len={len}");
            assert_eq!(v.len(), len);
            assert!(v.iter().all(|&x| x == 0.0));
        }
    }

    #[test]
    fn empty_is_cheap_and_valid() {
        let v = AVec::new();
        assert!(v.is_empty());
        assert_eq!(v.as_slice(), &[] as &[f64]);
        assert_eq!(v.capacity(), 0);
    }

    #[test]
    fn from_slice_roundtrips() {
        let src = [1.0, -2.5, 3.25, 4.0, 5.0];
        let v = AVec::from_slice(&src);
        assert_eq!(v.as_slice(), &src);
        assert_eq!(v.to_vec(), src.to_vec());
    }

    #[test]
    fn extend_and_mutate() {
        let mut v = AVec::from_slice(&[1.0, 2.0]);
        v.extend_from_slice(&[3.0; 9]);
        assert_eq!(v.len(), 11);
        assert_eq!(v[1], 2.0);
        v[10] = 7.0;
        assert_eq!(v.as_slice()[10], 7.0);
    }

    #[test]
    fn resize_zeroed_rezeroes_reused_storage() {
        let mut v = AVec::from_slice(&[9.0; 32]);
        let cap = v.capacity();
        v.resize_zeroed(16);
        assert!(v.iter().all(|&x| x == 0.0));
        assert_eq!(v.capacity(), cap, "reuses the allocation");
    }

    #[test]
    fn clear_keeps_capacity() {
        let mut v = AVec::zeroed(100);
        v.clear();
        assert!(v.is_empty());
        assert!(v.capacity() >= 100);
    }

    #[test]
    fn equality_ignores_padding() {
        let a = AVec::from_slice(&[1.0, 2.0, 3.0]);
        let mut b = AVec::zeroed(11);
        b.resize_zeroed(3);
        b.as_mut_slice().copy_from_slice(&[1.0, 2.0, 3.0]);
        assert_eq!(a, b);
    }
}
