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
//!
//! **Huge pages.** Every growth goes through one private path
//! (`grow_to`), which allocates and then — before the first write —
//! asks Linux to back any buffer of at least 2 MiB with transparent
//! huge pages (`madvise(MADV_HUGEPAGE)` over the whole 2 MiB pages
//! inside it). The feature matrices and their per-rank `H⁰` blocks are
//! the largest buffers the system allocates, and without the advice
//! they fault in 4 KiB at a time. The advice changes no value. It is a
//! no-op on other OSes, under Miri, where THP is `never`, and where the
//! kernel has no THP at all (the call's error is ignored).

use std::ops::{Deref, DerefMut};

/// `f64` elements per cache line.
const LANE: usize = 8;

/// One 64-byte-aligned cache line of 8 `f64`s.
#[repr(C, align(64))]
#[derive(Clone, Copy)]
struct Lane([f64; LANE]);

const ZERO_LANE: Lane = Lane([0.0; LANE]);

/// One PMD-sized transparent huge page on 4 KiB-page x86-64 and
/// aarch64: the smallest buffer that is advised, and the grain of the
/// advised range.
const HUGE_BYTES: usize = 2 << 20;

/// The whole huge pages inside the `bytes`-long buffer at `addr`, as
/// `(start, len)`: rounded inward to `HUGE_BYTES`, so the advice covers
/// only pages the buffer fills, never memory it does not own, and holds
/// for any base page size that divides 2 MiB. `None` when no whole huge
/// page fits.
fn huge_advice_range(addr: usize, bytes: usize) -> Option<(usize, usize)> {
    let start = addr.checked_next_multiple_of(HUGE_BYTES)?;
    let end = addr.checked_add(bytes)? / HUGE_BYTES * HUGE_BYTES;
    (end > start).then(|| (start, end - start))
}

/// Advises the allocation behind `lanes` (its whole capacity) into huge
/// pages when it is big enough; see the module docs.
fn advise_huge_pages(lanes: &Vec<Lane>) {
    let bytes = lanes.capacity() * std::mem::size_of::<Lane>();
    let Some((start, len)) = huge_advice_range(lanes.as_ptr() as usize, bytes) else {
        return;
    };
    #[cfg(all(target_os = "linux", not(miri)))]
    {
        extern "C" {
            fn madvise(addr: *mut std::ffi::c_void, len: usize, advice: i32) -> i32;
        }
        const MADV_HUGEPAGE: i32 = 14;
        // SAFETY: `[start, start + len)` is whole 2 MiB-aligned pages
        // inside the one live allocation `lanes` owns. `MADV_HUGEPAGE`
        // changes only how the kernel backs the range, never its
        // contents or validity, and `madvise` keeps no pointer after it
        // returns. An error (`EINVAL` without THP support) leaves the
        // mapping as it was, so the result is ignored.
        unsafe {
            madvise(start as *mut std::ffi::c_void, len, MADV_HUGEPAGE);
        }
    }
    #[cfg(not(all(target_os = "linux", not(miri))))]
    let _ = (start, len);
}

/// A 64-byte-aligned growable `f64` buffer (see the module docs).
#[derive(Default)]
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
        let mut v = Self::new();
        v.extend_from_slice(src);
        v
    }

    /// The one growth path: makes room for `lanes` lanes in all and, when
    /// that allocates, advises the new allocation before anything writes
    /// it (so a huge-page-backed buffer faults in 2 MiB at a time).
    fn grow_to(&mut self, lanes: usize) {
        if lanes > self.lanes.capacity() {
            self.lanes.reserve(lanes - self.lanes.len());
            advise_huge_pages(&self.lanes);
        }
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
        self.grow_to((self.len + additional).div_ceil(LANE));
    }

    /// Resets the buffer to exactly `len` **zero** elements (the pooled
    /// "take a fresh zeroed matrix" operation).
    pub fn resize_zeroed(&mut self, len: usize) {
        let lanes = len.div_ceil(LANE);
        self.lanes.clear();
        self.grow_to(lanes);
        self.lanes.resize(lanes, ZERO_LANE);
        self.len = len;
    }

    /// Appends a copy of `src`.
    pub fn extend_from_slice(&mut self, src: &[f64]) {
        let old = self.len;
        let lanes = (old + src.len()).div_ceil(LANE);
        self.grow_to(lanes);
        // Growing by whole zeroed lanes keeps the tail padding defined.
        self.lanes.resize(lanes, ZERO_LANE);
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

/// By hand rather than derived, so a clone takes the growth path too.
impl Clone for AVec {
    fn clone(&self) -> Self {
        let mut v = Self::new();
        v.grow_to(self.lanes.len());
        v.lanes.extend_from_slice(&self.lanes);
        v.len = self.len;
        v
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
    fn huge_advice_range_rounds_inward_to_whole_huge_pages() {
        let base = 512 * HUGE_BYTES;
        // Exactly one aligned huge page is covered exactly.
        assert_eq!(
            huge_advice_range(base, HUGE_BYTES),
            Some((base, HUGE_BYTES))
        );
        // Nothing below 2 MiB, aligned or not.
        assert_eq!(huge_advice_range(base, HUGE_BYTES - 1), None);
        assert_eq!(huge_advice_range(base + 64, HUGE_BYTES - 64), None);
        assert_eq!(huge_advice_range(base + 8, 0), None);
        // 2 MiB that straddle a boundary hold no whole huge page.
        assert_eq!(huge_advice_range(base + 4096, HUGE_BYTES), None);
        // A buffer that starts and ends mid-page loses both partial pages.
        assert_eq!(
            huge_advice_range(base + 64, 3 * HUGE_BYTES),
            Some((base + HUGE_BYTES, 2 * HUGE_BYTES))
        );
        assert_eq!(
            huge_advice_range(base - 8, 2 * HUGE_BYTES + 16),
            Some((base, 2 * HUGE_BYTES))
        );
        assert_eq!(huge_advice_range(usize::MAX - 4096, HUGE_BYTES), None);
    }

    /// Elements in a buffer that holds a whole huge page wherever it
    /// lands (just over 4 MiB).
    const BIG: usize = 2 * HUGE_BYTES / 8 + 13;

    fn assert_aligned_with(v: &AVec, want: impl Fn(usize) -> f64) {
        assert_eq!(v.as_slice().as_ptr() as usize % 64, 0);
        assert!(v.iter().enumerate().all(|(i, &x)| x == want(i)));
    }

    #[test]
    fn every_growth_path_keeps_alignment_and_contents_above_2_mib() {
        let src: Vec<f64> = (0..BIG).map(|i| i as f64 - 0.5).collect();
        let zeroed = AVec::zeroed(BIG);
        assert_eq!(zeroed.len(), BIG);
        assert_aligned_with(&zeroed, |_| 0.0);

        let copied = AVec::from_slice(&src);
        assert_aligned_with(&copied, |i| src[i]);

        let mut reserved = AVec::new();
        reserved.reserve(BIG);
        assert!(reserved.capacity() >= BIG);
        reserved.extend_from_slice(&src);
        assert_aligned_with(&reserved, |i| src[i]);

        // Extend-driven regrowth: many reallocations crossing 2 MiB.
        let mut grown = AVec::new();
        for chunk in src.chunks(1000) {
            grown.extend_from_slice(chunk);
        }
        assert_aligned_with(&grown, |i| src[i]);

        let cloned = copied.clone();
        assert_eq!(cloned.len(), BIG);
        assert_aligned_with(&cloned, |i| src[i]);

        let mut rezeroed = cloned;
        rezeroed.resize_zeroed(BIG + 1000);
        assert_aligned_with(&rezeroed, |_| 0.0);
    }

    /// On Linux a 4 MiB buffer's mapping carries the huge-page advice
    /// (`hg` in its `/proc/self/smaps` `VmFlags`) wherever the kernel
    /// has transparent huge pages at all.
    #[cfg(all(target_os = "linux", not(miri)))]
    #[test]
    fn a_4_mib_buffer_is_advised_into_huge_pages() {
        if !std::path::Path::new("/sys/kernel/mm/transparent_hugepage").exists() {
            println!("skipped: this kernel has no transparent huge pages");
            return;
        }
        let v = AVec::zeroed((4 << 20) / 8);
        let mid = v.as_ptr() as usize + (2 << 20);
        let smaps = std::fs::read_to_string("/proc/self/smaps").unwrap();
        let mut lines = smaps.lines();
        let mut flags = None;
        while let Some(line) = lines.next() {
            let Some((lo, hi)) = line
                .split_whitespace()
                .next()
                .and_then(|range| range.split_once('-'))
                .and_then(|(lo, hi)| {
                    let lo = usize::from_str_radix(lo, 16).ok()?;
                    Some((lo, usize::from_str_radix(hi, 16).ok()?))
                })
            else {
                continue;
            };
            if (lo..hi).contains(&mid) {
                flags = lines.find_map(|l| l.strip_prefix("VmFlags:"));
                break;
            }
        }
        let flags = flags.expect("the buffer's mapping and its VmFlags line");
        assert!(
            flags.split_whitespace().any(|f| f == "hg"),
            "no `hg` in VmFlags:{flags}"
        );
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
