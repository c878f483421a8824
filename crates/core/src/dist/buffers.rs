//! Reusable per-rank scratch buffers for the distributed hot path.
//!
//! Every 1D/1.5D/2D SpMM call and every trainer epoch needs the same
//! family of temporaries: send-staging rows, received-row assembly
//! matrices, SpMM accumulators, layer activations. Allocating them fresh
//! each epoch puts the allocator on the critical path; [`EpochBuffers`]
//! instead keeps a free list of retired `Vec` allocations and hands them
//! back out, so steady-state epochs recycle the same memory.
//!
//! Ownership circulates through the communication mesh: a rank stages a
//! send into a pooled `Vec<f64>`, the payload's buffer transfers to the
//! receiver through the channel, and the *receiver* retires it into its
//! own pool after unpacking. When per-epoch send/recv volumes are
//! balanced (they are — communication plans are static), every rank's
//! pool reaches a fixed point after the first epoch and
//! [`EpochBuffers::fresh_allocs`] stops growing.
//!
//! Matrices are pooled separately from payload vectors: [`take_dense`]
//! hands out 64-byte-aligned buffers (the SpMM/GEMM kernels' preferred
//! storage) while `take_vec`/`put_vec` keep circulating the plain
//! `Vec<f64>`s that network payloads are made of. [`put_dense`] routes a
//! retiring matrix to whichever pool matches its backing
//! ([`spmat::dense::DenseStorage`]), so neither kind of allocation is
//! ever copied or downgraded on its way through the pool.
//!
//! [`take_dense`]: EpochBuffers::take_dense
//! [`put_dense`]: EpochBuffers::put_dense

use spmat::alloc::AVec;
use spmat::dense::DenseStorage;
use spmat::Dense;

/// A per-rank pool of reusable `f64`/`u32`/aligned buffers.
///
/// `take_*` pops a retired buffer with sufficient capacity (or allocates
/// when the pool can't satisfy the request — counted as a *fresh alloc*);
/// `put_*` retires a buffer for reuse. Not thread-safe by design: each
/// rank owns exactly one.
#[derive(Debug, Default)]
pub struct EpochBuffers {
    f64_pool: Vec<Vec<f64>>,
    u32_pool: Vec<Vec<u32>>,
    avec_pool: Vec<AVec>,
    fresh: u64,
}

impl EpochBuffers {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many `take_*` calls could not be served from the pool (i.e.
    /// had to allocate or grow). Flat across epochs ⇒ steady state is
    /// allocation-free; asserted by the steady-state tests.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh
    }

    /// Retired buffers currently held.
    pub fn pooled(&self) -> usize {
        self.f64_pool.len() + self.u32_pool.len() + self.avec_pool.len()
    }

    /// Removes and returns the retiree to serve a request for `cap`
    /// elements from: the best fit (smallest sufficient capacity), so
    /// which buffer a request gets depends on the capacities pooled, not
    /// on the order they retired in — an epoch that found every buffer it
    /// needed finds them again. When nothing fits, a *fresh alloc*: the
    /// biggest retiree (or a new buffer) for the caller to grow — one
    /// realloc now, none once it has seen peak size.
    fn take_slot<B: Default>(
        pool: &mut Vec<B>,
        capacity: impl Fn(&B) -> usize,
        fresh: &mut u64,
        cap: usize,
    ) -> B {
        let fits = pool.iter().enumerate().filter(|(_, b)| capacity(b) >= cap);
        let slot = fits.min_by_key(|(_, b)| capacity(b)).or_else(|| {
            *fresh += 1;
            pool.iter().enumerate().max_by_key(|(_, b)| capacity(b))
        });
        match slot.map(|(i, _)| i) {
            Some(i) => pool.swap_remove(i),
            None => B::default(),
        }
    }

    fn take_from<T>(pool: &mut Vec<Vec<T>>, fresh: &mut u64, cap: usize) -> Vec<T> {
        let mut v = Self::take_slot(pool, Vec::capacity, fresh, cap);
        v.clear();
        v.reserve(cap);
        v
    }

    /// An empty `Vec<f64>` with capacity for at least `cap` elements.
    pub fn take_vec(&mut self, cap: usize) -> Vec<f64> {
        Self::take_from(&mut self.f64_pool, &mut self.fresh, cap)
    }

    /// A zero-filled `rows × cols` matrix backed by a pooled
    /// 64-byte-aligned buffer.
    pub fn take_dense(&mut self, rows: usize, cols: usize) -> Dense {
        let len = rows * cols;
        let mut a = Self::take_slot(&mut self.avec_pool, AVec::capacity, &mut self.fresh, len);
        a.resize_zeroed(len);
        Dense::from_avec(rows, cols, a)
    }

    /// An empty `Vec<u32>` with capacity for at least `cap` elements.
    pub fn take_u32(&mut self, cap: usize) -> Vec<u32> {
        Self::take_from(&mut self.u32_pool, &mut self.fresh, cap)
    }

    /// Retires an `f64` buffer (no-op for zero-capacity vecs).
    pub fn put_vec(&mut self, v: Vec<f64>) {
        if v.capacity() > 0 {
            self.f64_pool.push(v);
        }
    }

    /// Retires a matrix's backing buffer into the pool matching its
    /// storage variant (no copy either way).
    pub fn put_dense(&mut self, d: Dense) {
        match d.into_storage() {
            DenseStorage::Unaligned(v) => self.put_vec(v),
            DenseStorage::Aligned(a) => {
                if a.capacity() > 0 {
                    self.avec_pool.push(a);
                }
            }
        }
    }

    /// Retires a `u32` buffer (no-op for zero-capacity vecs).
    pub fn put_u32(&mut self, v: Vec<u32>) {
        if v.capacity() > 0 {
            self.u32_pool.push(v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_instead_of_allocating() {
        let mut b = EpochBuffers::new();
        let v = b.take_vec(100);
        assert_eq!(b.fresh_allocs(), 1);
        b.put_vec(v);
        // Same-size request is served from the pool.
        let v = b.take_vec(100);
        assert_eq!(b.fresh_allocs(), 1);
        b.put_vec(v);
        // Smaller request too.
        let v = b.take_vec(10);
        assert_eq!(b.fresh_allocs(), 1);
        assert!(v.capacity() >= 100);
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut b = EpochBuffers::new();
        // Warm-up "epoch": the full working set.
        for _ in 0..3 {
            let d = b.take_dense(64, 16);
            let i = b.take_u32(64);
            b.put_dense(d);
            b.put_u32(i);
        }
        let warm = b.fresh_allocs();
        // Steady state: identical shapes, zero new allocations.
        for _ in 0..10 {
            let d = b.take_dense(64, 16);
            let i = b.take_u32(64);
            b.put_dense(d);
            b.put_u32(i);
        }
        assert_eq!(b.fresh_allocs(), warm);
    }

    #[test]
    fn dense_roundtrip_preserves_zeroing() {
        let mut b = EpochBuffers::new();
        let mut d = b.take_dense(3, 3);
        d.data_mut().fill(7.0);
        b.put_dense(d);
        let d2 = b.take_dense(3, 3);
        assert!(d2.data().iter().all(|&x| x == 0.0), "must re-zero");
    }

    #[test]
    fn zero_capacity_buffers_are_dropped() {
        let mut b = EpochBuffers::new();
        b.put_vec(Vec::new());
        b.put_u32(Vec::new());
        assert_eq!(b.pooled(), 0);
    }
}
