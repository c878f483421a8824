//! Reusable per-rank activation buffers for the distributed hot path.
//!
//! Every distributed SpMM and every trainer epoch needs the same family
//! of matrices — SpMM accumulators, layer activations, panel slices, the
//! loss gradient — and each of them is taken and retired *by the same
//! rank*. Allocating them fresh each epoch puts the allocator on the
//! critical path; [`EpochBuffers`] keeps a free list of retired
//! 64-byte-aligned buffers (the SpMM/GEMM kernels' preferred storage) and
//! hands them back out, so its counters reach a fixed point after the
//! first epochs and [`EpochBuffers::fresh_allocs`] stops growing.
//!
//! Payload vectors are the other buffer class and are **not** here: a
//! `Vec<f64>` packed on one rank is folded and retired on another, so
//! only the world that moves it can balance its free list — they live in
//! the world's [`gnn_comm::PayloadPool`], reached through
//! [`gnn_comm::RankCtx::take_f64`] / [`gnn_comm::RankCtx::recycle`]
//! (DESIGN.md §5d).

use spmat::alloc::AVec;
use spmat::dense::DenseStorage;
use spmat::Dense;

/// A per-rank pool of reusable aligned matrix buffers.
///
/// [`take_dense`](Self::take_dense) pops the best-fitting retired buffer
/// (or allocates when none fits — counted as a *fresh alloc*);
/// [`put_dense`](Self::put_dense) retires one. Not thread-safe by design:
/// each rank owns exactly one.
#[derive(Debug, Default)]
pub struct EpochBuffers {
    avec_pool: Vec<AVec>,
    fresh: u64,
}

impl EpochBuffers {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// How many `take_dense` calls could not be served from the pool
    /// (i.e. had to allocate or grow). Flat across epochs ⇒ steady state
    /// is allocation-free; asserted by the steady-state tests.
    pub fn fresh_allocs(&self) -> u64 {
        self.fresh
    }

    /// Retired buffers currently held.
    pub fn pooled(&self) -> usize {
        self.avec_pool.len()
    }

    /// Removes and returns the retiree to serve a request for `cap`
    /// elements from: the best fit (smallest sufficient capacity), so
    /// which buffer a request gets depends on the capacities pooled, not
    /// on the order they retired in — an epoch that found every buffer it
    /// needed finds them again. When nothing fits, a *fresh alloc*: the
    /// biggest retiree (or a new buffer) for the caller to grow — one
    /// realloc now, none once it has seen peak size.
    fn take_slot(&mut self, cap: usize) -> AVec {
        let pool = &mut self.avec_pool;
        let fits = pool.iter().enumerate().filter(|(_, b)| b.capacity() >= cap);
        let slot = fits.min_by_key(|(_, b)| b.capacity()).or_else(|| {
            self.fresh += 1;
            pool.iter().enumerate().max_by_key(|(_, b)| b.capacity())
        });
        match slot.map(|(i, _)| i) {
            Some(i) => pool.swap_remove(i),
            None => AVec::default(),
        }
    }

    /// A zero-filled `rows × cols` matrix backed by a pooled
    /// 64-byte-aligned buffer.
    pub fn take_dense(&mut self, rows: usize, cols: usize) -> Dense {
        let len = rows * cols;
        let mut a = self.take_slot(len);
        a.resize_zeroed(len);
        Dense::from_avec(rows, cols, a)
    }

    /// Retires a matrix's aligned backing buffer (no copy). A matrix that
    /// wraps a payload vector is not this pool's to keep — executors
    /// [`recycle`](gnn_comm::RankCtx::recycle) those into the world's
    /// pool — and is simply freed.
    pub fn put_dense(&mut self, d: Dense) {
        if let DenseStorage::Aligned(a) = d.into_storage() {
            if a.capacity() > 0 {
                self.avec_pool.push(a);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recycles_instead_of_allocating() {
        let mut b = EpochBuffers::new();
        let d = b.take_dense(10, 10);
        assert_eq!(b.fresh_allocs(), 1);
        b.put_dense(d);
        // Same-size and smaller requests are served from the pool.
        for (rows, cols) in [(10, 10), (2, 5)] {
            let d = b.take_dense(rows, cols);
            assert_eq!(b.fresh_allocs(), 1);
            b.put_dense(d);
        }
    }

    #[test]
    fn steady_state_is_allocation_free() {
        let mut b = EpochBuffers::new();
        // Warm-up "epoch": the full working set.
        for _ in 0..3 {
            let (d, e) = (b.take_dense(64, 16), b.take_dense(64, 1));
            b.put_dense(d);
            b.put_dense(e);
        }
        let warm = b.fresh_allocs();
        // Steady state: identical shapes, zero new allocations.
        for _ in 0..10 {
            let (d, e) = (b.take_dense(64, 16), b.take_dense(64, 1));
            b.put_dense(d);
            b.put_dense(e);
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
        b.put_dense(Dense::zeros(0, 4));
        assert_eq!(b.pooled(), 0);
    }
}
