//! The world's payload pool: recycled storage for the `Vec<f64>` /
//! `Vec<u32>` buffers that [`Payload`]s are made of.
//!
//! A payload's storage *moves between ranks by construction* — packed on
//! one rank, folded and retired on another — so no per-rank free list can
//! balance: on the grid shapes only the designated-sender replica ships,
//! and its pool would allocate every buffer its receivers then hoard.
//! The pool therefore belongs to whatever moves the payloads: one per
//! [`crate::ThreadWorld`] run shared by its rank threads, one per rank
//! process shared by the rank's main thread, its socket reader threads
//! and its replay queues. It is created empty with its world and dropped
//! with it (a process-static pool would pin the largest run's buffers for
//! the life of the process).
//!
//! **A buffer goes home.** The pool keeps one *lane* of free lists per
//! rank. A rank packs out of its own lane; whoever ends up holding the
//! buffer — the receiver that folded it, the replay queue whose ACK
//! arrived — returns it to the lane of the rank that packed it (every
//! receive site knows its source). On a rank process, lane `q ≠ rank`
//! holds what the reader thread for peer `q` fills and the executor
//! retires. So a lane sees one rank's own takes in program order, and how
//! many of its buffers are out at once is bounded by how far that rank can
//! run ahead of its receivers: one exchange.
//!
//! **Free lists are by exact capacity, and a miss provisions two.** The
//! plan fixes every message size, so a request names a size class and is
//! served only by a buffer of exactly that capacity: a small request never
//! walks off with the big buffer the next request needs. And because a
//! sender *may* be one exchange ahead — whether it is, is thread timing —
//! a class's steady state is double buffering; a miss therefore allocates
//! the requested buffer *and* a spare. Together the three rules make the
//! warm-up deterministic. Measured on the way here: one shared best-fit
//! list that grows its biggest buffer on a miss kept the 1.5D trainer's
//! `fresh_allocs` creeping for 6+ epochs as unlucky interleavings upsized
//! one buffer at a time; exact classes shared by all ranks still missed
//! at epoch 4 on 3D 2×2×2, where eight ranks crowd the same sizes. With
//! lanes every shape is flat from epoch 3 (`tests/pool_closed_loop.rs`).
//!
//! **Only what is worth pooling is pooled** — two size limits, both from
//! `peak_rss_bytes` of a process that runs many worlds in turn (the
//! benchmark harness, 1D thread workloads, 4 seeds each way). Under
//! [`POOL_MIN_BYTES`] a request bypasses the pool: the allocator serves
//! it from memory it already holds, with no page fault to save, whereas
//! the same buffers kept alive for a whole run (row ids, the all-reduces'
//! 24-byte to 38 KB parts) splinter the heap the next world's 10 MB
//! buffers want — +10…17 MB, 3 seeds of 4, gone with the bypass. Over
//! [`SPARE_MAX_BYTES`] a miss allocates no spare: such a class is the one
//! 300-wide exchange of the epoch, which a global all-reduce separates
//! from its next use, and an unused 10 MB spare is address space the
//! allocator keeps when the world is gone and hands to the next one as
//! live memory — +20 MB, again 3 of 4. It gets a second buffer when it
//! needs one.
//!
//! **A lane keeps only what it handed out.** Each class counts its
//! buffers that are out; a buffer coming back is accepted as the return
//! of one of them and is otherwise dropped. A caller that sends payloads
//! it built itself (a test, a micro-benchmark) therefore cannot grow the
//! pool, and neither can an executor that returns more than it took.
//!
//! Lock discipline (DESIGN.md §8): the pool mutex is a leaf. It is taken
//! for a class lookup and a push or pop, and released before anything is
//! allocated or freed; it is never held across a socket call, a channel
//! operation or another lock.

use std::sync::Mutex;

use crate::msg::Payload;

/// The smallest buffer worth pooling (see the module docs).
pub const POOL_MIN_BYTES: usize = 64 << 10;

/// The largest buffer a miss allocates a spare for (see the module docs).
pub const SPARE_MAX_BYTES: usize = 1 << 20;

/// The free buffers of one capacity, and how many more are out.
#[derive(Debug)]
struct Class<T> {
    cap: usize,
    free: Vec<Vec<T>>,
    out: usize,
}

/// One element type's size classes in one lane.
#[derive(Debug)]
struct Classes<T>(Vec<Class<T>>);

impl<T> Default for Classes<T> {
    fn default() -> Self {
        Classes(Vec::new())
    }
}

impl<T> Classes<T> {
    fn class(&mut self, cap: usize) -> &mut Class<T> {
        let i = self.0.iter().position(|c| c.cap == cap).unwrap_or_else(|| {
            self.0.push(Class {
                cap,
                free: Vec::new(),
                out: 0,
            });
            self.0.len() - 1
        });
        &mut self.0[i]
    }

    /// Counts one buffer of capacity `cap` out and pops it if the class
    /// has one free (the most recently returned: the spare stays
    /// untouched underneath until it is needed).
    fn take(&mut self, cap: usize) -> Option<Vec<T>> {
        let class = self.class(cap);
        class.out += 1;
        class.free.pop()
    }

    /// Takes `v` back as the return of a buffer that is out; hands it
    /// back to the caller (to drop outside the lock) if none is.
    fn put(&mut self, v: Vec<T>) -> Option<Vec<T>> {
        match self.0.iter_mut().find(|c| c.cap == v.capacity()) {
            Some(class) if class.out > 0 => {
                class.out -= 1;
                class.free.push(v);
                None
            }
            _ => Some(v),
        }
    }

    fn pooled(&self) -> usize {
        self.0.iter().map(|c| c.free.len()).sum()
    }
}

#[derive(Debug, Default)]
struct Lane {
    f64s: Classes<f64>,
    u32s: Classes<u32>,
}

/// `lanes[home]`, then the others.
fn home_first(lanes: &mut [Lane], home: usize) -> impl Iterator<Item = &mut Lane> {
    let (before, rest) = lanes.split_at_mut(home);
    let (home, after) = rest.split_first_mut().expect("a lane per rank");
    std::iter::once(home).chain(before).chain(after)
}

#[derive(Debug)]
struct Lanes {
    lanes: Vec<Lane>,
    fresh: u64,
}

/// Per-rank lanes of exact-capacity free lists behind one leaf mutex.
/// `take_*` never fails: a request its lane cannot serve allocates
/// (counted in [`PayloadPool::fresh_allocs`]), so a rank is never handed
/// nothing — not after a peer died holding some.
#[derive(Debug)]
pub struct PayloadPool {
    free: Mutex<Lanes>,
}

impl PayloadPool {
    /// An empty pool for a world of `p` ranks.
    pub fn new(p: usize) -> Self {
        let lanes = (0..p).map(|_| Lane::default()).collect();
        PayloadPool {
            free: Mutex::new(Lanes { lanes, fresh: 0 }),
        }
    }

    fn with_free<R>(&self, f: impl FnOnce(&mut Lanes) -> R) -> R {
        // Every update is a counter step and one push or pop, so the
        // lists are valid even if a holder panicked.
        f(&mut self.free.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// An empty buffer of capacity exactly `cap` from the classes
    /// `classes` selects in lane `lane`; on a miss, a new one, and (up to
    /// [`SPARE_MAX_BYTES`]) a spare left in its class. Requests under
    /// [`POOL_MIN_BYTES`] go straight to the allocator.
    fn take<T>(
        &self,
        lane: usize,
        cap: usize,
        classes: impl Fn(&mut Lane) -> &mut Classes<T>,
    ) -> Vec<T> {
        let bytes = cap * std::mem::size_of::<T>();
        if bytes < POOL_MIN_BYTES {
            return Vec::with_capacity(cap);
        }
        let hit = self.with_free(|l| {
            let hit = classes(&mut l.lanes[lane]).take(cap);
            l.fresh += u64::from(hit.is_none());
            hit
        });
        if let Some(mut v) = hit {
            v.clear();
            return v;
        }
        if bytes <= SPARE_MAX_BYTES {
            let spare = Vec::with_capacity(cap);
            self.with_free(|l| classes(&mut l.lanes[lane]).class(cap).free.push(spare));
        }
        Vec::with_capacity(cap)
    }

    /// An empty `Vec<f64>` with capacity for `cap` elements, out of
    /// `lane` (the taker's rank).
    pub fn take_f64(&self, lane: usize, cap: usize) -> Vec<f64> {
        self.take(lane, cap, |l| &mut l.f64s)
    }

    /// An empty `Vec<u32>` with capacity for `cap` elements, out of
    /// `lane`.
    pub fn take_u32(&self, lane: usize, cap: usize) -> Vec<u32> {
        self.take(lane, cap, |l| &mut l.u32s)
    }

    /// Returns a payload's storage to `lane` — the rank it came from —
    /// for that rank's next request of its capacity. If that lane has no
    /// buffer of the size out, the first lane that does takes it (on a
    /// rank process the all-reduce root sends a part its reader took from
    /// the peer's lane back down in a frame of its own); storage no lane
    /// is missing is dropped.
    pub fn recycle(&self, lane: usize, payload: Payload) {
        let (idx, data) = match payload {
            Payload::Empty => return,
            Payload::F64(data) => (Vec::new(), data),
            Payload::U32(idx) => (idx, Vec::new()),
            Payload::Rows { idx, data } => (idx, data),
        };
        // Nothing this small was handed out; drop it without the lock.
        if 4 * idx.capacity() < POOL_MIN_BYTES && 8 * data.capacity() < POOL_MIN_BYTES {
            return;
        }
        let _unclaimed = self.with_free(|l| {
            let idx = home_first(&mut l.lanes, lane).try_fold(idx, |v, lane| lane.u32s.put(v));
            let data = home_first(&mut l.lanes, lane).try_fold(data, |v, lane| lane.f64s.put(v));
            (idx, data)
        });
    }

    /// Retired buffers currently held, over all lanes.
    pub fn pooled(&self) -> usize {
        self.with_free(|l| {
            let lanes = l.lanes.iter();
            lanes.map(|l| l.f64s.pooled() + l.u32s.pooled()).sum()
        })
    }

    /// How many `take_*` calls the lanes could not serve. Flat across
    /// epochs ⇒ the steady state moves payloads without touching the
    /// allocator; asserted by the closed-loop tests.
    pub fn fresh_allocs(&self) -> u64 {
        self.with_free(|l| l.fresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Element counts of a pooled class with a spare, a second one, and
    /// one too big for a spare.
    const N: usize = POOL_MIN_BYTES / 8;
    const M: usize = N + 100;
    const BIG: usize = SPARE_MAX_BYTES / 8 + 1;

    #[test]
    fn recycles_instead_of_allocating() {
        let pool = PayloadPool::new(1);
        let v = pool.take_f64(0, N);
        assert_eq!((pool.fresh_allocs(), pool.pooled()), (1, 1), "one spare");
        pool.recycle(0, Payload::F64(v));
        // The class now serves two takes at once without allocating.
        let (a, b) = (pool.take_f64(0, N), pool.take_f64(0, N));
        assert_eq!((pool.fresh_allocs(), pool.pooled()), (1, 0));
        assert!(a.is_empty() && a.capacity() == N && b.capacity() == N);
    }

    #[test]
    fn a_request_is_served_only_by_its_own_size_and_lane() {
        let pool = PayloadPool::new(2);
        let v = pool.take_f64(0, M);
        pool.recycle(0, Payload::F64(v));
        assert_eq!((pool.fresh_allocs(), pool.pooled()), (1, 2));
        // A smaller request must not walk off with a bigger buffer, nor a
        // neighbour's request of the same size …
        assert_eq!(pool.take_f64(0, N).capacity(), N);
        assert_eq!(pool.take_f64(1, M).capacity(), M);
        assert_eq!(pool.fresh_allocs(), 3);
        // … they are still there for their own lane's requests.
        let (a, b) = (pool.take_f64(0, M), pool.take_f64(0, M));
        assert_eq!((a.capacity(), b.capacity(), pool.fresh_allocs()), (M, M, 3));
    }

    #[test]
    fn rows_retire_both_buffers_and_empties_are_dropped() {
        let pool = PayloadPool::new(1);
        let (idx, data) = (pool.take_u32(0, 2 * N), pool.take_f64(0, N));
        assert_eq!((pool.pooled(), pool.fresh_allocs()), (2, 2), "two spares");
        pool.recycle(0, Payload::Empty);
        pool.recycle(0, Payload::F64(Vec::new()));
        assert_eq!(pool.pooled(), 2);
        pool.recycle(0, Payload::Rows { idx, data });
        assert_eq!(pool.pooled(), 4);
    }

    #[test]
    fn a_lane_keeps_only_what_it_handed_out() {
        let pool = PayloadPool::new(1);
        // Nothing of this size is out: a caller-built payload is dropped.
        pool.recycle(0, Payload::F64(vec![0.5; N]));
        assert_eq!(pool.pooled(), 0);
        // One is out: one comes back, a second one does not.
        let v = pool.take_f64(0, N);
        assert_eq!(pool.pooled(), 1, "the spare");
        pool.recycle(0, Payload::F64(v));
        pool.recycle(0, Payload::F64(Vec::with_capacity(N)));
        assert_eq!(pool.pooled(), 2);
    }

    #[test]
    fn a_buffer_its_home_is_not_missing_goes_to_a_lane_that_is() {
        let pool = PayloadPool::new(3);
        let v = pool.take_f64(2, N);
        // Sent home to lane 0, which has nothing of the size out: lane 2
        // is the one missing it.
        pool.recycle(0, Payload::F64(v));
        assert_eq!(pool.pooled(), 2);
        let (a, b) = (pool.take_f64(2, N), pool.take_f64(2, N));
        assert_eq!((a.capacity(), b.capacity(), pool.fresh_allocs()), (N, N, 1));
    }

    #[test]
    fn small_requests_bypass_the_pool_and_big_ones_get_no_spare() {
        let pool = PayloadPool::new(1);
        assert!(pool.take_f64(0, 0).capacity() == 0, "nothing to reserve");
        let small = pool.take_u32(0, 7);
        assert_eq!(small.capacity(), 7, "exact, not amortized");
        pool.recycle(0, Payload::U32(small));
        assert_eq!((pool.pooled(), pool.fresh_allocs()), (0, 0));
        // Over the spare limit: one buffer, and a second only on demand.
        let big = pool.take_f64(0, BIG);
        assert_eq!(
            (big.capacity(), pool.pooled(), pool.fresh_allocs()),
            (BIG, 0, 1)
        );
        let second = pool.take_f64(0, BIG);
        assert_eq!(pool.fresh_allocs(), 2);
        pool.recycle(0, Payload::F64(big));
        pool.recycle(0, Payload::F64(second));
        assert_eq!(pool.pooled(), 2);
    }
}
