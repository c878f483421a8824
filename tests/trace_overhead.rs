//! Zero-overhead-when-off, allocation-free-when-on: the tracing hooks
//! measured with a counting global allocator.
//!
//! This file is its own test binary so the `#[global_allocator]` swap
//! stays contained. The counter is per thread: only the allocations of
//! the thread that measures are seen, never those of the test harness or
//! of a world's other threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use gnn_comm::{CostModel, Phase, SpanKind, ThreadWorld};
use gnn_trace::{EventKind, RankTracer};

struct CountingAlloc;

thread_local! {
    // Const-initialised and without a destructor: reading it never
    // allocates and never fails, even while a thread is torn down.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by the calling thread so far.
fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn tracing_hooks_do_not_allocate() {
    // Part 1: tracing OFF — the hook sites in RankCtx (span begin/end,
    // compute recording) must be branch-only no-ops, so a steady-state
    // loop performs zero heap allocations.
    let world = ThreadWorld::new(1, CostModel::bandwidth_only());
    let (deltas, _) = world.run(|ctx| {
        assert!(!ctx.tracing());
        for _ in 0..8 {
            ctx.span_begin(SpanKind::Epoch, Phase::Other);
            ctx.record_compute(64);
            ctx.span_end();
        }
        let before = allocations();
        for _ in 0..10_000 {
            ctx.span_begin(SpanKind::Epoch, Phase::Other);
            ctx.record_compute(64);
            ctx.span_end();
        }
        allocations() - before
    });
    assert_eq!(deltas[0], 0, "tracing-off hot path must not touch the heap");

    // Part 2: tracing ON — the recorder preallocates its event buffer
    // and histogram, so recording events within capacity is also
    // allocation-free (growth beyond capacity amortizes like Vec).
    let mut tracer = RankTracer::new(0);
    let before = allocations();
    for _ in 0..500 {
        tracer.op(
            EventKind::Compute,
            Phase::LocalCompute,
            None,
            0,
            0,
            64,
            1e-9,
        );
        tracer.message(64);
    }
    assert_eq!(
        allocations() - before,
        0,
        "recording within capacity must not allocate"
    );
    assert_eq!(tracer.len(), 500);
}
