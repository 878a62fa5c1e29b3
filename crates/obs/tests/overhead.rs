//! Overhead guard: with telemetry disabled (`RDD_TRACE` unset) the
//! instrumentation hot path — `SpanCell::enter` + `HistCell::record` —
//! and an unarmed fault site (`fault::fire` with no `RDD_FAULT`) must
//! allocate nothing and cost at most a small multiple of an empty loop.
//! This is the contract that lets kernels, the trainer and the serve
//! engine stay instrumented unconditionally.
//!
//! `ci.sh` runs this test explicitly (`cargo test -p rdd-obs --test
//! overhead`); it also runs as part of the normal workspace test sweep.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Instant;

/// System allocator wrapper that counts allocation calls per thread, so
/// the test can assert its own hot loop performs exactly zero of them
/// without picking up concurrent libtest-harness threads. The counter is
/// const-initialized TLS: reading it never allocates, so there is no
/// recursion hazard inside `alloc`.
struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with`: TLS may be mid-teardown when late allocations happen.
        let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

static SPAN: rdd_obs::SpanCell = rdd_obs::SpanCell::new("overhead.span");
static HIST: rdd_obs::HistCell = rdd_obs::HistCell::new("overhead.hist");

#[test]
fn disabled_recorder_is_allocation_free_and_cheap() {
    if rdd_obs::enabled() || rdd_obs::fault::armed() {
        // The guard is about the *disabled* path; a trace sink or a fault
        // spec in the environment changes the premise, not the contract
        // under test.
        eprintln!("overhead guard skipped: RDD_TRACE or RDD_FAULT is set in this environment");
        return;
    }

    const ITERS: u64 = 1_000_000;

    // Warm up: fault in lazy statics and branch predictors outside the
    // measured (and allocation-counted) windows.
    let mut acc = 0u64;
    for i in 0..10_000u64 {
        let _g = SPAN.enter();
        HIST.record(i);
        std::hint::black_box(rdd_obs::fault::fire("overhead"));
        acc = acc.wrapping_add(std::hint::black_box(i));
    }

    // Reference: the same loop body without instrumentation.
    let t0 = Instant::now();
    for i in 0..ITERS {
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    let empty = t0.elapsed();

    let allocs_before = thread_allocs();
    let t1 = Instant::now();
    for i in 0..ITERS {
        let _g = std::hint::black_box(&SPAN).enter();
        std::hint::black_box(&HIST).record(i);
        std::hint::black_box(rdd_obs::fault::fire(std::hint::black_box("overhead")));
        acc = acc.wrapping_add(std::hint::black_box(i));
    }
    let instrumented = t1.elapsed();
    let allocs = thread_allocs() - allocs_before;
    std::hint::black_box(acc);

    assert_eq!(
        allocs, 0,
        "disabled span/hist/fault hot loop performed {allocs} allocations"
    );

    // Generous multiple plus an absolute slack term so scheduler noise on
    // loaded single-core CI boxes cannot flake the gate; a real regression
    // (e.g. locking or allocating on the disabled path) is orders of
    // magnitude past this.
    let bound_ns = empty.as_nanos() * 40 + 10_000_000;
    assert!(
        instrumented.as_nanos() <= bound_ns,
        "disabled instrumentation cost {:?} for {ITERS} iterations \
         (empty loop {:?}; bound {} ns)",
        instrumented,
        empty,
        bound_ns
    );
}
