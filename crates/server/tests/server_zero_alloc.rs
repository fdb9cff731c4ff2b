//! Extends the platform's counting-allocator bar to the daemon's worker
//! execution path: once a worker's [`Runner`] has warmed (first platform
//! build + first reset), the steady-state simulated stepping inside
//! [`hmp_server::run_cell`] performs zero heap allocations.
//!
//! Allocation belongs to the edges — platform construction, program
//! generation at `prepare`, result assembly and JSON rendering — all of
//! which happen once per cell, outside the cycle loop this test
//! measures. The one exception is memory: main memory and the checker's
//! golden image are sparse, so the first write to each page allocates
//! it inside the cycle loop. The warm-up cells below run the same spec
//! as the measured window, so every page it writes is already mapped;
//! a job's first cell on a fresh runner does allocate while stepping. Same structure as `observer_zero_alloc.rs` phase 7 (the
//! sweep paths' reset-don't-drop batching), reached through the server's
//! own primitives.

use hmp_platform::Strategy;
use hmp_server::run_cell;
use hmp_workloads::{MicrobenchParams, RunSpec, Runner, Scenario};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

struct CountingAlloc;

// SAFETY: delegates verbatim to the std system allocator; the counter is
// a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn pooled_runner_execution_path_does_not_allocate_in_steady_state() {
    let spec = RunSpec::new(
        Scenario::Worst,
        Strategy::Proposed,
        MicrobenchParams {
            lines_per_iter: 4,
            exec_time: 1,
            outer_iters: 8,
            seed: 1,
            ..Default::default()
        },
    );

    // One pool worker's runner: first call builds the platform, second
    // call warms the reset-don't-drop reuse path — both outside the
    // measured window, exactly as in a long-lived daemon.
    let mut runner = Runner::new();
    let first = run_cell(&mut runner, &spec);
    let second = run_cell(&mut runner, &spec);
    assert!(first.is_clean_completion());
    assert_eq!(first, second, "the pooled path must be deterministic");
    assert!(runner.reuses() >= 1, "warm-up must exercise the reuse path");

    // The steady state a worker lives in: reset the warm platform
    // (`prepare`, which allocates for program generation — excluded) and
    // then advance the simulated cycle loop, which must not allocate.
    let sys = runner.prepare(&spec);
    for _ in 0..200 {
        sys.step();
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..2_000 {
        sys.step();
    }
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(
        after - before,
        0,
        "steady-state stepping on the server's pooled runner must not allocate"
    );

    // The measured window advanced a live workload, and the runner still
    // produces byte-identical results afterwards.
    let third = run_cell(&mut runner, &spec);
    assert_eq!(first, third);
    assert!(
        runner.rebuilds() <= 1,
        "the pool must never rebuild per cell"
    );
}
