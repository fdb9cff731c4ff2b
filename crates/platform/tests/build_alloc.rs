//! Building a platform costs what its parts need, not its address space.
//!
//! The memory and the coherence checker's golden image are sparse paged
//! images, so constructing the paper's 4 MiB platform requests no large
//! block: only the page tables and the components themselves.

use hmp_cpu::{LockKind, Program};
use hmp_platform::{presets, Strategy, System};
use std::alloc::{GlobalAlloc, Layout, System as SystemAlloc};
use std::sync::atomic::{AtomicUsize, Ordering};

static LARGEST: AtomicUsize = AtomicUsize::new(0);

struct LargestAlloc;

// SAFETY: delegates verbatim to the std system allocator; the record is
// a relaxed atomic with no other side effects.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { SystemAlloc.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        unsafe { SystemAlloc.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { SystemAlloc.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LARGEST.fetch_max(new_size, Ordering::Relaxed);
        unsafe { SystemAlloc.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: LargestAlloc = LargestAlloc;

#[test]
fn ppc_arm_build_makes_no_large_allocation() {
    let (spec, _) = presets::ppc_arm(Strategy::Proposed, LockKind::Turn, false);
    assert_eq!(spec.memory_bytes, 4 << 20);
    assert!(
        spec.check_coherence,
        "the golden image is part of the build"
    );
    let programs = vec![Program::empty(), Program::empty()];
    LARGEST.store(0, Ordering::Relaxed);
    let sys = System::new(&spec, programs);
    let largest = LARGEST.load(Ordering::Relaxed);
    assert!(sys.checker().is_some());
    assert!(
        largest < 1 << 20,
        "System::new made a {largest}-byte allocation"
    );
}
