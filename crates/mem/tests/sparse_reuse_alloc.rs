//! Counting-allocator check of the sparse memory image's reuse story: once
//! a pass has written its pages, a reset followed by an identical pass
//! allocates nothing, and the reset leaves every word reading zero.

use hmp_mem::{Addr, Memory, LINE_BYTES};
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

const SIZE: u32 = 4 << 20;

/// Word and line writes scattered over a few hundred pages of `mem`.
fn pass(mem: &mut Memory) {
    for k in 0..300u32 {
        let byte = k.wrapping_mul(0x9E37_79B9) % SIZE;
        mem.write_word(Addr::new(byte), k + 1);
        let line = Addr::new(byte / LINE_BYTES * LINE_BYTES);
        mem.write_line(line, &[k; 8]);
    }
}

#[test]
fn reset_then_identical_pass_allocates_nothing() {
    let mut mem = Memory::new(SIZE);
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    pass(&mut mem);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert!(after > before, "the first pass gives its pages storage");
    assert!(
        (0..SIZE)
            .step_by(4)
            .any(|w| mem.read_word(Addr::new(w)) != 0),
        "the first pass's writes are visible"
    );

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    mem.reset();
    let after_reset = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after_reset - before, 0, "reset must not allocate");
    for word in (0..SIZE).step_by(4) {
        assert_eq!(mem.read_word(Addr::new(word)), 0, "word at {word:#x}");
    }

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    pass(&mut mem);
    let after = ALLOCATIONS.load(Ordering::Relaxed);
    assert_eq!(after - before, 0, "a repeat pass must reuse its pages");
}
