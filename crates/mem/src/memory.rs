//! Sparse paged physical memory with real data storage.

use crate::{Addr, LINE_WORDS};

/// log2 of the words per page.
const PAGE_SHIFT: u32 = 8;
/// Words per page (1 KiB pages; a page holds 32 whole cache lines).
const PAGE_WORDS: usize = 1 << PAGE_SHIFT;
/// Mask of a word's offset inside its page.
const PAGE_MASK: usize = PAGE_WORDS - 1;

/// A word-addressed physical memory, stored as a sparse paged image.
///
/// The simulator stores *actual data values*, not just timing state. That is
/// deliberate: the correctness property the paper's wrappers exist to
/// protect is "no processor ever reads a stale value", and the test suite
/// checks it by comparing every committed read against a golden memory
/// image. Tables 2 and 3 of the paper are reproduced as data-value
/// divergence, not just as state-machine traces.
///
/// A run touches a few KiB of a multi-MiB address space, so storage is
/// paged: a page table maps every 1 KiB page to a slot in a page arena.
/// Slot 0 is a permanent all-zero page that every untouched page maps to,
/// so reads are one table lookup and one index with no "is it mapped"
/// test. The first write to a page gives it a slot of its own. [`reset`]
/// zeroes the pages that have slots and keeps them mapped, so re-running
/// a workload allocates nothing and the cost of a reset follows what
/// earlier runs touched, not the memory size.
///
/// [`reset`]: Memory::reset
///
/// # Examples
///
/// ```
/// use hmp_mem::{Addr, Memory};
/// let mut mem = Memory::new(4096);
/// mem.write_word(Addr::new(8), 7);
/// assert_eq!(mem.read_word(Addr::new(8)), 7);
/// assert_eq!(mem.read_word(Addr::new(12)), 0); // zero-initialised
/// ```
#[derive(Debug, Clone)]
pub struct Memory {
    /// Arena slot of every page; 0 is the shared all-zero page.
    table: Vec<u32>,
    /// Page storage. `arena[0]` is the zero page and is never written.
    arena: Vec<[u32; PAGE_WORDS]>,
    /// Size in words.
    words: usize,
}

impl Memory {
    /// Creates a zero-initialised memory of `size_bytes` bytes. Only the
    /// page table is allocated; pages are allocated on first write.
    ///
    /// # Panics
    ///
    /// Panics if `size_bytes` is not a multiple of the line size.
    pub fn new(size_bytes: u32) -> Self {
        assert!(
            size_bytes.is_multiple_of(crate::LINE_BYTES),
            "memory size must be a whole number of cache lines"
        );
        let words = (size_bytes / crate::WORD_BYTES) as usize;
        Memory {
            table: vec![0; words.div_ceil(PAGE_WORDS)],
            arena: vec![[0; PAGE_WORDS]],
            words,
        }
    }

    /// Zeroes every written page in place for a cross-run reset. Pages
    /// stay mapped, so a re-run that writes the same pages allocates
    /// nothing.
    pub fn reset(&mut self) {
        for page in &mut self.arena[1..] {
            page.fill(0);
        }
    }

    /// Total size in bytes.
    pub fn size_bytes(&self) -> u32 {
        (self.words as u32) * crate::WORD_BYTES
    }

    /// Returns `true` if `addr`'s word lies inside this memory.
    pub fn contains(&self, addr: Addr) -> bool {
        addr.word_index() < self.words
    }

    /// Arena slot of the page holding word `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    fn slot(&self, i: usize) -> usize {
        assert!(
            i < self.words,
            "word {i} outside a {}-word memory",
            self.words
        );
        self.table[i >> PAGE_SHIFT] as usize
    }

    /// Arena slot of the page holding word `i`, giving the page a slot of
    /// its own if it has none yet.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    fn slot_mut(&mut self, i: usize) -> usize {
        let slot = self.slot(i);
        if slot != 0 {
            return slot;
        }
        let slot = self.arena.len();
        self.arena.push([0; PAGE_WORDS]);
        self.table[i >> PAGE_SHIFT] = slot as u32;
        slot
    }

    /// Reads the word containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn read_word(&self, addr: Addr) -> u32 {
        let i = addr.word_index();
        self.arena[self.slot(i)][i & PAGE_MASK]
    }

    /// Writes the word containing `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is out of range.
    pub fn write_word(&mut self, addr: Addr, value: u32) {
        let i = addr.word_index();
        let slot = self.slot_mut(i);
        self.arena[slot][i & PAGE_MASK] = value;
    }

    /// Reads the whole cache line containing `addr` (aligned down).
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range.
    pub fn read_line(&self, addr: Addr) -> [u32; LINE_WORDS as usize] {
        let base = addr.line_base().word_index();
        let last = base + LINE_WORDS as usize - 1;
        // A page holds whole lines, so the line's words share one page.
        let off = base & PAGE_MASK;
        let mut out = [0u32; LINE_WORDS as usize];
        out.copy_from_slice(&self.arena[self.slot(last)][off..off + LINE_WORDS as usize]);
        out
    }

    /// Writes a whole cache line at the line containing `addr` (aligned
    /// down). This is the write-back (drain) path.
    ///
    /// # Panics
    ///
    /// Panics if the line is out of range.
    pub fn write_line(&mut self, addr: Addr, data: &[u32; LINE_WORDS as usize]) {
        let base = addr.line_base().word_index();
        let slot = self.slot_mut(base + LINE_WORDS as usize - 1);
        let off = base & PAGE_MASK;
        self.arena[slot][off..off + LINE_WORDS as usize].copy_from_slice(data);
    }

    /// Fills every word with `value` — handy for test fixtures. Filling
    /// with 0 is a [`reset`](Memory::reset); any other value gives every
    /// page storage.
    pub fn fill(&mut self, value: u32) {
        if value == 0 {
            self.reset();
            return;
        }
        for page in 0..self.table.len() {
            let slot = self.slot_mut(page << PAGE_SHIFT);
            self.arena[slot].fill(value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PAGE_BYTES: u32 = (PAGE_WORDS as u32) * crate::WORD_BYTES;

    /// Pages given storage of their own, the zero page not counted.
    fn mapped(mem: &Memory) -> usize {
        mem.arena.len() - 1
    }

    #[test]
    fn zero_initialised() {
        let mem = Memory::new(1024);
        assert_eq!(mem.size_bytes(), 1024);
        assert_eq!(mem.read_word(Addr::new(0)), 0);
        assert_eq!(mem.read_word(Addr::new(1020)), 0);
    }

    #[test]
    fn unwritten_words_and_lines_read_zero_without_storage() {
        let mem = Memory::new(4 << 20);
        for byte in [0u32, 0x1234, 0x10_0000, (4 << 20) - 4] {
            assert_eq!(mem.read_word(Addr::new(byte)), 0);
            assert_eq!(mem.read_line(Addr::new(byte)), [0; 8]);
        }
        assert_eq!(mapped(&mem), 0);
    }

    #[test]
    fn word_round_trip() {
        let mut mem = Memory::new(1024);
        mem.write_word(Addr::new(100), 42); // unaligned byte addr → same word
        assert_eq!(mem.read_word(Addr::new(100)), 42);
        assert_eq!(mem.read_word(Addr::new(103)), 42);
        assert_eq!(mem.read_word(Addr::new(104)), 0);
    }

    #[test]
    fn line_round_trip() {
        let mut mem = Memory::new(1024);
        let line: [u32; 8] = [1, 2, 3, 4, 5, 6, 7, 8];
        mem.write_line(Addr::new(0x40), &line);
        assert_eq!(mem.read_line(Addr::new(0x44)), line); // any addr in line
        assert_eq!(mem.read_word(Addr::new(0x40)), 1);
        assert_eq!(mem.read_word(Addr::new(0x5C)), 8);
    }

    #[test]
    fn lines_at_both_ends_of_a_page() {
        let mut mem = Memory::new(4 * PAGE_BYTES);
        let first = Addr::new(PAGE_BYTES);
        let last = Addr::new(2 * PAGE_BYTES - crate::LINE_BYTES);
        mem.write_line(first, &[1; 8]);
        mem.write_line(last, &[2; 8]);
        assert_eq!(mapped(&mem), 1, "both lines live in one page");
        assert_eq!(mem.read_line(first), [1; 8]);
        assert_eq!(mem.read_line(last), [2; 8]);
        // The neighbouring pages' edge words are untouched.
        assert_eq!(mem.read_word(Addr::new(PAGE_BYTES - 4)), 0);
        assert_eq!(mem.read_word(Addr::new(2 * PAGE_BYTES)), 0);
        assert_eq!(mem.read_line(Addr::new(2 * PAGE_BYTES)), [0; 8]);
    }

    #[test]
    fn written_then_zeroed_page_reads_like_an_untouched_one() {
        let mut mem = Memory::new(8 * PAGE_BYTES);
        let addr = Addr::new(3 * PAGE_BYTES + 8);
        mem.write_word(addr, 5);
        assert_eq!(mem.read_word(addr), 5);
        mem.write_word(addr, 0);
        assert_eq!(mapped(&mem), 1, "the page keeps its storage");
        for word in (3 * PAGE_BYTES..4 * PAGE_BYTES).step_by(4) {
            assert_eq!(mem.read_word(Addr::new(word)), 0);
        }
    }

    #[test]
    fn fill_sets_everything() {
        let mut mem = Memory::new(64);
        mem.fill(0xAB);
        assert_eq!(mem.read_word(Addr::new(0)), 0xAB);
        assert_eq!(mem.read_word(Addr::new(60)), 0xAB);
    }

    #[test]
    fn fill_zero_resets() {
        let mut mem = Memory::new(4 * PAGE_BYTES);
        mem.fill(7);
        assert_eq!(mem.read_word(Addr::new(4 * PAGE_BYTES - 4)), 7);
        mem.fill(0);
        for word in (0..4 * PAGE_BYTES).step_by(4) {
            assert_eq!(mem.read_word(Addr::new(word)), 0);
        }
    }

    #[test]
    fn contains_bounds() {
        let mem = Memory::new(64);
        assert!(mem.contains(Addr::new(60)));
        assert!(!mem.contains(Addr::new(64)));
    }

    #[test]
    #[should_panic]
    fn out_of_range_read_panics() {
        Memory::new(64).read_word(Addr::new(64));
    }

    #[test]
    #[should_panic]
    fn out_of_range_write_panics() {
        Memory::new(64).write_word(Addr::new(64), 1);
    }

    #[test]
    #[should_panic]
    fn out_of_range_line_panics() {
        Memory::new(64).read_line(Addr::new(64));
    }

    #[test]
    #[should_panic(expected = "whole number of cache lines")]
    fn ragged_size_panics() {
        let _ = Memory::new(100);
    }
}
