//! Every processor's cache in one line-major tag array.
//!
//! "The simulations used direct-mapped caches of size 256KBytes and block
//! size 16 bytes."
//!
//! All caches share one geometry, so [`TagArray`] stores line `l` of every
//! cache side by side: `slots[l * procs + p]` is line `l` of processor
//! `p`'s cache. A block can only live on its own line, so the copies of a
//! block across the machine are exactly the slots of one line that hold
//! it, and finding them is one contiguous scan of `procs` slots (256 bytes
//! at 16 processors). That makes the directory redundant: its sharer set
//! is those slots, and its dirty bit is whether one of them is
//! [`LineState::Dirty`].
//!
//! The one thing a directory entry adds is the order in which its sharers
//! joined, which picks the victim when a limited-pointer entry overflows.
//! Each slot therefore carries a join stamp: every fill takes the next
//! stamp, and the oldest stamp among a block's copies is the first sharer
//! a pointer list would have recorded.

/// Cache geometry: total size and block size, both powers of two.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    /// Total cache capacity in bytes.
    pub cache_bytes: usize,
    /// Block (line) size in bytes.
    pub block_bytes: usize,
}

impl CacheGeometry {
    /// The paper's geometry: 256 KB direct-mapped, 16-byte blocks.
    pub fn paper() -> Self {
        Self::new(256 * 1024, 16)
    }

    /// Creates a geometry.
    ///
    /// # Panics
    ///
    /// Panics unless both sizes are powers of two and the cache holds at
    /// least one block.
    pub fn new(cache_bytes: usize, block_bytes: usize) -> Self {
        assert!(cache_bytes.is_power_of_two(), "cache size must be 2^k");
        assert!(block_bytes.is_power_of_two(), "block size must be 2^k");
        assert!(cache_bytes >= block_bytes, "cache must hold a block");
        Self {
            cache_bytes,
            block_bytes,
        }
    }

    /// Number of lines in a direct-mapped cache.
    pub fn lines(&self) -> usize {
        self.cache_bytes / self.block_bytes
    }

    /// The block address (block-aligned index) containing a byte address.
    pub fn block_of(&self, addr: u64) -> u64 {
        addr / self.block_bytes as u64
    }

    /// The direct-mapped line index of a block address.
    pub fn line_of(&self, block: u64) -> usize {
        (block % self.lines() as u64) as usize
    }
}

/// Coherence state of a cached copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineState {
    /// Clean copy; may be shared with other caches.
    Shared,
    /// Modified copy; the only copy in any cache.
    Dirty,
}

/// One line of one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot {
    block: u64,
    /// `0` when empty; otherwise `join << 1 | dirty`, with join stamps
    /// counting from 1, so comparing `meta` compares join order.
    meta: u64,
}

impl Slot {
    const EMPTY: Slot = Slot { block: 0, meta: 0 };

    fn new(block: u64, join: u64, state: LineState) -> Self {
        let dirty = u64::from(state == LineState::Dirty);
        Slot {
            block,
            meta: join << 1 | dirty,
        }
    }

    /// The state of whatever block the slot holds.
    fn state(self) -> Option<LineState> {
        match self.meta {
            0 => None,
            m if m & 1 == 1 => Some(LineState::Dirty),
            _ => Some(LineState::Shared),
        }
    }

    fn holds(self, block: u64) -> bool {
        self.meta != 0 && self.block == block
    }
}

/// The caches of a machine of `procs` processors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TagArray {
    procs: usize,
    block_shift: u32,
    line_mask: u64,
    /// The last join stamp handed out.
    joins: u64,
    slots: Vec<Slot>,
}

impl TagArray {
    /// Empty caches for `procs` processors.
    ///
    /// # Panics
    ///
    /// Panics unless both sizes of `geometry` are powers of two and the
    /// cache holds a block (a geometry built by hand can skip
    /// [`CacheGeometry::new`]'s checks).
    pub(crate) fn new(procs: usize, geometry: CacheGeometry) -> Self {
        let g = CacheGeometry::new(geometry.cache_bytes, geometry.block_bytes);
        Self {
            procs,
            block_shift: g.block_bytes.trailing_zeros(),
            line_mask: g.lines() as u64 - 1,
            joins: 0,
            slots: vec![Slot::EMPTY; g.lines() * procs],
        }
    }

    /// The copies of the block holding `addr`.
    pub(crate) fn copies_of(&mut self, addr: u64) -> Copies<'_> {
        let block = addr >> self.block_shift;
        // The mask keeps the line below `lines`, so it fits a `usize`.
        let start = (block & self.line_mask) as usize * self.procs;
        Copies {
            block,
            slots: &mut self.slots[start..start + self.procs],
            joins: &mut self.joins,
        }
    }
}

/// What one scan of a line found about a block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sharers {
    /// How many caches hold the block.
    pub(crate) count: usize,
    /// The cache holding it dirty, if any.
    pub(crate) dirty: Option<usize>,
    /// The copy that joined first, if any.
    pub(crate) oldest: Option<usize>,
}

/// One block's line across every cache: `slots[p]` is processor `p`'s.
pub(crate) struct Copies<'a> {
    block: u64,
    slots: &'a mut [Slot],
    joins: &'a mut u64,
}

impl Copies<'_> {
    /// The state of `proc`'s copy, if it has one.
    pub(crate) fn state(&self, proc: usize) -> Option<LineState> {
        let slot = self.slots[proc];
        slot.state().filter(|_| slot.block == self.block)
    }

    /// Scans the line for the block's copies.
    pub(crate) fn sharers(&self) -> Sharers {
        let mut found = Sharers {
            count: 0,
            dirty: None,
            oldest: None,
        };
        let mut oldest = u64::MAX;
        for (p, slot) in self.slots.iter().enumerate() {
            if !slot.holds(self.block) {
                continue;
            }
            found.count += 1;
            if slot.meta & 1 == 1 {
                found.dirty = Some(p);
            }
            if slot.meta < oldest {
                oldest = slot.meta;
                found.oldest = Some(p);
            }
        }
        found
    }

    /// Invalidates every copy but `proc`'s, returning how many there were
    /// and whether one of them was dirty.
    pub(crate) fn invalidate_others(&mut self, proc: usize) -> (u64, bool) {
        let (mut count, mut dirty) = (0, false);
        for (p, slot) in self.slots.iter_mut().enumerate() {
            if p != proc && slot.holds(self.block) {
                count += 1;
                dirty |= slot.meta & 1 == 1;
                *slot = Slot::EMPTY;
            }
        }
        (count, dirty)
    }

    /// Drops `proc`'s copy.
    pub(crate) fn invalidate(&mut self, proc: usize) {
        debug_assert!(self.state(proc).is_some(), "no copy to invalidate");
        self.slots[proc] = Slot::EMPTY;
    }

    /// Changes the state of `proc`'s copy, keeping its join stamp.
    pub(crate) fn set_state(&mut self, proc: usize, state: LineState) {
        debug_assert!(self.state(proc).is_some(), "no copy to change");
        let slot = &mut self.slots[proc];
        *slot = Slot::new(slot.block, slot.meta >> 1, state);
    }

    /// Installs the block in `proc`'s cache as its newest copy, returning
    /// the state of the other block the line held, if any.
    pub(crate) fn fill(&mut self, proc: usize, state: LineState) -> Option<LineState> {
        debug_assert!(self.state(proc).is_none(), "block already resident");
        let evicted = self.slots[proc].state();
        *self.joins += 1;
        self.slots[proc] = Slot::new(self.block, *self.joins, state);
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_geometry() {
        let g = CacheGeometry::paper();
        assert_eq!(g.lines(), 16384);
        assert_eq!(g.block_of(31), 1);
        assert_eq!(g.block_of(32), 2);
        assert_eq!(g.line_of(16384 + 3), 3);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn non_power_of_two_rejected() {
        CacheGeometry::new(1000, 16);
    }

    #[test]
    #[should_panic(expected = "2^k")]
    fn hand_built_geometry_is_checked() {
        TagArray::new(
            2,
            CacheGeometry {
                cache_bytes: 1000,
                block_bytes: 16,
            },
        );
    }
}
