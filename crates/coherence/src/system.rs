//! The Dir_i NB machine: caches + derived directory + protocol.
//!
//! "In general, for every memory block, a directory must store as many
//! pointers as the number of processors (say N) in the system. Such a
//! scheme is termed Dir_N NB, for N-pointers-No-Broadcast. In practice, it
//! is possible to maintain just i pointers (i < N) to yield the Dir_i NB
//! scheme. Invalidations are forced to limit the cached copies of a block
//! to i, or to gain exclusive ownership on a write."
//!
//! [`DirectorySystem`] implements [`MemorySystem`], so the `abs-trace`
//! scheduler can drive it directly with a synthetic application — the
//! equivalent of the paper's trace-driven simulations. It keeps no
//! directory of its own: each block's directory entry is read off the
//! caches' shared tag array (see the `tags` module).

use abs_trace::ops::{MemorySystem, RefKind};

use crate::stats::CoherenceStats;
use crate::tags::{CacheGeometry, LineState, TagArray};

/// The number of sharer pointers each directory entry can hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PointerLimit {
    /// `Dir_i NB` with `i` pointers.
    Limited(usize),
    /// `Dir_N NB`: one pointer per processor (no pointer-overflow
    /// invalidations).
    Full,
}

impl PointerLimit {
    /// The paper's Table-1 sweep: 2, 3, 4, 5 and full-map (quoted as 64).
    pub fn paper_sweep() -> [PointerLimit; 5] {
        [
            PointerLimit::Limited(2),
            PointerLimit::Limited(3),
            PointerLimit::Limited(4),
            PointerLimit::Limited(5),
            PointerLimit::Full,
        ]
    }

    /// The concrete pointer count for a machine of `procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if a limited count is zero.
    pub fn pointers(&self, procs: usize) -> usize {
        match *self {
            PointerLimit::Limited(i) => {
                assert!(i > 0, "pointer count must be positive");
                i.min(procs)
            }
            PointerLimit::Full => procs,
        }
    }

    /// Label used in the paper's tables ("2", …, "64").
    pub fn label(&self, procs: usize) -> String {
        self.pointers(procs).to_string()
    }
}

/// How synchronization (and optionally all shared) variables are treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SyncCaching {
    /// Everything is cached and kept coherent (the Table-1 configuration).
    #[default]
    Cached,
    /// Synchronization variables bypass the caches; every sync reference is
    /// a two-transaction memory access (the Table-2 configuration:
    /// "disallow caching of synchronization variables").
    UncachedSync,
    /// All shared variables bypass the caches (the RP3/Ultracomputer-style
    /// measurement of Section 2.2: sync traffic was 25.5 %, 49.2 % and
    /// 1.47 % of total for SIMPLE, WEATHER and FFT).
    UncachedShared,
}

/// A directory-coherent multiprocessor memory system.
///
/// A block's directory entry is derived from the caches: its sharers are
/// the caches holding it, it is dirty when one of them holds it
/// [`Dirty`](LineState::Dirty), and when a limited-pointer entry overflows
/// the sharer that joined first is invalidated.
///
/// # Examples
///
/// ```
/// use abs_coherence::{DirectorySystem, PointerLimit, SyncCaching, CacheGeometry};
/// use abs_trace::ops::{MemorySystem, RefKind};
///
/// let mut sys = DirectorySystem::new(
///     4,
///     CacheGeometry::new(1024, 16),
///     PointerLimit::Limited(2),
///     SyncCaching::Cached,
/// );
/// // Two readers fill both pointers; a third reader overflows the entry,
/// // and the first sharer's copy is invalidated to make room.
/// sys.access(0, 0x100, false, RefKind::Shared);
/// sys.access(1, 0x100, false, RefKind::Shared);
/// assert_eq!(sys.stats().invalidation_messages, 0);
/// sys.access(2, 0x100, false, RefKind::Shared);
/// assert_eq!(sys.stats().invalidation_messages, 1);
/// // Processor 0 lost its copy, so its next read misses.
/// let misses = sys.stats().misses;
/// sys.access(0, 0x100, false, RefKind::Shared);
/// assert_eq!(sys.stats().misses, misses + 1);
/// // A write invalidates every other copy.
/// sys.access(3, 0x100, true, RefKind::Shared);
/// assert_eq!(sys.stats().invalidation_messages, 1 + 1 + 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DirectorySystem {
    procs: usize,
    mode: SyncCaching,
    pointers: usize,
    tags: TagArray,
    stats: CoherenceStats,
}

impl DirectorySystem {
    /// Creates a system of `procs` processors.
    ///
    /// # Panics
    ///
    /// Panics if `procs == 0`, the pointer limit is invalid, or a size in
    /// `geometry` is not a power of two.
    pub fn new(
        procs: usize,
        geometry: CacheGeometry,
        limit: PointerLimit,
        mode: SyncCaching,
    ) -> Self {
        assert!(procs > 0, "at least one processor required");
        Self {
            procs,
            mode,
            pointers: limit.pointers(procs),
            tags: TagArray::new(procs, geometry),
            stats: CoherenceStats::new(),
        }
    }

    /// The paper's machine: 64 processors, 256 KB / 16 B caches.
    pub fn paper_machine(limit: PointerLimit, mode: SyncCaching) -> Self {
        Self::new(64, CacheGeometry::paper(), limit, mode)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    /// The caching mode in force.
    pub fn mode(&self) -> SyncCaching {
        self.mode
    }

    /// Number of processors.
    pub fn procs(&self) -> usize {
        self.procs
    }

    /// The state of `proc`'s copy of the block holding `addr`, if any.
    #[cfg(test)]
    pub(crate) fn resident(&mut self, proc: usize, addr: u64) -> Option<LineState> {
        self.tags.copies_of(addr).state(proc)
    }

    fn bypasses_cache(&self, kind: RefKind) -> bool {
        match self.mode {
            SyncCaching::Cached => false,
            SyncCaching::UncachedSync => kind == RefKind::Sync,
            SyncCaching::UncachedShared => kind == RefKind::Sync || kind == RefKind::Shared,
        }
    }
}

impl MemorySystem for DirectorySystem {
    fn access(&mut self, proc: usize, addr: u64, write: bool, kind: RefKind) {
        debug_assert!(proc < self.procs, "processor id out of range");
        self.stats.record_ref(kind);

        if self.bypasses_cache(kind) {
            // Uncached access: request + response over the network.
            self.stats.traffic_total += 2;
            if kind.is_sync() {
                self.stats.traffic_sync += 2;
            }
            return;
        }

        let mut copies = self.tags.copies_of(addr);
        let mut traffic = 0u64;
        let mut invalidations = 0u64;

        let resident = copies.state(proc);
        let evicted = match (write, resident) {
            // Hits on a copy that already allows the access: silent.
            (true, Some(LineState::Dirty)) | (false, Some(_)) => return,
            (true, _) => {
                // Upgrade or write miss: every other copy is invalidated.
                let (others, was_dirty) = copies.invalidate_others(proc);
                self.stats.invalidation_messages += others;
                invalidations = others;
                traffic += others;
                // Figure 1: invalidation count per write to a previously
                // clean block (a block nobody held dirty).
                if !was_dirty {
                    self.stats.clean_write_invalidations.record(others);
                }
                if resident.is_some() {
                    traffic += 1;
                    copies.set_state(proc, LineState::Dirty);
                    None
                } else {
                    self.stats.misses += 1;
                    traffic += 2;
                    if was_dirty {
                        // The dirty copy came back from its owner first.
                        self.stats.writebacks += 1;
                        traffic += 2;
                    }
                    copies.fill(proc, LineState::Dirty)
                }
            }
            (false, None) => {
                self.stats.misses += 1;
                traffic += 2;
                let sharers = copies.sharers();
                if let Some(owner) = sharers.dirty {
                    // Downgrade the dirty owner: it writes back and keeps
                    // a shared copy.
                    copies.set_state(owner, LineState::Shared);
                    self.stats.writebacks += 1;
                    traffic += 2;
                }
                // Pointer overflow: the first sharer's copy is evicted.
                let full = sharers.count >= self.pointers;
                if let Some(victim) = sharers.oldest.filter(|_| full) {
                    copies.invalidate(victim);
                    self.stats.invalidation_messages += 1;
                    traffic += 1;
                    invalidations += 1;
                }
                copies.fill(proc, LineState::Shared)
            }
        };
        // The line's previous block leaves `proc`'s cache; a dirty one is
        // written back.
        if evicted == Some(LineState::Dirty) {
            self.stats.writebacks += 1;
            traffic += 2;
        }

        self.stats.traffic_total += traffic;
        if kind.is_sync() {
            self.stats.traffic_sync += traffic;
        }
        if invalidations > 0 {
            self.stats.record_invalidating_ref(kind);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny(limit: PointerLimit, mode: SyncCaching) -> DirectorySystem {
        DirectorySystem::new(4, CacheGeometry::new(1024, 16), limit, mode)
    }

    #[test]
    fn read_hit_is_free() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, false, RefKind::Shared);
        let t = s.stats().traffic_total;
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, t, "second read must hit");
        assert_eq!(s.stats().misses, 1);
    }

    #[test]
    fn miss_costs_two_transactions() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, 2);
    }

    #[test]
    fn write_upgrade_invalidates_sharers() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        for p in 0..3 {
            s.access(p, 0x100, false, RefKind::Shared);
        }
        s.access(0, 0x100, true, RefKind::Shared);
        assert_eq!(s.stats().invalidation_messages, 2);
        // Figure-1 histogram saw a clean write with 2 invalidations.
        assert_eq!(s.stats().clean_write_invalidations.count(2), 1);
        // The invalidated caches re-miss.
        let misses = s.stats().misses;
        s.access(1, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().misses, misses + 1);
    }

    #[test]
    fn write_hit_dirty_is_silent() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, true, RefKind::Shared);
        let t = s.stats().traffic_total;
        s.access(0, 0x104, true, RefKind::Shared); // same block
        assert_eq!(s.stats().traffic_total, t);
    }

    #[test]
    fn read_of_dirty_block_forces_writeback() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, true, RefKind::Shared);
        s.access(1, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().writebacks, 1);
        // Both now share cleanly; a further read by 0 hits.
        let misses = s.stats().misses;
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().misses, misses);
    }

    #[test]
    fn pointer_overflow_invalidates_on_read() {
        let mut s = tiny(PointerLimit::Limited(2), SyncCaching::Cached);
        s.access(0, 0x100, false, RefKind::Shared);
        s.access(1, 0x100, false, RefKind::Shared);
        let inv = s.stats().invalidation_messages;
        s.access(2, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().invalidation_messages, inv + 1);
        // The victim (processor 0, FIFO) must re-miss.
        let misses = s.stats().misses;
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().misses, misses + 1);
    }

    #[test]
    fn full_map_read_sharing_is_free_after_fill() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        for p in 0..4 {
            s.access(p, 0x100, false, RefKind::Shared);
        }
        assert_eq!(s.stats().invalidation_messages, 0);
    }

    #[test]
    fn uncached_sync_bypasses() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::UncachedSync);
        let flag = abs_trace::ops::SYNC_BASE;
        for _ in 0..10 {
            s.access(0, flag, false, RefKind::Sync);
        }
        assert_eq!(s.stats().traffic_sync, 20);
        assert_eq!(s.stats().traffic_total, 20);
        assert_eq!(s.stats().invalidation_messages, 0);
        // Non-sync still cached.
        s.access(0, 0x100, false, RefKind::Shared);
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, 22);
    }

    #[test]
    fn uncached_shared_bypasses_shared_too() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::UncachedShared);
        s.access(0, 0x100, false, RefKind::Shared);
        s.access(0, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, 4);
        // Private still cached.
        let p = abs_trace::ops::PRIVATE_BASE;
        s.access(0, p, false, RefKind::Private);
        s.access(0, p, false, RefKind::Private);
        assert_eq!(s.stats().traffic_total, 6);
    }

    #[test]
    fn spinning_on_cached_flag_hits_until_invalidated() {
        // The full-pointer case: a poller re-reads its cached flag copy for
        // free; the setter's write invalidates all pollers at once.
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        let flag = abs_trace::ops::SYNC_BASE;
        for p in 0..3 {
            s.access(p, flag, false, RefKind::Sync);
        }
        let t = s.stats().traffic_total;
        for _ in 0..50 {
            for p in 0..3 {
                s.access(p, flag, false, RefKind::Sync);
            }
        }
        assert_eq!(s.stats().traffic_total, t, "spins must hit in cache");
        s.access(3, flag, true, RefKind::Sync);
        assert_eq!(s.stats().invalidation_messages, 3);
    }

    #[test]
    fn limited_pointers_make_spinning_expensive() {
        // With 2 pointers, three spinners ping-pong: most spins miss.
        let mut full = tiny(PointerLimit::Full, SyncCaching::Cached);
        let mut lim = tiny(PointerLimit::Limited(2), SyncCaching::Cached);
        let flag = abs_trace::ops::SYNC_BASE;
        for sys in [&mut full, &mut lim] {
            for _ in 0..50 {
                for p in 0..3 {
                    sys.access(p, flag, false, RefKind::Sync);
                }
            }
        }
        assert!(
            lim.stats().traffic_total > 10 * full.stats().traffic_total.max(1),
            "limited {} full {}",
            lim.stats().traffic_total,
            full.stats().traffic_total
        );
    }

    #[test]
    fn conflict_eviction_writes_back_dirty() {
        // 1024-byte cache, 16-byte blocks: 64 lines. Blocks 0 and 64
        // conflict.
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0, true, RefKind::Shared);
        s.access(0, 64 * 16, false, RefKind::Shared);
        assert_eq!(s.stats().writebacks, 1);
        // Directory no longer tracks proc 0 for block 0.
        let misses = s.stats().misses;
        s.access(0, 0, false, RefKind::Shared);
        assert_eq!(s.stats().misses, misses + 1);
    }

    #[test]
    fn dirty_write_miss_transfers_ownership() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x200, true, RefKind::Shared);
        s.access(1, 0x200, true, RefKind::Shared);
        // Writeback from 0 plus invalidation of 0's copy.
        assert_eq!(s.stats().writebacks, 1);
        assert_eq!(s.stats().invalidation_messages, 1);
        // Now 1 owns it dirty; 1's write hits silently.
        let t = s.stats().traffic_total;
        s.access(1, 0x200, true, RefKind::Shared);
        assert_eq!(s.stats().traffic_total, t);
    }

    #[test]
    fn paper_sweep_counts() {
        let counts: Vec<usize> = PointerLimit::paper_sweep()
            .iter()
            .map(|l| l.pointers(64))
            .collect();
        assert_eq!(counts, [2, 3, 4, 5, 64]);
        assert_eq!(PointerLimit::Full.label(64), "64");
    }

    #[test]
    fn limited_clamps_to_procs() {
        assert_eq!(PointerLimit::Limited(8).pointers(4), 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_pointers_rejected() {
        tiny(PointerLimit::Limited(0), SyncCaching::Cached);
    }

    /// Which of `procs` processors hold the block of `addr`, and how.
    fn copies(s: &mut DirectorySystem, addr: u64) -> Vec<Option<LineState>> {
        (0..s.procs()).map(|p| s.resident(p, addr)).collect()
    }

    #[test]
    fn repeated_read_takes_one_pointer() {
        let mut s = tiny(PointerLimit::Limited(2), SyncCaching::Cached);
        s.access(1, 0x100, false, RefKind::Shared);
        s.access(1, 0x100, false, RefKind::Shared);
        s.access(2, 0x100, false, RefKind::Shared);
        assert_eq!(s.stats().invalidation_messages, 0);
        let shared = Some(LineState::Shared);
        assert_eq!(copies(&mut s, 0x100), [None, shared, shared, None]);
    }

    #[test]
    fn overflow_victims_are_fifo_across_overflows() {
        let mut s = DirectorySystem::new(
            8,
            CacheGeometry::new(1024, 16),
            PointerLimit::Limited(2),
            SyncCaching::Cached,
        );
        s.access(0, 0x100, false, RefKind::Shared);
        s.access(1, 0x100, false, RefKind::Shared);
        // Each new reader evicts the sharer that joined first.
        for p in 2..6 {
            s.access(p, 0x100, false, RefKind::Shared);
            let holders: Vec<usize> = (0..8).filter(|&q| s.resident(q, 0x100).is_some()).collect();
            assert_eq!(holders, [p - 1, p], "after reader {p}");
        }
        assert_eq!(s.stats().invalidation_messages, 4);
    }

    #[test]
    fn downgraded_owner_is_the_first_victim() {
        let mut s = tiny(PointerLimit::Limited(2), SyncCaching::Cached);
        s.access(0, 0x100, true, RefKind::Shared);
        s.access(1, 0x100, false, RefKind::Shared);
        s.access(2, 0x100, false, RefKind::Shared);
        let shared = Some(LineState::Shared);
        assert_eq!(copies(&mut s, 0x100), [None, shared, shared, None]);
    }

    #[test]
    fn full_map_never_overflows() {
        let mut s = DirectorySystem::new(
            8,
            CacheGeometry::new(1024, 16),
            PointerLimit::Full,
            SyncCaching::Cached,
        );
        for p in 0..8 {
            s.access(p, 0x100, false, RefKind::Shared);
        }
        assert_eq!(s.stats().invalidation_messages, 0);
        assert!(copies(&mut s, 0x100)
            .iter()
            .all(|c| *c == Some(LineState::Shared)));
    }

    #[test]
    fn upgrade_leaves_one_dirty_copy() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        for p in 0..4 {
            s.access(p, 0x100, false, RefKind::Shared);
        }
        s.access(2, 0x100, true, RefKind::Shared);
        assert_eq!(s.stats().invalidation_messages, 3);
        assert_eq!(
            copies(&mut s, 0x100),
            [None, None, Some(LineState::Dirty), None]
        );
    }

    #[test]
    fn write_miss_on_uncached_block_is_a_clean_write() {
        let mut s = tiny(PointerLimit::Limited(2), SyncCaching::Cached);
        s.access(1, 0x100, true, RefKind::Shared);
        assert_eq!(s.stats().invalidation_messages, 0);
        assert_eq!(s.stats().clean_write_invalidations.count(0), 1);
        assert_eq!(s.resident(1, 0x100), Some(LineState::Dirty));
    }

    #[test]
    fn read_after_write_clears_dirty() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(1, 0x100, true, RefKind::Shared);
        s.access(2, 0x100, false, RefKind::Shared);
        let shared = Some(LineState::Shared);
        assert_eq!(copies(&mut s, 0x100), [None, shared, shared, None]);
        // The block is clean again, so the next write counts for Figure 1
        // and needs no writeback.
        s.access(3, 0x100, true, RefKind::Shared);
        assert_eq!(s.stats().clean_write_invalidations.count(2), 1);
        assert_eq!(s.stats().writebacks, 1);
    }

    #[test]
    fn refilling_a_resident_block_is_not_an_eviction() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0x100, false, RefKind::Shared);
        s.access(0, 0x100, true, RefKind::Shared);
        assert_eq!(s.stats().writebacks, 0);
        assert_eq!(s.stats().misses, 1);
        assert_eq!(s.resident(0, 0x100), Some(LineState::Dirty));
    }

    #[test]
    fn evicted_dirty_block_leaves_the_directory() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0, true, RefKind::Shared);
        s.access(0, 64 * 16, false, RefKind::Shared); // conflicts with 0
        assert_eq!(s.stats().writebacks, 1);
        assert_eq!(s.resident(0, 0), None);
        // Nobody holds block 0 dirty any more: no second writeback.
        s.access(1, 0, false, RefKind::Shared);
        assert_eq!(s.stats().writebacks, 1);
    }

    #[test]
    fn clean_eviction_writes_nothing_back() {
        let mut s = tiny(PointerLimit::Full, SyncCaching::Cached);
        s.access(0, 0, false, RefKind::Shared);
        s.access(1, 0, false, RefKind::Shared);
        s.access(0, 64 * 16, false, RefKind::Shared);
        assert_eq!(s.stats().writebacks, 0);
        assert_eq!(
            copies(&mut s, 0),
            [None, Some(LineState::Shared), None, None]
        );
    }
}
