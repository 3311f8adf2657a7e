//! Test oracle: the Dir_i NB and snoopy protocols written the direct way.
//!
//! [`Directory`] keeps one explicit sharer list per block in an ordered map
//! next to one tag array per processor, and the bus keeps one tag array
//! per processor and walks all of them. That is the obvious model. The
//! property tests below drive it and [`DirectorySystem`] / [`SnoopyBus`]
//! with the same random streams and check, after every access, that the
//! statistics match and that the accessed block has the same copies in
//! both. This module is compiled for tests only; it is an oracle, not a
//! second production path.

use std::collections::BTreeMap;

use abs_sim::check::{self, Config, Gen};
use abs_sim::forall;
use abs_trace::ops::{classify, MemorySystem, RefKind, PRIVATE_BASE, SYNC_BASE};

use crate::tags::LineState;
use crate::{
    CacheGeometry, CoherenceStats, DirectorySystem, PointerLimit, SnoopyBus, SnoopyStats,
    SyncCaching,
};

/// Per-processor direct-mapped tag arrays, indexed by division.
#[derive(Debug, Clone)]
struct Caches {
    geometry: CacheGeometry,
    tags: Vec<Vec<Option<(u64, LineState)>>>,
}

impl Caches {
    fn new(procs: usize, geometry: CacheGeometry) -> Self {
        Self {
            geometry,
            tags: vec![vec![None; geometry.cache_bytes / geometry.block_bytes]; procs],
        }
    }

    fn block_of(&self, addr: u64) -> u64 {
        addr / self.geometry.block_bytes as u64
    }

    fn slot(&mut self, proc: usize, block: u64) -> &mut Option<(u64, LineState)> {
        let lines = self.tags[proc].len() as u64;
        &mut self.tags[proc][(block % lines) as usize]
    }

    fn lookup(&mut self, proc: usize, block: u64) -> Option<LineState> {
        match *self.slot(proc, block) {
            Some((tag, state)) if tag == block => Some(state),
            _ => None,
        }
    }

    /// Installs `block`, returning the displaced different block.
    fn fill(&mut self, proc: usize, block: u64, state: LineState) -> Option<(u64, LineState)> {
        let slot = self.slot(proc, block);
        let evicted = slot.filter(|&(tag, _)| tag != block);
        *slot = Some((block, state));
        evicted
    }

    fn set_state(&mut self, proc: usize, block: u64, state: LineState) {
        match self.slot(proc, block) {
            Some((tag, s)) if *tag == block => *s = state,
            _ => panic!("block {block} not resident in cache {proc}"),
        }
    }

    fn invalidate(&mut self, proc: usize, block: u64) -> bool {
        let slot = self.slot(proc, block);
        let hit = matches!(*slot, Some((tag, _)) if tag == block);
        if hit {
            *slot = None;
        }
        hit
    }
}

/// A Dir_i NB machine with an explicit directory: block → (sharers in the
/// order they joined, dirty bit).
#[derive(Debug, Clone)]
pub(crate) struct Directory {
    procs: usize,
    mode: SyncCaching,
    max: usize,
    caches: Caches,
    entries: BTreeMap<u64, (Vec<usize>, bool)>,
    stats: CoherenceStats,
}

impl Directory {
    pub(crate) fn new(
        procs: usize,
        geometry: CacheGeometry,
        limit: PointerLimit,
        mode: SyncCaching,
    ) -> Self {
        Self {
            procs,
            mode,
            max: limit.pointers(procs),
            caches: Caches::new(procs, geometry),
            entries: BTreeMap::new(),
            stats: CoherenceStats::new(),
        }
    }

    pub(crate) fn stats(&self) -> &CoherenceStats {
        &self.stats
    }

    pub(crate) fn resident(&mut self, proc: usize, addr: u64) -> Option<LineState> {
        let block = self.caches.block_of(addr);
        self.caches.lookup(proc, block)
    }

    fn is_dirty(&self, block: u64) -> bool {
        self.entries.get(&block).is_some_and(|e| e.1)
    }

    /// Adds a clean sharer, returning the FIFO victim on overflow.
    fn add_sharer(&mut self, block: u64, proc: usize) -> Option<usize> {
        let (sharers, dirty) = self.entries.entry(block).or_default();
        *dirty = false;
        if sharers.contains(&proc) {
            return None;
        }
        let victim = (sharers.len() >= self.max).then(|| sharers.remove(0));
        sharers.push(proc);
        victim
    }

    /// Makes `proc` the dirty owner, returning the other sharers.
    fn make_exclusive(&mut self, block: u64, proc: usize) -> Vec<usize> {
        let (sharers, dirty) = self.entries.entry(block).or_default();
        let victims = sharers.iter().copied().filter(|&s| s != proc).collect();
        *sharers = vec![proc];
        *dirty = true;
        victims
    }

    fn remove_sharer(&mut self, block: u64, proc: usize) {
        if let Some((sharers, _)) = self.entries.get_mut(&block) {
            sharers.retain(|&s| s != proc);
            if sharers.is_empty() {
                self.entries.remove(&block);
            }
        }
    }

    fn evict(&mut self, proc: usize, evicted: Option<(u64, LineState)>) -> u64 {
        let Some((old, state)) = evicted else {
            return 0;
        };
        self.remove_sharer(old, proc);
        if state == LineState::Dirty {
            self.stats.writebacks += 1;
            2
        } else {
            0
        }
    }

    fn invalidate_all(&mut self, block: u64, victims: &[usize]) -> u64 {
        for &v in victims {
            self.caches.invalidate(v, block);
        }
        self.stats.invalidation_messages += victims.len() as u64;
        victims.len() as u64
    }
}

impl MemorySystem for Directory {
    fn access(&mut self, proc: usize, addr: u64, write: bool, kind: RefKind) {
        assert!(proc < self.procs);
        self.stats.record_ref(kind);
        let bypass = match self.mode {
            SyncCaching::Cached => false,
            SyncCaching::UncachedSync => kind == RefKind::Sync,
            SyncCaching::UncachedShared => kind != RefKind::Private,
        };
        if bypass {
            self.stats.traffic_total += 2;
            if kind.is_sync() {
                self.stats.traffic_sync += 2;
            }
            return;
        }
        let block = self.caches.block_of(addr);
        let (mut traffic, mut invalidations) = (0, 0);
        let resident = self.caches.lookup(proc, block);
        if write {
            let was_clean = !self.is_dirty(block) && resident != Some(LineState::Dirty);
            match resident {
                Some(LineState::Dirty) => {}
                Some(LineState::Shared) => {
                    let victims = self.make_exclusive(block, proc);
                    invalidations = self.invalidate_all(block, &victims);
                    traffic += 1 + invalidations;
                    self.caches.set_state(proc, block, LineState::Dirty);
                }
                None => {
                    self.stats.misses += 1;
                    traffic += 2;
                    if self.is_dirty(block) {
                        self.stats.writebacks += 1;
                        traffic += 2;
                    }
                    let victims = self.make_exclusive(block, proc);
                    invalidations = self.invalidate_all(block, &victims);
                    traffic += invalidations;
                    let evicted = self.caches.fill(proc, block, LineState::Dirty);
                    traffic += self.evict(proc, evicted);
                }
            }
            if was_clean {
                self.stats.clean_write_invalidations.record(invalidations);
            }
        } else if resident.is_none() {
            self.stats.misses += 1;
            traffic += 2;
            if self.is_dirty(block) {
                let owner = self.entries[&block].0[0];
                self.caches.set_state(owner, block, LineState::Shared);
                self.stats.writebacks += 1;
                traffic += 2;
            }
            if let Some(victim) = self.add_sharer(block, proc) {
                self.caches.invalidate(victim, block);
                self.stats.invalidation_messages += 1;
                traffic += 1;
                invalidations += 1;
            }
            let evicted = self.caches.fill(proc, block, LineState::Shared);
            traffic += self.evict(proc, evicted);
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

/// A snoopy MSI bus over per-processor tag arrays, walking every cache on
/// each broadcast.
#[derive(Debug, Clone)]
pub(crate) struct Bus {
    procs: usize,
    caches: Caches,
    stats: SnoopyStats,
}

impl Bus {
    pub(crate) fn new(procs: usize, geometry: CacheGeometry) -> Self {
        Self {
            procs,
            caches: Caches::new(procs, geometry),
            stats: SnoopyStats::default(),
        }
    }

    pub(crate) fn stats(&self) -> &SnoopyStats {
        &self.stats
    }

    pub(crate) fn resident(&mut self, proc: usize, addr: u64) -> Option<LineState> {
        let block = self.caches.block_of(addr);
        self.caches.lookup(proc, block)
    }

    fn bus(&mut self, sync: bool) {
        self.stats.bus_transactions += 1;
        if sync {
            self.stats.bus_sync += 1;
        }
    }

    fn fill(&mut self, proc: usize, block: u64, state: LineState, sync: bool) {
        if let Some((_, LineState::Dirty)) = self.caches.fill(proc, block, state) {
            self.bus(sync);
        }
    }
}

impl MemorySystem for Bus {
    fn access(&mut self, proc: usize, addr: u64, write: bool, kind: RefKind) {
        assert!(proc < self.procs);
        self.stats.refs += 1;
        let sync = kind.is_sync();
        if sync {
            self.stats.refs_sync += 1;
        }
        let block = self.caches.block_of(addr);
        let resident = self.caches.lookup(proc, block);
        if write && resident != Some(LineState::Dirty) {
            self.bus(sync);
            let mut any = false;
            for p in (0..self.procs).filter(|&p| p != proc) {
                any |= self.caches.invalidate(p, block);
            }
            if any {
                self.stats.broadcast_invalidations += 1;
            }
            match resident {
                Some(_) => self.caches.set_state(proc, block, LineState::Dirty),
                None => self.fill(proc, block, LineState::Dirty, sync),
            }
        } else if !write && resident.is_none() {
            self.bus(sync);
            for p in (0..self.procs).filter(|&p| p != proc) {
                if self.caches.lookup(p, block) == Some(LineState::Dirty) {
                    self.caches.set_state(p, block, LineState::Shared);
                }
            }
            self.fill(proc, block, LineState::Shared, sync);
        }
    }

    fn tick(&mut self, _cycle: u64) {
        self.stats.cycles = self.stats.cycles.saturating_add(1);
    }
}

/// A small machine: caches of 64–1024 bytes so that conflicts are common.
#[derive(Debug, Clone, Copy)]
struct Machine {
    geometry: CacheGeometry,
    procs: usize,
    limit: PointerLimit,
    mode: SyncCaching,
}

fn machines() -> Gen<Machine> {
    Gen::no_shrink(|rng| {
        let cache_bytes = 64 << rng.next_below_usize(5);
        let block_bytes = 4 << rng.next_below_usize(4);
        let procs = 1 + rng.next_below_usize(9);
        // `Limited(1..=procs + 1)`, and `Full` as often as any one of them.
        let i = 1 + rng.next_below_usize(procs + 2);
        let limit = if i > procs + 1 {
            PointerLimit::Full
        } else {
            PointerLimit::Limited(i)
        };
        let mode = [
            SyncCaching::Cached,
            SyncCaching::UncachedSync,
            SyncCaching::UncachedShared,
        ][rng.next_below_usize(3)];
        Machine {
            geometry: CacheGeometry::new(cache_bytes, block_bytes),
            procs,
            limit,
            mode,
        }
    })
}

/// One reference: 16 blocks per region, spread so that they fold onto a
/// handful of lines, with the regions overlapping on the same lines.
#[derive(Debug, Clone, Copy)]
struct Op {
    proc: usize,
    region: usize,
    index: u64,
    offset: u64,
    write: bool,
}

impl Op {
    fn resolve(&self, m: &Machine) -> (usize, u64) {
        let g = m.geometry;
        let stride = g.block_bytes.max(g.cache_bytes / 8) as u64;
        let base = [0, PRIVATE_BASE, SYNC_BASE][self.region];
        let addr = base + self.index * stride + self.offset % g.block_bytes as u64;
        (self.proc % m.procs, addr)
    }
}

fn ops() -> Gen<Vec<Op>> {
    let op = Gen::no_shrink(|rng| Op {
        proc: rng.next_below_usize(9),
        region: rng.next_below_usize(3),
        index: rng.next_below(16),
        offset: rng.next_below(64),
        write: rng.next_below(3) == 0,
    });
    check::vec_of(op, 1..400)
}

fn config() -> Config {
    Config::with_cases(if cfg!(debug_assertions) { 96 } else { 2048 })
}

/// Asserts the copies of the block holding `addr` obey the protocol: at
/// most `max` of them, and a `Dirty` copy is the only one.
fn assert_copies(states: &[Option<LineState>], max: usize, addr: u64) {
    let copies = states.iter().flatten().count();
    assert!(copies <= max, "{copies} copies of {addr:#x}, limit {max}");
    if states.contains(&Some(LineState::Dirty)) {
        assert_eq!(copies, 1, "a dirty copy of {addr:#x} is not alone");
    }
}

#[test]
fn directory_matches_reference() {
    forall!(config(), (m in machines(), ops in ops()) {
        let mut sys = DirectorySystem::new(m.procs, m.geometry, m.limit, m.mode);
        let mut oracle = Directory::new(m.procs, m.geometry, m.limit, m.mode);
        let max = m.limit.pointers(m.procs);
        for op in &ops {
            let (proc, addr) = op.resolve(&m);
            let kind = classify(addr);
            sys.access(proc, addr, op.write, kind);
            oracle.access(proc, addr, op.write, kind);
            assert_eq!(sys.stats(), oracle.stats(), "after {op:?}");
            // Only the accessed block can gain copies or turn dirty, so
            // checking it after every access checks every block.
            let states: Vec<_> = (0..m.procs).map(|p| sys.resident(p, addr)).collect();
            let expected: Vec<_> = (0..m.procs).map(|p| oracle.resident(p, addr)).collect();
            assert_eq!(states, expected, "copies of {addr:#x} after {op:?}");
            assert_copies(&states, max, addr);
        }
        for op in &ops {
            let (_, addr) = op.resolve(&m);
            for p in 0..m.procs {
                assert_eq!(sys.resident(p, addr), oracle.resident(p, addr));
            }
        }
    });
}

#[test]
fn snoopy_matches_reference() {
    forall!(config(), (m in machines(), ops in ops()) {
        let mut bus = SnoopyBus::new(m.procs, m.geometry);
        let mut oracle = Bus::new(m.procs, m.geometry);
        for (cycle, op) in ops.iter().enumerate() {
            let (proc, addr) = op.resolve(&m);
            let kind = classify(addr);
            bus.access(proc, addr, op.write, kind);
            oracle.access(proc, addr, op.write, kind);
            if op.offset % 2 == 0 {
                bus.tick(cycle as u64);
                oracle.tick(cycle as u64);
            }
            assert_eq!(bus.stats(), oracle.stats(), "after {op:?}");
            let states: Vec<_> = (0..m.procs).map(|p| bus.resident(p, addr)).collect();
            let expected: Vec<_> = (0..m.procs).map(|p| oracle.resident(p, addr)).collect();
            assert_eq!(states, expected, "copies of {addr:#x} after {op:?}");
            assert_copies(&states, m.procs, addr);
        }
        for op in &ops {
            let (_, addr) = op.resolve(&m);
            for p in 0..m.procs {
                assert_eq!(bus.resident(p, addr), oracle.resident(p, addr));
            }
        }
    });
}
