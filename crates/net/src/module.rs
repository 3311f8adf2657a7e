//! The Section-3 memory-module contention model.
//!
//! > "We assume that in a network cycle only one processor can access the
//! > barrier variable or the barrier flag. If a processor is denied access to
//! > the variable in a network cycle it repeats the access to the variable in
//! > the next network cycle."
//!
//! [`MemoryModule`] arbitrates among the set of requesters present in a
//! cycle and picks exactly one winner. The paper does not spell out the
//! arbitration rule; its Model-1 access counts (the flag writer needing ~N
//! attempts against N−1 pollers) imply *memoryless random* selection, which
//! is therefore the default. Round-robin and oldest-first are provided for
//! the ablation study.

use std::collections::BTreeSet;

use abs_sim::rng::Xoshiro256PlusPlus;

/// How a memory module picks one winner among simultaneous requesters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Arbitration {
    /// Uniformly random winner each cycle (the paper's implicit model).
    #[default]
    Random,
    /// Rotating priority: the requester with the smallest
    /// `(id - last_winner - 1) mod n` wins.
    RoundRobin,
    /// The requester that has been waiting the longest wins; ties broken by
    /// lowest id. This models a queueing (combining-free) memory controller.
    OldestFirst,
}

impl Arbitration {
    /// All supported policies, for sweeps.
    pub const ALL: [Arbitration; 3] = [
        Arbitration::Random,
        Arbitration::RoundRobin,
        Arbitration::OldestFirst,
    ];
}

/// A pending request presented to a module in some cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Request {
    /// Requester (processor) identifier. Used by round-robin arbitration.
    pub id: usize,
    /// The cycle at which this request first became pending. Used by
    /// oldest-first arbitration.
    pub since: u64,
}

impl Request {
    /// Convenience constructor.
    pub fn new(id: usize, since: u64) -> Self {
        Self { id, since }
    }
}

/// A single-ported memory module: serves one request per cycle.
///
/// The module also keeps the access statistics that the paper reports:
/// every *presented* request counts as a network access whether or not it is
/// served ("an unsuccessful network access in accessing the barrier flag is
/// still counted as a network access").
///
/// # Examples
///
/// ```
/// use abs_net::module::{Arbitration, MemoryModule, Request};
/// use abs_sim::rng::Xoshiro256PlusPlus;
///
/// let mut module = MemoryModule::new(Arbitration::Random);
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// let winner = module.arbitrate(
///     &[Request::new(0, 0), Request::new(1, 0)],
///     &mut rng,
/// );
/// assert!(winner.is_some());
/// assert_eq!(module.presented(), 2);
/// assert_eq!(module.served(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemoryModule {
    policy: Arbitration,
    last_winner: Option<usize>,
    presented: u64,
    served: u64,
    busy_cycles: u64,
}

impl MemoryModule {
    /// Creates a module with the given arbitration policy.
    pub fn new(policy: Arbitration) -> Self {
        Self {
            policy,
            last_winner: None,
            presented: 0,
            served: 0,
            busy_cycles: 0,
        }
    }

    /// The arbitration policy in force.
    pub fn policy(&self) -> Arbitration {
        self.policy
    }

    /// Arbitrates one cycle: all `requests` count as presented accesses, and
    /// exactly one winner id is returned (or `None` when idle).
    pub fn arbitrate(
        &mut self,
        requests: &[Request],
        rng: &mut Xoshiro256PlusPlus,
    ) -> Option<usize> {
        self.presented = self.presented.saturating_add(requests.len() as u64);
        if requests.is_empty() {
            return None;
        }
        self.busy_cycles = self.busy_cycles.saturating_add(1);
        self.served = self.served.saturating_add(1);
        let winner = match self.policy {
            Arbitration::Random => requests[rng.next_below_usize(requests.len())].id,
            Arbitration::RoundRobin => {
                // Rotating priority: smallest id at-or-above `base`, with
                // wraparound (ids below `base` sort after all ids >= base).
                let base = self.last_winner.map(|w| w + 1).unwrap_or(0);
                requests
                    .iter()
                    .min_by_key(|r| r.id.wrapping_sub(base))
                    .expect("non-empty") // abs-lint: allow(panic-path) -- arbitrate() is only called with a non-empty request list
                    .id
            }
            Arbitration::OldestFirst => {
                requests
                    .iter()
                    .min_by_key(|r| (r.since, r.id))
                    .expect("non-empty") // abs-lint: allow(panic-path) -- arbitrate() is only called with a non-empty request list
                    .id
            }
        };
        self.last_winner = Some(winner);
        Some(winner)
    }

    /// Total requests presented (network accesses), served or not.
    pub fn presented(&self) -> u64 {
        self.presented
    }

    /// Total requests served (one per busy cycle).
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Cycles in which at least one request was present.
    pub fn busy_cycles(&self) -> u64 {
        self.busy_cycles
    }

    /// Denied accesses: presented minus served.
    pub fn denied(&self) -> u64 {
        self.presented - self.served
    }

    /// Resets the statistics but keeps the policy and rotation state.
    pub fn reset_stats(&mut self) {
        self.presented = 0;
        self.served = 0;
        self.busy_cycles = 0;
    }
}

impl Default for MemoryModule {
    fn default() -> Self {
        Self::new(Arbitration::default())
    }
}

/// One memory module's pending-request set, incrementally maintained —
/// the arbitration index that every event-driven skip-ahead kernel uses
/// instead of rebuilding a request slice each cycle.
///
/// The set is struct-of-arrays over the id space, packed in one `Vec<u64>`
/// of three columns: a presence bitmap (one bit per id), a Fenwick
/// (binary-indexed) tree over the bitmap words' popcounts, and the
/// `since` column (one slot per id, valid while the id is pending).
/// Insert, remove and refresh flip one bit, write one slot and update
/// `O(log words)` tree nodes — no search and no memmove. *Select* (the
/// k-th smallest pending id) descends the tree to the word holding it and
/// finishes with a broadword select-in-word; *rank* (pending ids below a
/// bound) is a tree prefix sum plus a masked popcount.
///
/// The invariant every kernel relies on: **select is the k-th smallest
/// pending id, which is the stepper's slice index.** Random arbitration
/// draws an index `k` and picks exactly `requests[k].id` of the id-sorted
/// snapshot a cycle stepper would hand to [`MemoryModule::arbitrate`];
/// round-robin selects the first pending id at-or-above the rotating
/// base; oldest-first keeps its `(since, id)` ordered index, maintained
/// only under that policy (the other modes never pay for it).
///
/// Unlike [`MemoryModule`], the set keeps no presented/served statistics:
/// skip-ahead kernels charge presented accesses in bulk when a request is
/// removed (a request is pending on *every* cycle of `[since, served]`
/// because the kernels never skip a cycle while a set is non-empty), so a
/// per-cycle counter would be both redundant and wrong across jumps.
///
/// # Examples
///
/// ```
/// use abs_net::module::{Arbitration, PendingSet, Request};
/// use abs_sim::rng::Xoshiro256PlusPlus;
///
/// let mut set = PendingSet::new(Arbitration::RoundRobin, 4);
/// let mut rng = Xoshiro256PlusPlus::seed_from_u64(1);
/// set.insert(Request::new(2, 0));
/// set.insert(Request::new(0, 0));
/// assert_eq!(set.arbitrate(&mut rng), Some(0));
/// assert_eq!(set.arbitrate(&mut rng), Some(2));
/// assert_eq!(set.remove(0).id, 0);
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct PendingSet {
    policy: Arbitration,
    /// `words` presence words, then `words` Fenwick nodes (node `i`,
    /// 1-based, at `words + i - 1`), then `capacity` `since` slots.
    cols: Vec<u64>,
    /// Bitmap words: a power of two, at least `capacity / 64`.
    words: usize,
    /// Ids below `capacity` are representable.
    capacity: usize,
    len: usize,
    /// Rotating round-robin priority; mirrors the module's last winner.
    last_winner: Option<usize>,
    /// `(since, id)` ordered view; maintained only under `OldestFirst`.
    by_age: BTreeSet<(u64, usize)>,
}

/// `IN_BYTE[8 * byte + r]`: the position of the `r`-th set bit of `byte`.
const IN_BYTE: [u8; 2048] = {
    let mut table = [0u8; 2048];
    let mut byte = 0;
    while byte < 256 {
        let (mut bit, mut r) = (0, 0);
        while bit < 8 {
            if byte >> bit & 1 == 1 {
                table[8 * byte + r] = bit as u8;
                r += 1;
            }
            bit += 1;
        }
        byte += 1;
    }
    table
};

/// The position of the `r`-th (0-based) set bit of `word`, branch-free;
/// `r` must be below `word.count_ones()`.
fn select_in_word(word: u64, r: u64) -> usize {
    const ONES: u64 = 0x0101_0101_0101_0101;
    const HIGHS: u64 = 0x8080_8080_8080_8080;
    debug_assert!(r < u64::from(word.count_ones()));
    // Popcount of every byte (SWAR), then running sums: byte i of `upto`
    // counts the set bits of bytes 0..=i.
    let mut c = word - ((word >> 1) & 0x5555_5555_5555_5555);
    c = (c & 0x3333_3333_3333_3333) + ((c >> 2) & 0x3333_3333_3333_3333);
    c = (c + (c >> 4)) & 0x0F0F_0F0F_0F0F_0F0F;
    let upto = c.wrapping_mul(ONES);
    // Per byte, `(r | 0x80) - upto` keeps its high bit iff `upto <= r`,
    // i.e. iff the byte lies wholly before the wanted bit. No byte
    // borrows, because `upto <= 64 < 0x80`. Those bytes form a prefix;
    // summing their flags gives the wanted bit's byte.
    let before = (((r * ONES) | HIGHS) - upto) & HIGHS;
    let shift = 8 * ((before >> 7).wrapping_mul(ONES) >> 56) as usize;
    let skipped = ((upto << 8) >> shift) & 0xFF;
    let byte = (word >> shift) & 0xFF;
    shift + usize::from(IN_BYTE[(8 * byte + r - skipped) as usize])
}

impl PendingSet {
    /// Creates an empty set with the given arbitration policy, sized for
    /// ids below `capacity` (it grows on demand if a larger id shows up).
    pub fn new(policy: Arbitration, capacity: usize) -> Self {
        let words = capacity.div_ceil(64).next_power_of_two();
        Self {
            policy,
            cols: vec![0; 2 * words + capacity],
            words,
            capacity,
            len: 0,
            last_winner: None,
            by_age: BTreeSet::new(),
        }
    }

    /// The arbitration policy in force.
    pub fn policy(&self) -> Arbitration {
        self.policy
    }

    /// Number of pending requests.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no request is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether processor `id` has a pending request.
    fn contains(&self, id: usize) -> bool {
        id < self.capacity && self.cols[id / 64] >> (id % 64) & 1 == 1
    }

    /// Index of processor `id`'s `since` slot in `cols`.
    fn since_slot(&self, id: usize) -> usize {
        2 * self.words + id
    }

    /// Adds `delta` (wrapping, so `u64::MAX` subtracts one) to the count
    /// of bitmap word `w`.
    fn tree_add(&mut self, w: usize, delta: u64) {
        let (_, tree) = self.cols[..2 * self.words].split_at_mut(self.words);
        let mut i = w + 1;
        while i <= tree.len() {
            tree[i - 1] = tree[i - 1].wrapping_add(delta);
            i += i & i.wrapping_neg();
        }
    }

    /// Widens the id space to hold `id`, rebuilding the tree in
    /// `O(words)` (rare: only when a caller under-sized the set).
    fn grow_for(&mut self, id: usize) {
        let capacity = (id + 1).max(2 * self.capacity);
        let words = capacity.div_ceil(64).next_power_of_two();
        let mut cols = vec![0; 2 * words + capacity];
        cols[..self.words].copy_from_slice(&self.cols[..self.words]);
        cols[2 * words..2 * words + self.capacity].copy_from_slice(&self.cols[2 * self.words..]);
        let (bits, rest) = cols.split_at_mut(words);
        let tree = &mut rest[..words];
        for (node, word) in tree.iter_mut().zip(bits.iter()) {
            *node = u64::from(word.count_ones());
        }
        // Linear-time Fenwick build: fold each node into its parent.
        for i in 1..=words {
            let parent = i + (i & i.wrapping_neg());
            if parent <= words {
                tree[parent - 1] += tree[i - 1];
            }
        }
        self.cols = cols;
        self.words = words;
        self.capacity = capacity;
    }

    /// The k-th smallest pending id, 0-indexed (`k < len`).
    fn select(&self, k: usize) -> usize {
        debug_assert!(k < self.len);
        let (bits, rest) = self.cols.split_at(self.words);
        let tree = &rest[..self.words];
        // Fenwick descent to the last word whose preceding words hold at
        // most `k` pending ids. `words` is a power of two, so every probe
        // is in range, and the root (all `len` ids) is never taken. The
        // steps are selects, not branches: the path is random.
        let (mut w, mut remaining) = (0, k as u64);
        let mut step = self.words / 2;
        while step > 0 {
            let count = tree[w + step - 1];
            let take = count <= remaining;
            remaining -= if take { count } else { 0 };
            w += if take { step } else { 0 };
            step /= 2;
        }
        64 * w + select_in_word(bits[w], remaining)
    }

    /// Pending ids strictly below `bound`.
    fn rank(&self, bound: usize) -> usize {
        let bound = bound.min(self.capacity);
        let (bits, rest) = self.cols.split_at(self.words);
        let tree = &rest[..self.words];
        let mut sum = 0u64;
        let mut i = bound / 64;
        while i > 0 {
            sum += tree[i - 1];
            i -= i & i.wrapping_neg();
        }
        let below = bits
            .get(bound / 64)
            .map_or(0, |&w| w & ((1u64 << (bound % 64)) - 1));
        sum += u64::from(below.count_ones());
        sum as usize
    }

    /// Inserts a request; `req.id` must not already be pending.
    pub fn insert(&mut self, req: Request) {
        if req.id >= self.capacity {
            self.grow_for(req.id);
        }
        assert!(!self.contains(req.id), "processor already pending");
        self.cols[req.id / 64] |= 1 << (req.id % 64);
        self.tree_add(req.id / 64, 1);
        let slot = self.since_slot(req.id);
        self.cols[slot] = req.since;
        self.len += 1;
        if self.policy == Arbitration::OldestFirst {
            self.by_age.insert((req.since, req.id));
        }
    }

    /// Removes and returns processor `id`'s request.
    pub fn remove(&mut self, id: usize) -> Request {
        assert!(self.contains(id), "processor must be pending");
        self.cols[id / 64] &= !(1 << (id % 64));
        self.tree_add(id / 64, u64::MAX);
        self.len -= 1;
        let req = Request::new(id, self.cols[self.since_slot(id)]);
        if self.policy == Arbitration::OldestFirst {
            self.by_age.remove(&(req.since, req.id));
        }
        req
    }

    /// Re-ages processor `id`'s pending request to `since`.
    pub fn refresh(&mut self, id: usize, since: u64) {
        assert!(self.contains(id), "processor must be pending");
        let slot = self.since_slot(id);
        let old = std::mem::replace(&mut self.cols[slot], since);
        if self.policy == Arbitration::OldestFirst {
            self.by_age.remove(&(old, id));
            self.by_age.insert((since, id));
        }
    }

    /// Picks this cycle's winner exactly as [`MemoryModule::arbitrate`]
    /// would on the same snapshot: the same single RNG draw (random policy,
    /// non-empty set only) and the same tie-breaks. The winner stays in the
    /// set; the caller decides whether serving removes it.
    pub fn arbitrate(&mut self, rng: &mut Xoshiro256PlusPlus) -> Option<usize> {
        let len = self.len;
        if len == 0 {
            return None;
        }
        let winner = match self.policy {
            Arbitration::Random => self.select(rng.next_below_usize(len)),
            Arbitration::RoundRobin => {
                // Smallest id at-or-above the rotating base, wrapping to
                // the smallest id overall.
                let base = self.last_winner.map_or(0, |w| w + 1);
                let at = self.rank(base);
                self.select(if at < len { at } else { 0 })
            }
            Arbitration::OldestFirst => self.by_age.first().expect("index tracks requests").1, // abs-lint: allow(panic-path) -- by_age is maintained in lockstep with the non-empty pending set
        };
        self.last_winner = Some(winner);
        Some(winner)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(42)
    }

    fn reqs(ids: &[usize]) -> Vec<Request> {
        ids.iter().map(|&id| Request::new(id, 0)).collect()
    }

    #[test]
    fn idle_module_serves_nothing() {
        let mut m = MemoryModule::default();
        assert_eq!(m.arbitrate(&[], &mut rng()), None);
        assert_eq!(m.presented(), 0);
        assert_eq!(m.served(), 0);
        assert_eq!(m.busy_cycles(), 0);
    }

    #[test]
    fn single_requester_always_wins() {
        let mut m = MemoryModule::new(Arbitration::Random);
        let mut r = rng();
        for _ in 0..10 {
            assert_eq!(m.arbitrate(&reqs(&[7]), &mut r), Some(7));
        }
        assert_eq!(m.presented(), 10);
        assert_eq!(m.served(), 10);
        assert_eq!(m.denied(), 0);
    }

    #[test]
    fn random_arbitration_counts_denied() {
        let mut m = MemoryModule::new(Arbitration::Random);
        let mut r = rng();
        for _ in 0..100 {
            m.arbitrate(&reqs(&[0, 1, 2, 3]), &mut r);
        }
        assert_eq!(m.presented(), 400);
        assert_eq!(m.served(), 100);
        assert_eq!(m.denied(), 300);
        assert_eq!(m.busy_cycles(), 100);
    }

    #[test]
    fn random_arbitration_is_roughly_fair() {
        let mut m = MemoryModule::new(Arbitration::Random);
        let mut r = rng();
        let mut wins = [0u32; 4];
        for _ in 0..4000 {
            let w = m.arbitrate(&reqs(&[0, 1, 2, 3]), &mut r).unwrap();
            wins[w] += 1;
        }
        for w in wins {
            assert!((800..1200).contains(&w), "wins {wins:?}");
        }
    }

    #[test]
    fn random_winner_expected_wait_matches_model() {
        // With k contenders and random selection, a given requester needs
        // ~k attempts in expectation to win — the assumption behind the
        // paper's Model 1 flag-write term.
        let mut r = rng();
        let k = 16usize;
        let mut total_attempts = 0u64;
        let trials = 2000;
        for _ in 0..trials {
            let mut m = MemoryModule::new(Arbitration::Random);
            let mut attempts = 0u64;
            loop {
                attempts += 1;
                let ids: Vec<Request> = (0..k).map(|i| Request::new(i, 0)).collect();
                if m.arbitrate(&ids, &mut r) == Some(0) {
                    break;
                }
            }
            total_attempts += attempts;
        }
        let avg = total_attempts as f64 / trials as f64;
        assert!((avg - k as f64).abs() < 1.5, "avg attempts {avg}");
    }

    #[test]
    fn round_robin_rotates() {
        let mut m = MemoryModule::new(Arbitration::RoundRobin);
        let mut r = rng();
        let w1 = m.arbitrate(&reqs(&[0, 1, 2]), &mut r).unwrap();
        let w2 = m.arbitrate(&reqs(&[0, 1, 2]), &mut r).unwrap();
        let w3 = m.arbitrate(&reqs(&[0, 1, 2]), &mut r).unwrap();
        assert_eq!(w1, 0);
        assert_eq!(w2, 1);
        assert_eq!(w3, 2);
        let w4 = m.arbitrate(&reqs(&[0, 1, 2]), &mut r).unwrap();
        assert_eq!(w4, 0);
    }

    #[test]
    fn round_robin_skips_absent() {
        let mut m = MemoryModule::new(Arbitration::RoundRobin);
        let mut r = rng();
        assert_eq!(m.arbitrate(&reqs(&[0, 1, 2]), &mut r), Some(0));
        // 1 absent; next in rotation present is 2.
        assert_eq!(m.arbitrate(&reqs(&[0, 2]), &mut r), Some(2));
    }

    #[test]
    fn oldest_first_prefers_earliest() {
        let mut m = MemoryModule::new(Arbitration::OldestFirst);
        let mut r = rng();
        let requests = vec![Request::new(3, 10), Request::new(5, 2), Request::new(1, 7)];
        assert_eq!(m.arbitrate(&requests, &mut r), Some(5));
    }

    #[test]
    fn oldest_first_ties_break_by_id() {
        let mut m = MemoryModule::new(Arbitration::OldestFirst);
        let mut r = rng();
        let requests = vec![Request::new(9, 4), Request::new(2, 4)];
        assert_eq!(m.arbitrate(&requests, &mut r), Some(2));
    }

    #[test]
    fn pending_set_tracks_membership() {
        let mut set = PendingSet::new(Arbitration::Random, 4);
        assert!(set.is_empty());
        set.insert(Request::new(3, 5));
        set.insert(Request::new(1, 6));
        assert_eq!(set.len(), 2);
        let r = set.remove(3);
        assert_eq!((r.id, r.since), (3, 5));
        assert_eq!(set.len(), 1);
        set.refresh(1, 9);
        let r = set.remove(1);
        assert_eq!((r.id, r.since), (1, 9));
        assert!(set.is_empty());
    }

    #[test]
    #[should_panic(expected = "already pending")]
    fn pending_set_rejects_duplicate_id() {
        let mut set = PendingSet::new(Arbitration::Random, 2);
        set.insert(Request::new(0, 0));
        set.insert(Request::new(0, 1));
    }

    #[test]
    fn pending_set_empty_arbitration_draws_nothing() {
        // An empty set must not touch the RNG — the skip-ahead kernels rely
        // on this to keep the draw sequence identical to a cycle stepper
        // that never presents an empty slice.
        let mut set = PendingSet::new(Arbitration::Random, 2);
        let mut a = rng();
        let before = a.next_u64();
        let mut b = rng();
        assert_eq!(set.arbitrate(&mut b), None);
        assert_eq!(before, b.next_u64());
    }

    /// The reference model: an id-sorted `Vec<Request>` — the snapshot a
    /// cycle stepper hands to [`MemoryModule::arbitrate`] — kept with
    /// binary-search inserts and removes.
    struct SortedModel {
        requests: Vec<Request>,
        module: MemoryModule,
    }

    impl SortedModel {
        fn new(policy: Arbitration) -> Self {
            Self {
                requests: Vec::new(),
                module: MemoryModule::new(policy),
            }
        }

        fn find(&self, id: usize) -> Result<usize, usize> {
            self.requests.binary_search_by_key(&id, |r| r.id)
        }

        fn insert(&mut self, req: Request) {
            let at = self.find(req.id).expect_err("model: already pending");
            self.requests.insert(at, req);
        }

        fn remove(&mut self, id: usize) -> Request {
            let at = self.find(id).expect("model: not pending");
            self.requests.remove(at)
        }

        fn refresh(&mut self, id: usize, since: u64) {
            let at = self.find(id).expect("model: not pending");
            self.requests[at].since = since;
        }
    }

    /// Churns a [`PendingSet`] and the sorted-vector model in lockstep:
    /// optionally prefill every `stride`-th id, then `ops` rounds of
    /// insert / refresh / remove on a random id, one arbitration, and a
    /// coin-flip serve of the winner. Winners, RNG states, returned
    /// requests and lengths must agree after every operation.
    fn churn_against_model(
        policy: Arbitration,
        ids: usize,
        declared: usize,
        stride: usize,
        ops: u64,
        seed: u64,
    ) {
        let mut set = PendingSet::new(policy, declared);
        let mut model = SortedModel::new(policy);
        let mut churn = Xoshiro256PlusPlus::seed_from_u64(seed);
        let mut set_rng = Xoshiro256PlusPlus::seed_from_u64(!seed);
        let mut model_rng = set_rng.clone();
        if stride > 0 {
            for id in (0..ids).step_by(stride) {
                set.insert(Request::new(id, id as u64));
                model.insert(Request::new(id, id as u64));
            }
        }
        let ctx = |op: u64| format!("{policy:?} ids={ids} declared={declared} op={op}");
        for op in 0..ops {
            let id = churn.next_below_usize(ids);
            if model.find(id).is_err() {
                set.insert(Request::new(id, op));
                model.insert(Request::new(id, op));
            } else if churn.next_bool(0.5) {
                set.refresh(id, op);
                model.refresh(id, op);
            } else {
                assert_eq!(set.remove(id), model.remove(id), "{}", ctx(op));
            }
            let got = set.arbitrate(&mut set_rng);
            let want = model.module.arbitrate(&model.requests, &mut model_rng);
            assert_eq!(got, want, "{}", ctx(op));
            assert_eq!(set_rng, model_rng, "{}", ctx(op));
            if let Some(w) = got.filter(|_| churn.next_bool(0.25)) {
                assert_eq!(set.remove(w), model.remove(w), "{}", ctx(op));
            }
            assert_eq!(set.len(), model.requests.len(), "{}", ctx(op));
        }
    }

    #[test]
    fn pending_set_matches_sorted_model_under_churn() {
        use abs_sim::check::{self, Config};
        use abs_sim::forall;
        let cases = if cfg!(debug_assertions) { 32 } else { 256 };
        forall!(Config::with_cases(cases), (
            seed in check::any_u64(),
            policy_ix in check::usize_in(0..3),
            ids in check::usize_in(1..4097),
            declared in check::usize_in(0..4097),
            stride in check::usize_in(0..4),
        ) {
            let ops = 2 * ids as u64 + 64;
            churn_against_model(Arbitration::ALL[policy_ix], ids, declared, stride, ops, seed);
        });
    }

    #[test]
    fn pending_set_matches_sorted_model_at_2_pow_16() {
        // Sparse (churn only) and dense (every third id prefilled) sets
        // over a 2¹⁶ id space, declared both at full size and tiny.
        for (i, policy) in Arbitration::ALL.into_iter().enumerate() {
            for (declared, stride) in [(1 << 16, 0), (1 << 16, 3), (8, 3)] {
                churn_against_model(policy, 1 << 16, declared, stride, 3000, i as u64);
            }
        }
    }

    #[test]
    fn pending_set_grows_past_declared_capacity() {
        let mut set = PendingSet::new(Arbitration::RoundRobin, 2);
        set.insert(Request::new(1, 0));
        set.insert(Request::new(100, 0));
        assert_eq!(set.len(), 2);
        let mut r = rng();
        assert_eq!(set.arbitrate(&mut r), Some(1));
        assert_eq!(set.arbitrate(&mut r), Some(100));
        assert_eq!(set.arbitrate(&mut r), Some(1));
        assert_eq!(set.remove(100).id, 100);
        assert_eq!(set.remove(1).id, 1);
        assert!(set.is_empty());
    }

    #[test]
    fn pending_set_rank_select_at_scale() {
        // Rank and select over a 2¹⁶ id space: the tree descent crosses
        // ten levels, and bounds fall inside, at and just past a word.
        let n = 1 << 16;
        let mut set = PendingSet::new(Arbitration::Random, n);
        for id in (0..n).step_by(3) {
            set.insert(Request::new(id, id as u64));
        }
        let expected = (n + 2) / 3;
        assert_eq!(set.len(), expected);
        // k-th smallest pending id is 3k.
        assert_eq!(set.select(0), 0);
        assert_eq!(set.select(1), 3);
        assert_eq!(set.select(expected - 1), 3 * (expected - 1));
        assert_eq!(set.rank(0), 0);
        assert_eq!(set.rank(4), 2);
        assert_eq!(set.rank(64), 22);
        assert_eq!(set.rank(65), 22);
        assert_eq!(set.select(22), 66);
        assert_eq!(set.rank(n), expected);
        // Churn: removing shifts every later rank down by one.
        set.remove(3);
        assert_eq!(set.select(1), 6);
        assert_eq!(set.rank(7), 2);
    }

    #[test]
    fn pending_set_growth_is_invisible() {
        // A set declared for 4 ids that widens its id space mid-run (six
        // rebuilds) must arbitrate exactly like one declared at full size:
        // growth is never allowed to perturb a draw or a winner.
        let n = 2048;
        for policy in [
            Arbitration::Random,
            Arbitration::RoundRobin,
            Arbitration::OldestFirst,
        ] {
            let mut small = PendingSet::new(policy, 4); // grows mid-run
            let mut big = PendingSet::new(policy, n);
            let mut r_small = rng();
            let mut r_big = rng();
            let mut driver = Xoshiro256PlusPlus::seed_from_u64(9);
            for id in 0..n {
                small.insert(Request::new(id, id as u64));
                big.insert(Request::new(id, id as u64));
                if driver.next_bool(0.3) {
                    assert_eq!(
                        small.arbitrate(&mut r_small),
                        big.arbitrate(&mut r_big),
                        "policy {policy:?} after insert {id}"
                    );
                }
            }
            assert_eq!(small.len(), n);
            // Drain through arbitration; winners must stay in lockstep.
            while !small.is_empty() {
                let (a, b) = (small.arbitrate(&mut r_small), big.arbitrate(&mut r_big));
                assert_eq!(a, b, "policy {policy:?} at len {}", small.len());
                let w = a.expect("non-empty set always yields a winner");
                assert_eq!(small.remove(w).since, big.remove(w).since);
            }
        }
    }

    #[test]
    fn select_in_word_matches_naive_loop() {
        let naive = |word: u64, r: u64| {
            (0..64)
                .filter(|b| word >> b & 1 == 1)
                .nth(r as usize)
                .expect("r < popcount")
        };
        // Every byte value at every byte position, every rank.
        for byte in 0..256u64 {
            for at in 0..8 {
                let word = byte << (8 * at);
                for r in 0..u64::from(word.count_ones()) {
                    assert_eq!(select_in_word(word, r), naive(word, r), "{word:#x} r={r}");
                }
            }
        }
        let mut rng = rng();
        for _ in 0..2000 {
            // Sparse, mixed and dense words.
            let word = match rng.next_below(3) {
                0 => rng.next_u64() & rng.next_u64() & rng.next_u64(),
                1 => rng.next_u64(),
                _ => rng.next_u64() | rng.next_u64() | rng.next_u64(),
            };
            for r in 0..u64::from(word.count_ones()) {
                assert_eq!(select_in_word(word, r), naive(word, r), "{word:#x} r={r}");
            }
        }
        assert_eq!(select_in_word(u64::MAX, 63), 63);
        assert_eq!(select_in_word(1 << 63, 0), 63);
    }

    #[test]
    fn reset_stats_clears_counters() {
        let mut m = MemoryModule::default();
        let mut r = rng();
        m.arbitrate(&reqs(&[0, 1]), &mut r);
        m.reset_stats();
        assert_eq!(m.presented(), 0);
        assert_eq!(m.served(), 0);
        assert_eq!(m.busy_cycles(), 0);
    }
}
