//! The wake-up queue of the event-driven skip-ahead kernels.
//!
//! Every skip-ahead kernel needs three operations on the set of future
//! wake-ups (processor arrivals, backoff expiries, resource/circuit hold
//! completions):
//!
//! * schedule a wake-up at an absolute cycle,
//! * pop everything due at the current cycle (in ascending processor-id
//!   order, matching the cycle stepper's id-ordered activation scan), and
//! * peek the earliest pending wake-up so the clock can jump over dead
//!   cycles.
//!
//! One binary heap ordered by `(time, id)` serves all three. Its pop order
//! is time first, then id, so the wake-ups due at a cycle come out in
//! ascending id order with no sort, and the earliest wake-up is the heap's
//! top. Scheduling and popping cost `O(log len)` at any distance, so the
//! far wake-ups of exponential backoff (delays grow as `base^k`, unbounded
//! for the paper's uncapped curves) cost the same as near ones.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A min-queue of future wake-ups over absolute simulation cycles.
///
/// # Examples
///
/// ```
/// use abs_sim::wheel::TimeWheel;
///
/// let mut wheel = TimeWheel::new(0);
/// wheel.schedule(5, 1);
/// wheel.schedule(5, 0);
/// wheel.schedule(1_000_000, 2);
/// assert_eq!(wheel.peek_min(), Some(5));
/// let mut due = Vec::new();
/// wheel.pop_due(5, &mut due);
/// assert_eq!(due, vec![0, 1]); // ascending id order
/// assert_eq!(wheel.peek_min(), Some(1_000_000));
/// ```
#[derive(Debug, Clone)]
pub struct TimeWheel {
    /// Pending `(due cycle, processor id)` wake-ups, smallest first.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The clock as of the last pop; nothing may be scheduled before it.
    now: u64,
}

impl TimeWheel {
    /// Creates a wheel whose clock starts at `now`.
    pub fn new(now: u64) -> Self {
        Self {
            heap: BinaryHeap::new(),
            now,
        }
    }

    /// Scheduled wake-ups not yet popped.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no wake-up is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules a wake-up for processor `id` at absolute cycle `time`.
    ///
    /// `time` may not precede the wheel's current cycle (a wake-up in the
    /// past would pop after later ones).
    pub fn schedule(&mut self, time: u64, id: usize) {
        debug_assert!(
            time >= self.now,
            "wake-up at {time} scheduled in the past of {}",
            self.now
        );
        self.heap.push(Reverse((time, id)));
    }

    /// Advances the clock to `now` and appends every wake-up due at or
    /// before `now` to `due`, in `(time, id)` order.
    ///
    /// The kernel advances the clock either by one cycle or by jumping to
    /// [`peek_min`](Self::peek_min), so every popped wake-up is due
    /// *exactly* at `now` and `due` comes out in ascending id order.
    pub fn pop_due(&mut self, now: u64, due: &mut Vec<usize>) {
        due.clear();
        debug_assert!(now >= self.now, "clock moved backwards");
        self.now = now;
        while let Some(&Reverse((time, id))) = self.heap.peek() {
            if time > now {
                break;
            }
            debug_assert_eq!(time, now, "due wake-up skipped over");
            self.heap.pop();
            due.push(id);
        }
    }

    /// The earliest pending wake-up cycle, or `None` when empty.
    pub fn peek_min(&self) -> Option<u64> {
        self.heap.peek().map(|&Reverse((time, _))| time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop(wheel: &mut TimeWheel, now: u64) -> Vec<usize> {
        let mut due = Vec::new();
        wheel.pop_due(now, &mut due);
        due
    }

    #[test]
    fn empty_wheel() {
        let wheel = TimeWheel::new(7);
        assert!(wheel.is_empty());
        assert_eq!(wheel.peek_min(), None);
    }

    #[test]
    fn pops_in_id_order() {
        let mut wheel = TimeWheel::new(0);
        for id in [5usize, 1, 9, 0] {
            wheel.schedule(3, id);
        }
        assert_eq!(wheel.len(), 4);
        assert_eq!(pop(&mut wheel, 2), Vec::<usize>::new());
        assert_eq!(pop(&mut wheel, 3), vec![0, 1, 5, 9]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn near_and_far_interleave() {
        let mut wheel = TimeWheel::new(0);
        wheel.schedule(2, 0);
        wheel.schedule(258, 1);
        wheel.schedule(1 << 40, 2);
        assert_eq!(wheel.peek_min(), Some(2));
        assert_eq!(pop(&mut wheel, 2), vec![0]);
        assert_eq!(wheel.peek_min(), Some(258));
        assert_eq!(pop(&mut wheel, 258), vec![1]);
        assert_eq!(wheel.peek_min(), Some(1 << 40));
        assert_eq!(pop(&mut wheel, 1 << 40), vec![2]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn matches_sorted_vec_model() {
        // Drive the wheel the way the kernels do — schedule strictly after
        // the clock, advance by one cycle or jump to `peek_min` — while
        // shadowing it with a plain `(time, id)`-sorted list. Bursts put up
        // to 512 ids on one cycle; delays reach 2²⁰.
        use crate::check::{self, Config};
        use crate::forall;
        use crate::rng::Xoshiro256PlusPlus;
        let cases = if cfg!(debug_assertions) { 24 } else { 192 };
        forall!(Config::with_cases(cases), (
            seed in check::any_u64(),
            max_log in check::u32_in(0..=20),
            burst in check::usize_in(1..513),
        ) {
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
            let mut wheel = TimeWheel::new(0);
            let mut model: Vec<(u64, usize)> = Vec::new();
            let mut idle: Vec<usize> = (0..1024).collect();
            let mut now = 0u64;
            let mut due = Vec::new();
            for step in 0..400 {
                let t = now + 1 + rng.next_below(1 << max_log);
                for _ in 0..burst.min(idle.len()) {
                    let id = idle.swap_remove(rng.next_below_usize(idle.len()));
                    wheel.schedule(t, id);
                    model.push((t, id));
                }
                model.sort_unstable();
                assert_eq!(wheel.peek_min(), model.first().map(|e| e.0), "step {step}");
                now = match model.first() {
                    Some(&(t, _)) if rng.next_bool(0.5) => t,
                    _ => now + 1,
                };
                wheel.pop_due(now, &mut due);
                let cut = model.partition_point(|e| e.0 <= now);
                let want: Vec<usize> = model.drain(..cut).map(|e| e.1).collect();
                assert_eq!(due, want, "step {step}");
                assert_eq!(wheel.len(), model.len(), "step {step}");
                idle.extend_from_slice(&due);
            }
        });
    }

    #[test]
    fn cycle_by_cycle_advance_matches_jump() {
        let mut a = TimeWheel::new(0);
        let mut b = TimeWheel::new(0);
        for (t, id) in [(3u64, 0usize), (300, 1), (301, 2), (900, 3)] {
            a.schedule(t, id);
            b.schedule(t, id);
        }
        // a: advance one cycle at a time; b: jump via peek_min.
        let mut seen_a: Vec<(u64, Vec<usize>)> = Vec::new();
        let mut due = Vec::new();
        for now in 0..=900 {
            a.pop_due(now, &mut due);
            if !due.is_empty() {
                seen_a.push((now, due.clone()));
            }
        }
        let mut seen_b: Vec<(u64, Vec<usize>)> = Vec::new();
        while let Some(t) = b.peek_min() {
            b.pop_due(t, &mut due);
            seen_b.push((t, due.clone()));
        }
        assert_eq!(seen_a, seen_b);
        assert_eq!(seen_b.len(), 4);
    }
}
