//! Trace recording and replay — the "post-mortem" artifact itself.
//!
//! The paper's methodology separates trace *generation* (PSIMUL, once) from
//! trace *consumption* (many simulator configurations). [`TraceRecorder`]
//! captures the scheduler's reference stream into a [`Trace`] that can be
//! replayed into any number of [`MemorySystem`]s without re-running the
//! scheduler.

use crate::ops::{MemorySystem, RefKind};

/// One recorded memory reference.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Issuing processor.
    pub proc: u32,
    /// Byte address.
    pub addr: u64,
    /// Whether the reference was a write.
    pub write: bool,
    /// Reference classification.
    pub kind: RefKind,
}

/// A captured reference stream, in global (round-robin) order.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Trace {
    records: Vec<TraceRecord>,
    cycles: u64,
}

impl Trace {
    /// The recorded references in issue order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Number of references.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Cycles covered by the recording.
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Replays the trace into a memory system, reproducing the original
    /// reference order.
    pub fn replay<M: MemorySystem>(&self, mem: &mut M) {
        for r in &self.records {
            mem.access(r.proc as usize, r.addr, r.write, r.kind);
        }
    }
}

/// A [`MemorySystem`] that records everything it sees.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceRecorder {
    trace: Trace,
}

impl TraceRecorder {
    /// Creates an empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes recording.
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// Borrows the trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }
}

impl MemorySystem for TraceRecorder {
    fn access(&mut self, proc: usize, addr: u64, write: bool, kind: RefKind) {
        self.trace.records.push(TraceRecord {
            proc: u32::try_from(proc).unwrap_or(u32::MAX),
            addr,
            write,
            kind,
        });
    }

    fn tick(&mut self, cycle: u64) {
        self.trace.cycles = cycle + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::{Section, SpmdApp};
    use crate::ops::CountingConsumer;
    use crate::scheduler::Scheduler;

    fn toy_trace() -> Trace {
        let app = SpmdApp::new(
            "t",
            vec![Section::Parallel {
                iterations: 4,
                iter_refs: 20,
                jitter: 0.0,
            }],
        );
        let mut rec = TraceRecorder::new();
        Scheduler::new(app, 4, 1).run(&mut rec);
        rec.into_trace()
    }

    #[test]
    fn recording_matches_counts() {
        let app = SpmdApp::new(
            "t",
            vec![Section::Parallel {
                iterations: 4,
                iter_refs: 20,
                jitter: 0.0,
            }],
        );
        let (_, counts) = Scheduler::new(app.clone(), 4, 1).run_counting();
        let mut rec = TraceRecorder::new();
        Scheduler::new(app, 4, 1).run(&mut rec);
        assert_eq!(rec.trace().len() as u64, counts.total());
    }

    #[test]
    fn replay_reproduces_consumer_state() {
        let trace = toy_trace();
        let mut direct = CountingConsumer::new();
        trace.replay(&mut direct);
        assert_eq!(direct.total() as usize, trace.len());
        assert!(direct.sync() > 0);
    }

    #[test]
    fn replay_into_coherence_equals_direct_drive() {
        // Equivalence of post-mortem replay and live driving: the counting
        // consumer sees identical classifications either way.
        let trace = toy_trace();
        let mut replayed = CountingConsumer::new();
        trace.replay(&mut replayed);
        let mut again = CountingConsumer::new();
        trace.replay(&mut again);
        assert_eq!(replayed, again);
    }
}
