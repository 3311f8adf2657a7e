//! Wall-clock spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only in the traced run (`--trace 1`); the measured
//! run passes no log, so its only cost is a `None` check per call. Every
//! span has a name, the layer (crate) it times, a start, an end and a
//! parent; the spans of one engine job share that job's id. The log stays
//! in memory and is written out once, as a Chrome trace, at the end.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::Instant;

use abs_obs::trace::{Event, Phase};
use abs_obs::{ChromeTrace, WALL_PID};

/// One closed span. Times are µs since the log's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// The enclosing span's id; 0 for a root.
    pub parent: u64,
    /// The engine job the span belongs to; 0 outside jobs.
    pub job: u64,
    pub layer: &'static str,
    pub name: String,
    /// The recording thread's lane.
    pub lane: u32,
    pub start_us: f64,
    pub end_us: f64,
}

/// The in-memory span log shared by every thread of a traced run.
#[derive(Debug)]
pub struct SpanLog {
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

impl SpanLog {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_us(&self) -> f64 {
        self.epoch.elapsed().as_secs_f64() * 1e6
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can parent
    /// its own calls.
    pub fn time<T>(
        &self,
        parent: u64,
        job: u64,
        layer: &'static str,
        name: impl Into<String>,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_us = self.now_us();
        let out = f(id);
        let end_us = self.now_us();
        let span = Span {
            id,
            parent,
            job,
            layer,
            name: name.into(),
            lane: LANE.with(|l| *l),
            start_us,
            end_us,
        };
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(span);
        out
    }

    /// Every span recorded so far, ordered by id.
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        spans.sort_by_key(|s| s.id);
        spans
    }
}

impl Default for SpanLog {
    fn default() -> Self {
        Self::new()
    }
}

/// Times `f` in a span when a log is given, else just calls it with
/// parent id 0.
pub fn span<T>(
    log: Option<&SpanLog>,
    parent: u64,
    job: u64,
    layer: &'static str,
    name: impl FnOnce() -> String,
    f: impl FnOnce(u64) -> T,
) -> T {
    match log {
        Some(log) => log.time(parent, job, layer, name(), f),
        None => f(0),
    }
}

/// The span `root` and every span below it.
pub fn subtree(spans: &[Span], root: u64) -> Vec<Span> {
    let parent: BTreeMap<u64, u64> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let under = |mut id: u64| loop {
        if id == root {
            return true;
        }
        match parent.get(&id) {
            Some(&p) if p != 0 => id = p,
            _ => return false,
        }
    };
    spans.iter().filter(|s| under(s.id)).cloned().collect()
}

/// Self time per layer, in µs: each span's duration minus the part of its
/// interval that its children cover (children may run concurrently on
/// other threads, so their union is subtracted, not their sum).
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64)> {
    let mut children: BTreeMap<u64, Vec<(f64, f64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_us, s.end_us));
        }
    }
    let mut table: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
    for s in spans {
        let kids = children.remove(&s.id).unwrap_or_default();
        let covered = union_within(kids, s.start_us, s.end_us);
        let entry = table.entry(s.layer).or_insert((0, 0.0));
        entry.0 += 1;
        entry.1 += (s.end_us - s.start_us - covered).max(0.0);
    }
    table
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn union_within(mut intervals: Vec<(f64, f64)>, lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut covered = 0.0;
    let mut reach = lo;
    for (start, end) in intervals {
        let (start, end) = (start.max(reach), end.min(hi));
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Renders the spans as a Chrome trace: one wall-clock lane per thread,
/// `B`/`E` pairs in time order on each lane.
pub fn chrome(spans: &[Span]) -> ChromeTrace {
    let mut trace = ChromeTrace::new();
    trace.name_process(WALL_PID, "perfbench (wall clock, µs)");
    let mut lanes: BTreeMap<u32, Vec<Event>> = BTreeMap::new();
    for s in spans {
        let args = [
            ("span", s.id as f64),
            ("parent", s.parent as f64),
            ("job", s.job as f64),
        ];
        let name = format!("{} {}", s.layer, s.name);
        let events = lanes.entry(s.lane).or_default();
        let mut begin = Event::sim(s.lane, s.start_us, Phase::Begin, name.clone()).with_args(&args);
        begin.pid = WALL_PID;
        let mut end = Event::sim(s.lane, s.end_us, Phase::End, name);
        end.pid = WALL_PID;
        events.push(begin);
        events.push(end);
    }
    for (lane, mut events) in lanes {
        trace.name_thread(WALL_PID, lane, format!("thread {lane}"));
        // Spans on one thread nest; at equal stamps an end must precede
        // the next begin, and a child's end its parent's.
        events.sort_by(|a, b| {
            a.ts.total_cmp(&b.ts).then_with(|| {
                let rank = |e: &Event| u8::from(e.phase == Phase::Begin);
                rank(a).cmp(&rank(b))
            })
        });
        trace.push_events(events);
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, layer: &'static str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            job: 0,
            layer,
            name: String::new(),
            lane: 0,
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "a", 0.0, 100.0),
            // Two overlapping children cover [10, 70]: 60 µs.
            span(2, 1, "b", 10.0, 50.0),
            span(3, 1, "b", 30.0, 70.0),
        ];
        let table = self_time_by_layer(&spans);
        assert_eq!(table["a"], (1, 40.0));
        assert_eq!(table["b"], (2, 80.0));
        assert_eq!(subtree(&spans, 2).len(), 1);
        assert_eq!(subtree(&spans, 1).len(), 3);
    }

    #[test]
    fn recorded_spans_export_as_a_valid_chrome_trace() {
        let log = SpanLog::new();
        log.time(0, 7, "outer", "o", |id| {
            log.time(id, 7, "inner", "i", |_| ())
        });
        let spans = log.spans();
        assert_eq!(spans.len(), 2);
        assert!(spans.iter().all(|s| s.job == 7));
        let doc = chrome(&spans).to_value();
        assert!(abs_obs::validate(&doc).is_ok());
    }
}
