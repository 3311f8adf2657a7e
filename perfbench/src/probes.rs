//! Per-layer probes: direct timings of each layer's public functions,
//! run only in the traced invocation.
//!
//! Each probe isolates one layer on inputs sized like the workloads that
//! exercise it; `perfbench/README.md` lists the end-to-end metric and workload
//! each probe should move.

use std::collections::VecDeque;
use std::time::Instant;

use abs_coherence::{CacheGeometry, DirectorySystem, PointerLimit, SnoopyBus, SyncCaching};
use abs_core::{
    BackoffPolicy, BarrierConfig, BarrierSim, CombiningConfig, CombiningTreeSim, Kernel,
    ResourceConfig, ResourcePolicy, ResourceSim, ShardedBarrierConfig, ShardedBarrierSim,
    SingleCounterSim,
};
use abs_net::module::{Arbitration, PendingSet, Request};
use abs_net::NetworkBackoff;
use abs_obs::trace::{Ring, DEFAULT_RING_CAPACITY};
use abs_sim::rng::Xoshiro256PlusPlus;
use abs_sim::stats::{median, quantile};
use abs_sim::sweep::derive_seed;
use abs_sim::wheel::TimeWheel;
use abs_trace::ops::CountingConsumer;
use abs_trace::record::TraceRecorder;
use abs_trace::sched::SchedKind;
use abs_trace::{apps, Scheduler};

use crate::spans::SpanLog;
use crate::workloads::{hot_circuit, hot_packet, open_loop, ExecSample};

/// One per-layer metric value.
pub type Reading = (&'static str, f64);

/// What the coherence probes saw, for the conservation check and the
/// directory's share of `coherence_trace`.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoherenceProbe {
    pub scheduler_s: f64,
    pub replay_s: f64,
    pub direct_s: f64,
    pub scheduler_ns_per_ref: f64,
    pub directory_ns_per_ref: f64,
    pub snoopy_ns_per_ref: f64,
}

impl CoherenceProbe {
    /// (scheduler-only + replay) / direct run: 1 when the parts account
    /// for the whole.
    pub fn conservation_ratio(&self) -> f64 {
        (self.scheduler_s + self.replay_s) / self.direct_s
    }
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Median over `reps` timings of `f`, in seconds.
fn timed(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            f();
            secs(start)
        })
        .collect();
    median(&times)
}

/// Records one span per probe call under a common parent.
struct Probe<'a> {
    log: &'a SpanLog,
    parent: u64,
}

impl Probe<'_> {
    fn span<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        self.log.time(self.parent, 0, layer, name, |_| f())
    }
}

/// Runs every probe, recording a span around each probe call under
/// `parent`.
pub fn run_all(seed: u64, log: &SpanLog, parent: u64) -> (Vec<Reading>, CoherenceProbe) {
    let p = Probe { log, parent };
    let mut out = Vec::new();
    let coherence = coherence(&p, seed, &mut out);
    net(&p, seed, &mut out);
    sim(&p, seed, &mut out);
    core(&p, seed, &mut out);
    load(&p, seed, &mut out);
    obs(&p, seed, &mut out);
    (out, coherence)
}

/// `abs-trace` and `abs-coherence`: the scheduler alone, then the same
/// references recorded and replayed into a directory and a snoopy bus,
/// then the direct run the exhibits make, all on SIMPLE at 16 processors
/// with caches starting empty.
fn coherence(p: &Probe, seed: u64, out: &mut Vec<Reading>) -> CoherenceProbe {
    let procs = 16;
    let scheduler = Scheduler::new(apps::simple_like(), procs, seed);
    let machine = || {
        DirectorySystem::new(
            procs,
            CacheGeometry::paper(),
            PointerLimit::Full,
            SyncCaching::Cached,
        )
    };
    let mut counts = CountingConsumer::new();
    let scheduler_s = p.span("abs-trace", "Scheduler::run into CountingConsumer", || {
        timed(3, || {
            counts = CountingConsumer::new();
            scheduler.run(&mut counts);
        })
    });
    let mut recorder = TraceRecorder::new();
    p.span("abs-trace", "Scheduler::run into TraceRecorder", || {
        scheduler.run(&mut recorder)
    });
    let trace = recorder.into_trace();
    let refs = trace.len() as f64;

    // Replay and direct run alternate, three times each, so drift hits
    // both sides of the conservation check alike.
    let (mut replay, mut direct, mut invalidations) = (Vec::new(), Vec::new(), 0);
    for _ in 0..3 {
        let mut replayed = machine();
        replay.push(p.span(
            "abs-coherence",
            "Trace::replay into DirectorySystem",
            || timed(1, || trace.replay(&mut replayed)),
        ));
        invalidations = replayed.stats().invalidation_messages;
        let mut fresh = machine();
        direct.push(p.span(
            "abs-coherence",
            "Scheduler::run into DirectorySystem",
            || {
                timed(1, || {
                    scheduler.run(&mut fresh);
                })
            },
        ));
    }
    let mut bus = SnoopyBus::new(procs, CacheGeometry::paper());
    let snoopy_s = p.span("abs-coherence", "Trace::replay into SnoopyBus", || {
        timed(1, || trace.replay(&mut bus))
    });
    let (replay_s, direct_s) = (median(&replay), median(&direct));
    let probe = CoherenceProbe {
        scheduler_s,
        replay_s,
        direct_s,
        scheduler_ns_per_ref: scheduler_s * 1e9 / counts.total() as f64,
        directory_ns_per_ref: replay_s * 1e9 / refs,
        snoopy_ns_per_ref: snoopy_s * 1e9 / refs,
    };
    out.push(("coherence.directory.ns_per_ref", probe.directory_ns_per_ref));
    out.push(("coherence.snoopy.ns_per_ref", probe.snoopy_ns_per_ref));
    out.push((
        "coherence.invalidations_per_kref",
        invalidations as f64 * 1e3 / refs,
    ));
    out.push(("trace.scheduler.ns_per_ref", probe.scheduler_ns_per_ref));
    probe
}

/// Steady-state churn at `k` pending requests under random arbitration:
/// serve the winner and let a waiting requester take its place.
fn pending_churn_ns(k: usize, seed: u64) -> f64 {
    let mut set = PendingSet::new(Arbitration::Random, 2 * k);
    // Even ids pending, odd ids waiting, so inserts land between entries.
    for id in (0..2 * k).step_by(2) {
        set.insert(Request::new(id, 0));
    }
    let mut waiting: VecDeque<usize> = (1..2 * k).step_by(2).collect();
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let ops = 200_000u64;
    let seconds = timed(3, || {
        for t in 0..ops {
            let winner = set.arbitrate(&mut rng).expect("set stays non-empty"); // abs-lint: allow(panic-path) -- the set holds k > 0 requests throughout
            set.remove(winner);
            let next = waiting.pop_front().expect("as many waiting as pending"); // abs-lint: allow(panic-path) -- k ids wait while k are pending
            set.insert(Request::new(next, t));
            waiting.push_back(winner);
        }
    });
    assert_eq!(set.len(), k);
    seconds * 1e9 / ops as f64
}

/// `abs-net`: pending-set churn across the 1024-entry layout switch, and
/// hot-spot packet and circuit episodes.
fn net(p: &Probe, seed: u64, out: &mut Vec<Reading>) {
    for (name, k) in [
        ("net.pending.churn_ns.k64", 64),
        ("net.pending.churn_ns.k512", 512),
        ("net.pending.churn_ns.k4096", 4096),
        ("net.pending.churn_ns.k65536", 1 << 16),
        ("net.pending.churn_ns.k1048576", 1 << 20),
    ] {
        out.push((name, p.span("abs-net", name, || pending_churn_ns(k, seed))));
    }
    let packet = hot_packet(NetworkBackoff::ExponentialRetries { base: 4, cap: 4096 });
    let mut rep = 0;
    let packet_s = p.span("abs-net", "PacketSim::run_with", || {
        timed(5, || {
            rep += 1;
            std::hint::black_box(packet.run_with(derive_seed(seed, rep), Kernel::Event));
        })
    });
    out.push(("net.packet.episode_ms", packet_s * 1e3));
    let circuit = hot_circuit(NetworkBackoff::None);
    let circuit_s = p.span("abs-net", "CircuitSim::run_with", || {
        timed(21, || {
            rep += 1;
            std::hint::black_box(circuit.run_with(derive_seed(seed, rep), Kernel::Event));
        })
    });
    out.push(("net.circuit.episode_ms", circuit_s * 1e3));
}

/// Time per wheel event at a steady population of 1024 wake-ups whose
/// delays are drawn from `delays`, jumping the clock as the kernels do.
fn wheel_ns_per_event(delays: std::ops::Range<u64>, seed: u64) -> f64 {
    let mut rng = Xoshiro256PlusPlus::seed_from_u64(seed);
    let events = 400_000usize;
    let seconds = timed(3, || {
        let mut wheel = TimeWheel::new(0);
        for id in 0..1024 {
            wheel.schedule(rng.next_range_u64(delays.clone()), id);
        }
        let mut due = Vec::new();
        let mut popped = 0;
        while popped < events {
            let now = wheel.peek_min().expect("population is steady"); // abs-lint: allow(panic-path) -- every popped id is rescheduled
            wheel.pop_due(now, &mut due);
            popped += due.len();
            for &id in &due {
                wheel.schedule(now + rng.next_range_u64(delays.clone()), id);
            }
        }
    });
    seconds * 1e9 / events as f64
}

/// `abs-sim`: the time wheel inside and beyond its 256-slot horizon, and
/// arrival generation at 2²⁰ processors.
fn sim(p: &Probe, seed: u64, out: &mut Vec<Reading>) {
    for (name, delays) in [
        ("sim.wheel.ns_per_event.near", 1..256),
        ("sim.wheel.ns_per_event.far", 256..65_536),
    ] {
        out.push((
            name,
            p.span("abs-sim", name, || wheel_ns_per_event(delays, seed)),
        ));
    }
    let n = 1 << 20;
    let mut rep = 0;
    let arrivals_s = p.span("abs-sim", "Xoshiro256PlusPlus::uniform_arrivals", || {
        timed(5, || {
            rep += 1;
            let mut rng = Xoshiro256PlusPlus::seed_from_u64(derive_seed(seed, rep));
            std::hint::black_box(rng.uniform_arrivals(n, 1000));
        })
    });
    out.push(("sim.rng.arrivals_ns_per_proc", arrivals_s * 1e9 / n as f64));
}

/// `abs-core`: barrier episodes at paper and mega scale, the sharded 2²⁰
/// run shard by shard, and the Section-8 simulators.
fn core(p: &Probe, seed: u64, out: &mut Vec<Reading>) {
    // Paper scale: N = 512 at both arrival extremes, with and without
    // backoff, 10 episodes each.
    let (mut small_s, mut small_cycles) = (0.0, 0.0);
    for a in [0, 1000] {
        for policy in [BackoffPolicy::None, BackoffPolicy::exponential(8)] {
            let sim = BarrierSim::new(BarrierConfig::new(512, a), policy);
            for rep in 0..10 {
                let start = Instant::now();
                let run = p.span("abs-core", "BarrierSim::run_with", || {
                    sim.run_with(derive_seed(seed, rep), Kernel::Event)
                });
                small_s += secs(start);
                small_cycles += run.completion() as f64;
            }
        }
    }
    out.push((
        "core.barrier.ns_per_sim_cycle.small",
        small_s * 1e9 / small_cycles,
    ));

    let (mut mega_s, mut mega_cycles) = (0.0, 0.0);
    for (name, n) in [
        ("core.barrier.episode_ms.n65536", 1 << 16),
        ("core.barrier.episode_ms.n262144", 1 << 18),
        ("core.barrier.episode_ms.n1048576", 1 << 20),
    ] {
        let sim = BarrierSim::new(BarrierConfig::new(n, 1000), BackoffPolicy::exponential(2));
        let start = Instant::now();
        let run = p.span("abs-core", name, || sim.run_with(seed, Kernel::Event));
        let s = secs(start);
        mega_s += s;
        mega_cycles += run.completion() as f64;
        out.push((name, s * 1e3));
    }
    out.push((
        "core.barrier.ns_per_sim_cycle.mega",
        mega_s * 1e9 / mega_cycles,
    ));

    let sharded = ShardedBarrierSim::new(
        ShardedBarrierConfig::new(1 << 20, 1000, 4096),
        BackoffPolicy::exponential(2),
    );
    let mut shard_ms = Vec::new();
    let shards: Vec<_> = (0..sharded.config().shard_count())
        .map(|index| {
            let start = Instant::now();
            let summary = p.span("abs-core", "ShardedBarrierSim::run_shard", || {
                sharded.run_shard(seed, index, Kernel::Event)
            });
            shard_ms.push(secs(start) * 1e3);
            summary
        })
        .collect();
    let start = Instant::now();
    p.span("abs-core", "ShardedBarrierSim::merge", || {
        std::hint::black_box(sharded.merge(seed, shards, Kernel::Event))
    });
    out.push(("core.sharded.shard_ms_p50", median(&shard_ms)));
    out.push(("core.sharded.merge_ms", secs(start) * 1e3));

    let combining = CombiningTreeSim::new(
        CombiningConfig::new(512, 100, 8),
        BackoffPolicy::exponential(2),
    );
    let resource = ResourceSim::new(
        ResourceConfig::new(32, 0, 100),
        ResourcePolicy::ProportionalWaiters { hold_estimate: 100 },
    );
    let single = SingleCounterSim::new(BarrierConfig::new(64, 0), BackoffPolicy::None);
    let mut rep = 0;
    let mut next = || {
        rep += 1;
        derive_seed(seed, rep)
    };
    let combining_s = p.span("abs-core", "CombiningTreeSim::run_with", || {
        timed(9, || {
            std::hint::black_box(combining.run_with(next(), Kernel::Event));
        })
    });
    out.push(("core.combining.episode_ms", combining_s * 1e3));
    let resource_s = p.span("abs-core", "ResourceSim::run_with", || {
        timed(51, || {
            std::hint::black_box(resource.run_with(next(), Kernel::Event));
        })
    });
    out.push(("core.resource.episode_ms", resource_s * 1e3));
    let single_s = p.span("abs-core", "SingleCounterSim::run_with", || {
        timed(51, || {
            std::hint::black_box(single.run_with(next(), Kernel::Event));
        })
    });
    out.push(("core.single.episode_ms", single_s * 1e3));
}

/// `abs-load`: stream generation, then the engine (a full run minus its
/// stream), per job, at 4x load under round-robin admission.
fn load(p: &Probe, seed: u64, out: &mut Vec<Reading>) {
    let sim = open_loop(4.0, SchedKind::RoundRobin);
    let (mut stream_ns, mut engine_ns) = (Vec::new(), Vec::new());
    for rep in 0..7 {
        let s = derive_seed(seed, rep);
        let start = Instant::now();
        let jobs = p.span("abs-load", "OpenLoopSim::stream", || {
            sim.stream(s).len() as f64
        });
        let stream = secs(start);
        let start = Instant::now();
        p.span("abs-load", "OpenLoopSim::run_with", || {
            std::hint::black_box(sim.run_with(s, Kernel::Event))
        });
        let run = secs(start);
        stream_ns.push(stream * 1e9 / jobs);
        engine_ns.push((run - stream) * 1e9 / jobs);
    }
    out.push(("load.stream.ns_per_job", median(&stream_ns)));
    out.push(("load.engine.ns_per_job", median(&engine_ns)));
}

/// `abs-obs`: the ring sink's cost over the untraced run, one barrier
/// episode at N = 512 and at 2¹⁶.
fn obs(p: &Probe, seed: u64, out: &mut Vec<Reading>) {
    for (name, n, reps) in [
        ("obs.ring_overhead_ratio.n512", 512, 9),
        ("obs.ring_overhead_ratio.n65536", 1 << 16, 3),
    ] {
        let sim = BarrierSim::new(BarrierConfig::new(n, 1000), BackoffPolicy::exponential(2));
        let plain = p.span("abs-core", "BarrierSim::run_with", || {
            timed(reps, || {
                std::hint::black_box(sim.run_with(seed, Kernel::Event));
            })
        });
        let traced = p.span("abs-obs", "BarrierSim::run_traced_with(Ring)", || {
            timed(reps, || {
                let mut ring = Ring::new(DEFAULT_RING_CAPACITY);
                std::hint::black_box(sim.run_traced_with(seed, &mut ring, Kernel::Event));
            })
        });
        out.push((name, traced / plain));
    }
}

/// `abs-exec`: counters of the workload's own engine runs.
pub fn exec(samples: &[ExecSample]) -> Vec<Reading> {
    let waits: Vec<f64> = samples
        .iter()
        .flat_map(|s| s.queue_wait_ms.iter().copied())
        .collect();
    let capacity: f64 = samples
        .iter()
        .map(|s| s.workers as f64 * s.engine_wall_s)
        .sum();
    let job_wall: f64 = samples.iter().map(|s| s.job_wall_s).sum();
    vec![
        ("exec.queue_wait_ms_p50", quantile(&waits, 0.5)),
        ("exec.queue_wait_ms_p90", quantile(&waits, 0.9)),
        ("exec.utilization", job_wall / capacity),
        ("exec.overhead_frac", 1.0 - job_wall / capacity),
        (
            "exec.retries",
            samples.iter().map(|s| s.retries as f64).sum(),
        ),
        (
            "exec.failed_jobs",
            samples.iter().map(|s| s.failed_jobs as f64).sum(),
        ),
    ]
}
