//! The closed-batch workloads, their batch runner and the result
//! checks that feed `failed_frac`.
//!
//! A workload is a fixed set of simulations derived from the benchmark
//! seed. One batch hands every simulation to an `abs-exec` [`Engine`]
//! (one job per sweep point, as `repro`'s `sweep_points` does) and waits
//! for all of them: a closed batch with no arrival schedule. The
//! simulators only ever see the generated configurations and seeds.

use std::fmt::{Debug, Write as _};
use std::time::Instant;

use abs_bench::ReproConfig;
use abs_coherence::{CacheGeometry, DirectorySystem, PointerLimit, SyncCaching};
use abs_core::{
    BackoffPolicy, BarrierConfig, BarrierRun, BarrierSim, CombiningConfig, CombiningRun,
    CombiningTreeSim, Kernel, ResourceConfig, ResourcePolicy, ResourceRun, ResourceSim,
    SingleCounterRun, SingleCounterSim,
};
use abs_exec::{Engine, ExecConfig, JobSet};
use abs_load::{Arrival, LoadConfig, LoadOutcome, OpMix, OpenLoopSim, Tenant};
use abs_net::{
    CircuitConfig, CircuitOutcome, CircuitSim, NetworkBackoff, PacketConfig, PacketOutcome,
    PacketSim,
};
use abs_sim::sweep::{derive_seed, power_of_two_counts, Repetitions};
use abs_sim::table::{fmt_f64, Table};
use abs_trace::record::TraceRecorder;
use abs_trace::sched::SchedKind;
use abs_trace::{apps, Scheduler, SpmdApp};

use crate::spans::{span, SpanLog};

/// The seed whose results are pinned by digest (`repro`'s default).
pub const DEFAULT_SEED: u64 = 0x1989_0605;

/// Processors of every Section-2 machine (`repro --quick`'s `procs`).
const COHERENCE_PROCS: usize = 16;

/// Repetitions per Figures 4–10 sweep point (the paper's 100).
const PAPER_REPS: u32 = 100;

/// Seed of the untimed warm-up episodes: set-up does the same work at
/// every benchmark seed.
const WARMUP_SEED: u64 = 1;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CoherenceTrace,
    BarrierPaper,
    ExtensionsMix,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::CoherenceTrace,
        Workload::BarrierPaper,
        Workload::ExtensionsMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CoherenceTrace => "coherence_trace",
            Workload::BarrierPaper => "barrier_paper",
            Workload::ExtensionsMix => "extensions_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Digest of every simulation result of one batch at [`DEFAULT_SEED`].
    /// The simulators are deterministic, so any change here is a change in
    /// what the model computes, not noise.
    pub fn pinned_digest(self) -> u64 {
        match self {
            Workload::CoherenceTrace => 0x3fa9_0ca2_ba12_69fd,
            Workload::BarrierPaper => 0x49b1_e0fe_c9d3_3eb3,
            Workload::ExtensionsMix => 0xcccd_26a7_b8bd_d335,
        }
    }

    /// The simulations of one batch, derived from `seed` alone.
    pub fn specs(self, seed: u64) -> Vec<Spec> {
        match self {
            Workload::CoherenceTrace => coherence_specs(seed),
            Workload::BarrierPaper => barrier_paper_specs(seed),
            Workload::ExtensionsMix => extensions_specs(seed),
        }
    }

    /// Builds the inputs and the engine, then warms up by running one
    /// episode of the workload's cheapest simulations untimed.
    pub fn prepare(self, seed: u64, workers: usize) -> Prepared {
        let prepared = Prepared {
            workload: self,
            seed,
            specs: self.specs(seed),
            engine: Engine::new(ExecConfig::new(workers).with_retries(1)),
        };
        let warm: Vec<&Spec> = match self {
            // Building the coherence specs already ran every app's scheduler.
            Workload::CoherenceTrace => Vec::new(),
            Workload::BarrierPaper | Workload::ExtensionsMix => prepared.specs.iter().collect(),
        };
        for spec in warm {
            std::hint::black_box(spec.sim.run(WARMUP_SEED, Kernel::Event));
        }
        prepared
    }

    /// A JSON description of the fixed configuration, for provenance.
    pub fn config_json(self) -> abs_exec::json::Value {
        use abs_exec::json::Value;
        let text = match self {
            Workload::CoherenceTrace => format!(
                "repro exhibits fig1, table1, table2, snoopy at {COHERENCE_PROCS} procs \
                 (FFT/SIMPLE/WEATHER-like apps, pointer sweep, caching modes), caches start empty"
            ),
            Workload::BarrierPaper => format!(
                "Figures 4-10 grid: N=2..512 x A in {{0,100,1000}} x 5 figure policies, \
                 {PAPER_REPS} reps per point, one job per point"
            ),
            Workload::ExtensionsMix => "combining, resource, single-counter, packet, circuit, \
                 open-loop (see perfbench/src/workloads.rs)"
                .to_string(),
        };
        Value::Str(text)
    }
}

/// A Section-2 exhibit entry point as `repro` calls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Exhibit {
    Fig1,
    Table1,
    Table2,
    Snoopy,
}

impl Exhibit {
    fn run(self, config: &ReproConfig) -> Table {
        use abs_bench::experiments as ex;
        match self {
            Exhibit::Fig1 => ex::fig1(config),
            Exhibit::Table1 => ex::table1(config),
            Exhibit::Table2 => ex::table2(config),
            Exhibit::Snoopy => ex::snoopy(config),
        }
    }

    /// Machine runs (full scheduler passes) the exhibit makes per app.
    fn runs_per_app(self, app: &str) -> u64 {
        match self {
            Exhibit::Fig1 => u64::from(app == "SIMPLE"),
            // Five pointer limits.
            Exhibit::Table1 => 5,
            // Five pointer limits plus the all-shared-uncached machine.
            Exhibit::Table2 => 6,
            // A counting pass, the bus and one directory.
            Exhibit::Snoopy => 3,
        }
    }

    fn rows(self) -> usize {
        match self {
            Exhibit::Fig1 => 12,
            Exhibit::Table1 => 15,
            Exhibit::Table2 => 18,
            Exhibit::Snoopy => 6,
        }
    }
}

/// Simulated work of one simulation: the basis of the simulated rates
/// and per-processor figures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Work {
    /// Simulated cycles.
    pub cycles: f64,
    /// Simulated memory references (network accesses for the barrier and
    /// network models, trace references for the coherence machines).
    pub refs: f64,
    /// Simulated processors.
    pub procs: f64,
    /// Simulated cycles processors spent waiting (barrier wait, acquire
    /// latency, packet/circuit latency); `None` where the result does not
    /// report it.
    pub wait: Option<f64>,
}

/// One simulator configuration.
#[derive(Debug, Clone)]
pub enum Sim {
    /// A Section-2 exhibit, with the simulated work its machines do.
    Exhibit(Exhibit, Work),
    Barrier(BarrierSim),
    Combining(CombiningTreeSim),
    Resource(ResourceSim),
    Single(SingleCounterSim),
    Packet(PacketSim),
    Circuit(CircuitSim),
    OpenLoop(OpenLoopSim),
}

impl Sim {
    /// The crate whose public entry point the call times.
    pub fn layer(&self) -> &'static str {
        match self {
            Sim::Exhibit(..) => "abs-bench",
            Sim::Barrier(_) | Sim::Combining(_) | Sim::Resource(_) | Sim::Single(_) => "abs-core",
            Sim::Packet(_) | Sim::Circuit(_) => "abs-net",
            Sim::OpenLoop(_) => "abs-load",
        }
    }

    fn call_name(&self) -> &'static str {
        match self {
            Sim::Exhibit(Exhibit::Fig1, _) => "experiments::fig1",
            Sim::Exhibit(Exhibit::Table1, _) => "experiments::table1",
            Sim::Exhibit(Exhibit::Table2, _) => "experiments::table2",
            Sim::Exhibit(Exhibit::Snoopy, _) => "experiments::snoopy",
            Sim::Barrier(_) => "BarrierSim::run_with",
            Sim::Combining(_) => "CombiningTreeSim::run_with",
            Sim::Resource(_) => "ResourceSim::run_with",
            Sim::Single(_) => "SingleCounterSim::run_with",
            Sim::Packet(_) => "PacketSim::run_with",
            Sim::Circuit(_) => "CircuitSim::run_with",
            Sim::OpenLoop(_) => "OpenLoopSim::run_with",
        }
    }

    /// Runs one episode.
    pub fn run(&self, seed: u64, kernel: Kernel) -> Outcome {
        match self {
            Sim::Exhibit(exhibit, work) => {
                Outcome::Exhibit(exhibit.run(&repro_config(seed)), *work, *exhibit)
            }
            Sim::Barrier(sim) => Outcome::Barrier(sim.run_with(seed, kernel)),
            Sim::Combining(sim) => Outcome::Combining(sim.run_with(seed, kernel)),
            Sim::Resource(sim) => Outcome::Resource(sim.run_with(seed, kernel)),
            Sim::Single(sim) => Outcome::Single(sim.run_with(seed, kernel)),
            Sim::Packet(sim) => {
                let c = sim.config();
                Outcome::Packet(
                    sim.run_with(seed, kernel),
                    1 << c.log2_size,
                    c.warmup_cycles + c.measure_cycles,
                )
            }
            Sim::Circuit(sim) => {
                let c = sim.config();
                Outcome::Circuit(
                    sim.run_with(seed, kernel),
                    1 << c.log2_size,
                    c.warmup_cycles + c.measure_cycles,
                )
            }
            Sim::OpenLoop(sim) => {
                let c = sim.config();
                Outcome::Load(sim.run_with(seed, kernel), c.procs, c.horizon)
            }
        }
    }
}

/// `repro --quick`'s configuration under the benchmark seed.
fn repro_config(seed: u64) -> ReproConfig {
    ReproConfig {
        seed,
        procs: COHERENCE_PROCS,
        ..ReproConfig::quick()
    }
}

/// One engine job: a simulator configuration and its episode seeds.
#[derive(Debug, Clone)]
pub struct Spec {
    pub name: String,
    pub sim: Sim,
    pub seeds: Vec<u64>,
}

/// The result of one simulation, with the configuration numbers its
/// simulated work needs.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    Exhibit(Table, Work, Exhibit),
    Barrier(BarrierRun),
    Combining(CombiningRun),
    Resource(ResourceRun),
    Single(SingleCounterRun),
    /// Outcome, processors, simulated cycles.
    Packet(PacketOutcome, usize, u64),
    Circuit(CircuitOutcome, usize, u64),
    Load(LoadOutcome, usize, u64),
}

fn sum(values: &[u64]) -> f64 {
    values.iter().map(|&v| v as f64).sum()
}

impl Outcome {
    pub fn work(&self) -> Work {
        match self {
            Outcome::Exhibit(_, work, _) => *work,
            Outcome::Barrier(r) => Work {
                cycles: r.completion() as f64,
                refs: r.total_accesses() as f64,
                procs: r.accesses().len() as f64,
                wait: Some(sum(r.waiting())),
            },
            Outcome::Combining(r) => Work {
                cycles: r.completion() as f64,
                refs: sum(r.accesses()),
                procs: r.accesses().len() as f64,
                wait: Some(sum(r.waiting())),
            },
            Outcome::Resource(r) => Work {
                cycles: r.makespan() as f64,
                refs: sum(r.accesses()),
                procs: r.accesses().len() as f64,
                wait: Some(sum(r.latency())),
            },
            Outcome::Single(r) => Work {
                cycles: r.completion() as f64,
                refs: sum(r.accesses()),
                procs: r.accesses().len() as f64,
                wait: Some(sum(r.waiting())),
            },
            Outcome::Packet(o, procs, cycles) => Work {
                cycles: *cycles as f64,
                refs: o.delivered as f64,
                procs: *procs as f64,
                wait: Some(o.avg_latency * o.delivered as f64),
            },
            Outcome::Circuit(o, procs, cycles) => Work {
                cycles: *cycles as f64,
                refs: o.attempts as f64,
                procs: *procs as f64,
                wait: Some(o.avg_latency * o.completed as f64),
            },
            // Open-loop admission wait is time jobs queue, not time
            // processors wait, and past saturation it grows with the
            // backlog; it is left out of the per-processor wait.
            Outcome::Load(o, procs, horizon) => Work {
                cycles: *horizon as f64,
                refs: o.sync_accesses as f64,
                procs: *procs as f64,
                wait: None,
            },
        }
    }

    /// Structural invariants every result must satisfy at any seed.
    pub fn check(&self) -> Result<(), String> {
        match self {
            Outcome::Exhibit(table, _, exhibit) => ensure(table.len() == exhibit.rows(), || {
                format!(
                    "{exhibit:?} has {} rows, expected {}",
                    table.len(),
                    exhibit.rows()
                )
            }),
            Outcome::Barrier(r) => check_barrier(r),
            Outcome::Combining(r) => ensure(
                r.waiting().len() == r.accesses().len() && r.accesses().iter().all(|&a| a > 0),
                || "combining: a processor made no access".into(),
            ),
            Outcome::Resource(r) => ensure(
                r.latency().len() == r.accesses().len() && r.accesses().iter().all(|&a| a > 0),
                || "resource: a processor never acquired".into(),
            ),
            Outcome::Single(r) => ensure(
                r.waiting().len() == r.accesses().len() && r.accesses().iter().all(|&a| a > 0),
                || "single: a processor made no access".into(),
            ),
            Outcome::Packet(o, ..) => ensure(
                o.delivered == o.hot_delivered + o.background_delivered,
                || format!("packet: delivered {} != hot + background", o.delivered),
            ),
            Outcome::Circuit(o, ..) => ensure(o.completed <= o.attempts, || {
                format!(
                    "circuit: {} completions from {} attempts",
                    o.completed, o.attempts
                )
            }),
            Outcome::Load(o, ..) => ensure(
                o.completed <= o.admitted && o.admitted <= o.arrivals,
                || {
                    format!(
                        "open loop: {} done, {} admitted, {} arrived",
                        o.completed, o.admitted, o.arrivals
                    )
                },
            ),
        }
    }

    /// FNV-1a digest of the complete result.
    pub fn digest(&self) -> u64 {
        digest(self)
    }
}

fn ensure(ok: bool, msg: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(msg())
    }
}

/// The barrier invariants: every processor took part and is done, the
/// access total splits exactly into variable, flag-before and flag-after
/// accesses, and nobody finished before the flag was set.
fn check_barrier(r: &BarrierRun) -> Result<(), String> {
    let n = r.accesses().len();
    ensure(n > 0 && r.waiting().len() == n, || {
        "barrier: result lanes missing".into()
    })?;
    ensure(r.accesses().iter().all(|&a| a > 0), || {
        "barrier: a processor never reached the barrier variable".into()
    })?;
    let parts = (r.mean_var_accesses() + r.mean_flag_before() + r.mean_flag_after()) * n as f64;
    ensure(parts.round() as u64 == r.total_accesses(), || {
        format!(
            "barrier: {} accesses but the parts sum to {parts}",
            r.total_accesses()
        )
    })?;
    ensure(r.completion() >= r.flag_set_at(), || {
        format!(
            "barrier: completion {} before flag set {}",
            r.completion(),
            r.flag_set_at()
        )
    })?;
    let latest = r.waiting().iter().copied().max().unwrap_or(0);
    ensure(latest <= r.completion(), || {
        format!(
            "barrier: a wait of {latest} outlasts completion {}",
            r.completion()
        )
    })
}

struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
        Ok(())
    }
}

/// FNV-1a over a value's `Debug` rendering, which covers every field.
fn digest(value: &impl Debug) -> u64 {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    // `Fnv::write_str` never fails, so neither can the write.
    let _ = write!(h, "{value:?}");
    h.0
}

/// Folds per-simulation digests into one.
pub fn fold_digests(digests: &[u64]) -> u64 {
    digest(&digests)
}

// ---------------------------------------------------------------------------
// Workload definitions.

fn coherence_specs(seed: u64) -> Vec<Spec> {
    // The reference stream does not depend on the memory system it feeds,
    // so one counting pass per app gives every machine's simulated work.
    let per_app: Vec<(String, Work)> = apps::all()
        .into_iter()
        .map(|app| {
            let name = app.name().to_string();
            let (report, counts) = Scheduler::new(app, COHERENCE_PROCS, seed).run_counting();
            let wait: u64 = report
                .episodes
                .iter()
                .flat_map(|e| {
                    e.arrivals
                        .iter()
                        .map(move |&a| e.set_time.saturating_sub(a))
                })
                .sum();
            let work = Work {
                cycles: report.cycles as f64,
                refs: counts.total() as f64,
                procs: COHERENCE_PROCS as f64,
                wait: Some(wait as f64),
            };
            (name, work)
        })
        .collect();
    // Longest exhibits first, so two workers finish together.
    [
        Exhibit::Table2,
        Exhibit::Table1,
        Exhibit::Snoopy,
        Exhibit::Fig1,
    ]
    .into_iter()
    .map(|exhibit| {
        let total = |part: fn(&Work) -> f64| -> f64 {
            per_app
                .iter()
                .map(|(name, w)| exhibit.runs_per_app(name) as f64 * part(w))
                .sum()
        };
        let work = Work {
            cycles: total(|w| w.cycles),
            refs: total(|w| w.refs),
            procs: total(|w| w.procs),
            wait: Some(total(|w| w.wait.unwrap_or(0.0))),
        };
        Spec {
            name: format!("{exhibit:?}"),
            sim: Sim::Exhibit(exhibit, work),
            seeds: vec![seed],
        }
    })
    .collect()
}

fn barrier_paper_specs(seed: u64) -> Vec<Spec> {
    // Every point sees the same repetition seeds, as `repro` passes its
    // master seed to every sweep point.
    let seeds = Repetitions::new(PAPER_REPS, seed).seeds();
    let mut specs = Vec::new();
    for a in [0u64, 100, 1000] {
        for n in power_of_two_counts(512) {
            for policy in BackoffPolicy::figure_policies() {
                specs.push(Spec {
                    name: format!("barrier n={n} a={a} {}", policy.label()),
                    sim: Sim::Barrier(BarrierSim::new(BarrierConfig::new(n, a), policy)),
                    seeds: seeds.clone(),
                });
            }
        }
    }
    specs
}

/// The open-loop tenant population: three sources (Poisson, bursty,
/// diurnal) with descending weights, as the `loadsweep` exhibit builds it.
fn tenants(load: f64) -> Vec<Tenant> {
    (0..3u64)
        .map(|t| {
            let gap = 60.0 + 25.0 * t as f64;
            let arrival = match t {
                0 => Arrival::poisson(gap),
                1 => Arrival::bursty(6.0, gap / 8.0, 3.0 * gap),
                _ => Arrival::diurnal(4_096, vec![gap, gap / 2.0, 2.0 * gap]),
            };
            Tenant {
                weight: 3 - t,
                arrival: arrival.scaled(load),
                op_mix: if t % 2 == 0 { OpMix::EVEN } else { OpMix::FAA },
                work: 3 + 2 * t,
            }
        })
        .collect()
}

/// The hot-spot packet network of the kernel-speedup points.
pub fn hot_packet(policy: NetworkBackoff) -> PacketSim {
    PacketSim::new(
        PacketConfig {
            log2_size: 5,
            queue_capacity: 4,
            injection_rate: 0.4,
            hot_fraction: 0.5,
            warmup_cycles: 500,
            measure_cycles: 5_000,
            memory_service_cycles: 2,
            max_outstanding: 1,
        },
        policy,
    )
}

/// The saturated hot-spot circuit network of the kernel-speedup points.
pub fn hot_circuit(policy: NetworkBackoff) -> CircuitSim {
    CircuitSim::new(
        CircuitConfig {
            log2_size: 5,
            hold_cycles: 8,
            request_rate: 0.95,
            hot_fraction: 0.8,
            warmup_cycles: 500,
            measure_cycles: 5_000,
        },
        policy,
    )
}

/// An open-loop machine at `load` times the base rate.
pub fn open_loop(load: f64, sched: SchedKind) -> OpenLoopSim {
    OpenLoopSim::new(
        LoadConfig {
            procs: 16,
            horizon: 8_000,
            sched,
            backoff: BackoffPolicy::exponential(2),
            ..LoadConfig::default()
        },
        tenants(load),
    )
}

const NET_POLICIES: [NetworkBackoff; 3] = [
    NetworkBackoff::None,
    NetworkBackoff::ExponentialRetries { base: 4, cap: 4096 },
    NetworkBackoff::QueueFeedback { factor: 8 },
];

/// Unlike the paper grid, each configuration draws its own seed stream:
/// with common seeds the few long episodes of a batch would vary
/// together instead of averaging out.
///
/// Episode times come in tiers: single-counter and resource ~10-70 µs,
/// combining and open loop ~0.3-1.3 ms, packet and the dense circuit
/// 2-15 ms. The repetition counts put `episode_ms_p50` inside the first
/// tier and `episode_ms_p90` mid-way through the second, never on the
/// boundary between two.
fn extensions_specs(seed: u64) -> Vec<Spec> {
    let mut specs = Vec::new();
    let mut push = |name: String, sim: Sim, reps: u32| {
        let stream = derive_seed(seed, specs.len() as u64);
        specs.push(Spec {
            name,
            sim,
            seeds: Repetitions::new(reps, stream).seeds(),
        })
    };
    for n in [512usize, 256] {
        for degree in [8usize, 4] {
            for policy in [BackoffPolicy::None, BackoffPolicy::exponential(2)] {
                let sim = CombiningTreeSim::new(CombiningConfig::new(n, 100, degree), policy);
                push(
                    format!("combining n={n} d={degree} {}", policy.label()),
                    Sim::Combining(sim),
                    8,
                );
            }
        }
    }
    for policy in NET_POLICIES {
        push(
            format!("packet {}", policy.label()),
            Sim::Packet(hot_packet(policy)),
            4,
        );
    }
    for load in [4.0, 1.0] {
        for sched in [SchedKind::RoundRobin, SchedKind::Cfs] {
            push(
                format!("openloop load={load} {}", sched.label()),
                Sim::OpenLoop(open_loop(load, sched)),
                10,
            );
        }
    }
    for policy in NET_POLICIES {
        push(
            format!("circuit {}", policy.label()),
            Sim::Circuit(hot_circuit(policy)),
            2,
        );
    }
    for policy in [BackoffPolicy::None, BackoffPolicy::exponential(2)] {
        let sim = SingleCounterSim::new(BarrierConfig::new(64, 0), policy);
        push(
            format!("single n=64 {}", policy.label()),
            Sim::Single(sim),
            140,
        );
    }
    for policy in [
        ResourcePolicy::None,
        ResourcePolicy::ProportionalWaiters { hold_estimate: 100 },
    ] {
        let sim = ResourceSim::new(ResourceConfig::new(32, 0, 100), policy);
        push(
            format!("resource n=32 hold=100 {}", policy.label()),
            Sim::Resource(sim),
            140,
        );
    }
    specs
}

// ---------------------------------------------------------------------------
// Running a batch.

/// One timed simulation.
#[derive(Debug, Clone)]
pub struct Episode {
    /// Host milliseconds of the simulator call.
    pub ms: f64,
    pub outcome: Outcome,
}

/// Engine counters of one batch, read from the `RunReport`.
#[derive(Debug, Clone, Default)]
pub struct ExecSample {
    pub queue_wait_ms: Vec<f64>,
    pub job_wall_s: f64,
    pub engine_wall_s: f64,
    pub workers: usize,
    pub retries: u64,
    pub failed_jobs: u64,
}

/// Everything one batch produced.
#[derive(Debug)]
pub struct BatchRun {
    /// Per spec: its episodes, or why the job failed.
    pub jobs: Vec<Result<Vec<Episode>, String>>,
    pub exec: ExecSample,
}

/// A workload ready to run: its inputs and engine.
pub struct Prepared {
    pub workload: Workload,
    pub seed: u64,
    pub specs: Vec<Spec>,
    pub engine: Engine,
}

impl Prepared {
    /// Simulations per batch.
    pub fn simulations(&self) -> usize {
        self.specs.iter().map(|s| s.seeds.len()).sum()
    }

    pub fn workers(&self) -> usize {
        self.engine.config().workers
    }

    /// Runs one batch. With a log, every layer call is recorded as a span
    /// under `parent`: engine run, then job, then simulator call.
    pub fn run_batch(&self, log: Option<&SpanLog>, parent: u64) -> BatchRun {
        let report = span(
            log,
            parent,
            0,
            "abs-exec",
            || "Engine::run".into(),
            |engine_span| {
                let mut set = JobSet::new(self.seed);
                for (i, spec) in self.specs.iter().enumerate() {
                    let job = i as u64 + 1;
                    set.push_seeded(spec.name.clone(), self.seed, move |_| {
                        span(
                            log,
                            engine_span,
                            job,
                            "abs-exec",
                            || format!("job {}", spec.name),
                            |job_span| run_spec(spec, log, job_span, job),
                        )
                    });
                }
                self.engine.run(set)
            },
        );
        let exec = ExecSample {
            queue_wait_ms: report
                .outcomes
                .iter()
                .map(|o| o.stats.queue_wait.as_secs_f64() * 1e3)
                .collect(),
            job_wall_s: report
                .outcomes
                .iter()
                .map(|o| o.stats.wall.as_secs_f64())
                .sum(),
            engine_wall_s: report.elapsed.as_secs_f64(),
            workers: report.workers.len(),
            retries: report
                .outcomes
                .iter()
                .map(|o| u64::from(o.stats.attempts.saturating_sub(1)))
                .sum(),
            failed_jobs: report.failed().len() as u64,
        };
        let jobs = report
            .outcomes
            .into_iter()
            .map(|o| o.result.map_err(|f| format!("job {} failed: {f}", o.name)))
            .collect();
        BatchRun { jobs, exec }
    }
}

fn run_spec(spec: &Spec, log: Option<&SpanLog>, parent: u64, job: u64) -> Vec<Episode> {
    spec.seeds
        .iter()
        .map(|&seed| {
            let start = Instant::now();
            let outcome = span(
                log,
                parent,
                job,
                spec.sim.layer(),
                || spec.sim.call_name().into(),
                |_| spec.sim.run(seed, Kernel::Event),
            );
            Episode {
                ms: start.elapsed().as_secs_f64() * 1e3,
                outcome,
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Checking a batch.

/// What the checks found in one batch, with the per-simulation figures
/// the metrics need.
#[derive(Debug, Clone, Default)]
pub struct Inspection {
    pub attempted: u64,
    pub failed: u64,
    pub digests: Vec<u64>,
    pub episode_ms: Vec<f64>,
    pub works: Vec<Work>,
    pub problems: Vec<String>,
}

impl Prepared {
    /// Checks every result of `batch` against the invariants and, when a
    /// `reference` is given, against the first batch's digests (the
    /// simulators are deterministic, so every batch must reproduce them).
    pub fn inspect(&self, batch: &BatchRun, reference: Option<&[u64]>) -> Inspection {
        let mut out = Inspection::default();
        let record = |out: &mut Inspection, episode: Option<&Episode>| {
            let index = out.digests.len();
            out.attempted += 1;
            let Some(ep) = episode else {
                out.failed += 1;
                out.digests.push(0);
                return;
            };
            let digest = ep.outcome.digest();
            let verdict = ep.outcome.check().and_then(|()| match reference {
                Some(r) if r.get(index) != Some(&digest) => {
                    Err("result differs from the first batch's".to_string())
                }
                _ => Ok(()),
            });
            if let Err(problem) = verdict {
                out.failed += 1;
                out.problems.push(problem);
            }
            out.digests.push(digest);
            out.episode_ms.push(ep.ms);
            out.works.push(ep.outcome.work());
        };
        for (spec, job) in self.specs.iter().zip(&batch.jobs) {
            match job {
                Ok(episodes) => episodes.iter().for_each(|ep| record(&mut out, Some(ep))),
                Err(problem) => {
                    out.problems.push(problem.clone());
                    spec.seeds.iter().for_each(|_| record(&mut out, None));
                }
            }
        }
        out
    }

    /// The expensive checks, run on one batch outside the measured region:
    /// the cycle-stepping oracle on the first repetition of every
    /// `barrier_paper` and `extensions_mix` configuration, and the
    /// record-then-replay check on `coherence_trace`. Returns the number of
    /// wrong results and what was wrong.
    pub fn deep_check(&self, batch: &BatchRun) -> (u64, Vec<String>) {
        let mut problems = Vec::new();
        for (spec, job) in self.specs.iter().zip(&batch.jobs) {
            let Ok(episodes) = job else { continue };
            let Some(first) = episodes.first() else {
                continue;
            };
            let verdict = match self.workload {
                Workload::BarrierPaper | Workload::ExtensionsMix => {
                    let reference = spec.sim.run(spec.seeds[0], Kernel::Cycle);
                    ensure(reference == first.outcome, || {
                        format!("{}: event kernel differs from the cycle oracle", spec.name)
                    })
                }
                Workload::CoherenceTrace => self.replay_check(first),
            };
            if let Err(problem) = verdict {
                problems.push(problem);
            }
        }
        (problems.len() as u64, problems)
    }

    /// On `coherence_trace`: each app's trace, recorded and replayed into
    /// a fresh Dir_2 NB machine, must give the direct run's statistics, and
    /// the direct run must match Table 1's Dir_2 row. Charged to Table 1.
    fn replay_check(&self, ep: &Episode) -> Result<(), String> {
        let Outcome::Exhibit(table, _, Exhibit::Table1) = &ep.outcome else {
            return Ok(());
        };
        let rendered = table.to_string();
        let seed = self.seed;
        let mut set = JobSet::new(seed);
        for app in apps::all() {
            let rendered = &rendered;
            set.push(app.name().to_string(), move |_| {
                replay_matches(&app, seed, rendered)
            });
        }
        let report = self.engine.run(set);
        let problems: Vec<String> = report
            .outcomes
            .into_iter()
            .filter_map(|o| match o.result {
                Ok(Ok(())) => None,
                Ok(Err(problem)) => Some(problem),
                Err(f) => Some(format!("replay check {} failed: {f}", o.name)),
            })
            .collect();
        ensure(problems.is_empty(), || problems.join("; "))
    }
}

fn dir2_machine() -> DirectorySystem {
    DirectorySystem::new(
        COHERENCE_PROCS,
        CacheGeometry::paper(),
        PointerLimit::Limited(2),
        SyncCaching::Cached,
    )
}

fn replay_matches(app: &SpmdApp, seed: u64, table1: &str) -> Result<(), String> {
    let scheduler = Scheduler::new(app.clone(), COHERENCE_PROCS, seed);
    let mut direct = dir2_machine();
    scheduler.run(&mut direct);
    let mut recorder = TraceRecorder::new();
    scheduler.run(&mut recorder);
    let mut replayed = dir2_machine();
    recorder.into_trace().replay(&mut replayed);
    ensure(direct.stats() == replayed.stats(), || {
        format!(
            "{}: record-then-replay differs from the direct run",
            app.name()
        )
    })?;
    let expected = [
        app.name().to_string(),
        PointerLimit::Limited(2).label(COHERENCE_PROCS),
        fmt_f64(direct.stats().pct_nonsync_invalidating(), 1),
        fmt_f64(direct.stats().pct_sync_invalidating(), 1),
    ];
    let found = table1.lines().any(|line| {
        line.split_whitespace()
            .eq(expected.iter().map(String::as_str))
    });
    ensure(found, || {
        format!(
            "{}: Table 1's Dir_2 row disagrees with a direct run",
            app.name()
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_new_seed_changes_the_inputs_not_their_shape() {
        for w in [Workload::BarrierPaper, Workload::ExtensionsMix] {
            let (a, b) = (w.specs(1), w.specs(2));
            assert_eq!(a.len(), b.len());
            for (x, y) in a.iter().zip(&b) {
                assert_eq!(x.name, y.name);
                assert_eq!(x.seeds.len(), y.seeds.len());
                assert_ne!(x.seeds, y.seeds, "{}", x.name);
            }
        }
    }

    #[test]
    fn a_corrupted_result_is_counted_as_failed() {
        let spec = Spec {
            name: "barrier n=64".into(),
            sim: Sim::Barrier(BarrierSim::new(
                BarrierConfig::new(64, 100),
                BackoffPolicy::None,
            )),
            seeds: vec![3, 4],
        };
        let prepared = Prepared {
            workload: Workload::BarrierPaper,
            seed: 1,
            specs: vec![spec.clone()],
            engine: Engine::single_threaded(),
        };
        let batch = prepared.run_batch(None, 0);
        let clean = prepared.inspect(&batch, None);
        assert_eq!(
            (clean.attempted, clean.failed),
            (2, 0),
            "{:?}",
            clean.problems
        );
        assert_eq!(prepared.deep_check(&batch).0, 0);

        // Swap in another seed's result: the invariants still hold, but
        // the oracle re-run of the episode's own seed disagrees...
        let mut corrupted = batch;
        let other = spec.sim.run(99, Kernel::Event);
        corrupted.jobs[0].as_mut().expect("job ran")[0].outcome = other;
        assert_eq!(prepared.deep_check(&corrupted).0, 1);
        // ...and a batch that differs from the first is caught by digest.
        let drifted = prepared.inspect(&corrupted, Some(&clean.digests));
        assert_eq!((drifted.attempted, drifted.failed), (2, 1));

        // A broken invariant is caught on any batch, without the oracle.
        let packet = Sim::Packet(hot_packet(NetworkBackoff::None));
        let Outcome::Packet(mut out, procs, cycles) = packet.run(3, Kernel::Event) else {
            unreachable!("a packet spec yields a packet outcome")
        };
        out.delivered += 1;
        let broken = BatchRun {
            jobs: vec![Ok(vec![Episode {
                ms: 1.0,
                outcome: Outcome::Packet(out, procs, cycles),
            }])],
            exec: ExecSample::default(),
        };
        assert_eq!(prepared.inspect(&broken, None).failed, 1);
    }

    #[test]
    fn barrier_invariants_hold_for_every_figure_policy() {
        for policy in BackoffPolicy::figure_policies() {
            for a in [0, 1000] {
                let run = BarrierSim::new(BarrierConfig::new(128, a), policy).run(5);
                assert_eq!(check_barrier(&run), Ok(()), "{}", policy.label());
            }
        }
    }
}
