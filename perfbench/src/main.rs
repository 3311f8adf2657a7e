//! `perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <coherence_trace|barrier_paper|extensions_mix> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! With `--trace 0` it sets the workload up nine times, then runs whole
//! batches until `--seconds` of batch time is measured, checks every
//! result and prints the end-to-end metrics. With `--trace 1` it alternates
//! untraced and span-traced batches, runs the per-layer probes, writes the
//! spans as a Chrome trace and prints the per-layer metrics, the self-time
//! table and the tracing overhead. The last line of standard output is
//! always one JSON object: `correct`, `attempted`, `failed`, `metrics`.

mod host;
mod probes;
mod spans;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use abs_exec::json::Value;
use abs_sim::stats::{median, quantile};

use spans::SpanLog;
use workloads::{Exhibit, Inspection, Prepared, Sim, Work, Workload, DEFAULT_SEED};

/// End-to-end metrics: name and unit, in print order. `BENCHMARK.json`
/// must list the same (a unit test checks).
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_cycles_per_s", "1/s"),
    ("sim_refs_per_s", "1/s"),
    ("episode_ms_p50", "ms"),
    ("episode_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("sim_accesses_per_proc", "count"),
    ("sim_wait_cycles_per_proc", "cycles"),
];

/// Per-layer metrics: name and unit, in print order.
pub const PER_LAYER: [(&str, &str); 34] = [
    ("coherence.directory.ns_per_ref", "ns"),
    ("coherence.snoopy.ns_per_ref", "ns"),
    ("coherence.invalidations_per_kref", "count"),
    ("trace.scheduler.ns_per_ref", "ns"),
    ("net.pending.churn_ns.k64", "ns"),
    ("net.pending.churn_ns.k512", "ns"),
    ("net.pending.churn_ns.k4096", "ns"),
    ("net.pending.churn_ns.k65536", "ns"),
    ("net.pending.churn_ns.k1048576", "ns"),
    ("net.packet.episode_ms", "ms"),
    ("net.circuit.episode_ms", "ms"),
    ("sim.wheel.ns_per_event.near", "ns"),
    ("sim.wheel.ns_per_event.far", "ns"),
    ("sim.rng.arrivals_ns_per_proc", "ns"),
    ("core.barrier.ns_per_sim_cycle.small", "ns"),
    ("core.barrier.episode_ms.n65536", "ms"),
    ("core.barrier.episode_ms.n262144", "ms"),
    ("core.barrier.episode_ms.n1048576", "ms"),
    ("core.barrier.ns_per_sim_cycle.mega", "ns"),
    ("core.sharded.shard_ms_p50", "ms"),
    ("core.sharded.merge_ms", "ms"),
    ("core.combining.episode_ms", "ms"),
    ("core.resource.episode_ms", "ms"),
    ("core.single.episode_ms", "ms"),
    ("load.stream.ns_per_job", "ns"),
    ("load.engine.ns_per_job", "ns"),
    ("exec.queue_wait_ms_p50", "ms"),
    ("exec.queue_wait_ms_p90", "ms"),
    ("exec.utilization", "ratio"),
    ("exec.retries", "count"),
    ("exec.failed_jobs", "count"),
    ("obs.ring_overhead_ratio.n512", "ratio"),
    ("obs.ring_overhead_ratio.n65536", "ratio"),
    ("bench.tracing_overhead_s", "s"),
];

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 9;

/// Largest |ratio - 1| at which the coherence layers are taken to account
/// for the direct run.
const CONSERVATION_TOLERANCE: f64 = 0.10;

const USAGE: &str = "usage: perfbench --workload <coherence_trace|barrier_paper|extensions_mix> \
                     [--seed N] [--seconds N] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 15.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value:?}"))?,
                )
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = value
                    .parse::<u32>()
                    .ok()
                    .filter(|&s| s > 0)
                    .map(f64::from)
                    .ok_or_else(|| format!("bad seconds {value:?}"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

fn secs(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// The checked totals of a run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    reference: Option<Vec<u64>>,
    works: Vec<Work>,
    episode_ms: Vec<f64>,
    /// Per simulation: simulated (cycles, references) per host second.
    rates: Vec<(f64, f64)>,
    batches: u64,
}

impl Tally {
    fn add(&mut self, inspection: Inspection) {
        self.attempted += inspection.attempted;
        self.failed += inspection.failed;
        self.problems.extend(inspection.problems);
        for (work, ms) in inspection.works.iter().zip(&inspection.episode_ms) {
            let seconds = ms / 1e3;
            self.rates
                .push((work.cycles / seconds, work.refs / seconds));
        }
        self.episode_ms.extend(inspection.episode_ms);
        self.batches += 1;
        if self.reference.is_none() {
            self.reference = Some(inspection.digests);
            self.works = inspection.works;
        }
    }

    /// Oracle and replay checks on the final batch, after the measured
    /// region. Every batch reproduced the first batch's digests (or was
    /// already counted), so a wrong result here was wrong in every batch.
    fn deep_check(&mut self, prepared: &Prepared, last: &workloads::BatchRun) {
        let (failed, problems) = prepared.deep_check(last);
        self.failed = (self.failed + failed * self.batches).min(self.attempted);
        self.problems.extend(problems);
    }

    /// Pins the first batch at the default seed.
    fn pin(&mut self, workload: Workload, seed: u64) {
        let Some(reference) = &self.reference else {
            return;
        };
        let found = workloads::fold_digests(reference);
        println!(
            "digest {found:#018x} (pinned at seed {DEFAULT_SEED:#x}: {:#018x})",
            workload.pinned_digest()
        );
        if seed == DEFAULT_SEED && found != workload.pinned_digest() {
            self.failed = self.attempted;
            self.problems.push(format!(
                "results at the default seed digest to {found:#018x}, pinned {:#018x}",
                workload.pinned_digest()
            ));
        }
    }

    /// Mean of per-simulation ratios, over the simulations that report
    /// the numerator.
    fn per_proc(&self, numerator: impl Fn(&Work) -> Option<f64>) -> f64 {
        let values: Vec<f64> = self
            .works
            .iter()
            .filter_map(|w| numerator(w).map(|x| x / w.procs))
            .collect();
        values.iter().sum::<f64>() / values.len().max(1) as f64
    }
}

/// The measured run: end-to-end metrics with tracing off.
fn measure(
    prepared: &Prepared,
    seconds: f64,
    setups: &[f64],
    tally: &mut Tally,
) -> Vec<(&'static str, f64, String)> {
    let (mut walls, mut cpu) = (Vec::new(), 0.0);
    let last = loop {
        let cpu_start = host::cpu_seconds();
        let start = Instant::now();
        let batch = prepared.run_batch(None, 0);
        walls.push(secs(start));
        cpu += host::cpu_seconds() - cpu_start;
        tally.add(prepared.inspect(&batch, tally.reference.as_deref()));
        if walls.iter().sum::<f64>() >= seconds {
            break batch;
        }
    };
    let rss = host::peak_rss_mb();
    tally.deep_check(prepared, &last);
    drop(last);

    let wall = median(&walls);
    let n = tally.episode_ms.len();
    // Rates are taken per simulation, then averaged: a batch total would
    // be dominated by its few heaviest episodes.
    let mean_rate = |pick: fn(&(f64, f64)) -> f64| {
        tally.rates.iter().map(pick).sum::<f64>() / tally.rates.len().max(1) as f64
    };
    vec![
        ("setup_s", median(setups), format!("median of {setups:.4?}")),
        ("wall_s", wall, format!("median of {} batches", walls.len())),
        (
            "cpu_s",
            cpu / walls.len() as f64,
            "user+sys per batch, mean".into(),
        ),
        (
            "sim_cycles_per_s",
            mean_rate(|r| r.0),
            format!("mean over {n} simulations"),
        ),
        (
            "sim_refs_per_s",
            mean_rate(|r| r.1),
            format!("mean over {n} simulations"),
        ),
        (
            "episode_ms_p50",
            quantile(&tally.episode_ms, 0.5),
            format!("n={n}"),
        ),
        (
            "episode_ms_p90",
            quantile(&tally.episode_ms, 0.9),
            format!("n={n}{}", if n < 100 { " (< 100)" } else { "" }),
        ),
        (
            "peak_rss_mb",
            rss,
            "VmHWM after the measured batches".into(),
        ),
        (
            "sim_accesses_per_proc",
            tally.per_proc(|w| Some(w.refs)),
            "simulated, exact per seed".into(),
        ),
        (
            "sim_wait_cycles_per_proc",
            tally.per_proc(|w| w.wait),
            "simulated, exact per seed".into(),
        ),
    ]
}

/// The traced run: untraced and traced batches alternate (the difference
/// is the tracing overhead), then the per-layer probes.
fn traced(
    prepared: &Prepared,
    seconds: f64,
    tally: &mut Tally,
    out_dir: &Path,
) -> Vec<(&'static str, f64, String)> {
    let name = prepared.workload.name();
    let log = SpanLog::new();
    let mut workload_root = 0;
    let (mut plain, mut spanned, mut samples) = (Vec::new(), Vec::new(), Vec::new());
    let started = Instant::now();
    let last = loop {
        let start = Instant::now();
        let batch = prepared.run_batch(None, 0);
        plain.push(secs(start));
        samples.push(batch.exec.clone());
        tally.add(prepared.inspect(&batch, tally.reference.as_deref()));
        drop(batch);

        // Only the first traced batch's spans are kept; later ones record
        // into a scratch log so every traced batch pays the same cost.
        let scratch = SpanLog::new();
        let keep = if spanned.is_empty() { &log } else { &scratch };
        let start = Instant::now();
        let (batch, root) = keep.time(0, 0, "perfbench", format!("workload {name}"), |root| {
            (prepared.run_batch(Some(keep), root), root)
        });
        spanned.push(secs(start));
        if workload_root == 0 {
            workload_root = root;
        }
        tally.add(prepared.inspect(&batch, tally.reference.as_deref()));
        if secs(started) >= seconds {
            break batch;
        }
    };
    tally.deep_check(prepared, &last);
    drop(last);

    let (mut readings, coherence, probes_root) = log.time(0, 0, "perfbench", "probes", |root| {
        let (readings, coherence) = probes::run_all(prepared.seed, &log, root);
        (readings, coherence, root)
    });
    readings.extend(probes::exec(&samples));
    let overhead = median(&spanned) - median(&plain);
    readings.push(("bench.tracing_overhead_s", overhead));

    let spans = log.spans();
    let trace = spans::chrome(&spans).to_value();
    if let Err(e) = abs_obs::validate(&trace) {
        tally
            .problems
            .push(format!("span trace does not validate: {e}"));
    }
    let path = out_dir.join(format!("trace-{name}-{}.json", prepared.seed));
    match std::fs::write(&path, trace.render()) {
        Ok(()) => println!("spans: {} written to {}", spans.len(), path.display()),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }

    for (title, root) in [
        ("first traced batch", workload_root),
        ("per-layer probes", probes_root),
    ] {
        println!("self time by layer, {title}:");
        let table = spans::self_time_by_layer(&spans::subtree(&spans, root));
        let total: f64 = table.values().map(|(_, us)| us).sum();
        for (layer, (count, us)) in &table {
            println!(
                "  {layer:<14} {count:>7} spans {:>12.3} ms {:>6.1} %",
                us / 1e3,
                100.0 * us / total
            );
        }
    }
    println!(
        "tracing overhead: {overhead:.6} s per batch (traced {:.6} s vs untraced {:.6} s, medians of {})",
        median(&spanned),
        median(&plain),
        plain.len()
    );
    println!(
        "conservation (SIMPLE@16, Dir_N NB): scheduler {:.4} s + replay {:.4} s vs direct {:.4} s: ratio {:.3} {}",
        coherence.scheduler_s,
        coherence.replay_s,
        coherence.direct_s,
        coherence.conservation_ratio(),
        if (coherence.conservation_ratio() - 1.0).abs() <= CONSERVATION_TOLERANCE {
            "(accounted for)"
        } else {
            "(MISS: the parts do not account for the direct run)"
        }
    );
    if prepared.workload == Workload::CoherenceTrace {
        // Every machine run feeds its references through the scheduler and
        // into one consumer: a directory, the snoopy bus, or (snoopy's
        // counting pass) nothing else. Weighted by the probes' per-reference
        // costs, this gives the directory's share of the batch.
        let (mut directory, mut bus, mut all) = (0.0, 0.0, 0.0);
        for spec in &prepared.specs {
            if let Sim::Exhibit(exhibit, work) = &spec.sim {
                all += work.refs;
                match exhibit {
                    Exhibit::Snoopy => {
                        directory += work.refs / 3.0;
                        bus += work.refs / 3.0;
                    }
                    _ => directory += work.refs,
                }
            }
        }
        let directory_ns = directory * coherence.directory_ns_per_ref;
        let total_ns =
            directory_ns + bus * coherence.snoopy_ns_per_ref + all * coherence.scheduler_ns_per_ref;
        println!(
            "directory share of coherence_trace: {:.1} % ({directory} of {all} references go to a directory; \
             weighted by the probes' single-thread cost per reference)",
            100.0 * directory_ns / total_ns
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, _)| {
            let value = readings
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(f64::NAN, |(_, v)| *v);
            (name, value, String::new())
        })
        .collect()
}

fn metrics_json(metrics: &[(&'static str, f64, String)], units: &[(&str, &str)]) -> Value {
    Value::Obj(
        metrics
            .iter()
            .map(|(name, value, _)| {
                let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
                (
                    (*name).to_string(),
                    Value::Obj(vec![
                        ("value".into(), Value::Num(*value)),
                        ("unit".into(), Value::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let out_dir: PathBuf = root.join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("perfbench: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(1);
    }
    let workers = abs_exec::engine::available_parallelism();

    let mut setups = Vec::new();
    let mut set_up = || {
        let start = Instant::now();
        let prepared = args.workload.prepare(args.seed, workers);
        setups.push(secs(start));
        prepared
    };
    let mut prepared = set_up();
    for _ in 1..SETUP_REPEATS {
        prepared = set_up();
    }
    let provenance = host::provenance(
        args.workload.name(),
        args.seed,
        prepared.workers(),
        args.workload.config_json(),
        &root.join(".."),
    );
    println!(
        "perfbench {} seed={} trace={} workers={} simulations/batch={}",
        args.workload.name(),
        args.seed,
        u8::from(args.trace),
        prepared.workers(),
        prepared.simulations()
    );
    println!("provenance {}", provenance.render());

    let mut tally = Tally::default();
    let (metrics, units): (_, Vec<(&str, &str)>) = if args.trace {
        (
            traced(&prepared, args.seconds, &mut tally, &out_dir),
            PER_LAYER.to_vec(),
        )
    } else {
        (
            measure(&prepared, args.seconds, &setups, &mut tally),
            END_TO_END.to_vec(),
        )
    };
    tally.pin(args.workload, args.seed);

    for (name, value, note) in &metrics {
        let unit = units.iter().find(|(n, _)| n == name).map_or("", |(_, u)| u);
        println!("  {name:<38} {value:>18.6} {unit:<7} {note}");
    }
    println!(
        "  failed_frac {}/{} = {}",
        tally.failed,
        tally.attempted,
        tally.failed as f64 / tally.attempted.max(1) as f64
    );
    for problem in tally.problems.iter().take(20) {
        println!("  problem: {problem}");
    }

    let correct = tally.failed == 0
        && tally.problems.is_empty()
        && metrics.iter().all(|(_, v, _)| v.is_finite());
    let result = Value::Obj(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::Num(tally.attempted as f64)),
        ("failed".into(), Value::Num(tally.failed as f64)),
        ("metrics".into(), metrics_json(&metrics, &units)),
    ]);
    let record = Value::Obj(vec![
        ("provenance".into(), provenance),
        ("batches".into(), Value::Num(tally.batches as f64)),
        (
            "problems".into(),
            Value::Arr(tally.problems.iter().cloned().map(Value::Str).collect()),
        ),
        ("result".into(), result.clone()),
    ]);
    let path = out_dir.join(format!(
        "result-{}-{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    ));
    if let Err(e) = std::fs::write(&path, record.render_pretty()) {
        println!("could not write {}: {e}", path.display());
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric names and units printed are the ones `BENCHMARK.json`
    /// declares, in both sections.
    #[test]
    fn printed_metrics_match_benchmark_json() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
        let doc = Value::parse(&text).expect("BENCHMARK.json parses");
        let section = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Value::as_array)
                .expect("metric section")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(Value::as_str)
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let owned = |v: Vec<(&str, &str)>| -> Vec<(String, String)> {
            v.into_iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), owned(END_TO_END.to_vec()));
        assert_eq!(section("per_layer"), owned(PER_LAYER.to_vec()));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Value::as_array)
            .expect("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    /// A new seed changes the inputs (see the `workloads` tests) but not
    /// the metric set, and no end-to-end metric reads 0.
    #[test]
    fn every_seed_prints_every_end_to_end_metric() {
        for seed in [1, 2] {
            let prepared = Workload::ExtensionsMix.prepare(seed, 1);
            let metrics = measure(&prepared, 0.0, &[0.01], &mut Tally::default());
            let names: Vec<&str> = metrics.iter().map(|m| m.0).collect();
            assert_eq!(names, END_TO_END.map(|m| m.0));
            assert!(
                metrics.iter().all(|m| m.1.is_finite() && m.1 > 0.0),
                "{metrics:?}"
            );
        }
    }

    #[test]
    fn arguments_are_checked() {
        let parse =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let args = parse("--workload barrier_paper --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(
            (args.workload, args.seed, args.seconds, args.trace),
            (Workload::BarrierPaper, 7, 3.0, true)
        );
        assert!(parse("--seed 7").is_err());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload barrier_paper --seconds 0").is_err());
        assert!(parse("--workload barrier_paper --trace 2").is_err());
        assert!(parse("--workload barrier_paper --seed").is_err());
    }
}
