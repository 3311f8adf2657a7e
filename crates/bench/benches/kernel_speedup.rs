//! Cycle stepper vs event-driven kernel wall time, per sweep point.
//!
//! Measures one simulator episode (barrier, combining tree, resource,
//! packet or circuit network) per iteration under each kernel
//! and emits, besides the standard `bench_kernel.{json,csv}` reports, a
//! machine-readable speedup table `repro_out/bench_kernel_speedup.json`
//! (`ABS_BENCH_OUT` overrides the directory) — one row per sweep point
//! with the median and MAD ns per episode under each kernel and the
//! ratio. CI uploads this file, `repro sentinel` compares it against the
//! committed baseline under `repro_out/baselines/`, and EXPERIMENTS.md
//! cites it.
//!
//! The two kernels are bit-identical (enforced by the `kernel_equivalence`
//! suite), so every row is the same computation twice — the ratio is pure
//! kernel overhead.
//!
//! A **mega-N** section rides on the same table (the top-level
//! `event_only` array): barrier episodes at `N` where the cycle stepper is
//! intractable, timed under the event kernel alone. The sentinel ignores
//! this array (its points have no cycle column); the `N = 2²⁰` point only
//! runs with `ABS_BENCH_MEGA=1`.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use abs_bench::harness::Bench;
use abs_core::{
    BackoffPolicy, BarrierConfig, BarrierSim, CombiningConfig, CombiningTreeSim, Kernel,
    ResourceConfig, ResourcePolicy, ResourceSim,
};
use abs_net::{CircuitConfig, CircuitSim, NetworkBackoff, PacketConfig, PacketSim};

/// One benchmarked sweep point: a named episode closure per kernel.
struct Point {
    name: &'static str,
    run: Box<dyn Fn(Kernel)>,
}

fn barrier_point(name: &'static str, n: usize, a: u64, policy: BackoffPolicy) -> Point {
    let sim = BarrierSim::new(BarrierConfig::new(n, a), policy);
    Point {
        name,
        run: Box::new(move |kernel| {
            std::hint::black_box(sim.run_with(0xBE7C, kernel));
        }),
    }
}

fn packet_point(name: &'static str, policy: NetworkBackoff) -> Point {
    let sim = PacketSim::new(
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
    );
    Point {
        name,
        run: Box::new(move |kernel| {
            std::hint::black_box(sim.run_with(0xBE7C, kernel));
        }),
    }
}

fn combining_point(
    name: &'static str,
    n: usize,
    a: u64,
    degree: usize,
    policy: BackoffPolicy,
) -> Point {
    let sim = CombiningTreeSim::new(CombiningConfig::new(n, a, degree), policy);
    Point {
        name,
        run: Box::new(move |kernel| {
            std::hint::black_box(sim.run_with(0xBE7C, kernel));
        }),
    }
}

fn resource_point(name: &'static str, n: usize, hold: u64, policy: ResourcePolicy) -> Point {
    let sim = ResourceSim::new(ResourceConfig::new(n, 0, hold), policy);
    Point {
        name,
        run: Box::new(move |kernel| {
            std::hint::black_box(sim.run_with(0xBE7C, kernel));
        }),
    }
}

fn circuit_point(name: &'static str, policy: NetworkBackoff) -> Point {
    // Saturated hot-spot load: the whole population is attempting or
    // holding most cycles, which is exactly the circuit kernel's
    // skip-ahead regime.
    let sim = CircuitSim::new(
        CircuitConfig {
            log2_size: 5,
            hold_cycles: 8,
            request_rate: 0.95,
            hot_fraction: 0.8,
            warmup_cycles: 500,
            measure_cycles: 5_000,
        },
        policy,
    );
    Point {
        name,
        run: Box::new(move |kernel| {
            std::hint::black_box(sim.run_with(0xBE7C, kernel));
        }),
    }
}

fn main() {
    let points = vec![
        barrier_point("barrier_n64_a0_none", 64, 0, BackoffPolicy::None),
        barrier_point("barrier_n64_a1000_exp8", 64, 1000, BackoffPolicy::exponential(8)),
        barrier_point("barrier_n512_a0_none", 512, 0, BackoffPolicy::None),
        barrier_point("barrier_n512_a1000_none", 512, 1000, BackoffPolicy::None),
        barrier_point("barrier_n512_a1000_exp2", 512, 1000, BackoffPolicy::exponential(2)),
        barrier_point("barrier_n512_a1000_exp8", 512, 1000, BackoffPolicy::exponential(8)),
        packet_point("packet_hotspot_expretries", NetworkBackoff::ExponentialRetries {
            base: 4,
            cap: 4096,
        }),
        packet_point("packet_hotspot_feedback", NetworkBackoff::QueueFeedback { factor: 8 }),
        combining_point("combining_n256_a0_d4_none", 256, 0, 4, BackoffPolicy::None),
        combining_point(
            "combining_n256_a20000_d4_exp8",
            256,
            20_000,
            4,
            BackoffPolicy::exponential(8),
        ),
        combining_point(
            "combining_n512_a20000_d8_exp8",
            512,
            20_000,
            8,
            BackoffPolicy::exponential(8),
        ),
        resource_point("resource_n32_hold100_none", 32, 100, ResourcePolicy::None),
        resource_point(
            "resource_n32_hold100_prop",
            32,
            100,
            ResourcePolicy::ProportionalWaiters { hold_estimate: 100 },
        ),
        circuit_point("circuit_hotspot_none", NetworkBackoff::None),
        circuit_point(
            "circuit_hotspot_expretries",
            NetworkBackoff::ExponentialRetries { base: 4, cap: 4096 },
        ),
        barrier_point("barrier_n4096_a1000_exp2", 4096, 1000, BackoffPolicy::exponential(2)),
    ];

    // Mega-N barrier episodes: event kernel only (the cycle stepper scans
    // all N processors every cycle, which is intractable here). N = 2²⁰
    // takes seconds per episode, so it only runs when asked for.
    let mut megas = vec![barrier_point(
        "barrier_n65536_a1000_exp2",
        65_536,
        1000,
        BackoffPolicy::exponential(2),
    )];
    if std::env::var_os("ABS_BENCH_MEGA").is_some() {
        megas.push(barrier_point(
            "barrier_n1048576_a1000_exp2",
            1 << 20,
            1000,
            BackoffPolicy::exponential(2),
        ));
    }

    let mut bench = Bench::new("kernel");
    for point in &points {
        let mut group = bench.group(point.name);
        for kernel in Kernel::ALL {
            group.bench(kernel.name(), || (point.run)(kernel));
        }
        group.finish();
    }
    for point in &megas {
        let mut group = bench.group(point.name);
        group.bench("event", || (point.run)(Kernel::Event));
        group.finish();
    }

    // Fold the per-kernel medians (and MADs, which `repro sentinel` uses
    // to widen its tolerance on noisy points) into the speedup table
    // before `finish` consumes the runner.
    let find = |group: &str, id: &str| {
        bench
            .reports()
            .iter()
            .find(|r| r.group == group && r.id == id)
            .map(|r| (r.median_ns, r.mad_ns))
            .expect("every benchmark in the plan was measured")
    };
    let mut rows: Vec<(String, f64, f64, f64, f64)> = Vec::new();
    for point in &points {
        let (cycle_ns, cycle_mad_ns) = find(point.name, "cycle");
        let (event_ns, event_mad_ns) = find(point.name, "event");
        rows.push((point.name.to_string(), cycle_ns, cycle_mad_ns, event_ns, event_mad_ns));
    }
    let mega_rows: Vec<(String, f64, f64)> = megas
        .iter()
        .map(|point| {
            let (event_ns, event_mad_ns) = find(point.name, "event");
            (point.name.to_string(), event_ns, event_mad_ns)
        })
        .collect();

    let mut json = String::from("{\n  \"runner\": \"kernel_speedup\",\n  \"points\": [\n");
    for (i, (name, cycle_ns, cycle_mad_ns, event_ns, event_mad_ns)) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"point\": \"{name}\", \"cycle_ns\": {cycle_ns:.1}, \
             \"cycle_mad_ns\": {cycle_mad_ns:.1}, \"event_ns\": {event_ns:.1}, \
             \"event_mad_ns\": {event_mad_ns:.1}, \"speedup\": {:.2}}}",
            cycle_ns / event_ns
        );
        json.push_str(if i + 1 < rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ],\n  \"event_only\": [\n");
    for (i, (name, event_ns, event_mad_ns)) in mega_rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\"point\": \"{name}\", \"event_ns\": {event_ns:.1}, \
             \"event_mad_ns\": {event_mad_ns:.1}}}"
        );
        json.push_str(if i + 1 < mega_rows.len() { ",\n" } else { "\n" });
    }
    json.push_str("  ]\n}\n");

    let dir = std::env::var_os("ABS_BENCH_OUT")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../repro_out"));
    if let Err(e) = fs::create_dir_all(&dir).and_then(|()| {
        fs::write(dir.join("bench_kernel_speedup.json"), &json)
    }) {
        eprintln!(
            "kernel: cannot write bench_kernel_speedup.json to {}: {e}",
            dir.display()
        );
    } else {
        eprintln!("kernel: wrote {}/bench_kernel_speedup.json", dir.display());
    }
    print!("{json}");

    bench.finish();
}
