//! Section-8 extensions: resource backoff, network backoff, combining
//! trees.

use abs_core::{
    BackoffPolicy, CombiningConfig, CombiningTreeSim, ResourceConfig, ResourcePolicy,
    ResourceSim,
};
use abs_net::{CircuitConfig, CircuitSim, NetworkBackoff, PacketConfig, PacketSim};
use abs_sim::stats::OnlineStats;
use abs_sim::sweep::derive_seed;
use abs_sim::table::{fmt_f64, Table};

use crate::ReproConfig;

/// **Section 8, resources**: processors waiting on a held resource, with
/// and without backoff. The paper predicts proportional backoff performs
/// *better* here than at barriers because the wait is proportional to the
/// queue length.
pub fn resource(config: &ReproConfig) -> Table {
    let mut t = Table::new(vec![
        "policy",
        "accesses/proc",
        "acquire latency",
        "makespan",
    ])
    .with_title("Section 8: backoff while waiting on a resource (N=16, hold=20)");
    let rc = ResourceConfig::new(16, 0, 20);
    let policies = [
        ResourcePolicy::None,
        ResourcePolicy::Exponential { base: 2, cap: 512 },
        ResourcePolicy::ProportionalWaiters { hold_estimate: 20 },
    ];
    for policy in policies {
        let sim = ResourceSim::new(rc, policy);
        let mut acc = OnlineStats::new();
        let mut lat = OnlineStats::new();
        let mut mk = OnlineStats::new();
        for i in 0..config.reps {
            let run = sim.run_with(derive_seed(config.seed, i as u64), config.kernel);
            acc.push(run.mean_accesses());
            lat.push(run.mean_latency());
            mk.push(run.makespan() as f64);
        }
        t.add_row(vec![
            policy.label(),
            fmt_f64(acc.mean(), 1),
            fmt_f64(lat.mean(), 1),
            fmt_f64(mk.mean(), 0),
        ]);
    }
    t
}

/// The circuit-switched network [`netback`] runs: 32 ports, hot-spot load.
pub const NETBACK_CIRCUIT: CircuitConfig = CircuitConfig {
    log2_size: 5,
    hold_cycles: 4,
    request_rate: 0.4,
    hot_fraction: 0.3,
    warmup_cycles: 500,
    measure_cycles: 5_000,
};

/// The five collision-backoff policies [`netback`] runs on
/// [`NETBACK_CIRCUIT`].
pub const NETBACK_CIRCUIT_POLICIES: [NetworkBackoff; 5] = [
    NetworkBackoff::None,
    NetworkBackoff::DepthProportional { factor: 4 },
    NetworkBackoff::InverseDepth { factor: 4 },
    NetworkBackoff::ConstantRtt { rtt: 8 },
    NetworkBackoff::ExponentialRetries { base: 2, cap: 256 },
];

/// The packet-switched network [`netback`] runs: 32 ports, hot-spot load.
pub const NETBACK_PACKET: PacketConfig = PacketConfig {
    log2_size: 5,
    queue_capacity: 4,
    injection_rate: 0.9,
    hot_fraction: 0.5,
    warmup_cycles: 500,
    measure_cycles: 5_000,
    memory_service_cycles: 2,
    max_outstanding: 4,
};

/// The policies [`netback`] runs on [`NETBACK_PACKET`]: none, and the
/// queue-feedback policy that reads the memory queues.
pub const NETBACK_PACKET_POLICIES: [NetworkBackoff; 2] = [
    NetworkBackoff::None,
    NetworkBackoff::QueueFeedback { factor: 8 },
];

/// **Section 8, networks**: the five collision-backoff policies on a
/// circuit-switched Omega network under hot-spot load, plus the
/// Scott–Sohi queue-feedback policy on the packet-switched network.
pub fn netback(config: &ReproConfig) -> Table {
    let mut t = Table::new(vec![
        "policy",
        "attempts/req",
        "latency",
        "throughput",
        "collision depth",
    ])
    .with_title("Section 8: network-access backoff on a hot-spot Omega network");
    for policy in NETBACK_CIRCUIT_POLICIES {
        let sim = CircuitSim::new(NETBACK_CIRCUIT, policy);
        let mut attempts = OnlineStats::new();
        let mut lat = OnlineStats::new();
        let mut thr = OnlineStats::new();
        let mut depth = OnlineStats::new();
        for i in 0..config.reps {
            let o = sim.run_with(derive_seed(config.seed, i as u64), config.kernel);
            attempts.push(o.avg_attempts);
            lat.push(o.avg_latency);
            thr.push(o.throughput);
            depth.push(o.avg_collision_depth);
        }
        t.add_row(vec![
            policy.label(),
            fmt_f64(attempts.mean(), 2),
            fmt_f64(lat.mean(), 1),
            fmt_f64(thr.mean(), 3),
            fmt_f64(depth.mean(), 2),
        ]);
    }

    // Policy 5 runs on the packet-switched substrate (it needs memory
    // queues to read).
    for policy in NETBACK_PACKET_POLICIES {
        let sim = PacketSim::new(NETBACK_PACKET, policy);
        let mut thr = OnlineStats::new();
        let mut lat = OnlineStats::new();
        let mut blocked = OnlineStats::new();
        for i in 0..config.reps {
            let o = sim.run_with(derive_seed(config.seed ^ 0xFEED, i as u64), config.kernel);
            thr.push(o.background_throughput);
            lat.push(o.avg_latency);
            blocked.push(o.blocked_injections as f64 / o.delivered.max(1) as f64);
        }
        t.add_row(vec![
            format!("packet: {}", policy.label()),
            fmt_f64(blocked.mean(), 2),
            fmt_f64(lat.mean(), 1),
            fmt_f64(thr.mean(), 3),
            "-".into(),
        ]);
    }
    t
}

/// **Section 8, combining trees**: a flat barrier vs combining trees of
/// degree 2/4/8 at N = 256, with and without backoff at the nodes. The
/// tree's win is the flattened hot spot (max per-module accesses).
pub fn combining(config: &ReproConfig) -> Table {
    let n = 256usize.min(config.max_n.max(16));
    let span = 100u64;
    let mut t = Table::new(vec![
        "barrier",
        "accesses/proc",
        "max module accesses",
        "completion",
    ])
    .with_title(format!(
        "Section 8: flat vs combining-tree barriers (N={n}, A={span})"
    ));

    // Flat barrier reference point.
    let flat = abs_core::BarrierSim::new(
        abs_core::BarrierConfig::new(n, span),
        BackoffPolicy::None,
    );
    let mut acc = OnlineStats::new();
    let mut hot = OnlineStats::new();
    let mut comp = OnlineStats::new();
    for i in 0..config.reps {
        let run = flat.run_with(derive_seed(config.seed, i as u64), config.kernel);
        acc.push(run.mean_accesses());
        // Flat: two modules carry everything; the flag module carries the
        // polls.
        hot.push(run.total_accesses() as f64 - run.mean_var_accesses() * n as f64);
        comp.push(run.completion() as f64);
    }
    t.add_row(vec![
        "flat, no backoff".into(),
        fmt_f64(acc.mean(), 1),
        fmt_f64(hot.mean(), 0),
        fmt_f64(comp.mean(), 0),
    ]);

    for degree in [2usize, 4, 8] {
        for (label, policy) in [
            ("no backoff", BackoffPolicy::None),
            ("base-2 backoff", BackoffPolicy::exponential(2)),
            ("base-2 capped 64", BackoffPolicy::exponential_capped(2, 64)),
        ] {
            let sim = CombiningTreeSim::new(CombiningConfig::new(n, span, degree), policy);
            let mut acc = OnlineStats::new();
            let mut hot = OnlineStats::new();
            let mut comp = OnlineStats::new();
            for i in 0..config.reps {
                let run = sim.run_with(derive_seed(config.seed, i as u64), config.kernel);
                acc.push(run.mean_accesses());
                hot.push(run.max_module_accesses() as f64);
                comp.push(run.completion() as f64);
            }
            t.add_row(vec![
                format!("tree d={degree}, {label}"),
                fmt_f64(acc.mean(), 1),
                fmt_f64(hot.mean(), 0),
                fmt_f64(comp.mean(), 0),
            ]);
        }
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_table_shape() {
        let t = resource(&ReproConfig::quick());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn netback_table_shape() {
        let t = netback(&ReproConfig::quick());
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn combining_table_shape() {
        let t = combining(&ReproConfig::quick());
        assert_eq!(t.len(), 10);
    }
}
