//! Host-side measurements and provenance, read in-process from `/proc`
//! and the checkout (no subprocess).

use std::path::Path;

use abs_exec::json::Value;

/// Clock ticks per second of `/proc/self/stat`'s `utime`/`stime` fields
/// (`USER_HZ`, fixed at 100 on Linux).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed by this process so far, all
/// threads included (exited worker threads too: the kernel folds their
/// time into the thread group). Resolution is one tick, 10 ms.
pub fn cpu_seconds() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name, which may hold spaces.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    let tick = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (tick(11) + tick(12)) / USER_HZ
}

/// Peak resident set size of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(0.0, |kb| kb / 1024.0)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line[key.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()
}

/// The CPU model string from `/proc/cpuinfo`.
fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Everything a result needs to say which code produced it, where and how.
/// `root` is the checkout whose `.git/HEAD` names the revision.
pub fn provenance(workload: &str, seed: u64, workers: usize, config: Value, root: &Path) -> Value {
    let rev = abs_exec::git_commit(root).unwrap_or_else(|| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Obj(vec![
        ("git_rev".into(), Value::Str(rev)),
        (
            "available_parallelism".into(),
            Value::Num(abs_exec::engine::available_parallelism() as f64),
        ),
        ("cpu_model".into(), Value::Str(cpu_model())),
        ("profile".into(), Value::Str(profile.into())),
        ("workload".into(), Value::Str(workload.into())),
        // A string: seeds use all 64 bits, beyond f64's exact range.
        ("seed".into(), Value::Str(seed.to_string())),
        ("workers".into(), Value::Num(workers as f64)),
        ("config".into(), config),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        // Burn a few ticks of CPU so the 10 ms counter must have moved.
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed().as_millis() < 100 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        assert!(cpu_seconds() > 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
