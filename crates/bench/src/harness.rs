//! The in-tree benchmark harness.
//!
//! Criterion-compatible in spirit, dependency-free in practice: each
//! benchmark is warmed up, the per-sample iteration count is calibrated
//! from the warmup so every sample takes roughly the same wall time, and
//! the per-iteration times of the samples are summarized by their
//! **median** and **median absolute deviation** (robust to scheduler
//! outliers; see [`abs_sim::stats::median`]). Results are printed as they
//! complete and, on [`Bench::finish`], written as JSON and CSV into
//! `repro_out/` with a hand-rolled serializer.
//!
//! Environment knobs:
//!
//! * `ABS_BENCH_QUICK=1` — shrink warmup/measurement budgets to smoke-run
//!   scale (used by CI to keep bench runs cheap but real).
//! * `ABS_BENCH_OUT=<dir>` — redirect the JSON/CSV emission.
//!
//! # Examples
//!
//! ```no_run
//! use abs_bench::harness::Bench;
//!
//! let mut bench = Bench::new("example");
//! let mut group = bench.group("sums");
//! group.throughput_elements(1_000);
//! group.bench("naive", || {
//!     std::hint::black_box((0..1_000u64).sum::<u64>());
//! });
//! group.finish();
//! bench.finish();
//! ```

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use abs_exec::json::escape;
use abs_sim::stats::{median, median_abs_deviation};

/// Timing budgets and sample counts for one [`Bench`] runner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BenchConfig {
    /// Number of timed samples per benchmark.
    pub sample_count: u32,
    /// Wall-clock budget for the calibration warmup.
    pub warmup: Duration,
    /// Wall-clock budget for the measurement phase (split across samples).
    pub measurement: Duration,
}

impl BenchConfig {
    /// The default budgets: 20 samples over ~1 s with a 300 ms warmup.
    pub fn standard() -> Self {
        Self {
            sample_count: 20,
            warmup: Duration::from_millis(300),
            measurement: Duration::from_secs(1),
        }
    }

    /// Reduced budgets for smoke runs (`ABS_BENCH_QUICK=1`).
    pub fn quick() -> Self {
        Self {
            sample_count: 5,
            warmup: Duration::from_millis(20),
            measurement: Duration::from_millis(100),
        }
    }

    /// [`standard`](Self::standard), or [`quick`](Self::quick) when the
    /// `ABS_BENCH_QUICK` env var is set to a non-empty, non-`0` value.
    pub fn from_env() -> Self {
        match std::env::var("ABS_BENCH_QUICK") {
            Ok(v) if !v.is_empty() && v != "0" => Self::quick(),
            _ => Self::standard(),
        }
    }
}

impl Default for BenchConfig {
    fn default() -> Self {
        Self::standard()
    }
}

/// The measured statistics of one benchmark, in nanoseconds per iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Benchmark group (e.g. `spin_barrier_rounds`).
    pub group: String,
    /// Benchmark id within the group (e.g. `exp-base2`).
    pub id: String,
    /// Iterations folded into each timed sample.
    pub iters_per_sample: u64,
    /// Number of timed samples.
    pub samples: u32,
    /// Median ns/iteration across samples.
    pub median_ns: f64,
    /// Median absolute deviation of ns/iteration across samples.
    pub mad_ns: f64,
    /// Mean ns/iteration across samples.
    pub mean_ns: f64,
    /// Fastest sample's ns/iteration.
    pub min_ns: f64,
    /// Slowest sample's ns/iteration.
    pub max_ns: f64,
    /// Elements processed per iteration, when declared via
    /// [`Group::throughput_elements`].
    pub throughput_elements: Option<u64>,
}

impl Report {
    /// Throughput in elements/second implied by the median time, when an
    /// element count was declared.
    pub fn elements_per_second(&self) -> Option<f64> {
        self.throughput_elements
            .map(|n| n as f64 / (self.median_ns * 1e-9))
    }
}

/// A top-level bench runner: owns the config and accumulates [`Report`]s
/// from its groups, then emits them on [`finish`](Bench::finish).
#[derive(Debug)]
pub struct Bench {
    name: String,
    config: BenchConfig,
    reports: Vec<Report>,
}

impl Bench {
    /// A runner named `name` (names the output files) configured from the
    /// environment.
    pub fn new(name: &str) -> Self {
        Self::with_config(name, BenchConfig::from_env())
    }

    /// A runner with an explicit config (still honors `ABS_BENCH_QUICK`,
    /// which overrides to smoke-run budgets).
    pub fn with_config(name: &str, config: BenchConfig) -> Self {
        let config = match std::env::var("ABS_BENCH_QUICK") {
            Ok(v) if !v.is_empty() && v != "0" => BenchConfig::quick(),
            _ => config,
        };
        Self {
            name: name.to_string(),
            config,
            reports: Vec::new(),
        }
    }

    /// Opens a benchmark group; drop (or [`Group::finish`]) it before
    /// opening the next.
    pub fn group(&mut self, name: &str) -> Group<'_> {
        Group {
            bench: self,
            name: name.to_string(),
            throughput: None,
        }
    }

    /// All reports measured so far.
    pub fn reports(&self) -> &[Report] {
        &self.reports
    }

    /// Renders every report as a JSON document (hand-rolled; the hermetic
    /// workspace has no serde).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"runner\": {},", escape(&self.name));
        out.push_str("  \"results\": [\n");
        for (i, r) in self.reports.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"group\": {}, \"bench\": {}, \"iters_per_sample\": {}, \
                 \"samples\": {}, \"median_ns\": {}, \"mad_ns\": {}, \"mean_ns\": {}, \
                 \"min_ns\": {}, \"max_ns\": {}, \"elements_per_iter\": {}}}",
                escape(&r.group),
                escape(&r.id),
                r.iters_per_sample,
                r.samples,
                json_f64(r.median_ns),
                json_f64(r.mad_ns),
                json_f64(r.mean_ns),
                json_f64(r.min_ns),
                json_f64(r.max_ns),
                match r.throughput_elements {
                    Some(n) => n.to_string(),
                    None => "null".to_string(),
                },
            );
            out.push_str(if i + 1 < self.reports.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Renders every report as CSV.
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "group,bench,iters_per_sample,samples,median_ns,mad_ns,mean_ns,min_ns,max_ns,elements_per_iter\n",
        );
        for r in &self.reports {
            let _ = writeln!(
                out,
                "{},{},{},{},{:.2},{:.2},{:.2},{:.2},{:.2},{}",
                csv_field(&r.group),
                csv_field(&r.id),
                r.iters_per_sample,
                r.samples,
                r.median_ns,
                r.mad_ns,
                r.mean_ns,
                r.min_ns,
                r.max_ns,
                r.throughput_elements
                    .map(|n| n.to_string())
                    .unwrap_or_default(),
            );
        }
        out
    }

    /// Writes `bench_<name>.json` and `bench_<name>.csv` into `dir`.
    pub fn write_reports_to(&self, dir: &std::path::Path) -> std::io::Result<()> {
        fs::create_dir_all(dir)?;
        fs::write(dir.join(format!("bench_{}.json", self.name)), self.to_json())?;
        fs::write(dir.join(format!("bench_{}.csv", self.name)), self.to_csv())?;
        Ok(())
    }

    /// Prints a footer and emits JSON/CSV into `ABS_BENCH_OUT` (default:
    /// the workspace `repro_out/`). Emission failures are reported to
    /// stderr but do not panic, so read-only checkouts can still bench.
    pub fn finish(self) {
        let dir = std::env::var_os("ABS_BENCH_OUT")
            .map(PathBuf::from)
            .unwrap_or_else(|| {
                // crates/bench/../../repro_out == workspace repro_out/.
                PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../repro_out")
            });
        match self.write_reports_to(&dir) {
            Ok(()) => eprintln!(
                "{}: wrote {} results to {}/bench_{}.{{json,csv}}",
                self.name,
                self.reports.len(),
                dir.display(),
                self.name
            ),
            Err(e) => eprintln!("{}: cannot write reports to {}: {e}", self.name, dir.display()),
        }
    }

    /// Warmup, calibrate, and sample one benchmark closure.
    fn run_one<F: FnMut()>(&mut self, group: &str, id: &str, throughput: Option<u64>, mut f: F) {
        // Warmup doubles as calibration: keep running until the budget is
        // spent, tracking how many iterations fit.
        let warmup_start = Instant::now();
        let mut warmup_iters: u64 = 0;
        while warmup_start.elapsed() < self.config.warmup || warmup_iters == 0 {
            f();
            warmup_iters += 1;
        }
        let est_ns_per_iter =
            warmup_start.elapsed().as_nanos() as f64 / warmup_iters as f64;

        // Aim each sample at measurement/sample_count wall time.
        let target_sample_ns =
            self.config.measurement.as_nanos() as f64 / f64::from(self.config.sample_count);
        let iters_per_sample = (target_sample_ns / est_ns_per_iter).ceil().max(1.0) as u64;

        let mut samples_ns: Vec<f64> = Vec::with_capacity(self.config.sample_count as usize);
        for _ in 0..self.config.sample_count {
            let start = Instant::now();
            for _ in 0..iters_per_sample {
                f();
            }
            samples_ns.push(start.elapsed().as_nanos() as f64 / iters_per_sample as f64);
        }

        let report = Report {
            group: group.to_string(),
            id: id.to_string(),
            iters_per_sample,
            samples: self.config.sample_count,
            median_ns: median(&samples_ns),
            mad_ns: median_abs_deviation(&samples_ns),
            mean_ns: samples_ns.iter().sum::<f64>() / samples_ns.len() as f64,
            min_ns: samples_ns.iter().copied().fold(f64::INFINITY, f64::min),
            max_ns: samples_ns.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            throughput_elements: throughput,
        };
        print_report(&report);
        self.reports.push(report);
    }
}

/// A named group of related benchmarks sharing a throughput declaration.
#[derive(Debug)]
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    throughput: Option<u64>,
}

impl Group<'_> {
    /// Declares that each iteration processes `n` elements, enabling
    /// elements/second reporting.
    pub fn throughput_elements(&mut self, n: u64) -> &mut Self {
        self.throughput = Some(n);
        self
    }

    /// Measures one benchmark closure under this group.
    pub fn bench<F: FnMut()>(&mut self, id: &str, f: F) -> &mut Self {
        let name = self.name.clone();
        self.bench.run_one(&name, id, self.throughput, f);
        self
    }

    /// Ends the group (groups also end on drop; this mirrors the Criterion
    /// idiom for readability).
    pub fn finish(self) {}
}

fn print_report(r: &Report) {
    let mut line = format!(
        "{}/{:<24} median {:>12} (MAD {}, {} samples x {} iters)",
        r.group,
        r.id,
        format_ns(r.median_ns),
        format_ns(r.mad_ns),
        r.samples,
        r.iters_per_sample,
    );
    if let Some(eps) = r.elements_per_second() {
        let _ = write!(line, "  {} elem/s", format_count(eps));
    }
    println!("{line}");
}

/// Formats nanoseconds with an auto-selected unit.
fn format_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.3} s", ns / 1_000_000_000.0)
    }
}

/// Formats a count with an auto-selected SI prefix.
fn format_count(x: f64) -> String {
    if x < 1_000.0 {
        format!("{x:.1}")
    } else if x < 1_000_000.0 {
        format!("{:.2} K", x / 1_000.0)
    } else if x < 1_000_000_000.0 {
        format!("{:.2} M", x / 1_000_000.0)
    } else {
        format!("{:.2} G", x / 1_000_000_000.0)
    }
}

/// Renders an `f64` as a JSON number (JSON has no NaN/inf, so map those to
/// null).
fn json_f64(x: f64) -> String {
    if x.is_finite() {
        format!("{x:.3}")
    } else {
        "null".to_string()
    }
}

/// Quotes a CSV field only when it needs it.
fn csv_field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchConfig {
        BenchConfig {
            sample_count: 3,
            warmup: Duration::from_micros(100),
            measurement: Duration::from_micros(300),
        }
    }

    #[test]
    fn measures_a_trivial_closure() {
        let mut b = Bench::with_config("unit", tiny_config());
        let mut g = b.group("g");
        g.throughput_elements(10);
        g.bench("noop", || {
            std::hint::black_box(1 + 1);
        });
        g.finish();
        assert_eq!(b.reports().len(), 1);
        let r = &b.reports()[0];
        assert_eq!((r.group.as_str(), r.id.as_str()), ("g", "noop"));
        assert!(r.iters_per_sample >= 1);
        assert!(r.median_ns >= 0.0);
        assert!(r.min_ns <= r.median_ns && r.median_ns <= r.max_ns);
        assert_eq!(r.throughput_elements, Some(10));
        assert!(r.elements_per_second().unwrap() > 0.0);
    }

    #[test]
    fn json_and_csv_shapes() {
        let mut b = Bench::with_config("unit", tiny_config());
        b.group("g1").bench("a", || {
            std::hint::black_box(0u64);
        });
        b.group("g2").throughput_elements(5).bench("b", || {
            std::hint::black_box(0u64);
        });
        let json = b.to_json();
        assert!(json.contains("\"runner\": \"unit\""));
        assert!(json.contains("\"group\": \"g1\""));
        assert!(json.contains("\"elements_per_iter\": null"));
        assert!(json.contains("\"elements_per_iter\": 5"));
        // Balanced braces/brackets as a cheap well-formedness check.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());

        let csv = b.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("group,bench,"));
        assert!(csv.lines().all(|l| l.split(',').count() == 10));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(escape("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.500");
    }

    #[test]
    fn csv_quoting() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }

    #[test]
    fn unit_formatting() {
        assert_eq!(format_ns(12.34), "12.3 ns");
        assert_eq!(format_ns(12_340.0), "12.34 us");
        assert_eq!(format_ns(12_340_000.0), "12.34 ms");
        assert_eq!(format_count(2_500_000.0), "2.50 M");
    }

    #[test]
    fn reports_roundtrip_to_disk() {
        let mut b = Bench::with_config("io", tiny_config());
        b.group("g").bench("x", || {
            std::hint::black_box(0u64);
        });
        let dir = std::env::temp_dir().join("abs_bench_harness_test");
        b.write_reports_to(&dir).unwrap();
        let json = fs::read_to_string(dir.join("bench_io.json")).unwrap();
        let csv = fs::read_to_string(dir.join("bench_io.csv")).unwrap();
        assert!(json.contains("\"runner\": \"io\""));
        assert!(csv.lines().count() == 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
