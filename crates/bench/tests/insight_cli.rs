//! `repro analyze` / `repro sentinel` end to end, driving the real binary.
//!
//! The analyze path: a traced exhibit run writes a Chrome trace document;
//! `repro analyze` imports it and must produce a conserved cycle
//! attribution whose bytes are identical at any `--jobs` count (the trace
//! is, so the analysis — a pure function of the trace — must be too).
//! The sentinel path: paired perfbench result lines with head's `wall_s`
//! 30 % slower exit 1; files that do not pair exit 2. Both commands write
//! their reports beside their inputs.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn repro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(args)
        .output()
        .expect("repro binary runs")
}

fn tmpdir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

fn stdout(output: &Output) -> String {
    String::from_utf8_lossy(&output.stdout).into_owned()
}

fn stderr(output: &Output) -> String {
    String::from_utf8_lossy(&output.stderr).into_owned()
}

/// Runs a traced quick exhibit into `dir` and returns the trace path.
fn traced_run(dir: &Path, jobs: &str, targets: &[&str]) -> PathBuf {
    let trace = dir.join(format!("trace_j{jobs}.json"));
    let mut args = vec![
        "--quick",
        "--csv",
        dir.to_str().unwrap(),
        "--jobs",
        jobs,
        "--trace",
        trace.to_str().unwrap(),
    ];
    args.extend_from_slice(targets);
    let run = repro(&args);
    assert!(run.status.success(), "traced run failed:\n{}", stderr(&run));
    assert!(trace.is_file(), "trace file not written");
    trace
}

#[test]
fn analyze_attributes_fig4_with_backoff_contrast() {
    let dir = tmpdir("insight_cli_fig4");
    let trace = traced_run(&dir, "2", &["fig4"]);

    let analyzed = repro(&["analyze", trace.to_str().unwrap()]);
    assert!(
        analyzed.status.success(),
        "analyze failed:\n{}\n{}",
        stdout(&analyzed),
        stderr(&analyzed)
    );
    let text = stdout(&analyzed);
    // All four fig4 units are present: the three no-backoff arrival spans
    // plus the exp-8 contrast at the acceptance point.
    assert!(text.contains("fig4: A=0"), "{text}");
    assert!(text.contains("fig4: A=1000"), "{text}");
    assert!(
        text.contains("A=1000 base 8 backoff"),
        "missing the exp-8 contrast unit:\n{text}"
    );
    // The attribution table and its conservation of buckets.
    assert!(text.contains("spin_poll"), "{text}");
    assert!(text.contains("backoff_wait"), "{text}");
    assert!(!text.contains("not analyzable"), "{text}");
}

#[test]
fn analyze_output_is_identical_at_any_jobs_count() {
    let dir = tmpdir("insight_cli_jobs");
    let mut outputs = Vec::new();
    for jobs in ["1", "2", "8"] {
        let trace = traced_run(&dir, jobs, &["fig4", "fairness"]);
        let analyzed = repro(&["analyze", trace.to_str().unwrap()]);
        assert!(analyzed.status.success(), "analyze failed:\n{}", stderr(&analyzed));
        outputs.push(stdout(&analyzed));
    }
    assert_eq!(outputs[0], outputs[1], "--jobs 1 vs 2");
    assert_eq!(outputs[0], outputs[2], "--jobs 1 vs 8");
}

#[test]
fn analyze_renders_slo_timelines_for_open_loop_exhibits() {
    let dir = tmpdir("insight_cli_slo");
    let trace = traced_run(&dir, "2", &["fairness"]);

    let analyzed = repro(&["analyze", trace.to_str().unwrap()]);
    assert!(analyzed.status.success(), "analyze failed:\n{}", stderr(&analyzed));
    let text = stdout(&analyzed);
    assert!(text.contains("open-loop"), "{text}");
    assert!(text.contains("per-tenant SLO"), "{text}");
    assert!(text.contains("tenant"), "{text}");
}

#[test]
fn analyze_json_lands_beside_its_trace() {
    let dir = tmpdir("insight_cli_json");
    let trace = traced_run(&dir, "2", &["fig4"]);
    let _ = std::fs::remove_file(dir.join("analysis_trace_j2.json"));

    let analyzed = repro(&["analyze", trace.to_str().unwrap(), "--json"]);
    assert!(
        analyzed.status.success(),
        "analyze failed:\n{}",
        stderr(&analyzed)
    );
    let report = dir.join("analysis_trace_j2.json");
    assert!(report.is_file(), "{}", stderr(&analyzed));
    let text = std::fs::read_to_string(&report).unwrap();
    abs_exec::json::Value::parse(&text).expect("analysis report is JSON");
}

#[test]
fn analyze_rejects_garbage_input() {
    let dir = tmpdir("insight_cli_garbage");
    let bogus = dir.join("bogus.json");
    std::fs::write(&bogus, "{\"not\": \"a trace\"}").unwrap();
    let analyzed = repro(&["analyze", bogus.to_str().unwrap()]);
    assert_eq!(analyzed.status.code(), Some(2), "{}", stderr(&analyzed));
    let missing = repro(&["analyze", dir.join("absent.json").to_str().unwrap()]);
    assert_eq!(missing.status.code(), Some(2), "{}", stderr(&missing));
}

/// `n` perfbench result lines of one workload, every end-to-end metric of
/// `BENCHMARK.json` at 10 except `wall_s` at `10 × wall(i)`.
fn result_lines(workload: &str, n: usize, wall: impl Fn(usize) -> f64) -> String {
    let benchmark = include_str!("../../../BENCHMARK.json");
    let metrics = abs_insight::sentinel::parse_benchmark(benchmark).expect("BENCHMARK.json parses");
    (0..n)
        .map(|i| {
            let metrics: Vec<String> = metrics
                .iter()
                .map(|m| {
                    let v = if m.name == "wall_s" { 10.0 * wall(i) } else { 10.0 };
                    format!("\"{}\":{{\"value\":{v},\"unit\":\"s\"}}", m.name)
                })
                .collect();
            let metrics = metrics.join(",");
            format!("{workload} {{\"attempted\":40,\"failed\":0,\"metrics\":{{{metrics}}}}}\n")
        })
        .collect()
}

#[test]
fn sentinel_fails_a_30_percent_slowdown_of_paired_runs() {
    let dir = tmpdir("insight_cli_sentinel");
    let base = dir.join("base.txt");
    let head = dir.join("head.txt");
    let report = dir.join("sentinel_report.json");
    let _ = std::fs::remove_file(&report);
    std::fs::write(&base, result_lines("barrier_paper", 5, |_| 1.0)).unwrap();
    std::fs::write(&head, result_lines("barrier_paper", 5, |_| 1.0)).unwrap();
    let same = repro(&["sentinel", base.to_str().unwrap(), head.to_str().unwrap()]);
    assert!(same.status.success(), "{}{}", stdout(&same), stderr(&same));
    assert!(stdout(&same).contains("11 ok, 0 unresolved, 0 REGRESSED"), "{}", stdout(&same));
    // The report lands beside <head>, not in the checkout.
    assert!(report.is_file(), "{}", stderr(&same));

    // ±1 % jitter around 1.30×: past the 0.25 bound and clear of the noise.
    let jitter = [1.0, 1.01, 0.99, 1.005, 0.995];
    std::fs::write(&head, result_lines("barrier_paper", 5, |i| 1.30 * jitter[i])).unwrap();
    let slow = repro(&["sentinel", base.to_str().unwrap(), head.to_str().unwrap()]);
    assert_eq!(slow.status.code(), Some(1), "{}{}", stdout(&slow), stderr(&slow));
    let text = stdout(&slow);
    assert!(
        text.lines()
            .any(|l| l.contains("wall_s") && l.contains("REGRESSED")),
        "{text}"
    );
}

#[test]
fn sentinel_rejects_inputs_that_do_not_pair() {
    let dir = tmpdir("insight_cli_sentinel_mismatch");
    let base = dir.join("base.txt");
    let short = dir.join("short.txt");
    let other = dir.join("other.txt");
    std::fs::write(&base, result_lines("barrier_paper", 5, |_| 1.0)).unwrap();
    std::fs::write(&short, result_lines("barrier_paper", 4, |_| 1.0)).unwrap();
    std::fs::write(&other, result_lines("extensions_mix", 5, |_| 1.0)).unwrap();
    for head in [&short, &other, &dir.join("absent.txt")] {
        let out = repro(&["sentinel", base.to_str().unwrap(), head.to_str().unwrap()]);
        assert_eq!(out.status.code(), Some(2), "{}{}", stdout(&out), stderr(&out));
    }
}
