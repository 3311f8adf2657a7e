//! `repro` — regenerate every table and figure of the paper.
//!
//! ```text
//! cargo run -p abs-bench --release --bin repro -- all
//! cargo run -p abs-bench --release --bin repro -- fig7 fig10
//! cargo run -p abs-bench --release --bin repro -- --quick table1
//! cargo run -p abs-bench --release --bin repro -- --csv out/ fig5
//! cargo run -p abs-bench --release --bin repro -- --jobs 8 all
//! cargo run -p abs-bench --release --bin repro -- --trace t.json fig7
//! cargo run -p abs-bench --release --bin repro -- --kernel cycle fig7
//! cargo run -p abs-bench --release --bin repro -- --list
//! cargo run -p abs-bench --release --bin repro -- analyze repro_out/t.json
//! cargo run -p abs-bench --release --bin repro -- sentinel base.txt head.txt
//! ```
//!
//! `--kernel` selects the simulation kernel: `event` (default) is the
//! skip-ahead kernel, `cycle` the reference oracle. The two are
//! bit-identical, so the choice affects wall time only — which is also why
//! the manifest does not record it among the config pairs.
//!
//! Exhibits run on the `abs-exec` engine: `--jobs N` exhibits at a time,
//! committed to stdout in request order, so the output is **bit-identical
//! at any `--jobs` value**. A panicking exhibit is isolated — the others
//! still print and the process exits nonzero. Every run writes
//! `repro_manifest.json` (seed, config, git commit, per-exhibit status and
//! timings) into the output directory, as a record: nothing reads it back.
//!
//! The open-loop exhibits (`loadsweep`, `fairness`) additionally emit a
//! machine-readable JSON artifact into the output directory on every run;
//! `--load`, `--tenants` and `--sched` parameterize them.
//!
//! `--trace FILE` additionally writes a Chrome trace-event JSON document:
//! simulated-clock lanes (one process per traced episode, deterministic
//! for the seed at any `--jobs` count) plus wall-clock worker lanes under
//! pid 0, and prints the sim lanes as an ASCII timeline on stderr.
//!
//! `repro analyze <trace.json>` replays the abs-insight passes over such a
//! trace: cycle attribution (with the conservation invariant), barrier
//! episode extraction, and per-tenant SLO timelines; `--json` also writes
//! `analysis_<stem>.json` beside the trace.
//!
//! `repro sentinel <base> <head>` is the perf gate: it pairs perfbench
//! `--trace 0` result lines of two commits measured on one host (line i
//! of one file with line i of the other), holds every end-to-end metric
//! to its `BENCHMARK.json` bound, writes `sentinel_report.json` beside
//! `<head>` and exits 1 on regression.

use std::fs;
use std::path::PathBuf;
use std::process::ExitCode;

use abs_bench::cli::{self, CliOptions, Parsed};
use abs_bench::render::{assemble_sim_trace, render_one, Rendered};
use abs_exec::{available_parallelism, git_commit, Engine, ExecConfig, JobSet, RunReport};
use abs_exec::{JobRecord, JobStatus, RunManifest};
use abs_obs::ascii::timeline;
use abs_obs::chrome::{exec_report_lanes, validate, ChromeTrace, WALL_PID};
use abs_obs::trace::Event;

fn main() -> ExitCode {
    match cli::parse_args(std::env::args().skip(1), available_parallelism()) {
        Parsed::Help => {
            println!("{}", cli::help());
            ExitCode::SUCCESS
        }
        Parsed::List => {
            println!("{}", cli::list());
            ExitCode::SUCCESS
        }
        Parsed::Error(message) => {
            eprintln!("{message}\n\n{}", cli::help());
            ExitCode::FAILURE
        }
        Parsed::Analyze { file, json } => analyze(&file, json),
        Parsed::Sentinel { base, head } => sentinel(&base, &head),
        Parsed::Run(options) => run(options),
    }
}

/// `repro analyze <trace.json> [--json]`: the abs-insight passes over a
/// `--trace` file. Exit code: 0 analyzed cleanly, 1 conservation violated
/// or no unit analyzable, 2 unreadable input.
fn analyze(file: &std::path::Path, json: bool) -> ExitCode {
    let text = match fs::read_to_string(file) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("repro analyze: cannot read {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let doc = match abs_exec::json::Value::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            eprintln!("repro analyze: {} is not valid JSON: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let units = match abs_insight::import::import_chrome(&doc) {
        Ok(units) => units,
        Err(e) => {
            eprintln!("repro analyze: {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let analyses = abs_insight::analyze::analyze_units(&units);
    print!("{}", abs_insight::analyze::render_text(&analyses));
    if json {
        let stem = file
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("trace");
        let path = file.with_file_name(format!("analysis_{stem}.json"));
        let report = abs_insight::analyze::render_json(&analyses);
        if let Err(e) = fs::write(&path, report.render_pretty()) {
            eprintln!("repro analyze: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
        eprintln!("wrote {}", path.display());
    }
    if !abs_insight::analyze::conserved(&analyses) {
        eprintln!("repro analyze: cycle attribution violated conservation");
        return ExitCode::FAILURE;
    }
    if analyses.iter().all(|a| a.result.is_err()) {
        eprintln!("repro analyze: no analyzable unit in {}", file.display());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// `repro sentinel <base> <head>`: gate paired perfbench runs of two
/// commits on `BENCHMARK.json`'s end-to-end bounds. Exit code: 0 clean
/// (unresolved rows included), 1 regression, 2 bad input.
fn sentinel(base: &std::path::Path, head: &std::path::Path) -> ExitCode {
    use abs_insight::sentinel::{compare, parse_benchmark, parse_runs, Verdict};
    let read = |path: &std::path::Path| {
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))
    };
    let benchmark = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCHMARK.json");
    let runs = |path: &std::path::Path| {
        parse_runs(&read(path)?).map_err(|e| format!("{}: {e}", path.display()))
    };
    let report = read(&benchmark)
        .and_then(|text| parse_benchmark(&text))
        .and_then(|metrics| compare(&metrics, &runs(base)?, &runs(head)?));
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("repro sentinel: {e}");
            return ExitCode::from(2);
        }
    };
    print!("{}", report.to_text());
    let path = head.with_file_name("sentinel_report.json");
    if let Err(e) = fs::write(&path, report.to_json().render_pretty()) {
        eprintln!("repro sentinel: cannot write {}: {e}", path.display());
        return ExitCode::from(2);
    }
    eprintln!("wrote {}", path.display());
    if report.count(Verdict::Regressed) == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The workspace `repro_out/` directory (manifest home when `--csv` is not
/// given).
fn default_out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../repro_out")
}

fn run(options: CliOptions) -> ExitCode {
    let out_dir = options.csv_dir.clone().unwrap_or_else(default_out_dir);
    if let Err(e) = fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }

    // Parallelism goes to the outermost layer that can use it: with one
    // exhibit to run, the sweep inside it fans out over the engine; with
    // several, the exhibits themselves are the jobs (and sweep inside each
    // sequentially, keeping the thread count at --jobs).
    let (pool_workers, inner_jobs) = if options.targets.len() <= 1 {
        (1, options.jobs)
    } else {
        (options.jobs.min(options.targets.len()), 1)
    };
    let inner_config = options.config.with_jobs(inner_jobs);
    let tracing = options.trace.is_some();

    let mut set = JobSet::new(options.config.seed);
    for id in &options.targets {
        let id = id.clone();
        set.push_seeded(id.clone(), options.config.seed, move |_seed| {
            render_one(&id, &inner_config, tracing)
        });
    }
    let report = Engine::new(ExecConfig::new(pool_workers)).run(set);

    // Commit phase: stdout and CSV files strictly in request order, then
    // the manifest. Failures never abort the commit of other exhibits.
    // The config pairs are the settings that determine the numbers; the
    // kernel and the worker count do not.
    let config = &options.config;
    let mut manifest = RunManifest::new("repro", config.seed);
    manifest.set_config("reps", config.reps.to_string());
    manifest.set_config("procs", config.procs.to_string());
    manifest.set_config("max_n", config.max_n.to_string());
    let load = config
        .load
        .map_or_else(|| "default".to_string(), |l| l.to_string());
    manifest.set_config("load", load);
    manifest.set_config("tenants", config.tenants.to_string());
    let sched = config
        .sched
        .map_or_else(|| "all".to_string(), |s| s.to_string());
    manifest.set_config("sched", sched);
    manifest.git = git_commit(&PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    manifest.workers = report.workers.len();
    manifest.elapsed_ms = report.elapsed.as_secs_f64() * 1e3;

    let mut failures: Vec<String> = Vec::new();
    // Traced units of every successful exhibit, in request (commit) order —
    // the lane layout is therefore independent of the worker count.
    let mut trace_units: Vec<(String, Vec<Event>)> = Vec::new();
    for outcome in &report.outcomes {
        let mut artifact = None;
        let status = match &outcome.result {
            Ok(rendered) => {
                println!("{}", rendered.text);
                for (unit, events) in &rendered.trace {
                    trace_units.push((format!("{}: {unit}", outcome.name), events.clone()));
                }
                match write_csv(&options, rendered)
                    .and_then(|csv| write_json(&out_dir, rendered).map(|json| csv.or(json)))
                {
                    Ok(written) => {
                        artifact = written;
                        JobStatus::Ok
                    }
                    Err(message) => {
                        eprintln!("{}: {message}", outcome.name);
                        JobStatus::Failed(message)
                    }
                }
            }
            Err(failure) => {
                eprintln!("{}: {failure}", outcome.name);
                JobStatus::Failed(failure.message.clone())
            }
        };
        if let JobStatus::Failed(_) = status {
            failures.push(outcome.name.clone());
        }
        manifest.push_record(JobRecord {
            id: outcome.id,
            name: outcome.name.clone(),
            seed: outcome.seed,
            status,
            attempts: outcome.stats.attempts,
            wall_ms: outcome.stats.wall.as_secs_f64() * 1e3,
            queue_ms: outcome.stats.queue_wait.as_secs_f64() * 1e3,
            artifact,
        });
    }

    if let Some(trace_path) = &options.trace {
        if let Err(message) = write_trace(trace_path, trace_units, &report) {
            eprintln!("--trace: {message}");
            failures.push("trace".to_string());
        }
    }

    match manifest.write_to(&out_dir) {
        Ok(path) => eprintln!("wrote {}", path.display()),
        Err(e) => eprintln!("cannot write run manifest to {}: {e}", out_dir.display()),
    }
    eprintln!(
        "repro: {} ok, {} failed in {:.1} ms ({} worker(s), {:.0} % mean utilization)",
        report.ok_count(),
        failures.len(),
        report.elapsed.as_secs_f64() * 1e3,
        report.workers.len(),
        report.mean_utilization() * 100.0
    );
    if failures.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!("failed: {}", failures.join(" "));
        ExitCode::FAILURE
    }
}

/// Assembles, validates and writes the Chrome trace file: deterministic
/// sim-clock units first (pids 1..), then the engine's wall-clock worker
/// lanes under [`WALL_PID`]. Also prints the sim lanes as an ASCII heatmap
/// so the trace gets a first look in the terminal.
fn write_trace(
    path: &std::path::Path,
    units: Vec<(String, Vec<Event>)>,
    report: &RunReport<Rendered>,
) -> Result<(), String> {
    let sim_events: Vec<Event> = units.iter().flat_map(|(_, e)| e.iter().cloned()).collect();
    let mut trace: ChromeTrace = assemble_sim_trace(units);
    trace.name_process(WALL_PID, "abs-exec workers (wall clock)");
    let (wall_events, wall_lanes) = exec_report_lanes(report);
    for (tid, name) in wall_lanes {
        trace.name_thread(WALL_PID, tid, name);
    }
    trace.push_events(wall_events);
    let events = trace.len();

    let doc = trace.to_value();
    validate(&doc).map_err(|e| format!("internal error: invalid trace: {e}"))?;
    fs::write(path, doc.render_pretty())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {} ({events} events)", path.display());
    if !sim_events.is_empty() {
        eprint!("{}", timeline(&sim_events, 64));
    }
    Ok(())
}

/// Writes the exhibit's CSV when `--csv` was requested; returns the
/// artifact name.
fn write_csv(options: &CliOptions, rendered: &Rendered) -> Result<Option<String>, String> {
    let (Some(dir), Some((name, data))) = (options.csv_dir.as_deref(), rendered.csv.as_ref())
    else {
        return Ok(None);
    };
    let path = dir.join(name);
    fs::write(&path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(Some(name.clone()))
}

/// Writes the exhibit's machine-readable JSON artifact (the open-loop
/// exhibits carry one) into the output directory; returns the artifact
/// name. Unlike CSV this needs no flag — the JSON *is* the exhibit's
/// data product.
fn write_json(out_dir: &std::path::Path, rendered: &Rendered) -> Result<Option<String>, String> {
    let Some((name, data)) = rendered.json.as_ref() else {
        return Ok(None);
    };
    let path = out_dir.join(name);
    fs::write(&path, data).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(Some(name.clone()))
}
