//! The perf gate behind `repro sentinel`: a same-host A/B comparison of
//! paired perfbench runs.
//!
//! Both inputs are files of perfbench `--trace 0` result lines, one run
//! per line, written as `<workload> <result-json>`, where `<result-json>`
//! is the last line perfbench prints (`correct`, `attempted`, `failed`,
//! `metrics`). Line i of the base file pairs with line i of the head
//! file: the two runs were made back to back on one host, with the side
//! that runs first alternating from pair to pair, so host drift falls on
//! both sides of a pair alike. The gated metrics, which way each one is
//! better and how far it may get worse all come from the `end_to_end`
//! list of `BENCHMARK.json`, so the gate has no knobs of its own.
//!
//! For each workload and metric, take the paired ratios
//! `r_i = head_i / base_i`, inverted for `better: higher` metrics so that
//! `r > 1` always means worse. Then
//!
//! ```text
//! REGRESSED   median(r) > 1 + bound  and  median(r) − 3·MAD(r) > 1
//! unresolved  median(r) > 1 + bound  and  median(r) − 3·MAD(r) ≤ 1
//! ok          otherwise
//! ```
//!
//! An unresolved row is printed but does not fail: the median crossed
//! the bound, but the pairs scatter too widely to say that head is worse
//! at all. Each workload also gets a `failed_frac` row, REGRESSED when any
//! head run fails a larger share of its simulations than its paired base
//! run.

use abs_exec::json::Value;
use abs_sim::stats::{median, median_abs_deviation};
use abs_sim::table::{fmt_f64, fmt_percent, Table};

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's key in perfbench's result `metrics` object.
    pub name: String,
    /// `better: higher` (a rate); otherwise lower is better.
    pub higher_is_better: bool,
    /// How far the paired median may get worse, as a fraction.
    pub bound: f64,
}

/// Reads the `end_to_end` metrics of a `BENCHMARK.json` document.
///
/// # Errors
///
/// Returns a message when the list is missing or an entry lacks a name,
/// a `better` of `lower`/`higher`, or a non-negative `bound`.
pub fn parse_benchmark(text: &str) -> Result<Vec<Metric>, String> {
    let doc = Value::parse(text)?;
    let entries = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .ok_or_else(|| "BENCHMARK.json has no end_to_end list".to_string())?;
    entries
        .iter()
        .enumerate()
        .map(|(i, entry)| {
            let name = entry
                .get("name")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("end_to_end[{i}]: missing name"))?;
            let higher_is_better = match entry.get("better").and_then(Value::as_str) {
                Some("higher") => true,
                Some("lower") => false,
                _ => return Err(format!("{name}: better must be \"lower\" or \"higher\"")),
            };
            let bound = entry
                .get("bound")
                .and_then(Value::as_f64)
                .filter(|b| *b >= 0.0)
                .ok_or_else(|| format!("{name}: missing or negative bound"))?;
            Ok(Metric {
                name: name.to_string(),
                higher_is_better,
                bound,
            })
        })
        .collect()
}

/// One perfbench run: a line `<workload> <result-json>`.
#[derive(Debug, Clone, PartialEq)]
pub struct Run {
    /// The workload the run measured.
    pub workload: String,
    /// The result object perfbench printed last.
    pub result: Value,
}

impl Run {
    /// The value of one end-to-end metric, if the run reports it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.result
            .get("metrics")?
            .get(name)?
            .get("value")?
            .as_f64()
    }

    /// `failed / attempted` (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        let count = |key: &str| self.result.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        count("failed") / count("attempted").max(1.0)
    }
}

/// Parses a file of result lines; blank lines are skipped.
///
/// # Errors
///
/// Returns a message naming the first line that is not
/// `<workload> <result-json>` with numeric `attempted` and `failed`.
pub fn parse_runs(text: &str) -> Result<Vec<Run>, String> {
    text.lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            let (workload, json) = line
                .trim()
                .split_once(' ')
                .ok_or_else(|| format!("line {}: expected `<workload> <result-json>`", i + 1))?;
            let result = Value::parse(json).map_err(|e| format!("line {}: {e}", i + 1))?;
            if ["attempted", "failed"]
                .iter()
                .any(|key| result.get(key).and_then(Value::as_f64).is_none())
            {
                return Err(format!("line {}: result lacks attempted/failed", i + 1));
            }
            Ok(Run {
                workload: workload.to_string(),
                result,
            })
        })
        .collect()
}

/// One row's verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound, or better.
    Ok,
    /// The median crossed the bound but the band still reaches 1.
    Unresolved,
    /// Worse by more than the bound, clear of the noise.
    Regressed,
}

impl Verdict {
    /// Stable name used in tables and JSON.
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Unresolved => "unresolved",
            Verdict::Regressed => "REGRESSED",
        }
    }
}

/// One (workload, metric) comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// The workload.
    pub workload: String,
    /// The metric, or `failed_frac` for the failure row.
    pub metric: String,
    /// The metric's bound (0 for the failure row).
    pub bound: f64,
    /// Median and MAD of the paired ratios (`None` for the failure row).
    pub ratio: Option<(f64, f64)>,
    /// The verdict.
    pub verdict: Verdict,
}

/// The full comparison: per workload (first-appearance order), one row
/// per metric in `BENCHMARK.json` order, then the failure row.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// The rows.
    pub rows: Vec<Row>,
}

impl Report {
    /// Rows with the given verdict.
    pub fn count(&self, verdict: Verdict) -> usize {
        self.rows.iter().filter(|r| r.verdict == verdict).count()
    }

    /// The report as text: the table plus a one-line summary.
    pub fn to_text(&self) -> String {
        let headers = vec!["workload", "metric", "bound", "median r", "MAD r", "verdict"];
        let mut table = Table::new(headers)
            .with_title("perf sentinel: paired r = head/base, inverted where higher is better");
        for row in &self.rows {
            let dash = || "-".to_string();
            let [median, mad] = row
                .ratio
                .map_or([dash(), dash()], |(m, d)| [fmt_f64(m, 3), fmt_f64(d, 3)]);
            let (workload, metric) = (row.workload.clone(), row.metric.clone());
            let verdict = row.verdict.name().to_string();
            table.add_row(vec![workload, metric, fmt_percent(row.bound), median, mad, verdict]);
        }
        format!(
            "{table}sentinel: {} ok, {} unresolved, {} REGRESSED\n",
            self.count(Verdict::Ok),
            self.count(Verdict::Unresolved),
            self.count(Verdict::Regressed)
        )
    }

    /// The report as a JSON value (deterministic key order).
    pub fn to_json(&self) -> Value {
        let field = |key: &str, value: Value| (key.to_string(), value);
        let rows = self.rows.iter().map(|row| {
            let (median, mad) = row.ratio.map_or((Value::Null, Value::Null), |(m, d)| {
                (Value::Num(m), Value::Num(d))
            });
            Value::Obj(vec![
                field("workload", Value::Str(row.workload.clone())),
                field("metric", Value::Str(row.metric.clone())),
                field("bound", Value::Num(row.bound)),
                field("median_ratio", median),
                field("mad_ratio", mad),
                field("verdict", Value::Str(row.verdict.name().to_string())),
            ])
        });
        Value::Obj(vec![
            field("regressed", Value::Num(self.count(Verdict::Regressed) as f64)),
            field("unresolved", Value::Num(self.count(Verdict::Unresolved) as f64)),
            field("rows", Value::Arr(rows.collect())),
        ])
    }
}

/// How much worse head is than base for one pair: `head / base`, or its
/// inverse when higher is better. Equal values give exactly 1.
fn ratio(metric: &Metric, base: f64, head: f64) -> Option<f64> {
    if base == head {
        return Some(1.0);
    }
    let r = if metric.higher_is_better { base / head } else { head / base };
    (r.is_finite() && r > 0.0).then_some(r)
}

/// Compares paired runs: line i of `base` against line i of `head`.
///
/// # Errors
///
/// Returns a message when the sides hold no runs or different numbers of
/// runs, a pair names two workloads, or a run lacks a metric or reports
/// one that gives no positive finite ratio (zero against non-zero).
pub fn compare(metrics: &[Metric], base: &[Run], head: &[Run]) -> Result<Report, String> {
    if base.is_empty() {
        return Err("no runs to compare".to_string());
    }
    if base.len() != head.len() {
        return Err(format!("base has {} runs but head has {}", base.len(), head.len()));
    }
    let mut workloads: Vec<&str> = Vec::new();
    for (i, (b, h)) in base.iter().zip(head).enumerate() {
        if b.workload != h.workload {
            return Err(format!(
                "run {}: base measured {} but head measured {}",
                i + 1,
                b.workload,
                h.workload
            ));
        }
        if !workloads.contains(&b.workload.as_str()) {
            workloads.push(&b.workload);
        }
    }
    let mut rows = Vec::new();
    for workload in workloads {
        let pairs: Vec<(usize, &Run, &Run)> = base
            .iter()
            .zip(head)
            .enumerate()
            .filter(|(_, (b, _))| b.workload == workload)
            .map(|(i, (b, h))| (i + 1, b, h))
            .collect();
        for metric in metrics {
            let ratios = pairs
                .iter()
                .map(|(line, b, h)| {
                    let value = |run: &Run, side: &str| {
                        run.metric(&metric.name).ok_or_else(|| {
                            format!("run {line} ({side}, {workload}): no metric {}", metric.name)
                        })
                    };
                    let (bv, hv) = (value(b, "base")?, value(h, "head")?);
                    ratio(metric, bv, hv).ok_or_else(|| {
                        format!(
                            "run {line} ({workload}): {} is {bv} on base and {hv} on head; \
                             no ratio",
                            metric.name
                        )
                    })
                })
                .collect::<Result<Vec<f64>, String>>()?;
            let (m, mad) = (median(&ratios), median_abs_deviation(&ratios));
            let verdict = if m <= 1.0 + metric.bound {
                Verdict::Ok
            } else if m - 3.0 * mad > 1.0 {
                Verdict::Regressed
            } else {
                Verdict::Unresolved
            };
            rows.push(Row {
                workload: workload.to_string(),
                metric: metric.name.clone(),
                bound: metric.bound,
                ratio: Some((m, mad)),
                verdict,
            });
        }
        let more_failures = pairs.iter().any(|(_, b, h)| h.failed_frac() > b.failed_frac());
        rows.push(Row {
            workload: workload.to_string(),
            metric: "failed_frac".to_string(),
            bound: 0.0,
            ratio: None,
            verdict: if more_failures { Verdict::Regressed } else { Verdict::Ok },
        });
    }
    Ok(Report { rows })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn benchmark() -> Vec<Metric> {
        parse_benchmark(include_str!("../../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    /// A result line with every benchmark metric at 10 except the
    /// overrides, and the given failure count out of 100.
    fn line(workload: &str, overrides: &[(&str, f64)], failed: u32) -> String {
        let metrics: Vec<String> = benchmark()
            .iter()
            .map(|m| {
                let v = overrides.iter().find(|(name, _)| *name == m.name).map_or(10.0, |o| o.1);
                format!("\"{}\":{{\"value\":{v},\"unit\":\"x\"}}", m.name)
            })
            .collect();
        format!(
            "{workload} {{\"attempted\":100,\"failed\":{failed},\"metrics\":{{{}}}}}",
            metrics.join(",")
        )
    }

    fn runs(lines: &[String]) -> Vec<Run> {
        parse_runs(&lines.join("\n")).expect("runs parse")
    }

    fn verdict(report: &Report, workload: &str, metric: &str) -> Verdict {
        let row = report.rows.iter().find(|r| r.workload == workload && r.metric == metric);
        row.expect("row present").verdict
    }

    /// `n` pairs: base `wall_s` at 10, head at 10 × `factor(i)`.
    fn wall_pairs(factor: impl Fn(usize) -> f64, n: usize) -> (Vec<Run>, Vec<Run>) {
        let base: Vec<String> = (0..n).map(|_| line("w", &[], 0)).collect();
        let head: Vec<String> =
            (0..n).map(|i| line("w", &[("wall_s", 10.0 * factor(i))], 0)).collect();
        (runs(&base), runs(&head))
    }

    #[test]
    fn reads_the_repository_benchmark() {
        let metrics = benchmark();
        assert_eq!(metrics.len(), 10);
        let find = |name: &str| metrics.iter().find(|m| m.name == name).unwrap();
        assert!(find("sim_refs_per_s").higher_is_better);
        assert!(!find("sim_accesses_per_proc").higher_is_better);
        assert_eq!(find("sim_accesses_per_proc").bound, 0.25);
        let bad = r#"{"end_to_end": [{"name": "x", "better": "up", "bound": 0.1}]}"#;
        assert!(parse_benchmark(bad).is_err());
        assert!(parse_benchmark("{}").is_err());
    }

    #[test]
    fn identical_inputs_are_clean() {
        let lines: Vec<String> = ["a", "b", "a", "b"].iter().map(|w| line(w, &[], 0)).collect();
        let report = compare(&benchmark(), &runs(&lines), &runs(&lines)).unwrap();
        assert_eq!(report.rows.len(), 2 * 11);
        assert!(report.rows.iter().flat_map(|r| r.ratio).all(|r| r == (1.0, 0.0)));
        assert!(report.to_text().contains("22 ok, 0 unresolved, 0 REGRESSED"));
    }

    #[test]
    fn a_30_percent_slowdown_with_little_jitter_regresses() {
        // The cross-host gate this replaced let any drop under 35 % through.
        let jitter = [1.0, 1.01, 0.99, 1.005, 0.995];
        let (base, head) = wall_pairs(|i| 1.30 * jitter[i], 5);
        let report = compare(&benchmark(), &base, &head).unwrap();
        assert_eq!(verdict(&report, "w", "wall_s"), Verdict::Regressed);
        assert_eq!(report.count(Verdict::Regressed), 1);
    }

    #[test]
    fn a_median_past_the_bound_inside_the_noise_is_unresolved() {
        // Pairs alternate 0.9x and 1.7x: +30 % in the median, MAD 0.4.
        let (base, head) = wall_pairs(|i| if i % 2 == 0 { 0.9 } else { 1.7 }, 6);
        let report = compare(&benchmark(), &base, &head).unwrap();
        assert_eq!(verdict(&report, "w", "wall_s"), Verdict::Unresolved);
        assert_eq!(report.count(Verdict::Regressed), 0);
    }

    #[test]
    fn more_failures_on_head_regress() {
        let base = runs(&[line("w", &[], 0), line("w", &[], 1)]);
        let head = runs(&[line("w", &[], 0), line("w", &[], 2)]);
        let report = compare(&benchmark(), &base, &head).unwrap();
        assert_eq!(verdict(&report, "w", "failed_frac"), Verdict::Regressed);
        // Fewer failures on head are fine.
        let report = compare(&benchmark(), &head, &base).unwrap();
        assert_eq!(verdict(&report, "w", "failed_frac"), Verdict::Ok);
    }

    #[test]
    fn an_exact_model_drift_past_the_bound_regresses() {
        let base = runs(&[line("w", &[("sim_accesses_per_proc", 100.0)], 0)]);
        let head = runs(&[line("w", &[("sim_accesses_per_proc", 126.0)], 0)]);
        let report = compare(&benchmark(), &base, &head).unwrap();
        assert_eq!(verdict(&report, "w", "sim_accesses_per_proc"), Verdict::Regressed);
        // A rate falls the other way: 10 → 7.9 is 1.266x worse.
        let head = runs(&[line("w", &[("sim_refs_per_s", 7.9)], 0)]);
        let report = compare(&benchmark(), &runs(&[line("w", &[], 0)]), &head).unwrap();
        assert_eq!(verdict(&report, "w", "sim_refs_per_s"), Verdict::Regressed);
    }

    #[test]
    fn mismatched_inputs_are_errors() {
        let metrics = benchmark();
        let error = |base: &[Run], head: &[Run]| compare(&metrics, base, head).unwrap_err();
        let one = runs(&[line("a", &[], 0)]);
        assert!(error(&one, &runs(&[line("a", &[], 0), line("a", &[], 0)])).contains("runs"));
        assert!(error(&[], &[]).contains("no runs"));
        assert!(error(&one, &runs(&[line("b", &[], 0)])).contains("measured"));
        let missing = runs(&["a {\"attempted\":1,\"failed\":0,\"metrics\":{}}".to_string()]);
        assert!(error(&one, &missing).contains("no metric"));
        assert!(error(&runs(&[line("a", &[("wall_s", 0.0)], 0)]), &one).contains("no ratio"));
        for bad in ["a", "a {\"metrics\":{}}", "a not-json"] {
            assert!(parse_runs(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn json_report_lists_every_row() {
        let lines = [line("a", &[], 0)];
        let report = compare(&benchmark(), &runs(&lines), &runs(&lines)).unwrap();
        let json = report.to_json().render();
        assert!(json.contains("\"regressed\":0"), "{json}");
        assert!(json.contains("\"failed_frac\""), "{json}");
        assert_eq!(json.matches("\"verdict\"").count(), 11);
    }
}
