//! Positive/negative fixtures for the arith and contract-xref rules.
//!
//! Each fixture under `tests/fixtures/` is a real source file (excluded
//! from the workspace lint walk by the `fixtures` directory rule): the
//! positive one must trip its rule, the negative one must scan clean —
//! so a rule that goes blind *or* trigger-happy fails this suite before
//! it ever gates CI.

use abs_lint::rules::{scan_source, Rule, SourceFile, SourcePolicy};
use abs_lint::xref::contract_xref;

fn count(findings: &[abs_lint::Finding], rule: Rule) -> usize {
    findings.iter().filter(|f| f.rule == rule).count()
}

#[test]
fn arith_positive_fixture_trips_every_site() {
    let src = include_str!("fixtures/arith_positive.rs");
    let (findings, _) = scan_source("fixtures/arith_positive.rs", src, SourcePolicy::sim_crate());
    // One truncating cast, two compound assignments, one binary `+`, one
    // binary `*` — five sites.
    assert_eq!(count(&findings, Rule::Arith), 5, "{findings:?}");
    let lines: Vec<u32> = findings.iter().map(|f| f.line).collect();
    assert_eq!(lines, [7, 18, 19, 24, 29], "{findings:?}");
}

#[test]
fn arith_negative_fixture_is_clean() {
    let src = include_str!("fixtures/arith_negative.rs");
    let (findings, _) = scan_source("fixtures/arith_negative.rs", src, SourcePolicy::sim_crate());
    assert_eq!(count(&findings, Rule::Arith), 0, "{findings:?}");
}

fn xref_with(test_suite: &str) -> Vec<abs_lint::Finding> {
    let sim = SourceFile::new(
        "crates/demo/src/sim.rs",
        include_str!("fixtures/contract_xref_sim.rs"),
        SourcePolicy::sim_crate(),
    );
    let suite = SourceFile::new(
        "crates/demo/tests/equivalence.rs",
        test_suite,
        SourcePolicy::test_code(),
    );
    contract_xref(&[sim, suite])
}

#[test]
fn contract_xref_flags_an_uncovered_run_with_type() {
    let findings = xref_with(include_str!("fixtures/contract_xref_uncovered_test.rs"));
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::ContractXref);
    assert_eq!(findings[0].line, 8);
    assert!(
        findings[0].message.contains("DemoSim"),
        "{}",
        findings[0].message
    );
}

#[test]
fn contract_xref_accepts_a_covered_run_with_type() {
    let findings = xref_with(include_str!("fixtures/contract_xref_covered_test.rs"));
    assert!(findings.is_empty(), "{findings:?}");
}
