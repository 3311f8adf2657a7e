//! Fixture-driven rule coverage: for every rule, one positive fixture that
//! must produce findings and one allowlisted/negative fixture that must
//! scan clean. The fixtures live under `tests/fixtures/`, which workspace
//! discovery deliberately skips (they are written to violate the rules).

use std::path::PathBuf;

use abs_lint::manifest::scan_manifest;
use abs_lint::rules::{scan_source, Rule, SourcePolicy};

fn rules_of(findings: &[abs_lint::Finding]) -> Vec<Rule> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn determinism_positive_fixture() {
    let src = include_str!("fixtures/determinism_bad.rs");
    let (findings, allows) = scan_source("fixture.rs", src, SourcePolicy::sim_crate());
    assert!(allows.is_empty());
    assert!(
        findings.len() >= 3,
        "expected HashMap x2 + Instant findings, got {findings:?}"
    );
    assert!(rules_of(&findings).iter().all(|&r| r == Rule::Determinism));
    assert!(findings.iter().any(|f| f.line == 2 && f.message.contains("HashMap")));
    assert!(findings.iter().any(|f| f.message.contains("Instant")));
    // The same file is clean under a harness-crate policy.
    let (harness, _) = scan_source("fixture.rs", src, SourcePolicy::harness_crate());
    assert!(harness.is_empty(), "{harness:?}");
}

#[test]
fn determinism_allowlisted_fixture_is_clean() {
    let src = include_str!("fixtures/determinism_allowed.rs");
    let (findings, allows) = scan_source("fixture.rs", src, SourcePolicy::sim_crate());
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(allows.len(), 2);
    assert!(allows.iter().all(|a| !a.justification.is_empty()));
}

#[test]
fn panic_path_positive_fixture() {
    let src = include_str!("fixtures/panic_bad.rs");
    let (findings, _) = scan_source("fixture.rs", src, SourcePolicy::harness_crate());
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(rules_of(&findings).iter().all(|&r| r == Rule::PanicPath));
    assert!(findings.iter().all(|f| f.line == 3), "{findings:?}");
    // Benches/examples/tests are exempt wholesale.
    let (test_code, _) = scan_source("fixture.rs", src, SourcePolicy::test_code());
    assert!(test_code.is_empty());
}

#[test]
fn panic_path_allowlisted_fixture_is_clean() {
    let src = include_str!("fixtures/panic_allowed.rs");
    let (findings, allows) = scan_source("fixture.rs", src, SourcePolicy::sim_crate());
    assert!(findings.is_empty(), "{findings:?}");
    assert_eq!(allows.len(), 1);
    assert!(allows[0].justification.contains("is_some"));
}

#[test]
fn unsafe_positive_and_negative_fixtures() {
    let bad = include_str!("fixtures/unsafe_bad.rs");
    let (findings, _) = scan_source("fixture.rs", bad, SourcePolicy::test_code());
    assert_eq!(findings.len(), 1, "{findings:?}");
    assert_eq!(findings[0].rule, Rule::UnsafeAudit);
    assert_eq!(findings[0].line, 3);

    let good = include_str!("fixtures/unsafe_ok.rs");
    let (findings, _) = scan_source("fixture.rs", good, SourcePolicy::test_code());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn cfg_test_items_are_exempt_fixture() {
    let src = include_str!("fixtures/cfg_test_skip.rs");
    let (findings, _) = scan_source("fixture.rs", src, SourcePolicy::sim_crate());
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn hermeticity_positive_fixture() {
    let toml = include_str!("fixtures/hermetic_bad.toml");
    let (findings, _) = scan_manifest("fixture/Cargo.toml", toml);
    assert_eq!(findings.len(), 6, "{findings:?}");
    assert!(rules_of(&findings).iter().all(|&r| r == Rule::Hermeticity));
    assert!(findings.iter().any(|f| f.message.contains("build = ")));
    assert!(findings.iter().any(|f| f.message.contains("git")));
    assert!(findings.iter().any(|f| f.message.contains("[build-dependencies]")));
    assert!(findings.iter().any(|f| f.message.contains("dep:serde_json")));
}

#[test]
fn hermeticity_negative_fixture_is_clean() {
    let toml = include_str!("fixtures/hermetic_ok.toml");
    let (findings, allows) = scan_manifest("fixture/Cargo.toml", toml);
    assert!(findings.is_empty(), "{findings:?}");
    assert!(allows.is_empty());
}

#[test]
fn stale_and_unknown_allows_are_findings() {
    // A minimal workspace root whose only source carries one directive
    // that covers nothing and one naming a rule that no longer exists.
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("stale_allow_root");
    std::fs::create_dir_all(root.join("src")).expect("temp root");
    std::fs::write(root.join("Cargo.toml"), "[package]\nname = \"demo\"\n").expect("manifest");
    std::fs::write(
        root.join("src/lib.rs"),
        "// abs-lint: allow(panic-path) -- nothing below unwraps\n\
         pub fn f() {}\n\
         // abs-lint: allow(panic-deep) -- a retired rule\n\
         pub fn g(v: &[u64], i: usize) -> u64 { v[i] }\n",
    )
    .expect("source");
    let report = abs_lint::lint_workspace(&root).expect("lint runs");
    let stale: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::StaleAllow)
        .collect();
    assert_eq!(stale.len(), 1, "{:?}", report.findings);
    assert_eq!((stale[0].file.as_str(), stale[0].line), ("src/lib.rs", 1));
    let grammar: Vec<_> = report
        .findings
        .iter()
        .filter(|f| f.rule == Rule::AllowGrammar)
        .collect();
    assert_eq!(grammar.len(), 1, "{:?}", report.findings);
    assert_eq!(grammar[0].line, 3);
    assert!(
        grammar[0].message.contains("unknown rule \"panic-deep\""),
        "{}",
        grammar[0].message
    );
    assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
    assert!(!report.is_clean());
}
