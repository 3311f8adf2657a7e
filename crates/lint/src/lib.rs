//! **abs-lint** — a hermetic static-analysis pass for the workspace.
//!
//! Everything this reproduction claims — bit-identical cycle/event
//! kernels, seeded replay, overflow-free access and cycle accounting —
//! rests on *source-level* rules that the dynamic suites
//! (`kernel_equivalence`, `trace_identity`) can only sample. This crate
//! enforces those rules statically, with zero external dependencies like
//! the rest of the workspace. Every rule gates:
//!
//! * **determinism** — simulation crates must not use unordered
//!   collections, wall clocks, or unseeded randomness ([`rules`]).
//! * **hermeticity** — every `Cargo.toml` keeps the dependency closure
//!   inside the repository ([`manifest`]).
//! * **panic-path** — library non-test code must not `.unwrap()` /
//!   `.expect(…)` without a written-down invariant ([`rules`]).
//! * **unsafe-audit** — every `unsafe` carries a `SAFETY:` comment
//!   ([`rules`]).
//! * **arith** — no truncating casts or unchecked `+`/`*` on accounting
//!   counters in library code ([`rules`]).
//! * **contract-xref** — every `run_with` type is named by a
//!   kernel-equivalence test ([`xref`]).
//! * **allow-grammar** / **stale-allow** — every escape hatch is
//!   well-formed, justified, and still suppresses something.
//!
//! Scanning is built on a hand-rolled, lossless Rust [`tokenizer`] that is
//! comment-, string-, raw-string- and char-literal-aware, so a forbidden
//! name inside a doc comment or a string never produces a false positive;
//! the arith and contract-xref rules walk the same tokens with their
//! brackets matched. Each rule is individually toggleable per finding site
//! with an in-source escape hatch (grammar and catalog in `DESIGN.md`
//! §10). Reports render as `file:line` text diagnostics and as a JSON
//! document written to `repro_out/lint_report.json` ([`report`]).
//!
//! Run it as `cargo run -p abs-lint` (add `--json` for the report file).
//!
//! # Examples
//!
//! ```
//! use abs_lint::rules::{scan_source, Rule, SourcePolicy};
//!
//! let src = "use std::collections::HashMap;\n";
//! let (findings, _) = scan_source("demo.rs", src, SourcePolicy::sim_crate());
//! assert_eq!(findings[0].rule, Rule::Determinism);
//! assert_eq!(findings[0].line, 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod manifest;
pub mod report;
pub mod rules;
pub mod tokenizer;
pub mod workspace;
pub mod xref;

use std::path::{Path, PathBuf};

pub use report::Report;
pub use rules::{Allow, Finding, Rule, SourceFile, SourcePolicy};
pub use workspace::Workspace;

/// The workspace root this crate was built in (callers outside the repo
/// pass their own root to [`lint_workspace`]).
pub fn default_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Runs every rule over the workspace rooted at `root`.
///
/// Two-phase: first every source is tokenized and scanned raw (per-file
/// rules, then the workspace-level [`xref`] over all files); then allow
/// directives are applied uniformly, and any directive that suppressed
/// *nothing* in the raw set becomes a [`Rule::StaleAllow`] finding — the
/// escape hatches can never outlive the findings they justify.
pub fn lint_workspace(root: &Path) -> Result<Report, String> {
    let ws = Workspace::discover(root)?;
    let mut findings = ws.findings.clone();
    let mut allows = Vec::new();
    let mut files = Vec::new();

    for entry in &ws.sources {
        let text = std::fs::read_to_string(&entry.path)
            .map_err(|e| format!("cannot read {}: {e}", entry.path.display()))?;
        let file = SourceFile::new(&entry.rel, &text, entry.policy);
        let (f, a) = rules::scan_file(&file);
        findings.extend(f);
        allows.extend(a);
        files.push(file);
    }
    for (path, rel) in &ws.manifests {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let (f, a) = manifest::scan_manifest_raw(rel, &text);
        findings.extend(f);
        allows.extend(a);
    }
    findings.extend(xref::contract_xref(&files));

    // Uniform suppression over the merged raw set, then staleness: a
    // directive must cover at least one raw finding to earn its keep.
    let raw = findings.clone();
    findings.retain(|f| {
        f.rule == Rule::AllowGrammar
            || !allows
                .iter()
                .any(|a| a.file == f.file && a.covers(f.rule, f.line))
    });
    for allow in &allows {
        let used = raw
            .iter()
            .any(|f| f.file == allow.file && allow.covers(f.rule, f.line));
        if !used {
            let names: Vec<&str> = allow.rules.iter().map(|r| r.name()).collect();
            findings.push(rules::Finding::new(
                Rule::StaleAllow,
                allow.file.clone(),
                allow.line,
                format!(
                    "allow({}) no longer suppresses any finding; delete the stale directive",
                    names.join(", ")
                ),
            ));
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    allows.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Report {
        root: root.display().to_string(),
        findings,
        allows,
        files_scanned: ws.sources.len(),
        manifests_scanned: ws.manifests.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn this_workspace_is_clean() {
        // The acceptance gate: the tree the lint ships in passes its own
        // pass. Every historical finding was either fixed or explicitly
        // allowlisted with a justification.
        let report = lint_workspace(&default_root()).expect("lint runs");
        assert!(
            report.is_clean(),
            "the workspace must lint clean:\n{}",
            report.to_text()
        );
        assert!(report.files_scanned >= 80, "{}", report.files_scanned);
        assert!(report.manifests_scanned >= 11, "{}", report.manifests_scanned);
    }

    #[test]
    fn every_allow_carries_a_justification() {
        let report = lint_workspace(&default_root()).expect("lint runs");
        for allow in &report.allows {
            assert!(
                !allow.justification.trim().is_empty(),
                "{}:{} allow has no justification",
                allow.file,
                allow.line
            );
        }
    }

    #[test]
    fn seeded_violation_is_caught() {
        // Reintroduce one violation into a real source under its crate's
        // real policy, then run the per-file and workspace-level rules over
        // the whole tree: a rule that goes blind on real sources, not only
        // on fixtures, fails here. The offset is the poisoned line within
        // the appended text.
        let cases = [
            (
                "crates/coherence/src/system.rs",
                "use std::collections::HashMap;\n",
                Rule::Determinism,
                1,
            ),
            (
                "crates/core/src/barrier.rs",
                "impl BarrierSim {\n    fn seeded(&mut self) {\n        self.accesses += 1;\n    }\n}\n",
                Rule::Arith,
                3,
            ),
            (
                "crates/core/src/barrier.rs",
                "pub struct SeededSim;\n\nimpl SeededSim {\n    pub fn run_with(&self) {}\n}\n",
                Rule::ContractXref,
                3,
            ),
        ];
        let ws = Workspace::discover(&default_root()).expect("workspace discovers");
        for (rel, poison, rule, offset) in cases {
            let mut line = 0;
            let files: Vec<SourceFile> = ws
                .sources
                .iter()
                .map(|entry| {
                    let mut text = std::fs::read_to_string(&entry.path).expect("source reads");
                    if entry.rel == rel {
                        line = text.lines().count() as u32 + offset;
                        text.push_str(poison);
                    }
                    SourceFile::new(&entry.rel, &text, entry.policy)
                })
                .collect();
            assert!(line > 0, "{rel} not discovered");
            let mut findings = xref::contract_xref(&files);
            for file in &files {
                findings.extend(rules::scan_file(file).0);
            }
            assert!(
                findings
                    .iter()
                    .any(|f| f.rule == rule && f.file == rel && f.line == line),
                "{rule} not caught at {rel}:{line}: {findings:?}"
            );
        }
    }
}
