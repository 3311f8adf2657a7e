//! The contract cross-reference ([`Rule::ContractXref`]): every type whose
//! `impl` block defines `run_with` must be named by a kernel-equivalence
//! test, keeping the bit-identity contract suite in lockstep with the
//! simulators.
//!
//! A kernel-equivalence test is a test region that defines a fn whose
//! name contains `kernels_` (`kernels_bit_identical`,
//! `property_barrier_kernels_bit_identical`, …). Test regions are the
//! `#[cfg(test)]`/`#[test]` items of library files and the whole of every
//! test/bench/example file. Both sides are plain token scans, so a
//! `run_with` inside a string, a comment or test code never counts.

use std::collections::BTreeSet;

use crate::rules::{Code, Finding, Rule, SourceFile};

/// Runs the cross-reference over every source file of the workspace.
pub fn contract_xref(files: &[SourceFile]) -> Vec<Finding> {
    let mut corpus = String::new();
    for file in files {
        let whole = 0..file.tokens.len();
        let regions = if file.policy.panic_path {
            file.test_regions.as_slice()
        } else {
            std::slice::from_ref(&whole)
        };
        for region in regions {
            let code = Code::new(&file.tokens[region.clone()]);
            let defines_kernels_fn = (0..code.len()).any(|ci| {
                code.is_kw(ci, "fn") && code.name(ci + 1).is_some_and(|n| n.contains("kernels_"))
            });
            if defines_kernels_fn {
                corpus.push_str(&file.text_of(region.clone()));
                corpus.push('\n');
            }
        }
    }

    let mut seen = BTreeSet::new();
    let mut findings = Vec::new();
    for file in files.iter().filter(|f| f.policy.panic_path) {
        for (ty, line) in run_with_impls(file) {
            if seen.insert(ty.clone()) && !contains_word(&corpus, &ty) {
                findings.push(Finding::new(
                    Rule::ContractXref,
                    file.rel.clone(),
                    line,
                    format!(
                        "type `{ty}` defines `run_with` but no kernel-equivalence test \
                         (`kernels_*`) names it; add it to the bit-identity suite or \
                         justify with an allow"
                    ),
                ));
            }
        }
    }
    findings
}

/// `(self type, line)` of every non-test `impl … { fn run_with` block.
fn run_with_impls(file: &SourceFile) -> Vec<(String, u32)> {
    let code = Code::new(&file.tokens);
    let in_test = |ci: usize| file.test_regions.iter().any(|r| r.contains(&code.at[ci]));
    let mut out = Vec::new();
    for ci in 0..code.len() {
        // An `impl` in item position; `-> impl Trait` and `x: impl Trait`
        // are types.
        let item_position =
            ci == 0 || matches!(code.text(ci - 1), ";" | "{" | "}" | "]" | "unsafe");
        if !code.is_kw(ci, "impl") || !item_position || in_test(ci) {
            continue;
        }
        let Some(open) = code.body_open(ci) else {
            continue;
        };
        let close = code.partner[open];
        let mut depth = 0usize;
        let mut defines = false;
        for cj in open + 1..close {
            match code.text(cj) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth = depth.saturating_sub(1),
                _ if depth == 0 && code.is_kw(cj, "fn") && code.text(cj + 1) == "run_with" => {
                    defines = true;
                }
                _ => {}
            }
        }
        if let Some(ty) = self_type(&code, ci + 1, open).filter(|_| defines) {
            out.push((ty.to_string(), code.toks[ci].line));
        }
    }
    out
}

/// The self type of the impl header spanning code `lo..hi`: the last
/// identifier outside `<…>` after any `for`, before any `where`
/// (`impl<T> Foo<T>` and `impl Trait for Foo<u32>` both give `Foo`).
fn self_type<'c>(code: &'c Code, lo: usize, hi: usize) -> Option<&'c str> {
    let mut angle = 0usize;
    let mut ty = None;
    for ci in lo..hi {
        match code.text(ci) {
            "<" => angle += 1,
            ">" => angle = angle.saturating_sub(1),
            "where" => break,
            "for" if angle == 0 => ty = None,
            _ if angle == 0 => ty = code.name(ci).or(ty),
            _ => {}
        }
    }
    ty
}

/// Whole-word containment (neighbors must not be identifier characters).
fn contains_word(haystack: &str, word: &str) -> bool {
    if word.is_empty() {
        return false;
    }
    let bytes = haystack.as_bytes();
    let mut from = 0;
    while let Some(at) = haystack[from..].find(word) {
        let start = from + at;
        let end = start + word.len();
        let left_ok = start == 0 || !is_ident_byte(bytes[start - 1]);
        let right_ok = end >= bytes.len() || !is_ident_byte(bytes[end]);
        if left_ok && right_ok {
            return true;
        }
        from = start + 1;
    }
    false
}

fn is_ident_byte(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_'
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::SourcePolicy;

    fn lib(src: &str) -> SourceFile {
        SourceFile::new("crates/core/src/sim.rs", src, SourcePolicy::sim_crate())
    }

    fn suite(src: &str) -> SourceFile {
        SourceFile::new("crates/core/tests/eq.rs", src, SourcePolicy::test_code())
    }

    #[test]
    fn contract_xref_requires_a_kernels_test() {
        let sim = "pub struct Sim;\nimpl Sim {\n    pub fn run_with(&self, seed: u64, kernel: u8) {}\n}\n";
        let f = contract_xref(&[lib(sim)]);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::ContractXref);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("`Sim`"));

        // Naming the type in a kernels_* test scope satisfies the rule.
        let eq = "#[test]\nfn kernels_bit_identical() { let _ = Sim; }\n";
        assert!(contract_xref(&[lib(sim), suite(eq)]).is_empty());
        // So does an in-file test module that defines one.
        let in_file = format!("{sim}#[cfg(test)]\nmod tests {{ fn kernels_eq() {{ Sim; }} }}\n");
        assert!(contract_xref(&[lib(&in_file)]).is_empty());
    }

    #[test]
    fn contract_xref_word_boundaries() {
        // `MySim` in the corpus must not satisfy the lookup for `Sim`.
        let sim = "pub struct Sim;\nimpl Sim { pub fn run_with(&self) {} }\n";
        let eq = "#[test]\nfn kernels_eq() { let _ = MySim; }\n";
        assert_eq!(contract_xref(&[lib(sim), suite(eq)]).len(), 1);
    }

    #[test]
    fn only_kernels_test_regions_count() {
        // A test that names the type without defining a kernels_* fn, and
        // a `kernels_` that only appears in a string, cover nothing.
        let sim = "pub struct Sim;\nimpl Sim { pub fn run_with(&self) {} }\n";
        let eq = "#[test]\nfn smoke() { let _ = Sim; let _ = \"kernels_x\"; }\n";
        assert_eq!(contract_xref(&[lib(sim), suite(eq)]).len(), 1);
    }

    #[test]
    fn impl_headers_resolve_the_self_type() {
        for (src, ty) in [
            ("impl<T: Clone> Foo<T> { fn run_with(&self) {} }", "Foo"),
            (
                "impl fmt::Display for Foo<u32> { fn run_with(&self) {} }",
                "Foo",
            ),
            ("impl abs_sim::Kernel { fn run_with() {} }", "Kernel"),
            ("impl<K> Sim<K> where K: Clone { fn run_with() {} }", "Sim"),
        ] {
            let found = run_with_impls(&lib(src));
            assert_eq!(found, [(ty.to_string(), 1)], "{src}");
        }
    }

    #[test]
    fn non_impl_run_with_sites_are_ignored() {
        for src in [
            "fn run_with() {}",
            "impl Sim { fn other(&self) { fn run_with() {} } }",
            "fn f() -> impl Iterator<Item = u64> { fn run_with() {} }",
            "#[cfg(test)]\nmod tests { impl Sim { fn run_with(&self) {} } }",
            "// impl Sim { fn run_with(&self) {} }",
        ] {
            assert!(run_with_impls(&lib(src)).is_empty(), "{src}");
        }
    }
}
