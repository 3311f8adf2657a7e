//! The rule engine: token-level checks over one Rust source file.
//!
//! Five per-file rules protect the reproduction's determinism and
//! accounting claims (the catalog with full rationale lives in
//! `DESIGN.md` §10):
//!
//! * **determinism** — simulation crates must not name unordered
//!   collections (`HashMap`/`HashSet`/`RandomState`), wall clocks
//!   (`Instant`/`SystemTime`), or ambient randomness (`thread_rng`). Any
//!   of these can silently change results between runs or hosts.
//! * **panic-path** — library non-test code must not call `.unwrap()` or
//!   `.expect(…)`; a panic mid-simulation aborts a whole `repro` job and
//!   the escape hatch forces the invariant to be written down.
//! * **unsafe-audit** — every `unsafe` occurrence needs a `// SAFETY:`
//!   comment within the three preceding lines.
//! * **arith** — inside library fn bodies, a truncating `as` cast to a
//!   narrower integer with a non-literal operand, and unchecked `+`/`*`
//!   (including `+=`/`*=`) whose operand is an accounting counter
//!   ([`ACCOUNTING_VOCAB`]). At N = 2²⁰ one silent wrap corrupts an
//!   exhibit, so these demand `checked_`/`saturating_`/widening
//!   arithmetic or a justified allow.
//! * **allow-grammar** — the escape hatch itself must be well-formed and
//!   carry a justification.
//!
//! The workspace-level rules live elsewhere: hermeticity in
//! [`crate::manifest`], contract-xref in [`crate::xref`], stale-allow in
//! [`crate::lint_workspace`].
//!
//! The escape hatch is an in-source comment that must *begin* the comment
//! (so prose mentioning the grammar is inert) and suppresses matching
//! findings on its own line and the line below:
//!
//! ```text
//! # abs-lint escape hatch, quoted so this doc comment stays inert:
//! #   abs-lint: allow(<rule>[, <rule>…]) -- <justification>
//! ```
//!
//! Test code (items under `#[cfg(test)]` or `#[test]`) is exempt from the
//! determinism, panic-path and arith rules but not from the unsafe audit.

use std::fmt;
use std::ops::Range;

use crate::tokenizer::{tokenize, TokKind, Token};

/// The rule catalog. Every rule gates: a tree is clean exactly when no
/// finding survives its allow directives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Unordered collections, wall clocks, ambient RNG in sim crates.
    Determinism,
    /// Manifest policy: path-only deps, no build scripts, no externals.
    Hermeticity,
    /// `.unwrap()` / `.expect(…)` in library non-test code.
    PanicPath,
    /// `unsafe` without an adjacent `SAFETY:` comment.
    UnsafeAudit,
    /// Malformed `abs-lint: allow(…)` directives.
    AllowGrammar,
    /// Truncating casts / unchecked `+`·`*` on accounting state.
    Arith,
    /// `run_with` types not named by any kernel-equivalence test
    /// ([`crate::xref`]).
    ContractXref,
    /// An allow directive that no longer suppresses anything
    /// ([`crate::lint_workspace`]).
    StaleAllow,
}

impl Rule {
    /// The rules an `allow(…)` directive may name: everything except the
    /// grammar rule (which guards the directives themselves) and the
    /// staleness rule (allowing a stale allow would be self-defeating).
    pub const ALLOWABLE: [Rule; 6] = [
        Rule::Determinism,
        Rule::Hermeticity,
        Rule::PanicPath,
        Rule::UnsafeAudit,
        Rule::Arith,
        Rule::ContractXref,
    ];

    /// The kebab-case rule name used in directives and reports.
    pub fn name(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::Hermeticity => "hermeticity",
            Rule::PanicPath => "panic-path",
            Rule::UnsafeAudit => "unsafe-audit",
            Rule::AllowGrammar => "allow-grammar",
            Rule::Arith => "arith",
            Rule::ContractXref => "contract-xref",
            Rule::StaleAllow => "stale-allow",
        }
    }

    /// Parses a directive rule name.
    pub fn from_name(name: &str) -> Option<Rule> {
        Rule::ALLOWABLE.into_iter().find(|r| r.name() == name)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One diagnostic: a rule violated at `file:line`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The violated rule.
    pub rule: Rule,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Human-readable explanation.
    pub message: String,
}

impl Finding {
    /// A finding of `rule` at `file:line`.
    pub fn new(rule: Rule, file: impl Into<String>, line: u32, message: impl Into<String>) -> Self {
        Finding {
            rule,
            file: file.into(),
            line,
            message: message.into(),
        }
    }
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// One parsed escape-hatch directive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// Rules the directive suppresses.
    pub rules: Vec<Rule>,
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line of the directive comment.
    pub line: u32,
    /// The mandatory justification after `--`.
    pub justification: String,
}

impl Allow {
    /// Whether this directive suppresses a finding of `rule` on `line`
    /// (the directive's own line, for trailing comments, or the line
    /// directly below, for directives placed above the offending line).
    pub fn covers(&self, rule: Rule, line: u32) -> bool {
        self.rules.contains(&rule) && (line == self.line || line == self.line + 1)
    }
}

/// Which rules apply to one source file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SourcePolicy {
    /// Apply the determinism rule (simulation crates only).
    pub determinism: bool,
    /// Apply the library-code rules: panic-path and arith (not
    /// tests/benches).
    pub panic_path: bool,
}

impl SourcePolicy {
    /// Policy for simulation-crate library sources.
    pub fn sim_crate() -> Self {
        Self {
            determinism: true,
            panic_path: true,
        }
    }

    /// Policy for harness/tooling library sources (`abs-exec`, `abs-obs`,
    /// `abs-bench`, `abs-lint`, the facade).
    pub fn harness_crate() -> Self {
        Self {
            determinism: false,
            panic_path: true,
        }
    }

    /// Policy for test/bench/example sources: unsafe audit only.
    pub fn test_code() -> Self {
        Self {
            determinism: false,
            panic_path: false,
        }
    }
}

/// Identifiers the determinism rule forbids in simulation crates, with the
/// reason each endangers reproducibility.
const DETERMINISM_BANS: &[(&str, &str)] = &[
    (
        "HashMap",
        "iteration order is unspecified and varies across runs; use BTreeMap",
    ),
    (
        "HashSet",
        "iteration order is unspecified and varies across runs; use BTreeSet",
    ),
    (
        "RandomState",
        "randomized hashing makes any derived order run-dependent",
    ),
    (
        "Instant",
        "wall-clock reads do not replay; use the simulated cycle clock",
    ),
    (
        "SystemTime",
        "wall-clock reads do not replay; use the simulated cycle clock",
    ),
    (
        "thread_rng",
        "ambient RNG is unseeded; use abs_sim::rng seeded from the run seed",
    ),
];

/// Counters whose silent overflow or truncation corrupts an exhibit: the
/// access/cycle/occupancy accounting vocabulary shared by the sim crates.
pub const ACCOUNTING_VOCAB: &[&str] = &[
    "accesses",
    "total_accesses",
    "var_accesses",
    "sync_accesses",
    "presented",
    "served",
    "denied",
    "busy_cycles",
    "idle_cycles",
    "cycles",
    "completion",
    "queued",
    "flag_set_at",
];

/// Integer types an `as` cast may truncate into.
const NARROW_TARGETS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// Rust keywords (idents that are never operand names).
const KEYWORDS: &[&str] = &[
    "as", "async", "await", "break", "const", "continue", "crate", "dyn", "else", "enum",
    "extern", "false", "fn", "for", "if", "impl", "in", "let", "loop", "match", "mod", "move",
    "mut", "pub", "ref", "return", "self", "Self", "static", "struct", "super", "trait", "true",
    "type", "unsafe", "use", "where", "while",
];

/// One tokenized source file: the unit every rule scans.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path.
    pub rel: String,
    /// The rule policy [`crate::workspace`] assigned to the file.
    pub policy: SourcePolicy,
    /// The lossless token stream.
    pub tokens: Vec<Token>,
    /// Token ranges of the outermost `#[cfg(test)]`/`#[test]` items.
    pub test_regions: Vec<Range<usize>>,
}

impl SourceFile {
    /// Tokenizes one source file and finds its test regions.
    pub fn new(rel: &str, text: &str, policy: SourcePolicy) -> Self {
        let tokens = tokenize(text);
        let test_regions = test_regions(&tokens);
        SourceFile {
            rel: rel.to_string(),
            policy,
            tokens,
            test_regions,
        }
    }

    /// Source text of a token range.
    pub fn text_of(&self, range: Range<usize>) -> String {
        self.tokens[range].iter().map(|t| t.text.as_str()).collect()
    }

    /// Whether each token lies inside a test region.
    fn test_mask(&self) -> Vec<bool> {
        let mut mask = vec![false; self.tokens.len()];
        for region in &self.test_regions {
            mask[region.clone()].fill(true);
        }
        mask
    }
}

/// The code tokens of a file (whitespace and comments dropped) with their
/// brackets matched: the walk the arith and contract-xref rules run on.
pub(crate) struct Code<'a> {
    /// Code tokens in source order.
    pub toks: Vec<&'a Token>,
    /// Each code token's index in the full token stream.
    pub at: Vec<usize>,
    /// For a bracket, the code index of its partner (the last token for
    /// an unclosed opener); for any other token, its own index.
    pub partner: Vec<usize>,
}

impl<'a> Code<'a> {
    pub fn new(tokens: &'a [Token]) -> Self {
        let (at, toks): (Vec<usize>, Vec<&Token>) = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_code())
            .unzip();
        let mut partner: Vec<usize> = (0..toks.len()).collect();
        let mut open = Vec::new();
        for (ci, t) in toks.iter().enumerate() {
            match t.text.as_str() {
                "(" | "[" | "{" => open.push(ci),
                ")" | "]" | "}" => {
                    if let Some(o) = open.pop() {
                        partner[o] = ci;
                        partner[ci] = o;
                    }
                }
                _ => {}
            }
        }
        for o in open {
            partner[o] = toks.len() - 1;
        }
        Code { toks, at, partner }
    }

    pub fn len(&self) -> usize {
        self.toks.len()
    }

    /// Text of code token `ci` (empty past the end).
    pub fn text(&self, ci: usize) -> &str {
        self.toks.get(ci).map_or("", |t| t.text.as_str())
    }

    /// Whether code token `ci` is the identifier `word`.
    pub fn is_kw(&self, ci: usize, word: &str) -> bool {
        self.toks
            .get(ci)
            .is_some_and(|t| t.kind == TokKind::Ident && t.text == word)
    }

    /// A non-keyword identifier at `ci`, if there is one.
    pub fn name(&self, ci: usize) -> Option<&str> {
        self.toks
            .get(ci)
            .filter(|t| t.kind == TokKind::Ident && !KEYWORDS.contains(&t.text.as_str()))
            .map(|t| t.text.as_str())
    }

    /// The code index of the `{` opening the body of the item whose
    /// keyword sits at `ci`: the first `{` at the keyword's own depth,
    /// stepping over `(…)` and `[…]`. `None` when a `;` or an enclosing
    /// closer comes first (a body-less item).
    pub fn body_open(&self, ci: usize) -> Option<usize> {
        let mut cj = ci + 1;
        while cj < self.len() {
            match self.text(cj) {
                "{" => return Some(cj),
                "(" | "[" => cj = self.partner[cj],
                ";" | ")" | "]" | "}" => return None,
                _ => {}
            }
            cj += 1;
        }
        None
    }
}

/// Scans one Rust source file. Returns surviving findings (allow
/// directives already applied) plus every well-formed directive, for the
/// report's audit trail.
pub fn scan_source(rel_path: &str, text: &str, policy: SourcePolicy) -> (Vec<Finding>, Vec<Allow>) {
    let (mut findings, allows) = scan_file(&SourceFile::new(rel_path, text, policy));
    findings.retain(|f| {
        f.rule == Rule::AllowGrammar || !allows.iter().any(|a| a.covers(f.rule, f.line))
    });
    (findings, allows)
}

/// Runs every per-file rule and returns each finding *before* allow
/// suppression, plus the file's directives. [`crate::lint_workspace`]
/// needs the raw set to decide which allows are stale, and applies
/// suppression itself after merging in the workspace-level rules.
pub fn scan_file(file: &SourceFile) -> (Vec<Finding>, Vec<Allow>) {
    let rel_path = file.rel.as_str();
    let policy = file.policy;
    let tokens = &file.tokens;
    let mut findings = Vec::new();
    let mut allows = Vec::new();

    for token in tokens {
        if let TokKind::LineComment | TokKind::BlockComment = token.kind {
            match parse_directive(&token.text) {
                DirectiveParse::NotADirective => {}
                DirectiveParse::Ok { rules, justification } => allows.push(Allow {
                    rules,
                    file: rel_path.to_string(),
                    line: token.line,
                    justification,
                }),
                DirectiveParse::Malformed(why) => {
                    findings.push(Finding::new(Rule::AllowGrammar, rel_path, token.line, why))
                }
            }
        }
    }

    let in_test = file.test_mask();
    let safety_lines = safety_comment_lines(tokens);
    let code = Code::new(tokens);

    for (ci, token) in code.toks.iter().enumerate() {
        if token.kind != TokKind::Ident {
            continue;
        }
        let library = !in_test[code.at[ci]];
        if policy.determinism && library {
            if let Some((_, reason)) = DETERMINISM_BANS.iter().find(|(n, _)| *n == token.text) {
                findings.push(Finding::new(
                    Rule::Determinism,
                    rel_path,
                    token.line,
                    format!("`{}` in simulation code: {reason}", token.text),
                ));
            }
        }
        if policy.panic_path
            && library
            && (token.text == "unwrap" || token.text == "expect")
            && ci > 0
            && code.text(ci - 1) == "."
            && code.text(ci + 1) == "("
        {
            findings.push(Finding::new(
                Rule::PanicPath,
                rel_path,
                token.line,
                format!(
                    "`.{}(…)` in library code: panics abort the whole repro job; \
                     return an error or justify the invariant via the allow directive",
                    token.text
                ),
            ));
        }
        if token.text == "unsafe" {
            let documented = safety_lines
                .iter()
                .any(|&l| l <= token.line && token.line.saturating_sub(l) <= 3);
            if !documented {
                findings.push(Finding::new(
                    Rule::UnsafeAudit,
                    rel_path,
                    token.line,
                    "`unsafe` without a `SAFETY:` comment within the three \
                     preceding lines",
                ));
            }
        }
    }

    if policy.panic_path {
        let in_body = fn_bodies(&code);
        for ci in 0..code.len() {
            if in_body[ci] && !in_test[code.at[ci]] {
                if let Some(finding) = arith_at(&code, ci, rel_path) {
                    findings.push(finding);
                }
            }
        }
    }

    findings.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    (findings, allows)
}

/// Which code tokens lie inside the body of some `fn` item.
fn fn_bodies(code: &Code) -> Vec<bool> {
    let mut mask = vec![false; code.len()];
    for ci in 0..code.len() {
        // `fn name` opens an item; `fn(…)` is a pointer type. A fn nested
        // in a marked body is already covered by its parent.
        if mask[ci] || !code.is_kw(ci, "fn") || code.name(ci + 1).is_none() {
            continue;
        }
        if let Some(open) = code.body_open(ci) {
            mask[open..=code.partner[open]].fill(true);
        }
    }
    mask
}

/// The arith rule at code token `ci`: a truncating `as` cast, or an
/// unchecked `+`/`*` (plain or compound) touching an accounting counter.
fn arith_at(code: &Code, ci: usize, rel_path: &str) -> Option<Finding> {
    let token = code.toks[ci];
    let prev = ci.checked_sub(1).map(|p| code.toks[p]);
    let message = match (token.kind, token.text.as_str()) {
        (TokKind::Ident, "as") => {
            let target = code.text(ci + 1);
            // A literal operand is visibly in range; an opener means `as`
            // has no operand in this group.
            let operand = prev.filter(|p| {
                !matches!(p.kind, TokKind::Number | TokKind::Char)
                    && !matches!(p.text.as_str(), "(" | "[" | "{")
            });
            if !NARROW_TARGETS.contains(&target) || operand.is_none() {
                return None;
            }
            format!(
                "truncating `as {target}` on a non-literal value silently wraps at \
                 scale; use `{target}::try_from(…)`, widen the type, or add a \
                 justified allow"
            )
        }
        (TokKind::Punct, op @ ("+" | "*")) => {
            if code.text(ci + 1) == "=" {
                // `counter += …` / `counter *= …`: the target is the chain
                // ending right before the operator.
                let target = name_before(code, ci).filter(|t| ACCOUNTING_VOCAB.contains(t))?;
                format!(
                    "unchecked `{op}=` on accounting counter `{target}`: overflow \
                     wraps silently; use `saturating_`/`checked_` arithmetic or \
                     add a justified allow"
                )
            } else {
                // Binary form. A `*` with no value to its left is a deref;
                // after a `}` it starts a statement.
                let valueish = prev.is_some_and(|p| {
                    code.name(ci - 1).is_some()
                        || p.kind == TokKind::Number
                        || matches!(p.text.as_str(), ")" | "]")
                        || (p.text == "}" && op == "+")
                });
                if !valueish {
                    return None;
                }
                let ident = [name_before(code, ci), name_after(code, ci + 1)]
                    .into_iter()
                    .flatten()
                    .find(|i| ACCOUNTING_VOCAB.contains(i))?;
                format!(
                    "unchecked `{op}` involving accounting counter `{ident}`: \
                     overflow wraps silently; use `saturating_`/`checked_` \
                     arithmetic or add a justified allow"
                )
            }
        }
        _ => return None,
    };
    Some(Finding::new(Rule::Arith, rel_path, token.line, message))
}

/// Terminal identifier of the operand ending just before code index `ci`:
/// the callee of a trailing call, or the last field of an `a.b.c` chain.
fn name_before<'c>(code: &'c Code, ci: usize) -> Option<&'c str> {
    let mut j = ci.checked_sub(1)?;
    if code.text(j) == ")" {
        j = code.partner[j].checked_sub(1)?;
    }
    code.name(j)
}

/// Terminal identifier of the operand starting at code index `ci`: the
/// last identifier of an `a.b.c(…)` chain.
fn name_after<'c>(code: &'c Code, mut ci: usize) -> Option<&'c str> {
    let mut last = None;
    while ci < code.len() {
        if let Some(name) = code.name(ci) {
            last = Some(name);
            ci += 1;
            continue;
        }
        match code.text(ci) {
            "." | ":" | "self" | "Self" => ci += 1,
            "(" if last.is_some() => ci = code.partner[ci] + 1,
            _ => break,
        }
    }
    last
}

/// Lines on which a `SAFETY:` comment *ends* (multi-line block comments
/// count at their last line, nearest the code they document).
fn safety_comment_lines(tokens: &[Token]) -> Vec<u32> {
    tokens
        .iter()
        .filter(|t| matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
        .filter(|t| t.text.contains("SAFETY:"))
        .map(|t| t.line.saturating_add(u32::try_from(t.text.matches('\n').count()).unwrap_or(u32::MAX)))
        .collect()
}

/// The token ranges of every outermost `#[cfg(test)]`/`#[test]` item.
///
/// The scan recognizes the attribute sequence `#` `[` … `]`, joins its
/// code tokens, and when the attribute is test-shaped skips over any
/// further attributes and then the item itself (to the matching close
/// brace, or a top-level `;` for brace-less items).
fn test_regions(tokens: &[Token]) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    let code: Vec<usize> = (0..tokens.len()).filter(|&i| tokens[i].is_code()).collect();
    let mut ci = 0usize;
    while ci < code.len() {
        let (is_attr, attr_text, after_attr) = read_attribute(tokens, &code, ci);
        if !is_attr || !is_test_attribute(&attr_text) {
            ci += 1;
            continue;
        }
        let start = ci;
        let mut cj = after_attr;
        // Absorb any further attributes on the same item.
        loop {
            let (more, _, next) = read_attribute(tokens, &code, cj);
            if !more {
                break;
            }
            cj = next;
        }
        // Skip the item body.
        let mut depth = 0usize;
        while cj < code.len() {
            match tokens[code[cj]].text.as_str() {
                "{" => depth += 1,
                "}" => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        cj += 1;
                        break;
                    }
                }
                ";" if depth == 0 => {
                    cj += 1;
                    break;
                }
                _ => {}
            }
            cj += 1;
        }
        // The region spans every token (code or not) from the attribute
        // through the item's last token.
        let end = code
            .get(cj.wrapping_sub(1))
            .map_or(tokens.len(), |&last| last + 1);
        regions.push(code[start]..end);
        ci = cj.max(ci + 1);
    }
    regions
}

/// Reads an attribute starting at code index `ci`. Returns whether one was
/// present, its joined inner text, and the code index just past `]`.
fn read_attribute(tokens: &[Token], code: &[usize], ci: usize) -> (bool, String, usize) {
    if ci + 1 >= code.len()
        || tokens[code[ci]].text != "#"
        || tokens[code[ci + 1]].text != "["
    {
        return (false, String::new(), ci);
    }
    let mut depth = 1usize;
    let mut cj = ci + 2;
    let mut inner = String::new();
    while cj < code.len() {
        let text = tokens[code[cj]].text.as_str();
        match text {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return (true, inner, cj + 1);
                }
            }
            _ => {}
        }
        inner.push_str(text);
        cj += 1;
    }
    (false, String::new(), ci) // unterminated attribute
}

/// Whether a joined attribute body gates the item to test builds.
fn is_test_attribute(attr: &str) -> bool {
    attr == "test"
        || attr == "cfg(test)"
        || attr.starts_with("cfg(test,")
        || attr.starts_with("cfg(all(test")
}

/// Result of trying to read a directive out of one comment.
enum DirectiveParse {
    NotADirective,
    Ok {
        rules: Vec<Rule>,
        justification: String,
    },
    Malformed(String),
}

/// Parses `abs-lint: allow(rule[, rule]) -- justification` from a comment.
/// The directive must begin the comment body (after the `//`/`/*` sigils),
/// so prose that merely mentions the grammar never parses as one.
fn parse_directive(comment: &str) -> DirectiveParse {
    let body = comment
        .trim_start_matches(['/', '*', '!'])
        .trim_start();
    let Some(rest) = body.strip_prefix("abs-lint:") else {
        return DirectiveParse::NotADirective;
    };
    let rest = rest.trim_start();
    let Some(rest) = rest.strip_prefix("allow(") else {
        return DirectiveParse::Malformed(
            "directive must be `abs-lint: allow(<rule>[, <rule>…]) -- <justification>`"
                .to_string(),
        );
    };
    let Some(close) = rest.find(')') else {
        return DirectiveParse::Malformed("unclosed `allow(` in directive".to_string());
    };
    let mut rules = Vec::new();
    for name in rest[..close].split(',') {
        let name = name.trim();
        match Rule::from_name(name) {
            Some(rule) => rules.push(rule),
            None => {
                return DirectiveParse::Malformed(format!(
                    "unknown rule {name:?} in allow directive; known: {}",
                    Rule::ALLOWABLE.map(Rule::name).join(", ")
                ))
            }
        }
    }
    if rules.is_empty() {
        return DirectiveParse::Malformed("empty rule list in allow directive".to_string());
    }
    let after = rest[close + 1..].trim_start();
    let Some(justification) = after.strip_prefix("--") else {
        return DirectiveParse::Malformed(
            "allow directive is missing its `-- <justification>`".to_string(),
        );
    };
    let justification = justification.trim().trim_end_matches("*/").trim();
    if justification.is_empty() {
        return DirectiveParse::Malformed(
            "allow directive has an empty justification".to_string(),
        );
    }
    DirectiveParse::Ok {
        rules,
        justification: justification.to_string(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_findings(src: &str) -> Vec<Finding> {
        scan_source("test.rs", src, SourcePolicy::sim_crate()).0
    }

    fn rules_of(findings: &[Finding]) -> Vec<Rule> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn determinism_flags_hashmap_with_line() {
        let f = sim_findings("use std::collections::HashMap;\nfn f() {}\n");
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::Determinism);
        assert_eq!(f[0].line, 1);
        assert!(f[0].message.contains("BTreeMap"));
    }

    #[test]
    fn determinism_ignores_strings_comments_and_tests() {
        let src = r#"
            // a HashMap in a comment
            const NAME: &str = "HashMap";
            #[cfg(test)]
            mod tests {
                use std::collections::HashMap;
                #[test]
                fn t() { let _ = HashMap::<u8, u8>::new(); }
            }
        "#;
        assert!(sim_findings(src).is_empty(), "{:?}", sim_findings(src));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let src = "#[cfg(not(test))]\nfn f() { let x: HashMap<u8,u8> = HashMap::new(); }\n";
        assert_eq!(sim_findings(src).len(), 2);
    }

    #[test]
    fn panic_path_flags_unwrap_and_expect_only_as_calls() {
        let src = "fn f() { a.unwrap(); b.expect(\"why\"); c.unwrap_or(0); d.expect_err(); }";
        let f = sim_findings(src);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().all(|x| x.rule == Rule::PanicPath));
    }

    #[test]
    fn test_functions_may_unwrap() {
        let src = "#[test]\nfn t() { x.unwrap(); }\nfn lib() { y.unwrap(); }";
        let f = sim_findings(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
    }

    #[test]
    fn allow_suppresses_same_line_and_next_line() {
        let src = "\
fn f() {
    // abs-lint: allow(panic-path) -- the queue is non-empty by the phase invariant
    q.front().unwrap();
    r.pop().unwrap(); // abs-lint: allow(panic-path) -- pushed two lines above

    s.take().unwrap();
}
";
        let (f, allows) = scan_source("t.rs", src, SourcePolicy::sim_crate());
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 6);
        assert_eq!(allows.len(), 2);
        assert!(allows[0].justification.contains("phase invariant"));
    }

    #[test]
    fn allow_does_not_cross_rules() {
        let src = "// abs-lint: allow(determinism) -- not about panics\nx.unwrap();\n";
        let f = sim_findings(src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::PanicPath);
    }

    #[test]
    fn malformed_directives_are_findings() {
        for (src, needle) in [
            ("// abs-lint: allow(panic-path)\nx();\n", "justification"),
            ("// abs-lint: allow(panic-path) -- \nx();\n", "empty justification"),
            ("// abs-lint: allow(warp-core) -- because\n", "unknown rule"),
            ("// abs-lint: deny(panic-path) -- because\n", "must be"),
            ("// abs-lint: allow() -- because\n", "unknown rule"),
        ] {
            let f = sim_findings(src);
            assert_eq!(f.len(), 1, "{src:?} -> {f:?}");
            assert_eq!(f[0].rule, Rule::AllowGrammar);
            assert!(f[0].message.contains(needle), "{src:?} -> {}", f[0].message);
        }
    }

    #[test]
    fn prose_mentioning_the_grammar_is_inert() {
        let src = "/// Annotate with `abs-lint: allow(panic-path) -- reason` to opt out.\nfn f() {}\n";
        // Doc comments whose body starts with a backtick are not directives.
        let (f, allows) = scan_source("t.rs", src, SourcePolicy::sim_crate());
        assert!(f.is_empty(), "{f:?}");
        assert!(allows.is_empty());
    }

    #[test]
    fn multi_rule_allow() {
        let src = "// abs-lint: allow(determinism, panic-path) -- measured host timing\n\
                   let t = Instant::now().elapsed().as_secs_f64().to_string().parse::<f64>().unwrap();\n";
        assert!(sim_findings(src).is_empty());
    }

    #[test]
    fn unsafe_requires_adjacent_safety_comment() {
        let bad = "fn f() { unsafe { core::hint::unreachable_unchecked() } }";
        let f = scan_source("t.rs", bad, SourcePolicy::test_code()).0;
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeAudit);

        let good = "fn f() {\n    // SAFETY: guarded by the bounds check above.\n    unsafe { x() }\n}";
        assert!(scan_source("t.rs", good, SourcePolicy::test_code()).0.is_empty());

        let far = "fn f() {\n    // SAFETY: too far away.\n\n\n\n\n    unsafe { x() }\n}";
        assert_eq!(scan_source("t.rs", far, SourcePolicy::test_code()).0.len(), 1);
    }

    #[test]
    fn unsafe_audit_applies_even_in_test_code() {
        let src = "#[test]\nfn t() { unsafe { x() } }";
        let f = scan_source("t.rs", src, SourcePolicy::sim_crate()).0;
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::UnsafeAudit);
    }

    #[test]
    fn harness_policy_skips_determinism() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        assert!(scan_source("t.rs", src, SourcePolicy::harness_crate()).0.is_empty());
        assert_eq!(sim_findings(src).len(), 2);
    }

    #[test]
    fn findings_render_as_file_line_rule() {
        let f = sim_findings("fn f() { x.unwrap(); }");
        let line = f[0].to_string();
        assert!(line.starts_with("test.rs:1: panic-path: "), "{line}");
    }

    #[test]
    fn narrowing_cast_is_flagged_with_line() {
        let f = sim_findings("fn f(id: usize) -> u32 {\n    id as u32\n}\n");
        assert_eq!(rules_of(&f), [Rule::Arith]);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("try_from"));
    }

    #[test]
    fn widening_and_literal_casts_are_fine() {
        assert!(sim_findings("fn f(x: u32) -> u64 { x as u64 }").is_empty());
        assert!(sim_findings("fn f() -> u32 { 7 as u32 }").is_empty());
        assert!(sim_findings("fn f() -> u32 { 'x' as u32 }").is_empty());
        assert!(sim_findings("fn f(x: u32) -> usize { x as usize }").is_empty());
    }

    #[test]
    fn arith_is_scoped_to_library_fn_bodies() {
        let src = "#[cfg(test)]\nmod tests {\n    fn f(id: usize) -> u32 { id as u32 }\n}\n";
        assert!(sim_findings(src).is_empty());
        assert!(sim_findings("const N: u32 = M as u32;\n").is_empty());
        let f = scan_source(
            "t.rs",
            "fn f(id: usize) -> u32 { id as u32 }",
            SourcePolicy::test_code(),
        )
        .0;
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn compound_add_on_accounting_counter() {
        let f = sim_findings("fn f(&mut self) {\n    self.cycles += 1;\n}\n");
        assert_eq!(rules_of(&f), [Rule::Arith]);
        assert_eq!(f[0].line, 2);
        assert!(f[0].message.contains("`+=`"), "{}", f[0].message);
        assert!(f[0].message.contains("cycles"));
    }

    #[test]
    fn binary_add_on_accounting_counter() {
        let f = sim_findings("fn f(&self) -> u64 { self.local + self.root.completion() }");
        assert_eq!(rules_of(&f), [Rule::Arith]);
        assert!(f[0].message.contains("completion"));
        let f = sim_findings("fn f(&self) -> u64 { self.cycles() * 2 }");
        assert_eq!(rules_of(&f), [Rule::Arith]);
    }

    #[test]
    fn saturating_add_is_fine() {
        let src = "fn f(&mut self) { self.cycles = self.cycles.saturating_add(1); }";
        assert!(sim_findings(src).is_empty());
    }

    #[test]
    fn plain_counters_do_not_fire() {
        assert!(sim_findings("fn f(i: usize) -> usize { i + 1 }").is_empty());
        assert!(sim_findings("fn f(&mut self) { self.idx += 1; }").is_empty());
        assert!(sim_findings("fn f(&self) -> u64 { self.cycles[i] + 1 }").is_empty());
    }

    #[test]
    fn deref_star_is_not_multiplication() {
        assert!(sim_findings("fn f(p: &u64) -> u64 { let x = *p; x }").is_empty());
        let src = "fn f(c: &mut u64) { if go() { step(); }\n *cycles = 0; }";
        assert!(sim_findings(src).is_empty(), "{:?}", sim_findings(src));
    }

    #[test]
    fn fn_pointer_types_open_no_body() {
        let src = "struct S { f: fn(u64) -> u64 }\nconst C: u32 = X as u32;\n";
        assert!(sim_findings(src).is_empty());
    }
}
