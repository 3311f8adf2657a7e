//! `abs-lint` — lint the workspace for determinism, hermeticity,
//! panic-path, unsafe-audit, arith and contract-xref violations.
//!
//! ```text
//! cargo run -p abs-lint                  # text diagnostics, exit 1 on findings
//! cargo run -p abs-lint -- --json        # also write repro_out/lint_report.json
//! cargo run -p abs-lint -- --root DIR    # lint another workspace root
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut json = false;
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = true,
            "--root" => {
                let Some(dir) = args.next() else {
                    eprintln!("--root needs a directory");
                    return ExitCode::FAILURE;
                };
                root = Some(PathBuf::from(dir));
            }
            "--help" | "-h" => {
                println!(
                    "abs-lint — hermetic static analysis for the workspace\n\n\
                     usage: abs-lint [--json] [--root DIR]\n\n\
                     --json      also write repro_out/lint_report.json\n\
                     --root DIR  workspace root to lint (default: this repo)\n\n\
                     rules: determinism, hermeticity, panic-path, unsafe-audit, arith,\n\
                     \x20      contract-xref, allow-grammar, stale-allow\n\
                     exit 1 on any finding\n\
                     escape hatch (in source): abs-lint: allow(<rule>) -- <justification>"
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?} (try --help)");
                return ExitCode::FAILURE;
            }
        }
    }

    let root = root.unwrap_or_else(abs_lint::default_root);
    let report = match abs_lint::lint_workspace(&root) {
        Ok(report) => report,
        Err(message) => {
            eprintln!("abs-lint: {message}");
            return ExitCode::FAILURE;
        }
    };

    print!("{}", report.to_text());
    if json {
        match report.write_json(&root.join("repro_out")) {
            Ok(path) => eprintln!("wrote {}", path.display()),
            Err(e) => {
                eprintln!("abs-lint: cannot write JSON report: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if report.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
