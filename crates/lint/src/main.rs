//! `soc-lint` CLI: lint the workspace, print `file:line` diagnostics and
//! a per-rule summary, exit non-zero on any unjustified finding.
//!
//! ```text
//! soc-lint [--root PATH] [--list-rules] [--explain RULE]
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut root: Option<PathBuf> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // The `cargo soc-lint` alias already ends in `--`, so users
            // who habitually type `cargo soc-lint -- --list-rules` send a
            // literal `--` through; treat it as a separator, not an error.
            "--" => {}
            "--list-rules" => {
                for (name, desc) in soc_lint::RULES {
                    println!("{name:<24} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--explain" => match args.next() {
                Some(rule) => {
                    let Some(e) = soc_lint::explain::explain(&rule) else {
                        eprintln!("soc-lint: no rule `{rule}` (see soc-lint --list-rules)");
                        return ExitCode::from(2);
                    };
                    println!("{}", soc_lint::explain::render(e));
                    return ExitCode::SUCCESS;
                }
                None => {
                    eprintln!("soc-lint: --explain needs a rule name");
                    return ExitCode::from(2);
                }
            },
            "--root" => match args.next() {
                Some(p) => root = Some(PathBuf::from(p)),
                None => {
                    eprintln!("soc-lint: --root needs a path");
                    return ExitCode::from(2);
                }
            },
            "--help" | "-h" => {
                println!("usage: soc-lint [--root PATH] [--list-rules] [--explain RULE]");
                println!("Determinism-discipline lint for the soc-pidcan workspace.");
                println!("  --explain RULE  print a rule's rationale and a good/bad example pair");
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("soc-lint: unknown argument `{other}`");
                return ExitCode::from(2);
            }
        }
    }

    let root = match root {
        Some(r) => r,
        None => {
            let cwd = std::env::current_dir().expect("cwd");
            match soc_lint::find_workspace_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!("soc-lint: no workspace root found above {}", cwd.display());
                    return ExitCode::from(2);
                }
            }
        }
    };

    match soc_lint::lint_workspace(&root) {
        Ok(report) => {
            for f in &report.findings {
                println!("{f}");
            }
            // Per-rule summary: findings + suppression counts, so CI logs
            // show where the pragma budget is spent at a glance.
            let by_findings = report.findings_by_rule();
            if !by_findings.is_empty() || !report.suppressed_by_rule.is_empty() {
                println!("per-rule summary:");
                for (rule, n) in &by_findings {
                    println!("  {rule:<24} {n} finding(s)");
                }
                for (rule, n) in &report.suppressed_by_rule {
                    println!("  {rule:<24} {n} suppressed");
                }
            }
            if report.clean() {
                println!(
                    "soc-lint: clean ({} files, {} justified suppressions at {} pragma sites)",
                    report.files_scanned, report.suppressed, report.pragma_sites
                );
                ExitCode::SUCCESS
            } else {
                println!(
                    "soc-lint: {} finding(s) in {} files ({} suppressed)",
                    report.findings.len(),
                    report.files_scanned,
                    report.suppressed
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("soc-lint: io error: {e}");
            ExitCode::from(2)
        }
    }
}
