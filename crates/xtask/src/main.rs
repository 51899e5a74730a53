//! Workspace automation binary (`cargo xtask <command>`, via the alias in
//! `.cargo/config.toml`, or `cargo run -p xtask -- <command>`).
//!
//! Commands:
//!
//! * `simlint` (alias `lint`) — run the token-level determinism & invariant
//!   analysis pass over the workspace sources (or over explicit paths).
//!
//!   * `--json` — emit the stable schema-v1 JSON report.
//!   * `--baseline <path>` — compare ratcheted rules (panic-surface,
//!     truncating-cast) against the checked-in baseline; only *new*
//!     findings and *stale* baseline entries fail.
//!   * `--update-baseline <path>` — rewrite the baseline to pin exactly
//!     the current ratcheted findings. Refuses (exit 1, nothing written)
//!     if that would raise any (rule, file) count of the file it replaces.
//!   * `--explain <rule>` — print a rule's rationale and canonical fix.
//!
//!   Exits 0 when clean, 1 on new findings, stale baseline entries or a
//!   refused baseline update, 2 on usage errors.

#![forbid(unsafe_code)]

use std::process::ExitCode;

use xtask::baseline::Baseline;
use xtask::{lint, rules};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("simlint") | Some("lint") => lint_command(&args[1..]),
        Some(other) => {
            eprintln!("xtask: unknown command `{other}`");
            usage();
            ExitCode::from(2)
        }
        None => {
            usage();
            ExitCode::from(2)
        }
    }
}

fn usage() {
    eprintln!(
        "usage: cargo xtask simlint [--json] [--baseline <path>] [--update-baseline <path>] \
         [--explain <rule>] [paths...]"
    );
}

fn lint_command(args: &[String]) -> ExitCode {
    let mut json = false;
    let mut baseline_path: Option<std::path::PathBuf> = None;
    let mut update_path: Option<std::path::PathBuf> = None;
    let mut paths: Vec<std::path::PathBuf> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--json" => json = true,
            "--baseline" => match it.next() {
                Some(p) => baseline_path = Some(p.into()),
                None => {
                    eprintln!("xtask simlint: --baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--update-baseline" => match it.next() {
                Some(p) => update_path = Some(p.into()),
                None => {
                    eprintln!("xtask simlint: --update-baseline needs a path");
                    return ExitCode::from(2);
                }
            },
            "--explain" => {
                return match it.next() {
                    Some(rule) => explain(rule),
                    None => {
                        eprintln!(
                            "xtask simlint: --explain needs a rule id (one of: {})",
                            rule_ids().join(", ")
                        );
                        ExitCode::from(2)
                    }
                };
            }
            "--help" | "-h" => {
                usage();
                println!();
                println!("Rules ([ratchet] = compared against the checked-in baseline):");
                for rule in rules::RULES {
                    let tag = match rule.severity {
                        rules::Severity::Deny => "",
                        rules::Severity::Ratchet => " [ratchet]",
                    };
                    println!("  {:<16}{tag} {}", rule.id, rule.summary);
                }
                println!();
                println!("Suppress a finding on its line (or the line above) with:");
                println!("  // simlint: allow(<rule>, reason = \"...\")");
                println!("Details: cargo xtask simlint --explain <rule>");
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("xtask simlint: unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            p => paths.push(p.into()),
        }
    }

    let root = match workspace_root() {
        Some(r) => r,
        None => {
            eprintln!(
                "xtask simlint: could not locate workspace root (no Cargo.toml with [workspace] found)"
            );
            return ExitCode::from(2);
        }
    };
    if paths.is_empty() {
        paths = lint::workspace_source_files(&root);
    }

    let baseline = match &baseline_path {
        Some(p) => match Baseline::load(&root.join(p)) {
            Ok(b) => b,
            Err(e) => {
                eprintln!("xtask simlint: {e}");
                return ExitCode::from(2);
            }
        },
        None => Baseline::default(),
    };

    let report = lint::run_with_baseline(&root, &paths, &baseline);

    if let Some(p) = update_path {
        let b = Baseline::from_findings(&report.violations);
        let abs = root.join(&p);
        // The ratchet only shrinks: never overwrite a count with a larger
        // one. Raising a count takes a hand edit that shows in the diff.
        if abs.exists() {
            let current = match Baseline::load(&abs) {
                Ok(current) => current,
                Err(e) => {
                    eprintln!("xtask simlint: {e}");
                    return ExitCode::from(2);
                }
            };
            let raised = b.raised_over(&current);
            if !raised.is_empty() {
                for r in &raised {
                    eprintln!(
                        "xtask simlint: {}: {} would rise from {} to {}",
                        r.path, r.rule, r.current, r.proposed
                    );
                }
                eprintln!(
                    "xtask simlint: refusing to raise {} baseline count(s) in {}; the baseline \
                     only shrinks (fix the findings, or edit the file by hand)",
                    raised.len(),
                    p.display()
                );
                return ExitCode::FAILURE;
            }
        }
        if let Err(e) = std::fs::write(&abs, b.to_json()) {
            eprintln!("xtask simlint: cannot write {}: {e}", abs.display());
            return ExitCode::from(2);
        }
        println!(
            "simlint: wrote {} entries to {}",
            b.entries.len(),
            p.display()
        );
    }

    if json {
        println!("{}", report.to_json());
    } else {
        for v in &report.violations {
            println!("{}", v.display(&root));
        }
        for e in &report.stale {
            println!(
                "{}: [stale-baseline] {} records {} finding(s) but the code produces {}; \
                 shrink the baseline (see DESIGN.md)",
                e.path, e.rule, e.recorded, e.actual
            );
        }
        let new = report.new_findings().count();
        println!(
            "simlint: {} file(s) checked, {} finding(s) ({} new, {} baselined), {} stale baseline entr{}",
            report.files_checked,
            report.violations.len(),
            new,
            report.violations.len() - new,
            report.stale.len(),
            if report.stale.len() == 1 { "y" } else { "ies" }
        );
    }
    if report.failed() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn rule_ids() -> Vec<&'static str> {
    rules::RULES.iter().map(|r| r.id).collect()
}

fn explain(rule_id: &str) -> ExitCode {
    match rules::rule_info(rule_id) {
        Some(r) => {
            println!("{} [{}]", r.id, r.severity.as_str());
            println!("  {}", r.summary);
            println!();
            println!("Why:");
            println!("  {}", r.rationale);
            println!();
            println!("Fix:");
            println!("  {}", r.fix);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!(
                "xtask simlint: unknown rule `{rule_id}` (one of: {})",
                rule_ids().join(", ")
            );
            ExitCode::from(2)
        }
    }
}

/// Find the workspace root: walk up from the current directory looking for a
/// `Cargo.toml` containing a `[workspace]` table.
fn workspace_root() -> Option<std::path::PathBuf> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}
