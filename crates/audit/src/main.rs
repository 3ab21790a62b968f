//! CLI entry point for the workspace's hot-path linter.
//!
//! ```text
//! cargo run -p gridvm-audit                  # scan the workspace (CI)
//! cargo run -p gridvm-audit -- --rules-md    # print RULES.md
//! cargo run -p gridvm-audit -- --file crates/audit/tests/fixtures/bad_hot_btree.rs
//! ```
//!
//! Exit status: 0 when clean, 1 on any finding no receipt covers, any
//! malformed marker or receipt, or any stale receipt, 2 on a usage or
//! I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use gridvm_audit::{find_workspace_root, render_rules_md, scan_source, scan_workspace, Report};

struct Options {
    rules_md: bool,
    root: Option<PathBuf>,
    file: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        rules_md: false,
        root: None,
        file: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--rules-md" => opts.rules_md = true,
            "--root" => {
                let v = args.next().ok_or("--root needs a path")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--file" => {
                let v = args.next().ok_or("--file needs a path")?;
                opts.file = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "gridvm-audit: workspace hot-path linter\n\n\
                     USAGE: gridvm-audit [--root DIR | --file PATH] [--rules-md]\n\n\
                     --root DIR     workspace root (default: auto-detect from cwd)\n\
                     --file PATH    scan a single file instead of the workspace\n\
                     --rules-md     print RULES.md content (CI diffs it) and exit\n\
                     --help         print this help\n\n\
                     The token rules run on files marked `// audit:hot-path: <reason>`;\n\
                     a `// audit:allow(rule): <reason>` receipt accepts one line's finding.\n\
                     Exits 1 on any finding no receipt covers, malformed marker or\n\
                     receipt, or stale receipt."
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn scan(opts: &Options) -> Result<Report, String> {
    if let Some(file) = &opts.file {
        let src = std::fs::read_to_string(file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let rel = file.to_string_lossy().replace('\\', "/");
        let mut report = Report::default();
        report.add(scan_source(&rel, &src));
        return Ok(report);
    }
    let cwd = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    let root = opts
        .root
        .clone()
        .or_else(|| find_workspace_root(&cwd))
        .ok_or("no workspace root found (looked for Cargo.toml + crates/)")?;
    scan_workspace(&root).map_err(|e| format!("scan failed: {e}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gridvm-audit: {e}");
            return ExitCode::from(2);
        }
    };
    if opts.rules_md {
        print!("{}", render_rules_md());
        return ExitCode::SUCCESS;
    }
    let report = match scan(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gridvm-audit: {e}");
            return ExitCode::from(2);
        }
    };

    for file in &report.files {
        for f in &file.findings {
            println!(
                "{}:{}:{}: [{}] {}",
                file.path, f.line, f.col, f.rule, f.message
            );
        }
        for r in &file.stale {
            println!(
                "{}:{}: stale receipt: audit:allow({}) covers no finding on line {}; delete it",
                file.path, r.line, r.rule, r.target_line
            );
        }
    }
    println!(
        "gridvm-audit: {} file(s) scanned, {} finding(s), {} accepted by receipt, \
         {} stale receipt(s)",
        report.scanned,
        report.active_findings(),
        report.accepted_findings(),
        report.stale_receipts()
    );
    if report.fails() {
        eprintln!(
            "gridvm-audit: failing: fix each finding or give its line a \
             `// audit:allow(rule): <reason>` receipt, and delete stale receipts"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
