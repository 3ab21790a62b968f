//! CLI entry point for the workspace's hot-path linter.
//!
//! ```text
//! cargo run -p gridvm-audit                 # report findings
//! cargo run -p gridvm-audit -- --deny       # CI mode: findings fail
//! cargo run -p gridvm-audit -- --list-rules # print the catalogue
//! cargo run -p gridvm-audit -- --deny --baseline audit_baseline.json \
//!       --json audit.json                   # CI ratchet + artifact
//! cargo run -p gridvm-audit -- --file crates/audit/tests/fixtures/bad_hot_btree.rs \
//!       --hot                               # scan one file as a [hot_paths] file
//! ```

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gridvm_audit::config::{Allowlist, Baseline};
use gridvm_audit::rules::RULES;
use gridvm_audit::{
    apply_baseline, baseline_entries, find_workspace_root, render_json, render_rules_md,
    scan_source, scan_workspace,
};

struct Options {
    deny: bool,
    list_rules: bool,
    rules_md: bool,
    allow_stale: bool,
    root: Option<PathBuf>,
    file: Option<PathBuf>,
    hot: bool,
    json: Option<PathBuf>,
    baseline: Option<PathBuf>,
    write_baseline: Option<PathBuf>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        deny: false,
        list_rules: false,
        rules_md: false,
        allow_stale: false,
        root: None,
        file: None,
        hot: false,
        json: None,
        baseline: None,
        write_baseline: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" | "-D" => opts.deny = true,
            "--list-rules" => opts.list_rules = true,
            "--rules-md" => opts.rules_md = true,
            "--allow-stale" => opts.allow_stale = true,
            "--root" => {
                let v = args.next().ok_or("--root needs a path")?;
                opts.root = Some(PathBuf::from(v));
            }
            "--file" => {
                let v = args.next().ok_or("--file needs a path")?;
                opts.file = Some(PathBuf::from(v));
            }
            "--hot" => opts.hot = true,
            "--json" => {
                let v = args
                    .next()
                    .ok_or("--json needs a path (or `-` for stdout)")?;
                opts.json = Some(PathBuf::from(v));
            }
            "--baseline" => {
                let v = args.next().ok_or("--baseline needs a path")?;
                opts.baseline = Some(PathBuf::from(v));
            }
            "--write-baseline" => {
                let v = args.next().ok_or("--write-baseline needs a path")?;
                opts.write_baseline = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "gridvm-audit: workspace hot-path linter\n\n\
                     USAGE: gridvm-audit [--deny] [--allow-stale] [--root DIR]\n\
                            [--baseline FILE] [--write-baseline FILE] [--json FILE]\n\
                            [--list-rules] [--rules-md]\n\
                            [--file PATH [--hot]]\n\n\
                     --deny            exit non-zero on any unsuppressed finding or (in a\n\
                                       workspace scan) any stale suppression or\n\
                                       [hot_paths] entry (CI mode)\n\
                     --allow-stale     stale suppressions warn instead of failing deny mode\n\
                     --baseline FILE   findings ratchet: absorb findings budgeted in FILE,\n\
                                       report fixed-but-still-listed entries\n\
                     --write-baseline FILE  write the current active findings as a baseline\n\
                     --json FILE       write the machine-readable report to FILE (`-`: stdout)\n\
                     --list-rules      print the rule catalogue and exit\n\
                     --rules-md        print RULES.md content (CI diffs it) and exit\n\
                     --root DIR        workspace root (default: auto-detect from cwd)\n\
                     --file PATH       scan a single file instead of the workspace\n\
                     --hot             with --file: scan as if listed under [hot_paths]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("gridvm-audit: {e}");
            return ExitCode::from(2);
        }
    };

    if opts.list_rules {
        println!("gridvm-audit rule catalogue:\n");
        for rule in RULES {
            println!("  {:<20} {}", rule.name, rule.summary);
        }
        println!(
            "\nSuppressions live in audit.toml ([[allow]] rule/path/reason) or inline\n\
             `// audit:allow(rule): <reason>` comments; known findings ride the\n\
             audit_baseline.json ratchet (--baseline)."
        );
        return ExitCode::SUCCESS;
    }
    if opts.rules_md {
        print!("{}", render_rules_md());
        return ExitCode::SUCCESS;
    }

    let cwd = match std::env::current_dir() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("gridvm-audit: cannot read cwd: {e}");
            return ExitCode::from(2);
        }
    };
    let root = match opts.root.clone().or_else(|| find_workspace_root(&cwd)) {
        Some(r) => r,
        None => {
            eprintln!("gridvm-audit: no workspace root found (looked for Cargo.toml + crates/)");
            return ExitCode::from(2);
        }
    };

    let allow = match load_allowlist(&root) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("gridvm-audit: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(file) = &opts.file {
        return scan_single_file(file, opts.hot, &allow, opts.deny);
    }

    let mut report = match scan_workspace(&root, &allow) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("gridvm-audit: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    if let Some(path) = &opts.write_baseline {
        let text = Baseline::render(
            "findings accepted when their rule landed; ratchet down, never up",
            &baseline_entries(&report),
        );
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("gridvm-audit: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
        println!("gridvm-audit: wrote baseline to {}", path.display());
    }

    if let Some(path) = &opts.baseline {
        let base = match std::fs::read_to_string(path) {
            Ok(text) => match Baseline::parse(&text) {
                Ok(b) => b,
                Err(e) => {
                    eprintln!("gridvm-audit: {}: {e}", path.display());
                    return ExitCode::from(2);
                }
            },
            Err(e) => {
                eprintln!("gridvm-audit: reading {}: {e}", path.display());
                return ExitCode::from(2);
            }
        };
        apply_baseline(&mut report, &base);
    }

    for file in &report.files {
        for f in &file.findings {
            println!(
                "{}:{}:{}: [{}] {}",
                file.path, f.line, f.col, f.rule, f.message
            );
        }
    }

    // Stale suppressions: dead [[allow]] entries, [hot_paths] entries
    // naming no file, inline comments that matched nothing, and
    // baseline budgets no longer consumed. Under --deny these fail (the
    // ratchet must shrink); --allow-stale keeps them warnings for local
    // triage runs.
    let mut stale = 0usize;
    for idx in &report.unused_allows {
        let e = &allow.entries[*idx];
        eprintln!(
            "{}: audit.toml:{}: allow entry (rule `{}`, path `{}`) matched nothing \
             — delete it if the exception is gone",
            stale_level(opts.deny, opts.allow_stale),
            e.line,
            e.rule,
            e.path
        );
        stale += 1;
    }
    for idx in &report.unused_hot_paths {
        eprintln!(
            "{}: audit.toml: [hot_paths] entry `{}` matches no scanned file \
             — delete it if the file is gone",
            stale_level(opts.deny, opts.allow_stale),
            allow.hot_paths[*idx]
        );
        stale += 1;
    }
    for (path, ia) in report.unused_inline() {
        eprintln!(
            "{}: {path}:{}: inline audit:allow({}) matched nothing — delete it",
            stale_level(opts.deny, opts.allow_stale),
            ia.line,
            ia.rule
        );
        stale += 1;
    }
    for b in &report.stale_baseline {
        eprintln!(
            "{}: baseline entry ({}, {}) budgets {} finding(s) but only {} remain \
             — ratchet it down",
            stale_level(opts.deny, opts.allow_stale),
            b.entry.path,
            b.entry.rule,
            b.entry.count,
            b.used
        );
        stale += 1;
    }

    if let Some(path) = &opts.json {
        let text = render_json(&report, &allow);
        if path.as_os_str() == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            eprintln!("gridvm-audit: writing {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let active = report.active_findings();
    println!(
        "gridvm-audit: {} file(s) scanned, {} finding(s), {} allowlisted, {} inline, \
         {} baselined",
        report.scanned,
        active,
        report.suppressed_findings(),
        report.inline_allowed_findings(),
        report.baselined_findings()
    );
    if opts.deny {
        if active > 0 {
            eprintln!(
                "gridvm-audit: failing (--deny): fix the findings or add audited \
                 audit.toml entries"
            );
            return ExitCode::FAILURE;
        }
        if stale > 0 && !opts.allow_stale {
            eprintln!(
                "gridvm-audit: failing (--deny): {stale} stale suppression(s); delete \
                 them (or pass --allow-stale for a local triage run)"
            );
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

fn stale_level(deny: bool, allow_stale: bool) -> &'static str {
    if deny && !allow_stale {
        "error"
    } else {
        "warning"
    }
}

fn scan_single_file(file: &Path, hot: bool, allow: &Allowlist, deny: bool) -> ExitCode {
    let src = match std::fs::read_to_string(file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("gridvm-audit: cannot read {}: {e}", file.display());
            return ExitCode::from(2);
        }
    };
    let rel = file.to_string_lossy().replace('\\', "/");
    let mut allow = allow.clone();
    if hot {
        // `--hot` marks the file as a hot path without editing
        // audit.toml — how CI checks the rule still has teeth.
        allow.hot_paths.push(rel.clone());
    }
    let report = scan_source(&rel, &src, &allow);
    for f in &report.findings {
        println!(
            "{}:{}:{}: [{}] {}",
            report.path, f.line, f.col, f.rule, f.message
        );
    }
    println!(
        "gridvm-audit: 1 file scanned, {} finding(s), {} allowlisted, {} inline",
        report.findings.len(),
        report.suppressed.len(),
        report.inline_allowed.len()
    );
    if !report.findings.is_empty() && deny {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn load_allowlist(root: &Path) -> Result<Allowlist, String> {
    let path = root.join("audit.toml");
    if !path.is_file() {
        return Ok(Allowlist::default());
    }
    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading audit.toml: {e}"))?;
    Allowlist::parse(&text).map_err(|e| e.to_string())
}
