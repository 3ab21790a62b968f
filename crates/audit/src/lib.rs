//! `gridvm-audit` — the workspace's hot-path linter.
//!
//! A static-analysis pass for what the compiler cannot scope to a
//! list of files: a comment/string-aware tokenizer ([`lexer`]), the
//! rule catalogue ([`rules`]) and the per-file item index
//! `alloc-in-hot` reads ([`analysis`]). It reads its whole policy from
//! the files it scans. A file that carries a
//! `// audit:hot-path: <what runs per event here>` marker is held to
//! the token rules, and each accepted finding carries a line-scoped
//! `// audit:allow(rule): <reason>` receipt. The binary
//! (`cargo run -p gridvm-audit`) walks the workspace, scans every Rust
//! source file, and exits non-zero on any finding no receipt covers,
//! any marker or receipt without a reason, and any receipt that
//! covers no finding.
//!
//! Each hazard is caught in one place. The determinism rules (hash
//! containers, the wall clock, OS randomness, locks and atomics,
//! library unwraps, suppressions without a reason) are rustc and
//! clippy's: the root `clippy.toml` and the workspace lints reject
//! them by name resolution, and `#[expect(lint, reason = "…")]` is the
//! one way to accept a site. DESIGN.md §13.2 lists each retired rule
//! with the compiler diagnostic that replaced it.
//!
//! The companion *runtime* half of the determinism story lives in
//! `gridvm-simcore::audit` (heap/arena/LRU invariant checks); this
//! crate is the static half. DESIGN.md §8 documents both.

pub mod analysis;
pub mod lexer;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

use lexer::{lex, LineComment};
use rules::{Finding, RULES};

/// One `// audit:allow(rule): reason` comment: the receipt that
/// accepts one line's findings of one rule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Receipt {
    /// Rule the receipt accepts.
    pub rule: String,
    /// 1-based line the receipt covers: the comment's own line for a
    /// trailing comment, the following line for a standalone one.
    pub target_line: u32,
    /// 1-based line of the comment itself.
    pub line: u32,
}

/// What a file's plain line comments tell the linter.
#[derive(Debug, Default)]
struct Directives {
    /// True when an `audit:hot-path` marker holds the file to the
    /// token rules.
    hot: bool,
    /// The well-formed receipts.
    receipts: Vec<Receipt>,
    /// Markers and receipts without a reason, and receipts naming an
    /// unknown rule, as `malformed-suppression` findings.
    malformed: Vec<Finding>,
}

/// Reads the hot-path marker and the receipts from a file's plain line
/// comments (doc comments and literals that quote either syntax are
/// neither). A marker or receipt that cannot say why — no reason, an
/// unknown rule, no closing paren — comes back as a
/// `malformed-suppression` finding: a comment that silently fails open
/// (or never matches) is itself a defect. So does a receipt naming
/// `malformed-suppression`, which would let one comment excuse
/// another's missing reason.
fn read_directives(comments: &[LineComment]) -> Directives {
    const MALFORMED: &str = "malformed-suppression";
    const HOT: &str = "audit:hot-path";
    const ALLOW: &str = "audit:allow(";
    let mut out = Directives::default();
    for c in comments {
        let malformed = |at: usize, message: String| Finding {
            rule: MALFORMED,
            line: c.line,
            col: c.col + 2 + at as u32,
            message,
        };
        if let Some(m) = c.text.find(HOT) {
            out.hot = true;
            if reason(&c.text[m + HOT.len()..]).is_empty() {
                out.malformed.push(malformed(
                    m,
                    "hot-path marker has no reason; write \
                     `// audit:hot-path: <what runs per event here>`"
                        .to_owned(),
                ));
            }
            continue;
        }
        let Some(m) = c.text.find(ALLOW) else {
            continue;
        };
        let after = &c.text[m + ALLOW.len()..];
        let Some(close) = after.find(')') else {
            out.malformed.push(malformed(
                m,
                "receipt is missing the closing `)`".to_owned(),
            ));
            continue;
        };
        let rule = after[..close].trim();
        if !RULES.iter().any(|r| r.name == rule) {
            out.malformed.push(malformed(
                m,
                format!("receipt names unknown rule `{rule}` (see RULES.md)"),
            ));
            continue;
        }
        if rule == MALFORMED {
            out.malformed.push(malformed(
                m,
                format!(
                    "a receipt cannot accept `{MALFORMED}`; give the marker or \
                     receipt it covers a reason instead"
                ),
            ));
            continue;
        }
        if reason(&after[close + 1..]).is_empty() {
            out.malformed.push(malformed(
                m,
                format!(
                    "receipt for `{rule}` has no reason; write \
                     `// audit:allow({rule}): <why this is safe>`"
                ),
            ));
            continue;
        }
        // A comment alone on its line covers the next line; a trailing
        // comment covers its own.
        out.receipts.push(Receipt {
            rule: rule.to_owned(),
            target_line: if c.trailing { c.line } else { c.line + 1 },
            line: c.line,
        });
    }
    out
}

/// The reason after a directive's `:`, trimmed; empty when missing.
fn reason(rest: &str) -> &str {
    rest.strip_prefix(':').map(str::trim).unwrap_or("")
}

/// One scanned file's results.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Findings no receipt covers, malformed markers and receipts
    /// included.
    pub findings: Vec<Finding>,
    /// Findings a receipt covers.
    pub accepted: Vec<Finding>,
    /// Receipts that cover no finding.
    pub stale: Vec<Receipt>,
}

/// Scans one file's text as if it lived at `rel_path`. The token rules
/// run only when the file carries a hot-path marker; markers and
/// receipts are checked in every file.
pub fn scan_source(rel_path: &str, src: &str) -> FileReport {
    let lexed = lex(src);
    let Directives {
        hot,
        receipts,
        malformed: mut all,
    } = read_directives(&lexed.comments);
    if hot {
        all.extend(rules::scan_hot(&lexed.tokens));
    }
    all.sort_by_key(|f| (f.line, f.col, f.rule));
    let mut used = vec![false; receipts.len()];
    let mut findings = Vec::new();
    let mut accepted = Vec::new();
    for f in all {
        match receipts
            .iter()
            .position(|r| r.rule == f.rule && r.target_line == f.line)
        {
            Some(i) => {
                used[i] = true;
                accepted.push(f);
            }
            None => findings.push(f),
        }
    }
    let stale = receipts
        .into_iter()
        .zip(&used)
        .filter_map(|(r, &used)| (!used).then_some(r))
        .collect();
    FileReport {
        path: rel_path.to_owned(),
        findings,
        accepted,
        stale,
    }
}

/// A scan of one file or of the whole workspace.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-file results for files with a finding, an accepted finding
    /// or a stale receipt, sorted by path.
    pub files: Vec<FileReport>,
    /// Total number of files scanned.
    pub scanned: usize,
}

impl Report {
    /// Number of findings no receipt covers.
    pub fn active_findings(&self) -> usize {
        self.files.iter().map(|f| f.findings.len()).sum()
    }

    /// Number of findings a receipt covers.
    pub fn accepted_findings(&self) -> usize {
        self.files.iter().map(|f| f.accepted.len()).sum()
    }

    /// Number of receipts that cover no finding.
    pub fn stale_receipts(&self) -> usize {
        self.files.iter().map(|f| f.stale.len()).sum()
    }

    /// The verdict: a finding no receipt covers (malformed markers and
    /// receipts included) or a stale receipt fails the scan.
    pub fn fails(&self) -> bool {
        self.active_findings() > 0 || self.stale_receipts() > 0
    }

    /// Counts a scanned file, keeping its results when it has any.
    pub fn add(&mut self, file: FileReport) {
        self.scanned += 1;
        if !file.findings.is_empty() || !file.accepted.is_empty() || !file.stale.is_empty() {
            self.files.push(file);
        }
    }
}

/// Collects the Rust source files a workspace scan covers: everything
/// under `crates/*/{src,tests,examples,benches}` plus the root `src/`
/// and `tests/`, skipping `target/`, `vendor/` (third-party stand-ins
/// are not held to sim determinism rules), and the linter's own trap
/// fixtures. Paths come back sorted so the linter's own output is
/// deterministic regardless of directory-entry order.
pub fn workspace_sources(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let mut roots = vec![root.join("src"), root.join("tests"), root.join("examples")];
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        for entry in fs::read_dir(&crates_dir)? {
            let dir = entry?.path();
            if dir.is_dir() {
                for sub in ["src", "tests", "examples", "benches"] {
                    roots.push(dir.join(sub));
                }
            }
        }
    }
    for r in roots {
        if r.is_dir() {
            walk(&r, &mut out)?;
        }
    }
    out.retain(|p| {
        !p.components().any(|c| {
            matches!(
                c.as_os_str().to_str(),
                Some("fixtures" | "target" | "vendor")
            )
        })
    });
    out.sort();
    Ok(out)
}

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            walk(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the whole workspace rooted at `root`.
pub fn scan_workspace(root: &Path) -> std::io::Result<Report> {
    let mut report = Report::default();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        report.add(scan_source(&rel, &src));
    }
    Ok(report)
}

/// Renders `RULES.md` from the catalogue. The committed file is kept
/// in sync by a unit test and a CI diff against `--rules-md`.
pub fn render_rules_md() -> String {
    let mut out = String::new();
    out.push_str("# gridvm-audit rule catalogue\n\n");
    out.push_str(
        "<!-- Generated by `cargo run -p gridvm-audit -- --rules-md`. Do not edit by\n     \
         hand: CI diffs this file against the generator's output. -->\n\n",
    );
    out.push_str(
        "Static rules for what clippy cannot scope to a list of files: the token\n\
         rules run on each file that carries a\n\
         `// audit:hot-path: <what runs per event here>` marker. The determinism\n\
         rules are clippy's and rustc's (`clippy.toml`, the workspace lints). A\n\
         finding is accepted only by a line receipt,\n\
         `// audit:allow(rule): <reason>`, covering the next line (or its own,\n\
         when trailing code). Markers and receipts need a written reason. Any\n\
         finding no receipt covers, any malformed marker or receipt, and any\n\
         receipt that covers no finding fails the run (exit 1). DESIGN.md\n\
         \u{a7}13 documents the architecture.\n\n",
    );
    out.push_str("| rule | hazard |\n|------|--------|\n");
    for r in RULES {
        out.push_str(&format!("| `{}` | {} |\n", r.name, r.summary));
    }
    out
}

/// Locates the workspace root by walking up from `start` until a
/// directory containing both `Cargo.toml` and `crates/` is found.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        if dir.join("Cargo.toml").is_file() && dir.join("crates").is_dir() {
            return Some(dir);
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A hot-path marker line for test sources.
    const HOT: &str = "// audit:hot-path: a lookup per routed packet\n";

    #[test]
    fn scan_source_splits_active_and_accepted() {
        let src = format!(
            "{HOT}\
             use std::collections::BTreeMap; // audit:allow(hot-btree-lookup): order is semantic\n\
             fn f() -> Vec<u8> {{ Vec::new() }}\n"
        );
        let report = scan_source("crates/vnet/src/x.rs", &src);
        assert_eq!(report.accepted.len(), 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "alloc-in-hot");
        assert!(report.stale.is_empty());
    }

    #[test]
    fn token_rules_apply_only_to_marked_files() {
        let src = "use std::collections::BTreeMap;\n";
        assert!(scan_source("crates/vnet/src/x.rs", src).findings.is_empty());
        let found: Vec<_> = scan_source("crates/vnet/src/x.rs", &format!("{HOT}{src}"))
            .findings
            .into_iter()
            .map(|f| (f.rule, f.line))
            .collect();
        assert_eq!(found, vec![("hot-btree-lookup", 2)]);
    }

    #[test]
    fn receipt_standalone_covers_next_line_trailing_covers_own() {
        let src = format!(
            "{HOT}\
// audit:allow(hot-btree-lookup): name order is the readdir order
use std::collections::BTreeMap;
fn f() -> Vec<u8> {{ Vec::new() }} // audit:allow(alloc-in-hot): a cold error path
use std::collections::BTreeSet;
"
        );
        let report = scan_source("crates/vnet/src/x.rs", &src);
        let active: Vec<_> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
        assert_eq!(
            active,
            vec![("hot-btree-lookup", 5)],
            "{:?}",
            report.findings
        );
        assert_eq!(report.accepted.len(), 2, "{:?}", report.accepted);
        assert!(report.stale.is_empty());
    }

    #[test]
    fn malformed_and_stale_receipts_are_reported() {
        let src = "\
// audit:allow(hot-btree-lookup)
fn nothing_here() {}
// audit:allow(no-such-rule): reason text
// audit:allow(alloc-in-hot): nothing on the next line allocates
fn still_nothing() {}
";
        let directives = read_directives(&lex(src).comments);
        assert!(!directives.hot);
        assert_eq!(directives.receipts.len(), 1, "{directives:?}");
        let malformed = &directives.malformed;
        assert_eq!(malformed.len(), 2, "{malformed:?}");
        assert!(malformed.iter().all(|f| f.rule == "malformed-suppression"));
        assert_eq!((malformed[0].line, malformed[0].col), (1, 4));
        let report = scan_source("crates/vnet/src/x.rs", src);
        // Both malformed comments become findings; the well-formed but
        // unmatched alloc-in-hot one is stale.
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert_eq!(report.stale.len(), 1);
        assert_eq!(report.stale[0].rule, "alloc-in-hot");
    }

    #[test]
    fn a_receipt_cannot_accept_a_malformed_comment() {
        let src = "\
// audit:hot-path: every event allocates here
// audit:allow(malformed-suppression): the next receipt is fine
// audit:allow(alloc-in-hot)
fn nothing_here() {}
";
        let report = scan_source("crates/vnet/src/x.rs", src);
        let found: Vec<_> = report
            .findings
            .iter()
            .map(|f| (f.rule, f.line, f.col))
            .collect();
        assert_eq!(
            found,
            vec![
                ("malformed-suppression", 2, 4),
                ("malformed-suppression", 3, 4)
            ]
        );
        assert!(report.accepted.is_empty(), "{:?}", report.accepted);
        assert!(report.stale.is_empty(), "{:?}", report.stale);
    }

    #[test]
    fn hot_path_marker_without_reason_is_malformed() {
        for marker in ["// audit:hot-path", "// audit:hot-path:   "] {
            let src = format!("{marker}\nuse std::collections::BTreeMap;\n");
            let found: Vec<_> = scan_source("crates/vnet/src/x.rs", &src)
                .findings
                .into_iter()
                .map(|f| (f.rule, f.line, f.col))
                .collect();
            // The marker still holds the file to the token rules.
            assert_eq!(
                found,
                vec![("malformed-suppression", 1, 4), ("hot-btree-lookup", 2, 23)],
                "{marker:?}"
            );
        }
    }

    #[test]
    fn doc_comments_and_literals_quoting_the_syntax_are_not_directives() {
        let src = "\
//! Mark a hot file with `// audit:hot-path: <reason>`.
//! Write `// audit:allow(rule)` above the line to accept it.
/// An `// audit:allow(no-such-rule)` example and a bare `// audit:hot-path`.
const HELP: &str = \"// audit:hot-path\";
use std::collections::BTreeMap;
fn f() {} // audit:allow(hot-btree-lookup
";
        let report = scan_source("crates/audit/src/x.rs", src);
        let found: Vec<_> = report
            .findings
            .iter()
            .map(|f| (f.rule, f.line, f.col))
            .collect();
        assert_eq!(found, vec![("malformed-suppression", 6, 14)]);
        assert!(report.stale.is_empty());
    }

    #[test]
    fn rules_md_lists_every_rule() {
        let md = render_rules_md();
        for r in RULES {
            assert!(
                md.contains(&format!("| `{}` |", r.name)),
                "{} missing",
                r.name
            );
        }
    }
}
