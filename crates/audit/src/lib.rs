//! `gridvm-audit` — the workspace determinism linter.
//!
//! A custom static-analysis pass over the gridvm workspace: a
//! comment/string-aware tokenizer ([`lexer`]), a determinism rule
//! catalogue ([`rules`]), the per-file item index `alloc-in-hot`
//! reads ([`analysis`]), and an allowlist of audited exceptions
//! ([`config`]). The binary (`cargo run -p gridvm-audit`) walks the
//! workspace, scans every Rust source file, and reports findings;
//! `--deny` turns any non-allowlisted finding into a non-zero exit,
//! which is how CI runs it.
//!
//! Each hazard is caught in one place. Where rustc already rejects one
//! in every scanned crate (a capturing event closure, an unsynchronized
//! shared borrow across threads, a private `simcore::shard` field read
//! elsewhere, any use of a `static mut` under `forbid(unsafe_code)`),
//! no rule here repeats it; DESIGN.md §13.2 lists each with the
//! compiler error that rejects it.
//!
//! The companion *runtime* half of the determinism story lives in
//! `gridvm-simcore::audit` (heap/arena/LRU invariant checks); this
//! crate is the static half. DESIGN.md §8 documents both.

pub mod analysis;
pub mod config;
pub mod lexer;
pub mod rules;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use config::{json_escape, Allowlist, Baseline, BaselineEntry};
use rules::{scan, FileContext, Finding, RULES};

/// One `// audit:allow(rule): reason` comment.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct InlineAllow {
    /// Rule the comment suppresses.
    pub rule: String,
    /// Written justification (mandatory).
    pub reason: String,
    /// 1-based line the suppression applies to: the comment's own line
    /// for a trailing comment, the following line for a standalone one.
    pub target_line: u32,
    /// 1-based line of the comment itself.
    pub line: u32,
}

/// One scanned file's results.
#[derive(Clone, Debug)]
pub struct FileReport {
    /// Workspace-relative path with `/` separators.
    pub path: String,
    /// Findings not covered by any suppression or baseline budget.
    pub findings: Vec<Finding>,
    /// Findings suppressed by an allowlist entry (entry index, finding).
    pub suppressed: Vec<(usize, Finding)>,
    /// Findings suppressed by an inline comment (reason, finding).
    pub inline_allowed: Vec<(String, Finding)>,
    /// Inline suppressions that matched nothing (stale).
    pub unused_inline: Vec<InlineAllow>,
    /// Findings absorbed by the baseline ratchet.
    pub baselined: Vec<Finding>,
}

/// One baseline entry's budget consumption after a scan.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineUse {
    /// The committed entry.
    pub entry: BaselineEntry,
    /// How many findings actually matched it. Less than
    /// `entry.count` means progress: the committed budget should be
    /// ratcheted down (or the entry deleted at zero).
    pub used: usize,
}

/// A full workspace scan.
#[derive(Clone, Debug, Default)]
pub struct Report {
    /// Per-file results for files with at least one finding, sorted by
    /// path.
    pub files: Vec<FileReport>,
    /// Total number of files scanned.
    pub scanned: usize,
    /// Allowlist entry indices that never matched anything (stale
    /// suppressions worth deleting).
    pub unused_allows: Vec<usize>,
    /// `[hot_paths]` entry indices that prefix no scanned file (stale
    /// entries worth deleting).
    pub unused_hot_paths: Vec<usize>,
    /// Baseline budgets not fully consumed (progress to ratchet), set
    /// by [`apply_baseline`].
    pub stale_baseline: Vec<BaselineUse>,
}

impl Report {
    /// Number of findings not covered by any suppression or baseline.
    pub fn active_findings(&self) -> usize {
        self.files.iter().map(|f| f.findings.len()).sum()
    }

    /// Number of allowlisted findings.
    pub fn suppressed_findings(&self) -> usize {
        self.files.iter().map(|f| f.suppressed.len()).sum()
    }

    /// Number of inline-suppressed findings.
    pub fn inline_allowed_findings(&self) -> usize {
        self.files.iter().map(|f| f.inline_allowed.len()).sum()
    }

    /// Number of findings absorbed by the baseline ratchet.
    pub fn baselined_findings(&self) -> usize {
        self.files.iter().map(|f| f.baselined.len()).sum()
    }

    /// Stale inline suppressions across all files, as
    /// `(path, comment)` pairs.
    pub fn unused_inline(&self) -> Vec<(&str, &InlineAllow)> {
        self.files
            .iter()
            .flat_map(|f| f.unused_inline.iter().map(move |i| (f.path.as_str(), i)))
            .collect()
    }
}

/// Extracts every `// audit:allow(rule): reason` comment from raw
/// source. Malformed suppressions — no closing paren, unknown rule,
/// missing reason — come back as `malformed-suppression` findings: a
/// suppression that silently fails open (or never matches) is itself a
/// defect.
pub fn collect_inline_allows(src: &str) -> (Vec<InlineAllow>, Vec<Finding>) {
    const MARKER: &str = "audit:allow(";
    let mut allows = Vec::new();
    let mut malformed = Vec::new();
    for (idx, raw) in src.lines().enumerate() {
        let lineno = idx as u32 + 1;
        let Some(comment_at) = raw.find("//") else {
            continue;
        };
        let comment = &raw[comment_at..];
        let Some(m) = comment.find(MARKER) else {
            continue;
        };
        let col = (comment_at + m) as u32 + 1;
        let mut bad = |message: String| {
            malformed.push(Finding {
                rule: "malformed-suppression",
                line: lineno,
                col,
                message,
            });
        };
        let after = &comment[m + MARKER.len()..];
        let Some(close) = after.find(')') else {
            bad("inline suppression is missing the closing `)`".to_owned());
            continue;
        };
        let rule = after[..close].trim();
        if !RULES.iter().any(|r| r.name == rule) {
            bad(format!(
                "inline suppression names unknown rule `{rule}` (run --list-rules)"
            ));
            continue;
        }
        let rest = &after[close + 1..];
        let reason = rest.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            bad(format!(
                "inline suppression of `{rule}` has no reason; write \
                 `// audit:allow({rule}): <why this is safe>`"
            ));
            continue;
        }
        // A comment alone on its line covers the next line; a trailing
        // comment covers its own.
        let standalone = raw[..comment_at].trim().is_empty();
        allows.push(InlineAllow {
            rule: rule.to_owned(),
            reason: reason.to_owned(),
            target_line: if standalone { lineno + 1 } else { lineno },
            line: lineno,
        });
    }
    (allows, malformed)
}

/// Scans one file's text as if it lived at `rel_path` (used by both
/// the workspace walk and the fixture tests). `treat_as` overrides the
/// crate-name classification, letting fixtures be scanned as if they
/// were sim-state library code.
pub fn scan_source(
    rel_path: &str,
    src: &str,
    treat_as: Option<&str>,
    allow: &Allowlist,
) -> FileReport {
    let mut ctx = match treat_as {
        Some(krate) => FileContext {
            crate_name: krate.to_owned(),
            kind: rules::SourceKind::Lib,
            hot: false,
        },
        None => FileContext::from_path(rel_path),
    };
    ctx.hot = allow.is_hot(rel_path);
    let (mut inline, mut malformed) = collect_inline_allows(src);
    // Suppression comments quoted inside `#[cfg(test)]` items (this
    // crate's own tests exercise the syntax in string fixtures) are
    // examples, not live suppressions: drop both the allows and any
    // malformed-syntax findings the comment scan raised there.
    let test_spans = rules::test_line_spans(src);
    let in_test_span = |line: u32| test_spans.iter().any(|&(lo, hi)| (lo..=hi).contains(&line));
    inline.retain(|i| !in_test_span(i.line));
    malformed.retain(|f| !in_test_span(f.line));
    let mut used_inline = vec![false; inline.len()];
    let mut findings = Vec::new();
    let mut suppressed = Vec::new();
    let mut inline_allowed = Vec::new();
    let mut all = scan(src, &ctx);
    all.extend(malformed);
    all.sort_by_key(|f| (f.line, f.col, f.rule));
    for f in all {
        if let Some(idx) = allow.matches(rel_path, &f) {
            suppressed.push((idx, f));
            continue;
        }
        let inline_hit = inline
            .iter()
            .position(|i| i.rule == f.rule && i.target_line == f.line);
        match inline_hit {
            Some(i) => {
                used_inline[i] = true;
                inline_allowed.push((inline[i].reason.clone(), f));
            }
            None => findings.push(f),
        }
    }
    let unused_inline = inline
        .into_iter()
        .zip(&used_inline)
        .filter_map(|(i, &used)| (!used).then_some(i))
        .collect();
    FileReport {
        path: rel_path.to_owned(),
        findings,
        suppressed,
        inline_allowed,
        unused_inline,
        baselined: Vec::new(),
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

/// Scans the whole workspace rooted at `root` against `allow`.
pub fn scan_workspace(root: &Path, allow: &Allowlist) -> std::io::Result<Report> {
    let mut report = Report::default();
    let mut used = vec![false; allow.entries.len()];
    let mut scanned = Vec::new();
    for path in workspace_sources(root)? {
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .components()
            .map(|c| c.as_os_str().to_string_lossy())
            .collect::<Vec<_>>()
            .join("/");
        let src = fs::read_to_string(&path)?;
        let file = scan_source(&rel, &src, None, allow);
        report.scanned += 1;
        for (idx, _) in &file.suppressed {
            used[*idx] = true;
        }
        if !file.findings.is_empty()
            || !file.suppressed.is_empty()
            || !file.inline_allowed.is_empty()
            || !file.unused_inline.is_empty()
        {
            report.files.push(file);
        }
        scanned.push(rel);
    }
    report.unused_allows = used
        .iter()
        .enumerate()
        .filter_map(|(i, u)| (!u).then_some(i))
        .collect();
    let scanned: Vec<&str> = scanned.iter().map(String::as_str).collect();
    report.unused_hot_paths = allow.unused_hot_paths(&scanned);
    Ok(report)
}

/// Applies the findings ratchet: findings matching a baseline entry's
/// `(path, rule)` move from `findings` to `baselined`, up to the
/// entry's count budget. Budgets not fully consumed land in
/// `report.stale_baseline` — fixed findings whose entries should now
/// be ratcheted down or deleted.
pub fn apply_baseline(report: &mut Report, base: &Baseline) {
    let mut budget: BTreeMap<(&str, &str), usize> = BTreeMap::new();
    for e in &base.entries {
        *budget
            .entry((e.path.as_str(), e.rule.as_str()))
            .or_default() += e.count;
    }
    for file in &mut report.files {
        let mut keep = Vec::new();
        for f in file.findings.drain(..) {
            match budget.get_mut(&(file.path.as_str(), f.rule)) {
                Some(b) if *b > 0 => {
                    *b -= 1;
                    file.baselined.push(f);
                }
                _ => keep.push(f),
            }
        }
        file.findings = keep;
    }
    report.stale_baseline = base
        .entries
        .iter()
        .filter_map(|e| {
            let left = budget
                .get(&(e.path.as_str(), e.rule.as_str()))
                .copied()
                .unwrap_or(0);
            (left > 0).then(|| BaselineUse {
                entry: e.clone(),
                used: e.count.saturating_sub(left),
            })
        })
        .collect();
}

/// The active findings of a report as baseline entries, for
/// `--write-baseline`.
pub fn baseline_entries(report: &Report) -> Vec<BaselineEntry> {
    let mut counts: BTreeMap<(String, &'static str), usize> = BTreeMap::new();
    for file in &report.files {
        for f in &file.findings {
            *counts.entry((file.path.clone(), f.rule)).or_default() += 1;
        }
    }
    counts
        .into_iter()
        .map(|((path, rule), count)| BaselineEntry {
            path,
            rule: rule.to_owned(),
            count,
        })
        .collect()
}

/// Renders the machine-readable `--json` report.
pub fn render_json(report: &Report, allow: &Allowlist) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"schema\": \"gridvm-audit/v1\",\n");
    out.push_str(&format!("  \"scanned\": {},\n", report.scanned));
    out.push_str(&format!(
        "  \"active\": {},\n  \"allowlisted\": {},\n  \"inline_allowed\": {},\n  \
         \"baselined\": {},\n",
        report.active_findings(),
        report.suppressed_findings(),
        report.inline_allowed_findings(),
        report.baselined_findings()
    ));
    out.push_str("  \"files\": [");
    let mut first_file = true;
    for file in &report.files {
        if !first_file {
            out.push(',');
        }
        first_file = false;
        out.push_str(&format!("\n    {{\"path\": {},", json_escape(&file.path)));
        for (key, list) in [("findings", &file.findings), ("baselined", &file.baselined)] {
            out.push_str(&format!(" \"{key}\": ["));
            for (i, f) in list.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&format!(
                    "\n      {{\"rule\": {}, \"line\": {}, \"col\": {}, \"message\": {}}}",
                    json_escape(f.rule),
                    f.line,
                    f.col,
                    json_escape(&f.message)
                ));
            }
            out.push_str("],");
        }
        out.push_str(&format!(
            " \"allowlisted\": {}, \"inline_allowed\": {}}}",
            file.suppressed.len(),
            file.inline_allowed.len()
        ));
    }
    out.push_str("],\n");
    out.push_str("  \"unused_allows\": [");
    for (i, idx) in report.unused_allows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let e = &allow.entries[*idx];
        out.push_str(&format!(
            "\n    {{\"rule\": {}, \"path\": {}, \"toml_line\": {}}}",
            json_escape(&e.rule),
            json_escape(&e.path),
            e.line
        ));
    }
    out.push_str("],\n");
    out.push_str("  \"unused_hot_paths\": [");
    for (i, idx) in report.unused_hot_paths.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": {}}}",
            json_escape(&allow.hot_paths[*idx])
        ));
    }
    out.push_str("],\n");
    out.push_str("  \"unused_inline\": [");
    for (i, (path, ia)) in report.unused_inline().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"rule\": {}, \"line\": {}}}",
            json_escape(path),
            json_escape(&ia.rule),
            ia.line
        ));
    }
    out.push_str("],\n");
    out.push_str("  \"stale_baseline\": [");
    for (i, b) in report.stale_baseline.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "\n    {{\"path\": {}, \"rule\": {}, \"count\": {}, \"used\": {}}}",
            json_escape(&b.entry.path),
            json_escape(&b.entry.rule),
            b.entry.count,
            b.used
        ));
    }
    out.push_str("]\n}\n");
    out
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
        "Static determinism rules enforced over the workspace (`--deny` in CI).\n\
         Suppressions: an `audit.toml` `[[allow]]` entry (rule/path/reason) or an\n\
         inline `// audit:allow(rule): <reason>` comment covering the next line\n\
         (or its own, when trailing code). Both demand a written reason; stale\n\
         suppressions, and `[hot_paths]` entries that match no file, fail deny\n\
         mode unless `--allow-stale`. Known findings ride the\n\
         `audit_baseline.json` ratchet (`--baseline`), which only ever shrinks.\n\
         DESIGN.md \u{a7}13 documents the architecture.\n\n",
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

    #[test]
    fn scan_source_splits_active_and_suppressed() {
        let allow = Allowlist::parse(
            "[[allow]]\nrule = \"wall-clock\"\npath = \"crates/demo\"\nreason = \"timers\"\n",
        )
        .expect("parses");
        let src = "use std::time::Instant;\nuse rand::thread_rng;\n";
        let report = scan_source("crates/demo/src/lib.rs", src, None, &allow);
        assert_eq!(report.suppressed.len(), 1);
        assert_eq!(report.findings.len(), 1);
        assert_eq!(report.findings[0].rule, "unseeded-rand");
    }

    #[test]
    fn treat_as_reclassifies_as_sim_state_lib() {
        let allow = Allowlist::default();
        let src = "use std::collections::HashMap;\n";
        // As a test file nothing fires; treated as sched lib code it does.
        let as_test = scan_source("tests/fixture.rs", src, None, &allow);
        assert!(as_test.findings.is_empty());
        let as_sched = scan_source("tests/fixture.rs", src, Some("sched"), &allow);
        assert_eq!(as_sched.findings.len(), 1);
    }

    #[test]
    fn inline_allow_standalone_covers_next_line_trailing_covers_own() {
        let src = "\
// audit:allow(hash-container): keys are never iterated, lookup-only cache
use std::collections::HashMap;
use rand::thread_rng; // audit:allow(unseeded-rand): test-only jitter, never in results
use std::time::Instant;
";
        let report = scan_source("crates/sched/src/x.rs", src, None, &Allowlist::default());
        let active: Vec<_> = report.findings.iter().map(|f| f.rule).collect();
        assert_eq!(active, vec!["wall-clock"], "{:?}", report.findings);
        assert_eq!(
            report.inline_allowed.len(),
            2,
            "{:?}",
            report.inline_allowed
        );
        assert!(report.unused_inline.is_empty());
    }

    #[test]
    fn malformed_and_stale_inline_suppressions_are_reported() {
        let src = "\
// audit:allow(hash-container)
fn nothing_here() {}
// audit:allow(no-such-rule): reason text
// audit:allow(wall-clock): nothing on the next line uses a clock
fn still_nothing() {}
";
        let (allows, malformed) = collect_inline_allows(src);
        assert_eq!(allows.len(), 1, "{allows:?}");
        assert_eq!(malformed.len(), 2, "{malformed:?}");
        assert!(malformed.iter().all(|f| f.rule == "malformed-suppression"));
        let report = scan_source("crates/sched/src/x.rs", src, None, &Allowlist::default());
        // Both malformed comments become findings; the well-formed but
        // unmatched wall-clock one is stale.
        assert_eq!(report.findings.len(), 2, "{:?}", report.findings);
        assert_eq!(report.unused_inline.len(), 1);
        assert_eq!(report.unused_inline[0].rule, "wall-clock");
    }

    #[test]
    fn baseline_absorbs_known_findings_and_reports_progress() {
        let mut report = Report {
            files: vec![FileReport {
                path: "crates/sched/src/x.rs".into(),
                findings: vec![
                    Finding {
                        rule: "hash-container",
                        line: 1,
                        col: 1,
                        message: String::new(),
                    },
                    Finding {
                        rule: "hash-container",
                        line: 2,
                        col: 1,
                        message: String::new(),
                    },
                ],
                suppressed: Vec::new(),
                inline_allowed: Vec::new(),
                unused_inline: Vec::new(),
                baselined: Vec::new(),
            }],
            scanned: 1,
            ..Report::default()
        };
        let base = Baseline {
            note: "test".into(),
            entries: vec![
                BaselineEntry {
                    path: "crates/sched/src/x.rs".into(),
                    rule: "hash-container".into(),
                    count: 3,
                },
                BaselineEntry {
                    path: "crates/vnet/src/y.rs".into(),
                    rule: "alloc-in-hot".into(),
                    count: 1,
                },
            ],
        };
        apply_baseline(&mut report, &base);
        assert_eq!(report.active_findings(), 0);
        assert_eq!(report.baselined_findings(), 2);
        // Budget 3 with 2 matches and the untouched vnet entry are both
        // stale.
        assert_eq!(
            report.stale_baseline.len(),
            2,
            "{:?}",
            report.stale_baseline
        );
        assert_eq!(report.stale_baseline[0].used, 2);
        assert_eq!(report.stale_baseline[1].used, 0);
    }

    #[test]
    fn json_report_parses_back_and_counts_match() {
        let allow = Allowlist::default();
        let src = "use std::collections::HashMap;\nuse std::time::Instant;\n";
        let file = scan_source("crates/sched/src/x.rs", src, None, &allow);
        let report = Report {
            files: vec![file],
            scanned: 1,
            ..Report::default()
        };
        let text = render_json(&report, &allow);
        // The hand-rolled parser in config::json accepts its sibling
        // serializer's output.
        let parsed = config::Baseline::parse(&text);
        // Wrong schema for a *baseline*, but it must fail on schema —
        // not on JSON shape.
        let err = parsed.unwrap_err();
        assert!(err.message.contains("schema"), "{err}");
        assert!(text.contains("\"active\": 2"), "{text}");
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
