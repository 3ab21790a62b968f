//! Fixture-based tests for the linter itself: known-bad snippets must
//! produce exactly these diagnostics (rule, line, column), the
//! known-good snippet none, and a receipt must accept precisely the
//! findings of its rule on its line.

use std::process::Command;

use gridvm_audit::scan_source;

fn fixture(name: &str) -> (String, String) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    (format!("crates/audit/tests/fixtures/{name}"), src)
}

/// The fixture's text without its one hot-path marker line.
fn unmarked(src: &str) -> String {
    let kept: Vec<&str> = src
        .lines()
        .filter(|l| !l.starts_with("// audit:hot-path:"))
        .collect();
    assert_eq!(kept.len() + 1, src.lines().count(), "one marker line");
    kept.join("\n")
}

/// `src` with `comment` appended to its 1-based line `line`.
fn with_trailing(src: &str, line: usize, comment: &str) -> String {
    src.lines()
        .enumerate()
        .map(|(i, l)| {
            if i + 1 == line {
                format!("{l} {comment}")
            } else {
                l.to_owned()
            }
        })
        .collect::<Vec<_>>()
        .join("\n")
}

fn diagnostics(name: &str) -> Vec<(&'static str, u32, u32)> {
    let (rel, src) = fixture(name);
    scan_source(&rel, &src)
        .findings
        .into_iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect()
}

fn workspace_root() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf()
}

#[test]
fn good_fixture_is_clean() {
    assert_eq!(diagnostics("good.rs"), vec![]);
}

#[test]
fn bad_hot_btree_fixture_fires_only_when_marked_hot() {
    // Without its marker the fixture is silent: ordered containers are
    // fine on cold paths.
    let (rel, src) = fixture("bad_hot_btree.rs");
    assert!(scan_source(&rel, &unmarked(&src)).findings.is_empty());
    // Marked, every declaration outside #[cfg(test)] is flagged.
    assert_eq!(
        diagnostics("bad_hot_btree.rs"),
        vec![
            ("hot-btree-lookup", 5, 24),
            ("hot-btree-lookup", 5, 34),
            ("hot-btree-lookup", 8, 13),
            ("hot-btree-lookup", 9, 12),
        ]
    );

    // A receipt with a written reason accepts its line's findings, like
    // any other rule's.
    let mut accepted = src;
    for line in [5, 8, 9] {
        accepted = with_trailing(
            &accepted,
            line,
            "// audit:allow(hot-btree-lookup): fixture exercises receipts",
        );
    }
    let report = scan_source(&rel, &accepted);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.accepted.len(), 4);
    assert!(report.stale.is_empty());
}

#[test]
fn bad_alloc_hot_fixture_fires_only_when_marked_hot() {
    // Cold files may allocate freely.
    let (rel, src) = fixture("bad_alloc_hot.rs");
    assert!(scan_source(&rel, &unmarked(&src)).findings.is_empty());
    // `new()` is constructor-shaped and exempt; every allocation in
    // `forward` is flagged.
    assert_eq!(
        diagnostics("bad_alloc_hot.rs"),
        vec![
            ("alloc-in-hot", 18, 25),
            ("alloc-in-hot", 19, 19),
            ("alloc-in-hot", 20, 32),
            ("alloc-in-hot", 21, 31),
        ]
    );
}

#[test]
fn receipt_covers_only_its_rule_on_its_line() {
    let (rel, src) = fixture("bad_alloc_hot.rs");
    let src = with_trailing(
        &src,
        18,
        "// audit:allow(alloc-in-hot): fixture exercises receipts",
    );
    // Line 19 allocates too, but a receipt for another rule does not
    // accept it, and covers nothing itself.
    let src = with_trailing(
        &src,
        19,
        "// audit:allow(hot-btree-lookup): fixture exercises receipts",
    );
    let report = scan_source(&rel, &src);
    let accepted: Vec<_> = report.accepted.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(accepted, vec![("alloc-in-hot", 18)]);
    let active: Vec<_> = report.findings.iter().map(|f| (f.rule, f.line)).collect();
    assert_eq!(
        active,
        vec![
            ("alloc-in-hot", 19),
            ("alloc-in-hot", 20),
            ("alloc-in-hot", 21)
        ]
    );
    let stale: Vec<_> = report
        .stale
        .iter()
        .map(|r| (r.rule.as_str(), r.line))
        .collect();
    assert_eq!(stale, vec![("hot-btree-lookup", 19)]);
}

#[test]
fn committed_rules_md_matches_generator() {
    // RULES.md is generated (`--rules-md`); CI diffs it too, but this
    // test catches drift before push.
    let committed =
        std::fs::read_to_string(workspace_root().join("RULES.md")).expect("RULES.md exists");
    assert_eq!(
        committed,
        gridvm_audit::render_rules_md(),
        "RULES.md is stale: regenerate with \
         `cargo run -p gridvm-audit -- --rules-md > RULES.md`"
    );
}

#[test]
fn workspace_scan_is_clean_under_its_receipts() {
    // Zero findings no receipt covers and zero stale receipts across
    // the entire workspace: the same check CI runs via the binary.
    let report = gridvm_audit::scan_workspace(&workspace_root()).expect("scan succeeds");
    let messages: Vec<String> = report
        .files
        .iter()
        .flat_map(|f| {
            f.findings
                .iter()
                .map(move |d| format!("{}:{}:{} [{}]", f.path, d.line, d.col, d.rule))
        })
        .collect();
    assert_eq!(
        report.active_findings(),
        0,
        "unexpected findings: {messages:#?}"
    );
    let stale: Vec<_> = report
        .files
        .iter()
        .flat_map(|f| f.stale.iter().map(move |r| (&f.path, r.line, &r.rule)))
        .collect();
    assert!(stale.is_empty(), "stale receipts: {stale:?}");
    assert!(
        report.scanned > 100,
        "workspace scan saw {} files",
        report.scanned
    );
    assert!(!report.fails());
}

#[test]
fn single_file_scan_with_a_stale_receipt_fails() {
    // A `--file` scan gives the workspace walk's verdict: a receipt
    // that covers no finding fails it, even with no finding at all.
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("stale_receipt.rs");
    std::fs::write(
        &path,
        "// audit:hot-path: a lookup per packet (test)\n\
         // audit:allow(alloc-in-hot): nothing on the next line allocates\n\
         pub fn f() {}\n",
    )
    .expect("write the scratch source");
    let out = Command::new(env!("CARGO_BIN_EXE_gridvm-audit"))
        .arg("--file")
        .arg(&path)
        .output()
        .expect("run gridvm-audit");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains(":2: stale receipt"), "{stdout}");
    assert!(
        stdout.contains("0 finding(s), 0 accepted by receipt, 1 stale receipt(s)"),
        "{stdout}"
    );
}
