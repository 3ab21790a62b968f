//! Fixture-based tests for the linter itself: known-bad snippets must
//! produce exactly these diagnostics (rule, line, column), the
//! known-good snippet none, and allowlist entries must suppress
//! precisely the findings they name.

use gridvm_audit::config::Allowlist;
use gridvm_audit::scan_source;

fn fixture(name: &str) -> (String, String) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    (format!("crates/audit/tests/fixtures/{name}"), src)
}

/// An allowlist that lists every fixture under `[hot_paths]`, followed
/// by the `extra` audit.toml text.
fn hot(extra: &str) -> Allowlist {
    Allowlist::parse(&format!(
        "[hot_paths]\npath = \"crates/audit/tests/fixtures\"\n{extra}"
    ))
    .expect("parses")
}

fn diagnostics(name: &str, allow: &Allowlist) -> Vec<(&'static str, u32, u32)> {
    let (rel, src) = fixture(name);
    scan_source(&rel, &src, allow)
        .findings
        .into_iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect()
}

#[test]
fn good_fixture_is_clean() {
    assert_eq!(diagnostics("good.rs", &hot("")), vec![]);
}

#[test]
fn bad_hot_btree_fixture_fires_only_when_listed_hot() {
    // Without a [hot_paths] listing the fixture is silent: ordered
    // containers are fine on cold paths.
    assert_eq!(
        diagnostics("bad_hot_btree.rs", &Allowlist::default()),
        vec![]
    );
    // Listed under [hot_paths], every declaration outside #[cfg(test)]
    // is flagged.
    assert_eq!(
        diagnostics("bad_hot_btree.rs", &hot("")),
        vec![
            ("hot-btree-lookup", 4, 24),
            ("hot-btree-lookup", 4, 34),
            ("hot-btree-lookup", 7, 13),
            ("hot-btree-lookup", 8, 12),
        ]
    );

    // An allowlist entry with a written reason suppresses it, like
    // any other rule.
    let allow = hot("[[allow]]\n\
         rule = \"hot-btree-lookup\"\n\
         path = \"crates/audit/tests/fixtures\"\n\
         reason = \"fixture exercises suppression\"\n");
    let (rel, src) = fixture("bad_hot_btree.rs");
    let report = scan_source(&rel, &src, &allow);
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed.len(), 4);
}

#[test]
fn bad_alloc_hot_fixture_fires_only_when_listed_hot() {
    // Cold files may allocate freely.
    assert_eq!(
        diagnostics("bad_alloc_hot.rs", &Allowlist::default()),
        vec![]
    );
    // `new()` is constructor-shaped and exempt; every allocation in
    // `forward` is flagged.
    assert_eq!(
        diagnostics("bad_alloc_hot.rs", &hot("")),
        vec![
            ("alloc-in-hot", 17, 25),
            ("alloc-in-hot", 18, 19),
            ("alloc-in-hot", 19, 32),
            ("alloc-in-hot", 20, 31),
        ]
    );
}

#[test]
fn allowlist_suppresses_named_rule_only() {
    let allow = hot("[[allow]]\n\
         rule = \"alloc-in-hot\"\n\
         path = \"crates/audit/tests/fixtures\"\n\
         reason = \"fixture exercises suppression\"\n");
    let (rel, src) = fixture("bad_alloc_hot.rs");
    let report = scan_source(&rel, &src, &allow);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.suppressed.len(), 4, "every allocation suppressed");
    assert!(report
        .suppressed
        .iter()
        .all(|(idx, f)| *idx == 0 && f.rule == "alloc-in-hot"));
    // The same entry leaves the other rule's findings active.
    let (rel, src) = fixture("bad_hot_btree.rs");
    let report = scan_source(&rel, &src, &allow);
    assert!(report.suppressed.is_empty());
    assert_eq!(report.findings.len(), 4);
}

#[test]
fn wildcard_allowlist_suppresses_everything() {
    let allow =
        hot("[[allow]]\nrule = \"*\"\npath = \"crates/audit\"\nreason = \"fixtures trip rules\"\n");
    for name in ["bad_hot_btree.rs", "bad_alloc_hot.rs"] {
        let (rel, src) = fixture(name);
        let report = scan_source(&rel, &src, &allow);
        assert!(report.findings.is_empty(), "{name}");
        assert_eq!(report.suppressed.len(), 4, "{name}");
    }
}

#[test]
fn committed_rules_md_matches_generator() {
    // RULES.md is generated (`--rules-md`); CI diffs it too, but this
    // test catches drift before push.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let committed = std::fs::read_to_string(root.join("RULES.md")).expect("RULES.md exists");
    assert_eq!(
        committed,
        gridvm_audit::render_rules_md(),
        "RULES.md is stale: regenerate with \
         `cargo run -p gridvm-audit -- --rules-md > RULES.md`"
    );
}

#[test]
fn workspace_scan_is_clean_under_repo_allowlist_and_baseline() {
    // The repo's own audit.toml + audit_baseline.json must keep
    // `--deny` green: zero active findings across the entire workspace
    // and no stale suppression of any kind. This is the same check CI
    // runs via the binary.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root")
        .to_path_buf();
    let allow_text = std::fs::read_to_string(root.join("audit.toml")).expect("audit.toml exists");
    let allow = Allowlist::parse(&allow_text).expect("audit.toml parses");
    let mut report = gridvm_audit::scan_workspace(&root, &allow).expect("scan succeeds");
    let base_text =
        std::fs::read_to_string(root.join("audit_baseline.json")).expect("baseline exists");
    let base = gridvm_audit::config::Baseline::parse(&base_text).expect("baseline parses");
    gridvm_audit::apply_baseline(&mut report, &base);
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
    assert!(
        report.scanned > 100,
        "workspace scan saw {} files",
        report.scanned
    );
    assert!(
        report.baselined_findings() > 0,
        "the committed baseline must absorb at least one finding or be deleted"
    );
    assert_eq!(
        report.unused_allows,
        Vec::<usize>::new(),
        "stale audit.toml entries"
    );
    assert_eq!(
        report.unused_hot_paths,
        Vec::<usize>::new(),
        "stale [hot_paths] entries"
    );
    assert!(
        report.unused_inline().is_empty(),
        "stale inline audit:allow comments: {:?}",
        report.unused_inline()
    );
    assert!(
        report.stale_baseline.is_empty(),
        "baseline entries with unused budget: {:?}",
        report
            .stale_baseline
            .iter()
            .map(|b| (&b.entry.path, &b.entry.rule, b.entry.count, b.used))
            .collect::<Vec<_>>()
    );
}
