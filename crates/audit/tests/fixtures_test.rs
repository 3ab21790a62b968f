//! Fixture-based tests for the linter itself: known-bad snippets must
//! produce exactly these diagnostics (rule, line, column), known-good
//! snippets none, and allowlist entries must suppress precisely the
//! findings they name.

use gridvm_audit::config::Allowlist;
use gridvm_audit::scan_source;

fn fixture(name: &str) -> (String, String) {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let src = std::fs::read_to_string(&path).expect("fixture exists");
    (format!("crates/audit/tests/fixtures/{name}"), src)
}

fn diagnostics(name: &str, treat_as: &str) -> Vec<(&'static str, u32, u32)> {
    let (rel, src) = fixture(name);
    scan_source(&rel, &src, Some(treat_as), &Allowlist::default())
        .findings
        .into_iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect()
}

#[test]
fn bad_hash_fixture_exact_diagnostics() {
    assert_eq!(
        diagnostics("bad_hash.rs", "sched"),
        vec![
            ("hash-container", 4, 23),
            ("hash-container", 7, 14),
            ("float-accum", 12, 40),
            ("float-accum", 18, 17),
        ]
    );
}

#[test]
fn bad_misc_fixture_exact_diagnostics() {
    assert_eq!(
        diagnostics("bad_misc.rs", "vnet"),
        vec![
            ("wall-clock", 3, 16),
            ("wall-clock", 6, 19),
            ("unseeded-rand", 7, 25),
            ("unwrap-lib", 8, 45),
        ]
    );
}

#[test]
fn bad_sync_fixture_exact_diagnostics() {
    assert_eq!(
        diagnostics("bad_sync.rs", "simcore"),
        vec![
            ("sync-primitive", 4, 25),
            ("sync-primitive", 5, 17),
            ("sync-primitive", 5, 24),
            ("sync-primitive", 8, 12),
            ("sync-primitive", 9, 12),
            ("sync-primitive", 10, 11),
        ]
    );
    // Outside the sim-state crate list (harness code) the rule is
    // silent.
    assert_eq!(diagnostics("bad_sync.rs", "bench"), vec![]);
}

#[test]
fn good_fixture_is_clean() {
    assert_eq!(diagnostics("good.rs", "sched"), vec![]);
}

#[test]
fn bad_hot_btree_fixture_fires_only_when_listed_hot() {
    // Without a [hot_paths] listing the fixture is silent: ordered
    // containers are fine on cold paths.
    assert_eq!(diagnostics("bad_hot_btree.rs", "vnet"), vec![]);

    // Listed under [hot_paths], every declaration outside #[cfg(test)]
    // is flagged.
    let (rel, src) = fixture("bad_hot_btree.rs");
    let allow =
        Allowlist::parse("[hot_paths]\npath = \"crates/audit/tests/fixtures/bad_hot_btree.rs\"\n")
            .expect("parses");
    let report = scan_source(&rel, &src, Some("vnet"), &allow);
    let diags: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect();
    assert_eq!(
        diags,
        vec![
            ("hot-btree-lookup", 4, 24),
            ("hot-btree-lookup", 4, 34),
            ("hot-btree-lookup", 7, 13),
            ("hot-btree-lookup", 8, 12),
        ]
    );

    // An allowlist entry with a written reason suppresses it, like
    // any other rule.
    let allow = Allowlist::parse(
        "[hot_paths]\n\
         path = \"crates/audit/tests/fixtures/bad_hot_btree.rs\"\n\
         [[allow]]\n\
         rule = \"hot-btree-lookup\"\n\
         path = \"crates/audit/tests/fixtures\"\n\
         reason = \"fixture exercises suppression\"\n",
    )
    .expect("parses");
    let report = scan_source(&rel, &src, Some("vnet"), &allow);
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed.len(), 4);
}

#[test]
fn hash_rules_require_sim_state_crate_context() {
    // Outside the sim-state crate list the hash-container rule does
    // not apply; float-accum still does (order-sensitive arithmetic is
    // wrong in any crate), as does the wall-clock/rand/unwrap family.
    assert_eq!(
        diagnostics("bad_hash.rs", "bench"),
        vec![("float-accum", 12, 40), ("float-accum", 18, 17)]
    );
    assert_eq!(diagnostics("bad_misc.rs", "bench").len(), 4);
}

#[test]
fn allowlist_suppresses_named_rule_only() {
    let (rel, src) = fixture("bad_misc.rs");
    let allow = Allowlist::parse(
        "[[allow]]\n\
         rule = \"wall-clock\"\n\
         path = \"crates/audit/tests/fixtures\"\n\
         reason = \"fixture exercises suppression\"\n",
    )
    .expect("parses");
    let report = scan_source(&rel, &src, Some("vnet"), &allow);
    let active: Vec<_> = report.findings.iter().map(|f| f.rule).collect();
    assert_eq!(active, vec!["unseeded-rand", "unwrap-lib"]);
    assert_eq!(
        report.suppressed.len(),
        2,
        "both Instant sightings suppressed"
    );
    assert!(report
        .suppressed
        .iter()
        .all(|(idx, f)| *idx == 0 && f.rule == "wall-clock"));
}

#[test]
fn wildcard_allowlist_suppresses_everything() {
    let (rel, src) = fixture("bad_hash.rs");
    let allow = Allowlist::parse(
        "[[allow]]\nrule = \"*\"\npath = \"crates/audit\"\nreason = \"fixtures trip rules\"\n",
    )
    .expect("parses");
    let report = scan_source(&rel, &src, Some("sched"), &allow);
    assert!(report.findings.is_empty());
    assert_eq!(report.suppressed.len(), 4);
}

#[test]
fn bad_iter_taint_fixture_exact_diagnostics() {
    assert_eq!(
        diagnostics("bad_iter_taint.rs", "simcore"),
        vec![
            ("hash-container", 5, 16),
            ("hash-container", 12, 18),
            ("float-accum", 15, 15),
        ]
    );
}

#[test]
fn bad_alloc_hot_fixture_fires_only_when_listed_hot() {
    // Cold files may allocate freely.
    assert_eq!(diagnostics("bad_alloc_hot.rs", "vnet"), vec![]);

    let (rel, src) = fixture("bad_alloc_hot.rs");
    let allow =
        Allowlist::parse("[hot_paths]\npath = \"crates/audit/tests/fixtures/bad_alloc_hot.rs\"\n")
            .expect("parses");
    let report = scan_source(&rel, &src, Some("vnet"), &allow);
    let diags: Vec<_> = report
        .findings
        .iter()
        .map(|f| (f.rule, f.line, f.col))
        .collect();
    // `new()` is constructor-shaped and exempt; every allocation in
    // `forward` is flagged.
    assert_eq!(
        diags,
        vec![
            ("alloc-in-hot", 17, 25),
            ("alloc-in-hot", 18, 19),
            ("alloc-in-hot", 19, 32),
            ("alloc-in-hot", 20, 31),
        ]
    );
}

#[test]
fn bad_trace_format_fixture_exact_diagnostics() {
    assert_eq!(
        diagnostics("bad_trace_format.rs", "core"),
        vec![("trace-format", 6, 33), ("trace-format", 13, 9)]
    );
    // Library code in any crate, simcore included; the cfg(test)
    // module and the format_args! call stay silent.
    assert_eq!(
        diagnostics("bad_trace_format.rs", "simcore"),
        diagnostics("bad_trace_format.rs", "bench")
    );
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
