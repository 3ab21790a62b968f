//! `audit.toml` allowlist parsing and matching.
//!
//! The allowlist records *audited exceptions*: places where a flagged
//! construct is deliberate and its safety argument has been written
//! down. The format is a minimal TOML subset parsed by hand (the
//! workspace has no TOML dependency):
//!
//! ```toml
//! [[allow]]
//! rule = "hot-btree-lookup"
//! path = "crates/vfs/src/fs.rs"
//! reason = "readdir must return name order; the per-inode path is a SlotMap"
//! ```
//!
//! `rule` must name a rule from the catalogue (or `"*"` for any),
//! `path` is a workspace-relative prefix, and `reason` is mandatory —
//! an allowlist entry without a written justification defeats the
//! point of having one.
//!
//! A `[hot_paths]` section lists the files whose per-entity lookups
//! are measured hot paths; the token rules (`hot-btree-lookup`,
//! `alloc-in-hot`) scan only these files:
//!
//! ```toml
//! [hot_paths]
//! path = "crates/vnet/src/overlay.rs"
//! path = "crates/sched/src/wfq.rs"
//! ```
//!
//! A `[hot_paths]` entry that prefixes no scanned file is stale, like
//! an `[[allow]]` entry that suppresses nothing: a workspace scan
//! reports it, and it fails deny mode unless `--allow-stale`.

use crate::rules::{Finding, RULES};

/// Identifies the baseline file format; bumped on breaking changes.
pub const BASELINE_SCHEMA: &str = "gridvm-audit-baseline/v1";

/// One `[[allow]]` entry.
#[derive(Clone, Debug)]
pub struct AllowEntry {
    /// Rule name this entry suppresses, or `"*"` for every rule.
    pub rule: String,
    /// Workspace-relative path prefix the suppression applies to.
    pub path: String,
    /// Written justification (mandatory).
    pub reason: String,
    /// 1-based line of the `[[allow]]` header, for diagnostics.
    pub line: u32,
}

/// The parsed allowlist.
#[derive(Clone, Debug, Default)]
pub struct Allowlist {
    /// All entries, in file order.
    pub entries: Vec<AllowEntry>,
    /// Workspace-relative path prefixes from `[hot_paths]`: the files
    /// the token rules scan.
    pub hot_paths: Vec<String>,
}

/// A fatal problem in the allowlist file itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ConfigError {
    /// 1-based line the problem was detected on.
    pub line: u32,
    /// What is wrong.
    pub message: String,
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "audit.toml:{}: {}", self.line, self.message)
    }
}

impl Allowlist {
    /// Parses the `audit.toml` text. Unknown keys, missing `reason`s,
    /// and rule names outside the catalogue are hard errors: a typo in
    /// a suppression must not silently re-enable (or widen) it.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        let mut entries: Vec<AllowEntry> = Vec::new();
        let mut hot_paths: Vec<String> = Vec::new();
        let mut current: Option<AllowEntry> = None;
        let mut in_hot_paths = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx as u32 + 1;
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[allow]]" {
                if let Some(done) = current.take() {
                    validate(&done)?;
                    entries.push(done);
                }
                in_hot_paths = false;
                current = Some(AllowEntry {
                    rule: String::new(),
                    path: String::new(),
                    reason: String::new(),
                    line: lineno,
                });
                continue;
            }
            if line == "[hot_paths]" {
                if let Some(done) = current.take() {
                    validate(&done)?;
                    entries.push(done);
                }
                in_hot_paths = true;
                continue;
            }
            let Some((key, value)) = parse_kv(line) else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!(
                        "expected `[[allow]]`, `[hot_paths]` or `key = \"value\"`, got `{line}`"
                    ),
                });
            };
            if in_hot_paths {
                if key != "path" {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown key `{key}` in [hot_paths] (expected path)"),
                    });
                }
                if value.is_empty() {
                    return Err(ConfigError {
                        line: lineno,
                        message: "[hot_paths] entry has an empty path".to_owned(),
                    });
                }
                hot_paths.push(value);
                continue;
            }
            let Some(entry) = current.as_mut() else {
                return Err(ConfigError {
                    line: lineno,
                    message: format!("`{key}` outside an [[allow]] table"),
                });
            };
            match key {
                "rule" => entry.rule = value,
                "path" => entry.path = value,
                "reason" => entry.reason = value,
                other => {
                    return Err(ConfigError {
                        line: lineno,
                        message: format!("unknown key `{other}` (expected rule/path/reason)"),
                    });
                }
            }
        }
        if let Some(done) = current.take() {
            validate(&done)?;
            entries.push(done);
        }
        Ok(Allowlist { entries, hot_paths })
    }

    /// True when `path` is covered by a `[hot_paths]` prefix — i.e.
    /// the token rules apply to it.
    pub fn is_hot(&self, path: &str) -> bool {
        self.hot_paths.iter().any(|p| path.starts_with(p.as_str()))
    }

    /// Indices of the `[hot_paths]` entries that prefix none of the
    /// `scanned` paths — stale entries naming moved or deleted files.
    pub fn unused_hot_paths(&self, scanned: &[&str]) -> Vec<usize> {
        self.hot_paths
            .iter()
            .enumerate()
            .filter(|(_, p)| !scanned.iter().any(|s| s.starts_with(p.as_str())))
            .map(|(i, _)| i)
            .collect()
    }

    /// Index of the first entry suppressing `finding` at `path`, if
    /// any. Returning the index lets the caller track which entries
    /// were actually used and warn about stale ones.
    pub fn matches(&self, path: &str, finding: &Finding) -> Option<usize> {
        self.entries.iter().position(|e| {
            (e.rule == "*" || e.rule == finding.rule) && path.starts_with(e.path.as_str())
        })
    }
}

fn validate(entry: &AllowEntry) -> Result<(), ConfigError> {
    let known = entry.rule == "*" || RULES.iter().any(|r| r.name == entry.rule);
    if !known {
        return Err(ConfigError {
            line: entry.line,
            message: format!(
                "unknown rule `{}` (run --list-rules for the catalogue)",
                entry.rule
            ),
        });
    }
    if entry.path.is_empty() {
        return Err(ConfigError {
            line: entry.line,
            message: "entry is missing `path`".to_owned(),
        });
    }
    if entry.reason.is_empty() {
        return Err(ConfigError {
            line: entry.line,
            message: "entry is missing `reason`; every suppression needs a written \
                      justification"
                .to_owned(),
        });
    }
    Ok(())
}

/// One `(path, rule)` budget in the findings baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Workspace-relative file path the findings live in.
    pub path: String,
    /// Rule name.
    pub rule: String,
    /// How many findings of `rule` in `path` the ratchet tolerates.
    pub count: usize,
}

/// The findings ratchet: known findings that existed when a rule
/// landed, committed as `audit_baseline.json`. Deny mode fails only on
/// findings *beyond* these budgets, so new rules can ship with their
/// pre-existing findings triaged over time instead of blocking the
/// tree; entries whose findings have been fixed are reported so the
/// baseline only ever shrinks.
#[derive(Clone, Debug, Default)]
pub struct Baseline {
    /// Why this baseline is allowed to exist (mandatory, even — and
    /// especially — when `entries` is empty).
    pub note: String,
    /// Budgets, as committed.
    pub entries: Vec<BaselineEntry>,
}

impl Baseline {
    /// Parses the baseline JSON. Schema mismatches, unknown rule names
    /// and a missing `note` are hard errors, for the same reason they
    /// are in `audit.toml`: a typo must not silently widen the ratchet.
    pub fn parse(text: &str) -> Result<Self, ConfigError> {
        use json::ObjectExt as _;
        let v = json::parse(text)?;
        let obj = v.as_object("top level")?;
        let schema = obj.get_str("schema")?;
        if schema != BASELINE_SCHEMA {
            return Err(ConfigError {
                line: 1,
                message: format!("baseline schema is `{schema}`, expected `{BASELINE_SCHEMA}`"),
            });
        }
        let note = obj.get_str("note")?.to_owned();
        if note.is_empty() {
            return Err(ConfigError {
                line: 1,
                message: "baseline `note` is empty; write down why the ratchet exists".to_owned(),
            });
        }
        let mut entries = Vec::new();
        for item in obj.get_array("findings")? {
            let e = item.as_object("findings entry")?;
            let rule = e.get_str("rule")?.to_owned();
            if !RULES.iter().any(|r| r.name == rule) {
                return Err(ConfigError {
                    line: 1,
                    message: format!("baseline names unknown rule `{rule}`"),
                });
            }
            let path = e.get_str("path")?.to_owned();
            let count = e.get_count("count")?;
            if path.is_empty() || count == 0 {
                return Err(ConfigError {
                    line: 1,
                    message: "baseline entry needs a non-empty path and count >= 1".to_owned(),
                });
            }
            entries.push(BaselineEntry { path, rule, count });
        }
        Ok(Baseline { note, entries })
    }

    /// Serializes a baseline for `--write-baseline`, sorted so the
    /// committed file is diff-stable.
    pub fn render(note: &str, entries: &[BaselineEntry]) -> String {
        let mut sorted = entries.to_vec();
        sorted.sort_by(|a, b| (&a.path, &a.rule).cmp(&(&b.path, &b.rule)));
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{BASELINE_SCHEMA}\",\n"));
        out.push_str(&format!("  \"note\": {},\n", json::escape(note)));
        out.push_str("  \"findings\": [");
        for (i, e) in sorted.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"path\": {}, \"rule\": {}, \"count\": {}}}",
                json::escape(&e.path),
                json::escape(&e.rule),
                e.count
            ));
        }
        if !sorted.is_empty() {
            out.push('\n');
            out.push_str("  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// A hand-rolled JSON subset — objects, arrays, strings, unsigned
/// integers, `true`/`false`/`null` — enough for the baseline file and
/// report output without a serde dependency.
mod json {
    use super::ConfigError;
    use std::collections::BTreeMap;

    /// One parsed JSON value.
    pub enum Value {
        /// An object; keys sorted, duplicates rejected at parse time.
        Object(BTreeMap<String, Value>),
        /// An array.
        Array(Vec<Value>),
        /// A string.
        Str(String),
        /// An unsigned integer (the only number shape the baseline
        /// uses).
        Num(u64),
        /// `true` / `false` / `null`, folded (the baseline never reads
        /// them back).
        Atom,
    }

    impl Value {
        pub fn as_object(&self, what: &str) -> Result<&BTreeMap<String, Value>, ConfigError> {
            match self {
                Value::Object(m) => Ok(m),
                _ => Err(err(format!("{what} must be a JSON object"))),
            }
        }
    }

    /// Typed field access on parsed objects.
    pub trait ObjectExt {
        fn get_str(&self, key: &str) -> Result<&str, ConfigError>;
        fn get_array(&self, key: &str) -> Result<&[Value], ConfigError>;
        fn get_count(&self, key: &str) -> Result<usize, ConfigError>;
    }

    impl ObjectExt for BTreeMap<String, Value> {
        fn get_str(&self, key: &str) -> Result<&str, ConfigError> {
            match self.get(key) {
                Some(Value::Str(s)) => Ok(s),
                _ => Err(err(format!("missing or non-string `{key}`"))),
            }
        }

        fn get_array(&self, key: &str) -> Result<&[Value], ConfigError> {
            match self.get(key) {
                Some(Value::Array(a)) => Ok(a),
                _ => Err(err(format!("missing or non-array `{key}`"))),
            }
        }

        fn get_count(&self, key: &str) -> Result<usize, ConfigError> {
            match self.get(key) {
                Some(Value::Num(n)) => Ok(*n as usize),
                _ => Err(err(format!("missing or non-integer `{key}`"))),
            }
        }
    }

    fn err(message: String) -> ConfigError {
        ConfigError { line: 1, message }
    }

    /// Escapes `s` as a JSON string literal (quotes included).
    pub fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                '\r' => out.push_str("\\r"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Value, ConfigError> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let v = value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(at(bytes, pos, "trailing content after JSON value"));
        }
        Ok(v)
    }

    fn at(bytes: &[u8], pos: usize, message: &str) -> ConfigError {
        let line = bytes[..pos.min(bytes.len())]
            .iter()
            .filter(|&&b| b == b'\n')
            .count() as u32
            + 1;
        ConfigError {
            line,
            message: message.to_owned(),
        }
    }

    fn skip_ws(bytes: &[u8], pos: &mut usize) {
        while bytes
            .get(*pos)
            .is_some_and(|b| matches!(b, b' ' | b'\t' | b'\r' | b'\n'))
        {
            *pos += 1;
        }
    }

    fn value(bytes: &[u8], pos: &mut usize) -> Result<Value, ConfigError> {
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b'{') => {
                *pos += 1;
                let mut map = BTreeMap::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b'}') {
                    *pos += 1;
                    return Ok(Value::Object(map));
                }
                loop {
                    skip_ws(bytes, pos);
                    let key = match value(bytes, pos)? {
                        Value::Str(s) => s,
                        _ => return Err(at(bytes, *pos, "object key must be a string")),
                    };
                    skip_ws(bytes, pos);
                    if bytes.get(*pos) != Some(&b':') {
                        return Err(at(bytes, *pos, "expected `:` after object key"));
                    }
                    *pos += 1;
                    let v = value(bytes, pos)?;
                    if map.insert(key, v).is_some() {
                        return Err(at(bytes, *pos, "duplicate object key"));
                    }
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b'}') => {
                            *pos += 1;
                            return Ok(Value::Object(map));
                        }
                        _ => return Err(at(bytes, *pos, "expected `,` or `}` in object")),
                    }
                }
            }
            Some(b'[') => {
                *pos += 1;
                let mut items = Vec::new();
                skip_ws(bytes, pos);
                if bytes.get(*pos) == Some(&b']') {
                    *pos += 1;
                    return Ok(Value::Array(items));
                }
                loop {
                    items.push(value(bytes, pos)?);
                    skip_ws(bytes, pos);
                    match bytes.get(*pos) {
                        Some(b',') => *pos += 1,
                        Some(b']') => {
                            *pos += 1;
                            return Ok(Value::Array(items));
                        }
                        _ => return Err(at(bytes, *pos, "expected `,` or `]` in array")),
                    }
                }
            }
            Some(b'"') => {
                *pos += 1;
                let mut s = String::new();
                loop {
                    match bytes.get(*pos) {
                        Some(b'"') => {
                            *pos += 1;
                            return Ok(Value::Str(s));
                        }
                        Some(b'\\') => {
                            *pos += 1;
                            match bytes.get(*pos) {
                                Some(b'n') => s.push('\n'),
                                Some(b't') => s.push('\t'),
                                Some(b'r') => s.push('\r'),
                                Some(b'"') => s.push('"'),
                                Some(b'\\') => s.push('\\'),
                                Some(b'/') => s.push('/'),
                                Some(b'u') => {
                                    let hex = bytes
                                        .get(*pos + 1..*pos + 5)
                                        .and_then(|h| std::str::from_utf8(h).ok())
                                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                                        .and_then(char::from_u32)
                                        .ok_or_else(|| {
                                            at(bytes, *pos, "bad \\u escape in string")
                                        })?;
                                    s.push(hex);
                                    *pos += 4;
                                }
                                _ => return Err(at(bytes, *pos, "bad escape in string")),
                            }
                            *pos += 1;
                        }
                        Some(&b) if b < 0x80 => {
                            s.push(b as char);
                            *pos += 1;
                        }
                        Some(_) => {
                            // Multi-byte UTF-8: copy the whole char.
                            let rest = std::str::from_utf8(&bytes[*pos..])
                                .map_err(|_| at(bytes, *pos, "invalid UTF-8 in string"))?;
                            let c = rest.chars().next().expect("non-empty by construction");
                            s.push(c);
                            *pos += c.len_utf8();
                        }
                        None => return Err(at(bytes, *pos, "unterminated string")),
                    }
                }
            }
            Some(b) if b.is_ascii_digit() => {
                let start = *pos;
                while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
                    *pos += 1;
                }
                let n = std::str::from_utf8(&bytes[start..*pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| at(bytes, start, "bad number"))?;
                Ok(Value::Num(n))
            }
            Some(_) => {
                for kw in ["true", "false", "null"] {
                    if bytes[*pos..].starts_with(kw.as_bytes()) {
                        *pos += kw.len();
                        return Ok(Value::Atom);
                    }
                }
                Err(at(bytes, *pos, "unexpected character in JSON"))
            }
            None => Err(at(bytes, *pos, "unexpected end of JSON")),
        }
    }
}

pub use json::escape as json_escape;

/// Strips a `#` comment, ignoring `#` inside double quotes.
fn strip_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Parses `key = "value"`.
fn parse_kv(line: &str) -> Option<(&str, String)> {
    let (key, rest) = line.split_once('=')?;
    let key = key.trim();
    let rest = rest.trim();
    let value = rest.strip_prefix('"')?.strip_suffix('"')?;
    if !key.chars().all(|c| c.is_ascii_alphanumeric() || c == '_') {
        return None;
    }
    Some((key, value.to_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(rule: &'static str) -> Finding {
        Finding {
            rule,
            line: 1,
            col: 1,
            message: String::new(),
        }
    }

    #[test]
    fn parses_entries_and_matches_by_prefix() {
        let text = "\
# audited exceptions\n\
[[allow]]\n\
rule = \"hot-btree-lookup\"\n\
path = \"crates/vfs/src\"\n\
reason = \"readdir order is semantic\"\n\
\n\
[[allow]]\n\
rule = \"*\"\n\
path = \"crates/audit/tests/fixtures\"\n\
reason = \"fixtures exist to trip the rules\"\n";
        let list = Allowlist::parse(text).expect("parses");
        assert_eq!(list.entries.len(), 2);
        assert_eq!(
            list.matches("crates/vfs/src/fs.rs", &finding("hot-btree-lookup")),
            Some(0)
        );
        assert_eq!(
            list.matches("crates/vfs/src/fs.rs", &finding("alloc-in-hot")),
            None
        );
        assert_eq!(
            list.matches(
                "crates/audit/tests/fixtures/bad.rs",
                &finding("alloc-in-hot")
            ),
            Some(1)
        );
    }

    #[test]
    fn hot_paths_section_parses_and_matches_by_prefix() {
        let text = "\
[hot_paths]\n\
path = \"crates/vnet/src/overlay.rs\"\n\
path = \"crates/sched/src\"\n\
\n\
[[allow]]\n\
rule = \"hot-btree-lookup\"\n\
path = \"crates/sched/src/edf.rs\"\n\
reason = \"deadline order is semantic\"\n";
        let list = Allowlist::parse(text).expect("parses");
        assert_eq!(list.hot_paths.len(), 2);
        assert!(list.is_hot("crates/vnet/src/overlay.rs"));
        assert!(list.is_hot("crates/sched/src/wfq.rs"));
        assert!(!list.is_hot("crates/vnet/src/dhcp.rs"));
        assert_eq!(
            list.entries.len(),
            1,
            "allow table after [hot_paths] parses"
        );
    }

    #[test]
    fn hot_paths_matching_no_scanned_file_are_stale() {
        let text = "\
[hot_paths]\n\
path = \"crates/vnet/src/overlay.rs\"\n\
path = \"crates/vfs/src/client.rs\"\n\
path = \"crates/sched/src\"\n";
        let list = Allowlist::parse(text).expect("parses");
        let scanned = ["crates/vnet/src/overlay.rs", "crates/sched/src/wfq.rs"];
        assert_eq!(list.unused_hot_paths(&scanned), vec![1]);
        assert_eq!(list.unused_hot_paths(&[]), vec![0, 1, 2]);
    }

    #[test]
    fn hot_paths_rejects_foreign_keys_and_empty_paths() {
        let err = Allowlist::parse("[hot_paths]\nrule = \"x\"\n").unwrap_err();
        assert!(err.message.contains("unknown key"), "{err}");
        let err = Allowlist::parse("[hot_paths]\npath = \"\"\n").unwrap_err();
        assert!(err.message.contains("empty path"), "{err}");
    }

    #[test]
    fn missing_reason_is_fatal() {
        let text = "[[allow]]\nrule = \"alloc-in-hot\"\npath = \"crates/vnet\"\n";
        let err = Allowlist::parse(text).unwrap_err();
        assert!(err.message.contains("reason"), "{err}");
    }

    #[test]
    fn unknown_rule_is_fatal() {
        // A typo, and a rule the compiler now enforces instead.
        for rule in ["alloc-in-hots", "wall-clock"] {
            let text = format!("[[allow]]\nrule = \"{rule}\"\npath = \"x\"\nreason = \"r\"\n");
            let err = Allowlist::parse(&text).unwrap_err();
            assert!(err.message.contains("unknown rule"), "{err}");
        }
    }

    #[test]
    fn keys_outside_a_table_are_fatal() {
        let err = Allowlist::parse("rule = \"alloc-in-hot\"\n").unwrap_err();
        assert!(err.message.contains("outside"), "{err}");
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# nothing but comments\n   # indented\n";
        let list = Allowlist::parse(text).expect("parses");
        assert!(list.entries.is_empty());
    }

    #[test]
    fn baseline_round_trips_through_render_and_parse() {
        let entries = vec![
            BaselineEntry {
                path: "crates/vnet/src/overlay.rs".into(),
                rule: "alloc-in-hot".into(),
                count: 3,
            },
            BaselineEntry {
                path: "crates/vfs/src/fs.rs".into(),
                rule: "alloc-in-hot".into(),
                count: 1,
            },
        ];
        let text = Baseline::render("triaged at rule introduction", &entries);
        let base = Baseline::parse(&text).expect("round-trips");
        assert_eq!(base.note, "triaged at rule introduction");
        // Render sorts by (path, rule).
        assert_eq!(base.entries[0].path, "crates/vfs/src/fs.rs");
        assert_eq!(base.entries[1].count, 3);
    }

    #[test]
    fn baseline_rejects_bad_schema_unknown_rule_and_empty_note() {
        let bad_schema = r#"{"schema": "nope/v9", "note": "x", "findings": []}"#;
        assert!(Baseline::parse(bad_schema).is_err());
        let bad_rule = format!(
            r#"{{"schema": "{BASELINE_SCHEMA}", "note": "x",
                "findings": [{{"path": "a.rs", "rule": "no-such-rule", "count": 1}}]}}"#
        );
        let err = Baseline::parse(&bad_rule).unwrap_err();
        assert!(err.message.contains("unknown rule"), "{err}");
        let empty_note =
            format!(r#"{{"schema": "{BASELINE_SCHEMA}", "note": "", "findings": []}}"#);
        assert!(Baseline::parse(&empty_note).is_err());
    }

    #[test]
    fn baseline_rejects_malformed_json() {
        assert!(Baseline::parse("{").is_err());
        assert!(Baseline::parse("").is_err());
        assert!(Baseline::parse(r#"{"schema": }"#).is_err());
    }
}
