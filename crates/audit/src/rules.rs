//! The rule catalogue and the scanner that applies it.
//!
//! Each rule is a short token-sequence pattern over the output of
//! [`crate::lexer`], evaluated outside `#[cfg(test)]` items. The
//! token rules apply only to files that carry a
//! `// audit:hot-path: <what runs per event here>` marker, a file-list
//! scope that clippy cannot express;
//! `alloc-in-hot` also reads the [`crate::analysis`] item index to tell
//! constructors from steady-state code. Every determinism hazard that
//! rustc or clippy can reject is rejected there instead (the root
//! `clippy.toml` and workspace lints; DESIGN.md §8.2 and §13.2):
//!
//! | rule | hazard |
//! |------|--------|
//! | `hot-btree-lookup`| `BTreeMap`/`BTreeSet` in a hot-path file: O(log n) lookups on a measured hot path |
//! | `alloc-in-hot`    | heap allocation in a non-constructor function of a hot-path file: measured hot paths are allocation-free in steady state |
//! | `malformed-suppression` | a receipt with no reason, an unknown rule name or this rule's name, or a hot-path marker with no reason: a comment that cannot say why fails open |

use std::ops::Range;

use crate::analysis::{receiver_chain, FileIndex};
use crate::lexer::{Token, TokenKind};

/// One diagnostic produced by the scanner.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired (e.g. `"alloc-in-hot"`).
    pub rule: &'static str,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column.
    pub col: u32,
    /// Human-readable explanation with the suggested fix.
    pub message: String,
}

/// A rule's catalogue entry, for RULES.md.
pub struct RuleInfo {
    /// Rule identifier as it appears in diagnostics and receipts.
    pub name: &'static str,
    /// One-line description of the hazard the rule detects.
    pub summary: &'static str,
}

/// The rule catalogue, in diagnostic-name order.
pub const RULES: &[RuleInfo] = &[
    RuleInfo {
        name: "alloc-in-hot",
        summary: "heap allocation (Box::new/Vec::new/vec!/format!/to_string/to_owned/heap \
                  clone) inside a non-constructor function of a file marked \
                  `// audit:hot-path`: steady state on measured hot paths is allocation-free \
                  (DESIGN.md \u{a7}10/\u{a7}11); hoist the allocation to setup or give the line \
                  a receipt",
    },
    RuleInfo {
        name: "hot-btree-lookup",
        summary: "BTreeMap/BTreeSet in a file marked `// audit:hot-path`: O(log n) lookups \
                  on a measured hot path; use slot::SlotMap/DenseMap, or give the line a \
                  receipt saying why order is semantic there",
    },
    RuleInfo {
        name: "malformed-suppression",
        summary: "a `// audit:allow(rule)` receipt with no reason text, an unknown \
                  rule name or this rule's name, or a `// audit:hot-path` marker with no \
                  reason: every receipt and marker needs a written justification",
    },
];

/// Scans the tokens of one hot-path file, skipping
/// `#[cfg(test)]` items, and returns every `hot-btree-lookup` and
/// `alloc-in-hot` finding (rule by rule, each in source order).
pub fn scan_hot(toks: &[Token]) -> Vec<Finding> {
    let test_regions = test_regions(toks);
    let in_test = |i: usize| test_regions.iter().any(|r| r.contains(&i));
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if let Some(name @ ("BTreeMap" | "BTreeSet")) = t.ident() {
            if !in_test(i) {
                out.push(Finding {
                    rule: "hot-btree-lookup",
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "{name} in a hot-path file: per-entity lookups here are \
                         measured hot paths and must be O(1); migrate to \
                         slot::SlotMap/DenseMap or give the line a receipt where \
                         order is semantic"
                    ),
                });
            }
        }
    }
    scan_alloc_in_hot(toks, &in_test, &mut out);
    out
}

/// Heap-allocating constructors by `Path :: name` pattern.
const ALLOC_PATHS: &[(&str, &str)] = &[
    ("Box", "new"),
    ("Vec", "new"),
    ("Vec", "with_capacity"),
    ("String", "new"),
    ("String", "from"),
];

/// Heap-allocating method calls (`.name(`) on declared heap types or
/// unconditionally allocating conversions.
const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec"];

/// Types whose `.clone()` is a heap allocation.
const HEAP_TYPES: &[&str] = &[
    "String", "Vec", "VecDeque", "Box", "BTreeMap", "BTreeSet", "HashMap", "HashSet",
];

/// `alloc-in-hot`: allocation calls inside non-constructor functions
/// of hot-path files. Constructor-shaped functions (`new`,
/// `default`, `from_*`, `with_*`) are setup, not steady state, and
/// stay exempt — that distinction is what the item index buys.
fn scan_alloc_in_hot(toks: &[Token], in_test: &dyn Fn(usize) -> bool, out: &mut Vec<Finding>) {
    let idx = FileIndex::build(toks);
    for f in &idx.fns {
        if f.body.is_empty() || in_test(f.body.start) {
            continue;
        }
        if f.name == "new"
            || f.name == "default"
            || f.name.starts_with("from_")
            || f.name.starts_with("with_")
        {
            continue;
        }
        for i in f.body.clone() {
            let Some(name) = toks[i].ident() else {
                continue;
            };
            let push = |out: &mut Vec<Finding>, what: &str| {
                let t = &toks[i];
                out.push(Finding {
                    rule: "alloc-in-hot",
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "{what} in `{}`, a non-constructor function of a hot-path \
                         file: measured hot paths are allocation-free in steady state \
                         (DESIGN.md \u{a7}10/\u{a7}11); hoist the allocation to setup, reuse a \
                         buffer, or give the line a receipt",
                        f.name
                    ),
                });
            };
            // `Path :: new (` constructors.
            if toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            {
                if let Some(m) = toks.get(i + 3).and_then(Token::ident) {
                    if toks.get(i + 4).is_some_and(|t| t.is_punct('('))
                        && ALLOC_PATHS.iter().any(|(p, c)| *p == name && *c == m)
                    {
                        push(out, &format!("`{name}::{m}` allocates"));
                    }
                }
                continue;
            }
            // `vec!` / `format!` macros.
            if (name == "vec" || name == "format")
                && toks.get(i + 1).is_some_and(|t| t.is_punct('!'))
            {
                push(out, &format!("`{name}!` allocates"));
                continue;
            }
            // `.to_string()` / `.to_owned()` / `.to_vec()`.
            if i > 0
                && toks[i - 1].is_punct('.')
                && toks.get(i + 1).is_some_and(|t| t.is_punct('('))
            {
                if ALLOC_METHODS.contains(&name) {
                    push(out, &format!("`.{name}()` allocates"));
                    continue;
                }
                // `.clone()` on a name declared with a heap type.
                if name == "clone" {
                    let recv = receiver_chain(toks, i - 1);
                    let last = recv.rsplit(['.']).next().unwrap_or("");
                    if let Some(ty) = idx.declared_type(last) {
                        if HEAP_TYPES.contains(&ty) {
                            push(
                                out,
                                &format!("`.clone()` of `{last}` (declared `{ty}`) allocates"),
                            );
                        }
                    }
                }
            }
        }
    }
}

/// Token index ranges covered by `#[cfg(test)]` items.
fn test_regions(toks: &[Token]) -> Vec<Range<usize>> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
            && toks.get(i + 4).is_some_and(|t| t.is_ident("test"))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(')'))
            && toks.get(i + 6).is_some_and(|t| t.is_punct(']'))
        {
            // The guarded item runs to the matching `}` of its first
            // brace, or to the first `;` for brace-less items.
            let mut j = i + 7;
            let mut depth = 0usize;
            let start = i;
            let mut end = None;
            while j < toks.len() {
                match toks[j].kind {
                    TokenKind::Punct('{') => depth += 1,
                    TokenKind::Punct('}') => {
                        depth -= 1;
                        if depth == 0 {
                            end = Some(j + 1);
                            break;
                        }
                    }
                    TokenKind::Punct(';') if depth == 0 => {
                        end = Some(j + 1);
                        break;
                    }
                    _ => {}
                }
                j += 1;
            }
            let end = end.unwrap_or(toks.len());
            regions.push(start..end);
            i = end;
        } else {
            i += 1;
        }
    }
    regions
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    fn rules_fired(src: &str) -> Vec<&'static str> {
        let toks = tokenize(src);
        scan_hot(&toks).into_iter().map(|f| f.rule).collect()
    }

    #[test]
    fn hot_btree_lookup_flags_every_ordered_container_outside_tests() {
        let src = "use std::collections::BTreeMap;\nstruct S { t: BTreeSet<u32> }\n";
        assert_eq!(
            rules_fired(src),
            vec!["hot-btree-lookup", "hot-btree-lookup"]
        );
        // #[cfg(test)] regions stay exempt even in hot files.
        let test_src = "#[cfg(test)]\nmod tests {\n    use std::collections::BTreeMap;\n}\n";
        assert!(rules_fired(test_src).is_empty());
    }

    #[test]
    fn cfg_test_regions_are_exempt() {
        let src = "\
struct S;\n\
#[cfg(test)]\n\
mod tests {\n\
    fn f() -> Vec<u8> { let v = Vec::new(); format!(\"{}\", 1); v }\n\
}\n";
        assert!(rules_fired(src).is_empty());
    }

    #[test]
    fn mentions_in_comments_and_strings_do_not_fire() {
        let src = "\
// BTreeMap is discussed here, format! too\n\
fn f() -> &'static str { \"BTreeMap Vec::new() format!\" }\n";
        assert!(rules_fired(src).is_empty());
    }
}
