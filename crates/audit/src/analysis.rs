//! The item index under `alloc-in-hot`: which function each token
//! sits in, and what type each struct field or annotated binding was
//! declared with.
//!
//! Everything here is built from the [`crate::lexer`] token stream —
//! no parser dependency, no type inference. The index is deliberately
//! approximate in the same spirit as the token rules: it only needs to
//! answer the questions `alloc-in-hot` asks (is this a constructor or
//! steady-state code, is this receiver declared with a heap type), and
//! to answer them deterministically with exact source positions.

use std::collections::BTreeMap;
use std::ops::Range;

use crate::lexer::{Token, TokenKind};

/// One indexed function: its name, parameter-list and body token
/// ranges (both inclusive of their delimiters).
#[derive(Clone, Debug)]
pub struct FnItem {
    /// Function name.
    pub name: String,
    /// Token range of the parenthesized parameter list.
    pub params: Range<usize>,
    /// Token range of the braced body (empty for bodiless trait fns).
    pub body: Range<usize>,
}

/// The per-file item index.
#[derive(Clone, Debug, Default)]
pub struct FileIndex {
    /// Every function with a body, in source order (methods included).
    pub fns: Vec<FnItem>,
    /// Declared type (last path segment) by field/binding name, from
    /// struct fields and type-annotated `let`s. Later declarations
    /// win; the rules only use this for coarse is-it-a-heap-type
    /// queries where collisions are harmless.
    pub type_of: BTreeMap<String, String>,
}

impl FileIndex {
    /// Builds the index from a token stream.
    pub fn build(toks: &[Token]) -> Self {
        let mut idx = FileIndex::default();
        let mut i = 0;
        while i < toks.len() {
            match toks[i].ident() {
                Some("fn") => {
                    if let Some(f) = parse_fn(toks, i) {
                        // Resume after the parameter list, not the
                        // body: nested fns must still be indexed.
                        let next = f.params.end.max(i + 1);
                        idx.fns.push(f);
                        i = next;
                        continue;
                    }
                }
                Some("struct") => {
                    if let Some(next) = parse_struct(toks, i, &mut idx.type_of) {
                        i = next;
                        continue;
                    }
                }
                _ => {}
            }
            // Type-annotated lets feed the name→type table.
            if toks[i].is_ident("let") {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_ident("mut")) {
                    j += 1;
                }
                if let Some(name) = toks.get(j).and_then(Token::ident) {
                    if toks.get(j + 1).is_some_and(|t| t.is_punct(':')) {
                        if let Some(ty) = type_name(toks, j + 2) {
                            idx.type_of.insert(name.to_owned(), ty);
                        }
                    }
                }
            }
            i += 1;
        }
        idx
    }

    /// The declared type (last path segment) of `name`, if a struct
    /// field or annotated binding declared it.
    pub fn declared_type(&self, name: &str) -> Option<&str> {
        self.type_of.get(name).map(String::as_str)
    }
}

/// Parses a `fn` starting at `toks[at]` (`at` is the `fn` keyword).
fn parse_fn(toks: &[Token], at: usize) -> Option<FnItem> {
    let name = toks.get(at + 1)?.ident()?.to_owned();
    // Skip generics between the name and the parameter list.
    let mut j = at + 2;
    if toks.get(j).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0i32;
        while j < toks.len() {
            match toks[j].kind {
                TokenKind::Punct('<') => depth += 1,
                TokenKind::Punct('>') => {
                    depth -= 1;
                    if depth == 0 {
                        j += 1;
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
    }
    if !toks.get(j).is_some_and(|t| t.is_punct('(')) {
        return None;
    }
    let params = balanced(toks, j, '(', ')')?;
    // The body is the first brace block before a terminating `;`
    // (where-clauses cannot contain braces outside the body).
    let mut k = params.end;
    while k < toks.len() {
        match toks[k].kind {
            TokenKind::Punct('{') => {
                let body = balanced(toks, k, '{', '}')?;
                return Some(FnItem { name, params, body });
            }
            TokenKind::Punct(';') => break,
            _ => {}
        }
        k += 1;
    }
    Some(FnItem {
        name,
        params,
        body: 0..0,
    })
}

/// Records the named fields of a `struct` starting at the keyword in
/// `type_of`; returns the token index to resume scanning at.
fn parse_struct(
    toks: &[Token],
    at: usize,
    type_of: &mut BTreeMap<String, String>,
) -> Option<usize> {
    toks.get(at + 1)?.ident()?;
    // Find the `{`, `(` or `;` that decides the struct's shape,
    // skipping generics.
    let mut j = at + 2;
    let mut angle = 0i32;
    while j < toks.len() {
        match toks[j].kind {
            TokenKind::Punct('<') => angle += 1,
            TokenKind::Punct('>') => angle -= 1,
            TokenKind::Punct('{') if angle == 0 => break,
            // Tuple or unit struct: no named fields to index.
            TokenKind::Punct('(') | TokenKind::Punct(';') if angle == 0 => return Some(j + 1),
            _ => {}
        }
        j += 1;
    }
    let body = balanced(toks, j, '{', '}')?;
    let mut k = body.start + 1;
    while k + 1 < body.end {
        // At field position: `[pub [(..)]] name : Type , ...`
        if let Some(fname) = toks[k].ident() {
            if fname != "pub" && toks.get(k + 1).is_some_and(|t| t.is_punct(':')) {
                if let Some(ty) = type_name(toks, k + 2) {
                    type_of.insert(fname.to_owned(), ty);
                }
                // Skip to the comma separating fields (balance
                // everything nested inside the type).
                let mut depth = 0i32;
                while k < body.end - 1 {
                    match toks[k].kind {
                        TokenKind::Punct('<') | TokenKind::Punct('(') | TokenKind::Punct('[') => {
                            depth += 1;
                        }
                        TokenKind::Punct('>') | TokenKind::Punct(')') | TokenKind::Punct(']') => {
                            depth -= 1;
                        }
                        TokenKind::Punct(',') if depth <= 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
            }
        }
        k += 1;
    }
    Some(body.end)
}

/// The last path-segment identifier of the type starting at
/// `toks[at]`, before any generic arguments: `Vec` for
/// `std::vec::Vec<u8>`, `Mutex` for `&'a mut sync::Mutex<T>`.
fn type_name(toks: &[Token], at: usize) -> Option<String> {
    let mut last: Option<String> = None;
    let mut j = at;
    while j < toks.len() {
        match &toks[j].kind {
            TokenKind::Ident(s) => {
                if s != "mut" && s != "dyn" && s != "impl" && s != "const" {
                    last = Some(s.clone());
                }
            }
            TokenKind::Punct('&') | TokenKind::Punct('*') | TokenKind::Punct(':') => {}
            TokenKind::Lifetime => {}
            _ => break,
        }
        j += 1;
    }
    last
}

/// The token range of a balanced delimiter pair opening at
/// `toks[open]`, inclusive of both delimiters.
fn balanced(toks: &[Token], open: usize, l: char, r: char) -> Option<Range<usize>> {
    if !toks.get(open).is_some_and(|t| t.is_punct(l)) {
        return None;
    }
    let mut depth = 0usize;
    let mut j = open;
    while j < toks.len() {
        if toks[j].is_punct(l) {
            depth += 1;
        } else if toks[j].is_punct(r) {
            depth -= 1;
            if depth == 0 {
                return Some(open..j + 1);
            }
        }
        j += 1;
    }
    None
}

/// Canonical receiver of a method call: the identifier/field chain
/// feeding `.method(` at token `dot`, walking backwards with index
/// expressions collapsed to `[_]`. `sites[dst.index()].clone()` →
/// `sites[_]`; `self.inner.clone()` → `self.inner`.
pub fn receiver_chain(toks: &[Token], dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot; // toks[dot] is the `.`
    loop {
        if j == 0 {
            break;
        }
        let prev = j - 1;
        match &toks[prev].kind {
            TokenKind::Punct(']') => {
                // Balance back to the opening `[`.
                let mut depth = 0usize;
                let mut k = prev;
                loop {
                    match toks[k].kind {
                        TokenKind::Punct(']') => depth += 1,
                        TokenKind::Punct('[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if k == 0 {
                        break;
                    }
                    k -= 1;
                }
                parts.push("[_]".to_owned());
                j = k;
            }
            TokenKind::Punct(')') => {
                // A call result: stop — the receiver is a temporary.
                break;
            }
            TokenKind::Ident(s) => {
                parts.push(s.clone());
                j = prev;
                // Continue through `.` or `::` chains.
                if j >= 1 && toks[j - 1].is_punct('.') {
                    j -= 1;
                    continue;
                }
                if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                    parts.push("::".to_owned());
                    j -= 2;
                    continue;
                }
                break;
            }
            _ => break,
        }
    }
    parts.reverse();
    let mut out = String::new();
    for (i, p) in parts.iter().enumerate() {
        if p == "[_]" || p == "::" {
            out.push_str(if p == "::" { "" } else { "[_]" });
        } else {
            if i > 0 && parts[i - 1] != "::" && !out.is_empty() && !out.ends_with("[_]") {
                out.push('.');
            }
            if i > 0 && parts[i - 1] == "::" {
                out.push_str("::");
            }
            out.push_str(p);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::tokenize;

    #[test]
    fn indexes_fns_structs_and_fields() {
        let src = "\
pub struct Cache {
    pub map: BTreeMap<u64, Vec<u8>>,
    name: String,
}
impl Cache {
    pub fn get(&mut self, k: u64) -> Option<&[u8]> {
        self.map.get(&k).map(Vec::as_slice)
    }
}
fn helper<T: Clone>(x: T) -> T { x.clone() }
";
        let toks = tokenize(src);
        let idx = FileIndex::build(&toks);
        let names: Vec<_> = idx.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["get", "helper"]);
        assert_eq!(idx.declared_type("map"), Some("BTreeMap"));
        assert_eq!(idx.declared_type("name"), Some("String"));
    }

    #[test]
    fn receiver_chains_canonicalize_indexing() {
        let src = "fn f() { sites[dst.index()].lock(); self.inner.lock(); free(); }";
        let toks = tokenize(src);
        let lock_dots: Vec<usize> = (0..toks.len())
            .filter(|&i| {
                toks[i].is_punct('.') && toks.get(i + 1).is_some_and(|t| t.is_ident("lock"))
            })
            .collect();
        assert_eq!(receiver_chain(&toks, lock_dots[0]), "sites[_]");
        assert_eq!(receiver_chain(&toks, lock_dots[1]), "self.inner");
    }
}
