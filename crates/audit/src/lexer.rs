//! A lightweight, comment- and string-aware Rust tokenizer.
//!
//! The rules in [`crate::rules`] only need to see *code*: a `BTreeMap`
//! mentioned in a doc comment or a format string is not state. This
//! scanner therefore discards comments (line, nested block) and the
//! contents of every string/char/byte literal (plain, raw with any
//! number of `#`s, byte, raw-byte) while preserving the line and
//! column of every surviving token — exactly the information a
//! diagnostic needs. It also reports the plain `//` line comments
//! (not `///` or `//!` doc comments, and never text inside a literal),
//! which is where hot-path markers and receipts live.
//!
//! It is deliberately not a full Rust lexer: numeric literals are
//! folded into a single token kind, punctuation is emitted one
//! character at a time (`::` is two `:` tokens) and no keyword table
//! exists. Rules match short token sequences, for which this is both
//! sufficient and easy to reason about.

/// What a token is, with enough payload for rule matching.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TokenKind {
    /// An identifier or keyword (`HashMap`, `for`, `unwrap`, ...).
    Ident(String),
    /// One punctuation character (`.`, `:`, `{`, `+`, ...).
    Punct(char),
    /// A string, raw-string, byte-string, or char literal (contents
    /// discarded).
    Literal,
    /// A numeric literal (digits folded, value discarded).
    Number,
    /// A lifetime such as `'a` or `'static`.
    Lifetime,
}

/// One token with its source position (1-based line and column).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Token {
    /// The token's kind and payload.
    pub kind: TokenKind,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column of the token's first character.
    pub col: u32,
}

impl Token {
    /// The identifier text, if this token is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokenKind::Ident(s) => Some(s.as_str()),
            _ => None,
        }
    }

    /// True when this token is the identifier `name`.
    pub fn is_ident(&self, name: &str) -> bool {
        self.ident() == Some(name)
    }

    /// True when this token is the punctuation character `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct(c)
    }
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn new(src: &'a str) -> Self {
        Cursor {
            src: src.as_bytes(),
            pos: 0,
            line: 1,
            col: 1,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_continue(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// A plain `//` line comment: not a `///` or `//!` doc comment, and
/// not text inside a literal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LineComment {
    /// The text after the `//`.
    pub text: String,
    /// 1-based source line.
    pub line: u32,
    /// 1-based source column of the first `/`.
    pub col: u32,
    /// True when code precedes the comment on its line.
    pub trailing: bool,
}

/// One source file, lexed: its code tokens and its plain line
/// comments, both in source order.
#[derive(Clone, Debug)]
pub struct Lexed {
    /// The code tokens.
    pub tokens: Vec<Token>,
    /// The plain `//` comments.
    pub comments: Vec<LineComment>,
}

/// Tokenizes `src`, discarding comments and literal contents.
pub fn tokenize(src: &str) -> Vec<Token> {
    lex(src).tokens
}

/// Lexes `src` into code tokens and plain line comments.
pub fn lex(src: &str) -> Lexed {
    let mut cur = Cursor::new(src);
    let mut out = Vec::new();
    let mut comments = Vec::new();
    // The line the last token ended on: a comment there trails code.
    let mut code_line = 0;
    while let Some(b) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        let emitted = out.len();
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                // `///` (but not `////`) and `//!` are doc comments.
                let doc = cur.peek_at(2) == Some(b'!')
                    || (cur.peek_at(2) == Some(b'/') && cur.peek_at(3) != Some(b'/'));
                let start = cur.pos;
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                if !doc {
                    comments.push(LineComment {
                        text: String::from_utf8_lossy(&cur.src[start + 2..cur.pos]).into_owned(),
                        line,
                        col,
                        trailing: code_line == line,
                    });
                }
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1u32;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
            }
            b'"' => {
                eat_string(&mut cur);
                out.push(Token {
                    kind: TokenKind::Literal,
                    line,
                    col,
                });
            }
            b'r' | b'b' if starts_prefixed_literal(&cur) => {
                eat_prefixed_literal(&mut cur);
                out.push(Token {
                    kind: TokenKind::Literal,
                    line,
                    col,
                });
            }
            b'\'' => {
                if is_lifetime(&cur) {
                    cur.bump(); // the quote
                    while cur.peek().is_some_and(is_ident_continue) {
                        cur.bump();
                    }
                    out.push(Token {
                        kind: TokenKind::Lifetime,
                        line,
                        col,
                    });
                } else {
                    eat_char_literal(&mut cur);
                    out.push(Token {
                        kind: TokenKind::Literal,
                        line,
                        col,
                    });
                }
            }
            _ if is_ident_start(b) => {
                let mut text = String::new();
                while let Some(c) = cur.peek() {
                    if is_ident_continue(c) {
                        text.push(c as char);
                        cur.bump();
                    } else {
                        break;
                    }
                }
                out.push(Token {
                    kind: TokenKind::Ident(text),
                    line,
                    col,
                });
            }
            _ if b.is_ascii_digit() => {
                eat_number(&mut cur);
                out.push(Token {
                    kind: TokenKind::Number,
                    line,
                    col,
                });
            }
            _ => {
                cur.bump();
                out.push(Token {
                    kind: TokenKind::Punct(b as char),
                    line,
                    col,
                });
            }
        }
        if out.len() > emitted {
            code_line = cur.line;
        }
    }
    Lexed {
        tokens: out,
        comments,
    }
}

/// True when the cursor sits on `r"`, `r#`, `b"`, `b'`, `br"`, `br#`.
fn starts_prefixed_literal(cur: &Cursor<'_>) -> bool {
    matches!(
        (cur.peek(), cur.peek_at(1), cur.peek_at(2)),
        (Some(b'r'), Some(b'"' | b'#'), _)
            | (Some(b'b'), Some(b'"' | b'\''), _)
            | (Some(b'b'), Some(b'r'), Some(b'"' | b'#'))
    )
}

/// True when a `'` begins a lifetime rather than a char literal: the
/// next character starts an identifier and the character after that
/// identifier-ish char is not a closing `'` (so `'a'` is a char but
/// `'a,` is a lifetime).
fn is_lifetime(cur: &Cursor<'_>) -> bool {
    match cur.peek_at(1) {
        Some(c) if is_ident_start(c) => cur.peek_at(2) != Some(b'\''),
        _ => false,
    }
}

fn eat_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            b'\\' => {
                cur.bump();
            }
            b'"' => break,
            _ => {}
        }
    }
}

fn eat_char_literal(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(c) = cur.bump() {
        match c {
            b'\\' => {
                cur.bump();
            }
            b'\'' => break,
            _ => {}
        }
    }
}

fn eat_prefixed_literal(cur: &mut Cursor<'_>) {
    // Consume the `r` / `b` / `br` prefix.
    if cur.peek() == Some(b'b') {
        cur.bump();
    }
    if cur.peek() == Some(b'r') {
        cur.bump();
        // Raw string: count the `#`s, then scan for `"` followed by
        // that many `#`s. Escapes are inert inside raw strings.
        let mut hashes = 0usize;
        while cur.peek() == Some(b'#') {
            hashes += 1;
            cur.bump();
        }
        cur.bump(); // opening quote
        'scan: while let Some(c) = cur.bump() {
            if c == b'"' {
                for i in 0..hashes {
                    if cur.peek_at(i) != Some(b'#') {
                        continue 'scan;
                    }
                }
                for _ in 0..hashes {
                    cur.bump();
                }
                break;
            }
        }
    } else if cur.peek() == Some(b'\'') {
        eat_char_literal(cur);
    } else {
        eat_string(cur);
    }
}

fn eat_number(cur: &mut Cursor<'_>) {
    while let Some(c) = cur.peek() {
        if c.is_ascii_alphanumeric() || c == b'_' {
            cur.bump();
        } else if c == b'.' && cur.peek_at(1).is_some_and(|d| d.is_ascii_digit()) {
            // `1.5` continues the number; `1..5` does not.
            cur.bump();
        } else {
            break;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idents(src: &str) -> Vec<String> {
        tokenize(src)
            .into_iter()
            .filter_map(|t| t.ident().map(str::to_owned))
            .collect()
    }

    #[test]
    fn comments_and_strings_are_invisible() {
        let src = r##"
            // HashMap in a line comment
            /* HashMap in /* a nested */ block */
            let s = "HashMap in a string";
            let r = r#"HashMap in a raw "quoted" string"#;
            let b = b"HashMap bytes";
            let real = HashMap::new();
        "##;
        let ids = idents(src);
        assert_eq!(
            ids.iter().filter(|i| *i == "HashMap").count(),
            1,
            "only the code mention survives: {ids:?}"
        );
    }

    #[test]
    fn only_plain_line_comments_are_reported() {
        let src = "\
//! inner doc
/// outer doc
//// four slashes: a plain comment
let s = \"// inside a string\"; // trailing
/* // inside a block comment */
    // standalone
";
        let got: Vec<_> = lex(src)
            .comments
            .into_iter()
            .map(|c| (c.text, c.line, c.col, c.trailing))
            .collect();
        assert_eq!(
            got,
            vec![
                ("// four slashes: a plain comment".to_owned(), 3, 1, false),
                (" trailing".to_owned(), 4, 31, true),
                (" standalone".to_owned(), 6, 5, false),
            ]
        );
    }

    #[test]
    fn positions_are_one_based_lines_and_columns() {
        let toks = tokenize("ab\n  cd");
        assert_eq!(toks[0].ident(), Some("ab"));
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!(toks[1].ident(), Some("cd"));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let c = 'x'; }");
        let lifetimes = toks
            .iter()
            .filter(|t| t.kind == TokenKind::Lifetime)
            .count();
        let literals = toks.iter().filter(|t| t.kind == TokenKind::Literal).count();
        assert_eq!(lifetimes, 2);
        assert_eq!(literals, 1);
    }

    #[test]
    fn escaped_quotes_do_not_end_literals() {
        let toks = tokenize(r#"let a = "x\"y"; let c = '\''; after"#);
        assert!(toks.iter().any(|t| t.is_ident("after")));
        assert_eq!(
            toks.iter().filter(|t| t.kind == TokenKind::Literal).count(),
            2
        );
    }

    #[test]
    fn numbers_fold_and_ranges_survive() {
        let toks = tokenize("for i in 0..10_000 {}");
        let nums = toks.iter().filter(|t| t.kind == TokenKind::Number).count();
        let dots = toks.iter().filter(|t| t.is_punct('.')).count();
        assert_eq!(nums, 2);
        assert_eq!(dots, 2, "the `..` survives as two dots");
    }
}
