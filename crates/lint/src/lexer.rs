//! A small hand-rolled Rust lexer — just enough token structure for the
//! seal-lint rules. It is deliberately not a full Rust grammar: rules
//! operate on identifier/punctuation/string-literal streams with line
//! numbers, which is sufficient to recognise every invariant in the
//! catalogue without external parser crates (the workspace builds
//! offline).
//!
//! The lexer understands the parts of the language that would otherwise
//! produce false positives in a plain text scan: line and (nested) block
//! comments, doc comments, string literals (including raw strings with
//! arbitrary `#` fences), char literals vs lifetimes, and numeric
//! literals.

/// Kind of a lexed token.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum TokenKind {
    /// Identifier or keyword.
    Ident,
    /// String literal (`"..."`, `r"..."`, `r#"..."#`, byte strings).
    Str,
    /// Character literal (`'a'`, `'\n'`, `b'x'`).
    Char,
    /// Lifetime (`'a`) — distinguished from char literals.
    Lifetime,
    /// Numeric literal.
    Number,
    /// Single punctuation character (`(`, `)`, `{`, `:`, `#`, ...).
    Punct,
    /// Outer or inner doc comment (`///`, `//!`, `/** */`, `/*! */`).
    DocComment,
    /// Ordinary comment (`//`, `/* */`) — kept so suppression markers
    /// can be read back out of the stream.
    Comment,
}

/// One lexed token with its 1-based source line.
#[derive(Clone, Debug)]
pub(crate) struct Token {
    /// What was lexed.
    pub(crate) kind: TokenKind,
    /// The token text. For string literals this is the *unquoted* raw
    /// source contents; for comments it includes the comment markers.
    pub(crate) text: String,
    /// 1-based line on which the token starts.
    pub(crate) line: u32,
}

impl Token {
    /// True if this token is the identifier `s`.
    pub(crate) fn is_ident(&self, s: &str) -> bool {
        self.kind == TokenKind::Ident && self.text == s
    }

    /// True if this token is the punctuation character `c`.
    pub(crate) fn is_punct(&self, c: char) -> bool {
        self.kind == TokenKind::Punct && self.text.len() == 1 && self.text.starts_with(c)
    }
}

/// Lexes `src` into a token stream. Unknown bytes are skipped (the tool
/// lints its own workspace, so input is always valid Rust; resilience
/// here just keeps a stray byte from aborting a whole-file scan).
pub(crate) fn lex(src: &str) -> Vec<Token> {
    Lexer {
        chars: src.chars().collect(),
        pos: 0,
        line: 1,
        out: Vec::new(),
    }
    .run()
}

struct Lexer {
    chars: Vec<char>,
    pos: usize,
    line: u32,
    out: Vec<Token>,
}

impl Lexer {
    fn run(mut self) -> Vec<Token> {
        while self.pos < self.chars.len() {
            let c = self.chars[self.pos];
            match c {
                '\n' => {
                    self.line += 1;
                    self.pos += 1;
                }
                c if c.is_whitespace() => self.pos += 1,
                '/' if self.peek(1) == Some('/') => self.line_comment(),
                '/' if self.peek(1) == Some('*') => self.block_comment(),
                '"' => self.string(),
                'r' | 'b' if self.raw_or_byte_string() => {}
                '\'' => self.char_or_lifetime(),
                c if c.is_ascii_digit() => self.number(),
                c if c == '_' || c.is_alphanumeric() => self.ident(),
                _ => {
                    self.push(TokenKind::Punct, c.to_string(), self.line);
                    self.pos += 1;
                }
            }
        }
        self.out
    }

    fn peek(&self, ahead: usize) -> Option<char> {
        self.chars.get(self.pos + ahead).copied()
    }

    fn push(&mut self, kind: TokenKind, text: String, line: u32) {
        self.out.push(Token { kind, text, line });
    }

    fn line_comment(&mut self) {
        let start_line = self.line;
        let doc = matches!(self.peek(2), Some('/') | Some('!'))
            // `////...` is an ordinary comment, not a doc comment.
            && !(self.peek(2) == Some('/') && self.peek(3) == Some('/'));
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\n' {
                break;
            }
            text.push(c);
            self.pos += 1;
        }
        let kind = if doc {
            TokenKind::DocComment
        } else {
            TokenKind::Comment
        };
        self.push(kind, text, start_line);
    }

    fn block_comment(&mut self) {
        let start_line = self.line;
        let doc = matches!(self.peek(2), Some('*') | Some('!')) && self.peek(3) != Some('/');
        let mut text = String::new();
        let mut depth = 0usize;
        while let Some(c) = self.peek(0) {
            if c == '/' && self.peek(1) == Some('*') {
                depth += 1;
                text.push_str("/*");
                self.pos += 2;
            } else if c == '*' && self.peek(1) == Some('/') {
                depth -= 1;
                text.push_str("*/");
                self.pos += 2;
                if depth == 0 {
                    break;
                }
            } else {
                if c == '\n' {
                    self.line += 1;
                }
                text.push(c);
                self.pos += 1;
            }
        }
        let kind = if doc {
            TokenKind::DocComment
        } else {
            TokenKind::Comment
        };
        self.push(kind, text, start_line);
    }

    fn string(&mut self) {
        let start_line = self.line;
        self.pos += 1; // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            match c {
                '\\' => {
                    text.push(c);
                    if let Some(next) = self.peek(1) {
                        text.push(next);
                        if next == '\n' {
                            self.line += 1;
                        }
                    }
                    self.pos += 2;
                }
                '"' => {
                    self.pos += 1;
                    break;
                }
                _ => {
                    if c == '\n' {
                        self.line += 1;
                    }
                    text.push(c);
                    self.pos += 1;
                }
            }
        }
        self.push(TokenKind::Str, text, start_line);
    }

    /// Handles `r"..."`, `r#"..."#`, `b"..."`, `br#"..."#`. Returns false
    /// when the `r`/`b` starts a plain identifier instead.
    fn raw_or_byte_string(&mut self) -> bool {
        let mut look = self.pos;
        // Skip the r/b/rb/br prefix letters.
        while matches!(self.chars.get(look), Some('r') | Some('b')) && look < self.pos + 2 {
            look += 1;
        }
        let mut fences = 0usize;
        while self.chars.get(look) == Some(&'#') {
            fences += 1;
            look += 1;
        }
        if self.chars.get(look) != Some(&'"') {
            return false;
        }
        let raw = self.chars[self.pos..look].contains(&'r');
        let start_line = self.line;
        self.pos = look + 1; // past the opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if !raw && c == '\\' {
                text.push(c);
                if let Some(next) = self.peek(1) {
                    text.push(next);
                    if next == '\n' {
                        self.line += 1;
                    }
                }
                self.pos += 2;
                continue;
            }
            if c == '"' {
                // A raw string ends only at `"` followed by the right
                // number of `#` fences.
                let mut ok = true;
                for i in 0..fences {
                    if self.peek(1 + i) != Some('#') {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    self.pos += 1 + fences;
                    break;
                }
            }
            if c == '\n' {
                self.line += 1;
            }
            text.push(c);
            self.pos += 1;
        }
        self.push(TokenKind::Str, text, start_line);
        true
    }

    fn char_or_lifetime(&mut self) {
        let start_line = self.line;
        // `'a` with no closing quote within two characters is a lifetime;
        // `'a'`, `'\n'` are char literals.
        let one = self.peek(1);
        let two = self.peek(2);
        let is_char = matches!((one, two), (Some('\\'), _) | (Some(_), Some('\'')));
        if !is_char {
            // Lifetime: consume `'` + identifier.
            self.pos += 1;
            let mut text = String::new();
            while let Some(c) = self.peek(0) {
                if c == '_' || c.is_alphanumeric() {
                    text.push(c);
                    self.pos += 1;
                } else {
                    break;
                }
            }
            self.push(TokenKind::Lifetime, text, start_line);
            return;
        }
        self.pos += 1; // opening quote
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '\\' {
                text.push(c);
                if let Some(next) = self.peek(1) {
                    text.push(next);
                }
                self.pos += 2;
                continue;
            }
            if c == '\'' {
                self.pos += 1;
                break;
            }
            text.push(c);
            self.pos += 1;
        }
        self.push(TokenKind::Char, text, start_line);
    }

    fn number(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            // Accept digits, radix prefixes, underscores, type suffixes
            // and float forms; precision is unnecessary — rules only need
            // numbers to not be mistaken for identifiers.
            if c.is_ascii_alphanumeric() || c == '_' || c == '.' {
                // A `..` range after an integer is punctuation.
                if c == '.' && self.peek(1) == Some('.') {
                    break;
                }
                // `1.method()` — treat the dot as punctuation.
                if c == '.' && self.peek(1).is_some_and(|n| n.is_alphabetic() || n == '_') {
                    break;
                }
                text.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push(TokenKind::Number, text, start_line);
    }

    fn ident(&mut self) {
        let start_line = self.line;
        let mut text = String::new();
        while let Some(c) = self.peek(0) {
            if c == '_' || c.is_alphanumeric() {
                text.push(c);
                self.pos += 1;
            } else {
                break;
            }
        }
        self.push(TokenKind::Ident, text, start_line);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kinds(src: &str) -> Vec<(TokenKind, String)> {
        lex(src).into_iter().map(|t| (t.kind, t.text)).collect()
    }

    #[test]
    fn idents_and_puncts() {
        let t = kinds("let x = foo(y);");
        assert_eq!(t[0], (TokenKind::Ident, "let".into()));
        assert_eq!(t[1], (TokenKind::Ident, "x".into()));
        assert_eq!(t[2], (TokenKind::Punct, "=".into()));
        assert_eq!(t[3], (TokenKind::Ident, "foo".into()));
        assert_eq!(t[4], (TokenKind::Punct, "(".into()));
    }

    #[test]
    fn strings_do_not_leak_idents() {
        // "HashMap" inside a string literal must not lex as an identifier.
        let t = kinds(r#"let s = "HashMap iteration";"#);
        assert!(t
            .iter()
            .all(|(k, text)| *k != TokenKind::Ident || text != "HashMap"));
        assert!(t
            .iter()
            .any(|(k, text)| *k == TokenKind::Str && text.contains("HashMap")));
    }

    #[test]
    fn raw_strings_with_fences() {
        let t = kinds(r##"let s = r#"a "quoted" thing"#; let y = 1;"##);
        assert!(t
            .iter()
            .any(|(k, text)| *k == TokenKind::Str && text.contains("quoted")));
        assert!(t
            .iter()
            .any(|(k, text)| *k == TokenKind::Ident && text == "y"));
    }

    #[test]
    fn lifetimes_vs_chars() {
        let t = kinds("fn f<'a>(x: &'a str) { let c = 'x'; let n = '\\n'; }");
        assert_eq!(
            t.iter().filter(|(k, _)| *k == TokenKind::Lifetime).count(),
            2
        );
        assert_eq!(t.iter().filter(|(k, _)| *k == TokenKind::Char).count(), 2);
    }

    #[test]
    fn comments_and_doc_comments() {
        let src = "/// doc\n// seal-lint: allow(x)\nfn f() {}\n/* block */ /** docblock */";
        let t = kinds(src);
        assert_eq!(
            t.iter()
                .filter(|(k, _)| *k == TokenKind::DocComment)
                .count(),
            2
        );
        assert_eq!(
            t.iter().filter(|(k, _)| *k == TokenKind::Comment).count(),
            2
        );
        assert!(t
            .iter()
            .any(|(k, text)| *k == TokenKind::Comment && text.contains("seal-lint")));
    }

    #[test]
    fn line_numbers_track_newlines_everywhere() {
        let src = "a\n\"multi\nline\"\nb\n/* c1\nc2 */\nc";
        let toks = lex(src);
        let find = |name: &str| toks.iter().find(|t| t.is_ident(name)).unwrap().line;
        assert_eq!(find("a"), 1);
        assert_eq!(find("b"), 4);
        assert_eq!(find("c"), 7);
    }

    #[test]
    fn unwrap_after_number_is_ident() {
        let t = kinds("x.1.unwrap()");
        assert!(t
            .iter()
            .any(|(k, s)| *k == TokenKind::Ident && s == "unwrap"));
    }
}
