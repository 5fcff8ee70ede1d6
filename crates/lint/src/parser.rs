//! A dependency-free recursive-descent parser over the lexer's token
//! stream, producing the lightweight item/statement AST the ordering
//! rules analyse.
//!
//! The parser is deliberately *approximate*: it recognises exactly the
//! structure the dataflow pass needs — function definitions (including
//! `impl Drop for` methods), call sites, branch alternatives (`if`/
//! `else` chains and `match` arms) and loop bodies — and degrades
//! gracefully on anything else by skipping tokens. It never panics on
//! malformed input; a misparse costs precision, not correctness of the
//! surrounding build.
//!
//! Shapes the parser understands:
//! - `ident(...)`, `recv.ident(...)`, `path::ident(...)` and turbofish
//!   `ident::<T>(...)` are [`CallSite`](crate::parser::CallSite)s; `ident!(...)` is a macro, not
//!   a call (so `write!` never looks like a pointer write).
//! - `if`/`else if`/`else` chains and `match` arms become a
//!   [`Stmt::Branch`](crate::parser::Stmt::Branch) holding one block per alternative; an `if` with
//!   no `else` carries an implicit empty arm.
//! - `loop`/`while`/`for` bodies become [`Stmt::Loop`](crate::parser::Stmt::Loop).
//! - Bare nested blocks (`{ ... }`, including the diverging arm of
//!   `let`-`else`) are treated as a single-alternative branch so their
//!   effects never count as guaranteed.

use crate::lexer::{Token, TokenKind};

/// One function definition with its parsed body.
#[derive(Clone, Debug)]
pub(crate) struct FnDef {
    /// Bare function name (no path).
    pub(crate) name: String,
    /// Self type when defined inside an `impl` block.
    pub(crate) impl_ty: Option<String>,
    /// True when the enclosing impl is `impl Drop for ...`.
    pub(crate) is_drop: bool,
    /// The function body.
    pub(crate) body: Block,
}

/// A `{ ... }` region: an ordered statement list.
#[derive(Clone, Debug, Default)]
pub(crate) struct Block {
    /// Statements in source order.
    pub(crate) stmts: Vec<Stmt>,
}

/// The statement shapes the dataflow pass distinguishes.
#[derive(Clone, Debug)]
pub(crate) enum Stmt {
    /// A call site, in evaluation-order position.
    Call(CallSite),
    /// Mutually exclusive alternatives (if/else arms, match arms). An
    /// `if` without `else` carries an implicit empty arm.
    Branch(Vec<Block>),
    /// A loop body, which may execute zero or more times.
    Loop(Block),
}

/// One resolved call: `name(...)`, `recv.name(...)` or `path::name(...)`.
#[derive(Clone, Debug)]
pub(crate) struct CallSite {
    /// The called function or method name (last path segment).
    pub(crate) name: String,
    /// 1-based source line of the call.
    pub(crate) line: u32,
}

/// Keywords that can never be call names.
const KEYWORDS: [&str; 30] = [
    "if", "else", "match", "while", "for", "loop", "return", "let", "fn", "move", "unsafe", "as",
    "in", "ref", "mut", "pub", "use", "where", "impl", "dyn", "break", "continue", "await",
    "async", "struct", "enum", "trait", "type", "const", "static",
];

/// Parses the code view (`code` indexes into `tokens`, comments and
/// test-masked tokens already removed) into function definitions.
pub(crate) fn parse(tokens: &[Token], code: &[usize]) -> Vec<FnDef> {
    let view: Vec<&Token> = code.iter().map(|&i| &tokens[i]).collect();
    let mut p = Parser {
        t: view,
        pos: 0,
        fns: Vec::new(),
    };
    p.items(&None);
    p.fns
}

struct Parser<'a> {
    t: Vec<&'a Token>,
    pos: usize,
    fns: Vec<FnDef>,
}

impl<'a> Parser<'a> {
    fn tok(&self, at: usize) -> Option<&'a Token> {
        self.t.get(at).copied()
    }

    fn at_ident(&self, s: &str) -> bool {
        self.tok(self.pos).is_some_and(|t| t.is_ident(s))
    }

    fn at_punct(&self, c: char) -> bool {
        self.tok(self.pos).is_some_and(|t| t.is_punct(c))
    }

    /// Item loop: runs until end of stream or a closing `}` (left for
    /// the caller to consume).
    fn items(&mut self, impl_ctx: &Option<(Option<String>, bool)>) {
        while self.pos < self.t.len() {
            let start = self.pos;
            if self.at_punct('}') {
                return;
            }
            if self.at_punct('#') {
                self.skip_attr();
            } else if self.at_ident("fn") {
                self.function(impl_ctx);
            } else if self.at_ident("impl") {
                self.impl_block();
            } else if self.at_ident("mod") || self.at_ident("trait") {
                self.mod_or_trait();
            } else if self.at_punct('{') {
                // struct/enum/const bodies at item level: skip wholesale.
                self.skip_balanced('{', '}');
            } else {
                self.pos += 1;
            }
            if self.pos == start {
                self.pos += 1; // safety: always make progress
            }
        }
    }

    /// Skips `#[...]` / `#![...]` (pos at `#`).
    fn skip_attr(&mut self) {
        self.pos += 1; // '#'
        if self.at_punct('!') {
            self.pos += 1;
        }
        if self.at_punct('[') {
            self.skip_balanced('[', ']');
        }
    }

    /// Skips a balanced delimiter region (pos at the opener).
    fn skip_balanced(&mut self, open: char, close: char) {
        let mut depth = 0usize;
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct(open) {
                depth += 1;
            } else if t.is_punct(close) {
                depth = depth.saturating_sub(1);
                if depth == 0 {
                    self.pos += 1;
                    return;
                }
            }
            self.pos += 1;
        }
    }

    /// `impl [Trait for] Type { items }` — pos at `impl`.
    fn impl_block(&mut self) {
        self.pos += 1; // 'impl'
        let mut saw_for = false;
        let mut is_drop = false;
        let mut impl_ty: Option<String> = None;
        let mut depth = 0usize; // (), []
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 {
                if t.is_punct('{') {
                    break;
                }
                if t.is_punct(';') {
                    self.pos += 1;
                    return;
                }
                if t.is_ident("for") {
                    saw_for = true;
                    impl_ty = None;
                } else if t.kind == TokenKind::Ident {
                    if !saw_for && t.text == "Drop" {
                        is_drop = true;
                    }
                    let skip = matches!(t.text.as_str(), "crate" | "super" | "self" | "dyn");
                    if impl_ty.is_none() && !skip && !KEYWORDS.contains(&t.text.as_str()) {
                        impl_ty = Some(t.text.clone());
                    }
                }
            }
            self.pos += 1;
        }
        // `impl Drop for X`: only a trait impl of Drop counts.
        let is_drop = is_drop && saw_for;
        if self.at_punct('{') {
            self.pos += 1;
            self.items(&Some((impl_ty, is_drop)));
            if self.at_punct('}') {
                self.pos += 1;
            }
        }
    }

    /// `mod name { items }` / `trait Name { default methods }`.
    fn mod_or_trait(&mut self) {
        self.pos += 1; // keyword
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct('{') {
                self.pos += 1;
                self.items(&None);
                if self.at_punct('}') {
                    self.pos += 1;
                }
                return;
            }
            if t.is_punct(';') {
                self.pos += 1;
                return;
            }
            self.pos += 1;
        }
    }

    /// `fn name(sig) [-> T] { body }` — pos at `fn`.
    fn function(&mut self, impl_ctx: &Option<(Option<String>, bool)>) {
        self.pos += 1; // 'fn'
        let Some(name_tok) = self.tok(self.pos) else {
            return;
        };
        if name_tok.kind != TokenKind::Ident {
            return; // `fn(u8)` pointer type etc.
        }
        let name = name_tok.text.clone();
        self.pos += 1;
        // Signature: skip to the body `{` (or `;` for trait signatures)
        // at paren/bracket depth zero.
        let mut depth = 0usize;
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 {
                if t.is_punct('{') {
                    break;
                }
                if t.is_punct(';') {
                    self.pos += 1;
                    return; // bodyless trait signature
                }
            }
            self.pos += 1;
        }
        if !self.at_punct('{') {
            return;
        }
        let body = self.block();
        let (impl_ty, is_drop) = match impl_ctx {
            Some((ty, d)) => (ty.clone(), *d),
            None => (None, false),
        };
        self.fns.push(FnDef {
            name,
            impl_ty,
            is_drop,
            body,
        });
    }

    /// `{ stmts }` — pos at `{`; consumes the closing `}`.
    fn block(&mut self) -> Block {
        let mut blk = Block::default();
        if !self.at_punct('{') {
            return blk;
        }
        self.pos += 1;
        while self.pos < self.t.len() {
            let start = self.pos;
            if self.at_punct('}') {
                self.pos += 1;
                return blk;
            }
            if self.at_punct('#') {
                self.skip_attr();
            } else if self.at_ident("if") {
                let stmt = self.if_stmt(&mut blk.stmts);
                blk.stmts.push(stmt);
            } else if self.at_ident("match") {
                let stmt = self.match_stmt(&mut blk.stmts);
                blk.stmts.push(stmt);
            } else if self.at_ident("loop") {
                self.pos += 1;
                if self.at_punct('{') {
                    let body = self.block();
                    blk.stmts.push(Stmt::Loop(body));
                }
            } else if self.at_ident("while") || self.at_ident("for") {
                self.pos += 1;
                self.header_calls(&mut blk.stmts);
                if self.at_punct('{') {
                    let body = self.block();
                    blk.stmts.push(Stmt::Loop(body));
                }
            } else if self.at_punct('{') {
                // Bare nested block (incl. the diverging `let`-`else`
                // arm): effects may happen, but are never guaranteed.
                let inner = self.block();
                blk.stmts.push(Stmt::Branch(vec![inner, Block::default()]));
            } else if self.at_punct(';') {
                self.pos += 1;
            } else {
                self.simple_stmt(&mut blk.stmts);
            }
            if self.pos == start {
                self.pos += 1; // safety: always make progress
            }
        }
        blk
    }

    /// Scans a statement that is not itself a branch/loop, extracting
    /// call sites in evaluation order. Stops (without consuming) at a
    /// control keyword, `{` or `}` at depth zero; consumes a
    /// terminating `;`.
    fn simple_stmt(&mut self, out: &mut Vec<Stmt>) {
        let mut depth = 0usize; // (), []
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 {
                if t.is_punct(';') {
                    self.pos += 1;
                    return;
                }
                if t.is_punct('{') || t.is_punct('}') {
                    return;
                }
                if t.kind == TokenKind::Ident
                    && matches!(t.text.as_str(), "if" | "match" | "loop" | "while" | "for")
                {
                    return;
                }
            }
            if t.kind == TokenKind::Ident {
                self.maybe_call(out);
            }
            self.pos += 1;
        }
    }

    /// Extracts calls from an `if`/`while`/`for`/`match` header up to
    /// the body `{` at paren depth zero (not consumed).
    fn header_calls(&mut self, out: &mut Vec<Stmt>) {
        let mut depth = 0usize;
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct('(') || t.is_punct('[') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if depth == 0 && t.is_punct('{') {
                return;
            }
            if t.kind == TokenKind::Ident {
                self.maybe_call(out);
            }
            self.pos += 1;
        }
    }

    /// `if cond { .. } [else if .. | else { .. }]` — pos at `if`.
    /// Header calls are pushed to `pre` (they always execute).
    fn if_stmt(&mut self, pre: &mut Vec<Stmt>) -> Stmt {
        self.pos += 1; // 'if'
        self.header_calls(pre);
        let then_blk = self.block();
        let else_blk = if self.at_ident("else") {
            self.pos += 1;
            if self.at_ident("if") {
                let mut stmts = Vec::new();
                let nested = self.if_stmt(&mut stmts);
                stmts.push(nested);
                Block { stmts }
            } else {
                self.block()
            }
        } else {
            Block::default()
        };
        Stmt::Branch(vec![then_blk, else_blk])
    }

    /// `match scrutinee { arms }` — pos at `match`. Header calls go to
    /// `pre`; each arm becomes one branch alternative.
    fn match_stmt(&mut self, pre: &mut Vec<Stmt>) -> Stmt {
        self.pos += 1; // 'match'
        self.header_calls(pre);
        if !self.at_punct('{') {
            return Stmt::Branch(Vec::new());
        }
        self.pos += 1;
        let mut arms: Vec<Block> = Vec::new();
        while self.pos < self.t.len() {
            if self.at_punct('}') {
                self.pos += 1;
                break;
            }
            let mut arm = Block::default();
            if !self.match_arm_pattern(&mut arm.stmts) {
                break; // malformed: bail at the region end
            }
            self.match_arm_body(&mut arm);
            arms.push(arm);
        }
        Stmt::Branch(arms)
    }

    /// Scans a match arm's pattern (and guard) up to `=>`, collecting
    /// guard calls. Returns false if the arm region ended instead.
    fn match_arm_pattern(&mut self, out: &mut Vec<Stmt>) -> bool {
        let mut depth = 0usize; // (), [], {}
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct('}') {
                if depth == 0 {
                    return false; // end of the match region
                }
                depth -= 1;
            } else if depth == 0
                && t.is_punct('=')
                && self.tok(self.pos + 1).is_some_and(|n| n.is_punct('>'))
            {
                self.pos += 2; // '=>'
                return true;
            }
            if t.kind == TokenKind::Ident {
                self.maybe_call(out);
            }
            self.pos += 1;
        }
        false
    }

    /// Scans a match arm's body: a block, or an expression up to `,`
    /// or the closing `}` at depth zero.
    fn match_arm_body(&mut self, arm: &mut Block) {
        if self.at_punct('{') {
            let body = self.block();
            arm.stmts.extend(body.stmts);
            if self.at_punct(',') {
                self.pos += 1;
            }
            return;
        }
        let mut depth = 0usize; // (), [], {} — nested exprs scan linearly
        while let Some(t) = self.tok(self.pos) {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') {
                depth = depth.saturating_sub(1);
            } else if t.is_punct('}') {
                if depth == 0 {
                    return; // closing `}` of the match: leave it
                }
                depth -= 1;
            } else if depth == 0 && t.is_punct(',') {
                self.pos += 1;
                return;
            }
            if t.kind == TokenKind::Ident {
                self.maybe_call(&mut arm.stmts);
            }
            self.pos += 1;
        }
    }

    /// If the ident at `pos` heads a call (`name(`, `name::<T>(`), and
    /// is not a keyword or macro name (`name!`), records a [`CallSite`].
    /// Never advances `pos` past the ident — delimiters stay visible to
    /// the caller's depth tracking.
    fn maybe_call(&mut self, out: &mut Vec<Stmt>) {
        let Some(t) = self.tok(self.pos) else {
            return;
        };
        if KEYWORDS.contains(&t.text.as_str()) {
            return;
        }
        let mut j = self.pos + 1;
        // Turbofish: `name::<T...>(`.
        if self.tok(j).is_some_and(|a| a.is_punct(':'))
            && self.tok(j + 1).is_some_and(|a| a.is_punct(':'))
            && self.tok(j + 2).is_some_and(|a| a.is_punct('<'))
        {
            let mut angle = 0usize;
            let mut k = j + 2;
            while let Some(a) = self.tok(k) {
                if a.is_punct('<') {
                    angle += 1;
                } else if a.is_punct('>') {
                    angle = angle.saturating_sub(1);
                    if angle == 0 {
                        break;
                    }
                }
                k += 1;
            }
            j = k + 1;
        }
        if !self.tok(j).is_some_and(|a| a.is_punct('(')) {
            return;
        }
        if self.tok(self.pos + 1).is_some_and(|a| a.is_punct('!')) {
            return; // macro, not a call
        }
        out.push(Stmt::Call(CallSite {
            name: t.text.clone(),
            line: t.line,
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn parse_src(src: &str) -> Vec<FnDef> {
        let tokens = lex(src);
        let code: Vec<usize> = (0..tokens.len())
            .filter(|&i| !matches!(tokens[i].kind, TokenKind::Comment | TokenKind::DocComment))
            .collect();
        parse(&tokens, &code)
    }

    fn calls(block: &Block) -> Vec<String> {
        let mut out = Vec::new();
        collect_calls(block, &mut out);
        out
    }

    fn collect_calls(block: &Block, out: &mut Vec<String>) {
        for s in &block.stmts {
            match s {
                Stmt::Call(c) => out.push(c.name.clone()),
                Stmt::Branch(arms) => {
                    for a in arms {
                        collect_calls(a, out);
                    }
                }
                Stmt::Loop(b) => collect_calls(b, out),
            }
        }
    }

    #[test]
    fn plain_calls_in_order() {
        let fns = parse_src("fn f(x: &mut Db) { x.sync_wal(); ack(1); }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "f");
        assert_eq!(calls(&fns[0].body), ["sync_wal", "ack"]);
    }

    #[test]
    fn macros_are_not_calls() {
        let fns = parse_src("fn f() { write!(w, \"x\")?; println!(\"y\"); g(); }");
        assert_eq!(calls(&fns[0].body), ["g"]);
    }

    #[test]
    fn turbofish_and_paths() {
        let fns = parse_src("fn f() { Vec::<u8>::new(); it.collect::<Vec<_>>(); }");
        assert_eq!(calls(&fns[0].body), ["new", "collect"]);
    }

    #[test]
    fn if_else_becomes_branch() {
        let fns = parse_src("fn f(c: bool) { if c { a(); } else { b(); } d(); }");
        let body = &fns[0].body;
        assert_eq!(body.stmts.len(), 2);
        match &body.stmts[0] {
            Stmt::Branch(arms) => {
                assert_eq!(arms.len(), 2);
                assert_eq!(calls(&arms[0]), ["a"]);
                assert_eq!(calls(&arms[1]), ["b"]);
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn if_without_else_gets_empty_arm() {
        let fns = parse_src("fn f(c: bool) { if c { a(); } }");
        match &fns[0].body.stmts[0] {
            Stmt::Branch(arms) => {
                assert_eq!(arms.len(), 2);
                assert!(arms[1].stmts.is_empty());
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn match_arms_are_alternatives() {
        let fns = parse_src("fn f(x: u8) { match x { 0 => a(), 1 => { b(); c(); } _ => {} } }");
        match &fns[0].body.stmts[0] {
            Stmt::Branch(arms) => {
                assert_eq!(arms.len(), 3);
                assert_eq!(calls(&arms[0]), ["a"]);
                assert_eq!(calls(&arms[1]), ["b", "c"]);
                assert!(arms[2].stmts.is_empty());
            }
            other => panic!("expected branch, got {other:?}"),
        }
    }

    #[test]
    fn loops_and_headers() {
        let fns = parse_src("fn f(v: &[u8]) { for x in v.iter() { g(x); } }");
        let body = &fns[0].body;
        // `iter` from the header, then the loop.
        assert_eq!(calls(body), ["iter", "g"]);
        assert!(matches!(body.stmts[1], Stmt::Loop(_)));
    }

    #[test]
    fn drop_impls_are_recognised() {
        let fns = parse_src(
            "impl Drop for Flusher { fn drop(&mut self) { self.db.sync_wal(); } }\n\
             impl Flusher { fn poke(&self) {} }",
        );
        assert_eq!(fns.len(), 2);
        assert!(fns[0].is_drop);
        assert_eq!(fns[0].name, "drop");
        assert_eq!(fns[0].impl_ty.as_deref(), Some("Flusher"));
        assert!(!fns[1].is_drop);
        assert_eq!(fns[1].impl_ty.as_deref(), Some("Flusher"));
    }

    #[test]
    fn let_else_arm_is_not_guaranteed() {
        let fns = parse_src(
            "fn f(y: Option<u8>) { let Some(x) = y else { early(); return; }; late(x); }",
        );
        let body = &fns[0].body;
        // `early` sits under a Branch (not guaranteed), `late` at top
        // level. (`Some(x)` in the pattern scans as a harmless call —
        // tuple-struct patterns are indistinguishable from calls at
        // token level, and `Some` carries no effects.)
        let mut top = Vec::new();
        for s in &body.stmts {
            if let Stmt::Call(c) = s {
                top.push(c.name.clone());
            }
        }
        assert_eq!(top, ["Some", "late"]);
        assert!(calls(body).contains(&"early".to_string()));
    }

    #[test]
    fn trait_signatures_have_no_body() {
        let fns = parse_src("trait T { fn a(&self); fn b(&self) { helper(); } }");
        assert_eq!(fns.len(), 1);
        assert_eq!(fns[0].name, "b");
    }

    #[test]
    fn method_and_path_calls_are_captured_by_name() {
        let fns = parse_src("fn f() { db.write(b); Store::open(x); }");
        let mut sites = Vec::new();
        for s in &fns[0].body.stmts {
            if let Stmt::Call(c) = s {
                sites.push(c.name.clone());
            }
        }
        assert_eq!(sites, ["write", "open"]);
    }
}
