//! A tolerant recursive-descent parser for the determinism lint.
//!
//! Just enough of an AST for semantic rules: items (functions with typed
//! params, structs with typed fields, impl blocks, inline modules),
//! statements, and an expression tree that keeps the shapes the rules
//! care about — paths, calls, method calls, field accesses, indexing,
//! literals, blocks, `unsafe`, control flow, closures. No `syn`, no
//! `proc-macro2`: the workspace is hermetic (DESIGN.md).
//!
//! **Totality over fidelity.** The parser never fails and never panics:
//! anything it cannot shape (macro arguments, match patterns and guards,
//! `use`/`const`/`enum` items, recovery stretches) is recorded as an
//! *opaque span* — a token range tagged with the enclosing `#[cfg(test)]`
//! state — and the caller runs the token-level fallback scan over those
//! spans so detection never regresses below the v1 lexer lint. Known
//! false-negative edges of this conservatism are documented in DESIGN.md
//! §5c.

use crate::lexer::{lex, Tok, Token};

/// A token range `[start, end)` into [`ParsedFile::tokens`] that the
/// parser did not shape into AST; the fallback token scan covers it.
#[derive(Debug, Clone)]
pub struct OpaqueSpan {
    pub start: usize,
    pub end: usize,
    pub in_test: bool,
}

/// A type as the lint sees it: rendered text plus the identifiers it
/// mentions (for `HashMap`-style type bans and lock-type lookups).
#[derive(Debug, Clone, Default)]
pub struct Ty {
    pub text: String,
    pub idents: Vec<String>,
    pub line: u32,
}

impl Ty {
    pub fn mentions(&self, ident: &str) -> bool {
        self.idents.iter().any(|i| i == ident)
    }
}

#[derive(Debug, Clone)]
pub struct Param {
    pub name: Option<String>,
    pub ty: Ty,
}

#[derive(Debug, Clone)]
pub struct FnDef {
    pub name: String,
    /// `Some(T)` for methods in `impl T` / `impl Tr for T` blocks.
    pub self_ty: Option<String>,
    /// Enclosing inline-module path (innermost last).
    pub modpath: Vec<String>,
    pub takes_self: bool,
    pub params: Vec<Param>,
    pub ret: Option<Ty>,
    pub body: Option<Block>,
    pub line: u32,
    pub in_test: bool,
}

#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    /// Named or tuple fields; tuple fields are named `"0"`, `"1"`, ….
    pub fields: Vec<(String, Ty)>,
    pub line: u32,
    pub in_test: bool,
}

#[derive(Debug, Clone, Default)]
pub struct Block {
    pub stmts: Vec<Stmt>,
    pub line: u32,
}

#[derive(Debug, Clone)]
pub enum Stmt {
    Let {
        /// `Some` only for simple `let [mut] name` patterns.
        name: Option<String>,
        ty: Option<Ty>,
        init: Option<Expr>,
        else_block: Option<Block>,
        line: u32,
    },
    Expr(Expr),
}

#[derive(Debug, Clone)]
pub enum Expr {
    /// `a::b::c` (also bare idents and `self`).
    Path(Vec<String>, u32),
    LitInt(String, u32),
    LitOther(u32),
    Call { callee: Box<Expr>, args: Vec<Expr>, line: u32 },
    Method { recv: Box<Expr>, name: String, args: Vec<Expr>, line: u32 },
    Field { recv: Box<Expr>, name: String, line: u32 },
    Index { recv: Box<Expr>, index: Box<Expr>, line: u32 },
    /// `name!(…)` — the argument tokens become an opaque span.
    Macro { name: String, line: u32 },
    Unsafe { body: Block, line: u32 },
    Block(Block),
    If { cond: Box<Expr>, then: Block, els: Option<Box<Expr>>, line: u32 },
    While { cond: Box<Expr>, body: Block, line: u32 },
    Loop { body: Block, line: u32 },
    For { iter: Box<Expr>, body: Block, line: u32 },
    /// Patterns and guards are opaque spans; arms are the body exprs.
    Match { scrut: Box<Expr>, arms: Vec<Expr>, line: u32 },
    Closure { body: Box<Expr>, line: u32 },
    StructLit { path: Vec<String>, fields: Vec<Expr>, line: u32 },
    /// Order-insensitive grouping: binary-operator chains, tuples, arrays,
    /// call-less parens. The lint never needs operator structure.
    Seq(Vec<Expr>, u32),
    Unknown(u32),
}

impl Expr {
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path(_, l)
            | Expr::LitInt(_, l)
            | Expr::LitOther(l)
            | Expr::Call { line: l, .. }
            | Expr::Method { line: l, .. }
            | Expr::Field { line: l, .. }
            | Expr::Index { line: l, .. }
            | Expr::Macro { line: l, .. }
            | Expr::Unsafe { line: l, .. }
            | Expr::If { line: l, .. }
            | Expr::While { line: l, .. }
            | Expr::Loop { line: l, .. }
            | Expr::For { line: l, .. }
            | Expr::Match { line: l, .. }
            | Expr::Closure { line: l, .. }
            | Expr::StructLit { line: l, .. }
            | Expr::Seq(_, l)
            | Expr::Unknown(l) => *l,
            Expr::Block(b) => b.line,
        }
    }

    /// A stable textual key for simple place expressions: `rng`,
    /// `self.rng`, `cfg.seed`. `None` for anything computed.
    pub fn place_key(&self) -> Option<String> {
        match self {
            Expr::Path(segs, _) => Some(segs.join("::")),
            Expr::Field { recv, name, .. } => {
                Some(format!("{}.{}", recv.place_key()?, name))
            }
            _ => None,
        }
    }
}

/// Everything the lint extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Comment-free code tokens, in order (opaque spans index into this).
    pub tokens: Vec<Token>,
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
    pub opaque: Vec<OpaqueSpan>,
    /// `unsafe` keywords seen at item level (`unsafe fn`, `unsafe impl`).
    pub item_unsafe: Vec<(u32, bool)>,
    /// Token ranges `[start, end)` the parser shaped into items: whole
    /// `fn`s and `struct`s, the headers and closing braces of `impl`,
    /// `trait` and `mod` blocks, attributes and modifiers.
    pub shaped: Vec<(usize, usize)>,
}

impl ParsedFile {
    /// The first code token that lies in neither a shaped item nor an
    /// opaque span, i.e. that no rule ever looks at. `None` is the
    /// parser's coverage invariant (`tests/lint_gate.rs` holds the live
    /// workspace to it).
    pub fn first_unscanned(&self) -> Option<&Token> {
        let mut spans: Vec<(usize, usize)> = self
            .opaque
            .iter()
            .map(|s| (s.start, s.end))
            .chain(self.shaped.iter().copied())
            .collect();
        spans.sort_unstable();
        let mut reached = 0;
        for (start, end) in spans {
            if start > reached {
                break;
            }
            reached = reached.max(end);
        }
        self.tokens.get(reached)
    }
}

/// Pre-order walk over every expression reachable from a block,
/// descending into nested blocks, arms, and closure bodies.
pub fn walk_block<'a>(b: &'a Block, f: &mut impl FnMut(&'a Expr)) {
    for s in &b.stmts {
        match s {
            Stmt::Let { init, else_block, .. } => {
                if let Some(e) = init {
                    walk_expr(e, f);
                }
                if let Some(b) = else_block {
                    walk_block(b, f);
                }
            }
            Stmt::Expr(e) => walk_expr(e, f),
        }
    }
}

pub fn walk_expr<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Expr)) {
    f(e);
    match e {
        Expr::Call { callee, args, .. } => {
            walk_expr(callee, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Method { recv, args, .. } => {
            walk_expr(recv, f);
            for a in args {
                walk_expr(a, f);
            }
        }
        Expr::Field { recv, .. } => walk_expr(recv, f),
        Expr::Index { recv, index, .. } => {
            walk_expr(recv, f);
            walk_expr(index, f);
        }
        Expr::Unsafe { body, .. } | Expr::Loop { body, .. } => walk_block(body, f),
        Expr::Block(b) => walk_block(b, f),
        Expr::If { cond, then, els, .. } => {
            walk_expr(cond, f);
            walk_block(then, f);
            if let Some(e) = els {
                walk_expr(e, f);
            }
        }
        Expr::While { cond, body, .. } => {
            walk_expr(cond, f);
            walk_block(body, f);
        }
        Expr::For { iter, body, .. } => {
            walk_expr(iter, f);
            walk_block(body, f);
        }
        Expr::Match { scrut, arms, .. } => {
            walk_expr(scrut, f);
            for a in arms {
                walk_expr(a, f);
            }
        }
        Expr::Closure { body, .. } => walk_expr(body, f),
        Expr::StructLit { fields, .. } => {
            for e in fields {
                walk_expr(e, f);
            }
        }
        Expr::Seq(es, _) => {
            for e in es {
                walk_expr(e, f);
            }
        }
        Expr::Path(..)
        | Expr::LitInt(..)
        | Expr::LitOther(..)
        | Expr::Macro { .. }
        | Expr::Unknown(..) => {}
    }
}

/// Visit every statement reachable from a block, descending into nested
/// blocks inside expressions (for `let`-type checks and similar).
pub fn visit_stmts<'a>(b: &'a Block, f: &mut impl FnMut(&'a Stmt)) {
    for s in &b.stmts {
        f(s);
        match s {
            Stmt::Let { init, else_block, .. } => {
                if let Some(e) = init {
                    visit_expr_stmts(e, f);
                }
                if let Some(b) = else_block {
                    visit_stmts(b, f);
                }
            }
            Stmt::Expr(e) => visit_expr_stmts(e, f),
        }
    }
}

fn visit_expr_stmts<'a>(e: &'a Expr, f: &mut impl FnMut(&'a Stmt)) {
    match e {
        Expr::Call { callee, args, .. } => {
            visit_expr_stmts(callee, f);
            for a in args {
                visit_expr_stmts(a, f);
            }
        }
        Expr::Method { recv, args, .. } => {
            visit_expr_stmts(recv, f);
            for a in args {
                visit_expr_stmts(a, f);
            }
        }
        Expr::Field { recv, .. } => visit_expr_stmts(recv, f),
        Expr::Index { recv, index, .. } => {
            visit_expr_stmts(recv, f);
            visit_expr_stmts(index, f);
        }
        Expr::Unsafe { body, .. } | Expr::Loop { body, .. } => visit_stmts(body, f),
        Expr::Block(b) => visit_stmts(b, f),
        Expr::If { cond, then, els, .. } => {
            visit_expr_stmts(cond, f);
            visit_stmts(then, f);
            if let Some(e) = els {
                visit_expr_stmts(e, f);
            }
        }
        Expr::While { cond, body, .. } => {
            visit_expr_stmts(cond, f);
            visit_stmts(body, f);
        }
        Expr::For { iter, body, .. } => {
            visit_expr_stmts(iter, f);
            visit_stmts(body, f);
        }
        Expr::Match { scrut, arms, .. } => {
            visit_expr_stmts(scrut, f);
            for a in arms {
                visit_expr_stmts(a, f);
            }
        }
        Expr::Closure { body, .. } => visit_expr_stmts(body, f),
        Expr::StructLit { fields, .. } => {
            for e in fields {
                visit_expr_stmts(e, f);
            }
        }
        Expr::Seq(es, _) => {
            for e in es {
                visit_expr_stmts(e, f);
            }
        }
        Expr::Path(..)
        | Expr::LitInt(..)
        | Expr::LitOther(..)
        | Expr::Macro { .. }
        | Expr::Unknown(..) => {}
    }
}

/// Parse a source file. Never fails; see module docs for the opaque-span
/// fallback contract.
pub fn parse(src: &str) -> ParsedFile {
    let tokens: Vec<Token> = lex(src)
        .into_iter()
        .filter(|t| !matches!(t.tok, Tok::Comment(_)))
        .collect();
    let mut p = Parser {
        toks: &tokens,
        pos: 0,
        out: ParsedFile::default(),
        in_test: false,
        self_ty: None,
        modpath: Vec::new(),
    };
    while p.pos < tokens.len() {
        p.items(usize::MAX);
        if p.pos < tokens.len() {
            // A `}` nothing opened (the parser lost count somewhere
            // above): the rest of the file is still parsed.
            p.opaque(p.pos, p.pos + 1);
            p.bump();
        }
    }
    let mut out = p.out;
    out.tokens = tokens;
    out
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    out: ParsedFile,
    in_test: bool,
    self_ty: Option<String>,
    modpath: Vec<String>,
}

const ITEM_KEYWORDS: &[&str] = &[
    "fn", "struct", "enum", "union", "impl", "trait", "mod", "use", "extern", "const", "static",
    "type", "macro_rules", "pub", "unsafe", "async",
];

impl<'a> Parser<'a> {
    // ------------------------------------------------------- token utils

    fn peek(&self) -> Option<&'a Tok> {
        self.toks.get(self.pos).map(|t| &t.tok)
    }

    fn peek_at(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + off).map(|t| &t.tok)
    }

    fn line(&self) -> u32 {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |t| t.line)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn is_punct(&self, off: usize, c: char) -> bool {
        matches!(self.peek_at(off), Some(Tok::Punct(p)) if *p == c)
    }

    fn is_ident(&self, off: usize, s: &str) -> bool {
        matches!(self.peek_at(off), Some(Tok::Ident(i)) if i == s)
    }

    fn ident(&self, off: usize) -> Option<&'a str> {
        match self.peek_at(off) {
            Some(Tok::Ident(i)) => Some(i.as_str()),
            _ => None,
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        if self.is_punct(0, c) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn opaque(&mut self, start: usize, end: usize) {
        if start >= end {
            return;
        }
        let in_test = self.in_test;
        if let Some(last) = self.out.opaque.last_mut() {
            if last.end == start && last.in_test == in_test {
                last.end = end;
                return;
            }
        }
        self.out.opaque.push(OpaqueSpan { start, end, in_test });
    }

    fn shape(&mut self, start: usize, end: usize) {
        if start < end {
            self.out.shaped.push((start, end));
        }
    }

    /// The `{ items }` body of an `impl`, `trait` or `mod` whose header
    /// began at token `header` (or the `;` of a body-less one).
    fn item_body(&mut self, header: usize) {
        if self.eat_punct('{') {
            self.shape(header, self.pos);
            self.items(usize::MAX);
            let close = self.pos;
            if self.eat_punct('}') {
                self.shape(close, self.pos);
            }
        } else {
            self.eat_punct(';');
            self.shape(header, self.pos);
        }
    }

    /// Skip one balanced `(`/`[`/`{` group starting at the current token;
    /// leaves `pos` just past the matching close.
    fn skip_group(&mut self) {
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            match self.peek() {
                Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                Some(Tok::Punct(')' | ']' | '}')) => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        self.bump();
                        return;
                    }
                }
                None => return,
                _ => {}
            }
            self.bump();
        }
    }

    /// Skip a `<…>` generic-argument group (current token is `<`).
    /// `->` inside (`Fn() -> T`) does not close the group.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        let mut prev_minus = false;
        while self.pos < self.toks.len() {
            match self.peek() {
                Some(Tok::Punct('<')) => depth += 1,
                Some(Tok::Punct('>')) if !prev_minus => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        return;
                    }
                }
                Some(Tok::Punct('(' | '[')) => {
                    self.skip_group();
                    prev_minus = false;
                    continue;
                }
                None => return,
                _ => {}
            }
            prev_minus = matches!(self.peek(), Some(Tok::Punct('-')));
            self.bump();
        }
    }

    // ------------------------------------------------------------- types

    /// Parse a type, stopping at depth-0 `,` `;` `=` `)` `]` `}` `{` or
    /// an `=>`-like boundary the caller owns. Collects mentioned idents.
    fn ty(&mut self) -> Ty {
        let line = self.line();
        let mut text = String::new();
        let mut idents = Vec::new();
        let mut depth = 0i32;
        let mut prev_minus = false;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct(',' | ';' | '{') if depth == 0 => break,
                Tok::Punct('=') if depth == 0 => break,
                Tok::Punct(')' | ']') if depth == 0 => break,
                Tok::Punct('}') => break,
                Tok::Punct('<' | '(' | '[') => {
                    depth += 1;
                    text.push(match tok {
                        Tok::Punct(c) => *c,
                        _ => unreachable!(),
                    });
                }
                Tok::Punct('>') => {
                    if prev_minus {
                        // `->` return-type arrow inside fn-pointer types.
                        text.push('>');
                    } else {
                        if depth == 0 {
                            break;
                        }
                        depth -= 1;
                        text.push('>');
                    }
                }
                Tok::Punct(')' | ']') => {
                    depth -= 1;
                    text.push(match tok {
                        Tok::Punct(c) => *c,
                        _ => unreachable!(),
                    });
                }
                Tok::Ident(i) => {
                    // `ident ident` at depth 0 means the type ended and an
                    // expression-ish continuation began (`else`, `in`, …).
                    if depth == 0
                        && matches!(i.as_str(), "else" | "in")
                    {
                        break;
                    }
                    if !text.is_empty() && !text.ends_with([':', '<', '(', '[', '&', ' ']) {
                        text.push(' ');
                    }
                    text.push_str(i);
                    idents.push(i.clone());
                }
                Tok::Punct(c) => text.push(*c),
                Tok::Lifetime(l) => {
                    text.push('\'');
                    text.push_str(l);
                }
                Tok::Int(s) | Tok::Float(s) => text.push_str(s),
                Tok::Str | Tok::Char => text.push('_'),
                Tok::Comment(_) => {}
            }
            prev_minus = matches!(self.peek(), Some(Tok::Punct('-')));
            self.bump();
        }
        Ty { text, idents, line }
    }

    // ------------------------------------------------------------- items

    /// Parse items until a depth-0 `}` (or EOF). `limit` bounds recursion
    /// paranoia only.
    fn items(&mut self, _limit: usize) {
        while self.pos < self.toks.len() {
            if self.is_punct(0, '}') {
                return;
            }
            let before = self.pos;
            self.item();
            if self.pos == before {
                // Recovery: record and skip one token so we always advance.
                self.opaque(self.pos, self.pos + 1);
                self.bump();
            }
        }
    }

    fn item(&mut self) {
        let start = self.pos;
        // Attributes: `#[…]` / `#![…]`; `cfg(… test …)` marks the item.
        let mut attr_test = false;
        loop {
            if self.is_punct(0, '#') && (self.is_punct(1, '[') || (self.is_punct(1, '!') && self.is_punct(2, '['))) {
                let open = if self.is_punct(1, '[') { 1 } else { 2 };
                let is_cfg = self.ident(open + 1) == Some("cfg");
                let start = self.pos;
                self.pos += open;
                self.skip_group();
                if is_cfg
                    && self.toks[start..self.pos]
                        .iter()
                        .any(|t| matches!(&t.tok, Tok::Ident(i) if i == "test"))
                {
                    attr_test = true;
                }
                continue;
            }
            break;
        }
        let saved_test = self.in_test;
        self.in_test = saved_test || attr_test;

        // Modifiers before the item keyword.
        loop {
            if self.is_ident(0, "pub") {
                self.bump();
                if self.is_punct(0, '(') {
                    self.skip_group();
                }
            } else if self.is_ident(0, "async") || self.is_ident(0, "default") && self.ident(1).is_some() {
                self.bump();
            } else if self.is_ident(0, "unsafe")
                && (self.is_ident(1, "fn") || self.is_ident(1, "impl") || self.is_ident(1, "trait") || self.is_ident(1, "extern"))
            {
                let (line, in_test) = (self.line(), self.in_test);
                self.out.item_unsafe.push((line, in_test));
                self.bump();
            } else {
                break;
            }
        }

        // Attributes and modifiers; `fn` and `struct` extend the span over
        // the whole item below, block items add their own pieces, and
        // the remaining kinds are opaque from the keyword on.
        self.shape(start, self.pos);
        match self.ident(0) {
            Some("fn") => {
                self.item_fn();
                self.shape(start, self.pos);
            }
            Some("struct") => {
                self.item_struct();
                self.shape(start, self.pos);
            }
            Some("impl") => self.item_impl(),
            Some("trait") => self.item_trait(),
            Some("mod") => self.item_mod(),
            Some("enum") | Some("union") => {
                // name, generics, body — opaque (variant payload types are
                // covered by the fallback scan).
                let start = self.pos;
                self.bump();
                while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, ';') {
                    if self.is_punct(0, '<') {
                        self.skip_angles();
                    } else {
                        self.bump();
                    }
                }
                if self.is_punct(0, '{') {
                    self.skip_group();
                } else {
                    self.eat_punct(';');
                }
                self.opaque(start, self.pos);
            }
            Some("use") | Some("extern") | Some("const") | Some("static") | Some("type") => {
                // Opaque to the first depth-0 `;` (or `{…}` for
                // `extern { … }` blocks).
                let start = self.pos;
                self.bump();
                while self.pos < self.toks.len() {
                    if self.is_punct(0, ';') {
                        self.bump();
                        break;
                    }
                    if self.is_punct(0, '{') || self.is_punct(0, '(') || self.is_punct(0, '[') {
                        self.skip_group();
                        if self.toks.get(self.pos.wrapping_sub(1)).is_some_and(|t| t.tok == Tok::Punct('}')) {
                            break;
                        }
                        continue;
                    }
                    self.bump();
                }
                self.opaque(start, self.pos);
            }
            Some("macro_rules") => {
                let start = self.pos;
                self.bump(); // macro_rules
                self.eat_punct('!');
                if self.ident(0).is_some() {
                    self.bump();
                }
                if self.is_punct(0, '{') || self.is_punct(0, '(') || self.is_punct(0, '[') {
                    self.skip_group();
                }
                self.eat_punct(';');
                self.opaque(start, self.pos);
            }
            _ => {}
        }
        self.in_test = saved_test;
    }

    fn item_fn(&mut self) {
        let line = self.line();
        self.bump(); // fn
        let name = match self.ident(0) {
            Some(n) => {
                self.bump();
                n.to_string()
            }
            None => return,
        };
        if self.is_punct(0, '<') {
            // Generic params may mention banned types in bounds; keep the
            // fallback scan's eyes on them.
            let start = self.pos;
            self.skip_angles();
            self.opaque(start, self.pos);
        }
        let mut params = Vec::new();
        let mut takes_self = false;
        if self.is_punct(0, '(') {
            self.bump();
            while self.pos < self.toks.len() && !self.is_punct(0, ')') {
                // Param attributes.
                while self.is_punct(0, '#') && self.is_punct(1, '[') {
                    self.bump();
                    self.skip_group();
                }
                // `self` receivers: `self`, `&self`, `&'a mut self`, `mut self`.
                let mut off = 0;
                while self.is_punct(off, '&') {
                    off += 1;
                }
                if matches!(self.peek_at(off), Some(Tok::Lifetime(_))) {
                    off += 1;
                }
                if self.is_ident(off, "mut") {
                    off += 1;
                }
                if self.is_ident(off, "self") {
                    takes_self = true;
                    self.pos += off + 1;
                    if self.eat_punct(':') {
                        let _ = self.ty();
                    }
                    self.eat_punct(',');
                    continue;
                }
                // Pattern: simple `[mut] name : ty` keeps the name;
                // anything else is skipped to the `:`.
                if self.is_ident(0, "mut") {
                    self.bump();
                }
                let pname = if self.ident(0).is_some() && self.is_punct(1, ':') {
                    let n = self.ident(0).map(str::to_string);
                    self.bump();
                    n
                } else {
                    // Complex pattern — skip to depth-0 `:`.
                    let start = self.pos;
                    let mut depth = 0usize;
                    while self.pos < self.toks.len() {
                        match self.peek() {
                            Some(Tok::Punct('(' | '[')) => depth += 1,
                            Some(Tok::Punct(')')) if depth == 0 => break,
                            Some(Tok::Punct(')' | ']')) => depth -= 1,
                            Some(Tok::Punct(':')) if depth == 0 => break,
                            Some(Tok::Punct(',')) if depth == 0 => break,
                            _ => {}
                        }
                        self.bump();
                    }
                    self.opaque(start, self.pos);
                    None
                };
                if self.eat_punct(':') {
                    let ty = self.ty();
                    params.push(Param { name: pname, ty });
                }
                self.eat_punct(',');
            }
            self.eat_punct(')');
        }
        // Return type.
        let ret = if self.is_punct(0, '-') && self.is_punct(1, '>') {
            self.bump();
            self.bump();
            Some(self.ty())
        } else {
            None
        };
        // Where clause: skip to `{` or `;`.
        if self.is_ident(0, "where") {
            let start = self.pos;
            while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, ';') {
                if self.is_punct(0, '<') {
                    self.skip_angles();
                } else {
                    self.bump();
                }
            }
            self.opaque(start, self.pos);
        }
        let body = if self.is_punct(0, '{') {
            Some(self.block())
        } else {
            self.eat_punct(';');
            None
        };
        self.out.fns.push(FnDef {
            name,
            self_ty: self.self_ty.clone(),
            modpath: self.modpath.clone(),
            takes_self,
            params,
            ret,
            body,
            line,
            in_test: self.in_test,
        });
    }

    fn item_struct(&mut self) {
        let line = self.line();
        self.bump(); // struct
        let name = match self.ident(0) {
            Some(n) => {
                self.bump();
                n.to_string()
            }
            None => return,
        };
        if self.is_punct(0, '<') {
            self.skip_angles();
        }
        if self.is_ident(0, "where") {
            while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, '(') && !self.is_punct(0, ';') {
                if self.is_punct(0, '<') {
                    self.skip_angles();
                } else {
                    self.bump();
                }
            }
        }
        let mut fields = Vec::new();
        if self.is_punct(0, '{') {
            self.bump();
            while self.pos < self.toks.len() && !self.is_punct(0, '}') {
                while self.is_punct(0, '#') && self.is_punct(1, '[') {
                    self.bump();
                    self.skip_group();
                }
                if self.is_ident(0, "pub") {
                    self.bump();
                    if self.is_punct(0, '(') {
                        self.skip_group();
                    }
                }
                if let Some(fname) = self.ident(0) {
                    let fname = fname.to_string();
                    self.bump();
                    if self.eat_punct(':') {
                        let ty = self.ty();
                        fields.push((fname, ty));
                    }
                }
                if !self.eat_punct(',') && !self.is_punct(0, '}') {
                    // Recovery inside the field list.
                    self.bump();
                }
            }
            self.eat_punct('}');
        } else if self.is_punct(0, '(') {
            // Tuple struct: fields named by index.
            self.bump();
            let mut idx = 0usize;
            while self.pos < self.toks.len() && !self.is_punct(0, ')') {
                while self.is_punct(0, '#') && self.is_punct(1, '[') {
                    self.bump();
                    self.skip_group();
                }
                if self.is_ident(0, "pub") {
                    self.bump();
                    if self.is_punct(0, '(') {
                        self.skip_group();
                    }
                }
                let ty = self.ty();
                if !ty.text.is_empty() {
                    fields.push((idx.to_string(), ty));
                    idx += 1;
                }
                if !self.eat_punct(',') && !self.is_punct(0, ')') {
                    self.bump();
                }
            }
            self.eat_punct(')');
            self.eat_punct(';');
        } else {
            self.eat_punct(';');
        }
        self.out.structs.push(StructDef { name, fields, line, in_test: self.in_test });
    }

    fn item_impl(&mut self) {
        let header = self.pos;
        self.bump(); // impl
        if self.is_punct(0, '<') {
            self.skip_angles();
        }
        // `impl Type {` or `impl Trait for Type {` — the self type is the
        // last path segment before the body (after `for` when present).
        let mut last_seg: Option<String> = None;
        while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, ';') {
            if self.is_ident(0, "for") {
                last_seg = None;
                self.bump();
                continue;
            }
            if self.is_ident(0, "where") {
                while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, ';') {
                    if self.is_punct(0, '<') {
                        self.skip_angles();
                    } else {
                        self.bump();
                    }
                }
                break;
            }
            if let Some(i) = self.ident(0) {
                last_seg = Some(i.to_string());
                self.bump();
                continue;
            }
            if self.is_punct(0, '<') {
                self.skip_angles();
                continue;
            }
            self.bump();
        }
        let saved = std::mem::replace(&mut self.self_ty, last_seg);
        self.item_body(header);
        self.self_ty = saved;
    }

    fn item_trait(&mut self) {
        let header = self.pos;
        self.bump(); // trait
        let name = self.ident(0).map(str::to_string);
        if name.is_some() {
            self.bump();
        }
        while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, ';') {
            if self.is_punct(0, '<') {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        let saved = std::mem::replace(&mut self.self_ty, name);
        self.item_body(header);
        self.self_ty = saved;
    }

    fn item_mod(&mut self) {
        let header = self.pos;
        self.bump(); // mod
        let name = self.ident(0).map(str::to_string);
        if name.is_some() {
            self.bump();
        }
        let named = name.is_some();
        self.modpath.extend(name);
        self.item_body(header);
        if named {
            self.modpath.pop();
        }
    }

    // ------------------------------------------------------------ blocks

    /// Parse `{ … }`; current token must be `{`.
    fn block(&mut self) -> Block {
        let line = self.line();
        let mut stmts = Vec::new();
        if !self.eat_punct('{') {
            return Block { stmts, line };
        }
        while self.pos < self.toks.len() && !self.is_punct(0, '}') {
            let before = self.pos;
            let saved_test = self.in_test;
            if self.eat_punct(';') {
                continue;
            }
            // Statement-level attributes.
            while self.is_punct(0, '#') && self.is_punct(1, '[') {
                let is_cfg = self.ident(2) == Some("cfg");
                let start = self.pos;
                self.bump();
                self.skip_group();
                if is_cfg
                    && self.toks[start..self.pos]
                        .iter()
                        .any(|t| matches!(&t.tok, Tok::Ident(i) if i == "test"))
                {
                    // A cfg(test)-gated statement: treat the next statement
                    // as test code by parsing it under the flag.
                    self.in_test = true;
                }
            }
            if self.is_ident(0, "let") {
                stmts.push(self.stmt_let());
            } else if self
                .ident(0)
                .is_some_and(|i| ITEM_KEYWORDS.contains(&i) && self.starts_item())
            {
                self.item();
            } else {
                let e = self.expr_stmt();
                stmts.push(Stmt::Expr(e));
                self.eat_punct(';');
            }
            self.in_test = saved_test;
            if self.pos == before {
                self.opaque(self.pos, self.pos + 1);
                self.bump();
            }
        }
        self.eat_punct('}');
        Block { stmts, line }
    }

    /// Disambiguate item keywords that are also expression-ish (`unsafe`,
    /// plain idents used as macro names, …) in statement position.
    fn starts_item(&self) -> bool {
        match self.ident(0) {
            Some("unsafe") => {
                // `unsafe { … }` is an expression; `unsafe fn` is an item.
                self.is_ident(1, "fn") || self.is_ident(1, "impl") || self.is_ident(1, "trait")
            }
            Some("pub") | Some("fn") | Some("struct") | Some("enum") | Some("union")
            | Some("impl") | Some("trait") | Some("mod") | Some("use") | Some("extern")
            | Some("static") | Some("macro_rules") => true,
            Some("const") => {
                // `const NAME: …` item vs. `const { … }` block / `const fn`.
                !self.is_punct(1, '{')
            }
            Some("type") => self.ident(1).is_some(),
            Some("async") => self.is_ident(1, "fn"),
            _ => false,
        }
    }

    fn stmt_let(&mut self) -> Stmt {
        let line = self.line();
        self.bump(); // let
        if self.is_ident(0, "mut") {
            self.bump();
        }
        // Simple-name pattern or opaque pattern.
        let name = if self.ident(0).is_some()
            && (self.is_punct(1, ':') || self.is_punct(1, '=') || self.is_punct(1, ';'))
            && !self.is_punct(2, '=') // `name ==` can't happen; `name :=` never
        {
            let n = self.ident(0).map(str::to_string);
            self.bump();
            n
        } else {
            // Complex pattern: skip to depth-0 `:` / `=` / `;` (a `=`
            // right after `.` is `..=` and stays inside the pattern).
            let start = self.pos;
            let mut depth = 0usize;
            let mut prev_dot = false;
            while self.pos < self.toks.len() {
                match self.peek() {
                    Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                    Some(Tok::Punct(')' | ']' | '}')) => depth = depth.saturating_sub(1),
                    Some(Tok::Punct(':')) if depth == 0 && !self.is_punct(1, ':') => break,
                    Some(Tok::Punct(':')) if depth == 0 && self.is_punct(1, ':') => {
                        self.bump(); // path separator inside the pattern
                    }
                    Some(Tok::Punct('=')) if depth == 0 && !prev_dot => break,
                    Some(Tok::Punct(';')) if depth == 0 => break,
                    _ => {}
                }
                prev_dot = matches!(self.peek(), Some(Tok::Punct('.')));
                self.bump();
            }
            self.opaque(start, self.pos);
            None
        };
        let ty = if self.is_punct(0, ':') && !self.is_punct(1, ':') {
            self.bump();
            Some(self.ty())
        } else {
            None
        };
        let init = if self.eat_punct('=') {
            Some(self.expr(false))
        } else {
            None
        };
        let else_block = if self.is_ident(0, "else") && self.is_punct(1, '{') {
            self.bump();
            Some(self.block())
        } else {
            None
        };
        self.eat_punct(';');
        Stmt::Let { name, ty, init, else_block, line }
    }

    // ------------------------------------------------------- expressions

    /// Parse an expression. `no_struct_lit` is set in `if`/`while`/
    /// `match`/`for` head positions, where `Path {` opens the body, not a
    /// struct literal.
    fn expr(&mut self, no_struct_lit: bool) -> Expr {
        let line = self.line();
        let first = self.operand(no_struct_lit);
        self.binary_rest(first, line, no_struct_lit)
    }

    /// An expression in statement or match-arm position, where a
    /// block-like one (`{…}`, `if`, `match`, `while`, `loop`, `for`,
    /// `unsafe {…}`) ends at its closing brace: a `(`, `[` or operator
    /// after it starts the next statement or the next arm's pattern, not
    /// a call, an index or a binary chain. Only `.` and `?` continue it
    /// (`match x { … }.len()`), as in rustc.
    fn expr_stmt(&mut self) -> Expr {
        let labelled = matches!(self.peek(), Some(Tok::Lifetime(_))) && self.is_punct(1, ':');
        let head = if labelled { 2 } else { 0 };
        let block_like = self.is_punct(head, '{')
            || matches!(self.ident(head), Some("if" | "match" | "while" | "loop" | "for"))
            || (self.is_ident(head, "unsafe") && self.is_punct(head + 1, '{'));
        if !block_like {
            return self.expr(false);
        }
        let line = self.line();
        self.pos += head;
        let e = self.primary(false);
        if self.is_punct(0, '?') || (self.is_punct(0, '.') && !self.is_punct(1, '.')) {
            let e = self.postfix(e);
            return self.binary_rest(e, line, false);
        }
        e
    }

    /// The operators, casts and ranges after an expression's first operand.
    fn binary_rest(&mut self, first: Expr, line: u32, no_struct_lit: bool) -> Expr {
        let mut parts = vec![first];
        loop {
            // `as Type` casts.
            if self.is_ident(0, "as") {
                self.bump();
                let _ = self.ty();
                continue;
            }
            // Range `..` / `..=`.
            if self.is_punct(0, '.') && self.is_punct(1, '.') {
                self.bump();
                self.bump();
                self.eat_punct('=');
                if self.range_end_follows() {
                    parts.push(self.operand(no_struct_lit));
                }
                continue;
            }
            // Binary / assignment operators (single-char punct stream).
            let is_binop = match self.peek() {
                Some(Tok::Punct(c)) => matches!(c, '+' | '-' | '*' | '/' | '%' | '^' | '=' | '<' | '>' | '|' | '&'),
                _ => false,
            };
            if !is_binop {
                break;
            }
            // `=>`, `->`, and statement terminators are not chains.
            if self.is_punct(0, '=') && self.is_punct(1, '>') {
                break;
            }
            if self.is_punct(0, '-') && self.is_punct(1, '>') {
                break;
            }
            // Consume the operator run (`<<=`, `&&`, `==`, …).
            while matches!(
                self.peek(),
                Some(Tok::Punct('+' | '-' | '*' | '/' | '%' | '^' | '=' | '<' | '>' | '|' | '&' | '!'))
            ) {
                if self.is_punct(0, '=') && self.is_punct(1, '>') {
                    break;
                }
                self.bump();
                // Unary prefixes of the right operand end the run.
                if !matches!(self.peek(), Some(Tok::Punct('=' | '<' | '>' | '|' | '&'))) {
                    break;
                }
            }
            if self.operand_follows(no_struct_lit) {
                parts.push(self.operand(no_struct_lit));
            } else {
                break;
            }
        }
        if parts.len() == 1 {
            parts.pop().unwrap_or(Expr::Unknown(line))
        } else {
            Expr::Seq(parts, line)
        }
    }

    fn range_end_follows(&self) -> bool {
        match self.peek() {
            // `{` never continues a range.
            None | Some(Tok::Punct(')' | ']' | '}' | '{' | ',' | ';' | '=')) => false,
            Some(Tok::Ident(i)) if i == "else" || i == "in" => false,
            _ => true,
        }
    }

    fn operand_follows(&self, _no_struct_lit: bool) -> bool {
        !matches!(
            self.peek(),
            None | Some(Tok::Punct(')' | ']' | '}' | '{' | ',' | ';'))
        )
    }

    fn operand(&mut self, nsl: bool) -> Expr {
        // Unary prefixes.
        loop {
            match self.peek() {
                Some(Tok::Punct('&')) => {
                    self.bump();
                    if self.is_ident(0, "mut") {
                        self.bump();
                    }
                }
                Some(Tok::Punct('*' | '-' | '!')) => self.bump(),
                Some(Tok::Ident(i)) if i == "move" && (self.is_punct(1, '|') || self.is_ident(1, "async")) => {
                    self.bump()
                }
                _ => break,
            }
        }
        // Loop labels: `'name: loop/while/for/{`.
        if matches!(self.peek(), Some(Tok::Lifetime(_))) && self.is_punct(1, ':') {
            self.bump();
            self.bump();
        }
        let prim = self.primary(nsl);
        self.postfix(prim)
    }

    fn primary(&mut self, nsl: bool) -> Expr {
        let line = self.line();
        match self.peek() {
            Some(Tok::Int(s)) => {
                let s = s.clone();
                self.bump();
                Expr::LitInt(s, line)
            }
            Some(Tok::Float(_)) | Some(Tok::Str) | Some(Tok::Char) => {
                self.bump();
                Expr::LitOther(line)
            }
            Some(Tok::Punct('(')) => {
                self.bump();
                let mut es = Vec::new();
                while self.pos < self.toks.len() && !self.is_punct(0, ')') {
                    es.push(self.expr(false));
                    if !self.eat_punct(',') {
                        break;
                    }
                }
                self.eat_punct(')');
                match es.len() {
                    1 => es.pop().unwrap_or(Expr::Unknown(line)),
                    _ => Expr::Seq(es, line),
                }
            }
            Some(Tok::Punct('[')) => {
                self.bump();
                let mut es = Vec::new();
                while self.pos < self.toks.len() && !self.is_punct(0, ']') {
                    es.push(self.expr(false));
                    if !self.eat_punct(',') && !self.eat_punct(';') {
                        break;
                    }
                }
                self.eat_punct(']');
                Expr::Seq(es, line)
            }
            Some(Tok::Punct('{')) => Expr::Block(self.block()),
            Some(Tok::Punct('|')) => {
                // Closure: `|params| body` or `|| body`.
                self.bump();
                if !self.eat_punct('|') {
                    let start = self.pos;
                    let mut depth = 0usize;
                    while self.pos < self.toks.len() {
                        match self.peek() {
                            Some(Tok::Punct('(' | '[' | '<')) => depth += 1,
                            Some(Tok::Punct(')' | ']' | '>')) => depth = depth.saturating_sub(1),
                            Some(Tok::Punct('|')) if depth == 0 => break,
                            _ => {}
                        }
                        self.bump();
                    }
                    self.opaque(start, self.pos);
                    self.eat_punct('|');
                }
                if self.is_punct(0, '-') && self.is_punct(1, '>') {
                    self.bump();
                    self.bump();
                    let _ = self.ty();
                }
                let body = self.expr(false);
                Expr::Closure { body: Box::new(body), line }
            }
            Some(Tok::Punct('<')) => {
                // Qualified path `<T as Tr>::assoc(…)`.
                self.skip_angles();
                let mut segs = vec!["<qualified>".to_string()];
                while self.is_punct(0, ':') && self.is_punct(1, ':') {
                    self.bump();
                    self.bump();
                    if self.is_punct(0, '<') {
                        self.skip_angles();
                        continue;
                    }
                    match self.ident(0) {
                        Some(i) => {
                            segs.push(i.to_string());
                            self.bump();
                        }
                        None => break,
                    }
                }
                Expr::Path(segs, line)
            }
            Some(Tok::Ident(i)) => {
                match i.as_str() {
                    "if" => return self.expr_if(),
                    "while" => return self.expr_while(),
                    "loop" => {
                        self.bump();
                        let body = self.block();
                        return Expr::Loop { body, line };
                    }
                    "for" => return self.expr_for(),
                    "match" => return self.expr_match(),
                    "unsafe" => {
                        self.bump();
                        let body = self.block();
                        return Expr::Unsafe { body, line };
                    }
                    "return" | "break" => {
                        self.bump();
                        if matches!(self.peek(), Some(Tok::Lifetime(_))) {
                            self.bump();
                        }
                        if self.operand_follows(nsl) && !self.is_ident(0, "else") {
                            return self.expr(nsl);
                        }
                        return Expr::Unknown(line);
                    }
                    "continue" => {
                        self.bump();
                        if matches!(self.peek(), Some(Tok::Lifetime(_))) {
                            self.bump();
                        }
                        return Expr::Unknown(line);
                    }
                    _ => {}
                }
                self.path_expr(nsl)
            }
            // Nothing an expression starts with. A closer or separator
            // belongs to whoever opened the group (every caller's loop
            // advances or stops on its own); anything else is skipped.
            Some(Tok::Punct(')' | ']' | '}' | ',' | ';')) | None => Expr::Unknown(line),
            _ => {
                self.opaque(self.pos, self.pos + 1);
                self.bump();
                Expr::Unknown(line)
            }
        }
    }

    /// Path, macro call, or struct literal.
    fn path_expr(&mut self, nsl: bool) -> Expr {
        let line = self.line();
        let mut segs: Vec<String> = Vec::new();
        loop {
            match self.ident(0) {
                Some(i) => {
                    segs.push(i.to_string());
                    self.bump();
                }
                None => break,
            }
            // Macro call: `name!(…)` / `path::name![…]`.
            if self.is_punct(0, '!') && (self.is_punct(1, '(') || self.is_punct(1, '[') || self.is_punct(1, '{')) {
                self.bump(); // !
                let start = self.pos;
                self.skip_group();
                self.opaque(start, self.pos);
                let name = segs.last().cloned().unwrap_or_default();
                return Expr::Macro { name, line };
            }
            if self.is_punct(0, ':') && self.is_punct(1, ':') {
                self.bump();
                self.bump();
                if self.is_punct(0, '<') {
                    // Turbofish.
                    self.skip_angles();
                    if self.is_punct(0, ':') && self.is_punct(1, ':') {
                        self.bump();
                        self.bump();
                        continue;
                    }
                    break;
                }
                continue;
            }
            break;
        }
        if segs.is_empty() {
            return Expr::Unknown(line);
        }
        // Struct literal.
        if self.is_punct(0, '{') && !nsl {
            self.bump();
            let mut fields = Vec::new();
            while self.pos < self.toks.len() && !self.is_punct(0, '}') {
                if self.is_punct(0, '.') && self.is_punct(1, '.') {
                    // `..base`, or the bare `..` of a pattern that was
                    // read as an expression: no base to parse.
                    self.bump();
                    self.bump();
                    if !self.is_punct(0, '}') {
                        fields.push(self.expr(false));
                    }
                } else if self.ident(0).is_some() && self.is_punct(1, ':') && !self.is_punct(2, ':') {
                    self.bump(); // field name
                    self.bump(); // :
                    fields.push(self.expr(false));
                } else if let Some(f) = self.ident(0) {
                    // Shorthand `field,`.
                    fields.push(Expr::Path(vec![f.to_string()], self.line()));
                    self.bump();
                } else {
                    self.opaque(self.pos, self.pos + 1);
                    self.bump();
                }
                self.eat_punct(',');
            }
            self.eat_punct('}');
            return Expr::StructLit { path: segs, fields, line };
        }
        Expr::Path(segs, line)
    }

    fn postfix(&mut self, mut e: Expr) -> Expr {
        loop {
            let line = self.line();
            if self.is_punct(0, '?') {
                self.bump();
                continue;
            }
            if self.is_punct(0, '.') && !self.is_punct(1, '.') {
                // `.await`, `.name`, `.name(…)`, `.name::<T>(…)`, `.0`.
                match self.peek_at(1) {
                    Some(Tok::Ident(name)) => {
                        let name = name.clone();
                        self.bump();
                        self.bump();
                        if name == "await" {
                            continue;
                        }
                        // Method turbofish.
                        if self.is_punct(0, ':') && self.is_punct(1, ':') && self.is_punct(2, '<') {
                            self.bump();
                            self.bump();
                            self.skip_angles();
                        }
                        if self.is_punct(0, '(') {
                            let args = self.call_args();
                            e = Expr::Method { recv: Box::new(e), name, args, line };
                        } else {
                            e = Expr::Field { recv: Box::new(e), name, line };
                        }
                        continue;
                    }
                    Some(Tok::Int(n)) | Some(Tok::Float(n)) => {
                        // Tuple index (floats cover `x.0.1` lexing quirks).
                        let name = n.clone();
                        self.bump();
                        self.bump();
                        e = Expr::Field { recv: Box::new(e), name, line };
                        continue;
                    }
                    _ => break,
                }
            }
            if self.is_punct(0, '(') {
                let args = self.call_args();
                e = Expr::Call { callee: Box::new(e), args, line };
                continue;
            }
            if self.is_punct(0, '[') {
                self.bump();
                let idx = self.expr(false);
                self.eat_punct(']');
                e = Expr::Index { recv: Box::new(e), index: Box::new(idx), line };
                continue;
            }
            break;
        }
        e
    }

    fn call_args(&mut self) -> Vec<Expr> {
        let mut args = Vec::new();
        self.eat_punct('(');
        while self.pos < self.toks.len() && !self.is_punct(0, ')') {
            args.push(self.expr(false));
            if !self.eat_punct(',') {
                break;
            }
        }
        self.eat_punct(')');
        args
    }

    fn expr_if(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // if
        if self.is_ident(0, "let") {
            self.skip_let_pattern();
        }
        let cond = self.expr(true);
        let then = self.block();
        let els = if self.is_ident(0, "else") {
            self.bump();
            Some(Box::new(if self.is_ident(0, "if") {
                self.expr_if()
            } else {
                Expr::Block(self.block())
            }))
        } else {
            None
        };
        Expr::If { cond: Box::new(cond), then, els, line }
    }

    fn expr_while(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // while
        if self.is_ident(0, "let") {
            self.skip_let_pattern();
        }
        let cond = self.expr(true);
        let body = self.block();
        Expr::While { cond: Box::new(cond), body, line }
    }

    fn expr_for(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // for
        // Skip the loop pattern to the depth-0 `in`.
        let start = self.pos;
        let mut depth = 0usize;
        while self.pos < self.toks.len() {
            match self.peek() {
                Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                Some(Tok::Punct(')' | ']' | '}')) => depth = depth.saturating_sub(1),
                Some(Tok::Ident(i)) if i == "in" && depth == 0 => break,
                _ => {}
            }
            self.bump();
        }
        self.opaque(start, self.pos);
        self.bump(); // in
        let iter = self.expr(true);
        let body = self.block();
        Expr::For { iter: Box::new(iter), body, line }
    }

    fn expr_match(&mut self) -> Expr {
        let line = self.line();
        self.bump(); // match
        let scrut = self.expr(true);
        let mut arms = Vec::new();
        if self.eat_punct('{') {
            while self.pos < self.toks.len() && !self.is_punct(0, '}') {
                // Pattern + optional guard, opaque, up to the depth-0 `=>`.
                let start = self.pos;
                let mut depth = 0usize;
                while self.pos < self.toks.len() {
                    match self.peek() {
                        Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                        Some(Tok::Punct(')' | ']')) => depth = depth.saturating_sub(1),
                        Some(Tok::Punct('}')) => {
                            if depth == 0 {
                                break; // stray close: end of match body
                            }
                            depth -= 1;
                        }
                        Some(Tok::Punct('=')) if depth == 0 && self.is_punct(1, '>') => break,
                        _ => {}
                    }
                    self.bump();
                }
                self.opaque(start, self.pos);
                if self.is_punct(0, '}') {
                    break;
                }
                self.bump(); // =
                self.bump(); // >
                arms.push(self.expr_stmt());
                self.eat_punct(',');
            }
            self.eat_punct('}');
        }
        Expr::Match { scrut: Box::new(scrut), arms, line }
    }

    /// Skip `let PATTERN =` inside `if let` / `while let` heads; stops
    /// just past the `=` (`..=` inside the pattern stays inside it).
    fn skip_let_pattern(&mut self) {
        self.bump(); // let
        let start = self.pos;
        let mut depth = 0usize;
        let mut prev_dot = false;
        while self.pos < self.toks.len() {
            match self.peek() {
                Some(Tok::Punct('(' | '[' | '{')) => depth += 1,
                Some(Tok::Punct(')' | ']' | '}')) => depth = depth.saturating_sub(1),
                Some(Tok::Punct('=')) if depth == 0 && !prev_dot && !self.is_punct(1, '=') => {
                    self.opaque(start, self.pos);
                    self.bump();
                    return;
                }
                _ => {}
            }
            prev_dot = matches!(self.peek(), Some(Tok::Punct('.')));
            self.bump();
        }
        self.opaque(start, self.pos);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_fns(src: &str) -> ParsedFile {
        parse(src)
    }

    #[test]
    fn fn_with_params_and_body() {
        let f = parse_fns("fn add(a: u64, b: u64) -> u64 { a + b }");
        assert_eq!(f.fns.len(), 1);
        assert_eq!(f.fns[0].name, "add");
        assert_eq!(f.fns[0].params.len(), 2);
        assert_eq!(f.fns[0].params[0].name.as_deref(), Some("a"));
        assert!(f.fns[0].params[0].ty.mentions("u64"));
        assert!(f.fns[0].body.is_some());
    }

    #[test]
    fn impl_methods_get_self_ty() {
        let f = parse_fns("struct S { x: RwLock<u32> } impl S { fn go(&mut self) { self.x.write(); } }");
        assert_eq!(f.structs.len(), 1);
        assert_eq!(f.structs[0].fields[0].0, "x");
        assert!(f.structs[0].fields[0].1.mentions("RwLock"));
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("S"));
        assert!(f.fns[0].takes_self);
    }

    #[test]
    fn method_chain_shapes() {
        let f = parse_fns("fn g(rng: &mut SimRng) { let x = rng.fork(3); x.unit(); }");
        let body = f.fns[0].body.as_ref().unwrap();
        let mut methods = Vec::new();
        walk_block(body, &mut |e| {
            if let Expr::Method { name, .. } = e {
                methods.push(name.clone());
            }
        });
        assert_eq!(methods, ["fork", "unit"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let f = parse_fns(
            "#[cfg(test)] mod t { fn a() {} }\nfn b() {}\n#[cfg(test)]\n#[allow(dead_code)]\nfn c() {}",
        );
        let by_name: Vec<(String, bool)> =
            f.fns.iter().map(|f| (f.name.clone(), f.in_test)).collect();
        assert_eq!(
            by_name,
            [("a".into(), true), ("b".into(), false), ("c".into(), true)]
        );
    }

    #[test]
    fn struct_lit_vs_block_in_if() {
        let f = parse_fns("fn f(c: bool) -> S { if c { S { v: 1 } } else { S { v: 2 } } }");
        let body = f.fns[0].body.as_ref().unwrap();
        let mut lits = 0;
        walk_block(body, &mut |e| {
            if matches!(e, Expr::StructLit { .. }) {
                lits += 1;
            }
        });
        assert_eq!(lits, 2);
    }

    #[test]
    fn macros_become_opaque_spans() {
        let f = parse_fns("fn f() { println!(\"{}\", HashMap::<u32,u32>::new().len()); }");
        assert!(!f.opaque.is_empty());
        // The macro args land in an opaque span covering HashMap.
        let covered = f.opaque.iter().any(|s| {
            f.tokens[s.start..s.end]
                .iter()
                .any(|t| matches!(&t.tok, Tok::Ident(i) if i == "HashMap"))
        });
        assert!(covered);
    }

    #[test]
    fn match_arms_parse_bodies() {
        let src = "fn f(x: Option<u32>) -> u32 { match x { Some(v) if v > 2 => v.min(9), None => 0, _ => h(), } }";
        let f = parse_fns(src);
        let body = f.fns[0].body.as_ref().unwrap();
        let mut calls = Vec::new();
        walk_block(body, &mut |e| match e {
            Expr::Call { callee, .. } => {
                if let Expr::Path(p, _) = callee.as_ref() {
                    calls.push(p.join("::"));
                }
            }
            Expr::Method { name, .. } => calls.push(format!(".{name}")),
            _ => {}
        });
        assert!(calls.contains(&".min".to_string()), "{calls:?}");
        assert!(calls.contains(&"h".to_string()), "{calls:?}");
    }

    #[test]
    fn index_and_field_shapes() {
        let f = parse_fns("fn f(&self) { let r = &self.dep.regions[0]; r.go(); }");
        let body = f.fns[0].body.as_ref().unwrap();
        let mut found = false;
        walk_block(body, &mut |e| {
            if let Expr::Index { recv, index, .. } = e {
                if matches!(index.as_ref(), Expr::LitInt(s, _) if s == "0") {
                    found = recv.place_key().as_deref() == Some("self.dep.regions");
                }
            }
        });
        assert!(found);
    }

    #[test]
    fn let_else_and_if_let() {
        let src = r"
            fn f(x: Option<u32>) -> u32 {
                let Some(v) = x else { return 0; };
                if let Some(w) = g(v) { w } else { v }
            }
        ";
        let f = parse_fns(src);
        assert_eq!(f.fns.len(), 1);
        let mut calls = 0;
        walk_block(f.fns[0].body.as_ref().unwrap(), &mut |e| {
            if matches!(e, Expr::Call { .. }) {
                calls += 1;
            }
        });
        assert_eq!(calls, 1);
    }

    fn fn_names(f: &ParsedFile) -> Vec<&str> {
        f.fns.iter().map(|f| f.name.as_str()).collect()
    }

    /// A block-bodied arm ends at its brace, and a bare `..` in what
    /// reads as a struct literal takes no base: the shape that once cost
    /// the parser a `}` and, with it, the rest of the file.
    #[test]
    fn block_arm_followed_by_a_tuple_pattern() {
        let src = "impl T { fn f(&self, v: (A, B)) -> R { match v { \
                   (A::X(x), B::P { .. }) => { g(x) } \
                   (_, B::P { .. }) => { return Err(E { at: 1 }) } \
                   (_, B::Q { .. }) => { return Err(E { at: 2 }) } } } \
                   fn g(&self) {} } fn after() {}";
        let f = parse_fns(src);
        assert_eq!(fn_names(&f), ["f", "g", "after"]);
        assert_eq!(f.fns[1].self_ty.as_deref(), Some("T"));
        assert_eq!(f.fns[2].self_ty, None);
        walk_block(f.fns[0].body.as_ref().unwrap(), &mut |e| {
            if let Expr::Call { callee, .. } = e {
                assert!(!matches!(callee.as_ref(), Expr::Block(_)), "block called");
            }
        });
        assert!(f.first_unscanned().is_none());
    }

    #[test]
    fn block_like_statement_ends_at_its_brace() {
        let f = parse_fns("fn f(c: bool, p: (u32, u32)) -> u32 { if c { return 0; } (p.0, p.1).1 }");
        let body = f.fns[0].body.as_ref().unwrap();
        assert_eq!(body.stmts.len(), 2);
        assert!(matches!(body.stmts[0], Stmt::Expr(Expr::If { .. })));
        // `.` still continues one, as in rustc.
        let f = parse_fns("fn f(x: Option<u32>) -> u32 { match x { Some(_) => 1, None => 0 }.min(3) }");
        let body = f.fns[0].body.as_ref().unwrap();
        assert!(matches!(&body.stmts[..], [Stmt::Expr(Expr::Method { name, .. })] if name == "min"));
    }

    #[test]
    fn stray_close_brace_does_not_end_the_parse() {
        let f = parse_fns("fn a() {} } } fn b() { HashMap::new(); }");
        assert_eq!(fn_names(&f), ["a", "b"]);
        assert!(f.first_unscanned().is_none());
    }

    #[test]
    fn coverage_reports_the_first_token_nothing_claims() {
        let mut f = parse_fns("fn a() {}\nuse x::y;\nfn b() {}");
        assert!(f.first_unscanned().is_none());
        f.opaque.clear(); // forget the `use` item's span
        assert_eq!(f.first_unscanned().map(|t| t.line), Some(2));
    }

    #[test]
    fn parser_is_total_on_junk() {
        // Never panics, always terminates, never drops a token.
        for junk in [
            "} } ) ] fn",
            "fn f( { } }",
            "impl for for {",
            "match { => , }",
            "let = = ;",
            "fn f() { x.. }",
        ] {
            let f = parse(junk);
            assert!(f.first_unscanned().is_none(), "{junk:?}: {:?}", f.first_unscanned());
        }
    }

    #[test]
    fn item_unsafe_is_recorded() {
        let f = parse_fns("unsafe fn scary() {} #[cfg(test)] unsafe fn test_only() {}");
        assert_eq!(f.item_unsafe.len(), 2);
        assert!(!f.item_unsafe[0].1);
        assert!(f.item_unsafe[1].1);
    }
}
