//! The item shaper and body trees of the determinism lint.
//!
//! Two things are read out of a token stream here, and neither involves
//! an expression grammar:
//!
//! * **Items.** Functions with typed params, structs with typed fields,
//!   `type` aliases, the `impl`/`trait`/`mod` nesting around them, and
//!   which token ranges sit under `#[cfg(test)]`. Every other item kind
//!   (`use`, `const`, `enum`, `macro_rules!`, …) is stepped over: the
//!   pattern rules of `lib.rs` read its tokens directly.
//! * **Bodies.** A function body is a *delimiter tree*: nested `()`, `[]`
//!   and `{}` groups over token indices, brace groups split into
//!   statements (`let [mut] name [: T] …;`, nested items, `#[cfg(test)]`
//!   statements, everything else). The semantic walk (`semantic.rs`) reads
//!   calls and guards off it.
//!
//! Brackets always balance in code that compiles, so a tree cannot
//! mis-nest on an operator, a pattern or a macro argument: there is no
//! operator, precedence, struct-literal or closure rule to get wrong. No
//! `syn`, no `proc-macro2`: the workspace is hermetic (DESIGN.md).
//!
//! **Totality.** The shaper never fails and never panics; a closer that
//! nothing opened is stepped over and shaping goes on behind it.

use crate::lexer::{lex, Tok, Token};

/// A type as the lint sees it: the identifiers it mentions (lock
/// lookups).
pub type Ty = Vec<String>;

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
    pub takes_self: bool,
    pub params: Vec<Param>,
    pub body: Option<Group>,
    pub line: u32,
    pub in_test: bool,
}

#[derive(Debug, Clone)]
pub struct StructDef {
    pub name: String,
    /// Named or tuple fields; tuple fields are named `"0"`, `"1"`, ….
    pub fields: Vec<(String, Ty)>,
    pub in_test: bool,
}

/// One node of a body tree: a token (index into [`ParsedFile::tokens`])
/// or a bracketed group.
#[derive(Debug, Clone)]
pub enum Node {
    Tok(usize),
    Group(Group),
}

/// A `()`, `[]` or `{}` group. `open` and `close` index its delimiters
/// (`close` is the token count when the file ends first). A brace group
/// holds one [`Stmt`] per statement, the other two exactly one.
#[derive(Debug, Clone)]
pub struct Group {
    pub delim: char,
    pub open: usize,
    pub close: usize,
    pub stmts: Vec<Stmt>,
}

/// The nodes of one statement, its `;` included. Nested items and
/// `#[cfg(test)]` statements are not in the tree: the former are shaped
/// into [`ParsedFile::fns`], the latter into [`ParsedFile::test_spans`].
#[derive(Debug, Clone)]
pub struct Stmt {
    /// `let [mut] name [: T]` with a plain name; `None` for any other
    /// statement and for `let` with a pattern.
    pub binds: Option<(String, Option<Ty>)>,
    pub nodes: Vec<Node>,
}

/// Everything the lint extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct ParsedFile {
    /// Code tokens, in order.
    pub tokens: Vec<Token>,
    pub fns: Vec<FnDef>,
    pub structs: Vec<StructDef>,
    /// `type Name = …;` items, as `(name, aliased type, in_test)`.
    pub aliases: Vec<(String, Ty, bool)>,
    /// Token ranges `[start, end)` of `#[cfg(test)]` items and statements,
    /// outermost only, in order: what the pattern rules do not read.
    pub test_spans: Vec<(usize, usize)>,
    /// How far the shaper's cursor got.
    pub reached: usize,
}

impl ParsedFile {
    /// The token the shaper stopped at, if it did not reach the end of the
    /// file: everything behind it is in no item. `None` is the coverage
    /// invariant `tests/lint_gate.rs` holds the live workspace to.
    pub fn first_unscanned(&self) -> Option<&Token> {
        self.tokens.get(self.reached)
    }
}

/// Keywords after which a `(` or `[` opens an expression, pattern or type
/// of its own instead of applying to what stands before it: `if (a)` is
/// no call and `return [0]` no index.
pub fn is_keyword(word: &str) -> bool {
    const KEYWORDS: &[&str] = &[
        "as", "break", "const", "dyn", "else", "fn", "for", "if", "impl", "in", "let", "loop",
        "match", "move", "mut", "ref", "return", "static", "unsafe", "where", "while", "yield",
    ];
    KEYWORDS.contains(&word)
}

/// Shape a source file. Never fails; see the module docs.
pub fn parse(src: &str) -> ParsedFile {
    let tokens = lex(src);
    let mut p = Parser {
        toks: &tokens,
        pos: 0,
        out: ParsedFile::default(),
        in_test: false,
        self_ty: None,
    };
    while p.pos < tokens.len() {
        p.items();
        // A `}` nothing opened: shaping goes on behind it.
        p.bump();
    }
    let mut out = p.out;
    out.reached = p.pos.min(tokens.len());
    out.tokens = tokens;
    out
}

struct Parser<'a> {
    toks: &'a [Token],
    pos: usize,
    out: ParsedFile,
    in_test: bool,
    self_ty: Option<String>,
}

impl<'a> Parser<'a> {
    // ------------------------------------------------------- token utils

    fn peek_at(&self, off: usize) -> Option<&'a Tok> {
        self.toks.get(self.pos + off).map(|t| &t.tok)
    }

    fn peek(&self) -> Option<&'a Tok> {
        self.peek_at(0)
    }

    fn bump(&mut self) {
        self.pos += 1;
    }

    fn is_punct(&self, off: usize, c: char) -> bool {
        matches!(self.peek_at(off), Some(Tok::Punct(p)) if *p == c)
    }

    fn is_ident(&self, off: usize, s: &str) -> bool {
        self.ident(off) == Some(s)
    }

    fn ident(&self, off: usize) -> Option<&'a str> {
        match self.peek_at(off) {
            Some(Tok::Ident(i)) => Some(i.as_str()),
            _ => None,
        }
    }

    fn eat_punct(&mut self, c: char) -> bool {
        let hit = self.is_punct(0, c);
        if hit {
            self.bump();
        }
        hit
    }

    fn eat_ident(&mut self) -> Option<String> {
        let name = self.ident(0)?.to_string();
        self.bump();
        Some(name)
    }

    fn at_open(&self) -> bool {
        matches!(self.peek(), Some(Tok::Punct('(' | '[' | '{')))
    }

    fn at_close(&self) -> bool {
        matches!(self.peek(), None | Some(Tok::Punct(')' | ']' | '}')))
    }

    /// Step over one balanced `(`/`[`/`{` group starting at the current
    /// token; leaves `pos` just past the matching close.
    fn skip_group(&mut self) {
        let mut depth = 0usize;
        while let Some(tok) = self.peek() {
            self.bump();
            match tok {
                Tok::Punct('(' | '[' | '{') => depth += 1,
                Tok::Punct(')' | ']' | '}') => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        return;
                    }
                }
                _ => {}
            }
        }
    }

    /// Step over a `<…>` generic group (current token is `<`). `->` inside
    /// (`Fn() -> T`) does not close it.
    fn skip_angles(&mut self) {
        let mut depth = 0i32;
        let mut prev_minus = false;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') if !prev_minus => {
                    depth -= 1;
                    if depth <= 0 {
                        self.bump();
                        return;
                    }
                }
                Tok::Punct('(' | '[') => {
                    self.skip_group();
                    prev_minus = false;
                    continue;
                }
                _ => {}
            }
            prev_minus = matches!(tok, Tok::Punct('-'));
            self.bump();
        }
    }

    /// Step to the `{` or `;` that ends an item header (generics, bounds
    /// and `where` clauses in between are nobody's business here).
    fn skip_header(&mut self) {
        while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, ';') {
            if self.is_punct(0, '<') {
                self.skip_angles();
            } else if self.is_punct(0, '(') || self.is_punct(0, '[') {
                self.skip_group();
            } else {
                self.bump();
            }
        }
    }

    /// Step over `#[…]` / `#![…]` attributes; whether one of them is a
    /// `cfg` that names `test`.
    fn attrs(&mut self) -> bool {
        let mut test = false;
        while self.is_punct(0, '#') && (self.is_punct(1, '[') || (self.is_punct(1, '!') && self.is_punct(2, '['))) {
            let start = self.pos;
            self.pos += if self.is_punct(1, '[') { 1 } else { 2 };
            let is_cfg = self.is_ident(1, "cfg");
            self.skip_group();
            let names_test = |t: &Token| matches!(&t.tok, Tok::Ident(i) if i == "test");
            test |= is_cfg && self.toks[start..self.pos.min(self.toks.len())].iter().any(names_test);
        }
        test
    }

    /// Run `shape` over the item or statement whose attributes began at
    /// token `start`, as test code when `attr_test` says so.
    fn gated<T>(&mut self, start: usize, attr_test: bool, shape: impl FnOnce(&mut Self) -> T) -> T {
        let outer = self.in_test;
        self.in_test = outer || attr_test;
        let shaped = shape(self);
        self.in_test = outer;
        if attr_test && !outer {
            self.out.test_spans.push((start, self.pos.min(self.toks.len())));
        }
        shaped
    }

    // ------------------------------------------------------------- types

    /// Read a type, stopping at a depth-0 `,` `;` `=` `{` or closer.
    fn ty(&mut self) -> Ty {
        let mut ty = Ty::default();
        let mut depth = 0i32;
        let mut prev_minus = false;
        while let Some(tok) = self.peek() {
            match tok {
                Tok::Punct(',' | ';' | '{' | '=' | ')' | ']') if depth == 0 => break,
                Tok::Punct('}') => break,
                // `->` in fn-pointer types is an arrow, not a closer.
                Tok::Punct('>') if prev_minus => {}
                Tok::Punct('>') if depth == 0 => break,
                Tok::Punct('<' | '(' | '[') => depth += 1,
                Tok::Punct('>' | ')' | ']') => depth -= 1,
                Tok::Ident(i) => ty.push(i.clone()),
                _ => {}
            }
            prev_minus = matches!(tok, Tok::Punct('-'));
            self.bump();
        }
        ty
    }

    // ------------------------------------------------------------- items

    /// Shape items up to a `}` at this nesting level (or the end).
    fn items(&mut self) {
        while self.pos < self.toks.len() && !self.is_punct(0, '}') {
            let before = self.pos;
            self.item();
            if self.pos == before {
                // Nothing an item starts with: step over one token.
                self.bump();
            }
        }
    }

    fn item(&mut self) {
        let start = self.pos;
        let attr_test = self.attrs();
        self.gated(start, attr_test, Self::item_after_attrs);
    }

    /// Whether the current token starts an item where a statement could
    /// start too (`unsafe {`, `const {` and a local named `type` do not).
    fn starts_item(&self) -> bool {
        match self.ident(0) {
            Some("unsafe") => self.ident(1).is_some(),
            Some(
                "pub" | "fn" | "struct" | "enum" | "impl" | "trait" | "mod" | "use" | "extern"
                | "static",
            ) => true,
            Some("const") => !self.is_punct(1, '{'),
            Some("type" | "union") => self.ident(1).is_some(),
            Some("async") => self.is_ident(1, "fn"),
            Some("macro_rules") => self.is_punct(1, '!'),
            _ => false,
        }
    }

    fn item_after_attrs(&mut self) {
        // Modifiers before the item keyword.
        loop {
            match self.ident(0) {
                Some("pub") => {
                    self.bump();
                    if self.is_punct(0, '(') {
                        self.skip_group();
                    }
                }
                Some("async" | "default" | "unsafe" | "const") if self.ident(1).is_some() && !self.is_punct(2, ':') => {
                    self.bump()
                }
                Some("extern") if matches!(self.peek_at(1), Some(Tok::Str)) && self.is_ident(2, "fn") => {
                    self.pos += 2
                }
                _ => break,
            }
        }
        match self.ident(0) {
            Some("fn") => self.item_fn(),
            Some("struct") => self.item_struct(),
            Some("impl") => self.item_impl(),
            Some("trait") => self.item_trait(),
            Some("mod") => self.item_mod(),
            Some("type") => {
                self.bump();
                let name = self.eat_ident();
                if self.is_punct(0, '<') {
                    self.skip_angles();
                }
                if let (Some(name), true) = (name, self.eat_punct('=')) {
                    let ty = self.ty();
                    self.out.aliases.push((name, ty, self.in_test));
                }
                self.skip_item(false);
            }
            Some("use" | "const" | "static") => self.skip_item(false),
            // `enum`, `union`, `extern { … }`, `macro_rules! name { … }` and
            // any other item-level macro call.
            Some(kw) if self.is_punct(1, '!') || matches!(kw, "enum" | "union" | "extern") => {
                self.skip_item(true)
            }
            _ => {}
        }
    }

    /// Step over an item nothing here reads: to its depth-0 `;`, or, for
    /// the kinds that end in a body, past that body.
    fn skip_item(&mut self, ends_at_brace: bool) {
        while !self.at_close() {
            if self.eat_punct(';') {
                return;
            }
            let brace = self.is_punct(0, '{');
            if self.at_open() {
                self.skip_group();
                if brace && ends_at_brace {
                    return;
                }
            } else {
                self.bump();
            }
        }
    }

    fn item_fn(&mut self) {
        let line = self.toks[self.pos].line;
        self.bump(); // fn
        let Some(name) = self.eat_ident() else { return };
        if self.is_punct(0, '<') {
            self.skip_angles();
        }
        let mut params = Vec::new();
        let mut takes_self = false;
        if self.eat_punct('(') {
            while !self.at_close() {
                self.attrs();
                // `self` receivers: `self`, `&self`, `&'a mut self`, `mut self`.
                let mut off = 0;
                while self.is_punct(off, '&') {
                    off += 1;
                }
                off += usize::from(matches!(self.peek_at(off), Some(Tok::Lifetime(_))));
                off += usize::from(self.is_ident(off, "mut"));
                if self.is_ident(off, "self") {
                    takes_self = true;
                    self.pos += off + 1;
                }
                // A plain `[mut] name :` keeps the name; a pattern does not.
                if self.is_ident(0, "mut") {
                    self.bump();
                }
                let pname = if self.is_punct(1, ':') { self.eat_ident() } else { None };
                while !self.is_punct(0, ':') && !self.is_punct(0, ',') && !self.at_close() {
                    if self.at_open() {
                        self.skip_group();
                    } else {
                        self.bump();
                    }
                }
                if self.eat_punct(':') {
                    let ty = self.ty();
                    params.push(Param { name: pname, ty });
                }
                self.eat_punct(',');
            }
            self.eat_punct(')');
        }
        self.skip_header(); // return type and `where` clause
        let body = if self.is_punct(0, '{') {
            Some(self.group())
        } else {
            self.eat_punct(';');
            None
        };
        self.out.fns.push(FnDef {
            name,
            self_ty: self.self_ty.clone(),
            takes_self,
            params,
            body,
            line,
            in_test: self.in_test,
        });
    }

    fn item_struct(&mut self) {
        self.bump(); // struct
        let Some(name) = self.eat_ident() else { return };
        if self.is_punct(0, '<') {
            self.skip_angles();
        }
        while !self.at_open() && !self.is_punct(0, ';') && !self.at_close() {
            // `where` clause of a braced struct.
            if self.is_punct(0, '<') {
                self.skip_angles();
            } else {
                self.bump();
            }
        }
        let mut fields = Vec::new();
        let tuple = self.is_punct(0, '(');
        if self.at_open() {
            self.bump();
            while !self.at_close() {
                self.attrs();
                if self.is_ident(0, "pub") {
                    self.bump();
                    if self.is_punct(0, '(') {
                        self.skip_group();
                    }
                }
                let fname = if tuple {
                    Some(fields.len().to_string())
                } else {
                    self.eat_ident().filter(|_| self.eat_punct(':'))
                };
                if let Some(fname) = fname {
                    fields.push((fname, self.ty()));
                }
                if !self.eat_punct(',') && !self.at_close() {
                    self.bump(); // recovery inside the field list
                }
            }
            self.bump();
            // Tuple structs end in `;`, after an optional `where` clause.
            if tuple {
                self.skip_header();
            }
        }
        self.eat_punct(';');
        self.out.structs.push(StructDef { name, fields, in_test: self.in_test });
    }

    /// The `{ items }` body of an `impl`, `trait` or `mod` (or the `;` of
    /// a body-less one).
    fn item_body(&mut self) {
        if self.eat_punct('{') {
            self.items();
            self.eat_punct('}');
        } else {
            self.eat_punct(';');
        }
    }

    fn item_impl(&mut self) {
        self.bump(); // impl
        if self.is_punct(0, '<') {
            self.skip_angles();
        }
        // `impl Type {` or `impl Trait for Type {` — the self type is the
        // last path segment before the body (after `for` when present).
        let mut last_seg: Option<String> = None;
        while self.pos < self.toks.len() && !self.is_punct(0, '{') && !self.is_punct(0, ';') {
            if self.is_ident(0, "where") {
                self.skip_header();
            } else if self.is_punct(0, '<') {
                self.skip_angles();
            } else {
                if let Some(i) = self.ident(0) {
                    last_seg = (i != "for").then(|| i.to_string());
                }
                self.bump();
            }
        }
        let saved = std::mem::replace(&mut self.self_ty, last_seg);
        self.item_body();
        self.self_ty = saved;
    }

    fn item_trait(&mut self) {
        self.bump(); // trait
        let name = self.eat_ident();
        self.skip_header();
        let saved = std::mem::replace(&mut self.self_ty, name);
        self.item_body();
        self.self_ty = saved;
    }

    fn item_mod(&mut self) {
        self.bump(); // mod
        self.eat_ident();
        self.item_body();
    }

    // ------------------------------------------------------- body trees

    /// Shape the group that opens at the current token.
    fn group(&mut self) -> Group {
        let open = self.pos;
        let delim = match self.peek() {
            Some(Tok::Punct(c)) => *c,
            _ => '{',
        };
        self.bump();
        let mut stmts = Vec::new();
        if delim == '{' {
            while !self.at_close() {
                if self.eat_punct(';') {
                    continue;
                }
                let start = self.pos;
                let attr_test = self.attrs();
                let stmt = self.gated(start, attr_test, |p| {
                    if p.starts_item() {
                        p.item_after_attrs();
                        None
                    } else {
                        Some(p.stmt(true)).filter(|_| !p.in_test)
                    }
                });
                stmts.extend(stmt);
                if self.pos == start {
                    self.bump(); // an item keyword no item follows
                }
            }
        } else {
            stmts.push(self.stmt(false));
        }
        let close = self.pos.min(self.toks.len());
        self.bump(); // the closer, whichever it is
        Group { delim, open, close, stmts }
    }

    /// The nodes from the current token to the enclosing group's closer
    /// or, `in_block`, to the end of the statement: through its `;`, or
    /// through a brace group that neither a `let` nor an `else`, `.` or
    /// `?` carries on (`if c { … }` is a statement, as in rustc; cutting a
    /// statement short only lets its temporaries go early).
    fn stmt(&mut self, in_block: bool) -> Stmt {
        let is_let = in_block && self.is_ident(0, "let");
        let mut binds = None;
        if is_let {
            let off = 1 + usize::from(self.is_ident(1, "mut"));
            let typed = self.is_punct(off + 1, ':') && !self.is_punct(off + 2, ':');
            let plain = typed || self.is_punct(off + 1, '=') || self.is_punct(off + 1, ';');
            if let (Some(name), true) = (self.ident(off), plain) {
                let ty = typed.then(|| {
                    let at = self.pos;
                    self.pos += off + 2;
                    let ty = self.ty();
                    self.pos = at;
                    ty
                });
                binds = Some((name.to_string(), ty));
            }
        }
        let mut nodes = Vec::new();
        while !self.at_close() {
            if self.at_open() {
                let group = self.group();
                let ends = in_block && !is_let && group.delim == '{' && !self.continues_block();
                nodes.push(Node::Group(group));
                if ends {
                    break;
                }
            } else {
                nodes.push(Node::Tok(self.pos));
                self.bump();
                if in_block && self.toks[self.pos - 1].tok == Tok::Punct(';') {
                    break;
                }
            }
        }
        Stmt { binds, nodes }
    }

    /// Whether the token after a `}` carries the statement on.
    fn continues_block(&self) -> bool {
        self.is_ident(0, "else") || self.is_punct(0, '?') || (self.is_punct(0, '.') && !self.is_punct(1, '.'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fn_names(f: &ParsedFile) -> Vec<&str> {
        f.fns.iter().map(|f| f.name.as_str()).collect()
    }

    /// The statements of `f`'s body, each rendered as its top-level
    /// tokens with groups abbreviated to their delimiters.
    fn stmts_of(file: &ParsedFile, f: &FnDef) -> Vec<String> {
        let render = |s: &Stmt| {
            let words: Vec<String> = s
                .nodes
                .iter()
                .map(|n| match n {
                    Node::Tok(i) => match &file.tokens[*i].tok {
                        Tok::Ident(w) | Tok::Int(w) | Tok::Float(w) => w.clone(),
                        Tok::Punct(c) => c.to_string(),
                        other => format!("{other:?}"),
                    },
                    Node::Group(g) => format!("{}…", g.delim),
                })
                .collect();
            words.join(" ")
        };
        f.body.as_ref().map(|b| b.stmts.iter().map(render).collect()).unwrap_or_default()
    }

    #[test]
    fn fn_with_params_and_body() {
        let f = parse("fn add(a: u64, (b, c): (u64, u64)) -> u64 { a + b }");
        assert_eq!(fn_names(&f), ["add"]);
        assert_eq!(f.fns[0].params.len(), 2);
        assert_eq!(f.fns[0].params[0].name.as_deref(), Some("a"));
        assert_eq!(f.fns[0].params[0].ty, ["u64"]);
        assert_eq!(f.fns[0].params[1].name, None);
        assert_eq!(stmts_of(&f, &f.fns[0]), ["a + b"]);
    }

    #[test]
    fn impl_methods_get_self_ty() {
        let f = parse("struct S { x: RwLock<u32> } impl Tr for S { fn go(&mut self) { self.x.write(); } } struct T(pub [u8; 4], Mutex<u8>);");
        assert_eq!(f.structs[0].fields[0].0, "x");
        assert_eq!(f.structs[0].fields[0].1, ["RwLock", "u32"]);
        assert_eq!(f.fns[0].self_ty.as_deref(), Some("S"));
        assert!(f.fns[0].takes_self);
        let tuple: Vec<&str> = f.structs[1].fields.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(tuple, ["0", "1"]);
        assert_eq!(f.structs[1].fields[1].1, ["Mutex", "u8"]);
    }

    #[test]
    fn cfg_test_fns_are_marked() {
        let f = parse(
            "#[cfg(test)] mod t { fn a() {} }\nfn b() {}\n#[cfg(test)]\n#[allow(dead_code)]\nfn c() {}",
        );
        let by_name: Vec<(&str, bool)> = f.fns.iter().map(|f| (f.name.as_str(), f.in_test)).collect();
        assert_eq!(by_name, [("a", true), ("b", false), ("c", true)]);
        assert_eq!(f.test_spans.len(), 2, "outermost spans only: {:?}", f.test_spans);
    }

    #[test]
    fn modifiers_do_not_hide_functions() {
        let f = parse("pub(crate) const fn a() {} pub unsafe extern \"C\" fn b() {} const N: [fn(); 1] = [a]; async fn c() {}");
        assert_eq!(fn_names(&f), ["a", "b", "c"]);
    }

    #[test]
    fn type_aliases_are_shaped() {
        let f = parse("pub type Shared<T> = Arc<RwLock<T>>; impl It for X { type Item = u32; fn f() {} }");
        let names: Vec<&str> = f.aliases.iter().map(|(n, ..)| n.as_str()).collect();
        assert_eq!(names, ["Shared", "Item"]);
        assert_eq!(f.aliases[0].1, ["Arc", "RwLock", "T"]);
        assert_eq!(fn_names(&f), ["f"]);
    }

    #[test]
    fn statements_split_at_semicolons_and_block_ends() {
        let f = parse(
            "fn f(c: bool, p: (u32, u32)) -> u32 { if c { return 0; } else { g(); } let mut s: [u64; 4] = [0; 4]; \
             let (a, b) = p; match c { true => {} false => {} }.min(3); (p.0, p.1).1 }",
        );
        assert_eq!(
            stmts_of(&f, &f.fns[0]),
            [
                "if c {… else {…",
                "let mut s : [… = [… ;",
                "let (… = p ;",
                "match c {… . min (… ;",
                "(… . 1",
            ]
        );
        let body = f.fns[0].body.as_ref().unwrap();
        let binds: Vec<Option<&str>> =
            body.stmts.iter().map(|s| s.binds.as_ref().map(|(n, _)| n.as_str())).collect();
        assert_eq!(binds, [None, Some("s"), None, None, None]);
    }

    #[test]
    fn nested_items_and_test_statements_leave_the_tree() {
        let f = parse("fn outer() { fn inner() { let a: [u8; 2] = [0; 2]; } #[cfg(test)] check(); inner(); }");
        assert_eq!(fn_names(&f), ["inner", "outer"]);
        assert_eq!(stmts_of(&f, &f.fns[1]), ["inner (… ;"]);
        assert_eq!(f.test_spans.len(), 1);
    }

    /// The shape that once cost the v2 parser a `}` and, with it, the rest
    /// of the file: nothing here reads patterns, so nothing can.
    #[test]
    fn block_arm_followed_by_a_tuple_pattern() {
        let src = "impl T { fn f(&self, v: (A, B)) -> R { match v { \
                   (A::X(x), B::P { .. }) => { g(x) } \
                   (_, B::P { .. }) => { return Err(E { at: 1 }) } } } \
                   fn g(&self) {} } fn after() {}";
        let f = parse(src);
        assert_eq!(fn_names(&f), ["f", "g", "after"]);
        assert_eq!(f.fns[1].self_ty.as_deref(), Some("T"));
        assert_eq!(f.fns[2].self_ty, None);
    }

    #[test]
    fn shaper_is_total_on_junk() {
        // Never panics, always terminates, always reaches the end.
        for junk in [
            "} } ) ] fn",
            "fn f( { } }",
            "fn f() { ( } ] fn g() {}",
            "impl for for {",
            "struct S { a: , : u8 ) }",
            "let = = ;",
            "fn f() { x.. }",
            "fn a() {} } } fn b() { HashMap::new(); }",
            "#[cfg(test",
            "type = ; type X",
        ] {
            let f = parse(junk);
            assert!(f.first_unscanned().is_none(), "{junk:?}: {:?}", f.first_unscanned());
        }
        assert_eq!(fn_names(&parse("fn a() {} } } fn b() {}")), ["a", "b"]);
    }
}
