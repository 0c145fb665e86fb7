//! Workspace semantic analysis: symbol table, conservative call graph,
//! and the D6 (same-lock re-entry) rule engine.
//!
//! A function body arrives as a delimiter tree (`parser.rs`) and one
//! recursive walk reads two things off it, neither of which needs an
//! expression grammar: **calls** — an identifier followed by a `(…)`
//! group, `path(` or `.name(`, the latter with the `ident(.ident)*` run to
//! its left as the receiver's place key; each is recorded when the walk
//! leaves its closing paren, so effects keep the order receiver →
//! arguments → call — and **guards** — `let g = place.read();` binds one
//! to its block, `drop(g)` ends it, any other acquisition lasts for its
//! statement.
//!
//! Everything here is deliberately *conservative* (DESIGN.md §5c): a lock
//! acquisition only counts when the receiver resolves to a field whose
//! declared type names `RwLock`/`Mutex` or a `type` alias of one (or a
//! local bound to one), and a call edge only exists when the callee name
//! resolves to exactly one function in the workspace. Unresolvable
//! receivers and ambiguous names are dropped — the analysis can miss
//! hazards (false negatives are documented) but a reported re-entry is
//! real modulo name collisions.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{Tok, Token};
use crate::parser::{is_keyword, Group, Node, ParsedFile, Stmt};
use crate::{RuleId, Violation};

const LOCK_ACQUIRE: &[&str] = &["read", "write", "lock"];

/// What the semantic walk saw in one scan; `scalewall-lint --workspace`
/// prints it and `tests/lint_gate.rs` holds the live tree to floors.
#[derive(Debug, Clone, Default)]
pub struct Census {
    pub fns_walked: usize,
    /// Every lock identity some function acquires directly.
    pub lock_ids: BTreeSet<String>,
    pub calls_under_lock: usize,
}

/// A call site the cross-file pass may resolve into the call graph.
#[derive(Debug, Clone)]
struct CallSite {
    callee: Callee,
    /// Locks held at the moment of the call.
    held: BTreeSet<String>,
    line: u32,
}

#[derive(Debug, Clone)]
enum Callee {
    /// Free function (or associated fn) called by bare name.
    Free(String),
    /// Method call `recv.name(…)`; `on_self` is the caller's impl type
    /// when the receiver is `self`.
    Method { name: String, on_self: Option<String> },
}

/// Per-function facts extracted in the per-file phase.
#[derive(Debug, Clone)]
pub(crate) struct FnFacts {
    name: String,
    self_ty: Option<String>,
    takes_self: bool,
    line: u32,
    direct_acqs: BTreeSet<String>,
    calls: Vec<CallSite>,
    /// Same-lock nested acquires within the function, already final.
    local: Vec<Violation>,
}

/// The workspace struct index: field lock-ness and field types by struct
/// name (name collisions merge conservatively; see DESIGN.md §5c).
#[derive(Default)]
struct StructIndex {
    /// `type` aliases of something that names `RwLock`/`Mutex`.
    lock_aliases: BTreeSet<String>,
    lock_fields: BTreeMap<String, BTreeSet<String>>,
    field_types: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

impl StructIndex {
    fn is_lock(&self, idents: &[String]) -> bool {
        idents.iter().any(|i| i == "RwLock" || i == "Mutex" || self.lock_aliases.contains(i))
    }
}

/// Per-file step, run once every file's struct index exists so a
/// function can resolve fields of structs declared in *other* files.
fn extract_fns(parsed: &ParsedFile, index: &StructIndex) -> Vec<FnFacts> {
    let mut out = Vec::new();
    for f in &parsed.fns {
        if f.in_test {
            continue;
        }
        let Some(body) = &f.body else { continue };
        let mut w = FnWalk {
            facts: FnFacts {
                name: f.name.clone(),
                self_ty: f.self_ty.clone(),
                takes_self: f.takes_self,
                line: f.line,
                direct_acqs: BTreeSet::new(),
                calls: Vec::new(),
                local: Vec::new(),
            },
            toks: &parsed.tokens,
            index,
            local_tys: BTreeMap::new(),
            scopes: vec![Vec::new()],
        };
        for p in &f.params {
            if let Some(name) = &p.name {
                w.local_tys.insert(name.clone(), p.ty.clone());
            }
        }
        w.group(body);
        out.push(w.facts);
    }
    out
}

/// What a `(…)` group is applied to: `name(`, `q::name(` or `.name(`.
struct Applied<'a> {
    name: &'a str,
    /// Where `name` stands among the statement's nodes.
    at: usize,
    line: u32,
    method: bool,
    /// `q` of `q::name(`.
    qualifier: Option<&'a str>,
}

struct FnWalk<'a> {
    facts: FnFacts,
    toks: &'a [Token],
    index: &'a StructIndex,
    /// Local/param name → type idents (from annotations and lock inits).
    local_tys: BTreeMap<String, Vec<String>>,
    /// Stack of lock scopes; each holds `(lock id, guard name)` — guard
    /// `None` means transient (released at end of statement).
    scopes: Vec<Vec<(String, Option<String>)>>,
}

impl<'a> FnWalk<'a> {
    // ------------------------------------------------ reading the tree

    /// The token `back` nodes to the left of `nodes[at]`, if that node is
    /// one.
    fn tok(&self, nodes: &[Node], at: usize, back: usize) -> Option<&'a Tok> {
        match nodes.get(at.checked_sub(back)?)? {
            Node::Tok(t) => Some(&self.toks[*t].tok),
            Node::Group(_) => None,
        }
    }

    fn punct(&self, nodes: &[Node], at: usize, back: usize, c: char) -> bool {
        self.tok(nodes, at, back) == Some(&Tok::Punct(c))
    }

    /// `::` ends just left of `nodes[at]`.
    fn path_sep(&self, nodes: &[Node], at: usize) -> bool {
        self.punct(nodes, at, 1, ':') && self.punct(nodes, at, 2, ':')
    }

    /// `.` (and not `..`) stands just left of `nodes[at]`.
    fn dot(&self, nodes: &[Node], at: usize) -> bool {
        self.punct(nodes, at, 1, '.') && !self.punct(nodes, at, 2, '.')
    }

    /// What the `(…)` group at `nodes[group]` is applied to, if anything:
    /// a keyword (`if (a)`), a macro's `!`, another group or an operator
    /// in front of it make it a parenthesised expression, not a call.
    fn applied(&self, nodes: &[Node], group: usize) -> Option<Applied<'a>> {
        let mut end = group;
        if self.punct(nodes, end, 1, '>') {
            // Turbofish: `name::<T>(…)`.
            let mut depth = 0usize;
            loop {
                end = end.checked_sub(1)?;
                match self.tok(nodes, end, 0) {
                    Some(Tok::Punct('>')) => depth += 1,
                    Some(Tok::Punct('<')) if depth == 1 => break,
                    Some(Tok::Punct('<')) => depth -= 1,
                    _ => {}
                }
            }
            if !self.path_sep(nodes, end) {
                return None;
            }
            end -= 2;
        }
        let at = end.checked_sub(1)?;
        let Node::Tok(t) = nodes[at] else { return None };
        let Tok::Ident(name) = &self.toks[t].tok else { return None };
        if is_keyword(name) {
            return None;
        }
        let qualifier = match self.tok(nodes, at, 3) {
            Some(Tok::Ident(q)) if self.path_sep(nodes, at) => Some(q.as_str()),
            _ => None,
        };
        Some(Applied { name, at, line: self.toks[t].line, method: self.dot(nodes, at), qualifier })
    }

    /// A stable textual key for the place expression that ends just left
    /// of `nodes[end]`: `lock`, `self.catalog`, `x.store`, with `?` read
    /// through. `None` for anything computed (`f().x`, `(a).b`, `v[i].m`).
    fn place_key(&self, nodes: &[Node], mut end: usize) -> Option<String> {
        let mut parts: Vec<&str> = Vec::new();
        loop {
            while self.punct(nodes, end, 1, '?') {
                end -= 1;
            }
            match self.tok(nodes, end, 1)? {
                Tok::Ident(s) | Tok::Int(s) | Tok::Float(s) => parts.push(s),
                _ => return None,
            }
            end -= 1;
            if self.dot(nodes, end) {
                parts.push(".");
                end -= 1;
            } else if self.path_sep(nodes, end) {
                parts.push("::");
                end -= 2;
            } else {
                parts.reverse();
                return Some(parts.concat());
            }
        }
    }

    // ------------------------------------------------------ lock state

    fn held(&self) -> BTreeSet<String> {
        self.scopes
            .iter()
            .flat_map(|s| s.iter().map(|(l, _)| l.clone()))
            .collect()
    }

    /// Resolve a lock-acquire receiver to a stable lock identity.
    fn lock_of(&self, key: &str) -> Option<String> {
        let lock_fields = &self.index.lock_fields;
        let parts: Vec<&str> = key.split('.').collect();
        let (owner, field) = match parts.as_slice() {
            // `self.field`
            ["self", field] => (self.facts.self_ty.as_deref()?, field),
            // Bare local or param of lock type.
            [name] => {
                // Function-scoped identity: a local lock in one function
                // is never the same object as anyone else's.
                let qual = self.facts.self_ty.as_deref().unwrap_or("<free>");
                return self
                    .index
                    .is_lock(self.local_tys.get(*name)?)
                    .then(|| format!("{qual}::{}::{name}", self.facts.name));
            }
            // `x.field` where `x`'s declared type names a known struct.
            [name, field] => {
                let tys = self.local_tys.get(*name)?;
                (tys.iter().find(|i| lock_fields.contains_key(*i))?.as_str(), field)
            }
            // `self.a.b`: resolve `a`'s type through the field index.
            ["self", mid, field] => {
                let ty = self.facts.self_ty.as_deref()?;
                let mid_tys = self.index.field_types.get(ty)?.get(*mid)?;
                (mid_tys.iter().find(|i| lock_fields.contains_key(*i))?.as_str(), field)
            }
            _ => return None,
        };
        lock_fields.get(owner)?.contains(*field).then(|| format!("{owner}::{field}"))
    }

    fn acquire(&mut self, lock: String, line: u32, guard: Option<&str>) {
        if self.held().contains(&lock) {
            self.facts.local.push(Violation {
                rule: RuleId::D6,
                line,
                message: format!(
                    "`{lock}` acquired while already held in this function — nested same-lock acquire self-deadlocks under writer contention"
                ),
            });
        }
        self.facts.direct_acqs.insert(lock.clone());
        // Guard-bound: lives in the enclosing block scope (one below the
        // statement-transient scope).
        let depth = self.scopes.len().saturating_sub(if guard.is_some() { 2 } else { 1 });
        self.scopes[depth].push((lock, guard.map(str::to_string)));
    }

    // ------------------------------------------------------- the walk

    fn group(&mut self, g: &Group) {
        if g.delim != '{' {
            return g.stmts.iter().for_each(|s| self.stmt(s));
        }
        // A brace group scopes the guards bound in it and, inside that,
        // each statement scopes its temporaries.
        self.scopes.push(Vec::new());
        for s in &g.stmts {
            self.scopes.push(Vec::new());
            self.stmt(s);
            self.scopes.pop();
        }
        self.scopes.pop();
    }

    fn stmt(&mut self, s: &Stmt) {
        let nodes = &s.nodes[..];
        // The call a `let name = …;` ends in (`?` read through): the one
        // whose result `name` holds.
        let bound = s.binds.as_ref().and_then(|(name, _)| {
            let end = nodes.iter().rposition(|n| match n {
                Node::Tok(t) => !matches!(self.toks[*t].tok, Tok::Punct(';' | '?')),
                Node::Group(_) => true,
            })?;
            matches!(&nodes[end], Node::Group(g) if g.delim == '(').then_some((end, name.as_str()))
        });
        for (at, node) in nodes.iter().enumerate() {
            let Node::Group(g) = node else { continue };
            self.group(g);
            if let Some(applied) = self.applied(nodes, at).filter(|_| g.delim == '(') {
                let guard = bound.filter(|(end, _)| *end == at).map(|(_, name)| name);
                self.call(nodes, &applied, g, guard);
            }
        }
        let Some((name, ty)) = &s.binds else { return };
        if let Some(ty) = ty {
            self.local_tys.insert(name.clone(), ty.clone());
        }
        // `let m = Mutex::new(…);` is a local lock.
        let Some(init) = bound.and_then(|(end, _)| self.applied(nodes, end)) else { return };
        if let Some(lock @ ("RwLock" | "Mutex")) = init.qualifier.filter(|_| !init.method && init.name == "new") {
            self.local_tys.insert(name.clone(), vec![lock.to_string()]);
        }
    }

    /// Record the call `applied(args)`, its receiver and arguments walked:
    /// an acquisition (bound to `guard` when a `let` holds its result), a
    /// `drop(guard)`, or an edge candidate of the call graph.
    fn call(&mut self, nodes: &[Node], applied: &Applied<'a>, args: &Group, guard: Option<&str>) {
        let &Applied { name, at, line, .. } = applied;
        let callee = if applied.method {
            let recv = self.place_key(nodes, at - 1);
            if LOCK_ACQUIRE.contains(&name) {
                if let Some(lock) = recv.as_deref().and_then(|key| self.lock_of(key)) {
                    return self.acquire(lock, line, guard);
                }
            }
            let on_self = self.facts.self_ty.clone().filter(|_| recv.as_deref() == Some("self"));
            Callee::Method { name: name.to_string(), on_self }
        } else {
            // `drop(guard)` releases a named guard early.
            let arg = args.stmts.first().map(|s| &s.nodes[..]);
            if let ("drop", false, Some([Node::Tok(t)])) = (name, self.path_sep(nodes, at), arg) {
                if let Tok::Ident(guard) = &self.toks[*t].tok {
                    for scope in self.scopes.iter_mut() {
                        scope.retain(|(_, g)| g.as_ref() != Some(guard));
                    }
                    return;
                }
            }
            Callee::Free(name.to_string())
        };
        self.facts.calls.push(CallSite { callee, held: self.held(), line });
    }
}

// ---------------------------------------------------------- cross-file

/// Run the cross-file analysis over every per-file fact set; returns
/// `(file index, violation)` pairs and what the walks saw.
fn cross(files: &[Vec<FnFacts>]) -> (Vec<(usize, Violation)>, Census) {
    let mut out: Vec<(usize, Violation)> = Vec::new();

    // Function tables: every analyzed fn gets an id.
    struct Entry<'a> {
        file: usize,
        f: &'a FnFacts,
    }
    let mut fns: Vec<Entry> = Vec::new();
    for (file, facts) in files.iter().enumerate() {
        fns.extend(facts.iter().map(|f| Entry { file, f }));
    }
    let mut by_free_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_method_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
    let mut by_typed_name: BTreeMap<(String, String), Vec<usize>> = BTreeMap::new();
    for (i, e) in fns.iter().enumerate() {
        by_free_name.entry(e.f.name.as_str()).or_default().push(i);
        if e.f.takes_self {
            by_method_name.entry(e.f.name.as_str()).or_default().push(i);
        }
        if let Some(t) = &e.f.self_ty {
            by_typed_name
                .entry((t.clone(), e.f.name.clone()))
                .or_default()
                .push(i);
        }
    }
    let resolve = |c: &Callee| -> Option<usize> {
        match c {
            Callee::Free(name) => match by_free_name.get(name.as_str()) {
                Some(v) if v.len() == 1 => Some(v[0]),
                _ => None,
            },
            Callee::Method { name, on_self } => {
                if let Some(t) = on_self {
                    if let Some(v) = by_typed_name.get(&(t.clone(), name.clone())) {
                        if v.len() == 1 {
                            return Some(v[0]);
                        }
                    }
                }
                match by_method_name.get(name.as_str()) {
                    Some(v) if v.len() == 1 => Some(v[0]),
                    _ => None,
                }
            }
        }
    };

    // Transitive lock acquisitions, to fixpoint over resolved edges.
    let mut all_acqs: Vec<BTreeSet<String>> =
        fns.iter().map(|e| e.f.direct_acqs.clone()).collect();
    loop {
        let mut changed = false;
        for (i, e) in fns.iter().enumerate() {
            for site in &e.f.calls {
                if let Some(j) = resolve(&site.callee) {
                    let extra: Vec<String> = all_acqs[j]
                        .iter()
                        .filter(|l| !all_acqs[i].contains(*l))
                        .cloned()
                        .collect();
                    if !extra.is_empty() {
                        all_acqs[i].extend(extra);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Re-entry through calls: a lock held across a call to a function
    // that (transitively) acquires it again.
    for e in fns.iter() {
        for site in e.f.calls.iter().filter(|site| !site.held.is_empty()) {
            let Some(j) = resolve(&site.callee) else { continue };
            let callee = &fns[j];
            for a in all_acqs[j].iter().filter(|a| site.held.contains(*a)) {
                out.push((
                    e.file,
                    Violation {
                        rule: RuleId::D6,
                        line: site.line,
                        message: format!(
                            "`{a}` is held across a call to `{}` (line {}), which acquires it again — self-deadlock on the non-reentrant shim locks",
                            callee.f.name, callee.f.line
                        ),
                    },
                ));
            }
        }
        // Local hits pass straight through.
        out.extend(e.f.local.iter().map(|c| (e.file, c.clone())));
    }

    let census = Census {
        fns_walked: fns.len(),
        lock_ids: fns.iter().flat_map(|e| e.f.direct_acqs.iter().cloned()).collect(),
        calls_under_lock: fns.iter().flat_map(|e| &e.f.calls).filter(|c| !c.held.is_empty()).count(),
    };
    (out, census)
}

/// Convenience used by `lint_source`/`lint_workspace`: run both phases.
pub(crate) fn analyze(files: &[&ParsedFile]) -> (Vec<(usize, Violation)>, Census) {
    let mut index = StructIndex::default();
    // Aliases of aliases resolve in as many rounds as they are deep.
    let aliases = || files.iter().flat_map(|parsed| &parsed.aliases).filter(|(.., in_test)| !in_test);
    while let Some((name, ..)) = aliases().find(|(name, ty, _)| index.is_lock(ty) && !index.lock_aliases.contains(name)) {
        index.lock_aliases.insert(name.clone());
    }
    for parsed in files {
        for s in parsed.structs.iter().filter(|s| !s.in_test) {
            let locks = s.fields.iter().filter(|(_, ty)| index.is_lock(ty)).map(|(f, _)| f.clone());
            let locks: Vec<String> = locks.collect();
            index.lock_fields.entry(s.name.clone()).or_default().extend(locks);
            let types = s.fields.iter().map(|(f, ty)| (f.clone(), ty.clone()));
            index.field_types.entry(s.name.clone()).or_default().extend(types);
        }
    }
    let per_file: Vec<Vec<FnFacts>> =
        files.iter().map(|parsed| extract_fns(parsed, &index)).collect();
    cross(&per_file)
}
