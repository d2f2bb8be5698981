//! Workspace symbol table, heuristic call graph, and reachability.
//!
//! Built from the item layer (`items.rs`), this is what upgrades the
//! linter from body-local to *transitive*: every `fn` in the workspace
//! becomes a node, call sites become edges, and the A1/P1 rules walk the
//! graph from `lint:hot_path` roots instead of stopping at the root's
//! own body.
//!
//! Resolution is deliberately heuristic — no trait solving, no generics.
//! A method call binds only when the receiver's type is *inferable*
//! (receiver chains through typed params, struct fields, and return
//! types; `Type::method` paths; `self`). An unresolvable or ambiguous
//! call produces **no edge**: the graph under-approximates, and the
//! boundary cases (generic `D: Device` receivers, enum-match bindings)
//! are exactly the module boundaries the architecture already treats as
//! ownership transfers. A name-unique fallback fills in the common
//! accessor idiom (`…device_mut().nipt_mut()` — `nipt_mut` names exactly
//! one workspace fn) without risking `push`-style collisions: names on
//! the std-collision blacklist never resolve by uniqueness.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use crate::config::FileContext;
use crate::diag::{Markers, Rule};
use crate::items::{matching_paren, parse_items, FileItems};
use crate::lexer::{lex, Token};
use crate::rules::test_region_mask;

/// One file fed into the analysis.
pub struct SourceInput {
    /// Repo-relative path used in diagnostics.
    pub path: String,
    /// File contents.
    pub src: String,
    /// Which rules bind.
    pub ctx: FileContext,
}

/// One analyzed file: tokens, markers, test mask, parsed items.
pub struct SourceUnit {
    /// Repo-relative path.
    pub path: String,
    /// Rule applicability.
    pub ctx: FileContext,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Test-region mask, parallel to `tokens`.
    pub mask: Vec<bool>,
    /// Comment markers.
    pub markers: Markers,
    /// Parsed items.
    pub items: FileItems,
}

/// A function's identity: `(unit index, fn index within the unit)`.
pub type FnId = (usize, usize);

/// One resolved call site inside a function body.
#[derive(Clone, Debug)]
pub struct CallSite {
    /// Line of the callee name token.
    pub line: u32,
    /// Callee name as written.
    pub name: String,
    /// Resolved targets (empty when unresolved — no edge).
    pub targets: Vec<FnId>,
}

/// Method names too common to resolve by workspace-wide name uniqueness:
/// they collide with `std` collection methods, so a bare `.push(…)` on a
/// `Vec` must not bind to some workspace type's `push`.
const NAME_FALLBACK_BLACKLIST: &[&str] = &[
    "push",
    "pop",
    "insert",
    "remove",
    "get",
    "get_mut",
    "set",
    "clear",
    "len",
    "is_empty",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "extend",
    "drain",
    "contains",
    "new",
    "from",
    "default",
    "clone",
    "fmt",
    "drop",
    "eq",
    "cmp",
    "hash",
    "write",
    "read",
    "as_ref",
    "as_mut",
    "take",
    "map",
    "and_then",
    "unwrap_or",
    "min",
    "max",
    "count",
    "record",
];

/// Keywords that can precede `(` without being a call.
const NOT_A_CALL: &[&str] =
    &["if", "while", "match", "for", "loop", "return", "in", "as", "move", "fn", "let", "else"];

/// The whole-workspace analysis state: units plus the symbol tables the
/// resolver and the taint pass share.
pub struct Workspace {
    /// The analyzed files.
    pub units: Vec<SourceUnit>,
    /// `(owner type, fn name)` → candidates (inherent and trait impls).
    methods: BTreeMap<(String, String), Vec<FnId>>,
    /// `(trait name, fn name)` → implementing methods (for `dyn Trait`).
    trait_methods: BTreeMap<(String, String), Vec<FnId>>,
    /// Free functions by name.
    free_fns: BTreeMap<String, Vec<FnId>>,
    /// Every fn by name (the uniqueness fallback).
    by_name: BTreeMap<String, Vec<FnId>>,
    /// `(struct, field)` → first type ident.
    fields: BTreeMap<(String, String), String>,
    /// Functions annotated `// lint:checks(F1)`.
    sanitizer_fns: BTreeSet<FnId>,
    /// Their names (plus structural sanitizers), for call-site matching.
    sanitizer_names: BTreeSet<String>,
    /// `lint:hot_path` roots, bound through the item parser.
    hot_roots: Vec<FnId>,
    /// Per-fn environment (binding name → type ident) and call sites.
    facts: BTreeMap<FnId, FnFacts>,
}

/// Per-function derived facts.
#[derive(Default)]
struct FnFacts {
    env: BTreeMap<String, String>,
    calls: Vec<CallSite>,
}

impl Workspace {
    /// Lexes, parses and indexes every input file, then extracts and
    /// resolves all call sites.
    pub fn build(inputs: Vec<SourceInput>) -> Workspace {
        let mut units = Vec::with_capacity(inputs.len());
        for input in inputs {
            let lexed = lex(&input.src);
            let mask = test_region_mask(&lexed.tokens);
            let markers = Markers::scan(&lexed);
            let items = parse_items(&lexed, &mask);
            units.push(SourceUnit {
                path: input.path,
                ctx: input.ctx,
                tokens: lexed.tokens,
                mask,
                markers,
                items,
            });
        }

        let mut ws = Workspace {
            units,
            methods: BTreeMap::new(),
            trait_methods: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            by_name: BTreeMap::new(),
            fields: BTreeMap::new(),
            sanitizer_fns: BTreeSet::new(),
            sanitizer_names: BTreeSet::new(),
            hot_roots: Vec::new(),
            facts: BTreeMap::new(),
        };

        // Symbol tables.
        for (u, unit) in ws.units.iter().enumerate() {
            for s in &unit.items.structs {
                for (f, ty) in &s.fields {
                    ws.fields.insert((s.name.clone(), f.clone()), ty.clone());
                }
            }
            for (i, f) in unit.items.fns.iter().enumerate() {
                if f.is_test {
                    continue;
                }
                let id: FnId = (u, i);
                ws.by_name.entry(f.name.clone()).or_default().push(id);
                match &f.owner {
                    Some(owner) => {
                        ws.methods.entry((owner.clone(), f.name.clone())).or_default().push(id);
                        if let Some(tr) = &f.trait_name {
                            if tr != owner {
                                ws.trait_methods
                                    .entry((tr.clone(), f.name.clone()))
                                    .or_default()
                                    .push(id);
                            }
                        }
                    }
                    None => ws.free_fns.entry(f.name.clone()).or_default().push(id),
                }
            }
        }

        // Marker binding: hot-path roots and fn-level sanitizers. A
        // `lint:checks(F1)` whose line falls *inside* a body is a
        // statement-level cleanse (handled by the taint pass), not a
        // sanitizer fn.
        for (u, unit) in ws.units.iter().enumerate() {
            for &line in &unit.markers.hot_paths {
                if let Some(i) = unit.items.fn_at_or_after(line) {
                    let id = (u, i);
                    if !unit.items.fns[i].is_test && !ws.hot_roots.contains(&id) {
                        ws.hot_roots.push(id);
                    }
                }
            }
            for &line in &unit.markers.checks {
                if ws.body_enclosing_line(u, line).is_some() {
                    continue; // statement-level
                }
                if let Some(i) = unit.items.fn_at_or_after(line) {
                    ws.sanitizer_fns.insert((u, i));
                    ws.sanitizer_names.insert(unit.items.fns[i].name.clone());
                }
            }
        }
        // Structural sanitizers: checked collection access is a bounds
        // check by construction.
        ws.sanitizer_names.insert("get".to_owned());
        ws.sanitizer_names.insert("get_mut".to_owned());

        // Per-fn facts (env + resolved call sites).
        let mut facts = BTreeMap::new();
        for u in 0..ws.units.len() {
            for i in 0..ws.units[u].items.fns.len() {
                if ws.units[u].items.fns[i].is_test {
                    continue;
                }
                facts.insert((u, i), ws.fn_facts((u, i)));
            }
        }
        ws.facts = facts;
        ws
    }

    /// The `lint:hot_path` roots in workspace order.
    pub fn hot_roots(&self) -> &[FnId] {
        &self.hot_roots
    }

    /// Whether `id` is an annotated `lint:checks(F1)` sanitizer.
    pub fn is_sanitizer(&self, id: FnId) -> bool {
        self.sanitizer_fns.contains(&id)
    }

    /// Names that cleanse a value when called on it (annotated sanitizer
    /// fns plus structural `get`/`get_mut`).
    pub fn sanitizer_names(&self) -> &BTreeSet<String> {
        &self.sanitizer_names
    }

    /// The resolved call sites of `id`.
    pub fn calls_of(&self, id: FnId) -> &[CallSite] {
        self.facts.get(&id).map_or(&[], |f| &f.calls)
    }

    /// The binding-name → type environment inferred for `id`.
    pub fn env_of(&self, id: FnId) -> Option<&BTreeMap<String, String>> {
        self.facts.get(&id).map(|f| &f.env)
    }

    /// `Owner::name` (or bare `name`) for diagnostics and the dump.
    pub fn label(&self, id: FnId) -> String {
        let f = &self.units[id.0].items.fns[id.1];
        match &f.owner {
            Some(o) => format!("{o}::{}", f.name),
            None => f.name.clone(),
        }
    }

    /// The fn (if any) whose body spans `line` in unit `u`.
    pub fn body_enclosing_line(&self, u: usize, line: u32) -> Option<usize> {
        let unit = &self.units[u];
        unit.items.fns.iter().position(|f| {
            f.body.is_some_and(|(b0, b1)| {
                let first = unit.tokens.get(b0).map_or(u32::MAX, |t| t.line);
                let last = unit.tokens.get(b1.saturating_sub(1)).map_or(0, |t| t.line);
                first <= line && line <= last
            })
        })
    }

    // -- resolution ----------------------------------------------------

    /// Return type of a `(receiver type, method)` pair; falls back to
    /// trait-keyed candidates for `dyn Trait` receivers.
    fn ret_of_method(&self, ty: &str, name: &str) -> Option<String> {
        self.method_candidates(ty, name)
            .first()
            .and_then(|&id| self.units[id.0].items.fns[id.1].ret.clone())
    }

    fn method_candidates(&self, ty: &str, name: &str) -> Vec<FnId> {
        // Union of inherent/decl candidates and trait-impl candidates:
        // when `ty` is a trait (`dyn Trait` receivers), the declaration
        // is bodiless and the impls carry the behaviour to traverse.
        let key = (ty.to_owned(), name.to_owned());
        let mut v = self.methods.get(&key).cloned().unwrap_or_default();
        for &id in self.trait_methods.get(&key).into_iter().flatten() {
            if !v.contains(&id) {
                v.push(id);
            }
        }
        v
    }

    /// The single workspace fn named `name`, when the name is unique and
    /// not on the std-collision blacklist.
    fn unique_by_name(&self, name: &str) -> Option<FnId> {
        if NAME_FALLBACK_BLACKLIST.contains(&name) {
            return None;
        }
        match self.by_name.get(name).map(Vec::as_slice) {
            Some([one]) => Some(*one),
            _ => None,
        }
    }

    /// Type of the expression *ending* at token `j` (inclusive), walking
    /// receiver chains backward. `owner` is the enclosing impl type (for
    /// `self`); `env` maps local bindings and typed params.
    pub fn expr_type(
        &self,
        toks: &[Token],
        j: usize,
        env: &BTreeMap<String, String>,
        owner: Option<&str>,
    ) -> Option<String> {
        if j >= toks.len() {
            return None;
        }
        let t = &toks[j];
        if t.is_punct('?') {
            return if j > 0 { self.expr_type(toks, j - 1, env, owner) } else { None };
        }
        if let Some(name) = t.ident() {
            if name == "self" {
                return owner.map(str::to_owned);
            }
            // Field access `…prefix.name`.
            if j >= 2 && toks[j - 1].is_punct('.') {
                let base = self.expr_type(toks, j - 2, env, owner)?;
                return self.fields.get(&(base, name.to_owned())).cloned();
            }
            // Path tail `X::NAME` (associated const): unknown.
            if j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
                return None;
            }
            return env.get(name).cloned();
        }
        if t.is_punct(')') {
            let open = backward_matching_paren(toks, j)?;
            if open == 0 {
                return None;
            }
            let k = open - 1;
            let name = toks[k].ident()?;
            // Method call `recv.name(…)`.
            if k >= 1 && toks[k - 1].is_punct('.') {
                if let Some(recv) =
                    (k >= 2).then(|| self.expr_type(toks, k - 2, env, owner)).flatten()
                {
                    if let Some(ret) = self.ret_of_method(&recv, name) {
                        return Some(ret);
                    }
                }
                // Accessor fallback: a workspace-unique method name types
                // the chain even when the receiver is generic.
                return self
                    .unique_by_name(name)
                    .and_then(|id| self.units[id.0].items.fns[id.1].ret.clone());
            }
            // Qualified call `X::name(…)` / `Self::name(…)`.
            if k >= 2 && toks[k - 1].is_punct(':') && toks[k - 2].is_punct(':') {
                let q = if k >= 3 { toks[k - 3].ident() } else { None }?;
                let q = if q == "Self" { owner? } else { q };
                return self.ret_of_method(q, name);
            }
            // Free call.
            return self
                .free_fns
                .get(name)
                .and_then(|v| v.first())
                .and_then(|&id| self.units[id.0].items.fns[id.1].ret.clone());
        }
        None
    }

    /// Builds the env and extracts + resolves every call site of one fn.
    fn fn_facts(&self, id: FnId) -> FnFacts {
        let unit = &self.units[id.0];
        let f = &unit.items.fns[id.1];
        let mut env: BTreeMap<String, String> = BTreeMap::new();
        for p in &f.params {
            if let (Some(n), Some(ty)) = (&p.name, &p.ty) {
                env.insert(n.clone(), ty.clone());
            }
        }
        let mut calls = Vec::new();
        let Some((b0, b1)) = f.body else {
            return FnFacts { env, calls };
        };
        let toks = &unit.tokens[..b1.min(unit.tokens.len())];
        let owner = f.owner.as_deref();

        let mut i = b0;
        while i < toks.len() {
            let t = &toks[i];
            // `let` bindings extend the env when the rhs type resolves.
            if t.is_ident("let") {
                if let Some((names, _, rhs_end)) = let_binding(toks, i) {
                    if let Some(ty) = self.expr_type(toks, rhs_end, &env, owner) {
                        for n in names {
                            env.insert(n, ty.clone());
                        }
                    }
                }
                i += 1;
                continue;
            }
            // A call: ident directly followed by `(`.
            let is_call = t.ident().is_some_and(|n| !NOT_A_CALL.contains(&n))
                && toks.get(i + 1).is_some_and(|n| n.is_punct('('));
            if !is_call {
                i += 1;
                continue;
            }
            let name = t.ident().unwrap_or_default().to_owned();
            let targets = if i >= 1 && toks[i - 1].is_punct('.') {
                // Method call: resolve the receiver, else uniqueness.
                let recv = (i >= 2).then(|| self.expr_type(toks, i - 2, &env, owner)).flatten();
                match recv {
                    Some(ty) => self.method_candidates(&ty, &name),
                    None => self
                        .unique_by_name(&name)
                        .filter(|&fid| self.units[fid.0].items.fns[fid.1].has_receiver)
                        .into_iter()
                        .collect(),
                }
            } else if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
                match if i >= 3 { toks[i - 3].ident() } else { None } {
                    Some(q) => {
                        let q = if q == "Self" { owner.unwrap_or(q) } else { q };
                        self.method_candidates(q, &name)
                    }
                    None => Vec::new(),
                }
            } else {
                // Free call: prefer same-unit definitions.
                let all = self.free_fns.get(&name).cloned().unwrap_or_default();
                let local: Vec<FnId> = all.iter().copied().filter(|t| t.0 == id.0).collect();
                if local.is_empty() {
                    all
                } else {
                    local
                }
            };
            calls.push(CallSite { line: t.line, name, targets });
            i += 1;
        }
        FnFacts { env, calls }
    }

    // -- reachability --------------------------------------------------

    /// BFS over resolved edges from `roots`, returning every reached fn
    /// with its (first-found, shortest) call chain `root → … → fn`.
    /// `prune(caller, line)` skips an edge — used to honor
    /// `lint:allow(…)` at the call site. Test fns are never entered.
    pub fn reachable(
        &self,
        roots: &[FnId],
        prune: &dyn Fn(FnId, u32) -> bool,
    ) -> Vec<(FnId, Vec<FnId>)> {
        let mut parent: BTreeMap<FnId, FnId> = BTreeMap::new();
        let mut seen: BTreeSet<FnId> = BTreeSet::new();
        let mut queue: VecDeque<FnId> = VecDeque::new();
        let mut order: Vec<FnId> = Vec::new();
        for &r in roots {
            if seen.insert(r) {
                queue.push_back(r);
            }
        }
        while let Some(id) = queue.pop_front() {
            order.push(id);
            for call in self.calls_of(id) {
                if prune(id, call.line) {
                    continue;
                }
                for &tgt in &call.targets {
                    if self.units[tgt.0].items.fns[tgt.1].is_test {
                        continue;
                    }
                    if seen.insert(tgt) {
                        parent.insert(tgt, id);
                        queue.push_back(tgt);
                    }
                }
            }
        }
        order
            .into_iter()
            .map(|id| {
                let mut chain = vec![id];
                let mut cur = id;
                while let Some(&p) = parent.get(&cur) {
                    chain.push(p);
                    cur = p;
                }
                chain.reverse();
                (id, chain)
            })
            .collect()
    }

    /// Renders `labels.join(" → ")` for a chain.
    pub fn chain_text(&self, chain: &[FnId]) -> String {
        chain.iter().map(|&id| self.label(id)).collect::<Vec<_>>().join(" → ")
    }

    /// The deterministic `--callgraph` dump: each `lint:hot_path` root
    /// with its full (unpruned) reachable call set, sorted. Callee line
    /// numbers are deliberately omitted so unrelated edits don't churn
    /// the committed copy.
    pub fn render_callgraph(&self) -> String {
        let mut out = String::from(
            "# shrimp-lint --callgraph: reachable call set of every lint:hot_path root.\n\
             # Regenerate: cargo run -p shrimp-lint -- --callgraph > crates/lint/callgraph.txt\n",
        );
        let mut roots: Vec<FnId> = self.hot_roots.to_vec();
        roots.sort_by_key(|&id| (self.units[id.0].path.clone(), self.label(id)));
        for &root in &roots {
            out.push('\n');
            out.push_str(&format!("root {} [{}]\n", self.label(root), self.units[root.0].path));
            let reached = self.reachable(&[root], &|_, _| false);
            let mut lines: Vec<String> = reached
                .iter()
                .filter(|(id, _)| *id != root)
                .map(|(id, _)| format!("  {} [{}]", self.label(*id), self.units[id.0].path))
                .collect();
            lines.sort();
            lines.dedup();
            for l in &lines {
                out.push_str(l);
                out.push('\n');
            }
        }
        out
    }

    /// Whether `rule` is waived at `unit`/`line` (allow-escape window).
    pub fn allowed(&self, unit: usize, rule: Rule, line: u32) -> bool {
        self.units[unit].markers.allowed(rule, line)
    }
}

/// Index of the `(` matching the `)` at `j`, scanning backward.
fn backward_matching_paren(toks: &[Token], j: usize) -> Option<usize> {
    let mut depth = 0i64;
    let mut i = j;
    loop {
        if toks[i].is_punct(')') {
            depth += 1;
        } else if toks[i].is_punct('(') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
        if i == 0 {
            return None;
        }
        i -= 1;
    }
}

/// Parses the `let` statement starting at `i` (the `let` token):
/// returns the bound names and the rhs token span `(first, last)`
/// (inclusive, before the terminating `;` or `else`). `None` for
/// bindings with no `=`.
pub fn let_binding(toks: &[Token], i: usize) -> Option<(Vec<String>, usize, usize)> {
    // Find the top-level `=` (not `==`, `<=`, `>=`, `!=`, `+=`, …).
    let mut depth = 0i64;
    let mut j = i + 1;
    let mut eq = None;
    while j < toks.len() {
        let t = &toks[j];
        match () {
            _ if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') => depth += 1,
            _ if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') => {
                depth -= 1;
                if depth < 0 {
                    return None;
                }
            }
            _ if t.is_punct(';') && depth == 0 => return None,
            _ if t.is_punct('=') && depth == 0 => {
                let prev_op = j >= 1
                    && ['=', '!', '<', '>', '+', '-', '*', '/', '&', '|', '^', '%']
                        .iter()
                        .any(|&c| toks[j - 1].is_punct(c));
                let next_eq = toks.get(j + 1).is_some_and(|n| n.is_punct('='));
                if !prev_op && !next_eq {
                    eq = Some(j);
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    let eq = eq?;
    // Bound names: lowercase/underscore idents in the pattern span,
    // excluding `mut`/`ref` (types and variant constructors start
    // uppercase and are skipped).
    let mut names = Vec::new();
    for t in &toks[i + 1..eq] {
        if let Some(n) = t.ident() {
            if n != "mut"
                && n != "ref"
                && n.chars().next().is_some_and(|c| c.is_lowercase() || c == '_')
            {
                names.push(n.to_owned());
            }
        }
    }
    // End of rhs: terminating `;` or `else` at depth 0.
    let mut depth = 0i64;
    let mut k = eq + 1;
    while k < toks.len() {
        let t = &toks[k];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
            depth -= 1;
            if depth < 0 {
                break;
            }
        } else if depth == 0 && (t.is_punct(';') || t.is_ident("else")) {
            break;
        }
        k += 1;
    }
    if k == eq + 1 {
        return None;
    }
    Some((names, eq + 1, k - 1))
}

/// End of the argument region of the call whose name token is at `i`
/// (`toks[i + 1]` must be `(`): index just past the matching `)`.
pub fn call_args_end(toks: &[Token], i: usize) -> usize {
    matching_paren(toks, i + 1, toks.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(files: &[(&str, &str)]) -> Workspace {
        Workspace::build(
            files
                .iter()
                .map(|(p, s)| SourceInput {
                    path: (*p).to_owned(),
                    src: (*s).to_owned(),
                    ctx: FileContext::default(),
                })
                .collect(),
        )
    }

    fn find(ws: &Workspace, label: &str) -> FnId {
        for (u, unit) in ws.units.iter().enumerate() {
            for i in 0..unit.items.fns.len() {
                if ws.label((u, i)) == label {
                    return (u, i);
                }
            }
        }
        panic!("no fn labelled {label}");
    }

    #[test]
    fn self_methods_and_typed_receivers_resolve() {
        let w = ws(&[(
            "a.rs",
            "struct Core { q: Queue }\n\
             struct Queue;\n\
             impl Queue { fn drain_one(&mut self) {} }\n\
             impl Core {\n\
                 fn tick(&mut self) { self.helper(); self.q.drain_one(); }\n\
                 fn helper(&mut self) {}\n\
             }\n",
        )]);
        let tick = find(&w, "Core::tick");
        let names: Vec<_> = w
            .calls_of(tick)
            .iter()
            .filter(|c| !c.targets.is_empty())
            .map(|c| c.name.clone())
            .collect();
        assert_eq!(names, vec!["helper", "drain_one"]);
    }

    #[test]
    fn return_type_chains_and_unique_name_fallback_resolve() {
        let w = ws(&[
            (
                "a.rs",
                "struct Node;\nstruct Machine;\nstruct Store;\n\
                 impl Node { fn machine_mut(&mut self) -> &mut Machine { todo!() } }\n\
                 impl Machine { fn store_mut(&mut self) -> &mut Store { todo!() } }\n\
                 impl Store { fn poke_slot(&mut self, i: u64) {} }\n",
            ),
            ("b.rs", "fn drive(n: &mut Node) { n.machine_mut().store_mut().poke_slot(3); }\n"),
        ]);
        let drive = find(&w, "drive");
        let poke = find(&w, "Store::poke_slot");
        let call = w.calls_of(drive).iter().find(|c| c.name == "poke_slot").unwrap();
        assert_eq!(call.targets, vec![poke]);
    }

    #[test]
    fn blacklisted_names_never_bind_by_uniqueness() {
        let w = ws(&[(
            "a.rs",
            "struct MergeQueue;\nimpl MergeQueue { fn push(&mut self, x: u64) {} }\n\
             fn other(v: &mut Vec<u64>) { v.push(1); }\n",
        )]);
        let other = find(&w, "other");
        let call = w.calls_of(other).iter().find(|c| c.name == "push").unwrap();
        assert!(call.targets.is_empty(), "`.push` on an untyped receiver must not bind");
    }

    #[test]
    fn a_pub_field_receiver_binds_a_blacklisted_method_by_type() {
        // `record` is on the blacklist, so only the field's type can bind
        // it: the field's visibility and attributes must not hide it.
        let w = ws(&[(
            "a.rs",
            "pub(crate) struct Core {\n    #[allow(dead_code)]\n    pub(crate) hits: u64,\n    \
             /// Doc.\n    pub recorder: Recorder,\n}\n\
             struct Recorder;\nimpl Recorder { fn record(&mut self, x: u64) {} }\n\
             impl Core { fn apply(&mut self) { self.recorder.record(1); } }\n",
        )]);
        let apply = find(&w, "Core::apply");
        let record = find(&w, "Recorder::record");
        let call = w.calls_of(apply).iter().find(|c| c.name == "record").unwrap();
        assert_eq!(call.targets, vec![record]);
    }

    #[test]
    fn reachability_follows_chains_and_allow_prunes_edges() {
        let src = "\
// lint:hot_path
fn root() { mid(); }
fn mid() {
    leaf();
    do_more();
    finish();
    tidy();
    // lint:allow(A1) -- cold slow path, measured off the wire
    cold();
}
fn cold() {}
fn leaf() {}
fn do_more() {}
fn finish() {}
fn tidy() {}
";
        let w = ws(&[("a.rs", src)]);
        let root = find(&w, "root");
        let reached = w.reachable(&[root], &|caller, line| w.allowed(caller.0, Rule::A1, line));
        let labels: Vec<_> = reached.iter().map(|(id, _)| w.label(*id)).collect();
        assert!(labels.contains(&"leaf".to_owned()));
        assert!(!labels.contains(&"cold".to_owned()), "allow(A1) prunes the edge");
        let (_, chain) = reached.iter().find(|(id, _)| w.label(*id) == "leaf").unwrap();
        assert_eq!(w.chain_text(chain), "root → mid → leaf");
    }

    #[test]
    fn dyn_trait_receivers_resolve_through_impls() {
        let w = ws(&[(
            "a.rs",
            "trait Port { fn send(&mut self, n: u64); }\n\
             struct Wire;\n\
             impl Port for Wire { fn send(&mut self, n: u64) {} }\n\
             fn go(p: &mut dyn Port) { p.send(1); }\n",
        )]);
        let go = find(&w, "go");
        let send = find(&w, "Wire::send");
        let call = w.calls_of(go).iter().find(|c| c.name == "send").unwrap();
        assert!(call.targets.contains(&send), "dyn receiver reaches the impl");
    }

    #[test]
    fn callgraph_dump_is_deterministic_and_sorted() {
        let src = "// lint:hot_path\nfn r() { a(); b(); }\nfn a() { b(); }\nfn b() {}\n";
        let w = ws(&[("z.rs", src)]);
        let dump = w.render_callgraph();
        assert!(dump.contains("root r [z.rs]"));
        let a_pos = dump.find("  a [z.rs]").unwrap();
        let b_pos = dump.find("  b [z.rs]").unwrap();
        assert!(a_pos < b_pos);
        assert_eq!(dump, w.render_callgraph());
    }
}
