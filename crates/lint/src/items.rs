//! Item-level parse: functions, impl owners, struct fields.
//!
//! The lexer gives a flat token stream; this layer recovers just enough
//! *structure* for the workspace analyses — every `fn` with its body
//! token range, the `impl` type that owns it, its parameter and return
//! types (first path ident only — enough for the heuristic resolver in
//! `graph.rs`), and every struct's field types. No expression grammar is
//! parsed; bodies stay opaque token ranges the rule passes scan.
//!
//! Marker binding also lives here: a `// lint:hot_path` (or
//! `// lint:checks(F1)`) comment binds to the **next parsed `fn` item**
//! after its line, so doc comments and `#[…]` attributes between the
//! marker and the `fn` can never unbind it (they produce no `fn` item).

use crate::lexer::{Lexed, Token, TokenKind};

/// One parsed function item.
#[derive(Clone, Debug)]
pub struct FnItem {
    /// The function's name.
    pub name: String,
    /// The `impl` (or `trait`) type the function belongs to, if any.
    pub owner: Option<String>,
    /// The trait being implemented, for `impl Trait for Type` methods.
    pub trait_name: Option<String>,
    /// 1-based line of the `fn` keyword.
    pub sig_line: u32,
    /// Token index of the `fn` keyword.
    pub fn_idx: usize,
    /// Body token range `[open_brace, past_close_brace)`; `None` for
    /// bodiless trait-method declarations.
    pub body: Option<(usize, usize)>,
    /// Parameters in order (receiver excluded).
    pub params: Vec<Param>,
    /// First path ident of the return type, `Option`/`Result` wrappers
    /// skipped (`-> &mut PhysMemory` → `PhysMemory`,
    /// `-> Option<NiptEntry>` → `NiptEntry`).
    pub ret: Option<String>,
    /// Whether the function takes `self`.
    pub has_receiver: bool,
    /// Whether the function sits inside `#[cfg(test)]`/`#[test]` code.
    pub is_test: bool,
}

/// One function parameter: binding name (when the pattern is a plain
/// ident) and the first path ident of its type.
#[derive(Clone, Debug)]
pub struct Param {
    /// The binding name (`None` for destructuring patterns).
    pub name: Option<String>,
    /// First path ident of the type (`&mut FabricShard` → `FabricShard`).
    pub ty: Option<String>,
}

/// One struct definition with its named fields.
#[derive(Clone, Debug)]
pub struct StructItem {
    /// The struct's name.
    pub name: String,
    /// `(field, first path ident of its type)` pairs.
    pub fields: Vec<(String, String)>,
}

/// All items parsed from one file.
#[derive(Clone, Debug, Default)]
pub struct FileItems {
    /// Functions in source order.
    pub fns: Vec<FnItem>,
    /// Struct definitions in source order.
    pub structs: Vec<StructItem>,
}

impl FileItems {
    /// Index of the first `fn` item whose signature line is at or after
    /// `line` — the function a marker comment at `line` binds to.
    /// Attributes and doc comments between the marker and the `fn` are
    /// skipped by construction: only a real `fn` item can win.
    pub fn fn_at_or_after(&self, line: u32) -> Option<usize> {
        self.fns.iter().position(|f| f.sig_line >= line)
    }
}

/// Words that start a `fn` when they precede the keyword.
const FN_QUALIFIERS: &[&str] = &["pub", "const", "unsafe", "async", "extern", "default"];

/// Parses the items of one lexed file. `test_mask` marks tokens inside
/// `#[cfg(test)]`/`#[test]` regions (see `rules::test_region_mask`).
pub fn parse_items(lexed: &Lexed, test_mask: &[bool]) -> FileItems {
    let mut p = Parser { t: &lexed.tokens, mask: test_mask, out: FileItems::default() };
    p.items(0, lexed.tokens.len(), None, None);
    p.out
}

struct Parser<'a> {
    t: &'a [Token],
    mask: &'a [bool],
    out: FileItems,
}

impl Parser<'_> {
    /// Scans `[start, end)` at item level under the given impl/trait
    /// context, descending into `mod`/`impl`/`trait` blocks.
    fn items(&mut self, start: usize, end: usize, owner: Option<&str>, trait_ctx: Option<&str>) {
        let mut i = start;
        while i < end {
            let Some(tok) = self.t.get(i) else { break };
            match tok.ident() {
                Some("fn") => i = self.fn_item(i, end, owner, trait_ctx),
                Some("impl") => i = self.impl_item(i, end),
                Some("trait") => i = self.trait_item(i, end),
                Some("mod") => i = self.mod_item(i, end, owner, trait_ctx),
                Some("struct") => i = self.struct_item(i, end, None),
                // `shrimp_sim::counters! { struct X { a, b } }` declares
                // a struct whose bare fields are all `Counter`s.
                Some("counters") if self.t.get(i + 1).is_some_and(|t| t.is_punct('!')) => {
                    i = self.counters_item(i, end);
                }
                Some("enum") | Some("union") => i = self.skip_braced_or_semi(i, end),
                // `const fn` and `unsafe fn` fall through to the `fn`
                // branch on the next token; bare consts/statics/types
                // skip to their terminating `;` (brace-aware, for
                // `const X: T = { … };`).
                Some("const") | Some("static") | Some("type") | Some("use")
                    if !self.t.get(i + 1).is_some_and(|n| {
                        n.ident().is_some_and(|id| id == "fn" || FN_QUALIFIERS.contains(&id))
                    }) =>
                {
                    i = self.skip_to_semi(i, end);
                }
                _ => {
                    if tok.is_punct('#') {
                        i = self.skip_attr(i, end);
                    } else if tok.is_punct('{') {
                        // An unexpected block (macro output, expression
                        // item): descend — nested fns still get found.
                        i += 1;
                    } else {
                        i += 1;
                    }
                }
            }
        }
    }

    fn fn_item(
        &mut self,
        fn_idx: usize,
        end: usize,
        owner: Option<&str>,
        tr: Option<&str>,
    ) -> usize {
        let sig_line = self.t[fn_idx].line;
        let Some(name) = self.t.get(fn_idx + 1).and_then(Token::ident).map(str::to_owned) else {
            return fn_idx + 1; // `fn` in type position (fn-pointer); skip
        };
        let mut i = fn_idx + 2;
        if self.t.get(i).is_some_and(|t| t.is_punct('<')) {
            i = self.skip_angles(i, end);
        }
        // Parameters.
        let mut params = Vec::new();
        let mut has_receiver = false;
        if self.t.get(i).is_some_and(|t| t.is_punct('(')) {
            let close = matching_paren(self.t, i, end);
            let mut groups = Vec::new();
            split_top_level_commas(&self.t[i + 1..close.saturating_sub(1)], &mut groups);
            for g in groups {
                if g.iter().any(|t| t.is_ident("self")) && params.is_empty() {
                    has_receiver = true;
                    continue;
                }
                params.push(parse_param(g));
            }
            i = close;
        }
        // Return type: tokens between `->` and `{` / `;` / `where`.
        let mut ret = None;
        let mut j = i;
        while j < end {
            let t = &self.t[j];
            if t.is_punct('{') || t.is_punct(';') || t.is_ident("where") {
                break;
            }
            j += 1;
        }
        if self.t[i..j].windows(2).next().is_some() {
            ret = first_type_ident(&self.t[i..j], true);
        }
        // Skip a `where` clause to the body.
        while j < end && !self.t[j].is_punct('{') && !self.t[j].is_punct(';') {
            j += 1;
        }
        let (body, next) = if self.t.get(j).is_some_and(|t| t.is_punct('{')) {
            let e = matching_brace(self.t, j, end);
            (Some((j, e)), e)
        } else {
            (None, j.saturating_add(1).min(end))
        };
        let is_test = self.mask.get(fn_idx).copied().unwrap_or(false);
        self.out.fns.push(FnItem {
            name,
            owner: owner.map(str::to_owned),
            trait_name: tr.map(str::to_owned),
            sig_line,
            fn_idx,
            body,
            params,
            ret,
            has_receiver,
            is_test,
        });
        next
    }

    fn impl_item(&mut self, i: usize, end: usize) -> usize {
        // `impl <generics>? Type {` or `impl <generics>? Trait for Type {`.
        let mut j = i + 1;
        if self.t.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j, end);
        }
        let mut open = j;
        while open < end && !self.t[open].is_punct('{') && !self.t[open].is_punct(';') {
            open += 1;
        }
        if !self.t.get(open).is_some_and(|t| t.is_punct('{')) {
            return open.saturating_add(1).min(end);
        }
        // Split the header at a top-level `for` (HRTB `for<` excluded).
        let header = &self.t[j..open];
        let for_pos = header.iter().enumerate().position(|(k, t)| {
            t.is_ident("for") && !header.get(k + 1).is_some_and(|n| n.is_punct('<'))
        });
        let (trait_name, type_toks) = match for_pos {
            Some(k) => (first_type_ident(&header[..k], false), &header[k + 1..]),
            None => (None, header),
        };
        // Stop the self-type at a `where` clause.
        let wh = type_toks.iter().position(|t| t.is_ident("where")).unwrap_or(type_toks.len());
        let owner = first_type_ident(&type_toks[..wh], false);
        let close = matching_brace(self.t, open, end);
        self.items(open + 1, close.saturating_sub(1), owner.as_deref(), trait_name.as_deref());
        close
    }

    fn trait_item(&mut self, i: usize, end: usize) -> usize {
        let name = self.t.get(i + 1).and_then(Token::ident).map(str::to_owned);
        let mut open = i + 1;
        while open < end && !self.t[open].is_punct('{') && !self.t[open].is_punct(';') {
            open += 1;
        }
        if !self.t.get(open).is_some_and(|t| t.is_punct('{')) {
            return open.saturating_add(1).min(end);
        }
        let close = matching_brace(self.t, open, end);
        self.items(open + 1, close.saturating_sub(1), name.as_deref(), name.as_deref());
        close
    }

    fn mod_item(&mut self, i: usize, end: usize, owner: Option<&str>, tr: Option<&str>) -> usize {
        let mut open = i + 1;
        while open < end && !self.t[open].is_punct('{') && !self.t[open].is_punct(';') {
            open += 1;
        }
        if !self.t.get(open).is_some_and(|t| t.is_punct('{')) {
            return open.saturating_add(1).min(end); // `mod name;`
        }
        let close = matching_brace(self.t, open, end);
        self.items(open + 1, close.saturating_sub(1), owner, tr);
        close
    }

    /// A `counters! { … struct X { a, b } }` invocation: the struct's
    /// fields carry no written type; the macro makes each a `Counter`.
    fn counters_item(&mut self, i: usize, end: usize) -> usize {
        let Some(open) = (i + 2..end).find(|&k| self.t[k].is_punct('{')) else { return end };
        let close = matching_brace(self.t, open, end);
        if let Some(s) = (open + 1..close).find(|&k| self.t[k].is_ident("struct")) {
            self.struct_item(s, close, Some("Counter"));
        }
        close
    }

    /// A `struct` item; `bare_field_ty` types fields written without one
    /// (the `counters!` form).
    fn struct_item(&mut self, i: usize, end: usize, bare_field_ty: Option<&str>) -> usize {
        let Some(name) = self.t.get(i + 1).and_then(Token::ident).map(str::to_owned) else {
            return i + 1;
        };
        let mut j = i + 2;
        if self.t.get(j).is_some_and(|t| t.is_punct('<')) {
            j = self.skip_angles(j, end);
        }
        // Tuple struct `struct X(…);` or unit `struct X;`: no named fields.
        while j < end && !self.t[j].is_punct('{') && !self.t[j].is_punct(';') {
            if self.t[j].is_punct('(') {
                j = matching_paren(self.t, j, end);
                continue;
            }
            j += 1;
        }
        if !self.t.get(j).is_some_and(|t| t.is_punct('{')) {
            return j.saturating_add(1).min(end);
        }
        let close = matching_brace(self.t, j, end);
        let mut groups = Vec::new();
        split_top_level_commas(&self.t[j + 1..close.saturating_sub(1)], &mut groups);
        let mut fields = Vec::new();
        for g in groups {
            let g = field_declaration(g);
            let field = match (parse_param(g), bare_field_ty) {
                (Param { name: Some(n), ty: Some(ty) }, _) => Some((n, ty)),
                (_, Some(ty)) => g.last().and_then(Token::ident).map(|n| (n.into(), ty.into())),
                _ => None,
            };
            fields.extend(field);
        }
        self.out.structs.push(StructItem { name, fields });
        close
    }

    fn skip_attr(&self, i: usize, end: usize) -> usize {
        let mut j = i + 1;
        if self.t.get(j).is_some_and(|t| t.is_punct('!')) {
            j += 1;
        }
        if self.t.get(j).is_some_and(|t| t.is_punct('[')) {
            return matching_bracket(self.t, j, end);
        }
        i + 1
    }

    fn skip_to_semi(&self, i: usize, end: usize) -> usize {
        let mut j = i;
        while j < end {
            if self.t[j].is_punct(';') {
                return j + 1;
            }
            if self.t[j].is_punct('{') {
                j = matching_brace(self.t, j, end);
                continue;
            }
            j += 1;
        }
        end
    }

    fn skip_braced_or_semi(&self, i: usize, end: usize) -> usize {
        let mut j = i;
        while j < end && !self.t[j].is_punct('{') && !self.t[j].is_punct(';') {
            j += 1;
        }
        if self.t.get(j).is_some_and(|t| t.is_punct('{')) {
            matching_brace(self.t, j, end)
        } else {
            j.saturating_add(1).min(end)
        }
    }

    /// Past the `>` closing the `<` at `i`; `>` belonging to `->` is not
    /// counted (function types in bounds).
    fn skip_angles(&self, i: usize, end: usize) -> usize {
        let mut depth = 0i64;
        let mut j = i;
        while j < end {
            if self.t[j].is_punct('<') {
                depth += 1;
            } else if self.t[j].is_punct('>') && !(j > 0 && self.t[j - 1].is_punct('-')) {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            j += 1;
        }
        end
    }
}

fn matching(t: &[Token], start: usize, end: usize, open: char, close: char) -> usize {
    let mut depth = 0usize;
    let mut i = start;
    while i < end.min(t.len()) {
        if t[i].is_punct(open) {
            depth += 1;
        } else if t[i].is_punct(close) {
            depth = depth.saturating_sub(1);
            if depth == 0 {
                return i + 1;
            }
        }
        i += 1;
    }
    end.min(t.len())
}

/// Past the `)` matching the `(` at `start`.
pub fn matching_paren(t: &[Token], start: usize, end: usize) -> usize {
    matching(t, start, end, '(', ')')
}

/// Past the `}` matching the `{` at `start`.
pub fn matching_brace(t: &[Token], start: usize, end: usize) -> usize {
    matching(t, start, end, '{', '}')
}

/// Past the `]` matching the `[` at `start`.
pub fn matching_bracket(t: &[Token], start: usize, end: usize) -> usize {
    matching(t, start, end, '[', ']')
}

/// Splits `toks` into groups at commas outside any nesting.
pub(crate) fn split_top_level_commas<'a>(toks: &'a [Token], out: &mut Vec<&'a [Token]>) {
    let (mut depth, mut start) = (0i64, 0usize);
    for (i, t) in toks.iter().enumerate() {
        match &t.kind {
            TokenKind::Punct('(') | TokenKind::Punct('[') | TokenKind::Punct('{') => depth += 1,
            TokenKind::Punct(')') | TokenKind::Punct(']') | TokenKind::Punct('}') => depth -= 1,
            TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct('>') if !(i > 0 && toks[i - 1].is_punct('-')) => depth -= 1,
            TokenKind::Punct(',') if depth == 0 => {
                if i > start {
                    out.push(&toks[start..i]);
                }
                start = i + 1;
            }
            _ => {}
        }
    }
    if start < toks.len() {
        out.push(&toks[start..]);
    }
}

/// A struct field group without its attributes and visibility, so that
/// `#[x] pub(crate) name: Type` parses like `name: Type`.
fn field_declaration(mut g: &[Token]) -> &[Token] {
    while g.first().is_some_and(|t| t.is_punct('#')) && g.get(1).is_some_and(|t| t.is_punct('[')) {
        g = &g[matching_bracket(g, 1, g.len())..];
    }
    if g.first().is_some_and(|t| t.is_ident("pub")) {
        g = &g[1..];
        if g.first().is_some_and(|t| t.is_punct('(')) {
            g = &g[matching_paren(g, 0, g.len())..];
        }
    }
    g
}

/// Parses one `pattern: Type` group (a parameter or a struct field).
fn parse_param(g: &[Token]) -> Param {
    // The first top-level `:` that is not part of `::`.
    let mut depth = 0i64;
    let mut colon = None;
    let mut i = 0usize;
    while i < g.len() {
        match &g[i].kind {
            TokenKind::Punct('(')
            | TokenKind::Punct('[')
            | TokenKind::Punct('{')
            | TokenKind::Punct('<') => depth += 1,
            TokenKind::Punct(')')
            | TokenKind::Punct(']')
            | TokenKind::Punct('}')
            | TokenKind::Punct('>') => depth -= 1,
            TokenKind::Punct(':') if depth == 0 => {
                if g.get(i + 1).is_some_and(|n| n.is_punct(':')) {
                    i += 2;
                    continue;
                }
                colon = Some(i);
                break;
            }
            _ => {}
        }
        i += 1;
    }
    let Some(c) = colon else { return Param { name: None, ty: None } };
    let pat = &g[..c];
    let name = match pat {
        [one] => one.ident().map(str::to_owned),
        [m, one] if m.is_ident("mut") => one.ident().map(str::to_owned),
        _ => None,
    };
    Param { name, ty: first_type_ident(&g[c + 1..], false) }
}

/// First path ident of a type token run, skipping `&`, `mut`, `dyn`,
/// `impl`, lifetimes and (when `skip_wrappers`) `Option`/`Result`.
/// Returns `None` for tuples, slices of primitives, and fn-pointer types.
fn first_type_ident(toks: &[Token], skip_wrappers: bool) -> Option<String> {
    let mut i = 0usize;
    // A leading `->` from a return-type run.
    while i < toks.len() {
        match &toks[i].kind {
            TokenKind::Punct('-')
            | TokenKind::Punct('>')
            | TokenKind::Punct('&')
            | TokenKind::Punct('<')
            | TokenKind::Punct('[') => i += 1,
            TokenKind::Lifetime => i += 1,
            TokenKind::Ident(s) if s == "mut" || s == "dyn" || s == "impl" => i += 1,
            TokenKind::Ident(s) if skip_wrappers && (s == "Option" || s == "Result") => i += 1,
            TokenKind::Ident(s) if s == "fn" => return None,
            TokenKind::Punct('(') => return None,
            TokenKind::Ident(s) => {
                // A path prefix (`shrimp_mem::PhysAddr`): take the last
                // segment before generics.
                if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                    && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                {
                    i += 3;
                    continue;
                }
                return Some(s.clone());
            }
            _ => return None,
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::test_region_mask;

    fn items(src: &str) -> FileItems {
        let lexed = lex(src);
        let mask = test_region_mask(&lexed.tokens);
        parse_items(&lexed, &mask)
    }

    #[test]
    fn finds_free_and_impl_fns_with_owners() {
        let it = items(
            "fn free(a: u64) -> u64 { a }\n\
             struct Foo { bar: Baz }\n\
             impl Foo {\n    pub fn method(&self, x: &mut Qux) -> Option<Val> { x.go() }\n}\n\
             impl Drop for Foo {\n    fn drop(&mut self) {}\n}\n",
        );
        assert_eq!(it.fns.len(), 3);
        assert_eq!(it.fns[0].name, "free");
        assert!(it.fns[0].owner.is_none() && !it.fns[0].has_receiver);
        assert_eq!(it.fns[1].name, "method");
        assert_eq!(it.fns[1].owner.as_deref(), Some("Foo"));
        assert!(it.fns[1].has_receiver);
        assert_eq!(it.fns[1].params[0].name.as_deref(), Some("x"));
        assert_eq!(it.fns[1].params[0].ty.as_deref(), Some("Qux"));
        assert_eq!(it.fns[1].ret.as_deref(), Some("Val"), "Option wrapper skipped");
        assert_eq!(it.fns[2].owner.as_deref(), Some("Foo"));
        assert_eq!(it.fns[2].trait_name.as_deref(), Some("Drop"));
        assert_eq!(it.structs[0].fields, vec![("bar".to_owned(), "Baz".to_owned())]);
    }

    #[test]
    fn counters_macro_fields_are_counters() {
        let it = items(
            "shrimp_sim::counters! {\n    /// Doc.\n    pub struct Hits {\n        /// A.\n        \
             a,\n        b,\n    }\n}\n",
        );
        let fields = &it.structs[0].fields;
        assert_eq!(it.structs[0].name, "Hits");
        assert_eq!(fields, &vec![("a".into(), "Counter".into()), ("b".into(), "Counter".into())]);
    }

    #[test]
    fn generic_impls_and_paths_resolve_to_the_base_ident() {
        let it = items(
            "impl<D: Device> Machine<D> {\n\
                 fn mem_mut(&mut self) -> &mut shrimp_mem::PhysMemory { &mut self.mem }\n\
             }\n",
        );
        assert_eq!(it.fns[0].owner.as_deref(), Some("Machine"));
        assert_eq!(it.fns[0].ret.as_deref(), Some("PhysMemory"));
    }

    #[test]
    fn bodies_are_token_ranges_and_nested_fns_are_separate_items() {
        let it = items("fn outer() {\n    fn inner() { work(); }\n    inner();\n}\n");
        assert_eq!(it.fns.len(), 1, "nested fns stay inside the outer body range");
        assert!(it.fns[0].body.is_some());
    }

    #[test]
    fn test_fns_are_flagged() {
        let it = items("#[test]\nfn case() { assert!(true); }\nfn real() {}\n");
        assert!(it.fns[0].is_test);
        assert!(!it.fns[1].is_test);
    }

    #[test]
    fn consts_with_brace_initializers_do_not_derail_the_scan() {
        let it = items("const X: u32 = { 4 + 4 };\nstatic S: &str = \"s\";\nfn after() {}\n");
        assert_eq!(it.fns.len(), 1);
        assert_eq!(it.fns[0].name, "after");
    }

    #[test]
    fn marker_binding_skips_attributes_and_doc_comments() {
        let it = items(
            "// lint:hot_path\n#[inline]\n#[allow(dead_code)]\n/// Doc comment.\nfn fast() {}\n",
        );
        let idx = it.fn_at_or_after(1).expect("binds");
        assert_eq!(it.fns[idx].name, "fast");
    }

    #[test]
    fn trait_default_methods_carry_the_trait_as_owner() {
        let it = items("trait Port {\n    fn go(&mut self, n: u64) { self.raw(n) }\n    fn raw(&mut self, n: u64);\n}\n");
        assert_eq!(it.fns.len(), 2);
        assert_eq!(it.fns[0].owner.as_deref(), Some("Port"));
        assert!(it.fns[1].body.is_none());
    }
}
