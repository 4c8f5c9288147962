//! Item and scope extraction over the token stream.
//!
//! Builds a lightweight, purely syntactic map of one file: flattened
//! `use` declarations (groups and `as`-renames resolved to full paths),
//! `fn` items with brace-matched body spans and return-type idents,
//! and `struct` fields with their type idents. No name resolution
//! across files, no generics semantics — just enough structure for the
//! rules to see through renames and track bindings to their scopes.

use crate::lex::{is_path_sep, Tok, TokKind};

/// One flattened `use` leaf: `use a::b::{c as d, e};` yields two.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UseDecl {
    /// 1-based line of the leaf segment (diagnostics point here).
    pub line: usize,
    /// Full path segments, e.g. `["std", "time", "Instant"]`.
    pub path: Vec<String>,
    /// `Some("Clock")` for `as Clock`.
    pub alias: Option<String>,
    /// `use a::b::*;`.
    pub glob: bool,
}

impl UseDecl {
    /// The name this import binds locally (alias if renamed, else the
    /// last path segment). `None` for globs.
    pub fn local_name(&self) -> Option<&str> {
        if self.glob {
            return None;
        }
        self.alias
            .as_deref()
            .or_else(|| self.path.last().map(|s| s.as_str()))
    }
}

/// One `fn` item.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnItem {
    pub name: String,
    /// 1-based line of the `fn` keyword.
    pub line: usize,
    /// Token indices of the body's `{` and its matching `}`; `None` for
    /// trait-method signatures.
    pub body: Option<(usize, usize)>,
    /// Identifier tokens of the return type (`-> Result<Self, E>` gives
    /// `["Result", "Self", "E"]`); empty when the fn returns `()`.
    pub ret: Vec<String>,
    /// The `impl` type this fn sits in, if any.
    pub impl_type: Option<String>,
    /// The simply-named typed parameters (`name: Type`); `self` and
    /// destructuring patterns are left out.
    pub params: Vec<FieldDecl>,
}

impl FnItem {
    /// Heuristic: a constructor builds the value it returns, so its
    /// allocations are setup cost, not per-event cost. True when the
    /// return type names `Self` or the enclosing impl type, or the fn is
    /// `default`.
    pub fn is_constructor(&self) -> bool {
        self.ret.iter().any(|r| r == "Self")
            || self
                .impl_type
                .as_ref()
                .is_some_and(|t| self.ret.iter().any(|r| r == t))
            || self.name == "default"
    }
}

/// One named `struct` field or fn parameter.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldDecl {
    pub name: String,
    pub line: usize,
    /// Identifier tokens of the written type, in order.
    pub ty: Vec<String>,
}

/// The item map of one file.
#[derive(Debug, Default)]
pub struct FileMap {
    pub uses: Vec<UseDecl>,
    pub fns: Vec<FnItem>,
    pub fields: Vec<FieldDecl>,
    /// The names of the nominal types (`struct` or `enum`) declared
    /// here, so cross-file passes can attribute a written type name to
    /// the crate that defines it.
    pub types: Vec<String>,
}

/// Finds the matching close delimiter for the open delimiter at `open`.
/// Counts only the same delimiter pair, which is sound because delimiters
/// in valid Rust (literals and comments scanned out) are balanced.
/// Returns the index of the close token, or the last index if unbalanced
/// (truncated input).
pub fn matching(toks: &[Tok], open: usize, open_c: char, close_c: char) -> usize {
    let mut depth = 0i64;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct(open_c) {
            depth += 1;
        } else if t.is_punct(close_c) {
            depth -= 1;
            if depth == 0 {
                return k;
            }
        }
    }
    toks.len().saturating_sub(1)
}

/// Skips a balanced generic argument list starting at `<`, returning the
/// index just past the matching `>`. Tolerates `>>` (two puncts) since
/// the lexer emits single chars.
pub(crate) fn skip_generics(toks: &[Tok], mut i: usize) -> usize {
    let mut depth = 0i64;
    while i < toks.len() {
        if toks[i].is_punct('<') {
            depth += 1;
        } else if toks[i].is_punct('>') {
            depth -= 1;
            if depth == 0 {
                return i + 1;
            }
        } else if toks[i].is_punct('(') {
            i = matching(toks, i, '(', ')');
        } else if toks[i].is_punct(';') || toks[i].is_punct('{') {
            // Malformed/unexpected: bail rather than eat the file.
            return i;
        }
        i += 1;
    }
    i
}

/// The identifier tokens of a type written from `i` up to the first of
/// `stops` at bracket depth 0 (or `end`), and the index where it stopped.
pub(crate) fn type_at(
    toks: &[Tok],
    mut i: usize,
    end: usize,
    stops: &[char],
) -> (Vec<String>, usize) {
    let mut ty = Vec::new();
    let mut depth = 0i64;
    while i < end {
        match &toks[i].kind {
            TokKind::Punct('<' | '(' | '[') => depth += 1,
            TokKind::Punct('>' | ')' | ']') => depth -= 1,
            TokKind::Punct(c) if depth <= 0 && stops.contains(c) => break,
            TokKind::Ident(s) => ty.push(s.clone()),
            _ => {}
        }
        i += 1;
    }
    (ty, i)
}

/// Parses the token stream into a [`FileMap`].
pub fn parse(toks: &[Tok]) -> FileMap {
    let mut map = FileMap::default();
    let mut impl_stack: Vec<(usize, Option<String>)> = Vec::new(); // (close idx, type)
    let mut i = 0;
    while i < toks.len() {
        while impl_stack.last().is_some_and(|&(close, _)| i > close) {
            impl_stack.pop();
        }
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct('#') if i + 1 < toks.len() && toks[i + 1].is_punct('[') => {
                i = matching(toks, i + 1, '[', ']') + 1;
            }
            TokKind::Ident(kw) if kw == "use" => {
                i = parse_use(toks, i + 1, &mut Vec::new(), &mut map.uses);
            }
            TokKind::Ident(kw) if kw == "impl" => {
                i = parse_impl_header(toks, i + 1, &mut impl_stack);
            }
            TokKind::Ident(kw) if kw == "fn" => {
                let impl_type = impl_stack.last().and_then(|(_, t)| t.clone());
                i = parse_fn(toks, i, impl_type, &mut map.fns);
            }
            TokKind::Ident(kw) if kw == "struct" || kw == "enum" => {
                if let Some(name) = toks.get(i + 1).and_then(|t| t.ident()) {
                    map.types.push(name.to_string());
                }
                if kw == "struct" {
                    i = parse_struct(toks, i + 1, &mut map.fields);
                } else {
                    i += 1;
                }
            }
            _ => {
                i += 1;
            }
        }
    }
    map
}

/// Parses one `use` tree starting just past the `use` keyword (or at a
/// group element), appending flattened leaves. Returns the index past the
/// terminating `;` / `,` / `}`.
fn parse_use(
    toks: &[Tok],
    mut i: usize,
    prefix: &mut Vec<String>,
    out: &mut Vec<UseDecl>,
) -> usize {
    let base_len = prefix.len();
    loop {
        if i >= toks.len() {
            break;
        }
        if toks[i].is_punct('*') {
            out.push(UseDecl {
                line: toks[i].line,
                path: prefix.clone(),
                alias: None,
                glob: true,
            });
            i += 1;
            break;
        }
        if toks[i].is_punct('{') {
            // Group: recurse per element until the matching `}`.
            let close = matching(toks, i, '{', '}');
            i += 1;
            while i < close {
                // An element `parse_use` cannot read (`r#type`, `'x'`)
                // consumes nothing; step past it instead of retrying.
                i = parse_use(toks, i, prefix, out).max(i + 1);
                if i < toks.len() && toks[i].is_punct(',') {
                    i += 1;
                }
            }
            i = close + 1;
            break;
        }
        let Some(seg) = toks[i].ident().map(str::to_string) else {
            break;
        };
        let line = toks[i].line;
        i += 1;
        if seg == "as" {
            // Shouldn't happen (handled below), but don't loop forever.
            break;
        }
        let is_self = seg == "self";
        if !is_self {
            prefix.push(seg);
        }
        if is_path_sep(toks, i) {
            i += 2;
            continue;
        }
        let alias = if i < toks.len() && toks[i].is_ident("as") {
            let a = toks.get(i + 1).and_then(|t| t.ident()).map(str::to_string);
            i += 2;
            a
        } else {
            None
        };
        out.push(UseDecl {
            line,
            path: prefix.clone(),
            alias,
            glob: false,
        });
        break;
    }
    prefix.truncate(base_len);
    // Consume a trailing `;` so the caller resumes at the next item.
    if i < toks.len() && toks[i].is_punct(';') {
        i += 1;
    }
    i
}

/// Parses an `impl` header starting just past the `impl` keyword, pushes
/// the (body close index, self-type name) frame, and returns the index
/// just past the body's `{`.
fn parse_impl_header(
    toks: &[Tok],
    mut i: usize,
    stack: &mut Vec<(usize, Option<String>)>,
) -> usize {
    if i < toks.len() && toks[i].is_punct('<') {
        i = skip_generics(toks, i);
    }
    // Walk to the body `{`, remembering the last path's final ident. For
    // `impl Trait for Type` the walk ends on `Type`'s path; for an
    // inherent impl it ends on the type itself.
    let mut last_ident: Option<String> = None;
    while i < toks.len() && !toks[i].is_punct('{') {
        match &toks[i].kind {
            TokKind::Ident(s) if s == "where" => break,
            TokKind::Ident(s) if s == "for" || s == "dyn" => {
                last_ident = None;
                i += 1;
            }
            TokKind::Ident(s) => {
                last_ident = Some(s.clone());
                i += 1;
            }
            TokKind::Punct('<') => i = skip_generics(toks, i),
            _ => i += 1,
        }
    }
    while i < toks.len() && !toks[i].is_punct('{') {
        i += 1;
    }
    if i < toks.len() {
        let close = matching(toks, i, '{', '}');
        stack.push((close, last_ident));
        i += 1;
    }
    i
}

/// Parses one `fn` item starting at the `fn` keyword; returns the index
/// just past the signature (the body is recorded but not consumed, so
/// nested fns inside it are still visited).
fn parse_fn(toks: &[Tok], at: usize, impl_type: Option<String>, out: &mut Vec<FnItem>) -> usize {
    let line = toks[at].line;
    let mut i = at + 1;
    let Some(name) = toks.get(i).and_then(|t| t.ident()).map(str::to_string) else {
        return i;
    };
    i += 1;
    if i < toks.len() && toks[i].is_punct('<') {
        i = skip_generics(toks, i);
    }
    let mut params = Vec::new();
    if i < toks.len() && toks[i].is_punct('(') {
        let close = matching(toks, i, '(', ')');
        params = parse_params(toks, i + 1, close);
        i = close + 1;
    }
    // Return type: idents between `->` and the body `{` / `;` / `where`.
    let mut ret = Vec::new();
    let has_arrow = i + 1 < toks.len() && toks[i].is_punct('-') && toks[i + 1].is_punct('>');
    if has_arrow {
        i += 2;
        while i < toks.len() {
            match &toks[i].kind {
                TokKind::Punct('{') | TokKind::Punct(';') => break,
                TokKind::Ident(s) if s == "where" => break,
                TokKind::Ident(s) => {
                    ret.push(s.clone());
                    i += 1;
                }
                _ => i += 1,
            }
        }
    }
    // Skip a where clause to the body.
    while i < toks.len() && !toks[i].is_punct('{') && !toks[i].is_punct(';') {
        i += 1;
    }
    let body = if i < toks.len() && toks[i].is_punct('{') {
        Some((i, matching(toks, i, '{', '}')))
    } else {
        None
    };
    out.push(FnItem {
        name,
        line,
        body,
        ret,
        impl_type,
        params,
    });
    i + 1
}

/// Parses the parameters between `i` and the list's `)` at `close`.
fn parse_params(toks: &[Tok], mut i: usize, close: usize) -> Vec<FieldDecl> {
    let mut params = Vec::new();
    while i < close {
        while i < close
            && (toks[i].is_punct('&')
                || toks[i].is_ident("mut")
                || matches!(toks[i].kind, TokKind::Lifetime(_)))
        {
            i += 1;
        }
        if i >= close {
            break;
        }
        let name = toks[i]
            .ident()
            .filter(|&n| n != "self" && toks[i + 1].is_punct(':') && !is_path_sep(toks, i + 1));
        // A pattern that is not a plain name is skipped to the next `,`.
        let (ty, next) = type_at(toks, if name.is_some() { i + 2 } else { i }, close, &[',']);
        if let Some(name) = name {
            params.push(FieldDecl {
                name: name.to_string(),
                line: toks[i].line,
                ty,
            });
        }
        i = next + 1;
    }
    params
}

/// Parses a `struct` item starting just past the keyword, collecting
/// named fields. Tuple structs and unit structs contribute nothing.
fn parse_struct(toks: &[Tok], mut i: usize, out: &mut Vec<FieldDecl>) -> usize {
    // Name, generics.
    if toks.get(i).and_then(|t| t.ident()).is_some() {
        i += 1;
    }
    if i < toks.len() && toks[i].is_punct('<') {
        i = skip_generics(toks, i);
    }
    if i >= toks.len() || !toks[i].is_punct('{') {
        return i; // unit or tuple struct
    }
    let close = matching(toks, i, '{', '}');
    i += 1;
    while i < close {
        // Skip attributes and visibility on the field.
        if toks[i].is_punct('#') && i + 1 < close && toks[i + 1].is_punct('[') {
            i = matching(toks, i + 1, '[', ']') + 1;
            continue;
        }
        if toks[i].is_ident("pub") {
            i += 1;
            if i < close && toks[i].is_punct('(') {
                i = matching(toks, i, '(', ')') + 1;
            }
            continue;
        }
        let Some(name) = toks[i].ident().map(str::to_string) else {
            i += 1;
            continue;
        };
        let line = toks[i].line;
        i += 1;
        if i >= close || !toks[i].is_punct(':') || is_path_sep(toks, i) {
            continue;
        }
        let (ty, next) = type_at(toks, i + 1, close, &[',']);
        i = next;
        out.push(FieldDecl { name, line, ty });
        if i < close && toks[i].is_punct(',') {
            i += 1;
        }
    }
    close + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lex::lex;

    fn map(src: &str) -> FileMap {
        parse(&lex(src).toks)
    }

    #[test]
    fn use_groups_and_aliases_flatten() {
        let m = map("use std::time::{Instant as Clock, Duration};\npub use smart_trace as trace;\nuse std::collections::*;\n");
        assert_eq!(m.uses.len(), 4);
        assert_eq!(m.uses[0].path, vec!["std", "time", "Instant"]);
        assert_eq!(m.uses[0].alias.as_deref(), Some("Clock"));
        assert_eq!(m.uses[0].local_name(), Some("Clock"));
        assert_eq!(m.uses[1].path, vec!["std", "time", "Duration"]);
        assert_eq!(m.uses[1].alias, None);
        assert_eq!(m.uses[2].path, vec!["smart_trace"]);
        assert!(m.uses[3].glob);
        assert_eq!(m.uses[3].path, vec!["std", "collections"]);
    }

    #[test]
    fn use_group_self_keeps_the_prefix_path() {
        let m = map("use std::sync::{self, Mutex};\n");
        assert_eq!(m.uses[0].path, vec!["std", "sync"]);
        assert_eq!(m.uses[1].path, vec!["std", "sync", "Mutex"]);
    }

    #[test]
    fn nested_use_groups() {
        let m = map("use a::{b::{c as d, e}, f};\n");
        let paths: Vec<Vec<&str>> = m
            .uses
            .iter()
            .map(|u| u.path.iter().map(|s| s.as_str()).collect())
            .collect();
        assert_eq!(
            paths,
            vec![vec!["a", "b", "c"], vec!["a", "b", "e"], vec!["a", "f"]]
        );
        assert_eq!(m.uses[0].alias.as_deref(), Some("d"));
    }

    #[test]
    fn unreadable_use_group_elements_terminate() {
        // Parsed on a thread with a deadline, so a parser that stops
        // advancing fails this test instead of hanging the suite.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for src in [
                "use a::{r#type};\n",
                "use a::{'x'};\n",
                "use a::{b, 'x', c};\n",
            ] {
                let paths: Vec<String> = map(src).uses.iter().map(|u| u.path.join("::")).collect();
                tx.send(paths).unwrap();
            }
        });
        let wait = std::time::Duration::from_secs(10);
        for _ in 0..2 {
            rx.recv_timeout(wait).expect("parse_use stopped advancing");
        }
        let mixed = rx.recv_timeout(wait).expect("parse_use stopped advancing");
        assert_eq!(mixed, vec!["a::b", "a::c"]);
    }

    #[test]
    fn fns_get_bodies_rets_and_impl_types() {
        let src = "\
impl TimerWheel {
    pub(crate) fn new() -> Self {
        let x = 1;
        x;
    }
    fn tick(&mut self) { }
}
fn free() -> Result<u32, Error> { Ok(0) }
";
        let m = map(src);
        assert_eq!(m.fns.len(), 3);
        let new = &m.fns[0];
        assert_eq!(new.name, "new");
        assert_eq!(new.ret, vec!["Self"]);
        assert_eq!(new.impl_type.as_deref(), Some("TimerWheel"));
        assert!(new.is_constructor());
        let tick = &m.fns[1];
        assert!(!tick.is_constructor());
        assert!(tick.body.is_some());
        let free = &m.fns[2];
        assert_eq!(free.ret, vec!["Result", "u32", "Error"]);
        assert_eq!(free.impl_type, None);
    }

    #[test]
    fn trait_impl_records_the_self_type() {
        let m = map("impl Default for DoorbellTable { fn default() -> Self { todo() } }");
        assert_eq!(m.fns[0].impl_type.as_deref(), Some("DoorbellTable"));
        assert!(m.fns[0].is_constructor());
    }

    #[test]
    fn struct_fields_capture_type_idents() {
        let m = map("struct Lru<K> { map: HashMap<K, usize>, slab: Vec<Node<K>>, cap: usize }");
        let f: Vec<(&str, Vec<&str>)> = m
            .fields
            .iter()
            .map(|f| {
                (
                    f.name.as_str(),
                    f.ty.iter().map(|s| s.as_str()).collect::<Vec<_>>(),
                )
            })
            .collect();
        assert_eq!(
            f,
            vec![
                ("map", vec!["HashMap", "K", "usize"]),
                ("slab", vec!["Vec", "Node", "K"]),
                ("cap", vec!["usize"]),
            ]
        );
    }

    #[test]
    fn type_decls_cover_structs_and_enums() {
        let m = map("pub struct Doorbell { pub idx: u32 }\nenum WrState { Posted, Done }\npub struct Unit;\n");
        assert_eq!(m.types, vec!["Doorbell", "WrState", "Unit"]);
    }

    #[test]
    fn constructor_heuristic_covers_named_returns() {
        let m = map("impl Simulation { pub fn with_policy(seed: u64) -> Simulation { x } }");
        assert!(m.fns[0].is_constructor(), "returns the impl type by name");
    }
}
