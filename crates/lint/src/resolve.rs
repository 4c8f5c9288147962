//! Name resolution (syntactic) over the item layer.
//!
//! The facilities every structural rule and the flow pass share:
//!
//! * [`Resolver`] — per-file `use`-alias resolution: maps every locally
//!   bound import name to its full path, so `Clock::now()` after
//!   `use std::time::Instant as Clock;` resolves to
//!   `std::time::Instant::now`.
//! * [`walk`] — the one body walk: steps through a token span keeping a
//!   [`Bindings`] table in step with block scopes and `let` statements
//!   (each binding's syntactic type comes from its `:` annotation or the
//!   constructor path on the RHS, honouring shadowing and scope exit).
//! * [`receiver`] — what the receiver of a method call names: `self`, a
//!   `self.field`, a tracked binding, or a field reached through one.
//! * [`crate_of`] / [`dep_crate`] — workspace-crate attribution for the
//!   cross-file rules.
//!
//! Everything here is resolution of what is *written*, not of what the
//! compiler would infer: a binding with no annotation and an opaque RHS
//! has no type, and that is fine — rules only act on what they can see.

use std::collections::BTreeMap;
use std::path::Path;

use crate::items::{type_at, FieldDecl, FileMap};
use crate::lex::{is_path_sep, Tok};

/// Per-file import resolution.
#[derive(Debug, Default)]
pub struct Resolver {
    map: BTreeMap<String, Vec<String>>,
}

impl Resolver {
    pub fn new(items: &FileMap) -> Self {
        let mut map = BTreeMap::new();
        for u in &items.uses {
            if let Some(name) = u.local_name() {
                // First import of a name wins; duplicates are a compile
                // error anyway.
                map.entry(name.to_string())
                    .or_insert_with(|| u.path.clone());
            }
        }
        Resolver { map }
    }

    /// Expands a written path or type through the alias map: an imported
    /// head segment is replaced by the full path it was imported from.
    pub fn expand(&self, segments: &[String]) -> Vec<String> {
        match segments.first().and_then(|h| self.map.get(h)) {
            Some(full) => full.iter().chain(&segments[1..]).cloned().collect(),
            None => segments.to_vec(),
        }
    }
}

/// Reads the `::`-separated path expression starting at token `i`,
/// returning its segments and the index just past them.
pub fn path_at(toks: &[Tok], mut i: usize) -> (Vec<String>, usize) {
    let mut segs = Vec::new();
    while let Some(seg) = toks.get(i).and_then(|t| t.ident()) {
        segs.push(seg.to_string());
        i += 1;
        if is_path_sep(toks, i) {
            i += 2;
        } else {
            break;
        }
    }
    (segs, i)
}

/// One tracked binding (a `let` or a fn parameter).
#[derive(Debug, Clone)]
pub struct Binding {
    pub name: String,
    pub line: usize,
    /// Identifier tokens of the declared/constructed type (annotation
    /// first; else the RHS constructor path), alias-expanded head
    /// included. Empty when nothing syntactic names a type.
    pub ty: Vec<String>,
}

/// Block-scoped binding table of one [`walk`]; lookups see innermost
/// bindings first.
#[derive(Debug, Default)]
pub struct Bindings {
    scopes: Vec<Vec<Binding>>,
}

impl Bindings {
    pub fn enter(&mut self) {
        self.scopes.push(Vec::new());
    }

    pub fn exit(&mut self) {
        self.scopes.pop();
    }

    /// The number of open scopes.
    pub fn depth(&self) -> usize {
        self.scopes.len()
    }

    pub fn declare(&mut self, b: Binding) {
        if let Some(top) = self.scopes.last_mut() {
            top.push(b);
        }
    }

    /// The innermost binding with this name, if tracked.
    pub fn lookup(&self, name: &str) -> Option<&Binding> {
        self.scopes
            .iter()
            .rev()
            .find_map(|s| s.iter().rev().find(|b| b.name == name))
    }
}

/// Parses a `let` statement whose `let` keyword sits at token `i`,
/// returning the binding (with its syntactic type, alias-expanded via
/// `res`) and the index just past the pattern/annotation — or `None` for
/// destructuring patterns and `_`.
pub fn let_binding_at(toks: &[Tok], mut i: usize, res: &Resolver) -> Option<(Binding, usize)> {
    debug_assert!(toks[i].is_ident("let"));
    i += 1;
    if toks.get(i).is_some_and(|t| t.is_ident("mut")) {
        i += 1;
    }
    let name = toks.get(i)?.ident()?.to_string();
    if name == "_" {
        return None;
    }
    let line = toks[i].line;
    i += 1;
    let ty = if toks.get(i).is_some_and(|t| t.is_punct(':')) && !is_path_sep(toks, i) {
        let (ty, next) = type_at(toks, i + 1, toks.len(), &['=', ';']);
        i = next;
        ty
    } else if toks.get(i).is_some_and(|t| t.is_punct('=')) {
        // No annotation: the RHS head path minus its trailing constructor
        // segment (`HashMap::with_capacity` names the type; a bare call or
        // method chain names nothing).
        let (segs, _) = path_at(toks, i + 1);
        segs.split_last()
            .map_or(Vec::new(), |(_, head)| head.to_vec())
    } else {
        Vec::new()
    };
    // `Map<u64>` after `use … ::HashMap as Map;` is seen as a HashMap.
    let ty = res.expand(&ty);
    Some((Binding { name, line, ty }, i))
}

/// The one body walk: steps through `toks[from..to]`, keeping `binds` in
/// step with the block scopes and `let` bindings it passes, and hands
/// every other token index to `visit` (braces after their scope change),
/// which returns the index to resume at.
pub fn walk(
    toks: &[Tok],
    from: usize,
    to: usize,
    res: &Resolver,
    binds: &mut Bindings,
    mut visit: impl FnMut(usize, &Bindings) -> usize,
) {
    let mut i = from;
    while i < to {
        let t = &toks[i];
        if t.is_punct('{') {
            binds.enter();
        } else if t.is_punct('}') {
            binds.exit();
        } else if t.is_ident("let") {
            if let Some((b, next)) = let_binding_at(toks, i, res) {
                binds.declare(b);
                i = next;
                continue;
            }
        }
        i = visit(i, binds);
    }
}

/// What the receiver ident at `r` names (`r` is two tokens before the
/// method name in `recv.m(…)`).
pub enum Recv<'a> {
    /// `self.m(…)` — the enclosing impl type.
    SelfDirect,
    /// `self.field.m(…)` — the field's declaration line and alias-expanded
    /// written type.
    SelfField(usize, Vec<String>),
    /// `x.m(…)` — a tracked binding.
    Binding(&'a Binding),
    /// `x.field.m(…)` — state reachable from binding `x` (good enough for
    /// ownership attribution, not for method lookup).
    BindingChain(&'a Binding),
    Opaque,
}

/// Resolves the receiver ident at `r` against the file's struct fields
/// and the walk's bindings.
pub fn receiver<'a>(
    toks: &[Tok],
    fields: &[FieldDecl],
    res: &Resolver,
    binds: &'a Bindings,
    r: usize,
) -> Recv<'a> {
    let Some(x) = toks.get(r).and_then(|t| t.ident()) else {
        return Recv::Opaque;
    };
    if r >= 2 && toks[r - 1].is_punct('.') {
        // A one-level chain `head.x`.
        let h = r - 2;
        if h > 0 && toks[h - 1].is_punct('.') {
            return Recv::Opaque;
        }
        if toks[h].is_ident("self") {
            return fields
                .iter()
                .find(|fd| fd.name == x)
                .map_or(Recv::Opaque, |fd| {
                    Recv::SelfField(fd.line, res.expand(&fd.ty))
                });
        }
        return match toks[h].ident().and_then(|head| binds.lookup(head)) {
            Some(b) => Recv::BindingChain(b),
            None => Recv::Opaque,
        };
    }
    if x == "self" {
        return Recv::SelfDirect;
    }
    binds.lookup(x).map_or(Recv::Opaque, Recv::Binding)
}

/// The workspace crate owning `rel` (a root-relative path), i.e. the
/// `<name>` in `crates/<name>/…`.
pub fn crate_of(rel: &Path) -> Option<String> {
    let s = rel.to_string_lossy().replace('\\', "/");
    let rest = s.strip_prefix("crates/")?;
    let (name, _) = rest.split_once('/')?;
    Some(name.to_string())
}

/// Maps an imported crate identifier (`smart_rt`, `smart`) or a
/// Cargo.toml dependency name (`smart-rt`, `smart`) to its workspace
/// crate directory name (`rt`, `core`).
pub fn dep_crate(name: &str) -> Option<String> {
    let name = name.replace('-', "_");
    if name == "smart" {
        return Some("core".to_string());
    }
    name.strip_prefix("smart_").map(str::to_string)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items::parse;
    use crate::lex::lex;
    use std::path::PathBuf;

    fn setup(src: &str) -> (Vec<Tok>, Resolver) {
        let toks = lex(src).toks;
        let items = parse(&toks);
        let res = Resolver::new(&items);
        (toks, res)
    }

    #[test]
    fn alias_expansion_sees_through_renames() {
        let (toks, res) = setup("use std::time::Instant as Clock;\nfn f() { Clock::now(); }\n");
        let at = toks.iter().position(|t| t.is_ident("Clock")).unwrap();
        // Skip the use-decl occurrence; find the usage.
        let at = toks[at + 1..]
            .iter()
            .position(|t| t.is_ident("Clock"))
            .unwrap()
            + at
            + 1;
        let (segs, _) = path_at(&toks, at);
        assert_eq!(res.expand(&segs).join("::"), "std::time::Instant::now");
    }

    #[test]
    fn plain_imports_resolve_to_their_full_path() {
        let (_, res) = setup("use std::collections::HashMap;\n");
        assert_eq!(
            res.expand(&["HashMap".to_string()]),
            ["std", "collections", "HashMap"]
        );
    }

    #[test]
    fn let_bindings_capture_annotation_and_rhs_types() {
        let src = "use std::collections::HashMap as Map;\nfn f() { let a: Map<u64, u64> = Map::new(); let b = Map::with_capacity(4); let c = helper(); }\n";
        let (toks, res) = setup(src);
        let lets: Vec<usize> = toks
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("let"))
            .map(|(i, _)| i)
            .collect();
        let (a, _) = let_binding_at(&toks, lets[0], &res).unwrap();
        assert!(a.ty.contains(&"HashMap".to_string()), "{:?}", a.ty);
        let (b, _) = let_binding_at(&toks, lets[1], &res).unwrap();
        assert!(b.ty.contains(&"HashMap".to_string()), "{:?}", b.ty);
        let (c, _) = let_binding_at(&toks, lets[2], &res).unwrap();
        assert!(c.ty.is_empty(), "{:?}", c.ty);
    }

    #[test]
    fn bindings_respect_scopes_and_shadowing() {
        let mut b = Bindings::default();
        b.enter();
        b.declare(Binding {
            name: "m".into(),
            line: 1,
            ty: vec!["HashMap".into()],
        });
        b.enter();
        b.declare(Binding {
            name: "m".into(),
            line: 2,
            ty: vec!["BTreeMap".into()],
        });
        assert_eq!(b.lookup("m").unwrap().ty, vec!["BTreeMap"]);
        b.exit();
        assert_eq!(b.lookup("m").unwrap().ty, vec!["HashMap"]);
        b.exit();
        assert!(b.lookup("m").is_none());
    }

    #[test]
    fn crate_attribution() {
        assert_eq!(
            crate_of(&PathBuf::from("crates/rt/src/executor.rs")).as_deref(),
            Some("rt")
        );
        assert_eq!(crate_of(&PathBuf::from("tests/lint.rs")), None);
        assert_eq!(dep_crate("smart-rnic").as_deref(), Some("rnic"));
        assert_eq!(dep_crate("smart").as_deref(), Some("core"));
        assert_eq!(dep_crate("serde"), None);
    }
}
