//! The `smart-flow` pass: workspace call graph + effect inference.
//!
//! Builds a call graph over every fn defined in [`crate::rules::SIM_CRATES`]
//! sources, seeds each fn's *intrinsic* effect signature from its body
//! (see [`crate::effects`] for the lattice and seed tables), and joins
//! signatures to a fixed point over the SCC-condensed graph. Everything
//! is deterministic: files arrive sorted, adjacency lists are sorted,
//! and Tarjan's walk visits nodes in index order — two runs produce
//! byte-identical effect tables.
//!
//! Callee resolution is syntactic and deliberately conservative:
//!
//! * `self.m(…)` / `Self::m(…)` → methods of the enclosing impl type;
//! * `recv.m(…)` where `recv` is a typed `let` binding or fn param →
//!   methods of the first workspace type named in the written type
//!   (alias-expanded through [`crate::resolve::Resolver`]);
//! * `self.field.m(…)` → methods of the field's workspace type;
//! * `Type::m(…)` → methods of `Type` if the workspace defines it,
//!   alias-expanded first;
//! * `smart_x::f(…)` / `crate::…::f(…)` → free fns named `f` in that
//!   crate;
//! * bare `f(…)` → fns named `f` in the same file, else the unique
//!   workspace free fn of that name;
//! * anything still unresolved links to the unique workspace method of
//!   that name, unless the name is in the `UBIQUITOUS` deny list
//!   (std-vocabulary like `len`/`push`/`clone`, where a unique workspace
//!   homonym would wire unrelated std calls into the graph).
//!
//! Closure parameters are untyped, so edges through them may be missed —
//! the name-based seed tables still catch the primitive effects at such
//! call sites, which is what the domain rules need.
//!
//! On top of the inferred signatures sit the three domain-isolation
//! rules: `cross-domain-shared-state`, `rc-escape` and `effect-drift`.
//! Their output is the static precondition for the PDES parallel
//! executor (ROADMAP #1): if they are clean, thread- and fabric-domain
//! code share no mutable state outside the RNIC verb interface.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use crate::effects::{
    self, domain_of, intrinsic_root, method_seed, parse_effects_json, Domain, Effects,
    ALLOC_MACROS, ALLOC_PATHS, EFFECTS_PATH,
};
use crate::items::{self, FnItem};
use crate::lex::{is_path_sep, Tok};
use crate::resolve::{self, Binding, Bindings, Recv, Resolver};
use crate::rules::{diag, Diagnostic, SourceFile};

/// Method names so common in std that an unresolved call may never link
/// to a workspace homonym: a unique workspace `len` must not adopt every
/// `Vec::len` call site in the tree.
const UBIQUITOUS: &[&str] = &[
    "new",
    "default",
    "clone",
    "len",
    "is_empty",
    "get",
    "get_mut",
    "insert",
    "remove",
    "push",
    "pop",
    "iter",
    "iter_mut",
    "into_iter",
    "next",
    "poll",
    "fmt",
    "from",
    "into",
    "take",
    "replace",
    "contains",
    "contains_key",
    "extend",
    "clear",
    "drain",
    "cmp",
    "eq",
    "hash",
    "drop",
    "min",
    "max",
    "clamp",
    "abs",
    "map",
    "and_then",
    "unwrap_or",
    "read",
    "write",
    "flush",
    "start",
    "finish",
    "run",
    "tick",
    "reset",
    "push_back",
    "pop_front",
    "front",
    "back",
    "name",
    "id",
    "kind",
    "index",
    "as_ref",
    "as_mut",
    "to_owned",
    "borrow",
    "split",
    "merge",
    "apply",
    "record",
    "render",
    "get_or_insert_with",
    "entry",
    "or_default",
    "or_insert_with",
    "set",
    "borrow_mut",
    "swap",
    "count",
    "sum",
    "last",
    "first",
    "sort",
    "retain",
    "keys",
    "values",
];

/// One call site the domain-isolation rules judge: a `SharedMut` call
/// whose receiver resolved to a workspace type (`cross-domain-shared-state`),
/// or an `Rc` handle captured inside a `.spawn(…)` argument (`rc-escape`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Site {
    pub line: usize,
    /// The written receiver head (`c` in `c.hits.set(…)`), or the
    /// captured binding.
    pub name: String,
    /// The workspace type owning the mutated state, or inside the `Rc`.
    pub ty: String,
    /// The crate defining `ty`.
    pub krate: String,
}

/// One fn in the workspace call graph.
#[derive(Debug)]
pub struct FnNode {
    /// Index into the sim-file slice the graph was built from.
    pub file_idx: usize,
    /// Root-relative path with `/` separators.
    pub file: String,
    pub krate: String,
    pub impl_type: Option<String>,
    pub name: String,
    pub line: usize,
    /// Effects seeded from this body alone.
    pub intrinsic: Effects,
    /// Fixed-point effects (intrinsic ∪ everything reachable).
    pub effects: Effects,
    /// Sorted, deduplicated callee node ids.
    pub callees: Vec<usize>,
    pub shared_sites: Vec<Site>,
    pub escape_sites: Vec<Site>,
}

impl FnNode {
    /// `crate::Type::fn` (or `crate::fn` for free fns) — the name the
    /// effect table and `EFFECTS.json` key on.
    pub fn qualified(&self) -> String {
        match &self.impl_type {
            Some(t) => format!("{}::{}::{}", self.krate, t, self.name),
            None => format!("{}::{}", self.krate, self.name),
        }
    }
}

/// The workspace call graph with fixed-point effect signatures.
#[derive(Debug, Default)]
pub struct FlowGraph {
    pub nodes: Vec<FnNode>,
    /// Type name → defining crates (a name may be declared in several).
    pub types: BTreeMap<String, BTreeSet<String>>,
    /// Number of strongly connected components.
    pub scc_count: usize,
}

/// Lookup tables pass B resolves call edges against.
struct Tables {
    /// `(impl type, method name)` → node ids.
    methods: BTreeMap<(String, String), Vec<usize>>,
    /// fn name → node ids (methods and free fns).
    by_name: BTreeMap<String, Vec<usize>>,
    /// Per file: fn name → node ids defined in that file.
    file_fns: Vec<BTreeMap<String, Vec<usize>>>,
    /// Whether each node is a method.
    is_method: Vec<bool>,
    node_crate: Vec<String>,
}

impl FlowGraph {
    /// Builds the graph over `files` (the sim-crate sources, in sorted
    /// path order) and runs effect propagation to its fixed point.
    pub fn build(files: &[&SourceFile]) -> FlowGraph {
        let mut g = FlowGraph::default();
        let mut node_of: Vec<Vec<Option<usize>>> = Vec::with_capacity(files.len());

        // Pass A — nodes and the type table.
        for (fi, f) in files.iter().enumerate() {
            let krate = resolve::crate_of(&f.rel).unwrap_or_default();
            for t in &f.items.types {
                g.types.entry(t.clone()).or_default().insert(krate.clone());
            }
            let mut ids = Vec::with_capacity(f.items.fns.len());
            for item in &f.items.fns {
                if item.body.is_none() {
                    ids.push(None);
                    continue;
                }
                ids.push(Some(g.nodes.len()));
                g.nodes.push(FnNode {
                    file_idx: fi,
                    file: f.rel_str(),
                    krate: krate.clone(),
                    impl_type: item.impl_type.clone(),
                    name: item.name.clone(),
                    line: item.line,
                    intrinsic: intrinsic_root(&krate, &item.name),
                    effects: Effects::EMPTY,
                    callees: Vec::new(),
                    shared_sites: Vec::new(),
                    escape_sites: Vec::new(),
                });
            }
            node_of.push(ids);
        }

        let mut tables = Tables {
            methods: BTreeMap::new(),
            by_name: BTreeMap::new(),
            file_fns: vec![BTreeMap::new(); files.len()],
            is_method: g.nodes.iter().map(|n| n.impl_type.is_some()).collect(),
            node_crate: g.nodes.iter().map(|n| n.krate.clone()).collect(),
        };
        for (id, n) in g.nodes.iter().enumerate() {
            if let Some(t) = &n.impl_type {
                tables
                    .methods
                    .entry((t.clone(), n.name.clone()))
                    .or_default()
                    .push(id);
            }
            tables.by_name.entry(n.name.clone()).or_default().push(id);
            tables.file_fns[n.file_idx]
                .entry(n.name.clone())
                .or_default()
                .push(id);
        }

        // Pass B — body walks: intrinsic effects, edges, rule sites.
        for (fi, f) in files.iter().enumerate() {
            let krate = resolve::crate_of(&f.rel).unwrap_or_default();
            let res = Resolver::new(&f.items);
            for (k, item) in f.items.fns.iter().enumerate() {
                let Some(id) = node_of[fi][k] else { continue };
                let out = scan_fn(f, fi, &krate, item, &res, &tables, &g.types);
                let n = &mut g.nodes[id];
                n.intrinsic = n.intrinsic.join(out.intrinsic);
                n.callees = out.callees.into_iter().filter(|c| *c != id).collect();
                n.shared_sites = out.shared;
                n.escape_sites = out.escapes;
            }
        }

        g.propagate();
        g
    }

    /// SCC-condensed fixed-point propagation: Tarjan emits components
    /// callees-first, so one sweep in emission order suffices.
    fn propagate(&mut self) {
        let adj: Vec<&[usize]> = self.nodes.iter().map(|n| n.callees.as_slice()).collect();
        let comps = tarjan(&adj);
        self.scc_count = comps.len();
        for comp in &comps {
            let mut eff = Effects::EMPTY;
            for &id in comp {
                eff = eff.join(self.nodes[id].intrinsic);
                for &c in &self.nodes[id].callees {
                    // Cross-component callees are finalized already;
                    // same-component callees contribute their intrinsic
                    // via the member loop.
                    eff = eff.join(self.nodes[c].effects);
                }
            }
            for &id in comp {
                self.nodes[id].effects = eff;
            }
        }
    }

    /// Total number of call edges.
    pub fn edge_count(&self) -> usize {
        self.nodes.iter().map(|n| n.callees.len()).sum()
    }

    /// Fixed-point effects for a qualified name, unioned over every fn
    /// sharing it (overload sets stay deterministic). `None` if no fn
    /// has that name.
    pub fn effects_of(&self, qualified: &str) -> Option<Effects> {
        let mut found = None;
        for n in &self.nodes {
            if n.qualified() == qualified {
                found = Some(found.unwrap_or(Effects::EMPTY).join(n.effects));
            }
        }
        found
    }

    /// The rendered effect table: one line per fn, sorted by qualified
    /// name then location — byte-identical across runs.
    pub fn render_table(&self) -> String {
        let mut rows: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                format!(
                    "{}  {}:{}  {}",
                    n.qualified(),
                    n.file,
                    n.line,
                    n.effects.render()
                )
            })
            .collect();
        rows.sort();
        let mut out = format!(
            "smart-flow effect table — {} fns, {} edges, {} SCCs\n",
            self.nodes.len(),
            self.edge_count(),
            self.scc_count
        );
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
        out
    }

    /// The effects artifact: one JSON object per fn, sorted like the
    /// rendered table.
    pub fn effects_jsonl(&self) -> String {
        let mut rows: Vec<String> = self
            .nodes
            .iter()
            .map(|n| {
                let atoms: Vec<String> =
                    n.effects.names().iter().map(|a| format!("\"{a}\"")).collect();
                format!(
                    "{{\"fn\":\"{}\",\"file\":\"{}\",\"line\":{},\"intrinsic\":{},\"effects\":[{}]}}",
                    n.qualified(),
                    n.file,
                    n.line,
                    n.intrinsic == n.effects,
                    atoms.join(",")
                )
            })
            .collect();
        rows.sort();
        rows.join("\n") + "\n"
    }

    /// The call-graph artifact: one JSON edge per line, deduplicated by
    /// qualified names and sorted.
    pub fn callgraph_jsonl(&self) -> String {
        let mut rows: BTreeSet<String> = BTreeSet::new();
        for n in &self.nodes {
            for &c in &n.callees {
                rows.insert(format!(
                    "{{\"from\":\"{}\",\"to\":\"{}\"}}",
                    n.qualified(),
                    self.nodes[c].qualified()
                ));
            }
        }
        let mut out = String::new();
        for r in rows {
            out.push_str(&r);
            out.push('\n');
        }
        out
    }
}

/// What one fn-body walk found.
struct ScanOut {
    intrinsic: Effects,
    callees: BTreeSet<usize>,
    shared: Vec<Site>,
    escapes: Vec<Site>,
}

/// The crate defining type `name`, as seen from `krate`: the scanning
/// crate's own declaration wins, else a globally unique one; an
/// ambiguous name resolves to nothing.
fn type_crate<'a>(
    types: &'a BTreeMap<String, BTreeSet<String>>,
    name: &str,
    krate: &str,
) -> Option<&'a str> {
    let set = types.get(name)?;
    if set.contains(krate) {
        return set.get(krate).map(String::as_str);
    }
    if set.len() == 1 {
        return set.iter().next().map(String::as_str);
    }
    None
}

/// The first workspace type named in a written type's ident list, with
/// its defining crate.
fn first_workspace_type<'a>(
    types: &'a BTreeMap<String, BTreeSet<String>>,
    ty: &[String],
    krate: &str,
) -> Option<(String, &'a str)> {
    ty.iter()
        .find_map(|s| type_crate(types, s, krate).map(|c| (s.clone(), c)))
}

/// The `(` that calls the ident at `i`: right after it, or after a
/// turbofish (`collect::<Vec<_>>(`).
fn call_paren(toks: &[Tok], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if is_path_sep(toks, j) && toks.get(j + 2).is_some_and(|t| t.is_punct('<')) {
        let mut depth = 0;
        for (k, t) in toks.iter().enumerate().skip(j + 2) {
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') && !toks[k - 1].is_punct('-') {
                depth -= 1;
                if depth == 0 {
                    j = k + 1;
                    break;
                }
            }
        }
    }
    toks.get(j).is_some_and(|t| t.is_punct('(')).then_some(j)
}

/// Walks one fn body, seeding intrinsic effects and resolving call
/// edges and rule sites.
fn scan_fn(
    f: &SourceFile,
    file_idx: usize,
    krate: &str,
    item: &FnItem,
    res: &Resolver,
    tables: &Tables,
    types: &BTreeMap<String, BTreeSet<String>>,
) -> ScanOut {
    let toks = &f.lex.toks;
    let (open, close) = item.body.expect("scan_fn only runs on fns with bodies");
    let mut out = ScanOut {
        intrinsic: Effects::EMPTY,
        callees: BTreeSet::new(),
        shared: Vec::new(),
        escapes: Vec::new(),
    };
    let mut binds = Bindings::default();
    binds.enter();
    for p in &item.params {
        binds.declare(Binding {
            name: p.name.clone(),
            line: p.line,
            ty: res.expand(&p.ty),
        });
    }
    resolve::walk(toks, open + 1, close, res, &mut binds, |i, binds| {
        let t = &toks[i];
        let Some(name) = t.ident() else {
            return i + 1;
        };
        let prev_dot = i >= 1 && toks[i - 1].is_punct('.');
        let next_bang = toks.get(i + 1).is_some_and(|n| n.is_punct('!'));

        if name == "await" && prev_dot {
            out.intrinsic = out.intrinsic.join(Effects::AWAIT);
        } else if next_bang && ALLOC_MACROS.contains(&name) {
            out.intrinsic = out.intrinsic.join(Effects::ALLOC);
        } else if let Some(open) = call_paren(toks, i).filter(|_| prev_dot) {
            // Method call.
            let seed = method_seed(name);
            out.intrinsic = out.intrinsic.join(seed);
            let recv = resolve::receiver(toks, &f.items.fields, res, binds, i - 2);
            if seed.contains(Effects::SHARED_MUT) {
                record_shared_site(&recv, types, krate, t.line, &mut out.shared);
            }
            if seed.contains(Effects::SPAWN) {
                record_escapes(toks, binds, types, krate, open, close, &mut out.escapes);
            }
            let edge_type = match &recv {
                Recv::SelfDirect => item.impl_type.clone(),
                Recv::SelfField(_, ty) => first_workspace_type(types, ty, krate).map(|(t, _)| t),
                Recv::Binding(b) => first_workspace_type(types, &b.ty, krate).map(|(t, _)| t),
                // The method lives on the *field's* type, which is not
                // written here — leave it to the fallback.
                Recv::BindingChain(_) | Recv::Opaque => None,
            };
            let mut linked = false;
            if let Some(ty) = edge_type {
                if let Some(ids) = tables.methods.get(&(ty, name.to_string())) {
                    out.callees.extend(ids.iter().copied());
                    linked = true;
                }
            }
            if !linked && !UBIQUITOUS.contains(&name) {
                let methods_named: Vec<usize> = tables
                    .by_name
                    .get(name)
                    .map(|v| {
                        v.iter()
                            .copied()
                            .filter(|&id| tables.is_method[id])
                            .collect()
                    })
                    .unwrap_or_default();
                if methods_named.len() == 1 {
                    out.callees.insert(methods_named[0]);
                }
            }
        } else if !(prev_dot || i >= 2 && is_path_sep(toks, i - 2)) {
            // Path head or bare call.
            let (segs, after) = resolve::path_at(toks, i);
            if toks.get(after).is_some_and(|n| n.is_punct('(')) && !segs.is_empty() {
                resolve_path_call(&segs, file_idx, krate, item, res, tables, types, &mut out);
                return after;
            }
        }
        i + 1
    });
    out
}

/// Resolves a call written as a path (`f(…)`, `Type::m(…)`,
/// `smart_x::f(…)`, `Self::m(…)`), seeding `Alloc` for the std
/// allocator constructors.
#[allow(clippy::too_many_arguments)]
fn resolve_path_call(
    segs: &[String],
    file_idx: usize,
    krate: &str,
    item: &FnItem,
    res: &Resolver,
    tables: &Tables,
    types: &BTreeMap<String, BTreeSet<String>>,
    out: &mut ScanOut,
) {
    if segs.len() == 1 {
        return resolve_bare_call(&segs[0], file_idx, tables, out);
    }
    let expanded = res.expand(segs);
    let name = expanded.last().expect("non-empty path").clone();
    let qual = expanded[expanded.len() - 2].clone();
    if ALLOC_PATHS.contains(&(qual.as_str(), name.as_str())) || name == "with_capacity" {
        out.intrinsic = out.intrinsic.join(Effects::ALLOC);
    }
    if qual == "self" || qual == "Self" {
        if let Some(t) = &item.impl_type {
            if let Some(ids) = tables.methods.get(&(t.clone(), name.clone())) {
                out.callees.extend(ids.iter().copied());
            }
        }
        return;
    }
    if type_crate(types, &qual, krate).is_some() {
        if let Some(ids) = tables.methods.get(&(qual, name)) {
            out.callees.extend(ids.iter().copied());
        }
        return;
    }
    // Crate-qualified free fn: `smart_x::…::f(…)` / `crate::…::f(…)`.
    let head = expanded[0].as_str();
    let target = if head == "crate" {
        Some(krate.to_string())
    } else {
        resolve::dep_crate(head)
    };
    if let Some(c) = target {
        if let Some(ids) = tables.by_name.get(&name) {
            out.callees.extend(
                ids.iter()
                    .copied()
                    .filter(|&id| !tables.is_method[id] && tables.node_crate[id] == c),
            );
        }
    }
}

/// Links a bare call `f(…)`: same-file fns first, else the unique
/// workspace free fn of that name (deny-listed names never link).
fn resolve_bare_call(name: &str, file_idx: usize, tables: &Tables, out: &mut ScanOut) {
    if let Some(ids) = tables.file_fns[file_idx].get(name) {
        out.callees.extend(ids.iter().copied());
        return;
    }
    if UBIQUITOUS.contains(&name) {
        return;
    }
    if let Some(ids) = tables.by_name.get(name) {
        let free: Vec<usize> = ids
            .iter()
            .copied()
            .filter(|&id| !tables.is_method[id])
            .collect();
        if free.len() == 1 {
            out.callees.insert(free[0]);
        }
    }
}

/// Records a `SharedMut` site whose state resolves to a workspace type.
///
/// Ownership follows the allocation: a `self.field` receiver only
/// attributes the state to a foreign crate when the field type *shares*
/// it through an `Rc`/`Weak` handle — an owned container
/// (`RefCell<Vec<WorkRequest>>` staging buffers, in-flight maps) embeds
/// the cell in `self` and mutating it is domain-local, no matter what
/// crate declared the element type.
fn record_shared_site(
    recv: &Recv,
    types: &BTreeMap<String, BTreeSet<String>>,
    krate: &str,
    line: usize,
    out: &mut Vec<Site>,
) {
    let (recv_name, ty, owned_field) = match recv {
        Recv::SelfField(_, ty) => ("self", ty, true),
        Recv::Binding(b) | Recv::BindingChain(b) => (b.name.as_str(), &b.ty, false),
        Recv::SelfDirect | Recv::Opaque => return,
    };
    if let Some((state_ty, state_crate)) = first_workspace_type(types, ty, krate) {
        if owned_field {
            // Only the outermost wrapper decides: `Rc<Qp>` is a shared
            // handle, but `RefCell<BTreeMap<_, Rc<Qp>>>` is an owned map
            // that merely stores handles — mutating the map is local.
            let shared = matches!(ty.first().map(String::as_str), Some("Rc" | "Weak"));
            if !shared {
                return;
            }
        }
        out.push(Site {
            line,
            name: recv_name.to_string(),
            ty: state_ty,
            krate: state_crate.to_string(),
        });
    }
}

/// Records `Rc<WorkspaceType>` bindings captured inside the argument
/// span of a `.spawn(…)` whose argument list opens at `open`.
fn record_escapes(
    toks: &[Tok],
    binds: &Bindings,
    types: &BTreeMap<String, BTreeSet<String>>,
    krate: &str,
    open: usize,
    body_close: usize,
    out: &mut Vec<Site>,
) {
    let close = items::matching(toks, open, '(', ')').min(body_close);
    let line = toks[open].line;
    let mut seen: BTreeSet<String> = BTreeSet::new();
    for j in open + 1..close {
        let Some(name) = toks[j].ident() else {
            continue;
        };
        if j >= 1 && toks[j - 1].is_punct('.') {
            continue; // field/method position, not a capture
        }
        if !seen.insert(name.to_string()) {
            continue;
        }
        let Some(b) = binds.lookup(name) else {
            continue;
        };
        if !b.ty.iter().any(|s| s == "Rc") {
            continue;
        }
        if let Some((inner_ty, inner_crate)) = first_workspace_type(types, &b.ty, krate) {
            out.push(Site {
                line,
                name: name.to_string(),
                ty: inner_ty,
                krate: inner_crate.to_string(),
            });
        }
    }
}

/// Iterative Tarjan SCC. Components come back in emission order —
/// every component is emitted after all components it can reach, so a
/// single forward sweep computes the fixed point.
fn tarjan(adj: &[&[usize]]) -> Vec<Vec<usize>> {
    let n = adj.len();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut counter = 0usize;
    // (node, next child offset)
    let mut call: Vec<(usize, usize)> = Vec::new();
    for start in 0..n {
        if index[start] != usize::MAX {
            continue;
        }
        call.push((start, 0));
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci == 0 {
                index[v] = counter;
                low[v] = counter;
                counter += 1;
                stack.push(v);
                on_stack[v] = true;
            }
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
                continue;
            }
            // v is done.
            if low[v] == index[v] {
                let mut comp = Vec::new();
                loop {
                    let w = stack.pop().expect("tarjan stack underflow");
                    on_stack[w] = false;
                    comp.push(w);
                    if w == v {
                        break;
                    }
                }
                comp.sort_unstable();
                comps.push(comp);
            }
            call.pop();
            if let Some(&mut (parent, _)) = call.last_mut() {
                low[parent] = low[parent].min(low[v]);
            }
        }
    }
    comps
}

// ---------------------------------------------------------------------------
// The three domain-isolation rules
// ---------------------------------------------------------------------------

/// Runs the whole flow pass: builds the graph over the sim sources in
/// `files` and evaluates the three rules.
pub fn flow_pass(root: &Path, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let sim: Vec<&SourceFile> = files.iter().filter(|f| f.is_sim_src()).collect();
    let g = FlowGraph::build(&sim);
    domain_isolation(&g, &sim, out);
    effect_drift(root, &g, out);
}

/// Builds the effect graph for reporting (`--effects` and artifacts).
pub fn build_graph(files: &[SourceFile]) -> FlowGraph {
    let sim: Vec<&SourceFile> = files.iter().filter(|f| f.is_sim_src()).collect();
    FlowGraph::build(&sim)
}

/// Rules 15 and 16, over the thread and fabric domains. Kernel and
/// observer domains are exempt: the kernel *is* the scheduler, and the
/// observers never feed state back into the simulation. Under PDES
/// (ROADMAP #1) the two domains run on different OS threads with
/// lookahead equal to the fabric latency, so they may meet only through
/// fabric verbs.
///
/// `cross-domain-shared-state`: code of one domain mutating the other's
/// state through interior mutability, without a fabric verb in the same
/// fn — a data race the sequential executor happens to serialize. Fns
/// with an intrinsic `Fabric` effect are the boundary itself — their
/// mutations ride the verb path. One finding per line.
///
/// `rc-escape`: an `Rc` handle to the other domain's type captured
/// across a `.spawn(…)` boundary. The new coroutine aliases
/// foreign-domain state outside the verb interface, which PDES cannot
/// serialize; pass ids or route through the RNIC instead. One finding
/// per captured name.
pub fn domain_isolation(g: &FlowGraph, sim: &[&SourceFile], out: &mut Vec<Diagnostic>) {
    let isolated =
        |krate: &str| domain_of(krate).filter(|d| matches!(d, Domain::Thread | Domain::Fabric));
    let mut seen: BTreeSet<(&str, &str, usize, &str)> = BTreeSet::new();
    for n in &g.nodes {
        let Some(dom) = isolated(&n.krate) else {
            continue;
        };
        let boundary = n.intrinsic.contains(Effects::FABRIC);
        let shared = n.shared_sites.iter().filter(|_| !boundary);
        let sites = shared.map(|s| ("cross-domain-shared-state", s));
        for (rule, s) in sites.chain(n.escape_sites.iter().map(|s| ("rc-escape", s))) {
            let Some(sdom) = isolated(&s.krate).filter(|&d| d != dom) else {
                continue;
            };
            let escape = rule == "rc-escape";
            let key = (
                rule,
                n.file.as_str(),
                s.line,
                if escape { s.name.as_str() } else { "" },
            );
            if !seen.insert(key) {
                continue;
            }
            let (q, dn, sn) = (n.qualified(), dom.name(), sdom.name());
            let msg = if escape {
                format!(
                    "`{}` (an Rc<{}>, {sn}-domain crate `{}`) is captured across a spawn \
                     boundary in {dn}-domain `{q}`; the new coroutine aliases foreign-domain \
                     state outside the verb interface",
                    s.name, s.ty, s.krate
                )
            } else {
                format!(
                    "`{q}` ({dn}-domain) mutates `{}` state via `{}`, owned by {sn}-domain crate \
                     `{}`, with no fabric verb in scope; cross-domain effects must travel as \
                     WR traffic or the PDES lookahead claim breaks",
                    s.ty, s.name, s.krate
                )
            };
            diag(sim[n.file_idx], s.line, rule, msg, out);
        }
    }
}

/// Rule 17 — `effect-drift`: the inferred signatures of the pinned
/// entry points in `EFFECTS.json` must match the committed baseline, so
/// hot-path fns cannot silently grow `Clock`/`Rng`/`SharedMut` effects.
/// A missing baseline file disables the rule (fixture trees); a
/// malformed one is itself a finding.
pub fn effect_drift(root: &Path, g: &FlowGraph, out: &mut Vec<Diagnostic>) {
    let path = root.join(EFFECTS_PATH);
    let Ok(text) = std::fs::read_to_string(&path) else {
        return;
    };
    let entries = match parse_effects_json(&text) {
        Ok(e) => e,
        Err(e) => {
            let msg = format!("cannot parse effect baseline: {e}");
            out.push(Diagnostic::new(EFFECTS_PATH, 1, "effect-drift", msg));
            return;
        }
    };
    for pin in &entries {
        let msg = match g.effects_of(&pin.entry) {
            None => format!(
                "pinned entry `{}` no longer resolves to any workspace fn; \
                 update EFFECTS.json (smart-lint --update-effects) or restore the fn",
                pin.entry
            ),
            Some(got) if got != pin.effects => format!(
                "pinned entry `{}` now infers {} but the baseline says {}; \
                 if intentional, run smart-lint --update-effects and review the diff",
                pin.entry,
                got.render(),
                pin.effects.render()
            ),
            Some(_) => continue,
        };
        out.push(Diagnostic::new(EFFECTS_PATH, pin.line, "effect-drift", msg));
    }
}

/// Recomputes the baseline: keeps the entry list of the existing
/// `EFFECTS.json` and rewrites each entry's effect set from the current
/// graph. Entries that no longer resolve are kept with their old
/// effects (the drift rule will keep flagging them until resolved).
pub fn update_effects_file(root: &Path, g: &FlowGraph) -> Result<String, String> {
    let path = root.join(EFFECTS_PATH);
    let text = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let entries = parse_effects_json(&text)?;
    let updated: Vec<(String, Effects)> = entries
        .iter()
        .map(|p| (p.entry.clone(), g.effects_of(&p.entry).unwrap_or(p.effects)))
        .collect();
    let rendered = effects::render_effects_json(&updated);
    std::fs::write(&path, &rendered)
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    Ok(rendered)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn file(rel: &str, src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from(rel), src)
    }

    fn graph(files: &[SourceFile]) -> FlowGraph {
        let refs: Vec<&SourceFile> = files.iter().collect();
        FlowGraph::build(&refs)
    }

    #[test]
    fn typed_param_resolves_the_method_edge_and_propagates() {
        let files = vec![
            file(
                "crates/core/src/user.rs",
                "use smart_rt::SimHandle;\npub fn stamp(h: &SimHandle) -> u64 { helper(h) }\nfn helper(h: &SimHandle) -> u64 { h.now() }\n",
            ),
            file(
                "crates/rt/src/handle.rs",
                "pub struct SimHandle;\nimpl SimHandle { pub fn now(&self) -> u64 { 0 } }\n",
            ),
        ];
        let g = graph(&files);
        assert_eq!(g.nodes.len(), 3);
        // rt's own `now` is a root.
        assert_eq!(
            g.effects_of("rt::SimHandle::now"),
            Some(Effects::CLOCK),
            "\n{}",
            g.render_table()
        );
        // helper: name seed + edge; stamp: bare-call edge to helper.
        assert_eq!(g.effects_of("core::helper"), Some(Effects::CLOCK));
        assert_eq!(g.effects_of("core::stamp"), Some(Effects::CLOCK));
    }

    #[test]
    fn scc_cycles_reach_the_fixed_point() {
        let files = vec![file(
            "crates/core/src/cycle.rs",
            "pub fn ping(h: &H, n: u64) { if n > 0 { pong(h, n - 1); } }\npub fn pong(h: &H, n: u64) { h.sleep(1); ping(h, n); }\n",
        )];
        let g = graph(&files);
        assert!(g.scc_count >= 1);
        assert_eq!(g.effects_of("core::ping"), Some(Effects::CLOCK));
        assert_eq!(g.effects_of("core::pong"), Some(Effects::CLOCK));
    }

    #[test]
    fn shared_and_escape_sites_resolve_workspace_types() {
        let files = vec![
            file(
                "crates/rnic/src/state.rs",
                "use std::cell::Cell;\npub struct FabricCounter { pub hits: Cell<u64> }\n",
            ),
            file(
                "crates/race/src/bad.rs",
                "use std::rc::Rc;\nuse smart_rnic::state::FabricCounter;\n\
                 pub fn tally(c: &Rc<FabricCounter>) { c.hits.set(7); }\n\
                 pub fn leak(h: &SimHandle, c: &Rc<FabricCounter>) {\n\
                     let stash: Rc<FabricCounter> = Rc::clone(c);\n\
                     h.spawn(async move { stash.hits.get(); });\n\
                 }\n",
            ),
        ];
        let g = graph(&files);
        let tally = g
            .nodes
            .iter()
            .find(|n| n.name == "tally")
            .expect("tally node");
        assert_eq!(tally.shared_sites.len(), 1, "{:?}", tally.shared_sites);
        assert_eq!(tally.shared_sites[0].ty, "FabricCounter");
        assert_eq!(tally.shared_sites[0].krate, "rnic");
        assert!(tally.intrinsic.contains(Effects::SHARED_MUT));
        let leak = g
            .nodes
            .iter()
            .find(|n| n.name == "leak")
            .expect("leak node");
        assert_eq!(leak.escape_sites.len(), 1, "{:?}", leak.escape_sites);
        assert_eq!(leak.escape_sites[0].name, "stash");
        assert_eq!(leak.escape_sites[0].krate, "rnic");
        assert!(leak.intrinsic.contains(Effects::SPAWN));
    }

    #[test]
    fn domain_local_mutation_and_fabric_mediated_sites_stay_clean() {
        let files = vec![
            file(
                "crates/rnic/src/state.rs",
                "use std::cell::Cell;\npub struct FabricCounter { pub hits: Cell<u64> }\n\
                 pub struct FabricQp;\nimpl FabricQp { pub fn post_send(&self, _w: u64) {} }\n",
            ),
            file(
                "crates/core/src/ok.rs",
                "use std::cell::Cell;\nuse std::rc::Rc;\n\
                 use smart_rnic::state::{FabricCounter, FabricQp};\n\
                 pub struct LocalTally { pub hits: Cell<u64> }\n\
                 pub fn local(t: &Rc<LocalTally>) { t.hits.set(1); }\n\
                 pub fn submit(qp: &Rc<FabricQp>, c: &Rc<FabricCounter>) {\n\
                     c.hits.set(1);\n\
                     qp.post_send(0);\n\
                 }\n",
            ),
        ];
        let g = graph(&files);
        let sim: Vec<&SourceFile> = files.iter().collect();
        let mut out = Vec::new();
        domain_isolation(&g, &sim, &mut out);
        assert!(
            out.is_empty(),
            "local + fabric-mediated mutations must not fire: {out:#?}"
        );
        // And the mediated fn carries the Fabric effect.
        assert!(g
            .effects_of("core::submit")
            .unwrap()
            .contains(Effects::FABRIC.join(Effects::SHARED_MUT)));
    }

    #[test]
    fn two_builds_render_byte_identical_tables() {
        let files = vec![
            file(
                "crates/rt/src/handle.rs",
                "pub struct SimHandle;\nimpl SimHandle {\n  pub fn now(&self) -> u64 { 0 }\n  pub fn spawn(&self, _f: u64) {}\n}\n",
            ),
            file(
                "crates/core/src/coro.rs",
                "use smart_rt::SimHandle;\npub fn work(h: &SimHandle) { h.spawn(h.now()); }\n",
            ),
        ];
        let a = graph(&files).render_table();
        let b = graph(&files).render_table();
        assert_eq!(a, b);
        assert!(a.contains("core::work"));
        assert!(a.contains("[Clock, Spawn]"), "{a}");
    }

    #[test]
    fn ubiquitous_names_never_link_by_uniqueness() {
        let files = vec![
            file(
                "crates/rt/src/wheel.rs",
                "pub struct Wheel;\nimpl Wheel { pub fn insert(&self, _k: u64) { side_effect(); } }\npub fn side_effect() { h.now(); }\n",
            ),
            file(
                "crates/core/src/user.rs",
                "pub fn fill(v: &mut Vec<u64>) { v.insert(0, 1); }\n",
            ),
        ];
        let g = graph(&files);
        // `insert` is deny-listed: core::fill must NOT inherit Clock
        // through rt::Wheel::insert.
        assert_eq!(g.effects_of("core::fill"), Some(Effects::EMPTY));
    }

    #[test]
    fn tarjan_emits_callees_first() {
        // 0 → 1 → 2, 2 → 1 (cycle {1,2}), 3 isolated.
        let adj: Vec<Vec<usize>> = vec![vec![1], vec![2], vec![1], vec![]];
        let refs: Vec<&[usize]> = adj.iter().map(|v| v.as_slice()).collect();
        let comps = tarjan(&refs);
        assert_eq!(comps.len(), 3);
        assert_eq!(comps[0], vec![1, 2]);
        assert_eq!(comps[1], vec![0]);
        assert_eq!(comps[2], vec![3]);
    }
}
