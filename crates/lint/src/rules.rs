//! The seventeen lint rules.
//!
//! Every rule is a pure function from scanned sources to diagnostics;
//! the driver in [`crate::run_lint`] handles file discovery and
//! scanning, and `diag` marks pragma-suppressed findings. The banned
//! APIs of rules 1–4 and 8 are one table, [`BANNED`]: [`banned_apis`]
//! matches its written forms on the tokens of each line of [`crate::lex`]
//! (so `Instant :: now` and `Instant::now` both match while anything
//! inside comments, string literals or `#[cfg(test)]` modules never does)
//! and, as `alias-evasion`, on the resolved paths of renamed or grouped
//! imports. [`fallible_unhandled`] and [`hot_path_alloc`] match per line
//! too. The structural rules ([`await_holding_guard`],
//! [`unordered_iter_binding`], [`panic_in_recovery`], [`layering`]) walk
//! the token stream and the item/scope layer instead, which lets them
//! track bindings and distinguish construction from per-event code. The
//! domain-isolation rules (`cross-domain-shared-state`, `rc-escape`,
//! `effect-drift`) live in [`crate::flow`] on top of the workspace call
//! graph and the effect lattice in [`crate::effects`].
//!
//! `tests/golden_findings.rs` pins the full raw finding set on the real
//! workspace against a committed snapshot, and `tests/banned_table.rs`
//! walks every entry of [`BANNED`].

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

use crate::items::{self, FileMap, FnItem};
use crate::lex::{self, is_path_sep, Lexed, Tok, TokKind};
use crate::resolve::{self, Bindings, Recv, Resolver};

/// Crates whose `src/` trees are simulation code: nothing inside them may
/// observe wall-clock time, OS threads or unordered iteration, because
/// all of it can reach the event queue and break seed-determinism.
pub const SIM_CRATES: &[&str] = &[
    "trace",
    "rt",
    "rnic",
    "core",
    "race",
    "ford",
    "sherman",
    "workloads",
    "check",
    "fault",
    "serve",
];

/// Files on the simulator's per-event hot path: the executor's ready
/// loop and timer wheel (touched once per poll / timer fire) and the
/// RNIC's per-WR dispatch (QP completion and doorbell paths, touched
/// once per work request). A stray `format!` in any of these taxes every
/// simulated event of every run — see [`hot_path_alloc`]. Unlike
/// [`SIM_CRATES`], this list names individual files: the rest of those
/// crates may allocate freely.
pub const HOT_PATHS: &[&str] = &[
    "crates/rt/src/executor.rs",
    "crates/rt/src/wheel.rs",
    "crates/rnic/src/qp.rs",
    "crates/rnic/src/doorbell.rs",
];

/// The PDES engine files: the one place inside the simulation stack that
/// *implements* OS-thread hosting (worker threads, cross-domain
/// channels, the epoch coordinator), so `os-concurrency` — including its
/// alias-evasion arm — does not apply there. Everything the engine hosts
/// still runs single-threaded per domain and stays under the full rule
/// set; this list is deliberately file-granular (not crate-granular) so
/// the rest of `smart-rt` keeps the ban. Like [`HOT_PATHS`], entries are
/// drift-checked against the workspace by [`layering`].
pub const PDES_ENGINE_FILES: &[&str] = &["crates/rt/src/pdes.rs"];

/// The dependency tiers of the simulation stack, lowest first. A crate
/// may depend on any crate in a tier at or below its own; an upward edge
/// inverts the layering (e.g. the event loop reaching into a workload)
/// and is flagged by [`layering`].
pub const LAYERS: &[(&str, u8)] = &[
    ("trace", 0),
    ("rt", 1),
    ("rnic", 2),
    ("core", 3),
    ("race", 4),
    ("ford", 4),
    ("sherman", 4),
    ("workloads", 4),
    ("check", 5),
    ("fault", 5),
    ("serve", 6),
    ("bench", 7),
];

/// Workspace crates outside the simulation stack (tooling): not part of
/// the tier order, and nothing in the stack may depend on them.
pub const NON_SIM_CRATES: &[&str] = &["lint", "plot"];

/// Every rule id, for pragma validation and counting.
pub const RULES: &[&str] = &[
    "wall-clock",
    "os-concurrency",
    "unordered-iter",
    "unseeded-rng",
    "calibration-drift",
    "bench-index-drift",
    "await-holding-guard",
    "rc-identity",
    "fallible-unhandled",
    "hot-path-alloc",
    "alias-evasion",
    "unordered-iter-binding",
    "layering",
    "panic-in-recovery",
    "cross-domain-shared-state",
    "rc-escape",
    "effect-drift",
];

/// The tier of a workspace crate, if it is in the simulation stack.
pub fn layer(name: &str) -> Option<u8> {
    LAYERS.iter().find(|(n, _)| *n == name).map(|&(_, l)| l)
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Path relative to the linted root.
    pub path: PathBuf,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier (e.g. `wall-clock`).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
    /// True when a `lint:allow` pragma covers the site. Suppressed
    /// findings are kept in the raw stream (for the golden snapshot and
    /// `--pragmas` auditing) and filtered before reporting.
    pub suppressed: bool,
}

impl Diagnostic {
    /// A finding no pragma can reach: a manifest, DESIGN.md, the effect
    /// baseline, or a source-level fact not tied to one line of code.
    pub fn new(path: impl Into<PathBuf>, line: usize, rule: &'static str, message: String) -> Self {
        Diagnostic {
            path: path.into(),
            line,
            rule,
            message,
            suppressed: false,
        }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// A scanned and item-mapped workspace source file.
pub struct SourceFile {
    /// Path relative to the linted root, with `/` separators.
    pub rel: PathBuf,
    pub lex: Lexed,
    pub items: FileMap,
}

impl SourceFile {
    /// Scans and item-maps one source.
    pub fn new(rel: PathBuf, src: &str) -> Self {
        let lex = lex::lex(src);
        let items = items::parse(&lex.toks);
        SourceFile { rel, lex, items }
    }

    /// The root-relative path with `/` separators.
    pub fn rel_str(&self) -> String {
        self.rel.to_string_lossy().replace('\\', "/")
    }

    /// True if this file is non-test simulation code.
    pub fn is_sim_src(&self) -> bool {
        let s = self.rel_str();
        SIM_CRATES
            .iter()
            .any(|c| s.starts_with(&format!("crates/{c}/src/")))
    }
}

/// Reports a finding in a source file, suppressed if a pragma covers it.
pub(crate) fn diag(
    file: &SourceFile,
    line: usize,
    rule: &'static str,
    message: String,
    out: &mut Vec<Diagnostic>,
) {
    out.push(Diagnostic {
        suppressed: file.lex.allowed(rule, line),
        ..Diagnostic::new(file.rel.clone(), line, rule, message)
    });
}

// ---------------------------------------------------------------------------
// The banned vocabulary, matched on the tokens of one line at a time
// ---------------------------------------------------------------------------

/// One banned rule: where it holds, its message after the quoted form
/// (`alias-evasion` repeats the fix, the part after "; "), and its
/// entries in report order, each `(quote, written forms, import arm)`.
/// Forms are matched by `written`; on a line, the first entry that
/// matches is the rule's one finding, quoting the entry. With the import
/// arm set, a `use` whose full path names one of the entry's forms (see
/// `imports`) on a line the direct match misses — a rename or a group —
/// is an `alias-evasion` finding.
pub struct Banned {
    pub rule: &'static str,
    /// Banned in every file, tests included; otherwise in sim code only.
    pub everywhere: bool,
    pub tail: &'static str,
    pub bans: &'static [(&'static str, &'static [&'static str], bool)],
}

/// Rules 1–4 and 8. `wall-clock`: sim code is driven by `SimTime` only;
/// real clocks make runs irreproducible. `os-concurrency`: the executor
/// is single-threaded; OS threads and blocking sync primitives mask
/// scheduling bugs (the PDES engine files, [`PDES_ENGINE_FILES`], are the
/// sanctioned exception — they implement the hosting layer the ban
/// protects). `unordered-iter`: `HashMap`/`HashSet` iteration order is
/// randomized per process; if it reaches the event queue, two runs with
/// one seed diverge. `unseeded-rng`: all randomness comes from the seeded
/// PRNG in `smart_rt::rng` — everywhere, tests included. `rc-identity`:
/// `Rc::as_ptr` / `Rc::ptr_eq` expose heap addresses, which vary across
/// runs even with one seed; uses that only compare or count carry a
/// pragma with the argument.
pub const BANNED: [Banned; 5] = [
    Banned {
        rule: "wall-clock",
        everywhere: false,
        tail: "in sim code; only SimTime may drive time",
        bans: &[
            ("Instant::now", &["Instant::now"], false),
            ("std::time::Instant", &["std::time::Instant"], true),
            ("SystemTime", &["*SystemTime"], false),
        ],
    },
    Banned {
        rule: "os-concurrency",
        everywhere: false,
        tail: "in sim code; the executor is single-threaded — use smart_rt::sync primitives",
        bans: &[
            ("std::thread", &["std::thread", "thread::spawn"], true),
            ("std::sync::Mutex", &["std::sync::Mutex"], true),
            ("std::sync::RwLock", &["std::sync::RwLock"], true),
            ("Condvar", &["std::sync::Condvar"], true),
            ("Condvar", &["Condvar"], false),
            (
                "std::sync::{Mutex|RwLock}",
                &["std::sync::{Mutex", "std::sync::{RwLock"],
                false,
            ),
        ],
    },
    Banned {
        rule: "unordered-iter",
        everywhere: false,
        tail: "in sim code; iteration order is unseeded — use BTreeMap/BTreeSet/Vec \
               or justify with lint:allow(unordered-iter)",
        bans: &[
            ("HashMap", &["HashMap"], false),
            ("HashSet", &["HashSet"], false),
        ],
    },
    Banned {
        rule: "unseeded-rng",
        everywhere: true,
        tail: "draws OS entropy; use the seeded smart_rt::rng::SimRng",
        bans: &[
            ("thread_rng", &["thread_rng"], true),
            ("from_entropy", &["from_entropy"], false),
            ("OsRng", &["OsRng"], true),
            ("rand::random", &["rand::random"], true),
        ],
    },
    Banned {
        rule: "rc-identity",
        everywhere: false,
        tail: "exposes a heap address, which is not seed-stable; key on a \
               stable id instead or justify with lint:allow(rc-identity)",
        bans: &[
            ("Rc::as_ptr", &["Rc::as_ptr"], false),
            ("Rc::ptr_eq", &["Rc::ptr_eq"], false),
        ],
    },
];

/// Whether `rule` holds in `file`: its scope, less the PDES engine's
/// OS-thread exemption (the [`PDES_ENGINE_FILES`] are exempt from that
/// ban, and nothing else).
fn in_scope(rule: &Banned, file: &SourceFile) -> bool {
    let engine = PDES_ENGINE_FILES.contains(&file.rel_str().as_str());
    (rule.everywhere || file.is_sim_src()) && !(rule.rule == "os-concurrency" && engine)
}

/// The tokens of a written form.
fn form(text: &str) -> Vec<TokKind> {
    lex::lex(text).toks.into_iter().map(|t| t.kind).collect()
}

/// The source lines of a token stream, as runs of tokens.
fn lines(toks: &[Tok]) -> impl Iterator<Item = &[Tok]> {
    toks.chunk_by(|a, b| a.line == b.line)
}

/// Whether the written form `pat` starts at token `i` of `line`, read as
/// text with the whitespace gone. A form's first identifier may end a
/// longer one and its last may begin one (`std::thread_local` holds
/// `std::thread`), and `*Name` matches inside any identifier. A lone
/// `Name` is a whole word, so it misses when a neighbouring identifier or
/// number runs into it (`HashMap as Map` reads `HashMapasMap`: the rename
/// is the import arm's, and so is `use HashMap`). Any other keyword and a
/// lifetime end a word, as the `&` before them does (`&mut OsRng`,
/// `&'a HashMap`, `return HashMap::new()`). The words after a `{` may
/// come anywhere later on the line (`std::sync::{Arc, Mutex}`).
fn written(line: &[Tok], i: usize, pat: &[TokKind]) -> bool {
    use TokKind::{Ident, Num, Punct};
    let word = |k: usize| match line.get(k).map(|t| &t.kind) {
        Some(Ident(w)) => !KEYWORDS.contains(&w.as_str()) || w == "use" || w == "as",
        Some(Num(_)) => true,
        _ => false,
    };
    let group = pat.iter().position(|p| *p == Punct('{'));
    match (pat, group.filter(|&g| g + 1 < pat.len())) {
        (_, Some(g)) => {
            written(line, i, &pat[..=g])
                && (i + g + 1..line.len()).any(|j| written(line, j, &pat[g + 1..]))
        }
        ([Punct('*'), Ident(name)], _) => line
            .get(i)
            .and_then(Tok::ident)
            .is_some_and(|t| t.contains(name.as_str())),
        ([name], _) => line[i].kind == *name && !(i > 0 && word(i - 1)) && !word(i + 1),
        _ => line.get(i..i + pat.len()).is_some_and(|ts| {
            let last = pat.len() - 1;
            ts.iter()
                .zip(pat)
                .enumerate()
                .all(|(k, (t, p))| match (&t.kind, p) {
                    (Ident(t), Ident(p)) => {
                        t == p
                            || (k == 0 && t.ends_with(p.as_str()))
                            || (k == last && t.starts_with(p.as_str()))
                    }
                    (t, p) => t == p,
                })
        }),
    }
}

/// Whether some written form in `pats` occurs on `line`.
fn on_line(line: &[Tok], pats: &[Vec<TokKind>]) -> bool {
    (0..line.len()).any(|i| pats.iter().any(|p| written(line, i, p)))
}

/// Whether an import's full path names the written form `pat`: it starts
/// with the form's leading segments and names the last one next or at
/// its end (`std::thread::spawn` lies under `std::thread`,
/// `rand::prelude::random` reaches `rand::random`).
fn imports(path: &[String], pat: &str) -> bool {
    let segs: Vec<&str> = pat.split("::").collect();
    let (last, head) = segs.split_last().expect("split yields one piece");
    path.len() > head.len()
        && path.iter().zip(head).all(|(a, b)| a == b)
        && (path[head.len()] == *last || path[path.len() - 1] == *last)
}

/// The direct matches in `file`: `(line, rule, quote)` for each rule in
/// force and each line one of its entries matches.
fn direct_hits(file: &SourceFile) -> Vec<(usize, &'static Banned, &'static str)> {
    let mut hits = Vec::new();
    for rule in BANNED.iter().filter(|r| in_scope(r, file)) {
        let bans: Vec<(&str, Vec<Vec<TokKind>>)> = rule
            .bans
            .iter()
            .map(|&(quote, paths, _)| (quote, paths.iter().map(|p| form(p)).collect()))
            .collect();
        for line in lines(&file.lex.toks) {
            if let Some((quote, _)) = bans.iter().find(|(_, forms)| on_line(line, forms)) {
                hits.push((line[0].line, rule, *quote));
            }
        }
    }
    hits
}

/// Rules 1–4, 8 and 11 over one file: every direct match of [`BANNED`],
/// and — rule 11, `alias-evasion` — every import of a banned path that
/// the direct match cannot see, because a rename or a grouped `use`
/// hides the written form (`use std::time::{Instant as Clock, …}` shows
/// neither `std::time::Instant` nor `Instant::now`). An import the
/// direct match sees on its line stays that rule's finding, so no site
/// is reported twice.
pub fn banned_apis(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let hits = direct_hits(file);
    for &(line, rule, quote) in &hits {
        diag(
            file,
            line,
            rule.rule,
            format!("`{quote}` {}", rule.tail),
            out,
        );
    }
    for u in file.items.uses.iter().filter(|u| !u.glob) {
        let names = |&(_, paths, import): &(_, &[&str], bool)| {
            import && paths.iter().any(|p| imports(&u.path, p))
        };
        let mut in_force = BANNED.iter().filter(|r| in_scope(r, file));
        let Some(rule) = in_force.find(|r| r.bans.iter().any(names)) else {
            continue;
        };
        if hits
            .iter()
            .any(|&(l, r, _)| l == u.line && r.rule == rule.rule)
        {
            continue;
        }
        let (full, bound) = (u.path.join("::"), u.local_name().unwrap_or("_"));
        let fix = rule.tail.split_once("; ").map_or("", |(_, fix)| fix);
        let msg =
            format!("import binds `{full}` as `{bound}`, hiding it from the pattern rules; {fix}");
        diag(file, u.line, "alias-evasion", msg, out);
    }
}

/// The fallible verbs the recovery layer exposes: each returns a
/// `Result` whose `Err` is a typed fault (`FaultError` or an app-level
/// wrapper). Panicking on one throws away the recovery semantics the
/// verb exists to provide.
pub(crate) const FALLIBLE_VERBS: &[&str] = &[
    "try_sync",
    "try_read_sync",
    "try_write_sync",
    "try_cas_sync",
    "try_faa_sync",
    "try_roundtrip",
    "try_get",
];

/// Rule 9 — `fallible-unhandled`: `.unwrap()` / `.expect(…)` on the
/// result of a fallible `try_*` verb in sim code converts a typed,
/// recoverable fault into a panic. Propagate with `?`, match on the
/// error, or degrade deliberately with `unwrap_or_else` (which this
/// rule never matches — a closure is an explicit decision). The scan is
/// statement-granular: chained calls routinely split across lines
/// (`coro.try_sync()\n.await\n.unwrap()`), so lines accumulate until one
/// ends in `;`, `{` or `}`.
pub fn fallible_unhandled(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_sim_src() {
        return;
    }
    let sinks = [".unwrap()", ".expect("].map(form);
    let mut verb: Option<&'static str> = None;
    for line in lines(&file.lex.toks) {
        if verb.is_none() {
            verb = FALLIBLE_VERBS.iter().copied().find(|v| {
                let name = [TokKind::Ident(v.to_string())];
                (0..line.len()).any(|i| {
                    written(line, i, &name) && line.get(i + 1).is_some_and(|t| t.is_punct('('))
                })
            });
        }
        if let Some(v) = verb {
            if let Some(k) = (0..2).find(|&k| on_line(line, &sinks[k..=k])) {
                let sink = [".unwrap()", ".expect(…)"][k];
                diag(
                    file,
                    line[0].line,
                    "fallible-unhandled",
                    format!(
                        "`{sink}` on a `{v}` result panics on a recoverable fault; \
                         propagate with `?` or handle with unwrap_or_else"
                    ),
                    out,
                );
                verb = None;
            }
        }
        if line
            .last()
            .is_some_and(|t| t.is_punct(';') || t.is_punct('{') || t.is_punct('}'))
        {
            verb = None;
        }
    }
}

// ---------------------------------------------------------------------------
// Token/scope rules
// ---------------------------------------------------------------------------

/// True if token `i` is the method name `m` of a `.m(` call.
fn is_method(toks: &[Tok], i: usize, m: &str) -> bool {
    toks[i].is_ident(m)
        && i >= 1
        && toks[i - 1].is_punct('.')
        && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
}

/// Rule 7 — `await-holding-guard`: a probed lock guard
/// (`Semaphore::acquire_guard` / `ContendedLock::enter_as`) bound across
/// an `.await` keeps its lock held through a suspension point — the
/// exact window the `smart-check` atomicity sanitizer hunts. Sim code
/// must release the guard before suspending or justify the hold with a
/// pragma. Token-hosted: acquisitions split across lines are tracked,
/// and a `}` ends exactly the scopes opened before the guard was bound.
pub fn await_holding_guard(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_sim_src() {
        return;
    }
    let toks = &file.lex.toks;
    // `(name, scope depth, line)` of every live guard.
    let mut guards: Vec<(String, usize, usize)> = Vec::new();
    // Start of the current statement, for `let` lookback; `acquiring`
    // marks a statement whose own `.await` is the acquisition itself.
    let mut stmt_start = 0usize;
    let mut acquiring = false;
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    let mut binds = Bindings::default();
    binds.enter();
    let res = Resolver::new(&file.items);
    resolve::walk(toks, 0, toks.len(), &res, &mut binds, |i, binds| {
        let t = &toks[i];
        if t.is_punct('{') || t.is_punct('}') || t.is_punct(';') {
            // Scope exit drops whatever was bound inside it.
            guards.retain(|g| g.1 <= binds.depth());
            stmt_start = i + 1;
            acquiring = false;
        } else if t.is_ident("drop") && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            if let Some(name) = toks.get(i + 2).and_then(|n| n.ident()) {
                if toks.get(i + 3).is_some_and(|n| n.is_punct(')')) {
                    guards.retain(|g| g.0 != name);
                }
            }
        } else if is_method(toks, i, "release") && i >= 2 {
            if let Some(name) = toks[i - 2].ident() {
                guards.retain(|g| g.0 != name);
            }
        } else if is_method(toks, i, "acquire_guard") || is_method(toks, i, "enter_as") {
            if let Some(name) = stmt_let_name(toks, stmt_start, &res) {
                guards.push((name, binds.depth(), t.line));
            }
            acquiring = true;
        } else if t.is_ident("await") && i >= 1 && toks[i - 1].is_punct('.') && !acquiring {
            if let Some((name, _, line)) = guards.last() {
                if flagged.insert(t.line) {
                    diag(
                        file,
                        t.line,
                        "await-holding-guard",
                        format!(
                            "`.await` while guard `{name}` (line {line}) holds its lock; release \
                             before suspending or justify with lint:allow(await-holding-guard)"
                        ),
                        out,
                    );
                }
            }
        }
        i + 1
    });
}

/// The name bound by a `let` statement starting at `start`, if the
/// pattern is a bare name bound by `=` (destructured temporaries drop at
/// statement end and are not tracked).
fn stmt_let_name(toks: &[Tok], mut i: usize, res: &Resolver) -> Option<String> {
    while toks.get(i).is_some_and(|t| t.is_punct('#'))
        && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
    {
        i = items::matching(toks, i + 1, '[', ']') + 1;
    }
    if !toks.get(i)?.is_ident("let") {
        return None;
    }
    let (b, next) = resolve::let_binding_at(toks, i, res)?;
    toks.get(next)?.is_punct('=').then_some(b.name)
}

/// Rule 10 — `hot-path-alloc`: no `format!` / `.to_string()` /
/// `Vec::new()` / `String::new()` in the files listed in [`HOT_PATHS`].
/// These run once per simulated event (executor poll loop, timer wheel,
/// rnic per-WR dispatch), where a hidden allocation or formatting pass
/// is a constant tax on every experiment. Constructor bodies (fns
/// returning `Self`/the impl type, or named `default`) are exempt: their
/// allocations are setup cost, which is exactly what the pragmas this
/// rule used to demand were arguing.
pub fn hot_path_alloc(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    let rel = file.rel_str();
    if !HOT_PATHS.contains(&rel.as_str()) {
        return;
    }
    let ctor_ranges: Vec<(usize, usize)> = file
        .items
        .fns
        .iter()
        .filter(|f| f.is_constructor())
        .filter_map(|f| {
            f.body
                .map(|(o, c)| (file.lex.toks[o].line, file.lex.toks[c].line))
        })
        .collect();
    let pats = ["format!(", ".to_string(", "Vec::new()", "String::new()"];
    let forms = pats.map(form);
    for line in lines(&file.lex.toks) {
        let at = line[0].line;
        if ctor_ranges.iter().any(|&(a, b)| a <= at && at <= b) {
            continue;
        }
        if let Some(k) = (0..pats.len()).find(|&k| on_line(line, &forms[k..=k])) {
            let msg = format!(
                "`{}` in a per-event hot-path file; allocate at construction time \
                 or justify with lint:allow(hot-path-alloc)",
                pats[k]
            );
            diag(file, at, "hot-path-alloc", msg, out);
        }
    }
}

/// Methods whose call on a map/set observes its iteration order.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Rule 12 — `unordered-iter-binding`: iteration over a *binding* whose
/// syntactic type is `HashMap`/`HashSet` — including through a `use …
/// as` rename that defeats the `unordered-iter` substring match. The
/// declaration itself is left to `unordered-iter` when it can see it;
/// this rule only reports maps whose declaration that rule misses, at
/// the point where their unseeded order actually escapes: the
/// iteration.
pub fn unordered_iter_binding(file: &SourceFile, out: &mut Vec<Diagnostic>) {
    if !file.is_sim_src() {
        return;
    }
    let hits = direct_hits(file);
    let toks = &file.lex.toks;
    let res = Resolver::new(&file.items);
    let mut binds = Bindings::default();
    binds.enter();
    let mut flagged: BTreeSet<usize> = BTreeSet::new();
    resolve::walk(toks, 0, toks.len(), &res, &mut binds, |i, binds| {
        let t = &toks[i];
        // `recv.iter()` / `self.field.keys()` …, or `for x in &recv {`
        // — direct iteration of the collection.
        let recv = if ITER_METHODS.iter().any(|m| i >= 2 && is_method(toks, i, m)) {
            Some(i - 2)
        } else if t.is_ident("in") {
            let mut j = i + 1;
            while toks
                .get(j)
                .is_some_and(|n| n.is_punct('&') || n.is_ident("mut"))
            {
                j += 1;
            }
            if toks.get(j).is_some_and(|n| n.is_ident("self"))
                && toks.get(j + 1).is_some_and(|n| n.is_punct('.'))
            {
                j += 2;
            }
            let named = toks.get(j).and_then(|n| n.ident()).is_some();
            (named && toks.get(j + 1).is_some_and(|n| n.is_punct('{'))).then_some(j)
        } else {
            None
        };
        let Some(r) = recv else { return i + 1 };
        let (decl_line, ty) = match resolve::receiver(toks, &file.items.fields, &res, binds, r) {
            Recv::SelfField(line, ty) => (line, ty),
            Recv::Binding(b) => (b.line, b.ty.clone()),
            _ => return i + 1,
        };
        let Some(which) = ty.iter().find(|s| *s == "HashMap" || *s == "HashSet") else {
            return i + 1;
        };
        // If the declaration line names the type openly, `unordered-iter`
        // already owns that finding.
        let open = hits
            .iter()
            .any(|&(l, r, _)| l == decl_line && r.rule == "unordered-iter");
        if !open && flagged.insert(t.line) {
            let name = toks[r].ident().unwrap_or_default();
            let msg = format!(
                "iterating `{name}`, bound as a {which} (unseeded order), in sim code; \
                 use BTreeMap/BTreeSet or impose a seeded order first"
            );
            diag(file, t.line, "unordered-iter-binding", msg, out);
        }
        i + 1
    });
}

/// Rule 13 — `panic-in-recovery`: the `try_*` verbs exist so a fault
/// surfaces as a typed `Err` the caller can recover from; an `unwrap`,
/// `expect`, `panic!` or slice-indexing inside a recovery fn's body (or
/// in a core helper it directly calls) turns an injected fault into a
/// process abort and silently voids the recovery contract. Scans fns
/// named `try_*` defined in `crates/core/src`, one call level deep.
pub fn panic_in_recovery(files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    let core: Vec<&SourceFile> = files
        .iter()
        .filter(|f| f.rel_str().starts_with("crates/core/src/"))
        .collect();
    // Every fn defined in core, by name, for one-level callee lookup.
    let mut defs: BTreeMap<&str, Vec<(usize, &FnItem)>> = BTreeMap::new();
    for (fi, f) in core.iter().enumerate() {
        for item in &f.items.fns {
            defs.entry(item.name.as_str()).or_default().push((fi, item));
        }
    }
    let mut seen: BTreeSet<(String, usize, &'static str)> = BTreeSet::new();
    for f in &core {
        for item in &f.items.fns {
            if !item.name.starts_with("try_") {
                continue;
            }
            let Some((open, close)) = item.body else {
                continue;
            };
            report_panic_sites(f, open, close, &item.name, None, &mut seen, out);
            for callee in direct_callees(&f.lex.toks, open, close, &defs, &item.name) {
                let (cfi, citem) = defs[callee.as_str()][0];
                if let Some((o, c)) = citem.body {
                    report_panic_sites(
                        core[cfi],
                        o,
                        c,
                        &item.name,
                        Some(&citem.name),
                        &mut seen,
                        out,
                    );
                }
            }
        }
    }
}

/// Core fns called directly (bare or as methods) from the body span.
/// Path-qualified calls are kept only for `self`/`Self` qualifiers, so
/// `Vec::new()` never drags an unrelated `new` into the scan; ambiguous
/// names (several core fns sharing one name) are skipped.
fn direct_callees(
    toks: &[Tok],
    open: usize,
    close: usize,
    defs: &BTreeMap<&str, Vec<(usize, &FnItem)>>,
    root_name: &str,
) -> Vec<String> {
    let mut found = BTreeSet::new();
    for i in open + 1..close {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if !toks.get(i + 1).is_some_and(|n| n.is_punct('(')) {
            continue;
        }
        if name.starts_with("try_") || name == root_name {
            continue;
        }
        if i >= 2 && is_path_sep(toks, i - 2) {
            let qualifier = i.checked_sub(3).and_then(|q| toks[q].ident());
            if !matches!(qualifier, Some("self") | Some("Self")) {
                continue;
            }
        }
        if defs.get(name).is_some_and(|v| v.len() == 1) {
            found.insert(name.to_string());
        }
    }
    found.into_iter().collect()
}

/// Rust's keywords, which the lexer leaves as identifiers: none of them
/// is a word a banned name can run into, and none can precede `[` with
/// the bracket being an index.
const KEYWORDS: &[&str] = &[
    "let", "in", "if", "else", "match", "return", "break", "continue", "as", "mut", "ref", "move",
    "loop", "while", "for", "where", "unsafe", "dyn", "impl", "fn", "use", "mod", "static",
    "const", "enum", "struct", "trait", "type", "pub", "crate", "super", "async", "await",
];

fn report_panic_sites(
    f: &SourceFile,
    open: usize,
    close: usize,
    root: &str,
    via: Option<&str>,
    seen: &mut BTreeSet<(String, usize, &'static str)>,
    out: &mut Vec<Diagnostic>,
) {
    let toks = &f.lex.toks;
    for i in open + 1..close {
        let Some((what, line)) = panic_site(toks, i) else {
            continue;
        };
        if seen.insert((f.rel_str(), line, what)) {
            let place = match via {
                Some(callee) => format!("in `{callee}` on the `{root}` recovery path"),
                None => format!("inside recovery fn `{root}`"),
            };
            let msg =
                format!("`{what}` {place}; surface the typed fault as Err instead of panicking");
            diag(f, line, "panic-in-recovery", msg, out);
        }
    }
}

/// A panic-capable token at `i`: `.unwrap()`, `.expect(`, `panic!` or a
/// slice/array index (a `[` whose left side is a value expression).
fn panic_site(toks: &[Tok], i: usize) -> Option<(&'static str, usize)> {
    let what = if is_method(toks, i, "unwrap") {
        ".unwrap()"
    } else if is_method(toks, i, "expect") {
        ".expect(…)"
    } else if toks[i].is_ident("panic") && toks.get(i + 1).is_some_and(|n| n.is_punct('!')) {
        "panic!"
    } else if toks[i].is_punct('[') && i >= 1 {
        match &toks[i - 1].kind {
            TokKind::Punct(')' | ']') => "indexing",
            TokKind::Ident(s) if !KEYWORDS.contains(&s.as_str()) => "indexing",
            _ => return None,
        }
    } else {
        return None;
    };
    Some((what, toks[i].line))
}

/// Rule 14 — `layering`: the simulation stack has one dependency
/// direction (see [`LAYERS`]); an upward edge — in a `use smart_*`
/// import or a `Cargo.toml` `[dependencies]` entry — lets a lower layer
/// reach into policy above it. Also drift-checks the lint's own tables:
/// every crate under `crates/` must be classified, and (in the real
/// workspace) every [`SIM_CRATES`] entry and [`HOT_PATHS`] file must
/// exist on disk.
pub fn layering(root: &Path, files: &[SourceFile], out: &mut Vec<Diagnostic>) {
    // `use smart_*` edges from crate sources.
    for f in files {
        let Some(c) = resolve::crate_of(&f.rel) else {
            continue;
        };
        if !f.rel_str().starts_with(&format!("crates/{c}/src/")) {
            continue;
        }
        for u in &f.items.uses {
            let Some(head) = u.path.first() else { continue };
            if let Some(msg) = layering_edge(&c, head, "imports") {
                diag(f, u.line, "layering", msg, out);
            }
        }
    }

    // Cargo.toml `[dependencies]` edges, plus the unlisted-crate check.
    let mut names: Vec<String> = fs::read_dir(root.join("crates"))
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.path().is_dir())
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    names.sort();
    for name in &names {
        if layer(name).is_none() && !NON_SIM_CRATES.contains(&name.as_str()) {
            let msg = format!(
                "crate `{name}` is not in the lint layer table; add it to LAYERS \
                 (sim stack) or NON_SIM_CRATES (tooling)"
            );
            out.push(Diagnostic::new(
                format!("crates/{name}"),
                1,
                "layering",
                msg,
            ));
            continue;
        }
        let toml_rel = format!("crates/{name}/Cargo.toml");
        let toml = fs::read_to_string(root.join(&toml_rel)).unwrap_or_default();
        for (lineno, dep) in parse_toml_deps(&toml) {
            if let Some(msg) = layering_edge(name, &dep, "depends on") {
                out.push(Diagnostic::new(&toml_rel, lineno, "layering", msg));
            }
        }
    }

    // Drift checks, real-workspace mode only (fixtures carry no root
    // workspace manifest, so their partial crate sets stay legal).
    let root_toml = fs::read_to_string(root.join("Cargo.toml")).unwrap_or_default();
    if !root_toml.contains("[workspace]") {
        return;
    }
    let listed = SIM_CRATES.iter().map(|c| {
        let path = format!("crates/{c}/Cargo.toml");
        let msg = format!(
            "SIM_CRATES names `{c}` but {path} does not exist — \
             the lint's crate list drifted from the workspace"
        );
        (path, msg)
    });
    let hot = HOT_PATHS.iter().map(|h| {
        let msg = format!(
            "HOT_PATHS names `{h}` but it does not exist — \
             the lint's hot-path list drifted from the workspace"
        );
        (h.to_string(), msg)
    });
    let pdes = PDES_ENGINE_FILES.iter().map(|p| {
        let msg = format!(
            "PDES_ENGINE_FILES names `{p}` but it does not exist — \
             the OS-concurrency exemption would silently cover nothing"
        );
        (p.to_string(), msg)
    });
    for (path, msg) in listed.chain(hot).chain(pdes) {
        if !root.join(path).is_file() {
            out.push(Diagnostic::new("Cargo.toml", 1, "layering", msg));
        }
    }
}

/// The finding for a dependency of sim-stack crate `src` on `dep` (an
/// import head or a manifest key, `verb` saying which), if it breaks the
/// tier order or names a crate the layer table does not know.
fn layering_edge(src: &str, dep: &str, verb: &str) -> Option<String> {
    let sl = layer(src)?;
    let depc = resolve::dep_crate(dep).filter(|d| d != src)?;
    match layer(&depc) {
        Some(dl) if sl < dl => Some(format!(
            "`{src}` (tier {sl}) must not depend on `{depc}` (tier {dl}); the tier order is \
             trace < rt < rnic < core < race/ford/sherman/workloads < check/fault < bench"
        )),
        Some(_) => None,
        None => Some(format!(
            "`{src}` {verb} `{dep}`, which is not in the lint layer table"
        )),
    }
}

/// `(line, dependency-name)` entries of a manifest's `[dependencies]`
/// section (dev- and build-dependencies are not layering edges).
fn parse_toml_deps(toml: &str) -> Vec<(usize, String)> {
    let mut out = Vec::new();
    let mut in_deps = false;
    for (i, line) in toml.lines().enumerate() {
        let t = line.trim();
        if t.starts_with('[') {
            in_deps = t == "[dependencies]";
            continue;
        }
        if !in_deps || t.is_empty() || t.starts_with('#') {
            continue;
        }
        if let Some((key, _)) = t.split_once('=') {
            // A dep key may be dotted (`smart-rt.workspace = true`) or
            // quoted; the crate name is the first bare segment.
            let name = key.trim().trim_matches('"');
            let name = name.split('.').next().unwrap_or(name).trim();
            if !name.is_empty() {
                out.push((i + 1, name.to_string()));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------------
// DESIGN.md drift
// ---------------------------------------------------------------------------

/// A numeric config field's default: the first `field:` on a line that
/// holds a number or a `Duration` built from one.
fn field_value(file: &SourceFile, field: &str) -> Option<(usize, f64)> {
    let marker = form(&format!("{field}:"));
    let units = [
        ("Duration::from_nanos(", 1.0),
        ("Duration::from_micros(", 1_000.0),
    ];
    let units = units.map(|(u, scale)| (form(u), scale));
    lines(&file.lex.toks).find_map(|line| {
        let at = (0..line.len()).find(|&i| written(line, i, &marker))? + marker.len();
        let (at, scale) = match units.iter().find(|(u, _)| written(line, at, u)) {
            Some((u, scale)) => (at + u.len(), *scale),
            None => (at, 1.0),
        };
        match &line.get(at)?.kind {
            TokKind::Num(n) => parse_number(n).map(|v| (line[0].line, v * scale)),
            _ => None,
        }
    })
}

/// Parses a leading `f64` allowing `_` separators; `None` if the text
/// does not start with a digit.
fn parse_number(s: &str) -> Option<f64> {
    let cleaned: String = s
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '_' || *c == '.')
        .filter(|c| *c != '_')
        .collect();
    if cleaned.is_empty() || !cleaned.starts_with(|c: char| c.is_ascii_digit()) {
        return None;
    }
    cleaned.trim_end_matches('.').parse().ok()
}

/// Finds the first number in `s`.
fn first_number(s: &str) -> Option<f64> {
    let start = s.find(|c: char| c.is_ascii_digit())?;
    parse_number(&s[start..])
}

/// Finds the number immediately preceding `marker` on the same line.
fn number_before(line: &str, marker: &str) -> Option<f64> {
    let pos = line.find(marker)?;
    let head = line[..pos].trim_end();
    let tail_start = head
        .rfind(|c: char| !(c.is_ascii_digit() || c == '_' || c == '.'))
        .map(|p| p + 1)
        .unwrap_or(0);
    parse_number(&head[tail_start..])
}

/// One DESIGN.md §4 constant and the config default it must match.
struct Calibration {
    /// Finds the constant on one DESIGN.md line.
    anchor: fn(&str) -> Option<f64>,
    /// The phrase reported when no DESIGN.md line holds the constant.
    missing: &'static str,
    /// Whether the fields live in the core config (else the rnic one).
    core: bool,
    /// The config fields read; a finding points at the first one.
    fields: &'static [&'static str],
    /// The value compared with DESIGN.md (`None` if the fields give none).
    derive: fn(&[f64]) -> Option<f64>,
    /// Relative tolerance of the comparison.
    tol: f64,
    /// The drift message from (field values, derived value, DESIGN value).
    drift: fn(&[f64], f64, f64) -> String,
    /// Whether the could-not-parse message names the config file.
    name_file: bool,
}

/// The §4 checks, in report order. The ceiling tolerance is 2.5 % (the
/// doc rounds 111.1 down to the paper's 110); the roundtrip tolerance is
/// 25 % because the doc states an approximate budget, not a parameter.
const CALIBRATIONS: [Calibration; 5] = [
    Calibration {
        anchor: |l| number_before(l, "MOPS ceiling"),
        missing: "§4 'NNN MOPS ceiling'",
        core: false,
        fields: &["base_service"],
        derive: |v| (v[0] > 0.0).then(|| 1_000.0 / v[0]),
        tol: 0.025,
        drift: |v, mops, cal| {
            let ns = v[0];
            format!(
                "IOPS ceiling: base_service {ns} ns ⇒ {mops:.1} MOPS, DESIGN.md §4 says {cal} MOPS"
            )
        },
        name_file: false,
    },
    Calibration {
        anchor: |l| first_number(&l[l.find("Doorbells:")?..]),
        missing: "§4 'Doorbells: NN per context'",
        core: false,
        fields: &["uar_low_latency", "uar_medium"],
        derive: |v| Some(v[0] + v[1]),
        tol: 0.0,
        drift: |v, sum, cal| {
            let (low, med) = (v[0], v[1]);
            format!(
                "doorbells per context: config has {low} + {med} = {sum}, DESIGN.md §4 says {cal}"
            )
        },
        name_file: false,
    },
    Calibration {
        anchor: |l| number_before(l, "-entry").filter(|_| l.contains("WQE cache")),
        missing: "§4 'NNNN-entry … WQE cache'",
        core: false,
        fields: &["wqe_cache_entries"],
        derive: |v| Some(v[0]),
        tol: 0.0,
        drift: |_, got, cal| {
            format!("WQE cache entries: config has {got}, DESIGN.md §4 says {cal}")
        },
        name_file: true,
    },
    Calibration {
        anchor: |l| first_number(&l[l.find("t0 = ")? + 5..]),
        missing: "§4 't0 = NNNN cycles'",
        core: true,
        fields: &["t0_cycles"],
        derive: |v| Some(v[0]),
        tol: 0.0,
        drift: |_, got, cal| format!("backoff unit t0: config has {got}, DESIGN.md §4 says {cal}"),
        name_file: true,
    },
    Calibration {
        anchor: |l| number_before(l, "µs roundtrip budget"),
        missing: "§4 'N µs roundtrip budget'",
        core: false,
        fields: &["one_way_latency"],
        derive: |v| Some(2.0 * v[0] / 1_000.0),
        tol: 0.25,
        drift: |_, rt_us, cal| {
            format!(
                "fabric roundtrip: 2 × one_way_latency = {rt_us:.2} µs, \
                 DESIGN.md §4 budgets {cal} µs (±25 %)"
            )
        },
        name_file: false,
    },
];

/// Extracts the §4 constants from DESIGN.md prose, in `CALIBRATIONS`
/// order. Returns Err with the first missing anchor phrase when the doc
/// was reworded past recognition — the lint then fails, which is exactly
/// the drift signal we want.
pub fn parse_design_calibration(design: &str) -> Result<Vec<f64>, &'static str> {
    CALIBRATIONS
        .iter()
        .map(|c| design.lines().find_map(c.anchor).ok_or(c.missing))
        .collect()
}

/// Rule 5 — `calibration-drift`: DESIGN.md §4 constants must match the
/// defaults in `smart_rnic::config` (and `t0` in `smart::config`).
///
/// `design` is the raw DESIGN.md text; `rnic_cfg`/`core_cfg` are the
/// scanned config sources.
pub fn calibration_drift(
    design_path: &Path,
    design: &str,
    rnic_cfg: &SourceFile,
    core_cfg: &SourceFile,
    out: &mut Vec<Diagnostic>,
) {
    let values = match parse_design_calibration(design) {
        Ok(v) => v,
        Err(anchor) => {
            let msg = format!("could not find {anchor} in DESIGN.md — doc and lint drifted");
            out.push(Diagnostic::new(design_path, 1, "calibration-drift", msg));
            return;
        }
    };
    for (c, cal) in CALIBRATIONS.iter().zip(values) {
        let file = if c.core { core_cfg } else { rnic_cfg };
        let found: Option<Vec<(usize, f64)>> =
            c.fields.iter().map(|f| field_value(file, f)).collect();
        let v: Vec<f64> = found.iter().flatten().map(|&(_, v)| v).collect();
        let got = found.as_ref().and_then(|_| (c.derive)(&v));
        let (Some(found), Some(got)) = (found, got) else {
            let mut msg = format!("could not parse default `{}`", c.fields.join("`/`"));
            if c.name_file {
                msg += &format!(" out of {}", file.rel.display());
            }
            out.push(Diagnostic::new(&file.rel, 1, "calibration-drift", msg));
            continue;
        };
        if (got - cal).abs() > cal * c.tol {
            let msg = (c.drift)(&v, got, cal);
            diag(file, found[0].0, "calibration-drift", msg, out);
        }
    }
}

/// Rule 6 — `bench-index-drift`: every bench target named in DESIGN.md
/// §3's experiment index must exist under `crates/bench/benches/`.
pub fn bench_index_drift(root: &Path, design_path: &Path, design: &str, out: &mut Vec<Diagnostic>) {
    for (i, line) in design.lines().enumerate() {
        let mut rest = line;
        while let Some(pos) = rest.find("bench/benches/") {
            let tail = &rest[pos..];
            let Some(end) = tail.find(".rs") else { break };
            let rel = &tail[..end + 3];
            if !root.join("crates").join(rel).is_file() {
                let msg = format!("experiment index names `{rel}` but crates/{rel} does not exist");
                out.push(Diagnostic::new(
                    design_path,
                    i + 1,
                    "bench-index-drift",
                    msg,
                ));
            }
            rest = &tail[end + 3..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim_file(src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("crates/rt/src/fake.rs"), src)
    }

    fn core_file(src: &str) -> SourceFile {
        SourceFile::new(PathBuf::from("crates/core/src/fake.rs"), src)
    }

    /// Assembles pragma text at runtime so this file contributes nothing
    /// to the CI grep gate counting suppression lines in `crates/*/src`.
    fn allow(rule: &str) -> String {
        format!("lint:{}({rule})", "allow")
    }

    /// Drops pragma-suppressed findings, as `run_lint` does before
    /// reporting.
    fn visible(out: &[Diagnostic]) -> Vec<&Diagnostic> {
        out.iter().filter(|d| !d.suppressed).collect()
    }

    #[test]
    fn written_forms_match_like_text_without_whitespace() {
        let hit = |src: &str, pat: &str| on_line(&lex::lex(src).toks, &[form(pat)]);
        assert!(!hit("use HashMap;", "HashMap"), "glued to `use`");
        assert!(!hit("use a::HashMap as Map;", "HashMap"), "glued to `as`");
        assert!(
            hit("return HashMap::<u8, u8>::new()", "HashMap"),
            "after `return`"
        );
        assert!(
            hit("for x in HashSet::<u8>::new() {}", "HashSet"),
            "after `in`"
        );
        assert!(hit("x: HashMap<u64,u32>", "HashMap"));
        assert!(hit("fn f(r: &mut OsRng) {}", "OsRng"), "after `&mut`");
        assert!(
            hit("fn f<'a>(m: &'a HashMap<u8, u8>) {}", "HashMap"),
            "after a lifetime"
        );
        assert!(!hit("MyHashMapLike", "HashMap"));
        assert!(
            hit("std::thread_local!(x)", "std::thread"),
            "a path's ends extend"
        );
        assert!(hit("SystemTimeError", "*SystemTime"));
        assert!(!hit("SystemTimeError", "SystemTime"));
        assert!(hit("use std::sync::{Arc, Mutex};", "std::sync::{Mutex"));
        assert!(!hit(
            "use std::sync::{Arc, Mutex as M};",
            "std::sync::{Mutex"
        ));
    }

    #[test]
    fn wall_clock_flags_and_pragma_suppresses() {
        let mut out = Vec::new();
        banned_apis(&sim_file("let t = Instant::now();"), &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        banned_apis(
            &sim_file(&format!(
                "let t = Instant::now(); // {}",
                allow("wall-clock")
            )),
            &mut out,
        );
        assert!(visible(&out).is_empty());
        assert!(out.iter().all(|d| d.suppressed), "{out:#?}");
    }

    #[test]
    fn non_sim_crates_are_exempt_from_sim_rules() {
        let file = SourceFile::new(
            PathBuf::from("crates/bench/benches/micro.rs"),
            "let t = Instant::now();",
        );
        let mut out = Vec::new();
        banned_apis(&file, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn await_holding_guard_flags_only_held_awaits() {
        let src = "\
async fn f(sem: &Semaphore) {
    let g = sem.acquire_guard(1, &h, actor, \"slot\").await;
    other_work().await;
    g.release();
    late_work().await;
}
";
        let mut out = Vec::new();
        await_holding_guard(&sim_file(src), &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 3);
        assert!(out[0].message.contains("guard `g`"));
    }

    #[test]
    fn await_holding_guard_scope_exit_ends_the_hold() {
        let src = "\
async fn f(lock: &ContendedLock) {
    {
        let section = lock.enter_as(hold, actor, \"qp_lock\").await;
        drop(section);
    }
    fine().await;
}
";
        let mut out = Vec::new();
        await_holding_guard(&sim_file(src), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn await_holding_guard_tracks_multiline_acquisitions() {
        // A `let` split across lines from its `.acquire_guard` call is
        // still tracked.
        let src = "\
async fn f(sem: &Semaphore) {
    let g = sem
        .acquire_guard(1, &h, actor, \"slot\")
        .await;
    other_work().await;
    g.release();
}
";
        let mut out = Vec::new();
        await_holding_guard(&sim_file(src), &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 5);
    }

    #[test]
    fn await_holding_guard_pragma_suppresses() {
        let src = format!(
            "\
async fn f(sem: &Semaphore) {{
    let g = sem.acquire_guard(1, &h, actor, \"slot\").await;
    // intentional: measured hold. {}
    other_work().await;
    g.release();
}}
",
            allow("await-holding-guard")
        );
        let mut out = Vec::new();
        await_holding_guard(&sim_file(&src), &mut out);
        assert!(visible(&out).is_empty(), "{out:#?}");
    }

    #[test]
    fn rc_identity_flags_and_pragma_suppresses() {
        let mut out = Vec::new();
        banned_apis(
            &sim_file("v.sort_by_key(|r| Rc::as_ptr(r) as usize);"),
            &mut out,
        );
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("Rc::as_ptr"));
        out.clear();
        banned_apis(
            &sim_file(&format!(
                "// equality only. {}\nif Rc::ptr_eq(&a, &b) {{}}",
                allow("rc-identity")
            )),
            &mut out,
        );
        assert!(visible(&out).is_empty());
    }

    #[test]
    fn fallible_unhandled_flags_same_line_and_chained() {
        let mut out = Vec::new();
        fallible_unhandled(
            &sim_file("let cqes = coro.try_sync().await.unwrap();"),
            &mut out,
        );
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("try_sync"));

        out.clear();
        let chained = "\
let v = table
    .try_get(&coro, key)
    .await
    .expect(\"lookup\");
";
        fallible_unhandled(&sim_file(chained), &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 4);
        assert!(out[0].message.contains("try_get"));
    }

    #[test]
    fn fallible_unhandled_spares_handled_results() {
        let mut out = Vec::new();
        let src = format!(
            "\
let cqes = coro.try_sync().await?;
let v = coro.try_read_sync(addr, 8).await.unwrap_or_else(|e| panic!(\"{{e}}\"));
let w = unrelated.unwrap();
coro.try_cas_sync(a, 0, 1).await.unwrap(); // planted seed. {}
",
            allow("fallible-unhandled")
        );
        fallible_unhandled(&sim_file(&src), &mut out);
        assert!(visible(&out).is_empty(), "{out:#?}");
    }

    #[test]
    fn hot_path_alloc_fires_only_in_hot_files() {
        let hot = SourceFile::new(
            PathBuf::from("crates/rt/src/executor.rs"),
            "fn poll(&mut self) { let label = format!(\"task {id}\"); }",
        );
        let mut out = Vec::new();
        hot_path_alloc(&hot, &mut out);
        assert_eq!(out.len(), 1);
        assert!(out[0].message.contains("format!("));

        // The same line in a non-hot sim file is fine (other rules own
        // determinism; this one only owns the per-event paths).
        let warm = SourceFile::new(
            PathBuf::from("crates/rt/src/metrics.rs"),
            "fn poll(&mut self) { let label = format!(\"task {id}\"); }",
        );
        out.clear();
        hot_path_alloc(&warm, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn hot_path_alloc_constructors_and_tests_are_exempt() {
        // No pragma needed: `new` returns Self, so its allocations are
        // construction-time by definition.
        let src = "\
impl Slab {
    fn new() -> Self {
        let slab = Vec::new();
        Self { slab }
    }
    fn per_event(&mut self) {
        let scratch = Vec::new();
        self.use_it(scratch);
    }
}
#[cfg(test)]
mod tests {
    fn t() { let v = Vec::new(); }
}
";
        let hot = SourceFile::new(PathBuf::from("crates/rnic/src/qp.rs"), src);
        let mut out = Vec::new();
        hot_path_alloc(&hot, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 7, "only the per-event alloc is flagged");
    }

    #[test]
    fn alias_evasion_sees_through_groups_and_renames() {
        let src = "\
use std::time::{Instant as Clock, Duration};
use std::sync::{Mutex as Lock};
use rand::rngs::OsRng as Entropy;

pub fn stamp() -> Clock { Clock::now() }
";
        let mut out = Vec::new();
        banned_apis(&sim_file(src), &mut out);
        let lines: Vec<usize> = out.iter().map(|d| d.line).collect();
        assert_eq!(lines, vec![1, 2, 3], "{out:#?}");
        assert!(out[0].message.contains("std::time::Instant"));
        assert!(out[1].message.contains("std::sync::Mutex"));
        assert!(out[2].message.contains("OsRng"));
    }

    #[test]
    fn alias_evasion_defers_to_the_line_rules() {
        // A plain banned import is the direct match's finding, not ours.
        let mut out = Vec::new();
        banned_apis(&sim_file("use std::time::Instant;\n"), &mut out);
        let rules: Vec<&str> = out.iter().map(|d| d.rule).collect();
        assert_eq!(rules, ["wall-clock"], "{out:#?}");
        // Benign imports don't fire at all.
        out.clear();
        banned_apis(
            &sim_file("use std::time::Duration;\nuse std::sync::Arc;\n"),
            &mut out,
        );
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn alias_evasion_rng_applies_outside_sim_crates_too() {
        let file = SourceFile::new(
            PathBuf::from("crates/bench/benches/micro.rs"),
            "use rand::rngs::OsRng as Entropy;\nuse std::time::{Instant as Clock, Duration};\n",
        );
        let mut out = Vec::new();
        banned_apis(&file, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert!(out[0].message.contains("OsRng"));
    }

    #[test]
    fn unordered_iter_binding_flags_aliased_maps() {
        let src = "\
use std::collections::HashMap as Map;

pub fn sum() -> u64 {
    let m: Map<u64, u64> = Map::new();
    let mut total = 0;
    for (_k, v) in m.iter() {
        total += v;
    }
    total
}
";
        let f = sim_file(src);
        let mut out = Vec::new();
        // The direct match must miss all of this…
        banned_apis(&f, &mut out);
        assert!(out.is_empty(), "{out:#?}");
        // …and the binding rule must catch the iteration.
        unordered_iter_binding(&f, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 6);
        assert!(out[0].message.contains("`m`"));
    }

    #[test]
    fn unordered_iter_binding_spares_ordered_maps_and_open_decls() {
        // BTreeMap through the same alias shape: quiet.
        let ordered = "\
use std::collections::BTreeMap as Map;
pub fn sum(m: &Map<u64, u64>) -> u64 {
    let m2: Map<u64, u64> = Map::new();
    for (_k, v) in m2.iter() { let _ = v; }
    0
}
";
        let mut out = Vec::new();
        unordered_iter_binding(&sim_file(ordered), &mut out);
        assert!(out.is_empty(), "{out:#?}");

        // An openly-declared HashMap belongs to `unordered-iter`; the
        // binding rule stays quiet rather than double-reporting.
        let open = "\
pub fn sum() -> u64 {
    let m: std::collections::HashMap<u64, u64> = Default::default();
    for (_k, v) in m.iter() { let _ = v; }
    0
}
";
        out.clear();
        unordered_iter_binding(&sim_file(open), &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn unordered_iter_binding_sees_self_fields() {
        let src = "\
use std::collections::HashSet as Seen;

pub struct Tracker { seen: Seen<u64> }

impl Tracker {
    pub fn total(&self) -> u64 {
        let mut n = 0;
        for v in &self.seen {
            n += v;
        }
        n
    }
}
";
        let mut out = Vec::new();
        unordered_iter_binding(&sim_file(src), &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].line, 8);
    }

    #[test]
    fn panic_in_recovery_flags_try_fns_and_direct_callees() {
        let src = "\
impl Slots {
    pub fn try_get(&self, idx: usize) -> Result<u64, ()> {
        let v = self.inner[idx];
        Ok(v.expect(\"slot present\"))
    }
    fn lookup(&self, idx: usize) -> u64 {
        self.inner[idx].unwrap()
    }
    pub fn try_read(&self, idx: usize) -> Result<u64, ()> {
        Ok(self.lookup(idx))
    }
}
";
        let files = vec![core_file(src)];
        let mut out = Vec::new();
        panic_in_recovery(&files, &mut out);
        let got: Vec<(usize, &str)> = out
            .iter()
            .map(|d| (d.line, d.message.split('`').nth(1).unwrap_or("")))
            .collect();
        assert_eq!(
            got,
            vec![
                (3, "indexing"),
                (4, ".expect(…)"),
                (7, "indexing"),
                (7, ".unwrap()")
            ],
            "{out:#?}"
        );
        assert!(
            out[2].message.contains("`lookup`") && out[2].message.contains("`try_read`"),
            "{}",
            out[2].message
        );
    }

    #[test]
    fn panic_in_recovery_ignores_non_core_and_handled_paths() {
        // Same source outside core: not a recovery path.
        let src = "pub fn try_get(v: &[u64]) -> Result<u64, ()> { Ok(v[0]) }";
        let files = vec![sim_file(src)];
        let mut out = Vec::new();
        panic_in_recovery(&files, &mut out);
        assert!(out.is_empty(), "{out:#?}");

        // Inside core, the sanctioned shapes stay quiet: `?`, `get`,
        // `vec![…]`, attributes and slice patterns are not panics.
        let ok = "\
pub fn try_get(v: &[u64], idx: usize) -> Result<u64, ()> {
    let first = v.get(idx).ok_or(())?;
    let scratch = vec![0u8; 4];
    let [a, b] = split(scratch)?;
    Ok(first + a + b)
}
";
        let files = vec![core_file(ok)];
        out.clear();
        panic_in_recovery(&files, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn layering_flags_upward_use_edges() {
        let f = SourceFile::new(
            PathBuf::from("crates/core/src/uses_bench.rs"),
            "use smart_bench::harness::Runner;\n",
        );
        let files = vec![f];
        let mut out = Vec::new();
        // Nonexistent root: only the use-edge part runs.
        layering(Path::new("/nonexistent"), &files, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].rule, "layering");
        assert!(out[0].message.contains("tier"));
    }

    #[test]
    fn layering_allows_downward_and_same_tier_edges() {
        let down = SourceFile::new(
            PathBuf::from("crates/core/src/ok.rs"),
            "use smart_rt::executor::Simulation;\nuse smart_trace::TraceEvent;\n",
        );
        let same = SourceFile::new(
            PathBuf::from("crates/workloads/src/ok.rs"),
            "use smart_race::table::RaceHashTable;\n",
        );
        let files = vec![down, same];
        let mut out = Vec::new();
        layering(Path::new("/nonexistent"), &files, &mut out);
        assert!(out.is_empty(), "{out:#?}");
    }

    #[test]
    fn toml_dep_parsing_skips_dev_dependencies() {
        let toml = "\
[package]
name = \"smart-race\"

[dependencies]
smart = { path = \"../core\" }
smart-rt = { path = \"../rt\" }

[dev-dependencies]
smart-workloads = { path = \"../workloads\" }
";
        let deps: Vec<String> = parse_toml_deps(toml).into_iter().map(|(_, d)| d).collect();
        assert_eq!(deps, vec!["smart", "smart-rt"]);
    }

    #[test]
    fn parse_number_handles_underscores() {
        assert_eq!(parse_number("1_150),"), Some(1150.0));
        assert_eq!(parse_number("9.09 ns"), Some(9.09));
        assert_eq!(parse_number("abc"), None);
    }

    #[test]
    fn one_way_latency_is_read_from_the_rnic_config_only() {
        let design = "\
110 MOPS ceiling
Doorbells: 16 per context
1024-entry WQE cache
t0 = 4096 cycles
2 µs roundtrip budget
";
        let rnic = SourceFile::new(
            PathBuf::from("crates/rnic/src/config.rs"),
            "base_service: Duration::from_nanos(9),\nuar_low_latency: 4,\nuar_medium: 12,\n\
             wqe_cache_entries: 1024,\n",
        );
        // A stray field of the same name elsewhere must not stand in for
        // the fabric's.
        let core = SourceFile::new(
            PathBuf::from("crates/core/src/config.rs"),
            "t0_cycles: 4096,\n\n\n\n\none_way_latency: Duration::from_nanos(1_000),\n",
        );
        let mut out = Vec::new();
        calibration_drift(Path::new("DESIGN.md"), design, &rnic, &core, &mut out);
        assert_eq!(out.len(), 1, "{out:#?}");
        assert_eq!(out[0].path, PathBuf::from("crates/rnic/src/config.rs"));
        assert_eq!(out[0].line, 1);
        assert_eq!(out[0].message, "could not parse default `one_way_latency`");
    }

    #[test]
    fn design_extraction_finds_all_constants() {
        let doc = "\
* RNIC pipeline: 9.09 ns/WQE base service ⇒ 110 MOPS ceiling (§6.1).
* Doorbells: 16 per context (4 low-latency: 1 QP each; 12 medium).
* WQE cache: 1024-entry capacity-pressure model; a miss adds 13 ns.
* Backoff unit: `t0 = 4096 cycles` at 2.4 GHz ≈ 1.7 µs.
* Fabric: 2 µs roundtrip budget, 200 Gbps links.
";
        let cal = parse_design_calibration(doc).expect("parses");
        assert_eq!(cal, vec![110.0, 16.0, 1024.0, 4096.0, 2.0]);
        assert_eq!(
            parse_design_calibration("Doorbells: 16 per context"),
            Err("§4 'NNN MOPS ceiling'")
        );
    }
}
