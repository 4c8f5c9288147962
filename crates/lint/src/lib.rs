//! `smart-lint` — workspace determinism & calibration-drift static
//! analysis for the SMART reproduction.
//!
//! Every figure this repo reproduces rests on the claim that the
//! discrete-event simulation is deterministic from a single seed. This
//! crate mechanically enforces the invariants behind that claim over all
//! workspace `.rs` sources plus DESIGN.md, with zero dependencies.
//!
//! Each job is done once. One scan of the source ([`lex`]) yields the
//! token stream and the suppression pragmas, with comments, literal
//! contents and `#[cfg(test)]` module bodies left out. The item mapper
//! ([`items`]) finds `use` declarations, fn items with their parameters
//! and brace-matched body spans, and struct fields; [`resolve`] adds
//! alias resolution and the one body walk that tracks scoped bindings
//! and resolves receivers. The banned APIs are one table
//! ([`rules::BANNED`]) matched on the tokens and, through resolved `use`
//! paths, on renamed imports; structural rules walk the tokens and
//! items; the `smart-flow` pass ([`flow`]) builds a workspace call
//! graph on top and infers per-function effect signatures ([`effects`])
//! to a fixed point. Every finding is a [`Diagnostic`], built by one
//! constructor. `tests/golden_findings.rs` pins the full raw finding set
//! on the real tree and both fixture trees against committed snapshots.
//!
//! | rule | enforces |
//! |---|---|
//! | `wall-clock` | no `Instant::now`/`SystemTime` in sim crates |
//! | `os-concurrency` | no OS threads / blocking sync in sim crates |
//! | `unordered-iter` | no `HashMap`/`HashSet` in non-test sim code |
//! | `unseeded-rng` | no `thread_rng`/`from_entropy`/`OsRng` anywhere |
//! | `await-holding-guard` | no `.await` while a probed lock guard is bound in sim crates |
//! | `rc-identity` | no `Rc::as_ptr`/`Rc::ptr_eq` identity keys in sim crates |
//! | `fallible-unhandled` | no `.unwrap()`/`.expect()` on fallible `try_*` results in sim crates |
//! | `hot-path-alloc` | no `format!`/`to_string`/`Vec::new` in per-event hot-path files (constructors exempt) |
//! | `alias-evasion` | no `use … as …` renames that hide banned types from the pattern rules |
//! | `unordered-iter-binding` | no iterating a binding whose declared type is an aliased `HashMap`/`HashSet` |
//! | `layering` | crate deps follow the tier order trace < rt < rnic < core < apps < check/fault < bench |
//! | `panic-in-recovery` | no `unwrap`/`expect`/`panic!`/indexing on `try_*` recovery paths in `core` |
//! | `cross-domain-shared-state` | no interior-mutable state shared across scheduling domains outside the fabric |
//! | `rc-escape` | no `Rc` handle to another domain's state captured across a spawn boundary |
//! | `effect-drift` | inferred effect signatures of pinned entry points match `crates/lint/EFFECTS.json` |
//! | `calibration-drift` | DESIGN.md §4 constants match config defaults |
//! | `bench-index-drift` | DESIGN.md §3 bench targets exist on disk |
//!
//! False positives are silenced inline with `// lint:allow(<rule>)`
//! (covers that line and the next) or `// lint:allow-file(<rule>)`
//! (covers the file) — the only way to silence one; both should carry a
//! rationale. CI gates the
//! pragma count ([`count_pragmas`]) against a committed budget so the
//! suppression count only ever shrinks.
//!
//! Run it with `cargo run -p smart-lint` (non-zero exit on violations);
//! `--format=json` emits one JSON object per finding, `--format=github`
//! emits workflow error annotations, and `--effects` prints the
//! inferred effect table (`--effects-out <dir>` additionally writes the
//! call-graph and effects JSONL artifacts; `--update-effects` rewrites
//! the `EFFECTS.json` baseline from the current tree).
//! `tests/lint_workspace.rs` wires the same pass into `cargo test`.

#![forbid(unsafe_code)]

pub mod effects;
pub mod flow;
pub mod items;
pub mod lex;
pub mod resolve;
pub mod rules;

use std::fs;
use std::path::{Path, PathBuf};

pub use rules::{Diagnostic, SourceFile, RULES};

/// Directories never scanned: build output, VCS state, CSV dumps and the
/// lint's own deliberately-bad fixtures.
const SKIP_DIRS: &[&str] = &["target", ".git", ".github", "bench_out", "fixtures"];

/// Recursively collects every `.rs` file under `root`, as sorted
/// root-relative paths (sorted so diagnostics are deterministic).
fn collect_rs(root: &Path) -> Vec<PathBuf> {
    let mut found = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(entries) = fs::read_dir(&dir) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if path.is_dir() {
                if !SKIP_DIRS.contains(&name.as_ref()) && !name.starts_with('.') {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                found.push(
                    path.strip_prefix(root)
                        .expect("walk stays under root")
                        .to_path_buf(),
                );
            }
        }
    }
    found.sort();
    found
}

/// Loads, scans and item-maps one workspace source.
fn load(root: &Path, rel: &Path) -> Option<SourceFile> {
    let src = fs::read_to_string(root.join(rel)).ok()?;
    Some(SourceFile::new(rel.to_path_buf(), &src))
}

/// Loads every workspace source under `root`.
fn load_all(root: &Path) -> Vec<SourceFile> {
    collect_rs(root)
        .iter()
        .filter_map(|rel| load(root, rel))
        .collect()
}

/// The DESIGN.md doc-drift rules.
fn design_rules(root: &Path, out: &mut Vec<Diagnostic>) {
    let design_rel = Path::new("DESIGN.md");
    let Ok(design) = fs::read_to_string(root.join(design_rel)) else {
        let msg = "DESIGN.md not found — calibration cannot be checked".into();
        out.push(Diagnostic::new(design_rel, 1, "calibration-drift", msg));
        return;
    };
    let rnic_cfg = load(root, Path::new("crates/rnic/src/config.rs"));
    let core_cfg = load(root, Path::new("crates/core/src/config.rs"));
    if let (Some(rnic_cfg), Some(core_cfg)) = (rnic_cfg, core_cfg) {
        rules::calibration_drift(design_rel, &design, &rnic_cfg, &core_cfg, out);
    } else {
        let msg = "missing crates/rnic/src/config.rs or crates/core/src/config.rs".into();
        out.push(Diagnostic::new(design_rel, 1, "calibration-drift", msg));
    }
    rules::bench_index_drift(root, design_rel, &design, out);
}

/// Runs every rule over the workspace at `root` and keeps
/// pragma-suppressed findings in the stream (`Diagnostic::suppressed`).
///
/// Diagnostics come back sorted by path and line. An unreadable
/// DESIGN.md or config source is itself a diagnostic — the pass must
/// never silently skip the files it exists to check.
pub fn run_lint_raw(root: &Path) -> Vec<Diagnostic> {
    let files = load_all(root);
    let mut out = Vec::new();
    for file in &files {
        rules::banned_apis(file, &mut out);
        rules::await_holding_guard(file, &mut out);
        rules::fallible_unhandled(file, &mut out);
        rules::hot_path_alloc(file, &mut out);
        rules::unordered_iter_binding(file, &mut out);
    }
    rules::panic_in_recovery(&files, &mut out);
    rules::layering(root, &files, &mut out);
    flow::flow_pass(root, &files, &mut out);
    design_rules(root, &mut out);
    out.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    out
}

/// Runs the whole lint pass over the workspace at `root`, dropping
/// pragma-suppressed findings — what the CLI and the tier-1 gates report.
pub fn run_lint(root: &Path) -> Vec<Diagnostic> {
    let mut out = run_lint_raw(root);
    out.retain(|d| !d.suppressed);
    out
}

/// Builds the `smart-flow` effect graph over the workspace at `root`
/// (for `--effects` reporting and the CI artifacts).
pub fn effect_graph(root: &Path) -> flow::FlowGraph {
    flow::build_graph(&load_all(root))
}

/// Counts suppression pragmas (`lint:allow` / `lint:allow-file`) naming
/// a known rule in `crates/*/src` trees under `root`. CI gates this
/// number against a committed budget so the suppression count only ever
/// shrinks — a pragma deleted is an invariant the engine now understands
/// well enough to check for real.
pub fn count_pragmas(root: &Path) -> usize {
    collect_rs(root)
        .iter()
        .filter(|rel| {
            let s = rel.to_string_lossy().replace('\\', "/");
            s.starts_with("crates/") && s.split('/').nth(2) == Some("src")
        })
        .filter_map(|rel| load(root, rel))
        .map(|f| {
            f.lex
                .allows
                .iter()
                .filter(|a| RULES.contains(&a.rule.as_str()))
                .count()
        })
        .sum()
}

/// Serializes one diagnostic as a single-line JSON object with `path`,
/// `line`, `rule` and `message` fields — the `--format=json` output.
pub fn to_json(d: &Diagnostic) -> String {
    format!(
        "{{\"path\":\"{}\",\"line\":{},\"rule\":\"{}\",\"message\":\"{}\"}}",
        json_escape(&d.path.to_string_lossy().replace('\\', "/")),
        d.line,
        json_escape(d.rule),
        json_escape(&d.message)
    )
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skip_dirs_cover_fixtures() {
        assert!(SKIP_DIRS.contains(&"fixtures"));
        assert!(SKIP_DIRS.contains(&"target"));
    }

    #[test]
    fn json_serialization_escapes_and_roundtrips_fields() {
        let d = Diagnostic {
            path: PathBuf::from("crates/rt/src/a.rs"),
            line: 7,
            rule: "wall-clock",
            message: "has \"quotes\" and\nnewline".into(),
            suppressed: false,
        };
        assert_eq!(
            to_json(&d),
            "{\"path\":\"crates/rt/src/a.rs\",\"line\":7,\"rule\":\"wall-clock\",\
             \"message\":\"has \\\"quotes\\\" and\\nnewline\"}"
        );
    }

    #[test]
    fn pragma_counter_ignores_unknown_rules_and_non_src_paths() {
        let dir = std::env::temp_dir().join(format!("lint_pragma_{}", std::process::id()));
        let src_dir = dir.join("crates/rt/src");
        let test_dir = dir.join("crates/rt/tests");
        fs::create_dir_all(&src_dir).unwrap();
        fs::create_dir_all(&test_dir).unwrap();
        // Pragma text assembled at runtime so this file contributes
        // nothing to the CI grep gate over `crates/*/src`.
        let allow = |rule: &str| format!("lint:{}({rule})", "allow");
        fs::write(
            src_dir.join("a.rs"),
            format!(
                "// {} reason\n// {}\n",
                allow("wall-clock"),
                allow("not-a-rule")
            ),
        )
        .unwrap();
        fs::write(
            test_dir.join("b.rs"),
            format!("// {}\n", allow("wall-clock")),
        )
        .unwrap();
        assert_eq!(count_pragmas(&dir), 1);
        fs::remove_dir_all(&dir).unwrap();
    }
}
