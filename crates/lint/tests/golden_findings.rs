//! Golden snapshots of the raw (pre-suppression) finding stream on the
//! real workspace and on both fixture workspaces, plus the effect table
//! and call graph of the bad fixture.
//!
//! These pin the engine's full output — every pragma-suppressed site
//! included — so any behavioural change in a rule, the source scanner or
//! the effect pass shows up as a reviewable diff in a committed snapshot.
//! The real tree alone exercises only a few rules; the bad fixture trips
//! all seventeen.
//!
//! Regenerate after an intentional change with:
//!
//! ```text
//! SMART_LINT_UPDATE_GOLDENS=1 cargo test -p smart-lint --test golden_findings
//! ```

use std::path::{Path, PathBuf};

fn workspace_root() -> &'static Path {
    // crates/lint → crates → workspace root.
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint has two ancestors")
}

fn render_raw(root: &Path) -> String {
    let mut out = String::new();
    for d in smart_lint::run_lint_raw(root) {
        let tag = if d.suppressed { " (suppressed)" } else { "" };
        out.push_str(&format!(
            "{}:{} [{}]{} {}\n",
            d.path.to_string_lossy().replace('\\', "/"),
            d.line,
            d.rule,
            tag,
            d.message
        ));
    }
    out
}

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Compares `actual` with `tests/goldens/<name>`, or rewrites the golden
/// when `SMART_LINT_UPDATE_GOLDENS` is set.
fn check_golden(name: &str, actual: &str) {
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/goldens")
        .join(name);
    if std::env::var_os("SMART_LINT_UPDATE_GOLDENS").is_some() {
        std::fs::create_dir_all(golden.parent().unwrap()).unwrap();
        std::fs::write(&golden, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&golden).unwrap_or_else(|_| {
        panic!("tests/goldens/{name} is committed; regenerate with SMART_LINT_UPDATE_GOLDENS=1")
    });
    assert_eq!(
        actual, expected,
        "{name} drifted from the golden snapshot;\n\
         if the change is intentional rerun with SMART_LINT_UPDATE_GOLDENS=1 \
         and commit the diff"
    );
}

#[test]
fn raw_findings_match_the_committed_golden() {
    check_golden("workspace_findings.txt", &render_raw(workspace_root()));
}

#[test]
fn bad_fixture_findings_match_the_committed_golden() {
    check_golden(
        "bad_workspace_findings.txt",
        &render_raw(&fixture("bad_workspace")),
    );
}

#[test]
fn clean_fixture_findings_match_the_committed_golden() {
    check_golden(
        "clean_workspace_findings.txt",
        &render_raw(&fixture("clean_workspace")),
    );
}

#[test]
fn bad_fixture_effect_graph_matches_the_committed_golden() {
    let g = smart_lint::effect_graph(&fixture("bad_workspace"));
    check_golden("bad_workspace_effects.txt", &g.render_table());
    check_golden("bad_workspace_callgraph.jsonl", &g.callgraph_jsonl());
}

#[test]
fn golden_only_contains_suppressed_findings() {
    // The visible stream is gated to empty by `workspace_is_lint_clean`;
    // the golden therefore pins exactly the pragma'd sites. If a line
    // without "(suppressed)" ever lands here, the clean gate broke first
    // — this assert just keeps the snapshot honest on its own.
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/goldens/workspace_findings.txt");
    let text = std::fs::read_to_string(&golden).expect("golden snapshot committed");
    for line in text.lines() {
        assert!(
            line.contains("(suppressed)"),
            "unsuppressed finding in the golden: {line}"
        );
    }
}
