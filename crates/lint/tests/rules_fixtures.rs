//! Fixture-based tests: every rule fires on the seeded-bad workspace,
//! none fires on the clean one, and the binary's exit code reflects it.

use std::path::PathBuf;
use std::process::Command;

fn fixture(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

fn rules_hit(root: &str) -> Vec<smart_lint::Diagnostic> {
    smart_lint::run_lint(&fixture(root))
}

#[test]
fn bad_workspace_trips_every_rule() {
    let diags = rules_hit("bad_workspace");
    for rule in [
        "wall-clock",
        "os-concurrency",
        "unordered-iter",
        "unseeded-rng",
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
        "calibration-drift",
        "bench-index-drift",
    ] {
        assert!(
            diags.iter().any(|d| d.rule == rule),
            "expected a {rule} diagnostic, got:\n{}",
            diags
                .iter()
                .map(|d| format!("  {d}"))
                .collect::<Vec<_>>()
                .join("\n")
        );
    }
}

#[test]
fn bad_workspace_diagnostics_point_at_the_right_files() {
    let diags = rules_hit("bad_workspace");
    let at = |rule: &str| {
        diags
            .iter()
            .filter(|d| d.rule == rule)
            .map(|d| d.path.to_string_lossy().replace('\\', "/"))
            .collect::<Vec<_>>()
    };
    assert!(at("wall-clock").iter().all(|p| p.ends_with("clock.rs")));
    assert!(at("os-concurrency")
        .iter()
        .all(|p| p.ends_with("threads.rs") || p.ends_with("domain_bad.rs")));
    assert!(at("unordered-iter").iter().all(|p| p.ends_with("maps.rs")));
    assert!(at("unseeded-rng").iter().all(|p| p.ends_with("rng_bad.rs")));
    assert!(at("await-holding-guard")
        .iter()
        .all(|p| p.ends_with("guard_bad.rs")));
    assert!(at("rc-identity").iter().all(|p| p.ends_with("rc_bad.rs")));
    assert!(at("fallible-unhandled")
        .iter()
        .all(|p| p.ends_with("fallible_bad.rs")));
    let hot = at("hot-path-alloc");
    assert!(!hot.is_empty() && hot.iter().all(|p| p.ends_with("rt/src/executor.rs")));
    assert!(at("alias-evasion")
        .iter()
        .all(|p| p.ends_with("alias_bad.rs") || p.ends_with("use_multiline_bad.rs")));
    assert!(at("cross-domain-shared-state")
        .iter()
        .all(|p| p.ends_with("cross_domain_bad.rs")));
    assert!(at("rc-escape")
        .iter()
        .all(|p| p.ends_with("rc_escape_bad.rs")));
    assert!(at("effect-drift")
        .iter()
        .all(|p| p == "crates/lint/EFFECTS.json"));
    assert!(at("unordered-iter-binding")
        .iter()
        .all(|p| p.ends_with("iter_binding_bad.rs")));
    assert!(at("panic-in-recovery")
        .iter()
        .all(|p| p.ends_with("recovery_bad.rs")));
    assert!(at("layering")
        .iter()
        .all(|p| p.ends_with("uses_bench.rs") || p == "crates/qos"));
    assert!(at("bench-index-drift").iter().all(|p| p == "DESIGN.md"));
}

#[test]
fn pdes_engine_file_is_exempt_and_the_seam_is_not() {
    // The bad tree carries two OS-thread offenders: the engine file
    // itself (`crates/rt/src/pdes.rs`, on PDES_ENGINE_FILES — its worker
    // threads, locks and aliased sync imports are the sanctioned
    // implementation of hosting) and a sim crate hosting a domain by
    // hand (`crates/rnic/src/domain_bad.rs`). Exactly the second one
    // may fire.
    let diags = rules_hit("bad_workspace");
    assert!(
        !diags
            .iter()
            .any(|d| d.path.to_string_lossy().replace('\\', "/") == "crates/rt/src/pdes.rs"),
        "the PDES engine file must be exempt from every OS-concurrency arm:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        diags.iter().any(|d| {
            d.rule == "os-concurrency"
                && d.path
                    .to_string_lossy()
                    .replace('\\', "/")
                    .ends_with("crates/rnic/src/domain_bad.rs")
        }),
        "hand-hosting a domain outside the engine must still fire os-concurrency"
    );
}

#[test]
fn serve_crate_is_covered_by_the_sim_rules() {
    // The serving layer is sim code: the determinism rules must fire on
    // its fixture tree (and stay silent on the clean one, which the
    // clean-workspace test covers).
    let diags = rules_hit("bad_workspace");
    let in_serve = |rule: &str| {
        diags.iter().any(|d| {
            d.rule == rule
                && d.path
                    .to_string_lossy()
                    .replace('\\', "/")
                    .contains("crates/serve/")
        })
    };
    assert!(in_serve("wall-clock"), "wall-clock must cover crates/serve");
    assert!(
        in_serve("unseeded-rng"),
        "unseeded-rng must cover crates/serve"
    );
}

#[test]
fn alias_evasion_fixture_catches_all_three_ban_kinds() {
    let diags = rules_hit("bad_workspace");
    let msgs: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "alias-evasion")
        .map(|d| d.message.as_str())
        .collect();
    // Three single-line kinds plus the multi-line group regression.
    assert_eq!(msgs.len(), 4, "{msgs:#?}");
    assert!(msgs.iter().any(|m| m.contains("std::sync::Mutex")));
    assert!(msgs.iter().any(|m| m.contains("rand::rngs::OsRng")));
    assert_eq!(
        msgs.iter()
            .filter(|m| m.contains("std::time::Instant"))
            .count(),
        2,
        "single-line rename AND multi-line group must both resolve"
    );
}

#[test]
fn multiline_use_group_reports_the_banned_leaf_line() {
    // The `Instant as FastClock` leaf sits on its own line inside a
    // `use std::time::{…}` group spanning several lines; the finding
    // must land on the leaf, not the group header.
    let diags = rules_hit("bad_workspace");
    let hit = diags
        .iter()
        .find(|d| {
            d.rule == "alias-evasion"
                && d.path
                    .to_string_lossy()
                    .replace('\\', "/")
                    .ends_with("use_multiline_bad.rs")
        })
        .expect("multi-line use fixture must fire");
    assert_eq!(hit.line, 6, "{hit:#?}");
    assert!(hit.message.contains("`FastClock`"), "{}", hit.message);
}

#[test]
fn cross_domain_and_rc_escape_fixtures_fire_once_each() {
    let diags = rules_hit("bad_workspace");
    let cross: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "cross-domain-shared-state")
        .collect();
    // One finding per planted mutation: the FabricCounter poke and the
    // blade-port credit steal on the decomposed verb path.
    assert_eq!(cross.len(), 2, "{cross:#?}");
    let counter = cross
        .iter()
        .find(|d| d.message.contains("`FabricCounter`"))
        .expect("FabricCounter violation must fire");
    assert_eq!(counter.line, 10);
    assert!(counter.message.contains("thread-domain"));
    let blade = cross
        .iter()
        .find(|d| d.message.contains("`BladePort`"))
        .expect("BladePort violation must fire");
    assert_eq!(blade.line, 10);
    assert!(blade.message.contains("thread-domain"));

    let escapes: Vec<_> = diags.iter().filter(|d| d.rule == "rc-escape").collect();
    assert_eq!(escapes.len(), 1, "{escapes:#?}");
    assert_eq!(escapes[0].line, 12, "finding sits on the spawn site");
    assert!(escapes[0].message.contains("`stash`"));
}

#[test]
fn effect_drift_fixture_reports_drift_and_missing_entries() {
    let diags = rules_hit("bad_workspace");
    let drift: Vec<_> = diags.iter().filter(|d| d.rule == "effect-drift").collect();
    assert_eq!(drift.len(), 3, "{drift:#?}");
    assert!(
        drift
            .iter()
            .any(|d| d.message.contains("`race::tally`") && d.message.contains("[SharedMut]")),
        "{drift:#?}"
    );
    assert!(
        drift
            .iter()
            .any(|d| d.message.contains("`race::vanished`")
                && d.message.contains("no longer resolves")),
        "{drift:#?}"
    );
    // The blade-domain verb is pinned pure but mutates its inflight
    // counter — the decomposed verb path stays under the drift gate.
    assert!(
        drift
            .iter()
            .any(|d| d.message.contains("`rnic::BladePort::roundtrip`")
                && d.message.contains("[SharedMut]")),
        "{drift:#?}"
    );
}

#[test]
fn iter_binding_fixture_reports_the_iteration_site() {
    let diags = rules_hit("bad_workspace");
    let hits: Vec<_> = diags
        .iter()
        .filter(|d| d.rule == "unordered-iter-binding")
        .collect();
    assert_eq!(hits.len(), 1, "{hits:#?}");
    // The finding sits on the `for … in m.iter()` line, not the decl.
    assert_eq!(hits[0].line, 11);
    assert!(hits[0].message.contains("HashMap"));
}

#[test]
fn panic_in_recovery_fixture_covers_body_and_callee() {
    let diags = rules_hit("bad_workspace");
    let whats: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "panic-in-recovery")
        .map(|d| d.message.split('`').nth(1).unwrap_or(""))
        .collect();
    assert_eq!(whats, vec!["indexing", ".expect(…)", ".unwrap()"]);
    assert!(diags
        .iter()
        .any(|d| d.rule == "panic-in-recovery" && d.message.contains("`checked`")));
}

#[test]
fn layering_fixture_flags_upward_edge_and_unlisted_crate() {
    let diags = rules_hit("bad_workspace");
    let layering: Vec<_> = diags.iter().filter(|d| d.rule == "layering").collect();
    assert!(
        layering.iter().any(|d| d
            .message
            .contains("`core` (tier 3) must not depend on `bench`")),
        "{layering:#?}"
    );
    assert!(
        layering.iter().any(|d| d
            .message
            .contains("crate `qos` is not in the lint layer table")),
        "{layering:#?}"
    );
}

#[test]
fn guard_fixture_flags_both_guard_kinds() {
    let diags = rules_hit("bad_workspace");
    let lines: Vec<usize> = diags
        .iter()
        .filter(|d| d.rule == "await-holding-guard")
        .map(|d| d.line)
        .collect();
    // One finding per held-across await: the SemGuard one and the
    // LockSection one.
    assert_eq!(lines, vec![5, 8], "{diags:#?}");
}

#[test]
fn bad_workspace_calibration_catches_all_five_constants() {
    let diags = rules_hit("bad_workspace");
    let msgs: Vec<&str> = diags
        .iter()
        .filter(|d| d.rule == "calibration-drift")
        .map(|d| d.message.as_str())
        .collect();
    for needle in [
        "IOPS ceiling",
        "doorbells per context",
        "WQE cache entries",
        "backoff unit t0",
        "fabric roundtrip",
    ] {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "missing calibration check {needle:?} in {msgs:#?}"
        );
    }
}

#[test]
fn test_modules_in_bad_workspace_do_not_fire() {
    // maps.rs also holds a HashSet inside #[cfg(test)]; only the live
    // HashMap lines may be reported.
    let diags = rules_hit("bad_workspace");
    assert!(
        diags
            .iter()
            .filter(|d| d.rule == "unordered-iter")
            .all(|d| !d.message.contains("HashSet")),
        "test-module HashSet leaked into diagnostics"
    );
}

#[test]
fn clean_workspace_is_quiet_and_pragma_suppresses() {
    let diags = rules_hit("clean_workspace");
    assert!(
        diags.is_empty(),
        "clean fixture should produce no diagnostics:\n{}",
        diags
            .iter()
            .map(|d| format!("  {d}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

#[test]
fn binary_exit_codes_reflect_violations() {
    let bin = env!("CARGO_BIN_EXE_smart-lint");
    let bad = Command::new(bin)
        .arg(fixture("bad_workspace"))
        .output()
        .expect("run smart-lint");
    assert!(
        !bad.status.success(),
        "expected non-zero exit on bad fixture"
    );
    let stdout = String::from_utf8_lossy(&bad.stdout);
    assert!(
        stdout.contains("[wall-clock]"),
        "diagnostics on stdout: {stdout}"
    );

    let clean = Command::new(bin)
        .arg(fixture("clean_workspace"))
        .output()
        .expect("run smart-lint");
    assert!(
        clean.status.success(),
        "expected zero exit on clean fixture, stdout: {}",
        String::from_utf8_lossy(&clean.stdout)
    );
}

#[test]
fn json_format_and_github_annotations() {
    let bin = env!("CARGO_BIN_EXE_smart-lint");
    let json = Command::new(bin)
        .arg("--format=json")
        .arg(fixture("bad_workspace"))
        .output()
        .expect("run smart-lint");
    assert!(!json.status.success());
    let body = String::from_utf8_lossy(&json.stdout);
    assert!(!body.trim().is_empty());
    for line in body.lines() {
        assert!(
            line.starts_with("{\"path\":\"") && line.ends_with("\"}"),
            "not a single-line JSON object: {line}"
        );
        assert!(line.contains("\"line\":") && line.contains("\"rule\":"));
    }

    let gh = Command::new(bin)
        .arg("--format=github")
        .arg(fixture("bad_workspace"))
        .output()
        .expect("run smart-lint");
    let gh_body = String::from_utf8_lossy(&gh.stdout);
    assert!(gh_body.lines().all(|l| l.starts_with("::error file=")));
    assert!(
        gh_body
            .contains("::error file=crates/rt/src/clock.rs,line=3,title=smart-lint wall-clock::"),
        "{gh_body}"
    );
}

#[test]
fn pragma_count_flag_reports_fixture_suppressions() {
    let bin = env!("CARGO_BIN_EXE_smart-lint");
    let out = Command::new(bin)
        .arg("--pragmas")
        .arg(fixture("bad_workspace"))
        .output()
        .expect("run smart-lint");
    assert!(out.status.success());
    let n: usize = String::from_utf8_lossy(&out.stdout).trim().parse().unwrap();
    assert_eq!(n, 0, "bad fixture plants violations, not suppressions");
}
