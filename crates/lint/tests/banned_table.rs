//! Pins every entry of the one banned-API table, `rules::BANNED`, in
//! both of its arms:
//!
//! * a direct use in a sim file fires the entry's rule, quoting the
//!   entry;
//! * an entry with an import arm, imported through a grouped rename
//!   (`use a::{X as Y, B};`), fires `alias-evasion` with its rule's fix;
//! * in a non-sim file only the rules banned everywhere fire;
//! * in the PDES engine file no `os-concurrency` finding fires in either
//!   arm.
//!
//! One temporary workspace holds the same source at all three paths and
//! goes through `run_lint_raw`, the pass the CLI reports from.

use std::fs;

use smart_lint::rules::BANNED;

/// What one source line is expected to show.
struct Case {
    rule: &'static str,
    everywhere: bool,
    /// The findings of the banned rules and `alias-evasion` on the line.
    want: Vec<(&'static str, String)>,
}

/// The probe source, one line per case: first a direct use of every
/// written form, then a grouped rename of the first form of every entry
/// with an import arm.
fn probe() -> (String, Vec<Case>) {
    let (mut src, mut cases) = (String::new(), Vec::new());
    for r in &BANNED {
        for &(quote, forms, _) in r.bans {
            for form in forms {
                // A `*` marks a match inside a longer name; `{` opens a group.
                let code = form.trim_start_matches('*');
                let close = if code.contains('{') { "}" } else { "" };
                src += &format!("let _ = {code}{close};\n");
                let want = vec![(r.rule, format!("`{quote}` {}", r.tail))];
                cases.push(Case {
                    rule: r.rule,
                    everywhere: r.everywhere,
                    want,
                });
            }
        }
    }
    for r in &BANNED {
        let fix = r.tail.split_once("; ").expect("every tail names a fix").1;
        for &(_, forms, _) in r.bans.iter().filter(|b| b.2) {
            let (module, item) = forms[0].rsplit_once("::").unwrap_or(("m", forms[0]));
            src += &format!("use {module}::{{{item} as Renamed, Other}};\n");
            let full = format!("{module}::{item}");
            let msg = format!(
                "import binds `{full}` as `Renamed`, hiding it from the pattern rules; {fix}"
            );
            let want = vec![("alias-evasion", msg)];
            cases.push(Case {
                rule: r.rule,
                everywhere: r.everywhere,
                want,
            });
        }
    }
    (src, cases)
}

#[test]
fn every_banned_entry_fires_in_both_arms_and_scopes() {
    let (src, cases) = probe();
    let root = std::env::temp_dir().join(format!("lint_banned_table_{}", std::process::id()));
    let files = [
        "crates/rt/src/probe.rs",
        "crates/bench/src/probe.rs",
        "crates/rt/src/pdes.rs",
    ];
    for rel in files {
        let path = root.join(rel);
        fs::create_dir_all(path.parent().unwrap()).unwrap();
        fs::write(path, &src).unwrap();
    }
    let found = smart_lint::run_lint_raw(&root);
    fs::remove_dir_all(&root).unwrap();

    let banned = |rule: &str| rule == "alias-evasion" || BANNED.iter().any(|r| r.rule == rule);
    for rel in files {
        let sim = rel != "crates/bench/src/probe.rs";
        let engine = rel == "crates/rt/src/pdes.rs";
        for (k, case) in cases.iter().enumerate() {
            let got: Vec<(&str, String)> = found
                .iter()
                .filter(|d| {
                    d.path == std::path::Path::new(rel) && d.line == k + 1 && banned(d.rule)
                })
                .map(|d| (d.rule, d.message.clone()))
                .collect();
            let fires = (sim || case.everywhere) && !(engine && case.rule == "os-concurrency");
            let want = if fires { case.want.clone() } else { Vec::new() };
            let line = src.lines().nth(k).unwrap();
            assert_eq!(got, want, "{rel}:{}: `{line}`", k + 1);
        }
    }
}
