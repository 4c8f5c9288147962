//! `cargo run -p smart-lint [-- [options] [<workspace-root>]]`
//!
//! Prints one diagnostic per violation and exits non-zero if there are
//! any. With no root argument it lints the workspace that contains the
//! current directory (walking up to the first dir holding both
//! `Cargo.toml` and `DESIGN.md`, so it works from any crate
//! subdirectory).
//!
//! Options:
//!
//! * `--format=text` (default) — `file:line: [rule] message` lines.
//! * `--format=json` — one JSON object per finding (`path`, `line`,
//!   `rule`, `message`), one per line.
//! * `--format=github` — GitHub Actions `::error` workflow annotations,
//!   so findings surface inline on the PR diff.
//! * `--pragmas` — print the suppression-pragma count for the workspace
//!   and exit 0; CI compares it against the committed budget.
//! * `--effects` — run the full lint, then print the `smart-flow` effect
//!   table (one line per fn with its fixed-point effect signature); exit
//!   status still reflects the findings.
//! * `--effects-out <dir>` — with `--effects`, also write
//!   `effects.jsonl` and `callgraph.jsonl` artifacts into `<dir>`.
//! * `--update-effects` — rewrite the `crates/lint/EFFECTS.json` entries
//!   from the current tree's inferred signatures and exit (reviewing the
//!   resulting diff is the drift-acceptance step).

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

fn find_workspace_root() -> PathBuf {
    let mut dir = std::env::current_dir().expect("cwd");
    loop {
        if dir.join("DESIGN.md").is_file() && dir.join("Cargo.toml").is_file() {
            return dir;
        }
        if !dir.pop() {
            return std::env::current_dir().expect("cwd");
        }
    }
}

enum Format {
    Text,
    Json,
    Github,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: smart-lint [--format=text|json|github] [--pragmas] [--effects] \
          [--effects-out <dir>] [--update-effects] [<root>]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut format = Format::Text;
    let mut pragmas = false;
    let mut effects = false;
    let mut effects_out: Option<PathBuf> = None;
    let mut update_effects = false;
    let mut root: Option<PathBuf> = None;

    let mut argv = std::env::args().skip(1);
    while let Some(arg) = argv.next() {
        if let Some(f) = arg.strip_prefix("--format=") {
            format = match f {
                "text" => Format::Text,
                "json" => Format::Json,
                "github" => Format::Github,
                _ => return usage(),
            };
        } else if arg == "--effects-out" {
            match argv.next() {
                Some(p) => effects_out = Some(PathBuf::from(p)),
                None => return usage(),
            }
        } else if arg == "--pragmas" {
            pragmas = true;
        } else if arg == "--effects" {
            effects = true;
        } else if arg == "--update-effects" {
            update_effects = true;
        } else if arg.starts_with("--") {
            return usage();
        } else if root.is_none() {
            root = Some(PathBuf::from(arg));
        } else {
            return usage();
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);

    if pragmas {
        println!("{}", smart_lint::count_pragmas(&root));
        return ExitCode::SUCCESS;
    }

    if update_effects {
        let g = smart_lint::effect_graph(&root);
        return match smart_lint::flow::update_effects_file(&root, &g) {
            Ok(rendered) => {
                print!("{rendered}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("smart-lint: {e}");
                ExitCode::FAILURE
            }
        };
    }

    let diags = smart_lint::run_lint(&root);

    if effects {
        let g = smart_lint::effect_graph(&root);
        print!("{}", g.render_table());
        if let Some(dir) = &effects_out {
            if let Err(e) = std::fs::create_dir_all(dir)
                .and_then(|()| std::fs::write(dir.join("effects.jsonl"), g.effects_jsonl()))
                .and_then(|()| std::fs::write(dir.join("callgraph.jsonl"), g.callgraph_jsonl()))
            {
                eprintln!(
                    "smart-lint: cannot write artifacts to {}: {e}",
                    dir.display()
                );
                return ExitCode::FAILURE;
            }
        }
    }

    for d in &diags {
        match format {
            Format::Text => println!("{d}"),
            Format::Json => println!("{}", smart_lint::to_json(d)),
            Format::Github => println!(
                "::error file={},line={},title=smart-lint {}::{}",
                d.path.to_string_lossy().replace('\\', "/"),
                d.line,
                d.rule,
                d.message.replace('\n', " ")
            ),
        }
    }
    if diags.is_empty() {
        eprintln!("smart-lint: clean ({})", root.display());
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "smart-lint: {} violation(s) in {}",
            diags.len(),
            root.display()
        );
        ExitCode::FAILURE
    }
}
