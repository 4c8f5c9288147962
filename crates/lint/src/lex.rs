//! The source scanner: one pass over raw Rust source.
//!
//! Rules must not fire on text inside comments, string/char literals or
//! `#[cfg(test)]` modules, and must honour `// lint:allow(<rule>)`
//! pragmas. [`lex`] walks the source once and produces everything the
//! rules read:
//!
//! * the token stream (idents, lifetimes, numbers, literal markers,
//!   single-char puncts), each token tagged with its 1-based line;
//! * the suppression pragmas found in plain `//` comments.
//!
//! Comments and literal contents never become tokens. The body of a
//! `#[cfg(test)] mod … { … }` is dropped from the tokens (its braces
//! stay), but pragmas inside it still count.

/// A suppression pragma found in a comment.
///
/// `// lint:allow(rule)` suppresses `rule` on the pragma's own line and
/// on the line immediately below (so a pragma can sit on its own line
/// above the code it excuses). `// lint:allow-file(rule)` suppresses the
/// rule for the whole file; it must come with a rationale in practice.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Allow {
    /// 1-based line the pragma appears on.
    pub line: usize,
    /// Rule name inside the parentheses.
    pub rule: String,
    /// Whether this is a whole-file `lint:allow-file` pragma.
    pub whole_file: bool,
}

/// One lexed token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tok {
    /// 1-based line the token starts on.
    pub line: usize,
    pub kind: TokKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (the lexer does not distinguish).
    Ident(String),
    /// `'a`, `'static`, `'_`.
    Lifetime(String),
    /// Numeric literal text (suffix included, e.g. `4096u64`).
    Num(String),
    /// A string literal (contents dropped).
    Str,
    /// A char literal (contents dropped).
    Char,
    /// Any other single character.
    Punct(char),
}

impl Tok {
    /// The token's identifier text, if it is an identifier.
    pub fn ident(&self) -> Option<&str> {
        match &self.kind {
            TokKind::Ident(s) => Some(s),
            _ => None,
        }
    }

    /// True if this token is the identifier `s`.
    pub fn is_ident(&self, s: &str) -> bool {
        matches!(&self.kind, TokKind::Ident(t) if t == s)
    }

    /// True if this token is the punct `c`.
    pub fn is_punct(&self, c: char) -> bool {
        self.kind == TokKind::Punct(c)
    }
}

/// The scanned form of one source file.
#[derive(Debug)]
pub struct Lexed {
    pub toks: Vec<Tok>,
    /// All suppression pragmas, in file order.
    pub allows: Vec<Allow>,
}

impl Lexed {
    /// True if `rule` is suppressed at `line` (1-based).
    pub fn allowed(&self, rule: &str, line: usize) -> bool {
        self.allows
            .iter()
            .any(|a| a.rule == rule && (a.whole_file || a.line == line || a.line + 1 == line))
    }
}

/// True at a `::` separator (two adjacent `:` puncts).
pub fn is_path_sep(toks: &[Tok], i: usize) -> bool {
    i + 1 < toks.len() && toks[i].is_punct(':') && toks[i + 1].is_punct(':')
}

/// Cursor state of one [`lex`] call.
struct Scan {
    src: Vec<char>,
    i: usize,
    line: usize,
    /// Open-brace depth inside a `#[cfg(test)]` module body; nothing is
    /// emitted while it is non-zero.
    blank: u32,
    out: Lexed,
}

impl Scan {
    fn at(&self, k: usize) -> Option<char> {
        self.src.get(self.i + k).copied()
    }

    fn starts(&self, s: &str) -> bool {
        s.chars().enumerate().all(|(k, c)| self.at(k) == Some(c))
    }

    /// Steps over one char, counting lines.
    fn bump(&mut self) {
        if self.at(0) == Some('\n') {
            self.line += 1;
        }
        self.i += 1;
    }

    /// A string literal starting here: `"`, `b"`, `r"`, `r#"`, `br##"` …
    /// Returns the prefix length before the quote and, for raw strings,
    /// the number of hashes.
    fn string_start(&self) -> Option<(usize, Option<usize>)> {
        let k = usize::from(self.at(0) == Some('b'));
        if self.at(k) == Some('r') {
            let hashes = (k + 1..).take_while(|&j| self.at(j) == Some('#')).count();
            if self.at(k + 1 + hashes) == Some('"') {
                return Some((k + 1 + hashes, Some(hashes)));
            }
        }
        (self.at(k) == Some('"')).then_some((k, None))
    }

    /// Reads identifier chars, stopping where a string literal starts.
    fn word(&mut self, text: &mut String) {
        while let Some(c) = self.at(0) {
            let word = c.is_alphanumeric() || c == '_';
            if !word || (!text.is_empty() && self.string_start().is_some()) {
                break;
            }
            text.push(c);
            self.i += 1;
        }
    }

    /// Skips an escaped literal body just past its opening `q`, through
    /// the closing `q`.
    fn quoted(&mut self, q: char) {
        while let Some(c) = self.at(0) {
            if c == '\\' && self.at(1).is_some_and(|n| n != '\n') {
                self.i += 2;
            } else if c == '\\' {
                self.i += 1;
            } else if c == q {
                self.i += 1;
                return;
            } else {
                self.bump();
            }
        }
    }
}

/// Scans Rust source into tokens and suppression pragmas.
pub fn lex(src: &str) -> Lexed {
    let mut s = Scan {
        src: src.chars().collect(),
        i: 0,
        line: 1,
        blank: 0,
        out: Lexed {
            toks: Vec::new(),
            allows: Vec::new(),
        },
    };
    // A `#[cfg(test)]` marker arms the blanking of the next `{ … }` block
    // when the token after it is a `mod…` ident.
    let mut mod_check = None;
    let mut armed = false;
    while let Some(c) = s.at(0) {
        let line = s.line;
        let kind = if c.is_whitespace() {
            s.bump();
            continue;
        } else if s.starts("//") {
            // `///` (but not `////`) and `//!` are doc comments: a pragma
            // explained there never activates.
            let is_doc = match s.at(2) {
                Some('/') => s.at(3) != Some('/'),
                Some('!') => true,
                _ => false,
            };
            let from = s.i + 2;
            while s.at(0).is_some_and(|c| c != '\n') {
                s.i += 1;
            }
            if !is_doc {
                let text: String = s.src[from..s.i].iter().collect();
                pragmas(&text, line, &mut s.out.allows);
            }
            continue;
        } else if s.starts("/*") {
            s.i += 2;
            let mut depth = 1;
            while depth > 0 && s.at(0).is_some() {
                if s.starts("*/") {
                    depth -= 1;
                    s.i += 2;
                } else if s.starts("/*") {
                    depth += 1;
                    s.i += 2;
                } else {
                    s.bump();
                }
            }
            continue;
        } else if let Some((prefix, raw)) = s.string_start() {
            s.i += prefix + 1;
            match raw {
                None => s.quoted('"'),
                Some(hashes) => {
                    while s.at(0).is_some() {
                        if s.at(0) == Some('"') && (1..=hashes).all(|k| s.at(k) == Some('#')) {
                            s.i += 1 + hashes;
                            break;
                        }
                        s.bump();
                    }
                }
            }
            TokKind::Str
        } else if c == '\'' {
            // A lifetime is `'` + ident not closed by a quote right after
            // one char (`'a>`, `'static`); anything else is a char literal.
            s.i += 1;
            let mut text = String::from("'");
            if s.at(0).is_some_and(|n| n.is_alphabetic() || n == '_') && s.at(1) != Some('\'') {
                s.word(&mut text);
                TokKind::Lifetime(text)
            } else {
                s.quoted('\'');
                TokKind::Char
            }
        } else if c.is_alphabetic() || c == '_' {
            let mut text = String::new();
            s.word(&mut text);
            TokKind::Ident(text)
        } else if c.is_ascii_digit() {
            let mut text = String::new();
            s.word(&mut text);
            // A fractional part: `.` followed by a digit (so `0..n`
            // ranges stay three tokens).
            if s.at(0) == Some('.') && s.at(1).is_some_and(|d| d.is_ascii_digit()) {
                s.i += 1;
                text.push('.');
                s.word(&mut text);
            }
            TokKind::Num(text)
        } else {
            if c == '#' && s.blank == 0 && s.starts("#[cfg(test)]") {
                // The token after the marker's seven (`#`, `[`, `cfg`,
                // `(`, `test`, `)`, `]`) decides.
                mod_check = Some(s.out.toks.len() + 7);
            }
            s.i += 1;
            TokKind::Punct(c)
        };
        if s.blank > 0 {
            match kind {
                TokKind::Punct('{') => s.blank += 1,
                TokKind::Punct('}') => s.blank -= 1,
                _ => {}
            }
            if s.blank > 0 {
                continue;
            }
        }
        if mod_check == Some(s.out.toks.len()) {
            armed |= matches!(&kind, TokKind::Ident(t) if t.starts_with("mod"));
        }
        let opens_test_mod = armed && kind == TokKind::Punct('{');
        s.out.toks.push(Tok { line, kind });
        if opens_test_mod {
            armed = false;
            s.blank = 1;
        }
    }
    s.out
}

/// Parses `lint:allow(a, b)` / `lint:allow-file(a)` out of one comment.
/// (`lint:allow(` needs the paren right after `allow`, so the two
/// markers never double-report.)
fn pragmas(comment: &str, line: usize, allows: &mut Vec<Allow>) {
    for (marker, whole_file) in [("lint:allow-file(", true), ("lint:allow(", false)] {
        let mut rest = comment;
        while let Some(pos) = rest.find(marker) {
            let after = &rest[pos + marker.len()..];
            let Some(end) = after.find(')') else { break };
            for rule in after[..end].split(',').map(str::trim) {
                if !rule.is_empty() {
                    allows.push(Allow {
                        line,
                        rule: rule.to_string(),
                        whole_file,
                    });
                }
            }
            rest = &after[end..];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Assembles pragma text at runtime so this file contributes nothing
    /// to the CI grep gate counting suppression lines in `crates/*/src`.
    fn pragma(kind: &str, rule: &str) -> String {
        format!("lint:{kind}({rule})")
    }

    /// The tokens of each source line rendered as text (a string literal
    /// as `""`, a char literal as `''`), one line per source line.
    fn text(src: &str) -> String {
        let toks = lex(src).toks;
        let render = |t: &Tok| match &t.kind {
            TokKind::Ident(s) | TokKind::Lifetime(s) | TokKind::Num(s) => s.clone(),
            TokKind::Str => "\"\"".into(),
            TokKind::Char => "''".into(),
            TokKind::Punct(c) => c.to_string(),
        };
        let line = |n: usize| toks.iter().filter(|t| t.line == n).map(render).collect();
        let lines: Vec<String> = (1..=src.lines().count()).map(line).collect();
        lines.join("\n")
    }

    #[test]
    fn strings_and_comments_are_blanked() {
        let t = text("let x = \"HashMap\"; // HashMap in comment\nuse foo;\n");
        assert!(!t.contains("HashMap"));
        assert!(t.contains("usefoo;"));
        assert_eq!(t.lines().count(), 2);
    }

    #[test]
    fn raw_strings_are_blanked() {
        let t = text("let x = r#\"Instant::now\"#; let y = 1;");
        assert!(!t.contains("Instant"));
        assert!(t.contains("letx=\"\";lety=1;"), "{t}");
    }

    #[test]
    fn raw_string_containing_line_comment_marker_stays_a_string() {
        // A `//` inside a raw string must not open a comment: the rest of
        // the line is code and rules must still see it.
        let t = text("let u = r#\"http://x\"#; thread_rng();");
        assert!(!t.contains("http"));
        assert!(t.contains("thread_rng();"), "{t}");
    }

    #[test]
    fn raw_string_containing_quotes_needs_matching_hashes_to_close() {
        let t = text("let q = r##\"say \"# hi\"\"##; let z = 2;");
        assert!(!t.contains("say"));
        assert!(!t.contains("hi"));
        assert!(t.contains("letz=2;"), "{t}");
    }

    #[test]
    fn empty_raw_string_closes_immediately() {
        let t = text("let e = r#\"\"#; let after = 3;");
        assert!(t.contains("letafter=3;"), "{t}");
    }

    #[test]
    fn string_line_continuation_preserves_line_count() {
        let src = "let s = \"a\\\n    b\";\nlet t = 1;\n";
        assert_eq!(text(src).lines().nth(2), Some("lett=1;"));
        assert!(lex(src).toks.iter().any(|t| t.is_ident("t") && t.line == 3));
    }

    #[test]
    fn doc_comments_do_not_carry_pragmas() {
        // `///` and `//!` are documentation: a pragma *explained* there
        // (e.g. in a rule's own docs) must not suppress anything. `////`
        // is rustdoc-plain and keeps working, as does plain `//`.
        let l = lex(&format!(
            "/// suppress with {}\nInstant::now();\n\
             //! also {}\n\
             //// plain: {}\n\
             // plain: {}\nx();\n",
            pragma("allow", "wall-clock"),
            pragma("allow", "unordered-iter"),
            pragma("allow", "rc-identity"),
            pragma("allow", "unseeded-rng"),
        ));
        assert!(!l.allowed("wall-clock", 2), "doc `///` must not suppress");
        assert!(
            !l.allowed("unordered-iter", 3),
            "doc `//!` must not suppress"
        );
        assert!(l.allowed("rc-identity", 4), "`////` is a plain comment");
        assert!(l.allowed("unseeded-rng", 6), "plain `//` keeps working");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        let t = text("fn f<'a>(x: &'a str) { let c = 'y'; }");
        assert!(t.contains("'a>"), "lifetime kept: {t}");
        assert!(!t.contains('y'), "char literal blanked: {t}");
        assert!(t.contains("=''"), "{t}");
    }

    #[test]
    fn nested_block_comments() {
        let t = text("/* outer /* inner */ still comment */ let z = 3;");
        assert_eq!(t, "letz=3;");
    }

    #[test]
    fn pragmas_are_collected() {
        let l = lex(&format!(
            "// {}\nInstant::now();\n// {}: reason\n",
            pragma("allow", "wall-clock"),
            pragma("allow-file", "unordered-iter"),
        ));
        assert!(l.allowed("wall-clock", 1));
        assert!(l.allowed("wall-clock", 2), "applies one line below");
        assert!(!l.allowed("wall-clock", 3));
        assert!(l.allowed("unordered-iter", 999), "file pragma is global");
    }

    #[test]
    fn test_mods_are_blanked() {
        let src = format!(
            "use std::collections::BTreeMap;\n#[cfg(test)]\nmod tests {{\n    \
             use std::collections::HashMap; // {}\n}}\nfn live() {{}}\n",
            pragma("allow", "unordered-iter")
        );
        let l = lex(&src);
        let t = text(&src);
        assert!(!t.contains("HashMap"));
        assert!(t.contains("BTreeMap"));
        assert!(t.contains("fnlive"));
        assert_eq!(t.lines().nth(2), Some("modtests{"), "the braces stay");
        assert_eq!(t.lines().nth(4), Some("}"));
        assert!(l.allowed("unordered-iter", 4), "pragmas inside still count");
    }

    #[test]
    fn tokens_carry_lines_and_kinds() {
        let l = lex("use std::time::Instant as Clock;\nlet t = Clock::now();\n");
        let idents: Vec<(&str, usize)> = l
            .toks
            .iter()
            .filter_map(|t| t.ident().map(|s| (s, t.line)))
            .collect();
        assert!(idents.contains(&("Instant", 1)));
        assert!(idents.contains(&("Clock", 2)));
        assert!(idents.contains(&("now", 2)));
    }

    #[test]
    fn tokens_keep_code_and_literal_markers() {
        let t = text("let x = \"Hash Map\";  // comment\nfor (k, v) in &m { }\n");
        assert_eq!(t, "letx=\"\";\nfor(k,v)in&m{}");
    }

    #[test]
    fn literals_become_marker_tokens() {
        let l = lex("let s = \"HashMap\"; let c = 'x'; let b = b\"x\"; let lt: &'static str = s;");
        assert_eq!(l.toks.iter().filter(|t| t.kind == TokKind::Str).count(), 2);
        assert!(l.toks.iter().any(|t| t.kind == TokKind::Char));
        assert!(l
            .toks
            .iter()
            .any(|t| matches!(&t.kind, TokKind::Lifetime(s) if s == "'static")));
        assert!(!l.toks.iter().any(|t| t.is_ident("HashMap")));
    }

    #[test]
    fn numbers_and_ranges() {
        let l = lex("for i in 0..4_096u64 { f(1.5); }");
        let nums: Vec<&str> = l
            .toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Num(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(nums, vec!["0", "4_096u64", "1.5"]);
    }
}
