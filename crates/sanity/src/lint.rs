//! `stoolint`: the workspace invariant linter.
//!
//! The architecture invariants in `ROADMAP.md` ("never reintroduce
//! polling", "never allocate on an emit path", "never hold a guard
//! across the rank barrier") were prose until this module; here they are
//! data-driven rules over a lightweight Rust token stream, enforced by
//! CI with `benchgate`-style exit-2-on-violation semantics.
//!
//! The engine is three layers:
//!
//! 1. **A tokenizer** ([`tokenize`]) that understands exactly as much
//!    Rust as a lint needs: idents, punctuation, string/char/raw-string
//!    literals (so `"eprintln"` inside a string never trips a rule),
//!    lifetimes, and comments (kept, because suppressions and region
//!    markers live in comments).
//! 2. **Per-file context** ([`FileContext`]): `// lint:allow(rule)`
//!    suppressions, `// lint:region-start(rule)` / `// lint:region-end`
//!    annotation-scoped regions, and `#[cfg(test)] mod` spans so rules
//!    can exempt unit-test code.
//! 3. **Rule visitors** ([`default_rules`]): each rule is a config
//!    struct (banned names, barrier function lists, path filters) plus
//!    one pass over the tokens producing [`Finding`]s with exact spans.
//!
//! The driver ([`lint_tree`]) walks `crates/**/*.rs`, runs every rule,
//! then checks the workspace manifests for the `shims-only-deps` rule
//! (every dependency must resolve inside the repo — a registry dep
//! cannot build offline). Exit semantics mirror `benchgate`: 0 clean,
//! 2 on any finding, 1 on a driver error.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::path::{Path, PathBuf};

use crate::json_string;

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

/// Token classes the lint rules distinguish.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident,
    /// Single punctuation character.
    Punct,
    /// String literal (plain, raw, byte; contents not inspected).
    Str,
    /// Char literal.
    Char,
    /// Numeric literal.
    Num,
    /// Lifetime (`'a`).
    Lifetime,
    /// Line or block comment, text preserved (suppressions live here).
    Comment,
}

/// One token with its source span (1-based line and column).
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class.
    pub kind: TokKind,
    /// Source text (for `Str`/`Comment` this includes delimiters).
    pub text: String,
    /// 1-based line of the token's first character.
    pub line: u32,
    /// 1-based column of the token's first character.
    pub col: u32,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: u32,
    col: u32,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }

    fn peek_at(&self, off: usize) -> Option<u8> {
        self.src.get(self.pos + off).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
            self.col = 1;
        } else {
            self.col += 1;
        }
        Some(b)
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Tokenize Rust source. Never fails: unterminated literals consume to
/// end of input (the lint keeps going; rustc owns real syntax errors).
pub fn tokenize(source: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src: source.as_bytes(),
        pos: 0,
        line: 1,
        col: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = cur.peek() {
        let (line, col) = (cur.line, cur.col);
        let start = cur.pos;
        match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
            }
            b'/' if cur.peek_at(1) == Some(b'/') => {
                while let Some(c) = cur.peek() {
                    if c == b'\n' {
                        break;
                    }
                    cur.bump();
                }
                out.push(tok(TokKind::Comment, &cur, start, line, col));
            }
            b'/' if cur.peek_at(1) == Some(b'*') => {
                cur.bump();
                cur.bump();
                let mut depth = 1usize;
                while depth > 0 {
                    match (cur.peek(), cur.peek_at(1)) {
                        (Some(b'*'), Some(b'/')) => {
                            depth -= 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(b'/'), Some(b'*')) => {
                            depth += 1;
                            cur.bump();
                            cur.bump();
                        }
                        (Some(_), _) => {
                            cur.bump();
                        }
                        (None, _) => break,
                    }
                }
                out.push(tok(TokKind::Comment, &cur, start, line, col));
            }
            b'"' => {
                scan_string(&mut cur);
                out.push(tok(TokKind::Str, &cur, start, line, col));
            }
            b'r' | b'b' if raw_string_lookahead(&cur) => {
                scan_raw_or_byte_string(&mut cur);
                out.push(tok(TokKind::Str, &cur, start, line, col));
            }
            b'\'' => {
                // Lifetime or char literal: a lifetime is `'ident` NOT
                // followed by a closing quote.
                if cur.peek_at(1).map(is_ident_start).unwrap_or(false)
                    && cur.peek_at(2) != Some(b'\'')
                {
                    cur.bump();
                    while cur.peek().map(is_ident_cont).unwrap_or(false) {
                        cur.bump();
                    }
                    out.push(tok(TokKind::Lifetime, &cur, start, line, col));
                } else {
                    cur.bump();
                    if cur.peek() == Some(b'\\') {
                        cur.bump();
                        cur.bump();
                    } else {
                        cur.bump();
                    }
                    if cur.peek() == Some(b'\'') {
                        cur.bump();
                    }
                    out.push(tok(TokKind::Char, &cur, start, line, col));
                }
            }
            c if is_ident_start(c) => {
                while cur.peek().map(is_ident_cont).unwrap_or(false) {
                    cur.bump();
                }
                out.push(tok(TokKind::Ident, &cur, start, line, col));
            }
            c if c.is_ascii_digit() => {
                while cur
                    .peek()
                    .map(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'.')
                    .unwrap_or(false)
                {
                    // `1.0` consumes the dot, but `1..n` must not.
                    if cur.peek() == Some(b'.') && cur.peek_at(1) == Some(b'.') {
                        break;
                    }
                    cur.bump();
                }
                out.push(tok(TokKind::Num, &cur, start, line, col));
            }
            b':' if cur.peek_at(1) == Some(b':') => {
                // `::` as one token so rules can match paths segment-wise.
                cur.bump();
                cur.bump();
                out.push(tok(TokKind::Punct, &cur, start, line, col));
            }
            _ => {
                cur.bump();
                out.push(tok(TokKind::Punct, &cur, start, line, col));
            }
        }
    }
    out
}

fn tok(kind: TokKind, cur: &Cursor<'_>, start: usize, line: u32, col: u32) -> Token {
    Token {
        kind,
        text: String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned(),
        line,
        col,
    }
}

/// Whether the cursor sits on `r"`, `r#`, `b"`, `br"` or `br#`.
fn raw_string_lookahead(cur: &Cursor<'_>) -> bool {
    matches!(
        (cur.peek(), cur.peek_at(1), cur.peek_at(2)),
        (Some(b'r'), Some(b'"' | b'#'), _)
            | (Some(b'b'), Some(b'"'), _)
            | (Some(b'b'), Some(b'r'), Some(b'"' | b'#'))
    )
}

fn scan_string(cur: &mut Cursor<'_>) {
    cur.bump(); // opening quote
    while let Some(c) = cur.peek() {
        match c {
            b'\\' => {
                cur.bump();
                cur.bump();
            }
            b'"' => {
                cur.bump();
                return;
            }
            _ => {
                cur.bump();
            }
        }
    }
}

fn scan_raw_or_byte_string(cur: &mut Cursor<'_>) {
    // Consume `r`, `b`, `br` prefix.
    while matches!(cur.peek(), Some(b'r') | Some(b'b')) {
        cur.bump();
    }
    let mut hashes = 0usize;
    while cur.peek() == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    if cur.peek() != Some(b'"') {
        return; // `b` ident-ish false positive; caller already emitted prefix
    }
    if hashes == 0 {
        scan_string(cur);
        return;
    }
    cur.bump(); // opening quote
    loop {
        match cur.peek() {
            None => return,
            Some(b'"') => {
                cur.bump();
                let mut seen = 0usize;
                while seen < hashes && cur.peek() == Some(b'#') {
                    seen += 1;
                    cur.bump();
                }
                if seen == hashes {
                    return;
                }
            }
            Some(_) => {
                cur.bump();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Findings
// ---------------------------------------------------------------------------

/// One rule violation, with its exact source span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: &'static str,
    /// Repo-relative path of the offending file.
    pub path: String,
    /// 1-based line of the violation.
    pub line: u32,
    /// 1-based column of the violation.
    pub col: u32,
    /// Human explanation, naming the invariant the rule encodes.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

// ---------------------------------------------------------------------------
// Per-file context: suppressions, regions, test spans
// ---------------------------------------------------------------------------

/// Everything a rule needs to know about one file beyond its tokens.
pub struct FileContext {
    /// Repo-relative path label.
    pub path: String,
    /// Token stream (comments included).
    pub tokens: Vec<Token>,
    /// `lint:allow(rule)` lines: rule -> lines the suppression covers
    /// (the comment's own line and the line below it).
    allows: BTreeMap<String, BTreeSet<u32>>,
    /// `lint:region-start(rule)` .. `lint:region-end(rule)` line ranges.
    regions: BTreeMap<String, Vec<(u32, u32)>>,
    /// Line ranges of `#[cfg(test)] mod` items.
    test_spans: Vec<(u32, u32)>,
}

impl FileContext {
    /// Build the context for one file.
    pub fn new(path: &str, source: &str) -> FileContext {
        let tokens = tokenize(source);
        let mut allows: BTreeMap<String, BTreeSet<u32>> = BTreeMap::new();
        let mut starts: BTreeMap<String, Vec<u32>> = BTreeMap::new();
        let mut regions: BTreeMap<String, Vec<(u32, u32)>> = BTreeMap::new();
        for t in &tokens {
            if t.kind != TokKind::Comment {
                continue;
            }
            for rule in parse_marker(&t.text, "lint:allow(") {
                let entry = allows.entry(rule).or_default();
                entry.insert(t.line);
                entry.insert(t.line + 1);
            }
            for rule in parse_marker(&t.text, "lint:region-start(") {
                starts.entry(rule).or_default().push(t.line);
            }
            for rule in parse_marker(&t.text, "lint:region-end(") {
                if let Some(open) = starts.get_mut(&rule).and_then(|v| v.pop()) {
                    regions.entry(rule).or_default().push((open, t.line));
                }
            }
        }
        // An unclosed region runs to end of file (fail safe: checked).
        for (rule, opens) in starts {
            for open in opens {
                regions
                    .entry(rule.clone())
                    .or_default()
                    .push((open, u32::MAX));
            }
        }
        let test_spans = find_test_spans(&tokens);
        FileContext {
            path: path.to_string(),
            tokens,
            allows,
            regions,
            test_spans,
        }
    }

    /// Whether `line` is covered by a `lint:allow(rule)` suppression.
    pub fn allowed(&self, rule: &str, line: u32) -> bool {
        self.allows
            .get(rule)
            .map(|lines| lines.contains(&line))
            .unwrap_or(false)
    }

    /// Whether `line` falls inside a `lint:region(rule)` span.
    pub fn in_region(&self, rule: &str, line: u32) -> bool {
        self.regions
            .get(rule)
            .map(|spans| spans.iter().any(|&(a, b)| line >= a && line <= b))
            .unwrap_or(false)
    }

    /// Whether `line` falls inside a `#[cfg(test)] mod` item.
    pub fn in_test(&self, line: u32) -> bool {
        self.test_spans.iter().any(|&(a, b)| line >= a && line <= b)
    }

    /// Code lines: lines carrying at least one token that is neither a
    /// comment nor inside a `#[cfg(test)] mod` item. A literal spanning
    /// several lines counts each of them.
    pub fn code_lines(&self) -> usize {
        let mut lines = BTreeSet::new();
        for t in self.tokens.iter().filter(|t| t.kind != TokKind::Comment) {
            let last = t.line + t.text.matches('\n').count() as u32;
            lines.extend((t.line..=last).filter(|&line| !self.in_test(line)));
        }
        lines.len()
    }
}

/// Extract rule names out of `marker(rule1, rule2)` occurrences in a
/// comment.
fn parse_marker(comment: &str, marker: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = comment;
    while let Some(at) = rest.find(marker) {
        rest = &rest[at + marker.len()..];
        if let Some(close) = rest.find(')') {
            for rule in rest[..close].split(',') {
                let rule = rule.trim();
                if !rule.is_empty() {
                    out.push(rule.to_string());
                }
            }
            rest = &rest[close + 1..];
        } else {
            break;
        }
    }
    out
}

/// Line spans of `#[cfg(test)] mod name { ... }` items, from the attribute
/// to the closing brace, brace-matched.
fn find_test_spans(tokens: &[Token]) -> Vec<(u32, u32)> {
    let toks: Vec<&Token> = tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect();
    let mut spans = Vec::new();
    let mut i = 0usize;
    while i < toks.len() {
        if is_cfg_test_attr(&toks, i) {
            // Skip this attribute and any further attributes, then
            // expect `mod name {`.
            let mut j = i;
            while j < toks.len() && toks[j].text == "#" {
                j = skip_attr(&toks, j);
            }
            if j + 2 < toks.len()
                && toks[j].text == "mod"
                && toks[j + 1].kind == TokKind::Ident
                && toks[j + 2].text == "{"
            {
                let open_line = toks[i].line;
                let mut depth = 0i64;
                let mut k = j + 2;
                let mut close_line = open_line;
                while k < toks.len() {
                    match toks[k].text.as_str() {
                        "{" => depth += 1,
                        "}" => {
                            depth -= 1;
                            if depth == 0 {
                                close_line = toks[k].line;
                                break;
                            }
                        }
                        _ => {}
                    }
                    k += 1;
                }
                spans.push((open_line, close_line.max(open_line)));
                i = k;
            }
        }
        i += 1;
    }
    spans
}

fn is_cfg_test_attr(toks: &[&Token], i: usize) -> bool {
    toks.len() > i + 5
        && toks[i].text == "#"
        && toks[i + 1].text == "["
        && toks[i + 2].text == "cfg"
        && toks[i + 3].text == "("
        && toks[i + 4].text == "test"
}

/// Given `toks[i] == "#"`, return the index just past the attribute.
fn skip_attr(toks: &[&Token], i: usize) -> usize {
    let mut j = i + 1;
    if toks.get(j).map(|t| t.text.as_str()) != Some("[") {
        return i + 1;
    }
    let mut depth = 0i64;
    while j < toks.len() {
        match toks[j].text.as_str() {
            "[" => depth += 1,
            "]" => {
                depth -= 1;
                if depth == 0 {
                    return j + 1;
                }
            }
            _ => {}
        }
        j += 1;
    }
    j
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

/// One data-driven lint rule: configuration plus which visitor runs it.
pub struct Rule {
    /// Stable rule name (`lint:allow(name)` refers to it).
    pub name: &'static str,
    /// One-line statement of the invariant the rule encodes.
    pub invariant: &'static str,
    /// Path substrings the rule applies to (empty = every file).
    pub paths: &'static [&'static str],
    /// Path substrings exempt from the rule (tooling that legitimately
    /// violates it, e.g. gate binaries writing stderr).
    pub allow_paths: &'static [&'static str],
    /// Whether `#[cfg(test)] mod` bodies are exempt.
    pub skip_tests: bool,
    /// The visitor that actually scans the tokens.
    pub check: Check,
}

/// The visitor variants (the data each carries makes the rule).
pub enum Check {
    /// Flag invocations of any of these macros (ident followed by `!`).
    BannedMacro(&'static [&'static str]),
    /// Flag calls to any of these functions/methods (ident followed by
    /// `(`, excluding `fn` definitions).
    BannedCall(&'static [&'static str]),
    /// Flag calls spelled as one of these token paths (e.g.
    /// `["thread", "::", "sleep"]` matches both `thread::sleep(..)` and
    /// `std::thread::sleep(..)`), followed by `(`.
    BannedPath(&'static [&'static [&'static str]]),
    /// Within `lint:region-start/-end` spans of this rule, flag banned
    /// macros and calls (allocation on an emit path).
    AllocInRegion {
        /// Banned macro names.
        macros: &'static [&'static str],
        /// Banned call/method names.
        calls: &'static [&'static str],
    },
    /// A `.lock()` guard live across a call to one of these barrier
    /// functions — including the receiver-evaluated-first single
    /// statement form `x.lock().unwrap().push(session.finish())`.
    GuardAcrossBarrier(&'static [&'static str]),
}

/// The workspace rule set. Data, not code: adding a banned name or a
/// barrier function is a one-line edit here.
pub fn default_rules() -> Vec<Rule> {
    vec![
        Rule {
            name: "no-eprintln",
            invariant: "tracing flows through simnet::telemetry (flight recorder), never ad-hoc stderr",
            paths: &["crates/"],
            // Gate tooling reports to stderr by design; its sites also
            // carry lint:allow so the exemption is visible in-source.
            allow_paths: &[],
            skip_tests: true,
            check: Check::BannedMacro(&["eprintln", "eprint"]),
        },
        Rule {
            name: "no-sleep-poll",
            invariant: "the fabric and coordinator are event-driven; no sleeping or spinning on hot paths",
            paths: &["crates/simnet/src", "crates/dmtcp/src"],
            allow_paths: &[],
            skip_tests: true,
            // `thread::sleep` as a path, so a method that happens to be
            // named `sleep` stays legal while a raw OS sleep — the
            // poll-loop class — fires. Waits park on a condvar.
            check: Check::BannedPath(&[
                &["thread", "::", "sleep"],
                &["hint", "::", "spin_loop"],
                &["thread", "::", "park_timeout"],
                &["spin_loop"],
                &["park_timeout"],
                &["sleep_ms"],
            ]),
        },
        Rule {
            name: "no-alloc-in-emit",
            invariant: "telemetry emit paths are wait-free and alloc-free (seqlock stores only)",
            paths: &["crates/"],
            allow_paths: &[],
            skip_tests: false,
            check: Check::AllocInRegion {
                macros: &["format", "vec"],
                calls: &[
                    "push",
                    "push_str",
                    "to_string",
                    "to_owned",
                    "to_vec",
                    "collect",
                    "with_capacity",
                    "new_boxed",
                ],
            },
        },
        Rule {
            name: "guard-across-barrier",
            invariant: "no MutexGuard may be live across a rank barrier (finish/rendezvous/exchange_counters)",
            paths: &["crates/", "tests/", "benches/", "examples/"],
            allow_paths: &[],
            skip_tests: false,
            check: Check::GuardAcrossBarrier(&["finish", "rendezvous", "exchange_counters"]),
        },
        Rule {
            name: "one-persistence-path",
            invariant: "checkpoint bytes reach and leave a disk only through the ObjectTier seam in dmtcp::tier",
            paths: &["crates/dmtcp/src", "crates/mana/src", "crates/core/src"],
            allow_paths: &["crates/dmtcp/src/tier.rs"],
            skip_tests: true,
            check: Check::BannedPath(&[
                &["File", "::", "create"],
                &["File", "::", "open"],
                &["fs", "::", "write"],
                &["fs", "::", "rename"],
                &["fs", "::", "read"],
                &["fs", "::", "read_dir"],
                &["fs", "::", "remove_file"],
                &["fs", "::", "remove_dir_all"],
                &["fs", "::", "metadata"],
            ]),
        },
        Rule {
            name: "one-run-path",
            invariant: "a run is wired (chain opened, committer spawned, world launched) only by session.rs",
            paths: &["crates/core/src"],
            allow_paths: &["crates/core/src/session.rs"],
            skip_tests: true,
            check: Check::BannedPath(&[
                &["SharedStoreWriter", "::", "spawn_stores"],
                &["World", "::", "run_plan"],
                &["attach_shared_tier"],
                &["open_store_scripted"],
            ]),
        },
        Rule {
            name: "no-free-running-harness",
            invariant: "an integration test's outcome never depends on the OS schedule: no yield or sleep except a justified wait on a named condition",
            paths: &["tests/"],
            allow_paths: &[],
            skip_tests: false,
            check: Check::BannedPath(&[&["thread", "::", "yield_now"], &["thread", "::", "sleep"]]),
        },
        Rule {
            name: "one-payload-path",
            invariant: "an MPI message payload is built only by simnet::mpi::Process, whose pool recycles its buffer",
            paths: &["crates/simnet/src/mpi/"],
            allow_paths: &["crates/simnet/src/mpi/process.rs"],
            skip_tests: true,
            check: Check::BannedPath(&[
                &["Bytes", "::", "copy_from_slice"],
                &["Bytes", "::", "from"],
            ]),
        },
    ]
}

/// Run every applicable rule over one file's source. `path` is the
/// repo-relative label stamped into findings.
pub fn lint_source(path: &str, source: &str, rules: &[Rule]) -> Vec<Finding> {
    lint_context(&FileContext::new(path, source), rules)
}

/// [`lint_source`] over an already tokenized file.
fn lint_context(ctx: &FileContext, rules: &[Rule]) -> Vec<Finding> {
    let path = ctx.path.as_str();
    let mut out = Vec::new();
    for rule in rules {
        if !rule.paths.is_empty() && !rule.paths.iter().any(|p| path.contains(p)) {
            continue;
        }
        if rule.allow_paths.iter().any(|p| path.contains(p)) {
            continue;
        }
        let raw = match &rule.check {
            Check::BannedMacro(macros) => check_banned_macro(ctx, rule, macros),
            Check::BannedCall(calls) => check_banned_call(ctx, rule, calls),
            Check::BannedPath(paths) => check_banned_path(ctx, rule, paths),
            Check::AllocInRegion { macros, calls } => {
                check_alloc_in_region(ctx, rule, macros, calls)
            }
            Check::GuardAcrossBarrier(barriers) => check_guard_across_barrier(ctx, rule, barriers),
        };
        out.extend(raw.into_iter().filter(|f| {
            if ctx.allowed(rule.name, f.line) {
                return false;
            }
            if rule.skip_tests && ctx.in_test(f.line) {
                return false;
            }
            true
        }));
    }
    out.sort_by_key(|f| (f.line, f.col));
    out
}

/// Code tokens only (comments dropped), for rules that scan syntax.
fn code_tokens(ctx: &FileContext) -> Vec<&Token> {
    ctx.tokens
        .iter()
        .filter(|t| t.kind != TokKind::Comment)
        .collect()
}

fn check_banned_macro(ctx: &FileContext, rule: &Rule, macros: &[&str]) -> Vec<Finding> {
    let toks = code_tokens(ctx);
    let mut out = Vec::new();
    for w in toks.windows(2) {
        if w[0].kind == TokKind::Ident && w[1].text == "!" && macros.contains(&w[0].text.as_str()) {
            out.push(Finding {
                rule: rule.name,
                path: ctx.path.clone(),
                line: w[0].line,
                col: w[0].col,
                message: format!("`{}!` is banned: {}", w[0].text, rule.invariant),
            });
        }
    }
    out
}

fn check_banned_call(ctx: &FileContext, rule: &Rule, calls: &[&str]) -> Vec<Finding> {
    let toks = code_tokens(ctx);
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if toks[i].kind == TokKind::Ident
            && toks[i + 1].text == "("
            && calls.contains(&toks[i].text.as_str())
            && (i == 0 || toks[i - 1].text != "fn")
        {
            out.push(Finding {
                rule: rule.name,
                path: ctx.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!("call to `{}`: {}", toks[i].text, rule.invariant),
            });
        }
    }
    out
}

fn check_banned_path(ctx: &FileContext, rule: &Rule, paths: &[&[&str]]) -> Vec<Finding> {
    let toks = code_tokens(ctx);
    let mut out = Vec::new();
    for i in 0..toks.len() {
        for path in paths {
            let n = path.len();
            if i + n >= toks.len() {
                continue;
            }
            let matches = (0..n).all(|k| toks[i + k].text == path[k])
                && toks[i + n].text == "("
                && (i == 0 || toks[i - 1].text != "fn")
                // A bare (single-segment) form only matches a free call:
                // `foo::bar(` is the longer path forms' business, and
                // matching both would double-report one call site.
                && (n > 1 || i == 0 || toks[i - 1].text != "::");
            if matches {
                out.push(Finding {
                    rule: rule.name,
                    path: ctx.path.clone(),
                    line: toks[i].line,
                    col: toks[i].col,
                    message: format!("call to `{}`: {}", path.join(""), rule.invariant),
                });
                break;
            }
        }
    }
    out
}

fn check_alloc_in_region(
    ctx: &FileContext,
    rule: &Rule,
    macros: &[&str],
    calls: &[&str],
) -> Vec<Finding> {
    let toks = code_tokens(ctx);
    let mut out = Vec::new();
    for i in 0..toks.len().saturating_sub(1) {
        if !ctx.in_region(rule.name, toks[i].line) {
            continue;
        }
        if toks[i].kind != TokKind::Ident {
            continue;
        }
        let name = toks[i].text.as_str();
        let next = toks[i + 1].text.as_str();
        let is_macro = next == "!" && macros.contains(&name);
        let is_call = next == "(" && calls.contains(&name) && (i == 0 || toks[i - 1].text != "fn");
        // `Box::new(..)` / `String::from(..)`: a constructor call whose
        // path starts at a heap type.
        let is_heap_ctor =
            next == "::" && matches!(name, "Box" | "String" | "Vec" | "BTreeMap" | "HashMap");
        if is_macro || is_call || is_heap_ctor {
            out.push(Finding {
                rule: rule.name,
                path: ctx.path.clone(),
                line: toks[i].line,
                col: toks[i].col,
                message: format!(
                    "`{}` allocates inside an emit region: {}",
                    name, rule.invariant
                ),
            });
        }
    }
    out
}

/// The PR 6 deadlock class. Two forms are flagged:
///
/// * **Receiver-evaluated-first**: one statement containing `.lock(`
///   followed (later in the same statement) by a barrier call —
///   `results.lock().unwrap().push(session.finish())` evaluates the
///   receiver (the guard) before the argument, so the lock is held
///   across the rank barrier.
/// * **Guard live across a barrier**: `let g = x.lock()...;` where the
///   initializer *ends* in the guard (only `.unwrap()` / `.expect(..)` /
///   `?` after `.lock()`), followed by a barrier call in the same block
///   before `g` is dropped.
fn check_guard_across_barrier(ctx: &FileContext, rule: &Rule, barriers: &[&str]) -> Vec<Finding> {
    let toks = code_tokens(ctx);
    let mut out = Vec::new();

    #[derive(Debug)]
    struct Guard {
        name: String,
        depth: usize,
        line: u32,
    }
    let mut guards: Vec<Guard> = Vec::new();
    let mut depth = 0usize;
    // Token indices of the statement being accumulated.
    let mut stmt: Vec<usize> = Vec::new();

    let barrier_at = |idxs: &[usize], from: usize| -> Option<usize> {
        idxs.iter().copied().skip(from).find(|&i| {
            toks[i].kind == TokKind::Ident
                && barriers.contains(&toks[i].text.as_str())
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
                && (i == 0 || toks[i - 1].text != "fn")
        })
    };
    let lock_at = |idxs: &[usize]| -> Option<usize> {
        idxs.iter().copied().position(|i| {
            toks[i].text == "lock"
                && i > 0
                && toks[i - 1].text == "."
                && toks.get(i + 1).map(|t| t.text.as_str()) == Some("(")
        })
    };

    let flush =
        |stmt: &mut Vec<usize>, guards: &mut Vec<Guard>, depth: usize, out: &mut Vec<Finding>| {
            if stmt.is_empty() {
                return;
            }
            let lock_pos = lock_at(stmt);
            // Form 1: lock and barrier in one statement, lock first.
            if let Some(lp) = lock_pos {
                if let Some(bi) = barrier_at(stmt, lp + 1) {
                    out.push(Finding {
                        rule: rule.name,
                        path: ctx.path.clone(),
                        line: toks[bi].line,
                        col: toks[bi].col,
                        message: format!(
                            "`{}()` called while the statement's `.lock()` guard is live \
                             (receiver is evaluated first): {}",
                            toks[bi].text, rule.invariant
                        ),
                    });
                    stmt.clear();
                    return;
                }
            }
            // Form 2a: barrier call while an earlier guard is live.
            if let Some(bi) = barrier_at(stmt, 0) {
                if let Some(g) = guards.iter().find(|g| g.depth <= depth) {
                    out.push(Finding {
                        rule: rule.name,
                        path: ctx.path.clone(),
                        line: toks[bi].line,
                        col: toks[bi].col,
                        message: format!(
                            "`{}()` called while guard `{}` (bound line {}) is still live: {}",
                            toks[bi].text, g.name, g.line, rule.invariant
                        ),
                    });
                }
            }
            // `drop(g)` releases a tracked guard.
            for w in stmt.windows(4) {
                if toks[w[0]].text == "drop" && toks[w[1]].text == "(" && toks[w[3]].text == ")" {
                    let name = &toks[w[2]].text;
                    guards.retain(|g| &g.name != name);
                }
            }
            // Form 2 bookkeeping: `let g = ...lock()...;` where the
            // initializer ends in the guard.
            if toks[stmt[0]].text == "let" {
                if let Some(lp) = lock_pos {
                    let after: Vec<usize> = stmt[lp + 1..].to_vec();
                    if chain_ends_in_guard(&after, toks.as_slice()) {
                        // Bound name: first ident after `let` (skip `mut`).
                        let name = stmt
                            .iter()
                            .skip(1)
                            .map(|&i| &toks[i])
                            .find(|t| t.kind == TokKind::Ident && t.text != "mut")
                            .map(|t| t.text.clone());
                        if let Some(name) = name {
                            // Rebinding replaces the old guard entry.
                            guards.retain(|g| g.name != name);
                            guards.push(Guard {
                                name,
                                depth,
                                line: toks[stmt[0]].line,
                            });
                        }
                    }
                }
            }
            stmt.clear();
        };

    for (i, t) in toks.iter().enumerate() {
        match t.text.as_str() {
            ";" | "," => flush(&mut stmt, &mut guards, depth, &mut out),
            "{" => {
                flush(&mut stmt, &mut guards, depth, &mut out);
                depth += 1;
            }
            "}" => {
                flush(&mut stmt, &mut guards, depth, &mut out);
                depth = depth.saturating_sub(1);
                guards.retain(|g| g.depth <= depth);
            }
            _ => stmt.push(i),
        }
    }
    flush(&mut stmt, &mut guards, depth, &mut out);
    out
}

/// Whether the tokens after `.lock(` form a chain that still *is* the
/// guard at statement end: only `()`, `.unwrap()`, `.expect("..")`, `?`
/// may follow. Any other method call consumes the guard within the
/// statement (temporary; dropped at `;`).
fn chain_ends_in_guard(idxs: &[usize], toks: &[&Token]) -> bool {
    let mut j = 0usize;
    // Skip the `lock(` argument list: first token is `(`'s payload...
    // idxs starts right after the `lock` ident; expect `(` `)` first.
    let texts: Vec<&str> = idxs.iter().map(|&i| toks[i].text.as_str()).collect();
    if texts.first() != Some(&"(") {
        return false;
    }
    // Find matching close paren.
    let mut depth = 0i64;
    while j < texts.len() {
        match texts[j] {
            "(" => depth += 1,
            ")" => {
                depth -= 1;
                if depth == 0 {
                    j += 1;
                    break;
                }
            }
            _ => {}
        }
        j += 1;
    }
    // Now only `.unwrap()`, `.expect(..)`, `?` may remain.
    while j < texts.len() {
        match texts[j] {
            "?" => j += 1,
            "." => {
                let name = texts.get(j + 1).copied().unwrap_or("");
                if name != "unwrap" && name != "expect" {
                    return false;
                }
                // Skip `name ( ... )`.
                j += 2;
                if texts.get(j) != Some(&"(") {
                    return false;
                }
                let mut d = 0i64;
                while j < texts.len() {
                    match texts[j] {
                        "(" => d += 1,
                        ")" => {
                            d -= 1;
                            if d == 0 {
                                j += 1;
                                break;
                            }
                        }
                        _ => {}
                    }
                    j += 1;
                }
            }
            _ => return false,
        }
    }
    true
}

// ---------------------------------------------------------------------------
// Manifest rule: shims-only-deps
// ---------------------------------------------------------------------------

/// Check one `Cargo.toml` body: every dependency must resolve inside
/// the workspace (`path = "..."` or `workspace = true`); a bare version
/// requirement means a registry dependency, which cannot build offline.
pub fn lint_manifest(path: &str, source: &str) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut section = String::new();
    let mut table_dep: Option<(String, u32, bool)> = None; // (name, line, satisfied)
    let flush_table = |td: &mut Option<(String, u32, bool)>, out: &mut Vec<Finding>| {
        if let Some((name, line, ok)) = td.take() {
            if !ok {
                out.push(dep_finding(path, line, &name));
            }
        }
    };
    for (ln, raw) in source.lines().enumerate() {
        let line_no = ln as u32 + 1;
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        if line.starts_with('[') {
            flush_table(&mut table_dep, &mut out);
            section = line.trim_matches(['[', ']']).to_string();
            // `[dependencies.foo]` table form.
            if let Some(rest) = section
                .strip_prefix("dependencies.")
                .or_else(|| section.strip_prefix("dev-dependencies."))
                .or_else(|| section.strip_prefix("build-dependencies."))
                .or_else(|| section.strip_prefix("workspace.dependencies."))
            {
                table_dep = Some((rest.to_string(), line_no, false));
            }
            continue;
        }
        if let Some((_, _, ok)) = &mut table_dep {
            if line.starts_with("path") || line.starts_with("workspace") {
                *ok = true;
            }
            continue;
        }
        let dep_section = matches!(
            section.as_str(),
            "dependencies" | "dev-dependencies" | "build-dependencies" | "workspace.dependencies"
        );
        if !dep_section {
            continue;
        }
        let Some((name, value)) = line.split_once('=') else {
            continue;
        };
        let (name, value) = (name.trim(), value.trim());
        if value.contains("path =") || value.contains("path=") || value.contains("workspace = true")
        {
            continue;
        }
        out.push(dep_finding(path, line_no, name));
    }
    flush_table(&mut table_dep, &mut out);
    out
}

fn dep_finding(path: &str, line: u32, name: &str) -> Finding {
    Finding {
        rule: "shims-only-deps",
        path: path.to_string(),
        line,
        col: 1,
        message: format!(
            "dependency `{name}` does not resolve to a workspace path: external deps \
             must be API-compatible shims under shims/ (no crates.io access)"
        ),
    }
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

/// The result of a whole-tree lint run.
pub struct LintReport {
    /// Every finding, in (path, line) order.
    pub findings: Vec<Finding>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
    /// How many manifests were checked.
    pub manifests_scanned: usize,
    /// Library size, the number the roadmap wants to go down: code lines
    /// ([`FileContext::code_lines`]) under each `crates/<name>/src` and
    /// under the root `src`, keyed `crates/<name>` / `src`.
    pub lines_by_crate: BTreeMap<String, usize>,
}

impl LintReport {
    /// `benchgate`-style exit semantics: 0 clean, 2 on any violation.
    pub fn exit_code(&self) -> i32 {
        if self.findings.is_empty() {
            0
        } else {
            2
        }
    }

    /// The report as a JSON object (stable field order, no deps).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"tool\":\"stoolint\",");
        out.push_str(&format!(
            "\"files_scanned\":{},\"manifests_scanned\":{},\"violations\":{},\"lines_by_crate\":{{",
            self.files_scanned,
            self.manifests_scanned,
            self.findings.len()
        ));
        for (i, (name, lines)) in self.lines_by_crate.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{}:{lines}", json_string(name)));
        }
        out.push_str("},\"findings\":[");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"rule\":{},\"path\":{},\"line\":{},\"col\":{},\"message\":{}}}",
                json_string(f.rule),
                json_string(&f.path),
                f.line,
                f.col,
                json_string(&f.message)
            ));
        }
        out.push_str("]}");
        out
    }
}

/// Lint the workspace rooted at `root`: every `crates/**/*.rs`,
/// `tests/**/*.rs`, `benches/**/*.rs` and `examples/**/*.rs` file
/// against [`default_rules`], plus every reachable `Cargo.toml` against
/// `shims-only-deps`.
pub fn lint_tree(root: &Path) -> std::io::Result<LintReport> {
    let rules = default_rules();
    let mut findings = Vec::new();
    let mut files_scanned = 0usize;
    let mut manifests_scanned = 0usize;
    let mut lines_by_crate = BTreeMap::new();

    let mut rs_files = Vec::new();
    for top in ["crates", "tests", "benches", "examples", "src"] {
        collect_files(&root.join(top), "rs", &mut rs_files)?;
    }
    rs_files.sort();
    for file in &rs_files {
        let source = std::fs::read_to_string(file)?;
        let label = rel_label(root, file);
        let ctx = FileContext::new(&label, &source);
        findings.extend(lint_context(&ctx, &rules));
        files_scanned += 1;
        if let Some(krate) = library_crate(&label) {
            *lines_by_crate.entry(krate).or_insert(0) += ctx.code_lines();
        }
    }

    let mut manifests = vec![root.join("Cargo.toml")];
    for top in ["crates", "shims"] {
        collect_manifests(&root.join(top), &mut manifests)?;
    }
    manifests.sort();
    for m in &manifests {
        if !m.is_file() {
            continue;
        }
        let source = std::fs::read_to_string(m)?;
        let label = rel_label(root, m);
        findings.extend(lint_manifest(&label, &source));
        manifests_scanned += 1;
    }

    findings.sort_by(|a, b| (&a.path, a.line, a.col).cmp(&(&b.path, b.line, b.col)));
    Ok(LintReport {
        findings,
        files_scanned,
        manifests_scanned,
        lines_by_crate,
    })
}

/// The `lines_by_crate` key of a library source file: `crates/<name>` for
/// `crates/<name>/src/**`, `src` for `src/**`; `None` for tests, benches
/// and examples.
fn library_crate(label: &str) -> Option<String> {
    let mut parts = label.split('/');
    match (parts.next()?, parts.next()?, parts.next()) {
        ("crates", name, Some("src")) => Some(format!("crates/{name}")),
        ("src", _, _) => Some("src".to_string()),
        _ => None,
    }
}

fn rel_label(root: &Path, file: &Path) -> String {
    file.strip_prefix(root)
        .unwrap_or(file)
        .to_string_lossy()
        .replace('\\', "/")
}

fn collect_files(dir: &Path, ext: &str, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_files(&path, ext, out)?;
        } else if path.extension().map(|e| e == ext).unwrap_or(false) {
            out.push(path);
        }
    }
    Ok(())
}

fn collect_manifests(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        if path.is_dir() {
            let m = path.join("Cargo.toml");
            if m.is_file() {
                out.push(m);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizer_strings_and_comments_do_not_leak_idents() {
        let toks = tokenize(r##"let s = "eprintln!(x)"; // eprintln! in comment"##);
        let idents: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Ident)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(idents, vec!["let", "s"]);
    }

    #[test]
    fn tokenizer_raw_strings_and_lifetimes() {
        let toks = tokenize("fn f<'a>(x: &'a str) { let r = r#\"sleep(\"#; }");
        assert!(toks.iter().any(|t| t.kind == TokKind::Lifetime));
        let strs: Vec<&str> = toks
            .iter()
            .filter(|t| t.kind == TokKind::Str)
            .map(|t| t.text.as_str())
            .collect();
        assert_eq!(strs, vec!["r#\"sleep(\"#"]);
    }

    #[test]
    fn tokenizer_spans_are_one_based() {
        let toks = tokenize("a\n  b");
        assert_eq!((toks[0].line, toks[0].col), (1, 1));
        assert_eq!((toks[1].line, toks[1].col), (2, 3));
    }

    #[test]
    fn cfg_test_spans_cover_the_module() {
        let src = "fn a() {}\n#[cfg(test)]\nmod tests {\n    fn b() {}\n}\n";
        let ctx = FileContext::new("x.rs", src);
        assert!(!ctx.in_test(1));
        assert!(ctx.in_test(4));
    }

    #[test]
    fn manifest_rule_flags_registry_deps_only() {
        let good = "[dependencies]\nfoo = { path = \"shims/foo\" }\nbar = { workspace = true }\n";
        assert!(lint_manifest("Cargo.toml", good).is_empty());
        let bad = "[dependencies]\nserde = \"1.0\"\n";
        let f = lint_manifest("Cargo.toml", bad);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 2);
        let table = "[dependencies.serde]\nversion = \"1.0\"\n";
        assert_eq!(lint_manifest("Cargo.toml", table).len(), 1);
        let table_ok = "[dependencies.simnet]\npath = \"../simnet\"\n";
        assert!(lint_manifest("Cargo.toml", table_ok).is_empty());
    }

    #[test]
    fn chain_classifier_distinguishes_guard_from_temporary() {
        let rules = default_rules();
        // Temporary guard consumed in the statement: not a live guard,
        // and no barrier involved.
        let src = "fn f() { let v = m.lock().unwrap().take(); g.finish(); }";
        assert!(lint_source("crates/x.rs", src, &rules).is_empty());
    }
}
