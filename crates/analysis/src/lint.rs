//! A dependency-free, token-level lint for the workspace's own
//! invariants.
//!
//! `rustc` and clippy enforce language rules; this lint enforces *repo*
//! rules that encode the paper's discipline:
//!
//! * [`Rule::PanicFree`] — no `unwrap`/`expect`/`panic!`-family macros
//!   in non-test code of `core`, `info`, and `analysis`: every fallible
//!   path in the framework and its substrates must flow through
//!   `UntangleError`/`InfoError` so a sweep records faults instead of
//!   dying. The rule also covers the experiment binaries and the serve
//!   daemon (`crates/bench/src/bin`, `crates/serve/src/bin`), which
//!   must report failures through a diagnostic and a nonzero exit
//!   status — the contract the crash-recovery harnesses and CI
//!   observe. There the rule also flags `assert!`/`assert_eq!`/
//!   `assert_ne!` (a failed check must exit 1, not unwind);
//!   `debug_assert!` stays legal.
//! * [`Rule::FloatEq`] — no `==`/`!=` against float literals and no
//!   `assert_eq!`/`assert_ne!` spanning float literals: exactness
//!   claims must be explicit (`to_bits`) or toleranced.
//! * [`Rule::WallClock`] — no `Instant`/`SystemTime` outside the bench
//!   harness. This is Principle 2 as a build gate: scheme decision code
//!   must be timing-oblivious, so wall-clock types may not even be
//!   *named* in the simulation and framework crates.
//! * [`Rule::UnsafeCode`] — no `unsafe` anywhere, test code included
//!   (defense in depth behind the workspace `unsafe_code = "forbid"`
//!   lint: the token scan also covers macro bodies and code rustc
//!   conditionally compiles out).
//! * [`Rule::Eprintln`] — a [`Severity::Diagnostic`] finding: `eprintln!`
//!   in non-test code of `core`, `info`, and `sim` bypasses the
//!   `untangle-obs` sink, so such diagnostics disappear from structured
//!   event streams (`UNTANGLE_OBS=json`); route them through
//!   `untangle_obs::diag!`. Diagnostic-severity findings are reported
//!   but do not fail the build gate.
//! * [`Rule::RawPersist`] — `File::create` / `fs::rename` / `fs::write`
//!   in non-test code outside `crates/durable` bypasses the
//!   workspace's crash-consistency discipline (no fsync, no atomic
//!   replace, no fault-injection choke point); persist through
//!   `untangle_durable::atomic_write` or one of its typed primitives
//!   instead. Promoted to [`Severity::Error`] once `crates/durable`
//!   became the sole owner of raw persistence.
//!
//! The `untangle-obs` crate itself is the sanctioned owner of both
//! wall-clock reads (span timers) and the stderr escape hatch, so it is
//! exempt from [`Rule::WallClock`] and [`Rule::Eprintln`] while still
//! sitting inside the panic-free zone. It is also exempt from
//! [`Rule::RawPersist`]: its file sink is a best-effort diagnostic
//! stream, not durable state, and the obs crate sits *below*
//! `untangle-durable` in the crate DAG.
//!
//! The scanner is a hand-rolled Rust tokenizer (strings, raw strings,
//! nested block comments, char-vs-lifetime disambiguation, float
//! detection) — no syn, no proc-macro machinery, standard library only.
//! Test code is recognized per-token: `#[cfg(test)]` / `#[test]`
//! regions are brace-matched and skipped for the rules that exempt
//! tests, as are files under `tests/`, `benches/`, and `examples/`
//! directories.

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Which repo invariant a violation breaks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// `unwrap`/`expect`/`panic!`/`unreachable!`/`todo!`/
    /// `unimplemented!` in non-test framework code.
    PanicFree,
    /// Float literal compared with `==`/`!=` or inside
    /// `assert_eq!`/`assert_ne!`.
    FloatEq,
    /// `Instant`/`SystemTime` named outside the bench harness or the
    /// obs crate.
    WallClock,
    /// `unsafe` anywhere.
    UnsafeCode,
    /// `eprintln!` outside the obs sink in non-test `core`/`info`/`sim`
    /// code (diagnostic severity).
    Eprintln,
    /// `File::create` / `fs::rename` / `fs::write` outside
    /// `crates/durable` in non-test code: raw persistence bypasses the
    /// crash-consistency layer.
    RawPersist,
}

impl Rule {
    /// Stable machine-readable name used in diagnostics.
    pub const fn name(self) -> &'static str {
        match self {
            Rule::PanicFree => "panic-free",
            Rule::FloatEq => "float-eq",
            Rule::WallClock => "wall-clock",
            Rule::UnsafeCode => "unsafe-code",
            Rule::Eprintln => "eprintln",
            Rule::RawPersist => "raw-persist",
        }
    }

    /// How severe a violation of this rule is.
    pub const fn severity(self) -> Severity {
        match self {
            Rule::Eprintln => Severity::Diagnostic,
            _ => Severity::Error,
        }
    }
}

/// Whether a finding fails the build gate or is merely reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Reported, but does not fail the gate.
    Diagnostic,
    /// Fails the gate.
    Error,
}

impl Severity {
    /// Stable machine-readable name used in diagnostics.
    pub const fn name(self) -> &'static str {
        match self {
            Severity::Diagnostic => "diagnostic",
            Severity::Error => "error",
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One finding, rendered as `file:line:col: rule: message`.
#[derive(Debug, Clone)]
pub struct Violation {
    /// File the violation is in.
    pub file: PathBuf,
    /// 1-based line.
    pub line: usize,
    /// 1-based column of the offending token.
    pub col: usize,
    /// The broken rule.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl Violation {
    /// The severity of the broken rule.
    pub fn severity(&self) -> Severity {
        self.rule.severity()
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: {}: {}",
            self.file.display(),
            self.line,
            self.col,
            self.rule,
            self.message
        )
    }
}

/// Scanner options.
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    /// Extend [`Rule::FloatEq`] and [`Rule::PanicFree`] into test code
    /// (used to *find* candidate sites; CI runs with this off, so
    /// deliberate exactness tests via `to_bits` stay legal).
    pub include_tests: bool,
}

/// Where a file sits in the workspace, which decides rule applicability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileScope {
    /// Under `crates/core/src`, `crates/info/src`, `crates/obs/src`,
    /// `crates/analysis/src`, `crates/trace/src`, or
    /// `crates/durable/src` — the panic-free zone.
    pub panic_free_crate: bool,
    /// Under the bench crate, whose harness legitimately measures wall
    /// time.
    pub bench_crate: bool,
    /// Under `crates/bench/src/bin` or `crates/serve/src/bin` — the
    /// experiment drivers and the serve daemon. They are not framework
    /// code, but they are the artifacts CI and users run, so a panic
    /// there turns a reportable failure into a backtrace and a
    /// meaningless exit status; they share the panic-free rule.
    pub driver_bin: bool,
    /// Under the obs crate, the sanctioned owner of span clocks and the
    /// stderr diagnostic escape hatch.
    pub obs_crate: bool,
    /// Under `crates/core/src`, `crates/info/src`, or
    /// `crates/sim/src` — crates whose diagnostics must flow through the
    /// obs sink rather than raw `eprintln!`.
    pub obs_sink_crate: bool,
    /// Under the durable crate, the sanctioned owner of raw file
    /// creation and rename (everything else persists through it).
    pub durable_crate: bool,
    /// A whole-file test context: `tests/`, `benches/`, or `examples/`
    /// directory.
    pub test_file: bool,
}

impl FileScope {
    /// Derives the scope from a path relative to the workspace root.
    pub fn of(rel: &Path) -> Self {
        let parts: Vec<String> = rel
            .components()
            .map(|c| c.as_os_str().to_string_lossy().into_owned())
            .collect();
        // Whether the path runs through `dir`, component for component.
        let under = |dir: &[&str]| parts.windows(dir.len()).any(|w| w == dir);
        let under_src_of = |krate: &str| under(&["crates", krate, "src"]);
        FileScope {
            panic_free_crate: under_src_of("core")
                || under_src_of("info")
                || under_src_of("obs")
                || under_src_of("analysis")
                || under_src_of("trace")
                || under_src_of("durable"),
            bench_crate: under(&["crates", "bench"]),
            driver_bin: under(&["crates", "bench", "src", "bin"])
                || under(&["crates", "serve", "src", "bin"]),
            obs_crate: under(&["crates", "obs"]),
            obs_sink_crate: under_src_of("core") || under_src_of("info") || under_src_of("sim"),
            durable_crate: under(&["crates", "durable"]),
            test_file: parts
                .iter()
                .any(|p| p == "tests" || p == "benches" || p == "examples"),
        }
    }
}

// ---------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------

/// Token classes the rules care about. Everything the scanner does not
/// need collapses into [`TokKind::Punct`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword.
    Ident(String),
    /// Integer literal (tuple indices `x.0` and range bounds `0..9`
    /// stay integers).
    Int,
    /// Float literal: fractional part, exponent, or `f32`/`f64` suffix.
    Float,
    /// String literal (plain, byte, or raw); carries the unescaped-as-
    /// written contents so downstream passes can match literal values
    /// (e.g. `declassify("site::name")` against the site registry).
    Str(String),
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`).
    Lifetime,
    /// Any other single character.
    Punct(char),
}

/// One source token with its 1-based position.
#[derive(Debug, Clone)]
pub struct Token {
    /// Token class (and payload, for identifiers and strings).
    pub kind: TokKind,
    /// 1-based line.
    pub line: usize,
    /// 1-based column.
    pub col: usize,
}

/// Tokenizes Rust source, dropping comments and whitespace. The goal is
/// fidelity for the token classes the rules inspect, not a full lexer:
/// unknown bytes become punctuation and never abort the scan.
pub(crate) fn tokenize(src: &str) -> Vec<Token> {
    let bytes: Vec<char> = src.chars().collect();
    let mut toks = Vec::new();
    let mut i = 0usize;
    let mut line = 1usize;
    let mut col = 1usize;
    let n = bytes.len();

    macro_rules! bump {
        ($count:expr) => {{
            for _ in 0..$count {
                if i < n {
                    if bytes[i] == '\n' {
                        line += 1;
                        col = 1;
                    } else {
                        col += 1;
                    }
                    i += 1;
                }
            }
        }};
    }
    let at = |i: usize, c: char| i < n && bytes[i] == c;

    while i < n {
        let c = bytes[i];
        let (tline, tcol) = (line, col);

        if c.is_whitespace() {
            bump!(1);
            continue;
        }

        // Line comment (covers `///` and `//!` doc comments too).
        if c == '/' && at(i + 1, '/') {
            while i < n && bytes[i] != '\n' {
                bump!(1);
            }
            continue;
        }

        // Block comment, nested.
        if c == '/' && at(i + 1, '*') {
            bump!(2);
            let mut depth = 1usize;
            while i < n && depth > 0 {
                if bytes[i] == '/' && at(i + 1, '*') {
                    depth += 1;
                    bump!(2);
                } else if bytes[i] == '*' && at(i + 1, '/') {
                    depth -= 1;
                    bump!(2);
                } else {
                    bump!(1);
                }
            }
            continue;
        }

        // Raw strings: r"..." / r#"..."# and byte variants br#"..."#.
        let raw_prefix = if c == 'r' && (at(i + 1, '"') || at(i + 1, '#')) {
            Some(1)
        } else if c == 'b' && at(i + 1, 'r') && (at(i + 2, '"') || at(i + 2, '#')) {
            Some(2)
        } else {
            None
        };
        if let Some(prefix) = raw_prefix {
            let mut j = i + prefix;
            let mut hashes = 0usize;
            while j < n && bytes[j] == '#' {
                hashes += 1;
                j += 1;
            }
            if at(j, '"') {
                bump!(prefix + hashes + 1);
                // Scan for a `"` followed by `hashes` `#`s. Raw strings
                // have no escapes: every byte up to that terminator is
                // literal content.
                let mut content = String::new();
                while i < n {
                    if bytes[i] == '"' {
                        let mut k = 1usize;
                        while k <= hashes && at(i + k, '#') {
                            k += 1;
                        }
                        if k == hashes + 1 {
                            bump!(1 + hashes);
                            break;
                        }
                    }
                    content.push(bytes[i]);
                    bump!(1);
                }
                toks.push(Token {
                    kind: TokKind::Str(content),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            // `r` not opening a raw string: falls through to ident.
        }

        // Strings and byte strings.
        if c == '"' || (c == 'b' && at(i + 1, '"')) {
            if c == 'b' {
                bump!(1);
            }
            bump!(1);
            let mut content = String::new();
            while i < n {
                if bytes[i] == '\\' {
                    // Keep the simple escapes the site registry could
                    // plausibly contain; everything else stays as-written.
                    if let Some(&esc) = bytes.get(i + 1) {
                        content.push(match esc {
                            'n' => '\n',
                            't' => '\t',
                            '\\' => '\\',
                            '"' => '"',
                            other => other,
                        });
                    }
                    bump!(2);
                } else if bytes[i] == '"' {
                    bump!(1);
                    break;
                } else {
                    content.push(bytes[i]);
                    bump!(1);
                }
            }
            toks.push(Token {
                kind: TokKind::Str(content),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Char literal vs lifetime: `'\…'` and `'x'` are chars; a quote
        // followed by an identifier with no closing quote is a lifetime.
        if c == '\'' {
            if at(i + 1, '\\') {
                bump!(2);
                while i < n && bytes[i] != '\'' {
                    bump!(1);
                }
                bump!(1);
                toks.push(Token {
                    kind: TokKind::Char,
                    line: tline,
                    col: tcol,
                });
            } else if i + 2 < n && bytes[i + 2] == '\'' {
                bump!(3);
                toks.push(Token {
                    kind: TokKind::Char,
                    line: tline,
                    col: tcol,
                });
            } else {
                bump!(1);
                while i < n && is_ident_char(bytes[i]) {
                    bump!(1);
                }
                toks.push(Token {
                    kind: TokKind::Lifetime,
                    line: tline,
                    col: tcol,
                });
            }
            continue;
        }

        // Numbers. The consumed text decides float-ness: a fractional
        // part (`.` followed by a digit, so `x.0` tuple access and
        // `0..9` ranges stay integers), a decimal exponent, or an
        // explicit f32/f64 suffix.
        if c.is_ascii_digit() {
            let mut text = String::new();
            while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                text.push(bytes[i]);
                bump!(1);
            }
            if at(i, '.') && i + 1 < n && bytes[i + 1].is_ascii_digit() {
                text.push('.');
                bump!(1);
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    text.push(bytes[i]);
                    bump!(1);
                }
            } else if at(i, '.')
                && !(i + 1 < n && (bytes[i + 1] == '.' || is_ident_char(bytes[i + 1])))
            {
                // Trailing-dot float like `1.`.
                text.push('.');
                bump!(1);
            }
            let decimal =
                !text.starts_with("0x") && !text.starts_with("0b") && !text.starts_with("0o");
            let is_float = text.contains('.')
                || (decimal
                    && (text.contains('e')
                        || text.contains('E')
                        || text.ends_with("f32")
                        || text.ends_with("f64")));
            toks.push(Token {
                kind: if is_float {
                    TokKind::Float
                } else {
                    TokKind::Int
                },
                line: tline,
                col: tcol,
            });
            continue;
        }

        if is_ident_start(c) {
            let mut ident = String::new();
            while i < n && is_ident_char(bytes[i]) {
                ident.push(bytes[i]);
                bump!(1);
            }
            toks.push(Token {
                kind: TokKind::Ident(ident),
                line: tline,
                col: tcol,
            });
            continue;
        }

        toks.push(Token {
            kind: TokKind::Punct(c),
            line: tline,
            col: tcol,
        });
        bump!(1);
    }
    toks
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

// ---------------------------------------------------------------------
// Test-region marking
// ---------------------------------------------------------------------

/// Marks which tokens live inside `#[cfg(test)]` / `#[test]` /
/// `#[should_panic…]` regions by matching the extent of the item that
/// follows the attribute.
///
/// The attributed item's extent is found structurally: scanning past
/// the attribute (and any further attributes stacked on the same item),
/// the item ends either at the matching `}` of its first body brace
/// (`mod`/`fn`/`impl`/…) or at the first `;` at delimiter depth zero
/// (`use`, `mod name;`, `const … = …;`, `type …;`). The `;` case
/// matters: a `#[cfg(test)] use …;` must not swallow the *next* item's
/// braces, which would hide real violations in live code.
pub(crate) fn mark_test_regions(toks: &[Token]) -> Vec<bool> {
    let mut in_test = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if let Some(mut j) = test_attribute_end(toks, i) {
            // Stacked attributes: `#[cfg(test)] #[allow(…)] item` — skip
            // every further attribute before looking for the item body.
            while toks.get(j).map(|t| &t.kind) == Some(&TokKind::Punct('#')) {
                match attribute_end(toks, j) {
                    Some(next) => j = next,
                    None => break,
                }
            }
            // Find the item's extent: first `{` (then brace-match) or
            // first `;` at delimiter depth 0, whichever comes first.
            let mut depth = 0usize;
            let mut brace_depth = 0usize;
            while j < toks.len() {
                match toks[j].kind {
                    TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                    TokKind::Punct(')') | TokKind::Punct(']') => depth = depth.saturating_sub(1),
                    TokKind::Punct('{') => brace_depth += 1,
                    TokKind::Punct('}') => {
                        brace_depth = brace_depth.saturating_sub(1);
                        if brace_depth == 0 {
                            break;
                        }
                    }
                    TokKind::Punct(';') if depth == 0 && brace_depth == 0 => break,
                    _ => {}
                }
                j += 1;
            }
            for flag in in_test.iter_mut().take(j + 1).skip(i) {
                *flag = true;
            }
            i = j + 1;
            continue;
        }
        i += 1;
    }
    in_test
}

/// If the token at `i` opens an attribute (`#[…]`), returns the index
/// one past its closing `]` (bracket-matched, so nested `[]`/`()` in
/// the attribute body are handled).
fn attribute_end(toks: &[Token], i: usize) -> Option<usize> {
    if toks.get(i).map(|t| &t.kind) != Some(&TokKind::Punct('#'))
        || toks.get(i + 1).map(|t| &t.kind) != Some(&TokKind::Punct('['))
    {
        return None;
    }
    let mut depth = 0usize;
    let mut j = i + 1;
    while j < toks.len() {
        match toks[j].kind {
            TokKind::Punct('[') => depth += 1,
            TokKind::Punct(']') => {
                depth -= 1;
                if depth == 0 {
                    return Some(j + 1);
                }
            }
            _ => {}
        }
        j += 1;
    }
    None
}

/// If the token at `i` starts a test attribute, returns the index one
/// past its closing `]`.
///
/// Recognized: `#[test]`, `#[should_panic…]`, and any `#[cfg(…)]`
/// whose predicate names `test` *positively* — `#[cfg(test)]` and
/// combinators like `#[cfg(all(test, feature = "x"))]`. A predicate
/// containing `not` (e.g. `#[cfg(not(test))]`) is conservatively
/// treated as live code: wrongly linting test code fails loudly in CI,
/// while wrongly *skipping* live code hides real violations.
pub(crate) fn test_attribute_end(toks: &[Token], i: usize) -> Option<usize> {
    let end = attribute_end(toks, i)?;
    match toks.get(i + 2).map(|t| &t.kind) {
        Some(TokKind::Ident(name)) if name == "test" || name == "should_panic" => Some(end),
        Some(TokKind::Ident(name)) if name == "cfg" => {
            let mut has_test = false;
            let mut has_not = false;
            for t in &toks[i + 3..end] {
                if let TokKind::Ident(arg) = &t.kind {
                    has_test |= arg == "test";
                    has_not |= arg == "not";
                }
            }
            (has_test && !has_not).then_some(end)
        }
        _ => None,
    }
}

// ---------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------

const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];
const PANIC_METHODS: [&str; 2] = ["unwrap", "expect"];
/// Panicking checks the experiment and daemon binaries may not use
/// outside tests.
const ASSERT_MACROS: [&str; 3] = ["assert", "assert_eq", "assert_ne"];
const WALL_CLOCK_TYPES: [&str; 2] = ["Instant", "SystemTime"];

/// Lints one file's source text under the given scope.
pub fn lint_source(
    file: &Path,
    src: &str,
    scope: FileScope,
    config: &LintConfig,
) -> Vec<Violation> {
    let toks = tokenize(src);
    let in_test = mark_test_regions(&toks);
    let mut out = Vec::new();
    let is_test = |idx: usize| scope.test_file || in_test.get(idx).copied().unwrap_or(false);
    let push = |out: &mut Vec<Violation>, t: &Token, rule: Rule, message: String| {
        out.push(Violation {
            file: file.to_path_buf(),
            line: t.line,
            col: t.col,
            rule,
            message,
        });
    };

    for (idx, tok) in toks.iter().enumerate() {
        match &tok.kind {
            TokKind::Ident(name) => {
                // unsafe: everywhere, tests included.
                if name == "unsafe" {
                    push(
                        &mut out,
                        tok,
                        Rule::UnsafeCode,
                        "`unsafe` is forbidden across the workspace".to_string(),
                    );
                }

                // Wall-clock types: all crates except bench and obs
                // (span timers are the obs crate's whole purpose).
                if WALL_CLOCK_TYPES.contains(&name.as_str())
                    && !scope.bench_crate
                    && !scope.obs_crate
                {
                    push(
                        &mut out,
                        tok,
                        Rule::WallClock,
                        format!(
                            "`{name}` names wall-clock time outside the bench harness; \
                             scheme decisions must be timing-oblivious (Principle 2)"
                        ),
                    );
                }

                // Panic-free framework code — and the experiment
                // binaries, which must exit nonzero with a diagnostic
                // rather than unwind (their exit status is what CI and
                // the crash-recovery harnesses observe).
                if (scope.panic_free_crate || scope.driver_bin)
                    && (config.include_tests || !is_test(idx))
                {
                    let next_is =
                        |c: char| toks.get(idx + 1).map(|t| &t.kind) == Some(&TokKind::Punct(c));
                    let prev_is_dot = idx > 0 && toks[idx - 1].kind == TokKind::Punct('.');
                    if PANIC_METHODS.contains(&name.as_str()) && prev_is_dot && next_is('(') {
                        push(
                            &mut out,
                            tok,
                            Rule::PanicFree,
                            format!(
                                "`.{name}(…)` in non-test framework code; route the failure \
                                 through a typed error instead"
                            ),
                        );
                    }
                    let panics = PANIC_MACROS.contains(&name.as_str())
                        || (scope.driver_bin && ASSERT_MACROS.contains(&name.as_str()));
                    if panics && next_is('!') {
                        push(
                            &mut out,
                            tok,
                            Rule::PanicFree,
                            format!("`{name}!` in non-test framework code; return a typed error"),
                        );
                    }
                }

                // Raw persistence outside the durable crate: the token
                // pairs `File::create` / `fs::rename` / `fs::write`.
                // The obs crate's file sink is a best-effort diagnostic
                // stream, not durable state.
                if !scope.durable_crate
                    && !scope.obs_crate
                    && (config.include_tests || !is_test(idx))
                    && toks.get(idx + 1).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                    && toks.get(idx + 2).map(|t| &t.kind) == Some(&TokKind::Punct(':'))
                {
                    let callee = match toks.get(idx + 3).map(|t| &t.kind) {
                        Some(TokKind::Ident(callee)) => Some(callee.as_str()),
                        _ => None,
                    };
                    let raw = (name == "File" && callee == Some("create"))
                        || (name == "fs" && (callee == Some("rename") || callee == Some("write")));
                    if raw {
                        push(
                            &mut out,
                            tok,
                            Rule::RawPersist,
                            format!(
                                "`{name}::{}` bypasses the crash-consistency layer; persist \
                                 through `untangle_durable` (atomic_write / Wal / LineLog / Slot)",
                                callee.unwrap_or_default()
                            ),
                        );
                    }
                }

                // Raw stderr diagnostics in crates that must route
                // through the obs sink (diagnostic severity: reported,
                // never a gate failure).
                if name == "eprintln"
                    && scope.obs_sink_crate
                    && !scope.obs_crate
                    && (config.include_tests || !is_test(idx))
                    && toks.get(idx + 1).map(|t| &t.kind) == Some(&TokKind::Punct('!'))
                {
                    push(
                        &mut out,
                        tok,
                        Rule::Eprintln,
                        "`eprintln!` bypasses the obs sink; use `untangle_obs::diag!` so the \
                         message survives `UNTANGLE_OBS=json` runs"
                            .to_string(),
                    );
                }

                // assert_eq!/assert_ne! where a top-level operand *is*
                // a bare float literal — `assert_eq!(x, 0.5)` is an
                // exact float comparison, while float literals nested
                // in sub-expressions (`a.gate(1.0)`, `0.0f64.to_bits()`)
                // are operand inputs, not equality operands.
                if (name == "assert_eq" || name == "assert_ne")
                    && (config.include_tests || !is_test(idx))
                    && toks.get(idx + 1).map(|t| &t.kind) == Some(&TokKind::Punct('!'))
                {
                    let mut j = idx + 2;
                    let mut depth = 0usize;
                    // Tokens of the current depth-1 operand segment.
                    let mut segment: Vec<usize> = Vec::new();
                    let mut bare_floats: Vec<usize> = Vec::new();
                    let flush = |segment: &mut Vec<usize>, bare: &mut Vec<usize>| {
                        if let [only] = segment[..] {
                            if toks[only].kind == TokKind::Float {
                                bare.push(only);
                            }
                        }
                        segment.clear();
                    };
                    while j < toks.len() {
                        match toks[j].kind {
                            TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => {
                                depth += 1;
                                if depth > 1 {
                                    segment.push(j);
                                }
                            }
                            TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                                if depth <= 1 {
                                    break;
                                }
                                depth -= 1;
                                if depth > 1 {
                                    segment.push(j);
                                }
                            }
                            TokKind::Punct(',') if depth == 1 => {
                                flush(&mut segment, &mut bare_floats);
                            }
                            _ if depth >= 1 => segment.push(j),
                            _ => {}
                        }
                        j += 1;
                    }
                    flush(&mut segment, &mut bare_floats);
                    for fj in bare_floats {
                        push(
                            &mut out,
                            &toks[fj],
                            Rule::FloatEq,
                            format!(
                                "`{name}!` compares a float literal exactly; use a tolerance \
                                 or compare `to_bits()`"
                            ),
                        );
                    }
                }
            }
            // `==` / `!=` adjacent to a float literal.
            TokKind::Punct(c @ ('=' | '!'))
                if toks.get(idx + 1).map(|t| &t.kind) == Some(&TokKind::Punct('=')) =>
            {
                // Skip the trailing `=` of `==`/`<=`/`>=`/`!=` so each
                // operator is inspected once.
                let prev_punct = idx > 0
                    && matches!(
                        toks[idx - 1].kind,
                        TokKind::Punct('=')
                            | TokKind::Punct('!')
                            | TokKind::Punct('<')
                            | TokKind::Punct('>')
                    );
                if prev_punct || (!config.include_tests && is_test(idx)) {
                    continue;
                }
                let neighbor_float = (idx > 0 && toks[idx - 1].kind == TokKind::Float)
                    || toks.get(idx + 2).map(|t| &t.kind) == Some(&TokKind::Float);
                if neighbor_float {
                    let op = if *c == '=' { "==" } else { "!=" };
                    push(
                        &mut out,
                        tok,
                        Rule::FloatEq,
                        format!(
                            "float literal compared with `{op}`; use a tolerance or an exact \
                             bit-pattern comparison"
                        ),
                    );
                }
            }
            _ => {}
        }
    }
    out
}

/// Recursively lints every `.rs` file under `root/crates`, `root/src`,
/// `root/tests`, and `root/examples`.
///
/// # Errors
///
/// Propagates I/O failures reading the tree (unreadable files are
/// reported, not skipped, so a truncated scan can't pass as clean).
pub fn lint_workspace(root: &Path, config: &LintConfig) -> io::Result<Vec<Violation>> {
    let mut files = Vec::new();
    for top in ["crates", "src", "tests", "examples"] {
        let dir = root.join(top);
        if dir.is_dir() {
            collect_rs_files(&dir, &mut files)?;
        }
    }
    files.sort();
    let mut out = Vec::new();
    for file in files {
        let src = fs::read_to_string(&file)?;
        let rel = file.strip_prefix(root).unwrap_or(&file);
        let scope = FileScope::of(rel);
        out.extend(lint_source(rel, &src, scope, config));
    }
    Ok(out)
}

pub(crate) fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // Build artifacts and VCS metadata are not source.
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scope_core() -> FileScope {
        FileScope::of(Path::new("crates/core/src/example.rs"))
    }

    fn lint(src: &str, scope: FileScope) -> Vec<Violation> {
        lint_source(Path::new("x.rs"), src, scope, &LintConfig::default())
    }

    #[test]
    fn flags_unwrap_and_panic_in_core_non_test_code() {
        let src = r#"
fn f(x: Option<u32>) -> u32 { x.unwrap() }
fn g() { panic!("boom"); }
"#;
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::PanicFree));
        assert_eq!(v[0].line, 2);
    }

    #[test]
    fn skips_test_regions_and_unwrap_or_lookalikes() {
        let src = r#"
fn ok(x: Option<u32>) -> u32 { x.unwrap_or(0).max(x.unwrap_or_default()) }

#[cfg(test)]
mod tests {
    #[test]
    fn t() { Some(1).unwrap(); panic!("fine in tests"); }
}
"#;
        assert!(lint(src, scope_core()).is_empty());
    }

    #[test]
    fn include_tests_extends_the_panic_sweep() {
        let src = "#[test]\nfn t() { Some(1).unwrap(); }\n";
        let cfg = LintConfig {
            include_tests: true,
        };
        let v = lint_source(Path::new("x.rs"), src, scope_core(), &cfg);
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::PanicFree);
    }

    #[test]
    fn flags_float_equality_but_not_integer_or_bits() {
        let src = r#"
fn bad(x: f64) -> bool { x == 0.5 }
fn also_bad(x: f64) -> bool { 1.0 != x }
fn fine(x: u64) -> bool { x == 5 }
fn bits(x: f64, y: f64) -> bool { x.to_bits() == y.to_bits() }
fn ranges() -> usize { (0..9).len() }
fn tuple(t: (f64, f64)) -> f64 { t.0 }
fn method() -> u64 { 5u64.max(3) }
"#;
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 2, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::FloatEq));
    }

    #[test]
    fn flags_assert_eq_with_float_literal() {
        let src = "fn f(x: f64) { assert_eq!(x, 0.0); }\n";
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::FloatEq);
        // Comparisons against integers are untouched.
        let ok = "fn f(x: u64) { assert_eq!(x, 3); }\n";
        assert!(lint(ok, scope_core()).is_empty());
        // The sanctioned fixes stay legal: bit-pattern comparison and
        // floats nested inside operand sub-expressions.
        let bits = "fn f(x: f64) { assert_eq!(x.to_bits(), 0.0f64.to_bits()); }\n";
        assert!(
            lint(bits, scope_core()).is_empty(),
            "{:?}",
            lint(bits, scope_core())
        );
        let nested = "fn f(g: fn(f64) -> u32) { assert_eq!(g(1.0), 7); }\n";
        assert!(lint(nested, scope_core()).is_empty());
        // A float message argument is still an operand-level literal.
        let msg = "fn f(x: f64) { assert_eq!(x, 0.5, \"expected half\"); }\n";
        assert_eq!(lint(msg, scope_core()).len(), 1);
    }

    #[test]
    fn flags_panics_in_experiment_binaries_but_not_bench_library() {
        let src = "fn main() { let v: Option<u32> = None; v.expect(\"boom\"); }\n";
        let bin = lint(
            src,
            FileScope::of(Path::new("crates/bench/src/bin/exp_mixes.rs")),
        );
        assert_eq!(bin.len(), 1, "{bin:?}");
        assert_eq!(bin[0].rule, Rule::PanicFree);
        let lib = lint(src, FileScope::of(Path::new("crates/bench/src/report.rs")));
        assert!(lib.is_empty(), "{lib:?}");
    }

    #[test]
    fn flags_panics_and_asserts_in_the_serve_daemon_binary() {
        let src = "fn run(out: Option<&str>) { out.expect(\"--out\"); assert!(out.is_some()); }\n";
        let bin = lint(
            src,
            FileScope::of(Path::new("crates/serve/src/bin/untangle-serve.rs")),
        );
        assert_eq!(bin.len(), 2, "{bin:?}");
        assert!(bin.iter().all(|v| v.rule == Rule::PanicFree), "{bin:?}");
        let lib = lint(src, FileScope::of(Path::new("crates/serve/src/engine.rs")));
        assert!(lib.iter().all(|v| v.rule != Rule::PanicFree), "{lib:?}");
    }

    #[test]
    fn flags_asserts_in_experiment_binaries_only() {
        let src = "fn main() { let n = 3; assert!(n > 2); assert_eq!(n, 3, \"n\"); \
                   assert_ne!(n, 4); debug_assert!(n > 0); debug_assert_eq!(n, 3); }\n\
                   #[cfg(test)]\nmod tests {\n #[test]\n fn t() { assert_eq!(1, 1); }\n}\n";
        let bin = lint(
            src,
            FileScope::of(Path::new("crates/bench/src/bin/exp_replay.rs")),
        );
        assert_eq!(bin.len(), 3, "{bin:?}");
        assert!(bin.iter().all(|v| v.rule == Rule::PanicFree), "{bin:?}");
        // Framework code keeps its constructor-precondition asserts, and
        // the bench library is out of the rule's reach.
        for path in ["crates/core/src/decision.rs", "crates/bench/src/report.rs"] {
            let other = lint(src, FileScope::of(Path::new(path)));
            assert!(
                other.iter().all(|v| v.rule != Rule::PanicFree),
                "{path}: {other:?}"
            );
        }
    }

    #[test]
    fn flags_wall_clock_outside_bench_only() {
        let src = "use std::time::Instant;\nfn f() { let _ = Instant::now(); }\n";
        let core = lint(src, scope_core());
        assert_eq!(core.len(), 2, "{core:?}");
        assert!(core.iter().all(|v| v.rule == Rule::WallClock));
        let bench = lint(src, FileScope::of(Path::new("crates/bench/src/harness.rs")));
        assert!(bench.is_empty());
        // The obs crate owns the span clock, so it is exempt too.
        let obs = lint(src, FileScope::of(Path::new("crates/obs/src/lib.rs")));
        assert!(obs.is_empty(), "{obs:?}");
    }

    #[test]
    fn flags_eprintln_in_obs_sink_crates_as_diagnostic() {
        let src = "fn f() { eprintln!(\"warning: {}\", 3); }\n";
        for krate in ["core", "info", "sim"] {
            let scope = FileScope::of(Path::new(&format!("crates/{krate}/src/x.rs")));
            let v = lint(src, scope);
            assert_eq!(v.len(), 1, "{krate}: {v:?}");
            assert_eq!(v[0].rule, Rule::Eprintln);
            assert_eq!(v[0].severity(), Severity::Diagnostic);
        }
        // bench binaries, the obs crate itself, and test code are exempt.
        for path in [
            "crates/bench/src/bin/exp_mixes.rs",
            "crates/obs/src/lib.rs",
            "crates/core/tests/props.rs",
        ] {
            let v = lint(src, FileScope::of(Path::new(path)));
            assert!(v.is_empty(), "{path}: {v:?}");
        }
        // In-file test regions are exempt unless include_tests is on.
        let test_src = "#[cfg(test)]\nmod tests {\n fn t() { eprintln!(\"x\"); }\n}\n";
        let core = FileScope::of(Path::new("crates/core/src/x.rs"));
        assert!(lint(test_src, core).is_empty());
        let cfg = LintConfig {
            include_tests: true,
        };
        assert_eq!(
            lint_source(Path::new("x.rs"), test_src, core, &cfg).len(),
            1
        );
        // Lookalikes (`eprint!`, a bare ident) never trigger.
        let lookalike = "fn f() { eprint!(\"x\"); let eprintln = 1; let _ = eprintln; }\n";
        assert!(lint(lookalike, core).is_empty());
    }

    #[test]
    fn severities_split_gate_failures_from_diagnostics() {
        assert_eq!(Rule::Eprintln.severity(), Severity::Diagnostic);
        for rule in [
            Rule::PanicFree,
            Rule::FloatEq,
            Rule::WallClock,
            Rule::UnsafeCode,
            // Promoted from Diagnostic once crates/durable became the
            // sole owner of raw persistence.
            Rule::RawPersist,
        ] {
            assert_eq!(rule.severity(), Severity::Error, "{rule}");
        }
        assert_eq!(Severity::Error.name(), "error");
        assert_eq!(Severity::Diagnostic.name(), "diagnostic");
    }

    #[test]
    fn flags_raw_persistence_outside_the_durable_crate() {
        let src = "fn f() {\n let _ = std::fs::File::create(\"x\");\n \
                   std::fs::rename(\"a\", \"b\").ok();\n std::fs::write(\"c\", b\"d\").ok();\n}\n";
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 3, "{v:?}");
        assert!(v.iter().all(|v| v.rule == Rule::RawPersist));
        assert!(v.iter().all(|v| v.severity() == Severity::Error));
        // The durable crate is the sanctioned owner; the obs crate's
        // sink file is a diagnostic stream, not durable state; test
        // code builds fixtures however it likes.
        for path in [
            "crates/durable/src/atomic.rs",
            "crates/obs/src/lib.rs",
            "crates/serve/tests/crash_recovery.rs",
        ] {
            let v = lint(src, FileScope::of(Path::new(path)));
            assert!(v.is_empty(), "{path}: {v:?}");
        }
        // Lookalikes never trigger: other `create`/`rename` callees,
        // method calls, and bare idents.
        let ok = "fn f() { let _ = Dir::create(\"x\"); map.rename(1); \
                  let rename = 2; let _ = rename; fs::read(\"x\").ok(); }\n";
        assert!(
            lint(ok, scope_core()).is_empty(),
            "{:?}",
            lint(ok, scope_core())
        );
    }

    #[test]
    fn flags_unsafe_even_in_tests() {
        let src = "#[test]\nfn t() { let p = 0u8; let _ = unsafe { *(&p as *const u8) }; }\n";
        let v = lint(src, scope_core());
        assert!(v.iter().any(|v| v.rule == Rule::UnsafeCode), "{v:?}");
    }

    #[test]
    fn comments_strings_and_lifetimes_never_trigger() {
        let src = r##"
// x.unwrap() and panic! in a comment
/* nested /* block */ with unsafe and Instant */
fn f<'a>(s: &'a str) -> &'a str { s }
fn g() -> String { String::from("call .unwrap() or panic! == 0.5 unsafe Instant") }
fn raw() -> &'static str { r#"Instant::now() == 1.0 unsafe"# }
fn ch() -> char { 'x' }
fn esc() -> char { '\n' }
"##;
        assert!(lint(src, scope_core()).is_empty());
    }

    #[test]
    fn exponent_and_suffix_literals_are_floats() {
        let src = "fn f(x: f64) -> bool { x == 1e-9 || x == 2f64 }\n";
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 2, "{v:?}");
        // Hex literals with an `E` digit are integers.
        let hex = "fn f(x: u64) -> bool { x == 0xE }\n";
        assert!(lint(hex, scope_core()).is_empty());
    }

    #[test]
    fn scope_detection() {
        assert!(FileScope::of(Path::new("crates/info/src/dist.rs")).panic_free_crate);
        assert!(FileScope::of(Path::new("crates/trace/src/file.rs")).panic_free_crate);
        assert!(FileScope::of(Path::new("crates/durable/src/wal.rs")).panic_free_crate);
        assert!(!FileScope::of(Path::new("crates/sim/src/stats.rs")).panic_free_crate);
        assert!(FileScope::of(Path::new("crates/bench/src/report.rs")).bench_crate);
        // The experiment binaries are panic-free; bench library code is
        // not in scope (its tests use expect freely).
        assert!(FileScope::of(Path::new("crates/bench/src/bin/exp_mixes.rs")).driver_bin);
        assert!(!FileScope::of(Path::new("crates/bench/src/report.rs")).driver_bin);
        assert!(!FileScope::of(Path::new("crates/bench/benches/kernels.rs")).driver_bin);
        assert!(FileScope::of(Path::new("crates/core/tests/props.rs")).test_file);
        assert!(FileScope::of(Path::new("examples/quickstart.rs")).test_file);
        // The panic rule never applies outside src of the named crates.
        assert!(!FileScope::of(Path::new("crates/core/tests/props.rs")).panic_free_crate);
        // The obs crate: panic-free, wall-clock-exempt, not an obs-sink
        // target itself.
        let obs = FileScope::of(Path::new("crates/obs/src/lib.rs"));
        assert!(obs.panic_free_crate && obs.obs_crate && !obs.obs_sink_crate);
        // The obs-sink discipline covers exactly core/info/sim src.
        assert!(FileScope::of(Path::new("crates/sim/src/stats.rs")).obs_sink_crate);
        assert!(!FileScope::of(Path::new("crates/bench/src/parallel.rs")).obs_sink_crate);
        assert!(!FileScope::of(Path::new("crates/analysis/src/lint.rs")).obs_sink_crate);
        // Raw persistence is the durable crate's exclusive business.
        assert!(FileScope::of(Path::new("crates/durable/src/wal.rs")).durable_crate);
        assert!(!FileScope::of(Path::new("crates/serve/src/durable.rs")).durable_crate);
    }

    #[test]
    fn violations_render_as_file_line_col() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = lint(src, scope_core());
        let rendered = v[0].to_string();
        assert!(rendered.starts_with("x.rs:1:"), "{rendered}");
        assert!(rendered.contains("panic-free"), "{rendered}");
    }

    // --- Region-skipping regression tests ---------------------------
    // Edge cases that previously mis-sized the `#[cfg(test)]` skip
    // region and produced spurious (or missing) diagnostics.

    #[test]
    fn braceless_cfg_test_item_does_not_swallow_the_next_item() {
        // `#[cfg(test)]` on a brace-less item used to extend the skip
        // region over the *next* item's braces, hiding its violations.
        let src = "#[cfg(test)]\nuse std::collections::HashMap;\n\
                   fn live(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].rule, Rule::PanicFree);
    }

    #[test]
    fn cfg_all_test_modules_are_skipped() {
        // `#[cfg(all(test, feature = "x"))]` is test-only code; it used
        // to be treated as live because only the bare `#[cfg(test)]`
        // spelling was recognized.
        let src = "#[cfg(all(test, feature = \"slow\"))]\nmod tests {\n \
                   fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint(src, scope_core()).is_empty());
        // `#[cfg(any(test, doctest))]` likewise.
        let any = "#[cfg(any(test, doctest))]\nmod tests {\n fn t() { panic!(\"x\"); }\n}\n";
        assert!(lint(any, scope_core()).is_empty());
    }

    #[test]
    fn cfg_not_test_code_stays_live() {
        // `not(test)` means the item is compiled into the real build —
        // it must NOT be treated as a test region.
        let src = "#[cfg(not(test))]\nfn live(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 1, "{v:?}");
    }

    #[test]
    fn stacked_attributes_extend_the_test_region() {
        // Attributes between `#[cfg(test)]` and the item body must not
        // terminate the region scan.
        let src = "#[cfg(test)]\n#[allow(dead_code)]\nmod tests {\n \
                   fn t() { Some(1).unwrap(); }\n}\n";
        assert!(lint(src, scope_core()).is_empty());
    }

    #[test]
    fn nested_mod_inside_cfg_test_does_not_end_the_region_early() {
        // A nested `mod` inside a `#[cfg(test)]` module must not close
        // the outer skip region at the *inner* closing brace.
        let src = "#[cfg(test)]\nmod tests {\n mod inner { fn a() { Some(1).unwrap(); } }\n \
                   fn after_inner() { panic!(\"still test code\"); }\n}\n\
                   fn live(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 6, "{v:?}");
    }

    #[test]
    fn raw_strings_with_region_lookalikes_do_not_confuse_the_scanner() {
        // Raw strings containing `#[cfg(test)]`, braces, or quote marks
        // are literal data, not code: the scanner must neither open a
        // skip region from them nor lose brace balance.
        let src = "fn a() -> &'static str { r##\"#[cfg(test)] mod x { \"## }\n\
                   fn b() -> &'static str { r#\"}\"# }\n\
                   fn live(x: Option<u32>) -> u32 { x.unwrap() }\n";
        let v = lint(src, scope_core());
        assert_eq!(v.len(), 1, "{v:?}");
        assert_eq!(v[0].line, 3, "{v:?}");
    }

    #[test]
    fn string_tokens_carry_their_unescaped_content() {
        let toks = tokenize("let s = \"a\\nb\"; let r = r#\"c\"d\"#;");
        let strs: Vec<&str> = toks
            .iter()
            .filter_map(|t| match &t.kind {
                TokKind::Str(s) => Some(s.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(strs, ["a\nb", "c\"d"]);
    }
}
