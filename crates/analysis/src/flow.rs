//! Interprocedural forward taint dataflow and determinism analysis
//! (`untangle-flow`).
//!
//! # Lattice and model
//!
//! The secrecy lattice is the same two-point `Public ⊑ Secret` lattice
//! as `untangle_core::taint`; the analysis adds two orthogonal
//! determinism marks (hash-iteration order, wall-clock reads). A
//! `Taint` value tracks, per expression:
//!
//! * which of the enclosing function's **parameters** it derives from
//!   (a bitmask — the currency of the interprocedural summaries),
//! * whether it derives from a locally created **secret** source
//!   (`Labeled::secret(…)`, `.taint()`, or a call returning `Labeled`),
//! * whether it derives from **unordered iteration** over a
//!   `HashMap`/`HashSet`,
//! * whether it derives from a **wall-clock read** (`Instant::now` /
//!   `SystemTime::now`).
//!
//! # Summaries and fixpoint
//!
//! Each function gets a `Summary`: whether its return value is
//! secret (seeded from a `Labeled` return type), and per parameter
//! whether the function *sanitizes* it (passes it through
//! `declassify`/`require_public`/`public_value`), forwards it to its
//! return value, or lets it reach a **sink** — recording the local
//! source→sink step chain. Summaries are recomputed to a fixpoint
//! (bounded rounds), then a final reporting pass emits findings whose
//! chains concatenate across call edges, so a caller-side source is
//! reported with the full path through callees to the sink.
//!
//! # Rules
//!
//! * `secret-flow` — a secret-derived value reaches a sink (decision
//!   commit, serve output merge, durable write, process output, obs
//!   event) without passing `declassify()`/`require_public()`.
//! * `nondet-iter` — a value derived from unordered container
//!   iteration feeds an ordered output path without an intervening
//!   sort or order-insensitive fold.
//! * `nondet-time` — a wall-clock read flows to a sink outside the
//!   bench/obs crates (whose clocks are sanctioned).
//! * `unknown-declassify-site` — `declassify`/`require_public` is
//!   called with a literal site that is not in the `taint::sites`
//!   registry (variable site arguments are accepted: the registry is
//!   checked at runtime by the audit layer).
//!
//! Test regions and test files are skipped, mirroring the lint.

use std::collections::{BTreeMap, BTreeSet};

use crate::callgraph::{extract_calls, resolve_calls, Call, CallStyle};
use crate::lint::{TokKind, Token};
use crate::parse::Workspace;
use crate::report::{ChainStep, Finding};

/// Per-function dataflow summary.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
struct Summary {
    /// The return value carries secret taint (seeded from a `Labeled`
    /// return type, extended when a body returns a secret-derived
    /// value).
    returns_secret: bool,
    /// Per parameter: passed through a sanitizer inside this function.
    sanitizes: Vec<bool>,
    /// Per parameter: reaches a sink un-sanitized; the chain holds the
    /// steps from this function's entry to the sink.
    to_sink: Vec<Option<Vec<ChainStep>>>,
    /// Per parameter: flows to the return value.
    to_return: Vec<bool>,
}

/// Taint of one expression during a body walk.
#[derive(Debug, Clone, Default)]
struct Taint {
    /// Bitmask of the enclosing function's parameters.
    params: u64,
    /// Locally originated secret, with its source chain.
    secret: Option<Vec<ChainStep>>,
    /// Unordered-iteration origin, with its source chain.
    nondet: Option<Vec<ChainStep>>,
    /// Wall-clock origin, with its source chain.
    time: Option<Vec<ChainStep>>,
}

impl Taint {
    fn is_empty(&self) -> bool {
        self.params == 0 && self.secret.is_none() && self.nondet.is_none() && self.time.is_none()
    }

    fn merge(&mut self, other: &Taint) {
        self.params |= other.params;
        if self.secret.is_none() {
            self.secret.clone_from(&other.secret);
        }
        if self.nondet.is_none() {
            self.nondet.clone_from(&other.nondet);
        }
        if self.time.is_none() {
            self.time.clone_from(&other.time);
        }
    }
}

/// Sink classes. Ordered-output sinks additionally gate the
/// determinism rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SinkKind {
    /// `DecisionCore`-style decision emission (`.commit(…)`).
    Decision,
    /// The serve engine's ordered output merge (`.ingest…(…)`).
    ServeMerge,
    /// A `crates/durable` write.
    Durable,
    /// `println!`-family process output.
    Stdout,
    /// An `untangle-obs` event.
    Obs,
}

impl SinkKind {
    /// Whether emission order is observable at this sink.
    fn ordered(self) -> bool {
        !matches!(self, SinkKind::Obs)
    }
}

const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];
const SORT_METHODS: [&str; 6] = [
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
];
const ORDER_INSENSITIVE: [&str; 7] = ["sum", "count", "min", "max", "all", "any", "len"];
const MUTATING_METHODS: [&str; 7] = [
    "push",
    "push_str",
    "push_front",
    "push_back",
    "extend",
    "insert",
    "append",
];

/// Runs the full analysis over a parsed workspace and returns the
/// findings, sorted by position.
pub fn analyze_workspace(ws: &Workspace) -> Vec<Finding> {
    let mut file_calls: Vec<BTreeMap<usize, Call>> = Vec::with_capacity(ws.files.len());
    for (i, f) in ws.files.iter().enumerate() {
        let mut calls = extract_calls(&f.toks);
        resolve_calls(ws, i, &mut calls);
        file_calls.push(calls);
    }
    let mut summaries: Vec<Summary> = ws
        .fns
        .iter()
        .map(|f| Summary {
            returns_secret: f.returns_labeled,
            sanitizes: vec![false; f.params.len()],
            to_sink: vec![None; f.params.len()],
            to_return: vec![false; f.params.len()],
        })
        .collect();

    // Fixpoint over summaries: bounded rounds (the bound also caps
    // chain growth through recursive call cycles).
    for _round in 0..8 {
        let mut changed = false;
        for id in 0..ws.fns.len() {
            if ws.fns[id].is_test || ws.fns[id].body.is_none() {
                continue;
            }
            let (summary, _) = analyze_fn(ws, id, &file_calls, &summaries);
            if summary != summaries[id] {
                summaries[id] = summary;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }

    // Reporting pass with stable summaries.
    let mut findings = Vec::new();
    for id in 0..ws.fns.len() {
        if ws.fns[id].is_test || ws.fns[id].body.is_none() {
            continue;
        }
        let (_, mut found) = analyze_fn(ws, id, &file_calls, &summaries);
        findings.append(&mut found);
    }
    findings.sort_by(|a, b| {
        (&a.file, a.line, a.col, a.rule, &a.message)
            .cmp(&(&b.file, b.line, b.col, b.rule, &b.message))
    });
    findings.dedup();
    findings
}

/// Analyzes one function body against the current summaries, returning
/// its recomputed summary and any findings.
fn analyze_fn(
    ws: &Workspace,
    id: usize,
    file_calls: &[BTreeMap<usize, Call>],
    summaries: &[Summary],
) -> (Summary, Vec<Finding>) {
    let f = &ws.fns[id];
    let (blo, bhi) = match f.body {
        Some(range) => range,
        None => return (summaries[id].clone(), Vec::new()),
    };
    let file = &ws.files[f.file];
    // Nested fn items own their tokens; skip their bodies here.
    let skip: Vec<(usize, usize)> = ws
        .fns
        .iter()
        .filter(|g| g.file == f.file)
        .filter_map(|g| g.body)
        .filter(|&(l, r)| l > blo && r <= bhi)
        .collect();
    let mut vars = BTreeMap::new();
    for (p, name) in f.params.iter().enumerate() {
        if p < 63 {
            vars.insert(
                name.clone(),
                Taint {
                    params: 1u64 << p,
                    ..Taint::default()
                },
            );
        }
    }
    let mut a = Analyzer {
        ws,
        summaries,
        calls: &file_calls[f.file],
        toks: &file.toks,
        file_rel: file.rel.display().to_string().replace('\\', "/"),
        time_scope: !file.scope.bench_crate && !file.scope.obs_crate,
        vars,
        hash_vars: BTreeSet::new(),
        skip,
        new_summary: Summary {
            returns_secret: f.returns_labeled,
            sanitizes: vec![false; f.params.len()],
            to_sink: vec![None; f.params.len()],
            to_return: vec![false; f.params.len()],
        },
        findings: Vec::new(),
    };
    // The running taint at the end of the body is the trailing
    // expression — Rust's idiomatic return.
    let tail = a.scan(blo + 1, bhi);
    a.record_return(&tail);
    (a.new_summary, a.findings)
}

struct Analyzer<'a> {
    ws: &'a Workspace,
    summaries: &'a [Summary],
    calls: &'a BTreeMap<usize, Call>,
    toks: &'a [Token],
    file_rel: String,
    /// Wall-clock reads are sanctioned in bench/obs; elsewhere they
    /// feed the `nondet-time` rule.
    time_scope: bool,
    vars: BTreeMap<String, Taint>,
    /// Locals bound to `HashMap`/`HashSet` constructors.
    hash_vars: BTreeSet<String>,
    skip: Vec<(usize, usize)>,
    new_summary: Summary,
    findings: Vec<Finding>,
}

/// Finds the end of a statement/expression starting at `start`: the
/// terminating `;` at delimiter depth 0, an unmatched closing `}`, or —
/// unless the expression opens with a block form (`if`/`match`/…) — the
/// first `{` at depth 0 (a trailing block the caller walks itself).
fn stmt_end(toks: &[Token], start: usize, hi: usize) -> usize {
    let block_expr = match toks.get(start).map(|t| &t.kind) {
        Some(TokKind::Ident(id)) => {
            matches!(id.as_str(), "if" | "match" | "loop" | "while" | "unsafe")
        }
        Some(TokKind::Punct('{')) => true,
        _ => false,
    };
    let mut depth = 0usize;
    let mut j = start;
    while j < hi {
        match &toks[j].kind {
            TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
            TokKind::Punct(')') | TokKind::Punct(']') => depth = depth.saturating_sub(1),
            TokKind::Punct('{') => {
                if block_expr || depth > 0 {
                    depth += 1;
                } else {
                    return j;
                }
            }
            TokKind::Punct('}') => {
                if depth > 0 {
                    depth -= 1;
                } else {
                    return j;
                }
            }
            TokKind::Punct(';') if depth == 0 => return j,
            _ => {}
        }
        j += 1;
    }
    hi
}

impl<'a> Analyzer<'a> {
    fn step_at(&self, what: String, tok: usize) -> ChainStep {
        let t = &self.toks[tok];
        ChainStep {
            what,
            file: self.file_rel.clone(),
            line: t.line,
            col: t.col,
        }
    }

    fn ident_at(&self, i: usize) -> Option<&str> {
        match self.toks.get(i).map(|t| &t.kind) {
            Some(TokKind::Ident(s)) => Some(s.as_str()),
            _ => None,
        }
    }

    fn is_hash_name(&self, name: &str) -> bool {
        self.hash_vars.contains(name) || self.ws.hash_names.contains(name)
    }

    fn emit(&mut self, rule: &'static str, message: String, chain: Vec<ChainStep>) {
        let anchor = match chain.first() {
            Some(s) => s.clone(),
            None => return,
        };
        self.findings.push(Finding {
            rule,
            file: anchor.file,
            line: anchor.line,
            col: anchor.col,
            message,
            chain,
        });
    }

    /// Linear walk of `[lo, hi)`: processes statements, evaluates call
    /// taint, and returns the running taint of the trailing expression
    /// segment.
    fn scan(&mut self, lo: usize, hi: usize) -> Taint {
        let mut acc = Taint::default();
        let mut i = lo;
        while i < hi {
            if let Some(&(_, end)) = self.skip.iter().find(|&&(s, e)| i >= s && i <= e) {
                i = end + 1;
                continue;
            }
            let kind = self.toks[i].kind.clone();
            match kind {
                TokKind::Ident(name) => {
                    match name.as_str() {
                        "let" => {
                            i = self.handle_let(i, hi);
                            acc = Taint::default();
                            continue;
                        }
                        "for" => {
                            i = self.handle_for(i, hi);
                            acc = Taint::default();
                            continue;
                        }
                        "return" => {
                            let end = stmt_end(self.toks, i + 1, hi);
                            let t = self.scan(i + 1, end);
                            self.record_return(&t);
                            i = if self.punct_at(end, ';') {
                                end + 1
                            } else {
                                end
                            };
                            acc = Taint::default();
                            continue;
                        }
                        _ => {}
                    }
                    if self.calls.contains_key(&i) {
                        let call = match self.calls.get(&i) {
                            Some(c) => c.clone(),
                            None => {
                                i += 1;
                                continue;
                            }
                        };
                        let recv = std::mem::take(&mut acc);
                        let args: Vec<Taint> = call
                            .args
                            .iter()
                            .map(|&(s, e)| self.scan(s, e + 1))
                            .collect();
                        let res = self.handle_call(&call, recv, &args);
                        acc.merge(&res);
                        i = call.end + 1;
                        continue;
                    }
                    // Simple (or compound) assignment to `name`.
                    if let Some(rhs) = self.assignment_rhs(i) {
                        let end = stmt_end(self.toks, rhs, hi);
                        let t = self.scan(rhs, end);
                        let entry = self.vars.entry(name.clone()).or_default();
                        entry.merge(&t);
                        i = if self.punct_at(end, ';') {
                            end + 1
                        } else {
                            end
                        };
                        acc = Taint::default();
                        continue;
                    }
                    if let Some(t) = self.vars.get(&name) {
                        let t = t.clone();
                        acc.merge(&t);
                    }
                }
                // A `;` or opening `{` starts a fresh expression
                // segment. A closing `}` deliberately does NOT reset:
                // the taint accumulated inside a block (or struct
                // literal) is the block's value and must survive as the
                // trailing expression of the enclosing statement.
                TokKind::Punct(';') | TokKind::Punct('{') => {
                    acc = Taint::default();
                }
                _ => {}
            }
            i += 1;
        }
        acc
    }

    fn punct_at(&self, i: usize, c: char) -> bool {
        self.toks.get(i).map(|t| &t.kind) == Some(&TokKind::Punct(c))
    }

    /// If token `i` (an identifier) is the target of an assignment,
    /// returns the index where the right-hand side starts.
    fn assignment_rhs(&self, i: usize) -> Option<usize> {
        // `name = rhs` (not `==`, `=>`, and not the `=` of `<=`/`>=`).
        if self.punct_at(i + 1, '=') && !self.punct_at(i + 2, '=') && !self.punct_at(i + 2, '>') {
            return Some(i + 2);
        }
        // `name += rhs` and friends.
        if let Some(TokKind::Punct(op)) = self.toks.get(i + 1).map(|t| &t.kind) {
            if "+-*/%&|^".contains(*op) && self.punct_at(i + 2, '=') && !self.punct_at(i + 3, '=') {
                return Some(i + 3);
            }
        }
        None
    }

    /// Handles `let [pattern][: ty] = rhs ;` starting at the `let`
    /// token; returns the index to resume scanning from.
    fn handle_let(&mut self, i: usize, hi: usize) -> usize {
        let mut pat: Vec<String> = Vec::new();
        let mut j = i + 1;
        let mut depth = 0usize;
        let mut angle = 0usize;
        let mut in_type = false;
        while j < hi {
            match &self.toks[j].kind {
                TokKind::Punct('(') | TokKind::Punct('[') | TokKind::Punct('{') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') | TokKind::Punct('}') => {
                    depth = depth.saturating_sub(1)
                }
                TokKind::Punct('<') => angle += 1,
                TokKind::Punct('>') if !self.punct_at(j - 1, '-') && !self.punct_at(j - 1, '=') => {
                    angle = angle.saturating_sub(1)
                }
                TokKind::Punct('=') if depth == 0 && angle == 0 => break,
                TokKind::Punct(';') if depth == 0 => return j + 1, // `let x;`
                TokKind::Punct(':') if depth == 0 && angle == 0 && !self.punct_at(j + 1, ':') => {
                    in_type = true;
                }
                TokKind::Ident(id) if !in_type => {
                    let path_seg = self.punct_at(j + 1, ':') && self.punct_at(j + 2, ':');
                    let constructor = self.punct_at(j + 1, '(');
                    if !path_seg
                        && !constructor
                        && id != "mut"
                        && id != "ref"
                        && id != "_"
                        && id != "else"
                    {
                        pat.push(id.clone());
                    }
                }
                _ => {}
            }
            j += 1;
        }
        if j >= hi {
            return hi;
        }
        let rhs = j + 1;
        let end = stmt_end(self.toks, rhs, hi);
        let t = self.scan(rhs, end);
        // `let m = HashMap::new()` and friends mark hash locals.
        let rhs_has_hash =
            (rhs..end).any(|k| matches!(self.ident_at(k), Some("HashMap") | Some("HashSet")));
        for name in pat {
            if rhs_has_hash {
                self.hash_vars.insert(name.clone());
            }
            self.vars.insert(name, t.clone());
        }
        if self.punct_at(end, ';') {
            end + 1
        } else {
            end
        }
    }

    /// Handles `for pattern in expr {`, binding pattern taint (with a
    /// nondet mark for direct iteration over a hash container);
    /// returns the index of the loop body `{`.
    fn handle_for(&mut self, i: usize, hi: usize) -> usize {
        let mut pat: Vec<String> = Vec::new();
        let mut j = i + 1;
        while j < hi {
            match &self.toks[j].kind {
                TokKind::Ident(id) if id == "in" => break,
                TokKind::Ident(id)
                    if id != "mut" && id != "ref" && id != "_" && !self.punct_at(j + 1, '(') =>
                {
                    pat.push(id.clone());
                }
                _ => {}
            }
            j += 1;
        }
        if j >= hi {
            return hi;
        }
        let expr = j + 1;
        let mut depth = 0usize;
        let mut end = expr;
        while end < hi {
            match &self.toks[end].kind {
                TokKind::Punct('(') | TokKind::Punct('[') => depth += 1,
                TokKind::Punct(')') | TokKind::Punct(']') => depth = depth.saturating_sub(1),
                TokKind::Punct('{') if depth == 0 => break,
                _ => {}
            }
            end += 1;
        }
        let mut t = self.scan(expr, end);
        // `for (k, v) in map` — iterating the container itself.
        if t.nondet.is_none() {
            let names: Vec<(usize, String)> = (expr..end)
                .filter_map(|k| self.ident_at(k).map(|s| (k, s.to_string())))
                .collect();
            if let [(tok, name)] = &names[..] {
                if self.is_hash_name(name) {
                    t.nondet =
                        Some(vec![self.step_at(
                            format!("source: unordered iteration over `{name}`"),
                            *tok,
                        )]);
                }
            }
        }
        for name in pat {
            self.vars.insert(name, t.clone());
        }
        end
    }

    fn record_return(&mut self, t: &Taint) {
        for p in bits(t.params) {
            if let Some(slot) = self.new_summary.to_return.get_mut(p) {
                *slot = true;
            }
        }
        if t.secret.is_some() {
            self.new_summary.returns_secret = true;
        }
    }

    fn record_sanitize(&mut self, t: &Taint) {
        for p in bits(t.params) {
            if let Some(slot) = self.new_summary.sanitizes.get_mut(p) {
                *slot = true;
            }
        }
    }

    /// Classifies a call as a sink.
    fn sink_of(&self, call: &Call) -> Option<(SinkKind, &'static str)> {
        let name = call.name.as_str();
        let receiver = match &call.style {
            CallStyle::Method { receiver } => receiver.as_deref(),
            _ => None,
        };
        let is_method = matches!(call.style, CallStyle::Method { .. });
        let is_macro = matches!(call.style, CallStyle::Macro);
        match name {
            "commit" if is_method => Some((SinkKind::Decision, "decision commit")),
            "ingest" | "ingest_all" if is_method => {
                Some((SinkKind::ServeMerge, "serve output merge"))
            }
            "atomic_write" if !is_macro => Some((SinkKind::Durable, "durable write")),
            "append_lines" if is_method => Some((SinkKind::Durable, "durable log append")),
            "append" | "append_batch"
                if receiver.map(|r| r.contains("wal") || r.contains("journal")) == Some(true) =>
            {
                Some((SinkKind::Durable, "durable WAL append"))
            }
            "store" if receiver.map(|r| r.contains("slot")) == Some(true) => {
                Some((SinkKind::Durable, "durable checkpoint store"))
            }
            "write" if matches!(&call.style, CallStyle::Qualified(q) if q == "fs") => {
                Some((SinkKind::Durable, "raw file write"))
            }
            "println" | "print" | "eprintln" | "eprint" if is_macro => {
                Some((SinkKind::Stdout, "process output"))
            }
            "diag" | "diag_str" if is_macro => Some((SinkKind::Obs, "obs diagnostic")),
            "event" | "counter_add" | "gauge_set" if !is_macro => {
                Some((SinkKind::Obs, "obs event"))
            }
            _ => None,
        }
    }

    /// Checks the site argument of `declassify`/`require_public`
    /// against the parsed registry.
    fn check_site_arg(&mut self, call: &Call) {
        let (s, e) = match call.args.first() {
            Some(&r) => r,
            None => return,
        };
        // Single string literal: must be a registered site value.
        if s == e {
            if let Some(TokKind::Str(value)) = self.toks.get(s).map(|t| &t.kind) {
                if !self.ws.site_values.is_empty() && !self.ws.site_values.contains(value) {
                    let step = self.step_at(
                        format!("declassify at literal site \"{value}\""),
                        call.name_tok,
                    );
                    self.emit(
                        "unknown-declassify-site",
                        format!(
                            "declassification site \"{value}\" is not in the `taint::sites` \
                             registry"
                        ),
                        vec![step],
                    );
                }
            }
            return;
        }
        // `sites::CONST` path: the const must resolve in the registry.
        for k in s..e {
            if self.ident_at(k) == Some("sites")
                && self.punct_at(k + 1, ':')
                && self.punct_at(k + 2, ':')
            {
                if let Some(cname) = self.ident_at(k + 3) {
                    if !self.ws.site_consts.is_empty() && !self.ws.site_consts.contains_key(cname) {
                        let cname = cname.to_string();
                        let step = self.step_at(
                            format!("declassify at site const `sites::{cname}`"),
                            call.name_tok,
                        );
                        self.emit(
                            "unknown-declassify-site",
                            format!(
                                "site const `sites::{cname}` is not declared in the \
                                 `taint::sites` registry"
                            ),
                            vec![step],
                        );
                    }
                }
                return;
            }
        }
        // Anything else (a variable, a function call) is checked at
        // runtime by the audit layer.
    }

    /// Reports taint reaching a sink and records parameter→sink edges
    /// for the summary.
    fn report_sink(&mut self, call: &Call, kind: SinkKind, desc: &'static str, args: &[Taint]) {
        let sink_step = self.step_at(format!("sink: {desc}"), call.name_tok);
        for t in args {
            if let Some(chain) = &t.secret {
                let mut full = chain.clone();
                full.push(sink_step.clone());
                self.emit(
                    "secret-flow",
                    format!(
                        "secret-labeled value reaches {desc} without `declassify()` or \
                         `require_public()`"
                    ),
                    full,
                );
            }
            for p in bits(t.params) {
                if let Some(slot) = self.new_summary.to_sink.get_mut(p) {
                    if slot.is_none() {
                        *slot = Some(vec![sink_step.clone()]);
                    }
                }
            }
            if kind.ordered() {
                if let Some(chain) = &t.nondet {
                    let mut full = chain.clone();
                    full.push(sink_step.clone());
                    self.emit(
                        "nondet-iter",
                        format!(
                            "nondeterministically ordered value (HashMap/HashSet iteration) \
                             feeds {desc}; sort or fold order-insensitively first"
                        ),
                        full,
                    );
                }
            }
            if let Some(chain) = &t.time {
                let mut full = chain.clone();
                full.push(sink_step.clone());
                self.emit(
                    "nondet-time",
                    format!(
                        "wall-clock-derived value reaches {desc} outside a schedule \
                         declassification site"
                    ),
                    full,
                );
            }
        }
    }

    /// Evaluates one call: applies sanitizer/source/sink semantics and
    /// interprocedural summaries, returning the call result's taint.
    fn handle_call(&mut self, call: &Call, recv: Taint, args: &[Taint]) -> Taint {
        let name = call.name.as_str();
        let here = call.name_tok;
        let receiver_name = match &call.style {
            CallStyle::Method { receiver } => receiver.clone(),
            _ => None,
        };
        let is_method = matches!(call.style, CallStyle::Method { .. });

        // Sanitizers: an audited disclosure point clears secrecy (and
        // the wall-clock mark — schedule clocks are declassified
        // through exactly these calls) but not iteration order.
        if is_method && (name == "declassify" || name == "require_public") {
            self.check_site_arg(call);
            self.record_sanitize(&recv);
            return Taint {
                nondet: recv.nondet,
                ..Taint::default()
            };
        }
        if is_method && name == "public_value" {
            self.record_sanitize(&recv);
            return Taint {
                nondet: recv.nondet,
                ..Taint::default()
            };
        }

        // Secret sources.
        if matches!(&call.style, CallStyle::Qualified(q) if q == "Labeled") && name == "secret" {
            return Taint {
                secret: Some(vec![
                    self.step_at("source: Labeled::secret".to_string(), here)
                ]),
                ..Taint::default()
            };
        }
        if is_method && name == "taint" {
            let mut t = recv;
            t.secret = Some(vec![self.step_at("source: .taint()".to_string(), here)]);
            return t;
        }

        // Wall-clock sources.
        if let CallStyle::Qualified(q) = &call.style {
            if (q == "Instant" || q == "SystemTime") && name == "now" && self.time_scope {
                return Taint {
                    time: Some(vec![self.step_at(format!("source: {q}::now()"), here)]),
                    ..Taint::default()
                };
            }
        }

        // Unordered-iteration sources.
        if is_method && HASH_ITER_METHODS.contains(&name) {
            if let Some(r) = &receiver_name {
                if self.is_hash_name(r) {
                    let mut t = recv;
                    t.nondet =
                        Some(vec![self.step_at(
                            format!("source: unordered iteration over `{r}`"),
                            here,
                        )]);
                    return t;
                }
            }
        }

        // Order restoration / order-insensitive folds.
        if is_method && SORT_METHODS.contains(&name) {
            if let Some(r) = &receiver_name {
                if let Some(v) = self.vars.get_mut(r) {
                    v.nondet = None;
                }
            }
            let mut t = recv;
            t.nondet = None;
            return t;
        }
        if is_method && ORDER_INSENSITIVE.contains(&name) {
            let mut t = recv;
            for a in args {
                t.merge(a);
            }
            t.nondet = None;
            return t;
        }

        // Sinks.
        if let Some((kind, desc)) = self.sink_of(call) {
            self.report_sink(call, kind, desc, args);
            return Taint::default();
        }

        // Resolved workspace functions: consult summaries.
        if !call.resolved.is_empty() {
            return self.handle_resolved(call, &recv, args, here, is_method);
        }

        // Unresolved mutating collection methods write into the
        // receiver variable (`lines.push(v)`).
        if is_method && MUTATING_METHODS.contains(&name) {
            if let Some(r) = &receiver_name {
                let mut merged = Taint::default();
                for a in args {
                    merged.merge(a);
                }
                if !merged.is_empty() {
                    self.vars.entry(r.clone()).or_default().merge(&merged);
                }
            }
        }

        // Everything else propagates receiver + argument taint.
        let mut t = recv;
        for a in args {
            t.merge(a);
        }
        t
    }

    /// Applies callee summaries at a resolved call site.
    fn handle_resolved(
        &mut self,
        call: &Call,
        recv: &Taint,
        args: &[Taint],
        here: usize,
        is_method: bool,
    ) -> Taint {
        let mut res = Taint::default();
        // Positional argument list including the receiver for methods.
        let mut incoming: Vec<(bool, &Taint)> = Vec::new();
        if is_method {
            incoming.push((true, recv));
        }
        for a in args {
            incoming.push((false, a));
        }
        for &callee in &call.resolved {
            let summary = &self.summaries[callee];
            let callee_fn = &self.ws.fns[callee];
            let has_self = callee_fn.params.first().map(String::as_str) == Some("self");
            // A `Labeled`-returning *constructor* (free or associated
            // fn) is a fresh secret source. A `Labeled`-returning
            // *method* merely preserves its receiver's label (e.g.
            // `Labeled::map`): the secret-ness, if any, arrives through
            // the receiver's own taint via `to_return`, so common
            // method names (`map`, …) matched against `Labeled`'s impl
            // do not poison unrelated iterator chains.
            if summary.returns_secret && !has_self && res.secret.is_none() {
                res.secret = Some(vec![self.step_at(
                    format!("source: call to {} (returns Labeled)", callee_fn.qualname),
                    here,
                )]);
            }
            for (pos, (is_recv, t)) in incoming.iter().enumerate() {
                if t.is_empty() {
                    continue;
                }
                // Map call position to callee parameter index.
                let cp = if is_method {
                    if has_self {
                        pos
                    } else if *is_recv {
                        continue; // static method matched by name: no receiver slot
                    } else {
                        pos - 1
                    }
                } else {
                    pos
                };
                if cp >= summary.sanitizes.len() {
                    continue;
                }
                if summary.sanitizes[cp] {
                    // The callee discloses this argument through an
                    // audited site: the flow is legal.
                    self.record_sanitize(t);
                    continue;
                }
                if let Some(down) = &summary.to_sink[cp] {
                    let call_step = self.step_at(format!("call: {}", callee_fn.qualname), here);
                    if let Some(src) = &t.secret {
                        let mut full = src.clone();
                        full.push(call_step.clone());
                        full.extend(down.iter().cloned());
                        let sink = down
                            .last()
                            .map(|s| s.what.clone())
                            .unwrap_or_else(|| "sink".to_string());
                        self.emit(
                            "secret-flow",
                            format!(
                                "secret-labeled value flows through `{}` to a {} without \
                                 `declassify()` or `require_public()`",
                                callee_fn.name,
                                sink.trim_start_matches("sink: ")
                            ),
                            full,
                        );
                    }
                    for p in bits(t.params) {
                        if let Some(slot) = self.new_summary.to_sink.get_mut(p) {
                            if slot.is_none() {
                                let mut chain = vec![call_step.clone()];
                                chain.extend(down.iter().cloned());
                                *slot = Some(chain);
                            }
                        }
                    }
                }
                if summary.to_return[cp] {
                    res.params |= t.params;
                    if res.secret.is_none() {
                        res.secret.clone_from(&t.secret);
                    }
                }
            }
        }
        res
    }
}

/// Iterates the set bit positions of a parameter mask.
fn bits(mask: u64) -> impl Iterator<Item = usize> {
    (0..63).filter(move |p| mask & (1u64 << p) != 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_workspace;

    /// Builds a throwaway mini-workspace on disk and analyzes it. Each
    /// call gets its own directory: tests run concurrently.
    fn analyze(files: &[(&str, &str)]) -> Vec<Finding> {
        static CALLS: std::sync::atomic::AtomicUsize = std::sync::atomic::AtomicUsize::new(0);
        let call = CALLS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("untangle-flow-unit-{}-{call}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        for (rel, src) in files {
            let path = dir.join(rel);
            if let Some(parent) = path.parent() {
                std::fs::create_dir_all(parent).unwrap();
            }
            std::fs::write(&path, src).unwrap();
        }
        let ws = parse_workspace(&dir).unwrap();
        let findings = analyze_workspace(&ws);
        let _ = std::fs::remove_dir_all(&dir);
        findings
    }

    const REGISTRY: &str = "pub mod sites {\n pub const METRIC: &str = \"metric::demo\";\n}\n";

    #[test]
    fn direct_secret_to_commit_is_flagged_with_chain() {
        let src = format!(
            "{REGISTRY}\
             struct Core;\n\
             impl Core {{ fn commit(&self, a: u64) {{}} }}\n\
             fn step(core: &Core) {{\n\
                 let s = Labeled::secret(7u64);\n\
                 core.commit(s);\n\
             }}\n"
        );
        let findings = analyze(&[("crates/core/src/lib.rs", &src)]);
        let secret: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "secret-flow")
            .collect();
        assert_eq!(secret.len(), 1, "{findings:?}");
        let chain: Vec<&str> = secret[0].chain.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(chain, ["source: Labeled::secret", "sink: decision commit"]);
    }

    #[test]
    fn declassify_at_registered_site_is_legal() {
        let src = format!(
            "{REGISTRY}\
             struct Core;\n\
             impl Core {{ fn commit(&self, a: u64) {{}} }}\n\
             fn step(core: &Core) {{\n\
                 let s = Labeled::secret(7u64);\n\
                 let a = s.declassify(sites::METRIC);\n\
                 core.commit(a);\n\
             }}\n"
        );
        let findings = analyze(&[("crates/core/src/lib.rs", &src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn unknown_literal_site_is_flagged() {
        let src = format!(
            "{REGISTRY}\
             fn step() -> u64 {{\n\
                 let s = Labeled::secret(7u64);\n\
                 s.declassify(\"not::registered\")\n\
             }}\n"
        );
        let findings = analyze(&[("crates/core/src/lib.rs", &src)]);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "unknown-declassify-site");
    }

    #[test]
    fn interprocedural_flow_reports_the_full_call_chain() {
        let src = format!(
            "{REGISTRY}\
             struct Core;\n\
             impl Core {{ fn commit(&self, a: u64) {{}} }}\n\
             fn emit(core: &Core, v: u64) {{ core.commit(v); }}\n\
             fn load() -> Labeled<u64> {{ Labeled::secret(7u64) }}\n\
             fn step(core: &Core) {{\n\
                 let s = load();\n\
                 emit(core, s);\n\
             }}\n"
        );
        let findings = analyze(&[("crates/core/src/lib.rs", &src)]);
        let secret: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "secret-flow")
            .collect();
        assert_eq!(secret.len(), 1, "{findings:?}");
        let chain: Vec<&str> = secret[0].chain.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(
            chain,
            [
                "source: call to crates/core/src/lib.rs::load (returns Labeled)",
                "call: crates/core/src/lib.rs::emit",
                "sink: decision commit",
            ]
        );
    }

    #[test]
    fn sanitizing_callee_makes_the_flow_legal() {
        let src = format!(
            "{REGISTRY}\
             struct Sched {{ last: u64 }}\n\
             impl Sched {{\n\
                 fn on_retire(&mut self, t: Labeled<u64>) {{\n\
                     self.last = t.declassify(sites::METRIC);\n\
                 }}\n\
             }}\n\
             fn step(sched: &mut Sched) {{ sched.on_retire(Labeled::secret(3u64)); }}\n"
        );
        let findings = analyze(&[("crates/core/src/lib.rs", &src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn hashmap_iteration_into_serve_merge_is_flagged() {
        let src = "struct Out;\n\
                   impl Out { fn ingest(&mut self, lines: Vec<String>) {} }\n\
                   fn merge(out: &mut Out, m: &HashMap<u64, String>) {\n\
                       let mut lines = Vec::new();\n\
                       for (k, v) in m.iter() {\n\
                           lines.push(v.clone());\n\
                       }\n\
                       out.ingest(lines);\n\
                   }\n";
        let findings = analyze(&[("crates/serve/src/lib.rs", src)]);
        let nondet: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "nondet-iter")
            .collect();
        assert_eq!(nondet.len(), 1, "{findings:?}");
        let chain: Vec<&str> = nondet[0].chain.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(
            chain,
            [
                "source: unordered iteration over `m`",
                "sink: serve output merge",
            ]
        );
    }

    #[test]
    fn sorting_clears_the_nondet_mark() {
        let src = "struct Out;\n\
                   impl Out { fn ingest(&mut self, lines: Vec<String>) {} }\n\
                   fn merge(out: &mut Out, m: &HashMap<u64, String>) {\n\
                       let mut lines = Vec::new();\n\
                       for (k, v) in m.iter() {\n\
                           lines.push(v.clone());\n\
                       }\n\
                       lines.sort();\n\
                       out.ingest(lines);\n\
                   }\n";
        let findings = analyze(&[("crates/serve/src/lib.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }

    #[test]
    fn wall_clock_to_output_is_flagged_outside_bench() {
        let src = "fn stamp() {\n\
                       let t = SystemTime::now();\n\
                       println!(\"{:?}\", t);\n\
                   }\n";
        let core = analyze(&[("crates/core/src/lib.rs", src)]);
        assert_eq!(core.iter().filter(|f| f.rule == "nondet-time").count(), 1);
        // The bench harness's clocks are sanctioned.
        let bench = analyze(&[("crates/bench/src/lib.rs", src)]);
        assert!(bench.is_empty(), "{bench:?}");
    }

    #[test]
    fn test_code_is_skipped() {
        let src = "struct Core;\n\
                   impl Core { fn commit(&self, a: u64) {} }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn t(core: &super::Core) { core.commit(Labeled::secret(1u64)); }\n\
                   }\n";
        let findings = analyze(&[("crates/core/src/lib.rs", src)]);
        assert!(findings.is_empty(), "{findings:?}");
    }
}
