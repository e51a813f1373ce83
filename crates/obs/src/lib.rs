//! Dependency-free observability for the Untangle workspace.
//!
//! The evaluation pipeline is opaque numerical machinery — Dinkelbach
//! outer iterations over a concave inner maximization, a precomputed
//! rate table, 16-mix sweeps fanned out across threads. This crate is
//! the shared instrumentation layer those hot paths report into:
//!
//! * **Counters and gauges** — monotonic `u64` counters
//!   ([`counter_add`]) and last-write-wins `f64` gauges ([`gauge_set`]),
//!   keyed by dotted names (`dinkelbach.inner_iterations`,
//!   `rmax_cache.hits`).
//! * **Hierarchical span timers** — [`span`] returns an RAII
//!   [`SpanGuard`]; nested spans on the same thread join their names
//!   into a `parent/child` path. Durations aggregate per path
//!   (count / total / max) and, in JSON mode, emit one event per span.
//! * **Structured events** — [`event`] emits one line-delimited JSON
//!   object; [`diag`] replaces ad-hoc `eprintln!` diagnostics (plain
//!   stderr text normally, a structured `diag` event in JSON mode).
//! * **Snapshot** — [`snapshot`] returns everything recorded so far in
//!   deterministic (sorted) order, so drivers can export a `metrics`
//!   section into their reports.
//!
//! # Modes and environment variables
//!
//! The process-wide mode is read **once** from `UNTANGLE_OBS`:
//!
//! | value     | behaviour |
//! |-----------|-----------|
//! | unset / `off` | everything is a cheap branch; nothing is recorded |
//! | `summary` | counters/gauges/spans aggregate in memory; [`emit_summary`] renders a table |
//! | `json`    | aggregation **plus** one JSON object per event/span/diag line |
//!
//! `UNTANGLE_OBS_FILE=<path>` redirects the event stream (and the
//! summary table) from stderr into a file. Unrecognized `UNTANGLE_OBS`
//! values behave like `off`.
//!
//! # Overhead
//!
//! With observability off (the default) every entry point reduces to a
//! single cached-mode check — no locks are taken, no strings are built
//! by this crate, and [`span`] never reads the clock. Callers on hot
//! paths should additionally gate any argument construction (string
//! formatting, trajectory collection) on [`enabled`]. All state is
//! behind mutexes with poison recovery, so a panicking worker thread
//! can never take the instrumentation down with it.
//!
//! # Testing
//!
//! The global registry's mode is process-wide and cached, so in-process
//! tests use a local [`Registry`] (with an in-memory sink, see
//! [`Registry::drain_lines`]) instead of racing on environment
//! variables. The environment-driven path is exercised by the CI smoke
//! step that runs `exp_mixes` under `UNTANGLE_OBS=json` in a separate
//! process.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod env;
pub mod json;

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io::Write as _;
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::Instant;

// ---------------------------------------------------------------------
// Mode
// ---------------------------------------------------------------------

/// How much the observability layer records and emits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ObsMode {
    /// Record nothing; every entry point is a cheap branch.
    #[default]
    Off,
    /// Aggregate counters, gauges, and span statistics in memory;
    /// [`emit_summary`] renders them as a table.
    Summary,
    /// Aggregate like `Summary` and additionally emit one line-delimited
    /// JSON object per event, span, and diagnostic.
    Json,
}

impl ObsMode {
    /// Stable machine-readable name (`off` / `summary` / `json`).
    pub const fn name(self) -> &'static str {
        match self {
            ObsMode::Off => "off",
            ObsMode::Summary => "summary",
            ObsMode::Json => "json",
        }
    }

    /// Parses an `UNTANGLE_OBS` value; unknown values mean [`ObsMode::Off`].
    pub fn parse(value: &str) -> ObsMode {
        match value.trim().to_ascii_lowercase().as_str() {
            "summary" => ObsMode::Summary,
            "json" => ObsMode::Json,
            _ => ObsMode::Off,
        }
    }

    /// Whether anything is recorded in this mode.
    pub const fn is_enabled(self) -> bool {
        !matches!(self, ObsMode::Off)
    }
}

/// Environment variable selecting the mode (`off` / `summary` / `json`).
pub const ENV_MODE: &str = "UNTANGLE_OBS";
/// Environment variable redirecting the sink from stderr to a file.
pub const ENV_FILE: &str = "UNTANGLE_OBS_FILE";

// ---------------------------------------------------------------------
// Values and events
// ---------------------------------------------------------------------

/// A field value attached to a structured [`event`].
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Unsigned integer (counters, iteration counts).
    U64(u64),
    /// Signed integer.
    I64(i64),
    /// Floating-point number; non-finite values render as JSON `null`.
    F64(f64),
    /// Boolean flag.
    Bool(bool),
    /// String payload.
    Str(String),
    /// A numeric series (e.g. a per-iteration gap trajectory).
    F64s(Vec<f64>),
}

impl Value {
    fn render_into(&self, out: &mut String) {
        match self {
            Value::U64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::I64(v) => {
                let _ = write!(out, "{v}");
            }
            Value::F64(v) => render_f64(*v, out),
            Value::Bool(v) => {
                let _ = write!(out, "{v}");
            }
            Value::Str(s) => render_str(s, out),
            Value::F64s(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    render_f64(*v, out);
                }
                out.push(']');
            }
        }
    }
}

/// Renders a float as valid JSON (Rust's shortest-roundtrip `Display`;
/// non-finite values become `null`, which JSON has no spelling for).
fn render_f64(v: f64, out: &mut String) {
    if v.is_finite() {
        let _ = write!(out, "{v}");
    } else {
        out.push_str("null");
    }
}

/// Renders a JSON string literal with the mandatory escapes.
fn render_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

// ---------------------------------------------------------------------
// Aggregated state
// ---------------------------------------------------------------------

/// Aggregate timing of one span path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpanStats {
    /// Completed spans under this path.
    pub count: u64,
    /// Total duration in nanoseconds.
    pub total_ns: u64,
    /// Longest single span in nanoseconds.
    pub max_ns: u64,
}

/// Everything a registry has recorded, in deterministic (name-sorted)
/// order. Produced by [`snapshot`] / [`Registry::snapshot`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// The registry's mode.
    pub mode: ObsMode,
    /// Monotonic counters.
    pub counters: Vec<(String, u64)>,
    /// Last-write-wins gauges.
    pub gauges: Vec<(String, f64)>,
    /// Per-path span aggregates.
    pub spans: Vec<(String, SpanStats)>,
}

impl Snapshot {
    /// The value of one counter (zero when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap_or(0)
    }

    /// Whether nothing at all was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.spans.is_empty()
    }
}

#[derive(Debug, Default)]
struct State {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    spans: BTreeMap<String, SpanStats>,
}

/// Where emitted lines go.
#[derive(Debug)]
enum Sink {
    /// Process stderr (the default).
    Stderr,
    /// An open file (`UNTANGLE_OBS_FILE`).
    File(std::fs::File),
    /// In-memory capture for tests ([`Registry::drain_lines`]).
    Buffer(Vec<String>),
}

// ---------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------

/// One instrumentation domain: a mode, aggregated state, and a sink.
///
/// Production code talks to the process-wide registry through the free
/// functions ([`counter_add`], [`span`], …); tests construct their own
/// registry with [`Registry::with_mode`] so they never depend on (or
/// race over) process environment variables.
#[derive(Debug)]
pub struct Registry {
    mode: ObsMode,
    state: Mutex<State>,
    sink: Mutex<Sink>,
}

impl Registry {
    /// A registry in the given mode with an in-memory sink.
    pub fn with_mode(mode: ObsMode) -> Registry {
        Registry {
            mode,
            state: Mutex::new(State::default()),
            sink: Mutex::new(Sink::Buffer(Vec::new())),
        }
    }

    /// A disabled registry (mode [`ObsMode::Off`]).
    pub fn disabled() -> Registry {
        Registry::with_mode(ObsMode::Off)
    }

    fn from_env() -> Registry {
        let mode = std::env::var(ENV_MODE)
            .map(|v| ObsMode::parse(&v))
            .unwrap_or(ObsMode::Off);
        let sink = match std::env::var(ENV_FILE) {
            Ok(path) if !path.trim().is_empty() => match std::fs::File::create(path.trim()) {
                Ok(file) => Sink::File(file),
                // An unwritable target degrades to stderr rather than
                // killing the run over its own instrumentation.
                Err(_) => Sink::Stderr,
            },
            _ => Sink::Stderr,
        };
        Registry {
            mode,
            state: Mutex::new(State::default()),
            sink: Mutex::new(sink),
        }
    }

    /// The registry's mode.
    pub fn mode(&self) -> ObsMode {
        self.mode
    }

    /// Whether anything is recorded.
    pub fn enabled(&self) -> bool {
        self.mode.is_enabled()
    }

    /// Locks the state, recovering from a poisoned mutex (every critical
    /// section is a single map update, so the data is never torn).
    fn lock_state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    fn lock_sink(&self) -> MutexGuard<'_, Sink> {
        self.sink
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Adds `n` to the named monotonic counter. No-op when disabled.
    pub fn counter_add(&self, name: &str, n: u64) {
        if !self.enabled() {
            return;
        }
        let mut state = self.lock_state();
        match state.counters.get_mut(name) {
            Some(v) => *v = v.saturating_add(n),
            None => {
                state.counters.insert(name.to_string(), n);
            }
        }
    }

    /// Sets the named gauge (last write wins). No-op when disabled.
    pub fn gauge_set(&self, name: &str, value: f64) {
        if !self.enabled() {
            return;
        }
        self.lock_state().gauges.insert(name.to_string(), value);
    }

    /// Opens a timed span; the returned guard records the duration on
    /// drop. When disabled, the clock is never read.
    ///
    /// Nested spans on the same thread join into a `parent/child` path;
    /// the hierarchy is per-thread (a worker's spans do not nest under
    /// another thread's).
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.enabled() {
            return SpanGuard {
                registry: self,
                path: String::new(),
                start: None,
            };
        }
        let path = SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            let path = match stack.last() {
                Some(parent) => format!("{parent}/{name}"),
                None => name.to_string(),
            };
            stack.push(path.clone());
            path
        });
        SpanGuard {
            registry: self,
            path,
            start: Some(Instant::now()),
        }
    }

    fn record_span(&self, path: &str, ns: u64) {
        {
            let mut state = self.lock_state();
            match state.spans.get_mut(path) {
                Some(s) => {
                    s.count += 1;
                    s.total_ns = s.total_ns.saturating_add(ns);
                    s.max_ns = s.max_ns.max(ns);
                }
                None => {
                    state.spans.insert(
                        path.to_string(),
                        SpanStats {
                            count: 1,
                            total_ns: ns,
                            max_ns: ns,
                        },
                    );
                }
            }
        }
        if self.mode == ObsMode::Json {
            let mut line = String::with_capacity(64);
            line.push_str("{\"type\":\"span\",\"name\":");
            render_str(path, &mut line);
            let _ = write!(line, ",\"ns\":{ns}}}");
            self.write_line(&line);
        }
    }

    /// Emits one structured event line (JSON mode only; a cheap branch
    /// otherwise). Callers should gate expensive field construction on
    /// [`Registry::enabled`].
    pub fn event(&self, name: &str, fields: &[(&str, Value)]) {
        if self.mode != ObsMode::Json {
            return;
        }
        let mut line = String::with_capacity(64 + 16 * fields.len());
        line.push_str("{\"type\":\"event\",\"name\":");
        render_str(name, &mut line);
        for (key, value) in fields {
            line.push(',');
            render_str(key, &mut line);
            line.push(':');
            value.render_into(&mut line);
        }
        line.push('}');
        self.write_line(&line);
    }

    /// A human-facing diagnostic: plain stderr text in `off`/`summary`
    /// mode (so binaries keep their usual output), a structured `diag`
    /// event in JSON mode.
    pub fn diag(&self, message: &str) {
        if self.mode == ObsMode::Json {
            let mut line = String::with_capacity(32 + message.len());
            line.push_str("{\"type\":\"diag\",\"msg\":");
            render_str(message, &mut line);
            line.push('}');
            self.write_line(&line);
        } else {
            eprintln!("{message}");
        }
    }

    fn write_line(&self, line: &str) {
        let mut sink = self.lock_sink();
        match &mut *sink {
            Sink::Stderr => {
                let _ = writeln!(std::io::stderr().lock(), "{line}");
            }
            Sink::File(file) => {
                let _ = writeln!(file, "{line}");
            }
            Sink::Buffer(lines) => lines.push(line.to_string()),
        }
    }

    /// Everything recorded so far, name-sorted. Empty when disabled.
    pub fn snapshot(&self) -> Snapshot {
        if !self.enabled() {
            return Snapshot::default();
        }
        let state = self.lock_state();
        Snapshot {
            mode: self.mode,
            counters: state
                .counters
                .iter()
                .map(|(k, &v)| (k.clone(), v))
                .collect(),
            gauges: state.gauges.iter().map(|(k, &v)| (k.clone(), v)).collect(),
            spans: state.spans.iter().map(|(k, &v)| (k.clone(), v)).collect(),
        }
    }

    /// Drops all recorded counters, gauges, and span aggregates.
    pub fn reset(&self) {
        let mut state = self.lock_state();
        state.counters.clear();
        state.gauges.clear();
        state.spans.clear();
    }

    /// Renders the summary table (counters, gauges, spans) as text.
    pub fn render_summary(&self) -> String {
        let snap = self.snapshot();
        let mut out = String::new();
        out.push_str("== untangle-obs summary ==\n");
        if !snap.counters.is_empty() {
            out.push_str("-- counters --\n");
            let width = snap
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, value) in &snap.counters {
                let _ = writeln!(out, "{name:<width$}  {value}");
            }
        }
        if !snap.gauges.is_empty() {
            out.push_str("-- gauges --\n");
            let width = snap.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, value) in &snap.gauges {
                let _ = writeln!(out, "{name:<width$}  {value}");
            }
        }
        if !snap.spans.is_empty() {
            out.push_str("-- spans (count / total ms / max ms) --\n");
            let width = snap.spans.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, s) in &snap.spans {
                let _ = writeln!(
                    out,
                    "{name:<width$}  {}  {:.3}  {:.3}",
                    s.count,
                    s.total_ns as f64 / 1e6,
                    s.max_ns as f64 / 1e6
                );
            }
        }
        out
    }

    /// Emits the end-of-run roll-up: the summary table in `summary`
    /// mode, one `counter`/`gauge`/`span_total` line per aggregate in
    /// JSON mode, nothing when disabled.
    pub fn emit_summary(&self) {
        match self.mode {
            ObsMode::Off => {}
            ObsMode::Summary => {
                let text = self.render_summary();
                self.write_line(text.trim_end_matches('\n'));
            }
            ObsMode::Json => {
                let snap = self.snapshot();
                for (name, value) in &snap.counters {
                    let mut line = String::with_capacity(48);
                    line.push_str("{\"type\":\"counter\",\"name\":");
                    render_str(name, &mut line);
                    let _ = write!(line, ",\"value\":{value}}}");
                    self.write_line(&line);
                }
                for (name, value) in &snap.gauges {
                    let mut line = String::with_capacity(48);
                    line.push_str("{\"type\":\"gauge\",\"name\":");
                    render_str(name, &mut line);
                    line.push_str(",\"value\":");
                    render_f64(*value, &mut line);
                    line.push('}');
                    self.write_line(&line);
                }
                for (name, s) in &snap.spans {
                    let mut line = String::with_capacity(64);
                    line.push_str("{\"type\":\"span_total\",\"name\":");
                    render_str(name, &mut line);
                    let _ = write!(
                        line,
                        ",\"count\":{},\"total_ns\":{},\"max_ns\":{}}}",
                        s.count, s.total_ns, s.max_ns
                    );
                    self.write_line(&line);
                }
            }
        }
    }

    /// Takes the lines captured by an in-memory sink (empty for the
    /// stderr and file sinks). For tests.
    pub fn drain_lines(&self) -> Vec<String> {
        let mut sink = self.lock_sink();
        match &mut *sink {
            Sink::Buffer(lines) => std::mem::take(lines),
            _ => Vec::new(),
        }
    }
}

thread_local! {
    /// The per-thread stack of open span paths (hierarchy provider).
    static SPAN_STACK: RefCell<Vec<String>> = const { RefCell::new(Vec::new()) };
}

/// RAII guard returned by [`span`]: records the elapsed time into the
/// registry when dropped. Disabled guards carry no clock reading and
/// record nothing.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    registry: &'a Registry,
    path: String,
    start: Option<Instant>,
}

impl SpanGuard<'_> {
    /// The hierarchical path this span records under (empty when the
    /// registry is disabled).
    pub fn path(&self) -> &str {
        &self.path
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(start) = self.start else { return };
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Guards drop LIFO per thread; pop defensively by value so a
            // leaked guard cannot corrupt sibling paths.
            if stack.last().map(|p| p == &self.path).unwrap_or(false) {
                stack.pop();
            } else if let Some(pos) = stack.iter().rposition(|p| p == &self.path) {
                stack.remove(pos);
            }
        });
        self.registry.record_span(&self.path, ns);
    }
}

// ---------------------------------------------------------------------
// Process-wide registry and free functions
// ---------------------------------------------------------------------

/// The process-wide registry, configured once from `UNTANGLE_OBS` /
/// `UNTANGLE_OBS_FILE` on first use.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::from_env)
}

/// Whether the process-wide registry records anything. Hot paths gate
/// expensive argument construction on this.
pub fn enabled() -> bool {
    global().enabled()
}

/// The process-wide mode.
pub fn mode() -> ObsMode {
    global().mode()
}

/// Adds `n` to a process-wide counter ([`Registry::counter_add`]).
pub fn counter_add(name: &str, n: u64) {
    global().counter_add(name, n);
}

/// Sets a process-wide gauge ([`Registry::gauge_set`]).
pub fn gauge_set(name: &str, value: f64) {
    global().gauge_set(name, value);
}

/// Opens a process-wide timed span ([`Registry::span`]).
pub fn span(name: &str) -> SpanGuard<'static> {
    global().span(name)
}

/// Emits a process-wide structured event ([`Registry::event`]).
pub fn event(name: &str, fields: &[(&str, Value)]) {
    global().event(name, fields);
}

/// Emits a human-facing diagnostic ([`Registry::diag`]). Prefer the
/// [`diag!`] macro for format strings.
pub fn diag_str(message: &str) {
    global().diag(message);
}

/// Snapshot of the process-wide registry ([`Registry::snapshot`]).
pub fn snapshot() -> Snapshot {
    global().snapshot()
}

/// Resets the process-wide registry ([`Registry::reset`]).
pub fn reset() {
    global().reset();
}

/// Emits the process-wide end-of-run roll-up ([`Registry::emit_summary`]).
pub fn emit_summary() {
    global().emit_summary();
}

/// `eprintln!`-shaped diagnostic routed through the observability sink:
/// plain stderr text normally, a structured `diag` event under
/// `UNTANGLE_OBS=json`.
#[macro_export]
macro_rules! diag {
    ($($arg:tt)*) => {
        $crate::diag_str(&format!($($arg)*))
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mode_parses_and_defaults_off() {
        assert_eq!(ObsMode::parse("summary"), ObsMode::Summary);
        assert_eq!(ObsMode::parse(" JSON "), ObsMode::Json);
        assert_eq!(ObsMode::parse("off"), ObsMode::Off);
        assert_eq!(ObsMode::parse("verbose"), ObsMode::Off);
        assert!(!ObsMode::Off.is_enabled());
        assert!(ObsMode::Json.is_enabled());
    }

    #[test]
    fn disabled_registry_records_nothing() {
        let reg = Registry::disabled();
        reg.counter_add("x", 3);
        reg.gauge_set("g", 1.5);
        {
            let guard = reg.span("s");
            assert!(guard.path().is_empty());
        }
        reg.event("e", &[("k", Value::U64(1))]);
        let snap = reg.snapshot();
        assert!(snap.is_empty());
        assert!(reg.drain_lines().is_empty());
        // The zero-overhead contract: a disabled span never reads the
        // clock (its start is absent), so dropping it is branch-only.
        let guard = reg.span("t");
        assert!(guard.start.is_none());
    }

    #[test]
    fn counters_accumulate_and_saturate() {
        let reg = Registry::with_mode(ObsMode::Summary);
        reg.counter_add("a", 2);
        reg.counter_add("a", 3);
        reg.counter_add("b", 1);
        reg.counter_add("sat", u64::MAX);
        reg.counter_add("sat", 5);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("a"), 5);
        assert_eq!(snap.counter("b"), 1);
        assert_eq!(snap.counter("sat"), u64::MAX);
        assert_eq!(snap.counter("missing"), 0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let reg = Registry::with_mode(ObsMode::Summary);
        reg.gauge_set("g", 1.0);
        reg.gauge_set("g", 2.5);
        assert_eq!(reg.snapshot().gauges, vec![("g".to_string(), 2.5)]);
    }

    #[test]
    fn spans_nest_into_paths_and_aggregate() {
        let reg = Registry::with_mode(ObsMode::Summary);
        {
            let outer = reg.span("outer");
            assert_eq!(outer.path(), "outer");
            {
                let inner = reg.span("inner");
                assert_eq!(inner.path(), "outer/inner");
            }
            {
                let _again = reg.span("inner");
            }
        }
        let snap = reg.snapshot();
        let names: Vec<&str> = snap.spans.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["outer", "outer/inner"]);
        let inner = &snap.spans[1].1;
        assert_eq!(inner.count, 2);
        assert!(inner.total_ns >= inner.max_ns);
        assert_eq!(snap.spans[0].1.count, 1);
    }

    #[test]
    fn span_stack_unwinds_after_drop() {
        let reg = Registry::with_mode(ObsMode::Summary);
        {
            let _a = reg.span("a");
        }
        // After `a` closed, a new root span must not nest under it.
        let b = reg.span("b");
        assert_eq!(b.path(), "b");
    }

    #[test]
    fn json_mode_emits_parseable_lines() {
        let reg = Registry::with_mode(ObsMode::Json);
        reg.event(
            "solve",
            &[
                ("outer", Value::U64(7)),
                ("rate", Value::F64(0.5)),
                ("warm", Value::Bool(true)),
                ("label", Value::Str("a \"b\"\nc".to_string())),
                ("gaps", Value::F64s(vec![1.0, 0.25, f64::NAN])),
                ("delta", Value::I64(-3)),
            ],
        );
        reg.diag("worker fault: mix 3");
        {
            let _s = reg.span("mix/03");
        }
        let lines = reg.drain_lines();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"event\",\"name\":\"solve\",\"outer\":7,\"rate\":0.5,\
             \"warm\":true,\"label\":\"a \\\"b\\\"\\nc\",\"gaps\":[1,0.25,null],\"delta\":-3}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"diag\",\"msg\":\"worker fault: mix 3\"}"
        );
        assert!(lines[2].starts_with("{\"type\":\"span\",\"name\":\"mix/03\",\"ns\":"));
        assert!(lines[2].ends_with('}'));
    }

    #[test]
    fn summary_mode_suppresses_event_lines() {
        let reg = Registry::with_mode(ObsMode::Summary);
        reg.event("e", &[("k", Value::U64(1))]);
        assert!(reg.drain_lines().is_empty());
    }

    #[test]
    fn emit_summary_json_rolls_up_aggregates() {
        let reg = Registry::with_mode(ObsMode::Json);
        reg.counter_add("c", 2);
        reg.gauge_set("g", 0.5);
        {
            let _s = reg.span("s");
        }
        reg.drain_lines(); // discard the per-span line
        reg.emit_summary();
        let lines = reg.drain_lines();
        assert_eq!(lines.len(), 3);
        assert_eq!(
            lines[0],
            "{\"type\":\"counter\",\"name\":\"c\",\"value\":2}"
        );
        assert_eq!(
            lines[1],
            "{\"type\":\"gauge\",\"name\":\"g\",\"value\":0.5}"
        );
        assert!(lines[2].starts_with("{\"type\":\"span_total\",\"name\":\"s\",\"count\":1,"));
    }

    #[test]
    fn summary_table_lists_everything() {
        let reg = Registry::with_mode(ObsMode::Summary);
        reg.counter_add("dinkelbach.solves", 4);
        reg.gauge_set("cache.hit_rate", 0.75);
        {
            let _s = reg.span("precompute");
        }
        let table = reg.render_summary();
        assert!(table.contains("dinkelbach.solves"));
        assert!(table.contains("cache.hit_rate"));
        assert!(table.contains("precompute"));
        reg.emit_summary();
        let lines = reg.drain_lines();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("== untangle-obs summary =="));
    }

    #[test]
    fn reset_clears_state() {
        let reg = Registry::with_mode(ObsMode::Summary);
        reg.counter_add("c", 1);
        reg.gauge_set("g", 1.0);
        {
            let _s = reg.span("s");
        }
        reg.reset();
        assert!(reg.snapshot().is_empty());
    }

    #[test]
    fn concurrent_counter_adds_are_exact() {
        let reg = Registry::with_mode(ObsMode::Summary);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..1000 {
                        reg.counter_add("hits", 1);
                    }
                });
            }
        });
        assert_eq!(reg.snapshot().counter("hits"), 4000);
    }

    #[test]
    fn global_free_functions_are_wired() {
        // The global mode depends on the test environment (normally
        // off); only exercise that the entry points are safe to call and
        // consistent with each other.
        assert_eq!(enabled(), mode().is_enabled());
        counter_add("test.counter", 1);
        gauge_set("test.gauge", 1.0);
        {
            let _s = span("test.span");
        }
        event("test.event", &[("k", Value::U64(1))]);
        let snap = snapshot();
        assert_eq!(snap.mode, mode());
        if !enabled() {
            assert!(snap.is_empty());
        }
    }
}
