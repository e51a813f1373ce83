//! End-to-end checks for the `untangle-flow` analysis: the workspace
//! itself must be clean modulo the checked-in baseline, and seeded
//! violations — a secret reaching a decision commit or a WAL append
//! without `declassify()`, and HashMap iteration feeding the serve
//! output merge — must be caught with their full source→…→sink path
//! chains.

use std::fs;
use std::path::{Path, PathBuf};

use untangle_analysis::flow::analyze_workspace;
use untangle_analysis::parse::parse_workspace;
use untangle_analysis::report::{apply_baseline, Baseline, Finding};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Mirrors the real `taint::sites` registry shape so fixtures exercise
/// the same declassify-site validation as the workspace.
const REGISTRY: &str = "\
/// Registered disclosure sites.
pub mod sites {
    /// Demo metric site.
    pub const CONVENTIONAL_METRIC: &str = \"metric::all_accesses_hit_curve\";
}
";

fn analyze_fixture(name: &str, files: &[(&str, &str)]) -> Vec<Finding> {
    let fixture = workspace_root()
        .join("target")
        .join(format!("flow-fixture-{name}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&fixture);
    for (rel, src) in files {
        let path = fixture.join(rel);
        fs::create_dir_all(path.parent().expect("fixture path has a parent"))
            .expect("create fixture tree");
        fs::write(&path, src).expect("write fixture source");
    }
    let ws = parse_workspace(&fixture).expect("fixture parse succeeds");
    let findings = analyze_workspace(&ws);
    fs::remove_dir_all(&fixture).expect("clean up fixture");
    findings
}

#[test]
fn repository_is_flow_clean_modulo_baseline() {
    let root = workspace_root();
    let ws = parse_workspace(&root).expect("workspace parse succeeds");
    let findings = analyze_workspace(&ws);
    let baseline = Baseline::load(&root.join("flow-baseline.txt")).expect("baseline file loads");
    let (fresh, _accepted, stale) = apply_baseline(findings, &baseline);
    assert!(
        fresh.is_empty(),
        "repo must be flow-clean modulo the baseline, found:\n{}",
        fresh
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("")
    );
    assert!(
        stale.is_empty(),
        "flow-baseline.txt has stale entries (remove them):\n{}",
        stale.join("\n")
    );
}

#[test]
fn seeded_secret_to_decision_flow_is_caught_with_full_chain() {
    // A runner-shaped module: the secret curve skips `declassify()` and
    // flows through a helper into the decision commit.
    let runner = format!(
        "{REGISTRY}\
/// Decision sink.
pub struct DecisionCore;
impl DecisionCore {{
    /// Emits a resizing decision.
    pub fn commit(&mut self, action: u64) {{ let _ = action; }}
}}
fn emit_decision(core: &mut DecisionCore, action: u64) {{
    core.commit(action);
}}
/// One scheduler step: derives the action from the secret-labeled
/// metric WITHOUT declassifying it first.
pub fn step(core: &mut DecisionCore) {{
    let curve = Labeled::secret(42u64);
    emit_decision(core, curve);
}}
"
    );
    let findings = analyze_fixture("secret", &[("crates/sim/src/runner.rs", &runner)]);
    let secret: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "secret-flow")
        .collect();
    assert_eq!(secret.len(), 1, "{findings:?}");
    let f = secret[0];
    assert_eq!(f.file, "crates/sim/src/runner.rs");
    let chain: Vec<&str> = f.chain.iter().map(|s| s.what.as_str()).collect();
    assert_eq!(
        chain,
        [
            "source: Labeled::secret",
            "call: crates/sim/src/runner.rs::emit_decision",
            "sink: decision commit",
        ],
        "full source→call→sink path must be reported"
    );
    // Every hop carries a position.
    assert!(f.chain.iter().all(|s| s.line > 0 && s.col > 0), "{f:?}");

    // Control: the same flow THROUGH declassify at a registered site is
    // legal.
    let legal = runner.replace(
        "emit_decision(core, curve);",
        "emit_decision(core, curve.declassify(sites::CONVENTIONAL_METRIC));",
    );
    let findings = analyze_fixture("secret-legal", &[("crates/sim/src/runner.rs", &legal)]);
    assert!(findings.is_empty(), "{findings:?}");
}

#[test]
fn seeded_secret_to_wal_append_is_caught_with_full_chain() {
    // A journal-shaped module: a secret-labeled value is journaled
    // through a helper, once per record and once as a batch.
    for (call, receiver) in [
        ("wal.append(record);", "wal"),
        ("journal.append_batch(&[record]);", "journal"),
    ] {
        let journal = format!(
            "\
/// Durable journal sink.
pub struct Wal;
impl Wal {{
    /// Appends one record.
    pub fn append(&mut self, record: u64) {{ let _ = record; }}
    /// Appends a batch of records.
    pub fn append_batch(&mut self, records: &[u64]) {{ let _ = records; }}
}}
fn journal_event({receiver}: &mut Wal, record: u64) {{
    {call}
}}
/// Journals a secret-labeled value WITHOUT declassifying it first.
pub fn record_event({receiver}: &mut Wal) {{
    let secret = Labeled::secret(7u64);
    journal_event({receiver}, secret);
}}
"
        );
        let findings = analyze_fixture("wal", &[("crates/serve/src/durable.rs", &journal)]);
        let secret: Vec<&Finding> = findings
            .iter()
            .filter(|f| f.rule == "secret-flow")
            .collect();
        assert_eq!(secret.len(), 1, "{call}: {findings:?}");
        let chain: Vec<&str> = secret[0].chain.iter().map(|s| s.what.as_str()).collect();
        assert_eq!(
            chain,
            [
                "source: Labeled::secret",
                "call: crates/serve/src/durable.rs::journal_event",
                "sink: durable WAL append",
            ],
            "{call}: full source→call→sink path must be reported"
        );
    }
}

#[test]
fn seeded_hashmap_iteration_into_serve_merge_is_caught_with_full_chain() {
    // A serve-shaped module: per-tenant lines are gathered by iterating
    // a HashMap and merged into the ordered output without sorting.
    let serve = "\
/// Ordered output sink.
pub struct Output;
impl Output {
    /// Merges tenant lines into the serve response.
    pub fn ingest(&mut self, lines: Vec<String>) { let _ = lines; }
}
/// Gathers per-tenant summaries in HashMap iteration order.
pub fn merge_tenants(out: &mut Output, tenants: &HashMap<u64, String>) {
    let mut lines = Vec::new();
    for (id, summary) in tenants.iter() {
        lines.push(summary.clone());
        let _ = id;
    }
    out.ingest(lines);
}
";
    let findings = analyze_fixture("nondet", &[("crates/serve/src/engine.rs", serve)]);
    let nondet: Vec<&Finding> = findings
        .iter()
        .filter(|f| f.rule == "nondet-iter")
        .collect();
    assert_eq!(nondet.len(), 1, "{findings:?}");
    let f = nondet[0];
    assert_eq!(f.file, "crates/serve/src/engine.rs");
    let chain: Vec<&str> = f.chain.iter().map(|s| s.what.as_str()).collect();
    assert_eq!(
        chain,
        [
            "source: unordered iteration over `tenants`",
            "sink: serve output merge",
        ],
        "full source→sink path must be reported"
    );

    // Control: sorting before the merge restores determinism.
    let sorted = serve.replace(
        "out.ingest(lines);",
        "lines.sort();\n    out.ingest(lines);",
    );
    let findings = analyze_fixture("nondet-sorted", &[("crates/serve/src/engine.rs", &sorted)]);
    assert!(findings.is_empty(), "{findings:?}");
}
