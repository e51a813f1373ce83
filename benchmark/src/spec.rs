//! The benchmark's declared workloads and metrics, read from
//! `BENCHMARK.json` at the repository root, and the pinned seed-0 output
//! digests of `benchmark/golden.json`.

use std::path::PathBuf;

use untangle_obs::json::Json;

/// One declared metric.
#[derive(Debug, Clone)]
pub struct MetricSpec {
    /// Metric name.
    pub name: String,
    /// Unit printed next to every value.
    pub unit: String,
    /// Regression bound as a share of the median (end-to-end only).
    pub bound: Option<f64>,
}

/// The parts of `BENCHMARK.json` the benchmark itself relies on.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Seconds one run measures (the default `--seconds`).
    pub run_seconds: f64,
    /// Workload names in declaration order.
    pub workloads: Vec<String>,
    /// End-to-end metrics (untraced run).
    pub end_to_end: Vec<MetricSpec>,
    /// Per-layer metrics (traced run).
    pub per_layer: Vec<MetricSpec>,
}

/// The benchmark package directory (`<repo>/benchmark`).
pub fn bench_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The repository root the benchmark was built from.
pub fn repo_root() -> PathBuf {
    let dir = bench_dir();
    dir.parent().map_or(dir.clone(), |p| p.to_path_buf())
}

fn read_json(path: &PathBuf) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{} is not valid JSON: {e}", path.display()))
}

fn metrics(json: &Json, key: &str) -> Result<Vec<MetricSpec>, String> {
    json.get(key)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json: missing '{key}'"))?
        .iter()
        .map(|m| {
            let field = |f: &str| {
                m.get(f)
                    .and_then(Json::as_str)
                    .map(str::to_string)
                    .ok_or_else(|| format!("BENCHMARK.json: a '{key}' entry lacks '{f}'"))
            };
            Ok(MetricSpec {
                name: field("name")?,
                unit: field("unit")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect()
}

impl Spec {
    /// Loads `BENCHMARK.json` from the repository root.
    pub fn load() -> Result<Spec, String> {
        let json = read_json(&repo_root().join("BENCHMARK.json"))?;
        Ok(Spec {
            run_seconds: json
                .get("run_seconds")
                .and_then(Json::as_f64)
                .ok_or("BENCHMARK.json: missing 'run_seconds'")?,
            workloads: json
                .get("workloads")
                .and_then(Json::as_arr)
                .ok_or("BENCHMARK.json: missing 'workloads'")?
                .iter()
                .filter_map(|w| w.get("name").and_then(Json::as_str).map(str::to_string))
                .collect(),
            end_to_end: metrics(&json, "end_to_end")?,
            per_layer: metrics(&json, "per_layer")?,
        })
    }

    /// The declared metric `name`, end-to-end or per-layer.
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The pinned seed-0 digest of `workload` at the given size, if any.
pub fn golden_digest(workload: &str, smoke: bool) -> Result<Option<u64>, String> {
    let json = read_json(&bench_dir().join("golden.json"))?;
    let size = if smoke { "smoke" } else { "full" };
    Ok(json
        .get(size)
        .and_then(|s| s.get(workload))
        .and_then(Json::as_str)
        .and_then(|hex| u64::from_str_radix(hex, 16).ok()))
}
