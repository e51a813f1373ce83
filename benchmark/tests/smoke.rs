//! Runs all five workloads at smoke size, untraced and traced, and checks
//! that every metric `BENCHMARK.json` declares is printed with its unit
//! (a traced run prints both lists),
//! that the traced and untraced output digests agree, and that nothing
//! failed. Run with `cargo test --release` for smoke-sized timings.

use std::collections::BTreeMap;
use std::process::Command;

use untangle_obs::json::Json;

/// `(workload, metric) -> (value, unit)` plus each workload's digest.
#[derive(Debug, Default)]
struct Printed {
    metrics: BTreeMap<(String, String), (String, String)>,
    digests: BTreeMap<String, String>,
}

fn run(args: &[&str]) -> Printed {
    let out = Command::new(env!("CARGO_BIN_EXE_untangle-perfbench"))
        .args(args)
        .output()
        .expect("start the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("UTF-8 output");
    assert!(
        out.status.success(),
        "{args:?} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut printed = Printed::default();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split(' ').collect();
        if let [workload, metric, value, unit] = fields[..] {
            if metric == "output_digest" {
                printed
                    .digests
                    .insert(workload.to_string(), value.to_string());
            } else {
                printed.metrics.insert(
                    (workload.to_string(), metric.to_string()),
                    (value.to_string(), unit.to_string()),
                );
            }
        }
    }
    printed
}

fn declared(spec: &Json, key: &str) -> Vec<(String, String)> {
    spec.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |f| m.get(f).and_then(Json::as_str).expect("field").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_runs_report_every_metric_and_traced_digests_agree() {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("read BENCHMARK.json");
    let spec = Json::parse(&text).expect("BENCHMARK.json parses");
    let workloads: Vec<String> = spec
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect();

    // Seed 0 is checked against golden.json; seed 3 exercises the
    // traced-versus-untraced agreement on inputs nothing pins.
    run(&["run", "--smoke", "--seed", "0"]);
    let untraced = run(&["run", "--smoke", "--seed", "3"]);
    let traced = run(&["run", "--smoke", "--seed", "3", "--traced"]);

    // A traced run prints the end-to-end metrics of its untraced pass too.
    let lists = [
        (&untraced, "end_to_end"),
        (&traced, "end_to_end"),
        (&traced, "per_layer"),
    ];
    for w in &workloads {
        for (printed, key) in lists {
            for (metric, unit) in declared(&spec, key) {
                let (value, got_unit) = printed
                    .metrics
                    .get(&(w.clone(), metric.clone()))
                    .unwrap_or_else(|| panic!("{w} did not print {metric}"));
                assert_eq!(got_unit, &unit, "{w} {metric} unit");
                let value: f64 = value.parse().expect("numeric value");
                assert!(value.is_finite(), "{w} {metric} = {value}");
                if key == "end_to_end" {
                    assert!(value > 0.0, "{w} {metric} must never read 0");
                }
            }
            let failed = &printed.metrics[&(w.clone(), "failed_frac".to_string())].0;
            assert_eq!(failed, "0", "{w} failed_frac");
        }
        assert_eq!(
            untraced.digests.get(w),
            traced.digests.get(w),
            "{w}: traced and untraced digests differ"
        );
    }
    // Every declared layer metric is measured by some workload (error
    // counts read 0 on a correct run).
    for (metric, _) in declared(&spec, "per_layer") {
        if metric == "serve.engine.error_lines" {
            continue;
        }
        assert!(
            workloads
                .iter()
                .any(|w| traced.metrics[&(w.clone(), metric.clone())].0 != "0"),
            "no workload measures {metric}"
        );
    }
}
