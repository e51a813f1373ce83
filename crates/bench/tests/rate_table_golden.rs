//! Pins the production `R'_max` rate tables bit for bit.
//!
//! Every Untangle run charges leakage from these tables, so a change to
//! the solver, its kernels or the table's warm-start schedule that moves
//! a single bit of a certified bound moves every committed Untangle
//! result. The expected values are the `upper_bound` bit patterns the
//! solver produced when the tables were pinned; they are compared with
//! `to_bits()` because a tolerance cannot tell the production warm-start
//! schedule from a neighbouring one (the plain previous-entry chain
//! lands within 2.7e-10 of these bounds).

use untangle_core::scheme::SchemeParams;
use untangle_core::{RunnerConfig, SchemeKind};
use untangle_info::{RateTable, RmaxCache, SolveStatus, SolveStatus::Converged};
use untangle_serve::ServeConfig;

/// `(upper_bound bits, status)` per entry, index = consecutive Maintains.
type Golden = [(u64, SolveStatus)];

/// The `eval_scale(Untangle, 0.01)` rate model: the table behind
/// `results/mix*.csv` and the `mix_untangle` benchmark workload.
const EVAL_SCALE_0_01: [(u64, SolveStatus); 17] = [
    (0x3facd5540f2ad2c0, Converged),
    (0x3fa2785d21f206d4, Converged),
    (0x3f9cb439c35a8ad6, Converged),
    (0x3f97f407df70b1b5, Converged),
    (0x3f94c26919541e58, Converged),
    (0x3f926c3e5fca9308, Converged),
    (0x3f909e7676e77531, Converged),
    (0x3f8e58e54dbee32d, Converged),
    (0x3f8bf77c24de6f90, Converged),
    (0x3f89f700f64c585d, Converged),
    (0x3f8840d0e1aeed0f, Converged),
    (0x3f86c50ecfd9246b, Converged),
    (0x3f85783a7e7a3a2f, Converged),
    (0x3f8451c1506a5d10, Converged),
    (0x3f834b18d5144ff2, Converged),
    (0x3f825f2a12bf86d3, Converged),
    (0x3f8189edd64faacc, Converged),
];

/// `ServeConfig::test_scale()` at Maintain credit 8; its first five
/// entries are the credit-4 table.
const SERVE_TEST_SCALE_CREDIT_8: [(u64, SolveStatus); 9] = [
    (0x3fb26d99a82aae5d, Converged),
    (0x3fa7e3c965cc2c35, Converged),
    (0x3fa25d4d40c45663, Converged),
    (0x3f9e3c1e245f5201, Converged),
    (0x3f99dad265873ffb, Converged),
    (0x3f96a93e9cb67964, Converged),
    (0x3f943630f2d6de51, Converged),
    (0x3f9243c7b7a97738, Converged),
    (0x3f90ace81c848041, Converged),
];

fn assert_table(table: &RateTable, golden: &Golden, what: &str) {
    let actual: Vec<(u64, SolveStatus)> = table
        .rates()
        .iter()
        .zip(table.statuses())
        .map(|(rate, &status)| (rate.to_bits(), status))
        .collect();
    assert_eq!(actual, golden, "{what}");
}

#[test]
fn eval_scale_rate_model_is_pinned() {
    let config = RunnerConfig::eval_scale(SchemeKind::Untangle, 0.01).unwrap();
    let model = config
        .params
        .build_rate_model(config.machine.timing.commit_width)
        .unwrap();
    assert_table(&model.table, &EVAL_SCALE_0_01, "eval_scale(Untangle, 0.01)");
}

#[test]
fn serve_test_scale_tables_are_pinned() {
    // The serve engine's shape: the missing credits sorted ascending and
    // built in one call through a shared cache.
    let serve = ServeConfig::test_scale();
    let credits = [4, 8];
    let mut specs = Vec::new();
    let mut options = None;
    for credit in credits {
        let params = SchemeParams {
            max_maintain_credit: credit,
            ..serve.params.clone()
        };
        let (spec, opts) = params.rate_table_spec(serve.commit_width).unwrap();
        specs.push(spec);
        options.get_or_insert(opts);
    }
    let tables =
        RateTable::precompute_many_batched_cached(&specs, &options.unwrap(), &RmaxCache::new())
            .unwrap();
    assert_table(
        &tables[0].0,
        &SERVE_TEST_SCALE_CREDIT_8[..5],
        "test_scale credit 4",
    );
    assert_table(
        &tables[1].0,
        &SERVE_TEST_SCALE_CREDIT_8,
        "test_scale credit 8",
    );
    // The credit-8 table re-solves nothing the credit-4 table solved.
    assert_eq!(tables[0].1.solves, 5);
    assert_eq!(tables[1].1.cache_hits, 5);
    assert_eq!(tables[1].1.solves, 4);
}
