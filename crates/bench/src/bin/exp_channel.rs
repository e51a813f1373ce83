//! Regenerates the **§5.3 covert-channel artifacts**:
//!
//! * the §5.3.1 strategy trade-off example (800 vs ≈667 bit/s);
//! * `R_max` versus the cooldown time `T_c` (Mechanism 1);
//! * `R_max` versus the random-delay width (Mechanism 2);
//! * the §5.3.4 rate table over consecutive Maintains
//!   (`T'_c = (n+1)·T_c`);
//! * the Figure 3 leakage-decomposition worked example (1.5 bits).
//!
//! Usage: `cargo run --release -p untangle-bench --bin exp_channel
//! [--out results]`

use untangle_bench::experiments::{rmax_vs_cooldown, rmax_vs_delay, strategy_example};
use untangle_bench::parse_flag;
use untangle_bench::table::{f3, TextTable};
use untangle_core::UntangleError;
use untangle_info::decompose::TraceEnsemble;
use untangle_info::rate_table::{RateTable, RateTableConfig};
use untangle_info::{DelayDist, RmaxCache};
use untangle_obs as obs;

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_channel: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let out_dir: String = parse_flag(&args, "--out", "results".to_string())?;
    std::fs::create_dir_all(&out_dir)?;

    // §5.3.1 strategy example.
    let (s1, s2) = strategy_example();
    println!("== §5.3.1 strategy trade-off (1 unit = 1 ms) ==");
    println!("Strategy 1 (4 symbols, 1-4 ms): {s1:.0} bit/s  (paper: 800)");
    println!("Strategy 2 (8 symbols, 1-8 ms): {s2:.0} bit/s  (paper: ~667)");

    // Figure 3 worked example.
    let mut ensemble = TraceEnsemble::new();
    ensemble.add_trace(vec!["EXPAND", "MAINTAIN"], vec![100, 200], 0.25);
    ensemble.add_trace(vec!["EXPAND", "MAINTAIN"], vec![150, 300], 0.25);
    ensemble.add_trace(vec!["MAINTAIN", "MAINTAIN"], vec![120, 240], 0.5);
    let leak = ensemble.leakage()?;
    println!("\n== Figure 3 leakage decomposition ==");
    println!(
        "action leakage H(S) = {:.1} bit; scheduling leakage E[H(T_s|S=s)] = {:.1} bit; total {:.1} bits (paper: 1 + 0.5 = 1.5)",
        leak.action_bits,
        leak.scheduling_bits,
        leak.total_bits()
    );

    // R_max vs cooldown (Mechanism 1).
    println!("\n== R_max vs cooldown T_c (delay width 8 units) ==");
    let mut t1 = TextTable::new(vec!["T_c (units)", "R_max (bit/unit)"]);
    for p in rmax_vs_cooldown(&[8, 16, 32, 64, 128], 8) {
        t1.row(vec![p.cooldown.to_string(), f3(p.rmax)]);
    }
    println!("{}", t1.render());

    // R_max vs delay width (Mechanism 2).
    println!("== R_max vs random-delay width (T_c = 16 units) ==");
    let mut t2 = TextTable::new(vec!["delay width (units)", "R_max (bit/unit)"]);
    for p in rmax_vs_delay(16, &[1, 2, 4, 8, 16, 32]) {
        t2.row(vec![p.delay_width.to_string(), f3(p.rmax)]);
    }
    println!("{}", t2.render());

    // §5.3.4 rate table over consecutive Maintains. Entry 0 (T'_c = 16,
    // delay width 8) is the same channel the Mechanism-1/2 sweeps above
    // solved, so it comes straight from the cache.
    println!("== §5.3.4 rate table: R_max after n consecutive Maintains ==");
    let (table, _stats) = RateTable::precompute_cached(
        &RateTableConfig {
            cooldown: 16,
            n_symbols: 8,
            step: 8,
            delay: DelayDist::uniform(8)?,
            max_maintains: 8,
        },
        &Default::default(),
        RmaxCache::global(),
    )?;
    let mut t3 = TextTable::new(vec![
        "consecutive Maintains",
        "effective T'_c",
        "R_max (bit/unit)",
    ]);
    for (m, &r) in table.rates().iter().enumerate() {
        t3.row(vec![
            m.to_string(),
            format!("{}", (m as u64 + 1) * 16),
            f3(r),
        ]);
    }
    println!("{}", t3.render());

    let path = format!("{out_dir}/channel.csv");
    untangle_bench::write_artifact(
        &path,
        format!("{}{}{}", t1.render_csv(), t2.render_csv(), t3.render_csv()).as_bytes(),
    )?;
    obs::diag!("wrote {path}");

    let cache = RmaxCache::global().stats();
    obs::diag!(
        "R_max cache: {} hits / {} misses ({:.0} % hit rate)",
        cache.hits,
        cache.misses,
        cache.hit_rate() * 100.0
    );
    Ok(())
}
