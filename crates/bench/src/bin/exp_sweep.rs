//! The cooldown knob (§5.3.2): "the longer the cooldown time is, the
//! lower the leakage rate is, and the slower the program execution
//! is." Sweeps Untangle's assessment interval `N` (and with it the
//! structural cooldown `T_c = N/w` and the matching delay width) over
//! one workload mix and reports total leakage against performance.
//!
//! Usage: `cargo run --release -p untangle-bench --bin exp_sweep
//! [--scale 0.005] [--out results]`

use untangle_bench::experiments::cooldown_sweep;
use untangle_bench::parallel;
use untangle_bench::table::{f2, TextTable};
use untangle_bench::Flags;
use untangle_core::UntangleError;
use untangle_obs as obs;
use untangle_workloads::mix::mix_by_id;

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_sweep: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let (scale, out_dir): (f64, String) = Flags::read(std::env::args().skip(1), |f| {
        Ok((
            f.value("--scale", 0.005)?,
            f.value("--out", "results".to_string())?,
        ))
    })?;
    std::fs::create_dir_all(&out_dir)?;

    obs::diag!(
        "# Cooldown sweep at scale {scale} (Mix 1, Untangle, {} thread(s))",
        parallel::thread_count()
    );
    let mix = mix_by_id(1)
        .ok_or_else(|| UntangleError::InvalidConfig("mix 1 is not defined".to_string()))?;
    // Larger factor = shorter interval = more responsive but leakier.
    let rows = cooldown_sweep(&mix, scale, &[4, 2, 1], 7)?;
    let mut table = TextTable::new(vec![
        "interval (instrs)",
        "T_c (cycles)",
        "speedup over STATIC",
        "avg bits/assessment",
        "avg total bits",
        "assessments",
    ]);
    for row in &rows {
        table.row(vec![
            row.interval.to_string(),
            format!("{}", row.interval / 8),
            f2(row.speedup),
            format!("{:.3}", row.avg_bits_per_assessment),
            f2(row.avg_total_bits),
            format!("{:.0}", row.avg_assessments),
        ]);
    }
    println!("{}", table.render());
    println!(
        "Shorter intervals react faster but assess more often: more\n\
         transmissions at a higher certified rate. The paper's chosen\n\
         point (8 M instructions / 1 ms cooldown) matches the Time\n\
         scheme's responsiveness at a fraction of its leakage."
    );
    let path = format!("{out_dir}/cooldown_sweep.csv");
    untangle_bench::write_artifact(&path, table.render_csv().as_bytes())?;
    obs::diag!("wrote {path}");
    Ok(())
}
