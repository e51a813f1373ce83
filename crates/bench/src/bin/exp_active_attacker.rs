//! Regenerates the **§9 active-attacker study**: Untangle's leakage per
//! assessment *without* the §5.3.4 Maintain optimization, while an
//! active attacker squeezes the victim partition after every Maintain —
//! versus the optimized benign case. The paper measures 3.8 bits per
//! assessment for the worst case versus 0.7 optimized, and stresses
//! that even then the leakage threshold is enforced (security holds,
//! only performance suffers).
//!
//! Usage: `cargo run --release -p untangle-bench --bin
//! exp_active_attacker [--scale 0.01] [--mixes 4] [--out results]`

use untangle_bench::experiments::active_attacker_study;
use untangle_bench::parse_flag;
use untangle_bench::table::{f2, TextTable};
use untangle_core::UntangleError;
use untangle_obs as obs;
use untangle_workloads::mix::mix_by_id;

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_active_attacker: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = parse_flag(&args, "--scale", 0.01)?;
    let n_mixes: usize = parse_flag(&args, "--mixes", 4)?;
    let out_dir: String = parse_flag(&args, "--out", "results".to_string())?;
    std::fs::create_dir_all(&out_dir)?;

    obs::diag!("# §9 active-attacker study at scale {scale} (first {n_mixes} mixes)");
    let mut table = TextTable::new(vec![
        "Mix",
        "optimized, benign (bit/assess)",
        "worst case, squeezed (bit/assess)",
    ]);
    let mut benign_sum = 0.0;
    let mut worst_sum = 0.0;
    for id in 1..=n_mixes.clamp(1, 16) {
        let mix = mix_by_id(id)
            .ok_or_else(|| UntangleError::InvalidConfig(format!("mix {id} is not defined")))?;
        let row = active_attacker_study(&mix, scale)?;
        table.row(vec![
            format!("Mix {}", row.mix_id),
            f2(row.optimized_benign),
            f2(row.worst_case),
        ]);
        benign_sum += row.optimized_benign;
        worst_sum += row.worst_case;
    }
    println!("{}", table.render());
    let n = n_mixes.clamp(1, 16) as f64;
    println!(
        "Averages — optimized benign: {:.2} bit/assess; worst case: {:.2} bit/assess",
        benign_sum / n,
        worst_sum / n
    );
    println!("Paper: 0.7 bits optimized vs 3.8 bits worst case.");

    let path = format!("{out_dir}/active_attacker.csv");
    untangle_bench::write_artifact(&path, table.render_csv().as_bytes())?;
    obs::diag!("wrote {path}");
    Ok(())
}
