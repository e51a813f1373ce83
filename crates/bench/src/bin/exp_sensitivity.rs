//! Regenerates **Figure 11**: the LLC sensitivity study of all 36
//! benchmarks — IPC under every supported partition size, normalized to
//! the 8 MB IPC, plus the derived adequate LLC size and class.
//!
//! Usage: `cargo run --release -p untangle-bench --bin exp_sensitivity
//! [--scale 0.002] [--out results]`

use untangle_bench::experiments::sensitivity_study;
use untangle_bench::parallel;
use untangle_bench::parse_flag;
use untangle_bench::plot::sparkline;
use untangle_bench::table::{f3, TextTable};
use untangle_core::UntangleError;
use untangle_obs as obs;
use untangle_sim::config::PartitionSize;
use untangle_workloads::spec::spec_benchmarks;

fn main() {
    if let Err(e) = run() {
        eprintln!("exp_sensitivity: {e}");
        std::process::exit(1);
    }
}

fn run() -> Result<(), UntangleError> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scale: f64 = parse_flag(&args, "--scale", 0.002)?;
    let out_dir: String = parse_flag(&args, "--out", "results".to_string())?;

    obs::diag!(
        "# Figure 11 sensitivity study at scale {scale} (36 benchmarks x 9 sizes, {} thread(s))",
        parallel::thread_count()
    );
    let rows = sensitivity_study(spec_benchmarks(), scale)?;

    let mut header: Vec<String> = vec!["benchmark".into()];
    header.extend(PartitionSize::ALL.iter().map(|s| s.to_string()));
    header.push("curve".into());
    header.push("adequate".into());
    header.push("class".into());
    let mut table = TextTable::new(header);
    for r in &rows {
        let mut cells: Vec<String> = vec![r.name.to_string()];
        cells.extend(r.normalized_ipc.iter().map(|&v| f3(v)));
        cells.push(sparkline(&r.normalized_ipc));
        cells.push(r.adequate.to_string());
        cells.push(
            if r.llc_sensitive() {
                "LLC-sensitive"
            } else {
                "insensitive"
            }
            .to_string(),
        );
        table.row(cells);
    }
    println!("{}", table.render());

    let sensitive: Vec<&str> = rows
        .iter()
        .filter(|r| r.llc_sensitive())
        .map(|r| r.name)
        .collect();
    println!(
        "LLC-sensitive benchmarks ({} of {}): {}",
        sensitive.len(),
        rows.len(),
        sensitive.join(", ")
    );
    println!("Paper: 8 LLC-sensitive, 28 insensitive.");

    std::fs::create_dir_all(&out_dir)?;
    let path = format!("{out_dir}/fig11_sensitivity.csv");
    untangle_bench::write_artifact(&path, table.render_csv().as_bytes())?;
    obs::diag!("wrote {path}");
    Ok(())
}
