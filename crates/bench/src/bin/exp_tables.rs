//! Regenerates the paper's descriptive tables from the code's own
//! constants, so every table in the paper has a harness:
//!
//! * **Table 1** — prior dynamic partitioning schemes;
//! * **Table 2** — the components of a dynamic partitioning scheme;
//! * **Table 3** — simulated architecture parameters;
//! * **Table 4** — the evaluated partitioning schemes;
//! * **Table 5** — the cryptographic benchmarks.
//!
//! Usage: `cargo run --release -p untangle-bench --bin exp_tables`

use untangle_bench::table::TextTable;
use untangle_bench::Flags;
use untangle_core::prior::PRIOR_SCHEMES;
use untangle_core::scheme::SchemeKind;
use untangle_sim::config::{MachineConfig, PartitionSize};
use untangle_workloads::crypto::crypto_benchmarks;

fn main() {
    if let Err(e) = Flags::read(std::env::args().skip(1), |_| Ok(())) {
        eprintln!("exp_tables: {e}");
        std::process::exit(1);
    }
    println!("== Table 1: prior dynamic partitioning schemes ==");
    let mut t1 = TextTable::new(vec![
        "Name",
        "Resource",
        "Utilization Metric",
        "Action Heuristic",
        "Resizing Schedule",
    ]);
    for s in &PRIOR_SCHEMES {
        t1.row(vec![
            s.name,
            s.resource,
            s.utilization_metric,
            s.action_heuristic,
            s.resizing_schedule,
        ]);
    }
    println!("{}", t1.render());

    println!("== Table 2: components of a dynamic partitioning scheme ==");
    let mut t2 = TextTable::new(vec!["Component", "Description", "In this codebase"]);
    t2.row(vec![
        "Utilization Metric",
        "Measure of the demand for the resource",
        "untangle_core::metric (hit curve / footprint)",
    ]);
    t2.row(vec![
        "Action Heuristic & Resizing Actions",
        "How to pick what resizing action to perform",
        "untangle_core::heuristic + action::Action",
    ]);
    t2.row(vec![
        "Resizing Schedule",
        "When to assess and perform the action",
        "untangle_core::schedule (time / progress)",
    ]);
    println!("{}", t2.render());

    println!("== Table 3: parameters of the simulated architecture ==");
    let m = MachineConfig::default();
    let mut t3 = TextTable::new(vec!["Parameter", "Value"]);
    t3.row(vec![
        "Architecture".to_string(),
        format!(
            "{} out-of-order cores at {:.1} GHz",
            m.cores,
            m.timing.frequency_hz as f64 / 1e9
        ),
    ]);
    t3.row(vec![
        "Core".to_string(),
        format!("{}-commit (trace-driven model)", m.timing.commit_width),
    ]);
    t3.row(vec![
        "Private L1".to_string(),
        format!(
            "{} kB, 64 B line, {}-way, {}-cycle RT",
            m.l1_bytes >> 10,
            m.l1_ways,
            m.timing.l1_latency
        ),
    ]);
    t3.row(vec![
        "Shared LLC".to_string(),
        format!(
            "{} MB, 64 B line, {}-way, {}-cycle RT",
            m.llc_bytes >> 20,
            m.llc_ways,
            m.timing.llc_latency
        ),
    ]);
    t3.row(vec![
        "DRAM".to_string(),
        format!(
            "{} cycles RT after LLC ({} ns)",
            m.timing.dram_latency,
            m.timing.dram_latency * 1_000_000_000 / m.timing.frequency_hz
        ),
    ]);
    t3.row(vec![
        "Supported partition sizes".to_string(),
        PartitionSize::ALL
            .iter()
            .map(|s| s.to_string())
            .collect::<Vec<_>>()
            .join(", "),
    ]);
    t3.row(vec![
        "Monitor window M_w".to_string(),
        format!(
            "{} sampled accesses (1/{} set sampling)",
            m.umon_window, m.umon_sample_ratio
        ),
    ]);
    println!("{}", t3.render());

    println!("== Table 4: partitioning schemes evaluated ==");
    let mut t4 = TextTable::new(vec!["Scheme", "Description"]);
    for kind in SchemeKind::ALL {
        let desc = match kind {
            SchemeKind::Static => "Static partitioning. Each domain uses a 2 MB partition",
            SchemeKind::Time => "Dynamic partitioning. Assessing resizing every 1 ms (scaled)",
            SchemeKind::Untangle => {
                "Dynamic partitioning. Assessing every 8 M retired instructions (scaled) with cooldown and random delay"
            }
            SchemeKind::Shared => "No partitions. All domains share the 16 MB LLC",
            SchemeKind::SecDcp => {
                "Tiered dynamic partitioning. Resizes only across sensitivity tiers (SecDCP)"
            }
        };
        t4.row(vec![kind.name(), desc]);
    }
    println!("{}", t4.render());

    println!("== Table 5: cryptographic benchmarks ==");
    let mut t5 = TextTable::new(vec!["Name", "Table/state footprint", "Memory fraction"]);
    for c in crypto_benchmarks() {
        t5.row(vec![
            c.name.to_string(),
            format!("{} kB", c.table_bytes >> 10),
            format!("{:.0} %", c.mem_fraction() * 100.0),
        ]);
    }
    println!("{}", t5.render());
}
