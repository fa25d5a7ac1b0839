//! Regenerates every table and figure of the paper in one run
//! (`cargo bench -p pogo-bench --bench experiments`).
//!
//! A custom-harness bench target: these are simulation experiments, not
//! timing benchmarks (host time is measured by `benchmark/` alone). Pass
//! `--quick` (or set `POGO_QUICK=1`) to shorten the Table 4 deployment
//! from 24 to 6 simulated days.

use pogo_bench::{ablation, fig3, fig4, table2, table3, table4};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick")
        || std::env::var("POGO_QUICK").is_ok_and(|v| v == "1");
    let days = if quick { 6 } else { 24 };

    println!("Pogo-rs experiment suite (Table 4 window: {days} days)");

    let t2 = table2::run();
    println!("{}", table2::render(&t2));

    let f3 = fig3::run(pogo_platform::CarrierProfile::kpn());
    println!("{}", fig3::render(&f3));

    let f4 = fig4::run();
    println!("{}", fig4::render(&f4));

    let t3 = table3::run();
    println!("{}", table3::render(&t3));

    let ab = ablation::run_batching();
    println!("{}", ablation::render_batching(&ab));

    let t4 = table4::run(days, 42);
    println!("{}", table4::render(&t4));

    let fr = ablation::run_freeze(days.min(8), 42);
    println!("{}", ablation::render_freeze(&fr));

    println!("\nAll experiments completed.");
}
