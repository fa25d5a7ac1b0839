//! `pogo-experiments` — regenerates the paper's evaluation (§5), one
//! report per subcommand. EXPERIMENTS.md holds each report's output, and
//! the tests (the slow reports: `scripts/ci.sh`) hold the binary to it.

use std::process::ExitCode;

use pogo_experiments::{ablation, fig3, fig4, table2, table3, table4};

const USAGE: &str = "\
pogo-experiments — regenerate the paper's tables and figures

usage:
  pogo-experiments table2|table3|fig3|fig4|ablation-batching
  pogo-experiments table4 [DAYS [SEED]]           (default 24 42)
  pogo-experiments ablation-freeze [DAYS [SEED]]  (default 8 42)
  pogo-experiments all [DAYS [SEED]]              every report above;
                                                  ablation-freeze runs at most 8 days
";

/// What `all` prints before `ablation-freeze`, in order.
const ALL: [&str; 6] = [
    "table2",
    "fig3",
    "fig4",
    "table3",
    "ablation-batching",
    "table4",
];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((name, days, seed)) = parse(&args) else {
        eprint!("{USAGE}");
        return ExitCode::from(2);
    };
    if name == "all" {
        for report in ALL {
            println!("{}", render(report, days, seed));
        }
        println!("{}", render("ablation-freeze", days.min(8), seed));
    } else {
        println!("{}", render(name, days, seed));
    }
    ExitCode::SUCCESS
}

/// `(report, days, seed)`, or `None` for an unknown report, a surplus
/// argument, or a `DAYS`/`SEED` that is not a number (`DAYS` ≥ 1). A
/// report that takes no arguments gets days and seed 0.
fn parse(args: &[String]) -> Option<(&str, u64, u64)> {
    let (name, numbers) = args.split_first()?;
    let default_days = match name.as_str() {
        "table2" | "table3" | "fig3" | "fig4" | "ablation-batching" => {
            return numbers.is_empty().then_some((name, 0, 0));
        }
        "table4" | "all" => 24,
        "ablation-freeze" => 8,
        _ => return None,
    };
    let days = match numbers.first() {
        Some(days) => days.parse().ok().filter(|&days| days > 0)?,
        None => default_days,
    };
    let seed = match numbers.get(1) {
        Some(seed) => seed.parse().ok()?,
        None => 42,
    };
    (numbers.len() <= 2).then_some((name, days, seed))
}

fn render(report: &str, days: u64, seed: u64) -> String {
    match report {
        "table2" => table2::render(&table2::run()),
        "table3" => table3::render(&table3::run()),
        "fig3" => fig3::render(&fig3::run(pogo_platform::CarrierProfile::kpn())),
        "fig4" => fig4::render(&fig4::run()),
        "ablation-batching" => ablation::render_batching(&ablation::run_batching()),
        "table4" => table4::render(&table4::run(days, seed)),
        "ablation-freeze" => ablation::render_freeze(&ablation::run_freeze(days, seed)),
        _ => unreachable!("parse admits only known reports"),
    }
}
