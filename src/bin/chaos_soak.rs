//! Chaos soak CLI: run a seeded fault-injection soak of a real
//! workload and report.
//!
//! ```text
//! chaos_soak [--workload W] [--seed N] [--phones N] [--hours N]
//!            [--days N] [--trace PATH] [--check] [--list-faults]
//! ```
//!
//! Workloads: `counter` (default, the synthetic counting script),
//! `localization` (§4.1 scan/cluster/collect pipeline), `roguefinder`
//! (§5.1 geofenced scanning), `table4` (§5.3 eight-phone cohort replay
//! — the headline CI soak).
//!
//! `--check` is the CI gate: the soak runs **twice** with the same
//! config, the two obs traces must match byte for byte, at least 100
//! faults across at least 3 classes must inject (4 classes including
//! bearer-flap and clock-skew for table4), and no invariant may break.
//! Exit status 1 on any failure. A passing check prints the run's
//! `digest:` (FNV-1a over trace and store export), which `scripts/ci.sh`
//! compares for the 24-day table4 soak.

use pogo::chaos::{run_workload_soak, CounterWorkload, SoakConfig, SoakReport, WorkloadSpec};
use pogo::chaos_workloads::{LocalizationWorkload, RogueFinderWorkload, Table4ChaosWorkload};
use pogo::sim::SimDuration;

fn usage() -> ! {
    eprintln!(
        "usage: chaos_soak [--workload W] [--seed N] [--phones N] [--hours N] [--days N]\n\
         \x20                 [--trace PATH] [--check] [--list-faults]\n\
         \n\
         --workload W  counter | localization | roguefinder | table4 (default counter)\n\
         --seed N      fault-plan seed (decimal or 0x-hex; default {:#x})\n\
         --phones N    fleet size (default 8; table4 always runs the 8-phone cohort)\n\
         --hours N     simulated soak length (default 48; ignored by table4)\n\
         --days N      table4 window in days (default 24)\n\
         --trace PATH  write the obs trace as JSONL\n\
         --check       CI gate: run twice, require identical traces,\n\
                       >=100 faults over >=3 classes (table4: >=4 classes\n\
                       including bearer-flap and clock-skew), zero violations\n\
         --list-faults print the fault classes the plan generator draws from",
        SoakConfig::default().seed
    );
    std::process::exit(2);
}

fn list_faults() -> ! {
    println!(
        "fault classes (pogo-chaos FaultKind):\n\
         \x20 reboot          middleware restart; RAM state lost, frozen state survives\n\
         \x20 link-degrade    per-device packet loss + jitter window\n\
         \x20 server-restart  switchboard bounce; sessions drop, roster survives\n\
         \x20 server-outage   switchboard down for a window (refcounted overlap)\n\
         \x20 battery-death   phone dark for up to 90 min; expiry is the one allowed loss\n\
         \x20 roster-churn    device unfriended from the collector, rejoins later\n\
         \x20 bearer-flap     Wifi<->Cellular handover storm; in-flight envelopes drop\n\
         \x20 clock-skew      device RTC steps + drifts, NITZ-style fix at window end"
    );
    std::process::exit(0);
}

fn parse_u64(flag: &str, value: Option<String>) -> u64 {
    let Some(value) = value else {
        eprintln!("chaos_soak: {flag} needs a value");
        usage();
    };
    let parsed = match value.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => value.parse(),
    };
    parsed.unwrap_or_else(|_| {
        eprintln!("chaos_soak: bad {flag} value {value:?}");
        usage();
    })
}

fn main() {
    let mut cfg = SoakConfig::default();
    let mut workload_name = "counter".to_owned();
    let mut days = 24u64;
    let mut check = false;
    let mut trace_path: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--workload" => workload_name = args.next().unwrap_or_else(|| usage()),
            "--seed" => cfg.seed = parse_u64("--seed", args.next()),
            "--phones" => cfg.phones = parse_u64("--phones", args.next()) as usize,
            "--hours" => cfg.duration = SimDuration::from_hours(parse_u64("--hours", args.next())),
            "--days" => days = parse_u64("--days", args.next()).max(1),
            "--trace" => trace_path = args.next().or_else(|| usage()),
            "--check" => check = true,
            "--list-faults" => list_faults(),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("chaos_soak: unknown argument {other:?}");
                usage();
            }
        }
    }
    cfg.capture_trace = check || trace_path.is_some();

    let workload: Box<dyn WorkloadSpec> = match workload_name.as_str() {
        "counter" => Box::new(CounterWorkload),
        "localization" => Box::new(LocalizationWorkload),
        "roguefinder" => Box::new(RogueFinderWorkload),
        "table4" => {
            // The cohort replay runs the paper's window with the paper's
            // 24-hour expiry; a fault roughly every two hours keeps the
            // whole 24 days under pressure (~280 faults).
            cfg.max_msg_age = SimDuration::from_hours(24);
            cfg.mean_fault_gap = SimDuration::from_hours(2);
            Box::new(Table4ChaosWorkload::new(days))
        }
        other => {
            eprintln!("chaos_soak: unknown workload {other:?}");
            usage();
        }
    };

    let report = run_workload_soak(&cfg, workload.as_ref());
    print!("{}", report.summary());
    if let Some(path) = &trace_path {
        std::fs::write(path, &report.trace_jsonl).unwrap_or_else(|e| {
            eprintln!("chaos_soak: cannot write {path}: {e}");
            std::process::exit(1);
        });
        println!("trace: {path} ({} bytes)", report.trace_jsonl.len());
    }

    if check {
        let failures = check_failures(&report, &run_workload_soak(&cfg, workload.as_ref()));
        if failures.is_empty() {
            println!(
                "chaos check: PASS [{}] ({} faults, {} classes, deterministic trace)",
                report.workload,
                report.faults_injected,
                report.classes()
            );
            println!("digest: {:#018x}", report.digest());
        } else {
            for f in &failures {
                eprintln!("chaos check: FAIL: {f}");
            }
            std::process::exit(1);
        }
    }
}

/// The CI gate conditions; `second` is the same config re-run.
fn check_failures(report: &SoakReport, second: &SoakReport) -> Vec<String> {
    let mut failures: Vec<String> = Vec::new();
    if report.trace_jsonl != second.trace_jsonl {
        failures.push("two runs of the same seed produced different obs traces".into());
    }
    if report.faults_injected < 100 {
        failures.push(format!(
            "only {} faults injected, need >=100",
            report.faults_injected
        ));
    }
    let min_classes = if report.workload == "table4" { 4 } else { 3 };
    if report.classes() < min_classes {
        failures.push(format!(
            "only {} fault classes injected, need >={min_classes}",
            report.classes()
        ));
    }
    if report.workload == "table4" {
        for class in ["bearer-flap", "clock-skew"] {
            if !report.faults_by_class.contains_key(class) {
                failures.push(format!("fault class {class} never injected"));
            }
        }
    }
    if !report.violations.is_empty() {
        failures.push(format!("{} invariant violations", report.violations.len()));
    }
    failures
}
