//! The paper's tables as `pogo-experiments` prints them, held to
//! EXPERIMENTS.md. Each report's output is recorded there in a
//! ```` ```console ```` block whose first line is `$ pogo-experiments
//! ARGS`; the rest of the block is the output without the blank line
//! above its banner and the one below its last line. The cheap reports are
//! compared here byte for byte. Figure 3's block is the head of its
//! 191-line output, which is pinned whole by an FNV-1a hash, as is a
//! one-day Table 4. The 24-day Table 4 and the 8-day Ablation B take
//! seconds in release, so `scripts/ci.sh` compares their blocks.
//!
//! A change that moves a report on purpose regenerates its block (and
//! re-reads a hash) in the same commit and names the tables it moved.

use std::process::{Command, Output};

const EXPERIMENTS_MD: &str = include_str!("../../../EXPERIMENTS.md");

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn run(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pogo-experiments"))
        .args(args)
        .output()
        .expect("pogo-experiments runs")
}

fn report(args: &[&str]) -> String {
    let out = run(args);
    assert!(out.status.success(), "pogo-experiments {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("pogo-experiments writes UTF-8")
}

/// The output EXPERIMENTS.md records for `pogo-experiments ARGS`,
/// framed as the binary prints it.
fn recorded(args: &[&str]) -> String {
    let open = format!("```console\n$ pogo-experiments {}\n", args.join(" "));
    let start = EXPERIMENTS_MD
        .find(&open)
        .unwrap_or_else(|| panic!("EXPERIMENTS.md has no block for {args:?}"))
        + open.len();
    let len = EXPERIMENTS_MD[start..]
        .find("```\n")
        .expect("the block is closed");
    format!("\n{}\n", &EXPERIMENTS_MD[start..start + len])
}

fn assert_recorded(args: &[&str]) {
    assert_eq!(
        report(args),
        recorded(args),
        "pogo-experiments {args:?} differs from its EXPERIMENTS.md block"
    );
}

#[test]
fn table2_is_recorded() {
    assert_recorded(&["table2"]);
}

#[test]
fn table3_is_recorded() {
    assert_recorded(&["table3"]);
}

#[test]
fn fig4_is_recorded() {
    assert_recorded(&["fig4"]);
}

#[test]
fn ablation_batching_is_recorded() {
    assert_recorded(&["ablation-batching"]);
}

#[test]
fn fig3_is_recorded_and_pinned() {
    let fig = report(&["fig3"]);
    let head = recorded(&["fig3"]);
    assert!(
        fig.starts_with(head.trim_end_matches('\n')),
        "pogo-experiments fig3 does not start with its EXPERIMENTS.md block"
    );
    assert_eq!(fnv1a(fig.as_bytes()), 0x162b_7cf3_574a_b0c7, "fig3:\n{fig}");
}

#[test]
fn one_day_table4_is_pinned() {
    let table = report(&["table4", "1", "42"]);
    assert_eq!(
        fnv1a(table.as_bytes()),
        0x686a_af17_2b53_6bf3,
        "table4 1 42:\n{table}"
    );
}

/// `scripts/ci.sh` reads these two blocks; both must exist.
#[test]
fn slow_reports_have_blocks() {
    for report in ["table4", "ablation-freeze"] {
        assert!(recorded(&[report]).contains("==="), "{report}");
    }
}

#[test]
fn bad_arguments_print_usage_and_exit_2() {
    let bad: [&[&str]; 9] = [
        &[],
        &["table5"],
        &["table4", "foo"],
        &["table4", "0", "42"],
        &["table4", "1", "x"],
        &["table4", "1", "42", "7"],
        &["ablation-freeze", "-1"],
        &["all", "0"],
        &["table2", "1"],
    ];
    for args in bad {
        let out = run(args);
        assert_eq!(out.status.code(), Some(2), "pogo-experiments {args:?}");
        assert!(out.stdout.is_empty(), "pogo-experiments {args:?}");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("usage:"),
            "pogo-experiments {args:?}"
        );
    }
}
