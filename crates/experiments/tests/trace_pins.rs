//! `pogo-trace`'s built-in workloads, pinned across commits: an FNV-1a of
//! each workload's JSONL trace and of its `--top` summary. The summary
//! lists every `net.*` counter per node, so the acks, retransmits and
//! dedup drops of the reliable link are pinned along with event order.
//!
//! The hashes were read at the parent of the commit that put the device's
//! and the collector's acks, dedup and reconnect into one link module,
//! except `chaos`'s, re-read at the commit where phones stopped resending
//! messages whose acks were still on their way: the flush that follows a
//! deadline flush now carries the one new message, not all 31, and the
//! collector drops no duplicates. `fig4`'s and `chaos`'s were re-read
//! again at the commit that sent each run of a flush as one framed
//! envelope, acked once: a flush's bytes fall by a quarter, and so the
//! radio's states shift. A change that means to move a trace re-reads its
//! hash and says so; any other change leaves them alone.

use std::process::Command;

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, byte| {
        (hash ^ u64::from(*byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn pogo_trace(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_pogo-trace"))
        .args(args)
        .output()
        .expect("pogo-trace runs");
    assert!(out.status.success(), "pogo-trace {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("pogo-trace writes UTF-8")
}

/// The `--top` table with the value columns of host wall-clock timings
/// (`*_us` metrics: compile, verify and cost-analysis time) cut off, so
/// only what the simulation decides is hashed.
fn deterministic_top(top: &str) -> String {
    top.lines()
        .map(|line| {
            let mut cols = line.split_whitespace();
            match (cols.next(), cols.next()) {
                (Some(node), Some(metric)) if metric.ends_with("_us") => {
                    format!("{node} {metric}\n")
                }
                _ => format!("{line}\n"),
            }
        })
        .collect()
}

/// Asserts `(jsonl, top)` hashes for one workload, printing both on a
/// mismatch.
fn assert_pinned(workload: &str, jsonl: u64, top: u64) {
    let got_jsonl = fnv1a(pogo_trace(&["--workload", workload]).as_bytes());
    let got_top =
        fnv1a(deterministic_top(&pogo_trace(&["--workload", workload, "--top"])).as_bytes());
    assert_eq!(
        (got_jsonl, got_top),
        (jsonl, top),
        "pogo-trace --workload {workload}: (jsonl, --top) = ({got_jsonl:#018x}, {got_top:#018x})"
    );
}

#[test]
fn quickstart_trace_is_pinned() {
    assert_pinned("quickstart", 0x47c9_81cb_5f54_98c5, 0xb648_4afb_489b_738d);
}

#[test]
fn fig4_trace_is_pinned() {
    assert_pinned("fig4", 0x6ecb_a798_1288_45fb, 0x8b4e_baa8_101f_94ea);
}

#[test]
fn chaos_trace_is_pinned() {
    assert_pinned("chaos", 0xd3e0_63d5_7462_0cc0, 0x6f50_5ef1_04e7_a7e7);
}
