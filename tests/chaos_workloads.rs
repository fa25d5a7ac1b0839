//! The real workloads under the chaos harness: miniature soaks of the
//! localization pipeline, RogueFinder, and the Table 4 cohort replay.
//! The full-size runs live in the `chaos_soak` binary (CI runs the
//! table4 one with `--check`).

use pogo::chaos::{run_workload_soak, SoakConfig};
use pogo::chaos_workloads::{LocalizationWorkload, RogueFinderWorkload, Table4ChaosWorkload};
use pogo::sim::SimDuration;

fn small(seed: u64, phones: usize, hours: u64) -> SoakConfig {
    SoakConfig {
        seed,
        phones,
        duration: SimDuration::from_hours(hours),
        mean_fault_gap: SimDuration::from_mins(15),
        capture_trace: false,
        ..SoakConfig::default()
    }
}

#[test]
fn localization_soak_holds_the_invariants() {
    let report = run_workload_soak(&small(21, 3, 5), &LocalizationWorkload);
    assert_eq!(report.workload, "localization");
    assert!(report.faults_injected >= 8, "{}", report.summary());
    assert!(report.passed(), "{}", report.summary());
    assert!(
        report.delivered_distinct >= 10,
        "clusters flowed: {}",
        report.summary()
    );
}

#[test]
fn roguefinder_soak_holds_the_invariants() {
    let report = run_workload_soak(&small(22, 2, 5), &RogueFinderWorkload);
    assert_eq!(report.workload, "roguefinder");
    assert!(report.faults_injected >= 8, "{}", report.summary());
    assert!(report.passed(), "{}", report.summary());
    assert!(
        report.delivered_distinct >= 10,
        "geofenced scans flowed: {}",
        report.summary()
    );
}

/// [`SoakReport::digest`](pogo::chaos::SoakReport::digest) of the table4
/// soak's trace (JSONL) and audited store (CSV), read at the parent of the
/// commit that put the device's and the collector's acks, dedup and
/// reconnect into one link module. The soak
/// reconnects, retransmits and drops duplicates under faults, so this pins
/// that protocol's behaviour; a change that means to move it re-reads the
/// hash there and says so.
const TABLE4_SOAK_HASH: u64 = 0xc86d_4898_20d9_1cee;

#[test]
fn table4_soak_holds_the_invariants() {
    let cfg = SoakConfig {
        seed: 23,
        duration: SimDuration::ZERO, // workload supplies its own length
        mean_fault_gap: SimDuration::from_mins(45),
        max_msg_age: SimDuration::from_hours(24),
        capture_trace: true,
        ..SoakConfig::default()
    };
    let report = run_workload_soak(&cfg, &Table4ChaosWorkload::new(2));
    assert_eq!(report.workload, "table4");
    assert!(report.faults_injected >= 20, "{}", report.summary());
    assert!(report.classes() >= 3, "{}", report.summary());
    assert!(report.passed(), "{}", report.summary());
    assert!(report.delivered_distinct > 0, "{}", report.summary());
    let hash = report.digest();
    assert_eq!(
        hash, TABLE4_SOAK_HASH,
        "the soak's trace or store differs from the pinned commit's: {hash:#018x}"
    );
}
