//! The paper's claims about tail synchronisation, read from the rows
//! Table 3 and Ablation A are rendered from rather than from their text:
//! the baselines rank the carriers by tail length, Pogo's overhead stays
//! under 10 % everywhere and is smallest where energy is dearest, every
//! upload rides an e-mail tail, and riding tails beats a 5-minute timer
//! by an order of magnitude.

use pogo_experiments::{ablation, table3};

fn overhead_pct(row: &table3::Row) -> f64 {
    100.0 * (row.with_j - row.without_j) / row.without_j
}

#[test]
fn table3_keeps_the_carrier_order_a_small_overhead_and_no_extra_tails() {
    let rows = table3::run();
    let carrier = |name: &str| {
        rows.iter()
            .find(|r| r.carrier == name)
            .unwrap_or_else(|| panic!("Table 3 has no {name} row"))
    };
    let (kpn, tmobile, vodafone) = (carrier("KPN"), carrier("T-Mobile"), carrier("Vodafone"));
    assert!(
        kpn.without_j > vodafone.without_j && vodafone.without_j > tmobile.without_j,
        "baselines out of order: KPN {:.2} J, Vodafone {:.2} J, T-Mobile {:.2} J",
        kpn.without_j,
        vodafone.without_j,
        tmobile.without_j
    );
    for row in &rows {
        assert!(
            overhead_pct(row) < 10.0,
            "{}: Pogo adds {:.2} %",
            row.carrier,
            overhead_pct(row)
        );
        assert_eq!(row.extra_ramp_ups, 0, "{}: extra ramp-ups", row.carrier);
    }
    for other in [tmobile, vodafone] {
        assert!(
            overhead_pct(kpn) < overhead_pct(other),
            "KPN's overhead ({:.2} %) is not the smallest: {} reads {:.2} %",
            overhead_pct(kpn),
            other.carrier,
            overhead_pct(other)
        );
    }
}

#[test]
fn ablation_a_tail_sync_costs_a_tenth_of_a_five_minute_timer() {
    // Ablation A runs Table 3's KPN scenario; its baseline is KPN's.
    let (baseline_j, ..) = table3::measure(pogo_platform::CarrierProfile::kpn(), false);
    let rows = ablation::run_batching();
    let joules = |policy: &str| {
        rows.iter()
            .find(|r| r.policy == policy)
            .unwrap_or_else(|| panic!("Ablation A has no {policy} row"))
            .joules
    };
    let tail_sync = joules("tail-sync (Pogo)") - baseline_j;
    let timer = joules("interval 5min") - baseline_j;
    assert!(
        tail_sync > 0.0 && 10.0 * tail_sync <= timer,
        "tail-sync adds {tail_sync:.2} J over the {baseline_j:.2} J baseline, a 5-minute timer \
         {timer:.2} J"
    );
}
