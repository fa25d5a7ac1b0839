//! `compare A.jsonl B.jsonl`: the A/A criterion and every later claim.
//!
//! Each file holds one run record per line (written with `--out`). For
//! every workload × end-to-end metric the table shows both medians, the
//! bound and a verdict: *better* or *worse* when B's median moved past
//! the bound in that direction, *same* when it stayed inside, and
//! *unresolved* when either side's own spread (inter-quartile distance
//! over median) exceeds the bound — unless every run of one side beats
//! every run of the other, which settles it whatever the spread.

use std::collections::BTreeMap;

use crate::metrics::{self, Better, EndToEnd, END_TO_END};
use crate::report::Record;
use crate::workloads;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// How far `b` is *worse* than `a`, as a share of `a` (negative: better).
fn worsening(metric: &EndToEnd, a: f64, b: f64) -> f64 {
    let change = (b - a) / a.abs();
    match metric.better {
        Better::Lower => change,
        Better::Higher => -change,
    }
}

pub fn verdict(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Verdict {
    let worse_by = worsening(metric, metrics::median(a), metrics::median(b));
    let fold = |v: &[f64], worst: bool| {
        let pick_max = worst == (metric.better == Better::Lower);
        v.iter()
            .copied()
            .reduce(|x, y| if (y > x) == pick_max { y } else { x })
            .expect("non-empty")
    };
    // Every run of B beats every run of A, or the reverse.
    let b_dominates = worsening(metric, fold(a, false), fold(b, true)) < 0.0;
    let a_dominates = worsening(metric, fold(a, true), fold(b, false)) > 0.0;
    let noisy = [a, b]
        .iter()
        .any(|side| metrics::spread(side).is_some_and(|s| s > metric.bound));
    if worse_by > metric.bound {
        if noisy && !a_dominates {
            Verdict::Unresolved
        } else {
            Verdict::Worse
        }
    } else if worse_by < -metric.bound {
        if noisy && !b_dominates {
            Verdict::Unresolved
        } else {
            Verdict::Better
        }
    } else if noisy {
        Verdict::Unresolved
    } else {
        Verdict::Same
    }
}

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records: Vec<Record> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| Record::from_json(l).map_err(|e| format!("{path}:{}: {e}", i + 1)))
        .collect::<Result<_, _>>()?;
    if records.is_empty() {
        return Err(format!("{path}: no records"));
    }
    Ok(records)
}

fn shown(v: f64) -> String {
    if v.abs() >= 1e5 {
        format!("{v:.4e}")
    } else {
        format!("{v:.4}")
    }
}

/// Renders the comparison; the flag is false when any row is `worse` or
/// any pair of same-seed digests differs.
pub fn compare(a: &[Record], b: &[Record]) -> (String, bool) {
    let mut out = format!(
        "{:<20} {:<30} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict\n",
        "workload", "metric", "median A", "median B", "change", "iqr A", "iqr B", "bound"
    );
    let mut ok = true;
    for workload in workloads() {
        let of = |side: &[Record]| -> Vec<Record> {
            side.iter()
                .filter(|r| r.workload == workload)
                .cloned()
                .collect()
        };
        let (ra, rb) = (of(a), of(b));
        if ra.is_empty() || rb.is_empty() {
            continue;
        }
        for m in END_TO_END {
            let col = |rs: &[Record]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.e2e.get(m.name).copied())
                    .collect()
            };
            let (va, vb) = (col(&ra), col(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let (ma, mb) = (metrics::median(&va), metrics::median(&vb));
            let v = verdict(m, &va, &vb);
            ok &= v != Verdict::Worse;
            let pct = |s: Option<f64>| s.map_or("-".into(), |s| format!("{:.1}%", s * 100.0));
            out.push_str(&format!(
                "{workload:<20} {:<30} {:>12} {:>12} {:>+7.1}% {:>7} {:>7} {:>5.0}%  {}\n",
                m.name,
                shown(ma),
                shown(mb),
                (mb - ma) / ma.abs() * 100.0,
                pct(metrics::spread(&va)),
                pct(metrics::spread(&vb)),
                m.bound * 100.0,
                v.as_str(),
            ));
        }
        // Digests pair up by seed.
        let by_seed = |rs: &[Record]| -> BTreeMap<u64, String> {
            rs.iter().map(|r| (r.seed, r.digest.clone())).collect()
        };
        let (da, db) = (by_seed(&ra), by_seed(&rb));
        let shared: Vec<u64> = da.keys().filter(|s| db.contains_key(s)).copied().collect();
        let equal = shared.iter().filter(|s| da[s] == db[s]).count();
        out.push_str(&format!(
            "{workload:<20} sim_digest: {equal} of {} shared seeds equal{}\n",
            shared.len(),
            if equal == shared.len() {
                ""
            } else {
                "  <- the simulation changed"
            }
        ));
        ok &= equal == shared.len();
    }
    (out, ok)
}

pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let (text, ok) = compare(&load(a)?, &load(b)?);
    print!("{text}");
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(name: &str) -> &'static EndToEnd {
        END_TO_END.iter().find(|m| m.name == name).unwrap()
    }

    #[test]
    fn verdicts_follow_bound_direction_and_spread() {
        let speed = metric("sim_speed"); // higher is better
        let bound = speed.bound;
        let tight = |centre: f64| -> Vec<f64> {
            (0..10).map(|i| centre * (1.0 + 0.001 * i as f64)).collect()
        };
        let a = tight(1000.0);
        assert_eq!(verdict(speed, &a, &tight(1000.0)), Verdict::Same);
        assert_eq!(
            verdict(speed, &a, &tight(1000.0 * (1.0 + 2.0 * bound))),
            Verdict::Better
        );
        assert_eq!(
            verdict(speed, &a, &tight(1000.0 * (1.0 - 2.0 * bound))),
            Verdict::Worse
        );
        // Lower-is-better flips the sign.
        let setup = metric("setup_s");
        assert_eq!(
            verdict(setup, &tight(1.0), &tight(1.0 + 2.0 * setup.bound)),
            Verdict::Worse
        );
        // A spread wider than the bound leaves overlapping sides unresolved…
        let wide = |centre: f64| -> Vec<f64> {
            (0..10)
                .map(|i| centre * (1.0 + bound * (i as f64 - 4.5) / 2.0))
                .collect()
        };
        assert_eq!(
            verdict(speed, &wide(1000.0), &wide(1010.0)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(speed, &wide(1000.0), &wide(1000.0 * (1.0 - 1.5 * bound))),
            Verdict::Unresolved
        );
        // …unless every run of one side beats every run of the other.
        assert_eq!(verdict(speed, &wide(1000.0), &wide(50.0)), Verdict::Worse);
        assert_eq!(
            verdict(speed, &wide(1000.0), &wide(5000.0)),
            Verdict::Better
        );
    }

    #[test]
    fn compare_reports_rows_and_digest_equality() {
        let rec = |seed: u64, speed: f64, digest: &str| {
            let mut r = Record {
                workload: "fleet_uplink".into(),
                seed,
                mode: "run".into(),
                digest: digest.into(),
                attempted: 1,
                ..Record::default()
            };
            r.e2e.insert("sim_speed".into(), speed);
            r
        };
        let a: Vec<Record> = (0..4).map(|s| rec(s, 1000.0 + s as f64, "aa")).collect();
        let same: Vec<Record> = (0..4).map(|s| rec(s, 1001.0 + s as f64, "aa")).collect();
        let (text, ok) = compare(&a, &same);
        assert!(ok, "{text}");
        assert!(text.contains("sim_speed") && text.contains("same"));
        assert!(text.contains("4 of 4 shared seeds equal"));
        let slow: Vec<Record> = (0..4).map(|s| rec(s, 500.0 + s as f64, "bb")).collect();
        let (text, ok) = compare(&a, &slow);
        assert!(!ok);
        assert!(text.contains("worse") && text.contains("0 of 4 shared seeds equal"));
    }
}
