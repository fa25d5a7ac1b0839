//! Run records: what a pass reports to its parent process, what a run
//! appends to an `--out` file, and the one-line result the driver reads.

use pogo_core::Msg;

use crate::metrics::{self, Values};

/// One pass (a child process) or one aggregated run (the parent).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Record {
    pub workload: String,
    pub seed: u64,
    /// `plain`, `traced` or `obs` for a pass; `run` for an aggregate.
    pub mode: String,
    pub digest: String,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub problems: Vec<String>,
    pub e2e: Values,
    pub layer: Values,
    /// Deterministic counts (equal for equal seeds).
    pub counts: Values,
    /// Host-side facts about the pass: seconds per phase, sample sizes.
    pub info: Values,
}

fn values_to_msg(values: &Values) -> Msg {
    Msg::Obj(
        values
            .iter()
            .map(|(k, v)| (k.clone(), Msg::Num(*v)))
            .collect(),
    )
}

fn values_from_msg(msg: Option<&Msg>) -> Values {
    match msg {
        Some(Msg::Obj(pairs)) => pairs
            .iter()
            .filter_map(|(k, v)| v.as_num().map(|n| (k.clone(), n)))
            .collect(),
        _ => Values::new(),
    }
}

impl Record {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }

    pub fn to_json(&self) -> String {
        Msg::obj([
            ("workload", Msg::str(&self.workload)),
            // As a string: a u64 seed does not survive a round trip
            // through an f64.
            ("seed", Msg::str(self.seed.to_string())),
            ("mode", Msg::str(&self.mode)),
            ("digest", Msg::str(&self.digest)),
            ("attempted", Msg::Num(self.attempted as f64)),
            ("failed", Msg::Num(self.failed as f64)),
            (
                "problems",
                Msg::Arr(self.problems.iter().map(Msg::str).collect()),
            ),
            ("e2e", values_to_msg(&self.e2e)),
            ("layer", values_to_msg(&self.layer)),
            ("counts", values_to_msg(&self.counts)),
            ("info", values_to_msg(&self.info)),
        ])
        .to_json()
    }

    pub fn from_json(line: &str) -> Result<Record, String> {
        let msg = Msg::from_json(line).map_err(|e| format!("not a record: {e}"))?;
        let text = |k: &str| -> Result<String, String> {
            msg.get(k)
                .and_then(Msg::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("record has no string `{k}`"))
        };
        let count = |k: &str| -> Result<u64, String> {
            msg.get(k)
                .and_then(Msg::as_num)
                .filter(|n| *n >= 0.0 && n.fract() == 0.0)
                .map(|n| n as u64)
                .ok_or_else(|| format!("record has no count `{k}`"))
        };
        Ok(Record {
            workload: text("workload")?,
            seed: text("seed")?
                .parse()
                .map_err(|e| format!("record seed: {e}"))?,
            mode: text("mode")?,
            digest: text("digest")?,
            attempted: count("attempted")?,
            failed: count("failed")?,
            problems: msg
                .get("problems")
                .and_then(Msg::as_arr)
                .map(|a| {
                    a.iter()
                        .filter_map(|p| p.as_str().map(str::to_owned))
                        .collect()
                })
                .unwrap_or_default(),
            e2e: values_from_msg(msg.get("e2e")),
            layer: values_from_msg(msg.get("layer")),
            counts: values_from_msg(msg.get("counts")),
            info: values_from_msg(msg.get("info")),
        })
    }

    /// The driver's result line: exactly `correct`, `attempted`, `failed`
    /// and `metrics`, the latter holding `which` with value and unit.
    pub fn driver_line(&self, which: &Values) -> String {
        let metrics = Msg::Obj(
            which
                .iter()
                .map(|(name, value)| {
                    (
                        name.clone(),
                        Msg::obj([
                            ("value", Msg::Num(*value)),
                            ("unit", Msg::str(metrics::unit_of(name))),
                        ]),
                    )
                })
                .collect(),
        );
        Msg::obj([
            ("correct", Msg::Bool(self.correct())),
            ("attempted", Msg::Num(self.attempted as f64)),
            ("failed", Msg::Num(self.failed as f64)),
            ("metrics", metrics),
        ])
        .to_json()
    }
}

/// A fixed-width table of named values with their units.
pub fn render(title: &str, values: &Values) -> String {
    let mut out = format!("-- {title}\n");
    let width = values.keys().map(String::len).max().unwrap_or(0);
    for (name, value) in values {
        let shown = if value.fract() == 0.0 && value.abs() < 1e15 {
            format!("{value:.0}")
        } else if value.abs() >= 100.0 {
            format!("{value:.1}")
        } else {
            format!("{value:.4}")
        };
        out.push_str(&format!(
            "{name:<width$}  {shown:>16} {}\n",
            metrics::unit_of(name)
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_round_trips_and_driver_line_has_the_four_keys() {
        let mut r = Record {
            workload: "fleet_uplink".into(),
            seed: u64::MAX - 1,
            mode: "run".into(),
            digest: "00ff".into(),
            attempted: 10,
            failed: 0,
            ..Record::default()
        };
        r.e2e.insert("setup_s".into(), 0.123456789012);
        r.e2e.insert("sim_speed".into(), 1.5e6);
        r.counts.insert("window.sim_events".into(), 12345.0);
        let back = Record::from_json(&r.to_json()).unwrap();
        assert_eq!(back, r);

        let line = r.driver_line(&r.e2e);
        let msg = Msg::from_json(&line).unwrap();
        let Msg::Obj(pairs) = &msg else {
            panic!("object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = msg.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(
            setup.get("value").and_then(Msg::as_num),
            Some(0.123456789012)
        );
        assert_eq!(setup.get("unit").and_then(Msg::as_str), Some("s"));
        assert!(!line.contains('\n'));

        r.problems.push("bad".into());
        assert!(r.driver_line(&r.e2e).starts_with("{\"correct\":false"));
        assert!(Record::from_json("{}").is_err());
        assert!(Record::from_json("nonsense").is_err());
    }
}
