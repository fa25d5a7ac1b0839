//! `pogo-trace` — dump, filter, and summarize Pogo observability traces.
//!
//! Input is either a JSONL trace file written by the middleware (see
//! `pogo_obs::export::to_jsonl`, e.g. `POGO_TRACE=trace.jsonl cargo run
//! --example quickstart`) or a built-in workload re-run with tracing on
//! (`--workload fig4|quickstart|chaos`). Output is the filtered JSONL (default), a
//! Chrome-trace timeline (`--chrome`, load in `chrome://tracing` or
//! Perfetto), or a `pogo-top` summary table (`--top`).

use std::borrow::Cow;
use std::process::ExitCode;
use std::rc::Rc;

use pogo::core::{ExperimentSpec, FleetSpec, Msg, Obs, ObsConfig, Testbed};
use pogo::obs::{export, Event, FieldValue};
use pogo::sim::{DeviceId, Sim, SimDuration, SimTime};
use pogo_experiments::fig4;

const USAGE: &str = "\
pogo-trace — dump, filter, and summarize Pogo observability traces

usage:
  pogo-trace TRACE.jsonl [options]
  pogo-trace --workload fig4|quickstart|chaos [options]

options:
  --chrome            emit a Chrome-trace timeline (chrome://tracing)
  --top               emit a pogo-top summary table
  --category CAT      keep only events in category CAT (repeatable)
  --device JID        keep only events from device JID (repeatable)
  --since SECS        keep only events at or after SECS
  --until SECS        keep only events strictly before SECS
  -o FILE             write output to FILE instead of stdout
  -h, --help          this help
";

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Jsonl,
    Chrome,
    Top,
}

struct Opts {
    input: Option<String>,
    workload: Option<String>,
    format: Format,
    categories: Vec<String>,
    devices: Vec<String>,
    since_ms: Option<u64>,
    until_ms: Option<u64>,
    output: Option<String>,
}

fn main() -> ExitCode {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            print!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Err(err) => {
            eprintln!("pogo-trace: {err}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let (mut events, obs) = match load(&opts) {
        Ok(loaded) => loaded,
        Err(err) => {
            eprintln!("pogo-trace: {err}");
            return ExitCode::FAILURE;
        }
    };

    events.retain(|e| {
        (opts.categories.is_empty() || opts.categories.iter().any(|c| *c == e.category))
            && (opts.devices.is_empty()
                || e.device
                    .as_deref()
                    .is_some_and(|d| opts.devices.iter().any(|want| want == d)))
            && opts.since_ms.is_none_or(|t| e.at.as_millis() >= t)
            && opts.until_ms.is_none_or(|t| e.at.as_millis() < t)
    });

    let rendered = match opts.format {
        Format::Jsonl => export::to_jsonl(&events),
        Format::Chrome => export::to_chrome_trace(&events),
        Format::Top => {
            let fallback = Obs::off();
            let obs = obs.as_ref().unwrap_or(&fallback);
            export::summary(&events, obs.metrics())
        }
    };

    match &opts.output {
        Some(path) => {
            if let Err(err) = std::fs::write(path, &rendered) {
                eprintln!("pogo-trace: writing {path}: {err}");
                return ExitCode::FAILURE;
            }
            eprintln!("pogo-trace: wrote {} bytes to {path}", rendered.len());
        }
        None => print!("{rendered}"),
    }
    ExitCode::SUCCESS
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Option<Opts>, String> {
    let mut opts = Opts {
        input: None,
        workload: None,
        format: Format::Jsonl,
        categories: Vec::new(),
        devices: Vec::new(),
        since_ms: None,
        until_ms: None,
        output: None,
    };
    let mut args = args.peekable();
    while let Some(arg) = args.next() {
        let mut value = |name: &str| args.next().ok_or_else(|| format!("{name} expects a value"));
        match arg.as_str() {
            "-h" | "--help" => return Ok(None),
            "--chrome" => opts.format = Format::Chrome,
            "--top" => opts.format = Format::Top,
            "--workload" => opts.workload = Some(value("--workload")?),
            "--category" => opts.categories.push(value("--category")?),
            "--device" => opts.devices.push(value("--device")?),
            "--since" => opts.since_ms = Some(secs_to_ms(&value("--since")?)?),
            "--until" => opts.until_ms = Some(secs_to_ms(&value("--until")?)?),
            "-o" | "--output" => opts.output = Some(value("-o")?),
            other if other.starts_with('-') => {
                return Err(format!("unknown option {other}"));
            }
            _ if opts.input.is_none() => opts.input = Some(arg),
            _ => return Err("more than one input file given".into()),
        }
    }
    match (&opts.input, &opts.workload) {
        (Some(_), Some(_)) => Err("give either a trace file or --workload, not both".into()),
        (None, None) => Err("no input: give a trace file or --workload".into()),
        _ => Ok(Some(opts)),
    }
}

fn secs_to_ms(text: &str) -> Result<u64, String> {
    let secs: f64 = text
        .parse()
        .map_err(|_| format!("bad time (seconds): {text}"))?;
    if !secs.is_finite() || secs < 0.0 {
        return Err(format!("bad time (seconds): {text}"));
    }
    Ok((secs * 1_000.0).round() as u64)
}

/// Loads the events to render: re-running a workload keeps the live
/// [`Obs`] handle so `--top` can include metrics; a JSONL file carries
/// events only.
fn load(opts: &Opts) -> Result<(Vec<Event>, Option<Obs>), String> {
    if let Some(workload) = &opts.workload {
        let obs = match workload.as_str() {
            "fig4" => fig4::run_traced().1,
            "quickstart" => run_quickstart(),
            "chaos" => run_chaos(),
            other => {
                return Err(format!(
                    "unknown workload {other} (try fig4, quickstart, or chaos)"
                ))
            }
        };
        return Ok((obs.events(), Some(obs)));
    }
    let path = opts.input.as_deref().expect("checked in parse_args");
    let text = std::fs::read_to_string(path).map_err(|err| format!("reading {path}: {err}"))?;
    let mut events = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events
            .push(parse_event(line).ok_or_else(|| format!("{path}:{}: not a trace event", i + 1))?);
    }
    Ok((events, None))
}

/// Parses one `to_jsonl` line back into an [`Event`].
fn parse_event(line: &str) -> Option<Event> {
    let msg = Msg::from_json(line).ok()?;
    let at = SimTime::from_millis(msg.get("t").and_then(Msg::as_num)? as u64);
    let device: Option<Rc<str>> = msg.get("dev").and_then(Msg::as_str).map(Rc::from);
    let category = Cow::Owned(msg.get("cat").and_then(Msg::as_str)?.to_owned());
    let name = Cow::Owned(msg.get("ev").and_then(Msg::as_str)?.to_owned());
    let mut fields = Vec::new();
    if let Some(Msg::Obj(pairs)) = msg.get("fields") {
        for (key, value) in pairs {
            let value = match value {
                Msg::Num(v) if *v >= 0.0 && v.fract() == 0.0 => FieldValue::U64(*v as u64),
                Msg::Num(v) => FieldValue::F64(*v),
                Msg::Bool(v) => FieldValue::Bool(*v),
                Msg::Str(v) => FieldValue::Str(Cow::Owned(v.clone())),
                _ => return None,
            };
            fields.push((Cow::Owned(key.clone()), value));
        }
    }
    Some(Event {
        at,
        device,
        category,
        name,
        fields,
    })
}

/// The quickstart example's workload (three phones, a battery-watcher
/// script, two simulated hours) with tracing on.
fn run_quickstart() -> Obs {
    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, ObsConfig::on());
    testbed.add_fleet(FleetSpec::new(3).prefix("phone"));
    let script = r#"
        setDescription('Battery watcher');
        subscribe('battery', function (msg) {
            publish('readings', { v: msg.voltage, level: msg.level });
        }, { interval: 5 * 60 * 1000 });
    "#;
    let devices: Vec<_> = testbed.devices().iter().map(|d| d.jid()).collect();
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "quickstart".into(),
            scripts: vec![pogo::core::proto::ScriptSpec {
                name: "battery-watch.js".into(),
                source: script.into(),
            }],
        })
        .to(&devices)
        .send()
        .expect("scripts pass pre-deployment analysis");
    sim.run_for(SimDuration::from_hours(2));
    testbed.obs().clone()
}

/// A compressed chaos soak (three phones, four simulated hours, a
/// seeded `pogo-chaos` fault plan) with tracing on, so the fault and
/// invariant-verdict events render next to the radio/cpu lanes. The
/// plan is extended with a guaranteed bearer-flap storm and clock-skew
/// window so every fault-class event category appears in the trace.
fn run_chaos() -> Obs {
    use pogo::chaos::{ChaosController, Fault, FaultKind, FaultPlan, InvariantHarness};

    let sim = Sim::new();
    let mut testbed = Testbed::with_obs(&sim, ObsConfig::on());
    testbed.add_fleet(FleetSpec::new(3).prefix("phone"));
    let harness = InvariantHarness::install(&testbed, "chaos", "chaos-data");
    let script = r#"
        var st = thaw();
        var n = st == null ? 0 : st.n;
        function tick() {
            n = n + 1;
            freeze({ n: n });
            publish('chaos-data', { n: n });
            logTo('chaos-sent', n);
            setTimeout(tick, 2 * 60 * 1000);
        }
        tick();
    "#;
    let devices: Vec<_> = testbed.devices().iter().map(|d| d.jid()).collect();
    testbed
        .collector()
        .deployment(&ExperimentSpec {
            id: "chaos".into(),
            scripts: vec![pogo::core::proto::ScriptSpec {
                name: "tick.js".into(),
                source: script.into(),
            }],
        })
        .to(&devices)
        .send()
        .expect("scripts pass pre-deployment analysis");

    let end = SimTime::ZERO + SimDuration::from_hours(4);
    let plan = FaultPlan::seeded(0xc4a05)
        .devices(3)
        .window(SimTime::ZERO + SimDuration::from_mins(10), end)
        .mean_gap(SimDuration::from_mins(15))
        .build()
        .extended(vec![
            Fault {
                at: SimTime::ZERO + SimDuration::from_mins(20),
                kind: FaultKind::BearerFlap {
                    device: DeviceId::new(0),
                    flaps: 12,
                    period: SimDuration::from_secs(10),
                },
            },
            Fault {
                at: SimTime::ZERO + SimDuration::from_mins(40),
                kind: FaultKind::ClockSkew {
                    device: DeviceId::new(1),
                    step: SimDuration::from_secs(30),
                    drift_ppm: 5_000,
                    duration: SimDuration::from_mins(10),
                },
            },
        ]);
    let _controller = ChaosController::install(&testbed, &plan);
    sim.run_until(end);

    // Drain so the final loss accounting sees flushed stores.
    for node in testbed.devices() {
        if node.is_powered_off() {
            node.power_on();
        }
        node.phone().battery().set_charging(true);
    }
    sim.run_for(SimDuration::from_mins(30));
    harness.final_check();
    testbed.obs().clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jsonl_round_trips_through_the_parser() {
        let obs = run_quickstart();
        let events = obs.events();
        assert!(!events.is_empty());
        let jsonl = export::to_jsonl(&events);
        let parsed: Vec<Event> = jsonl.lines().map(|l| parse_event(l).unwrap()).collect();
        assert_eq!(parsed.len(), events.len());
        assert_eq!(export::to_jsonl(&parsed), jsonl);
    }

    #[test]
    fn args_parse_and_validate() {
        let opts = parse_args(
            [
                "--workload",
                "fig4",
                "--chrome",
                "--since",
                "720",
                "-o",
                "x.json",
            ]
            .into_iter()
            .map(str::to_owned),
        )
        .unwrap()
        .unwrap();
        assert!(opts.format == Format::Chrome);
        assert_eq!(opts.since_ms, Some(720_000));
        assert_eq!(opts.output.as_deref(), Some("x.json"));
        assert!(parse_args(["--since", "abc"].into_iter().map(str::to_owned)).is_err());
        assert!(parse_args(std::iter::empty()).is_err());
        assert!(parse_args(
            ["a.jsonl", "--workload", "fig4"]
                .into_iter()
                .map(str::to_owned)
        )
        .is_err());
    }
}
