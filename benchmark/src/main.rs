//! The repo's single benchmark. See `README.md` beside `Cargo.toml` for
//! the metric glossary, the workloads and why they were chosen, and
//! `../BENCHMARK.json` for the contract the driver holds it to.
//!
//! One invocation measures one workload:
//!
//! ```text
//! pogo-benchmark --workload fleet_uplink --seed 7 --seconds 12 --trace 0
//! ```
//!
//! The load is a closed loop of one client: one thread, one pass at a
//! time, each pass in a fresh child process so that peak RSS is its own.
//! An untraced run repeats the pass with the same seed until `--seconds`
//! of measured host time have accumulated (three times at least) and
//! reports the median of every host metric; the simulated metrics and
//! the digest must agree between repetitions exactly. A traced run makes
//! one plain pass, one traced pass (spans, per-step timing, envelope
//! capture, layer replays) and, for fleet workloads, one pass with
//! observability on, and reports the per-layer metrics.

mod collector;
mod compare;
mod fleet;
mod gen;
mod layers;
mod metrics;
mod report;
mod trace;

use std::io::Write as _;
use std::process::{Command, ExitCode, Stdio};

use fleet::{Kind, Mode};
use metrics::{Base, END_TO_END};
use report::Record;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub fn workloads() -> impl Iterator<Item = &'static str> {
    metrics::WORKLOADS.iter().map(|(name, _)| *name)
}

const DEFAULT_SEED: u64 = 1;
const DEFAULT_SECONDS: f64 = metrics::RUN_SECONDS as f64;
/// An untraced run makes at least this many passes, so that every host
/// metric is a median.
const MIN_PASSES: usize = 3;
const MAX_PASSES: usize = 25;

const USAGE: &str = "\
usage:
  pogo-benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
                 [--devices N] [--sim-minutes M] [--appends N] [--out FILE]
  pogo-benchmark suite [--seeds A,B,..] [--seconds S] [--trace 0|1] [--out FILE]
  pogo-benchmark --smoke
  pogo-benchmark compare A.jsonl B.jsonl
  pogo-benchmark manifest            (prints BENCHMARK.json)
workloads: fleet_localization fleet_uplink cohort_tailsync collector_readwrite
--devices / --sim-minutes / --appends resize a workload for ladder runs;
their numbers are outside the gated baseline.";

fn fleet_kind(workload: &str) -> Option<Kind> {
    [Kind::Localization, Kind::Uplink, Kind::Tailsync]
        .into_iter()
        .find(|k| k.name() == workload)
}

/// Ad-hoc sizes, outside the gated numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
struct Overrides {
    devices: Option<usize>,
    sim_minutes: Option<u64>,
    appends: Option<usize>,
}

impl Overrides {
    fn args(&self) -> Vec<String> {
        let mut out = Vec::new();
        let mut push = |flag: &str, v: Option<String>| {
            if let Some(v) = v {
                out.push(flag.to_owned());
                out.push(v);
            }
        };
        push("--devices", self.devices.map(|v| v.to_string()));
        push("--sim-minutes", self.sim_minutes.map(|v| v.to_string()));
        push("--appends", self.appends.map(|v| v.to_string()));
        out
    }

    /// A twentieth of the design size, with a shortened window.
    fn smoke(workload: &str) -> Overrides {
        match fleet_kind(workload) {
            Some(kind) => Overrides {
                devices: Some(kind.design_scale().devices / 20),
                sim_minutes: Some((kind.design_scale().measured_min / 4).max(20)),
                appends: None,
            },
            None => Overrides {
                appends: Some(collector::DESIGN_APPENDS / 20),
                ..Overrides::default()
            },
        }
    }
}

// ---- one pass, in this process ----------------------------------------------

fn pass(workload: &str, seed: u64, mode: Mode, ov: Overrides) -> Record {
    let (mut record, spans) = if let Some(kind) = fleet_kind(workload) {
        let mut scale = kind.scale();
        if let Some(devices) = ov.devices {
            scale.devices = devices;
        }
        if let Some(minutes) = ov.sim_minutes {
            scale.measured_min = minutes;
        }
        let mut o = fleet::run(kind, scale, seed, mode);
        if mode == Mode::Traced {
            o.record.layer = layers::fleet_layers(&o);
        }
        (o.record, o.tracer)
    } else {
        let appends = ov.appends.unwrap_or(collector::APPENDS);
        let mut o = collector::run(appends, seed, mode == Mode::Traced);
        if mode == Mode::Traced {
            o.record.layer = layers::collector_layers(&o);
        }
        (o.record, o.tracer)
    };
    if record.failed > 0 {
        record.problems.push(format!(
            "{} of {} operations failed",
            record.failed, record.attempted
        ));
    }
    if spans.enabled() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
        let path = dir.join(format!("{workload}-seed{seed}.spans.jsonl"));
        let written =
            std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, spans.to_jsonl()));
        match written {
            Ok(()) => eprintln!("spans written to {}", path.display()),
            Err(e) => eprintln!("could not write {}: {e}", path.display()),
        }
    }
    record
}

/// The same pass in a fresh child process of this executable.
fn spawn_pass(workload: &str, seed: u64, mode: Mode, ov: Overrides) -> Result<Record, String> {
    let mode = mode.name();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["pass", "--workload", workload, "--mode", mode])
        .args(["--seed", &seed.to_string()])
        .args(ov.args())
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a pass: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    if !output.status.success() {
        return Err(format!(
            "{workload} {mode} pass exited with {}",
            output.status
        ));
    }
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{workload} {mode} pass printed nothing"))?;
    Record::from_json(line)
}

// ---- one run: several passes, aggregated ------------------------------------

fn is_host(name: &str) -> bool {
    END_TO_END
        .iter()
        .any(|m| m.name == name && m.base == Base::Host)
}

fn merge_problems(into: &mut Vec<String>, from: &[String]) {
    for p in from {
        if !into.contains(p) {
            into.push(p.clone());
        }
    }
}

/// Untraced: repeat the plain pass, report medians of the host metrics.
fn run_plain(workload: &str, seed: u64, seconds: f64, ov: Overrides) -> Result<Record, String> {
    let mut passes: Vec<Record> = Vec::new();
    let mut measured = 0.0;
    while passes.len() < MIN_PASSES || (measured < seconds && passes.len() < MAX_PASSES) {
        let r = spawn_pass(workload, seed, Mode::Plain, ov)?;
        measured += r.info.get("measured_s").copied().unwrap_or(0.0);
        passes.push(r);
    }
    let mut run = passes[0].clone();
    run.mode = "run".into();
    for name in run.e2e.clone().keys().filter(|n| is_host(n)) {
        let values: Vec<f64> = passes
            .iter()
            .filter_map(|p| p.e2e.get(name).copied())
            .collect();
        run.e2e.insert(name.clone(), metrics::median(&values));
    }
    for p in &passes[1..] {
        if p.digest != run.digest {
            run.problems.push(format!(
                "repetitions of seed {seed} disagree: sim_digest {} vs {}",
                run.digest, p.digest
            ));
        }
        merge_problems(&mut run.problems, &p.problems);
    }
    run.info.insert("passes".into(), passes.len() as f64);
    run.info.insert("measured_total_s".into(), measured);
    Ok(run)
}

/// Traced: a plain pass, pass A, and (fleets) pass B; per-layer metrics.
fn run_traced(workload: &str, seed: u64, ov: Overrides) -> Result<Record, String> {
    let plain = spawn_pass(workload, seed, Mode::Plain, ov)?;
    let traced = spawn_pass(workload, seed, Mode::Traced, ov)?;
    let obs = match fleet_kind(workload) {
        Some(_) => Some(spawn_pass(workload, seed, Mode::Obs, ov)?),
        None => None,
    };
    let mut run = traced.clone();
    run.mode = "run".into();
    let measured = |r: &Record| r.info.get("measured_s").copied().unwrap_or(0.0);
    layers::finish(
        &mut run.layer,
        measured(&plain),
        measured(&traced),
        obs.as_ref().map(|o| &o.info),
    );
    for (name, other) in [("plain", Some(&plain)), ("obs", obs.as_ref())] {
        let Some(other) = other else { continue };
        if other.digest != traced.digest {
            run.problems.push(format!(
                "tracing perturbed the simulation: sim_digest {} traced vs {} {name}",
                traced.digest, other.digest
            ));
        }
        merge_problems(&mut run.problems, &other.problems);
    }
    // The end-to-end numbers of a traced run are the plain pass's: tracing
    // is never used for them.
    run.e2e = plain.e2e;
    Ok(run)
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    ov: Overrides,
    out: Option<String>,
}

/// Runs one workload, prints its tables and the driver's result line.
fn run_workload(a: &RunArgs) -> Result<Record, String> {
    let run = if a.trace {
        run_traced(&a.workload, a.seed, a.ov)?
    } else {
        run_plain(&a.workload, a.seed, a.seconds, a.ov)?
    };
    let title = format!(
        "{} seed {} ({})",
        a.workload,
        a.seed,
        if a.trace {
            "traced run"
        } else {
            "untraced run"
        }
    );
    println!("== {title}");
    print!("{}", report::render("end to end", &run.e2e));
    if a.trace {
        print!("{}", report::render("per layer", &run.layer));
    }
    print!("{}", report::render("deterministic counts", &run.counts));
    print!("{}", report::render("about this run", &run.info));
    println!("sim_digest {}", run.digest);
    for p in &run.problems {
        println!("CHECK FAILED: {p}");
    }
    if let Some(path) = &a.out {
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", run.to_json()).map_err(|e| format!("{path}: {e}"))?;
    }
    let which = if a.trace { &run.layer } else { &run.e2e };
    println!("{}", run.driver_line(which));
    Ok(run)
}

/// The bypass checks that span workloads: of a traced suite, only
/// `fleet_localization` enters the script VM, and it leaves the wire
/// almost idle (under 2 % of `fleet_uplink`'s envelopes).
fn cross_workload_problems(runs: &[Record]) -> Vec<String> {
    let layer = |workload: &str, seed: u64, name: &str| {
        runs.iter()
            .find(|r| r.workload == workload && r.seed == seed)
            .and_then(|r| r.layer.get(name).copied())
    };
    let mut problems = Vec::new();
    for r in runs {
        let callbacks = r.layer.get("script.callbacks").copied().unwrap_or(0.0);
        if (callbacks > 0.0) != (r.workload == "fleet_localization") {
            problems.push(format!("{}: script.callbacks = {callbacks}", r.workload));
        }
        if r.workload == "fleet_localization" {
            let idle = layer(&r.workload, r.seed, "wire.envelopes");
            let busy = layer("fleet_uplink", r.seed, "wire.envelopes");
            if let (Some(idle), Some(busy)) = (idle, busy) {
                if idle >= 0.02 * busy {
                    problems.push(format!(
                        "fleet_localization put {idle} envelopes on the wire, fleet_uplink {busy}"
                    ));
                }
            }
        }
    }
    problems
}

// ---- smoke ------------------------------------------------------------------

/// All four workloads at a twentieth of their size, in this process:
/// every output check holds (nothing undelivered after the drain, no
/// schema mismatch or error-log line, the script VM entered on
/// `fleet_localization` only), every end-to-end metric is a positive
/// number, and the digest is a function of the seed.
fn smoke() -> Result<(), String> {
    let t = std::time::Instant::now();
    for workload in workloads() {
        let ov = Overrides::smoke(workload);
        let a = pass(workload, 11, Mode::Plain, ov);
        let b = pass(workload, 11, Mode::Plain, ov);
        let c = pass(workload, 12, Mode::Plain, ov);
        for r in [&a, &b, &c] {
            if !r.correct() {
                return Err(format!(
                    "{workload} seed {}: {}",
                    r.seed,
                    r.problems.join("; ")
                ));
            }
            if r.failed != 0 || r.attempted == 0 {
                return Err(format!(
                    "{workload}: {} of {} failed",
                    r.failed, r.attempted
                ));
            }
            for m in END_TO_END {
                match r.e2e.get(m.name) {
                    Some(v) if v.is_finite() && *v > 0.0 => {}
                    other => return Err(format!("{workload}: {} = {other:?}", m.name)),
                }
            }
        }
        if a.digest != b.digest {
            return Err(format!(
                "{workload}: same seed, digests {} and {}",
                a.digest, b.digest
            ));
        }
        if a.digest == c.digest {
            return Err(format!(
                "{workload}: seeds 11 and 12 share digest {}",
                a.digest
            ));
        }
        println!(
            "smoke {workload:<20} ok  {} operations, digest {} / {}",
            a.attempted, a.digest, c.digest
        );
    }
    println!("smoke passed in {:.1} s", t.elapsed().as_secs_f64());
    Ok(())
}

// ---- command line -------------------------------------------------------------

struct Flags(Vec<String>);

impl Flags {
    fn take(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.0.remove(i);
        Ok(Some(self.0.remove(i)))
    }

    fn parse<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        match self.take(flag)? {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{flag}: cannot read `{v}`")),
        }
    }

    fn done(self) -> Result<(), String> {
        match self.0.first() {
            None => Ok(()),
            Some(extra) => Err(format!("unexpected argument `{extra}`")),
        }
    }
}

fn overrides(flags: &mut Flags) -> Result<Overrides, String> {
    Ok(Overrides {
        devices: flags.parse("--devices")?,
        sim_minutes: flags.parse("--sim-minutes")?,
        appends: flags.parse("--appends")?,
    })
}

fn known_workload(name: String) -> Result<String, String> {
    if workloads().any(|w| w == name) {
        Ok(name)
    } else {
        Err(format!("unknown workload `{name}`"))
    }
}

fn trace_flag(flags: &mut Flags) -> Result<bool, String> {
    match flags.take("--trace")?.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(v) => Err(format!("--trace takes 0 or 1, not `{v}`")),
    }
}

fn seconds_flag(flags: &mut Flags) -> Result<f64, String> {
    let s: f64 = flags.parse("--seconds")?.unwrap_or(DEFAULT_SECONDS);
    if s.is_finite() && (0.0..=600.0).contains(&s) {
        Ok(s)
    } else {
        Err(format!("--seconds out of range: {s}"))
    }
}

fn real_main() -> Result<bool, String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let command = match args.first().map(String::as_str) {
        Some("pass" | "suite" | "compare" | "smoke" | "manifest") => args.remove(0),
        Some("--smoke") => {
            args.remove(0);
            "smoke".to_owned()
        }
        Some("--help" | "-h") | None => {
            println!("{USAGE}");
            return Ok(true);
        }
        _ => "run".to_owned(),
    };
    let mut flags = Flags(args);
    match command.as_str() {
        "pass" => {
            let workload =
                known_workload(flags.take("--workload")?.ok_or("pass needs --workload")?)?;
            let seed = flags.parse("--seed")?.unwrap_or(DEFAULT_SEED);
            let mode = flags.take("--mode")?;
            let mode = [Mode::Plain, Mode::Traced, Mode::Obs]
                .into_iter()
                .find(|m| Some(m.name()) == mode.as_deref())
                .ok_or_else(|| format!("pass needs --mode plain|traced|obs, not {mode:?}"))?;
            let ov = overrides(&mut flags)?;
            flags.done()?;
            println!("{}", pass(&workload, seed, mode, ov).to_json());
            Ok(true)
        }
        "smoke" => {
            flags.done()?;
            smoke().map(|()| true)
        }
        "manifest" => {
            flags.done()?;
            print!("{}", metrics::manifest_json());
            Ok(true)
        }
        "compare" => {
            let [a, b] = flags.0.as_slice() else {
                return Err("compare takes two result files".into());
            };
            compare::compare_files(a, b)
        }
        "suite" => {
            let seeds: Vec<u64> = match flags.take("--seeds")? {
                None => vec![DEFAULT_SEED],
                Some(list) => list
                    .split(',')
                    .map(|s| s.parse().map_err(|_| format!("--seeds: cannot read `{s}`")))
                    .collect::<Result<_, _>>()?,
            };
            let seconds = seconds_flag(&mut flags)?;
            let trace = trace_flag(&mut flags)?;
            let out = flags.take("--out")?;
            let ov = overrides(&mut flags)?;
            flags.done()?;
            let mut runs = Vec::new();
            for workload in workloads() {
                for &seed in &seeds {
                    runs.push(run_workload(&RunArgs {
                        workload: workload.to_owned(),
                        seed,
                        seconds,
                        trace,
                        ov,
                        out: out.clone(),
                    })?);
                }
            }
            let mut all_correct = runs.iter().all(Record::correct);
            if trace {
                for p in cross_workload_problems(&runs) {
                    println!("CHECK FAILED: {p}");
                    all_correct = false;
                }
            }
            Ok(all_correct)
        }
        _ => {
            let workload = known_workload(flags.take("--workload")?.ok_or(USAGE)?)?;
            let a = RunArgs {
                workload,
                seed: flags.parse("--seed")?.unwrap_or(DEFAULT_SEED),
                seconds: seconds_flag(&mut flags)?,
                trace: trace_flag(&mut flags)?,
                ov: overrides(&mut flags)?,
                out: flags.take("--out")?,
            };
            flags.done()?;
            run_workload(&a).map(|run| run.correct())
        }
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        // An output check failed: the result line was printed with
        // `"correct": false`, and the exit code says so too.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("pogo-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
