//! The script host: Table 1's 11-method JavaScript API plus the callback
//! watchdog (§4.4, §4.5).
//!
//! One [`ScriptHost`] wraps one running script. The host wires the
//! script's `publish`/`subscribe` calls into the owning context's broker,
//! its `setTimeout` into the power-aware scheduler, and `freeze`/`thaw`
//! into a persistent slot that survives script restarts and reboots
//! (§5.3's fix for interrupted clusters).

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::rc::Rc;

use pogo_obs::Obs;
use pogo_script::{
    ErrorKind, Interpreter, ObjMap, ScriptError, Value, LOAD_BUDGET, WATCHDOG_BUDGET,
};
use pogo_sim::SimDuration;

use crate::broker::{Broker, SubscriptionId};
use crate::bump;
use crate::scheduler::Scheduler;
use crate::value::{too_deep, Msg, SeenStrings, WriteJson};

/// Persistent per-script `freeze`/`thaw` slot. Lives *outside* the script
/// host so it survives restarts and reboots, like the flash storage it
/// models.
#[derive(Debug, Clone, Default)]
pub struct FrozenSlot {
    slot: Rc<RefCell<Option<Msg>>>,
}

impl FrozenSlot {
    /// Creates an empty slot.
    pub fn new() -> Self {
        FrozenSlot::default()
    }

    /// The stored object, if any.
    pub fn get(&self) -> Option<Msg> {
        self.slot.borrow().clone()
    }

    /// Overwrites the stored object ("freeze will always overwrite any
    /// preexisting data").
    pub fn set(&self, value: Option<Msg>) {
        *self.slot.borrow_mut() = value;
    }
}

/// Persistent log storage (`log`/`logTo` write "lines of text to
/// permanent storage"). Shared per device; survives restarts.
#[derive(Debug, Clone, Default)]
pub struct LogStore {
    inner: Rc<LogsInner>,
}

#[derive(Debug, Default)]
struct LogsInner {
    logs: RefCell<HashMap<String, Log>>,
    obs: Obs,
}

/// One log: its lines end to end in a single buffer and where each one
/// ends. A log only grows, and a line of its own costs a `String` header
/// and an allocator header on top of its text.
#[derive(Debug, Default)]
struct Log {
    text: String,
    ends: Vec<usize>,
}

impl std::fmt::Write for Log {
    /// Adds to the line being written; [`Log::end_line`] closes it.
    fn write_str(&mut self, piece: &str) -> std::fmt::Result {
        // A log is kept for good and a fleet holds one per phone, so it
        // grows by an eighth: doubling leaves a quarter of all log memory
        // unused on average, and every byte is still copied only nine
        // times over.
        if self.text.capacity() - self.text.len() < piece.len() {
            let more = piece.len().max(self.text.len() / 8);
            self.text.reserve_exact(more);
        }
        self.text.push_str(piece);
        Ok(())
    }
}

impl Log {
    fn end_line(&mut self) {
        self.ends.push(self.text.len());
    }

    fn lines(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts
            .zip(&self.ends)
            .map(|(from, &to)| &self.text[from..to])
    }
}

impl LogStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        LogStore::default()
    }

    /// An empty store that mirrors every appended line into `obs` as a
    /// `log`-category event (event name = log name, `line` field = the
    /// text). Script logs and middleware streams like the collector's
    /// `pogo-lint` warnings then show up in one trace.
    pub fn with_obs(obs: &Obs) -> Self {
        LogStore {
            inner: Rc::new(LogsInner {
                logs: RefCell::default(),
                obs: obs.clone(),
            }),
        }
    }

    /// Appends a line to the named log. The line writes itself into the
    /// log's buffer: a `&str`, a `String` and `format_args!` all do, and
    /// none of them is copied anywhere else on the way.
    pub fn append(&self, log: &str, line: impl std::fmt::Display) {
        use std::fmt::Write as _;
        let mut logs = self.inner.logs.borrow_mut();
        let known = match logs.get_mut(log) {
            Some(known) => known,
            None => logs.entry(log.to_owned()).or_default(),
        };
        let from = known.text.len();
        write!(known, "{line}").expect("a log takes whatever is written to it");
        known.end_line();
        let obs = &self.inner.obs;
        if obs.is_enabled() {
            let line = known.text[from..].to_owned();
            obs.event("log", log.to_owned(), vec![pogo_obs::field("line", line)]);
            obs.metrics().inc("log.lines", 1);
        }
    }

    /// Lines of one log.
    pub fn lines(&self, log: &str) -> Vec<String> {
        let logs = self.inner.logs.borrow();
        logs.get(log)
            .map(|l| l.lines().map(str::to_owned).collect())
            .unwrap_or_default()
    }

    /// Number of lines in one log.
    pub(crate) fn line_count(&self, log: &str) -> usize {
        self.inner
            .logs
            .borrow()
            .get(log)
            .map_or(0, |l| l.ends.len())
    }
}

/// Wiring (name through `obs`) is set once in [`ScriptHost::with_obs`];
/// the cells hold what the running script changes.
struct HostInner {
    name: String,
    broker: Broker,
    scheduler: Scheduler,
    frozen: FrozenSlot,
    logs: LogStore,
    obs: Obs,
    interp: RefCell<Interpreter>,
    /// Short strings the script has received in messages ([`SeenStrings`]).
    strings: RefCell<SeenStrings>,
    description: RefCell<Option<String>>,
    prints: RefCell<Vec<String>>,
    subscriptions: RefCell<Vec<SubscriptionId>>,
    errors: RefCell<Vec<String>>,
    watchdog_trips: Cell<u64>,
    callbacks_run: Cell<u64>,
    steps_used: Cell<u64>,
    dispatches_used: Cell<u64>,
    publishes: Cell<u64>,
    published_bytes: Cell<u64>,
    stopped: Cell<bool>,
}

/// One running script: interpreter + API bindings.
///
/// Cheap to clone; clones share the same script instance.
#[derive(Clone)]
pub struct ScriptHost {
    inner: Rc<HostInner>,
}

impl std::fmt::Debug for ScriptHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = &self.inner;
        f.debug_struct("ScriptHost")
            .field("name", &inner.name)
            .field("subscriptions", &inner.subscriptions.borrow().len())
            .field("callbacks_run", &inner.callbacks_run.get())
            .field("watchdog_trips", &inner.watchdog_trips.get())
            .field("stopped", &inner.stopped.get())
            .finish()
    }
}

impl ScriptHost {
    /// Creates a host for `source`, binding the Pogo API to `broker` and
    /// `scheduler`. The script body does **not** run yet — call
    /// [`ScriptHost::load`] (after optionally registering extension
    /// natives with [`ScriptHost::register_native`]).
    pub fn new(
        name: &str,
        broker: &Broker,
        scheduler: &Scheduler,
        frozen: FrozenSlot,
        logs: LogStore,
    ) -> Self {
        Self::with_obs(name, broker, scheduler, frozen, logs, &Obs::off())
    }

    /// Like [`ScriptHost::new`], additionally feeding this host's
    /// watchdog trips, callback counts, and step consumption into `obs`
    /// (`script.*` metrics plus a `script`/`watchdog-trip` event per
    /// kill).
    pub fn with_obs(
        name: &str,
        broker: &Broker,
        scheduler: &Scheduler,
        frozen: FrozenSlot,
        logs: LogStore,
        obs: &Obs,
    ) -> Self {
        let host = ScriptHost {
            inner: Rc::new(HostInner {
                name: name.to_owned(),
                broker: broker.clone(),
                scheduler: scheduler.clone(),
                frozen,
                logs,
                obs: obs.clone(),
                interp: RefCell::new(Interpreter::new()),
                strings: RefCell::default(),
                description: RefCell::new(None),
                prints: RefCell::default(),
                subscriptions: RefCell::default(),
                errors: RefCell::default(),
                watchdog_trips: Cell::new(0),
                callbacks_run: Cell::new(0),
                steps_used: Cell::new(0),
                dispatches_used: Cell::new(0),
                publishes: Cell::new(0),
                published_bytes: Cell::new(0),
                stopped: Cell::new(false),
            }),
        };
        host.install_api();
        host
    }

    /// Script name (e.g. `clustering.js`).
    pub fn name(&self) -> String {
        self.inner.name.clone()
    }

    /// Registers an extra native function (e.g. the collector's
    /// `geolocate`). Must be called before [`ScriptHost::load`] for the
    /// body to see it.
    pub fn register_native(
        &self,
        name: &str,
        f: impl Fn(&mut Interpreter, &[Value]) -> Result<Value, ScriptError> + 'static,
    ) {
        self.inner.interp.borrow_mut().register_native(name, f);
    }

    /// Parses and runs the script body.
    ///
    /// # Errors
    ///
    /// Returns the script's parse or runtime error; the host is then in
    /// the stopped state.
    pub fn load(&self, source: &str) -> Result<(), ScriptError> {
        let inner = &self.inner;
        let result = {
            let mut interp = inner.interp.borrow_mut();
            let dispatched = interp.dispatches();
            interp.set_budget(Some(LOAD_BUDGET));
            // Compile once per distinct source (the cache is shared by
            // every simulated phone on this thread, so a fleet-wide
            // deployment compiles each script exactly once) and run the
            // shared chunks.
            let t0 = std::time::Instant::now();
            let compiled = pogo_script::compile_cached(source);
            let compile_us = t0.elapsed().as_micros() as f64;
            let r = compiled.and_then(|prog| {
                let m = inner.obs.metrics();
                m.inc("script.compiles", 1);
                m.inc("script.compile.ops", prog.op_count);
                m.inc("script.compile.fns", u64::from(prog.fn_count));
                m.observe("script.compile_us", compile_us);
                interp.run_compiled(&prog).map(|_| ())
            });
            let consumed = LOAD_BUDGET.saturating_sub(interp.steps_remaining());
            bump(&inner.steps_used, consumed);
            bump(&inner.dispatches_used, interp.dispatches() - dispatched);
            r
        };
        if let Err(e) = &result {
            inner.errors.borrow_mut().push(e.to_string());
            inner.stopped.set(true);
        }
        result
    }

    /// Stops the script: releases every subscription and suppresses any
    /// still-scheduled callbacks. Frozen state and logs persist.
    pub fn stop(&self) {
        self.inner.stopped.set(true);
        let subs = self.inner.subscriptions.take();
        for id in subs {
            self.inner.broker.unsubscribe(id);
        }
    }

    /// `setDescription` value, if the script set one.
    pub fn description(&self) -> Option<String> {
        self.inner.description.borrow().clone()
    }

    /// Debug output produced by `print`.
    pub fn prints(&self) -> Vec<String> {
        self.inner.prints.borrow().clone()
    }

    /// Errors raised by callbacks (including watchdog trips).
    pub fn errors(&self) -> Vec<String> {
        self.inner.errors.borrow().clone()
    }

    /// Number of watchdog (budget) kills.
    pub fn watchdog_trips(&self) -> u64 {
        self.inner.watchdog_trips.get()
    }

    /// Number of callbacks delivered into the script.
    pub fn callbacks_run(&self) -> u64 {
        self.inner.callbacks_run.get()
    }

    /// Interpreter steps this script has consumed (load + callbacks) —
    /// the basis of per-script power modelling (§6 future work, see
    /// [`crate::accounting`]).
    pub fn steps_used(&self) -> u64 {
        self.inner.steps_used.get()
    }

    /// VM instructions dispatched to run those steps: fewer than the
    /// steps, because one fused instruction stands for several ops and is
    /// billed the steps of all of them. Steps are what the script is
    /// charged; dispatches are what the host's CPU paid.
    pub fn dispatches_used(&self) -> u64 {
        self.inner.dispatches_used.get()
    }

    /// Messages this script has published.
    pub fn publishes(&self) -> u64 {
        self.inner.publishes.get()
    }

    /// JSON bytes of the messages this script has published.
    pub(crate) fn published_bytes(&self) -> u64 {
        self.inner.published_bytes.get()
    }

    /// Calls a script function value under the watchdog. Used by the
    /// framework for subscription events and timers; suppressed once the
    /// host is stopped.
    pub(crate) fn invoke(&self, f: &Value, args: &[Value]) {
        let inner = &self.inner;
        if inner.stopped.get() {
            return;
        }
        let (result, consumed) = {
            let mut interp = inner.interp.borrow_mut();
            let dispatched = interp.dispatches();
            interp.set_budget(Some(WATCHDOG_BUDGET));
            let r = interp.call(f, args);
            bump(&inner.dispatches_used, interp.dispatches() - dispatched);
            (r, WATCHDOG_BUDGET.saturating_sub(interp.steps_remaining()))
        };
        bump(&inner.callbacks_run, 1);
        bump(&inner.steps_used, consumed);
        inner.obs.metrics().inc("script.callbacks", 1);
        inner.obs.metrics().inc("script.steps", consumed);
        if let Err(e) = result {
            if e.kind() == ErrorKind::Timeout {
                bump(&inner.watchdog_trips, 1);
                inner.obs.metrics().inc("script.watchdog_trips", 1);
                inner.obs.event(
                    "script",
                    "watchdog-trip",
                    vec![
                        pogo_obs::field("script", inner.name.clone()),
                        pogo_obs::field("steps", consumed),
                    ],
                );
            }
            let line = format!("{}: {e}", inner.name);
            inner.errors.borrow_mut().push(line);
        }
    }

    // ---- API installation --------------------------------------------------

    /// The natives hold the host weakly (the host owns the interpreter
    /// that owns them); the callbacks `subscribe` and `setTimeout` hand to
    /// the broker and the scheduler hold it strongly.
    fn install_api(&self) {
        let weak = Rc::downgrade(&self.inner);
        let mut interp = self.inner.interp.borrow_mut();

        // setDescription(description)
        {
            let weak = weak.clone();
            interp.register_native("setDescription", move |_, args| {
                if let (Some(inner), Some(desc)) = (weak.upgrade(), args.first()) {
                    *inner.description.borrow_mut() = Some(desc.to_display_string());
                }
                Ok(Value::Null)
            });
        }
        // setAutoStart(start): accepted and ignored. The paper's UI lets
        // users start by hand a script that opted out; there is no UI here,
        // so every deployed script starts.
        interp.register_native("setAutoStart", |_, _| Ok(Value::Null));
        // print(message1[, ...])
        {
            let weak = weak.clone();
            interp.register_native("print", move |_, args| {
                if let Some(inner) = weak.upgrade() {
                    inner.prints.borrow_mut().push(Joined(args).to_string());
                }
                Ok(Value::Null)
            });
        }
        // log(message1[, ...]) — writes to the script's default log.
        {
            let weak = weak.clone();
            interp.register_native("log", move |_, args| {
                if let Some(inner) = weak.upgrade() {
                    inner.logs.append(&inner.name, Joined(args));
                }
                Ok(Value::Null)
            });
        }
        // logTo(logName, message1[, ...])
        {
            let weak = weak.clone();
            interp.register_native("logTo", move |_, args| {
                let log_name = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| ScriptError::host("logTo: first argument must be a string"))?;
                if let Some(inner) = weak.upgrade() {
                    inner.logs.append(log_name, Joined(&args[1..]));
                }
                Ok(Value::Null)
            });
        }
        // publish(channel, message) — Listing 2 also uses
        // publish(message, channel); accept both argument orders.
        {
            let weak = weak.clone();
            interp.register_native("publish", move |_, args| {
                // Script strings are already `Rc<str>`; clone the handle
                // instead of allocating a `String` per publish.
                let (channel, message) = match (args.first(), args.get(1)) {
                    (Some(Value::Str(ch)), msg) => {
                        (ch.clone(), msg.cloned().unwrap_or(Value::Null))
                    }
                    (Some(msg), Some(Value::Str(ch))) => (ch.clone(), msg.clone()),
                    _ => return Err(ScriptError::host("publish: expected (channel, message)")),
                };
                if let Some(inner) = weak.upgrade() {
                    let msg = Msg::from_script(&message)?;
                    bump(&inner.publishes, 1);
                    bump(&inner.published_bytes, msg.json_size());
                    inner.broker.publish(&channel, &msg);
                }
                Ok(Value::Null)
            });
        }
        // subscribe(channel, function[, parameters]) -> Subscription
        {
            let weak = weak.clone();
            interp.register_native("subscribe", move |_, args| {
                let channel = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| ScriptError::host("subscribe: channel must be a string"))?
                    .to_owned();
                let handler = match args.get(1) {
                    Some(f @ (Value::Func(_) | Value::Native(_))) => f.clone(),
                    _ => {
                        return Err(ScriptError::host(
                            "subscribe: second argument must be a function",
                        ))
                    }
                };
                let params = args
                    .get(2)
                    .map(Msg::from_script)
                    .transpose()?
                    .unwrap_or(Msg::Null);
                let Some(inner) = weak.upgrade() else {
                    return Ok(Value::Null);
                };
                let broker = inner.broker.clone();
                let sink_host = ScriptHost {
                    inner: inner.clone(),
                };
                let id = broker.subscribe(&channel, params, move |_ch, msg, from| {
                    // Defer into the scheduler: pub/sub delivery is
                    // asynchronous and per-script serialized.
                    let host = sink_host.clone();
                    let handler = handler.clone();
                    let msg = msg.to_script(&mut sink_host.inner.strings.borrow_mut());
                    let from_arg = match from {
                        Some(jid) => Value::str(jid),
                        None => Value::Null,
                    };
                    sink_host
                        .inner
                        .scheduler
                        .run_soon(move || host.invoke(&handler, &[msg, from_arg]));
                });
                inner.subscriptions.borrow_mut().push(id);
                // Build the Subscription object: { release(), renew() }.
                let mut obj = ObjMap::new();
                let b = broker.clone();
                obj.insert(
                    "release",
                    native_value("release", move |_, _| {
                        b.set_active(id, false);
                        Ok(Value::Null)
                    }),
                );
                obj.insert(
                    "renew",
                    native_value("renew", move |_, _| {
                        broker.set_active(id, true);
                        Ok(Value::Null)
                    }),
                );
                Ok(Value::object(obj))
            });
        }
        // freeze(object)
        {
            let weak = weak.clone();
            interp.register_native("freeze", move |_, args| {
                let frozen = args
                    .first()
                    .map(Msg::from_script)
                    .transpose()?
                    .unwrap_or(Msg::Null);
                if let Some(inner) = weak.upgrade() {
                    inner.frozen.set(Some(frozen));
                }
                Ok(Value::Null)
            });
        }
        // thaw() -> object
        {
            let weak = weak.clone();
            interp.register_native("thaw", move |_, _| {
                let Some(inner) = weak.upgrade() else {
                    return Ok(Value::Null);
                };
                Ok(inner
                    .frozen
                    .get()
                    .map(|m| m.to_script(&mut inner.strings.borrow_mut()))
                    .unwrap_or(Value::Null))
            });
        }
        // json(object) -> String
        interp.register_native("json", move |_, args| {
            let value = args.first().unwrap_or(&Value::Null);
            value
                .with_json(|json| Value::str(json))
                .map_err(|_| too_deep())
        });
        // setTimeout(function, delay)
        interp.register_native("setTimeout", move |_, args| {
            let f = match args.first() {
                Some(f @ (Value::Func(_) | Value::Native(_))) => f.clone(),
                _ => {
                    return Err(ScriptError::host(
                        "setTimeout: first argument must be a function",
                    ))
                }
            };
            let delay = args.get(1).and_then(Value::as_num).unwrap_or(0.0).max(0.0);
            let Some(inner) = weak.upgrade() else {
                return Ok(Value::Null);
            };
            let host = ScriptHost {
                inner: inner.clone(),
            };
            inner
                .scheduler
                .run_later(SimDuration::from_millis(delay as u64), move || {
                    host.invoke(&f, &[]);
                });
            Ok(Value::Null)
        });
    }
}

/// The arguments of `print`, `log` and `logTo` as one line: each as it
/// displays, a space between. A string argument is written as it is,
/// without a copy of its own.
struct Joined<'a>(&'a [Value]);

impl std::fmt::Display for Joined<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (i, arg) in self.0.iter().enumerate() {
            if i > 0 {
                f.write_str(" ")?;
            }
            match arg {
                Value::Str(s) => f.write_str(s)?,
                other => f.write_str(&other.to_display_string())?,
            }
        }
        Ok(())
    }
}

fn native_value(
    name: &str,
    f: impl Fn(&mut Interpreter, &[Value]) -> Result<Value, ScriptError> + 'static,
) -> Value {
    Value::Native(Rc::new(pogo_script::NativeFn {
        name: name.to_owned(),
        func: Box::new(f),
    }))
}

/// Test hooks: nothing outside this crate's unit tests calls these.
#[cfg(test)]
impl ScriptHost {
    /// True after [`ScriptHost::stop`] or a fatal load error.
    pub(crate) fn is_stopped(&self) -> bool {
        self.inner.stopped.get()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_platform::{Cpu, CpuConfig, EnergyMeter};
    use pogo_sim::Sim;

    fn setup() -> (Sim, Broker, Scheduler) {
        let sim = Sim::new();
        let meter = EnergyMeter::new(&sim);
        let cpu = Cpu::new(&sim, &meter, CpuConfig::default());
        // Keep the CPU awake for host tests: we are testing API logic,
        // not power management.
        std::mem::forget(cpu.acquire_wake_lock());
        (sim, Broker::new(), Scheduler::new(&cpu))
    }

    fn host(broker: &Broker, scheduler: &Scheduler) -> ScriptHost {
        ScriptHost::new(
            "test.js",
            broker,
            scheduler,
            FrozenSlot::new(),
            LogStore::new(),
        )
    }

    #[test]
    fn set_description_and_autostart() {
        let (_sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load("setDescription('Wi-Fi localization'); setAutoStart(false);")
            .unwrap();
        assert_eq!(h.description().as_deref(), Some("Wi-Fi localization"));
        assert!(h.errors().is_empty());
    }

    #[test]
    fn print_and_logs() {
        let (_sim, broker, sched) = setup();
        let logs = LogStore::new();
        let h = ScriptHost::new("s.js", &broker, &sched, FrozenSlot::new(), logs.clone());
        h.load("print('hello', 42); log('line1'); logTo('raw', 'a', 1);")
            .unwrap();
        assert_eq!(h.prints(), vec!["hello 42"]);
        assert_eq!(logs.lines("s.js"), vec!["line1"]);
        assert_eq!(logs.lines("raw"), vec!["a 1"]);
    }

    #[test]
    fn log_lines_come_back_as_appended() {
        let logs = LogStore::new();
        let mut model: HashMap<&str, Vec<String>> = HashMap::new();
        for i in 0..600usize {
            let log = ["raw-scans", "s.js", ""][i % 3];
            let line = match i % 5 {
                0 => String::new(),
                1 => "\u{e9}\u{1F600}".repeat(i % 40),
                _ => format!("line {i} of {log}"),
            };
            logs.append(log, line.clone());
            model.entry(log).or_default().push(line);
            assert_eq!(logs.line_count(log), model[log].len());
        }
        for (log, lines) in &model {
            assert_eq!(&logs.lines(log), lines, "{log:?}");
        }
        assert!(logs.lines("absent").is_empty());
        assert_eq!(logs.line_count("absent"), 0);
    }

    #[test]
    fn publish_reaches_broker_subscribers() {
        let (_sim, broker, sched) = setup();
        let seen: Rc<RefCell<Vec<Msg>>> = Rc::new(RefCell::new(Vec::new()));
        let s = seen.clone();
        broker.subscribe("out", Msg::Null, move |_, m, _| {
            s.borrow_mut().push(m.clone())
        });
        let h = host(&broker, &sched);
        h.load("publish('out', { x: 1 });").unwrap();
        assert_eq!(seen.borrow().len(), 1);
        assert_eq!(seen.borrow()[0].get("x").and_then(Msg::as_num), Some(1.0));
    }

    #[test]
    fn publish_accepts_listing2_argument_order() {
        let (_sim, broker, sched) = setup();
        let seen = Rc::new(RefCell::new(0));
        let s = seen.clone();
        broker.subscribe("filtered-scans", Msg::Null, move |_, _, _| {
            *s.borrow_mut() += 1
        });
        let h = host(&broker, &sched);
        h.load("publish({ v: 2 }, 'filtered-scans');").unwrap();
        assert_eq!(*seen.borrow(), 1);
    }

    #[test]
    fn subscribe_delivers_asynchronously_with_watchdog() {
        let (sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load(
            "var got = [];
             subscribe('battery', function (msg) { got.push(msg.voltage); });",
        )
        .unwrap();
        broker.publish("battery", &Msg::obj([("voltage", Msg::Num(3.9))]));
        assert_eq!(h.callbacks_run(), 0, "delivery is deferred");
        sim.run_until_idle();
        assert_eq!(h.callbacks_run(), 1);
        assert!(h.errors().is_empty());
    }

    #[test]
    fn subscription_release_and_renew_from_script() {
        let (sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load(
            "var n = 0;
             var sub = subscribe('ch', function (m) { n = n + 1; });
             sub.release();",
        )
        .unwrap();
        broker.publish("ch", &Msg::Null);
        sim.run_until_idle();
        assert_eq!(h.callbacks_run(), 0, "released subscription is silent");
        // Renew via a second entry point.
        h.load("sub.renew();").unwrap();
        broker.publish("ch", &Msg::Null);
        sim.run_until_idle();
        assert_eq!(h.callbacks_run(), 1);
    }

    #[test]
    fn subscription_params_visible_to_sensor_side() {
        let (_sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load("subscribe('wifi-scan', function (m) {}, { interval: 60000 });")
            .unwrap();
        let subs = broker.subscriptions_on("wifi-scan");
        assert_eq!(subs.len(), 1);
        assert_eq!(
            subs[0].params.get("interval").and_then(Msg::as_num),
            Some(60_000.0)
        );
    }

    #[test]
    fn freeze_thaw_persists_across_restart() {
        let (_sim, broker, sched) = setup();
        let slot = FrozenSlot::new();
        let h1 = ScriptHost::new("s.js", &broker, &sched, slot.clone(), LogStore::new());
        h1.load("freeze({ window: [1, 2, 3] });").unwrap();
        h1.stop();
        // "Restart": a brand new host with the same slot.
        let h2 = ScriptHost::new("s.js", &broker, &sched, slot, LogStore::new());
        h2.load("var state = thaw(); print(state.window.length);")
            .unwrap();
        assert_eq!(h2.prints(), vec!["3"]);
    }

    #[test]
    fn thaw_without_freeze_is_null() {
        let (_sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load("print(thaw() == null);").unwrap();
        assert_eq!(h.prints(), vec!["true"]);
    }

    #[test]
    fn json_serializes_objects() {
        let (_sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load("print(json({ a: 1, b: [true, null] }));").unwrap();
        assert_eq!(h.prints(), vec![r#"{"a":1,"b":[true,null]}"#]);
    }

    /// A value that holds itself, or one nested 300,000 deep, used to take
    /// the whole process down with a stack overflow in each of the calls
    /// that hand a value to the host. Each now raises the one error in the
    /// callback that made it, and the script goes on.
    #[test]
    fn values_too_deep_to_leave_a_script_raise_and_the_host_runs_on() {
        let shapes = [
            "var a = []; a.push(a);",
            "var a = []; for (var k = 0; k < 300000; k++) { a = [a]; }",
        ];
        let calls = [
            "json(a)",
            "publish('out', a)",
            "publish(a, 'out')",
            "freeze(a)",
            "subscribe('x', function (m) {}, a)",
        ];
        for shape in shapes {
            for call in calls {
                let (sim, broker, sched) = setup();
                let h = host(&broker, &sched);
                h.load(&format!(
                    "{shape}\n\
                     subscribe('go', function (m) {{ {call}; print('unreachable'); }});\n\
                     subscribe('ok', function (m) {{ print('ok'); }});"
                ))
                .unwrap();
                broker.publish("go", &Msg::Null);
                sim.run_until_idle();
                let errors = h.errors();
                assert_eq!(errors.len(), 1, "{shape} {call}: {errors:?}");
                assert!(
                    errors[0].ends_with(&format!("host error at line 2: {}", too_deep().message())),
                    "{shape} {call}: {}",
                    errors[0]
                );
                broker.publish("ok", &Msg::Null);
                sim.run_until_idle();
                assert_eq!(h.prints(), vec!["ok"], "{shape} {call}");
                assert_eq!(broker.subscriptions_on("x").len(), 0, "{call}");
            }
        }
    }

    /// The deepest value `publish` takes is the deepest the collector
    /// decodes inside the envelope it travels in; one level deeper is
    /// refused by both, and by `json`, `freeze` and `subscribe` alike.
    #[test]
    fn the_deepest_value_a_script_may_publish_is_the_deepest_the_collector_decodes() {
        use crate::proto::{ControlMsg, DataRef};
        use crate::value::MAX_VALUE_DEPTH;
        let nest =
            |levels: usize| format!("var a = 1; for (var i = 0; i < {levels}; i++) {{ a = [a]; }}");
        let envelope = |msg: &Msg| {
            let data = DataRef {
                exp: "e",
                channel: "out",
                msg,
                sub_ref: None,
            };
            (data.to_json(), data.to_control())
        };
        let (_sim, broker, sched) = setup();
        let seen: Rc<RefCell<Vec<Msg>>> = Rc::default();
        let s = seen.clone();
        broker.subscribe("out", Msg::Null, move |_, m, _| {
            s.borrow_mut().push(m.clone())
        });

        let deepest = host(&broker, &sched);
        deepest
            .load(&format!(
                "{}\npublish('out', a); freeze(a); print(json(a).length);\n\
                 subscribe('x', function (m) {{}}, a);",
                nest(MAX_VALUE_DEPTH)
            ))
            .unwrap();
        let open = 2 * MAX_VALUE_DEPTH + 1;
        assert_eq!(deepest.prints(), vec![open.to_string()]);
        let published = seen.borrow()[0].clone();
        let (wire, sent) = envelope(&published);
        assert_eq!(ControlMsg::from_json(&wire).unwrap(), sent);

        let deeper = Msg::Arr(vec![published]);
        let (wire, _) = envelope(&deeper);
        let err = ControlMsg::from_json(&wire).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
        for call in [
            "publish('out', a)",
            "freeze(a)",
            "json(a)",
            "subscribe('x', function (m) {}, a)",
        ] {
            let h = host(&broker, &sched);
            let err = h
                .load(&format!("{} a = [a]; {call};", nest(MAX_VALUE_DEPTH)))
                .unwrap_err();
            assert_eq!(err.message(), too_deep().message(), "{call}");
        }
        assert_eq!(seen.borrow().len(), 1, "the deeper value was never sent");
    }

    #[test]
    fn set_timeout_fires_later() {
        let (sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load("setTimeout(function () { print('fired'); }, 5000);")
            .unwrap();
        sim.run_for(SimDuration::from_secs(4));
        assert!(h.prints().is_empty());
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(h.prints(), vec!["fired"]);
    }

    #[test]
    fn watchdog_kills_runaway_callback_but_script_survives() {
        let (sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load(
            "var ok = 0;
             subscribe('bad', function (m) { while (true) {} });
             subscribe('good', function (m) { ok++; print('ok ' + ok); });",
        )
        .unwrap();
        broker.publish("bad", &Msg::Null);
        sim.run_until_idle();
        assert_eq!(h.watchdog_trips(), 1);
        // The script keeps working afterwards.
        broker.publish("good", &Msg::Null);
        sim.run_until_idle();
        assert_eq!(h.prints(), vec!["ok 1"]);
    }

    #[test]
    fn stop_releases_subscriptions_and_suppresses_callbacks() {
        let (sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load("subscribe('ch', function (m) { print('no'); });")
            .unwrap();
        broker.publish("ch", &Msg::Null); // queued
        h.stop();
        sim.run_until_idle();
        assert!(h.prints().is_empty(), "queued callback suppressed");
        assert!(!broker.has_active_subscribers("ch"));
        assert!(h.is_stopped());
    }

    #[test]
    fn load_error_marks_stopped() {
        let (_sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        assert!(h.load("var = broken").is_err());
        assert!(h.is_stopped());
        assert_eq!(h.errors().len(), 1);
    }

    #[test]
    fn extension_natives_are_visible() {
        let (_sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.register_native("geolocate", |_, _| {
            let mut obj = ObjMap::new();
            obj.insert("lat", Value::from(52.0));
            Ok(Value::object(obj))
        });
        h.load("print(geolocate({}).lat);").unwrap();
        assert_eq!(h.prints(), vec!["52"]);
    }

    #[test]
    fn subscriber_sees_origin_attribution() {
        let (sim, broker, sched) = setup();
        let h = host(&broker, &sched);
        h.load("subscribe('battery', function (msg, from) { print(from + '=' + msg.v); });")
            .unwrap();
        broker.publish_from(
            "battery",
            &Msg::obj([("v", Msg::Num(4.0))]),
            Some("device-1@pogo"),
        );
        sim.run_until_idle();
        assert_eq!(h.prints(), vec!["device-1@pogo=4"]);
    }
}
