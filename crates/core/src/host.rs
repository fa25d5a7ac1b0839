//! The script host: Table 1's 11-method JavaScript API plus the callback
//! watchdog (§4.4, §4.5).
//!
//! One [`ScriptHost`] wraps one running script. The host wires the
//! script's `publish`/`subscribe` calls into the owning context's broker,
//! its `setTimeout` into the power-aware scheduler, and `freeze`/`thaw`
//! into a persistent slot that survives script restarts and reboots
//! (§5.3's fix for interrupted clusters).

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use pogo_script::{ErrorKind, Interpreter, ObjMap, ScriptError, Value};
use pogo_sim::SimDuration;

use crate::broker::{Broker, SubscriptionId};
use crate::scheduler::Scheduler;
use crate::value::Msg;

/// Instruction budget per framework→script call: the deterministic
/// equivalent of §4.5's 100 ms watchdog. Calibrated at ~100 M interpreter
/// steps/second (Rhino with its class-file compiler, as Pogo used), so
/// 100 ms ≈ 10,000,000 steps. The paper's own clustering.js closes
/// multi-hour clusters (a thousand-odd members) inside one callback,
/// which costs a few million steps — comfortably inside the budget, as
/// it evidently was on the real deployment.
///
/// A step is one VM instruction, so what a step buys follows the
/// lowering: since the fused local-member read and the one-op counter
/// update (DESIGN §12, "Borrow, don't clone") the paper's scripts take
/// about a quarter fewer steps for the same source, and the budget
/// admits that much more work. It is an order-of-magnitude calibration
/// and stays at its round number.
pub const WATCHDOG_BUDGET: u64 = 10_000_000;

/// Budget for the script body at load time (initialization may be
/// heavier; still bounded).
const LOAD_BUDGET: u64 = WATCHDOG_BUDGET * 10;

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
    inner: Rc<RefCell<LogsInner>>,
}

#[derive(Debug, Default)]
struct LogsInner {
    logs: HashMap<String, Vec<String>>,
    obs: pogo_obs::Obs,
}

impl LogStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        LogStore::default()
    }

    /// Mirrors every appended line into `obs` as a `log`-category event
    /// (event name = log name, `line` field = the text). Script logs and
    /// middleware streams like the collector's `pogo-lint` warnings then
    /// show up in one trace. Shared by every clone of this store.
    pub fn wire_obs(&self, obs: &pogo_obs::Obs) {
        self.inner.borrow_mut().obs = obs.clone();
    }

    /// Appends a line to the named log.
    pub fn append(&self, log: &str, line: String) {
        let mut inner = self.inner.borrow_mut();
        if inner.obs.is_enabled() {
            inner.obs.event(
                "log",
                log.to_owned(),
                vec![pogo_obs::field("line", line.clone())],
            );
            inner.obs.metrics().inc("log.lines", 1);
        }
        inner.logs.entry(log.to_owned()).or_default().push(line);
    }

    /// Lines of one log.
    pub fn lines(&self, log: &str) -> Vec<String> {
        self.inner
            .borrow()
            .logs
            .get(log)
            .cloned()
            .unwrap_or_default()
    }
}

struct HostState {
    name: String,
    broker: Broker,
    scheduler: Scheduler,
    frozen: FrozenSlot,
    logs: LogStore,
    description: Option<String>,
    autostart: bool,
    prints: Vec<String>,
    subscriptions: Vec<SubscriptionId>,
    errors: Vec<String>,
    watchdog_trips: u64,
    callbacks_run: u64,
    steps_used: u64,
    publishes: u64,
    published_bytes: u64,
    stopped: bool,
    obs: pogo_obs::Obs,
}

/// One running script: interpreter + API bindings.
///
/// Cheap to clone; clones share the same script instance.
#[derive(Clone)]
pub struct ScriptHost {
    state: Rc<RefCell<HostState>>,
    interp: Rc<RefCell<Interpreter>>,
}

impl std::fmt::Debug for ScriptHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.state.borrow();
        f.debug_struct("ScriptHost")
            .field("name", &state.name)
            .field("subscriptions", &state.subscriptions.len())
            .field("callbacks_run", &state.callbacks_run)
            .field("watchdog_trips", &state.watchdog_trips)
            .field("stopped", &state.stopped)
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
        let state = Rc::new(RefCell::new(HostState {
            name: name.to_owned(),
            broker: broker.clone(),
            scheduler: scheduler.clone(),
            frozen,
            logs,
            description: None,
            autostart: true,
            prints: Vec::new(),
            subscriptions: Vec::new(),
            errors: Vec::new(),
            watchdog_trips: 0,
            callbacks_run: 0,
            steps_used: 0,
            publishes: 0,
            published_bytes: 0,
            stopped: false,
            obs: pogo_obs::Obs::off(),
        }));
        let interp = Rc::new(RefCell::new(Interpreter::new()));
        let host = ScriptHost { state, interp };
        host.install_api();
        host
    }

    /// Script name (e.g. `clustering.js`).
    pub fn name(&self) -> String {
        self.state.borrow().name.clone()
    }

    /// Feeds this host's watchdog trips, callback counts, and step
    /// consumption into `obs` (`script.*` metrics plus a
    /// `script`/`watchdog-trip` event per kill).
    pub fn set_obs(&self, obs: &pogo_obs::Obs) {
        self.state.borrow_mut().obs = obs.clone();
    }

    /// Registers an extra native function (e.g. the collector's
    /// `geolocate`). Must be called before [`ScriptHost::load`] for the
    /// body to see it.
    pub fn register_native(
        &self,
        name: &str,
        f: impl Fn(&mut Interpreter, &[Value]) -> Result<Value, ScriptError> + 'static,
    ) {
        self.interp.borrow_mut().register_native(name, f);
    }

    /// Parses and runs the script body.
    ///
    /// # Errors
    ///
    /// Returns the script's parse or runtime error; the host is then in
    /// the stopped state.
    pub fn load(&self, source: &str) -> Result<(), ScriptError> {
        let result = {
            let mut interp = self.interp.borrow_mut();
            interp.set_budget(Some(LOAD_BUDGET));
            // Compile once per distinct source (the cache is shared by
            // every simulated phone on this thread, so a fleet-wide
            // deployment compiles each script exactly once) and run the
            // shared chunks.
            let t0 = std::time::Instant::now();
            let compiled = pogo_script::compile_cached(source);
            let compile_us = t0.elapsed().as_micros() as f64;
            let r = compiled.and_then(|prog| {
                {
                    let state = self.state.borrow();
                    let m = state.obs.metrics();
                    m.inc("script.compiles", 1);
                    m.inc("script.compile.ops", prog.op_count);
                    m.inc("script.compile.fns", u64::from(prog.fn_count));
                    m.observe("script.compile_us", compile_us);
                }
                interp.run_compiled(&prog).map(|_| ())
            });
            let consumed = LOAD_BUDGET.saturating_sub(interp.steps_remaining());
            self.state.borrow_mut().steps_used += consumed;
            r
        };
        if let Err(e) = &result {
            let mut state = self.state.borrow_mut();
            state.errors.push(e.to_string());
            state.stopped = true;
        }
        result
    }

    /// Stops the script: releases every subscription and suppresses any
    /// still-scheduled callbacks. Frozen state and logs persist.
    pub fn stop(&self) {
        let (broker, subs) = {
            let mut state = self.state.borrow_mut();
            state.stopped = true;
            (
                state.broker.clone(),
                std::mem::take(&mut state.subscriptions),
            )
        };
        for id in subs {
            broker.unsubscribe(id);
        }
    }

    /// True after [`ScriptHost::stop`] or a fatal load error.
    pub fn is_stopped(&self) -> bool {
        self.state.borrow().stopped
    }

    /// `setDescription` value, if the script set one.
    pub fn description(&self) -> Option<String> {
        self.state.borrow().description.clone()
    }

    /// `setAutoStart` value (default `true`). The paper's UI lets users
    /// manually start scripts that opted out of autostart; this
    /// reproduction has no UI layer, so the flag is exposed for an
    /// embedder to honour.
    pub fn autostart(&self) -> bool {
        self.state.borrow().autostart
    }

    /// Debug output produced by `print`.
    pub fn prints(&self) -> Vec<String> {
        self.state.borrow().prints.clone()
    }

    /// Errors raised by callbacks (including watchdog trips).
    pub fn errors(&self) -> Vec<String> {
        self.state.borrow().errors.clone()
    }

    /// Number of watchdog (budget) kills.
    pub fn watchdog_trips(&self) -> u64 {
        self.state.borrow().watchdog_trips
    }

    /// Number of callbacks delivered into the script.
    pub fn callbacks_run(&self) -> u64 {
        self.state.borrow().callbacks_run
    }

    /// Interpreter steps this script has consumed (load + callbacks) —
    /// the basis of per-script power modelling (§6 future work, see
    /// [`crate::accounting`]).
    pub fn steps_used(&self) -> u64 {
        self.state.borrow().steps_used
    }

    /// Messages this script has published.
    pub fn publishes(&self) -> u64 {
        self.state.borrow().publishes
    }

    /// JSON bytes of the messages this script has published.
    pub fn published_bytes(&self) -> u64 {
        self.state.borrow().published_bytes
    }

    /// Calls a script function value under the watchdog. Used by the
    /// framework for subscription events and timers; suppressed once the
    /// host is stopped.
    pub fn invoke(&self, f: &Value, args: &[Value]) {
        if self.state.borrow().stopped {
            return;
        }
        let (result, consumed) = {
            let mut interp = self.interp.borrow_mut();
            interp.set_budget(Some(WATCHDOG_BUDGET));
            let r = interp.call(f, args);
            (r, WATCHDOG_BUDGET.saturating_sub(interp.steps_remaining()))
        };
        let mut state = self.state.borrow_mut();
        state.callbacks_run += 1;
        state.steps_used += consumed;
        state.obs.metrics().inc("script.callbacks", 1);
        state.obs.metrics().inc("script.steps", consumed);
        if let Err(e) = result {
            if e.kind() == ErrorKind::Timeout {
                state.watchdog_trips += 1;
                state.obs.metrics().inc("script.watchdog_trips", 1);
                state.obs.event(
                    "script",
                    "watchdog-trip",
                    vec![
                        pogo_obs::field("script", state.name.clone()),
                        pogo_obs::field("steps", consumed),
                    ],
                );
            }
            let line = format!("{}: {e}", state.name);
            state.errors.push(line);
        }
    }

    // ---- API installation --------------------------------------------------

    fn install_api(&self) {
        let state = Rc::downgrade(&self.state);
        let host = self.clone();
        let mut interp = self.interp.borrow_mut();

        // setDescription(description)
        {
            let state = state.clone();
            interp.register_native("setDescription", move |_, args| {
                if let (Some(state), Some(desc)) = (state.upgrade(), args.first()) {
                    state.borrow_mut().description = Some(desc.to_display_string());
                }
                Ok(Value::Null)
            });
        }
        // setAutoStart(start)
        {
            let state = state.clone();
            interp.register_native("setAutoStart", move |_, args| {
                if let Some(state) = state.upgrade() {
                    state.borrow_mut().autostart =
                        args.first().map(Value::is_truthy).unwrap_or(true);
                }
                Ok(Value::Null)
            });
        }
        // print(message1[, ...])
        {
            let state = state.clone();
            interp.register_native("print", move |_, args| {
                if let Some(state) = state.upgrade() {
                    state.borrow_mut().prints.push(join_args(args));
                }
                Ok(Value::Null)
            });
        }
        // log(message1[, ...]) — writes to the script's default log.
        {
            let state = state.clone();
            interp.register_native("log", move |_, args| {
                if let Some(state) = state.upgrade() {
                    let (logs, name) = {
                        let s = state.borrow();
                        (s.logs.clone(), s.name.clone())
                    };
                    logs.append(&name, join_args(args));
                }
                Ok(Value::Null)
            });
        }
        // logTo(logName, message1[, ...])
        {
            let state = state.clone();
            interp.register_native("logTo", move |_, args| {
                let log_name = args
                    .first()
                    .and_then(Value::as_str)
                    .ok_or_else(|| ScriptError::host("logTo: first argument must be a string"))?
                    .to_owned();
                if let Some(state) = state.upgrade() {
                    let logs = state.borrow().logs.clone();
                    logs.append(&log_name, join_args(&args[1..]));
                }
                Ok(Value::Null)
            });
        }
        // publish(channel, message) — Listing 2 also uses
        // publish(message, channel); accept both argument orders.
        {
            let state = state.clone();
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
                if let Some(state) = state.upgrade() {
                    let msg = Msg::from_script(&message);
                    let broker = {
                        let mut s = state.borrow_mut();
                        s.publishes += 1;
                        s.published_bytes += msg.json_size();
                        s.broker.clone()
                    };
                    broker.publish(&channel, &msg);
                }
                Ok(Value::Null)
            });
        }
        // subscribe(channel, function[, parameters]) -> Subscription
        {
            let state = state.clone();
            let host = host.clone();
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
                let params = args.get(2).map(Msg::from_script).unwrap_or(Msg::Null);
                let Some(state_rc) = state.upgrade() else {
                    return Ok(Value::Null);
                };
                let (broker, scheduler) = {
                    let s = state_rc.borrow();
                    (s.broker.clone(), s.scheduler.clone())
                };
                let sink_host = host.clone();
                let sink_sched = scheduler.clone();
                let id = broker.subscribe(&channel, params, move |_ch, msg, from| {
                    // Defer into the scheduler: pub/sub delivery is
                    // asynchronous and per-script serialized.
                    let host = sink_host.clone();
                    let handler = handler.clone();
                    let msg = msg.to_script();
                    let from_arg = match from {
                        Some(jid) => Value::str(jid),
                        None => Value::Null,
                    };
                    sink_sched.run_soon(move || host.invoke(&handler, &[msg, from_arg]));
                });
                state_rc.borrow_mut().subscriptions.push(id);
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
                let b = broker.clone();
                obj.insert(
                    "renew",
                    native_value("renew", move |_, _| {
                        b.set_active(id, true);
                        Ok(Value::Null)
                    }),
                );
                Ok(Value::object(obj))
            });
        }
        // freeze(object)
        {
            let state = state.clone();
            interp.register_native("freeze", move |_, args| {
                if let Some(state) = state.upgrade() {
                    let frozen = state.borrow().frozen.clone();
                    frozen.set(Some(
                        args.first().map(Msg::from_script).unwrap_or(Msg::Null),
                    ));
                }
                Ok(Value::Null)
            });
        }
        // thaw() -> object
        {
            let state = state.clone();
            interp.register_native("thaw", move |_, _| {
                let Some(state) = state.upgrade() else {
                    return Ok(Value::Null);
                };
                let frozen = state.borrow().frozen.clone();
                Ok(frozen.get().map(|m| m.to_script()).unwrap_or(Value::Null))
            });
        }
        // json(object) -> String
        interp.register_native("json", move |_, args| {
            let msg = args.first().map(Msg::from_script).unwrap_or(Msg::Null);
            Ok(Value::from(msg.to_json()))
        });
        // setTimeout(function, delay)
        {
            let host = host.clone();
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
                let scheduler = host.state.borrow().scheduler.clone();
                let host = host.clone();
                scheduler.run_later(SimDuration::from_millis(delay as u64), move || {
                    host.invoke(&f, &[]);
                });
                Ok(Value::Null)
            });
        }
    }
}

fn join_args(args: &[Value]) -> String {
    args.iter()
        .map(Value::to_display_string)
        .collect::<Vec<_>>()
        .join(" ")
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
        assert!(!h.autostart());
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
