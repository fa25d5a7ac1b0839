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
use std::rc::{Rc, Weak};

use pogo_obs::Obs;
use pogo_script::value::intern;
use pogo_script::{
    ErrorKind, Interpreter, ObjMap, ScriptError, Value, LOAD_BUDGET, WATCHDOG_BUDGET,
};
use pogo_sim::SimDuration;

use crate::broker::{Broker, SubscriptionId};
use crate::bump;
use crate::lz77;
use crate::scheduler::Scheduler;
use crate::value::{refusal, Msg, SeenStrings, WriteJson};

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

/// Text a log holds unsealed: what its open segment is allocated at, per
/// log. The window is the segment, so smaller ones pack worse and larger
/// ones cost more open room than they save: `fleet_localization`'s
/// `raw-scans` text packs to 20.4 % of itself in 4 KiB segments, 19.1 %
/// in 8 KiB and 18.2 % in 16 KiB.
const SEGMENT: usize = 4096;

/// One log: sealed segments, then one open segment its lines are written
/// into. A log only grows; when the open segment has no room for the next
/// piece of text, its complete lines are sealed.
#[derive(Debug, Default)]
struct Log {
    /// Sealed segments, oldest first. Each is the byte length of the line
    /// lengths, the line lengths, then the lines' text, LZ77-packed where
    /// that is shorter; all varints but the text.
    sealed: Vec<Box<[u8]>>,
    /// Complete lines not yet sealed, then the line being written.
    open: String,
    /// Lengths of the complete lines in `open`, as varints.
    open_lens: Vec<u8>,
    /// Where the line being written starts in `open`.
    line_start: usize,
    /// Lines in the log, sealed and open.
    line_count: usize,
}

impl std::fmt::Write for Log {
    /// Adds to the line being written; [`Log::end_line`] closes it.
    fn write_str(&mut self, piece: &str) -> std::fmt::Result {
        if self.open.capacity() - self.open.len() < piece.len() {
            self.seal();
            let needed = self.open.len() + piece.len();
            if needed <= SEGMENT {
                self.open.reserve_exact(SEGMENT - self.open.len());
            } else {
                // A line longer than a segment grows its own buffer; the
                // next seal gives the room back.
                self.open.reserve(piece.len());
            }
        }
        self.open.push_str(piece);
        Ok(())
    }
}

impl Log {
    /// Closes the line being written and returns it.
    fn end_line(&mut self) -> &str {
        let start = std::mem::replace(&mut self.line_start, self.open.len());
        lz77::put_varint(&mut self.open_lens, self.open.len() - start);
        self.line_count += 1;
        &self.open[start..]
    }

    /// Moves the complete lines of the open segment into a sealed one, and
    /// the line being written to the front.
    fn seal(&mut self) {
        if self.open_lens.is_empty() {
            return;
        }
        let text = &self.open.as_bytes()[..self.line_start];
        let mut segment = Vec::with_capacity(2 + self.open_lens.len() + text.len());
        lz77::put_varint(&mut segment, self.open_lens.len());
        segment.extend_from_slice(&self.open_lens);
        let head = segment.len();
        lz77::pack(text, &mut segment);
        if segment.len() - head >= text.len() {
            segment.truncate(head);
            segment.extend_from_slice(text);
        }
        self.sealed.push(segment.into_boxed_slice());
        self.open_lens.clear();
        self.open.drain(..self.line_start);
        self.open.shrink_to(SEGMENT);
        self.line_start = 0;
    }

    /// Every line, sealed ones unpacked into one reused buffer.
    fn lines(&self) -> Vec<String> {
        let mut out = Vec::with_capacity(self.line_count);
        let mut unpacked = Vec::new();
        for segment in &self.sealed {
            let (lens, body, raw) = segment_parts(segment);
            // A packed body is always shorter than its text (`seal`).
            let text = if body.len() < raw {
                unpacked.clear();
                lz77::unpack(body, &mut unpacked);
                &unpacked
            } else {
                body
            };
            let text = std::str::from_utf8(text).expect("a segment holds whole lines of text");
            push_lines(lens, text, &mut out);
        }
        push_lines(&self.open_lens, &self.open, &mut out);
        out
    }
}

/// A sealed segment's line lengths, its body, and the length of the text
/// the body holds.
fn segment_parts(segment: &[u8]) -> (&[u8], &[u8], usize) {
    let mut at = 0;
    let lens_len = lz77::varint(segment, &mut at);
    let (lens, body) = segment[at..].split_at(lens_len);
    let (mut at, mut raw) = (0, 0);
    while at < lens.len() {
        raw += lz77::varint(lens, &mut at);
    }
    (lens, body, raw)
}

/// Appends to `out` the lines `lens` cuts `text` into, in order.
fn push_lines(lens: &[u8], text: &str, out: &mut Vec<String>) {
    let (mut at, mut from) = (0, 0);
    while at < lens.len() {
        let to = from + lz77::varint(lens, &mut at);
        out.push(text[from..to].to_owned());
        from = to;
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
        write!(known, "{line}").expect("a log takes whatever is written to it");
        let line = known.end_line();
        let obs = &self.inner.obs;
        if obs.is_enabled() {
            let line = line.to_owned();
            obs.event("log", log.to_owned(), vec![pogo_obs::field("line", line)]);
            obs.metrics().inc("log.lines", 1);
        }
    }

    /// Lines of one log.
    pub fn lines(&self, log: &str) -> Vec<String> {
        let logs = self.inner.logs.borrow();
        logs.get(log).map(Log::lines).unwrap_or_default()
    }

    /// Number of lines in one log, without reading them.
    pub fn line_count(&self, log: &str) -> usize {
        self.inner
            .logs
            .borrow()
            .get(log)
            .map_or(0, |l| l.line_count)
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

    /// Binds the thread's [`API_NATIVES`] and ties the interpreter to this
    /// host, weakly (the host owns the interpreter); the callbacks
    /// `subscribe` and `setTimeout` hand to the broker and the scheduler
    /// hold it strongly.
    fn install_api(&self) {
        let mut interp = self.inner.interp.borrow_mut();
        let host: Weak<HostInner> = Rc::downgrade(&self.inner);
        interp.set_host(host);
        API_NATIVES.with(|api| {
            for (name, f) in api {
                interp.globals().declare(name.clone(), f.clone());
            }
        });
    }
}

/// A native of [`API`].
type ApiFn = fn(&mut Interpreter, &[Value]) -> Result<Value, ScriptError>;

/// Table 1's API, in the order it is declared. Each native finds the host
/// of the script that calls it through the interpreter it is called with
/// ([`Interpreter::host`]), so one set serves every script on a thread.
const API: [(&str, ApiFn); 11] = [
    ("setDescription", set_description),
    ("setAutoStart", set_auto_start),
    ("print", print),
    ("log", log),
    ("logTo", log_to),
    ("publish", publish),
    ("subscribe", subscribe),
    ("freeze", freeze),
    ("thaw", thaw),
    ("json", json),
    ("setTimeout", set_timeout),
];

thread_local! {
    /// [`API`] as script values, made once per thread: every script host
    /// on it binds the same `Rc`s under the interned names.
    static API_NATIVES: Vec<(Rc<str>, Value)> = API
        .iter()
        .map(|&(name, f)| (intern(name), native_value(name, f)))
        .collect();
}

/// `setDescription(description)`
fn set_description(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    if let (Some(inner), Some(desc)) = (interp.host::<HostInner>(), args.first()) {
        *inner.description.borrow_mut() = Some(desc.to_display_string());
    }
    Ok(Value::Null)
}

/// `setAutoStart(start)`: accepted and ignored. The paper's UI lets users
/// start by hand a script that opted out; there is no UI here, so every
/// deployed script starts.
fn set_auto_start(_: &mut Interpreter, _: &[Value]) -> Result<Value, ScriptError> {
    Ok(Value::Null)
}

/// `print(message1[, ...])`
fn print(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    if let Some(inner) = interp.host::<HostInner>() {
        inner.prints.borrow_mut().push(Joined(args).to_string());
    }
    Ok(Value::Null)
}

/// `log(message1[, ...])` — writes to the script's default log.
fn log(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    if let Some(inner) = interp.host::<HostInner>() {
        inner.logs.append(&inner.name, Joined(args));
    }
    Ok(Value::Null)
}

/// `logTo(logName, message1[, ...])`
fn log_to(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    let log_name = args
        .first()
        .and_then(Value::as_str)
        .ok_or_else(|| ScriptError::host("logTo: first argument must be a string"))?;
    if let Some(inner) = interp.host::<HostInner>() {
        inner.logs.append(log_name, Joined(&args[1..]));
    }
    Ok(Value::Null)
}

/// `publish(channel, message)` — Listing 2 also uses
/// `publish(message, channel)`; both argument orders are accepted.
fn publish(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    // Script strings are already `Rc<str>`; clone the handle instead of
    // allocating a `String` per publish.
    let (channel, message) = match (args.first(), args.get(1)) {
        (Some(Value::Str(ch)), msg) => (ch.clone(), msg.cloned().unwrap_or(Value::Null)),
        (Some(msg), Some(Value::Str(ch))) => (ch.clone(), msg.clone()),
        _ => return Err(ScriptError::host("publish: expected (channel, message)")),
    };
    if let Some(inner) = interp.host::<HostInner>() {
        let msg = Msg::from_script(&message)?;
        bump(&inner.publishes, 1);
        bump(&inner.published_bytes, msg.json_size());
        inner.broker.publish(&channel, &msg);
    }
    Ok(Value::Null)
}

/// `subscribe(channel, function[, parameters])` -> Subscription
fn subscribe(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
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
    let Some(inner) = interp.host::<HostInner>() else {
        return Ok(Value::Null);
    };
    let broker = inner.broker.clone();
    let sink_host = ScriptHost {
        inner: inner.clone(),
    };
    let id = broker.subscribe(&channel, params, move |_ch, msg, from| {
        // Defer into the scheduler: pub/sub delivery is asynchronous and
        // per-script serialized.
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
    // A script subscribes a few times, not a few hundred: grow by one.
    let mut subscriptions = inner.subscriptions.borrow_mut();
    subscriptions.reserve_exact(1);
    subscriptions.push(id);
    drop(subscriptions);
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
}

/// `freeze(object)`
fn freeze(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    let frozen = args
        .first()
        .map(Msg::from_script)
        .transpose()?
        .unwrap_or(Msg::Null);
    if let Some(inner) = interp.host::<HostInner>() {
        inner.frozen.set(Some(frozen));
    }
    Ok(Value::Null)
}

/// `thaw()` -> object
fn thaw(interp: &mut Interpreter, _: &[Value]) -> Result<Value, ScriptError> {
    let Some(inner) = interp.host::<HostInner>() else {
        return Ok(Value::Null);
    };
    Ok(inner
        .frozen
        .get()
        .map(|m| m.to_script(&mut inner.strings.borrow_mut()))
        .unwrap_or(Value::Null))
}

/// `json(object)` -> String
fn json(_: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    let value = args.first().unwrap_or(&Value::Null);
    value
        .with_json(|json| Value::str(json))
        .map_err(|_| refusal(value))
}

/// `setTimeout(function, delay)`
fn set_timeout(interp: &mut Interpreter, args: &[Value]) -> Result<Value, ScriptError> {
    let f = match args.first() {
        Some(f @ (Value::Func(_) | Value::Native(_))) => f.clone(),
        _ => {
            return Err(ScriptError::host(
                "setTimeout: first argument must be a function",
            ))
        }
    };
    let delay = args.get(1).and_then(Value::as_num).unwrap_or(0.0).max(0.0);
    let Some(inner) = interp.host::<HostInner>() else {
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
    use crate::value::too_deep;
    use pogo_platform::{Cpu, CpuConfig, EnergyMeter};
    use pogo_sim::{Sim, SimRng};

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

    /// One line for the named log: scan-like JSON for `raw-scans`, random
    /// scalar values (incompressible) for `noise`, and for the others the
    /// edges: empty, embedded newlines, multi-byte UTF-8, longer than a
    /// segment.
    fn log_line(rng: &mut SimRng, log: &str) -> String {
        let any_char = |rng: &mut SimRng| loop {
            if let Some(c) = char::from_u32(rng.range_u64(0x20, 0x11_0000) as u32) {
                return c;
            }
        };
        match (log, rng.index(8)) {
            ("raw-scans", _) => {
                let aps: Vec<String> = (0..rng.range_u64(1, 8))
                    .map(|j| {
                        format!(
                            r#"{{"b":"00:1f:{:02x}:00:00:{j:02x}","l":{}}}"#,
                            rng.index(4),
                            -40 - rng.index(50) as i64
                        )
                    })
                    .collect();
                format!(
                    r#"{{"t":{},"aps":[{}]}}"#,
                    rng.range_u64(0, 1 << 40),
                    aps.join(",")
                )
            }
            ("noise", _) => (0..rng.index(300)).map(|_| any_char(rng)).collect(),
            (_, 0) => String::new(),
            (_, 1) => "a\nb\n\n".repeat(rng.index(4)),
            (_, 2) => "\u{e9}\u{1F600}\u{6F22}".repeat(rng.index(60)),
            (_, 3) if rng.chance(0.2) => "long ".repeat(rng.range_u64(900, 3000) as usize),
            _ => format!("line {} of {log}", rng.index(10_000)),
        }
    }

    /// Sealed segments of `log` whose text is packed, and all of them.
    fn packed_segments(logs: &LogStore, log: &str) -> (usize, usize) {
        let all = logs.inner.logs.borrow();
        let sealed = &all[log].sealed;
        let packed = sealed
            .iter()
            .filter(|segment| {
                let (_, body, raw) = segment_parts(segment);
                body.len() < raw
            })
            .count();
        (packed, sealed.len())
    }

    /// Seeded round trip against a `Vec<String>` per log: every count as
    /// it goes, the lines now and then while segments seal, and all of
    /// them at the end. Some lines arrive in two pieces, as `log`'s
    /// arguments do.
    #[test]
    fn log_lines_come_back_as_appended() {
        for seed in 0..60 {
            let mut rng = SimRng::seed_from_u64(seed);
            let logs = LogStore::new();
            let mut model: HashMap<&str, Vec<String>> = HashMap::new();
            for _ in 0..rng.range_u64(100, 600) {
                let log = *rng.pick(&["raw-scans", "s.js", "", "noise"]);
                let line = log_line(&mut rng, log);
                let cut = (0..=line.len())
                    .filter(|&i| line.is_char_boundary(i))
                    .nth(rng.index(line.chars().count() + 1))
                    .unwrap_or(line.len());
                let (head, tail) = line.split_at(cut);
                logs.append(log, format_args!("{head}{tail}"));
                model.entry(log).or_default().push(line);
                assert_eq!(logs.line_count(log), model[log].len(), "seed {seed}");
                if rng.chance(0.02) {
                    assert_eq!(logs.lines(log), model[log], "seed {seed} {log:?}");
                }
            }
            for (log, lines) in &model {
                assert_eq!(&logs.lines(log), lines, "seed {seed} {log:?}");
            }
            // Enough of either fills a segment.
            let enough = |log| model.get(log).is_some_and(|l| l.len() > 60);
            if enough("noise") {
                let (packed, sealed) = packed_segments(&logs, "noise");
                assert!(
                    sealed > 0 && packed == 0,
                    "seed {seed}: noise is stored raw"
                );
            }
            if enough("raw-scans") {
                let (packed, sealed) = packed_segments(&logs, "raw-scans");
                assert!(sealed > 0 && packed == sealed, "seed {seed}: scans pack");
            }
        }
        let logs = LogStore::new();
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

    /// Two scripts on one thread hold the same `Rc` for every native, the
    /// builtins and `Math`'s functions included, yet each binds them in a
    /// scope of its own: a script that rebinds `Math.sqrt` or `publish`
    /// changes nothing the other sees.
    #[test]
    fn scripts_on_a_thread_share_each_native_but_not_its_binding() {
        let (_sim, broker, sched) = setup();
        let seen = Rc::new(Cell::new(0));
        let s = seen.clone();
        broker.subscribe("out", Msg::Null, move |_, _, _| s.set(s.get() + 1));
        let (a, b) = (host(&broker, &sched), host(&broker, &sched));
        let natives = |h: &ScriptHost| -> Vec<(String, Value)> {
            let interp = h.inner.interp.borrow();
            let globals = interp.globals();
            let Some(Value::Object(math)) = globals.get("Math") else {
                panic!("Math is an object")
            };
            let math = math.borrow();
            let builtins = ["keys", "Number", "String", "isNaN", "parseFloat"];
            let mut all: Vec<(String, Value)> = API
                .iter()
                .map(|(n, _)| *n)
                .chain(builtins)
                .map(|n| (n.to_owned(), globals.get(n).expect("declared")))
                .collect();
            all.extend(
                math.iter()
                    .filter(|(_, v)| matches!(v, Value::Native(_)))
                    .map(|(k, v)| (format!("Math.{k}"), v.clone())),
            );
            all
        };
        let (of_a, of_b) = (natives(&a), natives(&b));
        assert_eq!(of_a.len(), 11 + 5 + 12);
        for ((name, x), (_, y)) in of_a.iter().zip(&of_b) {
            let (Value::Native(x), Value::Native(y)) = (x, y) else {
                panic!("{name} is a native")
            };
            assert!(Rc::ptr_eq(x, y), "{name} is one allocation per thread");
        }
        a.load(
            "Math.sqrt = function (x) { return -1; };\n\
             publish = function (c, m) { print('swallowed'); };\n\
             print(Math.sqrt(16)); publish('out', { v: 1 });",
        )
        .unwrap();
        b.load("print(Math.sqrt(16)); publish('out', { v: 2 });")
            .unwrap();
        assert_eq!(a.prints(), vec!["-1", "swallowed"]);
        assert_eq!(b.prints(), vec!["4"]);
        assert_eq!(seen.get(), 1, "only b's publish reached the broker");
        assert_eq!((a.publishes(), b.publishes()), (0, 1));
        let same = |x: &[(String, Value)], y: &[(String, Value)]| {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| x == y)
        };
        assert!(same(&natives(&b), &of_a), "b still binds every native");
        assert!(!same(&natives(&a), &of_a), "a does not");
    }

    /// A value shared many times is met, and counted, each time it is:
    /// `a = [a, a]` twenty times over is 2^21 values for a hundred or so
    /// VM steps, and each call that hands a value to the host refuses it
    /// with one error instead of copying it for seconds. Seventeen times
    /// over, 2^18 - 1 values, is the most any of them takes.
    #[test]
    fn values_shared_too_many_times_to_leave_a_script_raise_one_error() {
        use crate::value::{too_large, MAX_VALUE_NODES};
        let shared = |levels: u32| {
            format!("var a = 1; for (var i = 0; i < {levels}; i++) {{ a = [a, a]; }}")
        };
        assert_eq!(MAX_VALUE_NODES, 1 << 18);
        let (_sim, broker, sched) = setup();
        for call in [
            "json(a)",
            "publish('out', a)",
            "freeze(a)",
            "subscribe('x', function (m) {}, a)",
        ] {
            let t0 = std::time::Instant::now();
            let err = host(&broker, &sched)
                .load(&format!("{} {call};", shared(20)))
                .unwrap_err();
            assert_eq!(err.message(), too_large().message(), "{call}");
            assert!(t0.elapsed().as_secs() < 5, "{call} gave up at the budget");
            host(&broker, &sched)
                .load(&format!("{} {call};", shared(17)))
                .unwrap();
            let err = host(&broker, &sched)
                .load(&format!("{} {call};", shared(18)))
                .unwrap_err();
            assert_eq!(err.message(), too_large().message(), "{call}");
        }
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
