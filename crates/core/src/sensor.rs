//! Sensors and the sensor manager (§4.2, §4.3).
//!
//! "Sensors live inside a *sensor manager*. They are able to publish data
//! to, or query subscriptions from, all contexts." Each sensor duty-
//! cycles itself from the subscription set: no active subscriber on its
//! channel anywhere ⇒ it stops sampling entirely ("If not, the sensor can
//! be turned off to save energy"), and the sampling interval is the
//! minimum `interval` parameter any subscriber requested.
//!
//! Three sensors are built in, covering everything the paper's
//! experiments use: `wifi-scan` (drives the real Wi-Fi radio model and
//! holds a wake lock for the scan duration, §4.5), `battery`
//! (voltage/level/charging, the Table 3 workload), and `location`
//! (honouring the `provider` parameter filter of §4.3).

use std::cell::RefCell;
use std::rc::Rc;

use pogo_obs::Obs;
use pogo_platform::{AlarmId, Phone, RepeatingAlarm};
use pogo_sim::SimDuration;

use crate::broker::Broker;
use crate::scheduler::Scheduler;
use crate::value::Msg;

/// A Wi-Fi scan reading handed to the sensor by the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct WifiReading {
    /// BSSID in `xx:xx:xx:xx:xx:xx` form.
    pub bssid: String,
    /// RSSI in dBm (raw; scripts normalize).
    pub rssi_dbm: f64,
}

/// A location fix handed to the sensor by the environment.
#[derive(Debug, Clone, PartialEq)]
pub struct LocationFix {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Fix source, e.g. `GPS` or `NETWORK`.
    pub provider: String,
}

/// One accelerometer sample in m/s² (gravity included, like Android's
/// `TYPE_ACCELEROMETER`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AccelSample {
    /// X axis.
    pub x: f64,
    /// Y axis.
    pub y: f64,
    /// Z axis.
    pub z: f64,
}

impl AccelSample {
    /// Vector magnitude (≈ 9.81 at rest).
    pub fn magnitude(&self) -> f64 {
        (self.x * self.x + self.y * self.y + self.z * self.z).sqrt()
    }
}

/// A sampling callback: simulated milliseconds in, a reading out
/// (`None` = nothing to report right now).
pub type Source<T> = Box<dyn FnMut(u64) -> Option<T>>;

/// Environment callbacks the sensors sample from. The mobility crate (or
/// a test) supplies these; `None` fields disable the sensor.
#[derive(Default)]
pub struct SensorSources {
    /// Returns the current scan contents, or `None` if scanning is
    /// impossible right now (phone off is modelled by the device being
    /// rebooted, so `None` here means an empty ether).
    pub wifi_scan: Option<Source<Vec<WifiReading>>>,
    /// Returns the current location fix.
    pub location: Option<Source<LocationFix>>,
    /// Returns the current accelerometer reading.
    pub accelerometer: Option<Source<AccelSample>>,
    /// Returns the serving cell tower id.
    pub cell_id: Option<Source<u64>>,
}

impl std::fmt::Debug for SensorSources {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SensorSources")
            .field("wifi_scan", &self.wifi_scan.is_some())
            .field("location", &self.location.is_some())
            .field("accelerometer", &self.accelerometer.is_some())
            .field("cell_id", &self.cell_id.is_some())
            .finish()
    }
}

/// Sensor channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    WifiScan,
    Battery,
    Location,
    Accelerometer,
    CellId,
}

impl Kind {
    fn channel(self) -> &'static str {
        match self {
            Kind::WifiScan => "wifi-scan",
            Kind::Battery => "battery",
            Kind::Location => "location",
            Kind::Accelerometer => "accelerometer",
            Kind::CellId => "cell-id",
        }
    }

    fn default_interval(self) -> SimDuration {
        match self {
            // Motion sampling is only useful at higher rates.
            Kind::Accelerometer => SimDuration::from_secs(5),
            _ => SimDuration::from_mins(1),
        }
    }

    const ALL: [Kind; 5] = [
        Kind::WifiScan,
        Kind::Battery,
        Kind::Location,
        Kind::Accelerometer,
        Kind::CellId,
    ];

    /// Per-kind sample counter metric (static names keep the hot path
    /// allocation-free).
    fn samples_metric(self) -> &'static str {
        match self {
            Kind::WifiScan => "sensor.samples.wifi-scan",
            Kind::Battery => "sensor.samples.battery",
            Kind::Location => "sensor.samples.location",
            Kind::Accelerometer => "sensor.samples.accelerometer",
            Kind::CellId => "sensor.samples.cell-id",
        }
    }

    /// Per-kind powered-on dwell histogram (duty-cycle numerator).
    fn on_ms_metric(self) -> &'static str {
        match self {
            Kind::WifiScan => "sensor.on_ms.wifi-scan",
            Kind::Battery => "sensor.on_ms.battery",
            Kind::Location => "sensor.on_ms.location",
            Kind::Accelerometer => "sensor.on_ms.accelerometer",
            Kind::CellId => "sensor.on_ms.cell-id",
        }
    }
}

struct SensorState {
    running: bool,
    interval: SimDuration,
    alarm: Option<AlarmId>,
    /// The sensor's tick as the scheduler runs it, and the epoch it was
    /// built in: set again every interval, rebuilt after a shutdown.
    ticker: Option<(u64, RepeatingAlarm)>,
    samples: u64,
    /// When the sensor powered up (for the duty-cycle dwell metric).
    on_since: Option<pogo_sim::SimTime>,
}

/// `phone`, `scheduler` and `obs` are set once at construction; what the
/// sensors change lives in `state`.
struct Inner {
    phone: Phone,
    scheduler: Scheduler,
    obs: Obs,
    state: RefCell<State>,
}

struct State {
    sources: SensorSources,
    brokers: Vec<(String, Broker)>,
    wifi: SensorState,
    battery: SensorState,
    location: SensorState,
    accelerometer: SensorState,
    cell_id: SensorState,
    epoch: u64,
}

impl Inner {
    /// Marks a sensor powered down and cancels its pending tick, emitting
    /// the event + dwell metric if it was running.
    fn power_down(&self, state: &mut State, kind: Kind) {
        let st = state.slot_mut(kind);
        let alarm = st.alarm.take();
        if std::mem::take(&mut st.running) {
            let now = self.phone.sim().now();
            let dwell = st
                .on_since
                .take()
                .map(|since| now.saturating_duration_since(since));
            if self.obs.is_enabled() {
                self.obs.event(
                    "sensor",
                    "power-down",
                    vec![pogo_obs::field("channel", kind.channel())],
                );
                if let Some(dwell) = dwell {
                    self.obs
                        .metrics()
                        .observe(kind.on_ms_metric(), dwell.as_millis() as f64);
                }
            }
        }
        if let Some(alarm) = alarm {
            self.scheduler.cancel(alarm);
        }
    }
}

impl State {
    fn slot_mut(&mut self, kind: Kind) -> &mut SensorState {
        match kind {
            Kind::WifiScan => &mut self.wifi,
            Kind::Battery => &mut self.battery,
            Kind::Location => &mut self.location,
            Kind::Accelerometer => &mut self.accelerometer,
            Kind::CellId => &mut self.cell_id,
        }
    }

    fn slot(&self, kind: Kind) -> &SensorState {
        match kind {
            Kind::WifiScan => &self.wifi,
            Kind::Battery => &self.battery,
            Kind::Location => &self.location,
            Kind::Accelerometer => &self.accelerometer,
            Kind::CellId => &self.cell_id,
        }
    }

    /// Minimum requested interval over all active subscriptions on the
    /// sensor's channel, or `None` if nobody listens.
    fn demanded_interval(&self, kind: Kind) -> Option<SimDuration> {
        let mut best: Option<SimDuration> = None;
        for (_, broker) in &self.brokers {
            for sub in broker.subscriptions_on(kind.channel()) {
                if !sub.active {
                    continue;
                }
                let interval = sub
                    .params
                    .get("interval")
                    .and_then(Msg::as_num)
                    .map(|ms| SimDuration::from_millis(ms.max(1_000.0) as u64))
                    .unwrap_or_else(|| kind.default_interval());
                best = Some(match best {
                    Some(b) => b.min(interval),
                    None => interval,
                });
            }
        }
        best
    }
}

/// The sensor manager. Cheap to clone; clones share state.
#[derive(Clone)]
pub struct SensorManager {
    inner: Rc<Inner>,
}

impl std::fmt::Debug for SensorManager {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let state = self.inner.state.borrow();
        f.debug_struct("SensorManager")
            .field("contexts", &state.brokers.len())
            .field("wifi_running", &state.wifi.running)
            .field("battery_running", &state.battery.running)
            .field("location_running", &state.location.running)
            .finish()
    }
}

fn new_state() -> SensorState {
    SensorState {
        running: false,
        interval: SimDuration::from_mins(1),
        alarm: None,
        ticker: None,
        samples: 0,
        on_since: None,
    }
}

impl SensorManager {
    /// Creates a manager for `phone`, sampling from `sources`.
    pub fn new(phone: &Phone, scheduler: &Scheduler, sources: SensorSources) -> Self {
        SensorManager::with_obs(phone, scheduler, sources, &Obs::off())
    }

    /// Like [`SensorManager::new`], also reporting power-up/power-down
    /// duty cycles (`sensor` events, `sensor.on_ms.*` dwell histograms)
    /// and per-channel sample counts (`sensor.samples.*`) into `obs`.
    pub fn with_obs(
        phone: &Phone,
        scheduler: &Scheduler,
        sources: SensorSources,
        obs: &Obs,
    ) -> Self {
        SensorManager {
            inner: Rc::new(Inner {
                phone: phone.clone(),
                scheduler: scheduler.clone(),
                obs: obs.clone(),
                state: RefCell::new(State {
                    sources,
                    brokers: Vec::new(),
                    wifi: new_state(),
                    battery: new_state(),
                    location: new_state(),
                    accelerometer: new_state(),
                    cell_id: new_state(),
                    epoch: 0,
                }),
            }),
        }
    }

    /// Attaches a context's broker; sensors start watching its
    /// subscriptions.
    pub fn attach_context(&self, exp: &str, broker: &Broker) {
        let entry = (exp.to_owned(), broker.clone());
        self.inner.state.borrow_mut().brokers.push(entry);
        // Re-evaluate on any subscription change in this context.
        for kind in Kind::ALL {
            let me = self.clone();
            broker.on_subscriptions_changed(kind.channel(), move |_, _| {
                me.reconfigure(kind);
            });
        }
        for kind in Kind::ALL {
            self.reconfigure(kind);
        }
    }

    /// Detaches a context (experiment undeployed / device rebooting).
    pub(crate) fn detach_context(&self, exp: &str) {
        let mut state = self.inner.state.borrow_mut();
        state.brokers.retain(|(e, _)| e != exp);
        drop(state); // reconfigure borrows it again
        for kind in Kind::ALL {
            self.reconfigure(kind);
        }
    }

    /// Stops everything (reboot). Bumps the epoch so in-flight ticks die.
    pub(crate) fn shutdown(&self) {
        let mut state = self.inner.state.borrow_mut();
        state.brokers.clear();
        state.epoch += 1;
        for kind in Kind::ALL {
            self.inner.power_down(&mut state, kind);
        }
    }

    /// Samples taken on a channel so far.
    pub fn sample_count(&self, channel: &str) -> u64 {
        let state = self.inner.state.borrow();
        Kind::ALL
            .iter()
            .find(|k| k.channel() == channel)
            .map(|&k| state.slot(k).samples)
            .unwrap_or(0)
    }

    fn reconfigure(&self, kind: Kind) {
        let inner = &self.inner;
        let mut state = inner.state.borrow_mut();
        // The sensor only exists if its source does (battery always).
        let available = match kind {
            Kind::WifiScan => state.sources.wifi_scan.is_some(),
            Kind::Location => state.sources.location.is_some(),
            Kind::Accelerometer => state.sources.accelerometer.is_some(),
            Kind::CellId => state.sources.cell_id.is_some(),
            Kind::Battery => true,
        };
        let Some(interval) = state.demanded_interval(kind).filter(|_| available) else {
            inner.power_down(&mut state, kind);
            return;
        };
        let st = state.slot_mut(kind);
        st.interval = interval;
        if st.running {
            return; // the running loop picks the new interval up next tick
        }
        st.running = true;
        st.on_since = Some(inner.phone.sim().now());
        if inner.obs.is_enabled() {
            inner.obs.event(
                "sensor",
                "power-up",
                vec![
                    pogo_obs::field("channel", kind.channel()),
                    pogo_obs::field("interval_ms", interval.as_millis()),
                ],
            );
            inner.obs.metrics().inc("sensor.power_ups", 1);
        }
        drop(state);
        // First sample after one interval (subscribing at t gets data
        // at t+interval, like a real periodic sensor).
        self.schedule_tick(kind);
    }

    fn schedule_tick(&self, kind: Kind) {
        let mut state = self.inner.state.borrow_mut();
        let epoch = state.epoch;
        if !matches!(state.slot(kind).ticker, Some((built_in, _)) if built_in == epoch) {
            let weak = Rc::downgrade(&self.inner);
            let ticker = self.inner.scheduler.repeating(move || {
                if let Some(inner) = weak.upgrade() {
                    SensorManager { inner }.tick(kind, epoch);
                }
            });
            state.slot_mut(kind).ticker = Some((epoch, ticker));
        }
        let st = state.slot_mut(kind);
        let (_, ticker) = st.ticker.as_ref().expect("built above");
        st.alarm = Some(ticker.set_in(st.interval));
    }

    /// True while `epoch` is current and the sensor is powered.
    fn is_live(&self, kind: Kind, epoch: u64) -> bool {
        let state = self.inner.state.borrow();
        state.epoch == epoch && state.slot(kind).running
    }

    fn tick(&self, kind: Kind, epoch: u64) {
        if !self.is_live(kind, epoch) {
            return;
        }
        match kind {
            Kind::Battery => self.sample_battery(),
            Kind::Location => self.sample_location(),
            Kind::Accelerometer => self.sample_accelerometer(),
            Kind::CellId => self.sample_cell_id(),
            Kind::WifiScan => {
                self.sample_wifi(epoch);
                return; // wifi re-schedules from its completion callback
            }
        }
        self.schedule_tick(kind);
    }

    /// Hands `msg`, borrowed, to every attached context's subscriptions on
    /// the sensor's channel whose parameters pass `wants`.
    fn deliver(&self, kind: Kind, msg: &Msg, wants: impl Fn(&Msg) -> bool) {
        // By index, not under one borrow: a sink may reach back into the
        // manager (a subscription change reconfigures the sensor).
        for i in 0.. {
            let state = self.inner.state.borrow();
            let Some(broker) = state.brokers.get(i).map(|(_, b)| b.clone()) else {
                break;
            };
            drop(state);
            broker.publish_where(kind.channel(), msg, &wants);
        }
    }

    /// Counts one sample of `kind` and reads its source (`pick`) at true
    /// sim time; the timestamps *in* messages come from the device's own,
    /// skewable clock.
    fn read<T>(
        &self,
        kind: Kind,
        pick: impl FnOnce(&mut SensorSources) -> &mut Option<Source<T>>,
    ) -> Option<T> {
        let now_ms = self.inner.phone.sim().now().as_millis();
        self.inner.obs.metrics().inc(kind.samples_metric(), 1);
        let mut state = self.inner.state.borrow_mut();
        state.slot_mut(kind).samples += 1;
        pick(&mut state.sources).as_mut().and_then(|s| s(now_ms))
    }

    fn sample_battery(&self) {
        let kind = Kind::Battery;
        self.inner.state.borrow_mut().battery.samples += 1;
        self.inner.obs.metrics().inc(kind.samples_metric(), 1);
        let battery = self.inner.phone.battery();
        let msg = Msg::obj([
            ("voltage", Msg::Num(battery.voltage())),
            ("level", Msg::Num(battery.level())),
            ("charging", Msg::Bool(battery.is_charging())),
            (
                "timestamp",
                Msg::Num(self.inner.phone.clock().now_ms() as f64),
            ),
        ]);
        self.deliver(kind, &msg, |_params| true);
    }

    fn sample_location(&self) {
        let Some(fix) = self.read(Kind::Location, |s| &mut s.location) else {
            return;
        };
        let msg = Msg::obj([
            ("lat", Msg::Num(fix.lat)),
            ("lon", Msg::Num(fix.lon)),
            ("provider", Msg::str(&fix.provider)),
        ]);
        // §4.3: a subscription may restrict the provider.
        self.deliver(Kind::Location, &msg, |params| {
            params
                .get("provider")
                .and_then(Msg::as_str)
                .is_none_or(|wanted| wanted == fix.provider)
        });
    }

    fn sample_accelerometer(&self) {
        let Some(sample) = self.read(Kind::Accelerometer, |s| &mut s.accelerometer) else {
            return;
        };
        let msg = Msg::obj([
            ("x", Msg::Num(sample.x)),
            ("y", Msg::Num(sample.y)),
            ("z", Msg::Num(sample.z)),
            ("magnitude", Msg::Num(sample.magnitude())),
        ]);
        self.deliver(Kind::Accelerometer, &msg, |_params| true);
    }

    fn sample_cell_id(&self) {
        let Some(cell) = self.read(Kind::CellId, |s| &mut s.cell_id) else {
            return;
        };
        let msg = Msg::obj([("cell", Msg::Num(cell as f64))]);
        self.deliver(Kind::CellId, &msg, |_params| true);
    }

    fn sample_wifi(&self, epoch: u64) {
        // §4.5: "If the CPU is not kept awake during the 1-2 seconds the
        // process generally requires, the application will not be
        // notified upon scan completion." Hold a wake lock across the
        // hardware scan.
        let lock = self.inner.phone.cpu().acquire_wake_lock();
        let me = self.clone();
        let lock = RefCell::new(Some(lock));
        self.inner.phone.wifi().scan(move || {
            drop(lock.borrow_mut().take());
            me.wifi_scan_complete(epoch);
        });
    }

    fn wifi_scan_complete(&self, epoch: u64) {
        if !self.is_live(Kind::WifiScan, epoch) {
            return;
        }
        if let Some(readings) = self.read(Kind::WifiScan, |s| &mut s.wifi_scan) {
            let aps: Vec<Msg> = readings
                .iter()
                .map(|r| {
                    Msg::obj([
                        ("bssid", Msg::str(&r.bssid)),
                        ("rssi", Msg::Num(r.rssi_dbm)),
                    ])
                })
                .collect();
            let now_ms = self.inner.phone.clock().now_ms();
            let msg = Msg::obj([
                ("timestamp", Msg::Num(now_ms as f64)),
                ("aps", Msg::Arr(aps)),
            ]);
            self.deliver(Kind::WifiScan, &msg, |_params| true);
        }
        self.schedule_tick(Kind::WifiScan);
    }
}

/// Test hooks: nothing outside this crate's unit tests calls these.
#[cfg(test)]
impl SensorManager {
    /// True while the given sensor channel is actively sampling — test
    /// hook for the "sensors off when nobody subscribes" invariant.
    pub(crate) fn is_sampling(&self, channel: &str) -> bool {
        let state = self.inner.state.borrow();
        Kind::ALL
            .iter()
            .find(|k| k.channel() == channel)
            .is_some_and(|&k| state.slot(k).running)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_platform::PhoneConfig;
    use pogo_sim::Sim;

    fn setup(sources: SensorSources) -> (Sim, Phone, Broker, SensorManager) {
        let sim = Sim::new();
        let phone = Phone::new(&sim, PhoneConfig::default());
        let scheduler = Scheduler::new(phone.cpu());
        let broker = Broker::new();
        let manager = SensorManager::new(&phone, &scheduler, sources);
        manager.attach_context("exp", &broker);
        (sim, phone, broker, manager)
    }

    #[allow(clippy::type_complexity)]
    fn counting_sink() -> (Rc<RefCell<Vec<Msg>>>, impl Fn(&str, &Msg, Option<&str>)) {
        let log: Rc<RefCell<Vec<Msg>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        (log, move |_: &str, m: &Msg, _: Option<&str>| {
            l.borrow_mut().push(m.clone())
        })
    }

    #[test]
    fn battery_sensor_samples_at_requested_interval() {
        let (sim, _phone, broker, manager) = setup(SensorSources::default());
        let (log, sink) = counting_sink();
        broker.subscribe(
            "battery",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            sink,
        );
        sim.run_for(SimDuration::from_mins(10));
        assert_eq!(log.borrow().len(), 10);
        let first = &log.borrow()[0];
        assert!(first.get("voltage").and_then(Msg::as_num).unwrap() > 3.4);
        assert_eq!(manager.sample_count("battery"), 10);
    }

    #[test]
    fn sensor_off_without_subscribers_and_wakes_cpu_only_when_on() {
        let (sim, phone, broker, manager) = setup(SensorSources::default());
        assert!(!manager.is_sampling("battery"));
        sim.run_for(SimDuration::from_hours(1));
        assert_eq!(phone.cpu().wakeups(), 0, "no subscribers, no sampling");
        let (_log, sink) = counting_sink();
        let id = broker.subscribe("battery", Msg::Null, sink);
        assert!(manager.is_sampling("battery"));
        sim.run_for(SimDuration::from_mins(10));
        assert!(phone.cpu().wakeups() >= 9, "alarm per sample");
        broker.unsubscribe(id);
        assert!(!manager.is_sampling("battery"));
        let wakeups = phone.cpu().wakeups();
        sim.run_for(SimDuration::from_hours(1));
        assert_eq!(phone.cpu().wakeups(), wakeups, "sensor powered down");
    }

    #[test]
    fn released_subscription_also_stops_sensor() {
        let (sim, _phone, broker, manager) = setup(SensorSources::default());
        let (log, sink) = counting_sink();
        let id = broker.subscribe("battery", Msg::Null, sink);
        sim.run_for(SimDuration::from_mins(3));
        assert_eq!(log.borrow().len(), 3);
        broker.set_active(id, false);
        assert!(!manager.is_sampling("battery"));
        sim.run_for(SimDuration::from_mins(5));
        assert_eq!(log.borrow().len(), 3);
        broker.set_active(id, true);
        sim.run_for(SimDuration::from_mins(2));
        assert_eq!(log.borrow().len(), 5);
    }

    #[test]
    fn min_interval_across_subscriptions_wins() {
        let (sim, _phone, broker, _manager) = setup(SensorSources::default());
        let (fast_log, fast) = counting_sink();
        let (slow_log, slow) = counting_sink();
        broker.subscribe(
            "battery",
            Msg::obj([("interval", Msg::Num(30_000.0))]),
            fast,
        );
        broker.subscribe(
            "battery",
            Msg::obj([("interval", Msg::Num(300_000.0))]),
            slow,
        );
        sim.run_for(SimDuration::from_mins(5));
        // Sampling runs at 30 s; both subscriptions receive every sample
        // (serving the lower rate from the higher one, §3.5's motivating
        // coordination example).
        assert_eq!(fast_log.borrow().len(), 10);
        assert_eq!(slow_log.borrow().len(), 10);
    }

    #[test]
    fn wifi_sensor_drives_radio_and_holds_wake_lock() {
        let sources = SensorSources {
            wifi_scan: Some(Box::new(|_t| {
                Some(vec![WifiReading {
                    bssid: "00:11:22:33:44:55".into(),
                    rssi_dbm: -60.0,
                }])
            })),
            ..SensorSources::default()
        };
        let (sim, phone, broker, _manager) = setup(sources);
        let (log, sink) = counting_sink();
        broker.subscribe(
            "wifi-scan",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            sink,
        );
        sim.run_for(SimDuration::from_mins(5));
        // Each sample: 1 min wait + 1.5 s hardware scan.
        let n = log.borrow().len();
        assert!((4..=5).contains(&n), "scan count {n}");
        assert_eq!(phone.wifi().scan_count() as usize, n);
        let aps = log.borrow()[0].get("aps").unwrap().as_arr().unwrap().len();
        assert_eq!(aps, 1);
    }

    #[test]
    fn location_provider_filter() {
        let sources = SensorSources {
            location: Some(Box::new(|_t| {
                Some(LocationFix {
                    lat: 52.0,
                    lon: 4.4,
                    provider: "NETWORK".into(),
                })
            })),
            ..SensorSources::default()
        };
        let (sim, _phone, broker, _manager) = setup(sources);
        let (gps_log, gps_sink) = counting_sink();
        let (any_log, any_sink) = counting_sink();
        broker.subscribe(
            "location",
            Msg::obj([("provider", Msg::str("GPS"))]),
            gps_sink,
        );
        broker.subscribe("location", Msg::Null, any_sink);
        sim.run_for(SimDuration::from_mins(3));
        assert_eq!(
            gps_log.borrow().len(),
            0,
            "GPS-only filter blocks NETWORK fixes"
        );
        assert_eq!(any_log.borrow().len(), 3);
    }

    #[test]
    fn shutdown_stops_everything() {
        let (sim, phone, broker, manager) = setup(SensorSources::default());
        let (log, sink) = counting_sink();
        broker.subscribe("battery", Msg::Null, sink);
        sim.run_for(SimDuration::from_mins(2));
        assert_eq!(log.borrow().len(), 2);
        manager.shutdown();
        sim.run_for(SimDuration::from_mins(10));
        assert_eq!(log.borrow().len(), 2);
        assert!(!phone.cpu().is_awake());
    }

    #[test]
    fn interval_param_floor_is_one_second() {
        let (sim, _phone, broker, _manager) = setup(SensorSources::default());
        let (log, sink) = counting_sink();
        broker.subscribe("battery", Msg::obj([("interval", Msg::Num(1.0))]), sink);
        sim.run_for(SimDuration::from_secs(10));
        assert_eq!(log.borrow().len(), 10, "clamped to 1 Hz, not 1 kHz");
    }

    #[test]
    fn analyzer_sensor_channels_match_sensor_kinds() {
        // pogo-script sits below pogo-core, so the static analyzer pins
        // its own copy of the sensor channel list; keep them in lock
        // step here.
        let mut expected: Vec<&str> = Kind::ALL.iter().map(|k| k.channel()).collect();
        let mut actual: Vec<&str> = pogo_script::analyze::SENSOR_CHANNELS.to_vec();
        expected.sort_unstable();
        actual.sort_unstable();
        assert_eq!(expected, actual);
    }
}
