//! The topic-based publish/subscribe broker (§4.3).
//!
//! Sensors, scripts, and remote counterparts all interact through a
//! broker. Two features beyond plain topic routing matter to Pogo:
//!
//! * subscriptions carry a **parameter object** ("a script may request
//!   location updates, but only from the GPS sensor … the scanning
//!   interval … is also passed using the parameters");
//! * publishers can **observe the subscription set** ("the framework
//!   allows sensors to listen for changes in subscriptions to the
//!   channels they publish on. Sensors can enable or disable scanning
//!   based on this information").

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use crate::value::Msg;

/// Identifies one subscription within a broker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

/// A subscription's externally visible state, handed to sensors.
#[derive(Debug, Clone, PartialEq)]
pub struct SubscriptionInfo {
    /// The subscription id.
    pub id: SubscriptionId,
    /// The parameter object supplied at subscribe time.
    pub params: Msg,
    /// False while released (renewable later).
    pub active: bool,
}

type Sink = Rc<dyn Fn(&str, &Msg, Option<&str>)>;
type ChangeListener = Rc<dyn Fn(&str, &[SubscriptionInfo])>;

struct Subscription {
    /// Interned channel name, shared with the channel-index key.
    channel: Rc<str>,
    params: Msg,
    active: bool,
    sink: Sink,
}

/// Per-channel routing state. `members` keeps every subscription (active
/// and released) in insertion order; `delivery` is a copy-on-write
/// snapshot of just the *active* sinks in that order, rebuilt on
/// subscription changes so that publishing clones one `Rc` instead of
/// allocating a `Vec` per message.
struct Channel {
    members: Vec<SubscriptionId>,
    delivery: Rc<[Sink]>,
}

impl Channel {
    fn new() -> Self {
        Channel {
            members: Vec::new(),
            delivery: Rc::from([] as [Sink; 0]),
        }
    }
}

struct Inner {
    /// Subscription storage, keyed by id (ids are never reused).
    subs: HashMap<SubscriptionId, Subscription>,
    /// The channel index: interned name → routing state.
    channels: HashMap<Rc<str>, Channel>,
    listeners: Vec<(Rc<str>, ChangeListener)>,
    /// Copy-on-write snapshot of the taps, same trick as `Channel::delivery`.
    taps: Rc<[Sink]>,
    next_id: u64,
    published: u64,
}

impl Default for Inner {
    fn default() -> Self {
        Inner {
            subs: HashMap::new(),
            channels: HashMap::new(),
            listeners: Vec::new(),
            taps: Rc::from([] as [Sink; 0]),
            next_id: 0,
            published: 0,
        }
    }
}

impl Inner {
    /// Interns a channel name, reusing the index key when present.
    fn intern(&self, channel: &str) -> Rc<str> {
        match self.channels.get_key_value(channel) {
            Some((name, _)) => name.clone(),
            None => Rc::from(channel),
        }
    }

    /// Rebuilds one channel's active-sink snapshot after a change.
    fn rebuild_delivery(&mut self, channel: &str) {
        let Some(ch) = self.channels.get_mut(channel) else {
            return;
        };
        let subs = &self.subs;
        ch.delivery = ch
            .members
            .iter()
            .filter_map(|id| subs.get(id))
            .filter(|s| s.active)
            .map(|s| s.sink.clone())
            .collect();
    }
}

/// A message broker. Cheap to clone; clones share state.
///
/// # Example
///
/// ```
/// use pogo_core::{Broker, Msg};
/// use std::{cell::RefCell, rc::Rc};
///
/// let broker = Broker::new();
/// let seen = Rc::new(RefCell::new(Vec::new()));
/// let s = seen.clone();
/// broker.subscribe("battery", Msg::Null, move |_ch, msg, _from| {
///     s.borrow_mut().push(msg.clone());
/// });
/// broker.publish("battery", &Msg::Num(3.9));
/// assert_eq!(seen.borrow().len(), 1);
/// ```
#[derive(Clone, Default)]
pub struct Broker {
    inner: Rc<RefCell<Inner>>,
    /// Metrics handle (off by default; a two-variant match per publish).
    obs: pogo_obs::Metrics,
}

impl std::fmt::Debug for Broker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Broker")
            .field("subscriptions", &inner.subs.len())
            .field("published", &inner.published)
            .finish()
    }
}

impl Broker {
    /// Creates an empty broker.
    pub fn new() -> Self {
        Broker::default()
    }

    /// Creates an empty broker whose publish counts and fan-out sizes
    /// feed `obs` (`broker.published` counter, `broker.fanout`
    /// histogram), attributed to the obs handle's device scope.
    pub fn with_obs(obs: &pogo_obs::Obs) -> Self {
        Broker {
            inner: Rc::default(),
            obs: obs.metrics().clone(),
        }
    }

    /// Subscribes `sink` to `channel` with a parameter object. The sink
    /// is invoked synchronously on publish with `(channel, message,
    /// origin)`, where `origin` names the remote node the message came
    /// from (collector-side fan-in) or is `None` for local publishes;
    /// sinks that need deferral (script callbacks) schedule it themselves.
    pub fn subscribe(
        &self,
        channel: &str,
        params: Msg,
        sink: impl Fn(&str, &Msg, Option<&str>) + 'static,
    ) -> SubscriptionId {
        let (id, name) = {
            let mut inner = self.inner.borrow_mut();
            let id = SubscriptionId(inner.next_id);
            inner.next_id += 1;
            let name = inner.intern(channel);
            inner.subs.insert(
                id,
                Subscription {
                    channel: name.clone(),
                    params,
                    active: true,
                    sink: Rc::new(sink),
                },
            );
            inner
                .channels
                .entry(name.clone())
                .or_insert_with(Channel::new)
                .members
                .push(id);
            inner.rebuild_delivery(&name);
            (id, name)
        };
        self.notify_change(&name);
        id
    }

    /// Removes a subscription entirely.
    pub fn unsubscribe(&self, id: SubscriptionId) {
        let channel = {
            let mut inner = self.inner.borrow_mut();
            let Some(sub) = inner.subs.remove(&id) else {
                return;
            };
            let name = sub.channel;
            let empty = match inner.channels.get_mut(&*name) {
                Some(ch) => {
                    ch.members.retain(|m| *m != id);
                    ch.members.is_empty()
                }
                None => false,
            };
            if empty {
                inner.channels.remove(&*name);
            } else {
                inner.rebuild_delivery(&name);
            }
            name
        };
        self.notify_change(&channel);
    }

    /// Activates/deactivates a subscription (the Subscription object's
    /// `renew`/`release` methods, Table 1). No-ops if already in the
    /// requested state ("these methods have no effect when the
    /// subscription is inactive or active respectively").
    pub fn set_active(&self, id: SubscriptionId, active: bool) {
        let channel = {
            let mut inner = self.inner.borrow_mut();
            let Some(sub) = inner.subs.get_mut(&id) else {
                return;
            };
            if sub.active == active {
                return;
            }
            sub.active = active;
            let name = sub.channel.clone();
            inner.rebuild_delivery(&name);
            name
        };
        self.notify_change(&channel);
    }

    /// Publishes to every *active* subscription on `channel`. Returns how
    /// many sinks received the message.
    pub fn publish(&self, channel: &str, msg: &Msg) -> usize {
        self.publish_from(channel, msg, None)
    }

    /// Like [`Broker::publish`] but attributing the message to a remote
    /// origin (the collector's multi-broker fanning in device data).
    pub fn publish_from(&self, channel: &str, msg: &Msg, from: Option<&str>) -> usize {
        // One channel-index lookup and two Rc clones: the snapshots keep
        // this round's delivery set stable even if a sink mutates the
        // subscription table mid-publish (same semantics as the old
        // collect-then-invoke Vec, without the per-publish allocation).
        let (sinks, taps): (Rc<[Sink]>, Rc<[Sink]>) = {
            let mut inner = self.inner.borrow_mut();
            inner.published += 1;
            (
                inner
                    .channels
                    .get(channel)
                    .map(|ch| ch.delivery.clone())
                    .unwrap_or_else(|| Rc::from([] as [Sink; 0])),
                inner.taps.clone(),
            )
        };
        self.obs.inc("broker.published", 1);
        self.obs.observe("broker.fanout", sinks.len() as f64);
        for sink in sinks.iter() {
            sink(channel, msg, from);
        }
        for tap in taps.iter() {
            tap(channel, msg, from);
        }
        sinks.len()
    }

    /// Registers a *tap*: called for every channel publish (not for
    /// targeted [`Broker::publish_to_from`] deliveries). The collector context
    /// uses this as its multi-broker fan-out hook (§4.2).
    pub fn on_publish(&self, tap: impl Fn(&str, &Msg, Option<&str>) + 'static) {
        let mut inner = self.inner.borrow_mut();
        let mut taps: Vec<Sink> = inner.taps.iter().cloned().collect();
        taps.push(Rc::new(tap));
        inner.taps = taps.into();
    }

    /// Delivers to one specific subscription, attributed to the remote
    /// origin `from` if any (data a device's mirror matched, flowing back
    /// to the collector subscription it mirrors). Returns `true` if the
    /// subscription existed and was active.
    pub fn publish_to_from(&self, id: SubscriptionId, msg: &Msg, from: Option<&str>) -> bool {
        let hit = {
            let inner = self.inner.borrow();
            inner
                .subs
                .get(&id)
                .filter(|s| s.active)
                .map(|s| (s.channel.clone(), s.sink.clone()))
        };
        match hit {
            Some((channel, sink)) => {
                sink(&channel, msg, from);
                true
            }
            None => false,
        }
    }

    /// Targeted delivery to a whole channel: `msg` goes, borrowed, to each
    /// active subscription whose parameter object passes `wants`, in
    /// subscribe order — what a sensor honouring per-subscription
    /// parameters needs, without a copy of the parameters or the message
    /// per subscription. Like [`Broker::publish_to_from`] it is not a channel
    /// publish: taps do not see it and it is not counted. Returns how many
    /// sinks received the message.
    pub fn publish_where(&self, channel: &str, msg: &Msg, wants: impl Fn(&Msg) -> bool) -> usize {
        // The sinks are collected before any runs, so one that changes the
        // subscription table mid-delivery does not disturb this round.
        let sinks: Vec<Sink> = {
            let inner = self.inner.borrow();
            let Some(ch) = inner.channels.get(channel) else {
                return 0;
            };
            ch.members
                .iter()
                .filter_map(|id| inner.subs.get(id))
                .filter(|s| s.active && wants(&s.params))
                .map(|s| s.sink.clone())
                .collect()
        };
        for sink in &sinks {
            sink(channel, msg, None);
        }
        sinks.len()
    }

    /// Snapshot of the subscriptions on `channel` (active and released),
    /// in subscribe order.
    pub fn subscriptions_on(&self, channel: &str) -> Vec<SubscriptionInfo> {
        let inner = self.inner.borrow();
        let Some(ch) = inner.channels.get(channel) else {
            return Vec::new();
        };
        ch.members
            .iter()
            .filter_map(|id| inner.subs.get(id).map(|s| (id, s)))
            .map(|(id, s)| SubscriptionInfo {
                id: *id,
                params: s.params.clone(),
                active: s.active,
            })
            .collect()
    }

    /// True if any active subscription exists on `channel` — the signal a
    /// sensor uses to power down.
    pub fn has_active_subscribers(&self, channel: &str) -> bool {
        self.inner
            .borrow()
            .channels
            .get(channel)
            .is_some_and(|ch| !ch.delivery.is_empty())
    }

    /// Registers a listener for subscription-set changes on `channel`.
    /// Invoked with the post-change snapshot. The empty channel name
    /// subscribes to changes on *every* channel (used by the collector
    /// context to sync new subscriptions to member devices).
    pub(crate) fn on_subscriptions_changed(
        &self,
        channel: &str,
        listener: impl Fn(&str, &[SubscriptionInfo]) + 'static,
    ) {
        let mut inner = self.inner.borrow_mut();
        let name = if channel.is_empty() {
            Rc::from("")
        } else {
            inner.intern(channel)
        };
        inner.listeners.push((name, Rc::new(listener)));
    }

    /// Total publish calls (diagnostics).
    pub fn published_count(&self) -> u64 {
        self.inner.borrow().published
    }

    fn notify_change(&self, channel: &str) {
        let listeners: Vec<ChangeListener> = self
            .inner
            .borrow()
            .listeners
            .iter()
            .filter(|(c, _)| &**c == channel || c.is_empty())
            .map(|(_, l)| l.clone())
            .collect();
        if listeners.is_empty() {
            return;
        }
        let snapshot = self.subscriptions_on(channel);
        for l in listeners {
            l(channel, &snapshot);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[allow(clippy::type_complexity)]
    fn collect() -> (
        Rc<RefCell<Vec<(String, Msg)>>>,
        impl Fn(&str, &Msg, Option<&str>),
    ) {
        let log: Rc<RefCell<Vec<(String, Msg)>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        (log, move |ch: &str, msg: &Msg, _from: Option<&str>| {
            l.borrow_mut().push((ch.to_owned(), msg.clone()))
        })
    }

    #[test]
    fn publish_reaches_only_matching_channel() {
        let broker = Broker::new();
        let (log, sink) = collect();
        broker.subscribe("wifi-scan", Msg::Null, sink);
        assert_eq!(broker.publish("wifi-scan", &Msg::Num(1.0)), 1);
        assert_eq!(broker.publish("battery", &Msg::Num(2.0)), 0);
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(log.borrow()[0].0, "wifi-scan");
    }

    #[test]
    fn release_and_renew_gate_delivery() {
        let broker = Broker::new();
        let (log, sink) = collect();
        let id = broker.subscribe("ch", Msg::Null, sink);
        broker.set_active(id, false);
        broker.publish("ch", &Msg::Num(1.0));
        assert!(log.borrow().is_empty());
        broker.set_active(id, true);
        broker.publish("ch", &Msg::Num(2.0));
        assert_eq!(log.borrow().len(), 1);
    }

    #[test]
    fn unsubscribe_removes_permanently() {
        let broker = Broker::new();
        let (log, sink) = collect();
        let id = broker.subscribe("ch", Msg::Null, sink);
        broker.unsubscribe(id);
        broker.publish("ch", &Msg::Null);
        assert!(log.borrow().is_empty());
        assert!(broker.subscriptions_on("ch").is_empty());
    }

    #[test]
    fn publish_to_targets_one_subscription() {
        let broker = Broker::new();
        let (log_a, sink_a) = collect();
        let (log_b, sink_b) = collect();
        let a = broker.subscribe("loc", Msg::obj([("provider", Msg::str("GPS"))]), sink_a);
        let _b = broker.subscribe("loc", Msg::obj([("provider", Msg::str("NET"))]), sink_b);
        assert!(broker.publish_to_from(a, &Msg::str("fix"), None));
        assert_eq!(log_a.borrow().len(), 1);
        assert!(log_b.borrow().is_empty());
    }

    #[test]
    fn publish_where_filters_on_params_and_skips_released_and_taps() {
        let broker = Broker::new();
        let (log_gps, sink_gps) = collect();
        let (log_net, sink_net) = collect();
        let (log_off, sink_off) = collect();
        let (log_tap, tap) = collect();
        broker.subscribe("loc", Msg::obj([("provider", Msg::str("GPS"))]), sink_gps);
        broker.subscribe("loc", Msg::obj([("provider", Msg::str("NET"))]), sink_net);
        let off = broker.subscribe("loc", Msg::Null, sink_off);
        broker.set_active(off, false);
        broker.on_publish(tap);
        let gps_or_any = |params: &Msg| {
            params
                .get("provider")
                .and_then(Msg::as_str)
                .is_none_or(|p| p == "GPS")
        };
        assert_eq!(broker.publish_where("loc", &Msg::str("fix"), gps_or_any), 1);
        assert_eq!(broker.publish_where("nobody", &Msg::Null, |_| true), 0);
        assert_eq!(log_gps.borrow().len(), 1);
        assert!(log_net.borrow().is_empty(), "filtered out by its params");
        assert!(log_off.borrow().is_empty(), "released");
        assert!(
            log_tap.borrow().is_empty(),
            "targeted, not a channel publish"
        );
        assert_eq!(broker.published_count(), 0);
    }

    #[test]
    fn publish_to_released_subscription_fails() {
        let broker = Broker::new();
        let (_, sink) = collect();
        let id = broker.subscribe("ch", Msg::Null, sink);
        broker.set_active(id, false);
        assert!(!broker.publish_to_from(id, &Msg::Null, None));
    }

    #[test]
    fn sensor_sees_subscription_lifecycle() {
        let broker = Broker::new();
        let events: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let e = events.clone();
        broker.on_subscriptions_changed("wifi-scan", move |_, subs| {
            e.borrow_mut()
                .push(subs.iter().filter(|s| s.active).count());
        });
        let (_, sink) = collect();
        let id = broker.subscribe("wifi-scan", Msg::Null, sink);
        broker.set_active(id, false);
        broker.set_active(id, true);
        broker.unsubscribe(id);
        assert_eq!(*events.borrow(), vec![1, 0, 1, 0]);
    }

    #[test]
    fn redundant_set_active_does_not_notify() {
        let broker = Broker::new();
        let count = Rc::new(RefCell::new(0));
        let c = count.clone();
        broker.on_subscriptions_changed("ch", move |_, _| *c.borrow_mut() += 1);
        let (_, sink) = collect();
        let id = broker.subscribe("ch", Msg::Null, sink);
        broker.set_active(id, true); // already active
        assert_eq!(*count.borrow(), 1, "only the subscribe notified");
    }

    #[test]
    fn params_are_visible_to_sensors() {
        let broker = Broker::new();
        let (_, sink) = collect();
        broker.subscribe(
            "wifi-scan",
            Msg::obj([("interval", Msg::Num(60_000.0))]),
            sink,
        );
        let subs = broker.subscriptions_on("wifi-scan");
        assert_eq!(subs.len(), 1);
        assert_eq!(
            subs[0].params.get("interval").and_then(Msg::as_num),
            Some(60_000.0)
        );
        assert!(broker.has_active_subscribers("wifi-scan"));
        assert!(!broker.has_active_subscribers("battery"));
    }

    #[test]
    fn multiple_subscribers_all_receive() {
        let broker = Broker::new();
        let (log_a, sink_a) = collect();
        let (log_b, sink_b) = collect();
        broker.subscribe("ch", Msg::Null, sink_a);
        broker.subscribe("ch", Msg::Null, sink_b);
        assert_eq!(broker.publish("ch", &Msg::Num(7.0)), 2);
        assert_eq!(log_a.borrow().len(), 1);
        assert_eq!(log_b.borrow().len(), 1);
    }
}
