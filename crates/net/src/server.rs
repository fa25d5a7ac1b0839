//! The switchboard server and client sessions.
//!
//! §3.1: "a central server acting only as a communications switchboard";
//! §4.6: associations between devices and researchers "can be captured as
//! buddy lists, or rosters in XMPP parlance … stored at the central
//! server and … easily managed by the testbed administrator".
//!
//! Loss model: a session over a mobile bearer dies on interface handover.
//! Envelopes still in flight when either endpoint's session generation
//! changes are silently dropped — the §4.6 failure mode Pogo's end-to-end
//! acks exist to repair.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::fmt;
use std::rc::Rc;

use pogo_sim::{Sim, SimDuration, SimRng};

use crate::jid::Jid;
use crate::wire::{Envelope, Payload};

/// Errors from [`Switchboard`] and [`Session`] operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NetError {
    /// The JID has no account on the server.
    UnknownAccount(Jid),
    /// The sender and recipient are not roster buddies.
    NotAuthorized { from: Jid, to: Jid },
    /// The session has been disconnected.
    NotConnected,
    /// The switchboard is down ([`Switchboard::set_down`]) and refuses
    /// new sessions.
    ServerDown,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::UnknownAccount(jid) => write!(f, "unknown account {jid}"),
            NetError::NotAuthorized { from, to } => {
                write!(f, "{from} is not authorized to message {to}")
            }
            NetError::NotConnected => f.write_str("session is not connected"),
            NetError::ServerDown => f.write_str("switchboard is down"),
        }
    }
}

impl std::error::Error for NetError {}

/// What a fault-injection hook decides to do with one envelope about to
/// traverse a link leg (uplink at [`Session::send`], downlink at routing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFate {
    /// Let the envelope through unmodified.
    Deliver,
    /// Silently drop it (network loss — the sender sees `Ok`).
    Drop,
    /// Deliver after this much extra delay.
    Delay(SimDuration),
}

/// A per-envelope fault-injection hook: inspects the envelope and decides
/// its [`LinkFate`]. Installed server-side per JID via
/// [`Switchboard::set_link_chaos`].
pub type ChaosHook = Rc<dyn Fn(&Envelope) -> LinkFate>;

/// Server-side link impairment for one JID ([`Switchboard::shape_link`]).
/// Survives reconnects, which is what fault injection needs: the device
/// keeps calling `connect` and the degradation stays in force.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LinkShape {
    /// Extra independent drop probability per leg, in `[0, 1]`.
    pub loss: f64,
    /// Extra uniform delay bound per leg.
    pub jitter: SimDuration,
    /// Constant extra latency per leg.
    pub extra_latency: SimDuration,
}

struct ServerInner {
    sim: Sim,
    accounts: HashSet<Jid>,
    roster: HashMap<Jid, BTreeSet<Jid>>,
    sessions: HashMap<Jid, Session>,
    // Per-JID impairment state, applied on every leg. BTreeMap: iteration
    // feeds the deterministic sim.
    shapes: BTreeMap<Jid, LinkShape>,
    link_chaos: BTreeMap<Jid, ChaosHook>,
    routed: u64,
    dropped: u64,
    down: bool,
    restarts: u64,
    // One RNG stream for all server-side link shaping.
    shaper_rng: SimRng,
}

/// The central server: accounts, rosters, and routing.
///
/// Cheap to clone; clones share state.
#[derive(Clone)]
pub struct Switchboard {
    inner: Rc<RefCell<ServerInner>>,
}

impl fmt::Debug for Switchboard {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Switchboard")
            .field("accounts", &inner.accounts.len())
            .field("online", &inner.sessions.len())
            .field("routed", &inner.routed)
            .field("dropped", &inner.dropped)
            .finish()
    }
}

impl Switchboard {
    /// Creates an empty server.
    pub fn new(sim: &Sim) -> Self {
        Switchboard {
            inner: Rc::new(RefCell::new(ServerInner {
                sim: sim.clone(),
                accounts: HashSet::new(),
                roster: HashMap::new(),
                sessions: HashMap::new(),
                shapes: BTreeMap::new(),
                link_chaos: BTreeMap::new(),
                routed: 0,
                dropped: 0,
                down: false,
                restarts: 0,
                shaper_rng: SimRng::seed_from_u64(0x506f_676f_4c69_6e6b),
            })),
        }
    }

    /// Reseeds the RNG behind server-side link shaping
    /// ([`Switchboard::shape_link`]) so chaos runs are reproducible from
    /// one seed.
    pub fn reseed_link_rng(&self, seed: u64) {
        self.inner.borrow_mut().shaper_rng = SimRng::seed_from_u64(seed);
    }

    /// Creates an account (idempotent).
    pub fn register(&self, jid: &Jid) {
        self.inner.borrow_mut().accounts.insert(jid.clone());
    }

    /// Adds a bidirectional roster association — the administrator
    /// assigning a device to a researcher (§3.1).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownAccount`] if either JID is unregistered.
    pub fn befriend(&self, a: &Jid, b: &Jid) -> Result<(), NetError> {
        let mut inner = self.inner.borrow_mut();
        for jid in [a, b] {
            if !inner.accounts.contains(jid) {
                return Err(NetError::UnknownAccount(jid.clone()));
            }
        }
        inner.roster.entry(a.clone()).or_default().insert(b.clone());
        inner.roster.entry(b.clone()).or_default().insert(a.clone());
        Ok(())
    }

    /// Removes a roster association (end of an experiment assignment).
    pub fn unfriend(&self, a: &Jid, b: &Jid) {
        let mut inner = self.inner.borrow_mut();
        if let Some(set) = inner.roster.get_mut(a) {
            set.remove(b);
        }
        if let Some(set) = inner.roster.get_mut(b) {
            set.remove(a);
        }
    }

    /// The roster of `jid`, sorted.
    pub fn roster(&self, jid: &Jid) -> Vec<Jid> {
        self.inner
            .borrow()
            .roster
            .get(jid)
            .map(|s| s.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Opens a session for `jid` with the given one-way network latency.
    /// An existing session for the same JID is disconnected first (a
    /// reconnect after handover).
    ///
    /// # Errors
    ///
    /// Returns [`NetError::UnknownAccount`] for unregistered JIDs and
    /// [`NetError::ServerDown`] during an outage.
    pub fn connect(&self, jid: &Jid, latency: SimDuration) -> Result<Session, NetError> {
        {
            let inner = self.inner.borrow();
            if inner.down {
                return Err(NetError::ServerDown);
            }
            if !inner.accounts.contains(jid) {
                return Err(NetError::UnknownAccount(jid.clone()));
            }
        }
        let old = self.inner.borrow_mut().sessions.remove(jid);
        if let Some(old) = old {
            old.mark_disconnected();
        }
        let session = Session {
            inner: Rc::new(RefCell::new(SessionInner {
                server: self.clone(),
                jid: jid.clone(),
                latency,
                generation: 0,
                connected: true,
                on_receive: None,
                on_presence: None,
                on_disconnect: None,
            })),
        };
        self.inner
            .borrow_mut()
            .sessions
            .insert(jid.clone(), session.clone());
        self.broadcast_presence(jid, true);
        Ok(session)
    }

    /// Installs (or replaces) server-side impairment for every leg that
    /// touches `jid`'s sessions, present and future; cleared by
    /// [`Switchboard::clear_link_shape`].
    pub fn shape_link(&self, jid: &Jid, shape: LinkShape) {
        self.inner.borrow_mut().shapes.insert(jid.clone(), shape);
    }

    /// Removes server-side impairment for `jid`.
    pub fn clear_link_shape(&self, jid: &Jid) {
        self.inner.borrow_mut().shapes.remove(jid);
    }

    /// Installs a server-side per-envelope fault hook for every leg that
    /// touches `jid`'s sessions (both directions, across reconnects).
    pub fn set_link_chaos(&self, jid: &Jid, hook: impl Fn(&Envelope) -> LinkFate + 'static) {
        self.inner
            .borrow_mut()
            .link_chaos
            .insert(jid.clone(), Rc::new(hook));
    }

    /// Restarts the switchboard: every session dies at once (envelopes in
    /// flight are lost via the generation check, presence state is wiped)
    /// but the server keeps accepting connections — the "Openfire bounced"
    /// fault. Accounts and rosters persist, as they would on disk.
    pub fn restart(&self) {
        self.inner.borrow_mut().restarts += 1;
        self.drop_all_sessions();
    }

    /// Starts or ends an outage. Going down kills every session (like
    /// [`Switchboard::restart`]) and makes [`Switchboard::connect`] fail
    /// with [`NetError::ServerDown`] until the server comes back up.
    pub fn set_down(&self, down: bool) {
        let was_down = {
            let mut inner = self.inner.borrow_mut();
            std::mem::replace(&mut inner.down, down)
        };
        if down && !was_down {
            self.drop_all_sessions();
        }
    }

    /// Whether the switchboard is refusing connections.
    pub fn is_down(&self) -> bool {
        self.inner.borrow().down
    }

    /// How many times [`Switchboard::restart`] has run.
    pub fn restarts(&self) -> u64 {
        self.inner.borrow().restarts
    }

    fn drop_all_sessions(&self) {
        let mut sessions: Vec<(Jid, Session)> = self.inner.borrow_mut().sessions.drain().collect();
        // The registry is a HashMap; sort so disconnect callbacks fire
        // in a deterministic order.
        sessions.sort_by(|a, b| a.0.cmp(&b.0));
        for (_, session) in sessions {
            session.mark_disconnected();
        }
    }

    /// One leg's worth of server-side impairment for `jid`: `None` to
    /// drop, `Some(extra)` to deliver with that much added delay.
    fn shape_leg(&self, jid: &Jid, envelope: &Envelope) -> Option<SimDuration> {
        let hook = self.inner.borrow().link_chaos.get(jid).cloned();
        let mut extra = SimDuration::ZERO;
        if let Some(hook) = hook {
            match hook(envelope) {
                LinkFate::Drop => return None,
                LinkFate::Delay(d) => extra += d,
                LinkFate::Deliver => {}
            }
        }
        let mut inner = self.inner.borrow_mut();
        let Some(shape) = inner.shapes.get(jid).copied() else {
            return Some(extra);
        };
        if shape.loss > 0.0 && inner.shaper_rng.chance(shape.loss) {
            return None;
        }
        extra += shape.extra_latency;
        if shape.jitter > SimDuration::ZERO {
            let ms = inner.shaper_rng.range_u64(0, shape.jitter.as_millis() + 1);
            extra += SimDuration::from_millis(ms);
        }
        Some(extra)
    }

    /// Notifies `jid`'s roster buddies (with live sessions) that `jid`
    /// went on- or offline — XMPP presence, which the collector uses to
    /// retransmit pending messages on device reconnect.
    fn broadcast_presence(&self, jid: &Jid, online: bool) {
        let watchers: Vec<Session> = {
            let inner = self.inner.borrow();
            inner
                .roster
                .get(jid)
                .map(|buddies| {
                    buddies
                        .iter()
                        .filter_map(|b| inner.sessions.get(b).cloned())
                        .collect()
                })
                .unwrap_or_default()
        };
        for watcher in watchers {
            let handler = watcher.inner.borrow().on_presence.clone();
            if let Some(handler) = handler {
                handler(jid, online);
            }
        }
    }

    /// True if `jid` has a live session.
    pub fn is_online(&self, jid: &Jid) -> bool {
        self.inner.borrow().sessions.contains_key(jid)
    }

    /// Envelopes delivered end-to-end.
    pub fn routed(&self) -> u64 {
        self.inner.borrow().routed
    }

    /// Envelopes dropped (recipient offline or session died in flight).
    pub fn dropped(&self) -> u64 {
        self.inner.borrow().dropped
    }

    fn count_dropped(&self) {
        self.inner.borrow_mut().dropped += 1;
    }

    /// Second routing hop: forward to the recipient's current session if
    /// any, subject to the downlink leg's impairments.
    fn route(&self, envelope: Envelope) {
        let (recipient, sim) = {
            let inner = self.inner.borrow();
            (inner.sessions.get(&envelope.to).cloned(), inner.sim.clone())
        };
        let Some(recipient) = recipient else {
            self.count_dropped();
            return;
        };
        let Some(extra) = self.shape_leg(&envelope.to, &envelope) else {
            // Downlink loss: counted like any other in-flight casualty.
            self.count_dropped();
            return;
        };
        let expected_gen = recipient.generation();
        let latency = recipient.latency() + extra;
        let server = self.clone();
        sim.schedule_in(latency, move || {
            if recipient.is_connected() && recipient.generation() == expected_gen {
                server.inner.borrow_mut().routed += 1;
                recipient.deliver(envelope);
            } else {
                server.count_dropped();
            }
        });
    }
}

type PresenceListener = Rc<dyn Fn(&Jid, bool)>;

struct SessionInner {
    server: Switchboard,
    jid: Jid,
    latency: SimDuration,
    generation: u64,
    connected: bool,
    on_receive: Option<Rc<dyn Fn(Envelope)>>,
    on_presence: Option<PresenceListener>,
    on_disconnect: Option<Rc<dyn Fn()>>,
}

/// A client connection to the switchboard. Cheap to clone.
#[derive(Clone)]
pub struct Session {
    inner: Rc<RefCell<SessionInner>>,
}

impl fmt::Debug for Session {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Session")
            .field("jid", &inner.jid)
            .field("connected", &inner.connected)
            .finish()
    }
}

impl Session {
    /// True until [`Session::disconnect`] (or a replacing reconnect).
    pub fn is_connected(&self) -> bool {
        self.inner.borrow().connected
    }

    /// One-way latency of this session's link.
    pub fn latency(&self) -> SimDuration {
        self.inner.borrow().latency
    }

    /// Installs the receive callback (replacing any previous one).
    pub fn on_receive(&self, f: impl Fn(Envelope) + 'static) {
        self.inner.borrow_mut().on_receive = Some(Rc::new(f));
    }

    /// Installs the presence callback: invoked with `(buddy, online)`
    /// when a roster buddy's session opens or closes.
    pub fn on_presence(&self, f: impl Fn(&Jid, bool) + 'static) {
        self.inner.borrow_mut().on_presence = Some(Rc::new(f));
    }

    /// Installs the disconnect callback: invoked once when this session
    /// dies for any reason — explicit [`Session::disconnect`], a replacing
    /// reconnect, or a server restart/outage. This is how clients learn
    /// the switchboard kicked them and schedule a reconnect.
    pub fn on_disconnect(&self, f: impl Fn() + 'static) {
        self.inner.borrow_mut().on_disconnect = Some(Rc::new(f));
    }

    /// Sends a payload to `to`, subject to roster authorization. Delivery
    /// is asynchronous and may silently fail if either session dies while
    /// the envelope is in flight, or if the recipient is offline — use the
    /// reliable layer ([`MessageStore`](crate::MessageStore) plus
    /// [`DedupFilter`](crate::DedupFilter)) on top.
    ///
    /// # Errors
    ///
    /// Returns [`NetError::NotConnected`] or [`NetError::NotAuthorized`].
    pub fn send(&self, to: &Jid, seq: u64, payload: Payload) -> Result<(), NetError> {
        let (server, from, latency, my_gen) = {
            let inner = self.inner.borrow();
            if !inner.connected {
                return Err(NetError::NotConnected);
            }
            (
                inner.server.clone(),
                inner.jid.clone(),
                inner.latency,
                inner.generation,
            )
        };
        // Roster check at the server.
        let authorized = {
            let inner = server.inner.borrow();
            inner
                .roster
                .get(&from)
                .is_some_and(|buddies| buddies.contains(to))
        };
        if !authorized {
            return Err(NetError::NotAuthorized {
                from,
                to: to.clone(),
            });
        }
        let envelope = Envelope {
            from,
            to: to.clone(),
            seq,
            payload,
            sent_at_ms: server.inner.borrow().sim.now().as_millis(),
        };
        let Some(extra) = server.shape_leg(&envelope.from, &envelope) else {
            // Uplink loss: the radio ate it. Senders see Ok — exactly the
            // silent failure the reliable layer exists for.
            server.count_dropped();
            return Ok(());
        };
        let sim = server.inner.borrow().sim.clone();
        let me = self.clone();
        sim.schedule_in(latency + extra, move || {
            // Uplink leg: lost if our session died while in flight.
            let server = me.inner.borrow().server.clone();
            if me.is_connected() && me.generation() == my_gen {
                server.route(envelope);
            } else {
                server.count_dropped();
            }
        });
        Ok(())
    }

    /// Tears the session down (handover, airplane mode, reboot). In-flight
    /// envelopes in either direction are lost.
    pub fn disconnect(&self) {
        let (server, jid, was_connected) = {
            let inner = self.inner.borrow();
            (inner.server.clone(), inner.jid.clone(), inner.connected)
        };
        if !was_connected {
            return;
        }
        let removed = {
            let mut server_inner = server.inner.borrow_mut();
            // Only remove the registry entry if it is still this session.
            match server_inner.sessions.get(&jid) {
                Some(current) if Rc::ptr_eq(&current.inner, &self.inner) => {
                    server_inner.sessions.remove(&jid);
                    true
                }
                _ => false,
            }
        };
        if removed {
            server.broadcast_presence(&jid, false);
        }
        // Last: the disconnect callback may immediately reconnect.
        self.mark_disconnected();
    }

    fn mark_disconnected(&self) {
        let handler = {
            let mut inner = self.inner.borrow_mut();
            if !inner.connected {
                return;
            }
            inner.connected = false;
            inner.generation += 1;
            inner.on_disconnect.clone()
        };
        // Invoked outside the borrow: handlers reconnect, which touches
        // the server registry and may replace this very session.
        if let Some(handler) = handler {
            handler();
        }
    }

    fn generation(&self) -> u64 {
        self.inner.borrow().generation
    }

    fn deliver(&self, envelope: Envelope) {
        let handler = self.inner.borrow().on_receive.clone();
        if let Some(handler) = handler {
            handler(envelope);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_sim::SimTime;

    fn setup() -> (Sim, Switchboard, Jid, Jid) {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let dev = Jid::new("device@pogo").unwrap();
        let col = Jid::new("collector@pogo").unwrap();
        server.register(&dev);
        server.register(&col);
        server.befriend(&dev, &col).unwrap();
        (sim, server, dev, col)
    }

    fn received_log(session: &Session) -> Rc<RefCell<Vec<Envelope>>> {
        let log: Rc<RefCell<Vec<Envelope>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        session.on_receive(move |e| l.borrow_mut().push(e));
        log
    }

    #[test]
    fn end_to_end_delivery_with_latency() {
        let (sim, server, dev, col) = setup();
        let ds = server.connect(&dev, SimDuration::from_millis(80)).unwrap();
        let cs = server.connect(&col, SimDuration::from_millis(20)).unwrap();
        let log = received_log(&cs);
        ds.send(&col, 1, Payload::Data("hi".into())).unwrap();
        sim.run_until(SimTime::from_millis(99));
        assert!(log.borrow().is_empty(), "not before 100 ms total latency");
        sim.run_until(SimTime::from_millis(100));
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(log.borrow()[0].data(), Some("hi"));
        assert_eq!(server.routed(), 1);
    }

    #[test]
    fn offline_recipient_drops() {
        let (sim, server, dev, col) = setup();
        let ds = server.connect(&dev, SimDuration::from_millis(10)).unwrap();
        ds.send(&col, 1, Payload::Data("x".into())).unwrap();
        sim.run_until_idle();
        assert_eq!(server.routed(), 0);
        assert_eq!(server.dropped(), 1);
    }

    #[test]
    fn unauthorized_send_rejected() {
        let (_sim, server, dev, _col) = setup();
        let stranger = Jid::new("stranger@pogo").unwrap();
        server.register(&stranger);
        let ss = server
            .connect(&stranger, SimDuration::from_millis(10))
            .unwrap();
        let err = ss.send(&dev, 1, Payload::Data("x".into())).unwrap_err();
        assert!(matches!(err, NetError::NotAuthorized { .. }));
    }

    #[test]
    fn unknown_account_cannot_connect() {
        let (_sim, server, _dev, _col) = setup();
        let ghost = Jid::new("ghost@pogo").unwrap();
        assert_eq!(
            server.connect(&ghost, SimDuration::ZERO).unwrap_err(),
            NetError::UnknownAccount(ghost)
        );
    }

    #[test]
    fn handover_loses_in_flight_uplink() {
        let (sim, server, dev, col) = setup();
        let ds = server.connect(&dev, SimDuration::from_millis(100)).unwrap();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let log = received_log(&cs);
        ds.send(&col, 1, Payload::Data("doomed".into())).unwrap();
        // The interface changes 50 ms in — mid-flight.
        let ds2 = ds.clone();
        sim.schedule_in(SimDuration::from_millis(50), move || ds2.disconnect());
        sim.run_until_idle();
        assert!(log.borrow().is_empty());
        assert_eq!(server.dropped(), 1);
    }

    #[test]
    fn handover_loses_in_flight_downlink() {
        let (sim, server, dev, col) = setup();
        let ds = server.connect(&dev, SimDuration::from_millis(10)).unwrap();
        let cs = server.connect(&col, SimDuration::from_millis(100)).unwrap();
        let log = received_log(&cs);
        ds.send(&col, 1, Payload::Data("doomed".into())).unwrap();
        // Collector's link drops while the server→collector leg is in
        // flight (10 ms uplink + 100 ms downlink; cut at 60 ms).
        let cs2 = cs.clone();
        sim.schedule_in(SimDuration::from_millis(60), move || cs2.disconnect());
        sim.run_until_idle();
        assert!(log.borrow().is_empty());
        assert_eq!(server.dropped(), 1);
    }

    #[test]
    fn reconnect_replaces_session_and_old_one_is_dead() {
        let (sim, server, dev, col) = setup();
        let old = server.connect(&dev, SimDuration::from_millis(10)).unwrap();
        let new = server.connect(&dev, SimDuration::from_millis(10)).unwrap();
        assert!(!old.is_connected(), "old session died on reconnect");
        assert!(new.is_connected());
        assert!(server.is_online(&dev));
        assert_eq!(
            old.send(&col, 1, Payload::Data("x".into())).unwrap_err(),
            NetError::NotConnected
        );
        let _ = sim;
    }

    #[test]
    fn messages_after_reconnect_flow_again() {
        let (sim, server, dev, col) = setup();
        let cs = server.connect(&col, SimDuration::from_millis(5)).unwrap();
        let log = received_log(&cs);
        let ds = server.connect(&dev, SimDuration::from_millis(5)).unwrap();
        ds.disconnect();
        assert!(!server.is_online(&dev));
        let ds = server.connect(&dev, SimDuration::from_millis(5)).unwrap();
        ds.send(&col, 7, Payload::Data("back".into())).unwrap();
        sim.run_until_idle();
        assert_eq!(log.borrow().len(), 1);
        assert_eq!(log.borrow()[0].seq, 7);
    }

    #[test]
    fn unfriend_revokes_authorization() {
        let (_sim, server, dev, col) = setup();
        let ds = server.connect(&dev, SimDuration::ZERO).unwrap();
        server.unfriend(&dev, &col);
        assert!(ds.send(&col, 1, Payload::Data("x".into())).is_err());
        assert!(server.roster(&dev).is_empty());
    }

    #[test]
    fn presence_notifies_roster_buddies() {
        let (_sim, server, dev, col) = setup();
        let cs = server.connect(&col, SimDuration::from_millis(5)).unwrap();
        let events: Rc<RefCell<Vec<(String, bool)>>> = Rc::new(RefCell::new(Vec::new()));
        let e = events.clone();
        cs.on_presence(move |jid, online| e.borrow_mut().push((jid.to_string(), online)));
        let ds = server.connect(&dev, SimDuration::from_millis(5)).unwrap();
        ds.disconnect();
        // Strangers generate no presence.
        let stranger = Jid::new("stranger@pogo").unwrap();
        server.register(&stranger);
        let _ss = server.connect(&stranger, SimDuration::ZERO).unwrap();
        assert_eq!(
            *events.borrow(),
            vec![
                ("device@pogo".to_owned(), true),
                ("device@pogo".to_owned(), false)
            ]
        );
    }

    #[test]
    fn lossy_session_drops_that_fraction() {
        let (sim, server, dev, col) = setup();
        let _cs = server.connect(&col, SimDuration::ZERO).unwrap();
        server.reseed_link_rng(42);
        server.shape_link(
            &dev,
            LinkShape {
                loss: 0.5,
                ..LinkShape::default()
            },
        );
        let ds = server.connect(&dev, SimDuration::ZERO).unwrap();
        for seq in 0..200 {
            ds.send(&col, seq, Payload::Data("x".into())).unwrap();
        }
        sim.run_until_idle();
        let dropped = server.dropped();
        assert!(
            (60..=140).contains(&dropped),
            "expected ~100 of 200 lost, got {dropped}"
        );
        assert_eq!(server.routed() + dropped, 200);
    }

    #[test]
    fn session_loss_stream_is_deterministic() {
        let fates = || {
            let (sim, server, dev, col) = setup();
            let cs = server.connect(&col, SimDuration::ZERO).unwrap();
            let log = received_log(&cs);
            server.reseed_link_rng(7);
            server.shape_link(
                &dev,
                LinkShape {
                    loss: 0.3,
                    jitter: SimDuration::from_millis(40),
                    extra_latency: SimDuration::from_millis(100),
                },
            );
            let ds = server.connect(&dev, SimDuration::ZERO).unwrap();
            for seq in 0..50 {
                ds.send(&col, seq, Payload::Data("x".into())).unwrap();
            }
            sim.run_until_idle();
            // Jitter reorders: the arrival order is part of the stream.
            let arrivals: Vec<u64> = log.borrow().iter().map(|e| e.seq).collect();
            (server.routed(), server.dropped(), arrivals, sim.now())
        };
        let (routed, dropped, arrivals, end) = fates();
        assert_eq!(routed + dropped, 50);
        assert!(routed > 0 && dropped > 0, "{routed} routed, {dropped} lost");
        // Only the device's leg is shaped: 100 ms constant + up to 40 ms.
        assert!(
            (SimTime::from_millis(100)..=SimTime::from_millis(140)).contains(&end),
            "last arrival at {end:?}"
        );
        assert_eq!(arrivals.len() as u64, routed);
        assert_eq!((routed, dropped, arrivals, end), fates());
    }

    #[test]
    fn chaos_hook_controls_fate_per_envelope() {
        let (sim, server, dev, col) = setup();
        let cs = server.connect(&col, SimDuration::ZERO).unwrap();
        let log = received_log(&cs);
        server.set_link_chaos(&dev, |e| {
            if e.seq % 2 == 0 {
                LinkFate::Drop
            } else {
                LinkFate::Delay(SimDuration::from_millis(500))
            }
        });
        let ds = server.connect(&dev, SimDuration::ZERO).unwrap();
        for seq in 1..=4 {
            ds.send(&col, seq, Payload::Data("x".into())).unwrap();
        }
        sim.run_until(SimTime::from_millis(499));
        assert!(log.borrow().is_empty(), "delayed envelopes not yet due");
        sim.run_until_idle();
        let seqs: Vec<u64> = log.borrow().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![1, 3]);
        assert_eq!(server.dropped(), 2);
    }

    #[test]
    fn server_side_link_shape_survives_reconnect() {
        let (sim, server, dev, col) = setup();
        let _cs = server.connect(&col, SimDuration::ZERO).unwrap();
        server.shape_link(
            &dev,
            LinkShape {
                loss: 1.0,
                ..LinkShape::default()
            },
        );
        // The device reconnects with a plain, clean session — the
        // server-side shape still applies.
        let ds = server.connect(&dev, SimDuration::ZERO).unwrap();
        ds.send(&col, 1, Payload::Data("x".into())).unwrap();
        let ds = server.connect(&dev, SimDuration::ZERO).unwrap();
        ds.send(&col, 2, Payload::Data("x".into())).unwrap();
        sim.run_until_idle();
        assert_eq!(server.routed(), 0);
        server.clear_link_shape(&dev);
        ds.send(&col, 3, Payload::Data("x".into())).unwrap();
        sim.run_until_idle();
        assert_eq!(server.routed(), 1);
    }

    #[test]
    fn restart_kills_sessions_and_fires_on_disconnect() {
        let (sim, server, dev, col) = setup();
        let ds = server.connect(&dev, SimDuration::from_millis(10)).unwrap();
        let cs = server.connect(&col, SimDuration::from_millis(10)).unwrap();
        let log = received_log(&cs);
        let kicked: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        let k = kicked.clone();
        ds.on_disconnect(move || k.borrow_mut().push("dev"));
        let k = kicked.clone();
        cs.on_disconnect(move || k.borrow_mut().push("col"));
        ds.send(&col, 1, Payload::Data("doomed".into())).unwrap();
        server.restart();
        sim.run_until_idle();
        assert!(log.borrow().is_empty(), "in-flight died with the restart");
        assert!(!ds.is_connected());
        assert!(!cs.is_connected());
        assert!(!server.is_online(&dev));
        assert_eq!(server.restarts(), 1);
        // Jid-sorted callback order: collector@pogo < device@pogo.
        assert_eq!(*kicked.borrow(), vec!["col", "dev"]);
    }

    #[test]
    fn outage_refuses_connections_until_back_up() {
        let (_sim, server, dev, _col) = setup();
        let ds = server.connect(&dev, SimDuration::ZERO).unwrap();
        server.set_down(true);
        assert!(server.is_down());
        assert!(!ds.is_connected(), "outage kills live sessions");
        assert_eq!(
            server.connect(&dev, SimDuration::ZERO).unwrap_err(),
            NetError::ServerDown
        );
        server.set_down(false);
        assert!(server.connect(&dev, SimDuration::ZERO).is_ok());
    }

    #[test]
    fn replacing_reconnect_fires_old_sessions_on_disconnect() {
        let (_sim, server, dev, _col) = setup();
        let old = server.connect(&dev, SimDuration::ZERO).unwrap();
        let fired = Rc::new(RefCell::new(0u32));
        let f = fired.clone();
        old.on_disconnect(move || *f.borrow_mut() += 1);
        let _new = server.connect(&dev, SimDuration::ZERO).unwrap();
        assert_eq!(*fired.borrow(), 1);
        // Explicitly disconnecting the dead session is a no-op.
        old.disconnect();
        assert_eq!(*fired.borrow(), 1);
    }

    #[test]
    fn restart_kicks_sessions_in_sorted_jid_order() {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let order: Rc<RefCell<Vec<Jid>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..12 {
            let jid = Jid::new(&format!("dev-{i}@pogo")).unwrap();
            server.register(&jid);
            let s = server.connect(&jid, SimDuration::ZERO).unwrap();
            let o = order.clone();
            s.on_disconnect(move || o.borrow_mut().push(jid.clone()));
        }
        server.restart();
        let kicked = order.borrow().clone();
        let mut sorted = kicked.clone();
        sorted.sort();
        assert_eq!(kicked.len(), 12);
        assert_eq!(kicked, sorted);
    }

    #[test]
    fn roster_lists_buddies_sorted() {
        let (_sim, server, dev, col) = setup();
        let r2 = Jid::new("another@pogo").unwrap();
        server.register(&r2);
        server.befriend(&dev, &r2).unwrap();
        let roster = server.roster(&dev);
        assert_eq!(roster, vec![r2, col]);
    }
}
