//! The reliable link: a node's switchboard session and the end-to-end
//! protocol Pogo runs on top of XMPP (§4.6), once for both node kinds.
//!
//! It owns the session and the reconnect-on-kick loop, one [`Peer`]
//! record per correspondent, the inbound split (an ack clears the outbox;
//! every data envelope is acked, a duplicate dropped, a fresh one handed
//! to the node) and the `net.*` counters of all of it. The node supplies
//! [`Hooks`] and decides when its outbox goes out.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Bound;

use pogo_net::{
    Envelope, Jid, MessageStore, Payload, SeenSet, Session, StoredMessage, Switchboard,
};
use pogo_obs::Obs;
use pogo_sim::{Sim, SimDuration, SimTime};

use crate::host::LogStore;
use crate::proto::ControlMsg;

/// A node's policy, as its link calls it.
pub(crate) struct Hooks<N: 'static> {
    /// Where the node keeps its link.
    pub link: fn(&N) -> &Link<N>,
    /// The one-way latency to dial in with; `None` while the node cannot
    /// reach the switchboard.
    pub dial: fn(&N) -> Option<SimDuration>,
    /// How long a kicked node waits before it dials again; `None` while
    /// it is down (rebooting), when a kick is not redialled.
    pub redial: fn(&N) -> Option<SimDuration>,
    /// Sends an ack over the session when the node's radio has it out;
    /// `None` sends acks at once.
    pub radio: Option<fn(&N, Session, Envelope)>,
    /// A fresh control message from a peer.
    pub deliver: fn(&N, ControlMsg, &Jid),
    /// The reconnect loop got a session back.
    pub reconnected: fn(&N),
    /// A roster buddy came online.
    pub presence: fn(&N, &Jid),
}

/// What a link keeps per peer, durable as a database file on flash: the
/// messages the peer has not acked, numbered densely for it, and the seqs
/// seen from it.
#[derive(Default)]
struct Peer {
    outbox: MessageStore,
    seen: SeenSet,
}

/// One node's link.
pub(crate) struct Link<N: 'static> {
    hooks: &'static Hooks<N>,
    jid: Jid,
    server: Switchboard,
    sim: Sim,
    obs: Obs,
    logs: LogStore,
    /// BTreeMap: a retransmission sweep iterates it while scheduling
    /// sends, in a stable order.
    peers: RefCell<BTreeMap<Jid, Peer>>,
    /// Messages in the outboxes, every peer together.
    depth: Cell<usize>,
    session: RefCell<Option<Session>>,
    reconnect_pending: Cell<bool>,
}

impl<N: Clone + 'static> Link<N> {
    /// An unconnected link for `jid`.
    pub(crate) fn new(
        hooks: &'static Hooks<N>,
        sim: &Sim,
        server: &Switchboard,
        jid: &Jid,
        obs: &Obs,
        logs: &LogStore,
    ) -> Self {
        Link {
            hooks,
            jid: jid.clone(),
            server: server.clone(),
            sim: sim.clone(),
            obs: obs.clone(),
            logs: logs.clone(),
            peers: RefCell::default(),
            depth: Cell::new(0),
            session: RefCell::default(),
            reconnect_pending: Cell::new(false),
        }
    }

    /// The session, while it is live.
    pub(crate) fn session(&self) -> Option<Session> {
        let session = self.session.borrow();
        session.as_ref().filter(|s| s.is_connected()).cloned()
    }

    /// Dials `node` in, unless connected or unable to, and returns the
    /// live session; a refused dial (outage) goes to the reconnect loop.
    pub(crate) fn connect(&self, node: &N) -> Option<Session> {
        let live = self.session();
        let Some(latency) = (self.hooks.dial)(node).filter(|_| live.is_none()) else {
            return live;
        };
        let Ok(session) = self.server.connect(&self.jid, latency) else {
            self.schedule_reconnect(node);
            return None;
        };
        let (link, presence) = (self.hooks.link, self.hooks.presence);
        let me = node.clone();
        session.on_receive(move |envelope| link(&me).on_envelope(&me, envelope));
        let me = node.clone();
        session.on_presence(move |peer, online| {
            if online {
                presence(&me, peer);
            }
        });
        // The server may kick us at any time (restart, outage); the node
        // notices the dead session and dials back in.
        let me = node.clone();
        session.on_disconnect(move || link(&me).schedule_reconnect(&me));
        *self.session.borrow_mut() = Some(session);
        // Whatever the old session carried may be lost with it.
        let peers = self.peers.borrow();
        peers.values().for_each(|p| p.outbox.resend_all());
        self.session()
    }

    /// Drops the session; envelopes in flight either way are lost.
    pub(crate) fn disconnect(&self) {
        let session = self.session.take();
        if let Some(session) = session {
            session.disconnect();
        }
    }

    /// One reconnect attempt, unless one is pending or the node is down.
    /// It re-checks when it fires and retries while refused.
    fn schedule_reconnect(&self, node: &N) {
        if self.reconnect_pending.get() {
            return;
        }
        let Some(delay) = (self.hooks.redial)(node) else {
            return;
        };
        self.reconnect_pending.set(true);
        let (me, link) = (node.clone(), self.hooks.link);
        self.sim.schedule_in(delay, move || {
            let link = link(&me);
            let hooks = link.hooks;
            link.reconnect_pending.set(false);
            if (hooks.redial)(&me).is_none() || link.session().is_some() {
                return;
            }
            if link.connect(&me).is_some() {
                (hooks.reconnected)(&me);
            }
        });
    }

    /// Queues an encoded message for `to` until `to` acks it.
    pub(crate) fn enqueue(&self, to: &Jid, json: String) {
        let mut peers = self.peers.borrow_mut();
        let peer = peers.entry(to.clone()).or_default();
        peer.outbox.enqueue(to, json, self.sim.now());
        self.depth.set(self.depth.get() + 1);
        let metrics = self.obs.metrics();
        metrics.inc("net.enqueued", 1);
        metrics.gauge("net.store_depth", self.depth.get() as f64);
    }

    /// Counts what `peer` (every peer, for `None`) has waiting as sent and
    /// returns it, oldest first, with its bytes on the wire; `None` if
    /// nothing is due. With a zero `ack_timeout` that is every unacked
    /// message. Otherwise it is only those not in flight: each message
    /// returned is on the air until [`Link::landed`], then in flight for
    /// `ack_timeout`, unless a new session comes first; the resends among
    /// them count as `net.retransmits`. The caller hands the messages to
    /// the session with [`send_data`].
    pub(crate) fn outgoing(
        &self,
        peer: Option<&Jid>,
        ack_timeout: SimDuration,
    ) -> Option<(Vec<StoredMessage>, u64)> {
        let bound = peer.map_or(Bound::Unbounded, Bound::Included);
        let now = self.sim.now();
        let pick = |peer: &Peer| match ack_timeout {
            SimDuration::ZERO => (peer.outbox.pending(), 0),
            _ => peer.outbox.hand_out(now),
        };
        let peers = self.peers.borrow();
        let mut outboxes = peers.range::<Jid, _>((bound, bound));
        let (mut pending, mut resent) = pick(outboxes.next()?.1);
        for (_, more) in outboxes {
            let (more, more_resent) = pick(more);
            pending.extend(more);
            resent += more_resent;
        }
        if pending.is_empty() {
            return None;
        }
        let bytes = pending.iter().map(StoredMessage::wire_size).sum();
        let metrics = self.obs.metrics();
        metrics.inc("net.messages_sent", pending.len() as u64);
        metrics.inc("net.bytes_up", bytes);
        if resent > 0 {
            metrics.inc("net.retransmits", resent);
        }
        Some((pending, bytes))
    }

    /// What [`Link::outgoing`] put on the air entered the network now:
    /// each message not acked by `ack_timeout` from now is due again.
    pub(crate) fn landed(&self, ack_timeout: SimDuration) {
        let overdue_at = self.sim.now() + ack_timeout;
        let peers = self.peers.borrow();
        peers.values().for_each(|p| p.outbox.landed(overdue_at));
    }

    /// Sends what `peer` has not acked, if it is online; `None`
    /// retransmits to every peer with messages waiting. `retry` counts
    /// them as `net.retransmits`.
    pub(crate) fn transmit(&self, peer: Option<&Jid>, retry: bool) {
        let Some(peer) = peer else {
            let peers = self.peers.borrow();
            let waiting = peers.iter().filter(|(_, p)| !p.outbox.is_empty());
            return waiting.for_each(|(peer, _)| self.transmit(Some(peer), true));
        };
        if !self.server.is_online(peer) {
            return;
        }
        let Some((pending, _)) = self.outgoing(Some(peer), SimDuration::ZERO) else {
            return;
        };
        if retry {
            let metrics = self.obs.metrics();
            metrics.inc("net.retransmits", pending.len() as u64);
        }
        if let Some(session) = self.session() {
            send_data(&session, pending);
        }
    }

    /// Unacked messages, every peer together.
    pub(crate) fn depth(&self) -> usize {
        self.depth.get()
    }

    /// §5.3's expiry: drops messages older than `max_age`, then returns
    /// the age of the oldest one left.
    pub(crate) fn expire(&self, now: SimTime, max_age: SimDuration) -> Option<SimDuration> {
        let peers = self.peers.borrow();
        let purge = |peer: &Peer| peer.outbox.purge_older_than(now, max_age);
        let purged: usize = peers.values().map(purge).sum();
        self.depth.set(self.depth.get() - purged);
        let oldest = |peer: &Peer| peer.outbox.oldest_age(now);
        peers.values().filter_map(oldest).max()
    }

    /// Messages the expiry dropped so far.
    pub(crate) fn purged(&self) -> u64 {
        let peers = self.peers.borrow();
        peers.values().map(|p| p.outbox.purged_total()).sum()
    }

    fn on_envelope(&self, node: &N, envelope: Envelope) {
        let (from, seq) = (&envelope.from, envelope.seq);
        let json = match &envelope.payload {
            Payload::Data(json) => json,
            Payload::Ack(acked) => {
                if let Some(peer) = self.peers.borrow().get(from) {
                    let cleared = peer.outbox.ack(&[*acked]);
                    self.depth.set(self.depth.get() - cleared);
                }
                return;
            }
        };
        let mut peers = self.peers.borrow_mut();
        let fresh = peers.entry(from.clone()).or_default().seen.insert(seq);
        drop(peers);
        // Always ack: the previous ack may have been lost.
        self.send_ack(node, from, seq);
        let metrics = self.obs.metrics();
        if !fresh {
            return metrics.inc("net.dedup_drops", 1);
        }
        metrics.inc("net.messages_received", 1);
        metrics.inc("net.bytes_down", envelope.wire_size());
        match ControlMsg::from_json(json) {
            Ok(ctl) => (self.hooks.deliver)(node, ctl, from),
            Err(e) => {
                let line = format!("malformed message from {from}: {e}");
                self.logs.append("pogo-errors", line);
            }
        }
    }

    fn send_ack(&self, node: &N, to: &Jid, seq: u64) {
        let Some(session) = self.session() else {
            return;
        };
        self.obs.metrics().inc("net.acks_sent", 1);
        let ack = Envelope {
            from: self.jid.clone(),
            to: to.clone(),
            seq: 0,
            payload: Payload::Ack(seq),
            sent_at_ms: 0,
        };
        match self.hooks.radio {
            Some(radio) => radio(node, session, ack),
            None => drop(session.send(&ack.to, ack.seq, ack.payload)),
        }
    }
}

/// Hands `pending` to `session`, each message under its own sequence
/// number.
pub(crate) fn send_data(session: &Session, pending: Vec<StoredMessage>) {
    for msg in pending {
        let _ = session.send(&msg.to, msg.seq, Payload::Data(msg.data));
    }
}
