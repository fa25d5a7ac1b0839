//! The reliable link: a node's switchboard session and the end-to-end
//! protocol Pogo runs on top of XMPP (§4.6), once for both node kinds.
//!
//! It owns the session and the reconnect-on-kick loop, the outbox (one
//! [`MessageStore`] per peer, so each peer sees its own dense sequence
//! numbers), the duplicate filter, the inbound split (an ack clears the
//! outbox; every data envelope is acked, a duplicate dropped, a fresh one
//! handed to the node) and the `net.*` counters of all of it. The node
//! supplies [`Hooks`] and decides when its outbox goes out.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use pogo_net::{
    DedupFilter, Envelope, Jid, MessageStore, Payload, Session, StoredMessage, Switchboard,
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
    /// False while the node is down (rebooting): a kick is not redialled.
    pub up: fn(&N) -> bool,
    /// How long a kicked node waits before it dials again.
    pub reconnect_delay: SimDuration,
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

/// One node's link. The outbox and the dedup filter are durable: a
/// reboot keeps them, as a database file on flash would.
pub(crate) struct Link<N: 'static> {
    hooks: &'static Hooks<N>,
    jid: Jid,
    server: Switchboard,
    sim: Sim,
    obs: Obs,
    logs: LogStore,
    /// Unacked messages per peer. BTreeMap: a retransmission sweep
    /// iterates it while scheduling sends, in a stable order.
    outbox: RefCell<BTreeMap<Jid, MessageStore>>,
    /// Messages in `outbox`, every peer together.
    depth: Cell<usize>,
    dedup: DedupFilter,
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
            outbox: RefCell::default(),
            depth: Cell::new(0),
            dedup: DedupFilter::new(),
            session: RefCell::default(),
            reconnect_pending: Cell::new(false),
        }
    }

    /// The session, while it is live.
    pub(crate) fn session(&self) -> Option<Session> {
        let session = self.session.borrow();
        session.as_ref().filter(|s| s.is_connected()).cloned()
    }

    /// Dials `node` in, unless connected or unable to; a refused dial
    /// (outage) goes to the reconnect loop.
    pub(crate) fn connect(&self, node: &N) {
        let Some(latency) = (self.hooks.dial)(node) else {
            return;
        };
        if self.session().is_some() {
            return;
        }
        let Ok(session) = self.server.connect(&self.jid, latency) else {
            return self.schedule_reconnect(node);
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
        if self.reconnect_pending.get() || !(self.hooks.up)(node) {
            return;
        }
        self.reconnect_pending.set(true);
        let (me, link) = (node.clone(), self.hooks.link);
        self.sim.schedule_in(self.hooks.reconnect_delay, move || {
            let link = link(&me);
            let hooks = link.hooks;
            link.reconnect_pending.set(false);
            if !(hooks.up)(&me) || (hooks.dial)(&me).is_none() || link.session().is_some() {
                return;
            }
            link.connect(&me);
            if link.session().is_some() {
                (hooks.reconnected)(&me);
            }
        });
    }

    /// Queues an encoded message for `to` until `to` acks it.
    pub(crate) fn enqueue(&self, to: &Jid, json: String) {
        let store = {
            let mut outbox = self.outbox.borrow_mut();
            outbox.entry(to.clone()).or_default().clone()
        };
        store.enqueue(to, json, self.sim.now());
        self.depth.set(self.depth.get() + 1);
        if self.obs.is_enabled() {
            self.obs.metrics().inc("net.enqueued", 1);
            let depth = self.depth.get() as f64;
            self.obs.metrics().gauge("net.store_depth", depth);
        }
    }

    /// Unacked messages, oldest first: for `peer`, or for every peer in
    /// turn.
    pub(crate) fn pending(&self, peer: Option<&Jid>) -> Vec<StoredMessage> {
        let outbox = self.outbox.borrow();
        if let Some(peer) = peer {
            let store = outbox.get(peer);
            return store.map(MessageStore::pending).unwrap_or_default();
        }
        let mut stores = outbox.values();
        let mut all = stores.next().map(MessageStore::pending).unwrap_or_default();
        stores.for_each(|store| all.extend(store.pending()));
        all
    }

    /// Sends `peer` everything it has not acked, if it is online;
    /// `retry` counts the messages as `net.retransmits`.
    pub(crate) fn transmit(&self, peer: &Jid, retry: bool) {
        if !self.server.is_online(peer) {
            return;
        }
        let pending = self.pending(Some(peer));
        if pending.is_empty() {
            return;
        }
        self.sent(&pending);
        if retry && self.obs.is_enabled() {
            let metrics = self.obs.metrics();
            metrics.inc("net.retransmits", pending.len() as u64);
        }
        if let Some(session) = self.session() {
            send_data(&session, pending);
        }
    }

    /// Retransmits to every peer with unacked messages; returns whether
    /// there was one.
    pub(crate) fn retransmit_all(&self) -> bool {
        let peers: Vec<Jid> = {
            let outbox = self.outbox.borrow();
            let waiting = outbox.iter().filter(|(_, store)| !store.is_empty());
            waiting.map(|(peer, _)| peer.clone()).collect()
        };
        for peer in &peers {
            self.transmit(peer, true);
        }
        !peers.is_empty()
    }

    /// Unacked messages, every peer together.
    pub(crate) fn depth(&self) -> usize {
        self.depth.get()
    }

    /// §5.3's expiry: drops messages older than `max_age`, then returns
    /// the age of the oldest one left.
    pub(crate) fn expire(&self, now: SimTime, max_age: SimDuration) -> Option<SimDuration> {
        let outbox = self.outbox.borrow();
        let purge = |store: &MessageStore| store.purge_older_than(now, max_age);
        let purged: usize = outbox.values().map(purge).sum();
        self.depth.set(self.depth.get() - purged);
        outbox.values().filter_map(|s| s.oldest_age(now)).max()
    }

    /// Messages the expiry dropped so far.
    pub(crate) fn purged(&self) -> u64 {
        let outbox = self.outbox.borrow();
        outbox.values().map(MessageStore::purged_total).sum()
    }

    /// Counts `pending` as sent and returns its size on the wire.
    pub(crate) fn sent(&self, pending: &[StoredMessage]) -> u64 {
        let bytes = pending.iter().map(StoredMessage::wire_size).sum();
        if self.obs.is_enabled() {
            let metrics = self.obs.metrics();
            metrics.inc("net.messages_sent", pending.len() as u64);
            metrics.inc("net.bytes_up", bytes);
        }
        bytes
    }

    fn on_envelope(&self, node: &N, envelope: Envelope) {
        let (from, seq) = (&envelope.from, envelope.seq);
        let json = match &envelope.payload {
            Payload::Data(json) => json,
            Payload::Ack(acked) => {
                let store = self.outbox.borrow().get(from).cloned();
                if let Some(store) = store {
                    self.depth.set(self.depth.get() - store.ack(&[*acked]));
                }
                return;
            }
        };
        let fresh = self.dedup.first_sighting(from, seq);
        // Always ack: the previous ack may have been lost.
        self.send_ack(node, from, seq);
        if self.obs.is_enabled() {
            let metrics = self.obs.metrics();
            if fresh {
                metrics.inc("net.messages_received", 1);
                metrics.inc("net.bytes_down", envelope.wire_size());
            } else {
                metrics.inc("net.dedup_drops", 1);
            }
        }
        if !fresh {
            return;
        }
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
        if self.obs.is_enabled() {
            self.obs.metrics().inc("net.acks_sent", 1);
        }
        let ack = Envelope {
            from: self.jid.clone(),
            to: to.clone(),
            seq: 0,
            payload: Payload::Ack(seq),
            sent_at_ms: 0,
        };
        match self.hooks.radio {
            Some(radio) => radio(node, session, ack),
            None => {
                let _ = session.send(&ack.to, ack.seq, ack.payload);
            }
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
