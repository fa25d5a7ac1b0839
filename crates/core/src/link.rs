//! The reliable link: a node's switchboard session and the end-to-end
//! protocol Pogo runs on top of XMPP (§4.6), once for both node kinds.
//!
//! It owns the session and the reconnect-on-kick loop, one [`Peer`]
//! record per correspondent, the inbound split (an ack clears the outbox;
//! every data envelope is acked, a duplicate dropped, a fresh one handed
//! to the node) and the `net.*` counters of all of it. The node supplies
//! [`Hooks`] and decides when its outbox goes out.
//!
//! What goes out goes as frames: each run of consecutive seqs handed out
//! for one peer is one data envelope, numbered by the run's first seq,
//! its messages one per line (a message's JSON holds no raw newline).
//! While the sender owes the peer its low-water mark (a §5.3 purge is
//! unacknowledged) a `mark <seq>` line comes first, and a frame may be
//! that line alone. A run of one without a mark is the message itself.
//! The receiver acks the whole run with one ack, `Ack(first)` on an
//! envelope whose own seq is the run's length less one.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::ops::Bound;

use pogo_net::{
    Envelope, Jid, MessageStore, Payload, SeenSet, Session, StoredMessage, Switchboard,
    ENVELOPE_OVERHEAD_BYTES,
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

impl Peer {
    /// A message waits for the peer's ack, or a purge for its mark's.
    fn owed(&self) -> bool {
        self.outbox.owed_since().is_some()
    }
}

/// The first line of a frame that carries the sender's low-water mark.
const MARK: &str = "mark ";

/// One data envelope's worth of a peer's outbox: a run of consecutive
/// seqs, numbered by its first, framed.
pub(crate) struct Frame {
    to: Jid,
    seq: u64,
    data: String,
}

/// What [`Link::outgoing`] hands out: the frames, how many messages they
/// carry, and their bytes on the wire.
pub(crate) struct Outgoing {
    pub frames: Vec<Frame>,
    pub messages: usize,
    pub bytes: u64,
}

/// Frames one peer's `picked` messages, oldest first, into runs of
/// consecutive seqs, one frame each, behind a `mark` line while `mark` is
/// owed. With nothing picked, an owed mark goes out alone, numbered at
/// the mark.
fn frame(to: &Jid, mut picked: Vec<StoredMessage>, mark: Option<u64>, out: &mut Vec<Frame>) {
    let to = || to.clone();
    if picked.is_empty() {
        if let Some(mark) = mark {
            out.reserve_exact(1);
            let data = format!("{MARK}{mark}");
            out.push(Frame {
                to: to(),
                seq: mark,
                data,
            });
        }
        return;
    }
    let run_len = |rest: &[StoredMessage]| {
        1 + rest
            .windows(2)
            .take_while(|w| w[1].seq == w[0].seq + 1)
            .count()
    };
    let breaks = picked.windows(2).filter(|w| w[1].seq != w[0].seq + 1);
    out.reserve_exact(1 + breaks.count());
    let header = mark.map(|m| format!("{MARK}{m}\n")).unwrap_or_default();
    let mut rest = &mut picked[..];
    while !rest.is_empty() {
        let (run, tail) = rest.split_at_mut(run_len(rest));
        let data = match run {
            [single] if header.is_empty() => std::mem::take(&mut single.data),
            _ => {
                let lines: usize = run.iter().map(|m| m.data.len() + 1).sum();
                let mut data = String::with_capacity(header.len() + lines - 1);
                data.push_str(&header);
                for (i, m) in run.iter().enumerate() {
                    if i > 0 {
                        data.push('\n');
                    }
                    data.push_str(&m.data);
                }
                data
            }
        };
        out.push(Frame {
            to: to(),
            seq: run[0].seq,
            data,
        });
        rest = tail;
    }
}

/// A data envelope numbered `seq`, unframed: the low-water mark if it
/// carries one, its messages (joined by newlines) and how many there
/// are. A frame that cannot be read is refused whole, with the reason.
fn unframe(data: &str, seq: u64) -> Result<(Option<u64>, &str, u64), &'static str> {
    let (mark, body) = match data.strip_prefix(MARK) {
        None => (None, Some(data)),
        Some(rest) => {
            let (digits, body) = match rest.split_once('\n') {
                Some((digits, body)) => (digits, Some(body)),
                None => (rest, None),
            };
            let mark: u64 = digits.parse().map_err(|_| "unreadable mark")?;
            if mark > seq {
                return Err("mark above the run");
            }
            (Some(mark), body)
        }
    };
    let len = body.map_or(0, |b| b.split('\n').count() as u64);
    if len > 0 && seq.checked_add(len - 1).is_none() {
        return Err("run past the last seq");
    }
    Ok((mark, body.unwrap_or(""), len))
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
    /// returns it framed, oldest first; `None` if nothing is due. With a
    /// zero `ack_timeout` that is every unacked message. Otherwise it is
    /// only those not in flight: each message returned is on the air until
    /// [`Link::landed`], then in flight for `ack_timeout`, unless a new
    /// session comes first; the resends among them count as
    /// `net.retransmits`. A peer owed a mark and nothing else gets the mark
    /// alone. The caller hands the frames to the session with
    /// [`send_data`].
    pub(crate) fn outgoing(
        &self,
        peer: Option<&Jid>,
        ack_timeout: SimDuration,
    ) -> Option<Outgoing> {
        let bound = peer.map_or(Bound::Unbounded, Bound::Included);
        let now = self.sim.now();
        let peers = self.peers.borrow();
        let (mut frames, mut messages, mut resent) = (Vec::new(), 0, 0);
        for (jid, peer) in peers.range::<Jid, _>((bound, bound)) {
            let (picked, again) = match ack_timeout {
                SimDuration::ZERO => (peer.outbox.pending(), 0),
                _ => peer.outbox.hand_out(now),
            };
            // Nothing due but something in flight: that carries the mark.
            let in_flight = picked.is_empty() && !peer.outbox.is_empty();
            let mark = peer.outbox.mark().filter(|_| !in_flight);
            messages += picked.len();
            resent += again;
            frame(jid, picked, mark, &mut frames);
        }
        if frames.is_empty() {
            return None;
        }
        let bytes = frames
            .iter()
            .map(|f| ENVELOPE_OVERHEAD_BYTES + f.data.len() as u64)
            .sum();
        let metrics = self.obs.metrics();
        if messages > 0 {
            metrics.inc("net.messages_sent", messages as u64);
        }
        metrics.inc("net.bytes_up", bytes);
        if resent > 0 {
            metrics.inc("net.retransmits", resent);
        }
        Some(Outgoing {
            frames,
            messages,
            bytes,
        })
    }

    /// What [`Link::outgoing`] put on the air entered the network now:
    /// each message not acked by `ack_timeout` from now is due again.
    pub(crate) fn landed(&self, ack_timeout: SimDuration) {
        let overdue_at = self.sim.now() + ack_timeout;
        let peers = self.peers.borrow();
        peers.values().for_each(|p| p.outbox.landed(overdue_at));
    }

    /// Sends what `peer` has not acked, if it is online; `None`
    /// retransmits to every peer owed something. `retry` counts the
    /// messages as `net.retransmits`.
    pub(crate) fn transmit(&self, peer: Option<&Jid>, retry: bool) {
        let Some(peer) = peer else {
            let peers = self.peers.borrow();
            let waiting = peers.iter().filter(|(_, p)| p.owed());
            return waiting.for_each(|(peer, _)| self.transmit(Some(peer), true));
        };
        if !self.server.is_online(peer) {
            return;
        }
        let Some(out) = self.outgoing(Some(peer), SimDuration::ZERO) else {
            return;
        };
        if retry && out.messages > 0 {
            let metrics = self.obs.metrics();
            metrics.inc("net.retransmits", out.messages as u64);
        }
        if let Some(session) = self.session() {
            send_data(&session, out.frames);
        }
    }

    /// Unacked messages, every peer together.
    pub(crate) fn depth(&self) -> usize {
        self.depth.get()
    }

    /// True while some peer is owed a message or a mark.
    pub(crate) fn owes(&self) -> bool {
        self.peers.borrow().values().any(Peer::owed)
    }

    /// Seen seqs held above the dedup floors, every sender together.
    pub(crate) fn held_above_floor(&self) -> usize {
        self.peers.borrow().values().map(|p| p.seen.held()).sum()
    }

    /// §5.3's expiry: drops messages older than `max_age`, then returns
    /// how long the oldest thing owed (a message, or a purge's mark) has
    /// been.
    pub(crate) fn expire(&self, now: SimTime, max_age: SimDuration) -> Option<SimDuration> {
        let peers = self.peers.borrow();
        let purge = |peer: &Peer| peer.outbox.purge_older_than(now, max_age);
        let purged: usize = peers.values().map(purge).sum();
        self.depth.set(self.depth.get() - purged);
        let since = peers.values().filter_map(|p| p.outbox.owed_since()).min()?;
        Some(now.saturating_duration_since(since))
    }

    /// Messages the expiry dropped so far.
    pub(crate) fn purged(&self) -> u64 {
        let peers = self.peers.borrow();
        peers.values().map(|p| p.outbox.purged_total()).sum()
    }

    fn on_envelope(&self, node: &N, envelope: Envelope) {
        let (from, seq) = (&envelope.from, envelope.seq);
        let data = match &envelope.payload {
            Payload::Data(data) => data,
            Payload::Ack(first) => {
                if let Some(peer) = self.peers.borrow().get(from) {
                    let cleared = peer.outbox.ack_run(*first, seq.wrapping_add(1));
                    self.depth.set(self.depth.get() - cleared);
                }
                return;
            }
        };
        let (mark, body, len) = match unframe(data, seq) {
            Ok(frame) => frame,
            Err(why) => {
                let line = format!("malformed frame from {from} at seq {seq}: {why}");
                return self.logs.append("pogo-errors", line);
            }
        };
        {
            let mut peers = self.peers.borrow_mut();
            let seen = &mut peers.entry(from.clone()).or_default().seen;
            mark.inspect(|mark| seen.raise_floor(*mark));
        }
        // Always ack: the previous ack may have been lost.
        self.send_ack(node, from, seq, len);
        let (mut fresh, mut refused, mut more) = (0, None, 0);
        for (at, json) in (seq..).zip(body.split('\n').take(len as usize)) {
            // Borrowed per message: delivering one may re-enter the link.
            let mut peers = self.peers.borrow_mut();
            if !peers.get_mut(from).is_some_and(|peer| peer.seen.insert(at)) {
                continue;
            }
            drop(peers);
            fresh += 1;
            match ControlMsg::from_json(json) {
                Ok(ctl) => (self.hooks.deliver)(node, ctl, from),
                Err(e) if refused.is_none() => refused = Some((at, e)),
                Err(_) => more += 1,
            }
        }
        let metrics = self.obs.metrics();
        if fresh < len {
            metrics.inc("net.dedup_drops", len - fresh);
        }
        if fresh > 0 {
            metrics.inc("net.messages_received", fresh);
            metrics.inc("net.bytes_down", envelope.wire_size());
        }
        if let Some((at, e)) = refused {
            let mut line = format!("malformed message from {from} at seq {at}: {e}");
            if more > 0 {
                line.push_str(&format!(" (and {more} more in its frame)"));
            }
            self.logs.append("pogo-errors", line);
        }
    }

    /// Acks the run of `len` seqs from `first`. A node without a radio to
    /// pay for it sends the ack of a longer run twice: a lost ack costs
    /// the sender the whole run again, and at loss `p` per envelope two
    /// copies cut that to `p²`.
    fn send_ack(&self, node: &N, to: &Jid, first: u64, len: u64) {
        let Some(session) = self.session() else {
            return;
        };
        let ack = Envelope {
            from: self.jid.clone(),
            to: to.clone(),
            seq: len.wrapping_sub(1),
            payload: Payload::Ack(first),
            sent_at_ms: 0,
        };
        let metrics = self.obs.metrics();
        match self.hooks.radio {
            Some(radio) => {
                metrics.inc("net.acks_sent", 1);
                radio(node, session, ack);
            }
            None => {
                let copies = if len > 1 { 2 } else { 1 };
                metrics.inc("net.acks_sent", copies);
                for _ in 0..copies {
                    let _ = session.send(&ack.to, ack.seq, ack.payload.clone());
                }
            }
        }
    }
}

/// Hands `frames` to `session`, each as one data envelope.
pub(crate) fn send_data(session: &Session, frames: Vec<Frame>) {
    for frame in frames {
        let _ = session.send(&frame.to, frame.seq, Payload::Data(frame.data));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn picked(seqs: &[u64]) -> Vec<StoredMessage> {
        let to = Jid::new("collector@pogo").unwrap();
        let message = |&seq: &u64| StoredMessage {
            seq,
            to: to.clone(),
            data: format!("{{\"n\":{seq}}}"),
            enqueued_at: SimTime::ZERO,
        };
        seqs.iter().map(message).collect()
    }

    fn framed(seqs: &[u64], mark: Option<u64>) -> Vec<(u64, String)> {
        let to = Jid::new("collector@pogo").unwrap();
        let mut out = Vec::new();
        frame(&to, picked(seqs), mark, &mut out);
        assert_eq!(out.capacity(), out.len(), "sized before the first frame");
        out.into_iter().map(|f| (f.seq, f.data)).collect()
    }

    #[test]
    fn each_run_of_consecutive_seqs_is_one_frame() {
        assert_eq!(framed(&[7], None), vec![(7, "{\"n\":7}".to_owned())]);
        assert_eq!(
            framed(&[3, 4, 5, 8, 9], None),
            vec![
                (3, "{\"n\":3}\n{\"n\":4}\n{\"n\":5}".to_owned()),
                (8, "{\"n\":8}\n{\"n\":9}".to_owned()),
            ]
        );
        assert_eq!(
            framed(&[12], Some(10)),
            vec![(12, "mark 10\n{\"n\":12}".to_owned())]
        );
        assert_eq!(framed(&[], Some(10)), vec![(10, "mark 10".to_owned())]);
        assert_eq!(framed(&[], None), vec![]);
    }

    #[test]
    fn unframe_reads_what_frame_writes() {
        assert_eq!(unframe("{}", 5), Ok((None, "{}", 1)));
        assert_eq!(unframe("a\nb", 5), Ok((None, "a\nb", 2)));
        assert_eq!(unframe("mark 3\na\nb", 5), Ok((Some(3), "a\nb", 2)));
        assert_eq!(unframe("mark 5", 5), Ok((Some(5), "", 0)));
        assert_eq!(unframe("mark 6", 5), Err("mark above the run"));
        assert_eq!(unframe("mark \n{}", 5), Err("unreadable mark"));
        assert_eq!(unframe("a\nb", u64::MAX), Err("run past the last seq"));
    }
}
