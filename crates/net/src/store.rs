//! The persistent outgoing message buffer.
//!
//! §4.6: "Messages are … buffered at the device and sent out in batches.
//! Buffered messages are stored in an embedded SQL database to ensure
//! that no messages are lost should a device reboot or run out of
//! battery." And §5.3's hard-earned lesson: "we had configured *Pogo* to
//! drop messages older than 24 hours if there was no Internet
//! connectivity" — which silently purged user 2a's roaming trip and user
//! 3's outage window. Both behaviours live here.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use pogo_sim::{SimDuration, SimTime};

use crate::jid::Jid;
use crate::wire::ENVELOPE_OVERHEAD_BYTES;

/// One buffered message awaiting delivery and acknowledgement.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredMessage {
    /// Sender-assigned sequence number.
    pub seq: u64,
    /// Recipient.
    pub to: Jid,
    /// Serialized payload.
    pub data: String,
    /// When the message was enqueued.
    pub enqueued_at: SimTime,
}

impl StoredMessage {
    /// Bytes this message occupies on the wire once wrapped in its
    /// envelope.
    pub fn wire_size(&self) -> u64 {
        self.data.len() as u64 + ENVELOPE_OVERHEAD_BYTES
    }
}

/// The due time of a message on the air: never, until it lands.
const ON_AIR: SimTime = SimTime::from_millis(u64::MAX);

/// A message as the store keeps it: [`StoredMessage`]'s fields, the
/// payload boxed exactly, and when it may be handed out again.
#[derive(Debug)]
struct Queued {
    seq: u64,
    to: Jid,
    data: Box<str>,
    enqueued_at: SimTime,
    /// When the message is due to go out: [`SimTime::ZERO`] until it is
    /// first handed out and after a new session, [`ON_AIR`] while it
    /// is on the air, then one ack timeout after it landed. `data` is a
    /// box, not a `String`, so that the record, this mark included,
    /// stays 48 bytes.
    due_at: SimTime,
}

impl Queued {
    fn to_stored(&self) -> StoredMessage {
        StoredMessage {
            seq: self.seq,
            to: self.to.clone(),
            data: String::from(&*self.data),
            enqueued_at: self.enqueued_at,
        }
    }
}

#[derive(Debug, Default)]
struct Inner {
    queue: VecDeque<Queued>,
    next_seq: u64,
    /// Every seq below this has been handed out at least once: picks go
    /// oldest first and take every due message, so a first send never
    /// skips one.
    handed_below: u64,
    purged: u64,
}

/// A persistent store-and-forward queue (the embedded-database stand-in).
///
/// The handle is cheap to clone. Persistence across reboots is modelled by
/// *keeping the store alive* while the middleware around it is torn down
/// and recreated — exactly what a database file on flash gives you.
///
/// Besides holding messages until they are acked, the store knows which
/// are *in flight*: [`MessageStore::hand_out`] picks only the messages due
/// and marks them on the air, [`MessageStore::landed`] starts their ack
/// timeout, and [`MessageStore::resend_all`] (a new session) makes every
/// one due again.
#[derive(Debug, Clone, Default)]
pub struct MessageStore {
    inner: Rc<RefCell<Inner>>,
}

impl MessageStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        MessageStore::default()
    }

    /// Enqueues a payload for `to`; returns the assigned sequence number.
    pub fn enqueue(&self, to: &Jid, data: String, now: SimTime) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let seq = inner.next_seq;
        inner.next_seq += 1;
        inner.queue.push_back(Queued {
            seq,
            to: to.clone(),
            data: data.into_boxed_str(),
            enqueued_at: now,
            due_at: SimTime::ZERO,
        });
        seq
    }

    /// All unacknowledged messages, oldest first, in flight or not
    /// (messages stay queued until [`MessageStore::ack`]).
    pub fn pending(&self) -> Vec<StoredMessage> {
        self.inner
            .borrow()
            .queue
            .iter()
            .map(Queued::to_stored)
            .collect()
    }

    /// The messages due at `now` — never handed out, or unacked one ack
    /// timeout after they landed — oldest first, in a vector of exactly
    /// their number, and how many of them were handed out before (the
    /// resends). Each is on the air from now until
    /// [`MessageStore::landed`].
    pub fn hand_out(&self, now: SimTime) -> (Vec<StoredMessage>, u64) {
        let mut inner = self.inner.borrow_mut();
        let inner = &mut *inner;
        let due = inner.queue.iter().filter(|m| m.due_at <= now).count();
        let mut picked = Vec::with_capacity(due);
        let mut resent = 0;
        for m in inner.queue.iter_mut().filter(|m| m.due_at <= now) {
            m.due_at = ON_AIR;
            resent += u64::from(m.seq < inner.handed_below);
            picked.push(m.to_stored());
        }
        if let Some(last) = picked.last() {
            inner.handed_below = inner.handed_below.max(last.seq + 1);
        }
        (picked, resent)
    }

    /// The messages on the air entered the network: unacked, each is due
    /// again at `overdue_at`.
    pub fn landed(&self, overdue_at: SimTime) {
        let mut inner = self.inner.borrow_mut();
        let on_air = inner.queue.iter_mut().filter(|m| m.due_at == ON_AIR);
        on_air.for_each(|m| m.due_at = overdue_at);
    }

    /// A new session: whatever the old one carried may be lost, so every
    /// unacknowledged message is due at once.
    pub fn resend_all(&self) {
        let mut inner = self.inner.borrow_mut();
        inner
            .queue
            .iter_mut()
            .for_each(|m| m.due_at = SimTime::ZERO);
    }

    /// Number of unacknowledged messages.
    pub fn len(&self) -> usize {
        self.inner.borrow().queue.len()
    }

    /// True if nothing is waiting.
    pub fn is_empty(&self) -> bool {
        self.inner.borrow().queue.is_empty()
    }

    /// Age of the oldest unacknowledged message.
    pub fn oldest_age(&self, now: SimTime) -> Option<SimDuration> {
        self.inner
            .borrow()
            .queue
            .front()
            .map(|m| now.saturating_duration_since(m.enqueued_at))
    }

    /// Removes messages acknowledged end-to-end; returns how many were
    /// still queued (unknown and repeated sequence numbers count nothing).
    pub fn ack(&self, seqs: &[u64]) -> usize {
        let mut inner = self.inner.borrow_mut();
        let mut acked = 0;
        for seq in seqs {
            // Acks mostly name the head. The rest of the queue is in
            // sequence order too: `enqueue` numbers upwards and nothing
            // reorders.
            let popped = if inner.queue.front().is_some_and(|m| m.seq == *seq) {
                inner.queue.pop_front()
            } else {
                let found = inner.queue.binary_search_by_key(seq, |m| m.seq);
                found.ok().and_then(|i| inner.queue.remove(i))
            };
            acked += usize::from(popped.is_some());
        }
        acked
    }

    /// Drops messages older than `max_age` — the 24-hour expiry of §5.3.
    /// Returns how many were purged.
    pub fn purge_older_than(&self, now: SimTime, max_age: SimDuration) -> usize {
        let mut inner = self.inner.borrow_mut();
        let before = inner.queue.len();
        inner
            .queue
            .retain(|m| now.saturating_duration_since(m.enqueued_at) <= max_age);
        let purged = before - inner.queue.len();
        inner.purged += purged as u64;
        purged
    }

    /// Total messages dropped by the age purge.
    pub fn purged_total(&self) -> u64 {
        self.inner.borrow().purged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jid() -> Jid {
        Jid::new("collector@pogo").unwrap()
    }

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn enqueue_assigns_increasing_seqs() {
        let store = MessageStore::new();
        let a = store.enqueue(&jid(), "a".into(), at(0));
        let b = store.enqueue(&jid(), "b".into(), at(1));
        assert!(b > a);
        assert_eq!(store.len(), 2);
        assert_eq!(store.pending()[0].data, "a");
    }

    #[test]
    fn ack_removes_only_named_seqs() {
        let store = MessageStore::new();
        let a = store.enqueue(&jid(), "a".into(), at(0));
        let b = store.enqueue(&jid(), "b".into(), at(0));
        let c = store.enqueue(&jid(), "c".into(), at(0));
        assert_eq!(store.ack(&[a, c]), 2);
        let pending = store.pending();
        assert_eq!(pending.len(), 1);
        assert_eq!(pending[0].seq, b);
    }

    #[test]
    fn ack_ignores_unknown_and_repeated_seqs() {
        let store = MessageStore::new();
        let a = store.enqueue(&jid(), "a".into(), at(0));
        let b = store.enqueue(&jid(), "b".into(), at(0));
        assert_eq!(store.ack(&[b, 99, b, b]), 1);
        assert_eq!(store.ack(&[b]), 0);
        assert_eq!(store.pending()[0].seq, a);
    }

    #[test]
    fn messages_survive_until_acked() {
        // Reading pending() does not consume: retransmission semantics.
        let store = MessageStore::new();
        store.enqueue(&jid(), "a".into(), at(0));
        assert_eq!(store.pending().len(), 1);
        assert_eq!(store.pending().len(), 1);
    }

    #[test]
    fn hand_out_skips_what_is_in_flight_until_overdue() {
        let store = MessageStore::new();
        let a = store.enqueue(&jid(), "a".into(), at(0));
        let (first, resent) = store.hand_out(at(0));
        assert_eq!((first.len(), first.capacity(), resent), (1, 1, 0));
        let b = store.enqueue(&jid(), "b".into(), at(1));
        // `a` is on the air: only `b` goes, however long the air takes.
        let seqs = |(picked, resent): (Vec<StoredMessage>, u64)| {
            (picked.iter().map(|m| m.seq).collect::<Vec<_>>(), resent)
        };
        assert_eq!(seqs(store.hand_out(at(60_000))), (vec![b], 0));
        store.landed(at(62_000));
        assert_eq!(seqs(store.hand_out(at(61_999))), (vec![], 0));
        assert_eq!(seqs(store.hand_out(at(62_000))), (vec![a, b], 2));
        store.ack(&[a]);
        store.landed(at(70_000));
        assert_eq!(seqs(store.hand_out(at(65_000))), (vec![], 0));
        // A new session: the old one may have lost anything it carried.
        store.resend_all();
        assert_eq!(seqs(store.hand_out(at(65_000))), (vec![b], 1));
        assert_eq!(store.pending().len(), 1, "handing out consumes nothing");
    }

    #[test]
    fn purge_drops_only_old_messages() {
        let store = MessageStore::new();
        store.enqueue(&jid(), "old".into(), at(0));
        store.enqueue(
            &jid(),
            "new".into(),
            SimTime::ZERO + SimDuration::from_hours(20),
        );
        let now = SimTime::ZERO + SimDuration::from_hours(25);
        let purged = store.purge_older_than(now, SimDuration::from_hours(24));
        assert_eq!(purged, 1);
        assert_eq!(store.len(), 1);
        assert_eq!(store.pending()[0].data, "new");
        assert_eq!(store.purged_total(), 1);
    }

    #[test]
    fn oldest_age_tracks_head() {
        let store = MessageStore::new();
        assert_eq!(store.oldest_age(at(100)), None);
        store.enqueue(&jid(), "a".into(), at(100));
        assert_eq!(store.oldest_age(at(5_100)), Some(SimDuration::from_secs(5)));
    }

    #[test]
    fn clones_share_state_like_a_database_file() {
        let store = MessageStore::new();
        store.enqueue(&jid(), "a".into(), at(0));
        // "Reboot": middleware drops its handle, a new one opens the same
        // store.
        let reopened = store.clone();
        assert_eq!(reopened.len(), 1);
    }
}
