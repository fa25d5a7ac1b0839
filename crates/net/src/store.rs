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
    /// While a purge is unacknowledged: the next seq at that purge and
    /// when it was. Every seq from the first on is handed out only after
    /// the purge, in frames that carry the low-water mark, so the ack of
    /// one of them (or of a mark-only frame, numbered at the mark) tells
    /// that the receiver has raised its floor past the purged seqs.
    owed: Option<(u64, SimTime)>,
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
/// one due again. After a purge it also owes the peer its low-water mark
/// ([`MessageStore::mark`]) until [`MessageStore::ack_run`] shows the
/// peer has it.
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

    /// When what the store still owes its peer became owed: the oldest
    /// unacknowledged message's enqueue time, else the purge whose
    /// low-water mark the peer has not acknowledged. `None` when the
    /// store owes nothing.
    pub fn owed_since(&self) -> Option<SimTime> {
        let inner = self.inner.borrow();
        let oldest = inner.queue.front().map(|m| m.enqueued_at);
        oldest.or(inner.owed.map(|(_, at)| at))
    }

    /// The low-water mark to carry to the peer, while a purge is
    /// unacknowledged: the oldest unacknowledged seq, or the next seq if
    /// none is. Every seq below it is acknowledged or purged, so the
    /// receiver may raise its dedup floor to it.
    pub fn mark(&self) -> Option<u64> {
        let inner = self.inner.borrow();
        inner.owed?;
        Some(inner.queue.front().map_or(inner.next_seq, |m| m.seq))
    }

    /// Removes messages acknowledged end-to-end, each as a run of one;
    /// returns how many were still queued (unknown and repeated sequence
    /// numbers count nothing).
    pub fn ack(&self, seqs: &[u64]) -> usize {
        seqs.iter().map(|&seq| self.ack_run(seq, 1)).sum()
    }

    /// Removes the run of `len` seqs from `first`, acknowledged
    /// end-to-end by one ack; returns how many were still queued. An ack
    /// of a frame handed out after the last purge (a run reaching the
    /// next seq at that purge, or a mark-only frame's empty run at or
    /// above it) also acknowledges the mark that frame carried.
    pub fn ack_run(&self, first: u64, len: u64) -> usize {
        let mut inner = self.inner.borrow_mut();
        let end = first.saturating_add(len);
        let from = inner.queue.partition_point(|m| m.seq < first);
        let to = inner.queue.partition_point(|m| m.seq < end);
        inner.queue.drain(from..to);
        let reach = first.saturating_add(len.max(1));
        if inner.owed.is_some_and(|(owed_from, _)| owed_from < reach) {
            inner.owed = None;
        }
        to - from
    }

    /// Drops messages older than `max_age` — the 24-hour expiry of §5.3.
    /// Returns how many were purged. Until the peer acknowledges a frame
    /// handed out after it, the purge owes the peer the low-water mark
    /// ([`MessageStore::mark`]).
    pub fn purge_older_than(&self, now: SimTime, max_age: SimDuration) -> usize {
        let mut inner = self.inner.borrow_mut();
        let before = inner.queue.len();
        inner
            .queue
            .retain(|m| now.saturating_duration_since(m.enqueued_at) <= max_age);
        let purged = before - inner.queue.len();
        inner.purged += purged as u64;
        if purged > 0 {
            inner.owed = Some((inner.next_seq, now));
        }
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
    fn owed_since_tracks_head() {
        let store = MessageStore::new();
        assert_eq!(store.owed_since(), None);
        store.enqueue(&jid(), "a".into(), at(100));
        store.enqueue(&jid(), "b".into(), at(200));
        assert_eq!(store.owed_since(), Some(at(100)));
    }

    #[test]
    fn ack_run_clears_the_run_and_nothing_around_it() {
        let store = MessageStore::new();
        for name in ["a", "b", "c", "d", "e"] {
            store.enqueue(&jid(), name.into(), at(0));
        }
        assert_eq!(store.ack_run(1, 3), 3);
        assert_eq!(store.ack_run(1, 3), 0, "a repeated ack clears nothing");
        let seqs: Vec<u64> = store.pending().iter().map(|m| m.seq).collect();
        assert_eq!(seqs, vec![0, 4]);
        assert_eq!(store.ack_run(u64::MAX, u64::MAX), 0);
    }

    #[test]
    fn a_purge_owes_the_mark_until_a_later_frame_is_acked() {
        let store = MessageStore::new();
        store.enqueue(&jid(), "old".into(), at(0));
        store.enqueue(
            &jid(),
            "new".into(),
            SimTime::ZERO + SimDuration::from_hours(20),
        );
        assert_eq!(store.mark(), None, "nothing purged: no mark to carry");
        let now = SimTime::ZERO + SimDuration::from_hours(25);
        store.purge_older_than(now, SimDuration::from_hours(24));
        // Seq 0 is gone: the receiver may forget it.
        assert_eq!(store.mark(), Some(1));
        // The ack of seq 1, handed out before the purge perhaps, proves
        // nothing about the mark.
        store.ack_run(1, 1);
        assert_eq!((store.mark(), store.owed_since()), (Some(2), Some(now)));
        // A mark-only frame numbered at the mark, acked.
        store.ack_run(2, 0);
        assert_eq!((store.mark(), store.owed_since()), (None, None));
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
