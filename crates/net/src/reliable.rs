//! End-to-end reliability: Pogo's "own end-to-end acknowledgements on top
//! of XMPP to recover from message loss" (§4.6).
//!
//! The sender keeps messages in the [`MessageStore`](crate::MessageStore) until
//! the *recipient* acknowledges them (`MessageStore::ack_run`, with
//! `MessageStore::hand_out` picking what is not in flight, is the whole
//! sender side); a message whose ack was lost, or that a reconnect
//! resends, arrives twice, and the receiver drops the copy with one
//! [`SeenSet`] per sender.
//!
//! A gap the sender will never fill (a message its §5.3 purge dropped
//! unsent) would pin the floor below it for good, and every later seq
//! would stay in the sparse set. So a sender that has purged carries its
//! low-water mark ([`MessageStore::mark`](crate::MessageStore::mark)),
//! and the receiver raises its floor to it ([`SeenSet::raise_floor`]).

use std::collections::BTreeSet;

/// The sequence numbers seen from one sender, compactly: a low-water mark
/// plus a sparse set above it.
#[derive(Debug, Default)]
pub struct SeenSet {
    /// Every seq `< floor` has been seen.
    floor: u64,
    /// Seen seqs `>= floor` (kept sparse by advancing the floor).
    above: BTreeSet<u64>,
}

impl SeenSet {
    /// Records `seq`. Returns `true` the first time it is seen (deliver
    /// it) and `false` for a duplicate (drop it; the ack was lost, not the
    /// data).
    pub fn insert(&mut self, seq: u64) -> bool {
        if seq < self.floor || self.above.contains(&seq) {
            return false;
        }
        self.above.insert(seq);
        // Advance the contiguous floor.
        while self.above.remove(&self.floor) {
            self.floor += 1;
        }
        true
    }

    /// The sender's low-water mark: every seq below `mark` was acked or
    /// will never be sent again, so none is fresh any more.
    pub fn raise_floor(&mut self, mark: u64) {
        if mark <= self.floor {
            return;
        }
        self.above = self.above.split_off(&mark);
        self.floor = mark;
        while self.above.remove(&self.floor) {
            self.floor += 1;
        }
    }

    /// How many seen seqs are held above the floor: none once the sender
    /// has nothing in flight and its low-water mark has arrived.
    pub fn held(&self) -> usize {
        self.above.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_accepts_first_rejects_second() {
        let mut seen = SeenSet::default();
        assert!(seen.insert(0));
        assert!(!seen.insert(0));
        assert!(seen.insert(1));
    }

    #[test]
    fn dedup_is_per_sender() {
        let (mut a, mut b) = (SeenSet::default(), SeenSet::default());
        assert!(a.insert(5));
        assert!(b.insert(5));
        assert!(!a.insert(5));
    }

    #[test]
    fn dedup_handles_out_of_order_and_compacts() {
        let mut seen = SeenSet::default();
        assert!(seen.insert(2));
        assert!(seen.insert(0));
        assert!(seen.insert(1));
        // floor should now be 3; all below are duplicates.
        assert!(!seen.insert(0));
        assert!(!seen.insert(2));
        assert!(seen.insert(3));
        assert_eq!((seen.floor, seen.above.len()), (4, 0));
    }

    #[test]
    fn the_mark_unpins_a_floor_stuck_below_a_purged_gap() {
        let mut seen = SeenSet::default();
        // Seqs 0-4 and 6-9 seen; 5 was purged by its sender.
        (0..5)
            .chain(6..10)
            .for_each(|seq| assert!(seen.insert(seq)));
        assert_eq!((seen.floor, seen.held()), (5, 4));
        seen.raise_floor(7);
        assert_eq!((seen.floor, seen.held()), (10, 0));
        assert!(!seen.insert(5), "a late copy of the purged seq");
        seen.raise_floor(3);
        assert_eq!(seen.floor, 10, "a stale mark lowers nothing");
        assert!(seen.insert(12));
        seen.raise_floor(11);
        assert_eq!((seen.floor, seen.held()), (11, 1));
    }
}
