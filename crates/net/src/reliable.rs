//! End-to-end reliability: Pogo's "own end-to-end acknowledgements on top
//! of XMPP to recover from message loss" (§4.6).
//!
//! The sender keeps messages in the [`MessageStore`](crate::MessageStore) until
//! the *recipient* acknowledges them (`MessageStore::ack`, with
//! `MessageStore::hand_out` picking what is not in flight, is the whole
//! sender side); a message whose ack was lost, or that a reconnect
//! resends, arrives twice, and the receiver drops the copy with one
//! [`SeenSet`] per sender.

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
}
