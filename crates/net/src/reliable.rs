//! End-to-end reliability: Pogo's "own end-to-end acknowledgements on top
//! of XMPP to recover from message loss" (§4.6).
//!
//! The sender keeps messages in the [`crate::store::MessageStore`] until
//! the *recipient* acknowledges them (`MessageStore::ack` is the whole
//! sender side); retransmissions after a reconnect can therefore
//! duplicate messages, which the receiving side filters with a
//! [`DedupFilter`].

use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;

use crate::jid::Jid;

/// Receiver-side duplicate filter: remembers which `(sender, seq)` pairs
/// have been seen, compactly (a low-water mark plus a sparse set above
/// it).
#[derive(Debug, Clone, Default)]
pub struct DedupFilter {
    inner: Rc<RefCell<HashMap<Jid, SeenSet>>>,
}

#[derive(Debug, Default)]
struct SeenSet {
    /// Every seq `< floor` has been seen.
    floor: u64,
    /// Seen seqs `>= floor` (kept sparse by advancing the floor).
    above: BTreeSet<u64>,
}

impl SeenSet {
    fn insert(&mut self, seq: u64) -> bool {
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

impl DedupFilter {
    /// Creates an empty filter.
    pub fn new() -> Self {
        DedupFilter::default()
    }

    /// Records `(from, seq)`. Returns `true` the first time this pair is
    /// seen (deliver it) and `false` for duplicates (drop it; the ack was
    /// lost, not the data).
    pub fn first_sighting(&self, from: &Jid, seq: u64) -> bool {
        self.inner
            .borrow_mut()
            .entry(from.clone())
            .or_default()
            .insert(seq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jid(s: &str) -> Jid {
        Jid::new(s).unwrap()
    }

    #[test]
    fn dedup_accepts_first_rejects_second() {
        let f = DedupFilter::new();
        let d = jid("d@p");
        assert!(f.first_sighting(&d, 0));
        assert!(!f.first_sighting(&d, 0));
        assert!(f.first_sighting(&d, 1));
    }

    #[test]
    fn dedup_is_per_sender() {
        let f = DedupFilter::new();
        assert!(f.first_sighting(&jid("a@p"), 5));
        assert!(f.first_sighting(&jid("b@p"), 5));
    }

    #[test]
    fn dedup_handles_out_of_order_and_compacts() {
        let f = DedupFilter::new();
        let d = jid("d@p");
        assert!(f.first_sighting(&d, 2));
        assert!(f.first_sighting(&d, 0));
        assert!(f.first_sighting(&d, 1));
        // floor should now be 3; all below are duplicates.
        assert!(!f.first_sighting(&d, 0));
        assert!(!f.first_sighting(&d, 2));
        assert!(f.first_sighting(&d, 3));
    }
}
