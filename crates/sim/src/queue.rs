//! The pending-event queue: a hierarchical calendar wheel keyed by
//! (time, sequence), with callbacks in a slab so that scheduling,
//! cancelling and firing an event hash nothing and scan no empty slot.
//!
//! The binary heap that shipped with the seed pays `O(log n)` per
//! operation with `n` the *total* pending population — at fleet scale
//! (100k devices × a handful of timers each) that is a ~20-deep sift
//! through cache-cold memory on every schedule and fire. The wheel
//! makes push O(1) and pop amortized O(levels): an event is touched at
//! most once per level as it cascades toward the slot it fires from.
//!
//! Layout: `LEVELS` wheels of `SLOTS` slots each; level `l` slots
//! span `64^l` ms, so the hierarchy covers `64^7` ms ≈ 139 years.
//! Entries are placed at the *smallest* level whose current frame
//! (the span of one parent slot) contains their deadline, which keeps
//! every slot free of wrap-around ambiguity: scanning the slots of one
//! frame sees every entry of that level, full stop. One `u64` per level
//! has a bit set for every slot that physically holds an entry, so the
//! walk visits occupied slots (`trailing_zeros`) and no others. Events
//! behind the cursor (possible because [`EventQueue::pop_until`]
//! advances the wheel to an event it then leaves pending) and events
//! past the top-level horizon fall back to a small binary heap,
//! preserving the exact (time, sequence) total order in all cases.
//!
//! Callbacks live in a slab: a `Vec` of slots plus a free list. A wheel
//! entry names its slot and the id it was scheduled under; it is live
//! while the slot still carries that id. Ids are never reused, so the id
//! is the slot's generation: an entry (or an [`EventId`]) left over from
//! an earlier tenant matches nothing.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::time::SimTime;

/// Handle to a scheduled event, used to cancel it before it fires.
///
/// Holds the event's id and the slab slot it was given. Once the event
/// has fired or been cancelled the handle is stale for good: the slot's
/// next tenant has another id, so cancelling through a stale handle
/// returns `false` and touches nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventId {
    id: u64,
    slot: u32,
}

/// What fires: a boxed one-shot closure, or a shared closure that its
/// owner schedules again and again without allocating (a periodic poll,
/// a demotion timer). Both kinds sit in the same queue, in one order.
pub enum Callback {
    /// Runs once and is gone.
    Once(Box<dyn FnOnce()>),
    /// One clone of a closure its owner keeps.
    Shared(Rc<dyn Fn()>),
}

impl Callback {
    /// Runs the callback.
    pub fn call(self) {
        match self {
            Callback::Once(f) => f(),
            Callback::Shared(f) => f(),
        }
    }
}

const SLOT_BITS: u32 = 6;
const SLOTS: usize = 1 << SLOT_BITS; // 64, one bitmap word per level
const LEVELS: usize = 7; // 64^7 ms ≈ 139 years of horizon

/// Capacity, in entries, that a wheel slot keeps once it has been emptied:
/// enough that the slots a busy queue fills every few milliseconds never
/// go back to the allocator, little enough that all of them together stay
/// under a megabyte. A larger buffer is freed when its slot empties, so
/// one crowded instant does not leave its high-water mark behind.
const KEEP_CAPACITY: usize = 64;

/// The id of a slab slot with no tenant; no event is ever given it.
const VACANT: u64 = u64::MAX;

/// One scheduled entry. The id doubles as the scheduling sequence
/// number (ids are assigned monotonically), so ordering by `(time, id)`
/// is exactly time-then-schedule order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Entry {
    time: u64,
    id: u64,
    slot: u32,
}

struct Slot {
    /// The tenant's event id, [`VACANT`] while the slot is on the free list.
    id: u64,
    callback: Option<Callback>,
}

/// A time-ordered queue of callbacks.
///
/// This type is not used directly by simulation components — they go through
/// [`crate::Sim`] — but it is public so alternative drivers can be built on
/// the same ordering guarantees.
pub struct EventQueue {
    /// The slab: one slot per pending event, reused through `free`.
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Slots with a tenant, i.e. pending events.
    live: usize,
    /// `wheel[l * SLOTS + s]` holds entries whose deadline falls in slot
    /// `s` of the cursor's current level-`l` frame.
    wheel: Vec<Vec<Entry>>,
    /// Bit `s` of `occupied[l]` is set iff `wheel[l * SLOTS + s]` holds at
    /// least one entry, live or cancelled.
    occupied: [u64; LEVELS],
    /// Wheel time in ms. Only advances; never passes a live wheel entry.
    cursor: u64,
    /// Entries due exactly at `cursor`, sorted by id (sequence order);
    /// those before `due_head` have been consumed.
    due: Vec<Entry>,
    due_head: usize,
    /// Fallback heap: entries scheduled behind the cursor (the wheel was
    /// advanced ahead of the sim clock) or beyond the top-level horizon.
    slow: BinaryHeap<Reverse<Entry>>,
    next_id: u64,
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.live)
            .field("cursor_ms", &self.cursor)
            .field("next_seq", &self.next_id)
            .finish()
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            wheel: vec![Vec::new(); LEVELS * SLOTS],
            occupied: [0; LEVELS],
            cursor: 0,
            due: Vec::new(),
            due_head: 0,
            slow: BinaryHeap::new(),
            next_id: 0,
        }
    }

    /// Schedules `callback` to fire at `time`. Returns a handle that can be
    /// passed to [`EventQueue::cancel`].
    pub fn push(&mut self, time: SimTime, callback: Box<dyn FnOnce()>) -> EventId {
        self.insert(time, Callback::Once(callback))
    }

    /// Schedules one more firing of a closure the caller keeps: no box, and
    /// once the slab and the wheel slot have grown, no allocation at all.
    /// Ordered with every other event by `(time, id)`.
    pub fn push_shared(&mut self, time: SimTime, callback: Rc<dyn Fn()>) -> EventId {
        self.insert(time, Callback::Shared(callback))
    }

    /// Cancels a pending event. Returns `true` if the event existed and had
    /// not fired yet. The wheel entry is dropped lazily.
    pub fn cancel(&mut self, id: EventId) -> bool {
        match self.slots.get(id.slot as usize) {
            Some(slot) if slot.id == id.id => {
                self.vacate(id.slot);
                true
            }
            _ => false,
        }
    }

    /// Removes and returns the earliest live event.
    pub fn pop(&mut self) -> Option<(SimTime, Callback)> {
        self.pop_until(SimTime::from_millis(u64::MAX))
    }

    /// Removes and returns the earliest live event if it is due at or
    /// before `deadline`: one walk finds it and takes it. A later event is
    /// left pending, with the wheel already advanced to it.
    pub fn pop_until(&mut self, deadline: SimTime) -> Option<(SimTime, Callback)> {
        let wheel = self.locate_wheel_next();
        let slow = self.peek_slow();
        let (entry, from_slow) = match (wheel, slow) {
            (Some(w), Some(s)) if s < w => (s, true),
            (Some(w), _) => (w, false),
            (None, Some(s)) => (s, true),
            (None, None) => return None,
        };
        if entry.time > deadline.as_millis() {
            return None;
        }
        if from_slow {
            self.slow.pop();
        } else {
            self.due_head += 1;
        }
        let callback = self.vacate(entry.slot);
        Some((SimTime::from_millis(entry.time), callback))
    }

    /// Number of live (non-cancelled) events.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True if no live events remain.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// True if every level's bitmap has exactly the bits of its non-empty
    /// slots. The structure's own invariant, for the fuzz test to check
    /// after every operation.
    pub fn bitmaps_match_slots(&self) -> bool {
        (0..LEVELS).all(|level| {
            (0..SLOTS).all(|s| {
                let bit = self.occupied[level] >> s & 1 == 1;
                bit != self.wheel[level * SLOTS + s].is_empty()
            })
        })
    }

    // ---- slab ------------------------------------------------------------

    fn insert(&mut self, time: SimTime, callback: Callback) -> EventId {
        let id = self.next_id;
        self.next_id += 1;
        let tenant = Slot {
            id,
            callback: Some(callback),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = tenant;
                slot
            }
            None => {
                self.slots.push(tenant);
                (self.slots.len() - 1) as u32
            }
        };
        self.live += 1;
        self.place(Entry {
            time: time.as_millis(),
            id,
            slot,
        });
        EventId { id, slot }
    }

    /// Takes the tenant's callback and puts the slot on the free list.
    fn vacate(&mut self, slot: u32) -> Callback {
        let s = &mut self.slots[slot as usize];
        s.id = VACANT;
        self.free.push(slot);
        self.live -= 1;
        s.callback.take().expect("a tenanted slot holds a callback")
    }

    fn is_live(slots: &[Slot], e: &Entry) -> bool {
        slots[e.slot as usize].id == e.id
    }

    // ---- wheel internals -------------------------------------------------

    /// Inserts an entry into the wheel, the due list, or the slow heap.
    fn place(&mut self, e: Entry) {
        if e.time < self.cursor {
            // Behind the wheel: the wheel was advanced ahead of the sim
            // clock and something was then scheduled in the gap.
            self.slow.push(Reverse(e));
            return;
        }
        if e.time == self.cursor {
            // Due now; ids are monotonic so appending keeps `due` sorted.
            debug_assert!(self.due[self.due_head..].last().is_none_or(|b| b.id < e.id));
            self.due.push(e);
            return;
        }
        let Some(level) = level_for(self.cursor, e.time) else {
            self.slow.push(Reverse(e));
            return;
        };
        let slot = slot_index(e.time, level);
        self.wheel[level * SLOTS + slot].push(e);
        self.occupied[level] |= 1 << slot;
    }

    /// Drops cancelled heads off the slow heap and peeks the top.
    fn peek_slow(&mut self) -> Option<Entry> {
        while let Some(&Reverse(e)) = self.slow.peek() {
            if Self::is_live(&self.slots, &e) {
                return Some(e);
            }
            self.slow.pop();
        }
        None
    }

    /// Advances the cursor to the earliest live wheel event, filling the
    /// due list, and returns that event (the head of `due`). Cancelled
    /// entries encountered along the way are dropped.
    fn locate_wheel_next(&mut self) -> Option<Entry> {
        loop {
            // Due entries first: they sit exactly at the cursor.
            while let Some(front) = self.due.get(self.due_head) {
                if Self::is_live(&self.slots, front) {
                    return Some(*front);
                }
                self.due_head += 1;
            }
            self.due.clear();
            self.due_head = 0;

            // The nearest occupied level-0 slot from the cursor's own to
            // the end of the current frame: jump to it and take it whole.
            let ahead = self.occupied[0] >> (self.cursor & 63) << (self.cursor & 63);
            if ahead != 0 {
                self.cursor = (self.cursor & !63) | u64::from(ahead.trailing_zeros());
                self.take_due_at_cursor();
                continue;
            }

            // Level-0 frame exhausted: cascade the nearest populated slot
            // of the first level that has one in its current frame.
            if !self.cascade_from_higher_level() {
                // Nothing live anywhere ahead of the cursor; whatever is
                // physically left is cancelled debris in slots behind the
                // cursor index that the forward scans never revisit.
                self.purge_dead();
                return None;
            }
        }
    }

    /// Moves what is live in the cursor's level-0 slot to the due list
    /// (spent by now, so it is the one buffer every extraction reuses). A
    /// level-0 slot spans one millisecond: whatever in it is live is due
    /// exactly at the cursor.
    fn take_due_at_cursor(&mut self) {
        debug_assert!(self.due.is_empty());
        let s = (self.cursor & 63) as usize;
        self.occupied[0] &= !(1 << s);
        let (slot, slots) = (&mut self.wheel[s], &self.slots);
        self.due
            .extend(slot.drain(..).filter(|e| Self::is_live(slots, e)));
        if slot.capacity() > KEEP_CAPACITY {
            *slot = Vec::new();
        }
        debug_assert!(self.due.iter().all(|e| e.time == self.cursor));
        self.due.sort_unstable_by_key(|e| e.id);
    }

    /// Finds the nearest populated slot at or above level 1, jumps the
    /// cursor to it, and re-places its entries at lower levels. Returns
    /// false if every level is empty of live entries.
    fn cascade_from_higher_level(&mut self) -> bool {
        // The level-0 frame is exhausted; logically the cursor now sits
        // at its end (a level-1 slot boundary).
        let mut cursor = (self.cursor | (SLOTS as u64 - 1)) + 1;
        for level in 1..LEVELS {
            // Entries for the region around `cursor` may be parked in a
            // higher-level slot *covering* this position (the walk just
            // crossed into its span); those must come down before this
            // level's forward scan can be trusted. Highest first.
            for k in (level..LEVELS).rev() {
                if self.dump_slot(k, slot_index(cursor, k), cursor) {
                    return true;
                }
            }
            // Covering slots are clear: the nearest remaining candidates
            // at this level sit in the forward slots of its current frame.
            let shift = SLOT_BITS * level as u32;
            let frame_base = cursor & !((1u64 << (shift + SLOT_BITS)) - 1);
            let here = slot_index(cursor, level);
            let mut ahead = self.occupied[level] >> here >> 1 << here << 1;
            while ahead != 0 {
                let slot_idx = ahead.trailing_zeros() as usize;
                ahead &= ahead - 1;
                let slot_start = frame_base | ((slot_idx as u64) << shift);
                if self.dump_slot(level, slot_idx, slot_start) {
                    return true;
                }
            }
            // Nothing in this level's current frame: move to the frame
            // boundary and look one level up.
            cursor = (cursor | ((1u64 << (shift + SLOT_BITS)) - 1)) + 1;
        }
        false
    }

    /// Drops dead entries from slot `slot_idx` of `level`; if live ones
    /// remain, advances the cursor to `target` (never backward) and
    /// re-places them relative to it. Returns true if anything moved.
    fn dump_slot(&mut self, level: usize, slot_idx: usize, target: u64) -> bool {
        if self.occupied[level] >> slot_idx & 1 == 0 {
            return false;
        }
        self.occupied[level] &= !(1 << slot_idx);
        let mut entries = std::mem::take(&mut self.wheel[level * SLOTS + slot_idx]);
        let slots = &self.slots;
        entries.retain(|e| Self::is_live(slots, e));
        let moved = !entries.is_empty();
        if moved {
            self.cursor = self.cursor.max(target);
            for e in entries.drain(..) {
                debug_assert!(e.time >= self.cursor);
                self.place(e);
            }
        }
        // Everything went to lower levels, so the slot is still empty: it
        // gets its buffer back for the next fill, unless that is large.
        debug_assert!(self.wheel[level * SLOTS + slot_idx].is_empty());
        if entries.capacity() <= KEEP_CAPACITY {
            self.wheel[level * SLOTS + slot_idx] = entries;
        }
        moved
    }

    /// Clears cancelled entries out of every slot. Live entries are always
    /// ahead of the cursor and reachable by the forward scans, so this is
    /// only called once those scans prove the wheel holds nothing live.
    fn purge_dead(&mut self) {
        debug_assert!(self.bitmaps_match_slots());
        for level in 0..LEVELS {
            while self.occupied[level] != 0 {
                let s = self.occupied[level].trailing_zeros() as usize;
                self.occupied[level] &= self.occupied[level] - 1;
                let slot = &mut self.wheel[level * SLOTS + s];
                debug_assert!(slot.iter().all(|e| !Self::is_live(&self.slots, e)));
                slot.clear();
            }
        }
    }
}

/// The wheel level whose current frame (relative to `cursor`) contains
/// `time`, or `None` when `time` lies beyond the top-level horizon.
/// `time` must be strictly ahead of the cursor.
fn level_for(cursor: u64, time: u64) -> Option<usize> {
    debug_assert!(time > cursor);
    let highest_bit = 63 - (time ^ cursor).leading_zeros();
    let level = (highest_bit / SLOT_BITS) as usize;
    (level < LEVELS).then_some(level)
}

fn slot_index(time: u64, level: usize) -> usize {
    ((time >> (SLOT_BITS * level as u32)) as usize) & (SLOTS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[allow(clippy::type_complexity)]
    fn recorder() -> (Rc<RefCell<Vec<u32>>>, impl Fn(u32) -> Box<dyn FnOnce()>) {
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let l = log.clone();
        let make = move |v: u32| -> Box<dyn FnOnce()> {
            let l = l.clone();
            Box::new(move || l.borrow_mut().push(v))
        };
        (log, make)
    }

    #[test]
    fn pops_in_time_order() {
        let (log, cb) = recorder();
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), cb(3));
        q.push(SimTime::from_millis(10), cb(1));
        q.push(SimTime::from_millis(20), cb(2));
        while let Some((_, f)) = q.pop() {
            f.call();
        }
        assert_eq!(*log.borrow(), vec![1, 2, 3]);
    }

    #[test]
    fn same_instant_fires_in_schedule_order() {
        let (log, cb) = recorder();
        let mut q = EventQueue::new();
        for v in 0..5 {
            q.push(SimTime::from_millis(7), cb(v));
        }
        while let Some((_, f)) = q.pop() {
            f.call();
        }
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn cancel_removes_event() {
        let (log, cb) = recorder();
        let mut q = EventQueue::new();
        let keep = q.push(SimTime::from_millis(1), cb(1));
        let gone = q.push(SimTime::from_millis(2), cb(2));
        assert!(q.cancel(gone));
        assert!(!q.cancel(gone), "double cancel reports false");
        assert_eq!(q.len(), 1);
        while let Some((_, f)) = q.pop() {
            f.call();
        }
        assert_eq!(*log.borrow(), vec![1]);
        let _ = keep;
    }

    #[test]
    fn pop_until_skips_cancelled_head() {
        let (log, cb) = recorder();
        let mut q = EventQueue::new();
        let head = q.push(SimTime::from_millis(1), cb(1));
        q.push(SimTime::from_millis(5), cb(2));
        q.cancel(head);
        assert!(q.pop_until(SimTime::from_millis(4)).is_none());
        let (t, f) = q.pop_until(SimTime::from_millis(5)).expect("due at 5");
        f.call();
        assert_eq!(t, SimTime::from_millis(5));
        assert_eq!(*log.borrow(), vec![2]);
    }

    #[test]
    fn empty_queue_behaviour() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert!(q.pop_until(SimTime::from_millis(1_000)).is_none());
        assert!(q.pop().is_none());
    }

    #[test]
    fn distant_deadlines_cascade_correctly() {
        let (log, cb) = recorder();
        let mut q = EventQueue::new();
        // One entry per wheel level, far apart, pushed out of order.
        let times = [
            3_u64,
            200,
            10_000,
            2_000_000,
            40_000_000,
            5_000_000_000,
            90_000_000_000,
        ];
        for (i, &t) in times.iter().enumerate().rev() {
            q.push(SimTime::from_millis(t), cb(i as u32));
        }
        let mut fired_at = Vec::new();
        while let Some((t, f)) = q.pop() {
            fired_at.push(t.as_millis());
            f.call();
        }
        assert_eq!(*log.borrow(), vec![0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(fired_at, times);
    }

    #[test]
    fn beyond_horizon_times_still_fire_in_order() {
        let (log, cb) = recorder();
        let mut q = EventQueue::new();
        let horizon = 1u64 << 50; // far past the 2^42 ms wheel span
        q.push(SimTime::from_millis(horizon + 5), cb(2));
        q.push(SimTime::from_millis(7), cb(0));
        q.push(SimTime::from_millis(horizon), cb(1));
        while let Some((_, f)) = q.pop() {
            f.call();
        }
        assert_eq!(*log.borrow(), vec![0, 1, 2]);
    }

    #[test]
    fn schedule_behind_peeked_cursor_is_not_lost() {
        let (log, cb) = recorder();
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(1_000), cb(9));
        // Looking for an event due by 10 ms finds none and leaves the
        // wheel cursor at the one it did find, at 1000…
        assert!(q.pop_until(SimTime::from_millis(10)).is_none());
        // …but a later schedule in the gap must still fire first.
        q.push(SimTime::from_millis(20), cb(1));
        q.push(SimTime::from_millis(500), cb(2));
        let mut order = Vec::new();
        while let Some((t, f)) = q.pop() {
            order.push(t.as_millis());
            f.call();
        }
        assert_eq!(*log.borrow(), vec![1, 2, 9]);
        assert_eq!(order, vec![20, 500, 1_000]);
    }

    #[test]
    fn interleaved_push_pop_keeps_total_order() {
        // A deterministic pseudo-random workload mixing pushes, pops, and
        // cancels; mirror it against a sorted reference model.
        let mut q = EventQueue::new();
        let fired: Rc<RefCell<Vec<u64>>> = Rc::new(RefCell::new(Vec::new()));
        let mut model: Vec<(u64, u64)> = Vec::new(); // (time, seq) expected
        let mut ids: Vec<(EventId, u64, u64)> = Vec::new();
        let mut state = 0x243f_6a88_85a3_08d3u64;
        let mut rand = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut seq = 0u64;
        let mut now = 0u64;
        for _ in 0..4_000 {
            match rand() % 4 {
                0 | 1 => {
                    let t = now + rand() % 300_000;
                    let s = seq;
                    seq += 1;
                    let f = fired.clone();
                    let id = q.push(
                        SimTime::from_millis(t),
                        Box::new(move || {
                            f.borrow_mut().push(s);
                        }),
                    );
                    model.push((t, s));
                    ids.push((id, t, s));
                }
                2 => {
                    if let Some((t, f)) = q.pop() {
                        assert!(t.as_millis() >= now, "time went backwards");
                        now = t.as_millis();
                        f.call();
                    }
                }
                _ => {
                    if !ids.is_empty() {
                        let (id, t, s) = ids.swap_remove((rand() % ids.len() as u64) as usize);
                        if q.cancel(id) {
                            model.retain(|&(mt, ms)| (mt, ms) != (t, s));
                        }
                    }
                }
            }
        }
        while let Some((t, f)) = q.pop() {
            assert!(t.as_millis() >= now);
            now = t.as_millis();
            f.call();
        }
        model.sort_unstable();
        let expected: Vec<u64> = model.into_iter().map(|(_, s)| s).collect();
        assert_eq!(*fired.borrow(), expected);
        assert!(q.is_empty());
    }

    #[test]
    fn stale_handle_cannot_cancel_the_slots_next_tenant() {
        let (log, cb) = recorder();
        let mut q = EventQueue::new();
        // Fired: the handle outlives its event, the slot gets a new tenant.
        let fired = q.push(SimTime::from_millis(1), cb(1));
        q.pop().expect("one event").1.call();
        let tenant = q.push(SimTime::from_millis(2), cb(2));
        assert_eq!(tenant.slot, fired.slot, "the freed slot is reused");
        assert!(!q.cancel(fired), "a fired event cannot be cancelled");
        // Cancelled: same slot again, same story.
        assert!(q.cancel(tenant));
        let next = q.push(SimTime::from_millis(3), cb(3));
        assert_eq!(next.slot, tenant.slot);
        assert!(!q.cancel(tenant), "double cancel through a reused slot");
        assert!(!q.cancel(fired));
        assert_eq!(q.len(), 1);
        while let Some((_, f)) = q.pop() {
            f.call();
        }
        assert_eq!(*log.borrow(), vec![1, 3]);
    }

    #[test]
    fn cancelling_ones_own_id_from_the_running_callback_is_false() {
        let q = Rc::new(RefCell::new(EventQueue::new()));
        let outcome: Rc<RefCell<Option<bool>>> = Rc::new(RefCell::new(None));
        let own: Rc<RefCell<Option<EventId>>> = Rc::new(RefCell::new(None));
        let (q2, own2, outcome2) = (q.clone(), own.clone(), outcome.clone());
        let id = q.borrow_mut().push(
            SimTime::from_millis(5),
            Box::new(move || {
                let id = own2.borrow().expect("id stored before the pop");
                // Schedule first, so the freed slot already has a tenant.
                let tenant = q2
                    .borrow_mut()
                    .push(SimTime::from_millis(6), Box::new(|| {}));
                assert_eq!(tenant.slot, id.slot);
                *outcome2.borrow_mut() = Some(q2.borrow_mut().cancel(id));
            }),
        );
        *own.borrow_mut() = Some(id);
        let (_, f) = q.borrow_mut().pop().expect("one event");
        f.call();
        assert_eq!(*outcome.borrow(), Some(false));
        assert_eq!(q.borrow().len(), 1, "the new tenant survived");
    }

    #[test]
    fn len_counts_live_events_only_also_after_a_purge() {
        let (_, cb) = recorder();
        let mut q = EventQueue::new();
        assert_eq!((q.len(), q.is_empty()), (0, true));
        let ids: Vec<EventId> = [3u64, 70, 5_000, 400_000]
            .iter()
            .map(|&t| q.push(SimTime::from_millis(t), cb(0)))
            .collect();
        assert_eq!(q.len(), 4);
        assert!(q.cancel(ids[1]));
        assert!(q.cancel(ids[3]));
        assert_eq!((q.len(), q.is_empty()), (2, false));
        assert!(q.pop().is_some());
        assert!(q.pop().is_some());
        assert_eq!((q.len(), q.is_empty()), (0, true));
        // Cancel everything that is left, then walk: the walk finds nothing
        // live and purges the debris. The counts never saw the debris.
        let late = q.push(SimTime::from_millis(9_000_000), cb(0));
        let later = q.push(SimTime::from_millis(9_000_001), cb(0));
        assert_eq!(q.len(), 2);
        assert!(q.cancel(late));
        assert!(q.cancel(later));
        assert!(q.is_empty());
        assert!(q.pop().is_none());
        assert!(q.bitmaps_match_slots());
        assert!(q.occupied.iter().all(|&word| word == 0), "debris purged");
        assert_eq!((q.len(), q.is_empty()), (0, true));
        q.push(SimTime::from_millis(9_000_002), cb(0));
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn shared_callbacks_fire_in_the_same_order_as_boxed_ones() {
        let log: Rc<RefCell<Vec<u32>>> = Rc::new(RefCell::new(Vec::new()));
        let shared: Rc<dyn Fn()> = {
            let l = log.clone();
            Rc::new(move || l.borrow_mut().push(7))
        };
        let boxed = |v: u32| -> Box<dyn FnOnce()> {
            let l = log.clone();
            Box::new(move || l.borrow_mut().push(v))
        };
        let mut q = EventQueue::new();
        q.push_shared(SimTime::from_millis(10), shared.clone());
        q.push(SimTime::from_millis(10), boxed(1));
        q.push_shared(SimTime::from_millis(10), shared.clone());
        q.push(SimTime::from_millis(4), boxed(0));
        let gone = q.push_shared(SimTime::from_millis(6), shared.clone());
        assert!(q.cancel(gone));
        while let Some((_, f)) = q.pop() {
            f.call();
        }
        assert_eq!(*log.borrow(), vec![0, 7, 1, 7]);
        assert_eq!(Rc::strong_count(&shared), 1, "the queue kept no clone");
    }
}
