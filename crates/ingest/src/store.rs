//! The queryable sample store: flushed batches with per-channel
//! retention and predicate scans.
//!
//! The store is the read side of the ingestion pipeline — what Table-4
//! style analytics and the chaos delivery audits query instead of
//! re-walking raw message logs. Batches arrive whole from the batch
//! builder and stay columnar; scans materialize [`Row`] views lazily
//! per query.
//!
//! Two things keep a filtered scan from walking what it will not
//! return. The store owns **one device dictionary** (name → `u32`, in
//! order of first appearance; it never shrinks and is bounded by the
//! distinct devices ever seen), so a device predicate is resolved once
//! per scan and checked as an integer compare, and a name the store
//! never saw answers empty without opening a batch. And `at` is
//! **non-decreasing within a batch and across a channel's batches**
//! (the pipeline stamps `sim.now()`; `SampleStore::push_batch` refuses
//! anything else), so `since`/`until` are binary-searched to a batch
//! range and, inside it, to a row range `[lo, hi)`.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::rc::Rc;

use pogo_sim::SimTime;

use crate::batch::Batch;
use crate::schema::{Retention, SampleValue, Template};

/// Predicate for a store scan. `exp` is required; everything else
/// narrows the result.
#[derive(Debug, Clone, Default)]
pub struct ScanQuery {
    /// Experiment to scan.
    pub exp: String,
    /// Restrict to one channel.
    pub channel: Option<String>,
    /// Restrict to samples from one device.
    pub device: Option<String>,
    /// Keep samples with `at >= since`.
    pub since: Option<SimTime>,
    /// Keep samples with `at < until` (half-open, like time ranges
    /// everywhere else in the sim).
    pub until: Option<SimTime>,
}

impl ScanQuery {
    /// A scan over every channel of `exp`.
    pub fn exp(exp: &str) -> Self {
        ScanQuery {
            exp: exp.to_owned(),
            ..ScanQuery::default()
        }
    }

    /// Restricts the scan to one channel.
    #[must_use]
    pub fn channel(mut self, channel: &str) -> Self {
        self.channel = Some(channel.to_owned());
        self
    }

    /// Restricts the scan to one device.
    #[must_use]
    pub fn device(mut self, device: &str) -> Self {
        self.device = Some(device.to_owned());
        self
    }

    /// Keeps samples at or after `t`.
    #[must_use]
    pub fn since(mut self, t: SimTime) -> Self {
        self.since = Some(t);
        self
    }

    /// Keeps samples strictly before `t`.
    #[must_use]
    pub fn until(mut self, t: SimTime) -> Self {
        self.until = Some(t);
        self
    }
}

/// One materialized sample, as returned by [`SampleStore::scan`].
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Experiment the sample belongs to.
    pub exp: String,
    /// Channel the sample arrived on.
    pub channel: String,
    /// Device that sent it.
    pub device: String,
    /// Collector-side ingestion time.
    pub at: SimTime,
    /// The typed value.
    pub value: SampleValue,
}

/// The store-wide device dictionary: every device name the store has
/// been handed a row for, numbered in order of first appearance.
#[derive(Debug, Default)]
struct DeviceDict {
    ids: HashMap<String, u32>,
    names: Vec<String>,
    /// Approximate resident size: both copies of every name (map key
    /// and id → name table) and the id.
    bytes: u64,
}

impl DeviceDict {
    fn intern(&mut self, device: &str) -> u32 {
        if let Some(&id) = self.ids.get(device) {
            return id;
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 distinct devices");
        self.ids.insert(device.to_owned(), id);
        self.names.push(device.to_owned());
        self.bytes += 2 * (device.len() as u64 + 24) + 4;
        id
    }
}

#[derive(Debug)]
struct ChannelStore {
    template: Template,
    retention: Retention,
    /// Oldest first; `at` never decreases from one batch to the next.
    batches: VecDeque<Batch>,
    /// Timestamp of the newest row ever pushed (resident or evicted).
    newest: SimTime,
    rows: u64,
    bytes: u64,
    /// Rows dropped by retention since registration.
    evicted: u64,
}

impl ChannelStore {
    fn push(&mut self, batch: Batch) {
        let ordered = batch.at.is_sorted() && batch.at.first().is_some_and(|t| *t >= self.newest);
        assert!(
            ordered,
            "{}/{}: batch is empty or its timestamps go backwards",
            batch.exp, batch.channel
        );
        self.newest = *batch.at.last().expect("checked non-empty");
        self.rows += batch.rows() as u64;
        self.bytes += batch.approx_bytes();
        self.batches.push_back(batch);
    }

    fn apply_retention(&mut self, now: SimTime) {
        loop {
            let over = match self.retention {
                Retention::KeepAll => false,
                Retention::MaxRows(max) => {
                    // Evict whole oldest batches, but never the only
                    // remaining one (a batch larger than the cap stays
                    // until the next one lands).
                    self.rows as usize > max && self.batches.len() > 1
                }
                Retention::MaxAge(age) => self.batches.front().is_some_and(|b| {
                    b.at.last()
                        .is_some_and(|newest| now.saturating_duration_since(*newest) > age)
                }),
            };
            if !over {
                return;
            }
            let old = self.batches.pop_front().expect("over implies a batch");
            self.rows -= old.rows() as u64;
            self.bytes -= old.approx_bytes();
            self.evicted += old.rows() as u64;
        }
    }
}

/// The batches that can hold a row with `since <= at < until`: a
/// binary search over each batch's first and last timestamp, so a batch
/// wholly outside the window is never opened.
fn batch_range(
    batches: &VecDeque<Batch>,
    since: Option<SimTime>,
    until: Option<SimTime>,
) -> Range<usize> {
    let lo = since.map_or(0, |s| {
        batches.partition_point(|b| b.at.last().is_some_and(|newest| *newest < s))
    });
    let hi = until.map_or(batches.len(), |u| {
        batches.partition_point(|b| b.at.first().is_some_and(|oldest| *oldest < u))
    });
    lo..hi.max(lo)
}

/// The rows `[lo, hi)` of a non-decreasing timestamp column with
/// `since <= at < until`.
fn row_range(at: &[SimTime], since: Option<SimTime>, until: Option<SimTime>) -> Range<usize> {
    let lo = since.map_or(0, |s| at.partition_point(|t| *t < s));
    let hi = until.map_or(at.len(), |u| at.partition_point(|t| *t < u));
    lo..hi.max(lo)
}

/// Each of `ch`'s batches that can hold a row inside `query`'s time
/// window, with the rows of it that do.
fn window<'a>(
    ch: &'a ChannelStore,
    query: &ScanQuery,
) -> impl Iterator<Item = (&'a Batch, Range<usize>)> {
    let (since, until) = (query.since, query.until);
    ch.batches
        .range(batch_range(&ch.batches, since, until))
        .map(move |batch| (batch, row_range(&batch.at, since, until)))
}

#[derive(Debug, Default)]
struct StoreInner {
    /// Experiment → channel → batches. Nested rather than keyed by a
    /// pair, so that lookups borrow the two names they are given.
    channels: BTreeMap<String, BTreeMap<String, ChannelStore>>,
    devices: DeviceDict,
}

impl StoreInner {
    fn channel(&self, exp: &str, channel: &str) -> Option<&ChannelStore> {
        self.channels.get(exp)?.get(channel)
    }

    fn all_channels(&self) -> impl Iterator<Item = &ChannelStore> {
        self.channels.values().flat_map(BTreeMap::values)
    }
}

/// The collector's queryable sample store. Cheap to clone; clones
/// share state.
#[derive(Debug, Clone, Default)]
pub struct SampleStore {
    inner: Rc<RefCell<StoreInner>>,
}

/// Aggregate counters for one registered channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelCounters {
    /// Rows currently resident.
    pub rows: u64,
    /// Bytes the channel's batches are charged for: 4 per device id, 8
    /// per timestamp or number, 1 per boolean and `len + 24` per text
    /// value. A stable count, not the resident size (the device
    /// dictionary is store-wide: see [`SampleStore::bytes`]).
    pub bytes: u64,
    /// Rows dropped by retention so far.
    pub evicted: u64,
}

impl SampleStore {
    /// An empty store.
    pub fn new() -> Self {
        SampleStore::default()
    }

    /// Declares a channel (idempotent for an identical declaration).
    /// Called by the pipeline when a schema is registered.
    pub(crate) fn declare(
        &self,
        exp: &str,
        channel: &str,
        template: Template,
        retention: Retention,
    ) {
        self.inner
            .borrow_mut()
            .channels
            .entry(exp.to_owned())
            .or_default()
            .entry(channel.to_owned())
            .or_insert(ChannelStore {
                template,
                retention,
                batches: VecDeque::new(),
                newest: SimTime::ZERO,
                rows: 0,
                bytes: 0,
                evicted: 0,
            });
    }

    /// The id of `device` in the store-wide dictionary, assigned on
    /// first sight. Called by the batch builder, once per accepted row.
    pub(crate) fn intern_device(&self, device: &str) -> u32 {
        self.inner.borrow_mut().devices.intern(device)
    }

    /// The dictionary's names in id order.
    #[cfg(test)]
    pub(crate) fn device_names(&self) -> Vec<String> {
        self.inner.borrow().devices.names.clone()
    }

    /// Ingests one flushed batch, then applies the channel's retention
    /// with `now` as the age reference. Returns the bytes the batch is
    /// charged for.
    ///
    /// # Panics
    ///
    /// Panics if the batch's channel was never declared (the pipeline
    /// only flushes builders it registered), or if the batch is empty
    /// or its `at` column decreases anywhere, within the batch or
    /// against the newest row the channel already took: scans
    /// binary-search that column.
    pub(crate) fn push_batch(&self, batch: Batch, now: SimTime) -> u64 {
        let mut inner = self.inner.borrow_mut();
        let ch = inner
            .channels
            .get_mut(batch.exp.as_str())
            .and_then(|channels| channels.get_mut(batch.channel.as_str()))
            .expect("batch for an undeclared channel");
        let bytes = batch.approx_bytes();
        ch.push(batch);
        ch.apply_retention(now);
        bytes
    }

    /// Scans resident samples matching `query`, in ingestion order
    /// (per channel; channels in lexicographic order). The time window
    /// is narrowed by binary search and the device by id, so the rows
    /// examined are those inside the window, not those resident.
    pub fn scan(&self, query: &ScanQuery) -> Vec<Row> {
        let inner = self.inner.borrow();
        let mut out = Vec::new();
        let device = match &query.device {
            None => None,
            Some(name) => match inner.devices.ids.get(name) {
                Some(&id) => Some(id),
                // Never seen: no batch can hold a row of it.
                None => return out,
            },
        };
        let Some(channels) = inner.channels.get(&query.exp) else {
            return out;
        };
        let wanted = channels
            .iter()
            .filter(|(channel, _)| query.channel.as_ref().is_none_or(|want| want == *channel));
        if device.is_none() {
            // Exactly the rows returned: a doubling `Vec` leaves each
            // buffer it outgrew behind as a hole in the heap.
            out.reserve_exact(
                wanted
                    .clone()
                    .flat_map(|(_, ch)| window(ch, query))
                    .map(|(_, rows)| rows.len())
                    .sum(),
            );
        }
        for (channel, ch) in wanted {
            for (batch, rows) in window(ch, query) {
                for row in rows {
                    let id = batch.device_idx[row];
                    if device.is_some_and(|want| want != id) {
                        continue;
                    }
                    out.push(Row {
                        exp: query.exp.clone(),
                        channel: channel.clone(),
                        device: inner.devices.names[id as usize].clone(),
                        at: batch.at[row],
                        value: batch.values.value(row),
                    });
                }
            }
        }
        out
    }

    /// The template a channel was declared with, if registered.
    pub fn template(&self, exp: &str, channel: &str) -> Option<Template> {
        self.inner
            .borrow()
            .channel(exp, channel)
            .map(|ch| ch.template)
    }

    /// Per-channel counters, if registered.
    pub fn channel_counters(&self, exp: &str, channel: &str) -> Option<ChannelCounters> {
        self.inner
            .borrow()
            .channel(exp, channel)
            .map(|ch| ChannelCounters {
                rows: ch.rows,
                bytes: ch.bytes,
                evicted: ch.evicted,
            })
    }

    /// Registered channels as `(exp, channel)` pairs, sorted.
    pub fn channels(&self) -> Vec<(String, String)> {
        self.inner
            .borrow()
            .channels
            .iter()
            .flat_map(|(exp, channels)| channels.keys().map(move |c| (exp.clone(), c.clone())))
            .collect()
    }

    /// Total resident rows across all channels.
    pub fn rows(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.all_channels().map(|c| c.rows).sum()
    }

    /// Total bytes charged: every channel's batches
    /// ([`ChannelCounters::bytes`]) plus the device dictionary, once.
    /// The charge keeps the per-value rates it had when every text value
    /// was a `String` of its own, so it compares across versions; it is
    /// not the resident size.
    pub fn bytes(&self) -> u64 {
        let inner = self.inner.borrow();
        inner.all_channels().map(|c| c.bytes).sum::<u64>() + inner.devices.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::{BatchBuilder, Column, Watermarks};
    use pogo_sim::SimDuration;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_secs(secs)
    }

    fn batch_of(
        store: &SampleStore,
        exp: &str,
        channel: &str,
        samples: &[(&str, u64, i64)],
    ) -> Batch {
        let mut b = BatchBuilder::new(exp, channel, Template::I64, Watermarks::default());
        for (dev, secs, n) in samples {
            b.append(store, dev, t(*secs), SampleValue::I64(*n))
                .unwrap();
        }
        b.flush().unwrap()
    }

    /// A hand-built single-device batch with exactly these timestamps.
    fn batch_at(store: &SampleStore, secs: &[u64]) -> Batch {
        Batch {
            exp: "e".into(),
            channel: "c".into(),
            device_idx: vec![store.intern_device("d"); secs.len()],
            at: secs.iter().map(|s| t(*s)).collect(),
            values: Column::I64(secs.iter().map(|s| *s as i64).collect()),
        }
    }

    #[test]
    fn scan_filters_by_channel_device_and_time() {
        let store = SampleStore::new();
        store.declare("e", "a", Template::I64, Retention::KeepAll);
        store.declare("e", "b", Template::I64, Retention::KeepAll);
        store.push_batch(
            batch_of(
                &store,
                "e",
                "a",
                &[("d1", 1, 10), ("d2", 2, 20), ("d1", 3, 30)],
            ),
            t(3),
        );
        store.push_batch(batch_of(&store, "e", "b", &[("d1", 2, 99)]), t(3));

        assert_eq!(store.scan(&ScanQuery::exp("e")).len(), 4);
        let a_d1 = store.scan(&ScanQuery::exp("e").channel("a").device("d1"));
        assert_eq!(a_d1.len(), 2);
        assert_eq!(a_d1[0].value, SampleValue::I64(10));
        assert_eq!(a_d1[1].value, SampleValue::I64(30));
        let windowed = store.scan(&ScanQuery::exp("e").since(t(2)).until(t(3)));
        assert_eq!(windowed.len(), 2, "t=2 rows on both channels");
        assert!(store.scan(&ScanQuery::exp("other")).is_empty());
        assert!(
            store.scan(&ScanQuery::exp("e").device("d9")).is_empty(),
            "a device the store never saw"
        );
    }

    /// Without a device filter a scan knows how many rows it returns and
    /// allocates for exactly those, under a time window too.
    #[test]
    fn a_scan_without_a_device_filter_is_sized_exactly() {
        let store = SampleStore::new();
        store.declare("e", "b", Template::I64, Retention::KeepAll);
        store.declare("e", "c", Template::I64, Retention::KeepAll);
        for secs in [&[1, 2, 2][..], &[3, 4], &[5, 6, 7]] {
            store.push_batch(batch_at(&store, secs), t(9));
        }
        store.push_batch(
            batch_of(&store, "e", "b", &[("d", 4, 1), ("d", 5, 2)]),
            t(9),
        );
        for (q, want) in [
            (ScanQuery::exp("e"), 10),
            (ScanQuery::exp("e").channel("b"), 2),
            (ScanQuery::exp("e").since(t(2)), 9),
            (ScanQuery::exp("e").since(t(2)).until(t(5)), 5),
            (ScanQuery::exp("e").until(t(1)), 0),
        ] {
            let rows = store.scan(&q);
            assert_eq!(rows.len(), want, "{q:?}");
            assert_eq!(rows.capacity(), want, "{q:?}");
        }
    }

    #[test]
    fn max_rows_retention_evicts_oldest_batches() {
        let store = SampleStore::new();
        store.declare("e", "c", Template::I64, Retention::MaxRows(3));
        store.push_batch(
            batch_of(&store, "e", "c", &[("d", 1, 1), ("d", 2, 2)]),
            t(2),
        );
        store.push_batch(
            batch_of(&store, "e", "c", &[("d", 3, 3), ("d", 4, 4)]),
            t(4),
        );
        // 4 rows > 3: the oldest batch goes.
        let rows = store.scan(&ScanQuery::exp("e"));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].value, SampleValue::I64(3));
        let counters = store.channel_counters("e", "c").unwrap();
        assert_eq!(counters.rows, 2);
        assert_eq!(counters.evicted, 2);
    }

    #[test]
    fn max_age_retention_drops_stale_batches() {
        let store = SampleStore::new();
        store.declare(
            "e",
            "c",
            Template::I64,
            Retention::MaxAge(SimDuration::from_secs(10)),
        );
        store.push_batch(batch_of(&store, "e", "c", &[("d", 1, 1)]), t(1));
        store.push_batch(batch_of(&store, "e", "c", &[("d", 20, 2)]), t(20));
        let rows = store.scan(&ScanQuery::exp("e"));
        assert_eq!(rows.len(), 1, "the t=1 batch aged out at t=20");
        assert_eq!(rows[0].value, SampleValue::I64(2));
    }

    #[test]
    fn row_range_is_exact_with_duplicate_timestamps() {
        let at: Vec<SimTime> = [1, 2, 2, 2, 5, 5, 9].map(t).to_vec();
        assert_eq!(row_range(&at, None, None), 0..7);
        assert_eq!(row_range(&at, Some(t(2)), None), 1..7, "since is inclusive");
        assert_eq!(row_range(&at, None, Some(t(2))), 0..1, "until is exclusive");
        assert_eq!(row_range(&at, Some(t(2)), Some(t(5))), 1..4);
        assert_eq!(row_range(&at, Some(t(3)), Some(t(5))), 4..4, "a gap");
        assert_eq!(row_range(&at, Some(t(5)), Some(t(6))), 4..6);
        assert_eq!(row_range(&at, Some(t(10)), None), 7..7);
        assert_eq!(row_range(&at, None, Some(t(1))), 0..0);
        assert!(
            row_range(&at, Some(t(5)), Some(t(2))).is_empty(),
            "an inverted window is empty, not a panic"
        );
    }

    #[test]
    fn batch_range_never_opens_a_batch_outside_the_window() {
        let store = SampleStore::new();
        store.declare("e", "c", Template::I64, Retention::KeepAll);
        // A run of t=4 straddles the boundary between batches 1 and 2.
        for secs in [&[1, 2][..], &[3, 4], &[4, 4], &[4, 6], &[8, 9]] {
            store.push_batch(batch_at(&store, secs), t(9));
        }
        let inner = store.inner.borrow();
        let batches = &inner.channel("e", "c").unwrap().batches;
        assert_eq!(batch_range(batches, None, None), 0..5);
        assert_eq!(batch_range(batches, Some(t(3)), None), 1..5);
        assert_eq!(batch_range(batches, Some(t(4)), None), 1..5);
        assert_eq!(batch_range(batches, Some(t(5)), None), 3..5);
        assert_eq!(batch_range(batches, Some(t(7)), None), 4..5);
        assert_eq!(batch_range(batches, Some(t(10)), None), 5..5);
        assert_eq!(batch_range(batches, None, Some(t(4))), 0..2);
        assert_eq!(batch_range(batches, None, Some(t(5))), 0..4);
        assert_eq!(batch_range(batches, None, Some(t(1))), 0..0);
        assert_eq!(batch_range(batches, Some(t(4)), Some(t(5))), 1..4);
        assert!(batch_range(batches, Some(t(7)), Some(t(8))).is_empty());
        assert!(batch_range(batches, Some(t(9)), Some(t(2))).is_empty());
        drop(inner);

        // The scan built on the two helpers returns the whole run of
        // equal timestamps, from all three batches that share it.
        let run = store.scan(&ScanQuery::exp("e").since(t(4)).until(t(5)));
        assert_eq!(run.len(), 4);
        assert!(run.iter().all(|r| r.at == t(4)));
    }

    #[test]
    #[should_panic(expected = "timestamps go backwards")]
    fn a_batch_with_a_decreasing_at_is_refused() {
        let store = SampleStore::new();
        store.declare("e", "c", Template::I64, Retention::KeepAll);
        store.push_batch(batch_at(&store, &[1, 3, 2]), t(3));
    }

    #[test]
    #[should_panic(expected = "timestamps go backwards")]
    fn a_batch_older_than_the_channel_is_refused() {
        let store = SampleStore::new();
        let age = Retention::MaxAge(SimDuration::from_secs(1));
        store.declare("e", "c", Template::I64, age);
        store.push_batch(batch_at(&store, &[5, 7]), t(20));
        assert_eq!(store.rows(), 0, "aged out on arrival");
        // Nothing is resident; the order the evicted rows set still binds.
        store.push_batch(batch_at(&store, &[6, 8]), t(20));
    }

    #[test]
    fn the_dictionary_is_accounted_once_store_wide() {
        let store = SampleStore::new();
        store.declare("e", "a", Template::I64, Retention::KeepAll);
        store.declare("e", "b", Template::I64, Retention::KeepAll);
        let a = store.push_batch(batch_of(&store, "e", "a", &[("dev", 1, 1)]), t(1));
        let b = store.push_batch(batch_of(&store, "e", "b", &[("dev", 1, 1)]), t(1));
        assert_eq!(a, 4 + 8 + 8, "id, timestamp, value: no name in a batch");
        assert_eq!(store.channel_counters("e", "a").unwrap().bytes, a);
        assert_eq!(store.bytes(), a + b + 2 * ("dev".len() as u64 + 24) + 4);
    }
}
