//! The ingestion pipeline: registered channels, per-channel batch
//! builders, watermark-driven flushes into the [`SampleStore`].
//!
//! The pipeline is the write side of the collector's registry API. The
//! collector extracts a [`SampleValue`] from each inbound data message
//! (per the channel's [`ChannelSchema`]) and appends it here; the
//! pipeline accumulates columnar batches and flushes them when the
//! size watermark is hit or the age watermark expires (a one-shot sim
//! timer armed when a builder goes non-empty — deterministic, like
//! every other timer in the simulation).
//!
//! Observability (when enabled): `ingest.batch.flushes`,
//! `ingest.batch.rows`, `ingest.batch.bytes` per flush,
//! `ingest.schema_mismatch` per rejected sample, and
//! `ingest.store.rows` / `ingest.store.bytes` gauges.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use pogo_obs::Obs;
use pogo_sim::Sim;

use crate::batch::{BatchBuilder, Watermarks};
use crate::error::IngestError;
use crate::schema::{ChannelSchema, SampleValue};
use crate::store::SampleStore;

struct ChannelState {
    schema: ChannelSchema,
    builder: BatchBuilder,
    /// An age-watermark flush timer is pending for this channel.
    flush_armed: bool,
}

struct PipelineInner {
    sim: Sim,
    obs: Obs,
    watermarks: Watermarks,
    /// Experiment → channel → state. Nested rather than keyed by a pair,
    /// so that the per-sample lookups borrow the two names they are given.
    channels: BTreeMap<String, BTreeMap<String, ChannelState>>,
    store: SampleStore,
    ingested_rows: u64,
    schema_mismatches: u64,
    batches_flushed: u64,
}

/// Write-side counters, surfaced through `CollectorStats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IngestStats {
    /// Samples accepted into a batch builder.
    pub ingested_rows: u64,
    /// Samples rejected with `INGEST_SCHEMA_MISMATCH`.
    pub schema_mismatches: u64,
    /// Batches flushed into the store.
    pub batches_flushed: u64,
    /// Rows sitting in builders, below the flush watermarks.
    pub pending_rows: u64,
    /// Rows resident in the store.
    pub store_rows: u64,
    /// Bytes the store is charged for ([`SampleStore::bytes`]): a stable
    /// count, not the resident size.
    pub store_bytes: u64,
}

impl PipelineInner {
    fn channel(&self, exp: &str, channel: &str) -> Option<&ChannelState> {
        self.channels.get(exp)?.get(channel)
    }

    fn channel_mut(&mut self, exp: &str, channel: &str) -> Option<&mut ChannelState> {
        self.channels.get_mut(exp)?.get_mut(channel)
    }
}

/// The collector's ingestion pipeline. Cheap to clone; clones share
/// state.
#[derive(Clone)]
pub struct IngestPipeline {
    inner: Rc<RefCell<PipelineInner>>,
}

impl IngestPipeline {
    /// A pipeline with the default watermarks.
    pub fn new(sim: &Sim, obs: &Obs) -> Self {
        Self::with_watermarks(sim, obs, Watermarks::default())
    }

    /// A pipeline with explicit flush watermarks.
    pub fn with_watermarks(sim: &Sim, obs: &Obs, watermarks: Watermarks) -> Self {
        IngestPipeline {
            inner: Rc::new(RefCell::new(PipelineInner {
                sim: sim.clone(),
                obs: obs.clone(),
                watermarks,
                channels: BTreeMap::new(),
                store: SampleStore::new(),
                ingested_rows: 0,
                schema_mismatches: 0,
                batches_flushed: 0,
            })),
        }
    }

    /// Registers a channel. Re-registering with an identical schema is
    /// a no-op returning `false`; `true` means newly registered.
    ///
    /// # Errors
    ///
    /// [`IngestError::ChannelConflict`] when the channel is already
    /// registered with a different schema.
    pub fn register(
        &self,
        exp: &str,
        channel: &str,
        schema: ChannelSchema,
    ) -> Result<bool, IngestError> {
        let mut inner = self.inner.borrow_mut();
        if let Some(existing) = inner.channel(exp, channel) {
            if existing.schema == schema {
                return Ok(false);
            }
            return Err(IngestError::ChannelConflict {
                exp: exp.to_owned(),
                channel: channel.to_owned(),
            });
        }
        inner
            .store
            .declare(exp, channel, schema.template, schema.retention);
        let builder = BatchBuilder::new(exp, channel, schema.template, inner.watermarks);
        inner.channels.entry(exp.to_owned()).or_default().insert(
            channel.to_owned(),
            ChannelState {
                schema,
                builder,
                flush_armed: false,
            },
        );
        Ok(true)
    }

    /// The schema a channel was registered with.
    pub fn schema(&self, exp: &str, channel: &str) -> Option<ChannelSchema> {
        self.inner
            .borrow()
            .channel(exp, channel)
            .map(|c| c.schema.clone())
    }

    /// Appends one extracted sample at the current sim time, flushing
    /// if a watermark is crossed.
    ///
    /// # Errors
    ///
    /// [`IngestError::UnknownChannel`] for unregistered channels;
    /// [`IngestError::SchemaMismatch`] (counted, and metered as
    /// `ingest.schema_mismatch`) when the value does not fit the
    /// channel's template — the sample is rejected, never coerced.
    pub fn append(
        &self,
        exp: &str,
        channel: &str,
        device: &str,
        value: SampleValue,
    ) -> Result<(), IngestError> {
        let arm = {
            let mut guard = self.inner.borrow_mut();
            // Reborrowed so the builder and the store (whose dictionary
            // names the device) can be held together.
            let inner = &mut *guard;
            let now = inner.sim.now();
            let Some(mut state) = inner
                .channels
                .get_mut(exp)
                .and_then(|channels| channels.get_mut(channel))
            else {
                return Err(IngestError::UnknownChannel {
                    exp: exp.to_owned(),
                    channel: channel.to_owned(),
                });
            };
            if !state.builder.has_room_for(&value) {
                // The batch's text offsets are `u32`s: this value starts
                // the next batch.
                Self::flush_locked(inner, exp, channel);
                state = inner
                    .channels
                    .get_mut(exp)
                    .and_then(|channels| channels.get_mut(channel))
                    .expect("the channel was found above");
            }
            let full = match state.builder.append(&inner.store, device, now, value) {
                Ok(full) => full,
                Err(e) => {
                    inner.schema_mismatches += 1;
                    if inner.obs.is_enabled() {
                        inner.obs.metrics().inc("ingest.schema_mismatch", 1);
                    }
                    return Err(e);
                }
            };
            // Below the size watermark the age watermark needs a timer,
            // unless one is pending.
            let arm = !full && !state.flush_armed;
            inner.ingested_rows += 1;
            if full {
                Self::flush_locked(inner, exp, channel);
            }
            arm
        };
        if arm {
            self.arm_age_flush(exp, channel);
        }
        Ok(())
    }

    /// Records a sample the caller could not even extract per the
    /// channel's schema (e.g. an object missing the declared value
    /// field). Counts like [`IngestPipeline::append`]'s mismatch path
    /// and returns the error to surface — `got` is a short description
    /// of what actually arrived.
    pub fn reject_mismatch(
        &self,
        exp: &str,
        channel: &str,
        device: &str,
        got: &str,
    ) -> IngestError {
        let mut inner = self.inner.borrow_mut();
        let Some(state) = inner.channel(exp, channel) else {
            return IngestError::UnknownChannel {
                exp: exp.to_owned(),
                channel: channel.to_owned(),
            };
        };
        let expected = state.schema.template;
        inner.schema_mismatches += 1;
        if inner.obs.is_enabled() {
            inner.obs.metrics().inc("ingest.schema_mismatch", 1);
        }
        IngestError::SchemaMismatch {
            exp: exp.to_owned(),
            channel: channel.to_owned(),
            device: device.to_owned(),
            expected,
            got: got.to_owned(),
        }
    }

    /// Schedules the age-watermark flush for a channel whose builder
    /// just went non-empty.
    fn arm_age_flush(&self, exp: &str, channel: &str) {
        let (sim, delay) = {
            let mut inner = self.inner.borrow_mut();
            let Some(state) = inner.channel_mut(exp, channel) else {
                return;
            };
            if state.flush_armed {
                return;
            }
            let Some(oldest) = state.builder.oldest() else {
                return;
            };
            state.flush_armed = true;
            let deadline = oldest + state.builder.max_age();
            let now = inner.sim.now();
            (inner.sim.clone(), deadline.saturating_duration_since(now))
        };
        let me = self.clone();
        let (exp, channel) = (exp.to_owned(), channel.to_owned());
        sim.schedule_in(delay, move || me.age_flush_due(&exp, &channel));
    }

    /// The age-watermark timer fired: flush if the oldest pending
    /// sample really is due (a size flush may have raced it), else
    /// re-arm for the remaining age.
    fn age_flush_due(&self, exp: &str, channel: &str) {
        let rearm = {
            let mut inner = self.inner.borrow_mut();
            let Some(state) = inner.channel_mut(exp, channel) else {
                return;
            };
            state.flush_armed = false;
            match state.builder.oldest() {
                None => false,
                Some(oldest) => {
                    let due = oldest + state.builder.max_age();
                    if inner.sim.now() >= due {
                        Self::flush_locked(&mut inner, exp, channel);
                        false
                    } else {
                        true
                    }
                }
            }
        };
        if rearm {
            self.arm_age_flush(exp, channel);
        }
    }

    /// Flushes one channel's pending rows (no-op when empty).
    pub fn flush_channel(&self, exp: &str, channel: &str) {
        let mut inner = self.inner.borrow_mut();
        Self::flush_locked(&mut inner, exp, channel);
    }

    /// Flushes every channel's pending rows — the read barrier before
    /// scanning or exporting.
    pub fn flush_all(&self) {
        let mut inner = self.inner.borrow_mut();
        let keys: Vec<(String, String)> = inner
            .channels
            .iter()
            .flat_map(|(exp, channels)| channels.keys().map(move |c| (exp.clone(), c.clone())))
            .collect();
        for (exp, channel) in keys {
            Self::flush_locked(&mut inner, &exp, &channel);
        }
    }

    fn flush_locked(inner: &mut PipelineInner, exp: &str, channel: &str) {
        let Some(batch) = inner
            .channel_mut(exp, channel)
            .and_then(|state| state.builder.flush())
        else {
            return;
        };
        let rows = batch.rows() as u64;
        let now = inner.sim.now();
        let bytes = inner.store.push_batch(batch, now);
        inner.batches_flushed += 1;
        if inner.obs.is_enabled() {
            let m = inner.obs.metrics();
            m.inc("ingest.batch.flushes", 1);
            m.inc("ingest.batch.bytes", bytes);
            m.observe("ingest.batch.rows", rows as f64);
            m.gauge("ingest.store.rows", inner.store.rows() as f64);
            m.gauge("ingest.store.bytes", inner.store.bytes() as f64);
        }
    }

    /// The queryable store this pipeline flushes into.
    pub fn store(&self) -> SampleStore {
        self.inner.borrow().store.clone()
    }

    /// Write-side counters.
    pub fn stats(&self) -> IngestStats {
        let inner = self.inner.borrow();
        IngestStats {
            ingested_rows: inner.ingested_rows,
            schema_mismatches: inner.schema_mismatches,
            batches_flushed: inner.batches_flushed,
            pending_rows: inner
                .channels
                .values()
                .flat_map(BTreeMap::values)
                .map(|c| c.builder.pending_rows() as u64)
                .sum(),
            store_rows: inner.store.rows(),
            store_bytes: inner.store.bytes(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Template;
    use crate::store::ScanQuery;
    use pogo_sim::SimDuration;

    #[test]
    fn register_conflicts_and_idempotence() {
        let sim = Sim::new();
        let p = IngestPipeline::new(&sim, &Obs::off());
        assert!(p
            .register("e", "c", ChannelSchema::new(Template::I64))
            .unwrap());
        assert!(!p
            .register("e", "c", ChannelSchema::new(Template::I64))
            .unwrap());
        let err = p
            .register("e", "c", ChannelSchema::new(Template::F64))
            .unwrap_err();
        assert_eq!(err.code(), "INGEST_CHANNEL_CONFLICT");
    }

    #[test]
    fn size_watermark_flushes_into_the_store() {
        let sim = Sim::new();
        let p = IngestPipeline::with_watermarks(
            &sim,
            &Obs::off(),
            Watermarks {
                max_rows: 2,
                max_age: SimDuration::from_secs(600),
            },
        );
        p.register("e", "c", ChannelSchema::new(Template::I64))
            .unwrap();
        p.append("e", "c", "d", SampleValue::I64(1)).unwrap();
        assert_eq!(p.stats().pending_rows, 1);
        p.append("e", "c", "d", SampleValue::I64(2)).unwrap();
        let stats = p.stats();
        assert_eq!(stats.pending_rows, 0);
        assert_eq!(stats.batches_flushed, 1);
        assert_eq!(stats.store_rows, 2);
    }

    #[test]
    fn age_watermark_flushes_on_the_sim_clock() {
        let sim = Sim::new();
        let p = IngestPipeline::with_watermarks(
            &sim,
            &Obs::off(),
            Watermarks {
                max_rows: 1000,
                max_age: SimDuration::from_secs(30),
            },
        );
        p.register("e", "c", ChannelSchema::new(Template::I64))
            .unwrap();
        p.append("e", "c", "d", SampleValue::I64(7)).unwrap();
        sim.run_for(SimDuration::from_secs(29));
        assert_eq!(p.stats().batches_flushed, 0, "age watermark not reached");
        sim.run_for(SimDuration::from_secs(2));
        assert_eq!(p.stats().batches_flushed, 1, "age watermark flushed");
        assert_eq!(p.store().scan(&ScanQuery::exp("e")).len(), 1);
    }

    #[test]
    fn unknown_channel_and_mismatch_are_stable_codes() {
        let sim = Sim::new();
        let p = IngestPipeline::new(&sim, &Obs::off());
        let err = p.append("e", "c", "d", SampleValue::I64(1)).unwrap_err();
        assert_eq!(err.code(), "INGEST_UNKNOWN_CHANNEL");
        p.register("e", "c", ChannelSchema::new(Template::I64))
            .unwrap();
        let err = p
            .append("e", "c", "d", SampleValue::Str("x".into()))
            .unwrap_err();
        assert_eq!(err.code(), "INGEST_SCHEMA_MISMATCH");
        assert_eq!(p.stats().schema_mismatches, 1);
        assert_eq!(p.stats().ingested_rows, 0);
    }
}
