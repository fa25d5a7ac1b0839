//! The collector's registry-style consumption API.
//!
//! Instead of wiring a raw callback per channel, a
//! consumer *declares* the channels it wants with a
//! [`ChannelSchema`] — type template,
//! optional value field, retention — and the collector does the rest:
//! every inbound sample is type-checked, appended to the ingestion
//! pipeline, batched into columnar form, and flushed into the
//! queryable [`SampleStore`](pogo_ingest::SampleStore). Push consumers
//! attach a [`listener`](crate::CollectorNode::attach_listener) with a
//! [`ChannelFilter`]; pull consumers scan
//! [`store()`](crate::CollectorNode::store).
//!
//! Registering a channel creates a collector-side broker subscription
//! (with optional sensor parameters) — so
//! the §4.3 subscription mirroring still wakes the right sensors on
//! the devices, and the wire cost of consuming a channel is unchanged:
//! one copy per collector subscription.

use std::rc::Rc;

use pogo_ingest::{ChannelSchema, IngestError, IngestStats, SampleValue, Template};
use pogo_sim::SimTime;

use crate::collector::CollectorNode;
use crate::value::Msg;

/// Selects which samples a listener receives. An unset part matches
/// everything.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChannelFilter {
    exp: Option<String>,
    channel: Option<String>,
    device: Option<String>,
}

impl ChannelFilter {
    /// Matches every sample on every registered channel.
    pub fn any() -> Self {
        ChannelFilter::default()
    }

    /// Matches samples from one experiment.
    pub fn exp(exp: &str) -> Self {
        ChannelFilter {
            exp: Some(exp.to_owned()),
            ..ChannelFilter::default()
        }
    }

    /// Restricts to one channel.
    #[must_use]
    pub fn channel(mut self, channel: &str) -> Self {
        self.channel = Some(channel.to_owned());
        self
    }

    /// Restricts to one device JID.
    #[must_use]
    pub fn device(mut self, device: &str) -> Self {
        self.device = Some(device.to_owned());
        self
    }

    /// Whether a sample with these coordinates passes the filter.
    pub fn matches(&self, exp: &str, channel: &str, device: &str) -> bool {
        self.exp.as_deref().is_none_or(|e| e == exp)
            && self.channel.as_deref().is_none_or(|c| c == channel)
            && self.device.as_deref().is_none_or(|d| d == device)
    }

    pub(crate) fn exp_name(&self) -> Option<&str> {
        self.exp.as_deref()
    }

    pub(crate) fn channel_name(&self) -> Option<&str> {
        self.channel.as_deref()
    }
}

/// One ingested sample, as delivered to listeners *after* it was
/// accepted into the pipeline (rejected samples never reach listeners;
/// they surface as `INGEST_SCHEMA_MISMATCH` in the error log instead).
#[derive(Debug)]
pub struct SampleEvent<'a> {
    /// Experiment the channel belongs to.
    pub exp: &'a str,
    /// Channel the sample arrived on.
    pub channel: &'a str,
    /// JID of the device that published it.
    pub device: &'a str,
    /// Sim time of ingestion (arrival at the collector).
    pub at: SimTime,
    /// The full message, pre-extraction.
    pub msg: &'a Msg,
}

pub(crate) type Listener = Rc<dyn Fn(&SampleEvent)>;

/// Handle for declaring channels on a collector; obtained with
/// [`CollectorNode::registry`]. Cheap to clone.
#[derive(Clone)]
pub struct ChannelRegistry {
    collector: CollectorNode,
}

impl ChannelRegistry {
    pub(crate) fn new(collector: &CollectorNode) -> Self {
        ChannelRegistry {
            collector: collector.clone(),
        }
    }

    /// Declares a channel: subscribes to it at the collector (mirrored
    /// to devices, waking the right sensors) and ingests every sample
    /// per `schema`. Re-registering with an identical schema is a
    /// no-op.
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
    ) -> Result<(), IngestError> {
        self.register_with_params(exp, channel, Msg::Null, schema)
    }

    /// Like [`ChannelRegistry::register`], with subscription parameters
    /// for the device-side sensor (e.g. a battery sampling interval).
    ///
    /// # Errors
    ///
    /// [`IngestError::ChannelConflict`] when the channel is already
    /// registered with a different schema.
    pub fn register_with_params(
        &self,
        exp: &str,
        channel: &str,
        params: Msg,
        schema: ChannelSchema,
    ) -> Result<(), IngestError> {
        self.collector
            .register_channel(exp, channel, params, schema)
    }

    /// The schema a channel was registered with.
    pub fn schema(&self, exp: &str, channel: &str) -> Option<ChannelSchema> {
        self.collector.pipeline().schema(exp, channel)
    }

    /// Registered `(exp, channel)` pairs, in lexicographic order.
    pub fn channels(&self) -> Vec<(String, String)> {
        self.collector.pipeline().store().channels()
    }
}

/// A read-only snapshot of a collector's counters: transport-level
/// data receipts, the ingestion pipeline's [`IngestStats`], and the
/// sizes of the diagnostic log streams. Replaces scattered accessors
/// (per-counter getters, log-length spelunking) with one struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CollectorStats {
    /// Data messages received from devices (transport level, before
    /// schema checks; counts messages on unregistered channels too).
    pub data_received: u64,
    /// Write-side ingestion counters.
    pub ingest: IngestStats,
    /// Lines in the `pogo-lint` log (analyzer findings).
    pub lint_findings: usize,
    /// Lines in the `pogo-errors` log (malformed messages, schema
    /// mismatches, unexpected control traffic).
    pub errors_logged: usize,
}

/// Extracts the typed sample a schema declares from an inbound
/// message. `Err` carries a short description of what actually arrived
/// (for the `INGEST_SCHEMA_MISMATCH` diagnostic).
pub(crate) fn extract_sample(schema: &ChannelSchema, msg: &Msg) -> Result<SampleValue, String> {
    let target = match &schema.value_field {
        None => msg,
        Some(field) => match msg.get(field) {
            Some(v) => v,
            None => {
                return Err(match msg {
                    Msg::Obj(_) => format!("object without field {field:?}"),
                    other => format!("{} (field {field:?} needs an object)", describe(other)),
                })
            }
        },
    };
    match (schema.template, target) {
        (Template::I64, Msg::Num(n)) if n.fract() == 0.0 && n.abs() < 9.0e18 => {
            Ok(SampleValue::I64(*n as i64))
        }
        (Template::F64, Msg::Num(n)) => Ok(SampleValue::F64(*n)),
        (Template::Bool, Msg::Bool(b)) => Ok(SampleValue::Bool(*b)),
        (Template::Str, Msg::Str(s)) => Ok(SampleValue::Str(s.clone())),
        (Template::Json, v) => Ok(SampleValue::Json(v.to_json())),
        (Template::I64, Msg::Num(_)) => Err("non-integral number".into()),
        (_, other) => Err(describe(other).into()),
    }
}

fn describe(msg: &Msg) -> &'static str {
    match msg {
        Msg::Null => "null",
        Msg::Bool(_) => "bool",
        Msg::Num(_) => "number",
        Msg::Str(_) => "string",
        Msg::Arr(_) => "array",
        Msg::Obj(_) => "object",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_ingest::Retention;

    #[test]
    fn filter_parts_combine() {
        let f = ChannelFilter::exp("e").channel("c");
        assert!(f.matches("e", "c", "any-device"));
        assert!(!f.matches("e", "other", "any-device"));
        assert!(!f.matches("other", "c", "any-device"));
        assert!(ChannelFilter::any().matches("x", "y", "z"));
        let d = ChannelFilter::any().device("d@pogo");
        assert!(d.matches("e", "c", "d@pogo"));
        assert!(!d.matches("e", "c", "other@pogo"));
    }

    #[test]
    fn extraction_follows_the_schema() {
        let msg = Msg::obj([("voltage", Msg::Num(3.7)), ("n", Msg::Num(4.0))]);
        let f64s = ChannelSchema::new(Template::F64).field("voltage");
        assert_eq!(extract_sample(&f64s, &msg), Ok(SampleValue::F64(3.7)));
        let i64s = ChannelSchema::new(Template::I64).field("n");
        assert_eq!(extract_sample(&i64s, &msg), Ok(SampleValue::I64(4)));
        // The whole message as JSON.
        let json = ChannelSchema::json();
        assert_eq!(
            extract_sample(&json, &msg),
            Ok(SampleValue::Json("{\"voltage\":3.7,\"n\":4}".into()))
        );
        // Mismatches describe what arrived instead of coercing.
        let err = extract_sample(&i64s, &Msg::obj([("n", Msg::Num(1.5))])).unwrap_err();
        assert_eq!(err, "non-integral number");
        let err = extract_sample(&i64s, &Msg::Num(1.0)).unwrap_err();
        assert!(err.contains("needs an object"), "{err}");
        let err = extract_sample(&i64s, &Msg::obj([("m", Msg::Num(1.0))])).unwrap_err();
        assert!(err.contains("without field"), "{err}");
    }

    #[test]
    fn schema_builder_rides_along() {
        let s = ChannelSchema::new(Template::Str)
            .field("tag")
            .retention(Retention::MaxRows(8));
        assert_eq!(
            extract_sample(&s, &Msg::obj([("tag", Msg::str("hi"))])),
            Ok(SampleValue::Str("hi".into()))
        );
    }
}
