//! # pogo-core — the Pogo middleware
//!
//! The paper's primary contribution (§3–§4): a scriptable
//! publish/subscribe middleware that turns a pool of phones into a shared
//! mobile-sensing testbed. This crate implements the middleware itself;
//! it runs on the simulated platform of `pogo-platform`, talks over the
//! switchboard of `pogo-net`, and executes experiment scripts with
//! `pogo-script`.
//!
//! ## Architecture (Figure 2 of the paper)
//!
//! * [`value::Msg`] — messages are "a tree of key/value pairs, which map
//!   directly onto JavaScript objects", serialized to JSON on the wire;
//! * [`Broker`] — topic-based publish/subscribe with
//!   parameterized subscriptions and subscription-change notifications
//!   (so sensors can power down when nobody listens, §4.3);
//! * [`sensor`] — the sensor manager and the wifi-scan / battery /
//!   location sensors;
//! * [`Scheduler`] — power-aware task execution on top of
//!   alarms and wake locks (§4.5);
//! * [`host::ScriptHost`] — the 11-method JavaScript API of Table 1,
//!   including `freeze`/`thaw` persistence and the 100 ms callback
//!   watchdog;
//! * [`context`] — per-experiment sandboxes whose brokers sync with a
//!   remote counterpart across the network (§4.2);
//! * the tail detector — §4.7's frozen-`Thread.sleep` traffic
//!   detector driving transmission synchronization;
//! * [`DeviceNode`] / [`CollectorNode`] — the two node roles, and
//!   [`Testbed`] wiring a whole deployment together;
//! * [`ChannelRegistry`] — the collector's typed consumption API:
//!   declared channel schemas feeding the `pogo-ingest` pipeline and its
//!   queryable sample store.

pub mod accounting;
mod assignment;
mod broker;
mod collector;
pub mod context;
mod device;
mod fleet;
pub mod host;
mod link;
mod lz77;
mod privacy;
pub mod proto;
mod registry;
mod scheduler;
pub mod sensor;
mod tail;
mod testbed;
pub mod value;

pub use assignment::{Admin, AssignError, DeviceProfile, DeviceRequest, GeoRect};
pub use broker::{Broker, SubscriptionId, SubscriptionInfo};
pub use collector::{CollectorNode, DeployError, Deployment};
pub use device::{DeviceConfig, DeviceNode, ACK_TIMEOUT};
pub use fleet::{Fleet, FleetMember, FleetSpec};
pub use host::ScriptHost;
pub use pogo_ingest::{
    ChannelSchema, IngestError, IngestStats, Retention, SampleStore, SampleValue, ScanQuery,
    Template,
};
pub use pogo_obs::{Obs, ObsConfig};
pub use pogo_script::WATCHDOG_BUDGET;
pub use privacy::PrivacyPolicy;
pub use proto::ExperimentSpec;
pub use registry::{ChannelFilter, ChannelRegistry, CollectorStats, SampleEvent};
pub use scheduler::Scheduler;
pub use testbed::{DeviceSetup, Testbed};
pub use value::Msg;

/// Adds `by` to a counter cell.
pub(crate) fn bump(counter: &std::cell::Cell<u64>, by: u64) {
    counter.set(counter.get() + by);
}
