//! # pogo — a Rust reproduction of the Pogo mobile-phone-sensing middleware
//!
//! This umbrella crate re-exports the whole workspace and provides the
//! glue that wires the paper's flagship *localization application*
//! (§4.1) together: the PogoScript sources of `scan.js`,
//! `clustering.js`, and `collect.js`, conversions between middleware
//! messages and the native clustering types, the `geolocate` extension
//! native, and ground-truth reconstruction from device logs.
//!
//! See `DESIGN.md` for the architecture and `EXPERIMENTS.md` for the
//! paper-versus-measured record of every table and figure.
//!
//! ## Quickstart
//!
//! ```
//! use pogo::core::{DeviceSetup, ExperimentSpec, Testbed};
//! use pogo::core::proto::ScriptSpec;
//! use pogo::sim::{Sim, SimDuration};
//!
//! let sim = Sim::new();
//! let mut testbed = Testbed::new(&sim);
//! testbed.add(DeviceSetup::named("phone-1"));
//! testbed.collector()
//!     .deployment(&ExperimentSpec {
//!         id: "hello".into(),
//!         scripts: vec![ScriptSpec {
//!             name: "hello.js".into(),
//!             source: "publish('greetings', { hi: true });".into(),
//!         }],
//!     })
//!     .to(&[testbed.devices()[0].jid()])
//!     .send()
//!     .expect("scripts pass pre-deployment analysis");
//! sim.run_for(SimDuration::from_mins(90));
//! ```
//!
//! To record what happened, build the testbed with
//! [`Testbed::with_obs`](core::Testbed::with_obs) and an
//! [`ObsConfig`](core::ObsConfig); dump the trace with
//! [`obs::export`] or the `pogo-trace` CLI.

pub use pogo_chaos as chaos;
pub use pogo_cluster as cluster;
pub use pogo_core as core;
pub use pogo_ingest as ingest;
pub use pogo_mobility as mobility;
pub use pogo_net as net;
pub use pogo_obs as obs;
pub use pogo_platform as platform;
pub use pogo_script as script;
pub use pogo_sim as sim;

pub mod chaos_workloads;
mod error;
pub mod glue;

pub use error::{Error, ErrorCode};
