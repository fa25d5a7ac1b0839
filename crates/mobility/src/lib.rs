//! # pogo-mobility — the synthetic deployment world
//!
//! The paper's §5.3 experiment ran on eight human participants carrying
//! phones for 24 days through the real world. That world is not available
//! here, so this crate synthesizes one that exercises the same code paths
//! and failure modes:
//!
//! * [`World`] — places (home, office, …) with Wi-Fi access-point
//!   populations, plus a street-AP pool seen in transit;
//! * [`MovementTrace`] — per-user movement timelines (dwell / transit /
//!   phone off) generated from behavioural archetypes;
//! * [`ScanSynthesizer`] — scan synthesis: RSSI noise, detection dropout,
//!   and a sprinkle of locally administered BSSIDs for `scan.js` to filter;
//! * [`GeolocationService`] — the Google-geolocation-API substitute used
//!   by `collect.js` (weighted-centroid lookup over the AP database);
//! * [`paper_cohort`] — the nine Table 4 sessions (user 2 appears as 2a
//!   and 2b) with their individual disruptions: user 1's phone-off nights,
//!   user 2a's roaming trip with data off, user 3's two-day 3G outage,
//!   user 7's Wi-Fi-only connectivity, and everyone's occasional reboots
//!   and the researchers' script redeployments.

mod cohort;
mod geoloc;
mod scanner;
mod trace;
mod world;

pub use cohort::{paper_cohort, Archetype, UserScenario, UserSpec};
pub use geoloc::{GeoPoint, GeolocationService};
pub use scanner::ScanSynthesizer;
pub use trace::{DisruptionSchedule, MovementTrace, Whereabouts};
pub use world::{Place, PlaceId, World};
