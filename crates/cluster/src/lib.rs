//! # pogo-cluster — Wi-Fi place clustering (the localization application)
//!
//! The paper's flagship workload (§4.1) finds "locations where the user
//! spends a considerable amount of time" by periodically scanning Wi-Fi
//! access points and clustering the scans by similarity:
//!
//! * scans are *sanitized* — locally administered BSSIDs removed — and
//!   RSSI values normalized so 0 ↦ −100 dBm and 1 ↦ −55 dBm
//!   ([`scan`]);
//! * the distance metric is the cosine coefficient ([`similarity`]);
//! * clustering is "a modified version of the DBSCAN clustering
//!   algorithm … a sliding window of 60 samples from which we extract
//!   core objects", with clusters *closed* when the user moves away and
//!   characterized by the member nearest the cluster mean ([`stream`]);
//! * [`matching`] computes Table 4's exact/partial match percentages
//!   between a ground-truth clustering and what a collector received.
//!
//! In the deployed system the streaming algorithm runs *inside the
//! PogoScript `clustering.js` script*; this crate is the native reference
//! implementation used for ground-truth post-processing (§5.3 runs the
//! same algorithm over raw SD-card traces) and for differential testing
//! of the script version.

pub mod matching;
pub mod scan;
pub mod similarity;
pub mod stream;

pub use matching::{match_clusters, MatchParams, MatchReport};
pub use scan::{normalize_rssi, ApReading, Bssid, RawScan, Scan};
pub use similarity::cosine;
pub use stream::{ClusterSummary, StreamClusterer, StreamConfig};
