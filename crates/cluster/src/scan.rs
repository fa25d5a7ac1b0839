//! Access-point scans: raw readings, sanitization, and RSSI normalization.

use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

/// A Wi-Fi access point MAC address (48 bits, stored in the low bits).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Bssid(u64);

impl Bssid {
    /// Creates a BSSID from a 48-bit value.
    ///
    /// # Panics
    ///
    /// Panics if `raw` does not fit in 48 bits.
    pub fn new(raw: u64) -> Self {
        assert!(raw < (1 << 48), "BSSID must fit in 48 bits");
        Bssid(raw)
    }

    /// The raw 48-bit value.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// True if the *locally administered* bit (bit 1 of the first octet)
    /// is set. The paper's `scan.js` removes these: they belong to
    /// ad-hoc/virtual interfaces, not infrastructure access points.
    pub fn is_locally_administered(self) -> bool {
        let first_octet = (self.0 >> 40) as u8;
        first_octet & 0x02 != 0
    }
}

impl fmt::Display for Bssid {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            (b >> 40) as u8,
            (b >> 32) as u8,
            (b >> 24) as u8,
            (b >> 16) as u8,
            (b >> 8) as u8,
            b as u8
        )
    }
}

/// Error parsing a BSSID from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBssidError(String);

impl fmt::Display for ParseBssidError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid BSSID: {}", self.0)
    }
}

impl std::error::Error for ParseBssidError {}

impl FromStr for Bssid {
    type Err = ParseBssidError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let octets: Vec<&str> = s.split(':').collect();
        if octets.len() != 6 {
            return Err(ParseBssidError(s.to_owned()));
        }
        let mut raw: u64 = 0;
        for octet in octets {
            let v = u8::from_str_radix(octet, 16).map_err(|_| ParseBssidError(s.to_owned()))?;
            raw = (raw << 8) | v as u64;
        }
        Ok(Bssid(raw))
    }
}

/// One raw access-point reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ApReading {
    /// The access point's MAC address.
    pub bssid: Bssid,
    /// Received signal strength in dBm (typically −100 … −30).
    pub rssi_dbm: f64,
}

/// A raw scan result as the Wi-Fi sensor produces it.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct RawScan {
    /// Capture time in milliseconds.
    pub timestamp_ms: u64,
    /// The observed access points.
    pub readings: Vec<ApReading>,
}

/// Normalizes RSSI so that "0 and 1 correspond to −100 dBm and −55 dBm
/// respectively" (§4.1), clamping outside that range.
pub(crate) fn normalize_rssi(dbm: f64) -> f64 {
    ((dbm + 100.0) / 45.0).clamp(0.0, 1.0)
}

impl RawScan {
    /// Applies `scan.js`'s sanitization: drops locally administered access
    /// points and normalizes signal strengths. The result is sorted by
    /// BSSID (deterministic, and enables merge-join similarity).
    pub fn sanitize(&self) -> Scan {
        let mut aps: Vec<(Bssid, f64)> = self
            .readings
            .iter()
            .filter(|r| !r.bssid.is_locally_administered())
            .map(|r| (r.bssid, normalize_rssi(r.rssi_dbm)))
            .collect();
        aps.sort_by_key(|&(b, _)| b);
        aps.dedup_by_key(|&mut (b, _)| b);
        Scan::sorted(self.timestamp_ms, aps)
    }
}

/// A sanitized, normalized scan: the unit of clustering.
///
/// Scans are immutable once built; the AP table is refcount-shared so
/// cloning one (the streaming clusterer keeps every scan in its sliding
/// window *and* in the open cluster's member list) is two pointer bumps,
/// not a heap copy.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Scan {
    /// Capture time in milliseconds.
    pub timestamp_ms: u64,
    /// `(bssid, normalized strength)` pairs, sorted by BSSID, unique.
    aps: Rc<[(Bssid, f64)]>,
    /// Cached L2 norm of the strength vector, so similarity computations
    /// only walk the merge-join for the dot product.
    norm: f64,
}

impl Scan {
    /// Builds a scan directly from `(bssid, normalized strength)` pairs
    /// (sorted and deduplicated internally).
    pub fn from_parts(timestamp_ms: u64, mut aps: Vec<(Bssid, f64)>) -> Self {
        aps.sort_by_key(|&(b, _)| b);
        aps.dedup_by_key(|&mut (b, _)| b);
        Scan::sorted(timestamp_ms, aps)
    }

    fn sorted(timestamp_ms: u64, aps: Vec<(Bssid, f64)>) -> Self {
        // Accumulated in BSSID order — the same order the old inline
        // merge-join summed squares in, so cosine values stay bit-for-bit
        // identical (the clustering.js differential test depends on that).
        let mut sum_sq = 0.0;
        for &(_, s) in &aps {
            sum_sq += s * s;
        }
        Scan {
            timestamp_ms,
            aps: aps.into(),
            norm: sum_sq.sqrt(),
        }
    }

    /// The `(bssid, strength)` pairs, sorted by BSSID.
    #[inline]
    pub fn aps(&self) -> &[(Bssid, f64)] {
        &self.aps
    }

    /// L2 norm of the strength vector (0 for an empty scan), cached at
    /// construction.
    #[inline]
    pub fn norm(&self) -> f64 {
        self.norm
    }

    /// Number of access points in the scan.
    pub fn len(&self) -> usize {
        self.aps.len()
    }

    /// True if the scan saw no access points.
    pub fn is_empty(&self) -> bool {
        self.aps.is_empty()
    }

    /// Strength for one BSSID, if present.
    pub fn strength(&self, bssid: Bssid) -> Option<f64> {
        self.aps
            .binary_search_by_key(&bssid, |&(b, _)| b)
            .ok()
            .map(|i| self.aps[i].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization_endpoints_and_clamp() {
        assert_eq!(normalize_rssi(-100.0), 0.0);
        assert_eq!(normalize_rssi(-55.0), 1.0);
        assert!((normalize_rssi(-77.5) - 0.5).abs() < 1e-12);
        assert_eq!(normalize_rssi(-120.0), 0.0);
        assert_eq!(normalize_rssi(-30.0), 1.0);
    }

    #[test]
    fn locally_administered_bit() {
        // 02:xx:... has the locally-administered bit set.
        assert!(Bssid::new(0x02_00_00_00_00_01).is_locally_administered());
        assert!(!Bssid::new(0x00_1a_2b_3c_4d_5e).is_locally_administered());
        assert!(Bssid::new(0x06_00_00_00_00_00).is_locally_administered());
    }

    #[test]
    fn bssid_display_and_parse_roundtrip() {
        let b = Bssid::new(0x00_1a_2b_3c_4d_5e);
        assert_eq!(b.to_string(), "00:1a:2b:3c:4d:5e");
        assert_eq!("00:1a:2b:3c:4d:5e".parse::<Bssid>().unwrap(), b);
        assert!("not-a-mac".parse::<Bssid>().is_err());
        assert!("00:1a:2b:3c:4d".parse::<Bssid>().is_err());
        assert!("zz:1a:2b:3c:4d:5e".parse::<Bssid>().is_err());
    }

    #[test]
    fn sanitize_filters_sorts_and_normalizes() {
        let raw = RawScan {
            timestamp_ms: 42,
            readings: vec![
                ApReading {
                    bssid: Bssid::new(0x00_00_00_00_00_05),
                    rssi_dbm: -55.0,
                },
                ApReading {
                    bssid: Bssid::new(0x02_00_00_00_00_01), // locally administered
                    rssi_dbm: -40.0,
                },
                ApReading {
                    bssid: Bssid::new(0x00_00_00_00_00_01),
                    rssi_dbm: -100.0,
                },
            ],
        };
        let scan = raw.sanitize();
        assert_eq!(scan.timestamp_ms, 42);
        assert_eq!(scan.len(), 2);
        assert_eq!(scan.aps()[0].0, Bssid::new(0x00_00_00_00_00_01));
        assert_eq!(scan.aps()[0].1, 0.0);
        assert_eq!(scan.aps()[1].1, 1.0);
    }

    #[test]
    fn sanitize_dedups_duplicate_bssids() {
        let raw = RawScan {
            timestamp_ms: 0,
            readings: vec![
                ApReading {
                    bssid: Bssid::new(1),
                    rssi_dbm: -60.0,
                },
                ApReading {
                    bssid: Bssid::new(1),
                    rssi_dbm: -90.0,
                },
            ],
        };
        assert_eq!(raw.sanitize().len(), 1);
    }

    #[test]
    fn strength_lookup() {
        let scan = Scan::from_parts(0, vec![(Bssid::new(2), 0.5), (Bssid::new(1), 0.25)]);
        assert_eq!(scan.strength(Bssid::new(1)), Some(0.25));
        assert_eq!(scan.strength(Bssid::new(3)), None);
    }

    #[test]
    #[should_panic(expected = "48 bits")]
    fn oversized_bssid_rejected() {
        Bssid::new(1 << 48);
    }
}
