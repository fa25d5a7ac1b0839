//! Scan synthesis: what the Wi-Fi chipset reports at a given place and
//! time.

use pogo_cluster::{ApReading, RawScan};
use pogo_sim::SimRng;

use crate::trace::Whereabouts;
use crate::world::{PlaceId, World};

/// Generates raw scans for one user's phone. Owns its RNG stream so scan
/// noise is deterministic per user and independent of other users.
#[derive(Debug)]
pub struct ScanSynthesizer {
    rng: SimRng,
    rssi_noise_std: f64,
}

impl ScanSynthesizer {
    /// Creates a synthesizer with its own random stream.
    pub fn new(rng: SimRng) -> Self {
        ScanSynthesizer {
            rng,
            rssi_noise_std: 2.5,
        }
    }

    /// Synthesizes an accelerometer reading for the current activity:
    /// near-stationary gravity while dwelling, walking-scale jitter in
    /// transit, nothing while the phone is off.
    pub fn accel(&mut self, whereabouts: Whereabouts) -> Option<(f64, f64, f64)> {
        let jitter = match whereabouts {
            Whereabouts::PhoneOff => return None,
            Whereabouts::At(_) => 0.08, // on a desk / in a pocket at rest
            Whereabouts::Transit => 2.2, // walking
        };
        Some((
            self.rng.gauss(0.0, jitter),
            self.rng.gauss(0.0, jitter),
            self.rng.gauss(9.81, jitter),
        ))
    }

    /// The serving cell tower: one macro cell per place, a rotating set
    /// of street cells in transit.
    pub fn cell_id(&mut self, whereabouts: Whereabouts, t_ms: u64) -> Option<u64> {
        match whereabouts {
            Whereabouts::PhoneOff => None,
            Whereabouts::At(PlaceId(p)) => Some(10_000 + p as u64),
            Whereabouts::Transit => Some(20_000 + (t_ms / 180_000) % 7),
        }
    }

    /// Produces the scan result at `t_ms` for a user at `whereabouts`.
    /// Returns `None` when the phone is off (no scan happens at all).
    pub fn scan(&mut self, world: &World, whereabouts: Whereabouts, t_ms: u64) -> Option<RawScan> {
        let mut readings = Vec::new();
        match whereabouts {
            Whereabouts::PhoneOff => return None,
            Whereabouts::At(place) => {
                for ap in &world.place(place).aps {
                    if self.rng.chance(ap.detect_prob) {
                        readings.push(ApReading {
                            bssid: ap.bssid,
                            rssi_dbm: self.rng.gauss(ap.base_rssi_dbm, self.rssi_noise_std),
                        });
                    }
                }
                // Occasionally a distant street AP bleeds in.
                if !world.street_aps().is_empty() && self.rng.chance(0.2) {
                    let ap = *self.rng.pick(world.street_aps());
                    readings.push(ApReading {
                        bssid: ap.bssid,
                        rssi_dbm: self.rng.gauss(-92.0, 2.0),
                    });
                }
            }
            Whereabouts::Transit => {
                // A changing handful of weak street APs: dissimilar from
                // scan to scan, so transit never clusters.
                let n = self.rng.range_u64(0, 5) as usize;
                for _ in 0..n {
                    if world.street_aps().is_empty() {
                        break;
                    }
                    let ap = *self.rng.pick(world.street_aps());
                    readings.push(ApReading {
                        bssid: ap.bssid,
                        rssi_dbm: self.rng.gauss(ap.base_rssi_dbm, 4.0),
                    });
                }
            }
        }
        // Ad-hoc / tethering interfaces show up now and then; scan.js is
        // responsible for filtering them out.
        if self.rng.chance(0.05) {
            readings.push(ApReading {
                bssid: World::local_admin_bssid(self.rng.range_u64(0, 1 << 16)),
                rssi_dbm: self.rng.gauss(-70.0, 5.0),
            });
        }
        Some(RawScan {
            timestamp_ms: t_ms,
            readings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_cluster::cosine;

    fn setup() -> (World, ScanSynthesizer) {
        let mut rng = SimRng::seed_from_u64(5);
        let mut world = World::new(60, &mut rng);
        world.add_place("home", 8, &mut rng);
        world.add_place("office", 10, &mut rng);
        let synth = ScanSynthesizer::new(rng.fork(1));
        (world, synth)
    }

    #[test]
    fn phone_off_yields_no_scan() {
        let (world, mut synth) = setup();
        assert!(synth.scan(&world, Whereabouts::PhoneOff, 0).is_none());
        // Nothing was drawn: the next scan is a fresh synthesizer's first.
        let (_, mut fresh) = setup();
        assert_eq!(
            synth.scan(&world, Whereabouts::Transit, 0),
            fresh.scan(&world, Whereabouts::Transit, 0)
        );
    }

    #[test]
    fn same_place_scans_are_similar() {
        let (world, mut synth) = setup();
        let a = synth
            .scan(&world, Whereabouts::At(crate::world::PlaceId(0)), 0)
            .unwrap()
            .sanitize();
        let b = synth
            .scan(&world, Whereabouts::At(crate::world::PlaceId(0)), 60_000)
            .unwrap()
            .sanitize();
        assert!(
            cosine(&a, &b) > 0.8,
            "same place similarity {}",
            cosine(&a, &b)
        );
    }

    #[test]
    fn different_places_are_dissimilar() {
        let (world, mut synth) = setup();
        let a = synth
            .scan(&world, Whereabouts::At(crate::world::PlaceId(0)), 0)
            .unwrap()
            .sanitize();
        let b = synth
            .scan(&world, Whereabouts::At(crate::world::PlaceId(1)), 60_000)
            .unwrap()
            .sanitize();
        assert!(
            cosine(&a, &b) < 0.2,
            "cross-place similarity {}",
            cosine(&a, &b)
        );
    }

    #[test]
    fn transit_scans_rarely_resemble_places() {
        let (world, mut synth) = setup();
        let home = synth
            .scan(&world, Whereabouts::At(crate::world::PlaceId(0)), 0)
            .unwrap()
            .sanitize();
        for t in 0..20 {
            let s = synth
                .scan(&world, Whereabouts::Transit, t * 60_000)
                .unwrap()
                .sanitize();
            assert!(cosine(&home, &s) < 0.5);
        }
    }

    #[test]
    fn locally_administered_aps_appear_sometimes() {
        let (world, mut synth) = setup();
        let mut raw_with_local = 0;
        for t in 0..200 {
            let raw = synth
                .scan(&world, Whereabouts::At(crate::world::PlaceId(0)), t)
                .unwrap();
            if raw
                .readings
                .iter()
                .any(|r| r.bssid.is_locally_administered())
            {
                raw_with_local += 1;
                // The sanitizer must strip them.
                let clean = raw.sanitize();
                assert!(clean
                    .aps()
                    .iter()
                    .all(|&(b, _)| !b.is_locally_administered()));
            }
        }
        assert!(raw_with_local > 2, "expected some ad-hoc interference");
    }

    #[test]
    fn accel_reflects_activity() {
        let (_world, mut synth) = setup();
        assert_eq!(synth.accel(Whereabouts::PhoneOff), None);
        let still: Vec<f64> = (0..200)
            .filter_map(|_| synth.accel(Whereabouts::At(crate::world::PlaceId(0))))
            .map(|(x, y, z)| (x * x + y * y + z * z).sqrt())
            .collect();
        let moving: Vec<f64> = (0..200)
            .filter_map(|_| synth.accel(Whereabouts::Transit))
            .map(|(x, y, z)| (x * x + y * y + z * z).sqrt())
            .collect();
        let var = |v: &[f64]| {
            let m = v.iter().sum::<f64>() / v.len() as f64;
            v.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / v.len() as f64
        };
        assert!(
            var(&moving) > var(&still) * 20.0,
            "walking jitter dominates: {} vs {}",
            var(&moving),
            var(&still)
        );
    }

    #[test]
    fn cell_ids_are_stable_per_place_and_change_in_transit() {
        let (_world, mut synth) = setup();
        let home = crate::world::PlaceId(0);
        assert_eq!(
            synth.cell_id(Whereabouts::At(home), 0),
            synth.cell_id(Whereabouts::At(home), 3_600_000)
        );
        let a = synth.cell_id(Whereabouts::Transit, 0);
        let b = synth.cell_id(Whereabouts::Transit, 200_000);
        assert_ne!(a, b, "handovers while moving");
        assert_eq!(synth.cell_id(Whereabouts::PhoneOff, 0), None);
    }

    #[test]
    fn deterministic_per_seed() {
        let (world, mut a) = setup();
        let (_, mut b) = setup();
        for t in 0..10 {
            assert_eq!(
                a.scan(&world, Whereabouts::Transit, t),
                b.scan(&world, Whereabouts::Transit, t)
            );
        }
    }
}
