//! Places and their access-point populations.

use pogo_cluster::Bssid;
use pogo_sim::SimRng;

/// Index of a place within a [`World`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlaceId(pub usize);

/// One access point: identity, typical signal strength at the place it
/// serves, and how reliably a scan detects it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct ApSpec {
    /// The AP's MAC address.
    pub bssid: Bssid,
    /// Mean RSSI observed at the place, in dBm.
    pub base_rssi_dbm: f64,
    /// Probability a scan detects this AP.
    pub detect_prob: f64,
}

/// A named place with geographic coordinates and resident APs.
#[derive(Debug, Clone, PartialEq)]
pub struct Place {
    /// Human-readable label ("user3-home", "user3-site-7", …).
    pub name: String,
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
    /// Access points audible at this place.
    pub(crate) aps: Vec<ApSpec>,
}

/// The synthetic world: every place of every user plus the street-AP pool
/// observed in transit. Also serves as the AP-location database behind
/// the geolocation service.
#[derive(Debug, Clone, Default)]
pub struct World {
    places: Vec<Place>,
    street_aps: Vec<ApSpec>,
    street_center: (f64, f64),
}

/// BSSIDs are allocated from disjoint ranges so collisions are impossible.
const PLACE_AP_BASE: u64 = 0x00_10_00_00_00_00;
const STREET_AP_BASE: u64 = 0x00_20_00_00_00_00;
/// Locally administered BSSIDs (to be filtered by scan.js).
const LOCAL_AP_BASE: u64 = 0x02_00_00_00_00_00;

impl World {
    /// Creates an empty world with `street_pool` street APs scattered
    /// around the city center.
    pub fn new(street_pool: usize, rng: &mut SimRng) -> Self {
        let street_center = (52.0, 4.36); // Delft-ish
        let street_aps = (0..street_pool)
            .map(|i| ApSpec {
                bssid: Bssid::new(STREET_AP_BASE + i as u64),
                base_rssi_dbm: rng.range_f64(-95.0, -75.0),
                detect_prob: rng.range_f64(0.3, 0.7),
            })
            .collect();
        World {
            places: Vec::new(),
            street_aps,
            street_center,
        }
    }

    /// Adds a place with `n_aps` access points and returns its id.
    pub fn add_place(&mut self, name: &str, n_aps: usize, rng: &mut SimRng) -> PlaceId {
        let id = PlaceId(self.places.len());
        let lat = self.street_center.0 + rng.range_f64(-0.05, 0.05);
        let lon = self.street_center.1 + rng.range_f64(-0.08, 0.08);
        let aps = (0..n_aps)
            .map(|i| ApSpec {
                bssid: Bssid::new(PLACE_AP_BASE + (id.0 as u64) * 64 + i as u64),
                base_rssi_dbm: rng.range_f64(-85.0, -50.0),
                detect_prob: rng.range_f64(0.85, 0.99),
            })
            .collect();
        self.places.push(Place {
            name: name.to_owned(),
            lat,
            lon,
            aps,
        });
        id
    }

    /// The place for an id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn place(&self, id: PlaceId) -> &Place {
        &self.places[id.0]
    }

    /// The street-AP pool (transit noise).
    pub(crate) fn street_aps(&self) -> &[ApSpec] {
        &self.street_aps
    }

    /// A fresh locally administered BSSID (ad-hoc interference for the
    /// sanitizer to remove). Deterministic in `salt`.
    pub(crate) fn local_admin_bssid(salt: u64) -> Bssid {
        Bssid::new(LOCAL_AP_BASE + (salt % 0xFFFF))
    }

    /// Looks up where an AP lives: its place's coordinates, or the city
    /// center for street APs. `None` for unknown BSSIDs — the geolocation
    /// service cannot resolve them.
    pub(crate) fn ap_location(&self, bssid: Bssid) -> Option<(f64, f64)> {
        let raw = bssid.raw();
        if (PLACE_AP_BASE..STREET_AP_BASE).contains(&raw) {
            let place_idx = ((raw - PLACE_AP_BASE) / 64) as usize;
            return self.places.get(place_idx).map(|p| (p.lat, p.lon));
        }
        if raw >= STREET_AP_BASE && raw < STREET_AP_BASE + self.street_aps.len() as u64 {
            return Some(self.street_center);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SimRng {
        SimRng::seed_from_u64(1)
    }

    #[test]
    fn places_get_disjoint_ap_sets() {
        let mut rng = rng();
        let mut world = World::new(50, &mut rng);
        let home = world.add_place("home", 8, &mut rng);
        let office = world.add_place("office", 12, &mut rng);
        let home_set: Vec<Bssid> = world.place(home).aps.iter().map(|a| a.bssid).collect();
        let office_set: Vec<Bssid> = world.place(office).aps.iter().map(|a| a.bssid).collect();
        assert_eq!(home_set.len(), 8);
        assert_eq!(office_set.len(), 12);
        assert!(home_set.iter().all(|b| !office_set.contains(b)));
    }

    #[test]
    fn street_aps_do_not_collide_with_place_aps() {
        let mut rng = rng();
        let mut world = World::new(100, &mut rng);
        let p = world.add_place("p", 10, &mut rng);
        for ap in world.street_aps() {
            assert!(world.place(p).aps.iter().all(|a| a.bssid != ap.bssid));
        }
    }

    #[test]
    fn local_admin_bssids_are_flagged() {
        assert!(World::local_admin_bssid(7).is_locally_administered());
        let mut rng = rng();
        let mut world = World::new(10, &mut rng);
        let p = world.add_place("p", 10, &mut rng);
        for ap in &world.place(p).aps {
            assert!(!ap.bssid.is_locally_administered());
        }
    }

    #[test]
    fn ap_location_resolves_place_aps() {
        let mut rng = rng();
        let mut world = World::new(10, &mut rng);
        let p = world.add_place("p", 4, &mut rng);
        let place = world.place(p).clone();
        for ap in &place.aps {
            assert_eq!(world.ap_location(ap.bssid), Some((place.lat, place.lon)));
        }
        assert_eq!(world.ap_location(Bssid::new(0xdead)), None);
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let build = || {
            let mut rng = SimRng::seed_from_u64(42);
            let mut w = World::new(20, &mut rng);
            w.add_place("a", 6, &mut rng);
            w
        };
        let a = build();
        let b = build();
        assert_eq!(a.place(PlaceId(0)), b.place(PlaceId(0)));
    }
}
