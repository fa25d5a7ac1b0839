//! The geolocation service: the Google-geolocation-API substitute.
//!
//! §4.1: "The collect.js script running on the collector node collects
//! these cluster characterizations and uses Google's geolocation service
//! to convert them into a longitude, latitude pair." Here the lookup is a
//! signal-weighted centroid over the synthetic world's AP database.

use pogo_cluster::Scan;

use crate::world::World;

/// A geographic coordinate.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GeoPoint {
    /// Latitude in degrees.
    pub lat: f64,
    /// Longitude in degrees.
    pub lon: f64,
}

/// Resolves scans to coordinates using the world's AP database.
#[derive(Debug, Clone)]
pub struct GeolocationService {
    world: World,
    lookups: std::rc::Rc<std::cell::Cell<u64>>,
}

impl GeolocationService {
    /// Creates a service backed by `world`'s AP database.
    pub fn new(world: World) -> Self {
        GeolocationService {
            world,
            lookups: std::rc::Rc::new(std::cell::Cell::new(0)),
        }
    }

    /// Number of lookups served (the experiment reports API usage).
    pub fn lookups(&self) -> u64 {
        self.lookups.get()
    }

    /// Locates a scan: the strength-weighted centroid of its resolvable
    /// APs, or `None` if no AP is in the database.
    pub fn locate(&self, scan: &Scan) -> Option<GeoPoint> {
        self.lookups.set(self.lookups.get() + 1);
        let mut lat_sum = 0.0;
        let mut lon_sum = 0.0;
        let mut weight_sum = 0.0;
        for &(bssid, strength) in scan.aps() {
            if let Some((lat, lon)) = self.world.ap_location(bssid) {
                let w = strength.max(0.01);
                lat_sum += lat * w;
                lon_sum += lon * w;
                weight_sum += w;
            }
        }
        if weight_sum == 0.0 {
            return None;
        }
        Some(GeoPoint {
            lat: lat_sum / weight_sum,
            lon: lon_sum / weight_sum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::PlaceId;
    use pogo_cluster::Scan;
    use pogo_sim::SimRng;

    fn setup() -> (World, GeolocationService) {
        let mut rng = SimRng::seed_from_u64(9);
        let mut world = World::new(10, &mut rng);
        world.add_place("home", 6, &mut rng);
        let service = GeolocationService::new(world.clone());
        (world, service)
    }

    #[test]
    fn locates_a_place_scan_at_the_place() {
        let (world, service) = setup();
        let place = world.place(PlaceId(0)).clone();
        let scan = Scan::from_parts(0, place.aps.iter().map(|a| (a.bssid, 0.7)).collect());
        let point = service.locate(&scan).expect("resolvable");
        assert!((point.lat - place.lat).abs() < 1e-9);
        assert!((point.lon - place.lon).abs() < 1e-9);
        assert_eq!(service.lookups(), 1);
    }

    #[test]
    fn unknown_aps_resolve_to_none() {
        let (_, service) = setup();
        let scan = Scan::from_parts(0, vec![(pogo_cluster::Bssid::new(0xABCDEF), 0.9)]);
        assert_eq!(service.locate(&scan), None);
    }

    #[test]
    fn empty_scan_resolves_to_none() {
        let (_, service) = setup();
        assert_eq!(service.locate(&Scan::default()), None);
    }
}
