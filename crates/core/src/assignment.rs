//! Automated device assignment — the paper's second future-work item
//! (§6: "we would also like to automate the assignment process between
//! devices and researchers based on information such as device
//! capabilities and geographical location").
//!
//! The administrator (§3.1's broker between resource providers and
//! consumers) keeps a registry of device capability profiles. A
//! researcher files a [`DeviceRequest`] — how many devices, which
//! sensors they must expose, optionally a home region — and the admin
//! grants matching, still-available devices by wiring the roster
//! associations, keeping the connections double-blind as before.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use pogo_net::{Jid, Switchboard};

/// A latitude/longitude bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GeoRect {
    /// Southern edge.
    pub lat_min: f64,
    /// Northern edge.
    pub lat_max: f64,
    /// Western edge.
    pub lon_min: f64,
    /// Eastern edge.
    pub lon_max: f64,
}

impl GeoRect {
    /// True if `(lat, lon)` lies inside (inclusive).
    pub fn contains(&self, lat: f64, lon: f64) -> bool {
        (self.lat_min..=self.lat_max).contains(&lat) && (self.lon_min..=self.lon_max).contains(&lon)
    }
}

/// What a device offers (self-reported at registration time).
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    /// The device's address.
    pub jid: Jid,
    /// Sensor channels this hardware exposes *and* the owner shares
    /// (a vetoed channel is simply not advertised).
    pub sensors: BTreeSet<String>,
    /// Rough home location, if the owner shares it.
    pub home: Option<(f64, f64)>,
    /// Maximum concurrent experiments the owner accepts.
    pub max_experiments: usize,
}

impl DeviceProfile {
    /// A profile advertising the standard sensors, unlimited-ish.
    pub fn new(jid: Jid, sensors: impl IntoIterator<Item = &'static str>) -> Self {
        DeviceProfile {
            jid,
            sensors: sensors.into_iter().map(str::to_owned).collect(),
            home: None,
            max_experiments: 4,
        }
    }
}

/// A researcher's request for devices.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DeviceRequest {
    /// How many devices are wanted.
    pub count: usize,
    /// Sensor channels every granted device must offer.
    pub required_sensors: Vec<String>,
    /// Restrict to devices whose home lies in this region.
    pub region: Option<GeoRect>,
}

/// Why a request could not be (fully) satisfied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AssignError {
    /// Devices that did match and were available.
    pub available: usize,
    /// Devices requested.
    pub requested: usize,
}

impl fmt::Display for AssignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "only {} of {} requested devices match and are available",
            self.available, self.requested
        )
    }
}

impl std::error::Error for AssignError {}

struct Inner {
    server: Switchboard,
    profiles: BTreeMap<Jid, DeviceProfile>,
    /// device → researchers currently holding it.
    assignments: BTreeMap<Jid, BTreeSet<Jid>>,
}

/// The testbed administrator's matchmaking service. Cheap to clone.
#[derive(Clone)]
pub struct Admin {
    inner: Rc<RefCell<Inner>>,
}

impl fmt::Debug for Admin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let inner = self.inner.borrow();
        f.debug_struct("Admin")
            .field("devices", &inner.profiles.len())
            .finish()
    }
}

impl Admin {
    /// Creates an admin managing rosters on `server`.
    pub fn new(server: &Switchboard) -> Self {
        Admin {
            inner: Rc::new(RefCell::new(Inner {
                server: server.clone(),
                profiles: BTreeMap::new(),
                assignments: BTreeMap::new(),
            })),
        }
    }

    /// Registers (or updates) a device's capability profile. The account
    /// is created on the server if needed.
    pub fn register_device(&self, profile: DeviceProfile) {
        let mut inner = self.inner.borrow_mut();
        inner.server.register(&profile.jid);
        inner.profiles.insert(profile.jid.clone(), profile);
    }

    /// Grants `request.count` matching devices to `researcher`, wiring
    /// the rosters. All-or-nothing.
    ///
    /// # Errors
    ///
    /// Returns [`AssignError`] (and grants nothing) if fewer matching
    /// devices are available than requested.
    pub fn assign(
        &self,
        researcher: &Jid,
        request: &DeviceRequest,
    ) -> Result<Vec<Jid>, AssignError> {
        let granted: Vec<Jid> = {
            let inner = self.inner.borrow();
            inner
                .profiles
                .values()
                .filter(|p| Self::matches(p, request))
                .filter(|p| {
                    let holders = inner
                        .assignments
                        .get(&p.jid)
                        .map(BTreeSet::len)
                        .unwrap_or(0);
                    holders < p.max_experiments
                        && !inner
                            .assignments
                            .get(&p.jid)
                            .is_some_and(|h| h.contains(researcher))
                })
                .take(request.count)
                .map(|p| p.jid.clone())
                .collect()
        };
        if granted.len() < request.count {
            return Err(AssignError {
                available: granted.len(),
                requested: request.count,
            });
        }
        let server = self.inner.borrow().server.clone();
        server.register(researcher);
        for jid in &granted {
            server
                .befriend(jid, researcher)
                .expect("both registered by the admin");
            self.inner
                .borrow_mut()
                .assignments
                .entry(jid.clone())
                .or_default()
                .insert(researcher.clone());
        }
        Ok(granted)
    }

    /// Returns a researcher's devices to the pool (end of experiment).
    pub fn release(&self, researcher: &Jid, devices: &[Jid]) {
        let server = self.inner.borrow().server.clone();
        for jid in devices {
            server.unfriend(jid, researcher);
            if let Some(holders) = self.inner.borrow_mut().assignments.get_mut(jid) {
                holders.remove(researcher);
            }
        }
    }

    fn matches(profile: &DeviceProfile, request: &DeviceRequest) -> bool {
        if !request
            .required_sensors
            .iter()
            .all(|s| profile.sensors.contains(s))
        {
            return false;
        }
        match (&request.region, profile.home) {
            (Some(rect), Some((lat, lon))) => rect.contains(lat, lon),
            (Some(_), None) => false, // owner does not share location
            (None, _) => true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pogo_sim::Sim;

    fn jid(s: &str) -> Jid {
        Jid::new(s).unwrap()
    }

    fn setup() -> (Switchboard, Admin) {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let admin = Admin::new(&server);
        for i in 0..5 {
            let mut p = DeviceProfile::new(jid(&format!("d{i}@pogo")), ["battery", "wifi-scan"]);
            p.home = Some((52.0, 4.3 + i as f64 * 0.1));
            if i >= 3 {
                p.sensors.insert("location".to_owned());
            }
            admin.register_device(p);
        }
        (server, admin)
    }

    #[test]
    fn assigns_matching_devices_and_wires_rosters() {
        let (server, admin) = setup();
        let researcher = jid("alice@tudelft");
        let granted = admin
            .assign(
                &researcher,
                &DeviceRequest {
                    count: 2,
                    required_sensors: vec!["location".into()],
                    region: None,
                },
            )
            .unwrap();
        assert_eq!(granted.len(), 2);
        for d in &granted {
            assert!(
                server.roster(d).contains(&researcher),
                "roster wired for {d}"
            );
        }
        // Only d3 and d4 advertise location.
        assert!(granted
            .iter()
            .all(|d| { d.as_str() == "d3@pogo" || d.as_str() == "d4@pogo" }));
    }

    #[test]
    fn region_filter_applies() {
        let (_server, admin) = setup();
        let granted = admin
            .assign(
                &jid("bob@tudelft"),
                &DeviceRequest {
                    count: 2,
                    required_sensors: vec![],
                    region: Some(GeoRect {
                        lat_min: 51.0,
                        lat_max: 53.0,
                        lon_min: 4.25,
                        lon_max: 4.45,
                    }),
                },
            )
            .unwrap();
        // Homes at lon 4.3 and 4.4 fall inside.
        assert_eq!(granted.len(), 2);
        assert!(granted
            .iter()
            .all(|d| d.as_str() == "d0@pogo" || d.as_str() == "d1@pogo"));
    }

    #[test]
    fn insufficient_pool_is_all_or_nothing() {
        let (server, admin) = setup();
        let err = admin
            .assign(
                &jid("carol@tudelft"),
                &DeviceRequest {
                    count: 4,
                    required_sensors: vec!["location".into()],
                    region: None,
                },
            )
            .unwrap_err();
        assert_eq!(err.available, 2);
        assert_eq!(err.requested, 4);
        // Nothing was granted.
        assert!(server.roster(&jid("carol@tudelft")).is_empty());
    }

    #[test]
    fn devices_are_shared_up_to_their_limit() {
        let (_server, admin) = setup();
        // Each device accepts 4 experiments; 4 researchers can hold d0.
        for i in 0..4 {
            let granted = admin
                .assign(
                    &jid(&format!("r{i}@lab")),
                    &DeviceRequest {
                        count: 5,
                        required_sensors: vec![],
                        region: None,
                    },
                )
                .unwrap();
            assert_eq!(granted.len(), 5);
        }
        // The fifth researcher finds the pool saturated.
        let err = admin
            .assign(
                &jid("r4@lab"),
                &DeviceRequest {
                    count: 1,
                    required_sensors: vec![],
                    region: None,
                },
            )
            .unwrap_err();
        assert_eq!(err.available, 0);
    }

    #[test]
    fn release_returns_capacity() {
        let (server, admin) = setup();
        let r = jid("alice@tudelft");
        let granted = admin
            .assign(
                &r,
                &DeviceRequest {
                    count: 5,
                    ..Default::default()
                },
            )
            .unwrap();
        admin.release(&r, &granted);
        assert!(server.roster(&granted[0]).is_empty());
        // Can be granted again to the same researcher.
        let again = admin
            .assign(
                &r,
                &DeviceRequest {
                    count: 5,
                    ..Default::default()
                },
            )
            .unwrap();
        assert_eq!(again.len(), 5);
    }

    #[test]
    fn region_requires_shared_location() {
        let sim = Sim::new();
        let server = Switchboard::new(&sim);
        let admin = Admin::new(&server);
        // This owner does not share their home location.
        admin.register_device(DeviceProfile::new(jid("private@pogo"), ["battery"]));
        let err = admin
            .assign(
                &jid("r@lab"),
                &DeviceRequest {
                    count: 1,
                    required_sensors: vec![],
                    region: Some(GeoRect {
                        lat_min: -90.0,
                        lat_max: 90.0,
                        lon_min: -180.0,
                        lon_max: 180.0,
                    }),
                },
            )
            .unwrap_err();
        assert_eq!(err.available, 0, "no shared location, no region match");
    }
}
