//! Fault plans: what goes wrong, when, for how long.
//!
//! A [`FaultPlan`] is data, not behaviour — a sorted list of
//! [`Fault`]s that [`ChaosController`](crate::ChaosController) later
//! schedules onto a simulation. Plans come from two places: scripted
//! by hand (regression tests pinning one exact scenario) or generated
//! from a seed (soaks exploring a whole schedule family). Same seed,
//! same plan, always.

use std::collections::BTreeSet;

use pogo_sim::{DeviceId, SimDuration, SimRng, SimTime};

/// One class of injected failure.
///
/// Device-scoped kinds carry the dense [`DeviceId`] of the target —
/// the device's index in the testbed's creation order, not a JID — so
/// a plan can be generated before the testbed exists.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultKind {
    /// Bounce the switchboard: every session drops, the server accepts
    /// reconnections immediately.
    ServerRestart,
    /// Take the switchboard down hard: sessions drop and connection
    /// attempts fail with `ServerDown` until the window ends.
    ServerOutage {
        /// How long the switchboard refuses service.
        down_for: SimDuration,
    },
    /// Degrade one device's link: independent per-leg drop probability
    /// plus uniform jitter, for a bounded window.
    LinkDegrade {
        /// Dense id of the target in testbed creation order.
        device: DeviceId,
        /// Per-leg drop probability in `[0, 1]`.
        loss: f64,
        /// Upper bound on extra uniform per-leg delay.
        jitter: SimDuration,
        /// How long the degradation lasts.
        duration: SimDuration,
    },
    /// Reboot one device: volatile state dies, frozen state survives,
    /// the middleware boots again after its configured boot delay.
    Reboot {
        /// Dense id of the target in testbed creation order.
        device: DeviceId,
    },
    /// Hard power loss: the device is off (no middleware, no radio)
    /// until the window ends, then charges back up and boots.
    BatteryDeath {
        /// Dense id of the target in testbed creation order.
        device: DeviceId,
        /// How long the device stays dark.
        off_for: SimDuration,
    },
    /// Administrative roster churn: the device is unfriended from the
    /// collector (sends fail `NotAuthorized`) and re-befriended later.
    RosterChurn {
        /// Dense id of the target in testbed creation order.
        device: DeviceId,
        /// How long until the administrator re-adds the device.
        rejoin_after: SimDuration,
    },
    /// Bearer handover storm: the active interface flaps Wifi↔Cellular
    /// every `period`, `flaps` times, then the pre-storm bearer is
    /// restored. Each handover drops the session's in-flight envelopes
    /// (§4.6), hammering reconnect, tail-sync, and store-and-forward.
    BearerFlap {
        /// Dense id of the target in testbed creation order.
        device: DeviceId,
        /// Number of handovers in the storm.
        flaps: u32,
        /// Gap between consecutive handovers.
        period: SimDuration,
    },
    /// Clock skew: the device's real-time clock steps forward by `step`
    /// and gains `drift_ppm` local ms per 1e6 true ms until the window
    /// ends, when an NITZ-style fix snaps it back to truth. Timers are
    /// unaffected (elapsed-time semantics); sensor timestamps are not.
    ClockSkew {
        /// Dense id of the target in testbed creation order.
        device: DeviceId,
        /// Forward step applied at injection.
        step: SimDuration,
        /// Drift rate while the fault is active (may be negative).
        drift_ppm: i64,
        /// How long the clock stays skewed.
        duration: SimDuration,
    },
}

impl FaultKind {
    /// Stable class name, used for obs events and per-class counters.
    pub fn class(&self) -> &'static str {
        match self {
            FaultKind::ServerRestart => "server-restart",
            FaultKind::ServerOutage { .. } => "server-outage",
            FaultKind::LinkDegrade { .. } => "link-degrade",
            FaultKind::Reboot { .. } => "reboot",
            FaultKind::BatteryDeath { .. } => "battery-death",
            FaultKind::RosterChurn { .. } => "roster-churn",
            FaultKind::BearerFlap { .. } => "bearer-flap",
            FaultKind::ClockSkew { .. } => "clock-skew",
        }
    }

    /// How long the fault stays active before it heals. Instantaneous
    /// faults (restart, reboot) report zero.
    pub fn window(&self) -> SimDuration {
        match self {
            FaultKind::ServerRestart | FaultKind::Reboot { .. } => SimDuration::ZERO,
            FaultKind::ServerOutage { down_for } => *down_for,
            FaultKind::LinkDegrade { duration, .. } => *duration,
            FaultKind::BatteryDeath { off_for, .. } => *off_for,
            FaultKind::RosterChurn { rejoin_after, .. } => *rejoin_after,
            FaultKind::BearerFlap { flaps, period, .. } => period.mul(*flaps as u64),
            FaultKind::ClockSkew { duration, .. } => *duration,
        }
    }

    /// The targeted device id, if this is a device-scoped fault.
    pub fn device(&self) -> Option<DeviceId> {
        match self {
            FaultKind::ServerRestart | FaultKind::ServerOutage { .. } => None,
            FaultKind::LinkDegrade { device, .. }
            | FaultKind::Reboot { device }
            | FaultKind::BatteryDeath { device, .. }
            | FaultKind::RosterChurn { device, .. }
            | FaultKind::BearerFlap { device, .. }
            | FaultKind::ClockSkew { device, .. } => Some(*device),
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, PartialEq)]
pub struct Fault {
    /// When the fault is injected.
    pub at: SimTime,
    /// What happens.
    pub kind: FaultKind,
}

/// An ordered schedule of faults.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    faults: Vec<Fault>,
}

impl FaultPlan {
    /// A hand-written plan (sorted by injection time; ties keep their
    /// given order). Scripted plans carry seed 0 — per-link loss RNG
    /// still derives from it deterministically.
    pub fn scripted(mut faults: Vec<Fault>) -> Self {
        faults.sort_by_key(|f| f.at);
        FaultPlan { seed: 0, faults }
    }

    /// Starts building a seed-generated plan.
    pub fn seeded(seed: u64) -> FaultPlanBuilder {
        FaultPlanBuilder {
            seed,
            devices: 1,
            start: SimTime::ZERO + SimDuration::from_mins(30),
            end: SimTime::ZERO + SimDuration::from_hours(48),
            mean_gap: SimDuration::from_mins(20),
        }
    }

    /// The seed the plan was generated from (0 for scripted plans).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The faults, sorted by injection time.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// The distinct fault classes present in the plan.
    pub fn classes(&self) -> BTreeSet<&'static str> {
        self.faults.iter().map(|f| f.kind.class()).collect()
    }

    /// The plan plus `extra` hand-picked faults, re-sorted by injection
    /// time. Keeps the seed, so link-loss randomness is unchanged —
    /// used to guarantee specific fault classes appear in a seeded run.
    pub fn extended(mut self, extra: Vec<Fault>) -> Self {
        self.faults.extend(extra);
        self.faults.sort_by_key(|f| f.at);
        self
    }
}

/// Builder for seed-generated fault plans; see [`FaultPlan::seeded`].
#[derive(Debug, Clone)]
pub struct FaultPlanBuilder {
    seed: u64,
    devices: usize,
    start: SimTime,
    end: SimTime,
    mean_gap: SimDuration,
}

impl FaultPlanBuilder {
    /// Number of devices faults may target (testbed creation order).
    pub fn devices(mut self, n: usize) -> Self {
        self.devices = n;
        self
    }

    /// The window faults are injected in. Every fault's heal is clamped
    /// to `end`, so a run to `end` (plus settle time) sees the full
    /// inject/heal cycle of every fault.
    pub fn window(mut self, start: SimTime, end: SimTime) -> Self {
        self.start = start;
        self.end = end;
        self
    }

    /// Mean gap between consecutive faults (exponential inter-arrivals).
    pub fn mean_gap(mut self, gap: SimDuration) -> Self {
        self.mean_gap = gap;
        self
    }

    /// Generates the plan.
    ///
    /// # Panics
    ///
    /// Panics if the builder has zero devices or an empty time window.
    pub fn build(self) -> FaultPlan {
        assert!(self.devices > 0, "a fault plan needs at least one device");
        assert!(self.start < self.end, "empty fault window");
        let mut rng = SimRng::seed_from_u64(self.seed ^ 0x506f_676f_4661_756c); // "PogoFaul"
        let mut faults = Vec::new();
        let mut t = self.start;
        loop {
            let gap_ms = rng.exponential(self.mean_gap.as_millis() as f64).max(1.0);
            t += SimDuration::from_millis(gap_ms as u64);
            if t >= self.end {
                break;
            }
            let remaining = self.end - t;
            let kind = self.pick_kind(&mut rng, remaining);
            faults.push(Fault { at: t, kind });
        }
        FaultPlan {
            seed: self.seed,
            faults,
        }
    }

    /// Weighted kind choice: link trouble, reboots, and bearer handover
    /// storms dominate (they do in the field), server-wide and
    /// administrative faults are rarer; clock trouble is the background
    /// hum every deployment has.
    fn pick_kind(&self, rng: &mut SimRng, remaining: SimDuration) -> FaultKind {
        let device = DeviceId::new(rng.index(self.devices));
        let roll = rng.unit();
        if roll < 0.22 {
            FaultKind::Reboot { device }
        } else if roll < 0.45 {
            FaultKind::LinkDegrade {
                device,
                loss: rng.range_f64(0.05, 0.5),
                jitter: SimDuration::from_millis(rng.range_u64(10, 400)),
                duration: SimDuration::from_mins(rng.range_u64(1, 10)).min(remaining),
            }
        } else if roll < 0.57 {
            FaultKind::ServerRestart
        } else if roll < 0.67 {
            FaultKind::ServerOutage {
                down_for: SimDuration::from_secs(rng.range_u64(30, 300)).min(remaining),
            }
        } else if roll < 0.76 {
            FaultKind::BatteryDeath {
                device,
                // Up to 90 minutes dark: long deaths outlive the default
                // soak's one-hour message age, exercising the expiry path
                // (the one loss the invariants permit).
                off_for: SimDuration::from_mins(rng.range_u64(5, 90)).min(remaining),
            }
        } else if roll < 0.83 {
            FaultKind::RosterChurn {
                device,
                rejoin_after: SimDuration::from_mins(rng.range_u64(1, 15)).min(remaining),
            }
        } else if roll < 0.93 {
            let period = SimDuration::from_secs(rng.range_u64(5, 30)).min(remaining);
            let flaps = rng.range_u64(10, 40) as u32;
            // Clamp the whole storm inside the window so it heals by
            // `end`, like every other fault.
            let max_flaps = (remaining.as_millis() / period.as_millis().max(1)).max(1) as u32;
            FaultKind::BearerFlap {
                device,
                flaps: flaps.min(max_flaps),
                period,
            }
        } else {
            let sign = if rng.chance(0.5) { 1 } else { -1 };
            FaultKind::ClockSkew {
                device,
                step: SimDuration::from_secs(rng.range_u64(1, 120)),
                drift_ppm: sign * rng.range_u64(500, 20_000) as i64,
                duration: SimDuration::from_mins(rng.range_u64(2, 20)).min(remaining),
            }
        }
    }
}

/// Test hooks: nothing outside this crate's unit tests calls these.
#[cfg(test)]
impl FaultPlan {
    /// The instant by which every fault has been injected *and healed*.
    pub(crate) fn healed_by(&self) -> SimTime {
        self.faults
            .iter()
            .map(|f| f.at + f.kind.window())
            .max()
            .unwrap_or(SimTime::ZERO)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(seed: u64) -> FaultPlan {
        FaultPlan::seeded(seed)
            .devices(4)
            .window(
                SimTime::ZERO + SimDuration::from_mins(10),
                SimTime::ZERO + SimDuration::from_hours(24),
            )
            .mean_gap(SimDuration::from_mins(15))
            .build()
    }

    #[test]
    fn same_seed_same_plan() {
        assert_eq!(plan(7).faults(), plan(7).faults());
        assert_ne!(plan(7).faults(), plan(8).faults());
    }

    #[test]
    fn plan_is_sorted_and_heals_inside_window() {
        let p = plan(42);
        assert!(!p.is_empty());
        let end = SimTime::ZERO + SimDuration::from_hours(24);
        for pair in p.faults().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
        assert!(p.healed_by() <= end, "every fault heals by the window end");
    }

    #[test]
    fn seeded_plans_cover_many_classes() {
        let p = plan(1);
        assert!(
            p.classes().len() >= 6,
            "expected a varied plan, got {:?}",
            p.classes()
        );
        assert!(p.classes().contains("bearer-flap"), "{:?}", p.classes());
        assert!(p.classes().contains("clock-skew"), "{:?}", p.classes());
    }

    #[test]
    fn extended_plans_keep_seed_and_stay_sorted() {
        let p = plan(5).extended(vec![Fault {
            at: SimTime::ZERO + SimDuration::from_mins(11),
            kind: FaultKind::BearerFlap {
                device: DeviceId::new(0),
                flaps: 4,
                period: SimDuration::from_secs(10),
            },
        }]);
        assert_eq!(p.seed(), 5);
        assert_eq!(p.len(), plan(5).len() + 1);
        for pair in p.faults().windows(2) {
            assert!(pair[0].at <= pair[1].at);
        }
    }

    #[test]
    fn scripted_plans_sort_by_time() {
        let p = FaultPlan::scripted(vec![
            Fault {
                at: SimTime::from_millis(2_000),
                kind: FaultKind::ServerRestart,
            },
            Fault {
                at: SimTime::from_millis(1_000),
                kind: FaultKind::Reboot {
                    device: DeviceId::new(0),
                },
            },
        ]);
        assert_eq!(
            p.faults()[0].kind,
            FaultKind::Reboot {
                device: DeviceId::new(0),
            }
        );
        assert_eq!(p.seed(), 0);
    }
}
