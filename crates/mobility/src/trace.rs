//! Movement timelines and disruption schedules.

use crate::world::PlaceId;

/// Where a user is during a time segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Whereabouts {
    /// Dwelling at a place.
    At(PlaceId),
    /// Moving between places (street APs only).
    Transit,
    /// Phone switched off — no scans at all.
    PhoneOff,
}

/// A piecewise-constant movement timeline: each segment holds from its
/// start until the next segment's start.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MovementTrace {
    segments: Vec<(u64, Whereabouts)>,
    end_ms: u64,
}

impl MovementTrace {
    /// Creates an empty trace ending at `end_ms`.
    pub fn new(end_ms: u64) -> Self {
        MovementTrace {
            segments: Vec::new(),
            end_ms,
        }
    }

    /// Appends a segment starting at `start_ms`.
    ///
    /// # Panics
    ///
    /// Panics if `start_ms` is before the previous segment's start.
    pub fn push(&mut self, start_ms: u64, w: Whereabouts) {
        if let Some(&(prev, _)) = self.segments.last() {
            assert!(start_ms >= prev, "segments must be pushed in time order");
        }
        // Collapse zero-length or identical-adjacent segments.
        if let Some(last) = self.segments.last_mut() {
            if last.0 == start_ms {
                last.1 = w;
                return;
            }
            if last.1 == w {
                return;
            }
        }
        self.segments.push((start_ms, w));
    }

    /// Where the user is at `t_ms`. Before the first segment (or for an
    /// empty trace) the phone is off — sessions that start mid-window
    /// (user 2b's replacement phone) simply do not exist yet.
    pub fn whereabouts(&self, t_ms: u64) -> Whereabouts {
        match self.segments.partition_point(|&(s, _)| s <= t_ms) {
            0 => Whereabouts::PhoneOff,
            n => self.segments[n - 1].1,
        }
    }

    /// End of the trace in milliseconds.
    pub fn end_ms(&self) -> u64 {
        self.end_ms
    }

    /// The raw segments.
    pub fn segments(&self) -> &[(u64, Whereabouts)] {
        &self.segments
    }
}

/// Per-session failure/maintenance events, mirroring §5.3's observations.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DisruptionSchedule {
    /// Phone reboots / battery deaths: the middleware restarts and
    /// unfrozen script state is lost.
    pub reboots: Vec<u64>,
    /// Researcher redeployments: the script restarts (same state-loss
    /// effect; §5.3 "when we uploaded a new version of the script").
    pub script_updates: Vec<u64>,
    /// Windows with no cellular data (roaming off / 3G outage): `(from,
    /// to)` in ms.
    pub data_gaps: Vec<(u64, u64)>,
    /// User 7: no mobile Internet at all; only Wi-Fi at known places.
    pub wifi_only: bool,
}

impl DisruptionSchedule {
    /// True if cellular data is unavailable at `t_ms`.
    pub fn in_data_gap(&self, t_ms: u64) -> bool {
        self.data_gaps.iter().any(|&(a, b)| t_ms >= a && t_ms < b)
    }
}

/// Test hooks: nothing outside this crate's unit tests calls these.
#[cfg(test)]
impl MovementTrace {
    /// Number of dwell segments lasting at least `min_ms` — the expected
    /// number of "locations" (dwelling sessions) the clusterer should find.
    pub(crate) fn dwell_sessions(&self, min_ms: u64) -> usize {
        let mut count = 0;
        for (i, &(start, w)) in self.segments.iter().enumerate() {
            if let Whereabouts::At(_) = w {
                let end = self
                    .segments
                    .get(i + 1)
                    .map(|&(s, _)| s)
                    .unwrap_or(self.end_ms);
                if end.saturating_sub(start) >= min_ms {
                    count += 1;
                }
            }
        }
        count
    }

    /// Total milliseconds the phone is on (not [`Whereabouts::PhoneOff`]).
    pub(crate) fn powered_on_ms(&self) -> u64 {
        let mut total = 0;
        for (i, &(start, w)) in self.segments.iter().enumerate() {
            let end = self
                .segments
                .get(i + 1)
                .map(|&(s, _)| s)
                .unwrap_or(self.end_ms);
            if w != Whereabouts::PhoneOff {
                total += end.saturating_sub(start);
            }
        }
        total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HOUR: u64 = 3_600_000;

    #[test]
    fn whereabouts_lookup() {
        let mut t = MovementTrace::new(10 * HOUR);
        t.push(0, Whereabouts::At(PlaceId(0)));
        t.push(2 * HOUR, Whereabouts::Transit);
        t.push(3 * HOUR, Whereabouts::At(PlaceId(1)));
        assert_eq!(t.whereabouts(HOUR), Whereabouts::At(PlaceId(0)));
        assert_eq!(t.whereabouts(2 * HOUR), Whereabouts::Transit);
        assert_eq!(t.whereabouts(9 * HOUR), Whereabouts::At(PlaceId(1)));
    }

    #[test]
    fn before_first_segment_phone_is_off() {
        let mut t = MovementTrace::new(HOUR);
        t.push(HOUR / 2, Whereabouts::At(PlaceId(0)));
        assert_eq!(t.whereabouts(0), Whereabouts::PhoneOff);
    }

    #[test]
    fn adjacent_identical_segments_collapse() {
        let mut t = MovementTrace::new(HOUR);
        t.push(0, Whereabouts::Transit);
        t.push(10, Whereabouts::Transit);
        assert_eq!(t.segments().len(), 1);
    }

    #[test]
    fn same_start_overwrites() {
        let mut t = MovementTrace::new(HOUR);
        t.push(5, Whereabouts::Transit);
        t.push(5, Whereabouts::At(PlaceId(3)));
        assert_eq!(t.segments().len(), 1);
        assert_eq!(t.whereabouts(6), Whereabouts::At(PlaceId(3)));
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn out_of_order_push_panics() {
        let mut t = MovementTrace::new(HOUR);
        t.push(10, Whereabouts::Transit);
        t.push(5, Whereabouts::Transit);
    }

    #[test]
    fn dwell_sessions_counts_long_stays() {
        let mut t = MovementTrace::new(10 * HOUR);
        t.push(0, Whereabouts::At(PlaceId(0))); // 2h
        t.push(2 * HOUR, Whereabouts::Transit);
        t.push(3 * HOUR, Whereabouts::At(PlaceId(1))); // 30 min
        t.push(3 * HOUR + HOUR / 2, Whereabouts::Transit);
        t.push(4 * HOUR, Whereabouts::At(PlaceId(0))); // 6h (to end)
        assert_eq!(t.dwell_sessions(HOUR), 2);
        assert_eq!(t.dwell_sessions(HOUR / 4), 3);
    }

    #[test]
    fn powered_on_excludes_phone_off() {
        let mut t = MovementTrace::new(10 * HOUR);
        t.push(0, Whereabouts::At(PlaceId(0)));
        t.push(4 * HOUR, Whereabouts::PhoneOff);
        t.push(7 * HOUR, Whereabouts::At(PlaceId(0)));
        assert_eq!(t.powered_on_ms(), 7 * HOUR);
    }

    #[test]
    fn data_gap_membership() {
        let d = DisruptionSchedule {
            data_gaps: vec![(100, 200), (500, 600)],
            ..DisruptionSchedule::default()
        };
        assert!(!d.in_data_gap(99));
        assert!(d.in_data_gap(100));
        assert!(d.in_data_gap(199));
        assert!(!d.in_data_gap(200));
        assert!(d.in_data_gap(550));
    }
}
