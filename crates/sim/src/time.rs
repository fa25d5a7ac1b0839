//! Simulated time: instants and durations with millisecond resolution.
//!
//! Millisecond resolution is sufficient for everything the paper measures:
//! the finest-grained phenomenon is the 3G modem ramp-up (~2 s) and the
//! power-trace sampling used for Figure 3 (100 ms).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on the simulated clock, measured in milliseconds since the
/// start of the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `millis` milliseconds after the epoch.
    pub const fn from_millis(millis: u64) -> Self {
        SimTime(millis)
    }

    /// Milliseconds since the epoch.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (useful for energy integration).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// The duration elapsed since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`; simulated time never runs
    /// backwards, so this indicates a scheduling bug.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(earlier.0)
                .expect("simulated time ran backwards"),
        )
    }

    /// Like [`SimTime::duration_since`] but saturating to zero instead of
    /// panicking.
    pub fn saturating_duration_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `millis` milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis)
    }

    /// Creates a duration of `secs` seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000)
    }

    /// Creates a duration of `mins` minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000)
    }

    /// Creates a duration of `hours` hours.
    pub const fn from_hours(hours: u64) -> Self {
        SimDuration(hours * 3_600_000)
    }

    /// Creates a duration of `days` days.
    pub const fn from_days(days: u64) -> Self {
        SimDuration(days * 86_400_000)
    }

    /// Creates a duration from fractional seconds, rounding to the nearest
    /// millisecond. Negative inputs clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1_000.0).round() as u64)
    }

    /// The duration in milliseconds.
    pub const fn as_millis(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// True if the duration is zero.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }

    /// Multiplies the duration by an integer factor.
    pub const fn mul(self, factor: u64) -> SimDuration {
        SimDuration(self.0 * factor)
    }

    /// Returns the smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Returns the larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        self.duration_since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(
            self.0
                .checked_sub(rhs.0)
                .expect("duration subtraction underflow"),
        )
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        *self = *self - rhs;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0 % 1_000;
        let s = (self.0 / 1_000) % 60;
        let m = (self.0 / 60_000) % 60;
        let h = (self.0 / 3_600_000) % 24;
        let d = self.0 / 86_400_000;
        if d > 0 {
            write!(f, "{d}d {h:02}:{m:02}:{s:02}.{ms:03}")
        } else {
            write!(f, "{h:02}:{m:02}:{s:02}.{ms:03}")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 < 1_000 {
            write!(f, "{}ms", self.0)
        } else if self.0 < 60_000 {
            write!(f, "{:.1}s", self.as_secs_f64())
        } else if self.0 < 3_600_000 {
            write!(f, "{:.1}min", self.0 as f64 / 60_000.0)
        } else {
            write!(f, "{:.2}h", self.0 as f64 / 3_600_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_scale_correctly() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
        assert_eq!(SimDuration::from_mins(3).as_millis(), 180_000);
        assert_eq!(SimDuration::from_hours(1).as_millis(), 3_600_000);
        assert_eq!(SimDuration::from_days(1).as_millis(), 86_400_000);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::from_millis(500) + SimDuration::from_secs(1);
        assert_eq!(t.as_millis(), 1_500);
        assert_eq!(
            t.duration_since(SimTime::from_millis(500)),
            SimDuration::from_secs(1)
        );
        assert_eq!(t - SimTime::from_millis(500), SimDuration::from_secs(1));
    }

    #[test]
    #[should_panic(expected = "ran backwards")]
    fn duration_since_panics_on_backwards_time() {
        SimTime::from_millis(1).duration_since(SimTime::from_millis(2));
    }

    #[test]
    fn saturating_variants_clamp() {
        let a = SimTime::from_millis(5);
        let b = SimTime::from_millis(9);
        assert_eq!(a.saturating_duration_since(b), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_millis(3).saturating_sub(SimDuration::from_millis(10)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn from_secs_f64_rounds_and_clamps() {
        assert_eq!(SimDuration::from_secs_f64(1.2345).as_millis(), 1_235);
        assert_eq!(SimDuration::from_secs_f64(-4.0), SimDuration::ZERO);
    }

    #[test]
    fn display_formats() {
        assert_eq!(SimTime::from_millis(3_723_004).to_string(), "01:02:03.004");
        assert_eq!(
            (SimTime::ZERO + SimDuration::from_days(2)).to_string(),
            "2d 00:00:00.000"
        );
        assert_eq!(SimDuration::from_millis(250).to_string(), "250ms");
        assert_eq!(SimDuration::from_secs(90).to_string(), "1.5min");
    }

    #[test]
    fn min_max_mul() {
        let a = SimDuration::from_secs(1);
        let b = SimDuration::from_secs(2);
        assert_eq!(a.min(b), a);
        assert_eq!(a.max(b), b);
        assert_eq!(a.mul(3), SimDuration::from_secs(3));
    }
}
