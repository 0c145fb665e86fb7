//! Simulated time.
//!
//! All simulation components measure time in integer nanoseconds since the
//! start of the run. Using integers (rather than `f64` seconds) keeps event
//! ordering exact and replayable; using a dedicated newtype (rather than
//! `std::time::Instant`) keeps wall-clock time out of the simulation
//! entirely — a simulated week costs only as much real time as its events.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An absolute instant in simulated time (nanoseconds since run start).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time (nanoseconds).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;
pub const NANOS_PER_SEC: u64 = 1_000_000_000;
pub const SECS_PER_DAY: u64 = 86_400;

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Largest representable instant; useful as an "unscheduled" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    pub const fn from_nanos(n: u64) -> Self {
        SimTime(n)
    }

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * NANOS_PER_SEC)
    }

    /// Raw nanoseconds since run start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since run start, as a float (for reporting only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// The zero-based simulated day this instant falls on.
    pub const fn day(self) -> u64 {
        self.0 / (SECS_PER_DAY * NANOS_PER_SEC)
    }

    /// Time elapsed since `earlier`. Saturates at zero rather than
    /// panicking, since callers often race timers against completions.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating add; `SimTime::MAX` stays `MAX`.
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub const fn from_nanos(n: u64) -> Self {
        SimDuration(n)
    }

    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * NANOS_PER_MILLI)
    }

    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * NANOS_PER_SEC)
    }

    pub const fn from_mins(m: u64) -> Self {
        SimDuration(m * 60 * NANOS_PER_SEC)
    }

    pub const fn from_hours(h: u64) -> Self {
        SimDuration(h * 3_600 * NANOS_PER_SEC)
    }

    pub const fn from_days(d: u64) -> Self {
        SimDuration(d * SECS_PER_DAY * NANOS_PER_SEC)
    }

    /// Construct from float seconds, rounding to the nearest nanosecond.
    /// Negative or non-finite inputs clamp to zero (distributions can
    /// produce tiny negative samples through floating-point error).
    pub fn from_secs_f64(s: f64) -> Self {
        if !s.is_finite() || s <= 0.0 {
            return SimDuration(0);
        }
        SimDuration((s * NANOS_PER_SEC as f64).round() as u64)
    }

    /// Construct from float milliseconds (clamped like [`from_secs_f64`]).
    ///
    /// [`from_secs_f64`]: SimDuration::from_secs_f64
    pub fn from_millis_f64(ms: f64) -> Self {
        Self::from_secs_f64(ms / 1_000.0)
    }

    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }

    /// Integer multiple of this duration.
    pub const fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
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
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let n = self.0;
        if n >= NANOS_PER_SEC {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if n >= NANOS_PER_MILLI {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if n >= NANOS_PER_MICRO {
            write!(f, "{:.3}us", n as f64 / NANOS_PER_MICRO as f64)
        } else {
            write!(f, "{n}ns")
        }
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_accessors() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3 * NANOS_PER_SEC);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5 * NANOS_PER_MILLI);
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_hours(1), SimDuration::from_secs(3_600));
        assert_eq!(SimDuration::from_days(1), SimDuration::from_secs(86_400));
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 10 * NANOS_PER_SEC + 500 * NANOS_PER_MILLI);
        let d = t.since(SimTime::from_secs(10));
        assert_eq!(d, SimDuration::from_millis(500));
        // `since` saturates rather than panicking.
        assert_eq!(SimTime::ZERO.since(t), SimDuration::ZERO);
    }

    #[test]
    fn float_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_nanos(), 1_250_000_000);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-12);
        // Negative / NaN clamp to zero.
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
    }

    #[test]
    fn day_bucketing() {
        assert_eq!(SimTime::from_secs(0).day(), 0);
        assert_eq!(SimTime::from_secs(86_399).day(), 0);
        assert_eq!(SimTime::from_secs(86_400).day(), 1);
        assert_eq!((SimTime::ZERO + SimDuration::from_days(6)).day(), 6);
    }

    #[test]
    fn saturating_add_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimDuration::from_secs(2)), "2.000s");
        assert_eq!(format!("{}", SimDuration::from_millis(3)), "3.000ms");
        assert_eq!(format!("{}", SimDuration::from_nanos(42)), "42ns");
    }
}
