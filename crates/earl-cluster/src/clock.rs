//! Simulated time.
//!
//! All "processing time" measurements in the reproduction are expressed in
//! simulated microseconds accumulated on a [`SimClock`].  The clock only ever
//! moves forward and is advanced explicitly by the cost-charging code in
//! [`crate::cluster::Cluster`], which keeps every experiment deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

/// A span of simulated time, stored in microseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimDuration {
    micros: u64,
}

impl SimDuration {
    /// A zero-length duration.
    pub const ZERO: SimDuration = SimDuration { micros: 0 };

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Self { micros }
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Self {
            micros: millis * 1_000,
        }
    }

    /// Creates a duration from whole seconds.
    pub const fn from_secs(secs: u64) -> Self {
        Self {
            micros: secs * 1_000_000,
        }
    }

    /// Creates a duration from fractional seconds, saturating at zero for
    /// negative or non-finite inputs.
    pub fn from_secs_f64(secs: f64) -> Self {
        if !secs.is_finite() || secs <= 0.0 {
            return Self::ZERO;
        }
        Self {
            micros: (secs * 1_000_000.0).round() as u64,
        }
    }

    /// The duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// The duration in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.micros as f64 / 1_000_000.0
    }

    /// Saturating addition.
    pub fn saturating_add(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_add(rhs.micros),
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration {
            micros: self.micros.saturating_sub(rhs.micros),
        }
    }

    /// Multiplies the duration by a non-negative scalar.
    pub fn mul_f64(self, factor: f64) -> SimDuration {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        self.saturating_add(rhs)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        self.saturating_sub(rhs)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |acc, d| acc + d)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let secs = self.as_secs_f64();
        if secs >= 1.0 {
            write!(f, "{secs:.3}s")
        } else if self.micros >= 1_000 {
            write!(f, "{:.3}ms", self.micros as f64 / 1_000.0)
        } else {
            write!(f, "{}us", self.micros)
        }
    }
}

/// A point in simulated time (microseconds since cluster start).
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct SimInstant {
    micros: u64,
}

impl SimInstant {
    /// The cluster epoch (t = 0).
    pub const EPOCH: SimInstant = SimInstant { micros: 0 };

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.micros
    }

    /// The duration elapsed since an earlier instant (zero if `earlier` is later).
    pub fn duration_since(self, earlier: SimInstant) -> SimDuration {
        SimDuration::from_micros(self.micros.saturating_sub(earlier.micros))
    }
}

impl Add<SimDuration> for SimInstant {
    type Output = SimInstant;
    fn add(self, rhs: SimDuration) -> SimInstant {
        SimInstant {
            micros: self.micros.saturating_add(rhs.as_micros()),
        }
    }
}

/// A monotonically advancing simulated clock.
///
/// The clock is shared (behind a mutex) between the cluster facade and any
/// component that needs to read the current simulated time; only the cluster
/// advances it.
#[derive(Debug, Default)]
pub struct SimClock {
    now: Mutex<SimInstant>,
}

impl SimClock {
    /// Creates a clock positioned at the epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimInstant {
        *self.now.lock()
    }

    /// Advances the clock by `d` and returns the new instant.
    pub fn advance(&self, d: SimDuration) -> SimInstant {
        let mut now = self.now.lock();
        *now = *now + d;
        *now
    }

    /// Total elapsed simulated time since the epoch.
    pub fn elapsed(&self) -> SimDuration {
        self.now().duration_since(SimInstant::EPOCH)
    }

    /// Resets the clock to the epoch (used between experiment repetitions).
    pub fn reset(&self) {
        *self.now.lock() = SimInstant::EPOCH;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_conversions_round_trip() {
        assert_eq!(SimDuration::from_millis(3).as_micros(), 3_000);
        assert_eq!(SimDuration::from_secs(2).as_micros(), 2_000_000);
        let d = SimDuration::from_secs_f64(1.5);
        assert_eq!(d.as_micros(), 1_500_000);
        assert!((d.as_secs_f64() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn from_secs_f64_rejects_garbage() {
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::ZERO);
    }

    #[test]
    fn duration_arithmetic() {
        let a = SimDuration::from_micros(10);
        let b = SimDuration::from_micros(4);
        assert_eq!((a + b).as_micros(), 14);
        assert_eq!((a - b).as_micros(), 6);
        assert_eq!((b - a).as_micros(), 0, "subtraction saturates");
        assert_eq!(a.mul_f64(2.5).as_micros(), 25);
        let total: SimDuration = vec![a, b, a].into_iter().sum();
        assert_eq!(total.as_micros(), 24);
    }

    #[test]
    fn clock_is_monotonic() {
        let clock = SimClock::new();
        assert_eq!(clock.now(), SimInstant::EPOCH);
        let t1 = clock.advance(SimDuration::from_micros(100));
        assert_eq!(t1.as_micros(), 100);
        let t2 = clock.advance(SimDuration::from_micros(400));
        assert_eq!(t2.as_micros(), 500);
        assert_eq!(clock.elapsed().as_micros(), 500);
        clock.reset();
        assert_eq!(clock.now(), SimInstant::EPOCH);
    }

    #[test]
    fn instant_duration_since() {
        let a = SimInstant::EPOCH + SimDuration::from_micros(50);
        let b = SimInstant::EPOCH + SimDuration::from_micros(80);
        assert_eq!(b.duration_since(a).as_micros(), 30);
        assert_eq!(a.duration_since(b).as_micros(), 0);
    }

    #[test]
    fn display_formats_reasonably() {
        assert_eq!(SimDuration::from_micros(12).to_string(), "12us");
        assert_eq!(SimDuration::from_micros(1_500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_secs(2).to_string(), "2.000s");
    }
}
