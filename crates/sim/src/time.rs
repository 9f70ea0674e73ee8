//! Virtual time.
//!
//! All simulation time is kept in integer nanoseconds. Integer arithmetic
//! keeps runs exactly reproducible regardless of accumulation order, which
//! floating-point times would not.

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
///
/// `Time` is used both for instants (a process clock reading) and durations
/// (a cost charged by the cost model); the arithmetic is identical and the
/// simulation never needs a wall-clock epoch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

crate::impl_state!(Time(state));

impl Time {
    /// The zero instant / empty duration.
    pub const ZERO: Time = Time(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_us(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_ms(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Nanoseconds since the virtual epoch.
    #[inline]
    pub const fn as_ns(self) -> u64 {
        self.0
    }

    /// Value in microseconds (floating point, for reporting only).
    #[inline]
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Value in milliseconds (floating point, for reporting only).
    #[inline]
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Value in seconds (floating point, for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Saturating subtraction: `self - rhs`, or zero if `rhs` is later.
    #[inline]
    #[must_use]
    pub fn saturating_sub(self, rhs: Time) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }

    /// The later of two instants.
    #[inline]
    #[must_use]
    pub fn max(self, rhs: Time) -> Time {
        Time(self.0.max(rhs.0))
    }

    /// The earlier of two instants.
    #[inline]
    #[must_use]
    pub fn min(self, rhs: Time) -> Time {
        Time(self.0.min(rhs.0))
    }

    /// Scale a duration by an integer factor.
    #[inline]
    #[must_use]
    pub fn scale(self, factor: u64) -> Time {
        Time(self.0 * factor)
    }

    /// Scale a duration by a floating factor, rounding to the nearest ns.
    ///
    /// Used by the stress model; the rounding keeps the result integral so
    /// determinism is preserved (the factor itself is a pure function of
    /// integer state).
    #[inline]
    #[must_use]
    pub fn scale_f64(self, factor: f64) -> Time {
        debug_assert!(factor >= 0.0, "negative time scale");
        Time((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Time) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Time) {
        self.0 += rhs.0;
    }
}

impl Sub for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Time) -> Time {
        debug_assert!(self.0 >= rhs.0, "time underflow: {self:?} - {rhs:?}");
        Time(self.0 - rhs.0)
    }
}

impl SubAssign for Time {
    #[inline]
    fn sub_assign(&mut self, rhs: Time) {
        debug_assert!(self.0 >= rhs.0, "time underflow");
        self.0 -= rhs.0;
    }
}

impl Sum for Time {
    fn sum<I: Iterator<Item = Time>>(iter: I) -> Time {
        iter.fold(Time::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_round_trip() {
        assert_eq!(Time::from_us(160).as_ns(), 160_000);
        assert_eq!(Time::from_ms(3).as_ns(), 3_000_000);
        assert_eq!(Time::from_ns(7).as_ns(), 7);
    }

    #[test]
    fn arithmetic() {
        let a = Time::from_us(100);
        let b = Time::from_us(60);
        assert_eq!(a + b, Time::from_us(160));
        assert_eq!(a - b, Time::from_us(40));
        let mut c = a;
        c += b;
        assert_eq!(c, Time::from_us(160));
        c -= b;
        assert_eq!(c, a);
    }

    #[test]
    fn saturating_sub_clamps() {
        assert_eq!(
            Time::from_us(1).saturating_sub(Time::from_us(2)),
            Time::ZERO
        );
        assert_eq!(
            Time::from_us(5).saturating_sub(Time::from_us(2)),
            Time::from_us(3)
        );
    }

    #[test]
    fn min_max() {
        let a = Time::from_us(3);
        let b = Time::from_us(9);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn scaling() {
        assert_eq!(Time::from_us(12).scale(10), Time::from_us(120));
        assert_eq!(Time::from_us(10).scale_f64(2.5), Time::from_us(25));
        assert_eq!(Time::from_ns(3).scale_f64(1.0), Time::from_ns(3));
    }

    #[test]
    fn sum_of_times() {
        let total: Time = [Time::from_us(1), Time::from_us(2), Time::from_us(3)]
            .into_iter()
            .sum();
        assert_eq!(total, Time::from_us(6));
    }

    #[test]
    fn conversions_to_float() {
        let t = Time::from_us(1500);
        assert!((t.as_ms_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_us_f64() - 1500.0).abs() < 1e-9);
        assert!((t.as_secs_f64() - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", Time::from_ns(12)), "12ns");
        assert_eq!(format!("{}", Time::from_us(12)), "12.000us");
        assert_eq!(format!("{}", Time::from_ms(12)), "12.000ms");
        assert_eq!(format!("{}", Time::from_ms(1200)), "1.200s");
    }

    #[test]
    #[should_panic(expected = "time underflow")]
    #[cfg(debug_assertions)]
    fn sub_underflow_panics_in_debug() {
        let _ = Time::from_us(1) - Time::from_us(2);
    }
}
