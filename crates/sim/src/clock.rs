//! Per-process virtual clocks with category attribution.

use crate::breakdown::{Category, TimeBreakdown};
use crate::time::Time;

/// A simulated process's clock.
///
/// The clock only moves forward, and every advance is attributed to a
/// [`Category`], so `now() == breakdown().total() + base`, where `base` is
/// the instant the clock was last reset (used to exclude warmup iterations
/// from measured statistics, as the paper does).
#[derive(Clone, Debug, Default)]
pub struct Clock {
    now: Time,
    base: Time,
    breakdown: TimeBreakdown,
}

crate::impl_state!(Clock { state: now, base, breakdown; });

impl Clock {
    /// A clock at the virtual epoch.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instant.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Advance by `dt`, attributing the span to `cat`.
    #[inline]
    pub fn advance(&mut self, cat: Category, dt: Time) {
        self.now += dt;
        self.breakdown.charge(cat, dt);
    }

    /// Jump forward to `instant` (used for barrier releases), attributing
    /// the waited span to [`Category::Wait`]. No-op if `instant` is in the
    /// past — a process cannot travel backwards.
    pub fn wait_until(&mut self, instant: Time) {
        if instant > self.now {
            let dt = instant - self.now;
            self.advance(Category::Wait, dt);
        }
    }

    /// Elapsed time since the last [`Clock::reset_measurement`].
    #[inline]
    pub fn measured(&self) -> Time {
        self.now - self.base
    }

    /// Start a fresh measurement window at the current instant, clearing the
    /// breakdown. The absolute clock keeps running (processes stay mutually
    /// ordered); only attribution restarts.
    pub fn reset_measurement(&mut self) {
        self.base = self.now;
        self.breakdown = TimeBreakdown::ZERO;
    }

    /// Annotate `dt` of already-charged time as retransmission overhead
    /// (see [`TimeBreakdown::note_retrans`]). The clock does not move.
    #[inline]
    pub fn note_retrans(&mut self, dt: Time) {
        self.breakdown.note_retrans(dt);
    }

    /// Attribution of the current measurement window.
    #[inline]
    pub fn breakdown(&self) -> TimeBreakdown {
        self.breakdown
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advance_moves_clock_and_attributes() {
        let mut c = Clock::new();
        c.advance(Category::App, Time::from_us(10));
        c.advance(Category::Os, Time::from_us(5));
        assert_eq!(c.now(), Time::from_us(15));
        assert_eq!(c.breakdown().app, Time::from_us(10));
        assert_eq!(c.breakdown().os, Time::from_us(5));
        assert_eq!(c.measured(), c.breakdown().total());
    }

    #[test]
    fn wait_until_future_charges_wait() {
        let mut c = Clock::new();
        c.advance(Category::App, Time::from_us(3));
        c.wait_until(Time::from_us(10));
        assert_eq!(c.now(), Time::from_us(10));
        assert_eq!(c.breakdown().wait, Time::from_us(7));
    }

    #[test]
    fn wait_until_past_is_noop() {
        let mut c = Clock::new();
        c.advance(Category::App, Time::from_us(10));
        c.wait_until(Time::from_us(4));
        assert_eq!(c.now(), Time::from_us(10));
        assert_eq!(c.breakdown().wait, Time::ZERO);
    }

    #[test]
    fn note_retrans_annotates_without_advancing() {
        let mut c = Clock::new();
        c.advance(Category::Wait, Time::from_us(20));
        c.note_retrans(Time::from_us(8));
        assert_eq!(c.now(), Time::from_us(20), "annotation must not move time");
        assert_eq!(c.breakdown().retrans, Time::from_us(8));
        c.reset_measurement();
        assert_eq!(
            c.breakdown().retrans,
            Time::ZERO,
            "window reset clears annex"
        );
    }

    #[test]
    fn reset_measurement_keeps_absolute_time() {
        let mut c = Clock::new();
        c.advance(Category::App, Time::from_us(100));
        c.reset_measurement();
        assert_eq!(c.now(), Time::from_us(100));
        assert_eq!(c.measured(), Time::ZERO);
        assert_eq!(c.breakdown(), TimeBreakdown::ZERO);
        c.advance(Category::Wait, Time::from_us(7));
        assert_eq!(c.measured(), Time::from_us(7));
        assert_eq!(c.now(), Time::from_us(107));
    }
}
