//! The four-way execution time breakdown of the paper's Figure 3.
//!
//! Every nanosecond a simulated process's clock advances is attributed to
//! exactly one of four categories:
//!
//! * **app** — useful application computation,
//! * **os** — operating-system traps: `mprotect`, segv delivery, and the
//!   send/recv system-call overhead of the process's *own* communication,
//! * **sigio** — time spent servicing *incoming* requests from other
//!   processes (the paper's CVM delivers these via `SIGIO`),
//! * **wait** — time stalled on remote operations: mid-epoch fetch round
//!   trips and barrier release waiting.

use core::fmt;
use core::ops::{Add, AddAssign};

use crate::time::Time;

/// The attribution category for a span of virtual time.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum Category {
    /// Useful application computation.
    App,
    /// OS traps: `mprotect`, segv delivery, send/recv syscall overhead.
    Os,
    /// Handling incoming requests from other processes.
    Sigio,
    /// Stalled on remote fetches or barrier releases.
    Wait,
}

impl Category {
    /// All categories, in the order the paper's Figure 3 stacks them.
    pub const ALL: [Category; 4] = [Category::Sigio, Category::Wait, Category::Os, Category::App];

    /// Short lowercase label as used in the paper's figure legend.
    pub fn label(self) -> &'static str {
        match self {
            Category::App => "app",
            Category::Os => "os",
            Category::Sigio => "sigio",
            Category::Wait => "wait",
        }
    }
}

/// Accumulated time per category for one process (or aggregated over all).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct TimeBreakdown {
    /// Useful application computation.
    pub app: Time,
    /// OS trap overhead.
    pub os: Time,
    /// Incoming-request service time.
    pub sigio: Time,
    /// Remote-operation and barrier wait time.
    pub wait: Time,
    /// Annex, not a fifth category: of the time already attributed to the
    /// four buckets above, how much was induced by wire retransmissions
    /// (backoff waits on lossy channels). Excluded from [`Self::total`] and
    /// the figure output; it separates goodput from retransmit overhead
    /// without changing the paper's four-way split.
    pub retrans: Time,
}

crate::impl_state!(TimeBreakdown { state: app, os, sigio, wait, retrans; });

impl TimeBreakdown {
    /// A breakdown with all buckets empty.
    pub const ZERO: TimeBreakdown = TimeBreakdown {
        app: Time::ZERO,
        os: Time::ZERO,
        sigio: Time::ZERO,
        wait: Time::ZERO,
        retrans: Time::ZERO,
    };

    /// Note that `dt` of already-charged time was retransmission overhead.
    /// Pure annotation: the clock does not move and no bucket changes.
    #[inline]
    pub fn note_retrans(&mut self, dt: Time) {
        self.retrans += dt;
    }

    /// Add `dt` to the bucket for `cat`.
    #[inline]
    pub fn charge(&mut self, cat: Category, dt: Time) {
        match cat {
            Category::App => self.app += dt,
            Category::Os => self.os += dt,
            Category::Sigio => self.sigio += dt,
            Category::Wait => self.wait += dt,
        }
    }

    /// Read the bucket for `cat`.
    #[inline]
    pub fn get(&self, cat: Category) -> Time {
        match cat {
            Category::App => self.app,
            Category::Os => self.os,
            Category::Sigio => self.sigio,
            Category::Wait => self.wait,
        }
    }

    /// Sum of all buckets; equals the owning clock's total elapsed time.
    #[inline]
    pub fn total(&self) -> Time {
        self.app + self.os + self.sigio + self.wait
    }

    /// Fraction (0..=1) of total time in `cat`; 0 if the total is zero.
    pub fn fraction(&self, cat: Category) -> f64 {
        let total = self.total().as_ns();
        if total == 0 {
            0.0
        } else {
            self.get(cat).as_ns() as f64 / total as f64
        }
    }
}

impl Add for TimeBreakdown {
    type Output = TimeBreakdown;
    fn add(self, rhs: TimeBreakdown) -> TimeBreakdown {
        TimeBreakdown {
            app: self.app + rhs.app,
            os: self.os + rhs.os,
            sigio: self.sigio + rhs.sigio,
            wait: self.wait + rhs.wait,
            retrans: self.retrans + rhs.retrans,
        }
    }
}

impl AddAssign for TimeBreakdown {
    fn add_assign(&mut self, rhs: TimeBreakdown) {
        *self = *self + rhs;
    }
}

impl fmt::Display for TimeBreakdown {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "app {:.1}% | os {:.1}% | sigio {:.1}% | wait {:.1}%",
            100.0 * self.fraction(Category::App),
            100.0 * self.fraction(Category::Os),
            100.0 * self.fraction(Category::Sigio),
            100.0 * self.fraction(Category::Wait),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_and_get_each_category() {
        let mut b = TimeBreakdown::ZERO;
        for (i, cat) in Category::ALL.into_iter().enumerate() {
            b.charge(cat, Time::from_us((i + 1) as u64));
            assert_eq!(b.get(cat), Time::from_us((i + 1) as u64));
        }
        assert_eq!(b.total(), Time::from_us(1 + 2 + 3 + 4));
    }

    #[test]
    fn fractions_sum_to_one() {
        let mut b = TimeBreakdown::ZERO;
        b.charge(Category::App, Time::from_us(50));
        b.charge(Category::Os, Time::from_us(25));
        b.charge(Category::Wait, Time::from_us(25));
        let sum: f64 = Category::ALL.iter().map(|&c| b.fraction(c)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_total_has_zero_fractions() {
        let b = TimeBreakdown::ZERO;
        for cat in Category::ALL {
            assert_eq!(b.fraction(cat), 0.0);
        }
    }

    #[test]
    fn addition_merges_buckets() {
        let mut a = TimeBreakdown::ZERO;
        a.charge(Category::App, Time::from_us(10));
        let mut b = TimeBreakdown::ZERO;
        b.charge(Category::App, Time::from_us(5));
        b.charge(Category::Sigio, Time::from_us(2));
        let c = a + b;
        assert_eq!(c.app, Time::from_us(15));
        assert_eq!(c.sigio, Time::from_us(2));
        let mut d = a;
        d += b;
        assert_eq!(d, c);
    }

    #[test]
    fn retrans_annex_stays_out_of_total_and_display() {
        let mut b = TimeBreakdown::ZERO;
        b.charge(Category::Wait, Time::from_us(100));
        b.note_retrans(Time::from_us(40));
        assert_eq!(
            b.total(),
            Time::from_us(100),
            "annex must not inflate total"
        );
        assert_eq!(b.retrans, Time::from_us(40));
        assert_eq!(
            format!("{b}"),
            "app 0.0% | os 0.0% | sigio 0.0% | wait 100.0%"
        );
        let sum = b + b;
        assert_eq!(sum.retrans, Time::from_us(80), "annex merges additively");
    }

    #[test]
    fn labels_match_paper_legend() {
        assert_eq!(Category::App.label(), "app");
        assert_eq!(Category::Os.label(), "os");
        assert_eq!(Category::Sigio.label(), "sigio");
        assert_eq!(Category::Wait.label(), "wait");
    }
}
