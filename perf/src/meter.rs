//! What the pass executor tells its observer, and the timed run's
//! observer: a clock that cancels host clock-speed drift.

use std::time::Instant;

use crate::span::{SpanId, Tracer};

/// Host seconds one job took.
#[derive(Clone, Copy, Default, Debug)]
pub struct JobTime {
    /// As the clock read.
    pub raw_s: f64,
    /// Scaled to the reference clock speed (see [`Meter`]).
    pub norm_s: f64,
}

impl JobTime {
    /// The time between two readings of a running total.
    pub fn since(self, from: JobTime) -> JobTime {
        JobTime {
            raw_s: self.raw_s - from.raw_s,
            norm_s: self.norm_s - from.norm_s,
        }
    }
}

/// What the executor tells its observer. The timed run observes with a
/// [`Meter`] (no spans, library entry points), the traced run with a
/// [`SpanProbe`] (a span per call into a layer).
pub trait Probe {
    /// Drive runs step by step (so `core.step` spans exist) instead of
    /// through `run_app`/`checked_run`.
    const TRACED: bool;
    fn enter(&mut self, name: &'static str) -> Option<SpanId>;
    fn exit(&mut self, id: Option<SpanId>);
    /// Job `index` starts; every call until `exit_job` is its.
    fn enter_job(&mut self, index: usize) -> Option<SpanId>;
    fn exit_job(&mut self, id: Option<SpanId>) -> JobTime;
    /// A point between library calls inside one of the harness's own
    /// loops, where the meter may take a calibration slice.
    fn tick(&mut self);
}

/// Iterations of the calibration loop per slice (about 0.6 ms).
const CAL_ITERS: u64 = 250_000;
/// What one slice takes on the reference host in its usual clock state;
/// normalised times read as seconds on a host that runs a slice in exactly
/// this long.
pub const CAL_REF_S: f64 = 0.000_60;
/// Ticks closer together than this take no slice.
const TICK_EVERY_S: f64 = 0.02;
/// A slice this recent serves the next job boundary too.
const FRESH_S: f64 = 0.000_2;

/// One calibration slice: a dependent multiply chain, bound by the core
/// clock and nothing else. Independent of every crate under test, so a
/// change to the simulator cannot move it.
fn calibration_slice() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for i in 0..CAL_ITERS {
        x ^= x >> 30;
        x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9).wrapping_add(i);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64()
}

/// The timed run's probe: a clock that cancels host clock-speed drift.
///
/// The reference host's cores move between clock states tens of seconds
/// long and up to 25 % apart (turbo granted or not, by what the other
/// tenants do), which no amount of repetition inside one run averages
/// out. The meter therefore takes a short calibration slice at every job
/// boundary (and at ticks inside long jobs), and scales the host time of
/// each segment between two slices by `CAL_REF_S ÷ mean of the two`.
/// Slices are excluded from both the raw and the normalised totals.
pub struct Meter {
    /// End of the latest slice = start of the open segment.
    mark: Instant,
    /// Duration of the latest slice.
    slice_s: f64,
    raw_s: f64,
    norm_s: f64,
    slices: u64,
    slices_s: f64,
    /// Totals at `enter_job`.
    job_from: JobTime,
}

impl Default for Meter {
    fn default() -> Meter {
        Meter::new()
    }
}

impl Meter {
    pub fn new() -> Meter {
        let slice_s = calibration_slice();
        Meter {
            mark: Instant::now(),
            slice_s,
            raw_s: 0.0,
            norm_s: 0.0,
            slices: 1,
            slices_s: slice_s,
            job_from: JobTime::default(),
        }
    }

    /// Close the open segment with a fresh slice.
    pub fn mark(&mut self) {
        let raw = self.mark.elapsed().as_secs_f64();
        let slice_s = calibration_slice();
        self.raw_s += raw;
        self.norm_s += raw * CAL_REF_S / ((self.slice_s + slice_s) / 2.0);
        self.slice_s = slice_s;
        self.slices += 1;
        self.slices_s += slice_s;
        self.mark = Instant::now();
    }

    fn mark_if_older(&mut self, seconds: f64) {
        if self.mark.elapsed().as_secs_f64() >= seconds {
            self.mark();
        }
    }

    /// Run `f` as one segment between two slices and return its time.
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> (R, JobTime) {
        self.mark_if_older(FRESH_S);
        let from = self.totals();
        let r = f();
        self.mark();
        (r, self.totals().since(from))
    }

    /// Raw and normalised seconds of all closed segments.
    pub fn totals(&self) -> JobTime {
        JobTime {
            raw_s: self.raw_s,
            norm_s: self.norm_s,
        }
    }

    /// Mean slice duration so far, in seconds.
    pub fn mean_slice_s(&self) -> f64 {
        self.slices_s / self.slices as f64
    }
}

impl Probe for Meter {
    const TRACED: bool = false;
    #[inline]
    fn enter(&mut self, _name: &'static str) -> Option<SpanId> {
        None
    }
    #[inline]
    fn exit(&mut self, _id: Option<SpanId>) {}
    fn enter_job(&mut self, _index: usize) -> Option<SpanId> {
        // The slice the previous job ended on is still fresh.
        self.mark_if_older(FRESH_S);
        self.job_from = self.totals();
        None
    }
    fn exit_job(&mut self, _id: Option<SpanId>) -> JobTime {
        self.mark();
        self.totals().since(self.job_from)
    }
    fn tick(&mut self) {
        self.mark_if_older(TICK_EVERY_S);
    }
}

/// The traced run's probe: spans from a [`Tracer`], and a [`Meter`] whose
/// slices fall between the `job` spans, so each job's span times can be
/// scaled to the reference clock like the timed run's. Ticks are ignored:
/// a slice inside a job would sit inside its spans.
#[derive(Default)]
pub struct SpanProbe {
    pub tracer: Tracer,
    meter: Meter,
}

impl Probe for SpanProbe {
    const TRACED: bool = true;
    fn enter(&mut self, name: &'static str) -> Option<SpanId> {
        Some(self.tracer.enter(name))
    }
    fn exit(&mut self, id: Option<SpanId>) {
        self.tracer
            .exit(id.expect("a span probe always hands out span ids"));
    }
    fn enter_job(&mut self, index: usize) -> Option<SpanId> {
        self.meter.enter_job(index);
        Some(self.tracer.enter_job(index))
    }
    fn exit_job(&mut self, id: Option<SpanId>) -> JobTime {
        self.tracer
            .exit_job(id.expect("a span probe always hands out span ids"));
        self.meter.exit_job(None)
    }
    fn tick(&mut self) {}
}
