//! In-memory spans around calls into a layer's public API.
//!
//! The traced run records one span per call the benchmark makes into a
//! crate (`apps.build`, `core.step`, `snap.write`, ...), each parented to
//! the `job` span that caused it. Nothing is written until the run ends;
//! then the spans become the per-layer table (self time = a span's
//! duration minus the part its children cover) and a Chrome-trace JSON
//! that `chrome://tracing` and Perfetto open.
//!
//! All spans are recorded from this package, around public calls: spans
//! inside the crates are a later issue. The timed run never constructs a
//! [`Tracer`].

use std::time::Instant;

use crate::json::Value;

/// Index of a span in its [`Tracer`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(usize);

/// One recorded span. `job` is the index of the job that caused it in the
/// workload's job list, `None` for spans outside any job (probes, the
/// pass itself).
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub job: Option<usize>,
    pub parent: Option<SpanId>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans in call order; single-threaded by construction (the
/// benchmark is one client on one thread).
pub struct Tracer {
    t0: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    job: Option<usize>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            job: None,
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        let id = SpanId(self.spans.len());
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            job: self.job,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        id
    }

    /// Close `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: SpanId) {
        let end_ns = self.now_ns();
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        self.spans[id.0].end_ns = end_ns;
    }

    /// Open the `job` span of job `index`; every span until
    /// [`Tracer::exit_job`] carries that index.
    pub fn enter_job(&mut self, index: usize) -> SpanId {
        self.job = Some(index);
        self.enter("job")
    }

    pub fn exit_job(&mut self, id: SpanId) {
        self.exit(id);
        self.job = None;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus its direct children's.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::dur_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p.0] = own[p.0].saturating_sub(s.dur_ns());
            }
        }
        own
    }

    /// Chrome-trace ("Trace Event Format") rendering: complete events on
    /// one thread lane, the job name in `args`.
    pub fn chrome_trace(&self, job_names: &[String]) -> Value {
        let events = self
            .spans
            .iter()
            .map(|s| {
                let layer = s.name.split('.').next().unwrap_or(s.name);
                let job = s.job.map_or("-", |j| job_names[j].as_str());
                Value::obj([
                    ("name", Value::Str(s.name.to_string())),
                    ("cat", Value::Str(layer.to_string())),
                    ("ph", Value::Str("X".into())),
                    ("ts", Value::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Value::Num(s.dur_ns() as f64 / 1e3)),
                    ("pid", Value::Num(1.0)),
                    ("tid", Value::Num(1.0)),
                    ("args", Value::obj([("job", Value::Str(job.to_string()))])),
                ])
            })
            .collect();
        Value::obj([
            ("displayTimeUnit", Value::Str("ms".into())),
            ("traceEvents", Value::Arr(events)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let job = t.enter_job(0);
        let outer = t.enter("explore.cell");
        let inner = t.enter("apps.build");
        std::thread::sleep(std::time::Duration::from_millis(2));
        t.exit(inner);
        t.exit(outer);
        t.exit_job(job);
        let own = t.self_ns();
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[2].parent, Some(outer));
        assert_eq!(spans[2].job, Some(0));
        // job's self time excludes explore.cell entirely, and explore.cell's
        // excludes apps.build; the grandchild is not subtracted twice.
        assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
        assert_eq!(own[1], spans[1].dur_ns() - spans[2].dur_ns());
        assert_eq!(own[2], spans[2].dur_ns());
    }
}
