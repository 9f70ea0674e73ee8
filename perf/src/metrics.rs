//! The metric catalogue and the statistics the benchmark reports.
//!
//! Every metric the benchmark can print is declared here once, with its
//! unit, the direction that is better, and whether it is *exact* — a
//! count or virtual-time figure that repeats bit for bit on the same
//! commit and seed, which `perf verify` therefore compares for identity
//! instead of against a bound. `BENCHMARK.json` lists the same names;
//! `tests/smoke.rs` fails if the two drift.

use crate::json::Value;

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// Declaration of one metric.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly on the same commit and seed (counts, virtual time).
    pub exact: bool,
    /// End-to-end only: the share of the baseline median by which the
    /// metric may worsen before it is a regression.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
        bound,
    }
}

const fn host(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact: false,
        bound: 0.0,
    }
}

const fn exact(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        exact: true,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the simulator sees. Every workload reports all four.
pub const END_TO_END: [MetricDef; 4] = [
    e2e("wall_s", "s", Lower, 0.15),
    e2e("work_per_s", "1/s", Higher, 0.15),
    e2e("peak_rss_mb", "MB", Lower, 0.05),
    e2e("setup_s", "s", Lower, 0.25),
];

/// Per-layer metrics of the traced run, layer = crate. Every workload
/// reports every name; a metric its job list cannot produce reads 0.
pub const PER_LAYER: [MetricDef; 93] = [
    // The two the issue listed end-to-end but the benchmark contract
    // cannot bound (one is 0 at baseline, the other exact): reported here,
    // compared for identity by `perf verify`.
    exact("fail_ratio", "ratio"),
    exact("sim_elapsed_ms", "ms"),
    // dsm-apps
    host("apps.build_s", "s", Lower),
    host("apps.seq_s", "s", Lower),
    host("apps.kernel_share", "ratio", Lower),
    exact("apps.accesses", "count"),
    // dsm-core
    host("core.setup_s", "s", Lower),
    host("core.step_s", "s", Lower),
    host("core.finish_s", "s", Lower),
    exact("core.steps", "count"),
    host("core.ns_per_access", "ns", Lower),
    host("core.stack_s", "s", Lower),
    host("core.state_hash_s", "s", Lower),
    exact("core.state_hash_calls", "count"),
    exact("core.barriers", "count"),
    exact("core.segvs", "count"),
    exact("core.mprotects", "count"),
    exact("core.remote_misses", "count"),
    exact("core.local_faults", "count"),
    exact("core.gc_events", "count"),
    exact("core.migrations", "count"),
    exact("core.update_inserts", "count"),
    exact("core.region_twin_skips", "count"),
    exact("core.region_elided_pushes", "count"),
    // dsm-vm
    exact("vm.twins", "count"),
    exact("vm.diffs_created", "count"),
    exact("vm.empty_diffs", "count"),
    exact("vm.empty_diff_ratio", "ratio"),
    host("vm.twin_ns", "ns", Lower),
    host("vm.diff_sparse_ns", "ns", Lower),
    host("vm.diff_dense_ns", "ns", Lower),
    host("vm.apply_ns", "ns", Lower),
    // dsm-net
    exact("net.msgs", "count"),
    exact("net.payload_kb", "kB"),
    exact("net.update_flush_msgs", "count"),
    exact("net.retransmits", "count"),
    exact("net.flushes_dropped", "count"),
    exact("net.dups_suppressed", "count"),
    host("net.wall_s.two-sided", "s", Lower),
    host("net.wall_s.lossy", "s", Lower),
    host("net.wall_s.one-sided", "s", Lower),
    host("net.us_per_msg.two-sided", "us", Lower),
    host("net.us_per_msg.lossy", "us", Lower),
    host("net.us_per_msg.one-sided", "us", Lower),
    host("net.fetch_ns.two-sided", "ns", Lower),
    host("net.fetch_ns.lossy", "ns", Lower),
    host("net.fetch_ns.one-sided", "ns", Lower),
    host("net.push_update_ns.two-sided", "ns", Lower),
    host("net.push_update_ns.one-sided", "ns", Lower),
    // dsm-sim: virtual time, summed over jobs and processes
    exact("sim.vt_app_ms", "ms"),
    exact("sim.vt_os_ms", "ms"),
    exact("sim.vt_sigio_ms", "ms"),
    exact("sim.vt_wait_ms", "ms"),
    // dsm-check
    host("check.run_s", "s", Lower),
    host("check.unchecked_s", "s", Lower),
    host("check.overhead_ratio", "ratio", Lower),
    exact("check.events", "count"),
    exact("check.reads", "count"),
    exact("check.writes", "count"),
    exact("check.words_shadowed", "count"),
    exact("check.hb_edges", "count"),
    host("check.ns_per_event", "ns", Lower),
    exact("check.violations", "count"),
    // dsm-explore
    exact("explore.cells", "count"),
    exact("explore.schedules", "count"),
    exact("explore.completed", "count"),
    exact("explore.pruned", "count"),
    exact("explore.prune_ratio", "ratio"),
    exact("explore.max_points", "count"),
    host("explore.us_per_schedule", "us", Lower),
    host("explore.cell_s.max", "s", Lower),
    exact("explore.por_factor", "ratio"),
    exact("explore.hunt_schedule_index", "count"),
    // dsm-snap
    exact("snap.count", "count"),
    exact("snap.bytes", "bytes"),
    host("snap.write_s", "s", Lower),
    host("snap.read_s", "s", Lower),
    host("snap.write_mb_per_s", "MB/s", Higher),
    host("snap.read_mb_per_s", "MB/s", Higher),
    exact("snap.check_share", "ratio"),
    exact("snap.small_bytes", "bytes"),
    host("snap.small_write_us", "us", Lower),
    host("snap.small_read_us", "us", Lower),
    // dsm-plan
    host("plan.regions_s", "s", Lower),
    exact("plan.regions_calls", "count"),
    host("plan.measure_s", "s", Lower),
    host("plan.predict_speedup", "ratio", Higher),
    // harness
    host("alloc.count", "count", Lower),
    host("alloc.bytes", "bytes", Lower),
    host("alloc.peak_bytes", "bytes", Lower),
    host("harness.self_s", "s", Lower),
    host("harness.attributed_share", "ratio", Higher),
    host("trace.overhead_ratio", "ratio", Lower),
];

/// Find a definition by name in either catalogue.
pub fn def(name: &str) -> Option<&'static MetricDef> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|d| d.name == name)
}

/// Values for one catalogue, filled by name and rendered in catalogue
/// order. A name outside the catalogue is a typo in the harness, so it
/// panics rather than silently adding a metric nobody declared.
pub struct MetricSet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl MetricSet {
    pub fn new(defs: &'static [MetricDef]) -> MetricSet {
        MetricSet {
            defs,
            values: vec![0.0; defs.len()],
        }
    }

    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name:?} is not in the catalogue"));
        // `+ 0.0` turns the -0.0 an empty float sum yields into 0.0.
        self.values[i] = value + 0.0;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.iter().find(|(d, _)| d.name == name).map_or_else(
            || panic!("metric {name:?} is not in the catalogue"),
            |(_, v)| v,
        )
    }

    pub fn iter(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        self.defs.iter().zip(self.values.iter().copied())
    }

    /// The contract's `metrics` object: `{name: {value, unit}}`.
    pub fn to_json(&self) -> Value {
        Value::Obj(
            self.iter()
                .map(|(d, v)| {
                    (
                        d.name.to_string(),
                        Value::obj([
                            ("value", Value::Num(v)),
                            ("unit", Value::Str(d.unit.to_string())),
                        ]),
                    )
                })
                .collect(),
        )
    }

    /// One `name value unit` row per metric.
    pub fn table(&self) -> String {
        let width = self.defs.iter().map(|d| d.name.len()).max().unwrap_or(0);
        self.iter()
            .map(|(d, v)| format!("  {:<width$}  {:>16}  {}\n", d.name, fmt_value(v), d.unit))
            .collect()
    }
}

/// Human formatting: integers print whole, everything else to 6
/// significant-ish digits.
pub fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else if v.abs() >= 100.0 {
        format!("{v:.2}")
    } else {
        format!("{v:.6}")
    }
}

/// Median of `xs` (mean of the middle two for even counts). Panics on an
/// empty slice — every caller has at least one sample by construction.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile as Python's `statistics.quantiles(xs, n=4)`
/// gives them (the exclusive method the benchmark contract names). Needs
/// at least two samples; with fewer, both quartiles are the sample.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median — the spread the
/// benchmark contract compares against a metric's bound.
pub fn spread(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&xs), 5.5);
        assert!((spread(&xs) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn catalogue_names_are_unique_and_contract_shaped() {
        let mut seen = std::collections::BTreeSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{}", d.name);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.bound <= 0.25);
        }
        assert!(END_TO_END
            .iter()
            .any(|d| d.name == "setup_s" && d.unit == "s"));
    }

    #[test]
    #[should_panic(expected = "not in the catalogue")]
    fn unknown_metric_names_panic() {
        MetricSet::new(&END_TO_END).set("wall_ms", 1.0);
    }
}
