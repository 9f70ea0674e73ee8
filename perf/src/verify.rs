//! `perf verify A.json[,A2.json,..] B.json[,B2.json,..]`: compare two
//! sides metric by metric against the bounds in `BENCHMARK.json`.
//!
//! A side is one result set or several of the same commit. With one, a
//! metric's value is that run's and its samples are the run's passes;
//! with several (the way to compare on a noisy host: ten alternating
//! pairs), the value is the median over the runs and the samples are the
//! runs' values.
//!
//! One row per (workload, metric) with both values and the ratio. A
//! bounded end-to-end metric is a **regression** when B is worse than A by
//! more than its bound, and **unresolved** — not "unchanged" — when either
//! side's own spread over its samples exceeds the bound (unless every
//! sample of B reads better than every sample of A). Exact metrics
//! (counts, virtual time) must be identical; `fail_ratio` may not rise.

use std::fmt::Write as _;

use crate::json::Value;
use crate::metrics::{self, fmt_value, median, spread, Better};

/// Outcome of comparing one metric.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Status {
    Ok,
    Unresolved,
    Regression,
    Differs,
}

impl Status {
    fn label(self) -> &'static str {
        match self {
            Status::Ok => "ok",
            Status::Unresolved => "unresolved",
            Status::Regression => "REGRESSION",
            Status::Differs => "DIFFERS",
        }
    }
}

/// The comparison table and whether it holds a blocking row.
pub struct Verdict {
    pub table: String,
    pub regressions: usize,
    pub unresolved: usize,
}

fn value_of(set: &Value, workload: &str, section: &str, metric: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get(section)?
        .get(metric)?
        .get("value")?
        .as_f64()
}

fn pass_samples(set: &Value, workload: &str, metric: &str) -> Vec<f64> {
    // work_per_s is work ÷ wall_s, so it shares wall_s's samples.
    let key = if metric == "work_per_s" {
        "wall_s"
    } else {
        metric
    };
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(|w| w.get("samples"))
        .and_then(|s| s.get(key))
        .and_then(Value::as_arr)
        .map(|xs| xs.iter().filter_map(Value::as_f64).collect())
        .unwrap_or_default()
}

/// One side's value of a metric and the samples its spread is taken over;
/// `None` unless every run of the side has the metric.
fn side(runs: &[Value], workload: &str, section: &str, metric: &str) -> Option<(f64, Vec<f64>)> {
    let values: Vec<f64> = runs
        .iter()
        .map(|r| value_of(r, workload, section, metric))
        .collect::<Option<_>>()?;
    match (&values[..], runs) {
        ([], _) => None,
        ([one], [run]) => Some((*one, pass_samples(run, workload, metric))),
        _ => Some((median(&values), values)),
    }
}

/// By how much of `a` is `b` worse, signed (negative = better).
fn worse_by(a: f64, b: f64, better: Better) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (b - a) / a.abs(),
        Better::Higher => (a - b) / a.abs(),
    }
}

fn bounded(a: f64, b: f64, better: Better, bound: f64, sa: &[f64], sb: &[f64]) -> Status {
    let noisy = sa.len() >= 2 && sb.len() >= 2 && (spread(sa) > bound || spread(sb) > bound);
    if noisy {
        // One run's samples are pass times (lower is better whatever the
        // metric); several runs' samples are the metric itself. Either
        // way a clear win has the medians agree on the direction.
        let below = sb.iter().all(|&y| sa.iter().all(|&x| y < x));
        let above = sb.iter().all(|&y| sa.iter().all(|&x| y > x));
        return if (below || above) && worse_by(a, b, better) <= 0.0 {
            Status::Ok
        } else {
            Status::Unresolved
        };
    }
    if worse_by(a, b, better) > bound {
        Status::Regression
    } else {
        Status::Ok
    }
}

/// Compare sides `a` (baseline) and `b`, each one or more result sets,
/// under `bench` (`BENCHMARK.json`). Errors name what is missing from the
/// inputs.
pub fn verify(bench: &Value, a: &[Value], b: &[Value]) -> Result<Verdict, String> {
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Value::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json has no {key:?} list"))
    };
    let name_of = |v: &Value| {
        v.get("name")
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or("BENCHMARK.json entry without a name")
    };
    let mut table = String::new();
    let mut regressions = 0;
    let mut unresolved = 0;
    let _ = writeln!(
        table,
        "{:<15} {:<30} {:>16} {:>16} {:>8}  status",
        "workload", "metric", "A", "B", "B/A"
    );
    for w in list("workloads")? {
        let workload = name_of(w)?;
        type Judge<'j> = &'j dyn Fn(f64, f64, &[f64], &[f64]) -> Status;
        let mut row = |section: &str, metric: &str, judge: Judge<'_>| {
            let (Some((va, sa)), Some((vb, sb))) = (
                side(a, &workload, section, metric),
                side(b, &workload, section, metric),
            ) else {
                // A set recorded without the traced half has no per-layer
                // section; a metric a side lacks is not a finding.
                return;
            };
            let status = judge(va, vb, &sa, &sb);
            regressions += usize::from(matches!(status, Status::Regression | Status::Differs));
            unresolved += usize::from(status == Status::Unresolved);
            let ratio = if va == 0.0 { f64::NAN } else { vb / va };
            let _ = writeln!(
                table,
                "{workload:<15} {metric:<30} {:>16} {:>16} {ratio:>8.4}  {}",
                fmt_value(va),
                fmt_value(vb),
                status.label()
            );
        };
        for m in list("end_to_end")? {
            let metric = name_of(m)?;
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let better = match m.get("better").and_then(Value::as_str) {
                Some("higher") => Better::Higher,
                _ => Better::Lower,
            };
            row("end_to_end", &metric, &|va, vb, sa, sb| {
                bounded(va, vb, better, bound, sa, sb)
            });
        }
        for m in list("per_layer")? {
            let metric = name_of(m)?;
            let exact = metrics::def(&metric).is_some_and(|d| d.exact);
            if !exact {
                continue;
            }
            row("per_layer", &metric, &|va, vb, _, _| {
                let same = if metric == "fail_ratio" {
                    vb <= va
                } else {
                    va == vb
                };
                if same {
                    Status::Ok
                } else {
                    Status::Differs
                }
            });
        }
    }
    Ok(Verdict {
        table,
        regressions,
        unresolved,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench() -> Value {
        Value::parse(
            r#"{"workloads":[{"name":"w","why":"x"}],
                "end_to_end":[{"name":"wall_s","unit":"s","better":"lower","bound":0.08},
                              {"name":"work_per_s","unit":"1/s","better":"higher","bound":0.08}],
                "per_layer":[{"name":"core.barriers","unit":"count","better":"lower"},
                             {"name":"fail_ratio","unit":"ratio","better":"lower"},
                             {"name":"core.step_s","unit":"s","better":"lower"}]}"#,
        )
        .unwrap()
    }

    fn set(wall: f64, samples: &[f64], barriers: f64, fail: f64) -> Value {
        let m = |v: f64| Value::obj([("value", Value::Num(v))]);
        Value::obj([(
            "workloads",
            Value::obj([(
                "w",
                Value::obj([
                    (
                        "end_to_end",
                        Value::obj([("wall_s", m(wall)), ("work_per_s", m(100.0 / wall))]),
                    ),
                    (
                        "samples",
                        Value::obj([(
                            "wall_s",
                            Value::Arr(samples.iter().map(|&s| Value::Num(s)).collect()),
                        )]),
                    ),
                    (
                        "per_layer",
                        Value::obj([
                            ("core.barriers", m(barriers)),
                            ("fail_ratio", m(fail)),
                            ("core.step_s", m(wall * 0.9)),
                        ]),
                    ),
                ]),
            )]),
        )])
    }

    #[test]
    fn same_set_is_clean() {
        let a = set(2.0, &[1.99, 2.0, 2.01], 10.0, 0.0);
        let a = [a];
        let v = verify(&bench(), &a, &a).unwrap();
        assert_eq!((v.regressions, v.unresolved), (0, 0), "{}", v.table);
        // Host-time per-layer metrics are not compared.
        assert!(!v.table.contains("core.step_s"));
    }

    #[test]
    fn slowdown_past_the_bound_is_a_regression_in_both_directions() {
        let a = set(2.0, &[1.99, 2.0, 2.01], 10.0, 0.0);
        let b = set(2.3, &[2.29, 2.3, 2.31], 10.0, 0.0);
        let (a, b) = ([a], [b]);
        let v = verify(&bench(), &a, &b).unwrap();
        assert_eq!(v.regressions, 2, "{}", v.table); // wall_s and work_per_s
        assert_eq!(verify(&bench(), &b, &a).unwrap().regressions, 0);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_every_sample_wins() {
        let a = set(2.0, &[1.8, 2.0, 2.4], 10.0, 0.0);
        let b = set(2.3, &[2.0, 2.3, 2.9], 10.0, 0.0);
        let a = [a];
        let v = verify(&bench(), &a, &[b]).unwrap();
        assert_eq!((v.regressions, v.unresolved), (0, 2), "{}", v.table);
        let fast = set(1.0, &[0.9, 1.0, 1.3], 10.0, 0.0);
        let v = verify(&bench(), &a, &[fast]).unwrap();
        assert_eq!((v.regressions, v.unresolved), (0, 0), "{}", v.table);
    }

    #[test]
    fn exact_metrics_must_match_and_failures_may_not_rise() {
        let a = set(2.0, &[2.0, 2.0, 2.0], 10.0, 0.0);
        let a = [a];
        let v = verify(&bench(), &a, &[set(2.0, &[2.0, 2.0, 2.0], 11.0, 0.0)]).unwrap();
        assert_eq!(v.regressions, 1, "{}", v.table);
        let v = verify(&bench(), &a, &[set(2.0, &[2.0, 2.0, 2.0], 10.0, 0.5)]).unwrap();
        assert_eq!(v.regressions, 1, "{}", v.table);
    }

    #[test]
    fn several_runs_a_side_compare_medians_over_run_spread() {
        // One slow run among three does not move the side's median, and
        // the runs' own values (not their passes) are the samples.
        let quiet = |w: f64| set(w, &[w, w, w], 10.0, 0.0);
        let a = [quiet(2.0), quiet(2.02), quiet(2.6)];
        let b = [quiet(2.01), quiet(1.99), quiet(2.03)];
        let v = verify(&bench(), &a, &b).unwrap();
        assert_eq!((v.regressions, v.unresolved), (0, 2), "{}", v.table); // a spreads > 8 %
        let a = [quiet(2.0), quiet(2.02), quiet(2.04)];
        let v = verify(&bench(), &a, &b).unwrap();
        assert_eq!((v.regressions, v.unresolved), (0, 0), "{}", v.table);
        let slow = [quiet(2.3), quiet(2.31), quiet(2.29)];
        assert_eq!(verify(&bench(), &a, &slow).unwrap().regressions, 2);
    }
}
