//! Release-only smoke test: every workload's job list once through the
//! library, then the shape of everything the benchmark prints.
//!
//! `cargo test --release --manifest-path perf/Cargo.toml` (about two
//! minutes on the reference host). A debug build would spend that long on
//! one workload, so the run is compiled out there.

#![cfg(not(debug_assertions))]

use std::path::Path;
use std::time::Instant;

use dsm_perf::exec::{end_to_end, Prepared};
use dsm_perf::jobs::WORKLOADS;
use dsm_perf::json::Value;
use dsm_perf::layers::traced_run;
use dsm_perf::meter::Meter;
use dsm_perf::metrics::{MetricSet, END_TO_END, PER_LAYER};

/// Per-layer metrics that must be non-zero on a workload: the ones the
/// issue says that workload exists to move.
fn must_move(workload: &str) -> &'static [&'static str] {
    match workload {
        "matrix-paper" => &[
            "apps.seq_s",
            "apps.kernel_share",
            "apps.accesses",
            "core.step_s",
            "core.ns_per_access",
            "net.wall_s.two-sided",
            "sim.vt_app_ms",
            "sim_elapsed_ms",
            "plan.measure_s",
        ],
        "proto-n64" => &[
            "core.stack_s",
            "core.region_twin_skips",
            "core.region_elided_pushes",
            "vm.twins",
            "vm.diffs_created",
            "net.wall_s.two-sided",
            "net.wall_s.lossy",
            "net.wall_s.one-sided",
            "net.us_per_msg.lossy",
            "net.retransmits",
            "net.flushes_dropped",
            "plan.regions_s",
            "plan.regions_calls",
            "plan.predict_speedup",
        ],
        "checked-paper" => &[
            "check.run_s",
            "check.unchecked_s",
            "check.overhead_ratio",
            "check.events",
            "check.words_shadowed",
            "check.hb_edges",
            "check.ns_per_event",
        ],
        "explore-budget" => &[
            "explore.cells",
            "explore.schedules",
            "explore.completed",
            "explore.pruned",
            "explore.max_points",
            "explore.us_per_schedule",
            "explore.cell_s.max",
            "explore.por_factor",
            "explore.hunt_schedule_index",
            "core.state_hash_calls",
            "snap.small_bytes",
            "snap.small_write_us",
            "snap.small_read_us",
        ],
        "snap-roundtrip" => &[
            "snap.count",
            "snap.bytes",
            "snap.write_s",
            "snap.read_s",
            "snap.write_mb_per_s",
            "snap.read_mb_per_s",
            "snap.check_share",
            "core.state_hash_s",
            "check.events",
        ],
        other => panic!("no expectations for workload {other}"),
    }
}

fn well_formed(name: &str) -> bool {
    !name.is_empty()
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_shape(workload: &str, set: &MetricSet, catalogue_len: usize) {
    let json = set.to_json();
    let members = json.as_obj().expect("metrics render as an object");
    assert_eq!(
        members.len(),
        catalogue_len,
        "{workload}: a metric is missing"
    );
    for (name, m) in members {
        assert!(well_formed(name), "{workload}: bad metric name {name:?}");
        let unit = m.get("unit").and_then(Value::as_str).unwrap_or("");
        assert!(!unit.is_empty(), "{workload}: {name} carries no unit");
        let value = m.get("value").and_then(Value::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{workload}: {name} is not a finite number"
        );
    }
    // The emitted JSON round-trips through the crate's own reader.
    assert_eq!(
        Value::parse(&json.render()).as_ref(),
        Ok(&json),
        "{workload}"
    );
    assert_eq!(
        Value::parse(&json.render_pretty()).as_ref(),
        Ok(&json),
        "{workload}"
    );
}

#[test]
fn every_workload_runs_clean_and_prints_every_metric() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    for w in &WORKLOADS {
        let t0 = Instant::now();
        let prepared = Prepared::new(w, 0x5EED_CAFE, &mut Meter::new());
        let setup_s = t0.elapsed().as_secs_f64();

        // Job names are pinned (names only — no simulated counts).
        let pinned = std::fs::read_to_string(here.join(format!("expected/jobs-{}.txt", w.name)))
            .unwrap_or_else(|e| panic!("expected/jobs-{}.txt: {e}", w.name));
        let names: Vec<&str> = prepared.jobs.iter().map(|j| j.name.as_str()).collect();
        assert_eq!(
            names,
            pinned.lines().collect::<Vec<_>>(),
            "{}: job list drifted",
            w.name
        );

        let traced = traced_run(&prepared, None);
        for (job, o) in prepared.jobs.iter().zip(&traced.pass.outcomes) {
            assert_eq!(o.failure, None, "{}/{}", w.name, job.name);
        }

        let reference = &traced.reference;
        let e2e = end_to_end(reference.work(), reference.time().norm_s, &[setup_s]);
        assert_shape(w.name, &e2e, END_TO_END.len());
        for (d, v) in e2e.iter() {
            assert!(v > 0.0, "{}: end-to-end {} must never be 0", w.name, d.name);
        }

        assert_shape(w.name, &traced.layers, PER_LAYER.len());
        assert_eq!(traced.layers.get("fail_ratio"), 0.0, "{}", w.name);
        for name in must_move(w.name) {
            assert!(
                traced.layers.get(name) > 0.0,
                "{}: {name} should be non-zero here",
                w.name
            );
        }
        // Outside-in attribution: the harness itself is at most 5 % of a pass.
        assert!(
            traced.layers.get("harness.attributed_share") >= 0.95,
            "{}: only {} of the pass is attributed to layer spans",
            w.name,
            traced.layers.get("harness.attributed_share")
        );
    }
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(here.join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let bench = Value::parse(&text).expect("BENCHMARK.json parses");
    let list = |key: &str| {
        bench
            .get(key)
            .and_then(Value::as_arr)
            .expect("list")
            .to_vec()
    };
    let field = |v: &Value, key: &str| v.get(key).and_then(Value::as_str).map(str::to_string);

    let workloads: Vec<_> = list("workloads")
        .iter()
        .map(|w| (field(w, "name"), field(w, "why")))
        .collect();
    let mine: Vec<_> = WORKLOADS
        .iter()
        .map(|w| (Some(w.name.to_string()), Some(w.why.to_string())))
        .collect();
    assert_eq!(workloads, mine);

    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = list(key);
        assert_eq!(listed.len(), defs.len(), "{key}");
        for (l, d) in listed.iter().zip(defs) {
            assert_eq!(field(l, "name").as_deref(), Some(d.name), "{key}");
            assert_eq!(
                field(l, "unit").as_deref(),
                Some(d.unit),
                "{key} {}",
                d.name
            );
            assert_eq!(
                field(l, "better").as_deref(),
                Some(d.better.label()),
                "{key} {}",
                d.name
            );
            if key == "end_to_end" {
                assert_eq!(
                    l.get("bound").and_then(Value::as_f64),
                    Some(d.bound),
                    "{}",
                    d.name
                );
            }
        }
    }
}
