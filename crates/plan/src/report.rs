//! Machine-readable analysis reports (`results/plan-*.txt`).
//!
//! One line per claim, `key=value` fields, fully deterministic: the CI
//! static-analysis job regenerates the report and diffs it against the
//! committed copy, so any change to a plan, the lowering, or the
//! protocols shows up as a reviewable text diff. Bulky artifacts
//! (per-barrier flush lists, copyset tables, home maps) are folded into
//! FNV-1a digests; the human-readable fields carry the headline numbers.

use std::fmt::Write as _;

use dsm_core::ProtocolKind;
use dsm_sim::transport::TransportKind;

use crate::groups::static_page_groups;
use crate::layout::{probe_layout, Layout};
use crate::protosim::{predict, total_pages, Prediction, SteadyCopysets};
use crate::race::check_races;
use crate::schedule::build_schedule;
use crate::spec::{AppPlan, PlannedApp};

/// FNV-1a over a stream of `u64`s (little-endian bytes).
fn fnv1a64(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for b in v.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Everything the static analyzer derives for one `(app, nprocs)`.
pub struct AppAnalysis {
    pub plan: AppPlan,
    pub layout: Layout,
    pub iters: usize,
}

/// Probe the layout and package the plan for analysis.
pub fn analyze<A: PlannedApp + ?Sized>(app: &mut A, nprocs: usize) -> AppAnalysis {
    let plan = app.plan();
    let layout = probe_layout(app, &plan, nprocs);
    let iters = app.iters();
    AppAnalysis {
        plan,
        layout,
        iters,
    }
}

fn copyset_fields(out: &mut String, cs: &SteadyCopysets) {
    match cs {
        SteadyCopysets::None => {
            let _ = write!(out, " copysets=none");
        }
        SteadyCopysets::PerPage(v) => {
            // `digest_words()` folds exactly like the old inline bitmask
            // for sets with no spillover, keeping committed reports stable.
            let digest = fnv1a64(
                v.iter()
                    .flat_map(|(p, cs)| core::iter::once(u64::from(*p)).chain(cs.digest_words())),
            );
            let _ = write!(
                out,
                " copysets=per-page copyset_entries={} copyset_digest={digest:#018x}",
                v.len()
            );
        }
        SteadyCopysets::PerWriter(v) => {
            let digest = fnv1a64(v.iter().flat_map(|(p, w, cs)| {
                [u64::from(*p), u64::from(*w)]
                    .into_iter()
                    .chain(cs.digest_words())
            }));
            let _ = write!(
                out,
                " copysets=per-writer copyset_entries={} copyset_digest={digest:#018x}",
                v.len()
            );
        }
    }
}

fn flush_digest(p: &Prediction) -> u64 {
    fnv1a64(p.flushes.iter().enumerate().flat_map(|(bi, fs)| {
        core::iter::once(bi as u64).chain(fs.iter().flat_map(|(w, pg, cs)| {
            [u64::from(*w), u64::from(*pg)]
                .into_iter()
                .chain(cs.digest_words())
        }))
    }))
}

/// Is the flush pattern at a fixed point: final iteration == the one
/// before it? (The copyset-learning fixed point of the paper.)
fn steady(p: &Prediction, iters: usize) -> Option<(bool, usize)> {
    let nb = p.flushes.len();
    if iters < 2 || !nb.is_multiple_of(iters) {
        return None;
    }
    let per = nb / iters;
    let last = &p.flushes[nb - per..];
    let prev = &p.flushes[nb - 2 * per..nb - per];
    let steady_count = last.iter().map(Vec::len).sum();
    Some((last == prev, steady_count))
}

/// Append the full report block for one analyzed app. Returns `false` when
/// any schedule fails the race-freedom proof (or lowers a store-declaring
/// phase to an all-empty writer set).
pub fn render_app_report(out: &mut String, an: &AppAnalysis, protocols: &[ProtocolKind]) -> bool {
    let plan = &an.plan;
    let lay = &an.layout;
    let app = plan.app;
    let _ = writeln!(
        out,
        "app={app} exact={} arrays={} pages={} iters={} phases={}",
        plan.exact,
        plan.arrays.len(),
        total_pages(lay),
        an.iters,
        plan.phases.len(),
    );

    // Two schedule shapes exist: native reductions (bar family, seq) and
    // emulated ones (lmw family). Without reductions they coincide.
    let has_reduce = plan.phases.iter().any(|p| p.reduce.is_some());
    let mut ok = true;
    let families: &[(&str, ProtocolKind)] = if has_reduce {
        &[
            ("native", ProtocolKind::BarU),
            ("emulated", ProtocolKind::LmwU),
        ]
    } else {
        &[("native", ProtocolKind::BarU)]
    };
    for &(label, proto) in families {
        let sched = build_schedule(plan, proto, an.iters);
        let race = check_races(plan, lay, &sched);
        ok &= race.race_free() && race.empty_writer_phases.is_empty();
        let _ = writeln!(
            out,
            "app={app} check=race schedule={label} epochs={} pairs={} races={} \
             empty_writer_phases={} race_free={}",
            race.epochs_checked,
            race.pairs_checked,
            race.races.len(),
            race.empty_writer_phases.len(),
            race.race_free(),
        );
        for w in race.races.iter().take(5) {
            let _ = writeln!(
                out,
                "app={app} race schedule={label} iter={} site={} writer={} other={} \
                 array={} lo={:#x} hi={:#x}",
                w.iter, w.site, w.writer, w.other, w.array, w.lo, w.hi,
            );
        }
        let groups = static_page_groups(plan, lay, &sched);
        let mut roots: Vec<u32> = groups.values().copied().collect();
        roots.sort_unstable();
        roots.dedup();
        let mut items: Vec<(u32, u32)> = groups.iter().map(|(&k, &v)| (k, v)).collect();
        items.sort_unstable();
        let digest = fnv1a64(
            items
                .iter()
                .flat_map(|&(k, v)| [u64::from(k), u64::from(v)]),
        );
        let _ = writeln!(
            out,
            "app={app} groups schedule={label} pages={} groups={} digest={digest:#018x}",
            items.len(),
            roots.len(),
        );
    }

    for &proto in protocols {
        if proto == ProtocolKind::BarM || !plan.exact {
            continue;
        }
        let sched = build_schedule(plan, proto, an.iters);
        let p = predict(plan, lay, &sched, proto, TransportKind::TwoSided);
        let mut line = format!(
            "app={app} proto={} barriers={} flush_msgs={} flush_words={} \
             flush_digest={:#018x}",
            proto.label(),
            p.flushes.len(),
            p.flush_msgs,
            p.flush_words,
            flush_digest(&p),
        );
        if let Some((is_steady, steady_count)) = steady(&p, an.iters) {
            let _ = write!(line, " steady={is_steady} steady_flushes={steady_count}");
        }
        copyset_fields(&mut line, &p.copysets);
        if proto.is_bar() {
            let homes_digest = fnv1a64(p.homes.iter().map(|&h| u64::from(h)));
            let _ = write!(
                line,
                " migrations={} homes_digest={homes_digest:#018x}",
                p.migrations
            );
        }
        let _ = writeln!(out, "{line}");
    }
    ok
}

/// Render the full report for a list of planned apps. `header` lines are
/// prefixed with `#`.
pub fn render_report(
    header: &str,
    nprocs: usize,
    apps: &mut [Box<dyn PlannedApp>],
    protocols: &[ProtocolKind],
) -> (String, bool) {
    let mut out = String::new();
    for line in header.lines() {
        let _ = writeln!(out, "# {line}");
    }
    let _ = writeln!(out, "nprocs={nprocs}");
    let mut ok = true;
    for app in apps {
        let an = analyze(app.as_mut(), nprocs);
        ok &= render_app_report(&mut out, &an, protocols);
    }
    (out, ok)
}
