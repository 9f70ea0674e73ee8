//! Cross-validation of the static access plans against real runs.
//!
//! For every app × protocol × transport in the matrix, a [`PlanSink`]
//! watches a Small run and asserts:
//!
//! * **containment** — every dynamic read/write lands inside the plan's
//!   lowered load/store spans for its `(pid, epoch)`;
//! * **barrier count** — the run executes exactly the barriers the
//!   schedule declares;
//! * **two substrates agree** (exact plans) — the same protocol code run
//!   over page digests ([`predict`]) and over real frames yields the same
//!   per-barrier `(writer, page, copyset)` flush triples, update traffic,
//!   notices, fetches, data-plane message count, homes, migrations and
//!   copyset tables — including the steady-state copyset fixed point of
//!   the final iterations;
//! * **zero flushes** (invalidate protocols) — no `UpdateFlush` is ever
//!   emitted.

use std::collections::BTreeMap;

use dsm_apps::common::Scale;
use dsm_apps::registry::{make_app, make_planned};
use dsm_core::proto::CopySet;
use dsm_core::{ProtocolKind, RunConfig, StepRun};
use dsm_plan::{
    analyze, build_schedule, predict, FlushTriple, PlanSink, Prediction, SteadyCopysets,
};
use dsm_sim::transport::TransportKind;

const NPROCS: usize = 4;

/// Everything the predictor accepts.
const MATRIX: [ProtocolKind; 6] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
];

/// Final-iteration copysets extracted from the observed flush stream must
/// match the simulator's steady-state copyset tables.
fn check_steady_copysets(p: &Prediction, observed: &[Vec<FlushTriple>], iters: usize, tag: &str) {
    let nb = observed.len();
    assert_eq!(nb % iters, 0, "{tag}: {nb} barriers over {iters} iters");
    let per = nb / iters;
    let last = &observed[nb - per..];
    match &p.copysets {
        SteadyCopysets::None => panic!("{tag}: update protocol predicted no copysets"),
        SteadyCopysets::PerPage(v) => {
            let table: BTreeMap<u32, &CopySet> = v.iter().map(|(p, cs)| (*p, cs)).collect();
            for (w, page, cs) in last.iter().flatten() {
                assert_eq!(
                    table.get(page),
                    Some(&cs),
                    "{tag}: page {page} flushed by {w} with copyset {cs:?} \
                     vs steady table {:?}",
                    table.get(page)
                );
            }
        }
        SteadyCopysets::PerWriter(v) => {
            let table: BTreeMap<(u32, u16), &CopySet> =
                v.iter().map(|(pg, w, cs)| ((*pg, *w), cs)).collect();
            for (w, page, cs) in last.iter().flatten() {
                assert_eq!(
                    table.get(&(*page, *w)),
                    Some(&cs),
                    "{tag}: page {page} writer {w} copyset {cs:?} \
                     vs steady table {:?}",
                    table.get(&(*page, *w))
                );
            }
        }
    }
    // The fixed point itself: when the simulator predicts the flush pattern
    // has converged, the run must have converged identically.
    if nb >= 2 * per {
        let plen = p.flushes.len();
        if p.flushes[plen - per..] == p.flushes[plen - 2 * per..plen - per] {
            assert_eq!(
                &observed[nb - per..],
                &observed[nb - 2 * per..nb - per],
                "{tag}: predicted steady state not observed"
            );
        }
    }
}

fn crossval(name: &str, proto: ProtocolKind, transport: TransportKind) {
    let tag = format!("{name}/{}/{}", proto.label(), transport.label());
    let mut probe = make_planned(name, Scale::Small).expect("known app");
    let an = analyze(probe.as_mut(), NPROCS);
    let sched = build_schedule(&an.plan, proto, an.iters);
    let barriers = sched.iter().filter(|s| s.barrier).count();

    let (sink, outcome) = PlanSink::new(an.plan.clone(), an.layout.clone(), sched.clone());
    let mut app = make_app(name, Scale::Small).expect("known app");
    let mut cfg = RunConfig::with_nprocs(proto, NPROCS);
    cfg.sim.transport = transport;
    // Predictions cover the whole run, so the counters must too.
    cfg.warmup_iters = 0;
    let mut run = StepRun::new(app.as_mut(), cfg, Some(Box::new(sink)), None);
    while run.step() {}

    let out = outcome.take();
    assert!(
        out.errors.is_empty(),
        "{tag}: dynamic accesses escaped the declared plan:\n{}",
        out.errors.join("\n")
    );
    assert_eq!(out.barriers_seen, barriers, "{tag}: barrier count");

    if !proto.is_update() {
        assert!(
            out.observed_flushes.iter().all(Vec::is_empty),
            "{tag}: invalidate protocol emitted update flushes"
        );
    }
    if !an.plan.exact {
        // Barnes: containment only; the update machinery must still move
        // data (its dynamic cuts guarantee cross-band sharing).
        assert!(
            !proto.is_update() || out.observed_flushes.iter().any(|b| !b.is_empty()),
            "{tag}: no update traffic at all"
        );
        return;
    }
    let p = predict(&an.plan, &an.layout, &sched, proto, transport);
    let got = Prediction::read(run.cluster(), out);
    assert_eq!(p.flushes.len(), got.flushes.len(), "{tag}: barriers");
    for (bi, (pred, obs)) in p.flushes.iter().zip(&got.flushes).enumerate() {
        assert_eq!(
            pred,
            obs,
            "{tag}: flush triples diverge at barrier {bi} \
             (predicted {} triples, observed {})",
            pred.len(),
            obs.len()
        );
    }
    let mut facts = vec![
        ("flush_msgs", p.flush_msgs, got.flush_msgs),
        ("notices", p.notices, got.notices),
        ("fetches", p.fetches, got.fetches),
        ("transport_ops", p.transport_ops(), got.transport_ops()),
        ("migrations", p.migrations as u64, got.migrations as u64),
    ];
    if an.plan.value_exact {
        // Elsewhere a stencil may rewrite a word with its old value, and
        // the dynamic diff shrinks below the declared mods.
        facts.push(("flush_words", p.flush_words, got.flush_words));
        facts.push(("flush_runs", p.flush_runs, got.flush_runs));
    }
    for (what, predicted, observed) in facts {
        assert_eq!(predicted, observed, "{tag}: {what}");
    }
    // The layout reserves the reduction scratch pages under every
    // protocol; a native-reduction run never allocates them.
    let (shared, scratch) = p.homes.split_at(got.homes.len());
    assert_eq!(shared, got.homes, "{tag}: homes");
    assert!(scratch.iter().all(|&h| h == 0), "{tag}: scratch page homed");
    assert_eq!(p.copysets, got.copysets, "{tag}: end-of-run copysets");
    if proto.is_update() {
        check_steady_copysets(&p, &got.flushes, an.iters, &tag);
    }
}

macro_rules! crossval_app {
    ($($test:ident => $name:literal),* $(,)?) => {
        $(
            #[test]
            fn $test() {
                for proto in MATRIX {
                    for transport in [TransportKind::TwoSided, TransportKind::OneSided] {
                        crossval($name, proto, transport);
                    }
                }
            }
        )*
    };
}

crossval_app! {
    crossval_barnes => "barnes",
    crossval_expl => "expl",
    crossval_fft => "fft",
    crossval_jacobi => "jacobi",
    crossval_shallow => "shallow",
    crossval_sor => "sor",
    crossval_swm => "swm",
    crossval_tomcat => "tomcat",
}
