//! Cross-validation of the symbolic scaling laws.
//!
//! Two angles on [`dsm_plan::derive_law`]:
//!
//! * a property test: laws derived over a small fit domain must reproduce
//!   the concrete symbolic lowering ([`dsm_plan::measure`]) exactly at
//!   randomly drawn node counts, both inside the domain and beyond it
//!   through the open polynomial tails;
//! * a dynamic test: at N ∈ {8, 16, 64} the law's traffic metrics must
//!   equal the real run's counters under the full dsm-check oracle stack,
//!   with every report clean — the N=64 cells exercising cluster sizes
//!   past the word-width caps the sparse refactor removed.

use dsm_apps::common::Scale;
use dsm_apps::registry::make_planned;
use dsm_check::checked_run;
use dsm_core::{ProtocolKind, RunConfig};
use dsm_net::MsgKind;
use dsm_plan::{derive_law, measure, ScaleLaw};
use dsm_sim::prop;

/// The protocols whose laws `scale` commits (the predictor also accepts
/// `bar-m`).
const MODELED: [ProtocolKind; 5] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
];

fn law_for(app: &str, proto: ProtocolKind, fit_hi: u64, spots: &[u64]) -> ScaleLaw {
    derive_law(
        |n| {
            let mut a = make_planned(app, Scale::Small).expect("known app");
            measure(a.as_mut(), proto, n as usize)
        },
        2..=fit_hi,
        spots,
    )
}

/// Derived formulas equal the concrete lowering at random node counts.
#[test]
fn formulas_match_concrete_lowering_at_random_n() {
    // Laws once per cell (derivation probes every N in the domain); the
    // property then samples N anywhere in [2, 96], far past the fit end.
    let cells: Vec<(&str, ProtocolKind, ScaleLaw)> = ["jacobi", "sor"]
        .iter()
        .flat_map(|app| {
            MODELED
                .iter()
                .map(|&p| (*app, p, law_for(app, p, 40, &[72, 96])))
                .collect::<Vec<_>>()
        })
        .collect();
    prop::check("scaling-law-vs-lowering", 24, |g| {
        let (app, proto, law) = &cells[g.below(cells.len())];
        let n = g.range(2, 97) as u64;
        let mut a = make_planned(app, Scale::Small).expect("known app");
        let got = measure(a.as_mut(), *proto, n as usize);
        match law.eval(n) {
            Some(want) => assert_eq!(want, got.metrics, "{app}/{} at N={n}", proto.label()),
            // A bounded tail may refuse to extrapolate, but never inside
            // the fit domain.
            None => assert!(n > 40, "{app}/{} refused N={n} in-domain", proto.label()),
        }
    });
}

/// At N ∈ {8, 16, 64}: the law's traffic metrics equal the dynamic
/// counters of a fully oracle-checked run, and every report is clean.
#[test]
fn laws_match_checked_runs_through_n64() {
    for app in ["jacobi", "sor"] {
        for proto in MODELED {
            let law = law_for(app, proto, 70, &[]);
            for n in [8usize, 16, 64] {
                let mut cfg = RunConfig::with_nprocs(proto, n);
                // The laws cover the whole run, so the counters must too.
                cfg.warmup_iters = 0;
                let mut a = make_planned(app, Scale::Small).expect("known app");
                let (run, check) = checked_run(a.as_mut(), cfg);
                assert!(
                    check.is_clean(),
                    "{app}/{} N={n} flagged:\n{}",
                    proto.label(),
                    check.summary()
                );
                let want = law.eval(n as u64).expect("in fit domain");
                let got = [
                    run.stats.net.msgs_of(MsgKind::UpdateFlush),
                    run.stats.net.bytes_of(MsgKind::UpdateFlush),
                    if proto.is_bar() {
                        check.version_bumps
                    } else {
                        check.notices_recorded
                    },
                ];
                assert_eq!(
                    got,
                    [want[0], want[1], want[2]],
                    "{app}/{} N={n}: dynamic [msgs, bytes, notices] vs law",
                    proto.label()
                );
            }
        }
    }
}
