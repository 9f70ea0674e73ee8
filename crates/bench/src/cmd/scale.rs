//! dsm-scale driver: certified scaling formulas vs dynamic runs.
//!
//! ```text
//! dsm scale [--smoke]
//! ```
//!
//! Two sections, both at small scale:
//!
//! 1. **Symbolic laws** — for every exact-plan app × modelable protocol,
//!    [`dsm_plan::derive_law`] probes the symbolic lowering at every `N`
//!    in a contiguous fit domain (plus extrapolation spot probes) and
//!    prints the certified piecewise-polynomial formula per metric along
//!    with the sparsity certificate (max copyset sharers, `N`-independent).
//! 2. **Dynamic sweep** — every app × all seven protocols × a node-count
//!    sweep, each cell a real run under the full dsm-check oracle stack
//!    (`bar-r` with its proven region table). Where a formula exists the
//!    cell's traffic counters are cross-checked: update messages against
//!    `net.msgs_of(UpdateFlush)`, update bytes against
//!    `net.bytes_of(UpdateFlush)`, notices against the checker's
//!    `version_bumps` (bar family) / `notices_recorded` (lmw family).
//!    Messages and notices must match *exactly*. Bytes must too for
//!    value-exact plans (verdict `exact`); for apps whose stencils can
//!    rewrite words with unchanged values (shallow, swm, tomcat), dynamic
//!    diffs shrink below the static model and the byte formula is instead
//!    certified as an upper bound (verdict `bound`).
//!
//! All output is a pure function of the configuration, so the committed
//! `results/scale-paper.txt` (full matrix, `N` up to 256) and
//! `results/scale-smoke.txt` (two-app CI cut) are `diff`ed byte-for-byte.
//! Any checker violation or formula mismatch exits nonzero.

use std::fmt::Write as _;
use std::process::ExitCode;

use dsm_apps::{app_by_name, AppSpec, Scale};
use dsm_check::checked_run;
use dsm_core::ProtocolKind;
use dsm_net::MsgKind;
use dsm_plan::{derive_law, measure, ScaleLaw, METRICS};

use crate::cli::{CliError, Flags};
use crate::harness::{cell_config, run_capped, run_cells};

pub const USAGE: &str = "usage: dsm scale [--smoke]";

/// The protocols whose laws the committed reports carry. The predictor
/// accepts `bar-m` as well; `bar-r` is validated by the regions
/// cross-check instead.
const MODELED: [ProtocolKind; 5] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
];

struct Args {
    apps: Vec<&'static str>,
    sweep: Vec<usize>,
    fit_hi: u64,
    spots: Vec<u64>,
    smoke: bool,
}

fn parse_args(mut flags: Flags) -> Result<Args, CliError> {
    let mut args = Args {
        apps: dsm_apps::all_apps().iter().map(|s| s.name).collect(),
        sweep: vec![16, 64, 256],
        fit_hi: 96,
        spots: vec![128, 256],
        smoke: false,
    };
    while let Some(flag) = flags.next_flag() {
        match flag.as_str() {
            // Two-app cut for the fast CI diff gate; the full matrix runs
            // in its own job.
            "--smoke" => {
                args.smoke = true;
                args.apps = vec!["jacobi", "sor"];
                args.sweep = vec![16, 64];
                args.fit_hi = 80;
                args.spots = vec![128];
            }
            other => return Err(CliError::unknown_flag(other)),
        }
    }
    Ok(args)
}

/// Derive the certified law for one modelable cell.
fn cell_law(spec: &AppSpec, proto: ProtocolKind, fit_hi: u64, spots: &[u64]) -> ScaleLaw {
    derive_law(
        |n| {
            let mut app = spec.build_planned(Scale::Small);
            measure(app.as_mut(), proto, n as usize)
        },
        2..=fit_hi,
        spots,
    )
}

/// One law cell's report lines, and the law if the plan admits one.
fn law_lines(
    spec: &AppSpec,
    proto: Option<ProtocolKind>,
    args: &Args,
) -> (String, Option<ScaleLaw>) {
    let app = spec.name;
    let Some(proto) = proto else {
        return (
            format!("app={app} formulas=none reason=inexact-plan\n"),
            None,
        );
    };
    let law = cell_law(spec, proto, args.fit_hi, &args.spots);
    let mut out = String::new();
    for (m, f) in METRICS.iter().zip(&law.formulas) {
        let _ = writeln!(
            out,
            "app={app} proto={} metric={m} pieces={} degree={} open_tail={} formula=[{}]",
            proto.label(),
            f.pieces.len(),
            f.degree(),
            f.has_open_tail(),
            f.render(),
        );
    }
    let data_bound = law
        .sparsity
        .data_sharers
        .constant_tail()
        .map_or("growing".to_string(), |k| k.to_string());
    let _ = writeln!(
        out,
        "app={app} proto={} cert=sparsity data_page_bound={data_bound} \
         data_sharers=[{}] max_sharers=[{}]",
        proto.label(),
        law.sparsity.data_sharers.render(),
        law.sparsity.max_sharers.render(),
    );
    (out, Some(law))
}

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    let args = parse_args(flags)?;
    println!("== dsm-scale: symbolic node-count laws and dynamic sweep ==");
    println!(
        "config: scale=small fit=2..={} spots={} sweep={}{}",
        args.fit_hi,
        args.spots
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(","),
        args.sweep
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join(","),
        if args.smoke { " (smoke)" } else { "" },
    );
    println!();
    let specs: Vec<AppSpec> = args
        .apps
        .iter()
        .map(|app| app_by_name(app).expect("the app lists above are registry names"))
        .collect();

    // Section 1: certified symbolic laws, one cell per exact-plan app x
    // modelable protocol (an inexact plan gets a single line saying so).
    println!("-- certified scaling laws (exact equality over the fit domain) --");
    let law_cells: Vec<(AppSpec, Option<ProtocolKind>)> = specs
        .iter()
        .flat_map(|&spec| {
            if spec.build_planned(Scale::Small).plan().exact {
                MODELED.iter().map(|&p| (spec, Some(p))).collect()
            } else {
                vec![(spec, None)]
            }
        })
        .collect();
    let mut laws: Vec<(&str, ProtocolKind, ScaleLaw)> = Vec::new();
    let fitted = run_capped(&law_cells, |(spec, proto)| law_lines(spec, *proto, &args));
    for ((spec, proto), (lines, law)) in law_cells.iter().zip(fitted) {
        print!("{lines}");
        if let (Some(proto), Some(law)) = (*proto, law) {
            laws.push((spec.name, proto, law));
        }
    }
    println!();

    // Section 2: dynamic sweep under the full oracle stack.
    println!("-- dynamic sweep (full dsm-check oracles; formula vs counters) --");
    let headers = vec![
        "app", "protocol", "N", "time us", "upd msgs", "upd kB", "notices", "formula", "verdict",
    ];
    // (app, whether its plan is value-exact, protocol, N)
    let cells: Vec<(AppSpec, bool, ProtocolKind, usize)> = specs
        .iter()
        .flat_map(|&spec| {
            let value_exact = spec.build_planned(Scale::Small).plan().value_exact;
            let sweep = &args.sweep;
            ProtocolKind::REAL_SEVEN.iter().flat_map(move |&p| {
                sweep.iter().map(move |&n| (spec, value_exact, p, n))
            })
        })
        .collect();
    let (_, code) = run_cells("scale", headers, &cells, |&(spec, value_exact, proto, n), out| {
        let app = spec.name;
        let law = laws
            .iter()
            .find(|(a, p, _)| *a == app && *p == proto)
            .map(|(_, _, l)| l);
        let mut cfg = cell_config(&spec, proto, n, Scale::Small);
        // The symbolic laws cover the whole run; disable the
        // bench warmup window so net counters do too.
        cfg.warmup_iters = 0;
        let (run, check) = checked_run(spec.build(Scale::Small).as_mut(), cfg);
        let msgs = run.stats.net.msgs_of(MsgKind::UpdateFlush);
        let bytes = run.stats.net.bytes_of(MsgKind::UpdateFlush);
        let notices = if proto.is_bar() {
            check.version_bumps
        } else {
            check.notices_recorded
        };
        let clean = check.is_clean();
        let cell = format!("{app}-{}-n{n}", proto.label());
        // Cross-check the three traffic metrics with their dynamic
        // counterparts. Messages and notices are always exact
        // equality. Bytes are too for value-exact plans; for apps
        // whose stencils can rewrite a word with its previous
        // value (silent stores shrink dynamic diffs), the byte
        // formula is a certified *upper bound* instead.
        let formula = match law.and_then(|l| l.eval(n as u64)) {
            Some(want) => {
                let got = [msgs, bytes, notices];
                let mut bound = false;
                let bad: Vec<(&str, u64, u64)> = got
                    .iter()
                    .zip(&want[..3])
                    .zip(&METRICS[..3])
                    .filter(|((g, w), m)| {
                        if g == w {
                            return false;
                        }
                        if **m == "update_bytes" && !value_exact && g < w {
                            bound = true;
                            return false;
                        }
                        true
                    })
                    .map(|((g, w), m)| (*m, *w, *g))
                    .collect();
                if bad.is_empty() {
                    if bound { "bound" } else { "exact" }.to_string()
                } else {
                    let lines: Vec<String> = bad
                        .iter()
                        .map(|(m, w, g)| {
                            format!("{cell}: formula mismatch on {m}: predicted {w} observed {g}")
                        })
                        .collect();
                    out.flagged
                        .push((format!("{cell}-formula"), lines.join("\n")));
                    let metrics: Vec<&str> = bad.iter().map(|b| b.0).collect();
                    format!("MISMATCH({})", metrics.join(","))
                }
            }
            None => "-".to_string(),
        };
        if !clean {
            out.flagged.push((
                cell,
                format!(
                    "scale sweep violation: {app} under {} at N={n}\n{}",
                    proto.label(),
                    check.summary()
                ),
            ));
        }
        out.rows.push(vec![
            app.to_string(),
            proto.label().to_string(),
            n.to_string(),
            (run.elapsed.as_ns() / 1000).to_string(),
            msgs.to_string(),
            (bytes / 1024).to_string(),
            notices.to_string(),
            formula,
            if clean { "clean" } else { "FLAGGED" }.to_string(),
        ]);
    });
    Ok(code)
}
