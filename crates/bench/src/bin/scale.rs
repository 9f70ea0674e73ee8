//! dsm-scale driver: certified scaling formulas vs dynamic runs.
//!
//! ```text
//! scale [--smoke]
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

#![forbid(unsafe_code)]

use std::sync::Arc;

use dsm_apps::{app_by_name, AppSpec, Scale};
use dsm_bench::cli::{or_usage, CliError};
use dsm_bench::harness::region_table;
use dsm_bench::table::TextTable;
use dsm_check::checked_run;
use dsm_core::{ProtocolKind, RunConfig};
use dsm_net::MsgKind;
use dsm_plan::{derive_law, measure, ScaleLaw, METRICS};

/// All seven real protocols, in the house order.
const PROTOCOLS: [ProtocolKind; 7] = [
    ProtocolKind::LmwI,
    ProtocolKind::LmwU,
    ProtocolKind::BarI,
    ProtocolKind::BarU,
    ProtocolKind::BarS,
    ProtocolKind::BarM,
    ProtocolKind::BarR,
];

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

fn parse_args(it: impl Iterator<Item = String>) -> Result<Args, CliError> {
    let mut args = Args {
        apps: dsm_apps::all_apps().iter().map(|s| s.name).collect(),
        sweep: vec![16, 64, 256],
        fit_hi: 96,
        spots: vec![128, 256],
        smoke: false,
    };
    for flag in it {
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

fn main() {
    let args = or_usage(
        "scale",
        "usage: scale [--smoke]",
        parse_args(std::env::args().skip(1)),
    );
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

    // Section 1: certified symbolic laws.
    let mut laws: Vec<(&str, ProtocolKind, ScaleLaw)> = Vec::new();
    println!("-- certified scaling laws (exact equality over the fit domain) --");
    for app in &args.apps {
        let spec = app_by_name(app).unwrap();
        let exact = spec.build_planned(Scale::Small).plan().exact;
        if !exact {
            println!("app={app} formulas=none reason=inexact-plan");
            continue;
        }
        for proto in MODELED {
            let law = cell_law(&spec, proto, args.fit_hi, &args.spots);
            for (m, f) in METRICS.iter().zip(&law.formulas) {
                println!(
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
            println!(
                "app={app} proto={} cert=sparsity data_page_bound={data_bound} \
                 data_sharers=[{}] max_sharers=[{}]",
                proto.label(),
                law.sparsity.data_sharers.render(),
                law.sparsity.max_sharers.render(),
            );
            laws.push((spec.name, proto, law));
        }
    }
    println!();

    // Section 2: dynamic sweep under the full oracle stack.
    println!("-- dynamic sweep (full dsm-check oracles; formula vs counters) --");
    let mut t = TextTable::new(vec![
        "app", "protocol", "N", "time us", "upd msgs", "upd kB", "notices", "formula", "verdict",
    ]);
    let mut dirty: Vec<String> = Vec::new();
    for app in &args.apps {
        let spec = app_by_name(app).unwrap();
        let value_exact = spec.build_planned(Scale::Small).plan().value_exact;
        for proto in PROTOCOLS {
            let law = laws
                .iter()
                .find(|(a, p, _)| *a == spec.name && *p == proto)
                .map(|(_, _, l)| l);
            for &n in &args.sweep {
                let regions = proto
                    .is_region()
                    .then(|| Arc::new(region_table(&spec, n, Scale::Small)));
                let mut cfg = RunConfig::with_nprocs(proto, n);
                cfg.regions.clone_from(&regions);
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
                        let bad: Vec<&str> = got
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
                            .map(|(_, m)| *m)
                            .collect();
                        if bad.is_empty() {
                            if bound { "bound" } else { "exact" }.to_string()
                        } else {
                            for m in &bad {
                                let i = METRICS.iter().position(|x| x == m).unwrap();
                                eprintln!(
                                    "--- {cell}: formula mismatch on {m}: \
                                     predicted {} observed {}",
                                    want[i],
                                    [msgs, bytes, notices][i],
                                );
                            }
                            dirty.push(format!("{cell}:formula"));
                            format!("MISMATCH({})", bad.join(","))
                        }
                    }
                    None => "-".to_string(),
                };
                if !clean {
                    let _ = std::fs::create_dir_all("results/repro");
                    let path = format!("results/repro/scale-{cell}.txt");
                    let body = format!(
                        "scale sweep violation: {app} under {} at N={n}\n{}",
                        proto.label(),
                        check.summary()
                    );
                    if std::fs::write(&path, &body).is_ok() {
                        eprintln!("--- {cell}: violation report written to {path}");
                    }
                    eprintln!("{body}");
                    dirty.push(cell.clone());
                }
                t.row(vec![
                    spec.name.to_string(),
                    proto.label().to_string(),
                    n.to_string(),
                    (run.elapsed.as_ns() / 1000).to_string(),
                    msgs.to_string(),
                    (bytes / 1024).to_string(),
                    notices.to_string(),
                    formula,
                    if clean { "clean" } else { "FLAGGED" }.to_string(),
                ]);
            }
        }
    }
    print!("{}", t.render());
    if !dirty.is_empty() {
        eprintln!(
            "{} scale cell(s) flagged: {}",
            dirty.len(),
            dirty.join(", ")
        );
        std::process::exit(1);
    }
}
