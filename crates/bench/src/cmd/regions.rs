//! Region report and measured traffic gate (`results/regions-small.txt`,
//! `results/regions-paper.txt`).
//!
//! For every registered application at one scale:
//!
//! * run the false-sharing prover over the lowered plan and print the
//!   proven region table (classification counts, per-page certificates,
//!   table digest) — any prover or plan change shows up as a reviewable
//!   diff against the committed copy;
//! * ground the certificates dynamically: a `bar-r` run with the table
//!   installed is replayed through a [`RegionSink`], and every certificate
//!   violation (a write outside its proven spans, or two writers' dynamic
//!   ranges overlapping on a false-shared page) fails the run;
//! * measure the region-granularity traffic win: the same workload under
//!   `bar-u` and `bar-r` must produce bit-identical checksums, and the
//!   report records flushed diff bytes and messages side by side, plus the
//!   per-page ledger for every proven false-shared page.
//!
//! Output is deterministic `key=value` lines (virtual time only); CI
//! regenerates it and diffs against the committed copy. Exits nonzero on
//! any certificate violation or checksum divergence — the report is also
//! the gate.

use std::fmt::Write as _;
use std::process::ExitCode;
use std::sync::Arc;

use crate::cli::{CliError, Flags};

use dsm_apps::all_apps;
use dsm_core::{run_app, run_app_checked, PageClass, ProtocolKind, RunConfig};
use dsm_plan::{analyze, build_schedule, prove_regions, render_region_report, RegionSink};

const NPROCS: usize = 8;

pub const USAGE: &str = "usage: dsm regions --scale <small|paper>";

pub fn run(flags: Flags) -> Result<ExitCode, CliError> {
    let scale = flags.scale_only()?;
    let scale_label = scale.label();

    let mut out = String::new();
    let _ = writeln!(
        out,
        "Plan-proven sub-page regions: static false-sharing certificates,\n\
         dynamic grounding of every proof obligation, and measured bar-r vs\n\
         bar-u flush traffic. scale={scale_label} nprocs={NPROCS}"
    );
    let mut ok = true;

    for spec in all_apps() {
        let _ = writeln!(out);

        // Static half: prove the table from the lowered plan.
        let mut probe = spec.build_planned(scale);
        let an = analyze(probe.as_mut(), NPROCS);
        let sched = build_schedule(&an.plan, ProtocolKind::BarR, an.iters);
        let rt = Arc::new(prove_regions(&an.plan, &an.layout, &sched));
        render_region_report(&mut out, spec.name, &rt);

        // Dynamic half: ground every certificate against a real bar-r run.
        let (sink, outcome) = RegionSink::new(Arc::clone(&rt), an.layout.page_size);
        let mut cfg = RunConfig::with_nprocs(ProtocolKind::BarR, NPROCS);
        cfg.regions = Some(Arc::clone(&rt));
        let rr = run_app_checked(spec.build(scale).as_mut(), cfg, Box::new(sink));
        let o = outcome.borrow();
        let _ = writeln!(
            out,
            "app={} grounding writes_checked={} false_shared_pages_hit={} \
             contended_page_epochs={} violations={}",
            spec.name,
            o.writes_checked,
            o.false_shared_pages_hit,
            o.contended_page_epochs,
            o.errors.len(),
        );
        if !o.errors.is_empty() {
            ok = false;
            for e in &o.errors {
                eprintln!("regions: {} certificate violation: {e}", spec.name);
            }
        }

        // Measured traffic: same workload under page-granularity bar-u.
        let ru = run_app(
            spec.build(scale).as_mut(),
            RunConfig::with_nprocs(ProtocolKind::BarU, NPROCS),
        );
        let matches = rr.checksum.to_bits() == ru.checksum.to_bits();
        if !matches {
            ok = false;
            eprintln!(
                "regions: {} checksum diverged: bar-r {} vs bar-u {}",
                spec.name, rr.checksum, ru.checksum
            );
        }
        let _ = writeln!(
            out,
            "app={} traffic bar_u_flush_bytes={} bar_r_flush_bytes={} \
             bar_u_flush_msgs={} bar_r_flush_msgs={} twin_skips={} elided_pushes={} \
             push_bytes_saved={} checksums={}",
            spec.name,
            ru.stats.flush_bytes_total(),
            rr.stats.flush_bytes_total(),
            ru.stats.flush_msgs_by_page.iter().sum::<u64>(),
            rr.stats.flush_msgs_by_page.iter().sum::<u64>(),
            rr.stats.region_twin_skips,
            rr.stats.region_elided_pushes,
            rr.stats.region_push_bytes_saved,
            if matches { "match" } else { "DIVERGED" },
        );
        // The per-page ledger on every proven false-shared page — the
        // pages where region granularity is supposed to pay.
        let at = |v: &[u64], p: u32| v.get(p as usize).copied().unwrap_or(0);
        for c in rt.iter().filter(|c| c.class == PageClass::FalseShared) {
            let _ = writeln!(
                out,
                "app={} page={} false-shared bar_u_bytes={} bar_r_bytes={} \
                 bar_u_msgs={} bar_r_msgs={}",
                spec.name,
                c.page,
                at(&ru.stats.flush_bytes_by_page, c.page),
                at(&rr.stats.flush_bytes_by_page, c.page),
                at(&ru.stats.flush_msgs_by_page, c.page),
                at(&rr.stats.flush_msgs_by_page, c.page),
            );
        }
    }

    print!("{out}");
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("regions: certificate or checksum gate FAILED (see lines above)");
        ExitCode::FAILURE
    })
}
