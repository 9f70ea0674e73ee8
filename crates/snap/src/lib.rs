//! # dsm-snap — versioned, delta-encoded snapshots of full simulation state.
//!
//! A snapshot captures everything a run can observe — VM frames, twins and
//! dirty ranges (delta-encoded against the pristine image), protocol
//! tables, in-flight wire state, virtual-time clocks, scheduler RNG, and
//! (when a checker is attached) the race-detector and LRC-oracle shadow
//! state — such that a restored run is observationally identical to one
//! that re-executed from the start: same `state_hash`, same check-event
//! trace, same final results.
//!
//! ## Format
//!
//! ```text
//! magic    8 bytes  b"DSMSNAP\0"
//! version  u8       SNAP_VERSION (5)
//! flags    u8       bit 0: CHECK section present
//! digest   u64      configuration digest (see [`config_digest`])
//! sections ...      fourcc + length u64 + payload, in order:
//!   "CORE"          Cluster::snapshot
//!   "CHCK"          Checker::snapshot      (iff flags bit 0)
//!   "APP\0"         DsmApp::save_state
//! ```
//!
//! All integers are little-endian (the `dsm_sim::SnapWriter` convention),
//! and each section's payload is the `dsm_sim::State` walk of its root:
//! field order and container framing come from the `impl_state!`
//! declarations, not from code here. Unknown trailing sections are an
//! error — the format is closed per version; readers of version N reject
//! every other version byte, which keeps compatibility logic out of the
//! simulator entirely (the committed golden snapshot test pins the byte
//! layout instead).
//!
//! A snapshot is outside input: [`read_snapshot`] returns a
//! [`SnapError`] naming section, offset and cause for anything truncated,
//! corrupt, or taken from a differently shaped run, and never panics on
//! its bytes.

#![forbid(unsafe_code)]

use dsm_check::Checker;
use dsm_core::{Cluster, DsmApp, RunConfig, StepRun};
pub use dsm_sim::SnapError;
use dsm_sim::{SnapReader, SnapWriter};

/// The one and only snapshot format version this crate reads and writes.
/// v3: section payloads are generated from the `State` declarations
/// (DESIGN.md §16 lists every layout change against v2); the bulk
/// encodings — frame delta runs, race-detector shadow words, oracle pages
/// — are unchanged. v4: the network's write-only counters and its two
/// always-empty timer queues are gone (DESIGN.md §16 lists the fields).
/// v5: homeless write notices are one cluster-wide log with per-process
/// cursors instead of one map per process.
pub const SNAP_VERSION: u8 = 5;

/// Magic prefix of every snapshot.
pub const SNAP_MAGIC: [u8; 8] = *b"DSMSNAP\0";

const TAG_CORE: [u8; 4] = *b"CORE";
const TAG_CHECK: [u8; 4] = *b"CHCK";
const TAG_APP: [u8; 4] = *b"APP\0";

const FLAG_CHECK: u8 = 1;

/// Digest of the configuration facets a snapshot depends on. Restoring
/// under a different protocol, geometry, seed, or fault profile would
/// silently diverge, so [`read_snapshot`] asserts digest equality first.
pub fn config_digest(cfg: &RunConfig) -> u64 {
    // FNV-1a, same constants as the simulator's state hasher.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut fold = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    fold(cfg.protocol.label().as_bytes());
    fold(cfg.planted.label().as_bytes());
    fold(cfg.sim.transport.label().as_bytes());
    fold(&(cfg.sim.nprocs as u64).to_le_bytes());
    fold(&(cfg.sim.page_size as u64).to_le_bytes());
    fold(&cfg.sim.seed.to_le_bytes());
    fold(&(cfg.warmup_iters as u64).to_le_bytes());
    fold(&[u8::from(cfg.migration)]);
    fold(&(cfg.gc_diff_threshold as u64).to_le_bytes());
    fold(&cfg.sim.flush_drop_prob.to_bits().to_le_bytes());
    let f = &cfg.sim.fault;
    fold(&f.loss.to_bits().to_le_bytes());
    fold(&f.burst_start.to_bits().to_le_bytes());
    fold(&u64::from(f.burst_len).to_le_bytes());
    fold(&f.duplicate.to_bits().to_le_bytes());
    fold(&f.reorder.to_bits().to_le_bytes());
    fold(&(f.slow_node.map_or(u64::MAX, |n| n as u64)).to_le_bytes());
    fold(&f.slow_factor.to_bits().to_le_bytes());
    h
}

/// Serialize `cluster` (+ optional checker + application state) into a
/// self-describing snapshot.
pub fn write_snapshot<A: DsmApp + ?Sized>(
    cluster: &Cluster,
    app: &A,
    checker: Option<&Checker>,
) -> Vec<u8> {
    let mut w = SnapWriter::new();
    w.raw(&SNAP_MAGIC);
    w.u8(SNAP_VERSION);
    w.u8(if checker.is_some() { FLAG_CHECK } else { 0 });
    w.u64(config_digest(cluster.config()));

    let at = w.begin_section(TAG_CORE);
    cluster.snapshot(&mut w);
    w.end_section(at);

    if let Some(ck) = checker {
        let at = w.begin_section(TAG_CHECK);
        ck.snapshot(&mut w);
        w.end_section(at);
    }

    let at = w.begin_section(TAG_APP);
    app.save_state(&mut w);
    w.end_section(at);

    w.into_bytes()
}

/// Restore a [`write_snapshot`] capture into `cluster`/`app` (and the
/// checker, when the snapshot carries a CHECK section — in which case a
/// checker must be supplied). The cluster must come
/// from the same configuration and completed setup; any mismatch,
/// truncation, corruption or version skew is an error, after which the
/// targets are partially overwritten and only fit to be restored over.
pub fn read_snapshot<A: DsmApp + ?Sized>(
    bytes: &[u8],
    cluster: &mut Cluster,
    app: &mut A,
    checker: Option<&Checker>,
) -> Result<(), SnapError> {
    let mut r = SnapReader::new(bytes);
    let magic = r.raw(8)?;
    if magic != SNAP_MAGIC {
        let found = u64::from_le_bytes(magic.try_into().expect("8 bytes"));
        return r.bad_tag("magic", found);
    }
    let version = r.u8()?;
    if version != SNAP_VERSION {
        return r.bad_tag("version", u64::from(version));
    }
    let flags = r.u8()?;
    if flags & !FLAG_CHECK != 0 {
        return r.bad_tag("flags", u64::from(flags));
    }
    let digest = r.u64()?;
    r.geometry("configuration", config_digest(cluster.config()), digest)?;

    let mut core = r.section(TAG_CORE)?;
    cluster.restore(&mut core)?;
    core.finish()?;
    if flags & FLAG_CHECK != 0 {
        let Some(ck) = checker else {
            // Checker state with no checker to receive it.
            return r.bad_tag("flags", u64::from(flags));
        };
        let mut check = r.section(TAG_CHECK)?;
        ck.restore(&mut check)?;
        check.finish()?;
    }
    let mut state = r.section(TAG_APP)?;
    app.load_state(&mut state)?;
    state.finish()?;
    r.finish()
}

/// [`write_snapshot`] over a [`StepRun`]: the convenience entry the
/// explore driver and the travel bench use.
pub fn snapshot_run<A: DsmApp + ?Sized>(
    run: &StepRun<'_, A>,
    checker: Option<&Checker>,
) -> Vec<u8> {
    write_snapshot(run.cluster(), run.app(), checker)
}

/// [`read_snapshot`] over a [`StepRun`], for bytes this process produced
/// with [`snapshot_run`]: a failure to decode them is a broken internal
/// invariant, not bad input, so it panics with the error.
pub fn restore_run<A: DsmApp + ?Sized>(
    bytes: &[u8],
    run: &mut StepRun<'_, A>,
    checker: Option<&Checker>,
) {
    let (cl, app) = run.cluster_and_app_mut();
    if let Err(e) = read_snapshot(bytes, cl, app, checker) {
        panic!("restoring a snapshot this process wrote: {e}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::ProtocolKind;

    #[test]
    fn digest_distinguishes_configs() {
        let a = RunConfig::new(ProtocolKind::BarU);
        let mut b = RunConfig::new(ProtocolKind::BarU);
        assert_eq!(config_digest(&a), config_digest(&b));
        b.sim.seed ^= 1;
        assert_ne!(config_digest(&a), config_digest(&b));
        let c = RunConfig::new(ProtocolKind::LmwU);
        assert_ne!(config_digest(&a), config_digest(&c));
    }

    #[test]
    fn header_layout_is_pinned() {
        struct Nop;
        impl DsmApp for Nop {
            fn name(&self) -> &'static str {
                "nop"
            }
            fn phases(&self) -> usize {
                1
            }
            fn iters(&self) -> usize {
                0
            }
            fn setup(&mut self, _s: &mut dsm_core::SetupCtx<'_>) {}
            fn phase(
                &mut self,
                _ctx: &mut dsm_core::ExecCtx<'_>,
                _iter: usize,
                _site: usize,
            ) -> dsm_core::PhaseEnd {
                dsm_core::PhaseEnd::Barrier
            }
            fn check(&self, _c: &dsm_core::CheckCtx<'_>) -> f64 {
                0.0
            }
        }
        let mut app = Nop;
        let mut run = StepRun::new(
            &mut app,
            RunConfig::with_nprocs(ProtocolKind::BarU, 2),
            None,
            None,
        );
        let bytes = snapshot_run(&run, None);
        assert_eq!(&bytes[..8], &SNAP_MAGIC);
        assert_eq!(bytes[8], SNAP_VERSION);
        assert_eq!(bytes[9], 0); // no checker
        assert_eq!(&bytes[18..22], b"CORE");
        restore_run(&bytes, &mut run, None);
        let again = snapshot_run(&run, None);
        assert_eq!(bytes, again, "restore must round-trip byte-identically");
    }
}
