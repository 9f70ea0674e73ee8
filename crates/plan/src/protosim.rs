//! The static predictor: the runtime's own protocol code, run over
//! dataless pages.
//!
//! `dsm_core::Cluster` is generic over the per-process page table.
//! [`predict`] instantiates it over [`DigestPages`] — frames that hold
//! protection, version and twin state but no bytes, and remember only
//! which spans a plan says were modified — and drives it the way an
//! application would: every page each process touches in each epoch of the
//! schedule goes through the cluster's access path (faults, fetches,
//! twins), every modified span is recorded in the touched frame, and every
//! barrier is the cluster's barrier, over the real `Network` and clocks.
//! The [`Prediction`] is then *read* from that run: the flush stream from
//! the check events a [`PlanSink`] saw, everything else from the
//! cluster's own statistics, homes and copysets. There is no second copy
//! of any protocol decision to keep in step.
//!
//! Why this is exact (for exact plans): within an epoch the virtual
//! cluster runs processes sequentially in pid order, protocol state is
//! independent across pages, and the order of one process's accesses to a
//! page never changes the resulting metadata — so replaying per-(process,
//! page, epoch) digests in pid order reproduces the fault, twin, copyset,
//! version and home evolution of the real run. Reduction emulation on the
//! homeless protocols reads and writes real slots, so its extra epochs
//! come from [`crate::schedule`] instead of `drive::reduce`.
//!
//! Every protocol is predictable except `bar-r`: its twin-free deltas are
//! captured from the dirty ranges the application's own store calls
//! record, which a digest does not have; the regions cross-check
//! validates it against real runs instead.

use dsm_core::net::{MsgKind, NetStats};
use dsm_core::proto::CopySet;
use dsm_core::vm::{PageId, Pages};
use dsm_core::{Cluster, ProtocolKind, RunConfig};
use dsm_sim::transport::TransportKind;

use crate::digest::DigestPages;
use crate::dynamic::{PlanOutcome, PlanSink};
use crate::layout::Layout;
use crate::schedule::{epoch_touches, lower_epoch, EpochKind, EpochSpec};
use crate::spec::AppPlan;

/// One predicted update flush, matching the `UpdateFlush` check event:
/// `(writer, page, copyset)`. Ties on `(writer, page)` cannot occur, so
/// the derived ordering sorts exactly as the old bitmask triples did.
pub type FlushTriple = (u16, u32, CopySet);

/// Steady-state (end-of-run) copysets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SteadyCopysets {
    /// Invalidate protocols and `seq`: no copysets maintained.
    None,
    /// Home-based update protocols: one global set per page
    /// (`(page, members)`, sorted, non-empty entries only).
    PerPage(Vec<(u32, CopySet)>),
    /// `lmw-u`: per-writer sets (`(page, writer, members)`, sorted,
    /// non-empty entries only).
    PerWriter(Vec<(u32, u16, CopySet)>),
}

/// The full static prediction for one `(app, protocol, nprocs, scale)` —
/// or, read off a real cluster, the same facts as observed.
#[derive(Clone, Debug, PartialEq)]
pub struct Prediction {
    pub protocol: ProtocolKind,
    /// Sorted flush triples per barrier, in barrier order. Length equals
    /// the number of barriers in the schedule.
    pub flushes: Vec<Vec<FlushTriple>>,
    /// Total update messages (one per flush triple per copyset recipient).
    pub flush_msgs: u64,
    /// Total flushed payload words across all update messages.
    pub flush_words: u64,
    /// Total diff runs across all update messages (one wire run header
    /// each; with the 8-byte page and 8-byte run headers this closes the
    /// exact wire-byte model `8·(msgs + runs + words)`).
    pub flush_runs: u64,
    pub copysets: SteadyCopysets,
    /// Write-notice control records: version bumps for the bar family,
    /// notice records filed at consumers (`notices × (n-1)`) for the lmw
    /// family, zero for `seq`. This is the scaling model's third traffic
    /// metric alongside `flush_msgs` and `flush_words`.
    pub notices: u64,
    /// Final page-to-home assignment (bar family; initial all-zero map
    /// otherwise).
    pub homes: Vec<u16>,
    /// Pages whose home migrated away from process 0.
    pub migrations: usize,
    /// Data fetches: page fetches from the home (bar family) or
    /// diff/full-page fetches from writers (lmw family). Each costs a
    /// request/reply message pair on the two-sided wire but a single
    /// one-sided read on the RDMA backend — the quantity the per-backend
    /// traffic model pivots on.
    pub fetches: u64,
    /// The run's message and byte counts per kind.
    pub net: NetStats,
}

impl Prediction {
    /// Data-plane messages on the backend the run used: everything but
    /// barrier arrivals and releases, which are pinned two-sided and
    /// identical across backends, so they cancel out of any ranking
    /// comparison. A fetch is a request and a reply two-sided but one
    /// remote read one-sided; flushes are one message either way.
    pub fn transport_ops(&self) -> u64 {
        let sync = [MsgKind::BarrierArrive, MsgKind::BarrierRelease];
        self.net.total_msgs() - sync.iter().map(|&k| self.net.msgs_of(k)).sum::<u64>()
    }

    /// Read the prediction's facts off a finished run: the traffic a
    /// [`PlanSink`] observed, and the cluster's own counters and tables.
    /// Over page digests that is the prediction; over a real cluster it is
    /// what the prediction is cross-validated against.
    pub fn read<S: Pages>(cl: &Cluster<S>, seen: PlanOutcome) -> Prediction {
        let protocol = cl.config().protocol;
        let mut per_page = Vec::new();
        let mut per_writer = Vec::new();
        for (page, writer, members) in cl.copysets().filter(|(_, _, cs)| !cs.is_empty()) {
            match writer {
                None => per_page.push((page, members.clone())),
                Some(w) => per_writer.push((page, w, members.clone())),
            }
        }
        per_page.sort_unstable();
        per_writer.sort_unstable();
        let net = cl.stats().net;
        Prediction {
            protocol,
            flushes: seen.observed_flushes,
            flush_msgs: seen.flush_msgs,
            flush_words: seen.flush_words,
            flush_runs: seen.flush_runs,
            copysets: match (protocol.is_update(), protocol.is_bar()) {
                (false, _) => SteadyCopysets::None,
                (true, true) => SteadyCopysets::PerPage(per_page),
                (true, false) => SteadyCopysets::PerWriter(per_writer),
            },
            notices: seen.notices,
            homes: cl.homes().iter().map(|&h| h as u16).collect(),
            migrations: cl.homes().iter().filter(|&&h| h != 0).count(),
            fetches: net.msgs_in(dsm_core::net::MsgCategory::DataRequest),
            net,
        }
    }
}

/// Total page count implied by a layout (the allocator's reservation
/// high-water mark, including the lazily allocated reduction arrays).
pub fn total_pages(lay: &Layout) -> usize {
    lay.arrays
        .iter()
        .map(|a| ((a.base + a.bytes()).div_ceil(lay.page_size)) as usize)
        .max()
        .unwrap_or(0)
}

/// Run `protocol` over the full schedule on page digests, with data
/// traffic on `transport`, and return the prediction.
///
/// Panics on `bar-r` (see the module docs) and on inexact plans (their
/// declared mods over-approximate, so flush prediction would be unsound
/// to trust).
pub fn predict(
    plan: &AppPlan,
    lay: &Layout,
    schedule: &[EpochSpec],
    protocol: ProtocolKind,
    transport: TransportKind,
) -> Prediction {
    assert!(
        plan.exact,
        "{}: flush prediction requires an exact plan",
        plan.app
    );
    assert!(
        protocol != ProtocolKind::BarR,
        "bar-r region flushes are validated by the regions cross-check, \
         not the page-granularity predictor"
    );
    let mut cfg = RunConfig::with_nprocs(protocol, lay.nprocs);
    cfg.sim.transport = transport;
    let page_size = cfg.sim.page_size as u64;
    assert_eq!(
        page_size, lay.page_size,
        "layout probed at another page size"
    );
    let mut cl: Cluster<DigestPages> = Cluster::new(cfg);
    let (sink, seen) = PlanSink::new(plan.clone(), lay.clone(), schedule.to_vec());
    cl.install_check_sink(Box::new(sink));
    cl.alloc("plan", total_pages(lay) * lay.page_size as usize);
    cl.set_phases_per_iter(plan.phases.len());
    cl.distribute();

    for spec in schedule {
        for pid in 0..lay.nprocs {
            let acc = lower_epoch(plan, lay, spec, pid);
            let mods = acc.mods.page_spans(page_size);
            let mut mods = mods.iter().peekable();
            for t in epoch_touches(&acc, page_size) {
                let page = PageId(t.page);
                // A write fault validates first, as a read would.
                let store = cl.access(pid, page, t.written);
                while let Some(&&(_, lo, hi)) = mods.peek().filter(|m| m.0 == t.page) {
                    store.record(page, lo, hi);
                    mods.next();
                }
            }
            debug_assert!(mods.next().is_none(), "mods outside the stores");
        }
        if !spec.barrier {
            continue;
        }
        // An emulated reduction is one application-level barrier around
        // two protocol barriers: slot publications, the combine epoch,
        // then the post-barrier work (`drive::reduce`).
        if spec.kind == EpochKind::Body {
            cl.barrier_enter();
        }
        cl.barrier_core(None);
        if spec.slot_writes.is_none() {
            cl.barrier_leave();
        }
    }
    Prediction::read(&cl, seen.take())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transport_ops_halves_the_fetch_traffic_one_sided() {
        // 10 fetches: 20 request/reply messages two-sided, 10 one-sided
        // reads; 7 flushes cost one message either way; barrier traffic is
        // not data-plane.
        let run = |kinds: &[(MsgKind, u64)]| {
            let mut cl: Cluster<DigestPages> =
                Cluster::new(RunConfig::with_nprocs(ProtocolKind::BarU, 2));
            cl.distribute();
            let mut p = Prediction::read(&cl, PlanOutcome::default());
            for &(kind, n) in kinds {
                (0..n).for_each(|_| p.net.record(kind, 0));
            }
            p.transport_ops()
        };
        let sync = [(MsgKind::BarrierArrive, 3), (MsgKind::BarrierRelease, 3)];
        let two = [
            (MsgKind::PageRequest, 10),
            (MsgKind::PageReply, 10),
            (MsgKind::UpdateFlush, 7),
        ];
        let one = [(MsgKind::OneSidedRead, 10), (MsgKind::OneSidedWrite, 7)];
        assert_eq!(run(&[&two[..], &sync[..]].concat()), 27);
        assert_eq!(run(&[&one[..], &sync[..]].concat()), 17);
    }
}
