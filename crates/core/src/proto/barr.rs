//! `bar-r`: the region-granularity variant of `bar-u`.
//!
//! bar-r is bar-u plus a statically proven fast path. The plan layer's
//! false-sharing prover ([`crate::mem::RegionTable`]) certifies pages
//! whose writers have pairwise-disjoint store spans; on those pages:
//!
//! * the **twin is skipped** at write-fault time — the frame arms
//!   twin-free dirty tracking instead, and the end-of-epoch delta is a
//!   verbatim capture of the recorded ranges ([`Diff::capture_in`]).
//!   Soundness is the commuting-writer certificate: each span has a
//!   single writer, so the writer's local span contents are globally
//!   freshest and shipping them verbatim commutes with every concurrent
//!   delta (Darcs-style: deltas commute iff their spans are disjoint).
//!   The recorded dynamic ranges are debug-asserted to stay inside the
//!   proven spans — the certificate's grounding obligation;
//! * **update pushes are flushed at region granularity**: a push to a
//!   proven reader is *clipped* to that reader's proven load spans — the
//!   delta words it provably never reads are false-sharing traffic and
//!   stay home — and a push to a copyset member the plan proves loads
//!   none of the writer's spans is *elided* outright. The home still
//!   receives every full delta (its copy must stay canonical), and the
//!   `UpdateFlush` event keeps the full copyset so the checker's
//!   copyset-omission invariant is unchanged; a
//!   [`CheckEvent::FalseShareElided`] event names the skipped members,
//!   and the region-aware checker verifies each one against the
//!   certificate.
//!
//! Pages without a certificate — true-shared, unanalyzed, or with no
//! region table installed at all — take the bar-u paths byte-for-byte.
//! Dispatch lives at three points in `bar.rs`: the fault-time twin
//! decision, the pre-barrier per-page flush, and the post-release set of
//! writers a copy must hear from (an elided member must not mistake the
//! missing push for a lost flush and invalidate a provably clean copy).

use dsm_sim::Category;
use dsm_vm::{Delta, PageId, Pages};

/// Intersect a sorted, disjoint range iterator with sorted, disjoint
/// spans. The result covers exactly `ranges ∩ spans`; since every actual
/// store landed inside the spans, it still covers every written word.
fn clip_to_spans(
    ranges: impl Iterator<Item = (u32, u32)>,
    spans: &[(u32, u32)],
) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    for (rs, re) in ranges {
        let i = spans.partition_point(|&(_, se)| se <= rs);
        for &(ss, se) in &spans[i..] {
            if ss >= re {
                break;
            }
            let (lo, hi) = (rs.max(ss), re.min(se));
            if lo < hi {
                out.push((lo, hi));
            }
        }
    }
    out
}

use crate::check::CheckEvent;
use crate::drive::cluster::Cluster;
use crate::mem::RegionTable;
use crate::proto::bar::DeliveryKind;

impl<S: Pages> Cluster<S> {
    /// True when `pid`'s write fault on `page` may skip the twin: bar-r
    /// with a region table whose certificate covers the page and names
    /// `pid` as one of its proven writers.
    pub(crate) fn barr_twin_free(&self, pid: usize, page: PageId) -> bool {
        if !self.cfg.protocol.is_region() {
            return false;
        }
        let Some(rt) = &self.cfg.regions else {
            return false;
        };
        rt.cert(page.0)
            .is_some_and(|c| c.certified() && c.writer(pid).is_some())
    }

    /// End-of-epoch flush for one tracked (twin-free) page. Mirrors the
    /// bar-u diff branch of `bar_pre_barrier` with the delta captured
    /// from dirty ranges instead of a twin comparison, pushes clipped to
    /// each reader's proven load spans, and pushes elided entirely for
    /// certified non-readers. Returns whether this page contributed a
    /// version bump.
    pub(crate) fn barr_pre_barrier_page(&mut self, pid: usize, page: PageId) -> bool {
        let rt: std::sync::Arc<RegionTable> = self
            .cfg
            .regions
            .clone()
            .expect("twin-free tracking armed without a region table");
        let cert = rt.cert(page.0).expect("tracked page without certificate");
        let wr = cert
            .writer(pid)
            .expect("tracked page without a writer certificate");

        let ranges = self.procs[pid].store.tracked_ranges(page);
        if ranges.is_clean() {
            // Defensive: an armed page with no recorded write flushes
            // nothing (bar-u's empty-diff case).
            self.procs[pid].store.disarm_tracking(page);
            self.stats.empty_diffs += 1;
            return false;
        }
        // The certificate's dynamic grounding: every recorded range must
        // lie inside the statically proven spans. A collapsed range set
        // lost that information, so the capture falls back to the full
        // proven spans — still sound (single writer per span), merely
        // bigger. A *coarse* cover (scattered writes merged past the
        // range cap) may straddle the gaps between this writer's spans,
        // so it is clipped back to them: capturing another writer's words
        // would ship stale bytes over fresh ones.
        let spans: Vec<(u32, u32)> = if ranges.is_all() {
            wr.spans.clone()
        } else if ranges.is_coarse() {
            clip_to_spans(ranges.iter(), &wr.spans)
        } else {
            debug_assert!(
                ranges.within(&wr.spans),
                "region certificate violated: page {} writer {pid} wrote outside proven spans",
                page.0
            );
            ranges.iter().collect()
        };
        let captured: usize = spans.iter().map(|&(s, e)| (e - s) as usize).sum();
        // The region scan touches only the captured bytes (no page-wide
        // twin comparison), but pays the same fixed diff overhead.
        let scan = self.cfg.sim.costs.diff_create(captured);
        self.charge(pid, Category::Os, scan);
        self.stats.diffs_created += 1;
        let diff = self.procs[pid].store.capture(page, &spans, &mut self.pool);
        self.procs[pid].store.disarm_tracking(page);
        debug_assert!(!diff.is_empty(), "non-clean ranges captured no runs");

        self.bar_bump(pid, page);

        // The home gets the full delta (its copy is canonical) and the
        // `UpdateFlush` event the full copyset; each proven reader gets the
        // delta clipped to its load spans, everyone else an elision notice.
        let cs = self.copyset(page).clone();
        let mut elided = crate::proto::CopySet::EMPTY;
        let for_reader = |cl: &mut Self, q: usize| {
            if !wr.readers.contains(q) {
                elided.insert(q);
                cl.stats.region_elided_pushes += 1;
                return None;
            }
            // No load footprint recorded for a proven reader: the bitmap
            // was computed from the same data, so this cannot happen with
            // a prover-built table — stay conservative.
            let clipped = cert
                .loads_of(q)
                .map(|lq| clip_to_spans(spans.iter().copied(), lq))
                .filter(|clipped| *clipped != spans);
            let pdiff = match clipped {
                Some(clipped) => cl.procs[pid].store.capture(page, &clipped, &mut cl.pool),
                None => diff.clone(),
            };
            cl.stats.region_push_bytes_saved += (diff.wire_bytes() - pdiff.wire_bytes()) as u64;
            Some(pdiff)
        };
        self.publish(
            pid,
            page,
            DeliveryKind::Update,
            Some(&cs),
            &diff,
            for_reader,
        );
        if !elided.is_empty() {
            self.emit(CheckEvent::FalseShareElided {
                writer: pid,
                page: page.0,
                elided: &elided,
            });
        }
        S::recycle(&mut self.pool, diff);
        true
    }

    /// Whether `writer`'s flush of `page` is pushed to copyset member
    /// `reader` — the names `reader` must hear from to self-validate.
    /// Always, except on a bar-r certified page whose certificate names
    /// the writer and proves `reader` loads none of its spans: that push
    /// is elided, and the reader stays current without it — sound because
    /// it provably never loads the stale words. (A writer the certificate
    /// does not name took the twin path and pushed to everyone.)
    pub(crate) fn barr_pushes_to(&self, writer: usize, reader: usize, page: PageId) -> bool {
        if !self.cfg.protocol.is_region() {
            return true;
        }
        let cert = self.cfg.regions.as_ref().and_then(|rt| rt.cert(page.0));
        cert.filter(|c| c.certified())
            .and_then(|c| c.writer(writer))
            .is_none_or(|wr| wr.readers.contains(reader))
    }
}
