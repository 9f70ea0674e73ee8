//! Run statistics: the paper's Table 1 columns, Figure 3 breakdown, and
//! speedups.

use dsm_net::NetStats;
use dsm_sim::{Time, TimeBreakdown};

use crate::config::ProtocolKind;

/// Protocol event counters for one measurement window.
///
/// The first four derived quantities (`diffs_created`, `remote_misses`,
/// [`RunStats::paper_messages`], [`RunStats::data_kbytes`]) are the columns
/// of the paper's Table 1.
#[derive(Clone, Debug, Default)]
pub struct RunStats {
    /// Diff creations (page-length comparisons), including empty results.
    pub diffs_created: u64,
    /// Empty diffs among `diffs_created` (overdrive's wasted scans).
    pub empty_diffs: u64,
    /// Faults whose service required network traffic.
    pub remote_misses: u64,
    /// Faults serviced entirely locally (lmw-u stored updates).
    pub local_faults: u64,
    /// SIGSEGV deliveries.
    pub segvs: u64,
    /// `mprotect` calls.
    pub mprotects: u64,
    /// Twin creations/refreshes.
    pub twins: u64,
    /// Barriers executed (including reduction-emulation barriers).
    pub barriers: u64,
    /// Homeless-protocol garbage collections and diffs they discarded.
    pub gc_events: u64,
    pub gc_diffs_discarded: u64,
    /// Home migrations performed (typically during warmup, so visible only
    /// when measuring from iteration 0).
    pub migrations: u64,
    /// lmw-u out-of-order update store inserts.
    pub update_inserts: u64,
    /// Overdrive: predicted pages that turned out unmodified.
    pub overdrive_zero_diffs: u64,
    /// Overdrive: unanticipated writes trapped.
    pub overdrive_unanticipated: u64,
    /// Overdrive: cluster reversions to bar-u.
    pub overdrive_reversions: u64,
    /// bar-r: write faults on certified pages where the twin (and its
    /// creation cost) was skipped in favor of twin-free dirty tracking.
    pub region_twin_skips: u64,
    /// bar-r: update pushes elided because the certificate proves the
    /// copyset member never reads the writer's spans.
    pub region_elided_pushes: u64,
    /// bar-r: wire bytes saved by clipping update pushes to the
    /// receiver's proven load spans (full delta minus clipped delta,
    /// summed over every non-elided push).
    pub region_push_bytes_saved: u64,
    /// Flushed diff wire bytes per page (home flushes plus update pushes),
    /// indexed by page; grown on demand, so pages past the last flushed
    /// one are absent. Maintained by the home-based protocols — this is
    /// the per-page ledger the bar-r vs bar-u traffic comparison reads.
    pub flush_bytes_by_page: Vec<u64>,
    /// Flushed diff message count per page, same indexing.
    pub flush_msgs_by_page: Vec<u64>,
    /// Network counters. The network layer owns them:
    /// [`crate::Cluster::stats`] and [`crate::Cluster::report`] copy them
    /// in, and the cluster's own copy stays zero, so it is not state.
    pub net: NetStats,
}

dsm_sim::impl_state!(RunStats {
    state: diffs_created, empty_diffs, remote_misses, local_faults, segvs, mprotects, twins,
        barriers, gc_events, gc_diffs_discarded, migrations, update_inserts,
        overdrive_zero_diffs, overdrive_unanticipated, overdrive_reversions,
        region_twin_skips, region_elided_pushes, region_push_bytes_saved,
        flush_bytes_by_page, flush_msgs_by_page;
    config: net;
});

impl RunStats {
    /// Record `bytes` of flushed diff traffic for `page` in the per-page
    /// ledger, growing it on demand.
    pub fn note_flush(&mut self, page: usize, bytes: u64) {
        if self.flush_bytes_by_page.len() <= page {
            self.flush_bytes_by_page.resize(page + 1, 0);
            self.flush_msgs_by_page.resize(page + 1, 0);
        }
        self.flush_bytes_by_page[page] += bytes;
        self.flush_msgs_by_page[page] += 1;
    }

    /// Total flushed diff wire bytes across all pages.
    pub fn flush_bytes_total(&self) -> u64 {
        self.flush_bytes_by_page.iter().sum()
    }

    /// The paper's "Messages" column.
    pub fn paper_messages(&self) -> u64 {
        self.net.paper_messages()
    }

    /// The paper's "Data (kbytes)" column.
    pub fn data_kbytes(&self) -> f64 {
        self.net.data_kbytes()
    }
}

/// Everything a run produces.
#[derive(Clone, Debug)]
pub struct RunReport {
    pub app: String,
    pub protocol: ProtocolKind,
    pub nprocs: usize,
    /// Event counters over the measurement window.
    pub stats: RunStats,
    /// Per-process time breakdown over the measurement window.
    pub per_proc: Vec<TimeBreakdown>,
    /// Measured parallel time: the slowest process's window.
    pub elapsed: Time,
    /// Shared segment size in pages (the paper's "shared segment size").
    pub segment_pages: usize,
    /// Application checksum, for cross-protocol correctness comparison.
    pub checksum: f64,
    /// Measured sequential baseline time, when one was run.
    pub seq_elapsed: Option<Time>,
}

impl RunReport {
    /// Speedup vs the sequential baseline, if one is attached.
    pub fn speedup(&self) -> Option<f64> {
        self.seq_elapsed
            .map(|s| s.as_ns() as f64 / self.elapsed.as_ns().max(1) as f64)
    }

    /// Aggregate breakdown over all processes.
    pub fn total_breakdown(&self) -> TimeBreakdown {
        self.per_proc
            .iter()
            .copied()
            .fold(TimeBreakdown::ZERO, |a, b| a + b)
    }

    /// Attach a sequential baseline time.
    #[must_use]
    pub fn with_baseline(mut self, seq: Time) -> Self {
        self.seq_elapsed = Some(seq);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_sim::Category;

    fn report(elapsed_us: u64) -> RunReport {
        RunReport {
            app: "t".into(),
            protocol: ProtocolKind::BarU,
            nprocs: 2,
            stats: RunStats::default(),
            per_proc: vec![TimeBreakdown::ZERO; 2],
            elapsed: Time::from_us(elapsed_us),
            segment_pages: 0,
            checksum: 0.0,
            seq_elapsed: None,
        }
    }

    #[test]
    fn speedup_requires_baseline() {
        let r = report(100);
        assert!(r.speedup().is_none());
        let r = r.with_baseline(Time::from_us(600));
        assert!((r.speedup().unwrap() - 6.0).abs() < 1e-12);
    }

    #[test]
    fn total_breakdown_sums_processes() {
        let mut r = report(10);
        r.per_proc[0].charge(Category::App, Time::from_us(4));
        r.per_proc[1].charge(Category::App, Time::from_us(6));
        r.per_proc[1].charge(Category::Os, Time::from_us(1));
        let total = r.total_breakdown();
        assert_eq!(total.app, Time::from_us(10));
        assert_eq!(total.os, Time::from_us(1));
    }

    #[test]
    fn paper_columns_delegate_to_net() {
        let mut s = RunStats::default();
        s.net.record(dsm_net::MsgKind::PageRequest, 0);
        s.net.record(dsm_net::MsgKind::PageReply, 8192);
        assert_eq!(s.paper_messages(), 1);
        assert!((s.data_kbytes() - 8.0).abs() < 1e-12);
    }
}
