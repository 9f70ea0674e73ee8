//! Region reports and dynamic grounding of the false-sharing proofs.
//!
//! Two halves:
//!
//! * **reporting** — deterministic `key=value` lines for one proven
//!   [`RegionTable`] (`results/regions-*.txt`): per-app classification
//!   counts, one line per false-shared page naming every writer's spans
//!   and proven readers, and an FNV-1a digest of the full table so any
//!   change to the prover or the plans shows up as a reviewable diff;
//! * **dynamic grounding** — [`RegionSink`], a `CheckSink` that replays a
//!   real run's write stream against the certificates: every write by a
//!   certified writer must land inside its proven spans, and on
//!   false-shared pages the per-epoch dynamic write ranges of distinct
//!   writers must be disjoint (the commutation premise, observed). A
//!   violation is exactly a certificate the runtime falsified.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

use dsm_core::{CheckEvent, CheckSink, PageClass, RegionTable};

use crate::report::fnv1a64;

/// Digest of a full region table: page, class, every writer's pid, spans,
/// and reader bitmap, then every reader's pid and load spans (the clip
/// targets for region-granularity pushes), in table order.
pub fn region_digest(rt: &RegionTable) -> u64 {
    fnv1a64(rt.iter().flat_map(|c| {
        let class = match c.class {
            PageClass::Exclusive => 0u64,
            PageClass::TrueShared => 1,
            PageClass::FalseShared => 2,
        };
        let mut vs = vec![u64::from(c.page), class];
        for w in &c.writers {
            vs.push(u64::from(w.writer));
            // The member-set word stream: inline bitmap word first, then
            // one word per spillover pid — identical to the old raw-u64
            // fold whenever every reader pid is below 64.
            vs.extend(w.readers.digest_words());
            for &(s, e) in &w.spans {
                vs.push(u64::from(s));
                vs.push(u64::from(e));
            }
        }
        for l in &c.loads {
            vs.push(u64::from(l.reader));
            for &(s, e) in &l.spans {
                vs.push(u64::from(s));
                vs.push(u64::from(e));
            }
        }
        vs
    }))
}

/// Append the report block for one app's proven table: a summary line
/// with classification counts and the digest, then one line per
/// false-shared page spelling out the certificate.
pub fn render_region_report(out: &mut String, app: &str, rt: &RegionTable) {
    let count = |cl: PageClass| rt.iter().filter(|c| c.class == cl).count();
    let span_bytes: u64 = rt
        .iter()
        .filter(|c| c.certified())
        .flat_map(|c| c.writers.iter())
        .map(dsm_core::WriterRegions::span_bytes)
        .sum();
    let _ = writeln!(
        out,
        "app={app} regions pages_written={} exclusive={} true_shared={} false_shared={} \
         certified={} certified_span_bytes={span_bytes} cert_digest={:#018x}",
        rt.len(),
        count(PageClass::Exclusive),
        count(PageClass::TrueShared),
        count(PageClass::FalseShared),
        rt.certified_pages(),
        region_digest(rt),
    );
    for c in rt.iter().filter(|c| c.class == PageClass::FalseShared) {
        let mut line = format!("app={app} page={} class=false-shared writers=", c.page);
        for (i, w) in c.writers.iter().enumerate() {
            if i > 0 {
                line.push('+');
            }
            let _ = write!(line, "p{}:", w.writer);
            for (j, &(s, e)) in w.spans.iter().enumerate() {
                if j > 0 {
                    line.push(',');
                }
                let _ = write!(line, "[{s},{e})");
            }
            let mut words = w.readers.digest_words();
            let inline = words.next().unwrap_or(0);
            let _ = write!(line, "/r{inline:#x}");
            for spill in words {
                let _ = write!(line, "+p{spill}");
            }
        }
        let _ = writeln!(out, "{line}");
    }
}

/// What a grounded run produced.
#[derive(Debug, Default)]
pub struct RegionOutcome {
    /// Certificate violations, formatted for the failure message (capped
    /// at [`RegionSink::MAX_ERRORS`]).
    pub errors: Vec<String>,
    /// Writes that landed on a certified page and were checked against a
    /// writer certificate.
    pub writes_checked: u64,
    /// Distinct false-shared pages that saw at least one write.
    pub false_shared_pages_hit: usize,
    /// Epochs in which two certified writers both wrote the same
    /// false-shared page (the disjointness premise was exercised, not
    /// vacuous).
    pub contended_page_epochs: u64,
}

/// Per-epoch dynamic write ranges on one false-shared page, per writer.
#[derive(Default)]
struct PageEpoch {
    /// `(writer, lo, hi)` page-relative byte ranges, unmerged.
    writes: Vec<(u16, u32, u32)>,
}

/// The grounding sink. Checks write containment online and disjointness
/// at every barrier.
pub struct RegionSink {
    rt: Arc<RegionTable>,
    page_size: u64,
    epoch: u64,
    /// Open false-shared pages this epoch, sorted by page.
    open: Vec<(u32, PageEpoch)>,
    hit: Vec<u32>,
    outcome: Rc<RefCell<RegionOutcome>>,
}

impl RegionSink {
    pub const MAX_ERRORS: usize = 20;

    pub fn new(rt: Arc<RegionTable>, page_size: u64) -> (RegionSink, Rc<RefCell<RegionOutcome>>) {
        let outcome = Rc::new(RefCell::new(RegionOutcome::default()));
        (
            RegionSink {
                rt,
                page_size,
                epoch: 1,
                open: Vec::new(),
                hit: Vec::new(),
                outcome: Rc::clone(&outcome),
            },
            outcome,
        )
    }

    fn err(&self, msg: String) {
        let mut out = self.outcome.borrow_mut();
        if out.errors.len() < Self::MAX_ERRORS {
            out.errors.push(msg);
        }
    }

    /// A bulk write may cross page boundaries (the runtime emits one
    /// `Write` event for the whole range): split it into per-page
    /// segments, each checked against that page's certificate.
    fn on_write(&mut self, pid: usize, addr: usize, len: usize) {
        let mut done = 0usize;
        while done < len {
            let a = (addr + done) as u64;
            let off = a % self.page_size;
            let n = ((self.page_size - off) as usize).min(len - done);
            self.on_page_write(pid, (a / self.page_size) as u32, off as u32, n as u32);
            done += n;
        }
    }

    fn on_page_write(&mut self, pid: usize, page: u32, lo: u32, len: u32) {
        let Some(cert) = self.rt.cert(page) else {
            return;
        };
        let hi = lo + len;
        self.outcome.borrow_mut().writes_checked += 1;
        match cert.writer(pid) {
            Some(wr) => {
                if !wr.spans.iter().any(|&(s, e)| s <= lo && hi <= e) {
                    self.err(format!(
                        "page {page}: p{pid} wrote [{lo},{hi}) outside its proven spans \
                         in epoch {}",
                        self.epoch
                    ));
                }
            }
            None => self.err(format!(
                "page {page}: p{pid} wrote [{lo},{hi}) but holds no writer certificate \
                 (epoch {})",
                self.epoch
            )),
        }
        if cert.class == PageClass::FalseShared {
            if let Err(i) = self.hit.binary_search(&page) {
                self.hit.insert(i, page);
            }
            let i = match self.open.binary_search_by_key(&page, |&(p, _)| p) {
                Ok(i) => i,
                Err(i) => {
                    self.open.insert(i, (page, PageEpoch::default()));
                    i
                }
            };
            self.open[i].1.writes.push((pid as u16, lo, hi));
        }
    }

    fn close_epoch(&mut self) {
        for (page, ep) in core::mem::take(&mut self.open) {
            // Merge each writer's ranges, then walk the sorted union
            // checking no two adjacent ranges with distinct writers
            // overlap — observed delta-commutativity.
            let mut ranges = ep.writes;
            ranges.sort_unstable();
            let writers: Vec<u16> = {
                let mut w: Vec<u16> = ranges.iter().map(|&(p, _, _)| p).collect();
                w.dedup();
                w
            };
            if writers.len() > 1 {
                self.outcome.borrow_mut().contended_page_epochs += 1;
            }
            let mut by_addr: Vec<(u32, u32, u16)> =
                ranges.iter().map(|&(p, lo, hi)| (lo, hi, p)).collect();
            by_addr.sort_unstable();
            for pair in by_addr.windows(2) {
                let (alo, ahi, ap) = pair[0];
                let (blo, bhi, bp) = pair[1];
                if ap != bp && blo < ahi {
                    self.err(format!(
                        "page {page}: p{ap} [{alo},{ahi}) and p{bp} [{blo},{bhi}) overlap \
                         dynamically in epoch {} — certificate falsified",
                        self.epoch
                    ));
                }
            }
        }
        self.outcome.borrow_mut().false_shared_pages_hit = self.hit.len();
        self.epoch += 1;
    }
}

impl CheckSink for RegionSink {
    fn on_event(&mut self, ev: CheckEvent<'_>) {
        match ev {
            CheckEvent::Write { pid, addr, data } => self.on_write(pid, addr, data.len()),
            CheckEvent::BarrierRelease { .. } => self.close_epoch(),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsm_core::{PageCert, WriterRegions};

    fn table() -> Arc<RegionTable> {
        Arc::new(RegionTable::new(vec![PageCert {
            page: 0,
            class: PageClass::FalseShared,
            writers: vec![
                WriterRegions {
                    writer: 0,
                    spans: vec![(0, 2048)],
                    readers: dsm_core::proto::CopySet::EMPTY,
                },
                WriterRegions {
                    writer: 1,
                    spans: vec![(2048, 4096)],
                    readers: dsm_core::proto::CopySet::EMPTY,
                },
            ],
            loads: vec![],
        }]))
    }

    fn write(sink: &mut RegionSink, pid: usize, addr: usize, len: usize) {
        let data = vec![0u8; len];
        sink.on_event(CheckEvent::Write {
            pid,
            addr,
            data: &data,
        });
    }

    #[test]
    fn in_span_writes_are_clean_and_counted() {
        let (mut sink, out) = RegionSink::new(table(), 4096);
        write(&mut sink, 0, 8, 8);
        write(&mut sink, 1, 2048, 16);
        sink.on_event(CheckEvent::BarrierRelease { epoch: 1 });
        let o = out.borrow();
        assert!(o.errors.is_empty());
        assert_eq!(o.writes_checked, 2);
        assert_eq!(o.false_shared_pages_hit, 1);
        assert_eq!(o.contended_page_epochs, 1);
    }

    #[test]
    fn out_of_span_write_flagged() {
        let (mut sink, out) = RegionSink::new(table(), 4096);
        write(&mut sink, 0, 2048, 8); // p0 writing p1's half
        assert!(out.borrow().errors[0].contains("outside its proven spans"));
    }

    #[test]
    fn uncertified_writer_flagged() {
        let (mut sink, out) = RegionSink::new(table(), 4096);
        write(&mut sink, 2, 0, 8);
        assert!(out.borrow().errors[0].contains("no writer certificate"));
    }

    #[test]
    fn multi_page_write_split_per_page() {
        // One event spanning pages 0 and 1: the page-0 segment [2048,4096)
        // is checked against p1's span, the page-1 segment [0,8) has no
        // certificate and is ignored. One segment checked, no errors.
        let (mut sink, out) = RegionSink::new(table(), 4096);
        write(&mut sink, 1, 2048, 2048 + 8);
        sink.on_event(CheckEvent::BarrierRelease { epoch: 1 });
        let o = out.borrow();
        assert!(o.errors.is_empty(), "{:?}", o.errors);
        assert_eq!(o.writes_checked, 1);
    }

    #[test]
    fn uncovered_pages_ignored() {
        let (mut sink, out) = RegionSink::new(table(), 4096);
        write(&mut sink, 3, 4096, 8); // page 1: no certificate
        sink.on_event(CheckEvent::BarrierRelease { epoch: 1 });
        let o = out.borrow();
        assert!(o.errors.is_empty());
        assert_eq!(o.writes_checked, 0);
    }

    #[test]
    fn report_lines_are_deterministic() {
        let mut s = String::new();
        render_region_report(&mut s, "t", &table());
        assert!(s.contains("false_shared=1"));
        assert!(s.contains("p0:[0,2048)/r0x0+p1:[2048,4096)/r0x0"));
        let mut s2 = String::new();
        render_region_report(&mut s2, "t", &table());
        assert_eq!(s, s2);
    }
}
