//! Corruption gate: a snapshot is input from outside the process, so no
//! byte string may make `read_snapshot` panic — it decodes, or it returns
//! a `SnapError`.
//!
//! Two subjects: the committed `tests/data/golden.snap`, and a fresh
//! checker-bearing snapshot of a paper-suite application at small scale.
//! For each: truncations must be errors; every single-bit flip in the
//! framing (magic, version, flags, config digest, section tags and
//! lengths) must be an error; and 2,000 seeded single-bit flips anywhere
//! must return without panicking. (A payload flip that restores a
//! different but well-formed state is `Ok`: the format carries no
//! checksum.) The golden file is small enough to be exhaustive about it:
//! every strict prefix, and a sweep setting the top bit of every CORE byte,
//! which must hit the enum tags and be refused there by name. The fresh
//! snapshot samples its truncation points instead.

mod golden_run;

use dsm_apps::{make_app, Scale};
use dsm_check::Checker;
use dsm_core::{DsmApp, ProtocolKind, RunConfig, StepRun};
use dsm_sim::prop::Gen;
use dsm_sim::{SnapError, SnapErrorKind};
use dsm_snap::{read_snapshot, snapshot_run};
use golden_run::{golden_config, golden_run, GoldenApp, GOLDEN_PATH};

/// Names the corruption being decoded if the decode panics.
struct Attempt(String);

impl Drop for Attempt {
    fn drop(&mut self) {
        if std::thread::panicking() {
            eprintln!("read_snapshot panicked on: {}", self.0);
        }
    }
}

struct Subject<'r, 'a, A: DsmApp + ?Sized> {
    name: &'static str,
    bytes: Vec<u8>,
    run: &'r mut StepRun<'a, A>,
    checker: &'r Checker,
}

impl<A: DsmApp + ?Sized> Subject<'_, '_, A> {
    fn decode(&mut self, bytes: &[u8], what: impl FnOnce() -> String) -> Result<(), SnapError> {
        let _attempt = Attempt(format!("{}: {}", self.name, what()));
        let (cluster, app) = self.run.cluster_and_app_mut();
        read_snapshot(bytes, cluster, app, Some(self.checker))
    }

    fn decode_flipped(&mut self, at: usize, bit: u8) -> Result<(), SnapError> {
        let mut bytes = std::mem::take(&mut self.bytes);
        bytes[at] ^= 1 << bit;
        let got = self.decode(&bytes, || format!("bit {bit} of byte {at} flipped"));
        bytes[at] ^= 1 << bit;
        self.bytes = bytes;
        got
    }

    fn decode_prefix(&mut self, cut: usize) {
        let bytes = std::mem::take(&mut self.bytes);
        let got = self.decode(&bytes[..cut], || format!("truncated to {cut} bytes"));
        assert!(got.is_err(), "{}: prefix {cut} decoded", self.name);
        self.bytes = bytes;
    }

    /// `(offset of the fourcc, offset one past the payload)` per section.
    fn sections(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        let mut at = 18;
        while at < self.bytes.len() {
            let len = u64::from_le_bytes(self.bytes[at + 4..at + 12].try_into().unwrap());
            out.push((at, at + 12 + len as usize));
            at += 12 + len as usize;
        }
        assert_eq!(
            at,
            self.bytes.len(),
            "{}: sections tile the file",
            self.name
        );
        out
    }

    /// Run every corruption family; `exhaustive` adds every strict prefix
    /// and the per-byte tag sweep (affordable for the small golden file),
    /// where the default samples truncation points.
    fn check(&mut self, exhaustive: bool) {
        let len = self.bytes.len();
        let intact = self.bytes.clone();
        assert_eq!(self.decode(&intact, || "intact".into()), Ok(()));
        let sections = self.sections();
        assert_eq!(sections.len(), 3, "CORE, CHCK, APP");
        let mut g = Gen::new(0xC0_22u64 ^ len as u64);

        // Truncation.
        if exhaustive {
            (0..len).for_each(|cut| self.decode_prefix(cut));
        } else {
            let mut edges = vec![0, len];
            edges.extend(sections.iter().flat_map(|&(tag, end)| [tag, tag + 12, end]));
            for edge in edges {
                for cut in edge.saturating_sub(40)..(edge + 40).min(len) {
                    self.decode_prefix(cut);
                }
            }
            for _ in 0..1500 {
                self.decode_prefix(g.below(len));
            }
        }

        // Framing: file header, then each section's fourcc and length.
        let framing = (0..18).chain(sections.iter().flat_map(|&(tag, _)| tag..tag + 12));
        for at in framing {
            for bit in 0..8 {
                let got = self.decode_flipped(at, bit);
                assert!(got.is_err(), "{}: framing byte {at} bit {bit}", self.name);
            }
        }

        // Enum tags: with the top bit set no tag is defined, so wherever the
        // sweep lands on one the decoder must refuse it, by name, right
        // there (a bad tag reported further on is fallout from a corrupted
        // length, not this byte being a tag).
        if exhaustive {
            let (core, core_end) = sections[0];
            let mut refused = std::collections::BTreeMap::new();
            for at in core + 12..core_end {
                match self.decode_flipped(at, 7) {
                    Err(SnapError {
                        kind: SnapErrorKind::BadTag { what, .. },
                        offset,
                        ..
                    }) if offset == at + 1 => *refused.entry(what).or_insert(0usize) += 1,
                    _ => {}
                }
            }
            assert_eq!(refused.get("OdMode"), Some(&1), "{refused:?}");
            assert!(
                refused.get("Protection").is_some_and(|&n| n >= 3),
                "{refused:?}"
            );
            assert!(refused.get("bool").is_some_and(|&n| n >= 8), "{refused:?}");
        }

        // Anywhere: Ok or Err, never a panic.
        let mut errs = 0;
        for _ in 0..2000 {
            errs += usize::from(self.decode_flipped(g.below(len), g.below(8) as u8).is_err());
        }
        assert!(errs > 0, "{}: no random flip was ever refused", self.name);

        // Whatever the failed restores left behind, the run restores.
        assert_eq!(self.decode(&intact, || "intact, again".into()), Ok(()));
        assert_eq!(snapshot_run(self.run, Some(self.checker)), intact);
    }
}

#[test]
fn corrupt_golden_snapshot_is_refused_not_fatal() {
    let checker = Checker::new(&golden_config());
    let mut app = GoldenApp::new();
    let mut run = golden_run(&mut app, &checker);
    let bytes = std::fs::read(GOLDEN_PATH).expect("committed golden snapshot");
    Subject {
        name: "golden.snap",
        bytes,
        run: &mut run,
        checker: &checker,
    }
    .check(true);
}

#[test]
fn corrupt_fresh_app_snapshot_is_refused_not_fatal() {
    let cfg = RunConfig::with_nprocs(ProtocolKind::BarS, 4);
    let checker = Checker::new(&cfg);
    let mut app = make_app("jacobi", Scale::Small).expect("jacobi is in the suite");
    let mut run = StepRun::new(app.as_mut(), cfg, Some(checker.sink()), None);
    for _ in 0..7 {
        assert!(run.step());
    }
    let bytes = snapshot_run(&run, Some(&checker));
    Subject {
        name: "jacobi/bar-s",
        bytes,
        run: &mut run,
        checker: &checker,
    }
    .check(false);
}
