//! Differential test: the race detector's split read/write loops and the
//! oracle's extent-bounded paths against the reference model — the
//! word-at-a-time and byte-at-a-time bodies they replaced
//! (`RaceState::ref_*`, `OracleState::ref_*`).
//!
//! Two checkers consume one random event stream, wired exactly as
//! `CheckState::on_event` wires them. After every event the `RaceHit` and
//! `Violation` sequences must be identical (order included) and both
//! states must encode to the same bytes. Now and then both sides carry on
//! from a restore of their own snapshot, so recomputed overlay extents
//! serve the rest of the stream.

use dsm_sim::prop::{check, Gen};
use dsm_sim::{SnapReader, SnapWriter, State};

use crate::oracle::OracleState;
use crate::race::{RaceHit, RaceState};
use crate::report::{RaceKind, Violation};

const PS: usize = 256;
/// Bytes of address space the streams touch.
const SPAN: usize = 6 * PS;

enum Event {
    Read {
        pid: usize,
        addr: usize,
        data: Vec<u8>,
    },
    Write {
        pid: usize,
        addr: usize,
        data: Vec<u8>,
    },
    Image {
        addr: usize,
        data: Vec<u8>,
    },
    Barrier,
}

type Hit = (RaceKind, u64, usize, usize);

/// One checker's value-level half, on the paths under test (`FAST`) or on
/// the reference model.
struct Side<const FAST: bool> {
    race: RaceState,
    oracle: OracleState,
    scratch: Vec<u8>,
}

impl<const FAST: bool> Side<FAST> {
    fn new(nprocs: usize) -> Self {
        Side {
            race: RaceState::new(nprocs, PS),
            oracle: OracleState::new(nprocs, PS),
            scratch: Vec::new(),
        }
    }

    /// What `CheckState::on_event` does with the event, minus the report.
    fn apply(&mut self, ev: &Event) -> (Vec<Hit>, Vec<String>) {
        let Side {
            race,
            oracle,
            scratch,
        } = self;
        let mut hits: Vec<RaceHit> = Vec::new();
        let mut found: Vec<Violation> = Vec::new();
        match ev {
            Event::Read { pid, addr, data } => {
                if FAST {
                    race.on_read(*pid, *addr, data.len(), &mut hits);
                } else {
                    race.ref_on_read(*pid, *addr, data.len(), &mut hits);
                }
                let racy = |a| race.word_is_racy(a);
                if FAST {
                    oracle.on_read(*pid, *addr, data, 1, racy, &mut found);
                } else {
                    oracle.ref_on_read(*pid, *addr, data, 1, racy, &mut found);
                }
            }
            Event::Write { pid, addr, data } => {
                if FAST {
                    oracle.expected_into(*pid, *addr, data.len(), scratch);
                    race.on_write(*pid, *addr, data, scratch, &mut hits);
                } else {
                    oracle.ref_expected_into(*pid, *addr, data.len(), scratch);
                    race.ref_on_write(*pid, *addr, data, scratch, &mut hits);
                }
                oracle.on_write(*pid, *addr, data);
            }
            Event::Image { addr, data } => oracle.image_write(*addr, data),
            Event::Barrier => {
                race.barrier();
                if FAST {
                    oracle.barrier_release();
                } else {
                    oracle.ref_barrier_release();
                }
            }
        }
        (
            hits.iter()
                .map(|h| (h.kind, h.word_key, h.first_pid, h.second_pid))
                .collect(),
            found.iter().map(|v| format!("{v:?}")).collect(),
        )
    }

    fn encoded(&self) -> (Vec<u8>, Vec<u8>) {
        let bytes = |s: &dyn State| {
            let mut w = SnapWriter::new();
            s.encode(&mut w);
            w.into_bytes()
        };
        (bytes(&self.race), bytes(&self.oracle))
    }
}

impl<const FAST: bool> Side<FAST> {
    /// A fresh side restored from this one's snapshot. (Both sides restore
    /// together: the spare overlays a restore leaves behind carry stale
    /// `data` bytes outside their masks, and those are encoded.)
    fn restored(&self, nprocs: usize) -> Self {
        let (race, oracle) = self.encoded();
        let mut back = Self::new(nprocs);
        back.race.decode(&mut SnapReader::new(&race)).unwrap();
        back.oracle.decode(&mut SnapReader::new(&oracle)).unwrap();
        back
    }
}

/// A range of 1 B to 3 pages at arbitrary alignment, short ones (sub-word
/// scalars, a few words) as likely as rows.
fn range(g: &mut Gen) -> (usize, usize) {
    let len = if g.chance(0.5) {
        g.range(1, 25)
    } else {
        g.range(1, 3 * PS + 1)
    };
    let addr = g.below(SPAN - 1);
    (addr, len.min(SPAN - addr))
}

/// The next few events. `view` is the LRC-expected bytes of a range for a
/// pid (from the model side), so reads can be made to match and stores to
/// be silent; `last_read` is the previous read's `(pid, addr, len)`.
fn next_events(
    g: &mut Gen,
    nprocs: usize,
    last_read: Option<(usize, usize, usize)>,
    view: &dyn Fn(usize, usize, usize) -> Vec<u8>,
) -> Vec<Event> {
    let read = |g: &mut Gen, pid: usize, addr: usize, len: usize| {
        // A quarter of the reads observe something stale: a few flipped
        // bytes, or another process's view (own writes missing).
        let mut data = match g.below(8) {
            0 => view(g.below(nprocs), addr, len),
            _ => view(pid, addr, len),
        };
        if g.chance(0.15) {
            for _ in 0..g.range(1, 4) {
                let i = g.below(len);
                data[i] ^= 1 + g.below(255) as u8;
            }
        }
        Event::Read { pid, addr, data }
    };
    let pid = g.below(nprocs);
    match g.below(100) {
        0..=29 => {
            let (addr, len) = range(g);
            vec![read(g, pid, addr, len)]
        }
        // Repeat the last read, by its reader or by another one.
        30..=41 => match last_read {
            Some((p, addr, len)) => {
                let p = if g.chance(0.7) { p } else { pid };
                vec![read(g, p, addr, len)]
            }
            None => vec![Event::Barrier],
        },
        // Every process reads one small range (three or more concurrent
        // readers of a word whenever there are that many processes), a
        // second reader of the spilled words repeats, then one writes it.
        42..=49 => {
            let addr = g.below(SPAN - 32);
            let len = g.range(1, 33);
            let mut evs: Vec<Event> = (0..nprocs).map(|p| read(g, p, addr, len)).collect();
            evs.push(read(g, nprocs - 1, addr, len));
            if g.chance(0.5) {
                let data = g.bytes(len);
                evs.push(Event::Write { pid, addr, data });
            }
            evs
        }
        50..=84 => {
            let (addr, len) = range(g);
            let cur = view(pid, addr, len);
            let data = match g.below(3) {
                // Silent.
                0 => cur,
                // Partly silent: a few bytes or whole words change.
                1 => {
                    let mut d = cur;
                    for _ in 0..g.range(1, 5) {
                        let at = g.below(len);
                        let n = if g.chance(0.5) { 1 } else { 8.min(len - at) };
                        d[at..at + n].copy_from_slice(&g.bytes(n));
                    }
                    d
                }
                _ => g.bytes(len),
            };
            vec![Event::Write { pid, addr, data }]
        }
        85..=94 => vec![Event::Barrier],
        _ => {
            let (addr, len) = range(g);
            let data = g.bytes(len);
            vec![Event::Image { addr, data }]
        }
    }
}

#[test]
fn fast_paths_match_the_reference_model() {
    check("checker fast paths vs reference", 300, |g| {
        let nprocs = g.range(1, 6);
        let mut fast = Side::<true>::new(nprocs);
        let mut model = Side::<false>::new(nprocs);
        let mut last_read = None;
        let mut done = 0;
        while done < 80 {
            let view = |pid: usize, addr: usize, len: usize| {
                let mut v = Vec::new();
                model.oracle.ref_expected_into(pid, addr, len, &mut v);
                v
            };
            for ev in next_events(g, nprocs, last_read, &view) {
                if let Event::Read { pid, addr, data } = &ev {
                    last_read = Some((*pid, *addr, data.len()));
                }
                assert_eq!(fast.apply(&ev), model.apply(&ev), "event {done}");
                let enc = fast.encoded();
                assert!(enc.0 == model.encoded().0, "race state after event {done}");
                assert!(
                    enc.1 == model.encoded().1,
                    "oracle state after event {done}"
                );
                if g.chance(0.05) {
                    // Carry on from a restore of each side's snapshot.
                    fast = fast.restored(nprocs);
                    model = model.restored(nprocs);
                }
                done += 1;
            }
        }
    });
}
