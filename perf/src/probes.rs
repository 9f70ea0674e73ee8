//! Primitive probes: per-call host cost of the `dsm-vm` and `dsm-net`
//! public operations the protocols are built from, measured directly on
//! fixed inputs (traced run only).
//!
//! Ramesh & Varadarajan report a DSM per-primitive first and
//! per-application second; these are the per-primitive numbers. Inputs
//! are fixed 8 KB pages and a 64-node network, so a probe moves only when
//! the primitive itself does.

use std::cell::RefCell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use dsm_net::{FlushKind, Network, ReliableKind};
use dsm_sim::{
    CostModel, FaultProfile, RdmaParams, SharedScheduler, Time, TransportKind, VirtualTimeScheduler,
};
use dsm_vm::{BufPool, Frame, PageId};

use crate::jobs::Wire;

const PAGE: usize = 8192;
const WORD: usize = 8;

/// Mean ns per call of `f` over `iters` calls, after a tenth as many
/// warm-up calls.
fn ns_per_call(iters: u32, mut f: impl FnMut(u32)) -> f64 {
    for i in 0..iters / 10 {
        f(i);
    }
    let t0 = Instant::now();
    for i in 0..iters {
        f(i);
    }
    t0.elapsed().as_nanos() as f64 / f64::from(iters)
}

/// `dsm-vm` primitives on one 8 KB page.
pub struct VmProbes {
    /// `make_twin_in` + `drop_twin_into` with a warm pool.
    pub twin_ns: f64,
    /// `diff_against_twin_in` after 8 scattered word writes.
    pub diff_sparse_ns: f64,
    /// `diff_against_twin_in` after every word was rewritten.
    pub diff_dense_ns: f64,
    /// `apply_diff` of the dense diff.
    pub apply_ns: f64,
}

pub fn vm_probes() -> VmProbes {
    const ITERS: u32 = 4000;
    let page = PageId(0);
    let mut pool = BufPool::new();
    let mut frame = Frame::new(PAGE);

    let twin_ns = ns_per_call(ITERS, |_| {
        frame.make_twin_in(&mut pool);
        black_box(frame.has_twin());
        frame.drop_twin_into(&mut pool);
    });

    // The frame is zeroed, so any non-zero word differs from the twin;
    // diffing borrows the frame immutably and can repeat on one state.
    let mut dirtied = |offsets: &[usize]| {
        let mut f = Frame::new(PAGE);
        f.make_twin_in(&mut pool);
        for &off in offsets {
            f.write_at(off, &7u64.to_le_bytes());
        }
        f
    };
    let sparse: Vec<usize> = (0..8).map(|k| k * (PAGE / 8) + 3 * WORD).collect();
    let dense: Vec<usize> = (0..PAGE / WORD).map(|k| k * WORD).collect();
    let (sparse, dense) = (dirtied(&sparse), dirtied(&dense));
    let mut diff_ns = |f: &Frame| {
        ns_per_call(ITERS, |_| {
            let diff = black_box(f.diff_against_twin_in(page, &mut pool));
            pool.put_diff(diff);
        })
    };
    let diff_sparse_ns = diff_ns(&sparse);
    let diff_dense_ns = diff_ns(&dense);

    let dense_diff = dense.diff_against_twin(page);
    let mut target = Frame::new(PAGE);
    let apply_ns = ns_per_call(ITERS, |_| {
        target.apply_diff(black_box(&dense_diff));
    });

    VmProbes {
        twin_ns,
        diff_sparse_ns,
        diff_dense_ns,
        apply_ns,
    }
}

fn network(wire: Wire, seed: u64) -> Network {
    let sched: SharedScheduler = Rc::new(RefCell::new(VirtualTimeScheduler::from_seed(seed)));
    let (fault, backend) = match wire {
        Wire::TwoSided => (FaultProfile::none(), TransportKind::TwoSided),
        Wire::Lossy => (FaultProfile::burst_loss(), TransportKind::TwoSided),
        Wire::OneSided => (FaultProfile::none(), TransportKind::OneSided),
    };
    Network::with_transport(
        NET_NODES,
        CostModel::default(),
        0.0,
        fault,
        backend,
        RdmaParams::default(),
        sched,
    )
}

const NET_NODES: usize = 64;

/// Endpoints of probe call `i`: every node sends, to a partner that
/// walks the other 63.
fn endpoints(i: u32) -> (usize, usize) {
    let src = i as usize % NET_NODES;
    let hop = 1 + (i as usize / NET_NODES) % (NET_NODES - 1);
    (src, (src + hop) % NET_NODES)
}

/// Host ns per `Network::fetch` of one page on a 64-node network.
pub fn fetch_ns(wire: Wire, seed: u64) -> f64 {
    let mut net = network(wire, seed);
    let mut now = Time::ZERO;
    ns_per_call(20_000, |i| {
        let (src, dst) = endpoints(i);
        let d = net.fetch(
            src,
            dst,
            ReliableKind::PageRequest,
            16,
            ReliableKind::PageReply,
            PAGE,
            Time::ZERO,
            now,
        );
        now += black_box(d).wait;
    })
}

/// Host ns per `Network::push_update` of a 256-byte diff.
pub fn push_update_ns(wire: Wire, seed: u64) -> f64 {
    let mut net = network(wire, seed);
    let mut now = Time::ZERO;
    ns_per_call(20_000, |i| {
        let (src, dst) = endpoints(i);
        let out = net.push_update(src, dst, FlushKind::UpdateFlush, 256, now);
        now += black_box(out).transit.total();
    })
}
