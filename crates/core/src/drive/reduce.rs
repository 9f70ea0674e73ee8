//! Reductions.
//!
//! The bar protocols have "explicit support for reductions" (§2.2.1):
//! contributions ride on barrier arrival messages, the master combines, and
//! the result rides on the release. The homeless protocols emulate
//! reductions through shared memory, the way SUIF-generated code would: a
//! shared slot array (one multi-writer page), an extra barrier, a serial
//! combine by process 0, and a second barrier — generating exactly the kind
//! of diff/miss traffic Table 1 shows for the reduction-heavy codes.

use dsm_sim::{Category, Time};

use crate::drive::cluster::Cluster;
use crate::mem::SharedArray;

/// Associative combining operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReduceOp {
    Sum,
    Max,
    Min,
}

impl ReduceOp {
    /// Short name for reports and the checking event stream.
    pub fn label(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Max => "max",
            ReduceOp::Min => "min",
        }
    }

    /// Identity element.
    pub fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum => 0.0,
            ReduceOp::Max => f64::NEG_INFINITY,
            ReduceOp::Min => f64::INFINITY,
        }
    }

    /// Combine two values.
    pub fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum => a + b,
            ReduceOp::Max => a.max(b),
            ReduceOp::Min => a.min(b),
        }
    }

    /// Fold the per-process contribution vectors elementwise.
    pub fn fold(self, contribs: &[Vec<f64>]) -> Vec<f64> {
        let k = contribs.first().map_or(0, std::vec::Vec::len);
        let mut acc = vec![self.identity(); k];
        for c in contribs {
            assert_eq!(c.len(), k, "ragged reduction contributions");
            for (a, &v) in acc.iter_mut().zip(c) {
                *a = self.combine(*a, v);
            }
        }
        acc
    }
}

/// Hidden shared arrays backing reduction emulation on the homeless
/// protocols.
#[derive(Clone, Default)]
pub struct ReduceMem {
    pub slots: SharedArray<f64>,
    pub result: SharedArray<f64>,
    /// Slots per process.
    pub cap: usize,
}

dsm_sim::impl_state!(ReduceMem { state: slots, result, cap; });

impl Cluster {
    /// SUIF-style shared-memory reduction: slot writes, barrier, serial
    /// combine at process 0, barrier. The operations below go through the
    /// full protocol machinery, so the emulation pays real faults and diffs.
    pub(crate) fn reduce_emulated(&mut self, op: ReduceOp, contribs: &[Vec<f64>]) {
        let n = self.nprocs();
        assert_eq!(contribs.len(), n);
        let k = contribs[0].len();
        self.ensure_reduce_mem(k);
        let mem = self.reduce_mem.as_ref().expect("just ensured");
        let (slots, result, cap) = (mem.slots, mem.result, mem.cap);

        // Each process publishes its contributions.
        for (pid, c) in contribs.iter().enumerate() {
            for (j, &v) in c.iter().enumerate() {
                let addr = slots.addr_of(pid * cap + j);
                self.write_scalar::<f64>(pid, addr, v);
            }
        }
        self.barrier_checked(None);
        if self.pruned {
            return;
        }

        // Process 0 combines serially and publishes the result.
        let combine = Time::from_ns(self.cfg.sim.costs.reduction_combine_ns);
        let mut acc = vec![op.identity(); k];
        for pid in 0..n {
            for (j, a) in acc.iter_mut().enumerate() {
                let v = self.read_scalar::<f64>(0, slots.addr_of(pid * cap + j));
                *a = op.combine(*a, v);
                self.charge(0, Category::App, combine);
            }
        }
        for (j, &v) in acc.iter().enumerate() {
            self.write_scalar::<f64>(0, result.addr_of(j), v);
        }
        self.barrier_checked(None);
        if self.pruned {
            return;
        }

        // Everyone reads the result (faulting on process 0's page).
        for pid in 0..n {
            for (j, expected) in acc.iter().enumerate() {
                let v = self.read_scalar::<f64>(pid, result.addr_of(j));
                debug_assert_eq!(v, *expected);
                let _ = (v, expected);
            }
        }
        self.last_reduction = acc;
    }

    fn ensure_reduce_mem(&mut self, k: usize) {
        let n = self.nprocs();
        let need_new = match &self.reduce_mem {
            Some(m) => m.cap < k,
            None => true,
        };
        if need_new {
            // Shared allocation mid-run: the segment grows and the tables
            // resize; the fresh pages are pristine-valid everywhere.
            let base_slots = self.alloc("__reduce_slots", n * k * 8);
            let base_result = self.alloc("__reduce_result", k * 8);
            self.reduce_mem = Some(ReduceMem {
                slots: SharedArray::from_raw(base_slots, n * k),
                result: SharedArray::from_raw(base_result, k),
                cap: k,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identities() {
        assert_eq!(ReduceOp::Sum.identity(), 0.0);
        assert_eq!(ReduceOp::Max.identity(), f64::NEG_INFINITY);
        assert_eq!(ReduceOp::Min.identity(), f64::INFINITY);
    }

    #[test]
    fn combine_semantics() {
        assert_eq!(ReduceOp::Sum.combine(2.0, 3.0), 5.0);
        assert_eq!(ReduceOp::Max.combine(2.0, 3.0), 3.0);
        assert_eq!(ReduceOp::Min.combine(2.0, 3.0), 2.0);
    }

    #[test]
    fn fold_elementwise() {
        let contribs = vec![vec![1.0, 5.0], vec![3.0, 2.0], vec![2.0, 9.0]];
        assert_eq!(ReduceOp::Sum.fold(&contribs), vec![6.0, 16.0]);
        assert_eq!(ReduceOp::Max.fold(&contribs), vec![3.0, 9.0]);
        assert_eq!(ReduceOp::Min.fold(&contribs), vec![1.0, 2.0]);
    }

    #[test]
    fn fold_empty_is_empty() {
        assert!(ReduceOp::Sum.fold(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_contributions_rejected() {
        let _ = ReduceOp::Sum.fold(&[vec![1.0], vec![1.0, 2.0]]);
    }
}
