//! The enumerating scheduler: one explored schedule per installation.
//!
//! A schedule is a sequence of resolved choice points. The scheduler
//! replays a *prefix* of forced choices (handed to it by the DFS driver or
//! a replay trace) and resolves every choice point past the prefix to its
//! first alternative; the driver then backtracks by incrementing the
//! deepest point that still has an untried alternative.
//!
//! Two reductions keep the tree tractable:
//!
//! * **Dynamic partial-order reduction** — at an ordering choice point,
//!   only candidates in the conflict-graph component of the canonical
//!   first candidate are offered as alternatives. Candidates in other
//!   components have disjoint footprints with *every* member of this
//!   component (components partition the conflict graph), so scheduling
//!   them before or after commutes; they get their own choice points later
//!   in the same batch, where their own components are explored. Every
//!   inter-component order is therefore represented by exactly one
//!   explored schedule, while intra-component permutations are fully
//!   enumerated through the recursive shrinking-candidate-set calls.
//! * **State pruning** — the cluster hands over a structural state hash at
//!   every barrier (which includes the observed-event trace, so checker
//!   verdicts are part of the key); a schedule reaching an
//!   already-visited hash past the replay prefix is abandoned.
//!
//! Fault-space bounds: drop choice points, duplicate-delivery choice
//! points, and migration deferrals are binary and capped by budgets;
//! beyond the budget the canonical outcome (deliver once / execute now)
//! is forced without recording a choice point. The duplicate budget
//! defaults to zero, so explorations that never ask for it enumerate
//! exactly the pre-wire schedule space.

use std::cell::RefCell;
use std::rc::Rc;

use dsm_sim::{Candidate, ChoiceKind, FastMap, FastSet, Scheduler};

/// Statically predicted page-conflict groups: page → canonical group page,
/// as computed by `dsm_plan::static_page_groups` for the run's plan and
/// schedule.
pub type StaticGroups = Rc<FastMap<u32, u32>>;

/// One resolved choice point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChoicePoint {
    pub kind: ChoiceKind,
    /// Which alternative was taken (index into the *offered* set).
    pub chosen: u32,
    /// How many alternatives were offered (after POR filtering).
    pub alts: u32,
}

/// Exploration bounds and reductions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Bounds {
    /// Maximum number of *branching* drop decisions per schedule; further
    /// droppable flushes are delivered unconditionally.
    pub max_drop_points: usize,
    /// Maximum number of *branching* duplicate-delivery decisions per
    /// schedule; zero (the default) removes duplication from the explored
    /// fault space entirely, keeping legacy baselines byte-identical.
    pub max_dup_points: usize,
    /// Maximum migration deferrals per schedule.
    pub max_defers: usize,
    /// Dynamic partial-order reduction on ordering choice points.
    pub por: bool,
    /// Visited-state pruning at barriers.
    pub state_prune: bool,
}

impl Default for Bounds {
    fn default() -> Bounds {
        Bounds {
            max_drop_points: 6,
            max_dup_points: 0,
            max_defers: 2,
            por: true,
            state_prune: true,
        }
    }
}

/// Shared visited set (survives across schedules within one exploration).
pub type Visited = Rc<RefCell<FastSet<u64>>>;

/// The enumerating scheduler driving exactly one schedule.
pub struct ExploreScheduler {
    bounds: Bounds,
    /// Forced choices (replayed verbatim before free exploration).
    prefix: Vec<u32>,
    /// Every choice point resolved so far, including the replayed ones.
    log: Vec<ChoicePoint>,
    /// Branching drop decisions taken so far.
    drop_points: usize,
    /// Branching duplicate decisions taken so far.
    dup_points: usize,
    /// Migration deferrals taken so far.
    defers: usize,
    /// Barriers observed so far (mixed into the visited key so identical
    /// states at different depths stay distinct — cheap insurance on top
    /// of the epoch already being part of the hash).
    barriers: u64,
    /// Cross-schedule visited set; `None` disables pruning regardless of
    /// `bounds.state_prune`.
    visited: Option<Visited>,
    /// Statically predicted page groups; when present, debug builds assert
    /// every dynamic conflict component refines exactly one static group.
    static_groups: Option<StaticGroups>,
}

/// The scheduler's position at a step boundary, captured alongside a
/// cluster snapshot so a later schedule sharing the same choice prefix can
/// resume from it instead of re-executing from epoch 0.
#[derive(Clone, Debug)]
pub struct SchedCheckpoint {
    pub(crate) log: Vec<ChoicePoint>,
    pub(crate) drop_points: usize,
    pub(crate) dup_points: usize,
    pub(crate) defers: usize,
    pub(crate) barriers: u64,
}

impl SchedCheckpoint {
    /// The chosen alternative of every resolved point — the forced prefix
    /// a from-scratch execution would need to reach this position.
    pub fn choices(&self) -> Vec<u32> {
        self.log.iter().map(|c| c.chosen).collect()
    }

    /// Number of choice points resolved at the capture.
    pub fn depth(&self) -> usize {
        self.log.len()
    }
}

impl ExploreScheduler {
    pub fn new(bounds: Bounds, prefix: Vec<u32>, visited: Option<Visited>) -> ExploreScheduler {
        ExploreScheduler {
            bounds,
            prefix,
            log: Vec::new(),
            drop_points: 0,
            dup_points: 0,
            defers: 0,
            barriers: 0,
            visited,
            static_groups: None,
        }
    }

    /// Capture the scheduler's position for a checkpoint.
    pub fn checkpoint(&self) -> SchedCheckpoint {
        SchedCheckpoint {
            log: self.log.clone(),
            drop_points: self.drop_points,
            dup_points: self.dup_points,
            defers: self.defers,
            barriers: self.barriers,
        }
    }

    /// A scheduler resuming mid-schedule from `cp`, driving the remainder
    /// under the forced `prefix`. Every choice the checkpoint embodies must
    /// agree with the prefix — the restored cluster state already reflects
    /// those decisions.
    pub fn resume(
        bounds: Bounds,
        prefix: Vec<u32>,
        visited: Option<Visited>,
        cp: SchedCheckpoint,
    ) -> ExploreScheduler {
        debug_assert!(cp.log.len() <= prefix.len(), "checkpoint past the prefix");
        debug_assert!(
            cp.log.iter().zip(&prefix).all(|(c, &p)| c.chosen == p),
            "checkpoint choices disagree with the resumed prefix"
        );
        ExploreScheduler {
            bounds,
            prefix,
            log: cp.log,
            drop_points: cp.drop_points,
            dup_points: cp.dup_points,
            defers: cp.defers,
            barriers: cp.barriers,
            visited,
            static_groups: None,
        }
    }

    /// Install the statically predicted page groups. Subsequent ordering
    /// choice points debug-assert the refinement: the pages of a dynamic
    /// conflict component all map to one static group root.
    pub fn set_static_groups(&mut self, groups: StaticGroups) {
        self.static_groups = Some(groups);
    }

    /// The refinement oracle (debug builds): every dynamic dirty set is
    /// contained in some process-epoch's static store set, and the static
    /// groups are closed under page sharing — so a dynamic conflict
    /// component whose pages span two static groups (or touch a page no
    /// static store set contains) means either an app's plan or the POR
    /// footprint logic is wrong.
    fn assert_refines_static(&self, cands: &[Candidate], in_comp: &[bool]) {
        let Some(groups) = &self.static_groups else {
            return;
        };
        let mut root: Option<u32> = None;
        for (i, c) in cands.iter().enumerate() {
            if !in_comp[i] {
                continue;
            }
            for &page in &c.footprint {
                let Some(&r) = groups.get(&page) else {
                    panic!("page {page} in a dynamic footprint but in no static store set");
                };
                assert!(
                    root.is_none_or(|prev| prev == r),
                    "dynamic conflict component spans static page groups \
                     ({root:?} vs {r} at page {page})"
                );
                root = Some(r);
            }
        }
    }

    /// The resolved choice points of the completed (or abandoned) schedule.
    pub fn log(&self) -> &[ChoicePoint] {
        &self.log
    }

    /// Resolve the choice point at the current depth: forced while inside
    /// the prefix, canonical-first past it.
    fn decide(&mut self, kind: ChoiceKind, alts: u32) -> u32 {
        debug_assert!(alts >= 2);
        let depth = self.log.len();
        let chosen = if depth < self.prefix.len() {
            let c = self.prefix[depth];
            assert!(
                c < alts,
                "diverged trace: prefix[{depth}] = {c} but only {alts} alternatives \
                 at this {} point (same app/config/budgets required for replay)",
                kind.label()
            );
            c
        } else {
            0
        };
        self.log.push(ChoicePoint { kind, chosen, alts });
        chosen
    }

    /// True while the scheduler is still replaying its forced prefix.
    fn replaying(&self) -> bool {
        self.log.len() < self.prefix.len()
    }
}

impl Scheduler for ExploreScheduler {
    fn exploring(&self) -> bool {
        true
    }

    fn flush_drop(&mut self, _src: usize, _dst: usize, _prob: f64) -> bool {
        // Exhaustive fault-space within the budget: the configured loss
        // probability is irrelevant — every droppable flush is a branch
        // until the budget is spent, then delivery is forced.
        if self.drop_points >= self.bounds.max_drop_points {
            return false;
        }
        self.drop_points += 1;
        self.decide(ChoiceKind::Drop, 2) == 1
    }

    fn flush_duplicate(&mut self, _src: usize, _dst: usize, _prob: f64) -> bool {
        // Same discipline as drops: probability-free exhaustive branching
        // within the budget. At the default budget of zero this is pure
        // pass-through — no branch, no choice point, no schedule growth.
        if self.dup_points >= self.bounds.max_dup_points {
            return false;
        }
        self.dup_points += 1;
        self.decide(ChoiceKind::Duplicate, 2) == 1
    }

    fn choose(&mut self, kind: ChoiceKind, cands: &[Candidate]) -> usize {
        debug_assert!(cands.len() >= 2);
        let alt_ids: Vec<usize> = if self.bounds.por {
            // Connected component of candidate 0 in the conflict graph.
            let mut in_comp = vec![false; cands.len()];
            in_comp[0] = true;
            let mut frontier = vec![0usize];
            while let Some(i) = frontier.pop() {
                for (j, c) in cands.iter().enumerate() {
                    if !in_comp[j] && c.conflicts_with(&cands[i]) {
                        in_comp[j] = true;
                        frontier.push(j);
                    }
                }
            }
            if cfg!(debug_assertions) {
                self.assert_refines_static(cands, &in_comp);
            }
            (0..cands.len()).filter(|&i| in_comp[i]).collect()
        } else {
            (0..cands.len()).collect()
        };
        if alt_ids.len() == 1 {
            // POR collapsed the point: no branch, no choice recorded.
            return alt_ids[0];
        }
        let chosen = self.decide(kind, alt_ids.len() as u32);
        alt_ids[chosen as usize]
    }

    fn defer_migration(&mut self, _iter: usize) -> bool {
        if self.defers >= self.bounds.max_defers {
            return false;
        }
        self.defers += 1;
        self.decide(ChoiceKind::Migration, 2) == 1
    }

    fn observe_barrier(&mut self, state_hash: u64) -> bool {
        self.barriers += 1;
        if !self.bounds.state_prune || self.replaying() {
            // Never prune inside the replay region: the forced prefix must
            // execute fully so the divergent suffix actually runs.
            return true;
        }
        let Some(visited) = &self.visited else {
            return true;
        };
        let key = state_hash ^ self.barriers.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        visited.borrow_mut().insert(key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(actor: u16, fp: &[u32]) -> Candidate {
        Candidate {
            actor,
            footprint: fp.to_vec(),
        }
    }

    #[test]
    fn canonical_first_past_prefix() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![], None);
        assert!(!s.flush_drop(0, 1, 0.9));
        assert_eq!(
            s.log(),
            &[ChoicePoint {
                kind: ChoiceKind::Drop,
                chosen: 0,
                alts: 2
            }]
        );
    }

    #[test]
    fn prefix_is_replayed() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![1, 0, 1], None);
        assert!(s.flush_drop(0, 1, 0.0));
        assert!(!s.flush_drop(0, 1, 0.0));
        assert!(s.flush_drop(0, 1, 0.0));
        assert!(!s.flush_drop(0, 1, 0.0), "past prefix: canonical deliver");
    }

    #[test]
    fn drop_budget_forces_delivery() {
        let bounds = Bounds {
            max_drop_points: 2,
            ..Bounds::default()
        };
        let mut s = ExploreScheduler::new(bounds, vec![1, 1, 1], None);
        assert!(s.flush_drop(0, 1, 0.0));
        assert!(s.flush_drop(0, 1, 0.0));
        assert!(!s.flush_drop(0, 1, 0.0), "budget spent: forced deliver");
        assert_eq!(s.log().len(), 2, "forced decisions record no choice point");
    }

    #[test]
    fn dup_budget_zero_is_pass_through() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![], None);
        assert!(!s.flush_duplicate(0, 1, 0.9));
        assert!(
            s.log().is_empty(),
            "no dup budget: no choice point, baselines unchanged"
        );
    }

    #[test]
    fn dup_budget_branches_then_forces_single_delivery() {
        let bounds = Bounds {
            max_dup_points: 1,
            ..Bounds::default()
        };
        let mut s = ExploreScheduler::new(bounds, vec![1], None);
        assert!(s.flush_duplicate(0, 1, 0.0), "prefix forces the duplicate");
        assert_eq!(s.log()[0].kind, ChoiceKind::Duplicate);
        assert!(!s.flush_duplicate(0, 1, 0.0), "budget spent: deliver once");
        assert_eq!(s.log().len(), 1);
    }

    #[test]
    fn por_offers_only_the_conflict_component() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![], None);
        // 0 and 2 conflict on page 7; 1 is alone on page 9.
        let cands = [cand(0, &[7]), cand(1, &[9]), cand(2, &[7])];
        assert_eq!(s.choose(ChoiceKind::Delivery, &cands), 0);
        assert_eq!(
            s.log(),
            &[ChoicePoint {
                kind: ChoiceKind::Delivery,
                chosen: 0,
                alts: 2
            }],
            "candidate 1 commutes with the whole component and is not offered"
        );
    }

    #[test]
    fn por_collapsed_point_records_nothing() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![], None);
        let cands = [cand(0, &[1]), cand(1, &[2]), cand(2, &[3])];
        assert_eq!(s.choose(ChoiceKind::Delivery, &cands), 0);
        assert!(s.log().is_empty(), "fully commuting batch: one schedule");
    }

    #[test]
    fn without_por_every_candidate_is_offered() {
        let bounds = Bounds {
            por: false,
            ..Bounds::default()
        };
        let mut s = ExploreScheduler::new(bounds, vec![2], None);
        let cands = [cand(0, &[1]), cand(1, &[2]), cand(2, &[3])];
        assert_eq!(s.choose(ChoiceKind::Delivery, &cands), 2);
        assert_eq!(s.log()[0].alts, 3);
    }

    #[test]
    fn visited_set_prunes_second_visit_only_past_prefix() {
        let visited: Visited = Rc::new(RefCell::new(FastSet::default()));
        let mut a = ExploreScheduler::new(Bounds::default(), vec![], Some(Rc::clone(&visited)));
        assert!(a.observe_barrier(41), "first visit continues");
        assert!(a.observe_barrier(42));
        let mut b = ExploreScheduler::new(Bounds::default(), vec![0], Some(Rc::clone(&visited)));
        assert!(
            b.observe_barrier(41),
            "a visited state inside the replay region is not pruned"
        );
        b.flush_drop(0, 1, 0.0); // consume the prefix
        assert!(
            !b.observe_barrier(42),
            "revisiting state 42 at barrier depth 2 past the prefix prunes"
        );
    }

    #[test]
    #[should_panic(expected = "diverged trace")]
    fn divergent_prefix_is_detected() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![5], None);
        s.flush_drop(0, 1, 0.0); // a drop point has only 2 alternatives
    }

    fn groups_of(pairs: &[(u32, u32)]) -> StaticGroups {
        let mut g = FastMap::default();
        for &(page, root) in pairs {
            g.insert(page, root);
        }
        Rc::new(g)
    }

    #[test]
    fn refinement_holds_when_component_sits_in_one_group() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![], None);
        s.set_static_groups(groups_of(&[(7, 7), (8, 7), (9, 9)]));
        // {0,2} conflict on page 7 and drag in page 8 — both rooted at 7;
        // candidate 1's page 9 is outside the component entirely.
        let cands = [cand(0, &[7]), cand(1, &[9]), cand(2, &[7, 8])];
        assert_eq!(s.choose(ChoiceKind::Arrival, &cands), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "spans static page groups")]
    fn refinement_violation_is_detected() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![], None);
        s.set_static_groups(groups_of(&[(7, 7), (8, 8)]));
        // One dynamic component over pages {7, 8}, but the static analysis
        // put those pages in different groups: the dynamic graph is
        // coarser than predicted.
        let cands = [cand(0, &[7, 8]), cand(1, &[7])];
        s.choose(ChoiceKind::Arrival, &cands);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "in no static store set")]
    fn unmapped_footprint_page_is_detected() {
        let mut s = ExploreScheduler::new(Bounds::default(), vec![], None);
        s.set_static_groups(groups_of(&[(7, 7)]));
        let cands = [cand(0, &[7, 42]), cand(1, &[7])];
        s.choose(ChoiceKind::Arrival, &cands);
    }
}
