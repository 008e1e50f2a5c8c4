//! Candidate-set reductions — Lemmas 1 and 2 of the paper (§4.2).
//!
//! * **All-connection rule (Lemma 1)**: a candidate adjacent to *every*
//!   candidate on the other side can be moved into the partial result —
//!   any solution not containing it extends to one containing it, and
//!   `min(|A|, |B|)` never decreases.
//! * **Low-degree rule (Lemma 2)**: a candidate whose candidate-degree
//!   cannot lift its own side past the incumbent half-size can be dropped.
//!   We use the strict-improvement form: `u ∈ CA` is dropped when
//!   `|B| + deg(u, CB) ≤ best_half`, since only strictly larger balanced
//!   bicliques matter (the incumbent itself is already recorded).
//!
//! The rules are applied to fixpoint, one side per pass. Both read a
//! candidate's degree towards the other side's candidates, and those
//! degrees change only when the other side's set does. `Candidates`
//! keeps them between passes and between search nodes, so a pass
//! recounts its side only after the other side lost a candidate, with one
//! `LocalGraph::left_degrees_in`/`right_degrees_in` call for the side. A
//! pass that recounts costs `O(|C|·n/64)` bitset work for its side's
//! candidates `C`; one that reads the kept degrees costs `O(|C|)`, and
//! decides each candidate without a branch.

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::local::LocalGraph;

use crate::stats::SearchStats;

/// One side's candidates, each with its degree towards the other side's
/// candidates.
struct Side {
    set: BitSet,
    /// `degrees[x]` is the number of neighbours `x` has among the other
    /// side's candidates, for every `x` in `set`, while `counted` holds.
    /// Indexed by local id; the entries of non-members are stale.
    degrees: Vec<u32>,
    counted: bool,
}

impl Side {
    fn new(set: BitSet) -> Side {
        Side {
            set,
            degrees: Vec::new(),
            counted: false,
        }
    }

    /// Counts every member's degree towards `other`.
    #[inline] // see `Candidates::count`
    fn count(&mut self, other: &BitSet, degrees_in: impl Fn(&BitSet, &BitSet, &mut [u32])) {
        self.degrees.resize(self.set.capacity(), 0);
        degrees_in(&self.set, other, &mut self.degrees);
        self.counted = true;
    }

    /// One pass of the rules over this side, counting its degrees first
    /// when they are stale: drops each candidate that cannot lift its side
    /// past `best_half` next to the other side's `other_partial` fixed
    /// vertices, and moves each one adjacent to all of `other`'s
    /// candidates into `partial`, in ascending id. Returns whether any
    /// candidate left, in which case `other`'s degrees are stale.
    #[inline] // see `Candidates::count`
    fn pass(
        &mut self,
        other: &mut Side,
        degrees_in: impl Fn(&BitSet, &BitSet, &mut [u32]),
        partial: &mut Vec<u32>,
        other_partial: usize,
        best_half: usize,
        stats: &mut SearchStats,
    ) -> bool {
        if !self.counted {
            self.count(&other.set, degrees_in);
        }
        // Lemma 2 drops `x` when `other_partial + deg(x) ≤ best_half`, that
        // is when `deg(x) < floor`; Lemma 1 promotes it when `deg(x)` is all
        // of `other`'s candidates (and it sees all of the other partial
        // result by invariant).
        let floor = (best_half + 1).saturating_sub(other_partial);
        let all = other.set.len();
        let degrees = &self.degrees;
        let before = self.set.len();
        let mut dropped = 0;
        // The degrees are towards `other`, which this pass leaves alone, so
        // removing members changes none of them.
        self.set.remove_by_word(|wi, word| {
            let (mut drop, mut promote) = (0u64, 0u64);
            let mut bits = word;
            while bits != 0 {
                let bit = bits.trailing_zeros();
                bits &= bits - 1;
                let degree = degrees[wi * 64 + bit as usize] as usize;
                let low = (degree < floor) as u64;
                drop |= low << bit;
                promote |= (((degree == all) as u64) & !low) << bit;
            }
            dropped += drop.count_ones();
            let mut promoted = promote;
            while promoted != 0 {
                partial.push((wi * 64) as u32 + promoted.trailing_zeros());
                promoted &= promoted - 1;
            }
            drop | promote
        });
        stats.reduced_vertices += u64::from(dropped);
        let changed = self.set.len() != before;
        if changed {
            other.counted = false;
        }
        changed
    }
}

/// The candidate sets `CA`, `CB` of a search node, with each candidate's
/// degree towards the other set.
///
/// The degrees of a side stay valid until the other side's set changes.
/// The reduction recounts them after that; the branching steps
/// ([`Candidates::include`], [`Candidates::exclude`]) update them in place
/// where they can. Each read returns the number a fresh
/// `left_degree_in`/`right_degree_in` count would.
pub(crate) struct Candidates {
    left: Side,
    right: Side,
}

impl Candidates {
    /// `ca` and `cb` with no degree counted yet.
    pub(crate) fn new(ca: BitSet, cb: BitSet) -> Candidates {
        Candidates {
            left: Side::new(ca),
            right: Side::new(cb),
        }
    }

    /// Empty sets, for a buffer that [`Candidates::include`] fills.
    pub(crate) fn empty() -> Candidates {
        Candidates::new(BitSet::new(0), BitSet::new(0))
    }

    /// The left candidates `CA`.
    pub(crate) fn ca(&self) -> &BitSet {
        &self.left.set
    }

    /// The right candidates `CB`.
    pub(crate) fn cb(&self) -> &BitSet {
        &self.right.set
    }

    /// `deg(u, CB)` at index `u` for every `u ∈ CA`. Valid after
    /// [`Candidates::count`] or [`Candidates::reduce`].
    pub(crate) fn ca_degrees(&self) -> &[u32] {
        debug_assert!(self.left.counted);
        &self.left.degrees
    }

    /// `deg(v, CA)` at index `v` for every `v ∈ CB`.
    pub(crate) fn cb_degrees(&self) -> &[u32] {
        debug_assert!(self.right.counted);
        &self.right.degrees
    }

    /// Counts the degrees of each side whose kept ones are stale.
    // Runs at every `denseMBB` node: `#[inline]` lets the searcher inline
    // it whichever of the crate's codegen units each of them lands in.
    #[inline]
    pub(crate) fn count(&mut self, graph: &LocalGraph) {
        let left_in = |m: &BitSet, o: &BitSet, out: &mut [u32]| graph.left_degrees_in(m, o, out);
        let right_in = |m: &BitSet, o: &BitSet, out: &mut [u32]| graph.right_degrees_in(m, o, out);
        if !self.left.counted {
            self.left.count(&self.right.set, left_in);
        }
        if !self.right.counted {
            self.right.count(&self.left.set, right_in);
        }
    }

    /// Applies Lemmas 1 and 2 to fixpoint, moving promoted candidates into
    /// `a`/`b`; both sides' degrees are counted afterwards.
    ///
    /// Invariants expected and preserved: every `u ∈ CA` is adjacent to
    /// all of `B`, every `v ∈ CB` to all of `A`.
    pub(crate) fn reduce(
        &mut self,
        graph: &LocalGraph,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        best_half: usize,
        stats: &mut SearchStats,
    ) {
        // A pass reads only the bound and the other side's candidates and
        // partial result, and changes neither. So once a pass changes
        // nothing after both sides have run, the next one would see what
        // its side's last pass saw, and change nothing either.
        let left_in = |m: &BitSet, o: &BitSet, out: &mut [u32]| graph.left_degrees_in(m, o, out);
        let right_in = |m: &BitSet, o: &BitSet, out: &mut [u32]| graph.right_degrees_in(m, o, out);
        let mut on_left = true;
        let mut passes = 0;
        loop {
            let changed = if on_left {
                self.left
                    .pass(&mut self.right, left_in, a, b.len(), best_half, stats)
            } else {
                self.right
                    .pass(&mut self.left, right_in, b, a.len(), best_half, stats)
            };
            passes += 1;
            if !changed && passes >= 2 {
                return;
            }
            on_left = !on_left;
        }
    }

    /// Writes into `child` the candidates of the *include* branch on `x`
    /// (a left vertex when `on_left`): `x` leaves its own side, since it is
    /// now fixed in the result, and the other side keeps only `x`'s
    /// neighbours. `child`'s buffers are reused when their size fits.
    ///
    /// Each kept neighbour loses `x` from its degree. The degrees of `x`'s
    /// side are left to be counted, since the set they count against was
    /// cut. This is the one place the include semantics live: the serial
    /// recursion and the frontier expansion of the parallel search both
    /// build children through it, which keeps the parallel search space
    /// identical to the serial one.
    pub(crate) fn include(
        &self,
        graph: &LocalGraph,
        on_left: bool,
        x: u32,
        child: &mut Candidates,
    ) {
        child.left.set.clone_from(&self.left.set);
        child.right.set.clone_from(&self.right.set);
        let (own, cut, parent_cut, row) = if on_left {
            (
                &mut child.left,
                &mut child.right,
                &self.right,
                graph.left_row(x),
            )
        } else {
            (
                &mut child.right,
                &mut child.left,
                &self.left,
                graph.right_row(x),
            )
        };
        own.set.remove(x as usize);
        own.counted = false;
        cut.set.and_assign_count(&row);
        cut.counted = parent_cut.counted;
        if cut.counted {
            cut.degrees.resize(parent_cut.degrees.len(), 0);
            for y in cut.set.iter() {
                cut.degrees[y] = parent_cut.degrees[y] - 1;
            }
        }
    }

    /// The *exclude* branch on `x`: `x` leaves its side's candidates, and
    /// each of its neighbours on the other side loses one degree.
    pub(crate) fn exclude(&mut self, graph: &LocalGraph, on_left: bool, x: u32) {
        let (own, other, row) = if on_left {
            (&mut self.left, &mut self.right, graph.left_row(x))
        } else {
            (&mut self.right, &mut self.left, graph.right_row(x))
        };
        own.set.remove(x as usize);
        if other.counted {
            for y in other.set.iter_and(&row) {
                other.degrees[y] -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Applies Lemmas 1 and 2 to fixpoint, mutating the partial result and
    /// the candidate sets in place, with every degree counted afresh: the
    /// reference the search's kept degrees are checked against.
    ///
    /// Invariants expected and preserved: every `u ∈ CA` is adjacent to
    /// all of `B`, every `v ∈ CB` to all of `A`.
    fn reduce_candidates(
        graph: &LocalGraph,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        ca: &mut BitSet,
        cb: &mut BitSet,
        best_half: usize,
        stats: &mut SearchStats,
    ) {
        let taken = |set: &mut BitSet| std::mem::replace(set, BitSet::new(0));
        let mut node = Candidates::new(taken(ca), taken(cb));
        node.reduce(graph, a, b, best_half, stats);
        (*ca, *cb) = (node.left.set, node.right.set);
    }

    fn complete(nl: usize, nr: usize) -> LocalGraph {
        let mut g = LocalGraph::new(nl, nr);
        for u in 0..nl as u32 {
            for v in 0..nr as u32 {
                g.add_edge(u, v);
            }
        }
        g
    }

    #[test]
    fn all_connection_promotes_complete_graph() {
        let g = complete(3, 3);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(3);
        let mut cb = BitSet::full(3);
        let mut stats = SearchStats::default();
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 0, &mut stats);
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
        assert!(ca.is_empty());
        assert!(cb.is_empty());
    }

    #[test]
    fn low_degree_rule_removes_hopeless_candidates() {
        // L0 sees both rights, L1 sees only R0. With best_half = 1 and
        // empty (A, B), L1 needs |B| + deg = 0 + 1 ≤ 1 → dropped.
        let g = LocalGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0)]);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(2);
        let mut cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 1, &mut stats);
        assert!(!ca.contains(1), "L1 should be dropped");
        assert!(stats.reduced_vertices >= 1);
    }

    #[test]
    fn reduction_cascades_to_fixpoint() {
        // Path L0-R0-L1-R1: with best_half = 1 everything unravels, since
        // every vertex has candidate-degree ≤ ... after drops cascade.
        let g = LocalGraph::from_edges(2, 2, [(0, 0), (1, 0), (1, 1)]);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(2);
        let mut cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 1, &mut stats);
        // L0 (degree 1 ≤ best_half) is dropped; L1 connects to all of CB
        // and is promoted into A; both rights then fall below the degree
        // threshold and are dropped.
        assert!(ca.is_empty());
        assert!(cb.is_empty());
        assert_eq!(a, vec![1]);
        assert!(b.is_empty());
    }

    #[test]
    fn no_changes_when_rules_do_not_fire() {
        // 4-cycle: every candidate has degree 1 within... actually C4 as
        // bipartite graph: L0-R0, L0-R1, L1-R0, L1-R1 minus two edges.
        let g = LocalGraph::from_edges(2, 2, [(0, 0), (0, 1), (1, 0)]);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(2);
        let mut cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        // best_half = 0: low-degree rule fires only for degree-0 vertices.
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 0, &mut stats);
        // L0 is adjacent to all of CB → promoted; then R0 adjacent to all
        // of remaining CA = {1} → promoted; L1 adjacent to remaining CB
        // {1}? L1-R1 missing → not promoted and degree 1 > 0 keeps it...
        // the cascade continues until fixpoint; just assert invariants.
        let total = a.len() + ca.len();
        assert!(total >= 1);
        for &u in &a {
            for &v in &b {
                assert!(g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn promoted_vertices_keep_invariant() {
        // Every vertex in CA must stay adjacent to all of B after moves.
        let g = complete(4, 2);
        let mut a = vec![];
        let mut b = vec![];
        let mut ca = BitSet::full(4);
        let mut cb = BitSet::full(2);
        let mut stats = SearchStats::default();
        reduce_candidates(&g, &mut a, &mut b, &mut ca, &mut cb, 0, &mut stats);
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 2);
        assert!(g.is_biclique(&a, &b));
    }

    /// Checks each counted side's kept degrees against fresh counts.
    fn assert_fresh(g: &LocalGraph, node: &Candidates) {
        if node.left.counted {
            for u in node.ca().iter() {
                let fresh = g.left_degree_in(u as u32, node.cb());
                assert_eq!(node.left.degrees[u] as usize, fresh, "left {u}");
            }
        }
        if node.right.counted {
            for v in node.cb().iter() {
                let fresh = g.right_degree_in(v as u32, node.ca());
                assert_eq!(node.right.degrees[v] as usize, fresh, "right {v}");
            }
        }
    }

    /// Walks random include/exclude branches down to empty candidate
    /// sets, reducing at every node. Each reduction on kept degrees must
    /// match [`reduce_candidates`] on copies of the same sets, and every
    /// kept degree must match a fresh count, up to three words per row.
    #[test]
    fn kept_degrees_match_fresh_counts() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let nl = rng.gen_range(1..=150usize);
            let nr = rng.gen_range(1..=150usize);
            let density = rng.gen_range(0.3..0.95);
            let mut g = LocalGraph::new(nl, nr);
            for u in 0..nl as u32 {
                for v in 0..nr as u32 {
                    if rng.gen_bool(density) {
                        g.add_edge(u, v);
                    }
                }
            }
            let mut node = Candidates::new(BitSet::full(nl), BitSet::full(nr));
            let mut child = Candidates::empty();
            let (mut a, mut b) = (Vec::new(), Vec::new());
            loop {
                let best_half = rng.gen_range(0..4usize);
                let (mut want_a, mut want_b) = (a.clone(), b.clone());
                let (mut want_ca, mut want_cb) = (node.ca().clone(), node.cb().clone());
                let mut want = SearchStats::default();
                reduce_candidates(
                    &g,
                    &mut want_a,
                    &mut want_b,
                    &mut want_ca,
                    &mut want_cb,
                    best_half,
                    &mut want,
                );
                let mut got = SearchStats::default();
                node.reduce(&g, &mut a, &mut b, best_half, &mut got);
                assert_eq!((&a, &b), (&want_a, &want_b), "seed {seed}");
                assert_eq!((node.ca(), node.cb()), (&want_ca, &want_cb), "seed {seed}");
                assert_eq!(got.reduced_vertices, want.reduced_vertices, "seed {seed}");
                assert!(node.left.counted && node.right.counted);
                assert_fresh(&g, &node);

                let on_left = match (node.ca().is_empty(), node.cb().is_empty()) {
                    (true, true) => break,
                    (false, false) => rng.gen_bool(0.5),
                    (left_empty, _) => !left_empty,
                };
                let side = if on_left { node.ca() } else { node.cb() };
                let pick = rng.gen_range(0..side.len());
                let x = side.iter().nth(pick).expect("a member") as u32;
                if rng.gen_bool(0.5) {
                    node.include(&g, on_left, x, &mut child);
                    std::mem::swap(&mut node, &mut child);
                    if on_left { &mut a } else { &mut b }.push(x);
                } else {
                    node.exclude(&g, on_left, x);
                }
                assert_fresh(&g, &node);
            }
        }
    }
}
