//! `denseMBB` — Algorithm 3, the paper's O*(1.3803ⁿ) reduction, branch and
//! bound algorithm for dense bipartite graphs.
//!
//! Per recursion:
//!
//! 1. **bound** — prune when the remaining material cannot beat the
//!    incumbent half-size;
//! 2. **reduce** — Lemmas 1 and 2 to fixpoint (`reduce.rs`), then bound
//!    again;
//! 3. **König bound** (beyond the paper) — prune when a greedy matching
//!    of the candidates' bipartite complement shows that every biclique
//!    extending the node misses too many candidates to beat the
//!    incumbent (see `DenseSearcher::step`);
//! 4. **polynomial case** — if every candidate misses ≤ 2 neighbours
//!    (Lemma 3), solve exactly with `dynamicMBB` and return;
//! 5. **branch** — otherwise some vertex misses ≥ 3 neighbours; branching
//!    on it kills ≥ 4 candidate vertices in the include branch and 1 in the
//!    exclude branch — the (4, 1) branching factor that bounds the
//!    recursion tree by O(1.3803ⁿ).
//!
//! The "triviality last" strategy picks the candidate with the *most*
//! missing neighbours, steering the residual graph towards the polynomial
//! case as fast as possible.
//!
//! One search runs on one thread. A multi-threaded solve spends its
//! workers one level up, each verifying whole vertex-centred subgraphs
//! ([`crate::verify`]).

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::graph::BipartiteGraph;
use mbb_bigraph::local::LocalGraph;
use mbb_bigraph::matching::greedy_complement_matching;

use crate::basic::LocalBiclique;
use crate::biclique::Biclique;
use crate::budget::SearchBudget;
use crate::poly::DynamicMbb;
use crate::reduce::Candidates;
use crate::stats::SearchStats;

/// The ablation switch of [`dense_mbb_budgeted`].
#[derive(Debug, Clone, Copy)]
pub struct DenseConfig {
    /// The §4 branching technique (on by default): solve the Lemma 3
    /// polynomial case, and otherwise branch on the candidate missing the
    /// *most* neighbours (the triviality-last strategy). Off is the `bd3`
    /// "without branching technique" ablation: no polynomial case, and
    /// each node branches on its first left candidate.
    pub use_branching_technique: bool,
}

impl Default for DenseConfig {
    fn default() -> Self {
        DenseConfig {
            use_branching_technique: true,
        }
    }
}

/// Runs `denseMBB` from a partial state under a [`SearchBudget`]: `a`/`b`
/// are already-fixed result vertices (every candidate in `ca` must be
/// adjacent to all of `b` and vice versa — the Algorithm 8 caller seeds
/// `a = [centre]`, `cb ⊆ N(centre)`). The branch-and-bound checks the
/// budget at every node and unwinds with the best-so-far biclique once it
/// is exhausted (anytime semantics).
///
/// `initial_half` seeds the incumbent bound; the result is a balanced
/// biclique strictly larger than `initial_half` when one exists (empty
/// otherwise).
///
/// ```
/// use mbb_bigraph::bitset::BitSet;
/// use mbb_bigraph::local::LocalGraph;
/// use mbb_core::budget::SearchBudget;
/// use mbb_core::dense::{dense_mbb_budgeted, DenseConfig};
/// // Complete 3×3 minus one corner edge: a 2×3 block remains, so the
/// // balanced optimum is 2×2.
/// let g = LocalGraph::from_edges(3, 3, [
///     (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1),
/// ]);
/// let (found, stats) = dense_mbb_budgeted(
///     &g,
///     Vec::new(),
///     Vec::new(),
///     BitSet::full(3),
///     BitSet::full(3),
///     0,
///     DenseConfig::default(),
///     &SearchBudget::unlimited(),
/// );
/// assert_eq!(found.half(), 2);
/// assert!(stats.poly_solves >= 1); // solved via the Lemma 3 case
/// ```
#[allow(clippy::too_many_arguments)] // the seeded state plus config and budget
pub fn dense_mbb_budgeted(
    graph: &LocalGraph,
    mut a: Vec<u32>,
    mut b: Vec<u32>,
    ca: BitSet,
    cb: BitSet,
    initial_half: usize,
    config: DenseConfig,
    budget: &SearchBudget,
) -> (LocalBiclique, SearchStats) {
    debug_assert!(a.iter().all(|&u| {
        cb.iter().all(|v| graph.has_edge(u, v as u32)) && b.iter().all(|&v| graph.has_edge(u, v))
    }));
    debug_assert!(b
        .iter()
        .all(|&v| ca.iter().all(|u| graph.has_edge(u as u32, v))));
    let mut searcher = DenseSearcher::new(graph, initial_half, config, budget);
    searcher.recurse(&mut a, &mut b, &mut Candidates::new(ca, cb), 0);
    let stats = searcher.stats;
    (searcher.best.balance(), stats)
}

/// [`dense_mbb_budgeted`] on the subgraph of `graph` induced by
/// `left_ids` and `right_ids`, with the vertices at positions
/// `pinned_left` / `pinned_right` of those lists fixed in the result, in
/// the ids of `graph`. Every seeded search of the crate starts here:
/// verification pins a subgraph's centre (Algorithm 8, line 4), an
/// anchored query its anchor vertex or edge (Observation 4), and the
/// whole-graph [`crate::dense_mbb_graph`] pins nothing.
///
/// Local index `i` on each side is the `i`-th id of its list. The
/// candidates are every unpinned vertex adjacent to all pins on the other
/// side; the pins must be pairwise adjacent across the sides.
#[allow(clippy::too_many_arguments)] // the seeded state plus config and budget
pub(crate) fn dense_mbb_pinned(
    graph: &BipartiteGraph,
    left_ids: &[u32],
    right_ids: &[u32],
    pinned_left: &[u32],
    pinned_right: &[u32],
    initial_half: usize,
    config: DenseConfig,
    budget: &SearchBudget,
) -> (Biclique, SearchStats) {
    let local = LocalGraph::induced(graph, left_ids, right_ids);
    dense_mbb_pinned_local(
        &local,
        left_ids,
        right_ids,
        pinned_left,
        pinned_right,
        initial_half,
        config,
        budget,
    )
}

/// The search of [`dense_mbb_pinned`] over `local`, already built as the
/// subgraph `left_ids × right_ids` induces (verification gathers it from
/// the residual's bitset rows).
#[allow(clippy::too_many_arguments)] // the seeded state plus config and budget
pub(crate) fn dense_mbb_pinned_local(
    local: &LocalGraph,
    left_ids: &[u32],
    right_ids: &[u32],
    pinned_left: &[u32],
    pinned_right: &[u32],
    initial_half: usize,
    config: DenseConfig,
    budget: &SearchBudget,
) -> (Biclique, SearchStats) {
    debug_assert_eq!(
        (local.num_left(), local.num_right()),
        (left_ids.len(), right_ids.len())
    );
    let mut ca = BitSet::full(local.num_left());
    let mut cb = BitSet::full(local.num_right());
    for &u in pinned_left {
        ca.remove(u as usize);
        cb.intersect_with(&local.left_row(u));
    }
    for &v in pinned_right {
        cb.remove(v as usize);
        ca.intersect_with(&local.right_row(v));
    }
    let (a, b) = (pinned_left.to_vec(), pinned_right.to_vec());
    let (found, stats) = dense_mbb_budgeted(local, a, b, ca, cb, initial_half, config, budget);
    let to_ids = |local: Vec<u32>, ids: &[u32]| local.iter().map(|&i| ids[i as usize]).collect();
    let found = Biclique::balanced(to_ids(found.left, left_ids), to_ids(found.right, right_ids));
    (found, stats)
}

/// How a single node of the search resolved: either the subtree is done
/// (pruned, polynomial-solved, leaf, or budget-exhausted), or the node
/// must branch on the returned candidate.
enum StepOutcome {
    Resolved,
    Branch { on_left: bool, vertex: u32 },
}

struct DenseSearcher<'g> {
    graph: &'g LocalGraph,
    best: LocalBiclique,
    best_half: usize,
    stats: SearchStats,
    config: DenseConfig,
    budget: SearchBudget,
    // Per-node memory, reused so that a node allocates nothing.
    /// Candidate sets, with their degree arrays, for include children: a
    /// child takes one and returns it when its subtree is done, so the
    /// pool holds one per include depth reached.
    spare: Vec<Candidates>,
    /// The Lemma 3 decomposition and DP table.
    lemma3: DynamicMbb,
    /// The right candidates the König bound's matching has not paired
    /// yet, refilled from `CB` at each node.
    free: BitSet,
}

impl<'g> DenseSearcher<'g> {
    fn new(
        graph: &'g LocalGraph,
        best_half: usize,
        config: DenseConfig,
        budget: &SearchBudget,
    ) -> Self {
        DenseSearcher {
            graph,
            best: LocalBiclique::default(),
            best_half,
            stats: SearchStats::default(),
            config,
            budget: budget.clone(),
            spare: Vec::new(),
            lemma3: DynamicMbb::default(),
            free: BitSet::new(0),
        }
    }

    /// Records a biclique that beats the incumbent (callers check first,
    /// so that nodes that do not improve build nothing).
    fn record(&mut self, left: Vec<u32>, right: Vec<u32>) {
        let half = left.len().min(right.len());
        debug_assert!(half > self.best_half);
        self.best_half = half;
        self.best = LocalBiclique { left, right };
    }

    fn leaf(&mut self, depth: u64) {
        self.stats.leaf_depth_sum += depth;
        self.stats.leaf_count += 1;
    }

    /// Resolves a node whose bound cannot beat the incumbent.
    fn prune(&mut self, depth: u64) -> StepOutcome {
        self.stats.bound_prunes += 1;
        self.leaf(depth);
        StepOutcome::Resolved
    }

    /// One node of Algorithm 3: bound, reduce, re-bound, König bound,
    /// polynomial case, branch selection. Mutates the partial result (the
    /// reduction promotes all-connected candidates into `a`/`b`) and the
    /// candidate sets in place; the caller owns unwinding.
    ///
    /// The König bound: a biclique `(A ∪ A', B ∪ B')` with `A' ⊆ CA` and
    /// `B' ⊆ CB` is an independent set of the bipartite complement of
    /// `CA × CB`, so each pair of any matching `M` of that complement has
    /// an end outside it, and its half-size `k` has
    /// `2k ≤ |A| + |B| + |CA| + |CB| − |M|`. With a maximum matching this
    /// is König's theorem, the polynomial maximum vertex biclique; a
    /// greedy matching gives a weaker bound that is still valid.
    fn step(
        &mut self,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        node: &mut Candidates,
        depth: u64,
    ) -> StepOutcome {
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);

        // Budget: once exhausted every level resolves immediately, so the
        // whole recursion unwinds with the best-so-far result.
        if self.budget.is_exhausted() {
            self.leaf(depth);
            return StepOutcome::Resolved;
        }

        // Bounding (line 1).
        let cap = (a.len() + node.ca().len()).min(b.len() + node.cb().len());
        if cap <= self.best_half {
            return self.prune(depth);
        }

        // Reduction (line 2) and re-bound (line 3).
        node.reduce(self.graph, a, b, self.best_half, &mut self.stats);
        let (ca, cb) = (node.ca(), node.cb());
        let cap = (a.len() + ca.len()).min(b.len() + cb.len());
        if cap <= self.best_half {
            return self.prune(depth);
        }

        // König bound: no biclique here beats the incumbent once the
        // matching has `need` pairs. The re-bound leaves each side at least
        // `best_half + 1` vertices, so `need ≥ 1`; a matching has at most
        // `min(|CA|, |CB|)` pairs, so a larger `need` is not tried.
        let need = a.len() + b.len() + ca.len() + cb.len() - (2 * self.best_half + 1);
        if need <= ca.len().min(cb.len()) {
            self.free.clone_from(cb);
            if greedy_complement_matching(self.graph, ca, &mut self.free, need) == need {
                return self.prune(depth);
            }
        }

        // One pass over both candidate sets reading the missing-neighbour
        // counts the reduction left counted. It feeds the Lemma 3
        // polynomial-case test (max missing ≤ 2) and the triviality-last
        // branch choice (argmax missing).
        let scan = scan_candidates(self.graph, node);

        // Polynomial case (lines 4–8).
        if self.config.use_branching_technique && scan.max_missing <= 2 {
            let solved = self.lemma3.solve(
                self.graph,
                node.ca(),
                node.cb(),
                a.len(),
                b.len(),
                &mut self.stats,
            );
            if let Some((left_total, right_total)) = solved {
                if left_total.min(right_total) > self.best_half {
                    let mut left = a.clone();
                    let mut right = b.clone();
                    self.lemma3.realize(&mut left, &mut right);
                    self.record(left, right);
                }
                self.leaf(depth);
                return StepOutcome::Resolved;
            }
        }
        if !self.config.use_branching_technique && node.ca().is_empty() && node.cb().is_empty() {
            if a.len().min(b.len()) > self.best_half {
                self.record(a.clone(), b.clone());
            }
            self.leaf(depth);
            return StepOutcome::Resolved;
        }

        // Branching (lines 9–15): pick the candidate missing the most
        // neighbours, at least 3 once the polynomial case has passed.
        let (on_left, vertex) = if self.config.use_branching_technique {
            debug_assert!(
                scan.max_missing >= 3,
                "polynomial case should have caught missing = {}",
                scan.max_missing
            );
            scan.argmax
                .expect("a candidate remains when the node branches")
        } else {
            // bd3: naive first-candidate branching.
            let u = node
                .ca()
                .first()
                .expect("a left candidate remains when the node branches");
            (true, u as u32)
        };
        StepOutcome::Branch { on_left, vertex }
    }

    /// Exclude branches iterate in place (they only shrink one candidate
    /// set), so stack depth is bounded by the include chain — at most the
    /// half-size of the biclique being built — not by the candidate count.
    fn recurse(
        &mut self,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        node: &mut Candidates,
        mut depth: u64,
    ) {
        let (a_mark, b_mark) = (a.len(), b.len());
        while let StepOutcome::Branch { on_left, vertex: u } = self.step(a, b, node, depth) {
            // Include u (recursive branch), in candidate sets from the pool.
            let mut child = self.spare.pop().unwrap_or_else(Candidates::empty);
            node.include(self.graph, on_left, u, &mut child);
            let side = if on_left { &mut *a } else { &mut *b };
            side.push(u);
            self.recurse(a, b, &mut child, depth + 1);
            let side = if on_left { &mut *a } else { &mut *b };
            side.pop();
            self.spare.push(child);
            // Exclude u: continue iterating in place.
            node.exclude(self.graph, on_left, u);
            depth += 1;
        }

        a.truncate(a_mark);
        b.truncate(b_mark);
    }
}

/// Result of the per-node candidate scan.
struct CandidateScan {
    /// Largest missing-neighbour count over both candidate sets.
    max_missing: usize,
    /// The candidate missing the most neighbours, as `(on_left, index)`.
    /// Left candidates win ties: among equal left counts the last left
    /// candidate is kept, and a right candidate replaces it only with a
    /// strictly larger count, the first right one with that count.
    /// `None` only when both candidate sets are empty.
    argmax: Option<(bool, u32)>,
}

/// Single pass over the candidate sets: missing counts and argmax. Every
/// degree is read from `node`'s counted arrays; debug builds check each
/// against a fresh count.
///
/// `node` must be at a Lemma 1/2 fixpoint, which leaves both candidate
/// sets empty or neither: a pass over one side, once the other is empty,
/// drops or promotes every candidate.
#[inline]
fn scan_candidates(graph: &LocalGraph, node: &Candidates) -> CandidateScan {
    let (ca, cb) = (node.ca(), node.cb());
    let (ca_degrees, cb_degrees) = (node.ca_degrees(), node.cb_degrees());
    let (ca_len, cb_len) = (ca.len(), cb.len());
    debug_assert_eq!(ca_len == 0, cb_len == 0);

    // Each side's argmax is one `max` over `missing << 32 | tie`, with the
    // tie favouring the last left candidate and the first right one.
    let (mut left, mut right) = (0u64, 0u64);
    for u in ca.iter() {
        let degree = ca_degrees[u] as usize;
        debug_assert_eq!(degree, graph.left_degree_in(u as u32, cb), "left {u}");
        left = left.max(((cb_len - degree) as u64) << 32 | u as u64);
    }
    for v in cb.iter() {
        let degree = cb_degrees[v] as usize;
        debug_assert_eq!(degree, graph.right_degree_in(v as u32, ca), "right {v}");
        right = right.max(((ca_len - degree) as u64) << 32 | (u32::MAX - v as u32) as u64);
    }
    let (left_missing, right_missing) = ((left >> 32) as usize, (right >> 32) as usize);
    let argmax = (ca_len > 0).then(|| {
        if left_missing >= right_missing {
            (true, left as u32)
        } else {
            (false, u32::MAX - right as u32)
        }
    });

    CandidateScan {
        max_missing: left_missing.max(right_missing),
        argmax,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::basic_bb;
    use crate::testutil::brute_force_half_local as brute_force_half;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// Unbudgeted `denseMBB` over a whole local graph.
    fn dense_mbb(graph: &LocalGraph, initial_half: usize) -> (LocalBiclique, SearchStats) {
        let (ca, cb) = (
            BitSet::full(graph.num_left()),
            BitSet::full(graph.num_right()),
        );
        let unlimited = SearchBudget::unlimited();
        dense_mbb_budgeted(
            graph,
            vec![],
            vec![],
            ca,
            cb,
            initial_half,
            DenseConfig::default(),
            &unlimited,
        )
    }

    fn random_graph(nl: usize, nr: usize, density: f64, seed: u64) -> LocalGraph {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut g = LocalGraph::new(nl, nr);
        for u in 0..nl as u32 {
            for v in 0..nr as u32 {
                if rng.gen_bool(density) {
                    g.add_edge(u, v);
                }
            }
        }
        g
    }

    #[test]
    fn complete_graph_is_polynomially_solved() {
        let mut g = LocalGraph::new(5, 7);
        for u in 0..5 {
            for v in 0..7 {
                g.add_edge(u, v);
            }
        }
        let (b, stats) = dense_mbb(&g, 0);
        assert_eq!(b.half(), 5);
        // The first recursion already hits the polynomial case: no branch.
        assert_eq!(stats.nodes, 1);
        assert_eq!(stats.poly_solves, 1);
    }

    #[test]
    fn empty_graph() {
        let g = LocalGraph::new(4, 4);
        let (b, _) = dense_mbb(&g, 0);
        assert_eq!(b.half(), 0);
    }

    /// From an empty incumbent, from one just below the optimum and from
    /// the optimum itself, the last two being where the bounds prune
    /// hardest.
    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            let nl = rng.gen_range(1..=12usize);
            let nr = rng.gen_range(1..=12usize);
            let density = rng.gen_range(0.2..0.95);
            let g = random_graph(nl, nr, density, seed);
            let brute = brute_force_half(&g);
            for initial_half in [0, brute.saturating_sub(1)] {
                let (found, _) = dense_mbb(&g, initial_half);
                assert_eq!(
                    found.half(),
                    brute,
                    "seed {seed} nl {nl} nr {nr} initial {initial_half}"
                );
                assert!(g.is_biclique(&found.left, &found.right), "seed {seed}");
            }
            let (found, _) = dense_mbb(&g, brute);
            assert!(
                found.left.is_empty() && found.right.is_empty(),
                "seed {seed}"
            );
        }
    }

    #[test]
    fn agrees_with_basic_bb() {
        for seed in 100..130u64 {
            let g = random_graph(8, 8, 0.6, seed);
            let (dense_result, _) = dense_mbb(&g, 0);
            let (basic_result, _) = basic_bb(&g, 0, &SearchBudget::unlimited());
            assert_eq!(dense_result.half(), basic_result.half(), "seed {seed}");
        }
    }

    #[test]
    fn dense_explores_fewer_nodes_than_basic() {
        let g = random_graph(14, 14, 0.85, 5);
        let (r1, dense_stats) = dense_mbb(&g, 0);
        let (r2, basic_stats) = basic_bb(&g, 0, &SearchBudget::unlimited());
        assert_eq!(r1.half(), r2.half());
        assert!(
            dense_stats.nodes < basic_stats.nodes,
            "dense {} vs basic {}",
            dense_stats.nodes,
            basic_stats.nodes
        );
    }

    #[test]
    fn seeded_search_respects_fixed_vertices() {
        // Fix a = [0] in a graph where the optimum avoids vertex 0: the
        // seeded search must return the best biclique CONTAINING 0.
        let mut g = LocalGraph::new(3, 3);
        // L0 sees only R0; L1, L2 see R1, R2.
        g.add_edge(0, 0);
        for u in 1..3 {
            for v in 1..3 {
                g.add_edge(u, v);
            }
        }
        let ca: BitSet = {
            let mut s = BitSet::new(3);
            s.insert(1);
            s.insert(2);
            s
        };
        let cb = {
            let mut s = BitSet::new(3);
            s.insert(0); // only N(L0)
            s
        };
        let (b, _) = dense_mbb_budgeted(
            &g,
            vec![0],
            vec![],
            ca,
            cb,
            0,
            DenseConfig::default(),
            &SearchBudget::unlimited(),
        );
        assert_eq!(b.half(), 1);
        assert!(b.left.contains(&0));
    }

    #[test]
    fn initial_bound_suppresses_non_improving() {
        let g = random_graph(6, 6, 0.7, 9);
        let brute = brute_force_half(&g);
        let (b, _) = dense_mbb(&g, brute);
        assert_eq!(b.half(), 0, "nothing strictly better than the optimum");
        if brute > 0 {
            let (b, _) = dense_mbb(&g, brute - 1);
            assert_eq!(b.half(), brute);
        }
    }

    /// The `bd3` ablation.
    const BD3: DenseConfig = DenseConfig {
        use_branching_technique: false,
    };

    #[test]
    fn ablation_without_polynomial_case_still_correct() {
        for seed in 0..15u64 {
            let g = random_graph(7, 7, 0.6, seed ^ 0x77);
            let config = BD3;
            let (b, _) = dense_mbb_budgeted(
                &g,
                vec![],
                vec![],
                BitSet::full(7),
                BitSet::full(7),
                0,
                config,
                &SearchBudget::unlimited(),
            );
            assert_eq!(b.half(), brute_force_half(&g), "seed {seed}");
        }
    }

    /// The counters that identify a search tree.
    fn tree(stats: &SearchStats) -> [u64; 6] {
        [
            stats.nodes,
            stats.poly_solves,
            stats.bound_prunes,
            stats.reduced_vertices,
            stats.leaf_count,
            stats.max_depth,
        ]
    }

    /// Pins the exact search tree — `[nodes, poly_solves, bound_prunes,
    /// reduced_vertices, leaf_count, max_depth]` — and the witness, as
    /// returned, of four searches. The witnesses were recorded before the
    /// per-node buffers moved into the searcher (the fourth case's before
    /// the candidate degrees were memoized, the `bd3` case's when its two
    /// switches became one), the trees once the König bound pruned. Any
    /// change to branching, bounding or reduction order shows here.
    #[test]
    fn search_trees_are_pinned() {
        let run = |g: &LocalGraph, a: Vec<u32>, ca: BitSet, cb: BitSet, initial_half, config| {
            let unlimited = SearchBudget::unlimited();
            let (found, stats) =
                dense_mbb_budgeted(g, a, Vec::new(), ca, cb, initial_half, config, &unlimited);
            (found.left, found.right, tree(&stats))
        };
        let full = |g: &LocalGraph| (BitSet::full(g.num_left()), BitSet::full(g.num_right()));
        // Seeded as verification seeds a centred subgraph: the centre is
        // fixed in A and CB is its neighbourhood.
        let centred = |g: &LocalGraph, centre: u32| {
            let mut ca = BitSet::full(g.num_left());
            ca.remove(centre as usize);
            (ca, g.left_row(centre).to_bitset())
        };
        let mut got = Vec::new();

        let g = random_graph(40, 40, 0.7, 1);
        let (ca, cb) = full(&g);
        got.push(run(&g, vec![], ca, cb, 0, DenseConfig::default()));

        let g = random_graph(44, 44, 0.7, 2);
        let (ca, cb) = full(&g);
        got.push(run(&g, vec![], ca, cb, 0, BD3));

        let g = random_graph(48, 48, 0.7, 4);
        let (ca, cb) = centred(&g, 0);
        got.push(run(&g, vec![0], ca, cb, 0, DenseConfig::default()));

        // Three words per row, with an incumbent to beat.
        let g = random_graph(150, 150, 0.5, 5);
        let (ca, cb) = centred(&g, 0);
        got.push(run(&g, vec![0], ca, cb, 8, DenseConfig::default()));

        let want = [
            // default config
            (
                vec![14, 10, 15, 7, 26, 20, 28, 38, 3, 6],
                vec![21, 4, 34, 1, 9, 39, 32, 38, 23, 24],
                [3099, 7, 1543, 21522, 1550, 33],
            ),
            // bd3
            (
                vec![0, 2, 3, 4, 21, 6, 16, 10, 20, 26],
                vec![15, 21, 24, 36, 3, 12, 26, 39, 20, 33],
                [35625, 0, 17803, 473284, 17813, 34],
            ),
            // seeded with a centre
            (
                vec![0, 19, 20, 12, 16, 22, 5, 7, 10],
                vec![12, 33, 10, 20, 22, 34, 38, 32, 35],
                [5147, 12, 2562, 30624, 2574, 30],
            ),
            // 150×150 at 50%, seeded with a centre and half-size 8
            (
                vec![0, 138, 33, 73, 93, 109, 15, 16, 113],
                vec![112, 78, 3, 57, 85, 146, 59, 72, 92],
                [197799, 1, 98899, 2428985, 98900, 72],
            ),
        ];
        assert_eq!(got, want);
    }
}
