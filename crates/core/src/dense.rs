//! `denseMBB` — Algorithm 3, the paper's O*(1.3803ⁿ) reduction, branch and
//! bound algorithm for dense bipartite graphs.
//!
//! Per recursion:
//!
//! 1. **bound** — prune when the remaining material cannot beat the
//!    incumbent half-size;
//! 2. **reduce** — Lemmas 1 and 2 to fixpoint ([`crate::reduce`]);
//! 3. **polynomial case** — if every candidate misses ≤ 2 neighbours
//!    (Lemma 3), solve exactly with `dynamicMBB` and return;
//! 4. **branch** — otherwise some vertex misses ≥ 3 neighbours; branching
//!    on it kills ≥ 4 candidate vertices in the include branch and 1 in the
//!    exclude branch — the (4, 1) branching factor that bounds the
//!    recursion tree by O(1.3803ⁿ).
//!
//! The "triviality last" strategy picks the candidate with the *most*
//! missing neighbours, steering the residual graph towards the polynomial
//! case as fast as possible.
//!
//! # Intra-subgraph parallelism
//!
//! [`dense_mbb_parallel`] splits one search across a worker pool: the
//! top levels of the branching tree are expanded breadth-first into a
//! frontier of disjoint subproblems (each a fixed `a`/`b` prefix plus a
//! split candidate pair), workers claim a contiguous slice each and steal
//! leftovers, and the incumbent half-size is shared through an atomic so
//! every worker prunes against the global best. See `docs/PERFORMANCE.md`
//! at the repository root for the full threading model.

use std::collections::VecDeque;

// Cross-worker state goes through the mbb-conc facade: std atomics in
// normal builds, model-checked under `--cfg mbb_conc` (see
// tests/conc_models.rs and docs/CONCURRENCY.md).
use mbb_conc::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::local::LocalGraph;

use crate::basic::LocalBiclique;
use crate::budget::SearchBudget;
use crate::poly::DynamicMbb;
use crate::reduce::Candidates;
use crate::solver::run_workers;
use crate::stats::SearchStats;

/// Tuning/ablation knobs for [`dense_mbb`].
#[derive(Debug, Clone, Copy)]
pub struct DenseConfig {
    /// Apply the Lemma 1/2 reduction loop (on by default).
    pub use_reductions: bool,
    /// Detect and solve the Lemma 3 polynomial case (on by default).
    /// With this off the algorithm degenerates towards `basicBB` with
    /// reductions.
    pub use_polynomial_case: bool,
    /// Branch on the candidate missing the *most* neighbours (the
    /// triviality-last strategy). When off, the first candidate is taken —
    /// the `bd3` "without branching technique" ablation.
    pub branch_max_missing: bool,
}

impl Default for DenseConfig {
    fn default() -> Self {
        DenseConfig {
            use_reductions: true,
            use_polynomial_case: true,
            branch_max_missing: true,
        }
    }
}

/// Runs `denseMBB` over a whole local graph.
///
/// `initial_half` seeds the incumbent bound; the result is a balanced
/// biclique strictly larger than `initial_half` when one exists (empty
/// otherwise).
///
/// ```
/// use mbb_bigraph::local::LocalGraph;
/// use mbb_core::dense::dense_mbb;
/// // Complete 3×3 minus one corner edge: a 2×3 block remains, so the
/// // balanced optimum is 2×2.
/// let g = LocalGraph::from_edges(3, 3, [
///     (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1),
/// ]);
/// let (found, stats) = dense_mbb(&g, 0);
/// assert_eq!(found.half(), 2);
/// assert!(stats.poly_solves >= 1); // solved via the Lemma 3 case
/// ```
pub fn dense_mbb(graph: &LocalGraph, initial_half: usize) -> (LocalBiclique, SearchStats) {
    dense_mbb_budgeted(
        graph,
        Vec::new(),
        Vec::new(),
        BitSet::full(graph.num_left()),
        BitSet::full(graph.num_right()),
        initial_half,
        DenseConfig::default(),
        &SearchBudget::unlimited(),
    )
}

/// Runs `denseMBB` from a partial state under a [`SearchBudget`]: `a`/`b`
/// are already-fixed result vertices (every candidate in `ca` must be
/// adjacent to all of `b` and vice versa — the Algorithm 8 caller seeds
/// `a = [centre]`, `cb ⊆ N(centre)`). The branch-and-bound checks the
/// budget at every node and unwinds with the best-so-far biclique once it
/// is exhausted (anytime semantics).
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
    let mut searcher = DenseSearcher::new(graph, initial_half, config, budget, None);
    searcher.recurse(&mut a, &mut b, &mut Candidates::new(ca, cb), 0);
    let stats = searcher.stats;
    (searcher.best.balance(), stats)
}

/// How a single node of the search resolved: either the subtree is done
/// (pruned, polynomial-solved, leaf, or budget-exhausted), or the node
/// must branch on the returned candidate.
enum StepOutcome {
    Resolved,
    Branch { on_left: bool, vertex: u32 },
}

/// The pool-wide incumbent half-size of a parallel stage — the one piece
/// of mutable state the workers of [`dense_mbb_parallel`], of bridging
/// ([`crate::bridge::bridge_mbb_budgeted`]) and of verification
/// ([`crate::verify::verify_mbb_budgeted`]) share.
///
/// The protocol is deliberately minimal so its correctness argument is
/// short: the cell only ever **grows** (every write is a `fetch_max`
/// with the half-size of a biclique the writer has actually realised),
/// and readers use it purely as a *pruning* bound. A stale read is
/// always safe — it can only under-prune, never discard the optimum —
/// which is why `Relaxed` suffices end to end. The final result does not
/// come from this cell: each worker returns its own best biclique and
/// the caller max-merges them after the join, so publication here is
/// an optimisation, not a correctness dependency.
pub struct SharedIncumbent(AtomicUsize);

impl SharedIncumbent {
    /// A pool incumbent seeded at `initial_half` (results must beat it).
    pub fn new(initial_half: usize) -> SharedIncumbent {
        SharedIncumbent(AtomicUsize::new(initial_half))
    }

    /// Publishes a realised half-size. Monotonic: concurrent publishes
    /// cannot regress the bound (`fetch_max`, not `store`).
    pub fn publish(&self, half: usize) {
        // relaxed: monotonic fetch_max of an advisory pruning bound; a
        // reader seeing a stale value only prunes less. Result delivery
        // happens via the join, not through this cell.
        self.0.fetch_max(half, Ordering::Relaxed);
    }

    /// The current pool-wide bound (may be momentarily stale — safe, see
    /// the type docs).
    pub fn bound(&self) -> usize {
        // relaxed: advisory read of the monotonic bound; staleness only
        // costs pruning opportunity.
        self.0.load(Ordering::Relaxed)
    }
}

struct DenseSearcher<'g> {
    graph: &'g LocalGraph,
    best: LocalBiclique,
    best_half: usize,
    stats: SearchStats,
    config: DenseConfig,
    budget: SearchBudget,
    /// Incumbent half-size shared with sibling workers of a parallel
    /// search (`None` when running serial). Read at every node, written
    /// on every improvement, so one worker's find prunes all the others.
    shared_best: Option<&'g SharedIncumbent>,
    // Per-node memory, reused so that a node allocates nothing.
    /// Candidate sets, with their degree arrays, for include children: a
    /// child takes one and returns it when its subtree is done, so the
    /// pool holds one per include depth reached.
    spare: Vec<Candidates>,
    /// The Lemma 3 decomposition and DP table.
    lemma3: DynamicMbb,
}

impl<'g> DenseSearcher<'g> {
    fn new(
        graph: &'g LocalGraph,
        best_half: usize,
        config: DenseConfig,
        budget: &SearchBudget,
        shared_best: Option<&'g SharedIncumbent>,
    ) -> Self {
        DenseSearcher {
            graph,
            best: LocalBiclique::default(),
            best_half,
            stats: SearchStats::default(),
            config,
            budget: budget.clone(),
            shared_best,
            spare: Vec::new(),
            lemma3: DynamicMbb::default(),
        }
    }

    /// Records a biclique that beats the incumbent (callers check first,
    /// so that nodes that do not improve build nothing).
    fn record(&mut self, left: Vec<u32>, right: Vec<u32>) {
        let half = left.len().min(right.len());
        debug_assert!(half > self.best_half);
        self.best_half = half;
        if let Some(shared) = self.shared_best {
            shared.publish(half);
        }
        self.best = LocalBiclique { left, right };
    }

    /// Raises the local pruning bound to the pool-wide incumbent. The
    /// local `best` biclique is untouched: each worker only ever returns
    /// bicliques it found itself.
    fn sync_shared_bound(&mut self) {
        if let Some(shared) = self.shared_best {
            let global = shared.bound();
            if global > self.best_half {
                self.best_half = global;
            }
        }
    }

    fn leaf(&mut self, depth: u64) {
        self.stats.leaf_depth_sum += depth;
        self.stats.leaf_count += 1;
    }

    /// One node of Algorithm 3: bound, reduce, re-bound, polynomial case,
    /// branch selection. Mutates the partial result (the reduction
    /// promotes all-connected candidates into `a`/`b`) and the candidate
    /// sets in place; the caller owns unwinding.
    fn step(
        &mut self,
        a: &mut Vec<u32>,
        b: &mut Vec<u32>,
        node: &mut Candidates,
        depth: u64,
    ) -> StepOutcome {
        self.stats.nodes += 1;
        self.stats.max_depth = self.stats.max_depth.max(depth);
        self.sync_shared_bound();

        // Budget: once exhausted every level resolves immediately, so the
        // whole recursion unwinds with the best-so-far result.
        if self.budget.is_exhausted() {
            self.leaf(depth);
            return StepOutcome::Resolved;
        }

        // Bounding (line 1).
        let cap = (a.len() + node.ca().len()).min(b.len() + node.cb().len());
        if cap <= self.best_half {
            self.stats.bound_prunes += 1;
            self.leaf(depth);
            return StepOutcome::Resolved;
        }

        // Reduction (line 2) and re-bound (line 3).
        if self.config.use_reductions {
            node.reduce(self.graph, a, b, self.best_half, &mut self.stats);
            let cap = (a.len() + node.ca().len()).min(b.len() + node.cb().len());
            if cap <= self.best_half {
                self.stats.bound_prunes += 1;
                self.leaf(depth);
                return StepOutcome::Resolved;
            }
        }

        // One pass over both candidate sets reading missing-neighbour
        // counts. It feeds three decisions at once: the degree-threshold
        // bound, the Lemma 3 polynomial-case test (max missing ≤ 2) and
        // the triviality-last branch choice (argmax missing). The
        // reduction leaves every degree counted; without it, count here.
        node.count(self.graph);
        let scan = scan_candidates(self.graph, a.len(), b.len(), node, self.best_half);
        // Lemma 2 at fixpoint leaves every candidate above the threshold,
        // so after a reduction the bound passes whenever the re-bound did.
        debug_assert!(scan.can_improve || !self.config.use_reductions);
        if !scan.can_improve {
            self.stats.bound_prunes += 1;
            self.leaf(depth);
            return StepOutcome::Resolved;
        }

        // Polynomial case (lines 4–8).
        if self.config.use_polynomial_case && scan.max_missing <= 2 {
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
        if !self.config.use_polynomial_case && node.ca().is_empty() && node.cb().is_empty() {
            if a.len().min(b.len()) > self.best_half {
                self.record(a.clone(), b.clone());
            }
            self.leaf(depth);
            return StepOutcome::Resolved;
        }

        // Branching (lines 9–15): pick the candidate missing the most
        // neighbours (guaranteed ≥ 3 here when the polynomial case is on).
        let (on_left, vertex) = if self.config.branch_max_missing {
            debug_assert!(
                !self.config.use_polynomial_case || scan.max_missing >= 3,
                "polynomial case should have caught missing = {}",
                scan.max_missing
            );
            scan.argmax
                .expect("a candidate remains when the node branches")
        } else {
            // bd3: naive first-candidate branching.
            match node.ca().first() {
                Some(u) => (true, u as u32),
                None => (false, node.cb().first().expect("cb non-empty") as u32),
            }
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

/// One frontier subproblem of a parallel search: a fixed `a`/`b` prefix
/// plus the candidate pair still open under it. Tasks partition the
/// search space — every leaf of the serial recursion tree lies below
/// exactly one task. A task keeps no degrees: its search counts them.
struct FrontierTask {
    a: Vec<u32>,
    b: Vec<u32>,
    ca: BitSet,
    cb: BitSet,
    depth: u64,
}

/// Frontier subproblems generated per requested worker. More tasks than
/// workers keeps the pool busy when subtree costs are skewed: a worker
/// finishing a cheap slice steals the leftovers of an expensive one.
/// Subtree costs are heavy-tailed, so the granularity is deliberately
/// fine — expansion cost is a few dozen search nodes per task, noise
/// against the subtrees it balances.
const FRONTIER_TASKS_PER_WORKER: usize = 16;

/// Hard cap on the frontier, bounding the serial expansion prefix.
const MAX_FRONTIER_TASKS: usize = 512;

/// Expands the top of the branching tree breadth-first until `target`
/// open subproblems exist (or the tree is exhausted first). Nodes that
/// resolve during expansion — prunes, polynomial solves — are handled by
/// `searcher` exactly as in the serial search.
fn expand_frontier(
    searcher: &mut DenseSearcher<'_>,
    a: Vec<u32>,
    b: Vec<u32>,
    ca: BitSet,
    cb: BitSet,
    target: usize,
) -> VecDeque<FrontierTask> {
    let mut queue = VecDeque::new();
    queue.push_back(FrontierTask {
        a,
        b,
        ca,
        cb,
        depth: 0,
    });
    while queue.len() < target {
        let Some(mut task) = queue.pop_front() else {
            break;
        };
        let mut node = Candidates::new(task.ca, task.cb);
        let outcome = searcher.step(&mut task.a, &mut task.b, &mut node, task.depth);
        let StepOutcome::Branch { on_left, vertex: u } = outcome else {
            continue;
        };
        // Include child (owned copies: tasks must be self-contained).
        let mut child = Candidates::empty();
        node.include(searcher.graph, on_left, u, &mut child);
        let (ca_inc, cb_inc) = child.into_sets();
        let mut a_inc = task.a.clone();
        let mut b_inc = task.b.clone();
        if on_left {
            a_inc.push(u);
        } else {
            b_inc.push(u);
        }
        queue.push_back(FrontierTask {
            a: a_inc,
            b: b_inc,
            ca: ca_inc,
            cb: cb_inc,
            depth: task.depth + 1,
        });
        // Exclude child: the popped task itself, one level deeper.
        node.exclude(searcher.graph, on_left, u);
        (task.ca, task.cb) = node.into_sets();
        task.depth += 1;
        queue.push_back(task);
    }
    queue
}

/// What one worker of [`dense_mbb_parallel`] hands back.
struct WorkerOutput {
    best: LocalBiclique,
    stats: SearchStats,
    stolen: u64,
    skipped: u64,
}

/// [`dense_mbb_budgeted`] split across `workers` threads — the
/// intra-subgraph parallel mode.
///
/// The top of the branching tree is expanded into 16 × `workers`
/// disjoint subproblems (each a
/// fixed `a`/`b` seed plus a candidate-set split); each worker claims a
/// contiguous slice of them and, once its slice is drained, steals
/// unclaimed tasks from other slices. All workers prune against one
/// shared atomic incumbent half-size, so an improvement found anywhere
/// immediately tightens every bound. The [`SearchBudget`]'s exhausted
/// state is likewise shared: one worker observing the deadline stops the
/// whole pool at its next per-node check (anytime semantics — the best
/// biclique found so far is returned).
///
/// With `workers <= 1` this is exactly [`dense_mbb_budgeted`]. The
/// returned optimum half-size is identical to the serial search's for
/// any worker count (the split is a partition and every prune is against
/// a realised biclique); the witness itself and the node counters may
/// differ run to run.
///
/// The returned [`SearchStats`] additionally carries
/// [`worker_nodes`](SearchStats::worker_nodes),
/// [`tasks_stolen`](SearchStats::tasks_stolen) and
/// [`tasks_skipped`](SearchStats::tasks_skipped).
#[allow(clippy::too_many_arguments)] // mirrors dense_mbb_budgeted
pub fn dense_mbb_parallel(
    graph: &LocalGraph,
    a: Vec<u32>,
    b: Vec<u32>,
    ca: BitSet,
    cb: BitSet,
    initial_half: usize,
    config: DenseConfig,
    budget: &SearchBudget,
    workers: usize,
) -> (LocalBiclique, SearchStats) {
    if workers <= 1 {
        return dense_mbb_budgeted(graph, a, b, ca, cb, initial_half, config, budget);
    }
    // Entry is a coarse boundary: one unsampled probe makes an
    // already-expired budget visible immediately (and sticky), instead of
    // after PROBE_INTERVAL search nodes.
    if budget.probe() {
        return (LocalBiclique::default(), SearchStats::default());
    }
    let shared_best = SharedIncumbent::new(initial_half);

    // Serial prefix: expand the frontier. Resolutions met on the way
    // (poly solves at shallow depth) land in the coordinator's `best`.
    let mut coordinator =
        DenseSearcher::new(graph, initial_half, config, budget, Some(&shared_best));
    let target = (workers * FRONTIER_TASKS_PER_WORKER).min(MAX_FRONTIER_TASKS);
    let tasks: Vec<FrontierTask> = expand_frontier(&mut coordinator, a, b, ca, cb, target).into();
    if tasks.is_empty() {
        // The whole tree resolved during expansion — nothing to spawn for.
        return (coordinator.best.balance(), coordinator.stats);
    }
    let claimed: Vec<AtomicBool> = tasks.iter().map(|_| AtomicBool::new(false)).collect();

    let shared = &shared_best;
    let outputs = run_workers(workers, |w| {
        let mut searcher = DenseSearcher::new(graph, shared.bound(), config, budget, Some(shared));
        let chunk = tasks.len().div_ceil(workers).max(1);
        let own = (w * chunk).min(tasks.len())..((w + 1) * chunk).min(tasks.len());
        let mut stolen = 0u64;
        let mut skipped = 0u64;
        // Own slice first, then one stealing sweep over the rest —
        // `claimed` makes every task run exactly once.
        for index in own.clone().chain(0..tasks.len()) {
            // relaxed: the atomic RMW alone decides the claim (exactly one
            // swap returns false per task); the task data is immutable and
            // published by the spawning scope's happens-before edge.
            if claimed[index].swap(true, Ordering::Relaxed) {
                continue;
            }
            if !own.contains(&index) {
                stolen += 1;
            }
            run_task(&mut searcher, &tasks[index], &mut skipped);
        }
        WorkerOutput {
            best: searcher.best,
            stats: searcher.stats,
            stolen,
            skipped,
        }
    });

    let mut best = coordinator.best;
    let mut stats = coordinator.stats;
    stats.worker_nodes = vec![0; workers];
    for (w, output) in outputs.into_iter().enumerate() {
        stats.worker_nodes[w] = output.stats.nodes;
        stats.merge(&output.stats);
        stats.tasks_stolen += output.stolen;
        stats.tasks_skipped += output.skipped;
        if output.best.half() > best.half() {
            best = output.best;
        }
    }
    (best.balance(), stats)
}

/// Runs one claimed frontier task to completion (or skips it when the
/// shared incumbent already reached its optimistic bound).
fn run_task(searcher: &mut DenseSearcher<'_>, task: &FrontierTask, skipped: &mut u64) {
    searcher.sync_shared_bound();
    let cap = (task.a.len() + task.ca.len()).min(task.b.len() + task.cb.len());
    if cap <= searcher.best_half {
        *skipped += 1;
        return;
    }
    // Task claim is a coarse boundary: pay for an unsampled probe so an
    // expired budget is noticed even when every task is tiny.
    if searcher.budget.probe() {
        return;
    }
    let mut a = task.a.clone();
    let mut b = task.b.clone();
    let mut node = searcher.spare.pop().unwrap_or_else(Candidates::empty);
    node.reset(&task.ca, &task.cb);
    searcher.recurse(&mut a, &mut b, &mut node, task.depth);
    searcher.spare.push(node);
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
    /// Whether the degree-threshold bound leaves room for a balanced
    /// biclique larger than the incumbent.
    can_improve: bool,
}

/// Single pass over the candidate sets: missing counts, argmax, and the
/// degree-threshold bound. Every degree is read from `node`'s counted
/// arrays; debug builds check each against a fresh count.
///
/// The bound: a balanced biclique of half-size `k` reachable from this
/// state needs, on each side, at least `k` vertices whose degree towards
/// the other side's remaining material is at least `k` — specifically
/// `avail_A(k) = |A| + #{u ∈ CA : |B| + deg(u, CB) ≥ k} ≥ k` and
/// symmetrically. `avail` never grows with `k`, so the half-sizes that
/// pass form a prefix `1..=K`, and one test at `k = best_half + 1` tells
/// whether `K` beats the incumbent. With Lemmas 1–2 at fixpoint every
/// candidate passes the threshold and the test is the plain
/// `min(|A|+|CA|, |B|+|CB|)` bound; it prunes more only without them.
#[inline]
fn scan_candidates(
    graph: &LocalGraph,
    a_len: usize,
    b_len: usize,
    node: &Candidates,
    best_half: usize,
) -> CandidateScan {
    let (ca, cb) = (node.ca(), node.cb());
    let (ca_degrees, cb_degrees) = (node.ca_degrees(), node.cb_degrees());
    let (ca_len, cb_len) = (ca.len(), cb.len());
    let k = best_half + 1;

    // Each side's argmax is one `max` over `missing << 32 | tie`, with the
    // tie favouring the last left candidate and the first right one.
    let (mut left, mut right) = (0u64, 0u64);
    let (mut avail_a, mut avail_b) = (a_len, b_len);
    for u in ca.iter() {
        let degree = ca_degrees[u] as usize;
        debug_assert_eq!(degree, graph.left_degree_in(u as u32, cb), "left {u}");
        left = left.max(((cb_len - degree) as u64) << 32 | u as u64);
        avail_a += (b_len + degree >= k) as usize;
    }
    for v in cb.iter() {
        let degree = cb_degrees[v] as usize;
        debug_assert_eq!(degree, graph.right_degree_in(v as u32, ca), "right {v}");
        right = right.max(((ca_len - degree) as u64) << 32 | (u32::MAX - v as u32) as u64);
        avail_b += (a_len + degree >= k) as usize;
    }
    let (left_missing, right_missing) = ((left >> 32) as usize, (right >> 32) as usize);
    let argmax = if ca_len > 0 && (cb_len == 0 || left_missing >= right_missing) {
        Some((true, left as u32))
    } else {
        (cb_len > 0).then(|| (false, u32::MAX - right as u32))
    };

    CandidateScan {
        max_missing: left_missing.max(right_missing),
        argmax,
        can_improve: avail_a >= k && avail_b >= k,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::basic::basic_bb;
    use crate::testutil::brute_force_half_local as brute_force_half;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn matches_brute_force_on_random_graphs() {
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0xabc);
            let nl = rng.gen_range(1..=9usize);
            let nr = rng.gen_range(1..=9usize);
            let density = rng.gen_range(0.2..0.95);
            let g = random_graph(nl, nr, density, seed);
            let (found, _) = dense_mbb(&g, 0);
            let brute = brute_force_half(&g);
            assert_eq!(found.half(), brute, "seed {seed} nl {nl} nr {nr}");
            assert!(g.is_biclique(&found.left, &found.right), "seed {seed}");
        }
    }

    #[test]
    fn agrees_with_basic_bb() {
        for seed in 100..130u64 {
            let g = random_graph(8, 8, 0.6, seed);
            let (dense_result, _) = dense_mbb(&g, 0);
            let (basic_result, _) = basic_bb(&g, 0);
            assert_eq!(dense_result.half(), basic_result.half(), "seed {seed}");
        }
    }

    #[test]
    fn dense_explores_fewer_nodes_than_basic() {
        let g = random_graph(14, 14, 0.85, 5);
        let (r1, dense_stats) = dense_mbb(&g, 0);
        let (r2, basic_stats) = basic_bb(&g, 0);
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

    #[test]
    fn ablation_without_polynomial_case_still_correct() {
        for seed in 0..15u64 {
            let g = random_graph(7, 7, 0.6, seed ^ 0x77);
            let config = DenseConfig {
                use_polynomial_case: false,
                ..DenseConfig::default()
            };
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

    #[test]
    fn parallel_matches_serial_on_random_graphs() {
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca1e);
            let nl = rng.gen_range(2..=10usize);
            let nr = rng.gen_range(2..=10usize);
            let density = rng.gen_range(0.3..0.95);
            let g = random_graph(nl, nr, density, seed);
            let (serial, _) = dense_mbb(&g, 0);
            for workers in [2, 4] {
                let (parallel, stats) = dense_mbb_parallel(
                    &g,
                    Vec::new(),
                    Vec::new(),
                    BitSet::full(nl),
                    BitSet::full(nr),
                    0,
                    DenseConfig::default(),
                    &SearchBudget::unlimited(),
                    workers,
                );
                assert_eq!(
                    parallel.half(),
                    serial.half(),
                    "seed {seed} workers {workers}"
                );
                assert!(
                    g.is_biclique(&parallel.left, &parallel.right),
                    "seed {seed} workers {workers}"
                );
                if !stats.worker_nodes.is_empty() {
                    assert_eq!(stats.worker_nodes.len(), workers);
                    let worker_total: u64 = stats.worker_nodes.iter().sum();
                    assert!(worker_total <= stats.nodes);
                }
            }
        }
    }

    #[test]
    fn parallel_respects_initial_bound() {
        let g = random_graph(8, 8, 0.7, 21);
        let brute = brute_force_half(&g);
        let (b, _) = dense_mbb_parallel(
            &g,
            Vec::new(),
            Vec::new(),
            BitSet::full(8),
            BitSet::full(8),
            brute,
            DenseConfig::default(),
            &SearchBudget::unlimited(),
            4,
        );
        assert_eq!(b.half(), 0, "nothing strictly better than the optimum");
    }

    #[test]
    fn parallel_with_one_worker_is_serial() {
        let g = random_graph(9, 9, 0.6, 33);
        let (serial, serial_stats) = dense_mbb(&g, 0);
        let (one, one_stats) = dense_mbb_parallel(
            &g,
            Vec::new(),
            Vec::new(),
            BitSet::full(9),
            BitSet::full(9),
            0,
            DenseConfig::default(),
            &SearchBudget::unlimited(),
            1,
        );
        assert_eq!(serial.half(), one.half());
        assert_eq!(serial_stats.nodes, one_stats.nodes);
        assert!(one_stats.worker_nodes.is_empty());
    }

    #[test]
    fn parallel_cancelled_search_returns_valid_biclique() {
        use crate::budget::CancelToken;
        let g = random_graph(16, 16, 0.8, 7);
        let token = CancelToken::new();
        token.cancel();
        let budget = SearchBudget::with_cancel_token(token);
        let (found, _) = dense_mbb_parallel(
            &g,
            Vec::new(),
            Vec::new(),
            BitSet::full(16),
            BitSet::full(16),
            0,
            DenseConfig::default(),
            &budget,
            4,
        );
        // Best-so-far under an instantly-cancelled budget: possibly empty,
        // always a valid biclique.
        assert!(g.is_biclique(&found.left, &found.right));
        assert_eq!(budget.termination(), crate::budget::Termination::Cancelled);
    }

    #[test]
    fn branches_on_a_right_candidate_when_no_left_one_remains() {
        // Complete 1×2, neither reductions nor Lemma 3: once L0 is
        // included only right candidates remain, and none misses anything.
        let g = LocalGraph::from_edges(1, 2, [(0, 0), (0, 1)]);
        let config = DenseConfig {
            use_reductions: false,
            use_polynomial_case: false,
            branch_max_missing: true,
        };
        let (found, _) = dense_mbb_budgeted(
            &g,
            vec![],
            vec![],
            BitSet::full(1),
            BitSet::full(2),
            0,
            config,
            &SearchBudget::unlimited(),
        );
        assert_eq!(found.half(), 1);
        assert!(g.is_biclique(&found.left, &found.right));
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
    /// returned, of five searches, recorded before the per-node buffers
    /// moved into the searcher (the fifth case and the witnesses before
    /// the candidate degrees were memoized). Any change to branching,
    /// bounding or reduction order shows here.
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
        let config = DenseConfig {
            use_polynomial_case: false,
            ..DenseConfig::default()
        };
        got.push(run(&g, vec![], ca, cb, 0, config));

        let g = random_graph(40, 40, 0.7, 3);
        let (ca, cb) = full(&g);
        let config = DenseConfig {
            use_reductions: false,
            ..DenseConfig::default()
        };
        got.push(run(&g, vec![], ca, cb, 0, config));

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
                [5487, 157, 2587, 54133, 2744, 36],
            ),
            // no Lemma 3 case
            (
                vec![36, 11, 32, 9, 29, 3, 16, 26, 7, 14],
                vec![14, 34, 9, 15, 20, 30, 17, 11, 39, 24],
                [14065, 0, 7025, 143413, 7033, 48],
            ),
            // no reductions
            (
                vec![13, 11, 37, 2, 5, 8, 34, 36, 38],
                vec![19, 31, 2, 6, 13, 20, 33, 34, 35],
                [22225, 391, 10722, 0, 11113, 42],
            ),
            // seeded with a centre
            (
                vec![0, 19, 20, 12, 16, 22, 5, 7, 10],
                vec![12, 33, 10, 20, 22, 34, 38, 32, 35],
                [8705, 477, 3876, 71599, 4353, 33],
            ),
            // 150×150 at 50%, seeded with a centre and half-size 8
            (
                vec![0, 138, 33, 73, 93, 109, 15, 16, 113],
                vec![112, 78, 3, 57, 85, 146, 59, 72, 92],
                [221287, 69, 110575, 2862457, 110644, 73],
            ),
        ];
        assert_eq!(got, want);
    }

    /// The degree-histogram bound the scan computed before the threshold
    /// test: the largest `k ≤ min(|A|+|CA|, |B|+|CB|)` with
    /// `avail_A(k) ≥ k` and `avail_B(k) ≥ k`, found by walking `k` down
    /// from the cap over the two sides' degree histograms.
    fn histogram_bound(a_len: usize, b_len: usize, node: &Candidates) -> usize {
        let cap_a = a_len + node.ca().len();
        let cap_b = b_len + node.cb().len();
        // hist_a[d] = number of CA candidates with |B| + deg(u, CB) = d.
        let mut hist_a = vec![0usize; cap_b + 1];
        let mut hist_b = vec![0usize; cap_a + 1];
        for u in node.ca().iter() {
            hist_a[b_len + node.ca_degrees()[u] as usize] += 1;
        }
        for v in node.cb().iter() {
            hist_b[a_len + node.cb_degrees()[v] as usize] += 1;
        }
        let (mut avail_a, mut avail_b) = (a_len, b_len);
        let (mut da, mut db) = (cap_b as isize, cap_a as isize);
        for k in (1..=cap_a.min(cap_b)).rev() {
            while da >= k as isize {
                avail_a += hist_a[da as usize];
                da -= 1;
            }
            while db >= k as isize {
                avail_b += hist_b[db as usize];
                db -= 1;
            }
            if avail_a >= k && avail_b >= k {
                return k;
            }
        }
        0
    }

    /// On random candidate states, the threshold test prunes exactly when
    /// the histogram walk's bound does not beat the incumbent, with or
    /// without a reduction first; after a reduction whose re-bound passed
    /// it never prunes.
    #[test]
    fn threshold_bound_matches_the_histogram_walk() {
        // [reductions off, on] × [prunes, passes]
        let mut seen = [[0u32; 2]; 2];
        // Prunes the plain cap `min(|A|+|CA|, |B|+|CB|)` would not make.
        let mut below_cap = 0u32;
        for seed in 0..400u64 {
            let mut rng = StdRng::seed_from_u64(seed ^ 0x7e57);
            let nl = rng.gen_range(1..=150usize);
            let nr = rng.gen_range(1..=150usize);
            let g = random_graph(nl, nr, rng.gen_range(0.2..0.95), seed);
            let mut subset = |n: usize| {
                let keep = rng.gen_range(0.2..1.0);
                let mut set = BitSet::new(n);
                (0..n)
                    .filter(|_| rng.gen_bool(keep))
                    .for_each(|i| set.insert(i));
                set
            };
            let mut node = Candidates::new(subset(nl), subset(nr));
            let mut a = vec![0u32; rng.gen_range(0..=8)];
            let mut b = vec![0u32; rng.gen_range(0..=8)];
            let cap = (a.len() + node.ca().len()).min(b.len() + node.cb().len());
            let best_half = rng.gen_range(0..=cap + 1);
            let reduced = rng.gen_bool(0.5);
            if reduced {
                let mut stats = SearchStats::default();
                node.reduce(&g, &mut a, &mut b, best_half, &mut stats);
            } else {
                node.count(&g);
            }

            let scan = scan_candidates(&g, a.len(), b.len(), &node, best_half);
            let walk = histogram_bound(a.len(), b.len(), &node);
            assert_eq!(scan.can_improve, walk > best_half, "seed {seed}");
            let cap = (a.len() + node.ca().len()).min(b.len() + node.cb().len());
            if reduced && cap > best_half {
                assert!(scan.can_improve, "seed {seed}: pruned after a reduction");
            }
            seen[reduced as usize][scan.can_improve as usize] += 1;
            below_cap += (!scan.can_improve && cap > best_half) as u32;
        }
        assert!(seen.iter().flatten().all(|&n| n >= 20), "{seen:?}");
        assert!(below_cap >= 20, "{below_cap}");
    }

    #[test]
    fn ablation_without_reductions_still_correct() {
        for seed in 0..15u64 {
            let g = random_graph(7, 7, 0.6, seed ^ 0x99);
            let config = DenseConfig {
                use_reductions: false,
                ..DenseConfig::default()
            };
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
}
