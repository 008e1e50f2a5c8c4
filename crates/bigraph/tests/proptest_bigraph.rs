//! Property-based tests for the graph substrate.

mod support;

use mbb_bigraph::bicore::bicore_decomposition;
use mbb_bigraph::bitset::BitSet;
use mbb_bigraph::complement::Decomposition;
use mbb_bigraph::core_decomp::core_decomposition;
use mbb_bigraph::generators::{self, ChungLuParams};
use mbb_bigraph::graph::{
    sorted_intersection, sorted_intersection_len, BipartiteGraph, Side, Vertex,
};
use mbb_bigraph::local::LocalGraph;
use mbb_bigraph::matching::{hopcroft_karp, minimum_vertex_cover};
use mbb_bigraph::projection::project;
use mbb_bigraph::subgraph::induce_by_ids;
use mbb_bigraph::two_hop::{all_n_le2_sizes, n2_neighbors, TwoHopIndex};
use proptest::prelude::*;

fn graph_strategy(max_side: u32) -> impl Strategy<Value = BipartiteGraph> {
    (1..=max_side, 1..=max_side).prop_flat_map(move |(nl, nr)| {
        proptest::collection::vec((0..nl, 0..nr), 0..=(nl * nr) as usize)
            .prop_map(move |edges| BipartiteGraph::from_edges(nl, nr, edges).unwrap())
    })
}

/// One graph from each family the bicore oracle test covers: uniform,
/// Chung–Lu, Chung–Lu with a planted biclique, complete, a star centred on
/// either side, and a uniform graph padded with isolated vertices.
fn bicore_family_strategy() -> impl Strategy<Value = BipartiteGraph> {
    (0..7u32, 1..=48u32, 1..=48u32, 0..1_000_000u64).prop_map(|(family, nl, nr, seed)| {
        let edges = (seed % 5 + 1) as usize * (nl + nr) as usize;
        let chung_lu = |seed| {
            let params = ChungLuParams {
                num_left: nl,
                num_right: nr,
                num_edges: edges,
                left_exponent: 0.8,
                right_exponent: 0.7,
            };
            generators::chung_lu_bipartite(&params, seed)
        };
        match family {
            0 => generators::uniform_edges(nl, nr, edges, seed),
            1 => chung_lu(seed),
            2 => generators::plant_balanced_biclique(&chung_lu(seed), nl.min(nr) / 3 + 1).0,
            3 => generators::complete(nl.min(12), nr.min(12)),
            4 => BipartiteGraph::from_edges(1, nr, (0..nr).map(|v| (0, v))).unwrap(),
            5 => BipartiteGraph::from_edges(nl, 1, (0..nl).map(|u| (u, 0))).unwrap(),
            _ => {
                let core = generators::uniform_edges(nl, nr, edges, seed);
                let pad = (seed % 7) as u32 + 1;
                BipartiteGraph::from_edges(nl + pad, nr + pad, core.edges()).unwrap()
            }
        }
    })
}

/// The two-hop index against the single-vertex walk: the index stores each
/// pair once, so `entries()` is half the total length of the
/// `n2_neighbors` lists (the unit tests of `two_hop` compare the rows
/// themselves). The pair pass that fills the index also weighs
/// projections, so each projected weight must be the pair's
/// common-neighbour count.
fn check_two_hop_index(g: &BipartiteGraph) -> Result<(), TestCaseError> {
    let total: usize = g.vertices().map(|v| n2_neighbors(g, v).len()).sum();
    prop_assert_eq!(TwoHopIndex::build(g).entries(), total / 2);
    for side in [Side::Left, Side::Right] {
        for (a, b, weight) in project(g, side).edges {
            let common = sorted_intersection_len(
                g.neighbors(Vertex { side, index: a }),
                g.neighbors(Vertex { side, index: b }),
            );
            prop_assert_eq!(weight as usize, common, "{:?} pair ({}, {})", side, a, b);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bicore_peel_matches_hashmap_oracle(g in bicore_family_strategy()) {
        let fast = bicore_decomposition(&g);
        let oracle = support::hashmap_bicore_decomposition(&g);
        prop_assert_eq!(&fast.order, &oracle.order);
        prop_assert_eq!(&fast.bicore, &oracle.bicore);
        prop_assert_eq!(fast.bidegeneracy, oracle.bidegeneracy);
    }

    #[test]
    fn adjacency_is_symmetric(g in graph_strategy(12)) {
        for u in 0..g.num_left() as u32 {
            for &v in g.neighbors_left(u) {
                prop_assert!(g.neighbors_right(v).contains(&u));
            }
        }
        for v in 0..g.num_right() as u32 {
            for &u in g.neighbors_right(v) {
                prop_assert!(g.neighbors_left(u).contains(&v));
            }
        }
    }

    #[test]
    fn edge_count_consistent_between_sides(g in graph_strategy(12)) {
        let from_left: usize = (0..g.num_left() as u32).map(|u| g.degree_left(u)).sum();
        let from_right: usize = (0..g.num_right() as u32).map(|v| g.degree_right(v)).sum();
        prop_assert_eq!(from_left, g.num_edges());
        prop_assert_eq!(from_right, g.num_edges());
    }

    #[test]
    fn core_numbers_are_consistent(g in graph_strategy(10)) {
        let d = core_decomposition(&g);
        // Core number ≤ degree for every vertex.
        for v in g.vertices() {
            prop_assert!(d.core[g.global_id(v)] as usize <= g.degree(v));
        }
        // The k-core (k = degeneracy) is non-empty and has min degree ≥ k
        // inside itself.
        let k = d.degeneracy;
        let members: Vec<Vertex> = g
            .vertices()
            .filter(|&v| d.core[g.global_id(v)] >= k)
            .collect();
        if k > 0 {
            prop_assert!(!members.is_empty());
            for &v in &members {
                let inside = g
                    .neighbors(v)
                    .iter()
                    .filter(|&&w| {
                        let wv = Vertex { side: v.side.opposite(), index: w };
                        d.core[g.global_id(wv)] >= k
                    })
                    .count();
                prop_assert!(inside >= k as usize, "{v} has {inside} < {k}");
            }
        }
    }

    #[test]
    fn bicore_definition_holds_for_max(g in graph_strategy(8)) {
        // The δ̈-bicore is non-empty and every member has |N≤2| ≥ δ̈ inside it.
        let d = bicore_decomposition(&g);
        if d.bidegeneracy == 0 { return Ok(()); }
        let k = d.bidegeneracy;
        let member = |v: Vertex, g_: &BipartiteGraph| d.bicore[g_.global_id(v)] >= k;
        let mut any = false;
        for v in g.vertices() {
            if !member(v, &g) { continue; }
            any = true;
            let n1 = g.neighbors(v).iter().filter(|&&w| {
                member(Vertex { side: v.side.opposite(), index: w }, &g)
            }).count();
            // 2-hop neighbours within the subgraph: need a common alive mid.
            let mut n2 = 0;
            for w in n2_neighbors(&g, v) {
                let wv = Vertex { side: v.side, index: w };
                if !member(wv, &g) { continue; }
                let common_alive = sorted_intersection(g.neighbors(v), g.neighbors(wv))
                    .iter()
                    .any(|&mid| member(Vertex { side: v.side.opposite(), index: mid }, &g));
                if common_alive { n2 += 1; }
            }
            prop_assert!(n1 + n2 >= k as usize, "{v}: {} < {k}", n1 + n2);
        }
        prop_assert!(any);
    }

    #[test]
    fn two_hop_index_matches_the_walk(small in graph_strategy(10), family in bicore_family_strategy()) {
        check_two_hop_index(&small)?;
        check_two_hop_index(&family)?;
    }

    #[test]
    fn n_le2_sizes_match_pointwise(g in graph_strategy(10)) {
        let all = all_n_le2_sizes(&g);
        for v in g.vertices() {
            let expected = g.degree(v) + n2_neighbors(&g, v).len();
            prop_assert_eq!(all[g.global_id(v)], expected);
        }
    }

    #[test]
    fn matching_size_bounded_by_min_side(g in graph_strategy(12)) {
        let m = hopcroft_karp(&g);
        prop_assert!(m.size <= g.num_left().min(g.num_right()));
        // König: cover size equals matching size and covers all edges.
        let (lc, rc) = minimum_vertex_cover(&g, &m);
        for (u, v) in g.edges() {
            prop_assert!(lc[u as usize] || rc[v as usize]);
        }
        let cover: usize =
            lc.iter().filter(|&&c| c).count() + rc.iter().filter(|&&c| c).count();
        prop_assert_eq!(cover, m.size);
    }

    #[test]
    fn complement_decomposition_partitions_candidates(g in graph_strategy(8)) {
        // Restrict to candidate sets where the decomposition applies; when
        // it does, every candidate appears exactly once (trivial or in one
        // component).
        let ids_l: Vec<u32> = (0..g.num_left() as u32).collect();
        let ids_r: Vec<u32> = (0..g.num_right() as u32).collect();
        let local = LocalGraph::induced(&g, &ids_l, &ids_r);
        let ca = BitSet::full(local.num_left());
        let cb = BitSet::full(local.num_right());
        let mut d = Decomposition::default();
        if d.decompose(&local, &ca, &cb) {
            let mut seen_l = vec![0u32; local.num_left()];
            let mut seen_r = vec![0u32; local.num_right()];
            for &u in d.trivial_left() { seen_l[u as usize] += 1; }
            for &v in d.trivial_right() { seen_r[v as usize] += 1; }
            for c in d.components() {
                for lv in c.vertices {
                    if lv.left { seen_l[lv.index as usize] += 1; }
                    else { seen_r[lv.index as usize] += 1; }
                }
            }
            prop_assert!(seen_l.iter().all(|&c| c == 1), "{seen_l:?}");
            prop_assert!(seen_r.iter().all(|&c| c == 1), "{seen_r:?}");
        }
    }

    #[test]
    fn local_graph_matches_parent(g in graph_strategy(10)) {
        let ids_l: Vec<u32> = (0..g.num_left() as u32).step_by(2).collect();
        let ids_r: Vec<u32> = (0..g.num_right() as u32).step_by(2).collect();
        let local = LocalGraph::induced(&g, &ids_l, &ids_r);
        for (i, &l) in ids_l.iter().enumerate() {
            for (j, &r) in ids_r.iter().enumerate() {
                prop_assert_eq!(local.has_edge(i as u32, j as u32), g.has_edge(l, r));
            }
        }
    }

    // `restrict` of the whole graph's rows gathers, row for row, the
    // subgraph `LocalGraph::induced` builds from the CSR for the masks'
    // members. Sides of up to 200 vertices give rows of up to four words
    // with ragged tails.
    #[test]
    fn restrict_of_the_whole_rows_is_the_csr_induce(
        sides in (1..=200u32, 1..=200u32),
        percents in (0..=100u64, 0..=100u64, 0..=100u64),
        seed in 0..1_000_000u64,
    ) {
        let ((nl, nr), (density, keep_left, keep_right)) = (sides, percents);
        let g = generators::dense_uniform(nl, nr, density as f64 / 100.0, seed);
        let mut pick = seed | 1;
        let mut kept = |n: u32, pct: u64| -> Vec<u32> {
            (0..n)
                .filter(|_| {
                    pick ^= pick << 13;
                    pick ^= pick >> 7;
                    pick ^= pick << 17;
                    pick % 100 < pct
                })
                .collect()
        };
        let (left, right) = (kept(nl, keep_left), kept(nr, keep_right));
        let mask = |ids: &[u32], capacity: u32| {
            let mut mask = BitSet::new(capacity as usize);
            ids.iter().for_each(|&i| mask.insert(i as usize));
            mask
        };
        let cut = LocalGraph::from_graph(&g).restrict(&mask(&left, nl), &mask(&right, nr));
        let induced = LocalGraph::induced(&g, &left, &right);
        prop_assert_eq!(
            (cut.num_left(), cut.num_right()),
            (induced.num_left(), induced.num_right())
        );
        for u in 0..left.len() as u32 {
            prop_assert_eq!(cut.left_row(u).to_bitset(), induced.left_row(u).to_bitset());
        }
        for v in 0..right.len() as u32 {
            prop_assert_eq!(cut.right_row(v).to_bitset(), induced.right_row(v).to_bitset());
        }
    }

    // `induce_by_ids` hands filtered parent rows straight to
    // `from_left_rows`; the result must be the graph `from_edges` builds
    // from the parent's edges between kept ids, renumbered by rank.
    #[test]
    fn induce_by_ids_matches_from_edges(
        g in bicore_family_strategy(),
        left in proptest::collection::vec(0u32..60, 0..40),
        right in proptest::collection::vec(0u32..60, 0..40),
    ) {
        let kept = |ids: &[u32], side: usize| {
            let mut kept: Vec<u32> = ids.iter().copied().filter(|&x| (x as usize) < side).collect();
            kept.sort_unstable();
            kept.dedup();
            kept
        };
        let (left, right) = (kept(&left, g.num_left()), kept(&right, g.num_right()));
        let rank = |ids: &[u32], x: u32| ids.binary_search(&x).ok().map(|i| i as u32);
        let edges = g
            .edges()
            .filter_map(|(u, v)| Some((rank(&left, u)?, rank(&right, v)?)));
        let expected =
            BipartiteGraph::from_edges(left.len() as u32, right.len() as u32, edges).unwrap();
        let sub = induce_by_ids(&g, left.iter().rev().copied().collect(), right.clone());
        prop_assert_eq!(&sub.graph, &expected);
        prop_assert_eq!(sub.left_ids, left);
        prop_assert_eq!(sub.right_ids, right);
    }

    #[test]
    fn io_roundtrip(g in graph_strategy(10)) {
        let mut buf = Vec::new();
        mbb_bigraph::io::write_edge_list(&g, &mut buf).unwrap();
        let back = mbb_bigraph::io::read_edge_list(std::io::Cursor::new(buf)).unwrap();
        prop_assert_eq!(back.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            prop_assert!(back.has_edge(u, v));
        }
    }
}

/// `p` left ends that share a hub and `r` backups on the right; the hub
/// also has `q` private left leaves. The hub's degree, `p + q`, is the
/// largest among the ends' common neighbours, so it is every end pair's
/// first witness. The leaves peel early and take the hub's key down with
/// them, so the hub can die while both ends of its pairs survive.
fn hub_with_backups(p: u32, q: u32, r: u32) -> BipartiteGraph {
    let ends = (0..p).flat_map(|e| (0..=r).map(move |c| (e, c)));
    let leaves = (p..p + q).map(|l| (l, 0));
    BipartiteGraph::from_edges(p + q, r + 1, ends.chain(leaves)).unwrap()
}

/// The 2-hop pairs of `g` whose first witness (the common neighbour with
/// the largest core number, degree and id) dies in `order` before both
/// ends, as `(moved, ended)`: those that then still share a surviving
/// neighbour, and those that do not.
fn early_witness_deaths(g: &BipartiteGraph, order: &[u32]) -> (usize, usize) {
    let core = core_decomposition(g).core;
    let mut died = vec![0; g.num_vertices()];
    for (t, &v) in order.iter().enumerate() {
        died[v as usize] = t;
    }
    let (mut moved, mut ended) = (0, 0);
    for a in g.vertices() {
        for index in n2_neighbors(g, a) {
            let b = Vertex {
                side: a.side,
                index,
            };
            if b.index < a.index {
                continue;
            }
            let common: Vec<Vertex> = sorted_intersection(g.neighbors(a), g.neighbors(b))
                .into_iter()
                .map(|index| Vertex {
                    side: a.side.opposite(),
                    index,
                })
                .collect();
            let strength = |m: &Vertex| (core[g.global_id(*m)], g.degree(*m), g.global_id(*m));
            let witness = *common.iter().max_by_key(|m| strength(m)).unwrap();
            let witness_dies = died[g.global_id(witness)];
            if witness_dies < died[g.global_id(a)].min(died[g.global_id(b)]) {
                if common.iter().any(|&m| died[g.global_id(m)] > witness_dies) {
                    moved += 1;
                } else {
                    ended += 1;
                }
            }
        }
    }
    (moved, ended)
}

#[test]
fn witnesses_that_die_early_keep_the_oracle_order() {
    let mut graphs = Vec::new();
    for p in 2..6 {
        for q in 1..4 {
            for r in 1..6 {
                graphs.push(hub_with_backups(p, q, r));
            }
        }
    }
    // Sparse graphs, where the last common neighbour of many pairs dies
    // before either end.
    for seed in 0..8 {
        let params = ChungLuParams {
            num_left: 40,
            num_right: 30,
            num_edges: 120,
            left_exponent: 0.8,
            right_exponent: 0.7,
        };
        graphs.push(generators::chung_lu_bipartite(&params, seed));
    }
    let (mut moved, mut ended) = (0, 0);
    for g in &graphs {
        let fast = bicore_decomposition(g);
        let oracle = support::hashmap_bicore_decomposition(g);
        assert_eq!(fast.order, oracle.order);
        assert_eq!(fast.bicore, oracle.bicore);
        let (m, e) = early_witness_deaths(g, &oracle.order);
        moved += m;
        ended += e;
    }
    assert!(moved > 0 && ended > 0, "{moved} moved, {ended} ended");
}
