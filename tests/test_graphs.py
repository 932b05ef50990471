import gc
import re
import weakref
from itertools import chain, combinations
from pathlib import Path

import pytest

from divgraph import (
    Divisor,
    Graph,
    balance_report,
    bridge_rank_preservation,
    find_semibalanced_representative,
    is_equivalent,
    picard_structure,
    rank,
    riemann_roch_check,
)
from divgraph.corpus import connected_multigraphs
from divgraph.divisors import firing_divisor
from divgraph.errors import (
    DisconnectedGraph,
    LoopInContractionSet,
    NegativeWeight,
    UnknownEdge,
    UnknownVertexId,
)
from divgraph.graphs import DisjointSets
from divgraph.oracles import spanning_tree_count

from conftest import binary, cycle, single_vertex


class TestConstruction:
    def test_binary_graph_genus(self):
        g = binary(2)
        assert g.vertex_count == 2
        assert g.edge_count == 3
        assert g.genus() == 2

    def test_single_weighted_vertex(self):
        g = single_vertex(5)
        assert g.genus() == 5
        assert g.edge_count == 0

    def test_disconnected_rejected(self):
        with pytest.raises(DisconnectedGraph):
            Graph(["a", "b"], [])

    def test_loops_do_not_connect(self):
        with pytest.raises(DisconnectedGraph):
            Graph(["a", "b"], [("a", "a"), ("b", "b")])

    def test_negative_weight_rejected(self):
        with pytest.raises(NegativeWeight):
            Graph([("a", -1)], [])

    def test_unknown_endpoint_rejected(self):
        with pytest.raises(UnknownVertexId):
            Graph(["a"], [("a", "b")])

    def test_duplicate_ids_rejected(self):
        with pytest.raises(UnknownVertexId):
            Graph(["a", "a"], [("a", "a")])

    def test_empty_rejected(self):
        with pytest.raises(DisconnectedGraph):
            Graph([], [])

    def test_structural_equality(self):
        assert binary(2) == binary(2)
        assert binary(2) != binary(3)
        assert hash(binary(2)) == hash(binary(2))


class TestGenus:
    def test_triangle_doubled(self, triangle_doubled):
        assert triangle_doubled.genus() == 2  # 4 - 3 + 1

    def test_weight_loop_mix(self, weight_loop_mix):
        assert weight_loop_mix.genus() == 2  # b1 = 1 plus weight 1

    def test_binary_family(self):
        for g in range(2, 7):
            assert binary(g).genus() == g


class TestIntersection:
    def test_diagonal(self, triangle_doubled):
        assert triangle_doubled.intersection({"v2"}, {"v2"}) == -3

    def test_edge_count_between_sets(self, triangle_doubled):
        # edges from {v1,v3} to v2: the doubled edge plus v2-v3
        assert triangle_doubled.intersection({"v1", "v3"}, {"v2"}) == 3

    def test_empty_set(self, triangle_doubled):
        assert triangle_doubled.intersection(set(), {"v1"}) == 0

    def test_whole_vertex_set_is_isotropic(self, triangle_doubled):
        vs = set(triangle_doubled.vertex_ids)
        assert triangle_doubled.intersection(vs, vs) == 0

    def test_complement_identity(self, triangle_doubled):
        g = triangle_doubled
        vs = set(g.vertex_ids)
        for zs in ({"v1"}, {"v2"}, {"v1", "v3"}, {"v2", "v3"}):
            assert g.intersection(zs, zs) == -g.intersection(zs, vs - zs)

    def test_loops_ignored(self):
        g = Graph(["a", "b"], [("a", "b"), ("a", "a")])
        assert g.intersection({"a"}, {"a"}) == -1

    def test_unknown_vertex(self, triangle_doubled):
        with pytest.raises(UnknownVertexId):
            triangle_doubled.intersection({"nope"}, {"v1"})


class TestValency:
    def test_binary_vertices(self, binary2):
        assert binary2.valency("v1") == 3
        assert binary2.valency("v2") == 3

    def test_loop_counts_twice(self):
        assert single_vertex(0, loops=1).valency("v") == 2

    def test_mixed(self, weight_loop_mix):
        assert weight_loop_mix.valency("w") == 3
        assert weight_loop_mix.valency("v") == 1

    def test_valency_sum_matches_canonical_degree(self, triangle_doubled):
        g = triangle_doubled
        total = sum(2 * g.weight(v) - 2 + g.valency(v) for v in g.vertex_ids)
        assert total == 2 * g.genus() - 2


class TestLooplessModel:
    def test_mixed_graph_becomes_chain(self, weight_loop_mix):
        model = weight_loop_mix.loopless_model()
        m = model.model
        assert m.vertex_ids == ("v", "w", "v*0", "w*0")
        assert sorted(m.edges) == sorted(
            [("v", "w"), ("v", "v*0"), ("v", "v*0"), ("w", "w*0"), ("w", "w*0")]
        )
        assert m.genus() == weight_loop_mix.genus() == 2

    def test_plain_graph_is_its_own_model(self, binary2):
        model = binary2.loopless_model()
        assert model.model is binary2

    def test_weight_two_vertex_becomes_star(self):
        model = single_vertex(2).loopless_model()
        m = model.model
        assert m.vertex_count == 3
        assert m.genus() == 2
        # two midpoints, each joined to the centre by a doubled edge
        assert m.valency("v") == 4

    def test_idempotent(self, weight_loop_mix):
        m = weight_loop_mix.loopless_model().model
        assert m.loopless_model().model is m

    def test_embed_coeffs(self, weight_loop_mix):
        model = weight_loop_mix.loopless_model()
        assert model.embed_coeffs((1, 0)) == (1, 0, 0, 0)


class TestContraction:
    def test_path_edge_contraction(self, triangle_doubled):
        cm = triangle_doubled.contract({3})
        assert cm.target.vertex_ids == ("v1", "v2")
        assert cm.target.edge_count == 3
        assert cm.target.genus() == 2
        assert cm.vertex_map == {"v1": "v1", "v2": "v2", "v3": "v2"}

    def test_parallel_edge_contraction_makes_loop(self):
        g = Graph(["a", "b"], [("a", "b"), ("a", "b")])
        cm = g.contract({0})
        assert cm.target.vertex_count == 1
        assert cm.target.loop_count("a") == 1
        assert cm.target.genus() == g.genus() == 1
        assert cm.target.weight("a") == 0

    def test_contracting_both_parallel_edges_adds_weight(self):
        g = Graph(["a", "b"], [("a", "b"), ("a", "b")])
        cm = g.contract({0, 1})
        assert cm.target.vertex_count == 1
        assert cm.target.edge_count == 0
        assert cm.target.weight("a") == 1
        assert cm.target.genus() == 1

    def test_weights_sum_over_fiber(self):
        g = Graph([("a", 1), ("b", 2)], [("a", "b")])
        cm = g.contract({0})
        assert cm.target.weight("a") == 3

    def test_empty_contraction_is_identity(self, triangle_doubled):
        cm = triangle_doubled.contract(set())
        assert cm.target == triangle_doubled
        assert cm.vertex_map == {v: v for v in triangle_doubled.vertex_ids}

    def test_loop_rejected(self):
        g = Graph(["a", "b"], [("a", "b"), ("a", "a")])
        with pytest.raises(LoopInContractionSet):
            g.contract({1})

    def test_bad_index_rejected(self, triangle_doubled):
        with pytest.raises(UnknownEdge):
            triangle_doubled.contract({17})

    def test_every_contraction_preserves_genus(self):
        count = 0
        for g in connected_multigraphs(3, 5, 2):
            plain = [e for e, (i, j) in enumerate(g.edge_pairs) if i != j]
            subsets = chain.from_iterable(
                combinations(plain, k) for k in range(len(plain) + 1))
            for s in subsets:
                cm = g.contract(s)
                assert cm.target.genus() == g.genus()
                assert set(cm.vertex_map.values()) <= set(cm.target.vertex_ids)
                count += 1
        assert count == 4634

    def test_surviving_edges_bookkeeping(self, triangle_doubled):
        cm = triangle_doubled.contract({1})
        assert cm.surviving_edges == (0, 2, 3)


class TestBridges:
    def test_bridge_in_model(self, two_weight_one):
        model = two_weight_one.loopless_model().model
        # the original v1-v2 edge is the only bridge of the chain
        assert model.is_bridge(0)
        assert not model.is_bridge(1)

    def test_non_bridge(self, triangle_doubled):
        assert not triangle_doubled.is_bridge(3)

    def test_parallel_pair_never_bridges(self):
        g = Graph(["a", "b"], [("a", "b"), ("a", "b")])
        assert not g.is_bridge(0)
        assert not g.is_bridge(1)

    def test_loop_never_bridges(self):
        g = Graph(["a", "b"], [("a", "b"), ("a", "a")])
        assert not g.is_bridge(1)

    def test_unknown_edge(self, binary2):
        with pytest.raises(UnknownEdge):
            binary2.is_bridge(10)


class TestComplexity:
    def test_binary_three_edges(self, binary2):
        assert binary2.complexity() == 3

    def test_cycles(self):
        for n in range(3, 7):
            assert cycle(n).complexity() == n

    def test_tree(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        assert g.complexity() == 1

    def test_single_vertex(self):
        assert single_vertex(3, loops=2).complexity() == 1

    def test_loops_and_weights_irrelevant(self):
        plain = Graph(["a", "b"], [("a", "b")] * 2)
        noisy = Graph([("a", 2), ("b", 0)], [("a", "b"), ("a", "b"), ("a", "a")])
        assert plain.complexity() == noisy.complexity() == 2

    def test_matches_brute_enumeration(self, triangle_doubled):
        assert triangle_doubled.complexity() == spanning_tree_count(triangle_doubled)
        assert triangle_doubled.complexity() == 5


def _dense_adjacency(g):
    """The non-loop adjacency matrix, built from the edge list alone."""
    n = g.vertex_count
    adj = [[0] * n for _ in range(n)]
    for a, b in g.edges:
        i, j = g.index(a), g.index(b)
        if i != j:
            adj[i][j] += 1
            adj[j][i] += 1
    return adj


class TestAdjacencyView:
    def test_other_modules_read_no_private_graph_state(self):
        # every module but graphs.py goes through the public view
        private = re.compile(r"\._(adj|neighbors|degree|edge_pairs|loops|cache)\b")
        package = Path(__file__).resolve().parent.parent / "src" / "divgraph"
        offending = [
            f"{path.name}:{number}: {line.strip()}"
            for path in sorted(package.glob("*.py"))
            if path.name != "graphs.py"
            for number, line in enumerate(path.read_text().splitlines(), 1)
            if private.search(line)
        ]
        assert offending == []

    def test_cut_size_is_the_intersection_with_the_complement(self):
        for g in connected_multigraphs(4, 6, 2):
            ids = g.vertex_ids
            everything = set(ids)
            for size in range(1, g.vertex_count):
                for zs in combinations(range(g.vertex_count), size):
                    names = {ids[i] for i in zs}
                    assert g.cut_size(zs) == g.intersection(names, everything - names)

    @pytest.mark.parametrize("times", (-2, -1, 1, 2))
    def test_fire_moves_the_firing_divisors_of_the_set(self, times):
        for g in connected_multigraphs(3, 5, 2):
            n = g.vertex_count
            moves = [firing_divisor(g, v).coeffs for v in g.vertex_ids]
            for size in range(1, n + 1):
                for zs in combinations(range(n), size):
                    coeffs = [0] * n
                    g.fire(coeffs, zs, times)
                    assert coeffs == [times * sum(moves[i][k] for i in zs) for k in range(n)]
                    start = [3 * k - 4 for k in range(n)]
                    coeffs = list(start)
                    g.fire(coeffs, zs, times)
                    assert sum(coeffs) == sum(start)
                    if size == n:
                        assert coeffs == start

    def test_fire_sends_no_chips_along_loops(self):
        g = Graph([("v", 2), ("w", 0)], [("v", "w"), ("v", "v"), ("w", "w"), ("v", "w")])
        coeffs = [5, 1]
        g.fire(coeffs, [0])
        assert coeffs == [3, 3]
        g.fire(coeffs, [1], -3)
        assert coeffs == [-3, 9]
        g.fire(coeffs, [0, 1], 7)
        assert coeffs == [-3, 9]

    def test_view(self, triangle_doubled):
        g = triangle_doubled
        assert g.neighbors == (((1, 2), (2, 1)), ((0, 2), (2, 1)), ((0, 1), (1, 1)))
        assert g.degrees == (3, 3, 2)
        assert g.edge_pairs == ((0, 1), (0, 1), (0, 2), (1, 2))

    def test_sparse_view_matches_a_dense_matrix(self):
        for g in connected_multigraphs(3, 5, 2):
            adj, n, ids = _dense_adjacency(g), g.vertex_count, g.vertex_ids
            assert g.neighbors == tuple(
                tuple((j, m) for j, m in enumerate(row) if m) for row in adj)
            assert g.degrees == tuple(map(sum, adj))
            subsets = [[i for i in range(n) if mask >> i & 1] for mask in range(1 << n)]
            for zs in subsets:
                for ws in subsets:
                    expected = sum(adj[i][j] if i != j else -sum(adj[i])
                                   for i in zs for j in ws)
                    assert g.intersection({ids[i] for i in zs},
                                          {ids[j] for j in ws}) == expected

    def test_is_bridge_iff_deleting_the_edge_disconnects(self):
        for g in connected_multigraphs(3, 5, 2):
            vertices = list(zip(g.vertex_ids, g.weights))
            for e in range(g.edge_count):
                try:
                    Graph(vertices, g.edges[:e] + g.edges[e + 1:])
                    disconnects = False
                except DisconnectedGraph:
                    disconnects = True
                assert g.is_bridge(e) == disconnects

    def test_bfs_layers_and_inward_gains(self):
        for g in connected_multigraphs(3, 5, 2):
            adj, n = _dense_adjacency(g), g.vertex_count
            for q in range(n):
                layers, inward = g.bfs_layers(q)
                assert layers[0] == (q,) and inward[q] == 0
                assert sorted(chain.from_iterable(layers)) == list(range(n))
                for k in range(1, len(layers)):
                    nearer = list(chain.from_iterable(layers[:k - 1]))
                    for v in layers[k]:
                        # at distance k: an edge into layer k-1, none nearer q
                        assert inward[v] == sum(adj[v][u] for u in layers[k - 1]) > 0
                        assert not any(adj[v][u] for u in nearer)

    def test_memo_builds_once(self, binary2):
        built = []
        for _ in range(2):
            assert binary2.memo("probe", lambda g: built.append(g) or len(built)) == 1
        assert built == [binary2]


def _rank_with_witness(coeffs):
    return lambda g: rank(g, Divisor(g, coeffs), with_witness=True)


def _contract_bridge(g):
    cm = g.contract({0})
    assert bridge_rank_preservation(cm, Divisor(g, (0, 1)))
    return cm.target


def _class_memos(g):
    d = Divisor(g, (3, 1))
    assert is_equivalent(d, d)
    picard_structure(g)
    balance_report(g, d)
    g.complexity()
    g.bfs_layers(0)
    return g.loopless_model().model


class TestMemoRule:
    """No memo value refers back to its graph, so with the cycle collector
    off a graph dies at its last reference, memos and models with it."""

    @pytest.mark.parametrize("make, use", [
        (lambda: Graph(["a", "b", "c"], [("a", "b"), ("a", "b"), ("a", "c"), ("b", "c")]),
         _rank_with_witness((1, 1, 0))),
        (lambda: Graph([("v", 1), ("w", 0)], [("v", "w"), ("w", "w")]),
         _rank_with_witness((2, 0))),
        (lambda: Graph([("v", 1), ("w", 0)], [("v", "w"), ("w", "w")]),
         lambda g: riemann_roch_check(g, Divisor(g, (1, 1)))),
        (lambda: binary(2),
         lambda g: find_semibalanced_representative(g, Divisor(g, (5, 0)))),
        (lambda: Graph([("v1", 1), ("v2", 1)], [("v1", "v2")]), _contract_bridge),
        (lambda: Graph([("v", 1), ("w", 0)], [("v", "w"), ("w", "w")]), _class_memos),
    ], ids=["rank-plain", "rank-weighted-loop", "riemann-roch", "semibalanced",
            "contract-bridge", "class-memos"])
    def test_graph_freed_by_reference_counting(self, make, use):
        enabled = gc.isenabled()
        gc.disable()
        try:
            g = make()
            derived = use(g)
            refs = [weakref.ref(g)]
            if isinstance(derived, Graph):
                refs.append(weakref.ref(derived))
            del g, derived
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            if enabled:
                gc.enable()


class TestDisjointSets:
    def test_sets_are_rooted_at_their_smallest_member(self):
        sets = DisjointSets(5)
        assert sets.union(3, 4)
        assert sets.union(4, 1)
        assert not sets.union(1, 3)
        assert [sets.find(i) for i in range(5)] == [0, 1, 2, 1, 1]
