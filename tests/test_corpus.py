from itertools import permutations

from divgraph.corpus import connected_multigraphs, weightless
from divgraph.verify import SUITES, run_all, run_suite


class TestEnumeration:
    def test_counts_are_stable(self):
        assert len(connected_multigraphs(4, 6, 0)) == 283
        assert len(connected_multigraphs(4, 6, 2)) == 2914

    def test_hand_counted_small_families(self):
        graphs = connected_multigraphs(2, 6, 0)
        by_n = {}
        for g in graphs:
            by_n.setdefault(g.vertex_count, []).append(g)
        # single vertex with 0..6 loops; two vertices: 34 loop/parallel shapes
        assert len(by_n[1]) == 7
        assert len(by_n[2]) == 34

    def test_connected_simple_graphs_on_four_vertices(self):
        graphs = connected_multigraphs(4, 6, 0)
        simple = [
            g for g in graphs
            if g.vertex_count == 4
            and not any(g.loop_count(v) for v in g.vertex_ids)
            and all(m <= 1 for row in g.adjacency for m in row)
        ]
        assert len(simple) == 6

    def test_all_connected_within_caps(self):
        for g in connected_multigraphs(3, 4, 1):
            assert g.edge_count <= 4
            assert g.vertex_count <= 3
            assert sum(g.weights) <= 1

    def test_no_isomorphic_duplicates_small(self):
        # relabelling any graph in the corpus never produces another one
        graphs = connected_multigraphs(3, 3, 1)
        keys = set()
        for g in graphs:
            n = g.vertex_count
            canon = None
            for perm in permutations(range(n)):
                w = tuple(g.weights[perm[i]] for i in range(n))
                edges = tuple(sorted(
                    tuple(sorted((perm.index(i), perm.index(j))))
                    for i, j in g.edge_pairs
                ))
                cand = (n, w, edges)
                canon = cand if canon is None or cand < canon else canon
            assert canon not in keys
            keys.add(canon)

    def test_weightless_filter(self):
        graphs = connected_multigraphs(3, 3, 2)
        assert all(not any(g.weights) for g in weightless(graphs))
        assert weightless(graphs) == connected_multigraphs(3, 3, 0)

    def test_deterministic_order(self):
        a = connected_multigraphs(3, 4, 1)
        b = connected_multigraphs(3, 4, 1)
        assert list(a) == list(b)


class TestSuitesSmallCaps:
    def test_all_suites_pass(self):
        results = run_all(
            max_vertices=3, max_edges=4, max_total_weight=1,
            random_functions=60,
        )
        assert {r.name for r in results} == set(SUITES)
        for r in results:
            assert r.passed, r.line()
            assert r.checked > 0

    def test_sharded_matches_inline(self):
        inline = run_suite(
            "riemann_roch", max_vertices=3, max_edges=4, max_total_weight=1)
        sharded = run_suite(
            "riemann_roch", max_vertices=3, max_edges=4, max_total_weight=1,
            workers=2)
        assert (inline.checked, inline.violations) == (
            sharded.checked, sharded.violations)

    def test_max_degree_cap_respected(self):
        capped = run_suite(
            "riemann_roch", max_vertices=3, max_edges=3, max_total_weight=0,
            max_degree=0)
        full = run_suite(
            "riemann_roch", max_vertices=3, max_edges=3, max_total_weight=0)
        assert 0 < capped.checked < full.checked
        assert capped.passed
