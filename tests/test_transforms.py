from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from divgraph import (
    Divisor,
    Graph,
    balance_bound,
    balance_report,
    bridge_rank_preservation,
    find_semibalanced_representative,
    firing_divisor,
    is_equivalent,
    push_forward,
    rank,
    verify_prin_pushforward,
)
from divgraph.corpus import connected_multigraphs
from divgraph.errors import (
    EnumerationCapExceeded,
    GenusTooSmall,
    GraphMismatch,
    MultiEdgeContraction,
    NotABridge,
    NotSemistable,
)
from divgraph.oracles import is_semibalanced_by_bounds
from divgraph.rank import certify_rank_below

from conftest import binary, cycle


def _semistable(g):
    return g.genus() >= 2 and all(
        w > 0 or g.valency(v) >= 2 for w, v in zip(g.weights, g.vertex_ids))


@st.composite
def chained_graphs(draw):
    """Semistable graphs of genus >= 2 on 5-9 vertices: up to three hubs
    with weights and loops, joined by chains of weight-0 valency-2
    vertices. Hub i is chained to hub i+1, and up to three more chains
    join any two hubs (or a hub to itself)."""
    hubs = draw(st.integers(1, 3))
    n = draw(st.integers(5, 9))
    weights = draw(st.lists(st.integers(0, 2), min_size=hubs, max_size=hubs))
    loops = draw(st.lists(st.integers(0, 2), min_size=hubs, max_size=hubs))
    hub = st.integers(0, hubs - 1)
    ends = [(i, i + 1) for i in range(hubs - 1)]
    ends += draw(st.lists(st.tuples(hub, hub), min_size=1, max_size=3))
    # deal the n - hubs chain vertices out to the chains
    owners = draw(st.lists(st.integers(0, len(ends) - 1),
                           min_size=n - hubs, max_size=n - hubs))
    lengths = Counter(owners)
    ids = [f"h{i}" for i in range(hubs)]
    vertices = [(v, w) for v, w in zip(ids, weights)]
    edges = [(v, v) for v, count in zip(ids, loops) for _ in range(count)]
    for c, (a, b) in enumerate(ends):
        path = [ids[a]] + [f"c{c}_{k}" for k in range(lengths[c])] + [ids[b]]
        vertices += [(v, 0) for v in path[1:-1]]
        edges += list(zip(path, path[1:]))
    g = Graph(vertices, edges)
    assume(_semistable(g))
    return g


@st.composite
def chained_divisors(draw):
    """A divisor of any degree on a chained graph; chain vertices hold
    -2 .. 2 chips, so -1 on a valency-2 vertex comes up often."""
    g = draw(chained_graphs())
    coeffs = [
        draw(st.integers(-6, 8) if v.startswith("h") else st.integers(-2, 2))
        for v in g.vertex_ids
    ]
    return Divisor(g, coeffs)


class TestPushForward:
    def test_worked_examples(self, triangle_doubled):
        cm = triangle_doubled.contract({3})
        d = Divisor(triangle_doubled, (-2, 3, -1))
        assert push_forward(cm, d).coeffs == (-2, 2)
        e = Divisor(triangle_doubled, (1, -1, 2))
        assert push_forward(cm, e).coeffs == (1, 1)

    def test_identity_contraction(self, triangle_doubled):
        cm = triangle_doubled.contract(set())
        d = Divisor(triangle_doubled, (5, -2, 1))
        assert push_forward(cm, d) == Divisor(cm.target, (5, -2, 1))

    def test_degree_preserved_homomorphism(self, triangle_doubled):
        cm = triangle_doubled.contract({2})
        for c1 in product(range(-2, 3), repeat=3):
            d1 = Divisor(triangle_doubled, c1)
            assert push_forward(cm, d1).degree == d1.degree
        a = Divisor(triangle_doubled, (1, 2, 3))
        b = Divisor(triangle_doubled, (-1, 0, 4))
        assert push_forward(cm, a + b) == push_forward(cm, a) + push_forward(cm, b)

    def test_wrong_graph_rejected(self, triangle_doubled, binary2):
        cm = triangle_doubled.contract({3})
        with pytest.raises(GraphMismatch):
            push_forward(cm, Divisor(binary2, (1, 0)))


class TestPrinPushforward:
    def test_worked_contraction(self, triangle_doubled):
        assert verify_prin_pushforward(triangle_doubled.contract({3}))

    def test_bridge_contraction(self, two_weight_one):
        assert verify_prin_pushforward(two_weight_one.contract({0}))

    def test_cycle_contraction_generators(self):
        g = cycle(3)
        cm = g.contract({0})
        assert verify_prin_pushforward(cm)
        # away from the contracted edge the generators push onto generators
        pushed = push_forward(cm, firing_divisor(g, "v3"))
        assert pushed == firing_divisor(cm.target, "v3")

    def test_every_single_edge_contraction(self, triangle_doubled):
        for e in range(triangle_doubled.edge_count):
            assert verify_prin_pushforward(triangle_doubled.contract({e}))

    def test_multi_edge_rejected(self, triangle_doubled):
        with pytest.raises(MultiEdgeContraction):
            verify_prin_pushforward(triangle_doubled.contract({2, 3}))


class TestBridgePreservation:
    def test_two_weight_one_bridge(self, two_weight_one):
        g = two_weight_one
        cm = g.contract({0})
        for coeffs in product(range(-2, 3), repeat=2):
            if abs(sum(coeffs)) <= 4:
                assert bridge_rank_preservation(cm, Divisor(g, coeffs))

    def test_model_bridge_of_two_weight_one(self, two_weight_one):
        # contracting the bridge inside the weightless loopless model is a
        # rank-preserving Picard isomorphism; orders match as well
        model = two_weight_one.loopless_model().model
        assert model.is_bridge(0)
        cm = model.contract({0})
        assert cm.target.complexity() == model.complexity()
        assert verify_prin_pushforward(cm)
        d = Divisor(model, (0, 1, 0, 0))
        assert bridge_rank_preservation(cm, d)
        assert rank(model, d).value == 0

    def test_leaf_edge_contractions(self):
        # 5-vertex graphs: a triangle with a 2-edge tail; both tail edges
        # are bridges and leaf-edge contraction preserves every rank
        ids = ["v1", "v2", "v3", "v4", "v5"]
        g = Graph(ids, [("v1", "v2"), ("v2", "v3"), ("v3", "v1"),
                        ("v3", "v4"), ("v4", "v5")])
        for e in (3, 4):
            assert g.is_bridge(e)
            cm = g.contract({e})
            count = 0
            for coeffs in product(range(-1, 2), repeat=5):
                if abs(sum(coeffs)) <= 3:
                    assert bridge_rank_preservation(cm, Divisor(g, coeffs))
                    count += 1
            assert count > 0

    def test_non_bridge_rejected(self, triangle_doubled):
        cm = triangle_doubled.contract({3})
        with pytest.raises(NotABridge):
            bridge_rank_preservation(cm, Divisor.zero(triangle_doubled))


class TestBalanceReport:
    def test_binary_unit_balanced(self, binary2):
        report = balance_report(binary2, Divisor(binary2, (1, 1)))
        assert report.semibalanced and report.balanced
        assert report.violating_set is None

    def test_binary_concentrated_fails(self, binary2):
        report = balance_report(binary2, Divisor(binary2, (5, 0)))
        assert not report.semibalanced and not report.balanced
        assert report.violating_set == frozenset({"v2"})
        # the violated bound is 5/2 - 3/2 = 1 > 0, exactly
        assert balance_bound(binary2, 5, {"v2"}) == Fraction(1)

    def test_fractional_bound_exact(self):
        b3 = binary(3)
        assert balance_bound(b3, 5, {"v2"}) == Fraction(1, 2)
        report = balance_report(b3, Divisor(b3, (5, 0)))
        assert not report.semibalanced

    def test_canonical_always_semibalanced(self, binary2, triangle_doubled):
        from divgraph import canonical_divisor

        for g in (binary2,):
            report = balance_report(g, canonical_divisor(g))
            assert report.semibalanced

    def test_valency_two_vertex_conditions(self):
        g = cycle(4)  # genus 1: too small
        with pytest.raises(GenusTooSmall):
            balance_report(g, Divisor.zero(g))
        # doubled 4-cycle has genus 5 and four valency-4 vertices: fine
        ids = ["v1", "v2", "v3", "v4"]
        doubled = Graph(ids, [(ids[i], ids[(i + 1) % 4]) for i in range(4)] * 2)
        assert balance_report(doubled, Divisor(doubled, (2, 2, 2, 2))).semibalanced

    def test_semibalanced_but_not_balanced(self):
        # triangle with one doubled edge, genus 2: v3 has valency 2 and
        # weight 0, so balanced demands exactly one chip there
        g = Graph(["v1", "v2", "v3"],
                  [("v1", "v2"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
        report = balance_report(g, Divisor(g, (1, 1, 0)))
        assert report.semibalanced and not report.balanced
        assert report.violating_set == frozenset({"v3"})
        balanced = balance_report(g, Divisor(g, (1, 0, 1)))
        assert balanced.semibalanced and balanced.balanced

    def test_not_semistable_rejected(self):
        # a leaf vertex of weight zero is not semistable
        g = Graph([("v1", 2), ("v2", 0)], [("v1", "v2")])
        with pytest.raises(NotSemistable):
            balance_report(g, Divisor.zero(g))

    def test_genus_too_small(self):
        g = Graph(["a", "b"], [("a", "b"), ("a", "b")])  # genus 1
        with pytest.raises(GenusTooSmall):
            balance_report(g, Divisor.zero(g))

    def test_matches_bound_oracle_on_three_vertex_corpus(self):
        graphs = [g for g in connected_multigraphs(3, 6, 2) if _semistable(g)]
        assert graphs
        for g in graphs:
            for coeffs in product(range(-2, 3), repeat=g.vertex_count):
                d = Divisor(g, coeffs)
                assert balance_report(g, d).semibalanced == is_semibalanced_by_bounds(g, d), (
                    g, coeffs)


class TestSubsetSweepCap:
    """Subset sweeps refuse graphs past the vertex cap instead of
    enumerating 2^n sets."""

    def doubled_cycle(self, n):
        ids = [f"v{i + 1}" for i in range(n)]
        return Graph(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)] * 2)

    def test_cut_criterion_refused_after_its_early_return(self):
        g = self.doubled_cycle(17)
        with pytest.raises(EnumerationCapExceeded):
            certify_rank_below(g, Divisor.zero(g), "v1", 1)
        # d(v) >= r settles the criterion before any subset is visited
        assert not certify_rank_below(g, Divisor.zero(g), "v1", 0)

    def test_cap_vertex_count_accepted(self):
        g = self.doubled_cycle(16)
        assert balance_report(g, Divisor(g, (2,) * 16)).semibalanced


class TestSemibalancedRepresentative:
    def test_binary_high_degree(self, binary2):
        d = Divisor(binary2, (5, 0))
        rep = find_semibalanced_representative(binary2, d)
        assert rep.coeffs == (2, 3)
        assert is_equivalent(rep, d)
        assert balance_report(binary2, rep).semibalanced
        assert rank(binary2, rep).value == 5 - 2

    def test_already_semibalanced_returned_unchanged(self, binary2):
        d = Divisor(binary2, (1, 1))
        assert find_semibalanced_representative(binary2, d) == d

    def test_degree_two_class(self, binary2):
        # the class of (3,-1) has (0,2) as its only small representative
        d = Divisor(binary2, (3, -1))
        rep = find_semibalanced_representative(binary2, d)
        assert rep.coeffs == (0, 2)
        assert is_equivalent(rep, d)
        assert all(0 <= c <= 2 for c in rep.coeffs)

    def test_special_vertex_at_minus_one_is_unfired(self):
        # triangle with one doubled edge: v3 has weight 0 and valency 2, and
        # -1 there breaks only the valency-2 condition, not a subset bound
        g = Graph(["v1", "v2", "v3"],
                  [("v1", "v2"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
        d = Divisor(g, (2, 2, -1))
        assert balance_report(g, d).violating_set == frozenset({"v3"})
        rep = find_semibalanced_representative(g, d)
        assert rep.coeffs == (1, 1, 1)
        assert is_semibalanced_by_bounds(g, rep)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(chained_divisors())
    def test_descent_on_chained_graphs(self, d):
        g = d.graph
        rep = find_semibalanced_representative(g, d)
        assert is_semibalanced_by_bounds(g, rep)
        assert is_equivalent(rep, d)
        assert find_semibalanced_representative(g, rep) == rep

    def test_triangle_doubled_classes(self, triangle_doubled):
        g = triangle_doubled
        genus = g.genus()
        from divgraph import enumerate_classes

        for degree in (2 * genus - 1, 2 * genus):
            for class_rep in enumerate_classes(g, degree):
                rep = find_semibalanced_representative(g, class_rep)
                assert balance_report(g, rep).semibalanced
                assert is_equivalent(rep, class_rep)
                assert rank(g, rep).value == degree - genus
