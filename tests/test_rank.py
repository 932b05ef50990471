import sys
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from divgraph import (
    DegreeZeroClass,
    Divisor,
    Graph,
    canonical_divisor,
    certify_rank_below,
    clifford_check,
    degree_zero_classification,
    firing_divisor,
    is_class_effective,
    rank,
    rank_weightless,
    riemann_roch_check,
)
from divgraph.errors import (
    DegreeCapExceeded,
    DegreeNotZero,
    DegreeOutOfRange,
    GraphMismatch,
    RequiresWeightlessLoopless,
)
from divgraph import verify
from divgraph.corpus import connected_multigraphs
from divgraph.oracles import rank_by_definition

from conftest import binary, cycle, divisors_of_degree, single_vertex, weighted_multigraphs


class TestClassEffectivity:
    def test_worked_examples(self, triangle_doubled):
        g = triangle_doubled
        assert is_class_effective(Divisor(g, (-2, 3, -1)))
        assert not is_class_effective(Divisor(g, (1, -1, 1)))

    def test_negative_degree_never(self, triangle_doubled):
        assert not is_class_effective(Divisor(triangle_doubled, (-1, 0, 0)))

    def test_requires_plain_graph(self, weight_loop_mix):
        with pytest.raises(RequiresWeightlessLoopless):
            is_class_effective(Divisor(weight_loop_mix, (1, 0)))


class TestRankWorkedExamples:
    def test_rank_jump_source(self, triangle_doubled):
        g = triangle_doubled
        assert rank_weightless(Divisor(g, (-2, 3, -1))).value == 0
        assert rank_weightless(Divisor(g, (1, -1, 1))).value == -1
        assert rank_weightless(Divisor(g, (1, -1, 2))).value == 0

    def test_rank_jump_target(self, triangle_doubled):
        target = triangle_doubled.contract({3}).target
        assert rank_weightless(Divisor(target, (-2, 2))).value == -1
        assert rank_weightless(Divisor(target, (1, 0))).value == 0
        assert rank_weightless(Divisor(target, (1, 1))).value == 1

    def test_binary_table(self, binary2):
        table = {
            (0, 0): 0, (1, -1): -1, (2, -2): -1,
            (0, 1): 0, (1, 0): 0, (2, -1): -1,
            (0, 2): 0, (1, 1): 1, (2, 0): 0,
        }
        for coeffs, expected in table.items():
            assert rank(binary2, Divisor(binary2, coeffs)).value == expected

    def test_binary_family_unit(self):
        for g in range(2, 7):
            b = binary(g)
            assert rank(b, Divisor(b, (1, 1))).value == 1

    def test_mixed_graph_point(self, weight_loop_mix):
        assert rank(weight_loop_mix, Divisor(weight_loop_mix, (1, 0))).value == 0

    def test_two_weight_one_classes(self, two_weight_one):
        g = two_weight_one
        assert rank(g, Divisor(g, (0, 1))).value == 0
        assert rank(g, Divisor(g, (0, 2))).value == 1

    def test_single_vertex_law(self):
        for g in range(0, 7):
            for h in range(0, g + 1):
                graph = single_vertex(h, loops=g - h)
                for d in range(-2, 15):
                    expected = -1 if d < 0 else (d - g if d >= 2 * g - 1 else d // 2)
                    assert rank(graph, Divisor(graph, (d,))).value == expected

    def test_plain_graph_agrees_with_weightless(self, triangle_doubled):
        g = triangle_doubled
        for coeffs in product(range(-2, 3), repeat=3):
            d = Divisor(g, coeffs)
            assert rank(g, d).value == rank_weightless(d).value


class TestRankAgainstDefinition:
    def test_small_exhaustive(self):
        graphs = [
            cycle(3),
            binary(2),
            Graph(["a", "b"], [("a", "b")]),
            Graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c"), ("a", "b")]),
        ]
        for g in graphs:
            for coeffs in product(range(-2, 3), repeat=g.vertex_count):
                if not -1 <= sum(coeffs) <= 3:
                    continue
                d = Divisor(g, coeffs)
                assert rank_weightless(d).value == rank_by_definition(g, d)

    def test_weighted_through_model(self, weight_loop_mix):
        g = weight_loop_mix
        model = g.loopless_model()
        for coeffs in product(range(-2, 3), repeat=2):
            if not -1 <= sum(coeffs) <= 3:
                continue
            emb = Divisor(model.model, model.embed_coeffs(coeffs))
            assert rank(g, Divisor(g, coeffs)).value == rank_by_definition(
                model.model, emb
            )


class TestRankProperties:
    """Seeded properties on graphs past the 4-vertex verify corpus."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(st.data())
    def test_engine_equals_definition(self, data):
        g = data.draw(weighted_multigraphs(max_model=8))
        model = g.loopless_model()
        for _ in range(3):
            d = divisors_of_degree(data.draw, g, -1, 2)
            emb = Divisor(model.model, model.embed_coeffs(d.coeffs))
            assert rank(g, d).value == rank_by_definition(model.model, emb)

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_riemann_roch(self, data):
        g = data.draw(weighted_multigraphs())
        genus = g.genus()
        k = canonical_divisor(g)
        for _ in range(4):
            d = divisors_of_degree(data.draw, g, -1, 2 * genus)
            assert rank(g, d).value - rank(g, k - d).value == d.degree - genus + 1

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_invariant_under_firing(self, data):
        g = data.draw(weighted_multigraphs())
        d = divisors_of_degree(data.draw, g, 0, g.genus() + 1)
        v = data.draw(st.sampled_from(g.vertex_ids))
        assert rank(g, d + firing_divisor(g, v)).value == rank(g, d).value


class TestWitness:
    def test_witness_defeats_the_divisor(self, binary2):
        d = Divisor(binary2, (1, 1))
        result = rank(binary2, d, with_witness=True)
        assert result.value == 1
        assert result.witness.degree == 2
        assert result.witness.is_effective()
        assert not is_class_effective(d - result.witness)

    def test_witness_is_lexicographically_least(self, binary2):
        result = rank(binary2, Divisor(binary2, (1, 1)), with_witness=True)
        assert result.witness.coeffs == (0, 2)

    def test_rank_minus_one_witness_is_zero_divisor(self, triangle_doubled):
        result = rank_weightless(
            Divisor(triangle_doubled, (1, -1, 1)), with_witness=True
        )
        assert result.value == -1
        assert result.witness.coeffs == (0, 0, 0)

    def test_without_flag_no_witness(self, binary2):
        assert rank(binary2, Divisor(binary2, (1, 1))).witness is None


class TestRankGuards:
    def test_degree_cap(self, binary2):
        with pytest.raises(DegreeCapExceeded):
            rank(binary2, Divisor(binary2, (40, 0)))
        assert rank(binary2, Divisor(binary2, (40, 0)), max_degree=50).value == 38

    def test_deep_search_runs_on_a_shallow_stack(self):
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 50)
        try:
            g = cycle(3)
            assert rank(g, Divisor(g, (2000, 0, 0)), max_degree=2000).value == 1999
        finally:
            sys.setrecursionlimit(limit)

    def test_reduction_budget(self, monkeypatch):
        monkeypatch.setattr(sys.modules["divgraph.rank"], "MAX_REDUCED_COEFFS", 120)
        g = cycle(3)  # 40 burns of 3 coefficients each
        with pytest.raises(DegreeCapExceeded, match="past 120 reduced coefficients"):
            rank(g, Divisor(g, (100, 0, 0)), max_degree=100)
        # the memo kept only completed states, and each call has its own budget
        assert rank(g, Divisor(g, (5, 0, 0))).value == 4

    def test_burns_one_per_new_class(self, monkeypatch):
        # counts are equal run to run, so burns that come back fail here
        # even where timing noise would hide them; keyed by raw tuple
        # alone, this sweep burnt 345,495 times
        rank_module = sys.modules["divgraph.rank"]
        burn, burns = rank_module.reduce_coeffs, []
        monkeypatch.setattr(rank_module, "reduce_coeffs",
                            lambda *args: burns.append(None) or burn(*args))
        items = list(enumerate(connected_multigraphs(3, 5, 2)))
        rec = verify.SUITES["riemann_roch"](items, {})
        assert (rec.checked, rec.violations) == (95_122, 0)
        assert len(burns) == 77_885

    def test_lattice_waits_for_n_squared_reductions(self, monkeypatch):
        rank_module = sys.modules["divgraph.rank"]
        burn, lattice, events = rank_module.reduce_coeffs, rank_module.principal_lattice, []
        monkeypatch.setattr(rank_module, "reduce_coeffs",
                            lambda *args: events.append("burn") or burn(*args))
        monkeypatch.setattr(rank_module, "principal_lattice",
                            lambda g: events.append("lattice") or lattice(g))
        g = cycle(4)
        assert rank(g, Divisor(g, (1, 0, 0, 0))).value == 0
        assert "lattice" not in events
        assert rank(g, Divisor(g, (12, 0, 0, 0))).value == 11
        assert events[:events.index("lattice")].count("burn") == 16

    def test_graph_mismatch(self, binary2, triangle_doubled):
        with pytest.raises(GraphMismatch):
            rank(binary2, Divisor(triangle_doubled, (0, 0, 0)))

    def test_weightless_guard(self, weight_loop_mix):
        with pytest.raises(RequiresWeightlessLoopless):
            rank_weightless(Divisor(weight_loop_mix, (1, 0)))


class TestRiemannRoch:
    def test_binary_unit(self, binary2):
        assert riemann_roch_check(binary2, Divisor(binary2, (1, 1)))

    def test_canonical_class(self, triangle_doubled):
        g = triangle_doubled
        k = canonical_divisor(g)
        assert rank(g, k).value == g.genus() - 1
        assert riemann_roch_check(g, k)

    def test_residual_of_negative_rank(self, triangle_doubled):
        # forced by the identity: rank(1,-1,1) = -1, degree 1, genus 2
        g = triangle_doubled
        assert riemann_roch_check(g, Divisor(g, (1, -1, 1)))
        assert rank(g, Divisor(g, (0, 2, -1))).value == -1

    def test_weighted_graphs(self, weight_loop_mix, two_weight_one):
        for g in (weight_loop_mix, two_weight_one):
            for coeffs in product(range(-2, 3), repeat=2):
                if -2 <= sum(coeffs) <= 2 * g.genus():
                    assert riemann_roch_check(g, Divisor(g, coeffs))


class TestClifford:
    def test_binary_unit(self, binary2):
        assert clifford_check(binary2, Divisor(binary2, (1, 1)))

    def test_single_vertex_middle(self):
        g = single_vertex(4)
        assert clifford_check(g, Divisor(g, (4,)))
        assert rank(g, Divisor(g, (4,))).value == 2

    def test_degree_out_of_range(self, binary2):
        with pytest.raises(DegreeOutOfRange):
            clifford_check(binary2, Divisor(binary2, (2, 1)))
        with pytest.raises(DegreeOutOfRange):
            clifford_check(binary2, Divisor(binary2, (-1, 0)))


class TestCutCertificate:
    def test_worked_example(self, triangle_doubled):
        g = triangle_doubled
        d = Divisor(g, (1, -1, 1))
        assert certify_rank_below(g, d, "v2", 0)
        assert rank(g, d).value <= -1

    def test_cycle_difference_classes(self):
        for n in range(3, 7):
            g = cycle(n)
            coeffs = [0] * n
            coeffs[1], coeffs[n - 1] = 1, -1
            d = Divisor(g, coeffs)
            assert certify_rank_below(g, d, f"v{n}", 0)
            assert rank(g, d).value == -1

    def test_effective_divisor_fails_hypotheses(self, triangle_doubled):
        g = triangle_doubled
        assert not certify_rank_below(g, Divisor(g, (1, 1, 0)), "v2", 0)

    def test_implication_on_box(self, triangle_doubled):
        g = triangle_doubled
        for coeffs in product(range(-2, 3), repeat=3):
            d = Divisor(g, coeffs)
            for v in g.vertex_ids:
                for r in range(3):
                    if certify_rank_below(g, d, v, r):
                        assert rank(g, d).value <= r - 1

    def test_negative_r_rejected(self, triangle_doubled):
        with pytest.raises(DegreeOutOfRange):
            certify_rank_below(
                triangle_doubled, Divisor.zero(triangle_doubled), "v1", -1
            )


class TestDegreeZero:
    def test_principal(self, triangle_doubled):
        g = triangle_doubled
        assert (
            degree_zero_classification(g, Divisor(g, (-2, 3, -1)))
            is DegreeZeroClass.PRINCIPAL_RANK0
        )
        assert (
            degree_zero_classification(g, Divisor.zero(g))
            is DegreeZeroClass.PRINCIPAL_RANK0
        )

    def test_nonprincipal(self, binary2):
        assert (
            degree_zero_classification(binary2, Divisor(binary2, (1, -1)))
            is DegreeZeroClass.NONPRINCIPAL_RANKNEG
        )

    def test_matches_rank(self, binary2):
        for coeffs in product(range(-3, 4), repeat=2):
            if sum(coeffs) != 0:
                continue
            d = Divisor(binary2, coeffs)
            expected = (
                0
                if degree_zero_classification(binary2, d)
                is DegreeZeroClass.PRINCIPAL_RANK0
                else -1
            )
            assert rank(binary2, d).value == expected

    def test_rejects_nonzero_degree(self, binary2):
        with pytest.raises(DegreeNotZero):
            degree_zero_classification(binary2, Divisor(binary2, (1, 0)))
