import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from divgraph import (
    Divisor,
    Graph,
    enumerate_classes,
    firing_divisor,
    is_equivalent,
    picard_structure,
    q_reduce,
)
from divgraph.corpus import connected_multigraphs
from divgraph.errors import EnumerationCapExceeded, GraphMismatch
from divgraph import intmat, picard
from divgraph.intmat import IntegerLattice, smith_normal_form
from divgraph.oracles import equivalent_by_firing, equivalent_by_lattice, spanning_tree_count
from divgraph.picard import principal_lattice, reduce_coeffs, superstable_configs

from conftest import cycle, single_vertex, weighted_multigraphs


@st.composite
def path_plus_edges(draw, low, high):
    """A path on ``low``-``high`` vertices plus up to as many random edges
    (loops and parallel edges allowed), the shape of sparse CLI inputs."""
    n = draw(st.integers(low, high))
    ids = [f"v{i}" for i in range(n)]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                          max_size=n))
    return Graph(ids, list(zip(ids, ids[1:])) + [(ids[a], ids[b]) for a, b in pairs])


def reduced_laplacian(g):
    """The Laplacian of g with the first vertex's row and column deleted,
    built from the edge list (loops ignored)."""
    n = g.vertex_count
    lap = [[0] * n for _ in range(n)]
    for a, b in g.edges:
        i, j = g.index(a), g.index(b)
        if i != j:
            lap[i][j] -= 1
            lap[j][i] -= 1
            lap[i][i] += 1
            lap[j][j] += 1
    return [row[1:] for row in lap[1:]]


def sparse(rows):
    """Dense rows as the (sparse rows, column count) arguments of smith_normal_form."""
    return [{j: a for j, a in enumerate(r) if a} for r in rows], len(rows[0]) if rows else 0


class TestQReduce:
    def test_cycle_example(self):
        # brute-force firing search over the class confirms this target
        g = cycle(3)
        d = Divisor(g, (0, 2, 0))
        red = q_reduce(d, "v1")
        assert red.coeffs == (1, 0, 1)
        assert equivalent_by_firing(g, (0, 2, 0), (1, 0, 1), bound=5)

    def test_already_reduced_fixed(self):
        g = cycle(3)
        d = Divisor(g, (1, 0, 1))
        assert q_reduce(d, "v1").coeffs == (1, 0, 1)

    def test_worked_zero_class(self, triangle_doubled):
        d = Divisor(triangle_doubled, (-2, 3, -1))
        assert q_reduce(d, "v1").coeffs == (0, 0, 0)

    def test_nonnegative_away_from_basepoint(self, triangle_doubled):
        g = triangle_doubled
        for coeffs in product(range(-3, 4), repeat=3):
            red = q_reduce(Divisor(g, coeffs), "v2")
            assert all(
                c >= 0 for v, c in zip(g.vertex_ids, red.coeffs) if v != "v2"
            )

    def test_idempotent_and_class_invariant(self, triangle_doubled):
        g = triangle_doubled
        for coeffs in product(range(-2, 3), repeat=3):
            d = Divisor(g, coeffs)
            red = q_reduce(d, "v1")
            assert q_reduce(red.base, "v1").base == red.base
            for v in g.vertex_ids:
                assert q_reduce(d + firing_divisor(g, v), "v1").base == red.base

    def test_large_coefficients(self):
        g = cycle(4)
        d = Divisor(g, (250, -97, 44, -150))
        red = q_reduce(d, "v1")
        assert is_equivalent(d, red.base)
        assert all(c >= 0 for c in red.coeffs[1:])

    def test_loops_and_weights_invisible(self):
        plain = Graph(["a", "b"], [("a", "b"), ("a", "b")])
        noisy = Graph([("a", 1), ("b", 0)], [("a", "b"), ("a", "b"), ("b", "b")])
        for coeffs in product(range(-3, 4), repeat=2):
            r1 = q_reduce(Divisor(plain, coeffs), "a").coeffs
            r2 = q_reduce(Divisor(noisy, coeffs), "a").coeffs
            assert r1 == r2


class TestReductionProperties:
    """Seeded properties on graphs past the 4-vertex verify corpus and on
    their loopless models, whose BFS layers run deeper."""

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(st.data())
    def test_idempotent_and_invariant_under_firing(self, data):
        g = data.draw(weighted_multigraphs())
        for graph in (g, g.loopless_model().model):
            n = graph.vertex_count
            coeffs = data.draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
            q = data.draw(st.integers(0, n - 1))
            red = reduce_coeffs(graph, coeffs, q)
            assert reduce_coeffs(graph, red, q) == red
            for v in graph.vertex_ids:
                move = firing_divisor(graph, v).coeffs
                for sign in (1, -1):
                    moved = [a + sign * b for a, b in zip(coeffs, move)]
                    assert reduce_coeffs(graph, moved, q) == red

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(weighted_multigraphs())
    def test_order_is_the_number_of_spanning_trees(self, g):
        for graph in (g, g.loopless_model().model):
            order = picard_structure(graph).order
            assert order == graph.complexity() == spanning_tree_count(graph)


class TestEquivalence:
    def test_worked_example(self, triangle_doubled):
        g = triangle_doubled
        assert is_equivalent(Divisor(g, (-2, 3, -1)), Divisor.zero(g))

    def test_cycle_unit_classes_distinct(self):
        g = cycle(3)
        assert not is_equivalent(Divisor(g, (1, 0, 0)), Divisor(g, (0, 1, 0)))

    def test_reflexive(self, binary2):
        d = Divisor(binary2, (2, -2))
        assert is_equivalent(d, d)

    def test_different_degrees_never_equivalent(self, binary2):
        assert not is_equivalent(Divisor(binary2, (1, 0)), Divisor(binary2, (1, 1)))

    def test_graph_mismatch(self, binary2, triangle_doubled):
        with pytest.raises(GraphMismatch):
            is_equivalent(Divisor(binary2, (0, 0)), Divisor(triangle_doubled, (0, 0, 0)))

    def test_three_way_agreement_small(self):
        # lattice test == reduced-form comparison == firing reachability
        g = cycle(3)
        divisors = [c for c in product(range(-2, 3), repeat=3) if sum(c) == 0]
        for c1 in divisors:
            for c2 in divisors:
                by_lattice = equivalent_by_lattice(Divisor(g, c1), Divisor(g, c2))
                by_reduce = (
                    q_reduce(Divisor(g, c1), "v1").coeffs
                    == q_reduce(Divisor(g, c2), "v1").coeffs
                )
                by_firing = equivalent_by_firing(g, c1, c2, bound=6)
                assert by_lattice == by_reduce == by_firing

    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(st.data())
    def test_reduction_agrees_with_the_lattice(self, data):
        g = data.draw(path_plus_edges(5, 20))
        n = g.vertex_count
        c1 = data.draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
        times = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        c2 = list(c1)
        for v, t in zip(g.vertex_ids, times):
            g.fire(c2, [g.index(v)], t)
        if data.draw(st.booleans()):  # move one chip: usually another class
            i, j = data.draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
            c2[i] += 1
            c2[j] -= 1
        d1, d2 = Divisor(g, c1), Divisor(g, c2)
        assert is_equivalent(d1, d2) == equivalent_by_lattice(d1, d2)
        assert is_equivalent(d1, Divisor(g, c1[::-1])) == equivalent_by_lattice(
            d1, Divisor(g, c1[::-1]))

    def test_equivalence_relation_axioms(self, binary2):
        g = binary2
        ds = [Divisor(g, c) for c in product(range(-2, 3), repeat=2) if sum(c) == 1]
        for a in ds:
            assert is_equivalent(a, a)
            for b in ds:
                assert is_equivalent(a, b) == is_equivalent(b, a)
                for c in ds:
                    if is_equivalent(a, b) and is_equivalent(b, c):
                        assert is_equivalent(a, c)


def assert_keys_match_reductions(graph, vectors):
    """Equal lattice residues exactly when the reduced forms at the first
    vertex are equal: each determines the other on these vectors."""
    lattice = principal_lattice(graph)
    red_of_key, key_of_red = {}, {}
    for c in vectors:
        key, red = lattice.residue(c), reduce_coeffs(graph, c, 0)
        assert red_of_key.setdefault(key, red) == red
        assert key_of_red.setdefault(red, key) == key


def translates(graph, rng, vectors):
    """Each vector moved by a seeded combination of firing moves."""
    moves = [firing_divisor(graph, v).coeffs for v in graph.vertex_ids]
    out = []
    for c in vectors:
        c = list(c)
        for move in moves:
            t = rng.randint(-2, 2)
            c = [a + t * b for a, b in zip(c, move)]
        out.append(c)
    return out


class TestClassKeys:
    """The rank engine keys classes by lattice residue in place of a burn;
    these tests cross-check the keys against q-reduction."""

    def test_keys_match_reductions_on_the_corpus_models(self):
        rng = random.Random(1)
        models = {}
        for g in connected_multigraphs(4, 6, 2):
            m = g.loopless_model().model
            models.setdefault((m.vertex_count, m.neighbors), m)
        for m in models.values():
            box = [[rng.randint(-4, 4) for _ in range(m.vertex_count)] for _ in range(16)]
            assert_keys_match_reductions(m, box + translates(m, rng, box))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(st.data())
    def test_keys_match_reductions_on_weighted_graphs(self, data):
        g = data.draw(weighted_multigraphs())
        for graph in (g, g.loopless_model().model):
            n = graph.vertex_count
            box = data.draw(st.lists(st.lists(st.integers(-4, 4), min_size=n, max_size=n),
                                     min_size=2, max_size=12))
            rng = random.Random(data.draw(st.integers(0, 2**16)))
            assert_keys_match_reductions(graph, box + translates(graph, rng, box))

    def test_residue_is_a_coset_representative(self):
        lattice = IntegerLattice(3)
        for vec in [(4, 6, 0), (0, 10, 4), (6, 0, -2)]:
            lattice.add(vec)
        v = (7, -3, 5)
        r = lattice.residue(v)
        assert tuple(a - b for a, b in zip(v, r)) in lattice
        assert all(0 <= r[j] < row[j] for j, row in lattice.basis.items())
        assert lattice.residue(r) == r
        assert (1, 0, 0) not in lattice and (2, 12, 2) in lattice  # 2 (4, 6, 0) - (6, 0, -2)


def sparse_graph(n):
    """A path on n vertices plus n random edges (seed 1), as in the CLI's
    cost-bound documents."""
    rng = random.Random(1)
    ids = [f"v{i}" for i in range(n)]
    pairs = [(i, i + 1) for i in range(n - 1)]
    pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(n)]
    return Graph(ids, [(ids[i], ids[j]) for i, j in pairs])


class TestHermiteForm:
    """The principal lattice of sparse graphs past the corpus: before the
    basis was kept in Hermite form its entries reached thousands of bits
    at 30 vertices and hundreds of thousands at 60."""

    @pytest.mark.parametrize("n", [30, 60])
    def test_normalised_and_bounded_by_the_tree_count(self, n):
        g = sparse_graph(n)
        basis = principal_lattice(g).basis
        assert len(basis) == n - 1
        for j, row in basis.items():
            assert row[j] > 0
            assert not any(row[:j])
            for k in basis:
                if k > j:
                    assert 0 <= row[k] < basis[k][k]
        bits = g.complexity().bit_length()
        assert max(abs(a).bit_length() for row in basis.values() for a in row) <= bits

    @pytest.mark.parametrize("n", [30, 60])
    def test_membership_agrees_with_reduction(self, n):
        g = sparse_graph(n)
        rng = random.Random(n)
        box = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(20)]
        for c1, c2 in zip(box, translates(g, rng, box) + box[1:]):
            d1, d2 = Divisor(g, c1), Divisor(g, c2)
            assert equivalent_by_lattice(d1, d2) == is_equivalent(d1, d2)
        for c1, c2 in zip(box, box[1:]):  # one chip moved: usually another class
            c2 = c1[:1] + [c1[1] + 1] + c1[2:]
            c2[0] -= 1
            d1, d2 = Divisor(g, c1), Divisor(g, c2)
            assert equivalent_by_lattice(d1, d2) == is_equivalent(d1, d2)


class TestPicardStructure:
    def test_binary3(self, binary2):
        s = picard_structure(binary2)
        assert s.invariant_factors == (3,)
        assert s.order == 3

    def test_chain_of_doubled_edges(self, weight_loop_mix):
        model = weight_loop_mix.loopless_model().model
        s = picard_structure(model)
        assert s.invariant_factors == (2, 2)
        assert s.order == 4

    def test_tree(self):
        g = Graph(["a", "b", "c"], [("a", "b"), ("b", "c")])
        s = picard_structure(g)
        assert s.invariant_factors == ()
        assert s.order == 1

    def test_single_vertex(self):
        s = picard_structure(single_vertex(2, loops=1))
        assert s.invariant_factors == ()
        assert s.order == 1

    def test_order_equals_tree_count(self, triangle_doubled):
        s = picard_structure(triangle_doubled)
        assert s.order == triangle_doubled.complexity()
        assert s.order == spanning_tree_count(triangle_doubled)

    def test_cycles(self):
        for n in range(3, 7):
            s = picard_structure(cycle(n))
            assert s.invariant_factors == (n,)
            assert s.order == n


def _sympy_invariant_factors(rows):
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    return [abs(int(d)) for d in invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)]


class TestSmithNormalForm:
    def test_empty_zero_and_divisibility_chain(self):
        assert smith_normal_form(*sparse([])) == []
        assert smith_normal_form(*sparse([[]])) == []
        assert smith_normal_form(*sparse([[0, 0, 0], [0, 0, 0]])) == [0, 0]
        assert smith_normal_form(*sparse([[2, 4], [6, 8]])) == [2, 4]
        assert smith_normal_form(*sparse([[6, 0], [0, 4]])) == [2, 12]
        assert smith_normal_form(*sparse([[-3]])) == [3]

    def test_random_matrices_match_sympy(self):
        rng = random.Random(20261019)
        for trial in range(400):
            nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)
            zeros = 1.0 if trial % 40 == 0 else 0.3
            rows = [[0 if rng.random() < zeros else rng.randint(-9, 9) for _ in range(ncols)]
                    for _ in range(nrows)]
            assert smith_normal_form(*sparse(rows)) == _sympy_invariant_factors(rows), rows

    def test_reduced_laplacians_match_sympy(self):
        for g in connected_multigraphs(3, 5, 2):
            _assert_matches_sympy(g)

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(path_plus_edges(20, 60))
    def test_sparse_graphs_match_sympy(self, g):
        _assert_matches_sympy(g)

    def test_cycles(self):
        for n in (3, 10, 100, 800, 3200):
            g = cycle(n)
            assert picard_structure(g).invariant_factors == (n,)
            assert g.complexity() == n

    def test_complete_graphs(self):
        for n in range(2, 61):
            ids = list(range(n))
            g = Graph(ids, [(a, b) for a in ids for b in ids if a < b])
            assert picard_structure(g).invariant_factors == (n,) * (n - 2)
            assert g.complexity() == n ** (n - 2)

    @settings(derandomize=True, database=None, deadline=None, max_examples=50)
    @given(st.lists(st.integers(0, 10**6), min_size=1, max_size=300))
    def test_trees_are_trivial(self, parents):
        # vertex k + 1 hangs from an earlier vertex, so this is a tree
        edges = [(p % (k + 1), k + 1) for k, p in enumerate(parents)]
        g = Graph(range(len(parents) + 1), edges)
        assert set(g.invariant_factors()) == {1}
        assert picard_structure(g).invariant_factors == ()
        assert g.complexity() == 1

    def test_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(intmat, "MAX_ELIMINATION_ENTRIES", 100)
        with pytest.raises(EnumerationCapExceeded, match="past 100 matrix entries"):
            picard_structure(cycle(40))
        assert picard_structure(cycle(5)).order == 5


def _assert_matches_sympy(g):
    """The graph's invariant factors and tree count against sympy's Smith
    form and determinant of a reduced Laplacian built from the edges."""
    rows = reduced_laplacian(g)
    if not rows:
        assert g.invariant_factors() == () and g.complexity() == 1
        return
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix

    size = (len(rows), len(rows))
    det = DomainMatrix([[sympy.ZZ(a) for a in r] for r in rows], size, sympy.ZZ).det()
    assert list(g.invariant_factors()) == _sympy_invariant_factors(rows), g.edges
    assert g.complexity() == int(det)


class TestEnumerateClasses:
    def test_cycle_degree_one(self):
        g = cycle(3)
        reps = enumerate_classes(g, 1)
        assert [d.coeffs for d in reps] == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
        # the textbook list of representatives hits the same classes
        listed = [Divisor(g, (1, 0, 0)), Divisor(g, (0, 1, 0)), Divisor(g, (0, 0, 1))]
        for target in listed:
            assert sum(is_equivalent(target, r) for r in reps) == 1

    def test_binary_degree_zero(self, binary2):
        reps = enumerate_classes(binary2, 0)
        assert len(reps) == 3
        for target_coeffs in ((0, 0), (1, -1), (2, -2)):
            target = Divisor(binary2, target_coeffs)
            assert sum(is_equivalent(target, r) for r in reps) == 1

    def test_tree_single_class(self):
        g = Graph(["a", "b"], [("a", "b")])
        for degree in (-3, 0, 4):
            reps = enumerate_classes(g, degree)
            assert len(reps) == 1
            assert reps[0].degree == degree

    def test_count_independent_of_degree(self, triangle_doubled):
        counts = {len(enumerate_classes(triangle_doubled, d)) for d in (-2, 0, 1, 5)}
        assert counts == {triangle_doubled.complexity()}

    def test_pairwise_inequivalent(self, triangle_doubled):
        reps = enumerate_classes(triangle_doubled, 2)
        for i in range(len(reps)):
            for j in range(i + 1, len(reps)):
                assert not is_equivalent(reps[i], reps[j])

    def test_reps_are_reduced(self, triangle_doubled):
        for rep in enumerate_classes(triangle_doubled, 1):
            assert q_reduce(rep, "v1").base == rep

    def test_cap(self, binary2):
        with pytest.raises(EnumerationCapExceeded):
            enumerate_classes(binary2, 0, cap=2)

    def test_forty_cycle(self):
        # 2^39 configurations lie below the valency bound; 40 are superstable
        g = cycle(40)
        reps = enumerate_classes(g, 1)
        assert len(reps) == 40
        for rep in reps:
            assert q_reduce(rep, "v1").base == rep


class TestSuperstables:
    def test_match_the_fixed_points_of_reduction(self):
        # brute force over the box below the valency bound: a configuration
        # is superstable iff q-reduction leaves it unchanged
        for g in connected_multigraphs(4, 5, 0)[::3]:
            n = g.vertex_count
            for q in range(n):
                box = [range(g.degrees[v]) if v != q else (0,) for v in range(n)]
                fixed = [c for c in product(*box) if reduce_coeffs(g, c, q) == c]
                assert superstable_configs(g, q) == fixed

    def test_burn_budget(self, monkeypatch):
        # the 40-cycle's search burns 780 times, 40 coefficients each
        monkeypatch.setattr(picard, "MAX_REDUCED_COEFFS", 40 * 779)
        with pytest.raises(EnumerationCapExceeded, match="past 31160 burnt coefficients"):
            superstable_configs(cycle(40), 0)
        monkeypatch.setattr(picard, "MAX_REDUCED_COEFFS", 40 * 780)
        assert len(superstable_configs(cycle(40), 0)) == 40

    def test_long_path_needs_no_recursion(self):
        # deeper than the interpreter's default recursion limit
        ids = [f"v{i}" for i in range(1100)]
        path = Graph(ids, list(zip(ids, ids[1:])))
        assert superstable_configs(path, 0) == [(0,) * 1100]
