from collections import Counter
from pathlib import Path

import pytest
from hypothesis import strategies as st

import divgraph
from divgraph import Divisor, Graph

SRC = str(Path(divgraph.__file__).resolve().parents[1])  # the tree this divgraph came from


@pytest.fixture
def triangle_doubled():
    """Three weightless vertices; a doubled edge v1-v2 plus the path
    v1-v3-v2. Contracting the v2-v3 edge (index 3) yields the 3-edge
    binary graph; ranks jump both ways across that contraction."""
    return Graph(
        ["v1", "v2", "v3"],
        [("v1", "v2"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")],
    )


@pytest.fixture
def binary2():
    """Two weightless vertices joined by three parallel edges (genus 2)."""
    return Graph(["v1", "v2"], [("v1", "v2")] * 3)


@pytest.fixture
def weight_loop_mix():
    """A weight-1 vertex joined to a weight-0 vertex carrying a loop;
    genus 2, and the loopless model is a 4-vertex chain of doubled edges
    around a bridge."""
    return Graph([("v", 1), ("w", 0)], [("v", "w"), ("w", "w")])


@pytest.fixture
def two_weight_one():
    """Two weight-1 vertices joined by a single bridge; genus 2."""
    return Graph([("v1", 1), ("v2", 1)], [("v1", "v2")])


def cycle(n):
    ids = [f"v{i + 1}" for i in range(n)]
    return Graph(ids, [(ids[i], ids[(i + 1) % n]) for i in range(n)])


def binary(g):
    return Graph(["v1", "v2"], [("v1", "v2")] * (g + 1))


def single_vertex(weight, loops=0):
    return Graph([("v", weight)], [("v", "v")] * loops)


@st.composite
def weighted_multigraphs(draw, max_model=None):
    """Connected multigraphs on 5-7 vertices: a random spanning tree, up to
    two more edges, and weight units and loops dealt to the vertices
    (at most ``max_model`` vertices in the loopless model if given)."""
    n = draw(st.integers(5, 7))
    ids = [f"v{i}" for i in range(n)]
    edges = [(ids[draw(st.integers(0, i - 1))], ids[i]) for i in range(1, n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += [(ids[a], ids[b]) for a, b in draw(st.lists(pair, max_size=2)) if a != b]
    extra = 3 if max_model is None else max_model - n
    units = draw(st.lists(st.tuples(st.integers(0, n - 1), st.booleans()),
                          max_size=extra))
    edges += [(ids[v], ids[v]) for v, is_loop in units if is_loop]
    weights = Counter(v for v, is_loop in units if not is_loop)
    return Graph([(v, weights[i]) for i, v in enumerate(ids)], edges)


def divisors_of_degree(draw, g, low, high):
    degree = draw(st.integers(low, high))
    coeffs = draw(st.lists(st.integers(-2, 3), min_size=g.vertex_count - 1,
                           max_size=g.vertex_count - 1))
    return Divisor(g, (*coeffs, degree - sum(coeffs)))
