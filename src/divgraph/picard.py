"""Linear equivalence, canonical representatives and Picard group structure.

None of this depends on loops or weights: the firing moves only see the
edges between distinct vertices, so the machinery is total on every valid
Graph (callers that need the weightless loopless model build it first).

The canonical representative of a class is its q-reduced divisor: it is
nonnegative away from q and no subset of V - {q} can fire without going
negative, which Dhar's burning test certifies. q-reduction runs in two
stages: a sweep over BFS layers that set-fires balls around q until every
vertex away from q is nonnegative, then the burning loop that fires the
unburnt set (with a multi-fire shortcut) until everything burns. Both
stages move chips only through ``Graph.fire``. A second canonical member of
the class, found in integer steps with no burn but not q-reduced, is the
residue modulo the principal lattice, which is kept in Hermite normal form.
"""

from dataclasses import dataclass
from itertools import chain

from .divisors import Divisor, firing_divisor
from .errors import EnumerationCapExceeded, GraphMismatch
from .graphs import Graph
from .intmat import IntegerLattice

CLASS_CAP = 10**6  # most classes enumerate_classes lists by default
MAX_REDUCED_COEFFS = 2_000_000  # coefficients one search may burn, n per burn


def reduce_coeffs(graph: Graph, coeffs, q: int):
    """q-reduced form of a coefficient tuple; q is a vertex index."""
    n = graph.vertex_count
    d = list(coeffs)

    # stage 1: make d nonnegative away from q, outermost layer first.
    # Firing the ball of radius k-1 moves chips only from layer k-1 to
    # layer k, so later sweeps never disturb the layers already fixed;
    # each firing gives v its inward edge count.
    layers, inward = graph.bfs_layers(q)
    for k in range(len(layers) - 1, 0, -1):
        t = 0
        for v in layers[k]:
            if d[v] < 0:
                t = max(t, (inward[v] - d[v] - 1) // inward[v])
        if t:
            graph.fire(d, chain.from_iterable(layers[:k]), t)

    # stage 2: Dhar's burning loop with multi-fire of the unburnt set.
    # heat[v] is an unburnt v's cut degree and at most d[v], so t >= 1.
    nbrs = graph.neighbors
    while True:
        burnt, heat = _burn(nbrs, d, q)
        unburnt = [v for v in range(n) if not burnt[v]]
        if not unburnt:
            return tuple(d)
        t = min(d[v] // heat[v] for v in unburnt if heat[v])
        graph.fire(d, unburnt, t)


def _burn(nbrs, d, q):
    """Dhar's burning test of the configuration d (a list) from q.

    Returns the burnt flags and, per vertex, the number of edges joining
    it to the burnt region. Every vertex burns iff no subset of V - {q}
    can fire without sending some vertex negative.
    """
    burnt = [False] * len(d)
    burnt[q] = True
    heat = [0] * len(d)
    stack = [q]
    while stack:
        b = stack.pop()
        for v, m in nbrs[b]:
            if not burnt[v]:
                heat[v] += m
                if heat[v] > d[v]:
                    burnt[v] = True
                    stack.append(v)
    return burnt, heat


@dataclass(frozen=True)
class ReducedDivisor:
    """The unique q-reduced representative of a divisor class."""

    base: Divisor
    basepoint: object

    @property
    def coeffs(self):
        return self.base.coeffs


def q_reduce(divisor: Divisor, q) -> ReducedDivisor:
    """The unique q-reduced divisor linearly equivalent to ``divisor``."""
    g = divisor.graph
    qi = g.index(q)
    reduced = reduce_coeffs(g, divisor.coeffs, qi)
    return ReducedDivisor(Divisor(g, reduced), q)


def principal_lattice(graph: Graph) -> IntegerLattice:
    """The lattice of principal divisors, spanned by the firing moves."""
    return graph.memo("principal_lattice", _firing_lattice)


def _firing_lattice(graph):
    lattice = IntegerLattice(graph.vertex_count)
    for v in graph.vertex_ids:
        lattice.add(firing_divisor(graph, v).coeffs)
    return lattice


def is_equivalent(d1: Divisor, d2: Divisor) -> bool:
    """True iff the divisors differ by a principal divisor, that is, iff
    they have the same reduced form at the first vertex."""
    if d1.graph != d2.graph:
        raise GraphMismatch("divisors live on different graphs")
    if d1.degree != d2.degree:
        return False
    return reduce_coeffs(d1.graph, d1.coeffs, 0) == reduce_coeffs(d1.graph, d2.coeffs, 0)


@dataclass(frozen=True)
class PicardStructure:
    """Cyclic decomposition of the degree-zero Picard group."""

    graph: Graph
    invariant_factors: tuple
    order: int


def picard_structure(graph: Graph) -> PicardStructure:
    """Invariant factors of Pic^0, read from the graph's memoised Smith
    diagonal; the group order is the number of spanning trees."""
    factors = tuple(d for d in graph.invariant_factors() if d > 1)
    return PicardStructure(graph, factors, graph.complexity())


def superstable_configs(graph: Graph, q: int):
    """All q-superstable configurations (coefficients on V - {q}), i.e.
    the vectors fixed by the burning test; exactly one per divisor class.
    Returned in lexicographic order of the full coefficient vector with
    0 at q.

    Superstables are closed under lowering any coefficient, so the search
    runs like an odometer that raises the last vertex first: once a raised
    value fails to burn with zeros after it, so do all larger values and
    all their completions, and the search resets it and raises the vertex
    before. Every burn is on a superstable plus one chip, and each costs n
    of the MAX_REDUCED_COEFFS budget; past it EnumerationCapExceeded is
    raised.
    """
    n = graph.vertex_count
    others = [v for v in range(n) if v != q]
    nbrs = graph.neighbors
    deg = graph.degrees
    config = [0] * n
    found = [tuple(config)]
    burnt = 0  # coefficients burnt so far
    # invariant: config is superstable and zero on others[k + 1:]
    k = len(others) - 1
    while k >= 0:
        v = others[k]
        config[v] += 1
        if config[v] < deg[v]:
            burnt += n
            if burnt > MAX_REDUCED_COEFFS:
                raise EnumerationCapExceeded(
                    f"class search past {MAX_REDUCED_COEFFS} burnt coefficients")
            if all(_burn(nbrs, config, q)[0]):
                found.append(tuple(config))
                k = len(others) - 1
                continue
        config[v] = 0
        k -= 1
    return found


def enumerate_classes(graph: Graph, degree: int, cap: int = CLASS_CAP):
    """One q-reduced representative per divisor class of the given degree,
    with q the first vertex, in lexicographic order."""
    count = graph.complexity()
    if count > cap:
        raise EnumerationCapExceeded(f"{count} classes exceed the cap of {cap}")
    # a superstable is 0 at q = 0, where the class's remaining degree goes
    reps = sorted((degree - sum(c),) + c[1:] for c in superstable_configs(graph, 0))
    return [Divisor(graph, c) for c in reps]
