"""Divisors and integer-valued functions on a fixed graph.

A divisor is an integer vector in graph vertex order; a rational function
assigns an integer to every vertex and its divisor collects the discrete
orders of vanishing computed through the intersection pairing. Both types
are bound to their Graph instance: mixing graphs raises GraphMismatch
rather than silently re-indexing.
"""

from .errors import GraphMismatch
from .graphs import Graph


class Divisor:
    """Integer coefficients in vertex order on a fixed graph."""

    __slots__ = ("graph", "coeffs")

    def __init__(self, graph: Graph, coeffs):
        coeffs = tuple(coeffs)
        if len(coeffs) != graph.vertex_count:
            raise GraphMismatch(
                f"expected {graph.vertex_count} coefficients, got {len(coeffs)}"
            )
        if not all(isinstance(c, int) and not isinstance(c, bool) for c in coeffs):
            raise GraphMismatch("divisor coefficients must be integers")
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Divisor is immutable")

    @classmethod
    def zero(cls, graph):
        return cls(graph, (0,) * graph.vertex_count)

    @property
    def degree(self):
        return sum(self.coeffs)

    def __getitem__(self, v):
        return self.coeffs[self.graph.index(v)]

    def restrict(self, zs):
        """Sum of the coefficients over a vertex subset."""
        return sum(self.coeffs[i] for i in self.graph.indices(zs))

    def is_effective(self):
        return all(c >= 0 for c in self.coeffs)

    def _check_same_graph(self, other):
        if self.graph != other.graph:
            raise GraphMismatch("divisors live on different graphs")

    def __add__(self, other):
        self._check_same_graph(other)
        return Divisor(self.graph, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check_same_graph(other)
        return Divisor(self.graph, tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Divisor(self.graph, tuple(-a for a in self.coeffs))

    def __mul__(self, k):
        if not isinstance(k, int):
            return NotImplemented
        return Divisor(self.graph, tuple(k * a for a in self.coeffs))

    __rmul__ = __mul__

    def __eq__(self, other):
        if not isinstance(other, Divisor):
            return NotImplemented
        return self.graph == other.graph and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.graph, self.coeffs))

    def __repr__(self):
        return f"Divisor{self.coeffs}"


class RationalFunction:
    """Integer-valued function on the vertices of a graph.

    Values are not normalised; adding a constant does not change the
    divisor, so normalisation belongs to callers.
    """

    __slots__ = ("graph", "values")

    def __init__(self, graph: Graph, values):
        values = tuple(values)
        if len(values) != graph.vertex_count:
            raise GraphMismatch(
                f"expected {graph.vertex_count} values, got {len(values)}"
            )
        object.__setattr__(self, "graph", graph)
        object.__setattr__(self, "values", values)

    def __setattr__(self, name, value):
        raise AttributeError("RationalFunction is immutable")

    def __getitem__(self, v):
        return self.values[self.graph.index(v)]

    def order_at(self, v):
        """Order of vanishing at v: the weighted sum of the drops of the
        function across the edges at v. Loops contribute nothing."""
        return self.divisor()[v]

    def divisor(self):
        """The principal divisor of this function (degree is always 0)."""
        g = self.graph
        vals = self.values
        coeffs = []
        for i, nbrs in enumerate(g.neighbors):
            fv = vals[i]
            coeffs.append(sum(m * (fv - vals[j]) for j, m in nbrs))
        return Divisor(g, coeffs)

    def __add__(self, other):
        if self.graph != other.graph:
            raise GraphMismatch("functions live on different graphs")
        return RationalFunction(
            self.graph, tuple(a + b for a, b in zip(self.values, other.values))
        )

    def __neg__(self):
        return RationalFunction(self.graph, tuple(-a for a in self.values))

    def __repr__(self):
        return f"RationalFunction{self.values}"


def principal_divisor(f: RationalFunction) -> Divisor:
    return f.divisor()


def firing_divisor(graph: Graph, v) -> Divisor:
    """The chip-firing move of vertex v as a principal divisor.

    Firing v sends one chip along every non-loop edge at v; the resulting
    change vector is the divisor of the function that is -1 at v and 0
    elsewhere. The moves of all vertices sum to zero and any all-but-one
    of them generate the full principal lattice.
    """
    i = graph.index(v)
    coeffs = [0] * graph.vertex_count
    for j, m in graph.neighbors[i]:
        coeffs[j] = m
    coeffs[i] = -graph.degrees[i]
    return Divisor(graph, coeffs)


def canonical_divisor(graph: Graph) -> Divisor:
    """The divisor assigning 2*weight(v) - 2 + valency(v) to each vertex;
    its degree is 2*genus - 2."""
    coeffs = [
        2 * graph.weights[i] - 2 + graph.valency(v)
        for i, v in enumerate(graph.vertex_ids)
    ]
    return Divisor(graph, coeffs)
