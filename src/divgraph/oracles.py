"""Independent brute-force oracles for cross-checking the fast paths.

Each of these deliberately avoids the machinery it is used to validate:
spanning trees are counted by enumerating edge subsets rather than by a
Smith elimination, equivalence and class effectivity test membership in
the lattice of firing moves rather than reducing, the rank oracle walks
the raw definition, firing components explore actual chip-firing
moves inside a bounded coefficient box, and semibalance is tested bound
by bound in Fractions, not through the balance context's subset table.

The lattice is not wholly independent of the fast paths: its residues
also key the rank engine's memo by class, in place of a burn per input.
The tests that compare residues with q-reduced forms, and the firing
components that read neither, are the independent cross-check there.
"""

from itertools import combinations, product

from .divisors import Divisor, firing_divisor
from .graphs import DisjointSets, Graph
from .intmat import compositions
from .picard import principal_lattice
from .transforms import balance_bound


def spanning_tree_count(graph: Graph) -> int:
    """Number of spanning trees by direct enumeration of edge subsets."""
    return _count_trees(graph, None)


def spanning_trees_avoiding(graph: Graph, e: int) -> int:
    """Spanning trees that do not use edge e, by direct enumeration."""
    return _count_trees(graph, e)


def _count_trees(graph, avoided):
    """Spanning trees among the non-loop edges other than ``avoided``:
    the (n-1)-subsets that never close a cycle."""
    n = graph.vertex_count
    pairs = graph.edge_pairs
    usable = [pairs[k] for k, (i, j) in enumerate(pairs) if i != j and k != avoided]
    count = 0
    for subset in combinations(usable, n - 1):
        sets = DisjointSets(n)
        if all(sets.union(i, j) for i, j in subset):
            count += 1
    return count


def class_effective_brute(graph: Graph, coeffs) -> bool:
    """True iff some effective divisor of the same degree is equivalent,
    found by enumerating all of them and testing lattice membership."""
    degree = sum(coeffs)
    if degree < 0:
        return False
    lattice = principal_lattice(graph)
    n = graph.vertex_count
    for e in compositions(degree, n):
        diff = tuple(a - b for a, b in zip(e, coeffs))
        if diff in lattice:
            return True
    return False


def rank_by_definition(graph: Graph, divisor: Divisor) -> int:
    """Rank straight from the definition: increase k until some effective
    test divisor of degree k defeats every equivalent representative.
    Exponential; intended for small graphs and small degrees only."""
    coeffs = divisor.coeffs
    n = graph.vertex_count
    if not class_effective_brute(graph, coeffs):
        return -1
    k = 1
    while True:
        for e in compositions(k, n):
            rem = tuple(a - b for a, b in zip(coeffs, e))
            if not class_effective_brute(graph, rem):
                return k - 1
        k += 1


class FiringComponents:
    """Connected components of the chip-firing move graph on the set of
    divisors with all coefficients in [-bound, bound].

    Moves are single-vertex firings in both directions (an unfiring is
    someone else's firing, so undirected union-find captures the full
    equivalence generated inside the box). Two divisors in the same
    component are certainly linearly equivalent; the converse may need a
    larger box, which callers escalate.
    """

    def __init__(self, graph: Graph, bound: int):
        self.graph = graph
        self.bound = bound
        n = graph.vertex_count
        radix = 2 * bound + 1
        self._radix = radix
        sets = DisjointSets(radix**n)
        union = sets.union

        moves = [firing_divisor(graph, v).coeffs for v in graph.vertex_ids]

        for idx, coeffs in enumerate(product(range(-bound, bound + 1), repeat=n)):
            for delta in moves:
                target_idx = 0
                ok = True
                for c, dlt in zip(coeffs, delta):
                    t = c + dlt
                    if t < -bound or t > bound:
                        ok = False
                        break
                    target_idx = target_idx * radix + (t + bound)
                if ok:
                    union(idx, target_idx)
        self._find = sets.find

    def root(self, coeffs):
        idx = 0
        b = self.bound
        radix = self._radix
        for c in coeffs:
            if c < -b or c > b:
                raise ValueError("coefficients outside the component box")
            idx = idx * radix + (c + b)
        return self._find(idx)


def equivalent_by_lattice(d1: Divisor, d2: Divisor) -> bool:
    """Linear equivalence as membership of d1 - d2 in the lattice of firing moves."""
    diff = tuple(a - b for a, b in zip(d1.coeffs, d2.coeffs))
    return diff in principal_lattice(d1.graph)


def equivalent_by_firing(graph: Graph, c1, c2, bound: int) -> bool:
    """Bounded chip-firing reachability between two coefficient tuples."""
    components = FiringComponents(graph, bound)
    return components.root(c1) == components.root(c2)


def is_semibalanced_by_bounds(graph: Graph, divisor: Divisor) -> bool:
    """Semibalance from the definition: d(Z) >= ``balance_bound`` on every
    nonempty proper vertex set Z, and d(v) >= 0 at every weight-0 valency-2
    vertex."""
    ids = graph.vertex_ids
    return all(
        divisor.restrict(zs) >= balance_bound(graph, divisor.degree, zs)
        for size in range(1, len(ids))
        for zs in combinations(ids, size)
    ) and all(
        divisor[v] >= 0
        for w, v in zip(graph.weights, ids)
        if w == 0 and graph.valency(v) == 2
    )
