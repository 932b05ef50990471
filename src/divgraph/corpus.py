"""Exhaustive enumeration of small connected multigraphs, up to isomorphism.

The property suites quantify over every connected vertex-weighted
multigraph within the caps. Since all tested properties are invariant
under relabelling, graphs are enumerated one per isomorphism class: a
candidate (weights, edge multiplicities) survives iff it is the
lexicographic minimum of its orbit under vertex permutations. The result
is deterministic and ordered, so counterexample reports are stable.
"""

from functools import lru_cache
from itertools import permutations

from .graphs import DisjointSets, Graph
from .intmat import bounded_vectors


def _pair_types(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _connected(n, pairs, counts):
    sets = DisjointSets(n)
    merges = sum(sets.union(i, j) for (i, j), c in zip(pairs, counts) if c and i != j)
    return merges == n - 1


@lru_cache(maxsize=None)
def connected_multigraphs(max_vertices=4, max_edges=6, max_total_weight=0):
    """Connected weighted multigraphs (loops allowed) with at most the given
    vertex, edge, and total-weight budgets, one representative per
    isomorphism class, in a fixed deterministic order."""
    graphs = []
    for n in range(1, max_vertices + 1):
        pairs = _pair_types(n)
        pair_index = {p: k for k, p in enumerate(pairs)}
        actions = []
        for perm in permutations(range(n)):
            action = tuple(
                pair_index[tuple(sorted((perm[i], perm[j])))] for (i, j) in pairs
            )
            actions.append((perm, action))
        weight_vectors = list(bounded_vectors(n, max_total_weight))
        for counts in bounded_vectors(len(pairs), max_edges):
            if not _connected(n, pairs, counts):
                continue
            for weights in weight_vectors:
                canonical = True
                for perm, action in actions:
                    permuted_w = tuple(weights[perm[i]] for i in range(n))
                    permuted_c = tuple(counts[action[k]] for k in range(len(pairs)))
                    if (permuted_w, permuted_c) < (weights, counts):
                        canonical = False
                        break
                if not canonical:
                    continue
                graphs.append(_build(n, weights, pairs, counts))
    return tuple(graphs)


def _build(n, weights, pairs, counts):
    ids = [f"v{i + 1}" for i in range(n)]
    vertices = list(zip(ids, weights))
    edges = []
    for (i, j), c in zip(pairs, counts):
        edges.extend([(ids[i], ids[j])] * c)
    return Graph(vertices, edges)


def weightless(graphs):
    return tuple(g for g in graphs if not any(g.weights))

