"""Exhaustive enumeration of small connected multigraphs, up to isomorphism.

The property suites quantify over every connected vertex-weighted
multigraph within the caps. Since all tested properties are invariant
under relabelling, graphs are enumerated one per isomorphism class: a
candidate (weights, edge multiplicities) survives iff it is the
lexicographic minimum of its orbit under vertex permutations. The result
is deterministic and ordered, so counterexample reports are stable.
"""

from itertools import accumulate, permutations
from math import comb

from .errors import EnumerationCapExceeded
from .graphs import DisjointSets, Graph
from .intmat import bounded_vectors

MAX_CANDIDATES = 2_000_000  # (7, 6, 0) has 1.70 M and enumerates in under 20 s


def _pair_types(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _connected(n, pairs, counts):
    sets = DisjointSets(n)
    merges = sum(sets.union(i, j) for (i, j), c in zip(pairs, counts) if c and i != j)
    return merges == n - 1


def check_enumeration_caps(max_vertices, max_edges, max_total_weight):
    """Refuse caps past MAX_CANDIDATES candidates (edge multiplicities on n(n+1)/2
    vertex pairs times weight vectors), then return the vertex counts worth
    enumerating: a connected graph on n vertices has at least n - 1 edges."""
    vertex_counts = range(1, min(max_vertices, max_edges + 1) + 1)
    sizes = (comb(max_edges + n * (n + 1) // 2, max_edges) * comb(max(max_total_weight + n, 0), n)
             for n in vertex_counts)
    if any(total > MAX_CANDIDATES for total in accumulate(sizes)):
        raise EnumerationCapExceeded(f"corpus caps {max_vertices}, {max_edges}, {max_total_weight}"
                                     f" give over {MAX_CANDIDATES:,} candidate graphs")
    return vertex_counts


def connected_multigraphs(max_vertices=4, max_edges=6, max_total_weight=0):
    """Connected weighted multigraphs (loops allowed) with at most the given
    vertex, edge, and total-weight budgets, one representative per
    isomorphism class, in a fixed deterministic order."""
    graphs = []
    for n in check_enumeration_caps(max_vertices, max_edges, max_total_weight):
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

