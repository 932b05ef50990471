"""Finite connected vertex-weighted multigraphs with loops.

A Graph is immutable after construction: the vertex order is fixed, every
operation is a pure function of the inputs, and derived structures
(the Laplacian's invariant factors, BFS layers, the loopless model) are
memoised internally. The non-loop adjacency is kept once, as sparse
neighbour lists, and no dense matrix is ever built from it. Other modules
read it through the public view (``neighbors``, ``degrees``,
``edge_pairs``, ``cut_size``), move chips across a cut with ``fire``, and
memoise their own per-graph data with ``Graph.memo``.

Conventions baked in here:
  * connectivity ignores loop edges (loops never disconnect anything);
  * genus(G) = |E| - |V| + 1 + sum of vertex weights;
  * the intersection pairing ignores loops entirely: (v.w) counts the
    edges joining two distinct vertices and (v.v) = -sum_{w != v} (v.w);
  * a loop adds 2 to the valency of its vertex, which is exactly what
    makes the canonical degree come out as 2*genus - 2.
"""

from collections import deque
from math import prod

from .errors import (
    DisconnectedGraph,
    EnumerationCapExceeded,
    LoopInContractionSet,
    NegativeWeight,
    UnknownEdge,
    UnknownVertexId,
)
from .intmat import smith_normal_form

MAX_SUBSET_VERTICES = 16  # the cut criterion and the balance inequality visit 2^n sets
MAX_MODEL_VERTICES = 100_000  # largest weightless loopless model loopless_model builds


def check_subset_sweep(graph):
    """Refuse a sweep over all vertex subsets of a graph past the cap."""
    if graph.vertex_count > MAX_SUBSET_VERTICES:
        raise EnumerationCapExceeded(f"{graph.vertex_count} vertices exceed the "
                                     f"subset-sweep cap of {MAX_SUBSET_VERTICES}")


def _as_weighted(vertices):
    out = []
    for item in vertices:
        if isinstance(item, tuple) and len(item) == 2:
            out.append((item[0], item[1]))
        else:
            out.append((item, 0))
    return out


class Graph:
    """Connected multigraph with nonnegative integer vertex weights.

    ``vertices`` is an ordered iterable of ids or (id, weight) pairs;
    ``edges`` is an iterable of (id, id) pairs, loops allowed as repeated
    ids. Edge identity is positional: edge k is the k-th pair given.
    """

    def __init__(self, vertices, edges=()):
        pairs = _as_weighted(vertices)
        if not pairs:
            raise DisconnectedGraph("a graph needs at least one vertex")
        ids = tuple(p[0] for p in pairs)
        if len(set(ids)) != len(ids):
            raise UnknownVertexId("duplicate vertex ids")
        weights = []
        for vid, w in pairs:
            if isinstance(w, bool) or not isinstance(w, int) or w < 0:
                raise NegativeWeight(f"weight of {vid!r} must be a nonnegative integer")
            weights.append(w)
        index = {vid: i for i, vid in enumerate(ids)}
        edge_list = []
        for a, b in edges:
            if a not in index:
                raise UnknownVertexId(f"edge endpoint {a!r} is not a vertex")
            if b not in index:
                raise UnknownVertexId(f"edge endpoint {b!r} is not a vertex")
            edge_list.append((a, b))

        self._ids = ids
        self._index = index
        self._weights = tuple(weights)
        self._edge_list = tuple(edge_list)
        self._edge_pairs = tuple(
            (min(index[a], index[b]), max(index[a], index[b])) for a, b in edge_list
        )
        loops = [0] * len(ids)
        nbrs = [{} for _ in ids]
        for i, j in self._edge_pairs:
            if i == j:
                loops[i] += 1
            else:
                nbrs[i][j] = nbrs[i].get(j, 0) + 1
                nbrs[j][i] = nbrs[j].get(i, 0) + 1
        self._loops = tuple(loops)
        self._neighbors = tuple(tuple(sorted(row.items())) for row in nbrs)
        self._degree = tuple(sum(row.values()) for row in nbrs)
        self._cache = {}
        self._check_connected()
        self._hash = hash((self._ids, self._weights, self._edge_list))

    def _check_connected(self):
        n = len(self._ids)
        seen = [False] * n
        seen[0] = True
        stack = [0]
        count = 1
        while stack:
            i = stack.pop()
            for j, _ in self._neighbors[i]:
                if not seen[j]:
                    seen[j] = True
                    count += 1
                    stack.append(j)
        if count != n:
            raise DisconnectedGraph("graph is not connected (ignoring loops)")

    # -- basic accessors -------------------------------------------------

    @property
    def vertex_ids(self):
        return self._ids

    @property
    def weights(self):
        return self._weights

    @property
    def edges(self):
        """Edge list exactly as given at construction (orientation kept)."""
        return self._edge_list

    @property
    def vertex_count(self):
        return len(self._ids)

    @property
    def edge_count(self):
        return len(self._edge_list)

    def index(self, v):
        try:
            return self._index[v]
        except KeyError:
            raise UnknownVertexId(f"{v!r} is not a vertex") from None

    def indices(self, vs):
        return frozenset(self.index(v) for v in vs)

    def weight(self, v):
        return self._weights[self.index(v)]

    def loop_count(self, v):
        return self._loops[self.index(v)]

    def __eq__(self, other):
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self._ids == other._ids
            and self._weights == other._weights
            and self._edge_list == other._edge_list
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return (
            f"Graph({self.vertex_count} vertices, {self.edge_count} edges, "
            f"genus {self.genus()})"
        )

    # -- numerical invariants ---------------------------------------------

    def genus(self):
        """First Betti number plus total vertex weight."""
        return len(self._edge_list) - len(self._ids) + 1 + sum(self._weights)

    def valency(self, v):
        """Non-loop edges at v plus twice the loops at v."""
        i = self.index(v)
        return self._degree[i] + 2 * self._loops[i]

    def is_weightless_loopless(self):
        return not any(self._weights) and not any(self._loops)

    def intersection(self, zs, ws):
        """Bilinear intersection pairing of two vertex sets.

        For disjoint sets this is the number of edges between them; the
        diagonal terms are (v.v) = -(non-loop degree of v).
        """
        zi = self.indices(zs)
        wi = self.indices(ws)
        nbrs, deg = self._neighbors, self._degree
        total = 0
        for i in zi:
            if i in wi:
                total -= deg[i]
            for j, m in nbrs[i]:
                if j in wi:
                    total += m
        return total

    def complexity(self):
        """Number of spanning trees (loops and weights are irrelevant): by
        the matrix-tree theorem, the product of ``invariant_factors()``."""
        return prod(self.invariant_factors())

    # -- read-only adjacency view, indexed by vertex position ---------------

    @property
    def neighbors(self):
        """Per vertex, its non-loop ``(neighbour index, multiplicity)`` pairs by index."""
        return self._neighbors

    @property
    def degrees(self):
        """Per vertex, the number of non-loop edges at it."""
        return self._degree

    @property
    def edge_pairs(self):
        """Per edge, its endpoint indices as ``(min, max)``; equal for a loop."""
        return self._edge_pairs

    def invariant_factors(self):
        """The Smith diagonal d_1 | d_2 | ... of the reduced Laplacian (the
        first vertex's row and column deleted), memoised: Pic^0 is the sum
        of the cyclic groups Z/d_i. No dense matrix is built."""
        return self.memo("invariant_factors", _invariant_factors)

    def cut_size(self, indices):
        """Number of non-loop edges with exactly one end in the index set."""
        inside = set(indices)
        nbrs = self._neighbors
        return sum(m for i in inside for j, m in nbrs[i] if j not in inside)

    def fire(self, coeffs, indices, times=1):
        """Fire the index set ``times`` times on the list ``coeffs``, in
        place: each non-loop edge leaving the set carries ``times`` chips
        out of it (a negative ``times`` moves chips in). The graph itself
        does not change."""
        inside = set(indices)
        nbrs = self._neighbors
        for i in inside:
            for j, m in nbrs[i]:
                if j not in inside:
                    coeffs[i] -= times * m
                    coeffs[j] += times * m

    def memo(self, key, build):
        """The value memoised on this graph under ``key``, made by
        ``build(graph)`` on first use. The graph is immutable, so the
        value stays valid for the graph's lifetime. The value holds plain
        data and never refers back to this graph, so a graph and its memos
        are freed by reference counting alone."""
        value = self._cache.get(key)
        if value is None:
            value = self._cache[key] = build(self)
        return value

    # -- structure --------------------------------------------------------

    def is_bridge(self, e):
        """True iff deleting edge e disconnects the graph. Loops never are."""
        if not 0 <= e < len(self._edge_list):
            raise UnknownEdge(f"edge index {e} out of range")
        i, j = self._edge_pairs[e]
        if i == j or self._edge_pairs.count((i, j)) > 1:  # a loop or a parallel edge
            return False
        # BFS from i avoiding the single i-j edge; bridge iff j unreached
        n = len(self._ids)
        seen = [False] * n
        seen[i] = True
        queue = deque([i])
        while queue:
            u = queue.popleft()
            for w, _ in self._neighbors[u]:
                if not seen[w] and not (u == i and w == j) and not (u == j and w == i):
                    seen[w] = True
                    queue.append(w)
        return not seen[j]

    def bfs_layers(self, q):
        """``(layers, inward)`` from the vertex index q, memoised: the vertex
        indices grouped by edge distance from q, and per vertex the number
        of edges joining it to the layer before its own (0 at q)."""
        return self.memo(("layers", q), lambda g: _bfs_layers(g, q))

    def contract(self, edge_subset):
        """Contract every edge in ``edge_subset`` (a set of edge indices).

        Fibers are the connected components of the spanning subgraph
        (V, S); a merged vertex keeps the id of the first fiber member and
        carries the summed weights plus the first Betti number of its
        fiber. Surviving edges keep their relative order; an edge whose
        endpoints land in the same fiber becomes a loop. Genus is
        preserved.
        """
        s = sorted(set(edge_subset))
        for e in s:
            if not 0 <= e < len(self._edge_list):
                raise UnknownEdge(f"edge index {e} out of range")
            i, j = self._edge_pairs[e]
            if i == j:
                raise LoopInContractionSet(f"edge {e} is a loop")
        n = len(self._ids)
        sets = DisjointSets(n)
        for e in s:
            sets.union(*self._edge_pairs[e])
        # each fiber is rooted at its first member, whose id it keeps
        fiber_of = [sets.find(i) for i in range(n)]
        # weight of a fiber: member weights plus its first Betti number,
        # internal edges - members + 1
        weight = dict.fromkeys(fiber_of, 1)
        for i in range(n):
            weight[fiber_of[i]] += self._weights[i] - 1
        for e in s:
            weight[fiber_of[self._edge_pairs[e][0]]] += 1
        new_vertices = [(self._ids[r], weight[r]) for r in sorted(weight)]

        s_set = set(s)
        vertex_map = {self._ids[i]: self._ids[fiber_of[i]] for i in range(n)}
        new_edges = []
        surviving = []
        for e, (a, b) in enumerate(self._edge_list):
            if e in s_set:
                continue
            new_edges.append((vertex_map[a], vertex_map[b]))
            surviving.append(e)
        target = Graph(new_vertices, new_edges)
        return ContractionMap(self, target, vertex_map, frozenset(s_set), tuple(surviving))

    def loopless_model(self):
        """The weightless loopless model: each weight unit becomes a loop,
        then every loop is subdivided by a fresh midpoint vertex.

        Original vertices come first in their own order (weights reset to
        0), followed by one midpoint per loop in (vertex, loop) order:
        the pre-existing loops of a vertex in edge order, then its weight
        loops. Genus is preserved; a graph that is already weightless and
        loopless is its own model (not memoised: it would refer to itself).
        A model past MAX_MODEL_VERTICES is refused before it is built.
        """
        if self.is_weightless_loopless():
            return LooplessModel(len(self._ids), self)
        return self.memo("loopless", Graph._build_loopless_model)

    def _build_loopless_model(self):
        size = len(self._ids) + sum(self._loops) + sum(self._weights)
        if size > MAX_MODEL_VERTICES:
            raise EnumerationCapExceeded(f"{size} model vertices exceed the cap of "
                                         f"{MAX_MODEL_VERTICES}")
        used = set(self._ids)
        new_vertices = [(v, 0) for v in self._ids]
        new_edges = [e for e in self._edge_list if self._index[e[0]] != self._index[e[1]]]
        for i, v in enumerate(self._ids):
            total_loops = self._loops[i] + self._weights[i]
            for k in range(total_loops):
                mid = f"{v}*{k}"
                while mid in used:
                    mid += "'"
                used.add(mid)
                new_vertices.append((mid, 0))
                new_edges.append((v, mid))
                new_edges.append((v, mid))
        return LooplessModel(len(self._ids), Graph(new_vertices, new_edges))


def _bfs_layers(graph, q):
    nbrs = graph.neighbors
    dist = [-1] * graph.vertex_count
    dist[q] = 0
    inward = [0] * graph.vertex_count
    layers = [(q,)]
    for k, layer in enumerate(layers, 1):  # grows while it is read
        found = []
        for u in layer:
            for w, m in nbrs[u]:
                if dist[w] < 0:
                    dist[w] = k
                    found.append(w)
                if dist[w] == k:
                    inward[w] += m
        if found:
            layers.append(tuple(found))
    return tuple(layers), tuple(inward)


def _invariant_factors(graph):
    deg, nbrs, n = graph.degrees, graph.neighbors, graph.vertex_count
    rows = [{j - 1: -m for j, m in nbrs[i] if j} | {i - 1: deg[i]} for i in range(1, n)]
    return tuple(smith_normal_form(rows, n - 1))


class DisjointSets:
    """Union-find over 0 .. size-1 with path halving. Every set is rooted
    at its smallest member, so ``find`` names a set by its first element."""

    __slots__ = ("parent",)

    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, x):
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, a, b):
        """Merge the sets of a and b; False if they were one set already."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if ra < rb:
            self.parent[rb] = ra
        else:
            self.parent[ra] = rb
        return True


class ContractionMap:
    """Result of contracting an edge set: target graph plus bookkeeping.

    ``vertex_map`` sends each source id to the id of its fiber;
    ``surviving_edges[k]`` is the source index of target edge k.
    """

    def __init__(self, source, target, vertex_map, contracted_edges, surviving_edges):
        self.source = source
        self.target = target
        self.vertex_map = vertex_map
        self.contracted_edges = contracted_edges
        self.surviving_edges = surviving_edges

    def is_single_edge(self):
        return len(self.contracted_edges) == 1

    def __repr__(self):
        return (
            f"ContractionMap({len(self.contracted_edges)} edges, "
            f"{self.source.vertex_count} -> {self.target.vertex_count} vertices)"
        )


class LooplessModel:
    """A graph's weightless loopless model. It keeps the zero padding for
    the midpoint vertices, never the source graph."""

    def __init__(self, source_vertex_count, model):
        self.model = model
        self.padding = model.vertex_count - source_vertex_count

    def embed_coeffs(self, coeffs):
        """Extend a coefficient vector by zeros on the midpoint vertices."""
        return tuple(coeffs) + (0,) * self.padding

    def __repr__(self):
        return f"LooplessModel({self.padding} midpoints -> {self.model!r})"
