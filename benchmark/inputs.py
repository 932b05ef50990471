"""Seeded input generators for the benchmark workloads.

Every generator takes the seed as an argument and is a pure function of
it, so one seed always yields the same inputs. The program under test
sees only what they produce: graphs from the verify corpus (keeping their
corpus index) and graph documents written to disk.
"""

import itertools
import json
import os
import random
from collections import defaultdict
from fractions import Fraction


def _search_distance(graph):
    """Cost covariate for sampling: the L1 norm of the rational firing
    vector that moves all chips of a degree-2g divisor from the first
    vertex to the balanced centre k(v) * 2g / (2g - 2), cubed, times the
    number of classes (spanning trees). The semibalanced box search
    enumerates multipliers by total size, so its cost grows about as the
    cube of that distance, once per class. Graphs that the ``semibalanced``
    suite skips (genus < 2 or not semistable) sort first with cost 0.

    Computed by exact elimination on the reduced Laplacian, read from the
    public adjacency (``edges``) so no library cache is touched.
    """
    n = graph.vertex_count
    genus = graph.genus()
    index = {v: i for i, v in enumerate(graph.vertex_ids)}
    lap = [[0] * n for _ in range(n)]
    valency = [0] * n
    for a, b in graph.edges:
        i, j = index[a], index[b]
        valency[i] += 1
        valency[j] += 1
        if i != j:
            lap[i][i] += 1
            lap[j][j] += 1
            lap[i][j] -= 1
            lap[j][i] -= 1
    semistable = genus >= 2 and all(
        w > 0 or valency[i] >= 2 for i, w in enumerate(graph.weights))
    if not semistable or n == 1:
        return (semistable, Fraction(0))
    canon = [2 * w - 2 + valency[i] for i, w in enumerate(graph.weights)]
    degree = 2 * genus
    # solve L' x = -(centre - start) on the vertices after the first
    rows = [[Fraction(lap[i][j]) for j in range(1, n)]
            + [-Fraction(canon[i] * degree, 2 * genus - 2)] for i in range(1, n)]
    m = n - 1
    trees = Fraction(1)
    for c in range(m):
        pivot = next(r for r in range(c, m) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        trees *= rows[c][c]
        for r in range(m):
            if r != c and rows[r][c]:
                f = rows[r][c] / rows[c][c]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[c])]
    distance = sum(abs(rows[i][m] / rows[i][i]) for i in range(m))
    return (semistable, distance ** 3 * abs(trees))


def _allocate(strata, fraction):
    """Per-stratum counts summing to ``fraction`` of all members, by
    largest remainder; the same for every seed."""
    keys = sorted(strata)
    total = round(fraction * sum(len(m) for m in strata.values()))
    quotas = {k: fraction * len(strata[k]) for k in keys}
    counts = {k: int(quotas[k]) for k in keys}
    spare = total - sum(counts.values())
    for k in sorted(keys, key=lambda k: (-(quotas[k] - counts[k]), k))[:spare]:
        counts[k] += 1
    return counts


def stratified_sample(graphs, fraction, seed):
    """Draw ``fraction`` of the corpus, stratified by (vertex count, edge
    count, total weight).

    Inside a stratum the members are ordered by ``_search_distance`` and
    drawn systematically from a seeded random start, so each draw spans
    the cost range of its stratum (the per-graph cost of the
    ``semibalanced`` suite varies by three orders of magnitude inside one
    stratum, and a plain random draw of a few percent swings with it).

    Returns ``[(corpus_index, graph), ...]`` in corpus order, so suite
    randomness (seeded by corpus index) and counterexample order match a
    full ``divgraph verify`` sweep over the same graphs.
    """
    strata = defaultdict(list)
    for gidx, g in enumerate(graphs):
        strata[(g.vertex_count, g.edge_count, sum(g.weights))].append(gidx)
    rng = random.Random(seed)
    chosen = []
    for k, count in sorted(_allocate(strata, fraction).items()):
        if not count:
            continue
        members = sorted(strata[k], key=lambda i: (_search_distance(graphs[i]), i))
        start = rng.random()
        step = len(members) / count
        chosen.extend(members[int((start + j) * step)] for j in range(count))
    return [(gidx, graphs[gidx]) for gidx in sorted(chosen)]


def _adjacency(graph):
    """The non-loop adjacency matrix, the key ``divgraph.verify`` dedupes
    on, built from the public edge list."""
    index = {v: i for i, v in enumerate(graph.vertex_ids)}
    n = len(index)
    adj = [[0] * n for _ in range(n)]
    for a, b in graph.edges:
        i, j = index[a], index[b]
        if i != j:
            adj[i][j] += 1
            adj[j][i] += 1
    return tuple(map(tuple, adj))


def support_sample(graphs, fraction, seed):
    """Draw ``fraction`` of the corpus's distinct non-loop adjacencies,
    stratified by (vertex count, non-loop edge count), and one seeded
    weighted or looped variant of each.

    The equivalence-level suites run once per adjacency (they dedupe on
    it), so their work is set by how many distinct adjacencies a sample
    holds; a graph-level sample lets that number swing with chance
    collisions between variants. Returns ``[(corpus_index, graph), ...]``
    in corpus order.
    """
    variants = defaultdict(list)
    for gidx, g in enumerate(graphs):
        variants[_adjacency(g)].append(gidx)
    strata = defaultdict(list)
    for adjacency, members in variants.items():
        g = graphs[members[0]]
        strata[(g.vertex_count, sum(map(sum, adjacency)) // 2)].append(adjacency)
    rng = random.Random(seed)
    chosen = []
    for k, count in sorted(_allocate(strata, fraction).items()):
        for adjacency in rng.sample(sorted(strata[k]), count):
            chosen.append(rng.choice(variants[adjacency]))
    return [(gidx, graphs[gidx]) for gidx in sorted(chosen)]


# -- graph documents and CLI commands for cli_queries ------------------------

# The query stream's commands, in equal shares: there is no record of real
# CLI traffic to weight them by, so no weighting is assumed.
COMMANDS = ("rank", "rr-check", "clifford", "reduce", "equiv", "pic", "balance",
            "semibalance-rep")


# (vertices, extra non-tree edges, loops, units of weight): every run
# deals the same multiset of shapes to each command, so the seed changes
# the wiring and divisors but not the mix of sizes and genera.
SHAPES = tuple((n, extra, loops, weight) for n in (5, 6, 7) for extra in (0, 1, 2)
               for loops in (0, 1, 2) for weight in (0, 1, 2))

# Each shape is dealt once per band of its command's degree range, so the
# costly high-genus, high-degree queries come in the same number for
# every seed; inside a band the degree is uniform.
DEGREE_BANDS = 4


def _degree(rng, low, high, band):
    return low + int((band + rng.random()) * (high - low + 1) / DEGREE_BANDS)


def _random_graph(rng, shape):
    """A connected document of the given shape: a random spanning tree,
    ``extra`` more (possibly parallel) edges, ``loops`` loops and
    ``weight`` units of vertex weight, all placed at random."""
    n, extra, loops, weight = shape
    ids = [f"v{i + 1}" for i in range(n)]
    edges = [[ids[i], ids[rng.randrange(i)]] for i in range(1, n)]
    for _ in range(extra):
        a, b = rng.sample(ids, 2)
        edges.append([a, b])
    for _ in range(loops):
        v = rng.choice(ids)
        edges.append([v, v])
    weights = [0] * n
    for _ in range(weight):
        weights[rng.randrange(n)] += 1
    rng.shuffle(edges)
    return {
        "vertices": [{"id": v, "weight": w} for v, w in zip(ids, weights)],
        "edges": edges,
    }


def _genus(doc):
    weight = sum(v["weight"] for v in doc["vertices"])
    return len(doc["edges"]) - len(doc["vertices"]) + 1 + weight


def _valencies(doc):
    """Valency of each vertex in document order; a loop counts twice."""
    valency = {v["id"]: 0 for v in doc["vertices"]}
    for a, b in doc["edges"]:
        valency[a] += 1
        valency[b] += 1
    return [valency[v["id"]] for v in doc["vertices"]]


def _semistable(doc):
    """Genus >= 2 and every weight-0 vertex has valency >= 2: the inputs
    ``balance`` and ``semibalance-rep`` accept."""
    return _genus(doc) >= 2 and all(
        v["weight"] > 0 or val >= 2 for v, val in zip(doc["vertices"], _valencies(doc)))


def _random_divisor(rng, n, degree):
    coeffs = [rng.randint(-2, 2) for _ in range(n)]
    coeffs[rng.randrange(n)] += degree - sum(coeffs)
    return coeffs


def _is_semibalanced(doc, coeffs):
    """d(Z) >= k(Z) * deg / (2g - 2) - |Z . Z^c| / 2 on every proper vertex
    subset Z, and d(v) >= 0 on weight-0 valency-2 vertices; decided from
    the document alone, with denominators cleared."""
    index = {v["id"]: i for i, v in enumerate(doc["vertices"])}
    valency = _valencies(doc)
    canon = [2 * v["weight"] - 2 + val for v, val in zip(doc["vertices"], valency)]
    m = 2 * _genus(doc) - 2
    degree = sum(coeffs)
    edges = [(index[a], index[b]) for a, b in doc["edges"] if a != b]
    n = len(coeffs)
    for mask in range(1, (1 << n) - 1):
        inside = [i for i in range(n) if mask >> i & 1]
        chips = sum(coeffs[i] for i in inside)
        k_z = sum(canon[i] for i in inside)
        cut = sum(1 for i, j in edges if (mask >> i & 1) != (mask >> j & 1))
        if 2 * m * chips < 2 * k_z * degree - m * cut:
            return False
    return all(c >= 0 for c, v, val in zip(coeffs, doc["vertices"], valency)
               if v["weight"] == 0 and val == 2)


def _near_semibalanced(rng, doc, degree, moves):
    """A semibalanced divisor of ``degree`` moved by ``moves`` random firing
    moves of vertices other than the first, or None if no draw near the
    balanced centre k(v) * degree / (2g - 2) is semibalanced.

    ``semibalance-rep``'s box search fixes the first vertex's multiplier
    and scans the others by total size, so its work here is bounded by
    ``moves``. From an arbitrary divisor it is not: near the centre of a
    7-vertex chain one search took 48 s. The corpus-wide search cost is
    the ``semibalance`` workload's job."""
    ids = [v["id"] for v in doc["vertices"]]
    canon = [2 * v["weight"] - 2 + val for v, val in zip(doc["vertices"], _valencies(doc))]
    two_g_minus_2 = 2 * _genus(doc) - 2
    for _ in range(50):
        coeffs = [k * degree // two_g_minus_2 for k in canon]
        for _ in range(degree - sum(coeffs)):
            coeffs[rng.randrange(len(ids))] += 1
        if rng.random() < 0.5:  # shift one chip, for variety
            coeffs[rng.randrange(len(ids))] -= 1
            coeffs[rng.randrange(len(ids))] += 1
        if _is_semibalanced(doc, coeffs):
            break
    else:
        return None
    for _ in range(moves):
        sign = rng.choice((1, -1))
        move = _firing_move(doc, rng.choice(ids[1:]))
        coeffs = [c + sign * m for c, m in zip(coeffs, move)]
    return coeffs


def _inline(coeffs):
    return "(" + ",".join(str(c) for c in coeffs) + ")"


def _firing_move(doc, v):
    ids = [x["id"] for x in doc["vertices"]]
    delta = dict.fromkeys(ids, 0)
    for a, b in doc["edges"]:
        if a != b and v in (a, b):
            delta[v] -= 1
            delta[b if a == v else a] += 1
    return [delta[x] for x in ids]


# Smallest genus each command accepts; balance and semibalance-rep also
# need a semistable graph, which some wirings of a shape are not.
MIN_GENUS = {"clifford": 1, "balance": 2, "semibalance-rep": 2}


def _fits(command, doc):
    if command in ("balance", "semibalance-rep"):
        return _semistable(doc)
    return _genus(doc) >= MIN_GENUS.get(command, 0)


def _query(rng, command, shapes):
    """One (document, argv tail, expectation) triple for ``command``, on
    the next (shape, degree band) from ``shapes`` whose shape admits a
    valid wiring.

    The argv tail follows the graph path; the expectation carries what
    the independent answer check needs beyond the document itself.
    """
    doc = start = None
    while doc is None:
        shape, band = next(shapes)
        for _ in range(200):
            candidate = _random_graph(rng, shape)
            if not _fits(command, candidate):
                continue
            if command in ("balance", "semibalance-rep"):
                genus = _genus(candidate)
                degree = _degree(rng, 2 * genus - 2, 2 * genus, band)
                moves = rng.randint(0, 1) if command == "balance" else rng.randint(1, 3)
                start = _near_semibalanced(rng, candidate, degree, moves)
                if start is None:
                    continue
            doc = candidate
            break
    genus = _genus(doc)
    n = len(doc["vertices"])
    ids = [v["id"] for v in doc["vertices"]]
    expect = {}
    if command in ("rank", "rr-check"):
        degree = _degree(rng, -1, 2 * genus, band)
        args = ["--divisor", _inline(_random_divisor(rng, n, degree))]
    elif command == "clifford":
        degree = _degree(rng, 0, 2 * genus - 2, band)
        args = ["--divisor", _inline(_random_divisor(rng, n, degree))]
    elif command == "reduce":
        degree = _degree(rng, -2, 2 * genus, band)
        args = ["--divisor", _inline(_random_divisor(rng, n, degree)),
                "--basepoint", rng.choice(ids)]
    elif command == "equiv":
        d1 = _random_divisor(rng, n, _degree(rng, -2, 2 * genus, band))
        if rng.random() < 0.5:
            d2 = list(d1)
            for v in rng.sample(ids, rng.randint(1, n - 1)):
                for _ in range(rng.randint(1, 2)):
                    d2 = [a + b for a, b in zip(d2, _firing_move(doc, v))]
            expect["equivalent"] = True
        else:
            d2 = _random_divisor(rng, n, sum(d1))
        args = ["--d1", _inline(d1), "--d2", _inline(d2)]
    elif command == "pic":
        args = []
    else:  # balance, semibalance-rep
        args = ["--divisor", _inline(start)]
    return doc, args, expect


def generate_queries(seed, count, directory):
    """Write ``count`` seeded graph documents under ``directory`` and
    return one query per document: ``{"command", "path", "argv",
    "expect"}`` with ``argv`` ready for ``divgraph.cli.main``.

    The commands take turns, so each gets an equal share of ``count``
    (to within one), in a seeded order; each deals the (shape, degree
    band) pairs its genus allows in a seeded round-robin order."""
    rng = random.Random(seed)
    commands = [COMMANDS[k % len(COMMANDS)] for k in range(count)]
    rng.shuffle(commands)
    shapes = {}
    for name in COMMANDS:
        eligible = [(s, band) for s in SHAPES if sum(s[1:]) >= MIN_GENUS.get(name, 0)
                    for band in range(DEGREE_BANDS)]
        rng.shuffle(eligible)
        shapes[name] = itertools.cycle(eligible)
    os.makedirs(directory, exist_ok=True)
    queries = []
    for k, command in enumerate(commands):
        doc, args, expect = _query(rng, command, shapes[command])
        path = os.path.join(directory, f"q{k:05d}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        queries.append({
            "command": command,
            "path": path,
            "argv": [command, path, *args, "--format", "json"],
            "expect": expect,
        })
    return queries
