"""Property suites over the exhaustive small-graph corpus.

Each suite sweeps every corpus graph (and a divisor box where relevant),
counts checks and violations, and keeps the first counterexample in the
deterministic corpus order. The suites back both the ``verify`` CLI
subcommand and the acceptance tests.

Two structural facts keep the sweeps honest while trimming repeated work:

  * linear equivalence, reduction, Picard structure, and principal
    divisors only read the non-loop adjacency of a graph, so suites that
    test exactly those properties run once per distinct adjacency
    ("support") rather than once per weighted variant;
  * rank and genus do depend on weights and loops, so the rank-level
    suites sweep the full corpus.

Only three sweep sizes vary per run, ``run_all``'s ``coeff_bound``,
``max_degree`` and ``random_functions``; the others are module constants.

Each suite runs as ``workers`` shards of corpus indices. Whole
adjacencies are dealt round-robin, so a suite that sweeps each adjacency
once sees it in one shard. Shard 0 runs in the calling process and shard i
in the i-th worker process, the same process for every suite of a run, so
the rank memos riemann_roch warms for a shard serve that shard's later
suites. Workers rebuild the corpus from its parameters (cached per
process), and the merged counterexample is the one with the smallest
corpus index, so results do not depend on the worker count.
"""

import json
import random
import time
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .corpus import connected_multigraphs
from .divisors import Divisor, RationalFunction, canonical_divisor, firing_divisor
from .intmat import IntegerLattice
from .io import document_of
from .oracles import (
    FiringComponents,
    is_semibalanced_by_bounds,
    rank_by_definition,
    spanning_tree_count,
    spanning_trees_avoiding,
)
from .picard import (
    enumerate_classes,
    is_equivalent,
    picard_structure,
    principal_lattice,
    q_reduce,
    reduce_coeffs,
)
from .rank import _RankEngine, certify_rank_below, rank
from .transforms import (
    balance_report,
    bridge_rank_preservation,
    find_semibalanced_representative,
    push_forward,
    verify_prin_pushforward,
)

SEED = 20260810
MAX_WORKERS = 32  # largest worker pool the verify command accepts

# Sweep sizes; run_all's coeff_bound and random_functions replace the first two.
COEFF_BOUND = 3  # divisor coefficients in [-3, 3]
RANDOM_FUNCTIONS = 1000  # random rational functions per adjacency
VALUE_BOUND = 6  # random function values in [-6, 6]
ADDITIVITY_SAMPLE = 60  # leading random functions also tested for additivity
SLACK = 3  # firing-component box beyond the coefficient box
MAX_BOUND = 12  # largest firing-component box an escalation reaches
REDUCTION_COEFF_BOUND = 2  # divisor box of the reduction suite
PAIRWISE_CAP = 30  # class representatives compared pairwise up to this order
INVARIANCE_SAMPLE = 30  # swept divisors moved by every firing move
KZ_SAMPLE = 20  # swept divisors tried against the cut certificate
REPS_CAP = 14  # effective classes paired by the superadditivity suite
PUSHFORWARD_DEGREE_BOUND = 4  # largest |degree| pushed across a bridge
BRIDGE_DIVISOR_SAMPLE = 40  # divisors pushed across each bridge
ORACLE_COEFF_BOUND = 2  # divisor box of the definitional rank oracle,
ORACLE_MAX_MODEL = 5  # its largest loopless model
ORACLE_MAX_DEGREE = 3  # and its largest degree


@dataclass
class SuiteResult:
    name: str
    checked: int
    violations: int
    counterexample: Optional[str] = None
    seconds: float = 0.0

    @property
    def passed(self):
        return self.violations == 0

    def line(self):
        status = "ok  " if self.passed else "FAIL"
        text = (
            f"{status} {self.name:<26} checked={self.checked}"
            f" violations={self.violations} ({self.seconds:.1f}s)"
        )
        if self.counterexample:
            text += f"\n     first counterexample: {self.counterexample}"
        return text


def _graph_blob(graph):
    return json.dumps(document_of(graph), separators=(",", ":"))


class _Recorder:
    """Accumulates checks/violations and the first counterexample, which
    names the corpus graph being swept (see ``each``)."""

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self.first = None  # (corpus index, description)
        self._gidx, self._graph = 0, None

    def each(self, items):
        """Yield the (corpus index, graph) pairs, making each in turn the
        subject of the checks."""
        for self._gidx, self._graph in items:
            yield self._gidx, self._graph

    def check(self, ok, describe):
        self.checked += 1
        if not ok:
            self.violations += 1
            if self.first is None:
                self.first = (self._gidx, f"{_graph_blob(self._graph)} {describe()}")


def _degree_window(graph, max_degree):
    """Divisor degrees swept by the rank-level suites: -2 .. 2g, optionally
    capped by the caller."""
    high = 2 * graph.genus()
    if max_degree is not None:
        high = min(high, max_degree)
    return -2, high


def _box(n, coeff_bound):
    return product(range(-coeff_bound, coeff_bound + 1), repeat=n)


def _dedupe_by_support(items):
    """The first graph of each non-loop adjacency: the equivalence-level
    suites read nothing else."""
    seen = set()
    for gidx, g in items:
        key = g.adjacency
        if key not in seen:
            seen.add(key)
            yield gidx, g


def _distinct_edges(graph):
    """The first edge between each pair of distinct vertices, by index:
    the single-edge contractions worth sweeping."""
    first = {}
    for e, (i, j) in enumerate(graph.edge_pairs):
        if i != j:
            first.setdefault((i, j), e)
    return first.values()


# --------------------------------------------------------------------------
# suite bodies; each takes [(corpus_index, graph), ...] plus a dict that may
# set the per-run sweep sizes "coeff_bound", "max_degree", "random_functions"


def _suite_graph_invariants(items, params):
    rec = _Recorder()
    for gidx, g in rec.each(items):
        model = g.loopless_model()
        rec.check(model.model.genus() == g.genus(), lambda: "model genus differs")
        rec.check(model.model.is_weightless_loopless(), lambda: "model keeps weights or loops")
        rec.check(model.model.loopless_model().model is model.model,
                  lambda: "model not idempotent")
        if g.is_weightless_loopless():
            rec.check(model.model is g, lambda: "plain graph is not its own model")
        k = canonical_divisor(g)
        rec.check(k.degree == 2 * g.genus() - 2, lambda: f"canonical degree {k.degree}")
        n = g.vertex_count
        ids = g.vertex_ids
        full = set(ids)
        rec.check(g.intersection(full, full) == 0, lambda: "(V.V) != 0")
        for mask in range(1, 1 << n):
            zs = {ids[i] for i in range(n) if mask >> i & 1}
            ok = g.intersection(zs, zs) == -g.intersection(zs, full - zs)
            rec.check(ok, lambda zs=zs: f"(Z.Z) identity fails for {sorted(zs)}")
    return rec


def _suite_contraction_complexity(items, params):
    rec = _Recorder()
    for gidx, g in rec.each(items):
        rec.check(g.complexity() == spanning_tree_count(g),
                  lambda: "determinant vs brute tree count")
        for e in _distinct_edges(g):
            cm = g.contract({e})
            rec.check(cm.target.genus() == g.genus(),
                      lambda e=e: f"contracting edge {e} changes genus")
            avoiding = spanning_trees_avoiding(g, e)
            rec.check(g.complexity() == cm.target.complexity() + avoiding,
                      lambda e=e: f"deletion/contraction count fails at edge {e}")
            if g.is_bridge(e):
                rec.check(avoiding == 0, lambda e=e: f"bridge {e} avoided by a tree")
            else:
                rec.check(cm.target.complexity() < g.complexity(),
                          lambda e=e: f"non-bridge {e} keeps complexity")
    return rec


def _suite_principal_divisors(items, params):
    functions = params.get("random_functions", RANDOM_FUNCTIONS)
    rec = _Recorder()
    for gidx, g in rec.each(_dedupe_by_support(items)):
        n = g.vertex_count
        ids = g.vertex_ids
        rng = random.Random(SEED + gidx)
        # firing moves are the divisors of negated indicators and sum to 0
        total = Divisor.zero(g)
        for v in ids:
            indicator = RationalFunction(g, tuple(-1 if u == v else 0 for u in ids))
            rec.check(indicator.divisor() == firing_divisor(g, v),
                      lambda v=v: f"firing move of {v} != div(-1_v)")
            total = total + firing_divisor(g, v)
        rec.check(total == Divisor.zero(g), lambda: "firing moves do not sum to zero")
        # any n-1 firing moves generate the whole principal lattice
        for skip in range(n):
            partial = IntegerLattice(n)
            for i, v in enumerate(ids):
                if i != skip:
                    partial.add(firing_divisor(g, v).coeffs)
            rec.check(firing_divisor(g, ids[skip]).coeffs in partial,
                      lambda skip=skip: f"moves without {ids[skip]} do not generate")
        expected_rank = n - 1 if n > 1 else 0
        rec.check(principal_lattice(g).rank == expected_rank, lambda: "principal lattice rank")
        # random functions: degree zero, additivity, minimum-set inequality
        for t in range(functions):
            values = tuple(rng.randint(-VALUE_BOUND, VALUE_BOUND) for _ in range(n))
            f = RationalFunction(g, values)
            div = f.divisor()
            rec.check(div.degree == 0, lambda values=values: f"div degree != 0 for f={values}")
            if len(set(values)) > 1:
                low = min(values)
                zs = {ids[i] for i in range(n) if values[i] == low}
                cut = g.intersection(zs, set(ids) - zs)
                ok = div.restrict(zs) <= -cut and all(div[v] <= 0 for v in zs)
                rec.check(ok,
                          lambda values=values: f"min-set inequality fails for f={values}")
            if t < ADDITIVITY_SAMPLE:
                values2 = tuple(rng.randint(-VALUE_BOUND, VALUE_BOUND) for _ in range(n))
                f2 = RationalFunction(g, values2)
                ok = (f + f2).divisor() == div + f2.divisor() and (-f).divisor() == -div
                rec.check(ok,
                          lambda values=values, values2=values2:
                          f"additivity fails for {values}, {values2}")
    return rec


def _suite_equivalence_oracles(items, params):
    coeff_bound = params.get("coeff_bound", COEFF_BOUND)
    rec = _Recorder()
    for gidx, g in rec.each(_dedupe_by_support(items)):
        n = g.vertex_count
        lattice = principal_lattice(g)
        by_degree = {}
        for coeffs in _box(n, coeff_bound):
            by_degree.setdefault(sum(coeffs), []).append(coeffs)
        components = FiringComponents(g, coeff_bound + SLACK)
        for degree in sorted(by_degree):
            canon = {}
            for coeffs in by_degree[degree]:
                canon.setdefault(reduce_coeffs(g, coeffs, 0), []).append(coeffs)
            # the firing components must match the canonical partition;
            # escalate the box when moves need more room to connect
            for red, members in sorted(canon.items()):
                roots = {components.root(c) for c in members}
                while len(roots) > 1 and components.bound < MAX_BOUND:
                    components = FiringComponents(g, components.bound + 3)
                    roots = {components.root(c) for c in members}
                rec.check(len(roots) == 1, lambda red=red: f"firing search splits class {red}")
                rep = members[0]
                for c in members[1:]:
                    diff = tuple(a - b for a, b in zip(c, rep))
                    rec.check(diff in lattice,
                              lambda c=c, rep=rep: f"lattice rejects {c} ~ {rep}")
            # distinct canonical forms must be inequivalent for all three
            # (component roots are compared through in-box members; the
            # reduced forms themselves may leave the box)
            reps = sorted(canon)
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    diff = tuple(x - y for x, y in zip(reps[a], reps[b]))
                    rec.check(diff not in lattice,
                              lambda a=a, b=b, reps=reps:
                              f"lattice merges {reps[a]} and {reps[b]}")
                    rec.check(
                        components.root(canon[reps[a]][0])
                        != components.root(canon[reps[b]][0]),
                        lambda a=a, b=b, reps=reps:
                        f"firing search merges {reps[a]} and {reps[b]}")
    return rec


def _suite_reduction(items, params):
    rec = _Recorder()
    for gidx, g in rec.each(_dedupe_by_support(items)):
        ids = g.vertex_ids
        q = ids[0]
        for coeffs in _box(g.vertex_count, REDUCTION_COEFF_BOUND):
            d = Divisor(g, coeffs)
            red = q_reduce(d, q)
            rec.check(q_reduce(red.base, q).base == red.base,
                      lambda coeffs=coeffs: f"reduce not idempotent at {coeffs}")
            rec.check(all(c >= 0 for i, c in enumerate(red.coeffs) if i != 0),
                      lambda coeffs=coeffs: f"reduce leaves negatives at {coeffs}")
            rec.check(is_equivalent(d, red.base),
                      lambda coeffs=coeffs: f"reduce leaves the class at {coeffs}")
            for v in ids:
                shifted = d + firing_divisor(g, v)
                rec.check(q_reduce(shifted, q).base == red.base,
                          lambda coeffs=coeffs, v=v:
                          f"reduce not class-invariant at {coeffs} + move({v})")
    return rec


def _suite_picard(items, params):
    rec = _Recorder()
    for gidx, g in rec.each(items):
        structure = picard_structure(g)
        trees = g.complexity()
        rec.check(structure.order == trees,
                  lambda: f"group order {structure.order} != complexity {trees}")
        rec.check(trees == spanning_tree_count(g), lambda: "complexity vs brute count")
        factors = structure.invariant_factors
        chain_ok = all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
        rec.check(chain_ok, lambda: "invariant factors not a divisibility chain")
        counts = set()
        for degree in (0, 1, 3):
            reps = enumerate_classes(g, degree)
            counts.add(len(reps))
            for d in reps:
                rec.check(d.degree == degree, lambda degree=degree: "wrong-degree class rep")
                rec.check(q_reduce(d, g.vertex_ids[0]).base == d,
                          lambda d=d: f"class rep {d.coeffs} not reduced")
            if trees <= PAIRWISE_CAP:
                for a in range(len(reps)):
                    for b in range(a + 1, len(reps)):
                        rec.check(not is_equivalent(reps[a], reps[b]),
                                  lambda a=a, b=b, reps=reps:
                                  f"reps {reps[a].coeffs} ~ {reps[b].coeffs}")
        rec.check(counts == {trees}, lambda: f"class count varies with degree: {counts}")
    return rec


def _suite_rank_properties(items, params):
    coeff_bound = params.get("coeff_bound", COEFF_BOUND)
    max_degree = params.get("max_degree")
    rec = _Recorder()
    for gidx, g in rec.each(items):
        genus = g.genus()
        n = g.vertex_count
        ids = g.vertex_ids
        lo, hi = _degree_window(g, max_degree)
        model = g.loopless_model()
        eng = _RankEngine(model.model)
        k = canonical_divisor(g)
        zero = Divisor.zero(g)
        swept = []
        for coeffs in _box(n, coeff_bound):
            degree = sum(coeffs)
            if not lo <= degree <= hi:
                continue
            swept.append(coeffs)
            value = eng.rank(model.embed_coeffs(coeffs))
            d = Divisor(g, coeffs)
            rec.check(value <= max(-1, degree),
                      lambda coeffs=coeffs, value=value:
                      f"rank {value} above degree bound at {coeffs}")
            if degree < 0:
                rec.check(value == -1,
                          lambda coeffs=coeffs: f"negative degree, rank != -1 at {coeffs}")
            if degree >= 2 * genus - 1:
                rec.check(value == degree - genus,
                          lambda coeffs=coeffs, value=value:
                          f"high-degree rank {value} != d - g at {coeffs}")
            if degree == 0:
                principal = is_equivalent(d, zero)
                rec.check(value == (0 if principal else -1),
                          lambda coeffs=coeffs, value=value:
                          f"degree-0 dichotomy fails at {coeffs}")
            if degree == 2 * genus - 2:
                ok = value <= genus - 1 and (value == genus - 1) == is_equivalent(d, k)
                rec.check(ok,
                          lambda coeffs=coeffs, value=value:
                          f"canonical-degree dichotomy fails at {coeffs}")
            if 0 <= degree <= 2 * genus - 2:
                rec.check(2 * value <= degree,
                          lambda coeffs=coeffs, value=value: f"Clifford fails at {coeffs}")
        # rank is constant on classes: translate by firing moves
        for coeffs in swept[:INVARIANCE_SAMPLE]:
            base = eng.rank(model.embed_coeffs(coeffs))
            for v in ids:
                shifted = tuple(a + b for a, b in zip(coeffs, firing_divisor(g, v).coeffs))
                rec.check(eng.rank(model.embed_coeffs(shifted)) == base,
                          lambda coeffs=coeffs, v=v: f"rank changes under move({v}) at {coeffs}")
        # the cut certificate implies the rank bound
        for coeffs in swept[:KZ_SAMPLE]:
            d = Divisor(g, coeffs)
            for v in ids:
                for r in range(3):
                    if certify_rank_below(g, d, v, r):
                        value = eng.rank(model.embed_coeffs(coeffs))
                        rec.check(value <= r - 1,
                                  lambda coeffs=coeffs, v=v, r=r, value=value:
                                  f"cut certificate ({v}, r={r}) "
                                  f"but rank {value} at {coeffs}")
    return rec


def _suite_riemann_roch(items, params):
    coeff_bound = params.get("coeff_bound", COEFF_BOUND)
    max_degree = params.get("max_degree")
    rec = _Recorder()
    for gidx, g in rec.each(items):
        genus = g.genus()
        lo, hi = _degree_window(g, max_degree)
        model = g.loopless_model()
        eng = _RankEngine(model.model)
        k_emb = model.embed_coeffs(canonical_divisor(g).coeffs)
        for coeffs in _box(g.vertex_count, coeff_bound):
            degree = sum(coeffs)
            if not lo <= degree <= hi:
                continue
            emb = model.embed_coeffs(coeffs)
            r_d = eng.rank(emb)
            r_res = eng.rank(tuple(a - b for a, b in zip(k_emb, emb)))
            rec.check(r_d - r_res == degree - genus + 1,
                      lambda coeffs=coeffs, r_d=r_d, r_res=r_res:
                      f"identity fails at {coeffs}: {r_d} - ({r_res})")
    return rec


def _suite_superadditivity(items, params):
    coeff_bound = params.get("coeff_bound", COEFF_BOUND)
    rec = _Recorder()
    for gidx, g in rec.each(items):
        genus = g.genus()
        n = g.vertex_count
        model = g.loopless_model()
        eng = _RankEngine(model.model)
        reps = []
        seen = set()
        for coeffs in _box(n, coeff_bound):
            degree = sum(coeffs)
            if not 0 <= degree <= genus + 1:
                continue
            red = eng.reduced(model.embed_coeffs(coeffs))
            if red in seen:
                continue
            seen.add(red)
            if eng.rank(red) >= 0:
                reps.append(red)
                if len(reps) >= REPS_CAP:
                    break
        for a in reps:
            for b in reps:
                if sum(a) + sum(b) > 2 * genus:
                    continue
                ra, rb = eng.rank(a), eng.rank(b)
                rsum = eng.rank(tuple(x + y for x, y in zip(a, b)))
                rec.check(ra + rb <= rsum,
                          lambda a=a, b=b, ra=ra, rb=rb, rsum=rsum:
                          f"superadditivity: {a} ({ra}) + {b} ({rb}) > {rsum}")
    return rec


def _suite_contraction_pushforward(items, params):
    coeff_bound = params.get("coeff_bound", COEFF_BOUND)
    rec = _Recorder()
    for gidx, g in rec.each(items):
        n = g.vertex_count
        if n == 1:
            continue
        for e in _distinct_edges(g):
            cm = g.contract({e})
            rec.check(verify_prin_pushforward(cm),
                      lambda e=e: f"pushed principal lattice short at edge {e}")
            d1 = Divisor(g, tuple(range(n)))
            d2 = Divisor(g, tuple((-1) ** t for t in range(n)))
            ok = (
                push_forward(cm, d1 + d2) == push_forward(cm, d1) + push_forward(cm, d2)
                and push_forward(cm, d1).degree == d1.degree
            )
            rec.check(ok, lambda e=e: f"pushforward not additive at edge {e}")
            if g.is_bridge(e):
                qualifying = [
                    coeffs for coeffs in _box(n, coeff_bound)
                    if abs(sum(coeffs)) <= PUSHFORWARD_DEGREE_BOUND
                ]
                stride = max(1, len(qualifying) // BRIDGE_DIVISOR_SAMPLE)
                for coeffs in qualifying[::stride][:BRIDGE_DIVISOR_SAMPLE]:
                    rec.check(
                        bridge_rank_preservation(cm, Divisor(g, coeffs)),
                        lambda coeffs=coeffs, e=e: f"bridge {e} changes rank at {coeffs}")
    return rec


def _suite_semibalanced(items, params):
    max_degree = params.get("max_degree")
    rec = _Recorder()
    for gidx, g in rec.each(items):
        genus = g.genus()
        if genus < 2:
            continue
        if any(g.weights[i] == 0 and g.valency(v) < 2
               for i, v in enumerate(g.vertex_ids)):
            continue  # not semistable
        degrees = [2 * genus - 1, 2 * genus]
        if max_degree is not None:
            degrees = [d for d in degrees if d <= max_degree]
        for degree in degrees:
            for rep in enumerate_classes(g, degree):
                balanced_rep = find_semibalanced_representative(g, rep)
                report = balance_report(g, balanced_rep)
                ok = (
                    report.semibalanced
                    and is_semibalanced_by_bounds(g, balanced_rep)
                    and is_equivalent(balanced_rep, rep)
                    and rank(g, balanced_rep).value == degree - genus
                )
                rec.check(ok,
                          lambda rep=rep, balanced_rep=balanced_rep:
                          "bad semibalanced representative "
                          f"{balanced_rep.coeffs} for class {rep.coeffs}")
    return rec


def _suite_rank_oracle(items, params):
    rec = _Recorder()
    for gidx, g in rec.each(items):
        if g.vertex_count > 3 or g.edge_count > 4:
            continue
        model = g.loopless_model()
        if model.model.vertex_count > ORACLE_MAX_MODEL:
            continue
        eng = _RankEngine(model.model)
        for coeffs in _box(g.vertex_count, ORACLE_COEFF_BOUND):
            if not -1 <= sum(coeffs) <= ORACLE_MAX_DEGREE:
                continue
            emb = model.embed_coeffs(coeffs)
            fast = eng.rank(emb)
            slow = rank_by_definition(model.model, Divisor(model.model, emb))
            rec.check(fast == slow,
                      lambda coeffs=coeffs, fast=fast, slow=slow:
                      f"engine rank {fast} != definitional {slow} at {coeffs}")
    return rec


SUITES = {
    "graph_invariants": _suite_graph_invariants,
    "contraction_complexity": _suite_contraction_complexity,
    "principal_divisors": _suite_principal_divisors,
    "equivalence_oracles": _suite_equivalence_oracles,
    "reduction": _suite_reduction,
    "picard": _suite_picard,
    "riemann_roch": _suite_riemann_roch,
    "rank_properties": _suite_rank_properties,
    "superadditivity": _suite_superadditivity,
    "contraction_pushforward": _suite_contraction_pushforward,
    "semibalanced": _suite_semibalanced,
    "rank_oracle": _suite_rank_oracle,
}


def _deal(graphs, shards):
    """Corpus indices in ``shards`` lists, whole adjacencies dealt
    round-robin: a suite that sweeps each adjacency once sees it in exactly
    one shard, as it would inline."""
    order = {}
    dealt = [[] for _ in range(shards)]
    for i, g in enumerate(graphs):
        dealt[order.setdefault(g.adjacency, len(order)) % shards].append(i)
    return dealt


def _run_shard(suite_name, corpus_params, indices, params):
    graphs = connected_multigraphs(*corpus_params)
    items = [(i, graphs[i]) for i in indices]
    rec = SUITES[suite_name](items, params)
    return rec.checked, rec.violations, rec.first


def _merge(name, parts):
    checked = sum(p[0] for p in parts)
    violations = sum(p[1] for p in parts)
    firsts = [p[2] for p in parts if p[2] is not None]
    first = min(firsts, default=None)
    return SuiteResult(name, checked, violations, first[1] if first else None)


def run_all(*, max_vertices=4, max_edges=6, max_total_weight=2, workers=1,
            suite_names=None, coeff_bound=COEFF_BOUND, max_degree=None,
            random_functions=RANDOM_FUNCTIONS):
    """Run the listed suites (all of them by default), one after another,
    and return their results in order. Every suite runs as ``workers``
    shards: shard 0 in the calling process, and each other shard in its
    own single-process executor, the same one for every suite of the run."""
    names = suite_names or list(SUITES)
    corpus_params = (max_vertices, max_edges, max_total_weight)
    params = {"coeff_bound": coeff_bound, "max_degree": max_degree,
              "random_functions": random_functions}
    own, *others = _deal(connected_multigraphs(*corpus_params), workers)
    executors = []
    if others:
        # imported here, not at the top: every CLI query imports this module
        from concurrent.futures import ProcessPoolExecutor

        executors = [ProcessPoolExecutor(max_workers=1) for _ in others]
    try:
        results = []
        for name in names:
            started = time.perf_counter()
            futures = [ex.submit(_run_shard, name, corpus_params, indices, params)
                       for ex, indices in zip(executors, others)]
            parts = [_run_shard(name, corpus_params, own, params)]
            parts += [f.result() for f in futures]
            result = _merge(name, parts)
            result.seconds = time.perf_counter() - started
            results.append(result)
    finally:
        for ex in executors:
            ex.shutdown(cancel_futures=True)
    return results
