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

Suites can be sharded across worker processes: shards are dealt
round-robin by corpus index, children rebuild the corpus from its
parameters (cheap, cached per process), and the merged counterexample is
the one with the smallest corpus index, so results are independent of the
worker count. One pool is reused across suites so each worker keeps its
memoised rank ladders warm.
"""

import json
import random
from dataclasses import dataclass
from itertools import product
from typing import Optional

from .corpus import connected_multigraphs
from .divisors import Divisor, RationalFunction, canonical_divisor, firing_divisor
from .errors import SearchExhausted
from .graphs import Graph
from .intmat import IntegerLattice
from .io import document_of
from .oracles import (
    FiringComponents,
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
from .rank import _engine, certify_rank_below, rank
from .transforms import (
    balance_report,
    bridge_rank_preservation,
    find_semibalanced_representative,
    push_forward,
    verify_prin_pushforward,
)

SEED = 20260810


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
    """Accumulates checks/violations and the first counterexample."""

    def __init__(self):
        self.checked = 0
        self.violations = 0
        self.first = None  # (corpus index, description)

    def check(self, ok, gidx, describe):
        self.checked += 1
        if not ok:
            self.violations += 1
            if self.first is None:
                self.first = (gidx, describe())

    def result(self, name):
        return SuiteResult(
            name,
            self.checked,
            self.violations,
            self.first[1] if self.first else None,
        )


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


# --------------------------------------------------------------------------
# suite bodies; each takes [(corpus_index, graph), ...] plus a params dict


def _suite_graph_invariants(items, params):
    rec = _Recorder()
    for gidx, g in items:
        model = g.loopless_model()
        rec.check(model.model.genus() == g.genus(), gidx,
                  lambda: f"{_graph_blob(g)} model genus differs")
        rec.check(model.model.is_weightless_loopless(), gidx,
                  lambda: f"{_graph_blob(g)} model keeps weights or loops")
        rec.check(model.model.loopless_model().model is model.model, gidx,
                  lambda: f"{_graph_blob(g)} model not idempotent")
        if g.is_weightless_loopless():
            rec.check(model.model is g, gidx,
                      lambda: f"{_graph_blob(g)} plain graph is not its own model")
        k = canonical_divisor(g)
        rec.check(k.degree == 2 * g.genus() - 2, gidx,
                  lambda: f"{_graph_blob(g)} canonical degree {k.degree}")
        n = g.vertex_count
        ids = g.vertex_ids
        full = set(ids)
        rec.check(g.intersection(full, full) == 0, gidx,
                  lambda: f"{_graph_blob(g)} (V.V) != 0")
        for mask in range(1, 1 << n):
            zs = {ids[i] for i in range(n) if mask >> i & 1}
            ok = g.intersection(zs, zs) == -g.intersection(zs, full - zs)
            rec.check(ok, gidx,
                      lambda zs=zs: f"{_graph_blob(g)} (Z.Z) identity fails for {sorted(zs)}")
    return rec


def _suite_contraction_complexity(items, params):
    rec = _Recorder()
    for gidx, g in items:
        rec.check(g.complexity() == spanning_tree_count(g), gidx,
                  lambda: f"{_graph_blob(g)} determinant vs brute tree count")
        seen_pairs = set()
        for e, (i, j) in enumerate(g.edge_pairs):
            if i == j or (i, j) in seen_pairs:
                continue
            seen_pairs.add((i, j))
            cm = g.contract({e})
            rec.check(cm.target.genus() == g.genus(), gidx,
                      lambda e=e: f"{_graph_blob(g)} contracting edge {e} changes genus")
            avoiding = spanning_trees_avoiding(g, e)
            rec.check(g.complexity() == cm.target.complexity() + avoiding, gidx,
                      lambda e=e: f"{_graph_blob(g)} deletion/contraction count fails at edge {e}")
            if g.is_bridge(e):
                rec.check(avoiding == 0, gidx,
                          lambda e=e: f"{_graph_blob(g)} bridge {e} avoided by a tree")
            else:
                rec.check(cm.target.complexity() < g.complexity(), gidx,
                          lambda e=e: f"{_graph_blob(g)} non-bridge {e} keeps complexity")
    return rec


def _suite_principal_divisors(items, params):
    functions = params.get("random_functions", 1000)
    value_bound = params.get("value_bound", 6)
    additivity_sample = params.get("additivity_sample", 60)
    rec = _Recorder()
    for gidx, g in _dedupe_by_support(items):
        n = g.vertex_count
        ids = g.vertex_ids
        rng = random.Random(SEED + gidx)
        # firing moves are the divisors of negated indicators and sum to 0
        total = Divisor.zero(g)
        for v in ids:
            indicator = RationalFunction(g, tuple(-1 if u == v else 0 for u in ids))
            rec.check(indicator.divisor() == firing_divisor(g, v), gidx,
                      lambda v=v: f"{_graph_blob(g)} firing move of {v} != div(-1_v)")
            total = total + firing_divisor(g, v)
        rec.check(total == Divisor.zero(g), gidx,
                  lambda: f"{_graph_blob(g)} firing moves do not sum to zero")
        # any n-1 firing moves generate the whole principal lattice
        for skip in range(n):
            partial = IntegerLattice(n)
            for i, v in enumerate(ids):
                if i != skip:
                    partial.add(firing_divisor(g, v).coeffs)
            rec.check(firing_divisor(g, ids[skip]).coeffs in partial, gidx,
                      lambda skip=skip:
                      f"{_graph_blob(g)} moves without {ids[skip]} do not generate")
        expected_rank = n - 1 if n > 1 else 0
        rec.check(principal_lattice(g).rank == expected_rank, gidx,
                  lambda: f"{_graph_blob(g)} principal lattice rank")
        # random functions: degree zero, additivity, minimum-set inequality
        for t in range(functions):
            values = tuple(rng.randint(-value_bound, value_bound) for _ in range(n))
            f = RationalFunction(g, values)
            div = f.divisor()
            rec.check(div.degree == 0, gidx,
                      lambda values=values: f"{_graph_blob(g)} div degree != 0 for f={values}")
            if len(set(values)) > 1:
                low = min(values)
                zs = {ids[i] for i in range(n) if values[i] == low}
                cut = g.intersection(zs, set(ids) - zs)
                ok = div.restrict(zs) <= -cut and all(div[v] <= 0 for v in zs)
                rec.check(ok, gidx,
                          lambda values=values:
                          f"{_graph_blob(g)} min-set inequality fails for f={values}")
            if t < additivity_sample:
                values2 = tuple(rng.randint(-value_bound, value_bound) for _ in range(n))
                f2 = RationalFunction(g, values2)
                ok = (f + f2).divisor() == div + f2.divisor() and (-f).divisor() == -div
                rec.check(ok, gidx,
                          lambda values=values, values2=values2:
                          f"{_graph_blob(g)} additivity fails for {values}, {values2}")
    return rec


def _suite_equivalence_oracles(items, params):
    coeff_bound = params.get("coeff_bound", 3)
    slack = params.get("slack", 3)
    max_bound = params.get("max_bound", 12)
    rec = _Recorder()
    for gidx, g in _dedupe_by_support(items):
        n = g.vertex_count
        lattice = principal_lattice(g)
        by_degree = {}
        for coeffs in _box(n, coeff_bound):
            by_degree.setdefault(sum(coeffs), []).append(coeffs)
        components = FiringComponents(g, coeff_bound + slack)
        for degree in sorted(by_degree):
            canon = {}
            for coeffs in by_degree[degree]:
                canon.setdefault(reduce_coeffs(g, coeffs, 0), []).append(coeffs)
            # the firing components must match the canonical partition;
            # escalate the box when moves need more room to connect
            for red, members in sorted(canon.items()):
                roots = {components.root(c) for c in members}
                while len(roots) > 1 and components.bound < max_bound:
                    components = FiringComponents(g, components.bound + 3)
                    roots = {components.root(c) for c in members}
                rec.check(len(roots) == 1, gidx,
                          lambda red=red: f"{_graph_blob(g)} firing search splits class {red}")
                rep = members[0]
                for c in members[1:]:
                    diff = tuple(a - b for a, b in zip(c, rep))
                    rec.check(diff in lattice, gidx,
                              lambda c=c, rep=rep:
                              f"{_graph_blob(g)} lattice rejects {c} ~ {rep}")
            # distinct canonical forms must be inequivalent for all three
            # (component roots are compared through in-box members; the
            # reduced forms themselves may leave the box)
            reps = sorted(canon)
            for a in range(len(reps)):
                for b in range(a + 1, len(reps)):
                    diff = tuple(x - y for x, y in zip(reps[a], reps[b]))
                    rec.check(diff not in lattice, gidx,
                              lambda a=a, b=b, reps=reps:
                              f"{_graph_blob(g)} lattice merges {reps[a]} and {reps[b]}")
                    rec.check(
                        components.root(canon[reps[a]][0])
                        != components.root(canon[reps[b]][0]),
                        gidx,
                        lambda a=a, b=b, reps=reps:
                        f"{_graph_blob(g)} firing search merges {reps[a]} and {reps[b]}")
    return rec


def _suite_reduction(items, params):
    coeff_bound = params.get("reduction_coeff_bound", 2)
    rec = _Recorder()
    for gidx, g in _dedupe_by_support(items):
        ids = g.vertex_ids
        q = ids[0]
        for coeffs in _box(g.vertex_count, coeff_bound):
            d = Divisor(g, coeffs)
            red = q_reduce(d, q)
            rec.check(q_reduce(red.base, q).base == red.base, gidx,
                      lambda coeffs=coeffs: f"{_graph_blob(g)} reduce not idempotent at {coeffs}")
            rec.check(all(c >= 0 for i, c in enumerate(red.coeffs) if i != 0), gidx,
                      lambda coeffs=coeffs: f"{_graph_blob(g)} reduce leaves negatives at {coeffs}")
            rec.check(is_equivalent(d, red.base), gidx,
                      lambda coeffs=coeffs: f"{_graph_blob(g)} reduce leaves the class at {coeffs}")
            for v in ids:
                shifted = d + firing_divisor(g, v)
                rec.check(q_reduce(shifted, q).base == red.base, gidx,
                          lambda coeffs=coeffs, v=v:
                          f"{_graph_blob(g)} reduce not class-invariant at {coeffs} + move({v})")
    return rec


def _suite_picard(items, params):
    pairwise_cap = params.get("pairwise_cap", 30)
    rec = _Recorder()
    for gidx, g in items:
        structure = picard_structure(g)
        trees = g.complexity()
        rec.check(structure.order == trees, gidx,
                  lambda: f"{_graph_blob(g)} group order {structure.order} != complexity {trees}")
        rec.check(trees == spanning_tree_count(g), gidx,
                  lambda: f"{_graph_blob(g)} complexity vs brute count")
        factors = structure.invariant_factors
        chain_ok = all(factors[i + 1] % factors[i] == 0 for i in range(len(factors) - 1))
        rec.check(chain_ok, gidx,
                  lambda: f"{_graph_blob(g)} invariant factors not a divisibility chain")
        counts = set()
        for degree in (0, 1, 3):
            reps = enumerate_classes(g, degree)
            counts.add(len(reps))
            for d in reps:
                rec.check(d.degree == degree, gidx,
                          lambda degree=degree: f"{_graph_blob(g)} wrong-degree class rep")
                rec.check(q_reduce(d, g.vertex_ids[0]).base == d, gidx,
                          lambda d=d: f"{_graph_blob(g)} class rep {d.coeffs} not reduced")
            if trees <= pairwise_cap:
                for a in range(len(reps)):
                    for b in range(a + 1, len(reps)):
                        rec.check(not is_equivalent(reps[a], reps[b]), gidx,
                                  lambda a=a, b=b, reps=reps:
                                  f"{_graph_blob(g)} reps {reps[a].coeffs} ~ {reps[b].coeffs}")
        rec.check(counts == {trees}, gidx,
                  lambda: f"{_graph_blob(g)} class count varies with degree: {counts}")
    return rec


def _suite_rank_properties(items, params):
    coeff_bound = params.get("coeff_bound", 3)
    max_degree = params.get("max_degree")
    invariance_sample = params.get("invariance_sample", 30)
    kz_sample = params.get("kz_sample", 20)
    rec = _Recorder()
    for gidx, g in items:
        genus = g.genus()
        n = g.vertex_count
        ids = g.vertex_ids
        lo, hi = _degree_window(g, max_degree)
        model = g.loopless_model()
        eng = _engine(model.model)
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
            rec.check(value <= max(-1, degree), gidx,
                      lambda coeffs=coeffs, value=value:
                      f"{_graph_blob(g)} rank {value} above degree bound at {coeffs}")
            if degree < 0:
                rec.check(value == -1, gidx,
                          lambda coeffs=coeffs: f"{_graph_blob(g)} negative degree, rank != -1 at {coeffs}")
            if degree >= 2 * genus - 1:
                rec.check(value == degree - genus, gidx,
                          lambda coeffs=coeffs, value=value:
                          f"{_graph_blob(g)} high-degree rank {value} != d - g at {coeffs}")
            if degree == 0:
                principal = is_equivalent(d, zero)
                rec.check(value == (0 if principal else -1), gidx,
                          lambda coeffs=coeffs, value=value:
                          f"{_graph_blob(g)} degree-0 dichotomy fails at {coeffs}")
            if degree == 2 * genus - 2:
                ok = value <= genus - 1 and (value == genus - 1) == is_equivalent(d, k)
                rec.check(ok, gidx,
                          lambda coeffs=coeffs, value=value:
                          f"{_graph_blob(g)} canonical-degree dichotomy fails at {coeffs}")
            if 0 <= degree <= 2 * genus - 2:
                rec.check(2 * value <= degree, gidx,
                          lambda coeffs=coeffs, value=value:
                          f"{_graph_blob(g)} Clifford fails at {coeffs}")
        # rank is constant on classes: translate by firing moves
        for coeffs in swept[:invariance_sample]:
            base = eng.rank(model.embed_coeffs(coeffs))
            for v in ids:
                shifted = tuple(a + b for a, b in zip(coeffs, firing_divisor(g, v).coeffs))
                rec.check(eng.rank(model.embed_coeffs(shifted)) == base, gidx,
                          lambda coeffs=coeffs, v=v:
                          f"{_graph_blob(g)} rank changes under move({v}) at {coeffs}")
        # the cut certificate implies the rank bound
        for coeffs in swept[:kz_sample]:
            d = Divisor(g, coeffs)
            for v in ids:
                for r in range(3):
                    if certify_rank_below(g, d, v, r):
                        value = eng.rank(model.embed_coeffs(coeffs))
                        rec.check(value <= r - 1, gidx,
                                  lambda coeffs=coeffs, v=v, r=r, value=value:
                                  f"{_graph_blob(g)} cut certificate ({v}, r={r}) "
                                  f"but rank {value} at {coeffs}")
    return rec


def _suite_riemann_roch(items, params):
    coeff_bound = params.get("coeff_bound", 3)
    max_degree = params.get("max_degree")
    rec = _Recorder()
    for gidx, g in items:
        genus = g.genus()
        lo, hi = _degree_window(g, max_degree)
        model = g.loopless_model()
        eng = _engine(model.model)
        k_emb = model.embed_coeffs(canonical_divisor(g).coeffs)
        for coeffs in _box(g.vertex_count, coeff_bound):
            degree = sum(coeffs)
            if not lo <= degree <= hi:
                continue
            emb = model.embed_coeffs(coeffs)
            r_d = eng.rank(emb)
            r_res = eng.rank(tuple(a - b for a, b in zip(k_emb, emb)))
            rec.check(r_d - r_res == degree - genus + 1, gidx,
                      lambda coeffs=coeffs, r_d=r_d, r_res=r_res:
                      f"{_graph_blob(g)} identity fails at {coeffs}: {r_d} - ({r_res})")
    return rec


def _suite_superadditivity(items, params):
    coeff_bound = params.get("coeff_bound", 3)
    reps_cap = params.get("reps_cap", 14)
    rec = _Recorder()
    for gidx, g in items:
        genus = g.genus()
        n = g.vertex_count
        model = g.loopless_model()
        eng = _engine(model.model)
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
                if len(reps) >= reps_cap:
                    break
        for a in reps:
            for b in reps:
                if sum(a) + sum(b) > 2 * genus:
                    continue
                ra, rb = eng.rank(a), eng.rank(b)
                rsum = eng.rank(tuple(x + y for x, y in zip(a, b)))
                rec.check(ra + rb <= rsum, gidx,
                          lambda a=a, b=b, ra=ra, rb=rb, rsum=rsum:
                          f"{_graph_blob(g)} superadditivity: {a} ({ra}) + {b} ({rb}) > {rsum}")
    return rec


def _suite_contraction_pushforward(items, params):
    degree_bound = params.get("pushforward_degree_bound", 4)
    coeff_bound = params.get("coeff_bound", 3)
    sample = params.get("bridge_divisor_sample", 40)
    rec = _Recorder()
    for gidx, g in items:
        n = g.vertex_count
        if n == 1:
            continue
        seen_pairs = set()
        for e, (i, j) in enumerate(g.edge_pairs):
            if i == j or (i, j) in seen_pairs:
                continue
            seen_pairs.add((i, j))
            cm = g.contract({e})
            rec.check(verify_prin_pushforward(cm), gidx,
                      lambda e=e: f"{_graph_blob(g)} pushed principal lattice short at edge {e}")
            d1 = Divisor(g, tuple(range(n)))
            d2 = Divisor(g, tuple((-1) ** t for t in range(n)))
            ok = (
                push_forward(cm, d1 + d2) == push_forward(cm, d1) + push_forward(cm, d2)
                and push_forward(cm, d1).degree == d1.degree
            )
            rec.check(ok, gidx,
                      lambda e=e: f"{_graph_blob(g)} pushforward not additive at edge {e}")
            if g.is_bridge(e):
                qualifying = [
                    coeffs for coeffs in _box(n, coeff_bound)
                    if abs(sum(coeffs)) <= degree_bound
                ]
                stride = max(1, len(qualifying) // sample)
                for coeffs in qualifying[::stride][:sample]:
                    rec.check(
                        bridge_rank_preservation(cm, Divisor(g, coeffs)), gidx,
                        lambda coeffs=coeffs, e=e:
                        f"{_graph_blob(g)} bridge {e} changes rank at {coeffs}")
    return rec


def _suite_semibalanced(items, params):
    max_degree = params.get("max_degree")
    rec = _Recorder()
    for gidx, g in items:
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
                try:
                    balanced_rep = find_semibalanced_representative(g, rep)
                except SearchExhausted:
                    rec.check(False, gidx,
                              lambda rep=rep: f"{_graph_blob(g)} search exhausted for {rep.coeffs}")
                    continue
                report = balance_report(g, balanced_rep)
                ok = (
                    report.semibalanced
                    and is_equivalent(balanced_rep, rep)
                    and rank(g, balanced_rep).value == degree - genus
                )
                rec.check(ok, gidx,
                          lambda rep=rep, balanced_rep=balanced_rep:
                          f"{_graph_blob(g)} bad semibalanced representative "
                          f"{balanced_rep.coeffs} for class {rep.coeffs}")
    return rec


def _suite_rank_oracle(items, params):
    coeff_bound = params.get("oracle_coeff_bound", 2)
    max_model = params.get("oracle_max_model", 5)
    max_oracle_degree = params.get("oracle_max_degree", 3)
    rec = _Recorder()
    for gidx, g in items:
        if g.vertex_count > 3 or g.edge_count > 4:
            continue
        model = g.loopless_model()
        if model.model.vertex_count > max_model:
            continue
        eng = _engine(model.model)
        for coeffs in _box(g.vertex_count, coeff_bound):
            if not -1 <= sum(coeffs) <= max_oracle_degree:
                continue
            emb = model.embed_coeffs(coeffs)
            fast = eng.rank(emb)
            slow = rank_by_definition(model.model, Divisor(model.model, emb))
            rec.check(fast == slow, gidx,
                      lambda coeffs=coeffs, fast=fast, slow=slow:
                      f"{_graph_blob(g)} engine rank {fast} != definitional {slow} at {coeffs}")
    return rec


def _suite_semicontinuity_fixture(items, params):
    # rank-jump pair: a doubled edge plus a path edge, contracted at the
    # path edge; the rank both drops and rises across this non-bridge
    rec = _Recorder()
    g = Graph(["v1", "v2", "v3"],
              [("v1", "v2"), ("v1", "v2"), ("v1", "v3"), ("v2", "v3")])
    cm = g.contract({3})
    cases = [((-2, 3, -1), 0, -1), ((1, -1, 1), -1, 0), ((1, -1, 2), 0, 1)]
    for coeffs, r_source, r_target in cases:
        d = Divisor(g, coeffs)
        ok = (
            rank(g, d).value == r_source
            and rank(cm.target, push_forward(cm, d)).value == r_target
        )
        rec.check(ok, 0, lambda coeffs=coeffs: f"rank jump pair fails at {coeffs}")
    rec.check(not g.is_bridge(3), 0, lambda: "contracted fixture edge is a bridge")
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
    "semicontinuity_fixture": _suite_semicontinuity_fixture,
}

# suites whose cost is dominated by per-graph divisor sweeps; these are
# sharded across workers (riemann_roch goes first to warm the rank caches)
HEAVY = {
    "riemann_roch",
    "rank_properties",
    "superadditivity",
    "contraction_pushforward",
    "semibalanced",
    "equivalence_oracles",
    "reduction",
}


def _run_shard(args):
    suite_name, corpus_params, indices, params = args
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


def run_suite(name, *, max_vertices=4, max_edges=6, max_total_weight=2,
              workers=1, pool=None, **params) -> SuiteResult:
    import time

    started = time.perf_counter()
    corpus_params = (max_vertices, max_edges, max_total_weight)
    graphs = connected_multigraphs(*corpus_params)
    indices = list(range(len(graphs)))
    use_pool = pool is not None or (workers > 1 and name in HEAVY)
    if use_pool and len(indices) > workers > 1:
        shards = [
            (name, corpus_params, indices[w::workers], params)
            for w in range(workers)
        ]
        if pool is not None:
            parts = pool.map(_run_shard, shards)
        else:
            import multiprocessing

            with multiprocessing.Pool(workers) as own_pool:
                parts = own_pool.map(_run_shard, shards)
        result = _merge(name, parts)
    else:
        rec = SUITES[name]([(i, graphs[i]) for i in indices], params)
        result = rec.result(name)
    result.seconds = time.perf_counter() - started
    return result


def run_all(*, max_vertices=4, max_edges=6, max_total_weight=2, workers=1,
            suite_names=None, **params):
    """Run the listed suites (all of them by default) and return their
    results in order. With workers > 1 the heavy suites share one worker
    pool so the per-graph rank caches stay warm across suites."""
    names = suite_names or list(SUITES)
    results = []
    pool = None
    try:
        if workers > 1 and any(n in HEAVY for n in names):
            import multiprocessing

            pool = multiprocessing.Pool(workers)
        for name in names:
            results.append(
                run_suite(
                    name,
                    max_vertices=max_vertices,
                    max_edges=max_edges,
                    max_total_weight=max_total_weight,
                    workers=workers,
                    pool=pool if name in HEAVY else None,
                    **params,
                )
            )
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return results
