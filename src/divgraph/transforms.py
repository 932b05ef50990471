"""Divisor push-forward under contraction and multidegree balance analysis.

The balance inequality compares d(Z) against k(Z)*d/(2g-2) - (Z.Z^c)/2
over every vertex subset Z; the bound is generally non-integral, so it is
evaluated in exact rational arithmetic throughout (fractions.Fraction or
cross-multiplied integers, never floats).
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .divisors import Divisor, canonical_divisor, firing_divisor
from .errors import (
    GenusTooSmall,
    GraphMismatch,
    MultiEdgeContraction,
    NotABridge,
    NotSemistable,
)
from .graphs import ContractionMap, Graph, check_subset_sweep
from .rank import rank


def push_forward(cm: ContractionMap, divisor: Divisor) -> Divisor:
    """Sum the coefficients over each fiber of the contraction; a
    degree-preserving surjective group homomorphism."""
    if divisor.graph != cm.source:
        raise GraphMismatch("divisor does not live on the contraction source")
    target = cm.target
    coeffs = [0] * target.vertex_count
    for v, c in zip(cm.source.vertex_ids, divisor.coeffs):
        coeffs[target.index(cm.vertex_map[v])] += c
    return Divisor(target, coeffs)


def verify_prin_pushforward(cm: ContractionMap) -> bool:
    """Constructively check that the push-forward of the principal lattice
    covers the principal lattice of the target, for a single-edge
    contraction: away from the contracted edge the firing move of a vertex
    pushes to the firing move of its image, and the merged vertex's move
    is the push-forward of the sum of the two endpoint moves."""
    if not cm.is_single_edge():
        raise MultiEdgeContraction("expected a single contracted edge")
    (e,) = cm.contracted_edges
    a, b = cm.source.edges[e]
    merged = cm.vertex_map[a]
    for v in cm.source.vertex_ids:
        if v == a or v == b:
            continue
        pushed = push_forward(cm, firing_divisor(cm.source, v))
        if pushed != firing_divisor(cm.target, cm.vertex_map[v]):
            return False
    endpoint_sum = firing_divisor(cm.source, a) + firing_divisor(cm.source, b)
    return push_forward(cm, endpoint_sum) == firing_divisor(cm.target, merged)


def bridge_rank_preservation(cm: ContractionMap, divisor: Divisor) -> bool:
    """True iff contracting the bridge leaves the rank unchanged."""
    if not cm.is_single_edge():
        raise MultiEdgeContraction("expected a single contracted edge")
    (e,) = cm.contracted_edges
    if not cm.source.is_bridge(e):
        raise NotABridge(f"edge {e} is not a bridge")
    before = rank(cm.source, divisor).value
    after = rank(cm.target, push_forward(cm, divisor)).value
    return before == after


@dataclass(frozen=True)
class BalanceReport:
    """Outcome of the balance inequality over all vertex subsets."""

    divisor: Divisor
    semibalanced: bool
    balanced: bool
    violating_set: Optional[frozenset] = None


def _check_semistable(graph: Graph):
    if 2 * graph.genus() - 2 <= 0:
        raise GenusTooSmall("balance analysis needs genus at least 2")
    for i, v in enumerate(graph.vertex_ids):
        if graph.weights[i] == 0 and graph.valency(v) < 2:
            raise NotSemistable(f"weight-0 vertex {v!r} has valency < 2")


class _BalanceContext:
    """Per-graph data shared by every balance evaluation: the canonical
    coefficients, the subset list in lexicographic order with precomputed
    cut sizes, and the weight-0 valency-2 vertices."""

    def __init__(self, graph: Graph):
        _check_semistable(graph)
        check_subset_sweep(graph)
        k_coeffs = canonical_divisor(graph).coeffs
        self.two_g_minus_2 = 2 * graph.genus() - 2
        n = graph.vertex_count
        subsets = sorted(
            tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, (1 << n) - 1)
        )
        self.entries = [
            (zs, sum(k_coeffs[i] for i in zs), graph.cut_size(zs)) for zs in subsets
        ]
        self.special = tuple(
            i
            for i, v in enumerate(graph.vertex_ids)
            if graph.weights[i] == 0 and graph.valency(v) == 2
        )

    def first_violation(self, coeffs):
        """Lexicographically least subset violating the inequality, or the
        first special vertex with a negative coefficient; None if
        semibalanced."""
        degree = sum(coeffs)
        m = self.two_g_minus_2
        for zs, k_z, cut in self.entries:
            chips = sum(coeffs[i] for i in zs)
            # chips >= k_z*degree/m - cut/2, cleared of denominators
            if 2 * m * chips < 2 * k_z * degree - m * cut:
                return zs
        for i in self.special:
            if coeffs[i] < 0:
                return (i,)
        return None


def _balance_ctx(graph: Graph) -> _BalanceContext:
    return graph.memo("balance_ctx", _BalanceContext)


def balance_bound(graph: Graph, degree: int, zs) -> Fraction:
    """Exact lower bound k(Z)*degree/(2g-2) - (Z.Z^c)/2 for d(Z)."""
    k = canonical_divisor(graph)
    two_g_minus_2 = 2 * graph.genus() - 2
    cut = graph.intersection(zs, set(graph.vertex_ids) - set(zs))
    return Fraction(k.restrict(zs) * degree, two_g_minus_2) - Fraction(cut, 2)


def balance_report(graph: Graph, divisor: Divisor) -> BalanceReport:
    """Evaluate the balance inequality for every vertex subset plus the
    valency-2 vertex conditions, in exact rational arithmetic.

    Semibalanced: every subset Z satisfies the bound and every weight-0
    valency-2 vertex has d(v) >= 0. Balanced additionally requires
    d(v) = 1 there. ``violating_set`` carries the lexicographically least
    violating subset when not semibalanced, or the first vertex breaking
    the balanced condition when merely semibalanced.
    """
    ctx = _balance_ctx(graph)
    ids = graph.vertex_ids
    coeffs = divisor.coeffs
    violation = ctx.first_violation(coeffs)
    semibalanced = violation is None
    balanced = semibalanced and all(coeffs[i] == 1 for i in ctx.special)
    if semibalanced and not balanced:
        violation = next((i,) for i in ctx.special if coeffs[i] != 1)
    violating = (
        frozenset(ids[i] for i in violation) if violation is not None else None
    )
    return BalanceReport(divisor, semibalanced, balanced, violating)


def find_semibalanced_representative(graph: Graph, divisor: Divisor) -> Divisor:
    """Semibalanced representative of the class by set-firing descent: while
    some set Z is violated (``first_violation``; a weight-0 valency-2 vertex
    v at d(v) < 0 counts as Z = {v}), fire its complement S, which moves
    one chip into Z along each edge of the cut, as firing Z -1 times does.
    A semibalanced input comes back unchanged.

    Termination: with c = k*deg/(2g-2) and E(D) = (D-c)^T L^+ (D-c), firing
    S changes E by cut(S) - 2(D-c)(S), and a violated Z has (D-c)(S) >
    cut(S)/2, so E strictly drops; only finitely many divisors of the class
    lie below a given E. A valency-2 vertex is flagged only at d(v) = -1
    (d(v) <= -2 violates {v}); that move unfires v and keeps E. A cycle of
    such moves would put a nonzero script of them in ker L, the constants,
    so every vertex would be one: a cycle of genus 1, which is excluded.
    """
    ctx = _balance_ctx(graph)
    coeffs = list(divisor.coeffs)
    while (zs := ctx.first_violation(coeffs)) is not None:
        graph.fire(coeffs, zs, -1)
    return Divisor(graph, coeffs)
