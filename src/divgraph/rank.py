"""Baker-Norine rank and the verification predicates built on it.

The rank of a divisor d is the largest k such that subtracting any
effective divisor of degree k leaves a class containing an effective
divisor (-1 if the class of d itself contains none). On a weightless
loopless graph this is computed exactly by the classical recursion

    rank(d) = -1                      if no effective divisor ~ d,
    rank(d) = 1 + min_v rank(d - v)   otherwise,

which is the increasing-degree search over effective test divisors e,
sharing class-effectivity tests through q-reduced forms. Rank is a function
of the class, and each degree holds only as many classes as the graph has
spanning trees, so remainders d - e that are linearly equivalent should
cost one burning run between them. The engine memoises per graph each raw
coefficient tuple's reduced form and, once that memo holds n^2 entries
(by then n^2 burns of n coefficients have paid for the O(n^3) Hermite
form), keys new tuples by class: the residue of the tuple modulo the
principal lattice, a canonical coset representative found in integer
steps with no burn. Only a class not seen before is burnt. The recursion
runs as one loop over an explicit stack, bounded per call by
MAX_REDUCED_COEFFS coefficients, n per raw memo miss, as degree is not.

General graphs are handled through their weightless loopless model: the
divisor is extended by zeros on the midpoint vertices and ranked there.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Optional

from .divisors import Divisor, canonical_divisor
from .errors import (
    DegreeCapExceeded,
    DegreeNotZero,
    DegreeOutOfRange,
    GraphMismatch,
    RequiresWeightlessLoopless,
)
from .graphs import Graph, check_subset_sweep
from .intmat import compositions
from .picard import MAX_REDUCED_COEFFS, is_equivalent, principal_lattice, reduce_coeffs

DEFAULT_DEGREE_CAP = 30


@dataclass(frozen=True)
class RankResult:
    """Rank value plus, optionally, the first failing test divisor.

    For value r, ``witness`` is the lexicographically least effective
    divisor e of degree r + 1 such that d - e has no effective equivalent;
    it lives on the graph the search ran on (the weightless loopless model
    when the input graph carries weights or loops).
    """

    value: int
    witness: Optional[Divisor] = None

    def __int__(self):
        return self.value


class _RankEngine:
    """Rank search on one weightless loopless graph, a view built per call
    over three dicts memoised on it: reduced forms by raw coefficients,
    reduced forms by class key, and ranks by reduced form. They hold only
    tuples and ints, so they die with the graph. Each raw memo miss costs
    n of the MAX_REDUCED_COEFFS budget."""

    def __init__(self, graph: Graph):
        self.graph = graph
        self.n = graph.vertex_count
        self.reduced_coeffs = 0
        self._reduced, self._classes, self._rank = graph.memo(
            "rank_memo", lambda g: ({}, {}, {}))
        self._lattice = None

    def reduced(self, coeffs):
        r = self._reduced.get(coeffs)
        if r is None:
            self.reduced_coeffs += self.n
            if self.reduced_coeffs > MAX_REDUCED_COEFFS:
                raise DegreeCapExceeded(
                    f"rank search past {MAX_REDUCED_COEFFS} reduced coefficients")
            key = self._class_key(coeffs)
            r = self._classes.get(key)
            if r is None:
                r = reduce_coeffs(self.graph, coeffs, 0)
                if key is not None:
                    self._classes[key] = r
            self._reduced[coeffs] = r
        return r

    def _class_key(self, coeffs):
        """The class key of coeffs, or None while the raw memo holds fewer
        than n^2 reduced forms and the lattice is not worth building."""
        lattice = self._lattice
        if lattice is None:
            if len(self._reduced) < self.n * self.n:
                return None
            lattice = self._lattice = principal_lattice(self.graph)
            if not self._classes:  # the classes burnt before the lattice
                for r in set(self._reduced.values()):
                    self._classes[lattice.residue(r)] = r
        return lattice.residue(coeffs)

    def class_effective(self, coeffs):
        return sum(coeffs) >= 0 and self.reduced(coeffs)[0] >= 0

    def rank(self, coeffs):
        if sum(coeffs) < 0:
            return -1
        red = self.reduced(coeffs)
        val = self._rank.get(red)
        if val is not None:
            return val
        memo, n = self._rank, self.n  # a state enters memo once its rank is final
        stack = []  # frames [reduced state, next vertex, least child rank]
        while True:
            if val is None:  # red is reduced and not ranked yet
                if red[0] < 0:
                    val = memo[red] = -1
                else:  # a child's rank is at most its degree
                    val = sum(red) - 1
                    stack.append([red, 0, val])
            if not stack:
                return val
            state, v, least = frame = stack[-1]
            while True:
                if val < least:
                    least = val
                if least == -1 or v == n:
                    break
                child = list(state)
                child[v] -= 1
                red = self.reduced(tuple(child))
                val = memo.get(red)
                v += 1
                if val is None:
                    break
            if val is None:  # descend into red
                frame[1], frame[2] = v, least
            else:
                stack.pop()
                val = memo[state] = 1 + least


def _witness(engine, coeffs, value):
    for e in compositions(value + 1, engine.n):
        rem = tuple(a - b for a, b in zip(coeffs, e))
        if not engine.class_effective(rem):
            return Divisor(engine.graph, e)
    return None


def _require_plain(graph):
    if not graph.is_weightless_loopless():
        raise RequiresWeightlessLoopless(
            "operation needs a weightless loopless graph; rank on general "
            "graphs goes through Graph.loopless_model()"
        )


def is_class_effective(divisor: Divisor) -> bool:
    """True iff some effective divisor is linearly equivalent to this one
    (weightless loopless graphs only)."""
    _require_plain(divisor.graph)
    return _RankEngine(divisor.graph).class_effective(divisor.coeffs)


def rank_weightless(
    divisor: Divisor, *, with_witness: bool = False, max_degree: int = DEFAULT_DEGREE_CAP
) -> RankResult:
    """Exact rank on a weightless loopless graph, which is its own model."""
    _require_plain(divisor.graph)
    return rank(divisor.graph, divisor, with_witness=with_witness, max_degree=max_degree)


def rank(
    graph: Graph,
    divisor: Divisor,
    *,
    with_witness: bool = False,
    max_degree: int = DEFAULT_DEGREE_CAP,
) -> RankResult:
    """Rank of a divisor on any graph, through the weightless loopless
    model (a graph that is already weightless and loopless is its own
    model, so this agrees with rank_weightless there)."""
    if divisor.graph != graph:
        raise GraphMismatch("divisor does not live on the given graph")
    if divisor.degree > max_degree:
        raise DegreeCapExceeded(
            f"degree {divisor.degree} exceeds the search cap {max_degree}"
        )
    model = graph.loopless_model()
    coeffs = model.embed_coeffs(divisor.coeffs)
    engine = _RankEngine(model.model)
    value = engine.rank(coeffs)
    witness = _witness(engine, coeffs, value) if with_witness else None
    return RankResult(value, witness)


def riemann_roch_check(graph: Graph, divisor: Divisor) -> bool:
    """Evaluate rank(d) - rank(k - d) == degree - genus + 1."""
    k = canonical_divisor(graph)
    r_d = rank(graph, divisor).value
    r_res = rank(graph, k - divisor).value
    return r_d - r_res == divisor.degree - graph.genus() + 1


def check_clifford_degree(graph: Graph, degree: int) -> None:
    """Raise DegreeOutOfRange unless 0 <= degree <= 2g - 2, the range
    where Clifford's bound applies."""
    two_g = 2 * graph.genus()
    if not 0 <= degree <= two_g - 2:
        raise DegreeOutOfRange(f"degree {degree} outside [0, {two_g - 2}]")


def clifford_check(graph: Graph, divisor: Divisor) -> bool:
    """Check rank(d) <= degree/2 for 0 <= degree <= 2g - 2 (exact
    integer comparison, no division)."""
    check_clifford_degree(graph, divisor.degree)
    return 2 * rank(graph, divisor).value <= divisor.degree


def certify_rank_below(graph: Graph, divisor: Divisor, v, r: int) -> bool:
    """Cut criterion certifying rank(d) <= r - 1 (CLI subcommand ``kz``).

    True iff d(v) < r and every nonempty subset Z of V - {v} holds fewer
    chips than the size of its boundary cut. When true, the class of
    d - r*v contains no effective divisor, so the rank bound follows
    (the tests cross-check this against the exact rank). Unless d(v) >= r,
    graphs past MAX_SUBSET_VERTICES raise EnumerationCapExceeded.
    """
    if r < 0:
        raise DegreeOutOfRange("r must be >= 0")
    vi = graph.index(v)
    coeffs = divisor.coeffs
    if coeffs[vi] >= r:
        return False
    check_subset_sweep(graph)
    others = [i for i in range(graph.vertex_count) if i != vi]
    m = len(others)
    for mask in range(1, 1 << m):
        zs = [others[k] for k in range(m) if mask >> k & 1]
        if sum(coeffs[i] for i in zs) >= graph.cut_size(zs):
            return False
    return True


class DegreeZeroClass(Enum):
    PRINCIPAL_RANK0 = "principal, rank 0"
    NONPRINCIPAL_RANKNEG = "non-principal, rank -1"


def degree_zero_classification(graph: Graph, divisor: Divisor) -> DegreeZeroClass:
    """Degree-zero dichotomy: a degree-0 class is either principal (rank 0)
    or contains no effective divisor at all (rank -1)."""
    if divisor.degree != 0:
        raise DegreeNotZero(f"degree is {divisor.degree}, not 0")
    if is_equivalent(divisor, Divisor.zero(graph)):
        return DegreeZeroClass.PRINCIPAL_RANK0
    return DegreeZeroClass.NONPRINCIPAL_RANKNEG
