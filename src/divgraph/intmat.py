"""Exact integer helpers: vector enumeration, Smith normal form, lattices.

Everything here works on plain Python ints, so there is no overflow to
guard against; the invariant factors of a graph Laplacian, whose product
is the spanning-tree count, routinely exceed 64 bits.
"""

from collections import defaultdict
from heapq import heappop, heappush
from itertools import combinations

from .errors import EnumerationCapExceeded

MAX_ELIMINATION_ENTRIES = 2_000_000  # entries smith_normal_form may scan and update


def xgcd(a, b):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) (g has the sign of the
    Euclidean remainder chain; callers normalise when they care)."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    return x, y, g


def bounded_vectors(length, total):
    """All tuples of ``length`` nonnegative ints with sum at most ``total``,
    in ascending lexicographic order.

    Stars and bars: the vector (v_1, ..., v_L) is read off the bar
    positions b_k = v_1 + ... + v_k + k - 1 among total + L slots, and
    ascending bar positions give ascending vectors.
    """
    for bars in combinations(range(total + length), length):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars))


def compositions(total, length):
    """All ``length``-tuples of nonnegative ints summing to ``total``, in
    ascending lexicographic order: the bounded vectors of length
    ``length - 1`` with the remainder appended."""
    for head in bounded_vectors(length - 1, total):
        yield head + (total - sum(head),)


def smith_normal_form(rows, ncols):
    """Nonnegative diagonal of the Smith normal form of an integer matrix
    given as sparse rows ``{column: nonzero entry}`` over ``ncols``
    columns: a list d_1 | d_2 | ..., zeros included.

    Two stages, both charged the entries they scan and update; past
    MAX_ELIMINATION_ENTRIES they raise EnumerationCapExceeded. While some
    entry is +-1, the one of least Markowitz cost (the other entries of its
    row times those of its column) is eliminated by Schur complement, a
    unimodular step that yields an invariant factor 1. The small core left
    is packed into dense rows for least-entry pivoting: move an entry of
    least absolute value to the corner and clear its column, then its row,
    by division with remainder. A nonzero remainder, or a row of the rest
    that the corner does not divide (added to the first row), restarts the
    round with a smaller corner; otherwise the corner is the next factor.
    """
    spent = 0  # entries scanned and updated so far
    live = dict(enumerate(map(dict, rows)))  # row index -> its entries
    cols = defaultdict(set)  # column -> the live rows with an entry there
    for i, row in live.items():
        for j in row:
            cols[j].add(i)

    def charge(entries):
        nonlocal spent
        spent += entries
        if spent > MAX_ELIMINATION_ENTRIES:
            raise EnumerationCapExceeded(
                f"Smith elimination past {MAX_ELIMINATION_ENTRIES} matrix entries")

    def cost(i, j):
        return (len(live[i]) - 1) * (len(cols[j]) - 1)

    # keys go stale as rows and columns change; each is checked when it comes out
    heap = sorted((cost(i, j), i, j) for i, row in live.items()
                  for j, a in row.items() if a in (1, -1))
    done = set()  # pivot columns
    while heap:
        key, i, j = heappop(heap)
        if live.get(i, {}).get(j) not in (1, -1):
            continue
        if cost(i, j) > key:  # back in with the true cost
            heappush(heap, (cost(i, j), i, j))
            continue
        charge(len(live[i]) * len(cols[j]))
        row = live.pop(i)
        for c in row:
            cols[c].discard(i)
        p = row.pop(j)
        for k in cols.pop(j):
            other = live[k]
            f = other.pop(j) * p  # p is its own inverse
            for c, a in row.items():  # only these entries change, so only they are pushed
                other[c] = other.get(c, 0) - f * a
                if not other[c]:
                    del other[c]
                    cols[c].discard(k)
                    continue
                cols[c].add(k)
                if other[c] in (1, -1):
                    heappush(heap, (cost(k, c), k, c))
        done.add(j)

    left = [c for c in range(ncols) if c not in done]
    charge(len(live) * len(left))
    m = [[row.get(c, 0) for c in left] for row in live.values()]
    diag = [1] * len(done)
    while m and m[0]:
        charge(len(m) * len(m[0]))
        least = min(((abs(a), i, j) for i, row in enumerate(m)
                     for j, a in enumerate(row) if a), default=None)
        if least is None:
            return diag + [0] * min(len(m), len(m[0]))
        _, pi, pj = least
        m[0], m[pi] = m[pi], m[0]
        for row in m:
            row[0], row[pj] = row[pj], row[0]
        top = m[0]
        p = top[0]
        for row in m[1:]:
            q = row[0] // p
            if q:
                for j, a in enumerate(top):
                    row[j] -= q * a
        if any(row[0] for row in m[1:]):
            continue
        top[1:] = [a % p for a in top[1:]]  # column operations, now seen in the first row only
        if any(top[1:]):
            continue
        rest = [row[1:] for row in m[1:]]
        bad = next((row for row in rest if any(a % p for a in row)), None)
        if bad is not None:
            top[1:] = bad  # adds the row, as top is (p, 0, ..., 0)
            continue
        diag.append(abs(p))
        m = rest
    return diag


class IntegerLattice:
    """A sublattice of Z^n kept as a basis in Hermite normal form.

    Each basis row leads at its own pivot column with a positive pivot,
    and every entry of a row in a later row's pivot column lies in
    [0, pivot) (Cohen, *A Course in Computational Algebraic Number Theory*,
    1993, section 2.4). A vector is added by xgcd row reduction, after which
    the rows it changed are renormalised, so entries stay within the pivots
    rather than growing with every combination. ``residue`` reduces a vector
    into [0, pivot) at every pivot column in turn: the result is the same
    for every vector of one coset, so it is a canonical coset key, and
    membership is a zero residue.
    """

    def __init__(self, ambient_dimension):
        self.n = ambient_dimension
        self.basis = {}  # leading column -> the basis row that leads there
        self._rows = None  # (pivot column, pivot, nonzero (column, entry) pairs past it)

    def add(self, vec):
        v = list(vec)
        n = self.n
        basis = self.basis
        touched = n  # least pivot column whose row this call changed
        for j in range(n):
            if v[j] == 0:
                continue
            row = basis.get(j)
            if row is None:  # a new leading column
                basis[j] = v
                touched = min(touched, j)
                break
            a, b = row[j], v[j]
            if b % a == 0:
                q = b // a
                for k in range(j, n):
                    v[k] -= q * row[k]
            else:
                x, y, g = xgcd(a, b)
                a_g, b_g = a // g, b // g
                for k in range(j, n):
                    u, w = row[k], v[k]
                    row[k] = x * u + y * w
                    v[k] = a_g * w - b_g * u
                touched = min(touched, j)
        if touched < n:
            self._normalise(touched)

    def _normalise(self, start):
        """Restore the Hermite form after the rows leading at ``start`` or
        later changed: make their pivots positive, then reduce every row
        at the pivot columns from ``start`` on, in ascending order (a
        reduction at column k changes only columns k and later)."""
        basis, n = self.basis, self.n
        pivots = sorted(basis)
        for j in pivots:
            if j >= start and basis[j][j] < 0:
                basis[j][:] = [-a for a in basis[j]]
        for i in pivots:
            row = basis[i]
            for k in pivots:
                if k > i and k >= start and row[k]:
                    other = basis[k]
                    q = row[k] // other[k]
                    if q:
                        for c in range(k, n):
                            row[c] -= q * other[c]
        self._rows = None

    def residue(self, vec):
        """The canonical representative of the coset vec + L, as a tuple:
        vec reduced into [0, pivot) at each pivot column in turn. Two
        vectors have equal residues iff their difference lies in L."""
        rows = self._rows
        if rows is None:
            rows = self._rows = [
                (j, row[j], [(k, a) for k, a in enumerate(row) if a and k > j])
                for j, row in sorted(self.basis.items())]
        v = list(vec)
        for j, p, tail in rows:
            q = v[j] // p
            if q:
                v[j] -= q * p
                for k, a in tail:
                    v[k] -= q * a
        return tuple(v)

    def __contains__(self, vec):
        return not any(self.residue(vec))

    @property
    def rank(self):
        return len(self.basis)
