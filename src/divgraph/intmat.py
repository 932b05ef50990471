"""Exact integer helpers: vector enumeration, determinants, Smith normal
form, lattices.

Everything here works on plain Python ints, so there is no overflow to
guard against; matrix-tree determinants routinely exceed 64 bits.
"""

from bisect import bisect_left
from itertools import combinations


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


def determinant(rows):
    """Determinant of a square integer matrix by fraction-free (Bareiss)
    elimination. Exact for arbitrary size entries."""
    n = len(rows)
    if n == 0:
        return 1
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            factor = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - factor * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


def smith_normal_form(rows):
    """Nonnegative diagonal of the Smith normal form of an integer matrix,
    as a list d_1 | d_2 | ..., zeros included.

    Least-entry pivoting: move an entry of least absolute value to the
    corner and clear its row and column by division with remainder; a
    nonzero remainder is smaller than the corner and restarts the round.
    If the corner then fails to divide some entry of the rest, that row is
    added to the first row and the round restarts. The corner only shrinks,
    so this ends, and each corner divides all that is left: it is the next
    invariant factor.
    """
    m = [list(r) for r in rows]
    diag = []
    while m and m[0]:
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
        for j in range(1, len(top)):
            q = top[j] // p
            if q:
                for row in m:
                    row[j] -= q * row[0]
        if any(row[0] for row in m[1:]) or any(top[1:]):
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
    """A sublattice of Z^n kept as a row-echelon integer basis.

    Vectors are added with xgcd row reduction so the basis stays in
    Hermite-style echelon form; membership is tested by reducing the
    candidate against the pivots and requiring exact divisibility.
    """

    def __init__(self, ambient_dimension):
        self.n = ambient_dimension
        self.basis = []          # rows, echelon by leading column
        self.pivot_cols = []     # leading column of each basis row

    def add(self, vec):
        v = list(vec)
        n = self.n
        for j in range(n):
            if v[j] == 0:
                continue
            where = bisect_left(self.pivot_cols, j)
            if where == len(self.pivot_cols) or self.pivot_cols[where] != j:
                self.basis.insert(where, v)
                self.pivot_cols.insert(where, j)
                return
            row = self.basis[where]
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

    def __contains__(self, vec):
        v = list(vec)
        n = self.n
        for j in range(n):
            if v[j] == 0:
                continue
            where = bisect_left(self.pivot_cols, j)
            if where == len(self.pivot_cols) or self.pivot_cols[where] != j:
                return False
            row = self.basis[where]
            q, r = divmod(v[j], row[j])
            if r:
                return False
            for k in range(j, n):
                v[k] -= q * row[k]
        return True

    @property
    def rank(self):
        return len(self.basis)
