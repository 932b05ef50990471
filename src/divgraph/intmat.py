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
    as a list d_1 | d_2 | ... (divisibility enforced), zeros included."""
    if not rows or not rows[0]:
        return []
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    rank = min(nrows, ncols)
    diag = []
    top = 0
    while top < rank:
        # locate a nonzero pivot
        pi = pj = -1
        for i in range(top, nrows):
            for j in range(top, ncols):
                if m[i][j] != 0:
                    pi, pj = i, j
                    break
            if pi >= 0:
                break
        if pi < 0:
            break
        m[top], m[pi] = m[pi], m[top]
        for row in m:
            row[top], row[pj] = row[pj], row[top]
        # clear row and column `top`, replacing the pivot by gcds as needed
        while True:
            pivot = m[top][top]
            dirty = False
            for i in range(top + 1, nrows):
                a = m[i][top]
                if a == 0:
                    continue
                if a % pivot == 0:
                    q = a // pivot
                    for j in range(top, ncols):
                        m[i][j] -= q * m[top][j]
                else:
                    x, y, g = xgcd(pivot, a)
                    p_g, a_g = pivot // g, a // g
                    for j in range(top, ncols):
                        u, v = m[top][j], m[i][j]
                        m[top][j] = x * u + y * v
                        m[i][j] = p_g * v - a_g * u
                    dirty = True
                    pivot = m[top][top]
            for j in range(top + 1, ncols):
                a = m[top][j]
                if a == 0:
                    continue
                if a % pivot == 0:
                    q = a // pivot
                    for i in range(top, nrows):
                        m[i][j] -= q * m[i][top]
                else:
                    x, y, g = xgcd(pivot, a)
                    p_g, a_g = pivot // g, a // g
                    for i in range(top, nrows):
                        u, v = m[i][top], m[i][j]
                        m[i][top] = x * u + y * v
                        m[i][j] = p_g * v - a_g * u
                    dirty = True
                    pivot = m[top][top]
            if not dirty:
                break
        diag.append(abs(m[top][top]))
        top += 1
    while len(diag) < rank:
        diag.append(0)
    # enforce the divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(len(diag) - 1):
            a, b = diag[i], diag[i + 1]
            if a and b % a != 0:
                _, _, g = xgcd(a, b)
                g = abs(g)
                diag[i], diag[i + 1] = g, a * b // g
                changed = True
            elif a == 0 and b != 0:
                diag[i], diag[i + 1] = b, 0
                changed = True
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
