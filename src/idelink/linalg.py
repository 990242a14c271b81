"""Exact integer and rational linear algebra.

Everything runs on arbitrary-precision Python integers (Fraction for the few
rational solves); no floating point appears anywhere in this package.
Matrices are immutable value objects and every function is pure and
deterministic: the Smith form always reduces by the minimal-absolute-value
pivot, and solution sets are canonicalized against Hermite bases.

Integer kernels never go through the Smith form, whose transforms suffer
coefficient growth. ``integer_kernel`` takes a fraction-free (Bareiss)
nullspace, whose entries are minors of the input, then Hermite-reduces the
lattice of integral free coordinates modulo the nullspace denominator
(Domich-Kannan-Trotter), so no intermediate entry exceeds that denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        a, x0, y0 = -a, -x0, -y0
    return a, x0, y0


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major storage; dimensions may be zero."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")

    @staticmethod
    def from_rows(rows: list) -> "IntMatrix":
        m = len(rows)
        n = len(rows[0]) if m else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
            flat.extend(int(x) for x in r)
        return IntMatrix(m, n, tuple(flat))

    @staticmethod
    def from_columns(cols: list, rows: int | None = None) -> "IntMatrix":
        n = len(cols)
        if n == 0:
            if rows is None:
                raise ValueError("row count required for an empty column list")
            return IntMatrix(rows, 0, ())
        m = len(cols[0])
        if any(len(c) != m for c in cols):
            raise ValueError("ragged columns")
        if m == 0:
            return IntMatrix(0, n, ())
        return IntMatrix.from_rows([[cols[j][i] for j in range(n)] for i in range(m)])

    @staticmethod
    def zeros(rows: int, cols: int) -> "IntMatrix":
        return IntMatrix(rows, cols, (0,) * (rows * cols))

    @staticmethod
    def identity(n: int) -> "IntMatrix":
        return IntMatrix(n, n, tuple(1 if i == j else 0 for i in range(n) for j in range(n)))

    def __getitem__(self, key: tuple[int, int]) -> int:
        i, j = key
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(key)
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[int, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def column(self, j: int) -> tuple[int, ...]:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[int]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(
            self.cols,
            self.rows,
            tuple(self.entries[i * self.cols + j] for j in range(self.cols) for i in range(self.rows)),
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("inner dimensions disagree")
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            for j in range(other.cols):
                out.append(sum(ri[k] * other.entries[k * other.cols + j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, tuple(out))

    def mul_vector(self, vec) -> tuple[int, ...]:
        if len(vec) != self.cols:
            raise ValueError("vector length disagrees with column count")
        return tuple(sum(self.row(i)[k] * vec[k] for k in range(self.cols)) for i in range(self.rows))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and all(
            self[i, j] == self[j, i] for i in range(self.rows) for j in range(i)
        )

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row counts disagree")
    rows = [list(a.row(i)) + list(b.row(i)) for i in range(a.rows)]
    if not rows:
        return IntMatrix(0, a.cols + b.cols, ())
    return IntMatrix.from_rows(rows)


@dataclass(frozen=True)
class SmithForm:
    """Smith normal form U @ A @ V = D with U, V unimodular.

    The diagonal of D is nonnegative and forms a divisibility chain; zero
    entries come last. The reduction is deterministic for a given input.
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(self.d.rows, self.d.cols)
        return tuple(self.d[i, i] for i in range(k))


def _min_abs_position(m: list[list[int]], start: int) -> tuple[int, int] | None:
    best = None
    for i in range(start, len(m)):
        row = m[i]
        for j in range(start, len(row)):
            x = row[j]
            if x:
                key = (abs(x), i, j)
                if best is None or key < best[0]:
                    best = (key, i, j)
    if best is None:
        return None
    return best[1], best[2]


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize over the integers, tracking both unimodular transforms.

    Pivots are always chosen with minimal absolute value (ties broken by
    position) so the output is deterministic. After diagonalization the
    diagonal is made nonnegative and repaired into a divisibility chain.
    """
    m_rows, n_cols = a.rows, a.cols
    d = a.to_rows()
    u = IntMatrix.identity(m_rows).to_rows()
    v = IntMatrix.identity(n_cols).to_rows()

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def col_swap(i: int, j: int) -> None:
        for mat in (d, v):
            for row in mat:
                row[i], row[j] = row[j], row[i]

    def row_addmul(dst: int, src: int, k: int) -> None:
        for mat in (d, u):
            rd, rs = mat[dst], mat[src]
            for t in range(len(rd)):
                rd[t] += k * rs[t]

    def col_addmul(dst: int, src: int, k: int) -> None:
        for mat in (d, v):
            for row in mat:
                row[dst] += k * row[src]

    def row_transform(i: int, j: int, p: int, q: int, r: int, s: int) -> None:
        # rows (i, j) <- (p*row_i + q*row_j, r*row_i + s*row_j), with ps - qr = +-1
        for mat in (d, u):
            ri, rj = mat[i], mat[j]
            for t in range(len(ri)):
                x, y = ri[t], rj[t]
                ri[t] = p * x + q * y
                rj[t] = r * x + s * y

    def row_negate(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(m_rows, n_cols)
    while t < limit:
        piv = _min_abs_position(d, t)
        if piv is None:
            break
        pi, pj = piv
        if pi != t:
            row_swap(t, pi)
        if pj != t:
            col_swap(t, pj)
        while True:
            dirty = False
            for i in range(t + 1, m_rows):
                b = d[i][t]
                if not b:
                    continue
                pivot = d[t][t]
                if b % pivot == 0:
                    row_addmul(i, t, -(b // pivot))
                else:
                    g, x, y = _xgcd(pivot, b)
                    row_transform(t, i, x, y, -(b // g), pivot // g)
                    dirty = True
            for j in range(t + 1, n_cols):
                b = d[t][j]
                if not b:
                    continue
                pivot = d[t][t]
                if b % pivot == 0:
                    col_addmul(j, t, -(b // pivot))
                else:
                    # transpose of the row case: columns (t, j)
                    g, x, y = _xgcd(pivot, b)
                    p, q, r, s = x, -(b // g), y, pivot // g
                    for mat in (d, v):
                        for row in mat:
                            xx, yy = row[t], row[j]
                            row[t] = p * xx + r * yy
                            row[j] = q * xx + s * yy
                    dirty = True
            if not dirty and all(d[i][t] == 0 for i in range(t + 1, m_rows)):
                break
        t += 1

    rank = t
    for i in range(rank):
        if d[i][i] < 0:
            row_negate(i)

    # repair the divisibility chain d_i | d_{i+1} using unimodular moves only
    changed = True
    while changed:
        changed = False
        for i in range(rank - 1):
            ai, bi = d[i][i], d[i + 1][i + 1]
            if bi % ai == 0:
                continue
            changed = True
            col_addmul(i, i + 1, 1)
            g, x, y = _xgcd(ai, bi)
            row_transform(i, i + 1, x, y, -(bi // g), ai // g)
            # row i now holds (g, y*bi); clear the off-diagonal remainder
            col_addmul(i + 1, i, -(d[i][i + 1] // g))

    return SmithForm(
        u=IntMatrix.from_rows(u) if u else IntMatrix(0, 0, ()),
        d=IntMatrix.from_rows(d) if d else IntMatrix(0, n_cols, ()),
        v=IntMatrix.from_rows(v) if v else IntMatrix(0, 0, ()),
    )


def hermite_row_basis(rows: list) -> list[list[int]]:
    """Canonical Hermite basis of the row lattice spanned by ``rows``.

    Row echelon over the integers: pivots positive, entries above each pivot
    reduced into [0, pivot). The output depends only on the spanned lattice.
    """
    work = [list(int(x) for x in r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    r = 0
    for c in range(ncols):
        found = None
        for i in range(r, len(work)):
            if work[i][c]:
                found = i
                break
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        for i in range(r + 1, len(work)):
            while work[i][c]:
                a, b = work[r][c], work[i][c]
                if b % a == 0:
                    q = b // a
                    work[i] = [x - q * y for x, y in zip(work[i], work[r])]
                else:
                    g, x, y = _xgcd(a, b)
                    p, q2 = a // g, b // g
                    new_r = [x * s + y * t for s, t in zip(work[r], work[i])]
                    new_i = [-q2 * s + p * t for s, t in zip(work[r], work[i])]
                    work[r], work[i] = new_r, new_i
        if work[r][c] < 0:
            work[r] = [-x for x in work[r]]
        pivot = work[r][c]
        for k in range(r):
            q = work[k][c] // pivot
            if q:
                work[k] = [x - q * y for x, y in zip(work[k], work[r])]
        r += 1
    return work[:r]


def lattice_reduce(vec, basis_rows: list) -> list[int]:
    """Canonical representative of ``vec`` modulo the Hermite row basis."""
    x = [int(t) for t in vec]
    for b in basis_rows:
        c = next(i for i, t in enumerate(b) if t)
        q = x[c] // b[c]
        if q:
            x = [s - q * t for s, t in zip(x, b)]
    return x


def _fraction_free_nullspace(a: IntMatrix) -> tuple[list[int], list[int], list[list[int]], int]:
    """Rational kernel of ``a`` by fraction-free (Bareiss) Gauss-Jordan elimination.

    Pivot columns are chosen right to left, so a column is free exactly when
    some kernel vector has its first nonzero coordinate there. Returns
    ``(free, pivots, m, den)``: the free and pivot columns in ascending
    order, and an integer matrix ``m`` (one row per free column) with
    ``den >= 1`` such that ``x`` lies in the rational kernel if and only if
    ``x[pivots] = x[free] @ m / den``. Every intermediate entry is a minor of
    ``a``, so nothing grows past the Hadamard bound.
    """
    work = a.to_rows()
    den = 1
    pivot_row: dict[int, int] = {}
    for c in range(a.cols - 1, -1, -1):
        r = len(pivot_row)
        if r == len(work):
            break
        found = next((i for i in range(r, len(work)) if work[i][c]), None)
        if found is None:
            continue
        work[r], work[found] = work[found], work[r]
        prow = work[r]
        pv = prow[c]
        for i, row in enumerate(work):
            if i != r:
                f = row[c]
                work[i] = [(pv * x - f * y) // den for x, y in zip(row, prow)]
        den = pv
        pivot_row[c] = r
    pivots = sorted(pivot_row)
    free = [c for c in range(a.cols) if c not in pivot_row]
    # every pivot entry now equals den: den * x_p + sum_f work[row(p)][f] * x_f = 0
    sign = -1 if den > 0 else 1
    m = [[sign * work[pivot_row[p]][f] for p in pivots] for f in free]
    return free, pivots, m, abs(den)


def _hermite_basis_mod(rows: list, width: int, d: int) -> list[list[int]]:
    """Canonical Hermite basis of span(rows) + d * Z^width, reduced mod d throughout.

    The lattice holds d * Z^width, so every entry can be kept in [0, d)
    (Domich-Kannan-Trotter; Cohen, Alg. 2.4.8) and the result has exactly one
    row per column. It equals ``hermite_row_basis(rows + d * identity)``.
    """
    if d < 1:
        raise ArithmeticError(f"Hermite modulus must be positive, got {d}")
    work = [[x % d for x in r] for r in rows]
    basis = []
    for c in range(width):
        # merge column c of every row into one pivot row; the others end with 0 there
        piv = None
        rest = []
        for w in work:
            b = w[c]
            if not b:
                if any(w):
                    rest.append(w)
            elif piv is None:
                piv = w
            else:
                a = piv[c]
                g, x, y = _xgcd(a, b)
                p, q = a // g, b // g
                cleared = [(p * t - q * s) % d for s, t in zip(piv, w)]
                piv = [(x * s + y * t) % d for s, t in zip(piv, w)]
                if any(cleared):
                    rest.append(cleared)
        if piv is None:
            row = [0] * width
            row[c] = d
        else:
            # (piv, d e_c) -> (u piv + v d e_c, -(d/h) piv + (a/h) d e_c) is unimodular
            h, u, _ = _xgcd(piv[c], d)
            row = [u * s % d for s in piv]
            left = [(d // h) * s % d for s in piv]
            if any(left):
                rest.append(left)
        basis.append(row)
        work = rest
    # reduce above each pivot; d * Z^width lies in the lattice, so entries stay in [0, d)
    for r in range(width - 2, -1, -1):
        row = basis[r]
        for i in range(r + 1, width):
            q = row[i] // basis[i][i]
            if q:
                row[i:] = [(s - q * t) % d for s, t in zip(row[i:], basis[i][i:])]
    return basis


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Hermite basis of {x : a @ x = 0} over the integers, as matrix columns.

    No Smith form is involved. A fraction-free nullspace with pivot columns
    chosen right to left gives the free columns, which are exactly the
    Hermite pivot columns of the kernel, and ``x_pivots = y @ m / den`` for
    the free coordinates ``y``. The integral kernel is the lift of the
    lattice {y : y @ m = 0 mod den}; its Hermite basis is the identity block
    of the Hermite basis of ``[m | I] + den * Z^n``, computed modulo ``den``,
    so no entry of that reduction grows past ``den``. The lifted rows are
    already reduced above their pivots, which all lie among the free columns,
    so the output is the canonical, saturated, sign-normalized Hermite basis
    of the kernel.
    """
    free, pivots, m, den = _fraction_free_nullspace(a)
    k, p = len(free), len(pivots)
    if not k:
        return IntMatrix(a.cols, 0, ())
    gens = [m[i] + [1 if j == i else 0 for j in range(k)] for i in range(k)]
    cols = []
    for row in _hermite_basis_mod(gens, p + k, den)[p:]:
        y = row[p:]
        x = [0] * a.cols
        for f, t in zip(free, y):
            x[f] = t
        for j, c in enumerate(pivots):
            q, rem = divmod(sum(t * mi[j] for t, mi in zip(y, m)), den)
            if rem:
                raise ArithmeticError("kernel vector does not lift to an integer vector")
            x[c] = q
        cols.append(x)
    return IntMatrix.from_columns(cols, rows=a.cols)


def _solve_via_snf(snf: SmithForm, a_cols: int, c) -> list[int] | None:
    """One integer solution x of A x = c given the Smith form of A."""
    uc = snf.u.mul_vector(c)
    diag = snf.diagonal
    w = [0] * a_cols
    for i in range(len(uc)):
        d = diag[i] if i < len(diag) else 0
        if d:
            if uc[i] % d:
                return None
            w[i] = uc[i] // d
        elif uc[i]:
            return None
    return list(snf.v.mul_vector(w))


def solve_integer(a: IntMatrix, c) -> list[int] | None:
    """Some integer solution of a @ x = c, or None when none exists."""
    if len(c) != a.rows:
        raise ValueError("right-hand side length disagrees with row count")
    return _solve_via_snf(smith_normal_form(a), a.cols, c)


def solve_mod_subgroup(a: IntMatrix, b: IntMatrix, c) -> list[int] | None:
    """Canonical x with a @ x - c in the integer column span of b, else None.

    The solution is unique as a coset of the projected kernel lattice; the
    representative returned is the Hermite-reduced one, so equal inputs give
    identical output.
    """
    if a.rows != b.rows or len(c) != a.rows:
        raise ValueError("incompatible shapes")
    combined = hstack(a, b)
    full = solve_integer(combined, c)
    if full is None:
        return None
    p = a.cols
    x0 = full[:p]
    ker = integer_kernel(combined)
    proj = [[ker[i, j] for i in range(p)] for j in range(ker.cols)]
    basis = hermite_row_basis(proj)
    return lattice_reduce(x0, basis)


def determinant(a: IntMatrix) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    n = a.rows
    if n == 0:
        return 1
    m = a.to_rows()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_rational(a: IntMatrix, c) -> list[Fraction] | None:
    """Solve a @ x = c over the rationals (a square, nonsingular preferred).

    Returns None when the system is inconsistent; raises on underdetermined
    square systems only if inconsistent detection fails to apply.
    """
    m, n = a.rows, a.cols
    if len(c) != m:
        raise ValueError("right-hand side length disagrees with row count")
    aug = [[Fraction(a[i, j]) for j in range(n)] + [Fraction(c[i])] for i in range(m)]
    pivots: list[tuple[int, int]] = []
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, m) if aug[i][col] != 0), None)
        if piv is None:
            continue
        aug[r], aug[piv] = aug[piv], aug[r]
        aug[r] = [x / aug[r][col] for x in aug[r]]
        for i in range(m):
            if i != r and aug[i][col] != 0:
                f = aug[i][col]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
        pivots.append((r, col))
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            return None
    x = [Fraction(0)] * n
    for prow, pcol in pivots:
        x[pcol] = aug[prow][n]
    return x
