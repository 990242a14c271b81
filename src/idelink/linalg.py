"""Exact integer and rational linear algebra.

Everything runs on arbitrary-precision Python integers (Fraction for the few
rational solves); no floating point appears anywhere in this package.
Matrices are immutable value objects and every function is pure and
deterministic: the Smith form always reduces by the minimal-absolute-value
pivot, and solution sets are canonicalized against Hermite bases.

One fraction-free (Bareiss) Gauss-Jordan elimination, ``_gauss_jordan``,
owns the pivot rule, the growth bound (every entry is a minor of its input)
and the exactness check. Its readers differ in the column order they pass,
in whether the rows above each pivot are cleared, and in what they read:
``rank_and_minor`` (and ``determinant``) reads the rank and a signed
maximal minor, columns left to right, and reads no row, so it leaves the
rows above alone; ``leading_block_inverse`` reads the inverse (n, den) of
the leading square block off ``[top | I]``, which answers element tests
against every surgery matrix; ``integer_kernel`` reads the rational
kernel, columns right to left, so the free columns are the Hermite pivot
columns of the kernel, and Hermite-reduces its integral lattice modulo the
nullspace denominator (Domich-Kannan-Trotter). No kernel takes the Smith
form, whose transforms suffer coefficient growth.

Every lattice question "which x satisfy a @ x in colspan(b)?" (principal
ideles, subgroups generated by classes, solutions modulo a subgroup) goes
through ``preimage_lattice``, which slices the canonical kernel basis of
``[a | b]``. ``solve_mod_subgroup`` reads its canonical solution off the
same lattice, and ``solve_integer`` is that solution modulo zero.

Invariant factors never take the Smith form either. Any nonzero maximal
minor D of a rank-r matrix (``rank_and_minor``) is a multiple of its
nonzero invariant factors d_1 ... d_r, so the lattice of its columns plus
D * Z^n has Smith diagonal (d_1, ..., d_r, D, ..., D). ``smith_diagonal_mod``
computes that diagonal from a Hermite basis modulo D and a transform-free
Smith reduction of that triangular basis, every entry kept below D
(Domich-Kannan-Trotter; Hafner-McCurley). ``smith_normal_form`` remains for
callers that read its transforms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd

from .errors import json_int


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
    """Immutable integer matrix, row-major storage; dimensions may be zero.

    A float, bool or string entry raises ``BadInput``, whichever constructor
    built the matrix.
    """

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        for x in self.entries:
            if x.__class__ is not int:
                json_int(x, "matrix entry")

    @staticmethod
    def from_rows(rows: list) -> "IntMatrix":
        """Matrix of the given rows; a float, bool or string entry raises ``BadInput``."""
        m = len(rows)
        n = len(rows[0]) if m else 0
        flat: list[int] = []
        for r in rows:
            if len(r) != n:
                raise ValueError("ragged rows")
            flat.extend(r)
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
        return tuple(sum(x * y for x, y in zip(self.row(i), vec)) for i in range(self.rows))

    def is_symmetric(self) -> bool:
        return self.rows == self.cols and self.entries == self.transpose().entries

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows)) + "]"


def hstack(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if a.rows != b.rows:
        raise ValueError("row counts disagree")
    return IntMatrix(a.rows, a.cols + b.cols, tuple(x for i in range(a.rows) for x in a.row(i) + b.row(i)))


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


def _gauss_jordan(work: list[list[int]], order, reduced: bool) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss 1968) Gauss-Jordan elimination of the rows ``work``, in place.

    Columns are visited in ``order``. Each takes as pivot the first row at or
    below the next pivot row that is nonzero there, swapped into place, or is
    skipped when there is none; a pivot clears its column in the rows below
    it, and in those above it too when ``reduced``, and that column is then
    deleted, as no reader needs it again. Returns ``(pivots, den, sign)``:
    the pivot columns as found (pivot i in row i), the last pivot (1 if none)
    and the sign of the row permutation; den is, up to sign, the minor on the
    pivot rows and columns, and ``sign * den`` the determinant of a square
    nonsingular input. Every entry is, up to sign, a minor of the input, and
    every division is checked exact.
    """
    live = list(range(len(work[0]))) if work else []
    # total: the sum of the entries the next step may read; a step's floor
    # remainders share the sign of den, so they all vanish iff their sum does
    total = sum(map(sum, work))
    pivots: list[int] = []
    den = sign = 1
    for c in order:
        r = len(pivots)
        if r == len(work):
            break
        j = live.index(c)
        found = next((i for i in range(r, len(work)) if work[i][j]), None)
        if found is None:
            continue
        if found != r:
            work[r], work[found] = work[found], work[r]
            sign = -sign
        del live[j]
        prow = work[r]
        pv = prow.pop(j)
        rows = work[:r] + work[r + 1 :] if reduced else work[r + 1 :]
        column = [row.pop(j) for row in rows]
        fsum, psum = sum(column), sum(prow)
        for row, f in zip(rows, column):
            for t in range(len(row)):
                row[t] = (pv * row[t] - f * prow[t]) // den
        after = sum(map(sum, rows))
        if den * after != pv * (total - pv - fsum - psum) - fsum * psum:
            raise ArithmeticError("inexact division in fraction-free elimination")
        total = after + psum if reduced else after
        den = pv
        pivots.append(c)
    return pivots, den, sign


def _fraction_free_nullspace(a: IntMatrix) -> tuple[list[int], list[int], list[list[int]], int]:
    """Rational kernel of ``a`` by ``_gauss_jordan``, pivot columns chosen right to left.

    A column is then free exactly when some kernel vector has its first
    nonzero coordinate there. Returns ``(free, pivots, m, den)``: the free
    and pivot columns in ascending order, and an integer matrix ``m`` (one
    row per free column) with ``den >= 1`` such that ``x`` lies in the
    rational kernel if and only if ``x[pivots] = x[free] @ m / den``.
    """
    work = a.to_rows()
    found, den, _ = _gauss_jordan(work, range(a.cols - 1, -1, -1), True)
    # row i reads den * x[found[i]] + sum_t work[i][t] * x[free[t]] = 0
    rows = sorted(range(len(found)), key=found.__getitem__)
    free = [c for c in range(a.cols) if c not in found]
    sign = -1 if den > 0 else 1
    m = [[sign * work[i][t] for i in rows] for t in range(len(free))]
    return free, sorted(found), m, abs(den)


def _hermite_basis_mod(rows: list, width: int, d: int) -> list[list[int]]:
    """Canonical Hermite basis of span(rows) + d * Z^width, reduced mod d throughout.

    The lattice holds d * Z^width, so every entry can be kept in [0, d)
    (Domich-Kannan-Trotter; Cohen, Alg. 2.4.8) and the result has exactly one
    row per column: the upper triangular Hermite basis of that full-rank
    lattice, pivots positive and dividing d, entries above each pivot in
    [0, pivot).
    """
    if d < 1:
        raise ArithmeticError(f"Hermite modulus must be positive, got {d}")
    work = [[x % d for x in r] for r in rows]
    basis = []
    for c in range(width):
        # every row of work holds only its entries from column c on, the earlier
        # ones being 0; merge column c into one pivot row, the others end with 0
        # there and lose that entry
        piv = None
        rest = []
        for w in work:
            b = w[0]
            if not b:
                if any(w):
                    rest.append(w[1:])
            elif piv is None:
                piv = w
            else:
                a = piv[0]
                if b % a == 0:
                    k = b // a
                    cleared = [(t - k * s) % d for s, t in zip(piv[1:], w[1:])]
                else:
                    g, x, y = _xgcd(a, b)
                    p, q = a // g, b // g
                    cleared = [(p * t - q * s) % d for s, t in zip(piv[1:], w[1:])]
                    piv = [(x * s + y * t) % d for s, t in zip(piv, w)]
                if any(cleared):
                    rest.append(cleared)
        if piv is None:
            row = [d] + [0] * (width - c - 1)
        else:
            # (piv, d e_c) -> (u piv + v d e_c, -(d/h) piv + (a/h) d e_c) is unimodular
            h, u, _ = _xgcd(piv[0], d)
            row = [u * s % d for s in piv]
            left = [(d // h) * s % d for s in piv[1:]]
            if any(left):
                rest.append(left)
        basis.append([0] * c + row)
        work = rest
    # reduce above each pivot; d * Z^width lies in the lattice, so entries stay in [0, d)
    for r in range(width - 2, -1, -1):
        row = basis[r]
        for i in range(r + 1, width):
            q = row[i] // basis[i][i]
            if q:
                row[i:] = [(s - q * t) % d for s, t in zip(row[i:], basis[i][i:])]
    return basis


def smith_diagonal_mod(rows: list, width: int, d: int) -> list[int]:
    """Smith diagonal of the lattice span(rows) + d * Z^width, computed mod d.

    The lattice holds d * Z^width, so its Smith form can be taken on the
    Hermite basis from ``_hermite_basis_mod`` with every entry reduced mod d
    (Hafner-McCurley; Cohen, Alg. 2.4.14): a row move recombines generators
    and a column move changes the basis of Z^width, and dropping a multiple
    of d leaves the lattice unchanged. A pivot p left alone in its row and
    column stands for the factor gcd(p, d). No transform is kept, so no entry
    ever reaches d. Returns ``width`` positive entries in divisibility order,
    each dividing d, whose product is the index of the lattice in Z^width.
    """
    m = [[x % d for x in row] for row in _hermite_basis_mod(rows, width, d)]
    diagonal = []
    for t in range(width):
        while True:
            # clear column t below the pivot with unimodular row moves
            for i in range(t + 1, width):
                b = m[i][t]
                if not b:
                    continue
                a, rt, ri = m[t][t], m[t], m[i]
                if a and b % a == 0:
                    k = b // a
                    m[i] = [(y - k * x) % d for x, y in zip(rt, ri)]
                else:
                    g, u, v = _xgcd(a, b)
                    p, q = a // g, b // g
                    m[t] = [(u * x + v * y) % d for x, y in zip(rt, ri)]
                    m[i] = [(p * y - q * x) % d for x, y in zip(rt, ri)]
            # clear row t right of the pivot with unimodular column moves
            for j in range(t + 1, width):
                b = m[t][j]
                if not b:
                    continue
                a = m[t][t]
                if a and b % a == 0:
                    k = b // a
                    for row in m[t:]:
                        row[j] = (row[j] - k * row[t]) % d
                else:
                    g, u, v = _xgcd(a, b)
                    p, q = a // g, b // g
                    for row in m[t:]:
                        x, y = row[t], row[j]
                        row[t] = (u * x + v * y) % d
                        row[j] = (p * y - q * x) % d
            # a column move that shrank the pivot may have refilled column t
            if all(m[i][t] == 0 for i in range(t + 1, width)):
                break
        diagonal.append(gcd(m[t][t], d))
    # Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b) turns the diagonal into a divisibility chain
    for i in range(width):
        for j in range(i + 1, width):
            a, b = diagonal[i], diagonal[j]
            g = gcd(a, b)
            diagonal[i], diagonal[j] = g, a // g * b
    return diagonal


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


def preimage_lattice(a: IntMatrix, b: IntMatrix) -> list[list[int]]:
    """Canonical Hermite row basis of {x : a @ x lies in the integer column span of b}.

    The lattice is the projection of ker [a | b] onto its first ``a.cols``
    coordinates. ``integer_kernel`` returns the canonical Hermite basis of
    that kernel, each pivot at its row's first nonzero entry, so the rows
    whose pivot falls among those coordinates, cut down to them, are already
    the Hermite basis of the projection; the other rows project to zero.
    """
    ker = integer_kernel(hstack(a, b))
    rows = [list(ker.column(j)[: a.cols]) for j in range(ker.cols)]
    return [r for r in rows if any(r)]


def hermite_row_basis(rows: list) -> list[list[int]]:
    """Canonical Hermite basis of the row lattice spanned by ``rows``.

    That lattice is {x : x lies in the column span of rows^T}, so this is
    ``preimage_lattice(I, rows^T)``: pivots positive, entries above each
    pivot reduced into [0, pivot), zero rows dropped.
    """
    if not rows:
        return []
    n = len(rows[0])
    return preimage_lattice(IntMatrix.identity(n), IntMatrix.from_columns(rows, rows=n))


def leading_block_inverse(a: IntMatrix) -> tuple[IntMatrix, int] | None:
    """Fraction-free inverse ``(n, den)`` of the leading ``a.cols x a.cols`` block.

    With ``top`` that block, ``top @ n = den * I`` and ``den = |det top| >= 1``.
    ``_gauss_jordan`` on ``[top | I]`` turns the left block into den * I and
    deletes it, leaving den * top^-1. Returns None when ``a`` has fewer rows
    than columns or the block is singular.
    """
    k = a.cols
    if a.rows < k:
        return None
    work = [list(a.row(i)) + [1 if j == i else 0 for j in range(k)] for i in range(k)]
    pivots, den, _ = _gauss_jordan(work, range(k), True)
    if len(pivots) < k:
        return None
    sign = -1 if den < 0 else 1
    n = IntMatrix(k, k, tuple(sign * x for row in work for x in row))
    return n, sign * den


def block_solve(a: IntMatrix, inverse: tuple[IntMatrix, int], c) -> tuple[int, ...] | None:
    """Integer t with ``a @ t = den * c``, or None when ``a @ x = c`` has no rational solution.

    ``inverse`` is ``leading_block_inverse(a) = (n, den)``. The leading block
    fixes ``t = n @ c[:a.cols]``; only the rows below it are checked.
    """
    n, den = inverse
    k = a.cols
    t = n.mul_vector(c[:k])
    for i in range(k, a.rows):
        if sum(x * y for x, y in zip(a.row(i), t)) != den * c[i]:
            return None
    return t


def solve_integer(a: IntMatrix, c) -> list[int] | None:
    """Some integer solution of a @ x = c, or None when none exists.

    It is the canonical solution of ``solve_mod_subgroup`` against the zero
    subgroup, so equal inputs give identical output.
    """
    if len(c) != a.rows:
        raise ValueError("right-hand side length disagrees with row count")
    return solve_mod_subgroup(a, IntMatrix(a.rows, 0, ()), c)


def solve_each_mod_subgroup(a: IntMatrix, b: IntMatrix, targets) -> list[list[int]] | None:
    """Canonical x_i with a @ x_i - targets[i] in colspan(b) for every i, else None.

    One lattice answers every target. With m targets, the Hermite basis of
    {(z, x) : a @ x - sum_i z_i targets[i] in colspan(b)} starts with the rows
    (e_i, x_i) exactly when each target is reachable; the rows after them
    are the Hermite basis of ``preimage_lattice(a, b)``, and each x_i is
    already reduced against them, so it is the canonical representative of
    its solution coset. No Smith form is involved.
    """
    if a.rows != b.rows or any(len(c) != a.rows for c in targets):
        raise ValueError("incompatible shapes")
    m = len(targets)
    negated = IntMatrix.from_columns([[-x for x in c] for c in targets], rows=a.rows)
    basis = preimage_lattice(hstack(negated, a), b)
    if len(basis) < m or any(basis[i][i] != 1 for i in range(m)):
        return None
    return [row[m:] for row in basis[:m]]


def solve_mod_subgroup(a: IntMatrix, b: IntMatrix, c) -> list[int] | None:
    """Canonical x with a @ x - c in the integer column span of b, else None.

    The solution is unique as a coset of ``preimage_lattice(a, b)``; the
    representative returned is reduced against that Hermite basis, so equal
    inputs give identical output.
    """
    solved = solve_each_mod_subgroup(a, b, [c])
    return None if solved is None else solved[0]


def rank_and_minor(a: IntMatrix) -> tuple[int, int]:
    """Rank r of ``a`` and a nonzero r x r minor, by ``_gauss_jordan`` without reduction.

    Only the pivots are read, so no pivot clears the rows above it: that
    would double the cost of every manifold load. Columns are taken left to
    right and a column with no pivot left is skipped, so the minor sits on
    the first r independent columns; it is 1 when r = 0. Up to sign it is a
    minor of ``a``, and for a square nonsingular ``a`` the determinant.
    """
    pivots, den, sign = _gauss_jordan(a.to_rows(), range(a.cols), False)
    return len(pivots), sign * den


def determinant(a: IntMatrix) -> int:
    """Exact determinant: the full-rank minor of ``rank_and_minor``, else 0."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    rank, minor = rank_and_minor(a)
    return minor if rank == a.rows else 0


def solve_rational(a: IntMatrix, c) -> list[Fraction] | None:
    """Solve a @ x = c over the rationals (a square, nonsingular preferred).

    Returns None when the system is inconsistent; raises on underdetermined
    square systems only if inconsistent detection fails to apply.
    """
    from fractions import Fraction

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
