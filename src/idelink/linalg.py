"""Exact integer and rational linear algebra.

Everything runs on arbitrary-precision Python integers (Fraction for the few
rational solves); no floating point appears anywhere in this package.
Matrices are immutable value objects and every function is pure and
deterministic: the Smith form always pivots on the least entry, and solution
sets are canonicalized against Hermite bases.

One fraction-free (Bareiss) Gauss-Jordan elimination, ``_gauss_jordan``,
owns the pivot rule, the growth bound (every entry is a minor of its input)
and the exactness check. Its two readers differ in the column order they
pass, in whether the rows above each pivot are cleared, and in what they
read: ``FractionFreeLU`` runs the forward elimination, columns left to
right, leaving the rows above each pivot alone, and keeps its record, a
fraction-free LU (Nakos-Turner-Williams) of a matrix of any shape. The
record gives the rank and a signed maximal minor (``determinant`` reads
them), and for a square nonsingular matrix it solves every right-hand
side, so one elimination of a surgery matrix gives its determinant and
every solve; ``kernel_basis`` (``integer_kernel``) reads the
rational kernel, columns right to left, so the free columns are the
Hermite pivot columns of the kernel, and lifts ``kernel_mod`` of its free
coordinates; rows that already stand over a denominator, as the principal
ideles' knot rows stand over |det Lambda|, start the elimination from it.
No kernel takes the Smith form, whose transforms suffer coefficient growth.

``kernel_mod`` is the one construction of the vectors vanishing mod d,
{y : sum_i y_i v_i = 0 mod d}: the tail of one Hermite basis modulo d
(Domich-Kannan-Trotter). The lift in ``kernel_basis``, the class group's
torsion lattice, the principal divisors Y, the principal ideles' cut to
Y and the fuzz harness's Z/n covers all read it.

Every lattice question "which x satisfy a @ x in colspan(b)?" (principal
ideles, subgroups generated by classes, solutions modulo a subgroup) goes
through ``preimage_lattice``, which slices the canonical kernel basis of
``[a | b]``. ``solve_mod_subgroup`` reads its canonical solution off the
same lattice, and ``solve_integer`` is that solution modulo zero.

Invariant factors never take the Smith form either. Any nonzero maximal
minor D of a rank-r matrix (``FractionFreeLU.minor``) is a multiple of its
nonzero invariant factors d_1 ... d_r, so the lattice of its columns plus
D * Z^n has Smith diagonal (d_1, ..., d_r, D, ..., D). One modular engine,
``hermite_basis_mod``, reaches it, every entry kept below D
(Domich-Kannan-Trotter; Hafner-McCurley): ``smith_diagonal_mod`` alternates
its passes on rows and columns until the basis is diagonal
(Kannan-Bachem). A caller that keeps the Hermite basis passes its columns,
so the first pass is already a column pass; ``hermite_coordinates`` writes
a lattice vector in that basis by back-substitution. ``smith_normal_form``
remains for the one reader of its transforms: the admissibility
certificate, on the principal divisors. It pivots on the least entry and
divides with the nearest remainder, so the diagonal needs no repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from operator import mul

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


def smith_normal_form(a: IntMatrix) -> SmithForm:
    """Diagonalize over the integers by least-remainder pivoting, tracking both transforms.

    Corner t takes as pivot p the trailing block's entry of least absolute
    value (the first in row-major order on ties), moved to (t, t). Row moves
    clear column t by the nearest quotient, so a remainder is at most |p| / 2
    (Havas-Majewski 1997; Cohen, GTM 138, Alg. 2.4.14); a nonzero one
    restarts the corner. Column moves then clear row t, a nonzero remainder
    restarting it too. So does a trailing entry that p does not divide,
    after its row is added to row t, whose pass then leaves such a
    remainder. The least entry thus shrinks at least every second restart,
    so the loop ends, and p divides every trailing entry once the corner is
    done: the diagonal comes out as the divisibility chain. An entry of
    absolute value 1 ends the scan for the least one, and a unit pivot
    divides every entry, so it skips the divisibility scan.
    """
    m, n = a.rows, a.cols
    d = a.to_rows()
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    w = [[int(i == j) for j in range(n)] for i in range(n)]  # V's columns: a column move on V is a row move on w
    t = 0
    while t < min(m, n):
        best = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, i, j = best
        d[t], d[i] = d[i], d[t]
        u[t], u[i] = u[i], u[t]
        if j != t:
            w[t], w[j] = w[j], w[t]
            for row in d[t:]:
                row[t], row[j] = row[j], row[t]
        # rows above t and columns left of t are clear, so no move reads them
        prow, urow = d[t], u[t]
        p, tail = prow[t], prow[t:]
        for i in range(t + 1, m):
            row = d[i]
            if row[t]:
                q = (2 * row[t] + p) // (2 * p)
                row[t:] = [x - q * y for x, y in zip(row[t:], tail)]
                u[i] = [x - q * y for x, y in zip(u[i], urow)]
        if any(row[t] for row in d[t + 1 :]):
            continue
        # column t is clear below p, so a column move changes only row t of d
        for j in range(t + 1, n):
            if prow[j]:
                q = (2 * prow[j] + p) // (2 * p)
                prow[j] -= q * p
                w[j] = [x - q * y for x, y in zip(w[j], w[t])]
        if any(prow[t + 1 :]):
            continue
        bad = None if abs(p) == 1 else next((i for i in range(t + 1, m) if any(x % p for x in d[i][t + 1 :])), None)
        if bad is not None:
            d[t] = [x + y for x, y in zip(prow, d[bad])]
            u[t] = [x + y for x, y in zip(urow, u[bad])]
            continue
        if p < 0:
            d[t] = [-x for x in prow]
            u[t] = [-x for x in urow]
        t += 1
    return SmithForm(
        u=IntMatrix(m, m, tuple(x for row in u for x in row)),
        d=IntMatrix(m, n, tuple(x for row in d for x in row)),
        v=IntMatrix(n, n, tuple(row[i] for i in range(n) for row in w)),
    )


def _gauss_jordan(work: list[list[int]], order, reduced: bool, den: int = 1, steps=None) -> tuple[list[int], int, int]:
    """Fraction-free (Bareiss 1968) Gauss-Jordan elimination of the rows ``work``, in place.

    Columns are visited in ``order``. Each takes as pivot the first row at or
    below the next pivot row that is nonzero there, swapped into place, or is
    skipped when there is none; a pivot clears its column in the rows below
    it, and in those above it too when ``reduced``, and that column is then
    deleted, as no reader needs it again. Returns ``(pivots, den, sign)``:
    the pivot columns as found (pivot i in row i), the last pivot (``den`` if
    none) and the sign of the row permutation; den is, up to sign, the minor
    on the pivot rows and columns, and ``sign * den`` the determinant of a
    square nonsingular input. Every entry is, up to sign, a minor of the
    input, and every division is checked exact.

    A ``den`` other than 1 goes on from a state some elimination reached over
    that last pivot, its pivot rows left out: the rows must be that state's,
    and they stay its minors. Given a list ``steps``, a forward (not
    ``reduced``) run appends per pivot the row it swapped into place, the
    pivot, the multipliers it popped below it and the pivot row, which no
    later step touches: ``FractionFreeLU`` replays them on a right-hand side.
    """
    live = list(range(len(work[0]) if work else 0))
    pivots: list[int] = []
    # total: the sum of the entries the next step may read; a step's floor
    # remainders share the sign of den, so they all vanish iff their sum does
    total = sum(map(sum, work))
    sign = 1
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
        if steps is not None:
            steps.append((found, pv, column, prow))
        den = pv
        pivots.append(c)
    return pivots, den, sign


class FractionFreeLU:
    """Fraction-free LU factorization of an integer matrix A of any shape.

    The record of ``_gauss_jordan``'s forward elimination of A, columns left
    to right (Bareiss 1968; Nakos-Turner-Williams 1997): per pivot, the row
    swapped into place, the pivot, the multipliers cleared below it and the
    pivot row. A column with no pivot left is skipped, so ``rank`` is the
    rank r of A and ``minor`` the signed r x r minor on its first r
    independent columns (1 when r = 0); for a square nonsingular A it is
    det A, and ``solve`` then answers every right-hand side from the one
    elimination.
    """

    __slots__ = ("matrix", "rank", "minor", "_steps")

    def __init__(self, a: IntMatrix):
        steps: list = []
        pivots, den, sign = _gauss_jordan(a.to_rows(), range(a.cols), False, steps=steps)
        self.matrix = a
        self.rank = len(pivots)
        self.minor = sign * den
        self._steps = steps

    @property
    def size(self) -> int:
        return self.matrix.rows

    def solve(self, c) -> tuple[int, ...]:
        """The integer t with A @ t = |det A| * c, for a nonsingular A.

        The steps are replayed on c, as on one more column of A, and the
        triangular system of the pivot rows is back-substituted. A's solution
        is unique, so one final check of A @ t = |det A| * c proves every
        division exact; ArithmeticError when it fails, as on a corrupted
        factor, or when A is not square or singular.
        """
        a, steps = self.matrix, self._steps
        if self.rank < a.rows or a.rows != a.cols:
            raise ArithmeticError("solve against a non-square or singular matrix")
        if len(c) != a.rows:
            raise ValueError("right-hand side length disagrees with the factor's size")
        x = list(c)
        den = 1
        for r, (found, pv, column, _) in enumerate(steps):
            if found != r:
                x[r], x[found] = x[found], x[r]
            xr = x[r]
            x[r + 1 :] = [(pv * y - f * xr) // den for y, f in zip(x[r + 1 :], column)]
            den = pv
        # den is the last pivot, det A up to sign; pivot row r reads
        # pv_r * z_r + row_r . z[r + 1:] = den * x_r for z = den * A^-1 c
        z: list[int] = []
        for r in range(len(steps) - 1, -1, -1):
            _, pv, _, row = steps[r]
            z.insert(0, (den * x[r] - sum(map(mul, row, z))) // pv)
        t = tuple(z) if den > 0 else tuple(-v for v in z)
        den = abs(den)
        if any(sum(map(mul, a.row(i), t)) != den * v for i, v in enumerate(c)):
            raise ArithmeticError("inexact division in a fraction-free solve")
        return t


def leading_block_lu(a: IntMatrix) -> FractionFreeLU | None:
    """``FractionFreeLU`` of the leading ``a.cols x a.cols`` block, or None when ``a`` has fewer rows."""
    k = a.cols
    if a.rows < k:
        return None
    return FractionFreeLU(a if a.rows == k else IntMatrix(k, k, a.entries[: k * k]))


def hermite_basis_mod(rows: list, width: int, d: int) -> list[list[int]]:
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
            elif piv is not None and b % piv[0] == 0:
                # entries stay in [0, d), so w moves only where the pivot row is nonzero
                k = b // piv[0]
                cleared = w[1:]
                for j in support:
                    cleared[j] = (cleared[j] - k * tail[j]) % d
                if any(cleared):
                    rest.append(cleared)
            else:
                if piv is not None:
                    g, x, y = _xgcd(piv[0], b)
                    p, q = piv[0] // g, b // g
                    cleared = [(p * t - q * s) % d for s, t in zip(tail, w[1:])]
                    if any(cleared):
                        rest.append(cleared)
                    w = [(x * s + y * t) % d for s, t in zip(piv, w)]
                piv, tail = w, w[1:]
                support = [j for j, v in enumerate(tail) if v]
        if piv is None:
            row = [d] + [0] * (width - c - 1)
        else:
            # (piv, d e_c) -> (u piv + v d e_c, -(d/h) piv + (a/h) d e_c) is unimodular
            h, u, _ = _xgcd(piv[0], d)
            row = [u * s % d for s in piv]
            left = [(d // h) * s % d for s in tail]
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


def kernel_mod(vectors: list, d: int) -> list[list[int]]:
    """Canonical Hermite basis of {y in Z^k : sum_i y_i vectors[i] = 0 mod d}, k = len(vectors).

    It is the tail block of ``hermite_basis_mod`` of the rows (v_i | e_i)
    plus d * Z^(p + k), p the vectors' length: the rows past p are the
    (0 | y) in that lattice. So it has k rows, pivots dividing d.
    """
    k, p = len(vectors), len(vectors[0]) if vectors else 0
    gens = [list(v) + [int(j == i) for j in range(k)] for i, v in enumerate(vectors)]
    return [row[p:] for row in hermite_basis_mod(gens, p + k, d)[p:]]


def smith_diagonal_mod(rows: list, width: int, d: int) -> list[int]:
    """Smith diagonal of the lattice span(rows) + d * Z^width, computed mod d.

    ``hermite_basis_mod`` is the one elimination. A pass on the rows gives
    the lattice's Hermite basis B; while B is not diagonal, the next pass
    takes the Hermite basis of B's columns (Kannan-Bachem 1979). B^T has the
    Smith form of B, and its rows span a lattice holding d * Z^width too
    (d * B^-1 is integral, and d * I = (d * B^-1)^T B^T), so every pass stays
    mod d (Cohen, Alg. 2.4.8). Each diagonal pivot then stands for
    gcd(pivot, d), and gcd/lcm swaps order the factors.

    The loop ends. Past the first pass, take the first position k whose row
    or column is not yet clear; the clear ones before it split off and no
    pass touches them. The next pass's pivot at k is the gcd of row k of B
    with d, so it divides the old pivot; when it is no proper divisor, row k
    was all multiples of the pivot and the pass clears position k. A pivot
    divides d, so it shrinks properly fewer than d.bit_length() times, and
    ``width * d.bit_length()`` passes after the first clear every position.
    Past that cap the loop raises ArithmeticError. Returns ``width``
    positive entries in divisibility order, each dividing d, whose product
    is the index of the lattice in Z^width.
    """
    basis = hermite_basis_mod(rows, width, d)
    passes = 0
    while any(any(row[i + 1 :]) for i, row in enumerate(basis)):
        if passes == width * d.bit_length():
            raise ArithmeticError(f"Smith diagonal mod {d} not reached after {passes + 1} Hermite passes")
        basis = hermite_basis_mod(list(zip(*basis)), width, d)
        passes += 1
    diagonal = [gcd(row[i], d) for i, row in enumerate(basis)]
    # Z/a + Z/b = Z/gcd(a, b) + Z/lcm(a, b) turns the diagonal into a divisibility chain
    for i in range(width):
        for j in range(i + 1, width):
            a, b = diagonal[i], diagonal[j]
            g = gcd(a, b)
            diagonal[i], diagonal[j] = g, a // g * b
    return diagonal


def hermite_coordinates(basis: list, v) -> list[int]:
    """The integer x with ``x @ basis = v``, for a square upper triangular ``basis``.

    Back-substitution, one column at a time, with every division checked
    exact: ArithmeticError when v does not lie in the row lattice of the basis.
    """
    x: list[int] = []
    for j, row in enumerate(basis):
        q, rem = divmod(v[j] - sum(t * b[j] for t, b in zip(x, basis)), row[j])
        if rem:
            raise ArithmeticError("vector does not lie in the row lattice of the Hermite basis")
        x.append(q)
    return x


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Hermite basis of {x : a @ x = 0} over the integers, as matrix columns: ``kernel_basis`` of a's rows."""
    return IntMatrix.from_columns(kernel_basis(a.to_rows(), a.cols), rows=a.cols)


def kernel_basis(work: list[list[int]], width: int, den: int = 1) -> list[list[int]]:
    """Hermite basis of the integer kernel of the rows ``work``, one vector per basis element.

    No Smith form is involved. ``_gauss_jordan`` reduces the rows with pivot
    columns chosen right to left, so a column is free exactly when some
    kernel vector has its first nonzero coordinate there: the free columns
    are the Hermite pivot columns of the kernel. Pivot row i then reads
    den * x[pivot i] + sum_t work[i][t] * x[free[t]] = 0, so
    ``x_pivots = y @ m / |den|`` for the free coordinates ``y``, and the
    integral kernel is the lift of ``kernel_mod(m, |den|)``, the lattice
    {y : y @ m = 0 mod |den|}. The lifted rows are already reduced above
    their pivots, which all lie among the free columns, so the output is the
    canonical, saturated, sign-normalized Hermite basis of the kernel.
    ``den`` goes on from a state some elimination reached, as in
    ``_gauss_jordan``; the kernel is that of the rows as given.
    """
    found, den, _ = _gauss_jordan(work, range(width - 1, -1, -1), True, den)
    rows = sorted(range(len(found)), key=found.__getitem__)
    taken = set(found)
    free = [c for c in range(width) if c not in taken]
    sign = -1 if den > 0 else 1
    m = [[sign * work[i][t] for i in rows] for t in range(len(free))]
    den = abs(den)
    lifts = [(found[i], column) for i, column in zip(rows, zip(*m))]
    vectors = []
    for y in kernel_mod(m, den):
        x = [0] * width
        for f, t in zip(free, y):
            x[f] = t
        for c, column in lifts:
            q, rem = divmod(sum(map(mul, y, column)), den)
            if rem:
                raise ArithmeticError("kernel vector does not lift to an integer vector")
            x[c] = q
        vectors.append(x)
    return vectors


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


def solve_integer(a: IntMatrix, c) -> list[int] | None:
    """Some integer solution of a @ x = c, or None when none exists.

    It is the canonical solution of ``solve_mod_subgroup`` against the zero
    subgroup, so equal inputs give identical output.
    """
    if len(c) != a.rows:
        raise ValueError("right-hand side length disagrees with row count")
    return solve_mod_subgroup(a, IntMatrix(a.rows, 0, ()), c)


def solve_mod_subgroup(a: IntMatrix, b: IntMatrix, c) -> list[int] | None:
    """Canonical x with a @ x - c in the integer column span of b, else None.

    The Hermite basis of {(z, x) : a @ x - z c in colspan(b)} starts with a
    row (1, x) exactly when c is reachable; the rows after it are the
    Hermite basis of ``preimage_lattice(a, b)``, and x is already reduced
    against them, so it is the canonical representative of its solution
    coset and equal inputs give identical output. No Smith form is involved.
    """
    if a.rows != b.rows or len(c) != a.rows:
        raise ValueError("incompatible shapes")
    basis = preimage_lattice(hstack(IntMatrix(a.rows, 1, tuple(-x for x in c)), a), b)
    if not basis or basis[0][0] != 1:
        return None
    return basis[0][1:]


def determinant(a: IntMatrix) -> int:
    """Exact determinant: the full-rank minor of ``FractionFreeLU(a)``, else 0."""
    if a.rows != a.cols:
        raise ValueError("determinant of a non-square matrix")
    lu = FractionFreeLU(a)
    return lu.minor if lu.rank == a.rows else 0


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
