"""Hand-rolled lattice oracles for the tests.

The library answers lattice questions through ``linalg.preimage_lattice``
and ``linalg.smith_diagonal_mod``; these plain integer eliminations are
kept here as independent references for them: a Hermite row basis by
repeated extended-gcd row moves, reduction of a vector against such a
basis, and a rational solve by Fraction Gauss-Jordan. The idele class group
is checked against a second route: the subgroup of H1(M - L) generated by
the peripheral table, a kernel of width 2l + s, where the library works in
H1(M)'s s coordinates. The principal lattice is checked against the whole
kernel of [peripheral | relations], where the library eliminates the knot
rows alone and cuts their graph to the principal divisors Y.
"""

from fractions import Fraction


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    if b == 0:
        return (a, 1, 0) if a >= 0 else (-a, -1, 0)
    g, x, y = _xgcd(b, a % b)
    return g, y, x - (a // b) * y


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


def fraction_solve(rows, rhs):
    """The unique rational x with rows @ x = rhs, by Gauss-Jordan on a nonsingular square system."""
    n = len(rows)
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    for c in range(n):
        p = next(r for r in range(c, n) if aug[r][c])
        aug[c], aug[p] = aug[p], aug[c]
        aug[c] = [v / aug[c][c] for v in aug[c]]
        for r in range(n):
            if r != c and aug[r][c]:
                aug[r] = [v - aug[r][c] * w for v, w in zip(aug[r], aug[c])]
    return [row[n] for row in aug]


def peripheral_matrix(comp):
    """The peripheral table of a stage: columns (meridian_K, longitude_K) for K running through the link."""
    from idelink.linalg import IntMatrix

    cols = [c for k in comp.link for c in (comp.meridian_coords(k), comp.longitude_coords(k))]
    return IntMatrix.from_columns(cols, rows=comp.generator_count)


def principal_lattice(comp) -> list:
    """The principal ideles of a stage through ``preimage_lattice`` of [peripheral | relations]."""
    from idelink.ideles import Idele
    from idelink.linalg import preimage_lattice

    basis = preimage_lattice(peripheral_matrix(comp), comp.relations)
    return [Idele.of({k: (row[2 * i], row[2 * i + 1]) for i, k in enumerate(comp.link)}) for row in basis]


def peripheral_class_group(comp) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(class invariants, cokernel invariants) of a stage through the peripheral kernel.

    The class group is the image of rho, the subgroup of H1(M - L) that the
    peripheral table's columns generate; the cokernel is H1(M) modulo the
    stage's knot classes.
    """
    from idelink.abelian import subgroup_invariant_factors

    peripheral = peripheral_matrix(comp)
    class_invariants = subgroup_invariant_factors(comp, map(peripheral.column, range(peripheral.cols)))
    man = comp.manifold
    coker = man.h1.quotient(man.knot_class(k).coords for k in comp.link)
    return class_invariants, coker.invariant_factors
